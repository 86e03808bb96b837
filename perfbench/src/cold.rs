//! `cold-design`: two keep-alive clients in a closed loop against one
//! daemon; every netlist is new, so every request misses every cache and
//! the solver layers do the work.

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lis_core::{canonical_hash, parse_netlist};

use crate::gen::{ColdStream, Req};
use crate::http::Conn;
use crate::layers::{replay, Sent};
use crate::sut::LaunchSpec;
use crate::trace::{Layers, Tracer};
use crate::{
    check, latency, report_e2e, sample_queue_depth, setup, stats, Args, Outcome, Sample, Series,
    WARMUP_S,
};

/// Pool threads of the daemon under test.
const WORKERS: usize = 2;
/// Keep-alive clients of the closed loop.
const CLIENTS: usize = 2;
/// Requests generated ahead per second of load: above the service's
/// throughput on this workload, so none are generated while it runs.
const PREFILL_RPS: f64 = 260.0;

struct Done {
    req: Req,
    status: u16,
    body: Vec<u8>,
    start: Instant,
    first: Instant,
    end: Instant,
}

fn client(addr: SocketAddr, stream: &Mutex<ColdStream>, until: Instant) -> io::Result<Vec<Done>> {
    let mut conn = Conn::connect(addr)?;
    let mut done = Vec::new();
    while Instant::now() < until {
        let req = stream.lock().expect("stream lock").next_req();
        let path = format!("/{}", req.route);
        let start = Instant::now();
        let r = conn.call("POST", &path, &req.id, &req.body)?;
        let end = Instant::now();
        done.push(Done {
            req,
            status: r.status,
            first: r.first_row,
            body: r.body,
            start,
            end,
        });
    }
    Ok(done)
}

/// Sends both requests at once, one per connection.
fn probe_together(addr: SocketAddr, pair: [Req; 2]) -> io::Result<Vec<Done>> {
    let send = |req: Req| -> io::Result<Done> {
        let mut conn = Conn::connect(addr)?;
        let start = Instant::now();
        let r = conn.call("POST", &format!("/{}", req.route), &req.id, &req.body)?;
        Ok(Done {
            req,
            status: r.status,
            first: r.first_row,
            body: r.body,
            start,
            end: Instant::now(),
        })
    };
    let [a, b] = pair;
    std::thread::scope(|s| {
        let other = s.spawn(|| send(b));
        let first = send(a);
        let second = other.join().expect("probe thread panicked");
        Ok(vec![first?, second?])
    })
}

/// Runs the closed loop for `secs`; with `sample`, also samples the
/// daemon's queue depth. Returns completions (start order), wall time and
/// queue-depth samples.
fn load(
    addr: SocketAddr,
    stream: &Mutex<ColdStream>,
    secs: f64,
    sample: bool,
) -> io::Result<(Vec<Done>, f64, Vec<f64>)> {
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(secs);
    let stop = AtomicBool::new(false);
    let (runs, depth) = std::thread::scope(|s| {
        let sampler = sample.then(|| s.spawn(|| sample_queue_depth(&[addr], &stop)));
        let others: Vec<_> = (1..CLIENTS)
            .map(|_| s.spawn(|| client(addr, stream, until)))
            .collect();
        let mut runs = vec![client(addr, stream, until)];
        runs.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("client thread panicked")),
        );
        stop.store(true, Ordering::Relaxed);
        let depth = sampler.map_or(Vec::new(), |h| h.join().expect("sampler panicked"));
        (runs, depth)
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut done = Vec::new();
    for run in runs {
        done.extend(run?);
    }
    done.sort_by_key(|d| d.start);
    Ok((done, elapsed, depth))
}

fn sample(d: &Done) -> Sample {
    Sample {
        points: 1.0,
        route: d.req.route,
        family: d.req.family,
        ms: (d.end - d.start).as_secs_f64() * 1e3,
        first_ms: (d.first - d.start).as_secs_f64() * 1e3,
        status: d.status,
        ok: None,
        limit: false,
        id: d.req.id.clone(),
    }
}

/// Same seed, same bytes; another seed, other bytes.
fn stream_self_check(seed: u64, out: &mut Outcome) {
    let take = |s: u64| -> Vec<Vec<u8>> {
        let mut st = ColdStream::new(s);
        (0..40).map(|_| st.next_req().body).collect()
    };
    let a = take(seed);
    if a != take(seed) {
        out.broken
            .push("cold-design stream differs between two draws of one seed".into());
    }
    if a == take(seed.wrapping_add(1)) {
        out.broken
            .push("cold-design stream is the same for two seeds".into());
    }
}

pub fn run(args: &Args) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    stream_self_check(args.seed, &mut out);
    let spec = LaunchSpec::serve(&args.lis, WORKERS);
    let sut = setup(&spec, &mut out)?;
    let before = sut.scrape()?;
    let mut cold = ColdStream::new(args.seed);
    let pair = cold.probe_pair();
    let t = Instant::now();
    cold.prefill(((args.seconds + WARMUP_S) * PREFILL_RPS) as usize);
    out.note(format!(
        "generated {} requests ahead in {:.2} s",
        cold.ready(),
        t.elapsed().as_secs_f64()
    ));
    let stream = Mutex::new(cold);
    let paired = probe_together(sut.addr, pair)?;
    let (warmup, _, _) = load(sut.addr, &stream, WARMUP_S, false)?;
    let (plain, plain_s, traced) = if args.trace {
        let (p, ps, _) = load(sut.addr, &stream, args.seconds / 2.0, false)?;
        let (t, ts, depth) = load(sut.addr, &stream, args.seconds / 2.0, true)?;
        (p, ps, Some((t, ts, depth)))
    } else {
        let (p, ps, _) = load(sut.addr, &stream, args.seconds, false)?;
        (p, ps, None)
    };
    let after = sut.scrape()?;
    let hwm = sut.peak_rss_mb();
    sut.stop()?;
    if stream.lock().expect("stream lock").ready() == 0 {
        out.note(
            "the requests generated ahead ran out; the rest were generated during the load".into(),
        );
    }

    // Answer checks, before any number is reported: the probe pair,
    // warm-up, untraced and traced requests in that order.
    let mut all: Vec<&Done> = paired.iter().chain(&warmup).chain(&plain).collect();
    if let Some((t, _, _)) = &traced {
        all.extend(t.iter());
    }
    let mut s_all: Vec<Sample> = all.iter().map(|d| sample(d)).collect();
    let mut hashes = HashSet::new();
    // Per route and family: sent, failed, cycle-limit refusals.
    let mut failures: BTreeMap<(&str, &str), (u64, u64, u64)> = BTreeMap::new();
    // The oracle runs once the load is over, on two threads.
    let judge = |part: &[&Done]| {
        part.iter()
            .map(|d| {
                let verdict = if d.status == 200 {
                    check::check(d.req.route, &d.req.netlist, &d.body)
                } else {
                    Ok(())
                };
                let hash = parse_netlist(&d.req.netlist).map(|sys| canonical_hash(&sys));
                (verdict, hash.ok())
            })
            .collect::<Vec<_>>()
    };
    let verdicts = std::thread::scope(|s| {
        let (a, b) = all.split_at(all.len() / 2);
        let other = s.spawn(|| judge(b));
        let mut v = judge(a);
        v.extend(other.join().expect("check thread panicked"));
        v
    });
    for (i, (d, (verdict, hash))) in all.iter().zip(verdicts).enumerate() {
        let limit = check::is_cycle_limit_refusal(d.req.route, d.status, &d.body);
        let ok = match verdict {
            Ok(()) => true,
            Err(e) => {
                out.note(format!("wrong answer {} ({}): {e}", d.req.id, d.req.route));
                false
            }
        };
        let sample = &mut s_all[i];
        sample.ok = Some(ok);
        sample.limit = limit;
        let cell = failures.entry((d.req.route, d.req.family)).or_default();
        cell.0 += 1;
        if !sample.succeeded() {
            cell.1 += 1;
        } else if limit {
            cell.2 += 1;
        }
        hashes.extend(hash);
    }
    if hashes.len() != all.len() {
        out.broken.push(format!(
            "cold-design sent {} netlists but only {} distinct canonical hashes",
            all.len(),
            hashes.len()
        ));
    }
    let hits = after.server_sum("lis_cache_hits_total") - before.server_sum("lis_cache_hits_total");
    out.note(format!("server cache hits during the run: {hits}"));
    if hits != 0.0 {
        out.broken
            .push(format!("cold-design counted {hits} cache hits"));
    }
    for ((route, family), (n, failed, refused)) in &failures {
        let lat: Vec<f64> = all
            .iter()
            .filter(|d| d.req.route == *route && d.req.family == *family)
            .map(|d| (d.end - d.start).as_secs_f64() * 1e3)
            .collect();
        let sum = stats::summarize(&lat);
        out.note(format!(
            "/{route} {family}: {n} sent, {failed} failed, {refused} cycle-limit refusals; \
             p50 {:.3} ms, max {:.3} ms",
            sum.p50,
            stats::quantile(&lat, 1.0).unwrap_or(f64::NAN)
        ));
    }
    for d in all.iter().filter(|d| d.status != 200).take(20) {
        out.note(format!(
            "not 200: {} /{} {}: {} {}",
            d.req.id,
            d.req.route,
            d.req.family,
            d.status,
            String::from_utf8_lossy(&d.body)
        ));
    }

    out.tally(&s_all);
    let (_, timed) = s_all.split_at(paired.len() + warmup.len());
    let (s_plain, s_traced) = timed.split_at(plain.len());
    let series = Series {
        samples: s_plain,
        span: plain_s,
    };
    report_e2e(&mut out, &[&s_all], series, series, series, false);
    out.e2e("peak_rss_mb", hwm, "MB");

    if let Some((t, t_s, depth)) = &traced {
        let ctx = Traced {
            done: t,
            samples: s_traced,
            elapsed: *t_s,
            depth,
            plain: s_plain,
        };
        ctx.layers(args, &before, &after, &mut out)?;
    }
    Ok(out)
}

struct Traced<'a> {
    done: &'a [Done],
    samples: &'a [Sample],
    elapsed: f64,
    depth: &'a [f64],
    plain: &'a [Sample],
}

impl Traced<'_> {
    fn layers(
        &self,
        args: &Args,
        before: &crate::sut::Scrape,
        after: &crate::sut::Scrape,
        out: &mut Outcome,
    ) -> io::Result<()> {
        let mut tracer = Tracer::new();
        let mut acc = Layers::default();
        let budget = Duration::from_secs_f64(args.seconds);
        let t0 = Instant::now();
        let mut demand_us = 0.0;
        let mut window: Option<(Instant, Instant)> = None;
        let mut replayed = 0usize;
        for d in self.done {
            if t0.elapsed() > budget {
                break;
            }
            let span = Some(tracer.record("client.request", d.start, d.end, None, &d.req.id));
            let sent = Sent {
                id: &d.req.id,
                route: d.req.route,
                family: d.req.family,
                body: &d.req.body,
                client_us: (d.end - d.start).as_secs_f64() * 1e6,
                computed: true,
                rows: 0,
                span,
            };
            let before_exec = acc.samples.get("jobs.execute_us").map_or(0, Vec::len);
            replay(&sent, &mut tracer, &mut acc);
            if let Some(v) = acc.samples.get("jobs.execute_us") {
                if v.len() > before_exec {
                    demand_us += v[v.len() - 1];
                }
            }
            window = Some(match window {
                None => (d.start, d.end),
                Some((a, b)) => (a.min(d.start), b.max(d.end)),
            });
            replayed += 1;
        }
        out.note(format!(
            "traced: replayed {replayed} of {} requests layer by layer ({} spans)",
            self.done.len(),
            tracer.len()
        ));
        crate::emit_layers(out, &acc);
        common_layers(out, before, after, self.samples, self.elapsed, self.depth);
        tracing_overhead(out, self.plain, self.samples);

        // Hill's bottleneck bound on the replayed window: the workers can
        // not have done the requests faster than their in-process demand.
        if let Some((a, b)) = window {
            let wall_us = (b - a).as_secs_f64() * 1e6;
            let utilization = demand_us / (WORKERS as f64 * wall_us);
            out.note(format!(
                "hill: rps / (workers / demand) = {utilization:.3} over {replayed} requests \
                 (demand {:.0} us, {WORKERS} workers, window {:.0} us)",
                demand_us, wall_us
            ));
            crate::check_bottleneck(out, utilization);
        }
        tracer.write(
            &args
                .work
                .join(format!("trace-cold-design-{}.jsonl", args.seed)),
        )?;
        Ok(())
    }
}

/// Per-layer metrics read from `/metrics` and the client: cache hit ratio,
/// readiness wakeups per request, sampled queue depth against Little's law.
pub fn common_layers(
    out: &mut Outcome,
    before: &crate::sut::Scrape,
    after: &crate::sut::Scrape,
    samples: &[Sample],
    elapsed: f64,
    depth: &[f64],
) {
    let delta = |name: &str| after.server_sum(name) - before.server_sum(name);
    let hits = delta("lis_cache_hits_total");
    let misses = delta("lis_cache_misses_total");
    out.layer(
        "cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    );
    let requests = delta("lis_requests_total").max(1.0);
    out.layer(
        "net.wakeups_per_request",
        delta("lis_net_readiness_wakeups_total") / requests,
        "count",
    );
    let depth_mean = stats::mean(depth).unwrap_or(0.0);
    let lambda = samples.len() as f64 / elapsed;
    out.layer("pool.queue_depth_mean", depth_mean, "count");
    out.layer("pool.wait_ms", depth_mean / lambda.max(1e-9) * 1e3, "ms");
    let mean_latency_s =
        samples.iter().map(|s| s.ms).sum::<f64>() / 1e3 / samples.len().max(1) as f64;
    out.note(format!(
        "little: sampled queue depth {depth_mean:.3} ({} samples); client in flight L = lambda*W = \
         {lambda:.1}/s * {:.3} ms = {:.3}",
        depth.len(),
        mean_latency_s * 1e3,
        lambda * mean_latency_s
    ));
}

/// How far the traced half's latency sits from the untraced half's.
pub fn tracing_overhead(out: &mut Outcome, plain: &[Sample], traced: &[Sample]) {
    let p = latency(plain, |_| true).p50;
    let t = latency(traced, |_| true).p50;
    let pct = (t / p - 1.0) * 100.0;
    out.note(format!(
        "tracing overhead: p50 {t:.3} ms traced vs {p:.3} ms untraced ({pct:+.1}%)"
    ));
    out.layer("trace.overhead_pct", pct, "%");
}
