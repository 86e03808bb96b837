//! `sweep-explore`: two clients in a closed loop; each `/sweep` runs on a
//! new generated base netlist, then drills into sampled rows with single
//! `/analyze` or `/qs` requests, whose answers must equal the rows.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use lis_server::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::{raw_field, row_netlist};
use crate::cold::{common_layers, tracing_overhead};
use crate::gen::{envelope, mix, sweep_req, Req};
use crate::http::Conn;
use crate::layers::{replay, Sent};
use crate::sut::LaunchSpec;
use crate::trace::{Layers, Tracer};
use crate::{
    latency, report_e2e, sample_queue_depth, setup, Args, Outcome, Sample, Series, WARMUP_S,
};

const WORKERS: usize = 2;
/// Keep-alive clients of the closed loop: as many as workers, so the
/// service is never idle between requests.
const CLIENTS: usize = 2;
/// Rows drilled into per sweep.
const DRILLS: usize = 4;

struct SweepDone {
    req: Req,
    status: u16,
    body: Vec<u8>,
    start: Instant,
    first: Instant,
    end: Instant,
}

struct Drill {
    sweep: usize,
    id: String,
    route: &'static str,
    /// The single request sent for the row's design point.
    request: Vec<u8>,
    /// The row's `result` bytes.
    expected: Option<String>,
    status: u16,
    body: Vec<u8>,
    ms: f64,
    start: Instant,
}

struct Run {
    sweeps: Vec<SweepDone>,
    drills: Vec<Drill>,
    elapsed: f64,
    depth: Vec<f64>,
}

fn data_rows(body: &[u8]) -> Vec<&str> {
    let text = std::str::from_utf8(body).unwrap_or("");
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    if lines.len() < 2 {
        return Vec::new();
    }
    lines[1..lines.len() - 1].to_vec()
}

/// One client: sweeps `first_k`, `first_k + CLIENTS`, ... until `until`.
fn client(
    addr: SocketAddr,
    seed: u64,
    first_k: u64,
    until: Instant,
) -> io::Result<(Vec<SweepDone>, Vec<Drill>)> {
    let mut conn = Conn::connect(addr)?;
    let mut sweeps = Vec::new();
    let mut drills = Vec::new();
    let mut k = first_k;
    while Instant::now() < until {
        let (req, kind) = sweep_req(seed, k);
        let start = Instant::now();
        let r = conn.call("POST", "/sweep", &req.id, &req.body)?;
        let end = Instant::now();
        let idx = sweeps.len();
        if r.status == 200 {
            let rows = data_rows(&r.body);
            let mut rng = StdRng::seed_from_u64(mix(seed, 0xD811, k));
            let picks: Vec<usize> = if rows.is_empty() {
                Vec::new()
            } else {
                let mut p = vec![0];
                while p.len() < DRILLS.min(rows.len()) {
                    let i = rng.gen_range(0..rows.len());
                    if !p.contains(&i) {
                        p.push(i);
                    }
                }
                p
            };
            let route = if kind == "qs" { "qs" } else { "analyze" };
            for (j, &i) in picks.iter().enumerate() {
                let line = rows[i];
                let row = Json::parse(line).ok();
                let netlist = row
                    .as_ref()
                    .and_then(|row| row_netlist(&req.netlist, row).ok())
                    .unwrap_or_default();
                let id = format!("{}-row{j}", req.id);
                let body = envelope(&netlist, "");
                let t = Instant::now();
                let d = conn.call("POST", &format!("/{route}"), &id, &body)?;
                drills.push(Drill {
                    sweep: idx,
                    id,
                    route,
                    request: body,
                    expected: raw_field(line, "result").map(str::to_string),
                    status: d.status,
                    body: d.body,
                    ms: t.elapsed().as_secs_f64() * 1e3,
                    start: t,
                });
            }
        }
        sweeps.push(SweepDone {
            req,
            status: r.status,
            first: r.first_row,
            body: r.body,
            start,
            end,
        });
        k += CLIENTS as u64;
    }
    Ok((sweeps, drills))
}

fn load(addr: SocketAddr, seed: u64, first_k: u64, secs: f64, sample: bool) -> io::Result<Run> {
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(secs);
    let stop = AtomicBool::new(false);
    let (runs, depth) = std::thread::scope(|s| {
        let sampler = sample.then(|| s.spawn(|| sample_queue_depth(&[addr], &stop)));
        let others: Vec<_> = (1..CLIENTS as u64)
            .map(|c| s.spawn(move || client(addr, seed, first_k + c, until)))
            .collect();
        let mut runs = vec![client(addr, seed, first_k, until)];
        runs.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("client thread panicked")),
        );
        stop.store(true, Ordering::Relaxed);
        let depth = sampler.map_or(Vec::new(), |h| h.join().expect("sampler panicked"));
        (runs, depth)
    });
    let (mut sweeps, mut drills) = (Vec::new(), Vec::new());
    for run in runs {
        let (s, d) = run?;
        let offset = sweeps.len();
        drills.extend(d.into_iter().map(|d| Drill {
            sweep: d.sweep + offset,
            ..d
        }));
        sweeps.extend(s);
    }
    Ok(Run {
        sweeps,
        drills,
        elapsed: t0.elapsed().as_secs_f64(),
        depth,
    })
}

/// Checks one run; returns the sweep samples (latency per sweep) and the
/// drill-down samples.
fn check_run(run: &Run, out: &mut Outcome) -> (Vec<Sample>, Vec<Sample>) {
    let mut sweeps: Vec<Sample> = Vec::new();
    for s in &run.sweeps {
        let mut ok = true;
        if s.status == 200 {
            let text = std::str::from_utf8(&s.body).unwrap_or("");
            let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
            let header = lines.first().and_then(|l| Json::parse(l).ok());
            let trailer = lines.last().and_then(|l| Json::parse(l).ok());
            let points = header
                .as_ref()
                .and_then(|h| h.get("points"))
                .and_then(Json::as_u64);
            let rows = trailer
                .as_ref()
                .and_then(|t| t.get("rows"))
                .and_then(Json::as_u64);
            let data = lines.len().saturating_sub(2) as u64;
            if points != Some(data) || rows != Some(data) || data == 0 {
                out.note(format!(
                    "wrong sweep {}: header points {points:?}, trailer rows {rows:?}, {data} data rows",
                    s.req.id
                ));
                ok = false;
            }
        }
        // A row the service could not answer fails the sweep (counted in
        // `failed`, like a non-200 answer), without making it wrong.
        let refused =
            s.status == 200 && data_rows(&s.body).iter().any(|l| l.contains("\"error\":"));
        if refused {
            out.note(format!("sweep {} has error rows", s.req.id));
        }
        sweeps.push(Sample {
            points: data_rows(&s.body).len() as f64,
            // A sweep's route for the per-route metrics is its mode.
            route: if s.req.family.starts_with("qs") {
                "qs"
            } else {
                "analyze"
            },
            family: s.req.family,
            ms: (s.end - s.start).as_secs_f64() * 1e3,
            first_ms: (s.first - s.start).as_secs_f64() * 1e3,
            status: if refused { 422 } else { s.status },
            ok: Some(ok),
            limit: false,
            id: s.req.id.clone(),
        });
    }
    let mut drills = Vec::new();
    for d in &run.drills {
        let got = std::str::from_utf8(&d.body).unwrap_or("");
        let ok = d.status != 200 || d.expected.as_deref() == Some(got);
        if !ok {
            out.note(format!(
                "wrong drill-down {}: row result {:?} vs single answer {got}",
                d.id, d.expected
            ));
            sweeps[d.sweep].ok = Some(false);
        }
        drills.push(Sample {
            points: 1.0,
            route: d.route,
            family: "drill",
            ms: d.ms,
            first_ms: d.ms,
            status: d.status,
            ok: Some(ok),
            limit: false,
            id: d.id.clone(),
        });
    }
    (sweeps, drills)
}

/// Latency and rates are per sweep (per-route metrics by the sweep's
/// mode); drill-downs count in `success_ratio` only.
fn e2e(out: &mut Outcome, run: &Run, sweeps: &[Sample], drills: &[Sample]) {
    let per_sweep = Series {
        samples: sweeps,
        span: run.elapsed,
    };
    report_e2e(
        out,
        &[sweeps, drills],
        per_sweep,
        per_sweep,
        per_sweep,
        true,
    );
    for route in ["analyze", "qs"] {
        let d = latency(drills, |x| x.route == route);
        out.note(format!(
            "drill-down /{route}: n={} p50={:.3} ms p99={:.3} ms",
            d.n, d.p50, d.p99
        ));
    }
    let rows: f64 = sweeps.iter().map(|s| s.points).sum();
    out.note(format!(
        "{} sweeps ({rows} rows) and {} drill-downs in {:.2} s",
        sweeps.len(),
        drills.len(),
        run.elapsed
    ));
    for kind in ["budget", "qs", "sim", "qs-large", "sim-large"] {
        let v: Vec<f64> = sweeps
            .iter()
            .filter(|x| x.family == kind)
            .map(|x| x.ms)
            .collect();
        let q = |p: f64| crate::stats::quantile(&v, p).unwrap_or(f64::NAN);
        out.note(format!(
            "sweep kind {kind}: n={} p10={:.3} p50={:.3} p90={:.3} ms",
            v.len(),
            q(0.1),
            q(0.5),
            q(0.9)
        ));
    }
}

fn stream_self_check(seed: u64, out: &mut Outcome) {
    let take = |s: u64| -> Vec<Vec<u8>> { (0..12).map(|k| sweep_req(s, k).0.body).collect() };
    let a = take(seed);
    if a != take(seed) {
        out.broken
            .push("sweep-explore stream differs between two draws of one seed".into());
    }
    if a == take(seed.wrapping_add(1)) {
        out.broken
            .push("sweep-explore stream is the same for two seeds".into());
    }
}

pub fn run(args: &Args) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    stream_self_check(args.seed, &mut out);
    let spec = LaunchSpec::serve(&args.lis, WORKERS);
    let sut = setup(&spec, &mut out)?;
    let before = sut.scrape()?;
    // The warm-up, like the traced half, runs from a position of its own.
    let warmup = load(sut.addr, args.seed, 2 << 32, WARMUP_S, false)?;
    let (plain, traced) = if args.trace {
        let p = load(sut.addr, args.seed, 0, args.seconds / 2.0, false)?;
        // The traced half continues at a position fixed by the seed alone.
        let t = load(sut.addr, args.seed, 1 << 32, args.seconds / 2.0, true)?;
        (p, Some(t))
    } else {
        (load(sut.addr, args.seed, 0, args.seconds, false)?, None)
    };
    let after = sut.scrape()?;
    let hwm = sut.peak_rss_mb();
    sut.stop()?;

    let (warm_sweeps, warm_drills) = check_run(&warmup, &mut out);
    out.tally(&warm_sweeps);
    out.tally(&warm_drills);
    let (sweeps, drills) = check_run(&plain, &mut out);
    out.tally(&sweeps);
    out.tally(&drills);
    let traced_samples = traced.as_ref().map(|t| {
        let (s, d) = check_run(t, &mut out);
        out.tally(&s);
        out.tally(&d);
        (s, d)
    });
    e2e(&mut out, &plain, &sweeps, &drills);
    out.e2e("peak_rss_mb", hwm, "MB");

    if let (Some(t), Some((ts, _))) = (&traced, &traced_samples) {
        let mut tracer = Tracer::new();
        let mut acc = Layers::default();
        let budget = Duration::from_secs_f64(args.seconds);
        let t0 = Instant::now();
        let mut demand_us = 0.0;
        // Start and end of each replayed sweep.
        let mut spans: Vec<(Instant, Instant)> = Vec::new();
        let mut replayed = 0;
        for (s, d) in t.sweeps.iter().zip(ts) {
            if t0.elapsed() > budget {
                break;
            }
            let span = Some(tracer.record("client.request", s.start, s.end, None, &s.req.id));
            let sent = Sent {
                id: &s.req.id,
                route: "sweep",
                family: s.req.family,
                body: &s.req.body,
                client_us: d.ms * 1e3,
                computed: true,
                rows: data_rows(&s.body).len(),
                span,
            };
            let n = acc.n("jobs.execute_us");
            replay(&sent, &mut tracer, &mut acc);
            if let Some(v) = acc.samples.get("jobs.execute_us").filter(|v| v.len() > n) {
                demand_us += v[v.len() - 1];
                spans.push((s.start, s.end));
            }
            replayed += 1;
        }
        // Drill-downs replay through the same layers (analyze / qs).
        for d in &t.drills {
            if t0.elapsed() > budget + budget / 2 {
                break;
            }
            let end = d.start + Duration::from_secs_f64(d.ms / 1e3);
            let sent = Sent {
                id: &d.id,
                route: d.route,
                family: "drill",
                body: &d.request,
                client_us: d.ms * 1e3,
                computed: true,
                rows: 0,
                span: Some(tracer.record("client.request", d.start, end, None, &d.id)),
            };
            replay(&sent, &mut tracer, &mut acc);
        }
        out.note(format!(
            "traced: replayed {replayed} of {} sweeps layer by layer",
            t.sweeps.len()
        ));
        crate::emit_layers(&mut out, &acc);
        let (ts, _) = traced_samples.as_ref().expect("traced run checked");
        common_layers(&mut out, &before, &after, ts, t.elapsed, &t.depth);
        tracing_overhead(&mut out, &sweeps, ts);
        // The workers can only have done the sweeps' demand while a sweep
        // was in flight: over the union of the sweeps' intervals.
        spans.sort();
        let mut busy_us = 0.0;
        let mut open: Option<(Instant, Instant)> = None;
        for &(a, b) in &spans {
            open = match open {
                Some((x, y)) if a <= y => Some((x, y.max(b))),
                Some((x, y)) => {
                    busy_us += (y - x).as_secs_f64() * 1e6;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((x, y)) = open {
            busy_us += (y - x).as_secs_f64() * 1e6;
        }
        let ratio = demand_us / (WORKERS as f64 * busy_us.max(1.0));
        out.note(format!(
            "hill: rps / (workers / demand) = {ratio:.3} (demand {demand_us:.0} us over {busy_us:.0} us with a sweep in flight)"
        ));
        crate::check_bottleneck(&mut out, ratio);
        tracer.write(
            &args
                .work
                .join(format!("trace-sweep-explore-{}.jsonl", args.seed)),
        )?;
    }
    Ok(out)
}
