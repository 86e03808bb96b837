//! `warm-cluster`: the gateway in front of two shards whose durable stores
//! an earlier, untimed lifetime filled with a skewed hot set. An open loop
//! at a fixed offered rate over one pipelined connection, then a
//! saturating closed phase over two; the front tier, caches and store do
//! the work.

use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use lis_server::ResultStore;

use crate::check;
use crate::cold::{common_layers, tracing_overhead};
use crate::gen::{hot_set, Req, WarmStream};
use crate::http::Conn;
use crate::layers::{replay, Sent};
use crate::sut::{LaunchSpec, Scrape, Sut};
use crate::trace::{Layers, Tracer};
use crate::{
    latency, report_e2e, sample_queue_depth, setup, stats, Args, Outcome, Sample, Series, WARMUP_S,
};

/// Distinct hot designs: more than one shard's result cache holds, fewer
/// than both together.
const HOT: usize = 160;
const SHARD_CACHE: usize = 96;
/// Offered rate of the open-loop phase, requests per second.
const RATE: f64 = 500.0;
/// Requests each connection keeps in flight in the saturating phase.
const WINDOW: usize = 8;
/// Forwarding threads of the gateway (`--threads`).
const GATEWAY_WORKERS: f64 = 2.0;

struct Rec {
    req: Req,
    due: Instant,
    sent: Instant,
    first: Instant,
    done: Instant,
    status: u16,
    ok: bool,
    /// Kept only for never-seen designs, checked by the oracle later.
    body: Option<Vec<u8>>,
}

fn record(
    req: Req,
    due: Instant,
    sent: Instant,
    r: crate::http::Response,
    expected: &[Vec<u8>],
) -> Rec {
    let done = Instant::now();
    let (ok, body) = match req.hot {
        Some(i) => (r.status != 200 || r.body == expected[i], None),
        None => (true, Some(r.body.clone())),
    };
    Rec {
        req,
        due,
        sent,
        first: r.first_row,
        done,
        status: r.status,
        ok,
        body,
    }
}

/// The open loop over one pipelined connection: this thread sends request
/// `k0 + i` when it is due, `i / RATE` after `t0`, and another reads the
/// answers in order and times each from when it was due. The sender waits
/// with a timed sleep: a socket read timeout waits whole kernel ticks (8 ms
/// for any timeout under 4 ms on a 250 Hz kernel), which made the generator
/// itself late.
fn open_loop(ctx: &Ctx, k0: u64, t0: Instant, end: Instant) -> io::Result<Vec<Rec>> {
    let mut conn = Conn::connect(ctx.addr)?;
    let mut reader = conn.try_clone()?;
    let (tx, rx) = mpsc::channel::<(Req, Instant, Instant)>();
    std::thread::scope(|s| {
        let receiver = s.spawn(move || -> io::Result<Vec<Rec>> {
            let mut recs = Vec::new();
            while let Ok((req, due, sent)) = rx.recv() {
                let r = reader.recv(None)?.expect("blocking receive");
                recs.push(record(req, due, sent, r, ctx.expected));
            }
            Ok(recs)
        });
        let sent = (|| -> io::Result<()> {
            for i in 0u64.. {
                let due = t0 + Duration::from_secs_f64(i as f64 / RATE);
                if due >= end {
                    return Ok(());
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let req = ctx.stream.get(k0 + i);
                let sent = Instant::now();
                conn.send("POST", &format!("/{}", req.route), &req.id, &req.body)?;
                tx.send((req, due, sent)).expect("receiver alive");
            }
            Ok(())
        })();
        drop(tx);
        let recs = receiver.join().expect("receiver thread panicked");
        sent.and(recs)
    })
}

/// One connection of the saturating phase: `WINDOW` requests in flight.
fn closed_lane(ctx: &Ctx, lane: u64, k0: u64, end: Instant) -> io::Result<Vec<Rec>> {
    let mut conn = Conn::connect(ctx.addr)?;
    let mut pending: VecDeque<(Req, Instant)> = VecDeque::new();
    let mut recs = Vec::new();
    let mut j = 0u64;
    loop {
        while pending.len() < WINDOW && Instant::now() < end {
            let req = ctx.stream.get(k0 + lane + 2 * j);
            j += 1;
            let sent = Instant::now();
            conn.send("POST", &format!("/{}", req.route), &req.id, &req.body)?;
            pending.push_back((req, sent));
        }
        let Some((req, sent)) = pending.pop_front() else {
            return Ok(recs);
        };
        let r = conn.recv(None)?.expect("blocking receive");
        recs.push(record(req, sent, sent, r, ctx.expected));
    }
}

struct Phase {
    recs: Vec<Rec>,
    elapsed: f64,
    depth: Vec<f64>,
}

/// First stream position of each phase: disjoint, and fixed by the seed
/// alone, whatever the timing.
const PHASE_STRIDE: u64 = 1 << 32;

/// What every lane of a phase shares.
struct Ctx<'a> {
    addr: SocketAddr,
    shards: Vec<SocketAddr>,
    stream: &'a WarmStream<'a>,
    /// Each hot design's first answer.
    expected: &'a [Vec<u8>],
}

/// Runs one phase (open loop or saturating) from stream position `k0`;
/// `sample` adds the queue-depth sampler of a traced run.
fn phase(ctx: &Ctx, open: bool, k0: u64, secs: f64, sample: bool) -> io::Result<Phase> {
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(secs);
    let stop = AtomicBool::new(false);
    let (recs, depth) = std::thread::scope(|s| {
        let sampler = sample.then(|| s.spawn(|| sample_queue_depth(&ctx.shards, &stop)));
        let recs = if open {
            open_loop(ctx, k0, t0, end)
        } else {
            let other = s.spawn(move || closed_lane(ctx, 1, k0, end));
            let a = closed_lane(ctx, 0, k0, end);
            let b = other.join().expect("lane thread panicked");
            a.and_then(|mut a| {
                a.extend(b?);
                Ok(a)
            })
        };
        stop.store(true, Ordering::Relaxed);
        let depth = sampler.map_or(Vec::new(), |h| h.join().expect("sampler panicked"));
        (recs, depth)
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut recs = recs?;
    recs.sort_by_key(|r| r.due);
    Ok(Phase {
        recs,
        elapsed,
        depth,
    })
}

fn samples(phase: &Phase) -> Vec<Sample> {
    phase
        .recs
        .iter()
        .map(|r| Sample {
            points: 1.0,
            route: r.req.route,
            family: r.req.family,
            ms: (r.done - r.due).as_secs_f64() * 1e3,
            first_ms: (r.first - r.due).as_secs_f64() * 1e3,
            status: r.status,
            ok: Some(r.ok),
            limit: false,
            id: r.req.id.clone(),
        })
        .collect()
}

/// Checks never-seen answers with the oracle (repeats were compared to
/// the recorded first answers on arrival).
fn check_fresh(recs: &[Rec], s: &mut [Sample], out: &mut Outcome) {
    for (r, sample) in recs.iter().zip(s.iter_mut()) {
        if let (Some(body), 200) = (&r.body, r.status) {
            if let Err(e) = check::check(r.req.route, &r.req.netlist, body) {
                out.note(format!("wrong answer {}: {e}", r.req.id));
                sample.ok = Some(false);
            }
        }
        if !r.ok {
            out.note(format!(
                "answer of {} differs from the design's first answer",
                r.req.id
            ));
        }
    }
}

fn stream_self_check(seed: u64, hot: &[Req], out: &mut Outcome) {
    let a: Vec<Vec<u8>> = (0..60)
        .map(|k| WarmStream::new(seed, hot).get(k).body)
        .collect();
    let b: Vec<Vec<u8>> = (0..60)
        .map(|k| WarmStream::new(seed, hot).get(k).body)
        .collect();
    let other_hot = hot_set(seed.wrapping_add(1), HOT);
    let c: Vec<Vec<u8>> = (0..60)
        .map(|k| {
            WarmStream::new(seed.wrapping_add(1), &other_hot)
                .get(k)
                .body
        })
        .collect();
    if a != b {
        out.broken
            .push("warm-cluster stream differs between two draws of one seed".into());
    }
    if a == c {
        out.broken
            .push("warm-cluster stream is the same for two seeds".into());
    }
}

/// Opens each shard's store the way a starting shard does.
fn store_open_ms(store: &Path) -> Vec<f64> {
    let Ok(dirs) = std::fs::read_dir(store) else {
        return Vec::new();
    };
    dirs.filter_map(Result::ok)
        .filter_map(|d| {
            let t = Instant::now();
            let s = ResultStore::open(d.path(), 65_536).ok()?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(s);
            Some(ms)
        })
        .collect()
}

fn gateway_counters(out: &mut Outcome, before: &Scrape, after: &Scrape) {
    for (layer, metric) in [
        (
            "gateway.hedges_launched",
            "lis_gateway_hedges_launched_total",
        ),
        ("gateway.hedges_won", "lis_gateway_hedges_won_total"),
        ("gateway.failovers", "lis_gateway_failovers_total"),
        ("replication.pushes", "lis_replication_pushes_total"),
        ("replication.dropped", "lis_replication_dropped_total"),
    ] {
        let v = after.front(metric) - before.front(metric);
        out.note(format!("layer {layer} = {v}"));
    }
    let disk = after.server_sum("lis_store_disk_hits_total")
        - before.server_sum("lis_store_disk_hits_total");
    out.note(format!("store disk hits during the run: {disk}"));
}

pub fn run(args: &Args) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let hot = hot_set(args.seed, HOT);
    stream_self_check(args.seed, &hot, &mut out);
    let dir = args
        .work
        .join(format!("warm-{}-{}", args.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let store = dir.join("store");
    let store_arg = store.to_string_lossy().to_string();
    let cache = SHARD_CACHE.to_string();
    let spec = LaunchSpec::gateway(
        &args.lis,
        2,
        &[
            "--shard-threads",
            "1",
            "--cache",
            &cache,
            "--store",
            &store_arg,
        ],
    );
    let result = run_in(args, &spec, &hot, &store, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|()| out)
}

fn run_in(
    args: &Args,
    spec: &LaunchSpec,
    hot: &[Req],
    store: &Path,
    out: &mut Outcome,
) -> io::Result<()> {
    // The earlier, untimed lifetime: answer every hot design once and keep
    // that first answer; draining spills them to the shards' stores.
    let (fill, _) = spec.launch()?;
    let mut expected = Vec::with_capacity(hot.len());
    {
        let mut conn = Conn::connect(fill.addr)?;
        for req in hot {
            let r = conn.call("POST", &format!("/{}", req.route), &req.id, &req.body)?;
            if r.status != 200 {
                return Err(io::Error::other(format!(
                    "hot design {} answered {}",
                    req.id, r.status
                )));
            }
            if let Err(e) = check::check(req.route, &req.netlist, &r.body) {
                out.note(format!("wrong answer {}: {e}", req.id));
                out.wrong.push(req.id.clone());
            }
            expected.push(r.body);
        }
    }
    fill.stop()?;

    let sut = setup(spec, out)?;
    let stream = WarmStream::new(args.seed, hot);
    let before = sut.scrape()?;
    let part = if args.trace { 4.0 } else { 2.0 };
    let secs = args.seconds / part;
    let ctx = Ctx {
        addr: sut.addr,
        shards: sut.shards.iter().map(|&(a, _)| a).collect(),
        stream: &stream,
        expected: &expected,
    };
    let warmup = phase(&ctx, true, 4 * PHASE_STRIDE, WARMUP_S, false)?;
    let open = phase(&ctx, true, 0, secs, false)?;
    let closed = phase(&ctx, false, PHASE_STRIDE, secs, false)?;
    let traced = if args.trace {
        let o = phase(&ctx, true, 2 * PHASE_STRIDE, secs, true)?;
        let c = phase(&ctx, false, 3 * PHASE_STRIDE, secs, true)?;
        Some((o, c))
    } else {
        None
    };
    if args.trace {
        gateway_hop(&sut, hot, &expected, out)?;
    }
    let after = sut.scrape()?;
    let hwm = sut.peak_rss_mb();
    sut.stop()?;
    let open_ms = store_open_ms(store);
    out.note(format!(
        "layer store.open_ms = {:.3} (median over {} shard stores)",
        stats::median(&open_ms).unwrap_or(f64::NAN),
        open_ms.len()
    ));

    let mut s_warmup = samples(&warmup);
    check_fresh(&warmup.recs, &mut s_warmup, out);
    out.tally(&s_warmup);
    let mut s_open = samples(&open);
    let mut s_closed = samples(&closed);
    check_fresh(&open.recs, &mut s_open, out);
    check_fresh(&closed.recs, &mut s_closed, out);
    out.tally(&s_open);
    out.tally(&s_closed);
    let mut traced_samples = None;
    if let Some((o, c)) = &traced {
        let mut so = samples(o);
        let mut sc = samples(c);
        check_fresh(&o.recs, &mut so, out);
        check_fresh(&c.recs, &mut sc, out);
        out.tally(&so);
        out.tally(&sc);
        traced_samples = Some((so, sc));
    }

    let open_series = Series {
        samples: &s_open,
        span: open.elapsed,
    };
    let closed_series = Series {
        samples: &s_closed,
        span: closed.elapsed,
    };
    report_e2e(
        out,
        &[&s_warmup, &s_open, &s_closed],
        open_series,
        open_series,
        closed_series,
        false,
    );
    out.e2e("peak_rss_mb", hwm, "MB");
    let late: Vec<f64> = open
        .recs
        .iter()
        .map(|r| (r.sent - r.due).as_secs_f64() * 1e3)
        .collect();
    out.note(format!(
        "open loop: {} requests offered at {RATE}/s over {:.2} s; loadgen.late_p99_ms = {:.3}",
        s_open.len(),
        open.elapsed,
        stats::quantile(&late, 0.99).unwrap_or(f64::NAN)
    ));
    out.note(format!(
        "closed phase: {} requests, {WINDOW} in flight per connection, {:.2} s",
        s_closed.len(),
        closed.elapsed
    ));
    for family in ["repeat", "reformatted", "never-seen"] {
        let s = latency(&s_open, |x| x.family == family);
        out.note(format!("open-loop {family}: n={} p50={:.3} ms", s.n, s.p50));
    }
    gateway_counters(out, &before, &after);

    if let (Some((o, c)), Some((so, sc))) = (&traced, &traced_samples) {
        traced_layers(args, o, c, so, sc, &s_open, &before, &after, out)?;
    }
    Ok(())
}

/// Byte-identical hot requests through the gateway and directly to a
/// shard (every hot design is cached on both after replication); the
/// difference of the medians is the gateway hop. Also times `/batch`
/// bodies on a shard (the gateway does not route `/batch`).
fn gateway_hop(sut: &Sut, hot: &[Req], expected: &[Vec<u8>], out: &mut Outcome) -> io::Result<()> {
    let mut gw = Conn::connect(sut.addr)?;
    let mut direct: Vec<Conn> = sut
        .shards
        .iter()
        .map(|&(a, _)| Conn::connect(a))
        .collect::<io::Result<_>>()?;
    let n = direct.len();
    let (mut via, mut straight) = (Vec::new(), Vec::new());
    for i in 0..400 {
        let req = &hot[i % hot.len()];
        let path = format!("/{}", req.route);
        let t = Instant::now();
        gw.call("POST", &path, &req.id, &req.body)?;
        via.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        direct[i % n].call("POST", &path, &req.id, &req.body)?;
        straight.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let hop =
        stats::median(&via).unwrap_or(f64::NAN) - stats::median(&straight).unwrap_or(f64::NAN);
    out.note(format!(
        "layer gateway.hop_us = {hop:.1} (median via gateway - direct, 400 pairs)"
    ));
    let mut per_row = Vec::new();
    for b in 0..20 {
        let rows: Vec<usize> = (0..16).map(|j| (b * 16 + j) % hot.len()).collect();
        let body: String = rows
            .iter()
            .map(|&i| {
                let text = std::str::from_utf8(&hot[i].body).unwrap_or("{}");
                format!("{{\"route\": \"{}\", {}\n", hot[i].route, &text[1..])
            })
            .collect();
        let t = Instant::now();
        let r = direct[b % n].call("POST", "/batch", "batch", body.as_bytes())?;
        per_row.push(t.elapsed().as_secs_f64() * 1e6 / rows.len() as f64);
        let answers: Vec<&[u8]> = r
            .body
            .split(|&c| c == b'\n')
            .filter(|l| !l.is_empty())
            .collect();
        let same = answers.len() == rows.len()
            && rows
                .iter()
                .zip(&answers)
                .all(|(&i, a)| *a == expected[i].as_slice());
        if !same {
            out.note(format!(
                "batch {b}: rows differ from the designs' first answers"
            ));
            out.wrong.push(format!("batch-{b}"));
        }
    }
    out.note(format!(
        "layer batch.row_us = {:.1} (median of 20 batches of 16, direct to a shard)",
        stats::median(&per_row).unwrap_or(f64::NAN)
    ));
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn traced_layers(
    args: &Args,
    open: &Phase,
    closed: &Phase,
    s_open: &[Sample],
    s_closed: &[Sample],
    plain_open: &[Sample],
    before: &Scrape,
    after: &Scrape,
    out: &mut Outcome,
) -> io::Result<()> {
    let mut tracer = Tracer::new();
    let mut acc = Layers::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut replayed = 0;
    let mut route_us = Vec::new();
    for (r, s) in open.recs.iter().zip(s_open) {
        if t0.elapsed() > budget {
            break;
        }
        let span = Some(tracer.record("client.request", r.due, r.done, None, &r.req.id));
        let sent = Sent {
            id: &r.req.id,
            route: r.req.route,
            family: r.req.family,
            body: &r.req.body,
            client_us: s.ms * 1e3,
            computed: r.req.family == "never-seen",
            rows: 0,
            span,
        };
        replay(&sent, &mut tracer, &mut acc);
        // The gateway computes a routing key for every request: JSON parse,
        // netlist parse, canonical hash.
        let last = |name: &str| {
            acc.samples
                .get(name)
                .and_then(|v| v.last().copied())
                .unwrap_or(0.0)
        };
        route_us.push(last("wire.decode_us") + last("netlist.parse_us") + last("canonical.key_us"));
        replayed += 1;
    }
    out.note(format!(
        "traced: replayed {replayed} of {} open-loop requests layer by layer",
        open.recs.len()
    ));
    crate::emit_layers(out, &acc);
    let mut both = s_open.to_vec();
    both.extend_from_slice(s_closed);
    common_layers(
        out,
        before,
        after,
        &both,
        open.elapsed + closed.elapsed,
        &[&open.depth[..], &closed.depth[..]].concat(),
    );
    tracing_overhead(out, plain_open, s_open);
    let fast = latency(s_open, |x| x.family == "repeat").p50 * 1e3;
    let canonical = latency(s_open, |x| x.family == "reformatted").p50 * 1e3;
    out.note(format!(
        "layer cache.fast_us = {fast:.1}; cache.canonical_us = {canonical:.1}"
    ));
    let rps = s_closed.len() as f64 / closed.elapsed;
    let demand = stats::mean(&route_us).unwrap_or(0.0) / 1e6;
    let ratio = rps * demand / GATEWAY_WORKERS;
    out.note(format!(
        "hill: rps / (gateway workers / routing demand) = {rps:.0} * {:.1} us / {GATEWAY_WORKERS} = {ratio:.3}",
        demand * 1e6
    ));
    crate::check_bottleneck(out, ratio);
    tracer.write(
        &args
            .work
            .join(format!("trace-warm-cluster-{}.jsonl", args.seed)),
    )
}
