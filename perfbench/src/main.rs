//! The repository benchmark: drives the `lis` analysis service from outside
//! over real TCP, checks every answer, and prints end-to-end metrics (or,
//! with `--trace 1`, per-layer metrics from spans kept in memory).
//!
//! ```text
//! perfbench --lis PATH --work DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `cold-design`, `warm-cluster`, `sweep-explore` (see
//! `perfbench/README.md`). The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; a readable report goes
//! to stderr.

mod check;
mod cold;
mod gen;
mod http;
mod layers;
mod stats;
mod sut;
mod sweep;
mod trace;
mod warm;

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sut::{metric_sum, LaunchSpec, Sut};
use trace::Layers;

/// Launches per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

/// Seconds of load before the timed part of a run: answers are checked and
/// counted in `attempted`, but timed only once the service has paged in its
/// code and filled its allocator.
pub const WARMUP_S: f64 = 2.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub lis: PathBuf,
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {name}"))
    };
    let args = Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace").as_deref() {
            Ok("1") => true,
            Ok("0") | Err(_) => false,
            Ok(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        lis: get("--lis")?.into(),
        work: get("--work")?.into(),
    };
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub route: &'static str,
    pub family: &'static str,
    pub ms: f64,
    pub first_ms: f64,
    pub status: u16,
    /// `None` until the answer is checked.
    pub ok: Option<bool>,
    /// A checked cycle-limit refusal of `/qs`: the known queue-sizing
    /// defect (see [`check::is_cycle_limit_refusal`]), counted apart from
    /// failures.
    pub limit: bool,
    pub id: String,
    /// Design points the answer carries: 1 for a single answer, the row
    /// count for a sweep.
    pub points: f64,
}

impl Sample {
    pub fn succeeded(&self) -> bool {
        (self.status == 200 || self.limit) && self.ok != Some(false)
    }
}

/// Samples of one phase and the phase's length in seconds. Every timing
/// and rate is taken over the whole phase: a quantile of all its samples
/// moves little when a burst of noise from outside the benchmark slows a
/// few of them.
#[derive(Clone, Copy)]
pub struct Series<'a> {
    pub samples: &'a [Sample],
    pub span: f64,
}

impl Series<'_> {
    /// The `q`-quantile of latency over the samples passing `keep`.
    pub fn quantile(&self, q: f64, keep: impl Fn(&Sample) -> bool) -> f64 {
        let v: Vec<f64> = self
            .samples
            .iter()
            .filter(|x| keep(x))
            .map(|x| x.ms)
            .collect();
        stats::quantile(&v, q).unwrap_or(f64::NAN)
    }
}

/// Reports the end-to-end metrics every workload shares: latency from
/// `lat` (per route from `routes`), rates from `tput`. With `per_busy`,
/// `points_per_s` divides by the time spent in requests rather than by
/// the phase length.
pub fn report_e2e(
    out: &mut Outcome,
    attempted: &[&[Sample]],
    lat: Series,
    routes: Series,
    tput: Series,
    per_busy: bool,
) {
    let n: usize = attempted.iter().map(|s| s.len()).sum();
    let ok: usize = attempted
        .iter()
        .map(|s| s.iter().filter(|x| x.succeeded()).count())
        .sum();
    out.e2e("success_ratio", ok as f64 / n.max(1) as f64, "ratio");
    out.e2e("p50_ms", lat.quantile(0.5, |_| true), "ms");
    out.e2e("p99_ms", lat.quantile(0.99, |_| true), "ms");
    out.e2e("rps", tput.samples.len() as f64 / tput.span, "1/s");
    out.e2e(
        "analyze_p50_ms",
        routes.quantile(0.5, |x| x.route == "analyze"),
        "ms",
    );
    out.e2e(
        "analyze_p99_ms",
        routes.quantile(0.99, |x| x.route == "analyze"),
        "ms",
    );
    out.e2e("qs_p50_ms", routes.quantile(0.5, |x| x.route == "qs"), "ms");
    out.e2e(
        "qs_p99_ms",
        routes.quantile(0.99, |x| x.route == "qs"),
        "ms",
    );
    let done: f64 = tput
        .samples
        .iter()
        .filter(|x| x.succeeded())
        .map(|x| x.points)
        .sum();
    let busy: f64 = tput.samples.iter().map(|x| x.ms / 1e3).sum();
    out.e2e(
        "points_per_s",
        done / if per_busy { busy } else { tput.span },
        "1/s",
    );
    let first: Vec<f64> = lat.samples.iter().map(|x| x.first_ms).collect();
    out.e2e(
        "first_row_ms",
        stats::median(&first).unwrap_or(f64::NAN),
        "ms",
    );
    for (name, series, route) in [
        ("all", lat, None),
        ("analyze", routes, Some("analyze")),
        ("qs", routes, Some("qs")),
    ] {
        let sum = latency(series.samples, |x| route.is_none_or(|r| x.route == r));
        out.note(format!(
            "latency {name}: n={} p50={:.3} ms p99={:.3} ms ({} samples beyond p99)",
            sum.n, sum.p50, sum.p99, sum.beyond_p99
        ));
    }
}

/// Everything a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Cycle-limit refusals of `/qs` (the known queue-sizing defect).
    pub limit_refusals: u64,
    /// Ids of requests whose answer was wrong (not merely refused).
    pub wrong: Vec<String>,
    /// Self-check failures (stream determinism, cache hits on cold-design).
    pub broken: Vec<String>,
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    pub layers: Vec<(&'static str, f64, &'static str)>,
    pub report: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push((name, value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push((name, value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.report.push(line);
    }

    /// Counts every sample as attempted, each cycle-limit refusal as such,
    /// and each other non-200 or wrong one as failed; lists wrong answers
    /// by request id.
    pub fn tally(&mut self, samples: &[Sample]) {
        for s in samples {
            self.attempted += 1;
            let wrong = s.ok == Some(false);
            if !s.succeeded() {
                self.failed += 1;
            } else if s.limit {
                self.limit_refusals += 1;
            }
            if wrong {
                self.wrong.push(s.id.clone());
            }
        }
    }
}

/// Latency summary (ms) of the samples passing `keep`.
pub fn latency(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> stats::Summary {
    let v: Vec<f64> = samples.iter().filter(|s| keep(s)).map(|s| s.ms).collect();
    stats::summarize(&v)
}

/// Launches the service `SETUP_REPEATS` times (all but the last stopped
/// again) and returns the last one with the median launch-to-ready time.
pub fn setup(spec: &LaunchSpec, out: &mut Outcome) -> std::io::Result<Sut> {
    let mut times = Vec::new();
    for i in 0..SETUP_REPEATS {
        let (sut, t) = spec.launch()?;
        times.push(t.as_secs_f64());
        if i + 1 == SETUP_REPEATS {
            let median = stats::median(&times).expect("launched at least once");
            out.e2e("setup_s", median, "s");
            out.note(format!(
                "setup: {} launches, launch-to-ready median {:.4} s (min {:.4}, max {:.4})",
                times.len(),
                median,
                times.iter().cloned().fold(f64::INFINITY, f64::min),
                times.iter().cloned().fold(0.0, f64::max)
            ));
            return Ok(sut);
        }
        sut.stop()?;
    }
    unreachable!("SETUP_REPEATS is positive")
}

/// Hill's bottleneck bound: throughput cannot exceed workers ÷ per-request
/// demand of the slowest stage, so `ratio` (rps × demand ÷ workers) is at
/// most 1. The demand is measured in-process after the load, and on a
/// shared host the speed drifts by several percent between the two, so a
/// ratio is flagged only beyond that allowance.
pub fn check_bottleneck(out: &mut Outcome, ratio: f64) {
    const ALLOWANCE: f64 = 1.1;
    out.layer("hill.bottleneck_ratio", ratio, "ratio");
    if ratio > ALLOWANCE {
        out.broken.push(format!(
            "bottleneck bound violated: {ratio:.3} > 1 (beyond the {ALLOWANCE} allowance)"
        ));
    }
}

/// Samples the summed `lis_queue_depth` gauge of `addrs` every 10 ms until
/// `stop` is set (traced runs only).
pub fn sample_queue_depth(addrs: &[SocketAddr], stop: &AtomicBool) -> Vec<f64> {
    let mut conns: Vec<_> = addrs
        .iter()
        .filter_map(|&a| http::Conn::connect(a).ok())
        .collect();
    let mut out = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let mut depth = 0.0;
        for c in conns.iter_mut() {
            if let Ok(r) = c.call("GET", "/metrics", "sampler", b"") {
                depth += metric_sum(r.text(), "lis_queue_depth");
            }
        }
        out.push(depth);
        std::thread::sleep(Duration::from_millis(10));
    }
    out
}

/// Emits the per-layer metrics every workload reports (see BENCHMARK.json)
/// and the rest of the named ones that this workload exercises.
pub fn emit_layers(out: &mut Outcome, acc: &Layers) {
    let med = |name: &str| acc.median(name).unwrap_or(0.0);
    for name in [
        "wire.decode_us",
        "netlist.parse_us",
        "canonical.key_us",
        "model.doubled_us",
        "mcm.explain_us",
        "jobs.execute_us",
        "wire.render_us",
        "server.overhead_us",
        "qs.extract_us",
        "qs.solve_us",
        "qs.verify_us",
    ] {
        out.layer(name, med(name), "us");
    }
    out.layer(
        "netlist.parse_mb_per_s",
        med("netlist.parse_mb_per_s"),
        "MB/s",
    );
    let enumerated = acc.count("qs.cycles_enumerated");
    let deficient = acc.count("qs.deficient_cycles");
    out.layer("qs.cycles_enumerated", enumerated, "count");
    out.layer("qs.deficient_cycles", deficient, "count");
    out.layer(
        "qs.useful_cycle_ratio",
        if enumerated > 0.0 {
            deficient / enumerated
        } else {
            0.0
        },
        "ratio",
    );
    out.layer(
        "qs.cycle_limit_errors",
        acc.count("qs.cycle_limit_errors"),
        "count",
    );
    for name in [
        "mcm.explain_ring_us",
        "schedule.compute_us",
        "rsopt.insert_us",
        "sweep.plan_us",
        "sweep.eval_us_per_point",
        "sim.mc_us_per_point",
        "stream.overhead_us_per_row",
    ] {
        if acc.n(name) > 0 {
            out.note(format!(
                "layer {name} = {:.1} us (median of {})",
                med(name),
                acc.n(name)
            ));
        }
    }
    if acc.n("qs.bb_nodes") > 0 {
        out.note(format!(
            "layer qs.bb_nodes = {:.0} (median of {} exact solves)",
            med("qs.bb_nodes"),
            acc.n("qs.bb_nodes")
        ));
    }
    if acc.count("incremental.warm_lookups") > 0.0 {
        out.note(format!(
            "layer incremental.warm_hit_ratio = {:.4}",
            acc.count("incremental.warm_hits") / acc.count("incremental.warm_lookups")
        ));
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !args.lis.is_file() {
        eprintln!("perfbench: service binary {} not found", args.lis.display());
        std::process::exit(2);
    }
    let started = Instant::now();
    let result = match args.workload.as_str() {
        "cold-design" => cold::run(&args),
        "warm-cluster" => warm::run(&args),
        "sweep-explore" => sweep::run(&args),
        other => Err(std::io::Error::other(format!("unknown workload {other:?}"))),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    eprintln!(
        "== {} seed {} ({}) in {:.1} s",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        started.elapsed().as_secs_f64()
    );
    eprintln!(
        "  cycle-limit refusals of /qs (the known queue-sizing defect): {}",
        out.limit_refusals
    );
    for line in &out.report {
        eprintln!("  {line}");
    }
    for (name, value, unit) in out.e2e.iter().chain(&out.layers) {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
    for id in out.wrong.iter().take(50) {
        eprintln!("  WRONG ANSWER: {id}");
    }
    for b in &out.broken {
        eprintln!("  SELF-CHECK FAILED: {b}");
    }
    let correct = out.wrong.is_empty() && out.broken.is_empty();
    let shown = if args.trace { &out.layers } else { &out.e2e };
    let metrics: Vec<String> = shown
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}
