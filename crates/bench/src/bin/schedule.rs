//! Periodic-schedule derivation vs brute-force measurement, written to
//! `results/schedule_speedup.txt`.
//!
//! Three sections, exactness always asserted before anything is timed:
//!
//! 1. **Exactness**: on the committed netlist corpus and generated
//!    systems, the schedule's throughput must equal every MCM engine's
//!    analytic MST as an exact rational, and the zero-stall compiled run
//!    must attain each channel's occupancy peak. A timing win over a wrong
//!    schedule is worthless.
//! 2. **Head-to-head**: deriving the schedule (exact θ, per-transition
//!    balanced words, exact occupancy peaks and caps — all in one shot)
//!    vs estimating the same quantities empirically with a long
//!    occupancy-tracked compiled-simulation run, on random systems and on
//!    300- and 1000-block rings (periods near the block count; each ring
//!    is checked for exactness first). The largest random row's ratio is
//!    the speedup the `--min-speedup` gate applies to.
//! 3. **Bursty-source scenario**: Markov on/off sources swept over OFF
//!    probabilities; every observed occupancy must stay within the
//!    schedule caps and no trial may beat θ past the transient slack.
//!
//! Flags: `--quick` (small sizes plus the 300-block ring, no results file —
//! the CI smoke mode),
//! `--min-speedup X` (default 5; enforced in both modes).

use std::fmt::Write as _;
use std::fs;
use std::time::Duration;

use lis_bench::{timed, Table};
use lis_core::{parse_netlist, practical_mst_with, LisSystem, McmEngine};
use lis_gen::{generate, ring, GeneratorConfig};
use lis_schedule::{burst_report, BurstParams, Schedule};
use lis_sim::{CompiledSim, QueueMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OUT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/schedule_speedup.txt"
);
const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/netlists");

struct Opts {
    quick: bool,
    min_speedup: f64,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        quick: false,
        min_speedup: 5.0,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                opts.quick = true;
                i += 1;
            }
            "--min-speedup" => {
                opts.min_speedup = args[i + 1].parse().expect("--min-speedup takes a number");
                i += 2;
            }
            other => panic!("unknown flag {other}; known: --quick --min-speedup"),
        }
    }
    opts
}

fn random_system(vertices: usize, seed: u64) -> LisSystem {
    let cfg = GeneratorConfig {
        vertices,
        sccs: (vertices / 20).max(2),
        min_cycles_per_scc: 2,
        relay_stations: (vertices / 3).max(4),
        reconvergent_paths: true,
        policy: lis_gen::InsertionPolicy::Scc,
        extra_inter_edges: Some(vertices / 10),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    generate(&cfg, &mut rng).system
}

/// Asserts the schedule is exact on one system: θ equals every engine's
/// analytic MST, and a zero-stall run attains every occupancy peak.
/// Returns the number of exact observables compared.
fn assert_schedule_exact(sys: &LisSystem) -> usize {
    let mut checked = 0;
    let reference = Schedule::compute(sys, McmEngine::Howard).expect("schedules");
    for engine in McmEngine::ALL {
        let s = Schedule::compute(sys, engine).expect("schedules");
        assert_eq!(s.throughput, practical_mst_with(sys, engine), "{engine}");
        assert_eq!(s.period, reference.period, "{engine}");
        checked += 2;
    }
    let mut sim = CompiledSim::new(sys, QueueMode::Finite);
    sim.track_occupancy();
    sim.run(reference.transient + 2 * reference.period);
    for b in &reference.bounds {
        assert_eq!(
            sim.max_queue_occupancy(b.channel),
            b.peak,
            "{:?}",
            b.channel
        );
        assert!(b.peak <= b.cap, "{:?}", b.channel);
        checked += 2;
    }
    checked
}

/// Section 1: exactness on the committed corpus and random systems.
fn exactness_section(report: &mut String, opts: &Opts) {
    let mut paths: Vec<_> = fs::read_dir(CORPUS)
        .expect("netlist corpus directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("lis"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "netlist corpus is empty");
    let mut checked = 0usize;
    for path in &paths {
        let text = fs::read_to_string(path).expect("readable netlist");
        let sys = parse_netlist(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        checked += assert_schedule_exact(&sys);
    }
    let gen_seeds = if opts.quick { 0..2 } else { 0..6 };
    let mut systems = 0;
    for seed in gen_seeds {
        checked += assert_schedule_exact(&random_system(40, seed));
        systems += 1;
    }
    writeln!(
        report,
        "exactness: schedule θ ≡ analytic MST for all three MCM engines and\n  \
         zero-stall peaks attained, on {} corpus netlists and {systems} generated\n  \
         systems ({checked} exact observables compared)\n",
        paths.len(),
    )
    .expect("write to String");
}

/// Best-of-3 wall time of a closure.
fn best_time(mut run: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let ((), t) = timed(&mut run);
        best = best.min(t);
    }
    best
}

/// An `n`-block ring with `stations` relay stations on seeded channels.
/// Its period is about `n + stations`: the longest regimes in cold-design
/// traffic, which sends such rings with `"schedule": true`.
fn ring_system(n: usize, stations: usize, seed: u64) -> LisSystem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r = ring(n);
    for _ in 0..stations {
        let c = r.channels[rng.gen_range(0..n)];
        r.system.add_relay_station(c);
    }
    r.system
}

/// Section 2: the head-to-head. Returns the speedup of the largest random
/// row, the one the `--min-speedup` gate applies to.
fn speedup_section(report: &mut String, opts: &Opts) -> f64 {
    let sizes: &[usize] = if opts.quick { &[60] } else { &[60, 200, 400] };
    let rings: &[(usize, usize)] = if opts.quick {
        &[(300, 1)]
    } else {
        &[(300, 1), (300, 6), (1000, 1), (1000, 6)]
    };
    let measure_cycles: u64 = if opts.quick { 20_000 } else { 100_000 };
    let mut table = Table::new(
        "exact schedule derivation vs empirical occupancy measurement",
        &[
            "instance",
            "transitions",
            "period",
            "schedule",
            "measure",
            "speedup",
        ],
    );
    let mut instances: Vec<(String, LisSystem)> = sizes
        .iter()
        .map(|&v| (format!("random LIS v={v}"), random_system(v, 2026)))
        .collect();
    instances.extend(rings.iter().map(|&(n, stations)| {
        let sys = ring_system(n, stations, 2026);
        // The ring rows carry the exactness checks to periods near n.
        assert_schedule_exact(&sys);
        (format!("ring n={n} rs={stations}"), sys)
    }));
    let mut gated = 0.0;
    for (i, (label, sys)) in instances.iter().enumerate() {
        let s = Schedule::compute(sys, McmEngine::default()).expect("schedules");
        let derive = best_time(|| {
            let _ = Schedule::compute(sys, McmEngine::default()).expect("schedules");
        });
        // The empirical alternative: run the compiled kernel with occupancy
        // tracking long enough that rates converge, then read the maxima —
        // which still only *estimates* θ and can undershoot the true peak.
        let measure = best_time(|| {
            let mut sim = CompiledSim::new(sys, QueueMode::Finite);
            sim.track_occupancy();
            sim.run(measure_cycles);
        });
        let speedup = measure.as_secs_f64() / derive.as_secs_f64();
        if i + 1 == sizes.len() {
            gated = speedup;
        }
        eprintln!(
            "[schedule] {label}: derive {derive:?}, measure({measure_cycles} cycles) \
             {measure:?} ({speedup:.1}x)"
        );
        table.row(&[
            label.clone(),
            s.transitions.len().to_string(),
            s.period.to_string(),
            format!("{:.3} ms", derive.as_secs_f64() * 1e3),
            format!("{:.3} ms", measure.as_secs_f64() * 1e3),
            format!("{speedup:.1}x"),
        ]);
    }
    report.push_str(&table.render());
    report.push('\n');
    gated
}

/// Section 3: the bursty-source scenario, validated against the caps.
fn burst_section(report: &mut String, opts: &Opts) {
    let sys = random_system(if opts.quick { 40 } else { 100 }, 77);
    let s = Schedule::compute(&sys, McmEngine::default()).expect("schedules");
    let theta = s.throughput.to_f64();
    let (trials, cycles): (u32, u32) = if opts.quick { (128, 1000) } else { (512, 5000) };
    writeln!(
        report,
        "bursty Markov on/off sources (OFF probability swept, ON return 40%;\n\
         {trials} trials x {cycles} periods; θ = {theta:.4}):"
    )
    .expect("write to String");
    let slack = (s.transient + s.period) as f64 / cycles as f64;
    for off in [0u32, 50, 100, 250, 500] {
        let params = BurstParams {
            off_per_mille: off,
            on_per_mille: 400,
            trials,
            cycles: u64::from(cycles),
            seed: 4242,
        };
        let rep = burst_report(&sys, &params);
        assert!(
            rep.within_caps(),
            "off={off}‰: occupancy exceeded a schedule cap"
        );
        assert!(
            rep.max_rate <= theta + slack + 1e-9,
            "off={off}‰: max rate {} beats θ = {theta}",
            rep.max_rate
        );
        let peak = rep.occupancy.iter().map(|o| o.max).max().unwrap_or(0);
        writeln!(
            report,
            "  off={:<4} rate mean {:.4}  min {:.4}  max {:.4}  peak occupancy {peak}  \
             (caps held ✓)",
            format!("{off}‰"),
            rep.mean_rate,
            rep.min_rate,
            rep.max_rate,
        )
        .expect("write to String");
    }
    report.push('\n');
}

fn main() {
    let opts = parse_opts();
    let mut report = String::new();
    writeln!(
        report,
        "Periodic-schedule derivation vs brute-force measurement\n\
         =======================================================\n\
         The schedule subsystem turns one MCM solve plus one ASAP run to the\n\
         first marking repeat into exact artifacts: the rational throughput θ,\n\
         one balanced binary firing word per transition, and per-channel\n\
         occupancy bounds (the attained peak and the pair-invariant cap). The\n\
         empirical alternative — a long occupancy-tracked simulation — only\n\
         estimates the same quantities, and is timed here as the baseline.\n\
         Regenerate with:\n\
         \x20   cargo run --release -p lis-bench --bin schedule\n\
         mode: {}\n",
        if opts.quick {
            "quick (CI smoke)"
        } else {
            "full"
        }
    )
    .expect("write to String");

    exactness_section(&mut report, &opts);
    let speedup = speedup_section(&mut report, &opts);
    burst_section(&mut report, &opts);

    writeln!(
        report,
        "schedule-vs-measurement speedup (largest random row): {speedup:.1}x \
         (target >= {:.0}x)",
        opts.min_speedup
    )
    .expect("write to String");
    assert!(
        speedup >= opts.min_speedup,
        "schedule derivation vs empirical measurement: {speedup:.1}x < {}x",
        opts.min_speedup
    );

    if !opts.quick {
        fs::write(OUT_PATH, &report).expect("write results/schedule_speedup.txt");
    }
    print!("{report}");
    if !opts.quick {
        eprintln!("\nwrote {OUT_PATH}");
    }
}
