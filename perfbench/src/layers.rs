//! Per-layer timing for the traced run: replays a request the workload sent
//! through the public call each layer exposes, in-process, and records one
//! span per layer under the request's client-side span.

use std::hint::black_box;
use std::time::Instant;

use lis_core::{explain_with, parse_netlist, LisModel, McmEngine};
use lis_qs::{
    collapse_sccs, extract_instance, solve, verify_solution, Algorithm, QsConfig, QsError,
};
use lis_rsopt::{exhaustive_insertion, greedy_insertion};
use lis_schedule::Schedule;
use lis_server::{Json, RequestKind};
use lis_sweep::Sweep;

use crate::trace::{Layers, Tracer};

/// What the replay needs to know about one request.
pub struct Sent<'a> {
    pub id: &'a str,
    pub route: &'a str,
    pub family: &'a str,
    pub body: &'a [u8],
    /// Client-side latency of the request, µs.
    pub client_us: f64,
    /// Whether the service computed the answer (not a cache hit), so the
    /// client latency minus the execution time is the serving overhead.
    pub computed: bool,
    /// Data rows the client received (sweeps).
    pub rows: usize,
    /// The request's client-side span.
    pub span: Option<usize>,
}

/// Replays `sent` layer by layer, accumulating into `acc`.
pub fn replay(sent: &Sent, tracer: &mut Tracer, acc: &mut Layers) {
    let id = sent.id;
    let parent = sent.span;
    let span =
        |tracer: &mut Tracer, acc: &mut Layers, name: &'static str, a: Instant, b: Instant| {
            tracer.record(name, a, b, parent, id);
            acc.time(name, a, b);
        };

    let t0 = Instant::now();
    let Ok(text) = std::str::from_utf8(sent.body) else {
        return;
    };
    let Ok(envelope) = Json::parse(text) else {
        return;
    };
    let Ok((netlist, kind)) = RequestKind::decode(sent.route, &envelope) else {
        return;
    };
    let t1 = Instant::now();
    span(tracer, acc, "wire.decode_us", t0, t1);

    let Ok(sys) = parse_netlist(&netlist) else {
        return;
    };
    let t2 = Instant::now();
    span(tracer, acc, "netlist.parse_us", t1, t2);
    acc.sample(
        "netlist.parse_mb_per_s",
        netlist.len() as f64 / (t2 - t1).as_secs_f64().max(1e-9) / 1e6,
    );

    black_box(kind.cache_key(&sys));
    let t3 = Instant::now();
    span(tracer, acc, "canonical.key_us", t2, t3);

    black_box(LisModel::doubled(&sys));
    let t4 = Instant::now();
    span(tracer, acc, "model.doubled_us", t3, t4);

    let engine = McmEngine::default();
    match &kind {
        RequestKind::Analyze { schedule, .. } => {
            let a = Instant::now();
            black_box(explain_with(&sys, engine));
            let b = Instant::now();
            span(tracer, acc, "mcm.explain_us", a, b);
            if sent.family == "ring" {
                acc.time("mcm.explain_ring_us", a, b);
            }
            if *schedule {
                let a = Instant::now();
                let _ = black_box(Schedule::compute(&sys, engine));
                span(tracer, acc, "schedule.compute_us", a, Instant::now());
            }
        }
        RequestKind::Qs { exact, .. } => {
            let cfg = QsConfig::default();
            // The service sizes the SCC-collapsed system when collapsing
            // shrinks it (rule 4), so cycles are enumerated there.
            let a = Instant::now();
            let extracted = match collapse_sccs(&sys) {
                Some(col) if col.system.block_count() < sys.block_count() => {
                    extract_instance(&col.system, cfg.cycle_limit)
                }
                _ => extract_instance(&sys, cfg.cycle_limit),
            };
            let b = Instant::now();
            span(tracer, acc, "qs.extract_us", a, b);
            match extracted {
                Ok(inst) => {
                    acc.add("qs.cycles_enumerated", inst.total_cycles as f64);
                    acc.add("qs.deficient_cycles", inst.cycles.len() as f64);
                }
                Err(QsError::TooManyCycles { .. }) => {
                    acc.add("qs.cycle_limit_errors", 1.0);
                    acc.add("qs.cycles_enumerated", cfg.cycle_limit as f64);
                }
                Err(_) => {}
            }
            let algo = if *exact {
                Algorithm::Exact
            } else {
                Algorithm::Heuristic
            };
            let a = Instant::now();
            let solved = solve(&sys, algo, &cfg);
            let b = Instant::now();
            span(tracer, acc, "qs.solve_us", a, b);
            if let Ok(report) = solved {
                if *exact {
                    acc.sample("qs.bb_nodes", report.nodes as f64);
                }
                let a = Instant::now();
                black_box(verify_solution(&sys, &report));
                span(tracer, acc, "qs.verify_us", a, Instant::now());
            }
        }
        RequestKind::Insert { budget } => {
            let exhaustive = (sys.channel_count() as u64).pow((*budget).min(6)) <= 2_000_000;
            let a = Instant::now();
            if exhaustive {
                black_box(exhaustive_insertion(&sys, *budget));
            } else {
                black_box(greedy_insertion(&sys, *budget));
            }
            span(tracer, acc, "rsopt.insert_us", a, Instant::now());
        }
        RequestKind::Sweep { spec } => {
            let a = Instant::now();
            let Ok(sweep) = Sweep::new(sys.clone(), spec.clone()) else {
                return;
            };
            let b = Instant::now();
            span(tracer, acc, "sweep.plan_us", a, b);
            let points = sweep.point_count().max(1);
            let summary = sweep.run(&mut |row| {
                black_box(row);
            });
            let c = Instant::now();
            span(tracer, acc, "sweep.run_us", b, c);
            let run_us = (c - b).as_secs_f64() * 1e6;
            acc.sample("sweep.eval_us_per_point", run_us / points as f64);
            acc.add("incremental.warm_hits", summary.warm_hits as f64);
            acc.add(
                "incremental.warm_lookups",
                (summary.warm_hits + summary.warm_misses) as f64,
            );
            if spec.stalls.is_some() || spec.bursts.is_some() {
                let mut plain = spec.clone();
                plain.stalls = None;
                plain.bursts = None;
                if let Ok(plain) = Sweep::new(sys.clone(), plain) {
                    let a = Instant::now();
                    plain.run(&mut |row| {
                        black_box(row);
                    });
                    let plain_us = (Instant::now() - a).as_secs_f64() * 1e6;
                    acc.sample("sim.mc_us_per_point", (run_us - plain_us) / points as f64);
                }
            }
            if sent.rows > 0 {
                acc.sample(
                    "stream.overhead_us_per_row",
                    (sent.client_us - run_us) / sent.rows as f64,
                );
            }
        }
        RequestKind::Dot { .. } => {}
    }

    let a = Instant::now();
    let executed = kind.execute(&sys);
    let b = Instant::now();
    span(tracer, acc, "jobs.execute_us", a, b);
    let execute_us = (b - a).as_secs_f64() * 1e6;
    if let Ok(json) = executed {
        let a = Instant::now();
        black_box(json.to_string());
        span(tracer, acc, "wire.render_us", a, Instant::now());
    }
    if sent.computed {
        acc.sample("server.overhead_us", sent.client_us - execute_us);
    }
}
