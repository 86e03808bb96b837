//! Differential suite for deficient-cycle extraction.
//!
//! [`extract_instance`] searches the doubled graph for deficient cycles
//! only. Its answer must equal what enumerating *every* elementary cycle
//! and filtering by [`cycle_deficit`] gives — same cycles, same places,
//! same order, same annotations — wherever that enumeration finishes
//! within the cycle limit. Each case checks the system itself and, when
//! SCC collapsing shrinks it, the collapsed system the pipeline actually
//! extracts from.

use lis_core::{figures, ideal_mst, ChannelId, LisModel, LisSystem};
use lis_gen::{generate, mesh, ring, torus, GeneratorConfig};
use lis_qs::{collapse_sccs, cycle_deficit, extract_instance, DeficientCycle, QsError};
use marked_graph::cycles::{count_elementary_cycles, elementary_cycles};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cycle limit for both sides: the oracle enumerates every cycle, so this
/// bounds the suite's running time.
const LIMIT: usize = 50_000;

/// The filter-after-enumerate reference: every elementary cycle of `d[G]`,
/// kept iff its deficit against the ideal MST is positive. `None` when the
/// enumeration exceeds `limit`.
fn oracle(sys: &LisSystem, limit: usize) -> Option<Vec<DeficientCycle>> {
    let target = ideal_mst(sys);
    let model = LisModel::doubled(sys);
    let graph = model.graph();
    let all = elementary_cycles(graph, limit).ok()?;
    let mut cycles = Vec::new();
    for places in all {
        let tokens: u64 = places.iter().map(|&p| graph.tokens(p)).sum();
        let len = places.len() as u64;
        let deficit = cycle_deficit(tokens, len, target);
        if deficit == 0 {
            continue;
        }
        let mut adjustable: Vec<ChannelId> = places
            .iter()
            .filter_map(|&p| model.channel_of_queue_backedge(p))
            .collect();
        adjustable.sort();
        adjustable.dedup();
        cycles.push(DeficientCycle {
            places,
            tokens,
            len,
            deficit,
            adjustable,
        });
    }
    Some(cycles)
}

/// Asserts the search equals the oracle on `sys` wherever the oracle
/// finishes. Returns whether it did (so callers can check coverage).
fn check_one(sys: &LisSystem, label: &str) -> bool {
    let Some(expected) = oracle(sys, LIMIT) else {
        return false;
    };
    let inst = match extract_instance(sys, LIMIT) {
        Ok(inst) => inst,
        Err(e) => panic!("{label}: enumeration finished but the search failed: {e}"),
    };
    assert_eq!(inst.target, ideal_mst(sys), "{label}: target");
    assert_eq!(
        inst.cycles.len(),
        expected.len(),
        "{label}: deficient cycle count"
    );
    assert_eq!(inst.cycles, expected, "{label}: deficient cycles differ");
    if expected.is_empty() {
        assert_eq!(inst.total_cycles, 0, "{label}: no search when not degraded");
    }
    true
}

/// [`check_one`] on `sys` and on its SCC-collapsed form. Returns how many
/// of the (one or two) comparisons the oracle finished.
fn check(sys: &LisSystem, label: &str) -> usize {
    let mut finished = usize::from(check_one(sys, label));
    if let Some(col) = collapse_sccs(sys) {
        if col.system.block_count() < sys.block_count() {
            finished += usize::from(check_one(&col.system, &format!("{label} (collapsed)")));
        }
    }
    finished
}

#[test]
fn paper_figures() {
    let (fig1, _, _) = figures::fig1();
    let (fig2, _, _) = figures::fig2_right();
    let (fig15, _) = figures::fig15();
    let (fig6, _, _) = figures::fig6();
    for (sys, label) in [
        (fig1, "fig1"),
        (fig2, "fig2"),
        (fig15, "fig15"),
        (fig6, "fig6"),
    ] {
        assert_eq!(check(&sys, label), 1, "{label}: oracle must finish");
    }
    for extra in 0..4 {
        check(&figures::fig2_family(extra), "fig2 family");
    }
}

/// The COFDM SoC with stations on channels `i` and `j`.
fn cofdm_pair(i: usize, j: usize) -> LisSystem {
    let mut sys = lis_cofdm::cofdm_soc().system;
    let channels: Vec<ChannelId> = sys.channel_ids().collect();
    sys.add_relay_station(channels[i]);
    sys.add_relay_station(channels[j]);
    sys
}

#[test]
fn all_cofdm_station_pairs() {
    let n = lis_cofdm::cofdm_soc().system.channel_count();
    let mut pairs = 0;
    for i in 0..n {
        for j in i + 1..n {
            assert!(check(&cofdm_pair(i, j), &format!("cofdm pair ({i},{j})")) > 0);
            pairs += 1;
        }
    }
    assert_eq!(pairs, 435);
}

/// Capacity grids over COFDM bases, as a `"qs"`-mode sweep evaluates
/// them: two channels' queue capacities varied over 1–4.
#[test]
fn cofdm_capacity_grids() {
    let mut rng = StdRng::seed_from_u64(0x5EE9);
    let n = lis_cofdm::cofdm_soc().system.channel_count();
    for _ in 0..6 {
        let i = rng.gen_range(0..n - 1);
        let j = rng.gen_range(i + 1..n);
        let base = cofdm_pair(i, j);
        let channels: Vec<ChannelId> = base.channel_ids().collect();
        let a = channels[rng.gen_range(0..n)];
        let b = channels[rng.gen_range(0..n)];
        for qa in 1..=4 {
            for qb in 1..=4 {
                let mut sys = base.clone();
                sys.set_queue_capacity(a, qa).expect("q >= 1");
                sys.set_queue_capacity(b, qb).expect("q >= 1");
                let label = format!("cofdm ({i},{j}) q[{a:?}]={qa} q[{b:?}]={qb}");
                assert!(check(&sys, &label) > 0, "{label}: oracle must finish");
            }
        }
    }
}

/// Seeded Table IV configurations, v = 50–400, collapsed as the pipeline
/// extracts them (their raw doubled graphs hold hundreds of thousands of
/// cycles, past the oracle's limit), plus raw Table IV-style systems at
/// v = 20–40: one big SCC each, dense with cycles at or near the target.
#[test]
fn table4_configs() {
    for (v, s) in [(50, 10), (100, 10), (100, 20), (200, 10), (400, 20)] {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(1000 * v as u64 + seed);
            let sys = generate(&GeneratorConfig::table4(v, s), &mut rng).system;
            let col = collapse_sccs(&sys).expect("Table IV systems collapse");
            let label = format!("table4 v={v} s={s} seed={seed} (collapsed)");
            assert!(
                check_one(&col.system, &label),
                "{label}: oracle must finish"
            );
        }
    }
    let mut raw = 0;
    for (v, s) in [(20, 4), (25, 5), (30, 5), (30, 10), (40, 10)] {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(1000 * v as u64 + seed);
            let sys = generate(&GeneratorConfig::table4(v, s), &mut rng).system;
            raw += usize::from(check_one(&sys, &format!("table4 v={v} s={s} seed={seed}")));
        }
    }
    assert!(raw >= 24, "only {raw} of 30 raw systems enumerated");
}

#[test]
fn rings_with_relay_stations() {
    let mut rng = StdRng::seed_from_u64(7);
    for len in [2, 3, 5, 8, 13, 40, 120] {
        for stations in [0, 1, 2, 5] {
            let mut r = ring(len);
            for _ in 0..stations {
                let c = r.channels[rng.gen_range(0..len)];
                r.system.add_relay_station(c);
            }
            let label = format!("ring len={len} stations={stations}");
            assert!(check(&r.system, &label) > 0, "{label}: oracle must finish");
        }
    }
}

#[test]
fn meshes_and_tori_with_relay_stations() {
    let mut rng = StdRng::seed_from_u64(0x40C);
    let mut finished = 0;
    for (rows, cols, wrap) in [(3, 3, false), (3, 3, true), (4, 4, false), (4, 4, true)] {
        for stations in [0, 1, 2, 4] {
            let mut sys = if wrap {
                torus(rows, cols).system
            } else {
                mesh(rows, cols).system
            };
            let channels: Vec<ChannelId> = sys.channel_ids().collect();
            for _ in 0..stations {
                sys.add_relay_station(channels[rng.gen_range(0..channels.len())]);
            }
            let shape = if wrap { "torus" } else { "mesh" };
            finished += check(&sys, &format!("{shape} {rows}x{cols} stations={stations}"));
        }
    }
    assert!(finished > 0);
}

/// A random LIS: block count, channel endpoints, relay stations per
/// channel and queue capacities.
fn arb_lis() -> impl Strategy<Value = LisSystem> {
    (2usize..7)
        .prop_flat_map(|n| {
            let channels = proptest::collection::vec(((0..n), (0..n), 0u32..3, 1u64..4), 1..12);
            (Just(n), channels)
        })
        .prop_map(|(n, channels)| {
            let mut sys = LisSystem::new();
            let blocks: Vec<_> = (0..n).map(|i| sys.add_block(format!("b{i}"))).collect();
            for (from, to, rs, q) in channels {
                let c = sys.add_channel(blocks[from], blocks[to]);
                for _ in 0..rs {
                    sys.add_relay_station(c);
                }
                sys.set_queue_capacity(c, q).expect("q >= 1");
            }
            sys
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On small random systems with random capacities, the search returns
    /// exactly the filtered enumeration.
    #[test]
    fn search_equals_filtered_enumeration(sys in arb_lis()) {
        prop_assert!(check_one(&sys, "random system"));
    }

    /// Every deficient cycle counts against the cycle limit: a limit one
    /// below their number fails with the typed error. A limit that admits
    /// every elementary cycle of `d[G]` never fails.
    #[test]
    fn limit_counts_deficient_cycles(sys in arb_lis()) {
        let k = oracle(&sys, LIMIT).expect("small systems enumerate").len();
        if k > 0 {
            prop_assert_eq!(
                extract_instance(&sys, k - 1).unwrap_err(),
                QsError::TooManyCycles { limit: k - 1 }
            );
        }
        let all = count_elementary_cycles(LisModel::doubled(&sys).graph(), LIMIT).unwrap();
        prop_assert!(extract_instance(&sys, all).is_ok());
    }
}
