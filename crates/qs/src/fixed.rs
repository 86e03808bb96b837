//! Fixed (uniform) queue sizing — Section IV and Fig. 17 of the paper.
//!
//! Uniform queues trade optimality for simplicity: one parameter instead of
//! one per channel. This module finds the smallest uniform capacity that
//! preserves the ideal MST and computes per-channel *sufficient* capacities
//! (the Lu–Koh "big enough" certificate) from the deficient-cycle analysis.

use lis_core::{conservative_fixed_q, fixed_q_preserves_mst, ChannelId, LisSystem};

use crate::deficit::extract_instance;
use crate::error::QsError;
use crate::td::TdInstance;

/// The smallest uniform queue capacity `q` that makes the practical MST
/// equal the ideal MST.
///
/// Always terminates: `q = r + 1` (total relay stations plus one) is
/// sufficient for any topology (Table II), so the answer lies in
/// `1 ..= r + 1`. Binary search over that range — feasibility is monotone
/// in `q` because adding backedge tokens can only raise cycle means.
///
/// # Examples
///
/// ```
/// use lis_core::figures;
/// use lis_qs::minimal_uniform_q;
///
/// let (sys, _, _) = figures::fig1();
/// assert_eq!(minimal_uniform_q(&sys), 2);
/// let sys4 = figures::fig2_family(3); // 4 stacked stations
/// assert_eq!(minimal_uniform_q(&sys4), 5);
/// ```
pub fn minimal_uniform_q(sys: &LisSystem) -> u64 {
    let (mut lo, mut hi) = (1u64, conservative_fixed_q(sys));
    debug_assert!(fixed_q_preserves_mst(sys, hi));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fixed_q_preserves_mst(sys, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Per-channel queue capacities that are *sufficient* to restore the ideal
/// MST: each adjustable channel gets `1 + max deficit` over the deficient
/// cycles through it (the initial assignment of the paper's heuristic,
/// which is feasible by construction); all other channels keep their
/// current capacity.
///
/// This is the certificate behind Lu & Koh's "finite queues can match
/// infinite queues" result: a concrete, polynomially computable bound,
/// generally larger than the optimized solutions of
/// [`solve`](crate::solve).
///
/// # Errors
///
/// Returns [`QsError::TooManyCycles`] if deficient-cycle extraction exceeds
/// `cycle_limit`.
///
/// # Examples
///
/// ```
/// use lis_core::{figures, practical_mst};
/// use lis_qs::sufficient_queue_capacities;
/// use marked_graph::Ratio;
///
/// let (sys, _, lower) = figures::fig1();
/// let caps = sufficient_queue_capacities(&sys, 10_000)?;
/// let mut sized = sys.clone();
/// for (c, q) in caps {
///     sized.set_queue_capacity(c, q)?;
/// }
/// assert_eq!(practical_mst(&sized), Ratio::ONE);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn sufficient_queue_capacities(
    sys: &LisSystem,
    cycle_limit: usize,
) -> Result<Vec<(ChannelId, u64)>, QsError> {
    let inst = extract_instance(sys, cycle_limit)?;
    let (td, labels) = TdInstance::from_qs(&inst);
    let caps = labels
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let max_deficit = td
                .set(i)
                .iter()
                .map(|&cy| td.deficit(cy))
                .max()
                .unwrap_or(0);
            (c, sys.queue_capacity(c) + max_deficit)
        })
        .collect();
    Ok(caps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::figures;
    use lis_core::{ideal_mst, practical_mst};

    #[test]
    fn minimal_q_on_known_systems() {
        let (fig1, _, _) = figures::fig1();
        assert_eq!(minimal_uniform_q(&fig1), 2);
        let (fig2r, _, _) = figures::fig2_right();
        assert_eq!(minimal_uniform_q(&fig2r), 1); // already balanced
        let (fig15, _) = figures::fig15();
        assert_eq!(minimal_uniform_q(&fig15), 2);
    }

    #[test]
    fn minimal_q_scales_with_stacked_stations() {
        for extra in 0..4u32 {
            let sys = figures::fig2_family(extra);
            assert_eq!(minimal_uniform_q(&sys), u64::from(extra) + 2);
        }
    }

    #[test]
    fn sufficient_capacities_restore_ideal_mst() {
        for sys in [
            figures::fig1().0,
            figures::fig15().0,
            figures::fig2_family(2),
        ] {
            let caps = sufficient_queue_capacities(&sys, 100_000).unwrap();
            let mut sized = sys.clone();
            for (c, q) in caps {
                sized.set_queue_capacity(c, q).unwrap();
            }
            assert_eq!(practical_mst(&sized), ideal_mst(&sys));
        }
    }

    #[test]
    fn sufficient_capacities_empty_when_not_degraded() {
        let (sys, _, _) = figures::fig2_right();
        let caps = sufficient_queue_capacities(&sys, 10_000).unwrap();
        assert!(caps.is_empty());
    }

    #[test]
    fn sufficient_bound_is_never_tighter_than_exact_optimum() {
        let (sys, _) = figures::fig15();
        let caps = sufficient_queue_capacities(&sys, 100_000).unwrap();
        let bound_total: u64 = caps.iter().map(|&(c, q)| q - sys.queue_capacity(c)).sum();
        let exact = crate::solve::solve(
            &sys,
            crate::solve::Algorithm::Exact,
            &crate::solve::QsConfig::default(),
        )
        .unwrap();
        assert!(bound_total >= exact.total_extra);
    }
}
