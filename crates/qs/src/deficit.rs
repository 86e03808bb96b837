//! Extraction of deficient cycles from the doubled graph.
//!
//! Queue sizing (Section V) asks for extra tokens on shell-queue backedges so
//! that `θ(d[G]) = θ(G)`. The first step (Section VII-A) lists the cycles of
//! `d[G]` whose mean falls short of the ideal MST; each such cycle carries a
//! *deficit* — the number of extra tokens needed to lift its mean to the
//! target — and a set of *adjustable edges* (the shell input queues it runs
//! through) where those tokens may be placed.
//!
//! Only deficient cycles are ever searched for
//! ([`marked_graph::cycles::deficient_cycles`]): when `θ(d[G]) = θ(G)` there
//! are none and extraction returns the empty instance without any search;
//! otherwise a reduced-cost bound prunes every branch that cannot close a
//! deficient cycle. The list — cycles, order and annotations — is the one
//! filtering a full elementary-cycle enumeration would give.

use lis_core::{ChannelId, LisModel, LisSystem};
use marked_graph::cycles::deficient_cycles;
use marked_graph::{McmEngine, PlaceId, Ratio};

use crate::error::QsError;

/// Default cap on the cycles extraction may close, matching
/// [`marked_graph::cycles::DEFAULT_CYCLE_LIMIT`]. The cap counts the
/// deficient cycles plus the non-deficient ones the search's cost bound
/// cannot rule out (never more than the doubled graph's elementary cycles);
/// the search also gives up after
/// [`marked_graph::cycles::EXPANSIONS_PER_CYCLE`] node expansions per cycle
/// of the cap.
pub const DEFAULT_CYCLE_LIMIT: usize = marked_graph::cycles::DEFAULT_CYCLE_LIMIT;

/// A cycle of the doubled graph whose mean is below the ideal MST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeficientCycle {
    /// The cycle as a closed walk of places in `d[G]`.
    pub places: Vec<PlaceId>,
    /// Token count along the cycle (before queue sizing).
    pub tokens: u64,
    /// Number of places on the cycle.
    pub len: u64,
    /// Extra tokens needed so that the cycle mean reaches the target MST.
    pub deficit: u64,
    /// Channels whose input queue lies on this cycle (deduplicated): the
    /// places where extra tokens may legally be added.
    pub adjustable: Vec<ChannelId>,
}

/// A queue-sizing instance: the target throughput plus all deficient cycles.
#[derive(Debug, Clone)]
pub struct QsInstance {
    /// The ideal MST `θ(G)` that queue sizing must restore.
    pub target: Ratio,
    /// The practical MST `θ(d[G])` before queue sizing.
    pub practical: Ratio,
    /// All deficient cycles of the doubled graph.
    pub cycles: Vec<DeficientCycle>,
    /// Cycles of the doubled graph the deficient-cycle search closed,
    /// deficient or not ([`marked_graph::cycles::DeficientCycles::closed`]):
    /// a measure of extraction work, not a census of `d[G]`. Zero when
    /// `θ(d[G]) = θ(G)`, since then no search runs.
    pub total_cycles: usize,
}

impl QsInstance {
    /// Whether queue sizing is needed at all.
    pub fn is_degraded(&self) -> bool {
        !self.cycles.is_empty()
    }

    /// The channels that appear as adjustable edges in at least one
    /// deficient cycle, sorted and deduplicated.
    pub fn adjustable_channels(&self) -> Vec<ChannelId> {
        let mut chs: Vec<ChannelId> = self
            .cycles
            .iter()
            .flat_map(|c| c.adjustable.iter().copied())
            .collect();
        chs.sort();
        chs.dedup();
        chs
    }
}

/// The number of extra tokens a cycle needs to reach mean `target`.
///
/// A cycle with `tokens` tokens over `len` places needs
/// `max(0, ceil(target · len) - tokens)` extra tokens.
pub fn cycle_deficit(tokens: u64, len: u64, target: Ratio) -> u64 {
    let needed = (target * Ratio::from_integer(len as i64)).ceil();
    needed.saturating_sub(tokens as i64).max(0) as u64
}

/// Extracts the queue-sizing instance of a system: searches `d[G]` for its
/// deficient cycles only and annotates each with its deficit and adjustable
/// channels. A system whose practical MST already equals the ideal one
/// yields the empty instance without any search.
///
/// # Errors
///
/// Returns [`QsError::TooManyCycles`] if the search closes more than
/// `cycle_limit` cycles or outgrows its node budget (see
/// [`DEFAULT_CYCLE_LIMIT`]).
///
/// # Examples
///
/// The Fig. 5 instance has exactly one deficient cycle with deficit one:
///
/// ```
/// use lis_core::figures;
/// use lis_qs::extract_instance;
///
/// let (sys, _, lower) = figures::fig1();
/// let inst = extract_instance(&sys, 10_000)?;
/// assert!(inst.is_degraded());
/// assert_eq!(inst.cycles.len(), 1);
/// assert_eq!(inst.cycles[0].deficit, 1);
/// assert_eq!(inst.cycles[0].adjustable, vec![lower]);
/// # Ok::<(), lis_qs::QsError>(())
/// ```
pub fn extract_instance(sys: &LisSystem, cycle_limit: usize) -> Result<QsInstance, QsError> {
    extract_instance_with(sys, cycle_limit, McmEngine::default())
}

/// [`extract_instance`] with an explicit MCM engine for the ideal and
/// practical throughput solves.
///
/// # Errors
///
/// As [`extract_instance`].
pub fn extract_instance_with(
    sys: &LisSystem,
    cycle_limit: usize,
    engine: McmEngine,
) -> Result<QsInstance, QsError> {
    let ideal = lis_core::ideal_mst_with(sys, engine);
    let model = LisModel::doubled(sys);
    extract_from_model_with(sys, &model, ideal, cycle_limit, engine)
}

/// Like [`extract_instance`] but reuses an already-built doubled model and an
/// already-computed ideal MST (the exhaustive relay-station searches call
/// this in a loop).
///
/// # Errors
///
/// As [`extract_instance`].
pub fn extract_from_model(
    sys: &LisSystem,
    model: &LisModel,
    target: Ratio,
    cycle_limit: usize,
) -> Result<QsInstance, QsError> {
    extract_from_model_with(sys, model, target, cycle_limit, McmEngine::default())
}

/// [`extract_from_model`] with an explicit MCM engine for the practical
/// throughput solve.
///
/// # Errors
///
/// As [`extract_instance`].
pub fn extract_from_model_with(
    _sys: &LisSystem,
    model: &LisModel,
    target: Ratio,
    cycle_limit: usize,
    engine: McmEngine,
) -> Result<QsInstance, QsError> {
    let graph = model.graph();
    let practical = lis_core::mst_with(graph, engine);
    let found = deficient_cycles(graph, practical, target, cycle_limit)?;
    let cycles = found
        .cycles
        .into_iter()
        .map(|places| {
            let tokens: u64 = places.iter().map(|&p| graph.tokens(p)).sum();
            let len = places.len() as u64;
            let deficit = cycle_deficit(tokens, len, target);
            debug_assert!(deficit > 0, "the search returns deficient cycles only");
            let mut adjustable: Vec<ChannelId> = places
                .iter()
                .filter_map(|&p| model.channel_of_queue_backedge(p))
                .collect();
            adjustable.sort();
            adjustable.dedup();
            debug_assert!(
                !adjustable.is_empty(),
                "a deficient cycle must traverse at least one shell queue"
            );
            DeficientCycle {
                places,
                tokens,
                len,
                deficit,
                adjustable,
            }
        })
        .collect();
    Ok(QsInstance {
        target,
        practical,
        cycles,
        total_cycles: found.closed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::figures;

    #[test]
    fn deficit_formula() {
        // 2 tokens over 3 places, target 1: need ceil(3) - 2 = 1.
        assert_eq!(cycle_deficit(2, 3, Ratio::ONE), 1);
        // 4 tokens over 6 places, target 5/6: need ceil(5) - 4 = 1.
        assert_eq!(cycle_deficit(4, 6, Ratio::new(5, 6)), 1);
        // Already at target.
        assert_eq!(cycle_deficit(5, 6, Ratio::new(5, 6)), 0);
        assert_eq!(cycle_deficit(9, 3, Ratio::ONE), 0);
        // Fractional target rounding: 7 places at 5/6 needs ceil(35/6)=6.
        assert_eq!(cycle_deficit(5, 7, Ratio::new(5, 6)), 1);
        // Zero tokens.
        assert_eq!(cycle_deficit(0, 4, Ratio::new(1, 2)), 2);
    }

    #[test]
    fn fig1_instance() {
        let (sys, _, lower) = figures::fig1();
        let inst = extract_instance(&sys, 10_000).unwrap();
        assert_eq!(inst.target, Ratio::ONE);
        assert_eq!(inst.practical, Ratio::new(2, 3));
        assert!(inst.is_degraded());
        assert_eq!(inst.cycles.len(), 1);
        let c = &inst.cycles[0];
        assert_eq!((c.tokens, c.len, c.deficit), (2, 3, 1));
        assert_eq!(inst.adjustable_channels(), vec![lower]);
    }

    #[test]
    fn fig2_right_not_degraded() {
        let (sys, _, _) = figures::fig2_right();
        let inst = extract_instance(&sys, 10_000).unwrap();
        assert!(!inst.is_degraded());
        assert_eq!(inst.practical, Ratio::ONE);
        assert!(inst.adjustable_channels().is_empty());
    }

    #[test]
    fn fig15_instance() {
        let (sys, ch) = figures::fig15();
        let inst = extract_instance(&sys, 10_000).unwrap();
        assert_eq!(inst.target, Ratio::new(5, 6));
        assert_eq!(inst.practical, Ratio::new(3, 4));
        assert!(inst.is_degraded());
        // The offending cycle {A, rs, E, C, A} uses the queues of channels
        // (C,E) and (A,C) in the backward direction.
        let adjustables = inst.adjustable_channels();
        assert!(adjustables.contains(&ch[5]) || adjustables.contains(&ch[6]));
        for c in &inst.cycles {
            assert!(c.deficit > 0);
            assert!(!c.adjustable.is_empty());
        }
    }

    #[test]
    fn no_relay_stations_no_deficit() {
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let b = sys.add_block("B");
        let c = sys.add_block("C");
        sys.add_channel(a, b);
        sys.add_channel(b, c);
        sys.add_channel(c, a);
        sys.add_channel(a, c);
        let inst = extract_instance(&sys, 10_000).unwrap();
        assert!(!inst.is_degraded());
        // Practical equals ideal, so extraction ran no search at all.
        assert_eq!(inst.total_cycles, 0);
    }

    #[test]
    fn cycle_limit_propagates() {
        let (sys, _) = figures::fig15();
        assert!(matches!(
            extract_instance(&sys, 2),
            Err(QsError::TooManyCycles { limit: 2 })
        ));
    }
}
