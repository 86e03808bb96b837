//! Step-semantics execution of marked graphs.
//!
//! The paper restricts marked-graph behavior to *step semantics*: the graph
//! moves from marking `M_i` to `M_{i+1}` in a single step during which **all
//! enabled transitions fire concurrently** (Section III-B). Each step
//! corresponds to one clock period of the synchronous system, so per-
//! transition firing rates converge to the throughput values computed by the
//! static minimum-cycle-mean analysis.

use std::collections::HashMap;

use crate::graph::{MarkedGraph, PlaceId, TransitionId};
use crate::ratio::Ratio;

/// A token assignment to every place of a graph.
///
/// # Examples
///
/// ```
/// use marked_graph::{MarkedGraph, Marking};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// let p = g.add_place(a, b, 1);
/// let m = Marking::initial(&g);
/// assert_eq!(m.tokens(p), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Marking {
    tokens: Vec<u64>,
}

impl Marking {
    /// Captures the initial marking of a graph.
    pub fn initial(graph: &MarkedGraph) -> Marking {
        Marking {
            tokens: graph.place_ids().map(|p| graph.tokens(p)).collect(),
        }
    }

    /// Token count of a place under this marking.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range for the graph this marking was built from.
    pub fn tokens(&self, p: PlaceId) -> u64 {
        self.tokens[p.index()]
    }

    /// Total token count over all places.
    pub fn total(&self) -> u64 {
        self.tokens.iter().sum()
    }

    /// Whether a transition is enabled (every input place holds ≥ 1 token).
    pub fn is_enabled(&self, graph: &MarkedGraph, t: TransitionId) -> bool {
        graph.inputs(t).iter().all(|&p| self.tokens[p.index()] > 0)
    }

    /// Token count of the places along a cycle. Invariant under firing
    /// (a defining property of marked graphs).
    pub fn cycle_tokens(&self, cycle: &[PlaceId]) -> u64 {
        cycle.iter().map(|&p| self.tokens[p.index()]).sum()
    }
}

/// The eventually-periodic characterization of a marked graph's execution,
/// produced by [`FiringEngine::periodic_behavior`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeriodicBehavior {
    /// Steps (relative to the engine's start) before the periodic regime.
    ///
    /// More precisely: the step index at which the first recurring marking
    /// was first visited, so the reported period starts there. The true
    /// minimal transient is at most this value.
    pub transient: u64,
    /// Length of the repeating marking cycle.
    pub period: u64,
    /// Firings of each transition over one period.
    pub firings_per_period: Vec<u64>,
    /// `u64` words per step in `fired`: one bit per transition.
    stride: usize,
    /// Which transitions fired in each step of the period, packed.
    fired: Vec<u64>,
}

impl PeriodicBehavior {
    /// Whether `t` fires in step `k` of the period (step `transient + k`
    /// of the execution).
    ///
    /// # Panics
    ///
    /// Panics if `k >= period` or `t` is out of range.
    pub fn fires(&self, k: u64, t: TransitionId) -> bool {
        assert!(k < self.period, "step {k} lies outside the period");
        let word = self.fired[k as usize * self.stride + t.index() / 64];
        word >> (t.index() % 64) & 1 == 1
    }

    /// The firing word of `t` over one period, starting at step
    /// `transient`.
    pub fn word(&self, t: TransitionId) -> Vec<bool> {
        (0..self.period).map(|k| self.fires(k, t)).collect()
    }
}

/// A 64-bit fingerprint key per place: a marking's fingerprint is the sum
/// of `tokens × key` over its places, wrapping. The keys are fixed
/// (SplitMix64 of the place index), so every search is deterministic.
fn fingerprint_keys(graph: &MarkedGraph) -> Vec<u64> {
    (0..graph.place_count() as u64)
        .map(|i| {
            let mut z = i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// Every marking fingerprints to the same value, so each visited step is
/// a candidate and the exact replay check alone finds the repeat.
#[cfg(test)]
fn constant_fingerprint_keys(graph: &MarkedGraph) -> Vec<u64> {
    vec![0; graph.place_count()]
}

/// Executes a marked graph under step semantics and records firing counts.
///
/// # Examples
///
/// A two-stage ring where the single token makes each transition fire every
/// other step, i.e. at rate 1/2:
///
/// ```
/// use marked_graph::{FiringEngine, MarkedGraph, Ratio};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// g.add_place(a, b, 1);
/// g.add_place(b, a, 0);
/// let mut engine = FiringEngine::new(&g);
/// engine.run(100);
/// assert_eq!(engine.firings(a), 50);
/// assert_eq!(engine.throughput(a), Ratio::new(1, 2));
/// ```
#[derive(Debug, Clone)]
pub struct FiringEngine<'g> {
    graph: &'g MarkedGraph,
    marking: Marking,
    firings: Vec<u64>,
    steps: u64,
    /// Per-place running maximum of tokens over every visited marking
    /// (including the start marking).
    max_tokens: Vec<u64>,
    /// Scratch buffer of transitions enabled in the current step.
    enabled: Vec<TransitionId>,
}

impl<'g> FiringEngine<'g> {
    /// Creates an engine positioned at the graph's initial marking.
    pub fn new(graph: &'g MarkedGraph) -> FiringEngine<'g> {
        FiringEngine::with_marking(graph, Marking::initial(graph))
    }

    /// Creates an engine starting from an explicit marking.
    pub fn with_marking(graph: &'g MarkedGraph, marking: Marking) -> FiringEngine<'g> {
        let max_tokens = marking.tokens.clone();
        FiringEngine {
            graph,
            marking,
            firings: vec![0; graph.transition_count()],
            steps: 0,
            max_tokens,
            enabled: Vec::new(),
        }
    }

    /// The current marking.
    pub fn marking(&self) -> &Marking {
        &self.marking
    }

    /// Number of steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of times transition `t` has fired.
    pub fn firings(&self, t: TransitionId) -> u64 {
        self.firings[t.index()]
    }

    /// The highest token count place `p` has held over the execution so
    /// far, sampled at step boundaries (the start marking counts).
    ///
    /// On a doubled LIS model the forward place entering a shell is the
    /// channel's input queue, so this maximum is the queue's backlog peak —
    /// the quantity the schedule-derived occupancy bounds cap.
    pub fn max_tokens(&self, p: PlaceId) -> u64 {
        self.max_tokens[p.index()]
    }

    /// Average firing rate of `t` over the steps executed so far.
    ///
    /// # Panics
    ///
    /// Panics if no step has been executed yet.
    pub fn throughput(&self, t: TransitionId) -> Ratio {
        assert!(self.steps > 0, "throughput requires at least one step");
        Ratio::new(self.firings[t.index()] as i64, self.steps as i64)
    }

    /// The lowest per-transition firing rate observed so far.
    ///
    /// For a strongly connected live graph this converges to the graph's
    /// maximal sustainable throughput.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or no step has been executed.
    pub fn min_throughput(&self) -> Ratio {
        self.graph
            .transition_ids()
            .map(|t| self.throughput(t))
            .min()
            .expect("graph has at least one transition")
    }

    /// Executes one synchronous step: all currently-enabled transitions fire
    /// concurrently. Returns how many transitions fired.
    pub fn step(&mut self) -> usize {
        self.enabled.clear();
        for t in self.graph.transition_ids() {
            if self.marking.is_enabled(self.graph, t) {
                self.enabled.push(t);
            }
        }
        for &t in &self.enabled {
            for &p in self.graph.inputs(t) {
                self.marking.tokens[p.index()] -= 1;
            }
            self.firings[t.index()] += 1;
        }
        for &t in &self.enabled {
            for &p in self.graph.outputs(t) {
                let slot = p.index();
                self.marking.tokens[slot] += 1;
                if self.marking.tokens[slot] > self.max_tokens[slot] {
                    self.max_tokens[slot] = self.marking.tokens[slot];
                }
            }
        }
        self.steps += 1;
        self.enabled.len()
    }

    /// Executes `n` steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Runs until the marking repeats and returns the full periodic
    /// characterization: transient length, period, per-transition firings
    /// per period and the firing word of every transition over the period.
    ///
    /// For a live strongly connected marked graph the marking space is
    /// finite and the dynamics deterministic, so the sequence is eventually
    /// periodic; `firings_per_period[t] / period` is the *exact* long-run
    /// rate of `t`, equal to the minimum cycle mean for strongly connected
    /// graphs. Returns `None` if no repeat occurs within `max_steps`.
    ///
    /// The search keeps no markings. It keeps a 64-bit fingerprint of the
    /// current marking, updated by one precomputed delta per fired
    /// transition, and records each step's firings as packed bits. A step
    /// whose fingerprint was seen before is checked exactly: a replay from
    /// the start marking compares the markings of every earlier step with
    /// that fingerprint, so a collision can neither fake a repeat nor hide
    /// the first one. Cost: O((transient + period) · (places + nt/64)).
    ///
    /// # Examples
    ///
    /// ```
    /// use marked_graph::{FiringEngine, MarkedGraph};
    ///
    /// let mut g = MarkedGraph::new();
    /// let a = g.add_transition("A");
    /// let b = g.add_transition("B");
    /// g.add_place(a, b, 1);
    /// g.add_place(b, a, 0);
    /// let mut engine = FiringEngine::new(&g);
    /// let p = engine.periodic_behavior(100).expect("tiny state space");
    /// assert_eq!(p.period, 2);
    /// assert_eq!(p.firings_per_period, vec![1, 1]);
    /// assert_eq!(p.word(a), [false, true]);
    /// ```
    pub fn periodic_behavior(&mut self, max_steps: u64) -> Option<PeriodicBehavior> {
        let keys = fingerprint_keys(self.graph);
        self.find_repeat(&keys, max_steps)
    }

    /// [`FiringEngine::periodic_behavior`] under the given per-place
    /// fingerprint keys.
    fn find_repeat(&mut self, keys: &[u64], max_steps: u64) -> Option<PeriodicBehavior> {
        let graph = self.graph;
        let delta: Vec<u64> = graph
            .transition_ids()
            .map(|t| {
                let produced = graph.outputs(t).iter().map(|p| keys[p.index()]);
                let consumed = graph.inputs(t).iter().map(|p| keys[p.index()]);
                produced
                    .fold(0u64, u64::wrapping_add)
                    .wrapping_sub(consumed.fold(0u64, u64::wrapping_add))
            })
            .collect();
        let mut fingerprint = graph
            .place_ids()
            .map(|p| self.marking.tokens(p).wrapping_mul(keys[p.index()]))
            .fold(0u64, u64::wrapping_add);
        let origin = self.clone();
        let stride = graph.transition_count().div_ceil(64);
        let mut fired: Vec<u64> = Vec::new();
        // Visit `i` is the marking `i` steps after the start. `latest` maps
        // a fingerprint to its latest visit; `earlier[i]` is the visit
        // before `i` with the same fingerprint.
        let mut latest: HashMap<u64, usize> = HashMap::new();
        let mut earlier: Vec<Option<usize>> = vec![None];
        latest.insert(fingerprint, 0);
        for _ in 0..max_steps {
            self.step();
            fired.resize(fired.len() + stride, 0);
            let row = fired.len() - stride;
            for &t in &self.enabled {
                fingerprint = fingerprint.wrapping_add(delta[t.index()]);
                fired[row + t.index() / 64] |= 1 << (t.index() % 64);
            }
            let visit = earlier.len();
            if let Some(&last) = latest.get(&fingerprint) {
                let candidates: Vec<usize> =
                    std::iter::successors(Some(last), |&c| earlier[c]).collect();
                let mut replay = origin.clone();
                for &c in candidates.iter().rev() {
                    replay.run(c as u64 - (replay.steps - origin.steps));
                    if replay.marking == self.marking {
                        let firings_per_period = self
                            .firings
                            .iter()
                            .zip(&replay.firings)
                            .map(|(now, then)| now - then)
                            .collect();
                        return Some(PeriodicBehavior {
                            transient: replay.steps,
                            period: (visit - c) as u64,
                            firings_per_period,
                            stride,
                            fired: fired.split_off(c * stride),
                        });
                    }
                }
            }
            earlier.push(latest.insert(fingerprint, visit));
        }
        None
    }

    /// Runs until the marking repeats (periodic behavior reached) or
    /// `max_steps` is hit, then returns the exact long-run throughput of
    /// transition `t` over one period: `firings_per_period[t] / period` of
    /// [`FiringEngine::periodic_behavior`].
    ///
    /// For a live strongly connected marked graph the reachable marking space
    /// is finite, so a marking must repeat; the firing counts between the two
    /// occurrences give the *exact* sustained rate, free of transient warm-up
    /// effects.
    ///
    /// Returns `None` if no repetition was found within `max_steps`.
    pub fn periodic_throughput(&mut self, t: TransitionId, max_steps: u64) -> Option<Ratio> {
        self.periodic_behavior(max_steps)
            .map(|b| Ratio::new(b.firings_per_period[t.index()] as i64, b.period as i64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(tokens: &[u64]) -> MarkedGraph {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..tokens.len())
            .map(|i| g.add_transition(format!("t{i}")))
            .collect();
        for i in 0..tokens.len() {
            g.add_place(ts[i], ts[(i + 1) % ts.len()], tokens[i]);
        }
        g
    }

    #[test]
    fn enabled_requires_all_inputs() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let c = g.add_transition("C");
        g.add_place(a, c, 1);
        g.add_place(b, c, 0);
        let m = Marking::initial(&g);
        assert!(m.is_enabled(&g, a)); // sources (no inputs) are always enabled
        assert!(!m.is_enabled(&g, c));
    }

    #[test]
    fn ring_throughput_matches_token_density() {
        // 2 tokens on a 5-place ring -> rate 2/5 per transition.
        let g = ring(&[1, 0, 1, 0, 0]);
        let mut e = FiringEngine::new(&g);
        e.run(1000);
        for t in g.transition_ids() {
            let tp = e.throughput(t);
            assert!((tp.to_f64() - 0.4).abs() < 0.01, "rate {tp} for {t:?}");
        }
    }

    #[test]
    fn periodic_throughput_is_exact() {
        let g = ring(&[1, 0, 1, 0, 0]);
        let mut e = FiringEngine::new(&g);
        let t0 = TransitionId::new(0);
        assert_eq!(e.periodic_throughput(t0, 10_000), Some(Ratio::new(2, 5)));
    }

    #[test]
    fn cycle_token_count_is_invariant() {
        let g = ring(&[2, 0, 1]);
        let cycle: Vec<_> = g.place_ids().collect();
        let mut e = FiringEngine::new(&g);
        let before = e.marking().cycle_tokens(&cycle);
        e.run(57);
        assert_eq!(e.marking().cycle_tokens(&cycle), before);
    }

    #[test]
    fn deadlocked_ring_never_fires() {
        let g = ring(&[0, 0, 0]);
        let mut e = FiringEngine::new(&g);
        assert_eq!(e.step(), 0);
        e.run(10);
        assert_eq!(e.firings(TransitionId::new(0)), 0);
        assert_eq!(e.min_throughput(), Ratio::ZERO);
    }

    #[test]
    fn source_transition_fires_every_step() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        g.add_place(a, b, 0);
        let mut e = FiringEngine::new(&g);
        e.run(10);
        assert_eq!(e.firings(a), 10);
        // b receives a token each step after the first and fires at rate -> 1.
        assert_eq!(e.firings(b), 9);
    }

    #[test]
    fn step_returns_fired_count() {
        let g = ring(&[1, 0]);
        let mut e = FiringEngine::new(&g);
        assert_eq!(e.step(), 1);
        assert_eq!(e.step(), 1);
    }

    #[test]
    fn with_marking_starts_elsewhere() {
        let g = ring(&[1, 0]);
        let mut m = Marking::initial(&g);
        // Move the token by one step manually: now it sits on the place
        // entering t0, so t0 is the transition that fires next.
        m.tokens[0] = 0;
        m.tokens[1] = 1;
        let mut e = FiringEngine::with_marking(&g, m);
        e.step();
        assert_eq!(e.firings(TransitionId::new(0)), 1);
        assert_eq!(e.firings(TransitionId::new(1)), 0);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn throughput_before_steps_panics() {
        let g = ring(&[1, 0]);
        let e = FiringEngine::new(&g);
        let _ = e.throughput(TransitionId::new(0));
    }

    #[test]
    fn max_tokens_tracks_the_backlog_peak() {
        // src fires every step; mid is gated to rate 1/2 by a self-loop
        // throttle, so the place src -> mid accumulates up to 2 tokens
        // before settling.
        let mut g = MarkedGraph::new();
        let src = g.add_transition("src");
        let mid = g.add_transition("mid");
        let queue = g.add_place(src, mid, 0);
        let t = g.add_transition("throttle");
        let tick = g.add_place(t, t, 1);
        g.add_place(t, mid, 0);
        g.add_place(mid, t, 1);
        let mut e = FiringEngine::new(&g);
        assert_eq!(e.max_tokens(queue), 0); // start marking counts
        e.run(20);
        let peak = e.max_tokens(queue);
        assert!(peak >= 1, "the queue must have been occupied");
        assert_eq!(e.max_tokens(tick), 1); // a 1-token self-loop never grows
                                           // Running further never lowers a recorded maximum.
        e.run(20);
        assert!(e.max_tokens(queue) >= peak);
    }

    #[test]
    fn marking_total() {
        let g = ring(&[3, 2, 0]);
        assert_eq!(Marking::initial(&g).total(), 5);
    }

    #[test]
    fn periodic_behavior_of_ring() {
        // 2 tokens on 5 places: period 5, each transition fires twice.
        let g = ring(&[1, 0, 1, 0, 0]);
        let mut e = FiringEngine::new(&g);
        let p = e.periodic_behavior(1000).expect("small state space");
        assert_eq!(p.firings_per_period, vec![2; 5]);
        assert_eq!(p.period, 5);
        assert_eq!(p.transient, 0); // a single ring is periodic from reset
    }

    #[test]
    fn periodic_behavior_rate_matches_mcm() {
        // Two coupled rings: long-run rate = min cycle mean exactly.
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let c = g.add_transition("C");
        g.add_place(a, b, 1);
        g.add_place(b, a, 1);
        g.add_place(b, c, 1);
        g.add_place(c, b, 0);
        let mut e = FiringEngine::new(&g);
        let p = e.periodic_behavior(10_000).expect("finite");
        let mcm = crate::mcm::karp(&g).expect("cyclic");
        for t in 0..3 {
            assert_eq!(
                Ratio::new(p.firings_per_period[t] as i64, p.period as i64),
                mcm
            );
        }
    }

    #[test]
    fn periodic_behavior_none_when_budget_too_small() {
        let g = ring(&[1, 0, 1, 0, 0]);
        let mut e = FiringEngine::new(&g);
        assert_eq!(e.periodic_behavior(2), None);
    }

    #[test]
    fn source_driven_graph_accumulates_and_never_repeats() {
        // A source feeding a sink through an unbounded place: tokens pile
        // up, the marking never repeats.
        let mut g = MarkedGraph::new();
        let src = g.add_transition("src");
        let mid = g.add_transition("mid");
        g.add_place(src, mid, 0);
        g.add_place(src, mid, 0);
        // mid consumes one pair per step but src produces one pair too;
        // add a second source place so mid lags... simplest: make mid
        // require a token from a self-throttled ring at rate 1/2.
        let t = g.add_transition("throttle");
        g.add_place(t, t, 1); // fires every step
        let gate = g.add_place(t, mid, 0);
        let back = g.add_place(mid, t, 0);
        // t needs mid's token back every other step: rate limit.
        let _ = (gate, back);
        let mut e = FiringEngine::new(&g);
        // Depending on structure this may or may not repeat; the call must
        // simply terminate and be consistent with throughput().
        let _ = e.periodic_behavior(100);
        assert!(e.steps() <= 101);
    }

    /// The search as it was before fingerprints: every visited marking
    /// kept whole in a map. Returns `(transient, period, firings per
    /// period)`.
    fn repeat_by_marking_map(graph: &MarkedGraph, max_steps: u64) -> Option<(u64, u64, Vec<u64>)> {
        let mut e = FiringEngine::new(graph);
        let mut seen: HashMap<Marking, (u64, Vec<u64>)> = HashMap::new();
        seen.insert(e.marking.clone(), (0, e.firings.clone()));
        for _ in 0..max_steps {
            e.step();
            if let Some((step0, fired0)) = seen.get(&e.marking) {
                let per_period = e.firings.iter().zip(fired0).map(|(a, b)| a - b).collect();
                return Some((*step0, e.steps - step0, per_period));
            }
            seen.insert(e.marking.clone(), (e.steps, e.firings.clone()));
        }
        None
    }

    /// The doubled model of `sys`, rebuilt as this crate's graph type (the
    /// one `lis-core` links is a separate build of the crate).
    fn doubled(sys: &lis_core::LisSystem) -> MarkedGraph {
        let model = lis_core::LisModel::doubled(sys);
        let src = model.graph();
        let mut g = MarkedGraph::new();
        for t in src.transition_ids() {
            g.add_transition(src.transition_name(t));
        }
        for p in src.place_ids() {
            let from = TransitionId::new(src.source(p).index());
            let to = TransitionId::new(src.target(p).index());
            g.add_place(from, to, src.tokens(p));
        }
        g
    }

    /// With a constant fingerprint every visit is a candidate, so only the
    /// exact replay check decides. It must find what the fingerprinted
    /// search and the marking-map search find: the same regime, words and
    /// firing counts, and the same per-place peaks.
    fn assert_collisions_change_nothing(g: &MarkedGraph, max_steps: u64) {
        let mut fast = FiringEngine::new(g);
        let found = fast.periodic_behavior(max_steps);
        let mut colliding = FiringEngine::new(g);
        let keys = constant_fingerprint_keys(g);
        // Every step replays all earlier ones, so the colliding search gets
        // only the steps the fingerprinted one took: a miss fails fast.
        assert_eq!(colliding.find_repeat(&keys, fast.steps), found);
        assert_eq!(colliding.max_tokens, fast.max_tokens);
        assert_eq!(colliding.steps, fast.steps);
        let oracle = repeat_by_marking_map(g, max_steps);
        assert_eq!(
            found.map(|b| (b.transient, b.period, b.firings_per_period)),
            oracle
        );
    }

    #[test]
    fn collisions_change_nothing_on_the_paper_figures() {
        use lis_core::figures;
        for sys in [
            figures::fig1().0,
            figures::fig2_right().0,
            figures::fig6().0,
            figures::fig15().0,
            figures::fig2_family(3),
        ] {
            let g = doubled(&sys);
            assert_collisions_change_nothing(&g, 10_000);
            // A budget that stops short of the repeat finds nothing.
            let b = FiringEngine::new(&g).periodic_behavior(10_000).unwrap();
            assert_collisions_change_nothing(&g, b.transient + b.period - 1);
        }
    }

    #[test]
    fn collisions_change_nothing_midway_through_an_execution() {
        // Starting after some steps: transient counts from the engine's
        // start, and the replay starts at the search's start marking.
        let g = doubled(&lis_core::figures::fig15().0);
        let mut fast = FiringEngine::new(&g);
        fast.run(5);
        let mut colliding = fast.clone();
        let found = fast.periodic_behavior(1000).expect("periodic");
        assert!(found.transient >= 5);
        let keys = constant_fingerprint_keys(&g);
        assert_eq!(colliding.find_repeat(&keys, 1000), Some(found));
        assert_eq!(colliding.max_tokens, fast.max_tokens);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random LIS systems, as in the schedule property tests.
        #[test]
        fn collisions_change_nothing_on_random_systems(
            n in 2usize..7,
            channels in proptest::collection::vec((0usize..7, 0usize..7, 0u32..3, 1u64..4), 1..10),
        ) {
            let mut sys = lis_core::LisSystem::new();
            let blocks: Vec<_> = (0..n).map(|i| sys.add_block(format!("b{i}"))).collect();
            for (from, to, rs, q) in channels {
                let c = sys.add_channel(blocks[from % n], blocks[to % n]);
                for _ in 0..rs {
                    sys.add_relay_station(c);
                }
                sys.set_queue_capacity(c, q).expect("q >= 1");
            }
            assert_collisions_change_nothing(&doubled(&sys), 65_536);
        }
    }
}
