//! Enumeration of elementary cycles (Johnson's algorithm) and the
//! deficient-only search queue sizing runs on.
//!
//! The queue-sizing pipeline of the paper needs the explicit list of
//! *deficient* cycles of the doubled graph (Section VII-A): each becomes a
//! constraint of the Token Deficit problem. [`deficient_cycles`] finds
//! exactly those, cutting every branch that provably closes none, so the
//! usually far larger set of non-deficient cycles is mostly never walked.
//! [`elementary_cycles`] lists every cycle; it backs the cycle censuses of
//! the paper's Tables IV–V and is the oracle the pruned search is tested
//! against. The number of cycles can be exponential, so both take a hard
//! `limit` and fail loudly instead of exhausting memory — mirroring the
//! paper's observation that "the initial listing of all the cycles ... may
//! blow up fairly quickly".

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::error::GraphError;
use crate::graph::{MarkedGraph, PlaceId, TransitionId};
use crate::mcm::component_potentials;
use crate::ratio::Ratio;
use crate::scc::SccDecomposition;

/// Default cap on the number of enumerated cycles.
pub const DEFAULT_CYCLE_LIMIT: usize = 1_000_000;

/// Node expansions [`deficient_cycles`] may spend per cycle of its `limit`.
///
/// With its cost locks the search expands about as many nodes per closed
/// cycle as Johnson's algorithm makes calls per cycle (at most 22 measured
/// on uncollapsed Table IV systems, v = 50–400), so this cap does not bind
/// where the full enumeration fits the same limit. It bounds the work a
/// hostile graph can cause without closing cycles: past
/// `limit × EXPANSIONS_PER_CYCLE` expansions the search gives up with the
/// same [`GraphError::TooManyCycles`] an over-limit cycle count returns.
pub const EXPANSIONS_PER_CYCLE: usize = 32;

/// Enumerates all elementary cycles of `graph` as closed walks of places.
///
/// Parallel places produce distinct cycles (one per place choice), matching
/// the marked-graph semantics where each place is an independent buffer.
/// Cycles are elementary with respect to *transitions*: no transition is
/// visited twice.
///
/// # Errors
///
/// Returns [`GraphError::TooManyCycles`] if more than `limit` cycles exist.
///
/// # Examples
///
/// ```
/// use marked_graph::{cycles::elementary_cycles, MarkedGraph};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// let c = g.add_transition("C");
/// g.add_place(a, b, 1);
/// g.add_place(b, a, 1);
/// g.add_place(b, c, 1);
/// g.add_place(c, a, 1);
/// let cycles = elementary_cycles(&g, 100)?;
/// assert_eq!(cycles.len(), 2); // A-B and A-B-C
/// # Ok::<(), marked_graph::GraphError>(())
/// ```
pub fn elementary_cycles(
    graph: &MarkedGraph,
    limit: usize,
) -> Result<Vec<Vec<PlaceId>>, GraphError> {
    let mut enumerator = Johnson::new(graph, limit);
    enumerator.run()?;
    Ok(enumerator.cycles)
}

/// Counts elementary cycles without keeping them (same `limit` behavior).
///
/// # Errors
///
/// Returns [`GraphError::TooManyCycles`] if more than `limit` cycles exist.
pub fn count_elementary_cycles(graph: &MarkedGraph, limit: usize) -> Result<usize, GraphError> {
    let mut enumerator = Johnson::new(graph, limit);
    enumerator.keep = false;
    enumerator.run()?;
    Ok(enumerator.count)
}

/// The deficient cycles of a graph, as found by [`deficient_cycles`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeficientCycles {
    /// Every elementary cycle whose mean lies below the target, as a closed
    /// walk of places, in the order [`elementary_cycles`] lists them.
    pub cycles: Vec<Vec<PlaceId>>,
    /// Light cycles (see [`deficient_cycles`]) the search closed back to
    /// their start vertex, deficient or not: distinct elementary cycles, so
    /// never more than [`elementary_cycles`] lists. Zero when no search was
    /// needed.
    pub closed: usize,
}

/// Lists the elementary cycles of `graph` whose mean (tokens per place) is
/// strictly below `target`, exactly as filtering [`elementary_cycles`]
/// would, without enumerating the others.
///
/// `mean` is the graph's minimum cycle mean, or any lower bound on it.
/// When `mean >= target` no cycle can be deficient and the answer is empty
/// without any search. Otherwise, with `mean = a/b` and `target = p/q`,
/// shortest-path potentials `π` under the weights `b·tokens − a` (the
/// Bellman–Ford pass of the MCM module) give every place inside a strongly
/// connected component the reduced cost
/// `r = b·tokens − a + π(src) − π(dst) ≥ 0`, and a cycle `C` is deficient
/// iff `q·Σr < E·|C|` with `E = p·b − q·a > 0`. With `m_s` the number of
/// vertices `≥ s` in `s`'s component, every deficient cycle through `s` is
/// *light*: its reduced cost is below `E·m_s / q`.
///
/// The search backtracks in Johnson's order — start vertex `s` ascending,
/// the subgraph of vertices `≥ s` in `s`'s component, outputs in graph
/// order — over light cycles only: it cuts the branch into `w` when
/// `R + dist_s(w)` reaches that bound, where `R` is the path's reduced cost
/// including the place into `w` and `dist_s` the reduced-cost (Dijkstra)
/// distance back to `s`. Johnson's boolean block, unsound once branches are
/// cut by cost, becomes a cost *lock* (after Gupta and Suzumura's
/// barrier-based search for bounded-length cycles): a vertex left behind is
/// locked at the least arrival cost that can no longer close a light cycle
/// through it, and locks rise again, along Johnson's `B` lists, as the path
/// shrinks. No cut or lock discards a deficient cycle, so the output is the
/// filtered enumeration, cycle for cycle and in order.
///
/// # Errors
///
/// Returns [`GraphError::TooManyCycles`] if the search closes more than
/// `limit` cycles — deficient ones plus the light ones that are not, never
/// more than the graph's elementary cycles — or expands more than
/// `limit × `[`EXPANSIONS_PER_CYCLE`] nodes.
///
/// # Examples
///
/// ```
/// use marked_graph::{cycles::deficient_cycles, MarkedGraph, Ratio};
///
/// let mut g = MarkedGraph::new();
/// let a = g.add_transition("A");
/// let b = g.add_transition("B");
/// let c = g.add_transition("C");
/// g.add_place(a, b, 1);
/// g.add_place(b, a, 1); // A-B: mean 1
/// g.add_place(b, c, 0);
/// g.add_place(c, a, 1); // A-B-C: mean 2/3
/// let found = deficient_cycles(&g, Ratio::new(2, 3), Ratio::ONE, 100)?;
/// assert_eq!(found.cycles.len(), 1);
/// assert_eq!(found.cycles[0].len(), 3);
/// // Nothing falls short of the minimum mean itself: no search at all.
/// let none = deficient_cycles(&g, Ratio::new(2, 3), Ratio::new(2, 3), 100)?;
/// assert!(none.cycles.is_empty());
/// assert_eq!(none.closed, 0);
/// # Ok::<(), marked_graph::GraphError>(())
/// ```
pub fn deficient_cycles(
    graph: &MarkedGraph,
    mean: Ratio,
    target: Ratio,
    limit: usize,
) -> Result<DeficientCycles, GraphError> {
    if mean >= target {
        return Ok(DeficientCycles::default());
    }
    let mut search = DeficitSearch::new(graph, mean, target, limit);
    search.run()?;
    Ok(DeficientCycles {
        cycles: search.cycles,
        closed: search.closed,
    })
}

/// Marks vertices the bounded Dijkstra pass did not settle, and vertices
/// not yet locked.
const UNSET: i64 = i64::MAX;

/// One vertex of the current search path.
struct Frame {
    /// The vertex.
    v: usize,
    /// Index of the next output place of `v` to try.
    next: usize,
    /// Reduced cost of the path from the start vertex to `v`.
    cost: i64,
    /// Tokens on the path from the start vertex to `v`.
    tokens: u64,
}

struct DeficitSearch<'g> {
    graph: &'g MarkedGraph,
    scc: SccDecomposition,
    /// Reduced cost per place (meaningful for places inside a component).
    reduced: Vec<i64>,
    /// `target = p/q`.
    p: i128,
    q: i128,
    /// The slack `E = p·b − q·a` of the target over the minimum mean.
    slack: i128,
    limit: usize,
    budget: usize,
    expansions: usize,
    closed: usize,
    cycles: Vec<Vec<PlaceId>>,
    /// Reduced cost at or above which a cycle through the current start is
    /// not *light*; every deficient cycle is light.
    bound: i64,
    /// Settled reduced-cost distance back to the current start.
    dist: Vec<i64>,
    /// Vertices settled for the current start (the only ones the search
    /// can enter, lock or list).
    touched: Vec<usize>,
    heap: BinaryHeap<Reverse<(i64, usize)>>,
    /// Lock per vertex: only an arrival costing less can still close a
    /// light cycle while the path below it stays in place (`i64::MIN`:
    /// none can; `UNSET`: not explored yet).
    lock: Vec<i64>,
    /// Johnson's `B` lists, by place: `waiting[w]` holds the places `v → w`
    /// whose source's lock depends on the lock of `w`.
    waiting: Vec<Vec<PlaceId>>,
    /// Per place, the start (plus one) under which it joined a `waiting`
    /// list.
    listed: Vec<usize>,
    relaxing: Vec<usize>,
    on_path: Vec<bool>,
    stack: Vec<Frame>,
    path: Vec<PlaceId>,
}

impl<'g> DeficitSearch<'g> {
    fn new(graph: &'g MarkedGraph, mean: Ratio, target: Ratio, limit: usize) -> DeficitSearch<'g> {
        let n = graph.transition_count();
        let scc = SccDecomposition::compute(graph);
        let phi = component_potentials(graph, &scc, mean);
        let (a, b) = (mean.numer(), mean.denom());
        let reduced = graph
            .place_ids()
            .map(|pl| {
                let (u, v) = (graph.source(pl).index(), graph.target(pl).index());
                b * graph.tokens(pl) as i64 - a + phi[u] - phi[v]
            })
            .collect();
        let (p, q) = (i128::from(target.numer()), i128::from(target.denom()));
        DeficitSearch {
            graph,
            scc,
            reduced,
            p,
            q,
            slack: p * i128::from(b) - q * i128::from(a),
            limit,
            budget: limit.saturating_mul(EXPANSIONS_PER_CYCLE),
            expansions: 0,
            closed: 0,
            cycles: Vec::new(),
            bound: 0,
            dist: vec![UNSET; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            lock: vec![UNSET; n],
            waiting: vec![Vec::new(); n],
            listed: vec![0; graph.place_count()],
            relaxing: Vec::new(),
            on_path: vec![false; n],
            stack: Vec::new(),
            path: Vec::new(),
        }
    }

    fn run(&mut self) -> Result<(), GraphError> {
        // Vertices of each component not yet used as a start: the most a
        // cycle through the current start can visit.
        let mut remaining: Vec<usize> = self
            .scc
            .component_ids()
            .map(|c| self.scc.members(c).len())
            .collect();
        for s in 0..self.graph.transition_count() {
            let comp = self.scc.component_of(TransitionId::new(s));
            let bound = (self.slack * remaining[comp] as i128 + self.q - 1) / self.q;
            self.bound = i64::try_from(bound).unwrap_or(i64::MAX);
            remaining[comp] -= 1;
            if !self.scc.is_cyclic(self.graph, comp) {
                continue;
            }
            self.settle_distances(s, comp);
            let found = self.search_from(s);
            for v in self.touched.drain(..) {
                self.dist[v] = UNSET;
                self.lock[v] = UNSET;
                self.waiting[v].clear();
            }
            found?;
        }
        Ok(())
    }

    /// Dijkstra on reversed places from `s` over the vertices `≥ s` of
    /// `comp`, settling only distances below the light bound: any vertex
    /// farther away lies on no light cycle through `s`.
    fn settle_distances(&mut self, s: usize, comp: usize) {
        let graph = self.graph;
        self.heap.clear();
        self.heap.push(Reverse((0, s)));
        // Tentative labels live in the heap only: a vertex is settled the
        // first time it pops.
        while let Some(Reverse((d, v))) = self.heap.pop() {
            if self.dist[v] != UNSET {
                continue;
            }
            if d >= self.bound {
                break;
            }
            self.dist[v] = d;
            self.touched.push(v);
            for &pl in graph.inputs(TransitionId::new(v)) {
                let u = graph.source(pl).index();
                if u > s
                    && self.dist[u] == UNSET
                    && self.scc.component_of(TransitionId::new(u)) == comp
                {
                    let r = self.reduced[pl.index()];
                    debug_assert!(r >= 0, "potentials are feasible");
                    self.heap.push(Reverse((d.saturating_add(r), u)));
                }
            }
        }
    }

    /// Johnson's circuit search from `s` over the light cycles, recording
    /// the deficient ones as they close. Branches that cannot close a light
    /// cycle are cut by the distance bound, and Johnson's boolean block
    /// becomes a cost *lock* (see [`DeficitSearch::retreat`]).
    fn search_from(&mut self, s: usize) -> Result<(), GraphError> {
        let graph = self.graph;
        self.on_path[s] = true;
        self.stack.push(Frame {
            v: s,
            next: 0,
            cost: 0,
            tokens: 0,
        });
        let result = loop {
            let Some(top) = self.stack.last_mut() else {
                break Ok(());
            };
            let outs = graph.outputs(TransitionId::new(top.v));
            let Some(&pl) = outs.get(top.next) else {
                self.retreat(s);
                continue;
            };
            top.next += 1;
            let cost = top.cost.saturating_add(self.reduced[pl.index()]);
            let tokens = top.tokens + graph.tokens(pl);
            let w = graph.target(pl).index();
            if w == s {
                if cost >= self.bound {
                    continue;
                }
                if self.closed == self.limit {
                    break Err(GraphError::TooManyCycles { limit: self.limit });
                }
                self.closed += 1;
                let len = self.stack.len() as i128;
                if self.q * i128::from(tokens) < self.p * len {
                    let mut cycle = Vec::with_capacity(self.path.len() + 1);
                    cycle.extend_from_slice(&self.path);
                    cycle.push(pl);
                    self.cycles.push(cycle);
                }
                continue;
            }
            // Only vertices `≥ s` of the start's component are ever settled.
            if self.on_path[w]
                || self.dist[w] == UNSET
                || cost >= self.lock[w]
                || cost.saturating_add(self.dist[w]) >= self.bound
            {
                continue;
            }
            self.expansions += 1;
            if self.expansions > self.budget {
                break Err(GraphError::TooManyCycles { limit: self.limit });
            }
            self.on_path[w] = true;
            self.path.push(pl);
            self.stack.push(Frame {
                v: w,
                next: 0,
                cost,
                tokens,
            });
        };
        for frame in self.stack.drain(..) {
            self.on_path[frame.v] = false;
        }
        self.path.clear();
        result
    }

    /// Pops the top frame and locks its vertex `v` at the least arrival
    /// cost that can no longer close a light cycle through any output
    /// `v → w`: a closing place admits arrivals below `bound − r`; a place
    /// to a vertex off the path admits those below
    /// `min(lock(w), bound − dist(w)) − r`; a place to a vertex on the path
    /// admits none for now. `v` joins the `waiting` list of each such `w`,
    /// so that whenever `w` leaves the path or its lock rises, `v`'s lock
    /// rises with it ([`DeficitSearch::relax`]) — Johnson's unblocking,
    /// with costs.
    fn retreat(&mut self, s: usize) {
        let graph = self.graph;
        let frame = self.stack.pop().expect("a frame to pop");
        let v = frame.v;
        self.on_path[v] = false;
        self.path.pop();
        let mut lock = i64::MIN;
        for &pl in graph.outputs(TransitionId::new(v)) {
            let w = graph.target(pl).index();
            if w == v || self.dist[w] == UNSET {
                continue;
            }
            if w != s && self.listed[pl.index()] != s + 1 {
                self.listed[pl.index()] = s + 1;
                self.waiting[w].push(pl);
            }
            let open = if w == s {
                self.bound
            } else if self.on_path[w] {
                continue;
            } else {
                self.lock[w].min(self.bound - self.dist[w])
            };
            lock = lock.max(open.saturating_sub(self.reduced[pl.index()]));
        }
        self.lock[v] = lock;
        self.relax(v);
    }

    /// Raises, transitively, the locks of the vertices waiting on `v` to
    /// what `v`'s lock now admits.
    fn relax(&mut self, v: usize) {
        self.relaxing.push(v);
        while let Some(u) = self.relaxing.pop() {
            for i in 0..self.waiting[u].len() {
                let pl = self.waiting[u][i];
                let x = self.graph.source(pl).index();
                let admits = self.lock[u].saturating_sub(self.reduced[pl.index()]);
                if self.lock[x] != UNSET && self.lock[x] < admits && !self.on_path[x] {
                    self.lock[x] = admits;
                    self.relaxing.push(x);
                }
            }
        }
    }
}

struct Johnson<'g> {
    graph: &'g MarkedGraph,
    limit: usize,
    keep: bool,
    count: usize,
    cycles: Vec<Vec<PlaceId>>,
    blocked: Vec<bool>,
    /// `b_sets[v]` = vertices to unblock transitively when `v` unblocks.
    b_sets: Vec<Vec<usize>>,
    /// Current DFS path as places.
    path: Vec<PlaceId>,
    start: usize,
}

impl<'g> Johnson<'g> {
    fn new(graph: &'g MarkedGraph, limit: usize) -> Johnson<'g> {
        let n = graph.transition_count();
        Johnson {
            graph,
            limit,
            keep: true,
            count: 0,
            cycles: Vec::new(),
            blocked: vec![false; n],
            b_sets: vec![Vec::new(); n],
            path: Vec::new(),
            start: 0,
        }
    }

    fn run(&mut self) -> Result<(), GraphError> {
        let n = self.graph.transition_count();
        for s in 0..n {
            self.start = s;
            for v in s..n {
                self.blocked[v] = false;
                self.b_sets[v].clear();
            }
            self.circuit(s)?;
        }
        Ok(())
    }

    fn unblock(&mut self, v: usize) {
        self.blocked[v] = false;
        let pending = std::mem::take(&mut self.b_sets[v]);
        for w in pending {
            if self.blocked[w] {
                self.unblock(w);
            }
        }
    }

    fn record(&mut self) -> Result<(), GraphError> {
        self.count += 1;
        if self.count > self.limit {
            return Err(GraphError::TooManyCycles { limit: self.limit });
        }
        if self.keep {
            self.cycles.push(self.path.clone());
        }
        Ok(())
    }

    fn circuit(&mut self, v: usize) -> Result<bool, GraphError> {
        let mut found = false;
        self.blocked[v] = true;
        for i in 0..self.graph.outputs(crate::graph::TransitionId::new(v)).len() {
            let p = self.graph.outputs(crate::graph::TransitionId::new(v))[i];
            let w = self.graph.target(p).index();
            if w < self.start {
                continue; // restricted to the subgraph on vertices >= start
            }
            if w == self.start {
                self.path.push(p);
                self.record()?;
                self.path.pop();
                found = true;
            } else if !self.blocked[w] {
                self.path.push(p);
                if self.circuit(w)? {
                    found = true;
                }
                self.path.pop();
            }
        }
        if found {
            self.unblock(v);
        } else {
            for i in 0..self.graph.outputs(crate::graph::TransitionId::new(v)).len() {
                let p = self.graph.outputs(crate::graph::TransitionId::new(v))[i];
                let w = self.graph.target(p).index();
                if w >= self.start && !self.b_sets[w].contains(&v) {
                    self.b_sets[w].push(v);
                }
            }
        }
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TransitionId;

    fn ring(n: usize) -> MarkedGraph {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..n).map(|i| g.add_transition(format!("t{i}"))).collect();
        for i in 0..n {
            g.add_place(ts[i], ts[(i + 1) % n], 1);
        }
        g
    }

    #[test]
    fn ring_has_one_cycle() {
        let g = ring(5);
        let cs = elementary_cycles(&g, 100).unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].len(), 5);
        assert_eq!(count_elementary_cycles(&g, 100).unwrap(), 1);
    }

    #[test]
    fn acyclic_has_none() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        let c = g.add_transition("C");
        g.add_place(a, b, 1);
        g.add_place(a, c, 1);
        g.add_place(b, c, 1);
        assert!(elementary_cycles(&g, 100).unwrap().is_empty());
    }

    #[test]
    fn self_loop_counts() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        g.add_place(a, a, 1);
        let cs = elementary_cycles(&g, 100).unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].len(), 1);
    }

    #[test]
    fn parallel_edges_give_distinct_cycles() {
        let mut g = MarkedGraph::new();
        let a = g.add_transition("A");
        let b = g.add_transition("B");
        g.add_place(a, b, 1);
        g.add_place(a, b, 0);
        g.add_place(b, a, 1);
        let cs = elementary_cycles(&g, 100).unwrap();
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn complete_graph_cycle_count() {
        // K4 (directed, both directions): number of elementary cycles is
        // sum over subset sizes k>=2 of C(4,k) * (k-1)!  plus... known value:
        // directed K4 has 20 elementary cycles (6 of len 2, 8 of len 3, 6 of len 4).
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..4).map(|i| g.add_transition(format!("t{i}"))).collect();
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    g.add_place(ts[i], ts[j], 1);
                }
            }
        }
        let cs = elementary_cycles(&g, 1000).unwrap();
        assert_eq!(cs.len(), 20);
        let mut by_len = [0usize; 5];
        for c in &cs {
            by_len[c.len()] += 1;
        }
        assert_eq!(by_len[2], 6);
        assert_eq!(by_len[3], 8);
        assert_eq!(by_len[4], 6);
    }

    #[test]
    fn limit_is_enforced() {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..6).map(|i| g.add_transition(format!("t{i}"))).collect();
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    g.add_place(ts[i], ts[j], 1);
                }
            }
        }
        assert_eq!(
            elementary_cycles(&g, 10).unwrap_err(),
            GraphError::TooManyCycles { limit: 10 }
        );
    }

    #[test]
    fn cycles_are_closed_walks() {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..5).map(|i| g.add_transition(format!("t{i}"))).collect();
        g.add_place(ts[0], ts[1], 1);
        g.add_place(ts[1], ts[2], 1);
        g.add_place(ts[2], ts[0], 1);
        g.add_place(ts[2], ts[3], 1);
        g.add_place(ts[3], ts[4], 1);
        g.add_place(ts[4], ts[2], 1);
        g.add_place(ts[1], ts[3], 1);
        for c in elementary_cycles(&g, 1000).unwrap() {
            // cycle_mean panics on non-closed walks, so this validates shape.
            let _ = g.cycle_mean(&c);
            // Elementary: no repeated transitions.
            let mut seen: Vec<TransitionId> = c.iter().map(|&p| g.source(p)).collect();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), c.len());
        }
    }

    /// The filter-after-enumerate reference for [`deficient_cycles`].
    fn filtered(g: &MarkedGraph, target: Ratio) -> Vec<Vec<PlaceId>> {
        elementary_cycles(g, 100_000)
            .unwrap()
            .into_iter()
            .filter(|c| g.cycle_mean(c) < target)
            .collect()
    }

    #[test]
    fn deficient_search_equals_filtered_enumeration() {
        // Directed K5 with a token pattern that spreads cycle means.
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..5).map(|i| g.add_transition(format!("t{i}"))).collect();
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    g.add_place(ts[i], ts[j], ((i * 3 + j) % 3) as u64);
                }
            }
        }
        let all = count_elementary_cycles(&g, 100_000).unwrap();
        let mean = crate::mcm::minimum_cycle_mean(&g).unwrap().mean;
        for target in [
            Ratio::new(1, 3),
            Ratio::new(1, 2),
            Ratio::ONE,
            Ratio::new(3, 2),
        ] {
            let found = deficient_cycles(&g, mean, target, 100_000).unwrap();
            assert_eq!(found.cycles, filtered(&g, target), "target {target:?}");
            assert!(found.cycles.len() <= found.closed && found.closed <= all);
        }
    }

    #[test]
    fn no_search_when_the_minimum_mean_reaches_the_target() {
        let g = ring(4);
        let found = deficient_cycles(&g, Ratio::ONE, Ratio::ONE, 0).unwrap();
        assert_eq!(found, DeficientCycles::default());
    }

    #[test]
    fn cycles_out_of_reach_do_not_count_against_the_limit() {
        // Two disjoint rings: one at mean 1/3, one at mean 1.
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..6).map(|i| g.add_transition(format!("t{i}"))).collect();
        g.add_place(ts[0], ts[1], 1);
        g.add_place(ts[1], ts[2], 0);
        g.add_place(ts[2], ts[0], 0);
        g.add_place(ts[3], ts[4], 1);
        g.add_place(ts[4], ts[5], 1);
        g.add_place(ts[5], ts[3], 1);
        let found = deficient_cycles(&g, Ratio::new(1, 3), Ratio::ONE, 1).unwrap();
        assert_eq!((found.cycles.len(), found.closed), (1, 1));
        assert_eq!(
            deficient_cycles(&g, Ratio::new(1, 3), Ratio::ONE, 0).unwrap_err(),
            GraphError::TooManyCycles { limit: 0 }
        );
    }

    /// `s` ⇄ `a` is the one deficient cycle (mean 1/2 against target 1);
    /// `a` joins a complete cluster of `k` vertices whose cycles all sit
    /// exactly at the target, and whose paths from `s` all dead-end, since
    /// the way back to `s` runs through `a`.
    fn dead_end_cluster(k: usize) -> MarkedGraph {
        let mut g = MarkedGraph::new();
        let s = g.add_transition("s");
        let a = g.add_transition("a");
        g.add_place(s, a, 0);
        g.add_place(a, s, 1);
        let cluster: Vec<_> = (0..k).map(|i| g.add_transition(format!("c{i}"))).collect();
        for &c in &cluster {
            g.add_place(a, c, 1);
            g.add_place(c, a, 1);
            for &d in &cluster {
                if c != d {
                    g.add_place(c, d, 1);
                }
            }
        }
        g
    }

    #[test]
    fn dead_end_cluster_lists_its_one_deficient_cycle() {
        let g = dead_end_cluster(6);
        let found = deficient_cycles(&g, Ratio::new(1, 2), Ratio::ONE, 100_000).unwrap();
        assert_eq!(found.cycles, filtered(&g, Ratio::ONE));
        assert_eq!(found.cycles.len(), 1);
    }

    #[test]
    fn dense_cluster_hits_the_cycle_limit_quickly() {
        // Billions of cycles at the target; the search closes the light
        // ones and stops at the limit.
        let g = dead_end_cluster(14);
        assert_eq!(
            deficient_cycles(&g, Ratio::new(1, 2), Ratio::ONE, 10_000).unwrap_err(),
            GraphError::TooManyCycles { limit: 10_000 }
        );
    }

    #[test]
    fn two_disjoint_rings() {
        let mut g = MarkedGraph::new();
        let ts: Vec<_> = (0..6).map(|i| g.add_transition(format!("t{i}"))).collect();
        g.add_place(ts[0], ts[1], 1);
        g.add_place(ts[1], ts[0], 1);
        g.add_place(ts[3], ts[4], 1);
        g.add_place(ts[4], ts[5], 1);
        g.add_place(ts[5], ts[3], 1);
        let cs = elementary_cycles(&g, 100).unwrap();
        assert_eq!(cs.len(), 2);
    }
}
