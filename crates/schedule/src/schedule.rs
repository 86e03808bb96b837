//! Periodic schedule construction on the doubled marked graph.

use std::fmt;

use lis_core::{BlockId, ChannelId, LisModel, LisSystem};
use marked_graph::csr::CsrScc;
use marked_graph::mcm::scc_mean_with;
use marked_graph::word::BalancedWord;
use marked_graph::{FiringEngine, McmEngine, Ratio, SccDecomposition, TransitionId};

/// Default step budget for reaching the periodic regime. The doubled
/// model's pair invariant bounds every place, so every netlist repeats;
/// the period follows the slowest cycle and can exceed a thousand steps
/// (a 1000-block ring with 6 relay stations repeats after 1006). The
/// budget only guards degenerate inputs.
pub const MAX_SCHEDULE_STEPS: u64 = 65_536;

/// Why a schedule could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No marking repeat within the step budget.
    NoRepeat {
        /// The budget that was exhausted.
        max_steps: u64,
    },
    /// The executed rate of a transition disagreed with its component's
    /// minimum cycle mean — an internal invariant violation that would
    /// indicate a bug in the engines or the execution, never expected.
    RateMismatch {
        /// Name of the offending transition.
        transition: String,
        /// Rate observed over one period of the execution.
        executed: Ratio,
        /// Rate predicted by the per-SCC minimum cycle mean.
        analyzed: Ratio,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NoRepeat { max_steps } => {
                write!(f, "no periodic regime within {max_steps} steps")
            }
            ScheduleError::RateMismatch {
                transition,
                executed,
                analyzed,
            } => write!(
                f,
                "transition {transition} executed at {executed} but its component's \
                 cycle mean is {analyzed}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The periodic firing schedule of one transition of the doubled model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionSchedule {
    /// Transition name (`block` for shells, `block->block#k` style names
    /// for relay stations, as the model builder assigns them).
    pub name: String,
    /// Exact long-run firing rate `p/q`, equal to the transition's
    /// component minimum cycle mean capped at 1.
    pub rate: Ratio,
    /// Firings over one period of the executed regime.
    pub firings_per_period: u64,
    /// The firing word over one period, starting at step `transient`.
    pub word: Vec<bool>,
    /// Phase `phi` such that the balanced word of `rate` rotated by `phi`
    /// reproduces `word` exactly; `None` when the regime is not balanced
    /// (cyclicity above one), in which case `word` is the schedule.
    pub phase: Option<u64>,
}

/// Queue-occupancy bounds of one channel, derived from the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelBound {
    /// The channel.
    pub channel: ChannelId,
    /// Maximum backlog of the channel's input queue over the zero-stall
    /// execution (transient plus one period) — *attained* by any
    /// stall-free simulation run from reset.
    pub peak: u64,
    /// The pair-invariant hard cap: forward-place plus backedge tokens on
    /// the consumer hop are constant, so occupancy can never exceed this
    /// under *any* stall or burst plan.
    pub cap: u64,
}

/// The explicit periodic firing schedule of a system, with per-channel
/// occupancy bounds. See [`Schedule::compute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Engine used for the per-SCC rate validation.
    pub engine: McmEngine,
    /// System throughput: the minimum transition rate, equal to the
    /// practical MST θ as an exact rational.
    pub throughput: Ratio,
    /// Steps before the periodic regime (first visit of the recurring
    /// marking).
    pub transient: u64,
    /// Period of the regime in steps.
    pub period: u64,
    /// One schedule per transition of the doubled model, in graph order
    /// (shells first, then relay stations).
    pub transitions: Vec<TransitionSchedule>,
    /// Occupancy bounds per channel, in channel order.
    pub bounds: Vec<ChannelBound>,
    /// Doubled-model transition index of each block's shell.
    block_transitions: Vec<usize>,
}

impl Schedule {
    /// Computes the schedule with the default step budget
    /// ([`MAX_SCHEDULE_STEPS`]).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoRepeat`] if the execution does not reach
    /// a periodic regime within the budget.
    pub fn compute(sys: &LisSystem, engine: McmEngine) -> Result<Schedule, ScheduleError> {
        Schedule::compute_with_budget(sys, engine, MAX_SCHEDULE_STEPS)
    }

    /// [`Schedule::compute`] with an explicit step budget.
    ///
    /// The construction: build the doubled model `d[G]`, solve each SCC's
    /// minimum cycle mean on its CSR snapshot with `engine` (the doubled
    /// graph is edge-symmetric, so components are exactly the connected
    /// netlist parts and every transition's long-run rate is its
    /// component's mean capped at 1), execute ASAP step semantics until the
    /// marking repeats ([`FiringEngine::periodic_behavior`]: a marking
    /// fingerprint with an exact replay check on every hit), check executed
    /// rates against the analyzed rates as exact rationals, align each
    /// transition's periodic firing word with a balanced binary word in one
    /// pass ([`BalancedWord::matching`]), and read off per-channel
    /// occupancy bounds. Past the MCM solve the cost is
    /// O((transient + period) · (places + nt/64)) for the execution plus
    /// O(nt · period) for the words it reports.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::NoRepeat`] if no marking repeats within
    /// `max_steps`; [`ScheduleError::RateMismatch`] on an internal
    /// executed-vs-analyzed rate disagreement (never expected).
    pub fn compute_with_budget(
        sys: &LisSystem,
        engine: McmEngine,
        max_steps: u64,
    ) -> Result<Schedule, ScheduleError> {
        let model = LisModel::doubled(sys);
        let graph = model.graph();
        let nt = graph.transition_count();

        // Analyzed rate per transition: its component's cycle mean, capped
        // at 1 (step semantics fires at most once per step). Acyclic
        // components are isolated channel-less shells, which fire freely.
        let scc = SccDecomposition::compute(graph);
        let mut component_rate = vec![Ratio::ONE; scc.count()];
        for c in scc.component_ids() {
            if scc.is_cyclic(graph, c) {
                let csr = CsrScc::build(graph, &scc, c);
                component_rate[c] = scc_mean_with(&csr, engine).min(Ratio::ONE);
            }
        }
        let rates: Vec<Ratio> = (0..nt)
            .map(|t| component_rate[scc.component_of(TransitionId::new(t))])
            .collect();
        let throughput = rates.iter().copied().min().unwrap_or(Ratio::ONE);

        // ASAP execution to the first marking repeat, with the firing word
        // of every transition over the period.
        let mut eng = FiringEngine::new(graph);
        let regime = eng
            .periodic_behavior(max_steps)
            .ok_or(ScheduleError::NoRepeat { max_steps })?;
        let (transient, period) = (regime.transient, regime.period);

        // Per-transition periodic word, executed-rate check, and balanced-
        // word phase alignment.
        let mut transitions = Vec::with_capacity(nt);
        for (t, &analyzed) in rates.iter().enumerate() {
            let id = TransitionId::new(t);
            let word = regime.word(id);
            let fires = regime.firings_per_period[t];
            let executed = Ratio::new(fires as i64, period as i64);
            if executed != analyzed {
                return Err(ScheduleError::RateMismatch {
                    transition: graph.transition_name(id).to_string(),
                    executed,
                    analyzed,
                });
            }
            let phase = BalancedWord::matching(executed, &word).map(|w| w.phase());
            transitions.push(TransitionSchedule {
                name: graph.transition_name(id).to_string(),
                rate: executed,
                firings_per_period: fires,
                word,
                phase,
            });
        }

        // Occupancy bounds: peak from the executed running maximum (the
        // engine covered transient + period steps, which is everything the
        // zero-stall execution ever visits), cap from the pair invariant.
        let bounds = sys
            .channel_ids()
            .map(|c| {
                let queue = *model
                    .forward_places(c)
                    .last()
                    .expect("every channel has a consumer-side forward place");
                let back = model
                    .queue_backedge(c)
                    .expect("every channel targets a shell");
                ChannelBound {
                    channel: c,
                    peak: eng.max_tokens(queue),
                    cap: graph.tokens(queue) + graph.tokens(back),
                }
            })
            .collect();

        let block_transitions = sys
            .block_ids()
            .map(|b| model.block_transition(b).index())
            .collect();

        Ok(Schedule {
            engine,
            throughput,
            transient,
            period,
            transitions,
            bounds,
            block_transitions,
        })
    }

    /// The schedule of block `b`'s shell.
    pub fn block(&self, b: BlockId) -> &TransitionSchedule {
        &self.transitions[self.block_transitions[b.index()]]
    }

    /// The occupancy bounds of channel `c`.
    pub fn bound(&self, c: ChannelId) -> &ChannelBound {
        &self.bounds[c.index()]
    }

    /// The hyperperiod: steps after which the whole system repeats
    /// (identical to `period`; named for the schedule-theory reading).
    pub fn hyperperiod(&self) -> u64 {
        self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::{figures, practical_mst_with};

    #[test]
    fn fig1_schedule_is_the_paper_regime() {
        let (sys, upper, lower) = figures::fig1();
        let s = Schedule::compute(&sys, McmEngine::default()).unwrap();
        assert_eq!(s.throughput, Ratio::new(2, 3));
        assert_eq!(s.period % 3, 0, "period is a multiple of the cycle time");
        for b in sys.block_ids() {
            let ts = s.block(b);
            assert_eq!(ts.rate, Ratio::new(2, 3));
            assert_eq!(ts.firings_per_period * 3, s.period * 2);
        }
        // The relay-station channel never backs up beyond its slot; the
        // plain channel's unit queue fills to its cap of 2.
        assert!(s.bound(upper).peak <= s.bound(upper).cap);
        assert_eq!(s.bound(lower).cap, 2);
        assert_eq!(s.bound(lower).peak, 2);
    }

    #[test]
    fn all_three_engines_agree_exactly() {
        let (sys, _, _) = figures::fig1();
        for engine in McmEngine::ALL {
            let s = Schedule::compute(&sys, engine).unwrap();
            assert_eq!(s.throughput, practical_mst_with(&sys, engine));
            assert_eq!(s.throughput, Ratio::new(2, 3));
        }
    }

    #[test]
    fn fig6_sizing_restores_rate_one_schedule() {
        let (sys, _, _) = figures::fig6();
        let s = Schedule::compute(&sys, McmEngine::default()).unwrap();
        assert_eq!(s.throughput, Ratio::ONE);
        for t in &s.transitions {
            assert_eq!(t.rate, Ratio::ONE);
            // Rate-1 words are trivially balanced at phase 0.
            assert_eq!(t.phase, Some(0));
        }
    }

    #[test]
    fn balanced_words_reproduce_the_executed_words() {
        let (sys, _, _) = figures::fig1();
        let s = Schedule::compute(&sys, McmEngine::default()).unwrap();
        for t in &s.transitions {
            let Some(phi) = t.phase else { continue };
            let w = BalancedWord::with_phase(t.rate, phi);
            for (k, &bit) in t.word.iter().enumerate() {
                assert_eq!(w.fires_at(k as u64), bit, "{} step {k}", t.name);
            }
        }
    }

    #[test]
    fn schedule_throughput_matches_theta_on_every_figure() {
        let systems: Vec<LisSystem> = vec![
            figures::fig1().0,
            figures::fig2_right().0,
            figures::fig6().0,
            figures::fig15().0,
            figures::fig2_family(3),
        ];
        for (i, sys) in systems.iter().enumerate() {
            for engine in McmEngine::ALL {
                let s = Schedule::compute(sys, engine).unwrap();
                assert_eq!(
                    s.throughput,
                    practical_mst_with(sys, engine),
                    "figure index {i} engine {engine:?}"
                );
            }
        }
    }

    #[test]
    fn budget_exhaustion_reports_no_repeat() {
        let (sys, _, _) = figures::fig1();
        assert_eq!(
            Schedule::compute_with_budget(&sys, McmEngine::default(), 1),
            Err(ScheduleError::NoRepeat { max_steps: 1 })
        );
    }

    #[test]
    fn channel_less_system_schedules_at_rate_one() {
        let mut sys = LisSystem::new();
        let a = sys.add_block("A");
        let s = Schedule::compute(&sys, McmEngine::default()).unwrap();
        assert_eq!(s.throughput, Ratio::ONE);
        assert_eq!(s.block(a).rate, Ratio::ONE);
        assert!(s.bounds.is_empty());
    }
}
