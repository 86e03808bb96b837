//! Balanced binary words: the encoding of periodic marked-graph schedules.
//!
//! Millo & de Simone ("Periodic scheduling of marked graphs using balanced
//! binary words") show that the ASAP execution of a live marked graph
//! settles into a periodic regime in which every transition fires along a
//! *balanced* (mechanical / Christoffel) binary word: a word of rate `p/q`
//! whose ones are spread as evenly as arithmetic allows. The word is fully
//! determined by its rate and a phase, so an explicit schedule costs two
//! integers per transition instead of a trace.
//!
//! [`BalancedWord`] is the closed-form mechanical word
//! `w(k) = floor(((k+1)p + phi)/q) - floor((kp + phi)/q)`; its cumulative
//! firing count over any window is exact, which is what lets schedule
//! throughput be compared to the minimum cycle mean as a rational identity
//! rather than a float approximation.

use crate::ratio::Ratio;

/// A rate-`p/q` mechanical binary word with phase `phi`.
///
/// `fires_at(k)` is 1 exactly when a multiple of `q` falls in the interval
/// `(kp + phi, (k+1)p + phi]`, which spaces the ones maximally evenly; any
/// length-`n` prefix contains `floor((np + phi)/q)` ones, so the long-run
/// rate is exactly `p/q`.
///
/// # Examples
///
/// ```
/// use marked_graph::{word::BalancedWord, Ratio};
///
/// let w = BalancedWord::new(Ratio::new(2, 3));
/// let bits: Vec<bool> = (0..6).map(|k| w.fires_at(k)).collect();
/// assert_eq!(bits, [false, true, true, false, true, true]);
/// assert_eq!(w.count(6), 4); // exactly 2/3 of 6
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BalancedWord {
    p: u64,
    q: u64,
    phase: u64,
}

impl BalancedWord {
    /// The phase-zero balanced word of the given rate.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= rate <= 1` (a step-semantics transition cannot
    /// fire more than once per step).
    pub fn new(rate: Ratio) -> BalancedWord {
        BalancedWord::with_phase(rate, 0)
    }

    /// A balanced word of the given rate and phase (reduced modulo `q`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= rate <= 1`.
    pub fn with_phase(rate: Ratio, phase: u64) -> BalancedWord {
        assert!(
            rate >= Ratio::ZERO && rate <= Ratio::ONE,
            "schedule rates lie in [0, 1], got {rate}"
        );
        let p = rate.numer() as u64;
        let q = rate.denom() as u64;
        BalancedWord {
            p,
            q,
            phase: phase % q,
        }
    }

    /// Numerator of the rate (ones per period).
    pub fn p(&self) -> u64 {
        self.p
    }

    /// Denominator of the rate (the period).
    pub fn q(&self) -> u64 {
        self.q
    }

    /// The phase, always in `0..q`.
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// The word's rate as an exact rational.
    pub fn rate(&self) -> Ratio {
        Ratio::new(self.p as i64, self.q as i64)
    }

    /// Whether the word fires at step `k`.
    pub fn fires_at(&self, k: u64) -> bool {
        let p = u128::from(self.p);
        let q = u128::from(self.q);
        let phi = u128::from(self.phase);
        let k = u128::from(k);
        ((k + 1) * p + phi) / q - (k * p + phi) / q == 1
    }

    /// Number of ones among steps `0..n` — exactly `floor((np + phi)/q)`.
    pub fn count(&self, n: u64) -> u64 {
        let ones =
            (u128::from(n) * u128::from(self.p) + u128::from(self.phase)) / u128::from(self.q);
        u64::try_from(ones).expect("prefix counts fit u64 for u64 windows")
    }

    /// The first `len` letters of the word.
    pub fn prefix(&self, len: usize) -> Vec<bool> {
        (0..len as u64).map(|k| self.fires_at(k)).collect()
    }

    /// The least phase whose balanced word reproduces `trace` exactly, in
    /// one pass over the trace.
    ///
    /// Every prefix count pins the phase: a length-`n` prefix holds
    /// `c = floor((np + phi)/q)` ones exactly when
    /// `cq - np <= phi <= (c+1)q - np - 1`. The matching phases are the
    /// intersection of these ranges over all prefixes (the empty prefix
    /// gives `0..q`), and the least of them is the first rotation an
    /// exhaustive search over `0..q` would find.
    ///
    /// Returns `None` when the intersection is empty — which happens for
    /// marked graphs whose periodic regime is not balanced (cyclicity
    /// greater than one can interleave two firing groups unevenly). The
    /// caller then keeps the explicit trace instead of the two-integer
    /// encoding.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= rate <= 1`.
    pub fn matching(rate: Ratio, trace: &[bool]) -> Option<BalancedWord> {
        let word = BalancedWord::new(rate);
        let (p, q) = (i128::from(word.p), i128::from(word.q));
        let (mut lo, mut hi) = (0, q - 1);
        // After n letters: np = n·p and cq = c·q for the prefix count c.
        let (mut np, mut cq) = (0i128, 0i128);
        for &bit in trace {
            np += p;
            if bit {
                cq += q;
            }
            lo = lo.max(cq - np);
            hi = hi.min(cq + q - 1 - np);
            if lo > hi {
                return None;
            }
        }
        Some(BalancedWord::with_phase(rate, lo as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The exhaustive search `matching` replaces: try every rotation
    /// `0..q` in order and keep the first that reproduces the trace.
    fn matching_by_rotation(rate: Ratio, trace: &[bool]) -> Option<BalancedWord> {
        let q = BalancedWord::new(rate).q;
        (0..q)
            .map(|phi| BalancedWord::with_phase(rate, phi))
            .find(|w| {
                trace
                    .iter()
                    .enumerate()
                    .all(|(k, &bit)| w.fires_at(k as u64) == bit)
            })
    }

    #[test]
    fn matching_equals_the_rotation_search_on_every_short_trace() {
        // Every rate p/q with q <= 9 (unreduced, as callers may pass them)
        // against every trace of up to 14 letters, `None` included.
        let mut found = 0usize;
        for q in 1..=9i64 {
            for p in 0..=q {
                let rate = Ratio::new(p, q);
                for len in 0..=14usize {
                    for bits in 0..1u32 << len {
                        let trace: Vec<bool> = (0..len).map(|k| bits >> k & 1 == 1).collect();
                        let fast = BalancedWord::matching(rate, &trace);
                        assert_eq!(fast, matching_by_rotation(rate, &trace), "{rate} {trace:?}");
                        found += usize::from(fast.is_some());
                    }
                }
            }
        }
        assert!(found > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Long traces: a rotated balanced word of period up to 1009, with
        /// one letter flipped in about half of the cases.
        #[test]
        fn matching_equals_the_rotation_search_on_long_traces(
            q in 1i64..1010,
            p in 0i64..1010,
            phase in 0u64..1010,
            start in 0u64..2048,
            len in 0usize..3000,
            flip in 0usize..6000,
        ) {
            let rate = Ratio::new(p % (q + 1), q);
            let w = BalancedWord::with_phase(rate, phase);
            let mut trace: Vec<bool> = (start..start + len as u64).map(|k| w.fires_at(k)).collect();
            if flip < len {
                trace[flip] = !trace[flip];
            } else {
                prop_assert!(BalancedWord::matching(rate, &trace).is_some());
            }
            prop_assert_eq!(BalancedWord::matching(rate, &trace), matching_by_rotation(rate, &trace));
        }
    }

    #[test]
    fn rate_is_exact_over_any_multiple_of_the_period() {
        for (p, q) in [(0, 1), (1, 1), (1, 2), (2, 3), (3, 7), (5, 8)] {
            for phi in 0..q {
                let w = BalancedWord::with_phase(Ratio::new(p, q), phi as u64);
                for m in 1..5u64 {
                    assert_eq!(w.count(m * q as u64), m * p as u64, "p={p} q={q} phi={phi}");
                }
            }
        }
    }

    #[test]
    fn ones_are_spread_evenly() {
        // Balance property: any two windows of equal length differ by at
        // most one in their number of ones.
        let w = BalancedWord::new(Ratio::new(3, 8));
        for len in 1..16u64 {
            let counts: Vec<u64> = (0..24)
                .map(|start| (start..start + len).filter(|&k| w.fires_at(k)).count() as u64)
                .collect();
            let min = counts.iter().min().unwrap();
            let max = counts.iter().max().unwrap();
            assert!(max - min <= 1, "window {len}: {counts:?}");
        }
    }

    #[test]
    fn phase_rotates_the_word() {
        let base = BalancedWord::new(Ratio::new(2, 5));
        let trace: Vec<bool> = (3..3 + 10).map(|k| base.fires_at(k)).collect();
        let shifted = BalancedWord::matching(Ratio::new(2, 5), &trace).expect("rotation exists");
        assert_eq!(shifted.prefix(10), trace);
    }

    #[test]
    fn matching_rejects_unbalanced_traces() {
        // 1,1,0,0 has rate 1/2 but both ones adjacent: not mechanical of
        // any phase (the rate-1/2 words are 1010... and 0101...).
        assert_eq!(
            BalancedWord::matching(Ratio::new(1, 2), &[true, true, false, false]),
            None
        );
    }

    #[test]
    fn extreme_rates() {
        let zero = BalancedWord::new(Ratio::ZERO);
        let one = BalancedWord::new(Ratio::ONE);
        for k in 0..10 {
            assert!(!zero.fires_at(k));
            assert!(one.fires_at(k));
        }
        assert_eq!(zero.count(10), 0);
        assert_eq!(one.count(10), 10);
    }

    #[test]
    #[should_panic(expected = "schedule rates lie in [0, 1]")]
    fn rates_above_one_panic() {
        let _ = BalancedWord::new(Ratio::new(3, 2));
    }
}
