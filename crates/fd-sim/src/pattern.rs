//! Message delay patterns (Appendix C).
//!
//! A *message delay pattern* `P_D = {d₁, d₂, d₃, …}` fixes the fate of
//! every heartbeat: `dᵢ ∈ (0, ∞]` is the delay of `mᵢ`, with `dᵢ = ∞`
//! meaning `mᵢ` is lost. The distribution of patterns is governed by
//! `(p_L, D)` and is *the same for all algorithms* in the comparison
//! class `C` — the pivot of the Theorem 6 optimality proof. Freezing a
//! pattern lets experiment E9 run different detectors on identical
//! realizations, exactly as Lemma 19 compares runs.

use crate::Link;
use rand::RngCore;

/// A frozen sequence of per-heartbeat delays (`None` = lost), for
/// messages `m₁ ‥ m_n`.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayPattern {
    delays: Vec<Option<f64>>,
}

impl DelayPattern {
    /// Draws a pattern of `n` messages from the link's `(p_L, D)` law.
    pub fn generate<R: RngCore + ?Sized>(link: &Link, n: usize, rng: &mut R) -> Self {
        Self {
            delays: (0..n).map(|_| link.sample_fate(rng)).collect(),
        }
    }

    /// Builds a pattern from explicit delays (`None` = lost).
    ///
    /// # Panics
    ///
    /// Panics if any delay is non-positive or NaN.
    pub fn from_delays(delays: Vec<Option<f64>>) -> Self {
        for d in delays.iter().flatten() {
            assert!(*d > 0.0 && !d.is_nan(), "delays must be positive, got {d}");
        }
        Self { delays }
    }

    /// Number of messages covered by the pattern.
    pub fn len(&self) -> usize {
        self.delays.len()
    }

    /// Whether the pattern covers no messages.
    pub fn is_empty(&self) -> bool {
        self.delays.is_empty()
    }

    /// Delay of message `mᵢ` (1-based); `None` if lost.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is 0 or beyond the pattern.
    pub fn delay(&self, seq: u64) -> Option<f64> {
        assert!(seq >= 1, "heartbeat sequence numbers start at 1");
        self.delays[seq as usize - 1]
    }

    /// Arrival time of `mᵢ` when sent at `σᵢ = i·η`; `None` if lost.
    pub fn arrival_time(&self, seq: u64, eta: f64) -> Option<f64> {
        self.delay(seq).map(|d| seq as f64 * eta + d)
    }

    /// Fraction of lost messages in the pattern.
    pub fn loss_fraction(&self) -> f64 {
        if self.delays.is_empty() {
            return 0.0;
        }
        self.delays.iter().filter(|d| d.is_none()).count() as f64 / self.delays.len() as f64
    }

    /// Iterates over `(seq, delay)` pairs, 1-based.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Option<f64>)> + '_ {
        self.delays
            .iter()
            .enumerate()
            .map(|(i, d)| (i as u64 + 1, *d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_stats::dist::Exponential;
    use rand::{rngs::StdRng, SeedableRng};

    fn link() -> Link {
        Link::new(0.2, Box::new(Exponential::with_mean(0.02).unwrap())).unwrap()
    }

    #[test]
    fn generate_matches_link_statistics() {
        let mut rng = StdRng::seed_from_u64(11);
        let p = DelayPattern::generate(&link(), 50_000, &mut rng);
        assert_eq!(p.len(), 50_000);
        assert!((p.loss_fraction() - 0.2).abs() < 0.01);
    }

    #[test]
    fn from_delays_and_accessors() {
        let p = DelayPattern::from_delays(vec![Some(0.1), None, Some(0.3)]);
        assert_eq!(p.delay(1), Some(0.1));
        assert_eq!(p.delay(2), None);
        assert_eq!(p.arrival_time(3, 1.0), Some(3.3));
        assert_eq!(p.arrival_time(2, 1.0), None);
        assert!((p.loss_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!(!p.is_empty());
    }

    #[test]
    fn iter_is_one_based() {
        let p = DelayPattern::from_delays(vec![Some(0.1), None]);
        let v: Vec<_> = p.iter().collect();
        assert_eq!(v, vec![(1, Some(0.1)), (2, None)]);
    }

    #[test]
    fn same_seed_same_pattern() {
        let l = link();
        let a = DelayPattern::generate(&l, 100, &mut StdRng::seed_from_u64(42));
        let b = DelayPattern::generate(&l, 100, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "sequence numbers start at 1")]
    fn delay_rejects_seq_zero() {
        DelayPattern::from_delays(vec![Some(0.1)]).delay(0);
    }

    #[test]
    #[should_panic(expected = "delays must be positive")]
    fn from_delays_rejects_nonpositive() {
        DelayPattern::from_delays(vec![Some(0.0)]);
    }

    #[test]
    fn empty_pattern() {
        let p = DelayPattern::from_delays(vec![]);
        assert!(p.is_empty());
        assert_eq!(p.loss_fraction(), 0.0);
    }
}
