//! Estimating the probabilistic behavior of the network from heartbeats
//! (§5.2, §6.2.2, Eq. 6.3).
//!
//! * `p_L` — count "missing" heartbeats via sequence-number gaps and
//!   divide by the highest sequence number received so far;
//! * `E(D)`, `V(D)` — average/variance of `A − S` over the `n` most
//!   recent heartbeats, where `S` is the sender timestamp and `A` the
//!   local receipt time. With unsynchronized (drift-free) clocks `A − S`
//!   equals the delay plus a *constant* skew, so the variance is still
//!   exactly `V(D)` (§6.2.2) while the mean is `E(D) + skew`;
//! * `EAᵢ` — expected arrival times via the Eq. (6.3) window average,
//!   needing no sender timestamps at all.

use fd_stats::WindowedStats;
use std::collections::VecDeque;

/// Estimates the message-loss probability `p_L` from sequence numbers
/// (§5.2).
///
/// `p̂_L = (missing heartbeats) / (highest sequence number received)`,
/// where a heartbeat counts as missing if its sequence number is below
/// the highest received but it has not itself arrived. Late (out-of-order)
/// arrivals are credited when they show up, so the estimate can
/// transiently overcount losses by the number of messages still in
/// flight.
///
/// ```
/// let mut est = fd_core::estimate::LossRateEstimator::new();
/// for seq in [1, 2, 4, 5] { est.observe(seq); } // m₃ lost
/// assert!((est.estimate().unwrap() - 0.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LossRateEstimator {
    highest: u64,
    received: u64,
}

impl LossRateEstimator {
    /// Creates an estimator with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records receipt of the heartbeat with the given sequence number.
    ///
    /// Duplicate sequence numbers must not be fed (the paper's link does
    /// not duplicate; a real transport should dedup first).
    pub fn observe(&mut self, seq: u64) {
        self.highest = self.highest.max(seq);
        self.received += 1;
    }

    /// Highest sequence number received.
    pub fn highest_seq(&self) -> u64 {
        self.highest
    }

    /// Number of heartbeats received.
    pub fn received_count(&self) -> u64 {
        self.received
    }

    /// Rebuilds an estimator from previously observed totals — the
    /// crash-recovery path: a monitor restarted from a state snapshot
    /// resumes its loss estimate instead of cold-starting at zero.
    pub fn restore(highest: u64, received: u64) -> Self {
        Self { highest, received }
    }

    /// Current estimate of `p_L`; `None` before any heartbeat arrives.
    pub fn estimate(&self) -> Option<f64> {
        if self.highest == 0 {
            None
        } else {
            // received ≤ highest (no duplicates); clamp guards the
            // transient where an out-of-order future message inflated
            // `received` relative to `highest`.
            Some((1.0 - self.received as f64 / self.highest as f64).max(0.0))
        }
    }
}

/// Estimates `E(D)` and `V(D)` from sender timestamps over a sliding
/// window (§5.2).
#[derive(Debug, Clone)]
pub struct DelayMomentsEstimator {
    window: WindowedStats,
}

impl DelayMomentsEstimator {
    /// Creates an estimator over the `window` most recent heartbeats.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        Self {
            window: WindowedStats::with_capacity(window),
        }
    }

    /// Records a heartbeat stamped `send_time` (sender clock) and received
    /// at `receipt_time` (local clock).
    pub fn observe(&mut self, send_time: f64, receipt_time: f64) {
        self.window.push(receipt_time - send_time);
    }

    /// Number of observations currently windowed.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no heartbeat has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Estimated `E(D)` — **plus the constant clock skew**, if clocks are
    /// unsynchronized. `None` before any observation.
    pub fn mean_delay(&self) -> Option<f64> {
        if self.window.is_empty() {
            None
        } else {
            Some(self.window.mean())
        }
    }

    /// Estimated `V(D)` — valid even with unsynchronized (drift-free)
    /// clocks, because a constant skew cancels in the variance (§6.2.2).
    /// `None` with fewer than two observations.
    pub fn delay_variance(&self) -> Option<f64> {
        if self.window.len() < 2 {
            None
        } else {
            Some(self.window.population_variance())
        }
    }
}

/// The Eq. (6.3) expected-arrival-time estimator used by NFD-E.
///
/// Each accepted heartbeat contributes its *normalized* receipt time
/// `A'ᵢ − η·sᵢ`; the estimate of `EA_ℓ` is the window mean of the
/// normalized values plus `ℓ·η`:
///
/// ```text
/// EA_{ℓ+1} ≈ (1/n) Σᵢ (A'ᵢ − η·sᵢ) + (ℓ+1)·η
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalTimeEstimator {
    eta: f64,
    window: WindowedStats,
}

impl ArrivalTimeEstimator {
    /// Creates an estimator for heartbeats sent every `eta` time units,
    /// averaging over the `window` most recent arrivals.
    ///
    /// # Panics
    ///
    /// Panics if `eta ≤ 0`, `eta` is not finite, or `window == 0`.
    pub fn new(eta: f64, window: usize) -> Self {
        assert!(eta > 0.0 && eta.is_finite(), "eta must be positive and finite");
        Self {
            eta,
            window: WindowedStats::with_capacity(window),
        }
    }

    /// Records receipt of heartbeat `seq` at local time `receipt_time`.
    #[inline]
    pub fn observe(&mut self, receipt_time: f64, seq: u64) {
        self.window.push(receipt_time - self.eta * seq as f64);
    }

    /// The windowed normalized receipt times `A'ᵢ − η·sᵢ`, oldest first —
    /// the serializable state a crash-recovery snapshot carries, borrowed
    /// from the window.
    pub fn samples(&self) -> impl Iterator<Item = f64> + Clone + '_ {
        self.window.iter()
    }

    /// Re-inserts an already-normalized sample (crash-recovery restore;
    /// feed samples oldest first).
    pub fn restore_sample(&mut self, normalized: f64) {
        self.window.push(normalized);
    }

    /// Forgets every observation, keeping `η`, the capacity and the
    /// window's buffer.
    pub fn clear(&mut self) {
        self.window.clear();
    }

    /// Window capacity `n`.
    pub fn window(&self) -> usize {
        self.window.capacity()
    }

    /// Number of heartbeats currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the estimator has no observations yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Estimated expected arrival time of heartbeat `i`; `None` before
    /// any observation.
    #[inline]
    pub fn estimate(&self, i: u64) -> Option<f64> {
        if self.window.is_empty() {
            None
        } else {
            Some(self.window.mean() + i as f64 * self.eta)
        }
    }
}

/// Estimates `p_L` over a sliding window of the last `span` sequence
/// numbers — the "short-term component" building block of the §8.1.2
/// adaptive scheme, which must react to recent changes rather than
/// lifetime averages.
#[derive(Debug, Clone)]
pub struct WindowedLossRateEstimator {
    span: u64,
    highest: u64,
    /// Sequence numbers received that are still within the window,
    /// ascending.
    received: VecDeque<u64>,
}

impl WindowedLossRateEstimator {
    /// Creates an estimator over the most recent `span` sequence numbers.
    ///
    /// # Panics
    ///
    /// Panics if `span == 0`.
    pub fn new(span: u64) -> Self {
        assert!(span > 0, "span must be positive");
        Self {
            span,
            highest: 0,
            received: VecDeque::new(),
        }
    }

    /// Records receipt of the heartbeat with the given sequence number.
    ///
    /// A new highest sequence number — every call, for a caller that
    /// feeds only fresh ones — costs O(1) amortised: the window slides
    /// by dropping from the front. A late one inside the window is
    /// inserted in order; one that fell out of it is ignored.
    pub fn observe(&mut self, seq: u64) {
        if seq > self.highest {
            self.highest = seq;
            let cutoff = seq.saturating_sub(self.span);
            while self.received.front().is_some_and(|&s| s <= cutoff) {
                self.received.pop_front();
            }
            self.received.push_back(seq);
        } else if seq > self.highest.saturating_sub(self.span) {
            let at = self.received.partition_point(|&s| s <= seq);
            self.received.insert(at, seq);
        }
    }

    /// Forgets every observation, keeping the span and the buffer.
    pub fn clear(&mut self) {
        self.highest = 0;
        self.received.clear();
    }

    /// The sequence-number span of the window.
    pub fn span(&self) -> u64 {
        self.span
    }

    /// Loss estimate over the window; `None` before any heartbeat.
    pub fn estimate(&self) -> Option<f64> {
        if self.highest == 0 {
            return None;
        }
        let window = self.span.min(self.highest);
        Some((1.0 - self.received.len() as f64 / window as f64).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn loss_rate_counts_gaps() {
        let mut est = LossRateEstimator::new();
        assert!(est.estimate().is_none());
        for seq in [1, 2, 3, 5, 6, 10] {
            est.observe(seq);
        }
        // 6 received, highest 10 ⇒ p̂_L = 0.4.
        assert!((est.estimate().unwrap() - 0.4).abs() < 1e-12);
        assert_eq!(est.highest_seq(), 10);
        assert_eq!(est.received_count(), 6);
    }

    #[test]
    fn loss_rate_zero_when_nothing_lost() {
        let mut est = LossRateEstimator::new();
        for seq in 1..=50 {
            est.observe(seq);
        }
        assert_eq!(est.estimate(), Some(0.0));
    }

    #[test]
    fn loss_rate_converges_statistically() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut est = LossRateEstimator::new();
        let p_l = 0.1;
        for seq in 1..=100_000u64 {
            if rng.random::<f64>() >= p_l {
                est.observe(seq);
            }
        }
        let got = est.estimate().unwrap();
        assert!((got - p_l).abs() < 0.01, "estimated {got}");
    }

    #[test]
    fn delay_moments_basic() {
        let mut est = DelayMomentsEstimator::new(8);
        assert!(est.mean_delay().is_none());
        est.observe(1.0, 1.2);
        assert!((est.mean_delay().unwrap() - 0.2).abs() < 1e-12);
        assert!(est.delay_variance().is_none()); // needs 2 points
        est.observe(2.0, 2.4);
        assert!((est.mean_delay().unwrap() - 0.3).abs() < 1e-12);
        assert!((est.delay_variance().unwrap() - 0.01).abs() < 1e-12);
        assert_eq!(est.len(), 2);
    }

    #[test]
    fn delay_variance_is_skew_invariant() {
        // §6.2.2: a constant clock skew shifts A−S but not its variance.
        let deltas = [0.1, 0.3, 0.2, 0.25, 0.15];
        let mut synced = DelayMomentsEstimator::new(8);
        let mut skewed = DelayMomentsEstimator::new(8);
        let skew = 1234.5;
        for (i, d) in deltas.iter().enumerate() {
            let s = i as f64;
            synced.observe(s, s + d);
            skewed.observe(s, s + d + skew);
        }
        let v1 = synced.delay_variance().unwrap();
        let v2 = skewed.delay_variance().unwrap();
        assert!((v1 - v2).abs() < 1e-9);
        assert!((skewed.mean_delay().unwrap() - (synced.mean_delay().unwrap() + skew)).abs() < 1e-9);
    }

    #[test]
    fn arrival_estimator_eq_6_3() {
        // Receipts A'ᵢ = i·η + dᵢ with η = 2: normalized values are dᵢ.
        let mut est = ArrivalTimeEstimator::new(2.0, 4);
        assert!(est.is_empty());
        assert!(est.estimate(5).is_none());
        for (seq, d) in [(1u64, 0.3), (2, 0.5), (3, 0.4)] {
            est.observe(seq as f64 * 2.0 + d, seq);
        }
        // Mean offset 0.4 ⇒ EA₄ = 8.4.
        assert!((est.estimate(4).unwrap() - 8.4).abs() < 1e-12);
        assert_eq!(est.len(), 3);
        assert_eq!(est.window(), 4);
    }

    #[test]
    fn arrival_estimator_handles_gaps() {
        // Missing sequence numbers do not bias the estimate: the
        // normalization uses sᵢ, not the arrival count.
        let mut est = ArrivalTimeEstimator::new(1.0, 8);
        for seq in [1u64, 2, 5, 9] {
            est.observe(seq as f64 + 0.25, seq);
        }
        assert!((est.estimate(10).unwrap() - 10.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "eta must be positive")]
    fn arrival_estimator_rejects_bad_eta() {
        ArrivalTimeEstimator::new(0.0, 4);
    }

    #[test]
    fn arrival_estimator_samples_roundtrip() {
        let mut est = ArrivalTimeEstimator::new(1.0, 4);
        for seq in [1u64, 2, 3] {
            est.observe(seq as f64 + 0.3, seq);
        }
        let samples: Vec<f64> = est.samples().collect();
        assert_eq!(samples.len(), 3);

        let mut restored = ArrivalTimeEstimator::new(1.0, 4);
        for s in &samples {
            restored.restore_sample(*s);
        }
        assert_eq!(restored.len(), 3);
        assert_eq!(restored.estimate(4), est.estimate(4));
    }

    #[test]
    fn loss_rate_restore_resumes_estimate() {
        let mut est = LossRateEstimator::new();
        for seq in [1u64, 2, 4, 5] {
            est.observe(seq);
        }
        let restored =
            LossRateEstimator::restore(est.highest_seq(), est.received_count());
        assert_eq!(restored.estimate(), est.estimate());
        assert_eq!(restored.highest_seq(), 5);
    }

    #[test]
    fn windowed_loss_tracks_recent_span_only() {
        let mut est = WindowedLossRateEstimator::new(10);
        assert!(est.estimate().is_none());
        // Lossy early period: only odd seqs 1..20 arrive.
        for seq in (1..=20u64).filter(|s| s % 2 == 1) {
            est.observe(seq);
        }
        // Window 11..=20: five received ⇒ 0.5.
        assert!((est.estimate().unwrap() - 0.5).abs() < 1e-12);
        // Lossless recent period: all of 21..=30 arrive.
        for seq in 21..=30u64 {
            est.observe(seq);
        }
        assert_eq!(est.estimate(), Some(0.0));
        assert_eq!(est.span(), 10);
    }

    #[test]
    fn windowed_loss_partial_history() {
        let mut est = WindowedLossRateEstimator::new(100);
        est.observe(1);
        est.observe(3);
        // Highest = 3 < span: window is 3; 2 received ⇒ 1/3 lost.
        assert!((est.estimate().unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn windowed_loss_accepts_out_of_order() {
        let mut est = WindowedLossRateEstimator::new(10);
        est.observe(5);
        est.observe(3); // late but within window
        assert!((est.estimate().unwrap() - (1.0 - 2.0 / 5.0)).abs() < 1e-12);
        // A very old arrival outside the window is ignored.
        let mut est2 = WindowedLossRateEstimator::new(2);
        est2.observe(10);
        est2.observe(1);
        assert!((est2.estimate().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "span must be positive")]
    fn windowed_loss_rejects_zero_span() {
        WindowedLossRateEstimator::new(0);
    }

    /// The estimator as first written: a `Vec` swept with `retain` on
    /// every new highest sequence number — O(span) per heartbeat. Kept
    /// as the reference the sliding formulation must agree with.
    struct RetainReference {
        span: u64,
        highest: u64,
        received: Vec<u64>,
    }

    impl RetainReference {
        fn observe(&mut self, seq: u64) {
            if seq > self.highest {
                self.highest = seq;
                let cutoff = self.highest.saturating_sub(self.span);
                self.received.retain(|&s| s > cutoff);
            }
            let cutoff = self.highest.saturating_sub(self.span);
            if seq > cutoff {
                self.received.push(seq);
            }
        }

        fn estimate(&self) -> Option<f64> {
            if self.highest == 0 {
                return None;
            }
            let window = self.span.min(self.highest);
            Some((1.0 - self.received.len() as f64 / window as f64).max(0.0))
        }
    }

    #[test]
    fn windowed_loss_clear_forgets_everything_but_the_span() {
        let mut est = WindowedLossRateEstimator::new(4);
        for seq in [10u64, 12, 13] {
            est.observe(seq);
        }
        est.clear();
        assert_eq!((est.estimate(), est.span()), (None, 4));
        // Sequence numbers restart low, as in a new life of the sender.
        est.observe(1);
        est.observe(3);
        assert!((est.estimate().unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// What the control plane feeds: increasing sequence numbers
            /// with gaps. The estimate after every one equals the
            /// reference's.
            #[test]
            fn sliding_window_matches_retain_on_increasing_sequences(
                span in 1u64..80,
                gaps in proptest::collection::vec(1u64..12, 1..300),
            ) {
                let mut est = WindowedLossRateEstimator::new(span);
                let mut reference = RetainReference { span, highest: 0, received: Vec::new() };
                let mut seq = 0;
                for gap in gaps {
                    seq += gap;
                    est.observe(seq);
                    reference.observe(seq);
                    prop_assert_eq!(est.estimate(), reference.estimate(), "at seq {}", seq);
                }
            }

            /// And in general — late, duplicated and ancient arrivals
            /// mixed in — it still does.
            #[test]
            fn sliding_window_matches_retain_on_any_sequence(
                span in 1u64..40,
                seqs in proptest::collection::vec(0u64..120, 1..300),
            ) {
                let mut est = WindowedLossRateEstimator::new(span);
                let mut reference = RetainReference { span, highest: 0, received: Vec::new() };
                for seq in seqs {
                    est.observe(seq);
                    reference.observe(seq);
                    prop_assert_eq!(est.estimate(), reference.estimate(), "at seq {}", seq);
                }
            }
        }
    }
}
