//! Estimation of the six accuracy metrics from a failure-free trace (§2.2,
//! §2.3).
//!
//! All accuracy metrics are defined with respect to failure-free runs —
//! runs in which `p` does not crash. Callers therefore feed this module
//! traces from runs without crash injection (and, per §2.1, should
//! [`restrict`](crate::TransitionTrace::restrict) away any warm-up before
//! the detector's steady state).

use crate::TransitionTrace;

/// Accuracy metrics extracted from one failure-free trace.
///
/// Interval metrics (`T_MR`, `T_M`, `T_G`) are collected from *complete*
/// intervals only: an interval is complete when both of its delimiting
/// transitions fall inside the observation window. Time-average metrics
/// (`P_A`, `λ_M`) use the whole window.
///
/// The analysis is a fold: counts and sums, no samples, so it is `Copy`
/// and allocates nothing. The samples themselves — for a distribution, a
/// [`Summary`](fd_stats::Summary) or Theorem 1.3a — are iterators on the
/// trace: [`TransitionTrace::mistake_recurrences`],
/// [`TransitionTrace::mistake_durations`],
/// [`TransitionTrace::good_periods`] and
/// [`TransitionTrace::trust_segments`].
///
/// ```
/// use fd_metrics::{AccuracyAnalysis, FdOutput, TraceRecorder};
///
/// // Fig. 3 FD₂: period 16 with 8 trust, 8 suspect.
/// let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
/// for k in 0..4 {
///     rec.record(16.0 * k as f64 + 8.0, FdOutput::Suspect);
///     rec.record(16.0 * (k + 1) as f64, FdOutput::Trust);
/// }
/// let acc = AccuracyAnalysis::of_trace(&rec.finish(64.0));
/// assert!((acc.query_accuracy_probability() - 0.5).abs() < 1e-12);
/// assert!((acc.mistake_rate() - 1.0 / 16.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyAnalysis {
    window: f64,
    /// `Σ L` over the trust segments' lengths `L`.
    trust_time: f64,
    /// `Σ L²/2` over the trust segments' lengths `L`.
    trust_half_squares: f64,
    s_transition_count: usize,
    mistake_recurrences: RunningSum,
    mistake_durations: RunningSum,
    good_periods: RunningSum,
}

/// Count and sum of one interval metric's complete samples. The sum
/// starts at −0.0 and adds in trace order, as `Iterator::sum` does, so
/// [`mean`](Self::mean) has the bits of `samples.iter().sum() / n`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RunningSum {
    count: usize,
    sum: f64,
}

impl RunningSum {
    fn of(samples: impl Iterator<Item = f64>) -> Self {
        samples.fold(Self { count: 0, sum: -0.0 }, |acc, x| Self {
            count: acc.count + 1,
            sum: acc.sum + x,
        })
    }

    fn mean(self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

impl AccuracyAnalysis {
    /// Analyzes a failure-free trace.
    ///
    /// Folds the trace's trust segments and its `T_MR` / `T_M` / `T_G`
    /// samples, each in trace order, into counts and sums; nothing is
    /// allocated.
    pub fn of_trace(trace: &TransitionTrace) -> Self {
        // From −0.0, as `Iterator::sum`: a trace that never trusts reads
        // the bits `trust_time()` gives.
        let (mut trust_time, mut trust_half_squares) = (-0.0, -0.0);
        for seg in trace.trust_segments() {
            let len = seg.duration();
            trust_time += len;
            trust_half_squares += len * len / 2.0;
        }
        Self {
            window: trace.duration(),
            trust_time,
            trust_half_squares,
            s_transition_count: trace.s_transition_times().count(),
            mistake_recurrences: RunningSum::of(trace.mistake_recurrences()),
            mistake_durations: RunningSum::of(trace.mistake_durations()),
            good_periods: RunningSum::of(trace.good_periods()),
        }
    }

    /// Length of the observation window (seconds).
    pub fn window(&self) -> f64 {
        self.window
    }

    /// Number of S-transitions (mistakes) observed.
    pub fn mistake_count(&self) -> usize {
        self.s_transition_count
    }

    /// Query accuracy probability `P_A`: the fraction of time the output
    /// was `Trust` (the probability that a query at a uniformly random
    /// time is answered correctly).
    pub fn query_accuracy_probability(&self) -> f64 {
        if self.window == 0.0 {
            return 1.0;
        }
        self.trust_time / self.window
    }

    /// Average mistake rate `λ_M`: S-transitions per second.
    pub fn mistake_rate(&self) -> f64 {
        if self.window == 0.0 {
            return 0.0;
        }
        self.s_transition_count as f64 / self.window
    }

    /// Mean mistake recurrence time, if observed.
    pub fn mean_mistake_recurrence(&self) -> Option<f64> {
        self.mistake_recurrences.mean()
    }

    /// Mean mistake duration, if observed.
    pub fn mean_mistake_duration(&self) -> Option<f64> {
        self.mistake_durations.mean()
    }

    /// Mean good period duration, if observed.
    pub fn mean_good_period(&self) -> Option<f64> {
        self.good_periods.mean()
    }

    /// Exact time-average of the forward good period `E(T_FG)` over this
    /// trace: the expectation, over a uniformly random time `t` at which
    /// the output is `Trust`, of the distance from `t` to the end of its
    /// trust segment.
    ///
    /// For a segment of length `L` the average forward distance is `L/2`,
    /// and segments are hit with probability proportional to `L`, so the
    /// estimate is `Σ L_i²/2 / Σ L_i` — the renewal-theoretic
    /// "inspection paradox" formula that Theorem 1.3c captures.
    ///
    /// Returns `None` if the detector never trusted.
    pub fn expected_forward_good_period(&self) -> Option<f64> {
        (self.trust_time != 0.0).then(|| self.trust_half_squares / self.trust_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FdOutput, Segment, TraceRecorder};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// The analysis as it was before it became a fold: every sample kept,
    /// S/T time lists paired by binary search, segments walked by the
    /// pre-walker reference. The fold and the trace's sample iterators
    /// must equal it bit for bit.
    struct Reference {
        window: f64,
        trust_time: f64,
        s_transition_count: usize,
        mistake_recurrences: Vec<f64>,
        mistake_durations: Vec<f64>,
        good_periods: Vec<f64>,
        trust_segments: Vec<Segment>,
    }

    impl Reference {
        fn of_trace(trace: &TransitionTrace) -> Self {
            let s_times: Vec<f64> = trace.s_transition_times().collect();
            let t_times: Vec<f64> = trace.t_transition_times().collect();
            let mistake_recurrences = s_times.windows(2).map(|w| w[1] - w[0]).collect();
            let mut mistake_durations = Vec::new();
            for &s in &s_times {
                let idx = t_times.partition_point(|&t| t < s);
                if let Some(&t) = t_times.get(idx) {
                    mistake_durations.push(t - s);
                }
            }
            let mut good_periods = Vec::new();
            for &t in &t_times {
                let idx = s_times.partition_point(|&s| s < t);
                if let Some(&s) = s_times.get(idx) {
                    good_periods.push(s - t);
                }
            }
            let trust_segments: Vec<Segment> = trace
                .segments_reference()
                .into_iter()
                .filter(|s| s.output == FdOutput::Trust)
                .collect();
            Reference {
                window: trace.duration(),
                trust_time: trust_segments.iter().map(Segment::duration).sum(),
                s_transition_count: s_times.len(),
                mistake_recurrences,
                mistake_durations,
                good_periods,
                trust_segments,
            }
        }

        fn query_accuracy_probability(&self) -> f64 {
            if self.window == 0.0 {
                1.0
            } else {
                self.trust_time / self.window
            }
        }

        fn mistake_rate(&self) -> f64 {
            if self.window == 0.0 {
                0.0
            } else {
                self.s_transition_count as f64 / self.window
            }
        }

        fn expected_forward_good_period(&self) -> Option<f64> {
            let total: f64 = self.trust_segments.iter().map(|s| s.end - s.start).sum();
            if total == 0.0 {
                return None;
            }
            let weighted: f64 = self
                .trust_segments
                .iter()
                .map(|s| (s.end - s.start) * (s.end - s.start) / 2.0)
                .sum();
            Some(weighted / total)
        }
    }

    fn mean(xs: &[f64]) -> Option<f64> {
        (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
    }

    fn bits(xs: impl IntoIterator<Item = f64>) -> Vec<u64> {
        xs.into_iter().map(f64::to_bits).collect()
    }

    fn opt_bits(x: Option<f64>) -> Option<u64> {
        x.map(f64::to_bits)
    }

    /// Periodic trace: trust for `good`, suspect for `bad`, `cycles` times.
    fn periodic(good: f64, bad: f64, cycles: usize) -> TransitionTrace {
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        for k in 0..cycles {
            let base = (good + bad) * k as f64;
            rec.record(base + good, FdOutput::Suspect);
            rec.record(base + good + bad, FdOutput::Trust);
        }
        rec.finish((good + bad) * cycles as f64)
    }

    #[test]
    fn fig2_fd1_query_accuracy() {
        // Fig. 2 FD₁: 12 trust / 4 suspect ⇒ P_A = 0.75.
        let acc = AccuracyAnalysis::of_trace(&periodic(12.0, 4.0, 4));
        assert!((acc.query_accuracy_probability() - 0.75).abs() < 1e-12);
        assert!((acc.mistake_rate() - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn fig2_fd2_same_pa_higher_rate() {
        // Fig. 2 FD₂: 3 trust / 1 suspect ⇒ same P_A, 4× mistake rate.
        let fd1 = AccuracyAnalysis::of_trace(&periodic(12.0, 4.0, 4));
        let fd2 = AccuracyAnalysis::of_trace(&periodic(3.0, 1.0, 16));
        assert!((fd1.query_accuracy_probability() - fd2.query_accuracy_probability()).abs() < 1e-12);
        assert!((fd2.mistake_rate() / fd1.mistake_rate() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fig3_same_rate_different_pa() {
        // Fig. 3: both rate 1/16; P_A 0.75 vs 0.50.
        let fd1 = AccuracyAnalysis::of_trace(&periodic(12.0, 4.0, 4));
        let fd2 = AccuracyAnalysis::of_trace(&periodic(8.0, 8.0, 4));
        assert!((fd1.mistake_rate() - fd2.mistake_rate()).abs() < 1e-12);
        assert!((fd1.query_accuracy_probability() - 0.75).abs() < 1e-12);
        assert!((fd2.query_accuracy_probability() - 0.50).abs() < 1e-12);
    }

    #[test]
    fn interval_metrics_on_periodic_trace() {
        let trace = periodic(12.0, 4.0, 4);
        let acc = AccuracyAnalysis::of_trace(&trace);
        // 4 S-transitions ⇒ 3 complete recurrence intervals of 16.
        assert_eq!(trace.mistake_recurrences().collect::<Vec<_>>(), vec![16.0; 3]);
        // Every mistake corrected in-window: 4 durations of 4.
        assert_eq!(trace.mistake_durations().collect::<Vec<_>>(), vec![4.0; 4]);
        // Good periods: T-transitions at 16, 32, 48; next S at 28, 44, 60.
        assert_eq!(trace.good_periods().collect::<Vec<_>>(), vec![12.0; 3]);
        assert_eq!(acc.mean_mistake_recurrence(), Some(16.0));
        assert_eq!(acc.mean_mistake_duration(), Some(4.0));
        assert_eq!(acc.mean_good_period(), Some(12.0));
    }

    #[test]
    fn tg_equals_tmr_minus_tm_on_periodic_trace() {
        // Theorem 1.1 at the sample level for strictly periodic traces.
        let acc = AccuracyAnalysis::of_trace(&periodic(7.0, 3.0, 5));
        let tmr = acc.mean_mistake_recurrence().unwrap();
        let tm = acc.mean_mistake_duration().unwrap();
        let tg = acc.mean_good_period().unwrap();
        assert!((tg - (tmr - tm)).abs() < 1e-12);
    }

    #[test]
    fn never_suspects() {
        let rec = TraceRecorder::new(0.0, FdOutput::Trust);
        let trace = rec.finish(100.0);
        let acc = AccuracyAnalysis::of_trace(&trace);
        assert_eq!(acc.query_accuracy_probability(), 1.0);
        assert_eq!(acc.mistake_rate(), 0.0);
        assert_eq!(acc.mistake_count(), 0);
        assert!(acc.mean_mistake_recurrence().is_none());
        assert_eq!(trace.mistake_recurrences().next(), None);
        // Forward good period of the single [0,100] segment: 50.
        assert_eq!(acc.expected_forward_good_period(), Some(50.0));
    }

    #[test]
    fn never_trusts() {
        let rec = TraceRecorder::new(0.0, FdOutput::Suspect);
        let trace = rec.finish(100.0);
        let acc = AccuracyAnalysis::of_trace(&trace);
        assert_eq!(acc.query_accuracy_probability(), 0.0);
        assert!(acc.expected_forward_good_period().is_none());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(trace.sample_forward_good_periods(10, &mut rng).is_empty());
    }

    #[test]
    fn forward_good_period_inspection_paradox() {
        // Two good segments, lengths 2 and 8 (S in between, immediately
        // corrected at the segment boundary for simplicity).
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        rec.record(2.0, FdOutput::Suspect);
        rec.record(2.0, FdOutput::Trust);
        let trace = rec.finish(10.0);
        let acc = AccuracyAnalysis::of_trace(&trace);
        // E(T_FG) = (2²/2 + 8²/2) / 10 = (2 + 32) / 10 = 3.4 — larger than
        // E(T_G)/2 = 2.5 (paradox: random instants land in the long
        // segment more often).
        let efg = acc.expected_forward_good_period().unwrap();
        assert!((efg - 3.4).abs() < 1e-12);
    }

    #[test]
    fn sampled_forward_good_matches_exact() {
        let trace = periodic(12.0, 4.0, 10);
        let mut rng = StdRng::seed_from_u64(99);
        let samples = trace.sample_forward_good_periods(100_000, &mut rng);
        assert_eq!(samples.len(), 100_000);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let exact = AccuracyAnalysis::of_trace(&trace).expected_forward_good_period().unwrap();
        assert!((mean - exact).abs() < 0.05, "sampled {mean} vs exact {exact}");
        assert!(samples.iter().all(|&x| (0.0..=12.0).contains(&x)));
    }

    #[test]
    fn incomplete_intervals_are_excluded() {
        // Window ends mid-mistake: last T_M incomplete, excluded.
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        rec.record(5.0, FdOutput::Suspect);
        rec.record(6.0, FdOutput::Trust);
        rec.record(9.0, FdOutput::Suspect);
        let trace = rec.finish(20.0);
        assert_eq!(trace.mistake_durations().collect::<Vec<_>>(), [1.0]);
        assert_eq!(trace.mistake_recurrences().collect::<Vec<_>>(), [4.0]);
        assert_eq!(trace.good_periods().collect::<Vec<_>>(), [3.0]);
        let acc = AccuracyAnalysis::of_trace(&trace);
        assert_eq!(acc.mistake_count(), 2);
        assert_eq!(acc.mean_mistake_duration(), Some(1.0));
    }

    #[test]
    fn zero_length_window_defaults() {
        let rec = TraceRecorder::new(0.0, FdOutput::Trust);
        let acc = AccuracyAnalysis::of_trace(&rec.finish(0.0));
        assert_eq!(acc.query_accuracy_probability(), 1.0);
        assert_eq!(acc.mistake_rate(), 0.0);
    }

    #[test]
    fn interval_closed_by_a_transition_at_the_same_instant_is_zero() {
        // S@1, T@3, S@3, T@5: the second mistake starts at 3, where a
        // T-transition already is — a zero-length T_M, not 5 − 3.
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        rec.record(1.0, FdOutput::Suspect);
        rec.record(3.0, FdOutput::Trust);
        rec.record(3.0, FdOutput::Suspect);
        rec.record(5.0, FdOutput::Trust);
        let trace = rec.finish(6.0);
        assert_eq!(trace.mistake_durations().collect::<Vec<_>>(), [2.0, 0.0]);
        assert_eq!(trace.good_periods().collect::<Vec<_>>(), [0.0]);
        assert_eq!(trace.mistake_recurrences().collect::<Vec<_>>(), [2.0]);
        assert_eq!(AccuracyAnalysis::of_trace(&trace).mean_mistake_duration(), Some(1.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// On traces whose transitions share instants (zero-length
        /// intervals and windows included) every accessor of the fold
        /// equals the sample-vector reference bit for bit, and so does
        /// every sample iterator of the trace.
        #[test]
        fn prop_fold_and_iterators_match_reference_bit_for_bit(
            trusting in 0u8..2,
            steps in proptest::collection::vec(0u8..8, 0..40),
            tail in 0u8..3,
        ) {
            let initial = if trusting == 1 { FdOutput::Trust } else { FdOutput::Suspect };
            let trace = TransitionTrace::with_shared_instants(initial, &steps, tail);
            let got = AccuracyAnalysis::of_trace(&trace);
            let want = Reference::of_trace(&trace);
            prop_assert_eq!(got.window().to_bits(), want.window.to_bits());
            prop_assert_eq!(got.mistake_count(), want.s_transition_count);
            prop_assert_eq!(
                got.query_accuracy_probability().to_bits(),
                want.query_accuracy_probability().to_bits()
            );
            prop_assert_eq!(got.mistake_rate().to_bits(), want.mistake_rate().to_bits());
            prop_assert_eq!(
                opt_bits(got.mean_mistake_recurrence()),
                opt_bits(mean(&want.mistake_recurrences))
            );
            prop_assert_eq!(
                opt_bits(got.mean_mistake_duration()),
                opt_bits(mean(&want.mistake_durations))
            );
            prop_assert_eq!(opt_bits(got.mean_good_period()), opt_bits(mean(&want.good_periods)));
            prop_assert_eq!(
                opt_bits(got.expected_forward_good_period()),
                opt_bits(want.expected_forward_good_period())
            );
            prop_assert_eq!(trace.trust_time().to_bits(), want.trust_time.to_bits());

            prop_assert_eq!(bits(trace.mistake_recurrences()), bits(want.mistake_recurrences));
            prop_assert_eq!(bits(trace.mistake_durations()), bits(want.mistake_durations));
            prop_assert_eq!(bits(trace.good_periods()), bits(want.good_periods));
            prop_assert_eq!(trace.trust_segments().collect::<Vec<_>>(), want.trust_segments);
        }
    }
}
