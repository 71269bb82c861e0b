//! Estimation of the six accuracy metrics from a failure-free trace (§2.2,
//! §2.3).
//!
//! All accuracy metrics are defined with respect to failure-free runs —
//! runs in which `p` does not crash. Callers therefore feed this module
//! traces from runs without crash injection (and, per §2.1, should
//! [`restrict`](crate::TransitionTrace::restrict) away any warm-up before
//! the detector's steady state).

use crate::{FdOutput, Segment, Transition, TransitionTrace};
use fd_stats::Summary;
use rand::Rng;

/// Accuracy metrics extracted from one failure-free trace.
///
/// Interval metrics (`T_MR`, `T_M`, `T_G`) are collected from *complete*
/// intervals only: an interval is complete when both of its delimiting
/// transitions fall inside the observation window. Time-average metrics
/// (`P_A`, `λ_M`) use the whole window.
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
#[derive(Debug, Clone)]
pub struct AccuracyAnalysis {
    window: f64,
    trust_time: f64,
    s_transition_count: usize,
    mistake_recurrences: Vec<f64>,
    mistake_durations: Vec<f64>,
    good_periods: Vec<f64>,
    /// Good segments (complete or not) for forward-good-period sampling.
    trust_segments: Vec<(f64, f64)>,
}

impl AccuracyAnalysis {
    /// Analyzes a failure-free trace.
    ///
    /// One pass over the transitions builds every sample, the trust
    /// segments and the trust time; a counting pass before it sizes each
    /// kept vector exactly, so nothing else is allocated.
    pub fn of_trace(trace: &TransitionTrace) -> Self {
        // Counting pass. Each kept vector is reserved at its final length:
        // four grown by doubling side by side fragment the heap and leave
        // up to half of each unused.
        let transitions = trace.transitions();
        let s_count = transitions.iter().filter(|tr| tr.to.is_suspect()).count();
        // Only the last transition can open an interval the window cuts off.
        let open_last = transitions
            .last()
            .filter(|_| interval_end(transitions, transitions.len() - 1).is_none())
            .map(|tr| tr.to);
        let complete = |count: usize, to: FdOutput| count - usize::from(open_last == Some(to));
        let mut mistake_recurrences = Vec::with_capacity(s_count.saturating_sub(1));
        let mut mistake_durations = Vec::with_capacity(complete(s_count, FdOutput::Suspect));
        let mut good_periods =
            Vec::with_capacity(complete(transitions.len() - s_count, FdOutput::Trust));
        let mut trust_segments =
            Vec::with_capacity(trace.segment_iter().filter(|s| s.output.is_trust()).count());

        // `Iterator::sum` starts from −0.0, and so does this sum: a trace
        // that never trusts reads the bits `trust_time()` gives.
        let mut trust_time = -0.0;
        let mut keep_trusted = |seg: Option<Segment>| {
            if let Some(seg) = seg.filter(|s| s.output.is_trust()) {
                trust_time += seg.duration();
                trust_segments.push((seg.start, seg.end));
            }
        };
        let mut walker = trace.walker();
        let mut last_s = None;
        for (i, tr) in transitions.iter().enumerate() {
            let interval = interval_end(transitions, i).map(|end| end - tr.at);
            if tr.to.is_suspect() {
                // T_MR: S-transition to the next S-transition; T_M: to the
                // T-transition that ends the mistake.
                mistake_recurrences.extend(last_s.map(|s| tr.at - s));
                last_s = Some(tr.at);
                mistake_durations.extend(interval);
            } else {
                // T_G: T-transition to the S-transition that ends it.
                good_periods.extend(interval);
            }
            keep_trusted(walker.cross(tr));
        }
        keep_trusted(walker.close(trace.end()));

        Self {
            window: trace.duration(),
            trust_time,
            s_transition_count: s_count,
            mistake_recurrences,
            mistake_durations,
            good_periods,
            trust_segments,
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

    /// Complete mistake recurrence intervals `T_MR` observed.
    pub fn mistake_recurrence_samples(&self) -> &[f64] {
        &self.mistake_recurrences
    }

    /// Complete mistake durations `T_M` observed.
    pub fn mistake_duration_samples(&self) -> &[f64] {
        &self.mistake_durations
    }

    /// Complete good-period durations `T_G` observed.
    pub fn good_period_samples(&self) -> &[f64] {
        &self.good_periods
    }

    /// Summary of `T_MR` samples, if any interval completed.
    pub fn mistake_recurrence_summary(&self) -> Option<Summary> {
        Summary::from_samples(&self.mistake_recurrences).ok()
    }

    /// Summary of `T_M` samples, if any mistake was corrected in-window.
    pub fn mistake_duration_summary(&self) -> Option<Summary> {
        Summary::from_samples(&self.mistake_durations).ok()
    }

    /// Summary of `T_G` samples, if any good period completed.
    pub fn good_period_summary(&self) -> Option<Summary> {
        Summary::from_samples(&self.good_periods).ok()
    }

    /// Mean mistake recurrence time, if observed.
    pub fn mean_mistake_recurrence(&self) -> Option<f64> {
        mean(&self.mistake_recurrences)
    }

    /// Mean mistake duration, if observed.
    pub fn mean_mistake_duration(&self) -> Option<f64> {
        mean(&self.mistake_durations)
    }

    /// Mean good period duration, if observed.
    pub fn mean_good_period(&self) -> Option<f64> {
        mean(&self.good_periods)
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
        let total: f64 = self.trust_segments.iter().map(|(a, b)| b - a).sum();
        if total == 0.0 {
            return None;
        }
        let weighted: f64 = self
            .trust_segments
            .iter()
            .map(|(a, b)| (b - a) * (b - a) / 2.0)
            .sum();
        Some(weighted / total)
    }

    /// Draws `n` samples of the forward good period by picking uniformly
    /// random trusted instants.
    ///
    /// Returns an empty vector if the detector never trusted.
    pub fn sample_forward_good_periods<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<f64> {
        let total: f64 = self.trust_segments.iter().map(|(a, b)| b - a).sum();
        if total == 0.0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut u = rng.random::<f64>() * total;
            for &(a, b) in &self.trust_segments {
                let len = b - a;
                if u < len {
                    out.push(len - u); // distance from (a + u) to segment end b
                    break;
                }
                u -= len;
            }
        }
        out
    }
}

/// When the interval transition `i` opens ends: at the first transition
/// of the other kind at or after it. Transitions alternate, so that is the
/// previous one if the two share an instant (a zero-length interval) and
/// the next one otherwise; `None` if the window cuts the interval off.
fn interval_end(transitions: &[Transition], i: usize) -> Option<f64> {
    let at = transitions[i].at;
    match i.checked_sub(1).map(|p| transitions[p].at) {
        Some(prev) if prev == at => Some(prev),
        _ => transitions.get(i + 1).map(|next| next.at),
    }
}

fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRecorder;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// `of_trace` as it was before the single pass: S/T time lists paired
    /// by binary search, segments walked twice. The reference the pass
    /// must equal bit for bit.
    fn of_trace_reference(trace: &TransitionTrace) -> AccuracyAnalysis {
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
        let trusted: Vec<Segment> = trace
            .segments_reference()
            .into_iter()
            .filter(|s| s.output == FdOutput::Trust)
            .collect();
        AccuracyAnalysis {
            window: trace.duration(),
            trust_time: trusted.iter().map(Segment::duration).sum(),
            s_transition_count: s_times.len(),
            mistake_recurrences,
            mistake_durations,
            good_periods,
            trust_segments: trusted.iter().map(|s| (s.start, s.end)).collect(),
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn pair_bits(xs: &[(f64, f64)]) -> Vec<(u64, u64)> {
        xs.iter().map(|(a, b)| (a.to_bits(), b.to_bits())).collect()
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
        let acc = AccuracyAnalysis::of_trace(&periodic(12.0, 4.0, 4));
        // 4 S-transitions ⇒ 3 complete recurrence intervals of 16.
        assert_eq!(acc.mistake_recurrence_samples().len(), 3);
        assert!(acc.mistake_recurrence_samples().iter().all(|&x| (x - 16.0).abs() < 1e-12));
        // Every mistake corrected in-window: 4 durations of 4.
        assert_eq!(acc.mistake_duration_samples().len(), 4);
        assert!(acc.mistake_duration_samples().iter().all(|&x| (x - 4.0).abs() < 1e-12));
        // Good periods: T-transitions at 16, 32, 48; next S at 28, 44, 60.
        assert_eq!(acc.good_period_samples().len(), 3);
        assert!(acc.good_period_samples().iter().all(|&x| (x - 12.0).abs() < 1e-12));
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
        let acc = AccuracyAnalysis::of_trace(&rec.finish(100.0));
        assert_eq!(acc.query_accuracy_probability(), 1.0);
        assert_eq!(acc.mistake_rate(), 0.0);
        assert_eq!(acc.mistake_count(), 0);
        assert!(acc.mean_mistake_recurrence().is_none());
        assert!(acc.mistake_recurrence_summary().is_none());
        // Forward good period of the single [0,100] segment: 50.
        assert_eq!(acc.expected_forward_good_period(), Some(50.0));
    }

    #[test]
    fn never_trusts() {
        let rec = TraceRecorder::new(0.0, FdOutput::Suspect);
        let acc = AccuracyAnalysis::of_trace(&rec.finish(100.0));
        assert_eq!(acc.query_accuracy_probability(), 0.0);
        assert!(acc.expected_forward_good_period().is_none());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(acc.sample_forward_good_periods(10, &mut rng).is_empty());
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
        let acc = AccuracyAnalysis::of_trace(&periodic(12.0, 4.0, 10));
        let mut rng = StdRng::seed_from_u64(99);
        let samples = acc.sample_forward_good_periods(100_000, &mut rng);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let exact = acc.expected_forward_good_period().unwrap();
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
        let acc = AccuracyAnalysis::of_trace(&rec.finish(20.0));
        assert_eq!(acc.mistake_duration_samples(), &[1.0]);
        assert_eq!(acc.mistake_recurrence_samples(), &[4.0]);
        assert_eq!(acc.good_period_samples(), &[3.0]);
        assert_eq!(acc.mistake_count(), 2);
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
        let acc = AccuracyAnalysis::of_trace(&rec.finish(6.0));
        assert_eq!(acc.mistake_duration_samples(), &[2.0, 0.0]);
        assert_eq!(acc.good_period_samples(), &[0.0]);
        assert_eq!(acc.mistake_recurrence_samples(), &[2.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// On traces whose transitions share instants (zero-length
        /// intervals and windows included) the single pass equals the
        /// reference field by field, bit for bit, `trust_time()` equals
        /// the old segment sum, and every vector is sized exactly.
        #[test]
        fn prop_of_trace_matches_reference_bit_for_bit(
            trusting in 0u8..2,
            steps in proptest::collection::vec(0u8..8, 0..40),
            tail in 0u8..3,
        ) {
            let initial = if trusting == 1 { FdOutput::Trust } else { FdOutput::Suspect };
            let trace = TransitionTrace::with_shared_instants(initial, &steps, tail);
            let got = AccuracyAnalysis::of_trace(&trace);
            let want = of_trace_reference(&trace);
            prop_assert_eq!(trace.trust_time().to_bits(), want.trust_time.to_bits());
            prop_assert_eq!(got.window.to_bits(), want.window.to_bits());
            prop_assert_eq!(got.trust_time.to_bits(), want.trust_time.to_bits());
            prop_assert_eq!(got.s_transition_count, want.s_transition_count);
            prop_assert_eq!(bits(&got.mistake_recurrences), bits(&want.mistake_recurrences));
            prop_assert_eq!(bits(&got.mistake_durations), bits(&want.mistake_durations));
            prop_assert_eq!(bits(&got.good_periods), bits(&want.good_periods));
            prop_assert_eq!(pair_bits(&got.trust_segments), pair_bits(&want.trust_segments));
            for (len, cap) in [
                (got.mistake_recurrences.len(), got.mistake_recurrences.capacity()),
                (got.mistake_durations.len(), got.mistake_durations.capacity()),
                (got.good_periods.len(), got.good_periods.capacity()),
                (got.trust_segments.len(), got.trust_segments.capacity()),
            ] {
                prop_assert_eq!(len, cap);
            }
        }
    }
}
