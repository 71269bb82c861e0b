//! Recorded failure-detector output histories.
//!
//! A [`TransitionTrace`] is the complete output history of a failure
//! detector over an observation window `[start, end]`: the initial output
//! plus the ordered list of transitions. All QoS metrics of §2 are
//! functions of such histories.
//!
//! Transitions alternate by construction, so a trace stores only their
//! instants (8 bytes a transition): the `k`-th transition (from 0) changes
//! the output to the initial output toggled `k + 1` times.
//!
//! Time is `f64` seconds of continuous real time (the paper's model,
//! §2: "real time is continuous and ranges from 0 to ∞").
//!
//! The output is **right-continuous** (Appendix C): at the exact instant
//! of a transition the *new* output already holds. `output_at` implements
//! this convention.

use crate::FdOutput;
use rand::Rng;
use std::iter::{Enumerate, FusedIterator};
use std::slice;

/// One output change at an instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// When the change occurred (seconds).
    pub at: f64,
    /// The new output from `at` onward.
    pub to: FdOutput,
}

/// A maximal constant-output interval of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Segment start (inclusive).
    pub start: f64,
    /// Segment end (exclusive, except for the final segment which closes
    /// the observation window).
    pub end: f64,
    /// The detector's output throughout `[start, end)`.
    pub output: FdOutput,
}

impl Segment {
    /// Length of the segment in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Incrementally records a detector's output, keeping only actual
/// transitions.
///
/// Feeding the recorder the *current* output at arbitrary instants is
/// allowed — repeated identical outputs are collapsed, so callers may poll.
///
/// # Example
///
/// ```
/// use fd_metrics::{FdOutput, TraceRecorder};
///
/// let mut rec = TraceRecorder::new(0.0, FdOutput::Suspect);
/// rec.record(1.0, FdOutput::Trust);   // T-transition at t=1
/// rec.record(2.0, FdOutput::Trust);   // no-op
/// rec.record(5.0, FdOutput::Suspect); // S-transition at t=5
/// let trace = rec.finish(10.0);
/// assert_eq!(trace.transitions().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    start: f64,
    current: FdOutput,
    latest: f64,
    /// Transition instants; each toggles the output.
    instants: Vec<f64>,
}

impl TraceRecorder {
    /// Starts recording at `start` with the given initial output.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not finite.
    pub fn new(start: f64, initial: FdOutput) -> Self {
        assert!(start.is_finite(), "start time must be finite");
        Self {
            start,
            current: initial,
            latest: start,
            instants: Vec::new(),
        }
    }

    /// The output as of the latest record.
    #[cfg(test)]
    fn current_output(&self) -> FdOutput {
        self.current
    }

    /// Latest timestamp seen.
    pub fn latest_time(&self) -> f64 {
        self.latest
    }

    /// Records that the output is `output` at time `at`.
    ///
    /// A change is stored as a transition; a repeat is ignored.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or backwards timestamps — these indicate a bug
    /// in the driving harness, not recoverable conditions.
    pub fn record(&mut self, at: f64, output: FdOutput) {
        assert!(at.is_finite(), "non-finite timestamp {at}");
        assert!(at >= self.latest, "record at t={at} precedes already-recorded t={}", self.latest);
        self.latest = at;
        if output != self.current {
            self.current = output;
            self.instants.push(at);
        }
    }

    /// Closes the observation window at `end` and returns the trace.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the last recorded transition or is not
    /// finite.
    pub fn finish(self, end: f64) -> TransitionTrace {
        assert!(end.is_finite(), "non-finite timestamp {end}");
        assert!(end >= self.latest, "end time {end} precedes last transition at {}", self.latest);
        TransitionTrace {
            start: self.start,
            end,
            // Every transition toggled the output once.
            initial: toggled_times(self.current, self.instants.len()),
            instants: self.instants,
        }
    }
}

/// `output` toggled `n` times.
fn toggled_times(output: FdOutput, n: usize) -> FdOutput {
    if n % 2 == 1 {
        output.toggled()
    } else {
        output
    }
}

/// A complete output history over `[start, end]`: the initial output and
/// the instant of each transition.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionTrace {
    start: f64,
    end: f64,
    initial: FdOutput,
    /// Transition instants, in time order; each toggles the output.
    instants: Vec<f64>,
}

impl TransitionTrace {
    /// Observation window start.
    pub fn start(&self) -> f64 {
        self.start
    }

    /// Observation window end.
    pub fn end(&self) -> f64 {
        self.end
    }

    /// Window length in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Output at the window start.
    pub fn initial_output(&self) -> FdOutput {
        self.initial
    }

    /// All transitions, in time order. `len()`, `last()` and `nth()` are
    /// O(1).
    pub fn transitions(&self) -> Transitions<'_> {
        Transitions {
            instants: self.instants.iter().enumerate(),
            initial: self.initial,
        }
    }

    /// Output at time `t` (right-continuous: at a transition instant the
    /// new output holds, per the Appendix C convention).
    ///
    /// # Panics
    ///
    /// Panics if `t` lies outside `[start, end]`.
    pub fn output_at(&self, t: f64) -> FdOutput {
        assert!(
            t >= self.start && t <= self.end,
            "query time {t} outside window [{}, {}]",
            self.start,
            self.end
        );
        // Transitions with `at <= t` (right continuity) each toggled it.
        toggled_times(self.initial, self.instants.partition_point(|&at| at <= t))
    }

    /// Times of S-transitions (changes to `Suspect`) within the window.
    pub fn s_transition_times(&self) -> impl Iterator<Item = f64> + Clone + '_ {
        self.instants_to(FdOutput::Suspect)
    }

    /// Times of T-transitions (changes to `Trust`) within the window.
    pub fn t_transition_times(&self) -> impl Iterator<Item = f64> + Clone + '_ {
        self.instants_to(FdOutput::Trust)
    }

    /// Instants of the transitions to `to`: every other one, from the
    /// first if the initial output is not `to` and from the second if it
    /// is.
    fn instants_to(&self, to: FdOutput) -> impl Iterator<Item = f64> + Clone + '_ {
        let first = usize::from(to == self.initial);
        self.instants.iter().skip(first).step_by(2).copied()
    }

    /// Complete mistake recurrence intervals `T_MR` (S-transition to the
    /// next S-transition), in trace order.
    pub fn mistake_recurrences(&self) -> impl Iterator<Item = f64> + '_ {
        let s = self.s_transition_times();
        s.clone().zip(s.skip(1)).map(|(a, b)| b - a)
    }

    /// Complete mistake durations `T_M` (S-transition to the T-transition
    /// that ends the mistake), in trace order.
    pub fn mistake_durations(&self) -> impl Iterator<Item = f64> + '_ {
        self.intervals_opened_by(FdOutput::Suspect)
    }

    /// Complete good periods `T_G` (T-transition to the S-transition that
    /// ends it), in trace order.
    pub fn good_periods(&self) -> impl Iterator<Item = f64> + '_ {
        self.intervals_opened_by(FdOutput::Trust)
    }

    /// Lengths of the intervals the transitions to `to` open, for those
    /// the window does not cut off.
    fn intervals_opened_by(&self, to: FdOutput) -> impl Iterator<Item = f64> + '_ {
        let instants = &self.instants[..];
        (usize::from(to == self.initial)..instants.len())
            .step_by(2)
            .filter_map(move |i| interval_end(instants, i).map(|end| end - instants[i]))
    }

    /// Maximal constant-output segments covering the window.
    pub fn segments(&self) -> Vec<Segment> {
        let mut out = Vec::with_capacity(self.instants.len() + 1);
        out.extend(self.segment_iter());
        out
    }

    /// [`segments`](Self::segments) without the vector.
    pub(crate) fn segment_iter(&self) -> impl Iterator<Item = Segment> + '_ {
        let mut walker = self.walker();
        let mut transitions = self.transitions();
        std::iter::from_fn(move || {
            transitions
                .find_map(|tr| walker.cross(tr))
                .or_else(|| walker.close(self.end))
        })
    }

    /// The segments during which the output is `Trust`, in time order.
    pub fn trust_segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.segment_iter().filter(|s| s.output.is_trust())
    }

    /// A [`SegmentWalker`] at the window start.
    fn walker(&self) -> SegmentWalker {
        SegmentWalker {
            start: self.start,
            output: self.initial,
            emitted: false,
        }
    }

    /// Total time spent trusting within the window.
    pub fn trust_time(&self) -> f64 {
        self.trust_segments().map(|s| s.duration()).sum()
    }

    /// Draws `n` samples of the forward good period `T_FG` by picking
    /// uniformly random trusted instants, one `f64` draw from `rng` each.
    ///
    /// Returns an empty vector if the detector never trusted, and exactly
    /// `n` samples otherwise.
    pub fn sample_forward_good_periods<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<f64> {
        let total = self.trust_time();
        if total == 0.0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut u = rng.random::<f64>() * total;
            // Rounding in `u` and in the subtractions can leave it at or
            // past the end of the last trusted segment; the instant is
            // then that end, with nothing of the segment ahead.
            let mut forward = 0.0;
            for seg in self.trust_segments() {
                let len = seg.duration();
                if u < len {
                    forward = len - u; // distance from `start + u` to the segment end
                    break;
                }
                u -= len;
            }
            out.push(forward);
        }
        out
    }

    /// Restricts the trace to the sub-window `[t0, t1]`.
    ///
    /// Used to discard warm-up before steady state — the paper's metrics
    /// are defined on steady-state behavior (§2.1), and NFD-S reaches it
    /// at `τ₁` (§3.2).
    ///
    /// # Panics
    ///
    /// Panics unless `start ≤ t0 ≤ t1 ≤ end`.
    pub fn restrict(&self, t0: f64, t1: f64) -> TransitionTrace {
        assert!(
            self.start <= t0 && t0 <= t1 && t1 <= self.end,
            "restriction [{t0}, {t1}] outside window [{}, {}]",
            self.start,
            self.end
        );
        // The transitions in (t0, t1]; the ones before toggled the initial
        // output into `output_at(t0)`.
        let from = self.instants.partition_point(|&at| at <= t0);
        let to = self.instants.partition_point(|&at| at <= t1);
        TransitionTrace {
            start: t0,
            end: t1,
            initial: toggled_times(self.initial, from),
            instants: self.instants[from..to].to_vec(),
        }
    }

    /// Builds a trace directly from parts; mainly for tests and examples.
    ///
    /// # Panics
    ///
    /// Panics if transitions are unordered, outside the window, or fail to
    /// alternate outputs.
    pub fn from_parts(
        start: f64,
        end: f64,
        initial: FdOutput,
        transitions: Vec<Transition>,
    ) -> Self {
        assert!(start.is_finite() && end.is_finite() && start <= end);
        let mut prev_t = start;
        let mut prev_o = initial;
        for tr in &transitions {
            assert!(tr.at >= prev_t, "transitions must be time-ordered");
            assert!(tr.at <= end, "transition past window end");
            assert!(tr.to != prev_o, "transitions must alternate outputs");
            prev_t = tr.at;
            prev_o = tr.to;
        }
        Self {
            start,
            end,
            initial,
            instants: transitions.iter().map(|tr| tr.at).collect(),
        }
    }

    /// The segment walk as it was written before [`SegmentWalker`]; the
    /// reference the walker is tested against.
    #[cfg(test)]
    pub(crate) fn segments_reference(&self) -> Vec<Segment> {
        let mut out = Vec::with_capacity(self.instants.len() + 1);
        let mut cur_start = self.start;
        let mut cur_out = self.initial;
        for tr in self.transitions() {
            if tr.at > cur_start {
                out.push(Segment {
                    start: cur_start,
                    end: tr.at,
                    output: cur_out,
                });
            }
            cur_start = tr.at;
            cur_out = tr.to;
        }
        if self.end > cur_start || out.is_empty() {
            out.push(Segment {
                start: cur_start,
                end: self.end,
                output: cur_out,
            });
        }
        out
    }

    /// A trace starting at 0 whose transitions, one per step and each
    /// toggling the output, fall at `0.1·step` in sorted order — so they
    /// share instants and leave zero-length intervals — with the window
    /// ending `0.3·tail` after the last. Input for the property tests that
    /// hold the walker to its references.
    #[cfg(test)]
    pub(crate) fn with_shared_instants(initial: FdOutput, steps: &[u8], tail: u8) -> Self {
        let mut times: Vec<f64> = steps.iter().map(|&k| f64::from(k) * 0.1).collect();
        times.sort_by(f64::total_cmp);
        let mut rec = TraceRecorder::new(0.0, initial);
        let mut out = initial;
        for &t in &times {
            out = out.toggled();
            rec.record(t, out);
        }
        rec.finish(times.last().copied().unwrap_or(0.0) + f64::from(tail) * 0.3)
    }
}

/// The transitions of a [`TransitionTrace`], yielded by value: its
/// instants, each paired with the output it switches to.
#[derive(Debug, Clone)]
pub struct Transitions<'a> {
    instants: Enumerate<slice::Iter<'a, f64>>,
    initial: FdOutput,
}

impl Transitions<'_> {
    #[inline]
    fn transition(&self, (k, &at): (usize, &f64)) -> Transition {
        Transition {
            at,
            to: toggled_times(self.initial, k + 1),
        }
    }
}

impl Iterator for Transitions<'_> {
    type Item = Transition;

    #[inline]
    fn next(&mut self) -> Option<Transition> {
        self.instants.next().map(|x| self.transition(x))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.instants.size_hint()
    }

    #[inline]
    fn nth(&mut self, n: usize) -> Option<Transition> {
        self.instants.nth(n).map(|x| self.transition(x))
    }

    #[inline]
    fn last(mut self) -> Option<Transition> {
        self.next_back()
    }

    #[inline]
    fn count(self) -> usize {
        self.len()
    }
}

impl DoubleEndedIterator for Transitions<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Transition> {
        self.instants.next_back().map(|x| self.transition(x))
    }
}

impl ExactSizeIterator for Transitions<'_> {}

impl FusedIterator for Transitions<'_> {}

/// When the interval the transition at `instants[i]` opens ends: at the
/// first transition of the other kind at or after it. Transitions
/// alternate, so that is the previous one if the two share an instant (a
/// zero-length interval) and the next one otherwise; `None` if the window
/// cuts the interval off.
#[inline]
fn interval_end(instants: &[f64], i: usize) -> Option<f64> {
    let at = instants[i];
    match i.checked_sub(1).map(|p| instants[p]) {
        Some(prev) if prev == at => Some(prev),
        _ => instants.get(i + 1).copied(),
    }
}

/// The one segment walk. Fed a trace's transitions in order, it cuts the
/// window at each and returns the segment the cut ends, skipping the
/// zero-length ones that transitions sharing an instant leave behind;
/// [`close`](Self::close) ends the last. [`TransitionTrace::segments`]
/// and [`TransitionTrace::trust_segments`] — and so `trust_time`,
/// [`AccuracyAnalysis::of_trace`](crate::AccuracyAnalysis::of_trace) and
/// the forward-good-period draws — walk a trace through it.
#[derive(Debug, Clone, Copy)]
struct SegmentWalker {
    start: f64,
    output: FdOutput,
    emitted: bool,
}

impl SegmentWalker {
    /// Ends the open segment at `tr` and opens one with output `tr.to`;
    /// returns the ended segment unless it is empty.
    #[inline]
    fn cross(&mut self, tr: Transition) -> Option<Segment> {
        let ended = self.cut(tr.at, false);
        self.output = tr.to;
        ended
    }

    /// Ends the open segment at the window end `end`. An empty one is
    /// still returned if nothing was before (a zero-length window is one
    /// segment); a second call returns `None`.
    #[inline]
    fn close(&mut self, end: f64) -> Option<Segment> {
        self.cut(end, !self.emitted)
    }

    #[inline]
    fn cut(&mut self, at: f64, keep_empty: bool) -> Option<Segment> {
        let ended = (at > self.start || keep_empty).then_some(Segment {
            start: self.start,
            end: at,
            output: self.output,
        });
        self.emitted |= ended.is_some();
        self.start = at;
        ended
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn simple_trace() -> TransitionTrace {
        // T on [0,12), S on [12,16), T on [16,20]
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        rec.record(12.0, FdOutput::Suspect);
        rec.record(16.0, FdOutput::Trust);
        rec.finish(20.0)
    }

    #[test]
    fn recorder_collapses_repeats() {
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        rec.record(1.0, FdOutput::Trust);
        rec.record(2.0, FdOutput::Suspect);
        rec.record(3.0, FdOutput::Suspect);
        let trace = rec.finish(4.0);
        assert_eq!(trace.transitions().len(), 1);
        assert_eq!(
            trace.transitions().next(),
            Some(Transition { at: 2.0, to: FdOutput::Suspect })
        );
    }

    #[test]
    fn output_at_is_right_continuous() {
        let trace = simple_trace();
        assert_eq!(trace.output_at(0.0), FdOutput::Trust);
        assert_eq!(trace.output_at(11.999), FdOutput::Trust);
        // At the S-transition instant the output IS S (Appendix C).
        assert_eq!(trace.output_at(12.0), FdOutput::Suspect);
        assert_eq!(trace.output_at(16.0), FdOutput::Trust);
        assert_eq!(trace.output_at(20.0), FdOutput::Trust);
    }

    #[test]
    #[should_panic(expected = "outside window")]
    fn output_at_rejects_out_of_window() {
        simple_trace().output_at(25.0);
    }

    #[test]
    fn segments_partition_window() {
        let trace = simple_trace();
        let segs = trace.segments();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0], Segment { start: 0.0, end: 12.0, output: FdOutput::Trust });
        assert_eq!(segs[1], Segment { start: 12.0, end: 16.0, output: FdOutput::Suspect });
        assert_eq!(segs[2], Segment { start: 16.0, end: 20.0, output: FdOutput::Trust });
        let total: f64 = segs.iter().map(Segment::duration).sum();
        assert!((total - trace.duration()).abs() < 1e-12);
    }

    #[test]
    fn trust_time_counts_trust_segments() {
        assert!((simple_trace().trust_time() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn transition_time_iterators() {
        let trace = simple_trace();
        assert_eq!(trace.s_transition_times().collect::<Vec<_>>(), vec![12.0]);
        assert_eq!(trace.t_transition_times().collect::<Vec<_>>(), vec![16.0]);
    }

    #[test]
    fn transitions_iterate_both_ways_with_their_outputs() {
        let trace = simple_trace();
        let s = Transition { at: 12.0, to: FdOutput::Suspect };
        let t = Transition { at: 16.0, to: FdOutput::Trust };
        assert_eq!(trace.transitions().collect::<Vec<_>>(), vec![s, t]);
        assert_eq!(trace.transitions().rev().collect::<Vec<_>>(), vec![t, s]);
        assert_eq!(trace.transitions().last(), Some(t));
        assert_eq!(trace.transitions().nth(1), Some(t));
        let mut it = trace.transitions();
        assert_eq!((it.next(), it.len(), it.next_back()), (Some(s), 1, Some(t)));
        assert_eq!((it.len(), it.next(), it.next_back()), (0, None, None));
    }

    /// A draw of `r = 1 − 2⁻⁵³`, the largest `f64` below 1.
    struct LargestBelowOne;

    impl rand::RngCore for LargestBelowOne {
        fn next_u32(&mut self) -> u32 {
            u32::MAX
        }
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            dest.fill(u8::MAX);
        }
    }

    #[test]
    fn forward_good_period_draw_at_the_top_of_the_range_still_samples() {
        assert_eq!(LargestBelowOne.random::<f64>(), 1.0 - f64::EPSILON / 2.0);
        // Trusted on [0, 0.3] and [0.5, 1.1]: the total 0.9000000000000001
        // times r rounds to 0.9, and 0.9 − 0.3 is not below the second
        // segment's 0.6000000000000001, so the draw passed every segment.
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        rec.record(0.3, FdOutput::Suspect);
        rec.record(0.5, FdOutput::Trust);
        let trace = rec.finish(1.1);
        let lens: Vec<f64> = trace.trust_segments().map(|s| s.duration()).collect();
        let u = LargestBelowOne.random::<f64>() * trace.trust_time();
        assert!(u - lens[0] >= lens[1], "the example no longer exercises the rounding");
        let samples = trace.sample_forward_good_periods(4, &mut LargestBelowOne);
        assert_eq!(samples, vec![0.0; 4], "the draw lands at the end of the last segment");
    }

    #[test]
    fn restrict_preserves_output() {
        let trace = simple_trace();
        let r = trace.restrict(10.0, 18.0);
        assert_eq!(r.start(), 10.0);
        assert_eq!(r.end(), 18.0);
        assert_eq!(r.initial_output(), FdOutput::Trust);
        assert_eq!(r.transitions().len(), 2);
        for t in [10.0, 12.0, 13.5, 16.0, 18.0] {
            assert_eq!(r.output_at(t), trace.output_at(t), "at {t}");
        }
    }

    #[test]
    fn restrict_at_transition_boundary() {
        let trace = simple_trace();
        // t0 exactly at the S-transition: right-continuity makes the
        // initial output Suspect and drops the transition itself.
        let r = trace.restrict(12.0, 20.0);
        assert_eq!(r.initial_output(), FdOutput::Suspect);
        assert_eq!(r.transitions().len(), 1);
    }

    #[test]
    fn empty_trace_is_single_segment() {
        let rec = TraceRecorder::new(5.0, FdOutput::Suspect);
        let trace = rec.finish(9.0);
        assert_eq!(trace.transitions().len(), 0);
        let segs = trace.segments();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].output, FdOutput::Suspect);
        assert_eq!(trace.trust_time(), 0.0);
    }

    #[test]
    fn zero_length_window() {
        let rec = TraceRecorder::new(1.0, FdOutput::Trust);
        let trace = rec.finish(1.0);
        assert_eq!(trace.duration(), 0.0);
        assert_eq!(trace.segments().len(), 1);
        assert_eq!(trace.output_at(1.0), FdOutput::Trust);
    }

    #[test]
    #[should_panic(expected = "record at t=3 precedes already-recorded t=5")]
    fn record_rejects_backwards_time() {
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        rec.record(5.0, FdOutput::Suspect);
        rec.record(3.0, FdOutput::Trust);
    }

    #[test]
    #[should_panic(expected = "non-finite timestamp NaN")]
    fn record_rejects_nan() {
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        rec.record(f64::NAN, FdOutput::Suspect);
    }

    #[test]
    #[should_panic(expected = "end time 4 precedes last transition at 5")]
    fn finish_rejects_early_end() {
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        rec.record(5.0, FdOutput::Suspect);
        rec.finish(4.0);
    }

    #[test]
    fn finish_reconstructs_initial_output() {
        let mut rec = TraceRecorder::new(0.0, FdOutput::Suspect);
        rec.record(1.0, FdOutput::Trust);
        let trace = rec.finish(2.0);
        assert_eq!(trace.initial_output(), FdOutput::Suspect);
    }

    #[test]
    fn simultaneous_transition_pair_allowed() {
        // Two transitions at the same instant (zero-length mistake): the
        // recorder accepts equal timestamps.
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        rec.record(3.0, FdOutput::Suspect);
        rec.record(3.0, FdOutput::Trust);
        let trace = rec.finish(5.0);
        assert_eq!(trace.transitions().len(), 2);
        // Right continuity: the LAST transition at t wins.
        assert_eq!(trace.output_at(3.0), FdOutput::Trust);
        assert!((trace.trust_time() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alternate")]
    fn from_parts_validates_alternation() {
        TransitionTrace::from_parts(
            0.0,
            10.0,
            FdOutput::Trust,
            vec![Transition { at: 1.0, to: FdOutput::Trust }],
        );
    }

    proptest! {
        #[test]
        fn prop_segments_cover_window(
            times in proptest::collection::vec(0.0f64..100.0, 0..40),
        ) {
            let mut sorted = times.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
            let mut out = FdOutput::Trust;
            for &t in &sorted {
                out = out.toggled();
                rec.record(t, out);
            }
            let trace = rec.finish(100.0);
            let segs = trace.segments();
            // Segments tile [0, 100] without gaps.
            let mut cursor = 0.0;
            for s in &segs {
                prop_assert!((s.start - cursor).abs() < 1e-9);
                cursor = s.end;
            }
            prop_assert!((cursor - 100.0).abs() < 1e-9);
            // Adjacent segments alternate output.
            for w in segs.windows(2) {
                prop_assert_ne!(w[0].output, w[1].output);
            }
        }

        #[test]
        fn prop_output_at_matches_segments(
            times in proptest::collection::vec(0.01f64..99.9, 1..30),
            query in 0.0f64..100.0,
        ) {
            let mut sorted = times.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            sorted.dedup();
            let mut rec = TraceRecorder::new(0.0, FdOutput::Suspect);
            let mut out = FdOutput::Suspect;
            for &t in &sorted {
                out = out.toggled();
                rec.record(t, out);
            }
            let trace = rec.finish(100.0);
            let by_query = trace.output_at(query);
            let seg = trace
                .segments()
                .into_iter()
                .find(|s| (s.start <= query && query < s.end) || (query == 100.0 && s.end == 100.0))
                .unwrap();
            prop_assert_eq!(by_query, seg.output);
        }

        #[test]
        fn prop_walker_matches_reference_segments_on_shared_instants(
            trusting in 0u8..2,
            steps in proptest::collection::vec(0u8..8, 0..40),
            tail in 0u8..3,
        ) {
            let initial = if trusting == 1 { FdOutput::Trust } else { FdOutput::Suspect };
            let trace = TransitionTrace::with_shared_instants(initial, &steps, tail);
            prop_assert_eq!(trace.segments(), trace.segments_reference());
        }

        /// The compact trace yields, in both directions and after a
        /// restriction, the `Vec<Transition>` the recorder used to keep:
        /// one entry per change of output, with the output changed to.
        #[test]
        fn prop_compact_trace_matches_the_transition_vector(
            trusting in 0u8..2,
            records in proptest::collection::vec((0u8..4, 0u8..2), 0..60),
            cut in (0u8..200, 0u8..200),
        ) {
            let initial = if trusting == 1 { FdOutput::Trust } else { FdOutput::Suspect };
            let mut rec = TraceRecorder::new(0.0, initial);
            let (mut at, mut current) = (0.0, initial);
            let mut want: Vec<Transition> = Vec::new();
            for &(step, trust) in &records {
                at += f64::from(step) * 0.25;
                let output = if trust == 1 { FdOutput::Trust } else { FdOutput::Suspect };
                rec.record(at, output);
                if output != current {
                    current = output;
                    want.push(Transition { at, to: output });
                }
            }
            prop_assert_eq!(rec.current_output(), current);
            let end = at + 1.0;
            let trace = rec.finish(end);
            prop_assert_eq!(trace.initial_output(), initial);
            prop_assert_eq!(trace.transitions().len(), want.len());
            prop_assert_eq!(trace.transitions().collect::<Vec<_>>(), want.clone());
            prop_assert_eq!(
                trace.transitions().rev().collect::<Vec<_>>(),
                want.iter().rev().copied().collect::<Vec<_>>()
            );
            prop_assert_eq!(trace.transitions().last(), want.last().copied());
            prop_assert_eq!(
                &trace,
                &TransitionTrace::from_parts(0.0, end, initial, want.clone())
            );

            // On the records' 0.25 grid, so a cut often falls on a transition.
            let (t0, t1) = {
                let grid = |c: u8| (f64::from(c) * 0.25).min(end);
                let (a, b) = (grid(cut.0), grid(cut.1));
                (a.min(b), a.max(b))
            };
            let restricted = trace.restrict(t0, t1);
            let kept: Vec<Transition> =
                want.iter().filter(|tr| tr.at > t0 && tr.at <= t1).copied().collect();
            let at_t0 = want.iter().rev().find(|tr| tr.at <= t0).map_or(initial, |tr| tr.to);
            prop_assert_eq!(restricted.initial_output(), at_t0);
            prop_assert_eq!(trace.output_at(t0), at_t0);
            prop_assert_eq!(restricted.transitions().collect::<Vec<_>>(), kept);
        }
    }
}
