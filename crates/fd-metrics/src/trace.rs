//! Recorded failure-detector output histories.
//!
//! A [`TransitionTrace`] is the complete output history of a failure
//! detector over an observation window `[start, end]`: the initial output
//! plus the ordered list of transitions. All QoS metrics of §2 are
//! functions of such histories.
//!
//! Time is `f64` seconds of continuous real time (the paper's model,
//! §2: "real time is continuous and ranges from 0 to ∞").
//!
//! The output is **right-continuous** (Appendix C): at the exact instant
//! of a transition the *new* output already holds. `output_at` implements
//! this convention.

use crate::FdOutput;
use std::fmt;

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

/// Error raised while recording a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// A record carried a timestamp earlier than one already recorded.
    TimeWentBackwards {
        /// Timestamp of the offending record.
        at: f64,
        /// Latest timestamp seen before it.
        latest: f64,
    },
    /// A timestamp was NaN or infinite.
    NonFiniteTime(f64),
    /// `finish` was called with an end time before the last transition.
    EndBeforeLastTransition {
        /// The attempted end time.
        end: f64,
        /// Time of the last recorded transition.
        last: f64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::TimeWentBackwards { at, latest } => {
                write!(f, "record at t={at} precedes already-recorded t={latest}")
            }
            TraceError::NonFiniteTime(t) => write!(f, "non-finite timestamp {t}"),
            TraceError::EndBeforeLastTransition { end, last } => {
                write!(f, "end time {end} precedes last transition at {last}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

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
    transitions: Vec<Transition>,
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
            transitions: Vec::new(),
        }
    }

    /// The output as of the latest record.
    pub fn current_output(&self) -> FdOutput {
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
    /// in the driving harness, not recoverable conditions. Use
    /// [`TraceRecorder::try_record`] for a fallible variant.
    pub fn record(&mut self, at: f64, output: FdOutput) {
        self.try_record(at, output).expect("trace recording failed");
    }

    /// Fallible variant of [`TraceRecorder::record`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::NonFiniteTime`] or
    /// [`TraceError::TimeWentBackwards`] without mutating the recorder.
    pub fn try_record(&mut self, at: f64, output: FdOutput) -> Result<(), TraceError> {
        if !at.is_finite() {
            return Err(TraceError::NonFiniteTime(at));
        }
        if at < self.latest {
            return Err(TraceError::TimeWentBackwards {
                at,
                latest: self.latest,
            });
        }
        self.latest = at;
        if output != self.current {
            self.current = output;
            self.transitions.push(Transition { at, to: output });
        }
        Ok(())
    }

    /// Closes the observation window at `end` and returns the trace.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the last recorded transition or is not
    /// finite.
    pub fn finish(self, end: f64) -> TransitionTrace {
        self.try_finish(end).expect("trace finish failed")
    }

    /// Fallible variant of [`TraceRecorder::finish`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EndBeforeLastTransition`] or
    /// [`TraceError::NonFiniteTime`].
    pub fn try_finish(self, end: f64) -> Result<TransitionTrace, TraceError> {
        if !end.is_finite() {
            return Err(TraceError::NonFiniteTime(end));
        }
        if end < self.latest {
            return Err(TraceError::EndBeforeLastTransition {
                end,
                last: self.latest,
            });
        }
        let initial = if let Some(first) = self.transitions.first() {
            // Reconstruct: the output before the first transition.
            first.to.toggled()
        } else {
            self.current
        };
        Ok(TransitionTrace {
            start: self.start,
            end,
            initial,
            transitions: self.transitions,
        })
    }
}

/// A complete output history over `[start, end]`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionTrace {
    start: f64,
    end: f64,
    initial: FdOutput,
    transitions: Vec<Transition>,
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

    /// All transitions, in time order.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
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
        // Number of transitions with `at <= t` (right continuity).
        let idx = self.transitions.partition_point(|tr| tr.at <= t);
        if idx == 0 {
            self.initial
        } else {
            self.transitions[idx - 1].to
        }
    }

    /// Times of S-transitions (changes to `Suspect`) within the window.
    pub fn s_transition_times(&self) -> impl Iterator<Item = f64> + '_ {
        self.transitions
            .iter()
            .filter(|t| t.to.is_suspect())
            .map(|t| t.at)
    }

    /// Times of T-transitions (changes to `Trust`) within the window.
    pub fn t_transition_times(&self) -> impl Iterator<Item = f64> + '_ {
        self.transitions
            .iter()
            .filter(|t| t.to.is_trust())
            .map(|t| t.at)
    }

    /// Maximal constant-output segments covering the window.
    pub fn segments(&self) -> Vec<Segment> {
        let mut out = Vec::with_capacity(self.transitions.len() + 1);
        out.extend(self.segment_iter());
        out
    }

    /// [`segments`](Self::segments) without the vector.
    pub(crate) fn segment_iter(&self) -> impl Iterator<Item = Segment> + '_ {
        let mut walker = self.walker();
        let mut transitions = self.transitions.iter();
        std::iter::from_fn(move || {
            transitions
                .find_map(|tr| walker.cross(tr))
                .or_else(|| walker.close(self.end))
        })
    }

    /// A [`SegmentWalker`] at the window start, for callers that step
    /// through the transitions themselves.
    pub(crate) fn walker(&self) -> SegmentWalker {
        SegmentWalker {
            start: self.start,
            output: self.initial,
            emitted: false,
        }
    }

    /// Total time spent trusting within the window.
    pub fn trust_time(&self) -> f64 {
        self.segment_iter()
            .filter(|s| s.output.is_trust())
            .map(|s| s.duration())
            .sum()
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
        let initial = self.output_at(t0);
        let transitions: Vec<Transition> = self
            .transitions
            .iter()
            .filter(|tr| tr.at > t0 && tr.at <= t1)
            .copied()
            .collect();
        TransitionTrace {
            start: t0,
            end: t1,
            initial,
            transitions,
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
            transitions,
        }
    }

    /// The segment walk as it was written before [`SegmentWalker`]; the
    /// reference the walker is tested against.
    #[cfg(test)]
    pub(crate) fn segments_reference(&self) -> Vec<Segment> {
        let mut out = Vec::with_capacity(self.transitions.len() + 1);
        let mut cur_start = self.start;
        let mut cur_out = self.initial;
        for tr in &self.transitions {
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

/// The one segment walk. Fed a trace's transitions in order, it cuts the
/// window at each and returns the segment the cut ends, skipping the
/// zero-length ones that transitions sharing an instant leave behind;
/// [`close`](Self::close) ends the last. [`TransitionTrace::segments`],
/// [`TransitionTrace::trust_time`] and
/// [`AccuracyAnalysis::of_trace`](crate::AccuracyAnalysis::of_trace) all
/// walk a trace through it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegmentWalker {
    start: f64,
    output: FdOutput,
    emitted: bool,
}

impl SegmentWalker {
    /// Ends the open segment at `tr` and opens one with output `tr.to`;
    /// returns the ended segment unless it is empty.
    #[inline]
    pub(crate) fn cross(&mut self, tr: &Transition) -> Option<Segment> {
        let ended = self.cut(tr.at, false);
        self.output = tr.to;
        ended
    }

    /// Ends the open segment at the window end `end`. An empty one is
    /// still returned if nothing was before (a zero-length window is one
    /// segment); a second call returns `None`.
    #[inline]
    pub(crate) fn close(&mut self, end: f64) -> Option<Segment> {
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
        assert_eq!(trace.transitions()[0].at, 2.0);
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
    fn try_record_detects_backwards_time() {
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        rec.record(5.0, FdOutput::Suspect);
        let err = rec.try_record(3.0, FdOutput::Trust).unwrap_err();
        assert_eq!(err, TraceError::TimeWentBackwards { at: 3.0, latest: 5.0 });
        // Recorder unchanged.
        assert_eq!(rec.latest_time(), 5.0);
        assert_eq!(rec.current_output(), FdOutput::Suspect);
    }

    #[test]
    fn try_record_rejects_nan() {
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        assert!(matches!(
            rec.try_record(f64::NAN, FdOutput::Suspect),
            Err(TraceError::NonFiniteTime(_))
        ));
    }

    #[test]
    fn try_finish_rejects_early_end() {
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        rec.record(5.0, FdOutput::Suspect);
        assert!(matches!(
            rec.try_finish(4.0),
            Err(TraceError::EndBeforeLastTransition { .. })
        ));
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
    }
}
