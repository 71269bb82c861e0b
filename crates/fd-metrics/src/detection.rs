//! Detection-time measurement (§2.2).
//!
//! `T_D` is the time from `p`'s crash to the *final* S-transition, after
//! which there are no further transitions: the moment `q` begins to
//! suspect `p` **permanently**. Boundary conventions from the paper:
//!
//! * if the detector never settles into a final suspicion, `T_D = ∞`;
//! * if the final S-transition occurs *before* the crash, `T_D = 0`.

use crate::{FdOutput, TransitionTrace};

/// Result of measuring detection time on a trace of a run where `p`
/// crashed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectionOutcome {
    /// The detector settled into permanent suspicion `elapsed` seconds
    /// after the crash.
    Detected {
        /// `T_D` in seconds.
        elapsed: f64,
    },
    /// The final S-transition happened before the crash itself
    /// (the detector was already suspecting); `T_D = 0` by convention.
    AlreadySuspecting,
    /// The trace never ends in suspicion — within this observation window
    /// the crash was not (permanently) detected. `T_D` is unbounded as far
    /// as this window can tell.
    NotDetected,
}

impl DetectionOutcome {
    /// `T_D` as a number: the elapsed time, `0.0`, or `f64::INFINITY`.
    pub fn as_seconds(&self) -> f64 {
        match self {
            DetectionOutcome::Detected { elapsed } => *elapsed,
            DetectionOutcome::AlreadySuspecting => 0.0,
            DetectionOutcome::NotDetected => f64::INFINITY,
        }
    }
}

/// Measures the detection time on a trace from a run in which `p` crashed
/// at `crash_time`.
///
/// The *final* S-transition is the last transition of the trace (if it is
/// an S-transition); permanence can only be judged within the observation
/// window, so callers should extend the window comfortably past
/// `crash_time` + the detector's detection-time bound (for `NFD-S`,
/// `δ + η`, Theorem 5.1).
///
/// # Panics
///
/// Panics if `crash_time` lies outside the trace window.
pub fn detection_time(trace: &TransitionTrace, crash_time: f64) -> DetectionOutcome {
    assert!(
        crash_time >= trace.start() && crash_time <= trace.end(),
        "crash time {crash_time} outside trace window"
    );

    match trace.transitions().last() {
        None => {
            // No transitions at all: the initial output persists forever.
            if trace.initial_output() == FdOutput::Suspect {
                DetectionOutcome::AlreadySuspecting
            } else {
                DetectionOutcome::NotDetected
            }
        }
        Some(last) => {
            if last.to != FdOutput::Suspect {
                // Trace ends trusting: no final S-transition in-window.
                DetectionOutcome::NotDetected
            } else if last.at <= crash_time {
                DetectionOutcome::AlreadySuspecting
            } else {
                DetectionOutcome::Detected {
                    elapsed: last.at - crash_time,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRecorder;

    #[test]
    fn basic_detection() {
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        rec.record(12.5, FdOutput::Suspect);
        let trace = rec.finish(100.0);
        let out = detection_time(&trace, 10.0);
        assert_eq!(out, DetectionOutcome::Detected { elapsed: 2.5 });
        assert_eq!(out.as_seconds(), 2.5);
    }

    #[test]
    fn intermittent_suspicions_before_final() {
        // Mistake at t=2 corrected at t=3, crash at 10, final suspicion 11.
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        rec.record(2.0, FdOutput::Suspect);
        rec.record(3.0, FdOutput::Trust);
        rec.record(11.0, FdOutput::Suspect);
        let trace = rec.finish(50.0);
        assert_eq!(
            detection_time(&trace, 10.0),
            DetectionOutcome::Detected { elapsed: 1.0 }
        );
    }

    #[test]
    fn already_suspecting_at_crash() {
        // Final S-transition at t=5, crash at t=10: T_D = 0.
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        rec.record(5.0, FdOutput::Suspect);
        let trace = rec.finish(50.0);
        let out = detection_time(&trace, 10.0);
        assert_eq!(out, DetectionOutcome::AlreadySuspecting);
        assert_eq!(out.as_seconds(), 0.0);
    }

    #[test]
    fn suspecting_from_start_without_transitions() {
        let rec = TraceRecorder::new(0.0, FdOutput::Suspect);
        let trace = rec.finish(50.0);
        assert_eq!(detection_time(&trace, 10.0), DetectionOutcome::AlreadySuspecting);
    }

    #[test]
    fn never_detected() {
        let rec = TraceRecorder::new(0.0, FdOutput::Trust);
        let trace = rec.finish(50.0);
        let out = detection_time(&trace, 10.0);
        assert_eq!(out, DetectionOutcome::NotDetected);
        assert_eq!(out.as_seconds(), f64::INFINITY);
    }

    #[test]
    fn trace_ending_in_trust_is_not_detected() {
        let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
        rec.record(11.0, FdOutput::Suspect);
        rec.record(12.0, FdOutput::Trust);
        let trace = rec.finish(50.0);
        assert_eq!(detection_time(&trace, 10.0), DetectionOutcome::NotDetected);
    }

    #[test]
    #[should_panic(expected = "outside trace window")]
    fn rejects_crash_outside_window() {
        let rec = TraceRecorder::new(0.0, FdOutput::Trust);
        let trace = rec.finish(50.0);
        detection_time(&trace, 60.0);
    }
}
