//! Measurement harnesses implementing the paper's §7 methodology.
//!
//! * [`measure_accuracy`] — steady-state accuracy: run failure-free until
//!   a target number of mistake-recurrence intervals is observed ("we
//!   plotted E(T_MR) by considering a run with 500 mistake recurrence
//!   intervals and computing the average length of these intervals"),
//!   discarding the pre-steady-state warm-up.
//! * [`measure_detection_times`] — crash injection: many short runs, each
//!   crashing `p` at a uniformly random phase within a heartbeat period,
//!   measuring `T_D` per run (Theorem 5.1's bound `δ + η` is tight over
//!   exactly this phase randomization).
//!
//! Like [`run`](crate::run()), each is compiled for the caller's RNG type,
//! so a concrete RNG draws the fates with no dynamic call.

use crate::{run, Link, RunOptions, StopCondition};
use fd_core::FailureDetector;
use fd_metrics::{detection_time, AccuracyAnalysis, DetectionOutcome, TransitionTrace};
use rand::{Rng as _, RngCore};

/// Options for [`measure_accuracy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyRun {
    /// Heartbeat intersending time `η`.
    pub eta: f64,
    /// Number of mistake-recurrence intervals to observe (the paper uses
    /// 500 per plotted point).
    pub recurrence_target: usize,
    /// Hard cap on heartbeats, for configurations that almost never err.
    pub max_heartbeats: u64,
    /// Warm-up time to discard before measuring (steady state; NFD-S
    /// reaches it at `τ₁`, §3.2). Expressed in time units.
    pub warmup: f64,
}

impl AccuracyRun {
    /// The §7 defaults: 500 recurrence intervals, warm-up of `10·η`.
    pub fn paper_defaults(eta: f64) -> Self {
        Self {
            eta,
            recurrence_target: 500,
            max_heartbeats: 200_000_000,
            warmup: 10.0 * eta,
        }
    }
}

/// Runs `fd` failure-free until the recurrence target (or heartbeat cap)
/// is reached and returns the steady-state accuracy analysis.
pub fn measure_accuracy<R: RngCore + Send + ?Sized>(
    fd: &mut dyn FailureDetector,
    opts: &AccuracyRun,
    link: &Link,
    rng: &mut R,
) -> AccuracyAnalysis {
    AccuracyAnalysis::of_trace(&steady_state_trace(fd, opts, link, rng))
}

/// The run [`measure_accuracy`] analyses: its trace with the warm-up cut
/// off, for callers that need the samples behind the means (Theorem 1's
/// `T_G` moments and `T_FG` draws).
pub fn steady_state_trace<R: RngCore + Send + ?Sized>(
    fd: &mut dyn FailureDetector,
    opts: &AccuracyRun,
    link: &Link,
    rng: &mut R,
) -> TransitionTrace {
    // +1: the warm-up may swallow the first interval.
    let out = run(
        fd,
        &RunOptions::failure_free(
            opts.eta,
            StopCondition::STransitions {
                count: opts.recurrence_target + 1,
                max_heartbeats: opts.max_heartbeats,
            },
        ),
        link,
        rng,
    );
    let start = opts.warmup.min(out.trace.end());
    out.trace.restrict(start, out.trace.end())
}

/// Options for [`measure_detection_times`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionRun {
    /// Heartbeat intersending time `η`.
    pub eta: f64,
    /// Number of independent crash runs.
    pub crashes: usize,
    /// Earliest crash time (past warm-up); the actual crash time is this
    /// plus a uniform phase in `[0, η)`.
    pub crash_after: f64,
    /// How long past the crash to keep observing (must exceed the
    /// detector's worst detection time for the run to register it).
    pub post_crash_window: f64,
}

/// Summary of a detection-time measurement.
#[derive(Debug, Clone)]
pub struct DetectionSamples {
    /// `T_D` per run; `f64::INFINITY` when the crash was not detected
    /// within the post-crash window.
    pub times: Vec<f64>,
}

impl DetectionSamples {
    /// Largest finite detection time observed.
    pub fn max_finite(&self) -> Option<f64> {
        self.times
            .iter()
            .copied()
            .filter(|t| t.is_finite())
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.max(t))))
    }

    /// Mean of finite detection times, if any.
    pub fn mean_finite(&self) -> Option<f64> {
        let finite: Vec<f64> = self.times.iter().copied().filter(|t| t.is_finite()).collect();
        if finite.is_empty() {
            None
        } else {
            Some(finite.iter().sum::<f64>() / finite.len() as f64)
        }
    }

    /// Number of runs whose crash was never detected in-window.
    pub fn undetected(&self) -> usize {
        self.times.iter().filter(|t| t.is_infinite()).count()
    }
}

/// Measures detection times over many crash runs with randomized crash
/// phase. `make_fd` builds a fresh detector per run.
pub fn measure_detection_times<R: RngCore + Send + ?Sized>(
    mut make_fd: impl FnMut() -> Box<dyn FailureDetector>,
    opts: &DetectionRun,
    link: &Link,
    rng: &mut R,
) -> DetectionSamples {
    let mut times = Vec::with_capacity(opts.crashes);
    for _ in 0..opts.crashes {
        let crash = opts.crash_after + rng.random::<f64>() * opts.eta;
        let horizon = crash + opts.post_crash_window;
        let mut fd = make_fd();
        let out = run(
            fd.as_mut(),
            &RunOptions::with_crash(opts.eta, crash, horizon),
            link,
            rng,
        );
        times.push(match detection_time(&out.trace, crash) {
            DetectionOutcome::Detected { elapsed } => elapsed,
            DetectionOutcome::AlreadySuspecting => 0.0,
            DetectionOutcome::NotDetected => f64::INFINITY,
        });
    }
    DetectionSamples { times }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::detectors::{NfdS, SimpleFd};
    use fd_core::NfdSAnalysis;
    use fd_stats::dist::Exponential;
    use rand::{rngs::StdRng, SeedableRng};

    fn paper_link(p_l: f64) -> Link {
        Link::new(p_l, Box::new(Exponential::with_mean(0.02).unwrap())).unwrap()
    }

    #[test]
    fn measured_recurrence_matches_theorem5() {
        // η = 1, δ = 1, p_L = 0.01, D ~ Exp(0.02): E(T_MR) ≈ 101.
        let link = paper_link(0.01);
        let delay = Exponential::with_mean(0.02).unwrap();
        let predicted = NfdSAnalysis::new(1.0, 1.0, 0.01, &delay)
            .unwrap()
            .mean_recurrence();
        let mut fd = NfdS::new(1.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1234);
        let acc = measure_accuracy(
            &mut fd,
            &AccuracyRun {
                eta: 1.0,
                recurrence_target: 500,
                max_heartbeats: 10_000_000,
                warmup: 10.0,
            },
            &link,
            &mut rng,
        );
        let measured = acc.mean_mistake_recurrence().expect("mistakes observed");
        let rel = (measured - predicted).abs() / predicted;
        assert!(
            rel < 0.15,
            "measured {measured} vs predicted {predicted} (rel {rel:.3})"
        );
    }

    #[test]
    fn measured_duration_matches_theorem5() {
        let link = paper_link(0.05);
        let delay = Exponential::with_mean(0.02).unwrap();
        let a = NfdSAnalysis::new(1.0, 0.05, 0.05, &delay).unwrap();
        let mut fd = NfdS::new(1.0, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let acc = measure_accuracy(
            &mut fd,
            &AccuracyRun {
                eta: 1.0,
                recurrence_target: 2000,
                max_heartbeats: 10_000_000,
                warmup: 10.0,
            },
            &link,
            &mut rng,
        );
        let measured = acc.mean_mistake_duration().unwrap();
        let predicted = a.mean_duration();
        let rel = (measured - predicted).abs() / predicted;
        assert!(
            rel < 0.15,
            "measured {measured} vs predicted {predicted} (rel {rel:.3})"
        );
    }

    #[test]
    fn detection_times_respect_tight_bound() {
        let link = paper_link(0.01);
        let eta = 1.0;
        let delta = 1.5;
        let mut rng = StdRng::seed_from_u64(7);
        let samples = measure_detection_times(
            || Box::new(NfdS::new(eta, delta).unwrap()),
            &DetectionRun {
                eta,
                crashes: 200,
                crash_after: 20.0,
                post_crash_window: 2.0 * (delta + eta),
            },
            &link,
            &mut rng,
        );
        assert_eq!(samples.undetected(), 0);
        let max = samples.max_finite().unwrap();
        assert!(
            max <= delta + eta + 1e-9,
            "max T_D {max} exceeds bound {}",
            delta + eta
        );
        // Tightness: with random phases the max should approach the bound.
        assert!(max > 0.9 * (delta + eta), "bound not tight: max {max}");
    }

    #[test]
    fn simple_fd_detection_can_exceed_nfd_bound() {
        // Without a cutoff, SFD's detection time is d + TO where d is the
        // delay of the last heartbeat — in expectation TO + E(D), but with
        // the same "budget" TO = δ + η its mean T_D is larger than NFD-S's
        // mean (which is ~η/2 + δ on average).
        let link = paper_link(0.01);
        let mut rng = StdRng::seed_from_u64(8);
        let samples = measure_detection_times(
            || Box::new(SimpleFd::new(2.5).unwrap()),
            &DetectionRun {
                eta: 1.0,
                crashes: 100,
                crash_after: 20.0,
                post_crash_window: 10.0,
            },
            &link,
            &mut rng,
        );
        assert_eq!(samples.undetected(), 0);
        // SFD suspects at (last heartbeat arrival) + TO; with crash phase
        // uniform the mean T_D ≈ TO + E(D) − mean(phase ∈ [0,η)) + η… at
        // minimum it exceeds TO − η = 1.5.
        assert!(samples.mean_finite().unwrap() > 1.5);
    }

    #[test]
    fn accuracy_run_defaults() {
        let d = AccuracyRun::paper_defaults(2.0);
        assert_eq!(d.recurrence_target, 500);
        assert_eq!(d.warmup, 20.0);
    }
}
