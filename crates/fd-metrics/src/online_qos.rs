//! Online (streaming) estimation of the accuracy metrics — the live
//! counterpart of [`AccuracyAnalysis`](crate::AccuracyAnalysis).
//!
//! [`AccuracyAnalysis`] computes the §2.2/§2.3 metrics from a *finished*
//! [`TransitionTrace`](crate::TransitionTrace); a running system cannot
//! afford to buffer its whole output history per monitored peer. An
//! [`OnlineQos`] tracker consumes the same S/T output stream one
//! transition at a time and maintains, in O(1) memory:
//!
//! * accumulated trust and suspect time (for the time-weighted query
//!   accuracy probability `P_A`);
//! * S- and T-transition counts (for the mistake rate `λ_M`);
//! * Welford accumulators over the three interval metrics — mistake
//!   recurrence `T_MR` (S→next S), mistake duration `T_M` (S→next T) and
//!   good period `T_G` (T→next S) — with the same completeness
//!   convention as the batch analysis: only intervals delimited by two
//!   observed transitions are counted, so feeding a tracker the
//!   transitions of a trace reproduces the batch estimates exactly.
//!
//! [`ObservedQos`] is the queryable point-in-time summary, and
//! [`Conformance`] compares one against the Theorem 1 identities and a
//! [`QosRequirements`] tuple with relative tolerance bands — the check a
//! deployment runs to ask "is the detector delivering the QoS it was
//! configured for?".

use crate::qos::{QosBundle, QosRequirements};
use crate::trace::TransitionTrace;
use crate::FdOutput;
use fd_stats::OnlineStats;
use std::fmt;

/// Streaming tracker of the accuracy metrics over a live output stream.
///
/// Feed it the detector's output at monotonically nondecreasing times via
/// [`observe`](Self::observe) (repeated identical outputs are no-ops, so
/// polling is fine); read the current metrics with
/// [`observed`](Self::observed). The first segment — before any
/// transition has been observed — never contributes interval samples,
/// matching the batch analysis (a detector's initial suspicion is not a
/// "mistake" made at an observed S-transition).
///
/// ```
/// use fd_metrics::{FdOutput, OnlineQos};
///
/// let mut q = OnlineQos::new(0.0, FdOutput::Trust);
/// q.observe(12.0, FdOutput::Suspect); // S-transition
/// q.observe(16.0, FdOutput::Trust);   // T-transition: T_M = 4
/// q.observe(28.0, FdOutput::Suspect); // T_MR = 16, T_G = 12
/// let obs = q.observed(28.0);
/// assert_eq!(obs.mean_mistake_duration(), Some(4.0));
/// assert_eq!(obs.mean_mistake_recurrence(), Some(16.0));
/// assert_eq!(obs.mean_good_period(), Some(12.0));
/// assert!((obs.query_accuracy() - 24.0 / 28.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineQos {
    origin: f64,
    at: f64,
    output: FdOutput,
    segment_start: f64,
    segment_opened_by_transition: bool,
    trust_time: f64,
    suspect_time: f64,
    last_s: Option<f64>,
    s_transitions: u64,
    t_transitions: u64,
    recurrence: OnlineStats,
    duration: OnlineStats,
    good: OnlineStats,
}

impl OnlineQos {
    /// Starts tracking at `start` with the given initial output.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not finite.
    pub fn new(start: f64, initial: FdOutput) -> Self {
        assert!(start.is_finite(), "start time must be finite");
        Self {
            origin: start,
            at: start,
            output: initial,
            segment_start: start,
            segment_opened_by_transition: false,
            trust_time: 0.0,
            suspect_time: 0.0,
            last_s: None,
            s_transitions: 0,
            t_transitions: 0,
            recurrence: OnlineStats::new(),
            duration: OnlineStats::new(),
            good: OnlineStats::new(),
        }
    }

    /// Builds a tracker by replaying a finished trace: start at the
    /// trace's origin with its initial output, observe every transition,
    /// and account time through the trace's end.
    ///
    /// By the completeness convention shared with the batch analysis,
    /// the resulting [`observed`](Self::observed) metrics agree with
    /// [`AccuracyAnalysis`](crate::AccuracyAnalysis) over the same trace
    /// — the identity the SMC harness's Theorem 1 oracle checks run by
    /// run.
    pub fn of_trace(trace: &TransitionTrace) -> Self {
        let mut q = Self::new(trace.start(), trace.initial_output());
        q.ingest(trace);
        q
    }

    /// Replays a trace's transitions into this tracker and advances it
    /// to the trace's end.
    ///
    /// The trace must not start before the tracker's latest time;
    /// earlier instants would be clamped by [`observe`](Self::observe)
    /// and silently distort the interval metrics, so this panics
    /// instead.
    pub fn ingest(&mut self, trace: &TransitionTrace) {
        assert!(
            trace.start() >= self.at,
            "trace starts at {} before tracker time {}",
            trace.start(),
            self.at
        );
        for t in trace.transitions() {
            self.observe(t.at, t.to);
        }
        self.advance(trace.end());
    }

    /// The output as of the last observation.
    pub fn output(&self) -> FdOutput {
        self.output
    }

    /// The time tracking started.
    pub fn origin(&self) -> f64 {
        self.origin
    }

    /// The latest time accounted for.
    pub fn latest(&self) -> f64 {
        self.at
    }

    /// Seconds of `Trust` output accounted up to [`latest`](Self::latest).
    pub fn trust_time(&self) -> f64 {
        self.trust_time
    }

    /// Seconds of `Suspect` output accounted up to [`latest`](Self::latest).
    pub fn suspect_time(&self) -> f64 {
        self.suspect_time
    }

    /// Accounts elapsed time up to `now` without changing the output
    /// (times earlier than the latest observation are clamped — the
    /// stream is monotone, like detector time).
    #[inline]
    pub fn advance(&mut self, now: f64) {
        assert!(!now.is_nan(), "time must not be NaN");
        let now = now.max(self.at);
        let dt = now - self.at;
        match self.output {
            FdOutput::Trust => self.trust_time += dt,
            FdOutput::Suspect => self.suspect_time += dt,
        }
        self.at = now;
    }

    /// Feeds one observation of the detector's output at time `at`.
    /// Equal outputs only account time; a changed output records the
    /// transition and updates the interval accumulators.
    pub fn observe(&mut self, at: f64, output: FdOutput) {
        self.advance(at);
        if output == self.output {
            return;
        }
        let at = self.at; // post-clamp transition instant
        match output {
            FdOutput::Suspect => {
                // S-transition: closes a recurrence interval and (if the
                // trust segment began at an observed T-transition) a good
                // period.
                self.s_transitions += 1;
                if let Some(prev) = self.last_s {
                    self.recurrence.push(at - prev);
                }
                self.last_s = Some(at);
                if self.segment_opened_by_transition {
                    self.good.push(at - self.segment_start);
                }
            }
            FdOutput::Trust => {
                // T-transition: closes a mistake duration if the suspect
                // segment began at an observed S-transition.
                self.t_transitions += 1;
                if self.segment_opened_by_transition {
                    self.duration.push(at - self.segment_start);
                }
            }
        }
        self.output = output;
        self.segment_start = at;
        self.segment_opened_by_transition = true;
    }

    /// The metrics as of `now` (≥ the latest observation; earlier times
    /// are clamped). Pure — the tracker itself is not advanced.
    pub fn observed(&self, now: f64) -> ObservedQos {
        let mut probe = *self;
        probe.advance(now);
        ObservedQos {
            window: probe.at - probe.origin,
            trust_time: probe.trust_time,
            suspect_time: probe.suspect_time,
            s_transitions: probe.s_transitions,
            t_transitions: probe.t_transitions,
            recurrence: probe.recurrence,
            duration: probe.duration,
            good: probe.good,
        }
    }

    /// The tracker's complete serializable state (for snapshots).
    pub fn state(&self) -> QosTrackerState {
        QosTrackerState {
            origin: self.origin,
            at: self.at,
            output: self.output,
            segment_start: self.segment_start,
            segment_opened_by_transition: self.segment_opened_by_transition,
            trust_time: self.trust_time,
            suspect_time: self.suspect_time,
            last_s: self.last_s,
            s_transitions: self.s_transitions,
            t_transitions: self.t_transitions,
            recurrence: self.recurrence,
            duration: self.duration,
            good: self.good,
        }
    }

    /// Rebuilds a tracker from a persisted [`QosTrackerState`].
    ///
    /// # Errors
    ///
    /// Returns [`InvalidQosState`] naming the first field that violates
    /// the tracker's invariants (non-finite or negative times, ordering).
    #[inline]
    pub fn from_state(state: QosTrackerState) -> Result<Self, InvalidQosState> {
        let fin = |field: &'static str, v: f64| {
            if v.is_finite() {
                Ok(v)
            } else {
                Err(InvalidQosState { field })
            }
        };
        fin("origin", state.origin)?;
        fin("at", state.at)?;
        fin("segment_start", state.segment_start)?;
        if state.at < state.origin {
            return Err(InvalidQosState { field: "at" });
        }
        if state.segment_start < state.origin || state.segment_start > state.at {
            return Err(InvalidQosState { field: "segment_start" });
        }
        if !(state.trust_time.is_finite() && state.trust_time >= 0.0) {
            return Err(InvalidQosState { field: "trust_time" });
        }
        if !(state.suspect_time.is_finite() && state.suspect_time >= 0.0) {
            return Err(InvalidQosState { field: "suspect_time" });
        }
        if let Some(s) = state.last_s {
            if !s.is_finite() || s < state.origin || s > state.at {
                return Err(InvalidQosState { field: "last_s" });
            }
        }
        for (field, stats) in [
            ("recurrence", &state.recurrence),
            ("duration", &state.duration),
            ("good", &state.good),
        ] {
            if !stats.mean().is_finite() || !stats.m2().is_finite() || stats.m2() < 0.0 {
                return Err(InvalidQosState { field });
            }
        }
        Ok(Self {
            origin: state.origin,
            at: state.at,
            output: state.output,
            segment_start: state.segment_start,
            segment_opened_by_transition: state.segment_opened_by_transition,
            trust_time: state.trust_time,
            suspect_time: state.suspect_time,
            last_s: state.last_s,
            s_transitions: state.s_transitions,
            t_transitions: state.t_transitions,
            recurrence: state.recurrence,
            duration: state.duration,
            good: state.good,
        })
    }
}

/// The raw, serializable state of an [`OnlineQos`] tracker.
///
/// All fields are public so persistence layers can encode them in any
/// format; rebuild with [`OnlineQos::from_state`], which validates the
/// invariants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosTrackerState {
    /// Time tracking started.
    pub origin: f64,
    /// Latest time accounted for.
    pub at: f64,
    /// Output as of `at`.
    pub output: FdOutput,
    /// Start of the current constant-output segment.
    pub segment_start: f64,
    /// Whether the current segment was opened by an observed transition
    /// (the initial segment was not, and contributes no interval sample).
    pub segment_opened_by_transition: bool,
    /// Accumulated seconds of `Trust` output.
    pub trust_time: f64,
    /// Accumulated seconds of `Suspect` output.
    pub suspect_time: f64,
    /// Time of the last S-transition, if any.
    pub last_s: Option<f64>,
    /// S-transitions observed.
    pub s_transitions: u64,
    /// T-transitions observed.
    pub t_transitions: u64,
    /// Accumulator over complete `T_MR` intervals.
    pub recurrence: OnlineStats,
    /// Accumulator over complete `T_M` intervals.
    pub duration: OnlineStats,
    /// Accumulator over complete `T_G` intervals.
    pub good: OnlineStats,
}

/// A persisted [`QosTrackerState`] violated a tracker invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidQosState {
    /// The first offending field.
    pub field: &'static str,
}

impl fmt::Display for InvalidQosState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid OnlineQos state: field `{}`", self.field)
    }
}

impl std::error::Error for InvalidQosState {}

/// Point-in-time summary of an [`OnlineQos`] tracker: the same metric
/// surface as [`AccuracyAnalysis`](crate::AccuracyAnalysis), computed
/// from O(1) accumulated state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedQos {
    /// Observation window length (seconds since the tracker's origin).
    pub window: f64,
    /// Seconds the output was `Trust`.
    pub trust_time: f64,
    /// Seconds the output was `Suspect`.
    pub suspect_time: f64,
    /// S-transitions observed.
    pub s_transitions: u64,
    /// T-transitions observed.
    pub t_transitions: u64,
    /// Accumulator over complete mistake recurrence intervals `T_MR`.
    pub recurrence: OnlineStats,
    /// Accumulator over complete mistake durations `T_M`.
    pub duration: OnlineStats,
    /// Accumulator over complete good periods `T_G`.
    pub good: OnlineStats,
}

impl ObservedQos {
    /// Time-weighted query accuracy probability `P_A`: fraction of the
    /// window the output was `Trust` (`1.0` for an empty window).
    pub fn query_accuracy(&self) -> f64 {
        if self.window <= 0.0 {
            1.0
        } else {
            self.trust_time / self.window
        }
    }

    /// Average mistake rate `λ_M`: S-transitions per second of window.
    pub fn mistake_rate(&self) -> f64 {
        if self.window <= 0.0 {
            0.0
        } else {
            self.s_transitions as f64 / self.window
        }
    }

    /// Mean observed `E(T_MR)`, `None` until two S-transitions complete
    /// a recurrence interval.
    pub fn mean_mistake_recurrence(&self) -> Option<f64> {
        (self.recurrence.count() > 0).then(|| self.recurrence.mean())
    }

    /// Mean observed `E(T_M)`, `None` until a mistake is corrected.
    pub fn mean_mistake_duration(&self) -> Option<f64> {
        (self.duration.count() > 0).then(|| self.duration.mean())
    }

    /// Mean observed `E(T_G)`, `None` until a good period completes.
    pub fn mean_good_period(&self) -> Option<f64> {
        (self.good.count() > 0).then(|| self.good.mean())
    }

    /// Steady-state query accuracy over *complete renewal cycles only*:
    /// `Σ T_G / Σ T_MR`, the trust fraction of the span between the
    /// first and the last S-transition. Unlike
    /// [`query_accuracy`](Self::query_accuracy) it excludes the edges of
    /// the window (e.g. a long initial all-trust stretch), so it is the
    /// quantity Theorem 1 relates to `E(T_G)/E(T_MR)`.
    ///
    /// `None` until a recurrence interval completes.
    pub fn steady_query_accuracy(&self) -> Option<f64> {
        let span = self.recurrence.sum();
        (self.recurrence.count() > 0 && span > 0.0).then(|| {
            // Good periods inside the span: there are exactly as many
            // complete good periods as recurrence intervals on an
            // alternating stream, except that a good period opened by the
            // pre-first-S T-transition never exists (the first segment is
            // uncounted), so the sums line up.
            (self.good.sum() / span).clamp(0.0, 1.0)
        })
    }

    /// The observed primary metrics as a [`QosBundle`]
    /// (`E(T_MR) = ∞` and `E(T_M) = 0` when never observed — a detector
    /// that has made at most one mistake). `detection_time_bound` is the
    /// configured bound `T_D ≤ η + α` (detection time is not observable
    /// from a failure-free output stream).
    pub fn bundle(&self, detection_time_bound: f64) -> QosBundle {
        QosBundle::new(
            detection_time_bound,
            self.mean_mistake_recurrence().unwrap_or(f64::INFINITY),
            self.mean_mistake_duration().unwrap_or(0.0),
        )
    }
}

impl fmt::Display for ObservedQos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "window = {:.4}s, P_A = {:.6}, λ_M = {:.6}/s, E(T_MR) = {}, E(T_M) = {}, E(T_G) = {}",
            self.window,
            self.query_accuracy(),
            self.mistake_rate(),
            fmt_opt(self.mean_mistake_recurrence()),
            fmt_opt(self.mean_mistake_duration()),
            fmt_opt(self.mean_good_period()),
        )
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.4}"),
        None => "—".to_string(),
    }
}

/// One predicted-vs-observed comparison inside a [`ConformanceReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConformanceCheck {
    /// What is being checked.
    pub name: &'static str,
    /// The predicted value or configured bound.
    pub expected: f64,
    /// The observed value.
    pub observed: f64,
    /// The relative tolerance band applied.
    pub rel_tol: f64,
    /// Whether the observation conforms.
    pub ok: bool,
}

/// Outcome of checking an [`ObservedQos`] against the Theorem 1
/// identities and (optionally) a [`QosRequirements`] tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceReport {
    /// Every check that had enough observations to run.
    pub checks: Vec<ConformanceCheck>,
}

impl ConformanceReport {
    /// Whether every applicable check passed. A report with no checks
    /// passes vacuously (nothing observable yet).
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The checks that failed.
    pub fn failures(&self) -> Vec<&ConformanceCheck> {
        self.checks.iter().filter(|c| !c.ok).collect()
    }
}

impl fmt::Display for ConformanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.checks {
            writeln!(
                f,
                "{:4} {}: expected {:.6}, observed {:.6} (±{:.1}%)",
                if c.ok { "ok" } else { "FAIL" },
                c.name,
                c.expected,
                c.observed,
                c.rel_tol * 100.0
            )?;
        }
        Ok(())
    }
}

/// Checks observed QoS against predictions with relative tolerance
/// bands.
///
/// Two kinds of checks run:
///
/// * **Theorem 1 identities** on the observed interval statistics —
///   `E(T_MR) ≈ E(T_M) + E(T_G)` (Thm 1.1) and
///   `P_A ≈ E(T_G)/E(T_MR)` (Thm 1.1 + 1.2, compared on complete
///   renewal cycles, see [`ObservedQos::steady_query_accuracy`]) — which
///   hold exactly in steady state and within sampling noise on finite
///   windows;
/// * **requirement bounds**, when a [`QosRequirements`] tuple is
///   attached: observed `E(T_MR)` against `T_MR^L`, observed `E(T_M)`
///   against `T_M^U`, and windowed `P_A` against the footnote-11 implied
///   lower bound.
///
/// Checks that lack observations (e.g. no completed recurrence interval
/// yet) are skipped rather than failed.
///
/// ```
/// use fd_metrics::{Conformance, FdOutput, OnlineQos, QosRequirements};
///
/// let mut q = OnlineQos::new(0.0, FdOutput::Trust);
/// for k in 0..8 {
///     q.observe(16.0 * k as f64 + 12.0, FdOutput::Suspect);
///     q.observe(16.0 * k as f64 + 16.0, FdOutput::Trust);
/// }
/// let report = Conformance::new(0.05)
///     .with_requirements(QosRequirements::new(30.0, 10.0, 5.0).unwrap())
///     .report(&q.observed(128.0));
/// assert!(report.passed(), "{report}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Conformance {
    rel_tol: f64,
    requirements: Option<QosRequirements>,
}

impl Conformance {
    /// Creates a checker with the given relative tolerance (e.g. `0.05`
    /// for ±5 % bands).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < rel_tol < 1.0`.
    pub fn new(rel_tol: f64) -> Self {
        assert!(
            rel_tol > 0.0 && rel_tol < 1.0,
            "relative tolerance must be in (0, 1), got {rel_tol}"
        );
        Self { rel_tol, requirements: None }
    }

    /// Attaches the requirement tuple the detector was configured for.
    pub fn with_requirements(mut self, requirements: QosRequirements) -> Self {
        self.requirements = Some(requirements);
        self
    }

    /// Runs every applicable check against `observed`.
    pub fn report(&self, observed: &ObservedQos) -> ConformanceReport {
        let tol = self.rel_tol;
        let mut checks = Vec::new();

        if let (Some(tmr), Some(tm), Some(tg)) = (
            observed.mean_mistake_recurrence(),
            observed.mean_mistake_duration(),
            observed.mean_good_period(),
        ) {
            let expected = tm + tg;
            checks.push(ConformanceCheck {
                name: "E(T_MR) = E(T_M) + E(T_G) (Thm 1.1)",
                expected,
                observed: tmr,
                rel_tol: tol,
                ok: (tmr - expected).abs() <= tol * tmr.max(expected),
            });
        }
        if let (Some(steady), Some(tmr)) = (
            observed.steady_query_accuracy(),
            observed.mean_mistake_recurrence(),
        ) {
            if let Some(tm) = observed.mean_mistake_duration() {
                // P_A = 1 − E(T_M)/E(T_MR) = E(T_G)/E(T_MR) (Thm 1.1+1.2),
                // compared on complete renewal cycles; tolerance is
                // absolute on the probability scale.
                let expected = (1.0 - tm / tmr).clamp(0.0, 1.0);
                checks.push(ConformanceCheck {
                    name: "P_A = E(T_G)/E(T_MR) (Thm 1)",
                    expected,
                    observed: steady,
                    rel_tol: tol,
                    ok: (steady - expected).abs() <= tol,
                });
            }
        }

        if let Some(req) = &self.requirements {
            let tmr = observed.mean_mistake_recurrence().unwrap_or(f64::INFINITY);
            checks.push(ConformanceCheck {
                name: "E(T_MR) >= T_MR^L",
                expected: req.mistake_recurrence_lower(),
                observed: tmr,
                rel_tol: tol,
                ok: tmr >= req.mistake_recurrence_lower() * (1.0 - tol),
            });
            let tm = observed.mean_mistake_duration().unwrap_or(0.0);
            checks.push(ConformanceCheck {
                name: "E(T_M) <= T_M^U",
                expected: req.mistake_duration_upper(),
                observed: tm,
                rel_tol: tol,
                ok: tm <= req.mistake_duration_upper() * (1.0 + tol),
            });
            let pa = observed.query_accuracy();
            let pa_lower = req.implied_query_accuracy_lower();
            checks.push(ConformanceCheck {
                name: "P_A >= implied lower (fn. 11)",
                expected: pa_lower,
                observed: pa,
                rel_tol: tol,
                ok: pa >= pa_lower * (1.0 - tol),
            });
        }

        ConformanceReport { checks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Alternating trace starting Trust: good for `good`, bad for `bad`.
    fn periodic_tracker(good: f64, bad: f64, cycles: usize) -> OnlineQos {
        let mut q = OnlineQos::new(0.0, FdOutput::Trust);
        for k in 0..cycles {
            let base = (good + bad) * k as f64;
            q.observe(base + good, FdOutput::Suspect);
            q.observe(base + good + bad, FdOutput::Trust);
        }
        q
    }

    #[test]
    fn matches_fig2_fd1() {
        let q = periodic_tracker(12.0, 4.0, 4);
        let obs = q.observed(64.0);
        assert!((obs.query_accuracy() - 0.75).abs() < 1e-12);
        assert!((obs.mistake_rate() - 1.0 / 16.0).abs() < 1e-12);
        assert_eq!(obs.recurrence.count(), 3);
        assert_eq!(obs.mean_mistake_recurrence(), Some(16.0));
        assert_eq!(obs.mean_mistake_duration(), Some(4.0));
        assert_eq!(obs.mean_good_period(), Some(12.0));
    }

    #[test]
    fn initial_segment_contributes_no_intervals() {
        // Starts suspected (like every NFD): the opening suspect stretch
        // is not a "mistake duration", there was no S-transition.
        let mut q = OnlineQos::new(0.0, FdOutput::Suspect);
        q.observe(5.0, FdOutput::Trust);
        let obs = q.observed(10.0);
        assert_eq!(obs.duration.count(), 0);
        assert_eq!(obs.t_transitions, 1);
        assert_eq!(obs.s_transitions, 0);
        assert!((obs.query_accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn repeated_outputs_are_noops() {
        let mut q = OnlineQos::new(0.0, FdOutput::Trust);
        q.observe(1.0, FdOutput::Trust);
        q.observe(2.0, FdOutput::Trust);
        q.observe(3.0, FdOutput::Suspect);
        q.observe(3.5, FdOutput::Suspect);
        let obs = q.observed(4.0);
        assert_eq!(obs.s_transitions, 1);
        assert!((obs.suspect_time - 1.0).abs() < 1e-12);
        assert!((obs.trust_time - 3.0).abs() < 1e-12);
    }

    #[test]
    fn of_trace_reproduces_batch_analysis() {
        // An irregular trace starting Suspect (the NFD shape) with a
        // trailing incomplete interval; online-over-trace must agree
        // with the batch analyzer on every shared metric.
        let mut rec = crate::TraceRecorder::new(0.0, FdOutput::Suspect);
        for &(at, out) in &[
            (1.2, FdOutput::Trust),
            (7.5, FdOutput::Suspect),
            (7.9, FdOutput::Trust),
            (15.0, FdOutput::Suspect),
            (16.5, FdOutput::Trust),
            (30.0, FdOutput::Suspect),
        ] {
            rec.record(at, out);
        }
        let trace = rec.finish(33.0);
        let batch = crate::AccuracyAnalysis::of_trace(&trace);
        let obs = OnlineQos::of_trace(&trace).observed(trace.end());

        assert!((obs.query_accuracy() - batch.query_accuracy_probability()).abs() < 1e-12);
        assert!((obs.mistake_rate() - batch.mistake_rate()).abs() < 1e-12);
        assert_eq!(obs.mean_mistake_recurrence(), batch.mean_mistake_recurrence());
        assert_eq!(obs.mean_mistake_duration(), batch.mean_mistake_duration());
        assert_eq!(obs.mean_good_period(), batch.mean_good_period());
        assert_eq!(obs.s_transitions as usize, batch.mistake_count());
    }

    #[test]
    #[should_panic(expected = "before tracker time")]
    fn ingest_rejects_traces_starting_in_the_past() {
        let mut rec = crate::TraceRecorder::new(0.0, FdOutput::Trust);
        rec.record(1.0, FdOutput::Suspect);
        let trace = rec.finish(2.0);
        let mut q = OnlineQos::new(5.0, FdOutput::Trust);
        q.ingest(&trace);
    }

    #[test]
    fn backwards_time_is_clamped() {
        let mut q = OnlineQos::new(10.0, FdOutput::Trust);
        q.observe(20.0, FdOutput::Suspect);
        q.observe(15.0, FdOutput::Trust); // clamped to 20.0
        let obs = q.observed(20.0);
        assert_eq!(obs.duration.count(), 1);
        assert_eq!(obs.mean_mistake_duration(), Some(0.0));
        assert!((obs.window - 10.0).abs() < 1e-12);
    }

    #[test]
    fn observed_is_pure() {
        let q = periodic_tracker(3.0, 1.0, 2);
        let a = q.observed(100.0);
        let b = q.observed(8.0);
        assert!(a.window > b.window);
        assert_eq!(q.latest(), 8.0, "observed() must not advance the tracker");
    }

    #[test]
    fn time_accessors_equal_the_state_fields_across_transitions() {
        let mut q = OnlineQos::new(1.0, FdOutput::Suspect);
        let script = [
            (1.5, FdOutput::Suspect),
            (2.0, FdOutput::Trust),
            (2.75, FdOutput::Trust),
            (6.0, FdOutput::Suspect),
            (5.0, FdOutput::Suspect), // clamped
            (9.25, FdOutput::Trust),
        ];
        for (at, out) in script {
            q.observe(at, out);
            let s = q.state();
            assert_eq!(q.trust_time().to_bits(), s.trust_time.to_bits(), "at {at}");
            assert_eq!(q.suspect_time().to_bits(), s.suspect_time.to_bits(), "at {at}");
            assert_eq!(q.trust_time() + q.suspect_time(), q.latest() - q.origin(), "at {at}");
        }
        assert_eq!((q.trust_time(), q.suspect_time()), (4.0, 4.25));
    }

    #[test]
    fn bundle_with_and_without_observations() {
        let quiet = OnlineQos::new(0.0, FdOutput::Trust).observed(100.0);
        let b = quiet.bundle(0.5);
        assert_eq!(b.mean_mistake_recurrence, f64::INFINITY);
        assert_eq!(b.query_accuracy(), 1.0);

        let busy = periodic_tracker(12.0, 4.0, 4).observed(64.0);
        let b = busy.bundle(0.5);
        assert!((b.mean_mistake_recurrence - 16.0).abs() < 1e-12);
        assert!((b.mean_mistake_duration - 4.0).abs() < 1e-12);
        assert!((b.query_accuracy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn state_roundtrip_resumes_seamlessly() {
        let mut q = periodic_tracker(7.0, 3.0, 3);
        let mut restored = OnlineQos::from_state(q.state()).expect("valid state");
        assert_eq!(restored, q);
        // Both continue identically.
        q.observe(40.0, FdOutput::Suspect);
        restored.observe(40.0, FdOutput::Suspect);
        assert_eq!(restored.observed(41.0), q.observed(41.0));
    }

    #[test]
    fn from_state_rejects_invariant_violations() {
        let good = periodic_tracker(7.0, 3.0, 3).state();
        let mut bad = good;
        bad.at = f64::NAN;
        assert_eq!(OnlineQos::from_state(bad).unwrap_err().field, "at");
        let mut bad = good;
        bad.segment_start = bad.at + 1.0;
        assert_eq!(OnlineQos::from_state(bad).unwrap_err().field, "segment_start");
        let mut bad = good;
        bad.trust_time = -1.0;
        assert_eq!(OnlineQos::from_state(bad).unwrap_err().field, "trust_time");
        let mut bad = good;
        bad.last_s = Some(bad.at + 5.0);
        assert_eq!(OnlineQos::from_state(bad).unwrap_err().field, "last_s");
    }

    #[test]
    fn conformance_passes_on_periodic_stream() {
        let q = periodic_tracker(12.0, 4.0, 8);
        let report = Conformance::new(0.05).report(&q.observed(128.0));
        assert!(!report.checks.is_empty());
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn conformance_flags_violated_requirement() {
        // Mistakes every 16 s, requirement demands ≥ 1000 s between them.
        let q = periodic_tracker(12.0, 4.0, 8);
        let req = QosRequirements::new(1.0, 1000.0, 1.0).unwrap();
        let report = Conformance::new(0.05).with_requirements(req).report(&q.observed(128.0));
        assert!(!report.passed());
        let failures = report.failures();
        assert!(failures.iter().any(|c| c.name.contains("T_MR^L")));
        assert!(failures.iter().any(|c| c.name.contains("T_M^U")));
        assert!(report.to_string().contains("FAIL"));
    }

    #[test]
    fn conformance_vacuous_when_nothing_observed() {
        let q = OnlineQos::new(0.0, FdOutput::Trust);
        let report = Conformance::new(0.05).report(&q.observed(10.0));
        assert!(report.checks.is_empty());
        assert!(report.passed());
    }

    #[test]
    #[should_panic(expected = "relative tolerance")]
    fn conformance_rejects_silly_tolerance() {
        Conformance::new(1.5);
    }
}
