//! Hysteresis for adaptive reconfiguration (§8.1).
//!
//! The §8.1 loop — re-estimate, re-run the configurator, retune `(η, α)`
//! — is a feedback controller, and like any feedback controller it can
//! oscillate: a borderline estimate flips the recommendation back and
//! forth every round, each flip resetting the NFD-E arrival window and
//! (in the cluster) re-arming a freshness timer. The classical fix is
//! hysteresis, applied here in two independent forms:
//!
//! * a **deadband**: changes whose largest relative parameter delta is
//!   below a threshold are discarded — the current parameters are close
//!   enough, and applying the "improvement" would cost more (a cold
//!   arrival window) than it buys;
//! * a **minimum dwell time**: once a change is applied, further changes
//!   are held back until a quiet period has elapsed, bounding the
//!   reconfiguration rate no matter how noisy the estimates are.
//!
//! [`HysteresisGate`] packages both. `fd-cluster`'s control plane — the
//! one §8.1 loop — keeps one gate per peer that declares QoS
//! requirements and reuses [`HysteresisGate::rel_change`] to decide when
//! a new `η` is worth recommending to the sender; the crash-recovery
//! leader elector damps demotions with the same gate.

use crate::config::NfdUParams;

/// Tuning knobs for a [`HysteresisGate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HysteresisConfig {
    /// Minimum time (seconds, caller's clock) between *applied* changes.
    pub min_dwell: f64,
    /// Relative-change deadband: proposals whose largest relative
    /// parameter delta is `<= deadband` are discarded as immaterial.
    pub deadband: f64,
}

impl Default for HysteresisConfig {
    fn default() -> Self {
        Self {
            min_dwell: 5.0,
            deadband: 0.05,
        }
    }
}

/// Admission control for parameter changes: a proposal passes only if it
/// is materially different (deadband) *and* enough time has passed since
/// the last admitted change (min dwell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HysteresisGate {
    cfg: HysteresisConfig,
    last_change: Option<f64>,
}

impl HysteresisGate {
    /// A gate that has never admitted a change (the first material
    /// proposal passes regardless of dwell).
    ///
    /// Degenerate configurations are clamped rather than trusted: a NaN
    /// or negative `deadband` would otherwise reject every proposal
    /// forever (NaN fails all comparisons), and a NaN or negative
    /// `min_dwell` would wedge or bypass the dwell clock. Both are
    /// clamped to `0.0` — "no deadband" / "no dwell" — which keeps the
    /// gate functional and fail-open.
    pub fn new(cfg: HysteresisConfig) -> Self {
        let sane = |v: f64| if v.is_finite() && v >= 0.0 { v } else { 0.0 };
        Self {
            cfg: HysteresisConfig {
                min_dwell: sane(cfg.min_dwell),
                deadband: sane(cfg.deadband),
            },
            last_change: None,
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> HysteresisConfig {
        self.cfg
    }

    /// When the gate last admitted a change, if ever.
    pub fn last_change(&self) -> Option<f64> {
        self.last_change
    }

    /// Restores the last-admitted-change time (snapshot/restore path —
    /// a restored controller must not immediately re-fire).
    pub fn set_last_change(&mut self, at: Option<f64>) {
        self.last_change = at;
    }

    /// The relative change from `current` to `proposed`:
    /// `|proposed − current| / max(|current|, ε)`.
    pub fn rel_change(current: f64, proposed: f64) -> f64 {
        (proposed - current).abs() / current.abs().max(1e-12)
    }

    /// The largest relative per-field change between two parameter sets —
    /// the quantity compared against the deadband.
    pub fn param_change(current: NfdUParams, proposed: NfdUParams) -> f64 {
        Self::rel_change(current.eta, proposed.eta)
            .max(Self::rel_change(current.alpha, proposed.alpha))
    }

    /// Whether a change of relative magnitude `rel_change` proposed at
    /// `now` would be admitted, without recording anything. A NaN
    /// `rel_change` is rejected (an unjudgeable proposal is not a
    /// material one), never admitted by comparison accident.
    pub fn would_admit(&self, now: f64, rel_change: f64) -> bool {
        if rel_change.is_nan() || rel_change <= self.cfg.deadband {
            return false;
        }
        match self.last_change {
            Some(at) => now - at >= self.cfg.min_dwell,
            None => true,
        }
    }

    /// Admits or rejects a change of relative magnitude `rel_change` at
    /// time `now`; an admitted change is recorded (restarting the dwell
    /// clock), a rejected one leaves the gate untouched.
    pub fn admit(&mut self, now: f64, rel_change: f64) -> bool {
        if !self.would_admit(now, rel_change) {
            return false;
        }
        self.last_change = Some(now);
        true
    }

    /// Records a change applied outside the gate's judgment (e.g. a
    /// forced degradation to best-effort parameters), restarting the
    /// dwell clock so follow-up changes are still rate-limited.
    pub fn force(&mut self, now: f64) {
        self.last_change = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(dwell: f64, deadband: f64) -> HysteresisGate {
        HysteresisGate::new(HysteresisConfig {
            min_dwell: dwell,
            deadband,
        })
    }

    #[test]
    fn first_material_change_passes() {
        let mut g = gate(10.0, 0.05);
        assert!(g.admit(0.0, 0.2));
        assert_eq!(g.last_change(), Some(0.0));
    }

    #[test]
    fn deadband_discards_immaterial_changes() {
        let mut g = gate(0.0, 0.05);
        assert!(!g.admit(0.0, 0.05)); // at the band edge: immaterial
        assert!(!g.admit(1.0, 0.01));
        assert!(g.last_change().is_none());
        assert!(g.admit(2.0, 0.051));
    }

    #[test]
    fn dwell_blocks_until_elapsed() {
        let mut g = gate(10.0, 0.0);
        assert!(g.admit(0.0, 1.0));
        assert!(!g.admit(9.999, 1.0));
        assert!(g.last_change() == Some(0.0), "rejection must not re-arm");
        assert!(g.admit(10.0, 1.0));
        assert_eq!(g.last_change(), Some(10.0));
    }

    #[test]
    fn force_restarts_the_dwell_clock() {
        let mut g = gate(10.0, 0.0);
        g.force(5.0);
        assert!(!g.admit(14.0, 1.0));
        assert!(g.admit(15.0, 1.0));
    }

    #[test]
    fn would_admit_is_side_effect_free() {
        let g = gate(10.0, 0.05);
        assert!(g.would_admit(0.0, 1.0));
        assert!(g.last_change().is_none());
    }

    #[test]
    fn rel_change_is_symmetric_enough() {
        assert!((HysteresisGate::rel_change(1.0, 1.1) - 0.1).abs() < 1e-12);
        assert_eq!(HysteresisGate::rel_change(2.0, 2.0), 0.0);
        // Zero current: any proposal is a huge relative change.
        assert!(HysteresisGate::rel_change(0.0, 1.0) > 1e6);
    }

    #[test]
    fn param_change_takes_worst_field() {
        let a = NfdUParams { eta: 1.0, alpha: 2.0 };
        let b = NfdUParams { eta: 1.01, alpha: 3.0 };
        let c = HysteresisGate::param_change(a, b);
        assert!((c - 0.5).abs() < 1e-12, "α moved 50%, got {c}");
    }

    #[test]
    fn zero_dwell_admits_back_to_back_changes() {
        let mut g = gate(0.0, 0.0);
        assert!(g.admit(5.0, 1.0));
        assert!(g.admit(5.0, 1.0), "dwell 0: same-instant change admitted");
        assert!(g.admit(5.0, 1.0));
    }

    #[test]
    fn nan_deadband_is_clamped_and_does_not_wedge_the_gate() {
        let mut g = gate(0.0, f64::NAN);
        assert_eq!(g.config().deadband, 0.0);
        assert!(g.admit(0.0, 0.5), "NaN deadband must not reject everything");
    }

    #[test]
    fn negative_and_infinite_inputs_are_clamped() {
        let g = gate(-3.0, -0.5);
        assert_eq!(g.config().min_dwell, 0.0);
        assert_eq!(g.config().deadband, 0.0);
        let g = gate(f64::INFINITY, f64::NEG_INFINITY);
        assert_eq!(g.config().min_dwell, 0.0, "infinite dwell would block forever");
        assert_eq!(g.config().deadband, 0.0);
        let mut g = gate(f64::NAN, 0.05);
        assert!(g.admit(0.0, 1.0));
        assert!(g.admit(0.0, 1.0), "NaN dwell clamps to 0, gate stays live");
    }

    #[test]
    fn nan_rel_change_is_rejected_not_admitted_by_accident() {
        let mut g = gate(0.0, 0.05);
        assert!(!g.would_admit(0.0, f64::NAN));
        assert!(!g.admit(0.0, f64::NAN));
        assert!(g.last_change().is_none(), "NaN proposal must not re-arm");
        // And the gate still works afterwards.
        assert!(g.admit(1.0, 0.5));
    }

    #[test]
    fn restore_round_trips() {
        let mut g = gate(10.0, 0.0);
        g.set_last_change(Some(7.0));
        assert_eq!(g.last_change(), Some(7.0));
        assert!(!g.admit(16.0, 1.0));
        assert!(g.admit(17.0, 1.0));
    }
}
