//! NFD-U: the new failure detector for unsynchronized clocks with known
//! expected arrival times (Fig. 9).

use super::{require, ParamError};
use crate::detector::{FailureDetector, Heartbeat};
use fd_metrics::FdOutput;

/// NFD-U with parameters `η` and `α` (Fig. 9).
///
/// Identical to [`NfdS`](super::NfdS) except in how the freshness points
/// are set: `q` shifts the *expected arrival times* of heartbeats rather
/// than their sending times — `τᵢ = EAᵢ + α`, where
/// `EAᵢ = σᵢ + E(D)` on `q`'s clock. Since `EAᵢ` is observable at `q`
/// (see [`NfdE`](super::NfdE) for the estimated variant), no clock
/// synchronization is needed; clocks only need to be drift-free.
///
/// The QoS analysis of NFD-U is that of NFD-S with `δ` replaced by
/// `E(D) + α` (§6.2), so its detection-time bound is
/// `T_D ≤ η + E(D) + α` — *relative* to the unknown mean delay, which is
/// why the §6 QoS requirement is stated as `T_D ≤ T_D^u + E(D)`.
///
/// State machine (Fig. 9): `ℓ` holds the largest sequence number received;
/// only `τ_{ℓ+1}` is materialized. If `q`'s clock reaches `τ_{ℓ+1}`, no
/// received message is still fresh and `q` suspects (lines 5–6); when a
/// message with a *higher* sequence number `j > ℓ` arrives at `t`, `q`
/// updates `ℓ`, recomputes `τ_{ℓ+1}`, and trusts iff `t < τ_{ℓ+1}`
/// (lines 8–11).
#[derive(Debug, Clone)]
pub struct NfdU {
    eta: f64,
    alpha: f64,
    /// `EAᵢ = i·η + ea_base` on `q`'s clock: `ea_base` bundles `E(D)` plus
    /// any constant offset between the clocks of `p` and `q`.
    ea_base: f64,
    /// `ℓ`: largest sequence number received (None = nothing yet; Fig. 9
    /// initializes `τ₀ = 0`, i.e. the detector suspects from time 0).
    max_seq: Option<u64>,
    /// `τ_{ℓ+1}` if it is still in the future (None once it fired or
    /// before any heartbeat).
    tau_next: Option<f64>,
    output: FdOutput,
}

impl NfdU {
    /// Creates an NFD-U instance.
    ///
    /// `eta` is the heartbeat intersending time `η`; `alpha` is the slack
    /// `α` added to expected arrival times; `ea_base` is `E(D)` plus the
    /// (constant) offset of `p`'s clock relative to `q`'s, so that
    /// `EAᵢ = i·η + ea_base` in `q`'s clock. In a system with synchronized
    /// clocks `ea_base = E(D)`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless `eta > 0`, `alpha > 0` (Theorem 11
    /// assumes `α > 0`), and `ea_base` is finite.
    pub fn new(eta: f64, alpha: f64, ea_base: f64) -> Result<Self, ParamError> {
        require(eta > 0.0 && eta.is_finite(), "eta", "> 0 and finite", eta)?;
        require(
            alpha > 0.0 && alpha.is_finite(),
            "alpha",
            "> 0 and finite",
            alpha,
        )?;
        require(ea_base.is_finite(), "ea_base", "finite", ea_base)?;
        Ok(Self {
            eta,
            alpha,
            ea_base,
            max_seq: None,
            tau_next: None,
            output: FdOutput::Suspect, // Fig. 9: suspecting from τ₀ = 0
        })
    }

    /// The intersending time `η`.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// The slack `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Expected arrival time `EAᵢ` of heartbeat `i` on `q`'s clock.
    fn expected_arrival(&self, i: u64) -> f64 {
        i as f64 * self.eta + self.ea_base
    }

    /// Largest heartbeat sequence number received so far (`ℓ`).
    pub fn max_seq_received(&self) -> Option<u64> {
        self.max_seq
    }
}

impl FailureDetector for NfdU {
    fn advance(&mut self, now: f64) {
        if let Some(tau) = self.tau_next {
            if tau <= now {
                // Lines 5–6: the freshest message expired.
                self.output = FdOutput::Suspect;
                self.tau_next = None;
            }
        }
    }

    fn on_heartbeat(&mut self, now: f64, hb: Heartbeat) {
        self.advance(now);
        if self.max_seq.is_none_or(|l| hb.seq > l) {
            // Lines 9–11.
            self.max_seq = Some(hb.seq);
            let tau = self.expected_arrival(hb.seq + 1) + self.alpha;
            if now < tau {
                self.tau_next = Some(tau);
                self.output = FdOutput::Trust;
            } else {
                // m_ℓ is already stale on arrival; τ_{ℓ+1} is in the past.
                self.tau_next = None;
                self.output = FdOutput::Suspect;
            }
        }
    }

    fn output(&self) -> FdOutput {
        self.output
    }

    fn next_deadline(&self) -> Option<f64> {
        self.tau_next
    }

    fn name(&self) -> &'static str {
        "NFD-U"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// η = 1, α = 1.5, E(D) = 0.5 ⇒ EAᵢ = i + 0.5, τᵢ = i + 2.
    fn fd() -> NfdU {
        NfdU::new(1.0, 1.5, 0.5).unwrap()
    }

    #[test]
    fn suspects_until_first_heartbeat() {
        let mut fd = fd();
        assert_eq!(fd.output_at(0.0), FdOutput::Suspect);
        assert_eq!(fd.output_at(10.0), FdOutput::Suspect);
        assert!(fd.next_deadline().is_none());
    }

    #[test]
    fn trusts_until_next_freshness_deadline() {
        let mut fd = fd();
        fd.on_heartbeat(1.6, Heartbeat::new(1, 1.0));
        assert_eq!(fd.output(), FdOutput::Trust);
        // τ₂ = EA₂ + α = 2.5 + 1.5 = 4.
        assert_eq!(fd.next_deadline(), Some(4.0));
        assert_eq!(fd.output_at(3.999), FdOutput::Trust);
        assert_eq!(fd.output_at(4.0), FdOutput::Suspect);
        assert!(fd.next_deadline().is_none());
    }

    #[test]
    fn newer_heartbeat_extends_freshness() {
        let mut fd = fd();
        fd.on_heartbeat(1.6, Heartbeat::new(1, 1.0));
        fd.on_heartbeat(2.4, Heartbeat::new(2, 2.0));
        // τ₃ = 3.5 + 1.5 = 5.
        assert_eq!(fd.next_deadline(), Some(5.0));
        assert_eq!(fd.output_at(4.5), FdOutput::Trust);
    }

    #[test]
    fn stale_heartbeat_is_ignored() {
        let mut fd = fd();
        fd.on_heartbeat(2.4, Heartbeat::new(2, 2.0));
        let deadline = fd.next_deadline();
        // m₁ arrives late and out of order: j = 1 ≤ ℓ = 2 ⇒ ignored.
        fd.on_heartbeat(2.6, Heartbeat::new(1, 1.0));
        assert_eq!(fd.next_deadline(), deadline);
        assert_eq!(fd.max_seq_received(), Some(2));
    }

    #[test]
    fn heartbeat_arriving_after_its_own_deadline() {
        // m₁ arrives at t = 4.2 > τ₂ = 4: line 11's guard fails; q keeps
        // suspecting (the message is already stale).
        let mut fd = fd();
        fd.on_heartbeat(4.2, Heartbeat::new(1, 1.0));
        assert_eq!(fd.output(), FdOutput::Suspect);
        assert!(fd.next_deadline().is_none());
        // But a newer heartbeat revives trust.
        fd.on_heartbeat(4.3, Heartbeat::new(4, 4.0));
        assert_eq!(fd.output(), FdOutput::Trust);
        assert_eq!(fd.next_deadline(), Some(7.0)); // EA₅ + α = 5.5 + 1.5
    }

    #[test]
    fn mistake_corrected_by_next_heartbeat() {
        // Fig. 5b shape: deadline passes (S-transition), then a fresh
        // heartbeat restores trust (T-transition).
        let mut fd = fd();
        fd.on_heartbeat(1.6, Heartbeat::new(1, 1.0));
        assert_eq!(fd.output_at(4.0), FdOutput::Suspect); // τ₂ fired
        fd.on_heartbeat(4.6, Heartbeat::new(2, 2.0));
        // τ₃ = 5 > 4.6 ⇒ trust.
        assert_eq!(fd.output(), FdOutput::Trust);
    }

    #[test]
    fn crash_detection_is_permanent() {
        let mut fd = fd();
        fd.on_heartbeat(3.6, Heartbeat::new(3, 3.0));
        // τ₄ = 4.5 + 1.5 = 6; no further heartbeats after the crash.
        assert_eq!(fd.output_at(5.99), FdOutput::Trust);
        assert_eq!(fd.output_at(6.0), FdOutput::Suspect);
        assert_eq!(fd.output_at(500.0), FdOutput::Suspect);
    }

    #[test]
    fn clock_offset_shifts_expected_arrivals() {
        // p's clock is 100 s ahead of q's: ea_base = E(D) − 100… from q's
        // view, EAᵢ = i·η + 0.5 − 100. NFD-U only needs ea_base, not the
        // decomposition.
        let fd = NfdU::new(1.0, 1.5, 0.5 - 100.0).unwrap();
        assert!((fd.expected_arrival(2) - (2.0 + 0.5 - 100.0)).abs() < 1e-12);
    }

    #[test]
    fn exactly_at_deadline_is_suspect() {
        // Right-continuity: at τ_{ℓ+1} exactly the output is S, and a
        // heartbeat arriving exactly then (t < τ fails) does not trust.
        let mut fd = fd();
        fd.on_heartbeat(1.6, Heartbeat::new(1, 1.0));
        fd.on_heartbeat(4.0, Heartbeat::new(2, 2.0));
        // τ₃ = 5 > 4 ⇒ this one does trust. Try the boundary of m₂'s own
        // deadline instead: m₂'s τ₃ = 5; heartbeat m₃ arriving at exactly
        // its τ₄ = 6:
        fd.advance(5.5);
        fd.on_heartbeat(6.0, Heartbeat::new(3, 3.0));
        // τ₄ = EA₄ + α = 4.5 + 1.5 = 6.0; now = 6.0 is NOT < 6.0 ⇒ suspect.
        assert_eq!(fd.output(), FdOutput::Suspect);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(NfdU::new(0.0, 1.0, 0.0).is_err());
        assert!(NfdU::new(1.0, 0.0, 0.0).is_err()); // α must be > 0
        assert!(NfdU::new(1.0, -1.0, 0.0).is_err());
        assert!(NfdU::new(1.0, 1.0, f64::NAN).is_err());
    }

    #[test]
    fn accessors() {
        let fd = fd();
        assert_eq!(fd.eta(), 1.0);
        assert_eq!(fd.alpha(), 1.5);
        assert_eq!(fd.name(), "NFD-U");
        assert_eq!(fd.max_seq_received(), None);
    }
}
