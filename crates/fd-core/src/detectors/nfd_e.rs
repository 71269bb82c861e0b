//! NFD-E: NFD-U with *estimated* expected arrival times (§6.3).

use super::{require, ParamError};
use crate::detector::{FailureDetector, Heartbeat};
use crate::estimate::ArrivalTimeEstimator;
use fd_metrics::FdOutput;

/// NFD-E with parameters `η`, `α` and estimation window `n` (§6.3).
///
/// In practice `q` does not know the expected arrival times `EAᵢ`, so it
/// estimates them from the `n` most recent heartbeats (Eq. 6.3):
///
/// ```text
/// EA_{ℓ+1} ≈ (1/n) Σᵢ (A'ᵢ − η·sᵢ)  +  (ℓ+1)·η
/// ```
///
/// where `A'ᵢ` are receipt times on `q`'s local clock and `sᵢ` the
/// sequence numbers. The estimate needs neither synchronized clocks nor
/// sender timestamps. The paper reports that NFD-E and NFD-U are
/// "practically indistinguishable for values of `n` as low as 30" and
/// uses `n = 32` in the Fig. 12 simulations; experiment E7 reproduces
/// that claim.
///
/// Apart from replacing `EA_{ℓ+1}` with its estimate on line 10 of Fig. 9,
/// the state machine is identical to [`NfdU`](super::NfdU).
#[derive(Debug, Clone)]
pub struct NfdE {
    eta: f64,
    alpha: f64,
    estimator: ArrivalTimeEstimator,
    max_seq: Option<u64>,
    tau_next: Option<f64>,
    output: FdOutput,
}

impl NfdE {
    /// Creates an NFD-E instance with intersending time `eta`, slack
    /// `alpha`, and an estimation window of the `window` most recent
    /// heartbeats.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless `eta > 0`, `alpha > 0` and
    /// `window ≥ 1`.
    pub fn new(eta: f64, alpha: f64, window: usize) -> Result<Self, ParamError> {
        require(eta > 0.0 && eta.is_finite(), "eta", "> 0 and finite", eta)?;
        require(
            alpha > 0.0 && alpha.is_finite(),
            "alpha",
            "> 0 and finite",
            alpha,
        )?;
        require(window >= 1, "window", ">= 1", window as f64)?;
        Ok(Self {
            eta,
            alpha,
            estimator: ArrivalTimeEstimator::new(eta, window),
            max_seq: None,
            tau_next: None,
            output: FdOutput::Suspect,
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

    /// The estimation window size `n`.
    pub fn window(&self) -> usize {
        self.estimator.window()
    }

    /// Rebuilds an NFD-E instance from previously captured state — the
    /// crash-recovery path: a monitor restarted from a snapshot resumes
    /// with a *warm* Eq. (6.3) window instead of a blind cold start.
    ///
    /// `samples` are the normalized receipt times from
    /// [`estimator_samples`](Self::estimator_samples), oldest first
    /// (extras beyond `window` evict normally); `max_seq` is the last `ℓ`
    /// seen. The restored detector outputs `Suspect` with no armed
    /// freshness point — failing safe, since the monitor cannot vouch for
    /// anything that happened while it was down — and the first *fresh*
    /// heartbeat (`seq > max_seq`) restores trust with a warm estimate.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] under the same conditions as
    /// [`new`](Self::new).
    pub fn restore(
        eta: f64,
        alpha: f64,
        window: usize,
        samples: &[f64],
        max_seq: Option<u64>,
    ) -> Result<Self, ParamError> {
        let mut fd = Self::new(eta, alpha, window)?;
        for &s in samples {
            fd.estimator.restore_sample(s);
        }
        fd.max_seq = max_seq;
        Ok(fd)
    }

    /// Returns the detector to the state [`new`](Self::new) builds —
    /// empty estimation window, no sequence number seen, no freshness
    /// point, output `Suspect` — keeping `η`, `α`, the window size and
    /// the window's buffer: what a monitor does when the monitored
    /// process starts a new life, without freeing and re-allocating.
    pub fn reset(&mut self) {
        self.estimator.clear();
        self.max_seq = None;
        self.tau_next = None;
        self.output = FdOutput::Suspect;
    }

    /// Changes the slack `α` in place at time `now` — the §8.1 adaptive
    /// transition point. The estimation window, sequence high-water mark
    /// and freshness machinery all carry over warm: the pending deadline
    /// is recomputed as `EA_{ℓ+1} + α'`, i.e. it shifts by exactly Δα.
    /// Any transition this causes *at `now`* is genuine under the new
    /// parameters: a tighter slack can expire a previously fresh
    /// deadline, and a looser one can move an expired freshness point
    /// back into the future.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless `alpha > 0` and finite; the
    /// detector is unchanged on error.
    pub fn retune_alpha(&mut self, alpha: f64, now: f64) -> Result<(), ParamError> {
        require(
            alpha > 0.0 && alpha.is_finite(),
            "alpha",
            "> 0 and finite",
            alpha,
        )?;
        self.alpha = alpha;
        if let Some(l) = self.max_seq {
            if let Some(ea) = self.estimator.estimate(l + 1) {
                let tau = ea + alpha;
                if now < tau {
                    self.tau_next = Some(tau);
                    self.output = FdOutput::Trust;
                } else {
                    self.tau_next = None;
                    self.output = FdOutput::Suspect;
                }
            }
        }
        Ok(())
    }

    /// The estimation window's normalized samples, oldest first — the
    /// serializable state [`restore`](Self::restore) consumes, borrowed
    /// from the window (a snapshot writer encodes them straight out of
    /// the detector).
    pub fn estimator_samples(&self) -> impl Iterator<Item = f64> + Clone + '_ {
        self.estimator.samples()
    }

    /// Number of heartbeats currently in the estimation window.
    pub fn estimator_len(&self) -> usize {
        self.estimator.len()
    }

    /// Largest heartbeat sequence number received so far (`ℓ`).
    pub fn max_seq_received(&self) -> Option<u64> {
        self.max_seq
    }

    /// Current estimate of `EAᵢ`, if at least one heartbeat was received.
    pub fn estimated_arrival(&self, i: u64) -> Option<f64> {
        self.estimator.estimate(i)
    }
}

impl FailureDetector for NfdE {
    #[inline]
    fn advance(&mut self, now: f64) {
        if let Some(tau) = self.tau_next {
            if tau <= now {
                self.output = FdOutput::Suspect;
                self.tau_next = None;
            }
        }
    }

    #[inline]
    fn on_heartbeat(&mut self, now: f64, hb: Heartbeat) {
        self.advance(now);
        if self.max_seq.is_none_or(|l| hb.seq > l) {
            self.max_seq = Some(hb.seq);
            // Eq. 6.3 considers the n most recent messages *including* the
            // one just received.
            self.estimator.observe(now, hb.seq);
            let ea_next = self
                .estimator
                .estimate(hb.seq + 1)
                .expect("estimator has at least this observation");
            let tau = ea_next + self.alpha;
            if now < tau {
                self.tau_next = Some(tau);
                self.output = FdOutput::Trust;
            } else {
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
        "NFD-E"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suspects_until_first_heartbeat() {
        let mut fd = NfdE::new(1.0, 1.5, 8).unwrap();
        assert_eq!(fd.output_at(5.0), FdOutput::Suspect);
        assert!(fd.next_deadline().is_none());
    }

    #[test]
    fn single_observation_estimate() {
        // One heartbeat m₁ at A' = 1.5 ⇒ normalized 1.5 − 1 = 0.5 ⇒
        // EA₂ = 0.5 + 2 = 2.5, τ₂ = 4.0 with α = 1.5.
        let mut fd = NfdE::new(1.0, 1.5, 8).unwrap();
        fd.on_heartbeat(1.5, Heartbeat::new(1, 1.0));
        assert_eq!(fd.output(), FdOutput::Trust);
        assert_eq!(fd.next_deadline(), Some(4.0));
        assert_eq!(fd.estimated_arrival(2), Some(2.5));
    }

    #[test]
    fn estimate_averages_window() {
        // Arrivals at σᵢ + dᵢ with d = 0.2, 0.4, 0.6 ⇒ mean offset 0.4.
        let mut fd = NfdE::new(1.0, 1.0, 8).unwrap();
        fd.on_heartbeat(1.2, Heartbeat::new(1, 1.0));
        fd.on_heartbeat(2.4, Heartbeat::new(2, 2.0));
        fd.on_heartbeat(3.6, Heartbeat::new(3, 3.0));
        // EA₄ = 4 + 0.4 = 4.4, τ₄ = 5.4.
        let ea = fd.estimated_arrival(4).unwrap();
        assert!((ea - 4.4).abs() < 1e-12);
        assert_eq!(fd.next_deadline(), Some(5.4));
    }

    #[test]
    fn window_evicts_old_observations() {
        // Window of 2: only the last two normalized offsets count.
        let mut fd = NfdE::new(1.0, 1.0, 2).unwrap();
        fd.on_heartbeat(1.9, Heartbeat::new(1, 1.0)); // offset 0.9
        fd.on_heartbeat(2.1, Heartbeat::new(2, 2.0)); // offset 0.1
        fd.on_heartbeat(3.1, Heartbeat::new(3, 3.0)); // offset 0.1
        // Mean of {0.1, 0.1} = 0.1 ⇒ EA₄ = 4.1.
        assert!((fd.estimated_arrival(4).unwrap() - 4.1).abs() < 1e-12);
    }

    #[test]
    fn works_with_unsynchronized_clocks() {
        // q's clock is 1000 s behind p's: receipt times include the skew,
        // and so do the estimates — consistently, so behavior matches the
        // skew-free run shifted by the constant.
        let skew = -1000.0;
        let mut fd = NfdE::new(1.0, 1.5, 4).unwrap();
        // p sends at σᵢ = i (p-clock); q receives at i + 0.5 + skew
        // (q-clock).
        for i in 1..=4u64 {
            fd.on_heartbeat(i as f64 + 0.5 + skew, Heartbeat::new(i, i as f64));
            assert_eq!(fd.output(), FdOutput::Trust);
        }
        // τ₆… deadline should track q-clock times.
        let tau = fd.next_deadline().unwrap();
        assert!((tau - (5.0 + 0.5 + skew + 1.5)).abs() < 1e-9);
    }

    #[test]
    fn suspicion_and_recovery() {
        let mut fd = NfdE::new(1.0, 0.5, 4).unwrap();
        fd.on_heartbeat(1.1, Heartbeat::new(1, 1.0));
        // τ₂ ≈ 2.1 + 0.5 = 2.6; m₂ lost; suspect at 2.6.
        assert_eq!(fd.output_at(2.6), FdOutput::Suspect);
        // m₃ arrives at 3.15: EA₄ = mean(0.1, 0.15) + 4 = 4.125, τ₄ = 4.625.
        fd.on_heartbeat(3.15, Heartbeat::new(3, 3.0));
        assert_eq!(fd.output(), FdOutput::Trust);
        let tau = fd.next_deadline().unwrap();
        assert!((tau - 4.625).abs() < 1e-9);
    }

    #[test]
    fn stale_sequence_ignored_and_not_observed() {
        let mut fd = NfdE::new(1.0, 1.0, 4).unwrap();
        fd.on_heartbeat(2.2, Heartbeat::new(2, 2.0));
        let ea_before = fd.estimated_arrival(3).unwrap();
        // Old m₁ arrives very late: must not pollute the estimator
        // (Fig. 9 line 8 guards the whole update with j > ℓ).
        fd.on_heartbeat(9.0, Heartbeat::new(1, 1.0));
        assert_eq!(fd.estimated_arrival(3), Some(ea_before));
        assert_eq!(fd.max_seq_received(), Some(2));
    }

    #[test]
    fn crash_detection_is_permanent() {
        let mut fd = NfdE::new(1.0, 1.0, 4).unwrap();
        for i in 1..=10u64 {
            fd.on_heartbeat(i as f64 + 0.2, Heartbeat::new(i, i as f64));
        }
        // Last heartbeat m₁₀ at 10.2; EA₁₁ = 11.2; τ₁₁ = 12.2.
        assert_eq!(fd.output_at(12.19), FdOutput::Trust);
        assert_eq!(fd.output_at(12.2), FdOutput::Suspect);
        assert_eq!(fd.output_at(1e6), FdOutput::Suspect);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(NfdE::new(0.0, 1.0, 4).is_err());
        assert!(NfdE::new(1.0, 0.0, 4).is_err());
        assert!(NfdE::new(1.0, 1.0, 0).is_err());
    }

    #[test]
    fn restore_resumes_with_warm_estimates() {
        let mut fd = NfdE::new(1.0, 1.0, 4).unwrap();
        for i in 1..=3u64 {
            fd.on_heartbeat(i as f64 + 0.4, Heartbeat::new(i, i as f64));
        }
        let samples: Vec<f64> = fd.estimator_samples().collect();
        assert_eq!(samples.len(), 3);

        let restored =
            NfdE::restore(1.0, 1.0, 4, &samples, fd.max_seq_received()).unwrap();
        // Fail-safe on restore: suspect, no armed deadline...
        assert_eq!(restored.output(), FdOutput::Suspect);
        assert!(restored.next_deadline().is_none());
        assert_eq!(restored.estimator_len(), 3);
        // ...but the estimate is warm, identical to pre-restart.
        assert_eq!(restored.estimated_arrival(4), fd.estimated_arrival(4));

        // A stale (pre-restart) sequence number cannot resurrect trust.
        let mut restored = restored;
        restored.on_heartbeat(10.0, Heartbeat::new(2, 2.0));
        assert_eq!(restored.output(), FdOutput::Suspect);
        // A fresh one restores trust with the warm window.
        restored.on_heartbeat(4.4, Heartbeat::new(4, 4.0));
        assert_eq!(restored.output(), FdOutput::Trust);
        assert!((restored.next_deadline().unwrap() - 6.4).abs() < 1e-9);
    }

    #[test]
    fn restore_evicts_oversized_sample_sets() {
        let samples = [0.1, 0.2, 0.3, 0.4, 0.5];
        let fd = NfdE::restore(1.0, 1.0, 2, &samples, Some(5)).unwrap();
        assert_eq!(fd.estimator_len(), 2);
        // Window mean over the two newest samples: (0.4 + 0.5)/2 = 0.45.
        assert!((fd.estimated_arrival(6).unwrap() - 6.45).abs() < 1e-12);
    }

    #[test]
    fn retune_alpha_shifts_deadline_without_losing_state() {
        let mut fd = NfdE::new(1.0, 1.0, 4).unwrap();
        for i in 1..=3u64 {
            fd.on_heartbeat(i as f64 + 0.4, Heartbeat::new(i, i as f64));
        }
        // τ₄ = 4.4 + 1.0 = 5.4 before; retune at 3.4 to α = 2.5.
        assert_eq!(fd.next_deadline(), Some(5.4));
        fd.retune_alpha(2.5, 3.4).unwrap();
        assert_eq!(fd.output(), FdOutput::Trust, "fresh peer stays trusted");
        assert!((fd.next_deadline().unwrap() - 6.9).abs() < 1e-9, "deadline shifts by Δα");
        assert_eq!(fd.estimator_len(), 3, "window carries over");
        assert_eq!(fd.max_seq_received(), Some(3));

        // A tighter slack that expires the deadline is a genuine
        // suspicion; a looser one re-arms and re-trusts.
        fd.retune_alpha(0.01, 4.5).unwrap();
        assert_eq!(fd.output(), FdOutput::Suspect);
        assert!(fd.next_deadline().is_none());
        fd.retune_alpha(1.5, 4.5).unwrap();
        assert_eq!(fd.output(), FdOutput::Trust);
        assert_eq!(fd.next_deadline(), Some(5.9));

        // Invalid α leaves the detector untouched.
        assert!(fd.retune_alpha(0.0, 4.5).is_err());
        assert_eq!(fd.alpha(), 1.5);

        // Before any heartbeat: α changes, output stays fail-safe.
        let mut cold = NfdE::new(1.0, 1.0, 4).unwrap();
        cold.retune_alpha(3.0, 0.0).unwrap();
        assert_eq!(cold.output(), FdOutput::Suspect);
        assert!(cold.next_deadline().is_none());
        assert_eq!(cold.alpha(), 3.0);
    }

    #[test]
    fn reset_is_observationally_a_fresh_detector() {
        // One heartbeat script, replayed into a detector that has lived
        // (window wrapped, trusted, α retuned) and was reset, and into a
        // fresh one with the same parameters: outputs, deadlines,
        // estimates and window contents must agree bit for bit.
        let script = |fd: &mut NfdE| {
            let mut seen = Vec::new();
            for (i, seq) in [1u64, 2, 3, 5, 4, 6, 7, 8, 12, 13].into_iter().enumerate() {
                let now = 100.0 + seq as f64 * 0.5 + 0.013 * (i * i) as f64;
                fd.on_heartbeat(now, Heartbeat::new(seq, seq as f64 * 0.5));
                seen.push((
                    fd.output(),
                    fd.next_deadline().map(f64::to_bits),
                    fd.estimated_arrival(seq + 1).map(f64::to_bits),
                    fd.max_seq_received(),
                    fd.estimator_len(),
                    fd.output_at(now + 0.4),
                    fd.output_at(now + 3.0),
                ));
            }
            (seen, fd.estimator_samples().map(f64::to_bits).collect::<Vec<_>>())
        };
        let mut used = NfdE::new(0.5, 0.75, 4).unwrap();
        for seq in 1..=9u64 {
            used.on_heartbeat(seq as f64 * 0.5 + 0.2, Heartbeat::new(seq, seq as f64 * 0.5));
        }
        used.retune_alpha(1.25, 4.8).unwrap();
        assert_eq!(used.output(), FdOutput::Trust);
        used.reset();
        assert_eq!(used.output(), FdOutput::Suspect);
        assert_eq!((used.next_deadline(), used.max_seq_received()), (None, None));
        assert_eq!((used.estimator_len(), used.estimated_arrival(1)), (0, None));
        assert_eq!((used.eta(), used.alpha(), used.window()), (0.5, 1.25, 4));

        let mut fresh = NfdE::new(0.5, 1.25, 4).unwrap();
        assert_eq!(script(&mut used), script(&mut fresh));
    }

    #[test]
    fn accessors() {
        let fd = NfdE::new(2.0, 3.0, 16).unwrap();
        assert_eq!(fd.eta(), 2.0);
        assert_eq!(fd.alpha(), 3.0);
        assert_eq!(fd.window(), 16);
        assert_eq!(fd.name(), "NFD-E");
        assert!(fd.estimated_arrival(1).is_none());
    }
}
