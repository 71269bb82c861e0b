//! NFD-S: the new failure detector for synchronized clocks (Fig. 6).

use super::{require, ParamError};
use crate::detector::{FailureDetector, Heartbeat};
use fd_metrics::FdOutput;

/// The paper's new failure-detector algorithm with parameters `η` and `δ`
/// (Fig. 6), for systems with synchronized clocks.
///
/// `p` sends heartbeat `mᵢ` at `σᵢ = i·η`; `q` precomputes *freshness
/// points* `τᵢ = σᵢ + δ` and, for `t ∈ [τᵢ, τᵢ₊₁)`, trusts `p` iff it has
/// received some `m_j` with `j ≥ i` by time `t` (Lemma 2). With the
/// convention `τ₀ = 0`, before `τ₁` the detector trusts iff it has
/// received *any* heartbeat (it starts suspecting, line 2 of Fig. 6).
///
/// Key properties proved in the paper:
///
/// * `T_D ≤ δ + η`, and the bound is tight (Theorem 5.1) — independent of
///   the *maximum* message delay, unlike the common algorithm;
/// * the probability of a premature timeout on `mᵢ` does not depend on the
///   heartbeats that precede `mᵢ` (§1.2.1);
/// * among all detectors with the same heartbeat rate and the same
///   detection-time bound, NFD-S has the highest query accuracy
///   probability (Theorem 6).
///
/// # Example
///
/// ```
/// use fd_core::detectors::NfdS;
/// use fd_core::{FailureDetector, Heartbeat};
/// use fd_metrics::FdOutput;
///
/// # fn main() -> Result<(), fd_core::detectors::ParamError> {
/// let mut fd = NfdS::new(1.0, 0.5)?; // η = 1, δ = 0.5; τᵢ = i + 0.5
/// fd.on_heartbeat(1.1, Heartbeat::new(1, 1.0));
/// assert_eq!(fd.output_at(1.4), FdOutput::Trust);   // m₁ fresh until τ₂
/// assert_eq!(fd.output_at(2.5), FdOutput::Suspect); // τ₂: no m_j, j ≥ 2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NfdS {
    eta: f64,
    delta: f64,
    /// `ℓ`: the largest heartbeat sequence number received, if any.
    max_seq: Option<u64>,
    /// Index of the next unprocessed freshness point `τᵢ = i·η + δ`.
    next_fp: u64,
    output: FdOutput,
}

impl NfdS {
    /// Creates an NFD-S instance with intersending time `eta` (`η`) and
    /// freshness-point shift `delta` (`δ`).
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless `eta > 0` and `delta ≥ 0`, both
    /// finite.
    pub fn new(eta: f64, delta: f64) -> Result<Self, ParamError> {
        require(eta > 0.0 && eta.is_finite(), "eta", "> 0 and finite", eta)?;
        require(
            delta >= 0.0 && delta.is_finite(),
            "delta",
            ">= 0 and finite",
            delta,
        )?;
        Ok(Self {
            eta,
            delta,
            max_seq: None,
            next_fp: 1,
            output: FdOutput::Suspect, // line 2: suspect p initially
        })
    }

    /// The intersending time `η`.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// The freshness-point shift `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The tight worst-case detection time `δ + η` (Theorem 5.1).
    pub fn detection_time_bound(&self) -> f64 {
        self.delta + self.eta
    }

    /// The freshness point `τᵢ = i·η + δ` (for `i ≥ 1`; `τ₀ = 0`).
    pub fn freshness_point(&self, i: u64) -> f64 {
        if i == 0 {
            0.0
        } else {
            i as f64 * self.eta + self.delta
        }
    }

    /// Largest heartbeat sequence number received so far.
    pub fn max_seq_received(&self) -> Option<u64> {
        self.max_seq
    }

    /// Whether `m_j` with `j ≥ i` has been received (`ℓ ≥ i`); `i = 0`
    /// requires only that *some* heartbeat arrived.
    fn has_fresh(&self, i: u64) -> bool {
        self.max_seq.is_some_and(|l| l >= i)
    }
}

impl FailureDetector for NfdS {
    fn advance(&mut self, now: f64) {
        // Fast path: while suspecting with no fresh message in store, every
        // remaining freshness point up to `now` keeps the output S — jump.
        // (`ℓ < next_fp` implies `ℓ < i` for every skipped `i ≥ next_fp`.)
        if self.output == FdOutput::Suspect && !self.has_fresh(self.next_fp) {
            // Estimate the target index, then land *below* it and walk
            // forward using the exact `freshness_point` comparison that
            // `next_deadline` uses. The floor-estimate alone can round to
            // one index *less* than `next_fp` (e.g. δ = 0.3 makes
            // (τᵢ − δ)/η = i − ε), which would leave the deadline
            // unchanged and spin any driver that advances deadline by
            // deadline.
            let est = ((now - self.delta) / self.eta).floor();
            if est > self.next_fp as f64 + 1.0 {
                self.next_fp = (est as u64 - 1).max(self.next_fp);
            }
            while self.freshness_point(self.next_fp) <= now {
                self.next_fp += 1;
            }
            return;
        }
        while self.freshness_point(self.next_fp) <= now {
            let i = self.next_fp;
            let fresh = self.has_fresh(i);
            // Invariant: a freshness point can only cause an S-transition
            // (if q suspected during [τᵢ₋₁, τᵢ), then ℓ < i−1 < i).
            debug_assert!(
                !(self.output == FdOutput::Suspect && fresh),
                "freshness point produced a T-transition"
            );
            self.output = if fresh {
                FdOutput::Trust
            } else {
                FdOutput::Suspect
            };
            self.next_fp = i + 1;
        }
    }

    fn on_heartbeat(&mut self, now: f64, hb: Heartbeat) {
        self.advance(now);
        self.max_seq = Some(self.max_seq.map_or(hb.seq, |l| l.max(hb.seq)));
        // Current interval is [τᵢ, τᵢ₊₁) with i = next_fp − 1.
        let i = self.next_fp - 1;
        if self.has_fresh(i) {
            self.output = FdOutput::Trust; // line 6: m_j with j ≥ i is fresh
        }
    }

    fn output(&self) -> FdOutput {
        self.output
    }

    fn next_deadline(&self) -> Option<f64> {
        // While trusting on `m_ℓ`, every freshness point up to `τ_ℓ` finds
        // it fresh: the output cannot change before `τ_{ℓ+1}`.
        match self.max_seq {
            Some(l) if self.output == FdOutput::Trust => Some(self.freshness_point(l + 1)),
            _ => Some(self.freshness_point(self.next_fp)),
        }
    }

    fn name(&self) -> &'static str {
        "NFD-S"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// η = 1, δ = 2: τ₁ = 3, τ₂ = 4, τ₃ = 5, …
    fn fd() -> NfdS {
        NfdS::new(1.0, 2.0).unwrap()
    }

    #[test]
    fn suspects_initially_until_first_heartbeat() {
        let mut fd = fd();
        assert_eq!(fd.output_at(0.0), FdOutput::Suspect);
        assert_eq!(fd.output_at(2.9), FdOutput::Suspect);
        fd.on_heartbeat(1.5, Heartbeat::new(1, 1.0));
        assert_eq!(fd.output(), FdOutput::Trust); // interval [τ₀, τ₁), any m_j
    }

    #[test]
    fn fig5a_message_received_before_freshness_point() {
        // m₂ (sent at 2) arrives at 2.5 < τ₂ = 4 ⇒ q trusts during [τ₂, τ₃).
        let mut fd = fd();
        fd.on_heartbeat(2.5, Heartbeat::new(2, 2.0));
        assert_eq!(fd.output_at(4.0), FdOutput::Trust);
        assert_eq!(fd.output_at(4.999), FdOutput::Trust);
    }

    #[test]
    fn fig5b_message_received_inside_interval() {
        // No m_j with j ≥ 2 by τ₂ = 4 ⇒ suspect at 4; m₂ arrives at 4.3 ⇒
        // trust from 4.3 until τ₃ = 5 (then suspect again: no m_j, j ≥ 3).
        let mut fd = fd();
        fd.on_heartbeat(3.2, Heartbeat::new(1, 1.0)); // keeps [τ₁,τ₂) trusted
        assert_eq!(fd.output_at(4.0), FdOutput::Suspect);
        fd.on_heartbeat(4.3, Heartbeat::new(2, 2.0));
        assert_eq!(fd.output(), FdOutput::Trust);
        assert_eq!(fd.output_at(5.0), FdOutput::Suspect);
    }

    #[test]
    fn fig5c_message_never_received_in_interval() {
        // No fresh message throughout [τ₂, τ₃): suspect for the whole
        // interval.
        let mut fd = fd();
        fd.on_heartbeat(3.5, Heartbeat::new(1, 1.0));
        for t in [4.0, 4.2, 4.7, 4.99] {
            assert_eq!(fd.output_at(t), FdOutput::Suspect, "at {t}");
        }
    }

    #[test]
    fn lemma2_late_message_still_fresh() {
        // A *later* message m_j with j ≥ i restores trust even if mᵢ is
        // lost: at t ∈ [τ₂, τ₃), receipt of m₅ (j = 5 ≥ 2) sets T.
        let mut fd = fd();
        assert_eq!(fd.output_at(4.1), FdOutput::Suspect);
        fd.on_heartbeat(4.2, Heartbeat::new(5, 5.0));
        assert_eq!(fd.output(), FdOutput::Trust);
        // m₅ stays fresh through [τ₅, τ₆) = [7, 8).
        assert_eq!(fd.output_at(7.999), FdOutput::Trust);
        assert_eq!(fd.output_at(8.0), FdOutput::Suspect);
    }

    #[test]
    fn out_of_order_old_message_is_not_fresh() {
        // At t ∈ [τ₃, τ₄) = [5, 6), receipt of old m₂ (j = 2 < 3) does not
        // restore trust.
        let mut fd = fd();
        assert_eq!(fd.output_at(5.1), FdOutput::Suspect);
        fd.on_heartbeat(5.2, Heartbeat::new(2, 2.0));
        assert_eq!(fd.output(), FdOutput::Suspect);
    }

    #[test]
    fn exactly_at_freshness_point_boundary() {
        // Message arriving exactly at τᵢ counts as received "by" τᵢ and the
        // interval [τᵢ, τᵢ₊₁) is trusted from τᵢ on.
        let mut fd1 = fd();
        fd1.on_heartbeat(4.0, Heartbeat::new(2, 2.0)); // τ₂ = 4.0
        assert_eq!(fd1.output(), FdOutput::Trust);
        // And right-continuity at a suspicion point:
        let mut fd2 = fd();
        fd2.on_heartbeat(3.0, Heartbeat::new(1, 1.0));
        assert_eq!(fd2.output_at(4.0), FdOutput::Suspect); // at τ₂ exactly
    }

    #[test]
    fn detection_time_bound_is_respected_after_crash() {
        // p crashes right after sending m₃ at σ₃ = 3; m₃ arrives. q must
        // suspect permanently by τ₄ = σ₃ + δ + η = 6 — i.e. within
        // δ + η = 3 of the crash.
        let mut fd = fd();
        fd.on_heartbeat(3.4, Heartbeat::new(3, 3.0));
        assert_eq!(fd.output_at(5.99), FdOutput::Trust);
        assert_eq!(fd.output_at(6.0), FdOutput::Suspect);
        // No more messages ever: stays suspected arbitrarily far out.
        assert_eq!(fd.output_at(1000.0), FdOutput::Suspect);
        assert!((fd.detection_time_bound() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fast_forward_skips_to_current_interval() {
        let mut fd = fd();
        // Jump far ahead with no heartbeats.
        assert_eq!(fd.output_at(1_000_000.5), FdOutput::Suspect);
        // Now a fresh heartbeat for the current interval restores trust.
        let i = fd.max_seq_received();
        assert!(i.is_none());
        fd.on_heartbeat(1_000_000.6, Heartbeat::new(2_000_000, 0.0));
        assert_eq!(fd.output(), FdOutput::Trust);
    }

    #[test]
    fn deadline_always_advances_under_fp_hostile_delta() {
        // Regression: δ = 0.3 makes (τᵢ − δ)/η round to i − ε, which once
        // froze the fast-path jump and spun deadline-driven simulators.
        for delta in [0.3, 0.1, 0.7, 1.3] {
            let mut fd = NfdS::new(1.0, delta).unwrap();
            let mut prev = 0.0;
            for step in 0..10_000 {
                let d = fd.next_deadline().expect("NFD-S always has a deadline");
                assert!(
                    d > prev,
                    "deadline stalled at {d} (step {step}, δ = {delta})"
                );
                fd.advance(d);
                prev = d;
            }
        }
    }

    #[test]
    fn next_deadline_is_next_freshness_point() {
        let mut fd = fd();
        assert_eq!(fd.next_deadline(), Some(3.0)); // τ₁
        fd.on_heartbeat(3.5, Heartbeat::new(1, 1.0));
        assert_eq!(fd.next_deadline(), Some(4.0)); // τ₂
    }

    #[test]
    fn trusting_deadline_skips_the_points_a_fresh_message_covers() {
        // m₅ arrives at 4.5, before τ₃ = 5: it keeps q trusting through
        // τ₃, τ₄, τ₅, so the first instant the output may change is τ₆.
        let mut fd = fd();
        fd.on_heartbeat(4.5, Heartbeat::new(5, 5.0));
        assert_eq!(fd.output(), FdOutput::Trust);
        assert_eq!(fd.next_deadline(), Some(8.0)); // τ₆
        assert_eq!(fd.output_at(7.999), FdOutput::Trust);
        assert_eq!(fd.output_at(8.0), FdOutput::Suspect);
        // Suspecting, the deadline is the next freshness point again.
        assert_eq!(fd.next_deadline(), Some(9.0)); // τ₇
    }

    #[test]
    fn accessors() {
        let fd = NfdS::new(2.0, 5.0).unwrap();
        assert_eq!(fd.eta(), 2.0);
        assert_eq!(fd.delta(), 5.0);
        assert_eq!(fd.freshness_point(0), 0.0);
        assert_eq!(fd.freshness_point(3), 11.0);
        assert_eq!(fd.name(), "NFD-S");
    }

    #[test]
    fn zero_delta_is_allowed() {
        // δ = 0: τᵢ = σᵢ; every heartbeat must arrive instantly to keep
        // trust — a legal (if harsh) configuration.
        let mut fd = NfdS::new(1.0, 0.0).unwrap();
        assert_eq!(fd.output_at(0.5), FdOutput::Suspect);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(NfdS::new(0.0, 1.0).is_err());
        assert!(NfdS::new(-1.0, 1.0).is_err());
        assert!(NfdS::new(1.0, -0.1).is_err());
        assert!(NfdS::new(f64::NAN, 1.0).is_err());
        assert!(NfdS::new(1.0, f64::INFINITY).is_err());
    }

    /// Brute-force oracle for Lemma 2: q trusts p at time t iff it has
    /// received some message m_j with j ≥ i by time t, where
    /// t ∈ [τᵢ, τᵢ₊₁).
    fn lemma2_oracle(eta: f64, delta: f64, arrivals: &[(f64, u64)], t: f64) -> FdOutput {
        // Interval index of t.
        let i = if t < eta + delta {
            0
        } else {
            ((t - delta) / eta).floor() as u64
        };
        let fresh = arrivals.iter().any(|&(at, seq)| at <= t && seq >= i);
        if fresh {
            FdOutput::Trust
        } else {
            FdOutput::Suspect
        }
    }

    proptest! {
        #[test]
        fn prop_matches_lemma2_oracle(
            // Arrival times and sequence numbers, arbitrary order/subset.
            raw in proptest::collection::vec((0.0f64..40.0, 1u64..40), 0..25),
            queries in proptest::collection::vec(0.0f64..50.0, 1..20),
        ) {
            let (eta, delta) = (1.0, 2.0);
            // Deliver in time order.
            let mut arrivals = raw.clone();
            arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let mut queries = queries.clone();
            queries.sort_by(|a, b| a.partial_cmp(b).unwrap());

            let mut fd = NfdS::new(eta, delta).unwrap();
            // A second instance stepped only at its own deadlines and at
            // arrivals, as the engine drives it: `next_deadline` must name
            // every instant its output can change.
            let mut by_events = NfdS::new(eta, delta).unwrap();
            let mut ei = 0;
            let mut ai = 0;
            for &q in &queries {
                while ai < arrivals.len() && arrivals[ai].0 <= q {
                    let (at, seq) = arrivals[ai];
                    fd.on_heartbeat(at, Heartbeat::new(seq, seq as f64 * eta));
                    ai += 1;
                }
                loop {
                    let deadline = by_events.next_deadline().unwrap_or(f64::INFINITY);
                    match arrivals.get(ei) {
                        Some(&(at, seq)) if at <= q && at <= deadline => {
                            by_events.on_heartbeat(at, Heartbeat::new(seq, seq as f64 * eta));
                            ei += 1;
                        }
                        _ if deadline <= q => by_events.advance(deadline),
                        _ => break,
                    }
                }
                let got = fd.output_at(q);
                let want = lemma2_oracle(eta, delta, &arrivals[..ai], q);
                prop_assert_eq!(got, want, "at t={}", q);
                prop_assert_eq!(by_events.output(), want, "event-driven, at t={}", q);
            }
        }
    }
}
