//! The adaptive QoS control plane of a [`ClusterMonitor`]: its knobs
//! ([`ControlConfig`]), the control round the supervised control thread
//! runs every period (estimate → configure → apply, §8.1 at cluster
//! scale), and the shard-locked transition points that apply a new `α`
//! or confirm a new `η`.

use super::{account, ClusterMonitor, Inner, MembershipChange, MembershipEvent};
use crate::registry::{Drive, PeerState, QosState};
use crate::{unpoison, Health, PeerId};
use fd_core::config::{configure_nfd_u, configure_nfd_u_best_effort, ConfigError};
use fd_core::detectors::NfdE;
use fd_core::{FailureDetector, HysteresisConfig, HysteresisGate, NfdUParams};
use fd_metrics::QosRequirements;
use std::sync::atomic::Ordering;

/// Knobs for the adaptive QoS control plane: a supervised thread that
/// periodically re-estimates each requirement-carrying peer's network
/// (§8.1.2 short/long conservative estimator pair), re-runs the §6.2
/// configurator against its declared `(T_D^U, T_MR^L, T_M^U)`, and
/// applies the resulting `α` (receiver-side, warm) while recommending
/// the resulting `η` to the sender (wire control entries).
#[derive(Debug, Clone, Copy)]
pub struct ControlConfig {
    /// Seconds between control rounds. Clamped to `[tick, 3600]` at
    /// spawn (NaN falls back to `tick`).
    pub period: f64,
    /// Sequence-number span of the short-horizon loss estimator.
    pub short_loss_span: u64,
    /// Sliding-window size of the short-horizon delay-moments estimator.
    pub short_delay_window: usize,
    /// Sliding-window size of the long-horizon delay-moments estimator.
    pub long_delay_window: usize,
    /// Delay observations required (long window) before the control
    /// loop acts on a peer; until then it keeps the registered
    /// parameters.
    pub min_delay_samples: usize,
    /// Smallest heartbeat period the control plane will configure,
    /// seconds. Under extreme variance the feasible-`η` search can
    /// return values that satisfy the math but no real sender could
    /// sustain (sub-millisecond floods); a configured `η` below this
    /// floor is treated as infeasibility and degrades the peer instead.
    pub min_eta: f64,
    /// Deadband + minimum dwell applied to gated parameter changes, so
    /// estimator noise cannot thrash `(η, α)` every round. Degradations
    /// bypass the gate (running known-wrong parameters is worse than
    /// changing twice).
    pub hysteresis: HysteresisConfig,
    /// Consecutive feasible control rounds required before a degraded
    /// peer is promoted back to nominal — the re-promotion hysteresis
    /// that keeps a flapping network from flapping the QoS state.
    pub promote_after: u32,
}

impl Default for ControlConfig {
    fn default() -> Self {
        Self {
            period: 1.0,
            short_loss_span: 64,
            short_delay_window: 16,
            long_delay_window: 128,
            min_delay_samples: 8,
            min_eta: 1e-3,
            hysteresis: HysteresisConfig::default(),
            promote_after: 3,
        }
    }
}

impl ControlConfig {
    /// The configuration with every field forced into the range the
    /// control plane relies on (estimator constructors panic on zero
    /// windows, `Duration::from_secs_f64` on NaN). `tick` is the
    /// monitor's ticker period, the shortest control period allowed.
    pub(super) fn sanitized(mut self, tick: f64) -> Self {
        self.period = self.period.max(tick).min(3600.0);
        self.short_loss_span = self.short_loss_span.max(1);
        self.short_delay_window = self.short_delay_window.max(2);
        self.long_delay_window = self.long_delay_window.max(2);
        self.min_delay_samples = self.min_delay_samples.max(2);
        self.promote_after = self.promote_after.max(1);
        if !(self.min_eta.is_finite() && self.min_eta > 0.0) {
            self.min_eta = 0.0;
        }
        self
    }
}

impl ClusterMonitor {
    /// Health of the supervised control thread (same lifecycle as
    /// [`ticker_health`](Self::ticker_health)).
    pub fn control_health(&self) -> Health {
        self.inner.control_sup.health()
    }

    /// Fault-injection hook: makes the next control round panic, to
    /// exercise the control thread's supervisor.
    #[cfg(test)]
    pub(crate) fn inject_control_panic(&self) {
        self.inner.inject_control_panic.store(true, Ordering::Relaxed);
    }

    /// Runs one adaptive control round synchronously — exactly what the
    /// supervised control thread does every period. Returns the number
    /// of peers whose detector parameters were (re)applied. Exposed so
    /// tests and batch drivers (simulated time) can step the control
    /// plane deterministically.
    pub fn run_control_round(&self) -> u64 {
        self.inner.control_round()
    }

    /// Drains the pending sender-side `η` recommendations (latest per
    /// peer, ascending by id) accumulated by control rounds. The caller
    /// ships them to the senders as wire control entries (see
    /// [`FrameSender::send_control`](crate::FrameSender::send_control));
    /// each peer's entry stays pending in
    /// [`PeerStatus::recommended_eta`](crate::PeerStatus::recommended_eta)
    /// until [`apply_eta`](Self::apply_eta) confirms it.
    pub fn drain_eta_recommendations(&self) -> Vec<(PeerId, f64)> {
        let mut recs: Vec<(PeerId, f64)> = unpoison(self.inner.eta_recs.lock()).drain().collect();
        recs.sort_unstable_by_key(|(peer, _)| *peer);
        recs
    }

    /// Applies a new freshness slack `α` to one peer, *warm*: the
    /// arrival-estimator samples, sequence high-water mark and QoS
    /// tracker all carry over, so the freshness deadline shifts by
    /// exactly Δα with no estimator re-convergence. This is the same
    /// transition the control plane performs; it is public for drivers
    /// that run their own configurator. Returns `false` if the peer is
    /// unknown or `α` is invalid.
    pub fn apply_alpha(&self, peer: PeerId, alpha: f64) -> bool {
        self.retune(peer, |inner, state, now, events| {
            let params = NfdUParams { eta: state.detector.eta(), alpha };
            inner.swap_alpha(peer, state, now, params, events)
        })
    }

    /// Confirms that `peer`'s *sender* now emits heartbeats every `eta`
    /// seconds and rebuilds the receiver-side detector to match. Unlike
    /// an `α` change, a new `η` invalidates the normalized arrival
    /// samples (they embed the old period), so the estimator window
    /// restarts cold: the peer dips to Suspect until its next heartbeat,
    /// exactly as after an incarnation reset. QoS counters and the
    /// online tracker carry over. Returns `false` if the peer is
    /// unknown or `eta` is invalid.
    pub fn apply_eta(&self, peer: PeerId, eta: f64) -> bool {
        self.retune(peer, |inner, state, now, events| {
            let (alpha, window) = (state.detector.alpha(), state.detector.window());
            let Ok(detector) = NfdE::new(eta, alpha, window) else {
                return false;
            };
            state.detector = detector;
            if let Some(ctl) = state.control.as_mut() {
                if ctl.recommended_eta.is_some_and(|r| {
                    HysteresisGate::rel_change(r, eta) <= f64::EPSILON
                }) {
                    ctl.recommended_eta = None;
                }
            }
            inner.rearm_retuned(peer, state, now.max(state.cell.latest()), events);
            true
        })
    }

    /// Runs one parameter change on `peer` under its shard write lock
    /// (`false` if it is not registered) and emits the membership
    /// events the change caused once the lock is released.
    fn retune(
        &self,
        peer: PeerId,
        change: impl FnOnce(&Inner, &mut PeerState, f64, &mut Vec<MembershipEvent>) -> bool,
    ) -> bool {
        let inner = &*self.inner;
        let now = inner.now();
        let mut events = Vec::new();
        let applied = match unpoison(inner.registry.shard(peer).write()).get_mut(&peer) {
            Some(state) => change(inner, state, now, &mut events),
            None => false,
        };
        for ev in events {
            inner.emit(ev);
        }
        applied
    }
}

impl Inner {
    /// One adaptive control round (§8.1 at cluster scale), in three
    /// passes so the configurator never runs under a lock:
    ///
    /// 1. copy each participating peer's conservative estimate out under
    ///    shard *read* locks (one shard at a time);
    /// 2. run the §6.2 configurator per peer with no locks held — the
    ///    feasible-`η` search iterates thousands of grid points and must
    ///    not stall the heartbeat path;
    /// 3. re-acquire each peer's shard *write* lock and apply its
    ///    verdict; membership events are emitted after every lock is
    ///    released.
    ///
    /// Returns the number of peers whose parameters were applied.
    pub(super) fn control_round(&self) -> u64 {
        #[cfg(test)]
        if self.inject_control_panic.swap(false, Ordering::Relaxed) {
            panic!("injected control panic");
        }
        self.control_rounds.fetch_add(1, Ordering::Relaxed);
        let now = self.now();
        struct Candidate {
            peer: PeerId,
            req: QosRequirements,
            p_l: f64,
            variance: f64,
        }
        let mut candidates = Vec::new();
        for shard in self.registry.shards() {
            for (peer, st) in unpoison(shard.read()).iter() {
                let Some(ctl) = &st.control else { continue };
                let Some((p_l, variance)) = ctl.estimate(self.control.min_delay_samples) else {
                    continue;
                };
                candidates.push(Candidate { peer: *peer, req: ctl.requirements, p_l, variance });
            }
        }
        let mut plans = Vec::new();
        for c in candidates {
            let verdict = match configure_nfd_u(&c.req, c.p_l, c.variance) {
                Ok(Some(params)) if params.eta >= self.control.min_eta => Plan::Feasible(params),
                // Theorem 12 infeasibility (`Ok(None)`), a failed
                // feasible-η search, or an η below the operational
                // floor: fall back to best-effort parameters.
                Ok(_) | Err(ConfigError::SearchFailed) => {
                    match configure_nfd_u_best_effort(&c.req, c.p_l, c.variance) {
                        Ok(params) => Plan::Infeasible(params),
                        Err(_) => continue,
                    }
                }
                // Out-of-domain estimate (e.g. no variance yet): leave
                // the peer alone and retry next round.
                Err(_) => continue,
            };
            plans.push((c.peer, verdict));
        }
        let mut events = Vec::new();
        let mut applied = 0u64;
        for (peer, verdict) in plans {
            let shard = self.registry.shard(peer);
            let mut guard = unpoison(shard.write());
            // The peer may have been removed (or swapped for a
            // control-less registration) between passes.
            let Some(state) = guard.get_mut(&peer) else { continue };
            if state.control.is_none() {
                continue;
            }
            if self.apply_plan(peer, state, now, verdict, &mut events) {
                applied += 1;
            }
            // Re-publish even on a gated/rejected plan: the verdict may
            // have updated control bookkeeping (`qos_state`,
            // `recommended_eta`) after `swap_alpha`'s own publish. A
            // drive to the peer's latest time moves nothing else.
            let republish = Drive { republish: true, ..Drive::to(state.cell.latest()) };
            events.extend(account(state, peer, republish));
        }
        for ev in events {
            self.emit(ev);
        }
        applied
    }

    /// Applies one configurator verdict to a peer, under its shard write
    /// lock. The four cases:
    ///
    /// * feasible, nominal — a routine retune, through the hysteresis
    ///   gate (deadband + dwell);
    /// * feasible, degraded — counts toward the promotion streak; at the
    ///   threshold the configured parameters are force-applied and the
    ///   peer is `Promoted`;
    /// * infeasible, nominal — graceful degradation: best-effort
    ///   parameters are force-applied (waiting out a dwell would keep
    ///   running parameters just proven wrong) and the peer is
    ///   `Degraded`;
    /// * infeasible, degraded — stays degraded; the best-effort
    ///   parameters track the network through the normal gate.
    fn apply_plan(
        &self,
        peer: PeerId,
        state: &mut PeerState,
        now: f64,
        plan: Plan,
        events: &mut Vec<MembershipEvent>,
    ) -> bool {
        let current =
            NfdUParams { eta: state.detector.eta(), alpha: state.detector.alpha() };
        let ctl = state.control.as_mut().expect("caller checked");
        // A verdict that contradicts the peer's QoS state moves it to the
        // other one, past the gate; one that agrees is a gated retune.
        let (params, moves_to) = match (plan, ctl.qos_state) {
            (Plan::Feasible(params), QosState::Degraded) => {
                ctl.feasible_streak += 1;
                if ctl.feasible_streak < self.control.promote_after {
                    return false;
                }
                (params, Some(QosState::Nominal))
            }
            (Plan::Feasible(params), QosState::Nominal) => (params, None),
            (Plan::Infeasible(best), QosState::Degraded) => {
                ctl.feasible_streak = 0;
                (best, None)
            }
            (Plan::Infeasible(best), QosState::Nominal) => (best, Some(QosState::Degraded)),
        };
        if moves_to.is_none()
            && !ctl.gate.admit(now, HysteresisGate::param_change(current, params))
        {
            return false;
        }
        if !self.swap_alpha(peer, state, now, params, events) {
            return false;
        }
        self.note_recommendation(peer, state, current.eta, params.eta);
        let ctl = state.control.as_mut().expect("caller checked");
        ctl.reconfigurations += 1;
        self.reconfigurations.fetch_add(1, Ordering::Relaxed);
        if let Some(to) = moves_to {
            ctl.gate.force(now);
            ctl.qos_state = to;
            ctl.feasible_streak = 0;
            let change = match to {
                QosState::Nominal => {
                    ctl.promotions += 1;
                    self.promotions.fetch_add(1, Ordering::Relaxed);
                    self.degraded_peers.fetch_sub(1, Ordering::Relaxed);
                    MembershipChange::Promoted
                }
                QosState::Degraded => {
                    ctl.degradations += 1;
                    self.degradations.fetch_add(1, Ordering::Relaxed);
                    self.degraded_peers.fetch_add(1, Ordering::Relaxed);
                    MembershipChange::Degraded
                }
            };
            events.push(MembershipEvent { peer, at: now, change });
        }
        true
    }

    /// The shard-locked `α` transition point: retunes the peer's
    /// detector in place via [`NfdE::retune_alpha`] — the normalized
    /// arrival samples and sequence high-water mark carry over (they do
    /// not depend on `α`), so the expected-arrival estimate is unchanged
    /// and the freshness deadline shifts by exactly Δα. A peer trusted
    /// under the old slack stays trusted (and its timer stays armed)
    /// whenever the new deadline is still in the future. The
    /// `OnlineQos` tracker is untouched. The generation bump + disarm +
    /// re-arm replaces the peer's wheel entry atomically with the swap —
    /// the same protocol an incarnation reset uses, so no stale timer
    /// can fire against the new parameters.
    ///
    /// Any transition the new slack causes *right now* (a tighter `α`
    /// can expire a previously fresh deadline) is a genuine S/T
    /// transition and is accounted as one.
    fn swap_alpha(
        &self,
        peer: PeerId,
        state: &mut PeerState,
        now: f64,
        params: NfdUParams,
        events: &mut Vec<MembershipEvent>,
    ) -> bool {
        // The receiver's η follows the *sender* via `apply_eta`
        // confirmation, never the configurator directly — changing it
        // here would misnormalize every windowed sample.
        let at = now.max(state.cell.latest());
        if state.detector.retune_alpha(params.alpha, at).is_err() {
            return false; // invalid α (e.g. η consumed the whole budget)
        }
        self.rearm_retuned(peer, state, at, events);
        true
    }

    /// The second half of every parameter change: drives the peer's new
    /// or retuned detector to `at`, replaces the peer's wheel entry
    /// (generation bump, disarm, re-arm at the new deadline), and
    /// publishes the new parameters with the drive, accounting the
    /// transition the change causes right now.
    fn rearm_retuned(
        &self,
        peer: PeerId,
        state: &mut PeerState,
        at: f64,
        events: &mut Vec<MembershipEvent>,
    ) {
        state.detector.advance(at);
        state.gen = self.next_gen.fetch_add(1, Ordering::Relaxed);
        state.armed = false;
        if let Some(due) = state.detector.next_deadline() {
            unpoison(self.wheel.lock()).schedule(due, peer, state.gen);
            state.armed = true;
        }
        events.extend(account(state, peer, Drive { republish: true, ..Drive::to(at) }));
    }

    /// Records a sender-side `η` recommendation when the configured
    /// value materially differs (beyond the deadband) from what the
    /// sender currently uses — tracked by the receiver detector's `η`,
    /// which [`ClusterMonitor::apply_eta`] keeps in sync.
    fn note_recommendation(
        &self,
        peer: PeerId,
        state: &mut PeerState,
        current_eta: f64,
        new_eta: f64,
    ) {
        if HysteresisGate::rel_change(current_eta, new_eta) <= self.control.hysteresis.deadband {
            return;
        }
        if let Some(ctl) = state.control.as_mut() {
            ctl.recommended_eta = Some(new_eta);
        }
        unpoison(self.eta_recs.lock()).insert(peer, new_eta);
    }
}

/// A control round's per-peer verdict.
enum Plan {
    /// The requirements are achievable: the configured `(η, α)`.
    Feasible(NfdUParams),
    /// They are not: the best-effort fallback `(η, α)`.
    Infeasible(NfdUParams),
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::monitor::{ClusterConfig, PeerConfig};
    use fd_core::Heartbeat;
    use std::time::Duration;

    /// A control plane for tests that step it via `run_control_round`
    /// on a manual monitor, with small windows and no dwell.
    pub(crate) fn stepped_control() -> ControlConfig {
        ControlConfig {
            short_delay_window: 8,
            long_delay_window: 24,
            min_delay_samples: 4,
            min_eta: 0.5,
            hysteresis: HysteresisConfig { min_dwell: 0.0, deadband: 0.01 },
            promote_after: 2,
            ..ControlConfig::default()
        }
    }

    fn adaptive_cluster() -> ClusterMonitor {
        ClusterMonitor::manual(ClusterConfig {
            control: stepped_control(),
            ..ClusterConfig::default()
        })
    }

    #[test]
    fn control_round_degrades_and_promotes_with_exact_events() {
        let m = adaptive_cluster();
        let rx = m.subscribe();
        let req = QosRequirements::new(4.0, 1e9, 2.0).unwrap();
        m.add_peer(1, PeerConfig::new(1.0, 3.0).requirements(req)).unwrap();

        // Heartbeats every 1 s of simulated time; `delay` is the link
        // delay stamped into the receipt time.
        let mut seq = 0u64;
        let mut beat = |delay: f64| {
            seq += 1;
            m.record_at(1, seq as f64 + delay, Heartbeat::new(seq, seq as f64));
        };

        // Clean regime: constant delay ⇒ V̂ ≈ 0, p̂_L = 0. Feasible, and
        // materially different from the registration parameters, so the
        // first round retunes (η_rec = 2, α = 2 for this requirement
        // tuple) within ONE control round of the estimate maturing.
        for _ in 0..8 {
            beat(0.05);
        }
        assert_eq!(m.run_control_round(), 1, "clean regime applies a feasible retune");
        let st = m.status(1).unwrap();
        assert_eq!(st.qos_state, QosState::Nominal);
        assert!((st.alpha - 2.0).abs() < 0.1, "α retuned toward 2.0, got {}", st.alpha);
        assert!((st.eta - 1.0).abs() < 1e-12, "receiver η follows the sender, not the plan");
        let recs = m.drain_eta_recommendations();
        assert_eq!(recs.len(), 1);
        assert!((recs[0].1 - 2.0).abs() < 0.1, "η recommendation ≈ 2.0, got {}", recs[0].1);

        // Regime shift: every heartbeat now takes 4 s. The long delay
        // window (24) still remembers the clean samples, so the §8.1.2
        // conservative pair sees a huge variance; the feasible η falls
        // below the 0.5 s floor ⇒ graceful degradation to best-effort
        // parameters in ONE round.
        for _ in 0..16 {
            beat(4.0);
        }
        let before = m.status(1).unwrap();
        assert_eq!(m.run_control_round(), 1, "spike regime force-applies best effort");
        let st = m.status(1).unwrap();
        assert_eq!(st.qos_state, QosState::Degraded);
        assert_eq!(
            st.counters.heartbeats, before.counters.heartbeats,
            "degradation must not touch the heartbeat ledger"
        );
        assert!(st.estimator_samples > 0, "warm α swap keeps the arrival window");
        assert_eq!(m.stats().degraded_peers, 1);
        assert_eq!(m.stats().degradations, 1);

        // Recovery: enough clean beats to flush the spike out of both
        // delay windows. The first feasible round only counts toward the
        // promotion streak; the second (promote_after = 2) promotes.
        for _ in 0..30 {
            beat(0.05);
        }
        assert_eq!(m.run_control_round(), 0, "first feasible round only builds the streak");
        assert_eq!(m.status(1).unwrap().qos_state, QosState::Degraded);
        assert_eq!(m.run_control_round(), 1, "second feasible round promotes");
        let st = m.status(1).unwrap();
        assert_eq!(st.qos_state, QosState::Nominal);
        assert!((st.alpha - 2.0).abs() < 0.1, "promoted back to configured α");
        assert_eq!(st.counters.heartbeats, 54, "8 + 16 + 30 beats all accounted");

        let stats = m.stats();
        assert_eq!(stats.degradations, 1);
        assert_eq!(stats.promotions, 1);
        assert_eq!(stats.degraded_peers, 0);
        assert_eq!(stats.control_rounds, 4);
        assert_eq!(stats.reconfigurations, 3, "retune + degradation + promotion");

        // Exactly one Degraded and one Promoted event, in that order —
        // no flapping despite four control rounds.
        let mut control_events = Vec::new();
        while let Ok(ev) = rx.try_recv() {
            if matches!(ev.change, MembershipChange::Degraded | MembershipChange::Promoted) {
                control_events.push(ev.change);
            }
        }
        assert_eq!(
            control_events,
            vec![MembershipChange::Degraded, MembershipChange::Promoted]
        );
        m.shutdown();
    }

    #[test]
    fn apply_eta_confirms_recommendation_and_restarts_cold() {
        let m = adaptive_cluster();
        let req = QosRequirements::new(4.0, 1e9, 2.0).unwrap();
        m.add_peer(1, PeerConfig::new(1.0, 3.0).requirements(req)).unwrap();
        for seq in 1..=8u64 {
            m.record_at(1, seq as f64 + 0.05, Heartbeat::new(seq, seq as f64));
        }
        assert_eq!(m.run_control_round(), 1);
        let rec = m.status(1).unwrap().recommended_eta.expect("η recommended");
        let samples_before = m.status(1).unwrap().estimator_samples;
        assert!(samples_before > 1);

        // Confirming the sender-side change rebuilds the detector cold —
        // the normalized samples embed the old η — and clears the
        // pending recommendation.
        assert!(m.apply_eta(1, rec));
        let st = m.status(1).unwrap();
        assert!((st.eta - rec).abs() < 1e-12);
        assert_eq!(st.estimator_samples, 0, "η change invalidates the window");
        assert_eq!(st.recommended_eta, None, "confirmation clears the pending η");
        assert_eq!(st.counters.heartbeats, 8, "ledger survives the rebuild");

        // Unknown peers and garbage values are rejected.
        assert!(!m.apply_eta(99, 1.0));
        assert!(!m.apply_eta(1, 0.0));
        assert!(!m.apply_alpha(99, 1.0));
        assert!(!m.apply_alpha(1, f64::NAN));
        m.shutdown();
    }

    #[test]
    fn control_panic_degrades_health_and_recovers() {
        // A short period so the supervised control thread actually runs.
        let m = ClusterMonitor::spawn(ClusterConfig {
            control: ControlConfig { period: 0.01, ..ControlConfig::default() },
            ..ClusterConfig::default()
        })
        .expect("spawn");
        assert_eq!(m.control_health(), Health::Healthy);
        m.inject_control_panic();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while m.stats().control_restarts == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(m.stats().control_restarts, 1);
        match m.control_health() {
            Health::Degraded { reason } => assert!(reason.contains("injected")),
            other => panic!("expected Degraded, got {other:?}"),
        }
        // The restarted control thread keeps counting rounds.
        let rounds = m.stats().control_rounds;
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while m.stats().control_rounds <= rounds && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(m.stats().control_rounds > rounds, "control rounds resume after restart");
        m.shutdown();
        assert_eq!(m.control_health(), Health::Stopped);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            /// Applying a new `α` mid-run — any valid slack, any history
            /// length — must never fabricate a spurious S-transition or
            /// reset the observed-QoS tracker: the arrival window is
            /// warm, the deadline just shifts by Δα, and a freshly-fed
            /// peer stays trusted.
            #[test]
            fn alpha_swap_never_fabricates_transitions(
                alpha in 0.05f64..40.0,
                beats in 3u64..20,
            ) {
                let m = ClusterMonitor::manual(ClusterConfig::default());
                m.add_peer(1, PeerConfig::new(1.0, 0.5)).unwrap();
                for s in 1..=beats {
                    m.record_at(1, s as f64 + 0.01, Heartbeat::new(s, s as f64));
                }
                let before = m.status(1).unwrap();
                prop_assert!(before.output.is_trust());
                let q_before = m.qos(1).unwrap();

                prop_assert!(m.apply_alpha(1, alpha));

                let after = m.status(1).unwrap();
                prop_assert!(after.output.is_trust(), "spurious suspicion from α swap");
                prop_assert_eq!(after.counters.suspicions, before.counters.suspicions);
                prop_assert_eq!(after.counters.recoveries, before.counters.recoveries);
                prop_assert_eq!(after.counters.heartbeats, before.counters.heartbeats);
                prop_assert_eq!(after.estimator_samples, before.estimator_samples,
                    "warm swap must keep the arrival window");
                prop_assert!((after.alpha - alpha).abs() < 1e-12);
                prop_assert!((after.eta - before.eta).abs() < 1e-12);

                let q_after = m.qos(1).unwrap();
                prop_assert_eq!(q_after.s_transitions, q_before.s_transitions,
                    "ObservedQos transition history reset by α swap");
                prop_assert_eq!(q_after.t_transitions, q_before.t_transitions);
                prop_assert_eq!(q_after.duration.count(), q_before.duration.count());

                // The next heartbeat continues the same stream.
                let s = beats + 1;
                prop_assert!(m.record_at(1, s as f64 + 0.01, Heartbeat::new(s, s as f64)));
                prop_assert!(m.status(1).unwrap().output.is_trust());
                m.shutdown();
            }
        }
    }
}
