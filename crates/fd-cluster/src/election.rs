//! Leader election over failure-detector outputs — the canonical
//! downstream consumer the paper's introduction motivates detectors
//! with (group membership, cluster management, consensus). The elector
//! inherits its guarantees from the detector's QoS: a crashed leader is
//! replaced within the `T_D` bound plus the demotion dwell, and spurious
//! leader changes happen at most at the mistake rate `λ_M` — why the
//! paper calls `λ_M` "important to long-lived applications where each
//! mistake results in a costly interrupt".
//!
//! [`CrashRecoveryElector`] is an asynchronous crash-recovery elector
//! in the style of Reis & Vieira ("Quality of Service of an
//! Asynchronous Crash-Recovery Leader Election Algorithm"). "First
//! trusted candidate in a fixed ranking" is fine for a static
//! membership; under churn it has three failure modes this elector
//! removes:
//!
//! 1. **Stale reclaim.** A node that crashes and recovers re-enters
//!    with a bumped incarnation. A replayed candidacy carrying an
//!    *older* incarnation (delayed datagrams, a restore from a stale
//!    snapshot) must never win leadership. The elector keeps a per-peer
//!    incarnation high-water mark — fed from live candidacies and from
//!    the persisted [`ElectionRecord`] — and bars any candidate below
//!    it.
//! 2. **Flapping leaders.** Ranking by peer id elects whichever low-id
//!    node most recently flickered back to `Trust`. Here candidates
//!    are ranked by *stability* — the length of their current
//!    uninterrupted good period, straight out of the detector's QoS
//!    tracker — and must clear [`ElectionConfig::min_stability`]
//!    before they are electable at all.
//! 3. **One late heartbeat demotes the leader.** Demotion is gated
//!    through the shared [`HysteresisGate`]: when the incumbent is
//!    first suspected the gate's dwell clock is forced, the elector
//!    holds the incumbent as [`ElectionState::Degraded`], and only if
//!    the suspicion *persists* past the dwell is the leader demoted
//!    (a detector mistake shorter than the dwell never surfaces). A
//!    proven crash — the incumbent reappearing with a higher
//!    incarnation — bypasses the dwell: the old life is gone.
//!
//! When no candidate clears the stability bar the elector degrades
//! gracefully: a still-trusted incumbent is held (`Degraded`) rather
//! than replaced by a flapping node, and leadership goes vacant only
//! when the incumbent itself is lost.
//!
//! The elector counts nothing itself. Every outcome leaves as an
//! [`ElectionEvent`] — including [`ElectionEvent::SpuriousDemotion`],
//! a mistake that outlasted the dwell, which only the elector can
//! recognise — and [`LeaderMetrics`] folds states and events into one
//! [`LeaderQos`] tracker, the one place they are counted.

use crate::PeerId;
use fd_core::{HysteresisConfig, HysteresisGate};
use fd_metrics::{LeaderQos, LeaderQosReport, LeadershipState};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// Tuning for [`CrashRecoveryElector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectionConfig {
    /// Seconds of uninterrupted `Trust` a candidate needs before it is
    /// electable. A node that just flapped back up has its good period
    /// reset and cannot be elected until it has proven itself again.
    pub min_stability: f64,
    /// The shared hysteresis gate configuration. `min_dwell` is both
    /// the suspicion-persistence requirement before an incumbent is
    /// demoted and the minimum spacing between leadership handoffs;
    /// `deadband` is the relative stability margin a challenger must
    /// clear to replace a healthy incumbent.
    pub hysteresis: HysteresisConfig,
}

impl Default for ElectionConfig {
    fn default() -> Self {
        ElectionConfig {
            min_stability: 3.0,
            // Dwell below the detector's typical η so demotion adds at
            // most ~1.5 s on top of the detection bound; deadband of
            // 10% relative stability for supersession.
            hysteresis: HysteresisConfig { min_dwell: 1.5, deadband: 0.10 },
        }
    }
}

/// One peer's candidacy at an instant, as produced by
/// [`ClusterMonitor::election_candidates`](crate::ClusterMonitor::election_candidates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The peer.
    pub peer: PeerId,
    /// Whether the detector currently trusts the peer.
    pub trusted: bool,
    /// The peer's current incarnation number.
    pub incarnation: u64,
    /// Length of the peer's current uninterrupted good period in
    /// seconds (0 while suspected).
    pub stable_for: f64,
}

/// The elector's published state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ElectionState {
    /// A leader is installed and trusted.
    Leader {
        /// The installed leader.
        leader: PeerId,
        /// The incarnation it was elected under.
        incarnation: u64,
        /// When it took office.
        since: f64,
    },
    /// The incumbent is held but not confirmed healthy: either its
    /// suspicion is pending inside the hysteresis dwell, or it (and
    /// every other candidate) is below the stability bar.
    Degraded {
        /// The incumbent being held.
        incumbent: PeerId,
        /// The incarnation it was elected under.
        incarnation: u64,
        /// When it took office.
        since: f64,
    },
    /// No leader is installed.
    NoLeader,
}

impl ElectionState {
    /// The incumbent (installed or held), if any.
    pub fn incumbent(&self) -> Option<PeerId> {
        match *self {
            ElectionState::Leader { leader, .. } => Some(leader),
            ElectionState::Degraded { incumbent, .. } => Some(incumbent),
            ElectionState::NoLeader => None,
        }
    }

    /// The incumbent together with its elected incarnation and term
    /// start, if any.
    pub fn record(&self) -> Option<ElectionRecord> {
        match *self {
            ElectionState::Leader { leader, incarnation, since }
            | ElectionState::Degraded { incumbent: leader, incarnation, since } => {
                Some(ElectionRecord { leader, incarnation, elected_at: since })
            }
            ElectionState::NoLeader => None,
        }
    }

    /// This state as the [`LeadershipState`] fed to [`LeaderQos`].
    pub fn leadership(&self) -> LeadershipState {
        match *self {
            ElectionState::Leader { leader, .. } => LeadershipState::Led { leader },
            ElectionState::Degraded { incumbent, .. } => LeadershipState::Degraded { incumbent },
            ElectionState::NoLeader => LeadershipState::Vacant,
        }
    }
}

impl fmt::Display for ElectionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ElectionState::Leader { leader, incarnation, .. } => {
                write!(f, "leader {leader} (incarnation {incarnation})")
            }
            ElectionState::Degraded { incumbent, .. } => write!(f, "degraded (holding {incumbent})"),
            ElectionState::NoLeader => write!(f, "no leader"),
        }
    }
}

/// The persisted outcome of an election: who leads, under which
/// incarnation, since when. Stored in the snapshot so a restarted
/// monitor seeds its incarnation high-water marks and cannot hand
/// leadership back to a stale life of the old leader.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectionRecord {
    /// The elected leader.
    pub leader: PeerId,
    /// The incarnation it was elected under.
    pub incarnation: u64,
    /// When it was elected, in monitor time.
    pub elected_at: f64,
}

/// Why an incumbent lost leadership, on [`ElectionEvent::Demoted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemotionReason {
    /// Suspicion persisted past the hysteresis dwell.
    Suspected,
    /// The incumbent reappeared with a higher incarnation — a proven
    /// crash-recovery; the old leadership is void immediately.
    Recovered,
    /// A sufficiently more stable challenger took over.
    Superseded,
    /// The incumbent disappeared from the candidate set entirely.
    Removed,
}

/// Transitions the elector emitted during an [`observe`]
/// (drained with [`CrashRecoveryElector::drain_events`]).
///
/// [`observe`]: CrashRecoveryElector::observe
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ElectionEvent {
    /// A leader took office.
    Elected {
        /// The new leader.
        leader: PeerId,
        /// Its incarnation at election.
        incarnation: u64,
        /// When.
        at: f64,
    },
    /// The incumbent lost leadership.
    Demoted {
        /// The demoted leader.
        leader: PeerId,
        /// Why.
        reason: DemotionReason,
        /// When.
        at: f64,
    },
    /// A candidacy presented an incarnation below the peer's recorded
    /// high-water mark and was barred from election.
    StaleCandidacy {
        /// The offending peer.
        peer: PeerId,
        /// The stale incarnation it presented.
        incarnation: u64,
        /// The high-water mark it failed to meet.
        high_water: u64,
        /// When.
        at: f64,
    },
    /// A leader demoted for suspicion came back trusted under the
    /// incarnation it was demoted in: it was never down, so the
    /// demotion was a detector mistake that outlasted the dwell.
    SpuriousDemotion {
        /// The demoted leader.
        leader: PeerId,
        /// The incarnation it was demoted in and came back under.
        incarnation: u64,
        /// When it was seen trusted again.
        at: f64,
    },
}

/// Crash-recovery leader elector: stability-ranked, incarnation-fenced,
/// hysteresis-gated. Drive it with [`observe`](Self::observe) at every
/// decision point (each heartbeat round, or each control round).
#[derive(Debug)]
pub struct CrashRecoveryElector {
    cfg: ElectionConfig,
    gate: HysteresisGate,
    state: ElectionState,
    /// Highest incarnation ever seen per peer; candidacies below it are
    /// stale and barred.
    high_water: HashMap<PeerId, u64>,
    /// When the incumbent's current suspicion streak started, if it is
    /// suspected right now.
    suspected_since: Option<f64>,
    /// Set while the last demotion was for `Suspected`; if that peer
    /// comes back trusted under the *same* incarnation the demotion was
    /// spurious (the peer was never down).
    watch_spurious: Option<(PeerId, u64)>,
    events: Vec<ElectionEvent>,
}

impl CrashRecoveryElector {
    /// A fresh elector with no incumbent.
    pub fn new(cfg: ElectionConfig) -> Self {
        CrashRecoveryElector {
            gate: HysteresisGate::new(cfg.hysteresis),
            cfg,
            state: ElectionState::NoLeader,
            high_water: HashMap::new(),
            suspected_since: None,
            watch_spurious: None,
            events: Vec::new(),
        }
    }

    /// An elector restored from a persisted [`ElectionRecord`]: the old
    /// incumbent is held as `Degraded` until the detector confirms it,
    /// and its recorded incarnation seeds the high-water mark so a
    /// stale life of it can never reclaim leadership after a restart.
    pub fn restore(cfg: ElectionConfig, record: ElectionRecord) -> Self {
        let mut el = Self::new(cfg);
        el.high_water.insert(record.leader, record.incarnation);
        el.state = ElectionState::Degraded {
            incumbent: record.leader,
            incarnation: record.incarnation,
            since: record.elected_at,
        };
        el
    }

    /// The configuration this elector runs with.
    pub fn config(&self) -> ElectionConfig {
        self.cfg
    }

    /// The current election state.
    pub fn state(&self) -> &ElectionState {
        &self.state
    }

    /// The current incumbent's persistable record, if any.
    pub fn record(&self) -> Option<ElectionRecord> {
        self.state.record()
    }

    /// Drains the transitions emitted since the last call.
    pub fn drain_events(&mut self) -> Vec<ElectionEvent> {
        std::mem::take(&mut self.events)
    }

    /// Runs one election round over the candidate set at time `now` and
    /// returns the resulting state.
    ///
    /// `candidates` is a point-in-time view (one entry per peer, any
    /// order — the outcome is order-invariant); `now` must be monotone
    /// across calls.
    pub fn observe(&mut self, now: f64, candidates: &[Candidate]) -> ElectionState {
        // 1. Advance incarnation high-water marks and find stale rows.
        for c in candidates {
            let hw = self.high_water.entry(c.peer).or_insert(c.incarnation);
            if c.incarnation > *hw {
                *hw = c.incarnation;
            } else if c.incarnation < *hw && c.trusted {
                self.events.push(ElectionEvent::StaleCandidacy {
                    peer: c.peer,
                    incarnation: c.incarnation,
                    high_water: *hw,
                    at: now,
                });
            }
        }
        let fresh = |c: &Candidate| c.incarnation >= self.high_water[&c.peer];

        // A leader demoted for suspicion that reappears trusted under
        // the same incarnation was never actually down.
        if let Some((peer, inc)) = self.watch_spurious {
            if let Some(c) = candidates.iter().find(|c| c.peer == peer) {
                if c.trusted && c.incarnation == inc {
                    self.events.push(ElectionEvent::SpuriousDemotion {
                        leader: peer,
                        incarnation: inc,
                        at: now,
                    });
                    self.watch_spurious = None;
                } else if c.incarnation > inc {
                    // Recovered with a new life: the crash was real.
                    self.watch_spurious = None;
                }
            }
        }

        // 2. The best challenger: trusted, fresh, past the stability
        // bar; longest good period wins, lowest id breaks ties.
        let best = candidates
            .iter()
            .filter(|c| c.trusted && fresh(c) && c.stable_for >= self.cfg.min_stability)
            .fold(None::<&Candidate>, |acc, c| match acc {
                None => Some(c),
                Some(b)
                    if c.stable_for > b.stable_for
                        || (c.stable_for == b.stable_for && c.peer < b.peer) =>
                {
                    Some(c)
                }
                Some(b) => Some(b),
            });

        // 3. Incumbent disposition.
        if let Some(rec) = self.state.record() {
            let row = candidates.iter().find(|c| c.peer == rec.leader);
            match row {
                None => {
                    // Gone from membership entirely: demote now.
                    self.demote(rec.leader, DemotionReason::Removed, now, None);
                }
                Some(c) if c.incarnation > rec.incarnation => {
                    // Proven crash-recovery: the elected life is over.
                    // No dwell — the evidence is conclusive.
                    self.gate.force(now);
                    self.demote(rec.leader, DemotionReason::Recovered, now, None);
                }
                Some(c) if c.incarnation < rec.incarnation => {
                    // The only sighting of the incumbent is a *stale*
                    // life — no evidence the elected incarnation is
                    // alive, and certainly not confirmation. Treat it
                    // like suspicion: hold through the dwell, then
                    // demote.
                    if self.suspected_since.is_none() {
                        self.suspected_since = Some(now);
                        self.gate.force(now);
                        self.state = ElectionState::Degraded {
                            incumbent: rec.leader,
                            incarnation: rec.incarnation,
                            since: rec.elected_at,
                        };
                    } else if self.gate.would_admit(now, 1.0) {
                        self.gate.admit(now, 1.0);
                        self.demote(rec.leader, DemotionReason::Suspected, now, None);
                    }
                }
                Some(c) if !c.trusted => {
                    // Suspected: hold through the dwell before
                    // demoting, so one late heartbeat cannot flap the
                    // leader. Force the gate's clock at suspicion
                    // onset; demote only once the suspicion has
                    // persisted a full dwell.
                    if self.suspected_since.is_none() {
                        self.suspected_since = Some(now);
                        self.gate.force(now);
                        self.state = ElectionState::Degraded {
                            incumbent: rec.leader,
                            incarnation: rec.incarnation,
                            since: rec.elected_at,
                        };
                    } else if self.gate.would_admit(now, 1.0) {
                        self.gate.admit(now, 1.0);
                        self.demote(
                            rec.leader,
                            DemotionReason::Suspected,
                            now,
                            Some((rec.leader, c.incarnation)),
                        );
                    }
                }
                Some(c) => {
                    // Trusted under the elected incarnation.
                    self.suspected_since = None;
                    if c.stable_for >= self.cfg.min_stability {
                        // Healthy. Consider supersession by a clearly
                        // more stable challenger, deadband + dwell
                        // gated.
                        let rel_vs = |b: &Candidate| {
                            HysteresisGate::rel_change(c.stable_for.max(1e-9), b.stable_for)
                        };
                        let superseded = best
                            .filter(|b| b.peer != rec.leader)
                            .filter(|b| self.gate.would_admit(now, rel_vs(b)));
                        if let Some(b) = superseded {
                            let rel = rel_vs(b);
                            self.gate.admit(now, rel);
                            self.demote(rec.leader, DemotionReason::Superseded, now, None);
                            self.elect(b, now);
                        } else {
                            self.state = ElectionState::Leader {
                                leader: rec.leader,
                                incarnation: rec.incarnation,
                                since: rec.elected_at,
                            };
                        }
                    } else {
                        // Below the bar (e.g. just flapped, or freshly
                        // restored from a snapshot). Hold degraded; a
                        // qualified challenger may take over through
                        // the gate.
                        let challenger = best.filter(|b| b.peer != rec.leader);
                        match challenger {
                            Some(b) if self.gate.would_admit(now, 1.0) => {
                                self.gate.admit(now, 1.0);
                                self.demote(rec.leader, DemotionReason::Superseded, now, None);
                                self.elect(b, now);
                            }
                            _ => {
                                self.state = ElectionState::Degraded {
                                    incumbent: rec.leader,
                                    incarnation: rec.incarnation,
                                    since: rec.elected_at,
                                };
                            }
                        }
                    }
                }
            }
        }

        // 4. Vacant seat: elect the best qualified candidate, if any.
        // A cluster with no leader takes any qualified one — the change
        // is recorded on the gate but never blocked by it. (A peer
        // demoted in this same round cannot be `best`: a suspected or
        // removed incumbent fails the trust filter, and a recovered
        // life re-enters with its good period reset below the bar.)
        if self.state.incumbent().is_none() {
            if let Some(b) = best {
                self.gate.force(now);
                self.elect(b, now);
            }
        }

        self.state
    }

    fn elect(&mut self, c: &Candidate, now: f64) {
        self.suspected_since = None;
        self.state = ElectionState::Leader {
            leader: c.peer,
            incarnation: c.incarnation,
            since: now,
        };
        self.events.push(ElectionEvent::Elected {
            leader: c.peer,
            incarnation: c.incarnation,
            at: now,
        });
    }

    fn demote(
        &mut self,
        leader: PeerId,
        reason: DemotionReason,
        now: f64,
        watch: Option<(PeerId, u64)>,
    ) {
        self.suspected_since = None;
        self.watch_spurious = watch;
        self.state = ElectionState::NoLeader;
        self.events.push(ElectionEvent::Demoted { leader, reason, at: now });
    }
}

/// Leader-level metrics as a [`MetricsSource`](crate::MetricsSource):
/// wraps a [`LeaderQos`] tracker plus the live [`ElectionState`] and
/// renders the `fd_leader_*` Prometheus/JSON series.
///
/// Mount it on a [`MetricsExporter`](crate::MetricsExporter) via
/// [`bind_with_sources`](crate::MetricsExporter::bind_with_sources) and
/// drive it from the election loop with [`observe`](Self::observe).
#[derive(Debug)]
pub struct LeaderMetrics {
    inner: Mutex<LeaderMetricsInner>,
}

#[derive(Debug)]
struct LeaderMetricsInner {
    qos: LeaderQos,
    state: ElectionState,
    now: f64,
}

impl LeaderMetrics {
    /// A tracker starting at monitor time `start`.
    pub fn new(start: f64) -> Self {
        LeaderMetrics {
            inner: Mutex::new(LeaderMetricsInner {
                qos: LeaderQos::new(start),
                state: ElectionState::NoLeader,
                now: start,
            }),
        }
    }

    /// Feeds one election round's outcome (plus any events it emitted)
    /// into the tracker.
    pub fn observe(&self, now: f64, state: ElectionState, events: &[ElectionEvent]) {
        let mut g = self.inner.lock();
        for e in events {
            match e {
                ElectionEvent::StaleCandidacy { .. } => g.qos.note_stale_candidacy(),
                ElectionEvent::SpuriousDemotion { .. } => g.qos.note_spurious_demotion(),
                ElectionEvent::Elected { .. } | ElectionEvent::Demoted { .. } => {}
            }
        }
        g.qos.observe(now, state.leadership());
        g.state = state;
        g.now = now;
    }

    /// Marks a ground-truth crash of the current leader (arms the next
    /// election-latency sample).
    pub fn note_crash(&self, now: f64) {
        self.inner.lock().qos.note_crash(now);
    }

    /// The current aggregate report.
    pub fn report(&self) -> LeaderQosReport {
        let g = self.inner.lock();
        g.qos.report(g.now)
    }

    /// The election state as last observed.
    pub fn state(&self) -> ElectionState {
        self.inner.lock().state
    }
}

impl crate::MetricsSource for LeaderMetrics {
    fn prometheus(&self, out: &mut String) {
        let g = self.inner.lock();
        let r = g.qos.report(g.now);
        let state_code = match g.state {
            ElectionState::Leader { .. } => 2.0,
            ElectionState::Degraded { .. } => 1.0,
            ElectionState::NoLeader => 0.0,
        };
        let one = |v: f64| [(None, v)];
        let opt = |v: Option<f64>| -> Vec<(Option<u64>, f64)> {
            v.map(|x| (None, x)).into_iter().collect()
        };
        let f = crate::exporter::family;
        f(out, "fd_leader_state", "Election state: 2 led, 1 degraded, 0 vacant", "gauge", &one(state_code));
        if let Some(leader) = g.state.incumbent() {
            f(out, "fd_leader_peer", "Current incumbent peer id", "gauge", &one(leader as f64));
        }
        f(out, "fd_leader_elections_total", "Completed elections", "counter", &one(r.elections as f64));
        f(out, "fd_leader_demotions_total", "Incumbents that lost leadership", "counter", &one(r.demotions as f64));
        f(out, "fd_leader_spurious_demotions_total", "Suspicion demotions of a leader that came back under the same incarnation", "counter", &one(r.spurious_demotions as f64));
        f(out, "fd_leader_stale_candidacies_total", "Candidacies rejected for stale incarnations", "counter", &one(r.stale_candidacies as f64));
        f(out, "fd_leader_availability", "Fraction of the window with an incumbent installed", "gauge", &one(r.availability));
        f(out, "fd_leader_degraded_fraction", "Fraction of the window in degraded hold", "gauge", &one(r.degraded_fraction));
        f(out, "fd_leader_mean_leadership_duration_seconds", "Mean completed leadership term", "gauge", &opt(r.mean_leadership_duration));
        f(out, "fd_leader_mean_recurrence_seconds", "Mean interval between elections", "gauge", &opt(r.mean_leadership_recurrence));
        f(out, "fd_leader_mean_election_latency_seconds", "Mean crash-to-election latency", "gauge", &opt(r.mean_election_latency));
        f(out, "fd_leader_current_term_seconds", "Age of the open leadership term", "gauge", &opt(r.current_term));
    }

    fn json_fields(&self) -> Vec<(String, String)> {
        let g = self.inner.lock();
        let r = g.qos.report(g.now);
        let mut obj = String::from("{");
        let _ = write!(
            obj,
            "\"state\":\"{}\",\"elections\":{},\"demotions\":{},\"spurious_demotions\":{},\
             \"stale_candidacies\":{},\"availability\":{:.6},\"degraded_fraction\":{:.6}",
            match g.state {
                ElectionState::Leader { .. } => "leader",
                ElectionState::Degraded { .. } => "degraded",
                ElectionState::NoLeader => "no_leader",
            },
            r.elections,
            r.demotions,
            r.spurious_demotions,
            r.stale_candidacies,
            r.availability,
            r.degraded_fraction,
        );
        if let Some(leader) = g.state.incumbent() {
            let _ = write!(obj, ",\"leader\":{leader}");
        }
        if let Some(d) = r.mean_leadership_duration {
            let _ = write!(obj, ",\"mean_leadership_duration\":{d:.6}");
        }
        if let Some(rc) = r.mean_leadership_recurrence {
            let _ = write!(obj, ",\"mean_recurrence\":{rc:.6}");
        }
        if let Some(l) = r.mean_election_latency {
            let _ = write!(obj, ",\"mean_election_latency\":{l:.6}");
        }
        obj.push('}');
        vec![("leader".to_string(), obj)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ElectionConfig {
        ElectionConfig {
            min_stability: 2.0,
            hysteresis: HysteresisConfig { min_dwell: 1.0, deadband: 0.10 },
        }
    }

    fn cand(peer: PeerId, trusted: bool, incarnation: u64, stable_for: f64) -> Candidate {
        Candidate { peer, trusted, incarnation, stable_for }
    }

    fn demotions(el: &mut CrashRecoveryElector) -> usize {
        let events = el.drain_events();
        events.iter().filter(|e| matches!(e, ElectionEvent::Demoted { .. })).count()
    }

    #[test]
    fn elects_most_stable_not_lowest_id() {
        let mut el = CrashRecoveryElector::new(cfg());
        let st = el.observe(
            10.0,
            &[cand(1, true, 0, 3.0), cand(2, true, 0, 8.0), cand(3, true, 0, 5.0)],
        );
        assert_eq!(st.incumbent(), Some(2));
    }

    #[test]
    fn ties_break_to_lowest_id_and_are_order_invariant() {
        let rows = [cand(5, true, 0, 4.0), cand(2, true, 0, 4.0), cand(9, true, 0, 4.0)];
        let mut perm = rows;
        perm.reverse();
        let a = CrashRecoveryElector::new(cfg()).observe(10.0, &rows);
        let b = CrashRecoveryElector::new(cfg()).observe(10.0, &perm);
        assert_eq!(a.incumbent(), Some(2));
        assert_eq!(a, b);
    }

    #[test]
    fn unstable_candidates_are_not_electable() {
        let mut el = CrashRecoveryElector::new(cfg());
        let st = el.observe(10.0, &[cand(1, true, 0, 0.5), cand(2, false, 0, 0.0)]);
        assert_eq!(st, ElectionState::NoLeader);
        // Once peer 1 has been good long enough it wins.
        let st = el.observe(12.0, &[cand(1, true, 0, 2.5), cand(2, false, 0, 0.0)]);
        assert_eq!(st.incumbent(), Some(1));
    }

    #[test]
    fn brief_suspicion_inside_dwell_never_demotes() {
        let mut el = CrashRecoveryElector::new(cfg());
        el.observe(10.0, &[cand(1, true, 0, 5.0), cand(2, true, 0, 4.0)]);
        assert_eq!(el.state().incumbent(), Some(1));
        // One late heartbeat: suspected at 20.0, trusted again at 20.5
        // (inside the 1 s dwell).
        let st = el.observe(20.0, &[cand(1, false, 0, 0.0), cand(2, true, 0, 14.0)]);
        assert!(matches!(st, ElectionState::Degraded { incumbent: 1, .. }));
        let st = el.observe(20.5, &[cand(1, true, 0, 0.5), cand(2, true, 0, 14.5)]);
        // Held (below stability bar after the flap) but never demoted.
        assert_eq!(st.incumbent(), Some(1));
        assert_eq!(demotions(&mut el), 0);
    }

    #[test]
    fn persistent_suspicion_demotes_after_dwell_and_elects_successor() {
        let mut el = CrashRecoveryElector::new(cfg());
        el.observe(10.0, &[cand(1, true, 0, 5.0), cand(2, true, 0, 4.0)]);
        el.observe(20.0, &[cand(1, false, 0, 0.0), cand(2, true, 0, 14.0)]);
        // Still suspected past the dwell: demoted, successor in the
        // same round.
        let st = el.observe(21.5, &[cand(1, false, 0, 0.0), cand(2, true, 0, 15.5)]);
        assert_eq!(st.incumbent(), Some(2));
        let events = el.drain_events();
        assert!(events.iter().any(|e| matches!(
            e,
            ElectionEvent::Demoted { leader: 1, reason: DemotionReason::Suspected, .. }
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e, ElectionEvent::Elected { leader: 2, .. })));
    }

    #[test]
    fn stale_incarnation_cannot_reclaim_leadership() {
        let mut el = CrashRecoveryElector::new(cfg());
        // Peer 1 led under incarnation 3, then recovered as 4.
        el.observe(10.0, &[cand(1, true, 3, 5.0)]);
        el.observe(20.0, &[cand(1, true, 4, 0.1)]);
        // A stale replay of incarnation 3, fully "stable": must not win.
        let st = el.observe(22.0, &[cand(1, true, 3, 12.0)]);
        assert_eq!(st.incumbent(), None);
        assert!(el
            .drain_events()
            .iter()
            .any(|e| matches!(e, ElectionEvent::StaleCandidacy { peer: 1, .. })));
    }

    #[test]
    fn incarnation_bump_demotes_immediately_without_dwell() {
        let mut el = CrashRecoveryElector::new(cfg());
        el.observe(10.0, &[cand(1, true, 0, 5.0), cand(2, true, 0, 4.0)]);
        // Leader reappears as a new life in the very next round: the
        // crash is proven, successor takes over with no dwell wait.
        let st = el.observe(10.5, &[cand(1, true, 1, 0.0), cand(2, true, 0, 4.5)]);
        assert_eq!(st.incumbent(), Some(2));
        assert!(el.drain_events().iter().any(|e| matches!(
            e,
            ElectionEvent::Demoted { leader: 1, reason: DemotionReason::Recovered, .. }
        )));
    }

    #[test]
    fn degraded_hold_when_no_candidate_meets_bar() {
        let mut el = CrashRecoveryElector::new(cfg());
        el.observe(10.0, &[cand(1, true, 0, 5.0), cand(2, true, 0, 4.0)]);
        // Everyone flapped: incumbent trusted but reset, no challenger
        // qualified → hold incumbent, surface Degraded.
        let st = el.observe(20.0, &[cand(1, true, 0, 0.3), cand(2, true, 0, 0.2)]);
        assert!(matches!(st, ElectionState::Degraded { incumbent: 1, .. }));
        assert_eq!(demotions(&mut el), 0);
    }

    #[test]
    fn healthy_incumbent_is_sticky_against_marginal_challengers() {
        let mut el = CrashRecoveryElector::new(cfg());
        el.observe(10.0, &[cand(1, true, 0, 5.0), cand(2, true, 0, 4.0)]);
        // Challenger barely more stable (5% > incumbent): inside the
        // deadband, no handoff.
        let st = el.observe(30.0, &[cand(1, true, 0, 25.0), cand(2, true, 0, 26.0)]);
        assert_eq!(st.incumbent(), Some(1));
    }

    #[test]
    fn spurious_demotion_is_detected_when_leader_was_never_down() {
        let mut el = CrashRecoveryElector::new(cfg());
        el.observe(10.0, &[cand(1, true, 0, 5.0), cand(2, true, 0, 4.0)]);
        el.observe(20.0, &[cand(1, false, 0, 0.0), cand(2, true, 0, 14.0)]);
        el.observe(22.0, &[cand(1, false, 0, 0.0), cand(2, true, 0, 16.0)]);
        assert_eq!(demotions(&mut el), 1);
        // Peer 1 comes back trusted under the SAME incarnation: the
        // detector was wrong, the demotion was spurious.
        el.observe(23.0, &[cand(1, true, 0, 0.5), cand(2, true, 0, 17.0)]);
        let spurious = ElectionEvent::SpuriousDemotion { leader: 1, incarnation: 0, at: 23.0 };
        assert_eq!(el.drain_events(), [spurious]);
        // Once counted, never again.
        el.observe(24.0, &[cand(1, true, 0, 1.5), cand(2, true, 0, 18.0)]);
        assert_eq!(el.drain_events(), []);
    }

    #[test]
    fn demoted_leader_back_as_a_new_life_is_not_spurious() {
        let mut el = CrashRecoveryElector::new(cfg());
        el.observe(10.0, &[cand(1, true, 0, 5.0), cand(2, true, 0, 4.0)]);
        el.observe(20.0, &[cand(1, false, 0, 0.0), cand(2, true, 0, 14.0)]);
        el.observe(22.0, &[cand(1, false, 0, 0.0), cand(2, true, 0, 16.0)]);
        el.drain_events();
        // A real crash: peer 1 returns under a bumped incarnation.
        el.observe(23.0, &[cand(1, true, 1, 0.5), cand(2, true, 0, 17.0)]);
        el.observe(24.0, &[cand(1, true, 0, 1.5), cand(2, true, 0, 18.0)]);
        let spurious = el.drain_events();
        let spurious = spurious.iter().filter(|e| matches!(e, ElectionEvent::SpuriousDemotion { .. }));
        assert_eq!(spurious.count(), 0);
    }

    #[test]
    fn restore_holds_old_incumbent_degraded_and_fences_its_incarnation() {
        let rec = ElectionRecord { leader: 7, incarnation: 3, elected_at: 42.0 };
        let mut el = CrashRecoveryElector::restore(cfg(), rec);
        assert!(matches!(el.state(), ElectionState::Degraded { incumbent: 7, .. }));
        // A stale life of the old leader shows up "stable": it neither
        // confirms the incumbent nor wins candidacy — held degraded
        // through the dwell, then demoted to a vacant seat.
        let st = el.observe(50.0, &[cand(7, true, 2, 30.0)]);
        assert!(matches!(st, ElectionState::Degraded { incumbent: 7, .. }));
        let st = el.observe(52.0, &[cand(7, true, 2, 32.0)]);
        assert_eq!(st.incumbent(), None);
        // The true newer life re-qualifies normally.
        let st = el.observe(55.0, &[cand(7, true, 4, 3.0)]);
        assert_eq!(st.incumbent(), Some(7));
        assert_eq!(el.record().map(|r| r.incarnation), Some(4));
    }

    #[test]
    fn removed_incumbent_is_demoted() {
        let mut el = CrashRecoveryElector::new(cfg());
        el.observe(10.0, &[cand(1, true, 0, 5.0), cand(2, true, 0, 4.0)]);
        let st = el.observe(11.0, &[cand(2, true, 0, 5.0)]);
        assert_eq!(st.incumbent(), Some(2));
        assert!(el.drain_events().iter().any(|e| matches!(
            e,
            ElectionEvent::Demoted { leader: 1, reason: DemotionReason::Removed, .. }
        )));
    }

    #[test]
    fn leader_metrics_render_fd_leader_series() {
        use crate::MetricsSource;
        let m = LeaderMetrics::new(0.0);
        let mut el = CrashRecoveryElector::new(cfg());
        let st = el.observe(10.0, &[cand(1, true, 0, 5.0)]);
        m.observe(10.0, st, &el.drain_events());
        let mut out = String::new();
        m.prometheus(&mut out);
        assert!(out.contains("fd_leader_state 2"));
        assert!(out.contains("fd_leader_peer 1"));
        assert!(out.contains("fd_leader_elections_total 1"));
        let json = m.json_fields();
        assert_eq!(json.len(), 1);
        assert!(json[0].1.contains("\"state\":\"leader\""));
        assert!(json[0].1.contains("\"leader\":1"));
    }

    #[test]
    fn spurious_demotion_reaches_leader_metrics() {
        use crate::MetricsSource;
        let m = LeaderMetrics::new(0.0);
        let mut el = CrashRecoveryElector::new(cfg());
        // Leader 1 is suspected past the 1 s dwell and demoted, then is
        // trusted again under the same incarnation: it was never down.
        let rounds = [
            (10.0, [cand(1, true, 0, 5.0), cand(2, true, 0, 4.0)]),
            (20.0, [cand(1, false, 0, 0.0), cand(2, true, 0, 14.0)]),
            (21.5, [cand(1, false, 0, 0.0), cand(2, true, 0, 15.5)]),
            (23.0, [cand(1, true, 0, 0.5), cand(2, true, 0, 17.0)]),
        ];
        for (t, cands) in rounds {
            let st = el.observe(t, &cands);
            m.observe(t, st, &el.drain_events());
        }
        let r = m.report();
        assert_eq!((r.demotions, r.spurious_demotions), (1, 1));
        let mut out = String::new();
        m.prometheus(&mut out);
        assert!(out.contains("\nfd_leader_spurious_demotions_total 1\n"), "{out}");
    }
}
