//! Leader-election scenarios: randomized crash–recover and restart-storm
//! drives of [`CrashRecoveryElector`] over a live [`ClusterMonitor`],
//! judged by election QoS oracles.
//!
//! Each scenario registers a handful of peers, elects a leader, then
//! subjects the cluster to seeded adversity — the sitting leader crashes
//! and recovers with a bumped incarnation, whole groups restart at once
//! (a restart storm), the leader blips (a pause just past the detection
//! bound but shorter than the demotion dwell), and a lagging observer
//! occasionally replays a recovered peer's *previous* incarnation into
//! the elector (the stale-digest case federation relays can produce).
//! Everything is driven through the monitor's deterministic entry points
//! ([`record_at_incarnated`](ClusterMonitor::record_at_incarnated),
//! [`advance_to`](ClusterMonitor::advance_to),
//! [`election_candidates_at`](ClusterMonitor::election_candidates_at)),
//! so any counterexample replays from its seed.
//!
//! The oracles assert the three properties E23 cares about:
//!
//! * [`ElectionStabilityOracle`] (**hard**) — no election ever installs
//!   an incarnation below the peer's high-water mark at that moment: a
//!   rebooted node's stale past can never reclaim leadership;
//! * [`ElectionLatencyOracle`] — after every *real* leader crash, a
//!   successor is elected within the detection bound plus two seconds;
//! * [`SpuriousDemotionOracle`] — the measured spurious-demotion rate
//!   (demotions whose "crashed" leader was provably never down) stays
//!   under a small threshold; leader blips inside the dwell must not
//!   flap the seat.

use crate::oracle::{Oracle, Verdict};
use fd_cluster::{
    Candidate, ClusterConfig, ClusterMonitor, CrashRecoveryElector, ElectionConfig,
    ElectionEvent, LeaderMetrics, PeerConfig,
};
use fd_core::{Heartbeat, HysteresisConfig};
use fd_metrics::LeaderQosReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One completed election drive.
#[derive(Debug, Clone)]
pub struct ElectionRunRecord {
    /// The seed it was generated from.
    pub seed: u64,
    /// Detection bound `η + α` the peers were registered with.
    pub bound: f64,
    /// Everything the elector emitted, in observation order.
    pub events: Vec<ElectionEvent>,
    /// Every life a peer ever started: `(peer, incarnation, first
    /// heartbeat time)` — the ground truth for the stability oracle's
    /// high-water reconstruction.
    pub lives: Vec<(u64, u64, f64)>,
    /// Times at which the *sitting leader* really crashed.
    pub leader_crashes: Vec<f64>,
    /// Short leader pauses injected (past the detection bound, inside
    /// the demotion dwell) — each one a chance to flap that must not be
    /// taken.
    pub blips: u64,
    /// Stale-incarnation candidate rows replayed into the elector.
    pub stale_replays: u64,
    /// The leader-QoS summary measured over the whole drive.
    pub report: LeaderQosReport,
}

/// Drives one randomized crash-recovery election scenario,
/// deterministically per seed.
///
/// Peers run NFD-E with `η = 1, α = 2` (detection bound 3 s); the
/// elector runs with a 1 s demotion dwell and a 2 s stability bar, so a
/// crash→re-election handoff fits inside `bound + 2 s` with margin for
/// the 0.25 s observation cadence. The drive interleaves leader
/// crash–recover cycles, restart storms, dwell-sized leader blips and
/// stale-incarnation replays, feeding a [`LeaderMetrics`] tracker
/// throughout so the run's [`LeaderQosReport`] is measured exactly the
/// way a production exporter would.
pub fn run_election_scenario(seed: u64) -> ElectionRunRecord {
    let mut rng = StdRng::seed_from_u64(seed);
    let eta = 1.0;
    let alpha = 2.0;
    let bound = eta + alpha;
    let dt = 0.25;
    let n_peers = rng.random_range(4..=8u64);

    let monitor = ClusterMonitor::manual(ClusterConfig::default());

    let peers: Vec<u64> = (1..=n_peers).collect();
    for &p in &peers {
        monitor
            .add_peer(p, PeerConfig::new(eta, alpha))
            .expect("register peer");
    }

    let mut elector = CrashRecoveryElector::new(ElectionConfig {
        min_stability: 2.0,
        hysteresis: HysteresisConfig {
            min_dwell: 1.0,
            deadband: 0.10,
        },
    });
    let metrics = LeaderMetrics::new(0.0);

    let mut incarnation: std::collections::HashMap<u64, u64> =
        peers.iter().map(|&p| (p, 1)).collect();
    let mut alive: std::collections::HashMap<u64, bool> =
        peers.iter().map(|&p| (p, true)).collect();
    let mut next_beat: std::collections::HashMap<u64, f64> =
        peers.iter().map(|&p| (p, 0.0)).collect();
    let mut seq: std::collections::HashMap<u64, u64> = peers.iter().map(|&p| (p, 0)).collect();
    let mut lives: Vec<(u64, u64, f64)> = Vec::new();
    let mut events: Vec<ElectionEvent> = Vec::new();
    let mut leader_crashes: Vec<f64> = Vec::new();
    let mut blips = 0u64;
    let mut stale_replays = 0u64;
    // (peer, old incarnation, replays left, armed) — a lagging
    // observer. It arms only once the elector has seen the peer's new
    // life (raising its high-water mark); before that the old
    // incarnation isn't knowably stale and replaying it would test
    // nothing.
    let mut stale_feed: Option<(u64, u64, u32, bool)> = None;
    // Peers paused for a blip or a crash: (resume time, bump incarnation).
    let mut paused: std::collections::HashMap<u64, (f64, bool)> = std::collections::HashMap::new();

    let mut t = 0.0f64;
    let horizon = 60.0 + rng.random_range(0.0..20.0);
    // Next adversity injection; leave a 12 s warmup so a leader exists.
    let mut next_fault = 12.0 + rng.random_range(0.0..4.0);

    while t < horizon {
        // Deliver due heartbeats with a small seeded network delay.
        for &p in &peers {
            if !alive[&p] {
                continue;
            }
            while next_beat[&p] <= t {
                let send = next_beat[&p];
                let s = seq.get_mut(&p).unwrap();
                *s += 1;
                let arrival = send + rng.random_range(0.005..0.03);
                let inc = incarnation[&p];
                if lives.iter().all(|&(lp, li, _)| lp != p || li != inc) {
                    lives.push((p, inc, arrival));
                }
                monitor.record_at_incarnated(p, arrival, inc, Heartbeat::new(*s, send));
                *next_beat.get_mut(&p).unwrap() += eta;
            }
        }
        monitor.advance_to(t);

        // Resume any paused peer whose outage is over.
        let due: Vec<u64> = paused
            .iter()
            .filter(|(_, &(until, _))| until <= t)
            .map(|(&p, _)| p)
            .collect();
        for p in due {
            let (_, bump) = paused.remove(&p).unwrap();
            if bump {
                *incarnation.get_mut(&p).unwrap() += 1;
                *seq.get_mut(&p).unwrap() = 0;
            }
            *alive.get_mut(&p).unwrap() = true;
            *next_beat.get_mut(&p).unwrap() = t;
        }

        // The elector's view of the cluster, possibly staled by the
        // lagging observer.
        let mut cands = monitor.election_candidates_at(t);
        if let Some((sp, old_inc, left, armed)) = stale_feed {
            if left == 0 {
                stale_feed = None;
            } else if !armed {
                // Let one clean observation of the new life through so
                // the elector's high-water mark actually rises.
                if cands
                    .iter()
                    .any(|c| c.peer == sp && c.incarnation > old_inc)
                {
                    stale_feed = Some((sp, old_inc, left, true));
                }
            } else if elector.state().incumbent() != Some(sp) {
                // Don't stale the incumbent's own row — that would
                // conflate this with the suspicion path.
                if let Some(c) = cands.iter_mut().find(|c| c.peer == sp) {
                    *c = Candidate {
                        peer: sp,
                        trusted: true,
                        incarnation: old_inc,
                        // A fat stability score: the elector must bar it
                        // on incarnation alone, not because it looks weak.
                        stable_for: 100.0,
                    };
                    stale_replays += 1;
                    stale_feed = Some((sp, old_inc, left - 1, true));
                }
            }
        }
        let state = elector.observe(t, &cands);
        let evs = elector.drain_events();
        metrics.observe(t, state, &evs);
        events.extend(evs);

        // Inject the next fault once a leader is seated — but not so
        // close to the horizon that the drive ends mid-outage, which
        // would turn a truncated run into a bogus latency violation.
        if t >= next_fault && t + 12.0 <= horizon {
            if let Some(leader) = state.incumbent() {
                match rng.random_range(0..4u8) {
                    0 | 1 => {
                        // Leader crash: silent until recovery, then a
                        // new incarnation. The crash moment is the last
                        // heartbeat it managed to send.
                        let outage = bound + rng.random_range(2.0..6.0);
                        paused.insert(leader, (t + outage, true));
                        *alive.get_mut(&leader).unwrap() = false;
                        let crashed_at = next_beat[&leader] - eta;
                        leader_crashes.push(crashed_at);
                        metrics.note_crash(crashed_at);
                        // Half the time the lagging observer later
                        // replays the pre-crash incarnation.
                        if rng.random_bool(0.5) {
                            stale_feed = Some((leader, incarnation[&leader], 8, false));
                        }
                    }
                    2 => {
                        // Restart storm: every non-leader bounces at
                        // once with bumped incarnations; the leader
                        // keeps beating and must keep the seat.
                        for &p in &peers {
                            if p != leader && alive[&p] {
                                let outage = rng.random_range(1.0..3.0);
                                paused.insert(p, (t + outage, true));
                                *alive.get_mut(&p).unwrap() = false;
                            }
                        }
                    }
                    _ => {
                        // Blip: a pause past the detection bound but
                        // well inside the demotion dwell — the seat must
                        // not flap on it.
                        let pause = bound + 0.4;
                        paused.insert(leader, (t + pause, false));
                        *alive.get_mut(&leader).unwrap() = false;
                        blips += 1;
                    }
                }
                next_fault = t + bound + rng.random_range(6.0..10.0);
            }
        }

        t += dt;
    }

    let report = metrics.report();
    monitor.shutdown();
    ElectionRunRecord {
        seed,
        bound,
        events,
        lives,
        leader_crashes,
        blips,
        stale_replays,
        report,
    }
}

/// **Hard oracle**: no election ever installs a stale incarnation.
///
/// Replays the event stream against the ground-truth life table: at the
/// moment of each `Elected` event, the installed incarnation must be at
/// least the highest incarnation that peer had already presented a
/// heartbeat for. A reject here means a rebooted node's previous life
/// reclaimed leadership — the exact split-brain the high-water fence
/// exists to prevent — so one counterexample fails the whole experiment.
#[derive(Debug, Clone, Copy, Default)]
pub struct ElectionStabilityOracle;

impl Oracle<ElectionRunRecord> for ElectionStabilityOracle {
    fn name(&self) -> &'static str {
        "no-stale-incarnation-leader"
    }

    fn hard(&self) -> bool {
        true
    }

    fn judge(&self, rec: &ElectionRunRecord) -> Verdict {
        for ev in &rec.events {
            if let ElectionEvent::Elected {
                leader,
                incarnation,
                at,
            } = *ev
            {
                let high_water = rec
                    .lives
                    .iter()
                    .filter(|&&(p, _, first)| p == leader && first <= at)
                    .map(|&(_, inc, _)| inc)
                    .max()
                    .unwrap_or(0);
                if incarnation < high_water {
                    return Verdict::Reject(format!(
                        "peer {leader} elected at t={at:.2} with stale incarnation \
                         {incarnation} < high-water {high_water} (seed {})",
                        rec.seed
                    ));
                }
            }
        }
        Verdict::Accept
    }
}

/// After every real leader crash, a successor is elected within the
/// detection bound plus two seconds (suspicion must propagate through
/// detection, survive the demotion dwell, and the vacant seat must be
/// filled — all inside the slack).
#[derive(Debug, Clone, Copy, Default)]
pub struct ElectionLatencyOracle;

impl Oracle<ElectionRunRecord> for ElectionLatencyOracle {
    fn name(&self) -> &'static str {
        "crash-to-election-latency"
    }

    fn judge(&self, rec: &ElectionRunRecord) -> Verdict {
        if rec.leader_crashes.is_empty() {
            return Verdict::Undecided;
        }
        let budget = rec.bound + 2.0;
        for &crash in &rec.leader_crashes {
            let elected = rec.events.iter().find_map(|ev| match *ev {
                ElectionEvent::Elected { at, .. } if at > crash => Some(at),
                _ => None,
            });
            match elected {
                Some(at) if at - crash <= budget => {}
                Some(at) => {
                    return Verdict::Reject(format!(
                        "crash at t={crash:.2} not recovered until t={at:.2} \
                         ({:.2}s > budget {budget:.2}s, seed {})",
                        at - crash,
                        rec.seed
                    ));
                }
                None => {
                    return Verdict::Reject(format!(
                        "crash at t={crash:.2} never followed by an election (seed {})",
                        rec.seed
                    ));
                }
            }
        }
        Verdict::Accept
    }
}

/// The measured spurious-demotion rate stays under threshold.
///
/// Every crash in these scenarios is real (the peer stops sending and
/// comes back as a new incarnation), and every blip is sized to fit
/// inside the demotion dwell — so a demotion whose "crashed" leader
/// reappears trusted under the *same* incarnation is a detector mistake
/// the elector should have absorbed. The tracker counts exactly those;
/// this oracle rejects when their rate among all demotions exceeds 20%.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpuriousDemotionOracle;

impl Oracle<ElectionRunRecord> for SpuriousDemotionOracle {
    fn name(&self) -> &'static str {
        "spurious-demotion-rate"
    }

    fn judge(&self, rec: &ElectionRunRecord) -> Verdict {
        if rec.report.demotions == 0 {
            return Verdict::Undecided;
        }
        let rate = rec.report.spurious_demotion_rate;
        if rate > 0.20 {
            return Verdict::Reject(format!(
                "spurious demotion rate {rate:.3} ({} of {} demotions) over 0.20 \
                 across {} blips (seed {})",
                rec.report.spurious_demotions, rec.report.demotions, rec.blips, rec.seed
            ));
        }
        Verdict::Accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn election_scenarios_satisfy_all_oracles() {
        let stability = ElectionStabilityOracle;
        let latency = ElectionLatencyOracle;
        let spurious = SpuriousDemotionOracle;
        let mut crashes = 0usize;
        let mut stale = 0u64;
        for seed in 0..6 {
            let rec = run_election_scenario(seed);
            let v = stability.judge(&rec);
            assert!(!v.is_reject(), "seed {seed}: {v:?}");
            let v = latency.judge(&rec);
            assert!(!v.is_reject(), "seed {seed}: {v:?}");
            let v = spurious.judge(&rec);
            assert!(!v.is_reject(), "seed {seed}: {v:?}");
            assert!(
                rec.report.elections >= 1,
                "seed {seed}: no election ever happened"
            );
            crashes += rec.leader_crashes.len();
            stale += rec.stale_replays;
        }
        // The sweep must actually have exercised the adversity paths,
        // or the oracles never bite.
        assert!(crashes > 0, "no scenario ever crashed a leader");
        assert!(stale > 0, "no scenario ever replayed a stale incarnation");
    }

    #[test]
    fn election_scenarios_are_deterministic() {
        let a = run_election_scenario(3);
        let b = run_election_scenario(3);
        assert_eq!(a.events, b.events, "event stream diverged");
        assert_eq!(a.leader_crashes, b.leader_crashes);
        assert_eq!(a.lives, b.lives);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn stale_replays_are_barred_and_counted() {
        // Sweep seeds until one actually injected stale rows, then
        // check the elector turned every one into a StaleCandidacy
        // event rather than an election.
        for seed in 0..12 {
            let rec = run_election_scenario(seed);
            if rec.stale_replays == 0 {
                continue;
            }
            assert!(
                rec.report.stale_candidacies > 0,
                "seed {seed}: {} replays produced no stale-candidacy events",
                rec.stale_replays
            );
            assert!(!ElectionStabilityOracle.judge(&rec).is_reject());
            return;
        }
        panic!("no seed in 0..12 injected a stale replay");
    }
}
