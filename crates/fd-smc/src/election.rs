//! Leader-election scenarios: randomized crash–recover and restart-storm
//! drives of [`CrashRecoveryElector`] over a [`ClusterMonitor`], judged
//! by election QoS oracles.
//!
//! An [`ElectionDrive`] steps the scenario driver ([`crate::drive`]):
//! peers `1..=n` send heartbeat `i` at `i·η` ([`ETA`]) over loss-free
//! links with delays uniform on [5, 30) ms into a monitor that sweeps
//! every 10 ms, and every [`OBSERVE_EVERY`] the elector reads the
//! monitor's [`election_candidates`](ClusterMonitor::election_candidates),
//! whose stability runs to the monitor's clock (its latest sweep or
//! delivery).
//! Adversity depends on who leads, so it is appended to the peers' fault
//! plans as the run goes: the sitting leader crashes and recovers as a
//! new incarnation, whole groups restart at once (a restart storm), the
//! leader blips (a partition that drops just enough heartbeats to pass
//! the detection bound, but not the demotion dwell), and a lagging
//! observer occasionally replays a recovered peer's *previous*
//! incarnation into the elector (the stale-digest case federation relays
//! can produce). Any counterexample replays from its seed. E23's churn
//! sweep runs the same drive.
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

use crate::drive::{Drive, Peer, Scenario};
use crate::oracle::{Oracle, Verdict};
use fd_cluster::{
    Candidate, ClusterMonitor, CrashRecoveryElector, ElectionConfig, ElectionEvent,
    ElectionState, LeaderMetrics, PeerConfig, PeerId,
};
use fd_core::HysteresisConfig;
use fd_metrics::LeaderQosReport;
use fd_sim::{Link, LinkFault, MultiNodePlan};
use fd_stats::dist::Uniform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Heartbeat period of every election peer, seconds.
pub const ETA: f64 = 1.0;
/// Freshness slack of every election peer: the detection bound is
/// `ETA + ALPHA`.
pub const ALPHA: f64 = 2.0;
/// How often the elector reads the monitor, seconds.
pub const OBSERVE_EVERY: f64 = 0.25;

/// One completed election drive.
#[derive(Debug, Clone)]
pub struct ElectionRunRecord {
    /// The seed it was generated from.
    pub seed: u64,
    /// Detection bound `η + α` the peers were registered with.
    pub bound: f64,
    /// Everything the elector emitted, in observation order.
    pub events: Vec<ElectionEvent>,
    /// Every life a peer ever started: `(peer, incarnation, arrival of
    /// its first heartbeat)` — the ground truth for the stability
    /// oracle's high-water reconstruction.
    pub lives: Vec<(u64, u64, f64)>,
    /// Times at which the *sitting leader* really crashed: its last send.
    pub leader_crashes: Vec<f64>,
    /// Leader blips injected (past the detection bound, inside the
    /// demotion dwell) — each one a chance to flap that must not be
    /// taken.
    pub blips: u64,
    /// Stale-incarnation candidate rows replayed into the elector.
    pub stale_replays: u64,
    /// The leader-QoS summary measured over the whole drive.
    pub report: LeaderQosReport,
}

impl ElectionRunRecord {
    /// `peer`'s incarnation high-water mark at `at`: the highest
    /// incarnation it had presented a heartbeat for by then.
    fn high_water(&self, peer: PeerId, at: f64) -> u64 {
        let lives = self.lives.iter().filter(|&&(p, _, first)| p == peer && first <= at);
        lives.map(|&(_, incarnation, _)| incarnation).max().unwrap_or(0)
    }

    /// Every election that installed an incarnation below its leader's
    /// high-water mark at that moment: `(leader, incarnation, at,
    /// high-water)`.
    pub fn stale_elections(&self) -> Vec<(PeerId, u64, f64, u64)> {
        let elections = self.events.iter().filter_map(|ev| match *ev {
            ElectionEvent::Elected { leader, incarnation, at } => Some((leader, incarnation, at)),
            _ => None,
        });
        elections
            .map(|(leader, incarnation, at)| (leader, incarnation, at, self.high_water(leader, at)))
            .filter(|&(_, incarnation, _, high_water)| incarnation < high_water)
            .collect()
    }

    /// Each real leader crash with the time from it to the first
    /// election after it, `None` if none came.
    pub fn election_latencies(&self) -> Vec<(f64, Option<f64>)> {
        let first_after = |crash: f64| {
            self.events.iter().find_map(|ev| match *ev {
                ElectionEvent::Elected { at, .. } if at > crash => Some(at - crash),
                _ => None,
            })
        };
        self.leader_crashes.iter().map(|&crash| (crash, first_after(crash))).collect()
    }
}

/// `n` peers `1..=n`, each heartbeating every [`ETA`] over a loss-free
/// link with delays uniform on [5, 30) ms, into a monitor that sweeps
/// every 10 ms, over `[0, horizon]`.
pub fn election_scenario(seed: u64, n: u64, horizon: f64) -> Scenario {
    let seeds = MultiNodePlan::new(seed);
    let peers = (1..=n).map(|p| {
        let delay = Uniform::new(0.005, 0.03).expect("a valid delay law");
        let link = Link::new(0.0, Box::new(delay)).expect("no loss");
        Peer::with_link(p, PeerConfig::new(ETA, ALPHA), link, seeds.node_seed(p))
    });
    Scenario { tick: 0.01, ..Scenario::new(horizon, peers.collect()) }
}

/// A [`CrashRecoveryElector`] reading a driven monitor, with the run's
/// leader QoS measured by a [`LeaderMetrics`] tracker the way a
/// production exporter would.
pub struct ElectionDrive<'a> {
    drive: Drive<'a>,
    elector: CrashRecoveryElector,
    metrics: Arc<LeaderMetrics>,
    events: Vec<ElectionEvent>,
    leader_crashes: Vec<f64>,
    blips: u64,
}

impl<'a> ElectionDrive<'a> {
    /// Drives `scenario` under an elector with a 2 s stability bar and a
    /// 1 s demotion dwell, so a crash→re-election handoff fits inside
    /// `ETA + ALPHA + 2 s` with margin for the observation cadence.
    pub fn new(scenario: &'a Scenario) -> Self {
        let hysteresis = HysteresisConfig { min_dwell: 1.0, deadband: 0.10 };
        Self {
            drive: Drive::new(scenario),
            elector: CrashRecoveryElector::new(ElectionConfig { min_stability: 2.0, hysteresis }),
            metrics: Arc::new(LeaderMetrics::new(0.0)),
            events: Vec::new(),
            leader_crashes: Vec::new(),
            blips: 0,
        }
    }

    /// The monitor being driven.
    pub fn monitor(&self) -> &ClusterMonitor {
        self.drive.monitor()
    }

    /// The leader-QoS tracker.
    pub fn metrics(&self) -> &Arc<LeaderMetrics> {
        &self.metrics
    }

    /// The elector's incumbent.
    pub fn incumbent(&self) -> Option<PeerId> {
        self.elector.state().incumbent()
    }

    /// Whether `peer` is up now.
    pub fn alive(&self, peer: PeerId) -> bool {
        !self.drive.is_crashed(peer)
    }

    /// Runs the scenario to `t` and reads the monitor's candidates there.
    pub fn candidates(&mut self, t: f64) -> Vec<Candidate> {
        self.drive.run_until(t);
        self.drive.monitor().election_candidates()
    }

    /// One election round at `t` over `candidates`.
    pub fn observe(&mut self, t: f64, candidates: &[Candidate]) -> ElectionState {
        let state = self.elector.observe(t, candidates);
        let events = self.elector.drain_events();
        self.metrics.observe(t, state, &events);
        self.events.extend(events);
        state
    }

    /// `peer` crashes now and comes back `outage` later as a new
    /// incarnation.
    pub fn bounce(&mut self, peer: PeerId, outage: f64) {
        let now = self.drive.now();
        self.drive.crash(peer, now);
        self.drive.recover(peer, now + outage);
    }

    /// The sitting `leader` [`bounce`](Self::bounce)s: a real crash, from
    /// its last send. Returns the incarnation it crashed in.
    pub fn crash_leader(&mut self, leader: PeerId, outage: f64) -> u64 {
        let crashed_at = self.drive.last_sent(leader).unwrap_or(0.0);
        self.bounce(leader, outage);
        self.leader_crashes.push(crashed_at);
        self.metrics.note_crash(crashed_at);
        self.drive.incarnation(leader)
    }

    /// `peer`'s link drops the three heartbeats after its last send:
    /// the gap passes the detection bound by one period, which stays
    /// inside the demotion dwell at the observation cadence.
    fn blip(&mut self, peer: PeerId) {
        let (now, last) = (self.drive.now(), self.drive.last_sent(peer).unwrap_or(0.0));
        self.drive.link_fault(peer, now, LinkFault::Partition);
        self.drive.link_fault(peer, last + ETA + ALPHA + ETA / 2.0, LinkFault::Nominal);
        self.blips += 1;
    }

    /// Runs the scenario to its horizon and returns the record.
    pub fn finish(self, seed: u64, stale_replays: u64) -> ElectionRunRecord {
        let report = self.metrics.report();
        let out = self.drive.finish();
        let mut lives = Vec::new();
        for (&peer, deliveries) in &out.deliveries {
            let mut high = None;
            for d in deliveries {
                if high < Some(d.incarnation) {
                    high = Some(d.incarnation);
                    lives.push((peer, d.incarnation, d.at));
                }
            }
        }
        ElectionRunRecord {
            seed,
            bound: ETA + ALPHA,
            events: self.events,
            lives,
            leader_crashes: self.leader_crashes,
            blips: self.blips,
            stale_replays,
            report,
        }
    }
}

/// Drives one randomized crash-recovery election scenario,
/// deterministically per seed: 4–8 peers over 60–80 s, with leader
/// crash–recover cycles, restart storms, leader blips and
/// stale-incarnation replays from the first leader on.
pub fn run_election_scenario(seed: u64) -> ElectionRunRecord {
    let mut rng = StdRng::seed_from_u64(seed);
    let bound = ETA + ALPHA;
    let n_peers = rng.random_range(4..=8u64);
    let horizon = 60.0 + rng.random_range(0.0..20.0);
    let scenario = election_scenario(seed, n_peers, horizon);
    let mut drive = ElectionDrive::new(&scenario);
    let mut stale_replays = 0u64;
    // (peer, old incarnation, replays left, armed) — a lagging
    // observer. It arms only once the elector has seen the peer's new
    // life (raising its high-water mark); before that the old
    // incarnation isn't knowably stale and replaying it would test
    // nothing.
    let mut stale_feed: Option<(u64, u64, u32, bool)> = None;
    // Next adversity injection; leave a 12 s warmup so a leader exists.
    let mut next_fault = 12.0 + rng.random_range(0.0..4.0);

    let mut t = 0.0f64;
    while t < horizon {
        // The elector's view of the cluster, possibly staled by the
        // lagging observer.
        let mut cands = drive.candidates(t);
        if let Some((sp, old_inc, left, armed)) = stale_feed {
            if left == 0 {
                stale_feed = None;
            } else if !armed {
                // Let one clean observation of the new life through so
                // the elector's high-water mark actually rises.
                if cands.iter().any(|c| c.peer == sp && c.incarnation > old_inc) {
                    stale_feed = Some((sp, old_inc, left, true));
                }
            } else if drive.incumbent() != Some(sp) {
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
        let state = drive.observe(t, &cands);

        // Inject the next fault once a live leader is seated — but not so
        // close to the horizon that the drive ends mid-outage, which
        // would turn a truncated run into a bogus latency violation.
        let leader = state.incumbent().filter(|&leader| drive.alive(leader));
        if let Some(leader) = leader.filter(|_| t >= next_fault && t + 12.0 <= horizon) {
            match rng.random_range(0..4u8) {
                0 | 1 => {
                    // Leader crash: silent until recovery, then a new
                    // incarnation. Half the time the lagging observer
                    // later replays the pre-crash incarnation.
                    let old = drive.crash_leader(leader, bound + rng.random_range(2.0..6.0));
                    if rng.random_bool(0.5) {
                        stale_feed = Some((leader, old, 8, false));
                    }
                }
                2 => {
                    // Restart storm: every non-leader bounces at once
                    // with bumped incarnations; the leader keeps beating
                    // and must keep the seat.
                    for p in 1..=n_peers {
                        if p != leader && drive.alive(p) {
                            drive.bounce(p, rng.random_range(1.0..3.0));
                        }
                    }
                }
                _ => drive.blip(leader),
            }
            next_fault = t + bound + rng.random_range(6.0..10.0);
        }

        t += OBSERVE_EVERY;
    }
    drive.finish(seed, stale_replays)
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
        match rec.stale_elections().first() {
            Some(&(leader, incarnation, at, high_water)) => Verdict::Reject(format!(
                "peer {leader} elected at t={at:.2} with stale incarnation \
                 {incarnation} < high-water {high_water} (seed {})",
                rec.seed
            )),
            None => Verdict::Accept,
        }
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
        for (crash, latency) in rec.election_latencies() {
            match latency {
                Some(latency) if latency <= budget => {}
                Some(latency) => {
                    return Verdict::Reject(format!(
                        "crash at t={crash:.2} not recovered until t={:.2} \
                         ({latency:.2}s > budget {budget:.2}s, seed {})",
                        crash + latency,
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
/// comes back as a new incarnation), and every blip is sized to end
/// inside the demotion dwell — so a demotion whose "crashed" leader
/// reappears trusted under the *same* incarnation is a detector mistake
/// the elector should have absorbed. The elector emits each one as an
/// [`ElectionEvent::SpuriousDemotion`], the run's [`LeaderMetrics`]
/// counts them into the report, and this oracle rejects when their
/// share of all demotions exceeds 20% — as it does once a blip outlasts
/// the dwell.
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
        let oracles: [&dyn Oracle<ElectionRunRecord>; 3] =
            [&ElectionStabilityOracle, &ElectionLatencyOracle, &SpuriousDemotionOracle];
        let (mut crashes, mut blips, mut stale) = (0, 0, 0);
        for seed in 0..6 {
            let rec = run_election_scenario(seed);
            for oracle in oracles {
                let v = oracle.judge(&rec);
                assert!(!v.is_reject(), "seed {seed}: {v:?}");
            }
            assert!(rec.report.elections >= 1, "seed {seed}: no election ever happened");
            // The elector turns every stale row into a StaleCandidacy
            // event rather than an election.
            if rec.stale_replays > 0 {
                assert!(rec.report.stale_candidacies > 0, "seed {seed}: stale rows not barred");
            }
            crashes += rec.leader_crashes.len();
            blips += rec.blips;
            stale += rec.stale_replays;
        }
        // The sweep must actually have exercised the adversity paths,
        // or the oracles never bite.
        assert!(crashes > 0, "no scenario ever crashed a leader");
        assert!(blips > 0, "no scenario ever blipped a leader");
        assert!(stale > 0, "no scenario ever replayed a stale incarnation");
    }
}
