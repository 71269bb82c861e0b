//! Federation-layer scenarios: randomized multi-node failover drives,
//! judged by coverage and convergence oracles.
//!
//! The [`cluster`](crate::cluster) scenarios check one monitor's
//! membership layer; these check the tier above it — the
//! `fd-federation` monitor-of-monitors with rendezvous partitioning,
//! digest gossip and cross-node failover. Each scenario samples a
//! federation shape (node count, peer count), a scripted
//! [`MultiNodePlan`] (one node killed, optionally restarted; optionally
//! a survivor–survivor gossip-link partition), drives the
//! [`Federation`] harness tick by tick on an explicit clock, and
//! returns a [`FedRecord`]. Two properties are judged:
//!
//! * [`FedCoverageOracle`] — **no peer left unmonitored after the
//!   failover settle time**: once the node-watch detection bound
//!   `η + α` (plus gossip/rebalance granularity) has elapsed past the
//!   kill and past any link heal, every registered peer has at least
//!   one alive owner, the first takeover happened within the bound,
//!   and the run ends with exactly-once ownership.
//! * [`FedConvergenceOracle`] — **digest convergence**: by the end of
//!   the run (which always spans a full-refresh round), every alive
//!   node knows every other alive node's partition at its current
//!   incarnation and the union of claims covers the registered
//!   universe.
//!
//! Everything is deterministic per seed — the federation monitors are
//! driven exclusively through `record_at`/`advance_to`-style explicit
//! clocks — so any counterexample replays from one integer.

use crate::oracle::{Oracle, Verdict};
use fd_core::Heartbeat;
use fd_federation::{Coverage, FedChange, FedEvent, Federation, FederationConfig, NodeId};
use fd_sim::MultiNodePlan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One completed federation drive.
#[derive(Debug)]
pub struct FedRecord {
    /// The seed it was generated from.
    pub seed: u64,
    /// Monitor node ids.
    pub nodes: Vec<NodeId>,
    /// Registered peers.
    pub peers: Vec<u64>,
    /// When the victim was killed.
    pub kill_at: f64,
    /// When it was restarted, if the scenario restarts it.
    pub restart_at: Option<f64>,
    /// Detection + failover bound: node-watch `η + α` plus two seconds
    /// of gossip/rebalance granularity.
    pub takeover_bound: f64,
    /// Harness time after which coverage must be whole: the bound past
    /// both the kill and any link heal.
    pub settle_at: f64,
    /// Coverage measured at [`FedRecord::settle_at`].
    pub settle_coverage: Coverage,
    /// Coverage at the horizon.
    pub final_coverage: Coverage,
    /// Whether every alive node's view had converged at the horizon.
    pub converged: bool,
    /// The federation event stream (adoptions, releases), in order.
    pub events: Vec<FedEvent>,
}

impl FedRecord {
    /// When some survivor first adopted one of the victim's peers.
    pub fn first_takeover_at(&self) -> Option<f64> {
        let victim = self.victim();
        self.events
            .iter()
            .find(|e| matches!(e.change, FedChange::PeerAdopted { from, .. } if from == victim))
            .map(|e| e.at)
    }

    /// The killed node (always the highest node id, by construction).
    pub fn victim(&self) -> NodeId {
        *self.nodes.last().expect("at least one node")
    }
}

/// Drives one randomized federation failover scenario, deterministically
/// per seed.
///
/// The federation has 3–5 nodes and 24–60 peers. The highest node is
/// killed between t = 12 and t = 20 and, with probability one half,
/// restarted 8–12 s later. With probability 0.4 a gossip link between
/// two *survivors* partitions for 2–4 s starting before the kill, so
/// failover proceeds under a split monitor-of-monitors view. Peer
/// heartbeats tick every second; each second runs one gossip round, one
/// freshness sweep and one rebalance. The horizon always lands on a
/// full-refresh round past every scripted event plus the settle bound.
pub fn run_federation_scenario(seed: u64) -> FedRecord {
    let mut rng = StdRng::seed_from_u64(seed);

    let n_nodes = rng.random_range(3..=5u64);
    let nodes: Vec<NodeId> = (0..n_nodes).collect();
    let n_peers = rng.random_range(24..=60u64);
    let victim = n_nodes - 1;
    let kill_at = rng.random_range(12..=20u64) as f64;
    let restart_at =
        rng.random_bool(0.5).then(|| kill_at + rng.random_range(8..=12u64) as f64);

    let mut plan = MultiNodePlan::new(seed).kill_node(victim, kill_at);
    if let Some(at) = restart_at {
        plan = plan.restart_node(victim, at);
    }
    let mut heal_at = 0.0;
    if rng.random_bool(0.4) && n_nodes >= 3 {
        // Partition two survivors across the kill window.
        let a = rng.random_range(0..victim);
        let b = (a + 1 + rng.random_range(0..victim - 1)) % victim;
        if a != b {
            let start = rng.random_range(8..=11u64) as f64;
            heal_at = start + rng.random_range(2..=4u64) as f64;
            plan = plan.partition_link(a, b, start, heal_at);
        }
    }

    let cfg = FederationConfig { nodes: nodes.clone(), ..FederationConfig::default() };
    let takeover_bound = cfg.node.node_watch.eta + cfg.node.node_watch.alpha + 2.0;
    let settle_at = (kill_at.max(heal_at) + takeover_bound).ceil();
    let refresh = cfg.node.full_refresh_every;
    let last = plan.last_event_time().max(settle_at) + 4.0;
    let horizon = (last as u64).div_ceil(refresh) * refresh + refresh;

    let mut fed = Federation::spawn(cfg).expect("spawn federation");
    for peer in 0..n_peers {
        fed.register(1000 + peer);
    }
    let mut down = vec![false; nodes.len()];
    let mut settle_coverage = None;

    for step in 1..=horizon {
        let now = step as f64;
        for (i, &node) in nodes.iter().enumerate() {
            let crashed = plan.is_node_crashed_at(node, now);
            if crashed && !down[i] {
                fed.kill(node, now);
                down[i] = true;
            } else if !crashed && down[i] {
                fed.restart(node).expect("restart");
                down[i] = false;
            }
        }
        for peer in fed.peers().to_vec() {
            fed.deliver(peer, now, 1, Heartbeat::new(step, now));
        }
        fed.gossip_where(now, |a, b| plan.link_blocked_at(a, b, now));
        fed.advance(now);
        fed.rebalance(now);
        if now >= settle_at && settle_coverage.is_none() {
            settle_coverage = Some(fed.coverage());
        }
    }

    FedRecord {
        seed,
        peers: fed.peers().to_vec(),
        kill_at,
        restart_at,
        takeover_bound,
        settle_at,
        settle_coverage: settle_coverage.expect("horizon spans the settle point"),
        final_coverage: fed.coverage(),
        converged: fed.views_converged(),
        events: fed.events().to_vec(),
        nodes,
    }
}

/// One completed relay-routing drive: a persistent one-way link cut
/// with every node alive throughout.
#[derive(Debug)]
pub struct FedRelayRecord {
    /// The seed it was generated from.
    pub seed: u64,
    /// Monitor node ids (all alive for the whole run).
    pub nodes: Vec<NodeId>,
    /// The severed direction: datagrams `cut.0 → cut.1` never arrive.
    pub cut: (NodeId, NodeId),
    /// When the one-way cut starts.
    pub cut_at: f64,
    /// Ticks (past bootstrap grace + detection bound) on which some
    /// alive node's view missed another alive node — with no real
    /// failure in the run, every one is a false suspicion.
    pub false_suspicions: u64,
    /// Whether every node's view had converged at the horizon.
    pub converged: bool,
    /// Relayed digests accepted federation-wide (`fd_fed_relayed_digests`).
    pub relayed_digests: u64,
}

/// Drives one randomized relay-routing scenario, deterministically per
/// seed: 4–5 nodes, 24–48 peers, nobody dies, but one directed gossip
/// link is cut early and stays cut to the horizon. The cut node stays
/// reachable through the other survivors' relays, so the observer on
/// the broken end must keep trusting it (anything else is a false
/// suspicion) and every view must still converge.
pub fn run_relay_scenario(seed: u64) -> FedRelayRecord {
    let mut rng = StdRng::seed_from_u64(seed);

    let n_nodes = rng.random_range(4..=5u64);
    let nodes: Vec<NodeId> = (0..n_nodes).collect();
    let n_peers = rng.random_range(24..=48u64);
    // Sever one directed link: `from`'s datagrams toward `to` vanish.
    let from = rng.random_range(0..n_nodes);
    let to = (from + 1 + rng.random_range(0..n_nodes - 1)) % n_nodes;
    let cut_at = rng.random_range(4..=8u64) as f64;

    let cfg = FederationConfig { nodes: nodes.clone(), ..FederationConfig::default() };
    let grace = cfg.node.bootstrap_grace;
    let bound = cfg.node.node_watch.eta + cfg.node.node_watch.alpha + 2.0;
    let horizon = ((grace + bound) as u64 + 16).max(32);
    let plan = MultiNodePlan::new(seed).cut_link_oneway(from, to, cut_at, horizon as f64 + 16.0);

    let mut fed = Federation::spawn(cfg).expect("spawn federation");
    for peer in 0..n_peers {
        fed.register(2000 + peer);
    }
    let mut false_suspicions = 0u64;
    for step in 1..=horizon {
        let now = step as f64;
        for peer in fed.peers().to_vec() {
            fed.deliver(peer, now, 1, Heartbeat::new(step, now));
        }
        fed.gossip_where(now, |a, b| plan.link_blocked_from_to(a, b, now));
        fed.advance(now);
        fed.rebalance(now);
        if now > grace + bound {
            for &id in &nodes {
                let alive = fed.node(id).expect("alive").alive_nodes(now);
                false_suspicions += nodes.iter().filter(|n| !alive.contains(n)).count() as u64;
            }
        }
    }

    FedRelayRecord {
        seed,
        cut: (from, to),
        cut_at,
        false_suspicions,
        converged: fed.views_converged(),
        relayed_digests: fed
            .metrics()
            .relayed_digests
            .load(std::sync::atomic::Ordering::Relaxed),
        nodes,
    }
}

/// Relay coverage: a one-way-cut link must be routed around, never
/// detected as a node failure.
#[derive(Debug, Clone, Copy, Default)]
pub struct FedRelayOracle;

impl Oracle<FedRelayRecord> for FedRelayOracle {
    fn name(&self) -> &'static str {
        "fed-relay-coverage"
    }

    fn judge(&self, rec: &FedRelayRecord) -> Verdict {
        if rec.false_suspicions > 0 {
            return Verdict::Reject(format!(
                "{} false suspicions despite relay reachability (cut {:?} at {}, seed {})",
                rec.false_suspicions, rec.cut, rec.cut_at, rec.seed
            ));
        }
        if !rec.converged {
            return Verdict::Reject(format!(
                "views had not converged by the horizon under the {:?} cut (seed {})",
                rec.cut, rec.seed
            ));
        }
        if rec.relayed_digests == 0 {
            return Verdict::Reject(format!(
                "no digest was ever relayed — the cut {:?} was never routed around (seed {})",
                rec.cut, rec.seed
            ));
        }
        Verdict::Accept
    }
}

/// No peer left unmonitored after the failover settle time.
#[derive(Debug, Clone, Copy, Default)]
pub struct FedCoverageOracle;

impl Oracle<FedRecord> for FedCoverageOracle {
    fn name(&self) -> &'static str {
        "fed-coverage-after-failover"
    }

    fn judge(&self, rec: &FedRecord) -> Verdict {
        let Some(takeover) = rec.first_takeover_at() else {
            return Verdict::Reject(format!(
                "node {} was killed at {} but nobody ever adopted its partition (seed {})",
                rec.victim(),
                rec.kill_at,
                rec.seed
            ));
        };
        if takeover - rec.kill_at > rec.takeover_bound {
            return Verdict::Reject(format!(
                "first takeover at {takeover} exceeds kill {} + bound {} (seed {})",
                rec.kill_at, rec.takeover_bound, rec.seed
            ));
        }
        if !rec.settle_coverage.orphans.is_empty() {
            return Verdict::Reject(format!(
                "{} peers unmonitored at settle time {}: {:?} (seed {})",
                rec.settle_coverage.orphans.len(),
                rec.settle_at,
                rec.settle_coverage.orphans,
                rec.seed
            ));
        }
        if !rec.final_coverage.is_clean() {
            return Verdict::Reject(format!(
                "horizon coverage not exactly-once: orphans {:?}, duplicated {:?} (seed {})",
                rec.final_coverage.orphans, rec.final_coverage.duplicated, rec.seed
            ));
        }
        Verdict::Accept
    }
}

/// Digest convergence: every alive node ends the run knowing every
/// other alive node's partition at its current incarnation, covering
/// the whole registered universe.
#[derive(Debug, Clone, Copy, Default)]
pub struct FedConvergenceOracle;

impl Oracle<FedRecord> for FedConvergenceOracle {
    fn name(&self) -> &'static str {
        "fed-digest-convergence"
    }

    fn judge(&self, rec: &FedRecord) -> Verdict {
        if rec.converged {
            Verdict::Accept
        } else {
            Verdict::Reject(format!(
                "views had not converged by the horizon (kill {}, restart {:?}, seed {})",
                rec.kill_at, rec.restart_at, rec.seed
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn federation_scenarios_satisfy_both_oracles() {
        let coverage = FedCoverageOracle;
        let convergence = FedConvergenceOracle;
        let mut restarted = 0;
        for seed in 0..8 {
            let rec = run_federation_scenario(seed);
            let v = coverage.judge(&rec);
            assert!(!v.is_reject(), "seed {seed}: {v:?}");
            let v = convergence.judge(&rec);
            assert!(!v.is_reject(), "seed {seed}: {v:?}");
            restarted += usize::from(rec.restart_at.is_some());
        }
        // The sweep must exercise both the restart and the
        // kill-without-return arm, or half the failover logic is idle.
        assert!(restarted > 0 && restarted < 8, "{restarted}/8 scenarios restarted");
    }

    #[test]
    fn relay_scenarios_satisfy_the_relay_oracle() {
        let oracle = FedRelayOracle;
        for seed in 0..6 {
            let rec = run_relay_scenario(seed);
            let v = oracle.judge(&rec);
            assert!(!v.is_reject(), "seed {seed}: {v:?}");
            assert!(rec.relayed_digests > 0, "seed {seed} never relayed");
        }
    }

    #[test]
    fn relay_scenarios_are_deterministic() {
        let a = run_relay_scenario(3);
        let b = run_relay_scenario(3);
        assert_eq!(a.cut, b.cut);
        assert_eq!(a.false_suspicions, b.false_suspicions);
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.relayed_digests, b.relayed_digests);
    }

    #[test]
    fn federation_scenarios_are_deterministic() {
        let a = run_federation_scenario(5);
        let b = run_federation_scenario(5);
        assert_eq!(a.events, b.events, "event streams diverged");
        assert_eq!(a.settle_coverage.orphans, b.settle_coverage.orphans);
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.peers, b.peers);
    }
}
