//! The federation harness: N [`FederationNode`]s, a deterministic
//! gossip fabric between them, kill/restart of whole monitor nodes, and
//! global coverage/convergence queries.
//!
//! The harness is single-threaded and explicitly clocked — every call
//! takes a harness-clock `now` — so an entire multi-node failover
//! scenario is a pure function of its inputs (the fd-smc federation
//! scenarios and experiment E21 rely on this for seed-exact replay).
//! Gossip frames really are encoded to wire bytes and decoded on
//! receipt, so the fabric exercises the same code path a UDP transport
//! would.

use crate::hash::{owner, NodeId};
use crate::metrics::FedMetrics;
use crate::node::{FederationNode, NodeConfig};
use crate::view::{FedEvent, FederationView};
use fd_cluster::{decode_frame, Candidate, PeerId, RuntimeError};
use fd_core::Heartbeat;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Federation-wide configuration.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// The monitor node ids (at least one; deduplicated, sorted).
    pub nodes: Vec<NodeId>,
    /// The knobs every node runs with.
    pub node: NodeConfig,
}

impl Default for FederationConfig {
    fn default() -> Self {
        Self { nodes: vec![0, 1, 2, 3], node: NodeConfig::default() }
    }
}

/// Who owns what, federation-wide: the coverage report the "no peer
/// left unmonitored" oracle judges.
#[derive(Debug, Clone)]
pub struct Coverage {
    /// Every registered peer with the alive nodes that own it.
    pub owners: BTreeMap<PeerId, Vec<NodeId>>,
    /// Registered peers no alive node owns.
    pub orphans: Vec<PeerId>,
    /// Registered peers owned by more than one alive node (transient
    /// during a restart-healing window).
    pub duplicated: Vec<PeerId>,
}

impl Coverage {
    /// Every peer is owned by exactly one alive node.
    pub fn is_clean(&self) -> bool {
        self.orphans.is_empty() && self.duplicated.is_empty()
    }
}

/// One encoded frame on the in-process fabric: `(from, to, bytes)`.
type Wire = (NodeId, NodeId, Vec<u8>);

struct NodeSlot {
    node: Option<FederationNode>,
    incarnation: u64,
    killed_at: Option<f64>,
}

/// A running federation of monitor nodes.
pub struct Federation {
    cfg: FederationConfig,
    slots: BTreeMap<NodeId, NodeSlot>,
    peers: Vec<PeerId>,
    metrics: Arc<FedMetrics>,
    events: Vec<FedEvent>,
}

impl std::fmt::Debug for Federation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Federation")
            .field("nodes", &self.slots.len())
            .field("peers", &self.peers.len())
            .finish()
    }
}

impl Federation {
    /// Spawns every configured node at incarnation 1.
    ///
    /// # Errors
    ///
    /// Propagates monitor spawn failures.
    ///
    /// # Panics
    ///
    /// Panics on an empty node set.
    pub fn spawn(mut cfg: FederationConfig) -> Result<Self, RuntimeError> {
        cfg.nodes.sort_unstable();
        cfg.nodes.dedup();
        assert!(!cfg.nodes.is_empty(), "a federation needs at least one node");
        let metrics = Arc::new(FedMetrics::new());
        let node_cfg = cfg.node;
        let mut slots = BTreeMap::new();
        for &id in &cfg.nodes {
            let node = FederationNode::spawn(id, 1, &cfg.nodes, node_cfg, Arc::clone(&metrics))?;
            slots.insert(id, NodeSlot { node: Some(node), incarnation: 1, killed_at: None });
        }
        metrics.nodes.store(cfg.nodes.len() as u64, Ordering::Relaxed);
        metrics.nodes_alive.store(cfg.nodes.len() as u64, Ordering::Relaxed);
        Ok(Self { cfg, slots, peers: Vec::new(), metrics, events: Vec::new() })
    }

    /// The shared federation metrics (mount on a
    /// [`MetricsExporter`](fd_cluster::MetricsExporter) via
    /// `bind_with_sources`).
    pub fn metrics(&self) -> Arc<FedMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Node ids currently alive (harness accounting, not suspicion).
    pub fn alive(&self) -> Vec<NodeId> {
        self.slots.iter().filter(|(_, s)| s.node.is_some()).map(|(id, _)| *id).collect()
    }

    /// Immutable access to a live node.
    pub fn node(&self, id: NodeId) -> Option<&FederationNode> {
        self.slots.get(&id).and_then(|s| s.node.as_ref())
    }

    /// All registered peers, ascending.
    pub fn peers(&self) -> &[PeerId] {
        &self.peers
    }

    /// Every federation event so far (adoptions, releases), in order.
    pub fn events(&self) -> &[FedEvent] {
        &self.events
    }

    /// Registers `peer`, placing it on its rendezvous owner among the
    /// currently-alive nodes. Returns the owning node.
    ///
    /// # Panics
    ///
    /// Panics if no node is alive or the peer is already registered.
    pub fn register(&mut self, peer: PeerId) -> NodeId {
        let alive = self.alive();
        let target = owner(&alive, peer).expect("at least one alive node");
        let node = self
            .slots
            .get_mut(&target)
            .and_then(|s| s.node.as_mut())
            .expect("owner() only returns alive nodes");
        node.assign_peer(peer).expect("peer not already registered");
        match self.peers.binary_search(&peer) {
            Ok(_) => panic!("peer {peer} already registered"),
            Err(idx) => self.peers.insert(idx, peer),
        }
        self.metrics.peers_registered.store(self.peers.len() as u64, Ordering::Relaxed);
        target
    }

    /// Routes a heartbeat from `peer` to every alive node that owns it.
    /// Returns how many owners recorded it.
    pub fn deliver(&mut self, peer: PeerId, now: f64, incarnation: u64, hb: Heartbeat) -> usize {
        self.slots
            .values_mut()
            .filter_map(|s| s.node.as_mut())
            .map(|n| usize::from(n.deliver(peer, now, incarnation, hb)))
            .sum()
    }

    /// Advances every alive node's detectors to `now`.
    pub fn advance(&mut self, now: f64) -> usize {
        self.slots.values_mut().filter_map(|s| s.node.as_mut()).map(|n| n.advance(now)).sum()
    }

    /// One full anti-entropy round at `now`. The round itself is
    /// [`FederationNode`]'s ([`outbound`](FederationNode::outbound) /
    /// [`handle`](FederationNode::handle)); this fabric adds synchronous,
    /// phased delivery of the encoded wire bytes among alive nodes:
    ///
    /// 1. every node's digest frames travel;
    /// 2. only then are the relay frames computed — so they carry this
    ///    round's digests — and forwarded, hop-capped, so a node cut off
    ///    from an origin still converges transitively;
    /// 3. NACK repair requests due at `now` travel, each only when both
    ///    directions of its link are open, and the full refreshes that
    ///    answer them travel straight back.
    ///
    /// `blocked(a, b)` vetoes the directed link `a → b` — hook for
    /// [`MultiNodePlan`](fd_sim::multi::MultiNodePlan) link partitions.
    /// Per-link [`LinkState`](crate::view::LinkState) gauges refresh last.
    pub fn gossip_where(&mut self, now: f64, blocked: impl Fn(NodeId, NodeId) -> bool) {
        let open = |from: NodeId, to: NodeId| !blocked(from, to);
        let digests = self.collect(|node| node.digest_outbound(now));
        self.carry(digests, now, &open);
        let relays = self.collect(|node| node.relay_outbound(now));
        self.carry(relays, now, &open);
        let requests = self.collect(|node| node.repair_outbound(now));
        let refreshes = self.carry(requests, now, &|from, to| open(from, to) && open(to, from));
        self.carry(refreshes, now, &open);
        self.metrics.set_link_states(self.link_states(now));
    }

    /// What every alive node sends in one phase of the round, ascending
    /// by sender.
    fn collect(
        &mut self,
        mut phase: impl FnMut(&mut FederationNode) -> Vec<(NodeId, Vec<u8>)>,
    ) -> Vec<Wire> {
        let mut out = Vec::new();
        for (&from, slot) in self.slots.iter_mut() {
            let Some(node) = slot.node.as_mut() else { continue };
            out.extend(phase(node).into_iter().map(|(to, bytes)| (from, to, bytes)));
        }
        out
    }

    /// Carries each frame over its link, in order: one whose link is not
    /// `open`, or whose destination is dead, is lost; the rest are
    /// decoded and handled by the destination. Returns the answers.
    fn carry(
        &mut self,
        wires: Vec<Wire>,
        now: f64,
        open: &impl Fn(NodeId, NodeId) -> bool,
    ) -> Vec<Wire> {
        let mut answers = Vec::new();
        for (from, to, bytes) in wires {
            if !open(from, to) {
                continue;
            }
            let Some(node) = self.slots.get_mut(&to).and_then(|s| s.node.as_mut()) else {
                continue;
            };
            let frame = decode_frame(&bytes).expect("a node's own encoder wrote these bytes");
            answers.extend(node.handle(&frame, now).into_iter().map(|(back, b)| (to, back, b)));
        }
        answers
    }

    /// Every alive node's directed link judgements at `now`,
    /// `(observer, target) → state`.
    pub fn link_states(&self, now: f64) -> BTreeMap<(NodeId, NodeId), crate::view::LinkState> {
        let mut out = BTreeMap::new();
        for (&id, slot) in &self.slots {
            let Some(node) = slot.node.as_ref() else { continue };
            for (target, state) in node.link_states(now) {
                out.insert((id, target), state);
            }
        }
        out
    }

    /// [`gossip_where`](Self::gossip_where) with no link faults.
    pub fn gossip(&mut self, now: f64) {
        self.gossip_where(now, |_, _| false);
    }

    /// Runs every alive node's failover rule at `now`, collecting the
    /// resulting events. Takeover latency (kill → first adoption of one
    /// of the dead node's peers) is recorded into the metrics.
    pub fn rebalance(&mut self, now: f64) -> Vec<FedEvent> {
        let mut all = Vec::new();
        let ids = self.alive();
        for id in ids {
            let node = self.slots.get_mut(&id).and_then(|s| s.node.as_mut()).expect("alive");
            all.extend(node.rebalance(now));
        }
        // First adoption from any killed node closes its takeover clock.
        for ev in &all {
            if let crate::view::FedChange::PeerAdopted { from, .. } = ev.change {
                if let Some(slot) = self.slots.get_mut(&from) {
                    if let Some(killed_at) = slot.killed_at.take() {
                        self.metrics.takeovers.fetch_add(1, Ordering::Relaxed);
                        self.metrics.set_takeover_latency(now - killed_at);
                    }
                }
            }
        }
        let owned: usize = self
            .slots
            .values()
            .filter_map(|s| s.node.as_ref())
            .map(|n| n.owned_peers().len())
            .sum();
        self.metrics.peers_owned.store(owned as u64, Ordering::Relaxed);
        self.events.extend(all.iter().copied());
        all
    }

    /// Kills `node` at harness-clock `now`: the node is dropped and
    /// falls silent — surviving nodes must detect and fail over.
    /// Returns `false` if it was already dead or unknown.
    pub fn kill(&mut self, node: NodeId, now: f64) -> bool {
        let Some(slot) = self.slots.get_mut(&node) else { return false };
        let Some(_) = slot.node.take() else { return false };
        slot.killed_at = Some(now);
        self.metrics.nodes_alive.store(self.alive().len() as u64, Ordering::Relaxed);
        true
    }

    /// Restarts a killed node with a fresh incarnation and an empty
    /// partition; it re-earns its peers through gossip + rebalance.
    ///
    /// # Errors
    ///
    /// Propagates monitor spawn failures.
    ///
    /// # Panics
    ///
    /// Panics if the node is unknown or still alive.
    pub fn restart(&mut self, node: NodeId) -> Result<(), RuntimeError> {
        let all = self.cfg.nodes.clone();
        let node_cfg = self.cfg.node;
        let slot = self.slots.get_mut(&node).expect("known node");
        assert!(slot.node.is_none(), "restart of a node that is still alive");
        slot.incarnation += 1;
        let fresh =
            FederationNode::spawn(node, slot.incarnation, &all, node_cfg, Arc::clone(&self.metrics))?;
        slot.node = Some(fresh);
        slot.killed_at = None;
        self.metrics.nodes_alive.store(self.alive().len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Who owns what right now, judged against the registered universe.
    pub fn coverage(&self) -> Coverage {
        let mut owners: BTreeMap<PeerId, Vec<NodeId>> =
            self.peers.iter().map(|&p| (p, Vec::new())).collect();
        for (&id, slot) in &self.slots {
            let Some(node) = slot.node.as_ref() else { continue };
            for peer in node.owned_peers() {
                owners.entry(peer).or_default().push(id);
            }
        }
        let orphans = owners.iter().filter(|(_, o)| o.is_empty()).map(|(p, _)| *p).collect();
        let duplicated = owners.iter().filter(|(_, o)| o.len() > 1).map(|(p, _)| *p).collect();
        Coverage { owners, orphans, duplicated }
    }

    /// The merged federation-wide trust view at `now`.
    pub fn view(&self, now: f64) -> FederationView {
        let mut reports = Vec::new();
        for (&id, slot) in &self.slots {
            let Some(node) = slot.node.as_ref() else { continue };
            let snap = node.local_snapshot();
            for peer in node.owned_peers() {
                if let Some(output) = snap.output(peer) {
                    reports.push((peer, id, output));
                }
            }
        }
        FederationView::from_reports(now, reports).with_links(self.link_states(now))
    }

    /// Federation-wide leader-election candidacies: every alive node
    /// contributes the candidacy of each peer it owns, read from its
    /// embedded monitor at that monitor's clock — the latest harness
    /// time the node was handed (the owner's view is the
    /// authoritative one — the same partition rule [`view`](Self::view)
    /// uses). Peers of dead nodes simply drop out of the list, which a
    /// [`CrashRecoveryElector`](fd_cluster::CrashRecoveryElector) fed
    /// with it treats as a removed incumbent.
    ///
    /// Merged and id-sorted, so one federation-level elector plus a
    /// [`LeaderMetrics`](fd_cluster::LeaderMetrics) tracker measures
    /// leader QoS across all partitions exactly the way a single-node
    /// monitor does.
    pub fn election_candidates(&self) -> Vec<Candidate> {
        let mut out: Vec<Candidate> = Vec::new();
        for slot in self.slots.values() {
            let Some(node) = slot.node.as_ref() else { continue };
            let owned: std::collections::BTreeSet<PeerId> =
                node.owned_peers().into_iter().collect();
            out.extend(
                node.monitor()
                    .election_candidates()
                    .into_iter()
                    .filter(|c| owned.contains(&c.peer)),
            );
        }
        out.sort_unstable_by_key(|c| c.peer);
        out.dedup_by_key(|c| c.peer);
        out
    }

    /// Whether every alive node's picture of the federation has
    /// converged: each knows every *other* alive node's partition at
    /// that node's current incarnation, and the known claim sets cover
    /// the registered universe ([`FederationNode::view_covers`]).
    pub fn views_converged(&self) -> bool {
        let alive: Vec<(NodeId, u64)> = self
            .slots
            .iter()
            .filter(|(_, s)| s.node.is_some())
            .map(|(&id, s)| (id, s.incarnation))
            .collect();
        alive.iter().all(|&(id, _)| self.node(id).expect("alive").view_covers(&alive, &self.peers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FederationConfig {
        FederationConfig { nodes: vec![1, 2, 3], ..FederationConfig::default() }
    }

    /// One scripted tick: heartbeats from all live peers, gossip,
    /// advance, rebalance.
    fn tick(fed: &mut Federation, now: f64, seq: u64) {
        for peer in fed.peers().to_vec() {
            fed.deliver(peer, now, 1, Heartbeat::new(seq, now));
        }
        fed.gossip(now);
        fed.advance(now);
        fed.rebalance(now);
    }

    #[test]
    fn steady_state_covers_and_converges() {
        let mut fed = Federation::spawn(small_cfg()).expect("spawn");
        for peer in 100..130 {
            fed.register(peer);
        }
        for step in 1..=4 {
            tick(&mut fed, step as f64, step);
        }
        let cov = fed.coverage();
        assert!(cov.is_clean(), "orphans {:?} dup {:?}", cov.orphans, cov.duplicated);
        assert!(fed.views_converged());
        let view = fed.view(4.0);
        assert_eq!(view.trusted().len(), 30, "all peers beat recently");
    }

    #[test]
    fn kill_fails_over_and_restart_heals_back() {
        let mut fed = Federation::spawn(small_cfg()).expect("spawn");
        for peer in 0..60 {
            fed.register(peer);
        }
        let victim = 2u64;
        let victims_peers = fed.node(victim).unwrap().owned_peers();
        assert!(!victims_peers.is_empty(), "hash balance gives node 2 some peers");
        for step in 1..=3 {
            tick(&mut fed, step as f64, step);
        }
        assert!(fed.kill(victim, 3.5));
        assert!(!fed.kill(victim, 3.5), "double kill is a no-op");
        // Keep the survivors running until the victim's freshness
        // expires and rebalance adopts its partition.
        for step in 4..=12 {
            tick(&mut fed, step as f64, step);
        }
        let cov = fed.coverage();
        assert!(cov.orphans.is_empty(), "orphans after settle: {:?}", cov.orphans);
        for p in &victims_peers {
            let owners = &cov.owners[p];
            assert_eq!(owners.len(), 1, "peer {p} owned by {owners:?}");
            assert_ne!(owners[0], victim);
        }
        assert_eq!(fed.metrics().takeovers.load(Ordering::Relaxed), 1);
        assert!(fed.metrics().takeover_latency() > 0.0);

        // Restart: the node returns at incarnation 2 and reclaims
        // exactly its old partition.
        fed.restart(victim).expect("restart");
        for step in 13..=20 {
            tick(&mut fed, step as f64, step);
        }
        let cov = fed.coverage();
        assert!(cov.is_clean(), "after heal: orphans {:?} dup {:?}", cov.orphans, cov.duplicated);
        for p in &victims_peers {
            assert_eq!(cov.owners[p], vec![victim], "peer {p} must return home");
        }
        assert!(fed.views_converged());
    }

    #[test]
    fn federation_wide_election_survives_node_kill() {
        let mut fed = Federation::spawn(small_cfg()).expect("spawn");
        for peer in 200..230 {
            fed.register(peer);
        }
        let mut elector = fd_cluster::CrashRecoveryElector::new(fd_cluster::ElectionConfig {
            min_stability: 2.0,
            hysteresis: fd_core::HysteresisConfig { min_dwell: 1.0, deadband: 0.10 },
        });
        let metrics = fd_cluster::LeaderMetrics::new(0.0);
        let mut events = Vec::new();
        let mut observe = |fed: &Federation, t: f64, el: &mut fd_cluster::CrashRecoveryElector| {
            let state = el.observe(t, &fed.election_candidates());
            let evs = el.drain_events();
            metrics.observe(t, state, &evs);
            events.extend(evs);
        };
        for step in 1..=6u64 {
            tick(&mut fed, step as f64, step);
            observe(&fed, step as f64, &mut elector);
        }
        let leader = elector.state().incumbent().expect("warmup seats a leader");
        let owner = fed.view(6.0).owner_of(leader).expect("leader is owned");

        // Kill the node monitoring the leader: its whole partition —
        // leader included — drops out of the candidate list, and the
        // elector must hand the seat to a peer of a surviving node.
        assert!(fed.kill(owner, 6.5));
        for step in 7..=14u64 {
            tick(&mut fed, step as f64, step);
            observe(&fed, step as f64, &mut elector);
        }
        let new_leader = elector.state().incumbent().expect("seat re-filled after kill");
        assert_ne!(new_leader, leader, "old leader vanished with its node");
        assert!(
            events.iter().any(|e| matches!(
                e,
                fd_cluster::ElectionEvent::Demoted {
                    leader: l,
                    reason: fd_cluster::DemotionReason::Removed,
                    ..
                } if *l == leader
            )),
            "kill must surface as a Removed demotion: {events:?}"
        );
        let report = metrics.report();
        assert!(report.elections >= 2, "warmup election + failover election");
        assert!(report.demotions >= 1);
    }

    #[test]
    fn partitioned_gossip_link_defers_convergence() {
        // Two nodes: this test pins the *full-refresh* repair path,
        // which must work with no relay-capable third node.
        let relayless = FederationConfig { nodes: vec![1, 2], ..FederationConfig::default() };
        let mut fed = Federation::spawn(relayless).expect("spawn");
        for peer in 0..20 {
            fed.register(peer);
        }
        // 1–2 link down and no third node to relay: the two sides'
        // views of each other stay empty.
        for step in 1..=3 {
            let now = step as f64;
            for peer in fed.peers().to_vec() {
                fed.deliver(peer, now, 1, Heartbeat::new(step, now));
            }
            fed.gossip_where(now, |a, b| (a, b) == (1, 2) || (a, b) == (2, 1));
            fed.advance(now);
        }
        assert!(!fed.views_converged());
        // Heal. Deltas sent while the link was down are gone for good —
        // anti-entropy repairs via the periodic full refresh, so
        // convergence returns by the full_refresh_every-th round.
        for step in 4..=8 {
            let now = step as f64;
            for peer in fed.peers().to_vec() {
                fed.deliver(peer, now, 1, Heartbeat::new(step, now));
            }
            fed.gossip(now);
            fed.advance(now);
        }
        assert!(fed.views_converged(), "full refresh at round 8 must repair the gap");
    }
}
