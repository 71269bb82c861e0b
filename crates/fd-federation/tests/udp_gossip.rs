//! Federation gossip over real UDP sockets, scripted by
//! [`MultiNodePlan`] link faults: asymmetric cuts are healed by NACK
//! repair, one-way-cut nodes stay trusted through relays, and lossy
//! links still converge.
//!
//! The driver here is `fd-bench`'s E22 experiment's: explicit harness
//! clock (1 s ticks), real datagrams on loopback, one
//! [`GossipEndpoint::step`] per tick.

use fd_core::Heartbeat;
use fd_federation::{FedMetrics, FederationNode, GossipEndpoint, LinkState, NodeConfig, NodeId};
use fd_sim::MultiNodePlan;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn cfg() -> NodeConfig {
    // Effectively never: periodic refreshes would mask the NACK repair
    // path these tests pin down.
    NodeConfig { full_refresh_every: 1_000, ..NodeConfig::default() }
}

struct UdpNode {
    node: FederationNode,
    transport: GossipEndpoint,
    metrics: Arc<FedMetrics>,
}

/// A tiny federation whose gossip genuinely crosses loopback UDP, with
/// per-directed-link fault scripts taken from a [`MultiNodePlan`].
struct UdpFed {
    ids: Vec<NodeId>,
    nodes: Vec<UdpNode>,
}

impl UdpFed {
    fn build(ids: &[NodeId], plan: &MultiNodePlan) -> Self {
        let mut nodes: Vec<UdpNode> = ids
            .iter()
            .map(|&id| {
                let metrics = Arc::new(FedMetrics::new());
                let node = FederationNode::spawn(id, 1, ids, cfg(), Arc::clone(&metrics))
                    .expect("spawn");
                let transport = GossipEndpoint::bind(id, Arc::clone(&metrics)).expect("bind");
                UdpNode { node, transport, metrics }
            })
            .collect();
        GossipEndpoint::mesh(nodes.iter_mut().map(|n| &mut n.transport), plan).expect("mesh");
        Self { ids: ids.to_vec(), nodes }
    }

    fn slot(&self, id: NodeId) -> &UdpNode {
        &self.nodes[self.ids.iter().position(|&i| i == id).expect("known id")]
    }

    fn node(&self, id: NodeId) -> &FederationNode {
        &self.slot(id).node
    }

    fn node_mut(&mut self, id: NodeId) -> &mut FederationNode {
        let i = self.ids.iter().position(|&i| i == id).expect("known id");
        &mut self.nodes[i].node
    }

    /// One harness-clock tick: a gossip step, then the monitors advance.
    fn tick(&mut self, now: f64) {
        let mut nodes: Vec<_> =
            self.nodes.iter_mut().map(|n| (Some(&mut n.node), &mut n.transport)).collect();
        GossipEndpoint::step(&mut nodes, now);
        for n in &mut self.nodes {
            n.node.advance(now);
        }
    }
}

/// Satellite: an asymmetric partition (A→B cut, B→A alive) must not
/// leave B with a permanently stale view of A's partition — the round
/// gap B sees after the heal arms a NACK whose full-refresh answer
/// carries what the cut swallowed.
#[test]
fn asymmetric_cut_is_healed_by_nack_repair() {
    const A: NodeId = 1;
    const B: NodeId = 2;
    let plan = MultiNodePlan::new(0xA5E7).cut_link_oneway(A, B, 4.0, 12.0);
    let mut fed = UdpFed::build(&[A, B], &plan);
    for p in 100..105u64 {
        fed.node_mut(A).assign_peer(p).expect("assign");
    }
    for step in 1..=24u64 {
        let now = step as f64;
        for p in 100..105u64 {
            // Peer 100 restarts with a new incarnation mid-cut: the
            // delta announcing it is exactly what the cut swallows, so
            // only the NACK repair can bring B up to date.
            let inc = if p == 100 && now >= 8.0 { 2 } else { 1 };
            fed.node_mut(A).deliver(p, now, inc, Heartbeat::new(step, now));
        }
        fed.tick(now);
    }
    let b_metrics = Arc::clone(&fed.slot(B).metrics);
    let a_metrics = Arc::clone(&fed.slot(A).metrics);
    assert!(
        b_metrics.seq_gap_repairs.load(Ordering::Relaxed) >= 1,
        "B must notice the post-heal round gap"
    );
    assert!(b_metrics.repair_requests.load(Ordering::Relaxed) >= 1, "B must send a NACK");
    assert!(a_metrics.repairs_served.load(Ordering::Relaxed) >= 1, "A must serve the refresh");
    let part = fed.node(B).remote_partition(A).expect("B knows A");
    assert_eq!(
        part.claims.get(&100).map(|c| c.incarnation),
        Some(2),
        "the mid-cut incarnation bump must reach B via repair"
    );
    assert_eq!(part.claims.len(), 5, "B's view of A's partition must be complete");
    assert!(part.round >= 23, "B must be caught up, not parked on the pre-cut round");
    assert!(fed.node(B).alive_nodes(24.0).contains(&A));
}

/// A node reachable only through a relay (its direct link to one
/// observer is permanently cut one-way) must not be falsely suspected,
/// and the observer's link state must say `Relayed`, not `Cut`.
#[test]
fn relay_keeps_one_way_cut_node_trusted() {
    const A: NodeId = 1;
    const B: NodeId = 2;
    const C: NodeId = 3;
    // C's datagrams toward A never arrive; every other direction works.
    let plan = MultiNodePlan::new(0xBEEF).cut_link_oneway(C, A, 0.5, 1.0e6);
    let mut fed = UdpFed::build(&[A, B, C], &plan);
    fed.node_mut(C).assign_peer(300).expect("assign");
    for step in 1..=16u64 {
        let now = step as f64;
        fed.node_mut(C).deliver(300, now, 1, Heartbeat::new(step, now));
        fed.tick(now);
        if now > 11.0 {
            // Past bootstrap grace: C stays alive at A purely through
            // B's relayed copies of its digests.
            assert_eq!(fed.node(A).alive_nodes(now), vec![A, B, C], "false suspicion at {now}");
        }
    }
    assert_eq!(fed.node(A).link_state(C, 16.0), LinkState::Relayed);
    assert_eq!(fed.node(A).link_state(B, 16.0), LinkState::Direct);
    assert!(fed.slot(A).metrics.relayed_digests.load(Ordering::Relaxed) >= 1);
    let part = fed.node(A).remote_partition(C).expect("A knows C through relays");
    assert!(part.claims.contains_key(&300), "C's partition content must arrive via relay");
}

/// A symmetrically lossy link (30% i.i.d. both ways) slows gossip but
/// must not wedge it: by the horizon both nodes hold fresh, complete
/// views of each other.
#[test]
fn lossy_link_converges_by_the_horizon() {
    const A: NodeId = 1;
    const B: NodeId = 2;
    let plan = MultiNodePlan::new(0x105E).loss_link(A, B, 0.5, 1.0e6, 0.3);
    let mut fed = UdpFed::build(&[A, B], &plan);
    for p in 100..104u64 {
        fed.node_mut(A).assign_peer(p).expect("assign");
    }
    const HORIZON: u64 = 30;
    for step in 1..=HORIZON {
        let now = step as f64;
        for p in 100..104u64 {
            fed.node_mut(A).deliver(p, now, 1, Heartbeat::new(step, now));
        }
        fed.tick(now);
    }
    let end = HORIZON as f64;
    assert!(fed.node(A).alive_nodes(end).contains(&B));
    assert!(fed.node(B).alive_nodes(end).contains(&A));
    let part = fed.node(B).remote_partition(A).expect("B knows A");
    assert_eq!(part.claims.len(), 4, "B's claim set must be complete despite loss");
    assert!(
        part.round >= HORIZON - 6,
        "B must track A's rounds closely (got {} of ~{HORIZON})",
        part.round
    );
}

/// The sent side of the digest ledger is kept by the node's own round,
/// so it reads the same on every fabric: over lossless UDP every node
/// has sent something, and nothing was received that nobody sent.
#[test]
fn digests_sent_is_counted_on_the_udp_tier() {
    let ids: [NodeId; 3] = [1, 2, 3];
    let mut fed = UdpFed::build(&ids, &MultiNodePlan::new(0xD16E));
    fed.node_mut(1).assign_peer(100).expect("assign");
    for step in 1..=4u64 {
        let now = step as f64;
        fed.node_mut(1).deliver(100, now, 1, Heartbeat::new(step, now));
        fed.tick(now);
    }
    let count = |f: fn(&FedMetrics) -> u64| -> Vec<u64> {
        ids.iter().map(|&id| f(&fed.slot(id).metrics)).collect()
    };
    let sent = count(|m| m.digests_sent.load(Ordering::Relaxed));
    let received = count(|m| m.digests_received.load(Ordering::Relaxed));
    // Four rounds, one frame each, to two other members.
    assert_eq!(sent, vec![8, 8, 8]);
    assert!(received.iter().all(|&n| n > 0), "{received:?}");
    assert!(sent.iter().sum::<u64>() >= received.iter().sum::<u64>(), "{sent:?} < {received:?}");
}
