//! Federation gossip over real UDP with a one-way link cut: the
//! cut-off node stays trusted because its digests arrive *relayed*
//! through the third node, and the receiver's link-state tier reports
//! the detour (`Direct → Relayed`) instead of a false suspicion.
//!
//! ```text
//! cargo run --release --example udp_federation
//! ```

use chen_fd_qos::prelude::*;
use fd_core::Heartbeat;
use fd_federation::{GossipEndpoint, LinkState, NodeConfig};
use fd_sim::MultiNodePlan;
use std::sync::Arc;

const A: NodeId = 1;
const B: NodeId = 2;
const C: NodeId = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // η = 1 s heartbeats and gossip rounds, α = 3 s, relaying up to 2 hops.
    let cfg = NodeConfig::default();

    // Three monitor nodes, each on its own loopback UDP socket, with one
    // `fd-cluster` frame sender per other node whose link-fault stage
    // follows the plan — the stage heartbeat senders use. The
    // C→A direction goes dark at t = 0.5 s and never heals; every
    // other direction (including A→C) stays up.
    let ids = [A, B, C];
    let plan = MultiNodePlan::new(0xFEED).cut_link_oneway(C, A, 0.5, 1e9);
    let mut nodes = Vec::new();
    let mut transports = Vec::new();
    for &id in &ids {
        let metrics = Arc::new(FedMetrics::new());
        nodes.push(FederationNode::spawn(id, 1, &ids, cfg, Arc::clone(&metrics))?);
        transports.push(GossipEndpoint::bind(id, metrics)?);
    }
    GossipEndpoint::mesh(&mut transports, &plan)?;

    // C owns a few peers; A can only learn about them via B's relays.
    for peer in 300..304u64 {
        nodes[2].assign_peer(peer)?;
    }

    for step in 1..=16u64 {
        let now = step as f64;
        for peer in 300..304u64 {
            nodes[2].deliver(peer, now, 1, Heartbeat::new(step, now));
        }
        // Everyone gossips: each node's `outbound` (this round's digest
        // for every other node, relayed copies of the freshest foreign
        // digests, any due NACK repair requests) goes through its links'
        // fault stages onto the wire, and a few spaced delivery passes
        // hand each node the frames that reached it (`handle` merges a
        // frame and returns the answers, sent in the next pass).
        let mut pairs: Vec<_> =
            nodes.iter_mut().map(Some).zip(&mut transports).collect();
        GossipEndpoint::step(&mut pairs, now);
        for n in &mut nodes {
            n.advance(now);
        }
    }

    // A never heard C directly after the cut, yet C is alive, its
    // partition is known, and the link tier says how: Relayed.
    let now = 16.0;
    assert_eq!(nodes[0].alive_nodes(now), vec![A, B, C], "no false suspicion");
    assert_eq!(nodes[0].link_state(C, now), LinkState::Relayed);
    assert_eq!(nodes[0].link_state(B, now), LinkState::Direct);
    let c_partition = nodes[0].remote_partition(C).expect("relayed knowledge of C");
    println!(
        "A sees C: {:?}, partition of {} peers at round {} (hop {})",
        nodes[0].link_state(C, now),
        c_partition.claims.len(),
        c_partition.round,
        c_partition.hop,
    );
    Ok(())
}
