//! Federation gossip over real UDP with a one-way link cut: the
//! cut-off node stays trusted because its digests arrive *relayed*
//! through the third node, and the receiver's link-state tier reports
//! the detour (`Direct → Relayed`) instead of a false suspicion.
//!
//! ```text
//! cargo run --release --example udp_federation
//! ```

use chen_fd_qos::prelude::*;
use fd_cluster::{encode_digest, encode_relay, encode_repair, Frame};
use fd_core::Heartbeat;
use fd_federation::{GossipTransport, LinkState, NodeConfig, Via};
use fd_sim::MultiNodePlan;
use std::sync::Arc;

const A: NodeId = 1;
const B: NodeId = 2;
const C: NodeId = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // η = 1 s heartbeats and gossip rounds, α = 3 s, relaying up to 2 hops.
    let cfg = NodeConfig::default();

    // Three monitor nodes, each on its own loopback UDP socket. The
    // C→A direction goes dark at t = 0.5 s and never heals; every
    // other direction (including A→C) stays up.
    let ids = [A, B, C];
    let plan = MultiNodePlan::new(0xFEED).cut_link_oneway(C, A, 0.5, 1e9);
    let mut nodes = Vec::new();
    let mut transports = Vec::new();
    for &id in &ids {
        let metrics = Arc::new(FedMetrics::new());
        nodes.push(FederationNode::spawn(id, 1, &ids, cfg, Arc::clone(&metrics))?);
        transports.push(GossipTransport::bind(id, metrics)?);
    }
    let addrs: Vec<_> = transports.iter().map(|t| t.local_addr()).collect::<Result<_, _>>()?;
    for i in 0..ids.len() {
        for j in 0..ids.len() {
            if i == j {
                continue;
            }
            transports[i].add_route(ids[j], addrs[j]);
            if let Some(link) = plan.link_plan_from_to(ids[i], ids[j]) {
                transports[i].set_link_plan(ids[j], link, plan.link_seed(ids[i], ids[j]));
            }
        }
    }

    // C owns a few peers; A can only learn about them via B's relays.
    for peer in 300..304u64 {
        nodes[2].assign_peer(peer)?;
    }

    for step in 1..=16u64 {
        let now = step as f64;
        for peer in 300..304u64 {
            nodes[2].deliver(peer, now, 1, Heartbeat::new(step, now));
        }
        // Everyone gossips: this round's digest to every other node,
        // relayed copies of the freshest foreign digests, and any due
        // NACK repair requests.
        for i in 0..ids.len() {
            let me = ids[i];
            let digests: Vec<Vec<u8>> =
                nodes[i].gossip_digest(now).frames().iter().map(encode_digest).collect();
            let relays: Vec<(NodeId, Vec<u8>)> = nodes[i]
                .relay_frames(now)
                .iter()
                .map(|(hop, f)| (f.origin, encode_relay(me, *hop, &encode_digest(f))))
                .collect();
            let repairs: Vec<(NodeId, Vec<u8>)> = nodes[i]
                .due_repairs(now)
                .iter()
                .map(|r| (r.target, encode_repair(r)))
                .collect();
            for &to in ids.iter().filter(|&&to| to != me) {
                for bytes in &digests {
                    transports[i].send_to(to, bytes, now);
                }
                for (origin, bytes) in &relays {
                    if *origin != to {
                        transports[i].send_to(to, bytes, now);
                    }
                }
            }
            for (target, bytes) in &repairs {
                transports[i].send_to(*target, bytes, now);
            }
        }
        // Loopback UDP is reliable but not synchronous: a few spaced
        // delivery passes let requests sent in one pass be answered in
        // the next.
        for _pass in 0..3 {
            for t in &mut transports {
                t.flush_due(now);
            }
            std::thread::sleep(std::time::Duration::from_millis(4));
            for i in 0..ids.len() {
                for frame in transports[i].poll() {
                    match frame {
                        Frame::Digest(d) => {
                            nodes[i].receive_digest(&d, now);
                        }
                        Frame::Relayed(r) => {
                            nodes[i].receive_digest_via(
                                &r.digest,
                                now,
                                Via::Relayed { relayer: r.relayer, hop: r.hop },
                            );
                        }
                        Frame::Repair(req) => {
                            if let Some(refresh) = nodes[i].receive_repair(&req, now) {
                                for f in refresh.frames() {
                                    transports[i].send_to(req.requester, &encode_digest(&f), now);
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
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
    for n in &nodes {
        n.shutdown();
    }
    Ok(())
}
