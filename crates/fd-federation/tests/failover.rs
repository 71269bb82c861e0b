//! Cross-node failover chaos test, scripted by a
//! [`MultiNodePlan`]: a monitor node crash-restarts while a gossip link
//! suffers a delay spike and another link partitions outright. The run
//! must (a) adopt every orphaned peer within the NFD-E node-detection
//! bound, (b) emit **no ghost membership events** on any embedded
//! monitor — once an adopter releases a peer (`Removed`), nothing may
//! resurrect it — (c) heal back to clean, converged coverage after the
//! victim returns, and (d) replay *identically* from the same plan.

use fd_cluster::{EventLog, Subscription};
use fd_core::Heartbeat;
use fd_federation::{FedChange, FedEvent, Federation, FederationConfig, NodeId, NODE_WATCH};
use fd_sim::{LinkFault, MultiNodePlan};
use std::sync::atomic::Ordering;

const NODES: [NodeId; 4] = [0, 1, 2, 3];
const VICTIM: NodeId = 2;
const KILL_AT: f64 = 20.0;
const RESTART_AT: f64 = 36.0;
const HORIZON: u64 = 48;
const PEER_BASE: u64 = 1000;
const PEER_COUNT: u64 = 48;

/// The scripted chaos: victim crash-restarts; the 0–1 link runs a delay
/// spike across the kill (delays never block the synchronous fabric,
/// but the script carries them for transports that honor latency); the
/// 1–3 link partitions for four seconds *while the victim is down*, so
/// survivors 1 and 3 transiently suspect each other mid-failover.
fn plan(seed: u64) -> MultiNodePlan {
    MultiNodePlan::new(seed)
        .kill_node(VICTIM, KILL_AT)
        .restart_node(VICTIM, RESTART_AT)
        .delay_spike_link(0, 1, 18.0, 30.0, 0.5, 0.1)
        .partition_link(1, 3, 22.0, 26.0)
}

struct Outcome {
    /// Federation-tier adoption/release stream, in order.
    events: Vec<FedEvent>,
    /// Ghost-event count across every monitor incarnation's log.
    ghosts: usize,
    /// Coverage orphans at the post-failover settle point (victim still
    /// down) and at the horizon.
    settle_orphans: usize,
    final_clean: bool,
    final_converged: bool,
    /// Victim's original peers that ended the run owned by the victim.
    home_again: usize,
    home_expected: usize,
    takeovers: u64,
    takeover_latency: f64,
}

fn run_scenario(seed: u64) -> Outcome {
    let plan = plan(seed);
    let mut fed = Federation::spawn(FederationConfig::default()).expect("spawn");
    for peer in PEER_BASE..PEER_BASE + PEER_COUNT {
        fed.register(peer);
    }
    let victims_peers = fed.node(VICTIM).expect("alive").owned_peers();
    assert!(!victims_peers.is_empty(), "rendezvous balance gives the victim a partition");

    // One membership-event log per monitor *incarnation*: restarts get a
    // fresh monitor, so they get a fresh subscription alongside the old
    // one (whose buffered events stay drainable).
    let mut logs: Vec<(NodeId, Subscription, EventLog)> = NODES
        .iter()
        .map(|&id| (id, fed.node(id).expect("alive").monitor().subscribe(), EventLog::new()))
        .collect();
    let mut down = [false; 4];
    let mut settle_orphans = usize::MAX;

    for step in 1..=HORIZON {
        let now = step as f64;
        // Fault plan first: kill/restart transitions take effect before
        // this second's traffic, like a crash between two heartbeats.
        for (i, &node) in NODES.iter().enumerate() {
            let crashed = plan.is_node_crashed_at(node, now);
            if crashed && !down[i] {
                assert!(fed.kill(node, now));
                down[i] = true;
            } else if !crashed && down[i] {
                fed.restart(node).expect("restart");
                down[i] = false;
                logs.push((node, fed.node(node).expect("alive").monitor().subscribe(), EventLog::new()));
            }
        }
        for peer in fed.peers().to_vec() {
            fed.deliver(peer, now, 1, Heartbeat::new(step, now));
        }
        fed.gossip_where(now, |a, b| plan.link_blocked_at(a, b, now));
        fed.advance(now);
        fed.rebalance(now);
        for (_, rx, log) in logs.iter_mut() {
            log.drain(rx);
        }
        // Settle point: failover done, victim not yet back.
        if now == RESTART_AT - 2.0 {
            settle_orphans = fed.coverage().orphans.len();
        }
    }

    let cov = fed.coverage();
    let home_again = victims_peers
        .iter()
        .filter(|p| cov.owners.get(p).map(Vec::as_slice) == Some(&[VICTIM]))
        .count();
    let ghosts = logs
        .iter()
        .map(|(_, _, log)| {
            (PEER_BASE..PEER_BASE + PEER_COUNT)
                .map(|p| log.ghost_events_after_remove(p).len())
                .sum::<usize>()
        })
        .sum();
    let metrics = fed.metrics();
    Outcome {
        events: fed.events().to_vec(),
        ghosts,
        settle_orphans,
        final_clean: cov.is_clean(),
        final_converged: fed.views_converged(),
        home_again,
        home_expected: victims_peers.len(),
        takeovers: metrics.takeovers.load(Ordering::Relaxed),
        takeover_latency: metrics.takeover_latency(),
    }
}

#[test]
fn chaos_failover_is_bounded_ghost_free_and_heals() {
    let p = plan(0xFEED);
    assert!(matches!(p.link_fault_at(0, 1, KILL_AT), LinkFault::DelaySpike { .. }));
    assert!(p.link_blocked_at(1, 3, 23.0) && !p.link_blocked_at(1, 3, 26.0));
    assert!(p.last_event_time() < HORIZON as f64, "horizon must outlive the script");

    let out = run_scenario(0xFEED);

    // (a) Bounded takeover: the victim's last digest left at KILL_AT-1,
    // so node-watch freshness expires by (KILL_AT-1) + η + α and the
    // same tick's rebalance adopts. One extra second of slack for the
    // tick granularity.
    let bound = NODE_WATCH.eta + NODE_WATCH.alpha + 1.0;
    let first_adopt = out
        .events
        .iter()
        .find(|e| matches!(e.change, FedChange::PeerAdopted { from, .. } if from == VICTIM))
        .expect("somebody adopted the victim's partition");
    assert!(
        first_adopt.at - KILL_AT <= bound,
        "takeover at {} exceeds kill {} + bound {}",
        first_adopt.at,
        KILL_AT,
        bound
    );
    assert_eq!(out.takeovers, 1, "one kill, one takeover");
    assert!(out.takeover_latency > 0.0 && out.takeover_latency <= bound);

    // (b) No ghost events on any monitor incarnation: once released,
    // a peer stays gone from that monitor's event stream.
    assert_eq!(out.ghosts, 0, "ghost membership events after removal");

    // (c) Coverage: no orphans once failover settles (despite the 1–3
    // partition mid-failover), and a clean, converged picture with the
    // victim's partition back home at the horizon.
    assert_eq!(out.settle_orphans, 0, "orphans at the settle point");
    assert!(out.final_clean, "final coverage must be exactly-once");
    assert!(out.final_converged, "all views must reconverge");
    assert_eq!(out.home_again, out.home_expected, "victim must reclaim its whole partition");

    // The event stream tells the whole story: adoptions away from the
    // victim, then (after restart) adoptions by the victim and releases
    // toward it.
    // `>=`: NACK repair and relay routing deliver the survivors'
    // partition knowledge within the very tick the victim restarts, so
    // its re-adoptions legitimately land at exactly `RESTART_AT`.
    assert!(out.events.iter().any(
        |e| matches!(e.change, FedChange::PeerAdopted { .. }) && e.node == VICTIM && e.at >= RESTART_AT
    ));
    assert!(out
        .events
        .iter()
        .any(|e| matches!(e.change, FedChange::PeerReleased { to, .. } if to == VICTIM)));
}

#[test]
fn chaos_failover_replays_seed_exactly() {
    let a = run_scenario(0xFEED);
    let b = run_scenario(0xFEED);
    assert_eq!(a.events, b.events, "same plan, same event stream, bit for bit");
    assert_eq!(a.ghosts, b.ghosts);
    assert_eq!(a.takeover_latency, b.takeover_latency);
}
