//! A miniature cluster manager on the failure-detection service: watch
//! several nodes, print the suspect list, crash one node, and watch it
//! get detected within its QoS budget.
//!
//! This is the motivating workload of the paper's introduction — group
//! membership / cluster management layers that consume a "list of
//! suspects". The nodes heartbeat over seeded lossy links into one
//! `ClusterMonitor::manual`, stepped in scenario time by `fd_smc`'s
//! scenario driver, so every printed time is exact and the same on every
//! run.
//!
//! ```text
//! cargo run --release --example cluster_monitor
//! ```

use chen_fd_qos::fd_smc::drive::{Drive, Peer, Scenario};
use chen_fd_qos::prelude::*;

/// When the database node crashes, seconds.
const CRASH: f64 = 0.3;
const HORIZON: f64 = 1.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Per-node QoS: detect within 150 ms, ≥ 60 s between false
    // suspicions, false suspicions corrected within 50 ms.
    let req = QosRequirements::new(0.15, 60.0, 0.05)?;

    // Three nodes behind links of increasing badness; the last crashes.
    let nodes: [(&str, f64, f64); 3] = [
        ("web-1", 0.00, 0.002), // clean LAN: 2 ms mean delay
        ("web-2", 0.01, 0.005), // 1% loss, 5 ms
        ("db-1", 0.02, 0.008),  // 2% loss, 8 ms
    ];
    let db: PeerId = 2;
    let mut peers = Vec::new();
    for (id, (name, loss, mean_delay)) in (0..).zip(nodes) {
        // V(D) = E(D)² for an exponential delay.
        let params =
            configure_nfd_u(&req, loss, mean_delay * mean_delay)?.ok_or("unachievable")?;
        println!("watching {name:>6}: NFD-E with {params}");
        // Heartbeat i leaves at i·η and arrives after the link's delay.
        let cfg = PeerConfig::new(params.eta, params.alpha);
        let peer = Peer::new(id, cfg, loss, mean_delay, 1000 + id);
        peers.push(if id == db { peer.plan(FaultPlan::new(0).crash(CRASH)) } else { peer });
    }
    let scenario = Scenario::new(HORIZON, peers);

    let names = |peers: &[PeerId]| -> Vec<&str> {
        peers.iter().map(|&p| nodes[p as usize].0).collect()
    };
    // The monitor sweeps once a tick, in scenario time.
    let mut drive = Drive::new(&scenario);
    drive.run_until(CRASH);
    let suspects = drive.monitor().snapshot().suspected();
    println!("\nat t = {CRASH} s, suspects = {:?}", names(&suspects));
    assert!(suspects.is_empty(), "all nodes should be trusted");
    println!("\n*** db-1 crashes at t = {CRASH} s ***");
    let out = drive.finish();
    let detected = out.transitions[&db]
        .iter()
        .find(|t| t.change == MembershipChange::Suspected && t.at >= CRASH)
        .expect("db-1's crash is detected")
        .at;
    let max_delay = out.deliveries[&db].iter().fold(0.0, |m: f64, d| m.max(d.at - d.sent));
    let cfg = scenario.peers[db as usize].cfg;
    let db_budget = cfg.eta + cfg.alpha + max_delay + scenario.tick;
    println!(
        "db-1 suspected {:.1} ms after its crash (budget: η + α + largest delay + tick = {:.1} ms)",
        (detected - CRASH) * 1e3,
        db_budget * 1e3
    );
    assert!(detected - CRASH <= db_budget, "detection exceeded its budget");
    let suspects = out.monitor.snapshot().suspected();
    println!("suspects = {:?}", names(&suspects));
    assert_eq!(suspects, vec![db]);

    let counters = out.monitor.status(db).expect("registered").counters;
    println!(
        "\ndb-1: {} heartbeats, {} suspicion(s), {} trust(s) over {HORIZON} s",
        counters.heartbeats, counters.suspicions, counters.recoveries
    );
    Ok(())
}
