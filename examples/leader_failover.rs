//! Leader election riding on failure-detector QoS: the classic
//! downstream application from the paper's introduction. A crashed
//! leader is replaced within the detector's detection-time budget, and
//! spurious leadership changes are bounded by the detector's mistake
//! rate λ_M.
//!
//! Three nodes heartbeat over seeded lossy links into one
//! `ClusterMonitor::manual`; a `LeaderElector<PeerId>` reads its
//! `ClusterSnapshot` once a tick. `fd_smc`'s scenario driver steps
//! everything in scenario time, so the printed failover times are exact
//! and the same on every run.
//!
//! ```text
//! cargo run --release --example leader_failover
//! ```

use chen_fd_qos::fd_smc::drive::{Drive, Peer, Scenario};
use chen_fd_qos::prelude::*;

const HORIZON: f64 = 1.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Per-node QoS: detect within 120 ms, ≥ 60 s between false
    // suspicions, corrected within 50 ms; 1% loss, E(D) = 2 ms.
    let req = QosRequirements::new(0.12, 60.0, 0.05)?;
    let (loss, mean_delay) = (0.01, 0.002);
    let params = configure_nfd_u(&req, loss, mean_delay * mean_delay)?.ok_or("unachievable")?;
    let cfg = PeerConfig::new(params.eta, params.alpha);

    // The nodes crash one after the other, the leader first.
    let nodes = [("alpha", 0.25), ("bravo", 0.5), ("charlie", 0.75)];
    let mut peers = Vec::new();
    for (id, (name, crash)) in (0..).zip(nodes) {
        println!("watching {name:>8} with NFD-E ({params}), crashing at t = {crash} s");
        // Heartbeat i leaves at i·η and arrives after the link's delay.
        let plan = FaultPlan::new(0).crash(crash);
        peers.push(Peer::new(id, cfg, loss, mean_delay, 7 + id).plan(plan));
    }
    let scenario = Scenario::new(HORIZON, peers);

    let elector = LeaderElector::new(vec![0, 1, 2]);
    let name = |leadership: &Leadership<PeerId>| match leadership {
        Leadership::Leader(id) => nodes[*id as usize].0,
        Leadership::NoLeader => "nobody",
    };
    // The monitor sweeps once a tick, and the elector reads it after.
    let mut drive = Drive::new(&scenario);
    let mut changes = Vec::new();
    let mut leadership = Leadership::NoLeader;
    for tick in 1..=(HORIZON / scenario.tick).round() as u64 {
        let now = tick as f64 * scenario.tick;
        drive.run_until(now);
        let current = elector.current(&drive.monitor().snapshot());
        if current != leadership {
            leadership = current;
            changes.push((now, leadership.clone()));
        }
    }
    let out = drive.finish();
    // The detection bound: η + α + the largest delay + one tick.
    let budgets: Vec<f64> = (0..nodes.len() as PeerId)
        .map(|id| {
            let max_delay = out.deliveries[&id].iter().fold(0.0, |m: f64, d| m.max(d.at - d.sent));
            cfg.eta + cfg.alpha + max_delay + scenario.tick
        })
        .collect();

    use Leadership::{Leader, NoLeader};
    let order: Vec<_> = changes.iter().map(|(_, leadership)| leadership.clone()).collect();
    assert_eq!(order, [Leader(0), Leader(1), Leader(2), NoLeader], "one failover per crash");
    println!("\n{} leads from t = {:.3} s", name(&order[0]), changes[0].0);
    for (i, (at, next)) in changes[1..].iter().enumerate() {
        let (victim, crash) = nodes[i];
        println!(
            "{victim} crashed at {crash} s: {} leads from {at:.3} s, {:.0} ms later \
             (budget {:.1} ms)",
            name(next),
            (at - crash) * 1e3,
            budgets[i] * 1e3
        );
        assert!(at - crash <= budgets[i], "failover exceeded the detection budget");
    }
    println!("\ncluster has {}", elector.current(&out.monitor.snapshot()));
    Ok(())
}
