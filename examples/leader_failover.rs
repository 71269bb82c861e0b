//! Leader election riding on failure-detector QoS: the classic
//! downstream application from the paper's introduction. A crashed
//! leader is replaced within the detector's detection-time budget, and
//! spurious leadership changes are bounded by the detector's mistake
//! rate λ_M.
//!
//! Three nodes heartbeat over seeded lossy links into one
//! `ClusterMonitor::manual`; a `LeaderElector<PeerId>` reads its
//! `ClusterSnapshot` once a tick. Everything runs in scenario time (the
//! monitor's clock moves only through `record_at` and `advance_to`), so
//! the printed failover times are exact and the same on every run.
//!
//! ```text
//! cargo run --release --example leader_failover
//! ```

use chen_fd_qos::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The monitor's sweep period, seconds.
const TICK: f64 = 0.001;
const HORIZON: f64 = 1.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Per-node QoS: detect within 120 ms, ≥ 60 s between false
    // suspicions, corrected within 50 ms; 1% loss, E(D) = 2 ms.
    let req = QosRequirements::new(0.12, 60.0, 0.05)?;
    let (loss, mean_delay) = (0.01, 0.002);
    let params = configure_nfd_u(&req, loss, mean_delay * mean_delay)?.ok_or("unachievable")?;
    let link = Link::new(loss, Box::new(Exponential::with_mean(mean_delay)?))?;

    // The nodes crash one after the other, the leader first.
    let nodes = [("alpha", 0.25), ("bravo", 0.5), ("charlie", 0.75)];
    let monitor =
        ClusterMonitor::manual(ClusterConfig { tick: TICK, ..ClusterConfig::default() });
    let (mut arrivals, mut budgets) = (Vec::new(), Vec::new());
    for (id, (name, crash)) in (0..).zip(nodes) {
        monitor.add_peer(id, PeerConfig::new(params.eta, params.alpha))?;
        println!("watching {name:>8} with NFD-E ({params}), crashing at t = {crash} s");
        // Heartbeat i leaves at i·η and arrives after the link's delay.
        let mut rng = StdRng::seed_from_u64(7 + id);
        let mut max_delay: f64 = 0.0;
        for seq in 1.. {
            let sent = seq as f64 * params.eta;
            if sent >= crash {
                break;
            }
            if let Some(at) = link.transmit(sent, &mut rng) {
                max_delay = max_delay.max(at - sent);
                arrivals.push((at, id, Heartbeat::new(seq, sent)));
            }
        }
        // The detection bound: η + α + the largest delay + one tick.
        budgets.push(params.eta + params.alpha + max_delay + TICK);
    }
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));

    let elector = LeaderElector::new(vec![0, 1, 2]);
    let name = |leadership: &Leadership<PeerId>| match leadership {
        Leadership::Leader(id) => nodes[*id as usize].0,
        Leadership::NoLeader => "nobody",
    };
    // The monitor sweeps once a tick (its time moves only through
    // `record_at` and `advance_to`), and the elector reads it after.
    let mut arrivals = arrivals.into_iter().peekable();
    let mut changes = Vec::new();
    let mut leadership = Leadership::NoLeader;
    for tick in 1..=(HORIZON / TICK).round() as u64 {
        let now = tick as f64 * TICK;
        while let Some((at, id, hb)) = arrivals.next_if(|&(at, ..)| at <= now) {
            monitor.record_at(id, at, hb);
        }
        monitor.advance_to(now);
        let current = elector.current(&monitor.snapshot());
        if current != leadership {
            leadership = current;
            changes.push((now, leadership.clone()));
        }
    }

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
    println!("\ncluster has {}", elector.current(&monitor.snapshot()));
    Ok(())
}
