//! A miniature cluster manager on the failure-detection service: watch
//! several nodes, print the suspect list, crash one node, and watch it
//! get detected within its QoS budget.
//!
//! This is the motivating workload of the paper's introduction — group
//! membership / cluster management layers that consume a "list of
//! suspects". The nodes heartbeat over seeded lossy links into one
//! `ClusterMonitor::manual`, in scenario time: the monitor's clock moves
//! only through `record_at` and `advance_to`, so every printed time is
//! exact and the same on every run.
//!
//! ```text
//! cargo run --release --example cluster_monitor
//! ```

use chen_fd_qos::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The monitor's sweep period, seconds.
const TICK: f64 = 0.001;
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
    let monitor =
        ClusterMonitor::manual(ClusterConfig { tick: TICK, ..ClusterConfig::default() });
    let events = monitor.subscribe();
    let (mut arrivals, mut db_budget) = (Vec::new(), 0.0);
    for (id, (name, loss, mean_delay)) in (0..).zip(nodes) {
        // V(D) = E(D)² for an exponential delay.
        let params =
            configure_nfd_u(&req, loss, mean_delay * mean_delay)?.ok_or("unachievable")?;
        monitor.add_peer(id, PeerConfig::new(params.eta, params.alpha))?;
        println!("watching {name:>6}: NFD-E with {params}");
        // Heartbeat i leaves at i·η and arrives after the link's delay.
        let link = Link::new(loss, Box::new(Exponential::with_mean(mean_delay)?))?;
        let mut rng = StdRng::seed_from_u64(1000 + id);
        let stop = if id == db { CRASH } else { HORIZON };
        let mut max_delay: f64 = 0.0;
        for seq in 1.. {
            let sent = seq as f64 * params.eta;
            if sent >= stop {
                break;
            }
            if let Some(at) = link.transmit(sent, &mut rng) {
                max_delay = max_delay.max(at - sent);
                arrivals.push((at, id, Heartbeat::new(seq, sent)));
            }
        }
        if id == db {
            db_budget = params.eta + params.alpha + max_delay + TICK;
        }
    }
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));

    let names = |peers: &[PeerId]| -> Vec<&str> {
        peers.iter().map(|&p| nodes[p as usize].0).collect()
    };
    // The monitor sweeps once a tick; its time moves only through
    // `record_at` and `advance_to`.
    let mut arrivals = arrivals.into_iter().peekable();
    for tick in 1..=(HORIZON / TICK).round() as u64 {
        let now = tick as f64 * TICK;
        while let Some((at, id, hb)) = arrivals.next_if(|&(at, ..)| at <= now) {
            monitor.record_at(id, at, hb);
        }
        monitor.advance_to(now);
        if tick == (CRASH / TICK).round() as u64 {
            let suspects = monitor.snapshot().suspected();
            println!("\nat t = {CRASH} s, suspects = {:?}", names(&suspects));
            assert!(suspects.is_empty(), "all nodes should be trusted");
            println!("\n*** db-1 crashes at t = {CRASH} s ***");
        }
    }
    let detected = std::iter::from_fn(|| events.try_recv().ok())
        .find(|e| e.peer == db && e.change == MembershipChange::Suspected && e.at >= CRASH)
        .expect("db-1's crash is detected")
        .at;
    println!(
        "db-1 suspected {:.1} ms after its crash (budget: η + α + largest delay + tick = {:.1} ms)",
        (detected - CRASH) * 1e3,
        db_budget * 1e3
    );
    assert!(detected - CRASH <= db_budget, "detection exceeded its budget");
    let suspects = monitor.snapshot().suspected();
    println!("suspects = {:?}", names(&suspects));
    assert_eq!(suspects, vec![db]);

    let counters = monitor.status(db).expect("registered").counters;
    println!(
        "\ndb-1: {} heartbeats, {} suspicion(s), {} trust(s) over {HORIZON} s",
        counters.heartbeats, counters.suspicions, counters.recoveries
    );
    Ok(())
}
