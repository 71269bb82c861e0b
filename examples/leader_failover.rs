//! Leader election riding on failure-detector QoS: the classic
//! downstream application from the paper's introduction. A crashed
//! leader is replaced within the detector's detection-time budget, and
//! spurious leadership changes are bounded by the detector's mistake
//! rate λ_M.
//!
//! ```text
//! cargo run --release --example leader_failover
//! ```

use chen_fd_qos::prelude::*;
use fd_runtime::{LinkSpec, ProcessSpec, Service};
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut service = Service::new();
    // Per-node QoS: detect within 120 ms (+E(D)), ≥ 60 s between false
    // suspicions, corrected within 50 ms.
    let req = QosRequirements::new(0.12, 60.0, 0.05)?;
    for (i, name) in ["alpha", "bravo", "charlie"].iter().enumerate() {
        let link = LinkSpec::new(0.01, Box::new(Exponential::with_mean(0.002)?))
            .expect("valid loss probability");
        let params = service.watch(
            ProcessSpec::named(*name)
                .qos(req, 0.01, 4e-6)
                .link(link)
                .seed(7 + i as u64),
        )?;
        println!("watching {name:>8} with NFD-E ({params})");
    }

    let elector = LeaderElector::new(vec![
        "alpha".into(),
        "bravo".into(),
        "charlie".into(),
    ]);

    std::thread::sleep(Duration::from_millis(250));
    let initial = elector.current(&service);
    println!("\ninitial {initial}");
    assert_eq!(initial, Leadership::Leader("alpha".into()));

    // Kill leaders one by one and time each failover.
    for (victim, heir) in [("alpha", "bravo"), ("bravo", "charlie")] {
        println!("\n*** crashing {victim} ***");
        let t0 = Instant::now();
        service.crash(victim);
        loop {
            if elector.current(&service) == Leadership::Leader(heir.into()) {
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(5), "failover too slow");
            std::thread::sleep(Duration::from_millis(2));
        }
        println!(
            "failover to {heir} in {:?} (detector budget ≈ 122 ms + slop)",
            t0.elapsed()
        );
    }

    println!("\n*** crashing charlie (the last candidate) ***");
    service.crash("charlie");
    let t0 = Instant::now();
    loop {
        if elector.current(&service) == Leadership::NoLeader {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(5));
        std::thread::sleep(Duration::from_millis(2));
    }
    println!("cluster has {}", elector.current(&service));
    service.shutdown();
    Ok(())
}
