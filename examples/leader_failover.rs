//! Leader election riding on failure-detector QoS: the classic
//! downstream application from the paper's introduction. A crashed
//! leader is replaced within the detector's detection-time budget plus
//! the elector's demotion dwell, and spurious leadership changes are
//! bounded by the detector's mistake rate λ_M.
//!
//! Three nodes heartbeat over seeded lossy links into one
//! `ClusterMonitor::manual`; a `CrashRecoveryElector` reads its
//! `election_candidates()` once a tick. The elector's knobs come from
//! the NFD parameters: a candidate is electable after `η + α` of
//! uninterrupted trust, and a suspected leader is demoted once the
//! suspicion has lasted one period `η`. At 0.25, 0.5 and 0.75 s
//! whoever leads crashes, and each failover must land within
//!
//! ```text
//! budget = detection bound + dwell + one tick
//!        = (η + α + largest delay + tick) + η + tick
//! ```
//!
//! after the crash. `fd_smc`'s scenario driver steps everything in
//! scenario time, so the printed failover times are exact and the same
//! on every run.
//!
//! ```text
//! cargo run --release --example leader_failover
//! ```

use chen_fd_qos::fd_smc::drive::{Drive, Peer, Scenario};
use chen_fd_qos::prelude::*;

const HORIZON: f64 = 1.0;
const CRASHES: [f64; 3] = [0.25, 0.5, 0.75];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Per-node QoS: detect within 120 ms, ≥ 60 s between false
    // suspicions, corrected within 50 ms; 1% loss, E(D) = 2 ms.
    let req = QosRequirements::new(0.12, 60.0, 0.05)?;
    let (loss, mean_delay) = (0.01, 0.002);
    let params = configure_nfd_u(&req, loss, mean_delay * mean_delay)?.ok_or("unachievable")?;
    let cfg = PeerConfig::new(params.eta, params.alpha);
    let election = ElectionConfig {
        min_stability: params.eta + params.alpha,
        hysteresis: HysteresisConfig { min_dwell: params.eta, deadband: 0.10 },
    };

    let names = ["alpha", "bravo", "charlie"];
    let mut peers = Vec::new();
    for (id, name) in (0..).zip(names) {
        println!("watching {name:>8} with NFD-E ({params})");
        // Heartbeat i leaves at i·η and arrives after the link's delay.
        peers.push(Peer::new(id, cfg, loss, mean_delay, 7 + id));
    }
    println!(
        "electable after {:.4} s of trust, demoted after {:.4} s of suspicion",
        election.min_stability, election.hysteresis.min_dwell
    );
    let scenario = Scenario::new(HORIZON, peers);
    let name = |leader: Option<PeerId>| leader.map_or("nobody", |id| names[id as usize]);

    // The monitor sweeps once a tick, and the elector reads it after.
    let mut drive = Drive::new(&scenario);
    let mut elector = CrashRecoveryElector::new(election);
    let mut changes = Vec::new();
    let mut crashes = Vec::new();
    let mut leader = None;
    for tick in 1..=(HORIZON / scenario.tick).round() as u64 {
        let now = tick as f64 * scenario.tick;
        drive.run_until(now);
        let incumbent = elector.observe(now, &drive.monitor().election_candidates()).incumbent();
        if incumbent != leader {
            leader = incumbent;
            changes.push((now, leader));
        }
        if CRASHES.iter().any(|&at| (at - now).abs() < scenario.tick / 2.0) {
            let victim = leader.ok_or("nobody leads at a crash time")?;
            drive.crash(victim, now);
            crashes.push((now, victim));
        }
    }
    let out = drive.finish();
    // The budget: detection bound (η + α + the largest delay + one
    // tick), the dwell, and the tick the elector reads on.
    let budget = |id: PeerId| {
        let max_delay = out.deliveries[&id].iter().fold(0.0, |m: f64, d| m.max(d.at - d.sent));
        let detection = cfg.eta + cfg.alpha + max_delay + scenario.tick;
        detection + election.hysteresis.min_dwell + scenario.tick
    };

    assert_eq!(changes.len(), CRASHES.len() + 1, "one failover per crash: {changes:?}");
    assert_eq!(changes.last().map(|&(_, l)| l), Some(None), "everyone crashed");
    println!("\n{} leads from t = {:.3} s", name(changes[0].1), changes[0].0);
    for (&(crash, victim), &(at, next)) in crashes.iter().zip(&changes[1..]) {
        println!(
            "{} crashed at {crash} s: {} leads from {at:.3} s, {:.0} ms later \
             (budget {:.1} ms)",
            name(Some(victim)),
            name(next),
            (at - crash) * 1e3,
            budget(victim) * 1e3
        );
        assert!(at - crash <= budget(victim), "failover exceeded its budget");
    }
    println!("\ncluster has {}", elector.state());
    Ok(())
}
