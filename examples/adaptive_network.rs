//! Adaptivity demo (§8.1): the network's behavior changes — quiet night
//! traffic becomes lossy, jittery day traffic — and the adaptive monitor
//! re-estimates `(p̂_L, V̂(D))` and reconfigures `(η, α)` to keep meeting
//! the same QoS requirements.
//!
//! Runs entirely in virtual time on the discrete-event simulator.
//!
//! ```text
//! cargo run --release --example adaptive_network
//! ```

use chen_fd_qos::prelude::*;
use rand::{Rng, SeedableRng};

/// The one monitored peer.
const PEER: PeerId = 1;

/// Feed `count` heartbeats through a `(p_l, D)` law into the monitor,
/// sent every `η` in force, with a control round every 64 heartbeats
/// whose `η` recommendations the "sender" adopts at once. Returns the
/// next sequence number and absolute time.
fn drive_epoch(
    monitor: &ClusterMonitor,
    p_l: f64,
    delay: &dyn DelayDistribution,
    mut seq: u64,
    mut now: f64,
    count: u64,
    rng: &mut rand::rngs::StdRng,
) -> (u64, f64) {
    for _ in 0..count {
        now += monitor.status(PEER).expect("registered").eta;
        seq += 1;
        if rng.random::<f64>() >= p_l {
            let arrival = now + delay.sample(rng);
            monitor.record_at(PEER, arrival, Heartbeat::new(seq, now));
        }
        monitor.advance_to(now);
        if seq.is_multiple_of(64) {
            monitor.run_control_round();
            for (peer, eta) in monitor.drain_eta_recommendations() {
                monitor.apply_eta(peer, eta); // the service retunes the heartbeater
            }
        }
    }
    (seq, now)
}

/// The parameters in force, and what the control plane says about them.
fn report(when: &str, st: &PeerStatus) -> NfdUParams {
    let params = NfdUParams { eta: st.eta, alpha: st.alpha };
    println!(
        "{when}{params} ({:?}; {} heartbeats, {} suspicions)",
        st.qos_state, st.counters.heartbeats, st.counters.suspicions
    );
    params
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Requirements (relative detection bound, §6): detect within 4 s
    // (+E(D)), ≥ 30 min between mistakes, mistakes fixed within 1 s.
    let req = QosRequirements::new(4.0, 1800.0, 1.0)?;
    let monitor = ClusterMonitor::manual(ClusterConfig {
        control: ControlConfig {
            short_loss_span: 32,
            short_delay_window: 32,
            long_delay_window: 512,
            ..ControlConfig::default()
        },
        ..ClusterConfig::default()
    });
    monitor.add_peer(PEER, PeerConfig::new(1.0, 3.0).requirements(req))?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    report("initial parameters: ", &monitor.status(PEER).expect("registered"));

    // Night: clean, fast network.
    let night = Exponential::with_mean(0.01)?;
    let (seq, now) = drive_epoch(&monitor, 0.0, &night, 0, 0.0, 400, &mut rng);
    let night_params = report("after night epoch:  ", &monitor.status(PEER).expect("registered"));

    // Day: 5% loss, heavy jitter (bimodal delays: fast path + retransmit).
    let day = Mixture::new(vec![
        (0.8, Box::new(Exponential::with_mean(0.05)?) as Box<dyn DelayDistribution>),
        (0.2, Box::new(fd_stats::dist::Shifted::new(Exponential::with_mean(0.05)?, 0.8)?)),
    ])?;
    let (_, _) = drive_epoch(&monitor, 0.05, &day, seq, now, 1200, &mut rng);
    let day_params = report("after day epoch:    ", &monitor.status(PEER).expect("registered"));

    // The day network is worse, so the detector must spend its detection
    // budget more conservatively: more slack (α up) and a lower heartbeat
    // rate cannot both hold since η + α is fixed — the recurrence
    // constraint forces η DOWN (more bandwidth) and α UP.
    assert!(
        day_params.eta < night_params.eta,
        "day η {} should be below night η {}",
        day_params.eta,
        night_params.eta
    );
    assert!(day_params.alpha > night_params.alpha);
    println!(
        "\nadaptation: η {:.3} → {:.3} (heartbeats {:.1}× more frequent), α {:.3} → {:.3}",
        night_params.eta,
        day_params.eta,
        night_params.eta / day_params.eta,
        night_params.alpha,
        day_params.alpha
    );
    Ok(())
}
