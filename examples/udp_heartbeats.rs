//! Heartbeats over a real UDP socket: the deployment shape the paper's
//! algorithms target — one-way datagrams, no delivery guarantees — with
//! sender-side fault injection standing in for a lossy WAN.
//!
//! ```text
//! cargo run --release --example udp_heartbeats
//! ```

use chen_fd_qos::prelude::*;
use fd_runtime::{
    Clock as _, Monitor, UdpHeartbeatReceiver, UdpHeartbeatSender, UdpSenderConfig, WallClock,
};
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // q's side: bind a UDP socket and attach an NFD-E monitor.
    let receiver = UdpHeartbeatReceiver::bind()?;
    println!("monitor listening on {}", receiver.local_addr());
    let clock = WallClock::new();
    let monitor = Monitor::spawn(
        Box::new(NfdE::new(0.01, 0.06, 32)?), // η = 10 ms, α = 60 ms
        receiver.receiver(),
        clock.clone(),
    )?;

    // p's side: send heartbeats every 10 ms with 5% injected loss and
    // ~2 ms injected delay (loopback itself is too clean).
    let mut sender = UdpHeartbeatSender::connect(
        receiver.local_addr(),
        UdpSenderConfig {
            loss_probability: 0.05,
            extra_delay: Some(Box::new(Exponential::with_mean(0.002)?)),
            seed: 42,
            ..Default::default()
        },
    )?;

    // Send on the absolute schedule σᵢ = i·η (like the runtime's
    // heartbeater): `send` blocks for the injected delay, so sleeping a
    // fixed 10 ms *after* it would stretch the real period past η and
    // drift NFD-E's arrival estimates.
    let start = Instant::now();
    let mut sent = 0u64;
    let mut survived = 0u64;
    for seq in 1..=60u64 {
        sent += 1;
        if sender.send(fd_core::Heartbeat::new(seq, clock.now()))? {
            survived += 1;
        }
        let next = start + Duration::from_millis(10 * seq);
        if let Some(pause) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(pause);
        }
    }
    println!(
        "sent {sent} heartbeats over UDP ({survived} survived the 5% loss injection)"
    );
    assert!(
        monitor.output().is_trust(),
        "monitor should trust a live UDP heartbeater"
    );
    println!("monitor output while alive: {}", monitor.output());

    // Stop heartbeating — a crash, as far as q can tell.
    let crash = Instant::now();
    while monitor.output().is_trust() {
        assert!(crash.elapsed() < Duration::from_secs(5), "crash undetected");
        std::thread::sleep(Duration::from_millis(1));
    }
    println!(
        "stopped sending; suspected after {:?} (budget η + E(D) + α ≈ 72 ms + slop)",
        crash.elapsed()
    );

    let trace = monitor.stop();
    println!(
        "recorded {} transitions over {:.2} s of real time",
        trace.transitions().len(),
        trace.duration()
    );
    receiver.shutdown();
    Ok(())
}
