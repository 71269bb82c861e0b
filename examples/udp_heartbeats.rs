//! Heartbeats over a real UDP socket: the deployment shape the paper's
//! algorithms target — one-way datagrams, no delivery guarantees — on
//! the workspace's one datagram plane. `ClusterSender` →
//! `ClusterReceiver` → a `ClusterMonitor` with a single peer is the
//! paper's pair `p`, `q`; loss is injected in the send loop because
//! loopback itself is too clean.
//!
//! ```text
//! cargo run --release --example udp_heartbeats
//! ```

use chen_fd_qos::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use std::time::{Duration, Instant};

const P: PeerId = 1;
const ETA: f64 = 0.01; // η = 10 ms
const ALPHA: f64 = 0.06; // α = 60 ms
/// Ticker resolution, loopback delay and scheduling, generously.
const SLOP: f64 = 0.1;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // q's side: an NFD-E for p, fed by a UDP socket.
    let monitor = ClusterMonitor::spawn(ClusterConfig::default())?;
    monitor.add_peer(P, PeerConfig::new(ETA, ALPHA))?;
    let transitions = monitor.subscribe();
    let receiver = ClusterReceiver::bind("127.0.0.1:0".parse()?, monitor.clone())?;
    println!("monitor listening on {}", receiver.local_addr());

    // p's side: send mᵢ on the absolute schedule σᵢ = i·η (sleeping a
    // fixed 10 ms *after* each send would stretch the real period past η
    // and drift NFD-E's arrival estimates), dropping 5 % on the way out.
    let mut sender = ClusterSender::connect(receiver.local_addr(), ClusterSenderConfig::default())?;
    let mut rng = StdRng::seed_from_u64(42);
    let start = Instant::now();
    let (sent, mut survived) = (60u64, 0u64);
    for seq in 1..=sent {
        if !rng.random_bool(0.05) {
            sender.queue(P, seq, monitor.now())?;
            sender.flush()?;
            survived += 1;
        }
        let next = start + Duration::from_millis(10 * seq);
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
    }
    println!("sent {sent} heartbeats over UDP ({survived} survived the 5% loss injection)");
    let output = monitor.status(P).expect("p is registered").output;
    assert!(output.is_trust(), "monitor should trust a live UDP heartbeater");
    println!("monitor output while alive: {output}");

    // Stop heartbeating — a crash, as far as q can tell.
    let crash = Instant::now();
    let budget = Duration::from_secs_f64(ETA + ALPHA + SLOP);
    while monitor.status(P).expect("p is registered").output.is_trust() {
        assert!(crash.elapsed() <= budget, "crash undetected within {budget:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
    println!(
        "stopped sending; suspected after {:?} (budget η + α + slop = {budget:?})",
        crash.elapsed()
    );

    while let Ok(event) = transitions.try_recv() {
        println!("  t = {:.3} s: {:?}", event.at, event.change);
    }
    println!(
        "received {} datagrams, rejected {}",
        receiver.datagrams_received(),
        receiver.rejected()
    );
    receiver.shutdown();
    monitor.shutdown();
    Ok(())
}
