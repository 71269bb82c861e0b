//! End-to-end cluster tests: scale (1000 peers, one ticker), a UDP
//! partition of one registry shard under the PR-1 fault plan, and a
//! delay-spike regime shift through the adaptive control plane.
//!
//! The tests in this file share wall-clock-sensitive resources (thread
//! counts, heartbeat cadences), so they serialize on one mutex instead
//! of trusting the harness's parallelism to stay out of the way.

use fd_cluster::{
    ClusterConfig, ClusterMonitor, ClusterReceiver, ClusterSender, ClusterSenderConfig,
    ControlConfig, MembershipChange, PeerConfig, PeerId, QosState,
};
use fd_core::{Heartbeat, HysteresisConfig};
use fd_metrics::QosRequirements;
use fd_sim::{FaultPlan, LinkFault};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::Mutex;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

/// Threads in this process, from /proc (Linux only; `None` elsewhere).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn thousand_peers_one_ticker_thread() {
    let _guard = SERIAL.lock().unwrap();
    const N: u64 = 1000;
    const ETA: f64 = 0.05;
    const ALPHA: f64 = 0.15;

    let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
    let before = thread_count();
    for p in 0..N {
        monitor.add_peer(p, PeerConfig::new(ETA, ALPHA)).unwrap();
    }
    assert_eq!(monitor.peer_count(), N as usize);
    // Adding peers must not add threads: all expirations ride the one
    // timer wheel. (±2 tolerance for test-harness thread churn; exp_scale
    // asserts the exact invariant in a single-purpose process.)
    if let (Some(b), Some(a)) = (before, thread_count()) {
        assert!(a <= b + 2, "adding {N} peers grew threads {b} -> {a}");
    }

    // Warm-up: heartbeat every peer each η.
    for round in 1..=6u64 {
        let t = monitor.now();
        for p in 0..N {
            monitor.record(p, Heartbeat::new(round, t));
        }
        std::thread::sleep(Duration::from_secs_f64(ETA));
    }
    let snap = monitor.snapshot();
    assert_eq!(snap.trusted().len(), N as usize, "all peers trusted after warm-up");

    // Crash a tenth of the cluster: stop their heartbeats, keep the rest.
    let crashed: Vec<PeerId> = (0..N / 10).collect();
    let events = monitor.subscribe();
    let t_crash = monitor.now();
    for round in 7..=14u64 {
        let t = monitor.now();
        for p in N / 10..N {
            monitor.record(p, Heartbeat::new(round, t));
        }
        std::thread::sleep(Duration::from_secs_f64(ETA));
    }

    let snap = monitor.snapshot();
    assert_eq!(snap.suspected(), crashed, "exactly the crashed peers suspected");
    assert_eq!(snap.trusted().len(), (N - N / 10) as usize);

    // Per-peer detection bound: every suspicion lands within η + α of the
    // crash (plus generous slack for wheel tick + scheduler jitter).
    let mut suspected = 0;
    let mut worst = 0.0f64;
    while let Ok(ev) = events.try_recv() {
        if ev.change == fd_cluster::MembershipChange::Suspected {
            assert!(ev.peer < N / 10, "live peer {} suspected", ev.peer);
            suspected += 1;
            worst = worst.max(ev.at - t_crash);
        }
    }
    assert_eq!(suspected, (N / 10) as usize, "one suspicion event per crashed peer");
    assert!(
        worst <= ETA + ALPHA + 0.1,
        "worst detection time {worst:.3}s exceeds η+α+slack = {:.3}s",
        ETA + ALPHA + 0.1
    );

    let stats = monitor.stats();
    assert!(stats.ticks > 0 && stats.timers_fired > 0);
    monitor.shutdown();
}

#[test]
fn udp_partition_of_one_shard_suspects_exactly_that_shard() {
    let _guard = SERIAL.lock().unwrap();
    const N: u64 = 64;
    const ETA: f64 = 0.03;
    const ALPHA: f64 = 0.09;
    const T_PARTITION: f64 = 0.2;

    let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
    for p in 0..N {
        monitor.add_peer(p, PeerConfig::new(ETA, ALPHA)).unwrap();
    }
    // Partition the peers of one registry shard, as the acceptance
    // criteria demand — shard 0's members under Fibonacci hashing.
    let partitioned: Vec<PeerId> = (0..N).filter(|&p| monitor.shard_index(p) == 0).collect();
    assert!(!partitioned.is_empty(), "shard 0 must hold some of {N} peers");
    assert!(partitioned.len() < N as usize / 2, "partition must be a strict minority");

    let rx = ClusterReceiver::bind(SocketAddr::from((Ipv4Addr::LOCALHOST, 0)), monitor.clone())
        .expect("bind");
    let plan = FaultPlan::new(42).link_fault(T_PARTITION, LinkFault::Partition);
    let mut tx = ClusterSender::connect(
        rx.local_addr(),
        ClusterSenderConfig {
            fault_plan: Some(plan),
            faulty_peers: Some(partitioned.clone()),
            ..ClusterSenderConfig::default()
        },
    )
    .expect("connect");

    // Heartbeat all peers every η; the plan cuts the shard's entries off
    // from T_PARTITION onward while the rest of each batch still flows.
    let deadline = ETA + ALPHA + 0.25;
    let start = monitor.now();
    let mut round = 0u64;
    while monitor.now() - start < T_PARTITION + deadline {
        round += 1;
        let t = monitor.now();
        for p in 0..N {
            tx.queue(p, round, t).unwrap();
        }
        tx.flush().unwrap();
        std::thread::sleep(Duration::from_secs_f64(ETA));
    }

    // Batching: 64 entries per round pack into two datagrams (61 + 3).
    assert!(
        tx.batching_factor() >= 8.0,
        "batching factor {:.1} below 8",
        tx.batching_factor()
    );
    assert_eq!(rx.rejected(), 0);
    assert!(rx.entries_received() > 0);

    let snap = monitor.snapshot();
    assert_eq!(
        snap.suspected(),
        partitioned,
        "exactly the partitioned shard suspected (snapshot at {:.3})",
        snap.taken_at()
    );
    assert_eq!(snap.trusted().len(), N as usize - partitioned.len());

    rx.shutdown();
    monitor.shutdown();
}

/// Chaos regime shift under the PR-1 fault plan: a lunch-hour delay
/// spike drives a requirement-bearing peer through the full adaptive
/// round trip — retune on the clean regime, graceful degradation when
/// the spiked regime makes the QoS targets infeasible, and promotion
/// back to nominal parameters once the spike clears — firing exactly
/// one `Degraded` and one `Promoted` membership event.
#[test]
fn delay_spike_regime_shift_degrades_and_promotes() {
    let _guard = SERIAL.lock().unwrap();
    let monitor = ClusterMonitor::spawn(ClusterConfig {
        control: ControlConfig {
            // Inert background controller (first round only after a full
            // period): the test steps rounds deterministically by hand.
            period: 600.0,
            short_delay_window: 8,
            long_delay_window: 24,
            min_delay_samples: 4,
            min_eta: 0.5,
            hysteresis: HysteresisConfig { min_dwell: 0.0, deadband: 0.01 },
            promote_after: 2,
            ..ControlConfig::default()
        },
        ..ClusterConfig::default()
    })
    .expect("spawn");
    let req = QosRequirements::new(4.0, 1e9, 2.0).unwrap();
    monitor.add_peer(1, PeerConfig::new(1.0, 3.0).requirements(req)).unwrap();

    // The spike raises the ~0.05 s link delay to ~4 s (±0.1 jitter) for
    // sends in [8.5, 24.5) — enough regime variance to push the
    // feasible η below the 0.5 floor — then the link heals.
    let plan = FaultPlan::new(7)
        .link_fault(8.5, LinkFault::DelaySpike { extra: 3.95, jitter: 0.1 })
        .link_fault(24.5, LinkFault::Nominal);
    let mut injector = plan.injector();
    let mut rng = StdRng::seed_from_u64(7);
    let mut fates = Vec::new();
    let mut beat = |seq: u64, injector: &mut fd_sim::FaultInjector, rng: &mut StdRng| {
        let send = seq as f64; // η = 1 s of simulated time
        fates.clear();
        injector.apply(send, Some(0.05), rng, &mut fates);
        for &d in &fates {
            assert!(monitor.record_at(1, send + d, Heartbeat::new(seq, send)));
        }
    };

    // Clean warm-up: the first control round retunes toward the paper
    // configurator's output for the clean regime (α → T_M^U = 2.0) and
    // recommends the feasible η within that same round.
    for seq in 1..=8 {
        beat(seq, &mut injector, &mut rng);
    }
    assert_eq!(monitor.run_control_round(), 1, "clean regime retunes in one round");
    let st = monitor.status(1).unwrap();
    assert!((st.alpha - 2.0).abs() < 1e-6, "α retuned to 2.0, got {}", st.alpha);
    assert_eq!(st.qos_state, QosState::Nominal);
    let recs = monitor.drain_eta_recommendations();
    assert_eq!(recs.len(), 1);
    assert!((recs[0].1 - 2.0).abs() < 1e-6, "feasible η recommended");

    // Subscribe after warm-up so the cold-start Trusted event (which
    // has no matching suspicion) stays out of the churn ledger.
    let events = monitor.subscribe();

    // Spiked regime: infeasible ⇒ best-effort parameters + Degraded.
    for seq in 9..=24 {
        beat(seq, &mut injector, &mut rng);
    }
    assert_eq!(monitor.run_control_round(), 1, "spiked regime degrades in one round");
    let st = monitor.status(1).unwrap();
    assert_eq!(st.qos_state, QosState::Degraded);
    assert!(st.estimator_samples > 0, "degradation keeps the tracker warm");
    assert_eq!(monitor.stats().degraded_peers, 1);

    // Healed link: a feasibility streak of `promote_after` rounds
    // re-promotes with the nominal parameters restored.
    for seq in 25..=54 {
        beat(seq, &mut injector, &mut rng);
    }
    assert_eq!(monitor.run_control_round(), 0, "first clean round only builds the streak");
    assert_eq!(monitor.run_control_round(), 1, "second clean round promotes");
    let st = monitor.status(1).unwrap();
    assert_eq!(st.qos_state, QosState::Nominal);
    assert!((st.alpha - 2.0).abs() < 1e-6, "nominal α restored, got {}", st.alpha);
    assert_eq!(st.counters.heartbeats, 54, "no heartbeat lost across the round trip");
    let stats = monitor.stats();
    assert_eq!(stats.degradations, 1);
    assert_eq!(stats.promotions, 1);
    assert_eq!(stats.degraded_peers, 0);

    // Exactly one Degraded → Promoted pair; any Suspected churn during
    // the spike is genuine detector output and must balance out.
    let mut control_events = Vec::new();
    let mut suspected = 0i64;
    while let Ok(ev) = events.try_recv() {
        match ev.change {
            MembershipChange::Degraded | MembershipChange::Promoted => {
                control_events.push(ev.change)
            }
            MembershipChange::Suspected => suspected += 1,
            MembershipChange::Trusted => suspected -= 1,
            _ => {}
        }
    }
    assert_eq!(control_events, vec![MembershipChange::Degraded, MembershipChange::Promoted]);
    assert_eq!(suspected, 0, "spike-era suspicions all recovered");
    monitor.shutdown();
}
