//! E15 — chaos smoke: one scripted fault timeline, every fault kind,
//! deterministic seeds. Exercises the shared fault model (duplication,
//! reordering, delay spikes, burst loss, partition, crash) end-to-end
//! through the discrete-event engine and asserts the two properties the
//! runtime chaos harness also checks: the detector degrades (suspects)
//! while the link is down and recovers (trusts) once it heals, and a
//! real crash is still detected within the NFD-S bound.
//!
//! Kept fast and assertion-rich on purpose: CI runs it as a smoke test.
//!
//! `--restart-storm` runs the crash-recovery smoke instead: N peers on a
//! real UDP loopback cluster crash and recover repeatedly (scripted by
//! [`FaultPlan::restart_storm`]) under burst loss, each new life bumping
//! its wire incarnation; asserts incarnation resets, stale-life
//! rejection, healthy supervised threads, and a warm snapshot restart.

use fd_bench::report::fmt_num;
use fd_bench::{Settings, Table};
use fd_cluster::{
    ClusterConfig, ClusterMonitor, ClusterReceiver, ClusterSender, ClusterSenderConfig, Health,
    PeerConfig,
};
use fd_core::detectors::{NfdE, NfdS};
use fd_core::{FailureDetector, Heartbeat};
use fd_metrics::{
    detection_time, AccuracyAnalysis, Conformance, DetectionOutcome, FdOutput, OnlineQos,
    TransitionTrace,
};
use fd_sim::{run_with_plan, FaultPlan, Link, LinkFault, ProcessEvent, RunOptions};
use fd_stats::dist::Exponential;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::{Ipv4Addr, SocketAddr};
use std::time::{Duration, Instant};

const ETA: f64 = 1.0;
const CRASH_AT: f64 = 600.25;
const HORIZON: f64 = 700.0;

/// The scripted timeline (times in seconds, η = 1):
///
/// | window      | fault                                   |
/// |-------------|-----------------------------------------|
/// | [0, 100)    | nominal                                 |
/// | [100, 150)  | duplicate every heartbeat               |
/// | [150, 200)  | reorder (±0.8 s jitter)                 |
/// | [200, 280)  | Gilbert–Elliott burst loss              |
/// | [280, 400)  | delay spike (+0.5 s)                    |
/// | [400, 480)  | full partition                          |
/// | [480, …)    | healed                                  |
/// | 600.25      | process crashes (engine-level)          |
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .link_fault(
            100.0,
            LinkFault::Duplicate {
                probability: 1.0,
                lag: 0.3,
            },
        )
        .link_fault(150.0, LinkFault::Reorder { spread: 0.8 })
        .link_fault(
            200.0,
            LinkFault::BurstLoss {
                p_gb: 0.5,
                p_bg: 0.2,
                loss_good: 0.0,
                loss_bad: 0.9,
            },
        )
        .link_fault(
            280.0,
            LinkFault::DelaySpike {
                extra: 0.5,
                jitter: 0.1,
            },
        )
        .link_fault(400.0, LinkFault::Partition)
        .link_fault(480.0, LinkFault::Nominal)
}

fn suspect_fraction(trace: &TransitionTrace, from: f64, to: f64) -> f64 {
    let acc = AccuracyAnalysis::of_trace(&trace.restrict(from, to));
    1.0 - acc.query_accuracy_probability()
}

fn run_detector(
    name: &str,
    fd: &mut dyn FailureDetector,
    seed: u64,
    table: &mut Table,
) -> TransitionTrace {
    let plan = chaos_plan(seed);
    let link = Link::new(0.0, Box::new(Exponential::with_mean(0.02).expect("valid")))
        .expect("valid link");
    let mut rng = StdRng::seed_from_u64(seed);
    let out = run_with_plan(
        fd,
        &RunOptions::with_crash(ETA, CRASH_AT, HORIZON),
        link,
        &plan,
        &mut rng,
    );
    let t = &out.trace;
    let detect = match detection_time(t, CRASH_AT) {
        DetectionOutcome::Detected { elapsed } => fmt_num(elapsed),
        DetectionOutcome::AlreadySuspecting => "already-S".into(),
        DetectionOutcome::NotDetected => "MISSED".into(),
    };
    table.row(&[
        name.into(),
        fmt_num(suspect_fraction(t, 10.0, 200.0)),
        fmt_num(suspect_fraction(t, 405.0, 480.0)),
        fmt_num(suspect_fraction(t, 500.0, 600.0)),
        detect,
    ]);
    out.trace
}

/// Predicted-vs-observed conformance: the same trace, consumed live.
///
/// Replays the pre-crash output stream transition by transition into an
/// [`OnlineQos`] tracker — exactly what the cluster monitor does at its
/// S/T-transition points — and asserts that the online answers match a
/// batch [`AccuracyAnalysis`] of the recorded trace within 5%, and that
/// the observed metrics satisfy the paper's Theorem 1 identities at a
/// renewal point (the last S-transition, where a mistake-recurrence
/// cycle closes).
fn live_conformance(name: &str, trace: &TransitionTrace) {
    let pre = trace.restrict(trace.start(), CRASH_AT);
    let mut online = OnlineQos::new(pre.start(), pre.initial_output());
    for tr in pre.transitions() {
        online.observe(tr.at, tr.to);
    }
    let observed = online.observed(pre.end());
    let batch = AccuracyAnalysis::of_trace(&pre);

    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
    assert_eq!(
        observed.s_transitions as usize,
        batch.mistake_count(),
        "{name}: online mistake count diverged from batch"
    );
    assert!(
        rel(observed.query_accuracy(), batch.query_accuracy_probability()) < 0.05,
        "{name}: online P_A {} vs batch {}",
        observed.query_accuracy(),
        batch.query_accuracy_probability()
    );
    match (observed.mean_mistake_duration(), batch.mean_mistake_duration()) {
        (Some(on), Some(off)) => assert!(
            rel(on, off) < 0.05,
            "{name}: online E(T_M) {on} vs batch {off}"
        ),
        (on, off) => assert_eq!(
            on.is_some(),
            off.is_some(),
            "{name}: one view observed a completed mistake, the other did not"
        ),
    }

    // Theorem 1 is an identity over whole mistake-recurrence cycles, so
    // re-observe the stream between renewal points: from the first
    // S-transition (cycle starts) to the last (the final cycle closes).
    // The tracker is primed Trusting just before the first S so that
    // S-transition opens the first cycle as a real transition.
    let s_times: Vec<f64> = pre.s_transition_times().collect();
    let (Some(&first_s), Some(&last_s)) = (s_times.first(), s_times.last()) else {
        return; // no mistakes at all: nothing for Theorem 1 to say
    };
    if first_s == last_s {
        return; // a single mistake closes no cycle
    }
    let mut renewal = OnlineQos::new(first_s - 1e-9, FdOutput::Trust);
    for tr in pre.transitions().filter(|t| t.at >= first_s && t.at <= last_s) {
        renewal.observe(tr.at, tr.to);
    }
    let report = Conformance::new(0.05).report(&renewal.observed(last_s));
    assert!(report.passed(), "{name}: conformance failures:\n{report}");
    println!("{name} conformance over {} renewal cycles:\n{report}", s_times.len() - 1);
}

/// Polls until `pred` holds or `timeout` elapses; returns whether it held.
fn wait_until(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    pred()
}

/// E15b — restart-storm smoke: the crash-recovery acceptance gate, run
/// over the real loopback UDP cluster path (heartbeats with incarnations,
/// supervised ticker + pump, snapshot persistence).
fn restart_storm_smoke(settings: &Settings) {
    const N_PEERS: u64 = 8;
    const CYCLES: usize = 3;
    const STORM_START: f64 = 0.4;
    const DOWN: f64 = 0.12;
    const UP: f64 = 0.3;
    const HB_PERIOD: f64 = 0.02;
    const HORIZON: f64 = STORM_START + CYCLES as f64 * (DOWN + UP) + 0.4;

    println!(
        "E15b — restart storm: {N_PEERS} peers × {CYCLES} crash/recover cycles under burst loss (seed {})\n",
        settings.seed
    );

    // One plan drives both halves of the storm: its link faults are
    // injected per entry by the ClusterSender, and its crash windows
    // gate the send loop (a crashed process sends nothing; each recovery
    // is a new incarnation whose sequence numbers restart at 1).
    let plan = FaultPlan::new(settings.seed)
        .link_fault(
            0.05,
            LinkFault::BurstLoss {
                p_gb: 0.2,
                p_bg: 0.5,
                loss_good: 0.0,
                loss_bad: 0.8,
            },
        )
        .link_fault(STORM_START + CYCLES as f64 * (DOWN + UP) - UP / 2.0, LinkFault::Nominal)
        .restart_storm(STORM_START, CYCLES, DOWN, UP);

    let snap = std::env::temp_dir().join(format!("fd-restart-storm-{}.snap", std::process::id()));
    let _ = std::fs::remove_file(&snap);
    let cfg = ClusterConfig {
        tick: 0.002,
        snapshot_path: Some(snap.clone()),
        ..ClusterConfig::default()
    };
    let monitor = ClusterMonitor::spawn(cfg.clone()).expect("spawn monitor");
    for p in 1..=N_PEERS {
        monitor.add_peer(p, PeerConfig::new(HB_PERIOD, 0.08).window(8)).expect("add peer");
    }
    let rx = ClusterReceiver::bind(
        SocketAddr::from((Ipv4Addr::LOCALHOST, 0)),
        monitor.clone(),
    )
    .expect("bind receiver");
    let mut tx = ClusterSender::connect(
        rx.local_addr(),
        ClusterSenderConfig {
            fault_plan: Some(plan.clone()),
            seed: settings.seed,
            ..ClusterSenderConfig::default()
        },
    )
    .expect("connect sender");

    // The send loop: every heartbeat period, if the plan says the
    // process is alive, all peers heartbeat at the current incarnation
    // (1 + completed recoveries).
    let t0 = Instant::now();
    let mut current_inc = 1;
    let mut seq = 0;
    loop {
        let t = t0.elapsed().as_secs_f64();
        if t >= HORIZON {
            break;
        }
        if !plan.is_crashed_at(t) {
            let inc = 1 + plan
                .events()
                .iter()
                .filter(|e| matches!(e, ProcessEvent::Recover { at } if *at <= t))
                .count() as u64;
            if inc != current_inc {
                current_inc = inc;
                seq = 0; // a restarted sender's sequence numbers restart
            }
            seq += 1;
            let now = monitor.now();
            for p in 1..=N_PEERS {
                tx.queue_incarnated(p, inc, seq, now).expect("queue");
            }
            tx.flush().expect("flush");
        }
        std::thread::sleep(Duration::from_secs_f64(HB_PERIOD));
    }

    // After the final recovery every peer must be trusted again. The
    // window only needs to cover scheduling stalls on a loaded
    // single-core box — a peer that is genuinely stuck DOWN stays
    // stuck no matter how long we wait, so a generous bound cannot
    // mask a real regression.
    let all_trusted = || {
        (1..=N_PEERS).all(|p| monitor.status(p).expect("registered").output.is_trust())
    };
    assert!(
        wait_until(Duration::from_secs(5), all_trusted),
        "a peer is stuck DOWN after the final recovery"
    );

    // A replay of first-life traffic with huge sequence numbers must be
    // rejected wholesale, not refresh anyone's freshness.
    let before = monitor.stats();
    for burst in 0..10u64 {
        for p in 1..=N_PEERS {
            monitor.record_incarnated(p, 1, Heartbeat::new(100_000 + burst, monitor.now()));
        }
    }
    let stats = monitor.stats();
    assert_eq!(
        stats.stale_incarnation_rejects - before.stale_incarnation_rejects,
        10 * N_PEERS,
        "stale first-life replay was not fully rejected"
    );

    let suspicions: u64 =
        (1..=N_PEERS).map(|p| monitor.status(p).expect("registered").counters.suspicions).sum();
    let ticker_health = monitor.ticker_health();
    let pump_health = rx.pump_health();

    // Monitor restart: the snapshot written on shutdown must hand the
    // next spawn warm estimator windows and the incarnation high-water
    // marks.
    let final_inc = current_inc;
    let entries_received = rx.entries_received();
    rx.shutdown();
    monitor.shutdown();
    let reborn = ClusterMonitor::spawn(cfg).expect("respawn from snapshot");
    let warm = (1..=N_PEERS)
        .filter(|&p| {
            let st = reborn.status(p).expect("restored");
            st.estimator_samples > 0 && st.incarnation == final_inc
        })
        .count() as u64;
    reborn.shutdown();
    let _ = std::fs::remove_file(&snap);

    let mut table = Table::new(&["metric", "value"]);
    table.row(&["peers".into(), N_PEERS.to_string()]);
    table.row(&["restart cycles".into(), CYCLES.to_string()]);
    table.row(&["final incarnation".into(), final_inc.to_string()]);
    table.row(&["entries received".into(), entries_received.to_string()]);
    table.row(&["incarnation resets".into(), stats.incarnation_resets.to_string()]);
    table.row(&["stale-life rejects".into(), stats.stale_incarnation_rejects.to_string()]);
    table.row(&["suspicions (sum)".into(), suspicions.to_string()]);
    table.row(&["ticker health".into(), format!("{ticker_health:?}")]);
    table.row(&["pump health".into(), format!("{pump_health:?}")]);
    table.row(&["warm peers after restart".into(), format!("{warm}/{N_PEERS}")]);
    table.print();
    println!();

    assert_eq!(final_inc, CYCLES as u64 + 1, "not every recovery produced a new incarnation");
    assert!(
        stats.incarnation_resets >= N_PEERS * CYCLES as u64,
        "too few incarnation resets: {}",
        stats.incarnation_resets
    );
    assert!(suspicions >= N_PEERS, "crashes went unnoticed (suspicions = {suspicions})");
    assert_eq!(ticker_health, Health::Healthy, "storm degraded the ticker");
    assert_eq!(pump_health, Health::Healthy, "storm degraded the receive pump");
    assert_eq!(warm, N_PEERS, "monitor restarted cold for some peers");
    println!("all restart-storm assertions passed");
}

fn main() {
    let settings = Settings::from_env();
    if std::env::args().any(|a| a == "--restart-storm") {
        restart_storm_smoke(&settings);
        return;
    }
    println!("E15 — chaos smoke over the shared fault model (seed {})\n", settings.seed);

    let mut table = Table::new(&[
        "detector",
        "P(S) pre-fault",
        "P(S) partition",
        "P(S) healed",
        "T_D",
    ]);

    let mut nfd_s = NfdS::new(ETA, 2.0).expect("valid");
    let trace_s = run_detector("NFD-S (δ=2)", &mut nfd_s, settings.seed, &mut table);

    let mut nfd_e = NfdE::new(ETA, 2.0, 32).expect("valid");
    let trace_e = run_detector("NFD-E (α=2)", &mut nfd_e, settings.seed ^ 1, &mut table);

    table.print();
    println!();

    for (name, trace) in [("NFD-S", &trace_s), ("NFD-E", &trace_e)] {
        // Duplication/reordering phases must not cause suspicion storms.
        let pre = suspect_fraction(trace, 10.0, 200.0);
        assert!(pre < 0.05, "{name}: {pre:.3} suspicion before any loss fault");
        // Graceful degradation: the partition must be noticed...
        let during = suspect_fraction(trace, 405.0, 480.0);
        assert!(during > 0.9, "{name}: partition unnoticed (P(S) = {during:.3})");
        // ...and recovery must follow the heal.
        let after = suspect_fraction(trace, 500.0, 600.0);
        assert!(after < 0.1, "{name}: no recovery after heal (P(S) = {after:.3})");
        // The genuine crash is still detected promptly.
        match detection_time(trace, CRASH_AT) {
            DetectionOutcome::Detected { elapsed } => assert!(
                elapsed <= 2.0 + ETA + 1e-9,
                "{name}: T_D = {elapsed} exceeds δ + η"
            ),
            DetectionOutcome::AlreadySuspecting => {}
            DetectionOutcome::NotDetected => panic!("{name}: crash never detected"),
        }
        live_conformance(name, trace);
    }
    println!("all chaos-smoke assertions passed");
}
