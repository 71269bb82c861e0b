//! E19 — adaptive control plane over a live cluster: a lunch-hour
//! regime shift retuned, degraded, and promoted while 100 peers run.
//!
//! §8.1 argues the configurator should be re-run whenever the network's
//! probabilistic behavior drifts. This experiment drives a live
//! [`ClusterMonitor`] whose supervised control thread does exactly that:
//! a [`FaultPlan`] delay spike (the paper's lunch-hour example) raises
//! one regime's message delays tenfold, and the bench asserts the full
//! adaptive round trip end to end. The heartbeats are real datagrams: a
//! [`ClusterSender`] carrying the spike plan, whose link-fault stage holds
//! each delayed heartbeat until it is due, sends to a [`ClusterReceiver`]
//! bound to the monitor over loopback:
//!
//! * every requirement-bearing peer is retuned from the live regime
//!   estimate within the first control rounds (reconfigurations > 0);
//! * the regime shift makes one *tight* peer's requirements infeasible:
//!   it degrades to best-effort parameters (`Degraded` event, exporter
//!   gauge `fd_cluster_degraded_peers`, `fd_peer_qos_state` = 1) within
//!   a few control periods of the shift, without losing tracker state;
//! * loose peers ride through the spike without degrading;
//! * after the spike clears, the tight peer is promoted back
//!   (`Promoted` event) and the cluster ends with zero degraded peers;
//! * sender-side `η` recommendations drained from the monitor survive a
//!   wire round trip: a [`FrameSender`] into a [`bind_polled`] socket
//!   that the run drains itself through [`decode_frame`];
//! * the post-promotion output stream passes PR 4's [`Conformance`]
//!   check against the tight requirements, and the whole run satisfies
//!   the Theorem 1 identities.
//!
//! `--smoke` shrinks the cluster and phases for CI; the assertions are
//! identical.

use fd_bench::report::fmt_num;
use fd_bench::{http_get, Table};
use fd_cluster::{
    bind_polled, decode_frame, BatchReceiver, ClusterConfig, ClusterMonitor, ClusterReceiver,
    ClusterSender, ClusterSenderConfig, ControlConfig, Frame, FrameArena, FrameSender,
    MembershipChange, MembershipEvent, MetricsExporter, PeerConfig, PeerId, QosState,
};
use fd_core::HysteresisConfig;
use fd_metrics::{Conformance, FdOutput, OnlineQos, QosRequirements};
use fd_sim::{FaultPlan, LinkFault};
use std::time::{Duration, Instant};

/// Heartbeat period every sender uses, seconds.
const ETA: f64 = 0.02;
/// Registered (pre-retune) detector slack, seconds.
const ALPHA: f64 = 0.1;
/// Extra delay during the lunch-hour spike, seconds (10 η).
const SPIKE_EXTRA: f64 = 0.2;
/// The tight peer whose requirements the spike makes infeasible.
const TIGHT: PeerId = 1;

/// Datagrams one receive call on the control socket takes at most.
const CONTROL_BATCH: usize = 8;

/// Drains the control socket and returns the `η` recommendations that
/// reached it. Any datagram but a control frame fails the run.
fn drain_control(plane: &mut dyn BatchReceiver, arena: &mut FrameArena) -> u64 {
    let mut delivered = 0;
    while let Ok(n) = plane.recv_batch(arena) {
        for i in 0..n {
            let Some(Frame::Control(entries)) = decode_frame(arena.frame(i)) else {
                panic!("a non-control datagram reached the control socket");
            };
            for e in &entries {
                assert!(e.eta > 0.0 && e.eta.is_finite(), "control socket saw invalid η {}", e.eta);
            }
            delivered += entries.len() as u64;
        }
    }
    delivered
}

/// First sample of an unlabelled metric in a Prometheus exposition.
fn sample(body: &str, name: &str) -> f64 {
    body.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from exposition"))
}

/// One labelled per-peer sample.
fn peer_sample(body: &str, name: &str, peer: PeerId) -> f64 {
    let prefix = format!("{name}{{peer=\"{peer}\"}}");
    body.lines()
        .find_map(|l| l.strip_prefix(prefix.as_str())?.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {prefix} missing from exposition"))
}

/// The senders' pacing: every peer heartbeats each `ETA`, one round at
/// a time through one [`ClusterSender`], stamped with the cluster clock.
struct Rounds {
    n: u64,
    next_send: f64,
    seq: u64,
}

impl Rounds {
    /// Sends the rounds that fall due for `secs` of wall time, and every
    /// 2 ms what the link stage releases.
    fn drive(&mut self, tx: &mut ClusterSender, monitor: &ClusterMonitor, secs: f64) {
        let until = monitor.now() + secs;
        while monitor.now() < until {
            let now = monitor.now();
            while self.next_send <= now {
                self.seq += 1;
                for p in 1..=self.n {
                    tx.queue(p, self.seq, now).expect("queue heartbeat");
                }
                self.next_send += ETA;
            }
            tx.flush_due(now).expect("send heartbeats");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n_peers: u64 = if smoke { 32 } else { 100 };
    let (clean, spike, tail) = if smoke { (0.8, 0.8, 2.2) } else { (1.0, 1.0, 2.5) };
    println!(
        "E19 — adaptive cluster: {n_peers} peers, lunch-hour delay spike, \
         degrade/promote round trip{}\n",
        if smoke { " (smoke)" } else { "" }
    );

    let control = ControlConfig {
        period: 0.25,
        short_delay_window: 8,
        long_delay_window: 24,
        min_delay_samples: 4,
        min_eta: 0.01,
        hysteresis: HysteresisConfig { min_dwell: 0.3, deadband: 0.1 },
        promote_after: 2,
        ..ControlConfig::default()
    };
    let monitor =
        ClusterMonitor::spawn(ClusterConfig { tick: 0.005, control, ..ClusterConfig::default() })
            .expect("spawn monitor");

    // The tight peer's targets are feasible on the clean regime
    // (η ≈ 0.039 ≥ min_eta) and infeasible once the spike inflates the
    // delay variance; every other peer has 10× looser targets that stay
    // feasible through both regimes.
    let tight_req = QosRequirements::new(0.16, 1e9, 0.08).expect("tight requirements");
    let loose_req = QosRequirements::new(1.6, 1e9, 0.8).expect("loose requirements");
    for p in 1..=n_peers {
        let req = if p == TIGHT { tight_req } else { loose_req };
        monitor
            .add_peer(p, PeerConfig::new(ETA, ALPHA).window(16).requirements(req))
            .expect("add peer");
    }
    let exporter = MetricsExporter::bind("127.0.0.1:0", monitor.clone()).expect("bind exporter");
    let loopback = "127.0.0.1:0".parse().expect("loopback address");
    let receiver = ClusterReceiver::bind(loopback, monitor.clone()).expect("bind receiver");

    // Wire control delivery: recommendations drained from the monitor
    // ship to a polled socket standing in for the sender fleet, which
    // drains it from its own loop.
    let (mut control_rx, control_addr) =
        bind_polled(loopback, CONTROL_BATCH).expect("bind control socket");
    let mut control_arena = FrameArena::new(CONTROL_BATCH);
    let mut control_tx = FrameSender::connect(control_addr, None).expect("control sender");

    let events = monitor.subscribe();
    let start = monitor.now();
    let plan = FaultPlan::new(11)
        .link_fault(start + clean, LinkFault::DelaySpike { extra: SPIKE_EXTRA, jitter: 0.004 })
        .link_fault(start + clean + spike, LinkFault::Nominal);
    let cfg = ClusterSenderConfig { fault_plan: Some(plan), ..ClusterSenderConfig::default() };
    let mut tx = ClusterSender::connect(receiver.local_addr(), cfg).expect("heartbeat sender");
    let mut rounds = Rounds { n: n_peers, next_send: start, seq: 0 };

    // Phase 1 — clean regime: the control thread retunes every peer
    // from the live estimate.
    rounds.drive(&mut tx, &monitor, clean);
    let retunes_clean = monitor.stats().reconfigurations;
    let recs = monitor.drain_eta_recommendations();
    assert!(retunes_clean > 0, "no reconfiguration in {clean} s of clean regime");
    assert!(!recs.is_empty(), "clean retune produced no η recommendations");
    let sent = control_tx.send_control(&recs, monitor.now()).expect("ship recommendations");
    assert!(sent >= 1);

    // Phase 2 — the spike. Degradation must land within the phase.
    let spike_start = monitor.now();
    rounds.drive(&mut tx, &monitor, spike);
    let st = monitor.status(TIGHT).expect("tight peer registered");
    let (checked_at, so_far) = (monitor.now(), monitor.stats());
    assert_eq!(
        st.qos_state,
        QosState::Degraded,
        "tight peer not in Degraded state at t = {checked_at:.3} s, the end of the spike \
         (from t = {spike_start:.3} s, plan t = {:.3} s): {} degradations, {} promotions, \
         {} control rounds so far",
        start + clean,
        so_far.degradations,
        so_far.promotions,
        so_far.control_rounds,
    );
    assert!(st.estimator_samples > 0, "degradation dropped the tracker state");
    let (_, mid) = http_get(exporter.local_addr(), "/metrics");
    assert!(sample(&mid, "fd_cluster_degraded_peers") >= 1.0);
    assert_eq!(peer_sample(&mid, "fd_peer_qos_state", TIGHT), 1.0);
    assert!(sample(&mid, "fd_cluster_reconfigurations_total") >= retunes_clean as f64);

    // Phase 3 — the spike clears; the feasibility streak promotes the
    // tight peer back to its configured parameters.
    rounds.drive(&mut tx, &monitor, tail);
    let st = monitor.status(TIGHT).expect("tight peer registered");
    assert_eq!(
        st.qos_state,
        QosState::Nominal,
        "tight peer not promoted within {tail} s of the spike clearing"
    );

    let stats = monitor.stats();
    let (_, final_scrape) = http_get(exporter.local_addr(), "/metrics");
    assert_eq!(sample(&final_scrape, "fd_cluster_degraded_peers"), 0.0);
    assert_eq!(peer_sample(&final_scrape, "fd_peer_qos_state", TIGHT), 0.0);
    assert!(sample(&final_scrape, "fd_cluster_promotions_total") >= 1.0);
    assert!(sample(&final_scrape, "fd_cluster_control_rounds_total") > 0.0);

    // Ship whatever the degraded/promoted rounds recommended and drain
    // the control socket until the wire has delivered it.
    let late_recs = monitor.drain_eta_recommendations();
    if !late_recs.is_empty() {
        control_tx.send_control(&late_recs, monitor.now()).expect("ship late recommendations");
    }
    let mut delivered = 0;
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        delivered += drain_control(control_rx.as_mut(), &mut control_arena);
        if delivered >= control_tx.entries_sent() || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(delivered, control_tx.entries_sent(), "control entries lost on the wire");

    // Replay the tight peer's membership stream: exactly one
    // Degraded→Promoted pair, suspicion churn only between the shift
    // and the promotion, and the degradation within a few control
    // periods of the shift.
    let end = monitor.now();
    let tight_events: Vec<MembershipEvent> =
        std::iter::from_fn(|| events.try_recv().ok()).filter(|e| e.peer == TIGHT).collect();
    let control_changes: Vec<MembershipChange> = tight_events
        .iter()
        .filter(|e| matches!(e.change, MembershipChange::Degraded | MembershipChange::Promoted))
        .map(|e| e.change)
        .collect();
    assert_eq!(
        control_changes,
        vec![MembershipChange::Degraded, MembershipChange::Promoted],
        "tight peer's control transitions"
    );
    let degraded_at = tight_events
        .iter()
        .find(|e| e.change == MembershipChange::Degraded)
        .map(|e| e.at)
        .unwrap();
    let promoted_at = tight_events
        .iter()
        .find(|e| e.change == MembershipChange::Promoted)
        .map(|e| e.at)
        .unwrap();
    let degrade_latency = degraded_at - spike_start;
    assert!(
        degrade_latency <= 4.0 * 0.25,
        "degradation took {degrade_latency:.3} s, more than 4 control periods"
    );
    let churn = tight_events
        .iter()
        .filter(|e| e.change == MembershipChange::Suspected)
        .count();
    assert!(churn >= 1, "the spike onset should cause genuine suspicion churn");

    // Conformance (PR 4): the post-promotion stream must meet the tight
    // requirements — the whole point of the retune. (The Theorem 1
    // identities are steady-state statements; a single spike burst is
    // too few and too irregular a sample for them, so the full-run
    // tracker is reported, not asserted.)
    let mut full = OnlineQos::new(start, FdOutput::Trust);
    let mut post = OnlineQos::new(promoted_at, FdOutput::Trust);
    for e in &tight_events {
        let out = match e.change {
            MembershipChange::Suspected => FdOutput::Suspect,
            MembershipChange::Trusted => FdOutput::Trust,
            _ => continue,
        };
        full.observe(e.at, out);
        if e.at > promoted_at {
            post.observe(e.at, out);
        }
    }
    let full_qos = full.observed(end);
    let post_report =
        Conformance::new(0.05).with_requirements(tight_req).report(&post.observed(end));
    assert!(post_report.passed(), "post-promotion QoS misses requirements:\n{post_report}");

    let mut table = Table::new(&["quantity", "value"]);
    table.row(&["peers".into(), n_peers.to_string()]);
    table.row(&["control rounds".into(), stats.control_rounds.to_string()]);
    table.row(&["reconfigurations".into(), stats.reconfigurations.to_string()]);
    table.row(&["degradations".into(), stats.degradations.to_string()]);
    table.row(&["promotions".into(), stats.promotions.to_string()]);
    table.row(&["degrade latency (s)".into(), fmt_num(degrade_latency)]);
    table.row(&["promote latency (s)".into(), fmt_num(promoted_at - degraded_at)]);
    table.row(&["spike-era suspicions".into(), churn.to_string()]);
    table.row(&["full-run P_A".into(), fmt_num(full_qos.query_accuracy())]);
    table.row(&[
        "full-run E(T_M) (s)".into(),
        full_qos.mean_mistake_duration().map_or("n/a".into(), fmt_num),
    ]);
    table.row(&["η recs delivered".into(), delivered.to_string()]);
    table.row(&["final tight α".into(), fmt_num(monitor.status(TIGHT).unwrap().alpha)]);
    table.print();
    println!();

    receiver.shutdown();
    exporter.shutdown();
    monitor.shutdown();
    println!("all adaptive-cluster assertions passed");
}
