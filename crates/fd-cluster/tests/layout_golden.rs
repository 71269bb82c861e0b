//! Behaviour does not depend on how the registry lays a peer out in
//! memory: a scripted run through the public API must read exactly as
//! it did on the commit before the per-peer record moved out of the
//! shard table (`tests/data/layout_golden.txt`, written there by
//! [`regenerate_golden_files`]).
//!
//! The script covers every shape of peer the registry distinguishes —
//! with and without QoS requirements, windows of several sizes, a loss
//! burst, a duplicate and a reordered heartbeat, an incarnation bump
//! (and a rejected previous-life heartbeat), a remove and re-add with
//! the requirements swapped, a degrade → promote cycle stepped by
//! `run_control_round` — and compares every peer's `status()`, the S/T
//! counts of `qos()`, the events a subscriber saw, and the records
//! `decode_snapshot` returns.
//!
//! The monitor is a manual one, driven from [`BASE`] on. The golden
//! files were written by a monitor on the wall clock, so what it stamped
//! from that clock is left out of the comparison: `add_peer` stamped it
//! into `last_seen` and the QoS tracker's origin (so the tracker's
//! `origin`, its initial suspect segment and `suspect_time`),
//! `Added`/`Removed`/`Degraded`/`Promoted` events carried it, and a
//! control round stamped it into the hysteresis dwell clock. All of
//! these are scripted times now; the decoded records are compared
//! without them, the raw snapshot bytes not at all.

use fd_cluster::snapshot::{decode_snapshot, encode_snapshot};
use fd_cluster::{
    ClusterConfig, ClusterMonitor, ControlConfig, MembershipChange, MembershipEvent, PeerConfig,
    PeerId, PeerRecord,
};
use fd_core::{Heartbeat, HysteresisConfig};
use fd_metrics::{QosRequirements, QosTrackerState};
use std::fmt::Write as _;
use std::path::PathBuf;

/// First scripted time, cluster-clock seconds.
const BASE: f64 = 1_000.0;
const PEERS: PeerId = 12;

fn data(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data").join(name)
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fd-cluster-layout-{tag}-{}.bin", std::process::id()))
}

/// A control plane stepped only by `run_control_round`, with small
/// windows and no dwell.
fn config(snapshot_path: PathBuf) -> ClusterConfig {
    ClusterConfig {
        shards: 4,
        event_capacity: 65_536,
        snapshot_path: Some(snapshot_path),
        control: ControlConfig {
            short_delay_window: 8,
            long_delay_window: 24,
            min_delay_samples: 4,
            min_eta: 0.5,
            hysteresis: HysteresisConfig { min_dwell: 0.0, deadband: 0.01 },
            promote_after: 2,
            ..ControlConfig::default()
        },
        ..ClusterConfig::default()
    }
}

fn requirements() -> QosRequirements {
    QosRequirements::new(4.0, 1e9, 2.0).unwrap()
}

/// Every third peer declares requirements; windows cycle 4 / 8 / 32.
fn peer_config(p: PeerId) -> PeerConfig {
    let window = [4, 8, 32][(p % 3) as usize];
    if p.is_multiple_of(3) {
        PeerConfig::new(1.0, 3.0).window(window).requirements(requirements())
    } else {
        PeerConfig::new(1.0, 1.5).window(window)
    }
}

/// The tracker state without what `add_peer` stamped from the wall
/// clock: the origin, the suspect time (its first segment starts at the
/// origin) and the start of a segment no observed transition opened.
fn clock_free(q: &QosTrackerState) -> String {
    let segment_start = q.segment_opened_by_transition.then_some(q.segment_start);
    format!(
        "qos[{:?} at={:?} segment={:?} trust={:?} last_s={:?} s={} t={} rec={:?} dur={:?} good={:?}]",
        q.output,
        q.at,
        segment_start,
        q.trust_time,
        q.last_s,
        q.s_transitions,
        q.t_transitions,
        q.recurrence,
        q.duration,
        q.good
    )
}

fn record_line(r: &PeerRecord) -> String {
    let control = r.control.map(|c| {
        format!(
            "ctl[req=({:?},{:?},{:?}) degraded={} reconf={} degr={} prom={} streak={} rec_eta={:?} loss=({},{})]",
            c.t_d_upper,
            c.t_mr_lower,
            c.t_m_upper,
            c.degraded,
            c.reconfigurations,
            c.degradations,
            c.promotions,
            c.feasible_streak,
            c.recommended_eta,
            c.loss_highest,
            c.loss_received
        )
    });
    format!(
        "record {} inc={} eta={:?} alpha={:?} window={} max_seq={:?} {:?} samples={:?} {} {:?}",
        r.peer,
        r.incarnation,
        r.eta,
        r.alpha,
        r.window,
        r.max_seq,
        r.counters,
        r.samples,
        r.qos.as_ref().map(clock_free).unwrap_or_default(),
        control
    )
}

/// The script's observer: appends what each step left behind.
struct Run {
    m: ClusterMonitor,
    events: crossbeam::channel::Receiver<MembershipEvent>,
    out: String,
}

impl Run {
    /// The events delivered since the last call. Within one step the
    /// order across peers is the shard maps' iteration order, which is
    /// not behaviour; the order of steps and of one peer's events is.
    fn drain_events(&mut self, step: &str) {
        let mut evs: Vec<MembershipEvent> =
            std::iter::from_fn(|| self.events.try_recv().ok()).collect();
        evs.sort_by_key(|e| e.peer);
        for e in evs {
            let scripted =
                matches!(e.change, MembershipChange::Suspected | MembershipChange::Trusted);
            let at = scripted.then_some(e.at);
            writeln!(self.out, "event {step} peer={} {:?} at={at:?}", e.peer, e.change).unwrap();
        }
    }

    fn statuses(&mut self, step: &str) {
        for p in 0..PEERS {
            let qos = self.m.qos(p).map(|q| (q.s_transitions, q.t_transitions));
            writeln!(self.out, "status {step} {:?} st={qos:?}", self.m.status(p)).unwrap();
        }
    }

    /// Round `round` of the script, sent at `t`: every peer that is heard
    /// this round is heard `delay(p)` later, then time moves to the end
    /// of the round for everyone.
    fn round(&mut self, t: f64, round: u64, delay: &dyn Fn(PeerId) -> f64) {
        for p in (0..PEERS).filter(|&p| heard(p, round)) {
            let (seq, incarnation) = life(p, round);
            self.m.record_at_incarnated(p, t + delay(p), incarnation, Heartbeat::new(seq, t));
        }
        self.m.advance_to(t + 0.9);
    }
}

/// Peer 5 loses rounds 4..=7 (suspected, then re-trusted); peer 11 is
/// removed for good before round 13.
fn heard(p: PeerId, round: u64) -> bool {
    !(p == 5 && (4..=7).contains(&round) || p == 11 && round >= 13)
}

/// The sequence number and incarnation `p` sends in `round`: peers 2 and
/// 3 restart before round 9 (a new incarnation, sequence numbers back at
/// 1), peers 6 and 7 are removed and re-added before round 13.
fn life(p: PeerId, round: u64) -> (u64, u64) {
    match p {
        2 | 3 if round >= 9 => (round - 8, 1),
        6 | 7 if round >= 13 => (round - 12, 0),
        _ => (round, 0),
    }
}

/// Runs the script against a fresh monitor; returns the transcript and
/// the bytes of the snapshot written at its end.
fn scripted_run(tag: &str) -> (String, Vec<u8>) {
    let path = scratch(tag);
    let _ = std::fs::remove_file(&path);
    let m = ClusterMonitor::manual(config(path.clone()));
    let events = m.subscribe();
    let mut run = Run { m, events, out: String::new() };
    for p in 0..PEERS {
        run.m.add_peer(p, peer_config(p)).unwrap();
    }
    let jitter = |p: PeerId| 0.05 + 0.001 * p as f64;
    let mut t = BASE;

    // Clean regime, eight rounds; peer 1 also hears a duplicate and a
    // reordered heartbeat.
    for round in 1..=8 {
        t += 1.0;
        run.round(t, round, &jitter);
        if round == 6 {
            run.m.record_at(1, t + 0.92, Heartbeat::new(6, t));
            run.m.record_at(1, t + 0.93, Heartbeat::new(4, t - 2.0));
        }
    }
    run.drain_events("clean");
    writeln!(run.out, "control clean applied={}", run.m.run_control_round()).unwrap();
    run.drain_events("clean-control");
    run.statuses("clean");

    // Peers 2 (no requirements) and 3 (requirements) restart, and one
    // heartbeat of 2's previous life arrives late.
    for round in 9..=12 {
        t += 1.0;
        run.round(t, round, &jitter);
        if round == 10 {
            let stale = run.m.record_at_incarnated(2, t + 0.95, 0, Heartbeat::new(99, t));
            writeln!(run.out, "previous-life heartbeat accepted={stale}").unwrap();
        }
    }
    run.drain_events("restart");
    run.statuses("restart");

    // Remove and re-add with the requirements swapped: 6 had them and
    // loses them, 7 gains them. 11 leaves for good.
    for p in [6, 7, 11] {
        assert!(run.m.remove_peer(p));
    }
    run.m.add_peer(6, PeerConfig::new(1.0, 1.5).window(8)).unwrap();
    run.m.add_peer(7, PeerConfig::new(1.0, 3.0).window(4).requirements(requirements())).unwrap();
    run.drain_events("readd");

    // Spike regime: every heartbeat of a peer with requirements takes
    // 4 s; the conservative estimator pair sees the variance, the
    // feasible η falls under the floor, the peers degrade.
    let has_requirements = |p: PeerId| p == 7 || (p.is_multiple_of(3) && p != 6);
    for round in 13..=28 {
        t += 1.0;
        run.round(t, round, &|p| if has_requirements(p) { 4.0 } else { jitter(p) });
    }
    run.drain_events("spike");
    writeln!(run.out, "control spike applied={}", run.m.run_control_round()).unwrap();
    run.drain_events("spike-control");
    run.statuses("spike");

    // Recovery: thirty clean rounds flush both delay windows; the first
    // feasible round builds the streak, the second promotes.
    for round in 29..=58 {
        t += 1.0;
        run.round(t, round, &jitter);
    }
    run.drain_events("recovery");
    for round in 1..=2 {
        let applied = run.m.run_control_round();
        writeln!(run.out, "control recovery-{round} applied={applied}").unwrap();
        run.drain_events("recovery-control");
    }

    // Everyone goes silent: the last advance suspects them all.
    run.m.advance_to(t + 10.0);
    run.drain_events("silence");
    run.statuses("end");
    let stats = run.m.stats();
    writeln!(
        run.out,
        "stats peers={} unknown={} stale_inc={} resets={} reconf={} degraded={} degradations={} promotions={}",
        stats.peers,
        stats.unknown_heartbeats,
        stats.stale_incarnation_rejects,
        stats.incarnation_resets,
        stats.reconfigurations,
        stats.degraded_peers,
        stats.degradations,
        stats.promotions
    )
    .unwrap();

    assert!(run.m.save_snapshot());
    let bytes = std::fs::read(&path).unwrap();
    let snap = decode_snapshot(&bytes).expect("decodes");
    assert_eq!(encode_snapshot(&snap), bytes, "decode → encode is byte-identical");
    let mut records = snap.peers;
    records.sort_by_key(|r| r.peer);
    for r in &records {
        writeln!(run.out, "{}", record_line(r)).unwrap();
    }
    run.m.shutdown();
    let _ = std::fs::remove_file(&path);
    (run.out, bytes)
}

/// What a monitor spawned on `snapshot` restored, as seen through
/// `status()` and the transition counts of `qos()`.
fn restored_from(snapshot: &[u8], tag: &str) -> String {
    let path = scratch(tag);
    std::fs::write(&path, snapshot).unwrap();
    let m = ClusterMonitor::manual(config(path.clone()));
    let _ = std::fs::remove_file(&path);
    let stats = m.stats();
    let mut out = format!(
        "restored peers={} errors={} degraded={}\n",
        stats.peers_restored, stats.snapshot_errors, stats.degraded_peers
    );
    for p in 0..PEERS {
        let qos = m.qos(p).map(|q| (q.s_transitions, q.t_transitions));
        writeln!(out, "restored {:?} st={qos:?}", m.status(p)).unwrap();
    }
    // Restored warm: the first fresh heartbeat re-trusts against the
    // persisted window.
    let t = BASE + 100.0;
    m.record_at_incarnated(4, t, 0, Heartbeat::new(60, t));
    writeln!(out, "re-trusted {:?}", m.status(4)).unwrap();
    m.shutdown();
    out
}

#[test]
fn scripted_run_matches_the_golden_transcript() {
    let golden = std::fs::read_to_string(data("layout_golden.txt")).expect("golden transcript");
    let (transcript, _) = scripted_run("run");
    for (n, (got, want)) in transcript.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {} of the transcript", n + 1);
    }
    assert_eq!(transcript.lines().count(), golden.lines().count());
}

/// Format v6 is untouched: the snapshot the previous layout wrote at the
/// end of the same script restores here, to the state it restored to
/// there, and re-encodes to the same bytes.
#[test]
fn snapshot_written_by_the_previous_layout_restores() {
    let bytes = std::fs::read(data("layout_parent_snapshot.bin")).expect("parent snapshot");
    let snap = decode_snapshot(&bytes).expect("decodes");
    assert_eq!(snap.peers.len(), PEERS as usize - 1);
    assert_eq!(encode_snapshot(&snap), bytes);
    let golden = std::fs::read_to_string(data("layout_parent_restored.txt")).expect("golden");
    assert_eq!(restored_from(&bytes, "restore"), golden);
}

/// Rewrites the golden files from the commit under test. Run it on the
/// commit whose behaviour is the reference, not to make a failure pass:
/// `cargo test -p fd-cluster --test layout_golden -- --ignored`.
#[test]
#[ignore = "generator: overwrites tests/data/layout_*"]
fn regenerate_golden_files() {
    std::fs::create_dir_all(data("")).unwrap();
    let (transcript, snapshot) = scripted_run("generate");
    std::fs::write(data("layout_golden.txt"), transcript).unwrap();
    std::fs::write(data("layout_parent_restored.txt"), restored_from(&snapshot, "generate-restore"))
        .unwrap();
    std::fs::write(data("layout_parent_snapshot.bin"), snapshot).unwrap();
}
