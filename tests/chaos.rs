//! Chaos harness: scripted [`FaultPlan`]s driven end to end through a
//! cluster monitor in scenario time, asserting graceful degradation
//! *and* recovery.
//!
//! Every scenario runs for several seeds, each twice (the runs must
//! publish identical event streams), and states its bounds exactly: a
//! peer is trusted from its first heartbeat, suspected within
//! `silent + η + α + (largest delay in its estimation window) + tick`
//! once nothing it sends gets through, and trusted again by the first
//! heartbeat that does.

use chen_fd_qos::fd_smc::drive::{assert_detected, replay, Outcome, Peer, Scenario, Transition};
use chen_fd_qos::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use MembershipChange::{Suspected, Trusted};

const ETA: f64 = 0.01;
const ALPHA: f64 = 0.05;
const SEEDS: std::ops::Range<u64> = 0..4;
/// Faults start a millisecond after a send (sends leave every 10 ms), so
/// the detection bound, which counts from the fault, is nearly tight.
const FAULT: f64 = 0.251;

/// Peer `id` on a loss-free link (exponential delays, mean 1 ms), with
/// NFD-E parameters `η = 10 ms`, `α = 50 ms` and a window of 8.
fn peer(id: PeerId, seed: u64) -> Peer {
    Peer::new(id, PeerConfig::new(ETA, ALPHA).window(8), 0.0, 0.001, seed * 16 + id)
}

/// The peer's transitions, which must be exactly trust, suspicion,
/// trust again.
fn trust_suspect_trust(out: &Outcome, peer: PeerId) -> [Transition; 3] {
    let transitions = &out.transitions[&peer];
    let changes: Vec<_> = transitions.iter().map(|t| t.change).collect();
    assert_eq!(changes, [Trusted, Suspected, Trusted], "peer {peer}");
    assert_eq!(transitions[0].at, out.deliveries[&peer][0].at, "trusted from its first heartbeat");
    [transitions[0], transitions[1], transitions[2]]
}

/// One peer under `plan`, which stops everything it sends in
/// `[from, to)` from getting through: trusted before, suspected within
/// the detection bound, trusted again by the first heartbeat sent after.
fn assert_outage(plan: &FaultPlan, from: f64, to: f64) {
    for seed in SEEDS {
        let s = Scenario::new(to + 0.3, vec![peer(1, seed).plan(plan.clone())]);
        let out = replay(&s);
        let [_, suspected, trusted] = trust_suspect_trust(&out, 1);
        assert!(from <= suspected.at, "seed {seed}: suspected before the fault: {suspected:?}");
        assert_detected(&s, &out, &s.peers[0], from, to);
        assert_eq!(trusted.at, out.first_sent_from(1, to).at, "seed {seed}: trust not back");
    }
}

/// Scenario 1 — loss burst: a Gilbert–Elliott burst pinned in its bad
/// state swallows every heartbeat for 300 ms, then the link heals.
#[test]
fn loss_burst_suspect_then_recover() {
    let burst = LinkFault::BurstLoss { p_gb: 1.0, p_bg: 0.0, loss_good: 0.0, loss_bad: 1.0 };
    let plan = FaultPlan::new(0xB00).link_fault(FAULT, burst).link_fault(0.55, LinkFault::Nominal);
    assert_outage(&plan, FAULT, 0.55);
}

/// Scenario 2 — partition + heal: the link drops everything for 300 ms.
#[test]
fn partition_then_heal() {
    let plan = FaultPlan::new(0x9A27)
        .link_fault(FAULT, LinkFault::Partition)
        .link_fault(0.55, LinkFault::Nominal);
    assert_outage(&plan, FAULT, 0.55);
}

/// Scenario 3 — crash + recovery: the peer stops sending at t ≈ 0.25 s
/// and comes back at 0.55 s as a new incarnation.
#[test]
fn crash_then_recovery() {
    assert_outage(&FaultPlan::new(0xC0FFEE).crash(FAULT).recover(0.55), FAULT, 0.55);
}

/// Scenario 4 — clock jump: the *monitor's* clock steps forward half a
/// second (an NTP adjustment). Every deadline appears blown, so the
/// detector suspects at the first instant after the jump; NFD-E then
/// re-estimates arrival times on the new clock, and trust is back once
/// the estimation window holds only post-jump arrivals — the
/// self-correction §6.3 argues for.
#[test]
fn monitor_clock_jump_self_corrects() {
    let (jump_at, offset) = (0.3, 0.5);
    for seed in SEEDS {
        let s = Scenario {
            clock: FaultPlan::new(0xC10C).clock_jump(jump_at, offset),
            ..Scenario::new(1.0, vec![peer(1, seed)])
        };
        let out = replay(&s);
        let [_, suspected, trusted] = trust_suspect_trust(&out, 1);
        let jumped = jump_at + offset;
        assert!(jumped <= suspected.at && suspected.at <= jumped + s.tick, "seed {seed}");
        let window = s.peers[0].cfg.window;
        let mut after_jump = out.deliveries[&1].iter().filter(|d| d.fresh && d.at >= jump_at);
        let refilled = after_jump.nth(window - 1).expect("a window after the jump").at + offset;
        assert!(trusted.at <= refilled, "seed {seed}: trust at {} > {refilled}", trusted.at);
    }
}

/// Scenario 5 — restart storm under burst loss: the peer crashes and
/// recovers three times in quick succession while the link chews up most
/// heartbeats. Every crash is detected within the bound, and the peer is
/// not stuck suspected after the *final* recovery.
#[test]
fn restart_storm_recovers_after_final_restart() {
    let burst = LinkFault::BurstLoss { p_gb: 0.3, p_bg: 0.5, loss_good: 0.0, loss_bad: 0.9 };
    let plan = FaultPlan::new(0x5709)
        .link_fault(0.2, burst)
        .link_fault(1.1, LinkFault::Nominal)
        .restart_storm(FAULT, 3, 0.15, 0.25);
    for seed in SEEDS {
        let s = Scenario::new(1.6, vec![peer(1, seed).plan(plan.clone())]);
        let out = replay(&s);
        let before = out.between(1, 0.0, 0.2);
        assert_eq!(before.len(), 1, "seed {seed}: only the first trust before the storm");
        let cycles = [0.0, 0.4, 0.8].map(|start| (FAULT + start, FAULT + start + 0.15));
        for (crash, recovery) in cycles {
            assert_detected(&s, &out, &s.peers[0], crash, recovery);
        }
        let (_, last_recovery) = cycles[2];
        let after = out.between(1, last_recovery, f64::INFINITY);
        let first = out.first_sent_from(1, last_recovery).at;
        assert_eq!(after.len(), 1, "seed {seed}: peer stuck DOWN after the final recovery");
        assert_eq!((after[0].change, after[0].at), (Trusted, first));
    }
}

/// Scenario 6 — cluster-level restart storm: N peers crash/recover
/// repeatedly, each new life bumping its incarnation and restarting its
/// sequence numbers at 1, with seeded heartbeat loss layered on top.
/// Asserts the crash-recovery acceptance bar end to end: every new life
/// re-earns trust (no peer stuck DOWN), every crash is detected within
/// `η + α + tick` (the links here deliver instantly), stale-incarnation
/// floods cannot resurrect a dead peer, and a monitor restarted from its
/// snapshot reports warm (non-empty) estimator windows immediately.
#[test]
fn cluster_restart_storm_incarnations_and_warm_snapshot() {
    const N_PEERS: u64 = 4;
    const CYCLES: u64 = 3;
    const LOSS: f64 = 0.3;
    let peer_cfg = PeerConfig::new(0.02, 0.06).window(8);

    let snap = std::env::temp_dir().join(format!(
        "fd-chaos-restart-storm-{}.snap",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&snap);
    let cfg = ClusterConfig {
        tick: 0.002,
        snapshot_path: Some(snap.clone()),
        ..ClusterConfig::default()
    };
    let mon = ClusterMonitor::manual(cfg.clone());
    for p in 1..=N_PEERS {
        mon.add_peer(p, peer_cfg).unwrap();
    }
    let all = |pred: fn(FdOutput) -> bool| {
        (1..=N_PEERS).all(|p| pred(mon.status(p).expect("registered").output))
    };

    // One life: a round of heartbeats (seq restarting at 1) every η
    // under seeded loss until every peer is trusted.
    let mut rng = StdRng::seed_from_u64(0x5709);
    let mut now = 0.0;
    let mut live = |incarnation: u64, now: &mut f64| {
        for seq in 1..=60 {
            if all(FdOutput::is_trust) {
                break;
            }
            *now += peer_cfg.eta;
            for p in 1..=N_PEERS {
                if rng.random::<f64>() >= LOSS {
                    mon.record_at_incarnated(p, *now, incarnation, Heartbeat::new(seq, *now));
                }
            }
            mon.advance_to(*now);
        }
        assert!(all(FdOutput::is_trust), "life {incarnation}: a peer never re-earned trust");
    };

    // Each life ends in a crash (silence) after its last round.
    for inc in 1..=CYCLES {
        live(inc, &mut now);
        now += peer_cfg.eta + peer_cfg.alpha + cfg.tick;
        mon.advance_to(now);
        assert!(all(FdOutput::is_suspect), "life {inc}: crash went undetected");
    }

    // While everyone is down, a flood of previous-life heartbeats with
    // huge sequence numbers arrives (delayed datagrams, a split-brain
    // replayer — the stale-resurrection attack). Nobody may come back up.
    for burst in 0..20u64 {
        now += 0.005;
        for p in 1..=N_PEERS {
            mon.record_at_incarnated(p, now, 1, Heartbeat::new(10_000 + burst, now));
        }
        mon.advance_to(now);
    }
    assert!(all(FdOutput::is_suspect), "stale-incarnation heartbeats resurrected a dead peer");

    // Final recovery: one more incarnation, and everyone must come back.
    let final_inc = CYCLES + 1;
    live(final_inc, &mut now);

    let stats = mon.stats();
    assert_eq!(stats.stale_incarnation_rejects, 20 * N_PEERS, "every stale heartbeat rejected");
    assert_eq!(stats.incarnation_resets, N_PEERS * final_inc, "one reset per peer per life");

    // Monitor restart: shutdown persists the snapshot; the next monitor
    // restores it and must report warm estimates immediately.
    mon.shutdown();
    let reborn = ClusterMonitor::manual(cfg);
    for p in 1..=N_PEERS {
        let st = reborn.status(p).expect("restored from snapshot");
        assert!(st.estimator_samples > 0, "peer {p} restored cold (0 estimator samples)");
        assert_eq!(st.incarnation, final_inc, "peer {p} lost its incarnation high-water mark");
    }
    reborn.shutdown();
    let _ = std::fs::remove_file(&snap);
}

/// Crash isolation: one of three peers crashes for good. It is suspected
/// within the detection bound; its siblings never are.
#[test]
fn crash_of_one_peer_leaves_its_siblings_trusted() {
    for seed in SEEDS {
        let crashed = peer(2, seed).plan(FaultPlan::new(seed).crash(FAULT));
        let s = Scenario::new(0.6, vec![peer(1, seed), crashed, peer(3, seed)]);
        let out = replay(&s);
        assert_detected(&s, &out, &s.peers[1], FAULT, s.horizon);
        for sibling in [1, 3] {
            let status = out.monitor.status(sibling).expect("registered");
            assert_eq!(status.counters.suspicions, 0, "seed {seed}: peer {sibling} suspected");
            assert!(status.output.is_trust(), "seed {seed}: peer {sibling}");
        }
    }
}
