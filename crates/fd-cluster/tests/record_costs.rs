//! What `record_batch_at` costs an entry, on a manual monitor (no
//! threads, no sockets, no wall clock): the registry's share of the
//! ingest path, apart from receive and decode.
//!
//! `cargo test --release -q -p fd-cluster --test record_costs -- --ignored --nocapture`

use fd_cluster::{ClusterConfig, ClusterMonitor, HeartbeatEntry, PeerConfig, PeerId};
use std::hint::black_box;
use std::time::Instant;

/// First receipt time, cluster-clock seconds.
const BASE: f64 = 1_000.0;
/// Receipt times of consecutive batches lie this far apart.
const STEP: f64 = 1e-4;
/// Entries recorded per timed repetition.
const ENTRIES: usize = 2_000_000;
/// Timed repetitions; the best is reported.
const REPS: usize = 5;

/// Peers `0..peers` on a manual monitor, `η = 60 s` and `α = 120 s` as
/// `flood_ingest` registers them, so nothing expires while the probe runs.
fn monitor(peers: PeerId) -> ClusterMonitor {
    let m = ClusterMonitor::manual(ClusterConfig::default());
    for p in 0..peers {
        m.add_peer(p, PeerConfig::new(60.0, 120.0)).unwrap();
    }
    m
}

/// Best-of-[`REPS`] ns an entry of `batch`-entry batches that name the
/// peers round robin, each entry a fresh heartbeat, after one untimed
/// repetition that fills every estimation window. Only the calls are
/// timed, two clock reads a batch (≈ 1 ns an entry at 32 entries).
fn ns_per_entry(peers: PeerId, batch: usize) -> f64 {
    let m = monitor(peers);
    let batches = ENTRIES / batch;
    let blank = HeartbeatEntry { peer: 0, incarnation: 0, seq: 0, send_time: 0.0 };
    let mut entries = vec![blank; batch];
    let (mut next, mut now) = (0u64, BASE);
    let mut run = || {
        let mut spent = 0;
        for _ in 0..batches {
            now += STEP;
            for e in &mut entries {
                let peer = next % peers;
                *e = HeartbeatEntry { peer, incarnation: 0, seq: next / peers + 1, send_time: now };
                next += 1;
            }
            let t = Instant::now();
            let accepted = black_box(m.record_batch_at(now, black_box(&entries)));
            spent += t.elapsed().as_nanos();
            assert_eq!(accepted, batch);
        }
        spent as f64 / (batches * batch) as f64
    };
    run();
    (0..REPS).map(|_| run()).fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "timing probe: run it in release"]
fn record_costs() {
    // One `flood_ingest` receive batch (28 frames of `MAX_BATCH` = 128
    // entries) over peers whose state fits L1 and L2, then `steady_detect`'s
    // scale with short batches.
    for (peers, batch) in [(32, 3_584), (512, 3_584), (20_000, 32)] {
        let ns = ns_per_entry(peers, batch);
        println!("record_costs: {batch:5}-entry batches, {peers:6} peers  {ns:6.2} ns/entry");
    }
}
