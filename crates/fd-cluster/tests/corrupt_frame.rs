//! One flipped bit in a heartbeat frame must not fence a live peer out.
//!
//! A heartbeat whose incarnation reads higher than the peer's is a new
//! life: the monitor resets the peer to it and from then on rejects the
//! genuine heartbeats, whose incarnation is now stale. A bit flipped in
//! flight must therefore never reach the monitor as a heartbeat: the
//! frame check rejects the datagram in `ingest_frames`, the one path
//! from bytes to the monitor, and the peer goes on as if it had been
//! lost.

use fd_cluster::wire::encode_batch;
use fd_cluster::{
    ingest_frames, BatchCounts, ClusterConfig, ClusterMonitor, HeartbeatEntry, PeerConfig,
};

const PEER: u64 = 7;
const ETA: f64 = 0.1;

fn heartbeat(seq: u64) -> HeartbeatEntry {
    HeartbeatEntry { peer: PEER, incarnation: 0, seq, send_time: seq as f64 * ETA }
}

#[test]
fn a_frame_with_a_flipped_incarnation_bit_is_rejected_and_the_peer_stays_trusted() {
    let monitor = ClusterMonitor::manual(ClusterConfig::default());
    monitor.add_peer(PEER, PeerConfig::new(ETA, 2.0 * ETA)).expect("register");
    let arrival = |seq: u64| seq as f64 * ETA + 0.01;
    // One datagram that arrived at `now`, ingested as the receive pump
    // ingests a batch.
    let deliver = |now, frame: &[u8]| ingest_frames(&monitor, now, [frame], &mut Vec::new(), |n| n);
    for seq in 1..=5 {
        assert_eq!(deliver(arrival(seq), &encode_batch(&[heartbeat(seq)])).entries, 1);
    }
    assert!(monitor.status(PEER).unwrap().output.is_trust());

    // A one-entry frame shares every column: the header word, then
    // peer, incarnation, seq and send time. Bit 40 of the incarnation
    // would make the peer's next life 2⁴⁰.
    let mut flipped = encode_batch(&[heartbeat(6)]);
    flipped[16 + 5] ^= 1;
    let rejected = BatchCounts { rejected: 1, ..BatchCounts::default() };
    assert_eq!(deliver(arrival(6), &flipped), rejected, "the damaged frame is rejected");

    let ingested: u64 = (7..=106)
        .map(|seq| deliver(arrival(seq), &encode_batch(&[heartbeat(seq)])).entries)
        .sum();
    monitor.advance_to(arrival(106));
    assert_eq!(ingested, 100, "every genuine heartbeat after the damaged frame is ingested");
    let status = monitor.status(PEER).unwrap();
    assert!(status.output.is_trust());
    assert_eq!(status.counters.heartbeats, 105);
    let stats = monitor.stats();
    assert_eq!((stats.stale_incarnation_rejects, stats.incarnation_resets), (0, 0));
}
