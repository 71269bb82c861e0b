//! One flipped bit in a heartbeat frame must not fence a live peer out.
//!
//! A heartbeat whose incarnation reads higher than the peer's is a new
//! life: the monitor resets the peer to it and from then on rejects the
//! genuine heartbeats, whose incarnation is now stale. A bit flipped in
//! flight must therefore never reach `record_batch_at` as a heartbeat:
//! the frame check rejects the datagram in `decode_batch_into`, the
//! receive pump's decoder, and the peer goes on as if it had been lost.

use fd_cluster::wire::encode_batch;
use fd_cluster::{decode_batch_into, ClusterConfig, ClusterMonitor, HeartbeatEntry, PeerConfig};

const PEER: u64 = 7;
const ETA: f64 = 0.1;

fn heartbeat(seq: u64) -> HeartbeatEntry {
    HeartbeatEntry { peer: PEER, incarnation: 0, seq, send_time: seq as f64 * ETA }
}

/// What the receive pump does with one datagram that arrived at `now`:
/// decode it, then record what it held. Returns the entries accepted.
fn deliver(monitor: &ClusterMonitor, now: f64, frame: &[u8]) -> usize {
    let mut entries = Vec::new();
    decode_batch_into(frame, &mut entries);
    monitor.record_batch_at(now, &entries)
}

#[test]
fn a_frame_with_a_flipped_incarnation_bit_is_rejected_and_the_peer_stays_trusted() {
    let monitor = ClusterMonitor::manual(ClusterConfig::default());
    monitor.add_peer(PEER, PeerConfig::new(ETA, 2.0 * ETA)).expect("register");
    let arrival = |seq: u64| seq as f64 * ETA + 0.01;
    for seq in 1..=5 {
        assert_eq!(deliver(&monitor, arrival(seq), &encode_batch(&[heartbeat(seq)])), 1);
    }
    assert!(monitor.status(PEER).unwrap().output.is_trust());

    // A one-entry frame shares every column: the header word, then
    // peer, incarnation, seq and send time. Bit 40 of the incarnation
    // would make the peer's next life 2⁴⁰.
    let mut flipped = encode_batch(&[heartbeat(6)]);
    flipped[16 + 5] ^= 1;
    assert_eq!(deliver(&monitor, arrival(6), &flipped), 0, "the damaged frame is rejected");

    let accepted: usize = (7..=106)
        .map(|seq| deliver(&monitor, arrival(seq), &encode_batch(&[heartbeat(seq)])))
        .sum();
    monitor.advance_to(arrival(106));
    assert_eq!(accepted, 100, "every genuine heartbeat after the damaged frame is taken");
    let status = monitor.status(PEER).unwrap();
    assert!(status.output.is_trust());
    assert_eq!(status.counters.heartbeats, 105);
    let stats = monitor.stats();
    assert_eq!((stats.stale_incarnation_rejects, stats.incarnation_resets), (0, 0));
}
