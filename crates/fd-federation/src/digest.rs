//! Building, chunking and encoding partition digests.
//!
//! A digest is a node's compressed claim about its owned partition: one
//! 17-byte entry per peer (id, incarnation, trusted/degraded bits) plus
//! an aggregate [`DigestSummary`]. Anti-entropy gossip ships digests as
//! wire [`DigestFrame`]s (see `fd_cluster::wire`); a frame carries
//! at most [`MAX_DIGEST_BATCH`] entries, so larger partitions are
//! chunked into several frames sharing one `(origin, incarnation,
//! round)` identity. Deltas keep steady-state gossip small: a node
//! sends only entries that changed since its last round, with a periodic
//! *full refresh* (the `full` flag) letting receivers drop state for
//! peers that silently disappeared.

use fd_cluster::{
    encode_digest, ClusterMonitor, DigestEntry, DigestFrame, DigestSummary, PeerId,
    MAX_DIGEST_BATCH,
};
use std::collections::BTreeMap;

/// One node's digest of its owned partition for one gossip round,
/// before chunking.
#[derive(Debug, Clone)]
pub struct PartitionDigest {
    /// The digesting node.
    pub origin: u64,
    /// Its current incarnation.
    pub node_incarnation: u64,
    /// Gossip round counter (monotone per incarnation).
    pub round: u64,
    /// Harness-clock time the digest was taken.
    pub at: f64,
    /// Aggregate over the *whole* partition (not just the delta).
    pub summary: DigestSummary,
    /// Whether `entries` covers the whole partition (full refresh) or
    /// only changes since the previous round.
    pub full: bool,
    /// Per-peer claims, ascending by peer id.
    pub entries: Vec<DigestEntry>,
}

impl PartitionDigest {
    /// Splits the digest into wire frames of at most
    /// [`MAX_DIGEST_BATCH`] entries each. Every frame repeats the
    /// round identity and summary, so each is independently meaningful;
    /// an empty digest still produces one frame (the heartbeat of an
    /// idle node).
    pub fn frames(&self) -> Vec<DigestFrame> {
        let mut frames = Vec::new();
        let mut chunks = self.entries.chunks(MAX_DIGEST_BATCH);
        loop {
            let chunk = chunks.next().unwrap_or(&[]);
            frames.push(DigestFrame {
                origin: self.origin,
                node_incarnation: self.node_incarnation,
                round: self.round,
                at: self.at,
                summary: self.summary,
                full: self.full,
                entries: chunk.to_vec(),
            });
            if chunk.len() < MAX_DIGEST_BATCH {
                break;
            }
        }
        frames
    }

    /// The frames, encoded to wire bytes.
    pub fn encode(&self) -> Vec<Vec<u8>> {
        self.frames().iter().map(encode_digest).collect()
    }
}

/// A per-peer claim as held in a node's view of a remote partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerClaim {
    /// Highest incarnation the owner has seen for the peer.
    pub incarnation: u64,
    /// The owner's detector currently trusts the peer.
    pub trusted: bool,
    /// The owner's control plane runs the peer degraded.
    pub degraded: bool,
}

impl From<&DigestEntry> for PeerClaim {
    fn from(e: &DigestEntry) -> Self {
        Self { incarnation: e.incarnation, trusted: e.trusted, degraded: e.degraded }
    }
}

/// Reads the current per-peer claims of `monitor`'s whole partition,
/// ascending by peer id.
pub fn claims_of(monitor: &ClusterMonitor) -> BTreeMap<PeerId, PeerClaim> {
    let snap = monitor.snapshot();
    let mut peers: Vec<PeerId> = snap.trusted();
    peers.extend(snap.suspected());
    peers.sort_unstable();
    let mut claims = BTreeMap::new();
    for peer in peers {
        if let Some(status) = monitor.status(peer) {
            claims.insert(
                peer,
                PeerClaim {
                    incarnation: status.incarnation,
                    trusted: status.output.is_trust(),
                    degraded: status.qos_state == fd_cluster::QosState::Degraded,
                },
            );
        }
    }
    claims
}

/// Builds the round's digest from the current claims: the summary spans
/// everything, the entries carry either the whole partition (`full`) or
/// only the claims differing from `last_sent`.
pub fn digest_from_claims(
    origin: u64,
    node_incarnation: u64,
    round: u64,
    at: f64,
    claims: &BTreeMap<PeerId, PeerClaim>,
    last_sent: &BTreeMap<PeerId, PeerClaim>,
    full: bool,
) -> PartitionDigest {
    let peers = claims.len() as u32;
    let suspected = claims.values().filter(|c| !c.trusted).count() as u32;
    let degraded = claims.values().filter(|c| c.degraded).count() as u32;
    let entries: Vec<DigestEntry> = claims
        .iter()
        .filter(|(peer, claim)| full || last_sent.get(peer) != Some(claim))
        .map(|(peer, claim)| DigestEntry {
            peer: *peer,
            incarnation: claim.incarnation,
            trusted: claim.trusted,
            degraded: claim.degraded,
        })
        .collect();
    PartitionDigest {
        origin,
        node_incarnation,
        round,
        at,
        summary: DigestSummary { peers, suspected, degraded, conformance_ok: degraded == 0 },
        full,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claim(inc: u64, trusted: bool) -> PeerClaim {
        PeerClaim { incarnation: inc, trusted, degraded: false }
    }

    #[test]
    fn delta_only_ships_changes_and_summary_spans_everything() {
        let mut now: BTreeMap<PeerId, PeerClaim> = BTreeMap::new();
        now.insert(1, claim(0, true));
        now.insert(2, claim(3, false));
        now.insert(3, claim(0, true));
        let mut last = now.clone();
        last.insert(2, claim(2, true)); // peer 2 restarted and went suspect
        last.remove(&3); // peer 3 is new

        let d = digest_from_claims(10, 1, 5, 2.0, &now, &last, false);
        assert_eq!(d.summary.peers, 3);
        assert_eq!(d.summary.suspected, 1);
        let delta: Vec<PeerId> = d.entries.iter().map(|e| e.peer).collect();
        assert_eq!(delta, vec![2, 3]);

        let full = digest_from_claims(10, 1, 6, 2.5, &now, &last, true);
        assert_eq!(full.entries.len(), 3);
        assert!(full.full);
    }

    #[test]
    fn chunking_covers_all_entries_and_roundtrips() {
        let claims: BTreeMap<PeerId, PeerClaim> =
            (0..200).map(|p| (p, claim(p % 3, p % 2 == 0))).collect();
        let d = digest_from_claims(7, 2, 1, 1.0, &claims, &BTreeMap::new(), true);
        let frames = d.frames();
        assert_eq!(frames.len(), 3, "200 entries chunk into 83+83+34");
        let total: usize = frames.iter().map(|f| f.entries.len()).sum();
        assert_eq!(total, 200);
        for f in &frames {
            assert_eq!(f.round, 1);
            assert_eq!(f.summary, d.summary);
            let bytes = encode_digest(f);
            match fd_cluster::wire::decode_frame(&bytes) {
                Some(fd_cluster::Frame::Digest(back)) => assert_eq!(back.entries, f.entries),
                other => panic!("digest frame decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn empty_partition_still_heartbeats() {
        let d = digest_from_claims(7, 1, 3, 9.0, &BTreeMap::new(), &BTreeMap::new(), false);
        let frames = d.frames();
        assert_eq!(frames.len(), 1);
        assert!(frames[0].entries.is_empty());
        assert_eq!(frames[0].round, 3);
        assert_eq!(d.encode().len(), 1);
    }
}
