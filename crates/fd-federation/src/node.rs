//! One federation monitor node: an embedded [`ClusterMonitor`] over its
//! owned peer partition, a second monitor watching the *other monitor
//! nodes* through the same NFD-E machinery, per-remote digest state,
//! and the deterministic rendezvous failover rule.
//!
//! The design reuses the paper's single pairwise abstraction twice:
//! peers are watched by their owning node exactly as in `fd-cluster`,
//! and monitor nodes watch each other by treating *digest receipt* as a
//! heartbeat — every accepted gossip frame from node `n` is recorded
//! into the node-watch monitor as `(peer = n, incarnation =
//! node_incarnation, seq = round)`. A node that stops gossiping runs
//! out of freshness like any crashed process, and NFD-E's `T_D` bound
//! applies to *node* failure detection with the gossip interval as `η`.
//!
//! The gossip round itself lives here too, as the two halves of one
//! step over addressed wire bytes: [`FederationNode::outbound`] is
//! everything the node sends in a round and
//! [`FederationNode::handle`] is what it does with one decoded frame
//! (and what it answers). A fabric — the in-process
//! [`Federation`](crate::Federation) harness, a
//! [`GossipTransport`](crate::GossipTransport) over UDP — only moves
//! the bytes.

use crate::digest::{claims_of, digest_from_claims, PartitionDigest, PeerClaim};
use crate::hash::{owner, splitmix64, NodeId};
use crate::metrics::FedMetrics;
use crate::view::{FedChange, FedEvent, LinkState};
use fd_cluster::backoff::restart_delay;
use fd_cluster::{
    encode_digest, encode_relay, encode_repair, ClusterConfig, ClusterMonitor, ClusterSnapshot,
    DigestFrame, DigestSummary, Frame, PeerConfig, PeerId, RepairRequest, RuntimeError,
    SnapshotOrigin, MAX_DIGEST_BATCH,
};
use fd_core::Heartbeat;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// A remote node's partition as last gossiped: identity, freshness and
/// per-peer claims.
#[derive(Debug, Clone)]
pub struct RemotePartition {
    /// The remote's incarnation when it sent the digest.
    pub node_incarnation: u64,
    /// Highest gossip round merged.
    pub round: u64,
    /// Remote's clock when the digest was taken.
    pub at: f64,
    /// The remote's aggregate summary.
    pub summary: DigestSummary,
    /// Per-peer claims merged from its digests.
    pub claims: BTreeMap<PeerId, PeerClaim>,
    /// Receiver-clock time a digest last arrived straight from the
    /// origin (`-∞` before first direct contact).
    pub last_direct: f64,
    /// Receiver-clock time a relayed copy last arrived (`-∞` before any
    /// relay).
    pub last_relayed: f64,
    /// Hops the freshest merged information travelled (0 = direct).
    pub hop: u8,
}

impl Default for RemotePartition {
    fn default() -> Self {
        Self {
            node_incarnation: 0,
            round: 0,
            at: 0.0,
            summary: DigestSummary::default(),
            claims: BTreeMap::new(),
            last_direct: f64::NEG_INFINITY,
            last_relayed: f64::NEG_INFINITY,
            hop: 0,
        }
    }
}

/// How a digest frame reached this node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// Straight from the origin's transport.
    Direct,
    /// Forwarded by `relayer` after `hop` hops (≥ 1).
    Relayed {
        /// The node that forwarded the frame.
        relayer: NodeId,
        /// Hops the frame has travelled.
        hop: u8,
    },
}

/// What the ingest path did with one digest frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestOutcome {
    /// New information merged into the remote partition view.
    Merged,
    /// Merged, but a round-number gap on the direct path revealed
    /// missed deltas — a NACK repair is now armed.
    MergedNeedsRepair,
    /// Everything in the frame was already known; the view is
    /// unchanged (duplicate or reordered re-delivery).
    Duplicate,
    /// Older incarnation or round than already merged — discarded so a
    /// late frame can never regress the view.
    Stale,
    /// The summary's entry count disagrees with the decoded body —
    /// wire damage or a buggy sender; discarded and counted.
    Inconsistent,
    /// The node's own frame echoed back; ignored.
    SelfFrame,
    /// A relayed frame dropped by policy: hop cap exceeded, relaying
    /// disabled, self-relayed, or an echo of this node's own digest.
    RelayDropped,
}

impl DigestOutcome {
    /// Whether the frame was accepted (merged or already known).
    pub fn accepted(self) -> bool {
        matches!(self, Self::Merged | Self::MergedNeedsRepair | Self::Duplicate)
    }
}

/// Per-origin NACK repair state: armed by a detected gap, paced by the
/// shared supervision backoff, disarmed by the next full refresh.
#[derive(Debug, Clone, Copy)]
struct RepairState {
    attempts: u64,
    next_at: f64,
}

/// Detector parameters every node watches the other monitor nodes
/// with; `eta` is the one-second gossip interval.
pub const NODE_WATCH: PeerConfig = PeerConfig::new(1.0, 3.0);

/// Until this harness-clock time, nodes never gossiped from are still
/// presumed alive — failover must not fire before first contact had a
/// chance (the bootstrap-grace rule).
pub const BOOTSTRAP_GRACE: f64 = 10.0;

/// Maximum hops a relayed digest may travel.
const MAX_RELAY_HOPS: u8 = 2;

/// Seconds without a digest before a link drops a freshness tier
/// (Direct → Relayed → Cut): 2.5 gossip intervals.
const LINK_TIMEOUT: f64 = 2.5;

/// Base and cap of the NACK repair backoff.
const REPAIR_BACKOFF_BASE: Duration = Duration::from_secs(1);
const REPAIR_BACKOFF_CAP: Duration = Duration::from_secs(4);

/// Per-node knobs (the federation harness hands every node its
/// [`FederationConfig::node`](crate::FederationConfig::node)).
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// Detector parameters for owned/adopted peers.
    pub peer: PeerConfig,
    /// Every this many rounds, gossip a full refresh instead of a delta.
    pub full_refresh_every: u64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self { peer: PeerConfig::new(1.0, 3.0), full_refresh_every: 8 }
    }
}

/// One monitor node of the federation tier.
pub struct FederationNode {
    id: NodeId,
    incarnation: u64,
    cfg: NodeConfig,
    /// The owned-partition monitor.
    monitor: ClusterMonitor,
    /// Monitor-of-monitors: watches the *other* node ids.
    node_watch: ClusterMonitor,
    /// All node ids in the federation (including self), ascending.
    membership: Vec<NodeId>,
    /// Peers this node currently owns.
    owned: BTreeMap<PeerId, PeerClaim>,
    /// Claims as of the last digest sent (delta baseline).
    last_sent: BTreeMap<PeerId, PeerClaim>,
    /// Gossip round counter.
    round: u64,
    /// Last merged digest per remote node.
    remote: BTreeMap<NodeId, RemotePartition>,
    /// Armed NACK repairs, by origin.
    repair: BTreeMap<NodeId, RepairState>,
    /// Jitter source for repair backoff, seeded from the node id so
    /// a fleet of receivers that lost the same frame de-correlates
    /// deterministically.
    repair_rng: StdRng,
    metrics: Arc<FedMetrics>,
}

impl std::fmt::Debug for FederationNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FederationNode")
            .field("id", &self.id)
            .field("incarnation", &self.incarnation)
            .field("owned", &self.owned.len())
            .field("round", &self.round)
            .finish()
    }
}

impl FederationNode {
    /// Builds the node and its two monitors; no thread is started (the
    /// `Result` predates that and is always `Ok`). `membership` is the
    /// full node id set (self included); the node-watch monitor
    /// registers every *other* id immediately, so an unreachable node is
    /// eventually suspected even if it never says a word.
    pub fn spawn(
        id: NodeId,
        incarnation: u64,
        membership: &[NodeId],
        cfg: NodeConfig,
        metrics: Arc<FedMetrics>,
    ) -> Result<Self, RuntimeError> {
        let mut membership: Vec<NodeId> = membership.to_vec();
        membership.sort_unstable();
        membership.dedup();
        assert!(membership.contains(&id), "membership must include the node itself");
        // Manual monitors: all timing flows through record_at/advance_to
        // on the harness clock, so every transition is a deterministic
        // function of the scripted inputs — what lets fd-smc replay
        // federation scenarios seed-exactly — and the node owns no thread.
        let monitor_cfg = || ClusterConfig {
            event_capacity: 8192,
            origin: Some(SnapshotOrigin { node: id, incarnation }),
            ..ClusterConfig::default()
        };
        let monitor = ClusterMonitor::manual(monitor_cfg());
        let node_watch = ClusterMonitor::manual(monitor_cfg());
        for &n in membership.iter().filter(|&&n| n != id) {
            node_watch
                .add_peer(n, NODE_WATCH)
                .expect("deduplicated membership cannot collide");
        }
        Ok(Self {
            id,
            incarnation,
            cfg,
            monitor,
            node_watch,
            membership,
            owned: BTreeMap::new(),
            last_sent: BTreeMap::new(),
            round: 0,
            remote: BTreeMap::new(),
            repair: BTreeMap::new(),
            repair_rng: StdRng::seed_from_u64(splitmix64(id ^ 0x5eed_9e37_79b9_7f4a)),
            metrics,
        })
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's incarnation.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The owned-partition monitor (for exporter mounting and QoS
    /// queries).
    pub fn monitor(&self) -> &ClusterMonitor {
        &self.monitor
    }

    /// The monitor-of-monitors.
    #[cfg(test)]
    fn node_watch(&self) -> &ClusterMonitor {
        &self.node_watch
    }

    /// Peers this node currently owns, ascending.
    pub fn owned_peers(&self) -> Vec<PeerId> {
        self.owned.keys().copied().collect()
    }

    /// Whether this node currently owns `peer`.
    pub fn owns(&self, peer: PeerId) -> bool {
        self.owned.contains_key(&peer)
    }

    /// The last merged digest state for `node`, if any was accepted.
    pub fn remote_partition(&self, node: NodeId) -> Option<&RemotePartition> {
        self.remote.get(&node)
    }

    /// Takes cold ownership of `peer` (initial registration placement).
    ///
    /// # Errors
    ///
    /// Propagates [`fd_cluster::ClusterError`] (duplicate peer, bad
    /// parameters).
    pub fn assign_peer(&mut self, peer: PeerId) -> Result<(), fd_cluster::ClusterError> {
        self.monitor.add_peer(peer, self.cfg.peer)?;
        self.owned.insert(peer, PeerClaim { incarnation: 0, trusted: false, degraded: false });
        Ok(())
    }

    /// Records a heartbeat from an owned peer at harness-clock `now`.
    /// Returns `false` (and does nothing) for peers this node does not
    /// own — the router's misdelivery, not the peer's traffic.
    pub fn deliver(&mut self, peer: PeerId, now: f64, incarnation: u64, hb: Heartbeat) -> bool {
        if !self.owned.contains_key(&peer) {
            return false;
        }
        self.monitor.record_at_incarnated(peer, now, incarnation, hb)
    }

    /// Advances both monitors to harness-clock `now`, expiring freshness
    /// deterministically. Returns how many membership events fired.
    pub fn advance(&mut self, now: f64) -> usize {
        self.monitor.advance_to(now) + self.node_watch.advance_to(now)
    }

    /// Produces this round's digest of the owned partition: a delta
    /// against the last round, or a full refresh every
    /// [`NodeConfig::full_refresh_every`] rounds (and always on round 1,
    /// so a fresh incarnation re-announces everything it owns).
    pub fn gossip_digest(&mut self, now: f64) -> PartitionDigest {
        let refresh = self.cfg.full_refresh_every.max(1);
        let full = self.round == 0 || (self.round + 1).is_multiple_of(refresh);
        let digest = self.digest_now(now, full);
        self.metrics.gossip_rounds.fetch_add(1, Ordering::Relaxed);
        digest
    }

    /// Produces an unconditional full-refresh digest (a new round) —
    /// the anti-entropy answer to a NACK repair request.
    pub fn full_refresh_digest(&mut self, now: f64) -> PartitionDigest {
        self.digest_now(now, true)
    }

    fn digest_now(&mut self, now: f64, full: bool) -> PartitionDigest {
        self.round += 1;
        let claims = claims_of(&self.monitor);
        let digest = digest_from_claims(
            self.id,
            self.incarnation,
            self.round,
            now,
            &claims,
            &self.last_sent,
            full,
        );
        self.last_sent = claims.clone();
        self.owned = claims;
        digest
    }

    /// A direct frame through
    /// [`receive_digest_via`](Self::receive_digest_via): whether it was
    /// accepted.
    #[cfg(test)]
    fn receive_digest(&mut self, frame: &DigestFrame, now: f64) -> bool {
        self.receive_digest_via(frame, now, Via::Direct).accepted()
    }

    /// Merges a received digest frame that arrived along `via`, and
    /// reports the outcome. Acceptance doubles as a *node heartbeat*: the
    /// frame's round number is the sequence and the sender's incarnation
    /// rides the heartbeat incarnation machinery, so a restarted node
    /// resets its watch state exactly like a restarted peer. Frames from
    /// an older incarnation or an already-merged round of the same
    /// incarnation are rejected and counted, except same-round frames —
    /// chunked digests legitimately span several frames of one round.
    /// Relayed frames obey the hop cap and may not be this node's own
    /// digest echoed back; accepted ones still count as a node heartbeat
    /// for the *origin* — the property that keeps a relay-reachable node
    /// out of false suspicion.
    pub fn receive_digest_via(&mut self, frame: &DigestFrame, now: f64, via: Via) -> DigestOutcome {
        if frame.origin == self.id {
            if let Via::Relayed { .. } = via {
                self.metrics.relay_drops.fetch_add(1, Ordering::Relaxed);
                return DigestOutcome::RelayDropped;
            }
            return DigestOutcome::SelfFrame;
        }
        if let Via::Relayed { relayer, hop } = via {
            if relayer == self.id || hop == 0 || hop > MAX_RELAY_HOPS {
                self.metrics.relay_drops.fetch_add(1, Ordering::Relaxed);
                return DigestOutcome::RelayDropped;
            }
        }
        // Summary/body consistency: the entry count may never exceed the
        // declared partition size, and an unchunked full refresh must
        // carry exactly its declared partition. (A *chunked* full
        // refresh — summary.peers > MAX_DIGEST_BATCH — legitimately
        // splits its entries across frames, so only per-frame bounds
        // apply there.)
        let n = frame.entries.len() as u32;
        if n > frame.summary.peers
            || (frame.full
                && frame.summary.peers <= MAX_DIGEST_BATCH as u32
                && n != frame.summary.peers)
        {
            self.metrics.summary_rejects.fetch_add(1, Ordering::Relaxed);
            return DigestOutcome::Inconsistent;
        }
        let slot = self.remote.entry(frame.origin).or_default();
        let stale = frame.node_incarnation < slot.node_incarnation
            || (frame.node_incarnation == slot.node_incarnation && frame.round < slot.round);
        if stale {
            self.metrics.stale_digests.fetch_add(1, Ordering::Relaxed);
            return DigestOutcome::Stale;
        }
        let duplicate = frame.node_incarnation == slot.node_incarnation
            && frame.round == slot.round
            && frame
                .entries
                .iter()
                .all(|e| slot.claims.get(&e.peer) == Some(&PeerClaim::from(e)));
        // A direct delta whose round number skips past what was merged
        // reveals lost frames: the skipped rounds' changes are gone for
        // good until a full refresh — arm a NACK repair. Relayed frames
        // never arm repair: the origin may be unreachable directly, and
        // that is the relay path's job to cover.
        let gap = via == Via::Direct
            && !frame.full
            && !duplicate
            && (frame.node_incarnation != slot.node_incarnation
                || frame.round > slot.round + 1);
        if duplicate {
            self.metrics.dup_digests.fetch_add(1, Ordering::Relaxed);
        } else {
            if frame.node_incarnation > slot.node_incarnation {
                // New life of the remote: everything it claimed before
                // died with it.
                slot.claims.clear();
            } else if frame.full && frame.round > slot.round && via == Via::Direct {
                // A full refresh starts a new authoritative claim set;
                // same-round chunks then accumulate into it. Relayed
                // frames only ever *add* knowledge (freshest-wins
                // union): a relayer may know less than this node does,
                // and forgetting on its account would regress the view.
                slot.claims.clear();
            }
            slot.node_incarnation = frame.node_incarnation;
            slot.round = frame.round;
            slot.at = frame.at;
            slot.summary = frame.summary;
            for e in &frame.entries {
                slot.claims.insert(e.peer, PeerClaim::from(e));
            }
            self.metrics.digests_received.fetch_add(1, Ordering::Relaxed);
            self.metrics.digest_entries.fetch_add(frame.entries.len() as u64, Ordering::Relaxed);
        }
        match via {
            Via::Direct => {
                slot.last_direct = now;
                slot.hop = 0;
            }
            Via::Relayed { hop, .. } => {
                slot.last_relayed = now;
                if !duplicate || hop < slot.hop {
                    slot.hop = hop;
                }
                self.metrics.relayed_digests.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Digest receipt is a node heartbeat — relayed receipt too. The
        // underlying detector only refreshes on a strictly increasing
        // round, so re-relayed copies of a dead node's final round can
        // never forge its liveness.
        self.node_watch.record_at_incarnated(
            frame.origin,
            now,
            frame.node_incarnation,
            Heartbeat::new(frame.round, frame.at),
        );
        if via == Via::Direct {
            if frame.full {
                // A full refresh repairs everything: disarm.
                self.repair.remove(&frame.origin);
            } else if gap {
                self.metrics.seq_gap_repairs.fetch_add(1, Ordering::Relaxed);
                self.repair
                    .entry(frame.origin)
                    .or_insert(RepairState { attempts: 0, next_at: now });
                return DigestOutcome::MergedNeedsRepair;
            }
        }
        if duplicate {
            DigestOutcome::Duplicate
        } else {
            DigestOutcome::Merged
        }
    }

    /// NACK repair requests due at `now`: one per origin with an armed
    /// gap whose backoff delay has elapsed. Each emission re-arms the
    /// next attempt further out (bounded exponential + jitter via the
    /// shared supervision backoff), so a cut link cannot trigger a
    /// repair storm.
    fn due_repairs(&mut self, now: f64) -> Vec<RepairRequest> {
        let mut out = Vec::new();
        for (&origin, st) in self.repair.iter_mut() {
            if now < st.next_at {
                continue;
            }
            let (inc, round) = self
                .remote
                .get(&origin)
                .map(|s| (s.node_incarnation, s.round))
                .unwrap_or((0, 0));
            out.push(RepairRequest {
                requester: self.id,
                target: origin,
                target_incarnation: inc,
                have_round: round,
                at: now,
            });
            st.attempts += 1;
            let delay = restart_delay(
                &mut self.repair_rng,
                st.attempts,
                REPAIR_BACKOFF_BASE,
                REPAIR_BACKOFF_CAP,
            );
            st.next_at = now + delay.as_secs_f64();
            self.metrics.repair_requests.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Answers a repair request addressed to this node with a fresh
    /// full-refresh digest; requests for other targets return `None`
    /// (misrouted traffic).
    fn receive_repair(&mut self, req: &RepairRequest, now: f64) -> Option<PartitionDigest> {
        if req.target != self.id {
            return None;
        }
        self.metrics.repairs_served.fetch_add(1, Ordering::Relaxed);
        Some(self.full_refresh_digest(now))
    }

    /// Digests this node can forward on behalf of origins it has fresh
    /// knowledge of, as `(hop, frame)` pairs — hop already incremented
    /// for the forwarded leg. Knowledge older than the link timeout is
    /// not relayed (a dead origin's last words must age out, not echo
    /// around the federation), and the hop cap bounds transitive chains.
    fn relay_frames(&self, now: f64) -> Vec<(u8, DigestFrame)> {
        let mut out = Vec::new();
        for (&origin, slot) in &self.remote {
            if slot.node_incarnation == 0 && slot.round == 0 {
                continue;
            }
            let freshest = slot.last_direct.max(slot.last_relayed);
            if now - freshest > LINK_TIMEOUT {
                continue;
            }
            let hop = slot.hop.saturating_add(1);
            if hop > MAX_RELAY_HOPS {
                continue;
            }
            // Rebuild a self-consistent digest of everything this node
            // knows about the origin's partition: a delta against
            // nothing, so every claim rides and `full` stays false —
            // relayed knowledge merges additively at the receiver.
            let digest = digest_from_claims(
                origin,
                slot.node_incarnation,
                slot.round,
                slot.at,
                &slot.claims,
                &BTreeMap::new(),
                false,
            );
            for frame in digest.frames() {
                out.push((hop, frame));
            }
        }
        out
    }

    /// Every *other* member, ascending — the addressees of a round.
    fn others(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.membership.iter().copied().filter(move |&n| n != self.id)
    }

    /// Everything this node puts on the wire in the gossip round at
    /// `now`, as `(destination, encoded frame)` pairs in send order:
    /// [`digest_outbound`](Self::digest_outbound), then
    /// [`relay_outbound`](Self::relay_outbound), then
    /// [`repair_outbound`](Self::repair_outbound). A fabric that
    /// delivers synchronously (the in-process harness) calls the three
    /// phases itself, so that relays are computed after this round's
    /// digests were merged; a datagram fabric sends `outbound` as is.
    pub fn outbound(&mut self, now: f64) -> Vec<(NodeId, Vec<u8>)> {
        let mut out = self.digest_outbound(now);
        out.extend(self.relay_outbound(now));
        out.extend(self.repair_outbound(now));
        out
    }

    /// This round's digest ([`gossip_digest`](Self::gossip_digest)),
    /// chunked and encoded, addressed to every other member — dead
    /// ones included: the sender cannot know, and a frame toward a
    /// crashed node is the paper's lost message. `digests_sent` counts
    /// one per frame and destination.
    pub fn digest_outbound(&mut self, now: f64) -> Vec<(NodeId, Vec<u8>)> {
        let frames = self.gossip_digest(now).encode();
        let out: Vec<(NodeId, Vec<u8>)> = self
            .others()
            .flat_map(|to| frames.iter().map(move |bytes| (to, bytes.clone())))
            .collect();
        self.metrics.digests_sent.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// This node's fresh knowledge of other partitions as kind-4 relay
    /// frames, addressed to every other member but the frame's origin
    /// (it knows its own partition).
    pub fn relay_outbound(&self, now: f64) -> Vec<(NodeId, Vec<u8>)> {
        let mut out = Vec::new();
        for (hop, frame) in self.relay_frames(now) {
            let bytes = encode_relay(self.id, hop, &encode_digest(&frame));
            let to = self.others().filter(|&to| to != frame.origin);
            out.extend(to.map(|to| (to, bytes.clone())));
        }
        out
    }

    /// The NACK repair requests due at `now` as kind-3 frames, each
    /// addressed to the origin whose rounds went missing.
    pub fn repair_outbound(&mut self, now: f64) -> Vec<(NodeId, Vec<u8>)> {
        self.due_repairs(now).iter().map(|req| (req.target, encode_repair(req))).collect()
    }

    /// Applies one decoded frame that arrived at `now` and returns the
    /// frames to send in answer. A digest is merged as heard directly, a
    /// relayed digest under the relay rules of
    /// [`receive_digest_via`](Self::receive_digest_via); a repair
    /// request for this node is answered with the frames of one
    /// full-refresh digest, all addressed to the requester. Heartbeat
    /// and control frames are not gossip: nothing happens.
    pub fn handle(&mut self, frame: &Frame, now: f64) -> Vec<(NodeId, Vec<u8>)> {
        match frame {
            Frame::Digest(digest) => {
                self.receive_digest_via(digest, now, Via::Direct);
            }
            Frame::Relayed(r) => {
                let via = Via::Relayed { relayer: r.relayer, hop: r.hop };
                self.receive_digest_via(&r.digest, now, via);
            }
            Frame::Repair(req) => {
                if let Some(refresh) = self.receive_repair(req, now) {
                    return refresh.encode().into_iter().map(|b| (req.requester, b)).collect();
                }
            }
            Frame::Heartbeats(_) | Frame::Control(_) => {}
        }
        Vec::new()
    }

    /// This node's judgement of its gossip link to `target`: fed
    /// directly within the timeout → `Direct`; only relayed copies
    /// arriving → `Relayed`; neither → `Cut`.
    pub fn link_state(&self, target: NodeId, now: f64) -> LinkState {
        if target == self.id {
            return LinkState::Direct;
        }
        match self.remote.get(&target) {
            Some(slot) if now - slot.last_direct <= LINK_TIMEOUT => LinkState::Direct,
            Some(slot) if now - slot.last_relayed <= LINK_TIMEOUT => LinkState::Relayed,
            _ => LinkState::Cut,
        }
    }

    /// Link judgements toward every *other* member, ascending by id.
    pub fn link_states(&self, now: f64) -> Vec<(NodeId, LinkState)> {
        self.others().map(|n| (n, self.link_state(n, now))).collect()
    }

    /// The node ids this node currently believes alive (self always
    /// included): a node is dead only when the node-watch detector
    /// suspects it *and* the bootstrap-grace rule allows the verdict —
    /// a node never heard from is presumed alive until
    /// [`BOOTSTRAP_GRACE`], because "no digest yet" at
    /// startup is indistinguishable from "gossip not wired up yet".
    pub fn alive_nodes(&self, now: f64) -> Vec<NodeId> {
        self.membership
            .iter()
            .copied()
            .filter(|&n| {
                if n == self.id {
                    return true;
                }
                match self.node_watch.status(n) {
                    None => false,
                    Some(st) => {
                        if st.output.is_trust() {
                            true
                        } else {
                            st.counters.heartbeats == 0 && now < BOOTSTRAP_GRACE
                        }
                    }
                }
            })
            .collect()
    }

    /// Whether this node's picture of the federation is complete: it
    /// holds the partition of every *other* node in `alive` at the
    /// incarnation given there, and its own partition plus their claims
    /// are exactly `universe` (ascending).
    pub fn view_covers(&self, alive: &[(NodeId, u64)], universe: &[PeerId]) -> bool {
        let mut known = self.owned_peers();
        for &(other, incarnation) in alive.iter().filter(|(n, _)| *n != self.id) {
            match self.remote.get(&other) {
                Some(part) if part.node_incarnation == incarnation => {
                    known.extend(part.claims.keys().copied());
                }
                _ => return false,
            }
        }
        known.sort_unstable();
        known.dedup();
        known == universe
    }

    /// Re-derives partition ownership over the currently-alive node set
    /// and applies the difference:
    ///
    /// * **adopt** — every peer known from remote digests whose
    ///   rendezvous owner among the alive nodes is *this* node and that
    ///   this node does not own yet is registered warm via
    ///   [`ClusterMonitor::add_peer_warm`], seeded with the highest
    ///   gossiped incarnation so heartbeats from the peer's previous
    ///   life cannot refresh trust under the new owner;
    /// * **release** — an owned peer whose rendezvous owner is some
    ///   other alive node (its original owner restarted, or membership
    ///   healed) is removed here, but only once that owner's latest
    ///   digest *claims* the peer. Adopt eagerly, release
    ///   conservatively: the handoff briefly double-monitors the peer
    ///   instead of ever leaving it unmonitored, and since deltas
    ///   cannot retract, the rightful owner can only learn of the peer
    ///   while someone still gossips it.
    ///
    /// Returns the federation events describing what moved.
    pub fn rebalance(&mut self, now: f64) -> Vec<FedEvent> {
        let alive = self.alive_nodes(now);
        let mut events = Vec::new();

        // Adoption: scan remote claims (sorted: deterministic order).
        let mut to_adopt: BTreeMap<PeerId, (u64, NodeId)> = BTreeMap::new();
        for (&origin, part) in &self.remote {
            for (&peer, claim) in &part.claims {
                if self.owned.contains_key(&peer) {
                    continue;
                }
                if owner(&alive, peer) != Some(self.id) {
                    continue;
                }
                let slot = to_adopt.entry(peer).or_insert((claim.incarnation, origin));
                if claim.incarnation >= slot.0 {
                    *slot = (claim.incarnation, origin);
                }
            }
        }
        for (peer, (incarnation, from)) in to_adopt {
            if self.monitor.add_peer_warm(peer, self.cfg.peer, incarnation).is_ok() {
                self.owned
                    .insert(peer, PeerClaim { incarnation, trusted: false, degraded: false });
                self.metrics.peers_adopted.fetch_add(1, Ordering::Relaxed);
                events.push(FedEvent {
                    at: now,
                    node: self.id,
                    change: FedChange::PeerAdopted { peer, from },
                });
            }
        }

        // Release: ownership moved to another alive node AND that node
        // already claims the peer in its gossiped digest.
        let released: Vec<(PeerId, NodeId)> = self
            .owned
            .keys()
            .filter_map(|&peer| match owner(&alive, peer) {
                Some(to)
                    if to != self.id
                        && self
                            .remote
                            .get(&to)
                            .is_some_and(|p| p.claims.contains_key(&peer)) =>
                {
                    Some((peer, to))
                }
                _ => None,
            })
            .collect();
        for (peer, to) in released {
            if self.monitor.remove_peer(peer) {
                self.owned.remove(&peer);
                self.metrics.peers_released.fetch_add(1, Ordering::Relaxed);
                events.push(FedEvent {
                    at: now,
                    node: self.id,
                    change: FedChange::PeerReleased { peer, to },
                });
            }
        }
        self.metrics.rebalances.fetch_add(1, Ordering::Relaxed);
        events
    }

    /// Point-in-time view of the owned partition.
    pub fn local_snapshot(&self) -> ClusterSnapshot {
        self.monitor.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> NodeConfig {
        NodeConfig { full_refresh_every: 4, ..NodeConfig::default() }
    }

    fn spawn_node(id: NodeId, membership: &[NodeId]) -> FederationNode {
        FederationNode::spawn(id, 1, membership, test_cfg(), Arc::new(FedMetrics::new()))
            .expect("spawn")
    }

    fn spawn_with_metrics(id: NodeId, membership: &[NodeId]) -> (FederationNode, Arc<FedMetrics>) {
        let metrics = Arc::new(FedMetrics::new());
        let node = FederationNode::spawn(id, 1, membership, test_cfg(), Arc::clone(&metrics))
            .expect("spawn");
        (node, metrics)
    }

    #[test]
    fn digest_receipt_is_a_node_heartbeat() {
        let mut a = spawn_node(1, &[1, 2]);
        let mut b = spawn_node(2, &[1, 2]);
        // Before any gossip: bootstrap grace keeps both alive.
        assert_eq!(a.alive_nodes(1.0), vec![1, 2]);
        let digest = b.gossip_digest(1.0);
        for frame in digest.frames() {
            assert!(a.receive_digest(&frame, 1.0));
        }
        assert!(a.node_watch().status(2).unwrap().output.is_trust());
        // Re-sending the same round is not stale (chunking), an older
        // round is.
        let frames = digest.frames();
        assert!(a.receive_digest(&frames[0], 1.1));
        let old = DigestFrame { round: 0, ..frames[0].clone() };
        assert!(!a.receive_digest(&old, 1.2));
    }

    #[test]
    fn silent_node_dies_after_grace_and_freshness() {
        let mut a = spawn_node(1, &[1, 2]);
        // Past bootstrap grace with zero heartbeats: node 2 is dead.
        a.advance(11.0);
        assert_eq!(a.alive_nodes(11.0), vec![1]);
    }

    #[test]
    fn failover_adopts_orphans_warm_and_returns_them() {
        let membership = [1u64, 2, 3];
        let mut a = spawn_node(1, &membership);
        let mut b = spawn_node(2, &membership);
        let mut c = spawn_node(3, &membership);

        // Find peers owned by node 3 under full membership.
        let orphan = (0..1000)
            .find(|&p| owner(&membership, p) == Some(3))
            .expect("some peer hashes to node 3");
        c.assign_peer(orphan).unwrap();
        assert!(c.deliver(orphan, 1.0, 5, Heartbeat::new(1, 1.0)));

        // Gossip c's digest to a and b; all three heartbeat each other.
        for t in [1.0, 2.0, 3.0] {
            let da = a.gossip_digest(t);
            let db = b.gossip_digest(t);
            let dc = c.gossip_digest(t);
            for f in da.frames() {
                b.receive_digest(&f, t);
                c.receive_digest(&f, t);
            }
            for f in db.frames() {
                a.receive_digest(&f, t);
                c.receive_digest(&f, t);
            }
            for f in dc.frames() {
                a.receive_digest(&f, t);
                b.receive_digest(&f, t);
            }
        }
        // Node 3 dies (stops gossiping); a and b keep gossiping each
        // other (so they stay mutually alive) until 3's freshness runs
        // out on both.
        for t in 4..=12 {
            let t = t as f64;
            let da = a.gossip_digest(t);
            let db = b.gossip_digest(t);
            for f in da.frames() {
                b.receive_digest(&f, t);
            }
            for f in db.frames() {
                a.receive_digest(&f, t);
            }
            a.advance(t);
            b.advance(t);
        }
        assert_eq!(a.alive_nodes(12.0), vec![1, 2]);
        let new_owner = owner(&[1, 2], orphan).unwrap();
        let (adopter, other) = if new_owner == 1 { (&mut a, &mut b) } else { (&mut b, &mut a) };
        let evs = adopter.rebalance(12.0);
        assert!(
            evs.iter().any(|e| matches!(
                e.change,
                FedChange::PeerAdopted { peer, from: 3 } if peer == orphan
            )),
            "adopter must take the orphan: {evs:?}"
        );
        assert!(adopter.owns(orphan));
        assert!(other.rebalance(12.0).is_empty(), "non-owner must not adopt");
        // Warm start: the gossiped incarnation is the floor — a stale
        // heartbeat from the peer's old life must be rejected.
        assert!(!adopter.deliver(orphan, 12.5, 4, Heartbeat::new(9, 12.4)));
        assert!(adopter.deliver(orphan, 12.6, 5, Heartbeat::new(10, 12.5)));

        // Node 3 restarts with a fresh incarnation and re-announces.
        let mut c2 = FederationNode::spawn(3, 2, &membership, test_cfg(), Arc::new(FedMetrics::new()))
            .expect("respawn");
        let d = c2.gossip_digest(13.0);
        for f in d.frames() {
            adopter.receive_digest(&f, 13.0);
            other.receive_digest(&f, 13.0);
        }
        // The rightful owner is back but claims nothing yet: the
        // conservative handoff keeps the peer here — releasing now
        // would orphan it, since deltas cannot retract.
        let evs = adopter.rebalance(13.0);
        assert!(!evs.iter().any(|e| matches!(e.change, FedChange::PeerReleased { .. })), "{evs:?}");
        assert!(adopter.owns(orphan));
        // c2 learns the peer from the adopter's digest and adopts it
        // (briefly double-owned)...
        let d = adopter.gossip_digest(13.5);
        for f in d.frames() {
            c2.receive_digest(&f, 13.5);
        }
        let evs = c2.rebalance(14.0);
        assert!(
            evs.iter()
                .any(|e| matches!(e.change, FedChange::PeerAdopted { peer, .. } if peer == orphan)),
            "restarted owner must re-adopt: {evs:?}"
        );
        assert!(c2.owns(orphan));
        // ...and once c2's digest claims it, the adopter hands it back.
        let d = c2.gossip_digest(14.5);
        for f in d.frames() {
            adopter.receive_digest(&f, 14.5);
        }
        let evs = adopter.rebalance(15.0);
        assert!(
            evs.iter().any(|e| matches!(
                e.change,
                FedChange::PeerReleased { peer, to: 3 } if peer == orphan
            )),
            "adopter must hand the peer back: {evs:?}"
        );
        assert!(!adopter.owns(orphan));
    }

    #[test]
    fn inconsistent_summary_count_is_rejected_and_counted() {
        let (mut a, metrics) = spawn_with_metrics(1, &[1, 2]);
        let mut b = spawn_node(2, &[1, 2]);
        let frames = b.gossip_digest(1.0).frames();
        let mut bad = frames[0].clone();
        assert!(bad.full, "round-0 digest must be a full refresh");
        bad.summary.peers += 1;
        assert_eq!(a.receive_digest_via(&bad, 1.0, Via::Direct), DigestOutcome::Inconsistent);
        assert_eq!(metrics.summary_rejects.load(Ordering::Relaxed), 1);
        // The poisoned frame must not have touched the slot...
        assert!(a.remote_partition(2).is_none_or(|r| r.node_incarnation == 0 && r.round == 0));
        // ...and the pristine copy still merges.
        assert_eq!(a.receive_digest_via(&frames[0], 1.1, Via::Direct), DigestOutcome::Merged);
    }

    #[test]
    fn redelivered_frames_are_deduped_without_view_change() {
        let (mut a, metrics) = spawn_with_metrics(1, &[1, 2]);
        let mut b = spawn_node(2, &[1, 2]);
        let frames = b.gossip_digest(1.0).frames();
        assert_eq!(a.receive_digest_via(&frames[0], 1.0, Via::Direct), DigestOutcome::Merged);
        let before = a.remote_partition(2).expect("merged").round;
        let out = a.receive_digest_via(&frames[0], 1.2, Via::Direct);
        assert_eq!(out, DigestOutcome::Duplicate);
        assert!(out.accepted(), "a duplicate is not an error");
        assert_eq!(metrics.dup_digests.load(Ordering::Relaxed), 1);
        assert_eq!(a.remote_partition(2).expect("still merged").round, before);
    }

    #[test]
    fn round_gap_arms_nack_repair_and_full_refresh_disarms_it() {
        let (mut a, metrics) = spawn_with_metrics(1, &[1, 2]);
        let (mut b, b_metrics) = spawn_with_metrics(2, &[1, 2]);
        // Round 1 (full) lands; round 2 (delta) is lost; round 3 (delta)
        // reveals the gap.
        for f in b.gossip_digest(1.0).frames() {
            assert_eq!(a.receive_digest_via(&f, 1.0, Via::Direct), DigestOutcome::Merged);
        }
        let _lost = b.gossip_digest(2.0);
        let frames = b.gossip_digest(3.0).frames();
        assert!(!frames[0].full);
        assert_eq!(
            a.receive_digest_via(&frames[0], 3.0, Via::Direct),
            DigestOutcome::MergedNeedsRepair
        );
        assert_eq!(metrics.seq_gap_repairs.load(Ordering::Relaxed), 1);
        // The NACK fires immediately on the first attempt...
        let reqs = a.due_repairs(3.0);
        assert_eq!(reqs.len(), 1);
        assert_eq!((reqs[0].requester, reqs[0].target), (1, 2));
        assert_eq!(metrics.repair_requests.load(Ordering::Relaxed), 1);
        // ...the origin serves a full refresh...
        let refresh = b.receive_repair(&reqs[0], 3.5).expect("b serves its own refresh");
        assert_eq!(b_metrics.repairs_served.load(Ordering::Relaxed), 1);
        // ...a request naming someone else is not ours to serve...
        let misdirected = fd_cluster::RepairRequest { target: 9, ..reqs[0] };
        assert!(b.receive_repair(&misdirected, 3.5).is_none());
        // ...and merging the refresh disarms the repair loop.
        for f in refresh.frames() {
            assert!(f.full);
            assert!(a.receive_digest_via(&f, 3.6, Via::Direct).accepted());
        }
        assert!(a.due_repairs(10.0).is_empty(), "full refresh must disarm the NACK");
    }

    #[test]
    fn relayed_digests_merge_under_the_hop_cap_and_shape_link_state() {
        let membership = [1u64, 2, 3];
        let (mut a, metrics) = spawn_with_metrics(1, &membership);
        let mut b = spawn_node(2, &membership);
        let mut c = spawn_node(3, &membership);
        // c gossips straight to b; a never hears c directly.
        for f in c.gossip_digest(1.0).frames() {
            assert!(b.receive_digest_via(&f, 1.0, Via::Direct).accepted());
        }
        // b relays its fresh knowledge of c's partition on to a.
        let relays = b.relay_frames(1.5);
        assert!(
            relays.iter().any(|(hop, f)| *hop == 1 && f.origin == 3 && !f.full),
            "b must forward c's partition as a hop-1, merge-only frame: {relays:?}"
        );
        for (hop, f) in &relays {
            let out = a.receive_digest_via(f, 1.6, Via::Relayed { relayer: 2, hop: *hop });
            assert!(out.accepted(), "{out:?}");
        }
        assert!(metrics.relayed_digests.load(Ordering::Relaxed) >= 1);
        // Link states: c is reachable only through the relay; b never
        // spoke to a at all.
        assert_eq!(a.link_state(3, 1.7), LinkState::Relayed);
        assert_eq!(a.link_state(2, 1.7), LinkState::Cut);
        assert_eq!(a.link_state(1, 1.7), LinkState::Direct, "self link is always direct");
        // Policy drops: over the hop cap, zero hops, and echoes of our
        // own digest are all rejected and counted.
        let (_, cf) = &relays[0];
        assert_eq!(
            a.receive_digest_via(cf, 1.8, Via::Relayed { relayer: 2, hop: 3 }),
            DigestOutcome::RelayDropped
        );
        assert_eq!(
            a.receive_digest_via(cf, 1.8, Via::Relayed { relayer: 2, hop: 0 }),
            DigestOutcome::RelayDropped
        );
        let digest = a.gossip_digest(1.9).frames().remove(0);
        let echo = Frame::Relayed(fd_cluster::RelayedDigest { relayer: 2, hop: 1, digest });
        assert!(a.handle(&echo, 2.0).is_empty());
        assert_eq!(metrics.relay_drops.load(Ordering::Relaxed), 3);
        assert!(a.remote_partition(1).is_none(), "a node holds no remote view of itself");
    }

    /// Everything the metrics hold, as one comparable string.
    fn counters(metrics: &FedMetrics) -> String {
        fd_cluster::MetricsSource::json_fields(metrics).remove(0).1
    }

    fn decoded(bytes: &[u8]) -> Frame {
        fd_cluster::decode_frame(bytes).expect("the node's encoder wrote it")
    }

    #[test]
    fn outbound_addresses_a_round_and_counts_what_it_sent() {
        let membership = [1u64, 2, 3];
        let (mut b, metrics) = spawn_with_metrics(2, &membership);
        let mut c = spawn_node(3, &membership);
        for f in c.gossip_digest(1.0).frames() {
            assert!(b.receive_digest(&f, 1.0));
        }
        let out = b.outbound(1.5);
        // One digest frame to each of the two others, then c's partition
        // relayed to everyone but c and b itself; no repair is armed.
        let kinds: Vec<(NodeId, &str)> = out
            .iter()
            .map(|(to, bytes)| match decoded(bytes) {
                Frame::Digest(d) if d.origin == 2 => (*to, "digest"),
                Frame::Relayed(r) if r.relayer == 2 && r.hop == 1 && r.digest.origin == 3 => {
                    (*to, "relay")
                }
                other => panic!("unexpected outbound frame {other:?}"),
            })
            .collect();
        assert_eq!(kinds, vec![(1, "digest"), (3, "digest"), (1, "relay")]);
        assert_eq!(metrics.digests_sent.load(Ordering::Relaxed), 2, "per frame and destination");
        assert_eq!(metrics.gossip_rounds.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn handle_ignores_frames_that_are_not_gossip() {
        let (mut a, metrics) = spawn_with_metrics(1, &[1, 2]);
        let before = counters(&metrics);
        let heartbeat =
            fd_cluster::HeartbeatEntry { peer: 2, incarnation: 1, seq: 1, send_time: 0.5 };
        assert!(a.handle(&Frame::Heartbeats(vec![heartbeat]), 1.0).is_empty());
        let control = fd_cluster::ControlEntry { peer: 2, eta: 0.5 };
        assert!(a.handle(&Frame::Control(vec![control]), 1.0).is_empty());
        assert_eq!(counters(&metrics), before, "no counter may move");
        assert!(a.remote_partition(2).is_none());
        assert_eq!(a.node_watch().status(2).expect("watched").counters.heartbeats, 0);
    }

    #[test]
    fn handle_answers_only_repairs_addressed_to_this_node() {
        let (mut b, metrics) = spawn_with_metrics(2, &[1, 2, 3]);
        for p in 0..(MAX_DIGEST_BATCH as u64 + 5) {
            b.assign_peer(p).unwrap();
        }
        let req = RepairRequest {
            requester: 1,
            target: 2,
            target_incarnation: 1,
            have_round: 0,
            at: 1.0,
        };
        let misrouted = Frame::Repair(RepairRequest { target: 3, ..req });
        assert!(b.handle(&misrouted, 1.0).is_empty());
        assert_eq!(metrics.repairs_served.load(Ordering::Relaxed), 0);

        // Exactly one full-refresh digest, chunked, all of it for the
        // requester.
        let answer = b.handle(&Frame::Repair(req), 1.0);
        assert_eq!(metrics.repairs_served.load(Ordering::Relaxed), 1);
        assert_eq!(answer.len(), 2, "a partition over MAX_DIGEST_BATCH spans two frames");
        let mut entries = 0;
        for (to, bytes) in &answer {
            assert_eq!(*to, req.requester);
            let Frame::Digest(d) = decoded(bytes) else { panic!("refresh must be a digest") };
            assert!(d.full && d.origin == 2 && d.round == 1, "{d:?}");
            entries += d.entries.len();
        }
        assert_eq!(entries, MAX_DIGEST_BATCH + 5);
    }

    #[test]
    fn stale_knowledge_is_never_relayed() {
        let membership = [1u64, 2, 3];
        let mut b = spawn_node(2, &membership);
        let mut c = spawn_node(3, &membership);
        for f in c.gossip_digest(1.0).frames() {
            assert!(b.receive_digest_via(&f, 1.0, Via::Direct).accepted());
        }
        assert!(!b.relay_frames(2.0).is_empty(), "fresh knowledge relays");
        // Past LINK_TIMEOUT with no refresh, the last word from c is too
        // old to forward — a dead origin's final round must not echo
        // around the federation forever.
        assert!(b.relay_frames(10.0).is_empty(), "stale knowledge must not relay");
    }
}
