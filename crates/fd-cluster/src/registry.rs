//! Sharded per-peer state storage.
//!
//! One global lock around N peers would serialize every heartbeat from
//! every socket thread against the ticker. Instead peers hash into a
//! fixed, power-of-two number of shards, each behind its own `RwLock`:
//! recording a heartbeat write-locks exactly one shard, and snapshots
//! read-lock shards one at a time. Shard choice is Fibonacci hashing —
//! multiply by 2⁶⁴/φ and keep the top bits — which spreads even
//! sequential peer ids (the common assignment) uniformly.
//!
//! Inside a shard, and in the published index, peers live in hash maps
//! keyed by [`PeerIdHasher`]: one folded multiply by a constant other
//! than the shard selector's, so the bucket a peer lands in says nothing
//! about the shard it is in (and vice versa).

use crate::monitor::ControlConfig;
use crate::PeerId;
use fd_core::detectors::NfdE;
use fd_core::estimate::{DelayMomentsEstimator, LossRateEstimator, WindowedLossRateEstimator};
use fd_core::FailureDetector;
use fd_core::HysteresisGate;
use fd_metrics::{FdOutput, OnlineQos, QosRequirements, QosTrackerState};
use fd_stats::OnlineStats;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// 2⁶⁴ / φ, the Fibonacci-hashing multiplier.
const FIB_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplier of [`PeerIdHasher`] (Steele & Vigna's 64-bit LCG
/// multiplier). Any odd constant unrelated to [`FIB_MULT`] would do:
/// what matters is that `id · HASH_MULT` and `id · FIB_MULT` do not
/// share their high bits.
const HASH_MULT: u64 = 0xD134_2543_DE82_EF95;

/// Hasher for maps keyed by [`PeerId`]: the 128-bit product
/// `id · HASH_MULT`, high half folded onto the low half, halves swapped
/// — a `mul`, a `xor` and a `rol` where SipHash spends ~10 ns of every
/// heartbeat.
///
/// `std`'s table takes the bucket from the low bits and a 7-bit tag
/// from the top bits of the hash. A product's well-mixed bits are its
/// upper ones, and the fold keeps them well mixed whichever end of the
/// id varies (ids that differ only in high bits leave the low half of
/// the product zero and live in the carried half instead); the swap
/// brings them down to the bucket index. Ids whose low bits are all
/// zero (stride-16 ids) therefore still spread over buckets, and a
/// shard — a set of ids that agree on the top bits of `id · FIB_MULT`
/// — looks uniform to a table multiplying by another constant.
///
/// Not collision-resistant, and does not need to be: the keys of these
/// maps are the peers an operator registered. An id arriving on the
/// wire is only ever looked up, never inserted, so a sender cannot grow
/// a bucket chain.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PeerIdHasher(u64);

impl Hasher for PeerIdHasher {
    fn write_u64(&mut self, id: u64) {
        let product = u128::from(id ^ self.0) * u128::from(HASH_MULT);
        self.0 = (product as u64 ^ (product >> 64) as u64).rotate_left(32);
    }

    /// `PeerId` hashes through [`write_u64`](Self::write_u64); this is
    /// the trait's required fallback for any other key type.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map keyed by peer id under [`PeerIdHasher`].
pub(crate) type PeerMap<V> = HashMap<PeerId, V, BuildHasherDefault<PeerIdHasher>>;

/// Per-peer QoS counters, maintained since the peer was added.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerCounters {
    /// Heartbeats recorded for this peer (fresh or stale).
    pub heartbeats: u64,
    /// Heartbeats carrying a sequence number at or below the largest
    /// already seen — late, duplicated or reordered arrivals the
    /// freshness logic ignores.
    pub stale: u64,
    /// Trust→Suspect transitions (the paper's S-transitions).
    pub suspicions: u64,
    /// Suspect→Trust transitions (T-transitions; the first one is the
    /// initial trust, since every peer starts suspected).
    pub recoveries: u64,
    /// Heartbeats rejected because they carried an incarnation below the
    /// peer's current one — traffic from a previous life, delayed in
    /// flight across a crash, that must not refresh trust.
    pub stale_incarnation: u64,
    /// Times the peer's detector state was reset because a heartbeat
    /// arrived with a *higher* incarnation — i.e. observed restarts.
    pub incarnation_resets: u64,
}

/// Where the adaptive control plane has a peer: meeting its declared QoS
/// requirements, or degraded to best-effort parameters because the
/// configurator proved (Theorem 12) or the feasible-`η` search found
/// that the requirements cannot currently be met.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QosState {
    /// Requirements are (believed) met; the configured `(η, α)` came out
    /// of a successful `configure_nfd_u` run — or the peer declared no
    /// requirements, in which case there is nothing to miss.
    #[default]
    Nominal,
    /// The last control round found the requirements infeasible under
    /// the current network estimate; the peer runs best-effort fallback
    /// parameters (detection budget honored, recurrence bound dropped)
    /// until conditions recover.
    Degraded,
}

/// Adaptive-control state for one peer that declared QoS requirements:
/// the §8.1.2 short/long conservative estimator pair feeding the control
/// loop, the hysteresis gate damping it, and the degradation bookkeeping.
/// Guarded by the peer's shard lock, like the rest of [`PeerState`].
#[derive(Debug)]
pub(crate) struct ControlState {
    /// The `(T_D^U, T_MR^L, T_M^U)` tuple the control loop re-runs the
    /// configurator against.
    pub requirements: QosRequirements,
    /// Short-horizon loss estimate (recent sequence-number span): reacts
    /// to regime shifts within one window.
    pub short_loss: WindowedLossRateEstimator,
    /// Long-horizon loss estimate (whole lifetime): stable under noise.
    pub long_loss: LossRateEstimator,
    /// Short-horizon delay moments (small sliding window).
    pub short_delay: DelayMomentsEstimator,
    /// Long-horizon delay moments (large sliding window).
    pub long_delay: DelayMomentsEstimator,
    /// Deadband + min-dwell admission control for parameter changes.
    pub gate: HysteresisGate,
    /// Nominal vs degraded (see [`QosState`]).
    pub qos_state: QosState,
    /// Parameter applications (gated, forced degradations and
    /// promotions alike).
    pub reconfigurations: u64,
    /// Nominal→Degraded transitions.
    pub degradations: u64,
    /// Degraded→Nominal transitions.
    pub promotions: u64,
    /// Consecutive control rounds (while degraded) whose configurator
    /// run came back feasible; promotion fires once this reaches the
    /// configured threshold.
    pub feasible_streak: u32,
    /// Sender-side `η` the last control round recommended, awaiting
    /// delivery/confirmation (also drained cluster-wide via
    /// `ClusterMonitor::drain_eta_recommendations`).
    pub recommended_eta: Option<f64>,
}

impl ControlState {
    /// The control state of a newly registered peer: cold estimators
    /// sized by `cfg`, nominal, nothing applied or recommended yet.
    pub fn new(cfg: &ControlConfig, requirements: QosRequirements) -> Self {
        Self {
            requirements,
            short_loss: WindowedLossRateEstimator::new(cfg.short_loss_span),
            long_loss: LossRateEstimator::new(),
            short_delay: DelayMomentsEstimator::new(cfg.short_delay_window),
            long_delay: DelayMomentsEstimator::new(cfg.long_delay_window),
            gate: HysteresisGate::new(cfg.hysteresis),
            qos_state: QosState::Nominal,
            reconfigurations: 0,
            degradations: 0,
            promotions: 0,
            feasible_streak: 0,
            recommended_eta: None,
        }
    }

    /// Feeds one accepted heartbeat into the estimator pair.
    /// `fresh` marks a sequence number above every previously seen one;
    /// only fresh sequences feed the loss estimators (re-feeding a
    /// duplicate would credit the same message twice), which makes
    /// out-of-order late arrivals count as losses — a conservative bias,
    /// consistent with taking the worst of the two horizons below.
    pub fn observe(&mut self, seq: u64, send_time: f64, receipt_time: f64, fresh: bool) {
        if fresh {
            self.short_loss.observe(seq);
            self.long_loss.observe(seq);
        }
        self.short_delay.observe(send_time, receipt_time);
        self.long_delay.observe(send_time, receipt_time);
    }

    /// The conservative combined estimate `(p̂_L, V̂(D))` — the worse of
    /// the short and long horizons on each axis (§8.1.2: the short
    /// window notices a burst immediately, the long window remembers it;
    /// a detector configured for the worst of both stays safe through
    /// the transition). `None` until the long delay window holds at
    /// least `min_delay_samples` observations.
    pub fn estimate(&self, min_delay_samples: usize) -> Option<(f64, f64)> {
        if self.long_delay.len() < min_delay_samples.max(2) {
            return None;
        }
        let p_l = self.short_loss.estimate()?.max(self.long_loss.estimate()?);
        let v = self.short_delay.delay_variance()?.max(self.long_delay.delay_variance()?);
        Some((p_l, v))
    }

    /// Drops sequence-number-derived state after an incarnation reset:
    /// the new life restarts sequences at 1, which the old loss windows
    /// would discard as ancient. Delay moments survive (link latency is
    /// a property of the path, not the incarnation).
    pub fn reset_sequences(&mut self) {
        self.short_loss.clear();
        self.long_loss = LossRateEstimator::new();
    }
}

/// A point-in-time copy of everything the lock-free read path serves
/// for one peer: the status surface (`output`, `(η, α)`, counters,
/// control verdicts) plus the raw QoS-tracker state, from which
/// [`ObservedQos`](fd_metrics::ObservedQos) is reconstructed at any
/// later `now` without touching the shard locks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PublishedPeer {
    pub output: FdOutput,
    pub incarnation: u64,
    pub eta: f64,
    pub alpha: f64,
    pub estimator_samples: u64,
    pub counters: PeerCounters,
    pub qos_state: QosState,
    pub recommended_eta: Option<f64>,
    pub qos: QosTrackerState,
}

/// Number of `u64` payload words a [`PublishedPeer`] packs into.
const CELL_WORDS: usize = 29;

/// Leading words that carry the status subset (everything but the QoS
/// tracker state) — [`PeerCell::read_status`] loads only these.
const STATUS_WORDS: usize = 12;

/// The status subset of a published cell. `status()` reads run hot
/// (exporter scrapes hit every peer) and need none of the QoS tracker
/// words, so they decode just this prefix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PublishedStatus {
    pub output: FdOutput,
    pub incarnation: u64,
    pub eta: f64,
    pub alpha: f64,
    pub estimator_samples: u64,
    pub counters: PeerCounters,
    pub qos_state: QosState,
    pub recommended_eta: Option<f64>,
}

/// Seqlock-published per-peer cell: the write side (always under the
/// peer's shard *write* lock, so writers are serialized) bumps the
/// sequence odd, stores the payload words, and bumps it even; readers
/// retry while the sequence is odd or changed across their loads.
///
/// Everything is an `AtomicU64` with `Acquire`/`Release` ordering — no
/// `unsafe`, no torn reads (each word is individually atomic; the
/// sequence check rejects mixed generations). A reader never blocks a
/// writer and vice versa: `status`/`snapshot`/exporter scrapes read
/// these cells while the hot record path holds the shard locks.
pub(crate) struct PeerCell {
    seq: AtomicU64,
    words: [AtomicU64; CELL_WORDS],
}

impl std::fmt::Debug for PeerCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerCell").field("seq", &self.seq.load(Ordering::Relaxed)).finish()
    }
}

/// Flag bits in word 0.
const FLAG_SUSPECT: u64 = 1;
const FLAG_DEGRADED: u64 = 1 << 1;
const FLAG_SEGMENT_BY_TRANSITION: u64 = 1 << 2;
const FLAG_LAST_S_PRESENT: u64 = 1 << 3;
const FLAG_REC_ETA_PRESENT: u64 = 1 << 4;
const FLAG_QOS_SUSPECT: u64 = 1 << 5;

impl PeerCell {
    pub fn new() -> Self {
        Self { seq: AtomicU64::new(0), words: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    fn pack(p: &PublishedPeer) -> [u64; CELL_WORDS] {
        let mut flags = 0u64;
        if p.output == FdOutput::Suspect {
            flags |= FLAG_SUSPECT;
        }
        if p.qos_state == QosState::Degraded {
            flags |= FLAG_DEGRADED;
        }
        if p.qos.segment_opened_by_transition {
            flags |= FLAG_SEGMENT_BY_TRANSITION;
        }
        if p.qos.last_s.is_some() {
            flags |= FLAG_LAST_S_PRESENT;
        }
        if p.recommended_eta.is_some() {
            flags |= FLAG_REC_ETA_PRESENT;
        }
        if p.qos.output == FdOutput::Suspect {
            flags |= FLAG_QOS_SUSPECT;
        }
        [
            flags,
            p.incarnation,
            p.eta.to_bits(),
            p.alpha.to_bits(),
            p.estimator_samples,
            p.recommended_eta.unwrap_or(0.0).to_bits(),
            p.counters.heartbeats,
            p.counters.stale,
            p.counters.suspicions,
            p.counters.recoveries,
            p.counters.stale_incarnation,
            p.counters.incarnation_resets,
            p.qos.origin.to_bits(),
            p.qos.at.to_bits(),
            p.qos.segment_start.to_bits(),
            p.qos.trust_time.to_bits(),
            p.qos.suspect_time.to_bits(),
            p.qos.last_s.unwrap_or(0.0).to_bits(),
            p.qos.s_transitions,
            p.qos.t_transitions,
            p.qos.recurrence.count(),
            p.qos.recurrence.mean().to_bits(),
            p.qos.recurrence.m2().to_bits(),
            p.qos.duration.count(),
            p.qos.duration.mean().to_bits(),
            p.qos.duration.m2().to_bits(),
            p.qos.good.count(),
            p.qos.good.mean().to_bits(),
            p.qos.good.m2().to_bits(),
        ]
    }

    fn unpack(words: &[u64; CELL_WORDS]) -> PublishedPeer {
        let flags = words[0];
        let output =
            if flags & FLAG_SUSPECT != 0 { FdOutput::Suspect } else { FdOutput::Trust };
        let qos_output =
            if flags & FLAG_QOS_SUSPECT != 0 { FdOutput::Suspect } else { FdOutput::Trust };
        PublishedPeer {
            output,
            incarnation: words[1],
            eta: f64::from_bits(words[2]),
            alpha: f64::from_bits(words[3]),
            estimator_samples: words[4],
            counters: PeerCounters {
                heartbeats: words[6],
                stale: words[7],
                suspicions: words[8],
                recoveries: words[9],
                stale_incarnation: words[10],
                incarnation_resets: words[11],
            },
            qos_state: if flags & FLAG_DEGRADED != 0 {
                QosState::Degraded
            } else {
                QosState::Nominal
            },
            recommended_eta: (flags & FLAG_REC_ETA_PRESENT != 0)
                .then(|| f64::from_bits(words[5])),
            qos: QosTrackerState {
                origin: f64::from_bits(words[12]),
                at: f64::from_bits(words[13]),
                output: qos_output,
                segment_start: f64::from_bits(words[14]),
                segment_opened_by_transition: flags & FLAG_SEGMENT_BY_TRANSITION != 0,
                trust_time: f64::from_bits(words[15]),
                suspect_time: f64::from_bits(words[16]),
                last_s: (flags & FLAG_LAST_S_PRESENT != 0)
                    .then(|| f64::from_bits(words[17])),
                s_transitions: words[18],
                t_transitions: words[19],
                recurrence: OnlineStats::from_parts(
                    words[20],
                    f64::from_bits(words[21]),
                    f64::from_bits(words[22]),
                ),
                duration: OnlineStats::from_parts(
                    words[23],
                    f64::from_bits(words[24]),
                    f64::from_bits(words[25]),
                ),
                good: OnlineStats::from_parts(
                    words[26],
                    f64::from_bits(words[27]),
                    f64::from_bits(words[28]),
                ),
            },
        }
    }

    /// Publishes a new version. Callers must hold the peer's shard
    /// *write* lock — that serializes writers, which the odd/even
    /// sequence protocol requires.
    pub fn publish(&self, p: &PublishedPeer) {
        let words = Self::pack(p);
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Release);
        for (slot, w) in self.words.iter().zip(words) {
            slot.store(w, Ordering::Release);
        }
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Reads a consistent version, retrying across concurrent writes.
    pub fn read(&self) -> PublishedPeer {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let mut words = [0u64; CELL_WORDS];
            for (w, slot) in words.iter_mut().zip(&self.words) {
                *w = slot.load(Ordering::Acquire);
            }
            if self.seq.load(Ordering::Acquire) == s1 {
                return Self::unpack(&words);
            }
            std::hint::spin_loop();
        }
    }

    /// Reads just the status prefix (words `0..STATUS_WORDS`) under the
    /// same seqlock protocol — less than half the loads of a full
    /// [`read`](Self::read) and no `OnlineStats` reconstruction, which
    /// keeps per-peer `status()` scrapes cheaper than a locked lookup.
    #[inline]
    pub fn read_status(&self) -> PublishedStatus {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let mut words = [0u64; STATUS_WORDS];
            for (w, slot) in words.iter_mut().zip(&self.words[..STATUS_WORDS]) {
                *w = slot.load(Ordering::Acquire);
            }
            if self.seq.load(Ordering::Acquire) == s1 {
                let flags = words[0];
                return PublishedStatus {
                    output: if flags & FLAG_SUSPECT != 0 {
                        FdOutput::Suspect
                    } else {
                        FdOutput::Trust
                    },
                    incarnation: words[1],
                    eta: f64::from_bits(words[2]),
                    alpha: f64::from_bits(words[3]),
                    estimator_samples: words[4],
                    counters: PeerCounters {
                        heartbeats: words[6],
                        stale: words[7],
                        suspicions: words[8],
                        recoveries: words[9],
                        stale_incarnation: words[10],
                        incarnation_resets: words[11],
                    },
                    qos_state: if flags & FLAG_DEGRADED != 0 {
                        QosState::Degraded
                    } else {
                        QosState::Nominal
                    },
                    recommended_eta: (flags & FLAG_REC_ETA_PRESENT != 0)
                        .then(|| f64::from_bits(words[5])),
                };
            }
            std::hint::spin_loop();
        }
    }

    /// The current output alone — a single atomic load, no retry loop
    /// needed (one word can't tear).
    pub fn output(&self) -> FdOutput {
        if self.words[0].load(Ordering::Acquire) & FLAG_SUSPECT != 0 {
            FdOutput::Suspect
        } else {
            FdOutput::Trust
        }
    }
}

/// Everything the cluster tracks for one peer. Guarded by its shard's
/// `RwLock`; the shard's table holds a `Box` of it, so a bucket — and
/// what table slack and a growth rehash cost per peer — is a key and a
/// pointer.
///
/// The peer's output is not a field: it is `detector.output()`, and the
/// output as of the last accounted drive (what a transition is judged
/// against) is `qos.output()`. Every path that drives the detector
/// folds the result into the tracker before it releases the shard lock
/// (`apply_transition`), so outside the lock the two agree.
#[derive(Debug)]
pub(crate) struct PeerState {
    /// The §6.3 freshness-point detector with its sliding-window
    /// expected-arrival estimator.
    pub detector: NfdE,
    /// Highest sender incarnation seen from this peer. Heartbeats below
    /// it are rejected; one above it resets the detector (crash-recovery
    /// model: a restarted peer starts a fresh monitoring epoch).
    pub incarnation: u64,
    /// Registration generation; wheel entries from before a remove/re-add
    /// (or from before an incarnation reset) carry an older generation
    /// and are discarded.
    pub gen: u64,
    /// Whether a wheel entry is currently outstanding for this peer (at
    /// most one at a time; see `monitor`).
    pub armed: bool,
    /// Latest local time this peer's detector was driven to; concurrent
    /// callers clamp to it so the detector's monotone-time contract holds.
    pub last_seen: f64,
    /// QoS counters.
    pub counters: PeerCounters,
    /// Online interval accounting over this peer's output stream (the
    /// live §2.2/§2.3 metrics: `P_A`, `E(T_MR)`, `E(T_M)`, `E(T_G)`).
    /// Tracks the *output* across incarnation resets — a restarted peer
    /// is still one monitored output history — and starts fresh only on
    /// remove/re-add.
    pub qos: OnlineQos,
    /// Adaptive-control state, allocated only for peers that declared
    /// QoS requirements; `None` costs the rest a pointer (the control
    /// loop skips them entirely).
    pub control: Option<Box<ControlState>>,
    /// The seqlock cell this peer's state is published into for the
    /// lock-free read path. The `Arc` is shared with the registry's
    /// published index, so readers holding a cell survive the peer's
    /// removal (they just stop seeing new versions).
    pub cell: Arc<PeerCell>,
}

/// One shard's table: peer → its boxed record.
pub(crate) type Shard = PeerMap<Box<PeerState>>;

// A field added to the per-peer record shows up here, not as a point of
// `peak_rss_mb` three PRs later (DESIGN §7 has the byte table).
const _: () = assert!(std::mem::size_of::<PeerState>() <= 384);
const _: () = assert!(std::mem::size_of::<Option<Box<ControlState>>>() == 8);

impl PeerState {
    /// Publishes the current state into the peer's seqlock cell. Call
    /// after every mutation, while still holding the shard write lock
    /// (which is what serializes cell writers).
    pub fn publish(&self) {
        self.cell.publish(&PublishedPeer {
            output: self.detector.output(),
            incarnation: self.incarnation,
            eta: self.detector.eta(),
            alpha: self.detector.alpha(),
            estimator_samples: self.detector.estimator_len() as u64,
            counters: self.counters,
            qos_state: self.control.as_ref().map(|c| c.qos_state).unwrap_or_default(),
            recommended_eta: self.control.as_ref().and_then(|c| c.recommended_eta),
            qos: self.qos.state(),
        });
    }
}

/// The sharded peer table, plus the published index the lock-free read
/// path scans.
///
/// Lock order where both are taken: shard first, then `published`. The
/// published index is only written on membership changes (add/remove),
/// never on the heartbeat or status paths, so the `RwLock` around it is
/// effectively read-only at steady state.
pub(crate) struct PeerRegistry {
    shards: Vec<RwLock<Shard>>,
    /// log₂(shard count), for the Fibonacci top-bits extraction.
    shift: u32,
    /// peer → seqlock cell, for readers that must not touch the shards.
    published: RwLock<PeerMap<Arc<PeerCell>>>,
}

impl PeerRegistry {
    /// Creates a registry with `shards` rounded up to a power of two (at
    /// least 1).
    pub fn new(shards: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        Self {
            shards: (0..count).map(|_| RwLock::new(PeerMap::default())).collect(),
            shift: count.trailing_zeros(),
            published: RwLock::new(PeerMap::default()),
        }
    }

    /// Which shard index holds `peer`.
    pub fn shard_index(&self, peer: PeerId) -> usize {
        if self.shift == 0 {
            return 0;
        }
        (peer.wrapping_mul(FIB_MULT) >> (64 - self.shift)) as usize
    }

    /// The shard lock holding `peer`.
    pub fn shard(&self, peer: PeerId) -> &RwLock<Shard> {
        &self.shards[self.shard_index(peer)]
    }

    /// All shards, for whole-cluster scans (lock one at a time).
    pub fn shards(&self) -> &[RwLock<Shard>] {
        &self.shards
    }

    /// Total peers, off the published index — no shard locks.
    pub fn len(&self) -> usize {
        self.published.read().len()
    }

    /// Registers `peer`'s cell in the published index. Call right after
    /// inserting the peer into its shard (shard lock still held keeps
    /// add/remove races ordered).
    pub fn publish_cell(&self, peer: PeerId, cell: Arc<PeerCell>) {
        self.published.write().insert(peer, cell);
    }

    /// Drops `peer` from the published index (on remove).
    pub fn retract_cell(&self, peer: PeerId) {
        self.published.write().remove(&peer);
    }

    /// The published cell for one peer, if registered.
    pub fn cell(&self, peer: PeerId) -> Option<Arc<PeerCell>> {
        self.published.read().get(&peer).cloned()
    }

    /// A point-in-time list of `(peer, cell)` pairs — the whole cluster,
    /// one brief read lock on the index, zero shard locks.
    pub fn published_cells(&self) -> Vec<(PeerId, Arc<PeerCell>)> {
        self.published.read().iter().map(|(p, c)| (*p, Arc::clone(c))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_shard_count_up_to_power_of_two() {
        assert_eq!(PeerRegistry::new(0).shards().len(), 1);
        assert_eq!(PeerRegistry::new(1).shards().len(), 1);
        assert_eq!(PeerRegistry::new(3).shards().len(), 4);
        assert_eq!(PeerRegistry::new(16).shards().len(), 16);
        assert_eq!(PeerRegistry::new(17).shards().len(), 32);
    }

    #[test]
    fn sequential_ids_spread_across_shards() {
        let reg = PeerRegistry::new(16);
        let mut per_shard = [0usize; 16];
        for peer in 0..1600u64 {
            per_shard[reg.shard_index(peer)] += 1;
        }
        // Fibonacci hashing keeps sequential ids close to uniform: every
        // shard within 2× of the mean (100).
        for (i, &n) in per_shard.iter().enumerate() {
            assert!((50..=200).contains(&n), "shard {i} got {n} of 1600");
        }
    }

    #[test]
    fn single_shard_always_index_zero() {
        let reg = PeerRegistry::new(1);
        for peer in [0u64, 1, u64::MAX] {
            assert_eq!(reg.shard_index(peer), 0);
        }
    }

    #[test]
    fn peer_hasher_spreads_the_ids_of_one_shard_over_buckets_and_tags() {
        use std::hash::BuildHasher;
        // One shard's ids agree on the top bits of `id · FIB_MULT`; the
        // table hashing them must not notice. `std`'s table takes the
        // bucket from the low bits of the hash and a 7-bit tag from the
        // top. Stride-16 ids have four zero low bits, which a plain
        // multiply would carry straight into the bucket index.
        const IDS: usize = 4096;
        const BUCKETS: usize = 512;
        const TAGS: usize = 128;
        let reg = PeerRegistry::new(16);
        let hasher = BuildHasherDefault::<PeerIdHasher>::default();
        for stride in [1u64, 16] {
            let mut buckets = [0usize; BUCKETS];
            let mut tags = [0usize; TAGS];
            let shard_ids =
                (0u64..).map(|k| k * stride).filter(|&id| reg.shard_index(id) == 3).take(IDS);
            for id in shard_ids {
                let h = hasher.hash_one(id);
                buckets[h as usize % BUCKETS] += 1;
                tags[(h >> 57) as usize] += 1;
            }
            // A uniform hash leaves almost no slot empty at these means
            // (8 per bucket, 32 per tag) and none at three times the
            // mean; a hash that lost the stride's four bits would leave
            // 15 of 16 buckets empty.
            for (what, loads) in [("bucket", &buckets[..]), ("tag", &tags[..])] {
                let mean = IDS / loads.len();
                let empty = loads.iter().filter(|&&n| n == 0).count();
                let max = *loads.iter().max().unwrap();
                assert!(
                    empty * 100 <= loads.len() && max <= 3 * mean,
                    "stride {stride}: {empty} of {} {what}s empty, fullest holds {max}, mean {mean}",
                    loads.len()
                );
            }
        }
    }

    fn sample_published(tag: u64) -> PublishedPeer {
        let t = tag as f64;
        PublishedPeer {
            output: if tag % 2 == 0 { FdOutput::Trust } else { FdOutput::Suspect },
            incarnation: tag,
            eta: 0.01 + t * 1e-6,
            alpha: 0.05 + t * 1e-6,
            estimator_samples: tag * 3,
            counters: PeerCounters {
                heartbeats: tag * 10,
                stale: tag,
                suspicions: tag / 2,
                recoveries: tag / 2,
                stale_incarnation: tag / 3,
                incarnation_resets: tag / 5,
            },
            qos_state: if tag % 3 == 0 { QosState::Degraded } else { QosState::Nominal },
            recommended_eta: (tag % 4 == 0).then_some(0.02 + t * 1e-6),
            qos: QosTrackerState {
                origin: 0.0,
                at: t + 1.0,
                output: if tag % 2 == 0 { FdOutput::Trust } else { FdOutput::Suspect },
                segment_start: t,
                segment_opened_by_transition: tag % 2 == 1,
                trust_time: t * 0.75,
                suspect_time: t * 0.25 + 1.0,
                last_s: (tag % 2 == 1).then_some(t * 0.5),
                s_transitions: tag,
                t_transitions: tag + 1,
                recurrence: OnlineStats::from_parts(tag, t * 2.0, t * 0.5),
                duration: OnlineStats::from_parts(tag + 1, t * 3.0, t * 0.25),
                good: OnlineStats::from_parts(tag + 2, t * 4.0, t * 0.125),
            },
        }
    }

    #[test]
    fn seqlock_cell_roundtrips_every_field_bit_exactly() {
        let cell = PeerCell::new();
        for tag in [0u64, 1, 2, 3, 4, 7, 12, 1_000_003] {
            let p = sample_published(tag);
            cell.publish(&p);
            assert_eq!(cell.read(), p, "tag {tag}");
            assert_eq!(cell.output(), p.output, "tag {tag}");
            let s = cell.read_status();
            assert_eq!(
                s,
                PublishedStatus {
                    output: p.output,
                    incarnation: p.incarnation,
                    eta: p.eta,
                    alpha: p.alpha,
                    estimator_samples: p.estimator_samples,
                    counters: p.counters,
                    qos_state: p.qos_state,
                    recommended_eta: p.recommended_eta,
                },
                "tag {tag}"
            );
        }
    }

    #[test]
    fn seqlock_readers_never_observe_mixed_generations() {
        use std::sync::atomic::AtomicBool;

        // Each generation is self-consistent: every word derives from
        // `tag`, so a read mixing two generations fails the cross-checks
        // below. Hammer the cell from several readers while one writer
        // republishes continuously.
        let cell = Arc::new(PeerCell::new());
        cell.publish(&sample_published(0));
        let stop = Arc::new(AtomicBool::new(false));

        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let p = cell.read();
                        let tag = p.incarnation;
                        assert_eq!(p.estimator_samples, tag * 3, "torn read at tag {tag}");
                        assert_eq!(p.counters.heartbeats, tag * 10, "torn read at tag {tag}");
                        assert_eq!(p.qos.s_transitions, tag, "torn read at tag {tag}");
                        assert_eq!(p.qos.t_transitions, tag + 1, "torn read at tag {tag}");
                        assert_eq!(p.qos.recurrence.count(), tag, "torn read at tag {tag}");
                        assert_eq!(p, sample_published(tag), "torn read at tag {tag}");
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();

        for tag in 1..=20_000u64 {
            cell.publish(&sample_published(tag));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().expect("reader panicked") > 0);
        }
        assert_eq!(cell.read(), sample_published(20_000));
    }
}
