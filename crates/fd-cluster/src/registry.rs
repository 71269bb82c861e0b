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
use crate::{unpoison, PeerId};
use fd_core::detectors::NfdE;
use fd_core::estimate::{DelayMomentsEstimator, LossRateEstimator, WindowedLossRateEstimator};
use fd_core::FailureDetector;
use fd_core::HysteresisGate;
use fd_metrics::{FdOutput, OnlineQos, QosRequirements, QosTrackerState};
use fd_stats::OnlineStats;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

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

// Which payload word holds what: the one table `pack`, `unpack`,
// `unpack_status`, `output` and the partial write entries share. An
// `OnlineStats` takes three consecutive words (count, mean, m2) from
// its index.
const W_FLAGS: usize = 0;
const W_INCARNATION: usize = 1;
const W_ETA: usize = 2;
const W_ALPHA: usize = 3;
const W_ESTIMATOR_SAMPLES: usize = 4;
const W_RECOMMENDED_ETA: usize = 5;
const W_HEARTBEATS: usize = 6;
const W_STALE: usize = 7;
const W_SUSPICIONS: usize = 8;
const W_RECOVERIES: usize = 9;
const W_STALE_INCARNATION: usize = 10;
const W_INCARNATION_RESETS: usize = 11;
const W_QOS_ORIGIN: usize = 12;
const W_QOS_AT: usize = 13;
const W_SEGMENT_START: usize = 14;
const W_TRUST_TIME: usize = 15;
const W_SUSPECT_TIME: usize = 16;
const W_LAST_S: usize = 17;
const W_S_TRANSITIONS: usize = 18;
const W_T_TRANSITIONS: usize = 19;
const W_RECURRENCE: usize = 20;
const W_DURATION: usize = 23;
const W_GOOD: usize = 26;

/// Flag bits in word `W_FLAGS`.
const FLAG_SUSPECT: u64 = 1;
const FLAG_DEGRADED: u64 = 1 << 1;
const FLAG_SEGMENT_BY_TRANSITION: u64 = 1 << 2;
const FLAG_LAST_S_PRESENT: u64 = 1 << 3;
const FLAG_REC_ETA_PRESENT: u64 = 1 << 4;
const FLAG_QOS_SUSPECT: u64 = 1 << 5;

/// The flag bits [`Params`] sets.
fn params_flags(p: &Params) -> u64 {
    let flag = |on: bool, bit: u64| if on { bit } else { 0 };
    flag(p.qos_state == QosState::Degraded, FLAG_DEGRADED)
        | flag(p.recommended_eta.is_some(), FLAG_REC_ETA_PRESENT)
}

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

/// The words of a cell its record derives from the detector's `(η, α)`
/// and the control block's verdicts, which a retune or a control round
/// publishes again without a transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Params {
    pub eta: f64,
    pub alpha: f64,
    pub qos_state: QosState,
    pub recommended_eta: Option<f64>,
}

/// One word of a seqlock cell, as the protocol below uses it. The cell's
/// words are `AtomicU64`s loaded with `Acquire` and stored with
/// `Release`; the interleaving model in the tests substitutes a word
/// that lets a schedule run the writer between any two reader loads.
trait Word {
    fn load(&self) -> u64;
    fn store(&self, v: u64);
}

// `#[inline]`: `read_status` is instantiated in the caller's crate.
impl Word for AtomicU64 {
    #[inline]
    fn load(&self) -> u64 {
        self.load(Ordering::Acquire)
    }
    #[inline]
    fn store(&self, v: u64) {
        self.store(v, Ordering::Release);
    }
}

/// The write side of the seqlock: sequence odd, store `updates` (pairs
/// of word index and value), sequence even. Writers must be serialized
/// by the caller. A word not named keeps its value, so the version a
/// reader sees afterwards is the previous one with `updates` applied.
#[inline]
fn seqlock_write<W: Word>(seq: &W, words: &[W], updates: impl IntoIterator<Item = (usize, u64)>) {
    let s = seq.load();
    seq.store(s.wrapping_add(1));
    for (i, w) in updates {
        words[i].store(w);
    }
    seq.store(s.wrapping_add(2));
}

/// A writer's read-modify-write: loads the words `read`, then publishes
/// the updates `f` makes of them under one sequence bump. Writers are
/// serialized, so each load returns what the last publish stored — the
/// cell is the only copy of these words, and the writer reads them back
/// from it rather than keeping its own.
#[inline]
fn seqlock_update<W: Word, const K: usize, U: IntoIterator<Item = (usize, u64)>>(
    seq: &W,
    words: &[W],
    read: [usize; K],
    f: impl FnOnce([u64; K]) -> U,
) {
    let mut loaded = [0; K];
    for (v, &i) in loaded.iter_mut().zip(&read) {
        *v = words[i].load();
    }
    seqlock_write(seq, words, f(loaded));
}

/// The read side: the first `N` words of one version, retrying while
/// the sequence is odd or moved across the loads.
#[inline]
fn seqlock_read<W: Word, const N: usize>(seq: &W, words: &[W]) -> [u64; N] {
    loop {
        let s1 = seq.load();
        if s1 & 1 == 1 {
            std::hint::spin_loop();
            continue;
        }
        let mut out = [0u64; N];
        for (w, slot) in out.iter_mut().zip(&words[..N]) {
            *w = slot.load();
        }
        if seq.load() == s1 {
            return out;
        }
        std::hint::spin_loop();
    }
}

/// Seqlock-published per-peer cell: the write side (always under the
/// peer's shard *write* lock, so writers are serialized) bumps the
/// sequence odd, stores payload words, and bumps it even; readers
/// retry while the sequence is odd or changed across their loads.
///
/// Everything is an `AtomicU64` with `Acquire`/`Release` ordering — no
/// `unsafe`, no torn reads (each word is individually atomic; the
/// sequence check rejects mixed generations). A reader never blocks a
/// writer and vice versa: `status`/`snapshot`/exporter scrapes read
/// these cells while the hot record path holds the shard locks.
///
/// The cell is the only home of the words it publishes that the record
/// does not derive from its detector and control block: the counters,
/// the incarnation high-water mark and the QoS tracker, whose `at` is
/// the latest time the peer was driven to. The writer reads them back
/// from the cell. There are three ways to write.
/// [`publish`](Self::publish) stores every word.
/// [`publish_drive`](Self::publish_drive) (a drive without a transition,
/// maybe with new [`Params`]) and
/// [`publish_stale_incarnation`](Self::publish_stale_incarnation) load
/// the few words they change and store them back, under one sequence
/// bump.
pub(crate) struct PeerCell {
    seq: AtomicU64,
    words: [AtomicU64; CELL_WORDS],
}

impl std::fmt::Debug for PeerCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerCell").field("seq", &self.seq.load(Ordering::Relaxed)).finish()
    }
}

#[inline]
fn output_of(flags: u64, bit: u64) -> FdOutput {
    if flags & bit != 0 {
        FdOutput::Suspect
    } else {
        FdOutput::Trust
    }
}

fn stats_at(words: &[u64; CELL_WORDS], i: usize) -> OnlineStats {
    OnlineStats::from_parts(words[i], f64::from_bits(words[i + 1]), f64::from_bits(words[i + 2]))
}

/// A tracker holding only what accounting elapsed time reads and
/// writes — `at`, the output and the two time sums — so that a drive
/// without a transition runs [`OnlineQos::advance`] on the cell's words
/// without unpacking the interval accumulators. Every other field takes
/// the value of a tracker started at `at`.
fn time_tracker(at: f64, output: FdOutput, trust_time: f64, suspect_time: f64) -> OnlineQos {
    OnlineQos::from_state(QosTrackerState {
        origin: at,
        at,
        output,
        segment_start: at,
        segment_opened_by_transition: false,
        trust_time,
        suspect_time,
        last_s: None,
        s_transitions: 0,
        t_transitions: 0,
        recurrence: OnlineStats::new(),
        duration: OnlineStats::new(),
        good: OnlineStats::new(),
    })
    .expect("a published tracker's time is finite and its sums are non-negative")
}

impl PeerCell {
    pub fn new() -> Self {
        Self { seq: AtomicU64::new(0), words: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    fn pack(p: &PublishedPeer) -> [u64; CELL_WORDS] {
        let q = &p.qos;
        let flag = |on: bool, bit: u64| if on { bit } else { 0 };
        let params = Params {
            eta: p.eta,
            alpha: p.alpha,
            qos_state: p.qos_state,
            recommended_eta: p.recommended_eta,
        };
        let mut w = [0u64; CELL_WORDS];
        w[W_FLAGS] = flag(p.output == FdOutput::Suspect, FLAG_SUSPECT)
            | params_flags(&params)
            | flag(q.segment_opened_by_transition, FLAG_SEGMENT_BY_TRANSITION)
            | flag(q.last_s.is_some(), FLAG_LAST_S_PRESENT)
            | flag(q.output == FdOutput::Suspect, FLAG_QOS_SUSPECT);
        w[W_INCARNATION] = p.incarnation;
        w[W_ETA] = p.eta.to_bits();
        w[W_ALPHA] = p.alpha.to_bits();
        w[W_ESTIMATOR_SAMPLES] = p.estimator_samples;
        w[W_RECOMMENDED_ETA] = p.recommended_eta.unwrap_or(0.0).to_bits();
        w[W_HEARTBEATS] = p.counters.heartbeats;
        w[W_STALE] = p.counters.stale;
        w[W_SUSPICIONS] = p.counters.suspicions;
        w[W_RECOVERIES] = p.counters.recoveries;
        w[W_STALE_INCARNATION] = p.counters.stale_incarnation;
        w[W_INCARNATION_RESETS] = p.counters.incarnation_resets;
        w[W_QOS_ORIGIN] = q.origin.to_bits();
        w[W_QOS_AT] = q.at.to_bits();
        w[W_SEGMENT_START] = q.segment_start.to_bits();
        w[W_TRUST_TIME] = q.trust_time.to_bits();
        w[W_SUSPECT_TIME] = q.suspect_time.to_bits();
        w[W_LAST_S] = q.last_s.unwrap_or(0.0).to_bits();
        w[W_S_TRANSITIONS] = q.s_transitions;
        w[W_T_TRANSITIONS] = q.t_transitions;
        for (i, s) in [(W_RECURRENCE, q.recurrence), (W_DURATION, q.duration), (W_GOOD, q.good)] {
            w[i] = s.count();
            w[i + 1] = s.mean().to_bits();
            w[i + 2] = s.m2().to_bits();
        }
        w
    }

    #[inline]
    fn unpack_status(words: &[u64; STATUS_WORDS]) -> PublishedStatus {
        let flags = words[W_FLAGS];
        PublishedStatus {
            output: output_of(flags, FLAG_SUSPECT),
            incarnation: words[W_INCARNATION],
            eta: f64::from_bits(words[W_ETA]),
            alpha: f64::from_bits(words[W_ALPHA]),
            estimator_samples: words[W_ESTIMATOR_SAMPLES],
            counters: PeerCounters {
                heartbeats: words[W_HEARTBEATS],
                stale: words[W_STALE],
                suspicions: words[W_SUSPICIONS],
                recoveries: words[W_RECOVERIES],
                stale_incarnation: words[W_STALE_INCARNATION],
                incarnation_resets: words[W_INCARNATION_RESETS],
            },
            qos_state: if flags & FLAG_DEGRADED != 0 {
                QosState::Degraded
            } else {
                QosState::Nominal
            },
            recommended_eta: (flags & FLAG_REC_ETA_PRESENT != 0)
                .then(|| f64::from_bits(words[W_RECOMMENDED_ETA])),
        }
    }

    fn unpack(words: &[u64; CELL_WORDS]) -> PublishedPeer {
        let flags = words[W_FLAGS];
        let s = Self::unpack_status(words.first_chunk().expect("the status prefix"));
        PublishedPeer {
            output: s.output,
            incarnation: s.incarnation,
            eta: s.eta,
            alpha: s.alpha,
            estimator_samples: s.estimator_samples,
            counters: s.counters,
            qos_state: s.qos_state,
            recommended_eta: s.recommended_eta,
            qos: QosTrackerState {
                origin: f64::from_bits(words[W_QOS_ORIGIN]),
                at: f64::from_bits(words[W_QOS_AT]),
                output: output_of(flags, FLAG_QOS_SUSPECT),
                segment_start: f64::from_bits(words[W_SEGMENT_START]),
                segment_opened_by_transition: flags & FLAG_SEGMENT_BY_TRANSITION != 0,
                trust_time: f64::from_bits(words[W_TRUST_TIME]),
                suspect_time: f64::from_bits(words[W_SUSPECT_TIME]),
                last_s: (flags & FLAG_LAST_S_PRESENT != 0)
                    .then(|| f64::from_bits(words[W_LAST_S])),
                s_transitions: words[W_S_TRANSITIONS],
                t_transitions: words[W_T_TRANSITIONS],
                recurrence: stats_at(words, W_RECURRENCE),
                duration: stats_at(words, W_DURATION),
                good: stats_at(words, W_GOOD),
            },
        }
    }

    /// Publishes a new version, every word of it. Callers must hold the
    /// peer's shard *write* lock — that serializes writers, which the
    /// odd/even sequence protocol requires.
    pub fn publish(&self, p: &PublishedPeer) {
        seqlock_write(&self.seq, &self.words, Self::pack(p).into_iter().enumerate());
    }

    /// One of the cell's words, read back by its writer — the caller
    /// holds the shard write lock, so no publish is under way.
    fn own(&self, i: usize) -> u64 {
        Word::load(&self.words[i])
    }

    /// The highest sender incarnation seen from the peer. Heartbeats
    /// below it are rejected; one above it resets the detector
    /// (crash-recovery model: a restarted peer starts a fresh monitoring
    /// epoch). Write side, like [`publish`](Self::publish).
    pub fn incarnation(&self) -> u64 {
        self.own(W_INCARNATION)
    }

    /// The tracker's `at`: the latest local time the peer's detector was
    /// driven to. Every drive clamps to it, so the detector's
    /// monotone-time contract holds. Write side, like
    /// [`publish`](Self::publish).
    pub fn latest(&self) -> f64 {
        f64::from_bits(self.own(W_QOS_AT))
    }

    /// The output the tracker accounted last. Write side, like
    /// [`publish`](Self::publish).
    pub(crate) fn tracker_output(&self) -> FdOutput {
        output_of(self.own(W_FLAGS), FLAG_QOS_SUSPECT)
    }

    /// Publishes a drive to `at` that changed neither the output nor the
    /// incarnation: the tracker accounts the elapsed time, a heartbeat
    /// (`Some(fresh)`) counts itself, and `estimator_samples` replaces
    /// its word — six words. `Some(params)` replaces the flags, `(η, α)`
    /// and recommended-`η` words too; `None` leaves them what they were.
    /// Same locking as [`publish`](Self::publish).
    pub fn publish_drive(
        &self,
        at: f64,
        estimator_samples: u64,
        heartbeat: Option<bool>,
        params: Option<Params>,
    ) {
        let read = [W_FLAGS, W_HEARTBEATS, W_STALE, W_QOS_AT, W_TRUST_TIME, W_SUSPECT_TIME];
        let drive = |[flags, heartbeats, stale, latest, t, s]: [u64; 6]| {
            let output = output_of(flags, FLAG_QOS_SUSPECT);
            let (latest, t, s) = (f64::from_bits(latest), f64::from_bits(t), f64::from_bits(s));
            let mut qos = time_tracker(latest, output, t, s);
            qos.advance(at);
            let (beat, stale_beat) = heartbeat.map_or((0, 0), |fresh| (1, u64::from(!fresh)));
            [
                (W_ESTIMATOR_SAMPLES, estimator_samples),
                (W_HEARTBEATS, heartbeats + beat),
                (W_STALE, stale + stale_beat),
                (W_QOS_AT, qos.latest().to_bits()),
                (W_TRUST_TIME, qos.trust_time().to_bits()),
                (W_SUSPECT_TIME, qos.suspect_time().to_bits()),
            ]
        };
        // Two fixed-size writes rather than one chained iterator, so
        // each store loop unrolls.
        let Some(p) = params else {
            return seqlock_update(&self.seq, &self.words, read, drive);
        };
        seqlock_update(&self.seq, &self.words, read, |words| {
            let [a, b, c, d, e, f] = drive(words);
            let flags = words[0] & !(FLAG_DEGRADED | FLAG_REC_ETA_PRESENT) | params_flags(&p);
            let recommended_eta = p.recommended_eta.unwrap_or(0.0).to_bits();
            [
                a,
                b,
                c,
                d,
                e,
                f,
                (W_FLAGS, flags),
                (W_ETA, p.eta.to_bits()),
                (W_ALPHA, p.alpha.to_bits()),
                (W_RECOMMENDED_ETA, recommended_eta),
            ]
        })
    }

    /// Publishes a rejected stale-incarnation heartbeat, which counts
    /// itself in one word. Same locking as [`publish`](Self::publish).
    pub fn publish_stale_incarnation(&self) {
        let read = [W_STALE_INCARNATION];
        seqlock_update(&self.seq, &self.words, read, |[n]| [(W_STALE_INCARNATION, n + 1)]);
    }

    /// Reads a consistent version, retrying across concurrent writes.
    pub fn read(&self) -> PublishedPeer {
        Self::unpack(&seqlock_read(&self.seq, &self.words))
    }

    /// Reads just the status prefix (words `0..STATUS_WORDS`) under the
    /// same seqlock protocol — less than half the loads of a full
    /// [`read`](Self::read) and no `OnlineStats` reconstruction, which
    /// keeps per-peer `status()` scrapes cheaper than a locked lookup.
    #[inline]
    pub fn read_status(&self) -> PublishedStatus {
        Self::unpack_status(&seqlock_read(&self.seq, &self.words))
    }

    /// The current output alone — a single atomic load, no retry loop
    /// needed (one word can't tear).
    pub fn output(&self) -> FdOutput {
        output_of(self.words[W_FLAGS].load(Ordering::Acquire), FLAG_SUSPECT)
    }
}

/// One drive of a peer's detector, as its cell accounts it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Drive {
    /// The time the detector was driven to, already clamped to
    /// [`PeerCell::latest`].
    pub at: f64,
    /// `Some(fresh)` when a heartbeat drove it; `fresh` when its
    /// sequence number was above every one seen before.
    pub heartbeat: Option<bool>,
    /// The incarnation of the new life that heartbeat opened.
    pub new_life: Option<u64>,
    /// Whether the record's [`Params`] changed with the drive — a
    /// retune, a control verdict — so that they are published again.
    pub republish: bool,
}

impl Drive {
    /// A drive to `at` by the clock alone: a timer fire or a sweep.
    pub fn to(at: f64) -> Self {
        Self { at, heartbeat: None, new_life: None, republish: false }
    }
}

/// Everything the cluster tracks for one peer. Guarded by its shard's
/// `RwLock`; the shard's table holds a `Box` of it, so a bucket — and
/// what table slack and a growth rehash cost per peer — is a key and a
/// pointer.
///
/// What the seqlock cell publishes and this record cannot derive from
/// its detector or its control block lives in the cell alone: the
/// counters, the incarnation high-water mark and the QoS tracker —
/// online interval accounting over the peer's output stream (the live
/// §2.2/§2.3 metrics: `P_A`, `E(T_MR)`, `E(T_M)`, `E(T_G)`), which
/// tracks the output across incarnation resets and starts fresh only on
/// remove/re-add. The writer holds the shard write lock, so it reads
/// those words back from the cell ([`PeerCell::incarnation`],
/// [`PeerCell::latest`]) and stores the ones a drive changes
/// ([`publish_drive`](Self::publish_drive)).
///
/// The peer's output is not a field: it is `detector.output()`, and the
/// output as of the last accounted drive (what a transition is judged
/// against) is the tracker's. Every path that drives the detector
/// publishes the drive before it releases the shard lock, so outside the
/// lock the two agree.
#[derive(Debug)]
pub(crate) struct PeerState {
    /// The §6.3 freshness-point detector with its sliding-window
    /// expected-arrival estimator.
    pub detector: NfdE,
    /// Registration generation; wheel entries from before a remove/re-add
    /// (or from before an incarnation reset) carry an older generation
    /// and are discarded.
    pub gen: u64,
    /// Whether a wheel entry is currently outstanding for this peer (at
    /// most one at a time; see `monitor`).
    pub armed: bool,
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
const _: () = assert!(std::mem::size_of::<PeerState>() <= 168);
const _: () = assert!(std::mem::size_of::<Option<Box<ControlState>>>() == 8);

impl PeerState {
    /// A peer's record with its first version published: `incarnation`,
    /// `counters` and `qos` go to the cell, their only home. Publishing
    /// before the caller makes the cell reachable through the index means
    /// a lock-free reader never sees a zeroed cell.
    pub fn registered(
        detector: NfdE,
        gen: u64,
        control: Option<Box<ControlState>>,
        incarnation: u64,
        counters: PeerCounters,
        qos: &OnlineQos,
    ) -> Box<Self> {
        let state =
            Box::new(Self { detector, gen, armed: false, control, cell: Arc::new(PeerCell::new()) });
        state.cell.publish(&state.published(incarnation, counters, qos.state()));
        state
    }

    /// The words the record derives from its detector and control block.
    fn params(&self) -> Params {
        let ctl = self.control.as_deref();
        Params {
            eta: self.detector.eta(),
            alpha: self.detector.alpha(),
            qos_state: ctl.map(|c| c.qos_state).unwrap_or_default(),
            recommended_eta: ctl.and_then(|c| c.recommended_eta),
        }
    }

    /// The version a full publish writes: the record's detector and
    /// control verdicts beside the cell's own words.
    fn published(
        &self,
        incarnation: u64,
        counters: PeerCounters,
        qos: QosTrackerState,
    ) -> PublishedPeer {
        let params = self.params();
        PublishedPeer {
            output: self.detector.output(),
            incarnation,
            eta: params.eta,
            alpha: params.alpha,
            estimator_samples: self.detector.estimator_len() as u64,
            counters,
            qos_state: params.qos_state,
            recommended_eta: params.recommended_eta,
            qos,
        }
    }

    /// Accounts `drive` in the cell and publishes it, returning the
    /// detector's new output if the drive made it transition. Call while
    /// still holding the shard write lock, which is what serializes cell
    /// writers. A drive that changes neither the output nor the
    /// incarnation stores the words [`PeerCell::publish_drive`] computes;
    /// any other goes through [`publish_changed`](Self::publish_changed).
    #[inline]
    pub fn publish_drive(&self, drive: Drive) -> Option<FdOutput> {
        if self.detector.output() != self.cell.tracker_output() || drive.new_life.is_some() {
            return self.publish_changed(drive);
        }
        let samples = self.detector.estimator_len() as u64;
        let params = drive.republish.then(|| self.params());
        self.cell.publish_drive(drive.at, samples, drive.heartbeat, params);
        None
    }

    /// [`publish_drive`](Self::publish_drive) for a transition or a new
    /// life: runs the tracker's [`OnlineQos::observe`] on the unpacked
    /// cell and publishes every word. Out of line, so that the heartbeat
    /// path stays short.
    #[inline(never)]
    fn publish_changed(&self, drive: Drive) -> Option<FdOutput> {
        let output = self.detector.output();
        let p = self.cell.read();
        let mut qos = OnlineQos::from_state(p.qos).expect("the cell holds a tracker's own state");
        let transition = (output != qos.output()).then_some(output);
        qos.observe(drive.at, output);
        let mut c = p.counters;
        if let Some(fresh) = drive.heartbeat {
            c.heartbeats += 1;
            c.stale += u64::from(!fresh);
        }
        match transition {
            Some(FdOutput::Trust) => c.recoveries += 1,
            Some(FdOutput::Suspect) => c.suspicions += 1,
            None => {}
        }
        let incarnation = drive.new_life.map_or(p.incarnation, |life| {
            c.incarnation_resets += 1;
            life
        });
        self.cell.publish(&self.published(incarnation, c, qos.state()));
        transition
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
        unpoison(self.published.read()).len()
    }

    /// Registers `peer`'s cell in the published index. Call right after
    /// inserting the peer into its shard (shard lock still held keeps
    /// add/remove races ordered).
    pub fn publish_cell(&self, peer: PeerId, cell: Arc<PeerCell>) {
        unpoison(self.published.write()).insert(peer, cell);
    }

    /// Drops `peer` from the published index (on remove).
    pub fn retract_cell(&self, peer: PeerId) {
        unpoison(self.published.write()).remove(&peer);
    }

    /// The published cell for one peer, if registered.
    pub fn cell(&self, peer: PeerId) -> Option<Arc<PeerCell>> {
        unpoison(self.published.read()).get(&peer).cloned()
    }

    /// A point-in-time list of `(peer, cell)` pairs — the whole cluster,
    /// one brief read lock on the index, zero shard locks.
    pub fn published_cells(&self) -> Vec<(PeerId, Arc<PeerCell>)> {
        unpoison(self.published.read()).iter().map(|(p, c)| (*p, Arc::clone(c))).collect()
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

    /// §8.1.2: the combined estimate keeps the worse horizon on each
    /// axis, whichever horizon that is.
    #[test]
    fn conservative_estimate_takes_worst_component() {
        let cfg = ControlConfig {
            short_loss_span: 8,
            short_delay_window: 8,
            long_delay_window: 64,
            ..ControlConfig::default()
        };
        let req = QosRequirements::new(4.0, 1000.0, 2.0).unwrap();
        let mut ctl = ControlState::new(&cfg, req);
        // Lossy, jittery early history fills the long horizons…
        for i in 0..40u64 {
            let seq = 1 + i * 2; // every other heartbeat lost
            let jitter = if i.is_multiple_of(2) { 0.01 } else { 0.4 };
            ctl.observe(seq, seq as f64, seq as f64 + jitter, true);
        }
        // …then a clean recent burst fills the short ones.
        for seq in 81..=88u64 {
            ctl.observe(seq, seq as f64, seq as f64 + 0.05, true);
        }
        assert_eq!(ctl.short_loss.estimate(), Some(0.0));
        assert!(ctl.short_delay.delay_variance().unwrap() < 1e-12);
        let (p_l, v) = ctl.estimate(cfg.min_delay_samples).unwrap();
        // Short-term loss is 0 but the lifetime remembers the losses…
        assert_eq!(p_l, 1.0 - 48.0 / 88.0);
        // …and the long delay window remembers the jitter.
        assert_eq!(Some(v), ctl.long_delay.delay_variance());
        assert!(v > 0.01, "V̂ = {v}");

        // A fresh loss burst (89..=95 lost) shows in the short horizon
        // first, and the combined estimate follows it there.
        ctl.observe(96, 96.0, 96.05, true);
        let short = ctl.short_loss.estimate().unwrap();
        assert!(short > ctl.long_loss.estimate().unwrap(), "short p̂ = {short}");
        assert_eq!(ctl.estimate(cfg.min_delay_samples).unwrap().0, short);
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
            output: if tag.is_multiple_of(2) { FdOutput::Trust } else { FdOutput::Suspect },
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
            qos_state: if tag.is_multiple_of(3) { QosState::Degraded } else { QosState::Nominal },
            recommended_eta: tag.is_multiple_of(4).then_some(0.02 + t * 1e-6),
            qos: QosTrackerState {
                origin: 0.0,
                at: t + 1.0,
                output: if tag.is_multiple_of(2) { FdOutput::Trust } else { FdOutput::Suspect },
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

    /// The drive the tests apply to `sample_published(tag)`: a stale
    /// heartbeat one second after its tracker's `at`, which leaves
    /// `tag * 3 + 1` samples in the window.
    fn drive_sample(cell: &PeerCell, tag: u64) {
        cell.publish_drive(tag as f64 + 2.0, tag * 3 + 1, Some(false), None);
    }

    /// `sample_published(tag)` as [`drive_sample`] leaves it: the six
    /// drive words move, every other word keeps its value.
    fn sample_driven(tag: u64) -> PublishedPeer {
        let mut p = sample_published(tag);
        p.estimator_samples = tag * 3 + 1;
        p.counters.heartbeats += 1;
        p.counters.stale += 1;
        p.qos.at += 1.0;
        match p.qos.output {
            FdOutput::Trust => p.qos.trust_time += 1.0,
            FdOutput::Suspect => p.qos.suspect_time += 1.0,
        }
        p
    }

    #[test]
    fn a_drive_and_a_reject_change_exactly_their_words() {
        let cell = PeerCell::new();
        // A trusting and a suspecting tracker each account the second.
        for tag in [12u64, 13] {
            cell.publish(&sample_published(tag));
            drive_sample(&cell, tag);
            assert_eq!(cell.read(), sample_driven(tag), "tag {tag}");
        }
        // The writer reads its own words back.
        let before = cell.read();
        assert_eq!(cell.incarnation(), before.incarnation);
        assert_eq!(cell.latest(), before.qos.at);
        assert_eq!(cell.tracker_output(), before.qos.output);
        // A drive to an earlier time is clamped to the tracker's `at`.
        cell.publish_drive(0.0, before.estimator_samples, None, None);
        assert_eq!(cell.read(), before, "a clamped drive moved a word");
        // A fresh heartbeat at the same instant counts only itself.
        cell.publish_drive(before.qos.at, before.estimator_samples, Some(true), None);
        let mut expected = before;
        expected.counters.heartbeats += 1;
        assert_eq!(cell.read(), expected, "a fresh heartbeat counted as stale");
        // New params replace their words and flag bits, in both
        // directions, and keep the tracker's flags.
        for (qos_state, recommended_eta) in
            [(QosState::Degraded, Some(0.5)), (QosState::Nominal, None)]
        {
            let params = Params { eta: 0.25, alpha: 0.75, qos_state, recommended_eta };
            cell.publish_drive(expected.qos.at, expected.estimator_samples, None, Some(params));
            (expected.eta, expected.alpha) = (params.eta, params.alpha);
            (expected.qos_state, expected.recommended_eta) = (qos_state, recommended_eta);
            assert_eq!(cell.read(), expected, "params {params:?}");
        }

        // A stale-incarnation reject makes one counter visible.
        let before = cell.read();
        cell.publish_stale_incarnation();
        let mut expected = before;
        expected.counters.stale_incarnation += 1;
        assert_eq!(cell.read(), expected, "a reject changed more than its counter");
        assert_eq!(cell.read_status().counters, expected.counters);
    }

    #[test]
    fn seqlock_readers_never_observe_mixed_generations() {
        use std::sync::atomic::{AtomicBool, AtomicUsize};

        // Each version is self-consistent: a full publish derives every
        // word from `tag`, and the drive that follows it moves six of
        // them to `sample_driven(tag)`, so a read mixing two versions
        // fails the cross-checks below. The writer alternates the two
        // entries. It starts once every reader has completed a read,
        // and after each burst of publishes waits for one more read to
        // complete: a writer publishing back to back starves seqlock
        // readers, and the next burst lands on the reads then under
        // way. It stops when each reader has seen `ENOUGH` versions (or
        // at `MAX_TAG`, so a starved reader ends the test, not hangs it).
        const READERS: usize = 3;
        const ENOUGH: usize = 1_000;
        const MAX_TAG: u64 = 1_000_000;
        const BURST: usize = 4;
        let cell = PeerCell::new();
        cell.publish(&sample_published(0));
        let reads = AtomicU64::new(0);
        let started = AtomicUsize::new(0);
        let satisfied = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let last_tag = std::thread::scope(|s| {
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    s.spawn(|| {
                        let (mut seen, mut last) = (0usize, (u64::MAX, false));
                        while !stop.load(Ordering::Relaxed) {
                            let p = cell.read();
                            let tag = p.incarnation;
                            let driven = p.counters.stale != tag;
                            assert!(!driven || p.counters.stale == tag + 1, "tag {tag}: {p:?}");
                            let beats = tag * 10 + u64::from(driven);
                            assert_eq!(p.counters.heartbeats, beats, "torn drive at tag {tag}");
                            let at = tag as f64 + if driven { 2.0 } else { 1.0 };
                            assert_eq!(p.qos.at, at, "torn drive at tag {tag}");
                            assert_eq!(p.qos.s_transitions, tag, "torn read at tag {tag}");
                            assert_eq!(p.qos.t_transitions, tag + 1, "torn read at tag {tag}");
                            assert_eq!(p.qos.recurrence.count(), tag, "torn read at tag {tag}");
                            let whole =
                                if driven { sample_driven(tag) } else { sample_published(tag) };
                            assert_eq!(p, whole, "torn read at tag {tag}");
                            reads.fetch_add(1, Ordering::Relaxed);
                            if seen == 0 {
                                started.fetch_add(1, Ordering::Relaxed);
                            }
                            if last == (tag, driven) {
                                // Nothing new: let the writer have the
                                // core if it is waiting for one.
                                std::thread::yield_now();
                                continue;
                            }
                            last = (tag, driven);
                            seen += 1;
                            if seen == ENOUGH {
                                satisfied.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        seen
                    })
                })
                .collect();

            // A reader that failed a cross-check has finished: stop
            // waiting for it and let the join below report the panic.
            let reader_died = || readers.iter().any(|r| r.is_finished());
            while started.load(Ordering::Relaxed) < READERS && !reader_died() {
                std::thread::yield_now();
            }
            let mut tag = 1u64;
            while satisfied.load(Ordering::Relaxed) < READERS && tag < MAX_TAG && !reader_died() {
                let since = reads.load(Ordering::Relaxed);
                for _ in 0..BURST {
                    cell.publish(&sample_published(tag));
                    drive_sample(&cell, tag);
                    tag += 1;
                }
                while reads.load(Ordering::Relaxed) == since && !reader_died() {
                    std::thread::yield_now();
                }
            }
            stop.store(true, Ordering::Relaxed);
            for r in readers {
                assert!(r.join().expect("reader panicked") > 0);
            }
            tag - 1
        });
        assert_eq!(cell.read(), sample_driven(last_tag));
    }

    /// The memory the interleaving model runs the seqlock over: word 0
    /// is the sequence, the rest the payload. The writer's stores are
    /// recorded once, in program order; a schedule then says how many
    /// of them reach memory before each of the reader's loads.
    struct Sim {
        mem: Vec<u64>,
        /// The writer's stores `(location, value)`, in program order.
        trace: Vec<(usize, u64)>,
        /// How many of them memory has seen.
        applied: usize,
        /// Writer steps to run before the reader's i-th load; once the
        /// reader has used them up the writer runs to completion.
        gaps: Vec<usize>,
        /// What the reader loaded, in program order.
        loads: Vec<(usize, u64)>,
    }

    struct SimWord<'a> {
        sim: &'a std::cell::RefCell<Sim>,
        loc: usize,
        reader: bool,
    }

    impl Word for SimWord<'_> {
        fn load(&self) -> u64 {
            let mut sim = self.sim.borrow_mut();
            if self.reader {
                let steps = sim.gaps.get(sim.loads.len()).copied().unwrap_or(usize::MAX);
                let upto = sim.applied.saturating_add(steps).min(sim.trace.len());
                for i in sim.applied..upto {
                    let (loc, v) = sim.trace[i];
                    sim.mem[loc] = v;
                }
                sim.applied = upto;
                let v = sim.mem[self.loc];
                sim.loads.push((self.loc, v));
                return v;
            }
            sim.mem[self.loc]
        }

        fn store(&self, v: u64) {
            assert!(!self.reader, "a reader stores nothing");
            let mut sim = self.sim.borrow_mut();
            sim.mem[self.loc] = v;
            sim.trace.push((self.loc, v));
        }
    }

    fn sim_words(sim: &std::cell::RefCell<Sim>, reader: bool) -> Vec<SimWord<'_>> {
        (0..sim.borrow().mem.len()).map(|loc| SimWord { sim, loc, reader }).collect()
    }

    /// Runs `seqlock_read::<N>` under every placement of the writer's
    /// `trace` between the reader's first `N + 2` loads, starting from
    /// `images[0]`. Returns how many schedules ran, how many of them
    /// made the reader retry, and which images were returned; `Err`
    /// describes the first schedule whose read returned anything but
    /// the image of the publish its (even, unchanged) sequence names.
    fn explore<const N: usize>(
        trace: &[(usize, u64)],
        images: &[Vec<u64>],
    ) -> Result<(usize, usize, Vec<bool>), String> {
        let attempt = N + 2;
        let (mut schedules, mut retried, mut returned) = (0, 0, vec![false; images.len()]);
        let mut gaps = vec![0usize; attempt];
        loop {
            let mut mem = vec![0];
            mem.extend(&images[0]);
            let sim = std::cell::RefCell::new(Sim {
                mem,
                trace: trace.to_vec(),
                applied: 0,
                gaps: gaps.clone(),
                loads: Vec::new(),
            });
            let words = sim_words(&sim, true);
            let (seq, words) = words.split_first().expect("the sequence word");
            let got: [u64; N] = seqlock_read(seq, words);
            let loads = std::mem::take(&mut sim.borrow_mut().loads);
            schedules += 1;
            retried += usize::from(loads.len() > attempt);
            let last = &loads[loads.len() - attempt..];
            let (first, second) = (last[0], last[attempt - 1]);
            let ok = first.0 == 0
                && second == first
                && first.1 % 2 == 0
                && images.get(first.1 as usize / 2).is_some_and(|img| img[..N] == got);
            if !ok {
                return Err(format!("gaps {gaps:?}: loads {loads:?} returned {got:?}"));
            }
            returned[first.1 as usize / 2] = true;
            // Next composition: gaps summing to at most `trace.len()`.
            let mut i = attempt;
            loop {
                if i == 0 {
                    return Ok((schedules, retried, returned));
                }
                i -= 1;
                if gaps.iter().sum::<usize>() < trace.len() {
                    gaps[i] += 1;
                    break;
                }
                gaps[i] = 0;
            }
        }
    }

    /// Exhaustive check of the cell protocol on a 3-word cell: the real
    /// writers — `seqlock_write` (full), `seqlock_update` (a
    /// read-modify-write of two words, loading them back first),
    /// `seqlock_write` (full) — are recorded over
    /// [`SimWord`]s, then the real `seqlock_read` runs under every
    /// sequentially consistent interleaving of those 14 stores with one
    /// read attempt's loads — C(19, 5) = 11 628 schedules for a whole
    /// read, C(17, 3) = 680 for a one-word prefix read. An attempt
    /// carries nothing over from the attempt before it, so whatever a
    /// `read` returns after any number of retries is what this attempt,
    /// started where that last one started, returns; what happens after
    /// a failed attempt is run too (the writer then finishes first).
    ///
    /// This covers interleavings, not weak-memory reorderings — and
    /// interleavings are all there are to cover: every load is
    /// `Acquire`, so the reader's loads take effect in program order,
    /// and every store is `Release`, so a reader that sees one of the
    /// writer's stores also sees every store before it. A reader whose
    /// first sequence load returned `2k` therefore sees at least
    /// publish `k`'s words, and one that saw any word of a later
    /// publish sees that publish's odd sequence on its second sequence
    /// load and retries. The writer's own loads read words no one else
    /// stores to, so they return its last store under any schedule; the
    /// model runs them against the writer's memory, outside the
    /// schedule.
    #[test]
    fn seqlock_model_returns_only_completed_publishes_under_every_interleaving() {
        let images = [vec![10, 20, 30], vec![11, 21, 31], vec![12, 21, 32], vec![13, 23, 33]];
        let mut mem = vec![0];
        mem.extend(&images[0]);
        let sim = std::cell::RefCell::new(Sim {
            mem,
            trace: Vec::new(),
            applied: 0,
            gaps: Vec::new(),
            loads: Vec::new(),
        });
        let words = sim_words(&sim, false);
        let (seq, words) = words.split_first().expect("the sequence word");
        let full = |img: &[u64]| img.iter().copied().enumerate().collect::<Vec<_>>();
        seqlock_write(seq, words, full(&images[1]));
        seqlock_update(seq, words, [0, 2], |[a, c]| [(0, a + 1), (2, c + 1)]);
        seqlock_write(seq, words, full(&images[3]));
        assert_eq!(sim.borrow().mem, [6, 13, 23, 33]);
        let trace = std::mem::take(&mut sim.borrow_mut().trace);
        assert_eq!(trace.len(), 14);

        let started = std::time::Instant::now();
        let (schedules, retried, returned) = explore::<3>(&trace, &images).expect("whole read");
        assert_eq!(schedules, 11_628);
        assert!(retried > 0 && returned.iter().all(|&r| r), "{retried} retries, {returned:?}");
        let (schedules, _, returned) = explore::<1>(&trace, &images).expect("prefix read");
        assert_eq!(schedules, 680);
        assert!(returned.iter().all(|&r| r));
        assert!(started.elapsed() < std::time::Duration::from_secs(1), "{:?}", started.elapsed());

        // The model has teeth: a writer that forgets the odd bump, or
        // bumps the sequence even before its last word, is caught.
        let odd_dropped: Vec<_> =
            trace.iter().copied().filter(|&(loc, v)| loc != 0 || v % 2 == 0).collect();
        assert!(explore::<3>(&odd_dropped, &images).is_err());
        let mut early_even = trace.clone();
        early_even.swap(3, 4);
        assert!(explore::<3>(&early_even, &images).is_err());
    }
}
