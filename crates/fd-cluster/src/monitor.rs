//! The cluster façade: N peers, one sweep, time as an argument.
//!
//! [`ClusterMonitor`] owns the sharded registry and the timer wheel.
//! Each peer runs its own NFD-E instance (per-peer `η`, `α`, estimation
//! window), so the paper's per-peer QoS analysis applies unchanged; the
//! cluster layer only changes *who drives the timers* — one wheel sweep,
//! `Inner::tick_at(now)`, instead of a thread per peer. A
//! [`spawn`](ClusterMonitor::spawn)ed monitor's supervised ticker thread
//! runs it every `tick` seconds of wall time, adding at most one `tick`
//! of scheduling slack to the detection time. A
//! [`manual`](ClusterMonitor::manual) monitor has no thread and no wall
//! clock: [`advance_to`](ClusterMonitor::advance_to) *is* the sweep, and
//! whatever else reads the time (`add_peer`, `qos`, `snapshot`, a control
//! round, a snapshot write) reads the latest the monitor was handed —
//! scripted times in, every transition at exactly those times out.
//!
//! # Crash-recovery model
//!
//! Three mechanisms harden the monitor for the crash-recovery setting
//! (processes crash, restart, and rejoin — the model the paper's §3
//! crash-stop analysis deliberately brackets out):
//!
//! * **Incarnations** — every heartbeat can carry the sender's
//!   incarnation ([`record_incarnated`](ClusterMonitor::record_incarnated)).
//!   A heartbeat below the peer's highest-seen incarnation is from a
//!   previous life — possibly delayed in flight across the crash — and
//!   is rejected (it must not refresh trust in the restarted process).
//!   A heartbeat *above* it atomically resets the peer's detector,
//!   freshness timer and estimator window: sequence numbers restart at
//!   1 in each life, so the old `max_seq` would otherwise discard the
//!   new life's heartbeats as stale.
//! * **State snapshots** — with [`ClusterConfig::snapshot_path`] set,
//!   the control thread periodically (and
//!   [`shutdown`](ClusterMonitor::shutdown) finally) streams every
//!   peer's estimator window, sequence/incarnation high-water marks and
//!   QoS counters to disk via [`crate::snapshot`], one shard at a time,
//!   off the ticker, so a write never delays a freshness check; both
//!   constructors restore them, so a restarted monitor resumes at the
//!   snapshot's `taken_at` with *warm* §6.3 arrival estimates instead of
//!   re-converging from an empty window. Restored peers start suspected
//!   (fail-safe: a restored window is evidence about the past, not about
//!   who is alive *now*) and are re-trusted by their first fresh
//!   heartbeat. A snapshot that fails validation anywhere is counted in
//!   [`ClusterStats::snapshot_errors`] and ignored whole: a cold start.
//! * **Supervision** — the ticker runs under the crate's one restart
//!   loop ([`crate::backoff`]): a panic degrades the queryable
//!   [`ticker_health`](ClusterMonitor::ticker_health) and restarts the
//!   sweep loop after a jittered exponential pause, up to the crate's
//!   one restart budget; exhausting it stops the ticker (reported as
//!   [`Health::Stopped`]). Sweeps are bounded by
//!   [`ClusterConfig::max_expirations_per_sweep`] — an expiry storm
//!   defers the excess to the next sweep (counted) instead of holding
//!   shard locks for an unbounded stretch.
//!
//! Concurrency protocol (deadlock discipline): lock order is **shard,
//! then wheel**. Both the heartbeat-recording path and the ticker's
//! rescheduling path take a shard write lock first and the wheel mutex
//! inside it; the ticker's sweep itself takes the wheel mutex alone and
//! collects expirations into a local buffer before touching any shard.
//! No path holds two shard locks at once — a batch
//! ([`record_batch_at`](ClusterMonitor::record_batch_at)) visits the
//! shards it touches one after the other, in index order — and the
//! subscriber list is locked (events emitted) only with every shard
//! lock released. A snapshot write takes its writer mutex first, then
//! one shard *read* lock at a time, released before the file is touched.
//! Each peer has at most one outstanding wheel entry (`armed`), created
//! when a deadline first appears and renewed by the sweep; entries
//! surviving a remove/re-add or an incarnation reset are discarded by
//! generation mismatch, and a disarmed peer ignores firings outright —
//! so even a generation counter that wrapped all the way around cannot
//! revive a cancelled timer.
//!
//! The adaptive control plane lives in the child module `control`, the
//! snapshot restore and write paths in `persist`; the ingest path
//! (`record_batch_at` → `record_locked` → `account`, which publishes)
//! and the sweep are here.

mod control;
mod persist;

pub use control::ControlConfig;

use crate::backoff::{supervise, Supervised};
use crate::election::{Candidate, ElectionRecord};
use crate::events::{subscription, Publisher, Subscription};
use crate::registry::{
    ControlState, Drive, PeerCell, PeerCounters, PeerRegistry, PeerState, PublishedPeer,
    PublishedStatus, QosState, Shard,
};
use crate::snapshot::{self, SnapshotOrigin};
use crate::wheel::TimerWheel;
use crate::wire::HeartbeatEntry;
use crate::{unpoison, Clock, Health, PeerId, RuntimeError, SkewedClock};
use fd_core::detectors::{NfdE, ParamError};
use fd_core::{FailureDetector, Heartbeat};
use fd_metrics::{FdOutput, ObservedQos, OnlineQos, QosRequirements};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Timer-wheel bucket count (see [`crate::wheel`]).
const WHEEL_SLOTS: usize = 512;

/// Cluster-wide tuning knobs (per-peer QoS lives in [`PeerConfig`]).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Registry shard count, rounded up to a power of two.
    pub shards: usize,
    /// Ticker period and wheel resolution, seconds. Expiry detection lags
    /// a true freshness point by at most this much (plus OS jitter).
    pub tick: f64,
    /// Capacity of each membership-event subscription channel; a slow
    /// subscriber loses events past this (counted, never blocking).
    pub event_capacity: usize,
    /// Most wheel expirations processed per sweep; the excess is pushed
    /// back onto the wheel for the next sweep and counted in
    /// [`ClusterStats::expirations_deferred`]. Bounds how long one sweep
    /// can hold shard locks during an expiry storm.
    pub max_expirations_per_sweep: usize,
    /// Where to persist the state snapshot (see [`crate::snapshot`]).
    /// `None` disables persistence entirely.
    pub snapshot_path: Option<PathBuf>,
    /// Seconds between periodic snapshot writes (when a path is set),
    /// clamped to `[tick, 1e9]` at spawn.
    pub snapshot_interval: f64,
    /// Adaptive control-plane knobs (see [`ControlConfig`]). Only peers
    /// registered with [`PeerConfig::requirements`] participate.
    pub control: ControlConfig,
    /// Provenance stamped into every snapshot this monitor writes
    /// (federation nodes set their node id + incarnation so a takeover
    /// can verify whose state it is warm-starting from). `None` —
    /// the default — writes snapshots without an origin block.
    pub origin: Option<SnapshotOrigin>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            shards: 16,
            tick: 0.001,
            event_capacity: 1024,
            max_expirations_per_sweep: 4096,
            snapshot_path: None,
            snapshot_interval: 1.0,
            control: ControlConfig::default(),
            origin: None,
        }
    }
}

/// Per-peer detector parameters: the paper's `η` (heartbeat period) and
/// `α` (freshness slack), plus the NFD-E estimation window `n`.
#[derive(Debug, Clone, Copy)]
pub struct PeerConfig {
    /// Expected heartbeat period `η`, seconds.
    pub eta: f64,
    /// Freshness slack `α`, seconds: `τᵢ = EAᵢ + α`.
    pub alpha: f64,
    /// Sliding-window size for the expected-arrival estimator.
    pub window: usize,
    /// QoS requirements the adaptive control plane maintains for this
    /// peer (`None` opts the peer out of adaptation entirely: its
    /// registered `(η, α)` are never touched).
    pub requirements: Option<QosRequirements>,
}

impl PeerConfig {
    /// Parameters with the default estimation window (32 samples).
    pub const fn new(eta: f64, alpha: f64) -> Self {
        Self { eta, alpha, window: 32, requirements: None }
    }

    /// Overrides the estimation window.
    pub fn window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Declares QoS requirements, opting the peer into the adaptive
    /// control plane.
    pub fn requirements(mut self, req: QosRequirements) -> Self {
        self.requirements = Some(req);
        self
    }
}

/// Why a cluster operation failed.
#[derive(Debug)]
pub enum ClusterError {
    /// The peer is already registered.
    DuplicatePeer(PeerId),
    /// The per-peer detector parameters are invalid.
    Params(ParamError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::DuplicatePeer(p) => write!(f, "peer {p} is already registered"),
            ClusterError::Params(e) => write!(f, "invalid peer parameters: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Params(e) => Some(e),
            ClusterError::DuplicatePeer(_) => None,
        }
    }
}

impl From<ParamError> for ClusterError {
    fn from(e: ParamError) -> Self {
        ClusterError::Params(e)
    }
}

/// What changed about a peer's membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipChange {
    /// The peer was registered (it starts suspected, like every NFD-E).
    Added,
    /// The peer was unregistered.
    Removed,
    /// Trust→Suspect (the paper's S-transition).
    Suspected,
    /// Suspect→Trust (T-transition).
    Trusted,
    /// The control plane found the peer's QoS requirements infeasible
    /// under the current network estimate and switched it to best-effort
    /// parameters (graceful degradation; the peer is still monitored).
    Degraded,
    /// A formerly degraded peer's requirements became feasible again
    /// (for [`ControlConfig::promote_after`] consecutive rounds) and
    /// configured parameters were restored.
    Promoted,
}

/// One membership transition, as delivered to subscribers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipEvent {
    /// The peer concerned.
    pub peer: PeerId,
    /// Cluster-clock time of the transition, seconds.
    pub at: f64,
    /// What happened.
    pub change: MembershipChange,
}

/// Point-in-time view of one peer.
#[derive(Debug, Clone, Copy)]
pub struct PeerStatus {
    /// The peer.
    pub peer: PeerId,
    /// Current detector output.
    pub output: FdOutput,
    /// Its QoS counters since registration.
    pub counters: PeerCounters,
    /// Its heartbeat period `η`.
    pub eta: f64,
    /// Its freshness slack `α`.
    pub alpha: f64,
    /// Highest sender incarnation seen (0 until the peer ever restarts).
    pub incarnation: u64,
    /// Samples currently held by the arrival estimator — nonzero right
    /// after a snapshot restore (*warm* estimates), zero on a cold add.
    pub estimator_samples: usize,
    /// Where the control plane has this peer: `Nominal` (requirements
    /// believed met, or none declared) or `Degraded` (best-effort).
    pub qos_state: QosState,
    /// Sender-side `η` the control plane recommends, if one is pending
    /// delivery/confirmation.
    pub recommended_eta: Option<f64>,
}

/// A consistent-enough point-in-time view of the whole cluster: each
/// peer's output as of the snapshot instant (outputs lag true freshness
/// expiry by at most one wheel tick).
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    at: f64,
    outputs: HashMap<PeerId, FdOutput>,
}

impl ClusterSnapshot {
    /// Cluster-clock time the snapshot was taken.
    pub fn taken_at(&self) -> f64 {
        self.at
    }

    /// This peer's output at snapshot time, `None` if not registered.
    pub fn output(&self, peer: PeerId) -> Option<FdOutput> {
        self.outputs.get(&peer).copied()
    }

    /// Peers trusted at snapshot time, ascending.
    pub fn trusted(&self) -> Vec<PeerId> {
        self.select(|o| o.is_trust())
    }

    /// Peers suspected at snapshot time, ascending.
    pub fn suspected(&self) -> Vec<PeerId> {
        self.select(|o| !o.is_trust())
    }

    /// Number of peers in the snapshot.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// Whether the snapshot holds no peers.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    fn select(&self, keep: impl Fn(FdOutput) -> bool) -> Vec<PeerId> {
        let mut v: Vec<PeerId> =
            self.outputs.iter().filter(|(_, o)| keep(**o)).map(|(p, _)| *p).collect();
        v.sort_unstable();
        v
    }
}

/// One peer's live QoS view, as returned by
/// [`ClusterMonitor::qos_snapshot`].
#[derive(Debug, Clone, Copy)]
pub struct PeerQos {
    /// The peer.
    pub peer: PeerId,
    /// Current detector output.
    pub output: FdOutput,
    /// Transition/heartbeat counters since registration.
    pub counters: PeerCounters,
    /// The online accuracy metrics as of the snapshot instant.
    pub qos: ObservedQos,
    /// Nominal vs degraded, per the control plane.
    pub qos_state: QosState,
}

/// Cluster-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Registered peers.
    pub peers: usize,
    /// Ticker sweeps since spawn.
    pub ticks: u64,
    /// Wheel expirations that matched a live registration.
    pub timers_fired: u64,
    /// Membership events dropped because a subscriber's channel was full
    /// (the subscriber is alive but not draining; it stays subscribed).
    pub events_dropped: u64,
    /// Subscribers pruned because their receiver was dropped. Distinct
    /// from `events_dropped`: a disconnected subscriber is gone and costs
    /// nothing further, a full one keeps losing events.
    pub subscribers_disconnected: u64,
    /// Heartbeats recorded for peers not (or no longer) registered.
    pub unknown_heartbeats: u64,
    /// Heartbeats rejected for carrying an incarnation below the peer's
    /// highest seen — previous-life traffic that must not refresh trust.
    pub stale_incarnation_rejects: u64,
    /// Peer detector resets triggered by a newer incarnation (observed
    /// peer restarts).
    pub incarnation_resets: u64,
    /// Times the panicking ticker loop was restarted by its supervisor.
    pub ticker_restarts: u64,
    /// Wheel expirations pushed to a later sweep by the per-sweep bound.
    pub expirations_deferred: u64,
    /// Receiver-side heartbeat entries shed under overload (reported by
    /// [`ClusterReceiver`](crate::ClusterReceiver)).
    pub entries_shed: u64,
    /// State snapshots successfully persisted.
    pub snapshots_written: u64,
    /// Snapshot reads or writes that failed (corrupt file, I/O error,
    /// invalid restored parameters). Failures are fail-safe: the
    /// affected state starts cold instead.
    pub snapshot_errors: u64,
    /// Peers restored warm from the snapshot at spawn.
    pub peers_restored: u64,
    /// Control-plane parameter applications (gated retunes, forced
    /// degradations and promotions alike).
    pub reconfigurations: u64,
    /// Peers currently running best-effort (degraded) parameters.
    pub degraded_peers: usize,
    /// Nominal→Degraded transitions since spawn.
    pub degradations: u64,
    /// Degraded→Nominal (promotion) transitions since spawn.
    pub promotions: u64,
    /// Control rounds executed (by the control thread or
    /// [`ClusterMonitor::run_control_round`]).
    pub control_rounds: u64,
    /// Times the panicking control loop was restarted by its supervisor.
    pub control_restarts: u64,
}

/// Reusable buffers of [`ClusterMonitor::record_batch_at`], one set per
/// calling thread (for the receive path, per pump): they grow to the
/// largest batch the thread has recorded and are never shrunk, so a
/// pump in steady state records without allocating.
#[derive(Default)]
struct BatchScratch {
    /// Indices into the batch, grouped by shard, arrival order kept
    /// within each group.
    order: Vec<usize>,
    /// Per shard, where its group ends in `order` (it starts where the
    /// previous shard's ends).
    ends: Vec<usize>,
    /// Transitions collected under the shard locks.
    events: Vec<MembershipEvent>,
}

impl BatchScratch {
    /// Stable counting sort of `entries` by registry shard.
    fn group_by_shard(&mut self, registry: &PeerRegistry, entries: &[HeartbeatEntry]) {
        let ends = &mut self.ends;
        ends.clear();
        ends.resize(registry.shards().len(), 0);
        for e in entries {
            ends[registry.shard_index(e.peer)] += 1;
        }
        // Counts → each group's start offset …
        let mut start = 0;
        for slot in ends.iter_mut() {
            start += std::mem::replace(slot, start);
        }
        // … which placing the group's entries advances to its end.
        self.order.clear();
        self.order.resize(entries.len(), 0);
        for (i, e) in entries.iter().enumerate() {
            let slot = &mut ends[registry.shard_index(e.peer)];
            self.order[*slot] = i;
            *slot += 1;
        }
    }
}

thread_local! {
    /// Taken for the duration of a call and put back, so a re-entrant
    /// call (there is none today) would find an empty default, not a
    /// borrowed one.
    static BATCH_SCRATCH: Cell<BatchScratch> = const {
        Cell::new(BatchScratch { order: Vec::new(), ends: Vec::new(), events: Vec::new() })
    };
}

/// Capacities of the calling thread's [`BatchScratch`] buffers, for
/// tests asserting that steady-state recording does not grow them.
#[cfg(test)]
pub(crate) fn batch_scratch_capacities() -> [usize; 3] {
    let scratch = BATCH_SCRATCH.take();
    let caps = [scratch.order.capacity(), scratch.ends.capacity(), scratch.events.capacity()];
    BATCH_SCRATCH.set(scratch);
    caps
}

/// How a monitor tells time. Both start at the restored snapshot's
/// `taken_at`: restarting at 0 would violate detector time monotonicity
/// for restored per-peer state.
enum ClusterClock {
    /// [`ClusterMonitor::spawn`]: the seconds since, past that start.
    Wall(SkewedClock<crate::WallClock>),
    /// [`ClusterMonitor::manual`]: the latest time handed to the monitor,
    /// as `f64` bits (non-negative, so bit order is numeric order).
    Manual(AtomicU64),
}

struct Inner {
    clock: ClusterClock,
    registry: PeerRegistry,
    wheel: Mutex<TimerWheel>,
    next_gen: AtomicU64,
    subscribers: Mutex<Vec<Publisher>>,
    event_capacity: usize,
    max_expirations: usize,
    snapshot_path: Option<PathBuf>,
    /// Serialises snapshot writers — the control thread's periodic
    /// write, `save_snapshot()` from any thread, `shutdown()` — which
    /// all go through the one `<path>.tmp`; holds the chunk buffer they
    /// reuse. Taken before any shard lock.
    snapshot_writer: Mutex<Vec<u8>>,
    /// Provenance stamped into written snapshots (see
    /// [`ClusterConfig::origin`]).
    origin: Option<SnapshotOrigin>,
    /// The election incumbent persisted into snapshots — restored
    /// at spawn, updated by the election loop via
    /// [`ClusterMonitor::set_election_record`].
    election: Mutex<Option<ElectionRecord>>,
    /// Health, restart count and restart policy of the ticker thread,
    /// which holds the other reference (it must not hold the `Inner`).
    ticker_sup: Arc<Supervised>,
    #[cfg(test)]
    inject_ticker_panic: AtomicBool,
    ticks: AtomicU64,
    timers_fired: AtomicU64,
    events_dropped: AtomicU64,
    subscribers_disconnected: AtomicU64,
    unknown_heartbeats: AtomicU64,
    stale_incarnation: AtomicU64,
    incarnation_resets: AtomicU64,
    expirations_deferred: AtomicU64,
    entries_shed: AtomicU64,
    snapshots_written: AtomicU64,
    snapshot_errors: AtomicU64,
    peers_restored: AtomicU64,
    /// Sanitized control-plane configuration.
    control: ControlConfig,
    /// Same as `ticker_sup`, for the control thread.
    control_sup: Arc<Supervised>,
    #[cfg(test)]
    inject_control_panic: AtomicBool,
    /// Pending sender-side η recommendations, latest per peer, drained
    /// by whoever ships wire control entries.
    eta_recs: Mutex<HashMap<PeerId, f64>>,
    reconfigurations: AtomicU64,
    degraded_peers: AtomicU64,
    degradations: AtomicU64,
    promotions: AtomicU64,
    control_rounds: AtomicU64,
    /// Set by the first `shutdown()` across clones: it writes the snapshot.
    shut_down: AtomicBool,
}

/// Monitors N peers from one node, with a single ticker thread
/// ([`spawn`](ClusterMonitor::spawn)) or none ([`manual`](ClusterMonitor::manual)).
///
/// Cheaply cloneable; all clones share the same cluster. The threads
/// stop on [`shutdown`](ClusterMonitor::shutdown) or when the last
/// handle drops.
#[derive(Clone)]
pub struct ClusterMonitor {
    inner: Arc<Inner>,
    /// The ticker and the control thread; none for a manual monitor.
    threads: Arc<Mutex<Vec<Shell>>>,
}

/// A thread of a spawned monitor with its stop slot: the thread owns the
/// receiver, so it observes disconnection when the last monitor handle
/// drops without an explicit shutdown.
type Shell = (SyncSender<()>, std::thread::JoinHandle<()>);

impl fmt::Debug for ClusterMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterMonitor")
            .field("peers", &self.inner.registry.len())
            .field("tick", &self.tick())
            .finish()
    }
}

impl ClusterMonitor {
    /// A cluster monitor that owns no thread and reads no wall clock
    /// (see the module docs): registry, wheel, and the peers of the
    /// snapshot at [`ClusterConfig::snapshot_path`] restored warm. Its
    /// driver steps it — [`advance_to`](Self::advance_to) is the
    /// ticker's sweep, [`run_control_round`](Self::run_control_round)
    /// the control thread's round, [`save_snapshot`](Self::save_snapshot)
    /// its periodic write — and its time is the latest it was handed.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.tick` is not finite and positive (delegated
    /// validation).
    pub fn manual(cfg: ClusterConfig) -> Self {
        let file = cfg.snapshot_path.as_deref().map_or(Ok(None), snapshot::read_snapshot_bytes);
        let (restored, records, snapshot_errors) = persist::open_at_spawn(&file);
        // First, because it validates `tick`.
        let wheel = TimerWheel::new(WHEEL_SLOTS, cfg.tick);
        let control = cfg.control.sanitized(cfg.tick);
        // Both threads pause `period · 2ⁿ`, at most 250 ms, before
        // restart n, still responsive to stop.
        let restart_cap = Duration::from_millis(250);
        let supervised =
            |period: f64| Arc::new(Supervised::new(Duration::from_secs_f64(period), restart_cap));
        let inner = Arc::new(Inner {
            // Cluster time resumes from the snapshot's.
            clock: ClusterClock::Manual(AtomicU64::new(restored.taken_at.to_bits())),
            registry: PeerRegistry::new(cfg.shards),
            wheel: Mutex::new(wheel),
            next_gen: AtomicU64::new(0),
            subscribers: Mutex::new(Vec::new()),
            event_capacity: cfg.event_capacity.max(1),
            max_expirations: cfg.max_expirations_per_sweep.max(1),
            snapshot_path: cfg.snapshot_path,
            snapshot_writer: Mutex::new(Vec::new()),
            origin: cfg.origin,
            election: Mutex::new(restored.election),
            ticker_sup: supervised(cfg.tick),
            #[cfg(test)]
            inject_ticker_panic: AtomicBool::new(false),
            ticks: AtomicU64::new(0),
            timers_fired: AtomicU64::new(0),
            events_dropped: AtomicU64::new(0),
            subscribers_disconnected: AtomicU64::new(0),
            unknown_heartbeats: AtomicU64::new(0),
            stale_incarnation: AtomicU64::new(0),
            incarnation_resets: AtomicU64::new(0),
            expirations_deferred: AtomicU64::new(0),
            entries_shed: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            snapshot_errors: AtomicU64::new(snapshot_errors),
            peers_restored: AtomicU64::new(0),
            control,
            control_sup: supervised(control.period),
            #[cfg(test)]
            inject_control_panic: AtomicBool::new(false),
            eta_recs: Mutex::new(HashMap::new()),
            reconfigurations: AtomicU64::new(0),
            degraded_peers: AtomicU64::new(0),
            degradations: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            control_rounds: AtomicU64::new(0),
            shut_down: AtomicBool::new(false),
        });
        if let Some(records) = records {
            let mut samples = Vec::new();
            // Walked to the end once already: every record is `Ok`.
            for rec in records.flatten() {
                inner.restore_peer(rec, &mut samples);
            }
        }
        Self { inner, threads: Arc::default() }
    }

    /// Starts a cluster monitor on the wall clock: a
    /// [`manual`](Self::manual) one (panicking as it does), time 0 — or
    /// the restored `taken_at` — being this instant, plus the supervised
    /// ticker thread, which sweeps every [`ClusterConfig::tick`], and
    /// the control thread.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Spawn`] if a thread cannot start.
    pub fn spawn(cfg: ClusterConfig) -> Result<Self, RuntimeError> {
        let (tick, snapshot_interval) = (cfg.tick, cfg.snapshot_interval);
        let mut monitor = Self::manual(cfg);
        let seconds = Duration::from_secs_f64;
        let ticker = vec![Cadence::every(seconds(tick), |inner| {
            #[cfg(test)]
            if inner.inject_ticker_panic.swap(false, Ordering::Relaxed) {
                panic!("injected ticker panic");
            }
            inner.tick_at(inner.now());
        })];
        // The control thread also writes the periodic snapshot: it wakes
        // at the earlier of its two deadlines, so neither cadence moves
        // and no write ever runs on the ticker.
        let mut control = vec![Cadence::every(seconds(monitor.inner.control.period), |inner| {
            inner.control_round();
        })];
        if monitor.inner.snapshot_path.is_some() {
            let period = seconds(snapshot_interval.max(tick).min(1e9));
            control.push(Cadence::every(period, |inner| {
                inner.save_snapshot_if_configured();
            }));
        }
        let start = monitor.now();
        let inner = Arc::get_mut(&mut monitor.inner).expect("no other handle yet");
        inner.clock = ClusterClock::Wall(SkewedClock::new(crate::WallClock::new(), start));
        let threads = [
            ("fd-cluster-ticker", &monitor.inner.ticker_sup, ticker),
            ("fd-cluster-control", &monitor.inner.control_sup, control),
        ];
        for (name, sup, cadences) in threads {
            let (weak, sup) = (Arc::downgrade(&monitor.inner), Arc::clone(sup));
            let (stop_tx, stop_rx) = mpsc::sync_channel::<()>(1);
            let handle = std::thread::Builder::new()
                .name(name.into())
                .spawn(move || periodic(weak, &sup, stop_rx, cadences))
                .map_err(|e| RuntimeError::Spawn { thread: name, source: e })?;
            unpoison(monitor.threads.lock()).push((stop_tx, handle));
        }
        Ok(monitor)
    }

    /// The cluster's own clock — the timescale of snapshots, events and
    /// [`record_at`](Self::record_at): seconds since spawn, or the latest
    /// time a manual monitor was handed. After a snapshot restore either
    /// continues from the snapshot's `taken_at` rather than from 0.
    pub fn now(&self) -> f64 {
        self.inner.now()
    }

    /// [`ClusterConfig::tick`], the wheel's resolution: a freshness point
    /// fires up to one tick late. Read under the wheel lock, so callers
    /// read it once, not per heartbeat.
    pub(crate) fn tick(&self) -> f64 {
        unpoison(self.inner.wheel.lock()).tick()
    }

    /// Registers a peer with its own detector parameters. The peer
    /// starts suspected (every NFD-E does) and is trusted once its first
    /// heartbeat arrives.
    ///
    /// # Errors
    ///
    /// [`ClusterError::DuplicatePeer`] if already registered,
    /// [`ClusterError::Params`] if `cfg` is invalid.
    pub fn add_peer(&self, peer: PeerId, cfg: PeerConfig) -> Result<(), ClusterError> {
        self.add_peer_warm(peer, cfg, 0)
    }

    /// Registers a peer whose incarnation high-water mark starts at
    /// `incarnation` instead of 0 — the federation takeover path: a node
    /// adopting an orphaned partition seeds each peer with the highest
    /// incarnation the dead node had gossiped, so heartbeats delayed in
    /// flight from a *previous life* of the peer cannot refresh trust in
    /// it under its new owner. The peer still starts suspected
    /// (fail-safe) and is trusted on its first fresh heartbeat.
    ///
    /// # Errors
    ///
    /// Same as [`add_peer`](Self::add_peer).
    pub fn add_peer_warm(
        &self,
        peer: PeerId,
        cfg: PeerConfig,
        incarnation: u64,
    ) -> Result<(), ClusterError> {
        let detector = NfdE::new(cfg.eta, cfg.alpha, cfg.window)?;
        let inner = &*self.inner;
        let now = inner.now();
        let gen = inner.next_gen.fetch_add(1, Ordering::Relaxed);
        {
            let shard = inner.registry.shard(peer);
            let mut guard = unpoison(shard.write());
            if guard.contains_key(&peer) {
                return Err(ClusterError::DuplicatePeer(peer));
            }
            let control =
                cfg.requirements.map(|req| Box::new(ControlState::new(&inner.control, req)));
            // A new detector suspects and has no freshness point to arm.
            let qos = OnlineQos::new(now, FdOutput::Suspect);
            let state = PeerState::registered(
                detector,
                gen,
                control,
                incarnation,
                PeerCounters::default(),
                &qos,
            );
            let cell = Arc::clone(&state.cell);
            guard.insert(peer, state);
            inner.registry.publish_cell(peer, cell);
        }
        inner.emit(MembershipEvent { peer, at: now, change: MembershipChange::Added });
        Ok(())
    }

    /// Unregisters a peer; returns whether it was registered.
    ///
    /// Removal is complete: the peer's QoS counters, estimator state and
    /// incarnation high-water mark are dropped with its registry entry,
    /// and any pending wheel timer is cancelled (lazily — the entry's
    /// generation no longer matches anything, so when it fires the sweep
    /// discards it). A subsequent [`add_peer`](Self::add_peer) therefore
    /// starts a completely fresh monitoring epoch: no ghost `Suspected`
    /// event from the old registration's timer can fire against the new
    /// one, even if the peer returns with a new incarnation.
    pub fn remove_peer(&self, peer: PeerId) -> bool {
        let inner = &*self.inner;
        let now = inner.now();
        let removed = {
            let mut guard = unpoison(inner.registry.shard(peer).write());
            let removed = guard.remove(&peer);
            if removed.is_some() {
                // Retract under the shard lock (lock order: shard →
                // published), so a concurrent re-add can't interleave
                // its publish between our remove and retract.
                inner.registry.retract_cell(peer);
            }
            removed
        };
        if removed
            .as_ref()
            .is_some_and(|s| s.control.as_ref().is_some_and(|c| c.qos_state == QosState::Degraded))
        {
            inner.degraded_peers.fetch_sub(1, Ordering::Relaxed);
        }
        let removed = removed.is_some();
        if removed {
            unpoison(inner.eta_recs.lock()).remove(&peer);
            inner.emit(MembershipEvent { peer, at: now, change: MembershipChange::Removed });
        }
        removed
    }

    /// Records a heartbeat from `peer` at the current cluster time, with
    /// no incarnation (treated as incarnation 0 — the crash-stop model).
    /// Returns `false` (and counts it) if the heartbeat was not
    /// accepted: the peer is unregistered, or it has already been seen
    /// at a higher incarnation.
    pub fn record(&self, peer: PeerId, hb: Heartbeat) -> bool {
        self.record_at_incarnated(peer, self.inner.now(), 0, hb)
    }

    /// Records a heartbeat carrying the sender's incarnation.
    ///
    /// * `incarnation` below the peer's highest seen → rejected, counted
    ///   in [`PeerCounters::stale_incarnation`] and
    ///   [`ClusterStats::stale_incarnation_rejects`]; returns `false`.
    /// * `incarnation` above it → the peer's detector, estimator window
    ///   and freshness timer are atomically reset (new life, sequence
    ///   numbers restart), counted in [`PeerCounters::incarnation_resets`],
    ///   then the heartbeat is applied to the fresh detector.
    /// * Equal → normal processing.
    pub fn record_incarnated(&self, peer: PeerId, incarnation: u64, hb: Heartbeat) -> bool {
        self.record_at_incarnated(peer, self.inner.now(), incarnation, hb)
    }

    /// Records a heartbeat at an explicit cluster-clock time (for tests
    /// and drivers that batch timestamps; normally use
    /// [`record`](Self::record)). Times earlier than the peer's latest
    /// are clamped — detector time is monotone.
    pub fn record_at(&self, peer: PeerId, now: f64, hb: Heartbeat) -> bool {
        self.record_at_incarnated(peer, now, 0, hb)
    }

    /// [`record_at`](Self::record_at) with an explicit sender
    /// incarnation (see [`record_incarnated`](Self::record_incarnated)).
    pub fn record_at_incarnated(
        &self,
        peer: PeerId,
        now: f64,
        incarnation: u64,
        hb: Heartbeat,
    ) -> bool {
        let entry = HeartbeatEntry { peer, incarnation, seq: hb.seq, send_time: hb.send_time };
        self.record_batch_at(now, std::slice::from_ref(&entry)) == 1
    }

    /// Records a whole receive batch at one receipt time. Every entry is
    /// processed exactly as
    /// [`record_at_incarnated`](Self::record_at_incarnated) at that
    /// `now` would process it, but each registry shard the batch
    /// touches is write-locked once. Entries are grouped by shard with
    /// a stable counting sort, so one peer's entries (duplicates,
    /// reordered sequence numbers, incarnation bumps) keep their
    /// arrival order; membership events are emitted after the last
    /// shard lock is released. Returns how many entries were accepted.
    ///
    /// `now` is the receipt time of the batch on the cluster clock —
    /// for the receive pump, the instant `recv_batch` returned — and is
    /// clamped per peer to the peer's latest time, like every drive.
    pub fn record_batch_at(&self, now: f64, entries: &[HeartbeatEntry]) -> usize {
        let inner = &*self.inner;
        inner.observe_time(now);
        let mut scratch = BATCH_SCRATCH.take();
        let mut accepted = 0;
        if let [entry] = entries {
            let mut shard = unpoison(inner.registry.shard(entry.peer).write());
            accepted += usize::from(inner.record_locked(&mut shard, now, entry, &mut scratch.events));
        } else {
            scratch.group_by_shard(&inner.registry, entries);
            let mut from = 0;
            for (shard, &to) in inner.registry.shards().iter().zip(&scratch.ends) {
                if from < to {
                    let mut shard = unpoison(shard.write());
                    for &i in &scratch.order[from..to] {
                        let entry = &entries[i];
                        accepted += usize::from(inner.record_locked(
                            &mut shard,
                            now,
                            entry,
                            &mut scratch.events,
                        ));
                    }
                }
                from = to;
            }
        }
        for ev in scratch.events.drain(..) {
            inner.emit(ev);
        }
        BATCH_SCRATCH.set(scratch);
        accepted
    }

    /// One sweep at the explicit cluster-clock time `now` — the function
    /// the ticker thread runs against the wall clock — for drivers that
    /// feed [`record_at`](Self::record_at) scripted timestamps and need
    /// suspicions at exactly those times: a peer whose freshness point
    /// has passed is suspected at `now` (clamped to the peer's latest
    /// time — detector time is monotone). Exactly one sweep, so the
    /// deferral of [`ClusterConfig::max_expirations_per_sweep`] is
    /// deterministic: a backlog of `N` due entries drains in `⌈N / max⌉`
    /// calls at the same `now`. Events are emitted after all shard locks
    /// are released; returns how many. A non-finite `now` is ignored.
    pub fn advance_to(&self, now: f64) -> usize {
        if !now.is_finite() {
            return 0;
        }
        self.inner.observe_time(now);
        self.inner.tick_at(now)
    }

    /// One peer's live QoS metrics as of now — the paper's accuracy
    /// metrics (`P_A`, `E(T_MR)`, `E(T_M)`, `E(T_G)`, `λ_M`) measured
    /// online over this peer's output stream since registration. `None`
    /// if the peer is not registered.
    ///
    /// Lock-free: served from the peer's seqlock cell, off the shard
    /// locks, with the elapsed time since the last published drive
    /// accounted at read time.
    pub fn qos(&self, peer: PeerId) -> Option<ObservedQos> {
        let now = self.inner.now();
        let published = self.inner.registry.cell(peer)?.read();
        Some(observed_from(&published, now))
    }

    /// Every peer's live QoS, output and counters in one pass, sorted by
    /// peer id — the collection the metrics exporter renders.
    ///
    /// Lock-free: one brief read lock on the published index, then pure
    /// seqlock cell reads — an exporter scrape never contends with the
    /// heartbeat path's shard write locks.
    pub fn qos_snapshot(&self) -> Vec<PeerQos> {
        let inner = &*self.inner;
        let now = inner.now();
        let mut out: Vec<PeerQos> = inner
            .registry
            .published_cells()
            .into_iter()
            .map(|(peer, cell)| {
                let p = cell.read();
                PeerQos {
                    peer,
                    output: p.output,
                    counters: p.counters,
                    qos: observed_from(&p, now),
                    qos_state: p.qos_state,
                }
            })
            .collect();
        out.sort_unstable_by_key(|p| p.peer);
        out
    }

    /// Every peer's current candidacy for crash-recovery leader
    /// election, sorted by peer id: trusted flag, incarnation, and the
    /// stability score — the length of the peer's current uninterrupted
    /// good period, read straight out of its live QoS tracker (zero
    /// while suspected).
    ///
    /// Lock-free like [`qos_snapshot`](Self::qos_snapshot): the
    /// published index plus seqlock cell reads, so driving an election
    /// round over a 100k-peer cluster never contends with the heartbeat
    /// path. Stability is measured to the monitor's clock — for a
    /// [`manual`](Self::manual) monitor, the latest time handed to it.
    /// Feed the result to
    /// [`CrashRecoveryElector::observe`](crate::CrashRecoveryElector::observe).
    pub fn election_candidates(&self) -> Vec<Candidate> {
        let inner = &*self.inner;
        let now = inner.now();
        let mut out: Vec<Candidate> = inner
            .registry
            .published_cells()
            .into_iter()
            .map(|(peer, cell)| {
                let p = cell.read();
                let trusted = p.output.is_trust();
                Candidate {
                    peer,
                    trusted,
                    incarnation: p.incarnation,
                    stable_for: if trusted {
                        (now - p.qos.segment_start).max(0.0)
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        out.sort_unstable_by_key(|c| c.peer);
        out
    }

    /// One peer's current status, `None` if not registered.
    ///
    /// Lock-free: served from the peer's seqlock cell; see
    /// [`status_reader`](Self::status_reader) to poll one peer
    /// repeatedly without even the index lookup.
    pub fn status(&self, peer: PeerId) -> Option<PeerStatus> {
        let cell = self.inner.registry.cell(peer)?;
        Some(status_from(peer, &cell.read_status()))
    }

    /// A persistent lock-free handle onto one peer's status, for callers
    /// that poll the same peer at high rate (request routers checking a
    /// backend before every dispatch): after the one index lookup here,
    /// every [`PeerStatusReader::output`] is a single atomic load and
    /// every [`PeerStatusReader::status`] a seqlock read — no locks, no
    /// map lookups, no allocation. `None` if the peer is not registered.
    pub fn status_reader(&self, peer: PeerId) -> Option<PeerStatusReader> {
        let cell = self.inner.registry.cell(peer)?;
        Some(PeerStatusReader { peer, cell })
    }

    /// A point-in-time view of every peer's output (outputs lag true
    /// expiry by at most one tick).
    ///
    /// Lock-free: the published index plus one atomic load per peer —
    /// leader election over a 100k-peer cluster does not slow a single
    /// heartbeat down.
    pub fn snapshot(&self) -> ClusterSnapshot {
        let inner = &*self.inner;
        let at = inner.now();
        let outputs = inner
            .registry
            .published_cells()
            .into_iter()
            .map(|(peer, cell)| (peer, cell.output()))
            .collect();
        ClusterSnapshot { at, outputs }
    }

    /// Subscribes to membership transitions. The channel is bounded by
    /// the configured `event_capacity`: a subscriber that stops draining
    /// loses further events (counted in
    /// [`ClusterStats::events_dropped`]) rather than blocking the
    /// cluster. Dropping the receiver unsubscribes.
    pub fn subscribe(&self) -> Subscription {
        let (tx, rx) = subscription(self.inner.event_capacity);
        unpoison(self.inner.subscribers.lock()).push(tx);
        rx
    }

    /// Number of registered peers.
    pub fn peer_count(&self) -> usize {
        self.inner.registry.len()
    }

    /// Which registry shard `peer` hashes to — for diagnostics and for
    /// chaos tests that partition exactly one shard's peers.
    pub fn shard_index(&self, peer: PeerId) -> usize {
        self.inner.registry.shard_index(peer)
    }

    /// Health of the supervised ticker thread: `Healthy` until its first
    /// panic (a manual monitor has none: always), `Degraded` (with the
    /// latest panic message) while the restart budget lasts, `Stopped`
    /// after shutdown or budget exhaustion.
    pub fn ticker_health(&self) -> Health {
        self.inner.ticker_sup.health()
    }

    /// Fault-injection hook: makes the next ticker sweep panic, as if a
    /// detector invariant had tripped. The supervisor must catch it,
    /// degrade [`ticker_health`](Self::ticker_health) and restart the
    /// sweep loop. For chaos tests; never called on production paths.
    #[cfg(test)]
    fn inject_ticker_panic(&self) {
        self.inner.inject_ticker_panic.store(true, Ordering::Relaxed);
    }

    /// Starts a fresh monitor's registration generations at `origin`
    /// instead of 0, so a test crosses the counter's wraparound in a few
    /// add/remove cycles.
    #[cfg(test)]
    fn with_gen_origin(mut self, origin: u64) -> Self {
        let inner = Arc::get_mut(&mut self.inner).expect("no other handle yet");
        *inner.next_gen.get_mut() = origin;
        self
    }

    /// Cluster-wide counters.
    pub fn stats(&self) -> ClusterStats {
        let inner = &*self.inner;
        ClusterStats {
            peers: inner.registry.len(),
            ticks: inner.ticks.load(Ordering::Relaxed),
            timers_fired: inner.timers_fired.load(Ordering::Relaxed),
            events_dropped: inner.events_dropped.load(Ordering::Relaxed),
            subscribers_disconnected: inner.subscribers_disconnected.load(Ordering::Relaxed),
            unknown_heartbeats: inner.unknown_heartbeats.load(Ordering::Relaxed),
            stale_incarnation_rejects: inner.stale_incarnation.load(Ordering::Relaxed),
            incarnation_resets: inner.incarnation_resets.load(Ordering::Relaxed),
            ticker_restarts: inner.ticker_sup.restarts(),
            expirations_deferred: inner.expirations_deferred.load(Ordering::Relaxed),
            entries_shed: inner.entries_shed.load(Ordering::Relaxed),
            snapshots_written: inner.snapshots_written.load(Ordering::Relaxed),
            snapshot_errors: inner.snapshot_errors.load(Ordering::Relaxed),
            peers_restored: inner.peers_restored.load(Ordering::Relaxed),
            reconfigurations: inner.reconfigurations.load(Ordering::Relaxed),
            degraded_peers: inner.degraded_peers.load(Ordering::Relaxed) as usize,
            degradations: inner.degradations.load(Ordering::Relaxed),
            promotions: inner.promotions.load(Ordering::Relaxed),
            control_rounds: inner.control_rounds.load(Ordering::Relaxed),
            control_restarts: inner.control_sup.restarts(),
        }
    }

    /// Stops the monitor's threads (a manual monitor has none), waits
    /// for them — each leaves its health [`Health::Stopped`] — and writes
    /// a final state snapshot (when configured). Idempotent across
    /// clones: the first call writes. The registry remains readable
    /// afterwards, but a spawned monitor drives no further suspicions.
    pub fn shutdown(&self) {
        // Send every thread an explicit stop, then join them.
        let mut threads = unpoison(self.threads.lock());
        for (stop, _) in threads.iter() {
            let _ = stop.try_send(());
        }
        for (_, handle) in threads.drain(..) {
            let _ = handle.join();
        }
        if !self.inner.shut_down.swap(true, Ordering::Relaxed) {
            self.inner.save_snapshot_if_configured();
        }
    }

    /// Counts receiver-side shed entries into [`ClusterStats`].
    pub(crate) fn note_entries_shed(&self, n: u64) {
        self.inner.entries_shed.fetch_add(n, Ordering::Relaxed);
    }
}

impl Inner {
    fn now(&self) -> f64 {
        match &self.clock {
            ClusterClock::Wall(clock) => clock.now(),
            ClusterClock::Manual(latest) => f64::from_bits(latest.load(Ordering::Relaxed)),
        }
    }

    /// Hands a manual monitor the time `now`: its clock moves there if
    /// that is later. The wall clock moves itself.
    fn observe_time(&self, now: f64) {
        if let ClusterClock::Manual(latest) = &self.clock {
            if now > 0.0 && now.is_finite() {
                latest.fetch_max(now.to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// The one implementation of "record a heartbeat", run under the
    /// write lock of the shard holding `entry.peer` (`shard` is that
    /// shard's map): incarnation fence or reset, control-plane observe,
    /// NFD-E update, S/T transition, wheel arm (lock order shard →
    /// wheel) and seqlock publish. A transition is pushed onto `events`
    /// for the caller to emit once it holds no shard lock. Returns
    /// whether the heartbeat was accepted.
    fn record_locked(
        &self,
        shard: &mut Shard,
        now: f64,
        entry: &HeartbeatEntry,
        events: &mut Vec<MembershipEvent>,
    ) -> bool {
        let &HeartbeatEntry { peer, incarnation, seq, send_time } = entry;
        let Some(state) = shard.get_mut(&peer) else {
            self.unknown_heartbeats.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let high_water = state.cell.incarnation();
        if incarnation < high_water {
            self.stale_incarnation.fetch_add(1, Ordering::Relaxed);
            state.cell.publish_stale_incarnation();
            return false;
        }
        let new_life = incarnation > high_water;
        if new_life {
            // New life of the peer: reset the detector in place (no
            // allocation under the lock) and disarm under the same
            // shard lock, so no path can observe the new incarnation
            // with old freshness state. The old wheel entry dies by
            // generation mismatch.
            state.detector.reset();
            state.gen = self.next_gen.fetch_add(1, Ordering::Relaxed);
            state.armed = false;
            self.incarnation_resets.fetch_add(1, Ordering::Relaxed);
            if let Some(ctl) = state.control.as_mut() {
                // The new life restarts sequence numbers; the old
                // loss windows would discard them all as ancient.
                ctl.reset_sequences();
            }
        }
        let now = now.max(state.cell.latest());
        let fresh = seq > state.detector.max_seq_received().unwrap_or(0);
        if let Some(ctl) = state.control.as_mut() {
            ctl.observe(seq, send_time, now, fresh);
        }
        state.detector.on_heartbeat(now, Heartbeat::new(seq, send_time));
        if !state.armed {
            if let Some(due) = state.detector.next_deadline() {
                unpoison(self.wheel.lock()).schedule(due, peer, state.gen);
                state.armed = true;
            }
        }
        let drive = Drive {
            at: now,
            heartbeat: Some(fresh),
            new_life: new_life.then_some(incarnation),
            republish: false,
        };
        events.extend(account(state, peer, drive));
        true
    }

    /// One sweep at `now`, the one implementation of "time passes":
    /// collect due wheel entries (bounded), then drive each affected
    /// peer's detector (shard write lock, wheel re-arm inside). Returns
    /// how many membership events it emitted.
    fn tick_at(&self, now: f64) -> usize {
        self.ticks.fetch_add(1, Ordering::Relaxed);
        let mut expired = Vec::new();
        {
            let mut wheel = unpoison(self.wheel.lock());
            wheel.advance(now, &mut expired);
            if expired.len() > self.max_expirations {
                // Overload shedding: everything past the bound goes back
                // on the wheel (a past due clamps to the cursor, so it
                // fires next sweep). One expiry storm cannot hold shard
                // locks for an unbounded stretch.
                let deferred = expired.split_off(self.max_expirations);
                self.expirations_deferred.fetch_add(deferred.len() as u64, Ordering::Relaxed);
                for e in deferred {
                    wheel.schedule(e.due, e.peer, e.gen);
                }
            }
        }
        let mut events = Vec::new();
        for entry in expired {
            let shard = self.registry.shard(entry.peer);
            let mut guard = unpoison(shard.write());
            let Some(state) = guard.get_mut(&entry.peer) else {
                continue; // removed; lazily cancelled
            };
            if state.gen != entry.gen || !state.armed {
                // Stale by generation (re-add or incarnation reset), or
                // the peer has no outstanding arm — which catches even a
                // generation counter that wrapped around into a
                // coincidental match. Either way: cancelled, skip.
                continue;
            }
            self.timers_fired.fetch_add(1, Ordering::Relaxed);
            let now = now.max(state.cell.latest());
            if let Some(due) = state.detector.next_deadline().filter(|&due| due > now) {
                // Superseded, not expired: fresher heartbeats moved the
                // deadline past this entry. Driving the peer would
                // change nothing a reader cannot account for itself
                // (`observed_from`), so the entry just moves; the peer
                // stays armed.
                unpoison(self.wheel.lock()).schedule(due, entry.peer, state.gen);
                continue;
            }
            // Expired: the detector suspects and has no deadline to arm.
            state.armed = false;
            state.detector.advance(now);
            events.extend(account(state, entry.peer, Drive::to(now)));
        }
        let emitted = events.len();
        for ev in events {
            self.emit(ev);
        }
        emitted
    }

    fn emit(&self, event: MembershipEvent) {
        let mut subs = unpoison(self.subscribers.lock());
        subs.retain(|tx| match tx.try_send(event) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                self.events_dropped.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Disconnected(_)) => {
                self.subscribers_disconnected.fetch_add(1, Ordering::Relaxed);
                false
            }
        });
    }
}

/// A lock-free handle onto one peer's published status cell. Obtained
/// from [`ClusterMonitor::status_reader`]; cheap to clone and safe to
/// hold across the peer's whole lifetime. If the peer is removed, the
/// handle keeps returning the last published values (frozen), exactly
/// like a stale-but-consistent cache entry — re-resolve through
/// [`ClusterMonitor::status_reader`] to notice removal.
#[derive(Debug, Clone)]
pub struct PeerStatusReader {
    peer: PeerId,
    cell: Arc<PeerCell>,
}

impl PeerStatusReader {
    /// The peer this handle reads.
    pub fn peer(&self) -> PeerId {
        self.peer
    }

    /// The peer's current output: one atomic load, no retry loop.
    pub fn output(&self) -> FdOutput {
        self.cell.output()
    }

    /// The peer's full current status: one seqlock read.
    #[inline]
    pub fn status(&self) -> PeerStatus {
        status_from(self.peer, &self.cell.read_status())
    }
}

/// Builds the public [`PeerStatus`] view from a published cell version.
#[inline]
fn status_from(peer: PeerId, p: &PublishedStatus) -> PeerStatus {
    PeerStatus {
        peer,
        output: p.output,
        counters: p.counters,
        eta: p.eta,
        alpha: p.alpha,
        incarnation: p.incarnation,
        estimator_samples: p.estimator_samples as usize,
        qos_state: p.qos_state,
        recommended_eta: p.recommended_eta,
    }
}

/// Rebuilds live QoS metrics from a published tracker state, accounting
/// the time elapsed since the peer was last driven (`now` clamps to the
/// published `at` — the tracker's clock is monotone). The state came
/// out of a valid tracker bit-exactly, so `from_state` cannot fail; the
/// fallback keeps a torn-proof answer anyway.
fn observed_from(p: &PublishedPeer, now: f64) -> ObservedQos {
    let now = now.max(p.qos.at);
    OnlineQos::from_state(p.qos)
        .unwrap_or_else(|_| OnlineQos::new(p.qos.at, p.output))
        .observed(now)
}

/// Accounts a drive of `peer`'s detector in its cell and publishes it,
/// returning the membership event if its output transitioned. The
/// tracker sees every drive: an unchanged output accounts the elapsed
/// trust or suspect time, a change records the S- or T-transition.
fn account(state: &PeerState, peer: PeerId, drive: Drive) -> Option<MembershipEvent> {
    let change = match state.publish_drive(drive)? {
        FdOutput::Trust => MembershipChange::Trusted,
        FdOutput::Suspect => MembershipChange::Suspected,
    };
    Some(MembershipEvent { peer, at: drive.at, change })
}

/// Something a periodic thread runs every `period`, on absolute
/// deadlines: the time a round takes does not stretch the cadence.
struct Cadence {
    period: Duration,
    next: Instant,
    run: fn(&Inner),
}

impl Cadence {
    fn every(period: Duration, run: fn(&Inner)) -> Self {
        Self { period, next: Instant::now() + period, run }
    }

    /// Whether a round is due at `now`; if so `next` moves to the first
    /// deadline after `now` on the cadence's own phase — one period on
    /// when the thread is on time, past every deadline it missed when
    /// it is not.
    fn due(&mut self, now: Instant) -> bool {
        if now < self.next {
            return false;
        }
        let into_slot = now.duration_since(self.next).as_nanos() % self.period.as_nanos().max(1);
        self.next = now + self.period - Duration::from_nanos(into_slot as u64);
        true
    }
}

/// A supervised periodic thread of the monitor — the ticker, the control
/// loop: each of `cadences` run at its own deadlines until an explicit
/// stop or until every monitor handle is gone, restarted after a panic
/// as `sup` allows. A cadence that falls behind (a long round, a
/// descheduled thread) skips the deadlines it missed; it never bursts
/// to catch up.
fn periodic(
    weak: Weak<Inner>,
    sup: &Supervised,
    stop_rx: Receiver<()>,
    mut cadences: Vec<Cadence>,
) {
    // An explicit stop, or every monitor handle (each holding a sender
    // clone via Inner) is gone.
    let stopped =
        |wait: Duration| !matches!(stop_rx.recv_timeout(wait), Err(RecvTimeoutError::Timeout));
    supervise(
        sup,
        || loop {
            let next = cadences.iter().map(|c| c.next).min().expect("a thread has a cadence");
            if stopped(next.saturating_duration_since(Instant::now())) {
                return;
            }
            // Upgrade per round: the thread must not keep the cluster alive.
            let Some(inner) = weak.upgrade() else { return };
            for c in &mut cadences {
                // The deadline moves on before the round runs, so a
                // panicking round is not run again on restart.
                if c.due(Instant::now()) {
                    (c.run)(&inner);
                }
            }
        },
        |backoff| !stopped(backoff),
    );
    *unpoison(sup.health.lock()) = Health::Stopped;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backoff::MAX_RESTARTS;

    /// A manual monitor: its time is what the test hands it.
    pub(crate) fn cluster() -> ClusterMonitor {
        ClusterMonitor::manual(ClusterConfig::default())
    }

    /// A monitor on the wall clock, for tests whose subject is a thread.
    fn spawned() -> ClusterMonitor {
        ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn")
    }

    pub(crate) fn drive_trusted(m: &ClusterMonitor, peer: PeerId, eta: f64, beats: u64) {
        drive_trusted_incarnated(m, peer, 0, eta, beats);
    }

    /// `beats` heartbeats from `peer`, one every `eta` from the manual
    /// monitor's current time on, each followed by the sweep a ticker
    /// would have run by then.
    pub(crate) fn drive_trusted_incarnated(
        m: &ClusterMonitor,
        peer: PeerId,
        incarnation: u64,
        eta: f64,
        beats: u64,
    ) {
        for i in 1..=beats {
            let t = m.now() + eta;
            m.record_at_incarnated(peer, t, incarnation, Heartbeat::new(i, i as f64 * eta));
            m.advance_to(t);
        }
    }

    /// The freshness point `peer`'s wheel entry is armed for.
    pub(crate) fn deadline(m: &ClusterMonitor, peer: PeerId) -> f64 {
        with_record(m, peer, |s| s.detector.next_deadline()).flatten().expect("a trusted peer")
    }

    /// The membership events delivered so far.
    fn drain(rx: &Subscription) -> Vec<MembershipEvent> {
        std::iter::from_fn(|| rx.try_recv().ok()).collect()
    }

    /// Peers [`varied_monitor`] leaves registered: ids `0..VARIED_PEERS`.
    pub(crate) const VARIED_PEERS: u64 = 42;

    /// A monitor with every shape of peer the registry and the snapshot
    /// codec distinguish: control block or none, empty / partly filled /
    /// wrapped-around estimator window, trusted / suspected / never
    /// heard from, a bumped incarnation, a peer removed and re-added
    /// without its requirements, one degraded and one degraded then
    /// promoted (given [`stepped_control`](control::tests::stepped_control);
    /// other control settings run the same script to whatever verdicts
    /// they reach). A manual monitor, driven by scripted times only.
    pub(crate) fn varied_monitor(cfg: ClusterConfig) -> ClusterMonitor {
        let m = ClusterMonitor::manual(cfg);
        let req = QosRequirements::new(4.0, 1e9, 2.0).unwrap();
        // All register at time 0, before a heartbeat moves the clock.
        for p in 0..40u64 {
            let mut peer = PeerConfig::new(1.0, 3.0).window(2 + (p as usize % 7));
            if p % 3 == 0 {
                peer = peer.requirements(req);
            }
            m.add_peer(p, peer).unwrap();
        }
        for p in 0..40u64 {
            // p % 5 == 0: no heartbeat at all, so an empty window.
            let beats = (p % 5) * 3;
            for seq in 1..=beats {
                m.record_at_incarnated(p, seq as f64 + 0.01 * p as f64, p % 2, Heartbeat::new(seq, seq as f64));
            }
        }
        // Peers whose last heartbeat is old enough are suspected by 10.
        m.advance_to(10.0);
        m.run_control_round();
        // Two more with requirements, from time 20 on: a clean regime,
        // then every heartbeat 4 s late — both degrade; 40 alone then
        // hears thirty clean ones and is promoted on the second feasible
        // round.
        for p in [40, 41] {
            m.add_peer(p, PeerConfig::new(1.0, 3.0).requirements(req)).unwrap();
        }
        let beat = |peers: &[PeerId], seq: u64, delay: f64| {
            let sent = 20.0 + seq as f64;
            for &p in peers {
                m.record_at(p, sent + delay, Heartbeat::new(seq, sent));
            }
        };
        (1..=8).for_each(|seq| beat(&[40, 41], seq, 0.05));
        (9..=24).for_each(|seq| beat(&[40, 41], seq, 4.0));
        m.run_control_round();
        (25..=54).for_each(|seq| beat(&[40], seq, 0.05));
        m.run_control_round();
        m.run_control_round();
        // 39 declared requirements; it comes back without them.
        assert!(m.remove_peer(39));
        m.add_peer(39, PeerConfig::new(1.0, 3.0).window(5)).unwrap();
        m.record_at(39, 80.0, Heartbeat::new(1, 79.9));
        m.set_election_record(Some(ElectionRecord { leader: 7, incarnation: 1, elected_at: 2.5 }));
        m
    }

    /// Deadlines are absolute: on time, the next one is a period after
    /// the last, however long the round took to start; after an overrun
    /// the missed ones are skipped and the phase is kept.
    #[test]
    fn cadence_keeps_its_phase_and_skips_missed_deadlines() {
        let ms = Duration::from_millis;
        let mut c = Cadence::every(ms(10), |_| {});
        let first = c.next;
        assert!(!c.due(first - ms(1)), "not before the deadline");
        assert_eq!(c.next, first);
        assert!(c.due(first + ms(3)), "woken 3 ms late");
        assert_eq!(c.next, first + ms(10), "the lateness is not added to the period");
        assert!(c.due(first + ms(10)));
        assert_eq!(c.next, first + ms(20));
        // A round that overran 3.5 periods: one round now, none for the
        // deadlines at +30, +40 and +50.
        assert!(c.due(first + ms(55)));
        assert_eq!(c.next, first + ms(60));
        assert!(!c.due(first + ms(59)));
    }

    #[test]
    fn peer_lifecycle_trust_then_suspect() {
        let m = cluster();
        m.add_peer(7, PeerConfig::new(0.02, 0.05)).unwrap();
        assert!(!m.status(7).unwrap().output.is_trust(), "starts suspected");

        drive_trusted(&m, 7, 0.02, 5);
        let st = m.status(7).unwrap();
        assert!(st.output.is_trust());
        assert_eq!(st.counters.heartbeats, 5);
        assert_eq!(st.counters.recoveries, 1);

        // Stop heartbeating: the wheel must drive the suspicion without
        // any further record() call, at the freshness point and not
        // before: τ = EA₆ + α = 6η + α for on-time heartbeats.
        let rx = m.subscribe();
        let due = deadline(&m, 7);
        assert!((due - 0.17).abs() < 1e-9, "τ₆ = {due}");
        assert_eq!(m.advance_to(due - 1e-6), 0);
        assert!(m.status(7).unwrap().output.is_trust(), "fresh until τ");
        assert_eq!(m.advance_to(due), 1);
        let suspected = MembershipEvent { peer: 7, at: due, change: MembershipChange::Suspected };
        assert_eq!(drain(&rx), [suspected]);
        let st = m.status(7).unwrap();
        assert!(!st.output.is_trust(), "freshness expiry must suspect");
        assert_eq!(st.counters.suspicions, 1);
        assert!(m.stats().timers_fired > 0);
        m.shutdown();
    }

    /// What a status reports that the record holds too: the detector's
    /// output, `(η, α)` and window fill, and the control verdicts.
    type Derived = (FdOutput, f64, f64, usize, QosState, Option<f64>);

    /// `peer`'s [`Derived`] part, as its status reports it.
    fn status_view(m: &ClusterMonitor, peer: PeerId) -> Option<Derived> {
        m.status(peer).map(|st| {
            (st.output, st.eta, st.alpha, st.estimator_samples, st.qos_state, st.recommended_eta)
        })
    }

    /// `peer`'s [`Derived`] part, read from its record under the shard
    /// lock. The counters, the incarnation and the QoS tracker live in
    /// the cell alone; tests check those against what their script knows.
    fn record_view(m: &ClusterMonitor, peer: PeerId) -> Option<Derived> {
        with_record(m, peer, |s| {
            let ctl = s.control.as_deref();
            let d = &s.detector;
            let qos_state = ctl.map(|c| c.qos_state).unwrap_or_default();
            (d.output(), d.eta(), d.alpha(), d.estimator_len(), qos_state, ctl.and_then(|c| c.recommended_eta))
        })
    }

    /// The record of `peer` under its shard lock, for ground truth.
    fn with_record<R>(
        m: &ClusterMonitor,
        peer: PeerId,
        f: impl FnOnce(&PeerState) -> R,
    ) -> Option<R> {
        unpoison(m.inner.registry.shard(peer).read()).get(&peer).map(|s| f(s))
    }

    #[test]
    fn lockfree_status_agrees_with_the_record_and_the_script() {
        let m = cluster();
        m.add_peer(3, PeerConfig::new(0.02, 0.05)).unwrap();
        m.add_peer(
            4,
            PeerConfig::new(0.03, 0.08)
                .requirements(QosRequirements::new(1.0, 60.0, 0.5).unwrap()),
        )
        .unwrap();
        for (peer, eta) in [(3, 0.02), (4, 0.03)] {
            drive_trusted(&m, peer, eta, 5);
            assert_eq!(status_view(&m, peer), record_view(&m, peer));
            let st = m.status(peer).unwrap();
            assert_eq!(st.peer, peer);
            assert_eq!(st.incarnation, 0);
            let five = PeerCounters { heartbeats: 5, recoveries: 1, ..PeerCounters::default() };
            assert_eq!(st.counters, five, "five fresh heartbeats, one trust");
        }
        // Reader handle sees the same thing and survives removal frozen.
        let reader = m.status_reader(3).unwrap();
        assert_eq!(reader.peer(), 3);
        assert_eq!(format!("{:?}", reader.status()), format!("{:?}", m.status(3).unwrap()));
        assert!(m.remove_peer(3));
        assert!(m.status(3).is_none(), "index retracted on remove");
        assert!(m.status_reader(3).is_none());
        assert_eq!(reader.status().counters.heartbeats, 5, "frozen, not dangling");
        m.shutdown();

        // And over a mixed population — with and without a control
        // block, incarnation bumps, a remove and re-add, a degraded and
        // a degraded-then-promoted peer — bit for bit.
        let m = varied_monitor(ClusterConfig {
            control: control::tests::stepped_control(),
            ..ClusterConfig::default()
        });
        for peer in 0..VARIED_PEERS {
            assert_eq!(status_view(&m, peer), record_view(&m, peer), "peer {peer}");
        }
        let status = |p| m.status(p).unwrap();
        assert_eq!(status(41).qos_state, QosState::Degraded);
        assert_eq!(status(40).qos_state, QosState::Nominal, "degraded, then promoted");
        assert_eq!((m.stats().degradations, m.stats().promotions), (2, 1));
        assert_eq!(status(1).counters.incarnation_resets, 1);
        assert_eq!(status(1).incarnation, 1);
        assert_eq!(status(2).counters.heartbeats, 6, "(2 % 5) · 3 heartbeats");
        assert_eq!(status(39).counters.heartbeats, 1, "re-added: a fresh record");
        m.shutdown();
    }

    /// What a test script expects of one peer's cell, kept apart from the
    /// monitor: counters and incarnation from the heartbeats it sent, and
    /// an `OnlineQos` fed the transitions a subscriber saw.
    struct Expected {
        qos: OnlineQos,
        counters: PeerCounters,
        incarnation: u64,
        max_seq: u64,
    }

    impl Expected {
        /// A peer added at `at`: suspected, nothing counted.
        fn added(at: f64) -> Self {
            let qos = OnlineQos::new(at, FdOutput::Suspect);
            Self { qos, counters: PeerCounters::default(), incarnation: 0, max_seq: 0 }
        }

        /// One heartbeat as the monitor's rules count it; whether it is
        /// accepted.
        fn heartbeat(&mut self, incarnation: u64, seq: u64) -> bool {
            if incarnation < self.incarnation {
                self.counters.stale_incarnation += 1;
                return false;
            }
            if incarnation > self.incarnation {
                (self.incarnation, self.max_seq) = (incarnation, 0);
                self.counters.incarnation_resets += 1;
            }
            self.counters.heartbeats += 1;
            if seq <= self.max_seq {
                self.counters.stale += 1;
            }
            self.max_seq = self.max_seq.max(seq);
            true
        }

        /// A membership event the subscriber saw.
        fn saw(&mut self, ev: &MembershipEvent) {
            let output = match ev.change {
                MembershipChange::Trusted => FdOutput::Trust,
                MembershipChange::Suspected => FdOutput::Suspect,
                _ => return,
            };
            self.qos.observe(ev.at, output);
            match output {
                FdOutput::Trust => self.counters.recoveries += 1,
                FdOutput::Suspect => self.counters.suspicions += 1,
            }
        }
    }

    #[test]
    fn every_write_path_publishes_what_an_independent_model_expects() {
        const T0: f64 = 1000.0;
        let m = ClusterMonitor::manual(ClusterConfig {
            control: control::tests::stepped_control(),
            ..ClusterConfig::default()
        });
        let rx = m.subscribe();
        let peers = [1u64, 2, 3, 4];
        let expected = std::cell::RefCell::new(HashMap::<PeerId, Expected>::new());
        let check = |step: &str| {
            let mut expected = expected.borrow_mut();
            for ev in drain(&rx) {
                match ev.change {
                    MembershipChange::Added => {
                        expected.insert(ev.peer, Expected::added(ev.at));
                    }
                    MembershipChange::Removed => {
                        expected.remove(&ev.peer);
                    }
                    _ => expected.get_mut(&ev.peer).expect("registered").saw(&ev),
                }
            }
            for p in peers {
                let Some(want) = expected.get(&p) else {
                    assert!(m.status(p).is_none() && m.qos(p).is_none(), "{p} after {step}");
                    continue;
                };
                assert_eq!(status_view(&m, p), record_view(&m, p), "status of {p} after {step}");
                let st = m.status(p).unwrap();
                assert_eq!(st.output, want.qos.output(), "output of {p} after {step}");
                assert_eq!(st.counters, want.counters, "counters of {p} after {step}");
                assert_eq!(st.incarnation, want.incarnation, "incarnation of {p} after {step}");
                // Transition instants and counts are exact; the time sums
                // add the same span in other pieces.
                let (got, want) = (m.qos(p).unwrap(), want.qos.observed(m.now()));
                let exact = |q: ObservedQos| {
                    (q.window, q.s_transitions, q.t_transitions, q.recurrence, q.duration, q.good)
                };
                assert_eq!(exact(got), exact(want), "qos of {p} after {step}");
                let close = (got.trust_time - want.trust_time).abs() < 1e-9
                    && (got.suspect_time - want.suspect_time).abs() < 1e-9;
                assert!(close, "qos of {p} after {step}: {got:?}, expected {want:?}");
            }
        };
        let beat = |p: PeerId, at: f64, incarnation: u64, seq: u64, sent: f64| {
            let accepted = m.record_at_incarnated(p, at, incarnation, Heartbeat::new(seq, sent));
            let mut expected = expected.borrow_mut();
            assert_eq!(accepted, expected.get_mut(&p).unwrap().heartbeat(incarnation, seq));
            accepted
        };
        let req = QosRequirements::new(4.0, 1e9, 2.0).unwrap();
        let config = |p: PeerId| {
            let cfg = PeerConfig::new(1.0, 3.0).window(4);
            if p.is_multiple_of(2) { cfg.requirements(req) } else { cfg }
        };
        for p in peers {
            m.add_peer(p, config(p)).unwrap();
            check("add_peer");
        }
        m.advance_to(T0);
        check("advance_to, nothing heard yet");
        for seq in 1..=6u64 {
            for p in peers {
                let sent = T0 + seq as f64;
                assert!(beat(p, sent + 0.05, 0, seq, sent));
                check("a fresh heartbeat");
            }
        }
        assert!(peers.iter().all(|&p| m.status(p).unwrap().output.is_trust()));
        assert!(beat(1, T0 + 6.2, 0, 6, T0 + 6.0));
        check("a duplicate");
        assert!(beat(1, T0 + 6.3, 0, 3, T0 + 3.0));
        check("a reordered heartbeat");
        assert_eq!(m.status(1).unwrap().counters.stale, 2);
        assert!(beat(2, T0 + 6.4, 2, 1, T0 + 6.4));
        check("an incarnation bump");
        assert!(!beat(2, T0 + 6.5, 1, 9, T0 + 6.5));
        check("a stale-incarnation reject");
        assert_eq!(m.status(2).unwrap().counters.stale_incarnation, 1);
        m.advance_to(T0 + 7.0);
        check("advance_to, outputs unchanged");
        assert_eq!(m.advance_to(T0 + 30.0), peers.len(), "every peer suspected");
        check("S-transitions");
        // Peer 2 lives its second life from here on.
        let life = |p: PeerId| 2 * u64::from(p == 2);
        for p in peers {
            assert!(beat(p, T0 + 31.0, life(p), 7, T0 + 31.0));
            check("a T-transition");
        }
        assert!(m.apply_alpha(1, 4.0));
        check("apply_alpha");
        assert!(m.apply_eta(2, 2.0));
        // The new detector starts a new window: sequence numbers restart.
        expected.borrow_mut().get_mut(&2).unwrap().max_seq = 0;
        check("apply_eta");
        // Every heartbeat 4 s late: the control round degrades the two
        // peers with requirements.
        for seq in 8..=24u64 {
            for p in peers {
                let sent = T0 + 24.0 + seq as f64;
                beat(p, sent + 4.0, life(p), seq, sent);
            }
            check("late heartbeats");
        }
        m.run_control_round();
        check("run_control_round");
        assert_eq!(m.status(4).unwrap().qos_state, QosState::Degraded);
        assert!(m.remove_peer(3));
        check("remove_peer");
        m.add_peer(3, config(3)).unwrap();
        check("re-add");
        assert!(beat(3, T0 + 60.0, 0, 1, T0 + 60.0));
        check("the re-added peer's first heartbeat");
        m.shutdown();
    }

    #[test]
    fn superseded_fire_changes_nothing_and_the_moved_deadline_still_suspects() {
        // Two monitors hear the same heartbeats at the same scripted
        // times. The first sweeps every millisecond, so the wheel entry
        // a heartbeat armed fires after later ones have moved the
        // deadline; the twin has no ticker.
        let (eta, alpha, tick) = (0.01, 0.2, ClusterConfig::default().tick);
        let (live, twin) = (spawned(), cluster());
        let rx = live.subscribe();
        for m in [&live, &twin] {
            m.add_peer(9, PeerConfig::new(eta, alpha)).unwrap();
        }
        let sleep_until = |t: f64| {
            while live.now() < t {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let mut t = live.now().max(twin.now());
        for seq in 1..=30u64 {
            sleep_until(t + eta);
            t = live.now();
            for m in [&live, &twin] {
                assert!(m.record_at(9, t, Heartbeat::new(seq, seq as f64 * eta)));
            }
        }
        assert!(live.stats().timers_fired >= 1, "the first entry was due 90 ms ago");

        // Silence. The outstanding entry is older than the last
        // heartbeat, so it fires once more before the deadline that
        // heartbeat set, and until then nothing may tell the two apart
        // (but when each was registered).
        let published = |m: &ClusterMonitor| {
            let mut p = m.inner.registry.cell(9).unwrap().read();
            (p.qos.origin, p.qos.suspect_time) = (0.0, 0.0);
            (p, format!("{:?}", m.status(9)))
        };
        let deadline = with_record(&twin, 9, |s| s.detector.next_deadline()).unwrap().unwrap();
        while live.now() < deadline - 0.05 {
            assert_eq!(published(&live), published(&twin), "a superseded fire published");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(with_record(&live, 9, |s| (s.armed, s.cell.latest())), Some((true, t)));

        let suspected = loop {
            let ev = rx.recv_timeout(Duration::from_secs(5)).expect("a Suspected event");
            if ev.change == MembershipChange::Suspected {
                break ev;
            }
        };
        // At the moved deadline, within a tick of the wheel, a tick of
        // the ticker's cadence and what a loaded host adds to 1 ms.
        let late = suspected.at - deadline;
        assert!((0.0..2.0 * tick + 0.1).contains(&late), "suspected {late} s after the deadline");
        assert_eq!(live.status(9).unwrap().counters.suspicions, 1);
        assert!(live.stats().timers_fired >= 2, "superseded fires count");
        assert_eq!(twin.stats().timers_fired, 0);
        assert_eq!(twin.status(9).unwrap().output, FdOutput::Trust, "nothing drives the twin");
        live.shutdown();
        twin.shutdown();
    }

    #[test]
    fn lockfree_reads_stay_consistent_under_heartbeat_storm() {
        // Writers hammer record() across peers while readers poll
        // status()/snapshot()/qos_snapshot() lock-free. Consistency
        // invariants that a torn or mixed-generation read would break:
        // recoveries never exceeds heartbeats, and a trusted output
        // implies at least one recovery.
        let m = spawned();
        let peers: Vec<PeerId> = (0..16).collect();
        for &p in &peers {
            m.add_peer(p, PeerConfig::new(0.02, 0.08)).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let m = m.clone();
            let peers = peers.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    seq += 1;
                    for &p in &peers {
                        assert!(m.record(p, Heartbeat::new(seq, seq as f64 * 0.02)));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                seq
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let m = m.clone();
                let peers = peers.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut polls = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for &p in &peers {
                            let st = m.status(p).expect("registered");
                            assert!(
                                st.counters.recoveries <= st.counters.heartbeats + 1,
                                "impossible counters: {st:?}"
                            );
                            if st.output.is_trust() {
                                assert!(st.counters.recoveries >= 1, "trusted without recovery");
                            }
                        }
                        let snap = m.snapshot();
                        let qos = m.qos_snapshot();
                        assert_eq!(qos.len(), peers.len());
                        for q in &qos {
                            assert!(snap.output(q.peer).is_some());
                            assert!(q.qos.query_accuracy() >= 0.0);
                        }
                        polls += 1;
                    }
                    polls
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        let rounds = writer.join().unwrap();
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader made no progress");
        }
        // Every heartbeat the writer sent, each fresh, and transitions
        // that alternate from the first trust on.
        for &p in &peers {
            let st = m.status(p).unwrap();
            let c = st.counters;
            assert_eq!((c.heartbeats, c.stale), (rounds, 0), "peer {p}: {st:?}");
            let trusted = u64::from(st.output.is_trust());
            assert_eq!(c.recoveries, c.suspicions + trusted, "peer {p}: {st:?}");
        }
        m.shutdown();
    }

    #[test]
    fn add_remove_and_errors() {
        let m = cluster();
        m.add_peer(1, PeerConfig::new(0.05, 0.1)).unwrap();
        assert!(matches!(
            m.add_peer(1, PeerConfig::new(0.05, 0.1)),
            Err(ClusterError::DuplicatePeer(1))
        ));
        assert!(matches!(
            m.add_peer(2, PeerConfig::new(-1.0, 0.1)),
            Err(ClusterError::Params(_))
        ));
        assert_eq!(m.peer_count(), 1);
        assert!(m.remove_peer(1));
        assert!(!m.remove_peer(1));
        assert_eq!(m.peer_count(), 0);
        assert!(!m.record(1, Heartbeat::new(1, 0.0)), "unknown peer rejected");
        assert_eq!(m.stats().unknown_heartbeats, 1);
        m.shutdown();
    }

    #[test]
    fn readd_after_remove_gets_fresh_state() {
        let m = cluster();
        m.add_peer(3, PeerConfig::new(0.02, 0.05)).unwrap();
        drive_trusted(&m, 3, 0.02, 4);
        assert!(m.status(3).unwrap().output.is_trust());
        let old_due = deadline(&m, 3);
        m.remove_peer(3);
        m.add_peer(3, PeerConfig::new(0.02, 0.05)).unwrap();
        let st = m.status(3).unwrap();
        assert!(!st.output.is_trust(), "re-added peer starts suspected");
        assert_eq!(st.counters.heartbeats, 0, "counters reset on re-add");
        // Stale wheel entries from the first registration must not
        // corrupt the new one: sweep at the old deadline and past it.
        assert_eq!(m.advance_to(old_due) + m.advance_to(old_due + 1.0), 0);
        assert_eq!(m.status(3).unwrap().counters.suspicions, 0);
        assert_eq!(m.stats().timers_fired, 0, "the old entry died by generation");
        m.shutdown();
    }

    #[test]
    fn remove_cancels_timer_and_drops_counters_no_ghost_events() {
        let m = cluster();
        let rx = m.subscribe();
        m.add_peer(11, PeerConfig::new(0.02, 0.04)).unwrap();
        drive_trusted(&m, 11, 0.02, 4);
        assert!(m.status(11).unwrap().output.is_trust());
        // Remove while a freshness timer is pending, then re-add under a
        // new incarnation. The old timer must die by generation
        // mismatch: no DOWN (Suspected) event may fire against the new
        // registration from the previous epoch's deadline.
        let old_due = deadline(&m, 11);
        m.remove_peer(11);
        m.add_peer(11, PeerConfig::new(0.02, 0.04)).unwrap();
        let st = m.status(11).unwrap();
        assert_eq!(st.counters, PeerCounters::default(), "QoS counters dropped");
        assert_eq!(st.incarnation, 0, "incarnation mark dropped with the entry");
        // The new life is first heard 10 ms on, so its freshness point
        // lies 10 ms past the old one.
        let heard = m.now() + 0.01;
        m.record_at_incarnated(11, heard, 5, Heartbeat::new(1, heard));
        assert_eq!(m.advance_to(old_due), 0, "past the OLD deadline only");
        let changes: Vec<_> = drain(&rx).iter().map(|ev| ev.change).collect();
        let removed_at = changes
            .iter()
            .position(|c| *c == MembershipChange::Removed)
            .expect("Removed event emitted");
        assert!(
            !changes[removed_at..].contains(&MembershipChange::Suspected),
            "ghost Suspected from the removed registration's timer: {changes:?}"
        );
        assert_eq!(changes.last(), Some(&MembershipChange::Trusted));
        // The new registration's own timer is live.
        let due = deadline(&m, 11);
        assert!((due - (old_due + 0.01)).abs() < 1e-9);
        assert_eq!(m.advance_to(due), 1);
        let suspected = MembershipEvent { peer: 11, at: due, change: MembershipChange::Suspected };
        assert_eq!(drain(&rx), [suspected]);
        m.shutdown();
    }

    #[test]
    fn stale_incarnation_heartbeats_are_rejected() {
        let m = cluster();
        m.add_peer(4, PeerConfig::new(0.02, 0.05)).unwrap();
        drive_trusted_incarnated(&m, 4, 1, 0.02, 5);
        assert!(m.status(4).unwrap().output.is_trust());
        let before = m.status(4).unwrap().counters;

        // A datagram from the peer's previous life (incarnation 0),
        // delayed in flight across its crash: must not be recorded.
        assert!(!m.record_incarnated(4, 0, Heartbeat::new(99, m.now())));
        let st = m.status(4).unwrap();
        assert_eq!(st.counters.stale_incarnation, 1);
        assert_eq!(st.counters.heartbeats, before.heartbeats, "not counted as received");
        assert_eq!(m.stats().stale_incarnation_rejects, 1);
        assert_eq!(st.incarnation, 1, "high-water mark unchanged");

        // And crucially: a stream of ONLY stale-incarnation heartbeats
        // must not keep the peer trusted once the fresh stream stops —
        // it is suspected at the freshness point the last fresh one set.
        let due = deadline(&m, 4);
        let mut t = m.now();
        while t + 0.005 < due {
            t += 0.005;
            assert!(!m.record_at_incarnated(4, t, 0, Heartbeat::new(100, t)));
            assert_eq!(m.advance_to(t), 0);
            assert!(m.status(4).unwrap().output.is_trust());
        }
        assert_eq!(deadline(&m, 4), due, "previous-life heartbeats moved the freshness point");
        assert_eq!(m.advance_to(due), 1, "previous-life heartbeats refreshed trust");
        assert!(!m.status(4).unwrap().output.is_trust());
        m.shutdown();
    }

    #[test]
    fn newer_incarnation_resets_detector_state() {
        let m = cluster();
        m.add_peer(6, PeerConfig::new(0.02, 0.05)).unwrap();
        drive_trusted_incarnated(&m, 6, 0, 0.02, 6);
        let st = m.status(6).unwrap();
        assert!(st.output.is_trust());
        assert!(st.estimator_samples > 0);

        // The peer restarts: incarnation 1, sequence numbers back at 1.
        // Without the reset, seq 1 ≤ max_seq 6 would be discarded as
        // stale and the new life would never refresh freshness.
        let old_due = deadline(&m, 6);
        let heard = m.now() + 0.01;
        assert!(m.record_at_incarnated(6, heard, 1, Heartbeat::new(1, heard)));
        let st = m.status(6).unwrap();
        assert_eq!(st.incarnation, 1);
        assert_eq!(st.counters.incarnation_resets, 1);
        assert_eq!(m.stats().incarnation_resets, 1);
        assert_eq!(
            st.counters.stale, 0,
            "the new life's seq 1 must not be counted stale against the old life's seq 6"
        );
        assert_eq!(st.estimator_samples, 1, "estimator window restarted");
        assert!(st.output.is_trust(), "fresh heartbeat re-trusts immediately");

        // The reset re-armed the freshness timer for the new life: if
        // the new incarnation goes silent it is suspected η + α after
        // its one heartbeat, the old life's entry firing into nothing
        // on the way.
        let due = deadline(&m, 6);
        assert!(old_due < due && (due - (heard + 0.02 + 0.05)).abs() < 1e-9);
        assert_eq!(m.advance_to(old_due), 0);
        assert!(m.status(6).unwrap().output.is_trust());
        assert_eq!(m.advance_to(due), 1);
        assert!(!m.status(6).unwrap().output.is_trust());
        m.shutdown();
    }

    #[test]
    fn generation_wraparound_keeps_lifecycle_sound() {
        // Start the generation counter two below wraparound, then churn
        // a peer through enough add/remove cycles to cross it. Stale
        // wheel entries from pre-wrap registrations must not fire into
        // post-wrap ones (gen mismatch + disarm guard), and the normal
        // lifecycle invariants must hold on both sides of the wrap.
        let m = cluster().with_gen_origin(u64::MAX - 2);
        for cycle in 0..6 {
            m.add_peer(9, PeerConfig::new(0.01, 0.02)).unwrap();
            let t = f64::from(cycle) * 0.002;
            m.record_at(9, t, Heartbeat::new(1, t));
            assert!(
                m.status(9).unwrap().output.is_trust(),
                "cycle {cycle}: first heartbeat trusts"
            );
            m.remove_peer(9); // leaves an armed wheel entry to go stale
        }
        m.add_peer(9, PeerConfig::new(0.01, 0.02)).unwrap();
        // The six stale entries are due between 0.03 and 0.04.
        assert_eq!((0..=80).map(|ms| m.advance_to(f64::from(ms) * 1e-3)).sum::<usize>(), 0);
        let st = m.status(9).unwrap();
        assert_eq!(
            st.counters.suspicions, 0,
            "stale pre-wrap timers fired into the fresh registration"
        );
        assert!(!st.output.is_trust(), "fresh registration starts suspected");
        m.shutdown();
    }

    #[test]
    fn ticker_panic_degrades_health_and_recovers() {
        let m = spawned();
        assert_eq!(m.ticker_health(), Health::Healthy);
        m.inject_ticker_panic();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while m.stats().ticker_restarts == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(m.stats().ticker_restarts, 1);
        match m.ticker_health() {
            Health::Degraded { reason } => assert!(reason.contains("injected")),
            other => panic!("expected Degraded, got {other:?}"),
        }
        // The restarted ticker still drives detection end to end: one
        // heartbeat, fresh for η + α = 70 ms, and then the ticker's
        // sweep is what suspects.
        m.add_peer(1, PeerConfig::new(0.02, 0.05)).unwrap();
        m.record(1, Heartbeat::new(1, m.now()));
        assert!(m.status(1).unwrap().output.is_trust());
        std::thread::sleep(Duration::from_millis(200));
        assert!(!m.status(1).unwrap().output.is_trust(), "suspicion still driven");
        assert!(m.ticker_health().is_running());
        m.shutdown();
        assert_eq!(m.ticker_health(), Health::Stopped);
    }

    #[test]
    fn ticker_restart_budget_exhaustion_stops() {
        let m = spawned();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        // Panics 1..=MAX_RESTARTS restart the ticker (≈ 0.2 s of
        // backoff in all at the 1 ms tick); the next one blows the budget.
        for _ in 0..=MAX_RESTARTS {
            m.inject_ticker_panic();
            let target = m.stats().ticker_restarts + 1;
            while m.stats().ticker_restarts < target && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while m.ticker_health().is_running() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(m.ticker_health(), Health::Stopped);
        assert_eq!(m.stats().ticker_restarts, MAX_RESTARTS + 1);
        m.shutdown();
    }

    /// `N` peers expiring at one instant drain `k` a sweep: all are
    /// suspected after exactly `⌈N / k⌉` sweeps at the same `now`, each
    /// at that `now`, and the counter accounts for every deferral.
    #[test]
    fn expiry_storms_are_bounded_per_sweep() {
        let (n, k) = (32usize, 5usize);
        let m = ClusterMonitor::manual(ClusterConfig {
            max_expirations_per_sweep: k,
            ..ClusterConfig::default()
        });
        let rx = m.subscribe();
        // All go silent together: their freshness points expire in a
        // burst far wider than the per-sweep bound.
        for p in 0..n as u64 {
            m.add_peer(p, PeerConfig::new(0.01, 0.02)).unwrap();
            m.record_at(p, 0.0, Heartbeat::new(1, 0.0));
        }
        drain(&rx);
        let now = 0.05;
        let (mut left, mut sweeps, mut deferred) = (n, 0, 0);
        while left > 0 {
            assert_eq!(m.snapshot().suspected().len(), n - left, "after {sweeps} sweeps");
            assert_eq!(m.advance_to(now), left.min(k));
            left -= left.min(k);
            sweeps += 1;
            deferred += left as u64;
            assert_eq!(m.stats().expirations_deferred, deferred, "after {sweeps} sweeps");
        }
        assert_eq!(sweeps, n.div_ceil(k));
        assert_eq!(m.snapshot().suspected().len(), n, "every peer still gets suspected");
        let events = drain(&rx);
        assert_eq!(events.len(), n);
        assert!(events.iter().all(|ev| ev.at == now && ev.change == MembershipChange::Suspected));
        assert_eq!(m.advance_to(now), 0, "nothing is left on the wheel");
        assert_eq!(m.stats().timers_fired, n as u64);
        m.shutdown();
    }

    /// The reference model of [`ClusterMonitor::advance_to`]: drives every
    /// peer of every shard to `now` without consulting the wheel, the
    /// O(N) definition of "time passes" the wheel exists to avoid.
    fn advance_scan(m: &ClusterMonitor, now: f64) -> usize {
        let inner = &*m.inner;
        inner.observe_time(now);
        let mut events = Vec::new();
        for shard in inner.registry.shards() {
            let mut guard = unpoison(shard.write());
            for (peer, state) in guard.iter_mut() {
                let t = now.max(state.cell.latest());
                state.detector.advance(t);
                events.extend(account(state, *peer, Drive::to(t)));
            }
        }
        let n = events.len();
        events.into_iter().for_each(|ev| inner.emit(ev));
        n
    }

    /// The sweep has one implementation, and the scan it replaced
    /// agrees with it. Twin manual monitors hear the same seeded drive —
    /// adds, removes and re-adds, incarnation bumps, heartbeat gaps,
    /// blackouts that expire everyone at once — one swept by
    /// `advance_to` (to the end of any deferral), one by the reference
    /// scan; the sweep bound is roomy on even seeds and 3 on odd ones.
    /// After every sweep each peer's status agrees with its record and
    /// its twin's, and each peer saw the same events at the same times in
    /// the same order.
    #[test]
    fn the_sweep_agrees_with_the_reference_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const PEERS: usize = 10;
        let (eta, dt) = (0.5, 0.5);
        let (mut deferred, mut superseded, mut cancelled, mut resets) = (0, 0, 0, 0);
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let twin = || {
                let m = ClusterMonitor::manual(ClusterConfig {
                    shards: 4,
                    max_expirations_per_sweep: if seed % 2 == 0 { 4096 } else { 3 },
                    ..ClusterConfig::default()
                });
                let rx = m.subscribe();
                (m, rx)
            };
            let ((wheel, wheel_rx), (scan, scan_rx)) = (twin(), twin());
            let both = [&wheel, &scan];
            #[derive(Clone, Copy, Default)]
            struct Life { registered: bool, incarnation: u64, seq: u64, silent_until: f64 }
            let mut lives = [Life::default(); PEERS];
            for step in 0..120u32 {
                let t = f64::from(step) * dt;
                if step % 40 == 20 {
                    lives.iter_mut().for_each(|l| l.silent_until = t + 3.0); // a blackout
                }
                for (p, l) in lives.iter_mut().enumerate() {
                    let peer = p as PeerId;
                    match rng.random_range(0..40u32) {
                        _ if !l.registered && (step == 0 || rng.random_bool(0.3)) => {
                            let cfg = PeerConfig::new(eta, 0.6 + 0.05 * p as f64).window(4);
                            both.iter().for_each(|m| m.add_peer(peer, cfg).unwrap());
                            *l = Life { registered: true, incarnation: 0, seq: 0, ..*l };
                        }
                        _ if !l.registered => {}
                        0 => {
                            both.iter().for_each(|m| assert!(m.remove_peer(peer)));
                            l.registered = false;
                        }
                        1 => (l.incarnation, l.seq) = (l.incarnation + 1, 0),
                        2 => l.silent_until = t + rng.random_range(1.0..4.0),
                        _ => {}
                    }
                    if l.registered && t >= l.silent_until {
                        l.seq += 1;
                        let heard = t + rng.random_range(0.0..0.1);
                        let hb = Heartbeat::new(l.seq, t);
                        for m in both {
                            assert!(m.record_at_incarnated(peer, heard, l.incarnation, hb));
                        }
                    }
                }
                let now = t + dt / 2.0;
                advance_scan(&scan, now);
                // Sweep to the end of any deferral.
                loop {
                    let before = wheel.stats().expirations_deferred;
                    wheel.advance_to(now);
                    if wheel.stats().expirations_deferred == before {
                        break;
                    }
                }
                for peer in 0..PEERS as PeerId {
                    let cell = format!("{:?}", wheel.status(peer));
                    let record = record_view(&wheel, peer);
                    assert_eq!(status_view(&wheel, peer), record, "{seed} at {now}");
                    assert_eq!(cell, format!("{:?}", scan.status(peer)), "{seed} at {now}");
                }
            }
            // Across peers a sweep's order is the wheel's, a scan's the
            // shard maps'; one peer's order is behaviour.
            let per_peer = |rx: &Subscription| {
                let mut events = drain(rx);
                events.sort_by_key(|ev| ev.peer);
                events
            };
            let events = per_peer(&wheel_rx);
            assert_eq!(events, per_peer(&scan_rx), "seed {seed}");
            let suspicions =
                events.iter().filter(|ev| ev.change == MembershipChange::Suspected).count() as u64;
            let stats = wheel.stats();
            assert_eq!(scan.stats().timers_fired, 0, "the scan never consults the wheel");
            deferred += stats.expirations_deferred;
            superseded += stats.timers_fired - suspicions;
            cancelled += unpoison(wheel.inner.wheel.lock()).len() as u64;
            resets += stats.incarnation_resets;
        }
        // The drives reached what the sweep has and the scan lacks.
        assert!(deferred > 0 && superseded > 0 && resets > 0, "{deferred} {superseded} {resets}");
        assert!(cancelled > 0, "entries of removed registrations were still on the wheel");
    }

    #[test]
    fn snapshot_splits_trusted_and_suspected() {
        let m = cluster();
        m.add_peer(1, PeerConfig::new(0.02, 0.05)).unwrap();
        m.add_peer(2, PeerConfig::new(0.02, 0.05)).unwrap();
        drive_trusted(&m, 1, 0.02, 5);
        let snap = m.snapshot();
        assert_eq!(snap.trusted(), vec![1]);
        assert_eq!(snap.suspected(), vec![2]);
        assert_eq!(snap.len(), 2);
        assert!(snap.taken_at() > 0.0);
        assert_eq!(snap.output(9), None);
        m.shutdown();
    }

    #[test]
    fn membership_events_in_order() {
        let m = cluster();
        let rx = m.subscribe();
        m.add_peer(5, PeerConfig::new(0.02, 0.04)).unwrap();
        drive_trusted(&m, 5, 0.02, 4);
        let due = deadline(&m, 5);
        m.advance_to(due + 0.01); // let it expire: a sweep 10 ms late
        m.remove_peer(5);
        m.shutdown();

        // Each at the time the script handed the monitor.
        let event = |at, change| MembershipEvent { peer: 5, at, change };
        assert_eq!(
            drain(&rx),
            [
                event(0.0, MembershipChange::Added),
                event(0.02, MembershipChange::Trusted),
                event(due + 0.01, MembershipChange::Suspected),
                event(due + 0.01, MembershipChange::Removed),
            ]
        );
    }

    #[test]
    fn slow_subscribers_lose_events_but_never_block() {
        let m = ClusterMonitor::spawn(ClusterConfig {
            event_capacity: 1,
            ..ClusterConfig::default()
        })
        .expect("spawn");
        let _rx = m.subscribe();
        for p in 0..8 {
            m.add_peer(p, PeerConfig::new(0.05, 0.1)).unwrap();
        }
        // Capacity 1: the first Added fits, the rest are dropped.
        assert_eq!(m.stats().events_dropped, 7);
        m.shutdown();
    }

    #[test]
    fn dropping_all_handles_stops_the_ticker() {
        let m = spawned();
        m.add_peer(1, PeerConfig::new(0.05, 0.1)).unwrap();
        drop(m);
        // Nothing to assert directly (the thread is detached); this test
        // exists so leak/deadlock detectors see the path exercised.
        std::thread::sleep(Duration::from_millis(20));
    }

    #[test]
    fn live_qos_tracks_interval_metrics() {
        let m = cluster();
        m.add_peer(7, PeerConfig::new(0.02, 0.05)).unwrap();
        m.advance_to(0.01);
        let q0 = m.qos(7).expect("registered peer has qos");
        assert_eq!(q0.s_transitions, 0);
        assert_eq!(q0.query_accuracy(), 0.0, "starts suspected, no trust time yet");

        // Trust (T-transition), go silent (S-transition), trust again.
        // The recovery heartbeat jumps the sequence ahead so its
        // freshness point lands in the future despite the silent gap.
        drive_trusted(&m, 7, 0.02, 5);
        let due = deadline(&m, 7);
        assert_eq!(m.advance_to(due), 1);
        assert!(!m.status(7).unwrap().output.is_trust());
        let back = due + 0.03;
        m.record_at(7, back, Heartbeat::new(40, back));
        assert!(m.status(7).unwrap().output.is_trust());

        let q = m.qos(7).expect("qos");
        assert_eq!(q.s_transitions, 1, "one suspicion observed");
        assert_eq!(q.t_transitions, 2, "initial trust plus the recovery");
        assert_eq!(q.duration.count(), 1, "the mistake was corrected");
        // Suspected until the first heartbeat at 30 ms and from the
        // freshness point to the recovery 30 ms later; trusted in between.
        let tm = q.mean_mistake_duration().expect("one complete T_M");
        assert!((tm - 0.03).abs() < 1e-9, "T_M = {tm}");
        assert!((q.suspect_time - 0.06).abs() < 1e-9, "suspected for {}", q.suspect_time);
        assert!((q.trust_time - (due - 0.03)).abs() < 1e-9, "trusted for {}", q.trust_time);
        let pa = q.query_accuracy();
        assert!((pa - (due - 0.03) / back).abs() < 1e-9, "P_A = {pa}");
        // The counters and the tracker agree on transition counts.
        let st = m.status(7).unwrap();
        assert_eq!(st.counters.suspicions, q.s_transitions);
        assert_eq!(st.counters.recoveries, q.t_transitions);
        assert!(m.qos(99).is_none(), "unregistered peer has no qos");

        // qos_snapshot returns the same peer, sorted.
        let all = m.qos_snapshot();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].peer, 7);
        assert_eq!(all[0].qos.s_transitions, 1);
        m.shutdown();
    }

    #[test]
    fn dropped_subscribers_are_pruned_and_counted() {
        let m = cluster();
        let rx = m.subscribe();
        let _live = m.subscribe();
        m.add_peer(1, PeerConfig::new(0.05, 0.1)).unwrap();
        drop(rx);
        // The next emit prunes the dropped subscriber.
        m.add_peer(2, PeerConfig::new(0.05, 0.1)).unwrap();
        let stats = m.stats();
        assert_eq!(stats.subscribers_disconnected, 1);
        assert_eq!(stats.events_dropped, 0, "disconnect is not an event drop");
        m.shutdown();
    }

    #[test]
    fn election_candidates_reflect_trust_and_stability() {
        let m = cluster();
        m.add_peer(1, PeerConfig::new(0.02, 0.05)).unwrap();
        m.add_peer(2, PeerConfig::new(0.02, 0.05)).unwrap();
        // Peer 1 heartbeats; peer 2 stays silent (suspected/unproven).
        drive_trusted(&m, 1, 0.02, 5);
        let cands = m.election_candidates();
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].peer, 1);
        assert!(cands[0].trusted);
        assert!(cands[0].stable_for > 0.0, "trusted peer has a running good period");
        assert_eq!(cands[1].peer, 2);
        assert!(!cands[1].trusted);
        assert_eq!(cands[1].stable_for, 0.0, "untrusted peers carry no stability");
        m.shutdown();
    }
}
