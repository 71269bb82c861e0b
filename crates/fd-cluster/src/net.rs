//! Batched heartbeat transport over the [`mmsg`] datagram
//! plane: many peers, batched syscalls, sharded sockets.
//!
//! [`ClusterSender`] multiplexes heartbeats for any number of peers:
//! callers `queue` entries and the sender packs up to `max_batch` of
//! them, in at most 1 472 bytes, per datagram ([`wire`](crate::wire)
//! heartbeat frames, carrying each sender's incarnation), flushing
//! automatically when a batch fills and explicitly at period boundaries.
//! A flush encodes every chunk into a reusable frame pool and hands the
//! whole round to the plane in one `sendmmsg` call (one `send` per frame
//! on the portable fallback).
//! Entries that miss the wire — a mid-flush socket error, or the kernel
//! accepting only a prefix of the batch — **stay queued** and go out on
//! the next flush; a socket hiccup never silently deletes heartbeats,
//! because fabricated message loss would corrupt every QoS number
//! downstream. [`ClusterReceiver`] binds one *or several* `SO_REUSEPORT`
//! sockets ([`ClusterReceiverConfig::pump_threads`]), each drained by a
//! supervised pump thread pulling up to 32 datagrams per `recvmmsg` into
//! a preallocated [`FrameArena`]. The receive batch is the pump's unit of
//! work: it reads the cluster clock once when `recv_batch` returns —
//! the receipt time of every heartbeat in the batch — and hands the
//! frames to [`ingest_frames`], then adds what it counted to the
//! receiver's counters. The pump itself keeps only the socket, the
//! shutdown sentinel, supervision and receive coalescing: after a short
//! batch of unbatched traffic (the socket drained, fewer entries than
//! one full frame) it waits a quarter of the monitor's
//! [`tick`](crate::ClusterConfig::tick) before it receives again, so the
//! next wake-up carries a batch — the pause interrupt moderation takes
//! on a network card. Batched senders fill a frame per wake-up and never
//! wait. The receipt-time contract is therefore: **stamped when
//! `recv_batch` returns, at most a quarter tick (plus sleep slack) after
//! arrival for unbatched traffic** — late, never early, so a freshness
//! point moves later by less than the wheel's own one-tick rounding.
//!
//! [`ingest_frames`] is the one way bytes become heartbeats, and it
//! touches no socket and reads no clock: it decodes every frame into one
//! reusable entry buffer, sheds what exceeds the budget, and records the
//! rest with one
//! [`ClusterMonitor::record_batch_at`](crate::ClusterMonitor::record_batch_at),
//! which takes each touched registry shard's lock once. The live pump,
//! the scenario driver (`fd_smc::drive`, one frame per delivery) and the
//! tests all ingest through it, so a damaged frame is lost the same way
//! everywhere.
//!
//! The receive pumps are *supervised* ([`crate::backoff`]), so a panic
//! while handling one datagram degrades the queryable
//! [`pump_health`](ClusterReceiver::pump_health) and restarts the pump
//! (within the crate's one restart budget) instead of
//! silently killing reception — a dead receiver would suspect the whole
//! cluster. Transient socket errors (`EINTR`, `ECONNREFUSED` from a
//! stray ICMP, `ENOBUFS`) are likewise *not* treated as shutdown: they
//! are counted ([`recv_errors`](ClusterReceiver::recv_errors)), surface
//! as `Health::Degraded` until the next successful receive, and the
//! pump keeps pulling; only the shutdown sentinel or a genuinely fatal
//! error stops it. It also sheds load: with
//! [`ClusterReceiverConfig::max_entries_per_sec`] set, entries beyond
//! the budget in any one-second window of cluster time are dropped and
//! counted ([`entries_shed`](ClusterReceiver::entries_shed), mirrored into
//! [`ClusterStats::entries_shed`](crate::ClusterStats::entries_shed))
//! rather than letting a heartbeat flood starve the monitor's shard
//! locks.
//!
//! Chaos testing reuses the PR-1 [`FaultPlan`]: the sender routes each
//! queued entry through the plan's [`FaultInjector`] (optionally only for
//! a designated subset of peers), so a scripted partition drops exactly
//! the targeted peers' heartbeats while the rest of the batch still goes
//! out — loss at the granularity the paper's model assumes (per message),
//! not per datagram. Injected *delays* are folded to immediate delivery
//! (batching is synchronous); loss, partitions and duplication apply
//! exactly.
//!
//! The adaptive control plane adds the reverse path:
//! [`ControlSender`] ships drained `η` recommendations as wire
//! control frames toward the heartbeat *senders*, and a
//! [`ControlListener`] on the sender side decodes them into a callback
//! (typically one that retunes the period the sender paces its
//! [`ClusterSender`] rounds with).
//! Control traffic is advisory and idempotent — a lost datagram just
//! means the next control round recommends again. The listener's pump
//! is the heartbeat pump with another frame handler: the two share the
//! receive plane, the receive step (stop flag, transient-error
//! accounting, health), the sentinel check and the supervision; it
//! never coalesces, because control traffic is advisory and rare.

use crate::backoff::{supervise, Supervised};
use crate::mmsg::{self, BatchReceiver, BatchSender, FrameArena};
use crate::wire::{
    decode_batch_into, decode_frame, encode_batch_into, encode_control_into, heartbeat_prefix,
    ControlEntry, Frame, HeartbeatEntry, MAX_BATCH, MAX_CONTROL_BATCH,
};
use crate::{unpoison, ClusterMonitor, Health, PeerId, RuntimeError};
use fd_sim::{FaultInjector, FaultPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Sender-side configuration.
pub struct ClusterSenderConfig {
    /// Most entries per datagram, clamped to `1..=`[`MAX_BATCH`]; a
    /// datagram holds fewer when its entries share fewer columns (see
    /// [`wire`](crate::wire)).
    pub max_batch: usize,
    /// Scripted fault timeline applied per entry (time is the entry's
    /// `send_time`, i.e. the sender's cluster clock).
    pub fault_plan: Option<FaultPlan>,
    /// If set, the plan applies only to these peers — a partition of a
    /// subset of the cluster; everyone else's heartbeats flow untouched.
    /// `None` applies the plan to all peers.
    pub faulty_peers: Option<Vec<PeerId>>,
    /// RNG seed for the injection (XOR-folded with the plan's seed).
    pub seed: u64,
}

impl Default for ClusterSenderConfig {
    fn default() -> Self {
        Self {
            max_batch: MAX_BATCH,
            fault_plan: None,
            faulty_peers: None,
            seed: 0,
        }
    }
}

impl std::fmt::Debug for ClusterSenderConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSenderConfig")
            .field("max_batch", &self.max_batch)
            .field("has_fault_plan", &self.fault_plan.is_some())
            .field("faulty_peers", &self.faulty_peers)
            .finish()
    }
}

fn net_err(op: &'static str) -> impl Fn(io::Error) -> RuntimeError {
    move |source| RuntimeError::Net { op, source }
}

/// An ephemeral local socket connected to `peer`.
fn connected_socket(peer: SocketAddr) -> Result<UdpSocket, RuntimeError> {
    let bind_ip: IpAddr = match peer {
        SocketAddr::V4(_) => Ipv4Addr::UNSPECIFIED.into(),
        SocketAddr::V6(_) => Ipv6Addr::UNSPECIFIED.into(),
    };
    let socket = UdpSocket::bind((bind_ip, 0)).map_err(net_err("bind"))?;
    socket.connect(peer).map_err(net_err("connect"))?;
    Ok(socket)
}

/// Encodes `entries` into the reusable frame pool, each frame the prefix
/// `cut` takes from what is left, and hands the whole round to the plane
/// in one call. Returns the plane's outcome and how many entries the
/// frames it accepted held.
fn send_chunked<T>(
    plane: &mut dyn BatchSender,
    frames: &mut Vec<Vec<u8>>,
    counts: &mut Vec<usize>,
    entries: &[T],
    cut: impl Fn(&[T]) -> usize,
    encode: fn(&[T], &mut Vec<u8>),
) -> (mmsg::SendOutcome, usize) {
    counts.clear();
    let mut rest = entries;
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at(cut(rest));
        if frames.len() == counts.len() {
            frames.push(Vec::new());
        }
        encode(chunk, &mut frames[counts.len()]);
        counts.push(chunk.len());
        rest = tail;
    }
    let outcome = plane.send_frames(&frames[..counts.len()]);
    // Frames hold unequal counts, so the accepted frames map back to
    // entries through theirs.
    let sent_entries = counts[..outcome.sent].iter().sum();
    (outcome, sent_entries)
}

/// Sends batched heartbeats for many peers over one UDP socket, handed
/// to the kernel through the batched [`mmsg`] plane.
pub struct ClusterSender {
    plane: Box<dyn BatchSender>,
    max_batch: usize,
    injector: Option<FaultInjector>,
    faulty: Option<HashSet<PeerId>>,
    rng: StdRng,
    /// Queued entries that have not yet passed fault injection.
    pending: Vec<HeartbeatEntry>,
    /// Injection survivors that have not yet reached the wire. Kept
    /// separate from `pending` so a retained (error-stalled) entry is
    /// never run through the fault plan a second time.
    ready: Vec<HeartbeatEntry>,
    /// Reusable encoded-frame pool, one slot per chunk of a flush.
    frames: Vec<Vec<u8>>,
    /// Entries in each frame of the pool, for the flush that filled it.
    counts: Vec<usize>,
    /// Reusable fate buffer of the fault injection, so a flush allocates
    /// nothing once the pools have grown.
    fates: Vec<f64>,
    datagrams_sent: u64,
    entries_sent: u64,
}

impl std::fmt::Debug for ClusterSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSender")
            .field("max_batch", &self.max_batch)
            .field("pending", &(self.pending.len() + self.ready.len()))
            .finish()
    }
}

impl ClusterSender {
    /// Binds an ephemeral local socket and connects it to the receiver.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Net`] on socket errors.
    pub fn connect(receiver: SocketAddr, cfg: ClusterSenderConfig) -> Result<Self, RuntimeError> {
        Self::connect_wrapped(receiver, cfg, |plane| plane)
    }

    /// [`connect`](Self::connect), passing the datagram plane through
    /// `wrap` before use — the seam fault-injecting tests use to script
    /// mid-flush socket failures deterministically.
    fn connect_wrapped(
        receiver: SocketAddr,
        cfg: ClusterSenderConfig,
        wrap: impl FnOnce(Box<dyn BatchSender>) -> Box<dyn BatchSender>,
    ) -> Result<Self, RuntimeError> {
        let socket = connected_socket(receiver)?;
        let mut seed = cfg.seed;
        let injector = cfg.fault_plan.as_ref().map(|p| {
            seed ^= p.seed();
            p.injector()
        });
        Ok(Self {
            plane: wrap(mmsg::batch_sender(socket)),
            max_batch: cfg.max_batch.clamp(1, MAX_BATCH),
            injector,
            faulty: cfg.faulty_peers.map(|v| v.into_iter().collect()),
            rng: StdRng::seed_from_u64(seed),
            pending: Vec::new(),
            ready: Vec::new(),
            frames: Vec::new(),
            counts: Vec::new(),
            fates: Vec::new(),
            datagrams_sent: 0,
            entries_sent: 0,
        })
    }

    /// Queues one heartbeat at incarnation 0 (a sender that never
    /// persists an incarnation — the crash-stop model). Flushes
    /// automatically once a full batch is pending; call
    /// [`flush`](Self::flush) after queueing a round so the tail does
    /// not sit until the next round.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from an automatic flush.
    pub fn queue(&mut self, peer: PeerId, seq: u64, send_time: f64) -> io::Result<()> {
        self.queue_incarnated(peer, 0, seq, send_time)
    }

    /// Queues one heartbeat carrying the sender's incarnation (from its
    /// [`IncarnationStore`](crate::IncarnationStore), bumped once per
    /// start, so a restarted sender's traffic supersedes its previous
    /// life's).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from an automatic flush.
    pub fn queue_incarnated(
        &mut self,
        peer: PeerId,
        incarnation: u64,
        seq: u64,
        send_time: f64,
    ) -> io::Result<()> {
        self.pending.push(HeartbeatEntry { peer, incarnation, seq, send_time });
        if self.pending.len() >= self.max_batch {
            self.flush()?;
        }
        Ok(())
    }

    /// Sends everything pending, packed into datagrams of at most
    /// `max_batch` entries and 1 472 bytes each (after per-entry fault
    /// injection), in one batched plane call.
    /// Returns the number of datagrams handed to the socket.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; undelivered entries stay pending — a
    /// chunk the kernel never accepted (mid-flush error, or a partial
    /// `sendmmsg`) is retained verbatim and retried by the next flush,
    /// so a socket hiccup cannot fabricate message loss.
    pub fn flush(&mut self) -> io::Result<usize> {
        // Per-entry injection: each heartbeat suffers its own fate, as in
        // the paper's per-message loss model. fates.len() ∈ {0, 1, 2}:
        // dropped, delivered, duplicated. Survivors move to `ready` and
        // are injected exactly once, however many flushes they need.
        for entry in self.pending.drain(..) {
            let targeted =
                self.faulty.as_ref().is_none_or(|set| set.contains(&entry.peer));
            match (&mut self.injector, targeted) {
                (Some(inj), true) => {
                    self.fates.clear();
                    inj.apply(entry.send_time, Some(0.0), &mut self.rng, &mut self.fates);
                    for _ in 0..self.fates.len() {
                        self.ready.push(entry);
                    }
                }
                _ => self.ready.push(entry),
            }
        }
        if self.ready.is_empty() {
            return Ok(0);
        }
        let max_batch = self.max_batch;
        let (outcome, sent_entries) = send_chunked(
            self.plane.as_mut(),
            &mut self.frames,
            &mut self.counts,
            &self.ready,
            |rest| heartbeat_prefix(rest, max_batch),
            encode_batch_into,
        );
        self.datagrams_sent += outcome.sent as u64;
        self.entries_sent += sent_entries as u64;
        self.ready.drain(..sent_entries);
        match outcome.error {
            Some(e) => Err(e),
            None => Ok(outcome.sent),
        }
    }

    /// Datagrams handed to the socket since connect.
    pub fn datagrams_sent(&self) -> u64 {
        self.datagrams_sent
    }

    /// Heartbeat entries handed to the socket since connect (post
    /// injection: drops excluded, duplicates included).
    pub fn entries_sent(&self) -> u64 {
        self.entries_sent
    }

    /// Entries queued or retained but not yet on the wire (pre- and
    /// post-injection stages combined).
    #[cfg(test)]
    fn pending_entries(&self) -> usize {
        self.pending.len() + self.ready.len()
    }

    /// Mean entries per datagram so far — the batching win over one
    /// datagram per heartbeat.
    pub fn batching_factor(&self) -> f64 {
        if self.datagrams_sent == 0 {
            0.0
        } else {
            self.entries_sent as f64 / self.datagrams_sent as f64
        }
    }
}

/// Receiver-side configuration.
#[derive(Debug, Clone)]
pub struct ClusterReceiverConfig {
    /// Overload budget: at most this many heartbeat entries are recorded
    /// per one-second window across all pumps; the excess is shed
    /// (counted, never blocking). `None` disables shedding.
    pub max_entries_per_sec: Option<u64>,
    /// Supervised pump threads. Above 1 the receiver binds that many
    /// `SO_REUSEPORT` sockets on the same address so the kernel shards
    /// inbound flows across them (IPv4 + Linux; elsewhere it falls back
    /// to one socket and one pump).
    pub pump_threads: usize,
    /// If set, request this kernel receive buffer (`SO_RCVBUF`) on every
    /// pump socket — heartbeat floods burst faster than a pump wakes.
    pub recv_buffer_bytes: Option<usize>,
}

impl Default for ClusterReceiverConfig {
    fn default() -> Self {
        Self { max_entries_per_sec: None, pump_threads: 1, recv_buffer_bytes: None }
    }
}

/// Datagrams a receive pump pulls per `recvmmsg` call: its arena size.
const RECV_BATCH: usize = 32;

/// Read timeout on pump sockets: a blocked `recvmmsg` wakes at this
/// cadence to poll the stop flag (the shutdown sentinel reaches only
/// whichever sharded socket the kernel hashes it to).
const PUMP_POLL_TIMEOUT: Duration = Duration::from_millis(25);

/// Sentinel datagram that tells the pump thread to exit; honored only
/// from this receiver's own shutdown socket — any other sender carrying
/// the same bytes is noise, so a remote peer cannot spoof a shutdown.
const SHUTDOWN_SENTINEL: [u8; 4] = *b"BYE!";

/// Consecutive transient receive errors a pump tolerates before it
/// concedes the condition is not transient after all — generous,
/// because one success resets the count.
const MAX_TRANSIENT: u64 = 64;

/// Counters and supervision state shared by the pumps of one receiver:
/// the heartbeat pumps of a [`ClusterReceiver`], or the one pump of a
/// [`ControlListener`].
struct PumpShared {
    datagrams: AtomicU64,
    entries: AtomicU64,
    rejected: AtomicU64,
    /// Heartbeat entries dropped by overload shedding.
    shed: AtomicU64,
    /// Well-formed frames of a kind the control listener does not take.
    ignored: AtomicU64,
    /// Transient + fatal receive errors survived or died on (visible via
    /// `recv_errors()` — a quiet nonzero here explains a `Degraded`
    /// health without digging through logs).
    recv_errors: AtomicU64,
    /// Cooperative shutdown: set by whichever pump the sentinel datagram
    /// reaches, and by `stop_pumps` once one pump has exited or the
    /// sentinel is overdue; every pump polls it each wakeup.
    stop: AtomicBool,
    /// Pumps still running; the last one out marks `Stopped`.
    live_pumps: AtomicU64,
    /// Each pump's exit as it ends (`None`: its restart budget ran out),
    /// for `stop_pumps` to wait on and report (behind a mutex, because a
    /// `std` receiver is not `Sync`).
    exit_tx: Sender<Option<PumpExit>>,
    exit_rx: Mutex<Receiver<Option<PumpExit>>>,
    /// The heartbeat pump's pause after a short receive batch of
    /// unbatched traffic (see [`pump`]): a quarter of the monitor's tick
    /// for a [`ClusterReceiver`], zero — never read — for the control
    /// listener.
    coalesce: Duration,
    /// Health and restart count shared by the pumps; the restart budget
    /// is each pump's own.
    sup: Supervised,
}

impl PumpShared {
    fn new(pumps: usize) -> Self {
        let (exit_tx, exit_rx) = mpsc::channel();
        Self {
            datagrams: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            ignored: AtomicU64::new(0),
            recv_errors: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            live_pumps: AtomicU64::new(pumps as u64),
            exit_tx,
            exit_rx: Mutex::new(exit_rx),
            coalesce: Duration::ZERO,
            // The datagram that tripped a panic has already been
            // consumed, so the pause before resuming costs little.
            sup: Supervised::brief(),
        }
    }
}

/// Receives batched heartbeats on one or more sharded UDP sockets and
/// feeds them into a [`ClusterMonitor`].
pub struct ClusterReceiver {
    addr: SocketAddr,
    shutdown: UdpSocket,
    shared: Arc<PumpShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ClusterReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterReceiver").field("addr", &self.addr).finish()
    }
}

impl ClusterReceiver {
    /// Binds `addr` (e.g. `127.0.0.1:0`) with the default receiver
    /// configuration and starts a supervised pump thread that records
    /// every decoded entry into `monitor` at arrival time.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Net`] on socket errors and
    /// [`RuntimeError::Spawn`] if the pump thread cannot start.
    pub fn bind(addr: SocketAddr, monitor: ClusterMonitor) -> Result<Self, RuntimeError> {
        Self::bind_with(addr, monitor, ClusterReceiverConfig::default())
    }

    /// [`bind`](Self::bind) with explicit supervision/shedding settings.
    ///
    /// # Errors
    ///
    /// Same as [`bind`](Self::bind).
    pub fn bind_with(
        addr: SocketAddr,
        monitor: ClusterMonitor,
        cfg: ClusterReceiverConfig,
    ) -> Result<Self, RuntimeError> {
        // Shard the port across pump sockets where the platform allows;
        // anywhere it does not, one socket and one pump is the same
        // receiver at lower throughput, never an error.
        let sockets = if cfg.pump_threads > 1 {
            mmsg::bind_reuseport(addr, cfg.pump_threads)
                .or_else(|_| UdpSocket::bind(addr).map(|s| vec![s]))
                .map_err(net_err("bind"))?
        } else {
            vec![UdpSocket::bind(addr).map_err(net_err("bind"))?]
        };
        let addr = sockets[0].local_addr().map_err(net_err("local_addr"))?;
        for socket in &sockets {
            mmsg::set_poll_timeout(socket, PUMP_POLL_TIMEOUT).map_err(net_err("set_timeout"))?;
            if let Some(bytes) = cfg.recv_buffer_bytes {
                // Best-effort: rmem_max may clamp it below the request.
                let _ = mmsg::set_recv_buffer(socket, bytes);
            }
        }
        let shutdown = UdpSocket::bind((loopback_ip(&addr), 0)).map_err(net_err("bind"))?;
        let shutdown_addr = shutdown.local_addr().map_err(net_err("local_addr"))?;
        let shared = Arc::new(PumpShared {
            coalesce: Duration::from_secs_f64(monitor.tick() / 4.0),
            ..PumpShared::new(sockets.len())
        });
        // `None` when shedding is off, so the unlimited receiver never
        // takes a lock for it.
        let budget: Option<Arc<Mutex<EntryBudget>>> =
            cfg.max_entries_per_sec.map(|limit| Arc::new(Mutex::new(EntryBudget::new(limit))));
        let mut handles = Vec::with_capacity(sockets.len());
        for (i, socket) in sockets.into_iter().enumerate() {
            let pump_shared = Arc::clone(&shared);
            let pump_budget = budget.clone();
            let pump_monitor = monitor.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("fd-cluster-recv-{i}"))
                .spawn(move || {
                    let mut plane = mmsg::batch_receiver(socket, RECV_BATCH);
                    let mut bufs = PumpBuffers::new(RECV_BATCH);
                    supervised(&pump_shared, || {
                        pump(
                            plane.as_mut(),
                            &mut bufs,
                            &pump_monitor,
                            shutdown_addr,
                            &pump_shared,
                            pump_budget.as_deref(),
                            std::thread::sleep,
                        )
                    })
                });
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // The pumps already running hold their sockets and a
                    // monitor clone; stop and join them, or nothing
                    // would ever be able to.
                    shared.stop.store(true, Ordering::SeqCst);
                    for handle in handles {
                        let _ = handle.join();
                    }
                    return Err(RuntimeError::Spawn { thread: "fd-cluster-recv", source: e });
                }
            }
        }
        Ok(Self { addr, shutdown, shared, handles })
    }

    /// The bound address senders should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Well-formed batch datagrams received.
    pub fn datagrams_received(&self) -> u64 {
        self.shared.datagrams.load(Ordering::Relaxed)
    }

    /// Heartbeat entries recorded into the monitor.
    pub fn entries_received(&self) -> u64 {
        self.shared.entries.load(Ordering::Relaxed)
    }

    /// Datagrams rejected as malformed or foreign.
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Entries dropped by overload shedding.
    pub fn entries_shed(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// Times the panicking pump was restarted by its supervisor.
    pub fn pump_restarts(&self) -> u64 {
        self.shared.sup.restarts()
    }

    /// Receive errors survived (transient, retried) or died on (fatal),
    /// across all pumps. Idle read-timeout wakeups are not errors and
    /// are not counted.
    pub fn recv_errors(&self) -> u64 {
        self.shared.recv_errors.load(Ordering::Relaxed)
    }

    /// Health of the supervised pumps: `Healthy` until a panic or a
    /// transient receive error, `Degraded` while the restart budget
    /// lasts or until the next successful receive, `Stopped` after
    /// shutdown, budget exhaustion, or the last pump dying fatally.
    pub fn pump_health(&self) -> Health {
        self.shared.sup.health()
    }

    /// Stops all pump threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Stops and joins the pumps; returns how each one ended.
    fn stop(&mut self) -> Vec<Option<PumpExit>> {
        stop_pumps(&self.shared, &self.shutdown, self.addr, &mut self.handles)
    }
}

impl Drop for ClusterReceiver {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Stops and joins a receiver's pump threads and returns how each one
/// ended, in the order they did (empty the second time).
fn stop_pumps(
    shared: &PumpShared,
    shutdown: &UdpSocket,
    mut target: SocketAddr,
    handles: &mut Vec<std::thread::JoinHandle<()>>,
) -> Vec<Option<PumpExit>> {
    if handles.is_empty() {
        return Vec::new();
    }
    if target.ip().is_unspecified() {
        target.set_ip(loopback_ip(&target));
    }
    // Sentinel first: it reaches one sharded socket, and the pump it
    // stops raises the flag for its siblings. The flag is raised here
    // too, once a pump has exited or a poll period has passed, so a
    // sentinel that never arrives (a full socket buffer drops it) costs
    // one poll period, and the exits say which of the two it was.
    let _ = shutdown.send_to(&SHUTDOWN_SENTINEL, target);
    let exits = unpoison(shared.exit_rx.lock());
    let first = exits.recv_timeout(PUMP_POLL_TIMEOUT).ok();
    shared.stop.store(true, Ordering::SeqCst);
    for handle in handles.drain(..) {
        let _ = handle.join();
    }
    *unpoison(shared.sup.health.lock()) = Health::Stopped;
    first.into_iter().chain(std::iter::from_fn(|| exits.try_recv().ok())).collect()
}

fn loopback_ip(addr: &SocketAddr) -> IpAddr {
    match addr {
        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
    }
}

/// Per-second token budget for overload shedding (shared across pumps
/// behind one mutex — shedding math stays exact however many sockets
/// feed it). Its windows are one second of cluster time, read off the
/// receive batches it admits.
struct EntryBudget {
    limit: u64,
    window_start: f64,
    used: u64,
}

impl EntryBudget {
    fn new(limit: u64) -> Self {
        Self { limit, window_start: f64::NEG_INFINITY, used: 0 }
    }

    /// How many of `want` entries fit in the window cluster time `now`
    /// falls in; the first call a second or more past the window's start
    /// opens the next window at `now`.
    fn admit(&mut self, want: u64, now: f64) -> u64 {
        if now - self.window_start >= 1.0 {
            self.window_start = now;
            self.used = 0;
        }
        let granted = want.min(self.limit.saturating_sub(self.used));
        self.used += granted;
        granted
    }
}

/// Why a pump's receive loop exited (a panic unwinds past this and is
/// handled by the supervisor instead).
#[derive(Debug, PartialEq, Eq)]
enum PumpExit {
    /// The shutdown sentinel, from this receiver's own shutdown socket:
    /// deliberate, clean.
    Sentinel,
    /// The stop flag — a sibling's clean exit, or `stop_pumps` after the
    /// sentinel was overdue: deliberate, clean.
    Stopped,
    /// A fatal (or endlessly repeating transient) socket error.
    Fatal,
}

/// How the pump treats a receive error.
enum RecvErrorClass {
    /// Read-timeout wakeup (`EAGAIN`/`EWOULDBLOCK`): not an error, just
    /// the stop-flag poll cadence.
    Idle,
    /// Worth retrying: signal interruption, ICMP-reflected connection
    /// errors on UDP, transient kernel memory pressure.
    Transient,
    /// Nothing to retry (e.g. `EBADF`): the pump must stop.
    Fatal,
}

fn classify_recv_error(e: &io::Error) -> RecvErrorClass {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => RecvErrorClass::Idle,
        io::ErrorKind::Interrupted
        | io::ErrorKind::ConnectionRefused
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted => RecvErrorClass::Transient,
        _ => match e.raw_os_error() {
            // ENOBUFS, ENOMEM, ENETUNREACH, EHOSTUNREACH: transient
            // kernel/network conditions a UDP receiver rides out.
            Some(105) | Some(12) | Some(101) | Some(113) => RecvErrorClass::Transient,
            _ => RecvErrorClass::Fatal,
        },
    }
}

/// Runs one pump's receive loop under the crate's supervisor: a panic
/// restarts it within the budget of [`PumpShared::sup`]. A clean exit
/// stops the sibling pumps too; the last pump to exit marks the receiver
/// `Stopped`. The exit goes to [`PumpShared::exit_tx`] last.
fn supervised(shared: &PumpShared, pump: impl FnMut() -> PumpExit) {
    let exit = supervise(&shared.sup, pump, |backoff| {
        std::thread::sleep(backoff);
        true
    });
    let clean = matches!(exit, Some(PumpExit::Sentinel | PumpExit::Stopped));
    if clean {
        // Propagate to sibling pumps on sharded sockets.
        shared.stop.store(true, Ordering::SeqCst);
    }
    let remaining = shared.live_pumps.fetch_sub(1, Ordering::SeqCst) - 1;
    if remaining == 0 {
        *unpoison(shared.sup.health.lock()) = Health::Stopped;
    } else if !clean {
        *unpoison(shared.sup.health.lock()) =
            Health::Degraded { reason: "pump exited fatally; siblings still receiving".into() };
    }
    // The receiver holds the other end for as long as its pumps run.
    let _ = shared.exit_tx.send(exit);
}

/// The receive step both pumps share: polls the stop flag and retries
/// through idle wakeups and transient errors (counted, `Degraded` until
/// the next success) until `recv` succeeds. `Err` is why the pump must
/// exit instead.
fn recv_next<T>(
    shared: &PumpShared,
    mut recv: impl FnMut() -> io::Result<T>,
) -> Result<T, PumpExit> {
    let mut consecutive_transient: u64 = 0;
    // Whether *this* call degraded health for a transient error — only
    // then may the success restore `Healthy` (never stomping a
    // `Degraded` owed to panic supervision).
    let mut transient_degraded = false;
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return Err(PumpExit::Stopped);
        }
        let e = match recv() {
            Ok(got) => {
                if transient_degraded {
                    *unpoison(shared.sup.health.lock()) = Health::Healthy;
                }
                return Ok(got);
            }
            Err(e) => e,
        };
        match classify_recv_error(&e) {
            RecvErrorClass::Idle => {}
            RecvErrorClass::Transient => {
                shared.recv_errors.fetch_add(1, Ordering::Relaxed);
                consecutive_transient += 1;
                if !transient_degraded {
                    transient_degraded = true;
                    *unpoison(shared.sup.health.lock()) =
                        Health::Degraded { reason: format!("transient recv error: {e}") };
                }
                if consecutive_transient > MAX_TRANSIENT {
                    return Err(PumpExit::Fatal);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            RecvErrorClass::Fatal => {
                shared.recv_errors.fetch_add(1, Ordering::Relaxed);
                return Err(PumpExit::Fatal);
            }
        }
    }
}

/// The buffers one pump thread owns for its whole life (they outlive a
/// supervised restart): allocated once, so the steady-state pump
/// allocates nothing per datagram or per batch.
struct PumpBuffers {
    /// The datagrams of one `recv_batch` call.
    arena: FrameArena,
    /// Every heartbeat entry of that receive batch, decoded before any
    /// is recorded.
    entries: Vec<HeartbeatEntry>,
}

impl PumpBuffers {
    fn new(recv_batch: usize) -> Self {
        Self {
            arena: FrameArena::new(recv_batch),
            // A full arena of full frames.
            entries: Vec::with_capacity(recv_batch * MAX_BATCH),
        }
    }
}

/// The receive loop. The unit of work is the receive batch: one clock
/// read when `recv_batch` returns, then one [`ingest_frames`] of the
/// frames ahead of any sentinel, its counts added to `shared`, then
/// `pause(shared.coalesce)` if the batch was short and held less than a
/// full frame of entries (receive coalescing).
fn pump(
    plane: &mut dyn BatchReceiver,
    bufs: &mut PumpBuffers,
    monitor: &ClusterMonitor,
    shutdown_addr: SocketAddr,
    shared: &PumpShared,
    budget: Option<&Mutex<EntryBudget>>,
    mut pause: impl FnMut(Duration),
) -> PumpExit {
    let PumpBuffers { arena, entries } = bufs;
    loop {
        let n = match recv_next(shared, || plane.recv_batch(arena)) {
            Ok(n) => n,
            Err(exit) => return exit,
        };
        // The receipt time A' of every heartbeat in the batch (NFD-E,
        // Eq. 6.3): they had all arrived when `recv_batch` returned, and
        // how long the pump takes to reach the last of them is not
        // network delay.
        let now = monitor.now();
        let sentinel = sentinel_at(arena, n, shutdown_addr);
        // Ingest what the batch holds ahead of the sentinel before
        // acting on it: those heartbeats were received, and leaving
        // without them would be fabricated message loss.
        let frames = (0..sentinel.unwrap_or(n)).map(|i| arena.frame(i));
        let counts = ingest_frames(monitor, now, frames, entries, |want| match budget {
            Some(b) => unpoison(b.lock()).admit(want, now),
            None => want,
        });
        shared.datagrams.fetch_add(counts.datagrams, Ordering::Relaxed);
        shared.entries.fetch_add(counts.entries, Ordering::Relaxed);
        shared.rejected.fetch_add(counts.rejected, Ordering::Relaxed);
        shared.shed.fetch_add(counts.shed, Ordering::Relaxed);
        if sentinel.is_some() {
            return PumpExit::Sentinel;
        }
        // Receive coalescing. A short batch drained the socket; under a
        // full frame of entries it paid a wake-up for little work, as
        // unbatched senders (one heartbeat a datagram) make it do. Waiting
        // lets the next `recv_batch` return a batch; its heartbeats are
        // stamped at most `coalesce` late, less than the wheel's one-tick
        // rounding of every freshness point.
        if n < arena.batch()
            && counts.entries + counts.shed < MAX_BATCH as u64
            && !shared.stop.load(Ordering::Relaxed)
        {
            pause(shared.coalesce);
        }
    }
}

/// The index of the first shutdown sentinel from this receiver's own
/// shutdown socket among the `n` datagrams of a receive batch, if any.
fn sentinel_at(arena: &FrameArena, n: usize, shutdown_addr: SocketAddr) -> Option<usize> {
    (0..n).find(|&i| arena.frame(i) == SHUTDOWN_SENTINEL && arena.source(i) == shutdown_addr)
}

/// What [`ingest_frames`] made of one receive batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchCounts {
    /// Well-formed heartbeat frames.
    pub datagrams: u64,
    /// Heartbeat entries handed to the monitor.
    pub entries: u64,
    /// Frames rejected as malformed or foreign (any other kind or
    /// version, a failed check, noise).
    pub rejected: u64,
    /// Entries of well-formed frames that the shed budget dropped.
    pub shed: u64,
}

/// Takes one receive batch of datagrams, all received at cluster time
/// `now`, into `monitor` — the one way bytes become heartbeats. Decodes
/// every frame into `entries` (cleared first; the caller owns it so a
/// steady-state loop allocates nothing), keeps the first `admit(n)` of
/// the `n` decoded entries (the shed budget; `|n| n` sheds nothing),
/// records those with one
/// [`ClusterMonitor::record_batch_at`](crate::ClusterMonitor::record_batch_at)
/// at `now`, counts the shed ones into
/// [`ClusterStats::entries_shed`](crate::ClusterStats::entries_shed),
/// and returns the counts. A rejected frame contributes no entry: its
/// heartbeats are lost, never read as different ones.
pub fn ingest_frames<'a>(
    monitor: &ClusterMonitor,
    now: f64,
    frames: impl IntoIterator<Item = &'a [u8]>,
    entries: &mut Vec<HeartbeatEntry>,
    admit: impl FnOnce(u64) -> u64,
) -> BatchCounts {
    entries.clear();
    let mut counts = BatchCounts::default();
    for frame in frames {
        match decode_batch_into(frame, entries) {
            Some(_) => counts.datagrams += 1,
            None => counts.rejected += 1,
        }
    }
    // Admitting the batch's entries at once keeps the prefix that
    // admitting frame by frame would keep: the budget is greedy.
    let decoded = entries.len() as u64;
    counts.entries = admit(decoded).min(decoded);
    counts.shed = decoded - counts.entries;
    entries.truncate(counts.entries as usize);
    monitor.record_batch_at(now, entries);
    if counts.shed > 0 {
        monitor.note_entries_shed(counts.shed);
    }
    counts
}

/// Ships `η` recommendations (as drained from
/// [`ClusterMonitor::drain_eta_recommendations`](crate::ClusterMonitor::drain_eta_recommendations))
/// toward the heartbeat senders as wire control frames, chunked by
/// [`MAX_CONTROL_BATCH`].
pub struct ControlSender {
    plane: Box<dyn BatchSender>,
    frames: Vec<Vec<u8>>,
    counts: Vec<usize>,
    datagrams_sent: u64,
    entries_sent: u64,
}

impl std::fmt::Debug for ControlSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlSender")
            .field("datagrams_sent", &self.datagrams_sent)
            .finish()
    }
}

impl ControlSender {
    /// Binds an ephemeral local socket and connects it to the
    /// listener's address.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Net`] on socket errors.
    pub fn connect(listener: SocketAddr) -> Result<Self, RuntimeError> {
        Self::connect_wrapped(listener, |plane| plane)
    }

    /// [`connect`](Self::connect), passing the datagram plane through
    /// `wrap` before use — the fault-injection seam for partial-send
    /// counter tests.
    fn connect_wrapped(
        listener: SocketAddr,
        wrap: impl FnOnce(Box<dyn BatchSender>) -> Box<dyn BatchSender>,
    ) -> Result<Self, RuntimeError> {
        let socket = connected_socket(listener)?;
        Ok(Self {
            plane: wrap(mmsg::batch_sender(socket)),
            frames: Vec::new(),
            counts: Vec::new(),
            datagrams_sent: 0,
            entries_sent: 0,
        })
    }

    /// Sends the recommendations, packed [`MAX_CONTROL_BATCH`] per
    /// datagram in one batched plane call. Entries with a non-finite or
    /// non-positive `η` are skipped (they could never be applied).
    /// Returns the number of datagrams handed to the socket.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; control traffic is advisory, so the
    /// caller may simply retry at the next control round. Both counters
    /// advance by exactly what the kernel accepted — an error on a late
    /// chunk can no longer leave `datagrams_sent` behind `entries_sent`.
    pub fn send(&mut self, recommendations: &[(PeerId, f64)]) -> io::Result<usize> {
        let entries: Vec<ControlEntry> = recommendations
            .iter()
            .filter(|(_, eta)| eta.is_finite() && *eta > 0.0)
            .map(|&(peer, eta)| ControlEntry { peer, eta })
            .collect();
        if entries.is_empty() {
            return Ok(0);
        }
        let (outcome, sent_entries) = send_chunked(
            self.plane.as_mut(),
            &mut self.frames,
            &mut self.counts,
            &entries,
            |rest| rest.len().min(MAX_CONTROL_BATCH),
            encode_control_into,
        );
        self.datagrams_sent += outcome.sent as u64;
        self.entries_sent += sent_entries as u64;
        match outcome.error {
            Some(e) => Err(e),
            None => Ok(outcome.sent),
        }
    }

    /// Datagrams handed to the socket since connect.
    pub fn datagrams_sent(&self) -> u64 {
        self.datagrams_sent
    }

    /// Control entries handed to the socket since connect.
    pub fn entries_sent(&self) -> u64 {
        self.entries_sent
    }
}

/// Receives wire control frames on the heartbeat-sender side and
/// hands each `(peer, η)` recommendation to a callback — typically one
/// that retunes the period the matching sender paces its heartbeats
/// with. Supervised like [`ClusterReceiver`]'s pump.
pub struct ControlListener {
    addr: SocketAddr,
    shutdown: UdpSocket,
    shared: Arc<PumpShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ControlListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlListener").field("addr", &self.addr).finish()
    }
}

impl ControlListener {
    /// Binds `addr` and starts the supervised pump, delivering every
    /// decoded recommendation to `on_recommendation`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Net`] on socket errors and
    /// [`RuntimeError::Spawn`] if the pump thread cannot start.
    pub fn bind(
        addr: SocketAddr,
        on_recommendation: Arc<dyn Fn(PeerId, f64) + Send + Sync>,
    ) -> Result<Self, RuntimeError> {
        let socket = UdpSocket::bind(addr).map_err(net_err("bind"))?;
        let addr = socket.local_addr().map_err(net_err("local_addr"))?;
        mmsg::set_poll_timeout(&socket, PUMP_POLL_TIMEOUT).map_err(net_err("set_timeout"))?;
        let shutdown = UdpSocket::bind((loopback_ip(&addr), 0)).map_err(net_err("bind"))?;
        let shutdown_addr = shutdown.local_addr().map_err(net_err("local_addr"))?;
        let shared = Arc::new(PumpShared::new(1));
        let pump_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("fd-cluster-control-rx".into())
            .spawn(move || {
                let mut plane = mmsg::SingleReceiver::new(socket);
                let mut arena = FrameArena::new(1);
                supervised(&pump_shared, || {
                    control_pump(
                        &mut plane,
                        &mut arena,
                        on_recommendation.as_ref(),
                        shutdown_addr,
                        &pump_shared,
                    )
                })
            })
            .map_err(|e| RuntimeError::Spawn { thread: "fd-cluster-control-rx", source: e })?;
        Ok(Self { addr, shutdown, shared, handles: vec![handle] })
    }

    /// The bound address control senders should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Well-formed control datagrams received.
    pub fn datagrams_received(&self) -> u64 {
        self.shared.datagrams.load(Ordering::Relaxed)
    }

    /// Recommendations delivered to the callback.
    pub fn entries_received(&self) -> u64 {
        self.shared.entries.load(Ordering::Relaxed)
    }

    /// Datagrams rejected as malformed.
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Well-formed datagrams of the wrong kind (heartbeat frames sent
    /// to the control port) — decoded, counted, and dropped.
    pub fn ignored(&self) -> u64 {
        self.shared.ignored.load(Ordering::Relaxed)
    }

    /// Times the panicking pump was restarted by its supervisor.
    pub fn pump_restarts(&self) -> u64 {
        self.shared.sup.restarts()
    }

    /// Receive errors survived (transient, retried) or died on (fatal).
    pub fn recv_errors(&self) -> u64 {
        self.shared.recv_errors.load(Ordering::Relaxed)
    }

    /// Health of the supervised pump thread.
    pub fn pump_health(&self) -> Health {
        self.shared.sup.health()
    }

    /// Stops the pump thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        stop_pumps(&self.shared, &self.shutdown, self.addr, &mut self.handles);
    }
}

impl Drop for ControlListener {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The control listener's receive loop: each recommendation of a
/// control frame handed to the callback.
fn control_pump(
    plane: &mut dyn BatchReceiver,
    arena: &mut FrameArena,
    on_recommendation: &(dyn Fn(PeerId, f64) + Send + Sync),
    shutdown_addr: SocketAddr,
    shared: &PumpShared,
) -> PumpExit {
    loop {
        let n = match recv_next(shared, || plane.recv_batch(arena)) {
            Ok(n) => n,
            Err(exit) => return exit,
        };
        let sentinel = sentinel_at(arena, n, shutdown_addr);
        for i in 0..sentinel.unwrap_or(n) {
            match decode_frame(arena.frame(i)) {
                Some(Frame::Control(entries)) => {
                    shared.datagrams.fetch_add(1, Ordering::Relaxed);
                    shared.entries.fetch_add(entries.len() as u64, Ordering::Relaxed);
                    for e in &entries {
                        on_recommendation(e.peer, e.eta);
                    }
                }
                Some(
                    Frame::Heartbeats(_) | Frame::Digest(_) | Frame::Repair(_) | Frame::Relayed(_),
                ) => {
                    // Well-formed but misdirected: someone aimed heartbeat
                    // or federation gossip traffic at the control port.
                    // Count and drop.
                    shared.ignored.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if sentinel.is_some() {
            return PumpExit::Sentinel;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmsg::{FlakySender, FlakyTrigger};
    use crate::wire::{encode_batch, BATCH_MAGIC, BATCH_WIRE_VERSION};
    use crate::{ClusterConfig, PeerConfig};
    use std::net::SocketAddrV4;
    use std::time::Instant;

    fn loop_addr() -> SocketAddr {
        SocketAddr::from((Ipv4Addr::LOCALHOST, 0))
    }

    /// One scripted `recv_batch` call.
    enum Recv {
        /// These datagrams, each with its source.
        Batch(Vec<(Vec<u8>, SocketAddr)>),
        /// A transient error: `ECONNREFUSED`, as a stray ICMP raises.
        Refused,
        /// A panic inside the call, as a bug on the receive path raises.
        Panic,
    }

    /// Plays scripted receive calls to a pump, then fails fatally (which
    /// makes the pump return).
    struct ScriptedReceiver {
        script: std::collections::VecDeque<Recv>,
    }

    impl ScriptedReceiver {
        fn new(script: impl IntoIterator<Item = Recv>) -> Self {
            Self { script: script.into_iter().collect() }
        }
    }

    impl BatchReceiver for ScriptedReceiver {
        fn recv_batch(&mut self, arena: &mut FrameArena) -> io::Result<usize> {
            match self.script.pop_front() {
                Some(Recv::Batch(batch)) => {
                    for (i, (frame, src)) in batch.iter().enumerate() {
                        arena.fill(i, frame, *src);
                    }
                    Ok(batch.len())
                }
                Some(Recv::Refused) => Err(io::ErrorKind::ConnectionRefused.into()),
                Some(Recv::Panic) => panic!("scripted pump panic"),
                None => Err(io::Error::other("script over")),
            }
        }
    }

    /// Never waits: for the pump tests whose subject is not coalescing.
    fn no_pause(_: Duration) {}

    fn heartbeat_frame(peers: std::ops::Range<u64>, seq: u64) -> Vec<u8> {
        let entries: Vec<HeartbeatEntry> = peers
            .map(|peer| HeartbeatEntry { peer, incarnation: 0, seq, send_time: 0.5 })
            .collect();
        encode_batch(&entries)
    }

    #[test]
    fn heartbeats_ahead_of_the_sentinel_in_one_receive_batch_are_all_recorded() {
        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        for p in 0..8u64 {
            monitor.add_peer(p, PeerConfig::new(0.5, 1.0)).unwrap();
        }
        let sender = SocketAddr::from((Ipv4Addr::LOCALHOST, 4001));
        let shutdown_addr = SocketAddr::from((Ipv4Addr::LOCALHOST, 4002));
        // Heartbeats and the sentinel back to back, picked up by one
        // `recv_batch`: the pump learns of the shutdown while it still
        // holds eight decoded, unrecorded heartbeats.
        let mut plane = ScriptedReceiver::new([Recv::Batch(vec![
            (heartbeat_frame(0..4, 1), sender),
            (heartbeat_frame(4..8, 1), sender),
            (SHUTDOWN_SENTINEL.to_vec(), shutdown_addr),
            (heartbeat_frame(0..4, 2), sender),
        ])]);
        let shared = PumpShared::new(1);
        let mut bufs = PumpBuffers::new(4);
        let exit = pump(&mut plane, &mut bufs, &monitor, shutdown_addr, &shared, None, no_pause);
        assert_eq!(exit, PumpExit::Sentinel);
        assert_eq!(shared.datagrams.load(Ordering::Relaxed), 2);
        assert_eq!(shared.entries.load(Ordering::Relaxed), 8);
        for p in 0..8u64 {
            let st = monitor.status(p).unwrap();
            assert_eq!(st.counters.heartbeats, 1, "peer {p}'s heartbeat preceded the sentinel");
            assert!(st.output.is_trust());
        }
        monitor.shutdown();
    }

    #[test]
    fn steady_state_pump_reuses_its_buffers() {
        const RECV_BATCH: usize = 4;
        const PEERS: u64 = (RECV_BATCH * MAX_BATCH) as u64;
        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        for p in 0..PEERS {
            monitor.add_peer(p, PeerConfig::new(60.0, 120.0)).unwrap();
        }
        let sender = SocketAddr::from((Ipv4Addr::LOCALHOST, 4001));
        let shutdown_addr = SocketAddr::from((Ipv4Addr::LOCALHOST, 4002));
        // Each round is two receive batches: a full arena of full
        // frames — every entry the buffer was sized for — then one with
        // a rejected frame in it.
        let batch = MAX_BATCH as u64;
        let full = |k: u64, seq| (heartbeat_frame(k * batch..(k + 1) * batch, seq), sender);
        let script = |rounds: std::ops::Range<u64>| {
            ScriptedReceiver::new(rounds.flat_map(|seq| {
                [
                    vec![full(0, 2 * seq), full(1, 2 * seq), full(2, 2 * seq), full(3, 2 * seq)],
                    vec![full(0, 2 * seq + 1), (b"noise".to_vec(), sender), full(3, 2 * seq + 1)],
                ]
                .map(Recv::Batch)
            }))
        };
        let shared = PumpShared::new(1);
        let mut bufs = PumpBuffers::new(RECV_BATCH);
        assert_eq!(bufs.entries.capacity(), RECV_BATCH * MAX_BATCH);
        let mut run = |rounds: std::ops::Range<u64>| {
            let mut plane = script(rounds);
            let exit =
                pump(&mut plane, &mut bufs, &monitor, shutdown_addr, &shared, None, no_pause);
            assert_eq!(exit, PumpExit::Fatal, "the script ends in a fatal error");
            (bufs.entries.as_ptr(), bufs.entries.capacity())
        };
        // The first rounds size the scratch (and trust every peer once);
        // after that nothing may grow or move.
        let entries_buf = run(1..3);
        let scratch = crate::monitor::batch_scratch_capacities();
        assert_eq!(run(3..40), entries_buf, "entry buffer reallocated");
        assert_eq!(crate::monitor::batch_scratch_capacities(), scratch, "record scratch grew");
        assert_eq!(shared.entries.load(Ordering::Relaxed), 39 * (4 + 2) * batch);
        assert_eq!(shared.rejected.load(Ordering::Relaxed), 39);
        assert_eq!(monitor.status(0).unwrap().counters.heartbeats, 2 * 39);
        assert_eq!(monitor.status(batch).unwrap().counters.heartbeats, 39);
        monitor.shutdown();
    }

    const SENDER: SocketAddr = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 4001));
    const SHUTDOWN: SocketAddr = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 4002));

    #[test]
    fn the_pump_waits_a_quarter_tick_only_after_a_short_batch_of_unbatched_traffic() {
        const QUARTER_TICK: Duration = Duration::from_micros(250);
        const ARENA: usize = 4;
        let monitor = watching(MAX_BATCH as u64);
        let shared = PumpShared { coalesce: QUARTER_TICK, ..PumpShared::new(1) };
        let mut bufs = PumpBuffers::new(ARENA);
        // How one receive batch ends the pump, and the pauses it asked for.
        let mut play = |batch: Recv| {
            let mut pauses = Vec::new();
            let mut plane = ScriptedReceiver::new([batch]);
            let pause = |wait| pauses.push(wait);
            let exit = pump(&mut plane, &mut bufs, &monitor, SHUTDOWN, &shared, None, pause);
            (exit, pauses)
        };
        let one = |peer: u64| heartbeat_frame(peer..peer + 1, 1);
        // Three one-entry frames: the socket is drained and the wake-up
        // carried three heartbeats, so the pump waits before the next.
        let short = play(from_sender((0..3).map(one)));
        assert_eq!(short, (PumpExit::Fatal, vec![QUARTER_TICK]));
        // A full arena: more may be queued, so it receives again at once.
        assert_eq!(play(from_sender((0..ARENA as u64).map(one))).1, []);
        // One full frame: a batched sender already spread the wake-up.
        let batched = heartbeat_frame(0..MAX_BATCH as u64, 2);
        assert_eq!(play(from_sender([batched])).1, []);
        // The sentinel ends the pump at once, even behind a heartbeat.
        let sentinel_last = vec![(one(0), SENDER), (SHUTDOWN_SENTINEL.to_vec(), SHUTDOWN)];
        assert_eq!(play(Recv::Batch(sentinel_last)), (PumpExit::Sentinel, vec![]));
        assert_eq!(shared.entries.load(Ordering::Relaxed), 3 + ARENA as u64 + MAX_BATCH as u64 + 1);
    }

    /// A receive batch of `frames`, all from [`SENDER`].
    fn from_sender(frames: impl IntoIterator<Item = Vec<u8>>) -> Recv {
        Recv::Batch(frames.into_iter().map(|frame| (frame, SENDER)).collect())
    }

    /// The genuine shutdown sentinel, alone in a receive batch.
    fn sentinel() -> Recv {
        Recv::Batch(vec![(SHUTDOWN_SENTINEL.to_vec(), SHUTDOWN)])
    }

    /// Ingests `frames` as one receive batch at `now`, shedding nothing.
    fn ingest(monitor: &ClusterMonitor, now: f64, frames: &[&[u8]]) -> BatchCounts {
        ingest_frames(monitor, now, frames.iter().copied(), &mut Vec::new(), |n| n)
    }

    /// A manual monitor watching peers `0..peers`.
    fn watching(peers: u64) -> ClusterMonitor {
        let monitor = ClusterMonitor::manual(ClusterConfig::default());
        for p in 0..peers {
            monitor.add_peer(p, PeerConfig::new(0.5, 1.0)).unwrap();
        }
        monitor
    }

    /// Waits up to 2 s for `done`: the settle step of the legs whose
    /// subject is the socket itself.
    fn settle(done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while !done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn foreign_shutdown_sentinel_is_ignored() {
        let monitor = watching(9);
        // A (malicious or confused) peer sends the sentinel bytes from its
        // own socket: that is noise, and the pump must keep delivering
        // until the genuine sentinel comes.
        let mut plane = ScriptedReceiver::new([
            from_sender([SHUTDOWN_SENTINEL.to_vec(), heartbeat_frame(8..9, 1)]),
            sentinel(),
        ]);
        let shared = PumpShared::new(1);
        let mut bufs = PumpBuffers::new(2);
        let exit = pump(&mut plane, &mut bufs, &monitor, SHUTDOWN, &shared, None, no_pause);
        assert_eq!(exit, PumpExit::Sentinel, "the genuine sentinel still stops it");
        assert_eq!(shared.rejected.load(Ordering::Relaxed), 1, "the spoofed sentinel is foreign");
        assert_eq!(monitor.status(8).unwrap().counters.heartbeats, 1);
        assert_eq!(shared.sup.health(), Health::Healthy);
    }

    #[test]
    fn bind_to_unspecified_addr_still_shuts_down() {
        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        monitor.add_peer(8, PeerConfig::new(0.02, 0.06)).unwrap();
        // 0.0.0.0 is bindable but not a valid sentinel destination; the
        // shutdown path must reroute via loopback.
        let mut rx = ClusterReceiver::bind("0.0.0.0:0".parse().unwrap(), monitor.clone())
            .expect("bind");
        assert!(rx.local_addr().ip().is_unspecified());
        let to = SocketAddr::from((Ipv4Addr::LOCALHOST, rx.local_addr().port()));
        let mut tx = ClusterSender::connect(to, ClusterSenderConfig::default()).expect("tx");
        tx.queue(8, 1, monitor.now()).unwrap();
        tx.flush().unwrap();
        settle(|| rx.entries_received() == 1);
        assert_eq!(monitor.status(8).expect("registered").counters.heartbeats, 1);
        // The sentinel, not the stop flag, ended the pump: it reached the
        // socket bound to the unspecified address.
        assert_eq!(rx.stop(), [Some(PumpExit::Sentinel)]);
        monitor.shutdown();
    }

    #[test]
    fn oversize_rounds_split_into_full_batches() {
        let (mut tx, sent, _sink) = recorded_sender(ClusterSenderConfig::default(), None);
        for p in 0..150u64 {
            tx.queue(p, 1, 0.01).unwrap();
        }
        tx.flush().unwrap();
        // 150 = 128 + 22: one auto-flushed full batch — a round shares
        // incarnation, seq and send time — plus the tail.
        assert_eq!(tx.datagrams_sent(), 2);
        assert_eq!(tx.entries_sent(), 150);
        let (_, counts) = ingest_sent(&sent, 150);
        assert_eq!(counts, BatchCounts { datagrams: 2, entries: 150, ..BatchCounts::default() });
    }

    #[test]
    fn rejects_foreign_datagrams() {
        let monitor = watching(1);
        // A wire-v1 single-heartbeat datagram (seq 1, S = 0.5; magic
        // `FD B1`, no sender writes it any more) and plain noise.
        let v1 = *b"\xFD\xB1\x01\0\x01\0\0\0\0\0\0\0\0\0\0\0\0\0\xE0\x3F";
        let counts = ingest(&monitor, 0.5, &[&v1, b"not a heartbeat"]);
        assert_eq!(counts, BatchCounts { rejected: 2, ..BatchCounts::default() });
        assert_eq!(monitor.status(0).unwrap().counters.heartbeats, 0);
    }

    /// Heartbeat frames as senders of the retired framings would write
    /// them (v1: 24-byte entries without incarnation; v2: no kind byte;
    /// v3 and v4: 32-byte entries behind a count byte, no check), and as
    /// a future version 6 might: each is foreign traffic — rejected,
    /// counted, nothing recorded.
    #[test]
    fn heartbeat_frames_of_any_other_version_are_rejected_and_counted() {
        let monitor = watching(4);
        let t = 0.5;
        let words = |ws: &[u64]| ws.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
        let frame = |head: &[u8], entry: &[u64]| [&BATCH_MAGIC[..], head, &words(entry)].concat();
        let current = encode_batch(&[HeartbeatEntry { peer: 3, incarnation: 0, seq: 1, send_time: t }]);
        // One entry shares every column; the check is the last word.
        let body = [3, 0, 1, t.to_bits()];
        let head = [BATCH_WIRE_VERSION, 0, 1, 0b1111, 0, 0];
        assert_eq!(current[..current.len() - 8], frame(&head, &body));
        let mut future = current.clone();
        future[2] = BATCH_WIRE_VERSION + 1;
        let foreign = [
            frame(&[1, 1], &[3, 1, t.to_bits()]),
            frame(&[2, 1], &body),
            frame(&[3, 0, 1], &body),
            frame(&[4, 0, 1], &body),
            future,
        ];
        for frame in &foreign {
            let counts = ingest(&monitor, t, &[frame]);
            let rejected = BatchCounts { rejected: 1, ..BatchCounts::default() };
            assert_eq!(counts, rejected, "version {} is rejected", frame[2]);
        }
        assert_eq!(monitor.status(3).unwrap().counters.heartbeats, 0, "nothing recorded");
        // The same heartbeat under the one accepted header is taken.
        let taken = BatchCounts { datagrams: 1, entries: 1, ..BatchCounts::default() };
        assert_eq!(ingest(&monitor, t, &[&current]), taken);
        assert!(monitor.status(3).unwrap().output.is_trust());
    }

    #[test]
    fn incarnation_travels_the_wire() {
        let monitor = watching(9);
        let frame = |incarnation, seq, send_time| {
            encode_batch(&[HeartbeatEntry { peer: 8, incarnation, seq, send_time }])
        };
        ingest(&monitor, 0.11, &[&frame(4, 1, 0.1)]);
        assert_eq!(monitor.status(8).unwrap().incarnation, 4);
        // A previous-life entry (lower incarnation) is rejected by the
        // monitor — full path: bytes → decode → record_batch_at.
        assert_eq!(ingest(&monitor, 0.12, &[&frame(3, 99, 0.12)]).entries, 1);
        assert_eq!(monitor.stats().stale_incarnation_rejects, 1);
        assert_eq!(monitor.status(8).unwrap().incarnation, 4);
    }

    #[test]
    fn pump_panic_degrades_health_and_keeps_receiving() {
        let monitor = watching(2);
        // The receive between two heartbeats panics; the restarted pump
        // still records the second.
        let frame = |seq| from_sender([heartbeat_frame(1..2, seq)]);
        let mut plane = ScriptedReceiver::new([frame(1), Recv::Panic, frame(2)]);
        let shared = PumpShared::new(1);
        let mut bufs = PumpBuffers::new(1);
        let life = || pump(&mut plane, &mut bufs, &monitor, SHUTDOWN, &shared, None, no_pause);
        let exit = supervise(&shared.sup, life, |_| true);
        assert_eq!(exit, Some(PumpExit::Fatal), "the script ends in a fatal error");
        assert_eq!(shared.sup.restarts(), 1);
        assert!(matches!(shared.sup.health(), Health::Degraded { .. }));
        assert_eq!(monitor.status(1).unwrap().counters.heartbeats, 2);
        assert!(monitor.status(1).unwrap().output.is_trust());
    }

    #[test]
    fn pump_survives_transient_recv_errors() {
        let monitor = watching(2);
        let mut plane = ScriptedReceiver::new([
            Recv::Refused,
            Recv::Refused,
            Recv::Refused,
            from_sender([heartbeat_frame(1..2, 1)]),
            sentinel(),
        ]);
        let shared = PumpShared::new(1);
        let mut bufs = PumpBuffers::new(1);
        let exit = pump(&mut plane, &mut bufs, &monitor, SHUTDOWN, &shared, None, no_pause);
        // The errors must not read as shutdown: the pump retried through
        // them, received, and stopped only at the sentinel.
        assert_eq!(exit, PumpExit::Sentinel);
        assert_eq!(shared.recv_errors.load(Ordering::Relaxed), 3, "errors are counted");
        assert_eq!(shared.sup.restarts(), 0, "transient errors are not pump crashes");
        assert_eq!(shared.entries.load(Ordering::Relaxed), 1);
        // The first successful receive restored Healthy.
        assert_eq!(shared.sup.health(), Health::Healthy);
        assert!(monitor.status(1).unwrap().output.is_trust());
    }

    #[test]
    fn overload_sheds_entries_beyond_budget() {
        let monitor = watching(32);
        // One receive batch of 32 entries in two frames against a
        // 10-entry budget: the first ten entries are taken.
        let frames = [heartbeat_frame(0..16, 1), heartbeat_frame(16..32, 1)];
        let mut budget = EntryBudget::new(10);
        let counts = ingest_frames(
            &monitor,
            0.5,
            frames.iter().map(Vec::as_slice),
            &mut Vec::new(),
            |want| budget.admit(want, 0.5),
        );
        assert_eq!(counts, BatchCounts { datagrams: 2, entries: 10, rejected: 0, shed: 22 });
        assert_eq!(monitor.stats().entries_shed, 22, "shed count surfaces in ClusterStats");
        let heartbeats = |p| monitor.status(p).unwrap().counters.heartbeats;
        assert_eq!((heartbeats(9), heartbeats(10)), (1, 0));
    }

    #[test]
    fn entry_budget_window_boundaries() {
        let mut b = EntryBudget::new(10);
        // The first call opens a window at its time. Budget exactly
        // exhausted there: later same-window requests get nothing...
        assert_eq!(b.admit(10, 5.0), 10);
        assert_eq!(b.admit(1, 5.5), 0);
        assert_eq!(b.admit(5, 5.999), 0);
        // ...and the reset at exactly 1 s re-opens the full budget.
        assert_eq!(b.admit(7, 6.0), 7);
        // A burst straddling the next reset: the old window grants its
        // remainder, the new window the rest of a fresh budget.
        assert_eq!(b.admit(7, 6.5), 3);
        assert_eq!(b.admit(7, 7.6), 7);
    }

    #[test]
    fn entry_budget_grants_plus_sheds_account_for_every_entry() {
        let mut b = EntryBudget::new(10);
        let mut granted = 0u64;
        let mut shed = 0u64;
        for i in 0..40u64 {
            let g = b.admit(13, i as f64 * 0.077);
            granted += g;
            shed += 13 - g;
        }
        assert_eq!(granted + shed, 40 * 13, "no entry unaccounted");
        // Calls span 3.003 s: windows reset at 1.001, 2.002 and 3.003 s
        // (first call at/after each boundary re-anchors), so exactly
        // four windows each grant their full budget of 10.
        assert_eq!(granted, 40);
        assert_eq!(shed, 40 * 13 - 40);
    }

    fn control_frame(peer: PeerId, eta: f64) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_control_into(&[ControlEntry { peer, eta }], &mut frame);
        frame
    }

    #[test]
    fn control_round_trip_delivers_recommendations() {
        let got: Arc<Mutex<Vec<(PeerId, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        let listener = ControlListener::bind(
            loop_addr(),
            Arc::new(move |peer, eta| unpoison(sink.lock()).push((peer, eta))),
        )
        .expect("bind");
        let mut tx = ControlSender::connect(listener.local_addr()).expect("connect");

        // Garbage η is filtered sender-side — it could never be applied.
        let sent = tx
            .send(&[(4, 0.125), (0, f64::NAN), (9, 2.5), (2, -1.0), (7, 0.0)])
            .expect("send");
        assert_eq!(sent, 1, "two valid entries fit one datagram");
        assert_eq!(tx.entries_sent(), 2);
        // Oversize rounds chunk by MAX_CONTROL_BATCH.
        let many: Vec<(PeerId, f64)> =
            (0..120u64).map(|p| (p, 0.5 + p as f64 * 1e-3)).collect();
        assert_eq!(tx.send(&many).expect("send"), 2, "120 = 91 + 29 entries");

        settle(|| listener.entries_received() == 122);
        assert_eq!(listener.datagrams_received(), 3);
        assert_eq!(listener.entries_received(), 122);
        assert_eq!(unpoison(got.lock())[..2], [(4, 0.125), (9, 2.5)]);
        assert_eq!(listener.rejected(), 0);
        listener.shutdown();
    }

    #[test]
    fn control_listener_ignores_misdirected_and_rejects_noise() {
        // A well-formed heartbeat frame aimed at the control port is
        // decoded, counted as ignored, and dropped; noise is rejected.
        let batch = from_sender([heartbeat_frame(3..4, 1), b"not a control frame".to_vec()]);
        let mut plane = ScriptedReceiver::new([batch]);
        let shared = PumpShared::new(1);
        let deliver = |_: PeerId, _: f64| panic!("no delivery expected");
        let exit = control_pump(&mut plane, &mut FrameArena::new(2), &deliver, SHUTDOWN, &shared);
        assert_eq!(exit, PumpExit::Fatal, "the script ends in a fatal error");
        assert_eq!(shared.ignored.load(Ordering::Relaxed), 1);
        assert_eq!(shared.rejected.load(Ordering::Relaxed), 1);
        assert_eq!(shared.entries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn control_pump_panic_degrades_and_recovers() {
        let got = Mutex::new(Vec::new());
        let deliver = |peer: PeerId, eta: f64| unpoison(got.lock()).push((peer, eta));
        // The receive between two recommendations panics; the restarted
        // pump still delivers the second.
        let frame = |eta| from_sender([control_frame(1, eta)]);
        let mut plane = ScriptedReceiver::new([frame(1.0), Recv::Panic, frame(2.0)]);
        let shared = PumpShared::new(1);
        let mut arena = FrameArena::new(1);
        let life = || control_pump(&mut plane, &mut arena, &deliver, SHUTDOWN, &shared);
        assert_eq!(supervise(&shared.sup, life, |_| true), Some(PumpExit::Fatal));
        assert_eq!(shared.sup.restarts(), 1);
        assert!(matches!(shared.sup.health(), Health::Degraded { .. }));
        assert_eq!(*unpoison(got.lock()), vec![(1, 1.0), (1, 2.0)]);
    }

    #[test]
    fn control_pump_survives_transient_recv_errors() {
        let got = Mutex::new(Vec::new());
        let deliver = |peer: PeerId, eta: f64| unpoison(got.lock()).push((peer, eta));
        let script = [Recv::Refused, from_sender([control_frame(7, 0.25)]), sentinel()];
        let mut plane = ScriptedReceiver::new(script);
        let shared = PumpShared::new(1);
        let exit = control_pump(&mut plane, &mut FrameArena::new(1), &deliver, SHUTDOWN, &shared);
        assert_eq!(exit, PumpExit::Sentinel);
        assert_eq!(shared.recv_errors.load(Ordering::Relaxed), 1);
        assert_eq!(shared.sup.restarts(), 0);
        assert_eq!(*unpoison(got.lock()), vec![(7, 0.25)]);
        assert_eq!(shared.sup.health(), Health::Healthy);
    }

    /// Passes frames to `inner` and keeps a copy of each one it
    /// accepted.
    struct Recording<S> {
        inner: S,
        sent: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl<S: BatchSender> BatchSender for Recording<S> {
        fn send_frames(&mut self, frames: &[Vec<u8>]) -> mmsg::SendOutcome {
            let outcome = self.inner.send_frames(frames);
            unpoison(self.sent.lock()).extend_from_slice(&frames[..outcome.sent]);
            outcome
        }
    }

    /// A sender toward a socket that never reads, with its plane passed
    /// through `flaky` and recorded: the sender, the frames the kernel
    /// accepted, and the sink, which must outlive the sends.
    fn recorded_sender(
        cfg: ClusterSenderConfig,
        flaky: Option<Arc<FlakyTrigger>>,
    ) -> (ClusterSender, Arc<Mutex<Vec<Vec<u8>>>>, UdpSocket) {
        let sink = UdpSocket::bind(loop_addr()).unwrap();
        let sent = Arc::new(Mutex::new(Vec::new()));
        let recorded = Arc::clone(&sent);
        let tx = ClusterSender::connect_wrapped(sink.local_addr().unwrap(), cfg, move |plane| {
            let plane = match flaky {
                Some(trigger) => Box::new(FlakySender::new(plane, trigger)),
                None => plane,
            };
            Box::new(Recording { inner: plane, sent: recorded })
        })
        .expect("tx");
        (tx, sent, sink)
    }

    /// Every frame in `sent`, ingested into a fresh monitor watching
    /// `peers` peers.
    fn ingest_sent(sent: &Mutex<Vec<Vec<u8>>>, peers: u64) -> (ClusterMonitor, BatchCounts) {
        let monitor = watching(peers);
        let sent = unpoison(sent.lock());
        let counts = ingest(&monitor, 0.5, &sent.iter().map(Vec::as_slice).collect::<Vec<_>>());
        (monitor, counts)
    }

    #[test]
    fn flush_retains_unsent_entries_across_mid_flush_error() {
        let trigger = FlakyTrigger::new();
        let cfg = ClusterSenderConfig { max_batch: 8, ..Default::default() };
        let (mut tx, sent, _sink) = recorded_sender(cfg, Some(Arc::clone(&trigger)));

        // Fail the very first frame: the auto-flush errors, nothing lost.
        trigger.arm(0);
        let mut queue_err = None;
        for p in 0..8u64 {
            if let Err(e) = tx.queue(p, 1, 0.25) {
                queue_err = Some(e);
            }
        }
        assert!(queue_err.is_some(), "mid-flush error propagates");
        assert_eq!(tx.datagrams_sent(), 0);
        assert_eq!(tx.entries_sent(), 0);
        assert_eq!(tx.pending_entries(), 8, "doc promise: undelivered entries stay pending");

        // Partial flush: two chunks pending, the kernel takes the first,
        // the error hits the second — exactly one chunk's entries leave.
        trigger.arm(1);
        for p in 8..16u64 {
            let _ = tx.queue(p, 1, 0.25);
        }
        assert_eq!(tx.datagrams_sent(), 1);
        assert_eq!(tx.entries_sent(), 8);
        assert_eq!(tx.pending_entries(), 8);

        // Recovery flush (trigger disarmed): the retained tail goes out.
        assert_eq!(tx.flush().expect("flush"), 1);
        assert_eq!(tx.datagrams_sent(), 2);
        assert_eq!(tx.entries_sent(), 16);
        assert_eq!(tx.pending_entries(), 0);

        // Every queued heartbeat went out exactly once: the socket error
        // did not manufacture message loss.
        let (monitor, counts) = ingest_sent(&sent, 16);
        assert_eq!(counts, BatchCounts { datagrams: 2, entries: 16, ..BatchCounts::default() });
        for p in 0..16u64 {
            assert_eq!(monitor.status(p).unwrap().counters.heartbeats, 1, "peer {p}");
        }
    }

    #[test]
    fn entries_sharing_nothing_pack_45_to_a_frame_within_the_byte_bound() {
        let (mut tx, sent, _sink) = recorded_sender(ClusterSenderConfig::default(), None);
        // Every entry its own peer, life, seq and send time.
        for p in 0..100u64 {
            tx.queue_incarnated(p, p, p + 1, 0.25 + p as f64 * 1e-3).unwrap();
        }
        assert_eq!(tx.flush().expect("flush"), 3);
        assert_eq!(tx.entries_sent(), 100);
        // 45 + 45 + 10 entries of four words, behind a header word and
        // before a check word.
        let lens: Vec<usize> = unpoison(sent.lock()).iter().map(Vec::len).collect();
        assert_eq!(lens, [1_456, 1_456, 336]);
        assert!(lens.iter().all(|&len| len <= crate::wire::MAX_FRAME_LEN));
        let (_, counts) = ingest_sent(&sent, 100);
        assert_eq!(counts, BatchCounts { datagrams: 3, entries: 100, ..BatchCounts::default() });
    }

    #[test]
    fn a_partial_send_across_unequal_frames_retains_exactly_the_unsent_entries() {
        let trigger = FlakyTrigger::new();
        let (mut tx, sent, _sink) =
            recorded_sender(ClusterSenderConfig::default(), Some(Arc::clone(&trigger)));
        // A round of 100 peers, then 27 entries sharing nothing: one
        // flush of two frames, 100 entries and 27.
        for p in 0..100u64 {
            tx.queue_incarnated(p, 0, 1, 0.25).unwrap();
        }
        for p in 100..127u64 {
            tx.queue_incarnated(p, p, p, 0.25 + p as f64 * 1e-3).unwrap();
        }
        trigger.arm(1);
        assert!(tx.flush().is_err(), "the second frame's error propagates");
        assert_eq!(tx.datagrams_sent(), 1);
        assert_eq!(tx.entries_sent(), 100, "the accepted frame held 100 entries");
        assert_eq!(tx.pending_entries(), 27);
        assert_eq!(tx.flush().expect("flush"), 1);
        assert_eq!((tx.datagrams_sent(), tx.entries_sent(), tx.pending_entries()), (2, 127, 0));
        // Every peer's heartbeat went out exactly once.
        let (monitor, counts) = ingest_sent(&sent, 127);
        assert_eq!(counts.entries, 127);
        for p in 0..127u64 {
            assert_eq!(monitor.status(p).unwrap().counters.heartbeats, 1, "peer {p}");
        }
    }

    #[test]
    fn flush_to_dead_peer_errors_without_losing_entries() {
        // A receiver that went away: on Linux loopback the kernel
        // reflects ICMP port-unreachable as ECONNREFUSED on a later
        // send over the connected socket.
        let victim = UdpSocket::bind(loop_addr()).unwrap();
        let dead_addr = victim.local_addr().unwrap();
        drop(victim);
        let mut tx = ClusterSender::connect(dead_addr, ClusterSenderConfig::default()).expect("tx");
        let mut queued: u64 = 0;
        let mut saw_error = false;
        for round in 0..50u64 {
            tx.queue(round, 1, 0.5).unwrap();
            queued += 1;
            if tx.flush().is_err() {
                saw_error = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(saw_error, "send to a closed port reports an error");
        // The accounting invariant held the whole way: every queued
        // entry is either counted sent or still pending — never gone.
        assert_eq!(tx.entries_sent() + tx.pending_entries() as u64, queued);
        assert!(tx.pending_entries() >= 1);
    }

    #[test]
    fn control_sender_counters_stay_consistent_under_partial_send() {
        let listener = ControlListener::bind(loop_addr(), Arc::new(|_, _| {})).expect("bind");
        let trigger = FlakyTrigger::new();
        let tx_trigger = Arc::clone(&trigger);
        let mut tx = ControlSender::connect_wrapped(listener.local_addr(), move |plane| {
            Box::new(FlakySender::new(plane, tx_trigger))
        })
        .expect("connect");

        let many: Vec<(PeerId, f64)> = (0..120u64).map(|p| (p, 0.5)).collect();
        trigger.arm(1); // 120 recs = 91 + 29: first frame out, second errors
        assert!(tx.send(&many).is_err());
        assert_eq!(tx.datagrams_sent(), 1, "the accepted chunk is counted");
        assert_eq!(tx.entries_sent(), 91, "both counters agree on what left the socket");

        // Control is advisory and idempotent: the next round resends.
        assert_eq!(tx.send(&many).expect("send"), 2);
        assert_eq!(tx.datagrams_sent(), 3);
        assert_eq!(tx.entries_sent(), 211);
        listener.shutdown();
    }

    /// The heartbeat tier's real-socket leg: several senders, sharded
    /// pump sockets where the platform has them, one monitor.
    #[test]
    fn sharded_pumps_drain_multiple_senders() {
        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        for p in 0..64u64 {
            monitor.add_peer(p, PeerConfig::new(0.5, 1.0)).unwrap();
        }
        let rx = ClusterReceiver::bind_with(
            loop_addr(),
            monitor.clone(),
            ClusterReceiverConfig { pump_threads: 4, ..Default::default() },
        )
        .expect("bind");
        // A quarter of the monitor's 1 ms tick.
        assert_eq!(rx.shared.coalesce, Duration::from_micros(250));
        // Four distinct flows, so the kernel may spread them across the
        // reuseport sockets (totals must hold however it hashes).
        let mut txs: Vec<ClusterSender> = (0..4)
            .map(|_| {
                ClusterSender::connect(rx.local_addr(), ClusterSenderConfig::default()).unwrap()
            })
            .collect();
        let t = monitor.now();
        for round in 1..=3u64 {
            for (i, tx) in txs.iter_mut().enumerate() {
                for p in 0..16u64 {
                    tx.queue(i as u64 * 16 + p, round, t).unwrap();
                }
                tx.flush().unwrap();
            }
        }
        // 16 entries per round fit one datagram: full multiplexing.
        for tx in &txs {
            assert_eq!((tx.datagrams_sent(), tx.batching_factor()), (3, 16.0));
        }
        settle(|| rx.entries_received() == 192);
        assert_eq!(rx.entries_received(), 192, "4 senders × 3 rounds × 16 entries");
        assert_eq!(rx.datagrams_received(), 12);
        assert_eq!((rx.rejected(), rx.entries_shed()), (0, 0));
        assert_eq!(rx.pump_health(), Health::Healthy);
        let snap = monitor.snapshot();
        assert_eq!(snap.trusted().len(), 64, "all peers trusted: {snap:?}");
        rx.shutdown();
        monitor.shutdown();
    }
}
