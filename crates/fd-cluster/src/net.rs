//! Batched heartbeat transport over the [`mmsg`] datagram
//! plane: many peers, batched syscalls, sharded sockets.
//!
//! [`ClusterSender`] multiplexes heartbeats for any number of peers:
//! callers `queue` entries and the sender packs up to `max_batch` of
//! them per datagram ([`wire`](crate::wire) heartbeat frames, carrying
//! each sender's incarnation), flushing automatically when a batch fills and
//! explicitly at period boundaries. A flush encodes every chunk into a
//! reusable frame pool and hands the whole round to the plane in one
//! `sendmmsg` call (one `send` per frame on the portable fallback).
//! Entries that miss the wire — a mid-flush socket error, or the kernel
//! accepting only a prefix of the batch — **stay queued** and go out on
//! the next flush; a socket hiccup never silently deletes heartbeats,
//! because fabricated message loss would corrupt every QoS number
//! downstream. [`ClusterReceiver`] binds one *or several* `SO_REUSEPORT`
//! sockets ([`ClusterReceiverConfig::pump_threads`]), each drained by a
//! supervised pump thread pulling up to
//! [`ClusterReceiverConfig::recv_batch`] datagrams per `recvmmsg` into a
//! preallocated [`FrameArena`]. The receive batch is the pump's unit of
//! work: it reads the cluster clock once when `recv_batch` returns —
//! the receipt time of every heartbeat in the batch — decodes all the
//! frames into one reusable entry buffer, and hands
//! them to [`ClusterMonitor::record_batch_at`](crate::ClusterMonitor::record_batch_at),
//! which takes each touched registry shard's lock once.
//!
//! The receive pumps are *supervised* ([`crate::backoff`]), so a panic
//! while handling one datagram degrades the queryable
//! [`pump_health`](ClusterReceiver::pump_health) and restarts the pump
//! (bounded by [`ClusterReceiverConfig::max_pump_restarts`]) instead of
//! silently killing reception — a dead receiver would suspect the whole
//! cluster. Transient socket errors (`EINTR`, `ECONNREFUSED` from a
//! stray ICMP, `ENOBUFS`) are likewise *not* treated as shutdown: they
//! are counted ([`recv_errors`](ClusterReceiver::recv_errors)), surface
//! as `Health::Degraded` until the next successful receive, and the
//! pump keeps pulling; only the shutdown sentinel or a genuinely fatal
//! error stops it. It also sheds load: with
//! [`ClusterReceiverConfig::max_entries_per_sec`] set, entries beyond
//! the budget in any one-second window are dropped and counted
//! ([`entries_shed`](ClusterReceiver::entries_shed), mirrored into
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
//! receive step (stop flag, transient-error accounting, health) and the
//! supervision.

use crate::backoff::{supervise, Supervised};
use crate::mmsg::{self, BatchReceiver, BatchSender, FrameArena};
use crate::wire::{
    decode_batch_into, decode_frame, encode_batch_into, encode_control_into, ControlEntry, Frame,
    HeartbeatEntry, MAX_BATCH, MAX_CONTROL_BATCH,
};
use crate::{unpoison, ClusterMonitor, Health, PeerId, RuntimeError};
use fd_sim::{FaultInjector, FaultPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sender-side configuration.
pub struct ClusterSenderConfig {
    /// Entries per datagram, clamped to `1..=`[`MAX_BATCH`].
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

/// Encodes `entries`, `per_frame` to a datagram, into the reusable frame
/// pool and hands the whole round to the plane in one call. Returns the
/// plane's outcome and how many entries the frames it accepted held.
fn send_chunked<T>(
    plane: &mut dyn BatchSender,
    frames: &mut Vec<Vec<u8>>,
    entries: &[T],
    per_frame: usize,
    encode: fn(&[T], &mut Vec<u8>),
) -> (mmsg::SendOutcome, usize) {
    let mut n_frames = 0;
    for chunk in entries.chunks(per_frame) {
        if frames.len() == n_frames {
            frames.push(Vec::new());
        }
        encode(chunk, &mut frames[n_frames]);
        n_frames += 1;
    }
    let outcome = plane.send_frames(&frames[..n_frames]);
    // Every frame but the last holds exactly `per_frame` entries, so the
    // accepted-frame count maps back to an entry count.
    let sent_entries =
        if outcome.sent == n_frames { entries.len() } else { outcome.sent * per_frame };
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

    /// Sends everything pending, packed `max_batch` entries per datagram
    /// (after per-entry fault injection), in one batched plane call.
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
        let (outcome, sent_entries) = send_chunked(
            self.plane.as_mut(),
            &mut self.frames,
            &self.ready,
            self.max_batch,
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
    /// How many times a panicking pump is restarted before the receiver
    /// gives up (reported as [`Health::Stopped`]).
    pub max_pump_restarts: u64,
    /// Overload budget: at most this many heartbeat entries are recorded
    /// per one-second window across all pumps; the excess is shed
    /// (counted, never blocking). `None` disables shedding.
    pub max_entries_per_sec: Option<u64>,
    /// Supervised pump threads. Above 1 the receiver binds that many
    /// `SO_REUSEPORT` sockets on the same address so the kernel shards
    /// inbound flows across them (IPv4 + Linux; elsewhere it falls back
    /// to one socket and one pump).
    pub pump_threads: usize,
    /// Datagrams pulled per `recvmmsg` call (arena size per pump),
    /// clamped to at least 1.
    pub recv_batch: usize,
    /// If set, request this kernel receive buffer (`SO_RCVBUF`) on every
    /// pump socket — heartbeat floods burst faster than a pump wakes.
    pub recv_buffer_bytes: Option<usize>,
}

impl Default for ClusterReceiverConfig {
    fn default() -> Self {
        Self {
            max_pump_restarts: 8,
            max_entries_per_sec: None,
            pump_threads: 1,
            recv_batch: mmsg::DEFAULT_RECV_BATCH,
            recv_buffer_bytes: None,
        }
    }
}

/// Read timeout on pump sockets: a blocked `recvmmsg` wakes at this
/// cadence to poll the stop flag (the shutdown sentinel reaches only
/// whichever sharded socket the kernel hashes it to).
const PUMP_POLL_TIMEOUT: Duration = Duration::from_millis(25);

/// Sentinel datagram that tells the pump thread to exit; honored only
/// from this receiver's own shutdown socket — any other sender carrying
/// the same bytes is noise, so a remote peer cannot spoof a shutdown.
const SHUTDOWN_SENTINEL: [u8; 4] = *b"BYE!";

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
    /// Outstanding injected transient receive errors (chaos hook).
    inject_recv_errors: AtomicU64,
    inject_panic: AtomicBool,
    /// Cooperative shutdown: set by `stop()` and by whichever pump the
    /// sentinel datagram reaches; every pump polls it each wakeup.
    stop: AtomicBool,
    /// Pumps still running; the last one out marks `Stopped`.
    live_pumps: AtomicU64,
    /// Consecutive transient errors tolerated before a pump concedes
    /// the condition is not transient after all — generous, because one
    /// success resets the count.
    max_transient: u64,
    /// Health and restart count shared by the pumps; the restart budget
    /// is each pump's own.
    sup: Supervised,
}

impl PumpShared {
    fn new(pumps: usize, max_pump_restarts: u64) -> Self {
        Self {
            datagrams: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            ignored: AtomicU64::new(0),
            recv_errors: AtomicU64::new(0),
            inject_recv_errors: AtomicU64::new(0),
            inject_panic: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            live_pumps: AtomicU64::new(pumps as u64),
            max_transient: max_pump_restarts.saturating_mul(8).max(64),
            // The datagram that tripped a panic has already been
            // consumed, so the pause before resuming costs little.
            sup: Supervised::brief(max_pump_restarts),
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
        let shared = Arc::new(PumpShared::new(sockets.len(), cfg.max_pump_restarts));
        // `None` when shedding is off, so the unlimited receiver never
        // takes a lock for it.
        let budget: Option<Arc<Mutex<EntryBudget>>> =
            cfg.max_entries_per_sec.map(|limit| Arc::new(Mutex::new(EntryBudget::new(limit))));
        let recv_batch = cfg.recv_batch.max(1);
        let mut handles = Vec::with_capacity(sockets.len());
        for (i, socket) in sockets.into_iter().enumerate() {
            let pump_shared = Arc::clone(&shared);
            let pump_budget = budget.clone();
            let pump_monitor = monitor.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("fd-cluster-recv-{i}"))
                .spawn(move || {
                    let mut plane = mmsg::batch_receiver(socket, recv_batch);
                    let mut bufs = PumpBuffers::new(recv_batch);
                    supervised(&pump_shared, || {
                        pump(
                            plane.as_mut(),
                            &mut bufs,
                            &pump_monitor,
                            shutdown_addr,
                            &pump_shared,
                            pump_budget.as_deref(),
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

    /// Fault-injection hook: makes a pump panic on the next datagram
    /// it handles. The supervisor must catch it and keep receiving. For
    /// chaos tests; never called on production paths.
    #[cfg(test)]
    fn inject_pump_panic(&self) {
        self.shared.inject_panic.store(true, Ordering::Relaxed);
    }

    /// Fault-injection hook: the next receive attempt (one per call)
    /// fails with a synthetic transient error (`ECONNREFUSED` shape)
    /// instead of touching the socket. The pump must count it, degrade,
    /// retry, and recover — not report a clean stop. For chaos tests.
    #[cfg(test)]
    fn inject_recv_error(&self) {
        self.shared.inject_recv_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Stops all pump threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        stop_pumps(&self.shared, &self.shutdown, self.addr, &mut self.handles);
    }
}

impl Drop for ClusterReceiver {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Stops and joins a receiver's pump threads (a no-op the second time).
fn stop_pumps(
    shared: &PumpShared,
    shutdown: &UdpSocket,
    mut target: SocketAddr,
    handles: &mut Vec<std::thread::JoinHandle<()>>,
) {
    if handles.is_empty() {
        return;
    }
    // Flag first: the sentinel reaches only one sharded socket, the rest
    // notice on their next poll-timeout wakeup.
    shared.stop.store(true, Ordering::SeqCst);
    if target.ip().is_unspecified() {
        target.set_ip(loopback_ip(&target));
    }
    let _ = shutdown.send_to(&SHUTDOWN_SENTINEL, target);
    for handle in handles.drain(..) {
        let _ = handle.join();
    }
    *unpoison(shared.sup.health.lock()) = Health::Stopped;
}

fn loopback_ip(addr: &SocketAddr) -> IpAddr {
    match addr {
        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
    }
}

/// Per-second token budget for overload shedding (shared across pumps
/// behind one mutex — shedding math stays exact however many sockets
/// feed it).
struct EntryBudget {
    limit: u64,
    window_start: Instant,
    used: u64,
}

impl EntryBudget {
    fn new(limit: u64) -> Self {
        Self { limit, window_start: Instant::now(), used: 0 }
    }

    /// How many of `want` entries fit in the window `now` falls in.
    fn admit_at(&mut self, want: u64, now: Instant) -> u64 {
        if now.duration_since(self.window_start).as_secs_f64() >= 1.0 {
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
enum PumpExit {
    /// Stop flag or shutdown sentinel: deliberate, clean.
    Shutdown,
    /// A fatal (or endlessly repeating transient) socket error.
    Fatal,
}

/// What cut a receive batch short.
enum PumpStop {
    /// The shutdown sentinel, from this receiver's own shutdown socket.
    Sentinel,
    /// [`ClusterReceiver::inject_pump_panic`] tripped on a datagram.
    InjectedPanic,
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
/// `Stopped`.
fn supervised(shared: &PumpShared, pump: impl FnMut() -> PumpExit) {
    let exit = supervise(&shared.sup, pump, |backoff| {
        std::thread::sleep(backoff);
        true
    });
    let clean = matches!(exit, Some(PumpExit::Shutdown));
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
}

/// The receive step both pumps share: polls the stop flag, takes an
/// injected error in place of `recv` if one is outstanding, and retries
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
            return Err(PumpExit::Shutdown);
        }
        let injected = shared
            .inject_recv_errors
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok();
        let received = if injected {
            Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "injected transient recv error",
            ))
        } else {
            recv()
        };
        let e = match received {
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
                if consecutive_transient > shared.max_transient {
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
/// read when `recv_batch` returns, every frame decoded into
/// [`PumpBuffers::entries`], one [`ClusterMonitor::record_batch_at`].
fn pump(
    plane: &mut dyn BatchReceiver,
    bufs: &mut PumpBuffers,
    monitor: &ClusterMonitor,
    shutdown_addr: SocketAddr,
    shared: &PumpShared,
    budget: Option<&Mutex<EntryBudget>>,
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
        entries.clear();
        let (mut datagrams, mut rejected, mut shed) = (0u64, 0u64, 0u64);
        // What ends the pump partway through the batch, if anything.
        let mut stop = None;
        for i in 0..n {
            let frame = arena.frame(i);
            if frame.len() == SHUTDOWN_SENTINEL.len()
                && *frame == SHUTDOWN_SENTINEL
                && arena.source(i) == shutdown_addr
            {
                stop = Some(PumpStop::Sentinel);
                break;
            }
            if shared.inject_panic.swap(false, Ordering::Relaxed) {
                stop = Some(PumpStop::InjectedPanic);
                break;
            }
            match decode_batch_into(frame, entries) {
                Some(count) => {
                    datagrams += 1;
                    let admitted = match budget {
                        Some(b) => {
                            unpoison(b.lock()).admit_at(count as u64, Instant::now()) as usize
                        }
                        None => count,
                    };
                    entries.truncate(entries.len() - (count - admitted));
                    shed += (count - admitted) as u64;
                }
                None => rejected += 1,
            }
        }
        // Record what the batch holds before acting on `stop`: the
        // heartbeats ahead of a sentinel or a panic were received, and
        // leaving without them would be fabricated message loss.
        monitor.record_batch_at(now, entries);
        shared.datagrams.fetch_add(datagrams, Ordering::Relaxed);
        shared.entries.fetch_add(entries.len() as u64, Ordering::Relaxed);
        shared.rejected.fetch_add(rejected, Ordering::Relaxed);
        shared.shed.fetch_add(shed, Ordering::Relaxed);
        monitor.note_entries_shed(shed);
        match stop {
            Some(PumpStop::Sentinel) => return PumpExit::Shutdown,
            Some(PumpStop::InjectedPanic) => panic!("injected pump panic"),
            None => {}
        }
    }
}

/// Ships `η` recommendations (as drained from
/// [`ClusterMonitor::drain_eta_recommendations`](crate::ClusterMonitor::drain_eta_recommendations))
/// toward the heartbeat senders as wire control frames, chunked by
/// [`MAX_CONTROL_BATCH`].
pub struct ControlSender {
    plane: Box<dyn BatchSender>,
    frames: Vec<Vec<u8>>,
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
            &entries,
            MAX_CONTROL_BATCH,
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

/// Listener-side configuration.
#[derive(Debug, Clone)]
pub struct ControlListenerConfig {
    /// How many times a panicking pump is restarted before the listener
    /// gives up (reported as [`Health::Stopped`]).
    pub max_pump_restarts: u64,
}

impl Default for ControlListenerConfig {
    fn default() -> Self {
        Self { max_pump_restarts: 8 }
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
    /// Binds `addr` with the default configuration and starts the
    /// supervised pump, delivering every decoded recommendation to
    /// `on_recommendation`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Net`] on socket errors and
    /// [`RuntimeError::Spawn`] if the pump thread cannot start.
    pub fn bind(
        addr: SocketAddr,
        on_recommendation: Arc<dyn Fn(PeerId, f64) + Send + Sync>,
    ) -> Result<Self, RuntimeError> {
        Self::bind_with(addr, on_recommendation, ControlListenerConfig::default())
    }

    /// [`bind`](Self::bind) with explicit supervision settings.
    ///
    /// # Errors
    ///
    /// Same as [`bind`](Self::bind).
    pub fn bind_with(
        addr: SocketAddr,
        on_recommendation: Arc<dyn Fn(PeerId, f64) + Send + Sync>,
        cfg: ControlListenerConfig,
    ) -> Result<Self, RuntimeError> {
        let socket = UdpSocket::bind(addr).map_err(net_err("bind"))?;
        let addr = socket.local_addr().map_err(net_err("local_addr"))?;
        mmsg::set_poll_timeout(&socket, PUMP_POLL_TIMEOUT).map_err(net_err("set_timeout"))?;
        let shutdown = UdpSocket::bind((loopback_ip(&addr), 0)).map_err(net_err("bind"))?;
        let shutdown_addr = shutdown.local_addr().map_err(net_err("local_addr"))?;
        let shared = Arc::new(PumpShared::new(1, cfg.max_pump_restarts));
        let pump_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("fd-cluster-control-rx".into())
            .spawn(move || {
                supervised(&pump_shared, || {
                    control_pump(&socket, &on_recommendation, shutdown_addr, &pump_shared)
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

    /// Fault-injection hook: makes the pump panic on the next datagram.
    /// For chaos tests; never called on production paths.
    #[cfg(test)]
    fn inject_pump_panic(&self) {
        self.shared.inject_panic.store(true, Ordering::Relaxed);
    }

    /// Fault-injection hook: the next receive attempt fails with a
    /// synthetic transient error; the pump must retry, not stop. For
    /// chaos tests.
    #[cfg(test)]
    fn inject_recv_error(&self) {
        self.shared.inject_recv_errors.fetch_add(1, Ordering::Relaxed);
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

/// The control listener's receive loop: one datagram per receive, each
/// recommendation of a control frame handed to the callback.
fn control_pump(
    socket: &UdpSocket,
    on_recommendation: &Arc<dyn Fn(PeerId, f64) + Send + Sync>,
    shutdown_addr: SocketAddr,
    shared: &PumpShared,
) -> PumpExit {
    let mut buf = [0u8; 2048];
    loop {
        let (n, src) = match recv_next(shared, || socket.recv_from(&mut buf)) {
            Ok(received) => received,
            Err(exit) => return exit,
        };
        if n == SHUTDOWN_SENTINEL.len() && buf[..n] == SHUTDOWN_SENTINEL && src == shutdown_addr {
            return PumpExit::Shutdown;
        }
        if shared.inject_panic.swap(false, Ordering::Relaxed) {
            panic!("injected control pump panic");
        }
        match decode_frame(&buf[..n]) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmsg::{FlakySender, FlakyTrigger};
    use crate::wire::{encode_batch, BATCH_MAGIC, BATCH_WIRE_VERSION};
    use crate::{ClusterConfig, PeerConfig};

    fn loop_addr() -> SocketAddr {
        SocketAddr::from((Ipv4Addr::LOCALHOST, 0))
    }

    /// Plays scripted receive batches to `pump`, then fails fatally
    /// (which makes `pump` return).
    struct ScriptedReceiver {
        batches: std::collections::VecDeque<Vec<(Vec<u8>, SocketAddr)>>,
    }

    impl BatchReceiver for ScriptedReceiver {
        fn recv_batch(&mut self, arena: &mut FrameArena) -> io::Result<usize> {
            let batch = self.batches.pop_front().ok_or_else(|| io::Error::other("script over"))?;
            for (i, (frame, src)) in batch.iter().enumerate() {
                arena.fill(i, frame, *src);
            }
            Ok(batch.len())
        }
    }

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
        let mut plane = ScriptedReceiver {
            batches: [vec![
                (heartbeat_frame(0..4, 1), sender),
                (heartbeat_frame(4..8, 1), sender),
                (SHUTDOWN_SENTINEL.to_vec(), shutdown_addr),
                (heartbeat_frame(0..4, 2), sender),
            ]]
            .into(),
        };
        let shared = PumpShared::new(1, 8);
        let exit =
            pump(&mut plane, &mut PumpBuffers::new(4), &monitor, shutdown_addr, &shared, None);
        assert!(matches!(exit, PumpExit::Shutdown));
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
        let full = |k: u64, seq| (heartbeat_frame(k * 45..(k + 1) * 45, seq), sender);
        let script = |rounds: std::ops::Range<u64>| ScriptedReceiver {
            batches: rounds
                .flat_map(|seq| {
                    [
                        vec![full(0, 2 * seq), full(1, 2 * seq), full(2, 2 * seq), full(3, 2 * seq)],
                        vec![full(0, 2 * seq + 1), (b"noise".to_vec(), sender), full(3, 2 * seq + 1)],
                    ]
                })
                .collect(),
        };
        let shared = PumpShared::new(1, 8);
        let mut bufs = PumpBuffers::new(RECV_BATCH);
        assert_eq!(bufs.entries.capacity(), RECV_BATCH * MAX_BATCH);
        let mut run = |rounds: std::ops::Range<u64>| {
            let exit = pump(&mut script(rounds), &mut bufs, &monitor, shutdown_addr, &shared, None);
            assert!(matches!(exit, PumpExit::Fatal), "the script ends in a fatal error");
            (bufs.entries.as_ptr(), bufs.entries.capacity())
        };
        // The first rounds size the scratch (and trust every peer once);
        // after that nothing may grow or move.
        let entries_buf = run(1..3);
        let scratch = crate::monitor::batch_scratch_capacities();
        assert_eq!(run(3..40), entries_buf, "entry buffer reallocated");
        assert_eq!(crate::monitor::batch_scratch_capacities(), scratch, "record scratch grew");
        assert_eq!(shared.entries.load(Ordering::Relaxed), 39 * (4 + 2) * 45);
        assert_eq!(shared.rejected.load(Ordering::Relaxed), 39);
        assert_eq!(monitor.status(0).unwrap().counters.heartbeats, 2 * 39);
        assert_eq!(monitor.status(45).unwrap().counters.heartbeats, 39);
        monitor.shutdown();
    }

    #[test]
    fn batched_flow_end_to_end() {
        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        for p in 0..16u64 {
            monitor.add_peer(p, PeerConfig::new(0.02, 0.06)).unwrap();
        }
        let rx = ClusterReceiver::bind(loop_addr(), monitor.clone()).expect("bind");
        let mut tx =
            ClusterSender::connect(rx.local_addr(), ClusterSenderConfig::default()).expect("tx");

        for round in 1..=6u64 {
            let t = monitor.now();
            for p in 0..16u64 {
                tx.queue(p, round, t).unwrap();
            }
            tx.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }

        // 16 entries per round fit one datagram: full multiplexing.
        assert_eq!(tx.datagrams_sent(), 6);
        assert!((tx.batching_factor() - 16.0).abs() < 1e-9);

        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while rx.entries_received() < 96 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(rx.datagrams_received(), 6);
        assert_eq!(rx.entries_received(), 96);
        assert_eq!(rx.rejected(), 0);
        assert_eq!(rx.entries_shed(), 0);
        let snap = monitor.snapshot();
        assert_eq!(snap.trusted().len(), 16, "all peers trusted: {snap:?}");
        rx.shutdown();
        monitor.shutdown();
    }

    #[test]
    fn rejects_foreign_datagrams() {
        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        let rx = ClusterReceiver::bind(loop_addr(), monitor.clone()).expect("bind");
        let sock = UdpSocket::bind(loop_addr()).unwrap();
        // A wire-v1 single-heartbeat datagram (seq 1, S = 0.5; magic
        // `FD B1`, no sender writes it any more) and plain noise.
        let v1 = *b"\xFD\xB1\x01\0\x01\0\0\0\0\0\0\0\0\0\0\0\0\0\xE0\x3F";
        sock.send_to(&v1, rx.local_addr()).unwrap();
        sock.send_to(b"not a heartbeat", rx.local_addr()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while rx.rejected() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(rx.rejected(), 2);
        assert_eq!(rx.datagrams_received(), 0);
        rx.shutdown();
        monitor.shutdown();
    }

    /// One heartbeat for peer 8 through a fresh sender, waited for.
    fn one_heartbeat_arrives(rx: &ClusterReceiver, to: SocketAddr, monitor: &ClusterMonitor) {
        let mut tx = ClusterSender::connect(to, ClusterSenderConfig::default()).expect("tx");
        tx.queue(8, 1, monitor.now()).unwrap();
        tx.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while rx.entries_received() < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(rx.entries_received(), 1);
        assert_eq!(monitor.status(8).expect("registered").counters.heartbeats, 1);
    }

    #[test]
    fn foreign_shutdown_sentinel_is_ignored() {
        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        monitor.add_peer(8, PeerConfig::new(0.02, 0.06)).unwrap();
        let rx = ClusterReceiver::bind(loop_addr(), monitor.clone()).expect("bind");
        // A (malicious or confused) peer sends the sentinel bytes from its
        // own socket: that is noise, and the pump must keep delivering.
        let foreign = UdpSocket::bind(loop_addr()).expect("bind foreign");
        foreign.send_to(&SHUTDOWN_SENTINEL, rx.local_addr()).expect("send sentinel");
        one_heartbeat_arrives(&rx, rx.local_addr(), &monitor);
        assert_eq!(rx.rejected(), 1, "the spoofed sentinel counts as foreign traffic");
        assert_eq!(rx.pump_health(), Health::Healthy);
        rx.shutdown(); // the genuine shutdown still works
        monitor.shutdown();
    }

    #[test]
    fn bind_to_unspecified_addr_still_shuts_down() {
        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        monitor.add_peer(8, PeerConfig::new(0.02, 0.06)).unwrap();
        // 0.0.0.0 is bindable but not a valid sentinel destination; the
        // shutdown path must reroute via loopback.
        let rx = ClusterReceiver::bind("0.0.0.0:0".parse().unwrap(), monitor.clone())
            .expect("bind");
        assert!(rx.local_addr().ip().is_unspecified());
        let to = SocketAddr::from((Ipv4Addr::LOCALHOST, rx.local_addr().port()));
        one_heartbeat_arrives(&rx, to, &monitor);
        rx.shutdown(); // must return promptly, not block on a dead pump
        monitor.shutdown();
    }

    #[test]
    fn oversize_rounds_split_into_full_batches() {
        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        let rx = ClusterReceiver::bind(loop_addr(), monitor.clone()).expect("bind");
        let mut tx =
            ClusterSender::connect(rx.local_addr(), ClusterSenderConfig::default()).expect("tx");
        for p in 0..150u64 {
            tx.queue(p, 1, 0.01).unwrap();
        }
        tx.flush().unwrap();
        // 150 = 45 + 45 + 45 + 15: three auto-flushed full batches plus
        // the tail.
        assert_eq!(tx.datagrams_sent(), 4);
        assert_eq!(tx.entries_sent(), 150);
        rx.shutdown();
        monitor.shutdown();
    }

    /// Heartbeat frames as senders of the retired framings would write
    /// them (v1: 24-byte entries without incarnation; v2: no kind byte;
    /// v3: today's layout under its own version byte), and as a future
    /// version 5 might: each is foreign traffic — rejected, counted,
    /// nothing recorded.
    #[test]
    fn heartbeat_frames_of_any_other_version_are_rejected_and_counted() {
        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        monitor.add_peer(3, PeerConfig::new(0.02, 0.06)).unwrap();
        let rx = ClusterReceiver::bind(loop_addr(), monitor.clone()).expect("bind");
        let sock = UdpSocket::bind(loop_addr()).unwrap();
        let t = monitor.now();
        let words = |ws: &[u64]| ws.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
        let frame = |head: &[u8], entry: &[u64]| [&BATCH_MAGIC[..], head, &words(entry)].concat();
        let current = encode_batch(&[HeartbeatEntry { peer: 3, incarnation: 0, seq: 1, send_time: t }]);
        assert_eq!(current, frame(&[BATCH_WIRE_VERSION, 0, 1], &[3, 0, 1, t.to_bits()]));
        let foreign = [
            frame(&[1, 1], &[3, 1, t.to_bits()]),
            frame(&[2, 1], &[3, 0, 1, t.to_bits()]),
            frame(&[3, 0, 1], &[3, 0, 1, t.to_bits()]),
            frame(&[5, 0, 1], &[3, 0, 1, t.to_bits()]),
        ];
        for (i, frame) in foreign.iter().enumerate() {
            sock.send_to(frame, rx.local_addr()).unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            while rx.rejected() <= i as u64 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(rx.rejected(), i as u64 + 1, "version {} is rejected", frame[2]);
        }
        assert_eq!(rx.datagrams_received(), 0);
        assert_eq!(rx.entries_received(), 0);
        assert_eq!(monitor.status(3).unwrap().counters.heartbeats, 0, "nothing recorded");
        // The same heartbeat under the one accepted header is taken.
        sock.send_to(&current, rx.local_addr()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while rx.entries_received() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!((rx.entries_received(), rx.rejected()), (1, 4));
        assert!(monitor.status(3).unwrap().output.is_trust());
        rx.shutdown();
        monitor.shutdown();
    }

    #[test]
    fn incarnation_travels_the_wire() {
        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        monitor.add_peer(8, PeerConfig::new(0.02, 0.06)).unwrap();
        let rx = ClusterReceiver::bind(loop_addr(), monitor.clone()).expect("bind");
        let mut tx =
            ClusterSender::connect(rx.local_addr(), ClusterSenderConfig::default()).expect("tx");
        tx.queue_incarnated(8, 4, 1, monitor.now()).unwrap();
        tx.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while rx.entries_received() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(monitor.status(8).unwrap().incarnation, 4);
        // A previous-life entry (lower incarnation) is rejected by the
        // monitor — full path: wire → decode → record_incarnated.
        tx.queue_incarnated(8, 3, 99, monitor.now()).unwrap();
        tx.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while monitor.stats().stale_incarnation_rejects < 1
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(monitor.stats().stale_incarnation_rejects, 1);
        rx.shutdown();
        monitor.shutdown();
    }

    #[test]
    fn pump_panic_degrades_health_and_keeps_receiving() {
        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        monitor.add_peer(1, PeerConfig::new(0.02, 0.06)).unwrap();
        let rx = ClusterReceiver::bind(loop_addr(), monitor.clone()).expect("bind");
        let mut tx =
            ClusterSender::connect(rx.local_addr(), ClusterSenderConfig::default()).expect("tx");
        assert_eq!(rx.pump_health(), Health::Healthy);

        rx.inject_pump_panic();
        tx.queue(1, 1, monitor.now()).unwrap();
        tx.flush().unwrap(); // this datagram trips the injected panic
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while rx.pump_restarts() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(rx.pump_restarts(), 1);
        assert!(matches!(rx.pump_health(), Health::Degraded { .. }));

        // The restarted pump still records heartbeats.
        tx.queue(1, 2, monitor.now()).unwrap();
        tx.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while rx.entries_received() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(monitor.status(1).unwrap().output.is_trust());
        rx.shutdown();
        monitor.shutdown();
    }

    #[test]
    fn overload_sheds_entries_beyond_budget() {
        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        for p in 0..32u64 {
            monitor.add_peer(p, PeerConfig::new(0.5, 1.0)).unwrap();
        }
        let rx = ClusterReceiver::bind_with(
            loop_addr(),
            monitor.clone(),
            ClusterReceiverConfig { max_entries_per_sec: Some(10), ..Default::default() },
        )
        .expect("bind");
        let mut tx =
            ClusterSender::connect(rx.local_addr(), ClusterSenderConfig::default()).expect("tx");
        // One burst of 32 entries against a 10-entry budget.
        let t = monitor.now();
        for p in 0..32u64 {
            tx.queue(p, 1, t).unwrap();
        }
        tx.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while rx.entries_shed() < 22 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(rx.entries_received(), 10);
        assert_eq!(rx.entries_shed(), 22);
        assert_eq!(monitor.stats().entries_shed, 22, "shed count surfaces in ClusterStats");
        rx.shutdown();
        monitor.shutdown();
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

        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while listener.entries_received() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(listener.datagrams_received(), 1);
        assert_eq!(listener.entries_received(), 2);
        assert_eq!(*unpoison(got.lock()), vec![(4, 0.125), (9, 2.5)]);

        // Oversize rounds chunk by MAX_CONTROL_BATCH.
        let many: Vec<(PeerId, f64)> =
            (0..120u64).map(|p| (p, 0.5 + p as f64 * 1e-3)).collect();
        assert_eq!(tx.send(&many).expect("send"), 2, "120 = 91 + 29 entries");
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while listener.entries_received() < 122 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(listener.entries_received(), 122);
        assert_eq!(listener.rejected(), 0);
        listener.shutdown();
    }

    #[test]
    fn control_listener_ignores_misdirected_and_rejects_noise() {
        let listener =
            ControlListener::bind(loop_addr(), Arc::new(|_, _| panic!("no delivery expected")))
                .expect("bind");
        let sock = UdpSocket::bind(loop_addr()).unwrap();
        // A well-formed heartbeat frame aimed at the control port is
        // decoded, counted as ignored, and dropped; noise is rejected.
        let frame = heartbeat_frame(3..4, 1);
        sock.send_to(&frame, listener.local_addr()).unwrap();
        sock.send_to(b"not a control frame", listener.local_addr()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while (listener.ignored() < 1 || listener.rejected() < 1)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(listener.ignored(), 1);
        assert_eq!(listener.rejected(), 1);
        assert_eq!(listener.entries_received(), 0);
        listener.shutdown();
    }

    #[test]
    fn control_pump_panic_degrades_and_recovers() {
        let got: Arc<Mutex<Vec<(PeerId, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        let listener = ControlListener::bind(
            loop_addr(),
            Arc::new(move |peer, eta| unpoison(sink.lock()).push((peer, eta))),
        )
        .expect("bind");
        let mut tx = ControlSender::connect(listener.local_addr()).expect("connect");
        assert_eq!(listener.pump_health(), Health::Healthy);

        listener.inject_pump_panic();
        tx.send(&[(1, 1.0)]).expect("send"); // trips the injected panic
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while listener.pump_restarts() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(listener.pump_restarts(), 1);
        assert!(matches!(listener.pump_health(), Health::Degraded { .. }));

        // The restarted pump still delivers.
        tx.send(&[(1, 2.0)]).expect("send");
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while unpoison(got.lock()).is_empty() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(*unpoison(got.lock()), vec![(1, 2.0)]);
        listener.shutdown();
    }

    #[test]
    fn flush_retains_unsent_entries_across_mid_flush_error() {
        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        for p in 0..16u64 {
            monitor.add_peer(p, PeerConfig::new(0.5, 1.0)).unwrap();
        }
        let rx = ClusterReceiver::bind(loop_addr(), monitor.clone()).expect("bind");
        let trigger = FlakyTrigger::new();
        let tx_trigger = Arc::clone(&trigger);
        let mut tx = ClusterSender::connect_wrapped(
            rx.local_addr(),
            ClusterSenderConfig { max_batch: 8, ..Default::default() },
            move |plane| Box::new(FlakySender::new(plane, tx_trigger)),
        )
        .expect("tx");

        let t = monitor.now();
        // Fail the very first frame: the auto-flush errors, nothing lost.
        trigger.arm(0);
        let mut queue_err = None;
        for p in 0..8u64 {
            if let Err(e) = tx.queue(p, 1, t) {
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
            let _ = tx.queue(p, 1, t);
        }
        assert_eq!(tx.datagrams_sent(), 1);
        assert_eq!(tx.entries_sent(), 8);
        assert_eq!(tx.pending_entries(), 8);

        // Recovery flush (trigger disarmed): the retained tail goes out.
        assert_eq!(tx.flush().expect("flush"), 1);
        assert_eq!(tx.datagrams_sent(), 2);
        assert_eq!(tx.entries_sent(), 16);
        assert_eq!(tx.pending_entries(), 0);

        // Every queued heartbeat arrived exactly once: the socket error
        // did not manufacture message loss.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while rx.entries_received() < 16 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(rx.entries_received(), 16);
        assert_eq!(rx.rejected(), 0);
        rx.shutdown();
        monitor.shutdown();
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
    fn pump_survives_transient_recv_errors() {
        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        monitor.add_peer(1, PeerConfig::new(0.02, 0.06)).unwrap();
        let rx = ClusterReceiver::bind(loop_addr(), monitor.clone()).expect("bind");
        let mut tx =
            ClusterSender::connect(rx.local_addr(), ClusterSenderConfig::default()).expect("tx");

        for _ in 0..3 {
            rx.inject_recv_error();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while rx.recv_errors() < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(rx.recv_errors(), 3, "errors are counted, health-visible");
        assert_eq!(rx.pump_restarts(), 0, "transient errors are not pump crashes");

        // Reception continues — the errors must not read as shutdown.
        tx.queue(1, 1, monitor.now()).unwrap();
        tx.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while rx.entries_received() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(rx.entries_received(), 1);
        // The first successful receive restored Healthy; at no point was
        // the pump recorded as cleanly Stopped.
        assert_eq!(rx.pump_health(), Health::Healthy);
        assert!(monitor.status(1).unwrap().output.is_trust());
        rx.shutdown();
        monitor.shutdown();
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

    #[test]
    fn control_pump_survives_transient_recv_errors() {
        let got: Arc<Mutex<Vec<(PeerId, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        let listener = ControlListener::bind(
            loop_addr(),
            Arc::new(move |peer, eta| unpoison(sink.lock()).push((peer, eta))),
        )
        .expect("bind");
        let mut tx = ControlSender::connect(listener.local_addr()).expect("connect");

        listener.inject_recv_error();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while listener.recv_errors() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(listener.recv_errors(), 1);
        assert_eq!(listener.pump_restarts(), 0);

        tx.send(&[(7, 0.25)]).expect("send");
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while listener.entries_received() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(*unpoison(got.lock()), vec![(7, 0.25)]);
        assert_eq!(listener.pump_health(), Health::Healthy);
        listener.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn sharded_pumps_drain_multiple_senders() {
        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        for p in 0..64u64 {
            monitor.add_peer(p, PeerConfig::new(0.5, 1.0)).unwrap();
        }
        let rx = ClusterReceiver::bind_with(
            loop_addr(),
            monitor.clone(),
            ClusterReceiverConfig { pump_threads: 4, recv_batch: 16, ..Default::default() },
        )
        .expect("bind");
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
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while rx.entries_received() < 192 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(rx.entries_received(), 192, "4 senders × 3 rounds × 16 entries");
        assert_eq!(rx.rejected(), 0);
        assert_eq!(rx.pump_health(), Health::Healthy);
        rx.shutdown();
        monitor.shutdown();
    }

    #[test]
    fn entry_budget_window_boundaries() {
        let mut b = EntryBudget::new(10);
        let base = b.window_start;
        // Budget exactly exhausted at the window edge: later same-window
        // requests get nothing...
        assert_eq!(b.admit_at(10, base), 10);
        assert_eq!(b.admit_at(1, base + Duration::from_millis(500)), 0);
        assert_eq!(b.admit_at(5, base + Duration::from_millis(999)), 0);
        // ...and the reset at exactly 1 s re-opens the full budget.
        assert_eq!(b.admit_at(7, base + Duration::from_millis(1000)), 7);
        // A burst straddling the next reset: the old window grants its
        // remainder, the new window the rest of a fresh budget.
        assert_eq!(b.admit_at(7, base + Duration::from_millis(1500)), 3);
        assert_eq!(b.admit_at(7, base + Duration::from_millis(2600)), 7);
    }

    #[test]
    fn entry_budget_grants_plus_sheds_account_for_every_entry() {
        let mut b = EntryBudget::new(10);
        let base = b.window_start;
        let mut granted = 0u64;
        let mut shed = 0u64;
        for i in 0..40u64 {
            let g = b.admit_at(13, base + Duration::from_millis(i * 77));
            granted += g;
            shed += 13 - g;
        }
        assert_eq!(granted + shed, 40 * 13, "no entry unaccounted");
        // Calls span 3 003 ms: windows reset at 1 001, 2 002 and
        // 3 003 ms (first call at/after each boundary re-anchors), so
        // exactly four windows each grant their full budget of 10.
        assert_eq!(granted, 40);
        assert_eq!(shed, 40 * 13 - 40);
    }
}
