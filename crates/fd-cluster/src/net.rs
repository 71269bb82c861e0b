//! Batched heartbeat transport over the [`mmsg`] datagram
//! plane: many peers, batched syscalls, sharded sockets.
//!
//! [`ClusterSender`] multiplexes heartbeats for any number of peers:
//! callers `queue` entries and the sender packs up to `max_batch` of
//! them, in at most 1 472 bytes, per datagram ([`wire`](crate::wire)
//! heartbeat frames, carrying each sender's incarnation), encoding each
//! frame into a reusable pool as soon as the queue fills it. Callers
//! flush explicitly at period boundaries; the sender flushes on its own
//! only once one receive arena's worth of frames (32) is filled, or at
//! every heartbeat when `max_batch` is 1 — one sender per peer, the
//! paper's shape, which never holds a heartbeat back. A flush seals the
//! tail and hands every filled frame to the plane in one `sendmmsg`
//! call, where each run of equal-length frames crosses the kernel's
//! stack once as a segmentation-offload message and reaches the
//! receiver as the same datagrams (one `send` per frame on the portable
//! fallback; see [`mmsg`]'s fallback matrix).
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
//! This module is the one place a live link drops, duplicates or delays
//! a message: the paper's link (§2, §7) is per-message loss plus a
//! random delay `D`, scripted by a [`FaultPlan`]. A sender given a plan
//! draws each message's fates from the plan's [`FaultInjector`] and its
//! own seeded RNG when the message is queued. A copy with no delay goes
//! out with the next flush; a delayed copy is **held**, ordered by due
//! time and then by admission, until a `flush_due(now)` at or past its
//! due time releases it into the same queue and flush. For a
//! [`ClusterSender`] a message is one heartbeat entry (optionally only
//! for a designated subset of peers), so a scripted partition drops
//! exactly the targeted peers' heartbeats while the rest of the batch
//! still goes out — loss per message, as the paper's model assumes, not
//! per datagram. For a [`FrameSender`] a message is one whole frame.
//! Without a plan the stage is one `None` branch.
//!
//! [`FrameSender`] carries the advisory frame traffic — `η`
//! recommendations as wire control frames toward the heartbeat
//! *senders*, and federation gossip between monitor nodes — to one
//! destination. A frame the kernel refuses is dropped, not retried. Its
//! receiver starts no thread: the heartbeat sender's side, like a
//! federation node, binds a [`bind_polled`] socket and drains it from
//! its own loop through [`decode_frame`](crate::wire::decode_frame),
//! between the rounds it paces its [`ClusterSender`] with.
//! Control traffic is advisory and idempotent — a lost datagram just
//! means the next control round recommends again.

use crate::backoff::{supervise, Supervised};
use crate::mmsg::{self, BatchReceiver, BatchSender, FrameArena};
use crate::wire::{
    decode_batch_into, encode_batch_into, encode_control_into, heartbeat_prefix, ControlEntry,
    HeartbeatEntry, MAX_BATCH, MAX_CONTROL_BATCH,
};
use crate::{unpoison, ClusterMonitor, Health, PeerId, RuntimeError};
use fd_sim::{FaultInjector, FaultPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
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
    /// [`wire`](crate::wire)). It also sets when
    /// [`queue`](ClusterSender::queue) flushes on its own: at every
    /// heartbeat when 1, else once 32 frames are filled.
    pub max_batch: usize,
    /// Scripted fault timeline applied per entry (time is the entry's
    /// `send_time`, i.e. the sender's cluster clock); a delayed entry is
    /// held until [`flush_due`](ClusterSender::flush_due) reaches its
    /// due time.
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

/// Encoded frames on their way to the plane, in a reusable pool:
/// `frames[..counts.len()]` are sealed and unsent, in order, frame `i`
/// holding `counts[i]` entries; the slots after them wait for reuse, so
/// a sender allocates nothing once the pool has grown.
#[derive(Default)]
struct Outbox {
    frames: Vec<Vec<u8>>,
    counts: Vec<usize>,
}

impl Outbox {
    /// Sealed frames not yet accepted by the plane.
    fn len(&self) -> usize {
        self.counts.len()
    }

    /// Encodes a frame of `entries` entries into the next free slot.
    fn seal(&mut self, entries: usize, encode: impl FnOnce(&mut Vec<u8>)) {
        let n = self.counts.len();
        if self.frames.len() == n {
            self.frames.push(Vec::new());
        }
        encode(&mut self.frames[n]);
        self.counts.push(entries);
    }

    /// Hands every sealed frame to `plane` in one call. The frames it
    /// accepted leave; the rest stay sealed at the front, in order, to
    /// go out verbatim next time. Returns the plane's outcome and how
    /// many entries the accepted frames held.
    fn send(&mut self, plane: &mut dyn BatchSender) -> (mmsg::SendOutcome, usize) {
        let n = self.counts.len();
        let outcome = plane.send_frames(&self.frames[..n]);
        // Frames hold unequal counts, so the accepted frames map back to
        // entries through theirs.
        let sent_entries = self.counts.drain(..outcome.sent).sum();
        self.frames[..n].rotate_left(outcome.sent);
        (outcome, sent_entries)
    }

    /// Forgets the first sealed frame, keeping its slot.
    fn drop_first(&mut self) {
        let n = self.counts.len();
        if n > 0 {
            self.counts.remove(0);
            self.frames[..n].rotate_left(1);
        }
    }
}

/// The live link-fault stage: a [`FaultPlan`]'s injector, the link's
/// seeded RNG, and the copies a delay holds back until they are due.
struct FaultStage<T> {
    injector: FaultInjector,
    rng: StdRng,
    /// Reusable fate buffer, so admitting a message allocates nothing.
    fates: Vec<f64>,
    /// Held copies by due time, then admission number.
    held: BTreeMap<(u64, u64), T>,
    admitted: u64,
}

/// A time as a key that orders as the time does: a finite non-negative
/// `f64` orders as its bits, and a time at or before 0 comes first.
fn due_key(t: f64) -> u64 {
    if t > 0.0 {
        t.to_bits()
    } else {
        0
    }
}

impl<T> FaultStage<T> {
    fn new(plan: &FaultPlan, seed: u64) -> Self {
        Self {
            injector: plan.injector(),
            rng: StdRng::seed_from_u64(seed),
            fates: Vec::new(),
            held: BTreeMap::new(),
            admitted: 0,
        }
    }

    /// Draws the fates of one message sent at `at` (none: dropped; two:
    /// duplicated). `out` is called once for each copy without delay;
    /// each delayed copy, made by `copy`, is held. Returns how many
    /// copies went to `out` and how many are held.
    fn admit(&mut self, at: f64, mut out: impl FnMut(), copy: impl Fn() -> T) -> (usize, usize) {
        self.fates.clear();
        self.injector.apply(at, Some(0.0), &mut self.rng, &mut self.fates);
        let mut held = 0;
        for &delay in &self.fates {
            if delay > 0.0 {
                self.held.insert((due_key(at + delay), self.admitted), copy());
                self.admitted += 1;
                held += 1;
            } else {
                out();
            }
        }
        (self.fates.len() - held, held)
    }

    /// Hands every held copy due by `now` to `out`, in due order.
    fn release(&mut self, now: f64, mut out: impl FnMut(T)) {
        let now = due_key(now);
        while let Some(first) = self.held.first_entry() {
            if first.key().0 > now {
                break;
            }
            out(first.remove());
        }
    }
}

/// Sends batched heartbeats for many peers over one UDP socket, handed
/// to the kernel through the batched [`mmsg`] plane.
pub struct ClusterSender {
    plane: Box<dyn BatchSender>,
    max_batch: usize,
    /// Sealed frames at which `queue_incarnated` flushes on its own.
    flush_at: usize,
    /// The fault plan's stage; `None` without a plan.
    stage: Option<FaultStage<HeartbeatEntry>>,
    faulty: Option<HashSet<PeerId>>,
    /// Queued entries not yet sealed into a frame, each already through
    /// fault injection (at queue time); fewer than `max_batch` between
    /// calls.
    queued: Vec<HeartbeatEntry>,
    /// Sealed frames not yet on the wire. A frame the kernel did not
    /// accept stays here, so a retained (error-stalled) entry is never
    /// run through the fault plan a second time.
    outbox: Outbox,
    datagrams_sent: u64,
    entries_sent: u64,
}

impl std::fmt::Debug for ClusterSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSender")
            .field("max_batch", &self.max_batch)
            .field("queued", &self.queued.len())
            .field("sealed_frames", &self.outbox.len())
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
        let stage = cfg.fault_plan.as_ref().map(|p| FaultStage::new(p, cfg.seed ^ p.seed()));
        let max_batch = cfg.max_batch.clamp(1, MAX_BATCH);
        Ok(Self {
            plane: wrap(mmsg::batch_sender(socket)),
            max_batch,
            flush_at: if max_batch == 1 { 1 } else { RECV_BATCH },
            stage,
            faulty: cfg.faulty_peers.map(|v| v.into_iter().collect()),
            queued: Vec::new(),
            outbox: Outbox::default(),
            datagrams_sent: 0,
            entries_sent: 0,
        })
    }

    /// Queues one heartbeat at incarnation 0 (a sender that never
    /// persists an incarnation — the crash-stop model), after per-entry
    /// fault injection. Entries are encoded as soon as they fill a frame.
    /// With `max_batch` 1 it sends the heartbeat at once; otherwise it
    /// flushes on its own only once 32 frames — one receive arena's
    /// worth — are filled, so call [`flush`](Self::flush) after queueing
    /// a round or a block: what is queued below that waits for it.
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
        let entry = HeartbeatEntry { peer, incarnation, seq, send_time };
        // Per-entry injection: each heartbeat suffers its own fate, as in
        // the paper's per-message loss model.
        let targeted = self.faulty.as_ref().is_none_or(|set| set.contains(&peer));
        match (&mut self.stage, targeted) {
            (Some(stage), true) => {
                let queued = &mut self.queued;
                stage.admit(send_time, || queued.push(entry), || entry);
            }
            _ => self.queued.push(entry),
        }
        while self.queued.len() >= self.max_batch {
            self.seal_frame();
        }
        if self.outbox.len() >= self.flush_at {
            self.flush()?;
        }
        Ok(())
    }

    /// Encodes the longest prefix of the queue one frame holds. It reads
    /// at most `max_batch` entries, so sealing a frame as soon as the
    /// queue holds that many cuts the frames a cut at flush time would.
    fn seal_frame(&mut self) {
        let n = heartbeat_prefix(&self.queued, self.max_batch);
        self.outbox.seal(n, |frame| encode_batch_into(&self.queued[..n], frame));
        self.queued.drain(..n);
    }

    /// Sends everything queued, packed into datagrams of at most
    /// `max_batch` entries and 1 472 bytes each, in one batched plane
    /// call: one `sendmmsg`, each run of equal-length frames one
    /// segmentation-offload message on Linux. Returns the number of
    /// datagrams handed to the socket. Entries a delay holds wait for
    /// [`flush_due`](Self::flush_due).
    ///
    /// # Errors
    ///
    /// Propagates socket errors; undelivered entries stay pending — a
    /// chunk the kernel never accepted (mid-flush error, or a partial
    /// `sendmmsg`) is retained verbatim and retried by the next flush,
    /// so a socket hiccup cannot fabricate message loss.
    pub fn flush(&mut self) -> io::Result<usize> {
        while !self.queued.is_empty() {
            self.seal_frame();
        }
        if self.outbox.len() == 0 {
            return Ok(0);
        }
        let (outcome, sent_entries) = self.outbox.send(self.plane.as_mut());
        self.datagrams_sent += outcome.sent as u64;
        self.entries_sent += sent_entries as u64;
        match outcome.error {
            Some(e) => Err(e),
            None => Ok(outcome.sent),
        }
    }

    /// Releases every entry the fault plan delayed whose due time (send
    /// time plus delay, on the cluster clock) is at or before `now` into
    /// the queue, in due order, then [`flush`](Self::flush)es. A sender
    /// with a plan calls it at every step of its loop; without a plan it
    /// is `flush`. Entries still held when the sender is dropped are
    /// lost, as on a link that goes down.
    ///
    /// # Errors
    ///
    /// As [`flush`](Self::flush).
    pub fn flush_due(&mut self, now: f64) -> io::Result<usize> {
        if let Some(stage) = &mut self.stage {
            stage.release(now, |entry| self.queued.push(entry));
        }
        self.flush()
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

    /// Entries queued or retained but not yet on the wire.
    #[cfg(test)]
    fn pending_entries(&self) -> usize {
        self.queued.len() + self.outbox.counts.iter().sum::<usize>()
    }

    /// Entries a delay holds.
    #[cfg(test)]
    fn held_entries(&self) -> usize {
        self.stage.as_ref().map_or(0, |stage| stage.held.len())
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

/// Counters and supervision state shared by the pumps of one
/// [`ClusterReceiver`].
struct PumpShared {
    datagrams: AtomicU64,
    entries: AtomicU64,
    rejected: AtomicU64,
    /// Heartbeat entries dropped by overload shedding.
    shed: AtomicU64,
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
    /// The pump's pause after a short receive batch of unbatched
    /// traffic (see [`pump`]): a quarter of the monitor's tick.
    coalesce: Duration,
    /// Health and restart count shared by the pumps; the restart budget
    /// is each pump's own.
    sup: Supervised,
}

impl PumpShared {
    fn new(pumps: usize, coalesce: Duration) -> Self {
        let (exit_tx, exit_rx) = mpsc::channel();
        Self {
            datagrams: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            recv_errors: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            live_pumps: AtomicU64::new(pumps as u64),
            exit_tx,
            exit_rx: Mutex::new(exit_rx),
            coalesce,
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
        let coalesce = Duration::from_secs_f64(monitor.tick() / 4.0);
        let shared = Arc::new(PumpShared::new(sockets.len(), coalesce));
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

    /// Stops and joins the pumps; returns how each one ended, in the
    /// order they did (empty the second time).
    fn stop(&mut self) -> Vec<Option<PumpExit>> {
        if self.handles.is_empty() {
            return Vec::new();
        }
        let mut target = self.addr;
        if target.ip().is_unspecified() {
            target.set_ip(loopback_ip(&target));
        }
        // Sentinel first: it reaches one sharded socket, and the pump it
        // stops raises the flag for its siblings. The flag is raised here
        // too, once a pump has exited or a poll period has passed, so a
        // sentinel that never arrives (a full socket buffer drops it) costs
        // one poll period, and the exits say which of the two it was.
        let _ = self.shutdown.send_to(&SHUTDOWN_SENTINEL, target);
        let exits = unpoison(self.shared.exit_rx.lock());
        let first = exits.recv_timeout(PUMP_POLL_TIMEOUT).ok();
        self.shared.stop.store(true, Ordering::SeqCst);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        *unpoison(self.shared.sup.health.lock()) = Health::Stopped;
        first.into_iter().chain(std::iter::from_fn(|| exits.try_recv().ok())).collect()
    }
}

impl Drop for ClusterReceiver {
    fn drop(&mut self) {
        self.stop();
    }
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

/// The pump's receive step: polls the stop flag and retries through
/// idle wakeups and transient errors (counted, `Degraded` until
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

/// Sends whole wire frames — `η` recommendations as control frames
/// ([`send_control`](Self::send_control)), federation gossip — over a
/// connected socket to one destination, through the batched [`mmsg`]
/// plane; with a link plan each frame is one message of the fault stage.
/// The traffic is advisory: a frame the kernel refuses is dropped, not
/// retried.
pub struct FrameSender {
    plane: Box<dyn BatchSender>,
    /// Held frames keep their entry counts.
    stage: Option<FaultStage<(Vec<u8>, usize)>>,
    outbox: Outbox,
    datagrams_sent: u64,
    entries_sent: u64,
}

impl std::fmt::Debug for FrameSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameSender").field("datagrams_sent", &self.datagrams_sent).finish()
    }
}

impl FrameSender {
    /// Binds an ephemeral local socket and connects it to `to`; `link`,
    /// if given, is the plan scripting the link and the seed of the RNG
    /// its fates are drawn from.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Net`] on socket errors.
    pub fn connect(to: SocketAddr, link: Option<(&FaultPlan, u64)>) -> Result<Self, RuntimeError> {
        Self::connect_wrapped(to, link, |plane| plane)
    }

    /// [`connect`](Self::connect), passing the datagram plane through
    /// `wrap` before use — the seam recording and partial-send tests use.
    fn connect_wrapped(
        to: SocketAddr,
        link: Option<(&FaultPlan, u64)>,
        wrap: impl FnOnce(Box<dyn BatchSender>) -> Box<dyn BatchSender>,
    ) -> Result<Self, RuntimeError> {
        let socket = connected_socket(to)?;
        Ok(Self {
            plane: wrap(mmsg::batch_sender(socket)),
            stage: link.map(|(plan, seed)| FaultStage::new(plan, seed)),
            outbox: Outbox::default(),
            datagrams_sent: 0,
            entries_sent: 0,
        })
    }

    /// Queues one encoded frame, sent at `now`, through the link's fault
    /// stage. Returns how many copies go out with the next flush and how
    /// many wait for a [`flush_due`](Self::flush_due); `(0, 0)` is a
    /// frame the link dropped.
    pub fn queue(&mut self, frame: &[u8], now: f64) -> (usize, usize) {
        self.admit(frame, 1, now)
    }

    /// Queues `frame`, holding `entries` entries, through the stage.
    fn admit(&mut self, frame: &[u8], entries: usize, now: f64) -> (usize, usize) {
        let outbox = &mut self.outbox;
        let mut seal = || {
            outbox.seal(entries, |slot| {
                slot.clear();
                slot.extend_from_slice(frame);
            })
        };
        match &mut self.stage {
            Some(stage) => stage.admit(now, seal, || (frame.to_vec(), entries)),
            None => {
                seal();
                (1, 0)
            }
        }
    }

    /// Queues the recommendations as sent at `now`, [`MAX_CONTROL_BATCH`]
    /// per frame, skipping any non-finite or non-positive `η` (it could
    /// never be applied), and flushes. Returns the datagrams the kernel
    /// accepted.
    ///
    /// # Errors
    ///
    /// As [`flush`](Self::flush); the next control round recommends
    /// again.
    pub fn send_control(&mut self, recs: &[(PeerId, f64)], now: f64) -> io::Result<usize> {
        let entries: Vec<ControlEntry> = recs
            .iter()
            .filter(|(_, eta)| eta.is_finite() && *eta > 0.0)
            .map(|&(peer, eta)| ControlEntry { peer, eta })
            .collect();
        let mut frame = Vec::new();
        for chunk in entries.chunks(MAX_CONTROL_BATCH) {
            encode_control_into(chunk, &mut frame);
            self.admit(&frame, chunk.len(), now);
        }
        self.flush()
    }

    /// Sends every queued frame in one batched plane call. A frame the
    /// kernel refuses is dropped, and the frames behind it still go.
    /// Returns the datagrams the kernel accepted.
    ///
    /// # Errors
    ///
    /// The first refusal. Both counters advance by exactly what the
    /// kernel accepted.
    pub fn flush(&mut self) -> io::Result<usize> {
        let (mut sent, mut refused) = (0, None);
        while self.outbox.len() > 0 {
            let (outcome, sent_entries) = self.outbox.send(self.plane.as_mut());
            sent += outcome.sent;
            self.entries_sent += sent_entries as u64;
            let Some(e) = outcome.error else { break };
            self.outbox.drop_first();
            refused.get_or_insert(e);
        }
        self.datagrams_sent += sent as u64;
        refused.map_or(Ok(sent), Err)
    }

    /// Releases every delayed frame due by `now` into the queue, in due
    /// order, then [`flush`](Self::flush)es.
    ///
    /// # Errors
    ///
    /// As [`flush`](Self::flush).
    pub fn flush_due(&mut self, now: f64) -> io::Result<usize> {
        if let Some(stage) = &mut self.stage {
            let outbox = &mut self.outbox;
            stage.release(now, |(frame, entries)| outbox.seal(entries, |slot| *slot = frame));
        }
        self.flush()
    }

    /// Datagrams the kernel accepted since connect.
    pub fn datagrams_sent(&self) -> u64 {
        self.datagrams_sent
    }

    /// Entries (a control frame's recommendations; one for any other
    /// frame) in the datagrams the kernel accepted since connect.
    pub fn entries_sent(&self) -> u64 {
        self.entries_sent
    }
}

/// Binds a nonblocking socket at `addr` for a caller that drains it
/// from its own loop — a federation node's gossip, a heartbeat sender's
/// control frames: returns the batched receiver (a drained socket
/// answers `WouldBlock`) and the bound address.
///
/// # Errors
///
/// Returns [`RuntimeError::Net`] on socket errors.
pub fn bind_polled(
    addr: SocketAddr,
    batch: usize,
) -> Result<(Box<dyn BatchReceiver>, SocketAddr), RuntimeError> {
    let socket = UdpSocket::bind(addr).map_err(net_err("bind"))?;
    socket.set_nonblocking(true).map_err(net_err("set_nonblocking"))?;
    let addr = socket.local_addr().map_err(net_err("local_addr"))?;
    Ok((mmsg::batch_receiver(socket, batch), addr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmsg::{FlakySender, FlakyTrigger};
    use crate::wire::{
        decode_batch, decode_frame, encode_batch, Frame, BATCH_MAGIC, BATCH_WIRE_VERSION,
    };
    use crate::{ClusterConfig, MembershipChange, PeerConfig};
    use fd_sim::LinkFault;
    use std::collections::HashMap;
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
        let shared = PumpShared::new(1, Duration::ZERO);
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
        let shared = PumpShared::new(1, Duration::ZERO);
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
        let shared = PumpShared::new(1, QUARTER_TICK);
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
    fn settle(mut done: impl FnMut() -> bool) {
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
        let shared = PumpShared::new(1, Duration::ZERO);
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
        assert_eq!(tx.datagrams_sent(), 0, "a round below 32 frames waits for its flush");
        tx.flush().unwrap();
        // 150 = 128 + 22: one full batch — a round shares incarnation,
        // seq and send time — plus the tail.
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
        let shared = PumpShared::new(1, Duration::ZERO);
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
        let shared = PumpShared::new(1, Duration::ZERO);
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

    /// The control leg's real-socket round trip: what `send_control`
    /// puts on the wire, read back by a plain blocking socket and
    /// decoded as a polled control socket's owner decodes it.
    #[test]
    fn control_round_trip_delivers_recommendations() {
        let rx = UdpSocket::bind(loop_addr()).expect("bind");
        rx.set_read_timeout(Some(Duration::from_secs(2))).expect("read timeout");
        let mut tx = FrameSender::connect(rx.local_addr().unwrap(), None).expect("connect");

        // Garbage η is filtered sender-side — it could never be applied.
        let sent = tx
            .send_control(&[(4, 0.125), (0, f64::NAN), (9, 2.5), (2, -1.0), (7, 0.0)], 0.0)
            .expect("send");
        assert_eq!(sent, 1, "two valid entries fit one datagram");
        assert_eq!(tx.entries_sent(), 2);
        // Oversize rounds chunk by MAX_CONTROL_BATCH.
        let many: Vec<(PeerId, f64)> =
            (0..120u64).map(|p| (p, 0.5 + p as f64 * 1e-3)).collect();
        assert_eq!(tx.send_control(&many, 0.0).expect("send"), 2, "120 = 91 + 29 entries");

        let mut buf = [0u8; 2048];
        let got: Vec<Vec<ControlEntry>> = (0..3)
            .map(|_| {
                let len = rx.recv(&mut buf).expect("a control datagram");
                match decode_frame(&buf[..len]) {
                    Some(Frame::Control(entries)) => entries,
                    other => panic!("not a control frame: {other:?}"),
                }
            })
            .collect();
        let lens: Vec<usize> = got.iter().map(Vec::len).collect();
        assert_eq!(lens, [2, 91, 29], "122 entries in 3 datagrams");
        rx.set_nonblocking(true).unwrap();
        assert_eq!(rx.recv(&mut buf).unwrap_err().kind(), io::ErrorKind::WouldBlock, "only 3");
        let first: Vec<(PeerId, f64)> = got[0].iter().map(|e| (e.peer, e.eta)).collect();
        assert_eq!(first, [(4, 0.125), (9, 2.5)]);
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
        // The sender flushes on its own at 32 full frames.
        let flush_at = 8 * RECV_BATCH as u64;

        // Below the flush point, queueing sends nothing.
        for p in 0..flush_at - 1 {
            tx.queue(p, 1, 0.25).expect("queue");
        }
        assert_eq!((tx.datagrams_sent(), tx.pending_entries()), (0, 255));

        // Fail the very first frame: the auto-flush errors, nothing lost.
        trigger.arm(0);
        let queue_err = tx.queue(flush_at - 1, 1, 0.25);
        assert!(queue_err.is_err(), "mid-flush error propagates");
        assert_eq!(tx.datagrams_sent(), 0);
        assert_eq!(tx.entries_sent(), 0);
        assert_eq!(tx.pending_entries(), 256, "doc promise: undelivered entries stay pending");

        // Partial flush: 33 frames queued, the kernel takes the first,
        // the error hits the second — exactly one frame's entries leave.
        trigger.arm(1);
        assert!(tx.queue(flush_at, 1, 0.25).is_err());
        assert_eq!(tx.datagrams_sent(), 1);
        assert_eq!(tx.entries_sent(), 8);
        assert_eq!(tx.pending_entries(), 249);

        // Recovery flush (trigger disarmed): the retained tail goes out,
        // 31 full frames and one of a single entry.
        assert_eq!(tx.flush().expect("flush"), 32);
        assert_eq!(tx.datagrams_sent(), 33);
        assert_eq!(tx.entries_sent(), 257);
        assert_eq!(tx.pending_entries(), 0);

        // Every queued heartbeat went out exactly once: the socket error
        // did not manufacture message loss.
        let (monitor, counts) = ingest_sent(&sent, 257);
        assert_eq!(counts, BatchCounts { datagrams: 33, entries: 257, ..BatchCounts::default() });
        for p in 0..257u64 {
            assert_eq!(monitor.status(p).unwrap().counters.heartbeats, 1, "peer {p}");
        }
    }

    #[test]
    fn a_one_entry_sender_sends_every_heartbeat_as_it_is_queued() {
        let cfg = ClusterSenderConfig { max_batch: 1, ..Default::default() };
        let (mut tx, sent, _sink) = recorded_sender(cfg, None);
        for seq in 1..=40u64 {
            tx.queue(seq % 4, seq, seq as f64 * 0.01).expect("queue");
            assert_eq!(tx.datagrams_sent(), seq, "one datagram per queued heartbeat");
            assert_eq!(tx.pending_entries(), 0);
        }
        assert_eq!(unpoison(sent.lock()).len(), 40);
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
    fn frame_sender_counters_stay_consistent_under_partial_send() {
        let sink = UdpSocket::bind(loop_addr()).expect("bind");
        let trigger = FlakyTrigger::new();
        let tx_trigger = Arc::clone(&trigger);
        let mut tx = FrameSender::connect_wrapped(sink.local_addr().unwrap(), None, move |plane| {
            Box::new(FlakySender::new(plane, tx_trigger))
        })
        .expect("connect");

        let many: Vec<(PeerId, f64)> = (0..120u64).map(|p| (p, 0.5)).collect();
        trigger.arm(1); // 120 recs = 91 + 29: first frame out, second errors
        assert!(tx.send_control(&many, 0.0).is_err());
        assert_eq!(tx.datagrams_sent(), 1, "the accepted chunk is counted");
        assert_eq!(tx.entries_sent(), 91, "both counters agree on what left the socket");

        // Control is advisory and idempotent: the next round resends.
        assert_eq!(tx.send_control(&many, 0.0).expect("send"), 2);
        assert_eq!(tx.datagrams_sent(), 3);
        assert_eq!(tx.entries_sent(), 211);

        // A refused frame is dropped, not retried, and the frame behind
        // it still goes.
        trigger.arm(0);
        assert!(tx.send_control(&many, 0.0).is_err());
        assert_eq!((tx.datagrams_sent(), tx.entries_sent()), (4, 240));
        assert_eq!(tx.flush().expect("nothing left"), 0);
    }

    /// The peer and sequence number of every heartbeat in `sent`, in
    /// order.
    fn beats(sent: &Mutex<Vec<Vec<u8>>>) -> Vec<(PeerId, u64)> {
        let frames = unpoison(sent.lock());
        let entries = frames.iter().flat_map(|f| decode_batch(f).expect("a heartbeat frame"));
        entries.map(|e| (e.peer, e.seq)).collect()
    }

    /// A recorded sender (see [`recorded_sender`]) whose link follows
    /// `plan`, for the peers in `faulty` (all if `None`).
    fn faulty_sender(
        plan: FaultPlan,
        faulty: Option<Vec<PeerId>>,
    ) -> (ClusterSender, Arc<Mutex<Vec<Vec<u8>>>>, UdpSocket) {
        let cfg = ClusterSenderConfig {
            fault_plan: Some(plan),
            faulty_peers: faulty,
            ..Default::default()
        };
        recorded_sender(cfg, None)
    }

    #[test]
    fn a_partition_drops_heartbeats_and_heals_on_schedule() {
        let plan = FaultPlan::new(7)
            .link_fault(10.0, LinkFault::Partition)
            .link_fault(20.0, LinkFault::Nominal);
        let (mut tx, sent, _sink) = faulty_sender(plan, None);
        for (seq, t) in [(1, 5.0), (2, 9.999), (3, 10.0), (4, 19.999), (5, 20.0), (6, 25.0)] {
            tx.queue(0, seq, t).unwrap();
            tx.flush_due(t).unwrap();
        }
        assert_eq!(beats(&sent), [(0, 1), (0, 2), (0, 5), (0, 6)]);
        assert_eq!((tx.entries_sent(), tx.pending_entries(), tx.held_entries()), (4, 0, 0));
    }

    #[test]
    fn a_delay_is_held_until_flush_due_reaches_its_due_time_then_released_in_due_order() {
        // 3 s of extra delay before t = 5 and 1 s after: heartbeats sent
        // at 4 are due at 7, one sent at 5 is due at 6.
        let plan = FaultPlan::new(7)
            .link_fault(0.0, LinkFault::DelaySpike { extra: 3.0, jitter: 0.0 })
            .link_fault(5.0, LinkFault::DelaySpike { extra: 1.0, jitter: 0.0 });
        let (mut tx, sent, _sink) = faulty_sender(plan, None);
        tx.queue(9, 1, 4.0).unwrap();
        tx.queue(1, 1, 4.0).unwrap();
        tx.queue(5, 2, 5.0).unwrap();
        assert_eq!(tx.flush().unwrap(), 0, "flush alone releases nothing");
        assert_eq!(tx.flush_due(5.999).unwrap(), 0, "nothing is due before 6");
        assert_eq!(tx.held_entries(), 3);
        assert_eq!(tx.flush_due(6.0).unwrap(), 1);
        assert_eq!(beats(&sent), [(5, 2)], "the later send is due first");
        assert_eq!(tx.flush_due(6.999).unwrap(), 0);
        assert_eq!(tx.flush_due(7.0).unwrap(), 1);
        // Equal due times leave in the order they were queued.
        assert_eq!(beats(&sent), [(5, 2), (9, 1), (1, 1)]);
        assert_eq!((tx.entries_sent(), tx.held_entries()), (3, 0));
    }

    #[test]
    fn a_lagged_duplicate_arrives_twice() {
        let duplicate = LinkFault::Duplicate { probability: 1.0, lag: 0.5 };
        let plan = FaultPlan::new(7).link_fault(0.0, duplicate);
        let (mut tx, sent, _sink) = faulty_sender(plan, None);
        tx.queue(4, 1, 1.0).unwrap();
        tx.flush_due(1.0).unwrap();
        assert_eq!((beats(&sent), tx.held_entries()), (vec![(4, 1)], 1));
        tx.flush_due(1.5).unwrap();
        assert_eq!(beats(&sent), [(4, 1), (4, 1)]);
        let (monitor, counts) = ingest_sent(&sent, 5);
        assert_eq!(counts.entries, 2);
        let counters = monitor.status(4).unwrap().counters;
        assert_eq!((counters.heartbeats, counters.stale), (2, 1), "the copy is a stale repeat");
    }

    #[test]
    fn faulty_peers_confine_a_fault_to_the_named_peers() {
        let plan = FaultPlan::new(7).link_fault(0.0, LinkFault::Partition);
        let (mut tx, sent, _sink) = faulty_sender(plan, Some(vec![1, 3]));
        for p in 0..5u64 {
            tx.queue(p, 1, 1.0).unwrap();
        }
        tx.flush_due(1.0).unwrap();
        assert_eq!(beats(&sent), [(0, 1), (2, 1), (4, 1)]);
    }

    #[test]
    fn a_frame_is_one_message_of_its_link_stage() {
        // Nominal, then 2 s of delay from t = 10, then cut from t = 20.
        let plan = FaultPlan::new(7)
            .link_fault(10.0, LinkFault::DelaySpike { extra: 2.0, jitter: 0.0 })
            .link_fault(20.0, LinkFault::Partition);
        let sink = UdpSocket::bind(loop_addr()).unwrap();
        let sent = Arc::new(Mutex::new(Vec::new()));
        let recorded = Arc::clone(&sent);
        let link = Some((&plan, 43));
        let mut tx = FrameSender::connect_wrapped(sink.local_addr().unwrap(), link, |plane| {
            Box::new(Recording { inner: plane, sent: recorded })
        })
        .expect("tx");
        let (a, b, c) = (control_frame(1, 0.5), control_frame(2, 0.5), control_frame(3, 0.5));
        assert_eq!(tx.queue(&a, 5.0), (1, 0), "on time");
        assert_eq!(tx.queue(&b, 10.0), (0, 1), "held");
        assert_eq!(tx.queue(&c, 25.0), (0, 0), "dropped");
        assert_eq!(tx.flush_due(11.999).unwrap(), 1);
        assert_eq!(tx.flush_due(12.0).unwrap(), 1);
        assert_eq!(*unpoison(sent.lock()), [a, b]);
        assert_eq!((tx.datagrams_sent(), tx.entries_sent()), (2, 2));
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

    /// The live link delays: a 50 ms spike on one of four peers holds
    /// that peer's heartbeat back on a real socket, and only that one.
    #[test]
    fn a_delay_spike_on_one_peer_delays_only_its_heartbeats_on_the_wire() {
        const SPIKE: f64 = 0.05;
        const SLACK: f64 = 0.03;
        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        for p in 0..4u64 {
            monitor.add_peer(p, PeerConfig::new(1.0, 1.0)).unwrap();
        }
        let events = monitor.subscribe();
        let rx = ClusterReceiver::bind(loop_addr(), monitor.clone()).expect("bind");
        let spike = LinkFault::DelaySpike { extra: SPIKE, jitter: 0.0 };
        let cfg = ClusterSenderConfig {
            fault_plan: Some(FaultPlan::new(5).link_fault(0.0, spike)),
            faulty_peers: Some(vec![2]),
            ..Default::default()
        };
        let mut tx = ClusterSender::connect(rx.local_addr(), cfg).expect("tx");
        let sent_at = monitor.now();
        for p in 0..4u64 {
            tx.queue(p, 1, sent_at).unwrap();
        }
        settle(|| {
            tx.flush_due(monitor.now()).unwrap();
            rx.entries_received() == 4
        });
        // A peer's first heartbeat trusts it, at the heartbeat's receipt
        // time.
        let trusted_at: HashMap<PeerId, f64> = std::iter::from_fn(|| events.try_recv().ok())
            .filter(|e| e.change == MembershipChange::Trusted)
            .map(|e| (e.peer, e.at))
            .collect();
        let late = |p: PeerId| trusted_at[&p] - sent_at;
        assert!(late(2) >= SPIKE, "the delayed peer's heartbeat took {} s", late(2));
        for p in [0, 1, 3] {
            assert!(late(p) <= monitor.tick() + SLACK, "peer {p}'s heartbeat took {} s", late(p));
        }
        rx.shutdown();
        monitor.shutdown();
    }
}
