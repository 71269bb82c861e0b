//! Real UDP transport for heartbeats.
//!
//! The in-process [`LossyChannel`](crate::transport::LossyChannel)
//! *simulates* the network; this module runs heartbeats over an actual
//! `UdpSocket`, the deployment shape the paper's algorithms target
//! (one-way datagrams, possible loss and reordering, no delivery
//! guarantees). On loopback the kernel rarely drops or delays, so
//! [`UdpSenderConfig`] can additionally inject loss and delay at the
//! sender — either the simple per-datagram knobs or a full scripted
//! [`FaultPlan`] — keeping the wire-protocol and socket code paths honest
//! while still exercising the probabilistic model.
//!
//! Every heartbeat is a one-entry v4 heartbeat frame of `fd-cluster`'s
//! [`wire`] format (peer 0, incarnation 0; `send_time` is seconds on the
//! sender's clock — exactly the paper's timestamp `S` of §5.2), so this
//! sender can feed a `ClusterReceiver` and a `ClusterSender` can feed
//! this receiver: there is one heartbeat wire in the workspace. The
//! receive pump delivers every entry of a well-formed heartbeat frame
//! and drops anything else (a mistargeted packet, a frame of another
//! kind or version) instead of misreading its bytes as a heartbeat.

use crate::transport::{Receiver, DEFAULT_CHANNEL_CAPACITY};
use crate::RuntimeError;
use crossbeam::channel;
use fd_cluster::{wire, HeartbeatEntry, FRAME_LEN};
use fd_core::Heartbeat;
use fd_sim::{FaultInjector, FaultPlan};
use fd_stats::DelayDistribution;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn net_err(op: &'static str) -> impl Fn(io::Error) -> RuntimeError {
    move |source| RuntimeError::Net { op, source }
}

/// Optional sender-side fault injection (loopback is too well-behaved to
/// exercise the loss/delay paths otherwise).
pub struct UdpSenderConfig {
    /// Drop each datagram with this probability before it reaches the
    /// socket.
    pub loss_probability: f64,
    /// Extra artificial delay per datagram (sampled, blocking the send
    /// thread), if any.
    pub extra_delay: Option<Box<dyn DelayDistribution>>,
    /// Scripted fault timeline applied on top of the simple knobs (time 0
    /// is the moment of [`UdpHeartbeatSender::connect`]).
    pub fault_plan: Option<FaultPlan>,
    /// RNG seed for the injection.
    pub seed: u64,
}

impl Default for UdpSenderConfig {
    fn default() -> Self {
        Self {
            loss_probability: 0.0,
            extra_delay: None,
            fault_plan: None,
            seed: 0,
        }
    }
}

impl std::fmt::Debug for UdpSenderConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpSenderConfig")
            .field("loss_probability", &self.loss_probability)
            .field("has_extra_delay", &self.extra_delay.is_some())
            .field("has_fault_plan", &self.fault_plan.is_some())
            .finish()
    }
}

/// Sends heartbeats as UDP datagrams.
pub struct UdpHeartbeatSender {
    socket: UdpSocket,
    /// The encoded frame, reused across sends.
    frame: Vec<u8>,
    cfg: UdpSenderConfig,
    injector: Option<FaultInjector>,
    rng: StdRng,
    start: Instant,
}

impl std::fmt::Debug for UdpHeartbeatSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpHeartbeatSender").field("cfg", &self.cfg).finish()
    }
}

impl UdpHeartbeatSender {
    /// Binds an ephemeral local socket and connects it to `peer`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Net`] on socket errors.
    pub fn connect(peer: SocketAddr, cfg: UdpSenderConfig) -> Result<Self, RuntimeError> {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).map_err(net_err("bind"))?;
        socket.connect(peer).map_err(net_err("connect"))?;
        let mut seed = cfg.seed;
        let injector = cfg.fault_plan.as_ref().map(|p| {
            seed ^= p.seed();
            p.injector()
        });
        Ok(Self {
            socket,
            frame: Vec::new(),
            cfg,
            injector,
            rng: StdRng::seed_from_u64(seed),
            start: Instant::now(),
        })
    }

    /// Sends one heartbeat (subject to the configured fault injection).
    /// Returns whether at least one copy was handed to the socket; a
    /// duplicating fault may hand over several.
    ///
    /// Injected delays block the calling thread, so this mirrors the wire
    /// behaviour (later heartbeats cannot overtake).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send(&mut self, hb: Heartbeat) -> io::Result<bool> {
        let base = if self.cfg.loss_probability > 0.0
            && self.rng.random::<f64>() < self.cfg.loss_probability
        {
            None
        } else {
            Some(match &self.cfg.extra_delay {
                Some(d) => d.sample(&mut self.rng).max(0.0),
                None => 0.0,
            })
        };
        let mut deliveries: Vec<f64> = Vec::with_capacity(2);
        match &mut self.injector {
            None => deliveries.extend(base),
            Some(inj) => {
                let now = self.start.elapsed().as_secs_f64();
                inj.apply(now, base, &mut self.rng, &mut deliveries);
            }
        }
        if deliveries.is_empty() {
            return Ok(false);
        }
        deliveries.sort_by(f64::total_cmp);
        let entry =
            HeartbeatEntry { peer: 0, incarnation: 0, seq: hb.seq, send_time: hb.send_time };
        wire::encode_batch_into(&[entry], &mut self.frame);
        for d in deliveries {
            if d > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(d.min(1.0)));
            }
            self.socket.send(&self.frame)?;
        }
        Ok(true)
    }
}

/// Receiving side: binds a UDP socket and pumps decoded heartbeats into
/// a bounded channel a [`Monitor`](crate::Monitor) can consume.
///
/// The channel is bounded (a stalled monitor must not balloon memory);
/// when it is full the pump drops the datagram and counts it in
/// [`UdpHeartbeatReceiver::overflow_drops`] — to a failure detector a
/// dropped heartbeat is just more message loss, which the algorithms
/// already tolerate.
pub struct UdpHeartbeatReceiver {
    addr: SocketAddr,
    rx: Receiver,
    shutdown: UdpSocket,
    overflow: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for UdpHeartbeatReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpHeartbeatReceiver").field("addr", &self.addr).finish()
    }
}

/// Sentinel datagram that tells the pump thread to exit. Only honored
/// when it arrives from this receiver's own shutdown socket — any other
/// sender carrying the same bytes is treated as noise, so a remote peer
/// cannot spoof a shutdown.
const SHUTDOWN_SENTINEL: [u8; 4] = *b"BYE!";

impl UdpHeartbeatReceiver {
    /// Binds `127.0.0.1:0` and starts the receive pump with the default
    /// channel capacity.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Net`] on socket errors and
    /// [`RuntimeError::Spawn`] if the pump thread cannot start.
    pub fn bind() -> Result<Self, RuntimeError> {
        Self::bind_with_capacity(DEFAULT_CHANNEL_CAPACITY)
    }

    /// Binds an explicit address (e.g. a non-loopback interface, or a
    /// fixed port) and starts the receive pump with the default channel
    /// capacity.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Net`] on socket errors and
    /// [`RuntimeError::Spawn`] if the pump thread cannot start.
    pub fn bind_to(addr: SocketAddr) -> Result<Self, RuntimeError> {
        Self::bind_to_with_capacity(addr, DEFAULT_CHANNEL_CAPACITY)
    }

    /// Like [`UdpHeartbeatReceiver::bind`], with an explicit heartbeat
    /// channel capacity (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Net`] on socket errors and
    /// [`RuntimeError::Spawn`] if the pump thread cannot start.
    pub fn bind_with_capacity(capacity: usize) -> Result<Self, RuntimeError> {
        Self::bind_to_with_capacity(
            SocketAddr::from((std::net::Ipv4Addr::LOCALHOST, 0)),
            capacity,
        )
    }

    /// Binds an explicit address with an explicit heartbeat channel
    /// capacity (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Net`] on socket errors and
    /// [`RuntimeError::Spawn`] if the pump thread cannot start.
    pub fn bind_to_with_capacity(
        addr: SocketAddr,
        capacity: usize,
    ) -> Result<Self, RuntimeError> {
        let socket = UdpSocket::bind(addr).map_err(net_err("bind"))?;
        let addr = socket.local_addr().map_err(net_err("local_addr"))?;
        // The shutdown socket must exist *before* the pump starts, so the
        // pump can verify the sentinel's source address. It binds to the
        // loopback of the same family: that is where the sentinel is sent
        // from (and, for an unspecified bind address, to).
        let shutdown = UdpSocket::bind((loopback_ip(&addr), 0)).map_err(net_err("bind"))?;
        let shutdown_addr = shutdown.local_addr().map_err(net_err("local_addr"))?;
        let (tx, rx) = channel::bounded(capacity.max(1));
        let overflow = Arc::new(AtomicU64::new(0));
        let pump_overflow = Arc::clone(&overflow);
        let handle = std::thread::Builder::new()
            .name("fd-udp-recv".into())
            .spawn(move || pump(socket, tx, shutdown_addr, pump_overflow))
            .map_err(|e| RuntimeError::Spawn { thread: "fd-udp-recv", source: e })?;
        Ok(Self {
            addr,
            rx,
            shutdown,
            overflow,
            handle: Some(handle),
        })
    }

    /// The bound address heartbeaters should send to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The heartbeat channel (feed it to a
    /// [`Monitor`](crate::Monitor)).
    pub fn receiver(&self) -> Receiver {
        self.rx.clone()
    }

    /// Heartbeats dropped because the channel was full (a stalled
    /// consumer), since bind.
    pub fn overflow_drops(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Stops the pump thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(h) = self.handle.take() {
            // An unspecified bind address (0.0.0.0 / ::) is not a valid
            // destination; the loopback of the same family reaches the
            // same socket.
            let mut target = self.addr;
            if target.ip().is_unspecified() {
                target.set_ip(loopback_ip(&target));
            }
            let _ = self.shutdown.send_to(&SHUTDOWN_SENTINEL, target);
            let _ = h.join();
        }
    }
}

/// The loopback address of `addr`'s family.
fn loopback_ip(addr: &SocketAddr) -> std::net::IpAddr {
    match addr {
        SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
        SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
    }
}

impl Drop for UdpHeartbeatReceiver {
    fn drop(&mut self) {
        self.stop();
    }
}

fn pump(
    socket: UdpSocket,
    tx: channel::Sender<Heartbeat>,
    shutdown_addr: SocketAddr,
    overflow: Arc<AtomicU64>,
) {
    let mut buf = [0u8; FRAME_LEN];
    let mut entries = Vec::with_capacity(wire::MAX_BATCH);
    loop {
        match socket.recv_from(&mut buf) {
            Ok((n, src)) => {
                if buf[..n] == SHUTDOWN_SENTINEL {
                    if src == shutdown_addr {
                        return;
                    }
                    continue; // spoofed sentinel from a foreign peer
                }
                entries.clear();
                if wire::decode_batch_into(&buf[..n], &mut entries).is_none() {
                    continue; // foreign or malformed traffic
                }
                for e in &entries {
                    match tx.try_send(Heartbeat::new(e.seq, e.send_time)) {
                        Ok(()) => {}
                        Err(channel::TrySendError::Full(_)) => {
                            overflow.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(channel::TrySendError::Disconnected(_)) => {
                            return; // all receivers gone
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_sim::LinkFault;
    use fd_stats::dist::Constant;

    #[test]
    fn heartbeats_flow_over_loopback() {
        let receiver = UdpHeartbeatReceiver::bind().expect("bind");
        let mut sender =
            UdpHeartbeatSender::connect(receiver.local_addr(), UdpSenderConfig::default())
                .expect("connect");
        for seq in 1..=5u64 {
            assert!(sender.send(Heartbeat::new(seq, seq as f64)).unwrap());
        }
        let rx = receiver.receiver();
        let mut got = Vec::new();
        for _ in 0..5 {
            got.push(rx.recv_timeout(Duration::from_secs(2)).expect("deliver").seq);
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
        receiver.shutdown();
    }

    #[test]
    fn bind_to_explicit_addr_flows_and_shuts_down() {
        let receiver =
            UdpHeartbeatReceiver::bind_to("127.0.0.1:0".parse().unwrap()).expect("bind");
        let mut sender =
            UdpHeartbeatSender::connect(receiver.local_addr(), UdpSenderConfig::default())
                .expect("connect");
        sender.send(Heartbeat::new(1, 0.5)).unwrap();
        let hb = receiver
            .receiver()
            .recv_timeout(Duration::from_secs(2))
            .expect("deliver");
        assert_eq!(hb.seq, 1);
        receiver.shutdown();
    }

    #[test]
    fn bind_to_unspecified_addr_still_shuts_down() {
        // 0.0.0.0 is bindable but not a valid sentinel destination; the
        // shutdown path must reroute via loopback instead of hanging.
        let receiver =
            UdpHeartbeatReceiver::bind_to("0.0.0.0:0".parse().unwrap()).expect("bind");
        let port = receiver.local_addr().port();
        let target: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
        let mut sender =
            UdpHeartbeatSender::connect(target, UdpSenderConfig::default()).expect("connect");
        sender.send(Heartbeat::new(2, 0.0)).unwrap();
        let hb = receiver
            .receiver()
            .recv_timeout(Duration::from_secs(2))
            .expect("deliver");
        assert_eq!(hb.seq, 2);
        receiver.shutdown(); // must return promptly, not block on a dead pump
    }

    #[test]
    fn sender_side_loss_injection() {
        let receiver = UdpHeartbeatReceiver::bind().expect("bind");
        let mut sender = UdpHeartbeatSender::connect(
            receiver.local_addr(),
            UdpSenderConfig {
                loss_probability: 1.0,
                seed: 1,
                ..Default::default()
            },
        )
        .expect("connect");
        for seq in 1..=10u64 {
            assert!(!sender.send(Heartbeat::new(seq, 0.0)).unwrap());
        }
        assert!(receiver
            .receiver()
            .recv_timeout(Duration::from_millis(100))
            .is_err());
    }

    #[test]
    fn sender_delay_injection_delays_datagrams() {
        let receiver = UdpHeartbeatReceiver::bind().expect("bind");
        let mut sender = UdpHeartbeatSender::connect(
            receiver.local_addr(),
            UdpSenderConfig {
                extra_delay: Some(Box::new(Constant::new(0.03).unwrap())),
                seed: 2,
                ..Default::default()
            },
        )
        .expect("connect");
        let t0 = std::time::Instant::now();
        sender.send(Heartbeat::new(1, 0.0)).unwrap();
        let hb = receiver
            .receiver()
            .recv_timeout(Duration::from_secs(2))
            .expect("deliver");
        assert_eq!(hb.seq, 1);
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn foreign_shutdown_sentinel_is_ignored() {
        let receiver = UdpHeartbeatReceiver::bind().expect("bind");
        // A (malicious or confused) peer sends the sentinel bytes from its
        // own socket: the pump must survive and keep delivering.
        let foreign = UdpSocket::bind(("127.0.0.1", 0)).expect("bind foreign");
        foreign
            .send_to(b"BYE!", receiver.local_addr())
            .expect("send sentinel");
        let mut sender =
            UdpHeartbeatSender::connect(receiver.local_addr(), UdpSenderConfig::default())
                .expect("connect");
        sender.send(Heartbeat::new(7, 1.0)).unwrap();
        let hb = receiver
            .receiver()
            .recv_timeout(Duration::from_secs(2))
            .expect("pump must still be alive after spoofed sentinel");
        assert_eq!(hb.seq, 7);
        receiver.shutdown(); // the genuine shutdown still works
    }

    #[test]
    fn bounded_pump_counts_overflow_drops() {
        let receiver = UdpHeartbeatReceiver::bind_with_capacity(2).expect("bind");
        let mut sender =
            UdpHeartbeatSender::connect(receiver.local_addr(), UdpSenderConfig::default())
                .expect("connect");
        // Nobody drains the channel: after 2 buffered heartbeats the rest
        // must be dropped and counted.
        for seq in 1..=30u64 {
            sender.send(Heartbeat::new(seq, 0.0)).unwrap();
        }
        // Loopback delivery is asynchronous; poll until counted.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while receiver.overflow_drops() < 20 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // UDP may legitimately drop some datagrams, but with 30 sends and
        // capacity 2 a healthy majority must overflow.
        assert!(
            receiver.overflow_drops() >= 20,
            "only {} overflow drops",
            receiver.overflow_drops()
        );
        assert_eq!(receiver.receiver().len(), 2);
        receiver.shutdown();
    }

    #[test]
    fn fault_plan_partition_drops_all_datagrams() {
        let receiver = UdpHeartbeatReceiver::bind().expect("bind");
        let plan = FaultPlan::new(11).link_fault(0.0, LinkFault::Partition);
        let mut sender = UdpHeartbeatSender::connect(
            receiver.local_addr(),
            UdpSenderConfig {
                fault_plan: Some(plan),
                ..Default::default()
            },
        )
        .expect("connect");
        for seq in 1..=10u64 {
            assert!(!sender.send(Heartbeat::new(seq, 0.0)).unwrap());
        }
        assert!(receiver
            .receiver()
            .recv_timeout(Duration::from_millis(100))
            .is_err());
        receiver.shutdown();
    }

    #[test]
    fn fault_plan_duplication_sends_extra_copies() {
        let receiver = UdpHeartbeatReceiver::bind().expect("bind");
        let plan = FaultPlan::new(12).link_fault(
            0.0,
            LinkFault::Duplicate {
                probability: 1.0,
                lag: 0.0,
            },
        );
        let mut sender = UdpHeartbeatSender::connect(
            receiver.local_addr(),
            UdpSenderConfig {
                fault_plan: Some(plan),
                ..Default::default()
            },
        )
        .expect("connect");
        for seq in 1..=5u64 {
            assert!(sender.send(Heartbeat::new(seq, 0.0)).unwrap());
        }
        let rx = receiver.receiver();
        let mut got = Vec::new();
        while let Ok(hb) = rx.recv_timeout(Duration::from_millis(200)) {
            got.push(hb.seq);
        }
        // Loopback UDP is reliable in practice: expect ~2 copies of each.
        assert!(got.len() >= 8, "expected duplicated stream, got {got:?}");
        receiver.shutdown();
    }

    #[test]
    fn end_to_end_with_monitor() {
        use crate::{Clock as _, WallClock};
        use crate::monitor::Monitor;
        use fd_core::detectors::NfdE;

        let receiver = UdpHeartbeatReceiver::bind().expect("bind");
        let mut sender =
            UdpHeartbeatSender::connect(receiver.local_addr(), UdpSenderConfig::default())
                .expect("connect");
        let clock = WallClock::new();
        let monitor = Monitor::spawn(
            Box::new(NfdE::new(0.01, 0.05, 8).expect("valid")),
            receiver.receiver(),
            clock.clone(),
        )
        .expect("spawn monitor");
        // Drive heartbeats from this thread at η = 10 ms.
        for seq in 1..=25u64 {
            sender.send(Heartbeat::new(seq, clock.now())).unwrap();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(monitor.output().is_trust(), "UDP heartbeats should sustain trust");
        // Stop sending: crash-equivalent; suspicion follows.
        std::thread::sleep(Duration::from_millis(150));
        assert!(monitor.output().is_suspect());
        let trace = monitor.stop();
        assert!(trace.transitions().len() >= 2);
        receiver.shutdown();
    }

    // --- one wire, both directions ---

    #[test]
    fn cluster_sender_feeds_a_pair_monitor() {
        use crate::monitor::Monitor;
        use crate::{Clock as _, WallClock};
        use fd_cluster::{ClusterSender, ClusterSenderConfig};
        use fd_core::detectors::NfdE;

        let receiver = UdpHeartbeatReceiver::bind().expect("bind");
        let mut tx = ClusterSender::connect(receiver.local_addr(), ClusterSenderConfig::default())
            .expect("connect");
        // A multi-entry frame delivers all its entries.
        for seq in 1..=3u64 {
            tx.queue(seq + 40, seq, 0.25).unwrap();
        }
        assert_eq!(tx.flush().unwrap(), 1, "three entries, one datagram");
        let rx = receiver.receiver();
        let got: Vec<u64> = (0..3)
            .map(|_| rx.recv_timeout(Duration::from_secs(2)).expect("deliver").seq)
            .collect();
        assert_eq!(got, vec![1, 2, 3]);

        let clock = WallClock::new();
        let monitor = Monitor::spawn(
            Box::new(NfdE::new(0.01, 0.05, 8).expect("valid")),
            rx,
            clock.clone(),
        )
        .expect("spawn monitor");
        let start = Instant::now();
        for seq in 4..=28u32 {
            tx.queue(7, seq.into(), clock.now()).unwrap();
            tx.flush().unwrap();
            // Absolute send times: the period must not drift past η.
            let next = start + (seq - 3) * Duration::from_millis(10);
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
        }
        assert!(monitor.output().is_trust(), "cluster frames should sustain trust");
        monitor.stop();
        receiver.shutdown();
    }

    #[test]
    fn pair_sender_feeds_a_cluster_receiver() {
        use fd_cluster::{ClusterConfig, ClusterMonitor, ClusterReceiver, PeerConfig};

        let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        monitor.add_peer(0, PeerConfig::new(0.02, 0.06)).unwrap();
        let rx = ClusterReceiver::bind("127.0.0.1:0".parse().unwrap(), monitor.clone())
            .expect("bind");
        let mut sender =
            UdpHeartbeatSender::connect(rx.local_addr(), UdpSenderConfig::default())
                .expect("connect");
        for seq in 1..=5u64 {
            assert!(sender.send(Heartbeat::new(seq, monitor.now())).unwrap());
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while rx.entries_received() < 5 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(rx.entries_received(), 5);
        assert_eq!(rx.rejected(), 0);
        let status = monitor.status(0).expect("peer 0 registered");
        assert_eq!(status.counters.heartbeats, 5);
        assert!(status.output.is_trust());
        rx.shutdown();
        monitor.shutdown();
    }
}
