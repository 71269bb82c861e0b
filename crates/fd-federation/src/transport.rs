//! Real-UDP gossip transport with scripted per-link fault injection.
//!
//! [`GossipTransport`] moves federation gossip off the in-process
//! fabric and onto a genuine nonblocking UDP socket, the same batched
//! datagram path `fd-cluster`'s `ClusterSender` uses: one wire frame
//! per datagram, decoded by the same total [`decode_frame`]. What makes
//! it a *test* transport as much as a production one is the per-link
//! fault hook: each destination can carry a [`FaultPlan`]
//! (fd_sim::fault::FaultPlan) whose [`FaultInjector`] decides, frame by
//! frame, whether a send is delivered, dropped, delayed, or duplicated
//! — deterministically, from a per-link seeded RNG, so a scripted
//! lossy-link scenario replays bit-identically while the frames still
//! cross a real socket.
//!
//! Delayed fates go into a min-heap of held frames; the driver calls
//! [`GossipTransport::flush_due`] as its clock advances, which releases
//! them onto the socket in due order. Receive is pull-based:
//! [`GossipTransport::poll`] drains the socket until `WouldBlock`,
//! decoding each datagram and counting undecodable ones.

use crate::hash::NodeId;
use crate::metrics::FedMetrics;
use fd_cluster::{decode_frame, Frame};
use fd_sim::fault::{FaultInjector, FaultPlan};
use fd_sim::MultiNodePlan;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BinaryHeap};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What happened to one frame handed to [`GossipTransport::send_to`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendFate {
    /// Sent immediately (possibly more than once, if the link's fault
    /// duplicates).
    Sent,
    /// Dropped by the link's scripted fault; never reached the socket.
    Dropped,
    /// Held back by scripted delay; the earliest due time is returned.
    /// [`GossipTransport::flush_due`] releases it.
    Delayed(f64),
    /// No route is registered for the destination.
    NoRoute,
}

/// Per-destination fault script: the plan's stateful injector plus the
/// link's own seeded RNG, so each link's loss/delay realization is
/// independent and reproducible.
struct LinkScript {
    injector: FaultInjector,
    rng: StdRng,
}

/// A frame held back by scripted delay, ordered by due time (then by
/// admission sequence for a stable tie-break). `BinaryHeap` is a
/// max-heap, so the comparison is reversed.
struct HeldFrame {
    due: f64,
    seq: u64,
    to: NodeId,
    bytes: Vec<u8>,
}

impl PartialEq for HeldFrame {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for HeldFrame {}
impl PartialOrd for HeldFrame {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeldFrame {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the earliest due (then lowest seq) is the heap max.
        // Due times are finite non-negative, so total_cmp is total.
        other
            .due
            .total_cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One node's UDP endpoint for federation gossip.
pub struct GossipTransport {
    node: NodeId,
    socket: UdpSocket,
    routes: BTreeMap<NodeId, SocketAddr>,
    links: BTreeMap<NodeId, LinkScript>,
    delayed: BinaryHeap<HeldFrame>,
    seq: u64,
    metrics: Arc<FedMetrics>,
}

impl std::fmt::Debug for GossipTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GossipTransport")
            .field("node", &self.node)
            .field("routes", &self.routes.len())
            .field("delayed", &self.delayed.len())
            .finish()
    }
}

impl GossipTransport {
    /// Binds a nonblocking UDP socket on a loopback ephemeral port.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configure failures.
    pub fn bind(node: NodeId, metrics: Arc<FedMetrics>) -> io::Result<Self> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.set_nonblocking(true)?;
        Ok(Self {
            node,
            socket,
            routes: BTreeMap::new(),
            links: BTreeMap::new(),
            delayed: BinaryHeap::new(),
            seq: 0,
            metrics,
        })
    }

    /// Wires `endpoints` into a full mesh: each learns every other's
    /// address and, for every directed link `plan` scripts, that link's
    /// fault plan under the plan's own per-link seed.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn mesh<'a>(
        endpoints: impl IntoIterator<Item = &'a mut GossipTransport>,
        plan: &MultiNodePlan,
    ) -> io::Result<()> {
        let endpoints: Vec<&mut GossipTransport> = endpoints.into_iter().collect();
        let addrs: Vec<(NodeId, SocketAddr)> =
            endpoints.iter().map(|t| Ok((t.node, t.local_addr()?))).collect::<io::Result<_>>()?;
        for t in endpoints {
            let from = t.node;
            for &(to, addr) in addrs.iter().filter(|(to, _)| *to != from) {
                t.add_route(to, addr);
                if let Some(link) = plan.link_plan_from_to(from, to) {
                    t.set_link_plan(to, link, plan.link_seed(from, to));
                }
            }
        }
        Ok(())
    }

    /// The node this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The socket's bound address (hand it to the other endpoints'
    /// [`add_route`](Self::add_route)).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Registers (or replaces) the address of destination `to`.
    pub fn add_route(&mut self, to: NodeId, addr: SocketAddr) {
        self.routes.insert(to, addr);
    }

    /// Installs the scripted fault for the directed link `self → to`.
    /// `seed` fixes the link's random realization — derive it from
    /// [`MultiNodePlan::link_seed`](fd_sim::multi::MultiNodePlan::link_seed)
    /// so the two directions of a link get independent streams.
    pub fn set_link_plan(&mut self, to: NodeId, plan: &FaultPlan, seed: u64) {
        self.links
            .insert(to, LinkScript { injector: plan.injector(), rng: StdRng::seed_from_u64(seed) });
    }

    /// Number of frames currently held back by scripted delay.
    pub fn pending_delayed(&self) -> usize {
        self.delayed.len()
    }

    /// Sends one encoded wire frame toward `to`, subject to the link's
    /// scripted fault at harness-clock `now`. A faultless link (no plan
    /// installed) always sends immediately. The injector may deliver
    /// the frame zero, one, or two times (drop/deliver/duplicate), each
    /// with its own delay; zero-delay fates hit the socket now, the
    /// rest join the delay heap until [`flush_due`](Self::flush_due).
    ///
    /// Socket-level send errors are swallowed (UDP is lossy by
    /// contract; the federation's anti-entropy machinery is the
    /// recovery path) but the frame still counts as sent.
    pub fn send_to(&mut self, to: NodeId, bytes: &[u8], now: f64) -> SendFate {
        let Some(&addr) = self.routes.get(&to) else { return SendFate::NoRoute };
        let mut fates: Vec<f64> = Vec::with_capacity(2);
        match self.links.get_mut(&to) {
            None => fates.push(0.0),
            Some(script) => {
                script.injector.apply(now, Some(0.0), &mut script.rng, &mut fates);
            }
        }
        if fates.is_empty() {
            self.metrics.udp_frames_dropped.fetch_add(1, Ordering::Relaxed);
            return SendFate::Dropped;
        }
        let mut earliest_due: Option<f64> = None;
        for delay in fates {
            if delay <= 0.0 {
                let _ = self.socket.send_to(bytes, addr);
                self.metrics.udp_frames_sent.fetch_add(1, Ordering::Relaxed);
            } else {
                let due = now + delay;
                earliest_due = Some(earliest_due.map_or(due, |d: f64| d.min(due)));
                self.delayed.push(HeldFrame { due, seq: self.seq, to, bytes: bytes.to_vec() });
                self.seq += 1;
                self.metrics.udp_frames_delayed.fetch_add(1, Ordering::Relaxed);
            }
        }
        match earliest_due {
            Some(due) => SendFate::Delayed(due),
            None => SendFate::Sent,
        }
    }

    /// Releases every held frame whose due time has arrived onto the
    /// socket, in due order. Returns how many were sent.
    pub fn flush_due(&mut self, now: f64) -> usize {
        let mut sent = 0;
        while let Some(top) = self.delayed.peek() {
            if top.due > now {
                break;
            }
            let frame = self.delayed.pop().expect("peeked");
            if let Some(&addr) = self.routes.get(&frame.to) {
                let _ = self.socket.send_to(&frame.bytes, addr);
                self.metrics.udp_frames_sent.fetch_add(1, Ordering::Relaxed);
                sent += 1;
            }
        }
        sent
    }

    /// Drains the socket: every queued datagram is decoded through the
    /// total wire decoder; undecodable ones are counted and skipped.
    /// Returns the decoded frames in arrival order.
    pub fn poll(&mut self) -> Vec<Frame> {
        let mut out = Vec::new();
        let mut buf = [0u8; 2048];
        loop {
            match self.socket.recv_from(&mut buf) {
                Ok((n, _)) => match decode_frame(&buf[..n]) {
                    Some(frame) => out.push(frame),
                    None => {
                        self.metrics.udp_decode_rejects.fetch_add(1, Ordering::Relaxed);
                    }
                },
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_cluster::{
        encode_digest, encode_repair, DigestFrame, DigestSummary, RepairRequest,
    };
    use fd_sim::fault::LinkFault;

    fn digest_bytes(origin: u64, round: u64) -> Vec<u8> {
        encode_digest(&DigestFrame {
            origin,
            node_incarnation: 1,
            round,
            at: round as f64,
            summary: DigestSummary::default(),
            full: false,
            entries: Vec::new(),
        })
    }

    fn pair() -> (GossipTransport, GossipTransport) {
        let m = Arc::new(FedMetrics::new());
        let mut a = GossipTransport::bind(1, Arc::clone(&m)).expect("bind a");
        let mut b = GossipTransport::bind(2, m).expect("bind b");
        a.add_route(2, b.local_addr().expect("addr"));
        b.add_route(1, a.local_addr().expect("addr"));
        (a, b)
    }

    /// Polls until `want` frames arrived or ~1 s elapsed — loopback UDP
    /// is effectively reliable but not synchronous.
    fn poll_until(t: &mut GossipTransport, want: usize) -> Vec<Frame> {
        let mut got = Vec::new();
        for _ in 0..200 {
            got.extend(t.poll());
            if got.len() >= want {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        got
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let (mut a, mut b) = pair();
        assert_eq!(a.send_to(2, &digest_bytes(1, 1), 0.0), SendFate::Sent);
        assert_eq!(a.send_to(2, &encode_repair(&RepairRequest {
            requester: 1,
            target: 2,
            target_incarnation: 1,
            have_round: 4,
            at: 0.5,
        }), 0.5), SendFate::Sent);
        let frames = poll_until(&mut b, 2);
        assert_eq!(frames.len(), 2);
        assert!(matches!(frames[0], Frame::Digest(ref d) if d.origin == 1));
        assert!(matches!(frames[1], Frame::Repair(ref r) if r.have_round == 4));
        assert_eq!(a.send_to(99, &digest_bytes(1, 2), 1.0), SendFate::NoRoute);
    }

    #[test]
    fn partition_drops_and_heals_on_script() {
        let (mut a, mut b) = pair();
        let plan = FaultPlan::new(7)
            .link_fault(10.0, LinkFault::Partition)
            .link_fault(20.0, LinkFault::Nominal);
        a.set_link_plan(2, &plan, 42);
        assert_eq!(a.send_to(2, &digest_bytes(1, 1), 5.0), SendFate::Sent);
        assert_eq!(a.send_to(2, &digest_bytes(1, 2), 15.0), SendFate::Dropped);
        assert_eq!(a.send_to(2, &digest_bytes(1, 3), 25.0), SendFate::Sent);
        let frames = poll_until(&mut b, 2);
        let rounds: Vec<u64> = frames
            .iter()
            .map(|f| match f {
                Frame::Digest(d) => d.round,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(rounds, vec![1, 3], "the partitioned round must be missing");
    }

    #[test]
    fn delay_spike_holds_frames_until_flush() {
        let (mut a, mut b) = pair();
        let plan = FaultPlan::new(7)
            .link_fault(0.0, LinkFault::DelaySpike { extra: 2.0, jitter: 0.0 });
        a.set_link_plan(2, &plan, 43);
        match a.send_to(2, &digest_bytes(1, 1), 10.0) {
            SendFate::Delayed(due) => assert!((due - 12.0).abs() < 1e-9, "due {due}"),
            other => panic!("expected Delayed, got {other:?}"),
        }
        assert_eq!(a.pending_delayed(), 1);
        assert!(b.poll().is_empty(), "held frame must not be on the wire yet");
        assert_eq!(a.flush_due(11.0), 0, "not due yet");
        assert_eq!(a.flush_due(12.5), 1);
        assert_eq!(a.pending_delayed(), 0);
        let frames = poll_until(&mut b, 1);
        assert!(matches!(frames[0], Frame::Digest(ref d) if d.round == 1));
    }

    #[test]
    fn duplicate_fault_sends_twice_and_garbage_is_counted() {
        let m = Arc::new(FedMetrics::new());
        let mut a = GossipTransport::bind(1, Arc::clone(&m)).expect("bind a");
        let mut b = GossipTransport::bind(2, Arc::clone(&m)).expect("bind b");
        a.add_route(2, b.local_addr().expect("addr"));
        let plan =
            FaultPlan::new(7).link_fault(0.0, LinkFault::Duplicate { probability: 1.0, lag: 0.0 });
        a.set_link_plan(2, &plan, 44);
        assert_eq!(a.send_to(2, &digest_bytes(1, 1), 0.0), SendFate::Sent);
        let frames = poll_until(&mut b, 2);
        assert_eq!(frames.len(), 2, "duplicate fault must deliver twice");
        // Garbage on the wire: counted, not returned, never a panic.
        let raw = UdpSocket::bind("127.0.0.1:0").expect("raw");
        raw.send_to(b"definitely not a frame", b.local_addr().expect("addr")).expect("send");
        for _ in 0..200 {
            if m.udp_decode_rejects.load(Ordering::Relaxed) > 0 {
                break;
            }
            let _ = b.poll();
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(m.udp_decode_rejects.load(Ordering::Relaxed), 1);
        assert!(m.udp_frames_sent.load(Ordering::Relaxed) >= 2);
    }
}
