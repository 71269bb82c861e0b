//! Federation gossip over real UDP: routing only.
//!
//! A [`GossipEndpoint`] is one node's place on `fd-cluster`'s datagram
//! plane: a nonblocking receive socket ([`bind_polled`]) and, per other
//! node, one [`FrameSender`], whose link-fault stage drops, duplicates
//! and delays gossip where heartbeats meet theirs.
//! [`mesh`](GossipEndpoint::mesh) installs each directed link's
//! [`MultiNodePlan`] script under the plan's own per-link seed, so a
//! scripted run draws the same fates frame by frame while the frames
//! cross a real socket. [`step`](GossipEndpoint::step) is one
//! harness-clock step of the gossip round over these endpoints.

use crate::hash::NodeId;
use crate::metrics::FedMetrics;
use crate::node::FederationNode;
use fd_cluster::{
    bind_polled, decode_frame, BatchReceiver, Frame, FrameArena, FrameSender, RuntimeError,
};
use fd_sim::MultiNodePlan;
use std::collections::BTreeMap;
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Datagrams one receive call drains at most.
const RECV_BATCH: usize = 32;

/// The pause between a step's delivery passes: loopback UDP is reliable
/// but not synchronous.
const PASS: Duration = Duration::from_millis(4);

/// One node's UDP endpoint for federation gossip.
pub struct GossipEndpoint {
    node: NodeId,
    addr: SocketAddr,
    plane: Box<dyn BatchReceiver>,
    arena: FrameArena,
    routes: BTreeMap<NodeId, FrameSender>,
    metrics: Arc<FedMetrics>,
}

impl std::fmt::Debug for GossipEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GossipEndpoint")
            .field("node", &self.node)
            .field("addr", &self.addr)
            .field("routes", &self.routes.len())
            .finish()
    }
}

impl GossipEndpoint {
    /// Binds a nonblocking receive socket on a loopback ephemeral port.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configure failures.
    pub fn bind(node: NodeId, metrics: Arc<FedMetrics>) -> Result<Self, RuntimeError> {
        let (plane, addr) = bind_polled((Ipv4Addr::LOCALHOST, 0).into(), RECV_BATCH)?;
        let arena = FrameArena::new(RECV_BATCH);
        Ok(Self { node, addr, plane, arena, routes: BTreeMap::new(), metrics })
    }

    /// Wires `endpoints` into a full mesh: each connects a sender to
    /// every other, carrying the fault plan `plan` scripts for that
    /// directed link under the plan's own per-link seed.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn mesh<'a>(
        endpoints: impl IntoIterator<Item = &'a mut GossipEndpoint>,
        plan: &MultiNodePlan,
    ) -> Result<(), RuntimeError> {
        let endpoints: Vec<&mut GossipEndpoint> = endpoints.into_iter().collect();
        let addrs: Vec<(NodeId, SocketAddr)> = endpoints.iter().map(|e| (e.node, e.addr)).collect();
        for e in endpoints {
            let from = e.node;
            for &(to, addr) in addrs.iter().filter(|(to, _)| *to != from) {
                let link = plan.link_plan_from_to(from, to).map(|p| (p, plan.link_seed(from, to)));
                e.routes.insert(to, FrameSender::connect(addr, link)?);
            }
        }
        Ok(())
    }

    /// The address the other endpoints send to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Queues one encoded wire frame toward `to`, through the link's
    /// fault stage at harness-clock `now`: it may go out with the next
    /// [`flush_due`](Self::flush_due) zero, one or two times, or be held
    /// for a later one. A destination with no route is ignored.
    pub fn send_to(&mut self, to: NodeId, bytes: &[u8], now: f64) {
        let Some(sender) = self.routes.get_mut(&to) else { return };
        let (out, held) = sender.queue(bytes, now);
        if out + held == 0 {
            self.metrics.udp_frames_dropped.fetch_add(1, Ordering::Relaxed);
        }
        self.metrics.udp_frames_delayed.fetch_add(held as u64, Ordering::Relaxed);
    }

    /// Sends every queued frame and every held frame due by `now`.
    /// Returns the datagrams the kernel accepted — all that
    /// `udp_frames_sent` counts. A refused frame is dropped: gossip is
    /// advisory, and the federation's anti-entropy repairs what it
    /// carried.
    pub fn flush_due(&mut self, now: f64) -> u64 {
        let mut sent = 0;
        for sender in self.routes.values_mut() {
            let before = sender.datagrams_sent();
            let _ = sender.flush_due(now);
            sent += sender.datagrams_sent() - before;
        }
        self.metrics.udp_frames_sent.fetch_add(sent, Ordering::Relaxed);
        sent
    }

    /// Drains the socket: every queued datagram is decoded through the
    /// total wire decoder; undecodable ones are counted and skipped.
    /// Returns the decoded frames in arrival order.
    pub fn poll(&mut self) -> Vec<Frame> {
        let mut out = Vec::new();
        while let Ok(n) = self.plane.recv_batch(&mut self.arena) {
            for i in 0..n {
                match decode_frame(self.arena.frame(i)) {
                    Some(frame) => out.push(frame),
                    None => {
                        self.metrics.udp_decode_rejects.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        out
    }

    /// One harness-clock step of gossip: every node in `nodes` queues its
    /// round, then three delivery passes, 4 ms apart, send what is
    /// queued and due and hand each node the frames that reached it — a
    /// request sent in one pass is answered in the next. A `None` node is
    /// down: its socket is drained and what reached it is lost.
    pub fn step(nodes: &mut [(Option<&mut FederationNode>, &mut GossipEndpoint)], now: f64) {
        for (node, endpoint) in nodes.iter_mut() {
            for (to, bytes) in node.as_mut().map(|n| n.outbound(now)).unwrap_or_default() {
                endpoint.send_to(to, &bytes, now);
            }
        }
        for _pass in 0..3 {
            for (_, endpoint) in nodes.iter_mut() {
                endpoint.flush_due(now);
            }
            std::thread::sleep(PASS);
            for (node, endpoint) in nodes.iter_mut() {
                let frames = endpoint.poll();
                let Some(node) = node else { continue };
                for frame in frames {
                    for (to, bytes) in node.handle(&frame, now) {
                        endpoint.send_to(to, &bytes, now);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;
    use std::time::{Duration, Instant};

    #[test]
    fn undecodable_datagrams_are_counted_not_returned() {
        let m = Arc::new(FedMetrics::new());
        let mut b = GossipEndpoint::bind(2, Arc::clone(&m)).expect("bind");
        let raw = UdpSocket::bind("127.0.0.1:0").expect("raw");
        raw.send_to(b"definitely not a frame", b.local_addr()).expect("send");
        let deadline = Instant::now() + Duration::from_secs(2);
        while m.udp_decode_rejects.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            std::thread::yield_now();
            assert!(b.poll().is_empty(), "garbage is never a frame");
        }
        assert_eq!(m.udp_decode_rejects.load(Ordering::Relaxed), 1);
    }

    /// `udp_frames_sent` counts the datagrams the kernel accepted: toward
    /// a node whose socket is gone, loopback answers ICMP port
    /// unreachable, and the next send on the connected socket is refused.
    #[test]
    fn a_refused_send_is_not_counted_as_sent() {
        let m = Arc::new(FedMetrics::new());
        let mut a = GossipEndpoint::bind(1, Arc::clone(&m)).expect("bind a");
        let mut b = GossipEndpoint::bind(2, Arc::new(FedMetrics::new())).expect("bind b");
        GossipEndpoint::mesh([&mut a, &mut b], &MultiNodePlan::new(7)).expect("mesh");
        drop(b);
        let mut accepted = 0;
        for t in 0..20 {
            a.send_to(2, b"gossip", t as f64);
            accepted += a.flush_due(t as f64);
        }
        assert!(accepted < 20, "a closed port refuses some sends");
        assert_eq!(m.udp_frames_sent.load(Ordering::Relaxed), accepted);
    }
}
