//! Per-layer probes of a traced run: the ingest path replayed stage by
//! stage on the bench thread, and the run's deadlines replayed through a
//! bench-owned timer wheel.

use crate::report::WorkloadResult;
use crate::stats::quantile_sorted;
use crate::trace::Tracer;
use fd_cluster::mmsg::set_recv_buffer;
use fd_cluster::wheel::TimerWheel;
use fd_cluster::wire::encode_batch_into;
use fd_cluster::{
    batch_receiver, batch_sender, decode_batch, ClusterMonitor, ClusterSender, ClusterSenderConfig,
    FrameArena, HeartbeatEntry,
};
use fd_core::Heartbeat;
use std::net::{Ipv4Addr, UdpSocket};
use std::time::{Duration, Instant};

/// Every this-many-th `record_incarnated` call is timed on its own.
const RECORD_SAMPLE_EVERY: usize = 8;
/// Every this-many-th block is encoded and sent by bench-owned `wire`
/// and `mmsg` calls instead of `ClusterSender`, to time those two apart.
const PROBE_BLOCK_EVERY: u64 = 8;

#[derive(Debug, Default)]
pub struct StageCosts {
    pub heartbeats: u64,
    pub datagrams: u64,
    pub bytes: u64,
    /// `ClusterSender` `queue` + `flush`, and the heartbeats it covered.
    pub send_ns: u64,
    pub send_hb: u64,
    pub recv_ns: u64,
    pub recv_calls: u64,
    pub decode_ns: u64,
    pub record_ns: u64,
    pub encode_ns: u64,
    pub encode_hb: u64,
    pub mmsg_send_ns: u64,
    pub mmsg_send_datagrams: u64,
    /// Single `record_incarnated` calls, ns, sorted ascending.
    pub record_samples: Vec<f64>,
    /// Datagrams sent and never received (0 on a healthy loopback).
    pub lost: u64,
}

impl StageCosts {
    /// Receive + decode + record cost per heartbeat, ns: what the pump
    /// thread does.
    pub fn pump_ns_per_hb(&self) -> f64 {
        (self.recv_ns + self.decode_ns + self.record_ns) as f64 / self.heartbeats.max(1) as f64
    }

    pub fn metrics_into(&self, result: &mut WorkloadResult) {
        let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
        result.set("net.send_ns_per_hb", per(self.send_ns, self.send_hb));
        result.set(
            "mmsg.recv_ns_per_datagram",
            per(self.recv_ns, self.datagrams),
        );
        result.set("mmsg.recv_fill", per(self.datagrams, self.recv_calls));
        result.set(
            "mmsg.send_ns_per_datagram",
            per(self.mmsg_send_ns, self.mmsg_send_datagrams),
        );
        result.set("wire.encode_ns_per_hb", per(self.encode_ns, self.encode_hb));
        result.set(
            "wire.decode_ns_per_hb",
            per(self.decode_ns, self.heartbeats),
        );
        result.set(
            "wire.decode_ns_per_datagram",
            per(self.decode_ns, self.datagrams),
        );
        result.set("wire.bytes_per_hb", per(self.bytes, self.heartbeats));
        result.set(
            "monitor.record_ns_p50",
            quantile_sorted(&self.record_samples, 0.50),
        );
        result.set(
            "monitor.record_ns_p99",
            quantile_sorted(&self.record_samples, 0.99),
        );
    }
}

/// What [`staged_replay`] sends.
#[derive(Debug, Clone, Copy)]
pub struct Replay<'a> {
    /// Peers to send for, round robin; all registered with the monitor.
    pub peers: &'a [u64],
    pub incarnation: u64,
    /// Sequence numbers continue from here, one more per round.
    pub first_seq: u64,
    pub max_batch: usize,
    /// Heartbeats per block.
    pub block: usize,
    pub seconds: f64,
}

/// Replays the ingest path on the calling thread over a bench-owned
/// socket pair, one block of heartbeats at a time: `net.send` (or, on
/// probe blocks, `wire.encode` + `mmsg.send`) → `mmsg.recv` → per
/// datagram `wire.decode` → `monitor.record`. All spans of a block share
/// its id as `request`.
pub fn staged_replay(
    monitor: &ClusterMonitor,
    replay: Replay<'_>,
    tracer: &mut Tracer,
) -> StageCosts {
    let Replay {
        peers,
        incarnation,
        first_seq,
        max_batch,
        block,
        seconds,
    } = replay;
    assert!(tracer.enabled(), "stage costs are read off the spans");
    let sink = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind probe socket");
    let _ = set_recv_buffer(&sink, 8 << 20);
    sink.set_read_timeout(Some(Duration::from_millis(200)))
        .expect("read timeout");
    let addr = sink.local_addr().expect("probe socket address");
    let mut receiver = batch_receiver(sink, 32);
    let mut arena = FrameArena::new(32);
    let mut sender = ClusterSender::connect(
        addr,
        ClusterSenderConfig {
            max_batch,
            ..Default::default()
        },
    )
    .expect("connect probe sender");
    let raw = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind raw probe sender");
    raw.connect(addr).expect("connect raw probe sender");
    let mut plane = batch_sender(raw);
    let mut frames: Vec<Vec<u8>> = Vec::new();

    let mut costs = StageCosts::default();
    let mut entries: Vec<HeartbeatEntry> = Vec::with_capacity(block);
    let (mut cursor, mut seq) = (0usize, first_seq);
    let started = Instant::now();
    let mut block_id = 0u64;
    while started.elapsed().as_secs_f64() < seconds {
        block_id += 1;
        entries.clear();
        let send_time = monitor.now();
        for _ in 0..block {
            entries.push(HeartbeatEntry {
                peer: peers[cursor],
                incarnation,
                seq,
                send_time,
            });
            cursor += 1;
            if cursor == peers.len() {
                cursor = 0;
                seq += 1;
            }
        }
        let datagrams = entries.len().div_ceil(max_batch);
        let whole = tracer.open("ingest.block", 0, block_id);
        if block_id.is_multiple_of(PROBE_BLOCK_EVERY) {
            let span = tracer.open("wire.encode", whole.id, block_id);
            for (i, chunk) in entries.chunks(max_batch).enumerate() {
                if frames.len() == i {
                    frames.push(Vec::new());
                }
                encode_batch_into(chunk, &mut frames[i]);
            }
            costs.encode_ns += tracer.close(span);
            costs.encode_hb += entries.len() as u64;
            let span = tracer.open("mmsg.send", whole.id, block_id);
            let outcome = plane.send_frames(&frames[..datagrams]);
            costs.mmsg_send_ns += tracer.close(span);
            costs.mmsg_send_datagrams += outcome.sent as u64;
            costs.lost += (datagrams - outcome.sent) as u64;
        } else {
            let span = tracer.open("net.send", whole.id, block_id);
            for e in &entries {
                sender
                    .queue_incarnated(e.peer, e.incarnation, e.seq, e.send_time)
                    .expect("probe queue");
            }
            sender.flush().expect("probe flush");
            costs.send_ns += tracer.close(span);
            costs.send_hb += entries.len() as u64;
        }
        let mut got = 0usize;
        while got < datagrams {
            let span = tracer.open("mmsg.recv", whole.id, block_id);
            let filled = receiver.recv_batch(&mut arena);
            let ns = tracer.close(span);
            let Ok(filled) = filled else {
                costs.lost += (datagrams - got) as u64;
                break;
            };
            costs.recv_ns += ns;
            costs.recv_calls += 1;
            got += filled;
            for i in 0..filled {
                let frame = arena.frame(i);
                costs.bytes += frame.len() as u64;
                let span = tracer.open("wire.decode", whole.id, block_id);
                let decoded = decode_batch(frame);
                costs.decode_ns += tracer.close(span);
                let Some(decoded) = decoded else {
                    costs.lost += 1;
                    continue;
                };
                let span = tracer.open("monitor.record", whole.id, block_id);
                for (k, e) in decoded.iter().enumerate() {
                    let hb = Heartbeat::new(e.seq, e.send_time);
                    if k % RECORD_SAMPLE_EVERY == 0 {
                        let t = Instant::now();
                        monitor.record_incarnated(e.peer, e.incarnation, hb);
                        costs.record_samples.push(t.elapsed().as_nanos() as f64);
                    } else {
                        monitor.record_incarnated(e.peer, e.incarnation, hb);
                    }
                }
                costs.record_ns += tracer.close(span);
                costs.heartbeats += decoded.len() as u64;
                costs.datagrams += 1;
            }
        }
        tracer.close(whole);
    }
    costs.record_samples.sort_by(f64::total_cmp);
    costs
}

/// Replays the run's deadlines — `(armed at, due)` in seconds, ascending
/// by the first — through a bench-owned `TimerWheel::new(512, 0.001)`:
/// arms the ones of each millisecond, then sweeps, until `sweep_until`.
/// Stores `wheel.schedule_ns` per armed timer and
/// `wheel.advance_ns_per_expiry`.
pub fn wheel_probe(
    result: &mut WorkloadResult,
    armed: &[(f64, f64)],
    sweep_until: f64,
    tracer: &mut Tracer,
) {
    let mut wheel = TimerWheel::new(512, 0.001);
    let mut expired = Vec::new();
    let (mut schedule_ns, mut advance_ns, mut fired) = (0u64, 0u64, 0u64);
    let mut next = 0usize;
    let mut tick = 0u64;
    while (tick as f64) * 0.001 <= sweep_until {
        let now = tick as f64 * 0.001;
        let from = next;
        while next < armed.len() && armed[next].0 <= now {
            next += 1;
        }
        if next > from {
            let span = tracer.open("wheel.schedule", 0, tick);
            for (i, a) in armed[from..next].iter().enumerate() {
                wheel.schedule(a.1, (from + i) as u64, 0);
            }
            schedule_ns += tracer.close(span);
        }
        let span = tracer.open("wheel.advance", 0, tick);
        expired.clear();
        wheel.advance(now, &mut expired);
        let ns = tracer.close(span);
        if !expired.is_empty() {
            advance_ns += ns;
            fired += expired.len() as u64;
        }
        tick += 1;
    }
    result.set(
        "wheel.schedule_ns",
        schedule_ns as f64 / armed.len().max(1) as f64,
    );
    result.set(
        "wheel.advance_ns_per_expiry",
        advance_ns as f64 / fired.max(1) as f64,
    );
}
