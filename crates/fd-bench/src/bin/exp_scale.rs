//! E17 — cluster scale sweep: one `ClusterMonitor`, 10 → 10k simulated
//! peers, O(1) threads.
//!
//! The paper analyzes one monitored process; `fd-cluster` carries that
//! per-peer analysis to N peers behind a sharded registry and a single
//! timer-wheel ticker. This experiment demonstrates the scaling claims:
//!
//! * thread count stays flat as peers are added (one ticker drives every
//!   freshness expiration);
//! * per-heartbeat recording cost stays O(1) — nanoseconds and
//!   allocations per `record` are reported per peer count;
//! * a peer costs under a kilobyte of heap — the registry's growth per
//!   peer, in requested bytes, is reported per peer count and asserted
//!   ≤ 1.2 KB at 10k peers;
//! * the per-peer detection bound `T_D ≤ η + α` (+ wheel tick and
//!   scheduler slack) holds for every crashed peer even at 10k peers;
//! * the batched UDP transport packs ≥ 8 heartbeats per datagram.
//!
//! `--smoke` runs a reduced sweep (10 and 64 peers) for CI; the default
//! sweep is 10 / 100 / 1000 / 10000.

use fd_bench::report::fmt_num;
use fd_bench::{Settings, Table};
use fd_cluster::{
    ClusterConfig, ClusterMonitor, ClusterReceiver, ClusterReceiverConfig, ClusterSender,
    ClusterSenderConfig, MembershipChange, PeerConfig, PeerId,
};
use fd_core::Heartbeat;
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counts every heap allocation in the process, so the sweep can report
/// allocations per recorded heartbeat (steady state should be < 1: all
/// hot-path buffers are reused), and the bytes requested and not yet
/// freed, so it can report what a registered peer costs.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ETA: f64 = 0.05;
const ALPHA: f64 = 0.2;
/// Slack on the detection bound for wheel tick + scheduler jitter.
const BOUND_SLACK: f64 = 0.15;
const WARMUP_ROUNDS: u64 = 6;

/// Threads in this process (Linux); `None` where /proc is unavailable,
/// which skips the flat-thread assertion.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

struct SweepPoint {
    peers: usize,
    ns_per_record: f64,
    allocs_per_record: f64,
    /// Live heap bytes the registry grew by per peer, from before the
    /// first `add_peer` to after warm-up (windows allocated, wheel
    /// entries armed).
    bytes_per_peer: f64,
    worst_detection: f64,
    threads_flat: bool,
}

/// One sweep point: N simulated peers driven by direct `record` calls
/// (the wire path is measured separately in [`udp_leg`]).
fn sweep_point(n: u64) -> SweepPoint {
    let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn cluster");
    let threads_before = thread_count();
    let bytes_before = LIVE_BYTES.load(Ordering::Relaxed);
    for p in 0..n {
        monitor.add_peer(p, PeerConfig::new(ETA, ALPHA)).expect("add peer");
    }
    assert_eq!(monitor.peer_count(), n as usize);

    // Warm-up: every peer heartbeats each η until all are trusted.
    for round in 1..=WARMUP_ROUNDS {
        let t = monitor.now();
        for p in 0..n {
            monitor.record(p, Heartbeat::new(round, t));
        }
        std::thread::sleep(Duration::from_secs_f64(ETA));
    }
    let bytes_per_peer = (LIVE_BYTES.load(Ordering::Relaxed) - bytes_before) as f64 / n as f64;
    assert_eq!(
        monitor.snapshot().trusted().len(),
        n as usize,
        "{n} peers should all be trusted after warm-up"
    );
    let threads_after = thread_count();
    let threads_flat = match (threads_before, threads_after) {
        (Some(b), Some(a)) => {
            assert_eq!(a, b, "adding {n} peers changed thread count {b} -> {a}");
            true
        }
        _ => false,
    };

    // Steady-state cost: one more full round, timed and alloc-counted.
    // The window includes the concurrently running ticker — its buffer
    // churn is part of the real per-heartbeat cost.
    let round = WARMUP_ROUNDS + 1;
    let t = monitor.now();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let started = Instant::now();
    for p in 0..n {
        monitor.record(p, Heartbeat::new(round, t));
    }
    let elapsed = started.elapsed();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    let ns_per_record = elapsed.as_nanos() as f64 / n as f64;
    let allocs_per_record = allocs as f64 / n as f64;

    // Crash a tenth (at least one): their heartbeats stop, the wheel must
    // suspect each within η + α.
    let crashed = (n / 10).max(1);
    let events = monitor.subscribe();
    let t_crash = monitor.now();
    let horizon = ETA + ALPHA + BOUND_SLACK + 0.1;
    let mut round = round;
    while monitor.now() - t_crash < horizon {
        round += 1;
        let t = monitor.now();
        for p in crashed..n {
            monitor.record(p, Heartbeat::new(round, t));
        }
        std::thread::sleep(Duration::from_secs_f64(ETA));
    }

    let snap = monitor.snapshot();
    let suspected = snap.suspected();
    assert_eq!(
        suspected,
        (0..crashed).collect::<Vec<PeerId>>(),
        "exactly the crashed peers must be suspected"
    );
    let mut detected = 0usize;
    let mut worst = 0.0f64;
    while let Ok(ev) = events.try_recv() {
        if ev.change == MembershipChange::Suspected {
            detected += 1;
            worst = worst.max(ev.at - t_crash);
        }
    }
    assert_eq!(detected, crashed as usize, "one suspicion per crashed peer");
    assert!(
        worst <= ETA + ALPHA + BOUND_SLACK,
        "worst T_D {worst:.3}s exceeds η + α + slack = {:.3}s at n = {n}",
        ETA + ALPHA + BOUND_SLACK
    );

    let stats = monitor.stats();
    assert!(stats.ticks > 0 && stats.timers_fired > 0);
    assert_eq!(stats.events_dropped, 0);
    monitor.shutdown();

    SweepPoint {
        peers: n as usize,
        ns_per_record,
        allocs_per_record,
        bytes_per_peer,
        worst_detection: worst,
        threads_flat,
    }
}

/// The wire leg: 128 peers multiplexed over one UDP socket pair,
/// asserting the batching win (≥ 8 heartbeats per datagram).
fn udp_leg() -> f64 {
    const N: u64 = 128;
    let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn cluster");
    for p in 0..N {
        monitor.add_peer(p, PeerConfig::new(ETA, ALPHA)).expect("add peer");
    }
    let rx = ClusterReceiver::bind(SocketAddr::from((Ipv4Addr::LOCALHOST, 0)), monitor.clone())
        .expect("bind receiver");
    let mut tx = ClusterSender::connect(rx.local_addr(), ClusterSenderConfig::default())
        .expect("connect sender");
    for round in 1..=8u64 {
        let t = monitor.now();
        for p in 0..N {
            tx.queue(p, round, t).expect("queue");
        }
        tx.flush().expect("flush");
        std::thread::sleep(Duration::from_secs_f64(ETA));
    }
    let factor = tx.batching_factor();
    assert!(factor >= 8.0, "batching factor {factor:.1} below 8 heartbeats/datagram");
    assert_eq!(rx.rejected(), 0);
    assert_eq!(
        monitor.snapshot().trusted().len(),
        N as usize,
        "all UDP-fed peers trusted"
    );
    rx.shutdown();
    monitor.shutdown();
    factor
}

/// The datagram-plane leg: `n` peers multiplexed over the batched
/// (`recvmmsg`/`sendmmsg` on Linux) transport, measuring end-to-end
/// heartbeats per second through the full record path — socket →
/// decode → shard lock → detector → seqlock publish.
///
/// The sender paces itself against the receiver's entry counter so the
/// kernel socket buffer never overflows (loopback UDP silently drops on
/// `SO_RCVBUF` exhaustion; drops here would be a benchmark artifact,
/// not a transport property).
fn datagram_plane_leg(n: u64, rounds: u64, floor_hb_per_sec: f64) -> (f64, f64) {
    // Detector parameters far beyond the run length and no ticker:
    // this leg measures transport + record throughput, not expiries.
    let monitor = ClusterMonitor::manual(ClusterConfig { shards: 64, ..ClusterConfig::default() });
    for p in 0..n {
        monitor.add_peer(p, PeerConfig::new(60.0, 120.0)).expect("add peer");
    }
    let rx = ClusterReceiver::bind_with(
        SocketAddr::from((Ipv4Addr::LOCALHOST, 0)),
        monitor.clone(),
        ClusterReceiverConfig {
            pump_threads: 2,
            recv_buffer_bytes: Some(8 << 20),
            ..ClusterReceiverConfig::default()
        },
    )
    .expect("bind receiver");
    let mut tx = ClusterSender::connect(rx.local_addr(), ClusterSenderConfig::default())
        .expect("connect sender");

    // Keep at most this many entries in flight; an 8 MiB receive buffer
    // holds ~2k 1.3 KiB datagrams (~90k entries) even with skb overhead.
    const MAX_IN_FLIGHT: u64 = 24_000;
    let mut sent = 0u64;
    let started = Instant::now();
    for round in 1..=rounds {
        let t = monitor.now();
        for p in 0..n {
            tx.queue(p, round, t).expect("queue");
            if (p + 1) % 2048 == 0 {
                tx.flush().expect("flush");
                sent = tx.entries_sent();
                while sent.saturating_sub(rx.entries_received()) > MAX_IN_FLIGHT {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
        tx.flush().expect("flush");
        sent = tx.entries_sent();
    }
    // Drain: wait (bounded) for the pumps to catch up with the tail.
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    while rx.entries_received() < sent && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let elapsed = started.elapsed().as_secs_f64();
    let received = rx.entries_received();
    let hb_per_sec = received as f64 / elapsed;

    assert_eq!(rx.rejected(), 0, "no undecodable frames on the loopback path");
    assert_eq!(rx.recv_errors(), 0, "no receive errors on the loopback path");
    assert!(
        received as f64 >= 0.95 * sent as f64,
        "{received} of {sent} heartbeats delivered at n = {n} — \
         paced loopback should not drop"
    );
    assert!(
        hb_per_sec >= floor_hb_per_sec,
        "datagram plane sustained {hb_per_sec:.0} heartbeats/s at n = {n}, \
         floor is {floor_hb_per_sec:.0}"
    );
    let batching = tx.batching_factor();
    assert!(batching >= 8.0, "batching factor {batching:.1} below 8");
    rx.shutdown();
    monitor.shutdown();
    (hb_per_sec, batching)
}

fn main() {
    let _settings = Settings::from_env();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sweep: &[u64] = if smoke { &[10, 64] } else { &[10, 100, 1000, 10_000] };
    println!(
        "E17 — cluster scale sweep (η = {ETA}, α = {ALPHA}, {} peers){}\n",
        sweep.iter().map(|n| n.to_string()).collect::<Vec<_>>().join("/"),
        if smoke { " [smoke]" } else { "" }
    );

    let mut table = Table::new(&[
        "peers",
        "ns/record",
        "allocs/record",
        "bytes/peer",
        "worst T_D (s)",
        "bound (s)",
        "threads flat",
    ]);
    for &n in sweep {
        let point = sweep_point(n);
        assert!(
            point.allocs_per_record < 1.0,
            "steady-state allocations per record {:.3} at n = {n} (buffers not reused?)",
            point.allocs_per_record
        );
        // Below that the tables' minimum sizes dominate the quotient.
        assert!(
            n < 10_000 || point.bytes_per_peer <= 1200.0,
            "a peer costs {:.0} B of heap at n = {n}, budget 1.2 KB (DESIGN §7)",
            point.bytes_per_peer
        );
        table.row(&[
            point.peers.to_string(),
            fmt_num(point.ns_per_record),
            format!("{:.3}", point.allocs_per_record),
            format!("{:.0}", point.bytes_per_peer),
            format!("{:.3}", point.worst_detection),
            format!("{:.3}", ETA + ALPHA + BOUND_SLACK),
            if point.threads_flat { "yes".into() } else { "n/a".into() },
        ]);
    }
    table.print();

    let factor = udp_leg();
    println!("\nUDP leg: 128 peers over one socket, {factor:.1} heartbeats/datagram");

    // The datagram-plane sweep: 10k → 100k+ peers through the batched
    // transport, end to end. The full sweep's floor is half of the
    // >1 M heartbeats/s reference measurement; the smoke floor stays
    // conservative (CI runs it on small shared machines, for 40 ms).
    let plane = if cfg!(target_os = "linux") { "mmsg" } else { "single-syscall fallback" };
    let (plane_sweep, rounds, floor): (&[u64], u64, f64) = if smoke {
        (&[20_000], 2, 20_000.0)
    } else {
        (&[10_000, 50_000, 100_000], 3, 500_000.0)
    };
    println!("\ndatagram plane ({plane}) sweep:");
    let mut plane_table = Table::new(&["peers", "heartbeats/s", "hb/datagram"]);
    for &n in plane_sweep {
        let (hb_per_sec, batching) = datagram_plane_leg(n, rounds, floor);
        plane_table.row(&[
            n.to_string(),
            fmt_num(hb_per_sec),
            format!("{batching:.1}"),
        ]);
    }
    plane_table.print();
    println!("all scale assertions passed");
}
