//! What a monitored peer costs in heap, held to a budget.
//!
//! A byte-counting global allocator (live bytes = requested − freed,
//! the pattern of `exp_scale`'s `CountingAlloc`) measures the registry's
//! growth per peer through the public API, and counts the calls each
//! thread makes, so a hot path can be held to none. Requested bytes, not RSS: the
//! allocator's own headers and size classes are not this crate's to
//! budget, and the number repeats exactly.
//!
//! Where the ≤ 795 B of a peer without requirements go at `window(32)`
//! (DESIGN §7 has the table, before and after):
//!
//! | what                                             | bytes |
//! |--------------------------------------------------|------:|
//! | `Box<PeerState>` (detector 136, gen 8, `armed` 8, control pointer 8, cell pointer 8) | 168 |
//! | the detector's window ring, 32 × `f64`           |   256 |
//! | `Arc<PeerCell>`: 2 counts + seqlock word + 29 payload words | 256 |
//! | shard table bucket (key 8 + pointer 8 + control byte) × 1.64 slack at 1 250 peers a shard | ~28 |
//! | published-index bucket, same shape, one table of 32 768 buckets | ~28 |
//! | wheel entry (due, peer, gen) in its slot's `Vec`, with growth slack | ~40 |
//! | **total**                                        | **~775** |
//!
//! The counters, the QoS tracker, the incarnation and the latest drive
//! time live in the cell alone; while the record kept a copy of them it
//! was 384 B and a peer ~990 B. Before the record left the table the
//! first row was a 688-byte bucket paid 1.64 times (1 128 B, 304 × 1.64
//! of them an inline `Option<ControlState>` that was `None`), ~1 700 B
//! in all.

use fd_cluster::{
    ClusterConfig, ClusterMonitor, ClusterSender, ClusterSenderConfig, ControlConfig, PeerConfig,
    PeerId,
};
use fd_core::Heartbeat;
use fd_metrics::QosRequirements;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

/// Bytes requested and not yet freed, process-wide.
static LIVE: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Allocations and reallocations this thread has made. Per thread,
    /// so the test harness starting other tests does not count.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    // A `const` cell without a destructor is never torn down, so this
    // neither allocates nor fails.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        count_call();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        count_call();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counter is the process's: one measuring test at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const PEERS: u64 = 20_000;
/// Requested heap bytes a peer without requirements may cost.
const BUDGET: f64 = 795.0;
/// `size_of::<ControlState>()`, the block a peer allocates only when it
/// declares requirements (private to the crate; DESIGN §7 lists it).
const CONTROL_STATE: f64 = 312.0;
/// Record times far ahead of the wall clock: no wheel entry fires and
/// frees itself during a measurement.
const BASE: f64 = 1_000_000.0;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// A monitor whose own threads stay asleep through the measurement.
fn quiet_monitor() -> ClusterMonitor {
    ClusterMonitor::spawn(ClusterConfig {
        tick: 3_600.0,
        control: ControlConfig { period: 3_600.0, ..ControlConfig::default() },
        ..ClusterConfig::default()
    })
    .expect("spawn")
}

/// Registers `peers` and records one heartbeat each (which arms their
/// wheel entries); returns the live bytes that took per peer.
fn cost_per_peer(m: &ClusterMonitor, peers: std::ops::Range<PeerId>, cfg: PeerConfig) -> f64 {
    let n = peers.end - peers.start;
    let before = live();
    for p in peers.clone() {
        m.add_peer(p, cfg).unwrap();
    }
    for p in peers {
        assert!(m.record_at(p, BASE, Heartbeat::new(1, BASE)));
    }
    (live() - before) as f64 / n as f64
}

#[test]
fn a_peer_without_requirements_fits_the_budget() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let m = quiet_monitor();
    let per_peer = cost_per_peer(&m, 0..PEERS, PeerConfig::new(0.1, 0.2).window(32));
    println!("{per_peer:.0} B per peer without requirements at window(32), {PEERS} peers");
    assert!(per_peer <= BUDGET, "{per_peer:.0} B per peer, budget {BUDGET} B");
    // Not vacuous: the record, the ring and the cell alone are 680 B.
    assert!(per_peer >= 680.0, "{per_peer:.0} B per peer: the measurement lost something");
    m.shutdown();
}

#[test]
fn the_control_block_is_paid_only_by_peers_that_declare_requirements() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let m = quiet_monitor();
    let plain = PeerConfig::new(0.1, 0.2).window(32);
    let with = plain.requirements(QosRequirements::new(1.0, 60.0, 0.5).unwrap());
    // Same count each, so both populations pay the same table growth.
    let without_requirements = cost_per_peer(&m, 0..4_096, plain);
    let with_requirements = cost_per_peer(&m, 1_000_000..1_004_096, with);
    println!("{without_requirements:.0} B without, {with_requirements:.0} B with requirements");
    assert!(
        with_requirements >= without_requirements + CONTROL_STATE,
        "a peer with requirements costs {with_requirements:.0} B, one without \
         {without_requirements:.0} B: the control block is not where it should be"
    );
    assert!(
        without_requirements <= BUDGET,
        "a peer without requirements pays {without_requirements:.0} B"
    );
    m.shutdown();
}

#[test]
fn removing_every_peer_returns_what_adding_them_took() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let m = quiet_monitor();
    let before = live();
    let cfg = PeerConfig::new(0.1, 0.2)
        .window(32)
        .requirements(QosRequirements::new(1.0, 60.0, 0.5).unwrap());
    for p in 0..PEERS {
        // Every other peer carries a control block.
        m.add_peer(p, if p % 2 == 0 { cfg } else { PeerConfig { requirements: None, ..cfg } })
            .unwrap();
    }
    // Handles taken while the peers lived do not pin them once dropped.
    let readers: Vec<_> = (0..PEERS).step_by(97).map(|p| m.status_reader(p).unwrap()).collect();
    let taken = live() - before;
    for p in 0..PEERS {
        assert!(m.remove_peer(p));
    }
    drop(readers);
    let kept = live() - before;
    let returned = 1.0 - kept as f64 / taken as f64;
    println!("adding took {taken} B, {kept} B still held after removal ({returned:.3} returned)");
    // What stays is the tables' buckets (they do not shrink); a cell or a
    // record kept alive by a reference cycle would be 256 B or 168 B a
    // peer of the ~1 470 B average here.
    assert!(returned >= 0.9, "only {:.1} % came back", returned * 100.0);
    m.shutdown();
}

/// A sender that flushes every heartbeat on its own — the `max_batch: 1`
/// shape of a sender pacing one peer — allocates nothing per flush once
/// its buffers have grown.
#[test]
fn a_steady_sender_flush_allocates_nothing() {
    // Its own allocations would move the other tests' byte counts.
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let receiver = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind a receiver");
    let to = receiver.local_addr().expect("its address");
    let cfg = ClusterSenderConfig { max_batch: 1, ..ClusterSenderConfig::default() };
    let mut sender = ClusterSender::connect(to, cfg).expect("connect");
    let mut round = |seq: u64| {
        sender.queue(7, seq, seq as f64 * 0.01).expect("queue");
        sender.flush().expect("flush");
    };
    (1..=16).for_each(&mut round);
    let before = CALLS.with(Cell::get);
    (17..=1_016).for_each(&mut round);
    let calls = CALLS.with(Cell::get) - before;
    assert_eq!(calls, 0, "1 000 queue + flush rounds made {calls} allocations");
    assert_eq!(sender.datagrams_sent(), 1_016);
}

/// A sender batching as `flood_ingest` does — 2 048 entries a flush,
/// round robin over 512 peers, 16 frames of 128 — allocates nothing per
/// flush once its buffers have grown: the staging buffer, the frame
/// pool and the plane's message arrays are all reused.
#[test]
fn a_flood_shaped_flush_allocates_nothing() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let receiver = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind a receiver");
    let to = receiver.local_addr().expect("its address");
    let mut sender = ClusterSender::connect(to, ClusterSenderConfig::default()).expect("connect");
    let mut block = |b: u64| {
        for i in 0..2_048 {
            let hb = b * 2_048 + i;
            sender.queue(hb % 512, hb / 512 + 1, b as f64 * 0.01).expect("queue");
        }
        sender.flush().expect("flush");
    };
    (0..4).for_each(&mut block);
    let before = CALLS.with(Cell::get);
    (4..104).for_each(&mut block);
    let calls = CALLS.with(Cell::get) - before;
    assert_eq!(calls, 0, "100 flushes of 2 048 entries made {calls} allocations");
    assert_eq!(sender.datagrams_sent(), 104 * 16);
}
