//! Perf baseline: timed micro-benchmarks of the hot paths the
//! observability and membership layers lean on — [`OnlineQos::observe`]
//! (per-transition QoS accounting), wire batch decoding
//! ([`decode_frame`]), the registry's shard-locked warm `α` swap
//! ([`ClusterMonitor::apply_alpha`], the control plane's transition
//! point), the timer wheel's tick/rearm cycle, and the warm-restart
//! snapshot codec ([`encode_snapshot`]/[`decode_snapshot`] over a
//! 1024-peer state) — emitted as machine-readable JSON
//! (`results/BENCH_qos.json`,
//! `results/BENCH_wire.json`, `results/BENCH_cluster.json`) so CI
//! archives a comparable number per commit.
//!
//! Methodology: each measurement runs the workload in batches against a
//! monotonic clock until a time budget is spent, then reports the
//! best-of-batches per-op time (least scheduler noise) alongside the
//! mean. `--smoke` shrinks the budget for CI.

use fd_cluster::mmsg::{self, FrameArena, SingleReceiver};
use fd_cluster::snapshot::{decode_snapshot, encode_snapshot};
use fd_cluster::wheel::TimerWheel;
use fd_cluster::wire::{decode_frame, encode_batch};
use fd_cluster::{
    BatchReceiver, BatchSender, Candidate, ClusterConfig, ClusterMonitor, ClusterStateSnapshot,
    ControlConfig, CrashRecoveryElector, ElectionConfig, ElectionRecord, HeartbeatEntry,
    PeerConfig, PeerCounters, PeerRecord, SnapshotOrigin,
};
use fd_core::Heartbeat;
use fd_metrics::{FdOutput, OnlineQos};
use std::io::Write as _;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct BenchResult {
    name: &'static str,
    ops_per_batch: u64,
    batches: u64,
    best_ns_per_op: f64,
    mean_ns_per_op: f64,
    /// For benches measured against a slower reference implementation:
    /// `(reference name, its best ns/op)`.
    baseline: Option<(&'static str, f64)>,
}

impl BenchResult {
    fn to_json(&self) -> String {
        let baseline = match &self.baseline {
            Some((name, best)) => format!(
                ",\"baseline\":\"{name}\",\"baseline_best_ns_per_op\":{best:.2}"
            ),
            None => String::new(),
        };
        format!(
            "{{\"name\":\"{}\",\"ops_per_batch\":{},\"batches\":{},\
             \"best_ns_per_op\":{:.2},\"mean_ns_per_op\":{:.2}{}}}",
            self.name,
            self.ops_per_batch,
            self.batches,
            self.best_ns_per_op,
            self.mean_ns_per_op,
            baseline
        )
    }
}

/// Runs `work` (a whole batch of `ops` operations) repeatedly for
/// roughly `budget_ms`, returning best and mean per-op nanoseconds.
fn bench<F: FnMut()>(
    name: &'static str,
    ops: u64,
    budget_ms: u64,
    mut work: F,
) -> BenchResult {
    // Warm-up batch.
    work();
    let budget = std::time::Duration::from_millis(budget_ms);
    let t0 = Instant::now();
    let mut best = f64::INFINITY;
    let mut total_ns = 0.0;
    let mut batches = 0u64;
    while t0.elapsed() < budget {
        let t = Instant::now();
        work();
        let ns = t.elapsed().as_nanos() as f64;
        best = best.min(ns / ops as f64);
        total_ns += ns;
        batches += 1;
    }
    BenchResult {
        name,
        ops_per_batch: ops,
        batches,
        best_ns_per_op: best,
        mean_ns_per_op: total_ns / (batches as f64 * ops as f64),
        baseline: None,
    }
}

fn bench_online_qos(budget_ms: u64) -> BenchResult {
    const OPS: u64 = 100_000;
    bench("online_qos_observe", OPS, budget_ms, || {
        let mut q = OnlineQos::new(0.0, FdOutput::Trust);
        let mut t = 0.0;
        for i in 0..OPS {
            t += 0.5;
            // Alternate outputs so every observation exercises the
            // transition path (the expensive one), not the no-op path.
            let out = if i % 2 == 0 {
                FdOutput::Suspect
            } else {
                FdOutput::Trust
            };
            q.observe(t, out);
        }
        assert!(q.observed(t).s_transitions > 0);
    })
}

fn bench_wire_decode(budget_ms: u64) -> BenchResult {
    // Entries per frame: 45 sharing only the incarnation column, the
    // frame benchmarks/BENCH_reference.json was measured on.
    const BATCH: usize = 45;
    const FRAMES: u64 = 2_000;
    let entries: Vec<HeartbeatEntry> = (0..BATCH as u64)
        .map(|i| HeartbeatEntry {
            peer: i + 1,
            incarnation: 1,
            seq: 1000 + i,
            send_time: i as f64 * 0.02,
        })
        .collect();
    let frame = encode_batch(&entries);
    bench("wire_decode_frame", FRAMES * BATCH as u64, budget_ms, || {
        for _ in 0..FRAMES {
            let decoded = decode_frame(&frame).expect("valid frame");
            std::hint::black_box(&decoded);
        }
    })
}

/// The control plane's transition point: a warm `α` swap under the
/// shard locks, against a registry of 256 live peers. Two alternating
/// `α` values keep every call on the real mutation path (no same-value
/// short-circuit could hide the cost).
fn bench_registry_alpha_swap(budget_ms: u64) -> BenchResult {
    const PEERS: u64 = 256;
    let monitor = ClusterMonitor::spawn(ClusterConfig {
        // Park the background threads; the bench drives everything.
        tick: 3600.0,
        control: ControlConfig { period: 1e9, ..ControlConfig::default() },
        ..ClusterConfig::default()
    })
    .expect("spawn monitor");
    for p in 1..=PEERS {
        monitor.add_peer(p, PeerConfig::new(1.0, 3.0)).expect("register peer");
    }
    // A few heartbeats per peer so the swap carries real estimator
    // state, as it does under the control plane.
    for seq in 1..=4u64 {
        for p in 1..=PEERS {
            monitor.record_at(p, seq as f64, Heartbeat::new(seq, seq as f64));
        }
    }
    let mut flip = false;
    let result = bench("registry_alpha_swap", PEERS, budget_ms, || {
        flip = !flip;
        let alpha = if flip { 2.5 } else { 3.0 };
        for p in 1..=PEERS {
            assert!(monitor.apply_alpha(p, alpha));
        }
    });
    monitor.shutdown();
    result
}

/// One timer-wheel duty cycle per entry: sweep a window that expires
/// ~1024 scheduled freshness points, then rearm each — the per-beat
/// work pattern of the cluster ticker at scale.
fn bench_wheel_tick_rearm(budget_ms: u64) -> BenchResult {
    const ENTRIES: u64 = 1024;
    let mut wheel = TimerWheel::new(256, 0.01);
    let mut expired = Vec::with_capacity(ENTRIES as usize);
    let mut now = 0.0;
    let mut generation = 0u64;
    for p in 0..ENTRIES {
        wheel.schedule(now + 0.02 + (p % 7) as f64 * 0.01, p, generation);
    }
    bench("wheel_tick_rearm", ENTRIES, budget_ms, || {
        // Every scheduled deadline lies within (now, now + 0.09], so one
        // 0.1 s sweep expires the full population, which is then rearmed
        // under a fresh generation.
        now += 0.1;
        generation += 1;
        wheel.advance(now, &mut expired);
        assert_eq!(expired.len(), ENTRIES as usize);
        for e in expired.drain(..) {
            wheel.schedule(now + 0.02 + (e.peer % 7) as f64 * 0.01, e.peer, generation);
        }
    })
}

/// A restart-sized snapshot: 1024 peers, each carrying a full 64-sample
/// estimator window and live counters — the state a federation node
/// persists on its checkpoint cadence and replays on warm takeover.
fn synthetic_snapshot() -> ClusterStateSnapshot {
    const PEERS: u64 = 1024;
    const WINDOW: usize = 64;
    let peers = (1..=PEERS)
        .map(|p| PeerRecord {
            peer: p,
            incarnation: 1 + p % 3,
            eta: 1.0,
            alpha: 3.0,
            window: WINDOW,
            max_seq: Some(5_000 + p),
            counters: PeerCounters {
                heartbeats: 5_000 + p,
                stale: p % 17,
                suspicions: p % 5,
                recoveries: 1 + p % 5,
                stale_incarnation: p % 3,
                incarnation_resets: p % 3,
            },
            // Plausible normalized arrival terms (A'ᵢ − η·sᵢ): small
            // jittered positives, varied per peer so runs aren't
            // trivially compressible.
            samples: (0..WINDOW)
                .map(|i| 0.05 + ((p as usize * 31 + i * 7) % 100) as f64 * 0.002)
                .collect(),
            qos: None,
            control: None,
        })
        .collect();
    ClusterStateSnapshot {
        taken_at: 1234.5,
        origin: Some(SnapshotOrigin { node: 7, incarnation: 2 }),
        election: Some(ElectionRecord { leader: 7, incarnation: 2, elected_at: 1200.0 }),
        peers,
    }
}

/// One crash-recovery election round over a 1024-candidate snapshot:
/// the cost a control round pays to rank the whole membership by
/// stability and re-affirm (or replace) the incumbent. Candidates vary
/// in trust, incarnation and stability so the fold always does real
/// comparisons; event draining keeps the round self-contained.
fn bench_leader_elect_snapshot(budget_ms: u64) -> BenchResult {
    const PEERS: u64 = 1024;
    const ROUNDS: u64 = 64;
    let cands: Vec<Candidate> = (1..=PEERS)
        .map(|p| Candidate {
            peer: p,
            trusted: p % 13 != 0,
            incarnation: 1 + p % 3,
            stable_for: if p % 13 != 0 { 5.0 + (p % 97) as f64 * 0.1 } else { 0.0 },
        })
        .collect();
    let mut elector = CrashRecoveryElector::new(ElectionConfig::default());
    let mut now = 0.0;
    bench("leader_elect_snapshot", ROUNDS, budget_ms, || {
        for _ in 0..ROUNDS {
            now += 1.0;
            let state = elector.observe(now, &cands);
            std::hint::black_box(&state);
            elector.drain_events().clear();
        }
        assert!(elector.state().incumbent().is_some(), "steady state holds a leader");
    })
}

/// Checkpoint write path: serialize the full 1024-peer snapshot. Per-op
/// = one whole snapshot encode (the unit the checkpoint cadence pays).
fn bench_snapshot_encode(budget_ms: u64) -> BenchResult {
    const ENCODES: u64 = 4;
    let snap = synthetic_snapshot();
    bench("snapshot_encode", ENCODES, budget_ms, || {
        for _ in 0..ENCODES {
            let bytes = encode_snapshot(&snap);
            std::hint::black_box(&bytes);
        }
    })
}

/// Warm-restart read path: decode + validate the same snapshot — the
/// latency a takeover pays before it can serve with warm estimators.
fn bench_snapshot_restore(budget_ms: u64) -> BenchResult {
    const DECODES: u64 = 4;
    let snap = synthetic_snapshot();
    let bytes = encode_snapshot(&snap);
    {
        let decoded = decode_snapshot(&bytes).expect("round-trip decodes");
        assert_eq!(decoded, snap, "snapshot round-trip must be lossless");
    }
    bench("snapshot_restore", DECODES, budget_ms, || {
        for _ in 0..DECODES {
            let decoded = decode_snapshot(&bytes).expect("valid snapshot");
            std::hint::black_box(&decoded);
        }
    })
}

/// The datagram plane's receive batching: per-datagram cost of draining
/// a 32-deep burst through `recvmmsg` (one kernel crossing per burst)
/// vs the portable one-`recv_from`-per-datagram fallback on the same
/// workload. The gap is the syscall amortization `ClusterReceiver`'s
/// pumps bank on.
fn bench_mmsg_recv_batch(budget_ms: u64) -> BenchResult {
    const BATCH: usize = 32;
    // A deep burst per work() batch: loopback delivery runs through the
    // softirq, so a shallow queue would hand `recvmmsg` near-empty
    // batches and measure queue latency instead of drain cost.
    const BURST: usize = 256;
    const OPS: u64 = BURST as u64;
    // Best-of needs enough samples per leg to converge on this shared,
    // single-core box even when the overall `--smoke` budget is tiny.
    const MIN_ROUNDS: u64 = 400;

    // Sparse frames — a lightly loaded flush tick, a few entries per
    // destination. At this size the per-datagram kernel crossing (what
    // `recvmmsg` amortizes) dominates; full 45-entry frames are
    // copy-bound and would measure memcpy, not syscall overhead.
    let entries: Vec<HeartbeatEntry> = (0..4u64)
        .map(|i| HeartbeatEntry {
            peer: i + 1,
            incarnation: 1,
            seq: 1000 + i,
            send_time: i as f64 * 0.02,
        })
        .collect();
    let frames: Vec<Vec<u8>> = (0..BURST).map(|_| encode_batch(&entries)).collect();

    let socket_pair = || -> (UdpSocket, UdpSocket) {
        let rx = UdpSocket::bind(SocketAddr::from((Ipv4Addr::LOCALHOST, 0))).expect("bind rx");
        mmsg::set_poll_timeout(&rx, Duration::from_secs(2)).expect("timeout");
        // Best-effort: a small default buffer only slows the bench, it
        // doesn't invalidate it.
        let _ = mmsg::set_recv_buffer(&rx, 4 << 20);
        let tx = UdpSocket::bind(SocketAddr::from((Ipv4Addr::LOCALHOST, 0))).expect("bind tx");
        tx.connect(rx.local_addr().expect("rx addr")).expect("connect");
        (rx, tx)
    };

    struct Leg {
        name: &'static str,
        rx: Box<dyn BatchReceiver>,
        tx: Box<dyn BatchSender>,
        arena: FrameArena,
        best: f64,
        total_ns: f64,
        rounds: u64,
    }

    impl Leg {
        // Hand-rolled timing instead of `bench()`: the enqueue (send)
        // side costs ~4x the drain and is identical across both planes,
        // so timing it too would bury the receive difference under send
        // noise. Only the drain of the queued burst is on the clock.
        fn round(&mut self, frames: &[Vec<u8>], record: bool) {
            let outcome = self.tx.send_frames(frames);
            assert!(outcome.error.is_none() && outcome.sent == BURST, "loopback send");
            let t = Instant::now();
            let mut got = 0;
            while got < BURST {
                got += self.rx.recv_batch(&mut self.arena).expect("recv burst");
            }
            let ns = t.elapsed().as_nanos() as f64;
            assert_eq!(got, BURST);
            if record {
                self.best = self.best.min(ns / OPS as f64);
                self.total_ns += ns;
                self.rounds += 1;
            }
        }

        fn result(&self) -> BenchResult {
            BenchResult {
                name: self.name,
                ops_per_batch: OPS,
                batches: self.rounds,
                best_ns_per_op: self.best,
                mean_ns_per_op: self.total_ns / (self.rounds as f64 * OPS as f64),
                baseline: None,
            }
        }
    }

    let leg = |name, batched: bool| -> Leg {
        let (rx, tx) = socket_pair();
        let rx: Box<dyn BatchReceiver> = if batched {
            mmsg::batch_receiver(rx, BATCH)
        } else {
            Box::new(SingleReceiver::new(rx))
        };
        Leg {
            name,
            rx,
            tx: mmsg::batch_sender(tx),
            arena: FrameArena::new(BATCH),
            best: f64::INFINITY,
            total_ns: 0.0,
            rounds: 0,
        }
    };

    // The legs alternate round-by-round inside one timing window, so a
    // scheduler hiccup (this box shares one core) lands on both instead
    // of biasing whichever leg happened to run during it.
    let mut batched = leg("mmsg_recv_batch", true);
    let mut single = leg("single_recv", false);
    batched.round(&frames, false);
    single.round(&frames, false);
    let budget = Duration::from_millis(budget_ms);
    let t0 = Instant::now();
    while t0.elapsed() < budget || batched.rounds < MIN_ROUNDS {
        batched.round(&frames, true);
        single.round(&frames, true);
    }
    BenchResult {
        baseline: Some(("single_recv", single.best)),
        ..batched.result()
    }
}

/// The seqlock status read while a writer thread hammers `record_at` on
/// the same peers — the contention profile an exporter scrape or router
/// poll actually sees. Per-op = one full `PeerStatus` read of one peer.
/// Gated against the committed reference like the other hot-path costs
/// (the shard-locked read it replaced measured 17 ns against its
/// 3.4–4.2 ns and is now test-only code).
fn bench_status_read_lockfree(budget_ms: u64) -> BenchResult {
    const PEERS: u64 = 128;
    let monitor = ClusterMonitor::spawn(ClusterConfig {
        tick: 3600.0,
        control: ControlConfig { period: 1e9, ..ControlConfig::default() },
        ..ClusterConfig::default()
    })
    .expect("spawn monitor");
    for p in 1..=PEERS {
        monitor.add_peer(p, PeerConfig::new(60.0, 120.0)).expect("register peer");
    }
    for seq in 1..=4u64 {
        for p in 1..=PEERS {
            monitor.record_at(p, seq as f64, Heartbeat::new(seq, seq as f64));
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let monitor = monitor.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seq = 5u64;
            while !stop.load(Ordering::Relaxed) {
                for p in 1..=PEERS {
                    monitor.record_at(p, seq as f64, Heartbeat::new(seq, seq as f64));
                }
                seq += 1;
            }
        })
    };

    let readers: Vec<_> =
        (1..=PEERS).map(|p| monitor.status_reader(p).expect("registered")).collect();

    let result = bench("status_read_lockfree", PEERS, budget_ms, || {
        for r in &readers {
            std::hint::black_box(r.status());
        }
    });
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer thread");
    monitor.shutdown();
    result
}

/// Extracts `field` from the JSON object for `name` inside `json` —
/// enough of a parser for the flat records this binary writes (names
/// are known identifiers; no escapes, no nesting).
fn json_field(json: &str, name: &str, field: &str) -> Option<f64> {
    let obj_start = json.find(&format!("\"name\":\"{name}\""))?;
    let tail = &json[obj_start..];
    let obj = &tail[..tail.find('}').unwrap_or(tail.len())];
    let key = format!("\"{field}\":");
    let val = &obj[obj.find(&key)? + key.len()..];
    let end = val.find([',', '}']).unwrap_or(val.len());
    val[..end].trim().parse().ok()
}

/// Regression gate: compares the guarded benches in the freshly written
/// results against a committed reference file, failing (exit 1 from
/// `main`) if any regresses by more than 25% on best-of-batches ns/op.
/// Guarded: `wire_decode_frame` and `registry_alpha_swap` — the two
/// hot-path costs every heartbeat pays — `leader_elect_snapshot`, the
/// per-control-round cost of ranking the membership for election,
/// `status_read_lockfree`, what every consumer poll pays, and
/// `snapshot_encode` / `snapshot_restore`, the record codec and
/// checksum every periodic write and every warm restart run through.
fn check_against(reference_path: &str) -> Result<(), String> {
    const GUARDED: &[(&str, &str)] = &[
        ("wire_decode_frame", "results/BENCH_wire.json"),
        ("registry_alpha_swap", "results/BENCH_cluster.json"),
        ("leader_elect_snapshot", "results/BENCH_cluster.json"),
        ("status_read_lockfree", "results/BENCH_cluster.json"),
        ("snapshot_encode", "results/BENCH_cluster.json"),
        ("snapshot_restore", "results/BENCH_cluster.json"),
    ];
    const MAX_RATIO: f64 = 1.25;
    let reference = std::fs::read_to_string(reference_path)
        .map_err(|e| format!("cannot read reference {reference_path}: {e}"))?;
    let mut failures = Vec::new();
    for (name, results_path) in GUARDED {
        let current_json = std::fs::read_to_string(results_path)
            .map_err(|e| format!("cannot read results {results_path}: {e}"))?;
        let current = json_field(&current_json, name, "best_ns_per_op")
            .ok_or_else(|| format!("{name} missing from {results_path}"))?;
        let baseline = json_field(&reference, name, "best_ns_per_op")
            .ok_or_else(|| format!("{name} missing from reference {reference_path}"))?;
        let ratio = current / baseline;
        println!(
            "check {name:20} current {current:9.2} ns/op vs reference {baseline:9.2} ns/op \
             ({ratio:.2}x, limit {MAX_RATIO:.2}x)"
        );
        if ratio > MAX_RATIO {
            failures.push(format!("{name} regressed {ratio:.2}x (> {MAX_RATIO:.2}x)"));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn write_json(path: &str, result: &BenchResult) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{}", result.to_json())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget_ms = if smoke { 200 } else { 1500 };

    println!("perf baseline (budget {budget_ms} ms per bench)\n");

    let qos = bench_online_qos(budget_ms);
    println!(
        "{:22} best {:8.2} ns/op, mean {:8.2} ns/op over {} batches",
        qos.name, qos.best_ns_per_op, qos.mean_ns_per_op, qos.batches
    );
    write_json("results/BENCH_qos.json", &qos).expect("write BENCH_qos.json");

    let wire = bench_wire_decode(budget_ms);
    println!(
        "{:22} best {:8.2} ns/op, mean {:8.2} ns/op over {} batches",
        wire.name, wire.best_ns_per_op, wire.mean_ns_per_op, wire.batches
    );
    write_json("results/BENCH_wire.json", &wire).expect("write BENCH_wire.json");

    let alpha = bench_registry_alpha_swap(budget_ms);
    println!(
        "{:22} best {:8.2} ns/op, mean {:8.2} ns/op over {} batches",
        alpha.name, alpha.best_ns_per_op, alpha.mean_ns_per_op, alpha.batches
    );
    let wheel = bench_wheel_tick_rearm(budget_ms);
    println!(
        "{:22} best {:8.2} ns/op, mean {:8.2} ns/op over {} batches",
        wheel.name, wheel.best_ns_per_op, wheel.mean_ns_per_op, wheel.batches
    );
    let enc = bench_snapshot_encode(budget_ms);
    println!(
        "{:22} best {:8.2} ns/op, mean {:8.2} ns/op over {} batches",
        enc.name, enc.best_ns_per_op, enc.mean_ns_per_op, enc.batches
    );
    let dec = bench_snapshot_restore(budget_ms);
    println!(
        "{:22} best {:8.2} ns/op, mean {:8.2} ns/op over {} batches",
        dec.name, dec.best_ns_per_op, dec.mean_ns_per_op, dec.batches
    );
    let recv = bench_mmsg_recv_batch(budget_ms);
    let (base_name, base_best) = recv.baseline.expect("has baseline");
    println!(
        "{:22} best {:8.2} ns/op, mean {:8.2} ns/op over {} batches \
         ({base_name} baseline {base_best:.2} ns/op, {:.2}x)",
        recv.name,
        recv.best_ns_per_op,
        recv.mean_ns_per_op,
        recv.batches,
        base_best / recv.best_ns_per_op
    );
    assert!(
        recv.best_ns_per_op < base_best,
        "batched receive ({:.2} ns/op) must beat one-recv-per-datagram ({base_best:.2} ns/op)",
        recv.best_ns_per_op
    );
    let elect = bench_leader_elect_snapshot(budget_ms);
    println!(
        "{:22} best {:8.2} ns/op, mean {:8.2} ns/op over {} batches",
        elect.name, elect.best_ns_per_op, elect.mean_ns_per_op, elect.batches
    );
    let status = bench_status_read_lockfree(budget_ms);
    println!(
        "{:22} best {:8.2} ns/op, mean {:8.2} ns/op over {} batches",
        status.name, status.best_ns_per_op, status.mean_ns_per_op, status.batches
    );
    std::fs::create_dir_all("results").expect("create results dir");
    let mut f = std::fs::File::create("results/BENCH_cluster.json")
        .expect("create BENCH_cluster.json");
    writeln!(
        f,
        "[{},{},{},{},{},{},{}]",
        alpha.to_json(),
        wheel.to_json(),
        enc.to_json(),
        dec.to_json(),
        recv.to_json(),
        elect.to_json(),
        status.to_json()
    )
    .expect("write BENCH_cluster.json");

    println!(
        "\nbaselines written to results/BENCH_qos.json, results/BENCH_wire.json, \
         results/BENCH_cluster.json"
    );

    let mut args = std::env::args();
    if let Some(reference) = args
        .by_ref()
        .find(|a| a == "--check-against")
        .and_then(|_| args.next())
    {
        println!();
        match check_against(&reference) {
            Ok(()) => println!("no perf regression against {reference}"),
            Err(why) => {
                eprintln!("perf regression gate FAILED: {why}");
                std::process::exit(1);
            }
        }
    }
}
