//! `consumer_mix`: reads beside writes, sockets bypassed.
//!
//! Thread A records 100 000 heartbeats per second straight into the
//! monitor, open loop, and every 100 ms stops a seeded victim — every
//! tenth time the longest-lived peer, which a stability-ranked elector
//! has as leader — for `2(η+α)`. Thread B is the consumer, closed loop:
//! 20 000 `status()` reads of seeded-random peers, one `snapshot()`, one
//! election round, and every eighth cycle a Prometheus scrape.

use super::{monitor_counters_into, repeated_setup, Ctx, Drive, Driven, WINDOWS};
use crate::gen::{read_targets, Schedule};
use crate::report::WorkloadResult;
use crate::stats::{quantile_sorted, Windowed, P50};
use crate::trace::Tracer;
use fd_cluster::{
    render_prometheus, ClusterConfig, ClusterMonitor, CrashRecoveryElector, ElectionConfig,
    PeerConfig,
};
use fd_core::{Heartbeat, HysteresisConfig};
use std::collections::HashMap;
use std::time::Instant;

const PEERS: u64 = 10_000;
const ETA: f64 = 0.1;
const ALPHA: f64 = 0.5;
const SLICE: f64 = 0.001;
const ETA_SLICES: u64 = 100;
/// 33 heartbeats at `η = 0.1 s`, and some.
const WARMUP_S: f64 = 4.0;
const TAIL_S: f64 = 1.5;
const CRASH_EVERY: u64 = 100;
/// `2(η+α)` in slices.
const DOWN_SLICES: u64 = 1_200;
const READS_PER_CYCLE: usize = 20_000;
const SCRAPE_EVERY: u64 = 8;
/// Per-peer families every scrape carries one sample line of per peer.
const PER_PEER_FAMILIES: [&str; 8] = [
    "fd_peer_output",
    "fd_peer_query_accuracy",
    "fd_peer_mistake_rate",
    "fd_peer_window_seconds",
    "fd_peer_heartbeats_total",
    "fd_peer_suspicions_total",
    "fd_peer_recoveries_total",
    "fd_peer_qos_state",
];

/// What the writer thread hands back.
struct Written {
    driven: Driven,
    /// Single `record_incarnated` calls, ns (traced runs only).
    record_ns: Vec<f64>,
    tracer: Tracer,
}

fn build() -> (ClusterMonitor, f64) {
    let monitor = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn monitor");
    let t = Instant::now();
    for p in 0..PEERS {
        monitor
            .add_peer(p, PeerConfig::new(ETA, ALPHA))
            .expect("add_peer on a fresh monitor");
    }
    (monitor, t.elapsed().as_secs_f64())
}

pub fn run(ctx: &Ctx) -> WorkloadResult {
    super::until_undisturbed("consumer_mix", || run_once(ctx))
}

/// One attempt; returns the result and the writer's worst lateness.
fn run_once(ctx: &Ctx) -> (WorkloadResult, f64) {
    let mut result = WorkloadResult::new("consumer_mix");
    let (monitor, add_peer_s) = repeated_setup(&mut result, build, |(m, _)| m.shutdown());
    let up_since = ctx.now();
    result.set("monitor.add_peer_us", add_peer_s * 1e6 / PEERS as f64);

    let warm = (WARMUP_S / SLICE) as u64;
    let measured = (ctx.seconds / SLICE) as u64;
    let sched = Schedule {
        peers: PEERS,
        slice: SLICE,
        eta_slices: ETA_SLICES,
        first_crash: warm,
        last_crash: warm + measured - 1,
        crash_every: CRASH_EVERY,
        down_slices: DOWN_SLICES,
        min_life_hb: 33,
        oldest_every: 10,
    };
    let outages = sched.outages(ctx.seed);
    let drive = Drive {
        sched: &sched,
        outages: &outages,
        base: ctx.now() + 0.05,
        total_slices: warm + measured + (TAIL_S / SLICE) as u64,
        measured: warm..warm + measured,
    };
    let (measure_from, measure_to) = (drive.due(warm), drive.due(warm + measured));
    // When each peer may legitimately read as suspected: from the last
    // heartbeat of an old life until shortly after the first of the new.
    let mut down: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for o in &outages {
        down.entry(o.peer)
            .or_default()
            .push((drive.due(o.last_due), drive.due(o.first_due) + 0.05));
    }
    let targets = read_targets(ctx.seed, PEERS, 1 << 20);

    let mut reader = Tracer::new(ctx.traced, ctx.origin, 1);
    let (cycles, written) = std::thread::scope(|scope| {
        let writer = std::thread::Builder::new()
            .name("bench-writer".into())
            .spawn_scoped(scope, || write(ctx, &drive, &monitor))
            .expect("spawn writer thread");
        while ctx.now() < measure_from {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let window = (measure_from, measure_to);
        let cycles = consume(ctx, &monitor, &targets, &down, window, &mut reader);
        (cycles, writer.join().expect("writer thread"))
    });
    let Written {
        driven,
        mut record_ns,
        tracer: writer,
    } = written;
    result.set("peak_rss_mb", crate::sys::peak_rss_mb());

    if driven.lateness_into(&mut result) {
        println!("# consumer_mix: disturbed — the writer's p99 lateness is above 5 ms");
    }
    result.set("hb_per_s", driven.sent_measured as f64 / driven.measured_s);
    result.set(
        "cpu_us_per_hb",
        driven.cpu_measured_s * 1e6 / driven.sent_measured.max(1) as f64,
    );
    cycles.metrics_into(&mut result);
    if ctx.traced {
        record_ns.sort_by(f64::total_cmp);
        result.set("monitor.record_ns_p50", quantile_sorted(&record_ns, 0.50));
        result.set("monitor.record_ns_p99", quantile_sorted(&record_ns, 0.99));
    }

    // Every direct record was accepted, no live peer ever read as
    // suspected, and each scrape listed every peer in every family.
    let recorded: u64 = (0..PEERS)
        .filter_map(|p| monitor.status(p))
        .map(|s| s.counters.heartbeats)
        .sum();
    result.check(
        driven.sent,
        driven.sent.abs_diff(recorded),
        "records the per-peer counters do not show",
    );
    result.check(
        cycles.reads,
        cycles.false_suspects,
        "Suspect read for a peer that was not paused",
    );
    result.check(
        cycles.scrapes * PER_PEER_FAMILIES.len() as u64,
        cycles.short_families,
        "scrape families missing a peer",
    );
    result.check(
        outages.len() as u64,
        u64::from(cycles.leader_changes == 0),
        "no leader change although leaders were paused",
    );
    monitor_counters_into(&monitor, &mut result, driven.sent, ctx.now() - up_since);
    let stats = monitor.stats();
    result.set(
        "wheel.useful_fire_frac",
        outages.len() as f64 / stats.timers_fired.max(1) as f64,
    );
    monitor.shutdown();
    result.spans = writer.into_spans();
    result.spans.extend(reader.into_spans());
    (result, driven.worst_late_s)
}

/// Thread A: the open-loop writer.
fn write(ctx: &Ctx, drive: &Drive, monitor: &ClusterMonitor) -> Written {
    let mut tracer = Tracer::new(ctx.traced, ctx.origin, 0);
    let mut record_ns = Vec::new();
    let offset = crate::gen::cluster_clock_offset(|| monitor.now(), ctx.origin);
    let mut calls = 0u64;
    let traced = ctx.traced;
    let driven = drive.play(ctx.origin, &mut tracer, |peer, incarnation, seq, due| {
        let hb = Heartbeat::new(seq, due + offset);
        calls += 1;
        if traced && calls.is_multiple_of(8) {
            let t = Instant::now();
            monitor.record_incarnated(peer, incarnation, hb);
            record_ns.push(t.elapsed().as_nanos() as f64);
        } else {
            monitor.record_incarnated(peer, incarnation, hb);
        }
    });
    Written {
        driven,
        record_ns,
        tracer,
    }
}

/// What the consumer measured, cycle by cycle.
struct Cycles {
    reads_per_s: Windowed,
    status_ns: Windowed,
    snapshot_ms: Windowed,
    candidates_ms: Windowed,
    observe_ms: Windowed,
    cycle_ms: Windowed,
    render_ms: Windowed,
    bytes_per_peer: f64,
    reads: u64,
    false_suspects: u64,
    scrapes: u64,
    short_families: u64,
    leader_changes: u64,
}

impl Cycles {
    fn new() -> Self {
        let w = || Windowed::new(WINDOWS);
        Self {
            reads_per_s: w(),
            status_ns: w(),
            snapshot_ms: w(),
            candidates_ms: w(),
            observe_ms: w(),
            cycle_ms: w(),
            render_ms: w(),
            bytes_per_peer: 0.0,
            reads: 0,
            false_suspects: 0,
            scrapes: 0,
            short_families: 0,
            leader_changes: 0,
        }
    }

    fn metrics_into(&self, result: &mut WorkloadResult) {
        let mut put = |name: &'static str, w: &Windowed| {
            result.set_reported(name, &w.report(P50), 1.0);
        };
        put("status_reads_per_s", &self.reads_per_s);
        put("consumer_cycle_ms_p50", &self.cycle_ms);
        put("scrape_ms_p50", &self.render_ms);
        put("read.status_ns_p50", &self.status_ns);
        put("read.snapshot_ms_p50", &self.snapshot_ms);
        put("exporter.render_ms_p50", &self.render_ms);
        put("election.candidates_ms_p50", &self.candidates_ms);
        put("election.observe_ms_p50", &self.observe_ms);
        result.set("exporter.bytes_per_peer", self.bytes_per_peer);
        result.set("election.leader_changes", self.leader_changes as f64);
    }
}

/// Thread B: closed-loop consumer cycles over the measured phase.
fn consume(
    ctx: &Ctx,
    monitor: &ClusterMonitor,
    targets: &[u64],
    down: &HashMap<u64, Vec<(f64, f64)>>,
    (from, to): (f64, f64),
    tracer: &mut Tracer,
) -> Cycles {
    let mut c = Cycles::new();
    let mut elector = CrashRecoveryElector::new(ElectionConfig {
        min_stability: 1.0,
        hysteresis: HysteresisConfig {
            min_dwell: 0.5,
            deadband: 0.10,
        },
    });
    let span_s = to - from;
    let (mut cursor, mut cycle, mut leader) = (0usize, 0u64, None);
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    loop {
        let started = ctx.now();
        if started >= to {
            break;
        }
        cycle += 1;
        let window = c.cycle_ms.window_of(started - from, span_s);
        let whole = tracer.open("consumer.cycle", 0, cycle);

        let span = tracer.open("read.status", whole.id, cycle);
        let t = Instant::now();
        let mut suspects = Vec::new();
        for _ in 0..READS_PER_CYCLE {
            let peer = targets[cursor];
            cursor = (cursor + 1) % targets.len();
            match monitor.status(peer) {
                Some(s) if s.output.is_trust() => {}
                _ => suspects.push(peer),
            }
        }
        let block_s = t.elapsed().as_secs_f64();
        tracer.close(span);
        let read_at = ctx.now();
        c.reads += READS_PER_CYCLE as u64;
        c.false_suspects += suspects
            .iter()
            .filter(|p| {
                !down
                    .get(p)
                    .is_some_and(|spans| spans.iter().any(|&(a, b)| read_at >= a && started <= b))
            })
            .count() as u64;

        let span = tracer.open("read.snapshot", whole.id, cycle);
        let t = Instant::now();
        let snapshot = monitor.snapshot();
        let snapshot_ms = ms(t);
        tracer.close(span);
        std::hint::black_box(snapshot.len());

        let span = tracer.open("election.candidates", whole.id, cycle);
        let t = Instant::now();
        let candidates = monitor.election_candidates();
        let candidates_ms = ms(t);
        tracer.close(span);
        let span = tracer.open("election.observe", whole.id, cycle);
        let t = Instant::now();
        let state = elector.observe(monitor.now(), &candidates);
        let observe_ms = ms(t);
        tracer.close(span);
        if state.incumbent() != leader {
            c.leader_changes += u64::from(leader.is_some());
            leader = state.incumbent();
        }

        let mut render_ms = 0.0;
        let mut body = None;
        if cycle % SCRAPE_EVERY == 0 {
            let span = tracer.open("exporter.render", whole.id, cycle);
            let t = Instant::now();
            body = Some(render_prometheus(monitor));
            render_ms = ms(t);
            tracer.close(span);
        }
        tracer.close(whole);

        c.reads_per_s.push(window, READS_PER_CYCLE as f64 / block_s);
        c.status_ns
            .push(window, block_s * 1e9 / READS_PER_CYCLE as f64);
        c.snapshot_ms.push(window, snapshot_ms);
        c.candidates_ms.push(window, candidates_ms);
        c.observe_ms.push(window, observe_ms);
        c.cycle_ms.push(
            window,
            block_s * 1e3 + snapshot_ms + candidates_ms + observe_ms + render_ms,
        );
        if let Some(body) = body {
            c.render_ms.push(window, render_ms);
            c.scrapes += 1;
            c.bytes_per_peer = body.len() as f64 / PEERS as f64;
            c.short_families += families_missing_a_peer(&body);
        }
    }
    c
}

/// How many of [`PER_PEER_FAMILIES`] do not have exactly one sample line
/// per peer in a scrape body.
fn families_missing_a_peer(body: &str) -> u64 {
    let mut lines = [0u64; PER_PEER_FAMILIES.len()];
    for line in body.lines() {
        if let Some((family, _)) = line.split_once('{') {
            if let Some(i) = PER_PEER_FAMILIES.iter().position(|f| *f == family) {
                lines[i] += 1;
            }
        }
    }
    lines.iter().filter(|&&n| n != PEERS).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_check_counts_sample_lines_per_family() {
        let mut body = String::from("# HELP fd_peer_output x\n# TYPE fd_peer_output gauge\n");
        for f in PER_PEER_FAMILIES {
            for p in 0..PEERS {
                body.push_str(&format!("{f}{{peer=\"{p}\"}} 1\n"));
            }
        }
        assert_eq!(families_missing_a_peer(&body), 0);
        let cut = body.rfind("fd_peer_qos_state{").unwrap();
        assert_eq!(families_missing_a_peer(&body[..cut]), 1);
    }

    #[test]
    fn the_tenth_victim_is_predicted_to_lead() {
        let sched = Schedule {
            peers: PEERS,
            slice: SLICE,
            eta_slices: ETA_SLICES,
            first_crash: 4_000,
            last_crash: 6_000,
            crash_every: CRASH_EVERY,
            down_slices: DOWN_SLICES,
            min_life_hb: 33,
            oldest_every: 10,
        };
        let plan = sched.outages(5);
        assert_eq!(plan.len(), 21);
        // Slot 0, lowest id not yet restarted: peer 0 unless a seeded
        // victim happened to take it first.
        assert_eq!(sched.slot_of(plan[9].peer), 0);
        assert_eq!(sched.slot_of(plan[19].peer), 0);
        assert_ne!(plan[9].peer, plan[19].peer);
    }
}
