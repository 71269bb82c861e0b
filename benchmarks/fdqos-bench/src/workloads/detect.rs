//! `steady_detect` and `persist_detect`: the paper's regime at scale.
//!
//! 20 000 peers at `η = 0.2 s`, `α = 0.3 s`, each its own sender (one
//! heartbeat per datagram), open loop in 1 ms slices. Every 3 ms a seeded
//! victim with a full estimator window stops; `2(η+α)` later it returns
//! at the next incarnation. A second thread blocks on `subscribe()` and
//! stamps each event on receipt. `persist_detect` is the same run with a
//! snapshot written every second, then a restore from the file.

use super::probes::{staged_replay, wheel_probe, Replay};
use super::{repeated_setup, Ctx, Drive, Live, LiveSpec, WINDOWS};
use crate::gen::{cluster_clock_offset, Outage, Schedule};
use crate::report::WorkloadResult;
use crate::stats::{median, Windowed, P50, P99};
use crate::trace::Tracer;
use crossbeam::channel::{Receiver, RecvTimeoutError};
use fd_cluster::snapshot::{decode_snapshot, encode_snapshot};
use fd_cluster::{ClusterConfig, ClusterMonitor, MembershipChange, MembershipEvent, PeerConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PEERS: u64 = 20_000;
const ETA: f64 = 0.2;
const ALPHA: f64 = 0.3;
const SLICE: f64 = 0.001;
const ETA_SLICES: u64 = 200;
/// Long enough for every peer to have sent 33 heartbeats, so the first
/// victims already have a full estimator window of 32.
const WARMUP_S: f64 = 7.0;
/// Time after the last crash for its victim to return and be trusted.
const TAIL_S: f64 = 1.5;
const CRASH_EVERY: u64 = 3;
/// `2(η+α)` in slices.
const DOWN_SLICES: u64 = 1_000;
const MIN_LIFE_HB: u64 = 33;
/// A crash not suspected within `3(η+α)` of the victim's last heartbeat,
/// or a return not trusted within 1 s, counts as failed.
const SUSPECT_LIMIT_S: f64 = 3.0 * (ETA + ALPHA);
const TRUST_LIMIT_S: f64 = 1.0;
/// A membership event with the bench time it reached the subscriber.
#[derive(Debug, Clone, Copy)]
pub struct Stamped {
    pub peer: u64,
    pub change: MembershipChange,
    /// `event.at`, on the monitor's cluster clock.
    pub at: f64,
    /// Receipt, seconds since the run's origin.
    pub seen: f64,
}

/// Blocks on the subscription and stamps each event as it arrives, until
/// `stop` is set and the channel has gone quiet.
pub fn spawn_subscriber(
    events: Receiver<MembershipEvent>,
    origin: Instant,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<Vec<Stamped>> {
    std::thread::Builder::new()
        .name("bench-subscriber".into())
        .spawn(move || {
            let mut seen = Vec::new();
            loop {
                match events.recv_timeout(Duration::from_millis(20)) {
                    Ok(e) => seen.push(Stamped {
                        peer: e.peer,
                        change: e.change,
                        at: e.at,
                        seen: origin.elapsed().as_secs_f64(),
                    }),
                    Err(RecvTimeoutError::Timeout) if !stop.load(Ordering::Acquire) => {}
                    Err(_) => return seen,
                }
            }
        })
        .expect("spawn subscriber thread")
}

/// The latency samples of a run, in seconds, by window of the measured
/// phase the crash fell in.
struct Latencies {
    excess: Windowed,
    td: Windowed,
    lag: Windowed,
    fanout: Windowed,
    retrust: Windowed,
    path: Windowed,
}

impl Latencies {
    fn new() -> Self {
        let w = || Windowed::new(WINDOWS);
        Self {
            excess: w(),
            td: w(),
            lag: w(),
            fanout: w(),
            retrust: w(),
            path: w(),
        }
    }

    fn metrics_into(&self, result: &mut WorkloadResult) {
        let mut put = |metric: &'static str, sample: &Windowed, level: usize, scale: f64| {
            result.set_reported(metric, &sample.report(level), scale);
        };
        put("detect_excess_ms_p50", &self.excess, P50, 1e3);
        put("detect_excess_ms_p99", &self.excess, P99, 1e3);
        put("detect_td_ms_p99", &self.td, P99, 1e3);
        put("retrust_us_p50", &self.retrust, P50, 1e6);
        put("retrust_us_p99", &self.retrust, P99, 1e6);
        put("ticker.lag_us_p50", &self.lag, P50, 1e6);
        put("ticker.lag_us_p99", &self.lag, P99, 1e6);
        put("events.fanout_us_p50", &self.fanout, P50, 1e6);
        put("events.fanout_us_p99", &self.fanout, P99, 1e6);
        put("ingest.path_us_p50", &self.path, P50, 1e6);
        put("ingest.path_us_p99", &self.path, P99, 1e6);
    }
}

/// One crash seen by the subscriber; all times are bench seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seen {
    /// Index into the outage list.
    pub outage: usize,
    /// `event.at` converted to bench time.
    pub at: f64,
    pub seen: f64,
}

/// The subscriber's events matched against the schedule.
#[derive(Debug, Default, PartialEq)]
pub struct Matched {
    pub suspected: Vec<Seen>,
    pub trusted: Vec<Seen>,
    /// Crashes with no `Suspected` event, returns with no `Trusted`.
    pub missed_crashes: u64,
    pub missed_returns: u64,
    /// `Suspected` or `Trusted` events the schedule does not explain: a
    /// suspicion of a live peer, or its correction.
    pub unexplained: u64,
}

/// Matches events to outages. `base` is the bench time of slice 0 and
/// `offset` turns a cluster-clock time into a bench time (`at − offset`).
/// A peer's events must read: `Trusted` (its first heartbeat), then for
/// each outage `Suspected` after the last heartbeat of the old life and
/// `Trusted` no earlier than the first of the new one.
pub fn match_events(
    sched: &Schedule,
    outages: &[Outage],
    base: f64,
    offset: f64,
    events: &[Stamped],
) -> Matched {
    let mut per_peer: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, o) in outages.iter().enumerate() {
        per_peer.entry(o.peer).or_default().push(i);
    }
    // Per peer: outages done, whether the current one has been suspected,
    // whether the initial Trusted has been seen.
    let mut progress: HashMap<u64, (usize, bool, bool)> = HashMap::new();
    let mut m = Matched::default();
    // Clock-offset error and float rounding, generously.
    let slack = 0.5 * sched.slice;
    for e in events {
        let at = e.at - offset;
        let (done, suspected, greeted) = progress.entry(e.peer).or_insert((0, false, false));
        let current = per_peer
            .get(&e.peer)
            .and_then(|list| list.get(*done))
            .copied();
        match e.change {
            MembershipChange::Trusted => match current {
                Some(i) if *suspected && at + slack >= base + sched.secs(outages[i].first_due) => {
                    m.trusted.push(Seen {
                        outage: i,
                        at,
                        seen: e.seen,
                    });
                    *done += 1;
                    *suspected = false;
                }
                _ if !*greeted && *done == 0 && !*suspected => *greeted = true,
                _ => m.unexplained += 1,
            },
            MembershipChange::Suspected => match current {
                Some(i) if !*suspected && at > base + sched.secs(outages[i].last_due) => {
                    m.suspected.push(Seen {
                        outage: i,
                        at,
                        seen: e.seen,
                    });
                    *suspected = true;
                }
                _ => m.unexplained += 1,
            },
            _ => {}
        }
    }
    m.missed_crashes = outages.len() as u64 - m.suspected.len() as u64;
    m.missed_returns = outages.len() as u64 - m.trusted.len() as u64;
    m
}

pub fn run(ctx: &Ctx, persist: bool) -> WorkloadResult {
    let name = if persist {
        "persist_detect"
    } else {
        "steady_detect"
    };
    super::until_undisturbed(name, || run_once(ctx, name, persist))
}

/// One attempt; returns the result and the generator's worst lateness.
fn run_once(ctx: &Ctx, name: &'static str, persist: bool) -> (WorkloadResult, f64) {
    let mut result = WorkloadResult::new(name);
    let spec = LiveSpec {
        peers: PEERS,
        peer: PeerConfig::new(ETA, ALPHA).window(32),
        max_batch: 1,
        persist,
    };
    let mut live = repeated_setup(&mut result, || Live::build(spec), Live::teardown);
    let up_since = ctx.now();
    result.set("monitor.add_peer_us", live.add_peer_s * 1e6 / PEERS as f64);

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
        min_life_hb: MIN_LIFE_HB,
        oldest_every: 0,
    };
    let outages = sched.outages(ctx.seed);

    let stop = Arc::new(AtomicBool::new(false));
    let subscriber = spawn_subscriber(live.monitor.subscribe(), ctx.origin, Arc::clone(&stop));
    let monitor = live.monitor.clone();
    let offset = cluster_clock_offset(move || monitor.now(), ctx.origin);
    let drive = Drive {
        sched: &sched,
        outages: &outages,
        base: ctx.now() + 0.05,
        total_slices: warm + measured + (TAIL_S / SLICE) as u64,
        measured: warm..warm + measured,
    };
    let mut tracer = Tracer::new(ctx.traced, ctx.origin, 0);
    let tx = &mut live.tx;
    let driven = drive.play(ctx.origin, &mut tracer, |peer, incarnation, seq, due| {
        // max_batch is 1: every queue is its own datagram and syscall.
        tx.queue_incarnated(peer, incarnation, seq, due + offset)
            .expect("queue");
    });
    live.tx.flush().expect("flush");
    live.drain(driven.sent, 2.0);
    stop.store(true, Ordering::Release);
    let events = subscriber.join().expect("subscriber thread");
    // Before the restore leg and the probes allocate anything of their own.
    result.set("peak_rss_mb", crate::sys::peak_rss_mb());

    let disturbed = driven.lateness_into(&mut result);
    if disturbed {
        println!("# {name}: disturbed — the generator's p99 lateness is above 5 ms, latencies include it");
    }
    result.set("hb_per_s", driven.sent_measured as f64 / driven.measured_s);
    result.set(
        "cpu_us_per_hb",
        driven.cpu_measured_s * 1e6 / driven.sent_measured.max(1) as f64,
    );

    // Latencies, timed from the instant the triggering send was due.
    let m = match_events(&sched, &outages, drive.base, offset, &events);
    let mut lat = Latencies::new();
    let crashed_s = |o: &Outage| sched.secs(o.crash - warm);
    let (mut late_suspicions, mut late_trusts) = (0u64, 0u64);
    for s in &m.suspected {
        let o = &outages[s.outage];
        let last_due = drive.due(o.last_due);
        let bound_at = last_due + ETA + ALPHA;
        let window = lat.excess.window_of(crashed_s(o), ctx.seconds);
        lat.excess.push(window, s.seen - bound_at);
        lat.td.push(window, s.seen - drive.due(o.crash));
        lat.lag.push(window, s.at - bound_at);
        lat.fanout.push(window, s.seen - s.at);
        late_suspicions += u64::from(s.seen - last_due > SUSPECT_LIMIT_S);
        let root = tracer.push("detect", bound_at, s.seen, 0, s.outage as u64);
        tracer.push("ticker.lag", bound_at, s.at, root, s.outage as u64);
        tracer.push("events.fanout", s.at, s.seen, root, s.outage as u64);
    }
    for t in &m.trusted {
        let o = &outages[t.outage];
        let first_due = drive.due(o.first_due);
        let window = lat.retrust.window_of(crashed_s(o), ctx.seconds);
        lat.retrust.push(window, t.seen - first_due);
        lat.path.push(window, t.at - first_due);
        lat.fanout.push(window, t.seen - t.at);
        late_trusts += u64::from(t.seen - first_due > TRUST_LIMIT_S);
        let root = tracer.push("retrust", first_due, t.seen, 0, t.outage as u64);
        tracer.push("ingest.path", first_due, t.at, root, t.outage as u64);
        tracer.push("events.fanout", t.at, t.seen, root, t.outage as u64);
    }
    lat.metrics_into(&mut result);
    println!(
        "# {name}: T_D p99 {:.3} ms against the paper's bound η + α + tick = {:.0} ms; {} crashes, {} returns",
        result.get("detect_td_ms_p99").unwrap_or(0.0),
        (ETA + ALPHA + 0.001) * 1e3,
        m.suspected.len(),
        m.trusted.len()
    );

    let crashes = outages.len() as u64;
    let received = live.rx.entries_received();
    result.check(
        driven.sent,
        driven.sent.saturating_sub(received),
        "heartbeats sent but not recorded",
    );
    result.check(
        live.rx.datagrams_received() + live.rx.rejected(),
        live.rx.rejected(),
        "datagrams rejected",
    );
    result.check(
        crashes,
        m.missed_crashes + late_suspicions,
        "crashes not suspected within 3(η+α)",
    );
    result.check(
        crashes,
        m.missed_returns + late_trusts,
        "returns not trusted within 1 s",
    );
    result.check(
        events.len() as u64,
        m.unexplained,
        "events for a peer that was not down",
    );
    let stats = live.monitor.stats();
    result.check(
        events.len() as u64,
        stats.events_dropped,
        "events dropped before the subscriber",
    );
    live.counters_into(&mut result, driven.sent, ctx.now() - up_since);
    // A timer that fires and finds its peer refreshed did no useful work.
    result.set(
        "wheel.useful_fire_frac",
        m.suspected.len() as f64 / (stats.timers_fired.max(1)) as f64,
    );

    if ctx.traced {
        result.set(
            "net.send_ns_per_hb",
            driven.send_ns as f64 / driven.sent.max(1) as f64,
        );
        // One and a half seconds of this run's deadlines: every heartbeat
        // arms a timer due η + α later.
        let armed: Vec<(f64, f64)> = (0..1_500)
            .flat_map(|s| {
                sched
                    .due_in(s)
                    .map(move |_| (s as f64 * SLICE, s as f64 * SLICE + ETA + ALPHA))
            })
            .collect();
        wheel_probe(&mut result, &armed, 1.5 + ETA + ALPHA, &mut tracer);
    }

    let Live {
        monitor,
        rx,
        snapshot_path,
        ..
    } = live;
    rx.shutdown();
    let monitor = match snapshot_path {
        Some(path) => restore_from(&mut result, monitor, &path, &mut tracer),
        None => monitor,
    };
    if ctx.traced {
        probe_ingest(&mut result, &monitor, &mut tracer);
    }
    monitor.shutdown();
    result.spans = tracer.into_spans();
    (result, driven.worst_late_s)
}

/// The persistence leg: shut down (so no periodic snapshot runs beside
/// the timed ones), time `save_snapshot()`, check the file decodes and
/// re-encodes to the same bytes, respawn from it three times and report
/// the median spawn time as `restore_ms`. Returns the last restored
/// monitor.
fn restore_from(
    result: &mut WorkloadResult,
    monitor: ClusterMonitor,
    path: &std::path::Path,
    tracer: &mut Tracer,
) -> ClusterMonitor {
    monitor.shutdown();
    let mut save_ms = Vec::new();
    for rep in 0..3 {
        let span = tracer.open("snapshot.save", 0, rep);
        let t = Instant::now();
        let written = monitor.save_snapshot();
        save_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.close(span);
        result.check(1, u64::from(!written), "save_snapshot() wrote nothing");
    }
    result.set_windows("snapshot.save_ms_p50", median(&save_ms), save_ms);
    let written = monitor.stats();
    drop(monitor);

    let bytes = std::fs::read(path).unwrap_or_default();
    let span = tracer.open("snapshot.decode", 0, 0);
    let t = Instant::now();
    let decoded = decode_snapshot(&bytes);
    let decode_s = t.elapsed().as_secs_f64();
    tracer.close(span);
    match decoded {
        Ok(snap) => {
            let span = tracer.open("snapshot.encode", 0, 0);
            let t = Instant::now();
            let again = encode_snapshot(&snap);
            let encode_s = t.elapsed().as_secs_f64();
            tracer.close(span);
            result.check(
                1,
                u64::from(again != bytes),
                "snapshot decode → encode is not byte-identical",
            );
            let n = snap.peers.len().max(1) as f64;
            result.set("snapshot.encode_us_per_peer", encode_s * 1e6 / n);
            result.set("snapshot.decode_us_per_peer", decode_s * 1e6 / n);
            result.set("snapshot.bytes_per_peer", bytes.len() as f64 / n);
        }
        Err(e) => result.check(1, 1, &format!("snapshot file does not decode: {e:?}")),
    }

    let mut restore_ms = Vec::new();
    let mut last = None;
    for rep in 0..3 {
        if let Some(prev) = last.take() {
            // Shutting down rewrites the file from the restored state.
            ClusterMonitor::shutdown(&prev);
        }
        let span = tracer.open("snapshot.restore", 0, rep);
        let t = Instant::now();
        let restored = ClusterMonitor::spawn(ClusterConfig {
            event_capacity: super::EVENT_CAPACITY,
            snapshot_path: Some(path.to_path_buf()),
            ..ClusterConfig::default()
        })
        .expect("respawn from the snapshot");
        let peers = restored.stats().peers_restored;
        restore_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.close(span);
        result.check(
            PEERS,
            PEERS.abs_diff(peers),
            "peers not restored from the snapshot",
        );
        last = Some(restored);
    }
    result.set_windows("restore_ms", median(&restore_ms), restore_ms);
    result.set("snapshot.written", written.snapshots_written as f64);
    result.set("snapshot.errors", written.snapshot_errors as f64);
    last.expect("three restores")
}

/// Traced runs only: replays the one-heartbeat-per-datagram ingest path
/// stage by stage for a quarter second, against probe peers registered beside
/// the run's own.
fn probe_ingest(result: &mut WorkloadResult, monitor: &ClusterMonitor, tracer: &mut Tracer) {
    const PROBE_BASE: u64 = 1 << 40;
    let peers: Vec<u64> = (0..2_048).map(|i| PROBE_BASE + i).collect();
    for &p in &peers {
        monitor
            .add_peer(p, PeerConfig::new(60.0, 120.0))
            .expect("add probe peer");
    }
    let replay = Replay {
        peers: &peers,
        incarnation: 0,
        first_seq: 1,
        max_batch: 1,
        block: 256,
        seconds: 0.25,
    };
    let costs = staged_replay(monitor, replay, tracer);
    result.check(
        costs.datagrams + costs.lost,
        costs.lost,
        "probe datagrams lost on loopback",
    );
    costs.metrics_into(result);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> Schedule {
        Schedule {
            peers: 400,
            slice: 0.001,
            eta_slices: 200,
            first_crash: 7_000,
            last_crash: 7_000,
            crash_every: 3,
            down_slices: 1_000,
            min_life_hb: 33,
            oldest_every: 0,
        }
    }

    fn ev(peer: u64, change: MembershipChange, at: f64) -> Stamped {
        Stamped {
            peer,
            change,
            at: at + 100.0,
            seen: at + 0.0005,
        }
    }

    #[test]
    fn a_clean_run_matches_every_outage() {
        let s = sched();
        let outages = s.outages(3);
        assert_eq!(outages.len(), 1);
        let o = outages[0];
        let bystander = (o.peer + 1) % s.peers;
        let events = vec![
            ev(o.peer, MembershipChange::Trusted, 0.01),
            ev(bystander, MembershipChange::Trusted, 0.02),
            ev(
                o.peer,
                MembershipChange::Suspected,
                s.secs(o.last_due) + 0.501,
            ),
            ev(
                o.peer,
                MembershipChange::Trusted,
                s.secs(o.first_due) + 0.0002,
            ),
        ];
        let m = match_events(&s, &outages, 0.0, 100.0, &events);
        assert_eq!(
            (m.missed_crashes, m.missed_returns, m.unexplained),
            (0, 0, 0)
        );
        assert_eq!(m.suspected.len(), 1);
        assert!((m.suspected[0].at - (s.secs(o.last_due) + 0.501)).abs() < 1e-9);
        assert!((m.trusted[0].seen - m.trusted[0].at - 0.0005).abs() < 1e-9);
    }

    #[test]
    fn a_suspicion_of_a_live_peer_is_unexplained_and_a_silent_crash_is_missed() {
        let s = sched();
        let outages = s.outages(3);
        let o = outages[0];
        let bystander = (o.peer + 1) % s.peers;
        let events = vec![
            ev(o.peer, MembershipChange::Trusted, 0.01),
            ev(bystander, MembershipChange::Trusted, 0.02),
            ev(bystander, MembershipChange::Suspected, 3.0),
            ev(bystander, MembershipChange::Trusted, 3.1),
        ];
        let m = match_events(&s, &outages, 0.0, 100.0, &events);
        assert_eq!(m.unexplained, 2);
        assert_eq!((m.missed_crashes, m.missed_returns), (1, 1));
    }
}
