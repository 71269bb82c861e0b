//! E18 — live QoS observability smoke: a 100-peer cluster scraped over
//! HTTP while it runs.
//!
//! The paper's metrics (§2) are defined over a *recorded* output stream;
//! PR 4 adds online trackers so the same numbers are available while the
//! detector runs. This experiment drives a 100-peer [`ClusterMonitor`]
//! through a crash/recover episode, scrapes the [`MetricsExporter`] in
//! one HTTP GET, and asserts that the exposition is complete and sane:
//!
//! * every peer exports `fd_peer_query_accuracy` with `P_A ∈ [0, 1]`;
//! * crashed-and-recovered peers export a completed mistake duration
//!   (`fd_peer_mean_mistake_duration_seconds`), untouched peers do not;
//! * scraped suspicion counters agree with the registry's own counters;
//! * the JSON view parses the same peers.
//!
//! `--smoke` shortens the drive phases for CI; the assertions are
//! identical.

use fd_bench::report::fmt_num;
use fd_bench::{http_get, Table};
use fd_cluster::{ClusterConfig, ClusterMonitor, MetricsExporter, PeerConfig, PeerId};
use fd_core::Heartbeat;
use std::time::{Duration, Instant};

const N_PEERS: u64 = 100;
const ETA: f64 = 0.02;
const ALPHA: f64 = 0.08;

/// Peers scripted to crash mid-run (every 10th).
fn crashes(p: PeerId) -> bool {
    p.is_multiple_of(10)
}

/// Extracts every `name{peer="<id>"} <value>` sample of one metric
/// family from a Prometheus text exposition.
fn parse_family(body: &str, name: &str) -> Vec<(PeerId, f64)> {
    body.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(name)?.strip_prefix("{peer=\"")?;
            let (peer, value) = rest.split_once("\"}")?;
            Some((peer.parse().ok()?, value.trim().parse().ok()?))
        })
        .collect()
}

/// One drive phase: every heartbeat period, all live peers heartbeat.
/// During the crash window the scripted peers send nothing; after it
/// they send as incarnation 2 with restarted sequence numbers (a
/// restarted process, not a resumed one).
fn drive_phase(
    monitor: &ClusterMonitor,
    seq: &mut u64,
    recovered_seq: &mut u64,
    crashed_alive: bool,
    recovered: bool,
    for_secs: f64,
) {
    let until = Instant::now() + Duration::from_secs_f64(for_secs);
    while Instant::now() < until {
        *seq += 1;
        if recovered {
            *recovered_seq += 1;
        }
        let now = monitor.now();
        for p in 1..=N_PEERS {
            if crashes(p) {
                if recovered {
                    monitor.record_incarnated(p, 2, Heartbeat::new(*recovered_seq, now));
                } else if crashed_alive {
                    monitor.record(p, Heartbeat::new(*seq, now));
                }
            } else {
                monitor.record(p, Heartbeat::new(*seq, now));
            }
        }
        std::thread::sleep(Duration::from_secs_f64(ETA));
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (up, down, tail) = if smoke { (0.6, 0.3, 0.4) } else { (1.2, 0.5, 0.6) };
    println!(
        "E18 — live QoS: {N_PEERS} peers, crash/recover for every 10th, one scrape{}\n",
        if smoke { " (smoke)" } else { "" }
    );

    let monitor = ClusterMonitor::spawn(ClusterConfig { tick: 0.005, ..ClusterConfig::default() })
        .expect("spawn monitor");
    for p in 1..=N_PEERS {
        monitor.add_peer(p, PeerConfig::new(ETA, ALPHA).window(8)).expect("add peer");
    }
    let exporter =
        MetricsExporter::bind("127.0.0.1:0", monitor.clone()).expect("bind exporter");

    let (mut seq, mut recovered_seq) = (0, 0);
    // Phase 1: everyone heartbeats for `up` seconds.
    drive_phase(&monitor, &mut seq, &mut recovered_seq, true, false, up);
    // Phase 2: every 10th peer goes silent long enough to be suspected.
    drive_phase(&monitor, &mut seq, &mut recovered_seq, false, false, down);
    // Phase 3: the crashed peers come back as a new incarnation and
    // everyone heartbeats until the scrape.
    drive_phase(&monitor, &mut seq, &mut recovered_seq, true, true, tail);

    // The scrape: one GET while heartbeats are still warm (the helper
    // fails the run unless it is answered `200 OK`).
    let scrape_start = Instant::now();
    let (head, body) = http_get(exporter.local_addr(), "/metrics");
    let scrape_ms = scrape_start.elapsed().as_secs_f64() * 1e3;
    assert!(head.contains("text/plain; version=0.0.4"), "wrong content type: {head}");

    let accuracy = parse_family(&body, "fd_peer_query_accuracy");
    let suspicions = parse_family(&body, "fd_peer_suspicions_total");
    let durations = parse_family(&body, "fd_peer_mean_mistake_duration_seconds");
    let crashed: Vec<PeerId> = (1..=N_PEERS).filter(|&p| crashes(p)).collect();

    let mut table = Table::new(&["metric", "value"]);
    table.row(&["peers scraped".into(), accuracy.len().to_string()]);
    table.row(&["scrape time (ms)".into(), fmt_num(scrape_ms)]);
    table.row(&["exposition bytes".into(), body.len().to_string()]);
    let min_pa = accuracy.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
    table.row(&["min P_A".into(), fmt_num(min_pa)]);
    table.row(&[
        "peers with completed mistake".into(),
        format!("{}/{}", durations.len(), crashed.len()),
    ]);
    table.print();
    println!();

    // Completeness: one P_A sample per peer, all within [0, 1].
    assert_eq!(accuracy.len() as u64, N_PEERS, "missing fd_peer_query_accuracy series");
    for (p, pa) in &accuracy {
        assert!((0.0..=1.0).contains(pa), "peer {p}: P_A = {pa} out of range");
    }
    // The crashed peers were suspected and lived to tell: P_A < 1 and a
    // completed mistake duration each.
    for &p in &crashed {
        let pa = accuracy.iter().find(|(q, _)| *q == p).expect("present").1;
        assert!(pa < 1.0, "peer {p} crashed yet P_A = {pa}");
        let s = suspicions.iter().find(|(q, _)| *q == p).expect("present").1;
        assert!(s >= 1.0, "peer {p} crashed yet suspicions = {s}");
        assert!(
            durations.iter().any(|(q, _)| *q == p),
            "peer {p} recovered but exports no mean mistake duration"
        );
    }
    // Scraped counters must agree with the registry (counters only move
    // when new heartbeats/expirations land, and the scrape is fresh; the
    // registry may at most have moved ahead).
    for (p, s) in &suspicions {
        let live = monitor.status(*p).expect("registered").counters.suspicions;
        assert!(
            (*s as u64) <= live,
            "peer {p}: scraped suspicions {s} ahead of registry {live}"
        );
    }
    // The JSON view serves the same peers.
    let (_, json_body) = http_get(exporter.local_addr(), "/metrics.json");
    assert_eq!(
        json_body.matches("{\"peer\":").count() as u64,
        N_PEERS,
        "JSON view is missing peers"
    );

    exporter.shutdown();
    monitor.shutdown();
    println!("all live-qos assertions passed");
}
