//! E23 — crash-recovery leader election under churn.
//!
//! Three parts, every one seeded and deterministic:
//!
//! 1. **SMC sweep** — randomized crash–recover election scenarios
//!    (leader crashes, restart storms, dwell-sized blips,
//!    stale-incarnation replays) judged by the three election oracles
//!    and decided by Wald's SPRT: no stale-incarnation leader (hard),
//!    crash→re-election inside the detection bound + 2 s, spurious
//!    demotion rate under 20%.
//! 2. **Churn sweep at scale** — a 120-peer cluster (24 in smoke)
//!    driven deterministically across churn rates from 5% to 30% of
//!    the membership bouncing per phase, with periodic leader crashes
//!    and a closing restart storm in which half the cluster bounces at
//!    once while the leader keeps beating. Asserted per drive: every
//!    leader crash is followed by an election within the budget, no
//!    election ever installs a stale incarnation, the spurious-demotion
//!    rate stays under threshold, and the restart storm does not unseat
//!    the leader.
//! 3. **Exporter scrape** — a live [`MetricsExporter`] with the
//!    [`LeaderMetrics`] source attached must serve the `fd_leader_*`
//!    Prometheus series and the `"leader"` JSON document.
//!
//! The combined report is written to `results/ELECTION_report.json`;
//! the process exits nonzero on any violation. `--smoke` shrinks every
//! sweep to CI size without weakening the assertions.

use fd_bench::Settings;
use fd_cluster::{
    ClusterConfig, ClusterMonitor, CrashRecoveryElector, ElectionConfig,
    ElectionEvent, LeaderMetrics, MetricsExporter, MetricsSource, PeerConfig,
};
use fd_core::{Heartbeat, HysteresisConfig};
use fd_metrics::LeaderQosReport;
use fd_smc::{
    run_election_scenario, run_smc, ElectionLatencyOracle, ElectionRunRecord,
    ElectionStabilityOracle, Oracle, SmcConfig, SmcReport, SpuriousDemotionOracle,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;

/// Heartbeat period every peer runs with.
const ETA: f64 = 1.0;
/// Detector safety margin; detection bound is `ETA + ALPHA`.
const ALPHA: f64 = 2.0;
/// The E23 election-latency budget: detection bound plus two seconds.
const BUDGET: f64 = ETA + ALPHA + 2.0;
/// Observation cadence of the deterministic drives.
const DT: f64 = 0.25;

fn elector() -> CrashRecoveryElector {
    CrashRecoveryElector::new(ElectionConfig {
        // A 2 s stability bar and a 1 s demotion dwell: handoffs fit
        // the budget with margin for the observation cadence.
        min_stability: 2.0,
        hysteresis: HysteresisConfig {
            min_dwell: 1.0,
            deadband: 0.10,
        },
    })
}

// ---------------------------------------------------------------- part 1

fn run_smc_sweep(cfg: &SmcConfig) -> SmcReport {
    let oracles: Vec<Box<dyn Oracle<ElectionRunRecord>>> = vec![
        Box::new(ElectionStabilityOracle),
        Box::new(ElectionLatencyOracle),
        Box::new(SpuriousDemotionOracle),
    ];
    run_smc(cfg, run_election_scenario, &oracles)
}

// ---------------------------------------------------------------- part 2

/// Outcome of one churn drive.
struct ChurnOutcome {
    rate: f64,
    peers: u64,
    crashes: usize,
    /// Crash→election latencies actually measured.
    latencies: Vec<f64>,
    /// Crashes never followed by an election inside the horizon.
    missed: usize,
    /// Elections that installed an incarnation below the high-water
    /// mark (must be zero).
    stale_elected: u64,
    /// Demotions of the sitting leader during the restart storm (must
    /// be zero — the leader kept beating throughout).
    storm_demotions: usize,
    report: LeaderQosReport,
}

impl ChurnOutcome {
    fn max_latency(&self) -> f64 {
        self.latencies.iter().cloned().fold(0.0, f64::max)
    }

    fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            0.0
        } else {
            self.latencies.iter().sum::<f64>() / self.latencies.len() as f64
        }
    }

    fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.missed > 0 {
            v.push(format!(
                "rate {:.2}: {} leader crash(es) never recovered by an election",
                self.rate, self.missed
            ));
        }
        if self.max_latency() > BUDGET {
            v.push(format!(
                "rate {:.2}: election latency {:.2}s exceeds budget {BUDGET:.2}s",
                self.rate,
                self.max_latency()
            ));
        }
        if self.stale_elected > 0 {
            v.push(format!(
                "rate {:.2}: {} stale-incarnation election(s)",
                self.rate, self.stale_elected
            ));
        }
        if self.report.demotions > 0 && self.report.spurious_demotion_rate > 0.20 {
            v.push(format!(
                "rate {:.2}: spurious demotion rate {:.3} over 0.20",
                self.rate, self.report.spurious_demotion_rate
            ));
        }
        if self.storm_demotions > 0 {
            v.push(format!(
                "rate {:.2}: restart storm unseated the leader {} time(s)",
                self.rate, self.storm_demotions
            ));
        }
        v
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"rate\":{},\"peers\":{},\"crashes\":{},\"max_latency\":{:.4},\
             \"mean_latency\":{:.4},\"missed\":{},\"stale_elected\":{},\
             \"storm_demotions\":{},\"elections\":{},\"demotions\":{},\
             \"spurious_rate\":{:.4},\"availability\":{:.4}}}",
            self.rate,
            self.peers,
            self.crashes,
            self.max_latency(),
            self.mean_latency(),
            self.missed,
            self.stale_elected,
            self.storm_demotions,
            self.report.elections,
            self.report.demotions,
            self.report.spurious_demotion_rate,
            self.report.availability,
        )
    }
}

/// One deterministic churn drive: `n` peers, `rate` of the membership
/// bouncing (with bumped incarnations) at every phase boundary, a
/// leader crash every other phase, and a closing restart storm.
fn churn_drive(seed: u64, n: u64, rate: f64, phases: usize) -> ChurnOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let monitor = ClusterMonitor::manual(ClusterConfig::default());
    let peers: Vec<u64> = (1..=n).collect();
    for &p in &peers {
        monitor
            .add_peer(p, PeerConfig::new(ETA, ALPHA))
            .expect("register peer");
    }

    let mut el = elector();
    let metrics = LeaderMetrics::new(0.0);
    let mut incarnation: HashMap<u64, u64> = peers.iter().map(|&p| (p, 1)).collect();
    let mut alive: HashMap<u64, bool> = peers.iter().map(|&p| (p, true)).collect();
    let mut next_beat: HashMap<u64, f64> = peers.iter().map(|&p| (p, 0.0)).collect();
    let mut seq: HashMap<u64, u64> = peers.iter().map(|&p| (p, 0)).collect();
    let mut paused: HashMap<u64, (f64, bool)> = HashMap::new();
    let mut lives: Vec<(u64, u64, f64)> = Vec::new();
    let mut events: Vec<ElectionEvent> = Vec::new();
    let mut leader_crashes: Vec<f64> = Vec::new();

    let warmup = 10.0;
    let phase_len = 8.0;
    let storm_at = warmup + phases as f64 * phase_len;
    let horizon = storm_at + 12.0;
    let mut next_phase = warmup;
    let mut phase_idx = 0usize;
    let mut storm_done = false;
    let mut storm_leader: Option<u64> = None;

    let mut t = 0.0f64;
    while t < horizon {
        for &p in &peers {
            if !alive[&p] {
                continue;
            }
            while next_beat[&p] <= t {
                let send = next_beat[&p];
                let s = seq.get_mut(&p).unwrap();
                *s += 1;
                let arrival = send + rng.random_range(0.005..0.03);
                let inc = incarnation[&p];
                if lives.iter().all(|&(lp, li, _)| lp != p || li != inc) {
                    lives.push((p, inc, arrival));
                }
                monitor.record_at_incarnated(p, arrival, inc, Heartbeat::new(*s, send));
                *next_beat.get_mut(&p).unwrap() += ETA;
            }
        }
        monitor.advance_to(t);

        let due: Vec<u64> = paused
            .iter()
            .filter(|(_, &(until, _))| until <= t)
            .map(|(&p, _)| p)
            .collect();
        for p in due {
            let (_, bump) = paused.remove(&p).unwrap();
            if bump {
                *incarnation.get_mut(&p).unwrap() += 1;
                *seq.get_mut(&p).unwrap() = 0;
            }
            *alive.get_mut(&p).unwrap() = true;
            *next_beat.get_mut(&p).unwrap() = t;
        }

        let cands = monitor.election_candidates_at(t);
        let state = el.observe(t, &cands);
        let evs = el.drain_events();
        metrics.observe(t, state, &evs);
        events.extend(evs);

        if phase_idx < phases && t >= next_phase {
            if let Some(leader) = state.incumbent() {
                // Churn: every non-leader live peer bounces with
                // probability `rate`, coming back as a new incarnation.
                for &p in &peers {
                    if p != leader && alive[&p] && rng.random_bool(rate) {
                        paused.insert(p, (t + rng.random_range(1.0..3.0), true));
                        *alive.get_mut(&p).unwrap() = false;
                    }
                }
                // Every other phase the leader itself crashes.
                if phase_idx % 2 == 1 {
                    paused.insert(leader, (t + ETA + ALPHA + rng.random_range(2.0..5.0), true));
                    *alive.get_mut(&leader).unwrap() = false;
                    let crashed_at = next_beat[&leader] - ETA;
                    leader_crashes.push(crashed_at);
                    metrics.note_crash(crashed_at);
                }
                phase_idx += 1;
                next_phase = t + phase_len;
            }
        }

        if !storm_done && t >= storm_at {
            if let Some(leader) = state.incumbent() {
                // Restart storm: half the cluster bounces at once; the
                // leader keeps beating and must keep the seat.
                let mut bounced = 0u64;
                for &p in &peers {
                    if p != leader && alive[&p] && bounced < n / 2 {
                        paused.insert(p, (t + rng.random_range(1.0..2.5), true));
                        *alive.get_mut(&p).unwrap() = false;
                        bounced += 1;
                    }
                }
                storm_leader = Some(leader);
                storm_done = true;
            }
        }

        t += DT;
    }

    let report = metrics.report();
    monitor.shutdown();

    // Crash→election latencies against the budget.
    let mut latencies = Vec::new();
    let mut missed = 0usize;
    for &crash in &leader_crashes {
        match events.iter().find_map(|ev| match *ev {
            ElectionEvent::Elected { at, .. } if at > crash => Some(at),
            _ => None,
        }) {
            Some(at) => latencies.push(at - crash),
            None => missed += 1,
        }
    }

    // No election may install an incarnation below the peer's
    // high-water mark at that moment.
    let stale_elected = events
        .iter()
        .filter(|ev| {
            if let ElectionEvent::Elected {
                leader,
                incarnation,
                at,
            } = **ev
            {
                let hw = lives
                    .iter()
                    .filter(|&&(p, _, first)| p == leader && first <= at)
                    .map(|&(_, inc, _)| inc)
                    .max()
                    .unwrap_or(0);
                incarnation < hw
            } else {
                false
            }
        })
        .count() as u64;

    // The storm-time leader must not have been demoted while half the
    // cluster bounced around it.
    let storm_demotions = storm_leader
        .map(|sl| {
            events
                .iter()
                .filter(|ev| {
                    matches!(**ev, ElectionEvent::Demoted { leader, at, .. }
                        if leader == sl && at >= storm_at)
                })
                .count()
        })
        .unwrap_or(0);

    ChurnOutcome {
        rate,
        peers: n,
        crashes: leader_crashes.len(),
        latencies,
        missed,
        stale_elected,
        storm_demotions,
        report,
    }
}

// ---------------------------------------------------------------- part 3

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw.split_once("\r\n\r\n")
        .expect("malformed HTTP response")
        .1
        .to_string()
}

/// Drives a tiny cluster to an elected leader, attaches the
/// [`LeaderMetrics`] source to a live exporter and scrapes it back.
/// Returns the `fd_leader_*` family names served, plus whether the JSON
/// document carried the `"leader"` object.
fn scrape_check() -> (Vec<String>, bool) {
    let monitor = ClusterMonitor::manual(ClusterConfig::default());
    for p in 1..=3u64 {
        monitor.add_peer(p, PeerConfig::new(ETA, ALPHA)).expect("register");
    }
    let mut el = elector();
    let metrics = Arc::new(LeaderMetrics::new(0.0));
    let mut t = 0.0;
    let mut s = 0u64;
    while t < 8.0 {
        s += 1;
        for p in 1..=3u64 {
            monitor.record_at_incarnated(p, t + 0.01, 1, Heartbeat::new(s, t));
        }
        monitor.advance_to(t);
        let state = el.observe(t, &monitor.election_candidates_at(t));
        metrics.observe(t, state, &el.drain_events());
        t += ETA;
    }
    assert!(
        metrics.state().incumbent().is_some(),
        "scrape drive failed to elect a leader"
    );

    let exporter = MetricsExporter::bind_with_sources(
        ("127.0.0.1", 0),
        monitor.clone(),
        vec![metrics.clone() as Arc<dyn MetricsSource>],
    )
    .expect("bind exporter");
    let addr = exporter.local_addr();
    let prom = http_get(addr, "/metrics");
    let json = http_get(addr, "/metrics.json");
    exporter.shutdown();
    monitor.shutdown();

    let mut families: Vec<String> = prom
        .lines()
        .filter(|l| l.starts_with("fd_leader_") && !l.starts_with('#'))
        .filter_map(|l| l.split([' ', '{']).next().map(str::to_string))
        .collect();
    families.sort();
    families.dedup();
    (families, json.contains("\"leader\""))
}

// ---------------------------------------------------------------------

fn write_report(
    smc: &SmcReport,
    churn: &[ChurnOutcome],
    families: &[String],
    json_ok: bool,
    violations: &[String],
) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let mut f = std::fs::File::create("results/ELECTION_report.json")?;
    let churn_json: Vec<String> = churn.iter().map(ChurnOutcome::to_json).collect();
    let fam_json: Vec<String> = families.iter().map(|n| format!("\"{n}\"")).collect();
    let viol_json: Vec<String> = violations
        .iter()
        .map(|v| format!("\"{}\"", v.replace('"', "'")))
        .collect();
    writeln!(
        f,
        "{{\"experiment\":\"E23\",\"budget\":{BUDGET},\"smc\":{},\"churn\":[{}],\
         \"scrape\":{{\"families\":[{}],\"json_leader\":{}}},\"violations\":[{}]}}",
        smc.to_json(),
        churn_json.join(","),
        fam_json.join(","),
        json_ok,
        viol_json.join(","),
    )
}

fn main() {
    let settings = Settings::from_env();
    let smoke = std::env::args().any(|a| a == "--smoke");

    let smc_cfg = if smoke {
        SmcConfig {
            seed0: settings.seed,
            threads: 2,
            ..SmcConfig::smoke(10)
        }
    } else {
        SmcConfig {
            seed0: settings.seed,
            threads: 0,
            min_runs: 0,
            max_runs: 120,
            ..SmcConfig::standard()
        }
    };
    let (n_peers, phases, rates): (u64, usize, &[f64]) = if smoke {
        (24, 3, &[0.05, 0.30])
    } else {
        (120, 6, &[0.05, 0.15, 0.30])
    };

    println!(
        "E23 — crash-recovery leader election ({} mode, base seed {})\n",
        if smoke { "smoke" } else { "full" },
        settings.seed
    );

    println!("SMC sweep (randomized crash–recover election scenarios):");
    let smc = run_smc_sweep(&smc_cfg);
    print!("{smc}");

    println!("\nchurn sweep ({n_peers} peers, {phases} phases + restart storm):");
    let mut churn = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        let out = churn_drive(settings.seed + 10_000 + i as u64, n_peers, rate, phases);
        println!(
            "  rate {:.2}: {} crashes, latency max {:.2}s mean {:.2}s (budget {BUDGET:.2}s), \
             {} stale, storm demotions {}, {}",
            out.rate,
            out.crashes,
            out.max_latency(),
            out.mean_latency(),
            out.stale_elected,
            out.storm_demotions,
            out.report,
        );
        churn.push(out);
    }

    println!("\nexporter scrape:");
    let (families, json_ok) = scrape_check();
    println!(
        "  {} fd_leader_* families served, json leader object: {json_ok}",
        families.len()
    );

    let mut violations: Vec<String> = churn.iter().flat_map(ChurnOutcome::violations).collect();
    if smc.any_reject() {
        violations.push("SMC sweep rejected at least one election property".to_string());
    }
    for out in &churn {
        if out.crashes == 0 {
            violations.push(format!(
                "rate {:.2}: drive never crashed a leader — sweep is vacuous",
                out.rate
            ));
        }
    }
    if families.len() < 6 {
        violations.push(format!(
            "exporter served only {} fd_leader_* families (want >= 6)",
            families.len()
        ));
    }
    if !json_ok {
        violations.push("exporter JSON document lacks the leader object".to_string());
    }

    write_report(&smc, &churn, &families, json_ok, &violations)
        .expect("write results/ELECTION_report.json");
    println!("\nreport written to results/ELECTION_report.json");

    if !violations.is_empty() {
        for v in &violations {
            println!("VIOLATION: {v}");
        }
        println!("VERDICT: REJECT");
        std::process::exit(1);
    }
    println!("VERDICT: all election properties pass");
}
