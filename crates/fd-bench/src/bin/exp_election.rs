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
//!    [`LeaderMetrics`](fd_cluster::LeaderMetrics) source attached must serve the `fd_leader_*`
//!    Prometheus series and the `"leader"` JSON document.
//!
//! The combined report is written to `results/ELECTION_report.json`;
//! the process exits nonzero on any violation. `--smoke` shrinks every
//! sweep to CI size without weakening the assertions.

use fd_bench::{http_get, Settings};
use fd_cluster::{ElectionEvent, MetricsExporter, MetricsSource};
use fd_smc::election::{election_scenario, ElectionDrive, ALPHA, ETA, OBSERVE_EVERY};
use fd_smc::{
    run_election_scenario, run_smc, ElectionLatencyOracle, ElectionRunRecord,
    ElectionStabilityOracle, Oracle, SmcConfig, SmcReport, SpuriousDemotionOracle, Verdict,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write as _;
use std::sync::Arc;

/// The E23 election-latency budget: detection bound plus two seconds.
const BUDGET: f64 = ETA + ALPHA + 2.0;

// ---------------------------------------------------------------- part 1

/// The three election properties, judged on every SMC run and every
/// churn drive.
fn oracles() -> Vec<Box<dyn Oracle<ElectionRunRecord>>> {
    vec![
        Box::new(ElectionStabilityOracle),
        Box::new(ElectionLatencyOracle),
        Box::new(SpuriousDemotionOracle),
    ]
}

// ---------------------------------------------------------------- part 2

/// Outcome of one churn drive.
struct ChurnOutcome {
    rate: f64,
    peers: u64,
    record: ElectionRunRecord,
    /// Crash→election latencies actually measured.
    latencies: Vec<f64>,
    /// Demotions of the sitting leader during the restart storm (must
    /// be zero — the leader kept beating throughout).
    storm_demotions: usize,
}

impl ChurnOutcome {
    fn max_latency(&self) -> f64 {
        self.latencies.iter().copied().fold(0.0, f64::max)
    }

    fn mean_latency(&self) -> f64 {
        self.latencies.iter().sum::<f64>() / self.latencies.len().max(1) as f64
    }

    /// What the election oracles reject, and a storm that unseated the
    /// leader.
    fn violations(&self) -> Vec<String> {
        let rejects = oracles().into_iter().filter_map(|o| match o.judge(&self.record) {
            Verdict::Reject(why) => Some(format!("rate {:.2}: {why}", self.rate)),
            _ => None,
        });
        let mut v: Vec<String> = rejects.collect();
        if self.storm_demotions > 0 {
            v.push(format!(
                "rate {:.2}: restart storm unseated the leader {} time(s)",
                self.rate, self.storm_demotions
            ));
        }
        v
    }

    fn to_json(&self) -> String {
        let report = &self.record.report;
        format!(
            "{{\"rate\":{},\"peers\":{},\"crashes\":{},\"max_latency\":{:.4},\
             \"mean_latency\":{:.4},\"missed\":{},\"stale_elected\":{},\
             \"storm_demotions\":{},\"elections\":{},\"demotions\":{},\
             \"spurious_rate\":{:.4},\"availability\":{:.4}}}",
            self.rate,
            self.peers,
            self.record.leader_crashes.len(),
            self.max_latency(),
            self.mean_latency(),
            self.record.leader_crashes.len() - self.latencies.len(),
            self.record.stale_elections().len(),
            self.storm_demotions,
            report.elections,
            report.demotions,
            report.spurious_demotion_rate,
            report.availability,
        )
    }
}

/// One deterministic churn drive: `n` peers, `rate` of the membership
/// bouncing (with bumped incarnations) at every phase boundary, a
/// leader crash every other phase, and a closing restart storm.
fn churn_drive(seed: u64, n: u64, rate: f64, phases: usize) -> ChurnOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let (warmup, phase_len) = (10.0, 8.0);
    let storm_at = warmup + phases as f64 * phase_len;
    let scenario = election_scenario(seed, n, storm_at + 12.0);
    let mut drive = ElectionDrive::new(&scenario);
    let (mut next_phase, mut phase_idx) = (warmup, 0usize);
    let mut storm_leader = None;

    let mut t = 0.0f64;
    while t < scenario.horizon {
        let cands = drive.candidates(t);
        let state = drive.observe(t, &cands);
        let leader = |drive: &ElectionDrive| state.incumbent().filter(|&l| drive.alive(l));

        if let Some(leader) = leader(&drive).filter(|_| phase_idx < phases && t >= next_phase) {
            // Churn: every non-leader live peer bounces with
            // probability `rate`, coming back as a new incarnation.
            for p in 1..=n {
                if p != leader && drive.alive(p) && rng.random_bool(rate) {
                    drive.bounce(p, rng.random_range(1.0..3.0));
                }
            }
            // Every other phase the leader itself crashes.
            if phase_idx % 2 == 1 {
                drive.crash_leader(leader, ETA + ALPHA + rng.random_range(2.0..5.0));
            }
            phase_idx += 1;
            next_phase = t + phase_len;
        }

        if let Some(leader) = leader(&drive).filter(|_| storm_leader.is_none() && t >= storm_at) {
            // Restart storm: half the cluster bounces at once; the
            // leader keeps beating and must keep the seat.
            let mut bounced = 0u64;
            for p in 1..=n {
                if p != leader && drive.alive(p) && bounced < n / 2 {
                    drive.bounce(p, rng.random_range(1.0..2.5));
                    bounced += 1;
                }
            }
            storm_leader = Some(leader);
        }

        t += OBSERVE_EVERY;
    }
    let record = drive.finish(seed, 0);

    // The storm-time leader must not have been demoted while half the
    // cluster bounced around it.
    let storm_demotions = storm_leader.map_or(0, |sl| {
        let demoted = |ev: &&ElectionEvent| {
            matches!(**ev, ElectionEvent::Demoted { leader, at, .. } if leader == sl && at >= storm_at)
        };
        record.events.iter().filter(demoted).count()
    });
    let latencies = record.election_latencies().into_iter().filter_map(|(_, l)| l).collect();
    ChurnOutcome { rate, peers: n, record, latencies, storm_demotions }
}

// ---------------------------------------------------------------- part 3

/// Drives a tiny cluster to an elected leader, attaches the
/// [`LeaderMetrics`](fd_cluster::LeaderMetrics) source to a live exporter and scrapes it back.
/// Returns the `fd_leader_*` family names served, plus whether the JSON
/// document carried the `"leader"` object.
fn scrape_check() -> (Vec<String>, bool) {
    let scenario = election_scenario(0, 3, 8.0);
    let mut drive = ElectionDrive::new(&scenario);
    let mut t = 0.0;
    while t < scenario.horizon {
        let cands = drive.candidates(t);
        drive.observe(t, &cands);
        t += OBSERVE_EVERY;
    }
    let metrics = drive.metrics();
    assert!(
        metrics.state().incumbent().is_some(),
        "scrape drive failed to elect a leader"
    );

    let exporter = MetricsExporter::bind_with_sources(
        ("127.0.0.1", 0),
        drive.monitor().clone(),
        vec![metrics.clone() as Arc<dyn MetricsSource>],
    )
    .expect("bind exporter");
    let addr = exporter.local_addr();
    let (_, prom) = http_get(addr, "/metrics");
    let (_, json) = http_get(addr, "/metrics.json");
    exporter.shutdown();

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
        SmcConfig { seed0: settings.seed, threads: 0, min_runs: 0, max_runs: 120 }
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
    let smc = run_smc(&smc_cfg, run_election_scenario, &oracles());
    print!("{smc}");

    println!("\nchurn sweep ({n_peers} peers, {phases} phases + restart storm):");
    let mut churn = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        let out = churn_drive(settings.seed + 10_000 + i as u64, n_peers, rate, phases);
        println!(
            "  rate {:.2}: {} crashes, latency max {:.2}s mean {:.2}s (budget {BUDGET:.2}s), \
             {} stale, storm demotions {}, {}",
            out.rate,
            out.record.leader_crashes.len(),
            out.max_latency(),
            out.mean_latency(),
            out.record.stale_elections().len(),
            out.storm_demotions,
            out.record.report,
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
        if out.record.leader_crashes.is_empty() {
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
