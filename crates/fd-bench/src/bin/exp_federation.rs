//! E21 — multi-node federation failover at scale.
//!
//! Full mode spawns a 4-node federation owning 10 000 peers split by
//! rendezvous hashing, drives one heartbeat + gossip + rebalance round
//! per second, kills one monitor node mid-run and measures:
//!
//! * **takeover latency** — kill to the first adoption of one of the
//!   victim's peers, which must land within the monitor-of-monitors
//!   NFD-E bound `η + α` plus the gossip/rebalance granularity;
//! * **coverage** — after the settle point, no registered peer is left
//!   unmonitored, and by the horizon ownership is exactly-once with
//!   every view converged;
//! * **post-failover conformance** — the federation-wide trust view of
//!   the victim's peers, tracked through [`OnlineQos`] from the kill
//!   onward, passes a [`Conformance`] check against a requirement
//!   tuple sized to the failover bound (the adopt-warm suspicion dip is
//!   the only mistake the view may show);
//! * **observability** — the `fd_fed_*` series render into both the
//!   Prometheus and JSON exporter formats via
//!   [`MetricsSource`](fd_cluster::MetricsSource).
//!
//! A second sweep replays randomized federation failover scenarios
//! through the fd-smc oracles (coverage-after-failover, digest
//! convergence), so the whole experiment is seed-deterministic and any
//! counterexample replays from two integers.
//!
//! `--smoke` shrinks the fleet to CI size (4 × 400 peers, 8 SMC runs)
//! without changing any bound. The report is written to
//! `results/FED_report.json`; the process exits nonzero if any check
//! fails.

use fd_bench::Settings;
use fd_cluster::MetricsSource as _;
use fd_core::Heartbeat;
use fd_federation::{FedChange, Federation, FederationConfig, NODE_WATCH};
use fd_metrics::{Conformance, FdOutput, OnlineQos, QosRequirements};
use fd_smc::{
    run_federation_scenario, run_smc, FedConvergenceOracle, FedCoverageOracle, FedRecord,
    Oracle, SmcConfig, SmcReport,
};
use std::io::Write as _;
use std::sync::atomic::Ordering;

const NODES: [u64; 4] = [0, 1, 2, 3];
const VICTIM: u64 = 3;
const KILL_AT: f64 = 24.0;
const HORIZON: u64 = 64;
/// Victim peers tracked through the federation view for conformance
/// (a sample keeps full mode's tracker cost flat).
const TRACKED: usize = 128;

struct FailoverOutcome {
    peers: u64,
    takeover_latency: f64,
    takeover_bound: f64,
    first_adopt_at: f64,
    orphans_at_settle: usize,
    reowned: usize,
    victim_partition: usize,
    final_clean: bool,
    converged: bool,
    conformance_passed: bool,
    conformance_checks: usize,
    prom_series: usize,
    json_fields: usize,
}

fn run_failover(n_peers: u64) -> FailoverOutcome {
    let cfg = FederationConfig { nodes: NODES.to_vec(), ..FederationConfig::default() };
    let takeover_bound = NODE_WATCH.eta + NODE_WATCH.alpha + 2.0;
    let settle_at = KILL_AT + takeover_bound;

    let mut fed = Federation::spawn(cfg).expect("spawn federation");
    for peer in 1..=n_peers {
        fed.register(peer);
    }
    let victims_peers = fed.node(VICTIM).expect("alive").owned_peers();
    let tracked: Vec<u64> = victims_peers.iter().copied().take(TRACKED).collect();
    let mut trackers: Vec<OnlineQos> =
        tracked.iter().map(|_| OnlineQos::new(KILL_AT, FdOutput::Trust)).collect();

    let mut orphans_at_settle = usize::MAX;
    let mut killed = false;
    for step in 1..=HORIZON {
        let now = step as f64;
        if now >= KILL_AT && !killed {
            assert!(fed.kill(VICTIM, now));
            killed = true;
        }
        for peer in fed.peers().to_vec() {
            fed.deliver(peer, now, 1, Heartbeat::new(step, now));
        }
        fed.gossip(now);
        fed.advance(now);
        fed.rebalance(now);
        if killed {
            let view = fed.view(now);
            for (peer, q) in tracked.iter().zip(trackers.iter_mut()) {
                // An unowned peer counts as a mistake: nobody vouches.
                let out = match view.report(*peer) {
                    Some((_, out)) => out,
                    None => FdOutput::Suspect,
                };
                q.observe(now, out);
            }
        }
        if now >= settle_at && orphans_at_settle == usize::MAX {
            orphans_at_settle = fed.coverage().orphans.len();
        }
    }

    let first_adopt_at = fed
        .events()
        .iter()
        .find(|e| matches!(e.change, FedChange::PeerAdopted { from, .. } if from == VICTIM))
        .map_or(f64::INFINITY, |e| e.at);
    let cov = fed.coverage();
    let reowned = victims_peers
        .iter()
        .filter(|p| cov.owners.get(p).is_some_and(|o| o.len() == 1 && o[0] != VICTIM))
        .count();

    // Post-failover QoS of the federation view: the only tolerated
    // mistake is the adopt-warm dip (adopted peers sit Suspect until
    // their next heartbeat), so mistake durations must stay within the
    // takeover bound and the view must be mostly-accurate over the
    // post-kill window.
    let req = QosRequirements::new(
        takeover_bound,
        takeover_bound,
        takeover_bound,
    )
    .expect("valid requirements");
    let checker = Conformance::new(0.05).with_requirements(req);
    let horizon = HORIZON as f64;
    let mut conformance_passed = true;
    let mut conformance_checks = 0;
    for q in &trackers {
        let report = checker.report(&q.observed(horizon));
        conformance_checks += report.checks.len();
        if !report.passed() {
            conformance_passed = false;
            println!("conformance failure on a victim peer:\n{report}");
        }
    }

    // fd_fed_* series must surface through both exporter formats.
    let metrics = fed.metrics();
    let mut prom = String::new();
    metrics.prometheus(&mut prom);
    let prom_series = prom.lines().filter(|l| l.starts_with("fd_fed_")).count();
    let json_fields = metrics.json_fields().len();

    let outcome = FailoverOutcome {
        peers: n_peers,
        takeover_latency: metrics.takeover_latency(),
        takeover_bound,
        first_adopt_at,
        orphans_at_settle,
        reowned,
        victim_partition: victims_peers.len(),
        final_clean: cov.is_clean(),
        converged: fed.views_converged(),
        conformance_passed,
        conformance_checks,
        prom_series,
        json_fields,
    };
    assert_eq!(metrics.takeovers.load(Ordering::Relaxed), 1, "exactly one takeover");
    outcome
}

fn run_smc_sweep(seed: u64, smoke: bool) -> SmcReport {
    let cfg = if smoke {
        SmcConfig { seed0: seed, threads: 2, ..SmcConfig::smoke(8) }
    } else {
        SmcConfig { seed0: seed, threads: 0, min_runs: 0, max_runs: 150 }
    };
    let oracles: Vec<Box<dyn Oracle<FedRecord>>> =
        vec![Box::new(FedCoverageOracle), Box::new(FedConvergenceOracle)];
    run_smc(&cfg, run_federation_scenario, &oracles)
}

fn write_report(out: &FailoverOutcome, smc: &SmcReport) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let mut f = std::fs::File::create("results/FED_report.json")?;
    writeln!(
        f,
        "{{\"experiment\":\"E21\",\"nodes\":{},\"peers\":{},\"kill_at\":{},\
         \"takeover_latency\":{},\"takeover_bound\":{},\"first_adopt_at\":{},\
         \"victim_partition\":{},\"reowned\":{},\"orphans_at_settle\":{},\
         \"final_clean\":{},\"converged\":{},\"conformance_passed\":{},\
         \"conformance_checks\":{},\"fed_prom_series\":{},\"fed_json_fields\":{},\
         \"smc\":{}}}",
        NODES.len(),
        out.peers,
        KILL_AT,
        out.takeover_latency,
        out.takeover_bound,
        out.first_adopt_at,
        out.victim_partition,
        out.reowned,
        out.orphans_at_settle,
        out.final_clean,
        out.converged,
        out.conformance_passed,
        out.conformance_checks,
        out.prom_series,
        out.json_fields,
        smc.to_json()
    )
}

fn main() {
    let settings = Settings::from_env();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n_peers: u64 = if smoke { 400 } else { 10_000 };

    println!(
        "E21 — federation failover ({} mode, {} nodes x {} peers, seed {})\n",
        if smoke { "smoke" } else { "full" },
        NODES.len(),
        n_peers,
        settings.seed
    );

    let out = run_failover(n_peers);
    println!("victim partition       {:>8} peers", out.victim_partition);
    println!("first adoption at      {:>8.1} s (kill at {KILL_AT}, bound {} s)",
        out.first_adopt_at, out.takeover_bound);
    println!("takeover latency       {:>8.1} s", out.takeover_latency);
    println!("orphans at settle      {:>8}", out.orphans_at_settle);
    println!("re-owned elsewhere     {:>8} / {}", out.reowned, out.victim_partition);
    println!("final coverage clean   {:>8}", out.final_clean);
    println!("views converged        {:>8}", out.converged);
    println!("conformance            {:>8} ({} checks)",
        if out.conformance_passed { "pass" } else { "FAIL" }, out.conformance_checks);
    println!("fd_fed_* prom lines    {:>8}", out.prom_series);

    println!("\nSMC sweep (randomized federation failover scenarios):");
    let smc = run_smc_sweep(settings.seed, smoke);
    print!("{smc}");

    write_report(&out, &smc).expect("write results/FED_report.json");
    println!("\nreport written to results/FED_report.json");

    let takeover_ok = out.first_adopt_at - KILL_AT <= out.takeover_bound
        && out.takeover_latency > 0.0
        && out.takeover_latency <= out.takeover_bound;
    let coverage_ok = out.orphans_at_settle == 0
        && out.reowned == out.victim_partition
        && out.final_clean
        && out.converged;
    let observability_ok = out.prom_series >= 14 && out.json_fields >= 1;
    if !takeover_ok || !coverage_ok || !out.conformance_passed || !observability_ok
        || smc.any_reject()
    {
        println!(
            "VERDICT: FAIL (takeover {takeover_ok}, coverage {coverage_ok}, conformance {}, \
             observability {observability_ok}, smc reject {})",
            out.conformance_passed,
            smc.any_reject()
        );
        std::process::exit(1);
    }
    println!("VERDICT: all federation checks pass");
}
