//! E20 — statistical model checking of the detector stack.
//!
//! Full mode samples ≥ 1000 randomized chaos scenarios (burst loss,
//! partitions, delay spikes, crash–recover windows, restart storms,
//! clock jumps) across the exponential, Pareto, log-normal and
//! trace-replay delay regimes, judges every run with the QoS property
//! oracles, and decides each property sequentially with Wald's SPRT
//! (H₀: holds with probability ≤ 0.95 vs H₁: ≥ 0.995 at 1% error
//! rates), reporting exact Clopper–Pearson intervals. A second, smaller
//! sweep drives the cluster membership layer deterministically and
//! checks its lifecycle invariants (no ghost events after removal,
//! degrade/promote alternation). A third drives federation relay
//! routing: one directed gossip link stays cut while every node lives,
//! and the relay-coverage oracle rejects any false suspicion,
//! non-convergence, or a run where nothing was ever relayed.
//!
//! `--smoke` shrinks both sweeps to CI size (≤ 200 engine runs, fixed
//! seeds) without touching the hypotheses.
//!
//! The combined verdict report is printed and written as JSON to
//! `results/SMC_report.json`; the process exits nonzero if any property
//! fails (SPRT accepts H₀ or a concrete violation was observed).

use fd_bench::Settings;
use fd_metrics::QosRequirements;
use fd_smc::{
    run_cluster_scenario, run_relay_scenario, run_smc, AgreementOracle, ClusterRecord,
    ConformanceOracle, DegradePromoteOracle, DetectionOracle, FedRelayOracle, FedRelayRecord,
    GhostEventOracle, Oracle, RunRecord, ScenarioSpec, SmcConfig, SmcReport, Theorem1Oracle, SPRT,
};
use std::io::Write as _;

fn engine_spec() -> ScenarioSpec {
    ScenarioSpec {
        // Loose-but-real requirements for the benign-run conformance
        // oracle: T_D^U = 4 dominates every sampled η + δ; T_MR^L = 10
        // and T_M^U = 2 leave the configured detectors honest headroom.
        requirements: Some(QosRequirements::new(4.0, 10.0, 2.0).expect("valid requirements")),
        ..ScenarioSpec::broad()
    }
}

/// Mistake-rich stationary spec for the Theorem 1 identity sweep: pure
/// benign runs under aggressive i.i.d. loss and tight δ so every run
/// completes hundreds of mistake cycles, which is what the ergodic
/// identities need to be judged at all. (The chaos sweep keeps the same
/// oracle purely for its exact online/batch agreement reject channel.)
fn identity_spec() -> ScenarioSpec {
    ScenarioSpec {
        benign_fraction: 1.0,
        loss_range: (0.10, 0.25),
        delta_range: (0.1, 0.5),
        horizon: 1500.0,
        ..ScenarioSpec::broad()
    }
}

fn run_engine_sweep(cfg: &SmcConfig) -> SmcReport {
    let spec = engine_spec();
    let oracles: Vec<Box<dyn Oracle<RunRecord>>> = vec![
        Box::new(AgreementOracle),
        Box::new(DetectionOracle::default()),
        Box::new(ConformanceOracle::default()),
    ];
    run_smc(cfg, |seed| spec.sample(seed).run(), &oracles)
}

fn run_identity_sweep(cfg: &SmcConfig) -> SmcReport {
    let spec = identity_spec();
    let oracles: Vec<Box<dyn Oracle<RunRecord>>> =
        vec![Box::new(Theorem1Oracle::default())];
    run_smc(cfg, |seed| spec.sample(seed).run(), &oracles)
}

fn run_cluster_sweep(cfg: &SmcConfig) -> SmcReport {
    let oracles: Vec<Box<dyn Oracle<ClusterRecord>>> = vec![
        Box::new(GhostEventOracle),
        Box::new(DegradePromoteOracle),
    ];
    run_smc(cfg, |seed| run_cluster_scenario(seed, 3), &oracles)
}

fn run_relay_sweep(cfg: &SmcConfig) -> SmcReport {
    let oracles: Vec<Box<dyn Oracle<FedRelayRecord>>> = vec![Box::new(FedRelayOracle)];
    run_smc(cfg, run_relay_scenario, &oracles)
}

fn write_report(
    engine: &SmcReport,
    identity: &SmcReport,
    cluster: &SmcReport,
    relay: &SmcReport,
) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let mut f = std::fs::File::create("results/SMC_report.json")?;
    writeln!(
        f,
        "{{\"experiment\":\"E20\",\"engine\":{},\"identity\":{},\"cluster\":{},\"relay\":{}}}",
        engine.to_json(),
        identity.to_json(),
        cluster.to_json(),
        relay.to_json()
    )
}

fn main() {
    let settings = Settings::from_env();
    let smoke = std::env::args().any(|a| a == "--smoke");

    // The identity sweep draws from its own seed block so growing one
    // sweep never reshuffles another's scenarios.
    let (engine_cfg, identity_cfg, cluster_cfg, relay_cfg) = if smoke {
        (
            SmcConfig {
                seed0: settings.seed,
                threads: 0,
                ..SmcConfig::smoke(150)
            },
            SmcConfig {
                seed0: settings.seed + 1_000_000,
                threads: 0,
                ..SmcConfig::smoke(200)
            },
            SmcConfig {
                seed0: settings.seed,
                threads: 2,
                ..SmcConfig::smoke(8)
            },
            SmcConfig {
                seed0: settings.seed + 2_000_000,
                threads: 2,
                ..SmcConfig::smoke(6)
            },
        )
    } else {
        (
            SmcConfig {
                seed0: settings.seed,
                threads: 0,
                min_runs: 1000,
                max_runs: 5000,
            },
            SmcConfig {
                seed0: settings.seed + 1_000_000,
                threads: 0,
                min_runs: 300,
                max_runs: 2000,
            },
            SmcConfig {
                seed0: settings.seed,
                threads: 2,
                min_runs: 0,
                max_runs: 250,
            },
            SmcConfig {
                seed0: settings.seed + 2_000_000,
                threads: 2,
                min_runs: 0,
                max_runs: 120,
            },
        )
    };

    println!(
        "E20 — statistical model checking ({} mode, base seed {})\n",
        if smoke { "smoke" } else { "full" },
        settings.seed
    );
    println!(
        "hypotheses: H0 p <= {} vs H1 p >= {} at alpha = beta = {}\n",
        SPRT.p0, SPRT.p1, SPRT.alpha
    );

    println!("engine sweep (randomized chaos scenarios, 4 delay regimes):");
    let engine = run_engine_sweep(&engine_cfg);
    print!("{engine}");

    println!("\nidentity sweep (mistake-rich stationary runs, Theorem 1):");
    let identity = run_identity_sweep(&identity_cfg);
    print!("{identity}");

    println!("\ncluster sweep (deterministic membership drives):");
    let cluster = run_cluster_sweep(&cluster_cfg);
    print!("{cluster}");

    println!("\nrelay sweep (one-way link cuts routed around by relays):");
    let relay = run_relay_sweep(&relay_cfg);
    print!("{relay}");

    write_report(&engine, &identity, &cluster, &relay).expect("write results/SMC_report.json");
    println!("\nreport written to results/SMC_report.json");

    if engine.any_reject() || identity.any_reject() || cluster.any_reject() || relay.any_reject() {
        println!("VERDICT: REJECT — at least one property failed");
        std::process::exit(1);
    }
    println!("VERDICT: all properties pass");
}
