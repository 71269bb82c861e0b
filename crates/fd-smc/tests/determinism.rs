//! Determinism properties of the SMC harness: identical `(spec, seed)`
//! must yield byte-identical fault plans and identical oracle verdicts
//! across independent invocations — the property that makes every
//! counterexample in an SMC report replayable from two integers.

use fd_smc::{
    run_cluster_scenario, run_election_scenario, AgreementOracle, ConformanceOracle,
    DetectionOracle, Oracle, RunRecord, ScenarioSpec, Theorem1Oracle, Verdict,
};
use proptest::prelude::*;

fn spec_with(benign: f64, crash: f64, horizon: f64) -> ScenarioSpec {
    ScenarioSpec {
        benign_fraction: benign,
        crash_fraction: crash,
        horizon,
        requirements: Some(fd_metrics::QosRequirements::new(4.0, 10.0, 2.0).unwrap()),
        ..ScenarioSpec::broad()
    }
}

fn verdicts(rec: &RunRecord) -> Vec<Verdict> {
    let oracles: Vec<Box<dyn Oracle<RunRecord>>> = vec![
        Box::new(AgreementOracle),
        Box::new(Theorem1Oracle::default()),
        Box::new(DetectionOracle::default()),
        Box::new(ConformanceOracle::default()),
    ];
    oracles.iter().map(|o| o.judge(rec)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Byte-identical fault plans: the sampled plan's full debug
    /// rendering (segments + events + seed) matches across two
    /// independent samples of the same `(spec, seed)`.
    #[test]
    fn prop_same_seed_same_plan(
        seed in 0u64..10_000,
        benign_pct in 0u32..101,
        crash_pct in 0u32..101,
    ) {
        let spec = spec_with(
            benign_pct as f64 / 100.0,
            crash_pct as f64 / 100.0,
            300.0,
        );
        let a = spec.sample(seed);
        let b = spec.sample(seed);
        prop_assert_eq!(format!("{:?}", a.plan), format!("{:?}", b.plan));
        prop_assert_eq!(a.delta.to_bits(), b.delta.to_bits());
        prop_assert_eq!(a.p_loss.to_bits(), b.p_loss.to_bits());
        prop_assert_eq!(a.benign, b.benign);
        prop_assert_eq!(a.regime.clone(), b.regime.clone());
    }

    /// Identical oracle verdicts: running the same scenario twice and
    /// judging both runs yields the same verdict for every oracle.
    #[test]
    fn prop_same_seed_same_verdicts(seed in 0u64..500) {
        let spec = spec_with(0.3, 0.5, 200.0);
        let ra = spec.sample(seed).run();
        let rb = spec.sample(seed).run();
        prop_assert_eq!(
            format!("{:?}", ra.outcome.trace),
            format!("{:?}", rb.outcome.trace),
            "same scenario must produce the identical trace"
        );
        prop_assert_eq!(verdicts(&ra), verdicts(&rb));
    }
}

/// The cluster-layer scenarios run on a manual monitor, so a seed fixes
/// every event *and its time* (`Added`, `Removed`, `Degraded` and
/// `Promoted` used to carry the wall clock's).
#[test]
fn cluster_and_election_scenarios_are_seed_exact() {
    for seed in 1..=16 {
        let cluster = |seed| format!("{:?}", run_cluster_scenario(seed, 6).log);
        assert_eq!(cluster(seed), cluster(seed), "cluster scenario, seed {seed}");
        let election = |seed| format!("{:?}", run_election_scenario(seed));
        assert_eq!(election(seed), election(seed), "election scenario, seed {seed}");
    }
}
