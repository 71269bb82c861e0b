//! Integration tests spanning the whole stack: configuration → detector →
//! simulator → metrics, checking the paper's end-to-end claims.

use chen_fd_qos::prelude::*;
use rand::SeedableRng;

fn paper_link(p_l: f64) -> Link {
    Link::new(
        p_l,
        Box::new(Exponential::with_mean(0.02).expect("valid mean")),
    )
    .expect("valid link")
}

/// §4 pipeline: requirements → configurator → NFD-S → simulated QoS.
#[test]
fn configured_detector_meets_requirements_in_simulation() {
    // Scaled-down worked example so the simulation is quick: detect in
    // 3 s, ≤ 1 mistake per 500 s, fix within 2 s; η-scale seconds.
    let req = QosRequirements::new(3.0, 500.0, 2.0).unwrap();
    let delay = Exponential::with_mean(0.02).unwrap();
    let params = configure_known_distribution(&req, 0.01, &delay)
        .unwrap()
        .expect("achievable");

    // Analytic check.
    let analysis = NfdSAnalysis::new(params.eta, params.delta, 0.01, &delay).unwrap();
    assert!(req.satisfied_by(&analysis.qos()));

    // Simulated check (loose statistical tolerance).
    let link = paper_link(0.01);
    let mut fd = NfdS::new(params.eta, params.delta).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let acc = measure_accuracy(
        &mut fd,
        &AccuracyRun {
            eta: params.eta,
            recurrence_target: 300,
            max_heartbeats: 20_000_000,
            warmup: 10.0 * params.eta,
        },
        &link,
        &mut rng,
    );
    if let Some(measured) = acc.mean_mistake_recurrence() {
        assert!(
            measured > 0.7 * req.mistake_recurrence_lower(),
            "measured E(T_MR) {measured} far below requirement"
        );
    }
    if let Some(tm) = acc.mean_mistake_duration() {
        assert!(tm <= req.mistake_duration_upper() * 1.3);
    }
}

/// Theorem 5 validation across delay distributions: the closed-form
/// E(T_MR) matches simulation within statistical tolerance.
#[test]
fn theorem5_matches_simulation_across_distributions() {
    let laws: Vec<(&str, Box<dyn DelayDistribution>)> = vec![
        ("exponential", Box::new(Exponential::with_mean(0.02).unwrap())),
        ("uniform", Box::new(Uniform::new(0.0, 0.04).unwrap())),
        ("pareto", Box::new(Pareto::with_mean(0.02, 3.0).unwrap())),
        (
            "lognormal",
            Box::new(LogNormal::with_moments(0.02, 4e-4).unwrap()),
        ),
    ];
    for (name, law) in laws {
        let analysis = NfdSAnalysis::new(1.0, 1.0, 0.02, &law).unwrap();
        let predicted = analysis.mean_recurrence();
        let link = Link::new(0.02, law).unwrap();
        let mut fd = NfdS::new(1.0, 1.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let acc = measure_accuracy(
            &mut fd,
            &AccuracyRun {
                eta: 1.0,
                recurrence_target: 400,
                max_heartbeats: 10_000_000,
                warmup: 10.0,
            },
            &link,
            &mut rng,
        );
        let measured = acc.mean_mistake_recurrence().expect("mistakes observed");
        let rel = (measured - predicted).abs() / predicted;
        assert!(
            rel < 0.15,
            "{name}: measured {measured} vs predicted {predicted} (rel {rel:.3})"
        );
    }
}

/// Theorem 1 relations hold for a simulated NFD-S trace.
#[test]
fn theorem1_relations_hold_in_simulation() {
    let link = paper_link(0.05);
    let mut fd = NfdS::new(1.0, 0.5).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let trace = steady_state_trace(
        &mut fd,
        &AccuracyRun {
            eta: 1.0,
            recurrence_target: 2000,
            max_heartbeats: 10_000_000,
            warmup: 10.0,
        },
        &link,
        &mut rng,
    );
    let report = fd_metrics::theorem1::check_theorem1(&trace).expect("complete intervals");
    assert!(
        report.max_residual() < 0.08,
        "Theorem 1 residuals: {report:?}"
    );
}

/// Theorem 5.1: detection time never exceeds δ + η and the bound is
/// approached (tightness) under random crash phases; holds for NFD-E too
/// (with its estimated freshness points and the E(D) shift).
#[test]
fn detection_bound_holds_for_nfd_s_and_nfd_e() {
    let link = paper_link(0.01);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let (eta, delta) = (1.0, 1.5);
    let samples = measure_detection_times(
        || Box::new(NfdS::new(eta, delta).unwrap()),
        &DetectionRun {
            eta,
            crashes: 150,
            crash_after: 15.0,
            post_crash_window: 2.0 * (delta + eta),
        },
        &link,
        &mut rng,
    );
    assert_eq!(samples.undetected(), 0);
    assert!(samples.max_finite().unwrap() <= delta + eta + 1e-9);
    assert!(samples.max_finite().unwrap() > 0.85 * (delta + eta));

    // NFD-E: α = δ − E(D); bound becomes η + E(D) + α = δ + η in
    // expectation but estimates jitter slightly — allow 5% slack.
    let alpha = delta - 0.02;
    let samples = measure_detection_times(
        || Box::new(NfdE::new(eta, alpha, 32).unwrap()),
        &DetectionRun {
            eta,
            crashes: 150,
            crash_after: 40.0, // warm the 32-message estimation window
            post_crash_window: 3.0 * (delta + eta),
        },
        &link,
        &mut rng,
    );
    assert_eq!(samples.undetected(), 0);
    assert!(
        samples.max_finite().unwrap() <= 1.05 * (delta + eta),
        "NFD-E max T_D {}",
        samples.max_finite().unwrap()
    );
}

/// Theorem 6 empirically: on identical delay patterns and with the same
/// (rate, detection bound) budget, NFD-S's query accuracy dominates the
/// cutoff variants of the simple algorithm.
#[test]
fn nfd_s_dominates_simple_on_identical_patterns() {
    use fd_sim::{run_with_pattern, DelayPattern, RunOptions};
    let link = paper_link(0.01);
    let t_d_u = 2.0;
    let horizon = 20_000.0;
    let mut rng = rand::rngs::StdRng::seed_from_u64(19);
    let pattern = DelayPattern::generate(&link, horizon as usize + 10, &mut rng);

    let run_one = |fd: &mut dyn FailureDetector| -> f64 {
        let out = run_with_pattern(
            fd,
            &RunOptions::failure_free(1.0, StopCondition::Horizon(horizon)),
            &pattern,
        );
        let steady = out.trace.restrict(10.0, horizon);
        AccuracyAnalysis::of_trace(&steady).query_accuracy_probability()
    };

    let mut nfd = NfdS::new(1.0, t_d_u - 1.0).unwrap();
    let pa_nfd = run_one(&mut nfd);
    for cutoff in [0.16, 0.08] {
        let mut sfd = SimpleFd::with_cutoff(t_d_u - cutoff, cutoff).unwrap();
        let pa_sfd = run_one(&mut sfd);
        assert!(
            pa_nfd >= pa_sfd - 1e-9,
            "P_A: NFD-S {pa_nfd} < SFD(c={cutoff}) {pa_sfd}"
        );
    }
    assert!(pa_nfd > 0.99, "NFD-S P_A sanity: {pa_nfd}");
}

/// The §5 moment-only configuration is more conservative than §4 but
/// still sound end to end, even when the real distribution is NOT the
/// one the Cantelli bound is tight for.
#[test]
fn moment_configuration_sound_for_unknown_distribution() {
    let req = QosRequirements::new(3.0, 500.0, 2.0).unwrap();
    // True law: Pareto (heavy tail) with the same first two moments the
    // configurator is told about.
    let law = Pareto::with_mean(0.02, 3.0).unwrap();
    let params = configure_from_moments(&req, 0.01, law.mean(), law.variance())
        .unwrap()
        .expect("achievable");
    let analysis = NfdSAnalysis::new(params.eta, params.delta, 0.01, &law).unwrap();
    assert!(
        req.satisfied_by(&analysis.qos()),
        "moment-configured params fail on the true (Pareto) law: {}",
        analysis.qos()
    );
}

/// NFD-E ≈ NFD-U for a window of 32 (the §6.3 claim, scaled down).
#[test]
fn nfd_e_tracks_nfd_u() {
    let link = paper_link(0.01);
    let (eta, alpha) = (1.0, 1.0);
    let measure = |fd: &mut dyn FailureDetector, seed: u64| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let acc = measure_accuracy(
            fd,
            &AccuracyRun {
                eta,
                recurrence_target: 400,
                max_heartbeats: 10_000_000,
                warmup: 50.0,
            },
            &link,
            &mut rng,
        );
        acc.mean_mistake_recurrence().expect("mistakes observed")
    };
    let mut u = NfdU::new(eta, alpha, 0.02).unwrap();
    let mut e = NfdE::new(eta, alpha, 32).unwrap();
    let tmr_u = measure(&mut u, 5);
    let tmr_e = measure(&mut e, 5);
    let rel = (tmr_u - tmr_e).abs() / tmr_u;
    assert!(
        rel < 0.25,
        "NFD-U E(T_MR) {tmr_u} vs NFD-E {tmr_e} (rel {rel:.3})"
    );
}
