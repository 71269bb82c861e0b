//! Engine-level integration properties: determinism, fault-plan
//! behavior across epochs, and crash detection under bursty loss.

use fd_core::detectors::{NfdE, NfdS};
use fd_core::{FailureDetector, Heartbeat};
use fd_metrics::{detection_time, AccuracyAnalysis, DetectionOutcome};
use fd_sim::{run, run_with_plan, FaultPlan, Link, LinkFault, RunOptions, StopCondition};
use fd_stats::dist::{Constant, Exponential};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

fn exp_link(p_l: f64, mean: f64) -> Link {
    Link::new(p_l, Box::new(Exponential::with_mean(mean).unwrap())).unwrap()
}

#[test]
fn same_seed_gives_identical_traces() {
    let link = exp_link(0.05, 0.02);
    let opts = RunOptions::failure_free(1.0, StopCondition::Horizon(2000.0));
    let run_once = |seed: u64| {
        let mut fd = NfdS::new(1.0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        run(&mut fd, &opts, &link, &mut rng).trace
    };
    let a = run_once(42);
    let b = run_once(42);
    let c = run_once(43);
    assert_eq!(a, b, "same seed must reproduce the exact trace");
    assert_ne!(a, c, "different seeds should diverge");
}

#[test]
fn epoch_switch_changes_mistake_rate_mid_run() {
    // Clean first half, lossy second half: the detector's mistake count
    // must be concentrated in the second half.
    let plan = FaultPlan::new(7).link_fault(5_000.0, LinkFault::Loss { p: 0.3 });
    let mut fd = NfdS::new(1.0, 0.5).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let out = run_with_plan(
        &mut fd,
        &RunOptions::failure_free(1.0, StopCondition::Horizon(10_000.0)),
        exp_link(0.0, 0.02),
        &plan,
        &mut rng,
    );
    let first = AccuracyAnalysis::of_trace(&out.trace.restrict(10.0, 5_000.0));
    let second = AccuracyAnalysis::of_trace(&out.trace.restrict(5_001.0, 10_000.0));
    assert_eq!(first.mistake_count(), 0, "clean epoch must be mistake-free");
    assert!(
        second.mistake_count() > 100,
        "lossy epoch should be mistake-rich, got {}",
        second.mistake_count()
    );
}

/// Gilbert–Elliott burst loss over the whole run, starting in the good
/// state.
fn burst_plan(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64) -> FaultPlan {
    FaultPlan::new(0).link_fault(
        0.0,
        LinkFault::BurstLoss {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
        },
    )
}

#[test]
fn crash_detected_through_a_burst() {
    // The crash happens while the channel is mid-burst; NFD-S's bound is
    // unconditional (Theorem 5.1 needs no assumptions about losses).
    let plan = burst_plan(0.5, 0.1, 0.0, 0.95);
    let link = Link::new(0.0, Box::new(Constant::new(0.05).unwrap())).unwrap();
    let mut fd = NfdS::new(1.0, 2.0).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let out = run_with_plan(
        &mut fd,
        &RunOptions::with_crash(1.0, 50.4, 80.0),
        link,
        &plan,
        &mut rng,
    );
    match detection_time(&out.trace, 50.4) {
        DetectionOutcome::Detected { elapsed } => {
            assert!(elapsed <= 3.0 + 1e-9, "T_D {elapsed} > δ + η");
        }
        DetectionOutcome::AlreadySuspecting => {} // burst already blanked the link
        DetectionOutcome::NotDetected => panic!("crash never detected"),
    }
}

#[test]
fn nfd_e_survives_burst_without_permanent_suspicion() {
    // After a burst ends, fresh heartbeats must restore trust (mistake
    // durations stay bounded — no deadlock in the estimator state).
    let plan = burst_plan(0.02, 0.25, 0.0, 1.0); // bursts lose everything
    let mut fd = NfdE::new(1.0, 1.5, 32).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let out = run_with_plan(
        &mut fd,
        &RunOptions::failure_free(1.0, StopCondition::Horizon(20_000.0)),
        exp_link(0.0, 0.02),
        &plan,
        &mut rng,
    );
    let steady = out.trace.restrict(50.0, 20_000.0);
    let acc = AccuracyAnalysis::of_trace(&steady);
    assert!(acc.mistake_count() > 10, "bursts should cause mistakes");
    let max_tm = steady.mistake_durations().fold(0.0f64, f64::max);
    // Every mistake is eventually corrected, within a few burst lengths.
    assert!(max_tm < 100.0, "mistake lasted {max_tm} — detector stuck?");
    assert!(acc.query_accuracy_probability() > 0.8);
}

/// A duplicate-everything fault must not change what the detector *says*
/// — duplicates carry no new freshness — only how many copies arrive.
#[test]
fn duplicating_fault_leaves_trace_identical_to_nominal() {
    let base = || Link::new(0.0, Box::new(Constant::new(0.05).unwrap())).unwrap();
    let opts = RunOptions::failure_free(1.0, StopCondition::Horizon(500.0));
    let run_plan = |plan: &FaultPlan| {
        let mut fd = NfdS::new(1.0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        run_with_plan(&mut fd, &opts, base(), plan, &mut rng)
    };
    let nominal = run_plan(&FaultPlan::new(9));
    let duplicated = run_plan(&FaultPlan::new(9).link_fault(
        0.0,
        LinkFault::Duplicate {
            probability: 1.0,
            lag: 0.0,
        },
    ));
    assert_eq!(
        nominal.trace, duplicated.trace,
        "duplicates changed the detector's behavior"
    );
    assert_eq!(
        duplicated.heartbeats_delivered,
        2 * nominal.heartbeats_delivered,
        "every heartbeat should arrive exactly twice"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The engine's trace is always well-formed: transitions strictly
    /// within the window, alternating, and the heartbeat accounting adds
    /// up.
    #[test]
    fn prop_trace_well_formed(
        seed in 0u64..1000,
        p_l in 0.0f64..0.5,
        delta_tenths in 1u32..30,
    ) {
        let link = exp_link(p_l, 0.02);
        let mut fd = NfdS::new(1.0, delta_tenths as f64 / 10.0).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = run(
            &mut fd,
            &RunOptions::failure_free(1.0, StopCondition::Horizon(500.0)),
            &link,
            &mut rng,
        );
        prop_assert!(out.heartbeats_delivered <= out.heartbeats_sent);
        prop_assert_eq!(out.heartbeats_sent, 500);
        let tr = &out.trace;
        prop_assert_eq!(tr.start(), 0.0);
        prop_assert_eq!(tr.end(), 500.0);
        let mut prev_t = 0.0;
        let mut prev_o = tr.initial_output();
        for t in tr.transitions() {
            prop_assert!(t.at >= prev_t && t.at <= 500.0);
            prop_assert_ne!(t.to, prev_o);
            prev_t = t.at;
            prev_o = t.to;
        }
    }

    /// Twin-detector property: delivering every heartbeat two extra times
    /// (once at the same instant, once slightly later) must never move
    /// the freshness point — the twin that sees duplicates keeps exactly
    /// the same output and next deadline as the twin that doesn't, for
    /// both NFD-S (max-seq freshness) and NFD-E (stale seqs ignored by
    /// the arrival estimator, so T_MR estimates cannot inflate).
    #[test]
    fn prop_duplicates_never_increase_freshness(seed in 0u64..500) {
        let eta = 1.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s_clean = NfdS::new(eta, 0.5).unwrap();
        let mut s_dup = NfdS::new(eta, 0.5).unwrap();
        let mut e_clean = NfdE::new(eta, 0.5, 8).unwrap();
        let mut e_dup = NfdE::new(eta, 0.5, 8).unwrap();
        for i in 1..=80u64 {
            let send = i as f64 * eta;
            let arrival = send + rng.random::<f64>() * 0.4;
            let hb = Heartbeat::new(i, send);
            let echo_at = arrival + rng.random::<f64>() * 0.05;

            s_clean.on_heartbeat(arrival, hb);
            s_dup.on_heartbeat(arrival, hb);
            s_dup.on_heartbeat(arrival, hb); // same-instant duplicate
            s_dup.on_heartbeat(echo_at, hb); // late duplicate
            s_clean.advance(echo_at);
            prop_assert_eq!(s_clean.output(), s_dup.output());
            prop_assert_eq!(s_clean.next_deadline(), s_dup.next_deadline());

            e_clean.on_heartbeat(arrival, hb);
            e_dup.on_heartbeat(arrival, hb);
            e_dup.on_heartbeat(arrival, hb);
            e_dup.on_heartbeat(echo_at, hb);
            e_clean.advance(echo_at);
            prop_assert_eq!(e_clean.output(), e_dup.output());
            prop_assert_eq!(e_clean.next_deadline(), e_dup.next_deadline());
        }
    }

    /// Twin-detector property: reordered (stale) heartbeats — old
    /// sequence numbers arriving after newer ones — are inert. The twin
    /// that receives each stale echo behaves identically to the twin
    /// that never sees it.
    #[test]
    fn prop_reordered_stale_heartbeats_are_inert(
        seed in 0u64..500,
        stale_gap in 1u64..5,
    ) {
        let eta = 1.0;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD150_0DE5);
        let mut s_clean = NfdS::new(eta, 0.5).unwrap();
        let mut s_reord = NfdS::new(eta, 0.5).unwrap();
        let mut e_clean = NfdE::new(eta, 0.5, 8).unwrap();
        let mut e_reord = NfdE::new(eta, 0.5, 8).unwrap();
        for i in 1..=80u64 {
            let send = i as f64 * eta;
            let arrival = send + rng.random::<f64>() * 0.4;
            let hb = Heartbeat::new(i, send);
            s_clean.on_heartbeat(arrival, hb);
            s_reord.on_heartbeat(arrival, hb);
            e_clean.on_heartbeat(arrival, hb);
            e_reord.on_heartbeat(arrival, hb);
            if i > stale_gap {
                // A straggler from `stale_gap` intervals ago shows up now.
                let old = i - stale_gap;
                let stale = Heartbeat::new(old, old as f64 * eta);
                let at = arrival + rng.random::<f64>() * 0.05;
                s_reord.on_heartbeat(at, stale);
                e_reord.on_heartbeat(at, stale);
                s_clean.advance(at);
                e_clean.advance(at);
            }
            prop_assert_eq!(s_clean.output(), s_reord.output());
            prop_assert_eq!(s_clean.next_deadline(), s_reord.next_deadline());
            prop_assert_eq!(e_clean.output(), e_reord.output());
            prop_assert_eq!(e_clean.next_deadline(), e_reord.next_deadline());
        }
    }
}
