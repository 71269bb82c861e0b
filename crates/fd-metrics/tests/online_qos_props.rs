//! Property tests pinning `OnlineQos` to the batch analysis: a tracker
//! fed the transitions of a random trace must reproduce the
//! `AccuracyAnalysis` estimates, and the observed interval statistics
//! must satisfy the Theorem 1 identities when the observation window
//! ends on a renewal point.

use fd_metrics::{AccuracyAnalysis, FdOutput, OnlineQos, TraceRecorder};
use proptest::prelude::*;

/// Deduped, sorted transition times in (0, horizon).
fn transition_times(raw: &[f64], horizon: f64) -> Vec<f64> {
    let mut times: Vec<f64> = raw
        .iter()
        .copied()
        .filter(|t| *t > 0.0 && *t < horizon)
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times.dedup();
    times
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn opt_close(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => close(a, b),
        (None, None) => true,
        _ => false,
    }
}

proptest! {
    /// Online tracking of a random alternating output stream reproduces
    /// the batch `AccuracyAnalysis` of the identical trace.
    #[test]
    fn prop_online_matches_batch(
        raw in collection::vec(0.0f64..100.0, 0..60),
        start_trusting in 0u8..2,
    ) {
        let horizon = 100.0;
        let initial = if start_trusting == 1 { FdOutput::Trust } else { FdOutput::Suspect };
        let times = transition_times(&raw, horizon);

        let mut rec = TraceRecorder::new(0.0, initial);
        let mut online = OnlineQos::new(0.0, initial);
        let mut out = initial;
        for &t in &times {
            out = out.toggled();
            rec.record(t, out);
            online.observe(t, out);
        }
        let trace = rec.finish(horizon);
        let batch = AccuracyAnalysis::of_trace(&trace);
        let obs = online.observed(horizon);

        prop_assert!(close(obs.window, batch.window()));
        prop_assert!(close(obs.query_accuracy(), batch.query_accuracy_probability()),
            "P_A online {} vs batch {}", obs.query_accuracy(), batch.query_accuracy_probability());
        prop_assert_eq!(obs.s_transitions as usize, batch.mistake_count());
        prop_assert!(close(obs.mistake_rate(), batch.mistake_rate()));
        prop_assert_eq!(obs.recurrence.count() as usize, trace.mistake_recurrences().count());
        prop_assert_eq!(obs.duration.count() as usize, trace.mistake_durations().count());
        prop_assert_eq!(obs.good.count() as usize, trace.good_periods().count());
        prop_assert!(opt_close(obs.mean_mistake_recurrence(), batch.mean_mistake_recurrence()),
            "E(T_MR) online {:?} vs batch {:?}",
            obs.mean_mistake_recurrence(), batch.mean_mistake_recurrence());
        prop_assert!(opt_close(obs.mean_mistake_duration(), batch.mean_mistake_duration()),
            "E(T_M) online {:?} vs batch {:?}",
            obs.mean_mistake_duration(), batch.mean_mistake_duration());
        prop_assert!(opt_close(obs.mean_good_period(), batch.mean_good_period()),
            "E(T_G) online {:?} vs batch {:?}",
            obs.mean_good_period(), batch.mean_good_period());
    }

    /// Theorem 1 identities hold exactly when the observation stops at
    /// the last S-transition (a renewal point): every recurrence interval
    /// then decomposes into one mistake duration plus one good period, so
    /// E(T_MR) = E(T_M) + E(T_G) with matched sample counts, and the
    /// steady-state accuracy equals E(T_G)/E(T_MR).
    #[test]
    fn prop_theorem1_identity_at_renewal_point(
        raw in collection::vec(0.0f64..500.0, 5..80),
    ) {
        let times = transition_times(&raw, 500.0);
        // Need at least two S-transitions for one complete recurrence.
        prop_assume!(times.len() >= 3);

        // Trust-first alternation: even indices are S, odd are T. Stop at
        // the last S-transition.
        let mut online = OnlineQos::new(0.0, FdOutput::Trust);
        let mut out = FdOutput::Trust;
        let last_s_index =
            if times.len().is_multiple_of(2) { times.len() - 2 } else { times.len() - 1 };
        let mut last_s_time = 0.0;
        for &t in &times[..=last_s_index] {
            out = out.toggled();
            online.observe(t, out);
            last_s_time = t;
        }
        let obs = online.observed(last_s_time);

        prop_assert_eq!(obs.recurrence.count(), obs.duration.count());
        prop_assert_eq!(obs.recurrence.count(), obs.good.count());
        let tmr = obs.mean_mistake_recurrence().unwrap();
        let tm = obs.mean_mistake_duration().unwrap();
        let tg = obs.mean_good_period().unwrap();
        prop_assert!(close(tmr, tm + tg),
            "Thm 1.1: E(T_MR) {} != E(T_M)+E(T_G) {}", tmr, tm + tg);
        let steady = obs.steady_query_accuracy().unwrap();
        prop_assert!(close(steady, tg / tmr),
            "Thm 1: P_A {} != E(T_G)/E(T_MR) {}", steady, tg / tmr);
        prop_assert!(close(steady, 1.0 - tm / tmr),
            "Thm 1: P_A {} != 1 - E(T_M)/E(T_MR) {}", steady, 1.0 - tm / tmr);
    }
}
