//! E2 — Validates the Theorem 1 relations between the accuracy metrics
//! on simulated NFD-S traces, including the waiting-time paradox (1.3c):
//! `E(T_FG) = [1 + V(T_G)/E(T_G)²]·E(T_G)/2 > E(T_G)/2` in general.

use fd_bench::report::fmt_num;
use fd_bench::{paper_delay, steady_trace_of, Settings, Table};
use fd_core::detectors::NfdS;
use fd_metrics::{theorem1, AccuracyAnalysis};
use fd_sim::Link;
use fd_stats::Summary;
use rand::SeedableRng;

fn main() {
    let mut settings = Settings::from_env();
    // Theorem 1 validation wants many intervals; scale the default up.
    if !settings.paper {
        settings.recurrences = settings.recurrences.max(2000);
    }
    let delay = paper_delay();

    println!(
        "E2 — Theorem 1 relations on simulated NFD-S traces ({} intervals/point)\n",
        settings.recurrences
    );
    let mut t = Table::new(&[
        "p_L", "δ", "λ_M meas", "1/E(T_MR)", "P_A meas", "E(T_G)/E(T_MR)",
        "E(T_FG) meas", "Thm1.3c", "E(T_G)/2",
    ]);

    for (i, (p_l, delta)) in [(0.01, 0.5), (0.1, 0.5), (0.05, 1.0)].into_iter().enumerate() {
        let link = Link::new(p_l, Box::new(delay)).expect("valid link");
        let mut fd = NfdS::new(1.0, delta).expect("valid params");
        let trace = steady_trace_of(&mut fd, &link, &settings, 31 * (i as u64 + 1));
        let acc = AccuracyAnalysis::of_trace(&trace);

        let e_tmr = acc.mean_mistake_recurrence().expect("mistakes observed");
        let e_tg = acc.mean_good_period().expect("good periods observed");
        let tg = Summary::from_samples(&trace.good_periods().collect::<Vec<_>>()).expect("summary");
        let derived_fg = theorem1::forward_good_from_good_moments(e_tg, tg.population_variance());
        let measured_fg = acc.expected_forward_good_period().expect("trusted time");

        t.row(&[
            fmt_num(p_l),
            fmt_num(delta),
            fmt_num(acc.mistake_rate()),
            fmt_num(1.0 / e_tmr),
            fmt_num(acc.query_accuracy_probability()),
            fmt_num(e_tg / e_tmr),
            fmt_num(measured_fg),
            fmt_num(derived_fg),
            fmt_num(e_tg / 2.0),
        ]);

        let report = theorem1::check_theorem1(&trace).expect("complete intervals");
        assert!(
            report.max_residual() < 0.1,
            "Theorem 1 residual too large at p_L={p_l}, δ={delta}: {report:?}"
        );

        // Sampled T_FG CDF vs Theorem 1.3a.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9000 + i as u64);
        let samples = trace.sample_forward_good_periods(20_000, &mut rng);
        let x = e_tg; // probe the CDF at one interior point
        let empirical = samples.iter().filter(|&&s| s <= x).count() as f64 / samples.len() as f64;
        let analytic = theorem1::forward_good_cdf_from_good_samples(x, &tg);
        assert!(
            (empirical - analytic).abs() < 0.03,
            "Thm 1.3a CDF mismatch at x={x}: {empirical} vs {analytic}"
        );
    }
    t.print();
    println!();
    println!("checks: λ_M = 1/E(T_MR); P_A = E(T_G)/E(T_MR); E(T_FG) matches Thm 1.3c and");
    println!("*exceeds* E(T_G)/2 (the waiting-time paradox); Thm 1.3a CDF verified by sampling.");
}
