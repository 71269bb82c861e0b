//! E14 — Bursty traffic (§8.1.2): when losses arrive in bursts
//! (Gilbert–Elliott channel), the i.i.d. analysis underestimates
//! mistakes, and the paper's prescription — combine a fast short-term
//! estimator with a stable long-term one, "selecting the most
//! conservative" — governs how the adaptive detector should estimate.
//!
//! Part 1 measures how burstiness degrades NFD-S accuracy at equal
//! *average* loss (the independence assumption of §3.3 fails upward:
//! bursts swallow consecutive heartbeats, precisely the failure mode a
//! single lost message cannot cause when `δ` spans several `η`).
//!
//! Part 2 ablates the §8.1.2 combiner: short-only, long-only, and
//! conservative estimators feeding the §6.2 configurator under
//! alternating burst/calm epochs, comparing the recurrence requirement
//! each configuration actually achieves (per the long-run channel). It
//! drives the estimators and `configure_nfd_u` directly, with no
//! detector and no hysteresis: the parameters in force are those of the
//! last feasible configurator run, taken every 32 accepted heartbeats.

use fd_bench::report::fmt_num;
use fd_bench::{Settings, Table};
use fd_core::config::{configure_nfd_u, NfdUParams};
use fd_core::detectors::NfdS;
use fd_core::estimate::{DelayMomentsEstimator, WindowedLossRateEstimator};
use fd_metrics::{AccuracyAnalysis, QosRequirements};
use fd_sim::harness::{measure_accuracy, AccuracyRun};
use fd_sim::{run_with_plan, FaultPlan, Link, LinkFault, RunOptions, StopCondition};
use fd_stats::dist::Exponential;
use fd_stats::DelayDistribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn exp_delay() -> Box<dyn fd_stats::DelayDistribution> {
    Box::new(Exponential::with_mean(0.02).expect("valid"))
}

fn main() {
    let settings = Settings::from_env();
    println!("E14 — bursty traffic (§8.1.2)\n");

    // ---------------- Part 1: burstiness vs i.i.d. at equal loss -------
    println!("Part 1: NFD-S (δ = 2.5) under i.i.d. vs bursty loss, equal average p_L\n");
    let mut t = Table::new(&["channel", "avg p_L", "E(T_MR)", "E(T_M)"]);
    let mut rng = StdRng::seed_from_u64(settings.seed);

    // Bursty: bad state loses 90% with mean burst 5 heartbeats —
    // expressed through the shared fault model (a BurstLoss fault over a
    // clean exponential-delay link).
    let burst = LinkFault::BurstLoss {
        p_gb: 0.02,
        p_bg: 0.2,
        loss_good: 0.002,
        loss_bad: 0.9,
    };
    let stationary_bad = 0.02 / (0.02 + 0.2);
    let avg_loss = (1.0 - stationary_bad) * 0.002 + stationary_bad * 0.9;
    let plan = FaultPlan::new(settings.seed).link_fault(0.0, burst);
    let out = run_with_plan(
        &mut NfdS::new(1.0, 2.5).expect("valid"),
        &RunOptions::failure_free(
            1.0,
            StopCondition::STransitions {
                count: settings.recurrences.max(300),
                max_heartbeats: settings.max_heartbeats,
            },
        ),
        Link::new(0.0, exp_delay()).expect("valid"),
        &plan,
        &mut rng,
    );
    let acc = AccuracyAnalysis::of_trace(&out.trace.restrict(50.0_f64.min(out.trace.end()), out.trace.end()));
    t.row(&[
        "Gilbert–Elliott bursts".into(),
        fmt_num(avg_loss),
        fmt_num(acc.mean_mistake_recurrence().unwrap_or(f64::INFINITY)),
        fmt_num(acc.mean_mistake_duration().unwrap_or(0.0)),
    ]);
    let tmr_burst = acc.mean_mistake_recurrence().unwrap_or(f64::INFINITY);

    // i.i.d. with the same average loss.
    let link = Link::new(avg_loss, exp_delay()).expect("valid");
    let mut fd = NfdS::new(1.0, 2.5).expect("valid");
    let acc = measure_accuracy(
        &mut fd,
        &AccuracyRun {
            eta: 1.0,
            recurrence_target: settings.recurrences.max(300),
            max_heartbeats: settings.max_heartbeats,
            warmup: 50.0,
        },
        &link,
        &mut rng,
    );
    let tmr_iid = acc.mean_mistake_recurrence().unwrap_or(f64::INFINITY);
    t.row(&[
        "i.i.d. (same avg loss)".into(),
        fmt_num(avg_loss),
        fmt_num(tmr_iid),
        fmt_num(acc.mean_mistake_duration().unwrap_or(0.0)),
    ]);
    t.print();
    println!(
        "\nburst penalty: E(T_MR) is {:.0}× worse under bursts at equal average loss\n",
        tmr_iid / tmr_burst
    );
    assert!(
        tmr_burst < tmr_iid,
        "bursts must hurt accuracy at equal average loss"
    );

    // ---------------- Part 2: §8.1.2 combiner ablation ------------------
    println!("Part 2: estimator-combiner ablation under alternating calm/burst epochs\n");
    // A demanding recurrence target over a tight detection budget: the
    // configuration must respect the bursts or it will miss.
    let req = QosRequirements::new(2.5, 1_000_000.0, 1.0).expect("valid");
    // Each combiner is a (short, long) pair of estimator horizons, in
    // heartbeats; its estimate is the worse of the two on each axis.
    let variants: [(&str, u64, u64); 3] = [
        ("short-only (32/32)", 32, 32),
        ("long-only (512/512)", 512, 512),
        ("conservative (32+512)", 32, 512),
    ];
    // Heartbeats accepted between configurator runs.
    const RECONFIGURE_EVERY: u64 = 32;

    let mut t = Table::new(&[
        "combiner", "final η", "final α", "p̂_L seen", "λ_M under long-run channel", "meets?",
    ]);
    // Alternating epochs: 400 calm heartbeats (0.2% loss), then an
    // 80-heartbeat burst period (30% loss), repeated 4×, then a final
    // calm stretch — the moment a short-only estimator has *forgotten*
    // the bursts. The schedule is a FaultPlan whose timeline is indexed
    // by heartbeat number (any monotone coordinate works), replacing the
    // per-phase loss coin this experiment used to hand-roll.
    const CALM: u64 = 400;
    const BURST: u64 = 80;
    const CYCLES: u64 = 4;
    let mut schedule = FaultPlan::new(settings.seed ^ 0x5EED)
        .link_fault(0.0, LinkFault::Loss { p: 0.002 });
    for cycle in 0..CYCLES {
        let cycle_start = (cycle * (CALM + BURST)) as f64;
        schedule = schedule
            .link_fault(cycle_start + CALM as f64, LinkFault::Loss { p: 0.3 })
            .link_fault(cycle_start + (CALM + BURST) as f64, LinkFault::Loss { p: 0.002 });
    }

    for (name, short, long) in variants {
        let mut loss = [short, long].map(WindowedLossRateEstimator::new);
        let mut delays = [short, long].map(|n| DelayMomentsEstimator::new(n as usize));
        let mut p = NfdUParams { eta: 1.0, alpha: 1.5 };
        let mut rng = StdRng::seed_from_u64(settings.seed ^ 0x5EED);
        let mut injector = schedule.injector();
        let (mut now, mut accepted) = (0.0f64, 0u64);
        let mut fates: Vec<f64> = Vec::with_capacity(2);
        let delay = Exponential::with_mean(0.02).expect("valid");
        let mut p_l = 0.0;
        for seq in 1..=CYCLES * (CALM + BURST) + CALM {
            // The sender runs at the η in force.
            now += p.eta;
            fates.clear();
            // Heartbeat k looks up segment at coordinate k − 1, so
            // heartbeats 1..=CALM fall in the first calm segment.
            let base = Some(delay.sample(&mut rng));
            injector.apply((seq - 1) as f64, base, &mut rng, &mut fates);
            let Some(d) = fates.iter().copied().reduce(f64::min) else { continue };
            for est in &mut loss {
                est.observe(seq);
            }
            for est in &mut delays {
                est.observe(now, now + d);
            }
            accepted += 1;
            let [Some(l0), Some(l1)] = loss.each_ref().map(|e| e.estimate()) else { continue };
            let [Some(v0), Some(v1)] = delays.each_ref().map(|e| e.delay_variance()) else {
                continue;
            };
            p_l = l0.max(l1);
            if accepted.is_multiple_of(RECONFIGURE_EVERY) {
                // An infeasible or failed run keeps the parameters in force.
                if let Ok(Some(fresh)) = configure_nfd_u(&req, p_l, v0.max(v1)) {
                    p = fresh;
                }
            }
        }
        // Long-run channel: the duty-cycle average loss.
        let long_run_loss = (400.0 * 0.002 + 80.0 * 0.3) / 480.0;
        let a = fd_core::NfdSAnalysis::for_nfd_u(p.eta, p.alpha, long_run_loss, &delay)
            .expect("valid");
        let lam = if a.mean_recurrence().is_finite() {
            1.0 / a.mean_recurrence()
        } else {
            0.0
        };
        let meets = lam <= 1.0 / 1_000_000.0 + 1e-12;
        t.row(&[
            name.into(),
            fmt_num(p.eta),
            fmt_num(p.alpha),
            fmt_num(p_l),
            fmt_num(lam),
            if meets { "yes".into() } else { "NO".into() },
        ]);
    }
    t.print();
    println!();
    println!("expected: the short-only estimator, sampled after a calm stretch, has");
    println!("forgotten the bursts (low p̂_L ⇒ optimistic η) and misses the requirement");
    println!("under the long-run channel; long-only and the paper's conservative combiner");
    println!("remember them and stay safe. The combiner additionally reacts fast when a");
    println!("burst *raises* the short-term estimate — the best of both (§8.1.2).");
}
