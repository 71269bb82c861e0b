//! `fig12_sim`: the reproduction user.
//!
//! The paper's Fig. 12 setting — `η = 1`, `p_L = 0.01`, `D ~ Exp(0.02)`
//! — simulated with `fd_sim::run` for NFD-S, NFD-E (window 32) and SFD-L
//! (cutoff 0.16) at three detection-time bounds, then analysed with
//! `AccuracyAnalysis::of_trace`. Fixed work, not fixed time: the horizon
//! is a constant number of heartbeats per second asked for. Calls
//! nothing in `fd-cluster`.

use super::{repeated_setup, Ctx};
use crate::gen::Rng64;
use crate::report::WorkloadResult;
use crate::trace::Tracer;
use fd_core::detectors::{NfdE, NfdS, SimpleFd};
use fd_core::{FailureDetector, NfdSAnalysis};
use fd_metrics::AccuracyAnalysis;
use fd_sim::run::{run as simulate, RunOptions, StopCondition};
use fd_sim::Link;
use fd_stats::dist::Exponential;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const ETA: f64 = 1.0;
const LOSS: f64 = 0.01;
const MEAN_DELAY: f64 = 0.02;
const BOUNDS: [f64; 3] = [1.25, 2.0, 2.75];
const DETECTORS: [&str; 3] = ["nfd_s", "nfd_e", "sfd_l"];
/// Simulated heartbeats per configuration per second of `--seconds`;
/// nine configurations then take about that many seconds on the box the
/// benchmark was frozen on.
const HORIZON_PER_SECOND: f64 = 2.5e6;

fn link() -> Link {
    Link::new(
        LOSS,
        Box::new(Exponential::with_mean(MEAN_DELAY).expect("valid mean")),
    )
    .expect("valid link")
}

fn detector(kind: &str, bound: f64) -> Box<dyn FailureDetector> {
    match kind {
        "nfd_s" => Box::new(NfdS::new(ETA, bound - ETA).expect("valid NFD-S")),
        "nfd_e" => Box::new(NfdE::new(ETA, bound - MEAN_DELAY - ETA, 32).expect("valid NFD-E")),
        _ => Box::new(SimpleFd::with_cutoff(bound - 0.16, 0.16).expect("valid SFD-L")),
    }
}

/// Theorem 5's `E(T_MR)` for NFD-S at each bound.
fn analytic() -> Vec<f64> {
    let delay = Exponential::with_mean(MEAN_DELAY).expect("valid mean");
    BOUNDS
        .iter()
        .map(|b| {
            NfdSAnalysis::new(ETA, b - ETA, LOSS, &delay)
                .expect("valid analysis")
                .mean_recurrence()
        })
        .collect()
}

/// S-transitions of one short NFD-S run; the same seed must give the
/// same count.
fn short_run(seed: u64) -> usize {
    let mut fd = detector("nfd_s", BOUNDS[0]);
    let mut rng = StdRng::seed_from_u64(seed);
    let opts = RunOptions::failure_free(ETA, StopCondition::Horizon(3e5));
    simulate(fd.as_mut(), &opts, &link(), &mut rng)
        .trace
        .s_transition_times()
        .count()
}

pub fn run(ctx: &Ctx) -> WorkloadResult {
    let mut result = WorkloadResult::new("fig12_sim");
    let mut tracer = Tracer::new(ctx.traced, ctx.origin, 0);
    let seeds = Rng64::new(ctx.seed).fork(3);

    // Set-up: the link, Theorem 5's curve, and each configuration run
    // once briefly, which also shows that a seed repeats exactly.
    let analysis_started = Instant::now();
    let expected = analytic();
    result.set(
        "core.analysis_ms",
        analysis_started.elapsed().as_secs_f64() * 1e3,
    );
    let probe_seed = seeds.fork(99).next_u64();
    let repeats = repeated_setup(
        &mut result,
        || {
            let _ = analytic();
            (short_run(probe_seed), short_run(probe_seed))
        },
        drop,
    );
    result.check(
        1,
        u64::from(repeats.0 != repeats.1 || repeats.0 == 0),
        "same seed gave different S-transition counts",
    );

    let horizon = (HORIZON_PER_SECOND * ctx.seconds).max(1e5);
    let link = link();
    let mut per_detector_ns = [0.0f64; 3];
    let mut rates = Vec::new();
    let (mut total_hb, mut total_s) = (0u64, 0.0f64);
    let (mut transitions, mut analyze_s) = (0u64, 0.0f64);
    let cpu_from = crate::sys::cpu_seconds();
    for (b, &bound) in BOUNDS.iter().enumerate() {
        let (mut group_hb, mut group_s) = (0u64, 0.0f64);
        for (d, kind) in DETECTORS.iter().enumerate() {
            let request = (b * DETECTORS.len() + d) as u64;
            let mut fd = detector(kind, bound);
            let mut rng = StdRng::seed_from_u64(seeds.fork(request).next_u64());
            let opts = RunOptions::failure_free(ETA, StopCondition::Horizon(horizon));
            let span = tracer.open("sim.run", 0, request);
            let t = Instant::now();
            let outcome = simulate(fd.as_mut(), &opts, &link, &mut rng);
            let sim_s = t.elapsed().as_secs_f64();
            tracer.close(span);
            let span = tracer.open("metrics.analyze", 0, request);
            let t = Instant::now();
            let accuracy = AccuracyAnalysis::of_trace(&outcome.trace);
            let analyzed_s = t.elapsed().as_secs_f64();
            analyze_s += analyzed_s;
            tracer.close(span);
            transitions += outcome.trace.transitions().len() as u64;
            group_hb += outcome.heartbeats_sent;
            group_s += sim_s + analyzed_s;
            per_detector_ns[d] +=
                sim_s * 1e9 / outcome.heartbeats_sent.max(1) as f64 / BOUNDS.len() as f64;
            if *kind == "nfd_s" {
                // Theorem 5 within 5 %, or within four standard errors
                // where the horizon holds too few mistakes for that.
                let mistakes = accuracy.mistake_count().max(1) as f64;
                let tolerance = 0.05f64.max(4.0 / mistakes.sqrt());
                let measured = accuracy.mean_mistake_recurrence().unwrap_or(f64::INFINITY);
                let off = (measured / expected[b] - 1.0).abs();
                println!(
                    "# fig12_sim: NFD-S at T_D^U = {bound}: E(T_MR) {measured:.3} simulated, {:.3} by Theorem 5, {} mistakes",
                    expected[b],
                    accuracy.mistake_count()
                );
                result.check(
                    1,
                    u64::from(off.is_nan() || off > tolerance),
                    "NFD-S E(T_MR) off Theorem 5",
                );
            }
            std::hint::black_box(accuracy.query_accuracy_probability());
        }
        rates.push(group_hb as f64 / group_s);
        total_hb += group_hb;
        total_s += group_s;
    }
    let cpu_s = crate::sys::cpu_seconds() - cpu_from;
    result.check(total_hb, 0, "simulated heartbeats");

    result.set_windows("hb_per_s", total_hb as f64 / total_s, rates);
    result.set("cpu_us_per_hb", cpu_s * 1e6 / total_hb.max(1) as f64);
    result.set("peak_rss_mb", crate::sys::peak_rss_mb());
    result.set("sim.ns_per_hb.nfd_s", per_detector_ns[0]);
    result.set("sim.ns_per_hb.nfd_e", per_detector_ns[1]);
    result.set("sim.ns_per_hb.sfd_l", per_detector_ns[2]);
    result.set(
        "metrics.analyze_ns_per_transition",
        analyze_s * 1e9 / transitions.max(1) as f64,
    );
    result.spans = tracer.into_spans();
    result
}
