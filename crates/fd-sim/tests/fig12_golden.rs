//! Fig. 12 pinned bit for bit: the nine `fig12_sim` configurations
//! (NFD-S / NFD-E / SFD-L × `T_D^U` ∈ {1.25, 2, 2.75}; `η = 1`,
//! `p_L = 0.01`, `D ~ Exp(0.02)`) at a horizon of 10⁵ heartbeats and fixed
//! seeds. The transition counts, `P_A` and mean `T_MR` columns were
//! printed by the commit before the single-pass `AccuracyAnalysis::of_trace`
//! and NFD-S's trust-time deadline; mean `T_M`, mean `T_G`, `λ_M` and
//! `E(T_FG)` by the commit before `AccuracyAnalysis` became a scalar fold.
//! An engine, detector or analysis change that moves any trace or any
//! estimate fails here. Regenerate (`-- --ignored --nocapture`) only from
//! a clone of the commit whose behaviour is the reference.

use fd_core::detectors::{NfdE, NfdS, SimpleFd};
use fd_core::FailureDetector;
use fd_metrics::AccuracyAnalysis;
use fd_sim::{run, Link, RunOptions, StopCondition};
use fd_stats::dist::Exponential;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ETA: f64 = 1.0;
const LOSS: f64 = 0.01;
const MEAN_DELAY: f64 = 0.02;
const HORIZON: f64 = 1e5;
const SEED: u64 = 20260706;

/// One configuration's pinned outcome.
struct Golden {
    detector: &'static str,
    bound: f64,
    transitions: usize,
    delivered: u64,
    /// `P_A` as `f64::to_bits`.
    pa_bits: u64,
    /// Mean `T_MR` as `f64::to_bits`, if two mistakes were seen.
    tmr_bits: Option<u64>,
    /// Mean `T_M` as `f64::to_bits`, if a mistake ended in the window.
    tm_bits: Option<u64>,
    /// Mean `T_G` as `f64::to_bits`, if a good period ended in the window.
    tg_bits: Option<u64>,
    /// `λ_M` as `f64::to_bits`.
    rate_bits: u64,
    /// `E(T_FG)` as `f64::to_bits`, if the detector trusted.
    fg_bits: Option<u64>,
}

fn detector(kind: &str, bound: f64) -> Box<dyn FailureDetector> {
    match kind {
        "nfd_s" => Box::new(NfdS::new(ETA, bound - ETA).unwrap()),
        "nfd_e" => Box::new(NfdE::new(ETA, bound - MEAN_DELAY - ETA, 32).unwrap()),
        _ => Box::new(SimpleFd::with_cutoff(bound - 0.16, 0.16).unwrap()),
    }
}

/// Simulates and analyses every configuration, in `fig12_sim` order.
fn measure() -> Vec<Golden> {
    let link = Link::new(LOSS, Box::new(Exponential::with_mean(MEAN_DELAY).unwrap())).unwrap();
    let opts = RunOptions::failure_free(ETA, StopCondition::Horizon(HORIZON));
    let mut out = Vec::new();
    for bound in [1.25, 2.0, 2.75] {
        for kind in ["nfd_s", "nfd_e", "sfd_l"] {
            let mut fd = detector(kind, bound);
            let mut rng = StdRng::seed_from_u64(SEED + out.len() as u64);
            let outcome = run(fd.as_mut(), &opts, &link, &mut rng);
            let acc = AccuracyAnalysis::of_trace(&outcome.trace);
            out.push(Golden {
                detector: kind,
                bound,
                transitions: outcome.trace.transitions().len(),
                delivered: outcome.heartbeats_delivered,
                pa_bits: acc.query_accuracy_probability().to_bits(),
                tmr_bits: acc.mean_mistake_recurrence().map(f64::to_bits),
                tm_bits: acc.mean_mistake_duration().map(f64::to_bits),
                tg_bits: acc.mean_good_period().map(f64::to_bits),
                rate_bits: acc.mistake_rate().to_bits(),
                fg_bits: acc.expected_forward_good_period().map(f64::to_bits),
            });
        }
    }
    out
}

#[rustfmt::skip]
const GOLDEN: [Golden; 9] = [
    Golden { detector: "nfd_s", bound: 1.25, transitions: 1941, delivered: 99013, pa_bits: 0x3fefc176adb01aff, tmr_bits: Some(0x4059bf78bc1a6b43), tm_bits: Some(0x3fe9267fda3243ba), tg_bits: Some(0x40598cc6cb5fa6ea), rate_bits: 0x3f83dd97f62b6ae8, fg_bits: Some(0x405ace7ebaa555de) },
    Golden { detector: "nfd_e", bound: 1.25, transitions: 1989, delivered: 98997, pa_bits: 0x3fefc087d918acba, tmr_bits: Some(0x405923f6cf5a46cc), tm_bits: Some(0x3fe8e8e09cd3191c), tg_bits: Some(0x4058ef57043f7924), rate_bits: 0x3f845b6c3760bf5d, fg_bits: Some(0x4059a61e1ecdf2f1) },
    Golden { detector: "sfd_l", bound: 1.25, transitions: 2987, delivered: 99038, pa_bits: 0x3fefb577144958cb, tmr_bits: Some(0x4050bcb23c80954e), tm_bits: Some(0x3fe37ab1cec879bb), tg_bits: Some(0x40509616618bc0f1), rate_bits: 0x3f8e939eadd590c1, fg_bits: Some(0x4050a39caee29c50) },
    Golden { detector: "nfd_s", bound: 2.0, transitions: 1885, delivered: 99049, pa_bits: 0x3feffdb1b6f6b959, tmr_bits: Some(0x405a87c0e258b04a), tm_bits: Some(0x3f9d7ccc750ca41b), tg_bits: Some(0x405a809b46f08b5c), rate_bits: 0x3f834acaff6d3309, fg_bits: Some(0x4059b2356036b037) },
    Golden { detector: "nfd_e", bound: 2.0, transitions: 1819, delivered: 99032, pa_bits: 0x3feffd49562acdbb, tmr_bits: Some(0x405b78cfa8393e6c), tm_bits: Some(0x3fa217f94b2aac88), tg_bits: Some(0x405b75da72dfc268), rate_bits: 0x3f829dc725c3dee8, fg_bits: Some(0x405c97ff0e4bce06) },
    Golden { detector: "sfd_l", bound: 2.0, transitions: 2203, delivered: 98917, pa_bits: 0x3feff0a19235a6f4, tmr_bits: Some(0x4056b262325f1e8f), tm_bits: Some(0x3fc5b045cd045053), tg_bits: Some(0x4056a39a4a539109), rate_bits: 0x3f868c692f6e8295, fg_bits: Some(0x4057c721521ee46b) },
    Golden { detector: "nfd_s", bound: 2.75, transitions: 13, delivered: 98978, pa_bits: 0x3fefffc915a563ce, tmr_bits: Some(0x40d15f4ccccccccd), tm_bits: Some(0x3fd1275379cd6000), tg_bits: Some(0x40cdbf732a0ae95c), rate_bits: 0x3f0f75104d551d69, fg_bits: Some(0x40c3e9cdbc68c60d) },
    Golden { detector: "nfd_e", bound: 2.75, transitions: 17, delivered: 99023, pa_bits: 0x3fefffbd2a71bd2f, tmr_bits: Some(0x40c8c24938a6ceaf), tm_bits: Some(0x3fd158963bebd800), tg_bits: Some(0x40c71d5d30a342bc), rate_bits: 0x3f14f8b588e368f1, fg_bits: Some(0x40c731d211beeb8a) },
    Golden { detector: "sfd_l", bound: 2.75, transitions: 19, delivered: 99018, pa_bits: 0x3fefffa090f49b8e, tmr_bits: Some(0x40c47f1f3ee5a6e8), tm_bits: Some(0x3fd9233c2397aaab), tg_bits: Some(0x40c3b35bcbbafa54), rate_bits: 0x3f1797cc39ffd60f, fg_bits: Some(0x40bee3fc4dd54bc0) },
];

#[test]
fn fig12_configurations_match_the_reference_bit_for_bit() {
    for (got, want) in measure().iter().zip(&GOLDEN) {
        let at = format!("{} at T_D^U = {}", got.detector, got.bound);
        assert_eq!(
            (got.detector, got.bound),
            (want.detector, want.bound),
            "table order"
        );
        assert_eq!(got.transitions, want.transitions, "transitions, {at}");
        assert_eq!(got.delivered, want.delivered, "heartbeats delivered, {at}");
        assert_eq!(got.pa_bits, want.pa_bits, "P_A bits, {at}");
        assert_eq!(got.tmr_bits, want.tmr_bits, "mean T_MR bits, {at}");
        assert_eq!(got.tm_bits, want.tm_bits, "mean T_M bits, {at}");
        assert_eq!(got.tg_bits, want.tg_bits, "mean T_G bits, {at}");
        assert_eq!(got.rate_bits, want.rate_bits, "λ_M bits, {at}");
        assert_eq!(got.fg_bits, want.fg_bits, "E(T_FG) bits, {at}");
    }
}

#[test]
#[ignore = "prints the GOLDEN table; run only on the reference commit"]
fn print_golden_table() {
    let opt = |bits: Option<u64>| bits.map_or("None".to_string(), |b| format!("Some({b:#018x})"));
    for g in measure() {
        println!(
            "    Golden {{ detector: {:?}, bound: {:?}, transitions: {}, delivered: {}, pa_bits: {:#018x}, tmr_bits: {}, tm_bits: {}, tg_bits: {}, rate_bits: {:#018x}, fg_bits: {} }},",
            g.detector,
            g.bound,
            g.transitions,
            g.delivered,
            g.pa_bits,
            opt(g.tmr_bits),
            opt(g.tm_bits),
            opt(g.tg_bits),
            g.rate_bits,
            opt(g.fg_bits),
        );
    }
}
