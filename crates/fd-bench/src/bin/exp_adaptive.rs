//! E12 — Adaptivity (§8.1): a network whose behavior shifts between
//! epochs (quiet "night" vs lossy, jittery "day"). The adaptive detector
//! is one peer of a [`ClusterMonitor::manual`] that declares its QoS
//! requirements: every 64 heartbeats a control round re-estimates
//! `(p̂_L, V̂(D))` (the §8.1.2 short/long conservative pair) and
//! reconfigures `(η, α)`, and the sender confirms each recommended `η`.
//! A static detector configured for the night keeps its night parameters.
//!
//! Reported per epoch: the parameters in force and the mistake rate each
//! detector would incur under the epoch's law (computed via Theorem 5
//! with δ = E(D) + α — exact, no sampling noise).

use fd_bench::report::fmt_num;
use fd_bench::{Settings, Table};
use fd_cluster::{ClusterConfig, ClusterMonitor, ControlConfig, PeerConfig, PeerId};
use fd_core::config::NfdUParams;
use fd_core::{Heartbeat, NfdSAnalysis};
use fd_metrics::QosRequirements;
use fd_stats::dist::{Exponential, Mixture, Shifted};
use fd_stats::DelayDistribution;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

/// The one monitored peer.
const PEER: PeerId = 1;
/// Heartbeats between control rounds.
const ROUND_EVERY: u64 = 64;

fn night_law() -> Box<dyn DelayDistribution> {
    Box::new(Exponential::with_mean(0.01).expect("valid"))
}

fn day_law() -> Box<dyn DelayDistribution> {
    Box::new(
        Mixture::new(vec![
            (
                0.8,
                Box::new(Exponential::with_mean(0.05).expect("valid"))
                    as Box<dyn DelayDistribution>,
            ),
            (
                0.2,
                Box::new(
                    Shifted::new(Exponential::with_mean(0.05).expect("valid"), 0.8)
                        .expect("valid"),
                ),
            ),
        ])
        .expect("valid mixture"),
    )
}

/// The `(η, α)` in force for the peer.
fn params(monitor: &ClusterMonitor) -> NfdUParams {
    let st = monitor.status(PEER).expect("peer registered");
    NfdUParams { eta: st.eta, alpha: st.alpha }
}

/// Drives `count` heartbeats of the epoch's law into `monitor`, sent
/// every `η` in force, with a control round every [`ROUND_EVERY`]
/// heartbeats whose `η` recommendations the sender adopts at once.
fn drive(
    monitor: &ClusterMonitor,
    p_l: f64,
    law: &dyn DelayDistribution,
    seq: &mut u64,
    now: &mut f64,
    count: u64,
    rng: &mut StdRng,
) {
    for _ in 0..count {
        *now += params(monitor).eta;
        *seq += 1;
        if rng.random::<f64>() >= p_l {
            monitor.record_at(PEER, *now + law.sample(rng), Heartbeat::new(*seq, *now));
        }
        monitor.advance_to(*now);
        if seq.is_multiple_of(ROUND_EVERY) {
            monitor.run_control_round();
            for (peer, eta) in monitor.drain_eta_recommendations() {
                monitor.apply_eta(peer, eta);
            }
        }
    }
}

/// Exact mistake rate λ_M of NFD-U parameters under a given network law
/// (Theorem 5 with δ = E(D) + α, then Theorem 1.2).
fn mistake_rate(params: NfdUParams, p_l: f64, law: &dyn DelayDistribution) -> f64 {
    let a = NfdSAnalysis::for_nfd_u(params.eta, params.alpha, p_l, law).expect("valid");
    let tmr = a.mean_recurrence();
    if tmr.is_infinite() {
        0.0
    } else {
        1.0 / tmr
    }
}

fn main() {
    let settings = Settings::from_env();
    let epoch_len = if settings.paper { 5000 } else { 1200 };
    // QoS (relative, §6): detect within 4 s + E(D); ≥ 200 000 s (~2.3
    // days) between mistakes; corrected within 1 s.
    const T_MR_L: f64 = 200_000.0;
    let req = QosRequirements::new(4.0, T_MR_L, 1.0).expect("valid requirements");

    let adaptive = ClusterMonitor::manual(ClusterConfig {
        control: ControlConfig {
            short_loss_span: 32,
            short_delay_window: 32,
            long_delay_window: 512,
            ..ControlConfig::default()
        },
        ..ClusterConfig::default()
    });
    adaptive.add_peer(PEER, PeerConfig::new(1.0, 3.0).requirements(req)).expect("valid peer");
    let mut rng = StdRng::seed_from_u64(settings.seed);
    let (mut seq, mut now) = (0u64, 0.0f64);

    println!("E12 — §8.1 adaptivity across network epochs ({epoch_len} heartbeats/epoch)\n");
    let mut t = Table::new(&[
        "epoch", "detector", "η", "α", "λ_M under epoch law", "meets T_MR^L?",
    ]);

    // Night epoch.
    drive(&adaptive, 0.0, night_law().as_ref(), &mut seq, &mut now, epoch_len, &mut rng);
    let static_params = params(&adaptive); // static FD keeps these
    for (who, p) in [("adaptive", params(&adaptive)), ("static", static_params)] {
        let lam = mistake_rate(p, 0.0, night_law().as_ref());
        t.row(&[
            "night".into(),
            who.into(),
            fmt_num(p.eta),
            fmt_num(p.alpha),
            fmt_num(lam),
            if lam <= 1.0 / T_MR_L + 1e-12 { "yes".into() } else { "NO".into() },
        ]);
    }

    // Day epoch: 5% loss, heavy jitter.
    drive(&adaptive, 0.05, day_law().as_ref(), &mut seq, &mut now, epoch_len, &mut rng);
    let day_p = params(&adaptive);
    for (who, p) in [("adaptive", day_p), ("static", static_params)] {
        let lam = mistake_rate(p, 0.05, day_law().as_ref());
        t.row(&[
            "day".into(),
            who.into(),
            fmt_num(p.eta),
            fmt_num(p.alpha),
            fmt_num(lam),
            if lam <= 1.0 / T_MR_L + 1e-12 { "yes".into() } else { "NO".into() },
        ]);
    }
    t.print();

    assert!(
        day_p.eta < static_params.eta,
        "adaptation should tighten η for the day network"
    );
    println!();
    println!("expected: the static detector's night parameters violate the recurrence");
    println!("requirement once the day traffic arrives; the adaptive detector trades");
    println!("bandwidth (smaller η) for slack (larger α) and keeps meeting it.");
    println!("(§8.1.2's conservative short/long-term combiner supplies the estimates.)");
}
