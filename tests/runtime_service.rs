//! Integration tests for the real-time runtime: the full QoS pipeline
//! running on threads and wall-clock timers.

use chen_fd_qos::prelude::*;
use fd_runtime::{LinkSpec, ProcessSpec, Service};
use std::time::{Duration, Instant};

fn exp_link(loss: f64, mean: f64) -> LinkSpec {
    LinkSpec::new(loss, Box::new(Exponential::with_mean(mean).unwrap())).unwrap()
}

#[test]
fn qos_to_running_service_pipeline() {
    let mut svc = Service::new();
    let req = QosRequirements::new(0.2, 120.0, 0.05).unwrap();
    let params = svc
        .watch(
            ProcessSpec::named("svc-a")
                .qos(req, 0.01, 4e-6)
                .link(exp_link(0.01, 0.002))
                .seed(101),
        )
        .unwrap();
    // The configured budget is spent exactly: η + α = T_D^u.
    assert!((params.eta + params.alpha - 0.2).abs() < 1e-9);

    std::thread::sleep(Duration::from_millis(300));
    assert!(svc.status()["svc-a"].is_trust(), "healthy process trusted");

    let t0 = Instant::now();
    svc.crash("svc-a");
    while svc.status()["svc-a"].is_trust() {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "crash not detected in 5 s"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // Bound: T_D^u + E(D) (+ generous scheduling slop for CI machines).
    assert!(
        t0.elapsed() <= Duration::from_millis(600),
        "T_D = {:?} vs budget 202 ms (+slop)",
        t0.elapsed()
    );
    svc.shutdown();
}

#[test]
fn no_false_suspicions_on_clean_link_during_observation() {
    let mut svc = Service::new();
    svc.watch(
        ProcessSpec::named("stable")
            // α covers a scheduler stall: the property is about the link,
            // not about how long the heartbeater thread goes unscheduled.
            .heartbeat_params(fd_core::config::NfdUParams {
                eta: 0.01,
                alpha: 0.5,
            })
            .link(exp_link(0.0, 0.001))
            .seed(7),
    )
    .unwrap();
    // Warm up, then sample the output repeatedly for half a second.
    std::thread::sleep(Duration::from_millis(150));
    for _ in 0..50 {
        assert!(
            svc.status()["stable"].is_trust(),
            "false suspicion on a clean link"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let trace = svc.unwatch("stable").unwrap();
    // At most the initial S→T transition after warm-up.
    let steady = trace.restrict(trace.start() + 0.15, trace.end());
    assert_eq!(
        steady.transitions().len(),
        0,
        "unexpected transitions: {:?}",
        steady.transitions().collect::<Vec<_>>()
    );
}

#[test]
fn lossy_link_still_detects_crash_not_before() {
    let mut svc = Service::new();
    // 10% loss: α must absorb a lost heartbeat (α > η ⇒ the next one
    // still arrives in time).
    svc.watch(
        ProcessSpec::named("flaky")
            .heartbeat_params(fd_core::config::NfdUParams {
                eta: 0.01,
                alpha: 0.12,
            })
            .link(exp_link(0.1, 0.002))
            .seed(23),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(400));
    assert!(svc.status()["flaky"].is_trust());
    svc.crash("flaky");
    std::thread::sleep(Duration::from_millis(400));
    assert!(svc.status()["flaky"].is_suspect());
    svc.shutdown();
}
