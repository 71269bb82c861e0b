//! Shared machinery for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a binary under
//! `src/bin/` (see `DESIGN.md`'s experiment index E1–E13). Binaries print
//! aligned text tables — the same rows/series the paper reports — and
//! accept a few flags for scale:
//!
//! ```text
//! --recurrences N   mistake-recurrence intervals per point (default 100;
//!                   the paper uses 500 — pass --paper)
//! --paper           full paper-scale settings
//! --seed N          base RNG seed
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod settings;

pub use report::Table;
pub use settings::Settings;

use fd_core::FailureDetector;
use fd_metrics::{AccuracyAnalysis, TransitionTrace};
use fd_sim::harness::{steady_state_trace, AccuracyRun};
use fd_sim::Link;
use fd_stats::dist::Exponential;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// The §7 simulation setting: `η = 1`, `p_L = 0.01`, `D ~ Exp(0.02)`.
pub fn paper_section7_link() -> Link {
    Link::new(0.01, Box::new(paper_delay())).expect("valid link")
}

/// The §7 delay law: exponential with `E(D) = 0.02`.
pub fn paper_delay() -> Exponential {
    Exponential::with_mean(0.02).expect("valid mean")
}

/// Measures steady-state accuracy of `fd` under the §7 methodology.
pub fn accuracy_of(
    fd: &mut dyn FailureDetector,
    link: &Link,
    settings: &Settings,
    seed_offset: u64,
) -> AccuracyAnalysis {
    AccuracyAnalysis::of_trace(&steady_trace_of(fd, link, settings, seed_offset))
}

/// The steady-state trace [`accuracy_of`] analyses, for experiments that
/// need the samples behind the means.
pub fn steady_trace_of(
    fd: &mut dyn FailureDetector,
    link: &Link,
    settings: &Settings,
    seed_offset: u64,
) -> TransitionTrace {
    let mut rng = StdRng::seed_from_u64(settings.seed.wrapping_add(seed_offset));
    steady_state_trace(
        fd,
        &AccuracyRun {
            eta: 1.0,
            recurrence_target: settings.recurrences,
            max_heartbeats: settings.max_heartbeats,
            warmup: 50.0,
        },
        link,
        &mut rng,
    )
}

/// One whole-response HTTP GET against a metrics exporter: the
/// response's head and body. Panics unless the status is `200 OK`.
pub fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("malformed HTTP response");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "scrape failed: {head}");
    (head.to_string(), body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_link_parameters() {
        let link = paper_section7_link();
        assert_eq!(link.loss_probability(), 0.01);
        assert!((link.delay().mean() - 0.02).abs() < 1e-12);
    }
}
