//! The §6 setting: the monitored process's clock is an hour off, yet
//! NFD-E detects its crash on time because it never looks at sender
//! timestamps — it estimates expected arrival times from its own clock
//! (Eq. 6.3).
//!
//! As a foil, the same heartbeats are fed to the simple algorithm *with
//! a cutoff* (which needs sender timestamps to judge delays): under the
//! same skew it discards every heartbeat and false-suspects a perfectly
//! healthy process.
//!
//! Each detector is driven directly over seeded arrivals, in scenario
//! time: heartbeat `i` leaves at `i·η` on the monitor's clock, is
//! stamped with the sender's skewed clock, and arrives after the link's
//! delay.
//!
//! ```text
//! cargo run --release --example unsynchronized_clocks
//! ```

use chen_fd_qos::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SKEW: f64 = 3600.0; // p's clock runs one hour ahead of q's
const ETA: f64 = 0.01; // 10 ms heartbeats

/// The heartbeats sent before `until` that arrive, as `(arrival,
/// heartbeat)` in arrival order: 1% loss, exponential delays with mean
/// 2 ms, each stamped with the sender's clock, `skew` off the monitor's.
fn arrivals(seed: u64, skew: f64, until: f64) -> Vec<(f64, Heartbeat)> {
    let link = Link::new(0.01, Box::new(Exponential::with_mean(0.002).expect("valid mean")))
        .expect("valid link");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<_> = (1..)
        .map(|seq| (seq, seq as f64 * ETA))
        .take_while(|&(_, sent)| sent < until)
        .filter_map(|(seq, sent)| {
            let at = link.transmit(sent, &mut rng)?;
            Some((at, Heartbeat::new(seq, sent + skew)))
        })
        .collect();
    out.sort_by(|a, b| a.0.total_cmp(&b.0));
    out
}

/// Feeds `fd` the arrivals up to `until` and returns its output then.
fn feed(fd: &mut dyn FailureDetector, arrivals: &[(f64, Heartbeat)], until: f64) -> FdOutput {
    for &(at, hb) in arrivals.iter().filter(|(at, _)| *at <= until) {
        fd.on_heartbeat(at, hb);
    }
    fd.output_at(until)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---------------- NFD-E: immune to the skew -----------------------
    let (alpha, crash) = (0.04, 0.4); // α = 40 ms, window 32
    let heartbeats = arrivals(1, SKEW, crash);
    let mut nfd_e = NfdE::new(ETA, alpha, 32)?;
    let landed = heartbeats.partition_point(|(at, _)| *at <= crash);
    let out = feed(&mut nfd_e, &heartbeats[..landed], crash);
    println!("NFD-E with sender clock {SKEW}s ahead: output = {out}");
    assert!(out.is_trust(), "NFD-E must not care about the skew");

    // p crashes: its last heartbeats land, then NFD-E's freshness point.
    for &(at, hb) in &heartbeats[landed..] {
        nfd_e.on_heartbeat(at, hb);
    }
    let detected = nfd_e.next_deadline().expect("trusted until its freshness point");
    let delays = heartbeats.iter().map(|(at, hb)| at - hb.seq as f64 * ETA);
    let max_delay = delays.fold(0.0, f64::max);
    let bound = ETA + alpha + max_delay;
    println!(
        "NFD-E suspects {:.1} ms after the crash (bound η + α + largest delay = {:.1} ms)",
        (detected - crash) * 1e3,
        bound * 1e3
    );
    assert!(detected - crash <= bound, "crash detected late");

    // ------------- simple algorithm + cutoff: broken by skew ----------
    // TO = 40 ms, cutoff = 16 ms: sane-looking numbers, but the apparent
    // delay `now − send_time` of every heartbeat is the real delay minus
    // the skew. Stamped an hour ahead, heartbeats look "from the future"
    // and pass the cutoff…
    let mut sfd = SimpleFd::with_cutoff(0.04, 0.016)?;
    let out = feed(&mut sfd, &arrivals(2, SKEW, 0.2), 0.2);
    println!("\nSFD+cutoff, sender clock ahead: output = {out}");

    // …but with p's clock BEHIND q's every heartbeat looks an hour old.
    let mut sfd = SimpleFd::with_cutoff(0.04, 0.016)?;
    let out = feed(&mut sfd, &arrivals(3, -SKEW, 0.3), 0.3);
    println!(
        "SFD+cutoff, sender clock {SKEW}s BEHIND: output = {out} — a false suspicion of a live \
         process"
    );
    assert!(out.is_suspect(), "the cutoff should discard every skew-stale heartbeat");

    println!("\nConclusion: bounding detection time via delay cutoffs requires synchronized");
    println!("clocks (or a fail-aware datagram service, §7.2 fn.13); NFD-E needs neither.");
    Ok(())
}
