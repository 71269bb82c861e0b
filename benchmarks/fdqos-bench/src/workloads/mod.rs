//! The five workloads and what they share: the run context, repeated
//! set-up, and a live monitor fed over the host loopback.

pub mod consumer;
pub mod detect;
pub mod flood;
pub mod probes;
pub mod sim;

use crate::report::WorkloadResult;
use crate::stats::median;
use crate::sys::ScratchDir;
use fd_cluster::{
    ClusterConfig, ClusterMonitor, ClusterReceiver, ClusterReceiverConfig, ClusterSender,
    ClusterSenderConfig, PeerConfig,
};
use std::net::{Ipv4Addr, SocketAddr};
use std::path::PathBuf;
use std::time::Instant;

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Record spans and run the per-layer probes.
    pub traced: bool,
    /// Zero of every bench timestamp of the run.
    pub origin: Instant,
}

impl Ctx {
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// A generator held up for longer than this invalidates an open-loop
/// run: the box stalled the bench thread (vCPU steal on a shared host
/// reaches 300 ms), the heartbeats of that stretch left late and then in
/// one burst, and what the monitor made of that — suspicions of live
/// peers once the delay passes `α`, datagrams dropped from a full socket
/// buffer — says nothing about the stack.
pub const STALL_LIMIT_S: f64 = 0.050;

/// Attempts at an open-loop run before a stalled one is reported as is.
pub const ATTEMPTS: usize = 3;

/// Runs `once` until the generator got through without a stall, at most
/// [`ATTEMPTS`] times. `once` returns the result and the generator's
/// worst lateness in seconds. Every attempt is printed.
pub fn until_undisturbed(
    name: &str,
    mut once: impl FnMut() -> (WorkloadResult, f64),
) -> WorkloadResult {
    for attempt in 1..=ATTEMPTS {
        let (result, stalled_s) = once();
        if stalled_s <= STALL_LIMIT_S {
            return result;
        }
        let verdict = if attempt < ATTEMPTS {
            "repeating the run"
        } else {
            "reporting it as it is"
        };
        println!(
            "# {name}: attempt {attempt} disturbed — the generator was held up for {:.0} ms \
             ({} of {} operations failed); {verdict}",
            stalled_s * 1e3,
            result.failed,
            result.attempted
        );
        if attempt == ATTEMPTS {
            return result;
        }
    }
    unreachable!("the last attempt returns")
}

/// Windows the measured phase is cut into; a reported percentile is the
/// median of the per-window values.
pub const WINDOWS: usize = 4;

/// Set-up is repeated at least this often, and until it has taken
/// [`SETUP_BUDGET_S`] in all; `setup_s` is the median. A 9 ms set-up is
/// then the median of some thirty, not of nine.
pub const SETUP_REPS: usize = 9;
pub const SETUP_BUDGET_S: f64 = 0.3;
const SETUP_REPS_MAX: usize = 40;

pub fn run(name: &str, ctx: &Ctx) -> Option<WorkloadResult> {
    Some(match name {
        "flood_ingest" => flood::run(ctx),
        "steady_detect" => detect::run(ctx, false),
        "persist_detect" => detect::run(ctx, true),
        "consumer_mix" => consumer::run(ctx),
        "fig12_sim" => sim::run(ctx),
        _ => return None,
    })
}

/// Builds the workload's state repeatedly, discarding all but the last,
/// and stores the median build time as `setup_s`.
pub fn repeated_setup<T>(
    result: &mut WorkloadResult,
    mut build: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> T {
    let mut times = Vec::with_capacity(SETUP_REPS_MAX);
    loop {
        let t = Instant::now();
        let built = build();
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= SETUP_REPS && times.iter().sum::<f64>() >= SETUP_BUDGET_S;
        if enough || times.len() == SETUP_REPS_MAX {
            result.set_windows("setup_s", median(&times), times);
            return built;
        }
        discard(built);
    }
}

/// A monitor with its peers registered, a receiver bound on the host
/// loopback (one pump thread) and one sender connected to it.
pub struct Live {
    pub monitor: ClusterMonitor,
    pub rx: ClusterReceiver,
    pub tx: ClusterSender,
    /// Seconds the `add_peer` loop took.
    pub add_peer_s: f64,
    /// Snapshot file, when persistence is on; lives in `_dir`.
    pub snapshot_path: Option<PathBuf>,
    _dir: Option<ScratchDir>,
}

#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    pub peers: u64,
    pub peer: PeerConfig,
    pub max_batch: usize,
    pub persist: bool,
}

/// Subscriber channels hold a full warm-up's worth of `Trusted` events,
/// so a correct run drops none.
pub const EVENT_CAPACITY: usize = 1 << 16;

impl Live {
    pub fn build(spec: LiveSpec) -> Self {
        let dir = spec
            .persist
            .then(|| ScratchDir::new("snap").expect("scratch dir under out/"));
        let snapshot_path = dir.as_ref().map(|d| d.path().join("state.snap"));
        let monitor = ClusterMonitor::spawn(ClusterConfig {
            event_capacity: EVENT_CAPACITY,
            snapshot_path: snapshot_path.clone(),
            snapshot_interval: 1.0,
            ..ClusterConfig::default()
        })
        .expect("spawn monitor");
        let t = Instant::now();
        for p in 0..spec.peers {
            monitor
                .add_peer(p, spec.peer)
                .expect("add_peer on a fresh monitor");
        }
        let add_peer_s = t.elapsed().as_secs_f64();
        let rx = ClusterReceiver::bind_with(
            SocketAddr::from((Ipv4Addr::LOCALHOST, 0)),
            monitor.clone(),
            ClusterReceiverConfig {
                pump_threads: 1,
                recv_buffer_bytes: Some(8 << 20),
                ..ClusterReceiverConfig::default()
            },
        )
        .expect("bind receiver on loopback");
        let tx = ClusterSender::connect(
            rx.local_addr(),
            ClusterSenderConfig {
                max_batch: spec.max_batch,
                ..ClusterSenderConfig::default()
            },
        )
        .expect("connect sender");
        Self {
            monitor,
            rx,
            tx,
            add_peer_s,
            snapshot_path,
            _dir: dir,
        }
    }

    pub fn teardown(self) {
        self.rx.shutdown();
        self.monitor.shutdown();
    }

    /// Waits, bounded, until the receiver has recorded `sent` entries.
    pub fn drain(&self, sent: u64, limit_s: f64) {
        let t = Instant::now();
        while self.rx.entries_received() < sent && t.elapsed().as_secs_f64() < limit_s {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Counters of the datagram plane and the monitor, as per-layer
    /// metrics; `hb` is what the run sent and `elapsed_s` how long the
    /// monitor has been up.
    pub fn counters_into(&self, result: &mut WorkloadResult, hb: u64, elapsed_s: f64) {
        result.set("net.hb_per_datagram", self.tx.batching_factor());
        result.set(
            "net.datagrams_received",
            self.rx.datagrams_received() as f64,
        );
        result.set("net.entries_received", self.rx.entries_received() as f64);
        result.set("net.rejected", self.rx.rejected() as f64);
        result.set("net.entries_shed", self.rx.entries_shed() as f64);
        result.set("net.recv_errors", self.rx.recv_errors() as f64);
        result.set("net.pump_restarts", self.rx.pump_restarts() as f64);
        monitor_counters_into(&self.monitor, result, hb, elapsed_s);
    }
}

/// The monitor-side counters shared by every cluster workload.
pub fn monitor_counters_into(
    monitor: &ClusterMonitor,
    result: &mut WorkloadResult,
    hb: u64,
    elapsed_s: f64,
) {
    let stats = monitor.stats();
    result.set(
        "monitor.unknown_heartbeats",
        stats.unknown_heartbeats as f64,
    );
    result.set(
        "monitor.stale_incarnation_rejects",
        stats.stale_incarnation_rejects as f64,
    );
    result.set(
        "monitor.incarnation_resets",
        stats.incarnation_resets as f64,
    );
    result.set("wheel.timers_fired", stats.timers_fired as f64);
    result.set(
        "wheel.fires_per_hb",
        stats.timers_fired as f64 / hb.max(1) as f64,
    );
    result.set(
        "wheel.expirations_deferred",
        stats.expirations_deferred as f64,
    );
    result.set(
        "ticker.ticks_per_s",
        stats.ticks as f64 / elapsed_s.max(1e-9),
    );
    result.set("events.dropped", stats.events_dropped as f64);
    result.set("snapshot.written", stats.snapshots_written as f64);
    result.set("snapshot.errors", stats.snapshot_errors as f64);
}

/// Per-window rates from counter marks `(seconds, count)` taken at the
/// window boundaries.
pub fn window_rates(marks: &[(f64, u64)]) -> Vec<f64> {
    marks
        .windows(2)
        .map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0).max(1e-9))
        .collect()
}

/// One open-loop pass over a [`Schedule`](crate::gen::Schedule): which
/// slices to play and which of them are the measured phase.
pub struct Drive<'a> {
    pub sched: &'a crate::gen::Schedule,
    pub outages: &'a [crate::gen::Outage],
    /// Bench time of slice 0, seconds.
    pub base: f64,
    pub total_slices: u64,
    pub measured: std::ops::Range<u64>,
}

/// What the generator did and how well it kept to the schedule.
#[derive(Debug, Default)]
pub struct Driven {
    pub sent: u64,
    pub sent_measured: u64,
    /// Wall seconds the measured slices took.
    pub measured_s: f64,
    /// Lateness of each measured slice, seconds.
    pub late_s: Vec<f32>,
    /// The longest the generator was held up, over all slices, seconds.
    pub worst_late_s: f64,
    /// Process CPU seconds over the measured phase, less the time this
    /// generator spent in its pacing spin.
    pub cpu_measured_s: f64,
    /// Time inside `send` over all slices, ns; 0 when untraced.
    pub send_ns: u64,
}

impl Driven {
    /// Generator health as per-layer metrics. Returns whether the run
    /// was disturbed: a p99 lateness above 5 ms.
    pub fn lateness_into(&self, result: &mut WorkloadResult) -> bool {
        let mut late: Vec<f64> = self.late_s.iter().map(|&l| l as f64 * 1e6).collect();
        late.sort_by(f64::total_cmp);
        let p99 = crate::stats::quantile_sorted(&late, 0.99);
        result.set(
            "gen.late_us_p50",
            crate::stats::quantile_sorted(&late, 0.50),
        );
        result.set("gen.late_us_p99", p99);
        result.set("gen.window_waits", 0.0);
        p99 > 5_000.0
    }
}

impl Drive<'_> {
    /// Bench time slice `s` is due.
    pub fn due(&self, s: u64) -> f64 {
        self.base + self.sched.secs(s)
    }

    /// Plays the schedule: at each slice, first the crashes of that
    /// slice, then `send(peer, incarnation, seq, due)` for every live
    /// peer whose heartbeat is due.
    pub fn play(
        &self,
        origin: Instant,
        tracer: &mut crate::trace::Tracer,
        mut send: impl FnMut(u64, u64, u64, f64),
    ) -> Driven {
        let n = self.sched.peers as usize;
        let mut pacer = crate::gen::Pacer::new(origin);
        let (mut incarnation, mut seq, mut resume_at) =
            (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
        let mut next_outage = 0usize;
        let mut out = Driven::default();
        let (mut cpu_from, mut spun_from, mut wall_from) = (0.0, 0.0, 0.0);
        for s in 0..self.total_slices {
            let due = self.due(s);
            let late = pacer.wait_until(due);
            out.worst_late_s = out.worst_late_s.max(late);
            if s == self.measured.start {
                cpu_from = crate::sys::cpu_seconds();
                spun_from = pacer.spun.as_secs_f64();
                wall_from = origin.elapsed().as_secs_f64();
            }
            if s == self.measured.end {
                out.measured_s = origin.elapsed().as_secs_f64() - wall_from;
                out.cpu_measured_s =
                    (crate::sys::cpu_seconds() - cpu_from) - (pacer.spun.as_secs_f64() - spun_from);
            }
            let measured = self.measured.contains(&s);
            if measured {
                out.late_s.push(late as f32);
            }
            while let Some(o) = self.outages.get(next_outage).filter(|o| o.crash <= s) {
                let i = o.peer as usize;
                resume_at[i] = o.first_due;
                incarnation[i] = o.incarnation;
                seq[i] = 0;
                next_outage += 1;
            }
            let span = tracer.open("gen.slice", 0, s);
            let before = out.sent;
            for p in self.sched.due_in(s) {
                let i = p as usize;
                if s >= resume_at[i] {
                    seq[i] += 1;
                    send(p, incarnation[i], seq[i], due);
                    out.sent += 1;
                }
            }
            out.send_ns += tracer.close(span);
            if measured {
                out.sent_measured += out.sent - before;
            }
        }
        out
    }
}
