//! `flood_ingest`: how many heartbeats per second one monitor absorbs.
//!
//! 512 peers whose freshness points lie minutes away, one aggregating
//! sender with full datagrams, closed loop with a bounded number of
//! entries in flight so the loopback socket buffer never overflows: the
//! receive pump saturates and the record path sets the rate.
//!
//! 512 and not 50 000: 50 000 peers' state is 75 MB, served from the
//! last-level cache this guest shares with the host's other tenants, and
//! the same commit then reads 2.1 M or 3.3 M hb/s from one minute to the
//! next while 512 peers' reading stays put. The traced run floods 50 000
//! peers as well and reports that rate as a per-layer number.
//!
//! While the window is full the sender spins; it does not sleep. A
//! sender that sleeps is sometimes scheduled onto the pump's core and
//! sometimes not, for minutes at a time, and the same commit then reads
//! two rates a quarter apart. One that keeps its core busy leaves the
//! pump the other, as senders on other machines would. The spin is
//! generator cost and is taken out of `cpu_us_per_hb`.

use super::probes::{staged_replay, wheel_probe, Replay};
use super::{repeated_setup, window_rates, Ctx, Live, LiveSpec, WINDOWS};
use crate::report::{saved_metric, WorkloadResult};
use crate::stats::median;
use crate::sys::cpu_seconds;
use crate::trace::Tracer;
use fd_cluster::{PeerConfig, MAX_BATCH};
use std::time::{Duration, Instant};

/// Peers of the measured flood: their state (~1 MB) stays in one core's
/// L2, so the rate is what the record path costs in instructions.
const PEERS: u64 = 512;
/// Peers of the traced run's second flood, whose state (~75 MB) lives in
/// the host's shared last-level cache and in memory.
const PEERS_AT_SCALE: u64 = 50_000;
/// Entries queued between flushes and window checks.
const BLOCK: u64 = 2_048;
/// Most entries sent and not yet recorded.
const IN_FLIGHT: u64 = 24_000;
/// Flood that runs before the measured phase, so caches and the
/// estimator windows are warm.
const WARMUP_S: f64 = 1.0;
/// Timers the wheel probe arms at most.
const WHEEL_PROBE_TIMERS: u64 = 1_000_000;

fn spec(peers: u64) -> LiveSpec {
    LiveSpec {
        peers,
        // η = 60 s, α = 120 s: nothing expires within a run.
        peer: PeerConfig::new(60.0, 120.0),
        max_batch: MAX_BATCH,
        persist: false,
    }
}

/// What one flood did.
struct Flooded {
    /// `(bench seconds, entries received)` at the window boundaries.
    marks: Vec<(f64, u64)>,
    /// Process CPU seconds between the first and the last mark, less the
    /// sender's spin.
    cpu_s: f64,
    window_waits: u64,
    sent: u64,
    /// Where the round robin over the peers stopped.
    round: u64,
    cursor: u64,
}

impl Flooded {
    fn rates(&self) -> Vec<f64> {
        window_rates(&self.marks)
    }

    fn measured_hb(&self) -> u64 {
        self.marks[WINDOWS].1 - self.marks[0].1
    }
}

/// Floods `live`'s `peers` round robin: [`WARMUP_S`], then `flood_s`
/// seconds in [`WINDOWS`] windows, then waits for the receiver to drain.
fn flood(ctx: &Ctx, live: &mut Live, peers: u64, flood_s: f64, tracer: &mut Tracer) -> Flooded {
    let measure_from = ctx.now() + WARMUP_S;
    let boundary = |k: usize| measure_from + flood_s * k as f64 / WINDOWS as f64;
    let mut marks: Vec<(f64, u64)> = Vec::with_capacity(WINDOWS + 1);
    let (mut cpu_from, mut cpu_to) = (0.0, 0.0);
    let mut spun = Duration::ZERO;
    let (mut cursor, mut round, mut blocks, mut window_waits) = (0u64, 1u64, 0u64, 0u64);
    loop {
        blocks += 1;
        let send_time = live.monitor.now();
        let span = tracer.open("net.send", 0, blocks);
        for _ in 0..BLOCK {
            live.tx
                .queue_incarnated(cursor, 0, round, send_time)
                .expect("queue");
            cursor += 1;
            if cursor == peers {
                cursor = 0;
                round += 1;
            }
        }
        live.tx.flush().expect("flush");
        tracer.close(span);
        let now = ctx.now();
        while marks.len() <= WINDOWS && now >= boundary(marks.len()) {
            if marks.is_empty() {
                cpu_from = cpu_seconds() - spun.as_secs_f64();
            }
            marks.push((now, live.rx.entries_received()));
            if marks.len() == WINDOWS + 1 {
                cpu_to = cpu_seconds() - spun.as_secs_f64();
            }
        }
        if marks.len() > WINDOWS {
            break;
        }
        let sent = live.tx.entries_sent();
        if sent.saturating_sub(live.rx.entries_received()) > IN_FLIGHT {
            window_waits += 1;
            let waiting = Instant::now();
            while sent.saturating_sub(live.rx.entries_received()) > IN_FLIGHT {
                std::hint::spin_loop();
            }
            spun += waiting.elapsed();
        }
    }
    let sent = live.tx.entries_sent();
    live.drain(sent, 10.0);
    Flooded {
        marks,
        cpu_s: cpu_to - cpu_from,
        window_waits,
        sent,
        round,
        cursor,
    }
}

/// Every heartbeat sent was received, decoded and recorded for the peer
/// it named.
fn check(result: &mut WorkloadResult, live: &Live, peers: u64, flooded: &Flooded) {
    let received = live.rx.entries_received();
    result.check(
        flooded.sent,
        flooded.sent.saturating_sub(received),
        "heartbeats sent but not recorded",
    );
    result.check(
        live.tx.datagrams_sent(),
        live.rx.rejected(),
        "datagrams rejected",
    );
    let wrong = (0..peers)
        .filter(|&p| {
            let expect = flooded.round - 1 + u64::from(p < flooded.cursor);
            live.monitor.status(p).map(|s| s.counters.heartbeats) != Some(expect)
        })
        .count() as u64;
    result.check(
        peers,
        wrong,
        "peers whose heartbeat count differs from what was sent to them",
    );
}

pub fn run(ctx: &Ctx) -> WorkloadResult {
    let mut result = WorkloadResult::new("flood_ingest");
    let mut live = repeated_setup(&mut result, || Live::build(spec(PEERS)), Live::teardown);
    let up_since = ctx.now();
    result.set("monitor.add_peer_us", live.add_peer_s * 1e6 / PEERS as f64);
    let mut tracer = Tracer::new(ctx.traced, ctx.origin, 0);

    // A traced run floods for half the time and replays the path stage
    // by stage for the other half.
    let flood_s = if ctx.traced {
        0.5 * ctx.seconds
    } else {
        ctx.seconds
    };
    let flooded = flood(ctx, &mut live, PEERS, flood_s, &mut tracer);
    // Before the checks and probes below allocate anything of their own.
    result.set("peak_rss_mb", crate::sys::peak_rss_mb());

    let rates = flooded.rates();
    let hb_per_s = median(&rates);
    result.set_windows("hb_per_s", hb_per_s, rates);
    result.set(
        "cpu_us_per_hb",
        flooded.cpu_s * 1e6 / flooded.measured_hb().max(1) as f64,
    );
    result.set("gen.window_waits", flooded.window_waits as f64);
    check(&mut result, &live, PEERS, &flooded);
    live.counters_into(&mut result, flooded.sent, ctx.now() - up_since);

    if ctx.traced {
        let peers: Vec<u64> = (0..PEERS).collect();
        let replay = Replay {
            peers: &peers,
            incarnation: 0,
            first_seq: flooded.round + 1,
            max_batch: MAX_BATCH,
            block: BLOCK as usize,
            seconds: ctx.seconds - flood_s,
        };
        let costs = staged_replay(&live.monitor, replay, &mut tracer);
        result.check(
            costs.datagrams + costs.lost,
            costs.lost,
            "probe datagrams lost on loopback",
        );
        costs.metrics_into(&mut result);
        // The stages replayed one by one should add up to what the pump
        // thread spends per heartbeat when it runs them back to back.
        let untraced = saved_metric("flood_ingest", "hb_per_s").unwrap_or(hb_per_s);
        result.set(
            "trace.ingest_reconcile_ratio",
            costs.pump_ns_per_hb() / (1e9 / untraced),
        );
        // This run's deadlines: armed at the ingest rate, due η + α =
        // 180 s later, so none expires.
        let timers = (hb_per_s as u64).min(WHEEL_PROBE_TIMERS);
        let armed: Vec<(f64, f64)> = (0..timers)
            .map(|i| (i as f64 / hb_per_s, i as f64 / hb_per_s + 180.0))
            .collect();
        wheel_probe(&mut result, &armed, timers as f64 / hb_per_s, &mut tracer);
    }
    live.teardown();

    if ctx.traced {
        // The same flood at scale, for a quarter of the time and without
        // spans: what the record path costs when every peer's state is a
        // cache miss. It moves with the host's other tenants (see the
        // README), so it is a per-layer number without a bound.
        let mut live = Live::build(spec(PEERS_AT_SCALE));
        let at_scale = flood(
            ctx,
            &mut live,
            PEERS_AT_SCALE,
            0.25 * ctx.seconds,
            &mut Tracer::new(false, ctx.origin, 0),
        );
        result.set("ingest.hb_per_s_at_50k_peers", median(&at_scale.rates()));
        check(&mut result, &live, PEERS_AT_SCALE, &at_scale);
        live.teardown();
    }
    result.spans = tracer.into_spans();
    result
}
