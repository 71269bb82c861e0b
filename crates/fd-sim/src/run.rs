//! The discrete-event run engine.
//!
//! Drives one [`FailureDetector`] through a simulated run: heartbeats are
//! sent at `σᵢ = i·η` (until the crash, if one is scheduled), each is
//! dropped or delayed by the link, and the detector is stepped through
//! every arrival and every internal deadline so the recorded
//! [`TransitionTrace`] contains *exact* transition times.
//!
//! A run is two planes, each written once:
//!
//! * the **message plane** (`MessagePlane`) owns `p`'s send schedule
//!   (`crash_at`, a plan's crash–recover windows, `max_heartbeats`), the
//!   fate source (a [`Link`], a [`DelayPattern`] or a [`FaultPlan`] laid
//!   over a link) and the messages in flight, and yields deliveries in
//!   `(arrival, seq)` order;
//! * the **detector plane** (`detect`) consumes them: it owns the
//!   detector's deadlines, clock jumps and skew, the [`TraceRecorder`]
//!   and the stop conditions.
//!
//! Each plane pays only for what the run in hand uses. The engine is
//! compiled once per fate source, so a link's draw is inlined and only a
//! plan's `Duplicate` fault hands back more than one delivery. [`run`] is
//! also compiled for the caller's RNG type, and a [`Link`] resolves an
//! exponential law once, so a plan-free run on a concrete RNG over the
//! paper's link draws each fate with no dynamic call. Without process
//! events the schedule is `σ = seq·η` up to a silence point computed once
//! (`first_past`); a plan's crash windows are walked by a cursor. The
//! earliest message in flight waits outside the heap, so a run whose
//! delays stay below `η` never touches it. Without clock jumps the
//! detector plane runs on `NoJumps`: the jump branch and the skew compile
//! away. The recorder is called only when the output
//! changes, and only a T→S change counts towards `STransitions`.
//!
//! Under message independence (§3.3) no fate depends on anything the
//! detector does. When a run stops at a [`StopCondition::Horizon`], the
//! set of sends — every `σᵢ ≤ horizon` the schedule allows — and so every
//! fate draw is fixed before the run starts. Such a run of at least
//! `RUN_AHEAD_MIN_SENDS` sends, on a machine with a second core, draws its
//! fates on a scoped thread that runs ahead of the detector and hands
//! deliveries over in fixed-size blocks; while nothing is in flight, it
//! fills them a plain stretch of sends at a time (between two process
//! events, the silence point and the horizon), with no schedule work per
//! send. Every other run (`STransitions`, the short crash-injection runs, one
//! core) pulls the same plane in place: a send is materialised exactly
//! when the detector plane's next event is not earlier (σ ≤ next
//! deadline, σ ≤ next arrival, σ ≤ horizon, σ < next clock jump), so a run
//! that stops early draws no fate it did not need. On both paths the fates
//! are drawn in send order from the caller's RNG, which therefore ends in
//! the same state, and the detector sees the same deliveries at the same
//! instants.
//!
//! The engine holds only the messages in flight (a slot and a small heap)
//! and, on the run-ahead path, `BLOCKS` hand-off blocks of `BLOCK` 16-byte
//! deliveries (256 KB), so what a run costs in memory is its trace: one
//! 8-byte instant per transition (transitions alternate, so the instant is
//! all a trace stores), 9.1 B with the recorder's doubling slack on Fig.
//! 12's largest (SFD-L at `T_D^U = 1.25`, 923 k transitions in 3·10⁷
//! heartbeats). `AccuracyAnalysis::of_trace` then allocates nothing: it
//! folds the trace into counts and sums. The far-right points, where
//! `E(T_MR)` reaches ~10⁶·η, are long runs with few transitions and cost
//! next to nothing.

use crate::fault::{FaultInjector, FaultPlan, ProcessEvent};
use crate::{DelayPattern, Link};
use fd_core::{FailureDetector, Heartbeat};
use fd_metrics::{FdOutput, TraceRecorder, TransitionTrace};
use rand::RngCore;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::{self, ScopedJoinHandle};

/// Sends from which a `Horizon` run draws its fates on a second thread.
/// Spawning the producer, one hand-off and the join cost 30–35 µs on a
/// 2-vCPU box (`plane_costs`), ≈ 2 500 heartbeats of a run-ahead run at
/// 12–14 ns. Running ahead saves 10–15 ns a send over pulling the plane in
/// place, so it pays from ≈ 3 000 sends; at 2¹⁶ the fixed cost is about
/// 4 % of the run, and every crash-injection run (tens of heartbeats)
/// stays in place.
const RUN_AHEAD_MIN_SENDS: u64 = 1 << 16;
/// Deliveries per hand-off block: enough that a hand-off (a channel send
/// and, when the other side is parked, a wake-up) is rare next to the
/// work on a block.
const BLOCK: usize = 4096;
/// Hand-off blocks in circulation: at most `BLOCKS · BLOCK` deliveries of
/// 16 bytes (256 KB) are queued between the planes.
const BLOCKS: usize = 4;

/// When to end a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopCondition {
    /// Run until simulated time reaches the horizon.
    Horizon(f64),
    /// Run until the detector has made `count` S-transitions (the §7
    /// methodology measures a fixed number of mistake-recurrence
    /// intervals), or until `max_heartbeats` have been sent — whichever
    /// comes first (the cap guards configurations that essentially never
    /// make mistakes).
    STransitions {
        /// Number of S-transitions to collect.
        count: usize,
        /// Hard cap on heartbeats sent.
        max_heartbeats: u64,
    },
}

/// Options for one simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Heartbeat intersending time `η` (`mᵢ` is sent at `i·η`).
    pub eta: f64,
    /// If set, `p` crashes at this time: no heartbeat with `σᵢ > crash`
    /// is sent. Messages already sent are unaffected (§3.1: delay and
    /// loss are independent of crashes).
    pub crash_at: Option<f64>,
    /// When to stop.
    pub stop: StopCondition,
}

impl RunOptions {
    /// A failure-free run (accuracy metrics are defined on these, §2.2).
    pub fn failure_free(eta: f64, stop: StopCondition) -> Self {
        Self {
            eta,
            crash_at: None,
            stop,
        }
    }

    /// A run in which `p` crashes at `crash_at`; the run extends to
    /// `horizon` so the final (permanent) S-transition is observable.
    pub fn with_crash(eta: f64, crash_at: f64, horizon: f64) -> Self {
        assert!(
            horizon > crash_at,
            "horizon {horizon} must extend past the crash at {crash_at}"
        );
        Self {
            eta,
            crash_at: Some(crash_at),
            stop: StopCondition::Horizon(horizon),
        }
    }
}

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The detector's recorded output history.
    pub trace: TransitionTrace,
    /// Heartbeats sent by `p` before the run ended (or `p` crashed).
    pub heartbeats_sent: u64,
    /// Heartbeat deliveries to `q` within the run. Each delivery counts,
    /// so a duplication fault can deliver more copies than were sent.
    pub heartbeats_delivered: u64,
    /// The crash time, copied from the options.
    pub crash_at: Option<f64>,
}

/// One delivery of heartbeat `seq`, ordered by arrival time (min-heap via
/// `Reverse`). Its send time is `seq as f64 * η`, recomputed bit for bit
/// when it is delivered.
#[derive(Debug, Clone, Copy, PartialEq)]
struct InFlight {
    arrival: f64,
    seq: u64,
}

impl Eq for InFlight {}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.arrival
            .total_cmp(&other.arrival)
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Where the fates of a run's sends come from: a live link and RNG, a
/// frozen pattern, or a fault plan laid over a link. The engine is
/// compiled once per source, so a link's draw is inlined into the message
/// plane.
trait Fates: Send {
    /// Draws the fate of heartbeat `seq`, sent at `send_time`.
    fn draw(&mut self, seq: u64, send_time: f64) -> Drawn<'_>;
}

/// The deliveries of one send.
enum Drawn<'a> {
    Lost,
    /// One delivery, after this delay.
    Once(f64),
    /// Two deliveries (a plan's `Duplicate` fault), after these delays.
    Many(&'a [f64]),
}

/// A live link and the caller's RNG, as the caller typed it: on a
/// concrete RNG, a draw from an exponential law makes no dynamic call.
struct LinkFates<'a, R: ?Sized>(&'a Link, &'a mut R);

impl<R: RngCore + Send + ?Sized> Fates for LinkFates<'_, R> {
    fn draw(&mut self, _seq: u64, _send_time: f64) -> Drawn<'_> {
        self.0.sample_fate(self.1).map_or(Drawn::Lost, Drawn::Once)
    }
}

impl Fates for &DelayPattern {
    fn draw(&mut self, seq: u64, _send_time: f64) -> Drawn<'_> {
        assert!(
            seq as usize <= self.len(),
            "delay pattern exhausted at heartbeat {seq}; extend the pattern or shorten the run"
        );
        self.delay(seq).map_or(Drawn::Lost, Drawn::Once)
    }
}

/// A live link with a plan's link faults laid over it, the caller's RNG,
/// and the deliveries of the latest send. A draw takes the link's fate,
/// then the fault in force at the send transforms it, on the same RNG.
struct PlanFates<'a>(Link, FaultInjector, &'a mut (dyn RngCore + Send), Vec<f64>);

impl Fates for PlanFates<'_> {
    fn draw(&mut self, _seq: u64, send_time: f64) -> Drawn<'_> {
        let Self(link, injector, rng, delays) = self;
        delays.clear();
        let base = link.sample_fate(*rng);
        injector.apply(send_time, base, *rng, delays);
        match delays[..] {
            [] => Drawn::Lost,
            [d] => Drawn::Once(d),
            _ => Drawn::Many(delays),
        }
    }
}

/// The fate sources as the test-only reference engine takes them: one
/// enum, drawn through one `match` per send.
#[cfg(test)]
enum Fate<'a> {
    Link(&'a Link, &'a mut (dyn RngCore + Send)),
    Pattern(&'a DelayPattern),
    Plan(&'a Link, FaultInjector, &'a mut (dyn RngCore + Send)),
}

#[cfg(test)]
impl Fate<'_> {
    /// Appends the delay of each delivery of heartbeat `seq` to `out`
    /// (zero if dropped, two or more under duplication faults).
    fn of_into(&mut self, seq: u64, send_time: f64, out: &mut Vec<f64>) {
        match self {
            Fate::Link(link, rng) => out.extend(link.sample_fate(*rng)),
            Fate::Pattern(p) => {
                assert!(
                    seq as usize <= p.len(),
                    "delay pattern exhausted at heartbeat {seq}; extend the pattern or shorten the run"
                );
                out.extend(p.delay(seq));
            }
            Fate::Plan(link, injector, rng) => {
                let base = link.sample_fate(*rng);
                injector.apply(send_time, base, *rng, out);
            }
        }
    }
}

/// Runs `fd` against a live [`Link`], drawing per-message fates from
/// `rng`.
///
/// See [`RunOptions`] and [`StopCondition`] for the run shape. The
/// returned trace starts at time 0 with the detector's initial output.
/// A long `Horizon` run may draw the fates on a second thread (hence
/// `Send`); `rng` ends in the same state either way. On that path `rng` is
/// advanced on the producer thread while `fd` is stepped on the calling
/// one, so keep the two off one cache line (two adjacent stack locals
/// share one; a boxed detector does not) or the threads contend for it.
///
/// The engine is compiled for the RNG type the caller passes. On a
/// concrete one (`&mut StdRng`) over an exponential link, a fate draw
/// makes no dynamic call; `&mut (dyn RngCore + Send)` still works and
/// draws the same bits.
///
/// # Panics
///
/// Panics if `opts.eta ≤ 0`.
pub fn run<R: RngCore + Send + ?Sized>(
    fd: &mut dyn FailureDetector,
    opts: &RunOptions,
    link: &Link,
    rng: &mut R,
) -> RunOutcome {
    drive(fd, opts, LinkFates(link, rng), None)
}

/// Runs `fd` against a frozen [`DelayPattern`] (identical-realization
/// comparisons, Appendix C / experiment E9).
///
/// # Panics
///
/// Panics if the run needs more heartbeats than the pattern covers, or if
/// `opts.eta ≤ 0`.
pub fn run_with_pattern(
    fd: &mut dyn FailureDetector,
    opts: &RunOptions,
    pattern: &DelayPattern,
) -> RunOutcome {
    drive(fd, opts, pattern, None)
}

/// Runs `fd` against `link` with the *whole* of `plan` applied by the
/// engine, drawing randomness from `rng`:
///
/// * **link faults** (burst loss, epoch changes as segments — the §8.1
///   scenarios — partitions, delay spikes, duplication, reordering): each
///   send's fate is drawn from `link`, then transformed by the
///   [`LinkFault`](crate::LinkFault) in force at its send instant;
/// * **crash–recover windows**: heartbeats whose send instant `σᵢ` falls
///   inside a scripted down window are never sent; the schedule (and
///   sequence numbering) continues, so heartbeats resume with the next
///   `σᵢ` after recovery, like a restarted process resuming its timeline
///   (messages already in flight are unaffected, §3.1). A final crash
///   with no later recovery silences heartbeats permanently — combined
///   with `opts.crash_at`, whichever comes first wins.
/// * **forward clock jumps**: at a [`ProcessEvent::ClockJump`] the
///   monitor's clock (the detector's `now`, and the recorded trace's
///   time base) jumps ahead by `offset`, firing any freshness deadlines
///   the jump passes over — the premature-timeout hazard an NTP step
///   induces. The returned trace is therefore in **monitor clock**;
///   convert plan times with [`FaultPlan::clock_skew_at`]
///   (`monitor = t + skew(t)`).
///
/// This is the SMC harness's run primitive: one sampled scenario =
/// `(plan, link, opts)` driven through this function.
///
/// # Panics
///
/// Panics if `opts.eta ≤ 0`.
pub fn run_with_plan(
    fd: &mut dyn FailureDetector,
    opts: &RunOptions,
    link: Link,
    plan: &FaultPlan,
    rng: &mut (dyn RngCore + Send),
) -> RunOutcome {
    drive(fd, opts, PlanFates(link, plan.injector(), rng, Vec::new()), Some(plan))
}

fn drive(
    fd: &mut dyn FailureDetector,
    opts: &RunOptions,
    fates: impl Fates,
    plan: Option<&FaultPlan>,
) -> RunOutcome {
    assert!(opts.eta > 0.0, "eta must be positive");
    // Scheduled forward monitor-clock jumps, in plan (sim-time) order.
    let jumps: Vec<(f64, f64)> = plan
        .map(|p| {
            p.events()
                .iter()
                .filter_map(|ev| match *ev {
                    ProcessEvent::ClockJump { at, offset } => Some((at, offset)),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();
    let plane = MessagePlane::new(opts, fates, plan);
    let (trace, delivered, sent) = if jumps.is_empty() {
        both_planes(fd, opts, NoJumps, plane)
    } else {
        both_planes(fd, opts, jumps.as_slice(), plane)
    };
    RunOutcome {
        trace,
        heartbeats_sent: sent,
        heartbeats_delivered: delivered,
        crash_at: opts.crash_at,
    }
}

/// Runs the detector plane against the message plane, run ahead on a
/// second thread or pulled in place. Returns the trace, the deliveries and
/// the heartbeats sent.
fn both_planes(
    fd: &mut dyn FailureDetector,
    opts: &RunOptions,
    jumps: impl ClockJumps,
    mut plane: MessagePlane<'_, impl Fates>,
) -> (TransitionTrace, u64, u64) {
    match opts.stop {
        StopCondition::Horizon(horizon) if plane.runs_ahead(horizon) => thread::scope(|s| {
            let (full_tx, full) = sync_channel(BLOCKS);
            let (empty, empty_rx) = sync_channel(BLOCKS);
            // One block starts on the detector side, the rest wait for
            // the producer.
            for _ in 1..BLOCKS {
                empty.send(Vec::with_capacity(BLOCK)).expect("room for every block");
            }
            let producer = s.spawn(move || plane.produce(horizon, full_tx, empty_rx));
            let mut handoff = Handoff {
                full,
                empty,
                block: Vec::with_capacity(BLOCK),
                at: 0,
                producer: Some(producer),
                end: None,
            };
            let (trace, delivered) = detect(fd, opts, jumps, &mut handoff);
            (trace, delivered, handoff.finish())
        }),
        _ => {
            let (trace, delivered) = detect(fd, opts, jumps, &mut plane);
            (trace, delivered, plane.schedule.sent)
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only override of `MessagePlane::runs_ahead` for `Horizon`
    /// runs, so the differential tests drive both paths on every input.
    static RUN_AHEAD: std::cell::Cell<Option<bool>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with every `Horizon` run on the run-ahead path (`true`) or in
/// place (`false`), whatever its length and the core count.
#[cfg(test)]
fn on_path<T>(run_ahead: bool, f: impl FnOnce() -> T) -> T {
    RUN_AHEAD.set(Some(run_ahead));
    let out = f();
    RUN_AHEAD.set(None);
    out
}

/// The messages in flight, earliest `(arrival, seq)` first. The earliest
/// waits outside the heap, so a run that has one message in flight at a
/// time (a delay below `η`, the common case) never touches the heap.
struct InFlightSet {
    /// The earliest message; `None` only when `rest` is empty too.
    head: Option<InFlight>,
    rest: BinaryHeap<Reverse<InFlight>>,
}

impl InFlightSet {
    #[inline]
    fn push(&mut self, m: InFlight) {
        match self.head {
            None => self.head = Some(m),
            Some(head) => self.push_behind(head, m),
        }
    }

    /// `push` with a message already in flight: the rare path (a delay
    /// past `η`, or duplicates), kept out of line so the common one stays
    /// small.
    #[inline(never)]
    fn push_behind(&mut self, head: InFlight, m: InFlight) {
        if m < head {
            self.rest.push(Reverse(head));
            self.head = Some(m);
        } else {
            self.rest.push(Reverse(m));
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<InFlight> {
        let head = self.head.take()?;
        if !self.rest.is_empty() {
            self.promote();
        }
        Some(head)
    }

    /// Moves the earliest message of `rest` to `head`.
    #[inline(never)]
    fn promote(&mut self) {
        self.head = self.rest.pop().map(|Reverse(m)| m);
    }

    /// Arrival of the earliest message; ∞ if none is in flight.
    #[inline]
    fn earliest(&self) -> f64 {
        self.head.map_or(f64::INFINITY, |m| m.arrival)
    }
}

/// The first `seq` whose `σ = seq·η` is past `crash`. `σ` rounds
/// monotonically in `seq`, so the heartbeats sent before a permanent
/// crash are exactly those below it.
fn first_past(crash: f64, eta: f64) -> u64 {
    let estimate = crash / eta;
    // No run reaches 2⁵³ sends (where `seq as f64` stops being exact); a
    // NaN crash silences nothing.
    if estimate.is_nan() || estimate >= (1u64 << 53) as f64 {
        return u64::MAX;
    }
    let mut seq = (estimate.max(0.0) as u64).max(1);
    while seq > 1 && (seq - 1) as f64 * eta > crash {
        seq -= 1;
    }
    while seq as f64 * eta <= crash {
        seq += 1;
    }
    seq
}

/// `p`'s send schedule: the next heartbeat it sends and what silences it.
struct Schedule<'a> {
    eta: f64,
    /// The first `seq` the permanent silence point swallows (the
    /// engine-level crash, the plan's final unrecovered crash, or the
    /// earlier of the two), and every later one. Without process events,
    /// `seq − 1` heartbeats have been sent before `seq`, so it also holds
    /// the `max_heartbeats` cap.
    silent_from: u64,
    max_heartbeats: u64,
    /// The plan's process events; `event_idx` is past every event at or
    /// before `next_send`, and `crashed` is the down state they leave.
    events: &'a [ProcessEvent],
    event_idx: usize,
    crashed: bool,
    next_seq: u64,
    /// `σ` of the next heartbeat to send; ∞ once `p` is silent for good.
    next_send: f64,
    sent: u64,
}

impl<'a> Schedule<'a> {
    fn new(opts: &RunOptions, plan: Option<&'a FaultPlan>) -> Self {
        let permanent_crash = match (opts.crash_at, plan.and_then(FaultPlan::final_crash)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let max_heartbeats = match opts.stop {
            StopCondition::Horizon(_) => u64::MAX,
            StopCondition::STransitions { max_heartbeats, .. } => max_heartbeats,
        };
        let events = plan.map(FaultPlan::events).unwrap_or_default();
        let mut silent_from = permanent_crash.map_or(u64::MAX, |c| first_past(c, opts.eta));
        if events.is_empty() {
            silent_from = silent_from.min(max_heartbeats.saturating_add(1));
        }
        let mut schedule = Self {
            eta: opts.eta,
            silent_from,
            max_heartbeats,
            events,
            event_idx: 0,
            crashed: false,
            next_seq: 1,
            next_send: 0.0,
            sent: 0,
        };
        schedule.advance();
        schedule
    }

    /// Moves `next_send` to the next heartbeat `p` sends. Without process
    /// events that is `σ = seq·η` up to the silence point. A scripted
    /// (recoverable) down window swallows the heartbeats whose `σᵢ` it
    /// covers, but the schedule and numbering move on, so sending resumes
    /// at the first `σᵢ` after recovery; the cursor walks the plan's
    /// events once per run. Down windows are finite (the permanent one
    /// ends the schedule), so the loop terminates.
    #[inline]
    fn advance(&mut self) {
        self.next_send = loop {
            if self.next_seq >= self.silent_from {
                break f64::INFINITY;
            }
            let sigma = self.next_seq as f64 * self.eta;
            if self.events.is_empty() {
                break sigma;
            }
            if self.sent >= self.max_heartbeats {
                break f64::INFINITY;
            }
            // Events at exactly σ have taken effect; same-instant events
            // apply in plan order (`FaultPlan::is_crashed_at`).
            while let Some(ev) = self.events.get(self.event_idx).filter(|ev| ev.at() <= sigma) {
                match ev {
                    ProcessEvent::Crash { .. } => self.crashed = true,
                    ProcessEvent::Recover { .. } => self.crashed = false,
                    ProcessEvent::ClockJump { .. } => {}
                }
                self.event_idx += 1;
            }
            if !self.crashed {
                break sigma;
            }
            self.next_seq += 1;
        };
    }

    /// Whether `p` sends again at or before `horizon`.
    #[inline]
    fn sends_by(&self, horizon: f64) -> bool {
        self.next_send <= horizon && self.next_send < f64::INFINITY
    }

    /// The end of the plain stretch of sends from `next_seq` in a run to
    /// `horizon` (which has no heartbeat cap): every `seq` below the
    /// returned one is sent at `σ = seq·η`, with no process event, silence
    /// point or horizon in between.
    fn stretch_end(&self, horizon: f64) -> u64 {
        debug_assert_eq!(self.max_heartbeats, u64::MAX, "a Horizon run");
        if horizon.is_nan() {
            return self.next_seq;
        }
        // An event at `t` applies to the sends with `σ ≥ t`; `advance` has
        // applied every event at or before `next_send`.
        let next_event = self
            .events
            .get(self.event_idx)
            .map_or(u64::MAX, |ev| first_past(ev.at().next_down(), self.eta));
        first_past(horizon, self.eta).min(self.silent_from).min(next_event)
    }

    /// Records the sends below `seq` as made and moves to the next one.
    #[inline]
    fn sent_below(&mut self, seq: u64) {
        self.sent += seq - self.next_seq;
        self.next_seq = seq;
        self.advance();
    }
}

/// The message plane: `p`'s send schedule, the fate source and the
/// messages in flight.
struct MessagePlane<'a, F> {
    schedule: Schedule<'a>,
    fates: F,
    pending: InFlightSet,
}

/// What the run-ahead producer reports when it stops.
#[derive(Clone, Copy)]
struct PlaneEnd {
    sent: u64,
    /// `p` will send nothing more (its next `σ` is ∞, not past the horizon).
    silent: bool,
}

impl<'a, F: Fates> MessagePlane<'a, F> {
    fn new(opts: &RunOptions, fates: F, plan: Option<&'a FaultPlan>) -> Self {
        Self {
            schedule: Schedule::new(opts, plan),
            fates,
            // The heap, and a plan's delays, allocate on first
            // use, so on the run-ahead path they sit in the producer
            // thread's memory, not on a cache line beside the caller's
            // detector.
            pending: InFlightSet {
                head: None,
                rest: BinaryHeap::new(),
            },
        }
    }

    /// Whether a run to `horizon` draws its fates on a second thread:
    /// enough sends to pay for the thread, and a core to run it on.
    fn runs_ahead(&self, horizon: f64) -> bool {
        #[cfg(test)]
        if let Some(forced) = RUN_AHEAD.get() {
            return forced;
        }
        let Schedule { eta, silent_from, .. } = self.schedule;
        let sends = (horizon / eta).min((silent_from - 1) as f64);
        sends >= RUN_AHEAD_MIN_SENDS as f64
            && thread::available_parallelism().is_ok_and(|n| n.get() >= 2)
    }

    /// Draws the fate of heartbeat `seq`, sent at `sigma`. Returns its
    /// delivery if it has exactly one; the deliveries of a duplicated send
    /// go in flight at once.
    #[inline(always)]
    fn deliveries(&mut self, seq: u64, sigma: f64) -> Option<InFlight> {
        match self.fates.draw(seq, sigma) {
            Drawn::Lost => None,
            Drawn::Once(d) => Some(InFlight { arrival: sigma + d, seq }),
            Drawn::Many(delays) => {
                for &d in delays {
                    self.pending.push(InFlight { arrival: sigma + d, seq });
                }
                None
            }
        }
    }

    /// Sends the next heartbeat and puts its deliveries in flight.
    fn send(&mut self) {
        let Schedule { next_seq, next_send, .. } = self.schedule;
        if let Some(m) = self.deliveries(next_seq, next_send) {
            self.pending.push(m);
        }
        self.schedule.sent_below(next_seq + 1);
    }

    /// Appends the deliveries that follow to `block` until it holds
    /// `BLOCK`, sending as far ahead as that needs: a message in flight
    /// precedes every later send once its arrival is at or before the next
    /// `σ` (delays are non-negative, and a later send has a larger `seq`).
    /// Returns `false` once every send up to `horizon` is made and
    /// delivered.
    fn fill(&mut self, horizon: f64, block: &mut Vec<InFlight>) -> bool {
        loop {
            if self.pending.head.is_none() {
                self.lone_sends(horizon, block);
            }
            if block.len() == BLOCK {
                return true;
            }
            let sending = self.schedule.sends_by(horizon);
            match self.pending.head {
                Some(m) if !sending || m.arrival <= self.schedule.next_send => {
                    block.push(m);
                    self.pending.pop();
                }
                _ if sending => self.send(),
                _ => return false,
            }
        }
    }

    /// `fill` while nothing is in flight, the common case (a delay below
    /// `η`), over the plain stretch of sends that follows: each send's one
    /// delivery precedes the next send and goes straight into `block`, and
    /// the schedule moves once, at the end. Stops early when `block` is
    /// full or a delivery has to wait in flight.
    fn lone_sends(&mut self, horizon: f64, block: &mut Vec<InFlight>) {
        let end = self.schedule.stretch_end(horizon);
        let eta = self.schedule.eta;
        let mut seq = self.schedule.next_seq;
        let mut sigma = self.schedule.next_send;
        while block.len() < BLOCK && seq < end {
            let once = self.deliveries(seq, sigma);
            seq += 1;
            // At or before every later send: the next `σ` in the stretch,
            // or one the schedule reaches only after it.
            let next = seq as f64 * eta;
            match once {
                Some(m) if m.arrival <= next => block.push(m),
                Some(m) => {
                    self.pending.push(m);
                    break;
                }
                None if self.pending.head.is_some() => break,
                None => {}
            }
            sigma = next;
        }
        self.schedule.sent_below(seq);
    }

    /// The run-ahead producer: fills the blocks `empty` hands back with
    /// deliveries up to `horizon` and passes them on through `full`. A
    /// closed channel means the detector plane has stopped. Unless it
    /// panicked, it stops only after reading a delivery past the horizon
    /// or the last one, so every send, and every fate draw, is made.
    fn produce(
        mut self,
        horizon: f64,
        full: SyncSender<Vec<InFlight>>,
        empty: Receiver<Vec<InFlight>>,
    ) -> PlaneEnd {
        while let Ok(mut block) = empty.recv() {
            block.clear();
            let more = self.fill(horizon, &mut block);
            if full.send(block).is_err() || !more {
                break;
            }
        }
        PlaneEnd {
            sent: self.schedule.sent,
            silent: self.schedule.next_send == f64::INFINITY,
        }
    }
}

/// The message plane as the detector plane reads it.
trait Deliveries {
    /// Arrival time of the next delivery; ∞ if nothing is in flight.
    /// In place, the plane first makes every send the detector plane has
    /// reached: `σ ≤ until` (the next deadline, capped at the horizon),
    /// `σ <` the next clock `jump`, and `σ ≤` the earliest arrival.
    fn next_arrival(&mut self, until: f64, jump: f64) -> f64;
    /// Takes the delivery `next_arrival` answered and returns its `seq`.
    fn pop(&mut self) -> u64;
    /// `p` will send nothing more and nothing is in flight.
    fn exhausted(&self) -> bool;
}

impl<F: Fates> Deliveries for MessagePlane<'_, F> {
    fn next_arrival(&mut self, until: f64, jump: f64) -> f64 {
        // Sends first at ties: an arrival can never precede its own send,
        // so materialising sends up to the next event keeps the set of
        // messages in flight complete.
        while self.schedule.next_send <= until
            && self.schedule.next_send < jump
            && self.schedule.next_send <= self.pending.earliest()
        {
            self.send();
        }
        self.pending.earliest()
    }

    fn pop(&mut self) -> u64 {
        self.pending.pop().expect("peeked by next_arrival").seq
    }

    fn exhausted(&self) -> bool {
        self.schedule.next_send == f64::INFINITY && self.pending.head.is_none()
    }
}

/// The detector plane's end of the run-ahead hand-off.
struct Handoff<'scope> {
    full: Receiver<Vec<InFlight>>,
    empty: SyncSender<Vec<InFlight>>,
    block: Vec<InFlight>,
    /// Index of the next delivery in `block`.
    at: usize,
    producer: Option<ScopedJoinHandle<'scope, PlaneEnd>>,
    /// Set once the producer has stopped and every block is read.
    end: Option<PlaneEnd>,
}

/// Joins the producer, re-raising its panic (e.g. "delay pattern
/// exhausted") with its own payload.
fn joined(producer: ScopedJoinHandle<'_, PlaneEnd>) -> PlaneEnd {
    producer.join().unwrap_or_else(|payload| panic::resume_unwind(payload))
}

impl Handoff<'_> {
    /// Stops the hand-off and returns the heartbeats sent. Closing the
    /// channels releases a producer still flushing deliveries past the
    /// horizon.
    fn finish(self) -> u64 {
        let Self {
            full,
            empty,
            producer,
            end,
            ..
        } = self;
        drop((full, empty));
        producer.map_or_else(|| end.expect("joined producer"), joined).sent
    }

    /// `next_arrival` once `block` is read: swaps in the next full block,
    /// or notes that the producer has stopped.
    #[inline(never)]
    fn refill(&mut self) -> f64 {
        while self.at == self.block.len() {
            if self.end.is_some() {
                return f64::INFINITY;
            }
            match self.full.recv() {
                Ok(next) => {
                    let spent = std::mem::replace(&mut self.block, next);
                    // A producer that has stopped needs no more blocks.
                    let _ = self.empty.send(spent);
                    self.at = 0;
                }
                Err(_) => self.end = self.producer.take().map(joined),
            }
        }
        self.block[self.at].arrival
    }
}

impl Deliveries for Handoff<'_> {
    #[inline]
    fn next_arrival(&mut self, _until: f64, _jump: f64) -> f64 {
        match self.block.get(self.at) {
            Some(m) => m.arrival,
            None => self.refill(),
        }
    }

    fn pop(&mut self) -> u64 {
        self.at += 1;
        self.block[self.at - 1].seq
    }

    fn exhausted(&self) -> bool {
        self.end.is_some_and(|end| end.silent)
    }
}

/// The monitor clock's forward jumps still ahead, in sim-time order.
trait ClockJumps {
    /// The next jump `(at, offset)`, if one is left.
    fn next(&self) -> Option<(f64, f64)>;
    /// Steps past the jump `next` answered.
    fn pass(&mut self);
}

/// A run without clock jumps: the monitor clock is sim time, so the
/// detector plane's jump checks and skew compile away.
struct NoJumps;

impl ClockJumps for NoJumps {
    fn next(&self) -> Option<(f64, f64)> {
        None
    }

    fn pass(&mut self) {}
}

impl ClockJumps for &[(f64, f64)] {
    fn next(&self) -> Option<(f64, f64)> {
        self.first().copied()
    }

    fn pass(&mut self) {
        *self = &self[1..];
    }
}

/// The detector plane: steps `fd` through every delivery, freshness
/// deadline and clock jump in time order, records its output, and applies
/// the stop condition. Returns the trace and the number of deliveries.
fn detect(
    fd: &mut dyn FailureDetector,
    opts: &RunOptions,
    mut jumps: impl ClockJumps,
    plane: &mut impl Deliveries,
) -> (TransitionTrace, u64) {
    let eta = opts.eta;
    let (horizon, target_s) = match opts.stop {
        StopCondition::Horizon(h) => (h, usize::MAX),
        StopCondition::STransitions { count, .. } => (f64::INFINITY, count),
    };
    // Monitor clock = sim time + skew; skew only grows (forward jumps).
    let mut skew: f64 = 0.0;
    let mut delivered: u64 = 0;
    let mut s_transitions: usize = 0;
    // Sim time of the latest event, and its monitor-clock instant.
    let mut now: f64 = 0.0;
    let mut observed: f64 = 0.0;

    fd.advance(0.0);
    let mut rec = TraceRecorder::new(0.0, fd.output());
    let mut last_output = fd.output();

    loop {
        // Deadlines live on the monitor clock; convert to sim time for
        // event selection. When the deadline fires, the detector is
        // advanced to `m_deadline` itself, not the round-tripped
        // `t_deadline + skew`: with nonzero skew, `(τ − skew) + skew`
        // can land one ulp below τ, in which case the freshness point
        // never fires and the deadline never moves.
        let m_deadline = fd.next_deadline().unwrap_or(f64::INFINITY);
        let t_deadline = m_deadline - skew;
        let jump = jumps.next();
        let t_jump = jump.map_or(f64::INFINITY, |(at, _)| at);
        let t_arrival = plane.next_arrival(t_deadline.min(horizon), t_jump);
        // Nothing left to happen (e.g. heartbeat cap reached, nothing in
        // flight, no deadline while suspecting): no branch below may fire
        // at ∞, where every comparison ties.
        if t_arrival == f64::INFINITY
            && t_deadline == f64::INFINITY
            && t_jump == f64::INFINITY
            && plane.exhausted()
        {
            break;
        }

        // Clock jumps apply first at ties: a jump *at* t means the
        // monitor clock has already stepped when anything else at t is
        // observed.
        let jumped = jump.filter(|&(at, _)| at <= t_deadline && at <= t_arrival && at <= horizon);
        observed = if let Some((at, offset)) = jumped {
            jumps.pass();
            skew += offset;
            // Fire every freshness deadline the jump stepped over.
            fd.advance(at + skew);
            now = at;
            at + skew
        } else {
            let t_next = t_deadline.min(t_arrival);
            if t_next > horizon {
                now = now.max(horizon.min(f64::MAX));
                break;
            }
            // Quiescence: no future sends, nothing in flight, already
            // suspecting — the output is S forever, but detectors like
            // NFD-S schedule freshness points indefinitely. Stop here
            // instead of grinding through empty deadlines. (Remaining
            // clock jumps can't change an already-suspect output either.)
            if last_output == FdOutput::Suspect && plane.exhausted() {
                break;
            }
            if t_arrival <= t_deadline {
                let seq = plane.pop();
                fd.on_heartbeat(t_arrival + skew, Heartbeat::new(seq, seq as f64 * eta));
                delivered += 1;
                now = t_arrival;
                t_arrival + skew
            } else {
                fd.advance(m_deadline);
                now = t_deadline;
                m_deadline
            }
        };

        // Only a change is recorded, and only a T→S change counts
        // towards `STransitions`.
        let out = fd.output();
        if out != last_output {
            rec.record(observed, out);
            last_output = out;
            s_transitions += usize::from(out == FdOutput::Suspect);
        }
        if s_transitions >= target_s {
            break;
        }
    }

    let end = if horizon.is_finite() {
        // The trace is in monitor clock: the horizon lands at
        // `horizon + skew` after every jump at or before it.
        horizon + skew
    } else {
        (now + skew).max(observed)
    };
    (rec.finish(end), delivered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::detectors::{NfdE, NfdS, SimpleFd};
    use crate::fault::LinkFault;
    use fd_stats::dist::{Constant, Exponential, Pareto};
    use fd_stats::DelayDistribution;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng as _, SeedableRng};

    fn lossless_constant(delay: f64) -> Link {
        Link::new(0.0, Box::new(Constant::new(delay).unwrap())).unwrap()
    }

    #[test]
    fn deterministic_run_never_suspects_after_warmup() {
        // D ≡ 0.1, δ = 0.5: every mᵢ arrives at i + 0.1 < τᵢ = i + 0.5.
        let link = lossless_constant(0.1);
        let mut fd = NfdS::new(1.0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let out = run(
            &mut fd,
            &RunOptions::failure_free(1.0, StopCondition::Horizon(100.0)),
            &link,
            &mut rng,
        );
        // Initial suspicion ends at the first arrival (t = 1.1); no
        // suspicion afterwards.
        let steady = out.trace.restrict(1.5, 100.0);
        assert_eq!(steady.transitions().len(), 0);
        assert_eq!(steady.initial_output(), FdOutput::Trust);
        assert_eq!(out.heartbeats_sent, 100);
        // m₁₀₀ is sent at exactly t = 100 and lands at 100.1, past the
        // horizon; everything else is delivered.
        assert_eq!(out.heartbeats_delivered, 99);
    }

    #[test]
    fn exact_transition_times_for_scripted_pattern() {
        // η = 1, δ = 0.5 ⇒ τᵢ = i + 0.5. Pattern: m₁ delay 0.2 (arrives
        // 1.2), m₂ lost, m₃ delay 0.1 (arrives 3.1), m₄ delay 0.2 …
        let pattern = DelayPattern::from_delays(vec![
            Some(0.2),
            None,
            Some(0.1),
            Some(0.2),
        ]);
        let mut fd = NfdS::new(1.0, 0.5).unwrap();
        let out = run_with_pattern(
            &mut fd,
            &RunOptions::failure_free(1.0, StopCondition::Horizon(4.4)),
            &pattern,
        );
        // Expected: T at 1.2 (m₁); S at τ₂ = 2.5 (m₂ never comes);
        // T at 3.1 (m₃); trusted through τ₃=3.5, τ₄=4.4 horizon.
        let tr = out.trace;
        assert_eq!(tr.initial_output(), FdOutput::Suspect);
        let times: Vec<(f64, FdOutput)> =
            tr.transitions().map(|t| (t.at, t.to)).collect();
        assert_eq!(
            times,
            vec![
                (1.2, FdOutput::Trust),
                (2.5, FdOutput::Suspect),
                (3.1, FdOutput::Trust),
            ]
        );
    }

    #[test]
    fn crash_stops_heartbeats_and_is_detected_within_bound() {
        let link = lossless_constant(0.1);
        let mut fd = NfdS::new(1.0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        // Crash at 10.25: m₁₀ (σ=10) is the last heartbeat.
        let out = run(
            &mut fd,
            &RunOptions::with_crash(1.0, 10.25, 30.0),
            &link,
            &mut rng,
        );
        assert_eq!(out.heartbeats_sent, 10);
        let d = fd_metrics::detection_time(&out.trace, 10.25);
        // m₁₀ fresh until τ₁₁ = 11.5 ⇒ T_D = 1.25 ≤ δ + η = 1.5.
        match d {
            fd_metrics::DetectionOutcome::Detected { elapsed } => {
                assert!((elapsed - 1.25).abs() < 1e-9, "T_D = {elapsed}");
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn s_transition_stop_condition() {
        // Lossy link, modest δ: mistakes recur; stop after exactly 5.
        let link = Link::new(0.3, Box::new(Exponential::with_mean(0.02).unwrap())).unwrap();
        let mut fd = NfdS::new(1.0, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let out = run(
            &mut fd,
            &RunOptions::failure_free(
                1.0,
                StopCondition::STransitions {
                    count: 5,
                    max_heartbeats: 1_000_000,
                },
            ),
            &link,
            &mut rng,
        );
        // There are exactly 5 T→S transitions in the trace.
        let t_to_s = {
            let mut prev = out.trace.initial_output();
            let mut n = 0;
            for t in out.trace.transitions() {
                if prev == FdOutput::Trust && t.to == FdOutput::Suspect {
                    n += 1;
                }
                prev = t.to;
            }
            n
        };
        assert_eq!(t_to_s, 5);
    }

    #[test]
    fn max_heartbeat_cap_terminates_quiet_runs() {
        // Perfect link and large timeouts: no mistakes ever; the cap must
        // end the run. SFD and NFD-E have no deadline once they suspect the
        // silenced sender, so every event time is then ∞.
        let detectors: [Box<dyn FailureDetector>; 3] = [
            Box::new(NfdS::new(1.0, 5.0).unwrap()),
            Box::new(SimpleFd::new(1.5).unwrap()),
            Box::new(NfdE::new(1.0, 0.5, 32).unwrap()),
        ];
        let link = lossless_constant(0.01);
        for mut fd in detectors {
            let mut rng = StdRng::seed_from_u64(4);
            let out = run(
                fd.as_mut(),
                &RunOptions::failure_free(
                    1.0,
                    StopCondition::STransitions {
                        count: 100,
                        max_heartbeats: 1000,
                    },
                ),
                &link,
                &mut rng,
            );
            assert_eq!(out.heartbeats_sent, 1000, "{}", fd.name());
            assert_eq!(out.heartbeats_delivered, 1000, "{}", fd.name());
        }
    }

    #[test]
    fn simple_fd_runs_in_engine() {
        let link = lossless_constant(0.05);
        let mut fd = SimpleFd::new(1.5).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let out = run(
            &mut fd,
            &RunOptions::failure_free(1.0, StopCondition::Horizon(50.0)),
            &link,
            &mut rng,
        );
        // Heartbeats every 1.0 with delay 0.05 and TO 1.5: after the
        // first arrival the timer is always renewed in time.
        let steady = out.trace.restrict(2.0, 50.0);
        assert_eq!(steady.transitions().len(), 0);
        assert_eq!(steady.initial_output(), FdOutput::Trust);
    }

    #[test]
    fn out_of_order_delivery_is_handled() {
        // m₁ delayed hugely, m₂ fast: arrivals cross.
        let pattern = DelayPattern::from_delays(vec![Some(5.0), Some(0.1), Some(0.1)]);
        let mut fd = NfdS::new(1.0, 0.5).unwrap();
        let out = run_with_pattern(
            &mut fd,
            &RunOptions::failure_free(1.0, StopCondition::Horizon(3.9)),
            &pattern,
        );
        // m₂ arrives 2.1 → T; m₃ arrives 3.1 keeps trust; m₁... arrives
        // at 6.0, after horizon.
        assert_eq!(out.heartbeats_delivered, 2);
        assert_eq!(out.trace.output_at(2.2), FdOutput::Trust);
    }

    #[test]
    #[should_panic(expected = "pattern exhausted")]
    fn pattern_exhaustion_panics() {
        let pattern = DelayPattern::from_delays(vec![Some(0.1)]);
        let mut fd = NfdS::new(1.0, 0.5).unwrap();
        run_with_pattern(
            &mut fd,
            &RunOptions::failure_free(1.0, StopCondition::Horizon(10.0)),
            &pattern,
        );
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn with_crash_validates_horizon() {
        RunOptions::with_crash(1.0, 10.0, 5.0);
    }

    #[test]
    fn trace_ends_exactly_at_horizon() {
        let link = lossless_constant(0.1);
        let mut fd = NfdS::new(1.0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let out = run(
            &mut fd,
            &RunOptions::failure_free(1.0, StopCondition::Horizon(25.25)),
            &link,
            &mut rng,
        );
        assert_eq!(out.trace.end(), 25.25);
        assert_eq!(out.trace.start(), 0.0);
    }

    #[test]
    fn plan_crash_recover_window_suppresses_sends_then_resumes() {
        // η = 1, δ = 0.5, D ≡ 0.1. Down window [4.5, 7.5): σ₅ = 5, σ₆ = 6,
        // σ₇ = 7 are swallowed; σ₈ = 8 resumes with its original number.
        let plan = FaultPlan::new(0).crash(4.5).recover(7.5);
        let link = lossless_constant(0.1);
        let mut fd = NfdS::new(1.0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let out = run_with_plan(
            &mut fd,
            &RunOptions::failure_free(1.0, StopCondition::Horizon(12.0)),
            link,
            &plan,
            &mut rng,
        );
        // 11 schedule slots fall in [0, 12] (σ₁..σ₁₁, σ₁₂ exactly at the
        // horizon also fires); 3 suppressed.
        assert_eq!(out.heartbeats_sent, 9);
        // Suspicion starts when m₄ goes stale (τ₅ = 5.5) and ends when
        // m₈ arrives at 8.1.
        assert_eq!(out.trace.output_at(5.0), FdOutput::Trust);
        assert_eq!(out.trace.output_at(6.0), FdOutput::Suspect);
        assert_eq!(out.trace.output_at(8.05), FdOutput::Suspect);
        assert_eq!(out.trace.output_at(8.2), FdOutput::Trust);
        // Detection of the scripted outage obeys the NFD-S bound
        // T_D ≤ η + δ. (`fd_metrics::detection_time` is for permanent
        // crashes — here p recovers, so locate the T→S edge directly.)
        let first_suspect_after = out
            .trace
            .transitions()
            .find(|t| t.at >= 4.5 && t.to == FdOutput::Suspect)
            .map(|t| t.at)
            .expect("outage must be detected");
        assert!((first_suspect_after - 5.5).abs() < 1e-9);
        assert!(first_suspect_after - 4.5 <= 1.5 + 1e-9);
    }

    #[test]
    fn plan_final_crash_silences_like_opts_crash() {
        // Permanent crash scripted via the plan instead of RunOptions.
        let plan = FaultPlan::new(0).crash(10.25);
        let link = lossless_constant(0.1);
        let mut fd = NfdS::new(1.0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let out = run_with_plan(
            &mut fd,
            &RunOptions::failure_free(1.0, StopCondition::Horizon(30.0)),
            link,
            &plan,
            &mut rng,
        );
        assert_eq!(out.heartbeats_sent, 10);
        match fd_metrics::detection_time(&out.trace, 10.25) {
            fd_metrics::DetectionOutcome::Detected { elapsed } => {
                assert!((elapsed - 1.25).abs() < 1e-9, "T_D = {elapsed}");
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn clock_jump_fires_deadlines_early_and_shifts_trace_to_monitor_time() {
        // η = 1, δ = 0.5, D ≡ 0.1. Jump of +2.0 at sim t = 4.2: the
        // monitor clock leaps from 4.2 to 6.2, stepping over freshness
        // points τ₅ = 5.5 and τ₆ = 6.0, so the detector suspects at the
        // jump even though p is alive.
        let plan = FaultPlan::new(0).clock_jump(4.2, 2.0);
        let link = lossless_constant(0.1);
        let mut fd = NfdS::new(1.0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let out = run_with_plan(
            &mut fd,
            &RunOptions::failure_free(1.0, StopCondition::Horizon(10.0)),
            link,
            &plan,
            &mut rng,
        );
        // Trace is on the monitor clock: horizon 10 lands at 12.0.
        assert_eq!(out.trace.end(), 12.0);
        // Just before the jump (monitor 4.2): trusting m₄.
        assert_eq!(out.trace.output_at(4.15), FdOutput::Trust);
        // Right after the jump (monitor 6.2): τ₅, τ₆ passed with no
        // fresh message ⇒ suspect.
        assert_eq!(out.trace.output_at(6.3), FdOutput::Suspect);
        // m₅ is sent at sim 5 and arrives sim 5.1 = monitor 7.1; it is
        // fresh for τ₆ < 7.1 ≤ τ₇? No — NFD-S trusts at arrival only if
        // the message is still fresh: m₅ fresh until τ₆ = 6.5… in
        // monitor time τᵢ are unchanged (schedule-based), so m₅'s
        // freshness expired before its monitor-time arrival; the first
        // restorative arrival is m₇ (sim 7.1 = monitor 9.1, fresh until
        // τ₈ = 8.5? also stale). Regardless of which message restores
        // trust, the output must be Suspect immediately after the jump
        // and the trace must stay on the monitor clock.
        assert_eq!(out.heartbeats_sent, 10);
    }

    /// `drive` as it was before the message plane split off, verbatim: the
    /// oracle of the differential tests below.
    mod reference {
        use super::super::{Fate, RunOptions, RunOutcome, StopCondition};
        use crate::fault::{FaultPlan, ProcessEvent};
        use fd_core::{FailureDetector, Heartbeat};
        use fd_metrics::{FdOutput, TraceRecorder};
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// In-flight message ordered by arrival time (min-heap via `Reverse`).
        #[derive(Debug, Clone, Copy, PartialEq)]
        struct InFlight {
            arrival: f64,
            seq: u64,
            send: f64,
        }

        impl Eq for InFlight {}

        impl Ord for InFlight {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.arrival
                    .total_cmp(&other.arrival)
                    .then(self.seq.cmp(&other.seq))
            }
        }

        impl PartialOrd for InFlight {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        pub(super) fn drive_reference(
            fd: &mut dyn FailureDetector,
            opts: &RunOptions,
            mut fate: Fate<'_>,
            plan: Option<&FaultPlan>,
        ) -> RunOutcome {
            assert!(opts.eta > 0.0, "eta must be positive");
            let eta = opts.eta;
            let (horizon, target_s, max_hb) = match opts.stop {
                StopCondition::Horizon(h) => (h, usize::MAX, u64::MAX),
                StopCondition::STransitions {
                    count,
                    max_heartbeats,
                } => (f64::INFINITY, count, max_heartbeats),
            };
            // The permanent silence point: the engine-level crash, the plan's
            // final unrecovered crash, or the earlier of the two.
            let permanent_crash = match (opts.crash_at, plan.and_then(FaultPlan::final_crash)) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            // Scheduled forward monitor-clock jumps, in plan (sim-time) order.
            let jumps: Vec<(f64, f64)> = plan
                .map(|p| {
                    p.events()
                        .iter()
                        .filter_map(|ev| match *ev {
                            ProcessEvent::ClockJump { at, offset } => Some((at, offset)),
                            _ => None,
                        })
                        .collect()
                })
                .unwrap_or_default();
            let mut jump_idx = 0usize;
            // Monitor clock = sim time + skew; skew only grows (forward jumps).
            let mut skew: f64 = 0.0;

            let mut pending: BinaryHeap<Reverse<InFlight>> = BinaryHeap::new();
            let mut fates: Vec<f64> = Vec::with_capacity(2);
            let mut next_seq: u64 = 1;
            let mut sent: u64 = 0;
            let mut delivered: u64 = 0;
            let mut s_transitions: usize = 0;
            let mut now: f64 = 0.0;

            fd.advance(0.0);
            let mut rec = TraceRecorder::new(0.0, fd.output());
            let mut last_output = fd.output();

            loop {
                // Deadlines live on the monitor clock; convert to sim time for
                // event selection. When the deadline fires, the detector is
                // advanced to `m_deadline` itself, not the round-tripped
                // `t_deadline + skew`: with nonzero skew, `(τ − skew) + skew`
                // can land one ulp below τ, in which case the freshness point
                // never fires and the deadline never moves.
                let m_deadline = fd.next_deadline().unwrap_or(f64::INFINITY);
                let t_deadline = m_deadline - skew;
                let t_arrival = pending
                    .peek()
                    .map(|Reverse(m)| m.arrival)
                    .unwrap_or(f64::INFINITY);
                let t_jump = jumps
                    .get(jump_idx)
                    .map(|&(at, _)| at)
                    .unwrap_or(f64::INFINITY);
                let t_send = loop {
                    let sigma = next_seq as f64 * eta;
                    if permanent_crash.is_some_and(|c| sigma > c) || sent >= max_hb {
                        break f64::INFINITY;
                    }
                    // A scripted (recoverable) down window: this heartbeat is
                    // never sent, but the schedule and numbering move on, so
                    // sending resumes at the first σᵢ after recovery. Down
                    // windows are finite (the permanent one was handled above),
                    // so this loop terminates.
                    if plan.is_some_and(|p| p.is_crashed_at(sigma)) {
                        next_seq += 1;
                        continue;
                    }
                    break sigma;
                };
                // Nothing left to happen (e.g. heartbeat cap reached, nothing in
                // flight, no deadline while suspecting): no branch below may fire
                // at ∞, where every comparison ties.
                if t_send == f64::INFINITY && t_jump.min(t_deadline).min(t_arrival) == f64::INFINITY {
                    break;
                }

                // Clock jumps apply first at ties: a jump *at* t means the
                // monitor clock has already stepped when anything else at t is
                // observed.
                if t_jump <= t_send && t_jump <= t_deadline && t_jump <= t_arrival && t_jump <= horizon {
                    let (at, offset) = jumps[jump_idx];
                    jump_idx += 1;
                    skew += offset;
                    // Fire every freshness deadline the jump stepped over.
                    fd.advance(at + skew);
                    now = at;
                    let out = fd.output();
                    rec.record(at + skew, out);
                    if out == FdOutput::Suspect && last_output == FdOutput::Trust {
                        s_transitions += 1;
                    }
                    last_output = out;
                    if s_transitions >= target_s {
                        break;
                    }
                    continue;
                }

                // Generate sends first at ties: an arrival can never precede its
                // own send, so materializing sends up to the next event keeps the
                // heap complete.
                if t_send <= t_deadline && t_send <= t_arrival && t_send <= horizon {
                    fates.clear();
                    fate.of_into(next_seq, t_send, &mut fates);
                    for d in fates.drain(..) {
                        pending.push(Reverse(InFlight {
                            arrival: t_send + d,
                            seq: next_seq,
                            send: t_send,
                        }));
                    }
                    sent += 1;
                    next_seq += 1;
                    continue;
                }

                let t_next = t_deadline.min(t_arrival);
                if t_next > horizon {
                    now = now.max(horizon.min(f64::MAX));
                    break;
                }
                // Quiescence: no future sends, nothing in flight, already
                // suspecting — the output is S forever, but detectors like NFD-S
                // schedule freshness points indefinitely. Stop here instead of
                // grinding through empty deadlines. (Remaining clock jumps can't
                // change an already-suspect output either.)
                if t_send.is_infinite() && pending.is_empty() && last_output == FdOutput::Suspect {
                    break;
                }

                let t_observed = if t_arrival <= t_deadline {
                    let Reverse(m) = pending.pop().expect("peeked above");
                    fd.on_heartbeat(m.arrival + skew, Heartbeat::new(m.seq, m.send));
                    delivered += 1;
                    now = m.arrival;
                    m.arrival + skew
                } else {
                    fd.advance(m_deadline);
                    now = t_deadline;
                    m_deadline
                };

                let out = fd.output();
                rec.record(t_observed, out);
                if out == FdOutput::Suspect && last_output == FdOutput::Trust {
                    s_transitions += 1;
                }
                last_output = out;

                if s_transitions >= target_s {
                    break;
                }
            }

            let end = if horizon.is_finite() {
                // The trace is in monitor clock: the horizon lands at
                // `horizon + skew` after every jump at or before it.
                horizon + skew
            } else {
                (now + skew).max(rec.latest_time())
            };
            RunOutcome {
                trace: rec.finish(end),
                heartbeats_sent: sent,
                heartbeats_delivered: delivered,
                crash_at: opts.crash_at,
            }
        }
    }

    /// One differential input: an entry point (0 `run`, 1 `run_with_pattern`,
    /// 2 `run_with_plan`), a detector (NFD-S, NFD-E, SFD-L), a link and a
    /// run shape. The plan of entry 2 is `case_plan`. Detector parameters,
    /// delays and plan times scale with `η`, so every `η` runs the same
    /// shape. The delay law is exponential, which `Link` draws without
    /// `sample`, or Pareto, which it draws through it; entry 0 gets the RNG
    /// as `&mut StdRng` or as `&mut (dyn RngCore + Send)`.
    #[derive(Debug, Clone, Copy)]
    struct Case {
        seed: u64,
        entry: usize,
        detector: usize,
        p_l: f64,
        mean_delay: f64,
        pareto: bool,
        dyn_rng: bool,
        opts: RunOptions,
    }

    /// Runs below and just past the run-ahead threshold, in sends.
    const SHORT: u64 = 2_000;
    const LONG: u64 = RUN_AHEAD_MIN_SENDS + 1_000;
    /// Intersending times: one exact, two whose `seq as f64 * η` rounds.
    const ETAS: [f64; 3] = [1.0, 0.1, 1.0 / 3.0];

    fn case_detector(kind: usize, eta: f64) -> Box<dyn FailureDetector> {
        match kind {
            0 => Box::new(NfdS::new(eta, 0.6 * eta).unwrap()),
            1 => Box::new(NfdE::new(eta, 0.5 * eta, 32).unwrap()),
            _ => Box::new(SimpleFd::with_cutoff(1.1 * eta, 0.16 * eta).unwrap()),
        }
    }

    /// Crash–recover windows, two clock jumps, lag-0 duplication,
    /// reordering and extra loss, from `start·η` on, then Gilbert–Elliott
    /// burst loss to the end of the run; the event `k` sends later sits at
    /// `(start + k)·η`, on a `σ` when `start` and `k` are whole.
    fn case_plan(seed: u64, start: f64, eta: f64) -> FaultPlan {
        let at = |k: f64| (start + k) * eta;
        FaultPlan::new(seed)
            .link_fault(
                at(0.0),
                LinkFault::Duplicate {
                    probability: 0.5,
                    lag: 0.0,
                },
            )
            .link_fault(at(40.0), LinkFault::Reorder { spread: 2.5 * eta })
            .link_fault(at(80.0), LinkFault::Loss { p: 0.2 })
            .link_fault(at(120.0), LinkFault::Nominal)
            .link_fault(
                at(160.0),
                LinkFault::BurstLoss {
                    p_gb: 0.05,
                    p_bg: 0.3,
                    loss_good: 0.01,
                    loss_bad: 0.8,
                },
            )
            .restart_storm(at(10.0), 3, 2.5 * eta, 4.0 * eta)
            .clock_jump(at(35.0), 1.5 * eta)
            .crash(at(60.0))
            .recover(at(75.3))
            .clock_jump(at(90.0), 0.7 * eta)
    }

    /// Runs `case` through `drive_reference` (`path` `None`) or through its
    /// entry point on one path, returning the outcome and the RNG after it.
    fn run_case(case: &Case, path: Option<bool>, plan: &FaultPlan) -> (RunOutcome, StdRng) {
        let mut fd = case_detector(case.detector, case.opts.eta);
        let fd = fd.as_mut();
        let mut rng = StdRng::seed_from_u64(case.seed);
        let delay = || -> Box<dyn DelayDistribution> {
            if case.pareto {
                Box::new(Pareto::with_mean(case.mean_delay, 3.0).unwrap())
            } else {
                Box::new(Exponential::with_mean(case.mean_delay).unwrap())
            }
        };
        let link = Link::new(case.p_l, delay()).unwrap();
        let opts = &case.opts;
        let out = match (case.entry, path) {
            (0, None) => reference::drive_reference(fd, opts, Fate::Link(&link, &mut rng), None),
            (0, Some(p)) if case.dyn_rng => {
                let rng: &mut (dyn RngCore + Send) = &mut rng;
                on_path(p, || run(fd, opts, &link, rng))
            }
            (0, Some(p)) => on_path(p, || run(fd, opts, &link, &mut rng)),
            (1, _) => {
                let len = match opts.stop {
                    StopCondition::Horizon(h) => (h / opts.eta) as usize + 2,
                    StopCondition::STransitions { max_heartbeats, .. } => max_heartbeats as usize,
                };
                let pattern =
                    DelayPattern::generate(&link, len, &mut StdRng::seed_from_u64(!case.seed));
                match path {
                    None => reference::drive_reference(fd, opts, Fate::Pattern(&pattern), None),
                    Some(p) => on_path(p, || run_with_pattern(fd, opts, &pattern)),
                }
            }
            (_, None) => {
                let fate = Fate::Plan(&link, plan.injector(), &mut rng);
                reference::drive_reference(fd, opts, fate, Some(plan))
            }
            (_, Some(p)) => on_path(p, || run_with_plan(fd, opts, link, plan, &mut rng)),
        };
        (out, rng)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every entry point, in place and run ahead, against
        /// `drive_reference`: the same trace, the same heartbeat counts,
        /// and the caller's RNG left in the same state. `η` is exact or
        /// rounds in `seq as f64 * η`; a horizon, crash time or plan event
        /// on a `σ` hits the `σ ≤ horizon`, `σ > crash` and `σ ≥ event`
        /// edges exactly; `p_L = 1` delivers nothing but still draws every
        /// fate. Both of `Link`'s fate paths (an exponential law drawn
        /// directly, any other through `sample`) run on both RNG types.
        #[test]
        fn prop_both_planes_match_the_reference(
            seed in 0u64..1_000_000,
            entry in 0usize..3,
            detector in 0usize..3,
            loss in 0usize..4,
            slow in proptest::bool::ANY,
            eta in 0usize..3,
            stop in 0usize..3,
            horizon_on_sigma in proptest::bool::ANY,
            crash in proptest::option::of(5.0f64..1_500.0),
            crashes in proptest::bool::ANY,
            crash_on_sigma in proptest::bool::ANY,
            plan_at in 1.0f64..400.0,
            plan_on_sigma in proptest::bool::ANY,
            pareto in proptest::bool::ANY,
            dyn_rng in proptest::bool::ANY,
        ) {
            let eta = ETAS[eta];
            // `k as f64 * η` is `σ_k` bit for bit: the engine computes it so.
            let sigma_or_between = |k: f64, on_sigma: bool| {
                if on_sigma { k.floor() * eta } else { k * eta }
            };
            let crash_at = crash
                .filter(|_| crashes)
                .map(|k| sigma_or_between(k, crash_on_sigma));
            let horizon = |sends: u64| {
                StopCondition::Horizon(sigma_or_between(sends as f64 + 0.5, horizon_on_sigma))
            };
            let stop = match stop {
                0 => horizon(SHORT),
                1 => horizon(LONG),
                _ => StopCondition::STransitions {
                    count: 25,
                    max_heartbeats: 5_000,
                },
            };
            let case = Case {
                seed,
                entry,
                detector,
                p_l: [0.0, 0.01, 0.3, 1.0][loss],
                mean_delay: if slow { 0.8 * eta } else { 0.02 * eta },
                pareto,
                dyn_rng,
                opts: RunOptions { eta, crash_at, stop },
            };
            let plan_start = if plan_on_sigma { plan_at.floor() } else { plan_at };
            let plan = case_plan(seed, plan_start, eta);
            let (want, want_rng) = run_case(&case, None, &plan);
            for run_ahead in [false, true] {
                let (got, got_rng) = run_case(&case, Some(run_ahead), &plan);
                prop_assert!(got.trace == want.trace, "trace, run ahead {run_ahead}: {case:?}");
                prop_assert_eq!(got.heartbeats_sent, want.heartbeats_sent, "{:?}", case);
                prop_assert_eq!(got.heartbeats_delivered, want.heartbeats_delivered, "{:?}", case);
                prop_assert!(got_rng == want_rng, "RNG state, run ahead {run_ahead}: {case:?}");
            }
        }
    }

    #[test]
    fn first_past_is_the_first_send_after_the_crash() {
        let by_definition = |crash: f64, eta: f64| {
            (1u64..).find(|&seq| seq as f64 * eta > crash).expect("a send after the crash")
        };
        for eta in ETAS {
            for k in [0u64, 1, 2, 3, 10, 999, 12_345] {
                let sigma = k as f64 * eta;
                for crash in [sigma, sigma.next_down(), sigma.next_up(), sigma + 0.5 * eta] {
                    let want = by_definition(crash, eta);
                    assert_eq!(first_past(crash, eta), want, "crash {crash}, η {eta}");
                }
            }
        }
        assert_eq!(first_past(f64::NEG_INFINITY, 1.0), 1);
        assert_eq!(first_past(f64::NAN, 1.0), u64::MAX);
        assert_eq!(first_past(f64::INFINITY, 1.0), u64::MAX);
        assert_eq!(first_past(1e300, 0.1), u64::MAX);
    }

    #[test]
    fn ten_thousand_event_plan_matches_the_reference() {
        // 5 000 down windows of 0.3 s every 0.6 s swallow two sends in
        // three: the cursor must skip exactly the sends the full scan did.
        let plan = FaultPlan::new(3).restart_storm(1.0, 5_000, 0.3, 0.3);
        assert_eq!(plan.events().len(), 10_000);
        let opts = RunOptions::failure_free(1.0, StopCondition::Horizon(3_100.0));
        let outcome = |path: Option<bool>| {
            let mut fd = NfdS::new(1.0, 0.5).unwrap();
            let mut rng = StdRng::seed_from_u64(12);
            let link = lossless_constant(0.1);
            let out = match path {
                None => {
                    let fate = Fate::Plan(&link, plan.injector(), &mut rng);
                    reference::drive_reference(&mut fd, &opts, fate, Some(&plan))
                }
                Some(p) => on_path(p, || run_with_plan(&mut fd, &opts, link, &plan, &mut rng)),
            };
            (out.trace, out.heartbeats_sent, out.heartbeats_delivered, rng)
        };
        let want = outcome(None);
        assert!(want.1 < 1_500, "the windows swallow sends: {} sent", want.1);
        assert!(outcome(Some(false)) == want, "in place");
        assert!(outcome(Some(true)) == want, "run ahead");
    }

    /// Deliveries drawn before the run, read back in order: the detector
    /// plane with no message plane behind it.
    struct Predrawn {
        all: Vec<InFlight>,
        at: usize,
    }

    impl Deliveries for Predrawn {
        fn next_arrival(&mut self, _until: f64, _jump: f64) -> f64 {
            self.all.get(self.at).map_or(f64::INFINITY, |m| m.arrival)
        }

        fn pop(&mut self) -> u64 {
            self.at += 1;
            self.all[self.at - 1].seq
        }

        fn exhausted(&self) -> bool {
            false
        }
    }

    /// The cost of each plane of a Fig. 12 run (`η = 1`, `p_L = 0.01`,
    /// `D ~ Exp(0.02)`, the `fig12_sim` detectors at its three bounds), and
    /// the fixed cost of running ahead. Best of five, in ns a heartbeat:
    /// `cargo test --release -p fd-sim --lib plane_costs -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing probe: run it in release"]
    fn plane_costs() {
        use std::hint::black_box;
        use std::time::Instant;
        const SENDS: u64 = 2_000_000;
        const REPS: u64 = 5;
        const BOUNDS: [f64; 3] = [1.25, 2.0, 2.75];
        let link = Link::new(0.01, Box::new(Exponential::with_mean(0.02).unwrap())).unwrap();
        let horizon = SENDS as f64;
        let opts = RunOptions::failure_free(1.0, StopCondition::Horizon(horizon));
        let fig12 = |kind: usize, bound: f64| -> Box<dyn FailureDetector> {
            match kind {
                0 => Box::new(NfdS::new(1.0, bound - 1.0).unwrap()),
                1 => Box::new(NfdE::new(1.0, bound - 0.02 - 1.0, 32).unwrap()),
                _ => Box::new(SimpleFd::with_cutoff(bound - 0.16, 0.16).unwrap()),
            }
        };
        let ns = |t: Instant| t.elapsed().as_nanos() as f64 / SENDS as f64;
        let best = |f: &mut dyn FnMut(u64) -> f64| (0..REPS).map(f).fold(f64::INFINITY, f64::min);

        // The floor under the message plane: the fate draws alone. Through
        // `dyn` (the law's `sample` and the RNG both dynamic) is the
        // slowest a draw can be; `run` draws on the caller's `StdRng` with the
        // exponential law resolved; `ln` is the part no dispatch removes.
        let (p_l, law) = (link.loss_probability(), link.delay());
        let through_dyn = best(&mut |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let rng: &mut dyn RngCore = &mut rng;
            let t = Instant::now();
            for _ in 0..SENDS {
                black_box(if rng.random::<f64>() < p_l { None } else { Some(law.sample(rng)) });
            }
            ns(t)
        });
        println!("plane_costs: fate draws through dyn      {through_dyn:6.2} ns/hb");
        let as_run = best(&mut |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = Instant::now();
            for _ in 0..SENDS {
                black_box(link.sample_fate(&mut rng));
            }
            ns(t)
        });
        println!("plane_costs: fate draws as run makes them {as_run:5.2} ns/hb");
        let ln = best(&mut |seed| {
            let step = 1.0 / (SENDS + seed) as f64;
            let t = Instant::now();
            for i in 0..SENDS {
                black_box(black_box((i + 1) as f64 * step).ln());
            }
            ns(t)
        });
        println!("plane_costs: ln alone                    {ln:6.2} ns/hb");

        // The message plane alone, filling one recycled block as the
        // producer does.
        let draw_all = |seed: u64, keep: bool| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut plane = MessagePlane::new(&opts, LinkFates(&link, &mut rng), None);
            let (mut block, mut all) = (Vec::with_capacity(BLOCK), Vec::new());
            let mut more = true;
            while more {
                block.clear();
                more = plane.fill(horizon, &mut block);
                if keep {
                    all.extend_from_slice(&block);
                }
                black_box(&block);
            }
            all
        };
        let message = best(&mut |seed| {
            let t = Instant::now();
            draw_all(seed, false);
            ns(t)
        });
        println!("plane_costs: message plane alone         {message:6.2} ns/hb");

        let names = ["NFD-S", "NFD-E", "SFD-L"];
        for (kind, name) in names.iter().enumerate() {
            let (mut alone, mut ahead, mut in_place) = (0.0, 0.0, 0.0);
            for (b, &bound) in BOUNDS.iter().enumerate() {
                let seed = b as u64;
                let all = draw_all(seed, true);
                let mut traces = Vec::new();
                alone += best(&mut |_| {
                    let mut fd = fig12(kind, bound);
                    let mut predrawn = Predrawn { all: all.clone(), at: 0 };
                    let t = Instant::now();
                    let (trace, _) = detect(fd.as_mut(), &opts, NoJumps, &mut predrawn);
                    let spent = ns(t);
                    traces.push(trace);
                    spent
                }) / 3.0;
                for (path, sum) in [(true, &mut ahead), (false, &mut in_place)] {
                    *sum += best(&mut |_| {
                        let mut fd = fig12(kind, bound);
                        let mut rng = StdRng::seed_from_u64(seed);
                        let t = Instant::now();
                        let out = on_path(path, || run(fd.as_mut(), &opts, &link, &mut rng));
                        let spent = ns(t);
                        assert!(out.trace == traces[0], "{name} at {bound}, run ahead {path}");
                        spent
                    }) / 3.0;
                }
            }
            println!("plane_costs: detector plane alone {name}  {alone:6.2} ns/hb");
            println!("plane_costs: run, run ahead       {name}  {ahead:6.2} ns/hb");
            println!("plane_costs: run, in place        {name}  {in_place:6.2} ns/hb");
        }

        // Spawning the producer, one hand-off and the join: a one-send run
        // ahead against the same run in place.
        let one = RunOptions::failure_free(1.0, StopCondition::Horizon(1.0));
        let per_run = |path: bool| {
            best(&mut |seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let t = Instant::now();
                for _ in 0..1_000 {
                    let mut fd = NfdS::new(1.0, 1.0).unwrap();
                    black_box(on_path(path, || run(&mut fd, &one, &link, &mut rng)));
                }
                t.elapsed().as_nanos() as f64 / 1_000.0
            })
        };
        let fixed_us = (per_run(true) - per_run(false)) / 1e3;
        println!("plane_costs: run-ahead fixed cost      {fixed_us:6.2} µs a run");
    }

    #[test]
    #[should_panic(expected = "delay pattern exhausted")]
    fn long_pattern_run_ahead_still_panics_when_the_pattern_runs_out() {
        // The producer thread hits the end of the pattern; its own panic,
        // not the scope's, reaches the caller.
        let pattern = DelayPattern::from_delays(vec![Some(0.1); 1_000]);
        let mut fd = NfdS::new(1.0, 0.5).unwrap();
        let opts = RunOptions::failure_free(1.0, StopCondition::Horizon(LONG as f64));
        on_path(true, || run_with_pattern(&mut fd, &opts, &pattern));
    }
}
