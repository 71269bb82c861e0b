//! Scripted, seedable fault injection shared by the simulator and the
//! real-time runtime.
//!
//! The paper defines QoS *under* adverse message behavior — loss, delay,
//! reordering (§2, §7) — and §8.1 studies what happens when the i.i.d.
//! assumption breaks (bursts, epochs). A [`FaultPlan`] is the one model
//! of both: one deterministic, scripted timeline of fault segments that
//! every transport understands:
//!
//! * the simulator, via [`run_with_plan`](crate::run_with_plan);
//! * `fd-cluster`'s UDP sender, `fd-federation`'s gossip transport and
//!   scripted drivers of a cluster monitor, via [`FaultInjector`];
//! * process-level faults — sender crash/recovery and clock jumps —
//!   via [`ProcessEvent`]s that a driver applies on schedule (sends stop
//!   while [`FaultPlan::is_crashed_at`]; a jump adds
//!   [`FaultPlan::clock_skew_at`] to the monitor's times).
//!
//! Time in a plan is in seconds relative to the start of whatever run
//! consumes it (simulated time in `fd-sim`, the sender's cluster clock
//! in `fd-cluster`). Link-fault segments extend from their start
//! time to the start of the next segment; the timeline implicitly begins
//! with [`LinkFault::Nominal`] at `t = 0`.

use rand::{Rng as _, RngCore};

/// Link-level fault in force during one segment of a [`FaultPlan`].
///
/// Faults *compose with* the base link law: the base `(p_L, D)` coin and
/// delay draw happen first, then the active fault transforms the result
/// (extra loss multiplies through, extra delay adds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFault {
    /// The base link law applies unchanged.
    Nominal,
    /// Additional i.i.d. loss with probability `p` (on top of base loss).
    Loss {
        /// Extra per-message drop probability.
        p: f64,
    },
    /// Gilbert–Elliott two-state burst loss overlay: between consecutive
    /// messages the state flips `Good → Bad` with probability `p_gb` and
    /// `Bad → Good` with probability `p_bg`; the state's loss probability
    /// applies on top of base loss. State resets to Good when the segment
    /// begins.
    BurstLoss {
        /// Good → Bad transition probability per message slot.
        p_gb: f64,
        /// Bad → Good transition probability per message slot.
        p_bg: f64,
        /// Loss probability in the good state.
        loss_good: f64,
        /// Loss probability in the bad (burst) state.
        loss_bad: f64,
    },
    /// Delay spike: every delivered message takes `extra` additional
    /// seconds, plus uniform jitter in `[0, jitter)`.
    DelaySpike {
        /// Deterministic extra delay (seconds).
        extra: f64,
        /// Upper bound of the uniform extra jitter (seconds).
        jitter: f64,
    },
    /// Full partition: every message is dropped.
    Partition,
    /// Duplication: each delivered message is re-delivered with
    /// probability `probability`, the copy lagging `lag` seconds behind
    /// the original.
    Duplicate {
        /// Probability a delivered message is duplicated.
        probability: f64,
        /// Extra delay of the duplicate relative to the original.
        lag: f64,
    },
    /// Reordering pressure: every delivered message gets uniform extra
    /// delay in `[0, spread)`, making overtakes likely.
    Reorder {
        /// Upper bound of the uniform extra delay (seconds).
        spread: f64,
    },
}

fn assert_probability(name: &str, p: f64) {
    assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1], got {p}");
}

fn assert_non_negative(name: &str, v: f64) {
    assert!(
        v.is_finite() && v >= 0.0,
        "{name} must be finite and non-negative, got {v}"
    );
}

impl LinkFault {
    fn validate(&self) {
        match *self {
            LinkFault::Nominal | LinkFault::Partition => {}
            LinkFault::Loss { p } => assert_probability("loss p", p),
            LinkFault::BurstLoss {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                assert_probability("p_gb", p_gb);
                assert_probability("p_bg", p_bg);
                assert_probability("loss_good", loss_good);
                assert_probability("loss_bad", loss_bad);
            }
            LinkFault::DelaySpike { extra, jitter } => {
                assert_non_negative("extra delay", extra);
                assert_non_negative("delay jitter", jitter);
            }
            LinkFault::Duplicate { probability, lag } => {
                assert_probability("duplication probability", probability);
                assert_non_negative("duplication lag", lag);
            }
            LinkFault::Reorder { spread } => assert_non_negative("reorder spread", spread),
        }
    }
}

/// A scheduled process-level fault: applied by the runtime (the
/// simulator's equivalents are `RunOptions::crash_at` and skewed clocks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProcessEvent {
    /// The monitored process crashes (heartbeats stop).
    Crash {
        /// When the crash happens.
        at: f64,
    },
    /// The monitored process recovers (heartbeats resume, sequence
    /// numbers continuing).
    Recover {
        /// When the recovery happens.
        at: f64,
    },
    /// The monitor's clock jumps forward by `offset` seconds (an NTP
    /// step; forward-only, since clock readings must be non-decreasing).
    ClockJump {
        /// When the jump happens.
        at: f64,
        /// Size of the forward jump (seconds, non-negative).
        offset: f64,
    },
}

impl ProcessEvent {
    /// The scheduled time of this event.
    pub fn at(&self) -> f64 {
        match *self {
            ProcessEvent::Crash { at }
            | ProcessEvent::Recover { at }
            | ProcessEvent::ClockJump { at, .. } => at,
        }
    }
}

/// A deterministic, seedable script of faults: link-fault segments plus
/// process-level events on one shared timeline.
///
/// # Example
///
/// ```
/// use fd_sim::fault::{FaultPlan, LinkFault};
///
/// // Nominal for 30 s, a full partition until 40 s, then heal.
/// let plan = FaultPlan::new(7)
///     .link_fault(30.0, LinkFault::Partition)
///     .link_fault(40.0, LinkFault::Nominal)
///     .crash(120.0)
///     .recover(150.0);
/// assert_eq!(plan.link_fault_at(35.0), LinkFault::Partition);
/// assert!(plan.is_crashed_at(130.0));
/// assert!(!plan.is_crashed_at(160.0));
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    /// `(start, fault)` sorted by strictly increasing start; index 0 is
    /// always `(0.0, _)`.
    segments: Vec<(f64, LinkFault)>,
    /// Process events sorted by time.
    events: Vec<ProcessEvent>,
}

impl FaultPlan {
    /// Creates an empty plan (nominal forever) with the given seed. The
    /// seed feeds whatever RNG the consuming transport derives for the
    /// plan's random choices, so equal seeds reproduce equal fault
    /// realizations.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            segments: vec![(0.0, LinkFault::Nominal)],
            events: Vec::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Appends a link-fault segment starting at `start` and lasting until
    /// the next segment (or forever). Segments must be appended in
    /// strictly increasing start order; `start == 0` replaces the
    /// implicit initial nominal segment.
    ///
    /// # Panics
    ///
    /// Panics on non-finite/negative/non-increasing starts or invalid
    /// fault parameters.
    pub fn link_fault(mut self, start: f64, fault: LinkFault) -> Self {
        assert!(
            start.is_finite() && start >= 0.0,
            "segment start must be finite and non-negative, got {start}"
        );
        fault.validate();
        if start == 0.0 && self.segments.len() == 1 {
            self.segments[0].1 = fault;
            return self;
        }
        let last = self.segments.last().expect("timeline non-empty").0;
        assert!(
            start > last,
            "segment starts must strictly increase ({start} after {last})"
        );
        self.segments.push((start, fault));
        self
    }

    /// Schedules a crash of the monitored process at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not finite and non-negative.
    pub fn crash(self, at: f64) -> Self {
        self.event(ProcessEvent::Crash { at })
    }

    /// Schedules a recovery of the monitored process at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not finite and non-negative.
    pub fn recover(self, at: f64) -> Self {
        self.event(ProcessEvent::Recover { at })
    }

    /// Schedules a restart storm: `cycles` crash/recover pairs starting
    /// at `start`, each keeping the process down for `down` seconds and
    /// then up for `up` seconds before the next crash. The final event
    /// is always a recovery, so the process ends the storm alive — the
    /// crash-recovery model's worst case short of a permanent crash.
    ///
    /// # Panics
    ///
    /// Panics if `cycles == 0`, `start` is not finite and non-negative,
    /// or `down`/`up` is not finite and positive.
    pub fn restart_storm(mut self, start: f64, cycles: usize, down: f64, up: f64) -> Self {
        assert!(cycles > 0, "restart storm needs at least one cycle");
        assert!(
            down.is_finite() && down > 0.0,
            "down time must be finite and positive, got {down}"
        );
        assert!(
            up.is_finite() && up > 0.0,
            "up time must be finite and positive, got {up}"
        );
        let mut t = start;
        for _ in 0..cycles {
            self = self.crash(t).recover(t + down);
            t += down + up;
        }
        self
    }

    /// Schedules a forward monitor-clock jump of `offset` seconds at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` or `offset` is not finite and non-negative.
    pub fn clock_jump(self, at: f64, offset: f64) -> Self {
        assert_non_negative("clock jump offset", offset);
        self.event(ProcessEvent::ClockJump { at, offset })
    }

    fn event(mut self, ev: ProcessEvent) -> Self {
        assert_non_negative("event time", ev.at());
        if let Some(last) = self.events.last() {
            assert!(
                ev.at() >= last.at(),
                "process events must be scheduled in non-decreasing order"
            );
        }
        self.events.push(ev);
        self
    }

    /// The link-fault segments, in timeline order.
    pub fn segments(&self) -> &[(f64, LinkFault)] {
        &self.segments
    }

    /// The scheduled process events, in timeline order.
    pub fn events(&self) -> &[ProcessEvent] {
        &self.events
    }

    /// Index of the segment governing time `t`.
    ///
    /// Time semantics, pinned by unit tests (the SMC harness relies on
    /// them for resumable, byte-identical scenario replay):
    ///
    /// * a segment's fault is in force **at** its own start (`t == start`
    ///   selects the new segment, closed-open `[start, next)` windows);
    /// * times before the first explicit segment (including `t < 0`,
    ///   which no transport produces) fall into the implicit initial
    ///   nominal segment;
    /// * `NaN` is a caller bug and panics rather than silently selecting
    ///   the first segment (which `partition_point` would otherwise do,
    ///   because `s <= NaN` is false for every `s`).
    fn segment_index_at(&self, t: f64) -> usize {
        assert!(!t.is_nan(), "fault-plan lookup time must not be NaN");
        // First segment starts at 0; partition_point ≥ 1 for t ≥ 0.
        self.segments.partition_point(|&(s, _)| s <= t).max(1) - 1
    }

    /// The link fault in force at time `t`. A segment's fault applies
    /// from exactly `t == start` (inclusive) until the next segment's
    /// start (exclusive).
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN.
    pub fn link_fault_at(&self, t: f64) -> LinkFault {
        self.segments[self.segment_index_at(t)].1
    }

    /// Whether the monitored process is (scripted to be) crashed at `t`.
    ///
    /// Events scheduled at exactly `t` have already taken effect (a
    /// crash at `t` means the process is down *at* `t`); events sharing
    /// one timestamp apply in insertion order, so a crash and recovery
    /// at the same instant leave the process up.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN.
    pub fn is_crashed_at(&self, t: f64) -> bool {
        assert!(!t.is_nan(), "fault-plan lookup time must not be NaN");
        let mut crashed = false;
        for ev in &self.events {
            if ev.at() > t {
                break;
            }
            match ev {
                ProcessEvent::Crash { .. } => crashed = true,
                ProcessEvent::Recover { .. } => crashed = false,
                ProcessEvent::ClockJump { .. } => {}
            }
        }
        crashed
    }

    /// The time of the final crash that is never followed by a
    /// recovery — the plan's *permanent* crash, if any. Detection-time
    /// oracles measure `T_D` from this instant.
    pub fn final_crash(&self) -> Option<f64> {
        let mut down_since = None;
        for ev in &self.events {
            match ev {
                ProcessEvent::Crash { at } => {
                    if down_since.is_none() {
                        down_since = Some(*at);
                    }
                }
                ProcessEvent::Recover { .. } => down_since = None,
                ProcessEvent::ClockJump { .. } => {}
            }
        }
        down_since
    }

    /// Accumulated forward monitor-clock skew at time `t`: the sum of
    /// all [`ProcessEvent::ClockJump`] offsets scheduled at or before
    /// `t`. Monitor-clock readings relate to plan time as
    /// `monitor = t + clock_skew_at(t)`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN.
    pub fn clock_skew_at(&self, t: f64) -> f64 {
        assert!(!t.is_nan(), "fault-plan lookup time must not be NaN");
        self.events
            .iter()
            .take_while(|ev| ev.at() <= t)
            .map(|ev| match ev {
                ProcessEvent::ClockJump { offset, .. } => *offset,
                _ => 0.0,
            })
            .sum()
    }

    /// The latest scheduled time in the plan (last segment start or last
    /// process event, whichever is later); `0.0` for an empty plan.
    /// Scenario generators use it to keep sampled timelines inside a
    /// run's horizon.
    pub fn last_event_time(&self) -> f64 {
        let seg = self.segments.last().map_or(0.0, |&(s, _)| s);
        let ev = self.events.last().map_or(0.0, |e| e.at());
        seg.max(ev)
    }

    /// Builds the stateful link-fault evaluator for this plan.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector {
            segments: self.segments.clone(),
            seg_idx: 0,
            in_bad: false,
        }
    }
}

/// Stateful evaluator of a [`FaultPlan`]'s link faults: transforms each
/// message's base fate (from the underlying link law) into zero or more
/// delivery delays. Randomness comes from the caller-supplied RNG, so
/// the same RNG seed reproduces the same fault realization.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    segments: Vec<(f64, LinkFault)>,
    seg_idx: usize,
    in_bad: bool,
}

impl FaultInjector {
    /// Applies the fault active at `send_time` to `base` (the underlying
    /// link's fate: `Some(delay)` or dropped), appending the resulting
    /// delivery delays to `out` — zero (dropped), one, or two
    /// (duplicated).
    pub fn apply(
        &mut self,
        send_time: f64,
        base: Option<f64>,
        rng: &mut dyn RngCore,
        out: &mut Vec<f64>,
    ) {
        assert!(!send_time.is_nan(), "fault injection time must not be NaN");
        let idx = self
            .segments
            .partition_point(|&(s, _)| s <= send_time)
            .max(1)
            - 1;
        if idx != self.seg_idx {
            self.seg_idx = idx;
            self.in_bad = false; // burst state resets per segment
        }
        match self.segments[idx].1 {
            LinkFault::Nominal => out.extend(base),
            LinkFault::Partition => {}
            LinkFault::Loss { p } => {
                if base.is_some() && !(p > 0.0 && rng.random::<f64>() < p) {
                    out.extend(base);
                }
            }
            LinkFault::BurstLoss {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                // State transition first (per message slot).
                let flip: f64 = rng.random();
                if self.in_bad {
                    if flip < p_bg {
                        self.in_bad = false;
                    }
                } else if flip < p_gb {
                    self.in_bad = true;
                }
                let loss = if self.in_bad { loss_bad } else { loss_good };
                if base.is_some() && !(loss > 0.0 && rng.random::<f64>() < loss) {
                    out.extend(base);
                }
            }
            LinkFault::DelaySpike { extra, jitter } => {
                if let Some(d) = base {
                    let j = if jitter > 0.0 {
                        jitter * rng.random::<f64>()
                    } else {
                        0.0
                    };
                    out.push(d + extra + j);
                }
            }
            LinkFault::Duplicate { probability, lag } => {
                if let Some(d) = base {
                    out.push(d);
                    if rng.random::<f64>() < probability {
                        out.push(d + lag);
                    }
                }
            }
            LinkFault::Reorder { spread } => {
                if let Some(d) = base {
                    let j = if spread > 0.0 {
                        spread * rng.random::<f64>()
                    } else {
                        0.0
                    };
                    out.push(d + j);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn fates(inj: &mut FaultInjector, t: f64, base: Option<f64>, rng: &mut StdRng) -> Vec<f64> {
        let mut out = Vec::new();
        inj.apply(t, base, rng, &mut out);
        out
    }

    #[test]
    fn timeline_lookup_and_implicit_nominal() {
        let plan = FaultPlan::new(1)
            .link_fault(10.0, LinkFault::Partition)
            .link_fault(20.0, LinkFault::Nominal);
        assert_eq!(plan.link_fault_at(0.0), LinkFault::Nominal);
        assert_eq!(plan.link_fault_at(9.99), LinkFault::Nominal);
        assert_eq!(plan.link_fault_at(10.0), LinkFault::Partition);
        assert_eq!(plan.link_fault_at(19.99), LinkFault::Partition);
        assert_eq!(plan.link_fault_at(1e9), LinkFault::Nominal);
        assert_eq!(plan.seed(), 1);
        assert_eq!(plan.segments().len(), 3);
    }

    #[test]
    fn initial_segment_can_be_replaced() {
        let plan = FaultPlan::new(0).link_fault(0.0, LinkFault::Partition);
        assert_eq!(plan.link_fault_at(0.0), LinkFault::Partition);
        assert_eq!(plan.segments().len(), 1);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn rejects_non_increasing_segments() {
        FaultPlan::new(0)
            .link_fault(5.0, LinkFault::Partition)
            .link_fault(5.0, LinkFault::Nominal);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn rejects_bad_probability() {
        FaultPlan::new(0).link_fault(1.0, LinkFault::Loss { p: 1.5 });
    }

    #[test]
    fn crash_windows() {
        let plan = FaultPlan::new(0).crash(10.0).recover(20.0).crash(30.0);
        assert!(!plan.is_crashed_at(5.0));
        assert!(plan.is_crashed_at(10.0));
        assert!(plan.is_crashed_at(15.0));
        assert!(!plan.is_crashed_at(25.0));
        assert!(plan.is_crashed_at(35.0));
        assert_eq!(plan.events().len(), 3);
    }

    #[test]
    fn restart_storm_alternates_and_ends_recovered() {
        let plan = FaultPlan::new(0).restart_storm(10.0, 3, 2.0, 3.0);
        assert_eq!(plan.events().len(), 6);
        // Cycle k occupies [10 + 5k, 12 + 5k) down, then up until the next.
        for k in 0..3 {
            let base = 10.0 + 5.0 * k as f64;
            assert!(!plan.is_crashed_at(base - 0.5));
            assert!(plan.is_crashed_at(base));
            assert!(plan.is_crashed_at(base + 1.9));
            assert!(!plan.is_crashed_at(base + 2.0));
        }
        assert!(!plan.is_crashed_at(1e9), "storm must end recovered");
        assert!(matches!(plan.events().last(), Some(ProcessEvent::Recover { .. })));
    }

    #[test]
    fn restart_storm_composes_with_other_events() {
        // Storms append through the same ordering-checked path as
        // manual events; a later crash after the storm is fine.
        let plan = FaultPlan::new(0).restart_storm(1.0, 2, 0.5, 0.5).crash(10.0);
        assert_eq!(plan.events().len(), 5);
        assert!(plan.is_crashed_at(11.0));
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn restart_storm_rejects_zero_cycles() {
        FaultPlan::new(0).restart_storm(0.0, 0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "down time must be finite and positive")]
    fn restart_storm_rejects_zero_down_time() {
        FaultPlan::new(0).restart_storm(0.0, 1, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing order")]
    fn restart_storm_respects_prior_events() {
        FaultPlan::new(0).crash(50.0).recover(60.0).restart_storm(5.0, 1, 1.0, 1.0);
    }

    #[test]
    fn partition_drops_everything() {
        let plan = FaultPlan::new(0).link_fault(1.0, LinkFault::Partition);
        let mut inj = plan.injector();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(fates(&mut inj, 0.5, Some(0.1), &mut rng), vec![0.1]);
        assert!(fates(&mut inj, 1.5, Some(0.1), &mut rng).is_empty());
    }

    #[test]
    fn duplicate_always_produces_two_copies() {
        let plan = FaultPlan::new(0).link_fault(
            0.0,
            LinkFault::Duplicate {
                probability: 1.0,
                lag: 0.25,
            },
        );
        let mut inj = plan.injector();
        let mut rng = StdRng::seed_from_u64(2);
        let out = fates(&mut inj, 0.0, Some(0.1), &mut rng);
        assert_eq!(out, vec![0.1, 0.35]);
    }

    #[test]
    fn delay_spike_adds_extra() {
        let plan = FaultPlan::new(0).link_fault(
            0.0,
            LinkFault::DelaySpike {
                extra: 1.0,
                jitter: 0.0,
            },
        );
        let mut inj = plan.injector();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(fates(&mut inj, 0.0, Some(0.2), &mut rng), vec![1.2]);
    }

    #[test]
    fn loss_segment_composes_with_base_loss() {
        // Base already dropped it: stays dropped regardless of fault.
        let plan = FaultPlan::new(0).link_fault(0.0, LinkFault::Loss { p: 0.0 });
        let mut inj = plan.injector();
        let mut rng = StdRng::seed_from_u64(4);
        assert!(fates(&mut inj, 0.0, None, &mut rng).is_empty());
        // Full extra loss drops survivors too.
        let plan = FaultPlan::new(0).link_fault(0.0, LinkFault::Loss { p: 1.0 });
        let mut inj = plan.injector();
        assert!(fates(&mut inj, 0.0, Some(0.1), &mut rng).is_empty());
    }

    #[test]
    fn burst_loss_statistics_match_gilbert_elliott() {
        // Long-run average loss must match the two-state chain's
        // stationary formula.
        let (p_gb, p_bg, lg, lb) = (0.05, 0.25, 0.0, 0.8);
        let plan = FaultPlan::new(0).link_fault(
            0.0,
            LinkFault::BurstLoss {
                p_gb,
                p_bg,
                loss_good: lg,
                loss_bad: lb,
            },
        );
        let mut inj = plan.injector();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200_000;
        let mut lost = 0;
        for i in 0..n {
            if fates(&mut inj, i as f64, Some(0.01), &mut rng).is_empty() {
                lost += 1;
            }
        }
        let pb = p_gb / (p_gb + p_bg);
        let want = (1.0 - pb) * lg + pb * lb;
        let got = lost as f64 / n as f64;
        assert!((got - want).abs() < 0.01, "loss {got} vs theory {want}");
    }

    #[test]
    fn burst_loss_losses_are_bursty() {
        // Compare the run-length of consecutive losses against i.i.d. loss
        // with the same average: bursts make long loss runs far more
        // common.
        let (p_gb, p_bg, lg, lb) = (0.02, 0.2, 0.0, 0.9);
        let plan = FaultPlan::new(0).link_fault(
            0.0,
            LinkFault::BurstLoss {
                p_gb,
                p_bg,
                loss_good: lg,
                loss_bad: lb,
            },
        );
        let pb = p_gb / (p_gb + p_bg);
        let avg = (1.0 - pb) * lg + pb * lb;
        let mut inj = plan.injector();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let longest_run = |lost: &mut dyn FnMut(u64) -> bool| {
            let (mut longest, mut run) = (0, 0);
            for i in 0..n {
                run = if lost(i) { run + 1 } else { 0 };
                longest = longest.max(run);
            }
            longest
        };
        let burst =
            longest_run(&mut |i| fates(&mut inj, i as f64, Some(0.01), &mut rng).is_empty());
        let iid = longest_run(&mut |_| rng.random::<f64>() < avg);
        assert!(burst > 2 * iid, "burst max loss run {burst} vs i.i.d. {iid}");
    }

    #[test]
    fn burst_state_resets_between_segments() {
        // Segment 1: always-bad burst. Segment 2: a burst overlay that
        // never enters the bad state. If state leaked across segments,
        // messages after 10 s would still be lost.
        let plan = FaultPlan::new(0)
            .link_fault(
                0.0,
                LinkFault::BurstLoss {
                    p_gb: 1.0,
                    p_bg: 0.0,
                    loss_good: 0.0,
                    loss_bad: 1.0,
                },
            )
            .link_fault(
                10.0,
                LinkFault::BurstLoss {
                    p_gb: 0.0,
                    p_bg: 1.0,
                    loss_good: 0.0,
                    loss_bad: 1.0,
                },
            );
        let mut inj = plan.injector();
        let mut rng = StdRng::seed_from_u64(6);
        assert!(fates(&mut inj, 1.0, Some(0.1), &mut rng).is_empty());
        assert_eq!(fates(&mut inj, 11.0, Some(0.1), &mut rng), vec![0.1]);
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let plan = FaultPlan::new(9)
            .link_fault(0.0, LinkFault::Loss { p: 0.3 })
            .link_fault(50.0, LinkFault::Reorder { spread: 0.5 });
        let run = |seed: u64| {
            let mut inj = plan.injector();
            let mut rng = StdRng::seed_from_u64(seed);
            (0..200)
                .map(|i| fates(&mut inj, i as f64, Some(0.05), &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_out_of_order_events() {
        FaultPlan::new(0).crash(10.0).recover(5.0);
    }

    #[test]
    fn boundary_time_selects_the_new_segment() {
        // Pinned semantics: closed-open [start, next) windows — the
        // fault at `start` is already the new one, and the instant just
        // before (next representable f64 down) is still the old one.
        let plan = FaultPlan::new(0)
            .link_fault(10.0, LinkFault::Partition)
            .link_fault(20.0, LinkFault::Nominal);
        assert_eq!(plan.link_fault_at(10.0), LinkFault::Partition);
        assert_eq!(plan.link_fault_at(f64::from_bits(10.0f64.to_bits() - 1)), LinkFault::Nominal);
        assert_eq!(plan.link_fault_at(20.0), LinkFault::Nominal);
        assert_eq!(plan.link_fault_at(f64::from_bits(20.0f64.to_bits() - 1)), LinkFault::Partition);
        // Times before time zero (no transport produces them, but the
        // lookup is total) fall into the implicit initial segment.
        assert_eq!(plan.link_fault_at(-5.0), LinkFault::Nominal);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn link_fault_at_rejects_nan() {
        FaultPlan::new(0).link_fault_at(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn is_crashed_at_rejects_nan() {
        FaultPlan::new(0).crash(1.0).is_crashed_at(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn injector_rejects_nan_send_time() {
        let plan = FaultPlan::new(0);
        let mut inj = plan.injector();
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = Vec::new();
        inj.apply(f64::NAN, Some(0.1), &mut rng, &mut out);
    }

    #[test]
    fn crash_boundary_and_same_instant_pairs() {
        // Pinned semantics: an event at exactly `t` has taken effect at
        // `t`; same-instant events apply in insertion order.
        let plan = FaultPlan::new(0).crash(10.0).recover(10.0);
        assert!(!plan.is_crashed_at(10.0), "crash+recover at one instant ⇒ up");
        let plan = FaultPlan::new(0).crash(10.0).recover(20.0);
        assert!(plan.is_crashed_at(10.0), "down at exactly the crash instant");
        assert!(!plan.is_crashed_at(20.0), "up at exactly the recovery instant");
    }

    #[test]
    fn final_crash_ignores_recovered_lives() {
        assert_eq!(FaultPlan::new(0).final_crash(), None);
        assert_eq!(FaultPlan::new(0).crash(5.0).final_crash(), Some(5.0));
        assert_eq!(FaultPlan::new(0).crash(5.0).recover(8.0).final_crash(), None);
        // A storm followed by a permanent crash: the permanent one wins.
        let plan = FaultPlan::new(0).restart_storm(1.0, 2, 0.5, 0.5).crash(30.0);
        assert_eq!(plan.final_crash(), Some(30.0));
        // Consecutive crashes without recovery: the *first* of the final
        // down window starts the permanent outage.
        let plan = FaultPlan::new(0).crash(3.0).crash(4.0);
        assert_eq!(plan.final_crash(), Some(3.0));
    }

    #[test]
    fn clock_skew_accumulates_forward_jumps() {
        let plan = FaultPlan::new(0)
            .clock_jump(10.0, 0.5)
            .crash(15.0)
            .recover(16.0)
            .clock_jump(20.0, 1.5);
        assert_eq!(plan.clock_skew_at(0.0), 0.0);
        assert_eq!(plan.clock_skew_at(10.0), 0.5, "jump applies at its own instant");
        assert_eq!(plan.clock_skew_at(19.99), 0.5);
        assert_eq!(plan.clock_skew_at(20.0), 2.0);
        assert_eq!(plan.clock_skew_at(1e9), 2.0);
    }

    #[test]
    fn last_event_time_covers_segments_and_events() {
        assert_eq!(FaultPlan::new(0).last_event_time(), 0.0);
        let plan = FaultPlan::new(0).link_fault(12.0, LinkFault::Partition).crash(9.0);
        assert_eq!(plan.last_event_time(), 12.0);
        let plan = FaultPlan::new(0).link_fault(12.0, LinkFault::Partition).crash(40.0);
        assert_eq!(plan.last_event_time(), 40.0);
    }
}
