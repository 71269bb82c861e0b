//! The scenario driver: peers heartbeat over seeded links into one
//! [`ClusterMonitor::manual`], in scenario time — the paper's setting
//! (§3) run end to end through the cluster monitor.
//!
//! Peer `p`'s `i`-th send leaves at `σᵢ = i·η`. Its fate is drawn from
//! the peer's [`Link`] on the peer's own seeded RNG, in send order, and
//! passed through its plan's [`FaultInjector::apply`], so a delivery
//! arrives at `σᵢ + delay`. While the plan has the peer crashed
//! ([`FaultPlan::is_crashed_at`]) it sends nothing; each recovery starts
//! a new incarnation whose sequence numbers restart at 1. The monitor
//! sweeps every `tick`, and a sweep due at a delivery's arrival time runs
//! before the delivery. Each delivery reaches the monitor as bytes, the
//! way the receive pump's do: encoded as a one-entry wire heartbeat frame
//! and taken in by [`ingest_frames`], so the decoder and its frame check
//! are on every simulated heartbeat's path. Time moves only through
//! [`ingest_frames`] and [`advance_to`](ClusterMonitor::advance_to), and
//! a jump in the scenario's `clock` plan adds its offset to every time
//! handed to them.
//! Nothing reads the wall clock, so a run is a function of the scenario:
//! [`replay`] runs it twice and checks that.
//!
//! [`run`] drives a whole scenario. A [`Drive`] steps one:
//! [`run_until`](Drive::run_until) draws only the sends due by then, so
//! a caller can act on the monitor between steps — read election
//! candidates, run a control round, remove a peer — and append faults
//! that depend on what it saw to a peer's plan
//! ([`crash`](Drive::crash), [`recover`](Drive::recover),
//! [`link_fault`](Drive::link_fault)). A stepped run publishes what one
//! [`run`] of the amended scenario would.

use fd_cluster::wire::encode_batch;
use fd_cluster::{
    ingest_frames, ClusterConfig, ClusterMonitor, ControlConfig, EventLog, HeartbeatEntry,
    MembershipChange, MembershipEvent, PeerConfig, PeerId,
};
use fd_metrics::FdOutput;
use fd_sim::{FaultInjector, FaultPlan, Link, LinkFault, ProcessEvent};
use fd_stats::dist::Exponential;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};

/// One monitored peer.
pub struct Peer {
    /// Its id at the monitor.
    pub id: PeerId,
    /// Its detector parameters `(η, α, n)`; `η` is also its send period.
    pub cfg: PeerConfig,
    /// The link law `(p_L, D)` its heartbeats cross.
    pub link: Link,
    /// Its link faults, crashes and recoveries.
    pub plan: FaultPlan,
    /// Seeds the link's and the plan's draws.
    pub seed: u64,
}

impl Peer {
    /// Peer `id` heartbeating every `cfg.eta` over a link that loses a
    /// share `loss` of its messages and delays the rest exponentially
    /// with mean `mean_delay`; no faults.
    pub fn new(id: PeerId, cfg: PeerConfig, loss: f64, mean_delay: f64, seed: u64) -> Self {
        let delay = Exponential::with_mean(mean_delay).expect("positive mean delay");
        let link = Link::new(loss, Box::new(delay)).expect("loss is a probability");
        Self::with_link(id, cfg, link, seed)
    }

    /// Peer `id` heartbeating every `cfg.eta` over `link`; no faults.
    pub fn with_link(id: PeerId, cfg: PeerConfig, link: Link, seed: u64) -> Self {
        Self { id, cfg, link, plan: FaultPlan::new(0), seed }
    }

    /// Overlays `plan` on the peer.
    pub fn plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }
}

/// Peers, a monitor clock and a horizon.
pub struct Scenario {
    /// The monitor's sweep period and wheel resolution, seconds.
    pub tick: f64,
    /// The run covers scenario time `[0, horizon]`.
    pub horizon: f64,
    /// Jumps of the monitor's clock (only its `ClockJump` events count).
    pub clock: FaultPlan,
    /// The monitor's adaptive control plane.
    pub control: ControlConfig,
    /// The peers, all registered at time 0.
    pub peers: Vec<Peer>,
}

impl Scenario {
    /// `peers` over `[0, horizon]`, a 1 ms tick, a clock that never
    /// jumps and the default control plane.
    pub fn new(horizon: f64, peers: Vec<Peer>) -> Self {
        let (clock, control) = (FaultPlan::new(0), ControlConfig::default());
        Self { tick: 0.001, horizon, clock, control, peers }
    }

    /// The detection bound for `peer` when nothing it sends from
    /// `silent` on reaches the monitor: its last freshness point is at
    /// most `silent + η + α + w`, where `w` is the largest delay in its
    /// estimation window (Eq. 6.3 averages the window), and the next
    /// sweep lands within a tick.
    fn detection_bound(&self, peer: &Peer, silent: f64, window_max: f64) -> f64 {
        silent + peer.cfg.eta + peer.cfg.alpha + window_max + self.tick
    }
}

/// One heartbeat the monitor received.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// Scenario time it was sent.
    pub sent: f64,
    /// Scenario time it arrived.
    pub at: f64,
    /// Its sender's incarnation.
    pub incarnation: u64,
    /// Its sequence number within that incarnation.
    pub seq: u64,
    /// Whether it entered the estimation window (a sequence number
    /// above every earlier one of its incarnation).
    pub fresh: bool,
}

/// One S- or T-transition the monitor published.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Monitor time of the transition.
    pub at: f64,
    /// `Suspected` or `Trusted`.
    pub change: MembershipChange,
    /// The largest delay in the peer's estimation window when the
    /// transition was published.
    pub window_max: f64,
}

/// What one run produced.
pub struct Outcome {
    /// Each peer's transitions, in order.
    pub transitions: BTreeMap<PeerId, Vec<Transition>>,
    /// Each peer's deliveries, in the order the monitor received them.
    pub deliveries: BTreeMap<PeerId, Vec<Delivery>>,
    /// Everything the monitor published, in order.
    pub log: EventLog,
    /// The monitor, at the horizon.
    pub monitor: ClusterMonitor,
}

impl Outcome {
    /// `peer`'s transitions with `from ≤ at < to`.
    pub fn between(&self, peer: PeerId, from: f64, to: f64) -> Vec<Transition> {
        self.transitions[&peer].iter().filter(|t| from <= t.at && t.at < to).copied().collect()
    }

    /// `peer`'s output once every transition at or before `at` is in.
    pub fn output_at(&self, peer: PeerId, at: f64) -> FdOutput {
        match self.transitions[&peer].iter().rev().find(|t| t.at <= at) {
            Some(t) if t.change == MembershipChange::Trusted => FdOutput::Trust,
            _ => FdOutput::Suspect,
        }
    }

    /// The first delivery from `peer` sent at or after `sent`.
    pub fn first_sent_from(&self, peer: PeerId, sent: f64) -> Delivery {
        *self.deliveries[&peer].iter().find(|d| d.sent >= sent).expect("a delivery after `sent`")
    }
}

/// The monitor's estimation window for one peer, mirrored from the
/// deliveries: the delays of the last `n` fresh heartbeats of the
/// current incarnation.
struct Window {
    n: usize,
    incarnation: u64,
    max_seq: u64,
    delays: VecDeque<f64>,
}

impl Window {
    fn new(n: usize) -> Self {
        Self { n, incarnation: 0, max_seq: 0, delays: VecDeque::with_capacity(n) }
    }

    /// Takes `d` in as the monitor will; returns whether it is fresh.
    fn observe(&mut self, d: &Delivery) -> bool {
        if d.incarnation > self.incarnation {
            (self.incarnation, self.max_seq) = (d.incarnation, 0);
            self.delays.clear();
        }
        if d.incarnation < self.incarnation || d.seq <= self.max_seq {
            return false;
        }
        self.max_seq = d.seq;
        if self.delays.len() == self.n {
            self.delays.pop_front();
        }
        self.delays.push_back(d.at - d.sent);
        true
    }

    fn max(&self) -> f64 {
        self.delays.iter().fold(0.0, |m, &d| m.max(d))
    }
}

/// Deliveries drawn but not yet handed to the monitor, in the order it
/// takes them: by arrival time (its bits, which order as the time does,
/// since no time is negative), then peer, then draw.
type Pending = BTreeMap<(u64, PeerId, u64), Delivery>;

/// One peer's sending side.
struct Sender<'a> {
    peer: &'a Peer,
    /// The peer's plan, with every fault appended mid-run.
    plan: FaultPlan,
    injector: FaultInjector,
    rng: StdRng,
    /// The next send leaves at `next·η`.
    next: u64,
    incarnation: u64,
    seq: u64,
    last_sent: Option<f64>,
    /// Deliveries drawn so far.
    drawn: u64,
    window: Window,
}

impl<'a> Sender<'a> {
    fn new(peer: &'a Peer) -> Self {
        Self {
            peer,
            plan: peer.plan.clone(),
            injector: peer.plan.injector(),
            rng: StdRng::seed_from_u64(peer.seed),
            next: 1,
            incarnation: 0,
            seq: 0,
            last_sent: None,
            drawn: 0,
            window: Window::new(peer.cfg.window),
        }
    }

    /// Draws every send due by `t` and queues its deliveries.
    fn send_until(&mut self, t: f64, pending: &mut Pending) {
        let mut fates = Vec::new();
        loop {
            let sent = self.next as f64 * self.peer.cfg.eta;
            if sent > t {
                return;
            }
            self.next += 1;
            if self.plan.is_crashed_at(sent) {
                continue;
            }
            let lives = self.plan.events().iter().filter(|e| {
                matches!(e, ProcessEvent::Recover { at } if *at <= sent)
            });
            let life = lives.count() as u64;
            if life != self.incarnation {
                (self.incarnation, self.seq) = (life, 0);
            }
            self.seq += 1;
            self.last_sent = Some(sent);
            fates.clear();
            let fate = self.peer.link.sample_fate(&mut self.rng);
            self.injector.apply(sent, fate, &mut self.rng, &mut fates);
            for delay in &fates {
                let (at, incarnation, seq) = (sent + delay, self.incarnation, self.seq);
                let delivery = Delivery { sent, at, incarnation, seq, fresh: false };
                pending.insert((at.to_bits(), self.peer.id, self.drawn), delivery);
                self.drawn += 1;
            }
        }
    }
}

/// One scenario being driven, stepped by [`run_until`](Self::run_until).
pub struct Drive<'a> {
    scenario: &'a Scenario,
    events: Box<dyn FnMut() -> Option<MembershipEvent>>,
    senders: BTreeMap<PeerId, Sender<'a>>,
    pending: Pending,
    /// The next sweep runs at `sweep·tick`.
    sweep: u64,
    now: f64,
    out: Outcome,
}

impl<'a> Drive<'a> {
    /// A fresh monitor with `scenario`'s peers registered at time 0.
    pub fn new(scenario: &'a Scenario) -> Self {
        let (tick, control) = (scenario.tick, scenario.control);
        let monitor = ClusterMonitor::manual(ClusterConfig { tick, control, ..Default::default() });
        let events = monitor.subscribe();
        for peer in &scenario.peers {
            monitor.add_peer(peer.id, peer.cfg).expect("distinct peers, valid parameters");
        }
        let out = Outcome {
            transitions: scenario.peers.iter().map(|p| (p.id, Vec::new())).collect(),
            deliveries: scenario.peers.iter().map(|p| (p.id, Vec::new())).collect(),
            log: EventLog::new(),
            monitor,
        };
        let mut drive = Self {
            scenario,
            events: Box::new(move || events.try_recv().ok()),
            senders: scenario.peers.iter().map(|p| (p.id, Sender::new(p))).collect(),
            pending: Pending::new(),
            sweep: 1,
            now: 0.0,
            out,
        };
        drive.publish();
        drive
    }

    /// The monitor being driven.
    pub fn monitor(&self) -> &ClusterMonitor {
        &self.out.monitor
    }

    /// The scenario time the run has reached.
    pub fn now(&self) -> f64 {
        self.now
    }

    fn sender_mut(&mut self, peer: PeerId) -> &mut Sender<'a> {
        self.senders.get_mut(&peer).expect("a scenario peer")
    }

    /// The incarnation of `peer`'s latest send.
    pub fn incarnation(&self, peer: PeerId) -> u64 {
        self.senders[&peer].incarnation
    }

    /// When `peer`'s latest send left; `None` before its first.
    pub fn last_sent(&self, peer: PeerId) -> Option<f64> {
        self.senders[&peer].last_sent
    }

    /// Whether `peer`'s plan has it crashed now.
    pub fn is_crashed(&self, peer: PeerId) -> bool {
        self.senders[&peer].plan.is_crashed_at(self.now)
    }

    /// Runs the scenario up to `t` (at most its horizon): draws every
    /// send due by `t`, then hands the monitor every sweep and delivery
    /// due by `t`.
    pub fn run_until(&mut self, t: f64) {
        let t = t.min(self.scenario.horizon);
        for sender in self.senders.values_mut() {
            sender.send_until(t, &mut self.pending);
        }
        while self.pending.first_key_value().is_some_and(|(_, d)| d.at <= t) {
            let ((_, peer, _), delivery) = self.pending.pop_first().expect("a first delivery");
            self.sweep_until(delivery.at);
            self.deliver(peer, delivery);
        }
        self.sweep_until(t);
        self.now = self.now.max(t);
    }

    /// Runs the scenario to its horizon and returns what it published.
    pub fn finish(mut self) -> Outcome {
        self.run_until(self.scenario.horizon);
        self.out
    }

    /// Appends a crash of `peer` at `at` to its plan.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the driver's time (the sends due by then
    /// have left) or before the plan's last process event.
    pub fn crash(&mut self, peer: PeerId, at: f64) {
        self.amend(peer, at, |plan| plan.crash(at));
    }

    /// Appends a recovery of `peer` at `at` to its plan: its sends from
    /// `at` on are a new incarnation.
    ///
    /// # Panics
    ///
    /// As [`crash`](Self::crash).
    pub fn recover(&mut self, peer: PeerId, at: f64) {
        self.amend(peer, at, |plan| plan.recover(at));
    }

    /// Appends a link-fault segment starting at `start` to `peer`'s
    /// plan. A Gilbert–Elliott burst in force restarts in its good state.
    ///
    /// # Panics
    ///
    /// Panics if `start` is before the driver's time, or as
    /// [`FaultPlan::link_fault`] does.
    pub fn link_fault(&mut self, peer: PeerId, start: f64, fault: LinkFault) {
        self.amend(peer, start, |plan| plan.link_fault(start, fault));
        let sender = self.sender_mut(peer);
        sender.injector = sender.plan.injector();
    }

    fn amend(&mut self, peer: PeerId, at: f64, amend: impl FnOnce(FaultPlan) -> FaultPlan) {
        assert!(at >= self.now, "a fault at {at} is before the driver's time {}", self.now);
        let sender = self.sender_mut(peer);
        sender.plan = amend(std::mem::replace(&mut sender.plan, FaultPlan::new(0)));
    }

    /// Scenario time `t` on the monitor's clock.
    fn monitor_time(&self, t: f64) -> f64 {
        t + self.scenario.clock.clock_skew_at(t)
    }

    /// Runs every sweep due by `t`.
    fn sweep_until(&mut self, t: f64) {
        while self.sweep as f64 * self.scenario.tick <= t {
            self.out.monitor.advance_to(self.monitor_time(self.sweep as f64 * self.scenario.tick));
            self.publish();
            self.sweep += 1;
        }
    }

    fn deliver(&mut self, peer: PeerId, mut d: Delivery) {
        d.fresh = self.sender_mut(peer).window.observe(&d);
        // One frame per delivery: each is taken in, and what it publishes
        // collected, before the next arrives.
        let (incarnation, seq, send_time) = (d.incarnation, d.seq, d.sent);
        let frame = encode_batch(&[HeartbeatEntry { peer, incarnation, seq, send_time }]);
        let now = self.monitor_time(d.at);
        ingest_frames(&self.out.monitor, now, [&frame[..]], &mut Vec::new(), |n| n);
        self.out.deliveries.get_mut(&peer).expect("registered").push(d);
        self.publish();
    }

    /// Takes in what the monitor published since the last call.
    fn publish(&mut self) {
        while let Some(ev) = (self.events)() {
            if matches!(ev.change, MembershipChange::Suspected | MembershipChange::Trusted) {
                let window_max = self.senders[&ev.peer].window.max();
                let transition = Transition { at: ev.at, change: ev.change, window_max };
                self.out.transitions.get_mut(&ev.peer).expect("registered").push(transition);
            }
            self.out.log.push(ev);
        }
    }
}

/// Runs `scenario` once.
pub fn run(scenario: &Scenario) -> Outcome {
    Drive::new(scenario).finish()
}

/// Runs `scenario` twice, asserts that both runs publish the same
/// per-peer event streams, times included, and returns the first.
pub fn replay(scenario: &Scenario) -> Outcome {
    let (first, second) = (run(scenario), run(scenario));
    assert_eq!(first.transitions, second.transitions, "a replay published different events");
    first
}

/// Asserts the detection bound for a peer none of whose heartbeats sent
/// in `[silent, until)` reach the monitor: every suspicion in that
/// window lands by the scenario's detection bound, and no trust outlives
/// it — the peer is suspected from its last transition in the window
/// (or, with none, from before `silent`) up to `until`.
pub fn assert_detected(scenario: &Scenario, out: &Outcome, peer: &Peer, silent: f64, until: f64) {
    let window = out.between(peer.id, silent, until);
    for t in window.iter().filter(|t| t.change == MembershipChange::Suspected) {
        let bound = scenario.detection_bound(peer, silent, t.window_max);
        assert!(t.at <= bound, "peer {}: suspected at {} > bound {bound}", peer.id, t.at);
    }
    let last = window.last().map_or(silent, |t| t.at);
    assert!(
        out.output_at(peer.id, last).is_suspect(),
        "peer {}: still trusted at {until}, silent since {silent}",
        peer.id
    );
}
