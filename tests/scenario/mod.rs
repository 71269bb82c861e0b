//! The scenario driver the façade tests share: peers heartbeat over
//! seeded links into one [`ClusterMonitor::manual`], in scenario time.
//!
//! Peer `p`'s `i`-th send leaves at `σᵢ = i·η`. Its fate is drawn from
//! the peer's [`Link`] and passed through its plan's
//! [`FaultInjector::apply`], so a delivery arrives at `σᵢ + delay`. While
//! the plan has the peer crashed ([`FaultPlan::is_crashed_at`]) it sends
//! nothing; each recovery starts a new incarnation whose sequence
//! numbers restart at 1. The monitor sweeps every `tick`. Time moves
//! only through [`record_at_incarnated`](ClusterMonitor::record_at_incarnated)
//! and [`advance_to`](ClusterMonitor::advance_to), and a jump in the
//! scenario's `clock` plan adds its offset to every time handed to
//! them. Nothing reads the wall clock, so a run is a function of the
//! scenario: [`replay`] runs it twice and checks that.

// Each test binary uses its own part of the driver.
#![allow(dead_code)]

use chen_fd_qos::prelude::*;
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
    /// The peers, all registered at time 0.
    pub peers: Vec<Peer>,
}

impl Scenario {
    /// `peers` over `[0, horizon]`, a 1 ms tick and a clock that never
    /// jumps.
    pub fn new(horizon: f64, peers: Vec<Peer>) -> Self {
        Self { tick: 0.001, horizon, clock: FaultPlan::new(0), peers }
    }

    /// The detection bound for `peer` when nothing it sends from
    /// `silent` on reaches the monitor: its last freshness point is at
    /// most `silent + η + α + w`, where `w` is the largest delay in its
    /// estimation window (Eq. 6.3 averages the window), and the next
    /// sweep lands within a tick.
    pub fn detection_bound(&self, peer: &Peer, silent: f64, window_max: f64) -> f64 {
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

/// Every heartbeat `peer` gets through to the monitor by `horizon`.
fn deliveries(peer: &Peer, horizon: f64) -> Vec<Delivery> {
    let mut rng = StdRng::seed_from_u64(peer.seed);
    let mut injector = peer.plan.injector();
    let (mut out, mut fates) = (Vec::new(), Vec::new());
    let (mut incarnation, mut seq) = (0, 0);
    for i in 1.. {
        let sent = i as f64 * peer.cfg.eta;
        if sent > horizon {
            break;
        }
        if peer.plan.is_crashed_at(sent) {
            continue;
        }
        let lives = peer.plan.events().iter().filter(|e| {
            matches!(e, ProcessEvent::Recover { at } if *at <= sent)
        });
        let life = lives.count() as u64;
        if life != incarnation {
            (incarnation, seq) = (life, 0);
        }
        seq += 1;
        fates.clear();
        injector.apply(sent, peer.link.sample_fate(&mut rng), &mut rng, &mut fates);
        for delay in &fates {
            let at = sent + delay;
            if at <= horizon {
                out.push(Delivery { sent, at, incarnation, seq, fresh: false });
            }
        }
    }
    out
}

/// Runs `scenario` once.
pub fn run(scenario: &Scenario) -> Outcome {
    let monitor =
        ClusterMonitor::manual(ClusterConfig { tick: scenario.tick, ..ClusterConfig::default() });
    let events = monitor.subscribe();
    let mut windows = BTreeMap::new();
    let mut arrivals = Vec::new();
    let mut out = Outcome {
        transitions: BTreeMap::new(),
        deliveries: BTreeMap::new(),
        monitor: monitor.clone(),
    };
    for peer in &scenario.peers {
        monitor.add_peer(peer.id, peer.cfg).expect("distinct peers, valid parameters");
        windows.insert(peer.id, Window::new(peer.cfg.window));
        out.transitions.insert(peer.id, Vec::new());
        out.deliveries.insert(peer.id, Vec::new());
        arrivals.extend(deliveries(peer, scenario.horizon).into_iter().map(|d| (peer.id, d)));
    }
    arrivals.sort_by(|(p, a), (q, b)| a.at.total_cmp(&b.at).then(p.cmp(q)));

    let monitor_time = |t: f64| t + scenario.clock.clock_skew_at(t);
    let publish = |out: &mut Outcome, windows: &BTreeMap<PeerId, Window>| {
        while let Ok(ev) = events.try_recv() {
            if matches!(ev.change, MembershipChange::Suspected | MembershipChange::Trusted) {
                let window_max = windows[&ev.peer].max();
                let transition = Transition { at: ev.at, change: ev.change, window_max };
                out.transitions.get_mut(&ev.peer).expect("registered").push(transition);
            }
        }
    };
    let mut sweep = 1u64;
    let mut sweep_until = |t: f64, out: &mut Outcome, windows: &BTreeMap<PeerId, Window>| {
        while sweep as f64 * scenario.tick <= t {
            monitor.advance_to(monitor_time(sweep as f64 * scenario.tick));
            publish(out, windows);
            sweep += 1;
        }
    };
    for (peer, mut d) in arrivals {
        sweep_until(d.at, &mut out, &windows);
        d.fresh = windows.get_mut(&peer).expect("registered").observe(&d);
        let hb = Heartbeat::new(d.seq, d.sent);
        monitor.record_at_incarnated(peer, monitor_time(d.at), d.incarnation, hb);
        out.deliveries.get_mut(&peer).expect("registered").push(d);
        publish(&mut out, &windows);
    }
    sweep_until(scenario.horizon, &mut out, &windows);
    out
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
/// window lands by [`Scenario::detection_bound`], and no trust outlives
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
