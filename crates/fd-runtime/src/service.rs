//! A multi-process failure-detection service.
//!
//! The paper reports (§8.1) that its adaptive algorithms "form the core of
//! a failure detection service that is currently being implemented and
//! evaluated \[15\] … intended to be shared among many different concurrent
//! applications, each with a different set of QoS requirements". This
//! module is that façade in miniature: one heartbeater + lossy link +
//! supervised monitor per watched process, QoS-driven parameter selection,
//! and a queryable suspicion list (the shape group-membership and
//! cluster-management layers consume, §1).
//!
//! Each watch can carry a scripted [`FaultPlan`]: link faults run inside
//! the transport, while process-level events (crash, recovery, clock
//! jump) are driven by a per-watch fault-driver thread against the
//! heartbeater and the monitor's own [`JumpableClock`]. Watch machinery
//! is supervised — a panicking detector degrades only its own watch,
//! queryable via [`Service::health`].

use crate::heartbeater::Heartbeater;
use crate::monitor::{DetectorFactory, Monitor};
use crate::transport::{LinkSpec, LossyChannel, DEFAULT_CHANNEL_CAPACITY};
use crate::{Clock, Health, JumpableClock, SkewedClock, TrustView, WallClock};
use crossbeam::channel;
use fd_core::config::{configure_nfd_u, NfdUParams};
use fd_core::detectors::NfdE;
use fd_metrics::{FdOutput, ObservedQos, QosRequirements, TransitionTrace};
use fd_sim::{FaultPlan, ProcessEvent};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// How the detector parameters of a watched process are chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ParamChoice {
    /// Explicit `(η, α)`.
    Explicit(NfdUParams),
    /// Derived from QoS requirements via the §6.2 configurator, given
    /// expected `p_L` and `V(D)`.
    FromQos {
        requirements: QosRequirements,
        loss_probability: f64,
        delay_variance: f64,
    },
}

/// Specification of one process to watch.
pub struct ProcessSpec {
    name: String,
    link: Option<LinkSpec>,
    params: Option<ParamChoice>,
    sender_clock_skew: f64,
    nfd_e_window: usize,
    seed: u64,
    fault_plan: Option<FaultPlan>,
    detector_factory: Option<DetectorFactory>,
    channel_capacity: usize,
    max_restarts: u32,
}

impl fmt::Debug for ProcessSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcessSpec")
            .field("name", &self.name)
            .field("params", &self.params)
            .field("sender_clock_skew", &self.sender_clock_skew)
            .field("has_fault_plan", &self.fault_plan.is_some())
            .field("max_restarts", &self.max_restarts)
            .finish()
    }
}

impl ProcessSpec {
    /// Starts a spec for the process called `name`.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            link: None,
            params: None,
            sender_clock_skew: 0.0,
            nfd_e_window: 32,
            seed: 0,
            fault_plan: None,
            detector_factory: None,
            channel_capacity: DEFAULT_CHANNEL_CAPACITY,
            max_restarts: 3,
        }
    }

    /// Sets the link law the heartbeats traverse.
    pub fn link(mut self, link: LinkSpec) -> Self {
        self.link = Some(link);
        self
    }

    /// Uses explicit NFD-E parameters.
    pub fn heartbeat_params(mut self, params: NfdUParams) -> Self {
        self.params = Some(ParamChoice::Explicit(params));
        self
    }

    /// Derives parameters from QoS requirements (§6.2 configurator) given
    /// the expected loss probability and delay variance.
    pub fn qos(
        mut self,
        requirements: QosRequirements,
        loss_probability: f64,
        delay_variance: f64,
    ) -> Self {
        self.params = Some(ParamChoice::FromQos {
            requirements,
            loss_probability,
            delay_variance,
        });
        self
    }

    /// Gives the monitored process's clock a constant skew relative to
    /// the monitor (§6 unsynchronized clocks). Default 0.
    pub fn sender_clock_skew(mut self, skew: f64) -> Self {
        self.sender_clock_skew = skew;
        self
    }

    /// NFD-E estimation window (default 32, per §7.1).
    pub fn estimation_window(mut self, n: usize) -> Self {
        self.nfd_e_window = n;
        self
    }

    /// Seed for the link's loss/delay randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overlays a scripted fault timeline on this watch. Link faults run
    /// inside the transport; crash/recover events drive the heartbeater;
    /// clock jumps advance the *monitor's* clock. Time 0 of the plan is
    /// the moment [`Service::watch`] returns.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Replaces the default NFD-E detector with instances built by
    /// `factory` (also used to rebuild after a supervised panic).
    pub fn detector_factory(mut self, factory: DetectorFactory) -> Self {
        self.detector_factory = Some(factory);
        self
    }

    /// Capacity of the heartbeat channel between transport and monitor
    /// (default [`DEFAULT_CHANNEL_CAPACITY`]; overflow drops are counted
    /// by the transport, and to a failure detector they are just more
    /// message loss).
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.channel_capacity = capacity;
        self
    }

    /// How many times a panicked detector is rebuilt before the watch
    /// stops (default 3).
    pub fn max_restarts(mut self, max_restarts: u32) -> Self {
        self.max_restarts = max_restarts;
        self
    }
}

/// Error starting a watch.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// A process with this name is already watched.
    DuplicateName(String),
    /// The spec lacked a link law.
    MissingLink(String),
    /// The spec lacked parameters (explicit or QoS-derived).
    MissingParams(String),
    /// The §6.2 configurator reported the QoS unachievable.
    QosUnachievable(String),
    /// The configurator failed on the supplied inputs.
    ConfigFailed(String),
    /// The runtime failed to start watch machinery (thread spawn, …);
    /// the message carries the underlying [`RuntimeError`]'s rendering.
    ///
    /// [`RuntimeError`]: crate::RuntimeError
    Runtime(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::DuplicateName(n) => write!(f, "process `{n}` is already watched"),
            ServiceError::MissingLink(n) => write!(f, "process `{n}` has no link specification"),
            ServiceError::MissingParams(n) => {
                write!(f, "process `{n}` has neither explicit parameters nor QoS")
            }
            ServiceError::QosUnachievable(n) => {
                write!(f, "no failure detector can achieve the QoS requested for `{n}`")
            }
            ServiceError::ConfigFailed(n) => {
                write!(f, "configuration failed for `{n}`")
            }
            ServiceError::Runtime(msg) => write!(f, "runtime failure: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Thread applying a plan's process-level events to a running watch.
struct FaultDriver {
    stop_tx: channel::Sender<()>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl FaultDriver {
    fn stop(&mut self) {
        let _ = self.stop_tx.try_send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

struct Watch {
    heartbeater: Arc<Heartbeater>,
    monitor: Option<Monitor>,
    params: NfdUParams,
    driver: Option<FaultDriver>,
}

/// The failure-detection service: watches any number of (simulated-link)
/// processes and answers "whom do you suspect?".
#[derive(Default)]
pub struct Service {
    clock: Option<WallClock>,
    watches: HashMap<String, Watch>,
}

impl Service {
    /// Creates an empty service.
    pub fn new() -> Self {
        Self {
            clock: Some(WallClock::new()),
            watches: HashMap::new(),
        }
    }

    fn clock(&self) -> WallClock {
        self.clock.clone().expect("service clock present")
    }

    /// Starts watching a process per `spec`.
    ///
    /// # Errors
    ///
    /// Returns a [`ServiceError`] when the spec is incomplete, the name
    /// collides, the requested QoS is unachievable, or the runtime fails
    /// to start the watch machinery.
    pub fn watch(&mut self, spec: ProcessSpec) -> Result<NfdUParams, ServiceError> {
        if self.watches.contains_key(&spec.name) {
            return Err(ServiceError::DuplicateName(spec.name));
        }
        let link = spec
            .link
            .ok_or_else(|| ServiceError::MissingLink(spec.name.clone()))?;
        let params = match spec
            .params
            .ok_or_else(|| ServiceError::MissingParams(spec.name.clone()))?
        {
            ParamChoice::Explicit(p) => p,
            ParamChoice::FromQos {
                requirements,
                loss_probability,
                delay_variance,
            } => configure_nfd_u(&requirements, loss_probability, delay_variance)
                .map_err(|_| ServiceError::ConfigFailed(spec.name.clone()))?
                .ok_or_else(|| ServiceError::QosUnachievable(spec.name.clone()))?,
        };
        let runtime_err = |e: crate::RuntimeError| ServiceError::Runtime(e.to_string());

        let clock = self.clock();
        let (tx, rx, _worker) = match &spec.fault_plan {
            Some(plan) => LossyChannel::create_with_plan(link, spec.seed, plan, spec.channel_capacity)
                .map_err(runtime_err)?,
            None => LossyChannel::create_with_capacity(link, spec.seed, spec.channel_capacity)
                .map_err(runtime_err)?,
        };
        let sender_clock = SkewedClock::new(clock.clone(), spec.sender_clock_skew);
        let heartbeater =
            Arc::new(Heartbeater::spawn(params.eta, tx, sender_clock).map_err(runtime_err)?);

        let factory: DetectorFactory = match spec.detector_factory {
            Some(f) => f,
            None => {
                let (eta, alpha, window) = (params.eta, params.alpha, spec.nfd_e_window);
                Box::new(move || {
                    Box::new(NfdE::new(eta, alpha, window).expect("validated parameters"))
                })
            }
        };
        let monitor_clock = JumpableClock::new(clock.clone());
        let monitor =
            Monitor::spawn_supervised(factory, rx, monitor_clock.clone(), spec.max_restarts)
                .map_err(runtime_err)?;

        let driver = match &spec.fault_plan {
            Some(plan) if !plan.events().is_empty() => Some(spawn_fault_driver(
                plan.events().to_vec(),
                clock,
                Arc::clone(&heartbeater),
                monitor_clock,
            )
            .map_err(runtime_err)?),
            _ => None,
        };

        self.watches.insert(
            spec.name,
            Watch {
                heartbeater,
                monitor: Some(monitor),
                params,
                driver,
            },
        );
        Ok(params)
    }

    /// Names of all watched processes.
    pub fn watched(&self) -> Vec<&str> {
        self.watches.keys().map(String::as_str).collect()
    }

    /// The parameters in force for `name`, if watched.
    pub fn params(&self, name: &str) -> Option<NfdUParams> {
        self.watches.get(name).map(|w| w.params)
    }

    /// Current output per watched process.
    pub fn status(&self) -> HashMap<String, FdOutput> {
        self.watches
            .iter()
            .map(|(name, w)| {
                let out = w
                    .monitor
                    .as_ref()
                    .map(|m| m.output())
                    .unwrap_or(FdOutput::Suspect);
                (name.clone(), out)
            })
            .collect()
    }

    /// Current output for a single watched process, `None` if not
    /// watched. A watch whose monitor is stopped reads as `Suspect`.
    pub fn output(&self, name: &str) -> Option<FdOutput> {
        self.watches.get(name).map(|w| {
            w.monitor
                .as_ref()
                .map(|m| m.output())
                .unwrap_or(FdOutput::Suspect)
        })
    }

    /// Live QoS of the watch for `name`: online interval metrics over
    /// the output stream so far, without stopping the watch. `None` if
    /// not watched or the monitor has not published an output yet.
    pub fn qos(&self, name: &str) -> Option<ObservedQos> {
        self.watches
            .get(name)
            .and_then(|w| w.monitor.as_ref())
            .and_then(Monitor::qos)
    }

    /// Health of the watch machinery for `name` (the monitor's
    /// supervision state — *not* whether the watched process is alive;
    /// that is [`Service::status`]). `None` if not watched.
    pub fn health(&self, name: &str) -> Option<Health> {
        self.watches
            .get(name)
            .map(|w| w.monitor.as_ref().map(|m| m.health()).unwrap_or(Health::Stopped))
    }

    /// The currently suspected processes (the classic "list of suspects"
    /// interface of §1).
    pub fn suspects(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .status()
            .into_iter()
            .filter(|(_, out)| out.is_suspect())
            .map(|(n, _)| n)
            .collect();
        v.sort();
        v
    }

    /// Crashes the named process (for fault-injection demos/tests).
    /// Returns whether the process was found (and not already crashed).
    pub fn crash(&mut self, name: &str) -> bool {
        match self.watches.get(name) {
            Some(w) if !w.heartbeater.is_crashed() => {
                w.heartbeater.crash();
                true
            }
            _ => false,
        }
    }

    /// Recovers a crashed process: heartbeating resumes with continuing
    /// sequence numbers. Returns whether a recovery actually happened.
    pub fn recover(&mut self, name: &str) -> bool {
        match self.watches.get(name) {
            Some(w) if w.heartbeater.is_crashed() => w.heartbeater.recover().is_ok(),
            _ => false,
        }
    }

    /// Stops watching `name`, returning the recorded trace.
    pub fn unwatch(&mut self, name: &str) -> Option<TransitionTrace> {
        let mut w = self.watches.remove(name)?;
        if let Some(d) = w.driver.as_mut() {
            d.stop();
        }
        w.heartbeater.crash();
        w.monitor.take().map(Monitor::stop)
    }

    /// Shuts the whole service down.
    pub fn shutdown(&mut self) {
        let names: Vec<String> = self.watches.keys().cloned().collect();
        for n in names {
            let _ = self.unwatch(&n);
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A `LeaderElector<String>` elects over the watched names; an unwatched
/// name counts as suspected.
impl TrustView<String> for Service {
    fn is_trusted(&self, candidate: &String) -> bool {
        self.output(candidate).is_some_and(|o| o.is_trust())
    }
}

/// Spawns the thread that replays a plan's process events in real time:
/// crash/recover against the heartbeater, clock jumps against the
/// monitor's clock. Exits early when told to stop.
fn spawn_fault_driver(
    events: Vec<ProcessEvent>,
    base: WallClock,
    heartbeater: Arc<Heartbeater>,
    monitor_clock: JumpableClock<WallClock>,
) -> Result<FaultDriver, crate::RuntimeError> {
    let (stop_tx, stop_rx) = channel::bounded::<()>(1);
    let start = base.now();
    let handle = std::thread::Builder::new()
        .name("fd-fault-driver".into())
        .spawn(move || {
            for ev in events {
                let due = start + ev.at();
                // Sleep until the event's deadline in one wait (woken
                // early only by a stop request); the loop merely absorbs
                // early wakeups, it does not poll on a fixed period.
                loop {
                    let now = base.now();
                    if now >= due {
                        break;
                    }
                    let wait = Duration::from_secs_f64((due - now).max(1e-6));
                    match stop_rx.recv_timeout(wait) {
                        Err(channel::RecvTimeoutError::Timeout) => {}
                        _ => return, // stop requested or driver orphaned
                    }
                }
                match ev {
                    ProcessEvent::Crash { .. } => {
                        heartbeater.crash();
                    }
                    ProcessEvent::Recover { .. } => {
                        // A failed respawn leaves the process crashed —
                        // to the detector that is just a real crash.
                        let _ = heartbeater.recover();
                    }
                    ProcessEvent::ClockJump { offset, .. } => monitor_clock.jump(offset),
                }
            }
        })
        .map_err(|e| crate::RuntimeError::Spawn { thread: "fd-fault-driver", source: e })?;
    Ok(FaultDriver {
        stop_tx,
        handle: Some(handle),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_cluster::{LeaderElector, Leadership};
    use fd_stats::dist::Exponential;
    use std::time::Duration;

    fn fast_link(seed_unused: f64) -> LinkSpec {
        let _ = seed_unused;
        LinkSpec::new(0.0, Box::new(Exponential::with_mean(0.001).unwrap())).unwrap()
    }

    /// Polls until `pred` holds or the timeout elapses; returns success.
    fn wait_until(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if pred() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        pred()
    }

    #[test]
    fn watch_trust_crash_suspect_cycle() {
        let mut svc = Service::new();
        svc.watch(
            ProcessSpec::named("node-a")
                .heartbeat_params(NfdUParams { eta: 0.01, alpha: 0.05 })
                .link(fast_link(0.0))
                .seed(1),
        )
        .unwrap();
        assert!(
            wait_until(Duration::from_secs(2), || svc.status()["node-a"].is_trust()),
            "never reached trust"
        );
        assert!(svc.suspects().is_empty());
        assert_eq!(svc.health("node-a"), Some(Health::Healthy));

        assert!(svc.crash("node-a"));
        assert!(
            wait_until(Duration::from_secs(2), || svc.status()["node-a"].is_suspect()),
            "crash never detected"
        );
        assert_eq!(svc.suspects(), vec!["node-a".to_string()]);
        svc.shutdown();
    }

    #[test]
    fn qos_driven_watch_configures_parameters() {
        let mut svc = Service::new();
        // Relative detection budget 0.2 s, ≥ 100 s between mistakes,
        // mistakes fixed within 0.05 s; clean fast link.
        let req = QosRequirements::new(0.2, 100.0, 0.05).unwrap();
        let params = svc
            .watch(
                ProcessSpec::named("db")
                    .qos(req, 0.0, 1e-6)
                    .link(fast_link(0.0))
                    .seed(2),
            )
            .unwrap();
        assert!(params.eta > 0.0 && params.alpha > 0.0);
        assert!((params.eta + params.alpha - 0.2).abs() < 1e-9);
        assert_eq!(svc.params("db"), Some(params));
        svc.shutdown();
    }

    #[test]
    fn unachievable_qos_is_reported() {
        let mut svc = Service::new();
        // A link that loses every message: no failure detector can meet
        // any accuracy requirement (Theorem 12 case 2).
        let req = QosRequirements::new(0.1, 100.0, 0.05).unwrap();
        let err = svc
            .watch(
                ProcessSpec::named("x")
                    .qos(req, 1.0, 1e-6)
                    .link(fast_link(0.0)),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::QosUnachievable(_)));
    }

    #[test]
    fn duplicate_and_incomplete_specs_rejected() {
        let mut svc = Service::new();
        svc.watch(
            ProcessSpec::named("a")
                .heartbeat_params(NfdUParams { eta: 0.01, alpha: 0.05 })
                .link(fast_link(0.0)),
        )
        .unwrap();
        assert!(matches!(
            svc.watch(
                ProcessSpec::named("a")
                    .heartbeat_params(NfdUParams { eta: 0.01, alpha: 0.05 })
                    .link(fast_link(0.0))
            ),
            Err(ServiceError::DuplicateName(_))
        ));
        assert!(matches!(
            svc.watch(ProcessSpec::named("b").link(fast_link(0.0))),
            Err(ServiceError::MissingParams(_))
        ));
        assert!(matches!(
            svc.watch(
                ProcessSpec::named("c").heartbeat_params(NfdUParams { eta: 0.01, alpha: 0.05 })
            ),
            Err(ServiceError::MissingLink(_))
        ));
        svc.shutdown();
    }

    #[test]
    fn unwatch_returns_trace() {
        let mut svc = Service::new();
        svc.watch(
            ProcessSpec::named("n")
                .heartbeat_params(NfdUParams { eta: 0.005, alpha: 0.03 })
                .link(fast_link(0.0))
                .seed(3),
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(80));
        let trace = svc.unwatch("n").expect("trace");
        assert!(trace.duration() > 0.0);
        assert!(svc.watched().is_empty());
        assert!(svc.unwatch("n").is_none());
    }

    #[test]
    fn monitors_multiple_processes_independently() {
        let mut svc = Service::new();
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            svc.watch(
                ProcessSpec::named(*name)
                    .heartbeat_params(NfdUParams { eta: 0.01, alpha: 0.05 })
                    .link(fast_link(0.0))
                    .seed(i as u64),
            )
            .unwrap();
        }
        assert!(
            wait_until(Duration::from_secs(2), || svc.suspects().is_empty()
                && svc.status().values().all(|o| o.is_trust())),
            "not all watches reached trust"
        );
        svc.crash("b");
        assert!(
            wait_until(Duration::from_secs(2), || svc.suspects()
                == vec!["b".to_string()]),
            "crash of b not isolated: suspects = {:?}",
            svc.suspects()
        );
        assert!(svc.status()["a"].is_trust());
        assert!(svc.status()["c"].is_trust());
        svc.shutdown();
    }

    #[test]
    fn skewed_sender_clock_does_not_break_nfd_e() {
        let mut svc = Service::new();
        svc.watch(
            ProcessSpec::named("skewed")
                .heartbeat_params(NfdUParams { eta: 0.01, alpha: 0.05 })
                .link(fast_link(0.0))
                .sender_clock_skew(3600.0)
                .seed(4),
        )
        .unwrap();
        assert!(
            wait_until(Duration::from_secs(2), || svc.status()["skewed"].is_trust()),
            "skew broke NFD-E"
        );
        svc.shutdown();
    }

    #[test]
    fn manual_recover_restores_trust() {
        let mut svc = Service::new();
        svc.watch(
            ProcessSpec::named("r")
                .heartbeat_params(NfdUParams { eta: 0.01, alpha: 0.05 })
                .link(fast_link(0.0))
                .seed(5),
        )
        .unwrap();
        assert!(wait_until(Duration::from_secs(2), || svc.status()["r"].is_trust()));
        assert!(svc.crash("r"));
        assert!(!svc.recover("missing"));
        assert!(wait_until(Duration::from_secs(2), || svc.status()["r"].is_suspect()));
        assert!(svc.recover("r"));
        assert!(
            wait_until(Duration::from_secs(2), || svc.status()["r"].is_trust()),
            "recovery did not restore trust"
        );
        svc.shutdown();
    }

    #[test]
    fn live_qos_reflects_a_crash_and_recovery() {
        let mut svc = Service::new();
        svc.watch(
            ProcessSpec::named("q")
                .heartbeat_params(NfdUParams { eta: 0.01, alpha: 0.05 })
                .link(fast_link(0.0))
                .seed(7),
        )
        .unwrap();
        assert!(svc.qos("missing").is_none());
        assert!(wait_until(Duration::from_secs(2), || svc.status()["q"].is_trust()));
        let q = svc.qos("q").expect("watched and running");
        assert!(q.window > 0.0 && q.t_transitions >= 1);

        assert!(svc.crash("q"));
        assert!(wait_until(Duration::from_secs(2), || svc.status()["q"].is_suspect()));
        assert!(svc.recover("q"));
        assert!(wait_until(Duration::from_secs(2), || svc.status()["q"].is_trust()));

        // Crash + recovery completed one full mistake interval.
        let q = svc.qos("q").expect("still watched");
        assert!(q.s_transitions >= 1, "{q}");
        assert!(q.mean_mistake_duration().is_some(), "{q}");
        assert!(q.query_accuracy() < 1.0);
        svc.shutdown();
    }

    #[test]
    fn scripted_crash_and_recovery_follow_the_plan() {
        let mut svc = Service::new();
        let plan = FaultPlan::new(6).crash(0.15).recover(0.4);
        svc.watch(
            ProcessSpec::named("planned")
                .heartbeat_params(NfdUParams { eta: 0.01, alpha: 0.05 })
                .link(fast_link(0.0))
                .seed(6)
                .fault_plan(plan),
        )
        .unwrap();
        // Phase 1: alive and trusted.
        assert!(wait_until(
            Duration::from_millis(140),
            || svc.status()["planned"].is_trust()
        ));
        // Phase 2: the scripted crash at t = 0.15 s is detected.
        assert!(
            wait_until(Duration::from_secs(2), || svc.status()["planned"].is_suspect()),
            "scripted crash not detected"
        );
        // Phase 3: the scripted recovery at t = 0.4 s restores trust.
        assert!(
            wait_until(Duration::from_secs(3), || svc.status()["planned"].is_trust()),
            "scripted recovery not detected"
        );
        assert_eq!(svc.health("planned"), Some(Health::Healthy));
        svc.shutdown();
    }

    // --- the stateless elector over a live Service ---

    fn watched(names: &[&str]) -> Service {
        let mut svc = Service::new();
        for (i, name) in names.iter().enumerate() {
            svc.watch(
                ProcessSpec::named(*name)
                    .heartbeat_params(NfdUParams { eta: 0.01, alpha: 0.05 })
                    .link(fast_link(0.0))
                    .seed(i as u64),
            )
            .unwrap();
        }
        svc
    }

    /// Polls until the elector reads `want` (the suite may run under
    /// heavy parallel load, so fixed sleeps are too fragile).
    fn await_leadership(elector: &LeaderElector, svc: &Service, want: Leadership) {
        assert!(
            wait_until(Duration::from_secs(5), || elector.current(svc) == want),
            "timed out waiting for {want:?} (currently {:?})",
            elector.current(svc)
        );
    }

    #[test]
    fn elects_highest_priority_live_candidate_and_fails_over() {
        let mut svc = watched(&["n1", "n2", "n3"]);
        let elector = LeaderElector::new(vec!["n1".into(), "n2".into(), "n3".into()]);
        await_leadership(&elector, &svc, Leadership::Leader("n1".into()));
        // Crash the leader: failover to n2 within the detection bound.
        svc.crash("n1");
        await_leadership(&elector, &svc, Leadership::Leader("n2".into()));
        svc.shutdown();
    }

    #[test]
    fn no_leader_when_everyone_is_down() {
        let mut svc = watched(&["solo"]);
        let elector = LeaderElector::new(vec!["solo".into()]);
        await_leadership(&elector, &svc, Leadership::Leader("solo".into()));
        svc.crash("solo");
        await_leadership(&elector, &svc, Leadership::NoLeader);
        svc.shutdown();
    }

    #[test]
    fn unwatched_candidates_are_skipped() {
        let mut svc = watched(&["b"]);
        let elector = LeaderElector::new(vec!["ghost".into(), "b".into()]);
        await_leadership(&elector, &svc, Leadership::Leader("b".into()));
        svc.shutdown();
    }
}
