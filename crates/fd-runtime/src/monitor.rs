//! The monitoring process `q`: a supervised thread driving a failure
//! detector in real time.

use crate::transport::Receiver;
use crate::{Clock, Health, RuntimeError};
use crossbeam::channel::RecvTimeoutError;
use fd_metrics::{FdOutput, ObservedQos, OnlineQos, TraceRecorder, TransitionTrace};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Builds (and, under supervision, *re*builds) the detector driven by a
/// [`Monitor`]. Boxed so callers can use any
/// [`FailureDetector`](fd_core::FailureDetector); `Fn` (not `FnOnce`) so
/// a supervisor can construct a fresh instance after a panic.
pub type DetectorFactory = Box<dyn Fn() -> Box<dyn fd_core::FailureDetector + Send> + Send>;

/// Where the supervisor gets detector instances from.
enum DetectorSource {
    /// A single pre-built detector: no rebuild possible after a panic.
    Once(Option<Box<dyn fd_core::FailureDetector + Send>>),
    /// A factory: each restart gets a fresh instance.
    Factory(DetectorFactory),
}

impl DetectorSource {
    fn next(&mut self) -> Option<Box<dyn fd_core::FailureDetector + Send>> {
        match self {
            DetectorSource::Once(slot) => slot.take(),
            DetectorSource::Factory(f) => Some(f()),
        }
    }
}

struct Shared {
    /// 0 = Trust, 1 = Suspect (for lock-free `output()` reads).
    output: AtomicU8,
    stop: AtomicBool,
    health: Mutex<Health>,
    restarts: AtomicU32,
    recorder: Mutex<Option<TraceRecorder>>,
    /// Online interval accounting over the published output stream; fed
    /// at the same points as the recorder, so live QoS answers match
    /// what batch analysis of the final trace will say.
    qos: Mutex<Option<OnlineQos>>,
}

/// Handle to a running monitor thread.
///
/// The thread sleeps until the earlier of (a) the next heartbeat arrival
/// and (b) the detector's next internal deadline, feeding each to the
/// state machine with timestamps from the **monitor's own clock** (which
/// may be skewed relative to the sender's, §6). The current output is
/// readable lock-free; the full transition trace is returned by
/// [`Monitor::stop`].
///
/// # Supervision
///
/// The drive loop runs under a panic supervisor. When the detector
/// panics, the monitor fails **safe**: it publishes `Suspect` (a broken
/// monitor cannot vouch for liveness) and records the transition. A
/// monitor spawned with [`Monitor::spawn_supervised`] then rebuilds the
/// detector from its factory and resumes — up to `max_restarts` times —
/// reporting [`Health::Degraded`]; past the budget (or for the
/// single-detector [`Monitor::spawn`]) it reports [`Health::Stopped`]
/// and keeps publishing `Suspect`.
pub struct Monitor {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
    clock: Arc<dyn Clock>,
}

impl Monitor {
    /// Spawns a monitor thread driving `detector` with heartbeats from
    /// `rx`, reading time from `clock`. A detector panic stops this
    /// monitor (there is no way to rebuild a moved-in detector); use
    /// [`Monitor::spawn_supervised`] for restart-on-panic.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Spawn`] if the OS refuses the thread.
    pub fn spawn(
        detector: Box<dyn fd_core::FailureDetector + Send>,
        rx: Receiver,
        clock: impl Clock + 'static,
    ) -> Result<Self, RuntimeError> {
        Self::spawn_inner(DetectorSource::Once(Some(detector)), rx, clock, 0)
    }

    /// Spawns a supervised monitor: detectors come from `factory`, and a
    /// panicking detector is replaced by a fresh instance up to
    /// `max_restarts` times before the monitor stops.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Spawn`] if the OS refuses the thread.
    pub fn spawn_supervised(
        factory: DetectorFactory,
        rx: Receiver,
        clock: impl Clock + 'static,
        max_restarts: u32,
    ) -> Result<Self, RuntimeError> {
        Self::spawn_inner(DetectorSource::Factory(factory), rx, clock, max_restarts)
    }

    fn spawn_inner(
        source: DetectorSource,
        rx: Receiver,
        clock: impl Clock + 'static,
        max_restarts: u32,
    ) -> Result<Self, RuntimeError> {
        let clock: Arc<dyn Clock> = Arc::new(clock);
        let shared = Arc::new(Shared {
            output: AtomicU8::new(1), // detectors start suspecting
            stop: AtomicBool::new(false),
            health: Mutex::new(Health::Healthy),
            restarts: AtomicU32::new(0),
            recorder: Mutex::new(None),
            qos: Mutex::new(None),
        });
        let thread_shared = Arc::clone(&shared);
        let thread_clock = Arc::clone(&clock);
        let handle = std::thread::Builder::new()
            .name("fd-monitor".into())
            .spawn(move || supervise(source, rx, thread_clock, thread_shared, max_restarts))
            .map_err(|e| RuntimeError::Spawn { thread: "fd-monitor", source: e })?;
        Ok(Self {
            shared,
            handle: Some(handle),
            clock,
        })
    }

    /// The detector's current output (lock-free snapshot).
    pub fn output(&self) -> FdOutput {
        if self.shared.output.load(Ordering::Acquire) == 0 {
            FdOutput::Trust
        } else {
            FdOutput::Suspect
        }
    }

    /// The monitor's current health.
    pub fn health(&self) -> Health {
        self.shared.health.lock().clone()
    }

    /// How many times the supervisor has rebuilt a panicked detector.
    pub fn restarts(&self) -> u32 {
        self.shared.restarts.load(Ordering::Acquire)
    }

    /// Live QoS of this watch so far: the online interval metrics
    /// (`P_A`, `E(T_MR)`, `E(T_M)`, `E(T_G)`, transition counts) over the
    /// output stream up to *now*, without stopping the monitor. `None`
    /// until the drive loop has published its first output.
    pub fn qos(&self) -> Option<ObservedQos> {
        let now = self.clock.now();
        self.shared.qos.lock().map(|q| q.observed(now))
    }

    /// Stops the monitor and returns the recorded transition trace
    /// (timestamps on the monitor's clock).
    pub fn stop(mut self) -> TransitionTrace {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let now = self.clock.now();
        let rec = self
            .shared
            .recorder
            .lock()
            .take()
            // A detector that panicked in its very first step leaves no
            // recorder; its trace is "suspected throughout".
            .unwrap_or_else(|| TraceRecorder::new(now, FdOutput::Suspect));
        let end = now.max(rec.latest_time());
        rec.finish(end)
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Runs `drive` under a panic supervisor, rebuilding the detector from
/// `source` after each panic until the restart budget is exhausted.
fn supervise(
    mut source: DetectorSource,
    rx: Receiver,
    clock: Arc<dyn Clock>,
    shared: Arc<Shared>,
    max_restarts: u32,
) {
    loop {
        let Some(fd) = source.next() else { break };
        match catch_unwind(AssertUnwindSafe(|| drive(fd, &rx, &clock, &shared))) {
            Ok(()) => break, // stop() requested; clean exit
            Err(payload) => {
                // Fail safe: a broken monitor cannot vouch for liveness.
                let t = clock.now();
                record(&shared, t, FdOutput::Suspect);
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                let reason = panic_reason(payload.as_ref());
                let used = shared.restarts.load(Ordering::Acquire);
                let can_retry =
                    used < max_restarts && matches!(source, DetectorSource::Factory(_));
                if !can_retry {
                    *shared.health.lock() = Health::Stopped;
                    return;
                }
                shared.restarts.store(used + 1, Ordering::Release);
                *shared.health.lock() = Health::Degraded { reason };
            }
        }
    }
    *shared.health.lock() = Health::Stopped;
}

/// Best-effort extraction of a panic message.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("detector panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("detector panicked: {s}")
    } else {
        "detector panicked".to_string()
    }
}

fn drive(
    mut fd: Box<dyn fd_core::FailureDetector + Send>,
    rx: &Receiver,
    clock: &Arc<dyn Clock>,
    shared: &Arc<Shared>,
) {
    let start = clock.now();
    fd.advance(start);
    {
        // On a supervised restart the original recorder (and its trace so
        // far) is kept; only the first incarnation creates it. Same for
        // the online QoS tracker: it follows the output stream, not
        // detector lives.
        let mut rec = shared.recorder.lock();
        if rec.is_none() {
            *rec = Some(TraceRecorder::new(start, fd.output()));
        }
        let mut qos = shared.qos.lock();
        if qos.is_none() {
            *qos = Some(OnlineQos::new(start, fd.output()));
        }
    }
    record(shared, start, fd.output());

    while !shared.stop.load(Ordering::Acquire) {
        let now = clock.now();
        // Sleep until the next deadline (or poll every 50 ms when idle).
        let wait = match fd.next_deadline() {
            Some(d) if d <= now => Duration::ZERO,
            Some(d) => Duration::from_secs_f64((d - now).min(0.05)),
            None => Duration::from_millis(50),
        };
        match rx.recv_timeout(wait) {
            Ok(hb) => {
                let t = clock.now();
                fd.on_heartbeat(t, hb);
                record(shared, t, fd.output());
            }
            Err(RecvTimeoutError::Timeout) => {
                let t = clock.now();
                // Apply any deadline that elapsed; record at the deadline
                // instant for an exact trace.
                if let Some(d) = fd.next_deadline() {
                    if d <= t {
                        fd.advance(t);
                        record(shared, d.max(start), fd.output());
                        continue;
                    }
                }
                fd.advance(t);
                record(shared, t, fd.output());
            }
            Err(RecvTimeoutError::Disconnected) => {
                // Sender gone (crashed and channel drained): keep driving
                // deadlines until stopped.
                let t = clock.now();
                fd.advance(t);
                record(shared, t, fd.output());
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

fn record(shared: &Shared, t: f64, out: FdOutput) {
    if let Some(rec) = shared.recorder.lock().as_mut() {
        // Guard against clock jitter below recorder resolution.
        if t >= rec.latest_time() {
            rec.record(t, out);
        }
    }
    if let Some(qos) = shared.qos.lock().as_mut() {
        qos.observe(t, out); // clamps backwards time itself
    }
    publish(shared, out);
}

fn publish(shared: &Shared, out: FdOutput) {
    shared
        .output
        .store(u8::from(out == FdOutput::Suspect), Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heartbeater::Heartbeater;
    use crate::transport::{LinkSpec, LossyChannel};
    use crate::{SkewedClock, WallClock};
    use fd_core::detectors::{NfdE, NfdS};
    use fd_core::Heartbeat;
    use fd_stats::dist::Constant;

    /// End-to-end: clean 5 ms-delay link, η = 10 ms, NFD-S with δ = 30 ms.
    #[test]
    fn trusts_live_process_then_detects_crash() {
        let clock = WallClock::new();
        let spec = LinkSpec::new(0.0, Box::new(Constant::new(0.005).unwrap())).unwrap();
        let (tx, rx, _worker) = LossyChannel::create(spec, 1);
        let hb = Heartbeater::spawn(0.01, tx, clock.clone()).unwrap();
        let fd = NfdS::new(0.01, 0.03).unwrap();
        let monitor = Monitor::spawn(Box::new(fd), rx, clock.clone()).unwrap();

        // Let it reach steady state and confirm trust.
        std::thread::sleep(Duration::from_millis(120));
        assert!(monitor.output().is_trust(), "should trust a live process");
        assert!(monitor.health().is_healthy());

        // Crash p; detection must follow within δ + η (+ scheduling slop).
        let crash_at = clock.now();
        hb.crash();
        std::thread::sleep(Duration::from_millis(150));
        assert!(monitor.output().is_suspect(), "crash not detected");

        let trace = monitor.stop();
        let d = fd_metrics::detection_time(&trace, crash_at);
        let elapsed = d.as_seconds();
        assert!(
            elapsed <= 0.04 + 0.05,
            "T_D = {elapsed} vs bound 0.04 (+ slop)"
        );
    }

    #[test]
    fn nfd_e_works_with_skewed_clocks() {
        // Sender's clock is 500 s ahead; NFD-E must not care (it ignores
        // sender timestamps entirely).
        let base = WallClock::new();
        let spec = LinkSpec::new(0.0, Box::new(Constant::new(0.002).unwrap())).unwrap();
        let (tx, rx, _worker) = LossyChannel::create(spec, 2);
        let hb =
            Heartbeater::spawn(0.01, tx, SkewedClock::new(base.clone(), 500.0)).unwrap();
        let fd = NfdE::new(0.01, 0.03, 8).unwrap();
        let monitor = Monitor::spawn(Box::new(fd), rx, base.clone()).unwrap();

        std::thread::sleep(Duration::from_millis(150));
        assert!(monitor.output().is_trust(), "skew broke NFD-E");
        hb.crash();
        std::thread::sleep(Duration::from_millis(120));
        assert!(monitor.output().is_suspect());
        let trace = monitor.stop();
        assert!(trace.transitions().len() >= 2, "T then S at least");
    }

    #[test]
    fn suspects_when_no_heartbeats_ever_arrive() {
        let clock = WallClock::new();
        let spec = LinkSpec::new(1.0, Box::new(Constant::new(0.001).unwrap())).unwrap();
        let (tx, rx, _worker) = LossyChannel::create(spec, 3);
        let hb = Heartbeater::spawn(0.01, tx, clock.clone()).unwrap();
        let monitor =
            Monitor::spawn(Box::new(NfdS::new(0.01, 0.02).unwrap()), rx, clock).unwrap();
        std::thread::sleep(Duration::from_millis(80));
        assert!(monitor.output().is_suspect());
        hb.crash();
        let trace = monitor.stop();
        assert_eq!(trace.transitions().len(), 0, "never trusted");
    }

    #[test]
    fn live_qos_is_queryable_while_running() {
        let clock = WallClock::new();
        let spec = LinkSpec::new(0.0, Box::new(Constant::new(0.002).unwrap())).unwrap();
        let (tx, rx, _worker) = LossyChannel::create(spec, 8);
        let hb = Heartbeater::spawn(0.01, tx, clock.clone()).unwrap();
        let monitor =
            Monitor::spawn(Box::new(NfdS::new(0.01, 0.03).unwrap()), rx, clock.clone()).unwrap();

        std::thread::sleep(Duration::from_millis(120));
        let q = monitor.qos().expect("drive loop has published");
        assert!(q.window > 0.0);
        assert!((0.0..=1.0).contains(&q.query_accuracy()));
        // Startup: one Suspect→Trust transition, no completed mistakes.
        assert!(q.t_transitions >= 1, "{q}");
        assert_eq!(q.mean_mistake_recurrence(), None);

        // Crash; once suspicion lands, the live view shows an S-transition
        // and accuracy strictly below 1.
        hb.crash();
        std::thread::sleep(Duration::from_millis(150));
        let q = monitor.qos().unwrap();
        assert!(q.s_transitions >= 1, "{q}");
        assert!(q.query_accuracy() < 1.0);

        // The live view must agree with batch analysis of the final trace.
        let live = monitor.qos().unwrap();
        let trace = monitor.stop();
        let batch = fd_metrics::AccuracyAnalysis::of_trace(&trace);
        assert_eq!(live.s_transitions as usize, batch.mistake_count());
        let dq = (live.query_accuracy() - batch.query_accuracy_probability()).abs();
        assert!(
            dq < 0.05,
            "live {} vs batch {}",
            live.query_accuracy(),
            batch.query_accuracy_probability()
        );
        let _ = trace;
    }

    #[test]
    fn stop_returns_well_formed_trace() {
        let clock = WallClock::new();
        let spec = LinkSpec::new(0.0, Box::new(Constant::new(0.001).unwrap())).unwrap();
        let (tx, rx, _worker) = LossyChannel::create(spec, 4);
        let hb = Heartbeater::spawn(0.005, tx, clock.clone()).unwrap();
        let monitor =
            Monitor::spawn(Box::new(NfdS::new(0.005, 0.02).unwrap()), rx, clock).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        hb.crash();
        let trace = monitor.stop();
        assert!(trace.end() >= trace.start());
        // Output at any queried time is defined.
        let mid = 0.5 * (trace.start() + trace.end());
        let _ = trace.output_at(mid);
    }

    /// A detector that panics on the `n`-th heartbeat, then (as a fresh
    /// instance) behaves exactly like NFD-S.
    struct FaultyDetector {
        inner: NfdS,
        panic_on: u64,
        seen: u64,
    }

    impl FaultyDetector {
        fn new(panic_on: u64) -> Self {
            Self {
                inner: NfdS::new(0.01, 0.04).unwrap(),
                panic_on,
                seen: 0,
            }
        }
    }

    impl fd_core::FailureDetector for FaultyDetector {
        fn advance(&mut self, now: f64) {
            self.inner.advance(now);
        }
        fn on_heartbeat(&mut self, now: f64, hb: Heartbeat) {
            self.seen += 1;
            assert!(self.seen != self.panic_on, "injected detector fault");
            self.inner.on_heartbeat(now, hb);
        }
        fn output(&self) -> FdOutput {
            self.inner.output()
        }
        fn next_deadline(&self) -> Option<f64> {
            self.inner.next_deadline()
        }
        fn name(&self) -> &'static str {
            "Faulty(NFD-S)"
        }
    }

    #[test]
    fn supervised_monitor_recovers_from_detector_panic() {
        let clock = WallClock::new();
        let spec = LinkSpec::new(0.0, Box::new(Constant::new(0.002).unwrap())).unwrap();
        let (tx, rx, _worker) = LossyChannel::create(spec, 5);
        let hb = Heartbeater::spawn(0.01, tx, clock.clone()).unwrap();
        // First instance dies on its 3rd heartbeat; the rebuilt one never
        // reaches 200 within this test.
        let factory: DetectorFactory = {
            let first = std::sync::atomic::AtomicBool::new(true);
            Box::new(move || {
                let n = if first.swap(false, Ordering::AcqRel) { 3 } else { 200 };
                Box::new(FaultyDetector::new(n))
            })
        };
        let monitor = Monitor::spawn_supervised(factory, rx, clock.clone(), 2).unwrap();

        std::thread::sleep(Duration::from_millis(250));
        assert_eq!(monitor.restarts(), 1, "one rebuild expected");
        match monitor.health() {
            Health::Degraded { reason } => {
                assert!(reason.contains("injected detector fault"), "reason: {reason}")
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        // The rebuilt detector trusts the still-live process again.
        assert!(
            monitor.output().is_trust(),
            "supervised monitor failed to recover trust"
        );
        hb.crash();
        let trace = monitor.stop();
        // Trust → (panic) Suspect → Trust again: at least 3 transitions.
        assert!(trace.transitions().len() >= 3, "{:?}", trace.transitions().collect::<Vec<_>>());
    }

    #[test]
    fn supervised_monitor_stops_after_budget_exhausted() {
        let clock = WallClock::new();
        let spec = LinkSpec::new(0.0, Box::new(Constant::new(0.002).unwrap())).unwrap();
        let (tx, rx, _worker) = LossyChannel::create(spec, 6);
        let hb = Heartbeater::spawn(0.005, tx, clock.clone()).unwrap();
        // Every instance panics on its first heartbeat; budget of 1.
        let factory: DetectorFactory = Box::new(|| Box::new(FaultyDetector::new(1)));
        let monitor = Monitor::spawn_supervised(factory, rx, clock.clone(), 1).unwrap();

        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(monitor.health(), Health::Stopped);
        assert_eq!(monitor.restarts(), 1);
        // Fail-safe: a dead monitor suspects.
        assert!(monitor.output().is_suspect());
        hb.crash();
        let _ = monitor.stop(); // must not panic
    }

    #[test]
    fn unsupervised_panic_stops_and_suspects() {
        let clock = WallClock::new();
        let spec = LinkSpec::new(0.0, Box::new(Constant::new(0.002).unwrap())).unwrap();
        let (tx, rx, _worker) = LossyChannel::create(spec, 7);
        let hb = Heartbeater::spawn(0.005, tx, clock.clone()).unwrap();
        let monitor =
            Monitor::spawn(Box::new(FaultyDetector::new(1)), rx, clock.clone()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(monitor.health(), Health::Stopped);
        assert!(monitor.output().is_suspect());
        hb.crash();
        let trace = monitor.stop();
        assert!(trace.end() >= trace.start());
    }
}
