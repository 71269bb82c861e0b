//! The monitored process `p`: a thread sending heartbeats every `η`.
//!
//! The paper assumes crash-*stop* processes; real deployments restart.
//! A restarted process whose identity is indistinguishable from its
//! previous life lets stale in-flight heartbeats vouch for the *new*
//! life (and vice versa), silently breaking the configurator's
//! `T_D`/`T_MR` guarantees. The crash-recovery literature (Reis &
//! Vieira's QoS analysis of crash-recovery leader election; Aguilera et
//! al.'s crash-recovery model) fixes this with **incarnation numbers**:
//! every recovery bumps a monotone counter that receivers compare, so
//! messages from an older incarnation are recognizably stale. The
//! [`Heartbeater`] tracks its incarnation across [`recover`]
//! (in-process restart) and, through an [`IncarnationStore`], across
//! full process restarts (on-disk persistence).
//!
//! [`recover`]: Heartbeater::recover

use crate::transport::Sender;
use crate::{Clock, RuntimeError};
use fd_core::{Heartbeat, HysteresisConfig, HysteresisGate};
use parking_lot::{Condvar, Mutex};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Durable incarnation counter: a tiny on-disk file holding the last
/// incarnation a process ran as, so a *restarted* process (not just an
/// in-process [`Heartbeater::recover`]) resumes with a strictly larger
/// incarnation than anything it sent before the crash.
///
/// The file holds the incarnation as decimal ASCII. Updates are atomic
/// (write to a sibling temp file, then rename), so a crash mid-update
/// leaves either the old or the new value, never a torn one. A missing
/// file means "never ran": the first [`bump`](IncarnationStore::bump)
/// yields incarnation 1. A *corrupt* file is an error, not a silent
/// reset — restarting at incarnation 0 would let every pre-crash
/// datagram impersonate the new life.
#[derive(Debug, Clone)]
pub struct IncarnationStore {
    path: PathBuf,
}

impl IncarnationStore {
    /// Uses `path` as the durable incarnation record. No I/O happens
    /// until [`load`](Self::load) or [`bump`](Self::bump).
    pub fn at(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads the stored incarnation. A missing file reads as 0 (never
    /// ran); a corrupt one is [`io::ErrorKind::InvalidData`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; corruption maps to `InvalidData`.
    pub fn load(&self) -> io::Result<u64> {
        match std::fs::read_to_string(&self.path) {
            Ok(text) => text.trim().parse::<u64>().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt incarnation file {}: {e}", self.path.display()),
                )
            }),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// Atomically records `incarnation` as the current one.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the write or rename.
    pub fn store(&self, incarnation: u64) -> io::Result<()> {
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, incarnation.to_string())?;
        std::fs::rename(&tmp, &self.path)
    }

    /// Loads the stored incarnation, bumps it by one, persists the new
    /// value, and returns it — the restart handshake: call once per
    /// process start (and per recovery) *before* sending any heartbeat.
    ///
    /// # Errors
    ///
    /// Propagates [`load`](Self::load)/[`store`](Self::store) errors; on
    /// error nothing is persisted.
    pub fn bump(&self) -> io::Result<u64> {
        let next = self.load()?.checked_add(1).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "incarnation counter overflow")
        })?;
        self.store(next)?;
        Ok(next)
    }
}

#[derive(Debug)]
struct Control {
    /// Current intersending interval `η` (seconds).
    eta: f64,
    /// True while the process is "crashed": no heartbeats are sent. A
    /// crash is permanent in the paper's crash-stop model, but the
    /// runtime also supports scripted crash-*recovery* scenarios via
    /// [`Heartbeater::recover`].
    crashed: bool,
    /// Heartbeats sent so far (sequence numbers continue across a
    /// crash/recovery cycle, so a recovered process never reuses one).
    sent: u64,
    /// Current incarnation: bumped by every [`Heartbeater::recover`] so
    /// receivers can tell a restarted life from stale datagrams of the
    /// previous one.
    incarnation: u64,
}

struct Shared {
    control: Mutex<Control>,
    wake: Condvar,
}

/// Handle to a running heartbeater thread.
///
/// The thread stamps each `mᵢ` with its **own clock's** send time (so a
/// skewed clock produces skewed timestamps, as §6 requires) and sends
/// through the lossy transport. `η` can be retuned at runtime — the
/// knob the §8.1 adaptive scheme turns. All control methods take
/// `&self`, so a fault-plan driver on another thread can crash and
/// recover the process through a shared handle.
pub struct Heartbeater {
    shared: Arc<Shared>,
    sender: Arc<Sender>,
    clock: Arc<dyn Clock>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Durable incarnation record, if this heartbeater persists one;
    /// bumped on every recovery.
    store: Option<IncarnationStore>,
    /// Rate-limits control-plane `η` recommendations (not `set_eta`,
    /// which is the operator's direct knob and always obeyed).
    eta_gate: Mutex<HysteresisGate>,
}

impl Heartbeater {
    /// Spawns a heartbeater sending every `eta` seconds on `sender`,
    /// reading time (for timestamps and pacing) from `clock`. Starts at
    /// incarnation 0 with no persistence; see
    /// [`spawn_persistent`](Self::spawn_persistent) for the
    /// crash-recovery-correct variant.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Spawn`] if the OS refuses the thread.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is not positive and finite.
    pub fn spawn(
        eta: f64,
        sender: Sender,
        clock: impl Clock + 'static,
    ) -> Result<Self, RuntimeError> {
        Self::spawn_inner(eta, sender, clock, 0, None)
    }

    /// Spawns a heartbeater whose incarnation survives process restarts:
    /// the store's counter is loaded, bumped and persisted before the
    /// first heartbeat, and bumped again on every
    /// [`recover`](Self::recover). A process relaunched with the same
    /// store therefore always sends with a strictly larger incarnation
    /// than any datagram from its previous life.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Incarnation`] if the store cannot be read
    /// or written (including a corrupt counter file — silently restarting
    /// at 0 would defeat stale-datagram rejection), and
    /// [`RuntimeError::Spawn`] if the OS refuses the thread.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is not positive and finite.
    pub fn spawn_persistent(
        eta: f64,
        sender: Sender,
        clock: impl Clock + 'static,
        store: IncarnationStore,
    ) -> Result<Self, RuntimeError> {
        let incarnation = store.bump().map_err(|source| RuntimeError::Incarnation { source })?;
        Self::spawn_inner(eta, sender, clock, incarnation, Some(store))
    }

    fn spawn_inner(
        eta: f64,
        sender: Sender,
        clock: impl Clock + 'static,
        incarnation: u64,
        store: Option<IncarnationStore>,
    ) -> Result<Self, RuntimeError> {
        assert!(eta > 0.0 && eta.is_finite(), "eta must be positive and finite");
        let shared = Arc::new(Shared {
            control: Mutex::new(Control {
                eta,
                crashed: false,
                sent: 0,
                incarnation,
            }),
            wake: Condvar::new(),
        });
        let sender = Arc::new(sender);
        let clock: Arc<dyn Clock> = Arc::new(clock);
        let handle = spawn_thread(&shared, &sender, &clock)?;
        Ok(Self {
            shared,
            sender,
            clock,
            handle: Mutex::new(Some(handle)),
            store,
            eta_gate: Mutex::new(HysteresisGate::new(HysteresisConfig::default())),
        })
    }

    /// The current incarnation: 0 for a never-recovered in-memory
    /// heartbeater, and strictly increasing across recoveries (and, with
    /// [`spawn_persistent`](Self::spawn_persistent), across process
    /// restarts).
    pub fn incarnation(&self) -> u64 {
        self.shared.control.lock().incarnation
    }

    /// Changes the intersending interval `η` (takes effect for the next
    /// heartbeat).
    ///
    /// # Panics
    ///
    /// Panics if `eta` is not positive and finite.
    pub fn set_eta(&self, eta: f64) {
        assert!(eta > 0.0 && eta.is_finite(), "eta must be positive and finite");
        self.shared.control.lock().eta = eta;
        self.shared.wake.notify_one();
    }

    /// The current `η`.
    pub fn eta(&self) -> f64 {
        self.shared.control.lock().eta
    }

    /// Replaces the hysteresis policy applied to
    /// [`recommend_eta`](Self::recommend_eta). The new gate starts with
    /// no admitted-change history, so the next material recommendation
    /// passes regardless of dwell.
    pub fn set_recommendation_hysteresis(&self, cfg: HysteresisConfig) {
        *self.eta_gate.lock() = HysteresisGate::new(cfg);
    }

    /// Applies a control-plane `η` recommendation, subject to
    /// hysteresis: changes within the deadband of the current `η`, or
    /// arriving before the minimum dwell since the last *applied*
    /// recommendation, are dropped. Unlike [`set_eta`](Self::set_eta),
    /// invalid values (non-finite or non-positive — these arrive off the
    /// wire, not from an operator) are rejected rather than panicking.
    /// Returns whether the recommendation was applied.
    pub fn recommend_eta(&self, eta: f64) -> bool {
        if !(eta > 0.0 && eta.is_finite()) {
            return false;
        }
        // Hold the gate across read-compare-apply so two racing
        // recommendations cannot both pass the deadband check.
        let mut gate = self.eta_gate.lock();
        let rel = HysteresisGate::rel_change(self.eta(), eta);
        if !gate.admit(self.clock.now(), rel) {
            return false;
        }
        self.set_eta(eta);
        true
    }

    /// Crashes the process: heartbeats stop (crash-stop, until an
    /// explicit [`Heartbeater::recover`]). Returns the number of
    /// heartbeats sent so far (including lost ones). Idempotent.
    pub fn crash(&self) -> u64 {
        {
            let mut c = self.shared.control.lock();
            c.crashed = true;
        }
        self.shared.wake.notify_one();
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
        self.shared.control.lock().sent
    }

    /// Recovers a crashed process: heartbeating resumes on the same
    /// link, sequence numbers continuing where they stopped and the
    /// incarnation bumped (persisted first, if this heartbeater has an
    /// [`IncarnationStore`]) so receivers can reject the previous life's
    /// stale datagrams. A no-op on a live process.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Incarnation`] if the bumped incarnation
    /// cannot be persisted, and [`RuntimeError::Spawn`] if the
    /// replacement thread cannot be started; either way the process
    /// stays crashed.
    pub fn recover(&self) -> Result<(), RuntimeError> {
        let mut handle = self.handle.lock();
        if handle.is_some() {
            return Ok(()); // still running
        }
        let next = self
            .shared
            .control
            .lock()
            .incarnation
            .checked_add(1)
            .expect("incarnation counter overflow");
        // Persist before resuming sends: crash-during-recovery must never
        // reuse an incarnation already on the wire.
        if let Some(store) = &self.store {
            store.store(next).map_err(|source| RuntimeError::Incarnation { source })?;
        }
        {
            let mut c = self.shared.control.lock();
            c.incarnation = next;
            c.crashed = false;
        }
        match spawn_thread(&self.shared, &self.sender, &self.clock) {
            Ok(h) => {
                *handle = Some(h);
                Ok(())
            }
            Err(e) => {
                self.shared.control.lock().crashed = true;
                Err(e)
            }
        }
    }

    /// Whether the process is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.shared.control.lock().crashed
    }
}

impl Drop for Heartbeater {
    fn drop(&mut self) {
        // Idempotent, non-blocking teardown per C-DTOR-BLOCK: signal and
        // detach-join quickly (the thread wakes immediately on `crashed`).
        self.crash();
    }
}

fn spawn_thread(
    shared: &Arc<Shared>,
    sender: &Arc<Sender>,
    clock: &Arc<dyn Clock>,
) -> Result<std::thread::JoinHandle<()>, RuntimeError> {
    let shared = Arc::clone(shared);
    let sender = Arc::clone(sender);
    let clock = Arc::clone(clock);
    std::thread::Builder::new()
        .name("fd-heartbeater".into())
        .spawn(move || run(shared, sender, clock))
        .map_err(|e| RuntimeError::Spawn { thread: "fd-heartbeater", source: e })
}

fn run(shared: Arc<Shared>, sender: Arc<Sender>, clock: Arc<dyn Clock>) {
    let start = clock.now();
    let mut next_send = start;
    loop {
        let mut control = shared.control.lock();
        loop {
            if control.crashed {
                return;
            }
            let now = clock.now();
            if now >= next_send {
                break;
            }
            let wait = Duration::from_secs_f64((next_send - now).max(1e-6));
            shared.wake.wait_for(&mut control, wait);
        }
        let eta = control.eta;
        control.sent += 1;
        let seq = control.sent;
        drop(control);

        sender.send(Heartbeat::new(seq, clock.now()));
        next_send += eta;
        // If we fell behind (scheduler hiccup), don't burst: realign.
        let now = clock.now();
        if next_send < now {
            next_send = now + eta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{LinkSpec, LossyChannel};
    use crate::{SkewedClock, WallClock};
    use fd_stats::dist::Constant;
    use std::time::Duration;

    fn channel() -> (crate::transport::Sender, crate::transport::Receiver) {
        let spec = LinkSpec::new(0.0, Box::new(Constant::new(0.0005).unwrap())).unwrap();
        let (tx, rx, _worker) = LossyChannel::create(spec, 1);
        (tx, rx)
    }

    #[test]
    fn sends_sequenced_heartbeats_at_rate() {
        let (tx, rx) = channel();
        let hb = Heartbeater::spawn(0.01, tx, WallClock::new()).unwrap();
        let mut seqs = Vec::new();
        for _ in 0..5 {
            seqs.push(rx.recv_timeout(Duration::from_secs(2)).unwrap().seq);
        }
        let sent = hb.crash();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        assert!(sent >= 5);
    }

    #[test]
    fn crash_stops_heartbeats() {
        let (tx, rx) = channel();
        let hb = Heartbeater::spawn(0.005, tx, WallClock::new()).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let sent = hb.crash();
        assert!(hb.is_crashed());
        // Drain everything in flight; nothing further arrives.
        while rx.recv_timeout(Duration::from_millis(30)).is_ok() {}
        assert!(rx.recv_timeout(Duration::from_millis(30)).is_err());
        assert!(sent >= 2, "sent {sent}");
    }

    #[test]
    fn recover_resumes_with_continuing_sequence_numbers() {
        let (tx, rx) = channel();
        let hb = Heartbeater::spawn(0.005, tx, WallClock::new()).unwrap();
        std::thread::sleep(Duration::from_millis(25));
        let sent = hb.crash();
        assert!(sent >= 2);
        while rx.recv_timeout(Duration::from_millis(30)).is_ok() {}

        hb.recover().unwrap();
        assert!(!hb.is_crashed());
        let next = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(
            next.seq > sent,
            "post-recovery seq {} must extend pre-crash count {sent}",
            next.seq
        );
        hb.crash();
    }

    #[test]
    fn recover_is_a_no_op_while_alive() {
        let (tx, rx) = channel();
        let hb = Heartbeater::spawn(0.005, tx, WallClock::new()).unwrap();
        hb.recover().unwrap();
        assert!(!hb.is_crashed());
        assert!(rx.recv_timeout(Duration::from_secs(2)).is_ok());
        hb.crash();
    }

    #[test]
    fn crash_is_idempotent() {
        let (tx, _rx) = channel();
        let hb = Heartbeater::spawn(0.005, tx, WallClock::new()).unwrap();
        std::thread::sleep(Duration::from_millis(15));
        let a = hb.crash();
        let b = hb.crash();
        assert_eq!(a, b);
    }

    #[test]
    fn set_eta_changes_rate() {
        let (tx, rx) = channel();
        let hb = Heartbeater::spawn(0.5, tx, WallClock::new()).unwrap();
        assert_eq!(hb.eta(), 0.5);
        // First heartbeat comes immediately; then speed up drastically.
        let _ = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        hb.set_eta(0.005);
        assert_eq!(hb.eta(), 0.005);
        // At the old rate the next heartbeat is ~0.5 s away; at the new
        // rate several arrive quickly. (The pending wait still uses the
        // old deadline; tolerate one slow gap.)
        let hb2 = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let t0 = std::time::Instant::now();
        let hb3 = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(hb3.seq > hb2.seq);
        assert!(t0.elapsed() < Duration::from_millis(300));
        hb.crash();
    }

    #[test]
    fn recommend_eta_applies_hysteresis() {
        let (tx, _rx) = channel();
        let hb = Heartbeater::spawn(0.5, tx, WallClock::new()).unwrap();
        // Garbage off the wire is dropped, not a panic.
        assert!(!hb.recommend_eta(0.0));
        assert!(!hb.recommend_eta(-1.0));
        assert!(!hb.recommend_eta(f64::NAN));
        assert!(!hb.recommend_eta(f64::INFINITY));
        assert_eq!(hb.eta(), 0.5);
        // Within the 5% deadband: ignored.
        assert!(!hb.recommend_eta(0.51));
        assert_eq!(hb.eta(), 0.5);
        // First material recommendation passes (no dwell history yet).
        assert!(hb.recommend_eta(0.25));
        assert_eq!(hb.eta(), 0.25);
        // A second material change inside the default 5 s dwell is held.
        assert!(!hb.recommend_eta(0.1));
        assert_eq!(hb.eta(), 0.25);
        // Resetting the policy clears the dwell history.
        hb.set_recommendation_hysteresis(HysteresisConfig { min_dwell: 0.0, deadband: 0.05 });
        assert!(hb.recommend_eta(0.1));
        assert_eq!(hb.eta(), 0.1);
        hb.crash();
    }

    #[test]
    fn timestamps_use_senders_clock() {
        let (tx, rx) = channel();
        let skew = 1000.0;
        let hb = Heartbeater::spawn(0.01, tx, SkewedClock::new(WallClock::new(), skew)).unwrap();
        let m = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(m.send_time >= skew, "timestamp {} lacks skew", m.send_time);
        hb.crash();
    }

    #[test]
    fn drop_is_clean_without_explicit_crash() {
        let (tx, _rx) = channel();
        let hb = Heartbeater::spawn(0.01, tx, WallClock::new()).unwrap();
        drop(hb); // must not hang or panic
    }

    #[test]
    #[should_panic(expected = "eta must be positive")]
    fn rejects_zero_eta() {
        let (tx, _rx) = channel();
        let _ = Heartbeater::spawn(0.0, tx, WallClock::new());
    }

    #[test]
    fn recover_bumps_incarnation() {
        let (tx, _rx) = channel();
        let hb = Heartbeater::spawn(0.005, tx, WallClock::new()).unwrap();
        assert_eq!(hb.incarnation(), 0);
        hb.recover().unwrap(); // alive: no-op, no bump
        assert_eq!(hb.incarnation(), 0);
        hb.crash();
        hb.recover().unwrap();
        assert_eq!(hb.incarnation(), 1);
        hb.crash();
        hb.recover().unwrap();
        assert_eq!(hb.incarnation(), 2);
        hb.crash();
    }

    fn temp_store(tag: &str) -> IncarnationStore {
        let path = std::env::temp_dir().join(format!(
            "fd-incarnation-{tag}-{}.txt",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        IncarnationStore::at(path)
    }

    #[test]
    fn incarnation_store_survives_process_restarts() {
        let store = temp_store("restart");
        assert_eq!(store.load().unwrap(), 0, "missing file reads as 0");
        {
            let (tx, _rx) = channel();
            let hb =
                Heartbeater::spawn_persistent(0.005, tx, WallClock::new(), store.clone())
                    .unwrap();
            assert_eq!(hb.incarnation(), 1, "first life is incarnation 1");
            hb.crash();
            hb.recover().unwrap();
            assert_eq!(hb.incarnation(), 2);
            hb.crash();
        }
        // "Restart the process": a new heartbeater on the same store must
        // exceed everything the previous life ever sent.
        let (tx, _rx) = channel();
        let hb =
            Heartbeater::spawn_persistent(0.005, tx, WallClock::new(), store.clone()).unwrap();
        assert_eq!(hb.incarnation(), 3);
        hb.crash();
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn corrupt_incarnation_store_is_an_error_not_a_reset() {
        let store = temp_store("corrupt");
        std::fs::write(store.path(), "not a number").unwrap();
        let err = store.load().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let (tx, _rx) = channel();
        match Heartbeater::spawn_persistent(0.005, tx, WallClock::new(), store.clone()) {
            Err(RuntimeError::Incarnation { .. }) => {}
            Err(other) => panic!("expected Incarnation error, got {other}"),
            Ok(_) => panic!("expected Incarnation error, got a running heartbeater"),
        }
        let _ = std::fs::remove_file(store.path());
    }
}
