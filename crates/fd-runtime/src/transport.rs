//! In-process lossy transport with real wall-clock delays.
//!
//! Substitutes for a physical network: each sent heartbeat is dropped
//! with probability `p_L` or scheduled for delivery after an i.i.d. delay
//! drawn from `D` — exactly the §3.1 link law — but the waiting happens
//! in real time on a delivery thread, so monitors experience genuine
//! asynchrony, jitter and reordering.

use crate::RuntimeError;
use crossbeam::channel;
use fd_core::Heartbeat;
use fd_sim::{FaultInjector, FaultPlan};
use fd_stats::DelayDistribution;
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default capacity of the delivered-heartbeat channel. Bounded so a
/// stalled monitor caps memory at the channel instead of growing an
/// unbounded queue; overflow drops are counted, not silent.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 1024;

/// Error constructing a [`LinkSpec`]: the loss probability was outside
/// `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BadLossProbability(pub f64);

impl std::fmt::Display for BadLossProbability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "message loss probability must lie in [0, 1], got {}", self.0)
    }
}

impl std::error::Error for BadLossProbability {}

/// Specification of a link's probabilistic behavior: `(p_L, D)`.
pub struct LinkSpec {
    loss_probability: f64,
    delay: Box<dyn DelayDistribution>,
}

impl std::fmt::Debug for LinkSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkSpec")
            .field("loss_probability", &self.loss_probability)
            .field("delay", &self.delay)
            .finish()
    }
}

impl LinkSpec {
    /// Creates a link spec with loss probability `loss_probability` and
    /// delay law `delay`.
    ///
    /// # Errors
    ///
    /// Returns [`BadLossProbability`] if it is outside `[0, 1]`.
    pub fn new(
        loss_probability: f64,
        delay: Box<dyn DelayDistribution>,
    ) -> Result<Self, BadLossProbability> {
        if !(0.0..=1.0).contains(&loss_probability) {
            return Err(BadLossProbability(loss_probability));
        }
        Ok(Self {
            loss_probability,
            delay,
        })
    }

    /// The loss probability `p_L`.
    pub fn loss_probability(&self) -> f64 {
        self.loss_probability
    }

    /// The delay law `D`.
    pub fn delay(&self) -> &dyn DelayDistribution {
        self.delay.as_ref()
    }
}

#[derive(Debug)]
struct Scheduled {
    due: Instant,
    seq: u64,
    hb: Heartbeat,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.due.cmp(&other.due).then(self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Default)]
struct SharedQueue {
    heap: BinaryHeap<Reverse<Scheduled>>,
    closed: bool,
}

struct Inner {
    queue: Mutex<SharedQueue>,
    wake: Condvar,
    /// Heartbeats discarded because the delivery channel was full.
    overflow_drops: AtomicU64,
}

/// The sender's randomness and fault state, behind one lock.
struct SenderState {
    rng: StdRng,
    injector: Option<FaultInjector>,
}

/// Sending half of a [`LossyChannel`].
pub struct Sender {
    inner: Arc<Inner>,
    state: Mutex<SenderState>,
    loss: f64,
    delay: Box<dyn DelayDistribution>,
    /// Origin of the fault plan's timeline.
    start: Instant,
}

/// Receiving half of a [`LossyChannel`]: a plain crossbeam receiver of
/// delivered heartbeats.
pub type Receiver = channel::Receiver<Heartbeat>;

/// An in-process channel that applies the `(p_L, D)` law with real
/// wall-clock delays.
pub struct LossyChannel;

impl LossyChannel {
    /// Creates the channel; returns the sender, the receiver, and the
    /// join handle of the delivery thread (it exits when the sender is
    /// dropped and the queue drains). The delivered-heartbeat channel is
    /// bounded at [`DEFAULT_CHANNEL_CAPACITY`]; see
    /// [`Sender::overflow_drops`].
    ///
    /// Kept panic-free in practice but infallible in signature for the
    /// common path; use [`LossyChannel::build`] to handle spawn errors.
    pub fn create(spec: LinkSpec, seed: u64) -> (Sender, Receiver, std::thread::JoinHandle<()>) {
        Self::build(spec, seed, None, DEFAULT_CHANNEL_CAPACITY)
            .expect("spawn delivery thread")
    }

    /// Creates the channel with a scripted [`FaultPlan`] overlaid on the
    /// link law. The plan's timeline starts when this call returns; its
    /// randomness derives from `plan.seed() ^ seed` so equal seeds
    /// reproduce equal fault realizations.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Spawn`] if the delivery thread cannot be
    /// started.
    pub fn create_with_plan(
        spec: LinkSpec,
        seed: u64,
        plan: &FaultPlan,
        capacity: usize,
    ) -> Result<(Sender, Receiver, std::thread::JoinHandle<()>), RuntimeError> {
        Self::build(spec, seed ^ plan.seed(), Some(plan.injector()), capacity)
    }

    /// Like [`LossyChannel::create`], with an explicit heartbeat channel
    /// capacity (clamped to at least 1) and a `Result` instead of a
    /// panic on spawn failure.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Spawn`] if the delivery thread cannot be
    /// started.
    pub fn create_with_capacity(
        spec: LinkSpec,
        seed: u64,
        capacity: usize,
    ) -> Result<(Sender, Receiver, std::thread::JoinHandle<()>), RuntimeError> {
        Self::build(spec, seed, None, capacity)
    }

    fn build(
        spec: LinkSpec,
        seed: u64,
        injector: Option<FaultInjector>,
        capacity: usize,
    ) -> Result<(Sender, Receiver, std::thread::JoinHandle<()>), RuntimeError> {
        let (tx, rx) = channel::bounded(capacity.max(1));
        let inner = Arc::new(Inner {
            queue: Mutex::new(SharedQueue::default()),
            wake: Condvar::new(),
            overflow_drops: AtomicU64::new(0),
        });
        let worker_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("fd-lossy-delivery".into())
            .spawn(move || delivery_loop(worker_inner, tx))
            .map_err(|e| RuntimeError::Spawn { thread: "fd-lossy-delivery", source: e })?;
        let sender = Sender {
            inner,
            state: Mutex::new(SenderState {
                rng: StdRng::seed_from_u64(seed),
                injector,
            }),
            loss: spec.loss_probability,
            delay: spec.delay,
            start: Instant::now(),
        };
        Ok((sender, rx, handle))
    }
}

fn delivery_loop(inner: Arc<Inner>, tx: channel::Sender<Heartbeat>) {
    let mut queue = inner.queue.lock();
    loop {
        let now = Instant::now();
        // Deliver everything due.
        while queue
            .heap
            .peek()
            .is_some_and(|Reverse(s)| s.due <= now)
        {
            let Reverse(s) = queue.heap.pop().expect("peeked");
            // Bounded channel: a stalled monitor sheds the newest
            // heartbeat (counted) instead of growing memory; a vanished
            // receiver just drains.
            if let Err(channel::TrySendError::Full(_)) = tx.try_send(s.hb) {
                inner.overflow_drops.fetch_add(1, Ordering::Relaxed);
            }
        }
        if queue.closed && queue.heap.is_empty() {
            return;
        }
        match queue.heap.peek() {
            Some(Reverse(s)) => {
                let due = s.due;
                let timeout = due.saturating_duration_since(Instant::now());
                inner.wake.wait_for(&mut queue, timeout.max(Duration::from_micros(50)));
            }
            None => {
                inner.wake.wait(&mut queue);
            }
        }
    }
}

impl Sender {
    /// Sends a heartbeat: drops it with probability `p_L` or schedules
    /// delivery after a fresh delay draw, then applies the active
    /// [`FaultPlan`] segment (if any) — which may drop it, delay it
    /// further, or duplicate it. Returns whether at least one copy was
    /// scheduled (it may still be in flight).
    pub fn send(&self, hb: Heartbeat) -> bool {
        let mut deliveries: Vec<f64> = Vec::with_capacity(2);
        {
            let mut state = self.state.lock();
            let base = if self.loss > 0.0 && state.rng.random::<f64>() < self.loss {
                None
            } else {
                Some(self.delay.sample(&mut state.rng))
            };
            let SenderState { rng, injector } = &mut *state;
            match injector {
                None => deliveries.extend(base),
                Some(inj) => {
                    let t = self.start.elapsed().as_secs_f64();
                    inj.apply(t, base, rng, &mut deliveries);
                }
            }
        }
        if deliveries.is_empty() {
            return false;
        }
        let now = Instant::now();
        let mut queue = self.inner.queue.lock();
        for delay in deliveries {
            queue.heap.push(Reverse(Scheduled {
                due: now + Duration::from_secs_f64(delay.max(0.0)),
                seq: hb.seq,
                hb,
            }));
        }
        drop(queue);
        self.inner.wake.notify_one();
        true
    }

    /// Heartbeats discarded because the bounded delivery channel was
    /// full (a stalled or slow monitor).
    pub fn overflow_drops(&self) -> u64 {
        self.inner.overflow_drops.load(Ordering::Relaxed)
    }
}

impl Drop for Sender {
    fn drop(&mut self) {
        let mut queue = self.inner.queue.lock();
        queue.closed = true;
        drop(queue);
        self.inner.wake.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_stats::dist::Constant;
    use std::time::Duration;

    fn spec(loss: f64, delay_s: f64) -> LinkSpec {
        LinkSpec::new(loss, Box::new(Constant::new(delay_s).unwrap())).unwrap()
    }

    #[test]
    fn delivers_in_order_with_constant_delay() {
        let (tx, rx, worker) = LossyChannel::create(spec(0.0, 0.005), 1);
        for seq in 1..=5u64 {
            tx.send(Heartbeat::new(seq, seq as f64));
        }
        let mut got = Vec::new();
        for _ in 0..5 {
            got.push(rx.recv_timeout(Duration::from_secs(2)).unwrap().seq);
        }
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
        drop(tx);
        worker.join().unwrap();
    }

    #[test]
    fn delivery_respects_delay_magnitude() {
        let (tx, rx, worker) = LossyChannel::create(spec(0.0, 0.02), 2);
        let t0 = std::time::Instant::now();
        tx.send(Heartbeat::new(1, 1.0)); // due at +20 ms
        let hb = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let waited = t0.elapsed();
        assert_eq!(hb.seq, 1);
        assert!(
            waited >= Duration::from_millis(15),
            "delivered too early: {waited:?}"
        );
        drop(tx);
        worker.join().unwrap();
    }

    #[test]
    fn reorders_when_delays_cross() {
        use fd_stats::dist::Mixture;
        use fd_stats::DelayDistribution;
        // Bimodal law: half the messages take ~1 ms, half ~40 ms. Among
        // many consecutive sends some MUST overtake slower predecessors.
        let law = Mixture::new(vec![
            (0.5, Box::new(Constant::new(0.001).unwrap()) as Box<dyn DelayDistribution>),
            (0.5, Box::new(Constant::new(0.04).unwrap())),
        ])
        .unwrap();
        let (tx, rx, worker) =
            LossyChannel::create(LinkSpec::new(0.0, Box::new(law)).unwrap(), 7);
        for seq in 1..=20u64 {
            tx.send(Heartbeat::new(seq, 0.0));
        }
        let mut order = Vec::new();
        for _ in 0..20 {
            order.push(rx.recv_timeout(Duration::from_secs(2)).unwrap().seq);
        }
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=20).collect::<Vec<_>>(), "all delivered");
        assert_ne!(order, sorted, "expected at least one overtake");
        drop(tx);
        worker.join().unwrap();
    }

    #[test]
    fn lossy_channel_drops_messages() {
        let (tx, rx, worker) = LossyChannel::create(spec(1.0, 0.001), 3);
        for seq in 1..=20u64 {
            assert!(!tx.send(Heartbeat::new(seq, 0.0)));
        }
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        drop(tx);
        worker.join().unwrap();
    }

    #[test]
    fn partial_loss_statistics() {
        let (tx, rx, worker) = LossyChannel::create(spec(0.5, 0.0001), 4);
        let mut survived = 0;
        let n = 2000;
        for seq in 1..=n {
            if tx.send(Heartbeat::new(seq, 0.0)) {
                survived += 1;
            }
        }
        let frac = survived as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "survival fraction {frac}");
        // All survivors are eventually delivered.
        let mut delivered = 0;
        while rx.recv_timeout(Duration::from_millis(200)).is_ok() {
            delivered += 1;
        }
        assert_eq!(delivered, survived);
        drop(tx);
        worker.join().unwrap();
    }

    #[test]
    fn worker_exits_after_sender_drop() {
        let (tx, _rx, worker) = LossyChannel::create(spec(0.0, 0.001), 5);
        tx.send(Heartbeat::new(1, 0.0));
        drop(tx);
        worker.join().unwrap();
    }

    #[test]
    fn rejects_bad_loss_probability() {
        assert!(LinkSpec::new(1.5, Box::new(Constant::new(0.1).unwrap())).is_err());
        let s = spec(0.25, 0.1);
        assert_eq!(s.loss_probability(), 0.25);
        assert!((s.delay().mean() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn bounded_channel_counts_overflow_drops() {
        use fd_sim::FaultPlan;
        // Capacity 4, nobody reading: pushing many due-immediately
        // heartbeats must shed the excess and count every drop.
        let (tx, rx, worker) =
            LossyChannel::create_with_plan(spec(0.0, 0.0), 1, &FaultPlan::new(0), 4).unwrap();
        for seq in 1..=50u64 {
            tx.send(Heartbeat::new(seq, 0.0));
        }
        // Let the delivery thread flush the heap.
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            tx.overflow_drops() >= 40,
            "expected ≥40 overflow drops, got {}",
            tx.overflow_drops()
        );
        assert_eq!(rx.len(), 4, "channel holds exactly its capacity");
        drop(tx);
        drop(rx);
        worker.join().unwrap();
    }

    #[test]
    fn fault_plan_partition_blocks_then_heals() {
        use fd_sim::{FaultPlan, LinkFault};
        // Partition for the first 100 ms of the channel's life.
        let plan = FaultPlan::new(3)
            .link_fault(0.0, LinkFault::Partition)
            .link_fault(0.1, LinkFault::Nominal);
        let (tx, rx, worker) =
            LossyChannel::create_with_plan(spec(0.0, 0.001), 7, &plan, 64).unwrap();
        assert!(!tx.send(Heartbeat::new(1, 0.0)), "partitioned send");
        std::thread::sleep(Duration::from_millis(120));
        assert!(tx.send(Heartbeat::new(2, 0.0)), "healed send");
        let got = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got.seq, 2);
        drop(tx);
        worker.join().unwrap();
    }

    #[test]
    fn fault_plan_duplication_delivers_twice() {
        use fd_sim::{FaultPlan, LinkFault};
        let plan = FaultPlan::new(4).link_fault(
            0.0,
            LinkFault::Duplicate {
                probability: 1.0,
                lag: 0.005,
            },
        );
        let (tx, rx, worker) =
            LossyChannel::create_with_plan(spec(0.0, 0.001), 8, &plan, 64).unwrap();
        assert!(tx.send(Heartbeat::new(9, 1.5)));
        let a = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let b = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!((a.seq, b.seq), (9, 9), "both copies of the same heartbeat");
        assert_eq!(a.send_time, b.send_time);
        drop(tx);
        worker.join().unwrap();
    }
}
