//! Restart policy of every supervised thread in this crate — ticker,
//! control loop, receive pumps, control-listener pump, metrics accept
//! loop: `supervise` is the one `catch_unwind` restart loop they all
//! run under, and [`restart_delay`] the pause it takes before each
//! restart. `fd-federation`'s NACK repair pacing reuses the delay rule —
//! a receiver re-requesting a full refresh backs off like a crashed pump
//! does, for the same reason: a fleet of receivers that all lost the
//! same frame must not re-request in lock-step.
//!
//! Two ingredients:
//!
//! * **bounded exponential growth** — the n-th restart waits on the
//!   order of `base · 2ⁿ`, capped, so a persistently-panicking loop
//!   cannot spin at full speed while its restart budget drains;
//! * **uniform jitter** — the wait is scaled by a uniform factor in
//!   `[0.5, 1.5)`. Supervised threads across a fleet (or several
//!   monitors in one process) that all tripped on the same poisoned
//!   input would otherwise restart in lock-step and re-collide on
//!   shared resources; jitter decorrelates the retries, the same
//!   remedy exponential-backoff networks apply.

use crate::{unpoison, Health};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The delay before restart number `restarts` (1-based): `base · 2ⁿ⁻¹`
/// capped at `cap`, then jittered by a uniform factor in `[0.5, 1.5)`.
/// The jitter is applied after the cap, so the worst case is `1.5 · cap`.
pub fn restart_delay(
    rng: &mut StdRng,
    restarts: u64,
    base: Duration,
    cap: Duration,
) -> Duration {
    let doublings = restarts.saturating_sub(1).min(6) as u32;
    let exp = base.mul_f64(f64::from(1u32 << doublings)).min(cap);
    exp.mul_f64(rng.random_range(0.5..1.5))
}

/// Restarts each supervised thread gets after a panic before it stops
/// for good (reported as [`Health::Stopped`]).
pub(crate) const MAX_RESTARTS: u64 = 8;

/// What differs between the crate's supervised threads: the health
/// cell and restart counter their owner exposes, and the base and cap
/// of the pause before a restart.
pub(crate) struct Supervised {
    pub health: Mutex<Health>,
    /// Restarts after a panic, the one past the budget included.
    restarts: AtomicU64,
    base: Duration,
    cap: Duration,
}

impl Supervised {
    pub fn new(base: Duration, cap: Duration) -> Self {
        Self { health: Mutex::new(Health::Healthy), restarts: AtomicU64::new(0), base, cap }
    }

    /// The policy of a loop that sleeps out its pause while a socket
    /// buffers for it: brief (2 ms doubling to 50 ms) — enough that a
    /// persistent panic (poisoned input replayed by a sender, a cause
    /// shared by a fleet) neither restart-spins nor restarts a fleet in
    /// lock-step.
    pub fn brief() -> Self {
        Self::new(Duration::from_millis(2), Duration::from_millis(50))
    }

    pub fn health(&self) -> Health {
        unpoison(self.health.lock()).clone()
    }

    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }
}

/// Runs `life` — one life of a thread's loop — under `catch_unwind`
/// until it returns (`Some` of what it returned) or must not be
/// restarted (`None`). A panic is counted; within [`MAX_RESTARTS`] it
/// degrades the health to the panic message and `life` runs again after
/// `pause(restart_delay)`, which waits that long however the thread
/// waits (on its stop channel, or asleep) and returns `false` if the
/// thread was told to stop meanwhile. Several threads may share one
/// [`Supervised`] (the receive pumps do): the budget is per thread, the
/// counter and the health are shared. The final health — `Stopped`, or
/// whatever a surviving sibling warrants — is the caller's to set.
pub(crate) fn supervise<T>(
    sup: &Supervised,
    mut life: impl FnMut() -> T,
    mut pause: impl FnMut(Duration) -> bool,
) -> Option<T> {
    let mut rng = StdRng::from_os_rng();
    let mut restarts: u64 = 0;
    loop {
        let payload = match panic::catch_unwind(AssertUnwindSafe(&mut life)) {
            Ok(done) => return Some(done),
            Err(payload) => payload,
        };
        restarts += 1;
        sup.restarts.fetch_add(1, Ordering::Relaxed);
        if restarts > MAX_RESTARTS {
            return None;
        }
        *unpoison(sup.health.lock()) = Health::Degraded { reason: panic_reason(payload.as_ref()) };
        if !pause(restart_delay(&mut rng, restarts, sup.base, sup.cap)) {
            return None;
        }
    }
}

/// Extracts a printable reason from a caught panic payload.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_exponentially_and_caps() {
        let mut rng = StdRng::seed_from_u64(7);
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(250);
        for restarts in 1..=12u64 {
            let d = restart_delay(&mut rng, restarts, base, cap);
            let doublings = restarts.saturating_sub(1).min(6) as u32;
            let nominal = base.mul_f64(f64::from(1u32 << doublings)).min(cap);
            assert!(d >= nominal.mul_f64(0.5), "restart {restarts}: {d:?} < half nominal");
            assert!(d <= nominal.mul_f64(1.5), "restart {restarts}: {d:?} > 1.5x nominal");
        }
    }

    #[test]
    fn jitter_actually_varies() {
        let mut rng = StdRng::seed_from_u64(11);
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(1);
        let draws: Vec<Duration> =
            (0..16).map(|_| restart_delay(&mut rng, 1, base, cap)).collect();
        let all_equal = draws.windows(2).all(|w| w[0] == w[1]);
        assert!(!all_equal, "sixteen draws came out identical: {draws:?}");
    }
}
