//! Per-process clocks.
//!
//! The paper's model (§3.1): local clocks are drift-free (they measure
//! intervals exactly) but, in the §6 setting, *not* synchronized — each
//! process's clock may be offset from real time by an unknown constant.
//! [`WallClock`] is the monotone base clock a spawned cluster monitor
//! runs on; [`SkewedClock`] gives a process its own offset view of it.

use std::sync::Arc;
use std::time::Instant;

/// A monotone clock reporting seconds as `f64` (the unit used throughout
/// the workspace).
pub trait Clock: Send + Sync {
    /// Current local time, in seconds. Must be non-decreasing.
    fn now(&self) -> f64;
}

/// Monotone wall clock: seconds elapsed since an origin `Instant`.
///
/// Cloning shares the origin, so clones are mutually synchronized —
/// handing the *same* `WallClock` to both ends models the §3–§5 setting
/// of synchronized clocks.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Arc<Instant>,
}

impl WallClock {
    /// Creates a wall clock whose time 0 is "now".
    pub fn new() -> Self {
        Self {
            origin: Arc::new(Instant::now()),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// A clock offset from an inner clock by a constant skew — the §6 model
/// of unsynchronized, drift-free clocks.
#[derive(Debug, Clone)]
pub struct SkewedClock<C> {
    inner: C,
    skew: f64,
}

impl<C: Clock> SkewedClock<C> {
    /// Wraps `inner`, adding `skew` seconds to every reading.
    ///
    /// # Panics
    ///
    /// Panics if `skew` is not finite.
    pub fn new(inner: C, skew: f64) -> Self {
        assert!(skew.is_finite(), "clock skew must be finite");
        Self { inner, skew }
    }

    /// The constant skew.
    pub fn skew(&self) -> f64 {
        self.skew
    }
}

impl<C: Clock> Clock for SkewedClock<C> {
    fn now(&self) -> f64 {
        self.inner.now() + self.skew
    }
}

impl<C: Clock + ?Sized> Clock for Arc<C> {
    fn now(&self) -> f64 {
        (**self).now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn wall_clock_is_monotone_and_advances() {
        let c = WallClock::new();
        let t0 = c.now();
        std::thread::sleep(Duration::from_millis(5));
        let t1 = c.now();
        assert!(t1 > t0);
        assert!(t0 >= 0.0);
    }

    #[test]
    fn clones_share_the_origin() {
        let a = WallClock::new();
        let b = a.clone();
        let (ta, tb) = (a.now(), b.now());
        assert!((ta - tb).abs() < 0.05, "clones diverged: {ta} vs {tb}");
    }

    #[test]
    fn skewed_clock_applies_constant_offset() {
        let base = WallClock::new();
        let skewed = SkewedClock::new(base.clone(), 100.0);
        let diff = skewed.now() - base.now();
        assert!((diff - 100.0).abs() < 0.05, "offset {diff}");
        assert_eq!(skewed.skew(), 100.0);
    }

    #[test]
    fn negative_skew_is_allowed() {
        let base = WallClock::new();
        let skewed = SkewedClock::new(base, -1e6);
        assert!(skewed.now() < 0.0);
    }

    #[test]
    #[should_panic(expected = "skew must be finite")]
    fn rejects_nan_skew() {
        SkewedClock::new(WallClock::new(), f64::NAN);
    }

    #[test]
    fn arc_clock_delegates() {
        let c: Arc<dyn Clock> = Arc::new(WallClock::new());
        assert!(c.now() >= 0.0);
    }
}
