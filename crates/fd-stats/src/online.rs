//! Streaming statistics.
//!
//! The paper's estimators (§5.2, §6.2.2) compute the average and variance
//! of heartbeat delays "for multiple past heartbeat messages", and the
//! adaptive detector of §8.1 recomputes them periodically over "the `n`
//! most recent heartbeats". [`OnlineStats`] is the unbounded (all-history)
//! estimator; [`WindowedStats`] is the sliding-window variant.

/// Welford's online algorithm for mean and variance.
///
/// Numerically stable single-pass estimator; O(1) memory.
///
/// ```
/// let mut s = fd_stats::OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`); `0.0` for fewer than 2
    /// observations.
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n − 1`); `0.0` for fewer than 2
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// The accumulated sum of squared deviations (`M₂` in Welford's
    /// recurrence). Together with [`count`](Self::count) and
    /// [`mean`](Self::mean) this is the accumulator's complete state —
    /// see [`from_parts`](Self::from_parts).
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Sum of all observations (`count · mean`).
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }

    /// Rebuilds an accumulator from its raw state, the inverse of reading
    /// `(count(), mean(), m2())` — for persistence layers that checkpoint
    /// streaming statistics and resume them after a restart.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is non-finite or `m2` is negative or non-finite
    /// (no push sequence produces such a state).
    pub fn from_parts(count: u64, mean: f64, m2: f64) -> Self {
        assert!(mean.is_finite(), "mean must be finite");
        assert!(m2.is_finite() && m2 >= 0.0, "m2 must be finite and nonnegative");
        Self { count, mean, m2 }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

/// Mean and variance over a sliding window of the last `capacity`
/// observations.
///
/// This is the estimator shape prescribed in §6.3: "q considers the `n`
/// most recent heartbeat messages". Uses a ring buffer and recomputes
/// moments incrementally (add newest, subtract evicted), with a periodic
/// full recomputation to cap floating-point drift.
#[derive(Debug, Clone)]
pub struct WindowedStats {
    buf: Vec<f64>,
    cap: usize,
    head: usize,
    sum: f64,
    sumsq: f64,
    pushes_since_rebuild: usize,
}

impl WindowedStats {
    /// Creates a window holding the most recent `capacity` observations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            sum: 0.0,
            sumsq: 0.0,
            pushes_since_rebuild: 0,
        }
    }

    /// Window capacity `n`.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of observations currently in the window.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the window holds no observations.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Adds an observation, evicting the oldest if at capacity.
    #[inline]
    pub fn push(&mut self, x: f64) {
        if self.buf.len() < self.cap {
            self.buf.push(x);
            self.sum += x;
            self.sumsq += x * x;
        } else {
            let old = self.buf[self.head];
            self.buf[self.head] = x;
            // A compare, not `%`: this runs once per heartbeat of every
            // NFD-E instance, and a 64-bit division costs more than the
            // rest of the update.
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.sum += x - old;
            self.sumsq += x * x - old * old;
        }
        self.pushes_since_rebuild += 1;
        // Periodically rebuild to bound floating-point drift from the
        // add/subtract updates.
        if self.pushes_since_rebuild >= 4096 {
            self.rebuild();
        }
    }

    /// Empties the window in place: afterwards it is indistinguishable
    /// from a fresh [`with_capacity`](Self::with_capacity) of the same
    /// capacity (same sums, same rebuild schedule), but keeps its buffer.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.sum = 0.0;
        self.sumsq = 0.0;
        self.pushes_since_rebuild = 0;
    }

    fn rebuild(&mut self) {
        self.sum = self.buf.iter().sum();
        self.sumsq = self.buf.iter().map(|x| x * x).sum();
        self.pushes_since_rebuild = 0;
    }

    /// Mean of the windowed observations; `0.0` when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            self.sum / self.buf.len() as f64
        }
    }

    /// Population variance of the windowed observations; `0.0` for fewer
    /// than 2 observations. Clamped at zero against rounding.
    pub fn population_variance(&self) -> f64 {
        let n = self.buf.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.sumsq / n as f64 - m * m).max(0.0)
    }

    /// Iterates over the windowed values, oldest first: the ring's two
    /// contiguous runs in turn (`head` stays 0 until the window fills),
    /// so a whole-window walk costs no division per value.
    pub fn iter(&self) -> impl Iterator<Item = f64> + Clone + '_ {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs = [1.5, 2.5, 2.5, 9.0, -3.0, 0.0, 4.25];
        let s: OnlineStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.population_variance() - var).abs() < 1e-12);
        assert_eq!(s.count(), xs.len() as u64);
    }

    #[test]
    fn empty_and_singleton() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        s.push(5.0);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [10.0, 20.0, 30.0, 40.0];
        let mut a: OnlineStats = xs.iter().copied().collect();
        let b: OnlineStats = ys.iter().copied().collect();
        a.merge(&b);
        let all: OnlineStats = xs.iter().chain(ys.iter()).copied().collect();
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.population_variance() - all.population_variance()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn window_evicts_oldest() {
        let mut w = WindowedStats::with_capacity(3);
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.push(x);
        }
        assert_eq!(w.len(), 3);
        let vals: Vec<f64> = w.iter().collect();
        assert_eq!(vals, vec![2.0, 3.0, 4.0]);
        assert!((w.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn window_variance_matches_direct() {
        let mut w = WindowedStats::with_capacity(4);
        for x in [5.0, 1.0, 9.0, 2.0, 7.0, 3.0] {
            w.push(x);
        }
        let vals: Vec<f64> = w.iter().collect();
        assert_eq!(vals, vec![9.0, 2.0, 7.0, 3.0]);
        let mean = vals.iter().sum::<f64>() / 4.0;
        let var = vals.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / 4.0;
        assert!((w.population_variance() - var).abs() < 1e-10);
    }

    #[test]
    fn window_partial_fill() {
        let mut w = WindowedStats::with_capacity(10);
        w.push(2.0);
        w.push(4.0);
        assert_eq!(w.len(), 2);
        assert!((w.mean() - 3.0).abs() < 1e-12);
        assert!((w.population_variance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_rebuild_controls_drift() {
        let mut w = WindowedStats::with_capacity(8);
        for i in 0..10_000 {
            w.push((i % 17) as f64 * 0.1 + 1e9);
        }
        let vals: Vec<f64> = w.iter().collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-3, "drift check");
    }

    #[test]
    fn cleared_window_behaves_like_a_fresh_one() {
        let mut used = WindowedStats::with_capacity(3);
        for x in [1e9, 2.5, -7.0, 4.0, 0.125] {
            used.push(x);
        }
        used.clear();
        assert!(used.is_empty());
        assert_eq!((used.capacity(), used.mean()), (3, 0.0));
        let mut fresh = WindowedStats::with_capacity(3);
        for x in [0.1, 0.2, 0.3, 0.4] {
            used.push(x);
            fresh.push(x);
            assert_eq!(used.mean().to_bits(), fresh.mean().to_bits());
            let (a, b) = (used.population_variance(), fresh.population_variance());
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(used.iter().collect::<Vec<_>>(), fresh.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn window_rejects_zero_capacity() {
        WindowedStats::with_capacity(0);
    }

    #[test]
    fn parts_roundtrip() {
        let s: OnlineStats = [1.5, 2.0, 8.0, -3.0].into_iter().collect();
        let rebuilt = OnlineStats::from_parts(s.count(), s.mean(), s.m2());
        assert_eq!(rebuilt, s);
        assert!((s.sum() - 8.5).abs() < 1e-12);
        // A resumed accumulator keeps accepting observations seamlessly.
        let mut a = rebuilt;
        let mut b = s;
        a.push(4.0);
        b.push(4.0);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "m2 must be finite and nonnegative")]
    fn from_parts_rejects_negative_m2() {
        OnlineStats::from_parts(3, 1.0, -0.5);
    }

    proptest! {
        #[test]
        fn prop_welford_nonnegative_variance(xs in proptest::collection::vec(-1e6f64..1e6, 0..200)) {
            let s: OnlineStats = xs.iter().copied().collect();
            prop_assert!(s.population_variance() >= 0.0);
            prop_assert!(s.sample_variance() >= 0.0);
        }

        #[test]
        fn prop_merge_associates_with_concat(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..50),
            ys in proptest::collection::vec(-1e3f64..1e3, 1..50),
        ) {
            let mut a: OnlineStats = xs.iter().copied().collect();
            let b: OnlineStats = ys.iter().copied().collect();
            a.merge(&b);
            let all: OnlineStats = xs.iter().chain(ys.iter()).copied().collect();
            prop_assert!((a.mean() - all.mean()).abs() < 1e-9);
            prop_assert!((a.population_variance() - all.population_variance()).abs() < 1e-6);
        }

        #[test]
        fn prop_window_matches_tail(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
            cap in 1usize..20,
        ) {
            let mut w = WindowedStats::with_capacity(cap);
            for &x in &xs {
                w.push(x);
            }
            let tail: Vec<f64> = xs.iter().rev().take(cap).rev().copied().collect();
            let got: Vec<f64> = w.iter().collect();
            prop_assert_eq!(got, tail.clone());
            let mean = tail.iter().sum::<f64>() / tail.len() as f64;
            prop_assert!((w.mean() - mean).abs() < 1e-8);
        }
    }
}
