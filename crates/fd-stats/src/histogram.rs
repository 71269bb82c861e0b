//! Fixed-bin histograms for delay and metric distributions.

use crate::StatsError;

/// A histogram with uniform bins over `[lo, hi)`, plus underflow/overflow
/// counters.
///
/// Used by the experiment harness to report the empirical distribution of
/// detection times (experiment E10) and mistake durations.
///
/// ```
/// # fn main() -> Result<(), fd_stats::StatsError> {
/// let mut h = fd_stats::Histogram::new(0.0, 10.0, 5)?;
/// for x in [0.5, 1.5, 2.6, 9.9, -1.0, 42.0] {
///     h.record(x);
/// }
/// assert_eq!((h.total(), h.overflow()), (6, 1)); // -1.0 underflows
/// let chart = h.render_ascii(10);
/// assert!(chart.starts_with("[    0.0000,     2.0000)        2 ##########\n"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` uniform bins over `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `lo < hi`, both
    /// finite, and `bins ≥ 1`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(StatsError::InvalidParameter {
                name: "hi",
                constraint: "> lo, both finite",
                value: hi,
            });
        }
        if bins == 0 {
            return Err(StatsError::InvalidParameter {
                name: "bins",
                constraint: ">= 1",
                value: 0.0,
            });
        }
        Ok(Self {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        })
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / width) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[cfg(test)]
    fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// `[lo, hi)` bounds of bin `i`.
    fn bin_bounds(&self, i: usize) -> (f64, f64) {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + i as f64 * width, self.lo + (i + 1) as f64 * width)
    }

    /// Observations below `lo`.
    #[cfg(test)]
    fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Renders a compact ASCII bar chart, one bin per line.
    pub fn render_ascii(&self, width: usize) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.bins.iter().enumerate() {
            let (lo, hi) = self.bin_bounds(i);
            let bar_len = (c as f64 / max as f64 * width as f64).round() as usize;
            out.push_str(&format!(
                "[{lo:>10.4}, {hi:>10.4}) {c:>8} {}\n",
                "#".repeat(bar_len)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        h.record(0.0);
        h.record(1.99);
        h.record(2.0);
        h.record(9.99);
        assert_eq!(h.bin_count(0), 2);
        assert_eq!(h.bin_count(1), 1);
        assert_eq!(h.bin_count(4), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn underflow_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.record(-0.1);
        h.record(1.0);
        h.record(5.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
        assert_eq!(h.bin_count(0) + h.bin_count(1), 0);
    }

    #[test]
    fn bin_bounds_partition_range() {
        let h = Histogram::new(1.0, 3.0, 4).unwrap();
        assert_eq!(h.bin_bounds(0), (1.0, 1.5));
        assert_eq!(h.bin_bounds(3), (2.5, 3.0));
    }

    #[test]
    fn ascii_render_contains_all_bins() {
        let mut h = Histogram::new(0.0, 2.0, 2).unwrap();
        h.record(0.5);
        let s = h.render_ascii(10);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains('#'));
    }

    #[test]
    fn rejects_bad_construction() {
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
        assert!(Histogram::new(2.0, 1.0, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(0.0, f64::INFINITY, 3).is_err());
    }
}
