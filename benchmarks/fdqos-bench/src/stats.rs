//! Percentile rule, window medians and the run-level summary of a
//! latency sample.
//!
//! `fd_stats::Summary` has a median and quantiles too; they are not used
//! here because `fd-stats` is code `fig12_sim` measures, and the yardstick
//! must not move with what it measures.

/// Percentile ladder the reports choose from, as `(label, fraction,
/// smallest sample that leaves ten samples beyond it)`.
pub const LADDER: [(&str, f64, usize); 4] = [
    ("p50", 0.50, 20),
    ("p90", 0.90, 100),
    ("p99", 0.99, 1_000),
    ("p99.9", 0.999, 10_000),
];

/// Median of `values` (mean of the two middle ones for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the driver of `BENCHMARK.json` measures spread that way);
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k(n+1)/4 counting from 1, clamped into the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let frac = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    Some((at(1), at(3)))
}

/// The `q`-quantile of an ascending-sorted sample (nearest rank).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Index into [`LADDER`] of the highest percentile that still has at
/// least ten samples beyond it in a sample of `n` — a p99 needs 1 000
/// samples, a p99.9 needs 10 000. `None` below 20 samples, where not
/// even the median has ten on each side.
pub fn highest_supported(n: usize) -> Option<usize> {
    LADDER.iter().rposition(|&(_, _, needs)| n >= needs)
}

/// A timing sample split into equal windows of the measured phase.
#[derive(Debug, Clone, Default)]
pub struct Windowed {
    windows: Vec<Vec<f64>>,
}

/// One reported percentile: the median over the windows, the windows'
/// own values, and what the sample could support.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    /// Median of the per-window values.
    pub value: f64,
    /// The per-window values, in window order.
    pub windows: Vec<f64>,
    /// Total samples over all windows.
    pub samples: usize,
    /// Label of the percentile actually computed. It is lower than the
    /// one asked for when the smallest window cannot support that.
    pub level: &'static str,
}

impl Windowed {
    /// An empty sample over `windows` windows.
    pub fn new(windows: usize) -> Self {
        Self {
            windows: vec![Vec::new(); windows.max(1)],
        }
    }

    /// Adds `value` to window `window` (clamped to the last one).
    pub fn push(&mut self, window: usize, value: f64) {
        let last = self.windows.len() - 1;
        self.windows[window.min(last)].push(value);
    }

    /// Window index of an instant `t` seconds into a measured phase of
    /// `span` seconds.
    pub fn window_of(&self, t: f64, span: f64) -> usize {
        let n = self.windows.len();
        (((t / span) * n as f64).max(0.0) as usize).min(n - 1)
    }

    /// Total samples.
    pub fn len(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// The percentile `LADDER[want]`, computed per window and reported as
    /// the median over the windows. Steps down the ladder until every
    /// non-empty window has ten samples beyond the level.
    pub fn report(&self, want: usize) -> Reported {
        let smallest = self
            .windows
            .iter()
            .map(Vec::len)
            .filter(|&n| n > 0)
            .min()
            .unwrap_or(0);
        let level = highest_supported(smallest).unwrap_or(0).min(want);
        let (label, q, _) = LADDER[level];
        let windows: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                let mut s = w.clone();
                s.sort_by(f64::total_cmp);
                quantile_sorted(&s, q)
            })
            .collect();
        Reported {
            value: median(&windows),
            windows,
            samples: self.len(),
            level: label,
        }
    }
}

/// Index of `p50` in [`LADDER`].
pub const P50: usize = 0;
/// Index of `p99` in [`LADDER`].
pub const P99: usize = 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20).map(|i| LADDER[i].0), Some("p50"));
        assert_eq!(highest_supported(99).map(|i| LADDER[i].0), Some("p50"));
        assert_eq!(highest_supported(100).map(|i| LADDER[i].0), Some("p90"));
        assert_eq!(highest_supported(999).map(|i| LADDER[i].0), Some("p90"));
        assert_eq!(highest_supported(1_000).map(|i| LADDER[i].0), Some("p99"));
        assert_eq!(highest_supported(9_999).map(|i| LADDER[i].0), Some("p99"));
        assert_eq!(
            highest_supported(10_000).map(|i| LADDER[i].0),
            Some("p99.9")
        );
    }

    #[test]
    fn window_median_of_per_window_percentiles() {
        let mut w = Windowed::new(4);
        // Window k holds 1000 samples k*1000+1 ..= k*1000+1000.
        for k in 0..4 {
            for i in 1..=1000 {
                w.push(k, (k * 1000 + i) as f64);
            }
        }
        let p99 = w.report(P99);
        assert_eq!(p99.level, "p99");
        assert_eq!(p99.windows, vec![990.0, 1990.0, 2990.0, 3990.0]);
        assert_eq!(p99.value, 2490.0);
        assert_eq!(p99.samples, 4000);
        let p50 = w.report(P50);
        assert_eq!(p50.windows, vec![500.0, 1500.0, 2500.0, 3500.0]);
        assert_eq!(p50.value, 2000.0);
    }

    #[test]
    fn report_steps_down_when_a_window_is_thin() {
        let mut w = Windowed::new(2);
        for i in 0..1000 {
            w.push(0, i as f64);
        }
        for i in 0..150 {
            w.push(1, i as f64);
        }
        assert_eq!(w.report(P99).level, "p90");
        assert_eq!(w.report(P50).level, "p50");
    }

    #[test]
    fn window_of_clamps() {
        let w = Windowed::new(4);
        assert_eq!(w.window_of(0.0, 12.0), 0);
        assert_eq!(w.window_of(2.99, 12.0), 0);
        assert_eq!(w.window_of(3.0, 12.0), 1);
        assert_eq!(w.window_of(11.99, 12.0), 3);
        assert_eq!(w.window_of(12.5, 12.0), 3);
        assert_eq!(w.window_of(-1.0, 12.0), 0);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some((1.0, 4.0)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
