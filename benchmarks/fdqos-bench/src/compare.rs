//! `fdqos-bench compare a.json b.json`: every end-to-end metric of every
//! workload in both files, judged by its direction and bound.

use crate::json::Json;
use crate::report::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// A file's own window-to-window spread exceeds the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric of one workload in one file.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub windows: Vec<f64>,
}

impl Sample {
    /// Distance between the first and third quartile of the windows as
    /// a share of their median; 0 with fewer than two.
    pub fn spread(&self) -> f64 {
        let mid = median(&self.windows);
        match quartiles(&self.windows) {
            Some((q1, q3)) if mid != 0.0 => (q3 - q1) / mid.abs(),
            _ => 0.0,
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`; negative when
/// better.
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(spec: &EndToEnd, a: &Sample, b: &Sample) -> Verdict {
    if a.spread() > spec.bound || b.spread() > spec.bound {
        let every_b_better = b.windows.iter().all(|&wb| {
            a.windows
                .iter()
                .all(|&wa| worse_by(spec.better, wa, wb) < 0.0)
        });
        return if every_b_better && !b.windows.is_empty() && !a.windows.is_empty() {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by(spec.better, a.value, b.value) > spec.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn sample(doc: &Json, workload: &str, metric: &str) -> Option<Sample> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    Some(Sample {
        value: m.get("value")?.as_f64()?,
        windows: m
            .get("windows")
            .and_then(Json::as_arr)
            .map(|w| w.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
    })
}

fn failed_frac(doc: &Json, workload: &str) -> Option<f64> {
    let w = doc.get("workloads")?.get(workload)?;
    Some(w.get("failed")?.as_f64()? / w.get("attempted")?.as_f64()?.max(1.0))
}

/// Prints one row per workload × metric present in both documents and
/// returns how many rows are `worse` (a higher `failed_frac` counts).
pub fn compare(a: &Json, b: &Json) -> usize {
    println!(
        "{:<15} {:<22} {:<7} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "better", "a", "b", "worse by", "bound"
    );
    let mut worse = 0;
    for w in WORKLOADS {
        for spec in END_TO_END.iter().filter(|m| m.applies_to(w.name)) {
            let (Some(sa), Some(sb)) = (sample(a, w.name, spec.name), sample(b, w.name, spec.name))
            else {
                continue;
            };
            let v = verdict(spec, &sa, &sb);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:<15} {:<22} {:<7} {:>14.6} {:>14.6} {:>8.1}% {:>5.0}%  {}",
                w.name,
                spec.name,
                spec.better.as_str(),
                sa.value,
                sb.value,
                100.0 * worse_by(spec.better, sa.value, sb.value),
                100.0 * spec.bound,
                v.as_str()
            );
        }
        if let (Some(fa), Some(fb)) = (failed_frac(a, w.name), failed_frac(b, w.name)) {
            let v = if fb > fa { Verdict::Worse } else { Verdict::Ok };
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:<15} {:<22} {:<7} {:>14.6} {:>14.6} {:>9} {:>6}  {}",
                w.name,
                "failed_frac",
                "lower",
                fa,
                fb,
                "",
                "0%",
                v.as_str()
            );
        }
    }
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn s(value: f64, windows: &[f64]) -> Sample {
        Sample {
            value,
            windows: windows.to_vec(),
        }
    }

    #[test]
    fn lower_is_better_metrics() {
        let m = spec("scrape_ms_p50"); // bound 10 %
        let a = s(1.00, &[0.99, 1.00, 1.00, 1.01]);
        assert_eq!(
            verdict(m, &a, &s(1.05, &[1.04, 1.05, 1.05, 1.06])),
            Verdict::Ok
        );
        assert_eq!(
            verdict(m, &a, &s(1.20, &[1.19, 1.20, 1.20, 1.21])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(m, &a, &s(0.50, &[0.49, 0.50, 0.50, 0.51])),
            Verdict::Ok
        );
    }

    #[test]
    fn higher_is_better_metrics() {
        let m = spec("status_reads_per_s"); // bound 10 %
        let a = s(1.0e6, &[1.0e6, 1.0e6]);
        assert_eq!(verdict(m, &a, &s(0.95e6, &[0.95e6, 0.95e6])), Verdict::Ok);
        assert_eq!(
            verdict(m, &a, &s(0.85e6, &[0.85e6, 0.85e6])),
            Verdict::Worse
        );
        assert_eq!(verdict(m, &a, &s(1.50e6, &[1.5e6, 1.5e6])), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let m = spec("scrape_ms_p50");
        let noisy = s(1.0, &[0.8, 1.0, 1.0, 1.3]);
        let steady = s(1.3, &[1.29, 1.30, 1.30, 1.31]);
        // 30 % worse by the medians, but file a's own windows span 50 %.
        assert_eq!(verdict(m, &noisy, &steady), Verdict::Unresolved);
        assert_eq!(verdict(m, &steady, &noisy), Verdict::Unresolved);
        // Unless every window of b beats every window of a.
        assert_eq!(
            verdict(m, &noisy, &s(0.5, &[0.4, 0.5, 0.5, 0.7])),
            Verdict::Ok
        );
    }

    #[test]
    fn compare_counts_worse_rows_and_failed_frac() {
        let doc = |excess: f64, failed: f64| {
            Json::parse(&format!(
                r#"{{"workloads": {{"steady_detect": {{"attempted": 1000, "failed": {failed},
                   "metrics": {{"detect_excess_ms_p50": {{"value": {excess}, "unit": "ms", "windows": [{excess}, {excess}]}},
                                "restore_ms": {{"value": 1, "unit": "ms", "windows": []}}}}}}}}}}"#
            ))
            .unwrap()
        };
        assert_eq!(compare(&doc(1.0, 0.0), &doc(1.0, 0.0)), 0);
        assert_eq!(compare(&doc(1.0, 0.0), &doc(1.5, 0.0)), 1);
        assert_eq!(compare(&doc(1.0, 0.0), &doc(1.5, 3.0)), 2);
        // restore_ms is not a steady_detect metric: never compared there.
        assert_eq!(compare(&doc(1.0, 2.0), &doc(1.0, 1.0)), 0);
    }
}
