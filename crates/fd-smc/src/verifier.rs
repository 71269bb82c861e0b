//! Sequential statistical verification: Wald's SPRT over randomized
//! runs, executed by a work-stealing thread pool.
//!
//! For each property the null hypothesis is "the property holds with
//! probability ≤ p₀" and the alternative "≥ p₁" (`p₀ < p₁`); each run's
//! [`Verdict`] feeds every property's [`Sprt`] (undecided runs are
//! skipped). The pool of workers pulls seeds from a shared atomic
//! cursor — no per-thread partitioning, so stragglers (long scenarios)
//! never idle the other workers — and stops when every property has
//! decided (and at least `min_runs` runs completed) or `max_runs` is
//! reached.
//!
//! The final [`SmcReport`] carries, per property: the SPRT decision,
//! trial/success counts, the exact Clopper–Pearson confidence interval
//! on the holding probability, and up to [`MAX_EXAMPLES`] concrete
//! counterexample descriptions (each with its seed — every run is
//! replayable from the spec and the seed alone).

use crate::oracle::{Oracle, Verdict};
use fd_stats::{Sprt, SprtConfig, SprtDecision};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Counterexample descriptions kept per property.
pub const MAX_EXAMPLES: usize = 5;

/// How the verifier samples and when it stops.
#[derive(Debug, Clone, Copy)]
pub struct SmcConfig {
    /// Hypothesis test applied to every property.
    pub sprt: SprtConfig,
    /// Confidence level for the Clopper–Pearson intervals.
    pub confidence: f64,
    /// Never stop before this many runs, even if every SPRT decided
    /// (keeps the confidence intervals meaningful).
    pub min_runs: usize,
    /// Hard cap on runs (undecided SPRTs report `Continue`).
    pub max_runs: usize,
    /// Worker threads (`0` = one per available CPU).
    pub threads: usize,
    /// First seed; run `k` uses seed `seed0 + k`.
    pub seed0: u64,
}

impl SmcConfig {
    /// A solid default: H₀ p ≤ 0.95 vs H₁ p ≥ 0.995 at α = β = 1%,
    /// 99% intervals, 1000–5000 runs.
    pub fn standard() -> Self {
        Self {
            sprt: SprtConfig::new(0.95, 0.995, 0.01, 0.01).expect("valid SPRT config"),
            confidence: 0.99,
            min_runs: 1000,
            max_runs: 5000,
            threads: 0,
            seed0: 1,
        }
    }

    /// A CI-sized smoke variant: same hypotheses, fixed seeds, at most
    /// `runs` runs with no minimum.
    pub fn smoke(runs: usize) -> Self {
        Self {
            min_runs: 0,
            max_runs: runs,
            ..Self::standard()
        }
    }
}

/// Outcome for one property.
#[derive(Debug, Clone)]
pub struct PropertyResult {
    /// Property name (the oracle's).
    pub name: &'static str,
    /// Runs that produced an Accept or Reject for this property.
    pub trials: u64,
    /// Accepts among them.
    pub successes: u64,
    /// Runs that said nothing about this property.
    pub undecided_runs: u64,
    /// The SPRT's decision (`Continue` if `max_runs` hit first).
    pub decision: SprtDecision,
    /// Clopper–Pearson interval on the holding probability.
    pub ci: (f64, f64),
    /// Whether the property is a hard invariant (from
    /// [`Oracle::hard`]).
    pub hard: bool,
    /// Up to [`MAX_EXAMPLES`] counterexample descriptions.
    pub examples: Vec<String>,
}

impl PropertyResult {
    /// `true` when the property must be treated as failed: the SPRT
    /// accepted H₀, or — for hard invariants — any concrete violation
    /// was observed. Soft (statistical) properties tolerate individual
    /// violations as long as the SPRT does not accept H₀.
    pub fn failed(&self) -> bool {
        self.decision == SprtDecision::AcceptH0 || (self.hard && !self.examples.is_empty())
    }
}

/// The verifier's full report.
#[derive(Debug, Clone)]
pub struct SmcReport {
    /// Per-property outcomes, in oracle order.
    pub properties: Vec<PropertyResult>,
    /// Total runs executed.
    pub runs: usize,
    /// First seed used (runs used `seed0 .. seed0 + runs`).
    pub seed0: u64,
}

impl SmcReport {
    /// Whether any property failed (SPRT accepted H₀ or a violation
    /// was observed).
    pub fn any_reject(&self) -> bool {
        self.properties.iter().any(|p| p.failed())
    }

    /// Machine-readable JSON rendering (no external dependencies).
    pub fn to_json(&self) -> String {
        use fmt::Write as _;
        let mut out = String::with_capacity(256 + self.properties.len() * 256);
        let _ = write!(
            out,
            "{{\"runs\":{},\"seed0\":{},\"any_reject\":{},\"properties\":[",
            self.runs,
            self.seed0,
            self.any_reject()
        );
        for (i, p) in self.properties.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"decision\":\"{}\",\"trials\":{},\"successes\":{},\
                 \"undecided_runs\":{},\"ci_low\":{:.6},\"ci_high\":{:.6},\"hard\":{},\
                 \"failed\":{},\"examples\":[",
                p.name,
                decision_str(p.decision),
                p.trials,
                p.successes,
                p.undecided_runs,
                p.ci.0,
                p.ci.1,
                p.hard,
                p.failed()
            );
            for (j, e) in p.examples.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", json_escape(e));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for SmcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} runs (seeds {}..{}):", self.runs, self.seed0, self.seed0 + self.runs as u64)?;
        for p in &self.properties {
            // A hard invariant with any observed violation is FAIL even
            // if the SPRT (which only sees rates) would accept H₁.
            let label = if p.failed() { "FAIL" } else { decision_str(p.decision) };
            writeln!(
                f,
                "  {:10} {:28} {}/{} accepts ({} silent), p ∈ [{:.4}, {:.4}]",
                label,
                p.name,
                p.successes,
                p.trials,
                p.undecided_runs,
                p.ci.0,
                p.ci.1
            )?;
            let tag = if p.failed() {
                "counterexample"
            } else {
                "violation (within accepted rate)"
            };
            for e in &p.examples {
                writeln!(f, "             {tag}: {e}")?;
            }
        }
        Ok(())
    }
}

fn decision_str(d: SprtDecision) -> &'static str {
    match d {
        SprtDecision::AcceptH1 => "PASS",
        SprtDecision::AcceptH0 => "FAIL",
        SprtDecision::Continue => "UNDECIDED",
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

struct PropertyState {
    sprt: Sprt,
    undecided_runs: u64,
    examples: Vec<String>,
}

/// Runs the statistical model checker: `execute(seed)` produces one run
/// record, every oracle judges it, and each property's SPRT accumulates
/// until decided.
///
/// Work-stealing: worker threads pull the next seed from a shared
/// cursor, so heterogeneous run costs balance automatically.
pub fn run_smc<R, F>(
    cfg: &SmcConfig,
    execute: F,
    oracles: &[Box<dyn Oracle<R>>],
) -> SmcReport
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    assert!(!oracles.is_empty(), "need at least one oracle");
    assert!(cfg.max_runs >= 1, "need at least one run");
    assert!(cfg.min_runs <= cfg.max_runs, "min_runs must not exceed max_runs");

    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        cfg.threads
    };

    let states: Vec<Mutex<PropertyState>> = oracles
        .iter()
        .map(|_| {
            Mutex::new(PropertyState {
                sprt: Sprt::new(cfg.sprt),
                undecided_runs: 0,
                examples: Vec::new(),
            })
        })
        .collect();
    let cursor = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= cfg.max_runs {
                    break;
                }
                let record = execute(cfg.seed0 + k as u64);
                for (oracle, state) in oracles.iter().zip(&states) {
                    let verdict = oracle.judge(&record);
                    let mut st = state.lock().expect("poisoned");
                    match verdict {
                        Verdict::Accept => {
                            st.sprt.observe(true);
                        }
                        Verdict::Reject(why) => {
                            st.sprt.observe(false);
                            if st.examples.len() < MAX_EXAMPLES {
                                st.examples.push(why);
                            }
                        }
                        Verdict::Undecided => st.undecided_runs += 1,
                    }
                }
                let done = completed.fetch_add(1, Ordering::AcqRel) + 1;
                if done >= cfg.min_runs {
                    let all_decided = states.iter().all(|s| {
                        s.lock().expect("poisoned").sprt.decision() != SprtDecision::Continue
                    });
                    if all_decided {
                        stop.store(true, Ordering::Release);
                        break;
                    }
                }
            });
        }
    });

    let runs = completed.load(Ordering::Acquire);
    let properties = oracles
        .iter()
        .zip(states)
        .map(|(oracle, state)| {
            let st = state.into_inner().expect("poisoned");
            let decision = st.sprt.decision();
            PropertyResult {
                name: oracle.name(),
                trials: st.sprt.trials(),
                successes: st.sprt.successes(),
                undecided_runs: st.undecided_runs,
                decision,
                ci: st.sprt.confidence_interval(cfg.confidence),
                hard: oracle.hard(),
                examples: st.examples,
            }
        })
        .collect();

    SmcReport {
        properties,
        runs,
        seed0: cfg.seed0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Always(Verdict);
    impl Oracle<u64> for Always {
        fn name(&self) -> &'static str {
            "always"
        }
        fn judge(&self, _: &u64) -> Verdict {
            self.0.clone()
        }
    }

    /// Rejects exactly the runs whose seed is divisible by `1/rate`.
    struct FailEvery(u64);
    impl Oracle<u64> for FailEvery {
        fn name(&self) -> &'static str {
            "fail-every"
        }
        fn judge(&self, seed: &u64) -> Verdict {
            if seed.is_multiple_of(self.0) {
                Verdict::Reject(format!("seed {seed}"))
            } else {
                Verdict::Accept
            }
        }
    }

    #[test]
    fn all_accept_reaches_pass_quickly() {
        let cfg = SmcConfig {
            min_runs: 0,
            max_runs: 2000,
            threads: 2,
            ..SmcConfig::standard()
        };
        let oracles: Vec<Box<dyn Oracle<u64>>> = vec![Box::new(Always(Verdict::Accept))];
        let report = run_smc(&cfg, |s| s, &oracles);
        assert_eq!(report.properties[0].decision, SprtDecision::AcceptH1);
        assert!(!report.any_reject());
        // The SPRT for 0.95 vs 0.995 at 1% errors decides in well under
        // 2000 all-accept runs.
        assert!(report.runs < 1000, "took {} runs", report.runs);
        // CI brackets 1.
        assert!(report.properties[0].ci.1 > 0.99);
    }

    #[test]
    fn frequent_failures_reach_fail() {
        let cfg = SmcConfig {
            min_runs: 0,
            max_runs: 3000,
            threads: 3,
            ..SmcConfig::standard()
        };
        let oracles: Vec<Box<dyn Oracle<u64>>> = vec![Box::new(FailEvery(5))];
        let report = run_smc(&cfg, |s| s, &oracles);
        let p = &report.properties[0];
        assert_eq!(p.decision, SprtDecision::AcceptH0);
        assert!(report.any_reject());
        assert!(!p.examples.is_empty());
        assert!(p.examples.len() <= MAX_EXAMPLES);
        // The interval excludes the H1 region.
        assert!(p.ci.1 < 0.995);
    }

    /// Soft variant of [`FailEvery`]: same judgments, but statistical.
    struct SoftFailEvery(u64);
    impl Oracle<u64> for SoftFailEvery {
        fn name(&self) -> &'static str {
            "soft-fail-every"
        }
        fn hard(&self) -> bool {
            false
        }
        fn judge(&self, seed: &u64) -> Verdict {
            if seed.is_multiple_of(self.0) {
                Verdict::Reject(format!("seed {seed}"))
            } else {
                Verdict::Accept
            }
        }
    }

    #[test]
    fn soft_property_tolerates_rare_violations_but_hard_does_not() {
        // One violation in 1000 runs: well inside H1 (p ≥ 0.995).
        let cfg = SmcConfig {
            min_runs: 1000,
            max_runs: 1000,
            threads: 2,
            seed0: 1,
            ..SmcConfig::standard()
        };
        let oracles: Vec<Box<dyn Oracle<u64>>> =
            vec![Box::new(SoftFailEvery(1000)), Box::new(FailEvery(1000))];
        let report = run_smc(&cfg, |s| s, &oracles);
        let (soft, hard) = (&report.properties[0], &report.properties[1]);
        assert_eq!(soft.decision, SprtDecision::AcceptH1);
        assert!(!soft.examples.is_empty(), "the violation is still reported");
        assert!(!soft.failed(), "soft property passes on the SPRT's rate decision");
        assert!(hard.failed(), "hard invariant fails on a single counterexample");
        assert!(report.any_reject());
    }

    #[test]
    fn undecided_runs_do_not_count_as_trials() {
        let cfg = SmcConfig {
            min_runs: 0,
            max_runs: 50,
            threads: 1,
            ..SmcConfig::standard()
        };
        let oracles: Vec<Box<dyn Oracle<u64>>> = vec![Box::new(Always(Verdict::Undecided))];
        let report = run_smc(&cfg, |s| s, &oracles);
        let p = &report.properties[0];
        assert_eq!(p.trials, 0);
        assert_eq!(p.undecided_runs, 50);
        assert_eq!(p.decision, SprtDecision::Continue);
        assert_eq!(p.ci, (0.0, 1.0));
        assert!(!report.any_reject(), "silence is not failure");
    }

    #[test]
    fn min_runs_is_respected_even_after_decision() {
        let cfg = SmcConfig {
            min_runs: 500,
            max_runs: 600,
            threads: 4,
            ..SmcConfig::standard()
        };
        let oracles: Vec<Box<dyn Oracle<u64>>> = vec![Box::new(Always(Verdict::Accept))];
        let report = run_smc(&cfg, |s| s, &oracles);
        assert!(report.runs >= 500, "stopped at {} < min_runs", report.runs);
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let cfg = SmcConfig {
            min_runs: 0,
            max_runs: 40,
            threads: 2,
            ..SmcConfig::standard()
        };
        let oracles: Vec<Box<dyn Oracle<u64>>> =
            vec![Box::new(FailEvery(7)), Box::new(Always(Verdict::Accept))];
        let report = run_smc(&cfg, |s| s, &oracles);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"fail-every\""));
        assert!(json.contains("\"always\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
    }

    #[test]
    fn every_seed_is_used_exactly_once() {
        let cfg = SmcConfig {
            min_runs: 0,
            max_runs: 200,
            threads: 8,
            seed0: 100,
            ..SmcConfig::standard()
        };
        let seen = Mutex::new(Vec::new());
        let oracles: Vec<Box<dyn Oracle<u64>>> = vec![Box::new(Always(Verdict::Undecided))];
        run_smc(
            &cfg,
            |s| {
                seen.lock().unwrap().push(s);
                s
            },
            &oracles,
        );
        let mut seeds = seen.into_inner().unwrap();
        seeds.sort_unstable();
        assert_eq!(seeds, (100..300).collect::<Vec<u64>>());
    }
}
