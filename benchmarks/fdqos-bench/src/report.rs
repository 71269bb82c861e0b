//! Metric and workload tables, and the container one workload run fills.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two equal.

use crate::json::Json;
use crate::stats::Reported;
use crate::trace::Span;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the stack sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen.
    pub bound: f64,
    /// Workloads that report it; empty means every workload. Only the
    /// metrics every workload reports can be listed under `end_to_end`
    /// in `BENCHMARK.json`; the others ride in its `per_layer` list and
    /// are gated by `fdqos-bench compare`.
    pub workloads: &'static [&'static str],
}

const DETECT: &[&str] = &["steady_detect", "persist_detect"];
const PERSIST: &[&str] = &["persist_detect"];
const CONSUMER: &[&str] = &["consumer_mix"];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        workloads: &[],
    },
    EndToEnd {
        name: "hb_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        workloads: &[],
    },
    EndToEnd {
        name: "cpu_us_per_hb",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        workloads: &[],
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        workloads: &[],
    },
    EndToEnd {
        name: "detect_excess_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        workloads: DETECT,
    },
    EndToEnd {
        name: "detect_excess_ms_p99",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        workloads: DETECT,
    },
    EndToEnd {
        name: "detect_td_ms_p99",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        workloads: DETECT,
    },
    EndToEnd {
        name: "retrust_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        workloads: DETECT,
    },
    EndToEnd {
        name: "retrust_us_p99",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        workloads: DETECT,
    },
    EndToEnd {
        name: "restore_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        workloads: PERSIST,
    },
    EndToEnd {
        name: "status_reads_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        workloads: CONSUMER,
    },
    EndToEnd {
        name: "consumer_cycle_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        workloads: CONSUMER,
    },
    EndToEnd {
        name: "scrape_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        workloads: CONSUMER,
    },
];

impl EndToEnd {
    pub fn on_every_workload(&self) -> bool {
        self.workloads.is_empty()
    }

    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }
}

/// `(name, unit, better)` of each single-layer metric, in print order.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("gen.late_us_p50", "us", Better::Lower),
    ("gen.late_us_p99", "us", Better::Lower),
    ("gen.window_waits", "count", Better::Lower),
    ("net.send_ns_per_hb", "ns", Better::Lower),
    ("net.hb_per_datagram", "count", Better::Higher),
    ("net.datagrams_received", "count", Better::Higher),
    ("net.entries_received", "count", Better::Higher),
    ("net.rejected", "count", Better::Lower),
    ("net.entries_shed", "count", Better::Lower),
    ("net.recv_errors", "count", Better::Lower),
    ("net.pump_restarts", "count", Better::Lower),
    ("mmsg.recv_ns_per_datagram", "ns", Better::Lower),
    ("mmsg.send_ns_per_datagram", "ns", Better::Lower),
    ("mmsg.recv_fill", "count", Better::Higher),
    ("wire.encode_ns_per_hb", "ns", Better::Lower),
    ("wire.decode_ns_per_hb", "ns", Better::Lower),
    ("wire.decode_ns_per_datagram", "ns", Better::Lower),
    ("wire.bytes_per_hb", "count", Better::Lower),
    ("monitor.record_ns_p50", "ns", Better::Lower),
    ("monitor.record_ns_p99", "ns", Better::Lower),
    ("monitor.add_peer_us", "us", Better::Lower),
    ("monitor.unknown_heartbeats", "count", Better::Lower),
    ("monitor.stale_incarnation_rejects", "count", Better::Lower),
    ("monitor.incarnation_resets", "count", Better::Lower),
    ("wheel.schedule_ns", "ns", Better::Lower),
    ("wheel.advance_ns_per_expiry", "ns", Better::Lower),
    ("wheel.timers_fired", "count", Better::Lower),
    ("wheel.fires_per_hb", "count", Better::Lower),
    ("wheel.useful_fire_frac", "ratio", Better::Higher),
    ("wheel.expirations_deferred", "count", Better::Lower),
    ("ticker.ticks_per_s", "1/s", Better::Higher),
    ("ticker.lag_us_p50", "us", Better::Lower),
    ("ticker.lag_us_p99", "us", Better::Lower),
    ("events.fanout_us_p50", "us", Better::Lower),
    ("events.fanout_us_p99", "us", Better::Lower),
    ("events.dropped", "count", Better::Lower),
    ("ingest.path_us_p50", "us", Better::Lower),
    ("ingest.path_us_p99", "us", Better::Lower),
    ("ingest.hb_per_s_at_50k_peers", "1/s", Better::Higher),
    ("read.status_ns_p50", "ns", Better::Lower),
    ("read.snapshot_ms_p50", "ms", Better::Lower),
    ("exporter.render_ms_p50", "ms", Better::Lower),
    ("exporter.bytes_per_peer", "count", Better::Lower),
    ("election.candidates_ms_p50", "ms", Better::Lower),
    ("election.observe_ms_p50", "ms", Better::Lower),
    ("election.leader_changes", "count", Better::Higher),
    ("snapshot.save_ms_p50", "ms", Better::Lower),
    ("snapshot.encode_us_per_peer", "us", Better::Lower),
    ("snapshot.decode_us_per_peer", "us", Better::Lower),
    ("snapshot.bytes_per_peer", "count", Better::Lower),
    ("snapshot.written", "count", Better::Higher),
    ("snapshot.errors", "count", Better::Lower),
    ("sim.ns_per_hb.nfd_s", "ns", Better::Lower),
    ("sim.ns_per_hb.nfd_e", "ns", Better::Lower),
    ("sim.ns_per_hb.sfd_l", "ns", Better::Lower),
    ("metrics.analyze_ns_per_transition", "ns", Better::Lower),
    ("core.analysis_ms", "ms", Better::Lower),
    ("trace.ingest_reconcile_ratio", "ratio", Better::Lower),
    ("trace.overhead_frac", "ratio", Better::Lower),
];

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Metric `trace.overhead_frac` compares between a traced and an
    /// untraced run.
    pub headline: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "flood_ingest",
        why: "Capacity: 512 peers (state stays in L2), ~44 hb per datagram, closed loop; the pump saturates, so shard lock, NFD-E update, seqlock publish and wheel arm set the rate. Ticker and wheel idle.",
        headline: "hb_per_s",
    },
    Workload {
        name: "steady_detect",
        why: "The paper's regime: 20k peers, one hb per datagram, open loop at 100k hb/s, a crash every 3 ms; timer fires, per-datagram syscall and decode cost and event fan-out do the work.",
        headline: "cpu_us_per_hb",
    },
    Workload {
        name: "persist_detect",
        why: "steady_detect with a snapshot written every second on the ticker thread: its stall shows as detection tail, and the only workload with snapshot encode, decode and restore on the path.",
        headline: "cpu_us_per_hb",
    },
    Workload {
        name: "consumer_mix",
        why: "Reads beside writes with sockets bypassed: status reads, snapshot, election round and scrape against 100k direct records per second. Transport work must leave this row unchanged.",
        headline: "consumer_cycle_ms_p50",
    },
    Workload {
        name: "fig12_sim",
        why: "The reproduction user: fd-sim runs of NFD-S, NFD-E and SFD-L in the Fig. 12 setting plus accuracy analysis; calls nothing in fd-cluster, so cluster work must leave it flat.",
        headline: "hb_per_s",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Unit of a declared metric; `None` for a name in neither table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Per-window (or per-repetition) values behind `value`; `compare`
    /// reads the file's own spread from them.
    pub windows: Vec<f64>,
    /// Sample count and percentile level, where the metric has them.
    pub note: String,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct WorkloadResult {
    pub workload: &'static str,
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed, and the first few reasons.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub spans: Vec<Span>,
}

impl WorkloadResult {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            ..Self::default()
        }
    }

    fn declared(name: &'static str) -> &'static str {
        unit_of(name).unwrap_or_else(|| panic!("metric {name} is in neither table of report.rs"))
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_full(name, value, Vec::new(), String::new());
    }

    pub fn set_windows(&mut self, name: &'static str, value: f64, windows: Vec<f64>) {
        self.set_full(name, value, windows, String::new());
    }

    /// Stores a percentile report scaled by `scale` (for a unit change).
    pub fn set_reported(&mut self, name: &'static str, r: &Reported, scale: f64) {
        let windows = r.windows.iter().map(|w| w * scale).collect();
        self.set_full(
            name,
            r.value * scale,
            windows,
            format!("{} over {} samples", r.level, r.samples),
        );
    }

    fn set_full(&mut self, name: &'static str, value: f64, windows: Vec<f64>, note: String) {
        let unit = Self::declared(name);
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            value,
            unit,
            windows,
            note,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn check(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            if self.failures.len() < 16 {
                self.failures.push(format!("{failed} of {n}: {what}"));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Prints `workload metric value unit` for every metric measured,
    /// end-to-end first.
    pub fn print(&self) {
        let rank = |m: &Metric| {
            END_TO_END
                .iter()
                .position(|e| e.name == m.name)
                .unwrap_or_else(|| {
                    END_TO_END.len() + PER_LAYER.iter().position(|p| p.0 == m.name).unwrap_or(0)
                })
        };
        let mut sorted: Vec<&Metric> = self.metrics.iter().collect();
        sorted.sort_by_key(|m| rank(m));
        for m in sorted {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  # {}", m.note)
            };
            println!(
                "{} {} {} {}{}",
                self.workload, m.name, m.value, m.unit, note
            );
        }
        println!(
            "{} failed_frac {} ratio  # {} failed of {} attempted",
            self.workload,
            self.failed_frac(),
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            println!("# {} FAILED {}", self.workload, f);
        }
    }

    /// The result-file form of this run.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                        (
                            "windows".into(),
                            Json::Arr(m.windows.iter().map(|w| Json::Num(*w)).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// The one-line object the benchmark contract asks for: every
    /// `end_to_end` metric of `BENCHMARK.json` for an untraced run, every
    /// `per_layer` metric (0 where the workload bypasses the layer) for a
    /// traced one.
    pub fn contract_line(&self, traced: bool) -> String {
        let entry = |name: &str, unit: &str| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(self.get(name).unwrap_or(0.0))),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        };
        let metrics: Vec<(String, Json)> = if traced {
            contract_per_layer()
                .map(|(name, unit, _)| entry(name, unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| m.on_every_workload())
                .map(|m| entry(m.name, m.unit))
                .collect()
        };
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_line()
    }
}

/// Path of the result file a run of `workload` leaves under `out/`.
pub fn result_path(workload: &str) -> std::path::PathBuf {
    crate::sys::out_dir().join(format!("result-{workload}.json"))
}

/// A metric of the last untraced run of `workload`, from its result
/// file; `None` if there is none.
pub fn saved_metric(workload: &str, metric: &str) -> Option<f64> {
    let text = std::fs::read_to_string(result_path(workload)).ok()?;
    Json::parse(&text)
        .ok()?
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// The result-file document of one run.
pub fn results_document(seed: u64, seconds: f64, commit: &str, result: &WorkloadResult) -> Json {
    Json::Obj(vec![
        ("commit".into(), Json::Str(commit.into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("nproc".into(), Json::Num(crate::sys::nproc() as f64)),
        (
            "network".into(),
            Json::Str("host loopback, no injected loss or delay".into()),
        ),
        (
            "workloads".into(),
            Json::Obj(vec![(result.workload.to_string(), result.to_json())]),
        ),
    ])
}

/// `per_layer` of `BENCHMARK.json`: the workload-specific end-to-end
/// metrics first, then the single-layer ones.
pub fn contract_per_layer() -> impl Iterator<Item = (&'static str, &'static str, Better)> {
    END_TO_END
        .iter()
        .filter(|m| !m.on_every_workload())
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the program prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        let str_of = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();

        let e2e: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    str_of(m, "name"),
                    str_of(m, "unit"),
                    str_of(m, "better"),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .filter(|m| m.on_every_workload())
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = contract_per_layer()
            .map(|(n, u, b)| (n.into(), u.into(), b.as_str().into()))
            .collect();
        assert_eq!(layers, want);

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.into(), w.why.into()))
            .collect();
        assert_eq!(workloads, want);
        assert!(
            WORKLOADS.iter().all(|w| w.why.len() <= 200),
            "a why has at most 200 characters"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let n = names.len();
        assert!(names.iter().all(|s| s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(contract_per_layer().count() <= 128);
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let mut r = WorkloadResult::new("flood_ingest");
        r.set("setup_s", 0.25);
        r.set("hb_per_s", 1.5e6);
        r.check(10, 0, "nothing");
        let v = Json::parse(&r.contract_line(false)).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), 4);
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("hb_per_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.5e6)
        );
        let traced = Json::parse(&r.contract_line(true)).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().as_obj().unwrap().len(),
            contract_per_layer().count()
        );
    }
}
