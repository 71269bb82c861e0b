//! `fdqos-bench`: end-to-end and per-layer benchmark of the chen-fd-qos
//! stack, driven from outside through public functions only.
//!
//! ```text
//! fdqos-bench run     --workload <name|all> [--seed N] [--seconds S] [--smoke] [--out FILE]
//! fdqos-bench trace   --workload <name|all> [--seed N] [--seconds S]
//! fdqos-bench compare <a.json> <b.json>
//! fdqos-bench --workload <name> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last form is the one `BENCHMARK.json` names: one workload, and as
//! the last line of standard output one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod compare;
mod gen;
mod json;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use report::{results_document, WorkloadResult, END_TO_END, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const DEFAULT_SEED: u64 = 20_260_706;
/// Measured seconds of `run`; also `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 12.0;
const TRACE_SECONDS: f64 = 8.0;
const SMOKE_SECONDS: f64 = 2.0;

#[derive(Debug, PartialEq)]
enum Command {
    Run {
        workload: String,
        seed: u64,
        seconds: f64,
        smoke: bool,
        out: Option<PathBuf>,
    },
    Trace {
        workload: String,
        seed: u64,
        seconds: f64,
    },
    Compare {
        a: PathBuf,
        b: PathBuf,
    },
    /// The benchmark contract's invocation.
    Contract {
        workload: String,
        seed: u64,
        seconds: f64,
        traced: bool,
    },
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage:\n  fdqos-bench run --workload <name|all> [--seed N] [--seconds S] [--smoke] [--out FILE]\n  \
         fdqos-bench trace --workload <name|all> [--seed N] [--seconds S]\n  \
         fdqos-bench compare <a.json> <b.json>\n  \
         fdqos-bench --workload <name> --seed N --seconds S --trace <0|1>\nworkloads: {}",
        names.join(", ")
    )
}

/// Parses the command line. Unlike `fd_bench::Settings::parse`, an
/// unknown flag is an error: a mistyped `--sed 7` must not silently run
/// the default seed.
fn parse(args: &[String]) -> Result<Command, String> {
    let (sub, rest) = match args.first().map(String::as_str) {
        Some(s @ ("run" | "trace" | "compare")) => (s, &args[1..]),
        _ => ("", args),
    };
    if sub == "compare" {
        return match rest {
            [a, b] if !a.starts_with("--") && !b.starts_with("--") => Ok(Command::Compare {
                a: a.into(),
                b: b.into(),
            }),
            _ => Err("compare takes exactly two result files".into()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace_flag, mut smoke, mut out) =
        (None, None, None, None, false, None);
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value("--seconds")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && (0.5..=600.0).contains(&s)) {
                    return Err("--seconds must lie in 0.5..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" if sub.is_empty() => {
                trace_flag = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--smoke" if sub == "run" => smoke = true,
            "--out" if sub == "run" => out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let known = WORKLOADS.iter().any(|w| w.name == workload);
    if !(known || (workload == "all" && !sub.is_empty())) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = seed.unwrap_or(DEFAULT_SEED);
    Ok(match sub {
        "run" => Command::Run {
            workload,
            seed,
            seconds: seconds.unwrap_or(if smoke { SMOKE_SECONDS } else { RUN_SECONDS }),
            smoke,
            out,
        },
        "trace" => Command::Trace {
            workload,
            seed,
            seconds: seconds.unwrap_or(TRACE_SECONDS),
        },
        _ => Command::Contract {
            workload,
            seed,
            seconds: seconds.unwrap_or(RUN_SECONDS),
            traced: trace_flag.ok_or("--trace <0|1> is required without a subcommand")?,
        },
    })
}

fn header(seed: u64, seconds: f64, mode: &str) -> String {
    let commit = sys::commit();
    println!(
        "# fdqos-bench {mode}: nproc {}, commit {commit}, seed {seed}, {seconds} s measured per workload",
        sys::nproc()
    );
    println!("# traffic crosses the host loopback, not a real link: no injected loss or delay");
    println!("# at most 2 bench threads, one UDP socket, pump_threads 1");
    commit
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: runs `sub` once per workload, each in a process of
/// its own, as the driver of `BENCHMARK.json` does — so a workload's
/// `peak_rss_mb` and allocator state are its own, not its predecessors'.
/// Returns whether every child succeeded.
fn each_in_its_own_process(sub: &str, seed: u64, seconds: f64, smoke: bool) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("fdqos-bench: cannot find its own executable: {e}");
            return false;
        }
    };
    WORKLOADS.iter().fold(true, |ok, w| {
        let status = std::process::Command::new(&exe)
            .args([sub, "--workload", w.name])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .args(smoke.then_some("--smoke"))
            .status();
        ok & status.is_ok_and(|s| s.success())
    })
}

/// One document out of the result files the children of a
/// `run --workload all` left under `out/`.
fn merged_results() -> Option<json::Json> {
    let mut merged: Option<Vec<(String, json::Json)>> = None;
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let text = std::fs::read_to_string(report::result_path(w.name)).ok()?;
        let json::Json::Obj(fields) = json::Json::parse(&text).ok()? else {
            return None;
        };
        workloads.push((
            w.name.to_string(),
            fields
                .iter()
                .find(|(k, _)| k == "workloads")?
                .1
                .get(w.name)?
                .clone(),
        ));
        merged.get_or_insert(fields);
    }
    let mut fields = merged?;
    fields.retain(|(k, _)| k != "workloads");
    fields.push(("workloads".into(), json::Json::Obj(workloads)));
    Some(json::Json::Obj(fields))
}

fn write_document(path: &std::path::Path, doc: &json::Json) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, doc.to_line() + "\n"));
    match written {
        Ok(()) => println!("# results written to {}", path.display()),
        Err(e) => println!("# could not write {}: {e}", path.display()),
    }
}

fn execute(workload: &str, seed: u64, seconds: f64, traced: bool) -> WorkloadResult {
    let w = report::workload(workload).expect("workload names are checked when parsing");
    println!("# {}: {}", w.name, w.why);
    let ctx = workloads::Ctx {
        seed,
        seconds,
        traced,
        origin: Instant::now(),
    };
    let mut result = workloads::run(w.name, &ctx).expect("every workload of the table runs");
    if traced {
        finish_trace(&mut result);
    }
    result
}

/// Writes the spans out, prints self time per layer, and sets
/// `trace.overhead_frac`: how much worse the workload's headline metric
/// reads traced than in the last untraced run.
fn finish_trace(result: &mut WorkloadResult) {
    let w = report::workload(result.workload).expect("known workload");
    let spec = END_TO_END
        .iter()
        .find(|m| m.name == w.headline)
        .expect("headline is an end-to-end metric");
    let overhead = match (
        report::saved_metric(w.name, w.headline),
        result.get(w.headline),
    ) {
        (Some(untraced), Some(traced)) => compare::worse_by(spec.better, untraced, traced),
        _ => {
            println!(
                "# {}: no untraced result under out/ to compare with; trace.overhead_frac reads 0",
                w.name
            );
            0.0
        }
    };
    result.set("trace.overhead_frac", overhead);
    trace::print_self_times(result.workload, &result.spans);
    let path = sys::out_dir().join(format!("trace-{}.jsonl", result.workload));
    match std::fs::create_dir_all(sys::out_dir())
        .and_then(|()| trace::write_jsonl(&path, &result.spans))
    {
        Ok(()) => println!(
            "# {}: {} spans written to {}",
            result.workload,
            result.spans.len(),
            path.display()
        ),
        Err(e) => println!(
            "# {}: could not write {}: {e}",
            result.workload,
            path.display()
        ),
    }
}

fn save(path: &std::path::Path, seed: u64, seconds: f64, commit: &str, result: &WorkloadResult) {
    write_document(path, &results_document(seed, seconds, commit, result));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fdqos-bench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Compare { a, b } => {
            let load = |p: &PathBuf| {
                std::fs::read_to_string(p)
                    .map_err(|e| e.to_string())
                    .and_then(|t| json::Json::parse(&t))
            };
            match (load(&a), load(&b)) {
                (Ok(a), Ok(b)) => {
                    let worse = compare::compare(&a, &b);
                    println!("# {worse} worse");
                    exit_code(worse == 0)
                }
                (a, b) => {
                    for e in [a.err(), b.err()].into_iter().flatten() {
                        eprintln!("fdqos-bench compare: {e}");
                    }
                    ExitCode::from(2)
                }
            }
        }
        Command::Run {
            workload,
            seed,
            seconds,
            smoke,
            out,
        } => {
            if workload == "all" {
                let ok = each_in_its_own_process("run", seed, seconds, smoke);
                if !smoke {
                    match merged_results() {
                        Some(doc) => write_document(
                            &out.unwrap_or_else(|| sys::out_dir().join("result.json")),
                            &doc,
                        ),
                        None => {
                            println!("# a workload left no result file under out/; nothing merged")
                        }
                    }
                }
                return exit_code(ok);
            }
            let mode = if smoke {
                "run --smoke (checks only, no bounds)"
            } else {
                "run"
            };
            let commit = header(seed, seconds, mode);
            let result = execute(&workload, seed, seconds, false);
            result.print();
            if !smoke {
                save(
                    &report::result_path(&workload),
                    seed,
                    seconds,
                    &commit,
                    &result,
                );
                if let Some(path) = out {
                    save(&path, seed, seconds, &commit, &result);
                }
            }
            exit_code(result.correct())
        }
        Command::Trace {
            workload,
            seed,
            seconds,
        } => {
            if workload == "all" {
                return exit_code(each_in_its_own_process("trace", seed, seconds, false));
            }
            header(seed, seconds, "trace");
            let result = execute(&workload, seed, seconds, true);
            result.print();
            exit_code(result.correct())
        }
        Command::Contract {
            workload,
            seed,
            seconds,
            traced,
        } => {
            let commit = header(
                seed,
                seconds,
                if traced { "traced run" } else { "untraced run" },
            );
            let result = execute(&workload, seed, seconds, traced);
            result.print();
            if !traced {
                save(
                    &report::result_path(&workload),
                    seed,
                    seconds,
                    &commit,
                    &result,
                );
            }
            println!("{}", result.contract_line(traced));
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_contract_form_parses() {
        assert_eq!(
            parse(&args(
                "--workload flood_ingest --seed 7 --seconds 10 --trace 1"
            )),
            Ok(Command::Contract {
                workload: "flood_ingest".into(),
                seed: 7,
                seconds: 10.0,
                traced: true
            })
        );
    }

    #[test]
    fn subcommands_parse_with_defaults() {
        assert_eq!(
            parse(&args("run --workload all")),
            Ok(Command::Run {
                workload: "all".into(),
                seed: DEFAULT_SEED,
                seconds: RUN_SECONDS,
                smoke: false,
                out: None
            })
        );
        assert_eq!(
            parse(&args("run --workload fig12_sim --smoke")),
            Ok(Command::Run {
                workload: "fig12_sim".into(),
                seed: DEFAULT_SEED,
                seconds: SMOKE_SECONDS,
                smoke: true,
                out: None
            })
        );
        assert_eq!(
            parse(&args("trace --workload consumer_mix --seed 3")),
            Ok(Command::Trace {
                workload: "consumer_mix".into(),
                seed: 3,
                seconds: TRACE_SECONDS
            })
        );
        assert_eq!(
            parse(&args("compare a.json b.json")),
            Ok(Command::Compare {
                a: "a.json".into(),
                b: "b.json".into()
            })
        );
    }

    #[test]
    fn unknown_flags_and_workloads_are_rejected() {
        assert!(parse(&args("run --workload all --sed 7")).is_err());
        assert!(parse(&args("run --workload nope")).is_err());
        assert!(parse(&args("--workload all --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(&args("--workload fig12_sim --seed 1 --seconds 1")).is_err());
        assert!(parse(&args("trace --workload fig12_sim --smoke")).is_err());
        assert!(parse(&args("run --workload fig12_sim --seed")).is_err());
        assert!(parse(&args("run --workload fig12_sim --seconds nan")).is_err());
        assert!(parse(&args("compare a.json")).is_err());
        assert!(parse(&args("run")).is_err());
    }
}
