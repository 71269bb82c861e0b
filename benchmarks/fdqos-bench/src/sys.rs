//! What the benchmark asks the operating system: CPU time, peak memory,
//! core count, a scratch directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`,
/// fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// CPU time of the process's live threads so far, user plus system, in
/// seconds: nanosecond on-CPU time summed over `/proc/self/task/*/schedstat`,
/// or, where the kernel keeps no scheduler statistics, the 10 ms ticks of
/// `/proc/self/stat`. 0 where `/proc` is missing.
///
/// A thread that has exited no longer counts in the first form, so take
/// differences only over spans in which no thread that did work ends.
pub fn cpu_seconds() -> f64 {
    let on_cpu_ns: Option<f64> = std::fs::read_dir("/proc/self/task").ok().and_then(|tasks| {
        tasks
            .filter_map(Result::ok)
            .map(|t| {
                let stat = std::fs::read_to_string(t.path().join("schedstat")).ok()?;
                stat.split_ascii_whitespace().next()?.parse::<f64>().ok()
            })
            .sum()
    });
    match on_cpu_ns {
        Some(ns) if ns > 0.0 => ns / 1e9,
        _ => cpu_seconds_in_ticks(),
    }
}

fn cpu_seconds_in_ticks() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, so the 12th and 13th after it.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_ascii_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// Peak resident set (`VmHWM`) in MB. 0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Short commit hash of the tree the benchmark runs in, or `unknown`
/// (the driver's checkout is not a git repository).
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where result files, traces and scratch directories go: `out/` beside
/// the crate's manifest, which the checkout's `.gitignore` names.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh directory under `out/`, removed when dropped. A leftover
/// snapshot file would restore peers into the next run, whose `add_peer`
/// then fails with `DuplicatePeer`.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("tmp-{label}-{}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
