//! HTTP metrics endpoint for a [`ClusterMonitor`].
//!
//! Serves the whole registry's live QoS — every peer's online `P_A`,
//! `E(T_MR)`, `E(T_M)`, `E(T_G)`, transition counters — plus the
//! cluster-wide [`ClusterStats`] in two representations:
//!
//! * `GET /metrics` — Prometheus text exposition format (version 0.0.4),
//!   one time series per peer per metric, labelled `{peer="<id>"}`;
//! * `GET /metrics.json` — the same data as a single JSON document.
//!
//! The server is deliberately tiny: a std `TcpListener`, one supervised
//! accept thread (the crate's one restart loop, [`crate::backoff`]), one
//! request per connection, `Connection: close`. It is an *operational*
//! endpoint for scrapers and debugging, not a web framework; anything
//! but the two known paths (a `?query` is accepted and ignored) gets a
//! 404.
//!
//! Mean-interval gauges (`fd_peer_mean_*_seconds`) are emitted only once
//! the corresponding interval has actually been observed — a peer that
//! has never had a mistake corrected exports no
//! `fd_peer_mean_mistake_duration_seconds` series rather than a fake 0.

use crate::backoff::{supervise, Supervised};
use crate::monitor::{ClusterMonitor, ClusterStats, PeerQos};
use crate::registry::QosState;
use crate::{Health, RuntimeError};
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long one request may take to arrive/drain before the connection
/// is dropped — a stuck scraper must not wedge the accept thread.
const STREAM_TIMEOUT: Duration = Duration::from_millis(500);

/// Most header bytes read from a request before giving up on it.
const MAX_REQUEST_HEAD: usize = 4096;

/// Restart budget for the supervised accept loop.
const MAX_ACCEPT_RESTARTS: u64 = 8;

/// An extra producer of metrics mounted on the same endpoint: the
/// federation tier (and anything else living alongside a monitor)
/// appends its own Prometheus families and JSON fields to every scrape
/// without the exporter knowing its type. Implementations must be
/// cheap and non-blocking — they run on the accept thread.
pub trait MetricsSource: Send + Sync {
    /// Appends Prometheus text-format families to `out` (use
    /// [`family`] for correct HELP/TYPE framing).
    fn prometheus(&self, out: &mut String);

    /// Extra top-level JSON fields as `(key, rendered-value)` pairs;
    /// values must already be valid JSON (a number, `"string"`, or an
    /// object).
    fn json_fields(&self) -> Vec<(String, String)>;
}

struct ExporterInner {
    monitor: ClusterMonitor,
    sources: Vec<Arc<dyn MetricsSource>>,
    listener: TcpListener,
    addr: SocketAddr,
    stop: AtomicBool,
    sup: Supervised,
    requests: AtomicU64,
}

/// A running metrics endpoint bound to a local TCP address.
///
/// ```no_run
/// use fd_cluster::{ClusterConfig, ClusterMonitor, MetricsExporter};
///
/// let monitor = ClusterMonitor::spawn(ClusterConfig::default()).unwrap();
/// let exporter = MetricsExporter::bind("127.0.0.1:0", monitor.clone()).unwrap();
/// println!("scrape http://{}/metrics", exporter.local_addr());
/// # exporter.shutdown();
/// ```
pub struct MetricsExporter {
    inner: Arc<ExporterInner>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for MetricsExporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsExporter").field("addr", &self.inner.addr).finish()
    }
}

impl MetricsExporter {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// supervised accept thread serving `monitor`'s metrics.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Net`] if the listener cannot bind,
    /// [`RuntimeError::Spawn`] if the accept thread cannot start.
    pub fn bind(addr: impl ToSocketAddrs, monitor: ClusterMonitor) -> Result<Self, RuntimeError> {
        Self::bind_with_sources(addr, monitor, Vec::new())
    }

    /// [`bind`](Self::bind), plus extra [`MetricsSource`]s whose output
    /// is appended to every `/metrics` and `/metrics.json` response —
    /// how the federation tier surfaces its `fd_fed_*` series through
    /// the same endpoint as the embedded monitor.
    ///
    /// # Errors
    ///
    /// Same as [`bind`](Self::bind).
    pub fn bind_with_sources(
        addr: impl ToSocketAddrs,
        monitor: ClusterMonitor,
        sources: Vec<Arc<dyn MetricsSource>>,
    ) -> Result<Self, RuntimeError> {
        let listener = TcpListener::bind(addr)
            .map_err(|source| RuntimeError::Net { op: "bind", source })?;
        let local = listener
            .local_addr()
            .map_err(|source| RuntimeError::Net { op: "local_addr", source })?;
        let inner = Arc::new(ExporterInner {
            monitor,
            sources,
            listener,
            addr: local,
            stop: AtomicBool::new(false),
            sup: Supervised::brief(MAX_ACCEPT_RESTARTS),
            requests: AtomicU64::new(0),
        });
        let worker = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("fd-metrics-exporter".into())
            .spawn(move || {
                supervise(
                    &worker.sup,
                    || accept_loop(&worker),
                    |backoff| {
                        if worker.stop.load(Ordering::SeqCst) {
                            return false;
                        }
                        std::thread::sleep(backoff);
                        true
                    },
                );
                *worker.sup.health.lock() = Health::Stopped;
            })
            .map_err(|source| RuntimeError::Spawn { thread: "fd-metrics-exporter", source })?;
        Ok(Self { inner, thread: Mutex::new(Some(handle)) })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Health of the accept thread: `Healthy` until its first panic,
    /// `Degraded` while the restart budget lasts, `Stopped` after
    /// shutdown or budget exhaustion.
    pub fn health(&self) -> Health {
        self.inner.sup.health()
    }

    /// Requests answered (any status) since bind.
    pub fn requests_served(&self) -> u64 {
        self.inner.requests.load(Ordering::Relaxed)
    }

    /// Stops the accept thread and waits for it. Idempotent.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.inner.addr, STREAM_TIMEOUT);
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
        *self.inner.sup.health.lock() = Health::Stopped;
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(inner: &ExporterInner) {
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match inner.listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue, // transient accept errors: keep serving
        };
        if inner.stop.load(Ordering::SeqCst) {
            return; // the shutdown wake-up connection
        }
        inner.requests.fetch_add(1, Ordering::Relaxed);
        let _ = serve_one(inner, stream); // a broken client is its own problem
    }
}

/// Reads one request head, routes it, writes one response.
fn serve_one(inner: &ExporterInner, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(STREAM_TIMEOUT))?;
    stream.set_write_timeout(Some(STREAM_TIMEOUT))?;
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < MAX_REQUEST_HEAD {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(_) => break, // timeout or reset: respond to what we have
        }
    }
    let request_line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .map(String::from_utf8_lossy)
        .unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    // Route on the path alone: a scrape job configured with `params:`
    // appends `?name=value`, which selects nothing here.
    let path = target.split_once('?').map_or(target, |(path, _query)| path);
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain; charset=utf-8", "method not allowed\n".to_string())
    } else {
        match path {
            "/metrics" => {
                let mut body = render_prometheus(&inner.monitor);
                for source in &inner.sources {
                    source.prometheus(&mut body);
                }
                ("200 OK", "text/plain; version=0.0.4; charset=utf-8", body)
            }
            "/metrics.json" => {
                let mut body = render_json(&inner.monitor);
                for source in &inner.sources {
                    for (key, value) in source.json_fields() {
                        // Splice each extra field before the document's
                        // closing brace; the render always ends in "]}".
                        body.pop();
                        let _ = write!(body, ",\"{key}\":{value}}}");
                    }
                }
                ("200 OK", "application/json", body)
            }
            _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string()),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// One Prometheus metric family: HELP/TYPE header plus its series.
/// Series entries label their value with `{peer="<id>"}` when the id is
/// `Some` (federation sources reuse the label position for node ids).
/// Public so [`MetricsSource`] implementations emit well-formed text.
pub fn family(out: &mut String, name: &str, help: &str, kind: &str, series: &[(Option<u64>, f64)]) {
    if series.is_empty() {
        return;
    }
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (peer, value) in series {
        match peer {
            Some(p) => {
                let _ = writeln!(out, "{name}{{peer=\"{p}\"}} {value}");
            }
            None => {
                let _ = writeln!(out, "{name} {value}");
            }
        }
    }
}

/// One [`ClusterStats`] field as both renderers show it: JSON key,
/// Prometheus family name, help text, metric kind, reader.
type StatRow = (&'static str, &'static str, &'static str, &'static str, fn(&ClusterStats) -> f64);

/// Every [`ClusterStats`] field, in declaration order — the one list
/// [`prometheus_stats`] and [`json_stats`] both walk (a test holds it to
/// the struct).
const CLUSTER_STATS: &[StatRow] = &[
    ("peers", "fd_cluster_peers", "Registered peers.", "gauge", |s| s.peers as f64),
    ("ticks", "fd_cluster_ticks_total", "Ticker sweeps since spawn.", "counter", |s| s.ticks as f64),
    ("timers_fired", "fd_cluster_timers_fired_total", "Wheel expirations that matched a live registration.", "counter", |s| s.timers_fired as f64),
    ("events_dropped", "fd_cluster_events_dropped_total", "Membership events lost to full subscriber channels.", "counter", |s| s.events_dropped as f64),
    ("subscribers_disconnected", "fd_cluster_subscribers_disconnected_total", "Subscribers pruned after their receiver was dropped.", "counter", |s| s.subscribers_disconnected as f64),
    ("unknown_heartbeats", "fd_cluster_unknown_heartbeats_total", "Heartbeats for unregistered peers.", "counter", |s| s.unknown_heartbeats as f64),
    ("stale_incarnation_rejects", "fd_cluster_stale_incarnation_rejects_total", "Heartbeats rejected as previous-life traffic.", "counter", |s| s.stale_incarnation_rejects as f64),
    ("incarnation_resets", "fd_cluster_incarnation_resets_total", "Peer detector resets from newer incarnations.", "counter", |s| s.incarnation_resets as f64),
    ("ticker_restarts", "fd_cluster_ticker_restarts_total", "Supervised ticker restarts after panics.", "counter", |s| s.ticker_restarts as f64),
    ("expirations_deferred", "fd_cluster_expirations_deferred_total", "Wheel expirations pushed to a later sweep by the per-sweep bound.", "counter", |s| s.expirations_deferred as f64),
    ("entries_shed", "fd_cluster_entries_shed_total", "Heartbeat entries shed by receivers under overload.", "counter", |s| s.entries_shed as f64),
    ("snapshots_written", "fd_cluster_snapshots_written_total", "State snapshots persisted.", "counter", |s| s.snapshots_written as f64),
    ("snapshot_errors", "fd_cluster_snapshot_errors_total", "Snapshot reads/writes that failed.", "counter", |s| s.snapshot_errors as f64),
    ("peers_restored", "fd_cluster_peers_restored_total", "Peers restored warm from the snapshot at spawn.", "counter", |s| s.peers_restored as f64),
    ("reconfigurations", "fd_cluster_reconfigurations_total", "Control-plane detector parameter swaps applied.", "counter", |s| s.reconfigurations as f64),
    ("degraded_peers", "fd_cluster_degraded_peers", "Peers currently running best-effort parameters.", "gauge", |s| s.degraded_peers as f64),
    ("degradations", "fd_cluster_degradations_total", "Nominal-to-Degraded transitions declared by the control plane.", "counter", |s| s.degradations as f64),
    ("promotions", "fd_cluster_promotions_total", "Degraded-to-Nominal re-promotions declared by the control plane.", "counter", |s| s.promotions as f64),
    ("control_rounds", "fd_cluster_control_rounds_total", "Control-plane reconfiguration rounds completed.", "counter", |s| s.control_rounds as f64),
    ("control_restarts", "fd_cluster_control_restarts_total", "Supervised control-thread restarts after panics.", "counter", |s| s.control_restarts as f64),
];

/// The cluster-wide families: one unlabelled series per table row.
fn prometheus_stats(stats: &ClusterStats, out: &mut String) {
    for (_, name, help, kind, value) in CLUSTER_STATS {
        family(out, name, help, kind, &[(None, value(stats))]);
    }
}

/// Renders the full cluster state in the Prometheus text exposition
/// format (0.0.4): cluster-wide counters unlabelled, per-peer metrics
/// labelled `{peer="<id>"}`.
pub fn render_prometheus(monitor: &ClusterMonitor) -> String {
    let stats = monitor.stats();
    let peers = monitor.qos_snapshot();
    let mut out = String::with_capacity(1024 + peers.len() * 512);
    prometheus_stats(&stats, &mut out);

    let per_peer = |f: &dyn Fn(&PeerQos) -> Option<f64>| -> Vec<(Option<u64>, f64)> {
        peers.iter().filter_map(|p| f(p).map(|v| (Some(p.peer), v))).collect()
    };
    family(
        &mut out,
        "fd_peer_output",
        "Current detector output: 1 trusted, 0 suspected.",
        "gauge",
        &per_peer(&|p| Some(if p.output.is_trust() { 1.0 } else { 0.0 })),
    );
    family(
        &mut out,
        "fd_peer_query_accuracy",
        "Time-weighted query accuracy probability P_A over the observation window.",
        "gauge",
        &per_peer(&|p| Some(p.qos.query_accuracy())),
    );
    family(
        &mut out,
        "fd_peer_mistake_rate",
        "Average mistake rate lambda_M (S-transitions per second).",
        "gauge",
        &per_peer(&|p| Some(p.qos.mistake_rate())),
    );
    family(
        &mut out,
        "fd_peer_window_seconds",
        "Length of the QoS observation window.",
        "gauge",
        &per_peer(&|p| Some(p.qos.window)),
    );
    family(
        &mut out,
        "fd_peer_heartbeats_total",
        "Heartbeats recorded for this peer.",
        "counter",
        &per_peer(&|p| Some(p.counters.heartbeats as f64)),
    );
    family(
        &mut out,
        "fd_peer_suspicions_total",
        "S-transitions (Trust to Suspect) observed.",
        "counter",
        &per_peer(&|p| Some(p.counters.suspicions as f64)),
    );
    family(
        &mut out,
        "fd_peer_recoveries_total",
        "T-transitions (Suspect to Trust) observed.",
        "counter",
        &per_peer(&|p| Some(p.counters.recoveries as f64)),
    );
    family(
        &mut out,
        "fd_peer_mean_mistake_recurrence_seconds",
        "Mean observed mistake recurrence time E(T_MR); absent until two S-transitions.",
        "gauge",
        &per_peer(&|p| p.qos.mean_mistake_recurrence()),
    );
    family(
        &mut out,
        "fd_peer_mean_mistake_duration_seconds",
        "Mean observed mistake duration E(T_M); absent until a mistake is corrected.",
        "gauge",
        &per_peer(&|p| p.qos.mean_mistake_duration()),
    );
    family(
        &mut out,
        "fd_peer_mean_good_period_seconds",
        "Mean observed good period E(T_G); absent until a good period completes.",
        "gauge",
        &per_peer(&|p| p.qos.mean_good_period()),
    );
    family(
        &mut out,
        "fd_peer_qos_state",
        "Control-plane QoS state: 0 nominal, 1 degraded (best-effort parameters).",
        "gauge",
        &per_peer(&|p| Some(if p.qos_state == QosState::Degraded { 1.0 } else { 0.0 })),
    );
    out
}

/// The `"stats"` object: one integer-valued member per table row.
fn json_stats(stats: &ClusterStats) -> String {
    let mut out = String::from("{");
    for (i, (key, _, _, _, value)) in CLUSTER_STATS.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{key}\":{}", value(stats));
    }
    out.push('}');
    out
}

fn json_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x}"),
        None => "null".to_string(),
    }
}

/// Renders the full cluster state as one JSON document:
/// `{"now": <seconds>, "stats": {...}, "peers": [...]}`. Unobserved mean
/// intervals are `null`, never a fake zero.
pub fn render_json(monitor: &ClusterMonitor) -> String {
    let stats = monitor.stats();
    let peers = monitor.qos_snapshot();
    let mut out = String::with_capacity(256 + peers.len() * 256);
    let _ = write!(out, "{{\"now\":{},\"stats\":{},\"peers\":[", monitor.now(), json_stats(&stats));
    for (i, p) in peers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"peer\":{},\"output\":\"{}\",\"qos_state\":\"{}\",\"heartbeats\":{},\
             \"suspicions\":{},\
             \"recoveries\":{},\"window\":{},\"query_accuracy\":{},\"mistake_rate\":{},\
             \"mean_mistake_recurrence\":{},\"mean_mistake_duration\":{},\"mean_good_period\":{}}}",
            p.peer,
            if p.output.is_trust() { "trust" } else { "suspect" },
            if p.qos_state == QosState::Degraded { "degraded" } else { "nominal" },
            p.counters.heartbeats,
            p.counters.suspicions,
            p.counters.recoveries,
            p.qos.window,
            p.qos.query_accuracy(),
            p.qos.mistake_rate(),
            json_opt(p.qos.mean_mistake_recurrence()),
            json_opt(p.qos.mean_mistake_duration()),
            json_opt(p.qos.mean_good_period()),
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{ClusterConfig, PeerConfig};
    use fd_core::Heartbeat;

    fn monitor_with_peers(n: u64) -> ClusterMonitor {
        let m = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
        for p in 0..n {
            m.add_peer(p, PeerConfig::new(0.05, 0.1)).unwrap();
            m.record(p, Heartbeat::new(1, m.now()));
        }
        m
    }

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).expect("read");
        let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    /// Every field a distinct value; no live monitor, so nothing here
    /// depends on a ticker.
    fn numbered_stats() -> ClusterStats {
        ClusterStats {
            peers: 1, ticks: 2, timers_fired: 3, events_dropped: 4, subscribers_disconnected: 5,
            unknown_heartbeats: 6, stale_incarnation_rejects: 7, incarnation_resets: 8,
            ticker_restarts: 9, expirations_deferred: 10, entries_shed: 11, snapshots_written: 12,
            snapshot_errors: 13, peers_restored: 14, reconfigurations: 15, degraded_peers: 16,
            degradations: 17, promotions: 18, control_rounds: 19, control_restarts: 20,
        }
    }

    #[test]
    fn stats_table_has_one_row_per_field() {
        let stats = numbered_stats();
        // No `..`: a new `ClusterStats` field fails to compile here until
        // it is listed, and then fails below until it has a table row.
        let ClusterStats {
            peers, ticks, timers_fired, events_dropped, subscribers_disconnected,
            unknown_heartbeats, stale_incarnation_rejects, incarnation_resets, ticker_restarts,
            expirations_deferred, entries_shed, snapshots_written, snapshot_errors, peers_restored,
            reconfigurations, degraded_peers, degradations, promotions, control_rounds,
            control_restarts,
        } = stats;
        let fields = [
            peers as u64, ticks, timers_fired, events_dropped, subscribers_disconnected,
            unknown_heartbeats, stale_incarnation_rejects, incarnation_resets, ticker_restarts,
            expirations_deferred, entries_shed, snapshots_written, snapshot_errors, peers_restored,
            reconfigurations, degraded_peers as u64, degradations, promotions, control_rounds,
            control_restarts,
        ];
        // The values are distinct, so equal readings in order mean each
        // row reads its own field.
        let read: Vec<u64> = CLUSTER_STATS.iter().map(|row| (row.4)(&stats) as u64).collect();
        assert_eq!(read, fields);
        for (i, row) in CLUSTER_STATS.iter().enumerate() {
            for other in &CLUSTER_STATS[..i] {
                assert_ne!(row.0, other.0, "duplicate JSON key");
                assert_ne!(row.1, other.1, "duplicate Prometheus name");
            }
        }
    }

    /// What PR 17's `json_stats` and cluster table rendered for
    /// [`numbered_stats`].
    const PR17_JSON: &str = "{\"peers\":1,\"ticks\":2,\"timers_fired\":3,\"events_dropped\":4,\
        \"subscribers_disconnected\":5,\"unknown_heartbeats\":6,\
        \"stale_incarnation_rejects\":7,\"incarnation_resets\":8,\"ticker_restarts\":9,\
        \"expirations_deferred\":10,\"entries_shed\":11,\"snapshots_written\":12,\
        \"snapshot_errors\":13,\"peers_restored\":14,\"reconfigurations\":15,\
        \"degraded_peers\":16,\"degradations\":17,\"promotions\":18,\"control_rounds\":19,\
        \"control_restarts\":20}";
    const PR17_PROMETHEUS: &str = "\
# HELP fd_cluster_peers Registered peers.
# TYPE fd_cluster_peers gauge
fd_cluster_peers 1
# HELP fd_cluster_ticks_total Ticker sweeps since spawn.
# TYPE fd_cluster_ticks_total counter
fd_cluster_ticks_total 2
# HELP fd_cluster_timers_fired_total Wheel expirations that matched a live registration.
# TYPE fd_cluster_timers_fired_total counter
fd_cluster_timers_fired_total 3
# HELP fd_cluster_events_dropped_total Membership events lost to full subscriber channels.
# TYPE fd_cluster_events_dropped_total counter
fd_cluster_events_dropped_total 4
# HELP fd_cluster_subscribers_disconnected_total Subscribers pruned after their receiver was dropped.
# TYPE fd_cluster_subscribers_disconnected_total counter
fd_cluster_subscribers_disconnected_total 5
# HELP fd_cluster_unknown_heartbeats_total Heartbeats for unregistered peers.
# TYPE fd_cluster_unknown_heartbeats_total counter
fd_cluster_unknown_heartbeats_total 6
# HELP fd_cluster_stale_incarnation_rejects_total Heartbeats rejected as previous-life traffic.
# TYPE fd_cluster_stale_incarnation_rejects_total counter
fd_cluster_stale_incarnation_rejects_total 7
# HELP fd_cluster_incarnation_resets_total Peer detector resets from newer incarnations.
# TYPE fd_cluster_incarnation_resets_total counter
fd_cluster_incarnation_resets_total 8
# HELP fd_cluster_ticker_restarts_total Supervised ticker restarts after panics.
# TYPE fd_cluster_ticker_restarts_total counter
fd_cluster_ticker_restarts_total 9
# HELP fd_cluster_snapshots_written_total State snapshots persisted.
# TYPE fd_cluster_snapshots_written_total counter
fd_cluster_snapshots_written_total 12
# HELP fd_cluster_snapshot_errors_total Snapshot reads/writes that failed.
# TYPE fd_cluster_snapshot_errors_total counter
fd_cluster_snapshot_errors_total 13
# HELP fd_cluster_reconfigurations_total Control-plane detector parameter swaps applied.
# TYPE fd_cluster_reconfigurations_total counter
fd_cluster_reconfigurations_total 15
# HELP fd_cluster_degraded_peers Peers currently running best-effort parameters.
# TYPE fd_cluster_degraded_peers gauge
fd_cluster_degraded_peers 16
# HELP fd_cluster_degradations_total Nominal-to-Degraded transitions declared by the control plane.
# TYPE fd_cluster_degradations_total counter
fd_cluster_degradations_total 17
# HELP fd_cluster_promotions_total Degraded-to-Nominal re-promotions declared by the control plane.
# TYPE fd_cluster_promotions_total counter
fd_cluster_promotions_total 18
# HELP fd_cluster_control_rounds_total Control-plane reconfiguration rounds completed.
# TYPE fd_cluster_control_rounds_total counter
fd_cluster_control_rounds_total 19
# HELP fd_cluster_control_restarts_total Supervised control-thread restarts after panics.
# TYPE fd_cluster_control_restarts_total counter
fd_cluster_control_restarts_total 20
";

    #[test]
    fn stats_renderers_match_pr17_plus_three_families() {
        let stats = numbered_stats();
        assert_eq!(json_stats(&stats), PR17_JSON);

        let mut text = String::new();
        prometheus_stats(&stats, &mut text);
        let added = ["expirations_deferred", "entries_shed", "peers_restored"];
        let (new, old): (Vec<&str>, Vec<&str>) =
            text.lines().partition(|line| added.iter().any(|name| line.contains(name)));
        assert_eq!(old.join("\n") + "\n", PR17_PROMETHEUS);
        assert_eq!(
            new,
            [
                "# HELP fd_cluster_expirations_deferred_total Wheel expirations pushed to a \
                 later sweep by the per-sweep bound.",
                "# TYPE fd_cluster_expirations_deferred_total counter",
                "fd_cluster_expirations_deferred_total 10",
                "# HELP fd_cluster_entries_shed_total Heartbeat entries shed by receivers under \
                 overload.",
                "# TYPE fd_cluster_entries_shed_total counter",
                "fd_cluster_entries_shed_total 11",
                "# HELP fd_cluster_peers_restored_total Peers restored warm from the snapshot at \
                 spawn.",
                "# TYPE fd_cluster_peers_restored_total counter",
                "fd_cluster_peers_restored_total 14",
            ]
        );
    }

    #[test]
    fn serves_prometheus_text() {
        let m = monitor_with_peers(3);
        let exporter = MetricsExporter::bind("127.0.0.1:0", m.clone()).expect("bind");
        let (head, body) = http_get(exporter.local_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("# TYPE fd_cluster_peers gauge"));
        assert!(body.contains("fd_cluster_peers 3"));
        for p in 0..3 {
            assert!(body.contains(&format!("fd_peer_query_accuracy{{peer=\"{p}\"}}")));
            assert!(body.contains(&format!("fd_peer_output{{peer=\"{p}\"}} 1")));
        }
        // No mistakes yet: the mean-interval families must be absent.
        assert!(!body.contains("fd_peer_mean_mistake_duration_seconds{"));
        // Control-plane families are always present (all peers nominal).
        assert!(body.contains("fd_cluster_degraded_peers 0"));
        assert!(body.contains("# TYPE fd_cluster_reconfigurations_total counter"));
        assert!(body.contains("fd_cluster_control_restarts_total 0"));
        assert!(body.contains("fd_peer_qos_state{peer=\"0\"} 0"));
        assert!(exporter.requests_served() >= 1);
        // What a Prometheus job with `params:` sends.
        let (head, with_query) = http_get(exporter.local_addr(), "/metrics?format=text");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(with_query.contains("fd_cluster_peers 3"));
        exporter.shutdown();
        m.shutdown();
    }

    #[test]
    fn serves_json() {
        let m = monitor_with_peers(2);
        let exporter = MetricsExporter::bind("127.0.0.1:0", m.clone()).expect("bind");
        let (head, body) = http_get(exporter.local_addr(), "/metrics.json");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("application/json"));
        assert!(body.starts_with("{\"now\":"));
        assert!(body.contains("\"peers\":["));
        assert!(body.contains("\"peer\":0"));
        assert!(body.contains("\"output\":\"trust\""));
        assert!(body.contains("\"qos_state\":\"nominal\""));
        assert!(body.contains("\"degraded_peers\":0"));
        assert!(body.contains("\"mean_mistake_duration\":null"));
        assert!(body.ends_with("]}"));
        exporter.shutdown();
        m.shutdown();
    }

    struct FakeSource;

    impl MetricsSource for FakeSource {
        fn prometheus(&self, out: &mut String) {
            family(out, "fd_fed_fake", "Fake federation gauge.", "gauge", &[(None, 7.0)]);
        }

        fn json_fields(&self) -> Vec<(String, String)> {
            vec![("federation".into(), "{\"nodes\":4}".into())]
        }
    }

    #[test]
    fn extra_sources_appear_in_both_formats() {
        let m = monitor_with_peers(1);
        let exporter =
            MetricsExporter::bind_with_sources("127.0.0.1:0", m.clone(), vec![Arc::new(FakeSource)])
                .expect("bind");
        let (_, text) = http_get(exporter.local_addr(), "/metrics");
        assert!(text.contains("# TYPE fd_fed_fake gauge"));
        assert!(text.contains("fd_fed_fake 7"));
        assert!(text.contains("fd_cluster_peers 1"), "monitor families must survive");
        let (_, json) = http_get(exporter.local_addr(), "/metrics.json");
        assert!(json.contains(",\"federation\":{\"nodes\":4}}"), "{json}");
        assert!(json.starts_with("{\"now\":") && json.ends_with('}'));
        exporter.shutdown();
        m.shutdown();
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let m = monitor_with_peers(1);
        let exporter = MetricsExporter::bind("127.0.0.1:0", m.clone()).expect("bind");
        // A query string neither hides a known path nor rescues an
        // unknown one.
        for path in ["/nope", "/nope?x=/metrics", "/metricsx?a=b", "?/metrics"] {
            let (head, _) = http_get(exporter.local_addr(), path);
            assert!(head.starts_with("HTTP/1.1 404"), "{path}: {head}");
        }
        let (head, _) = http_get(exporter.local_addr(), "/metrics.json?pretty=1");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let mut stream = TcpStream::connect(exporter.local_addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 405"), "{buf}");
        exporter.shutdown();
        m.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_stops_health() {
        let m = monitor_with_peers(1);
        let exporter = MetricsExporter::bind("127.0.0.1:0", m.clone()).expect("bind");
        assert_eq!(exporter.health(), Health::Healthy);
        exporter.shutdown();
        exporter.shutdown();
        assert_eq!(exporter.health(), Health::Stopped);
        assert!(TcpStream::connect_timeout(&exporter.local_addr(), STREAM_TIMEOUT).is_err()
            || http_try(exporter.local_addr()).is_none());
        m.shutdown();
    }

    /// Best-effort GET that tolerates a dead server.
    fn http_try(addr: SocketAddr) -> Option<String> {
        let mut stream = TcpStream::connect_timeout(&addr, STREAM_TIMEOUT).ok()?;
        write!(stream, "GET /metrics HTTP/1.1\r\n\r\n").ok()?;
        let mut buf = String::new();
        stream.set_read_timeout(Some(STREAM_TIMEOUT)).ok()?;
        stream.read_to_string(&mut buf).ok()?;
        if buf.is_empty() { None } else { Some(buf) }
    }
}
