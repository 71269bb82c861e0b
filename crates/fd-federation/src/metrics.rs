//! Federation-tier metrics: `fd_fed_*` series mounted on the existing
//! [`MetricsExporter`](fd_cluster::MetricsExporter) endpoint.
//!
//! [`FedMetrics`] is a bundle of atomics updated by the
//! [`Federation`](crate::Federation) harness and its nodes, and an
//! implementation of [`MetricsSource`] so one
//! `MetricsExporter::bind_with_sources` call surfaces the federation
//! next to the embedded monitor's `fd_cluster_*`/`fd_peer_*` families,
//! in both Prometheus text format and the JSON document.

use crate::view::LinkState;
use fd_cluster::{family, MetricsSource};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Shared federation counters and gauges. All operations are relaxed —
/// these are monitoring data, not synchronization.
#[derive(Debug, Default)]
pub struct FedMetrics {
    /// Configured monitor nodes (gauge).
    pub nodes: AtomicU64,
    /// Nodes currently alive by the harness's own accounting (gauge).
    pub nodes_alive: AtomicU64,
    /// Peers currently owned across all alive nodes (gauge; during a
    /// failover window a peer may be counted on two nodes).
    pub peers_owned: AtomicU64,
    /// Registered peers in the federation universe (gauge).
    pub peers_registered: AtomicU64,
    /// Gossip rounds completed.
    pub gossip_rounds: AtomicU64,
    /// Digest frames sent: one per frame (after chunking) and
    /// destination, counted where the round addresses them
    /// ([`FederationNode::digest_outbound`](crate::FederationNode::digest_outbound)),
    /// so every fabric reports it and frames toward a dead member count.
    pub digests_sent: AtomicU64,
    /// Digest frames accepted by a receiver.
    pub digests_received: AtomicU64,
    /// Digest entries merged into remote partition state.
    pub digest_entries: AtomicU64,
    /// Digest frames rejected as stale (old node incarnation or old
    /// round).
    pub stale_digests: AtomicU64,
    /// Rebalance passes run.
    pub rebalances: AtomicU64,
    /// Node failures that triggered at least one partition takeover.
    pub takeovers: AtomicU64,
    /// Peers adopted by a surviving node during failover.
    pub peers_adopted: AtomicU64,
    /// Peers released back when ownership moved away (e.g. the original
    /// owner restarted).
    pub peers_released: AtomicU64,
    /// Digest frames rejected because the summary's entry count
    /// disagrees with the decoded body (wire damage or a buggy sender).
    pub summary_rejects: AtomicU64,
    /// Digest frames whose content was already merged (duplicated
    /// delivery; the view did not change).
    pub dup_digests: AtomicU64,
    /// Round-number gaps detected on the direct ingest path (each arms
    /// a NACK repair).
    pub seq_gap_repairs: AtomicU64,
    /// NACK repair requests sent (after backoff pacing).
    pub repair_requests: AtomicU64,
    /// Full-refresh digests served in response to a repair request.
    pub repairs_served: AtomicU64,
    /// Relayed digest frames accepted (origin reachable only
    /// transitively, or redundant relay copies).
    pub relayed_digests: AtomicU64,
    /// Relayed frames dropped (hop cap exceeded, self-origin echo, or
    /// self-relayed).
    pub relay_drops: AtomicU64,
    /// Gossip datagrams the kernel accepted (a refused send is not
    /// counted).
    pub udp_frames_sent: AtomicU64,
    /// Datagrams dropped by scripted link-fault injection before the
    /// socket.
    pub udp_frames_dropped: AtomicU64,
    /// Datagrams held back by scripted delay injection (sent later by
    /// `flush_due`).
    pub udp_frames_delayed: AtomicU64,
    /// Received datagrams that failed wire decoding.
    pub udp_decode_rejects: AtomicU64,
    /// Directed links currently judged `Direct` (gauge).
    pub links_direct: AtomicU64,
    /// Directed links currently judged `Relayed` (gauge).
    pub links_relayed: AtomicU64,
    /// Directed links currently judged `Cut` (gauge).
    pub links_cut: AtomicU64,
    /// Latest per-link judgement: `(observer, target) → state`.
    link_states: Mutex<BTreeMap<(u64, u64), LinkState>>,
    /// Latency of the most recent takeover, seconds from the kill to
    /// the first adoption of one of the dead node's peers (f64 bits).
    last_takeover_latency_bits: AtomicU64,
}

impl FedMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the latency of a completed takeover, seconds.
    pub fn set_takeover_latency(&self, seconds: f64) {
        self.last_takeover_latency_bits.store(seconds.to_bits(), Ordering::Relaxed);
    }

    /// The most recent takeover latency, seconds (`0.0` before any
    /// takeover happened).
    pub fn takeover_latency(&self) -> f64 {
        f64::from_bits(self.last_takeover_latency_bits.load(Ordering::Relaxed))
    }

    /// Replaces the per-link health map and refreshes the three
    /// aggregate link gauges. Call with every directed link the
    /// federation currently judges.
    pub fn set_link_states(&self, states: impl IntoIterator<Item = ((u64, u64), LinkState)>) {
        let map: BTreeMap<(u64, u64), LinkState> = states.into_iter().collect();
        let count = |want: LinkState| map.values().filter(|&&s| s == want).count() as u64;
        self.links_direct.store(count(LinkState::Direct), Ordering::Relaxed);
        self.links_relayed.store(count(LinkState::Relayed), Ordering::Relaxed);
        self.links_cut.store(count(LinkState::Cut), Ordering::Relaxed);
        *self.link_states.lock().expect("link-state lock") = map;
    }

    /// The latest per-link judgements, `(observer, target) → state`.
    pub fn link_states(&self) -> BTreeMap<(u64, u64), LinkState> {
        self.link_states.lock().expect("link-state lock").clone()
    }
}

fn read(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed)
}

/// One [`FedMetrics`] atomic as both renderers show it: JSON key,
/// Prometheus family name, help text, metric kind, reader.
type FedRow = (&'static str, &'static str, &'static str, &'static str, fn(&FedMetrics) -> u64);

/// Every [`FedMetrics`] atomic but the takeover latency, in declaration
/// order — the one list [`MetricsSource::prometheus`] and
/// [`MetricsSource::json_fields`] both walk (a test holds it to the
/// struct). The JSON object keeps this order; the Prometheus text
/// shows the gauges first, then the counters.
const FED_METRICS: &[FedRow] = &[
    ("nodes", "fd_fed_nodes", "Configured federation monitor nodes.", "gauge", |m| read(&m.nodes)),
    ("nodes_alive", "fd_fed_nodes_alive", "Federation nodes currently alive.", "gauge", |m| read(&m.nodes_alive)),
    ("peers_owned", "fd_fed_peers_owned", "Peers owned across alive nodes (may double-count during failover).", "gauge", |m| read(&m.peers_owned)),
    ("peers_registered", "fd_fed_peers_registered", "Peers registered in the federation universe.", "gauge", |m| read(&m.peers_registered)),
    ("gossip_rounds", "fd_fed_gossip_rounds_total", "Anti-entropy gossip rounds completed.", "counter", |m| read(&m.gossip_rounds)),
    ("digests_sent", "fd_fed_digests_sent_total", "Wire digest frames sent.", "counter", |m| read(&m.digests_sent)),
    ("digests_received", "fd_fed_digests_received_total", "Wire digest frames accepted.", "counter", |m| read(&m.digests_received)),
    ("digest_entries", "fd_fed_digest_entries_total", "Digest entries merged into remote partition state.", "counter", |m| read(&m.digest_entries)),
    ("stale_digests", "fd_fed_stale_digests_total", "Digest frames rejected as stale (old incarnation or round).", "counter", |m| read(&m.stale_digests)),
    ("rebalances", "fd_fed_rebalances_total", "Partition rebalance passes.", "counter", |m| read(&m.rebalances)),
    ("takeovers", "fd_fed_takeovers_total", "Node failures that triggered a partition takeover.", "counter", |m| read(&m.takeovers)),
    ("peers_adopted", "fd_fed_peers_adopted_total", "Peers adopted by surviving nodes during failover.", "counter", |m| read(&m.peers_adopted)),
    ("peers_released", "fd_fed_peers_released_total", "Peers released when ownership moved back.", "counter", |m| read(&m.peers_released)),
    ("summary_rejects", "fd_fed_summary_rejects_total", "Digest frames rejected for summary/body entry-count disagreement.", "counter", |m| read(&m.summary_rejects)),
    ("dup_digests", "fd_fed_dup_digests_total", "Digest frames whose content was already merged (duplicate delivery).", "counter", |m| read(&m.dup_digests)),
    ("seq_gap_repairs", "fd_fed_seq_gap_repairs_total", "Round-number gaps detected on direct ingest (each arms a NACK repair).", "counter", |m| read(&m.seq_gap_repairs)),
    ("repair_requests", "fd_fed_repair_requests_total", "NACK full-refresh requests sent after backoff pacing.", "counter", |m| read(&m.repair_requests)),
    ("repairs_served", "fd_fed_repairs_served_total", "Full-refresh digests served in response to repair requests.", "counter", |m| read(&m.repairs_served)),
    ("relayed_digests", "fd_fed_relayed_digests_total", "Relayed digest frames accepted.", "counter", |m| read(&m.relayed_digests)),
    ("relay_drops", "fd_fed_relay_drops_total", "Relayed frames dropped (hop cap, self-origin, or self-relay).", "counter", |m| read(&m.relay_drops)),
    ("udp_frames_sent", "fd_fed_udp_frames_sent_total", "Gossip datagrams the kernel accepted.", "counter", |m| read(&m.udp_frames_sent)),
    ("udp_frames_dropped", "fd_fed_udp_frames_dropped_total", "Datagrams dropped by scripted link-fault injection.", "counter", |m| read(&m.udp_frames_dropped)),
    ("udp_frames_delayed", "fd_fed_udp_frames_delayed_total", "Datagrams held back by scripted delay injection.", "counter", |m| read(&m.udp_frames_delayed)),
    ("udp_decode_rejects", "fd_fed_udp_decode_rejects_total", "Received datagrams that failed wire decoding.", "counter", |m| read(&m.udp_decode_rejects)),
    ("links_direct", "fd_fed_links_direct", "Directed gossip links currently judged Direct.", "gauge", |m| read(&m.links_direct)),
    ("links_relayed", "fd_fed_links_relayed", "Directed gossip links currently judged Relayed.", "gauge", |m| read(&m.links_relayed)),
    ("links_cut", "fd_fed_links_cut", "Directed gossip links currently judged Cut.", "gauge", |m| read(&m.links_cut)),
];

impl MetricsSource for FedMetrics {
    fn prometheus(&self, out: &mut String) {
        for shown in ["gauge", "counter"] {
            for (_, name, help, kind, value) in FED_METRICS.iter().filter(|row| row.3 == shown) {
                family(out, name, help, kind, &[(None, value(self) as f64)]);
            }
        }
        family(
            out,
            "fd_fed_last_takeover_latency_seconds",
            "Kill-to-first-adoption latency of the most recent takeover.",
            "gauge",
            &[(None, self.takeover_latency())],
        );
        // Per-link health: one labelled sample per judged directed link
        // (0 = Direct, 1 = Relayed, 2 = Cut). `family` only renders a
        // single optional `peer` label, so these lines are written
        // directly.
        let links = self.link_states.lock().expect("link-state lock");
        if !links.is_empty() {
            out.push_str(
                "# HELP fd_fed_link_state Directed link health: 0 Direct, 1 Relayed, 2 Cut.\n",
            );
            out.push_str("# TYPE fd_fed_link_state gauge\n");
            for (&(from, to), &state) in links.iter() {
                out.push_str(&format!(
                    "fd_fed_link_state{{from=\"{from}\",to=\"{to}\"}} {}\n",
                    state.as_u8()
                ));
            }
        }
    }

    fn json_fields(&self) -> Vec<(String, String)> {
        let mut obj = String::from("{");
        for (key, _, _, _, value) in FED_METRICS {
            let _ = write!(obj, "\"{key}\":{},", value(self));
        }
        let links = self.link_states.lock().expect("link-state lock");
        let links_json: String = links
            .iter()
            .map(|(&(from, to), &state)| format!("\"{from}-{to}\":{}", state.as_u8()))
            .collect::<Vec<_>>()
            .join(",");
        let _ = write!(
            obj,
            "\"link_states\":{{{links_json}}},\"last_takeover_latency_seconds\":{}}}",
            self.takeover_latency()
        );
        vec![("federation".to_string(), obj)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every atomic set to its 1-based position in the struct, three
    /// judged links, a 2.5 s takeover. The destructuring names every
    /// field: a new one does not compile until it is listed here, and
    /// then fails the length check until [`FED_METRICS`] has its row.
    fn numbered_metrics() -> FedMetrics {
        let m = FedMetrics::new();
        m.set_link_states([
            ((1, 2), LinkState::Direct),
            ((2, 1), LinkState::Relayed),
            ((1, 3), LinkState::Cut),
        ]);
        m.set_takeover_latency(2.5);
        let FedMetrics {
            nodes, nodes_alive, peers_owned, peers_registered, gossip_rounds, digests_sent,
            digests_received, digest_entries, stale_digests, rebalances, takeovers, peers_adopted,
            peers_released, summary_rejects, dup_digests, seq_gap_repairs, repair_requests,
            repairs_served, relayed_digests, relay_drops, udp_frames_sent, udp_frames_dropped,
            udp_frames_delayed, udp_decode_rejects, links_direct, links_relayed, links_cut,
            link_states: _, last_takeover_latency_bits: _,
        } = &m;
        let atomics = [
            nodes, nodes_alive, peers_owned, peers_registered, gossip_rounds, digests_sent,
            digests_received, digest_entries, stale_digests, rebalances, takeovers, peers_adopted,
            peers_released, summary_rejects, dup_digests, seq_gap_repairs, repair_requests,
            repairs_served, relayed_digests, relay_drops, udp_frames_sent, udp_frames_dropped,
            udp_frames_delayed, udp_decode_rejects, links_direct, links_relayed, links_cut,
        ];
        assert_eq!(atomics.len(), FED_METRICS.len(), "every atomic has exactly one table row");
        for (i, a) in atomics.iter().enumerate() {
            a.store(i as u64 + 1, Ordering::Relaxed);
        }
        m
    }

    #[test]
    fn table_covers_every_atomic_once() {
        let m = numbered_metrics();
        // The values are distinct, so reading 1..=n in order means each
        // row reads its own field and none is missing.
        let values: Vec<u64> = FED_METRICS.iter().map(|row| (row.4)(&m)).collect();
        assert_eq!(values, (1..=FED_METRICS.len() as u64).collect::<Vec<_>>());
        for (i, row) in FED_METRICS.iter().enumerate() {
            assert!(row.3 == "gauge" || row.3 == "counter", "{}: kind {}", row.0, row.3);
            assert_eq!(row.3 == "counter", row.1.ends_with("_total"), "{}", row.1);
            for other in &FED_METRICS[..i] {
                assert_ne!(row.0, other.0, "duplicate JSON key");
                assert_ne!(row.1, other.1, "duplicate Prometheus name");
            }
        }
    }

    /// What PR 19's hand-listed renderers printed for
    /// [`numbered_metrics`] (from a scratch clone of that commit).
    const PR19_JSON: &str = "{\"nodes\":1,\"nodes_alive\":2,\"peers_owned\":3,\"peers_registered\":4,\
        \"gossip_rounds\":5,\"digests_sent\":6,\"digests_received\":7,\"digest_entries\":8,\
        \"stale_digests\":9,\"rebalances\":10,\"takeovers\":11,\"peers_adopted\":12,\
        \"peers_released\":13,\"summary_rejects\":14,\"dup_digests\":15,\
        \"seq_gap_repairs\":16,\"repair_requests\":17,\"repairs_served\":18,\
        \"relayed_digests\":19,\"relay_drops\":20,\"udp_frames_sent\":21,\
        \"udp_frames_dropped\":22,\"udp_frames_delayed\":23,\"udp_decode_rejects\":24,\
        \"links_direct\":25,\"links_relayed\":26,\"links_cut\":27,\
        \"link_states\":{\"1-2\":0,\"1-3\":2,\"2-1\":1},\
        \"last_takeover_latency_seconds\":2.5}";
    const PR19_PROMETHEUS: &str = "\
# HELP fd_fed_nodes Configured federation monitor nodes.
# TYPE fd_fed_nodes gauge
fd_fed_nodes 1
# HELP fd_fed_nodes_alive Federation nodes currently alive.
# TYPE fd_fed_nodes_alive gauge
fd_fed_nodes_alive 2
# HELP fd_fed_peers_owned Peers owned across alive nodes (may double-count during failover).
# TYPE fd_fed_peers_owned gauge
fd_fed_peers_owned 3
# HELP fd_fed_peers_registered Peers registered in the federation universe.
# TYPE fd_fed_peers_registered gauge
fd_fed_peers_registered 4
# HELP fd_fed_links_direct Directed gossip links currently judged Direct.
# TYPE fd_fed_links_direct gauge
fd_fed_links_direct 25
# HELP fd_fed_links_relayed Directed gossip links currently judged Relayed.
# TYPE fd_fed_links_relayed gauge
fd_fed_links_relayed 26
# HELP fd_fed_links_cut Directed gossip links currently judged Cut.
# TYPE fd_fed_links_cut gauge
fd_fed_links_cut 27
# HELP fd_fed_gossip_rounds_total Anti-entropy gossip rounds completed.
# TYPE fd_fed_gossip_rounds_total counter
fd_fed_gossip_rounds_total 5
# HELP fd_fed_digests_sent_total Wire digest frames sent.
# TYPE fd_fed_digests_sent_total counter
fd_fed_digests_sent_total 6
# HELP fd_fed_digests_received_total Wire digest frames accepted.
# TYPE fd_fed_digests_received_total counter
fd_fed_digests_received_total 7
# HELP fd_fed_digest_entries_total Digest entries merged into remote partition state.
# TYPE fd_fed_digest_entries_total counter
fd_fed_digest_entries_total 8
# HELP fd_fed_stale_digests_total Digest frames rejected as stale (old incarnation or round).
# TYPE fd_fed_stale_digests_total counter
fd_fed_stale_digests_total 9
# HELP fd_fed_rebalances_total Partition rebalance passes.
# TYPE fd_fed_rebalances_total counter
fd_fed_rebalances_total 10
# HELP fd_fed_takeovers_total Node failures that triggered a partition takeover.
# TYPE fd_fed_takeovers_total counter
fd_fed_takeovers_total 11
# HELP fd_fed_peers_adopted_total Peers adopted by surviving nodes during failover.
# TYPE fd_fed_peers_adopted_total counter
fd_fed_peers_adopted_total 12
# HELP fd_fed_peers_released_total Peers released when ownership moved back.
# TYPE fd_fed_peers_released_total counter
fd_fed_peers_released_total 13
# HELP fd_fed_summary_rejects_total Digest frames rejected for summary/body entry-count disagreement.
# TYPE fd_fed_summary_rejects_total counter
fd_fed_summary_rejects_total 14
# HELP fd_fed_dup_digests_total Digest frames whose content was already merged (duplicate delivery).
# TYPE fd_fed_dup_digests_total counter
fd_fed_dup_digests_total 15
# HELP fd_fed_seq_gap_repairs_total Round-number gaps detected on direct ingest (each arms a NACK repair).
# TYPE fd_fed_seq_gap_repairs_total counter
fd_fed_seq_gap_repairs_total 16
# HELP fd_fed_repair_requests_total NACK full-refresh requests sent after backoff pacing.
# TYPE fd_fed_repair_requests_total counter
fd_fed_repair_requests_total 17
# HELP fd_fed_repairs_served_total Full-refresh digests served in response to repair requests.
# TYPE fd_fed_repairs_served_total counter
fd_fed_repairs_served_total 18
# HELP fd_fed_relayed_digests_total Relayed digest frames accepted.
# TYPE fd_fed_relayed_digests_total counter
fd_fed_relayed_digests_total 19
# HELP fd_fed_relay_drops_total Relayed frames dropped (hop cap, self-origin, or self-relay).
# TYPE fd_fed_relay_drops_total counter
fd_fed_relay_drops_total 20
# HELP fd_fed_udp_frames_sent_total Gossip datagrams the kernel accepted.
# TYPE fd_fed_udp_frames_sent_total counter
fd_fed_udp_frames_sent_total 21
# HELP fd_fed_udp_frames_dropped_total Datagrams dropped by scripted link-fault injection.
# TYPE fd_fed_udp_frames_dropped_total counter
fd_fed_udp_frames_dropped_total 22
# HELP fd_fed_udp_frames_delayed_total Datagrams held back by scripted delay injection.
# TYPE fd_fed_udp_frames_delayed_total counter
fd_fed_udp_frames_delayed_total 23
# HELP fd_fed_udp_decode_rejects_total Received datagrams that failed wire decoding.
# TYPE fd_fed_udp_decode_rejects_total counter
fd_fed_udp_decode_rejects_total 24
# HELP fd_fed_last_takeover_latency_seconds Kill-to-first-adoption latency of the most recent takeover.
# TYPE fd_fed_last_takeover_latency_seconds gauge
fd_fed_last_takeover_latency_seconds 2.5
# HELP fd_fed_link_state Directed link health: 0 Direct, 1 Relayed, 2 Cut.
# TYPE fd_fed_link_state gauge
fd_fed_link_state{from=\"1\",to=\"2\"} 0
fd_fed_link_state{from=\"1\",to=\"3\"} 2
fd_fed_link_state{from=\"2\",to=\"1\"} 1
";

    #[test]
    fn renders_byte_identically_to_the_hand_listed_renderers() {
        let m = numbered_metrics();
        let mut prom = String::new();
        m.prometheus(&mut prom);
        assert_eq!(prom, PR19_PROMETHEUS);
        assert_eq!(m.json_fields(), vec![("federation".to_string(), PR19_JSON.to_string())]);
    }

    #[test]
    fn json_is_one_object_field() {
        let m = FedMetrics::new();
        m.peers_registered.store(9, Ordering::Relaxed);
        let fields = m.json_fields();
        assert_eq!(fields.len(), 1);
        assert_eq!(fields[0].0, "federation");
        assert!(fields[0].1.starts_with('{') && fields[0].1.ends_with('}'));
        assert!(fields[0].1.contains("\"peers_registered\":9"));
        assert!(fields[0].1.contains("\"last_takeover_latency_seconds\":0"));
    }

    #[test]
    fn link_states_render_in_both_forms() {
        let m = FedMetrics::new();
        m.summary_rejects.store(3, Ordering::Relaxed);
        m.set_link_states([
            ((1, 2), LinkState::Direct),
            ((2, 1), LinkState::Relayed),
            ((1, 3), LinkState::Cut),
            ((3, 1), LinkState::Cut),
        ]);
        assert_eq!(m.links_direct.load(Ordering::Relaxed), 1);
        assert_eq!(m.links_relayed.load(Ordering::Relaxed), 1);
        assert_eq!(m.links_cut.load(Ordering::Relaxed), 2);
        let mut out = String::new();
        m.prometheus(&mut out);
        assert!(out.contains("# TYPE fd_fed_link_state gauge"));
        assert!(out.contains("fd_fed_link_state{from=\"1\",to=\"2\"} 0"));
        assert!(out.contains("fd_fed_link_state{from=\"2\",to=\"1\"} 1"));
        assert!(out.contains("fd_fed_link_state{from=\"1\",to=\"3\"} 2"));
        assert!(out.contains("fd_fed_links_cut 2"));
        assert!(out.contains("fd_fed_summary_rejects_total 3"));
        assert!(out.contains("fd_fed_repair_requests_total 0"));
        assert!(out.contains("fd_fed_relayed_digests_total 0"));
        let json = &m.json_fields()[0].1;
        assert!(json.contains("\"link_states\":{\"1-2\":0,\"1-3\":2,\"2-1\":1,\"3-1\":2}"));
        assert!(json.contains("\"summary_rejects\":3"));
        assert!(json.contains("\"links_cut\":2"));
    }
}
