//! Multi-node fault plans: one scripted timeline across a *set* of
//! monitor nodes and the links between them.
//!
//! The paper's model is pairwise — one monitor, one monitored process,
//! one link — and a [`FaultPlan`] scripts
//! exactly that pair. A federation of monitor nodes (the `fd-federation`
//! crate) needs the same determinism one level up: *which node is down
//! when*, and *which inter-node link misbehaves when*, so that a
//! cross-node failover scenario replays byte-identically from a seed.
//!
//! A [`MultiNodePlan`] is a thin composition: a per-node
//! [`FaultPlan`] scripting that node's crash/restart schedule, plus a
//! per-link `FaultPlan` scripting gossip-link faults. Links are
//! undirected and normalized (`(a, b)` with `a < b`) by default,
//! matching the anti-entropy gossip exchange which is symmetric; a
//! *directed* overlay (`cut_link_oneway`) scripts asymmetric faults —
//! `a → b` cut while
//! `b → a` stays alive — which is what real routing failures look like
//! and what the federation's relay/repair machinery must survive. A
//! directed overlay, when present, takes precedence over the undirected
//! script for that direction. Every embedded plan gets its own seed
//! derived from the plan seed by splitmix64, so two nodes' fault
//! realizations are decorrelated yet fully reproducible.

use crate::fault::{FaultPlan, LinkFault};
use std::collections::BTreeMap;

/// Identifier of a federation monitor node in a plan.
pub type NodeId = u64;

/// splitmix64 — the standard 64-bit finalizer used to derive per-node
/// and per-link sub-seeds from the plan seed.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Normalizes an undirected link key.
fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    assert!(a != b, "a link connects two distinct nodes, got {a}-{a}");
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A deterministic fault script for a whole monitor federation: node
/// crash/restart schedules plus inter-node link faults, all on one
/// shared timeline (seconds from scenario start).
///
/// # Example
///
/// ```
/// use fd_sim::multi::MultiNodePlan;
///
/// // Node 2 dies at 30 s and returns at 60 s; meanwhile the 0–1 gossip
/// // link suffers a delay spike.
/// let plan = MultiNodePlan::new(7)
///     .kill_node(2, 30.0)
///     .restart_node(2, 60.0)
///     .delay_spike_link(0, 1, 25.0, 45.0, 0.5, 0.1);
/// assert!(plan.is_node_crashed_at(2, 40.0));
/// assert!(!plan.is_node_crashed_at(2, 70.0));
/// assert!(!plan.link_blocked_at(0, 1, 30.0)); // delayed, not dropped
/// ```
#[derive(Debug, Clone)]
pub struct MultiNodePlan {
    seed: u64,
    nodes: BTreeMap<NodeId, FaultPlan>,
    links: BTreeMap<(NodeId, NodeId), FaultPlan>,
    /// Directed `from → to` overlays; when present for a direction they
    /// replace the undirected script on that direction entirely.
    dlinks: BTreeMap<(NodeId, NodeId), FaultPlan>,
}

impl MultiNodePlan {
    /// An empty plan (every node up, every link nominal, forever).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            nodes: BTreeMap::new(),
            links: BTreeMap::new(),
            dlinks: BTreeMap::new(),
        }
    }

    /// The plan's root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The sub-seed a consumer should use for randomness attributed to
    /// `node` (heartbeat jitter, gossip peer sampling, …). Stable across
    /// runs, decorrelated across nodes.
    pub fn node_seed(&self, node: NodeId) -> u64 {
        splitmix64(self.seed ^ splitmix64(node))
    }

    fn with_node_plan(mut self, node: NodeId, f: impl FnOnce(FaultPlan) -> FaultPlan) -> Self {
        let seed = self.node_seed(node);
        let plan = self.nodes.remove(&node).unwrap_or_else(|| FaultPlan::new(seed));
        self.nodes.insert(node, f(plan));
        self
    }

    fn with_link_plan(
        mut self,
        a: NodeId,
        b: NodeId,
        f: impl FnOnce(FaultPlan) -> FaultPlan,
    ) -> Self {
        let key = link_key(a, b);
        let seed = splitmix64(self.seed ^ splitmix64(key.0 ^ splitmix64(key.1)));
        let plan = self.links.remove(&key).unwrap_or_else(|| FaultPlan::new(seed));
        self.links.insert(key, f(plan));
        self
    }

    fn with_dlink_plan(
        mut self,
        from: NodeId,
        to: NodeId,
        f: impl FnOnce(FaultPlan) -> FaultPlan,
    ) -> Self {
        assert!(from != to, "a link connects two distinct nodes, got {from}-{to}");
        let seed = self.link_seed(from, to);
        let plan = self.dlinks.remove(&(from, to)).unwrap_or_else(|| FaultPlan::new(seed));
        self.dlinks.insert((from, to), f(plan));
        self
    }

    /// The sub-seed a consumer should use for fault randomness on the
    /// *directed* link `from → to` (loss coins, delay jitter). Unlike
    /// the undirected link seed it distinguishes the two directions, so
    /// an asymmetric realization never mirrors itself.
    pub fn link_seed(&self, from: NodeId, to: NodeId) -> u64 {
        splitmix64(self.seed ^ splitmix64(from ^ splitmix64(to).rotate_left(1)))
    }

    /// Schedules a crash of monitor `node` at `at`. Per-node events must
    /// be appended in non-decreasing time order (the underlying
    /// [`FaultPlan`] enforces this).
    pub fn kill_node(self, node: NodeId, at: f64) -> Self {
        self.with_node_plan(node, |p| p.crash(at))
    }

    /// Schedules a restart of monitor `node` at `at`.
    pub fn restart_node(self, node: NodeId, at: f64) -> Self {
        self.with_node_plan(node, |p| p.recover(at))
    }

    /// Partitions the undirected gossip link `a`–`b` over `[start, heal)`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`, `heal <= start`, or times are invalid.
    pub fn partition_link(self, a: NodeId, b: NodeId, start: f64, heal: f64) -> Self {
        assert!(heal > start, "link fault must heal after it starts ({heal} <= {start})");
        self.with_link_plan(a, b, |p| {
            p.link_fault(start, LinkFault::Partition).link_fault(heal, LinkFault::Nominal)
        })
    }

    /// Overlays a delay spike (`extra` seconds plus uniform jitter in
    /// `[0, jitter)`) on the gossip link `a`–`b` over `[start, heal)`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`, `heal <= start`, or parameters are invalid.
    pub fn delay_spike_link(
        self,
        a: NodeId,
        b: NodeId,
        start: f64,
        heal: f64,
        extra: f64,
        jitter: f64,
    ) -> Self {
        assert!(heal > start, "link fault must heal after it starts ({heal} <= {start})");
        self.with_link_plan(a, b, |p| {
            p.link_fault(start, LinkFault::DelaySpike { extra, jitter })
                .link_fault(heal, LinkFault::Nominal)
        })
    }

    /// Overlays an i.i.d. loss rate `p` on the undirected gossip link
    /// `a`–`b` over `[start, heal)` — the lossy-link case the digest
    /// NACK/anti-entropy repair machinery exists for.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`, `heal <= start`, or `p` is not in `[0, 1]`.
    pub fn loss_link(self, a: NodeId, b: NodeId, start: f64, heal: f64, p: f64) -> Self {
        assert!(heal > start, "link fault must heal after it starts ({heal} <= {start})");
        self.with_link_plan(a, b, |plan| {
            plan.link_fault(start, LinkFault::Loss { p }).link_fault(heal, LinkFault::Nominal)
        })
    }

    /// Cuts only the `from → to` direction of a link over `[start,
    /// heal)`: frames from `from` never reach `to`, while the reverse
    /// direction keeps whatever the undirected script says (nominal by
    /// default). The asymmetric partition of a broken route.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`, `heal <= start`, or times are invalid.
    pub fn cut_link_oneway(self, from: NodeId, to: NodeId, start: f64, heal: f64) -> Self {
        assert!(heal > start, "link fault must heal after it starts ({heal} <= {start})");
        self.with_dlink_plan(from, to, |p| {
            p.link_fault(start, LinkFault::Partition).link_fault(heal, LinkFault::Nominal)
        })
    }

    /// Whether monitor `node` is scripted down at `t`. Nodes never
    /// mentioned in the plan are always up.
    pub fn is_node_crashed_at(&self, node: NodeId, t: f64) -> bool {
        self.nodes.get(&node).is_some_and(|p| p.is_crashed_at(t))
    }

    /// The link fault in force on `a`–`b` at `t` (either direction).
    pub fn link_fault_at(&self, a: NodeId, b: NodeId, t: f64) -> LinkFault {
        self.links
            .get(&link_key(a, b))
            .map_or(LinkFault::Nominal, |p| p.link_fault_at(t))
    }

    /// Whether gossip on `a`–`b` is fully blocked at `t` (a scripted
    /// [`LinkFault::Partition`]). Delay and loss overlays do not block.
    pub fn link_blocked_at(&self, a: NodeId, b: NodeId, t: f64) -> bool {
        matches!(self.link_fault_at(a, b, t), LinkFault::Partition)
    }

    /// The link fault in force on the *directed* path `from → to` at
    /// `t`: the directed overlay if one is scripted for that direction,
    /// else the undirected link's fault.
    fn link_fault_from_to(&self, from: NodeId, to: NodeId, t: f64) -> LinkFault {
        match self.dlinks.get(&(from, to)) {
            Some(p) => p.link_fault_at(t),
            None => self.link_fault_at(from, to, t),
        }
    }

    /// Whether frames from `from` to `to` are fully blocked at `t`.
    pub fn link_blocked_from_to(&self, from: NodeId, to: NodeId, t: f64) -> bool {
        matches!(self.link_fault_from_to(from, to, t), LinkFault::Partition)
    }

    /// The fault script governing the directed path `from → to`, if any
    /// is scripted: the directed overlay wins, else the undirected link
    /// plan. Transports build a
    /// [`FaultInjector`](crate::fault::FaultInjector) per destination
    /// from this.
    pub fn link_plan_from_to(&self, from: NodeId, to: NodeId) -> Option<&FaultPlan> {
        self.dlinks
            .get(&(from, to))
            .or_else(|| (from != to).then(|| self.links.get(&link_key(from, to))).flatten())
    }

    /// The latest scheduled time across all node and link timelines;
    /// `0.0` for an empty plan. Scenario horizons must exceed this for
    /// the full script to play out.
    pub fn last_event_time(&self) -> f64 {
        let nodes = self.nodes.values().map(FaultPlan::last_event_time).fold(0.0, f64::max);
        let links = self.links.values().map(FaultPlan::last_event_time).fold(0.0, f64::max);
        let dlinks = self.dlinks.values().map(FaultPlan::last_event_time).fold(0.0, f64::max);
        nodes.max(links).max(dlinks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_crash_windows_are_independent() {
        let plan = MultiNodePlan::new(1)
            .kill_node(2, 10.0)
            .restart_node(2, 20.0)
            .kill_node(3, 15.0);
        assert!(!plan.is_node_crashed_at(2, 9.0));
        assert!(plan.is_node_crashed_at(2, 10.0));
        assert!(!plan.is_node_crashed_at(2, 25.0));
        assert!(plan.is_node_crashed_at(3, 1e6));
        assert!(!plan.is_node_crashed_at(0, 1e6), "unscripted nodes stay up");
    }

    #[test]
    fn links_are_undirected_and_normalized() {
        let plan = MultiNodePlan::new(1).partition_link(5, 1, 10.0, 20.0);
        for (a, b) in [(1, 5), (5, 1)] {
            assert!(!plan.link_blocked_at(a, b, 9.0));
            assert!(plan.link_blocked_at(a, b, 10.0));
            assert!(!plan.link_blocked_at(a, b, 20.0));
        }
        assert!(!plan.link_blocked_at(1, 2, 15.0), "other links unaffected");
    }

    #[test]
    fn delay_spike_is_not_a_block() {
        let plan = MultiNodePlan::new(1).delay_spike_link(0, 1, 5.0, 15.0, 0.5, 0.0);
        assert!(!plan.link_blocked_at(0, 1, 10.0));
        assert_eq!(
            plan.link_fault_at(1, 0, 10.0),
            LinkFault::DelaySpike { extra: 0.5, jitter: 0.0 }
        );
        assert_eq!(plan.link_fault_at(0, 1, 20.0), LinkFault::Nominal);
    }

    #[test]
    fn successive_builders_extend_one_timeline() {
        // kill → restart → kill again on one node flows through the same
        // underlying FaultPlan, so ordering is checked.
        let plan = MultiNodePlan::new(1)
            .kill_node(7, 1.0)
            .restart_node(7, 2.0)
            .kill_node(7, 3.0);
        assert!(plan.is_node_crashed_at(7, 1.5));
        assert!(!plan.is_node_crashed_at(7, 2.5));
        assert!(plan.is_node_crashed_at(7, 3.5));
        assert_eq!(plan.last_event_time(), 3.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_node_events_are_rejected() {
        let _ = MultiNodePlan::new(1).kill_node(7, 5.0).restart_node(7, 1.0);
    }

    #[test]
    #[should_panic(expected = "two distinct nodes")]
    fn self_links_are_rejected() {
        let _ = MultiNodePlan::new(1).partition_link(3, 3, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "heal after it starts")]
    fn degenerate_link_windows_are_rejected() {
        let _ = MultiNodePlan::new(1).partition_link(0, 1, 5.0, 5.0);
    }

    #[test]
    fn oneway_cut_blocks_exactly_one_direction() {
        let plan = MultiNodePlan::new(1).cut_link_oneway(0, 1, 10.0, 20.0);
        assert!(!plan.link_blocked_from_to(0, 1, 9.0));
        assert!(plan.link_blocked_from_to(0, 1, 10.0));
        assert!(plan.link_blocked_from_to(0, 1, 19.0));
        assert!(!plan.link_blocked_from_to(0, 1, 20.0));
        // The reverse direction never blocks.
        for t in [9.0, 15.0, 25.0] {
            assert!(!plan.link_blocked_from_to(1, 0, t), "1→0 must stay alive at {t}");
        }
        // The undirected query knows nothing of the overlay.
        assert!(!plan.link_blocked_at(0, 1, 15.0));
    }

    #[test]
    fn directed_overlay_takes_precedence_over_undirected_script() {
        let plan = MultiNodePlan::new(3)
            .delay_spike_link(2, 3, 0.0, 100.0, 0.5, 0.0)
            .cut_link_oneway(2, 3, 10.0, 20.0);
        // 2→3 is governed by the overlay: nominal before the cut, cut
        // during, nominal after (the overlay replaces, not merges).
        assert_eq!(plan.link_fault_from_to(2, 3, 5.0), LinkFault::Nominal);
        assert!(plan.link_blocked_from_to(2, 3, 15.0));
        // 3→2 still sees the undirected spike.
        assert_eq!(
            plan.link_fault_from_to(3, 2, 15.0),
            LinkFault::DelaySpike { extra: 0.5, jitter: 0.0 }
        );
        assert!(plan.link_plan_from_to(2, 3).is_some());
        assert!(plan.link_plan_from_to(3, 2).is_some());
        assert!(plan.link_plan_from_to(0, 9).is_none());
    }

    #[test]
    fn loss_overlays_apply_both_ways_and_do_not_block() {
        let plan = MultiNodePlan::new(5).loss_link(0, 1, 0.0, 50.0, 0.3);
        assert_eq!(plan.link_fault_from_to(0, 1, 10.0), LinkFault::Loss { p: 0.3 });
        assert_eq!(plan.link_fault_from_to(1, 0, 10.0), LinkFault::Loss { p: 0.3 });
        assert!(!plan.link_blocked_from_to(0, 1, 10.0));
    }

    #[test]
    fn directed_seeds_distinguish_directions() {
        let plan = MultiNodePlan::new(42);
        assert_eq!(plan.link_seed(0, 1), MultiNodePlan::new(42).link_seed(0, 1));
        assert_ne!(plan.link_seed(0, 1), plan.link_seed(1, 0));
    }

    #[test]
    fn last_event_time_spans_directed_overlays() {
        let plan = MultiNodePlan::new(1).kill_node(0, 30.0).cut_link_oneway(1, 2, 10.0, 70.0);
        assert_eq!(plan.last_event_time(), 70.0);
    }

    #[test]
    fn seeds_are_stable_and_decorrelated() {
        let plan = MultiNodePlan::new(42);
        assert_eq!(plan.node_seed(0), MultiNodePlan::new(42).node_seed(0));
        assert_ne!(plan.node_seed(0), plan.node_seed(1));
        assert_ne!(plan.node_seed(0), MultiNodePlan::new(43).node_seed(0));
    }

    #[test]
    fn last_event_time_spans_nodes_and_links() {
        let plan = MultiNodePlan::new(1).kill_node(0, 30.0).partition_link(1, 2, 10.0, 50.0);
        assert_eq!(plan.last_event_time(), 50.0);
        assert_eq!(MultiNodePlan::new(1).last_event_time(), 0.0);
    }
}
