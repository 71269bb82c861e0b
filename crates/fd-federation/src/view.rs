//! Aggregated cross-node trust: the federation's answer to "who is up,
//! cluster-wide?", plus the event vocabulary of failover.

use crate::hash::NodeId;
use fd_cluster::PeerId;
use fd_metrics::FdOutput;
use std::collections::BTreeMap;

/// Health of one directed gossip link, as judged by the observing node
/// from digest arrival freshness (see
/// [`FederationNode::link_state`](crate::FederationNode::link_state)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LinkState {
    /// Digests from the target arrive directly within the link timeout.
    Direct,
    /// Direct digests have stopped, but relayed copies still arrive —
    /// the target is alive and reachable transitively.
    Relayed,
    /// Neither direct nor relayed digests arrive: the link (or the
    /// target) is gone.
    Cut,
}

impl LinkState {
    /// Stable numeric encoding for metrics export: 0 = Direct,
    /// 1 = Relayed, 2 = Cut.
    pub fn as_u8(self) -> u8 {
        match self {
            LinkState::Direct => 0,
            LinkState::Relayed => 1,
            LinkState::Cut => 2,
        }
    }
}

/// What changed at the federation tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FedChange {
    /// The observing node declared another monitor node dead.
    NodeSuspected {
        /// The node declared dead.
        node: NodeId,
    },
    /// The observing node saw a monitor node (back) alive.
    NodeTrusted {
        /// The node now trusted.
        node: NodeId,
    },
    /// The observing node adopted an orphaned peer.
    PeerAdopted {
        /// The adopted peer.
        peer: PeerId,
        /// The node that owned it before (per the last gossiped digest).
        from: NodeId,
    },
    /// The observing node released a peer whose rendezvous owner is
    /// alive again (or never stopped being someone else).
    PeerReleased {
        /// The released peer.
        peer: PeerId,
        /// The node that owns it now.
        to: NodeId,
    },
}

/// One federation-tier transition, stamped with the observing node and
/// the harness clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedEvent {
    /// Harness-clock time of the transition, seconds.
    pub at: f64,
    /// The node that observed/performed it.
    pub node: NodeId,
    /// What happened.
    pub change: FedChange,
}

/// A merged, point-in-time view of every owned peer across the alive
/// nodes: for each peer, which node vouches for it and what that node's
/// detector says: the federation-wide counterpart of one
/// [`ClusterSnapshot`](fd_cluster::ClusterSnapshot).
#[derive(Debug, Clone, Default)]
pub struct FederationView {
    at: f64,
    outputs: BTreeMap<PeerId, (NodeId, FdOutput)>,
    links: BTreeMap<(NodeId, NodeId), LinkState>,
}

impl FederationView {
    /// Builds a view from `(peer, owner, output)` triples taken at `at`.
    /// When two nodes both report a peer (a failover overlap window),
    /// a trusting report wins — trust requires fresh evidence, while
    /// suspicion is the fail-safe default of a just-adopted peer.
    pub fn from_reports(at: f64, reports: impl IntoIterator<Item = (PeerId, NodeId, FdOutput)>) -> Self {
        let mut outputs: BTreeMap<PeerId, (NodeId, FdOutput)> = BTreeMap::new();
        for (peer, node, output) in reports {
            match outputs.get(&peer) {
                Some((_, existing)) if existing.is_trust() || !output.is_trust() => {}
                _ => {
                    outputs.insert(peer, (node, output));
                }
            }
        }
        Self { at, outputs, links: BTreeMap::new() }
    }

    /// Attaches per-link health: `(observer, target) → state` for every
    /// directed gossip link the observing nodes judge.
    pub fn with_links(
        mut self,
        links: impl IntoIterator<Item = ((NodeId, NodeId), LinkState)>,
    ) -> Self {
        self.links = links.into_iter().collect();
        self
    }

    /// The observing node's judgement of its link to `target`, if the
    /// view carries link health.
    pub fn link(&self, observer: NodeId, target: NodeId) -> Option<LinkState> {
        self.links.get(&(observer, target)).copied()
    }

    /// All judged links, `(observer, target) → state`, ascending.
    pub fn links(&self) -> &BTreeMap<(NodeId, NodeId), LinkState> {
        &self.links
    }

    /// Harness-clock time the view was assembled.
    pub fn taken_at(&self) -> f64 {
        self.at
    }

    /// The vouching node and its verdict for `peer`, if any node owns it.
    pub fn report(&self, peer: PeerId) -> Option<(NodeId, FdOutput)> {
        self.outputs.get(&peer).copied()
    }

    /// The node currently vouching for `peer`.
    pub fn owner_of(&self, peer: PeerId) -> Option<NodeId> {
        self.report(peer).map(|(n, _)| n)
    }

    /// Peers trusted somewhere in the federation, ascending.
    pub fn trusted(&self) -> Vec<PeerId> {
        self.outputs.iter().filter(|(_, (_, o))| o.is_trust()).map(|(p, _)| *p).collect()
    }

    /// Peers suspected by their owning node, ascending.
    pub fn suspected(&self) -> Vec<PeerId> {
        self.outputs.iter().filter(|(_, (_, o))| !o.is_trust()).map(|(p, _)| *p).collect()
    }

    /// Number of peers some node vouches for.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// Whether no node vouches for any peer.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_prefers_trusting_reports() {
        let view = FederationView::from_reports(
            5.0,
            [
                (1, 10, FdOutput::Suspect),
                (1, 20, FdOutput::Trust), // overlap: adopter still warming up
                (2, 10, FdOutput::Trust),
                (2, 20, FdOutput::Suspect),
                (3, 10, FdOutput::Suspect),
            ],
        );
        assert_eq!(view.taken_at(), 5.0);
        assert_eq!(view.report(1), Some((20, FdOutput::Trust)));
        assert_eq!(view.report(2), Some((10, FdOutput::Trust)));
        assert_eq!(view.report(3), Some((10, FdOutput::Suspect)));
        assert_eq!(view.trusted(), vec![1, 2]);
        assert_eq!(view.suspected(), vec![3]);
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert_eq!(view.report(99), None);
    }

    #[test]
    fn link_health_rides_the_view() {
        let view = FederationView::from_reports(1.0, [(7, 1, FdOutput::Trust)])
            .with_links([((1, 2), LinkState::Direct), ((2, 1), LinkState::Relayed)]);
        assert_eq!(view.link(1, 2), Some(LinkState::Direct));
        assert_eq!(view.link(2, 1), Some(LinkState::Relayed));
        assert_eq!(view.link(1, 3), None);
        assert_eq!(view.links().len(), 2);
        assert_eq!(LinkState::Direct.as_u8(), 0);
        assert_eq!(LinkState::Relayed.as_u8(), 1);
        assert_eq!(LinkState::Cut.as_u8(), 2);
    }
}
