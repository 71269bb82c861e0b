//! Multi-node monitor tier: federation of cluster monitors with gossip
//! digest aggregation and cross-node partition failover.
//!
//! `fd-cluster` scales the paper's one-monitor/one-peer QoS analysis to
//! one node watching N peers; this crate scales it to **M nodes
//! watching N peers with no single point of monitoring failure**. The
//! construction reuses the paper's pairwise NFD-E abstraction at two
//! levels rather than inventing new detection machinery:
//!
//! * **Partitioning** — each peer is owned by exactly one monitor node,
//!   chosen by rendezvous (highest-random-weight) [`hash`]ing over the
//!   node set. Ownership is a pure function of `(node set, peer)`, so
//!   every node derives the same assignment without coordination, and
//!   removing one node moves only that node's peers (minimal
//!   disruption).
//! * **Digest gossip** — nodes exchange compressed per-partition
//!   [`digest`]s (17 bytes/peer: id, incarnation, trusted/degraded
//!   bits, plus an aggregate summary) over the wire's digest frames
//!   (`fd_cluster::wire`, behind the header every cluster frame
//!   shares). Steady-state rounds ship deltas; a periodic full refresh
//!   bounds divergence after message loss.
//! * **Monitor-of-monitors** — every accepted digest doubles as a node
//!   heartbeat into a second embedded `ClusterMonitor`
//!   (fd_cluster::ClusterMonitor) whose peers are the *other monitor
//!   nodes*, so node-failure detection inherits NFD-E's `T_D ≤ η + α`
//!   bound with the gossip interval as `η`, and node restarts ride the
//!   existing incarnation machinery.
//! * **Failover** — when a node is declared dead, each survivor
//!   re-ranks the dead node's peers over the alive set and adopts
//!   exactly those that now rendezvous to it, warm-started with the
//!   highest gossiped incarnation
//!   ([`ClusterMonitor::add_peer_warm`](fd_cluster::ClusterMonitor::add_peer_warm))
//!   so traffic from a peer's previous life cannot forge trust. A
//!   restarted node earns its partition back by the same rule in
//!   reverse.
//!
//! The gossip round is [`FederationNode`]'s own:
//! [`outbound`](FederationNode::outbound) is everything a node sends in
//! a round, as addressed wire bytes, and
//! [`handle`](FederationNode::handle) applies one decoded frame and
//! returns the answers. A fabric only moves the bytes — a
//! [`GossipEndpoint`] on `fd-cluster`'s datagram plane (real UDP, the
//! same link-fault stage as heartbeats), or the [`Federation`] harness,
//! which wires M nodes together with a deterministic,
//! explicitly-clocked in-process fabric (frames genuinely encode/decode
//! through the wire), kill/restart fault injection, [`Coverage`] and
//! convergence queries, and a merged [`FederationView`]. The whole
//! federation elects one leader: [`Federation::election_candidates`]
//! merges every alive node's owned candidacies, read at each node's own
//! monitor clock, for one
//! [`CrashRecoveryElector`](fd_cluster::CrashRecoveryElector). Federation-tier
//! metrics ([`FedMetrics`]) mount onto the existing exporter endpoint
//! as `fd_fed_*` series via
//! [`MetricsExporter::bind_with_sources`](fd_cluster::MetricsExporter::bind_with_sources).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod federation;
pub mod hash;
pub mod metrics;
pub mod node;
pub mod transport;
pub mod view;

pub use digest::{claims_of, digest_from_claims, PartitionDigest, PeerClaim};
pub use federation::{Coverage, Federation, FederationConfig};
pub use hash::{owner, ranking, splitmix64, weight, NodeId};
pub use metrics::FedMetrics;
pub use node::{
    DigestOutcome, FederationNode, NodeConfig, RemotePartition, Via, BOOTSTRAP_GRACE, NODE_WATCH,
};
pub use transport::GossipEndpoint;
pub use view::{FedChange, FedEvent, FederationView, LinkState};
