//! Property: digest gossip ingest is order- and duplication-tolerant.
//!
//! Any permutation-with-duplicates of a digest sequence converges to
//! the same [`FederationView`] as in-order delivery, provided the
//! sequence's highest round is a full refresh (the anti-entropy
//! invariant the periodic refresh guarantees in steady state): late or
//! re-delivered deltas are rejected as stale/duplicate, and the full
//! round replaces the claim set wholesale, so arrival order cannot
//! change the fixed point.

use fd_cluster::DigestFrame;
use fd_core::Heartbeat;
use fd_federation::{FedMetrics, FederationNode, FederationView, NodeConfig, NodeId, Via};
use fd_metrics::FdOutput;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use std::sync::Arc;

const SENDER: NodeId = 2;
const RECEIVER: NodeId = 1;
const PEER_BASE: u64 = 100;
const MAX_PEERS: usize = 12;

fn cfg() -> NodeConfig {
    // Large: every generated round is a delta except the explicit
    // final full refresh.
    NodeConfig { full_refresh_every: 1_000, ..NodeConfig::default() }
}

fn spawn(id: NodeId) -> FederationNode {
    FederationNode::spawn(id, 1, &[RECEIVER, SENDER], cfg(), Arc::new(FedMetrics::new()))
        .expect("spawn")
}

/// Drives the sender through `beats` rounds (one per inner vec; `true`
/// at index `i` heartbeats peer `PEER_BASE + i`), closing with a full
/// refresh, and returns the flattened frame sequence in send order.
fn digest_sequence(n_peers: usize, beats: &[Vec<bool>]) -> Vec<DigestFrame> {
    let mut sender = spawn(SENDER);
    for i in 0..n_peers {
        sender.assign_peer(PEER_BASE + i as u64).expect("assign");
    }
    let mut frames = Vec::new();
    let mut seq = 0u64;
    for (r, round_beats) in beats.iter().enumerate() {
        let now = 1.0 + r as f64;
        seq += 1;
        for (i, &beat) in round_beats.iter().enumerate().take(n_peers) {
            if beat {
                sender.deliver(PEER_BASE + i as u64, now, 1, Heartbeat::new(seq, now));
            }
        }
        frames.extend(sender.gossip_digest(now).frames());
    }
    let end = 1.0 + beats.len() as f64;
    frames.extend(sender.full_refresh_digest(end).frames());
    frames
}

/// Ingests `frames` into a fresh receiver and distils its picture of
/// the sender's partition into a view (fixed timestamp so order cannot
/// leak in through the clock).
fn converged_view(frames: &[DigestFrame]) -> (FederationView, u64, u64) {
    let mut rx = spawn(RECEIVER);
    for (i, f) in frames.iter().enumerate() {
        rx.receive_digest_via(f, 1.0 + i as f64 * 0.01, Via::Direct);
    }
    let part = rx.remote_partition(SENDER).expect("sequence must merge something");
    let view = FederationView::from_reports(
        0.0,
        part.claims.iter().map(|(&p, c)| {
            (p, SENDER, if c.trusted { FdOutput::Trust } else { FdOutput::Suspect })
        }),
    );
    (view, part.node_incarnation, part.round)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_permutation_with_duplicates_converges_to_the_in_order_view(
        n_peers in 1usize..MAX_PEERS,
        beats in collection::vec(collection::vec(proptest::bool::ANY, MAX_PEERS), 1..6),
        dup_picks in collection::vec(0usize..1_000, 0..6),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let frames = digest_sequence(n_peers, &beats);
        let (want_view, want_inc, want_round) = converged_view(&frames);

        // Duplicate a few frames, then Fisher–Yates the whole batch.
        let mut scrambled: Vec<DigestFrame> = frames.clone();
        for &pick in &dup_picks {
            scrambled.push(frames[pick % frames.len()].clone());
        }
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        for i in (1..scrambled.len()).rev() {
            let j = rng.random_range(0..(i + 1));
            scrambled.swap(i, j);
        }
        let (got_view, got_inc, got_round) = converged_view(&scrambled);

        prop_assert_eq!(got_inc, want_inc);
        prop_assert_eq!(got_round, want_round);
        prop_assert_eq!(got_view.trusted(), want_view.trusted());
        prop_assert_eq!(got_view.suspected(), want_view.suspected());
        prop_assert_eq!(got_view.len(), want_view.len());
    }
}
