//! Many-peer membership on top of the paper's NFD-E detector.
//!
//! The paper analyzes one monitor watching one process; a thread per
//! watched process stops scaling long before the "heavy traffic" regime.
//! This crate is the membership layer that related work (Dobre et al.'s
//! robust detection architecture, Rossetto et al.'s Impact FD) builds
//! for that regime: **one node monitoring N peers with O(1) threads**.
//! One peer is the paper's single pair.
//!
//! Three pieces make that work:
//!
//! * a sharded `PeerRegistry` — a fixed power-of-two number of
//!   `RwLock`-guarded shards, each holding per-peer NFD-E state (the §6.3
//!   freshness-point machine with its sliding-window arrival estimator),
//!   the current suspect/trust verdict and per-peer QoS counters, so
//!   heartbeat recording from many sockets/threads contends only
//!   per-shard;
//! * a hashed [`TimerWheel`](wheel::TimerWheel) — freshness-point
//!   expirations for *all* peers are bucketed into coarse time slots and
//!   driven by one sweep, instead of one timer thread per peer: a single
//!   ticker thread runs it at the wall-clock time
//!   ([`ClusterMonitor::spawn`]), or a deterministic driver runs it at
//!   the times it scripts ([`ClusterMonitor::manual`] +
//!   [`advance_to`](ClusterMonitor::advance_to): no thread, no wall
//!   clock, every event time a function of the script);
//! * a batched [`wire`] protocol — many
//!   `(peer_id, incarnation, seq, send_ts)` heartbeat entries per
//!   datagram, multiplexed by [`ClusterSender`]/[`ClusterReceiver`] over
//!   a single UDP socket, plus *control* frames carrying
//!   `(peer_id, η)` recommendations back toward the senders, all behind
//!   one frame header.
//!
//! PR 3 hardens the layer for the *crash-recovery* model: heartbeats
//! carry sender incarnations (stale lives are rejected, new lives reset
//! detector state), the monitor persists and restores a
//! [`snapshot`] of per-peer estimator state for warm restarts, and every
//! thread the crate starts runs under one panic supervisor
//! ([`backoff`]) with queryable [`Health`], bounded
//! restarts and — on the receive path — overload shedding.
//!
//! PR 5 adds the **adaptive QoS control plane** (§8.1 of the paper at
//! cluster scale): peers registered with
//! [`PeerConfig::requirements`] get a per-peer short/long conservative
//! estimator pair (§8.1.2); a supervised control thread periodically
//! re-runs the §6.2 configurator against each peer's
//! `(T_D^U, T_MR^L, T_M^U)`, applies new `α` warm at the shard-locked
//! transition point, recommends sender-side `η` changes (drained via
//! [`ClusterMonitor::drain_eta_recommendations`], shipped by
//! [`ControlSender`], consumed by [`ControlListener`]), and — when the
//! requirements are infeasible under the current network estimate —
//! degrades the peer gracefully to best-effort parameters
//! ([`QosState::Degraded`], with `Degraded`/`Promoted` membership
//! events and hysteretic re-promotion).
//!
//! The public façade is [`ClusterMonitor`]: `add_peer` / `remove_peer` /
//! `status` / `snapshot`, plus a bounded membership-event subscription
//! channel. [`ClusterMonitor::election_candidates`] reads every peer's
//! candidacy (trust, incarnation, stability) lock-free, and the one
//! leader elector, [`CrashRecoveryElector`], elects over it.
//!
//! The crate also owns the vocabulary every tier above it shares:
//! per-process clocks ([`clock`]: monotone, and skewed for the
//! unsynchronized setting of §6), the typed [`RuntimeError`]/[`Health`]
//! of the OS-facing plumbing ([`error`]), and the sender's durable
//! [`IncarnationStore`] ([`incarnation`]).
//!
//! Per-peer QoS is unchanged from the paper: each peer gets its own NFD-E
//! instance with its own `(η, α)`, so the detection-time bound
//! `T_D ≤ η + α (+ one wheel tick of scheduling slack)` holds peer by
//! peer no matter how many peers share the node.

// `deny` instead of `forbid`: the one FFI module ([`mmsg`]) carries a
// scoped allow for the hand-declared `recvmmsg`/`sendmmsg` syscall
// bindings; everything else in the crate still refuses `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod clock;
pub mod election;
pub mod error;
pub mod events;
pub mod exporter;
pub mod incarnation;
#[allow(unsafe_code)]
pub mod mmsg;
pub mod monitor;
mod registry;
pub mod net;
pub mod snapshot;
pub mod wheel;
pub mod wire;

/// Identifier of a monitored peer, as carried on the wire.
pub type PeerId = u64;

/// The crate's one poisoning decision: take the guard out of a
/// `PoisonError`. A supervised ticker, pump or control thread that
/// panics while holding a lock must not wedge the threads that share it;
/// every lock site goes through here.
pub(crate) fn unpoison<G>(locked: std::sync::LockResult<G>) -> G {
    locked.unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use clock::{Clock, SkewedClock, WallClock};
pub use election::{
    Candidate, CrashRecoveryElector, DemotionReason, ElectionConfig, ElectionEvent,
    ElectionRecord, ElectionState, LeaderMetrics,
};
pub use error::{Health, RuntimeError};
pub use incarnation::IncarnationStore;
pub use monitor::{
    ClusterConfig, ClusterError, ClusterMonitor, ClusterSnapshot, ClusterStats, ControlConfig,
    MembershipChange, MembershipEvent, PeerConfig, PeerQos, PeerStatus,
};
pub use events::{EventLog, Subscription};
pub use exporter::{family, render_prometheus, MetricsExporter, MetricsSource};
pub use mmsg::{
    batch_receiver, batch_sender, bind_reuseport, BatchReceiver, BatchSender, FrameArena,
    SendOutcome,
};
pub use monitor::PeerStatusReader;
pub use net::{
    ingest_frames, BatchCounts, ClusterReceiver, ClusterReceiverConfig, ClusterSender,
    ClusterSenderConfig, ControlListener, ControlSender,
};
pub use registry::{PeerCounters, QosState};
pub use snapshot::{
    ClusterStateSnapshot, ControlRecord, PeerRecord, SnapshotError, SnapshotOrigin,
};
pub use wire::{
    decode_batch, decode_frame, encode_digest, encode_relay, encode_repair, ControlEntry,
    DigestEntry, DigestFrame, DigestSummary, Frame, HeartbeatEntry, RelayedDigest, RepairRequest,
    BATCH_MAGIC, BATCH_WIRE_VERSION, MAX_BATCH, MAX_CONTROL_BATCH, MAX_DIGEST_BATCH,
};

#[cfg(test)]
mod tests {
    use super::unpoison;
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn mutex_panic_while_locked_leaves_value_readable() {
        let m = Arc::new(Mutex::new(7));
        let holder = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = unpoison(holder.lock());
            panic!("deliberate");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*unpoison(m.lock()), 7);
    }

    #[test]
    fn rwlock_panic_while_locked_leaves_value_readable() {
        let l = Arc::new(RwLock::new(7));
        let holder = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = unpoison(holder.write());
            panic!("deliberate");
        })
        .join();
        assert!(l.is_poisoned());
        assert_eq!(*unpoison(l.read()), 7);
        *unpoison(l.write()) = 8;
        assert_eq!(*unpoison(l.read()), 8);
    }
}
