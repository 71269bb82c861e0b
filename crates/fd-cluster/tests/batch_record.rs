//! `record_batch_at` against its definition: a batch recorded at `now`
//! must leave the monitor exactly where feeding the same entries, in
//! the same order, one by one through `record_at_incarnated(.., now, ..)`
//! leaves a twin monitor.
//!
//! Record times start at [`BASE`], far ahead of the wall clock the
//! twins' tickers run on: every deadline the heartbeats arm lies in
//! that future, so nothing but the fed entries drives either twin.

use fd_cluster::{
    ClusterConfig, ClusterMonitor, ClusterStats, HeartbeatEntry, MembershipChange, PeerConfig,
    PeerId, Subscription,
};
use fd_core::Heartbeat;
use fd_metrics::{ObservedQos, QosRequirements};
use proptest::prelude::*;

/// First record time, cluster-clock seconds.
const BASE: f64 = 1_000.0;
/// Peers `0..REGISTERED` exist; entries naming `REGISTERED..PEER_IDS` are
/// unknown.
const REGISTERED: PeerId = 8;
const PEER_IDS: PeerId = 11;
/// The twins are spawned one after the other, so clocks that started at
/// registration (the tracker's window and its initial suspect segment)
/// differ by that much real time — well under this.
const SPAWN_SKEW_S: f64 = 1.0;

fn twin() -> (ClusterMonitor, Subscription) {
    // Four shards for eight peers: every batch has runs of several
    // peers per shard and several shards per batch.
    let m = ClusterMonitor::spawn(ClusterConfig {
        shards: 4,
        event_capacity: 8_192,
        ..ClusterConfig::default()
    })
    .expect("spawn");
    for p in 0..REGISTERED {
        let mut cfg = PeerConfig::new(0.1, 0.2).window(4);
        if p % 2 == 1 {
            // The control plane's estimators observe on the record path.
            cfg = cfg.requirements(QosRequirements::new(1.0, 60.0, 0.5).unwrap());
        }
        m.add_peer(p, cfg).unwrap();
    }
    let events = m.subscribe();
    (m, events)
}

/// The S/T transitions delivered so far, per peer, in delivery order.
fn transitions(
    rx: &Subscription,
) -> Vec<Vec<(MembershipChange, f64)>> {
    let mut per_peer = vec![Vec::new(); REGISTERED as usize];
    while let Ok(ev) = rx.try_recv() {
        per_peer[ev.peer as usize].push((ev.change, ev.at));
    }
    per_peer
}

/// Everything in `q` that does not depend on when the peer was
/// registered.
fn registration_free(q: ObservedQos) -> ObservedQos {
    ObservedQos { window: 0.0, suspect_time: 0.0, ..q }
}

/// Counters the twins' own ticker threads advance are not the batch's.
fn without_ticks(s: ClusterStats) -> ClusterStats {
    ClusterStats { ticks: 0, ..s }
}

fn entry() -> impl Strategy<Value = HeartbeatEntry> {
    // Few peers, few sequence numbers and few incarnations, so that one
    // batch holds the same peer many times, sequence numbers repeat and
    // run backwards, and incarnations both fall behind and jump ahead.
    (0..PEER_IDS, 0u64..3, 0u64..24, 0.0f64..1.0).prop_map(|(peer, incarnation, seq, sent)| {
        HeartbeatEntry { peer, incarnation, seq, send_time: BASE + sent }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn batch_equals_one_by_one(
        // Gaps up to 0.5 s against η + α = 0.3 s: peers are suspected
        // between batches and re-trusted inside them.
        batches in proptest::collection::vec(
            (0.0f64..0.5, proptest::collection::vec(entry(), 0..160)),
            1..6,
        ),
    ) {
        let (batched, batched_events) = twin();
        let (single, single_events) = twin();
        let mut now = BASE;
        for (gap, entries) in &batches {
            now += gap;
            let accepted = batched.record_batch_at(now, entries);
            let accepted_singly = entries
                .iter()
                .filter(|e| {
                    single.record_at_incarnated(
                        e.peer,
                        now,
                        e.incarnation,
                        Heartbeat::new(e.seq, e.send_time),
                    )
                })
                .count();
            prop_assert_eq!(accepted, accepted_singly);
        }

        for p in 0..PEER_IDS {
            let (b, s) = (batched.status(p), single.status(p));
            prop_assert_eq!(format!("{b:?}"), format!("{s:?}"), "status of peer {}", p);
            let (Some(b), Some(s)) = (batched.qos(p), single.qos(p)) else {
                prop_assert!(p >= REGISTERED && batched.qos(p).is_none() && single.qos(p).is_none());
                continue;
            };
            prop_assert_eq!(registration_free(b), registration_free(s), "qos of peer {}", p);
            prop_assert!((b.window - s.window).abs() < SPAWN_SKEW_S);
            prop_assert!((b.suspect_time - s.suspect_time).abs() < SPAWN_SKEW_S);
        }
        prop_assert_eq!(without_ticks(batched.stats()), without_ticks(single.stats()));
        prop_assert_eq!(transitions(&batched_events), transitions(&single_events));
        batched.shutdown();
        single.shutdown();
    }
}
