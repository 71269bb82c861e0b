//! Persistence of a [`ClusterMonitor`]: what [`spawn`](ClusterMonitor::spawn)
//! reads back from the configured snapshot file and how each persisted
//! peer is restored *warm*, and what the ticker (periodically) and
//! [`shutdown`](ClusterMonitor::shutdown) (finally) write. The byte
//! layout is [`crate::snapshot`]'s; this module maps it to and from the
//! live registry.

use super::{ClusterMonitor, Inner};
use crate::election::ElectionRecord;
use crate::registry::{ControlState, PeerCell, PeerState, QosState};
use crate::snapshot::{self, ClusterStateSnapshot, ControlRecord, PeerRecord};
use fd_core::detectors::NfdE;
use fd_core::estimate::LossRateEstimator;
use fd_metrics::{FdOutput, OnlineQos, QosRequirements};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What `spawn` starts from: the snapshot at `path`, or the empty
/// snapshot of a cold start when there is no path, no file, or a file
/// that is unreadable or not a snapshot of the one known version — the
/// last is the counted error returned beside it. Starting cold is
/// fail-safe.
pub(super) fn read_at_spawn(path: Option<&Path>) -> (ClusterStateSnapshot, u64) {
    let cold =
        ClusterStateSnapshot { taken_at: 0.0, origin: None, election: None, peers: Vec::new() };
    match path.map(snapshot::read_snapshot_file) {
        Some(Ok(Some(snap))) => (snap, 0),
        Some(Err(_)) => (cold, 1),
        None | Some(Ok(None)) => (cold, 0),
    }
}

impl ClusterMonitor {
    /// Persists the state snapshot right now (if a
    /// [`ClusterConfig::snapshot_path`](super::ClusterConfig::snapshot_path)
    /// was configured). Returns whether a snapshot was written; failures
    /// are counted in
    /// [`ClusterStats::snapshot_errors`](super::ClusterStats::snapshot_errors).
    pub fn save_snapshot(&self) -> bool {
        self.inner.save_snapshot_if_configured()
    }

    /// The election incumbent currently recorded for persistence —
    /// restored from the snapshot at spawn, or whatever the election
    /// loop last stored with [`set_election_record`](Self::set_election_record).
    pub fn election_record(&self) -> Option<ElectionRecord> {
        *self.inner.election.lock()
    }

    /// Stores (or clears) the election incumbent to persist: the next
    /// written snapshot carries it, and a monitor restarted from that
    /// snapshot hands it back through
    /// [`election_record`](Self::election_record) so the elector can be
    /// [`restore`](crate::CrashRecoveryElector::restore)d with the
    /// incumbent's incarnation fenced.
    pub fn set_election_record(&self, record: Option<ElectionRecord>) {
        *self.inner.election.lock() = record;
    }
}

impl Inner {
    /// Registers one persisted peer warm: estimator window, sequence and
    /// incarnation high-water marks, QoS counters and tracker, control
    /// bookkeeping. It starts suspected until its first fresh heartbeat
    /// (fail-safe: a restored window is evidence about the past, not
    /// about who is alive *now*). A record whose parameters no longer
    /// validate is counted in `snapshot_errors` and skipped.
    pub(super) fn restore_peer(&self, rec: PeerRecord) {
        let time_base = self.time_base;
        let Ok(detector) = NfdE::restore(rec.eta, rec.alpha, rec.window, &rec.samples, rec.max_seq)
        else {
            self.snapshot_errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let gen = self.next_gen.fetch_add(1, Ordering::Relaxed);
        // Continue the persisted QoS observation window when the tracker
        // state is present and sane; without one (or with an invalid
        // one, counted as an error) a fresh window starts. Either way
        // the tracker is driven to Suspect to match the fail-safe
        // restore of `last_output`.
        let mut qos = match rec.qos.map(OnlineQos::from_state) {
            Some(Ok(q)) => q,
            Some(Err(_)) => {
                self.snapshot_errors.fetch_add(1, Ordering::Relaxed);
                OnlineQos::new(time_base, FdOutput::Suspect)
            }
            None => OnlineQos::new(time_base, FdOutput::Suspect),
        };
        qos.observe(time_base, FdOutput::Suspect);
        // Control state restores with warm bookkeeping (requirements,
        // lifetime loss counts, QoS state, dwell clock) but fresh
        // windowed estimators — the short horizons are about the network
        // *now* and refill within one window.
        let control = rec.control.as_ref().and_then(|c| {
            let Ok(requirements) = QosRequirements::new(c.t_d_upper, c.t_mr_lower, c.t_m_upper)
            else {
                self.snapshot_errors.fetch_add(1, Ordering::Relaxed);
                return None;
            };
            let mut ctl = ControlState::new(&self.control, requirements);
            ctl.long_loss = LossRateEstimator::restore(c.loss_highest, c.loss_received);
            ctl.gate.set_last_change(c.last_change);
            if c.degraded {
                ctl.qos_state = QosState::Degraded;
                self.degraded_peers.fetch_add(1, Ordering::Relaxed);
            }
            ctl.reconfigurations = c.reconfigurations;
            ctl.degradations = c.degradations;
            ctl.promotions = c.promotions;
            ctl.feasible_streak = c.feasible_streak;
            ctl.recommended_eta = c.recommended_eta;
            Some(ctl)
        });
        let state = PeerState {
            detector,
            last_output: FdOutput::Suspect,
            incarnation: rec.incarnation,
            gen,
            armed: false,
            last_seen: time_base,
            counters: rec.counters,
            qos,
            control,
            cell: Arc::new(PeerCell::new()),
        };
        state.publish();
        let cell = Arc::clone(&state.cell);
        {
            let mut guard = self.registry.shard(rec.peer).write();
            guard.insert(rec.peer, state);
            self.registry.publish_cell(rec.peer, cell);
        }
        self.peers_restored.fetch_add(1, Ordering::Relaxed);
    }

    /// Gathers every peer's persistent state (read-locking shards one at
    /// a time — same consistency grade as `snapshot()`).
    fn collect_state(&self) -> ClusterStateSnapshot {
        let taken_at = self.now();
        let mut peers = Vec::new();
        for shard in self.registry.shards() {
            for (peer, st) in shard.read().iter() {
                peers.push(PeerRecord {
                    peer: *peer,
                    incarnation: st.incarnation,
                    eta: st.detector.eta(),
                    alpha: st.detector.alpha(),
                    window: st.detector.window(),
                    max_seq: st.detector.max_seq_received(),
                    counters: st.counters,
                    samples: st.detector.estimator_samples(),
                    qos: Some(st.qos.state()),
                    control: st.control.as_ref().map(|c| ControlRecord {
                        t_d_upper: c.requirements.detection_time_upper(),
                        t_mr_lower: c.requirements.mistake_recurrence_lower(),
                        t_m_upper: c.requirements.mistake_duration_upper(),
                        degraded: c.qos_state == QosState::Degraded,
                        reconfigurations: c.reconfigurations,
                        degradations: c.degradations,
                        promotions: c.promotions,
                        feasible_streak: c.feasible_streak,
                        last_change: c.gate.last_change(),
                        recommended_eta: c.recommended_eta,
                        loss_highest: c.long_loss.highest_seq(),
                        loss_received: c.long_loss.received_count(),
                    }),
                });
            }
        }
        peers.sort_by_key(|r| r.peer);
        ClusterStateSnapshot {
            taken_at,
            origin: self.origin,
            election: *self.election.lock(),
            peers,
        }
    }

    pub(super) fn save_snapshot_if_configured(&self) -> bool {
        let Some(path) = &self.snapshot_path else {
            return false;
        };
        let snap = self.collect_state();
        match snapshot::write_snapshot_file(path, &snap) {
            Ok(()) => {
                self.snapshots_written.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.snapshot_errors.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Writes the periodic snapshot when one is due (called by the
    /// ticker after each sweep).
    pub(super) fn maybe_snapshot(&self, now: f64) {
        if self.snapshot_path.is_none() {
            return;
        }
        {
            let mut last = self.last_snapshot.lock();
            if now - *last < self.snapshot_interval {
                return;
            }
            *last = now;
        }
        self.save_snapshot_if_configured();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::tests::{drive_trusted, drive_trusted_incarnated};
    use crate::monitor::control::tests::stepped_control;
    use crate::monitor::{ClusterConfig, PeerConfig};
    use crate::registry::PeerCounters;
    use fd_core::Heartbeat;
    use fd_runtime::Health;
    use std::time::Duration;

    /// A snapshot path of the calling test's own, with no file there
    /// yet, and a configuration that writes it only on demand and at
    /// shutdown.
    fn persisting(tag: &str) -> (std::path::PathBuf, ClusterConfig) {
        let path = std::env::temp_dir()
            .join(format!("fd-cluster-monitor-{tag}-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = ClusterConfig {
            snapshot_path: Some(path.clone()),
            snapshot_interval: 1000.0,
            ..ClusterConfig::default()
        };
        (path, cfg)
    }

    #[test]
    fn snapshot_restore_resumes_warm() {
        let (path, cfg) = persisting("snap");

        let m = ClusterMonitor::spawn(cfg.clone()).expect("spawn");
        m.add_peer(1, PeerConfig::new(0.02, 0.05)).unwrap();
        m.add_peer(2, PeerConfig::new(0.05, 0.1)).unwrap();
        drive_trusted_incarnated(&m, 1, 3, 0.02, 6);
        let before = m.status(1).unwrap();
        let t_before = m.now();
        m.shutdown(); // writes the final snapshot

        // "Restart the process": a new monitor on the same path.
        let m2 = ClusterMonitor::spawn(cfg).expect("respawn");
        let stats = m2.stats();
        assert_eq!(stats.peers_restored, 2);
        assert_eq!(stats.peers, 2);
        let st = m2.status(1).unwrap();
        assert!(!st.output.is_trust(), "restored peers start suspected (fail-safe)");
        assert_eq!(st.incarnation, 3, "incarnation high-water mark survives");
        assert_eq!(st.counters, before.counters, "QoS counters survive");
        assert!(st.estimator_samples > 0, "estimates are warm, not cold");
        assert!((st.eta - 0.02).abs() < 1e-12 && (st.alpha - 0.05).abs() < 1e-12);
        assert!(
            m2.now() >= t_before - 1e-3,
            "cluster time continues from the snapshot, not from 0"
        );

        // One fresh heartbeat from the same incarnation re-trusts the
        // peer against the warm window (seq continues past the restored
        // max_seq).
        assert!(m2.record_incarnated(1, 3, Heartbeat::new(before.counters.heartbeats + 1, m2.now())));
        assert!(m2.status(1).unwrap().output.is_trust());
        // ... and a previous-life datagram still bounces off the
        // restored incarnation mark.
        assert!(!m2.record_incarnated(1, 2, Heartbeat::new(999, m2.now())));
        m2.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_snapshot_starts_cold_not_dead() {
        let (path, cfg) = persisting("corrupt");
        std::fs::write(&path, b"definitely not a snapshot").unwrap();
        let m = ClusterMonitor::spawn(cfg).expect("spawn survives corruption");
        let stats = m.stats();
        assert_eq!(stats.peers_restored, 0);
        assert_eq!(stats.snapshot_errors, 1);
        // Still a fully functional monitor.
        m.add_peer(1, PeerConfig::new(0.02, 0.05)).unwrap();
        m.record(1, Heartbeat::new(1, m.now()));
        assert!(m.status(1).unwrap().output.is_trust());
        m.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    /// A well-formed, correctly checksummed file that declares any
    /// version but the current one — what an older or a newer build
    /// would have written — is a counted cold start like any other
    /// unreadable file: nothing restored, time from 0, the ticker live.
    /// The same bytes at the current version restore their peer.
    #[test]
    fn snapshots_of_another_version_are_a_counted_cold_start() {
        let snap = ClusterStateSnapshot {
            taken_at: 5.0,
            origin: None,
            election: None,
            peers: vec![PeerRecord {
                peer: 3,
                incarnation: 2,
                eta: 0.02,
                alpha: 0.05,
                window: 32,
                max_seq: Some(9),
                counters: PeerCounters { heartbeats: 9, ..PeerCounters::default() },
                samples: vec![0.0, 0.001],
                qos: None,
                control: None,
            }],
        };
        let current = snapshot::SNAPSHOT_VERSION;
        for (version, restored) in [(current - 1, 0), (current, 1), (current + 1, 0)] {
            let (path, cfg) = persisting(&format!("version-{version}"));
            std::fs::write(&path, snapshot::encode_as_version(&snap, version)).unwrap();
            let m = ClusterMonitor::spawn(cfg).expect("spawn");
            let stats = m.stats();
            assert_eq!(stats.peers_restored, restored, "version {version}");
            assert_eq!(stats.peers as u64, restored, "version {version}");
            assert_eq!(stats.snapshot_errors, 1 - restored, "version {version}");
            assert_eq!(m.now() >= 5.0, restored == 1, "only a restore resumes the file's clock");
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            while m.stats().ticks == 0 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(m.stats().ticks > 0, "version {version}: the ticker sweeps");
            assert_eq!(m.ticker_health(), Health::Healthy);
            m.shutdown();
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn periodic_snapshots_are_written_by_the_ticker() {
        let (path, cfg) = persisting("periodic");
        let m = ClusterMonitor::spawn(ClusterConfig { snapshot_interval: 0.02, ..cfg })
            .expect("spawn");
        m.add_peer(1, PeerConfig::new(0.02, 0.05)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while m.stats().snapshots_written < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(m.stats().snapshots_written >= 2, "ticker writes periodically");
        assert!(path.exists());
        m.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn qos_state_survives_snapshot_restore() {
        let (path, cfg) = persisting("qos-snap");

        let m = ClusterMonitor::spawn(cfg.clone()).expect("spawn");
        m.add_peer(1, PeerConfig::new(0.02, 0.05)).unwrap();
        drive_trusted(&m, 1, 0.02, 5);
        std::thread::sleep(Duration::from_millis(200)); // S-transition
        m.record(1, Heartbeat::new(40, m.now())); // T-transition (seq jump, see above)
        let before = m.qos(1).unwrap();
        assert_eq!(before.s_transitions, 1);
        assert_eq!(before.duration.count(), 1);
        m.shutdown();

        let m2 = ClusterMonitor::spawn(cfg).expect("respawn");
        let after = m2.qos(1).expect("restored peer has qos");
        // Interval statistics carried across the restart; the forced
        // fail-safe Suspect restore adds one more S-transition (and with
        // it a second completed recurrence-free mistake still open).
        assert_eq!(after.s_transitions, 2, "history plus the fail-safe suspect");
        assert_eq!(after.duration.count(), before.duration.count());
        assert!(
            (after.mean_mistake_duration().unwrap() - before.mean_mistake_duration().unwrap())
                .abs()
                < 1e-9
        );
        assert!(after.trust_time >= before.trust_time - 1e-9);
        assert!(after.window >= before.window - 1e-3, "observation window continues");
        m2.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn election_record_persists_across_restart() {
        let (path, cfg) = persisting("election-snap");
        let m = ClusterMonitor::spawn(cfg.clone()).expect("spawn");
        m.add_peer(1, PeerConfig::new(0.02, 0.05)).unwrap();
        assert_eq!(m.election_record(), None);
        let rec = ElectionRecord { leader: 1, incarnation: 4, elected_at: 2.5 };
        m.set_election_record(Some(rec));
        assert!(m.save_snapshot());
        m.shutdown();

        let m2 = ClusterMonitor::spawn(cfg).expect("respawn");
        assert_eq!(m2.election_record(), Some(rec), "incumbent survives the restart");
        // An elector restored from it refuses stale lives of the leader.
        let el = crate::CrashRecoveryElector::restore(
            crate::ElectionConfig::default(),
            m2.election_record().unwrap(),
        );
        assert_eq!(el.state().incumbent(), Some(1));
        m2.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn control_state_survives_snapshot_restore() {
        let (path, cfg) = persisting("ctl-snap");
        let cfg = ClusterConfig { control: stepped_control(), ..cfg };
        let m = ClusterMonitor::spawn(cfg.clone()).expect("spawn");
        let req = QosRequirements::new(4.0, 1e9, 2.0).unwrap();
        m.add_peer(1, PeerConfig::new(1.0, 3.0).requirements(req)).unwrap();
        let mut seq = 0u64;
        for _ in 0..8 {
            seq += 1;
            m.record_at(1, seq as f64 + 0.05, Heartbeat::new(seq, seq as f64));
        }
        for _ in 0..16 {
            seq += 1;
            m.record_at(1, seq as f64 + 4.0, Heartbeat::new(seq, seq as f64));
        }
        assert_eq!(m.run_control_round(), 1, "spike regime degrades");
        let before = m.status(1).unwrap();
        assert_eq!(before.qos_state, QosState::Degraded);
        m.shutdown(); // writes the snapshot

        let m2 = ClusterMonitor::spawn(cfg).expect("respawn");
        let st = m2.status(1).unwrap();
        assert_eq!(st.qos_state, QosState::Degraded, "degradation survives restart");
        assert_eq!(st.recommended_eta, before.recommended_eta);
        assert_eq!(m2.stats().degraded_peers, 1);
        m2.shutdown();
        let _ = std::fs::remove_file(&path);
    }
}
