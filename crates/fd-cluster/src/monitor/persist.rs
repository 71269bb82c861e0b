//! Persistence of a [`ClusterMonitor`]: what [`spawn`](ClusterMonitor::spawn)
//! reads back from the configured snapshot file and how each persisted
//! peer is restored *warm*, and what the control thread (periodically),
//! [`save_snapshot`](ClusterMonitor::save_snapshot) (on demand) and
//! [`shutdown`](ClusterMonitor::shutdown) (finally) stream to it. The
//! byte layout is [`crate::snapshot`]'s; this module maps it to and from
//! the live registry, in both directions without materialising the
//! cluster.

use super::{ClusterMonitor, Inner};
use crate::election::ElectionRecord;
use crate::registry::{ControlState, PeerState, QosState};
use crate::snapshot::{self, ControlRecord, PeerRecord, Records, SnapshotError, SnapshotHeader};
use crate::PeerId;
use fd_core::detectors::NfdE;
use fd_core::estimate::LossRateEstimator;
use fd_metrics::{FdOutput, OnlineQos, QosRequirements};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What `spawn` starts from, given what reading the configured path
/// returned: the header and the records of a snapshot that validated
/// from its checksum to its last record, or the header of a cold start
/// and no records when there is no path, no file, or a file that is
/// unreadable or fails validation anywhere — all or nothing, the latter
/// the counted error returned last. Starting cold is fail-safe.
pub(super) fn open_at_spawn(
    file: &Result<Option<Vec<u8>>, SnapshotError>,
) -> (SnapshotHeader, Option<Records<'_>>, u64) {
    let cold = SnapshotHeader { taken_at: 0.0, origin: None, election: None };
    let bytes = match file {
        Ok(Some(bytes)) => bytes,
        Ok(None) => return (cold, None, 0),
        Err(_) => return (cold, None, 1),
    };
    let validated = snapshot::open_snapshot(bytes).and_then(|(header, records)| {
        records.clone().try_for_each(|r| r.map(drop))?;
        Ok((header, records))
    });
    match validated {
        Ok((header, records)) => (header, Some(records), 0),
        Err(_) => (cold, None, 1),
    }
}

impl ClusterMonitor {
    /// Persists the state snapshot right now, on the calling thread (if
    /// a [`ClusterConfig::snapshot_path`](super::ClusterConfig::snapshot_path)
    /// was configured). Returns whether a snapshot was written; failures
    /// are counted in
    /// [`ClusterStats::snapshot_errors`](super::ClusterStats::snapshot_errors).
    /// Safe beside the periodic write and beside other callers: writers
    /// take turns.
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

/// One live peer as the record the snapshot encoder takes, its samples
/// borrowed from the detector's window and its incarnation, counters
/// and tracker read from its cell (the caller's shard lock keeps the
/// cell's writer out).
fn live_record(peer: PeerId, st: &PeerState) -> PeerRecord<impl Iterator<Item = f64> + '_> {
    let published = st.cell.read();
    PeerRecord {
        peer,
        incarnation: published.incarnation,
        eta: st.detector.eta(),
        alpha: st.detector.alpha(),
        window: st.detector.window(),
        max_seq: st.detector.max_seq_received(),
        counters: published.counters,
        samples: st.detector.estimator_samples(),
        qos: Some(published.qos),
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
    }
}

impl Inner {
    /// Registers one persisted peer warm: estimator window, sequence and
    /// incarnation high-water marks, QoS counters and tracker, control
    /// bookkeeping. It starts suspected until its first fresh heartbeat
    /// (fail-safe: a restored window is evidence about the past, not
    /// about who is alive *now*). A record whose parameters no longer
    /// validate is counted in `snapshot_errors` and skipped. `samples`
    /// is scratch, reused from record to record.
    pub(super) fn restore_peer(
        &self,
        rec: PeerRecord<impl IntoIterator<Item = f64>>,
        samples: &mut Vec<f64>,
    ) {
        // A restore precedes every drive: the snapshot's `taken_at`.
        let now = self.now();
        samples.clear();
        samples.extend(rec.samples);
        let Ok(detector) = NfdE::restore(rec.eta, rec.alpha, rec.window, samples, rec.max_seq)
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
                OnlineQos::new(now, FdOutput::Suspect)
            }
            None => OnlineQos::new(now, FdOutput::Suspect),
        };
        qos.observe(now, FdOutput::Suspect);
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
            Some(Box::new(ctl))
        });
        let state =
            PeerState::registered(detector, gen, control, rec.incarnation, rec.counters, &qos);
        let cell = Arc::clone(&state.cell);
        {
            let mut guard = self.registry.shard(rec.peer).write();
            guard.insert(rec.peer, state);
            self.registry.publish_cell(rec.peer, cell);
        }
        self.peers_restored.fetch_add(1, Ordering::Relaxed);
    }

    /// Streams every peer's persistent state to the snapshot file:
    /// writers take turns on `snapshot_writer`; each shard is encoded
    /// under its read lock into the reused chunk buffer — same
    /// consistency grade as `snapshot()` — and the lock is released
    /// before the chunk is checksummed and written. A peer added or
    /// removed meanwhile is in the file or not; the trailer counts what
    /// was written.
    pub(super) fn save_snapshot_if_configured(&self) -> bool {
        let Some(path) = &self.snapshot_path else {
            return false;
        };
        let mut chunk = self.snapshot_writer.lock();
        let header = SnapshotHeader {
            taken_at: self.now(),
            origin: self.origin,
            election: *self.election.lock(),
        };
        let mut shards = self.registry.shards().iter();
        let written = snapshot::write_streamed(path, &mut chunk, &header, |chunk| {
            let shard = shards.next()?.read();
            for (peer, st) in shard.iter() {
                snapshot::put_record(chunk, live_record(*peer, st));
            }
            Some(shard.len())
        });
        let counter = if written.is_ok() { &self.snapshots_written } else { &self.snapshot_errors };
        counter.fetch_add(1, Ordering::Relaxed);
        written.is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::tests::{
        deadline, drive_trusted, drive_trusted_incarnated, varied_monitor, VARIED_PEERS,
    };
    use crate::monitor::control::tests::stepped_control;
    use crate::monitor::{ClusterConfig, PeerConfig};
    use crate::registry::PeerCounters;
    use crate::snapshot::{decode_snapshot, encode_snapshot, ClusterStateSnapshot};
    use fd_core::Heartbeat;
    use crate::Health;
    use std::sync::atomic::AtomicBool;
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

        let m = ClusterMonitor::manual(cfg.clone());
        m.add_peer(1, PeerConfig::new(0.02, 0.05)).unwrap();
        m.add_peer(2, PeerConfig::new(0.05, 0.1)).unwrap();
        drive_trusted_incarnated(&m, 1, 3, 0.02, 6);
        let before = m.status(1).unwrap();
        let t_before = m.now();
        m.shutdown(); // writes the final snapshot, thread or no thread

        // "Restart the process": a new monitor on the same path.
        let m2 = ClusterMonitor::manual(cfg);
        let stats = m2.stats();
        assert_eq!(stats.peers_restored, 2);
        assert_eq!(stats.peers, 2);
        let st = m2.status(1).unwrap();
        assert!(!st.output.is_trust(), "restored peers start suspected (fail-safe)");
        assert_eq!(st.incarnation, 3, "incarnation high-water mark survives");
        assert_eq!(st.counters, before.counters, "QoS counters survive");
        assert!(st.estimator_samples > 0, "estimates are warm, not cold");
        assert!((st.eta - 0.02).abs() < 1e-12 && (st.alpha - 0.05).abs() < 1e-12);
        assert_eq!(m2.now(), t_before, "cluster time continues from the snapshot, not from 0");

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

    /// The periodic write runs on the control thread beside its rounds
    /// (a one-hour control period here: only the snapshot deadline wakes
    /// it), not on the ticker.
    #[test]
    fn periodic_snapshots_are_written_by_the_control_thread() {
        let (path, cfg) = persisting("periodic");
        let control = crate::ControlConfig { period: 3600.0, ..Default::default() };
        let m = ClusterMonitor::spawn(ClusterConfig { snapshot_interval: 0.02, control, ..cfg })
            .expect("spawn");
        m.add_peer(1, PeerConfig::new(0.02, 0.05)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while m.stats().snapshots_written < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(m.stats().snapshots_written >= 2, "written periodically");
        assert_eq!(m.stats().control_rounds, 0, "the snapshot deadline alone woke the thread");
        assert!(path.exists());
        // With the control thread dead the ticker still sweeps, nothing
        // is written periodically, and an explicit save still works.
        m.threads.lock()[1].0.send(()).unwrap();
        while m.control_health() != Health::Stopped {
            std::thread::sleep(Duration::from_millis(5));
        }
        let written = m.stats().snapshots_written;
        let ticks = m.stats().ticks;
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(m.stats().snapshots_written, written, "no periodic write without the thread");
        assert!(m.stats().ticks > ticks, "the ticker does not depend on it");
        assert!(m.save_snapshot());
        m.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    /// Every writer goes through the one `<path>.tmp`: several threads
    /// calling `save_snapshot()` beside a 1 ms periodic write must take
    /// turns, or interleaved bytes get renamed into place. Every file a
    /// reader observes at the path decodes.
    #[test]
    fn concurrent_writers_never_publish_a_torn_file() {
        let (path, cfg) = persisting("concurrent");
        let m = ClusterMonitor::spawn(ClusterConfig { snapshot_interval: 0.001, ..cfg })
            .expect("spawn");
        for p in 0..200 {
            m.add_peer(p, PeerConfig::new(0.02, 0.05)).unwrap();
            m.record(p, Heartbeat::new(1, m.now()));
        }
        assert!(m.save_snapshot());
        let start = std::sync::Barrier::new(5);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..40 {
                        assert!(m.save_snapshot());
                    }
                });
            }
            start.wait();
            for _ in 0..200 {
                let bytes = std::fs::read(&path).expect("a snapshot is always in place");
                let snap = decode_snapshot(&bytes).expect("every observed file decodes");
                assert_eq!(snap.peers.len(), 200);
            }
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while m.stats().snapshots_written < 162 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = m.stats();
        assert!(stats.snapshots_written >= 162, "the periodic writer took its turns too");
        assert_eq!(stats.snapshot_errors, 0);
        m.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    /// A write that cannot open its tmp file is a counted error that
    /// leaves the previous snapshot in place.
    #[test]
    fn failed_write_keeps_the_previous_snapshot() {
        let (path, cfg) = persisting("blocked-tmp");
        let m = ClusterMonitor::spawn(cfg).expect("spawn");
        m.add_peer(1, PeerConfig::new(0.02, 0.05)).unwrap();
        assert!(m.save_snapshot());
        let before = std::fs::read(&path).unwrap();
        std::fs::create_dir(snapshot::tmp_path(&path)).unwrap(); // File::create fails on a directory
        m.add_peer(2, PeerConfig::new(0.02, 0.05)).unwrap();
        assert!(!m.save_snapshot());
        assert_eq!(m.stats().snapshot_errors, 1);
        assert_eq!(m.stats().snapshots_written, 1);
        assert_eq!(std::fs::read(&path).unwrap(), before, "previous snapshot intact");
        std::fs::remove_dir(snapshot::tmp_path(&path)).unwrap();
        assert!(m.save_snapshot(), "and the next write succeeds");
        m.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    /// A write that fails after creating its tmp file (here the rename:
    /// the target is a non-empty directory) removes it.
    #[test]
    fn failed_write_leaves_no_tmp_behind() {
        let (path, cfg) = persisting("blocked-rename");
        std::fs::create_dir_all(path.join("occupied")).unwrap();
        let m = ClusterMonitor::spawn(cfg).expect("spawn");
        assert_eq!(m.stats().snapshot_errors, 1, "a directory is not a readable snapshot");
        m.add_peer(1, PeerConfig::new(0.02, 0.05)).unwrap();
        assert!(!m.save_snapshot());
        assert_eq!(m.stats().snapshot_errors, 2);
        assert!(!snapshot::tmp_path(&path).exists(), "no stray tmp file");
        m.shutdown();
        std::fs::remove_dir_all(&path).unwrap();
    }

    /// A twin restored from `bytes` the way `manual` does it, or — the
    /// reference — built from the same header with no records and fed
    /// the owned records `decode_snapshot` returns, one `restore_peer`
    /// each.
    fn twin(bytes: &[u8], streaming: bool) -> ClusterMonitor {
        let (path, cfg) = persisting(if streaming { "twin-streamed" } else { "twin-decoded" });
        let cfg = ClusterConfig { control: stepped_control(), ..cfg };
        let snap = decode_snapshot(bytes).expect("decodes");
        if streaming {
            std::fs::write(&path, bytes).unwrap();
        } else {
            let header = ClusterStateSnapshot { peers: Vec::new(), ..snap.clone() };
            std::fs::write(&path, encode_snapshot(&header)).unwrap();
        }
        let m = ClusterMonitor::manual(cfg);
        std::fs::remove_file(&path).unwrap();
        if !streaming {
            let mut scratch = Vec::new();
            for r in snap.peers {
                m.inner.restore_peer(r, &mut scratch);
            }
        }
        m
    }

    /// Everything restored about one peer: what the lock-free cell
    /// publishes (status, counters, QoS tracker state) and what only the
    /// registry holds (estimator window, sequence mark, control
    /// bookkeeping).
    fn restored_state(m: &ClusterMonitor, peer: PeerId) -> String {
        let shard = m.inner.registry.shard(peer).read();
        let st = shard.get(&peer).expect("restored");
        let record = live_record(peer, st);
        format!(
            "{:?} {:?} {:?}",
            st.cell.read(),
            record.with_samples(()),
            record.samples.collect::<Vec<_>>()
        )
    }

    /// What the streaming writer puts on disk from a live monitor
    /// decodes, re-encodes byte-identically through `encode_snapshot`,
    /// and restores — streamed, as `spawn` does — the same twin as the
    /// owned records restored one by one.
    #[test]
    fn streamed_snapshot_roundtrips_and_restores_like_the_decoded_one() {
        let (path, cfg) = persisting("streamed");
        let m = varied_monitor(ClusterConfig { control: stepped_control(), ..cfg });
        assert!(m.save_snapshot());
        let bytes = std::fs::read(&path).unwrap();
        let snap = decode_snapshot(&bytes).expect("the streamed file decodes");
        assert_eq!(encode_snapshot(&snap), bytes, "one encoder: byte-identical re-encode");
        assert_eq!(snap.peers.len() as u64, VARIED_PEERS);
        assert_eq!(snap.election, m.election_record());
        let windows: Vec<usize> = snap.peers.iter().map(|r| r.samples.len()).collect();
        assert!(windows.contains(&0), "an empty window is covered");
        assert!(snap.peers.iter().any(|r| r.samples.len() == r.window), "a full one too");
        assert!(snap.peers.iter().any(|r| r.control.is_some()));
        assert!(snap.peers.iter().any(|r| r.control.is_none()));
        let controls = || snap.peers.iter().filter_map(|r| r.control);
        assert!(controls().any(|c| c.degraded), "a degraded peer is covered");
        assert!(controls().any(|c| c.promotions == 1 && !c.degraded), "a promoted one too");
        assert!(snap.peers.iter().any(|r| r.counters.incarnation_resets == 1));
        let outputs: Vec<_> = snap.peers.iter().map(|r| r.qos.unwrap().output).collect();
        assert!(outputs.contains(&FdOutput::Trust) && outputs.contains(&FdOutput::Suspect));
        // Each record is the live peer's state.
        for r in &snap.peers {
            let shard = m.inner.registry.shard(r.peer).read();
            let live = live_record(r.peer, &shard[&r.peer]);
            assert_eq!(r.with_samples(()), live.with_samples(()), "peer {}", r.peer);
            assert_eq!(r.samples, live.samples.collect::<Vec<_>>(), "peer {}", r.peer);
        }
        m.shutdown();

        let (streamed, decoded) = (twin(&bytes, true), twin(&bytes, false));
        for p in 0..VARIED_PEERS {
            assert_eq!(restored_state(&streamed, p), restored_state(&decoded, p), "peer {p}");
            assert_eq!(
                format!("{:?}", streamed.status(p)),
                format!("{:?}", decoded.status(p)),
                "peer {p}"
            );
            let at = snap.taken_at + 1.0;
            let observed = |m: &ClusterMonitor| {
                let published = m.inner.registry.cell(p).unwrap().read();
                format!("{:?}", crate::monitor::observed_from(&published, at))
            };
            assert_eq!(observed(&streamed), observed(&decoded), "peer {p}");
        }
        let (a, b) = (streamed.stats(), decoded.stats());
        assert_eq!(a.peers_restored, VARIED_PEERS);
        assert!(a.degraded_peers >= 1);
        assert_eq!(
            (a.peers, a.peers_restored, a.degraded_peers, a.snapshot_errors),
            (b.peers, b.peers_restored, b.degraded_peers, b.snapshot_errors)
        );
        assert_eq!(streamed.election_record(), decoded.election_record());
        streamed.shutdown();
        decoded.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    /// Peers come and go while a snapshot is being streamed: whatever
    /// instant each shard was read at, the file decodes and its trailer
    /// counts exactly the records in it (`decode_snapshot` checks).
    #[test]
    fn membership_churn_during_a_write_still_gives_a_decodable_file() {
        let (path, cfg) = persisting("churn");
        let m = ClusterMonitor::spawn(cfg).expect("spawn");
        for p in 0..500 {
            m.add_peer(p, PeerConfig::new(0.02, 0.05)).unwrap();
        }
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut round = 0u64;
                while !done.load(Ordering::Relaxed) {
                    for p in 500..600 {
                        m.add_peer(p + round % 2 * 100, PeerConfig::new(0.02, 0.05)).unwrap();
                    }
                    for p in 500..600 {
                        assert!(m.remove_peer(p + round % 2 * 100));
                    }
                    round += 1;
                }
            });
            for _ in 0..50 {
                assert!(m.save_snapshot());
                let snap = decode_snapshot(&std::fs::read(&path).unwrap()).expect("decodes");
                assert!((500..=600).contains(&snap.peers.len()), "{}", snap.peers.len());
                assert!((0..500).all(|p| snap.peers.iter().any(|r| r.peer == p)));
            }
            done.store(true, Ordering::Relaxed);
        });
        assert_eq!(m.stats().snapshot_errors, 0);
        m.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    /// All or nothing: a file whose checksum, header and first records
    /// are fine but which fails validation half-way restores no peer at
    /// all — not the good first half.
    #[test]
    fn a_file_failing_half_way_restores_nothing() {
        let (path, cfg) = persisting("half-valid");
        let m = varied_monitor(cfg.clone());
        m.shutdown();
        let mut snap = decode_snapshot(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(snap.peers.len() as u64, VARIED_PEERS);
        snap.peers[25].eta = f64::NAN; // checksummed as written, rejected by the field check
        std::fs::write(&path, encode_snapshot(&snap)).unwrap();
        let m2 = ClusterMonitor::spawn(cfg).expect("spawn");
        let stats = m2.stats();
        assert_eq!((stats.peers, stats.peers_restored), (0, 0), "nothing of it is restored");
        assert_eq!(stats.snapshot_errors, 1);
        assert!(m2.now() < 5.0, "nor its clock");
        assert_eq!(m2.election_record(), None, "nor its incumbent");
        m2.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn qos_state_survives_snapshot_restore() {
        let (path, cfg) = persisting("qos-snap");

        let m = ClusterMonitor::manual(cfg.clone());
        m.add_peer(1, PeerConfig::new(0.02, 0.05)).unwrap();
        drive_trusted(&m, 1, 0.02, 5);
        let suspected = deadline(&m, 1);
        assert_eq!(m.advance_to(suspected), 1); // S-transition
        let back = suspected + 0.03;
        m.record_at(1, back, Heartbeat::new(40, back)); // T-transition (seq jump, see above)
        let before = m.qos(1).unwrap();
        assert_eq!(before.s_transitions, 1);
        assert_eq!(before.duration.count(), 1);
        m.shutdown();

        let m2 = ClusterMonitor::manual(cfg);
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
        // Nothing happened between the last heartbeat and the restart:
        // the restored window is the written one, to the instant.
        assert_eq!((after.trust_time, after.window), (before.trust_time, before.window));
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
