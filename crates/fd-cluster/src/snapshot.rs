//! On-disk snapshot of a cluster monitor's per-peer state.
//!
//! A restarted monitor in the crash-recovery model faces a cold-start
//! problem: every NFD-E estimator window is empty, so the §6.3
//! expected-arrival estimates — and with them the detection-time and
//! mistake-rate QoS — take a full window of heartbeats to converge
//! again. A snapshot carries the warm state across the restart: each
//! peer's estimator samples, highest sequence seen, highest sender
//! incarnation seen, QoS counters, live QoS tracker and adaptive-control
//! bookkeeping, plus who wrote the file and who led the cluster.
//!
//! The format is a hand-rolled little-endian binary layout (no external
//! serialization dependency) with a trailing FNV-1a checksum. There is
//! one layout, [`SNAPSHOT_VERSION`]; a `flag u8` is `0` or `1` and the
//! value after it is written (as zero) even when the flag is `0`:
//!
//! | block | field | size |
//! |-------|-------|-----:|
//! | header | magic `[0xFD, 0x5C]` | 2 |
//! |        | version `u16` | 2 |
//! |        | `taken_at f64` (cluster clock, seconds) | 8 |
//! | origin ([`SnapshotOrigin`]) | flag + `node u64` + `incarnation u64` | 17 |
//! | election ([`ElectionRecord`]) | flag + `leader u64` + `incarnation u64` + `elected_at f64` | 25 |
//! | peers | count `u32`, then that many peer records | 4 + var |
//! | peer record | `peer u64`, `incarnation u64`, `eta f64`, `alpha f64`, `window u32` | 36 |
//! |        | flag + `max_seq u64` | 9 |
//! |        | counters: `heartbeats`, `stale`, `suspicions`, `recoveries`, `stale_incarnation`, `incarnation_resets` (`u64` each) | 48 |
//! |        | `sample_count u32` + that many `f64` estimator samples | 4 + var |
//! |        | QoS tracker: flag, and only when `1` the block below | 1 |
//! |        | control: flag, and only when `1` the block below | 1 |
//! | QoS tracker ([`QosTrackerState`]) | `output u8` (0 = Trust, 1 = Suspect), `origin f64`, `at f64`, `segment_start f64`, `segment_opened_by_transition u8`, `trust_time f64`, `suspect_time f64` | 42 |
//! |        | flag + `last_s f64`, `s_transitions u64`, `t_transitions u64` | 25 |
//! |        | three Welford accumulators (recurrence, duration, good): `count u64`, `mean f64`, `m2 f64` each | 72 |
//! | control ([`ControlRecord`]) | `t_d_upper f64`, `t_mr_lower f64`, `t_m_upper f64`, `degraded u8` | 25 |
//! |        | `reconfigurations u64`, `degradations u64`, `promotions u64`, `feasible_streak u32` | 28 |
//! |        | flag + `last_change f64`, flag + `recommended_eta f64` | 18 |
//! |        | `loss_highest u64`, `loss_received u64` | 16 |
//! | trailer | FNV-1a 64 checksum of everything above | 8 |
//!
//! The origin block says which federation node (and which life of it)
//! wrote the file, so a surviving node taking over a dead node's
//! partition can verify whose state it is warm-starting from; a
//! standalone monitor writes flag `0`. The election block persists which
//! peer held leadership, under which incarnation, since when, so a
//! restarted monitor seeds its elector's incarnation high-water marks
//! and a stale life of the old leader can never reclaim leadership
//! across the restart. A peer without declared QoS requirements has no
//! control block.
//!
//! Decoding is strict — wrong magic, any other version, truncation,
//! trailing bytes, non-finite parameters or a checksum mismatch all
//! yield [`SnapshotError::Corrupt`]. Corruption is *safe* to reject
//! wholesale: a monitor restoring nothing merely starts cold (every
//! peer suspected until its heartbeats return), it never trusts anyone
//! it should not. That is the opposite polarity from the sender-side
//! incarnation store, where corruption must halt the process.
//!
//! Writes are atomic: the snapshot is written to a `.tmp` sibling and
//! renamed over the target, so a crash mid-write leaves the previous
//! snapshot intact rather than a torn file.

use crate::election::ElectionRecord;
use crate::registry::PeerCounters;
use crate::PeerId;
use fd_metrics::online_qos::QosTrackerState;
use fd_metrics::FdOutput;
use fd_stats::OnlineStats;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// Magic bytes opening a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 2] = [0xFD, 0x5C];

/// The snapshot format version: the only one written, the only one
/// [`decode_snapshot`] accepts.
pub const SNAPSHOT_VERSION: u16 = 5;

/// One peer's persisted state.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerRecord {
    /// The peer id.
    pub peer: PeerId,
    /// Highest sender incarnation seen from this peer.
    pub incarnation: u64,
    /// Heartbeat period `η`, seconds.
    pub eta: f64,
    /// Freshness slack `α`, seconds.
    pub alpha: f64,
    /// Estimator window capacity.
    pub window: usize,
    /// Highest heartbeat sequence received, if any.
    pub max_seq: Option<u64>,
    /// QoS counters at snapshot time.
    pub counters: PeerCounters,
    /// Normalized estimator samples, oldest first (the `A'ᵢ − η·sᵢ`
    /// terms of Eq. 6.3's sliding window).
    pub samples: Vec<f64>,
    /// Live QoS tracker state (`None` starts a fresh tracker on
    /// restore; a monitor always writes `Some`).
    pub qos: Option<QosTrackerState>,
    /// Adaptive-control state (`None` for peers without declared
    /// requirements).
    pub control: Option<ControlRecord>,
}

/// One peer's persisted adaptive-control state: its declared
/// requirements, where the control plane had it (nominal/degraded), the
/// hysteresis dwell clock, and the *lifetime* loss-estimator counters —
/// the parts worth carrying across a restart. Windowed estimators
/// (short-horizon loss, both delay-moment windows) deliberately restart
/// cold: they describe the network of the last few seconds, which the
/// downtime just invalidated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlRecord {
    /// Required detection-time upper bound `T_D^U`, seconds.
    pub t_d_upper: f64,
    /// Required mistake-recurrence lower bound `T_MR^L`, seconds.
    pub t_mr_lower: f64,
    /// Required mistake-duration upper bound `T_M^U`, seconds.
    pub t_m_upper: f64,
    /// Whether the peer was running best-effort (degraded) parameters.
    pub degraded: bool,
    /// Parameter applications so far.
    pub reconfigurations: u64,
    /// Nominal→Degraded transitions so far.
    pub degradations: u64,
    /// Degraded→Nominal transitions so far.
    pub promotions: u64,
    /// Consecutive feasible rounds while degraded.
    pub feasible_streak: u32,
    /// Hysteresis dwell clock: cluster-clock time of the last applied
    /// parameter change, if any.
    pub last_change: Option<f64>,
    /// Pending sender-side `η` recommendation, if any.
    pub recommended_eta: Option<f64>,
    /// Lifetime loss estimator: highest sequence seen.
    pub loss_highest: u64,
    /// Lifetime loss estimator: fresh heartbeats received.
    pub loss_received: u64,
}

/// Which federation node (and which life of it) wrote a snapshot —
/// provenance stamped by monitors embedded in an
/// `fd-federation` node so partition takeover can tell whose warm state
/// a snapshot file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotOrigin {
    /// The federation node id.
    pub node: u64,
    /// That node's incarnation when the snapshot was written.
    pub incarnation: u64,
}

/// A decoded snapshot: when it was taken (on the cluster clock that
/// wrote it), who wrote it (federation nodes only), and every peer's
/// state.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStateSnapshot {
    /// Cluster-clock time the snapshot was taken, seconds.
    pub taken_at: f64,
    /// Provenance of the writing monitor, when it declared one
    /// ([`crate::ClusterConfig::origin`]). `None` for standalone
    /// monitors.
    pub origin: Option<SnapshotOrigin>,
    /// The persisted election incumbent, when the monitor had one
    /// recorded ([`crate::ClusterMonitor::set_election_record`]).
    pub election: Option<ElectionRecord>,
    /// Per-peer records.
    pub peers: Vec<PeerRecord>,
}

/// Why a snapshot could not be read.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The bytes do not form a well-formed snapshot; the reason names
    /// the first check that failed.
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a 64-bit over `bytes` — cheap, dependency-free integrity check
/// (detects torn writes and bit rot, not adversaries).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encodes a snapshot to its binary form (checksum included).
pub fn encode_snapshot(snap: &ClusterStateSnapshot) -> Vec<u8> {
    let mut buf = Vec::with_capacity(33 + snap.peers.len() * 96);
    buf.extend_from_slice(&SNAPSHOT_MAGIC);
    buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    buf.extend_from_slice(&snap.taken_at.to_le_bytes());
    buf.push(snap.origin.is_some() as u8);
    let o = snap.origin.unwrap_or(SnapshotOrigin { node: 0, incarnation: 0 });
    buf.extend_from_slice(&o.node.to_le_bytes());
    buf.extend_from_slice(&o.incarnation.to_le_bytes());
    buf.push(snap.election.is_some() as u8);
    let e = snap.election.unwrap_or(ElectionRecord { leader: 0, incarnation: 0, elected_at: 0.0 });
    buf.extend_from_slice(&e.leader.to_le_bytes());
    buf.extend_from_slice(&e.incarnation.to_le_bytes());
    buf.extend_from_slice(&e.elected_at.to_le_bytes());
    buf.extend_from_slice(&(snap.peers.len() as u32).to_le_bytes());
    for r in &snap.peers {
        buf.extend_from_slice(&r.peer.to_le_bytes());
        buf.extend_from_slice(&r.incarnation.to_le_bytes());
        buf.extend_from_slice(&r.eta.to_le_bytes());
        buf.extend_from_slice(&r.alpha.to_le_bytes());
        buf.extend_from_slice(&(r.window as u32).to_le_bytes());
        buf.push(r.max_seq.is_some() as u8);
        buf.extend_from_slice(&r.max_seq.unwrap_or(0).to_le_bytes());
        let c = &r.counters;
        for v in [
            c.heartbeats,
            c.stale,
            c.suspicions,
            c.recoveries,
            c.stale_incarnation,
            c.incarnation_resets,
        ] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&(r.samples.len() as u32).to_le_bytes());
        for s in &r.samples {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        buf.push(r.qos.is_some() as u8);
        if let Some(q) = &r.qos {
            buf.push(match q.output {
                FdOutput::Trust => 0,
                FdOutput::Suspect => 1,
            });
            buf.extend_from_slice(&q.origin.to_le_bytes());
            buf.extend_from_slice(&q.at.to_le_bytes());
            buf.extend_from_slice(&q.segment_start.to_le_bytes());
            buf.push(q.segment_opened_by_transition as u8);
            buf.extend_from_slice(&q.trust_time.to_le_bytes());
            buf.extend_from_slice(&q.suspect_time.to_le_bytes());
            buf.push(q.last_s.is_some() as u8);
            buf.extend_from_slice(&q.last_s.unwrap_or(0.0).to_le_bytes());
            buf.extend_from_slice(&q.s_transitions.to_le_bytes());
            buf.extend_from_slice(&q.t_transitions.to_le_bytes());
            for stats in [&q.recurrence, &q.duration, &q.good] {
                buf.extend_from_slice(&stats.count().to_le_bytes());
                buf.extend_from_slice(&stats.mean().to_le_bytes());
                buf.extend_from_slice(&stats.m2().to_le_bytes());
            }
        }
        buf.push(r.control.is_some() as u8);
        if let Some(c) = &r.control {
            buf.extend_from_slice(&c.t_d_upper.to_le_bytes());
            buf.extend_from_slice(&c.t_mr_lower.to_le_bytes());
            buf.extend_from_slice(&c.t_m_upper.to_le_bytes());
            buf.push(c.degraded as u8);
            buf.extend_from_slice(&c.reconfigurations.to_le_bytes());
            buf.extend_from_slice(&c.degradations.to_le_bytes());
            buf.extend_from_slice(&c.promotions.to_le_bytes());
            buf.extend_from_slice(&c.feasible_streak.to_le_bytes());
            buf.push(c.last_change.is_some() as u8);
            buf.extend_from_slice(&c.last_change.unwrap_or(0.0).to_le_bytes());
            buf.push(c.recommended_eta.is_some() as u8);
            buf.extend_from_slice(&c.recommended_eta.unwrap_or(0.0).to_le_bytes());
            buf.extend_from_slice(&c.loss_highest.to_le_bytes());
            buf.extend_from_slice(&c.loss_received.to_le_bytes());
        }
    }
    let sum = fnv1a(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Recomputes the checksum of a snapshot whose body a test edited, so
/// the edit — not the checksum — is what the decoder judges.
#[cfg(test)]
fn reseal(buf: &mut [u8]) {
    let body_len = buf.len() - 8;
    let sum = fnv1a(&buf[..body_len]);
    buf[body_len..].copy_from_slice(&sum.to_le_bytes());
}

/// A well-formed, correctly checksummed snapshot that declares another
/// format version.
#[cfg(test)]
pub(crate) fn encode_as_version(snap: &ClusterStateSnapshot, version: u16) -> Vec<u8> {
    let mut buf = encode_snapshot(snap);
    buf[2..4].copy_from_slice(&version.to_le_bytes());
    reseal(&mut buf);
    buf
}

/// Sequential little-endian reader over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], SnapshotError> {
        let end = self.pos.checked_add(N).ok_or(SnapshotError::Corrupt(what))?;
        if end > self.buf.len() {
            return Err(SnapshotError::Corrupt(what));
        }
        let bytes: [u8; N] = self.buf[self.pos..end].try_into().expect("length checked");
        self.pos = end;
        Ok(bytes)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take::<1>(what)?[0])
    }

    /// A presence or state flag: `0` or `1`; `what` names the check.
    fn flag(&mut self, what: &'static str) -> Result<bool, SnapshotError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt(what)),
        }
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(what)?))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(what)?))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(what)?))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(self.take(what)?))
    }
}

/// Decodes one QoS tracker block. Checks the same field-level
/// invariants as the rest of the decoder (finite floats, nonnegative
/// variance) — deeper tracker invariants are re-validated by
/// `OnlineQos::from_state` at restore time.
fn decode_qos_block(cur: &mut Cursor<'_>) -> Result<QosTrackerState, SnapshotError> {
    let output = match cur.u8("qos output")? {
        0 => FdOutput::Trust,
        1 => FdOutput::Suspect,
        _ => return Err(SnapshotError::Corrupt("bad qos output")),
    };
    let origin = cur.f64("qos origin")?;
    let at = cur.f64("qos at")?;
    let segment_start = cur.f64("qos segment_start")?;
    let segment_opened_by_transition = cur.flag("bad qos segment flag")?;
    let trust_time = cur.f64("qos trust_time")?;
    let suspect_time = cur.f64("qos suspect_time")?;
    let has_last_s = cur.flag("bad qos last_s flag")?;
    let raw_last_s = cur.f64("qos last_s")?;
    let s_transitions = cur.u64("qos s_transitions")?;
    let t_transitions = cur.u64("qos t_transitions")?;
    for v in [origin, at, segment_start, trust_time, suspect_time, raw_last_s] {
        if !v.is_finite() {
            return Err(SnapshotError::Corrupt("non-finite qos time"));
        }
    }
    let mut accs = [OnlineStats::new(); 3];
    for (i, what) in ["qos recurrence", "qos duration", "qos good"].iter().enumerate() {
        let count = cur.u64(what)?;
        let mean = cur.f64(what)?;
        let m2 = cur.f64(what)?;
        if !mean.is_finite() || !m2.is_finite() || m2 < 0.0 {
            return Err(SnapshotError::Corrupt("invalid qos accumulator"));
        }
        accs[i] = OnlineStats::from_parts(count, mean, m2);
    }
    Ok(QosTrackerState {
        origin,
        at,
        output,
        segment_start,
        segment_opened_by_transition,
        trust_time,
        suspect_time,
        last_s: has_last_s.then_some(raw_last_s),
        s_transitions,
        t_transitions,
        recurrence: accs[0],
        duration: accs[1],
        good: accs[2],
    })
}

/// Decodes one adaptive-control block. Field-level checks
/// only (finite floats, flag bytes ∈ {0, 1}); requirement-level
/// validity is re-checked by `QosRequirements::new` at restore time.
fn decode_control_block(cur: &mut Cursor<'_>) -> Result<ControlRecord, SnapshotError> {
    let t_d_upper = cur.f64("control t_d_upper")?;
    let t_mr_lower = cur.f64("control t_mr_lower")?;
    let t_m_upper = cur.f64("control t_m_upper")?;
    let degraded = cur.flag("bad control degraded flag")?;
    let reconfigurations = cur.u64("control reconfigurations")?;
    let degradations = cur.u64("control degradations")?;
    let promotions = cur.u64("control promotions")?;
    let feasible_streak = cur.u32("control feasible_streak")?;
    let has_last_change = cur.flag("bad control last_change flag")?;
    let raw_last_change = cur.f64("control last_change")?;
    let has_rec_eta = cur.flag("bad control recommended_eta flag")?;
    let raw_rec_eta = cur.f64("control recommended_eta")?;
    let loss_highest = cur.u64("control loss_highest")?;
    let loss_received = cur.u64("control loss_received")?;
    for v in [t_d_upper, t_mr_lower, t_m_upper, raw_last_change, raw_rec_eta] {
        if !v.is_finite() {
            return Err(SnapshotError::Corrupt("non-finite control field"));
        }
    }
    if loss_received > loss_highest {
        return Err(SnapshotError::Corrupt("control loss counts inconsistent"));
    }
    Ok(ControlRecord {
        t_d_upper,
        t_mr_lower,
        t_m_upper,
        degraded,
        reconfigurations,
        degradations,
        promotions,
        feasible_streak,
        last_change: has_last_change.then_some(raw_last_change),
        recommended_eta: has_rec_eta.then_some(raw_rec_eta),
        loss_highest,
        loss_received,
    })
}

/// Decodes a snapshot, verifying framing and checksum.
///
/// # Errors
///
/// [`SnapshotError::Corrupt`] on any malformation; never panics.
pub fn decode_snapshot(buf: &[u8]) -> Result<ClusterStateSnapshot, SnapshotError> {
    if buf.len() < 8 {
        return Err(SnapshotError::Corrupt("shorter than its checksum"));
    }
    let (body, sum_bytes) = buf.split_at(buf.len() - 8);
    let declared = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    if fnv1a(body) != declared {
        return Err(SnapshotError::Corrupt("checksum mismatch"));
    }
    let mut cur = Cursor { buf: body, pos: 0 };
    if cur.take::<2>("magic")? != SNAPSHOT_MAGIC {
        return Err(SnapshotError::Corrupt("bad magic"));
    }
    if cur.u16("version")? != SNAPSHOT_VERSION {
        return Err(SnapshotError::Corrupt("unknown version"));
    }
    let taken_at = cur.f64("taken_at")?;
    if !taken_at.is_finite() || taken_at < 0.0 {
        return Err(SnapshotError::Corrupt("non-finite or negative taken_at"));
    }
    let has_origin = cur.flag("bad origin flag")?;
    let origin = SnapshotOrigin {
        node: cur.u64("origin node")?,
        incarnation: cur.u64("origin incarnation")?,
    };
    let has_election = cur.flag("bad election flag")?;
    let election = ElectionRecord {
        leader: cur.u64("election leader")?,
        incarnation: cur.u64("election incarnation")?,
        elected_at: cur.f64("election elected_at")?,
    };
    if has_election && (!election.elected_at.is_finite() || election.elected_at < 0.0) {
        return Err(SnapshotError::Corrupt("non-finite or negative elected_at"));
    }
    let count = cur.u32("peer count")? as usize;
    let mut peers = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let peer = cur.u64("peer id")?;
        let incarnation = cur.u64("incarnation")?;
        let eta = cur.f64("eta")?;
        let alpha = cur.f64("alpha")?;
        if !eta.is_finite() || !alpha.is_finite() {
            return Err(SnapshotError::Corrupt("non-finite peer parameters"));
        }
        let window = cur.u32("window")? as usize;
        let has_max_seq = cur.flag("bad max_seq flag")?;
        let raw_max_seq = cur.u64("max_seq")?;
        let max_seq = has_max_seq.then_some(raw_max_seq);
        let counters = PeerCounters {
            heartbeats: cur.u64("heartbeats counter")?,
            stale: cur.u64("stale counter")?,
            suspicions: cur.u64("suspicions counter")?,
            recoveries: cur.u64("recoveries counter")?,
            stale_incarnation: cur.u64("stale_incarnation counter")?,
            incarnation_resets: cur.u64("incarnation_resets counter")?,
        };
        let sample_count = cur.u32("sample count")? as usize;
        let mut samples = Vec::with_capacity(sample_count.min(4096));
        for _ in 0..sample_count {
            let s = cur.f64("sample")?;
            if !s.is_finite() {
                return Err(SnapshotError::Corrupt("non-finite sample"));
            }
            samples.push(s);
        }
        let qos =
            if cur.flag("bad qos flag")? { Some(decode_qos_block(&mut cur)?) } else { None };
        let control =
            if cur.flag("bad control flag")? { Some(decode_control_block(&mut cur)?) } else { None };
        peers.push(PeerRecord {
            peer,
            incarnation,
            eta,
            alpha,
            window,
            max_seq,
            counters,
            samples,
            qos,
            control,
        });
    }
    if cur.pos != body.len() {
        return Err(SnapshotError::Corrupt("trailing bytes"));
    }
    Ok(ClusterStateSnapshot {
        taken_at,
        origin: has_origin.then_some(origin),
        election: has_election.then_some(election),
        peers,
    })
}

/// Writes a snapshot atomically: encode, write to `<path>.tmp`, rename.
///
/// # Errors
///
/// Propagates filesystem errors; on error the previous snapshot (if
/// any) is left untouched.
pub fn write_snapshot_file(path: &Path, snap: &ClusterStateSnapshot) -> io::Result<()> {
    let bytes = encode_snapshot(snap);
    let tmp = tmp_path(path);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Reads a snapshot file. A missing file is `Ok(None)` — a monitor
/// that has never written one simply starts cold.
///
/// # Errors
///
/// [`SnapshotError::Io`] on read failures other than not-found,
/// [`SnapshotError::Corrupt`] if the bytes do not decode.
pub fn read_snapshot_file(path: &Path) -> Result<Option<ClusterStateSnapshot>, SnapshotError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(SnapshotError::Io(e)),
    };
    decode_snapshot(&bytes).map(Some)
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_metrics::OnlineQos;

    fn sample_qos_state() -> QosTrackerState {
        let mut q = OnlineQos::new(0.5, FdOutput::Suspect);
        q.observe(1.0, FdOutput::Trust);
        q.observe(4.0, FdOutput::Suspect);
        q.observe(4.5, FdOutput::Trust);
        q.observe(9.0, FdOutput::Suspect);
        q.observe(9.25, FdOutput::Trust);
        q.advance(12.25);
        q.state()
    }

    fn sample_snapshot() -> ClusterStateSnapshot {
        ClusterStateSnapshot {
            taken_at: 12.25,
            origin: Some(SnapshotOrigin { node: 2, incarnation: 5 }),
            election: Some(ElectionRecord { leader: 7, incarnation: 3, elected_at: 10.5 }),
            peers: vec![
                PeerRecord {
                    peer: 7,
                    incarnation: 3,
                    eta: 0.02,
                    alpha: 0.05,
                    window: 32,
                    max_seq: Some(41),
                    counters: PeerCounters {
                        heartbeats: 41,
                        stale: 2,
                        suspicions: 1,
                        recoveries: 2,
                        stale_incarnation: 5,
                        incarnation_resets: 3,
                    },
                    samples: vec![0.101, 0.099, 0.1005],
                    qos: Some(sample_qos_state()),
                    control: Some(ControlRecord {
                        t_d_upper: 0.5,
                        t_mr_lower: 120.0,
                        t_m_upper: 0.2,
                        degraded: true,
                        reconfigurations: 4,
                        degradations: 2,
                        promotions: 1,
                        feasible_streak: 1,
                        last_change: Some(11.5),
                        recommended_eta: Some(0.0625),
                        loss_highest: 41,
                        loss_received: 39,
                    }),
                },
                PeerRecord {
                    peer: 9,
                    incarnation: 0,
                    eta: 0.05,
                    alpha: 0.1,
                    window: 16,
                    max_seq: None,
                    counters: PeerCounters::default(),
                    samples: vec![],
                    qos: None,
                    control: None,
                },
            ],
        }
    }

    #[test]
    fn roundtrips() {
        let snap = sample_snapshot();
        let buf = encode_snapshot(&snap);
        assert_eq!(decode_snapshot(&buf).unwrap(), snap);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap =
            ClusterStateSnapshot { taken_at: 0.0, origin: None, election: None, peers: vec![] };
        assert_eq!(decode_snapshot(&encode_snapshot(&snap)).unwrap(), snap);
    }

    #[test]
    fn qos_state_survives_the_roundtrip_exactly() {
        let snap = sample_snapshot();
        let decoded = decode_snapshot(&encode_snapshot(&snap)).unwrap();
        let restored = OnlineQos::from_state(decoded.peers[0].qos.unwrap()).unwrap();
        let original = OnlineQos::from_state(sample_qos_state()).unwrap();
        assert_eq!(restored, original);
        assert_eq!(restored.observed(20.0), original.observed(20.0));
    }

    #[test]
    fn bad_election_flag_is_rejected() {
        let mut buf = encode_snapshot(&sample_snapshot());
        buf[29] = 2; // election flag follows the 17-byte origin block at 12
        reseal(&mut buf);
        match decode_snapshot(&buf) {
            Err(SnapshotError::Corrupt("bad election flag")) => {}
            other => panic!("expected bad election flag, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_elected_at_is_rejected() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut snap = sample_snapshot();
            snap.election = Some(ElectionRecord { leader: 7, incarnation: 3, elected_at: bad });
            match decode_snapshot(&encode_snapshot(&snap)) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("elected_at {bad} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_origin_flag_is_rejected() {
        let mut buf = encode_snapshot(&sample_snapshot());
        buf[12] = 2; // origin flag follows magic+version+taken_at
        reseal(&mut buf);
        match decode_snapshot(&buf) {
            Err(SnapshotError::Corrupt("bad origin flag")) => {}
            other => panic!("expected bad origin flag, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_control_loss_counts_are_rejected() {
        let mut snap = sample_snapshot();
        snap.peers[0].control.as_mut().unwrap().loss_received = 42; // > highest (41)
        match decode_snapshot(&encode_snapshot(&snap)) {
            Err(SnapshotError::Corrupt("control loss counts inconsistent")) => {}
            other => panic!("expected loss-count rejection, got {other:?}"),
        }
    }

    #[test]
    fn every_other_version_is_rejected() {
        for version in [0, 1, SNAPSHOT_VERSION - 1, SNAPSHOT_VERSION + 1, u16::MAX] {
            let buf = encode_as_version(&sample_snapshot(), version);
            match decode_snapshot(&buf) {
                Err(SnapshotError::Corrupt("unknown version")) => {}
                other => panic!("version {version}: expected unknown version, got {other:?}"),
            }
        }
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let buf = encode_snapshot(&sample_snapshot());
        for idx in 0..buf.len() {
            let mut bad = buf.clone();
            bad[idx] ^= 0x40;
            assert!(
                decode_snapshot(&bad).is_err(),
                "flip at byte {idx} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let buf = encode_snapshot(&sample_snapshot());
        for cut in 1..buf.len() {
            assert!(decode_snapshot(&buf[..buf.len() - cut]).is_err());
        }
        assert!(decode_snapshot(&[]).is_err());
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut buf = encode_snapshot(&sample_snapshot());
        buf.extend_from_slice(&[0u8; 4]);
        assert!(decode_snapshot(&buf).is_err());
    }

    #[test]
    fn file_roundtrip_and_missing_file() {
        let path = std::env::temp_dir().join(format!(
            "fd-cluster-snap-test-{}.bin",
            std::process::id()
        ));
        let _ = fs::remove_file(&path);
        assert!(read_snapshot_file(&path).unwrap().is_none(), "missing = cold start");
        let snap = sample_snapshot();
        write_snapshot_file(&path, &snap).unwrap();
        assert_eq!(read_snapshot_file(&path).unwrap(), Some(snap.clone()));
        // Overwrite is atomic-by-rename; the second write replaces the first.
        let snap2 =
            ClusterStateSnapshot { taken_at: 99.0, origin: None, election: None, peers: vec![] };
        write_snapshot_file(&path, &snap2).unwrap();
        assert_eq!(read_snapshot_file(&path).unwrap(), Some(snap2));
        fs::remove_file(&path).unwrap();
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// A valid-by-construction QoS tracker state: drive a real
        /// tracker through a generated output schedule, so every
        /// invariant `OnlineQos::from_state` checks holds by
        /// construction rather than by filtering.
        fn arb_qos_state() -> impl Strategy<Value = QosTrackerState> {
            (
                0.0f64..10.0,
                proptest::collection::vec(0.01f64..5.0, 0..12),
                proptest::bool::ANY,
            )
                .prop_map(|(origin, gaps, start_trust)| {
                    let first =
                        if start_trust { FdOutput::Trust } else { FdOutput::Suspect };
                    let mut q = OnlineQos::new(origin, first);
                    let mut t = origin;
                    let mut out = first;
                    for gap in gaps {
                        t += gap;
                        out = match out {
                            FdOutput::Trust => FdOutput::Suspect,
                            FdOutput::Suspect => FdOutput::Trust,
                        };
                        q.observe(t, out);
                    }
                    q.advance(t + 0.5);
                    q.state()
                })
        }

        fn arb_control_record() -> impl Strategy<Value = ControlRecord> {
            (
                (0.1f64..100.0, 1.0f64..1.0e6, 0.1f64..100.0),
                proptest::bool::ANY,
                (0u64..1000, 0u64..1000, 0u64..1000, 0u32..100),
                proptest::option::of(0.0f64..1000.0),
                proptest::option::of(0.001f64..10.0),
                (0u64..10_000, 0u64..10_000),
            )
                .prop_map(
                    |(req, degraded, counts, last_change, recommended_eta, loss)| {
                        ControlRecord {
                            t_d_upper: req.0,
                            t_mr_lower: req.1,
                            t_m_upper: req.2,
                            degraded,
                            reconfigurations: counts.0,
                            degradations: counts.1,
                            promotions: counts.2,
                            feasible_streak: counts.3,
                            last_change,
                            recommended_eta,
                            loss_highest: loss.0.max(loss.1),
                            loss_received: loss.0.min(loss.1),
                        }
                    },
                )
        }

        fn arb_peer_record() -> impl Strategy<Value = PeerRecord> {
            (
                (0u64..u64::MAX, 0u64..100),
                (0.001f64..10.0, 0.001f64..10.0, 2usize..128),
                proptest::option::of(1u64..100_000),
                proptest::collection::vec(-1.0f64..1.0, 0..16),
                proptest::option::of(arb_qos_state()),
                proptest::option::of(arb_control_record()),
                proptest::collection::vec(0u64..1_000_000, 6),
            )
                .prop_map(|(ids, params, max_seq, samples, qos, control, c)| PeerRecord {
                    peer: ids.0,
                    incarnation: ids.1,
                    eta: params.0,
                    alpha: params.1,
                    window: params.2,
                    max_seq,
                    counters: PeerCounters {
                        heartbeats: c[0],
                        stale: c[1],
                        suspicions: c[2],
                        recoveries: c[3],
                        stale_incarnation: c[4],
                        incarnation_resets: c[5],
                    },
                    samples,
                    qos,
                    control,
                })
        }

        fn arb_snapshot() -> impl Strategy<Value = ClusterStateSnapshot> {
            (
                0.0f64..1.0e6,
                proptest::option::of((0u64..64, 0u64..32)),
                proptest::option::of((0u64..1000, 0u64..50, 0.0f64..1.0e6)),
                proptest::collection::vec(arb_peer_record(), 0..6),
            )
                .prop_map(|(taken_at, origin, election, peers)| ClusterStateSnapshot {
                    taken_at,
                    origin: origin
                        .map(|(node, incarnation)| SnapshotOrigin { node, incarnation }),
                    election: election.map(|(leader, incarnation, elected_at)| {
                        ElectionRecord { leader, incarnation, elected_at }
                    }),
                    peers,
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_snapshot_roundtrips(snap in arb_snapshot()) {
                prop_assert_eq!(decode_snapshot(&encode_snapshot(&snap)).unwrap(), snap);
            }

            /// The decoder is total: a generated snapshot survives a
            /// bit flip plus truncation without panicking — with the
            /// checksum left stale (the usual torn file) and with it
            /// recomputed, so the field checks behind it run too.
            #[test]
            fn prop_corruption_never_panics(
                snap in arb_snapshot(),
                idx in 0usize..4096,
                flip in 1u8..255,
                cut in 0usize..64,
            ) {
                let mut buf = encode_snapshot(&snap);
                let idx = idx % buf.len();
                buf[idx] ^= flip;
                buf.truncate(buf.len() - cut.min(buf.len()));
                let _ = decode_snapshot(&buf);
                if buf.len() >= 8 {
                    reseal(&mut buf);
                    let _ = decode_snapshot(&buf);
                }
            }
        }
    }

    #[test]
    fn corrupt_file_is_an_error_not_a_panic() {
        let path = std::env::temp_dir().join(format!(
            "fd-cluster-snap-corrupt-{}.bin",
            std::process::id()
        ));
        fs::write(&path, b"garbage").unwrap();
        match read_snapshot_file(&path) {
            Err(SnapshotError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }
}
