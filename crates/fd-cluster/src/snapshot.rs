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
//! serialization dependency): a fixed header, any number of peer
//! records, and a trailer holding the record count and a checksum.
//! There is one layout, [`SNAPSHOT_VERSION`]; a `flag u8` is `0` or `1`
//! and the value after it is written (as zero) even when the flag is `0`:
//!
//! | block | field | size |
//! |-------|-------|-----:|
//! | header | magic `[0xFD, 0x5C]` | 2 |
//! |        | version `u16` | 2 |
//! |        | `taken_at f64` (cluster clock, seconds) | 8 |
//! | origin ([`SnapshotOrigin`]) | flag + `node u64` + `incarnation u64` | 17 |
//! | election ([`ElectionRecord`]) | flag + `leader u64` + `incarnation u64` + `elected_at f64` | 25 |
//! | peer record, any number | `peer u64`, `incarnation u64`, `eta f64`, `alpha f64`, `window u32` | 36 |
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
//! | trailer | `count u32`: how many peer records precede it | 4 |
//! |        | `checksum u64` of everything above, `count` included | 8 |
//!
//! The count sits in the trailer because the monitor streams a snapshot
//! to disk one registry shard at a time and peers may be added or
//! removed meanwhile: it knows how many records it wrote only after the
//! last one. **Record order is unspecified** (the monitor writes
//! shard-major, hash order within a shard); decoding and restoring never
//! depended on it.
//!
//! The checksum is FNV-1a's xor-then-multiply fold taken a 64-bit word
//! at a time: start from the FNV offset basis; for each 8 bytes of
//! input, read as a little-endian `u64` (the last word zero-padded),
//! `h = (h ^ word) · 0x100000001b3`; finally fold the input's length in
//! bytes the same way. Every step is a bijection of `h`, so any change
//! confined to one word — every single-byte change — changes the result,
//! and the folded length tells a truncated input from a zero-padded one.
//! It detects torn writes and bit rot, not adversaries.
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
//! There is one record encoder and one record decoder, and
//! [`PeerRecord`] is generic over how the estimator samples are held:
//! owned ([`ClusterStateSnapshot::peers`]), an iterator straight out of
//! a live detector's window (the monitor's streaming writer), or
//! [`SampleBytes`] read out of the file's bytes ([`Records`], which
//! [`decode_snapshot`] collects and a spawning monitor restores from
//! without materialising anything).
//!
//! Decoding is strict — wrong magic, any other version, truncation,
//! trailing bytes, a trailer count that disagrees with the records,
//! non-finite parameters or a checksum mismatch all yield
//! [`SnapshotError::Corrupt`]. Corruption is *safe* to reject
//! wholesale: a monitor restoring nothing merely starts cold (every
//! peer suspected until its heartbeats return), it never trusts anyone
//! it should not. That is the opposite polarity from the sender-side
//! incarnation store, where corruption must halt the process.
//!
//! Writes are atomic and durable: the snapshot is written to a `.tmp`
//! sibling, synced, renamed over the target and the directory synced,
//! so a crash mid-write leaves the previous snapshot intact rather than
//! a torn file; a failed write removes its `.tmp`.

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
pub const SNAPSHOT_VERSION: u16 = 6;

/// Bytes of the shortest peer record (no samples, no QoS tracker, no
/// control block) — bounds how many records a buffer can hold.
const MIN_RECORD_LEN: usize = 99;

/// One peer's persisted state. `S` is how the estimator samples are
/// held — owned by default; see the module docs for the borrowed forms.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerRecord<S = Vec<f64>> {
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
    pub samples: S,
    /// Live QoS tracker state (`None` starts a fresh tracker on
    /// restore; a monitor always writes `Some`).
    pub qos: Option<QosTrackerState>,
    /// Adaptive-control state (`None` for peers without declared
    /// requirements).
    pub control: Option<ControlRecord>,
}

impl<S> PeerRecord<S> {
    /// This record holding `samples` instead of its own.
    pub fn with_samples<T>(&self, samples: T) -> PeerRecord<T> {
        PeerRecord {
            peer: self.peer,
            incarnation: self.incarnation,
            eta: self.eta,
            alpha: self.alpha,
            window: self.window,
            max_seq: self.max_seq,
            counters: self.counters,
            samples,
            qos: self.qos,
            control: self.control,
        }
    }
}

/// Estimator samples still in their encoded form — little-endian `f64`s,
/// each checked finite — read oldest first out of a snapshot's bytes.
#[derive(Debug, Clone)]
pub struct SampleBytes<'a>(std::slice::ChunksExact<'a, u8>);

impl Iterator for SampleBytes<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        self.0.next().map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
    }

    // Exact, so collecting a window allocates once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
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

impl ClusterStateSnapshot {
    /// The header block this snapshot encodes to.
    pub fn header(&self) -> SnapshotHeader {
        SnapshotHeader { taken_at: self.taken_at, origin: self.origin, election: self.election }
    }
}

/// The fixed block opening a snapshot: when it was taken, who wrote it,
/// who led.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotHeader {
    /// Cluster-clock time the snapshot was taken, seconds.
    pub taken_at: f64,
    /// Provenance of the writing monitor, when it declared one.
    pub origin: Option<SnapshotOrigin>,
    /// The persisted election incumbent, when one was recorded.
    pub election: Option<ElectionRecord>,
}

/// The snapshot checksum (defined in the module docs), fed in chunks of
/// any length: `update` carries the up-to-seven bytes that do not fill a
/// word over to the next chunk.
#[derive(Debug, Clone)]
pub(crate) struct Checksum {
    h: u64,
    len: u64,
    tail: [u8; 8],
    tail_len: usize,
}

/// One step of the fold: FNV-1a's, on a whole word.
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

impl Checksum {
    pub fn new() -> Self {
        Self { h: 0xcbf2_9ce4_8422_2325, len: 0, tail: [0; 8], tail_len: 0 }
    }

    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = bytes.len().min(8 - self.tail_len);
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.h = fold(self.h, u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let words = bytes.chunks_exact(8);
        let rest = words.remainder();
        let mut h = self.h;
        for w in words {
            h = fold(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        self.h = h;
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    pub fn finish(mut self) -> u64 {
        if self.tail_len > 0 {
            self.tail[self.tail_len..].fill(0);
            self.h = fold(self.h, u64::from_le_bytes(self.tail));
        }
        fold(self.h, self.len)
    }

    /// The checksum of `bytes` in one shot.
    fn of(bytes: &[u8]) -> u64 {
        let mut sum = Self::new();
        sum.update(bytes);
        sum.finish()
    }
}

fn put_header(buf: &mut Vec<u8>, h: &SnapshotHeader) {
    buf.extend_from_slice(&SNAPSHOT_MAGIC);
    buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    buf.extend_from_slice(&h.taken_at.to_le_bytes());
    buf.push(h.origin.is_some() as u8);
    let o = h.origin.unwrap_or(SnapshotOrigin { node: 0, incarnation: 0 });
    buf.extend_from_slice(&o.node.to_le_bytes());
    buf.extend_from_slice(&o.incarnation.to_le_bytes());
    buf.push(h.election.is_some() as u8);
    let e = h.election.unwrap_or(ElectionRecord { leader: 0, incarnation: 0, elected_at: 0.0 });
    buf.extend_from_slice(&e.leader.to_le_bytes());
    buf.extend_from_slice(&e.incarnation.to_le_bytes());
    buf.extend_from_slice(&e.elected_at.to_le_bytes());
}

/// Appends one peer record — the one record encoder, whatever holds the
/// samples.
pub(crate) fn put_record(buf: &mut Vec<u8>, r: PeerRecord<impl IntoIterator<Item = f64>>) {
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
    // The count goes in once the samples have been walked.
    let count_at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    let mut sample_count = 0u32;
    for s in r.samples {
        buf.extend_from_slice(&s.to_le_bytes());
        sample_count += 1;
    }
    buf[count_at..count_at + 4].copy_from_slice(&sample_count.to_le_bytes());
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

/// Appends the trailer. `sum` has been fed everything that precedes
/// `buf`; `buf` holds the rest of the body.
fn put_trailer(buf: &mut Vec<u8>, count: u32, mut sum: Checksum) {
    buf.extend_from_slice(&count.to_le_bytes());
    sum.update(buf);
    buf.extend_from_slice(&sum.finish().to_le_bytes());
}

/// Encodes a snapshot to its binary form (checksum included).
pub fn encode_snapshot(snap: &ClusterStateSnapshot) -> Vec<u8> {
    let mut buf = Vec::with_capacity(66 + snap.peers.len() * 512);
    put_header(&mut buf, &snap.header());
    for r in &snap.peers {
        put_record(&mut buf, r.with_samples(r.samples.iter().copied()));
    }
    put_trailer(&mut buf, snap.peers.len() as u32, Checksum::new());
    buf
}

/// Recomputes the checksum of a snapshot whose body a test edited, so
/// the edit — not the checksum — is what the decoder judges.
#[cfg(test)]
fn reseal(buf: &mut [u8]) {
    let body_len = buf.len() - 8;
    let sum = Checksum::of(&buf[..body_len]);
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
#[derive(Debug, Clone)]
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Corrupt(what))?;
        let bytes = self.buf.get(self.pos..end).ok_or(SnapshotError::Corrupt(what))?;
        self.pos = end;
        Ok(bytes)
    }

    fn take<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], SnapshotError> {
        Ok(self.bytes(N, what)?.try_into().expect("length checked"))
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


/// Decodes one peer record — the one record decoder — leaving its
/// samples where they are.
fn take_record<'a>(cur: &mut Cursor<'a>) -> Result<PeerRecord<SampleBytes<'a>>, SnapshotError> {
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
    let counters = PeerCounters {
        heartbeats: cur.u64("heartbeats counter")?,
        stale: cur.u64("stale counter")?,
        suspicions: cur.u64("suspicions counter")?,
        recoveries: cur.u64("recoveries counter")?,
        stale_incarnation: cur.u64("stale_incarnation counter")?,
        incarnation_resets: cur.u64("incarnation_resets counter")?,
    };
    let sample_bytes = (cur.u32("sample count")? as usize)
        .checked_mul(8)
        .ok_or(SnapshotError::Corrupt("sample count"))?;
    let samples = SampleBytes(cur.bytes(sample_bytes, "sample")?.chunks_exact(8));
    if samples.clone().any(|s| !s.is_finite()) {
        return Err(SnapshotError::Corrupt("non-finite sample"));
    }
    let qos = if cur.flag("bad qos flag")? { Some(decode_qos_block(cur)?) } else { None };
    let control =
        if cur.flag("bad control flag")? { Some(decode_control_block(cur)?) } else { None };
    Ok(PeerRecord {
        peer,
        incarnation,
        eta,
        alpha,
        window,
        max_seq: has_max_seq.then_some(raw_max_seq),
        counters,
        samples,
        qos,
        control,
    })
}

/// The peer records of an [opened](open_snapshot) snapshot, decoded one
/// at a time and borrowing their samples from its bytes. Yields the
/// first malformation — a trailer count that disagrees with the records
/// included, once they have all been walked — and then ends.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    cur: Cursor<'a>,
    declared: usize,
    seen: usize,
    done: bool,
}

impl<'a> Iterator for Records<'a> {
    type Item = Result<PeerRecord<SampleBytes<'a>>, SnapshotError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.cur.pos == self.cur.buf.len() {
            self.done = true;
            return (self.seen != self.declared)
                .then_some(Err(SnapshotError::Corrupt("peer count mismatch")));
        }
        let record = take_record(&mut self.cur);
        self.seen += 1;
        self.done = record.is_err();
        Some(record)
    }
}

/// Opens a snapshot: verifies the checksum, decodes header and trailer,
/// and hands back the records still encoded. The records are *not* yet
/// checked — walk [`Records`] to the end before acting on any of them
/// if a half-valid file must change nothing.
///
/// # Errors
///
/// [`SnapshotError::Corrupt`] on any malformation; never panics.
pub fn open_snapshot(buf: &[u8]) -> Result<(SnapshotHeader, Records<'_>), SnapshotError> {
    if buf.len() < 8 {
        return Err(SnapshotError::Corrupt("shorter than its checksum"));
    }
    let (body, sum_bytes) = buf.split_at(buf.len() - 8);
    let declared = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    if Checksum::of(body) != declared {
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
    // What lies between the header and the trailer's count is records.
    let records_end = body
        .len()
        .checked_sub(4)
        .filter(|end| *end >= cur.pos)
        .ok_or(SnapshotError::Corrupt("peer count"))?;
    let count = Cursor { buf: body, pos: records_end }.u32("peer count")? as usize;
    let header = SnapshotHeader {
        taken_at,
        origin: has_origin.then_some(origin),
        election: has_election.then_some(election),
    };
    let cur = Cursor { buf: &body[..records_end], pos: cur.pos };
    Ok((header, Records { cur, declared: count, seen: 0, done: false }))
}

/// Decodes a snapshot, verifying framing and checksum.
///
/// # Errors
///
/// [`SnapshotError::Corrupt`] on any malformation; never panics.
pub fn decode_snapshot(buf: &[u8]) -> Result<ClusterStateSnapshot, SnapshotError> {
    let (header, records) = open_snapshot(buf)?;
    // The buffer's own length bounds what a corrupt count can reserve.
    let mut peers = Vec::with_capacity(records.declared.min(buf.len() / MIN_RECORD_LEN));
    for r in records {
        let r = r?;
        peers.push(r.with_samples(r.samples.clone().collect()));
    }
    Ok(ClusterStateSnapshot {
        taken_at: header.taken_at,
        origin: header.origin,
        election: header.election,
        peers,
    })
}

/// Writes a snapshot file atomically and durably, one chunk at a time.
/// `fill` appends the next run of peer records to the (empty, reused)
/// `chunk` with [`put_record`] and returns how many, `None` once there
/// are no more; each chunk is folded into the running checksum and
/// written out before the next is asked for, so the writer never holds
/// more than one chunk. The file is staged and published by
/// [`write_atomic`].
///
/// # Errors
///
/// Propagates filesystem errors; on error `<path>.tmp` is removed and
/// the previous snapshot (if any) is left untouched.
pub(crate) fn write_streamed(
    path: &Path,
    chunk: &mut Vec<u8>,
    header: &SnapshotHeader,
    mut fill: impl FnMut(&mut Vec<u8>) -> Option<usize>,
) -> io::Result<()> {
    write_atomic(path, |file| {
        let mut sum = Checksum::new();
        let mut count = 0usize;
        chunk.clear();
        put_header(chunk, header);
        while let Some(records) = fill(chunk) {
            count += records;
            sum.update(chunk);
            file.write_all(chunk)?;
            chunk.clear();
        }
        let count = u32::try_from(count)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "more than u32::MAX peers"))?;
        put_trailer(chunk, count, sum);
        file.write_all(chunk)
    })
}

/// Replaces the file at `path` with what `write` puts into a fresh one,
/// atomically and durably: the bytes go to [`tmp_path`], which is
/// synced and renamed over `path`, and then the directory is synced
/// (best effort) so the rename survives a crash. A reader therefore
/// sees the old file or the new one, never a torn one.
///
/// # Errors
///
/// Propagates filesystem errors; on error the tmp file is removed and
/// the file at `path` (if any) is left untouched.
pub(crate) fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut fs::File) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = tmp_path(path);
    let written = (|| {
        let mut file = fs::File::create(&tmp)?;
        write(&mut file)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)
    })();
    match written {
        Ok(()) => {
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            if let Ok(dir) = fs::File::open(dir.unwrap_or(Path::new("."))) {
                let _ = dir.sync_all();
            }
        }
        Err(_) => {
            let _ = fs::remove_file(&tmp);
        }
    }
    written
}

/// Reads a snapshot file's bytes. A missing file is `Ok(None)` — a
/// monitor that has never written one simply starts cold.
///
/// # Errors
///
/// [`SnapshotError::Io`] on read failures other than not-found.
pub(crate) fn read_snapshot_bytes(path: &Path) -> Result<Option<Vec<u8>>, SnapshotError> {
    match fs::read(path) {
        Ok(b) => Ok(Some(b)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(SnapshotError::Io(e)),
    }
}

/// Where a write to `path` is staged before the rename.
pub(crate) fn tmp_path(path: &Path) -> std::path::PathBuf {
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
    fn trailer_count_must_match_the_records() {
        let mut buf = encode_snapshot(&sample_snapshot());
        let at = buf.len() - 12;
        assert_eq!(buf[at..at + 4], 2u32.to_le_bytes());
        for wrong in [0u32, 1, 3, u32::MAX] {
            buf[at..at + 4].copy_from_slice(&wrong.to_le_bytes());
            reseal(&mut buf);
            match decode_snapshot(&buf) {
                Err(SnapshotError::Corrupt("peer count mismatch")) => {}
                other => panic!("count {wrong}: expected a mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn records_are_decoded_in_place() {
        let snap = sample_snapshot();
        let buf = encode_snapshot(&snap);
        let (header, records) = open_snapshot(&buf).unwrap();
        assert_eq!(header, snap.header());
        let borrowed: Vec<_> = records.map(Result::unwrap).collect();
        assert_eq!(borrowed.len(), 2);
        for (b, owned) in borrowed.iter().zip(&snap.peers) {
            assert_eq!(b.with_samples(()), owned.with_samples(()));
            assert_eq!(b.samples.clone().collect::<Vec<_>>(), owned.samples);
        }
        // Re-encoding the borrowed records gives the same file.
        let mut again = Vec::new();
        put_header(&mut again, &header);
        for b in borrowed {
            put_record(&mut again, b);
        }
        put_trailer(&mut again, 2, Checksum::new());
        assert_eq!(again, buf);
    }

    /// A record that fails its field checks ends the walk with that
    /// error, after the records before it.
    #[test]
    fn records_stop_at_the_first_malformed_one() {
        let mut snap = sample_snapshot();
        snap.peers[1].alpha = f64::INFINITY;
        let buf = encode_snapshot(&snap);
        let (_, mut records) = open_snapshot(&buf).expect("header and checksum are fine");
        assert!(records.next().unwrap().is_ok());
        match records.next() {
            Some(Err(SnapshotError::Corrupt("non-finite peer parameters"))) => {}
            other => panic!("expected the field check to fail, got {other:?}"),
        }
        assert!(records.next().is_none());
    }

    #[test]
    fn checksum_tells_padding_and_truncation_apart() {
        assert_ne!(Checksum::of(b"abc"), Checksum::of(b"abc\0"));
        assert_ne!(Checksum::of(b"12345678"), Checksum::of(b"12345678\0\0\0\0\0\0\0\0"));
        assert_ne!(Checksum::of(b""), Checksum::of(b"\0"));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut buf = encode_snapshot(&sample_snapshot());
        buf.extend_from_slice(&[0u8; 4]);
        assert!(decode_snapshot(&buf).is_err());
    }

    /// The streaming writer, fed its records a few at a time, puts the
    /// bytes `encode_snapshot` produces in one go at `path` — and
    /// nothing at `<path>.tmp`.
    #[test]
    fn streamed_file_is_the_one_shot_encoding() {
        let path = std::env::temp_dir().join(format!(
            "fd-cluster-snap-test-{}.bin",
            std::process::id()
        ));
        let _ = fs::remove_file(&path);
        assert!(read_snapshot_bytes(&path).unwrap().is_none(), "missing = cold start");
        let mut snap = sample_snapshot();
        snap.peers = (0..7).map(|i| PeerRecord { peer: i, ..snap.peers[i as usize % 2].clone() }).collect();
        for per_chunk in [1, 3, 7, 8] {
            let mut runs = snap.peers.chunks(per_chunk);
            write_streamed(&path, &mut Vec::new(), &snap.header(), |chunk| {
                let run = runs.next()?;
                for r in run {
                    put_record(chunk, r.with_samples(r.samples.iter().copied()));
                }
                Some(run.len())
            })
            .unwrap();
            let bytes = read_snapshot_bytes(&path).unwrap().expect("written");
            assert_eq!(bytes, encode_snapshot(&snap), "{per_chunk} records per chunk");
            assert!(!tmp_path(&path).exists());
        }
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

            /// However the input is cut into `update` calls — empty
            /// pieces, pieces shorter than a word, cuts inside a word —
            /// the checksum is the one-shot value.
            #[test]
            fn prop_checksum_ignores_chunk_boundaries(
                bytes in proptest::collection::vec(0u8..=255, 0..200),
                cuts in proptest::collection::vec(0usize..200, 0..12),
            ) {
                let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
                cuts.sort_unstable();
                cuts.push(bytes.len());
                let mut sum = Checksum::new();
                let mut from = 0;
                for to in cuts {
                    sum.update(&bytes[from..to]);
                    from = to;
                }
                prop_assert_eq!(sum.finish(), Checksum::of(&bytes));
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
}
