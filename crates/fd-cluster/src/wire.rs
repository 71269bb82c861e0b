//! Batched wire protocol: one frame header, five frame kinds.
//!
//! One heartbeat per datagram — the paper's single pair — is, at
//! cluster scale, one syscall and one UDP header per peer per `η`; here
//! many heartbeats share a datagram (a single pair is a one-entry
//! frame), and the same framing carries the adaptive control
//! plane's `η` recommendations and the federation gossip tier
//! (`fd-federation`). Every datagram opens with the same four bytes and
//! the kind byte selects the body; all integers and floats are
//! little-endian:
//!
//! | kind | offset | size | field |
//! |------|-------:|-----:|-------|
//! | all  | 0      | 2    | magic `[0xFD, 0xC1]` |
//! |      | 2      | 1    | version ([`BATCH_WIRE_VERSION`]) |
//! |      | 3      | 1    | kind |
//! | `0` heartbeats | 4 | 1 | entry count `c` (1..=[`MAX_BATCH`]) |
//! |      | 5 + 32·k | 32 | entry `k`: `peer u64`, `incarnation u64`, `seq u64`, `send_time f64` |
//! | `1` control | 4 | 1 | entry count `c` (1..=[`MAX_CONTROL_BATCH`]) |
//! |      | 5 + 16·k | 16 | entry `k`: `peer u64`, `eta f64` (positive, finite) |
//! | `2` digest | 4 | 8 | `origin u64` — sending monitor node id |
//! |      | 12     | 8    | `node_incarnation u64` — the node's own life |
//! |      | 20     | 8    | `round u64` — gossip round, starts at 1 |
//! |      | 28     | 8    | `at f64` — sender cluster-clock seconds |
//! |      | 36     | 12   | `peers u32`, `suspected u32`, `degraded u32` — partition roll-up |
//! |      | 48     | 1    | flags: bit 0 full refresh, bit 1 conformance ok |
//! |      | 49     | 1    | entry count `c` (0..=[`MAX_DIGEST_BATCH`]) |
//! |      | 50 + 17·k | 17 | entry `k`: `peer u64`, `incarnation u64`, state `u8` (bit 0 trusted, bit 1 degraded) |
//! | `3` repair request | 4 | 8 | `requester u64` — the node asking |
//! |      | 12     | 8    | `target u64` — whose digest stream has the gap |
//! |      | 20     | 8    | `target_incarnation u64` — the life the gap is in |
//! |      | 28     | 8    | `have_round u64` — highest round merged so far |
//! |      | 36     | 8    | `at f64` — requester clock seconds |
//! | `4` relayed digest | 4 | 8 | `relayer u64` — the forwarding node |
//! |      | 12     | 1    | `hop u8` — ≥ 1; receivers enforce their cap |
//! |      | 13     | …    | one complete, well-formed kind-2 digest frame |
//!
//! A **heartbeat** entry carries the sender's *incarnation* so receivers
//! in the crash-recovery model can reject heartbeats from a previous
//! life of the same process (a datagram delayed in flight across a
//! crash must not refresh trust in the restarted peer). A **control**
//! entry is the §8.1 loop closing over the wire: the monitor recommends
//! a new intersending interval `η` for one peer, and the peer's
//! heartbeater consumes it through its own hysteresis gate. A **digest**
//! is the compressed per-partition membership + QoS summary that monitor
//! nodes exchange in the anti-entropy gossip tier; unlike heartbeat and
//! control frames it may legally carry **zero** entries — a delta round
//! in which nothing changed still ships the header as the node-level
//! heartbeat and partition roll-up. A **repair request** (NACK) asks an
//! origin whose digest round sequence showed a gap for a full refresh.
//! A **relayed digest** is a digest frame forwarded verbatim on behalf
//! of an origin the receiver may not be able to reach directly; the
//! embedded bytes must decode as exactly one digest frame through the
//! same strict [`decode_frame`] path, so a relay can never smuggle
//! malformed digests past the ingest checks. All flag and state bits not
//! named above must be zero.
//!
//! The magic differs from the single-heartbeat magic (`[0xFD, 0xB1]`), so
//! each receiver rejects the other's traffic instead of misparsing it.
//! Decoding is strict *and total*: exact length for the declared count
//! and kind, the one known version, a known kind, at least one entry
//! (digests excepted), finite and positive-where-required values — a
//! stray, truncated, or corrupted packet, or one of any other version,
//! yields `None`, never a bogus entry and never a panic (every read
//! goes through a checked cursor or a length-checked slice).

use crate::PeerId;

/// Magic bytes opening every batch datagram.
pub const BATCH_MAGIC: [u8; 2] = [0xFD, 0xC1];

/// The wire format version: the only one written, the only one accepted.
pub const BATCH_WIRE_VERSION: u8 = 4;

/// Frame kind: a batch of heartbeat entries.
const FRAME_KIND_HEARTBEATS: u8 = 0;

/// Frame kind: a batch of `η`-recommendation control entries.
const FRAME_KIND_CONTROL: u8 = 1;

/// Frame kind: a federation gossip digest.
const FRAME_KIND_DIGEST: u8 = 2;

/// Frame kind: a digest repair request (NACK) — "your round sequence
/// has a gap here, send me a full refresh".
const FRAME_KIND_REPAIR: u8 = 3;

/// Frame kind: a digest relayed on behalf of its origin by a third
/// node, hop-counted.
const FRAME_KIND_RELAY: u8 = 4;

/// Size of the heartbeat and control batch header: magic, version, kind,
/// entry count.
const HEADER_LEN: usize = 5;

/// Size of the digest header: magic, version, kind, origin,
/// node incarnation, round, timestamp, three roll-up counts, flags,
/// entry count.
const HEADER_LEN_DIGEST: usize = 50;

/// Size of one encoded digest entry: `peer + incarnation + state`.
const DIGEST_ENTRY_LEN: usize = 17;

/// Exact size of a repair-request frame.
const REPAIR_FRAME_LEN: usize = 44;

/// Size of the relay prefix (magic, version, kind, relayer, hop) that
/// precedes the embedded digest frame.
const RELAY_HEADER_LEN: usize = 13;

/// Most digest entries per datagram (50 + 83·17 = 1461 bytes).
pub const MAX_DIGEST_BATCH: usize = 83;

/// Size of one encoded heartbeat entry:
/// `peer + incarnation + seq + send_time`.
const ENTRY_LEN: usize = 32;

/// Size of one encoded control entry: `peer + eta`.
const CONTROL_ENTRY_LEN: usize = 16;

/// Most entries per datagram: `HEADER_LEN + MAX_BATCH · ENTRY_LEN`
/// = 1445 bytes, under the 1472-byte UDP payload of a 1500-byte
/// Ethernet MTU (no IP fragmentation).
pub const MAX_BATCH: usize = 45;

/// Most control entries per datagram (5 + 91·16 = 1461 bytes).
pub const MAX_CONTROL_BATCH: usize = 91;

/// One peer's heartbeat inside a batch: which peer, which life of that
/// peer, which `mᵢ`, and the sender-clock timestamp `S` of §5.2 (NFD-E
/// ignores it; estimators that assume synchronized clocks may use it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartbeatEntry {
    /// The monitored peer this heartbeat vouches for.
    pub peer: PeerId,
    /// The sender's incarnation — bumped on every recovery from a
    /// crash, `0` for processes that never persist one.
    pub incarnation: u64,
    /// Sequence number `i` of `mᵢ`, starting at 1 within an incarnation.
    pub seq: u64,
    /// Send timestamp on the sender's clock, seconds.
    pub send_time: f64,
}

/// One peer's `η` recommendation inside a control frame: the
/// monitor's configurator asks the sender for this intersending
/// interval. Advisory — the heartbeater applies it through rate
/// limiting and hysteresis, never blindly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlEntry {
    /// The peer whose heartbeater should retune.
    pub peer: PeerId,
    /// Recommended intersending interval `η`, seconds (positive, finite).
    pub eta: f64,
}

/// One peer's compressed state inside a federation digest: which peer,
/// which life of it, and its membership/QoS verdict at the origin node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestEntry {
    /// The monitored peer this entry describes.
    pub peer: PeerId,
    /// The highest incarnation the origin node has accepted for it.
    pub incarnation: u64,
    /// `true` if the origin's detector currently trusts the peer.
    pub trusted: bool,
    /// `true` if the peer's adaptive control loop is in `Degraded`.
    pub degraded: bool,
}

/// The partition-level roll-up carried by every digest frame, entries
/// or not: how many peers the origin owns and how many of them are in
/// each bad state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DigestSummary {
    /// Peers in the origin's owned partition.
    pub peers: u32,
    /// Of those, currently suspected (must be ≤ `peers`).
    pub suspected: u32,
    /// Of those, QoS-degraded (must be ≤ `peers`).
    pub degraded: u32,
    /// `true` if the origin's latest Conformance check passed.
    pub conformance_ok: bool,
}

/// One federation gossip digest: the origin node's identity and life,
/// the gossip round, its partition roll-up, and zero or more per-peer
/// state entries (a delta, or a chunk of a full refresh).
#[derive(Debug, Clone, PartialEq)]
pub struct DigestFrame {
    /// The sending monitor node.
    pub origin: u64,
    /// The sender's own incarnation — receivers reject digests from a
    /// previous life of the node and reset partition state on a newer.
    pub node_incarnation: u64,
    /// Gossip round at the origin, starting at 1 within an incarnation.
    pub round: u64,
    /// Origin cluster-clock timestamp, seconds (finite).
    pub at: f64,
    /// Partition-level counts.
    pub summary: DigestSummary,
    /// `true` if this frame belongs to a full anti-entropy refresh (the
    /// receiver replaces, rather than merges, its view of the origin's
    /// partition once the refresh round completes).
    pub full: bool,
    /// Per-peer state deltas (may be empty for a summary-only round).
    pub entries: Vec<DigestEntry>,
}

/// A digest repair request (NACK): the requester noticed a gap in the
/// target's digest round sequence — deltas lost on the wire that no
/// later delta will repeat — and asks for a full refresh. Bounded,
/// jittered resend pacing is the *requester's* job (see
/// `fd-federation`); the frame itself is stateless.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairRequest {
    /// The node asking for the refresh.
    pub requester: u64,
    /// The node whose digest stream has the gap.
    pub target: u64,
    /// The target incarnation the requester holds state for.
    pub target_incarnation: u64,
    /// Highest round the requester has merged (0 = nothing yet).
    pub have_round: u64,
    /// Requester clock when the gap was noticed, seconds (finite).
    pub at: f64,
}

/// A digest forwarded on behalf of its origin by a third node: the
/// transitive-reachability path that keeps an asymmetric partition from
/// looking like a node crash. `hop` counts forwarding steps (1 = the
/// relayer heard the origin directly).
#[derive(Debug, Clone, PartialEq)]
pub struct RelayedDigest {
    /// The node that forwarded the digest (not its origin).
    pub relayer: u64,
    /// Forwarding steps taken, ≥ 1; receivers drop frames beyond their
    /// configured hop cap.
    pub hop: u8,
    /// The relayed digest, decoded through the same strict path as a
    /// directly-received one.
    pub digest: DigestFrame,
}

/// A decoded datagram: which kind of traffic it carried.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Heartbeat entries (kind 0).
    Heartbeats(Vec<HeartbeatEntry>),
    /// `η`-recommendation control entries (kind 1).
    Control(Vec<ControlEntry>),
    /// A federation gossip digest (kind 2).
    Digest(DigestFrame),
    /// A digest repair request (kind 3).
    Repair(RepairRequest),
    /// A relayed digest (kind 4).
    Relayed(RelayedDigest),
}

/// Opens a frame: the four bytes every datagram starts with.
fn put_header(buf: &mut Vec<u8>, kind: u8) {
    buf.extend_from_slice(&BATCH_MAGIC);
    buf.push(BATCH_WIRE_VERSION);
    buf.push(kind);
}

/// Encodes a batch of heartbeat entries into one kind-0 datagram.
///
/// # Panics
///
/// Panics if `entries` is empty or longer than [`MAX_BATCH`] — callers
/// chunk before encoding.
pub fn encode_batch(entries: &[HeartbeatEntry]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + entries.len() * ENTRY_LEN);
    encode_batch_into(entries, &mut buf);
    buf
}

/// [`encode_batch`] into a caller-owned buffer (cleared first), so hot
/// flush loops reuse one allocation per frame slot instead of building
/// a fresh `Vec` per datagram.
///
/// # Panics
///
/// Same contract as [`encode_batch`].
pub fn encode_batch_into(entries: &[HeartbeatEntry], buf: &mut Vec<u8>) {
    assert!(
        !entries.is_empty() && entries.len() <= MAX_BATCH,
        "batch must hold 1..={MAX_BATCH} entries, got {}",
        entries.len()
    );
    buf.clear();
    buf.reserve(HEADER_LEN + entries.len() * ENTRY_LEN);
    put_header(buf, FRAME_KIND_HEARTBEATS);
    buf.push(entries.len() as u8);
    for e in entries {
        buf.extend_from_slice(&e.peer.to_le_bytes());
        buf.extend_from_slice(&e.incarnation.to_le_bytes());
        buf.extend_from_slice(&e.seq.to_le_bytes());
        buf.extend_from_slice(&e.send_time.to_le_bytes());
    }
}

/// Encodes a batch of control entries into one kind-1 datagram, in a
/// caller-owned buffer (cleared first); see [`encode_batch_into`] for
/// why.
///
/// # Panics
///
/// Panics if `entries` is empty, longer than [`MAX_CONTROL_BATCH`], or
/// contains a non-positive or non-finite `η` (the decoder would reject
/// the frame wholesale, so encoding it is a caller bug).
pub fn encode_control_into(entries: &[ControlEntry], buf: &mut Vec<u8>) {
    assert!(
        !entries.is_empty() && entries.len() <= MAX_CONTROL_BATCH,
        "control batch must hold 1..={MAX_CONTROL_BATCH} entries, got {}",
        entries.len()
    );
    buf.clear();
    buf.reserve(HEADER_LEN + entries.len() * CONTROL_ENTRY_LEN);
    put_header(buf, FRAME_KIND_CONTROL);
    buf.push(entries.len() as u8);
    for e in entries {
        assert!(
            e.eta > 0.0 && e.eta.is_finite(),
            "control η must be positive and finite, got {}",
            e.eta
        );
        buf.extend_from_slice(&e.peer.to_le_bytes());
        buf.extend_from_slice(&e.eta.to_le_bytes());
    }
}

/// Encodes one federation digest into a kind-2 datagram.
///
/// # Panics
///
/// Panics if the frame holds more than [`MAX_DIGEST_BATCH`] entries,
/// the summary counts are inconsistent (`suspected` or `degraded`
/// exceeding `peers`), or `at` is not finite — the decoder would reject
/// the frame wholesale, so encoding it is a caller bug. Zero entries
/// are legal: a quiet delta round still ships the header.
pub fn encode_digest(frame: &DigestFrame) -> Vec<u8> {
    assert!(
        frame.entries.len() <= MAX_DIGEST_BATCH,
        "digest must hold 0..={MAX_DIGEST_BATCH} entries, got {}",
        frame.entries.len()
    );
    assert!(
        frame.at.is_finite(),
        "digest timestamp must be finite, got {}",
        frame.at
    );
    assert!(
        frame.summary.suspected <= frame.summary.peers
            && frame.summary.degraded <= frame.summary.peers,
        "digest summary counts must not exceed the partition size"
    );
    let mut buf = Vec::with_capacity(HEADER_LEN_DIGEST + frame.entries.len() * DIGEST_ENTRY_LEN);
    put_header(&mut buf, FRAME_KIND_DIGEST);
    buf.extend_from_slice(&frame.origin.to_le_bytes());
    buf.extend_from_slice(&frame.node_incarnation.to_le_bytes());
    buf.extend_from_slice(&frame.round.to_le_bytes());
    buf.extend_from_slice(&frame.at.to_le_bytes());
    buf.extend_from_slice(&frame.summary.peers.to_le_bytes());
    buf.extend_from_slice(&frame.summary.suspected.to_le_bytes());
    buf.extend_from_slice(&frame.summary.degraded.to_le_bytes());
    let mut flags = 0u8;
    if frame.full {
        flags |= 0b01;
    }
    if frame.summary.conformance_ok {
        flags |= 0b10;
    }
    buf.push(flags);
    buf.push(frame.entries.len() as u8);
    for e in &frame.entries {
        buf.extend_from_slice(&e.peer.to_le_bytes());
        buf.extend_from_slice(&e.incarnation.to_le_bytes());
        let mut state = 0u8;
        if e.trusted {
            state |= 0b01;
        }
        if e.degraded {
            state |= 0b10;
        }
        buf.push(state);
    }
    buf
}

/// Encodes one repair request into a kind-3 datagram.
///
/// # Panics
///
/// Panics if `at` is not finite — the decoder would reject the frame
/// wholesale, so encoding it is a caller bug.
pub fn encode_repair(req: &RepairRequest) -> Vec<u8> {
    assert!(req.at.is_finite(), "repair timestamp must be finite, got {}", req.at);
    let mut buf = Vec::with_capacity(REPAIR_FRAME_LEN);
    put_header(&mut buf, FRAME_KIND_REPAIR);
    buf.extend_from_slice(&req.requester.to_le_bytes());
    buf.extend_from_slice(&req.target.to_le_bytes());
    buf.extend_from_slice(&req.target_incarnation.to_le_bytes());
    buf.extend_from_slice(&req.have_round.to_le_bytes());
    buf.extend_from_slice(&req.at.to_le_bytes());
    buf
}

/// Wraps an already-encoded digest frame for relay: prefixes the
/// relayer id and hop count. The inner bytes are forwarded verbatim, so
/// what the final receiver decodes is bit-identical to what the origin
/// sent.
///
/// # Panics
///
/// Panics if `hop == 0` (a zero-hop relay is a direct send — encode the
/// digest itself) or if `digest_bytes` is not a valid digest frame.
pub fn encode_relay(relayer: u64, hop: u8, digest_bytes: &[u8]) -> Vec<u8> {
    assert!(hop >= 1, "a relayed digest has taken at least one hop");
    assert!(
        matches!(decode_frame(digest_bytes), Some(Frame::Digest(_))),
        "relay payload must be one well-formed digest frame"
    );
    let mut buf = Vec::with_capacity(RELAY_HEADER_LEN + digest_bytes.len());
    put_header(&mut buf, FRAME_KIND_RELAY);
    buf.extend_from_slice(&relayer.to_le_bytes());
    buf.push(hop);
    buf.extend_from_slice(digest_bytes);
    buf
}

/// A bounds-checked little-endian reader: every access is `Option`al, so
/// no input — however truncated or hostile — can make decoding index
/// out of the buffer.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let end = self.pos.checked_add(4)?;
        let bytes: [u8; 4] = self.buf.get(self.pos..end)?.try_into().ok()?;
        self.pos = end;
        Some(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let bytes: [u8; 8] = self.buf.get(self.pos..end)?.try_into().ok()?;
        self.pos = end;
        Some(u64::from_le_bytes(bytes))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }
}

/// Decodes one datagram of any known kind.
///
/// Returns `None` for anything that is not exactly one well-formed
/// frame: short header, wrong magic, any version but
/// [`BATCH_WIRE_VERSION`], unknown kind, zero entries (digests
/// excepted), a declared entry count that exceeds (or falls short of)
/// the bytes actually present, any non-finite timestamp, any
/// non-positive/non-finite control `η`, inconsistent digest summary
/// counts, or unknown digest flag/state bits. Never panics, for any
/// input.
pub fn decode_frame(buf: &[u8]) -> Option<Frame> {
    let mut c = Cursor::new(buf);
    match frame_kind(&mut c)? {
        FRAME_KIND_HEARTBEATS => {
            let mut entries = Vec::new();
            heartbeat_entries_into(&mut c, &mut entries)?;
            Some(Frame::Heartbeats(entries))
        }
        FRAME_KIND_CONTROL => {
            let count = c.u8()? as usize;
            if count == 0
                || count > MAX_CONTROL_BATCH
                || c.remaining() != count * CONTROL_ENTRY_LEN
            {
                return None;
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let peer = c.u64()?;
                let eta = c.f64()?;
                if !(eta > 0.0 && eta.is_finite()) {
                    return None;
                }
                entries.push(ControlEntry { peer, eta });
            }
            Some(Frame::Control(entries))
        }
        FRAME_KIND_DIGEST => {
            let origin = c.u64()?;
            let node_incarnation = c.u64()?;
            let round = c.u64()?;
            let at = c.f64()?;
            if !at.is_finite() {
                return None;
            }
            let peers = c.u32()?;
            let suspected = c.u32()?;
            let degraded = c.u32()?;
            if suspected > peers || degraded > peers {
                return None;
            }
            let flags = c.u8()?;
            if flags & !0b11 != 0 {
                return None;
            }
            let count = c.u8()? as usize;
            if count > MAX_DIGEST_BATCH || c.remaining() != count * DIGEST_ENTRY_LEN {
                return None;
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let peer = c.u64()?;
                let incarnation = c.u64()?;
                let state = c.u8()?;
                if state & !0b11 != 0 {
                    return None;
                }
                entries.push(DigestEntry {
                    peer,
                    incarnation,
                    trusted: state & 0b01 != 0,
                    degraded: state & 0b10 != 0,
                });
            }
            Some(Frame::Digest(DigestFrame {
                origin,
                node_incarnation,
                round,
                at,
                summary: DigestSummary {
                    peers,
                    suspected,
                    degraded,
                    conformance_ok: flags & 0b10 != 0,
                },
                full: flags & 0b01 != 0,
                entries,
            }))
        }
        FRAME_KIND_REPAIR => {
            if buf.len() != REPAIR_FRAME_LEN {
                return None;
            }
            let requester = c.u64()?;
            let target = c.u64()?;
            let target_incarnation = c.u64()?;
            let have_round = c.u64()?;
            let at = c.f64()?;
            if !at.is_finite() {
                return None;
            }
            Some(Frame::Repair(RepairRequest {
                requester,
                target,
                target_incarnation,
                have_round,
                at,
            }))
        }
        FRAME_KIND_RELAY => {
            let relayer = c.u64()?;
            let hop = c.u8()?;
            if hop == 0 {
                return None;
            }
            // The payload must be exactly one well-formed digest frame;
            // the recursive decode is depth-1 by construction (a relayed
            // relay fails the Digest match below).
            let inner = buf.get(c.pos..)?;
            match decode_frame(inner)? {
                Frame::Digest(digest) => {
                    Some(Frame::Relayed(RelayedDigest { relayer, hop, digest }))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Reads the four bytes every frame opens with and returns the kind;
/// `None` for foreign magic or any version but [`BATCH_WIRE_VERSION`].
fn frame_kind(c: &mut Cursor<'_>) -> Option<u8> {
    if [c.u8()?, c.u8()?] != BATCH_MAGIC || c.u8()? != BATCH_WIRE_VERSION {
        return None;
    }
    c.u8()
}

/// The body of a heartbeat frame (count byte, then entries), appended
/// to `out`; `None`, with `out` as it was, if it is malformed.
fn heartbeat_entries_into(c: &mut Cursor<'_>, out: &mut Vec<HeartbeatEntry>) -> Option<usize> {
    let count = c.u8()? as usize;
    // Reject both a count that exceeds the buffer and trailing
    // garbage: the declared count must match the bytes exactly.
    if count == 0 || count > MAX_BATCH || c.remaining() != count * ENTRY_LEN {
        return None;
    }
    // The length check above makes the body exactly `count` whole
    // entries, so they decode without a per-field bounds check, and
    // `extend` reserves once for the lot.
    let body = c.buf.get(c.pos..)?;
    let word = |entry: &[u8], i: usize| {
        u64::from_le_bytes(entry[8 * i..8 * i + 8].try_into().expect("an 8-byte range"))
    };
    let start = out.len();
    out.extend(body.chunks_exact(ENTRY_LEN).map(|e| HeartbeatEntry {
        peer: word(e, 0),
        incarnation: word(e, 1),
        seq: word(e, 2),
        send_time: f64::from_bits(word(e, 3)),
    }));
    // No early exit: a non-finite timestamp is the rare case, and the
    // branch-free pass over the batch is the faster one.
    if !out[start..].iter().fold(true, |ok, e| ok & e.send_time.is_finite()) {
        out.truncate(start);
        return None;
    }
    Some(count)
}

/// [`decode_batch`] appending to a caller-owned buffer — the receive
/// pump's form: one reusable `Vec` takes every datagram of a receive
/// batch, so steady-state decoding allocates nothing. Returns how many
/// entries the datagram added; a rejected datagram (malformed, or a
/// valid frame of another kind) adds none — `out` is left exactly as it
/// was — and returns `None`.
pub fn decode_batch_into(buf: &[u8], out: &mut Vec<HeartbeatEntry>) -> Option<usize> {
    let mut c = Cursor::new(buf);
    match frame_kind(&mut c)? {
        FRAME_KIND_HEARTBEATS => heartbeat_entries_into(&mut c, out),
        _ => None,
    }
}

/// Decodes a *heartbeat* batch datagram (kind 0).
///
/// Control and digest frames — valid frames of the wrong kind for a
/// heartbeat receiver — decode as `None` here, exactly like any other
/// foreign traffic (the receiver pump counts them rejected). See
/// [`decode_frame`] for the kind-dispatching decoder.
pub fn decode_batch(buf: &[u8]) -> Option<Vec<HeartbeatEntry>> {
    let mut entries = Vec::new();
    decode_batch_into(buf, &mut entries)?;
    Some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<HeartbeatEntry> {
        (0..n)
            .map(|k| HeartbeatEntry {
                peer: k as u64 * 7 + 1,
                incarnation: k as u64 % 3,
                seq: k as u64 + 1,
                send_time: 0.05 * (k as f64 + 1.0),
            })
            .collect()
    }

    fn encode_control(entries: &[ControlEntry]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_control_into(entries, &mut buf);
        buf
    }

    fn control_sample(n: usize) -> Vec<ControlEntry> {
        (0..n)
            .map(|k| ControlEntry {
                peer: k as u64 * 11 + 1,
                eta: 0.01 * (k as f64 + 1.0),
            })
            .collect()
    }

    fn digest_sample(n: usize) -> DigestFrame {
        DigestFrame {
            origin: 3,
            node_incarnation: 2,
            round: 41,
            at: 123.5,
            summary: DigestSummary {
                peers: (n as u32).max(10),
                suspected: 2,
                degraded: 1,
                conformance_ok: true,
            },
            full: n.is_multiple_of(2),
            entries: (0..n)
                .map(|k| DigestEntry {
                    peer: k as u64 * 13 + 5,
                    incarnation: k as u64 % 4,
                    trusted: k % 3 != 0,
                    degraded: k % 5 == 0,
                })
                .collect(),
        }
    }

    #[test]
    fn digest_roundtrips_including_empty() {
        for n in [0, 1, 7, MAX_DIGEST_BATCH] {
            let frame = digest_sample(n);
            let buf = encode_digest(&frame);
            assert_eq!(buf.len(), HEADER_LEN_DIGEST + n * DIGEST_ENTRY_LEN);
            assert_eq!(buf[2], BATCH_WIRE_VERSION);
            assert_eq!(buf[3], FRAME_KIND_DIGEST);
            assert_eq!(decode_frame(&buf), Some(Frame::Digest(frame)));
        }
    }

    /// One valid frame of each of the five kinds.
    fn one_of_each_kind() -> [Vec<u8>; 5] {
        [
            encode_batch(&sample(3)),
            encode_control(&control_sample(3)),
            encode_digest(&digest_sample(3)),
            encode_repair(&repair_sample()),
            encode_relay(9, 2, &encode_digest(&digest_sample(2))),
        ]
    }

    #[test]
    fn every_frame_opens_with_the_same_header() {
        for (kind, buf) in one_of_each_kind().iter().enumerate() {
            assert_eq!(buf[..2], BATCH_MAGIC);
            assert_eq!(buf[2], BATCH_WIRE_VERSION);
            assert_eq!(buf[3], kind as u8);
            assert!(decode_frame(buf).is_some());
            // A heartbeat receiver must drop the other kinds' traffic,
            // not misparse it.
            assert_eq!(decode_batch(buf).is_some(), buf[3] == FRAME_KIND_HEARTBEATS);
        }
    }

    #[test]
    fn every_other_version_is_rejected_for_every_kind() {
        for good in one_of_each_kind() {
            for version in (0..=u8::MAX).filter(|v| *v != BATCH_WIRE_VERSION) {
                let mut buf = good.clone();
                buf[2] = version;
                assert_eq!(decode_frame(&buf), None, "kind {} as version {version}", good[3]);
                assert_eq!(decode_batch(&buf), None);
            }
        }
    }

    /// The decoder is total on damaged frames of every kind: each
    /// truncation and each single-byte XOR of a valid frame decodes to
    /// `None` or to some `Frame` — it never panics.
    #[test]
    fn every_truncation_and_single_byte_xor_of_every_kind_decodes_or_rejects() {
        for good in one_of_each_kind() {
            for keep in 0..good.len() {
                assert_eq!(decode_frame(&good[..keep]), None, "kind {} cut to {keep}", good[3]);
                assert_eq!(decode_batch(&good[..keep]), None);
            }
            for idx in 0..good.len() {
                for flip in 1..=u8::MAX {
                    let mut buf = good.clone();
                    buf[idx] ^= flip;
                    let _ = decode_frame(&buf);
                    let _ = decode_batch(&buf);
                }
            }
        }
    }

    #[test]
    fn digest_rejects_malformed() {
        let good = encode_digest(&digest_sample(2));
        assert!(decode_frame(&good).is_some());

        // Unknown header flag bits.
        let mut flags = good.clone();
        flags[48] |= 0b100;
        assert_eq!(decode_frame(&flags), None);

        // Unknown entry state bits.
        let mut state = good.clone();
        state[HEADER_LEN_DIGEST + DIGEST_ENTRY_LEN - 1] |= 0b1000;
        assert_eq!(decode_frame(&state), None);

        // Non-finite timestamp.
        let mut ts = good.clone();
        ts[28..36].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(decode_frame(&ts), None);

        // Summary inconsistency: suspected > peers.
        let mut sus = good.clone();
        sus[40..44].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&sus), None);

        // Count exceeding the buffer, and trailing garbage.
        let mut count = good.clone();
        count[49] = 255;
        assert_eq!(decode_frame(&count), None);
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(decode_frame(&trailing), None);
    }

    #[test]
    #[should_panic(expected = "digest summary counts")]
    fn encode_digest_rejects_inconsistent_summary() {
        let mut frame = digest_sample(1);
        frame.summary.suspected = frame.summary.peers + 1;
        encode_digest(&frame);
    }

    #[test]
    fn roundtrips_single_and_full_batches() {
        for n in [1, 2, 8, MAX_BATCH] {
            let entries = sample(n);
            let buf = encode_batch(&entries);
            assert_eq!(buf.len(), HEADER_LEN + n * ENTRY_LEN);
            assert_eq!(decode_batch(&buf).as_deref(), Some(&entries[..]));
        }
    }

    #[test]
    fn control_frames_roundtrip() {
        for n in [1, 5, MAX_CONTROL_BATCH] {
            let entries = control_sample(n);
            let buf = encode_control(&entries);
            assert_eq!(buf.len(), HEADER_LEN + n * CONTROL_ENTRY_LEN);
            assert_eq!(decode_frame(&buf), Some(Frame::Control(entries)));
        }
    }

    #[test]
    fn control_rejects_bad_eta() {
        let mut buf = encode_control(&control_sample(2));
        let base = HEADER_LEN + CONTROL_ENTRY_LEN + 8; // second entry's η
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut b = buf.clone();
            b[base..base + 8].copy_from_slice(&bad.to_le_bytes());
            assert_eq!(decode_frame(&b), None, "η = {bad} must be rejected");
        }
        // Unknown kind is rejected too.
        buf[3] = 7;
        assert_eq!(decode_frame(&buf), None);
    }

    #[test]
    #[should_panic(expected = "control η must be positive")]
    fn encode_control_rejects_bad_eta() {
        encode_control(&[ControlEntry { peer: 1, eta: 0.0 }]);
    }

    #[test]
    fn rejects_count_exceeding_buffer() {
        // The declared count must never exceed what the bytes can hold.
        for mut buf in [encode_batch(&sample(2)), encode_control(&control_sample(2))] {
            buf[HEADER_LEN - 1] = 255;
            assert_eq!(decode_frame(&buf), None);
        }
    }

    #[test]
    fn rejects_foreign_and_malformed_headers() {
        let good = encode_batch(&sample(3));
        assert!(decode_batch(&good).is_some());

        // The retired wire-v1 single-heartbeat magic must not decode as a batch.
        let mut other = good.clone();
        other[..2].copy_from_slice(b"\xFD\xB1");
        assert_eq!(decode_batch(&other), None);

        let mut zero = good.clone();
        zero[HEADER_LEN - 1] = 0;
        assert_eq!(decode_batch(&zero), None);

        let mut wrong_count = good.clone();
        wrong_count[HEADER_LEN - 1] = 4; // claims one more entry than present
        assert_eq!(decode_batch(&wrong_count), None);

        assert_eq!(decode_batch(&[]), None);
        assert_eq!(decode_batch(&good[..HEADER_LEN - 1]), None);
    }

    #[test]
    fn rejects_non_finite_timestamps() {
        let mut buf = encode_batch(&sample(2));
        let base = HEADER_LEN + ENTRY_LEN + 24; // second entry's send_time
        buf[base..base + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(decode_batch(&buf), None);
    }

    #[test]
    fn decode_into_appends_whole_datagrams_or_nothing() {
        let mut out = Vec::new();
        assert_eq!(decode_batch_into(&encode_batch(&sample(3)), &mut out), Some(3));
        assert_eq!(decode_batch_into(&encode_batch(&sample(2)), &mut out), Some(2));
        let held = out.clone();
        assert_eq!(held.len(), 5);
        // Bad only in its second entry: the first must not stay behind.
        let mut bad = encode_batch(&sample(2));
        let base = HEADER_LEN + ENTRY_LEN + 24;
        bad[base..base + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(decode_batch_into(&bad, &mut out), None);
        // A well-formed frame of another kind is not a heartbeat batch.
        let control = encode_control(&[ControlEntry { peer: 1, eta: 0.5 }]);
        assert_eq!(decode_batch_into(&control, &mut out), None);
        assert_eq!(out, held);
    }

    #[test]
    #[should_panic(expected = "batch must hold")]
    fn encode_rejects_empty() {
        encode_batch(&[]);
    }

    #[test]
    #[should_panic(expected = "batch must hold")]
    fn encode_rejects_oversize() {
        encode_batch(&sample(MAX_BATCH + 1));
    }

    fn repair_sample() -> RepairRequest {
        RepairRequest {
            requester: 7,
            target: 3,
            target_incarnation: 2,
            have_round: 41,
            at: 19.25,
        }
    }

    #[test]
    fn repair_roundtrips() {
        let req = repair_sample();
        let buf = encode_repair(&req);
        assert_eq!(buf.len(), REPAIR_FRAME_LEN);
        assert_eq!(buf[3], FRAME_KIND_REPAIR);
        assert_eq!(decode_frame(&buf), Some(Frame::Repair(req)));
        // Repair frames are control-plane traffic: a heartbeat receiver
        // rejects (and counts) them like any other foreign datagram.
        assert_eq!(decode_batch(&buf), None);
    }

    #[test]
    fn repair_rejects_padding_and_bad_timestamps() {
        let buf = encode_repair(&repair_sample());
        let mut padded = buf.clone();
        padded.push(0);
        assert_eq!(decode_frame(&padded), None);
        let mut nan_at = buf;
        nan_at[REPAIR_FRAME_LEN - 8..].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(decode_frame(&nan_at), None);
    }

    #[test]
    fn relay_roundtrips_with_bit_identical_inner_digest() {
        for n in [0, 3, MAX_DIGEST_BATCH] {
            let digest = digest_sample(n);
            let inner = encode_digest(&digest);
            let buf = encode_relay(9, 2, &inner);
            assert_eq!(buf.len(), RELAY_HEADER_LEN + inner.len());
            assert_eq!(buf[3], FRAME_KIND_RELAY);
            assert_eq!(&buf[RELAY_HEADER_LEN..], &inner[..]);
            match decode_frame(&buf) {
                Some(Frame::Relayed(r)) => {
                    assert_eq!(r.relayer, 9);
                    assert_eq!(r.hop, 2);
                    assert_eq!(r.digest, digest);
                }
                other => panic!("expected relayed digest, got {other:?}"),
            }
            assert_eq!(decode_batch(&buf), None);
        }
    }

    #[test]
    fn relay_rejects_zero_hop_and_non_digest_payload() {
        let inner = encode_digest(&digest_sample(2));
        let mut zero_hop = encode_relay(9, 1, &inner);
        zero_hop[RELAY_HEADER_LEN - 1] = 0;
        assert_eq!(decode_frame(&zero_hop), None);

        // A relayed relay must not decode: relaying is depth-1 on the
        // wire; forwarding re-wraps the original digest bytes instead.
        let relayed = encode_relay(9, 1, &inner);
        let mut nested = Vec::new();
        put_header(&mut nested, FRAME_KIND_RELAY);
        nested.extend_from_slice(&11u64.to_le_bytes());
        nested.push(2);
        nested.extend_from_slice(&relayed);
        assert_eq!(decode_frame(&nested), None);

        // Same for heartbeat and repair payloads behind a relay header.
        for payload in [encode_batch(&sample(2)), encode_repair(&repair_sample())] {
            let mut frame = Vec::new();
            put_header(&mut frame, FRAME_KIND_RELAY);
            frame.extend_from_slice(&11u64.to_le_bytes());
            frame.push(1);
            frame.extend_from_slice(&payload);
            assert_eq!(decode_frame(&frame), None);
        }
    }

    #[test]
    fn relay_rejects_padding() {
        let mut padded = encode_relay(4, 1, &encode_digest(&digest_sample(5)));
        padded.push(0);
        assert_eq!(decode_frame(&padded), None);
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn encode_relay_rejects_zero_hop() {
        encode_relay(1, 0, &encode_digest(&digest_sample(1)));
    }

    #[test]
    #[should_panic(expected = "well-formed digest frame")]
    fn encode_relay_rejects_non_digest_payload() {
        encode_relay(1, 1, &encode_batch(&sample(1)));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn prop_roundtrip(
                n in 1usize..MAX_BATCH,
                peer0 in 0u64..u64::MAX,
                inc0 in 0u64..u64::MAX,
                seq0 in 0u64..u64::MAX,
                ts in -1.0e12f64..1.0e12,
            ) {
                let entries: Vec<_> = (0..n)
                    .map(|k| HeartbeatEntry {
                        peer: peer0.wrapping_add(k as u64),
                        incarnation: inc0.wrapping_add(k as u64),
                        seq: seq0.wrapping_add(k as u64),
                        send_time: ts + k as f64,
                    })
                    .collect();
                let buf = encode_batch(&entries);
                prop_assert_eq!(buf.len(), HEADER_LEN + n * ENTRY_LEN);
                prop_assert_eq!(decode_batch(&buf), Some(entries));
            }

            #[test]
            fn prop_control_roundtrip(
                n in 1usize..MAX_CONTROL_BATCH,
                peer0 in 0u64..u64::MAX,
                eta0 in 1.0e-6f64..1.0e6,
            ) {
                let entries: Vec<_> = (0..n)
                    .map(|k| ControlEntry {
                        peer: peer0.wrapping_add(k as u64),
                        eta: eta0 + k as f64 * 1e-7,
                    })
                    .collect();
                let buf = encode_control(&entries);
                prop_assert_eq!(buf.len(), HEADER_LEN + n * CONTROL_ENTRY_LEN);
                prop_assert_eq!(decode_frame(&buf), Some(Frame::Control(entries)));
            }

            #[test]
            fn prop_digest_roundtrip(
                n in 0usize..MAX_DIGEST_BATCH,
                origin in 0u64..u64::MAX,
                node_inc in 0u64..u64::MAX,
                round in 0u64..u64::MAX,
                at in -1.0e12f64..1.0e12,
                peers in 0u32..u32::MAX / 2,
                full in proptest::bool::ANY,
                conformance_ok in proptest::bool::ANY,
            ) {
                let frame = DigestFrame {
                    origin,
                    node_incarnation: node_inc,
                    round,
                    at,
                    summary: DigestSummary {
                        peers,
                        suspected: peers / 3,
                        degraded: peers / 7,
                        conformance_ok,
                    },
                    full,
                    entries: (0..n)
                        .map(|k| DigestEntry {
                            peer: origin.wrapping_add(k as u64),
                            incarnation: node_inc.wrapping_add(k as u64),
                            trusted: k % 2 == 0,
                            degraded: k % 3 == 0,
                        })
                        .collect(),
                };
                let buf = encode_digest(&frame);
                prop_assert_eq!(buf.len(), HEADER_LEN_DIGEST + n * DIGEST_ENTRY_LEN);
                prop_assert_eq!(decode_frame(&buf), Some(Frame::Digest(frame)));
                // A heartbeat receiver rejects (and counts) gossip frames.
                prop_assert_eq!(decode_batch(&buf), None);
            }

            /// The hardening guarantee: the decoder is total. *Any* byte
            /// string — random, truncated, hostile — either decodes to a
            /// well-formed frame or returns `None`; it never panics and
            /// never indexes out of bounds.
            #[test]
            fn prop_decode_never_panics_on_arbitrary_bytes(
                raw in proptest::collection::vec(0u16..256, 0..2048),
            ) {
                let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
                let _ = decode_frame(&bytes);
                let _ = decode_batch(&bytes);
            }

            /// Same guarantee when the input *looks* legitimate: a valid
            /// frame of every kind, at every size, mutated *and*
            /// truncated at once, must decode or reject — never panic.
            #[test]
            fn prop_decode_never_panics_on_corrupted_frames(
                n in 1usize..8,
                idx in 0usize..260,
                flip in 0u16..256,
                keep in 0usize..300,
                which in 0usize..5,
            ) {
                let flip = flip as u8;
                let mut buf = match which {
                    0 => encode_batch(&sample(n)),
                    1 => encode_control(&control_sample(n)),
                    2 => encode_repair(&repair_sample()),
                    3 => encode_relay(7, 1, &encode_digest(&digest_sample(n))),
                    _ => encode_digest(&digest_sample(n)),
                };
                let idx = idx % buf.len();
                buf[idx] ^= flip;
                buf.truncate(keep.min(buf.len()));
                let _ = decode_frame(&buf);
                let _ = decode_batch(&buf);
            }

            #[test]
            fn prop_header_corruption_rejected(
                n in 1usize..MAX_BATCH,
                ts in -1.0e6f64..1.0e6,
                idx in 0usize..HEADER_LEN,
                flip in 1u8..255,
            ) {
                let entries: Vec<_> = (0..n)
                    .map(|k| HeartbeatEntry {
                        peer: k as u64,
                        incarnation: 1,
                        seq: k as u64 + 1,
                        send_time: ts,
                    })
                    .collect();
                let mut buf = encode_batch(&entries);
                buf[idx] ^= flip;
                // Any header flip changes magic, version, kind or count,
                // and a heartbeat receiver accepts exactly one value of
                // each for these bytes.
                prop_assert_eq!(decode_batch(&buf), None);
            }
        }
    }
}
