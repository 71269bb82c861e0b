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
//! |      | 5      | 1    | shared-column mask `m`: bit `j` set if column `j` is shared |
//! |      | 6      | 2    | zero |
//! |      | 8 + 8·i | 8   | the value of the `i`-th shared column (`s` = popcount `m` words) |
//! |      | 8 + 8s + 8(4−s)·k | 8(4−s) | row `k`: the entry's unshared columns, in column order |
//! |      | len − 8 | 8   | check: `⊕ rotl(wᵢ, 8·(i mod 8))` over the frame's words before it |
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
//! A **heartbeat** entry has four columns, each a whole word: `0` `peer
//! u64`, `1` `incarnation u64`, `2` `seq u64`, `3` `send_time f64` (its
//! bits). A column that holds one value in every entry of the frame is
//! *shared*: it travels once, after the header, and the rows carry only
//! the other columns — a sender's round shares incarnation, seq and send
//! time, so its entries shrink from 32 bytes to 8. The encoder shares
//! every column it can; the round trip is bit-exact whatever the layout.
//! A frame never exceeds 1 472 bytes, the UDP payload of a 1500-byte
//! Ethernet MTU, so it is never fragmented: [`MAX_BATCH`] entries when
//! three columns are shared, 90 with two, 45 with none. The trailing
//! check folds every word `wᵢ` of the frame (the header is `w₀`),
//! rotated by eight bits per index modulo 8, so any damage confined to
//! one word — every single flipped bit among them — changes it. A
//! shared column puts every entry of the frame behind one word, and one
//! flipped bit there must not fence a whole frame's peers out of the
//! monitor.
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
//! A datagram that does not open with [`BATCH_MAGIC`] and
//! [`BATCH_WIRE_VERSION`] is foreign traffic and is rejected, never
//! misparsed. Decoding is strict *and total*: exact length for the declared count
//! and kind, the one known version, a known kind, at least one entry
//! (digests excepted), a matching heartbeat check, zero padding, finite
//! and positive-where-required values — a stray, truncated, or
//! corrupted packet, or one of any other version,
//! yields `None`, never a bogus entry and never a panic (every read
//! goes through a checked cursor or a length-checked slice).

use crate::PeerId;

/// Magic bytes opening every batch datagram.
pub const BATCH_MAGIC: [u8; 2] = [0xFD, 0xC1];

/// The wire format version: the only one written, the only one accepted.
pub const BATCH_WIRE_VERSION: u8 = 5;

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

/// Size of the control batch header: magic, version, kind, entry count.
const HEADER_LEN: usize = 5;

/// Size of the heartbeat header: magic, version, kind, entry count,
/// shared-column mask, two zero bytes — one whole word.
const HEARTBEAT_HEADER_LEN: usize = 8;

/// Size of the check closing a heartbeat frame.
const CHECK_LEN: usize = 8;

/// Columns of a heartbeat entry: peer, incarnation, seq, send time.
const COLUMNS: usize = 4;

/// The shared-column mask of a frame whose entries all hold one value.
const ALL_SHARED: u8 = (1 << COLUMNS) - 1;

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

/// Size of one encoded control entry: `peer + eta`.
const CONTROL_ENTRY_LEN: usize = 16;

/// Most heartbeat entries per datagram: 128 fill 1 064 bytes when
/// incarnation, seq and send time are shared, as in one sender's round.
/// Fewer fit when fewer columns are shared: a frame also holds at most
/// 1 472 bytes (see [`encode_batch_into`]).
pub const MAX_BATCH: usize = 128;

/// Most bytes in a heartbeat frame: the 1472-byte UDP payload of a
/// 1500-byte Ethernet MTU, so no frame is IP-fragmented.
pub(crate) const MAX_FRAME_LEN: usize = 1472;

// A sender's round fits MAX_BATCH to a frame, and a frame sharing
// nothing still holds 45 entries.
const _: () = assert!(heartbeat_frame_len(MAX_BATCH, 0b1110) <= MAX_FRAME_LEN);
const _: () = assert!(heartbeat_frame_len(45, 0) <= MAX_FRAME_LEN);

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

/// A heartbeat entry's four columns, in wire order.
fn columns(e: &HeartbeatEntry) -> [u64; COLUMNS] {
    [e.peer, e.incarnation, e.seq, e.send_time.to_bits()]
}

/// Bit `j` set where column `j` of `e` equals `first[j]`.
fn same_columns(first: &[u64; COLUMNS], e: &HeartbeatEntry) -> u8 {
    let c = columns(e);
    (0..COLUMNS).fold(0, |mask, j| mask | u8::from(c[j] == first[j]) << j)
}

/// Length of a heartbeat frame of `count` entries sharing the columns
/// of `mask`.
const fn heartbeat_frame_len(count: usize, mask: u8) -> usize {
    let shared = mask.count_ones() as usize;
    HEARTBEAT_HEADER_LEN + 8 * shared + 8 * (COLUMNS - shared) * count + CHECK_LEN
}

/// The longest prefix of `entries` one heartbeat frame holds: at most
/// `max_batch` (≤ [`MAX_BATCH`]) entries in at most [`MAX_FRAME_LEN`]
/// bytes. Each entry added can only unshare columns, so the frame only
/// grows, and the first entry that would overflow ends the prefix.
pub(crate) fn heartbeat_prefix(entries: &[HeartbeatEntry], max_batch: usize) -> usize {
    let Some(first) = entries.first() else { return 0 };
    let first = columns(first);
    let limit = entries.len().min(max_batch);
    let mut mask = ALL_SHARED;
    for (n, e) in entries[..limit].iter().enumerate().skip(1) {
        mask &= same_columns(&first, e);
        if heartbeat_frame_len(n + 1, mask) > MAX_FRAME_LEN {
            return n;
        }
    }
    limit
}

/// The little-endian word at the start of `bytes`.
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("an 8-byte range"))
}

/// Lanes of the heartbeat check: word `i` folds into lane `i mod 8`.
const CHECK_LANES: usize = 8;

/// The heartbeat check over whole words: `⊕ rotl(wᵢ, 8·(i mod 8))`.
/// Words eight apart share a rotation, so each lane XORs its words in
/// a register and is rotated once at the end. Rotation is a bijection,
/// so damage confined to one word — every single flipped bit — always
/// changes the check; two flipped bits cancel only if they land on the
/// same bit after rotation.
fn frame_check(bytes: &[u8]) -> u64 {
    let (blocks, tail) = bytes.as_chunks::<{ 8 * CHECK_LANES }>();
    let mut lanes = [0u64; CHECK_LANES];
    for block in blocks {
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane ^= word(&block[8 * k..]);
        }
    }
    for (lane, w) in lanes.iter_mut().zip(tail.chunks_exact(8)) {
        *lane ^= word(w);
    }
    lanes.iter().zip(0..).fold(0, |c, (lane, k)| c ^ lane.rotate_left(8 * k))
}

/// `$f::<mask>` for a runtime `mask` (≤ [`ALL_SHARED`]): one copy of a
/// row walk per shared-column layout, so each unrolls to straight-line
/// loads and stores.
macro_rules! by_mask {
    ($f:ident, $mask:expr) => {
        [
            $f::<0>,
            $f::<1>,
            $f::<2>,
            $f::<3>,
            $f::<4>,
            $f::<5>,
            $f::<6>,
            $f::<7>,
            $f::<8>,
            $f::<9>,
            $f::<10>,
            $f::<11>,
            $f::<12>,
            $f::<13>,
            $f::<14>,
            $f::<15>,
        ][usize::from($mask)]
    };
}

/// Appends the rows of `entries` — their columns not in `MASK` — to
/// `buf`.
fn rows_from<const MASK: u8>(entries: &[HeartbeatEntry], buf: &mut Vec<u8>) {
    for e in entries {
        for (j, value) in columns(e).iter().enumerate() {
            if MASK & 1 << j == 0 {
                buf.extend_from_slice(&value.to_le_bytes());
            }
        }
    }
}

/// Encodes a batch of heartbeat entries into one kind-0 datagram.
///
/// # Panics
///
/// Panics if `entries` is empty or longer than [`MAX_BATCH`], or if
/// the frame would exceed 1 472 bytes — callers chunk before encoding.
pub fn encode_batch(entries: &[HeartbeatEntry]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_batch_into(entries, &mut buf);
    buf
}

/// [`encode_batch`] into a caller-owned buffer (cleared first), so hot
/// flush loops reuse one allocation per frame slot instead of building
/// a fresh `Vec` per datagram.
///
/// # Panics
///
/// Same contract as [`encode_batch`]: at most [`MAX_BATCH`] entries and
/// at most 1 472 bytes, which 45 entries always meet and 128 meet when
/// they share incarnation, seq and send time.
pub fn encode_batch_into(entries: &[HeartbeatEntry], buf: &mut Vec<u8>) {
    assert!(
        !entries.is_empty() && entries.len() <= MAX_BATCH,
        "batch must hold 1..={MAX_BATCH} entries, got {}",
        entries.len()
    );
    let first = columns(&entries[0]);
    let mask = entries.iter().fold(ALL_SHARED, |m, e| m & same_columns(&first, e));
    let len = heartbeat_frame_len(entries.len(), mask);
    assert!(
        len <= MAX_FRAME_LEN,
        "batch of {} entries sharing columns {mask:#06b} is {len} bytes, over {MAX_FRAME_LEN}",
        entries.len()
    );
    buf.clear();
    buf.reserve(len);
    put_header(buf, FRAME_KIND_HEARTBEATS);
    buf.extend_from_slice(&[entries.len() as u8, mask, 0, 0]);
    for j in (0..COLUMNS).filter(|&j| mask & 1 << j != 0) {
        buf.extend_from_slice(&first[j].to_le_bytes());
    }
    by_mask!(rows_from, mask)(entries, buf);
    let check = frame_check(buf);
    buf.extend_from_slice(&check.to_le_bytes());
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
            heartbeat_entries_into(buf, &mut entries)?;
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

/// A heartbeat frame's entries (`buf` is the whole frame), appended to
/// `out`; `None`, with `out` as it was, if it is malformed.
fn heartbeat_entries_into(buf: &[u8], out: &mut Vec<HeartbeatEntry>) -> Option<usize> {
    let (&[.., count, mask, pad0, pad1], _) = buf.split_first_chunk::<HEARTBEAT_HEADER_LEN>()?;
    let count = count as usize;
    // Reject both a count that exceeds the buffer and trailing
    // garbage: the declared count and layout must match the bytes
    // exactly.
    if count == 0
        || count > MAX_BATCH
        || mask > ALL_SHARED
        || (pad0, pad1) != (0, 0)
        || buf.len() != heartbeat_frame_len(count, mask)
    {
        return None;
    }
    // The length check above makes the frame the header word, one word
    // per shared column, `count` whole rows and the check, so the rows
    // decode without a per-field bounds check.
    let (words, check) = buf.split_at(buf.len() - CHECK_LEN);
    if frame_check(words) != word(check) {
        return None;
    }
    let mut shared = [0u64; COLUMNS];
    let mut at = HEARTBEAT_HEADER_LEN;
    for (j, value) in shared.iter_mut().enumerate() {
        if mask & 1 << j != 0 {
            *value = word(&words[at..]);
            at += 8;
        }
    }
    let start = out.len();
    by_mask!(rows_into, mask)(shared, &words[at..], count, out);
    // No early exit: a non-finite timestamp is the rare case, and the
    // branch-free pass over the batch is the faster one.
    if !out[start..].iter().fold(true, |ok, e| ok & e.send_time.is_finite()) {
        out.truncate(start);
        return None;
    }
    Some(count)
}

/// Appends the `count` entries of `rows` — the unshared columns of a
/// frame whose shared-column mask is `MASK` — to `out`, the shared
/// columns taken from `shared`; `extend` reserves once for the lot.
fn rows_into<const MASK: u8>(
    shared: [u64; COLUMNS],
    rows: &[u8],
    count: usize,
    out: &mut Vec<HeartbeatEntry>,
) {
    let entry = |c: [u64; COLUMNS]| HeartbeatEntry {
        peer: c[0],
        incarnation: c[1],
        seq: c[2],
        send_time: f64::from_bits(c[3]),
    };
    if MASK == ALL_SHARED {
        out.extend(std::iter::repeat_n(entry(shared), count));
        return;
    }
    let width = 8 * (COLUMNS - MASK.count_ones() as usize);
    out.extend(rows.chunks_exact(width).map(|row| {
        let mut c = shared;
        let mut k = 0;
        for (j, value) in c.iter_mut().enumerate() {
            if MASK & 1 << j == 0 {
                *value = word(&row[k..]);
                k += 8;
            }
        }
        entry(c)
    }));
}

/// [`decode_batch`] appending to a caller-owned buffer — the form
/// [`ingest_frames`](crate::ingest_frames) decodes with: one reusable
/// `Vec` takes every datagram of a receive batch, so steady-state
/// decoding allocates nothing. Returns how many entries the datagram
/// added; a rejected datagram (malformed, or a valid frame of another
/// kind) adds none — `out` is left exactly as it was — and returns
/// `None`.
pub(crate) fn decode_batch_into(buf: &[u8], out: &mut Vec<HeartbeatEntry>) -> Option<usize> {
    match frame_kind(&mut Cursor::new(buf))? {
        FRAME_KIND_HEARTBEATS => heartbeat_entries_into(buf, out),
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

    /// `n` entries of one sender's round: every peer at one incarnation,
    /// seq and send time.
    fn round(n: usize) -> Vec<HeartbeatEntry> {
        (0..n as u64)
            .map(|peer| HeartbeatEntry { peer, incarnation: 2, seq: 9, send_time: 4.5 })
            .collect()
    }

    /// The frame's bytes as the module table spells them out, check
    /// included, written word by word without the encoder.
    fn spelled_out(entries: &[HeartbeatEntry], mask: u8) -> Vec<u8> {
        let cols = |e: &HeartbeatEntry| [e.peer, e.incarnation, e.seq, e.send_time.to_bits()];
        let shared = |j: usize| mask & 1 << j != 0;
        let mut words = vec![u64::from_le_bytes([
            0xFD,
            0xC1,
            BATCH_WIRE_VERSION,
            FRAME_KIND_HEARTBEATS,
            entries.len() as u8,
            mask,
            0,
            0,
        ])];
        words.extend((0..COLUMNS).filter(|&j| shared(j)).map(|j| cols(&entries[0])[j]));
        for e in entries {
            words.extend((0..COLUMNS).filter(|&j| !shared(j)).map(|j| cols(e)[j]));
        }
        let check = (0..).zip(&words).fold(0u64, |c, (i, w)| c ^ w.rotate_left(8 * (i % 8)));
        words.push(check);
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Three entries whose shared columns are exactly those of `mask`.
    fn layout(mask: u8) -> Vec<HeartbeatEntry> {
        (1..=3u64)
            .map(|k| {
                let vary = |j: usize| if mask & 1 << j == 0 { k } else { 0 };
                HeartbeatEntry {
                    peer: 40 + vary(0),
                    incarnation: (1 << 40) + vary(1),
                    seq: 900 + vary(2),
                    send_time: 12.5 + 0.25 * vary(3) as f64,
                }
            })
            .collect()
    }

    /// Golden frames of all 16 shared-column layouts, of a one-entry
    /// frame and of the two full ones: the encoder writes exactly the
    /// table's bytes, they round-trip bit for bit, and every truncation
    /// and every single flipped bit decodes to `None` — a flip in a
    /// shared column, which every entry of the frame reads, included.
    #[test]
    fn golden_frames_of_every_layout_reject_every_truncation_and_bit_flip() {
        assert_eq!(encode_batch(&round(MAX_BATCH)).len(), 1_064);
        assert_eq!(encode_batch(&sample(45)).len(), 1_456);
        let layouts = (0..=ALL_SHARED).map(|mask| (layout(mask), mask));
        let full = [(round(1), ALL_SHARED), (round(MAX_BATCH), 0b1110), (sample(45), 0)];
        for (entries, mask) in layouts.chain(full) {
            let good = encode_batch(&entries);
            assert_eq!(good, spelled_out(&entries, mask), "layout {mask:#06b}");
            assert_eq!(decode_frame(&good), Some(Frame::Heartbeats(entries.clone())));
            for keep in 0..good.len() {
                assert_eq!(decode_batch(&good[..keep]), None, "layout {mask:#06b} cut to {keep}");
                assert_eq!(decode_frame(&good[..keep]), None);
            }
            for bit in 0..8 * good.len() {
                let mut buf = good.clone();
                buf[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(decode_batch(&buf), None, "layout {mask:#06b}, bit {bit} flipped");
                assert_eq!(decode_frame(&buf), None);
            }
        }
    }

    #[test]
    fn the_longest_prefix_that_fits_is_cut() {
        // Nothing shared: 45 entries in 1 456 bytes, the 46th overflows.
        assert_eq!(heartbeat_prefix(&sample(100), MAX_BATCH), 45);
        // A round: MAX_BATCH entries, or fewer if the caller caps lower.
        assert_eq!(heartbeat_prefix(&round(300), MAX_BATCH), MAX_BATCH);
        assert_eq!(heartbeat_prefix(&round(300), 8), 8);
        assert_eq!(heartbeat_prefix(&round(5), MAX_BATCH), 5);
        assert_eq!(heartbeat_prefix(&[], MAX_BATCH), 0);
        // A round whose seq turns over at entry 100: the 101st entry
        // would unshare seq and double every row past the byte bound.
        let mut turning = round(MAX_BATCH);
        turning[100..].iter_mut().for_each(|e| e.seq += 1);
        assert_eq!(heartbeat_prefix(&turning, MAX_BATCH), 100);
        // At entry 60 the frame still fits 90 two-word rows.
        let mut turning = round(MAX_BATCH);
        turning[60..].iter_mut().for_each(|e| e.seq += 1);
        assert_eq!(heartbeat_prefix(&turning, MAX_BATCH), 90);
        for entries in [sample(100), round(300), turning] {
            let n = heartbeat_prefix(&entries, MAX_BATCH);
            assert!(encode_batch(&entries[..n]).len() <= MAX_FRAME_LEN);
        }
    }

    #[test]
    #[should_panic(expected = "over 1472")]
    fn encode_rejects_a_frame_over_the_byte_bound() {
        encode_batch(&sample(46));
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

    /// Offset of the entry count in heartbeat and control frames.
    const COUNT_AT: usize = 4;

    #[test]
    fn rejects_count_exceeding_buffer() {
        // The declared count must never exceed what the bytes can hold.
        for mut buf in [encode_batch(&sample(2)), encode_control(&control_sample(2))] {
            buf[COUNT_AT] = 255;
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
        zero[COUNT_AT] = 0;
        assert_eq!(decode_batch(&zero), None);

        let mut wrong_count = good.clone();
        wrong_count[COUNT_AT] = 4; // claims one more entry than present
        assert_eq!(decode_batch(&wrong_count), None);

        assert_eq!(decode_batch(&[]), None);
        assert_eq!(decode_batch(&good[..COUNT_AT]), None);
    }

    /// `sample(n)` whose entry `k` is sent at `t` — a frame the encoder
    /// writes and checks like any other, but no receiver may take.
    fn sent_at(n: usize, k: usize, t: f64) -> Vec<u8> {
        let mut entries = sample(n);
        entries[k].send_time = t;
        encode_batch(&entries)
    }

    #[test]
    fn rejects_non_finite_timestamps() {
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // In a row, and in the shared column.
            assert_eq!(decode_batch(&sent_at(2, 1, t)), None);
            assert_eq!(decode_batch(&sent_at(1, 0, t)), None);
        }
    }

    #[test]
    fn decode_into_appends_whole_datagrams_or_nothing() {
        let mut out = Vec::new();
        assert_eq!(decode_batch_into(&encode_batch(&sample(3)), &mut out), Some(3));
        assert_eq!(decode_batch_into(&encode_batch(&sample(2)), &mut out), Some(2));
        let held = out.clone();
        assert_eq!(held.len(), 5);
        // Bad only in its second entry: the first must not stay behind.
        assert_eq!(decode_batch_into(&sent_at(2, 1, f64::NAN), &mut out), None);
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

            /// Any layout, any values, as many entries as fit: the
            /// round trip is bit-exact and the frame as long as the
            /// layout says.
            #[test]
            fn prop_roundtrip(
                n in 1usize..=MAX_BATCH,
                mask in 0u8..=ALL_SHARED,
                peer0 in 0u64..u64::MAX,
                inc0 in 0u64..u64::MAX,
                seq0 in 0u64..u64::MAX,
                ts in -1.0e12f64..1.0e12,
            ) {
                let vary = |j: usize, k: usize| if mask & 1 << j == 0 { k as u64 } else { 0 };
                let entries: Vec<_> = (0..n)
                    .map(|k| HeartbeatEntry {
                        peer: peer0.wrapping_add(vary(0, k)),
                        incarnation: inc0.wrapping_add(vary(1, k)),
                        seq: seq0.wrapping_add(vary(2, k)),
                        send_time: ts + vary(3, k) as f64,
                    })
                    .collect();
                let entries = &entries[..heartbeat_prefix(&entries, MAX_BATCH)];
                let mask = if entries.len() == 1 { ALL_SHARED } else { mask };
                let buf = encode_batch(entries);
                prop_assert_eq!(buf.len(), heartbeat_frame_len(entries.len(), mask));
                prop_assert!(buf.len() <= MAX_FRAME_LEN);
                prop_assert_eq!(decode_batch(&buf), Some(entries.to_vec()));
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
            /// frame of every kind but heartbeats (whose every truncation
            /// and bit flip the golden-frame test rejects), at every
            /// size, mutated *and* truncated at once, must decode or
            /// reject — never panic.
            #[test]
            fn prop_decode_never_panics_on_corrupted_frames(
                n in 1usize..8,
                idx in 0usize..260,
                flip in 0u16..256,
                keep in 0usize..300,
                which in 0usize..4,
            ) {
                let flip = flip as u8;
                let mut buf = match which {
                    0 => encode_control(&control_sample(n)),
                    1 => encode_repair(&repair_sample()),
                    2 => encode_relay(7, 1, &encode_digest(&digest_sample(n))),
                    _ => encode_digest(&digest_sample(n)),
                };
                let idx = idx % buf.len();
                buf[idx] ^= flip;
                buf.truncate(keep.min(buf.len()));
                let _ = decode_frame(&buf);
                let _ = decode_batch(&buf);
            }
        }
    }
}
