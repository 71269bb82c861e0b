//! Batched datagram plane: `recvmmsg`/`sendmmsg` over preallocated
//! frame arenas, with a portable single-syscall fallback behind the
//! same traits.
//!
//! The cluster transport's hot loop is syscall-bound long before it is
//! CPU-bound: at 100k peers a heartbeat round is ~2 200 datagrams, and
//! one `recv_from` per datagram means 2 200 kernel crossings per round
//! each way. Linux batches both directions — `recvmmsg(2)` delivers up
//! to an arena's worth of datagrams per crossing, `sendmmsg(2)` ships a
//! whole flush in one — so this module wraps the two syscalls directly
//! (the workspace deliberately has no `libc` dependency; the handful of
//! ABI structs for `x86_64-unknown-linux-gnu` are declared here, in the
//! one module allowed to contain `unsafe`).
//!
//! Layering (rvoip's packet-plane/session-plane split): this module
//! knows only frames, sockets and syscalls; [`net`](crate::net) owns
//! decoding, supervision and shedding; the registry owns peer state.
//!
//! # Fallback matrix
//!
//! | capability            | linux                    | elsewhere / refused       |
//! |-----------------------|--------------------------|---------------------------|
//! | batched receive       | `recvmmsg`               | one `recv_from` per call  |
//! | batched send          | `sendmmsg`               | one `send` per frame      |
//! | segmentation offload  | `UDP_SEGMENT` per run    | one datagram per message  |
//! | socket sharding       | `SO_REUSEPORT` (v4)      | single socket, one pump   |
//! | receive buffer sizing | `SO_RCVBUF`              | kernel default            |
//!
//! Every fallback sits behind [`BatchReceiver`]/[`BatchSender`], so the
//! pump and flush loops are identical on both paths — the fallback just
//! fills one arena slot (or sends one frame) per syscall.
//!
//! Segmentation offload (UDP GSO) is what makes a batched send cheaper
//! than its frames sent one by one: `sendmmsg` saves only the syscall
//! entry, while every datagram still crosses the whole IP stack alone.
//! The Linux sender therefore packs each *run* of equal-length frames
//! (the last may be shorter; at most 64 frames and 65 507 bytes) into
//! one message with a `UDP_SEGMENT` control message: the run crosses
//! the stack once and is cut back into the same datagrams — at the
//! device, or at a receiving socket that has not enabled `UDP_GRO`,
//! which no socket of this crate does. Receivers see exactly the datagrams a per-frame send would
//! produce. A kernel that refuses the option (`EINVAL`, `EIO`,
//! `EMSGSIZE`, `ENOPROTOOPT`, `EOPNOTSUPP` on a segmented message)
//! turns the sender to one message per frame for good, resending from
//! the first unsent frame, so no frame is lost or sent twice.

use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::time::Duration;

/// Bytes reserved per arena frame — above the largest frame of any kind
/// (1 472 bytes, [`MAX_FRAME_LEN`](crate::wire::MAX_FRAME_LEN)), so no
/// datagram a sender of this crate writes is ever cut short.
const FRAME_LEN: usize = 2048;

const _: () = assert!(crate::wire::MAX_FRAME_LEN <= FRAME_LEN);

/// Preallocated storage for one batch of received datagrams: frame
/// payloads, their lengths, and their source addresses. One arena per
/// pump thread; the receive path performs no allocation after
/// construction.
pub struct FrameArena {
    bufs: Vec<u8>,
    lens: Vec<usize>,
    srcs: Vec<SocketAddr>,
    batch: usize,
}

impl std::fmt::Debug for FrameArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameArena").field("batch", &self.batch).finish()
    }
}

impl FrameArena {
    /// Allocates an arena holding up to `batch` frames (clamped to at
    /// least 1).
    pub fn new(batch: usize) -> Self {
        let batch = batch.max(1);
        Self {
            bufs: vec![0u8; batch * FRAME_LEN],
            lens: vec![0; batch],
            srcs: vec![SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0)); batch],
            batch,
        }
    }

    /// Maximum frames per receive call.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The `i`-th received frame's payload (valid for `i` below the last
    /// `recv_batch` return value).
    pub fn frame(&self, i: usize) -> &[u8] {
        let start = i * FRAME_LEN;
        &self.bufs[start..start + self.lens[i]]
    }

    /// The `i`-th received frame's source address.
    pub fn source(&self, i: usize) -> SocketAddr {
        self.srcs[i]
    }

    /// Mutable access to the `i`-th frame slot (full `FRAME_LEN` bytes),
    /// for receivers filling the arena.
    fn slot_mut(&mut self, i: usize) -> &mut [u8] {
        let start = i * FRAME_LEN;
        &mut self.bufs[start..start + FRAME_LEN]
    }

    /// Records the metadata of a frame a receiver just wrote into slot
    /// `i`.
    fn commit(&mut self, i: usize, len: usize, src: SocketAddr) {
        self.lens[i] = len.min(FRAME_LEN);
        self.srcs[i] = src;
    }

    /// Places `frame` in slot `i` as if received from `src` — for
    /// scripted receivers in tests.
    #[cfg(test)]
    pub(crate) fn fill(&mut self, i: usize, frame: &[u8], src: SocketAddr) {
        self.slot_mut(i)[..frame.len()].copy_from_slice(frame);
        self.commit(i, frame.len(), src);
    }
}

/// Outcome of a batched send: how many frames the kernel accepted, and
/// the error (if any) that stopped the rest. `sent` frames left the
/// socket even when `error` is set — callers use it to retain exactly
/// the unsent tail.
#[derive(Debug)]
pub struct SendOutcome {
    /// Frames fully handed to the kernel, in order from the front of the
    /// slice.
    pub sent: usize,
    /// The error that stopped the batch, if it did not complete.
    pub error: Option<io::Error>,
}

/// Most frames in one segmented message (the kernel's `UDP_MAX_SEGMENTS`
/// is 64 on older kernels).
#[cfg(any(test, target_os = "linux"))]
const GSO_MAX_SEGMENTS: usize = 64;

/// Most bytes in one segmented message: the largest UDP payload over
/// IPv4.
#[cfg(any(test, target_os = "linux"))]
const GSO_MAX_BYTES: usize = 65_507;

/// How many frames from the front of `frames` one segmented message
/// carries: a run of frames as long as the first, then at most one
/// shorter but non-empty frame, within [`GSO_MAX_SEGMENTS`] and
/// [`GSO_MAX_BYTES`]. The kernel cuts such a message back into exactly
/// these datagrams. An empty first frame, or one too large to share a
/// message, is a run of its own. `frames` must not be empty.
#[cfg(any(test, target_os = "linux"))]
fn gso_run(frames: &[Vec<u8>]) -> usize {
    let seg = frames[0].len();
    if seg == 0 {
        return 1;
    }
    let (mut run, mut bytes) = (1, seg);
    for frame in &frames[1..] {
        let len = frame.len();
        if run == GSO_MAX_SEGMENTS || len == 0 || len > seg || bytes + len > GSO_MAX_BYTES {
            break;
        }
        run += 1;
        bytes += len;
        if len < seg {
            break;
        }
    }
    run
}

/// Receives up to an arena of datagrams per call. Implementations: the
/// Linux `recvmmsg` plane and the portable one-datagram fallback.
pub trait BatchReceiver: Send {
    /// Fills `arena` with received datagrams; returns how many slots
    /// were filled. Blocking honors the socket's read timeout
    /// (`WouldBlock`/`TimedOut` on expiry).
    fn recv_batch(&mut self, arena: &mut FrameArena) -> io::Result<usize>;
}

/// Sends a slice of encoded frames on a *connected* socket.
/// Implementations: the Linux `sendmmsg` plane, the portable per-frame
/// fallback, and fault-injection wrappers.
pub trait BatchSender: Send {
    /// Sends `frames` in order; see [`SendOutcome`] for partial-send
    /// semantics.
    fn send_frames(&mut self, frames: &[Vec<u8>]) -> SendOutcome;
}

impl BatchSender for Box<dyn BatchSender> {
    fn send_frames(&mut self, frames: &[Vec<u8>]) -> SendOutcome {
        (**self).send_frames(frames)
    }
}

/// Portable fallback receiver: one `recv_from` per call, filling arena
/// slot 0. Same observable behavior as the batched plane with batch 1.
pub struct SingleReceiver {
    socket: UdpSocket,
}

impl SingleReceiver {
    /// Wraps a bound socket.
    pub fn new(socket: UdpSocket) -> Self {
        Self { socket }
    }
}

impl BatchReceiver for SingleReceiver {
    fn recv_batch(&mut self, arena: &mut FrameArena) -> io::Result<usize> {
        let (n, src) = self.socket.recv_from(arena.slot_mut(0))?;
        arena.commit(0, n, src);
        Ok(1)
    }
}

/// Portable fallback sender: one `send` syscall per frame on a
/// connected socket.
#[cfg(any(test, not(target_os = "linux")))]
struct SingleSender {
    socket: UdpSocket,
}

#[cfg(any(test, not(target_os = "linux")))]
impl SingleSender {
    /// Wraps a connected socket.
    fn new(socket: UdpSocket) -> Self {
        Self { socket }
    }
}

#[cfg(any(test, not(target_os = "linux")))]
impl BatchSender for SingleSender {
    fn send_frames(&mut self, frames: &[Vec<u8>]) -> SendOutcome {
        let mut sent = 0;
        for frame in frames {
            match self.socket.send(frame) {
                Ok(_) => sent += 1,
                Err(e) => return SendOutcome { sent, error: Some(e) },
            }
        }
        SendOutcome { sent, error: None }
    }
}

/// Deterministic fault injection for send paths: passes frames through
/// to the wrapped sender until armed, then stops the batch after the
/// armed number of frames and reports a broken-pipe error — exactly the
/// shape of a mid-flush socket failure, without depending on ICMP
/// timing from a real disconnected socket.
#[cfg(test)]
pub(crate) struct FlakySender<S> {
    inner: S,
    trigger: std::sync::Arc<FlakyTrigger>,
}

/// Shared arming handle for a [`FlakySender`] (the sender itself is
/// usually boxed away inside a transport by the time a test wants to
/// trip it).
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct FlakyTrigger {
    /// Frames to let through before failing; `u64::MAX` means disarmed.
    fail_after: std::sync::atomic::AtomicU64,
}

#[cfg(test)]
impl FlakyTrigger {
    /// A disarmed trigger.
    pub fn new() -> std::sync::Arc<Self> {
        std::sync::Arc::new(Self { fail_after: std::sync::atomic::AtomicU64::new(u64::MAX) })
    }

    /// Arms the next `send_frames` call to fail after letting `after`
    /// frames through (one-shot; the trigger disarms when it fires).
    pub fn arm(&self, after: usize) {
        self.fail_after.store(after as u64, std::sync::atomic::Ordering::SeqCst);
    }

    fn take(&self) -> Option<usize> {
        let v = self.fail_after.swap(u64::MAX, std::sync::atomic::Ordering::SeqCst);
        (v != u64::MAX).then_some(v as usize)
    }
}

#[cfg(test)]
impl<S> FlakySender<S> {
    /// Wraps `inner`, controlled by `trigger`.
    pub fn new(inner: S, trigger: std::sync::Arc<FlakyTrigger>) -> Self {
        Self { inner, trigger }
    }
}

#[cfg(test)]
impl<S: BatchSender> BatchSender for FlakySender<S> {
    fn send_frames(&mut self, frames: &[Vec<u8>]) -> SendOutcome {
        match self.trigger.take() {
            Some(after) if after < frames.len() => {
                let mut out = self.inner.send_frames(&frames[..after]);
                if out.error.is_none() {
                    out.error =
                        Some(io::Error::new(io::ErrorKind::BrokenPipe, "injected send failure"));
                }
                out
            }
            _ => self.inner.send_frames(frames),
        }
    }
}

/// The batched receiver for this platform: `recvmmsg` on Linux, the
/// single-syscall fallback elsewhere. `batch` caps frames per syscall.
pub fn batch_receiver(socket: UdpSocket, batch: usize) -> Box<dyn BatchReceiver> {
    #[cfg(target_os = "linux")]
    {
        Box::new(linux::MmsgReceiver::new(socket, batch))
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = batch;
        Box::new(SingleReceiver::new(socket))
    }
}

/// The batched sender for this platform: `sendmmsg` on Linux, the
/// per-frame fallback elsewhere. The socket must be connected.
pub fn batch_sender(socket: UdpSocket) -> Box<dyn BatchSender> {
    #[cfg(target_os = "linux")]
    {
        Box::new(linux::MmsgSender::new(socket))
    }
    #[cfg(not(target_os = "linux"))]
    {
        Box::new(SingleSender::new(socket))
    }
}

/// Binds `count` UDP sockets to the same IPv4 address with
/// `SO_REUSEPORT`, so the kernel shards inbound flows across them —
/// one socket per pump thread, no userspace demux. The first socket
/// resolves an ephemeral port (`:0`) and the rest join it.
///
/// # Errors
///
/// `Unsupported` off Linux or for non-IPv4 addresses (callers fall back
/// to a single socket); otherwise the underlying socket error.
pub fn bind_reuseport(addr: SocketAddr, count: usize) -> io::Result<Vec<UdpSocket>> {
    let SocketAddr::V4(v4) = addr else {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SO_REUSEPORT sharding supports IPv4 only",
        ));
    };
    let mut sockets = Vec::with_capacity(count.max(1));
    let mut port = v4.port();
    for _ in 0..count.max(1) {
        let socket = linux_reuseport_socket(*v4.ip(), port)?;
        if port == 0 {
            port = socket.local_addr()?.port();
        }
        sockets.push(socket);
    }
    Ok(sockets)
}

#[cfg(target_os = "linux")]
fn linux_reuseport_socket(ip: Ipv4Addr, port: u16) -> io::Result<UdpSocket> {
    linux::reuseport_socket(ip, port)
}

#[cfg(not(target_os = "linux"))]
fn linux_reuseport_socket(_ip: Ipv4Addr, _port: u16) -> io::Result<UdpSocket> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "SO_REUSEPORT sharding requires Linux"))
}

/// Requests a kernel receive buffer of `bytes` for `socket` (Linux
/// `SO_RCVBUF`; the kernel doubles and clamps to `rmem_max`). A no-op
/// `Ok` elsewhere — buffer sizing is an optimization, not a contract.
pub fn set_recv_buffer(socket: &UdpSocket, bytes: usize) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        linux::set_recv_buffer(socket, bytes)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (socket, bytes);
        Ok(())
    }
}

/// Applies the standard pump read timeout so blocked receivers poll
/// their stop flag (see `net`).
pub fn set_poll_timeout(socket: &UdpSocket, timeout: Duration) -> io::Result<()> {
    socket.set_read_timeout(Some(timeout))
}

/// The Linux syscall plane. The only `unsafe` in the crate lives here:
/// hand-declared `x86_64-unknown-linux-gnu` ABI structs (the workspace
/// carries no `libc`), raw `socket`/`bind`/`setsockopt` for
/// `SO_REUSEPORT` (std cannot set options before binding), and the
/// `recvmmsg`/`sendmmsg` calls themselves with their `UDP_SEGMENT`
/// control messages. Invariants: every pointer handed to the kernel
/// derives from storage owned by the calling struct, the passed-in
/// arena or the borrowed frames, all alive and exclusively borrowed
/// across the call; lengths are the allocation sizes.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod linux {
    use super::{gso_run, BatchReceiver, BatchSender, FrameArena, SendOutcome, FRAME_LEN};
    use std::io;
    use std::mem;
    use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
    use std::os::raw::{c_int, c_uint, c_void};
    use std::os::unix::io::{AsRawFd, FromRawFd};
    use std::ptr;

    const AF_INET: c_int = 2;
    const SOCK_DGRAM: c_int = 2;
    const SOCK_CLOEXEC: c_int = 0x80000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEPORT: c_int = 15;
    const SO_RCVBUF: c_int = 8;
    /// Return from `recvmmsg` as soon as at least one datagram arrived.
    const MSG_WAITFORONE: c_int = 0x10000;
    /// `sendmmsg` vlen cap per call (kernel clamps at `UIO_MAXIOV`).
    const MAX_SEND_VLEN: usize = 1024;
    #[cfg(test)]
    const SO_NO_CHECK: c_int = 11;
    const SOL_UDP: c_int = 17;
    const UDP_SEGMENT: c_int = 103;
    const EIO: i32 = 5;
    const EINVAL: i32 = 22;
    const EMSGSIZE: i32 = 90;
    const ENOPROTOOPT: i32 = 92;
    const EOPNOTSUPP: i32 = 95;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct IoVec {
        base: *mut c_void,
        len: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MsgHdr {
        name: *mut c_void,
        namelen: c_uint,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut c_void,
        controllen: usize,
        flags: c_int,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: c_uint,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockAddrIn {
        family: u16,
        /// Big-endian.
        port: u16,
        /// Big-endian.
        addr: u32,
        zero: [u8; 8],
    }

    /// A `UDP_SEGMENT` control message: `struct cmsghdr` and the
    /// segment size, padded to `CMSG_SPACE(sizeof(u16))`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct GsoCmsg {
        len: usize,
        level: c_int,
        ty: c_int,
        segment: u16,
        pad: [u8; 6],
    }

    /// `CMSG_LEN(sizeof(u16))`, the one length the kernel accepts.
    const GSO_CMSG_LEN: usize = mem::size_of::<usize>() + 2 * mem::size_of::<c_int>() + 2;

    const _: () = assert!(mem::size_of::<GsoCmsg>() == 24 && GSO_CMSG_LEN == 18);

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn bind(fd: c_int, addr: *const SockAddrIn, len: c_uint) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            val: *const c_void,
            len: c_uint,
        ) -> c_int;
        fn recvmmsg(
            fd: c_int,
            vec: *mut MMsgHdr,
            vlen: c_uint,
            flags: c_int,
            // `struct timespec*`; always null here — the parameter is
            // checked only between datagrams, so SO_RCVTIMEO on the
            // socket is the reliable timeout.
            timeout: *mut c_void,
        ) -> c_int;
        fn sendmmsg(fd: c_int, vec: *mut MMsgHdr, vlen: c_uint, flags: c_int) -> c_int;
    }

    const EMPTY_ADDR: SockAddrIn = SockAddrIn { family: 0, port: 0, addr: 0, zero: [0; 8] };

    fn decode_addr(raw: &SockAddrIn) -> SocketAddr {
        if c_int::from(raw.family) == AF_INET {
            SocketAddr::V4(SocketAddrV4::new(
                Ipv4Addr::from(u32::from_be(raw.addr)),
                u16::from_be(raw.port),
            ))
        } else {
            SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0))
        }
    }

    /// `recvmmsg` receiver: one kernel crossing delivers up to the
    /// arena's batch. Scratch header/iovec arrays are reused across
    /// calls (their kernel-facing pointers are rebuilt each call — they
    /// point into the passed arena, which changes between calls).
    pub(super) struct MmsgReceiver {
        socket: UdpSocket,
        iovs: Vec<IoVec>,
        hdrs: Vec<MMsgHdr>,
        addrs: Vec<SockAddrIn>,
        batch: usize,
        /// Arena base the current `hdrs`/`iovs` point into. When the
        /// caller passes the same arena again (the steady state of a
        /// pump loop), the headers are still valid — only the fields
        /// the kernel writes back need resetting, so the per-call
        /// rebuild is skipped.
        cached_base: *mut u8,
        cached_want: usize,
    }

    // SAFETY: the raw pointers in the scratch `iovs`/`hdrs` are dead
    // between calls — every `recv_batch` clears and rebuilds them to
    // point into buffers the *current* call exclusively borrows (the
    // arena and `self.addrs`). Nothing dereferences them across a move
    // to another thread.
    unsafe impl Send for MmsgReceiver {}

    impl MmsgReceiver {
        pub fn new(socket: UdpSocket, batch: usize) -> Self {
            let batch = batch.max(1);
            Self {
                socket,
                iovs: Vec::with_capacity(batch),
                hdrs: Vec::with_capacity(batch),
                addrs: vec![EMPTY_ADDR; batch],
                batch,
                cached_base: ptr::null_mut(),
                cached_want: 0,
            }
        }
    }

    impl BatchReceiver for MmsgReceiver {
        fn recv_batch(&mut self, arena: &mut FrameArena) -> io::Result<usize> {
            let want = self.batch.min(arena.batch());
            let base = arena.bufs.as_mut_ptr();
            if base == self.cached_base && want == self.cached_want {
                // Same arena, same span: the headers still point at the
                // right slots. Reset only what the last syscall wrote
                // back (address length and per-message byte count).
                for h in &mut self.hdrs {
                    h.hdr.namelen = mem::size_of::<SockAddrIn>() as c_uint;
                    h.len = 0;
                }
            } else {
                // `addrs` was allocated with capacity `batch >= want`, so
                // this resize never reallocates — the `name` pointers
                // below stay valid across calls.
                self.addrs.resize(want, EMPTY_ADDR);
                self.iovs.clear();
                self.hdrs.clear();
                for i in 0..want {
                    // SAFETY: `bufs` holds `arena.batch() * FRAME_LEN` bytes
                    // and `i < want <= arena.batch()`, so the offset and the
                    // FRAME_LEN span stay in bounds.
                    let slot = unsafe { base.add(i * FRAME_LEN) };
                    self.iovs.push(IoVec { base: slot.cast::<c_void>(), len: FRAME_LEN });
                }
                for i in 0..want {
                    self.hdrs.push(MMsgHdr {
                        hdr: MsgHdr {
                            name: ptr::addr_of_mut!(self.addrs[i]).cast::<c_void>(),
                            namelen: mem::size_of::<SockAddrIn>() as c_uint,
                            iov: ptr::addr_of_mut!(self.iovs[i]),
                            iovlen: 1,
                            control: ptr::null_mut(),
                            controllen: 0,
                            flags: 0,
                        },
                        len: 0,
                    });
                }
                self.cached_base = base;
                self.cached_want = want;
            }
            // SAFETY: every header points at live, exclusively borrowed
            // storage (arena slots, `self.addrs`, `self.iovs`) sized as
            // declared; `vlen` matches the header count.
            let got = unsafe {
                recvmmsg(
                    self.socket.as_raw_fd(),
                    self.hdrs.as_mut_ptr(),
                    want as c_uint,
                    MSG_WAITFORONE,
                    ptr::null_mut(),
                )
            };
            if got < 0 {
                return Err(io::Error::last_os_error());
            }
            let got = got as usize;
            for i in 0..got {
                arena.commit(i, self.hdrs[i].len as usize, decode_addr(&self.addrs[i]));
            }
            Ok(got)
        }
    }

    /// `sendmmsg` sender over a connected socket: one kernel crossing
    /// per `MAX_SEND_VLEN` messages, each message a run of frames sent
    /// with `UDP_SEGMENT` (see the module docs), or one frame once the
    /// kernel has refused segmentation.
    pub(super) struct MmsgSender {
        socket: UdpSocket,
        iovs: Vec<IoVec>,
        hdrs: Vec<MMsgHdr>,
        /// One control message per message of the current window, used
        /// by the messages that carry a run of more than one frame.
        cmsgs: Vec<GsoCmsg>,
        /// Frames each message of the current window carries.
        runs: Vec<usize>,
        /// Runs go out segmented; cleared for good the first time the
        /// kernel refuses a segmented message.
        gso: bool,
    }

    // SAFETY: as for `MmsgReceiver` — the scratch pointers are rebuilt
    // from the borrowed `frames` on every call and never outlive it.
    unsafe impl Send for MmsgSender {}

    impl MmsgSender {
        pub fn new(socket: UdpSocket) -> Self {
            Self {
                socket,
                iovs: Vec::new(),
                hdrs: Vec::new(),
                cmsgs: Vec::new(),
                runs: Vec::new(),
                gso: true,
            }
        }

        /// Lays out the messages for the front of `frames` (at most
        /// `MAX_SEND_VLEN` of them) in the scratch arrays, each array
        /// complete before the headers point into it. Returns the
        /// message count.
        fn lay_out(&mut self, frames: &[Vec<u8>]) -> usize {
            self.runs.clear();
            self.cmsgs.clear();
            let mut covered = 0;
            while covered < frames.len() && self.runs.len() < MAX_SEND_VLEN {
                let rest = &frames[covered..];
                let run = if self.gso { gso_run(rest) } else { 1 };
                self.runs.push(run);
                // A segment of a run of two or more is at most half of
                // `GSO_MAX_BYTES`, so it fits the option's `u16`.
                self.cmsgs.push(GsoCmsg {
                    len: GSO_CMSG_LEN,
                    level: SOL_UDP,
                    ty: UDP_SEGMENT,
                    segment: rest[0].len() as u16,
                    pad: [0; 6],
                });
                covered += run;
            }
            self.iovs.clear();
            for frame in &frames[..covered] {
                self.iovs.push(IoVec {
                    // The kernel never writes through a send iovec; the
                    // cast is the C ABI's lack of const.
                    base: frame.as_ptr().cast_mut().cast::<c_void>(),
                    len: frame.len(),
                });
            }
            self.hdrs.clear();
            let mut first = 0;
            for (m, &run) in self.runs.iter().enumerate() {
                let (control, controllen) = if run > 1 {
                    (ptr::addr_of_mut!(self.cmsgs[m]).cast::<c_void>(), mem::size_of::<GsoCmsg>())
                } else {
                    (ptr::null_mut(), 0)
                };
                self.hdrs.push(MMsgHdr {
                    hdr: MsgHdr {
                        name: ptr::null_mut(), // connected socket
                        namelen: 0,
                        iov: ptr::addr_of_mut!(self.iovs[first]),
                        iovlen: run,
                        control,
                        controllen,
                        flags: 0,
                    },
                    len: 0,
                });
                first += run;
            }
            self.runs.len()
        }

        /// Sends one frame per message from now on, as after a refusal.
        #[cfg(test)]
        pub(super) fn without_gso(mut self) -> Self {
            self.gso = false;
            self
        }

        /// Whether runs still go out segmented.
        #[cfg(test)]
        pub(super) fn gso(&self) -> bool {
            self.gso
        }
    }

    /// Whether `e`, returned for a segmented message, is the kernel
    /// refusing segmentation rather than the socket failing.
    fn refuses_gso(e: &io::Error) -> bool {
        matches!(e.raw_os_error(), Some(EIO | EINVAL | EMSGSIZE | ENOPROTOOPT | EOPNOTSUPP))
    }

    impl BatchSender for MmsgSender {
        fn send_frames(&mut self, frames: &[Vec<u8>]) -> SendOutcome {
            let mut sent = 0;
            while sent < frames.len() {
                let msgs = self.lay_out(&frames[sent..]);
                // SAFETY: iovecs point at the borrowed `frames` (alive
                // across the call), headers and control messages at
                // `self` storage not touched until the call returns;
                // `vlen` matches the header count.
                let got = unsafe {
                    sendmmsg(self.socket.as_raw_fd(), self.hdrs.as_mut_ptr(), msgs as c_uint, 0)
                };
                if got < 0 {
                    let e = io::Error::last_os_error();
                    if self.runs[0] > 1 && refuses_gso(&e) {
                        // Nothing of this call left: resend from the
                        // first unsent frame, one per message.
                        self.gso = false;
                        continue;
                    }
                    return SendOutcome { sent, error: Some(e) };
                }
                let got = got as usize;
                sent += self.runs[..got].iter().sum::<usize>();
                if got == 0 {
                    // Only an empty vector sends nothing without an
                    // error; never spin on it.
                    break;
                }
                // Below `msgs`, the kernel stopped at a failing message
                // and dropped its error; the next call meets it again —
                // and reports it, or turns a refusal into the fallback.
            }
            SendOutcome { sent, error: None }
        }
    }

    /// Sets an `int`-valued socket option.
    fn set_int_option(socket: &UdpSocket, level: c_int, name: c_int, val: c_int) -> io::Result<()> {
        // SAFETY: optval points at a live c_int of the declared length.
        let rc = unsafe {
            setsockopt(
                socket.as_raw_fd(),
                level,
                name,
                ptr::addr_of!(val).cast::<c_void>(),
                mem::size_of::<c_int>() as c_uint,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Turns off the UDP checksum on `socket`'s sends (`SO_NO_CHECK`),
    /// which makes the kernel refuse segmented sends with `EINVAL` while
    /// it still accepts plain ones: a real refusal, for the fallback's
    /// tests.
    #[cfg(test)]
    pub(super) fn refuse_gso(socket: &UdpSocket) -> io::Result<()> {
        set_int_option(socket, SOL_SOCKET, SO_NO_CHECK, 1)
    }

    pub(super) fn reuseport_socket(ip: Ipv4Addr, port: u16) -> io::Result<UdpSocket> {
        // SAFETY: plain syscall; the fd is checked before use.
        let fd = unsafe { socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let close_on_err = |e: io::Error| {
            // SAFETY: fd is open and owned by this function until
            // `from_raw_fd` below takes it.
            unsafe { close(fd) };
            e
        };
        let one: c_int = 1;
        // SAFETY: optval points at a live c_int of the declared length.
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                SO_REUSEPORT,
                ptr::addr_of!(one).cast::<c_void>(),
                mem::size_of::<c_int>() as c_uint,
            )
        };
        if rc != 0 {
            return Err(close_on_err(io::Error::last_os_error()));
        }
        let addr = SockAddrIn {
            family: AF_INET as u16,
            port: port.to_be(),
            addr: u32::from(ip).to_be(),
            zero: [0; 8],
        };
        // SAFETY: addr is a live, correctly sized sockaddr_in.
        let rc = unsafe { bind(fd, ptr::addr_of!(addr), mem::size_of::<SockAddrIn>() as c_uint) };
        if rc != 0 {
            return Err(close_on_err(io::Error::last_os_error()));
        }
        // SAFETY: fd is an open, bound UDP socket this function owns;
        // ownership transfers to the UdpSocket.
        Ok(unsafe { UdpSocket::from_raw_fd(fd) })
    }

    pub fn set_recv_buffer(socket: &UdpSocket, bytes: usize) -> io::Result<()> {
        set_int_option(socket, SOL_SOCKET, SO_RCVBUF, bytes.min(c_int::MAX as usize) as c_int)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn pair() -> (UdpSocket, UdpSocket, SocketAddr) {
        let rx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = rx.local_addr().unwrap();
        let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        tx.connect(addr).unwrap();
        (tx, rx, addr)
    }

    #[test]
    fn fallback_plane_round_trips_one_frame_per_call() {
        let (tx, rx, _) = pair();
        let mut sender = SingleSender::new(tx);
        let mut receiver = SingleReceiver::new(rx);
        let frames: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 16 + i as usize]).collect();
        let out = sender.send_frames(&frames);
        assert_eq!(out.sent, 4);
        assert!(out.error.is_none());
        let mut arena = FrameArena::new(8);
        let mut got = Vec::new();
        while got.len() < 4 {
            let n = receiver.recv_batch(&mut arena).unwrap();
            for i in 0..n {
                got.push(arena.frame(i).to_vec());
            }
        }
        assert_eq!(got, frames);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mmsg_plane_round_trips_batches_with_sources() {
        let (tx, rx, _) = pair();
        let tx_addr = tx.local_addr().unwrap();
        let mut sender = batch_sender(tx);
        rx.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
        let mut receiver = batch_receiver(rx, 16);
        let frames: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i ^ 0x5A; 32 + i as usize]).collect();
        let out = sender.send_frames(&frames);
        assert_eq!(out.sent, 10);
        assert!(out.error.is_none());
        let mut arena = FrameArena::new(16);
        let mut got = Vec::new();
        while got.len() < 10 {
            let n = receiver.recv_batch(&mut arena).unwrap();
            assert!(n >= 1);
            for i in 0..n {
                assert_eq!(arena.source(i), tx_addr, "recvmmsg captures the source");
                got.push(arena.frame(i).to_vec());
            }
        }
        assert_eq!(got, frames);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reuseport_sockets_share_one_port() {
        let sockets =
            bind_reuseport(SocketAddr::from((Ipv4Addr::LOCALHOST, 0)), 4).expect("reuseport");
        assert_eq!(sockets.len(), 4);
        let port = sockets[0].local_addr().unwrap().port();
        assert!(port != 0);
        for s in &sockets {
            assert_eq!(s.local_addr().unwrap().port(), port);
        }
        // The shared port is reachable (whichever socket the kernel
        // picks for this flow).
        for s in &sockets {
            s.set_read_timeout(Some(Duration::from_millis(300))).unwrap();
        }
        let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        tx.send_to(b"ping", (Ipv4Addr::LOCALHOST, port)).unwrap();
        let mut buf = [0u8; 8];
        let delivered = sockets.iter().any(|s| matches!(s.recv_from(&mut buf), Ok((4, _))));
        assert!(delivered, "one reuseport socket received the datagram");
    }

    /// Frame `i` of `len` bytes: its index, then its index's low byte.
    fn numbered(i: usize, len: usize) -> Vec<u8> {
        let mut frame = vec![i as u8; len];
        frame[..2].copy_from_slice(&(i as u16).to_le_bytes());
        frame
    }

    /// Frames `from..` with the given lengths, numbered in order.
    fn frames_of(from: usize, lens: &[usize]) -> Vec<Vec<u8>> {
        lens.iter().enumerate().map(|(i, &len)| numbered(from + i, len)).collect()
    }

    #[test]
    fn gso_runs_split_at_a_length_change_a_shorter_tail_and_the_caps() {
        let runs = |lens: &[usize]| {
            let frames: Vec<Vec<u8>> = lens.iter().map(|&len| vec![0; len]).collect();
            let mut runs = Vec::new();
            let mut rest = &frames[..];
            while !rest.is_empty() {
                let run = gso_run(rest);
                runs.push(run);
                rest = &rest[run..];
            }
            runs
        };
        // Equal frames share a run; a shorter one ends it; a longer one
        // starts the next.
        assert_eq!(runs(&[300, 300, 300, 250, 250, 400]), [4, 1, 1]);
        assert_eq!(runs(&[200, 300, 300]), [1, 2]);
        assert_eq!(runs(&[1_000]), [1]);
        // At most 64 frames, and at most 65 507 bytes, to a run.
        assert_eq!(runs(&[100; 150]), [64, 64, 22]);
        assert_eq!(runs(&[1_200; 60]), [54, 6]);
        assert_eq!(runs(&[32_753, 32_753, 1]), [3]);
        assert_eq!(runs(&[32_753, 32_753, 2]), [2, 1]);
        // An empty frame would vanish inside a run: it goes alone.
        assert_eq!(runs(&[0, 0, 5]), [1, 1, 1]);
        assert_eq!(runs(&[5, 5, 0, 5]), [2, 1, 1]);
        // A frame too large to share a message.
        assert_eq!(runs(&[40_000, 40_000]), [1, 1]);
    }

    /// A receiver on `rx` with a roomy buffer, so a test's burst is not
    /// dropped before it is read.
    #[cfg(target_os = "linux")]
    fn roomy(rx: UdpSocket) -> Box<dyn BatchReceiver> {
        set_recv_buffer(&rx, 4 << 20).unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        batch_receiver(rx, 64)
    }

    /// Sends `frames` in one call and then an end marker; asserts that
    /// the call counted every frame and that exactly `frames`, in order
    /// and byte-equal, arrived ahead of the marker.
    #[cfg(target_os = "linux")]
    fn assert_delivered(
        sender: &mut dyn BatchSender,
        receiver: &mut dyn BatchReceiver,
        frames: &[Vec<u8>],
    ) {
        let out = sender.send_frames(frames);
        assert!(out.error.is_none(), "{:?}", out.error);
        assert_eq!(out.sent, frames.len(), "`sent` counts frames");
        let end = b"end".to_vec();
        assert_eq!(sender.send_frames(std::slice::from_ref(&end)).sent, 1);
        let mut arena = FrameArena::new(64);
        let mut got = Vec::new();
        'recv: loop {
            let n = receiver.recv_batch(&mut arena).expect("every frame arrives");
            for i in 0..n {
                if arena.frame(i) == end {
                    assert_eq!(i + 1, n, "nothing follows the end marker");
                    break 'recv;
                }
                got.push(arena.frame(i).to_vec());
            }
        }
        assert_eq!(got.len(), frames.len());
        assert!(got == frames, "frames arrive once each, in order, byte-equal");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn segmented_sends_deliver_each_frame_once_in_order() {
        let (tx, rx, _) = pair();
        let mut sender = linux::MmsgSender::new(tx);
        let mut receiver = roomy(rx);
        // A length change in mid-flush (runs of 300 with a shorter tail,
        // then 200), a run of more than 64 frames, a run over 65 507
        // bytes, and a lone frame.
        let mixed = [[300; 5].as_slice(), &[250], &[200; 7], &[120]].concat();
        for lens in [mixed, vec![100; 80], vec![1_200; 60], vec![1_000]] {
            assert_delivered(&mut sender, receiver.as_mut(), &frames_of(0, &lens));
        }
        assert!(sender.gso(), "this kernel segments");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_refused_segmented_send_falls_back_for_good_without_loss() {
        let (tx, rx, _) = pair();
        linux::refuse_gso(&tx).unwrap();
        let mut sender = linux::MmsgSender::new(tx);
        let mut receiver = roomy(rx);
        // A lone frame, then a run: the kernel takes the first message,
        // refuses the second, and the sender resends from there one frame
        // per message.
        let lens = [[200].as_slice(), &[300; 5], &[250]].concat();
        assert_delivered(&mut sender, receiver.as_mut(), &frames_of(0, &lens));
        assert!(!sender.gso(), "the refusal turns segmentation off");
        // Later sends skip segmentation from the start.
        assert_delivered(&mut sender, receiver.as_mut(), &frames_of(7, &[100; 70]));
        assert!(!sender.gso());
    }

    /// What a send costs on loopback, toward a socket that never reads
    /// (once its buffer is full the kernel drops at that socket, for
    /// every row alike): `ClusterSender` per heartbeat, batched as
    /// `flood_ingest` sends (2 048 entries a flush, 16 frames of 1 064 B)
    /// and one heartbeat a datagram as `steady_detect` sends, then
    /// `send_frames` per frame for one such flush, segmented and one
    /// frame per message.
    ///
    /// `cargo test --release -q -p fd-cluster --lib send_costs -- --ignored --nocapture`
    #[cfg(target_os = "linux")]
    #[test]
    #[ignore = "timing probe: run it in release"]
    fn send_costs() {
        use crate::net::{ClusterSender, ClusterSenderConfig};
        use std::time::Instant;
        const BLOCK: u64 = 2_048;
        const PEERS: u64 = 512;
        const BLOCKS: u64 = 400;
        const REPS: usize = 5;
        /// Best of [`REPS`] timed repetitions of `BLOCKS` calls of `f`,
        /// after one untimed one, in ns per `per_call` items.
        fn best(per_call: u64, mut f: impl FnMut(u64)) -> f64 {
            let mut run = |rep: u64| {
                let t = Instant::now();
                for b in 0..BLOCKS {
                    f(rep * BLOCKS + b);
                }
                t.elapsed().as_nanos() as f64 / (BLOCKS * per_call) as f64
            };
            run(0);
            (1..=REPS as u64).map(run).fold(f64::INFINITY, f64::min)
        }
        let sink = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let to = sink.local_addr().unwrap();
        let sender = |max_batch| {
            ClusterSender::connect(to, ClusterSenderConfig { max_batch, ..Default::default() })
                .unwrap()
        };

        let mut batched = sender(128);
        let ns = best(BLOCK, |b| {
            for i in 0..BLOCK {
                let hb = b * BLOCK + i;
                batched.queue(hb % PEERS, hb / PEERS + 1, b as f64).unwrap();
            }
            batched.flush().unwrap();
        });
        println!("send_costs: ClusterSender max_batch 128, queue x2048 + flush  {ns:7.1} ns/hb");
        let mut single = sender(1);
        let ns = best(1, |b| single.queue(b % PEERS, b / PEERS + 1, b as f64).unwrap());
        println!("send_costs: ClusterSender max_batch   1, queue                {ns:7.1} ns/hb");

        let frames = vec![vec![0x5A; 1_064]; 16];
        for (label, gso) in [("segmented", true), ("one per message", false)] {
            let (tx, _rx, _) = pair();
            let mut plane = linux::MmsgSender::new(tx);
            if !gso {
                plane = plane.without_gso();
            }
            let ns = best(16, |_| assert_eq!(plane.send_frames(&frames).sent, 16));
            println!("send_costs: send_frames 16 x 1 064 B, {label:15}     {ns:7.1} ns/frame");
        }
        drop(sink);
    }

    #[test]
    fn flaky_sender_fails_after_armed_count_once() {
        let (tx, rx, _) = pair();
        let trigger = FlakyTrigger::new();
        let mut sender = FlakySender::new(SingleSender::new(tx), std::sync::Arc::clone(&trigger));
        let frames: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 8]).collect();
        trigger.arm(1);
        let out = sender.send_frames(&frames);
        assert_eq!(out.sent, 1);
        assert!(out.error.is_some());
        // Disarmed after firing: the retry goes through whole.
        let out = sender.send_frames(&frames[1..]);
        assert_eq!(out.sent, 2);
        assert!(out.error.is_none());
        drop(rx);
    }
}
