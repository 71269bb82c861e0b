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
//! | capability            | linux              | elsewhere                 |
//! |-----------------------|--------------------|---------------------------|
//! | batched receive       | `recvmmsg`         | one `recv_from` per call  |
//! | batched send          | `sendmmsg`         | one `send` per frame      |
//! | socket sharding       | `SO_REUSEPORT` (v4)| single socket, one pump   |
//! | receive buffer sizing | `SO_RCVBUF`        | kernel default            |
//!
//! Every fallback sits behind [`BatchReceiver`]/[`BatchSender`], so the
//! pump and flush loops are identical on both paths — the fallback just
//! fills one arena slot (or sends one frame) per syscall.

use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::time::Duration;

/// Bytes reserved per arena frame — above the largest frame of any kind
/// (a heartbeat frame is at most 1 472 bytes, a relayed digest 1 474), so no
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
/// `recvmmsg`/`sendmmsg` calls themselves. Invariants: every pointer
/// handed to the kernel derives from storage owned by the calling
/// struct or the passed-in arena, both alive and exclusively borrowed
/// across the call; lengths are the allocation sizes.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod linux {
    use super::{FrameArena, SendOutcome, BatchReceiver, BatchSender, FRAME_LEN};
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
    /// per `MAX_SEND_VLEN` frames.
    pub(super) struct MmsgSender {
        socket: UdpSocket,
        iovs: Vec<IoVec>,
        hdrs: Vec<MMsgHdr>,
    }

    // SAFETY: as for `MmsgReceiver` — the scratch pointers are rebuilt
    // from the borrowed `frames` on every call and never outlive it.
    unsafe impl Send for MmsgSender {}

    impl MmsgSender {
        pub fn new(socket: UdpSocket) -> Self {
            Self { socket, iovs: Vec::new(), hdrs: Vec::new() }
        }
    }

    impl BatchSender for MmsgSender {
        fn send_frames(&mut self, frames: &[Vec<u8>]) -> SendOutcome {
            let mut sent = 0;
            while sent < frames.len() {
                let window = &frames[sent..(sent + MAX_SEND_VLEN).min(frames.len())];
                self.iovs.clear();
                self.hdrs.clear();
                for frame in window {
                    self.iovs.push(IoVec {
                        // The kernel never writes through a send iovec;
                        // the cast is the C ABI's lack of const.
                        base: frame.as_ptr().cast_mut().cast::<c_void>(),
                        len: frame.len(),
                    });
                }
                for i in 0..window.len() {
                    self.hdrs.push(MMsgHdr {
                        hdr: MsgHdr {
                            name: ptr::null_mut(), // connected socket
                            namelen: 0,
                            iov: ptr::addr_of_mut!(self.iovs[i]),
                            iovlen: 1,
                            control: ptr::null_mut(),
                            controllen: 0,
                            flags: 0,
                        },
                        len: 0,
                    });
                }
                // SAFETY: iovecs point at the borrowed `frames` (alive
                // across the call), headers at `self` storage; `vlen`
                // matches the header count.
                let got = unsafe {
                    sendmmsg(
                        self.socket.as_raw_fd(),
                        self.hdrs.as_mut_ptr(),
                        window.len() as c_uint,
                        0,
                    )
                };
                if got < 0 {
                    return SendOutcome { sent, error: Some(io::Error::last_os_error()) };
                }
                sent += got as usize;
                if (got as usize) < window.len() {
                    // Kernel accepted a prefix and reported no error
                    // (errno belongs to the *next* call); the caller
                    // keeps the tail queued.
                    return SendOutcome { sent, error: None };
                }
            }
            SendOutcome { sent, error: None }
        }
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
        let val = bytes.min(c_int::MAX as usize) as c_int;
        // SAFETY: optval points at a live c_int of the declared length.
        let rc = unsafe {
            setsockopt(
                socket.as_raw_fd(),
                SOL_SOCKET,
                SO_RCVBUF,
                ptr::addr_of!(val).cast::<c_void>(),
                mem::size_of::<c_int>() as c_uint,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
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
