//! # antlayer-reactor
//!
//! A minimal, zero-dependency readiness reactor over Linux `epoll`: the
//! event loop under every `antlayer serve` and `antlayer route`
//! process. One thread parked in `epoll_wait` owns every listener and
//! connection (line, HTTP and live sessions alike), woken only by the
//! sockets (or finished requests and solves) that have something to
//! say — a session tier holding tens of thousands of mostly-idle
//! subscriptions cannot spend a thread per socket.
//!
//! The crate deliberately stays tiny:
//!
//! * [`Poller`] — a level-triggered `epoll` instance:
//!   register/modify/deregister interest per file descriptor, each
//!   tagged with a caller-chosen `u64` token, and [`Poller::wait`] for
//!   readiness events.
//! * [`Waker`] — a self-pipe (a nonblocking `UnixStream` pair) whose
//!   read end is registered like any other fd; any thread calls
//!   [`Waker::wake`] to pop the reactor out of `epoll_wait`. This is
//!   how request and solve threads hand results back to the loop.
//!
//! This is the only crate in the workspace that speaks `unsafe`: the
//! four raw `epoll` syscalls, declared against the libc every Rust
//! binary already links. Everything above it (`antlayer-service`'s
//! front door included) keeps `#![forbid(unsafe_code)]`.
//!
//! Level-triggered on purpose: a readiness the handler does not fully
//! drain is simply reported again on the next wait, which makes the
//! per-connection state machines trivially restartable — the
//! partial-frame tests in `antlayer-service` lean on exactly that.

#![warn(missing_docs)]

use std::io;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

// The epoll ABI, declared by hand: the build environment has no
// registry access, and these four symbols are in the libc every Rust
// program on Linux links anyway. Constants match <sys/epoll.h>.
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;

/// The kernel's event record. Packed on x86-64 (the one architecture
/// where the kernel ABI differs from natural alignment).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const SOL_SOCKET: i32 = 1;
const SO_SNDBUF: i32 = 7;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
}

/// Caps a socket's kernel send buffer (`SO_SNDBUF`; the kernel doubles
/// the value for bookkeeping and clamps to its minimum). A reactor
/// holding tens of thousands of connections cannot afford each one
/// autotuning a multi-megabyte send buffer — and bounding the kernel's
/// share makes a userspace outbound-queue cap the *effective*
/// backpressure bound instead of a limit hidden behind megabytes of
/// kernel absorption.
pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    let val = bytes.min(i32::MAX as usize) as i32;
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_SNDBUF,
            &val,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Which readiness a registration asks for. Errors and full hangups are
/// always reported; they cannot be masked. A peer's half-close is
/// reported only with read interest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Report when the fd is readable.
    pub readable: bool,
    /// Report when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read readiness only — the steady state of an idle session
    /// connection.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write readiness only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both — a connection with queued outbound frames still wants
    /// incoming deltas.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// Peer half-close (`EPOLLRDHUP`) is asked for only with read
    /// interest: a connection that has stopped reading (it saw EOF, or
    /// is waiting on an answer) would otherwise be reported on every
    /// wait.
    fn mask(self) -> u32 {
        let mut m = 0;
        if self.readable {
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// The fd can take more bytes.
    pub writable: bool,
    /// The peer closed (or, under read interest, half-closed) or the
    /// fd errored (`EPOLLERR | EPOLLHUP | EPOLLRDHUP` folded into one
    /// flag). A half-closed peer may still be waiting for replies;
    /// reading tells the cases apart.
    pub hangup: bool,
}

/// A level-triggered `epoll` instance. Registrations are keyed by raw
/// fd; each carries a caller-chosen `u64` token that comes back in
/// every [`Event`]. The poller does not own the fds — callers keep
/// their sockets and must [`deregister`](Poller::deregister) (or just
/// close the socket; the kernel drops closed fds from the set) before
/// dropping them.
pub struct Poller {
    epfd: RawFd,
}

// The epoll fd is just an fd: waiting from one thread while another
// registers is exactly the kernel's supported use.
unsafe impl Send for Poller {}
unsafe impl Sync for Poller {}

impl Poller {
    /// Creates the epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Adds `fd` to the interest set under `token`.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest.mask(), token)
    }

    /// Changes the interest (and token) of an already-registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest.mask(), token)
    }

    /// Removes `fd` from the interest set. Removing an fd the kernel
    /// already dropped (because every duplicate was closed) reports
    /// `ENOENT`/`EBADF`; callers tearing a connection down may ignore
    /// the error.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until at least one registered fd is ready (or `timeout`
    /// elapses — `None` waits forever), appending reports to `events`
    /// (which is cleared first). Returns the number of events.
    /// `EINTR` is retried internally.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => {
                // Round up so a sub-millisecond timeout sleeps 1ms
                // instead of spinning at 0.
                let mut ms = d.as_millis();
                if Duration::from_millis(ms as u64) < d {
                    ms += 1;
                }
                ms.min(i32::MAX as u128) as i32
            }
        };
        let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
        let n = loop {
            let rc =
                unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &buf[..n] {
            let bits = ev.events;
            events.push(Event {
                token: ev.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            close(self.epfd);
        }
    }
}

/// Pops a [`Poller`] out of `epoll_wait` from any thread: a nonblocking
/// socket pair whose read end the reactor registers like any other fd.
/// [`wake`](Waker::wake) writes one byte; the reactor sees the read end
/// readable, [`drain`](Waker::drain)s it, and processes whatever the
/// waking thread queued. Multiple wakes before a drain coalesce — the
/// pipe carries "look now", not a message.
pub struct Waker {
    read: UnixStream,
    write: UnixStream,
}

impl Waker {
    /// Builds the pair; both ends nonblocking.
    pub fn new() -> io::Result<Waker> {
        let (read, write) = UnixStream::pair()?;
        read.set_nonblocking(true)?;
        write.set_nonblocking(true)?;
        Ok(Waker { read, write })
    }

    /// The fd to register with the reactor's poller (readable interest).
    pub fn fd(&self) -> RawFd {
        self.read.as_raw_fd()
    }

    /// Wakes the reactor. A full pipe means a wake is already pending,
    /// which is exactly as good — `WouldBlock` is success here.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.write).write(&[1u8]);
    }

    /// Consumes every pending wake byte. Call when the waker's token
    /// reports readable, before draining the completion queue.
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.read).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn readable_event_is_reported_and_levels_persist() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller
            .register(b.as_raw_fd(), 7, Interest::READABLE)
            .unwrap();

        // Nothing written yet: a zero-timeout wait reports nothing.
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        a.write_all(b"x").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("event for b");
        assert!(ev.readable);

        // Level-triggered: not draining the byte re-reports readiness.
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Draining clears it.
        let mut buf = [0u8; 8];
        let mut b_read = &b;
        let _ = b_read.read(&mut buf).unwrap();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));
    }

    #[test]
    fn hangup_is_reported_when_the_peer_closes() {
        let poller = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        poller
            .register(b.as_raw_fd(), 3, Interest::READABLE)
            .unwrap();
        drop(a);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 3).expect("event for b");
        assert!(ev.hangup);
    }

    #[test]
    fn modify_switches_interest_to_writable() {
        let poller = Poller::new().unwrap();
        let (_a, b) = UnixStream::pair().unwrap();
        poller
            .register(b.as_raw_fd(), 1, Interest::READABLE)
            .unwrap();
        // An idle socket with read interest: no events.
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty());
        // Switch to write interest: an empty send buffer is writable now.
        poller.modify(b.as_raw_fd(), 2, Interest::WRITABLE).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 2).expect("event for b");
        assert!(ev.writable);
        poller.deregister(b.as_raw_fd()).unwrap();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn waker_wakes_and_coalesces() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(waker.fd(), 99, Interest::READABLE).unwrap();

        // Several wakes before the wait: one readiness report.
        waker.wake();
        waker.wake();
        waker.wake();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 99 && e.readable));
        waker.drain();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty(), "drained waker is quiet");

        // A wake from another thread pops a blocking wait.
        let waker = std::sync::Arc::new(waker);
        let w = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w.wake();
        });
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 99));
        t.join().unwrap();
    }

    #[test]
    fn send_buffer_caps_loopback_absorption() {
        // A socket capped to 4 KiB must refuse far sooner than the
        // megabytes an autotuned loopback buffer absorbs: fill the pipe
        // against a non-reading peer and count what the kernel took.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let a = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_b, _) = listener.accept().unwrap();
        set_send_buffer(a.as_raw_fd(), 4096).unwrap();
        a.set_nonblocking(true).unwrap();
        let chunk = [0u8; 4096];
        let mut absorbed = 0usize;
        loop {
            match std::io::Write::write(&mut (&a), &chunk) {
                Ok(n) => absorbed += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("unexpected write error: {e}"),
            }
            assert!(absorbed < 64 << 20, "send buffer cap had no effect");
        }
        // Send-side share is ~2 * 4 KiB (the kernel doubles the request);
        // the peer's receive window rides on top. Anything under half a
        // megabyte proves the cap bit; uncapped loopback takes several MB.
        assert!(absorbed < 512 * 1024, "absorbed {absorbed} bytes");

        // An invalid fd reports the kernel's error instead of lying.
        assert!(set_send_buffer(-1, 4096).is_err());
    }
}
