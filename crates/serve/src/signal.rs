//! The serve loop's two system calls, declared without a libc crate.
//!
//! std already links the platform C library, so `signal(2)`, `poll(2)`,
//! `struct pollfd` and the few constants they take can be declared
//! directly, with C integer types. Both declarations live here and
//! nowhere else.
//!
//! - **Termination latch.** The SIGTERM/SIGINT handler only stores into
//!   an atomic (async-signal-safe). The serve loop reads the flag before
//!   every accept wait and between requests, which is what makes
//!   `kill -TERM` a *clean* shutdown: the journal and obs stream are
//!   finished before exit.
//! - **Accept wait.** [`wait_readable`] blocks in one `poll(2)` over the
//!   listener fds until a connection is waiting, a signal arrives or a
//!   fixed bound passes. Linux never restarts an interrupted `poll`, not
//!   even under the `SA_RESTART` that glibc's `signal()` installs, so a
//!   signal wakes the loop at once; the bound covers a signal that lands
//!   between the flag check and the call.

use std::io;
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATE: AtomicBool = AtomicBool::new(false);

const SIGINT: c_int = 2;
const SIGTERM: c_int = 15;

/// `poll(2)` event bit: data (for a listener, a connection) to read.
const POLLIN: c_short = 0x001;

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn signal(signum: c_int, handler: usize) -> usize;
    // `nfds_t` is `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
}

extern "C" fn latch(_signum: c_int) {
    TERMINATE.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM/SIGINT latch. Idempotent.
pub fn install_termination_handler() {
    // SAFETY: `latch` has the `void (*)(int)` shape `signal` expects and
    // only stores into an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGTERM, latch as *const () as usize);
        signal(SIGINT, latch as *const () as usize);
    }
}

/// Whether a termination signal has arrived.
pub fn termination_requested() -> bool {
    TERMINATE.load(Ordering::SeqCst)
}

/// Blocks until one of `fds` is readable — for a listening socket, until
/// a connection waits to be accepted — or `bound_ms` milliseconds pass,
/// or a signal interrupts the wait. `true` when some fd is ready; a
/// timeout and an interruption both answer `false`.
///
/// # Errors
///
/// What `poll(2)` reports other than `EINTR`.
pub(crate) fn wait_readable(fds: &[RawFd], bound_ms: u16) -> io::Result<bool> {
    let mut set: Vec<PollFd> =
        fds.iter().map(|&fd| PollFd { fd, events: POLLIN, revents: 0 }).collect();
    // SAFETY: `set` is a live, exclusively borrowed array of exactly
    // `set.len()` `struct pollfd`s for the whole call.
    let ready = unsafe { poll(set.as_mut_ptr(), set.len() as c_ulong, c_int::from(bound_ms)) };
    if ready >= 0 {
        return Ok(ready > 0);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(false)
    } else {
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::{UnixListener, UnixStream};

    use super::wait_readable;

    /// Long enough that waiting it out would hang the test run, so a
    /// `true` answer can only come from the pending connection.
    const LONG_MS: u16 = 60_000;

    #[test]
    fn a_pending_tcp_connection_is_ready() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert!(wait_readable(&[listener.as_raw_fd()], LONG_MS).unwrap());
    }

    #[test]
    fn a_pending_uds_connection_is_ready() {
        let dir = std::env::temp_dir().join(format!("tacc-serve-poll-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wait.sock");
        std::fs::remove_file(&path).ok();
        let listener = UnixListener::bind(&path).unwrap();
        listener.set_nonblocking(true).unwrap();
        let _client = UnixStream::connect(&path).unwrap();
        assert!(wait_readable(&[listener.as_raw_fd()], LONG_MS).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_ready_listener_among_idle_ones_wakes_the_wait() {
        let idle = TcpListener::bind("127.0.0.1:0").unwrap();
        let busy = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(busy.local_addr().unwrap()).unwrap();
        assert!(wait_readable(&[idle.as_raw_fd(), busy.as_raw_fd()], LONG_MS).unwrap());
    }

    #[test]
    fn nothing_pending_is_not_ready_at_a_zero_bound() {
        let tcp = TcpListener::bind("127.0.0.1:0").unwrap();
        let dir = std::env::temp_dir().join(format!("tacc-serve-idle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("idle.sock");
        std::fs::remove_file(&path).ok();
        let uds = UnixListener::bind(&path).unwrap();
        assert!(!wait_readable(&[tcp.as_raw_fd(), uds.as_raw_fd()], 0).unwrap());
        assert!(!wait_readable(&[], 0).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
}
