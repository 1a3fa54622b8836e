//! Raw `poll(2)` binding shared by the socket layer. The workspace builds
//! without libc, so the one call is declared here and used by both the
//! reactor's portable backend and the TCP receiver's listener probe.

use std::os::unix::io::RawFd;

/// Mirrors `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    pub(crate) fd: RawFd,
    pub(crate) events: i16,
    pub(crate) revents: i16,
}

pub(crate) const POLLIN: i16 = 0x001;
/// `poll(2)` reports error/hangup conditions regardless of `events`; the
/// one condition callers name explicitly is `POLLNVAL`, an fd that is not
/// open.
pub(crate) const POLLNVAL: i16 = 0x020;

#[cfg(target_os = "linux")]
pub(crate) type NFds = u64;
#[cfg(not(target_os = "linux"))]
pub(crate) type NFds = u32;

extern "C" {
    pub(crate) fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
}

/// Waits up to `timeout_ms` (0 = probe without blocking) for `fd` to turn
/// readable. Also true when the fd is in an error or hangup state, or when
/// the probe itself failed: the caller's real call then reports the cause.
pub(crate) fn readable(fd: RawFd, timeout_ms: i32) -> bool {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: `pfd` is one live, exclusively-borrowed `#[repr(C)]` struct
    // matching `struct pollfd`, `nfds` is 1, and the kernel writes only its
    // `revents` field, within the call.
    unsafe { poll(&mut pfd, 1, timeout_ms) != 0 }
}
