//! The socket reactor: ONE thread watching every registered fd.
//!
//! The first readiness adaptation for socket transports —
//! [`crate::ready::ReadyPumpReceiver`] — spends a pump thread per
//! receiver (and `rudp` a second one per *connection*), which is
//! O(sockets) threads: exactly what does not scale to the many-link
//! deployments the paper targets. This module replaces all of them with
//! a single `nexus-reactor` thread that multiplexes every registered
//! socket through `poll(2)`-style readiness over the raw fds (no
//! dependencies — the FFI calls are hand-declared) and rings the
//! engine's existing doorbells:
//!
//! * a **pausing** registration ([`ReactorReceiver`]) models a receive
//!   source: when any of its fds turns readable the reactor rings the
//!   doorbell once and stops watching the fds until the engine (or a
//!   shard worker) has drained the receiver empty, which re-arms the
//!   registration with a fresh fd set — level-triggered polling without
//!   a busy loop, and connection churn picked up at each re-arm;
//! * a **periodic** registration (the `rudp` sender pump) fires its
//!   callback when its fd turns readable *or* its period elapses, and
//!   keeps being watched — the callback drains the socket itself.
//!
//! Why one thread suffices: the reactor never reads payload and never
//! runs handlers; it translates kernel readiness into doorbell rings
//! (sub-microsecond) and 2 ms retransmit ticks. Thousands of sockets
//! produce one wait call per wakeup batch, and the actual drain
//! work happens on the engine or shard-worker threads that the rings
//! wake. The reactor's state lock is never held across the blocking
//! wait: the loop snapshots the fd set under the lock, releases it,
//! blocks, then reacquires it to mark what fired.
//!
//! ## Readiness backends
//!
//! On Linux (build-time `have_epoll` probe, see `build.rs`) the wait is
//! an **epoll** instance: the kernel holds the interest set across
//! rounds, the reactor diffs its fd snapshot against a mirror of that
//! set (add/remove only what changed), and `epoll_wait` returns just
//! the ready fds — O(ready) per wakeup instead of `poll(2)`'s
//! O(watched) copy-in/scan/copy-out. Everywhere else — and on Linux if
//! `epoll_create1` fails at startup — the portable `poll(2)` backend
//! rebuilds its fd array each round exactly as before. Both backends
//! sit behind the same three-line interface, so the registration
//! semantics (pausing, periodic ticks, invalid-fd pruning) are
//! identical.

use nexus_rt::error::Result;
use nexus_rt::module::CommReceiver;
use nexus_rt::poll::ReadySignal;
use nexus_rt::rsr::Rsr;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::net::UdpSocket;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

// The loop fires a registration on *any* nonzero `revents` — a broken fd
// must still ring its doorbell so the owner's next drain surfaces the
// error. The one condition handled explicitly is `POLLNVAL`: an invalid fd
// must be dropped from the watch set or the reactor would spin on an
// instantly-returning `poll`.
use crate::sys::{poll, NFds, PollFd, POLLIN, POLLNVAL};

// -- epoll FFI (Linux, behind the build-time probe) --------------------------

#[cfg(have_epoll)]
mod epoll_ffi {
    use super::RawFd;

    /// Mirrors `struct epoll_event`. The kernel ABI packs it on x86-64
    /// (12 bytes) and aligns it naturally everywhere else.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        /// We store the watched fd here; ownership is resolved through
        /// the userspace interest mirror.
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: RawFd, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

// -- readiness backends ------------------------------------------------------

/// One entry of a round's watch snapshot: an fd, the registration that
/// owns it, and the registration's fd-set generation (bumped on every
/// `resume`, so a backend can tell a re-used fd *number* from the same
/// open socket).
struct Watch {
    fd: RawFd,
    owner: u64,
    gen: u64,
}

/// One readiness report from a backend: which fd fired, for whom, and
/// whether the fd turned out to be invalid (closed behind our back) and
/// must be pruned from its registration.
struct Fired {
    fd: RawFd,
    owner: u64,
    invalid: bool,
}

/// The portable backend: rebuild a `pollfd` array every round and hand
/// the whole watch set to `poll(2)`. O(watched) per wakeup.
struct PollBackend {
    wake_fd: RawFd,
    // Reused across rounds: a steady-state round performs no allocation
    // (pushes into retained capacity).
    pollfds: Vec<PollFd>,
    owners: Vec<u64>,
}

impl PollBackend {
    fn new(wake_fd: RawFd) -> PollBackend {
        PollBackend {
            wake_fd,
            pollfds: Vec::with_capacity(64),
            owners: Vec::with_capacity(64),
        }
    }

    /// Blocks until readiness or `timeout_ms`. Appends one [`Fired`] per
    /// ready fd and returns whether the wake socket itself was readable.
    fn wait_ready(&mut self, watches: &[Watch], timeout_ms: i32, fired: &mut Vec<Fired>) -> bool {
        self.pollfds.clear();
        self.owners.clear();
        self.pollfds.push(PollFd {
            fd: self.wake_fd,
            events: POLLIN,
            revents: 0,
        });
        self.owners.push(u64::MAX);
        for w in watches {
            self.pollfds.push(PollFd {
                fd: w.fd,
                events: POLLIN,
                revents: 0,
            });
            self.owners.push(w.owner);
        }
        // SAFETY: `pollfds` is a live, exclusively-borrowed Vec of
        // `#[repr(C)]` structs matching `struct pollfd`, `nfds` is its
        // exact length, and the kernel writes only the `revents` fields
        // within those bounds.
        let n = unsafe {
            poll(
                self.pollfds.as_mut_ptr(),
                self.pollfds.len() as NFds,
                timeout_ms,
            )
        };
        if n < 0 {
            // EINTR or transient failure: the caller re-snapshots.
            return false;
        }
        for (pfd, &owner) in self.pollfds.iter().zip(self.owners.iter()).skip(1) {
            if pfd.revents == 0 {
                continue;
            }
            fired.push(Fired {
                fd: pfd.fd,
                owner,
                invalid: pfd.revents & POLLNVAL != 0,
            });
        }
        self.pollfds[0].revents != 0
    }
}

/// The Linux backend: the kernel holds the interest set in an epoll
/// instance and `epoll_wait` returns only the ready fds — O(ready) per
/// wakeup. `interest` mirrors the kernel set so each round issues
/// `epoll_ctl` only for fds that actually changed (interest-map
/// diffing). The kernel drops an entry when its socket closes, and a new
/// socket may re-use the number, so any change of an fd's owner *or*
/// generation (the owner resumed with a fresh socket set) forces a kernel
/// DEL+ADD rather than trusting the old entry.
#[cfg(have_epoll)]
struct EpollBackend {
    epfd: RawFd,
    wake_fd: RawFd,
    /// fd → (owner, generation) as last synced with the kernel.
    interest: HashMap<RawFd, (u64, u64)>,
    /// Scratch: this round's desired set (same shape as `interest`).
    desired: HashMap<RawFd, (u64, u64)>,
    /// Scratch: fds to delete this round.
    stale: Vec<RawFd>,
    events: Vec<epoll_ffi::EpollEvent>,
}

#[cfg(have_epoll)]
impl EpollBackend {
    /// Runtime half of the probe: `None` if the kernel refuses an epoll
    /// instance, in which case the caller falls back to `poll(2)`.
    fn new(wake_fd: RawFd) -> Option<EpollBackend> {
        // SAFETY: plain syscall, no pointers involved.
        let epfd = unsafe { epoll_ffi::epoll_create1(epoll_ffi::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return None;
        }
        Some(EpollBackend {
            epfd,
            wake_fd,
            interest: HashMap::new(),
            desired: HashMap::new(),
            stale: Vec::new(),
            events: vec![epoll_ffi::EpollEvent { events: 0, data: 0 }; 64],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd) -> bool {
        let mut ev = epoll_ffi::EpollEvent {
            events: epoll_ffi::EPOLLIN,
            data: fd as u64,
        };
        // SAFETY: `epfd` is the live epoll instance created in `new`,
        // `ev` is a valid exclusively-borrowed event struct, and the
        // kernel only reads it (DEL ignores it entirely).
        unsafe { epoll_ffi::epoll_ctl(self.epfd, op, fd, &mut ev) == 0 }
    }

    /// Same contract as [`PollBackend::wait`].
    fn wait_ready(&mut self, watches: &[Watch], timeout_ms: i32, fired: &mut Vec<Fired>) -> bool {
        // Sync the kernel set with this round's snapshot.
        self.desired.clear();
        self.desired.insert(self.wake_fd, (u64::MAX, 0));
        for w in watches {
            self.desired.entry(w.fd).or_insert((w.owner, w.gen));
        }
        self.stale.clear();
        for (&fd, &entry) in self.interest.iter() {
            match self.desired.get(&fd) {
                // Same fd, same owner, same generation: the kernel entry
                // still watches the same open socket.
                Some(&want) if want == entry => {}
                // Gone, or the number now belongs to another socket: a
                // resume (new generation) or a new owner whose socket
                // re-used a closed fd's number. Drop the kernel entry (the
                // kernel may already have auto-removed it with the closed
                // socket — either way, forget it) so the loop below ADDs
                // the current socket.
                _ => self.stale.push(fd),
            }
        }
        for i in 0..self.stale.len() {
            let fd = self.stale[i];
            self.ctl(epoll_ffi::EPOLL_CTL_DEL, fd);
            self.interest.remove(&fd);
        }
        // Every surviving entry matches; add what is missing.
        for (&fd, &(owner, gen)) in self.desired.iter() {
            if self.interest.contains_key(&fd) {
                continue;
            }
            if self.ctl(epoll_ffi::EPOLL_CTL_ADD, fd) {
                self.interest.insert(fd, (owner, gen));
            } else if fd != self.wake_fd {
                // Closed or unpollable: surface as invalid so the loop
                // prunes it from its registration.
                fired.push(Fired {
                    fd,
                    owner,
                    invalid: true,
                });
            }
        }
        // SAFETY: `events` is a live, exclusively-borrowed buffer;
        // `maxevents` is its exact length, and the kernel writes at most
        // that many entries.
        let n = unsafe {
            epoll_ffi::epoll_wait(
                self.epfd,
                self.events.as_mut_ptr(),
                self.events.len() as i32,
                timeout_ms,
            )
        };
        if n <= 0 {
            // Timeout, EINTR, or transient failure: empty round.
            return false;
        }
        let mut wake = false;
        for ev in &self.events[..n as usize] {
            let fd = ev.data as RawFd;
            if fd == self.wake_fd {
                wake = true;
                continue;
            }
            if let Some(&(owner, _)) = self.interest.get(&fd) {
                fired.push(Fired {
                    fd,
                    owner,
                    invalid: false,
                });
            }
        }
        wake
    }
}

#[cfg(have_epoll)]
impl Drop for EpollBackend {
    fn drop(&mut self) {
        // SAFETY: closing the fd this struct exclusively owns.
        unsafe { epoll_ffi::close(self.epfd) };
    }
}

/// The backend the reactor loop drives: epoll where the build-time probe
/// found it *and* the runtime instance creation succeeded, `poll(2)`
/// everywhere else.
enum Backend {
    #[cfg(have_epoll)]
    Epoll(EpollBackend),
    Poll(PollBackend),
}

impl Backend {
    fn new(wake_fd: RawFd) -> Backend {
        #[cfg(have_epoll)]
        if let Some(e) = EpollBackend::new(wake_fd) {
            return Backend::Epoll(e);
        }
        Backend::Poll(PollBackend::new(wake_fd))
    }

    fn name(&self) -> &'static str {
        match self {
            #[cfg(have_epoll)]
            Backend::Epoll(_) => "epoll",
            Backend::Poll(_) => "poll",
        }
    }

    fn wait_ready(&mut self, watches: &[Watch], timeout_ms: i32, fired: &mut Vec<Fired>) -> bool {
        match self {
            #[cfg(have_epoll)]
            Backend::Epoll(b) => b.wait_ready(watches, timeout_ms, fired),
            Backend::Poll(b) => b.wait_ready(watches, timeout_ms, fired),
        }
    }
}

// -- registrations -----------------------------------------------------------

/// Handle to a reactor registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistrationId(u64);

type Callback = Arc<dyn Fn() + Send + Sync>;

struct Registration {
    fds: Vec<RawFd>,
    /// Bumped every time `resume` replaces the fd set, so the epoll
    /// backend can tell a re-used fd *number* from the same still-open
    /// socket and refresh the kernel entry.
    gen: u64,
    callback: Callback,
    /// Stop watching the fds after firing, until `resume` (receive
    /// sources: the doorbell is rung, nothing more to learn until the
    /// drain empties).
    pause_on_ready: bool,
    paused: bool,
    /// Also fire every `period` (the rudp retransmit tick).
    period: Option<Duration>,
    next_tick: Option<Instant>,
}

#[derive(Default)]
struct ReactorState {
    regs: HashMap<u64, Registration>,
    next_id: u64,
}

/// The process-global socket reactor. See the module docs.
pub struct Reactor {
    state: Mutex<ReactorState>,
    /// Self-wake socket: connected to itself, one byte sent =
    /// `poll(2)` returns. Lets `watch`/`resume`/`deregister` callers
    /// interrupt a reactor blocked on last round's fd set.
    wake: UdpSocket,
    /// The wake socket's own address, kept so `wake_up` can use the
    /// explicit-destination datagram call (`send_to`) — the bare `send`
    /// name is a trait-dispatch point the repo lint deliberately
    /// over-links, and the wake path must stay visibly non-blocking.
    wake_addr: std::net::SocketAddr,
    /// Which readiness backend the loop selected ("epoll" or "poll"),
    /// set once by the reactor thread (observability for tests).
    backend: OnceLock<&'static str>,
}

/// Longest the reactor blocks with nothing scheduled; bounds how stale
/// the fd snapshot can get if a wake datagram is ever dropped.
const IDLE_TIMEOUT_MS: i32 = 100;

static GLOBAL: OnceLock<Option<Arc<Reactor>>> = OnceLock::new();

impl Reactor {
    /// The global reactor, starting its thread on first use. `None` if
    /// the wake socket or the thread could not be created — callers fall
    /// back to their per-fd pump paths, trading thread count for
    /// liveness.
    pub fn global() -> Option<&'static Arc<Reactor>> {
        GLOBAL.get_or_init(Reactor::start).as_ref()
    }

    fn start() -> Option<Arc<Reactor>> {
        let wake = UdpSocket::bind(("127.0.0.1", 0)).ok()?;
        let wake_addr = wake.local_addr().ok()?;
        wake.connect(wake_addr).ok()?;
        wake.set_nonblocking(true).ok()?;
        let reactor = Arc::new(Reactor {
            state: Mutex::new(ReactorState::default()),
            wake,
            wake_addr,
            backend: OnceLock::new(),
        });
        let r = Arc::clone(&reactor);
        std::thread::Builder::new()
            .name("nexus-reactor".to_owned())
            .spawn(move || reactor_loop(&r))
            .ok()?;
        Some(reactor)
    }

    /// Adds a registration and wakes the reactor to start watching it.
    pub fn watch(
        &self,
        fds: &[RawFd],
        callback: Callback,
        pause_on_ready: bool,
        period: Option<Duration>,
    ) -> RegistrationId {
        let id = {
            let mut st = self.state.lock();
            let id = st.next_id;
            st.next_id += 1;
            st.regs.insert(
                id,
                Registration {
                    // lint:allow(hot-path-alloc) the fd list is copied once per registration (connect/arm time), not per message
                    fds: fds.to_vec(),
                    gen: 0,
                    callback,
                    pause_on_ready,
                    paused: false,
                    period,
                    next_tick: period.map(|p| Instant::now() + p),
                },
            );
            id
        };
        self.wake_up();
        RegistrationId(id)
    }

    /// Unpauses a registration and replaces its fd set (receivers call
    /// this after draining empty, with their current listener/connection
    /// fds — which is how accept-churn reaches the reactor).
    pub fn resume(&self, id: RegistrationId, fds: &[RawFd]) {
        {
            let mut st = self.state.lock();
            let Some(reg) = st.regs.get_mut(&id.0) else {
                return;
            };
            reg.paused = false;
            reg.fds.clear();
            reg.fds.extend_from_slice(fds);
            // New fd set, new generation: an fd number here may belong
            // to a different socket than last round's same number.
            reg.gen += 1;
        }
        self.wake_up();
    }

    /// Removes a registration. The callback will not fire after this
    /// returns, except for at most one invocation already in flight on
    /// the reactor thread — callbacks must stay safe against that
    /// (doorbell rings and stop-flag-guarded pumps are).
    pub fn deregister(&self, id: RegistrationId) {
        self.state.lock().regs.remove(&id.0);
        self.wake_up();
    }

    /// Number of live registrations (observability for tests).
    pub fn registrations(&self) -> usize {
        self.state.lock().regs.len()
    }

    /// The readiness backend the reactor thread selected — `"epoll"` or
    /// `"poll"` — or `None` until its first round.
    pub fn backend_name(&self) -> Option<&'static str> {
        self.backend.get().copied()
    }

    fn wake_up(&self) {
        // A full (or failed) wake socket is fine: the reactor re-snapshots
        // at least every IDLE_TIMEOUT_MS anyway.
        let _ = self.wake.send_to(&[1], self.wake_addr);
    }
}

/// The reactor thread: snapshot fds → block in the backend's wait →
/// mark fired registrations → run their callbacks, lock released.
fn reactor_loop(reactor: &Arc<Reactor>) {
    let wake_fd = reactor.wake.as_raw_fd();
    let mut backend = Backend::new(wake_fd);
    let _ = reactor.backend.set(backend.name());
    // Reused across rounds: a steady-state round performs no allocation
    // (pushes into retained capacity).
    let mut watches: Vec<Watch> = Vec::with_capacity(64);
    let mut ready: Vec<Fired> = Vec::with_capacity(16);
    let mut fired: Vec<(u64, Callback)> = Vec::with_capacity(16);
    loop {
        watches.clear();
        ready.clear();
        fired.clear();
        let mut timeout_ms = IDLE_TIMEOUT_MS;
        let now = Instant::now();
        {
            let st = reactor.state.lock();
            for (&id, reg) in st.regs.iter() {
                if let Some(tick) = reg.next_tick {
                    let ms = tick.saturating_duration_since(now).as_millis() as i32;
                    timeout_ms = timeout_ms.min(ms.max(1));
                }
                if reg.paused {
                    continue;
                }
                for &fd in &reg.fds {
                    watches.push(Watch {
                        fd,
                        owner: id,
                        gen: reg.gen,
                    });
                }
            }
        }
        if backend.wait_ready(&watches, timeout_ms, &mut ready) {
            let mut b = [0u8; 16];
            while reactor.wake.recv(&mut b).is_ok() {}
        }
        let now = Instant::now();
        {
            let mut st = reactor.state.lock();
            for r in ready.drain(..) {
                let Some(reg) = st.regs.get_mut(&r.owner) else {
                    continue;
                };
                if r.invalid {
                    // The fd was closed behind our back; keep the
                    // registration (its owner will resume with a fresh
                    // set) but stop watching the dead fd.
                    let dead = r.fd;
                    reg.fds.retain(|&f| f != dead);
                }
                if reg.paused {
                    // Already fired this round via another fd.
                    continue;
                }
                if reg.pause_on_ready {
                    reg.paused = true;
                    fired.push((r.owner, Arc::clone(&reg.callback)));
                } else if fired.iter().all(|(fid, _)| *fid != r.owner) {
                    fired.push((r.owner, Arc::clone(&reg.callback)));
                }
            }
            for (&id, reg) in st.regs.iter_mut() {
                if let (Some(period), Some(tick)) = (reg.period, reg.next_tick) {
                    if now >= tick {
                        reg.next_tick = Some(now + period);
                        if fired.iter().all(|(fid, _)| *fid != id) {
                            fired.push((id, Arc::clone(&reg.callback)));
                        }
                    }
                }
            }
        }
        for (_, cb) in fired.drain(..) {
            cb();
        }
    }
}

// -- the receiver adapter ----------------------------------------------------

/// A receiver whose readiness the reactor can watch through raw fds.
pub trait FdSource: CommReceiver {
    /// Appends every fd whose readability means "this receiver may have
    /// a message" — listener plus accepted connections for TCP, the one
    /// socket for UDP-based transports. Called after each drain-to-empty,
    /// so the set may change between calls.
    fn fill_fds(&self, out: &mut Vec<RawFd>);
}

/// The doorbell the reactor callback rings. Replaceable — the poll
/// engine installs one signal at arm time and a shard worker pool
/// installs another at adoption — while the reactor keeps one stable
/// callback pointing here.
struct SignalCell(RwLock<Option<ReadySignal>>);

/// Wraps an [`FdSource`] receiver so the global reactor provides its
/// readiness: no pump thread, no socket syscalls on the engine's poll
/// path until the doorbell actually rings.
pub struct ReactorReceiver<R: FdSource> {
    inner: R,
    cell: Arc<SignalCell>,
    reg: Option<RegistrationId>,
    /// Reused fd scratch for re-arms (no per-drain allocation).
    fds: Vec<RawFd>,
}

impl<R: FdSource> ReactorReceiver<R> {
    /// Wraps `inner`. The reactor registration is created lazily at
    /// arming time; until then the wrapper is a transparent pass-through.
    pub fn new(inner: R) -> Self {
        ReactorReceiver {
            inner,
            cell: Arc::new(SignalCell(RwLock::new(None))),
            reg: None,
            fds: Vec::new(),
        }
    }

    /// Re-arms the registration with the receiver's current fd set.
    fn rearm(&mut self) {
        if let (Some(id), Some(reactor)) = (self.reg, Reactor::global()) {
            self.fds.clear();
            self.inner.fill_fds(&mut self.fds);
            reactor.resume(id, &self.fds);
        }
    }
}

impl<R: FdSource> CommReceiver for ReactorReceiver<R> {
    fn poll(&mut self) -> Result<Option<Rsr>> {
        match self.inner.poll() {
            Ok(Some(m)) => Ok(Some(m)),
            // Drained empty: hand the fds back to the reactor. Data that
            // raced in after the inner poll is still readable — poll(2)
            // is level-triggered, so the next reactor round re-rings.
            Ok(None) => {
                self.rearm();
                Ok(None)
            }
            // Errors do not retire the source: the engine re-rings on
            // error, and the reactor must keep watching for whatever the
            // next drain finds (or the same error again, surfaced again).
            Err(e) => {
                self.rearm();
                Err(e)
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Rsr>> {
        self.inner.recv_timeout(timeout)
    }

    fn set_ready_signal(&mut self, signal: ReadySignal) -> bool {
        let Some(reactor) = Reactor::global() else {
            // No reactor (wake socket or thread creation failed): report
            // unarmed; the engine keeps the source in the polled rotation.
            return false;
        };
        *self.cell.0.write() = Some(signal);
        if self.reg.is_none() {
            self.fds.clear();
            self.inner.fill_fds(&mut self.fds);
            let cell = Arc::clone(&self.cell);
            let callback: Callback = Arc::new(move || {
                if let Some(s) = cell.0.read().as_ref() {
                    s.ring();
                }
            });
            self.reg = Some(reactor.watch(&self.fds, callback, true, None));
        } else {
            // Re-arm under a replacement doorbell (worker-pool adoption):
            // wake the watch in case traffic arrived while the source was
            // between engines.
            self.rearm();
        }
        true
    }

    fn close(&mut self) {
        if let (Some(id), Some(reactor)) = (self.reg.take(), Reactor::global()) {
            reactor.deregister(id);
        }
        self.inner.close();
    }
}

impl<R: FdSource> Drop for ReactorReceiver<R> {
    fn drop(&mut self) {
        if let (Some(id), Some(reactor)) = (self.reg.take(), Reactor::global()) {
            reactor.deregister(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_rt::context::ContextId;
    use nexus_rt::descriptor::MethodId;
    use nexus_rt::endpoint::EndpointId;
    use nexus_rt::poll::PollEngine;
    use std::io::ErrorKind;

    struct UdpFdSource {
        socket: UdpSocket,
        buf: Vec<u8>,
    }

    impl CommReceiver for UdpFdSource {
        fn poll(&mut self) -> Result<Option<Rsr>> {
            loop {
                match self.socket.recv_from(&mut self.buf) {
                    Ok((n, _)) => return Ok(Some(Rsr::decode(&self.buf[..n])?)),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e.into()),
                }
            }
        }
    }

    impl FdSource for UdpFdSource {
        fn fill_fds(&self, out: &mut Vec<RawFd>) {
            out.push(self.socket.as_raw_fd());
        }
    }

    fn msg(h: &str) -> Rsr {
        Rsr::new(ContextId(0), EndpointId(0), h, bytes::Bytes::new())
    }

    fn wire(m: &Rsr) -> Vec<u8> {
        let frame = nexus_rt::rsr::WireFrame::new();
        let body = frame.body(m);
        let mut v = m.header().to_vec();
        v.extend_from_slice(body);
        v
    }

    #[test]
    fn reactor_rings_the_engine_doorbell_on_readiness() {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        socket.set_nonblocking(true).unwrap();
        let addr = socket.local_addr().unwrap();
        let rx = ReactorReceiver::new(UdpFdSource {
            socket,
            buf: vec![0; 65_536],
        });
        let mut eng = PollEngine::new();
        eng.add_source(MethodId::UDP, Box::new(rx));
        assert!(eng.arm_ready(MethodId::UDP));

        let tx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        tx.send_to(&wire(&msg("via-reactor")), addr).unwrap();

        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = None;
        while got.is_none() && Instant::now() < deadline {
            let out = eng.poll_once();
            got = out.messages.first().map(|(_, m)| m.handler.clone());
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(got.as_deref(), Some("via-reactor"));
        eng.close_all();
    }

    #[test]
    fn pausing_registration_does_not_busy_fire() {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        socket.set_nonblocking(true).unwrap();
        let addr = socket.local_addr().unwrap();
        let fires = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let f = Arc::clone(&fires);
        let reactor = Reactor::global().expect("reactor starts");
        let id = reactor.watch(
            &[socket.as_raw_fd()],
            Arc::new(move || {
                f.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }),
            true,
            None,
        );
        let tx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        tx.send_to(&[9], addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while fires.load(std::sync::atomic::Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "registration never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The datagram is still unread (level-triggered readable), but the
        // paused registration must not fire again.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(fires.load(std::sync::atomic::Ordering::Relaxed), 1);
        reactor.deregister(id);
    }

    #[test]
    fn periodic_registration_ticks_without_traffic() {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        socket.set_nonblocking(true).unwrap();
        let fires = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let f = Arc::clone(&fires);
        let reactor = Reactor::global().expect("reactor starts");
        let id = reactor.watch(
            &[socket.as_raw_fd()],
            Arc::new(move || {
                f.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }),
            false,
            Some(Duration::from_millis(2)),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while fires.load(std::sync::atomic::Ordering::Relaxed) < 5 {
            assert!(Instant::now() < deadline, "periodic tick never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        reactor.deregister(id);
    }

    /// On Linux the build-time probe selects epoll, and `epoll_create1`
    /// succeeds on every kernel the CI runs, so the running reactor must
    /// report the epoll backend (not the poll(2) fallback).
    #[cfg(have_epoll)]
    #[test]
    fn reactor_runs_on_epoll_backend() {
        let reactor = Reactor::global().expect("reactor starts");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match reactor.backend_name() {
                Some(name) => {
                    assert_eq!(name, "epoll");
                    break;
                }
                None => {
                    assert!(Instant::now() < deadline, "backend never recorded");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// Regression (lost readiness after fd reuse): a socket closed while
    /// watched takes its kernel epoll entry with it. When a new socket
    /// re-uses the fd number under a different owner at the same
    /// generation, the backend used to update only its mirror, so the new
    /// socket was never watched and its data never rang a doorbell.
    #[cfg(have_epoll)]
    #[test]
    fn epoll_watches_fd_number_reused_by_new_owner() {
        use std::os::unix::io::{FromRawFd, IntoRawFd};
        extern "C" {
            fn dup2(old: RawFd, new: RawFd) -> RawFd;
        }
        let wake = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let mut backend = EpollBackend::new(wake.as_raw_fd()).expect("epoll instance");
        let mut fired = Vec::new();

        let old = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let fd = old.into_raw_fd();
        let watch = |owner| Watch { fd, owner, gen: 0 };
        backend.wait_ready(&[watch(1)], 0, &mut fired);
        assert!(fired.is_empty(), "idle socket fired");

        // Put a new socket on the same fd number. `dup2` closes the old
        // socket and re-uses its number in one step, so no concurrently
        // running test can take the number in between, as it could after
        // a plain close + bind.
        let fresh = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let addr = fresh.local_addr().unwrap();
        // SAFETY: `fresh` is a live socket and `fd` is the number this test
        // took ownership of through `into_raw_fd`; dup2 atomically closes
        // that old socket and makes `fd` a second handle to `fresh`.
        assert_eq!(unsafe { dup2(fresh.as_raw_fd(), fd) }, fd);
        drop(fresh);
        // SAFETY: `fd` is open (dup2 succeeded) and nothing else owns it.
        let reused = unsafe { UdpSocket::from_raw_fd(fd) };

        let tx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        tx.send_to(&[7], addr).unwrap();
        backend.wait_ready(&[watch(2)], 1_000, &mut fired);
        assert!(
            fired
                .iter()
                .any(|f| f.fd == fd && f.owner == 2 && !f.invalid),
            "new socket never watched"
        );
        drop(reused);
    }

    #[test]
    fn deregistered_fd_stops_firing() {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        socket.set_nonblocking(true).unwrap();
        let addr = socket.local_addr().unwrap();
        let fires = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let f = Arc::clone(&fires);
        let reactor = Reactor::global().expect("reactor starts");
        let id = reactor.watch(
            &[socket.as_raw_fd()],
            Arc::new(move || {
                f.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }),
            false,
            None,
        );
        reactor.deregister(id);
        std::thread::sleep(Duration::from_millis(20));
        let tx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        tx.send_to(&[9], addr).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(fires.load(std::sync::atomic::Ordering::Relaxed), 0);
    }
}
