//! In-memory span recorder for the traced run.
//!
//! Spans sit in the benchmark's own code around each call into a layer
//! (`Context::rsr`, `Context::progress`, handler bodies, `Comm::send`...),
//! so per-layer numbers are observed from outside the runtime. Each span
//! has a name, start, end, parent span and op id. Spans live in
//! thread-local vectors, are merged at [`drain`], and are written out by
//! `main` when the run ends. Recording is off unless [`enable`]d, and a
//! disabled recorder costs one relaxed load per call site.
//!
//! Busy loops produce millions of poll passes, so passes are sampled
//! 1-in-[`PASS_SAMPLE`] and op spans 1-in-`op_sample` (by op id); a span
//! opened inside a recorded span is always recorded, so a recorded pass
//! keeps every handler it ran.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Parent id of a root span.
pub const NONE: u32 = u32::MAX;

/// One in this many progress passes is recorded.
pub const PASS_SAMPLE: u64 = 256;

/// Most spans kept per run; later spans are counted, not stored.
pub const CAP: usize = 400_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub op: u64,
    pub start: u64,
    pub end: u64,
    /// A per-span count (messages in a pass, bytes in a transfer).
    pub arg: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static OP_SAMPLE: AtomicU64 = AtomicU64::new(1);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
static STORED: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    /// Open recorded spans: (id, index into `spans`).
    stack: Vec<(u32, usize)>,
    passes: u64,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's epoch (shared by all threads).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Starts recording, keeping ops whose id is a multiple of `op_sample`.
pub fn enable(op_sample: u64) {
    epoch();
    OP_SAMPLE.store(op_sample.max(1), Ordering::Relaxed);
    ENABLED.store(true, Ordering::Release);
}

/// Stops recording (already recorded spans stay until [`drain`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether a span for `op` would be recorded on this thread now.
pub fn wants(op: u64) -> bool {
    enabled()
        && (op.is_multiple_of(OP_SAMPLE.load(Ordering::Relaxed))
            || LOCAL.with(|l| !l.borrow().stack.is_empty()))
}

fn room() -> bool {
    if STORED.fetch_add(1, Ordering::Relaxed) < CAP {
        true
    } else {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        false
    }
}

/// An open recorded span; close it with [`close`].
pub struct Open {
    id: u32,
    idx: usize,
}

/// Opens a span if `op` is sampled or a recorded span is open here.
pub fn open(name: &'static str, op: u64) -> Option<Open> {
    if !wants(op) || !room() {
        return None;
    }
    Some(open_unchecked(name, op))
}

fn open_unchecked(name: &'static str, op: u64) -> Open {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().map_or(NONE, |&(p, _)| p);
        let idx = l.spans.len();
        l.spans.push(Span {
            id,
            parent,
            name,
            op,
            start,
            end: start,
            arg: 0,
        });
        l.stack.push((id, idx));
        Open { id, idx }
    })
}

/// Closes `open`, optionally renaming it and attaching a count.
pub fn close_as(open: Open, name: Option<&'static str>, arg: u64) -> u32 {
    let end = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if let Some(pos) = l.stack.iter().rposition(|&(id, _)| id == open.id) {
            l.stack.truncate(pos);
        }
        let s = &mut l.spans[open.idx];
        s.end = end;
        s.arg = arg;
        if let Some(n) = name {
            s.name = n;
        }
    });
    open.id
}

pub fn close(open: Open) -> u32 {
    close_as(open, None, 0)
}

/// Runs `f` inside a span named `name` (when recorded). Returns the
/// result and the span id ([`NONE`] when not recorded).
pub fn span<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, u32) {
    match open(name, op) {
        None => (f(), NONE),
        Some(o) => {
            let r = f();
            (r, close(o))
        }
    }
}

/// Opens a progress-pass span on 1 in [`PASS_SAMPLE`] passes.
pub fn open_pass() -> Option<Open> {
    if !enabled() {
        return None;
    }
    let sampled = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.passes += 1;
        l.passes.is_multiple_of(PASS_SAMPLE)
    });
    if sampled && room() {
        Some(open_unchecked("poll.pass", 0))
    } else {
        None
    }
}

/// Records a span whose bounds were stamped elsewhere (for example a
/// wait that starts on one thread and ends on another).
pub fn record(name: &'static str, op: u64, parent: u32, start: u64, end: u64, arg: u64) -> u32 {
    if !wants(op) || !room() {
        return NONE;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|l| {
        l.borrow_mut().spans.push(Span {
            id,
            parent,
            name,
            op,
            start,
            end,
            arg,
        })
    });
    id
}

/// Moves this thread's spans into the shared sink (call before a
/// recording thread exits).
pub fn flush() {
    let mine = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.clear();
        std::mem::take(&mut l.spans)
    });
    SINK.lock().expect("span sink poisoned").extend(mine);
}

/// Flushes this thread and returns every span recorded so far, plus the
/// number dropped at the cap.
pub fn drain() -> (Vec<Span>, u64) {
    flush();
    let spans = std::mem::take(&mut *SINK.lock().expect("span sink poisoned"));
    STORED.store(0, Ordering::Relaxed);
    (spans, DROPPED.swap(0, Ordering::Relaxed))
}

// -- analysis ------------------------------------------------------------------

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64)
        .collect()
}

/// Self times (ns) of spans named `name`: duration minus the part its
/// direct children cover.
pub fn self_times(spans: &[Span], name: &str) -> Vec<f64> {
    let mut child: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if s.parent != NONE {
            *child.entry(s.parent).or_default() += s.dur();
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            s.dur()
                .saturating_sub(child.get(&s.id).copied().unwrap_or(0)) as f64
        })
        .collect()
}

/// For each op with a root span named `root`, the share of the root's
/// duration that no span named in `stages` (same op) covers.
pub fn uncovered_shares(spans: &[Span], root: &str, stages: &[&str]) -> Vec<f64> {
    let mut by_op: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| stages.contains(&s.name)) {
        by_op.entry(s.op).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .filter(|s| s.name == root && s.dur() > 0)
        .map(|r| {
            let mut iv = by_op.remove(&r.op).unwrap_or_default();
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, r.start);
            for (a, b) in iv {
                let (a, b) = (a.max(reach), b.min(r.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            1.0 - covered as f64 / r.dur() as f64
        })
        .collect()
}

/// Writes spans as tab-separated lines: id, parent, name, op, start_ns,
/// end_ns, arg (parent `-` for a root).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tname\top\tstart_ns\tend_ns\targ")?;
    for s in spans {
        let parent = if s.parent == NONE {
            "-".to_owned()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, parent, s.name, s.op, s.start, s.end, s.arg
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, name: &'static str, op: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op,
            start,
            end,
            arg: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            sp(1, NONE, "poll.pass", 0, 0, 100),
            sp(2, 1, "handler", 0, 10, 40),
            sp(3, 2, "context.rsr", 0, 20, 30),
        ];
        assert_eq!(self_times(&spans, "poll.pass"), vec![70.0]);
        assert_eq!(self_times(&spans, "handler"), vec![20.0]);
    }

    #[test]
    fn uncovered_share_merges_overlapping_stages() {
        let spans = [
            sp(1, NONE, "op", 5, 0, 100),
            sp(2, NONE, "a", 5, 0, 30),
            sp(3, NONE, "b", 5, 20, 50),
            sp(4, NONE, "a", 5, 90, 120),
            sp(5, NONE, "a", 6, 50, 90),
        ];
        let u = uncovered_shares(&spans, "op", &["a", "b"]);
        assert_eq!(u.len(), 1);
        assert!((u[0] - 0.4).abs() < 1e-12, "{u:?}");
    }
}
