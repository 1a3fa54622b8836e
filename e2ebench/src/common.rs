//! Pieces every workload shares: options, the measured outcome, the
//! traced `progress()` wrapper, payload framing and stats snapshots.

use crate::trace;
use nexus_rt::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many set-ups a run times; `setup_s` is their median.
pub const SETUPS: usize = 11;

/// Longest any single op may take before it counts as timed out.
pub const OP_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Length of the measurement.
    pub seconds: f64,
    /// Split the measurement into an untraced and a traced half.
    pub traced: bool,
}

impl Opts {
    /// The measured phases, (traced, seconds): the whole time untraced,
    /// or (`--trace 1`) untraced then traced for half the time each, on
    /// the same fabric, so their difference is the tracing overhead.
    pub fn phases(&self) -> Vec<(bool, f64)> {
        if self.traced {
            vec![(false, self.seconds / 2.0), (true, self.seconds / 2.0)]
        } else {
            vec![(false, self.seconds)]
        }
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted and ops that failed, errored, timed out or returned
    /// wrong output.
    pub attempted: u64,
    pub failed: u64,
    /// Duration of each set-up, Fabric::new to ready-to-time (s).
    pub setup_s: Vec<f64>,
    /// The untraced measured phase, window by window.
    pub measured: Measured,
    /// The traced phase (`--trace 1` only), on the same fabric.
    pub traced: Option<Measured>,
    /// Workload-specific figures under the names the workload's docs use
    /// (name, value, unit), printed in the report line.
    pub report: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer values measured by counters (traced phase only).
    pub layer: BTreeMap<&'static str, f64>,
    /// Why ops failed, for the report.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Files a finished phase's measurement.
    pub fn store(&mut self, traced: bool, m: Measured) {
        if traced {
            self.traced = Some(m);
        } else {
            self.measured = m;
        }
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why.into());
        }
    }
}

/// Statistics of one measurement window: op rate and, per latency
/// series, (p50, p99, samples).
#[derive(Debug, Clone)]
pub struct Window {
    pub ops_per_s: f64,
    pub series: Vec<(f64, f64, usize)>,
}

/// A measured phase: its windows and totals.
#[derive(Debug, Default)]
pub struct Measured {
    pub windows: Vec<Window>,
    pub ops: u64,
    pub secs: f64,
}

impl Measured {
    /// Median over windows of the op rate.
    pub fn ops_per_s(&self) -> f64 {
        let r: Vec<f64> = self.windows.iter().map(|w| w.ops_per_s).collect();
        crate::stats::median(&r)
    }

    /// (p50, p99) of latency series `i`: the median over windows of each
    /// window's percentile.
    pub fn lat(&self, i: usize) -> (f64, f64) {
        let p50: Vec<f64> = self.windows.iter().map(|w| w.series[i].0).collect();
        let p99: Vec<f64> = self.windows.iter().map(|w| w.series[i].1).collect();
        (crate::stats::median(&p50), crate::stats::median(&p99))
    }

    /// Latency samples of series `i` over the whole phase.
    pub fn samples(&self, i: usize) -> usize {
        self.windows.iter().map(|w| w.series[i].2).sum()
    }

    /// Whether every p99 behind [`Measured::lat`] has at least ten
    /// samples beyond it.
    pub fn p99_resolved(&self, i: usize) -> bool {
        !self.windows.is_empty()
            && self
                .windows
                .iter()
                .all(|w| crate::stats::tail_is_resolved(w.series[i].2, 0.99))
    }
}

/// Splits a measured phase of `secs` into `count` equal windows and
/// summarises each as it closes, so memory stays bounded by one window
/// and a burst of host noise moves one window, not the reported median.
pub struct Windows {
    len: Duration,
    count: usize,
    start: Instant,
    began: Instant,
    ops: u64,
    cur: Vec<Reservoir>,
    out: Measured,
}

/// Most samples a window keeps per series; beyond that it keeps a
/// uniform random subset, so memory (and peak RSS) stays flat however
/// fast the workload runs.
pub const RESERVOIR: usize = 20_000;

/// A uniform sample of at most [`RESERVOIR`] values (Algorithm R).
#[derive(Clone)]
struct Reservoir {
    kept: Vec<f64>,
    seen: u64,
    rng: crate::sched::Rng,
}

impl Reservoir {
    fn new() -> Self {
        Reservoir {
            kept: Vec::with_capacity(RESERVOIR),
            seen: 0,
            rng: crate::sched::Rng::new(0),
        }
    }

    fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.kept.len() < RESERVOIR {
            self.kept.push(v);
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < RESERVOIR {
                self.kept[j] = v;
            }
        }
    }
}

impl Windows {
    /// `min_window` is the shortest window that still gives each series
    /// enough samples.
    pub fn new(secs: f64, min_window: f64, series: usize) -> Self {
        let count = ((secs / min_window).floor() as usize).clamp(1, 10);
        let now = Instant::now();
        Windows {
            len: Duration::from_secs_f64(secs / count as f64),
            count,
            start: now,
            began: now,
            ops: 0,
            cur: vec![Reservoir::new(); series],
            out: Measured::default(),
        }
    }

    pub fn sample(&mut self, series: usize, us: f64) {
        self.cur[series].push(us);
    }

    pub fn op(&mut self, n: u64) {
        self.ops += n;
    }

    /// Closes the current window if its time is up. Returns true once
    /// every window has closed.
    pub fn roll(&mut self) -> bool {
        let now = Instant::now();
        let secs = now.duration_since(self.start).as_secs_f64();
        if secs < self.len.as_secs_f64() {
            return false;
        }
        let series = self
            .cur
            .iter_mut()
            .map(|r| {
                r.kept.sort_by(f64::total_cmp);
                let p = |q| crate::stats::percentile(&r.kept, q);
                let stat = (p(0.5), p(0.99), r.seen as usize);
                r.kept.clear();
                r.seen = 0;
                stat
            })
            .collect();
        self.out.windows.push(Window {
            ops_per_s: self.ops as f64 / secs,
            series,
        });
        self.out.ops += self.ops;
        self.ops = 0;
        self.start = now;
        self.out.windows.len() >= self.count
    }

    pub fn finish(mut self) -> Measured {
        self.out.secs = self.began.elapsed().as_secs_f64();
        self.out
    }
}

/// Times [`SETUPS`] − 1 more set-ups, each in a fresh process (this
/// binary with `--setup-probe 1`), and adds them to `out.setup_s`.
///
/// A real application builds one fabric per process, so each sample is
/// that first-fabric cost; tearing fabrics down and rebuilding them in
/// one process would also time a warm process and would reuse socket fd
/// numbers while the reactor still tracks the old ones (see README.md).
pub fn setup_samples(workload: &str, opts: &Opts, out: &mut Outcome) {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("set-up probe: {e}"));
            return;
        }
    };
    for _ in 1..SETUPS {
        out.attempted += 1;
        let seed = opts.seed.to_string();
        let args = [
            "--workload",
            workload,
            "--seed",
            &seed,
            "--setup-probe",
            "1",
        ];
        let got = std::process::Command::new(&exe)
            .args(args)
            .stdin(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .output();
        let secs = got
            .as_ref()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .last()
                    .and_then(|l| l.strip_prefix("setup_s "))
                    .and_then(|v| v.trim().parse::<f64>().ok())
            });
        match (secs, got) {
            (Some(s), _) => out.setup_s.push(s),
            (None, Ok(o)) => out.fail(format!(
                "set-up probe failed: {}",
                String::from_utf8_lossy(&o.stdout).trim()
            )),
            (None, Err(e)) => out.fail(format!("set-up probe: {e}")),
        }
    }
}

/// The `--setup-probe` side: reports one set-up (time, or why it failed).
pub fn report_probe(got: std::result::Result<f64, String>) -> std::process::ExitCode {
    match got {
        Ok(secs) => {
            println!("setup_s {secs}");
            std::process::ExitCode::SUCCESS
        }
        Err(why) => {
            println!("{why}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// Turns a set-up attempt recorded in `out` into a probe answer.
pub fn probe_result(out: Outcome, ready: Option<f64>) -> std::result::Result<f64, String> {
    match ready {
        Some(secs) if out.failed == 0 => Ok(secs),
        _ => Err(out.errors.join("; ")),
    }
}

/// When a drive loop stops.
pub enum Until<'a> {
    /// After this many completed ops.
    Ops(u64),
    /// At this instant.
    Time(Instant),
    /// When the last measurement window closes; completions feed it.
    Windows(&'a mut Windows),
}

impl Until<'_> {
    /// Records a latency sample in `series`.
    pub fn sample(&mut self, series: usize, us: f64) {
        if let Until::Windows(w) = self {
            w.sample(series, us);
        }
    }

    /// Records `n` completed ops.
    pub fn ops(&mut self, n: u64) {
        if let Until::Windows(w) = self {
            w.op(n);
        }
    }

    /// Records one completed op with its latency sample in `series`.
    pub fn complete(&mut self, series: usize, us: f64) {
        self.sample(series, us);
        self.ops(1);
    }

    /// Whether the loop should stop, given `done` completed ops.
    pub fn reached(&mut self, done: u64) -> bool {
        match self {
            Until::Ops(n) => done >= *n,
            Until::Time(t) => Instant::now() >= *t,
            Until::Windows(w) => w.roll(),
        }
    }
}

/// Progress-pass counters of one measured phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Passes {
    pub all: u64,
    pub useful: u64,
    pub msgs: u64,
}

impl Passes {
    pub fn into_layer(self, layer: &mut BTreeMap<&'static str, f64>) {
        layer.insert(
            "poll.useful_frac",
            crate::stats::ratio(self.useful as f64, self.all as f64),
        );
        layer.insert(
            "poll.msgs_per_pass",
            crate::stats::ratio(self.msgs as f64, self.useful as f64),
        );
    }
}

/// One `Context::progress` pass, spanned (sampled) in the traced phase
/// as `poll.pass` (it dispatched messages) or `poll.empty` (it found
/// none), and counted into `passes` while tracing.
pub fn progress(ctx: &Context, passes: &mut Passes) -> Result<usize> {
    let open = trace::open_pass();
    let r = ctx.progress();
    let n = *r.as_ref().unwrap_or(&0);
    if let Some(o) = open {
        trace::close_as(o, (n == 0).then_some("poll.empty"), n as u64);
    }
    if trace::enabled() {
        passes.all += 1;
        if n > 0 {
            passes.useful += 1;
            passes.msgs += n as u64;
        }
    }
    r
}

/// Builds a fabric with the default module set (local, shmem, mpl, tcp,
/// udp, rudp) and default runtime settings.
pub fn fabric() -> Fabric {
    let f = Fabric::new();
    nexus_transports::register_defaults(&f);
    f
}

/// Creates a context on `node` in `partition`.
pub fn context(f: &Fabric, node: u32, partition: u32) -> Result<Arc<Context>> {
    f.create_context_at(NodeId(node), PartitionId(partition))
}

/// A payload of `len` bytes: the op's sequence number (when it fits)
/// followed by the series' seeded pattern.
pub fn payload(seq: u64, pattern: &[u8], len: usize) -> Buffer {
    let mut b = Buffer::with_capacity(len);
    if len >= 8 {
        b.put_u64(seq);
        b.put_raw(&pattern[..len - 8]);
    } else {
        b.put_raw(&pattern[..len]);
    }
    b
}

/// Checks a payload built by [`payload`]: its length, sequence number
/// and pattern bytes.
pub fn verify(bytes: &[u8], seq: u64, pattern: &[u8], len: usize) -> bool {
    if bytes.len() != len {
        return false;
    }
    if len >= 8 {
        bytes[..8] == seq.to_le_bytes() && bytes[8..] == pattern[..len - 8]
    } else {
        bytes == &pattern[..len]
    }
}

/// Reads the sequence number a payload carries (0 when too short).
pub fn seq_of(bytes: &[u8]) -> u64 {
    bytes
        .get(..8)
        .map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// Sums one method's counters over several contexts.
fn method_totals(ctxs: &[&Arc<Context>], m: MethodId) -> MethodSnapshot {
    let mut t = MethodSnapshot::default();
    for c in ctxs {
        let s = c.stats().snapshot_method(m);
        t.sends += s.sends;
        t.send_bytes += s.send_bytes;
        t.recvs += s.recvs;
        t.recv_bytes += s.recv_bytes;
        t.polls += s.polls;
        t.empty_polls += s.empty_polls;
    }
    t
}

/// Counter snapshot of the layers every workload reports.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    mpl: MethodSnapshot,
    tcp: MethodSnapshot,
    encodes: u64,
    allocs: u64,
}

impl Counters {
    /// Takes the snapshot and starts allocation counting.
    pub fn start(ctxs: &[&Arc<Context>]) -> Self {
        Counters {
            mpl: method_totals(ctxs, MethodId::MPL),
            tcp: method_totals(ctxs, MethodId::TCP),
            encodes: nexus_rt::rsr::body_encode_count(),
            allocs: crate::alloc::start(),
        }
    }

    /// Stops allocation counting and writes the deltas since
    /// [`Counters::start`] as layer metrics: per-op ratios over `ops`,
    /// and TCP wire bytes per useful byte issued on TCP-served links.
    pub fn finish(
        self,
        ctxs: &[&Arc<Context>],
        ops: u64,
        tcp_payload_bytes: u64,
        layer: &mut BTreeMap<&'static str, f64>,
    ) {
        use crate::stats::ratio;
        let allocs = crate::alloc::stop() - self.allocs;
        let encodes = nexus_rt::rsr::body_encode_count() - self.encodes;
        let mpl = method_totals(ctxs, MethodId::MPL);
        let tcp = method_totals(ctxs, MethodId::TCP);
        let useful = |now: MethodSnapshot, then: MethodSnapshot| {
            let polls = (now.polls - then.polls) as f64;
            let empty = (now.empty_polls - then.empty_polls) as f64;
            if polls > 0.0 {
                1.0 - empty / polls
            } else {
                0.0
            }
        };
        layer.insert("alloc.per_op", ratio(allocs as f64, ops as f64));
        layer.insert("rsr.body_encodes_per_op", ratio(encodes as f64, ops as f64));
        layer.insert("stats.mpl.useful_poll_frac", useful(mpl, self.mpl));
        layer.insert("stats.tcp.useful_poll_frac", useful(tcp, self.tcp));
        layer.insert(
            "tcp.wire_bytes_per_payload_byte",
            ratio(
                (tcp.send_bytes - self.tcp.send_bytes) as f64,
                tcp_payload_bytes as f64,
            ),
        );
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
