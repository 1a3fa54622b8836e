//! `climate`: the coupled atmosphere/ocean model through
//! `nexus_climate::run_distributed`, 1 atmosphere rank + 1 ocean rank in
//! two partitions so the coupling exchange rides TCP. The grid is width
//! 256 x h_atm 64 x h_ocean 32, run in chunks of [`CHUNK`] periods; every
//! chunk must match `serial_coupled` bit for bit. The problem is
//! deterministic and ignores the seed.
//!
//! `run_distributed` hides its communication, so the traced run adds a
//! coupling probe on the same 2-rank partitioned `run_world` layout: a
//! flux/SST-shaped exchange (width x 8 B each way) first as raw RSRs
//! between the two rank contexts, then through `Comm::send`/`Comm::recv`.

use crate::common::{self, secs, Counters, Opts, Outcome, Passes, Windows, OP_TIMEOUT};
use crate::sched;
use crate::trace;
use nexus_climate::{run_distributed, serial_coupled, CoupledConfig, RunConfig, RunResult};
use nexus_mpi::{run_world, WorldLayout};
use nexus_rt::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

pub const WIDTH: usize = 256;
pub const H_ATM: usize = 64;
pub const H_OCEAN: usize = 32;

/// Coupling periods per `run_distributed` call. Per-chunk time has a
/// tail from two sources a longer chunk dilutes: the world set-up each
/// call pays (on two cores: p50 about 2.7 ms, p99 about 18 ms) and time
/// the host takes from the ranks (they advance in lockstep, so a stall of
/// either one stalls both). At 640 periods a chunk takes about 150 ms.
pub const CHUNK: usize = 640;

/// Round trips of each kind in the traced coupling probe.
const PROBE_ITERS: u64 = 2000;

const TAG_PROBE: u32 = 7;

fn coupled(periods: usize) -> CoupledConfig {
    CoupledConfig {
        h_atm: H_ATM,
        h_ocean: H_OCEAN,
        width: WIDTH,
        periods,
    }
}

fn run_config(periods: usize) -> RunConfig {
    RunConfig {
        coupled: coupled(periods),
        n_atm: 1,
        n_ocean: 1,
        partitioned: true,
    }
}

fn serial(periods: usize) -> RunResult {
    let (a, o) = serial_coupled(coupled(periods));
    RunResult {
        atm_field: a.interior(),
        ocean_field: o.interior(),
    }
}

/// Bit-for-bit equality of two runs' final fields.
fn same_bits(a: &RunResult, b: &RunResult) -> bool {
    let eq = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    eq(&a.atm_field, &b.atm_field) && eq(&a.ocean_field, &b.ocean_field)
}

/// Serial compute floor (ms per period) on the benchmark's grid: median
/// of three 100-period runs.
pub fn serial_ms_per_period() -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(serial_coupled(coupled(100)));
            secs(t) * 1e3 / 100.0
        })
        .collect();
    crate::stats::median(&runs)
}

/// Runs one chunk and checks it; returns its duration in seconds.
fn chunk(periods: usize, want: &RunResult, out: &mut Outcome) -> Option<f64> {
    out.attempted += 1;
    let t = Instant::now();
    // A rank that fails panics inside `run_distributed`; count it as a
    // failed op rather than losing the run.
    let got = std::panic::catch_unwind(|| run_distributed(run_config(periods)));
    let dt = secs(t);
    match got {
        Err(_) => {
            out.fail("a rank of run_distributed panicked");
            None
        }
        Ok(Ok(r)) if same_bits(&r, want) => Some(dt),
        Ok(Ok(_)) => {
            out.fail("distributed fields differ from serial_coupled");
            None
        }
        Ok(Err(e)) => {
            out.fail(format!("run_distributed: {e}"));
            None
        }
    }
}

/// One set-up in this process (the `--setup-probe` side): build the
/// world, connect, run one period, tear down.
pub fn setup_probe(_opts: &Opts) -> std::result::Result<f64, String> {
    let mut out = Outcome::default();
    let got = chunk(1, &serial(1), &mut out);
    common::probe_result(out, got)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let want = serial(CHUNK);
    let Some(secs) = chunk(1, &serial(1), &mut out) else {
        return out;
    };
    out.setup_s.push(secs);
    common::setup_samples("climate", opts, &mut out);
    if out.failed > 0 {
        return out;
    }
    let warm = Instant::now() + Duration::from_millis(200);
    while Instant::now() < warm {
        if chunk(CHUNK, &want, &mut out).is_none() {
            return out;
        }
    }
    out.attempted = 0;

    for (traced, secs) in opts.phases() {
        if traced {
            trace::enable(1);
        }
        // A window holds only about 30 chunks, so its p99 is near its
        // slowest chunk; the median over windows still drops the windows
        // in which the host stole CPU time, where a p99 pooled over the
        // run is moved by any three stalled chunks.
        let mut w = Windows::new(secs, 1.0, 1);
        let mut n = 0u64;
        while !w.roll() {
            n += 1;
            let open = trace::open("climate.chunk", n);
            let dt = chunk(CHUNK, &want, &mut out);
            if let Some(o) = open {
                trace::close_as(o, None, CHUNK as u64);
            }
            let Some(dt) = dt else { break };
            w.sample(0, dt * 1e6 / CHUNK as f64);
            w.op(CHUNK as u64);
        }
        out.store(traced, w.finish());
        if traced {
            coupling_probe(&mut out);
        }
        trace::disable();
    }
    out.report = vec![
        (
            "climate_ms_per_period",
            crate::stats::ratio(1e3, out.measured.ops_per_s()),
            "ms",
        ),
        ("climate_chunks", out.measured.samples(0) as f64, "count"),
    ];
    out
}

/// State the two probe ranks share.
struct Probe {
    sps: Mutex<[Option<Startpoint>; 2]>,
    ctxs: Mutex<[Option<Arc<Context>>; 2]>,
    barrier: Barrier,
    /// Per sender rank: (op, rsr return time, rsr span id).
    sent: [Mutex<(u64, u64, u32)>; 2],
    /// Per receiver rank: messages delivered, and the last handler entry.
    got: [AtomicU64; 2],
    entry: [AtomicU64; 2],
    bad: AtomicU64,
    passes: Mutex<Passes>,
    layer: Mutex<Outcome>,
    flux: Vec<u8>,
}

/// The traced coupling probe (see the module docs).
fn coupling_probe(out: &mut Outcome) {
    let probe = Arc::new(Probe {
        sps: Mutex::new([None, None]),
        ctxs: Mutex::new([None, None]),
        barrier: Barrier::new(2),
        sent: [
            Mutex::new((0, 0, trace::NONE)),
            Mutex::new((0, 0, trace::NONE)),
        ],
        got: [AtomicU64::new(0), AtomicU64::new(0)],
        entry: [AtomicU64::new(0), AtomicU64::new(0)],
        bad: AtomicU64::new(0),
        passes: Mutex::new(Passes::default()),
        layer: Mutex::new(Outcome::default()),
        flux: sched::pattern(0, 32, WIDTH * 8),
    });
    let ran = run_world(&WorldLayout::partitioned(vec![1, 2]), |p| {
        if let Err(e) = probe_rank(&p, &probe) {
            probe.bad.fetch_add(1, Ordering::Relaxed);
            probe
                .layer
                .lock()
                .expect("probe outcome")
                .fail(format!("coupling probe rank {}: {e}", p.rank()));
        }
        trace::flush();
    });
    // The handlers hold `probe`; drop its context and startpoint handles
    // so nothing outlives the world.
    *probe.ctxs.lock().expect("probe contexts") = [None, None];
    *probe.sps.lock().expect("probe startpoints") = [None, None];
    let mut l = std::mem::take(&mut *probe.layer.lock().expect("probe outcome"));
    if let Err(e) = ran {
        l.fail(format!("coupling probe world: {e}"));
    }
    out.attempted += 4 * PROBE_ITERS;
    out.failed += l.failed;
    out.errors.extend(l.errors);
    out.layer.append(&mut l.layer);
    let bad = probe.bad.load(Ordering::Relaxed);
    if bad > 0 && l.failed == 0 {
        out.fail(format!("{bad} coupling probe messages were wrong"));
    }
    probe
        .passes
        .lock()
        .expect("probe passes")
        .into_layer(&mut out.layer);
}

fn probe_rank(p: &nexus_mpi::Process, probe: &Arc<Probe>) -> Result<()> {
    let r = p.rank();
    let peer = 1 - r;
    let ctx = Arc::clone(p.context());
    let pr = Arc::clone(probe);
    ctx.register_handler("cpl", move |args| {
        let entry = trace::now_ns();
        let (op, sent_at, span) = *pr.sent[peer].lock().expect("probe stamps");
        trace::record(
            "wait.deliver.tcp",
            op,
            span,
            sent_at,
            entry,
            args.buffer.len() as u64,
        );
        let (ok, _) = trace::span("handler.recv", op, || {
            args.buffer.as_slice() == &pr.flux[..]
        });
        if !ok {
            pr.bad.fetch_add(1, Ordering::Relaxed);
        }
        pr.entry[r].store(entry, Ordering::Relaxed);
        pr.got[r].fetch_add(1, Ordering::Release);
    });
    let ep = ctx.create_endpoint();
    probe.sps.lock().expect("probe startpoints")[r] = Some(ctx.startpoint_to(ep)?);
    probe.ctxs.lock().expect("probe contexts")[r] = Some(Arc::clone(&ctx));
    probe.barrier.wait();
    let to_peer = probe.sps.lock().expect("probe startpoints")[peer]
        .clone()
        .expect("peer published its startpoint");
    let ctxs: Vec<Arc<Context>> = probe
        .ctxs
        .lock()
        .expect("probe contexts")
        .iter()
        .map(|c| Arc::clone(c.as_ref().expect("both contexts published")))
        .collect();

    let mut passes = Passes::default();
    // Both directions of round trip i share one op id.
    let send = |op: u64| -> Result<u64> {
        let mut buf = Buffer::with_capacity(probe.flux.len());
        buf.put_raw(&probe.flux);
        let issued = trace::now_ns();
        let (res, span) = trace::span("context.rsr", op, || ctx.rsr(&to_peer, "cpl", buf));
        *probe.sent[r].lock().expect("probe stamps") = (op, trace::now_ns(), span);
        res.map(|()| issued)
    };
    let wait = |n: u64, passes: &mut Passes| -> Result<()> {
        let deadline = Instant::now() + OP_TIMEOUT;
        while probe.got[r].load(Ordering::Acquire) < n {
            if common::progress(&ctx, passes)? == 0 {
                std::thread::yield_now();
            }
            if Instant::now() > deadline {
                return Err(NexusError::Timeout {
                    what: format!("coupling probe message {n} at rank {r}"),
                });
            }
        }
        Ok(())
    };

    let ctx_refs: Vec<&Arc<Context>> = ctxs.iter().collect();
    let counters = (r == 0).then(|| Counters::start(&ctx_refs));
    for i in 0..PROBE_ITERS {
        let op = (1 << 40) + i;
        if r == 0 {
            let issued = send(op)?;
            wait(i + 1, &mut passes)?;
            let entry = probe.entry[r].load(Ordering::Relaxed);
            trace::record("op.rtt", op, trace::NONE, issued, entry, 0);
        } else {
            wait(i + 1, &mut passes)?;
            send(op)?;
        }
    }
    probe.barrier.wait();
    if let Some(c) = counters {
        let bytes = 2 * PROBE_ITERS * probe.flux.len() as u64;
        let mut l = probe.layer.lock().expect("probe outcome");
        c.finish(&ctx_refs, PROBE_ITERS, bytes, &mut l.layer);
    }

    // The same exchange through the message-passing layer.
    let world = p.world();
    for i in 0..PROBE_ITERS {
        let op = (2 << 40) + i;
        let exchange = |first_send: bool| -> Result<()> {
            let do_send =
                || trace::span("mpi.send", op, || world.send(peer, TAG_PROBE, &probe.flux)).0;
            let do_recv = || -> Result<()> {
                let ((_, _, data), _) = {
                    let (r, id) =
                        trace::span("mpi.recv", op, || world.recv(Some(peer), Some(TAG_PROBE)));
                    (r?, id)
                };
                if data != probe.flux {
                    probe.bad.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            };
            if first_send {
                do_send()?;
                do_recv()
            } else {
                do_recv()?;
                do_send()
            }
        };
        exchange(r == 0)?;
    }
    let mut all = probe.passes.lock().expect("probe passes");
    all.all += passes.all;
    all.useful += passes.useful;
    all.msgs += passes.msgs;
    Ok(())
}
