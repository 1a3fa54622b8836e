//! `bulk`: one bulk transfer in flight at a time, seeded sizes
//! {64 KiB, 1 MiB, 4 MiB} in seeded order, over three startpoints that
//! point at one receiver endpoint (partition 2, so only socket methods
//! apply):
//!
//! - `eager`: plain `Context::rsr`;
//! - `pull`: `Context::rsr_bulk` with a rendezvous cutoff of 0;
//! - `stripe`: `Context::set_striped` over exactly two rails, TCP and
//!   RUDP (UDP is taken out of the startpoint's table first).
//!
//! While each transfer is in flight a timed 16 B control ping-pong runs
//! on the same startpoint. The sender is driven by this thread; the
//! receiver by one progress thread of its own (an eager 4 MiB send
//! blocks in the socket write until the receiver drains it).

use crate::common::{self, secs, Counters, Opts, Outcome, Passes, Until, Windows, OP_TIMEOUT};
use crate::pingpong::{Completion, PingPong};
use crate::sched::{self, BULK_KINDS, BULK_SIZES};
use crate::trace;
use bytes::Bytes;
use nexus_rt::prelude::*;
use nexus_rt::stripe::DEFAULT_CUTOFF;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The issue-call span of each kind.
const SPANS: [&str; 3] = [
    "context.rsr_bulk.eager",
    "context.rsr_bulk.pull",
    "context.rsr_bulk.stripe",
];

#[derive(Debug, Default)]
struct Expect {
    op: u64,
    kind: usize,
    size: usize,
    issued_at: u64,
    /// (handler entry time, payload byte-exact)
    done: Option<(u64, bool)>,
    strays: u64,
}

struct Setup {
    fabric: Fabric,
    tx: Arc<Context>,
    rx: Arc<Context>,
    sps: [Startpoint; 3],
    ctl: PingPong,
    expect: Arc<Mutex<Expect>>,
}

fn build(opts: &Opts, patterns: &Arc<Vec<Bytes>>) -> Result<Setup> {
    let fabric = common::fabric();
    let tx = common::context(&fabric, 1, 1)?;
    let rx = common::context(&fabric, 2, 2)?;
    let expect = Arc::new(Mutex::new(Expect::default()));
    let ex = Arc::clone(&expect);
    let pats = Arc::clone(patterns);
    rx.register_handler("blk", move |args| {
        let entry = trace::now_ns();
        let mut e = ex.lock().expect("bulk state");
        let (ok, _) = trace::span("handler.recv", e.op, || {
            args.buffer.as_slice() == &pats[e.size][..]
        });
        if e.done.is_none() {
            e.done = Some((entry, ok));
        } else {
            e.strays += 1;
        }
    });
    let ep = rx.create_endpoint();
    let sps = [
        rx.startpoint_to(ep)?,
        rx.startpoint_to(ep)?,
        rx.startpoint_to(ep)?,
    ];
    tx.set_rendezvous(&sps[1], 0);
    let target = sps[2].targets()[0];
    sps[2].edit_table(target, |t| {
        t.remove(MethodId::UDP);
    });
    let striped = tx.set_striped(&sps[2], DEFAULT_CUTOFF)?;
    if striped != 1 {
        return Err(NexusError::NoApplicableMethod {
            target: target.context,
        });
    }
    let ctl = PingPong::new(
        &tx,
        &rx,
        0,
        "wait.deliver.tcp",
        vec![16],
        sched::pattern(opts.seed, 9, 16),
    )?;
    Ok(Setup {
        fabric,
        tx,
        rx,
        sps,
        ctl,
        expect,
    })
}

/// Per-rail received bytes at the receiver (stripe chunks land on the
/// TCP and RUDP receivers).
fn rail_bytes(rx: &Context) -> [u64; 2] {
    [
        rx.stats().snapshot_method(MethodId::TCP).recv_bytes,
        rx.stats().snapshot_method(MethodId::RUDP).recv_bytes,
    ]
}

#[derive(Default)]
struct Drive {
    transfers: u64,
    bytes: u64,
    busy_s: f64,
    rail: [u64; 2],
    ctl_bytes: u64,
}

/// Runs scheduled transfers from `next` until `until` is reached.
fn drive(
    s: &Setup,
    sched: &[(usize, usize)],
    patterns: &[Bytes],
    next: &mut usize,
    out: &mut Outcome,
    passes: &mut Passes,
    until: &mut Until,
) -> Drive {
    let mut d = Drive::default();
    while !until.reached(d.transfers) {
        let (kind, size) = sched[*next % sched.len()];
        *next += 1;
        let op = *next as u64;
        {
            let mut e = s.expect.lock().expect("bulk state");
            *e = Expect {
                op,
                kind,
                size,
                issued_at: trace::now_ns(),
                ..Expect::default()
            };
        }
        let rails_before = rail_bytes(&s.rx);
        let buf = Buffer::from_bytes(patterns[size].clone());
        out.attempted += 1;
        let t0 = trace::now_ns();
        let sp = &s.sps[kind];
        let (sent, _) = trace::span(SPANS[kind], op, || match kind {
            1 => s.tx.rsr_bulk(sp, "blk", buf),
            _ => s.tx.rsr(sp, "blk", buf),
        });
        if let Err(e) = sent {
            out.fail(format!("{} {} B: {e}", BULK_KINDS[kind], BULK_SIZES[size]));
            return d;
        }
        // Control pings on the same startpoint until the transfer lands
        // and the last ping is back.
        let finished = loop {
            let done = s.expect.lock().expect("bulk state").done;
            if !s.ctl.in_flight() {
                if done.is_some() {
                    break done;
                }
                out.attempted += 1;
                if let Err(e) = s.ctl.issue(&s.tx, Some(sp)) {
                    out.fail(format!("control ping: {e}"));
                    return d;
                }
            }
            match common::progress(&s.tx, passes) {
                // Three busy threads (driver, receiver, reactor) share two
                // cores: give the CPU away when there was nothing to do.
                Ok(0) => std::thread::yield_now(),
                Ok(_) => {}
                Err(e) => {
                    out.fail(format!("progress: {e}"));
                    return d;
                }
            }
            match s.ctl.completion() {
                Some(Completion::Ok { rtt_ns, bytes }) => {
                    until.sample(1, rtt_ns as f64 / 1e3);
                    d.ctl_bytes += 2 * bytes as u64;
                }
                Some(Completion::Failed(why)) => {
                    out.fail(why);
                    return d;
                }
                None => {}
            }
            if trace::now_ns() - t0 > OP_TIMEOUT.as_nanos() as u64 {
                break None;
            }
        };
        let strays = s.expect.lock().expect("bulk state").strays;
        match finished {
            Some((at, true)) if strays == 0 => {
                trace::record("op.bulk", op, trace::NONE, t0, at, BULK_SIZES[size] as u64);
                d.transfers += 1;
                until.complete(0, at.saturating_sub(t0) as f64 / 1e3);
                d.bytes += BULK_SIZES[size] as u64;
                d.busy_s += at.saturating_sub(t0) as f64 / 1e9;
            }
            Some(_) => {
                out.fail(format!(
                    "{} {} B arrived corrupted or twice",
                    BULK_KINDS[kind], BULK_SIZES[size]
                ));
                return d;
            }
            None => {
                out.fail(format!(
                    "{} {} B timed out",
                    BULK_KINDS[kind], BULK_SIZES[size]
                ));
                return d;
            }
        }
        if kind == 2 {
            let after = rail_bytes(&s.rx);
            d.rail[0] += after[0] - rails_before[0];
            d.rail[1] += after[1] - rails_before[1];
        }
    }
    d
}

fn patterns(opts: &Opts) -> Arc<Vec<Bytes>> {
    Arc::new(
        BULK_SIZES
            .iter()
            .enumerate()
            .map(|(i, &len)| Bytes::from(sched::pattern(opts.seed, 16 + i as u64, len)))
            .collect(),
    )
}

/// Builds the fabric and completes the first scheduled transfer: the
/// set-up `setup_s` times.
fn ready(
    opts: &Opts,
    patterns: &Arc<Vec<Bytes>>,
    schedule: &[(usize, usize)],
    next: &mut usize,
    out: &mut Outcome,
) -> Option<(Setup, f64)> {
    let t = Instant::now();
    let s = match build(opts, patterns) {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("setup: {e}"));
            return None;
        }
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let h = scope.spawn(|| serve(&s.rx, &s.expect, &stop, &mut Passes::default()));
        let mut p = Passes::default();
        drive(
            &s,
            schedule,
            patterns,
            next,
            out,
            &mut p,
            &mut Until::Ops(1),
        );
        stop.store(true, Ordering::Relaxed);
        h.join().expect("receiver thread");
    });
    Some((s, secs(t)))
}

/// One set-up in this process (the `--setup-probe` side).
pub fn setup_probe(opts: &Opts) -> std::result::Result<f64, String> {
    let mut out = Outcome::default();
    let schedule = sched::bulk_schedule(opts.seed);
    let got = ready(opts, &patterns(opts), &schedule, &mut 0, &mut out).map(|(s, secs)| {
        s.fabric.shutdown();
        secs
    });
    common::probe_result(out, got)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let patterns = patterns(opts);
    let schedule = sched::bulk_schedule(opts.seed);
    let mut next = 0usize;
    let stop_rx = AtomicBool::new(false);
    let rx_passes = Mutex::new(Passes::default());
    let mut passes = Passes::default();
    let Some((s, secs)) = ready(opts, &patterns, &schedule, &mut next, &mut out) else {
        return out;
    };
    out.setup_s.push(secs);
    common::setup_samples("bulk", opts, &mut out);
    if out.failed > 0 {
        s.fabric.shutdown();
        return out;
    }

    let ctxs = [&s.tx, &s.rx];
    let mut counters = None;
    let d = std::thread::scope(|scope| {
        let h = scope.spawn(|| {
            let mut p = Passes::default();
            serve(&s.rx, &s.expect, &stop_rx, &mut p);
            trace::flush();
            *rx_passes.lock().expect("receiver passes") = p;
        });
        let warm = Instant::now() + Duration::from_millis(200);
        let mut p = Passes::default();
        drive(
            &s,
            &schedule,
            &patterns,
            &mut next,
            &mut out,
            &mut p,
            &mut Until::Time(warm),
        );
        let mut base = Drive::default();
        if out.failed == 0 {
            out.attempted = 0;
            for (traced, secs) in opts.phases() {
                let c = traced.then(|| {
                    trace::enable(1);
                    Counters::start(&ctxs)
                });
                let mut w = Windows::new(secs, 4.0, 2);
                let until = &mut Until::Windows(&mut w);
                let d = drive(&s, &schedule, &patterns, &mut next, &mut out, &mut p, until);
                trace::disable();
                out.store(traced, w.finish());
                match c {
                    Some(c) => counters = Some((c, d.transfers, d.bytes + d.ctl_bytes)),
                    None => base = d,
                }
                if out.failed > 0 {
                    break;
                }
            }
        }
        stop_rx.store(true, Ordering::Relaxed);
        h.join().expect("receiver thread");
        let rx_p = *rx_passes.lock().expect("receiver passes");
        p.all += rx_p.all;
        p.useful += rx_p.useful;
        p.msgs += rx_p.msgs;
        passes = p;
        base
    });
    if out.failed > 0 {
        s.fabric.shutdown();
        return out;
    }
    // Every exposed region must be released once its pull completed.
    let drained = Instant::now() + OP_TIMEOUT;
    while s.tx.bulk_regions() > 0 && Instant::now() < drained {
        let _ = s.tx.progress();
        let _ = s.rx.progress();
    }
    let regions_left = s.tx.bulk_regions();
    if regions_left > 0 {
        out.fail(format!("{regions_left} bulk regions never released"));
    }
    if let Some((c, transfers, bytes)) = counters {
        c.finish(&ctxs, transfers, bytes, &mut out.layer);
        passes.into_layer(&mut out.layer);
    }
    s.fabric.shutdown();

    let secs = out.measured.secs;
    let rail_total = (d.rail[0] + d.rail[1]) as f64;
    let (x50, x99) = out.measured.lat(0);
    let (c50, c99) = out.measured.lat(1);
    out.report = vec![
        (
            "bulk_MBps",
            crate::stats::ratio(d.bytes as f64 / 1e6, secs),
            "MB/s",
        ),
        ("bulk_transfer_p50_us", x50, "us"),
        ("bulk_transfer_p99_us", x99, "us"),
        ("bulk_ctl_rtt_p50_us", c50, "us"),
        ("bulk_ctl_rtt_p99_us", c99, "us"),
        ("bulk_transfers", d.transfers as f64, "count"),
        ("bulk.regions_left", regions_left as f64, "count"),
        (
            "stripe.rail_share.tcp",
            crate::stats::ratio(d.rail[0] as f64, rail_total),
            "frac",
        ),
        (
            "stripe.rail_share.rudp",
            crate::stats::ratio(d.rail[1] as f64, rail_total),
            "frac",
        ),
        (
            "bulk_busy_frac",
            crate::stats::ratio(d.busy_s, secs),
            "frac",
        ),
    ];
    out
}

/// The receiver's progress loop: runs until `stop`, yielding the CPU on
/// empty passes.
///
/// It is also the watchdog: a transfer outstanding for twice the op
/// timeout means the driver is blocked inside a socket write, where it
/// cannot notice, so this thread ends the run with a failed result.
fn serve(rx: &Context, expect: &Mutex<Expect>, stop: &AtomicBool, passes: &mut Passes) {
    let mut n = 0u32;
    while !stop.load(Ordering::Relaxed) {
        match common::progress(rx, passes) {
            Ok(0) | Err(_) => std::thread::yield_now(),
            Ok(_) => {}
        }
        n = n.wrapping_add(1);
        if n.is_multiple_of(1024) {
            let e = expect.lock().expect("bulk state");
            let waited = trace::now_ns().saturating_sub(e.issued_at);
            if e.done.is_none() && e.issued_at > 0 && waited > 2 * OP_TIMEOUT.as_nanos() as u64 {
                crate::abandon(&format!(
                    "{} transfer of {} B stalled for {:.1} s with the driver blocked",
                    BULK_KINDS[e.kind],
                    BULK_SIZES[e.size],
                    waited as f64 / 1e9
                ));
            }
        }
    }
}
