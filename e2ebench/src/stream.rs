//! `stream`: one TCP link with a credit window of 64 outstanding RSRs,
//! seeded payloads of 16–256 B, a single driver thread. Throughput-bound
//! with many messages in flight; every message must arrive exactly once
//! and in order.

use crate::common::{self, secs, Counters, Opts, Outcome, Passes, Until, Windows, OP_TIMEOUT};
use crate::sched;
use crate::trace;
use nexus_rt::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Outstanding RSRs allowed (the credit window).
pub const WINDOW: u64 = 64;

/// One outstanding message's stamps, indexed by `seq % WINDOW`.
#[derive(Debug, Default, Clone, Copy)]
struct Slot {
    issued_at: u64,
    sent_at: u64,
    span: u32,
}

#[derive(Debug, Default)]
struct State {
    slots: Vec<Slot>,
    next: u64,
    lat_us: Vec<f64>,
    bad: u64,
    first_bad: Option<String>,
}

struct Setup {
    fabric: Fabric,
    tx: Arc<Context>,
    rx: Arc<Context>,
    sp: Startpoint,
    state: Arc<Mutex<State>>,
}

fn build(pattern: &Arc<Vec<u8>>, sizes: &Arc<Vec<usize>>) -> Result<Setup> {
    let fabric = common::fabric();
    let tx = common::context(&fabric, 1, 1)?;
    let rx = common::context(&fabric, 2, 2)?;
    let state = Arc::new(Mutex::new(State {
        slots: vec![Slot::default(); WINDOW as usize],
        next: 1,
        ..State::default()
    }));
    let st = Arc::clone(&state);
    let (pat, sz) = (Arc::clone(pattern), Arc::clone(sizes));
    rx.register_handler("msg", move |args| {
        let entry = trace::now_ns();
        let mut s = st.lock().expect("stream state");
        let seq = s.next;
        s.next += 1;
        let slot = s.slots[(seq % WINDOW) as usize];
        let len = sz[seq as usize % sz.len()];
        let bytes = args.buffer.as_slice();
        trace::record(
            "wait.deliver.tcp",
            seq,
            slot.span,
            slot.sent_at,
            entry,
            bytes.len() as u64,
        );
        let (ok, _) = trace::span("handler.recv", seq, || {
            common::verify(bytes, seq, &pat, len)
        });
        if !ok {
            s.bad += 1;
            if s.first_bad.is_none() {
                s.first_bad = Some(format!(
                    "message {} arrived where {seq} was due",
                    common::seq_of(bytes)
                ));
            }
        }
        trace::record(
            "op.lat",
            seq,
            trace::NONE,
            slot.issued_at,
            entry,
            len as u64,
        );
        s.lat_us
            .push(entry.saturating_sub(slot.issued_at) as f64 / 1e3);
    });
    let ep = rx.create_endpoint();
    let sp = rx.startpoint_to(ep)?;
    Ok(Setup {
        fabric,
        tx,
        rx,
        sp,
        state,
    })
}

/// Totals of one drive.
#[derive(Default)]
struct Drive {
    issued: u64,
    payload_bytes: u64,
}

/// Keeps the window full until `until` is reached, then drains what is
/// in flight. Latencies recorded by the handler feed `until`.
fn drive(
    s: &Setup,
    sizes: &[usize],
    pattern: &[u8],
    out: &mut Outcome,
    passes: &mut Passes,
    until: &mut Until,
) -> Drive {
    let mut d = Drive::default();
    let mut lat = Vec::new();
    let base = s.state.lock().expect("stream state").next - 1;
    let mut delivered = 0u64;
    let mut check = 0u32;
    'run: loop {
        check = check.wrapping_add(1);
        if check.is_multiple_of(16) && until.reached(delivered) {
            break;
        }
        let room = match until {
            Until::Ops(n) => (*n).min(delivered + WINDOW),
            _ => delivered + WINDOW,
        };
        while d.issued < room {
            let seq = base + d.issued + 1;
            let len = sizes[seq as usize % sizes.len()];
            let buf = common::payload(seq, pattern, len);
            let slot = (seq % WINDOW) as usize;
            s.state.lock().expect("stream state").slots[slot].issued_at = trace::now_ns();
            let (r, span) = trace::span("context.rsr", seq, || s.tx.rsr(&s.sp, "msg", buf));
            {
                let mut st = s.state.lock().expect("stream state");
                st.slots[slot].sent_at = trace::now_ns();
                st.slots[slot].span = span;
            }
            out.attempted += 1;
            d.issued += 1;
            d.payload_bytes += len as u64;
            if let Err(e) = r {
                out.fail(format!("rsr {seq}: {e}"));
                break 'run;
            }
        }
        if let Err(e) = common::progress(&s.rx, passes) {
            out.fail(format!("progress: {e}"));
            break;
        }
        std::mem::swap(&mut lat, &mut s.state.lock().expect("stream state").lat_us);
        delivered += lat.len() as u64;
        for us in lat.drain(..) {
            until.complete(0, us);
        }
    }
    let deadline = Instant::now() + OP_TIMEOUT;
    let arrived = || s.state.lock().expect("stream state").next - 1 - base;
    while arrived() < d.issued && Instant::now() < deadline {
        let _ = common::progress(&s.rx, passes);
    }
    let mut st = s.state.lock().expect("stream state");
    st.lat_us.clear();
    let got = st.next - 1 - base;
    if got < d.issued {
        out.failed += d.issued - got;
        out.errors.push(format!(
            "{} of {} messages never arrived",
            d.issued - got,
            d.issued
        ));
    }
    if st.bad > 0 {
        out.failed += st.bad;
        out.errors.extend(st.first_bad.take());
        st.bad = 0;
    }
    d
}

/// Builds the fabric and delivers one message: the set-up `setup_s`
/// times.
fn ready(
    pattern: &Arc<Vec<u8>>,
    sizes: &Arc<Vec<usize>>,
    out: &mut Outcome,
) -> Option<(Setup, f64)> {
    let t = Instant::now();
    let s = match build(pattern, sizes) {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("setup: {e}"));
            return None;
        }
    };
    drive(
        &s,
        sizes,
        pattern,
        out,
        &mut Passes::default(),
        &mut Until::Ops(1),
    );
    Some((s, secs(t)))
}

fn inputs(opts: &Opts) -> (Arc<Vec<u8>>, Arc<Vec<usize>>) {
    (
        Arc::new(sched::pattern(opts.seed, 7, 256)),
        Arc::new(sched::stream_schedule(opts.seed)),
    )
}

/// One set-up in this process (the `--setup-probe` side).
pub fn setup_probe(opts: &Opts) -> std::result::Result<f64, String> {
    let (pattern, sizes) = inputs(opts);
    let mut out = Outcome::default();
    let got = ready(&pattern, &sizes, &mut out).map(|(s, secs)| {
        s.fabric.shutdown();
        secs
    });
    common::probe_result(out, got)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (pattern, sizes) = inputs(opts);
    let Some((s, secs)) = ready(&pattern, &sizes, &mut out) else {
        return out;
    };
    out.setup_s.push(secs);
    common::setup_samples("stream", opts, &mut out);
    let warm = Instant::now() + Duration::from_millis(200);
    drive(
        &s,
        &sizes,
        &pattern,
        &mut out,
        &mut Passes::default(),
        &mut Until::Time(warm),
    );
    if out.failed > 0 {
        return out;
    }
    out.attempted = 0;

    let ctxs = [&s.tx, &s.rx];
    for (traced, secs) in opts.phases() {
        let counters = traced.then(|| {
            trace::enable(64);
            Counters::start(&ctxs)
        });
        let mut passes = Passes::default();
        let mut w = Windows::new(secs, 1.0, 1);
        let until = &mut Until::Windows(&mut w);
        let d = drive(&s, &sizes, &pattern, &mut out, &mut passes, until);
        trace::disable();
        if let Some(c) = counters {
            c.finish(&ctxs, d.issued, d.payload_bytes, &mut out.layer);
            passes.into_layer(&mut out.layer);
        }
        out.store(traced, w.finish());
    }
    s.fabric.shutdown();

    let (p50, p99) = out.measured.lat(0);
    out.report = vec![
        ("stream_msgs_per_s", out.measured.ops_per_s(), "1/s"),
        ("stream_lat_p50_us", p50, "us"),
        ("stream_lat_p99_us", p99, "us"),
    ];
    out
}
