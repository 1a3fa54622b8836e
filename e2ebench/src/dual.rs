//! `dual-pingpong`: Fig. 6 run live. One driver context in partition 1
//! talks to an MPL echo context (partition 1, another node) and a TCP
//! echo context (partition 2); methods are chosen automatically. Two
//! ping-pongs run concurrently, each with one RSR in flight, and one
//! thread round-robins `progress()` over the three contexts.

use crate::common::{self, secs, Counters, Opts, Outcome, Passes, Until, Windows};
use crate::pingpong::{Completion, PingPong};
use crate::sched;
use crate::trace;
use nexus_rt::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ping-pong index, which is also its latency series: the MPL round
/// trip, which pays for co-polling TCP (Fig. 4's effect), is the primary
/// series; the TCP round trip, whose tail follows the host's scheduling
/// noise, is the second.
const MPL: usize = 0;
const TCP: usize = 1;

struct Setup {
    fabric: Fabric,
    ctxs: [Arc<Context>; 3],
    pp: [PingPong; 2],
}

fn build(opts: &Opts) -> Result<Setup> {
    let fabric = common::fabric();
    let driver = common::context(&fabric, 1, 1)?;
    let mpl_echo = common::context(&fabric, 2, 1)?;
    let tcp_echo = common::context(&fabric, 3, 2)?;
    let series = |s: usize, echo: &Context, deliver| {
        PingPong::new(
            &driver,
            echo,
            s as u64,
            deliver,
            sched::ping_schedule(opts.seed, s as u64),
            sched::pattern(opts.seed, s as u64, sched::PING_SIZES[2]),
        )
    };
    let pp = [
        series(MPL, &mpl_echo, "wait.deliver.mpl")?,
        series(TCP, &tcp_echo, "wait.deliver.tcp")?,
    ];
    Ok(Setup {
        fabric,
        ctxs: [driver, mpl_echo, tcp_echo],
        pp,
    })
}

/// Round-robins the two ping-pongs until `until` is reached; returns
/// completed round trips and TCP payload bytes moved.
fn drive(s: &Setup, out: &mut Outcome, passes: &mut Passes, until: &mut Until) -> (u64, u64) {
    let (mut done, mut tcp_bytes) = (0u64, 0u64);
    let mut turn = 0u32;
    'outer: loop {
        turn = turn.wrapping_add(1);
        if turn.is_multiple_of(64) && until.reached(done) {
            break;
        }
        for (i, pp) in s.pp.iter().enumerate() {
            match pp.completion() {
                Some(Completion::Ok { rtt_ns, bytes }) => {
                    until.sample(i, rtt_ns as f64 / 1e3);
                    done += 1;
                    if i == TCP {
                        // The op rate counts TCP round trips: the MPL rate
                        // only fills whatever loop time TCP leaves over.
                        until.ops(1);
                        tcp_bytes += 2 * bytes as u64;
                    }
                }
                Some(Completion::Failed(why)) => {
                    out.fail(why);
                    break 'outer;
                }
                None => {}
            }
            if !pp.in_flight() {
                if matches!(until, Until::Ops(n) if done >= *n) {
                    continue;
                }
                out.attempted += 1;
                if let Err(e) = pp.issue(&s.ctxs[0], None) {
                    out.fail(format!("ping rsr: {e}"));
                    break 'outer;
                }
            }
        }
        for c in &s.ctxs {
            if let Err(e) = common::progress(c, passes) {
                out.fail(format!("progress: {e}"));
                break 'outer;
            }
        }
    }
    // Collect the pings still in flight so every attempt is accounted for.
    let deadline = Instant::now() + common::OP_TIMEOUT;
    while s.pp.iter().any(PingPong::in_flight) && Instant::now() < deadline {
        for c in &s.ctxs {
            let _ = common::progress(c, passes);
        }
        for pp in &s.pp {
            if let Some(Completion::Failed(why)) = pp.completion() {
                out.fail(why);
            }
        }
    }
    (done, tcp_bytes)
}

/// Builds the fabric and completes one round trip per series: the
/// set-up `setup_s` times.
fn ready(opts: &Opts, out: &mut Outcome) -> Option<(Setup, f64)> {
    let t = Instant::now();
    let s = match build(opts) {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("setup: {e}"));
            return None;
        }
    };
    drive(&s, out, &mut Passes::default(), &mut Until::Ops(2));
    Some((s, secs(t)))
}

/// One set-up in this process (the `--setup-probe` side).
pub fn setup_probe(opts: &Opts) -> std::result::Result<f64, String> {
    let mut out = Outcome::default();
    let got = ready(opts, &mut out).map(|(s, secs)| {
        s.fabric.shutdown();
        secs
    });
    common::probe_result(out, got)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let Some((s, secs)) = ready(opts, &mut out) else {
        return out;
    };
    out.setup_s.push(secs);
    common::setup_samples("dual-pingpong", opts, &mut out);
    // Warm caches and EWMAs before timing.
    let warm = Instant::now() + Duration::from_millis(200);
    drive(&s, &mut out, &mut Passes::default(), &mut Until::Time(warm));
    if out.failed > 0 {
        return out;
    }
    out.attempted = 0;

    let ctx_refs: Vec<&Arc<Context>> = s.ctxs.iter().collect();
    for (traced, secs) in opts.phases() {
        let counters = traced.then(|| {
            trace::enable(64);
            Counters::start(&ctx_refs)
        });
        let mut passes = Passes::default();
        let mut w = Windows::new(secs, 1.0, 2);
        let (ops, tcp_bytes) = drive(&s, &mut out, &mut passes, &mut Until::Windows(&mut w));
        trace::disable();
        if let Some(c) = counters {
            c.finish(&ctx_refs, ops, tcp_bytes, &mut out.layer);
            passes.into_layer(&mut out.layer);
        }
        out.store(traced, w.finish());
    }
    s.fabric.shutdown();

    let m = &out.measured;
    let (t50, t99) = m.lat(TCP);
    let (m50, m99) = m.lat(MPL);
    out.report = vec![
        ("mpl_rtt_p50_us", m50, "us"),
        ("mpl_rtt_p99_us", m99, "us"),
        ("mpl_samples", m.samples(MPL) as f64, "count"),
        ("tcp_rtt_p50_us", t50, "us"),
        ("tcp_rtt_p99_us", t99, "us"),
        ("tcp_samples", m.samples(TCP) as f64, "count"),
    ];
    out
}
