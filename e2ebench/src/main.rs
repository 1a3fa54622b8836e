//! End-to-end benchmark of the nexus runtime over real loopback sockets.
//!
//! ```text
//! e2ebench --workload <dual-pingpong|stream|bulk|climate> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload untraced for `--seconds` and prints
//! the end-to-end metrics. `--trace 1` measures it untraced and then
//! traced, half the time each, writes the recorded spans under `out/`,
//! and prints the per-layer metrics plus the tracing overhead (traced
//! minus untraced). The last stdout line is the result object; the line
//! before it is a report with the host fingerprint, the in-run references
//! and the workload's own figures. See README.md.

mod alloc;
mod bulk;
mod climate;
mod common;
mod dual;
mod host;
mod metrics;
mod pingpong;
mod sched;
mod stats;
mod stream;
mod trace;

use common::{Opts, Outcome};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const WORKLOADS: &[&str] = &["dual-pingpong", "stream", "bulk", "climate"];

/// Whether this run reports per-layer metrics (set once from `--trace`).
static TRACED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Ends the run from any thread when an op can no longer complete (for
/// example a driver blocked in a socket write that will never drain):
/// prints a failed result and exits, instead of hanging.
pub fn abandon(why: &str) -> ! {
    let decl = if TRACED.load(std::sync::atomic::Ordering::Relaxed) {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    println!(
        "{{\"report\": {{\"host\": {}, \"errors\": [{}]}}}}",
        host::fingerprint(),
        host::json_str(why)
    );
    println!(
        "{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}}",
        metrics_json(decl, &BTreeMap::new())
    );
    std::process::exit(1)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Time one set-up and exit (the child side of `setup_s`).
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            "--setup-probe" => setup_probe = val == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        setup_probe,
    })
}

fn run_workload(name: &str, opts: &Opts) -> Outcome {
    match name {
        "dual-pingpong" => dual::run(opts),
        "stream" => stream::run(opts),
        "bulk" => bulk::run(opts),
        "climate" => climate::run(opts),
        _ => unreachable!("workload names are validated"),
    }
}

/// The end-to-end metrics of one measured phase.
fn end_to_end(m: &common::Measured, setup_s: &[f64], rss_mb: f64) -> BTreeMap<&'static str, f64> {
    let (p50, p99) = m.lat(0);
    BTreeMap::from([
        ("setup_s", stats::median(setup_s)),
        ("peak_rss_mb", rss_mb),
        ("ops_per_s", m.ops_per_s()),
        ("lat_p50_us", p50),
        ("lat_p99_us", p99),
    ])
}

/// Per-layer metrics derived from the recorded spans.
fn span_layers(spans: &[trace::Span], layer: &mut BTreeMap<&'static str, f64>) {
    use stats::{median, p50_p99};
    let us = |name: &str| -> Vec<f64> {
        trace::durations(spans, name)
            .into_iter()
            .map(|ns| ns / 1e3)
            .collect()
    };
    let (r50, r99) = p50_p99(&trace::durations(spans, "context.rsr"));
    layer.insert("context.rsr_ns_p50", r50);
    layer.insert("context.rsr_ns_p99", r99);
    layer.insert(
        "poll.pass_ns_p50",
        median(&trace::self_times(spans, "poll.pass")),
    );
    layer.insert(
        "poll.empty_pass_ns_p50",
        median(&trace::durations(spans, "poll.empty")),
    );
    let (m50, m99) = p50_p99(&us("wait.deliver.mpl"));
    layer.insert("wait.deliver_us_p50.mpl", m50);
    layer.insert("wait.deliver_us_p99.mpl", m99);
    let (t50, t99) = p50_p99(&us("wait.deliver.tcp"));
    layer.insert("wait.deliver_us_p50.tcp", t50);
    layer.insert("wait.deliver_us_p99.tcp", t99);
    layer.insert("mpi.send_us_p50", median(&us("mpi.send")));
    layer.insert("mpi.recv_us_p50", median(&us("mpi.recv")));
    let stages = [
        "context.rsr",
        "wait.deliver.mpl",
        "wait.deliver.tcp",
        "handler.echo",
        "handler.pong",
        "handler.recv",
    ];
    let mut uncovered = trace::uncovered_shares(spans, "op.rtt", &stages);
    uncovered.extend(trace::uncovered_shares(spans, "op.lat", &stages));
    layer.insert("trace.unaccounted_frac", median(&uncovered));
    layer.insert("trace.spans", spans.len() as f64);
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn metrics_json(decl: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let body: Vec<String> = decl
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                host::json_str(name),
                num(v),
                host::json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn rows_json(rows: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                host::json_str(n),
                num(*v),
                host::json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Per-window op rate and primary-series percentiles, for the report.
fn windows_json(m: &common::Measured) -> String {
    let body: Vec<String> = m
        .windows
        .iter()
        .map(|w| {
            let (p50, p99, n) = w.series[0];
            format!(
                "{{\"ops_per_s\": {}, \"p50_us\": {}, \"p99_us\": {}, \"samples\": {n}}}",
                num(w.ops_per_s),
                num(p50),
                num(p99)
            )
        })
        .collect();
    format!("[{}]", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    TRACED.store(args.trace, std::sync::atomic::Ordering::Relaxed);
    let opts = |seconds, traced| Opts {
        seed: args.seed,
        seconds,
        traced,
    };
    if args.setup_probe {
        let o = opts(0.0, false);
        return common::report_probe(match args.workload.as_str() {
            "dual-pingpong" => dual::setup_probe(&o),
            "stream" => stream::setup_probe(&o),
            "bulk" => bulk::setup_probe(&o),
            _ => climate::setup_probe(&o),
        });
    }

    let ticks = host::cpu_ticks();
    let (out, values, decl, spans_file) = if args.trace {
        let mut out = run_workload(&args.workload, &opts(args.seconds, true));
        let (spans, dropped) = trace::drain();
        let mut layer = std::mem::take(&mut out.layer);
        span_layers(&spans, &mut layer);
        // Bulk issue-call times (the `bulk` workload only) go to its report.
        for (span, row) in [
            ("context.rsr_bulk.eager", "context.rsr_bulk_us_p50.eager"),
            ("context.rsr_bulk.pull", "context.rsr_bulk_us_p50.pull"),
            ("context.rsr_bulk.stripe", "context.rsr_bulk_us_p50.stripe"),
        ] {
            let ns = trace::durations(&spans, span);
            if !ns.is_empty() {
                out.report.push((row, stats::median(&ns) / 1e3, "us"));
            }
        }
        let b = end_to_end(&out.measured, &out.setup_s, 0.0);
        let t = end_to_end(
            out.traced.as_ref().unwrap_or(&out.measured),
            &out.setup_s,
            0.0,
        );
        for (m, name) in [
            ("ops_per_s", "trace.overhead.ops_per_s"),
            ("lat_p50_us", "trace.overhead.lat_p50_us"),
            ("lat_p99_us", "trace.overhead.lat_p99_us"),
        ] {
            layer.insert(name, t[m] - b[m]);
        }
        layer.insert(
            "climate.serial_ms_per_period",
            climate::serial_ms_per_period(),
        );
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        let file = dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| trace::write_tsv(&file, &spans))
            .map(|()| {
                format!(
                    "{} ({} spans, {dropped} past the cap)",
                    file.display(),
                    spans.len()
                )
            });
        let spans_file = match written {
            Ok(s) => s,
            Err(e) => format!("not written: {e}"),
        };
        (out, layer, metrics::PER_LAYER, Some(spans_file))
    } else {
        let out = run_workload(&args.workload, &opts(args.seconds, false));
        let rss = host::peak_rss_mb();
        let values = end_to_end(&out.measured, &out.setup_s, rss);
        (out, values, metrics::END_TO_END, None)
    };

    let steal = host::steal_frac(ticks, host::cpu_ticks());
    // In-run references, measured after the workload so their buffers do
    // not count toward its peak RSS.
    let raw = host::raw_tcp_rtt_us(Duration::from_millis(300)).unwrap_or(0.0);
    let memcpy = host::memcpy_gbps(Duration::from_millis(200));
    let mut values = values;
    if args.trace {
        values.insert("ref.raw_tcp_rtt_us", raw);
        values.insert("ref.memcpy_GBps", memcpy);
    }

    for name in values.keys() {
        assert!(
            decl.iter().any(|(n, _)| n == name),
            "metric {name} is emitted but not declared"
        );
    }
    let attempted = out.attempted.max(1);
    let failed = out.failed;
    let correct = failed == 0 && out.attempted > 0;
    let mut rows = out.report.clone();
    rows.push(("failed_frac", failed as f64 / attempted as f64, "frac"));
    rows.push(("ref.raw_tcp_rtt_us", raw, "us"));
    rows.push(("ref.memcpy_GBps", memcpy, "GB/s"));
    rows.push(("host.steal_frac", steal, "frac"));
    let errors: Vec<String> = out.errors.iter().map(|e| host::json_str(e)).collect();
    println!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {}, \"rows\": {}, \"windows\": {}, \"lat_samples\": {}, \"p99_resolved\": {}, \"spans\": {}, \"errors\": [{}]}}}}",
        host::json_str(&args.workload),
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        host::fingerprint(),
        rows_json(&rows),
        windows_json(&out.measured),
        out.measured.samples(0),
        out.measured.p99_resolved(0),
        host::json_str(spans_file.as_deref().unwrap_or("-")),
        errors.join(", ")
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(decl, &values)
    );
    ExitCode::SUCCESS
}
