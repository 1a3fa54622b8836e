//! The metric names and units this benchmark emits. `BENCHMARK.json`
//! declares the same set; a test keeps the two in step.

/// End-to-end metrics (untraced run): every workload reports each one,
/// measured on its own traffic (see README.md for the per-workload
/// meaning of "op" and of the latency series).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
];

/// Per-layer metrics (traced run). A layer a workload bypasses reads 0.
/// The `bulk` workload's own layers (bulk issue paths, stripe rails,
/// bulk registry) are reported in its report line instead: `bulk` is not
/// among the gated workloads (see README.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("context.rsr_ns_p50", "ns"),
    ("context.rsr_ns_p99", "ns"),
    ("poll.pass_ns_p50", "ns"),
    ("poll.empty_pass_ns_p50", "ns"),
    ("poll.useful_frac", "frac"),
    ("poll.msgs_per_pass", "count"),
    ("stats.mpl.useful_poll_frac", "frac"),
    ("stats.tcp.useful_poll_frac", "frac"),
    ("wait.deliver_us_p50.mpl", "us"),
    ("wait.deliver_us_p99.mpl", "us"),
    ("wait.deliver_us_p50.tcp", "us"),
    ("wait.deliver_us_p99.tcp", "us"),
    ("alloc.per_op", "count"),
    ("rsr.body_encodes_per_op", "count"),
    ("tcp.wire_bytes_per_payload_byte", "ratio"),
    ("mpi.send_us_p50", "us"),
    ("mpi.recv_us_p50", "us"),
    ("climate.serial_ms_per_period", "ms"),
    ("ref.raw_tcp_rtt_us", "us"),
    ("ref.memcpy_GBps", "GB/s"),
    ("trace.unaccounted_frac", "frac"),
    ("trace.spans", "count"),
    ("trace.overhead.ops_per_s", "1/s"),
    ("trace.overhead.lat_p50_us", "us"),
    ("trace.overhead.lat_p99_us", "us"),
];

/// Whether a metric name uses only the allowed characters.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (name, unit) of every metric in one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = doc
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("section {section}"));
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, key: &str| -> String {
            let k = obj.find(&format!("\"{key}\"")).expect("key present");
            let rest = &obj[k + key.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let len = rest[open..].find('"').expect("value closes");
            rest[open..open + len].to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn check(section: &str, emitted: &[(&str, &str)]) {
        let decl = declared(section);
        let emitted: Vec<(String, String)> = emitted
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        for (name, unit) in &emitted {
            assert!(
                valid_name(name),
                "{name} uses a character outside [A-Za-z0-9_.-]"
            );
            assert!(!unit.is_empty(), "{name} has no unit");
            assert!(
                decl.contains(&(name.clone(), unit.clone())),
                "{name} [{unit}] is emitted but not declared in {section}"
            );
        }
        for d in &decl {
            assert!(emitted.contains(d), "{d:?} is declared but never emitted");
        }
    }

    #[test]
    fn every_emitted_metric_is_declared_with_its_unit() {
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n, "a metric name is used twice");
        assert!(valid_name("a.b-c_9"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(""));
    }
}
