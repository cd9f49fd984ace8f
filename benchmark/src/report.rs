//! Metric names, units, and the lines a run prints.
//!
//! The two tables below are the benchmark's vocabulary; `BENCHMARK.json`
//! declares exactly these names and units (a unit test holds them
//! together). A workload hands back values by name; layers that idle on
//! it report zero, which is the prediction "nothing moves here".

use serde_json::Value;
use std::collections::BTreeMap;

/// End-to-end metrics: name, unit. The same ten on every workload.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("alt_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("disk_bytes_per_event", "B"),
    ("fs_bytes_per_work", "B"),
    ("alloc_bytes_per_work", "B"),
    ("pass_ratio", "ratio"),
    ("fs_ops_per_kwork", "1/1000"),
];

/// Per-layer metrics: name, unit.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("topology.graph_ms", "ms"),
    ("topology.build_world_ms", "ms"),
    ("scenario.pack_parse_ms", "ms"),
    ("scenario.runner_self_ms", "ms"),
    ("netsim.run_ms", "ms"),
    ("netsim.host_us_per_sim_event", "us"),
    ("netsim.sim_events", "count"),
    ("netsim.sim_events_per_stored_event", "ratio"),
    ("core.expand_ns_per_update", "ns"),
    ("core.classify_ns_per_event", "ns"),
    ("chain.cross_ns_per_event", "ns"),
    ("chain.flush_ms", "ms"),
    ("chain.bytes_per_event", "B"),
    ("watch.poll_ms_p50", "ms"),
    ("watch.rows_per_poll", "count"),
    ("mrt.decode_ns_per_record", "ns"),
    ("mrt.encode_ns_per_record", "ns"),
    ("pipeline.analyze_ms_jobs1", "ms"),
    ("pipeline.analyze_ms_jobs2", "ms"),
    ("pipeline.par_speedup", "ratio"),
    ("store.segment_encode_ns_per_row", "ns"),
    ("store.ingest_ms", "ms"),
    ("store.commit_ms", "ms"),
    ("store.append_ms_p50", "ms"),
    ("store.append_fs_share", "ratio"),
    ("store.compact_ms", "ms"),
    ("store.compact_rewrite_bytes", "B"),
    ("store.manifest_bytes", "B"),
    ("store.open_ms", "ms"),
    ("store.plan_us_p50", "us"),
    ("store.exec_windowed_ms_p50", "ms"),
    ("store.read_bytes_per_windowed_query", "B"),
    ("store.read_bytes_ratio", "ratio"),
    ("store.pages_scanned_per_query", "count"),
    ("store.prune_ratio", "ratio"),
    ("store.exec_full_ms_p50", "ms"),
    ("store.full_rows_per_s", "1/s"),
    ("store.decode_bytes_per_row", "B"),
    ("serve.line_floor_us", "us"),
    ("serve.local_read_us_p50", "us"),
    ("serve.tcp_read_us_p50", "us"),
    ("serve.tcp_overhead_us", "us"),
    ("serve.admit_us_p50", "us"),
    ("serve.pin_us_p50", "us"),
    ("serve.scan_us_p50", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.read_p95_ms", "ms"),
    ("serve.read_p99_ms", "ms"),
    ("serve.read_samples", "count"),
    ("serve.append_p95_ms", "ms"),
    ("serve.append_samples", "count"),
    ("serve.busy_replies", "count"),
    ("fs.read_calls", "count"),
    ("fs.read_bytes", "B"),
    ("fs.write_calls", "count"),
    ("fs.write_bytes", "B"),
    ("fs.sync_calls", "count"),
    ("fs.sync_ms", "ms"),
    ("fs.rename_calls", "count"),
    ("alloc.calls_per_work", "count"),
    ("alloc.bytes_per_work", "B"),
    ("bench.ref_ms_p50", "ms"),
    ("bench.ref_spread", "ratio"),
    ("bench.raw_work_per_s", "1/s"),
    ("bench.raw_op_p50_ms", "ms"),
    ("bench.setup_raw_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.trace_coverage", "ratio"),
];

/// Above this slowest ÷ fastest kernel time a run is reported as not
/// settled (reported, never a failure).
pub const SETTLED_REF_SPREAD: f64 = 2.0;

/// Metric values by name. Names outside the declared tables are a bug
/// in the workload and panic when the lines are rendered.
pub type Values = BTreeMap<&'static str, f64>;

/// What one pass of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output did not match, errored, or were refused.
    pub failed: u64,
    /// The first failure, for the operator.
    pub first_failure: Option<String>,
    /// Metric values by declared name.
    pub values: Values,
    /// Wall seconds of the pass, set-up included.
    pub wall_s: f64,
    /// Slowest ÷ fastest reference-kernel time during the pass.
    pub ref_spread: f64,
    /// Raw totals per span name (traced pass; empty otherwise).
    pub stages: Vec<(&'static str, crate::span::NameTotals)>,
}

/// The `name value unit` rows of a pass, in table order, one per
/// declared metric. Per-layer values a workload did not set are zero;
/// a missing end-to-end value is a bug.
#[must_use]
pub fn rows(values: &Values, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    let table: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for name in values.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not declared for this pass"
        );
    }
    table
        .iter()
        .map(|&(name, unit)| {
            let v = match values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            (name, v, unit)
        })
        .collect()
}

/// A value tree as one line of JSON.
#[must_use]
pub fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("a value tree always renders")
}

/// The last line of a single-workload run: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
#[must_use]
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = rows(&outcome.values, trace)
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name.to_owned(),
                Value::Map(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(unit.to_owned())),
                ]),
            )
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(outcome.failed == 0)),
        ("attempted".into(), Value::U64(outcome.attempted)),
        ("failed".into(), Value::U64(outcome.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    render(&line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let path = crate::paths::bench_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside benchmark/");
        let doc = serde_json::value_from_str(&text).unwrap();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_owned())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds"),
            Some(&Value::U64(crate::DEFAULT_SECONDS as u64)),
            "the default --seconds is BENCHMARK.json's run_seconds"
        );
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut values = Values::new();
        for (name, _) in END_TO_END {
            values.insert(name, 1.5);
        }
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            first_failure: None,
            values,
            wall_s: 1.0,
            ref_spread: 1.1,
            stages: Vec::new(),
        };
        let line = result_line(&outcome, false);
        let doc = serde_json::value_from_str(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            doc.get("metrics").unwrap().as_map().unwrap().len(),
            END_TO_END.len()
        );
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        // An idle layer reads zero on the traced side.
        let traced = rows(&Values::new(), true);
        assert_eq!(traced.len(), PER_LAYER.len());
        assert!(traced.iter().all(|(_, v, _)| *v == 0.0));
    }
}
