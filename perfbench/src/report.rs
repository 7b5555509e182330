//! The metric catalogue and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports every one.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("scenarios_per_s", "1/s"),
    ("selective_slowdown_geomean", "ratio"),
    ("rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// never reaches reports 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("dbt.analysis_s", "s"),
    ("dbt.analysis_count", "count"),
    ("dbt.codegen_s", "s"),
    ("dbt.codegen_count", "count"),
    ("dbt.analysis_ms", "ms"),
    ("dbt.codegen_ms", "ms"),
    ("dbt.translation_hit_rate", "ratio"),
    ("dbt.translation_queries", "count"),
    ("dbt.translate_share", "ratio"),
    ("platform.simulate_self_s", "s"),
    ("platform.simulations", "count"),
    ("platform.warm_pass_s", "s"),
    ("platform.memo_hit_rate", "ratio"),
    ("platform.memo_miss_rate", "ratio"),
    ("platform.memo_lookups", "count"),
    ("platform.store_uploads", "count"),
    ("lab.sweep.figure4_s", "s"),
    ("lab.sweep.attack-table_s", "s"),
    ("lab.sweep.ptr-matmul_s", "s"),
    ("lab.sweep.ablation_s", "s"),
    ("lab.sweep.issue-width_s", "s"),
    ("lab.sweep.selective-vs-blanket_s", "s"),
    ("serve.rtt_ms", "ms"),
    ("serve.request_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.simulate_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.busy", "count"),
    ("serve.errors", "count"),
    ("serve.samples", "count"),
    ("json.codec_us", "us"),
    ("router.hop_ms", "ms"),
    ("router.relay_ms", "ms"),
    ("router.upload_ms", "ms"),
    ("router.replications", "count"),
    ("router.failovers", "count"),
    ("router.shard_skew", "ratio"),
    ("spectaint.analyze_ms", "ms"),
    ("trace.dropped", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.untraced_ops", "count"),
    ("trace.traced_ops", "count"),
];

/// What one workload run produced: operations attempted and failed, the
/// metric values, and human-readable notes (bases, sample counts).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets metric `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER.iter()).any(|(n, _)| *n == name),
            "{name} is not a catalogued metric"
        );
        self.metrics.insert(name, value);
    }

    /// Records an operation and whether it failed.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds a note line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of `catalogue` (missing ones as 0, which only per-layer
/// metrics of unreached layers may be).
pub fn result_line(outcome: &Outcome, catalogue: &[(&str, &str)]) -> String {
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (index, (name, unit)) in catalogue.iter().enumerate() {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        if index > 0 {
            line.push_str(", ");
        }
        let _ = write!(line, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// `[A-Za-z0-9_.-]+`, at most 64 characters, starting with a letter or
    /// digit.
    fn valid_metric_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "{name} twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        assert!(!valid_metric_name("latency ms"));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let spec = dbt_json::JsonValue::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(dbt_json::JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f).and_then(dbt_json::JsonValue::as_str).unwrap().to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), owned(&END_TO_END));
        assert_eq!(names("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn the_result_line_carries_every_metric() {
        let mut outcome = Outcome::default();
        outcome.count(true);
        outcome.count(false);
        outcome.set("rps", 12.5);
        let line = result_line(&outcome, &END_TO_END);
        let value = dbt_json::JsonValue::parse(&line).unwrap();
        assert_eq!(value.get("correct").and_then(dbt_json::JsonValue::as_bool), Some(false));
        assert_eq!(value.get("attempted").and_then(dbt_json::JsonValue::as_u64), Some(2));
        assert_eq!(value.get("failed").and_then(dbt_json::JsonValue::as_u64), Some(1));
        let metrics = value.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let metric = metrics.get(name).unwrap();
            assert_eq!(metric.get("unit").and_then(dbt_json::JsonValue::as_str), Some(unit));
        }
        assert_eq!(metrics.get("rps").unwrap().get("value").unwrap().as_f64(), Some(12.5));
    }
}
