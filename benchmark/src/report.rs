//! Metric names and units (the same lists `BENCHMARK.json` records)
//! and the JSON the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Workload names, in the order `run` without `--workload` runs them.
pub const WORKLOADS: [&str; 5] = [
    "kv_update",
    "kv_read",
    "alloc_sim",
    "crash_recover",
    "serve_1w",
];

/// End-to-end metrics: every workload reports every one.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_p50_ns", "ns"),
    ("op_p99_ns", "ns"),
    ("setup_s", "s"),
    ("heap_bytes_per_live_byte", "ratio"),
];

/// Per-layer metrics, grouped by the crate they observe. A workload
/// that does not reach a layer reports 0 for its rows.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("workloads.gen_ns_per_op", "ns"),
    ("kvstore.read_self_ns", "ns"),
    ("kvstore.update_self_ns", "ns"),
    ("kvstore.delete_self_ns", "ns"),
    ("kvstore.alloc_calls_per_op", "count"),
    ("kvstore.dealloc_calls_per_op", "count"),
    ("kvstore.resolve_calls_per_op", "count"),
    ("core.alloc_ns", "ns"),
    ("core.alloc_p99_ns", "ns"),
    ("core.dealloc_ns", "ns"),
    ("core.resolve_ns", "ns"),
    ("core.share_of_op", "ratio"),
    ("core.remote_free_share", "ratio"),
    ("core.sim_local_pair_ns", "ns"),
    ("core.sim_remote_pair_ns", "ns"),
    ("core.slab_allocs_per_kop", "count"),
    ("core.remote_publishes_per_kop", "count"),
    ("core.adopt_ns", "ns"),
    ("core.mark_crashed_ns", "ns"),
    ("core.recover_p50_us", "us"),
    ("core.census_ns", "ns"),
    ("core.hwcc_bytes", "count"),
    ("core.small_slabs", "count"),
    ("core.large_slabs", "count"),
    ("pod.flushes_per_op", "count"),
    ("pod.fences_per_op", "count"),
    ("pod.cas_per_op", "count"),
    ("pod.cas_fail_per_kop", "count"),
    ("pod.cas_retries_per_kop", "count"),
    ("pod.line_fills_per_op", "count"),
    ("pod.writebacks_per_op", "count"),
    ("pod.uncached_ops_per_op", "count"),
    ("pod.cached_hit_ratio", "ratio"),
    ("pod.sim_ns_per_op", "ns"),
    ("pod.sim_op_p99_ns", "ns"),
    ("pod.sim_flush_ns_per_op", "ns"),
    ("pod.sim_fence_ns_per_op", "ns"),
    ("pod.sim_line_fill_ns_per_op", "ns"),
    ("pod.sim_cas_ns_per_op", "ns"),
    ("pod.sim_other_ns_per_op", "ns"),
    ("pod.host_ns_per_sim_ns", "ratio"),
    ("serve.spawn_audit_s", "s"),
    ("serve.report_p50_ns", "ns"),
    ("serve.report_p99_ns", "ns"),
    ("serve.heartbeats", "count"),
    ("serve.timeouts", "count"),
    ("bench.clock_floor_ns", "ns"),
    ("bench.harness_ns_per_op", "ns"),
    ("bench.span_overhead_ns_per_op", "ns"),
    ("bench.round_spread", "ratio"),
    ("bench.steal_pct", "%"),
    ("bench.rounds", "count"),
    ("bench.ops_per_round", "count"),
    ("bench.samples_beyond_p99", "count"),
];

/// Named values, ordered by name for stable output.
pub type Values = BTreeMap<&'static str, f64>;

/// What one workload's run produced: the contract's result object.
#[derive(Debug)]
pub struct Outcome {
    /// Every correctness check of every round passed.
    pub correct: bool,
    /// Ops of the timed passes, over all rounds.
    pub attempted: u64,
    /// Ops that failed, plus all ops of any round whose check failed.
    pub failed: u64,
    /// The metrics of this mode: end-to-end, or per-layer when traced.
    pub metrics: Values,
    /// Human-readable failures, printed to stderr.
    pub errors: Vec<String>,
}

/// Quotes `s` as a JSON string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number with all its digits; JSON has no NaN or infinity.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit. `schema` is the
    /// list (end-to-end or per-layer) that fixes which names appear.
    pub fn result_line(&self, schema: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = schema
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(value),
                    json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_records_the_same_names_and_units() {
        let json: String = include_str!("../../BENCHMARK.json")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} [{unit}] is not in BENCHMARK.json"
            );
        }
        for workload in WORKLOADS {
            assert!(json.contains(&format!("\"name\":\"{workload}\"")));
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json names something the benchmark does not report"
        );
    }

    #[test]
    fn result_line_has_exactly_the_schema_names() {
        let mut metrics = Values::new();
        metrics.insert("ops_per_s", 1234.5);
        metrics.insert("not_in_schema", 1.0);
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
            errors: Vec::new(),
        };
        let line = outcome.result_line(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(!line.contains("not_in_schema"));
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
