//! What the benchmark promises to emit: workload names, metric names and
//! units, and the result line that carries them.
//!
//! `BENCHMARK.json` at the repository root declares the same lists; the
//! tests below hold the two together, and [`Report::finish`] refuses to
//! print a result whose metric set differs from the declared one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["fig5", "matrix32", "serve_mixed"];

/// End-to-end metrics (untraced runs, `--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("peak_mem_mb", "MB"),
];

/// Per-layer metrics (traced runs, `--trace 1`): name and unit. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("graph.gen_s", "s"),
    ("platforms.run_s", "s"),
    ("platforms.program_s", "s"),
    ("platforms.build_dag_s", "s"),
    ("platforms.emit_events_s", "s"),
    ("platforms.events", "count"),
    ("cluster.simulate_s", "s"),
    ("cluster.events_processed", "count"),
    ("cluster.heap_pops", "count"),
    ("cluster.stale_pop_ratio", "ratio"),
    ("cluster.partitioned_jobs", "count"),
    ("core.evaluate_s", "s"),
    ("monitor.assemble_s", "s"),
    ("model.derive_s", "s"),
    ("monitor.map_env_s", "s"),
    ("model.validate_s", "s"),
    ("archive.ops_per_job", "count"),
    ("archive.save_s", "s"),
    ("archive.bytes_per_op", "B"),
    ("archive.load_s", "s"),
    ("viz.render_s", "s"),
    ("archive.open_s", "s"),
    ("archive.engine_p50_us.hot", "us"),
    ("archive.engine_p50_us.warm", "us"),
    ("archive.engine_p50_us.cold", "us"),
    ("archive.engine_p99_us.hot", "us"),
    ("archive.engine_p99_us.warm", "us"),
    ("archive.engine_p99_us.cold", "us"),
    ("archive.cache_hit_ratio", "ratio"),
    ("archive.admissions", "count"),
    ("archive.resident_evictions", "count"),
    ("archive.decode_races", "count"),
    ("serve.wire_us", "us"),
    ("serve.query_p50_us", "us"),
    ("serve.query_p90_us", "us"),
    ("serve.query_p99_us", "us"),
    ("serve.hot_p50_us", "us"),
    ("serve.warm_p50_us", "us"),
    ("serve.cold_p50_us", "us"),
    ("serve.hot_p99_us", "us"),
    ("serve.warm_p99_us", "us"),
    ("serve.cold_p99_us", "us"),
    ("serve.cost_us.hot", "us"),
    ("serve.cost_us.warm", "us"),
    ("serve.cost_us.cold", "us"),
    ("serve.time_share.hot", "ratio"),
    ("serve.time_share.warm", "ratio"),
    ("serve.time_share.cold", "ratio"),
    ("serve.max_rps_at_slo", "1/s"),
    ("serve.samples", "count"),
    ("loadgen.late_p99_us", "us"),
    ("trace_overhead_pct", "%"),
    ("harness.error_rate", "ratio"),
    ("harness.samples", "count"),
];

/// The metric set a run must emit.
pub fn declared(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// One run's outcome: counts of operations and the metric values.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (jobs or requests).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Run-level check failures, by description.
    check_failures: Vec<String>,
    metrics: BTreeMap<String, f64>,
}

impl Report {
    /// Records a metric value; a later call for the same name replaces it.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Records a failed check; `per_operation` also counts it against
    /// the operations attempted.
    pub fn fail(&mut self, what: impl Into<String>, per_operation: bool) {
        let what = what.into();
        eprintln!("check failed: {what}");
        self.check_failures.push(what);
        if per_operation {
            self.failed += 1;
        }
    }

    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    /// Renders the result line: the declared metrics for this mode, each
    /// with its unit. Fails when a declared metric is missing, an
    /// undeclared one was recorded, or a value is not finite.
    pub fn finish(&self, trace: bool) -> Result<String, String> {
        let declared = declared(trace);
        for name in self.metrics.keys() {
            if !declared.iter().any(|(d, _)| d == name) {
                return Err(format!("metric `{name}` is not declared for this mode"));
            }
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = self
                .get(name)
                .ok_or_else(|| format!("declared metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite: {value}"));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        ))
    }
}

/// Formats a finite float as a JSON number with all its digits.
pub fn json_number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// True when `name` is a valid metric or workload name: it starts with
    /// a letter or digit and has at most 64 letters, digits, `_`, `.` and
    /// `-`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// True when `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
    /// `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn as_str(value: &Value) -> Option<&str> {
        match value {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(value: &Value) -> Option<f64> {
        match value {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(value: &Value, key: &str) -> Vec<(String, Option<String>)> {
        value
            .get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("`{key}` is an array"))
            .iter()
            .map(|entry| {
                let name = entry.get("name").and_then(as_str).expect("name");
                let unit = entry.get("unit").and_then(as_str);
                (name.to_string(), unit.map(str::to_string))
            })
            .collect()
    }

    #[test]
    fn name_charset() {
        for good in ["setup_s", "archive.engine_p50_us.hot", "9lives", "a-b_c.d"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_lead", ".lead", "has space", "slash/no", "p99%", &long] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["s", "ms", "1/s", "count", "%", "MB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "seconds_per_op_xy", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        for name in WORKLOADS {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn declared_lists_match_benchmark_json() {
        let json = benchmark_json();
        let workloads: Vec<String> = names(&json, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        let owned = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(names(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names(&json, "per_layer"), owned(&PER_LAYER));
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }

    #[test]
    fn finish_emits_exactly_the_declared_metrics() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            report.set(name, 1.5 + i as f64);
        }
        let line = report.finish(false).expect("complete report");
        let value: Value = serde_json::from_str(&line).expect("result line is JSON");
        let metrics = value.get("metrics").expect("metrics object");
        for (name, unit) in END_TO_END {
            let entry = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} emitted"));
            assert_eq!(entry.get("unit").and_then(as_str), Some(unit));
            assert!(entry.get("value").and_then(as_f64).is_some());
        }
        assert_eq!(value.get("correct"), Some(&Value::Bool(true)));

        // Something undeclared, or something missing, is refused.
        report.set("unnamed_metric", 1.0);
        assert!(report.finish(false).is_err());
        let empty = Report::default();
        assert!(empty.finish(false).is_err());
        assert!(empty.finish(true).is_err());
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.123456789), "0.123456789");
        assert_eq!(json_number(1e20), "100000000000000000000");
    }
}
