//! Metric names, units and the result line.

/// End-to-end metrics every workload reports with tracing off, in print
/// order: `(name, unit)`. Must match `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("job_ms_p50", "ms"),
    ("job_ms_tail", "ms"),
    ("jobs_per_s", "1/s"),
    ("ok_job_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("node_reduction_pct", "%"),
    ("edge_reduction_pct", "%"),
];

/// A metric name is 1–64 characters of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    /// Pairs a `(name, unit)` entry with its value.
    pub fn new((name, unit): (&'static str, &'static str), value: f64) -> Self {
        Self { name, value, unit }
    }
}

/// A float as JSON: Rust's shortest round-trip form keeps every digit;
/// non-finite values (never expected) become `null` rather than invalid JSON.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: the last line a run prints.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_names_are_well_formed() {
        for (name, _) in END_TO_END {
            assert!(valid_name(name), "{name}");
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric::new(("job_ms_p50", "ms"), 1.203_456_789_012_3)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"job_ms_p50\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}}}"
        );
    }

    /// `BENCHMARK.json` at the repository root must name exactly the metrics
    /// this program prints, in the same groups.
    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // The benchmark directory was copied on its own.
        };
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .split("\"name\"")
                .skip(1)
                .map(|chunk| chunk.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<String> = crate::layers::LAYER_METRICS
            .iter()
            .chain(&crate::layers::TRACE_METRICS)
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(section("per_layer"), layers);
        for name in section("workloads") {
            assert!(crate::workloads::Kind::parse(&name).is_some(), "{name}");
            assert!(valid_name(&name));
        }
    }
}
