//! Metric registry, summary statistics and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit; `BENCHMARK.json` at the repository root must name exactly the
//! same metrics (a test checks both directions).

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Metric name: letters, digits, `_`, `.` and `-`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What an untraced run prints, for every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("segments_per_s", "1/s"),
    m("peak_rss_mb", "MB"),
    m("epoch_p50_s", "s"),
    m("epoch_tail_s", "s"),
    m("checkpoint_s", "s"),
    m("resume_s", "s"),
    m("macro_recall", "ratio"),
    m("false_positives", "count"),
    m("detect_latency_s", "sim_s"),
];

/// What a traced run prints, for every workload. A layer a workload
/// does not exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("kernelsim.deployment_build_s", "s"),
    m("attackgen.produce_s", "s"),
    m("attackgen.items", "count"),
    m("attackgen.segments", "count"),
    m("attackgen.sys_events", "count"),
    m("attackgen.auth_events", "count"),
    m("attackgen.payload_bytes", "bytes"),
    m("attackgen.wire_bytes", "bytes"),
    m("attackgen.peak_pending", "count"),
    m("attackgen.producer_groups", "count"),
    m("attackgen.largest_group_share", "ratio"),
    m("crypto.chacha_s", "s"),
    m("crypto.chacha_bytes", "bytes"),
    m("crypto.hmac_s", "s"),
    m("crypto.hmac_msgs", "count"),
    m("crypto.sha256_s", "s"),
    m("websocket.decode_s", "s"),
    m("websocket.messages", "count"),
    m("jupyter_proto.wire_decode_s", "s"),
    m("json.parse_s", "s"),
    m("monitor.stream_s", "s"),
    m("monitor.reassembly_s", "s"),
    m("monitor.features_s", "s"),
    m("monitor.analyze_flow_s", "s"),
    m("monitor.detect_s", "s"),
    m("monitor.auth_s", "s"),
    m("monitor.flows_inspected", "count"),
    m("monitor.flows_incremental", "count"),
    m("monitor.kernel_msgs", "count"),
    m("monitor.peak_live_flows", "count"),
    m("monitor.peak_retained_bytes", "bytes"),
    m("monitor.shard_skew", "ratio"),
    m("monitor.coverage", "ratio"),
    m("audit.tracer_s", "s"),
    m("audit.detect_s", "s"),
    m("audit.completeness", "ratio"),
    m("core.config_scan_s", "s"),
    m("core.incidents_s", "s"),
    m("core.score_s", "s"),
    m("core.checkpoint_bytes", "bytes"),
    m("core.restore_s", "s"),
    m("core.replayed_items", "count"),
    m("trace_overhead", "ratio"),
];

/// Is `name` a valid metric name: starts with a letter or digit, at
/// most 64 characters, only letters, digits, `_`, `.` and `-`?
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `values` (mean of the middle two for an even count; 0 for
/// none).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail latency: the sample value and the percentile it sits at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at the tail percentile.
    pub value: f64,
    /// Its percentile: the share of samples at or below it, in percent.
    pub percentile: f64,
}

/// The highest percentile that has at least ten samples beyond it: the
/// eleventh-largest sample. `None` below eleven samples, where no
/// percentile qualifies.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    (n >= 11).then(|| Tail {
        value: v[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The result of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations run.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Set false by any check outside an operation (the generator's
    /// self-check).
    pub checks_passed: bool,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// A fresh outcome with no operations and passing checks.
    pub fn new() -> Self {
        Outcome {
            checks_passed: true,
            ..Default::default()
        }
    }

    /// Count one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: exactly the metrics of `registry`, in its
    /// order. Panics if a declared metric was never recorded, or a
    /// recorded one is undeclared or not finite — both are bugs in the
    /// benchmark, not in the program under test.
    pub fn render(&self, registry: &[Metric]) -> String {
        let declared: Vec<&str> = registry.iter().map(|m| m.name).collect();
        for name in self.values.keys() {
            assert!(declared.contains(name), "undeclared metric {name}");
        }
        let metrics: Vec<String> = registry
            .iter()
            .map(|m| {
                assert!(valid_name(m.name), "invalid metric name {:?}", m.name);
                let v = self.values[m.name];
                assert!(v.is_finite(), "metric {} is {v}", m.name);
                // `{v}` prints every digit an f64 carries (the shortest
                // form that reads back exactly), never an exponent.
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks_passed && self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_eleventh_largest_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        // Ten samples (91..=100) lie beyond 90, which sits at p90.
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_needs_eleven_samples_and_ignores_order() {
        assert_eq!(tail(&[1.0; 10]), None);
        let mut v: Vec<f64> = (0..11).map(f64::from).collect();
        v.reverse();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 0.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        assert!(valid_name("a.b_c-1"));
        for bad in ["", ".a", "_a", "a b", "a/b", "a:b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let text = include_str!("../../BENCHMARK.json");
        let json: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json[key].as_array().expect("metric list");
            let names: Vec<&str> = listed.iter().map(|m| m["name"].as_str().unwrap()).collect();
            let declared: Vec<&str> = registry.iter().map(|m| m.name).collect();
            assert_eq!(names, declared, "{key}: BENCHMARK.json vs printed names");
            for (entry, metric) in listed.iter().zip(registry) {
                assert_eq!(entry["unit"].as_str(), Some(metric.unit), "{}", metric.name);
            }
        }
    }

    #[test]
    fn render_prints_every_declared_metric() {
        let mut out = Outcome::new();
        out.op(true);
        for m in END_TO_END {
            out.set(m.name, 0.5);
        }
        let line = out.render(END_TO_END);
        let json: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(json["correct"].as_bool(), Some(true));
        assert_eq!(json["attempted"].as_u64(), Some(1));
        for m in END_TO_END {
            assert_eq!(json["metrics"][m.name]["unit"].as_str(), Some(m.unit));
            assert_eq!(json["metrics"][m.name]["value"].as_f64(), Some(0.5));
        }
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn render_rejects_undeclared_metrics() {
        let mut out = Outcome::new();
        for m in END_TO_END {
            out.set(m.name, 1.0);
        }
        out.set("monitor.stream_s", 1.0);
        out.render(END_TO_END);
    }
}
