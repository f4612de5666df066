//! The metric catalogue and the result a run prints.
//!
//! Every metric a workload emits is looked up here by name, so its unit
//! is defined once; a test holds this table equal to `BENCHMARK.json`.

use rlpm_serve::json::Value;

/// One catalogued metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed; `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Per-layer (traced pass) rather than end-to-end (untraced).
    pub layer: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer: true,
    }
}

/// Every metric the benchmark emits. Every workload emits every metric
/// of its run's kind, and a name means the same thing on every workload;
/// a per-layer metric of a layer the workload does not run, or does not
/// measure, reads 0 from no samples.
pub const CATALOGUE: &[Metric] = &[
    e2e("setup_s", "s", "lower"),
    e2e("latency_p50_ms", "ms", "lower"),
    e2e("peak_rss_mb", "MB", "lower"),
    layer("workload.arrivals_s", "s", "lower"),
    layer("workload.qos_s", "s", "lower"),
    layer("workload.jobs", "count", "higher"),
    layer("soc.step_s", "s", "lower"),
    layer("soc.active_step_s", "s", "lower"),
    layer("soc.idle_step_s", "s", "lower"),
    layer("soc.observe_s", "s", "lower"),
    layer("soc.batch.parked_ratio", "ratio", "higher"),
    layer("governors.decide_s", "s", "lower"),
    layer("governors.decides", "count", "higher"),
    layer("rlpm.train_s", "s", "lower"),
    layer("rlpm.decide_s", "s", "lower"),
    layer("rlpm.td_updates", "count", "higher"),
    layer("experiments.runner.rest_s", "s", "lower"),
    layer("experiments.sched.busy_ratio", "ratio", "higher"),
    layer("experiments.sched.retries", "count", "lower"),
    layer("experiments.cache.hits", "count", "higher"),
    layer("experiments.cache.misses", "count", "lower"),
    layer("experiments.cache.stores", "count", "lower"),
    layer("experiments.cache.bytes_stored", "bytes", "lower"),
    layer("experiments.cache.warm_pass_s", "s", "lower"),
    layer("rlpm-serve.service.handle_ms", "ms", "lower"),
    layer("rlpm-serve.json.codec_us", "us", "lower"),
    layer("rlpm-serve.server.transport_ms", "ms", "lower"),
    layer("rlpm-serve.events_per_request", "count", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("trace.unattributed_ratio", "ratio", "lower"),
];

/// Looks a metric up by name.
pub fn metric(name: &str) -> Option<&'static Metric> {
    CATALOGUE.iter().find(|m| m.name == name)
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct Report {
    trace: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static Metric, f64, usize)>,
    notes: Vec<String>,
}

impl Report {
    /// An empty report for an untraced (`trace == false`) or traced run.
    pub fn new(trace: bool) -> Report {
        Report {
            trace,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Counts one checked operation; a failed check is recorded with
    /// `what` describing it. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
        ok
    }

    /// Records `value` (measured over `samples` samples) under the
    /// catalogued `name`. A run prints the end-to-end metrics when
    /// untraced and the per-layer ones when traced, so a metric of the
    /// other kind is dropped here.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`CATALOGUE`]: a bug in the
    /// benchmark, caught by its tests.
    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        let m = metric(name).unwrap_or_else(|| panic!("metric {name:?} is not catalogued"));
        if m.layer == self.trace {
            self.check(value.is_finite(), || {
                format!("{name} is not finite: {value}")
            });
            self.metrics.push((m, value, samples));
        }
    }

    /// Records each per-layer metric in `names` as 0 from no samples: the
    /// workload does not run that layer, or the benchmark does not measure
    /// it there.
    pub fn not_measured(&mut self, names: &[&str]) {
        for name in names {
            self.metric(name, 0.0, 0);
        }
    }

    /// A line printed before the result, outside it: a figure that is not
    /// a catalogued metric, such as a host-time reading or a tail.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Fails a check for every catalogued metric of this run's kind that
    /// was not recorded exactly once.
    pub fn check_complete(&mut self) {
        let trace = self.trace;
        for m in CATALOGUE.iter().filter(|m| m.layer == trace) {
            let times = self
                .metrics
                .iter()
                .filter(|(r, ..)| r.name == m.name)
                .count();
            self.check(times == 1, || format!("{} recorded {times} times", m.name));
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(m, value, _)| {
                let entry = Value::Obj(vec![
                    ("value".into(), Value::Num(*value)),
                    ("unit".into(), Value::str(m.unit)),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::num_u64(self.attempted)),
            ("failed".into(), Value::num_u64(self.failed)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
    }

    /// Prints one line per metric with its unit and sample count, the
    /// notes, every failed check, the failed ratio, and last the JSON
    /// result line.
    pub fn print(&self) {
        for (m, value, samples) in &self.metrics {
            let unmeasured = if *samples == 0 {
                " not measured here"
            } else {
                ""
            };
            println!(
                "{:<40} {value:>16.6} {:<10} (n={samples}){unmeasured}",
                m.name, m.unit
            );
        }
        for line in &self.notes {
            println!("{line}");
        }
        for failure in &self.failures {
            println!("FAILED: {failure}");
        }
        println!(
            "failed_ratio {}/{} = {}",
            self.failed,
            self.attempted,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        println!("{}", self.json().render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlpm_serve::json;

    fn declared() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        for (i, m) in CATALOGUE.iter().enumerate() {
            assert!(
                !m.name.is_empty()
                    && m.name.len() <= 64
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad name {:?}",
                m.name
            );
            assert!(m.better == "lower" || m.better == "higher");
            assert!(
                CATALOGUE[..i].iter().all(|o| o.name != m.name),
                "duplicate {}",
                m.name
            );
        }
    }

    #[test]
    fn catalogue_equals_benchmark_json() {
        let declared = declared();
        for (key, layer) in [("end_to_end", false), ("per_layer", true)] {
            let list = declared
                .get(key)
                .and_then(Value::as_arr)
                .expect("metric list");
            let ours: Vec<&Metric> = CATALOGUE.iter().filter(|m| m.layer == layer).collect();
            assert_eq!(list.len(), ours.len(), "{key}: metric count");
            for (entry, m) in list.iter().zip(ours) {
                let field = |k: &str| entry.get(k).and_then(Value::as_str);
                assert_eq!(field("name"), Some(m.name), "{key}: order and names");
                assert_eq!(field("unit"), Some(m.unit), "{key}: unit of {}", m.name);
                assert_eq!(field("better"), Some(m.better), "{key}: {}", m.name);
            }
        }
        let workloads: Vec<&str> = declared
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workload list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn report_keeps_its_kind_and_flags_failures() {
        let mut report = Report::new(false);
        report.metric("setup_s", 0.5, 3);
        report.metric("latency_p50_ms", 2.0, 3);
        report.metric("peak_rss_mb", 9.0, 1);
        report.metric("soc.step_s", 1.0, 1);
        report.check_complete();
        assert!(report.correct());
        let line = report.json().render();
        assert!(
            line.contains("\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}"),
            "{line}"
        );
        assert!(
            !line.contains("soc.step_s"),
            "per-layer metric dropped: {line}"
        );
        assert!(!report.check(false, || "mismatch".into()));
        assert!(!report.correct());
        assert!(report.json().render().starts_with("{\"correct\":false"));
    }

    #[test]
    fn a_missing_or_repeated_metric_fails_the_run() {
        let layers: Vec<&str> = CATALOGUE
            .iter()
            .filter(|m| m.layer)
            .map(|m| m.name)
            .collect();
        let mut report = Report::new(true);
        report.metric("soc.step_s", 1.0, 4);
        report.not_measured(&layers[1..]);
        report.check_complete();
        assert!(!report.correct(), "soc.step_s recorded twice");

        let mut report = Report::new(true);
        report.not_measured(&layers[1..]);
        report.check_complete();
        assert!(!report.correct(), "{} missing", layers[0]);

        let mut report = Report::new(true);
        report.not_measured(&layers);
        report.check_complete();
        assert!(report.correct());
        assert!(report
            .json()
            .render()
            .contains("\"rlpm.train_s\":{\"value\":0,\"unit\":\"s\"}"));
    }
}
