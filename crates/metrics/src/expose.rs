//! The Prometheus text exposition served at `GET /metrics` and written
//! by `--metrics FILE`.

use std::fmt::Write as _;

use crate::snapshot::{MetricValue, Snapshot};
use crate::HISTOGRAM_BUCKETS;

impl Snapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers per metric name,
    /// then one sample per series. Histograms emit cumulative
    /// `_bucket{le=...}` samples (zero-count buckets elided), `_sum`
    /// and `_count`. Output is deterministic: sorted by name, then
    /// label set.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for (key, value) in &self.metrics {
            if last_name != Some(key.name.as_str()) {
                if let Some(help) = self.help.get(&key.name) {
                    let escaped = help.replace('\\', "\\\\").replace('\n', "\\n");
                    let _ = writeln!(out, "# HELP {} {escaped}", key.name);
                }
                let kind = match value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {} {kind}", key.name);
                last_name = Some(key.name.as_str());
            }
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {v}", key.name, label_block(&key.labels, None));
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {v}", key.name, label_block(&key.labels, None));
                }
                MetricValue::Histogram(h) => {
                    // Finite buckets only; the overflow slot is covered by
                    // the unconditional `+Inf` sample below (`h.count`).
                    let mut cumulative = 0u64;
                    for (i, &count) in h.buckets.iter().enumerate().take(HISTOGRAM_BUCKETS - 1) {
                        cumulative += count;
                        if count == 0 {
                            continue;
                        }
                        let le = (1u64 << i).to_string();
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cumulative}",
                            key.name,
                            label_block(&key.labels, Some(&le))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        key.name,
                        label_block(&key.labels, Some("+Inf")),
                        h.count
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        key.name,
                        label_block(&key.labels, None),
                        h.sum
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        key.name,
                        label_block(&key.labels, None),
                        h.count
                    );
                }
            }
        }
        out
    }
}

/// `{a="x",le="+Inf"}` label block text (empty string when no labels).
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
        let _ = write!(out, "{k}=\"{escaped}\"");
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    /// A registry exercising every exposition path: one counter under
    /// two label sets, a negative gauge, a histogram with several finite
    /// buckets and overflow into `+Inf`, a label value and a help text
    /// that need escaping.
    fn populated() -> Registry {
        let reg = Registry::new();
        reg.counter("sim_cycles_total", "control steps", &[("backend", "ops")]).add(1234);
        reg.counter("sim_cycles_total", "control steps", &[("backend", "interp")]).add(99);
        reg.gauge("batch_inflight", "jobs in flight\nback\\slash", &[]).set(-3);
        let h = reg.histogram("job_us", "job latency", &[("mode", "both")]);
        for v in [1, 2, 3, 900, 70_000, 1 << 40] {
            h.observe(v);
        }
        reg.counter("requests_total", "requests served", &[("path", "a\"b\\c\nd")]).inc();
        reg
    }

    #[test]
    fn prometheus_exposition_matches_the_golden_bytes() {
        let expected = r#"# HELP batch_inflight jobs in flight\nback\\slash
# TYPE batch_inflight gauge
batch_inflight -3
# HELP job_us job latency
# TYPE job_us histogram
job_us_bucket{mode="both",le="1"} 1
job_us_bucket{mode="both",le="2"} 2
job_us_bucket{mode="both",le="4"} 3
job_us_bucket{mode="both",le="1024"} 4
job_us_bucket{mode="both",le="131072"} 5
job_us_bucket{mode="both",le="+Inf"} 6
job_us_sum{mode="both"} 1099511698682
job_us_count{mode="both"} 6
# HELP requests_total requests served
# TYPE requests_total counter
requests_total{path="a\"b\\c\nd"} 1
# HELP sim_cycles_total control steps
# TYPE sim_cycles_total counter
sim_cycles_total{backend="interp"} 99
sim_cycles_total{backend="ops"} 1234
"#;
        assert_eq!(populated().snapshot().to_prometheus(), expected);
    }
}
