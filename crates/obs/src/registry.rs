//! A lightweight, insertion-ordered metrics registry.

use rfh_stats::Histogram;

/// One registered metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotone event count.
    Counter(u64),
    /// Point-in-time value.
    Gauge(f64),
    /// Distribution summary snapshotted from a [`Histogram`].
    Summary {
        /// Recorded samples.
        count: u64,
        /// Sample mean.
        mean: f64,
        /// Median (NaN when empty).
        p50: f64,
        /// 99th percentile (NaN when empty).
        p99: f64,
    },
}

/// Counters, gauges and histogram summaries, keyed by dotted name
/// (`net.sent`, `traffic.engine.passes`), in insertion order.
///
/// Subsystems expose a `collect_metrics(&self, &mut MetricsRegistry)`
/// hook; callers compose one registry from however many subsystems a
/// run used and render it with [`MetricsRegistry::render`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: Vec<(String, Metric)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn upsert(&mut self, name: &str, value: Metric) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, slot)) => *slot = value,
            None => self.entries.push((name.to_string(), value)),
        }
    }

    /// Add `delta` to a counter (created at zero). For incremental
    /// contributions; a subsystem exporting a lifetime total it already
    /// accumulated itself should use [`MetricsRegistry::counter_total`],
    /// which stays correct when `collect_metrics` runs more than once.
    pub fn counter(&mut self, name: &str, delta: u64) {
        let prior = match self.get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        };
        self.upsert(name, Metric::Counter(prior + delta));
    }

    /// Set a counter to its lifetime `total`, overwriting any prior
    /// value — the counter equivalent of [`MetricsRegistry::gauge`].
    /// `collect_metrics` hooks exporting totals they track themselves
    /// use this so re-collecting into the same registry is idempotent
    /// rather than double-counting.
    pub fn counter_total(&mut self, name: &str, total: u64) {
        self.upsert(name, Metric::Counter(total));
    }

    /// Set a gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.upsert(name, Metric::Gauge(value));
    }

    /// Snapshot a histogram into a summary.
    pub fn histogram(&mut self, name: &str, hist: &Histogram) {
        self.upsert(
            name,
            Metric::Summary {
                count: hist.count(),
                mean: hist.mean(),
                p50: hist.quantile(0.5).unwrap_or(f64::NAN),
                p99: hist.quantile(0.99).unwrap_or(f64::NAN),
            },
        );
    }

    /// The metric registered under `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// All metrics in insertion order.
    pub fn entries(&self) -> &[(String, Metric)] {
        &self.entries
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All metrics sorted by name — the stable-ordered view scrape
    /// endpoints render from, so two scrapes of the same registry state
    /// diff cleanly whatever order subsystems registered in.
    pub fn snapshot(&self) -> Vec<(String, Metric)> {
        let mut out = self.entries.clone();
        out.sort_by(|(a, _), (b, _)| a.cmp(b));
        out
    }

    /// Render in the Prometheus text exposition format (version 0.0.4):
    /// `# TYPE` headers, sanitized names, one sample per line, sorted by
    /// name via [`MetricsRegistry::snapshot`]. Dotted registry names map
    /// onto underscores (`serve.control.ticks` →
    /// `serve_control_ticks`); names that cannot be made valid are
    /// skipped with an explanatory comment rather than corrupting the
    /// exposition.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            let Some(prom) = prometheus_name(&name) else {
                out.push_str(&format!("# skipped metric with unexposable name {name:?}\n"));
                continue;
            };
            match value {
                Metric::Counter(v) => {
                    out.push_str(&format!("# TYPE {prom} counter\n{prom} {v}\n"));
                }
                Metric::Gauge(v) => {
                    out.push_str(&format!("# TYPE {prom} gauge\n{prom} {v}\n"));
                }
                Metric::Summary { count, mean, p50, p99 } => {
                    out.push_str(&format!("# TYPE {prom} summary\n"));
                    if p50.is_finite() {
                        out.push_str(&format!("{prom}{{quantile=\"0.5\"}} {p50}\n"));
                    }
                    if p99.is_finite() {
                        out.push_str(&format!("{prom}{{quantile=\"0.99\"}} {p99}\n"));
                    }
                    out.push_str(&format!("{prom}_count {count}\n"));
                    out.push_str(&format!("{prom}_sum {}\n", mean * count as f64));
                }
            }
        }
        out
    }

    /// A two-column text table (name, value), one metric per line.
    pub fn render(&self) -> String {
        let width = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in &self.entries {
            let rendered = match value {
                Metric::Counter(v) => format!("{v}"),
                Metric::Gauge(v) => format!("{v:.3}"),
                Metric::Summary { count, mean, p50, p99 } => {
                    format!("count={count} mean={mean:.3} p50={p50:.3} p99={p99:.3}")
                }
            };
            out.push_str(&format!("{name:width$}  {rendered}\n"));
        }
        out
    }
}

/// Map a registry name onto a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and other invalid characters
/// become `_`, a leading digit gets a `_` prefix. Returns `None` when
/// nothing salvageable remains (empty, or all-invalid characters).
pub fn prometheus_name(name: &str) -> Option<String> {
    if name.is_empty() || !name.bytes().any(|b| b.is_ascii_alphanumeric()) {
        return None;
    }
    let mut out = String::with_capacity(name.len() + 1);
    for (i, b) in name.bytes().enumerate() {
        let valid = b.is_ascii_alphabetic() || b == b'_' || b == b':' || b.is_ascii_digit();
        if i == 0 && b.is_ascii_digit() {
            out.push('_');
        }
        out.push(if valid { b as char } else { '_' });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut reg = MetricsRegistry::new();
        reg.counter("net.sent", 3);
        reg.counter("net.sent", 4);
        reg.gauge("net.depth", 1.0);
        reg.gauge("net.depth", 2.5);
        assert_eq!(reg.get("net.sent"), Some(&Metric::Counter(7)));
        assert_eq!(reg.get("net.depth"), Some(&Metric::Gauge(2.5)));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn counter_total_overwrites_so_recollection_is_idempotent() {
        let mut reg = MetricsRegistry::new();
        reg.counter_total("sim.epochs", 250);
        reg.counter_total("sim.epochs", 250);
        assert_eq!(reg.get("sim.epochs"), Some(&Metric::Counter(250)));
        reg.counter_total("sim.epochs", 300);
        assert_eq!(reg.get("sim.epochs"), Some(&Metric::Counter(300)));
    }

    #[test]
    fn histogram_summaries_snapshot_quantiles() {
        let mut hist = Histogram::new(0.0, 10.0, 10);
        for v in [1.0, 2.0, 3.0, 4.0] {
            hist.record(v);
        }
        let mut reg = MetricsRegistry::new();
        reg.histogram("net.hops", &hist);
        match reg.get("net.hops") {
            Some(Metric::Summary { count, mean, .. }) => {
                assert_eq!(*count, 4);
                assert!((mean - 2.5).abs() < 1e-9);
            }
            other => panic!("expected summary, got {other:?}"),
        }
    }

    #[test]
    fn render_keeps_insertion_order() {
        let mut reg = MetricsRegistry::new();
        reg.counter("b.second", 1);
        reg.counter("a.first", 2);
        let table = reg.render();
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].starts_with("b.second"));
        assert!(lines[1].starts_with("a.first"));
    }

    #[test]
    fn snapshot_is_name_sorted_regardless_of_insertion() {
        let mut reg = MetricsRegistry::new();
        reg.counter("z.last", 1);
        reg.gauge("a.first", 2.0);
        reg.counter("m.middle", 3);
        let names: Vec<String> = reg.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.first", "m.middle", "z.last"]);
        // Insertion order in `entries` is untouched.
        assert_eq!(reg.entries()[0].0, "z.last");
    }

    #[test]
    fn prometheus_name_sanitizes() {
        assert_eq!(prometheus_name("serve.control.ticks").as_deref(), Some("serve_control_ticks"));
        assert_eq!(prometheus_name("already_fine:ok9").as_deref(), Some("already_fine:ok9"));
        assert_eq!(prometheus_name("9starts.with.digit").as_deref(), Some("_9starts_with_digit"));
        assert_eq!(prometheus_name("weird name+é").as_deref(), Some("weird_name___"));
        assert_eq!(prometheus_name(""), None);
        assert_eq!(prometheus_name("..."), None);
        assert_eq!(prometheus_name("___"), None);
    }

    #[test]
    fn render_prometheus_sorts_types_and_escapes() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("z.depth", 1.5);
        reg.counter("net.sent", 7);
        reg.counter("...", 9);
        let mut hist = Histogram::new(0.0, 10.0, 10);
        for v in [1.0, 2.0, 3.0, 4.0] {
            hist.record(v);
        }
        reg.histogram("serve.lat", &hist);
        let text = reg.render_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "# skipped metric with unexposable name \"...\"",
                "# TYPE net_sent counter",
                "net_sent 7",
                "# TYPE serve_lat summary",
                "serve_lat{quantile=\"0.5\"} 3",
                "serve_lat{quantile=\"0.99\"} 5",
                "serve_lat_count 4",
                "serve_lat_sum 10",
                "# TYPE z_depth gauge",
                "z_depth 1.5",
            ]
        );
    }

    #[test]
    fn render_prometheus_empty_summary_omits_quantiles() {
        let mut reg = MetricsRegistry::new();
        reg.histogram("empty.lat", &Histogram::new(0.0, 1.0, 2));
        let text = reg.render_prometheus();
        assert!(!text.contains("quantile"), "NaN quantiles must not be emitted:\n{text}");
        assert!(text.contains("empty_lat_count 0"));
    }
}
