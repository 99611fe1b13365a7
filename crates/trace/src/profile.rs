//! Rendering sinks over a collected trace: the `EXPLAIN ANALYZE`-style tree,
//! the Chrome `trace_event` JSON exporter and the Prometheus text exposition.

use crate::{AttrValue, Histogram, SpanRecord};
use std::collections::BTreeMap;

/// Span names with these prefixes describe *physical* execution mechanics
/// (the worker pool's morsels) rather than the logical query: they are
/// excluded from [`Profile::logical_shape`], which must be identical across
/// worker counts.
const PHYSICAL_PREFIXES: &[&str] = &["pool."];

/// An immutable snapshot of one query's trace: finished spans plus the
/// counter and gauge maps. Produced by `TraceHandle::profile`.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Profile {
    /// Wraps collected data (spans are re-sorted by start time).
    pub fn new(
        mut spans: Vec<SpanRecord>,
        counters: BTreeMap<String, u64>,
        gauges: BTreeMap<String, u64>,
    ) -> Self {
        spans.sort_by_key(|s| (s.start_ns, s.id));
        Self {
            spans,
            counters,
            gauges,
            histograms: BTreeMap::new(),
        }
    }

    /// Attaches the per-span-name latency histograms (builder style).
    pub fn with_histograms(mut self, histograms: BTreeMap<String, Histogram>) -> Self {
        self.histograms = histograms;
        self
    }

    /// The finished spans, ordered by start time.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The sum-merged counters.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// The max-merged gauges.
    pub fn gauges(&self) -> &BTreeMap<String, u64> {
        &self.gauges
    }

    /// The bucket-wise sum-merged latency histograms, keyed by span name.
    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }

    /// The named latency histogram, if any spans with that name finished.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Total wall time of the named span (summed over occurrences), in
    /// seconds. Useful for per-stage aggregation across repetitions.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns as f64 / 1e9)
            .sum()
    }

    /// Children of `parent` (0 = roots), in start order. Spans whose parent
    /// id is unknown (a dangling import) are treated as roots too.
    fn children_of(&self, parent: u64) -> Vec<&SpanRecord> {
        let known: std::collections::BTreeSet<u64> = self.spans.iter().map(|s| s.id).collect();
        self.spans
            .iter()
            .filter(|s| {
                if parent == 0 {
                    s.parent == 0 || !known.contains(&s.parent)
                } else {
                    s.parent == parent
                }
            })
            .collect()
    }

    /// Renders the span tree in `EXPLAIN ANALYZE` style: one row per span
    /// with wall time and attributes, indented by depth, followed by the
    /// counter/gauge table.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for root in self.children_of(0) {
            self.render_node(root, 0, &mut out);
        }
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            out.push_str("metrics:\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name} = {value}\n"));
            }
            for (name, value) in &self.gauges {
                out.push_str(&format!("  {name} (peak) = {value}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("latency (ms):\n");
            for (name, histogram) in &self.histograms {
                out.push_str(&format!(
                    "  {name}: n={} p50={:.3} p90={:.3} p99={:.3}\n",
                    histogram.count(),
                    histogram.quantile_ns(0.50) as f64 / 1e6,
                    histogram.quantile_ns(0.90) as f64 / 1e6,
                    histogram.quantile_ns(0.99) as f64 / 1e6,
                ));
            }
        }
        out
    }

    fn render_node(&self, span: &SpanRecord, depth: usize, out: &mut String) {
        let ms = span.duration_ns as f64 / 1e6;
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!("{} ({ms:.3} ms)", span.name));
        for (key, value) in &span.attrs {
            out.push_str(&format!(" {key}={value}"));
        }
        out.push('\n');
        for child in self.children_of(span.id) {
            self.render_node(child, depth + 1, out);
        }
    }

    /// Serializes the spans as Chrome `trace_event` JSON (complete events,
    /// `ph:"X"`), loadable in `chrome://tracing` / Perfetto. Hand-rolled —
    /// the offline `serde_json` shim only covers what the bench tooling
    /// needs, and the format is a flat array of small objects anyway.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"rdo\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
                json_string(&span.name),
                span.start_ns / 1_000,
                (span.duration_ns / 1_000).max(1),
                span.thread,
            ));
            if !span.attrs.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (key, value)) in span.attrs.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_string(key));
                    out.push(':');
                    match value {
                        AttrValue::U64(v) => out.push_str(&v.to_string()),
                        AttrValue::Str(s) => out.push_str(&json_string(s)),
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Renders the counters and gauges in Prometheus text exposition format.
    /// Metric names are sanitized (`.` and `-` become `_`) and prefixed with
    /// `rdo_`.
    pub fn metrics_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let metric = prometheus_name(name);
            out.push_str(&format!("# TYPE {metric} counter\n{metric} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let metric = prometheus_name(name);
            out.push_str(&format!("# TYPE {metric} gauge\n{metric} {value}\n"));
        }
        out.push_str(&self.histograms_text());
        out
    }

    /// The latency histograms alone in Prometheus text exposition format:
    /// cumulative `_bucket{le="..."}` series (finite boundaries with at least
    /// one observation, plus the mandatory `+Inf`), `_sum` and `_count`. Each
    /// span name `x.y` becomes the family `rdo_x_y_duration_ns`.
    pub fn histograms_text(&self) -> String {
        let mut out = String::new();
        for (name, histogram) in &self.histograms {
            let metric = format!("{}_duration_ns", prometheus_name(name));
            out.push_str(&format!("# TYPE {metric} histogram\n"));
            let mut cumulative = 0u64;
            let buckets = histogram.bucket_counts();
            for (index, bucket) in buckets.iter().enumerate() {
                cumulative += bucket;
                if index == buckets.len() - 1 {
                    out.push_str(&format!("{metric}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                } else if *bucket > 0 {
                    out.push_str(&format!(
                        "{metric}_bucket{{le=\"{}\"}} {cumulative}\n",
                        Histogram::bound_ns(index)
                    ));
                }
            }
            out.push_str(&format!("{metric}_sum {}\n", histogram.sum_ns()));
            out.push_str(&format!("{metric}_count {}\n", histogram.count()));
        }
        out
    }

    /// A canonical, duration-free rendering of the *logical* span tree:
    /// physical (`pool.`) spans are elided — their children are re-attached
    /// to the nearest logical ancestor — and siblings are sorted by name and
    /// attributes. Two runs of the same query must produce the same shape
    /// regardless of worker count; the equivalence tests assert exactly
    /// that.
    pub fn logical_shape(&self) -> String {
        let by_id: BTreeMap<u64, &SpanRecord> = self.spans.iter().map(|s| (s.id, s)).collect();
        // Resolve each logical span's nearest logical ancestor.
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| !is_physical(&s.name)) {
            let mut parent = span.parent;
            loop {
                match by_id.get(&parent) {
                    Some(p) if is_physical(&p.name) => parent = p.parent,
                    Some(p) => break children.entry(p.id).or_default().push(span),
                    None => break children.entry(0).or_default().push(span),
                }
            }
        }
        for list in children.values_mut() {
            list.sort_by_key(|s| (s.name.clone(), shape_attrs(s), s.start_ns, s.id));
        }
        let mut out = String::new();
        let roots = children.get(&0).cloned().unwrap_or_default();
        for root in roots {
            render_shape(root, 0, &children, &mut out);
        }
        out
    }
}

fn render_shape(
    span: &SpanRecord,
    depth: usize,
    children: &BTreeMap<u64, Vec<&SpanRecord>>,
    out: &mut String,
) {
    out.push_str(&"  ".repeat(depth));
    out.push_str(&span.name);
    out.push_str(&shape_attrs(span));
    out.push('\n');
    for child in children.get(&span.id).cloned().unwrap_or_default() {
        render_shape(child, depth + 1, children, out);
    }
}

fn is_physical(name: &str) -> bool {
    PHYSICAL_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// The attributes that participate in the logical shape: everything except
/// obviously physical measurements would over-constrain, so the shape keeps
/// only attributes whose values are worker-count invariant by
/// construction (names, levels, counts of logical objects).
fn shape_attrs(span: &SpanRecord) -> String {
    let mut out = String::new();
    for (key, value) in &span.attrs {
        if matches!(
            key.as_str(),
            "table" | "query" | "point" | "level" | "fanout" | "partitions" | "algo"
        ) {
            out.push_str(&format!(" {key}={value}"));
        }
    }
    out
}

/// Sanitizes a metric name for the Prometheus text exposition (`.` and every
/// other non-alphanumeric character become `_`) and prefixes it with `rdo_`,
/// the single registry namespace every exposition in the workspace shares.
pub fn prometheus_name(name: &str) -> String {
    let safe: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("rdo_{safe}")
}

pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, parent: u64, name: &str, start: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            thread: 1,
            start_ns: start,
            duration_ns: 1_000_000,
            attrs: Vec::new(),
        }
    }

    fn sample() -> Profile {
        let mut root = record(1, 0, "driver.execute", 0);
        root.attrs
            .push(("query".to_string(), AttrValue::Str("q9".to_string())));
        let spans = vec![
            root,
            record(2, 1, "stage.reopt", 10),
            record(3, 2, "pool.morsel", 20),
            record(4, 3, "exec.join", 30),
            record(5, 1, "stage.final", 40),
        ];
        let mut counters = BTreeMap::new();
        counters.insert("spill.pool.hits".to_string(), 12u64);
        let mut gauges = BTreeMap::new();
        gauges.insert("pool.queue_wait_ns".to_string(), 55u64);
        Profile::new(spans, counters, gauges)
    }

    #[test]
    fn tree_renders_nesting_durations_and_metrics() {
        let text = sample().render_tree();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("driver.execute (1.000 ms) query=q9"));
        assert!(lines[1].starts_with("  stage.reopt"));
        assert!(lines[2].starts_with("    pool.morsel"));
        assert!(lines[3].starts_with("      exec.join"));
        assert!(lines[4].starts_with("  stage.final"));
        assert!(text.contains("spill.pool.hits = 12"));
        assert!(text.contains("pool.queue_wait_ns (peak) = 55"));
    }

    #[test]
    fn logical_shape_elides_physical_spans_and_reparents() {
        let shape = sample().logical_shape();
        assert_eq!(
            shape, "driver.execute query=q9\n  stage.final\n  stage.reopt\n    exec.join\n",
            "pool.morsel elided, exec.join reparented under stage.reopt"
        );
    }

    #[test]
    fn logical_shape_is_duration_and_thread_invariant() {
        let a = sample();
        let mut spans = a.spans().to_vec();
        for s in &mut spans {
            s.duration_ns *= 7;
            s.thread += 3;
        }
        // Different start order within siblings of equal name is also fine.
        let b = Profile::new(spans, BTreeMap::new(), BTreeMap::new());
        assert_eq!(a.logical_shape(), b.logical_shape());
    }

    #[test]
    fn chrome_export_is_minimally_wellformed() {
        let json = sample().chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"driver.execute\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"args\":{\"query\":\"q9\"}"));
        assert_eq!(
            json.matches("{\"name\":").count(),
            5,
            "one event per span: {json}"
        );
    }

    #[test]
    fn json_strings_escape_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn prometheus_text_sanitizes_names() {
        let text = sample().metrics_text();
        assert!(text.contains("# TYPE rdo_spill_pool_hits counter"));
        assert!(text.contains("rdo_spill_pool_hits 12"));
        assert!(text.contains("# TYPE rdo_pool_queue_wait_ns gauge"));
        assert!(text.contains("rdo_pool_queue_wait_ns 55"));
    }

    fn sample_with_histograms() -> Profile {
        let mut h = Histogram::new();
        for v in [500u64, 2_000, 2_000, 1_000_000] {
            h.observe(v);
        }
        sample().with_histograms(BTreeMap::from([("stage.reopt".to_string(), h)]))
    }

    #[test]
    fn tree_renders_latency_percentiles() {
        let text = sample_with_histograms().render_tree();
        assert!(text.contains("latency (ms):"), "{text}");
        assert!(
            text.contains("stage.reopt: n=4 p50=0.002 p90=1.049 p99=1.049"),
            "{text}"
        );
    }

    #[test]
    fn histogram_exposition_has_cumulative_buckets() {
        let text = sample_with_histograms().metrics_text();
        assert!(text.contains("# TYPE rdo_stage_reopt_duration_ns histogram"));
        assert!(text.contains("rdo_stage_reopt_duration_ns_bucket{le=\"1024\"} 1"));
        assert!(text.contains("rdo_stage_reopt_duration_ns_bucket{le=\"2048\"} 3"));
        assert!(text.contains("rdo_stage_reopt_duration_ns_bucket{le=\"1048576\"} 4"));
        assert!(text.contains("rdo_stage_reopt_duration_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("rdo_stage_reopt_duration_ns_sum 1004500"));
        assert!(text.contains("rdo_stage_reopt_duration_ns_count 4"));
    }

    #[test]
    fn total_seconds_sums_over_occurrences() {
        let profile = sample();
        assert!((profile.total_seconds("stage.reopt") - 0.001).abs() < 1e-9);
        assert_eq!(profile.total_seconds("absent"), 0.0);
    }
}
