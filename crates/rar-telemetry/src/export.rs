//! Deterministic exporters: JSON and Prometheus text.
//!
//! Both walk the same sorted [`MetricsRegistry::snapshot`], so a metric
//! registered anywhere appears in *both* formats (asserted by
//! `cargo xtask lint`), and exporting the same registry state twice
//! yields byte-identical output regardless of thread count.

use crate::registry::{HistogramSnapshot, MetricValue, MetricsRegistry, HISTOGRAM_BUCKETS};
use rar_trace::jsonv::escape;
use std::fmt::Write as _;

/// Schema tag of the JSON telemetry export.
pub const TELEMETRY_SCHEMA: &str = "rar-telemetry-v1";

/// Maps non-finite floats to `0.0` so exported JSON never contains
/// `NaN`/`inf` (which JSON cannot represent).
#[must_use]
pub fn sanitize_f64(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Builds a registry key carrying a Prometheus-style label block, with
/// label values escaped (`\\`, `\"`, `\n`) at construction time. The
/// exporters treat the block as opaque, so escaping happens exactly once.
#[must_use]
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

/// Escapes a label value per the Prometheus text exposition format.
#[must_use]
pub fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Rewrites `name` into a valid Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, other characters become `_`.
#[must_use]
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Splits a registry key into (metric name, optional label block body).
fn split_key(key: &str) -> (&str, Option<&str>) {
    match key.find('{') {
        Some(at) => (&key[..at], Some(key[at + 1..].trim_end_matches('}'))),
        None => (key, None),
    }
}

/// Upper bound of finite histogram bucket `i` (`2^i`).
fn bucket_bound(i: usize) -> u128 {
    1u128 << i
}

/// Approximate quantile `q` (in `[0, 1]`) of a log2 histogram: the upper
/// bound of the first bucket whose cumulative count reaches rank
/// `ceil(q * count)`. The bound overestimates by at most 2x (one bucket
/// width); observations that overflowed the finite buckets report
/// `u64::MAX`. An empty histogram reports 0.
#[must_use]
pub fn histogram_quantile(h: &HistogramSnapshot, q: f64) -> u64 {
    if h.count == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    // ceil(q * count), clamped into [1, count]: precise in u128 arithmetic
    // for the tail ranks this exporter asks for.
    let rank = {
        let scaled = q * h.count as f64;
        let r = scaled.ceil();
        if r < 1.0 {
            1
        } else if r >= h.count as f64 {
            h.count
        } else {
            // Safe: 1.0 <= r < count, and count fits in u64.
            r as u64
        }
    };
    let mut cumulative = 0u64;
    for (i, &n) in h.buckets.iter().enumerate() {
        cumulative += n;
        if cumulative >= rank {
            return u64::try_from(bucket_bound(i)).unwrap_or(u64::MAX);
        }
    }
    // The rank lands in the overflow bucket: beyond the finite range.
    u64::MAX
}

/// The quantiles both exporters derive from every histogram.
const EXPORTED_QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)];

/// Serializes the registry to a pretty-printed JSON object with sorted
/// keys (snapshot order). Histogram buckets are emitted as
/// `[bound, count]` pairs for non-empty buckets only, so the export stays
/// compact and byte-stable.
#[must_use]
pub fn to_json(registry: &MetricsRegistry) -> String {
    let snap = registry.snapshot();
    let mut out = String::with_capacity(256 + 64 * snap.len());
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{TELEMETRY_SCHEMA}\",");
    out.push_str("  \"metrics\": {\n");
    for (i, (name, value)) in snap.iter().enumerate() {
        let comma = if i + 1 < snap.len() { "," } else { "" };
        let key = escape(name);
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(
                    out,
                    "    \"{key}\": {{\"kind\": \"counter\", \"value\": {v}}}{comma}"
                );
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "    \"{key}\": {{\"kind\": \"gauge\", \"value\": {:.6}}}{comma}",
                    sanitize_f64(*v)
                );
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    "    \"{key}\": {{\"kind\": \"histogram\", \"count\": {}, \"sum\": {}, \"overflow\": {}",
                    h.count, h.sum, h.overflow
                );
                for (label, q) in EXPORTED_QUANTILES {
                    let _ = write!(out, ", \"{label}\": {}", histogram_quantile(h, q));
                }
                out.push_str(", \"buckets\": [");
                let mut first = true;
                for (b, &n) in h.buckets.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    let _ = write!(out, "[{}, {n}]", bucket_bound(b));
                }
                let _ = writeln!(out, "]}}{comma}");
            }
        }
    }
    out.push_str("  }\n}\n");
    out
}

/// Serializes the registry to the Prometheus text exposition format.
///
/// Histograms render cumulative `_bucket` series up to the highest
/// non-empty finite bucket plus the mandatory `+Inf` bucket, followed by
/// `_sum` and `_count`; cumulative counts are monotone by construction.
#[must_use]
pub fn to_prometheus(registry: &MetricsRegistry) -> String {
    let snap = registry.snapshot();
    let mut out = String::with_capacity(256 + 96 * snap.len());
    for (key, value) in &snap {
        let (raw_name, labels) = split_key(key);
        let name = sanitize_metric_name(raw_name);
        let series = |extra: Option<&str>| -> String {
            // Merge the key's label block with an extra label (`le`).
            match (labels, extra) {
                (None, None) => name.clone(),
                (Some(l), None) => format!("{name}{{{l}}}"),
                (None, Some(e)) => format!("{name}{{{e}}}"),
                (Some(l), Some(e)) => format!("{name}{{{l},{e}}}"),
            }
        };
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{} {v}", series(None));
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{} {}", series(None), sanitize_f64(*v));
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                write_histogram(&mut out, &name, labels, h);
            }
        }
    }
    out
}

fn write_histogram(out: &mut String, name: &str, labels: Option<&str>, h: &HistogramSnapshot) {
    let bucket_series = |le: &str| -> String {
        match labels {
            Some(l) => format!("{name}_bucket{{{l},le=\"{le}\"}}"),
            None => format!("{name}_bucket{{le=\"{le}\"}}"),
        }
    };
    let last_nonzero = h
        .buckets
        .iter()
        .rposition(|&n| n > 0)
        .map_or(0, |i| i + 1)
        .min(HISTOGRAM_BUCKETS);
    let mut cumulative = 0u64;
    for i in 0..last_nonzero {
        cumulative += h.buckets[i];
        let _ = writeln!(
            out,
            "{} {cumulative}",
            bucket_series(&bucket_bound(i).to_string())
        );
    }
    let _ = writeln!(out, "{} {}", bucket_series("+Inf"), h.count);
    let suffix = |tail: &str| match labels {
        Some(l) => format!("{name}_{tail}{{{l}}}"),
        None => format!("{name}_{tail}"),
    };
    let _ = writeln!(out, "{} {}", suffix("sum"), h.sum);
    let _ = writeln!(out, "{} {}", suffix("count"), h.count);
    // Approximate tail quantiles derived from the log2 buckets, exported
    // as companion gauges so scrapes need no PromQL histogram_quantile.
    for (label, q) in EXPORTED_QUANTILES {
        let _ = writeln!(out, "{} {}", suffix(label), histogram_quantile(h, q));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_histogram(reg: &MetricsRegistry, name: &str) -> HistogramSnapshot {
        match reg
            .snapshot()
            .into_iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
        {
            Some(MetricValue::Histogram(s)) => *s,
            other => panic!("expected histogram {name}, got {other:?}"),
        }
    }

    #[test]
    fn json_export_is_sorted_and_balanced() {
        let reg = MetricsRegistry::new();
        reg.counter("zz_total").add(3);
        reg.gauge("aa_ratio").set(0.5);
        reg.histogram("mm_nanos").observe(7);
        let json = to_json(&reg);
        let aa = json.find("aa_ratio").unwrap();
        let mm = json.find("mm_nanos").unwrap();
        let zz = json.find("zz_total").unwrap();
        assert!(aa < mm && mm < zz, "keys must be sorted");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn json_export_is_reproducible() {
        let reg = MetricsRegistry::new();
        reg.counter("b").add(1);
        reg.counter("a").add(2);
        assert_eq!(to_json(&reg), to_json(&reg));
    }

    #[test]
    fn metric_name_sanitization() {
        assert_eq!(sanitize_metric_name("rar_cells_total"), "rar_cells_total");
        assert_eq!(sanitize_metric_name("cache hit-rate"), "cache_hit_rate");
        assert_eq!(sanitize_metric_name("9lives"), "_lives");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn labeled_keys_escape_values_once() {
        let key = labeled("runs", &[("workload", "a\"b\\c\nd")]);
        assert_eq!(key, "runs{workload=\"a\\\"b\\\\c\\nd\"}");
    }

    #[test]
    fn prometheus_renders_all_three_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("cells_total").add(2);
        reg.gauge("util").set(0.25);
        reg.histogram("lat").observe(3);
        let text = to_prometheus(&reg);
        assert!(text.contains("# TYPE cells_total counter"));
        assert!(text.contains("cells_total 2"));
        assert!(text.contains("# TYPE util gauge"));
        assert!(text.contains("util 0.25"));
        assert!(text.contains("# TYPE lat histogram"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_sum 3"));
        assert!(text.contains("lat_count 1"));
        assert!(text.contains("lat_p50 4"));
        assert!(text.contains("lat_p99 4"));
    }

    #[test]
    fn histogram_quantiles_walk_cumulative_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("q_nanos");
        // 90 observations in bucket le=1, 9 in le=16, 1 in le=1024.
        for _ in 0..90 {
            h.observe(1);
        }
        for _ in 0..9 {
            h.observe(16);
        }
        h.observe(1000);
        let snap = snapshot_histogram(&reg, "q_nanos");
        assert_eq!(histogram_quantile(&snap, 0.50), 1);
        assert_eq!(histogram_quantile(&snap, 0.90), 1);
        assert_eq!(histogram_quantile(&snap, 0.95), 16);
        assert_eq!(histogram_quantile(&snap, 0.99), 16);
        assert_eq!(histogram_quantile(&snap, 1.0), 1024);
        assert_eq!(histogram_quantile(&snap, 0.0), 1);
        let empty = HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            overflow: 0,
            count: 0,
            sum: 0,
        };
        assert_eq!(histogram_quantile(&empty, 0.5), 0);
    }

    #[test]
    fn json_export_carries_quantiles() {
        let reg = MetricsRegistry::new();
        reg.histogram("lat_nanos").observe(100);
        let json = to_json(&reg);
        assert!(json.contains("\"p50\": 128"));
        assert!(json.contains("\"p90\": 128"));
        assert!(json.contains("\"p99\": 128"));
    }

    #[test]
    fn overflow_quantile_reports_saturated() {
        let reg = MetricsRegistry::new();
        reg.histogram("big").observe(u64::MAX);
        let snap = snapshot_histogram(&reg, "big");
        if snap.overflow > 0 {
            assert_eq!(histogram_quantile(&snap, 0.99), u64::MAX);
        } else {
            // u64::MAX lands in the top finite bucket on this build.
            assert!(histogram_quantile(&snap, 0.99) >= 1 << 63);
        }
    }
}
