//! Point-in-time metric snapshots and the two exposition formats.
//!
//! Both renderers consume a [`MetricsSnapshot`] — the immutable,
//! deterministically sorted value an exporter builds at scrape time
//! from its `const` table of (name, help, unit) rows, one
//! [`MetricSample::new`] per series — so text and JSON views of one
//! scrape can never disagree with each other.
//!
//! # The exposition contract
//!
//! The output of [`render_text`](MetricsSnapshot::render_text) and
//! [`render_json`](MetricsSnapshot::render_json) is a **public
//! contract**, documented metric-by-metric in `docs/operations.md`
//! and pinned byte-for-byte by the golden-file test in
//! `crates/ops/tests/golden_exporter.rs`. Changing either format is a
//! breaking change to downstream scrapers: bump [`SCHEMA_VERSION`],
//! regenerate the golden files, and update the runbook in the same
//! commit.
//!
//! The text format follows the Prometheus exposition style (`# HELP`
//! and `# TYPE` comment lines followed by `name{labels} value`
//! samples, histograms expanded to cumulative `_bucket` series plus
//! `_sum`/`_count`), prefixed with one schema banner line. The JSON
//! format is a single object `{"schema": N, "metrics": [...]}` with
//! histogram buckets kept as parallel numeric arrays so consumers
//! never have to parse `+Inf`.

use std::fmt::Write as _;

/// Version stamped into both exposition formats. Bumped when the
/// rendered shape changes incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// The unit of a metric's value, carried into the JSON exposition and
/// the reference documentation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless (event counts, depths).
    None,
    /// Bytes.
    Bytes,
    /// Microseconds.
    Micros,
    /// Seconds.
    Seconds,
    /// A ratio in `[0, 1]` (AUC, rejection rate).
    Ratio,
    /// Samples currently held in a window.
    Samples,
}

impl Unit {
    /// The unit's name in the JSON exposition (`""` for
    /// [`Unit::None`]).
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::None => "",
            Unit::Bytes => "bytes",
            Unit::Micros => "us",
            Unit::Seconds => "s",
            Unit::Ratio => "ratio",
            Unit::Samples => "samples",
        }
    }
}

/// What kind of series a sample came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic `u64` counter.
    Counter,
    /// `f64` gauge.
    Gauge,
    /// Fixed-bucket integer histogram.
    Histogram,
}

impl MetricKind {
    /// The kind's name in both exposition formats.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One series' value at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state: inclusive upper `bounds`, per-bucket `counts`
    /// (one longer than `bounds` — the last slot is the overflow
    /// bucket), and the `sum` of all observations.
    Histogram {
        /// Inclusive upper bucket bounds, strictly increasing.
        bounds: Vec<u64>,
        /// Non-cumulative per-bucket counts; `counts.len() ==
        /// bounds.len() + 1`.
        counts: Vec<u64>,
        /// Sum of all observed values.
        sum: u64,
    },
}

impl SampleValue {
    /// The kind of series this value belongs to.
    fn kind(&self) -> MetricKind {
        match self {
            SampleValue::Counter(_) => MetricKind::Counter,
            SampleValue::Gauge(_) => MetricKind::Gauge,
            SampleValue::Histogram { .. } => MetricKind::Histogram,
        }
    }
}

/// One metric series at snapshot time: identity, metadata and value.
#[derive(Clone, Debug)]
pub struct MetricSample {
    /// Exported name.
    pub name: String,
    /// Series kind.
    pub kind: MetricKind,
    /// Value unit.
    pub unit: Unit,
    /// Help line.
    pub help: String,
    /// Fixed label pairs.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: SampleValue,
}

impl MetricSample {
    /// A label-free sample of `value` for the metric an exporter's
    /// table row names; the kind follows the value. Labeled series set
    /// `labels` on the result.
    pub fn new((name, help, unit): (&str, &str, Unit), value: SampleValue) -> Self {
        Self {
            name: name.to_string(),
            kind: value.kind(),
            unit,
            help: help.to_string(),
            labels: Vec::new(),
            value,
        }
    }
}

/// A deterministic point-in-time view of an exporter's series, sorted
/// by `(name, labels)`.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// The samples, in exposition order.
    pub metrics: Vec<MetricSample>,
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        // Keep integral gauges free of scientific notation and stamp
        // them as floats, so the golden format is stable however the
        // value was computed.
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// `labels` plus one extra pair appended (used for `le` on histogram
/// buckets).
fn label_block_with(labels: &[(String, String)], key: &str, value: &str) -> String {
    let mut all: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    all.push(format!("{key}=\"{value}\""));
    format!("{{{}}}", all.join(","))
}

impl MetricsSnapshot {
    /// Builds a snapshot from raw samples, sorting them into
    /// exposition order.
    pub fn from_samples(mut metrics: Vec<MetricSample>) -> Self {
        metrics.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        Self { metrics }
    }

    /// Renders the Prometheus-style text exposition. See the module
    /// docs for the stability contract.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# dmfsgd-metrics schema {SCHEMA_VERSION}");
        let mut last_name: Option<&str> = None;
        for m in &self.metrics {
            if last_name != Some(m.name.as_str()) {
                let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
                let _ = writeln!(out, "# TYPE {} {}", m.name, m.kind.as_str());
                last_name = Some(m.name.as_str());
            }
            match &m.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {v}", m.name, label_block(&m.labels));
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", m.name, label_block(&m.labels), fmt_f64(*v));
                }
                SampleValue::Histogram {
                    bounds,
                    counts,
                    sum,
                } => {
                    let mut cum = 0u64;
                    for (i, c) in counts.iter().enumerate() {
                        cum += c;
                        let le = if i < bounds.len() {
                            bounds[i].to_string()
                        } else {
                            "+Inf".to_string()
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cum}",
                            m.name,
                            label_block_with(&m.labels, "le", &le)
                        );
                    }
                    let _ = writeln!(out, "{}_sum{} {sum}", m.name, label_block(&m.labels));
                    let _ = writeln!(out, "{}_count{} {cum}", m.name, label_block(&m.labels));
                }
            }
        }
        out
    }

    /// Renders the schema-versioned JSON exposition. Deterministic:
    /// same snapshot, same bytes. See the module docs for the
    /// stability contract.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"schema\":{SCHEMA_VERSION},\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"unit\":\"{}\",\"help\":\"{}\"",
                json_escape(&m.name),
                m.kind.as_str(),
                m.unit.as_str(),
                json_escape(&m.help)
            );
            if !m.labels.is_empty() {
                out.push_str(",\"labels\":{");
                for (j, (k, v)) in m.labels.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
                }
                out.push('}');
            }
            match &m.value {
                SampleValue::Counter(v) => {
                    let _ = write!(out, ",\"value\":{v}");
                }
                SampleValue::Gauge(v) => {
                    let _ = write!(out, ",\"value\":{}", json_f64(*v));
                }
                SampleValue::Histogram {
                    bounds,
                    counts,
                    sum,
                } => {
                    let _ = write!(
                        out,
                        ",\"bounds\":{},\"counts\":{},\"sum\":{sum}",
                        json_u64_array(bounds),
                        json_u64_array(counts)
                    );
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            _ => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    // JSON has no NaN/Inf literals; a gauge with no defined value yet
    // (e.g. rolling AUC before any mixed-class window) exports null.
    if v.is_finite() {
        fmt_f64(v)
    } else {
        "null".to_string()
    }
}

fn json_u64_array(xs: &[u64]) -> String {
    let body: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot::from_samples(vec![
            MetricSample {
                name: "requests_total".into(),
                kind: MetricKind::Counter,
                unit: Unit::None,
                help: "Requests by type.".into(),
                labels: vec![("type".into(), "predict".into())],
                value: SampleValue::Counter(7),
            },
            MetricSample {
                name: "auc".into(),
                kind: MetricKind::Gauge,
                unit: Unit::Ratio,
                help: "Rolling AUC.".into(),
                labels: vec![],
                value: SampleValue::Gauge(0.875),
            },
            MetricSample {
                name: "latency_us".into(),
                kind: MetricKind::Histogram,
                unit: Unit::Micros,
                help: "Latency.".into(),
                labels: vec![],
                value: SampleValue::Histogram {
                    bounds: vec![100, 1000],
                    counts: vec![2, 1, 1],
                    sum: 2500,
                },
            },
        ])
    }

    #[test]
    fn text_exposition_shape() {
        let text = sample_snapshot().render_text();
        let expected = "\
# dmfsgd-metrics schema 1
# HELP auc Rolling AUC.
# TYPE auc gauge
auc 0.875
# HELP latency_us Latency.
# TYPE latency_us histogram
latency_us_bucket{le=\"100\"} 2
latency_us_bucket{le=\"1000\"} 3
latency_us_bucket{le=\"+Inf\"} 4
latency_us_sum 2500
latency_us_count 4
# HELP requests_total Requests by type.
# TYPE requests_total counter
requests_total{type=\"predict\"} 7
";
        assert_eq!(text, expected);
    }

    #[test]
    fn json_exposition_shape() {
        let json = sample_snapshot().render_json();
        let expected = concat!(
            "{\"schema\":1,\"metrics\":[",
            "{\"name\":\"auc\",\"kind\":\"gauge\",\"unit\":\"ratio\",\"help\":\"Rolling AUC.\",\"value\":0.875},",
            "{\"name\":\"latency_us\",\"kind\":\"histogram\",\"unit\":\"us\",\"help\":\"Latency.\",\"bounds\":[100,1000],\"counts\":[2,1,1],\"sum\":2500},",
            "{\"name\":\"requests_total\",\"kind\":\"counter\",\"unit\":\"\",\"help\":\"Requests by type.\",\"labels\":{\"type\":\"predict\"},\"value\":7}",
            "]}"
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn labeled_series_share_a_name_and_sort_by_label() {
        let row = ("requests_total", "Requests by type.", Unit::None);
        let labeled = |value: &str, n| MetricSample {
            labels: vec![("type".into(), value.into())],
            ..MetricSample::new(row, SampleValue::Counter(n))
        };
        let snap = MetricsSnapshot::from_samples(vec![labeled("b", 2), labeled("a", 1)]);
        assert_eq!(snap.metrics[0].labels, vec![("type".into(), "a".into())]);
        assert_eq!(snap.metrics[0].value, SampleValue::Counter(1));
        assert_eq!(snap.metrics[1].value, SampleValue::Counter(2));
        assert_eq!(snap.metrics[1].kind, MetricKind::Counter);
    }

    #[test]
    fn integral_gauges_render_with_a_decimal_point() {
        assert_eq!(fmt_f64(3.0), "3.0");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
    }

    #[test]
    fn non_finite_gauges_export_null_json() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(
            label_block(&[("k".into(), "a\"b\\c".into())]),
            "{k=\"a\\\"b\\\\c\"}"
        );
        assert_eq!(json_escape("a\"b\nc"), "a\\\"b\\nc");
    }
}
