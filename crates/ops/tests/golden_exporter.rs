//! Golden-file pin of the exposition contract.
//!
//! The text and JSON renderings of a [`MetricsSnapshot`] are a public
//! contract (scrapers parse them; `docs/operations.md` documents
//! them). This test renders one snapshot exercising every feature of
//! the format — plain and labeled counters, integral / fractional /
//! NaN gauges, a histogram — and compares the bytes against
//! `tests/golden/metrics.{txt,json}`.
//!
//! To change the format intentionally: bump
//! [`dmf_ops::SCHEMA_VERSION`], run the suite once with
//! `DMF_UPDATE_GOLDEN=1` to regenerate the files, and update the
//! runbook in the same commit.

use dmf_ops::{Counter, Gauge, Histogram, MetricSample, MetricsSnapshot, SampleValue, Unit};
use std::path::PathBuf;

/// A snapshot exercising every exposition feature with fixed,
/// hand-picked values, built the way every exporter builds one: a
/// sample per table row, values read from the handles.
fn golden_snapshot() -> MetricsSnapshot {
    const REQUESTS: (&str, &str, Unit) = (
        "dmf_demo_requests_total",
        "Requests executed, by request type.",
        Unit::None,
    );
    const RESTARTS: (&str, &str, Unit) = (
        "dmf_demo_restarts_total",
        "Agent restarts (never incremented here: zero renders too).",
        Unit::None,
    );
    const BYTES_SENT: (&str, &str, Unit) = (
        "dmf_demo_bytes_sent_total",
        "Application bytes handed to the transport.",
        Unit::Bytes,
    );
    const ROLLING_AUC: (&str, &str, Unit) = (
        "dmf_demo_rolling_auc",
        "Rolling AUC over the live quality window (NaN while undefined).",
        Unit::Ratio,
    );
    const STALENESS: (&str, &str, Unit) = (
        "dmf_demo_staleness_seconds",
        "Seconds since the last applied update (NaN before the first).",
        Unit::Seconds,
    );
    const IN_FLIGHT: (&str, &str, Unit) = (
        "dmf_demo_in_flight",
        "Integral gauges render with a decimal point.",
        Unit::None,
    );
    const LATENCY: (&str, &str, Unit) = (
        "dmf_demo_latency_us",
        "Per-request execution latency in microseconds.",
        Unit::Micros,
    );

    let mut samples: Vec<MetricSample> = [("predict", 7u64), ("update", 3)]
        .into_iter()
        .map(|(kind, count)| MetricSample {
            labels: vec![("type".into(), kind.into())],
            ..MetricSample::new(REQUESTS, SampleValue::Counter(count))
        })
        .collect();
    let bytes = Counter::default();
    bytes.add(4096);
    let in_flight = Gauge::default();
    in_flight.set(3.0);
    let latency = Histogram::new(&[100, 1_000, 10_000]);
    for v in [40u64, 150, 5_000, 20_000] {
        latency.observe(v);
    }
    samples.extend([
        MetricSample::new(RESTARTS, SampleValue::Counter(0)),
        MetricSample::new(BYTES_SENT, SampleValue::Counter(bytes.get())),
        MetricSample::new(ROLLING_AUC, SampleValue::Gauge(0.875)),
        MetricSample::new(STALENESS, SampleValue::Gauge(f64::NAN)),
        MetricSample::new(IN_FLIGHT, SampleValue::Gauge(in_flight.get())),
        MetricSample::new(LATENCY, latency.value()),
    ]);
    MetricsSnapshot::from_samples(samples)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `got` against the named golden file byte for byte;
/// `DMF_UPDATE_GOLDEN=1` rewrites the file instead (and still
/// asserts, so a stale regeneration can never pass silently).
fn assert_matches_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os("DMF_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, got).expect("write golden");
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {} (regenerate with DMF_UPDATE_GOLDEN=1): {e}", name));
    assert_eq!(
        got, want,
        "{name} drifted from the exposition contract; if intentional, bump \
         SCHEMA_VERSION and regenerate with DMF_UPDATE_GOLDEN=1"
    );
}

#[test]
fn text_exposition_matches_the_golden_file() {
    assert_matches_golden("metrics.txt", &golden_snapshot().render_text());
}

#[test]
fn json_exposition_matches_the_golden_file() {
    assert_matches_golden("metrics.json", &golden_snapshot().render_json());
}

#[test]
fn json_golden_is_valid_schema_1_json() {
    use serde::Value;
    let value: Value = serde_json::from_str(&golden_snapshot().render_json()).expect("valid JSON");
    assert_eq!(value.get("schema"), Some(&Value::Number(1.0)));
    let Some(Value::Array(metrics)) = value.get("metrics") else {
        panic!("metrics array missing");
    };
    assert_eq!(metrics.len(), golden_snapshot().metrics.len());
    for m in metrics {
        for field in ["name", "kind", "help"] {
            assert!(
                matches!(m.get(field), Some(Value::String(_))),
                "metric lacks string field {field}: {m:?}"
            );
        }
        // A NaN gauge must export as null, never as a bare NaN token.
        if m.get("name") == Some(&Value::String("dmf_demo_staleness_seconds".into())) {
            assert_eq!(m.get("value"), Some(&Value::Null));
        }
    }
}
