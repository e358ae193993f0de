//! Byte pins of the three metric exporters: the service's
//! `ServiceMetrics`, the agents' one-shot `stats_snapshot`, and the
//! live `Fleet::metrics`.
//!
//! `crates/ops/tests/golden_exporter.rs` pins the exposition format
//! over a demo snapshot; these pins hold what each exporter fills the
//! format with — names, help lines, units, labels, order and (where
//! the inputs are fixed) values — so a change to how a snapshot is
//! built cannot move a byte a scraper sees. The expected outputs live
//! in `tests/golden/`.

use dmfsgd::agent::{stats_snapshot, AgentStats, ClusterConfig, Fleet};
use dmfsgd::datasets::rtt::meridian_like;
use dmfsgd::ops::MetricsSnapshot;
use dmfsgd::service::{MetricsFormat, RequestKind, ServiceMetrics};

/// A two-shard service's metrics after a fixed request sequence and
/// no update: the quality window stays empty, so the rolling AUC and
/// staleness render as `NaN` (`null` in JSON) and health as unready.
fn service_metrics() -> ServiceMetrics {
    let m = ServiceMetrics::new(2);
    for (kind, ok, latency_us) in [
        (RequestKind::Predict, true, 40),
        (RequestKind::Predict, true, 120),
        (RequestKind::PredictClass, true, 700),
        (RequestKind::Rank, true, 3_000),
        (RequestKind::Update, false, 9_000),
        (RequestKind::Update, true, 30_000),
        (RequestKind::Snapshot, true, 250_000),
        (RequestKind::Metrics, true, 50),
        (RequestKind::Health, false, 100_000),
    ] {
        m.record_request(kind, ok, latency_us);
    }
    m.record_overload();
    m.record_overload();
    m.set_in_flight(3);
    m
}

fn agent_stats() -> AgentStats {
    AgentStats {
        probes_sent: 1_200,
        updates_applied: 1_100,
        decode_errors: 3,
        unmatched_replies: 5,
        retries: 40,
        probes_abandoned: 7,
        evictions: 2,
        gaps_detected: 11,
        keyframes_sent: 13,
        stale_deltas: 1,
        bytes_sent: 96_000,
        bytes_received: 88_000,
    }
}

/// One line per sample: `name kind unit labels help`, values left
/// out (a live fleet's counters and gauges move).
fn identities(snap: &MetricsSnapshot) -> String {
    snap.metrics
        .iter()
        .map(|m| {
            format!(
                "{} {} {:?} {:?} {}\n",
                m.name,
                m.kind.as_str(),
                m.unit.as_str(),
                m.labels,
                m.help
            )
        })
        .collect()
}

#[test]
fn service_metrics_text_is_pinned() {
    let text = String::from_utf8(service_metrics().render(MetricsFormat::Text)).expect("utf8");
    assert_eq!(text, include_str!("golden/service_metrics.txt"));
}

#[test]
fn service_metrics_json_is_pinned() {
    let json = String::from_utf8(service_metrics().render(MetricsFormat::Json)).expect("utf8");
    assert_eq!(json, include_str!("golden/service_metrics.json"));
}

#[test]
fn agent_stats_text_and_json_are_pinned() {
    let snap = stats_snapshot(&agent_stats());
    assert_eq!(snap.render_text(), include_str!("golden/agent_stats.txt"));
    assert_eq!(snap.render_json(), include_str!("golden/agent_stats.json"));
}

#[test]
fn fleet_metric_identities_are_pinned() {
    let d = meridian_like(12, 31);
    let tau = d.median();
    let fleet = Fleet::launch(d, tau, ClusterConfig::default()).expect("launch");
    let got = identities(&fleet.metrics());
    fleet.shutdown().expect("shutdown");
    assert_eq!(got, include_str!("golden/fleet_metrics.txt"));
}
