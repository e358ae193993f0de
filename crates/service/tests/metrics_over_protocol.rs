//! The observability surface over the wire: `Metrics` and `Health`
//! requests served by an instrumented connection, the typed rejection
//! on an uninstrumented one, overload pressure surfacing as a
//! degraded verdict, and the acceptance criterion that the live
//! rolling-AUC gauge agrees with an offline windowed AUC fed the
//! same update stream.

use dmf_core::{DmfsgdConfig, SessionBuilder};
use dmf_datasets::rtt::meridian_like;
use dmf_eval::window::RollingAuc;
use dmf_ops::{DegradedReason, Health, HealthPolicy};
use dmf_service::{
    ErrorCode, MetricsFormat, PredictionService, Response, ServerConnection, ServiceClient,
    ServiceMetrics,
};
use std::sync::Arc;

fn paper_config(n: usize, seed: u64) -> DmfsgdConfig {
    let s = SessionBuilder::new()
        .nodes(n)
        .seed(seed)
        .build()
        .expect("valid defaults");
    *s.config()
}

fn instrumented(
    n: usize,
    seed: u64,
    shards: usize,
    window: usize,
) -> (ServerConnection, Arc<ServiceMetrics>) {
    let svc =
        Arc::new(PredictionService::build(paper_config(n, seed), n, shards).expect("service"));
    let metrics = Arc::new(ServiceMetrics::new(shards));
    let conn = ServerConnection::with_metrics(svc, window, Arc::clone(&metrics));
    (conn, metrics)
}

/// Pumps `wire` through the connection and returns every decoded
/// response in order.
fn exchange(conn: &mut ServerConnection, client: &mut ServiceClient, wire: &[u8]) -> Vec<Response> {
    let mut out = Vec::new();
    conn.ingest(wire, &mut out).expect("clean stream");
    conn.drain(&mut out);
    client.ingest(&out);
    let mut responses = Vec::new();
    while let Some(resp) = client.poll().expect("clean stream") {
        responses.push(resp);
    }
    responses
}

/// A deterministic (i, j, ground-truth class) update stream over the
/// dataset's class matrix.
fn update_stream(n: usize, seed: u64, ops: usize) -> Vec<(u32, u32, f64)> {
    let d = meridian_like(n, seed);
    let cm = d.classify(d.median());
    (0..ops)
        .map(|s| {
            let i = (s * 7) % n;
            let j = (i + 1 + (s * 5) % (n - 1)) % n;
            let x = cm.label(i, j).expect("off-diagonal pair");
            (i as u32, j as u32, x)
        })
        .collect()
}

#[test]
fn metrics_and_health_are_served_over_the_wire() {
    let (mut conn, metrics) = instrumented(24, 3, 4, 256);
    let mut client = ServiceClient::new();
    let mut wire = Vec::new();
    for &(i, j, x) in &update_stream(24, 3, 120) {
        client.submit_update(i, j, x, &mut wire);
    }
    client.submit_predict(0, 1, &mut wire);
    let responses = exchange(&mut conn, &mut client, &wire);
    assert_eq!(responses.len(), 121);
    assert!(responses
        .iter()
        .all(|r| !matches!(r, Response::Error { .. })));

    // Text exposition.
    let mut wire = Vec::new();
    client.submit_metrics(MetricsFormat::Text, &mut wire);
    let responses = exchange(&mut conn, &mut client, &wire);
    let [Response::MetricsData {
        format: MetricsFormat::Text,
        body,
        ..
    }] = &responses[..]
    else {
        panic!("expected one MetricsData, got {responses:?}");
    };
    let text = std::str::from_utf8(body).expect("utf8");
    assert!(text.starts_with("# dmfsgd-metrics schema 1\n"));
    assert!(text.contains("dmf_service_requests_total{type=\"update\"} 120"));
    assert!(text.contains("dmf_service_requests_total{type=\"predict\"} 1"));
    assert!(text.contains("dmf_service_rolling_auc "));

    // JSON exposition parses and carries the schema stamp.
    let mut wire = Vec::new();
    client.submit_metrics(MetricsFormat::Json, &mut wire);
    let responses = exchange(&mut conn, &mut client, &wire);
    let [Response::MetricsData {
        format: MetricsFormat::Json,
        body,
        ..
    }] = &responses[..]
    else {
        panic!("expected one MetricsData, got {responses:?}");
    };
    let json = std::str::from_utf8(body).expect("utf8");
    assert!(json.starts_with("{\"schema\":1,"));
    assert!(json.contains("\"name\":\"dmf_service_shard_updates_total\""));

    // Health over the wire agrees with a direct evaluation.
    let mut wire = Vec::new();
    client.submit_health(&mut wire);
    let responses = exchange(&mut conn, &mut client, &wire);
    let [Response::HealthStatus { health, .. }] = &responses[..] else {
        panic!("expected one HealthStatus, got {responses:?}");
    };
    assert_eq!(health.code(), metrics.health().code());
}

#[test]
fn an_uninstrumented_connection_answers_metrics_with_a_typed_error() {
    let svc = Arc::new(PredictionService::build(paper_config(16, 4), 16, 2).expect("service"));
    let mut conn = ServerConnection::new(svc, 64);
    let mut client = ServiceClient::new();
    let mut wire = Vec::new();
    client.submit_metrics(MetricsFormat::Text, &mut wire);
    client.submit_health(&mut wire);
    let responses = exchange(&mut conn, &mut client, &wire);
    assert_eq!(responses.len(), 2);
    for resp in responses {
        let Response::Error { code, message, .. } = resp else {
            panic!("expected a typed error, got {resp:?}");
        };
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(message.contains("metrics are not enabled"), "{message}");
    }
}

#[test]
fn overload_pressure_surfaces_as_a_degraded_rejection_verdict() {
    let (mut conn, metrics) = instrumented(16, 5, 2, 4);
    metrics.set_health_policy(HealthPolicy {
        min_quality_samples: 0,
        auc_floor: None,
        staleness_limit_s: None,
        rejection_rate_limit: Some(0.2),
    });
    let mut client = ServiceClient::new();
    let mut wire = Vec::new();
    // 12 requests against a window of 4: eight typed overloads.
    for _ in 0..12 {
        client.submit_predict(0, 1, &mut wire);
    }
    let responses = exchange(&mut conn, &mut client, &wire);
    let rejected = responses
        .iter()
        .filter(|r| {
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::Overloaded,
                    ..
                }
            )
        })
        .count();
    assert_eq!(rejected, 8);

    let mut wire = Vec::new();
    client.submit_health(&mut wire);
    let responses = exchange(&mut conn, &mut client, &wire);
    let [Response::HealthStatus { health, .. }] = &responses[..] else {
        panic!("expected one HealthStatus, got {responses:?}");
    };
    let Health::Degraded { reasons } = health else {
        panic!("expected degraded, got {health:?}");
    };
    assert!(
        reasons.iter().any(
            |r| matches!(r, DegradedReason::HighRejectionRate { rate, limit }
                if *rate > 0.2 && *limit == 0.2)
        ),
        "expected the rejection reason, got {reasons:?}"
    );
}

/// Acceptance criterion: the live rolling-AUC gauge over the wire
/// path agrees (within 0.01) with an offline [`RollingAuc`] fed the
/// identical (ground truth, pre-update score) stream — computed on a
/// twin service built from the same config and seed.
#[test]
fn live_rolling_auc_agrees_with_the_offline_windowed_auc() {
    let (n, seed, shards, ops) = (24, 6, 4, 800);
    let stream = update_stream(n, seed, ops);

    // Offline: the same stream through a twin service, scores into a
    // window of the same capacity.
    let twin = PredictionService::build(paper_config(n, seed), n, shards).expect("twin service");
    let mut offline = RollingAuc::new(dmf_service::DEFAULT_QUALITY_WINDOW);
    for &(i, j, x) in &stream {
        let score = twin
            .update_rtt_scored(i as usize, j as usize, x)
            .expect("update");
        offline.record(x > 0.0, score);
    }
    let offline_auc = offline.auc().expect("mixed window");

    // Live: the identical stream over the framed wire path.
    let (mut conn, metrics) = instrumented(n, seed, shards, 1024);
    let mut client = ServiceClient::new();
    let mut wire = Vec::new();
    for &(i, j, x) in &stream {
        client.submit_update(i, j, x, &mut wire);
    }
    let responses = exchange(&mut conn, &mut client, &wire);
    assert_eq!(responses.len(), ops);
    let live_auc = metrics.signals().rolling_auc.expect("mixed window");

    assert!(
        (live_auc - offline_auc).abs() <= 0.01,
        "live AUC {live_auc} vs offline {offline_auc}"
    );
}
