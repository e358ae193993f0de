//! Service-side observability: [`ServiceMetrics`].
//!
//! One `ServiceMetrics` instruments one [`PredictionService`](crate::PredictionService) and
//! every connection serving it: request counters by type, error and
//! overload counters, the admission-window depth, a per-request
//! latency histogram, per-shard update counters, and the live quality
//! surface — a rolling AUC over recently observed `(measurement,
//! prediction)` pairs recorded on the update path, where ground truth
//! arrives. Health is computed from the same signals through a
//! declared [`HealthPolicy`].
//!
//! Hot-path discipline: every per-request record is a handful of
//! relaxed atomics plus (on updates only) one ring-slot write behind
//! the quality mutex. The derived gauges (rolling AUC, staleness,
//! health state) are refreshed lazily — at snapshot and health time —
//! so serving traffic never pays for them.
//!
//! Instrumentation is opt-in per connection
//! ([`ServerConnection::with_metrics`](crate::ServerConnection::with_metrics)
//! (crate::connection::ServerConnection::with_metrics)); connections
//! built without it serve exactly as before. The full metric
//! reference lives in `docs/operations.md` and is cross-checked
//! against this module's registrations by CI.

use crate::protocol::MetricsFormat;
use dmf_ops::{
    Counter, Gauge, Health, HealthPolicy, HealthSignals, Histogram, LiveQuality, MetricDesc,
    MetricsSnapshot, Registry, Unit,
};
use std::sync::Mutex;

/// Default capacity of the live quality window (recent update pairs
/// the rolling AUC is computed over).
pub const DEFAULT_QUALITY_WINDOW: usize = 512;

/// Latency bucket bounds in microseconds for
/// `dmf_service_request_latency_us` (an overflow bucket is implicit).
const LATENCY_BUCKETS_US: [u64; 11] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
];

/// Which request type a sample belongs to — the `type` label of
/// `dmf_service_requests_total`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// [`Request::Predict`](crate::protocol::Request::Predict).
    Predict,
    /// [`Request::PredictClass`](crate::protocol::Request::PredictClass).
    PredictClass,
    /// [`Request::RankNeighbors`](crate::protocol::Request::RankNeighbors).
    Rank,
    /// [`Request::Update`](crate::protocol::Request::Update).
    Update,
    /// [`Request::Snapshot`](crate::protocol::Request::Snapshot).
    Snapshot,
    /// [`Request::Metrics`](crate::protocol::Request::Metrics).
    Metrics,
    /// [`Request::Health`](crate::protocol::Request::Health).
    Health,
}

impl RequestKind {
    /// All kinds, in label order.
    const ALL: [RequestKind; 7] = [
        RequestKind::Predict,
        RequestKind::PredictClass,
        RequestKind::Rank,
        RequestKind::Update,
        RequestKind::Snapshot,
        RequestKind::Metrics,
        RequestKind::Health,
    ];

    /// The `type` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Predict => "predict",
            RequestKind::PredictClass => "predict_class",
            RequestKind::Rank => "rank",
            RequestKind::Update => "update",
            RequestKind::Snapshot => "snapshot",
            RequestKind::Metrics => "metrics",
            RequestKind::Health => "health",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|k| *k == self).expect("in ALL")
    }
}

/// Metrics, quality window and health rules for one service (see the
/// [module docs](self)). Share it via `Arc` between the connections
/// serving one [`PredictionService`](crate::PredictionService).
pub struct ServiceMetrics {
    registry: Registry,
    requests: [Counter; RequestKind::ALL.len()],
    request_errors: Counter,
    overload_rejections: Counter,
    in_flight: Gauge,
    latency: Histogram,
    shard_updates: Vec<Counter>,
    rolling_auc: Gauge,
    quality_samples: Gauge,
    staleness: Gauge,
    health_state: Gauge,
    quality: LiveQuality,
    policy: Mutex<HealthPolicy>,
}

impl ServiceMetrics {
    /// Metrics for a service with `shards` shards, the
    /// [`DEFAULT_QUALITY_WINDOW`] and the default [`HealthPolicy`].
    pub fn new(shards: usize) -> Self {
        Self::with_quality_window(shards, DEFAULT_QUALITY_WINDOW)
    }

    /// As [`new`](Self::new) with an explicit quality-window capacity
    /// (must be at least 1).
    fn with_quality_window(shards: usize, window: usize) -> Self {
        let registry = Registry::new();
        let requests = RequestKind::ALL.map(|k| {
            registry.counter(MetricDesc::labeled(
                "dmf_service_requests_total",
                "Requests executed, by request type.",
                Unit::None,
                "type",
                k.as_str(),
            ))
        });
        let request_errors = registry.counter(MetricDesc::plain(
            "dmf_service_request_errors_total",
            "Requests answered with an error response.",
            Unit::None,
        ));
        let overload_rejections = registry.counter(MetricDesc::plain(
            "dmf_service_overload_rejections_total",
            "Requests rejected at admission because the in-flight window was full.",
            Unit::None,
        ));
        let in_flight = registry.gauge(MetricDesc::plain(
            "dmf_service_in_flight",
            "Requests admitted and not yet executed (admission-window depth).",
            Unit::None,
        ));
        let latency = registry.histogram(
            MetricDesc::plain(
                "dmf_service_request_latency_us",
                "Per-request execution latency in microseconds.",
                Unit::Micros,
            ),
            &LATENCY_BUCKETS_US,
        );
        let shard_updates = (0..shards)
            .map(|s| {
                registry.counter(MetricDesc::labeled(
                    "dmf_service_shard_updates_total",
                    "Measurement updates applied, by owning shard.",
                    Unit::None,
                    "shard",
                    s.to_string(),
                ))
            })
            .collect();
        let rolling_auc = registry.gauge(MetricDesc::plain(
            "dmf_service_rolling_auc",
            "Rolling AUC over the live quality window (NaN while undefined).",
            Unit::Ratio,
        ));
        let quality_samples = registry.gauge(MetricDesc::plain(
            "dmf_service_quality_samples",
            "Pairs currently held in the live quality window.",
            Unit::Samples,
        ));
        let staleness = registry.gauge(MetricDesc::plain(
            "dmf_service_update_staleness_seconds",
            "Seconds since the last applied update (NaN before the first).",
            Unit::Seconds,
        ));
        let health_state = registry.gauge(MetricDesc::plain(
            "dmf_service_health_state",
            "Health verdict: 0 healthy, 1 degraded, 2 unready.",
            Unit::None,
        ));
        rolling_auc.set(f64::NAN);
        staleness.set(f64::NAN);
        health_state.set(f64::from(
            Health::Unready {
                reason: String::new(),
            }
            .code(),
        ));
        Self {
            registry,
            requests,
            request_errors,
            overload_rejections,
            in_flight,
            latency,
            shard_updates,
            rolling_auc,
            quality_samples,
            staleness,
            health_state,
            quality: LiveQuality::new(window),
            policy: Mutex::new(HealthPolicy::default()),
        }
    }

    /// The live quality window (shared with whatever records into it).
    pub fn quality(&self) -> &LiveQuality {
        &self.quality
    }

    /// Replaces the health rules (takes effect on the next
    /// [`health`](Self::health) evaluation).
    pub fn set_health_policy(&self, policy: HealthPolicy) {
        *self.policy.lock().expect("policy lock") = policy;
    }

    /// Records one executed request: its type, whether it was
    /// answered successfully, and its execution latency.
    pub fn record_request(&self, kind: RequestKind, ok: bool, latency_us: u64) {
        self.requests[kind.index()].inc();
        if !ok {
            self.request_errors.inc();
        }
        self.latency.observe(latency_us);
    }

    /// Records an admission rejection ([`ErrorCode::Overloaded`](crate::protocol::ErrorCode::Overloaded)
    /// (crate::protocol::ErrorCode::Overloaded)).
    pub fn record_overload(&self) {
        self.overload_rejections.inc();
    }

    /// Publishes the current admission-window depth.
    pub fn set_in_flight(&self, depth: usize) {
        self.in_flight.set(depth as f64);
    }

    /// Records an applied update: bumps the owning shard's counter
    /// and feeds the quality window with the (ground truth, pre-update
    /// score) pair, which also stamps the staleness clock.
    pub fn record_update(&self, shard: usize, positive: bool, score: f64) {
        if let Some(c) = self.shard_updates.get(shard) {
            c.inc();
        }
        self.quality.record(positive, score);
    }

    /// The health signals as observed right now.
    pub fn signals(&self) -> HealthSignals {
        let admitted: u64 = self.requests.iter().map(Counter::get).sum();
        let rejected = self.overload_rejections.get();
        let rejection_rate = if admitted + rejected > 0 {
            Some(rejected as f64 / (admitted + rejected) as f64)
        } else {
            None
        };
        self.quality.signals(rejection_rate)
    }

    /// Evaluates health under the current policy and refreshes the
    /// `dmf_service_health_state` gauge.
    pub fn health(&self) -> Health {
        let h = self
            .policy
            .lock()
            .expect("policy lock")
            .evaluate(&self.signals());
        self.health_state.set(f64::from(h.code()));
        h
    }

    /// Refreshes the derived gauges and snapshots every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let signals = self.signals();
        self.rolling_auc
            .set(signals.rolling_auc.unwrap_or(f64::NAN));
        self.quality_samples.set(signals.quality_samples as f64);
        self.staleness.set(signals.staleness_s.unwrap_or(f64::NAN));
        self.health_state.set(f64::from(
            self.policy
                .lock()
                .expect("policy lock")
                .evaluate(&signals)
                .code(),
        ));
        self.registry.snapshot()
    }

    /// Renders a snapshot in the requested exposition format.
    pub fn render(&self, format: MetricsFormat) -> Vec<u8> {
        let snap = self.snapshot();
        match format {
            MetricsFormat::Text => snap.render_text().into_bytes(),
            MetricsFormat::Json => snap.render_json().into_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_records_land_in_typed_counters_and_the_histogram() {
        let m = ServiceMetrics::new(2);
        m.record_request(RequestKind::Predict, true, 80);
        m.record_request(RequestKind::Predict, true, 80);
        m.record_request(RequestKind::Update, false, 9_000);
        m.record_overload();
        m.set_in_flight(5);
        assert_eq!(m.requests[RequestKind::Predict.index()].get(), 2);
        assert_eq!(m.requests[RequestKind::Update.index()].get(), 1);
        assert_eq!(m.request_errors.get(), 1);
        assert_eq!(m.overload_rejections.get(), 1);
        assert_eq!(m.latency.count(), 3);
        assert_eq!(m.in_flight.get(), 5.0);
    }

    #[test]
    fn updates_feed_the_shard_counters_and_quality_window() {
        let m = ServiceMetrics::with_quality_window(3, 8);
        m.record_update(1, true, 0.5);
        m.record_update(1, false, -0.5);
        m.record_update(2, true, 1.5);
        assert_eq!(m.shard_updates[0].get(), 0);
        assert_eq!(m.shard_updates[1].get(), 2);
        assert_eq!(m.shard_updates[2].get(), 1);
        let s = m.signals();
        assert_eq!(s.quality_samples, 3);
        assert_eq!(s.rolling_auc, Some(1.0));
        assert!(s.staleness_s.expect("updated") >= 0.0);
    }

    #[test]
    fn health_reflects_the_declared_policy() {
        let m = ServiceMetrics::with_quality_window(1, 8);
        m.set_health_policy(HealthPolicy {
            min_quality_samples: 2,
            auc_floor: Some(0.75),
            staleness_limit_s: None,
            rejection_rate_limit: Some(0.5),
        });
        assert_eq!(m.health().code(), 2, "cold window is unready");
        m.record_update(0, true, 1.0);
        m.record_update(0, false, -1.0);
        assert_eq!(m.health(), Health::Healthy);
        // Invert the window: AUC collapses below the floor.
        for _ in 0..4 {
            m.record_update(0, false, 2.0);
            m.record_update(0, true, -2.0);
        }
        assert_eq!(m.health().code(), 1);
    }

    #[test]
    fn rejection_rate_counts_rejections_against_all_arrivals() {
        let m = ServiceMetrics::new(1);
        assert_eq!(m.signals().rejection_rate, None, "no traffic yet");
        m.record_request(RequestKind::Predict, true, 10);
        m.record_overload();
        assert_eq!(m.signals().rejection_rate, Some(0.5));
    }

    #[test]
    fn snapshot_refreshes_derived_gauges() {
        let m = ServiceMetrics::with_quality_window(1, 4);
        m.record_update(0, true, 1.0);
        m.record_update(0, false, -1.0);
        let snap = m.snapshot();
        let auc = snap
            .metrics
            .iter()
            .find(|s| s.name == "dmf_service_rolling_auc")
            .expect("registered");
        assert_eq!(auc.value, dmf_ops::SampleValue::Gauge(1.0));
        let samples = snap
            .metrics
            .iter()
            .find(|s| s.name == "dmf_service_quality_samples")
            .expect("registered");
        assert_eq!(samples.value, dmf_ops::SampleValue::Gauge(2.0));
    }

    #[test]
    fn render_emits_both_contract_formats() {
        let m = ServiceMetrics::new(1);
        let text = String::from_utf8(m.render(MetricsFormat::Text)).expect("utf8");
        assert!(text.starts_with("# dmfsgd-metrics schema 1\n"));
        assert!(text.contains("dmf_service_requests_total{type=\"predict\"} 0"));
        let json = String::from_utf8(m.render(MetricsFormat::Json)).expect("utf8");
        assert!(json.starts_with("{\"schema\":1,"));
        assert!(json.contains("\"name\":\"dmf_service_health_state\""));
    }
}
