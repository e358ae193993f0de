//! # dmf-ops
//!
//! Fleet observability for DMFSGD deployments: the layer that turns
//! "simulation passes CI" into "service you could page someone for".
//! The ROADMAP's observability goal; the operator-facing contract
//! lives in `docs/operations.md`.
//!
//! There is one way to export a metric: each exporter (the service's
//! `ServiceMetrics`, the agents' `stats_snapshot`, the fleet's
//! `Fleet::metrics`) names its series in a `const` table of
//! (name, help, unit) rows and builds a [`MetricsSnapshot`] from that
//! table at scrape time. `tests/ops_docs.rs` checks every sample of all
//! three against the runbook and the naming rules.
//!
//! * [`handle`] — typed metric handles ([`Counter`], [`Gauge`],
//!   [`Histogram`]), plain owned atomics. Updates are single relaxed
//!   atomics, safe to leave enabled on the training and serving hot
//!   paths.
//! * [`export`] — deterministic point-in-time [`MetricsSnapshot`]s
//!   of [`MetricSample`]s, rendered as Prometheus-style text and
//!   schema-versioned JSON. Both formats are a documented public
//!   contract pinned byte-for-byte by golden-file tests.
//! * [`health`] — `Healthy` / `Degraded(reasons)` / `Unready`
//!   verdicts computed as a pure function of declared rules
//!   ([`HealthPolicy`]) over observed signals ([`HealthSignals`]):
//!   rolling AUC below floor, stale coordinates, high rejection rate;
//!   [`health_gauges`] publishes them as four gauges.
//! * [`quality`] — [`LiveQuality`], a shareable wrapper over
//!   [`dmf_eval::window::RollingAuc`] feeding the live quality gauge
//!   from recently observed (measurement, prediction) pairs.
//!
//! # Position in the workspace
//!
//! Depends only on [`dmf_eval`] (the rolling quality window), so both
//! `dmf-agent` and `dmf-service` can instrument themselves without a
//! dependency cycle. The service serves these snapshots over its
//! framed protocol (`Metrics`/`Health` request types); agents dump
//! them one-shot and aggregate them per fleet.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The ops surface is operator-facing contract (docs/operations.md is
// cross-checked against it by CI): undocumented public items are hard
// errors, and tools/check_doc_guards.sh keeps the attributes in place.
#[deny(missing_docs)]
pub mod export;
#[deny(missing_docs)]
pub mod handle;
#[deny(missing_docs)]
pub mod health;
#[deny(missing_docs)]
pub mod quality;

pub use export::{MetricKind, MetricSample, MetricsSnapshot, SampleValue, Unit, SCHEMA_VERSION};
pub use handle::{Counter, Gauge, Histogram};
pub use health::{health_gauges, DegradedReason, Health, HealthPolicy, HealthSignals};
pub use quality::LiveQuality;
