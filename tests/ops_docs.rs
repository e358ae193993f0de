//! Keeps `docs/operations.md` and the code honest about each other:
//! every metric name the three exporters (the service's
//! `ServiceMetrics`, the agents' `stats_snapshot`, the live
//! `Fleet::metrics`) export must be documented in the runbook, and
//! every metric name the runbook mentions must be exported. Either
//! drift direction is a test failure, so the operator-facing reference
//! can be trusted without reading source. Every exported sample also
//! obeys the naming rules scrapers rely on.

use dmfsgd::agent::{stats_snapshot, AgentStats, ClusterConfig, Fleet};
use dmfsgd::datasets::rtt::meridian_like;
use dmfsgd::ops::{MetricKind, MetricSample};
use dmfsgd::service::ServiceMetrics;
use std::collections::{BTreeMap, BTreeSet};

/// The metric-name namespace the runbook documents. Crate paths like
/// `dmf_agent::Fleet` never match (they contain `::`), and the `dmf-`
/// crate names don't carry these prefixes.
const PREFIXES: [&str; 3] = ["dmf_service_", "dmf_agent_", "dmf_fleet_"];

fn is_metric_name(token: &str) -> bool {
    PREFIXES
        .iter()
        .any(|p| token.len() > p.len() && token.starts_with(p))
        && token
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Inline-code spans of the runbook, with fenced blocks stripped
/// first (the format examples repeat table entries; only the tables
/// and prose are authoritative).
fn documented_names(doc: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut in_fence = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        for (idx, span) in line.split('`').enumerate() {
            // Odd split indices sit between backticks: `span`.
            if idx % 2 == 1 && is_metric_name(span) {
                names.insert(span.to_string());
            }
        }
    }
    names
}

/// Every sample of each exporter, by exporter: a two-shard service,
/// the one-shot agent dump, and a small live fleet.
fn exported_samples() -> [(&'static str, Vec<MetricSample>); 3] {
    let d = meridian_like(12, 5);
    let tau = d.median();
    let fleet = Fleet::launch(d, tau, ClusterConfig::default()).expect("launch");
    let fleet_samples = fleet.metrics().metrics;
    fleet.shutdown().expect("shutdown");
    [
        ("service", ServiceMetrics::new(2).snapshot().metrics),
        ("agent", stats_snapshot(&AgentStats::default()).metrics),
        ("fleet", fleet_samples),
    ]
}

/// Every metric name the exporters export.
fn exported_names() -> BTreeSet<String> {
    exported_samples()
        .into_iter()
        .flat_map(|(_, samples)| samples)
        .map(|m| m.name)
        .collect()
}

/// `[a-z][a-z0-9_]*`: the metric- and label-name shape every scraper
/// accepts.
fn is_valid_name(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_lowercase())
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

fn runbook() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/operations.md");
    std::fs::read_to_string(path).expect("docs/operations.md exists")
}

#[test]
fn every_exported_metric_is_documented_in_the_runbook() {
    let documented = documented_names(&runbook());
    let missing: Vec<_> = exported_names()
        .into_iter()
        .filter(|n| !documented.contains(n))
        .collect();
    assert!(
        missing.is_empty(),
        "metrics exported but absent from docs/operations.md: {missing:?}"
    );
}

#[test]
fn every_documented_metric_exists_in_a_registry() {
    let exported = exported_names();
    let phantom: Vec<_> = documented_names(&runbook())
        .into_iter()
        .filter(|n| !exported.contains(n))
        .collect();
    assert!(
        phantom.is_empty(),
        "docs/operations.md documents metrics no exporter exports: {phantom:?}"
    );
}

#[test]
fn the_runbook_documents_the_whole_namespace_non_trivially() {
    let documented = documented_names(&runbook());
    for prefix in PREFIXES {
        assert!(
            documented.iter().any(|n| n.starts_with(prefix)),
            "runbook lost its {prefix}* section"
        );
    }
    // 10 service + 12 agent + 6 fleet names today; only grows.
    assert!(documented.len() >= 28, "got {}", documented.len());
}

#[test]
fn every_exported_sample_is_well_formed() {
    let mut kinds: BTreeMap<String, MetricKind> = BTreeMap::new();
    for (exporter, samples) in exported_samples() {
        let mut series = BTreeSet::new();
        for m in samples {
            assert!(is_valid_name(&m.name), "{exporter}: bad name {:?}", m.name);
            for (key, _) in &m.labels {
                assert!(is_valid_name(key), "{exporter}: {} label {key:?}", m.name);
            }
            assert!(!m.help.is_empty(), "{exporter}: {} has no help", m.name);
            assert!(
                series.insert((m.name.clone(), m.labels.clone())),
                "{exporter}: {} {:?} exported twice",
                m.name,
                m.labels
            );
            let kind = *kinds.entry(m.name.clone()).or_insert(m.kind);
            assert_eq!(kind, m.kind, "{exporter}: {} has two kinds", m.name);
        }
    }
}
