//! Agent-side observability: the [`AgentStats`] metric table, the
//! one-shot exposition dump, and [`AgentMetricsSlot`] — the live
//! per-slot mirror a [`Fleet`](crate::fleet::Fleet) reads while its
//! agents are still running.
//!
//! # Two exposure paths
//!
//! * **One-shot dump.** [`stats_snapshot`] converts a finished
//!   agent's [`AgentStats`] (or any sum of them, folded with
//!   [`AgentStats::merge`]) into a [`MetricsSnapshot`] renderable in
//!   either exposition format.
//!   This is how a batch run exports metrics after the fact.
//! * **Live mirror.** A long-running fleet cannot wait for agents to
//!   exit: [`run_agent`](crate::agent::run_agent) flushes its counters
//!   into its [`AgentMetricsSlot`] every probe firing, and records
//!   each applied update's (ground truth, pre-update score) pair into
//!   a shared [`LiveQuality`] window — the fleet-wide rolling AUC and
//!   staleness clock. The slot holds only the running agent's latest
//!   flush; the fleet keeps the counters of completed runs and adds
//!   the two, so exported counters stay monotonic over restarts.
//!
//! Every metric name exported here is part of the operator contract
//! documented in `docs/operations.md` and cross-checked by CI.

use crate::agent::AgentStats;
use dmf_ops::{LiveQuality, MetricSample, MetricsSnapshot, SampleValue, Unit};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The exported identity of one [`AgentStats`] counter.
pub struct StatMetric {
    /// Exported metric name.
    pub name: &'static str,
    /// Help line for the exposition formats.
    pub help: &'static str,
    /// Value unit.
    pub unit: Unit,
    /// Reads the counter out of an [`AgentStats`].
    pub read: fn(&AgentStats) -> u64,
}

/// Every [`AgentStats`] counter, in struct-field order. One row per
/// field — adding a field to [`AgentStats`] without a row here is a
/// documentation bug the ops-conformance tests catch.
pub const STAT_METRICS: [StatMetric; 12] = [
    StatMetric {
        name: "dmf_agent_probes_sent_total",
        help: "Probes sent (first transmissions; retries counted separately).",
        unit: Unit::None,
        read: |s| s.probes_sent as u64,
    },
    StatMetric {
        name: "dmf_agent_updates_applied_total",
        help: "SGD updates applied (prober side).",
        unit: Unit::None,
        read: |s| s.updates_applied as u64,
    },
    StatMetric {
        name: "dmf_agent_decode_errors_total",
        help: "Datagrams that failed to decode (or carried a wrong rank).",
        unit: Unit::None,
        read: |s| s.decode_errors as u64,
    },
    StatMetric {
        name: "dmf_agent_unmatched_replies_total",
        help: "Replies that matched no outstanding probe.",
        unit: Unit::None,
        read: |s| s.unmatched_replies as u64,
    },
    StatMetric {
        name: "dmf_agent_retries_total",
        help: "Probe retransmissions after a timeout.",
        unit: Unit::None,
        read: |s| s.retries as u64,
    },
    StatMetric {
        name: "dmf_agent_probes_abandoned_total",
        help: "Probes abandoned after exhausting the retry budget.",
        unit: Unit::None,
        read: |s| s.probes_abandoned as u64,
    },
    StatMetric {
        name: "dmf_agent_evictions_total",
        help: "Outstanding entries evicted oldest-first to bound the table.",
        unit: Unit::None,
        read: |s| s.evictions as u64,
    },
    StatMetric {
        name: "dmf_agent_gaps_detected_total",
        help: "Sequence gaps observed across all per-peer decoder contexts.",
        unit: Unit::None,
        read: |s| s.gaps_detected,
    },
    StatMetric {
        name: "dmf_agent_keyframes_sent_total",
        help: "Keyframes sent across all per-peer encoder contexts.",
        unit: Unit::None,
        read: |s| s.keyframes_sent,
    },
    StatMetric {
        name: "dmf_agent_stale_deltas_total",
        help: "Deltas dropped because their baseline was no longer held.",
        unit: Unit::None,
        read: |s| s.stale_deltas as u64,
    },
    StatMetric {
        name: "dmf_agent_bytes_sent_total",
        help: "Application bytes handed to the transport.",
        unit: Unit::Bytes,
        read: |s| s.bytes_sent,
    },
    StatMetric {
        name: "dmf_agent_bytes_received_total",
        help: "Application bytes received from the transport.",
        unit: Unit::Bytes,
        read: |s| s.bytes_received,
    },
];

/// One-shot exposition dump: converts a finished agent's counters
/// into a [`MetricsSnapshot`] (render with
/// [`render_text`](MetricsSnapshot::render_text) /
/// [`render_json`](MetricsSnapshot::render_json)).
pub fn stats_snapshot(stats: &AgentStats) -> MetricsSnapshot {
    MetricsSnapshot::from_samples(stat_samples(STAT_METRICS.map(|m| (m.read)(stats))))
}

/// One counter sample per [`STAT_METRICS`] row, `values` in table
/// order: the counter half of both [`stats_snapshot`] and
/// [`Fleet::metrics`](crate::fleet::Fleet::metrics).
pub(crate) fn stat_samples(values: [u64; STAT_METRICS.len()]) -> Vec<MetricSample> {
    STAT_METRICS
        .iter()
        .zip(values)
        .map(|(m, v)| MetricSample::new((m.name, m.help, m.unit), SampleValue::Counter(v)))
        .collect()
}

/// The live metrics mirror of one fleet slot (see the [module
/// docs](self)). Shared by `Arc` between the fleet (reader) and the
/// agent thread currently occupying the slot (writer); the counters
/// are atomics and the quality window has its own lock, so neither
/// side blocks the other.
pub struct AgentMetricsSlot {
    /// The running agent's latest flush.
    live: [AtomicU64; STAT_METRICS.len()],
    quality: Arc<LiveQuality>,
}

impl AgentMetricsSlot {
    /// A zeroed slot feeding the given (typically fleet-shared)
    /// quality window.
    pub fn new(quality: Arc<LiveQuality>) -> Self {
        Self {
            live: std::array::from_fn(|_| AtomicU64::new(0)),
            quality,
        }
    }

    /// Publishes a running agent's current counters. Called by
    /// [`run_agent`](crate::agent::run_agent) every probe firing and
    /// once at exit.
    pub fn flush(&self, stats: &AgentStats) {
        for (live, m) in self.live.iter().zip(&STAT_METRICS) {
            live.store((m.read)(stats), Ordering::Relaxed);
        }
    }

    /// Records one applied update's (ground truth, pre-update score)
    /// pair into the quality window, which also stamps its staleness
    /// clock.
    pub fn record_quality(&self, positive: bool, score: f64) {
        self.quality.record(positive, score);
    }

    /// The flushed counter values, in [`STAT_METRICS`] order.
    pub fn counters(&self) -> [u64; STAT_METRICS.len()] {
        std::array::from_fn(|i| self.live[i].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(probes: usize, bytes: u64) -> AgentStats {
        AgentStats {
            probes_sent: probes,
            bytes_sent: bytes,
            ..AgentStats::default()
        }
    }

    #[test]
    fn the_table_covers_every_agent_stats_field() {
        // Field-order mirror of the struct: a distinct value per field
        // must survive the table round trip, so no extractor reads the
        // wrong field and no field is missing.
        let s = AgentStats {
            probes_sent: 1,
            updates_applied: 2,
            decode_errors: 3,
            unmatched_replies: 4,
            retries: 5,
            probes_abandoned: 6,
            evictions: 7,
            gaps_detected: 8,
            keyframes_sent: 9,
            stale_deltas: 10,
            bytes_sent: 11,
            bytes_received: 12,
        };
        let values: Vec<u64> = STAT_METRICS.iter().map(|m| (m.read)(&s)).collect();
        assert_eq!(values, (1..=12).collect::<Vec<u64>>());
    }

    #[test]
    fn one_shot_dump_renders_the_contract_format() {
        let snap = stats_snapshot(&stats_with(3, 128));
        let text = snap.render_text();
        assert!(text.starts_with("# dmfsgd-metrics schema 1\n"));
        assert!(text.contains("dmf_agent_probes_sent_total 3"));
        assert!(text.contains("dmf_agent_bytes_sent_total 128"));
        let json = snap.render_json();
        assert!(json.contains(
            "\"name\":\"dmf_agent_bytes_sent_total\",\"kind\":\"counter\",\"unit\":\"bytes\""
        ));
    }

    #[test]
    fn flush_and_absorb_keep_counters_monotonic_across_runs() {
        // What `Fleet::leave` does between runs: fold the finished
        // run into the slot's total, then zero the mirror.
        let slot = AgentMetricsSlot::new(Arc::new(LiveQuality::new(8)));
        let mut total = AgentStats::default();
        let exported =
            |total: &AgentStats, i: usize| (STAT_METRICS[i].read)(total) + slot.counters()[i];
        slot.flush(&stats_with(3, 60));
        slot.flush(&stats_with(5, 100));
        assert_eq!(exported(&total, 0), 5, "a flush replaces the last one");
        total.merge(&stats_with(5, 100));
        slot.flush(&AgentStats::default());
        assert_eq!(exported(&total, 0), 5);
        slot.flush(&stats_with(2, 40));
        assert_eq!(exported(&total, 0), 7);
        let bytes_idx = STAT_METRICS
            .iter()
            .position(|m| m.name == "dmf_agent_bytes_sent_total")
            .expect("in table");
        assert_eq!(exported(&total, bytes_idx), 140);
    }

    #[test]
    fn quality_records_refresh_staleness() {
        let quality = Arc::new(LiveQuality::new(8));
        let slot = AgentMetricsSlot::new(Arc::clone(&quality));
        assert_eq!(quality.signals(None).staleness_s, None);
        slot.record_quality(true, 1.0);
        slot.record_quality(false, -1.0);
        let s = quality.signals(None);
        assert!(s.staleness_s.expect("updated") >= 0.0);
        assert_eq!(s.quality_samples, 2);
        assert_eq!(s.rolling_auc, Some(1.0));
    }
}
