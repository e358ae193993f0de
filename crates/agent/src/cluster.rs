//! Spawn-N-agents localhost harness.
//!
//! Binds one UDP socket per node on 127.0.0.1 (ephemeral ports),
//! distributes the address book and random neighbor sets, runs every
//! agent on its own OS thread for a wall-clock budget, then joins the
//! threads and returns the trained coordinates for evaluation — a
//! [`Fleet`] that is launched, left alone for `duration` and shut
//! down.
//!
//! The harness can optionally route every agent's outgoing datagrams
//! through a seeded [`FaultSpec`] (drop / duplicate / reorder /
//! truncate / bit-flip), which is how the loss-hardening tests and
//! `examples/lossy_cluster.rs` exercise the v2 recovery machinery
//! end to end over real sockets.

use crate::agent::AgentStats;
use crate::fleet::{seed_oracle, seed_population, Fleet};
use dmf_core::{DmfsgdConfig, DmfsgdError, DmfsgdNode};
use dmf_datasets::Dataset;
use dmf_linalg::Matrix;
use dmf_proto::{FaultSpec, WireVersion};
use std::thread;
use std::time::Duration;

/// Cluster-level configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// DMFSGD parameters (rank, η, λ, loss, k, seed).
    pub dmfsgd: DmfsgdConfig,
    /// Wall-clock run duration.
    pub duration: Duration,
    /// Per-agent probe period.
    pub probe_interval: Duration,
    /// Wire protocol version agents probe in (replies always follow
    /// the probe's version, so mixed clusters interoperate).
    pub wire: WireVersion,
    /// Reply timeout before a probe is retransmitted.
    pub probe_timeout: Duration,
    /// Retransmissions allowed per probe before it is abandoned.
    pub max_retries: u32,
    /// Optional send-path fault model applied to every agent's
    /// socket; `None` leaves the sockets untouched.
    pub faults: Option<FaultSpec>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            dmfsgd: DmfsgdConfig::paper_defaults(),
            duration: Duration::from_secs(2),
            probe_interval: Duration::from_millis(5),
            wire: WireVersion::default(),
            probe_timeout: Duration::from_millis(40),
            max_retries: 2,
            faults: None,
        }
    }
}

/// The result of a cluster run.
pub struct ClusterOutcome {
    /// Trained nodes, indexed by node id.
    pub nodes: Vec<DmfsgdNode>,
    /// Per-agent statistics.
    pub stats: Vec<AgentStats>,
}

impl ClusterOutcome {
    /// Raw score `u_i · v_j`.
    pub fn raw_score(&self, i: usize, j: usize) -> f64 {
        self.nodes[i].predict_to(&self.nodes[j])
    }

    /// All pairwise scores (diagonal zeroed).
    pub fn predicted_scores(&self) -> Matrix {
        let n = self.nodes.len();
        Matrix::from_fn(n, n, |i, j| if i == j { 0.0 } else { self.raw_score(i, j) })
    }

    /// Total SGD updates applied across agents.
    pub fn total_updates(&self) -> usize {
        self.stats.iter().map(|s| s.updates_applied).sum()
    }

    /// Total application bytes sent across agents.
    pub fn total_bytes_sent(&self) -> u64 {
        self.stats.iter().map(|s| s.bytes_sent).sum()
    }
}

/// A running (or finished) localhost deployment.
pub struct UdpCluster;

impl UdpCluster {
    /// Runs a full cluster lifecycle: bind, spawn, run, stop, join.
    /// Agents start from fresh random coordinates and randomly drawn
    /// neighbor sets.
    ///
    /// The classification threshold is `tau`; the dataset decides
    /// whether agents speak Algorithm 1 (RTT) or Algorithm 2 (ABW).
    /// Configuration problems and socket failures surface as typed
    /// [`DmfsgdError`]s — nothing panics on caller input.
    pub fn run(
        dataset: Dataset,
        tau: f64,
        config: ClusterConfig,
    ) -> Result<ClusterOutcome, DmfsgdError> {
        let (nodes, neighbor_sets) = seed_population(dataset.len(), &config.dmfsgd)?;
        let oracle = seed_oracle(dataset, tau, config.dmfsgd.seed)?;
        let fleet = Fleet::from_parts(oracle, config, nodes, &neighbor_sets)?;
        thread::sleep(config.duration);
        fleet.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_core::MembershipError;
    use dmf_datasets::abw::hps3_like;
    use dmf_datasets::rtt::meridian_like;
    use dmf_eval::{collect_scores, roc::auc};
    use dmf_simnet::NeighborSets;

    #[test]
    fn rtt_cluster_learns_over_real_udp() {
        let d = meridian_like(24, 1);
        let tau = d.median();
        let cm = d.classify(tau);
        let outcome = UdpCluster::run(
            d,
            tau,
            ClusterConfig {
                duration: Duration::from_millis(2500),
                probe_interval: Duration::from_millis(2),
                ..ClusterConfig::default()
            },
        )
        .expect("cluster run");
        assert!(
            outcome.total_updates() > 24 * 50,
            "too few updates: {}",
            outcome.total_updates()
        );
        let a = auc(&collect_scores(&cm, &outcome.predicted_scores()));
        assert!(a > 0.75, "UDP cluster AUC {a}");
    }

    #[test]
    fn abw_cluster_learns_over_real_udp() {
        let d = hps3_like(24, 2);
        let tau = d.median();
        let cm = d.classify(tau);
        let outcome = UdpCluster::run(
            d,
            tau,
            ClusterConfig {
                duration: Duration::from_millis(2500),
                probe_interval: Duration::from_millis(2),
                ..ClusterConfig::default()
            },
        )
        .expect("cluster run");
        let a = auc(&collect_scores(&cm, &outcome.predicted_scores()));
        assert!(a > 0.7, "ABW UDP cluster AUC {a}");
    }

    #[test]
    fn v1_cluster_still_learns() {
        let d = meridian_like(16, 4);
        let tau = d.median();
        let cm = d.classify(tau);
        let outcome = UdpCluster::run(
            d,
            tau,
            ClusterConfig {
                duration: Duration::from_millis(1500),
                probe_interval: Duration::from_millis(2),
                wire: WireVersion::V1,
                ..ClusterConfig::default()
            },
        )
        .expect("cluster run");
        let a = auc(&collect_scores(&cm, &outcome.predicted_scores()));
        assert!(a > 0.7, "v1 UDP cluster AUC {a}");
    }

    #[test]
    fn agents_report_stats() {
        let d = meridian_like(15, 3);
        let tau = d.median();
        let outcome = UdpCluster::run(
            d,
            tau,
            ClusterConfig {
                duration: Duration::from_millis(600),
                probe_interval: Duration::from_millis(3),
                ..ClusterConfig::default()
            },
        )
        .expect("cluster run");
        assert_eq!(outcome.stats.len(), 15);
        for s in &outcome.stats {
            assert!(s.probes_sent > 0, "every agent must probe");
            assert!(s.bytes_sent > 0, "every agent must send bytes");
            assert!(s.bytes_received > 0, "every agent must receive bytes");
        }
    }

    #[test]
    fn the_shared_constructor_keeps_id_order_and_names_the_mismatched_length() {
        let config = ClusterConfig {
            duration: Duration::from_millis(200),
            probe_interval: Duration::from_millis(2),
            ..ClusterConfig::default()
        };
        let n = 14;
        let oracle_over = |nodes| {
            let d = meridian_like(nodes, 8);
            let tau = d.median();
            seed_oracle(d, tau, config.dmfsgd.seed).expect("valid tau")
        };
        let (nodes, neighbor_sets) = seed_population(n, &config.dmfsgd).expect("valid");

        let run = |oracle, sets: &NeighborSets| {
            let fleet = Fleet::from_parts(oracle, config, nodes.clone(), sets)?;
            thread::sleep(config.duration);
            fleet.shutdown()
        };
        let outcome = run(oracle_over(n), &neighbor_sets).expect("cluster run");
        let ids: Vec<usize> = outcome.nodes.iter().map(|node| node.id).collect();
        assert_eq!(ids, (0..n).collect::<Vec<_>>());
        assert_eq!(outcome.stats.len(), n);
        assert!(outcome.stats.iter().all(|s| s.probes_sent > 0));

        // Whichever side is off, the error carries that side's length.
        let (_, longer_sets) = seed_population(n + 3, &config.dmfsgd).expect("valid");
        for (oracle, sets, offending) in [
            (oracle_over(n + 5), &neighbor_sets, n + 5),
            (oracle_over(n), &longer_sets, n + 3),
        ] {
            match run(oracle, sets) {
                Err(DmfsgdError::Membership(MembershipError::ProviderMismatch {
                    provider,
                    session,
                })) => assert_eq!((provider, session), (offending, n)),
                Err(e) => panic!("expected a length mismatch, got {e}"),
                Ok(_) => panic!("mismatched lengths must not run"),
            }
        }
    }

    #[test]
    fn retries_and_eviction_under_total_loss() {
        // Every outgoing datagram is dropped: no replies ever arrive,
        // so probes must time out, retry with backoff, and the
        // outstanding table must stay bounded via oldest-first
        // eviction rather than growing (or being wholesale cleared).
        let d = meridian_like(6, 5);
        let tau = d.median();
        let outcome = UdpCluster::run(
            d,
            tau,
            ClusterConfig {
                // k = 2 keeps the outstanding cap (4·k + 16) small
                // enough for a short run to overflow it.
                dmfsgd: DmfsgdConfig {
                    k: 2,
                    ..DmfsgdConfig::paper_defaults()
                },
                duration: Duration::from_millis(500),
                probe_interval: Duration::from_millis(1),
                probe_timeout: Duration::from_millis(4),
                max_retries: 10,
                faults: Some(FaultSpec {
                    drop: 1.0,
                    ..FaultSpec::none()
                }),
                ..ClusterConfig::default()
            },
        )
        .expect("cluster run");
        let retries: usize = outcome.stats.iter().map(|s| s.retries).sum();
        let evictions: usize = outcome.stats.iter().map(|s| s.evictions).sum();
        assert_eq!(outcome.total_updates(), 0, "nothing can get through");
        assert!(retries > 0, "expected retransmissions under total loss");
        assert!(evictions > 0, "expected oldest-first evictions at cap");
    }

    #[test]
    fn abandoned_probes_are_counted() {
        let d = meridian_like(12, 6);
        let tau = d.median();
        let outcome = UdpCluster::run(
            d,
            tau,
            ClusterConfig {
                duration: Duration::from_millis(300),
                probe_interval: Duration::from_millis(2),
                probe_timeout: Duration::from_millis(4),
                max_retries: 0,
                faults: Some(FaultSpec {
                    drop: 1.0,
                    ..FaultSpec::none()
                }),
                ..ClusterConfig::default()
            },
        )
        .expect("cluster run");
        let abandoned: usize = outcome.stats.iter().map(|s| s.probes_abandoned).sum();
        assert!(abandoned > 0, "zero-retry probes must be abandoned");
    }
}
