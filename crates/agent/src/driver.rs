//! The real-socket front-end of the [`Driver`] trait.
//!
//! [`UdpDriver`] advances a [`Session`] the same way
//! `dmf_core::session::OracleDriver` and
//! `dmf_core::runner::SimnetDriver` do — but each round is a
//! wall-clock burst of the localhost UDP cluster: one socket and one
//! OS thread per node, real datagrams, real concurrency. The session's
//! current coordinates seed the agents, the agents train over the
//! wire, and the trained coordinates are written back, so a population
//! can be warmed up by matrix replay or simulation, checkpointed, and
//! then *continue learning over real sockets* from exactly where it
//! stopped.
//!
//! Membership note: the UDP front-end is a full-population deployment
//! — every slot (alive or departed) runs as an agent, mirroring how a
//! real fleet has no global membership view. Use the oracle or simnet
//! front-ends for churn experiments.

use crate::cluster::{ClusterConfig, UdpCluster};
use crate::fleet::seed_oracle;
use crate::oracle::MeasurementOracle;
use dmf_core::session::{Driver, Session};
use dmf_core::{DmfsgdError, MembershipError};
use dmf_datasets::Dataset;
use std::sync::Arc;

/// Drives a [`Session`] over real UDP sockets, one wall-clock burst
/// per [`Driver::round`].
pub struct UdpDriver {
    /// Shared ground-truth oracle, built once — rounds re-ship only
    /// the node states, never the O(n²) ground truth.
    oracle: Arc<MeasurementOracle>,
    cluster: ClusterConfig,
}

impl std::fmt::Debug for UdpDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpDriver")
            .field("nodes", &self.oracle.len())
            .field("metric", &self.oracle.metric())
            .field("tau", &self.oracle.tau())
            .field("round_duration", &self.cluster.duration)
            .finish_non_exhaustive()
    }
}

impl UdpDriver {
    /// Builds the front-end for `session` over `dataset` (whose
    /// metric decides Algorithm 1 vs 2). `cluster.duration` is the
    /// wall-clock length of one round; `cluster.dmfsgd` supplies the
    /// oracle seed and the rank agents validate against. The
    /// classification threshold comes from the session
    /// (`SessionBuilder::tau`).
    pub fn new(
        session: &Session,
        dataset: Dataset,
        cluster: ClusterConfig,
    ) -> Result<Self, DmfsgdError> {
        let tau = session.tau().ok_or(dmf_core::ConfigError::MissingTau)?;
        if dataset.len() != session.len() {
            return Err(MembershipError::ProviderMismatch {
                provider: dataset.len(),
                session: session.len(),
            }
            .into());
        }
        cluster.dmfsgd.try_validate()?;
        let oracle = seed_oracle(dataset, tau, cluster.dmfsgd.seed)?;
        Ok(Self { oracle, cluster })
    }
}

impl Driver for UdpDriver {
    /// One round: spawn every node as a UDP agent seeded with the
    /// session's current coordinates, run for the configured
    /// wall-clock duration, write the trained coordinates back.
    fn round(&mut self, session: &mut Session) -> Result<usize, DmfsgdError> {
        if self.oracle.len() != session.len() {
            return Err(MembershipError::ProviderMismatch {
                provider: self.oracle.len(),
                session: session.len(),
            }
            .into());
        }
        let outcome = UdpCluster::run_with_oracle(
            Arc::clone(&self.oracle),
            self.cluster,
            session.nodes().to_vec(),
            session.neighbors(),
        )?;
        let applied = outcome.total_updates();
        session.import_nodes(outcome.nodes, applied)?;
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_core::Session;
    use dmf_datasets::rtt::meridian_like;
    use dmf_eval::collect_scores;
    use dmf_eval::roc::auc;
    use std::time::Duration;

    #[test]
    fn udp_driver_advances_a_session_over_real_sockets() {
        let n = 20;
        let d = meridian_like(n, 13);
        let tau = d.median();
        let cm = d.classify(tau);
        let mut session = Session::builder()
            .nodes(n)
            .k(6)
            .seed(13)
            .tau(tau)
            .build()
            .expect("valid");
        let mut driver = UdpDriver::new(
            &session,
            d,
            ClusterConfig {
                duration: Duration::from_millis(1200),
                probe_interval: Duration::from_millis(2),
                ..ClusterConfig::default()
            },
        )
        .expect("valid driver");
        let applied = session.drive(&mut driver, 2).expect("udp rounds");
        assert!(applied > n * 20, "too few updates over UDP: {applied}");
        assert_eq!(applied, session.measurements_used());
        let a = auc(&collect_scores(&cm, &session.predicted_scores()));
        assert!(a > 0.7, "UDP-driven session AUC {a}");
    }

    #[test]
    fn udp_driver_requires_tau() {
        let d = meridian_like(15, 14);
        let session = Session::builder().nodes(15).k(5).build().expect("valid");
        assert!(matches!(
            UdpDriver::new(&session, d, ClusterConfig::default()).unwrap_err(),
            DmfsgdError::Config(dmf_core::ConfigError::MissingTau)
        ));
    }
}
