//! [`SimnetRunner`], the build-train-evaluate bundle. It adds no
//! mechanism: every method forwards to its session or its driver.

use super::{ExchangeFidelity, RunnerStats, SimnetDriver, WireStats};
use crate::config::DmfsgdConfig;
use crate::error::{ConfigError, DmfsgdError};
use crate::node::DmfsgdNode;
use crate::session::{Session, SessionBuilder};
use dmf_datasets::Dataset;
use dmf_linalg::Matrix;
use dmf_proto::WireVersion;
use dmf_simnet::NetConfig;

/// A DMFSGD deployment over the simulated network: a [`Session`]
/// bundled with its [`SimnetDriver`] for the common
/// build-train-evaluate flow.
#[derive(Debug)]
pub struct SimnetRunner {
    session: Session,
    driver: SimnetDriver,
}

impl SimnetRunner {
    /// Builds a runner over `dataset` (RTT or ABW decides the
    /// algorithm), classifying at `tau`.
    ///
    /// The internal session derives its RNG stream from
    /// `config.seed ^ 0x5117_babe` — kept from the historical runner
    /// so simulated runs stay reproducible across releases —
    /// distinguishing it from an oracle-driven session with the same
    /// seed.
    pub fn new(
        dataset: Dataset,
        tau: f64,
        config: DmfsgdConfig,
        net_config: NetConfig,
    ) -> Result<Self, DmfsgdError> {
        let mut session_config = config;
        session_config.seed ^= 0x5117_babe;
        let session = SessionBuilder::from_config(session_config)
            .nodes(dataset.len())
            .tau(tau)
            .build()?;
        let driver = SimnetDriver::new(&session, dataset, net_config)?;
        Ok(Self { session, driver })
    }

    /// Sets the probe timer period (default 1 s).
    pub fn with_probe_interval(mut self, seconds: f64) -> Result<Self, DmfsgdError> {
        self.driver = self.driver.with_probe_interval(seconds)?;
        Ok(self)
    }

    /// Selects how RTT exchanges execute (default
    /// [`ExchangeFidelity::Fused`]; ABW always runs per-message).
    pub fn with_exchange_fidelity(mut self, fidelity: ExchangeFidelity) -> Self {
        self.driver = self.driver.with_exchange_fidelity(fidelity);
        self
    }

    /// Routes every protocol leg through the real `dmf-proto` codec
    /// (see [`SimnetDriver::with_wire_version`]).
    pub fn with_wire_version(mut self, version: WireVersion) -> Self {
        self.driver = self.driver.with_wire_version(version);
        self
    }

    /// Byte-level statistics of a wire-mode run (see
    /// [`SimnetDriver::wire_stats`]).
    pub fn wire_stats(&self) -> WireStats {
        self.driver.wire_stats()
    }

    /// The underlying session (live coordinates, membership, queries).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Immutable access to the nodes.
    pub fn nodes(&self) -> &[DmfsgdNode] {
        self.session.nodes()
    }

    /// Run statistics.
    pub fn stats(&self) -> RunnerStats {
        self.driver.stats()
    }

    /// Current simulated time (the timestamp of the last delivered
    /// event; 0 before the first).
    pub fn now(&self) -> f64 {
        self.driver.now()
    }

    /// Raw predictor score `u_i · v_j`.
    pub fn raw_score(&self, i: usize, j: usize) -> f64 {
        self.session.raw_score_unchecked(i, j)
    }

    /// Materializes all pairwise scores for evaluation as one batched
    /// `U·Vᵀ` product (bitwise-identical to evaluating
    /// [`raw_score`](Self::raw_score) per pair, orders of magnitude
    /// faster at population scale).
    pub fn predicted_scores(&self) -> Matrix {
        self.session.predicted_scores()
    }

    /// [`predicted_scores`](Self::predicted_scores) into an existing
    /// matrix, reusing its allocation across repeated evaluations.
    pub fn predicted_scores_into(&self, out: &mut Matrix) {
        self.session.predicted_scores_into(out);
    }

    /// Runs the protocol until simulated time `duration_s`, starting
    /// all probe timers at jittered offsets.
    ///
    /// Events scheduled past `duration_s` stay queued: the simulated
    /// clock never overshoots the deadline, and a later `run_for` with
    /// a larger deadline picks up exactly where this one stopped.
    pub fn run_for(&mut self, duration_s: f64) -> Result<usize, DmfsgdError> {
        let valid = duration_s.is_finite() && duration_s > 0.0;
        if !valid {
            return Err(ConfigError::Duration {
                seconds: duration_s,
            }
            .into());
        }
        self.driver.run_until(&mut self.session, duration_s)
    }

    /// Consumes the runner and returns the trained nodes. Evaluation
    /// works on [`predicted_scores`](Self::predicted_scores) directly.
    pub fn into_nodes(self) -> Vec<DmfsgdNode> {
        self.session.into_nodes()
    }
}
