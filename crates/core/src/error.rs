//! Typed errors for the [`crate::session`] API.
//!
//! The historical surface (`DmfsgdSystem::new` + `validate()`)
//! enforced its invariants with `assert!`, so a bad knob or a stale
//! node id aborted the process. A long-lived service cannot afford
//! that: every failure a *caller* can cause is represented here as a
//! [`DmfsgdError`] variant, and no public constructor or method of the
//! session layer panics on user input.
//!
//! The `Display` strings below preserve the historical assertion
//! messages verbatim (the long-gone `DmfsgdSystem` shim formatted
//! these errors into its panics), so error text stays stable for
//! anyone matching on it.

use crate::loss::Loss;
use dmf_datasets::Metric;
use dmf_simnet::NetConfig;
use std::fmt;

/// A node identifier handed out by [`crate::session::Session::join`]
/// (and used by every per-node query). Ids are dense slot indices:
/// stable for the lifetime of a node, reused after it leaves.
pub type NodeId = usize;

/// Everything that can go wrong when building or driving a
/// [`crate::session::Session`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum DmfsgdError {
    /// A configuration knob is out of range.
    Config(ConfigError),
    /// A membership operation or per-node query referenced a node that
    /// cannot serve it.
    Membership(MembershipError),
    /// A snapshot could not be parsed or fails its consistency checks.
    Snapshot(SnapshotError),
    /// A wire datagram could not be decoded (wrapped from
    /// [`dmf_proto`]).
    Decode(dmf_proto::DecodeError),
    /// A transport-level failure in the UDP front-end (socket errors).
    Transport(String),
    /// A bulk node import ([`crate::session::Session::import_nodes`])
    /// was rejected: id order, coordinate rank or finiteness did not
    /// match the session.
    Import(String),
    /// A batched linear-algebra query was asked of incompatible
    /// shapes (wrapped from [`dmf_linalg::ShapeError`]); the fallible
    /// query surface ([`crate::session::Session::try_predicted_scores`])
    /// returns this where the internal hot paths keep their assert.
    Shape(dmf_linalg::ShapeError),
}

impl fmt::Display for DmfsgdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmfsgdError::Config(e) => e.fmt(f),
            DmfsgdError::Membership(e) => e.fmt(f),
            DmfsgdError::Snapshot(e) => e.fmt(f),
            DmfsgdError::Decode(e) => write!(f, "datagram decode failed: {e}"),
            DmfsgdError::Transport(msg) => write!(f, "transport failure: {msg}"),
            DmfsgdError::Import(msg) => write!(f, "node import rejected: {msg}"),
            DmfsgdError::Shape(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for DmfsgdError {}

impl From<ConfigError> for DmfsgdError {
    fn from(e: ConfigError) -> Self {
        DmfsgdError::Config(e)
    }
}

impl From<MembershipError> for DmfsgdError {
    fn from(e: MembershipError) -> Self {
        DmfsgdError::Membership(e)
    }
}

impl From<SnapshotError> for DmfsgdError {
    fn from(e: SnapshotError) -> Self {
        DmfsgdError::Snapshot(e)
    }
}

impl From<dmf_proto::DecodeError> for DmfsgdError {
    fn from(e: dmf_proto::DecodeError) -> Self {
        DmfsgdError::Decode(e)
    }
}

impl From<dmf_linalg::ShapeError> for DmfsgdError {
    fn from(e: dmf_linalg::ShapeError) -> Self {
        DmfsgdError::Shape(e)
    }
}

/// An out-of-range configuration knob (rejected by
/// [`crate::session::SessionBuilder::build`] and
/// [`crate::config::DmfsgdConfig::try_validate`]).
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `rank == 0`.
    ZeroRank,
    /// `k == 0`.
    ZeroK,
    /// Learning rate outside `(0, 10]`.
    Eta {
        /// The rejected learning rate.
        eta: f64,
    },
    /// Regularization violating `0 <= lambda < 1/eta`.
    Lambda {
        /// The rejected regularization coefficient.
        lambda: f64,
    },
    /// Quantity mode with a non-positive value scale.
    ValueScale {
        /// The rejected scale divisor.
        value_scale: f64,
    },
    /// Quantity mode with a classification loss.
    QuantityLoss {
        /// The rejected loss.
        loss: Loss,
    },
    /// Population no larger than the neighbor count.
    TooFewNodes {
        /// Requested population size.
        n: usize,
        /// Neighbor count per node.
        k: usize,
    },
    /// Non-positive classification threshold τ.
    Tau {
        /// The rejected threshold.
        tau: f64,
    },
    /// A driver needs τ but the session carries none.
    MissingTau,
    /// Non-positive probe interval.
    ProbeInterval {
        /// The rejected interval in seconds.
        seconds: f64,
    },
    /// Non-positive run duration or round quantum.
    Duration {
        /// The rejected duration in seconds.
        seconds: f64,
    },
    /// Zero ticks per driver round.
    ZeroTicks,
    /// Message-loss probability outside `[0, 1]` (scenario impairment
    /// hooks).
    LossProbability {
        /// The rejected probability.
        probability: f64,
    },
    /// Negative or non-finite delay-jitter sigma of a simulated network.
    JitterSigma {
        /// The rejected log-normal sigma.
        sigma: f64,
    },
    /// Simulated network's default delay negative, or not finite as `f32`.
    DefaultDelay {
        /// The rejected delay in seconds.
        seconds: f64,
    },
    /// Non-positive straggler delay factor (scenario impairment
    /// hooks).
    DelayFactor {
        /// The rejected multiplier.
        factor: f64,
    },
    /// A partition island covering the whole population: the cut
    /// would be empty, so nothing would actually be partitioned.
    FullPartition {
        /// Population size (= island size).
        nodes: usize,
    },
    /// A sharded deployment asked for zero shards, or for more shards
    /// than nodes (an empty shard could never own a node).
    Shards {
        /// Population size.
        n: usize,
        /// Requested shard count.
        shards: usize,
    },
    /// A ground-truth update requires a specific metric on both the
    /// driver and the offered dataset (delay re-embedding is
    /// RTT-only); `got` is whichever side violated it.
    MetricMismatch {
        /// The metric the operation requires.
        expected: Metric,
        /// The offending metric (the driver's when it is not
        /// RTT-backed, otherwise the offered dataset's).
        got: Metric,
    },
    /// Re-embedding a dense RTT truth needs the dense layout: on a
    /// k-island net the truth's cross-island pairs have no table to
    /// land in (they travel at the default delay).
    DenseLayout {
        /// Islands of the net asked to re-embed.
        islands: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::ZeroRank => write!(f, "rank must be at least 1"),
            ConfigError::ZeroK => write!(f, "k must be at least 1"),
            ConfigError::Eta { eta } => write!(f, "eta {eta} out of sensible range"),
            ConfigError::Lambda { lambda } => write!(
                f,
                "lambda {lambda} must satisfy 0 <= lambda < 1/eta so the \
                 shrinkage (1-ηλ) stays positive"
            ),
            ConfigError::ValueScale { value_scale } => {
                write!(f, "value scale must be positive (got {value_scale})")
            }
            ConfigError::QuantityLoss { loss } => {
                write!(
                    f,
                    "quantity mode requires the L2 loss (paper §6.4), got {loss:?}"
                )
            }
            ConfigError::TooFewNodes { n, k } => {
                write!(f, "need more nodes than neighbors (n={n}, k={k})")
            }
            ConfigError::Tau { tau } => write!(f, "tau must be positive (got {tau})"),
            ConfigError::MissingTau => {
                write!(f, "no classification threshold: set SessionBuilder::tau")
            }
            ConfigError::ProbeInterval { seconds } => {
                write!(f, "probe interval must be positive (got {seconds})")
            }
            ConfigError::Duration { seconds } => {
                write!(f, "duration must be positive (got {seconds})")
            }
            ConfigError::ZeroTicks => write!(f, "ticks per round must be at least 1"),
            ConfigError::LossProbability { probability } => {
                write!(f, "loss probability {probability} out of [0, 1]")
            }
            ConfigError::JitterSigma { sigma } => write!(f, "jitter sigma {sigma} out of [0, ∞)"),
            ConfigError::DefaultDelay { seconds } => {
                write!(f, "default one-way delay {seconds} s out of [0, ∞)")
            }
            ConfigError::DelayFactor { factor } => {
                write!(f, "delay factor must be positive (got {factor})")
            }
            ConfigError::FullPartition { nodes } => {
                write!(
                    f,
                    "partition island must be a strict subset of the population \
                     (all {nodes} nodes named)"
                )
            }
            ConfigError::Shards { n, shards } => {
                write!(f, "cannot partition {n} nodes into {shards} shards")
            }
            ConfigError::MetricMismatch { expected, got } => {
                write!(
                    f,
                    "ground-truth update requires metric {expected:?}, got {got:?}"
                )
            }
            ConfigError::DenseLayout { islands } => {
                write!(
                    f,
                    "re-embedding a dense RTT truth needs the one-island layout, \
                     not {islands} islands"
                )
            }
        }
    }
}

impl ConfigError {
    /// Validates a classification threshold: finite and strictly
    /// positive. The single source of truth for every surface that
    /// accepts a τ (builder, snapshot restore, simnet and UDP
    /// front-ends).
    pub fn check_tau(tau: f64) -> Result<(), ConfigError> {
        if tau.is_finite() && tau > 0.0 {
            Ok(())
        } else {
            Err(ConfigError::Tau { tau })
        }
    }

    /// Validates a message-loss probability for the simnet driver,
    /// at construction and in its mid-run hook alike.
    pub(crate) fn check_loss_probability(probability: f64) -> Result<(), ConfigError> {
        if (0.0..=1.0).contains(&probability) {
            Ok(())
        } else {
            Err(ConfigError::LossProbability { probability })
        }
    }

    /// Validates a simnet driver's network model, which unchecked draws no
    /// jitter (NaN sigma) or panics in the queue mid-run (unusable delay).
    pub(crate) fn check_net_config(config: &NetConfig) -> Result<(), ConfigError> {
        Self::check_loss_probability(config.loss_probability)?;
        let (sigma, seconds) = (config.delay_jitter_sigma, config.default_one_way_delay_s);
        if !(sigma.is_finite() && sigma >= 0.0) {
            return Err(ConfigError::JitterSigma { sigma });
        }
        if !((seconds as f32).is_finite() && seconds >= 0.0) {
            return Err(ConfigError::DefaultDelay { seconds });
        }
        Ok(())
    }

    /// Validates a simulated-time deadline for the simnet drivers'
    /// `run_until`: the probe chains re-arm forever, so a NaN or
    /// infinite deadline would never be reached.
    pub(crate) fn check_deadline(deadline_s: f64) -> Result<(), ConfigError> {
        if deadline_s.is_finite() {
            Ok(())
        } else {
            Err(ConfigError::Duration {
                seconds: deadline_s,
            })
        }
    }
}

impl std::error::Error for ConfigError {}

/// A membership operation or query that cannot be served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MembershipError {
    /// The id names no slot of this session.
    UnknownNode {
        /// The rejected id.
        id: NodeId,
        /// Number of slots in the session.
        slots: usize,
    },
    /// The slot exists but its node has left (duplicate `leave`, or a
    /// query against a departed node).
    Departed {
        /// The departed id.
        id: NodeId,
    },
    /// A pair operation named the same node twice.
    SelfPair {
        /// The offending id.
        id: NodeId,
    },
    /// The operation would leave fewer than `k + 1` alive nodes, so
    /// some neighbor set could no longer be filled.
    TooFewAlive {
        /// Alive nodes after the operation.
        alive: usize,
        /// Neighbor count each alive node must sustain.
        k: usize,
    },
    /// The measurement provider covers a different population than the
    /// session.
    ProviderMismatch {
        /// Nodes covered by the provider.
        provider: usize,
        /// Slots in the session.
        session: usize,
    },
    /// The trace covers a different population than the session.
    TraceMismatch {
        /// Nodes covered by the trace.
        trace: usize,
        /// Slots in the session.
        session: usize,
    },
    /// The trace is not sorted by timestamp.
    TraceNotTimeOrdered,
    /// An agent was handed an empty neighbor set — it would have
    /// nobody to probe (see `dmf-agent`'s `run_agent`).
    NoNeighbors {
        /// The agent's node id.
        id: NodeId,
    },
    /// A fleet join named an agent slot that is already running (see
    /// `dmf-agent`'s `Fleet`).
    AlreadyRunning {
        /// The agent's node id.
        id: NodeId,
    },
    /// A fleet leave named an agent slot with no running agent (see
    /// `dmf-agent`'s `Fleet`).
    NotRunning {
        /// The agent's node id.
        id: NodeId,
    },
}

impl fmt::Display for MembershipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MembershipError::UnknownNode { id, slots } => {
                write!(f, "node id out of range: {id} (session has {slots} slots)")
            }
            MembershipError::Departed { id } => write!(f, "node {id} has left the session"),
            MembershipError::SelfPair { id } => {
                write!(f, "cannot measure the self-pair ({id}, {id})")
            }
            MembershipError::TooFewAlive { alive, k } => write!(
                f,
                "membership change refused: {alive} alive nodes cannot sustain \
                 neighbor sets of k={k}"
            ),
            MembershipError::ProviderMismatch { provider, session } => {
                write!(f, "provider covers {provider} nodes, system has {session}")
            }
            MembershipError::TraceMismatch { trace, session } => {
                write!(
                    f,
                    "trace/system size mismatch (trace {trace}, system {session})"
                )
            }
            MembershipError::TraceNotTimeOrdered => write!(f, "trace must be time-ordered"),
            MembershipError::NoNeighbors { id } => write!(f, "agent {id} has no neighbors"),
            MembershipError::AlreadyRunning { id } => {
                write!(f, "agent {id} is already running")
            }
            MembershipError::NotRunning { id } => write!(f, "agent {id} is not running"),
        }
    }
}

impl std::error::Error for MembershipError {}

/// A snapshot that cannot be restored.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The serialized form is not valid JSON (or not the expected
    /// shape).
    Parse(String),
    /// The snapshot was written by an incompatible schema version.
    SchemaVersion {
        /// Version found in the snapshot.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The snapshot parsed but its pieces contradict each other
    /// (mismatched ranks, dangling ids, impossible RNG position, …).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Parse(msg) => write!(f, "snapshot parse failure: {msg}"),
            SnapshotError::SchemaVersion { found, supported } => write!(
                f,
                "snapshot schema version {found} unsupported (this build reads {supported})"
            ),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_preserve_legacy_assert_substrings() {
        // The historical assertion substrings (once re-panicked by
        // the removed DmfsgdSystem shim, and still matched by
        // downstream error handling) must survive in these Display
        // impls.
        assert!(ConfigError::ZeroRank
            .to_string()
            .contains("rank must be at least 1"));
        assert!(ConfigError::Eta { eta: 0.0 }.to_string().contains("eta"));
        assert!(ConfigError::Lambda { lambda: 1.5 }
            .to_string()
            .contains("shrinkage"));
        assert!(ConfigError::QuantityLoss {
            loss: Loss::Logistic
        }
        .to_string()
        .contains("L2 loss"));
        assert!(ConfigError::TooFewNodes { n: 5, k: 10 }
            .to_string()
            .contains("more nodes than neighbors"));
        assert!(MembershipError::SelfPair { id: 3 }
            .to_string()
            .contains("self-pair"));
        assert!(MembershipError::UnknownNode { id: 9, slots: 4 }
            .to_string()
            .contains("node id out of range"));
        assert!(MembershipError::ProviderMismatch {
            provider: 3,
            session: 4
        }
        .to_string()
        .contains("provider covers 3 nodes, system has 4"));
        assert!(MembershipError::TraceMismatch {
            trace: 1,
            session: 2
        }
        .to_string()
        .contains("trace/system size mismatch"));
        assert!(MembershipError::TraceNotTimeOrdered
            .to_string()
            .contains("time-ordered"));
    }

    #[test]
    fn conversions_wrap_into_dmfsgd_error() {
        let e: DmfsgdError = ConfigError::ZeroRank.into();
        assert!(matches!(e, DmfsgdError::Config(ConfigError::ZeroRank)));
        let e: DmfsgdError = MembershipError::Departed { id: 1 }.into();
        assert!(matches!(e, DmfsgdError::Membership(_)));
        let e: DmfsgdError = SnapshotError::Parse("x".into()).into();
        assert!(matches!(e, DmfsgdError::Snapshot(_)));
        let e: DmfsgdError = dmf_proto::DecodeError::BadMagic.into();
        assert!(matches!(
            e,
            DmfsgdError::Decode(dmf_proto::DecodeError::BadMagic)
        ));
    }

    #[test]
    fn errors_format_and_chain() {
        let e = DmfsgdError::Snapshot(SnapshotError::SchemaVersion {
            found: 9,
            supported: 1,
        });
        assert!(e.to_string().contains("schema version 9"));
        let e = DmfsgdError::Decode(dmf_proto::DecodeError::BadChecksum);
        assert!(e.to_string().contains("checksum"));
        let e = DmfsgdError::Transport("socket closed".into());
        assert!(e.to_string().contains("socket closed"));
    }
}
