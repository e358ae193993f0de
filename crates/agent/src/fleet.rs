//! Long-running fleet operations: [`Fleet`].
//!
//! [`UdpCluster`](crate::cluster::UdpCluster) is a batch harness — a
//! fleet that is launched, left alone for a fixed budget and shut
//! down. An operator's deployment does none of those things on a
//! schedule: agents **join and leave while the rest keep running**,
//! faults come and go, and the fleet must be observable and
//! checkpointable the whole time. `Fleet` is that lifecycle (one
//! socket and one OS thread per agent, the shared
//! [`MeasurementOracle`], [`run_agent`]):
//!
//! * [`join`](Fleet::join) / [`leave`](Fleet::leave) — start or stop
//!   one agent slot while the others run; a slot keeps its port and
//!   its trained coordinates across cycles, so a rejoined agent warm
//!   starts and the address book never changes. Misuse is typed:
//!   [`MembershipError::AlreadyRunning`] / [`MembershipError::NotRunning`].
//! * [`metrics`](Fleet::metrics) / [`health`](Fleet::health) — the
//!   live observability surface: each slot's completed runs plus its
//!   running agent's [`AgentMetricsSlot`] mirror, summed into
//!   fleet-wide counters; a shared quality window (rolling AUC and
//!   staleness clock) fed on every applied update; and the declared
//!   [`HealthPolicy`] evaluated over (window fill, rolling AUC,
//!   coordinate staleness).
//! * [`set_faults`](Fleet::set_faults) + [`restart_all`](Fleet::restart_all)
//!   — swap the send-path fault model under a running fleet (a "loss
//!   storm" drill): faults apply to agents (re)joined afterwards, and
//!   a rolling restart re-launches every running agent under the new
//!   model without dropping its coordinates.
//! * [`checkpoint`](Fleet::checkpoint) — a stop-the-world snapshot:
//!   running agents are paused, their coordinates folded into a
//!   [`Session`] and serialized as a portable
//!   [`Snapshot`], then everyone resumes. The
//!   snapshot restores anywhere a session does — including a live
//!   `PredictionService` (`restore_from_snapshot`).
//!
//! `docs/operations.md` is the operator runbook for all of this.

use crate::agent::{run_agent, AgentHandle, AgentStats};
use crate::cluster::{ClusterConfig, ClusterOutcome};
use crate::metrics::{stat_samples, AgentMetricsSlot, STAT_METRICS};
use crate::oracle::MeasurementOracle;
use crate::transport::FaultySocket;
use dmf_core::{
    ConfigError, DmfsgdConfig, DmfsgdError, DmfsgdNode, MembershipError, Session, Snapshot,
};
use dmf_datasets::Dataset;
use dmf_ops::{
    health_gauges, Health, HealthPolicy, HealthSignals, LiveQuality, MetricSample, MetricsSnapshot,
    SampleValue, Unit,
};
use dmf_proto::FaultSpec;
use dmf_simnet::NeighborSets;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Capacity of the fleet's shared quality window (recent update pairs
/// the fleet-wide rolling AUC is computed over).
const FLEET_QUALITY_WINDOW: usize = 512;

/// (name, help) of the fleet's own gauges — the fleet's half of the
/// metric contract (agent counters come from [`STAT_METRICS`]): the
/// slot count and the running count (unit-free), then the four
/// [`health_gauges`] in their order.
const FLEET_GAUGES: [(&str, &str); 6] = [
    (
        "dmf_fleet_agents",
        "Slots in the fleet (running or parked).",
    ),
    (
        "dmf_fleet_agents_running",
        "Slots currently running an agent.",
    ),
    (
        "dmf_fleet_rolling_auc",
        "Rolling AUC over the shared quality window (NaN while undefined).",
    ),
    (
        "dmf_fleet_quality_samples",
        "Pairs currently held in the shared quality window.",
    ),
    (
        "dmf_fleet_update_staleness_seconds",
        "Seconds since the most recent update applied anywhere (NaN before the first).",
    ),
    (
        "dmf_fleet_health_state",
        "Health verdict: 0 healthy, 1 degraded, 2 unready.",
    ),
];

/// One running agent: its private stop flag and its thread.
struct Running {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Result<(DmfsgdNode, AgentStats), DmfsgdError>>,
}

/// One fleet slot: a fixed port, the parked node state between runs,
/// the counters of its completed runs, and the running agent's live
/// metrics mirror.
struct Slot {
    /// Keeper clone of the bound socket — cloned again on every
    /// rejoin so the slot's address never changes.
    socket: UdpSocket,
    /// The node's coordinates while no agent runs the slot (`None`
    /// while one does — the thread owns them).
    node: Option<DmfsgdNode>,
    /// Counters accumulated by completed runs of this slot.
    total: AgentStats,
    metrics: Arc<AgentMetricsSlot>,
    running: Option<Running>,
}

/// Fresh random coordinates and neighbor sets for `n` nodes: the seed
/// derivation [`Fleet::launch`] and
/// [`UdpCluster::run`](crate::cluster::UdpCluster::run) share, so
/// their outcomes are comparable.
pub(crate) fn seed_population(
    n: usize,
    config: &DmfsgdConfig,
) -> Result<(Vec<DmfsgdNode>, NeighborSets), DmfsgdError> {
    config.try_validate()?;
    if n <= config.k {
        return Err(ConfigError::TooFewNodes { n, k: config.k }.into());
    }
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x7ea2_0001);
    let nodes = (0..n)
        .map(|i| DmfsgdNode::new(i, config.rank, &mut rng))
        .collect();
    let neighbor_sets = NeighborSets::random(n, config.k, &mut rng);
    Ok((nodes, neighbor_sets))
}

/// The shared oracle over `dataset` classifying at `tau`, its probe
/// noise seeded from the run's `seed`.
pub(crate) fn seed_oracle(
    dataset: Dataset,
    tau: f64,
    seed: u64,
) -> Result<Arc<MeasurementOracle>, DmfsgdError> {
    Ok(Arc::new(MeasurementOracle::new(
        dataset,
        tau,
        seed ^ 0x0c0a_17e5,
    )?))
}

/// A long-running localhost fleet with live membership, metrics,
/// health and checkpointing (see the [module docs](self)).
pub struct Fleet {
    oracle: Arc<MeasurementOracle>,
    config: ClusterConfig,
    neighbor_sets: NeighborSets,
    addrs: Vec<SocketAddr>,
    slots: Vec<Slot>,
    quality: Arc<LiveQuality>,
    policy: HealthPolicy,
}

impl Fleet {
    /// Launches a fleet over `dataset`: binds one socket per node,
    /// seeds fresh random coordinates and neighbor sets (the same
    /// derivations as [`UdpCluster::run`](crate::cluster::UdpCluster::run),
    /// so outcomes are comparable), and joins every agent.
    ///
    /// `config.duration` is ignored — a fleet runs until
    /// [`shutdown`](Self::shutdown). `config.faults` applies to the
    /// agents joined now and on every later (re)join until changed
    /// with [`set_faults`](Self::set_faults).
    pub fn launch(dataset: Dataset, tau: f64, config: ClusterConfig) -> Result<Self, DmfsgdError> {
        let (nodes, neighbor_sets) = seed_population(dataset.len(), &config.dmfsgd)?;
        let oracle = seed_oracle(dataset, tau, config.dmfsgd.seed)?;
        Self::from_parts(oracle, config, nodes, &neighbor_sets)
    }

    /// [`launch`](Self::launch) from explicit node states, neighbor
    /// sets and a pre-built oracle: binds the sockets, builds the
    /// address book and joins every agent. `nodes[i].id` must equal
    /// `i`, and the oracle and the neighbor sets must cover exactly
    /// that population.
    pub(crate) fn from_parts(
        oracle: Arc<MeasurementOracle>,
        config: ClusterConfig,
        nodes: Vec<DmfsgdNode>,
        neighbor_sets: &NeighborSets,
    ) -> Result<Self, DmfsgdError> {
        config.dmfsgd.try_validate()?;
        let n = nodes.len();
        for covered in [oracle.len(), neighbor_sets.len()] {
            if covered != n {
                return Err(MembershipError::ProviderMismatch {
                    provider: covered,
                    session: n,
                }
                .into());
            }
        }
        for (i, node) in nodes.iter().enumerate() {
            if node.id != i {
                return Err(MembershipError::UnknownNode {
                    id: node.id,
                    slots: n,
                }
                .into());
            }
        }

        // Bind all sockets first so the address book is complete
        // before any agent starts. The short read timeout is what
        // keeps the agent loop responsive; failing to set it is a
        // typed transport error, not a panic.
        let io_err = |e: std::io::Error| DmfsgdError::Transport(e.to_string());
        let quality = Arc::new(LiveQuality::new(FLEET_QUALITY_WINDOW));
        let mut slots = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for node in nodes {
            let socket = UdpSocket::bind("127.0.0.1:0").map_err(io_err)?;
            socket
                .set_read_timeout(Some(Duration::from_millis(2)))
                .map_err(io_err)?;
            addrs.push(socket.local_addr().map_err(io_err)?);
            slots.push(Slot {
                socket,
                node: Some(node),
                total: AgentStats::default(),
                metrics: Arc::new(AgentMetricsSlot::new(Arc::clone(&quality))),
                running: None,
            });
        }

        let mut fleet = Self {
            oracle,
            config,
            neighbor_sets: neighbor_sets.clone(),
            addrs,
            slots,
            quality,
            policy: HealthPolicy::default(),
        };
        for id in 0..n {
            fleet.join(id)?;
        }
        Ok(fleet)
    }

    /// Number of slots (running or parked).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the fleet has no slots (it never does — a launched
    /// fleet always covers the dataset's population).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of slots currently running an agent.
    pub fn running_count(&self) -> usize {
        self.slots.iter().filter(|s| s.running.is_some()).count()
    }

    /// Starts an agent on slot `id`, warm-starting from the slot's
    /// parked coordinates on its original port.
    ///
    /// # Errors
    /// [`MembershipError::UnknownNode`] for an out-of-range id,
    /// [`MembershipError::AlreadyRunning`] if the slot already runs an
    /// agent, [`DmfsgdError::Transport`] if the slot's socket cannot
    /// be cloned.
    pub fn join(&mut self, id: usize) -> Result<(), DmfsgdError> {
        let slots = self.slots.len();
        let slot = self
            .slots
            .get_mut(id)
            .ok_or(MembershipError::UnknownNode { id, slots })?;
        if slot.running.is_some() {
            return Err(MembershipError::AlreadyRunning { id }.into());
        }
        let socket = slot
            .socket
            .try_clone()
            .map_err(|e| DmfsgdError::Transport(e.to_string()))?;
        let node = slot.node.take().expect("parked slot holds its node");
        let stop = Arc::new(AtomicBool::new(false));
        let seed = self.config.dmfsgd.seed ^ ((id as u64) << 8) ^ 0xa9e1;
        // A macro, not a function, because `AgentHandle<T>` is generic
        // in its transport: one arm builds `AgentHandle<FaultySocket>`,
        // the other `AgentHandle<UdpSocket>`.
        macro_rules! spawn_agent {
            ($socket:expr) => {{
                let handle = AgentHandle {
                    node,
                    socket: $socket,
                    peers: self.addrs.clone(),
                    neighbors: self.neighbor_sets.neighbors(id).to_vec(),
                    oracle: Arc::clone(&self.oracle),
                    config: self.config.dmfsgd,
                    stop: Arc::clone(&stop),
                    probe_interval: self.config.probe_interval,
                    wire: self.config.wire,
                    probe_timeout: self.config.probe_timeout,
                    max_retries: self.config.max_retries,
                    metrics: Arc::clone(&slot.metrics),
                };
                thread::spawn(move || run_agent(handle, seed))
            }};
        }
        let thread = match self.config.faults {
            Some(spec) if !spec.is_none() => {
                let faulty = FaultySocket::new(socket, spec, seed ^ 0xfa17_0000);
                spawn_agent!(faulty)
            }
            _ => spawn_agent!(socket),
        };
        slot.running = Some(Running { stop, thread });
        Ok(())
    }

    /// Stops the agent on slot `id`, parks its trained coordinates
    /// for the next join, folds its counters into the slot's totals,
    /// and returns this run's [`AgentStats`].
    ///
    /// # Errors
    /// [`MembershipError::UnknownNode`] / [`MembershipError::NotRunning`]
    /// for a bad id or an already-parked slot.
    pub fn leave(&mut self, id: usize) -> Result<AgentStats, DmfsgdError> {
        let slots = self.slots.len();
        let slot = self
            .slots
            .get_mut(id)
            .ok_or(MembershipError::UnknownNode { id, slots })?;
        let running = slot
            .running
            .take()
            .ok_or(MembershipError::NotRunning { id })?;
        running.stop.store(true, Ordering::Relaxed);
        let (node, stats) = running.thread.join().expect("agent thread panicked")?;
        slot.node = Some(node);
        slot.total.merge(&stats);
        slot.metrics.flush(&AgentStats::default());
        Ok(stats)
    }

    /// Replaces the send-path fault model for agents (re)joined from
    /// now on; running agents keep their current model until
    /// restarted (see [`restart_all`](Self::restart_all)).
    pub fn set_faults(&mut self, faults: Option<FaultSpec>) {
        self.config.faults = faults;
    }

    /// Rolling restart: every running agent leaves and immediately
    /// rejoins (warm start, same port), picking up the current fault
    /// model. Parked slots stay parked.
    pub fn restart_all(&mut self) -> Result<(), DmfsgdError> {
        for id in self.running_ids() {
            self.leave(id)?;
            self.join(id)?;
        }
        Ok(())
    }

    /// Stop-the-world checkpoint: pauses every running agent, folds
    /// the fleet's coordinates into a [`Session`] and serializes it,
    /// then resumes exactly the agents that were running. The
    /// returned [`Snapshot`] restores anywhere a session does — a
    /// cold-started session, or a live `PredictionService`.
    pub fn checkpoint(&mut self) -> Result<Snapshot, DmfsgdError> {
        let paused = self.running_ids();
        for &id in &paused {
            self.leave(id)?;
        }
        let nodes: Vec<DmfsgdNode> = self
            .slots
            .iter()
            .map(|s| s.node.clone().expect("parked slot holds its node"))
            .collect();
        let applied: usize = self.slots.iter().map(|s| s.total.updates_applied).sum();
        let mut session = Session::builder()
            .config(self.config.dmfsgd)
            .nodes(nodes.len())
            .tau(self.oracle.tau())
            .build()?;
        session.import_nodes(nodes, applied)?;
        let snapshot = session.snapshot();
        for &id in &paused {
            self.join(id)?;
        }
        Ok(snapshot)
    }

    /// Stops every running agent and returns the final
    /// [`ClusterOutcome`]: trained nodes per slot and each slot's
    /// counters accumulated over all of its runs.
    pub fn shutdown(mut self) -> Result<ClusterOutcome, DmfsgdError> {
        // Raise every stop flag before the first join, so no agent
        // keeps probing peers that have already left.
        for running in self.slots.iter().filter_map(|s| s.running.as_ref()) {
            running.stop.store(true, Ordering::Relaxed);
        }
        for id in self.running_ids() {
            self.leave(id)?;
        }
        let mut nodes = Vec::with_capacity(self.slots.len());
        let mut stats = Vec::with_capacity(self.slots.len());
        for slot in &mut self.slots {
            nodes.push(slot.node.take().expect("parked slot holds its node"));
            stats.push(slot.total);
        }
        Ok(ClusterOutcome { nodes, stats })
    }

    /// Replaces the health rules (takes effect on the next
    /// [`health`](Self::health) / [`metrics`](Self::metrics) call).
    pub fn set_health_policy(&mut self, policy: HealthPolicy) {
        self.policy = policy;
    }

    /// The health signals as observed right now: the shared quality
    /// window, and staleness as seconds since the most recent update
    /// applied *anywhere* in the fleet (`None` before the first).
    /// Rejection rate does not apply to a fleet (no admission queue).
    pub fn signals(&self) -> HealthSignals {
        self.quality.signals(None)
    }

    /// Evaluates fleet health under the current policy.
    pub fn health(&self) -> Health {
        self.policy.evaluate(&self.signals())
    }

    /// A deterministic point-in-time snapshot of the fleet: the 12
    /// agent counters summed across all slots (monotonic over
    /// leave/rejoin cycles) plus the fleet's six gauges.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut totals = [0u64; STAT_METRICS.len()];
        for slot in &self.slots {
            let live = slot.metrics.counters();
            for ((t, m), v) in totals.iter_mut().zip(&STAT_METRICS).zip(live) {
                *t += (m.read)(&slot.total) + v;
            }
        }
        let [agents, running, health @ ..] = FLEET_GAUGES;
        let gauge = |(name, help), v: f64| {
            MetricSample::new((name, help, Unit::None), SampleValue::Gauge(v))
        };
        let mut samples = stat_samples(totals);
        samples.push(gauge(agents, self.len() as f64));
        samples.push(gauge(running, self.running_count() as f64));
        samples.extend(health_gauges(&self.signals(), &self.policy, health));
        MetricsSnapshot::from_samples(samples)
    }

    fn running_ids(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, s)| s.running.as_ref().map(|_| id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_core::DmfsgdConfig;
    use dmf_datasets::rtt::meridian_like;
    use dmf_eval::{collect_scores, roc::auc};

    fn fast_config(seed: u64) -> ClusterConfig {
        ClusterConfig {
            dmfsgd: DmfsgdConfig {
                seed,
                ..DmfsgdConfig::paper_defaults()
            },
            probe_interval: Duration::from_millis(2),
            ..ClusterConfig::default()
        }
    }

    /// Spins until the fleet has applied at least `want` updates (the
    /// live counter, so no agent needs to exit first). Snapshot
    /// samples are sorted by name, so look the counter up by name.
    fn wait_for_updates(fleet: &Fleet, want: u64) {
        for _ in 0..2_000 {
            let snap = fleet.metrics();
            let sample = snap
                .metrics
                .iter()
                .find(|m| m.name == "dmf_agent_updates_applied_total")
                .expect("exported");
            if let SampleValue::Counter(v) = sample.value {
                if v >= want {
                    return;
                }
            }
            thread::sleep(Duration::from_millis(5));
        }
        panic!("fleet never reached {want} applied updates");
    }

    #[test]
    fn fleet_runs_learns_and_reports_live_metrics() {
        let d = meridian_like(16, 21);
        let tau = d.median();
        let fleet = Fleet::launch(d, tau, fast_config(21)).expect("launch");
        assert_eq!(fleet.len(), 16);
        assert_eq!(fleet.running_count(), 16);
        wait_for_updates(&fleet, 200);
        let signals = fleet.signals();
        assert!(signals.quality_samples > 0, "quality window must fill");
        assert!(signals.staleness_s.expect("updates applied") < 30.0);
        let text = fleet.metrics().render_text();
        assert!(text.starts_with("# dmfsgd-metrics schema 1\n"));
        assert!(text.contains("dmf_fleet_agents_running 16.0"));
        let outcome = fleet.shutdown().expect("shutdown");
        assert!(outcome.total_updates() > 0);
    }

    #[test]
    fn leave_and_rejoin_keep_counters_monotonic_and_ports_stable() {
        let d = meridian_like(12, 22);
        let tau = d.median();
        let mut fleet = Fleet::launch(d, tau, fast_config(22)).expect("launch");
        wait_for_updates(&fleet, 50);

        let before = fleet.addrs.clone();
        let stats = fleet.leave(3).expect("leave");
        assert!(stats.probes_sent > 0, "the run must have probed");
        assert_eq!(fleet.running_count(), 11);
        // Typed misuse errors.
        assert!(matches!(
            fleet.leave(3).unwrap_err(),
            DmfsgdError::Membership(MembershipError::NotRunning { id: 3 })
        ));
        assert!(matches!(
            fleet.join(0).unwrap_err(),
            DmfsgdError::Membership(MembershipError::AlreadyRunning { id: 0 })
        ));
        assert!(matches!(
            fleet.join(99).unwrap_err(),
            DmfsgdError::Membership(MembershipError::UnknownNode { id: 99, .. })
        ));

        fleet.join(3).expect("rejoin");
        assert_eq!(fleet.running_count(), 12);
        assert_eq!(fleet.addrs, before, "slot addresses never change");

        // Counters accumulated by the first run survive the rejoin.
        let snap = fleet.metrics();
        let sample = snap
            .metrics
            .iter()
            .find(|m| m.name == "dmf_agent_probes_sent_total")
            .expect("exported");
        let after = match sample.value {
            SampleValue::Counter(v) => v,
            ref v => panic!("counter expected, got {v:?}"),
        };
        assert!(after >= stats.probes_sent as u64);
        fleet.shutdown().expect("shutdown");
    }

    #[test]
    fn checkpoint_restores_into_a_session_with_identical_coordinates() {
        let d = meridian_like(12, 23);
        let tau = d.median();
        let cm = d.classify(tau);
        let mut fleet = Fleet::launch(d, tau, fast_config(23)).expect("launch");
        wait_for_updates(&fleet, 12 * 50);
        let snapshot = fleet.checkpoint().expect("checkpoint");
        assert_eq!(fleet.running_count(), 12, "checkpoint resumes everyone");
        let session = Session::restore(&snapshot).expect("restore");
        assert_eq!(session.len(), 12);
        // The session holds what the sockets trained: every update the
        // paused agents applied is counted, and the coordinates
        // classify the ground truth.
        let applied = session.measurements_used();
        assert!(applied >= 12 * 50, "only {applied} updates counted");
        let a = auc(&collect_scores(&cm, &session.predicted_scores()));
        assert!(a > 0.7, "socket-trained session AUC {a}");
        // The restored coordinates are the fleet's own, bit for bit:
        // a post-checkpoint shutdown can only have moved them forward,
        // but the snapshot itself came from the paused state. Restore
        // twice and compare the two sessions instead.
        let again = Session::restore(&snapshot).expect("restore again");
        for (a, b) in session.nodes().iter().zip(again.nodes()) {
            assert_eq!(a.coords.u.as_slice(), b.coords.u.as_slice());
            assert_eq!(a.coords.v.as_slice(), b.coords.v.as_slice());
        }
        let outcome = fleet.shutdown().expect("shutdown");
        assert!(outcome.total_updates() >= applied, "counters only grow");
    }

    #[test]
    fn a_loss_storm_degrades_health_and_recovery_restores_it() {
        let d = meridian_like(12, 24);
        let tau = d.median();
        let mut fleet = Fleet::launch(d, tau, fast_config(24)).expect("launch");
        // Tight staleness budget; quality rules off so the verdict is
        // driven by staleness alone (the AUC path has its own seeded
        // test in dmf-ops).
        fleet.set_health_policy(HealthPolicy {
            min_quality_samples: 0,
            auc_floor: None,
            staleness_limit_s: Some(0.5),
            rejection_rate_limit: None,
        });
        wait_for_updates(&fleet, 50);
        assert_eq!(fleet.health(), Health::Healthy, "updates are flowing");

        // Storm: drop every datagram and roll the fleet onto the
        // faulty transport. No replies -> no updates -> staleness
        // climbs past the limit.
        fleet.set_faults(Some(FaultSpec {
            drop: 1.0,
            ..FaultSpec::none()
        }));
        fleet.restart_all().expect("restart into storm");
        let mut degraded = false;
        for _ in 0..200 {
            if fleet.health().code() == 1 {
                degraded = true;
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
        assert!(degraded, "total loss must trip the staleness rule");

        // Recovery: lift the faults, roll again, and updates resume.
        fleet.set_faults(None);
        fleet.restart_all().expect("restart clean");
        let mut healthy = false;
        for _ in 0..200 {
            if fleet.health() == Health::Healthy {
                healthy = true;
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
        assert!(healthy, "clean transport must restore health");
        fleet.shutdown().expect("shutdown");
    }
}
