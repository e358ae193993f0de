//! The long-lived service API: [`Session`] and [`SessionBuilder`].
//!
//! The paper's DMFSGD is an *online, decentralized service*: nodes
//! join, probe, learn and answer "is the path i→j good or bad?"
//! continuously. A [`Session`] is the in-process embodiment of that
//! service — a population of [`DmfsgdNode`] state machines plus their
//! neighbor sets, probe-scheduling RNG and measurement counters — with
//! four capabilities the historical one-shot harness lacked:
//!
//! * **Panic-free construction** — [`SessionBuilder`] validates every
//!   knob and returns [`ConfigError`] instead of asserting.
//! * **Dynamic membership** — [`Session::join`] and [`Session::leave`]
//!   admit and retire nodes mid-run; neighbor sets are repaired
//!   incrementally (in-place CSR swaps, no rebuild) so churn scenarios
//!   are first-class.
//! * **Snapshots** — [`Session::snapshot`] captures coordinates,
//!   configuration and RNG position; [`Session::restore`] resumes
//!   bit-identically (see [`crate::snapshot`]).
//! * **Incremental queries** — [`Session::predict`],
//!   [`Session::predict_class`] and [`Session::rank_neighbors`] read
//!   live coordinates through the fused dot-product kernels without
//!   materializing the n² score matrix.
//!
//! Each transport has one entry point that advances a session:
//! matrix replay is [`Session::run`] (and [`Session::run_trace`] for
//! a timestamped trace), the simulated network is
//! [`SimnetDriver::run_until`](crate::runner::SimnetDriver::run_until),
//! and real sockets are `dmf_agent::UdpCluster::run` or a
//! `dmf_agent::Fleet`. A [`Snapshot`] (or [`Session::import_nodes`])
//! carries a population from one to another, so it can be trained
//! under one transport and resumed under another.

use crate::config::{DmfsgdConfig, PredictionMode};
use crate::coords::Coordinates;
use crate::error::{ConfigError, DmfsgdError, MembershipError, NodeId};
use crate::loss::Loss;
use crate::node::DmfsgdNode;
use crate::provider::MeasurementProvider;
use crate::snapshot::Snapshot;
use dmf_datasets::{DynamicTrace, Metric};
use dmf_linalg::Matrix;
use dmf_simnet::NeighborSets;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One remote RTT reply in a batch handed to
/// [`Session::apply_rtt_remote_batch`]: the measuring node `i`, the
/// observed class `x`, and the reply coordinates `(u_j, v_j)`
/// borrowed from wherever the router fetched them.
#[derive(Clone, Copy, Debug)]
pub struct RemoteRtt<'a> {
    /// The node applying the measurement (must be alive here).
    pub i: NodeId,
    /// The measured RTT class (must be finite).
    pub x: f64,
    /// The remote peer's `u` coordinates (must match the rank).
    pub u_j: &'a [f64],
    /// The remote peer's `v` coordinates (must match the rank).
    pub v_j: &'a [f64],
}

/// A long-lived DMFSGD population: the primary entry point of this
/// crate (and of the `dmfsgd` facade).
///
/// Construct one with [`Session::builder`], feed it measurements
/// through [`run`](Session::run), a simulated network's
/// [`SimnetDriver`](crate::runner::SimnetDriver) or
/// [`apply_measurement`](Session::apply_measurement), query it with
/// [`predict`](Session::predict) /
/// [`rank_neighbors`](Session::rank_neighbors), and persist it with
/// [`snapshot`](Session::snapshot).
#[derive(Clone, Debug)]
pub struct Session {
    pub(crate) config: DmfsgdConfig,
    pub(crate) tau: Option<f64>,
    pub(crate) nodes: Vec<DmfsgdNode>,
    pub(crate) neighbors: NeighborSets,
    /// Alive slots, densely packed for O(1) uniform sampling. The
    /// *order* of this list is part of the deterministic state (it
    /// decides which node a given RNG draw selects) and is therefore
    /// captured by snapshots.
    pub(crate) alive_list: Vec<NodeId>,
    /// `slot_pos[id]` is the position of `id` in `alive_list`, or
    /// `None` for departed slots.
    pub(crate) slot_pos: Vec<Option<u32>>,
    /// Departed slots, most recently departed last. `join` reuses the
    /// most recent departure first (LIFO keeps the population compact
    /// and the behaviour deterministic).
    pub(crate) free: Vec<NodeId>,
    pub(crate) rng: ChaCha8Rng,
    pub(crate) measurements: usize,
}

impl Session {
    /// Starts a fluent builder preloaded with the paper's default
    /// configuration (`r = 10`, `η = λ = 0.1`, logistic loss,
    /// `k = 10`).
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// Builds the initial population. RNG consumption order (node
    /// coordinates first, then neighbor sets) matches the historical
    /// one-shot harness, so oracle-driven runs are bit-compatible with
    /// earlier releases.
    pub(crate) fn from_validated(config: DmfsgdConfig, n: usize, tau: Option<f64>) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let nodes = (0..n)
            .map(|i| DmfsgdNode::new(i, config.rank, &mut rng))
            .collect();
        let neighbors = NeighborSets::random(n, config.k, &mut rng);
        Self {
            config,
            tau,
            nodes,
            neighbors,
            alive_list: (0..n).collect(),
            slot_pos: (0..n).map(|i| Some(i as u32)).collect(),
            free: Vec::new(),
            rng,
            measurements: 0,
        }
    }

    // ---- introspection ----------------------------------------------

    /// The configuration in force.
    pub fn config(&self) -> &DmfsgdConfig {
        &self.config
    }

    /// The classification threshold τ configured at build time, if
    /// any (classifying raw measurements needs one).
    pub fn tau(&self) -> Option<f64> {
        self.tau
    }

    /// Number of node slots (alive and departed). Score matrices from
    /// [`predicted_scores`](Self::predicted_scores) are `len × len`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the session has no node slots.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of alive nodes.
    pub fn num_alive(&self) -> usize {
        self.alive_list.len()
    }

    /// Alive node ids, in sampling order.
    pub fn alive(&self) -> &[NodeId] {
        &self.alive_list
    }

    /// True when `id` names a slot whose node is currently a member.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.slot_pos.get(id).is_some_and(|p| p.is_some())
    }

    /// Immutable view of a node slot (`None` for out-of-range ids;
    /// departed slots still expose their last coordinates).
    pub fn node(&self, id: NodeId) -> Option<&DmfsgdNode> {
        self.nodes.get(id)
    }

    /// All node slots, indexed by id.
    pub fn nodes(&self) -> &[DmfsgdNode] {
        &self.nodes
    }

    /// Consumes the session and returns the trained nodes.
    pub fn into_nodes(self) -> Vec<DmfsgdNode> {
        self.nodes
    }

    /// The neighbor sets in force.
    pub fn neighbors(&self) -> &NeighborSets {
        &self.neighbors
    }

    /// Total measurements processed so far.
    pub fn measurements_used(&self) -> usize {
        self.measurements
    }

    /// Average measurements per alive node — the x-axis of the paper's
    /// convergence plot (Figure 5c).
    pub fn avg_measurements_per_node(&self) -> f64 {
        self.measurements as f64 / self.alive_list.len().max(1) as f64
    }

    // ---- incremental queries ----------------------------------------

    /// Checks that `id` names an alive node.
    fn check_alive(&self, id: NodeId) -> Result<(), MembershipError> {
        match self.slot_pos.get(id) {
            None => Err(MembershipError::UnknownNode {
                id,
                slots: self.nodes.len(),
            }),
            Some(None) => Err(MembershipError::Departed { id }),
            Some(Some(_)) => Ok(()),
        }
    }

    fn check_pair(&self, i: NodeId, j: NodeId) -> Result<(), MembershipError> {
        self.check_alive(i)?;
        self.check_alive(j)?;
        if i == j {
            return Err(MembershipError::SelfPair { id: i });
        }
        Ok(())
    }

    /// Raw predictor output `u_i · v_j` without membership checks
    /// (slot indices must be in range). Departed slots yield their
    /// last coordinates.
    #[inline]
    pub(crate) fn raw_score_unchecked(&self, i: usize, j: usize) -> f64 {
        self.nodes[i].predict_to(&self.nodes[j])
    }

    /// Raw predictor output `u_i · v_j` (the score whose sign is the
    /// predicted class; peer selection ranks this directly). One fused
    /// dot product over live coordinates — no matrix involved.
    pub fn raw_score(&self, i: NodeId, j: NodeId) -> Result<f64, DmfsgdError> {
        self.check_pair(i, j)?;
        Ok(self.raw_score_unchecked(i, j))
    }

    /// Predicted measure in natural units: the raw score in class
    /// mode, scaled back to ms/Mbps in quantity mode.
    pub fn predict(&self, i: NodeId, j: NodeId) -> Result<f64, DmfsgdError> {
        let raw = self.raw_score(i, j)?;
        Ok(match self.config.mode {
            PredictionMode::Class => raw,
            PredictionMode::Quantity { value_scale } => raw * value_scale,
        })
    }

    /// Predicted class of the path `i → j` by [`Loss::class_of_score`]:
    /// `+1.0` ("good") or `-1.0` ("bad") under the binary losses, the
    /// class `1..=C` under [`Loss::Ordinal`].
    pub fn predict_class(&self, i: NodeId, j: NodeId) -> Result<f64, DmfsgdError> {
        let raw = self.raw_score(i, j)?;
        Ok(self.config.sgd.loss.class_of_score(raw))
    }

    /// Node `i`'s neighbors ranked by predicted score, best first
    /// (score descending, id ascending on ties), truncated to
    /// `top_k`. This is the peer-selection primitive (§6.4) computed
    /// incrementally: `k` dot products, no n² matrix.
    pub fn rank_neighbors(
        &self,
        i: NodeId,
        top_k: usize,
    ) -> Result<Vec<(NodeId, f64)>, DmfsgdError> {
        let mut ranked = Vec::new();
        self.rank_neighbors_into(i, top_k, &mut ranked)?;
        Ok(ranked)
    }

    /// [`rank_neighbors`](Self::rank_neighbors) into a caller-owned
    /// buffer (cleared first), reusing its allocation across queries.
    /// This is the serving-path variant: a connection answering rank
    /// traffic keeps one buffer per connection and never allocates per
    /// query. On error the buffer is left cleared.
    pub fn rank_neighbors_into(
        &self,
        i: NodeId,
        top_k: usize,
        out: &mut Vec<(NodeId, f64)>,
    ) -> Result<(), DmfsgdError> {
        out.clear();
        self.check_alive(i)?;
        out.extend(
            self.neighbors
                .neighbors(i)
                .iter()
                .map(|&j| (j, self.raw_score_unchecked(i, j))),
        );
        rank_scored(out, top_k);
        Ok(())
    }

    /// Materializes all pairwise raw scores (diagonal zeroed) for
    /// *evaluation*, batched as one `U·Vᵀ` product over contiguously
    /// packed coordinate rows — bitwise-identical to per-pair
    /// [`raw_score`](Self::raw_score) calls. Departed slots contribute
    /// their last coordinates. Prefer the incremental queries for
    /// serving; this is for offline ROC/AUC computation.
    pub fn predicted_scores(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        batched_scores_into(&self.nodes, &mut out);
        out
    }

    /// [`predicted_scores`](Self::predicted_scores) into an existing
    /// matrix, reusing its allocation across repeated evaluations.
    pub fn predicted_scores_into(&self, out: &mut Matrix) {
        batched_scores_into(&self.nodes, out);
    }

    /// Reference implementation of
    /// [`predicted_scores`](Self::predicted_scores): one per-pair dot
    /// at a time. Kept for the equivalence property tests.
    pub fn predicted_scores_naive(&self) -> Matrix {
        let n = self.len();
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else {
                self.raw_score_unchecked(i, j)
            }
        })
    }

    // ---- training ---------------------------------------------------

    /// Mutable borrows of two distinct node slots at once: the prober
    /// and the target of one exchange, so neither side's coordinates
    /// need copying out before the other is updated.
    ///
    /// # Panics
    /// Panics when `i == j` or either id is out of range. Every caller
    /// draws `j` from `i`'s neighbor row or has been through
    /// `check_pair`, both of which exclude the self-pair.
    #[inline]
    pub(crate) fn pair_mut(&mut self, i: usize, j: usize) -> (&mut DmfsgdNode, &mut DmfsgdNode) {
        let [prober, target] = self
            .nodes
            .get_disjoint_mut([i, j])
            .expect("an exchange needs two distinct node slots");
        (prober, target)
    }

    /// Applies a measurement without membership checks (ids must be in
    /// range and distinct — see [`pair_mut`](Self::pair_mut)). Hot-path
    /// entry for the drivers, which guarantee validity structurally.
    #[inline]
    pub(crate) fn apply_unchecked(&mut self, i: usize, j: usize, x: f64, metric: Metric) {
        let params = self.config.sgd;
        let (prober, target) = self.pair_mut(i, j);
        if metric.is_symmetric() {
            // Algorithm 1: the reply carries (u_j, v_j); node i updates.
            prober.on_rtt_measurement(x, &target.coords.u, &target.coords.v, &params);
        } else {
            // Algorithm 2: node j infers x and updates v_j, node i
            // updates u_i with the pre-update v_j snapshot.
            let v_snapshot = target.on_abw_probe(x, &prober.coords.u, &params);
            prober.on_abw_reply(x, &v_snapshot, &params);
        }
        self.measurements += 1;
    }

    /// Applies an RTT-class measurement at node `i` against a *remote*
    /// reply `(u_j, v_j)` — Algorithm 1 steps 3–4 with the reply
    /// coordinates supplied by the caller instead of read from this
    /// session.
    ///
    /// This is the paper's protocol shape: the probe reply carries
    /// `(u_j, v_j)` across the network and node `i` applies it
    /// locally. [`check_remote_reply`] refuses a wrong rank or a
    /// non-finite value, but bounds no magnitude: a peer lying with
    /// large finite coordinates is applied like any other (one ±10³
    /// liar among 300 Meridian-like nodes cut the honest-pair AUC from
    /// 0.968 to 0.845).
    pub fn apply_rtt_remote(
        &mut self,
        i: NodeId,
        x: f64,
        u_j: &[f64],
        v_j: &[f64],
    ) -> Result<(), DmfsgdError> {
        self.check_alive(i)?;
        check_remote_reply(self.config.rank, x, u_j, v_j)?;
        let params = self.config.sgd;
        self.nodes[i].on_rtt_measurement(x, u_j, v_j, &params);
        self.measurements += 1;
        Ok(())
    }

    /// Applies a whole batch of remote RTT replies through
    /// [`apply_rtt_remote`](Self::apply_rtt_remote) semantics,
    /// amortizing the per-update entry overhead. Its last caller is
    /// the benchmark's `core.apply_batch_ns_b*` probes.
    ///
    /// Validation is all-or-nothing: every update is checked
    /// (membership, rank, finiteness — the same checks in the same
    /// order as the per-update entry point) *before* any is applied,
    /// and the first failure is returned with the session untouched.
    /// On success the updates apply in slice order, and `pre_scores`
    /// (cleared first) receives each update's *pre-update* raw score
    /// `u_i · v_j` — the score `u_i` held when that update's turn
    /// came, so a batch is bit-identical to the same updates applied
    /// one at a time with the score read before each.
    pub fn apply_rtt_remote_batch(
        &mut self,
        updates: &[RemoteRtt<'_>],
        pre_scores: &mut Vec<f64>,
    ) -> Result<(), DmfsgdError> {
        for up in updates {
            self.check_alive(up.i)?;
            check_remote_reply(self.config.rank, up.x, up.u_j, up.v_j)?;
        }
        pre_scores.clear();
        let params = self.config.sgd;
        for up in updates {
            pre_scores.push(crate::coords::dot(&self.nodes[up.i].coords.u, up.v_j));
            self.nodes[up.i].on_rtt_measurement(up.x, up.u_j, up.v_j, &params);
        }
        self.measurements += updates.len();
        Ok(())
    }

    /// Applies an already-obtained measurement value for the ordered
    /// pair `(i, j)` through the proper algorithm (used by trace
    /// replay and by external transports that measure on their own).
    ///
    /// Under [`Loss::Ordinal`] a label outside the integers `1..=C` is
    /// refused with [`DmfsgdError::Label`]; the drivers' unchecked path
    /// trusts its provider, as it does for ±1 labels.
    pub fn apply_measurement(
        &mut self,
        i: NodeId,
        j: NodeId,
        x: f64,
        metric: Metric,
    ) -> Result<(), DmfsgdError> {
        self.check_pair(i, j)?;
        self.config.sgd.loss.check_label(x)?;
        self.apply_unchecked(i, j, x, metric);
        Ok(())
    }

    /// One protocol tick: a random alive node probes a random
    /// neighbor. Returns whether the drawn pair was measurable.
    pub fn tick(&mut self, provider: &mut dyn MeasurementProvider) -> Result<bool, DmfsgdError> {
        let i = self.alive_list[self.rng.gen_range(0..self.alive_list.len())];
        let j = self.neighbors.sample_neighbor(i, &mut self.rng);
        let Some(x) = provider.measure(i, j, &mut self.rng) else {
            return Ok(false);
        };
        self.apply_unchecked(i, j, x, provider.metric());
        Ok(true)
    }

    /// Runs `count` ticks (unmeasurable draws still consume a tick, as
    /// a failed probe consumes a probing slot in practice). Returns
    /// the number of measurements actually applied.
    pub fn run(
        &mut self,
        count: usize,
        provider: &mut dyn MeasurementProvider,
    ) -> Result<usize, DmfsgdError> {
        if provider.len() != self.len() {
            return Err(MembershipError::ProviderMismatch {
                provider: provider.len(),
                session: self.len(),
            }
            .into());
        }
        let mut applied = 0;
        for _ in 0..count {
            if self.tick(provider)? {
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Replays a dynamic trace in timestamp order (the Harvard
    /// protocol): each measurement `(t, i, j, value)` is classified at
    /// the session's τ (class mode) or scaled (quantity mode) and
    /// applied at node `i` via Algorithm 1. Returns the number of
    /// measurements applied. In class mode a session built without
    /// [`SessionBuilder::tau`] is refused with
    /// [`ConfigError::MissingTau`].
    ///
    /// Measurements touching a *departed* node are skipped, not
    /// errors — consistent with the probe semantics everywhere else
    /// (a measurement against an absent node just loses one training
    /// opportunity), so trace replay composes with churn. The return
    /// value counts only what was applied.
    pub fn run_trace(&mut self, trace: &DynamicTrace) -> Result<usize, DmfsgdError> {
        // Class mode labels at τ; quantity mode divides by its scale
        // and needs no τ.
        let (label, param): (fn(Metric, f64, f64) -> f64, f64) = match self.config.mode {
            PredictionMode::Class => (Metric::classify, self.tau.ok_or(ConfigError::MissingTau)?),
            PredictionMode::Quantity { value_scale } => {
                (|_, value, scale| value / scale, value_scale)
            }
        };
        if trace.nodes != self.len() {
            return Err(MembershipError::TraceMismatch {
                trace: trace.nodes,
                session: self.len(),
            }
            .into());
        }
        if !trace.is_time_ordered() {
            return Err(MembershipError::TraceNotTimeOrdered.into());
        }
        let mut applied = 0;
        for m in &trace.measurements {
            // A malformed trace (ids beyond the declared population, a
            // self-pair) is still a hard error; only membership state
            // downgrades to a skip.
            match self.check_pair(m.from, m.to) {
                Ok(()) => {}
                Err(MembershipError::Departed { .. }) => continue,
                Err(e) => return Err(e.into()),
            }
            let x = label(trace.metric, m.value, param);
            self.apply_unchecked(m.from, m.to, x, trace.metric);
            applied += 1;
        }
        Ok(applied)
    }

    /// Bulk-imports node states trained by an external front-end (the
    /// UDP agents train thread-local copies and write them back here),
    /// crediting `applied` measurements to the session counter. The
    /// import is validated — id order, coordinate rank and finiteness
    /// — so a buggy transport cannot plant a shape error or a NaN;
    /// coordinate magnitude is not checked.
    pub fn import_nodes(
        &mut self,
        nodes: Vec<DmfsgdNode>,
        applied: usize,
    ) -> Result<(), DmfsgdError> {
        if nodes.len() != self.nodes.len() {
            return Err(MembershipError::ProviderMismatch {
                provider: nodes.len(),
                session: self.nodes.len(),
            }
            .into());
        }
        validate_node_array(&nodes, self.config.rank).map_err(DmfsgdError::Import)?;
        self.nodes = nodes;
        self.measurements += applied;
        Ok(())
    }

    // ---- membership -------------------------------------------------

    /// Samples `count` distinct alive nodes by partial Fisher–Yates
    /// over the alive list.
    fn sample_alive_distinct(&mut self, count: usize) -> Vec<NodeId> {
        let mut pool = self.alive_list.clone();
        debug_assert!(pool.len() >= count);
        for i in 0..count {
            let j = self.rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(count);
        pool
    }

    /// Admits a new node: fresh random coordinates, a fresh neighbor
    /// set of `k` alive references. The most recently departed slot is
    /// reused when one exists; otherwise a new slot is appended (note
    /// that drivers bound to a fixed-size substrate, and providers
    /// replaying a fixed-size matrix, only cover the original slots).
    ///
    /// Returns the id of the new member.
    pub fn join(&mut self) -> Result<NodeId, DmfsgdError> {
        // The newcomer needs k distinct alive references (it is not in
        // the alive list itself, so no self-exclusion is needed).
        if self.alive_list.len() < self.config.k {
            return Err(MembershipError::TooFewAlive {
                alive: self.alive_list.len(),
                k: self.config.k,
            }
            .into());
        }
        // Stable draw order: coordinates first, then the neighbor row
        // (mirrors initial construction).
        let coords = Coordinates::random(self.config.rank, &mut self.rng);
        let row = self.sample_alive_distinct(self.config.k);
        let id = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = DmfsgdNode {
                    id: slot,
                    coords,
                    updates: 0,
                };
                self.neighbors.set_row(slot, &row);
                slot
            }
            None => {
                let slot = self.nodes.len();
                self.nodes.push(DmfsgdNode {
                    id: slot,
                    coords,
                    updates: 0,
                });
                self.slot_pos.push(None);
                self.neighbors.add_node(&row);
                slot
            }
        };
        self.slot_pos[id] = Some(self.alive_list.len() as u32);
        self.alive_list.push(id);
        Ok(id)
    }

    /// Retires node `id`. Every alive node that referenced it gets the
    /// dangling entry swapped — in place, no CSR rebuild — for a fresh
    /// alive reference, so probing never selects a departed target.
    ///
    /// Fails with [`MembershipError::Departed`] on a duplicate leave
    /// and with [`MembershipError::TooFewAlive`] when the departure
    /// would make neighbor sets of size `k` impossible.
    pub fn leave(&mut self, id: NodeId) -> Result<(), DmfsgdError> {
        self.check_alive(id)?;
        let alive_after = self.alive_list.len() - 1;
        // Every remaining node needs k distinct alive references
        // besides itself.
        if alive_after < self.config.k + 1 {
            return Err(MembershipError::TooFewAlive {
                alive: alive_after,
                k: self.config.k,
            }
            .into());
        }
        // Drop from the dense alive list (swap-remove keeps it dense).
        let pos = self.slot_pos[id].take().expect("checked alive above") as usize;
        self.alive_list.swap_remove(pos);
        if let Some(&moved) = self.alive_list.get(pos) {
            self.slot_pos[moved] = Some(pos as u32);
        }
        self.free.push(id);
        // Repair: every alive row that referenced the leaver gets a
        // fresh alive reference not already in that row.
        let affected = self.neighbors.rows_containing(id);
        for i in affected {
            if !self.is_alive(i) {
                continue; // stale row of a departed slot: left as-is
            }
            let replacement = {
                let row = self.neighbors.neighbors(i);
                let candidates: Vec<NodeId> = self
                    .alive_list
                    .iter()
                    .copied()
                    .filter(|&c| c != i && !row.contains(&c))
                    .collect();
                debug_assert!(!candidates.is_empty(), "guarded by the k+1 check");
                candidates[self.rng.gen_range(0..candidates.len())]
            };
            self.neighbors.replace_in_row(i, id, replacement);
        }
        Ok(())
    }

    // ---- snapshots --------------------------------------------------

    /// Captures the complete deterministic state — configuration,
    /// coordinates, neighbor sets, membership and RNG position — as a
    /// serializable [`Snapshot`]. `restore(snapshot)` followed by any
    /// sequence of operations is bit-identical to running the same
    /// sequence on the live session.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture(self)
    }

    /// Rebuilds a session from a snapshot, verifying its internal
    /// consistency (a corrupt or hand-tampered snapshot yields a
    /// [`crate::error::SnapshotError`], never a panic).
    pub fn restore(snapshot: &Snapshot) -> Result<Self, DmfsgdError> {
        snapshot.rebuild()
    }
}

/// Sorts `(id, score)` pairs best-first — score descending, id
/// ascending on ties — and truncates to `top_k`. The single ordering
/// shared by [`Session::rank_neighbors_into`] and
/// [`EpochView::rank_neighbors_into`](crate::EpochView::rank_neighbors_into),
/// so both surfaces break ties identically.
pub(crate) fn rank_scored(scored: &mut Vec<(NodeId, f64)>, top_k: usize) {
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    scored.truncate(top_k);
}

/// Validates a remote RTT reply before it may touch a node: the reply
/// coordinates `(u_j, v_j)` must have rank `rank`, and they and the
/// measured class `x` must be finite — in that order. No magnitude is
/// bounded (see [`Session::apply_rtt_remote`]). Shared by
/// [`Session::apply_rtt_remote`] and the lock-striped write path of
/// `dmf-service`, so both reject the same replies with the same error.
pub fn check_remote_reply(
    rank: usize,
    x: f64,
    u_j: &[f64],
    v_j: &[f64],
) -> Result<(), DmfsgdError> {
    if u_j.len() != rank || v_j.len() != rank {
        return Err(DmfsgdError::Import(format!(
            "remote reply has rank {}/{}, session expects {rank}",
            u_j.len(),
            v_j.len()
        )));
    }
    if !x.is_finite() || !u_j.iter().chain(v_j.iter()).all(|c| c.is_finite()) {
        return Err(DmfsgdError::Import(
            "remote reply carries non-finite values".to_string(),
        ));
    }
    Ok(())
}

/// Validates a node array against the expected shape: dense id order
/// (`nodes[i].id == i`), uniform coordinate rank, finite coordinates.
/// Shared by [`Session::import_nodes`] and snapshot restore so the
/// two surfaces cannot drift apart; returns a description of the
/// first violation.
pub(crate) fn validate_node_array(nodes: &[DmfsgdNode], rank: usize) -> Result<(), String> {
    for (i, node) in nodes.iter().enumerate() {
        if node.id != i {
            return Err(format!("node at index {i} carries id {}", node.id));
        }
        if node.coords.u.len() != rank || node.coords.v.len() != rank {
            return Err(format!(
                "node {i} has rank {}/{}, expected {rank}",
                node.coords.u.len(),
                node.coords.v.len()
            ));
        }
        if !node
            .coords
            .u
            .iter()
            .chain(node.coords.v.iter())
            .all(|x| x.is_finite())
        {
            return Err(format!("node {i} has non-finite coordinates"));
        }
    }
    Ok(())
}

/// Fluent, validating constructor for [`Session`].
///
/// ```
/// use dmf_core::Session;
///
/// let session = Session::builder()
///     .nodes(64)
///     .rank(10)
///     .eta(0.1)
///     .lambda(0.1)
///     .k(16)
///     .seed(7)
///     .build()?;
/// assert_eq!(session.num_alive(), 64);
/// # Ok::<(), dmf_core::ConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    n: usize,
    config: DmfsgdConfig,
    tau: Option<f64>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionBuilder {
    /// A builder preloaded with the paper defaults and an empty
    /// population (set [`nodes`](Self::nodes) before building).
    pub fn new() -> Self {
        Self {
            n: 0,
            config: DmfsgdConfig::paper_defaults(),
            tau: None,
        }
    }

    /// A builder whose knobs start from an existing configuration.
    pub fn from_config(config: DmfsgdConfig) -> Self {
        Self {
            n: 0,
            config,
            tau: None,
        }
    }

    /// Adopts every knob of `config` (rank, SGD parameters, `k`, mode
    /// and seed), keeping the population size and τ.
    pub fn config(mut self, config: DmfsgdConfig) -> Self {
        self.config = config;
        self
    }

    /// Population size `n` (must exceed `k`).
    pub fn nodes(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Factorization rank `r` (coordinate length; paper default 10).
    pub fn rank(mut self, rank: usize) -> Self {
        self.config.rank = rank;
        self
    }

    /// Learning rate `η` (paper default 0.1).
    pub fn eta(mut self, eta: f64) -> Self {
        self.config.sgd.eta = eta;
        self
    }

    /// Regularization coefficient `λ` (paper default 0.1).
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.config.sgd.lambda = lambda;
        self
    }

    /// Loss function (paper default logistic).
    pub fn loss(mut self, loss: Loss) -> Self {
        self.config.sgd.loss = loss;
        self
    }

    /// Neighbor count `k` per node (paper default 10; 32 for
    /// Meridian).
    pub fn k(mut self, k: usize) -> Self {
        self.config.k = k;
        self
    }

    /// Seed for coordinate initialization and probe scheduling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Classification threshold τ, in the metric's natural units.
    /// Optional for [`Session::run`] (labels arrive pre-classified);
    /// required wherever raw measurements are classified: by
    /// [`Session::run_trace`] in class mode and by
    /// [`SimnetDriver`](crate::runner::SimnetDriver).
    pub fn tau(mut self, tau: f64) -> Self {
        self.tau = Some(tau);
        self
    }

    /// Switches to class-based prediction (the paper's contribution;
    /// the default).
    pub fn class(mut self) -> Self {
        self.config.mode = PredictionMode::Class;
        self
    }

    /// Switches to quantity-based (regression) prediction with the
    /// given value scale, and to the L2 loss it requires.
    pub fn quantity(mut self, value_scale: f64) -> Self {
        self.config.mode = PredictionMode::Quantity { value_scale };
        self.config.sgd.loss = Loss::L2;
        self
    }

    /// Validates every knob and builds the session. No panic on any
    /// input: each violated range maps to a [`ConfigError`] variant.
    pub fn build(self) -> Result<Session, ConfigError> {
        self.config.try_validate()?;
        if self.n <= self.config.k {
            return Err(ConfigError::TooFewNodes {
                n: self.n,
                k: self.config.k,
            });
        }
        if let Some(tau) = self.tau {
            ConfigError::check_tau(tau)?;
        }
        Ok(Session::from_validated(self.config, self.n, self.tau))
    }
}

/// All pairwise scores `u_i · v_j` (diagonal zeroed) as one `U·Vᵀ`
/// product over coordinate rows packed contiguously, into an existing
/// matrix whose allocation is reused (repeated evaluation never
/// re-faults the n² buffer).
fn batched_scores_into(nodes: &[DmfsgdNode], out: &mut Matrix) {
    let n = nodes.len();
    if n == 0 {
        *out = Matrix::zeros(0, 0);
        return;
    }
    let r = nodes[0].coords.rank();
    // Fully allocation-free per call: all three operand views (U as
    // `lhs`, V as `rhs`, the kernels' streamed Vᵀ as `rhs_t`) are
    // packed into one reusable 64-byte-aligned thread-local scratch
    // and handed to the packed kernel entry point. Repeated evaluation
    // (convergence tracking, the repo benchmark) touches the allocator for
    // nothing but the first call's `out` buffer.
    dmf_linalg::simd::with_aligned_scratch(3 * n * r, |scratch| {
        let (ud, rest) = scratch.split_at_mut(n * r);
        let (vd, vt) = rest.split_at_mut(n * r);
        for (i, node) in nodes.iter().enumerate() {
            ud[i * r..(i + 1) * r].copy_from_slice(&node.coords.u);
            vd[i * r..(i + 1) * r].copy_from_slice(&node.coords.v);
        }
        for k in 0..r {
            for (i, row) in vd.chunks_exact(r).enumerate() {
                vt[k * n + i] = row[k];
            }
        }
        dmf_linalg::kernels::matmul_nt_packed_into(ud, vd, vt, n, r, n, out);
    });
    for i in 0..n {
        out[(i, i)] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SnapshotError;
    use crate::provider::ClassLabelProvider;
    use dmf_datasets::rtt::meridian_like;

    fn small_session(n: usize, k: usize, seed: u64) -> Session {
        Session::builder()
            .nodes(n)
            .k(k)
            .seed(seed)
            .build()
            .expect("valid config")
    }

    fn sign_accuracy(session: &Session, class: &dmf_datasets::ClassMatrix) -> f64 {
        let mut ok = 0usize;
        let mut total = 0usize;
        for (i, j) in class.mask.iter_known() {
            total += 1;
            let predicted = if session.raw_score_unchecked(i, j) >= 0.0 {
                1.0
            } else {
                -1.0
            };
            if Some(predicted) == class.label(i, j) {
                ok += 1;
            }
        }
        ok as f64 / total as f64
    }

    #[test]
    fn batched_remote_applies_are_bit_identical_to_one_at_a_time() {
        let mut batched = small_session(20, 8, 31);
        let mut one_by_one = batched.clone();
        // A schedule whose replies chain: later updates see the
        // coordinates earlier updates in the same batch produced.
        let mut updates = Vec::new();
        for step in 0..30usize {
            let i = step % 20;
            let j = (i + 1 + step % 19) % 20;
            let cj = &one_by_one.nodes()[j].coords;
            updates.push((
                i,
                if step % 3 == 0 { -1.0 } else { 1.0 },
                cj.u.to_vec(),
                cj.v.to_vec(),
            ));
        }
        let mut solo_scores = Vec::new();
        for (i, x, u_j, v_j) in &updates {
            solo_scores.push(crate::coords::dot(&one_by_one.nodes()[*i].coords.u, v_j));
            one_by_one.apply_rtt_remote(*i, *x, u_j, v_j).unwrap();
        }
        let batch: Vec<RemoteRtt<'_>> = updates
            .iter()
            .map(|(i, x, u_j, v_j)| RemoteRtt {
                i: *i,
                x: *x,
                u_j,
                v_j,
            })
            .collect();
        let mut batch_scores = Vec::new();
        batched
            .apply_rtt_remote_batch(&batch, &mut batch_scores)
            .unwrap();
        assert_eq!(batch_scores, solo_scores, "pre-update scores sequence");
        assert_eq!(batched.measurements_used(), one_by_one.measurements_used());
        for i in 0..20 {
            for j in 0..20 {
                if i == j {
                    continue;
                }
                assert_eq!(
                    batched.raw_score(i, j).unwrap(),
                    one_by_one.raw_score(i, j).unwrap(),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn batched_remote_applies_validate_all_or_nothing() {
        let mut s = small_session(12, 6, 32);
        let before = s.clone();
        let good = vec![0.5; s.config().rank];
        let bad = vec![f64::NAN; s.config().rank];
        let batch = [
            RemoteRtt {
                i: 0,
                x: 1.0,
                u_j: &good,
                v_j: &good,
            },
            RemoteRtt {
                i: 1,
                x: 1.0,
                u_j: &bad,
                v_j: &good,
            },
        ];
        let mut scores = Vec::new();
        let err = s.apply_rtt_remote_batch(&batch, &mut scores).unwrap_err();
        // Same error the per-update entry point produces...
        assert_eq!(
            err,
            before
                .clone()
                .apply_rtt_remote(1, 1.0, &bad, &good)
                .unwrap_err()
        );
        // ...and nothing applied: the good update did not land.
        assert_eq!(s.measurements_used(), before.measurements_used());
        assert_eq!(s.raw_score(0, 1).unwrap(), before.raw_score(0, 1).unwrap());
    }

    #[test]
    fn builder_rejects_each_bad_knob_with_its_variant() {
        let b = || Session::builder().nodes(30);
        assert_eq!(b().rank(0).build().unwrap_err(), ConfigError::ZeroRank);
        assert_eq!(b().k(0).build().unwrap_err(), ConfigError::ZeroK);
        assert_eq!(
            b().eta(0.0).build().unwrap_err(),
            ConfigError::Eta { eta: 0.0 }
        );
        assert_eq!(
            b().eta(1.0).lambda(1.5).build().unwrap_err(),
            ConfigError::Lambda { lambda: 1.5 }
        );
        assert_eq!(
            b().quantity(-3.0).build().unwrap_err(),
            ConfigError::ValueScale { value_scale: -3.0 }
        );
        // NaN ≠ NaN, so the non-finite scales match on the variant.
        for value_scale in [f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    b().quantity(value_scale).build().unwrap_err(),
                    ConfigError::ValueScale { .. }
                ),
                "{value_scale}"
            );
        }
        assert_eq!(
            b().quantity(1.0).loss(Loss::Logistic).build().unwrap_err(),
            ConfigError::QuantityLoss {
                loss: Loss::Logistic
            }
        );
        assert_eq!(
            Session::builder().nodes(5).k(10).build().unwrap_err(),
            ConfigError::TooFewNodes { n: 5, k: 10 }
        );
        assert_eq!(
            b().tau(-1.0).build().unwrap_err(),
            ConfigError::Tau { tau: -1.0 }
        );
        for classes in [0, 1] {
            assert_eq!(
                b().loss(Loss::Ordinal { classes }).build().unwrap_err(),
                ConfigError::Classes { classes }
            );
        }
    }

    #[test]
    fn apply_measurement_refuses_a_label_outside_the_ordinal_classes() {
        let loss = Loss::Ordinal { classes: 3 };
        let mut session = Session::builder().nodes(20).loss(loss).build().unwrap();
        let before = session.clone();
        for x in [0.0, -1.0, 1.5, 4.0, f64::NAN, f64::INFINITY] {
            let err = session.apply_measurement(0, 1, x, Metric::Rtt).unwrap_err();
            assert!(
                matches!(err, DmfsgdError::Label { loss: l, .. } if l == loss),
                "{x}: {err:?}"
            );
        }
        assert_eq!(
            session.nodes(),
            before.nodes(),
            "a refused label trains nothing"
        );
        assert_eq!(session.measurements_used(), 0);
        for x in [1.0, 2.0, 3.0] {
            session.apply_measurement(0, 1, x, Metric::Abw).unwrap();
        }
        assert_eq!(session.measurements_used(), 3);
    }

    #[test]
    fn import_nodes_refuses_a_node_whose_u_and_v_ranks_differ() {
        let mut session = small_session(20, 4, 3);
        let before = session.clone();
        let r = session.config().rank;
        let mut nodes = session.nodes().to_vec();
        nodes[5].coords.v = crate::coords::CoordVec::from_fn(r + 1, |k| 0.1 * k as f64);
        let err = session.import_nodes(nodes, 7).unwrap_err();
        assert!(matches!(err, DmfsgdError::Import(_)), "{err:?}");
        assert_eq!(
            session.nodes(),
            before.nodes(),
            "a refused import lands nothing"
        );
        assert_eq!(session.measurements_used(), 0);
    }

    #[test]
    fn builder_matches_legacy_construction_bitwise() {
        // Same seed, same RNG draw order ⇒ identical initial state.
        let session = Session::builder().nodes(40).build().expect("valid");
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let legacy: Vec<DmfsgdNode> = (0..40).map(|i| DmfsgdNode::new(i, 10, &mut rng)).collect();
        let legacy_neighbors = NeighborSets::random(40, 10, &mut rng);
        assert_eq!(session.nodes(), legacy.as_slice());
        assert_eq!(session.neighbors(), &legacy_neighbors);
    }

    #[test]
    fn training_through_session_learns() {
        let d = meridian_like(60, 1);
        let cm = d.classify(d.median());
        let mut provider = ClassLabelProvider::new(cm.clone());
        let mut session = small_session(60, 10, 0);
        let applied = session.run(60 * 200, &mut provider).expect("run");
        assert_eq!(applied, session.measurements_used());
        let acc = sign_accuracy(&session, &cm);
        assert!(acc > 0.75, "accuracy {acc} too low after training");
    }

    #[test]
    fn provider_mismatch_is_typed() {
        let d = meridian_like(30, 3);
        let mut provider = ClassLabelProvider::new(d.classify(d.median()));
        let mut session = small_session(40, 10, 3);
        assert_eq!(
            session.run(10, &mut provider).unwrap_err(),
            DmfsgdError::Membership(MembershipError::ProviderMismatch {
                provider: 30,
                session: 40
            })
        );
    }

    #[test]
    fn queries_validate_membership() {
        let session = small_session(20, 5, 4);
        assert!(session.predict(0, 1).is_ok());
        assert_eq!(
            session.raw_score(3, 3).unwrap_err(),
            DmfsgdError::Membership(MembershipError::SelfPair { id: 3 })
        );
        assert_eq!(
            session.predict(0, 99).unwrap_err(),
            DmfsgdError::Membership(MembershipError::UnknownNode { id: 99, slots: 20 })
        );
        let class = session.predict_class(0, 1).expect("alive pair");
        assert!(class == 1.0 || class == -1.0);
    }

    #[test]
    fn rank_neighbors_orders_by_score() {
        let d = meridian_like(30, 5);
        let cm = d.classify(d.median());
        let mut provider = ClassLabelProvider::new(cm);
        let mut session = small_session(30, 8, 5);
        session.run(30 * 100, &mut provider).expect("run");
        let ranked = session.rank_neighbors(0, 8).expect("alive");
        assert_eq!(ranked.len(), 8);
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1, "ranking must be descending");
        }
        for &(j, score) in &ranked {
            assert!(session.neighbors().contains(0, j));
            assert_eq!(score, session.raw_score(0, j).expect("alive pair"));
        }
        let top3 = session.rank_neighbors(0, 3).expect("alive");
        assert_eq!(&ranked[..3], top3.as_slice());
    }

    #[test]
    fn rank_neighbors_into_reuses_the_buffer_and_matches() {
        let d = meridian_like(30, 5);
        let cm = d.classify(d.median());
        let mut provider = ClassLabelProvider::new(cm);
        let mut session = small_session(30, 8, 5);
        session.run(30 * 100, &mut provider).expect("run");
        let mut buf = Vec::new();
        for i in 0..30 {
            session
                .rank_neighbors_into(i, 5, &mut buf)
                .expect("alive node");
            assert_eq!(buf, session.rank_neighbors(i, 5).expect("alive node"));
        }
        // Errors clear the buffer instead of leaving stale entries.
        assert!(session.rank_neighbors_into(99, 5, &mut buf).is_err());
        assert!(buf.is_empty());
    }

    #[test]
    fn apply_rtt_remote_matches_local_application() {
        // Two sessions from the same seed; one applies (i, j) locally,
        // the other through the remote-reply entry point fed j's
        // coordinates by hand. Must be bit-identical.
        let mut local = small_session(20, 5, 11);
        let mut remote = small_session(20, 5, 11);
        for (i, j, x) in [(0, 3, 1.0), (4, 9, -1.0), (0, 7, -1.0)] {
            local
                .apply_measurement(i, j, x, Metric::Rtt)
                .expect("local");
            let (u_j, v_j) = remote.nodes()[j].rtt_reply();
            remote
                .apply_rtt_remote(i, x, &u_j, &v_j)
                .expect("remote reply");
        }
        assert_eq!(local.nodes(), remote.nodes());
        assert_eq!(local.measurements_used(), remote.measurements_used());
    }

    #[test]
    fn apply_rtt_remote_rejects_hostile_replies() {
        let mut session = small_session(20, 5, 12);
        let good = vec![0.5; 10];
        assert!(matches!(
            session
                .apply_rtt_remote(0, 1.0, &[0.5; 3], &good)
                .unwrap_err(),
            DmfsgdError::Import(_)
        ));
        assert!(matches!(
            session
                .apply_rtt_remote(0, f64::NAN, &good, &good)
                .unwrap_err(),
            DmfsgdError::Import(_)
        ));
        let mut bad = good.clone();
        bad[4] = f64::INFINITY;
        assert!(matches!(
            session.apply_rtt_remote(0, 1.0, &good, &bad).unwrap_err(),
            DmfsgdError::Import(_)
        ));
        assert_eq!(
            session.apply_rtt_remote(99, 1.0, &good, &good).unwrap_err(),
            DmfsgdError::Membership(MembershipError::UnknownNode { id: 99, slots: 20 })
        );
        // Nothing was applied by any rejected call.
        assert_eq!(session.measurements_used(), 0);
        assert_eq!(session.nodes(), small_session(20, 5, 12).nodes());
    }

    #[test]
    fn join_and_leave_maintain_invariants() {
        let mut session = small_session(20, 5, 6);
        session.leave(7).expect("first leave");
        assert!(!session.is_alive(7));
        assert_eq!(session.num_alive(), 19);
        // No alive row may reference the departed node.
        for &i in session.alive() {
            assert!(
                !session.neighbors().contains(i, 7),
                "row {i} still references the departed node"
            );
            let row = session.neighbors().neighbors(i);
            assert_eq!(row.len(), 5);
            let mut sorted = row.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "row {i} lost distinctness");
            assert!(row.iter().all(|&j| session.is_alive(j)));
        }
        // Duplicate leave is a typed error.
        assert_eq!(
            session.leave(7).unwrap_err(),
            DmfsgdError::Membership(MembershipError::Departed { id: 7 })
        );
        assert_eq!(
            session.leave(99).unwrap_err(),
            DmfsgdError::Membership(MembershipError::UnknownNode { id: 99, slots: 20 })
        );
        // Rejoin reuses the departed slot.
        let id = session.join().expect("rejoin");
        assert_eq!(id, 7);
        assert!(session.is_alive(7));
        assert_eq!(session.num_alive(), 20);
        let row = session.neighbors().neighbors(7);
        assert_eq!(row.len(), 5);
        assert!(row.iter().all(|&j| session.is_alive(j) && j != 7));
        // A join with no free slot appends.
        let id = session.join().expect("grow");
        assert_eq!(id, 20);
        assert_eq!(session.len(), 21);
    }

    #[test]
    fn leave_refuses_to_starve_neighbor_sets() {
        let mut session = small_session(7, 5, 7);
        // 7 alive, k=5: leaving one gives 6 = k+1 (legal); leaving
        // another would give 5 < k+1.
        session.leave(0).expect("down to k+1");
        assert_eq!(
            session.leave(1).unwrap_err(),
            DmfsgdError::Membership(MembershipError::TooFewAlive { alive: 5, k: 5 })
        );
    }

    #[test]
    fn training_continues_across_churn() {
        let d = meridian_like(50, 8);
        let cm = d.classify(d.median());
        let mut provider = ClassLabelProvider::new(cm.clone());
        let mut session = small_session(50, 10, 8);
        session.run(50 * 60, &mut provider).expect("warmup");
        for id in [3, 17, 29] {
            session.leave(id).expect("leave");
        }
        session.run(47 * 40, &mut provider).expect("run while down");
        for _ in 0..3 {
            session.join().expect("rejoin");
        }
        assert_eq!(session.num_alive(), 50);
        session.run(50 * 120, &mut provider).expect("recover");
        let acc = sign_accuracy(&session, &cm);
        assert!(acc > 0.75, "post-churn accuracy {acc}");
    }

    #[test]
    fn run_trace_skips_departed_pairs_and_counts_applied() {
        use dmf_datasets::dynamic::{harvard_like, HarvardConfig};
        let (trace, gt) = harvard_like(&HarvardConfig::new(30, 20_000), 15);
        let tau = gt.median();
        // Class mode labels at the session's τ: a session without one
        // is refused before anything is applied.
        let mut untuned = small_session(30, 8, 15);
        assert!(matches!(
            untuned.run_trace(&trace).unwrap_err(),
            DmfsgdError::Config(ConfigError::MissingTau)
        ));
        assert_eq!(untuned.measurements_used(), 0);
        let mut session = Session::builder()
            .nodes(30)
            .k(8)
            .seed(15)
            .tau(tau)
            .build()
            .expect("valid config");
        session.leave(4).expect("leave");
        let touching: usize = trace
            .measurements
            .iter()
            .filter(|m| m.from == 4 || m.to == 4)
            .count();
        assert!(touching > 0, "trace must exercise the departed node");
        let applied = session.run_trace(&trace).expect("replay under churn");
        assert_eq!(applied, trace.len() - touching);
        assert_eq!(session.measurements_used(), applied);
        // A trace whose ids exceed the declared population is still a
        // hard error, not a skip.
        let mut bad = trace.clone();
        bad.measurements[0].to = 999;
        assert!(matches!(
            session.run_trace(&bad).unwrap_err(),
            DmfsgdError::Membership(MembershipError::UnknownNode { .. })
        ));
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        use crate::provider::MulticlassLabels;
        let d = meridian_like(40, 9);
        let cm = d.classify(d.median());
        let provider = |loss| -> Box<dyn MeasurementProvider> {
            match loss {
                Loss::Ordinal { classes } => Box::new(MulticlassLabels::quantiles(&d, classes)),
                _ => Box::new(ClassLabelProvider::new(cm.clone())),
            }
        };
        for loss in [Loss::Logistic, Loss::Ordinal { classes: 3 }] {
            let mut p1 = provider(loss);
            let mut session = Session::builder()
                .nodes(40)
                .loss(loss)
                .seed(9)
                .build()
                .unwrap();
            session.run(40 * 80, &mut *p1).expect("warmup");
            session.leave(5).expect("leave");

            let snap = session.snapshot();
            let mut restored = Session::restore(&snap).expect("restore");
            assert_eq!(Snapshot::from_json(&snap.to_json()).as_ref(), Ok(&snap));

            let mut p2 = provider(loss);
            session.run(40 * 40, &mut *p1).expect("original");
            restored.run(40 * 40, &mut *p2).expect("restored");
            assert_eq!(session.predicted_scores(), restored.predicted_scores());
            assert_eq!(session.measurements_used(), restored.measurements_used());
        }
    }

    #[test]
    fn snapshot_json_roundtrip_and_corruption_detection() {
        let mut session = small_session(15, 4, 10);
        session.leave(3).expect("leave");
        let snap = session.snapshot();
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).expect("parse");
        let restored = Session::restore(&back).expect("restore");
        assert_eq!(restored.predicted_scores(), session.predicted_scores());
        assert!(!restored.is_alive(3));

        assert!(matches!(
            Snapshot::from_json("{ not json"),
            Err(SnapshotError::Parse(_))
        ));
        // Structurally valid JSON, semantically corrupt: alive list
        // referencing a slot that does not exist.
        let tampered = json.replace("\"alive\":[", "\"alive\":[4096,");
        let parsed = Snapshot::from_json(&tampered).expect("still parses");
        assert!(matches!(
            Session::restore(&parsed).unwrap_err(),
            DmfsgdError::Snapshot(SnapshotError::Corrupt(_))
        ));
    }
}
