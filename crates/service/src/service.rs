//! The shard pool and query router: [`PredictionService`].
//!
//! A service hosts `shards` replicas of one DMFSGD population, each a
//! full [`Session`] plus a lock-free published [`EpochView`], with
//! authority over the coordinates partitioned by [`Partition`]:
//! shard `s` is the *owner* of the node ids in `partition.range(s)` —
//! updates for node `i` are applied only at `owner(i)`, so each
//! replica's coordinates are authoritative exactly on its own range.
//!
//! Queries route by ownership. A prediction for `(i, j)` reads `u_i`
//! from `owner(i)`'s published view and `v_j` from `owner(j)`'s; a
//! rank query fans out across every shard owning one of `i`'s
//! neighbors and merges with the same tie-break
//! ([`dmf_core::session::rank_scored`]) the single-session queries
//! use. Because an RTT update modifies only node `i`'s coordinates —
//! reading the peer's reply `(u_j, v_j)`, exactly the paper's
//! Algorithm 1 wire shape — the sharded service is *bit-identical* to
//! one big session fed the same operations in the same order: the
//! router ships `j`'s published reply coordinates to `owner(i)`,
//! which applies them through [`Session::apply_rtt_remote_batch`].
//!
//! # Threading model
//!
//! *Reads never take a lock.* `predict` / `predict_class` /
//! `rank_neighbors` run entirely against the per-shard [`EpochView`]
//! seqlocks: each slot read is atomic (never torn), retried only for
//! the nanoseconds a publication of that very slot is in flight.
//!
//! *Writes are single-writer per shard, and there are no service
//! threads.* An update is validated against the published membership,
//! enqueued on the owning shard's bounded FIFO (`UpdateQueue`), and
//! then its submitter takes that shard's (blocking) write lock and
//! drains the queue — its own job and whatever other submitters
//! queued behind the lock — until its own result is in. Batches drain
//! in arrival order through [`Session::apply_rtt_remote_batch`] and
//! are published as one epoch swap *under the same lock*, before any
//! result is handed out — so a caller that saw its update return
//! reads its own write, and per-shard update order (hence
//! byte-determinism) is preserved. Mutual exclusion alone guarantees
//! that no accepted job strands: every submitter either finds its
//! result already filled in by an earlier lock holder or finds its
//! job still queued and applies it itself.
//!
//! A full queue is *backpressure*, not blocking: `try_push` failure
//! surfaces as the wire protocol's `Overloaded` rejection
//! ([`PredictionService::is_overload`]).
//!
//! # Lock order
//!
//! Pinned crate-wide (and exercised by the concurrent stress suites):
//!
//! 1. `write[s]` → `queue-inner[s]`: jobs are popped while holding
//!    the shard write lock (only the write-lock holder may pop).
//!    Pushers take the queue-inner mutex alone, and a submitter holds
//!    at most one shard's write lock — peers' reply coordinates are
//!    read lock-free from their owners' stores.
//! 2. Cross-shard acquisition (restore only) is ascending by shard
//!    index.
//!
//! The service population is *static*: membership changes
//! (join/leave) are a session-level concern not exposed through the
//! query surface, which keeps every replica's membership flags
//! trivially consistent.

use crate::partition::Partition;
use crate::worker::{UpdateJob, UpdateQueue, UpdateTicket, WorkerStats, WorkerStatsSnapshot};
use dmf_core::session::RemoteRtt;
use dmf_core::{
    CoordVec, DmfsgdConfig, DmfsgdError, EpochView, MembershipError, NodeId, PredictionMode,
    Session, Snapshot,
};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};

/// Default bound of each shard's update queue. Deep enough that
/// well-behaved pipelined connections (each with at most one update
/// in execution) never hit it; the bound exists so a stalled shard
/// rejects with `Overloaded` instead of buffering without limit.
pub const DEFAULT_UPDATE_QUEUE: usize = 1024;

/// Most updates drained per write-lock acquisition. Bounds the time
/// the write lock is held per batch (and the latency of the updates
/// queued behind a long burst).
const MAX_BATCH: usize = 64;

/// One shard: the authoritative session behind its single-writer
/// lock, the lock-free read store published from it, and the bounded
/// update queue its submitters drain.
struct Shard {
    write: Mutex<Session>,
    store: EpochView,
    queue: UpdateQueue,
    stats: WorkerStats,
}

/// Reusable per-thread buffers for the drain path, so an update
/// allocates (almost) nothing.
#[derive(Default)]
struct DrainScratch {
    batch: Vec<UpdateJob>,
    /// Fetched replies, `2 * rank` values per job: `[u_j, v_j]`.
    reply: Vec<f64>,
    scores: Vec<f64>,
    results: Vec<Result<f64, DmfsgdError>>,
}

thread_local! {
    static SCRATCH: RefCell<DrainScratch> = RefCell::default();
}

/// A sharded, concurrently-queryable prediction service over one
/// DMFSGD population (see the [module docs](self) for the ownership,
/// consistency and threading model).
///
/// All methods take `&self`; the service is `Sync` and meant to be
/// shared across connection threads behind an `Arc`.
pub struct PredictionService {
    partition: Partition,
    shards: Vec<Shard>,
    /// Set once by the first instrumented connection
    /// ([`attach_metrics`](Self::attach_metrics)); read lock-free on
    /// the update hot path.
    metrics: OnceLock<Arc<crate::metrics::ServiceMetrics>>,
}

impl PredictionService {
    /// Builds a fresh service: `shards` identical session replicas of
    /// an `n`-node population from `config` (coordinates are seeded by
    /// `config.seed`, so every replica — and any single-session oracle
    /// built from the same config — starts bit-identical).
    pub fn build(config: DmfsgdConfig, n: usize, shards: usize) -> Result<Self, DmfsgdError> {
        Self::build_with_queue(config, n, shards, DEFAULT_UPDATE_QUEUE)
    }

    /// As [`build`](Self::build) with an explicit per-shard update
    /// queue bound (`>= 1`), so a test can fill the queue.
    pub(crate) fn build_with_queue(
        config: DmfsgdConfig,
        n: usize,
        shards: usize,
        queue_capacity: usize,
    ) -> Result<Self, DmfsgdError> {
        let partition = Partition::new(n, shards)?;
        let sessions = (0..shards)
            .map(|_| {
                Session::builder()
                    .config(config)
                    .nodes(n)
                    .build()
                    .map_err(DmfsgdError::from)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_sessions(partition, sessions, queue_capacity))
    }

    /// Serves an already-trained population: every shard restores the
    /// same `snapshot`, then owns its partition range from there. This
    /// is the deploy path — train one session offline, snapshot it,
    /// and stand up a sharded service in front of it.
    pub fn from_snapshot(snapshot: &Snapshot, shards: usize) -> Result<Self, DmfsgdError> {
        let reference = Session::restore(snapshot)?;
        let partition = Partition::new(reference.len(), shards)?;
        let mut sessions = Vec::with_capacity(shards);
        for _ in 1..shards {
            sessions.push(Session::restore(snapshot)?);
        }
        sessions.push(reference);
        Ok(Self::from_sessions(
            partition,
            sessions,
            DEFAULT_UPDATE_QUEUE,
        ))
    }

    fn from_sessions(partition: Partition, sessions: Vec<Session>, queue_capacity: usize) -> Self {
        let shards = sessions
            .into_iter()
            .map(|session| Shard {
                store: EpochView::capture(&session),
                write: Mutex::new(session),
                queue: UpdateQueue::new(queue_capacity),
                stats: WorkerStats::default(),
            })
            .collect();
        Self {
            partition,
            shards,
            metrics: OnceLock::new(),
        }
    }

    /// The id partition routing queries to shards.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of node slots served.
    pub fn len(&self) -> usize {
        self.partition.len()
    }

    /// True when the service covers no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.partition.is_empty()
    }

    /// Attaches the observability sink (idempotent; the first call
    /// wins). Once attached, the update path publishes
    /// `dmf_service_shard_queue_depth` and the batch-size histogram
    /// into it. Called by
    /// [`ServerConnection::with_metrics`](crate::ServerConnection::with_metrics).
    pub fn attach_metrics(&self, metrics: &Arc<crate::metrics::ServiceMetrics>) {
        let _ = self.metrics.set(Arc::clone(metrics));
    }

    /// Point-in-time batching statistics per shard: how updates
    /// batched, how deep the queues ran (see [`WorkerStatsSnapshot`]).
    pub fn worker_stats(&self) -> Vec<WorkerStatsSnapshot> {
        self.shards.iter().map(|s| s.stats.snapshot()).collect()
    }

    /// True when `e` is the bounded-update-queue rejection — the
    /// backpressure signal connections map to the wire protocol's
    /// `Overloaded` code.
    pub fn is_overload(e: &DmfsgdError) -> bool {
        matches!(e, DmfsgdError::Overloaded { .. })
    }

    /// Raw predictor output `u_i · v_j` plus the prediction mode, read
    /// lock-free from the owning shards' published stores.
    fn scored(&self, i: NodeId, j: NodeId) -> Result<(f64, PredictionMode), DmfsgdError> {
        let n = self.partition.len();
        let store_i = &self.shards[self.partition.owner(i)].store;
        let store_j = &self.shards[self.partition.owner(j)].store;
        let rank = store_i.rank();
        let mut u_i = CoordVec::zeros(rank);
        let mut v_j = CoordVec::zeros(rank);
        // Membership checks in the session's order (i, then j, then
        // the self-pair), each fused with its slot read.
        match store_i.read_u_into(i, &mut u_i) {
            None => return Err(MembershipError::UnknownNode { id: i, slots: n }.into()),
            Some(false) => return Err(MembershipError::Departed { id: i }.into()),
            Some(true) => {}
        }
        match store_j.read_v_into(j, &mut v_j) {
            None => return Err(MembershipError::UnknownNode { id: j, slots: n }.into()),
            Some(false) => return Err(MembershipError::Departed { id: j }.into()),
            Some(true) => {}
        }
        if i == j {
            return Err(MembershipError::SelfPair { id: i }.into());
        }
        Ok((dmf_core::coords::dot(&u_i, &v_j), store_i.mode()))
    }

    /// Predicted measure for the path `i → j` in natural units —
    /// [`Session::predict`] semantics over the sharded stores.
    pub fn predict(&self, i: NodeId, j: NodeId) -> Result<f64, DmfsgdError> {
        let (raw, mode) = self.scored(i, j)?;
        Ok(match mode {
            PredictionMode::Class => raw,
            PredictionMode::Quantity { value_scale } => raw * value_scale,
        })
    }

    /// Predicted class (`+1.0` / `-1.0`) for the path `i → j` —
    /// [`Session::predict_class`] semantics over the sharded stores.
    pub fn predict_class(&self, i: NodeId, j: NodeId) -> Result<f64, DmfsgdError> {
        Ok(if self.scored(i, j)?.0 >= 0.0 {
            1.0
        } else {
            -1.0
        })
    }

    /// Node `i`'s neighbors ranked by predicted score into a
    /// caller-owned buffer — [`Session::rank_neighbors_into`]
    /// semantics, cross-shard and lock-free. With one shard this is a
    /// direct [`EpochView::rank_neighbors_into`] call; with more, the
    /// router fans out over every owning shard's store and merges
    /// with the shared tie-break, bit-identically to the
    /// single-session query. Each slot read is atomic; a query
    /// concurrent with updates may span publication epochs across
    /// *different* slots, never within one.
    pub fn rank_neighbors_into(
        &self,
        i: NodeId,
        top_k: usize,
        out: &mut Vec<(NodeId, f64)>,
    ) -> Result<(), DmfsgdError> {
        if self.shards.len() == 1 {
            return self.shards[0].store.rank_neighbors_into(i, top_k, out);
        }
        out.clear();
        let store_i = &self.shards[self.partition.owner(i)].store;
        store_i.check_alive(i)?;
        let rank = store_i.rank();
        let mut u_i = CoordVec::zeros(rank);
        let mut v_j = CoordVec::zeros(rank);
        store_i.read_u_into(i, &mut u_i);
        // Neighbor rows are replicated (same seed), so any store
        // serves them; coordinates come from each neighbor's owner.
        for &j in store_i.neighbors().neighbors(i) {
            self.shards[self.partition.owner(j)]
                .store
                .read_v_into(j, &mut v_j);
            out.push((j, dmf_core::coords::dot(&u_i, &v_j)));
        }
        dmf_core::session::rank_scored(out, top_k);
        Ok(())
    }

    /// Allocating convenience form of
    /// [`rank_neighbors_into`](Self::rank_neighbors_into).
    pub fn rank_neighbors(
        &self,
        i: NodeId,
        top_k: usize,
    ) -> Result<Vec<(NodeId, f64)>, DmfsgdError> {
        let mut out = Vec::new();
        self.rank_neighbors_into(i, top_k, &mut out)?;
        Ok(out)
    }

    /// Applies an RTT-class measurement `x` for the pair `(i, j)`:
    /// reads `j`'s published reply coordinates at `owner(j)`, applies
    /// the Algorithm 1 step at `owner(i)` through the shard's
    /// single-writer batch path, and publishes `i`'s slot.
    /// Sequentially this is bit-identical to
    /// `Session::apply_measurement(i, j, x, Metric::Rtt)` on a single
    /// session.
    pub fn update_rtt(&self, i: NodeId, j: NodeId, x: f64) -> Result<(), DmfsgdError> {
        self.update_rtt_scored(i, j, x).map(|_| ())
    }

    /// As [`update_rtt`](Self::update_rtt), additionally returning the
    /// *pre-update* raw score `u_i · v_j` — the prediction the service
    /// would have given for the path just measured. Pairing it with
    /// the measured class `x` is how the observability layer feeds its
    /// live quality window: the score is computed inside the shard's
    /// single-writer drain, so it is exactly the prediction in force
    /// when the measurement's turn came.
    ///
    /// Blocks until the update is applied *and published* (or
    /// rejected): a caller that sees this return observes its own
    /// write. A full shard queue returns the `Overloaded`-mapped
    /// rejection immediately ([`is_overload`](Self::is_overload)).
    pub fn update_rtt_scored(&self, i: NodeId, j: NodeId, x: f64) -> Result<f64, DmfsgdError> {
        let ticket = Arc::new(UpdateTicket::default());
        self.update_rtt_scored_with(i, j, x, &ticket)
    }

    /// [`update_rtt_scored`](Self::update_rtt_scored) with a
    /// caller-owned (reusable) ticket — the connection hot path.
    pub(crate) fn update_rtt_scored_with(
        &self,
        i: NodeId,
        j: NodeId,
        x: f64,
        ticket: &Arc<UpdateTicket>,
    ) -> Result<f64, DmfsgdError> {
        // Admission validation against the published membership, in
        // the session's error order (flags are replicated, so
        // owner(j)'s store can run the full pair check); the x
        // finiteness check mirrors `apply_rtt_remote`'s. Invalid
        // requests never enqueue.
        self.shards[self.partition.owner(j)]
            .store
            .check_pair(i, j)?;
        if !x.is_finite() {
            return Err(DmfsgdError::Import(
                "remote reply carries non-finite values".to_string(),
            ));
        }
        let s = self.partition.owner(i);
        let shard = &self.shards[s];
        let depth = shard
            .queue
            .try_push(UpdateJob {
                i,
                j,
                x,
                ticket: Arc::clone(ticket),
            })
            .map_err(|_| DmfsgdError::Overloaded {
                shard: s,
                capacity: shard.queue.capacity(),
            })?;
        shard.stats.record_depth(depth);
        if let Some(m) = self.metrics.get() {
            m.set_shard_queue_depth(s, depth);
        }
        // Become the shard's writer and drain until our own result is
        // in. Whenever the write lock is free, every accepted job is
        // either still queued or already completed, so an empty pop
        // means an earlier holder did ours. Pop before looking:
        // uncontended, our job is the one just queued.
        let mut session = shard.write.lock().expect("shard write lock");
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            loop {
                shard.queue.pop_batch(&mut scratch.batch, MAX_BATCH);
                if scratch.batch.is_empty() {
                    return ticket
                        .take()
                        .expect("accepted update neither queued nor completed");
                }
                self.apply_batch(s, &mut session, scratch);
                if let Some(result) = ticket.take() {
                    return result;
                }
            }
        })
    }

    /// Applies `scratch.batch` to shard `s` under its held write lock
    /// and completes its jobs: fetches every reply lock-free from the
    /// owners' stores, applies the whole batch through
    /// [`Session::apply_rtt_remote_batch`] (with a per-job fallback
    /// preserving the exact sequential error surface if any job turned
    /// invalid since admission), publishes the updated slots as one
    /// epoch, and only then hands each job its result — so every
    /// completed update reads its own write.
    fn apply_batch(&self, s: usize, session: &mut Session, scratch: &mut DrainScratch) {
        let shard = &self.shards[s];
        let rank = shard.store.rank();
        let DrainScratch {
            batch,
            reply,
            scores,
            results,
        } = scratch;
        reply.clear();
        reply.resize(batch.len() * 2 * rank, 0.0);
        results.clear();
        let mut all_fetched = true;
        for (k, job) in batch.iter().enumerate() {
            let slot = &mut reply[k * 2 * rank..(k + 1) * 2 * rank];
            let (u_j, v_j) = slot.split_at_mut(rank);
            let owner_j = &self.shards[self.partition.owner(job.j)].store;
            if owner_j.read_into(job.j, u_j, v_j) != Some(true) {
                all_fetched = false;
            }
        }
        let batched_ok = all_fetched && {
            let updates: Vec<RemoteRtt<'_>> = batch
                .iter()
                .enumerate()
                .map(|(k, job)| {
                    let slot = &reply[k * 2 * rank..(k + 1) * 2 * rank];
                    let (u_j, v_j) = slot.split_at(rank);
                    RemoteRtt {
                        i: job.i,
                        x: job.x,
                        u_j,
                        v_j,
                    }
                })
                .collect();
            session.apply_rtt_remote_batch(&updates, scores).is_ok()
        };
        if batched_ok {
            results.extend(scores.iter().copied().map(Ok));
        } else {
            // Rare: some job became invalid between admission and apply
            // (a concurrent restore flipped membership, or a published
            // reply carried non-finite values). Re-run the batch job by
            // job so valid updates still land and each invalid one gets
            // the exact error the sequential path would have produced.
            for (k, job) in batch.iter().enumerate() {
                let slot = &mut reply[k * 2 * rank..(k + 1) * 2 * rank];
                let (u_j, v_j) = slot.split_at_mut(rank);
                let owner_j = &self.shards[self.partition.owner(job.j)].store;
                let result = owner_j
                    .check_pair(job.i, job.j)
                    .map_err(DmfsgdError::from)
                    .and_then(|()| {
                        if owner_j.read_into(job.j, u_j, v_j) != Some(true) {
                            return Err(MembershipError::Departed { id: job.j }.into());
                        }
                        let score =
                            dmf_core::coords::dot(&session.nodes()[job.i].coords.u, &v_j[..rank]);
                        session.apply_rtt_remote(job.i, job.x, &u_j[..rank], &v_j[..rank])?;
                        Ok(score)
                    });
                results.push(result);
            }
        }
        for job in batch.iter() {
            shard
                .store
                .publish_from(session, job.i)
                .expect("admission-validated id");
        }
        shard.store.bump_epoch();
        shard.stats.record_batch(batch.len());
        if let Some(m) = self.metrics.get() {
            m.record_worker_batch(batch.len());
            m.set_shard_queue_depth(s, shard.queue.depth());
        }
        for (job, result) in batch.drain(..).zip(results.drain(..)) {
            job.ticket.set(result);
        }
    }

    /// Restores every shard of a *live* service from `snapshot` — the
    /// in-place counterpart of [`from_snapshot`](Self::from_snapshot),
    /// for rolling a running deployment back to a known-good
    /// checkpoint without tearing down its connections.
    ///
    /// The swap is atomic with respect to updates: restored sessions
    /// are built and validated *before* any lock is taken, then all
    /// shard write locks are acquired in ascending order (the
    /// crate-wide rule) and each session is swapped and its store
    /// republished wholesale under them. Updates still queued when
    /// the restore lands apply *after* it, to the restored
    /// coordinates.
    ///
    /// The snapshot must describe the same population the service was
    /// built for: size, rank, prediction mode and neighbor rows (the
    /// published stores' immutable layout). Stand up a fresh service
    /// via [`from_snapshot`](Self::from_snapshot) for structural
    /// changes.
    pub fn restore_from_snapshot(&self, snapshot: &Snapshot) -> Result<(), DmfsgdError> {
        if snapshot.len() != self.len() {
            return Err(DmfsgdError::Import(format!(
                "snapshot has {} nodes, the service serves {}",
                snapshot.len(),
                self.len()
            )));
        }
        // Build (and thereby validate) every replacement session while
        // the service keeps serving; only then stop the world.
        let mut restored = Vec::with_capacity(self.shards.len());
        for _ in 0..self.shards.len() {
            restored.push(Session::restore(snapshot)?);
        }
        let store0 = &self.shards[0].store;
        let fresh = restored.first().expect("at least one shard");
        if fresh.config().rank != store0.rank()
            || fresh.config().mode != store0.mode()
            || !same_neighbors(fresh, store0)
        {
            return Err(DmfsgdError::Import(
                "snapshot changes the served structure (rank, mode or neighbor rows); \
                 build a fresh service with from_snapshot instead"
                    .to_string(),
            ));
        }
        let mut guards: Vec<_> = self
            .shards
            .iter()
            .map(|sh| sh.write.lock().expect("shard write lock"))
            .collect();
        for ((shard, session), fresh) in self.shards.iter().zip(guards.iter_mut()).zip(restored) {
            **session = fresh;
            shard
                .store
                .publish_all(session)
                .expect("structure validated above");
        }
        Ok(())
    }

    /// JSON snapshot of shard `shard`'s session (authoritative for its
    /// own partition range; replica state elsewhere).
    pub fn snapshot_json(&self, shard: usize) -> Result<Vec<u8>, DmfsgdError> {
        let Some(s) = self.shards.get(shard) else {
            return Err(DmfsgdError::Transport(format!(
                "snapshot of shard {shard}, but the service has {} shards",
                self.shards.len()
            )));
        };
        let session = s.write.lock().expect("shard write lock");
        Ok(session.snapshot().to_json().into_bytes())
    }

    /// Total measurements applied across all shards (each update lands
    /// on exactly one shard, so this is the service-wide count).
    pub fn measurements_used(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.write
                    .lock()
                    .expect("shard write lock")
                    .measurements_used()
            })
            .sum()
    }
}

/// True when the restored session's neighbor rows equal the store's
/// (the rank queries' immutable fan-out layout).
fn same_neighbors(session: &Session, store: &EpochView) -> bool {
    let (a, b) = (session.neighbors(), store.neighbors());
    session.len() == store.len() && (0..session.len()).all(|i| a.neighbors(i) == b.neighbors(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_core::SessionBuilder;

    fn config(n: usize, seed: u64) -> DmfsgdConfig {
        // Build through the validated path so defaults stay in sync.
        let s = SessionBuilder::new()
            .nodes(n)
            .seed(seed)
            .build()
            .expect("valid");
        *s.config()
    }

    #[test]
    fn replicas_start_identical_to_the_oracle() {
        let cfg = config(30, 7);
        let oracle = Session::builder().config(cfg).nodes(30).build().unwrap();
        let svc = PredictionService::build(cfg, 30, 3).unwrap();
        for i in 0..30 {
            for j in 0..30 {
                if i == j {
                    continue;
                }
                assert_eq!(
                    svc.predict(i, j).unwrap(),
                    oracle.predict(i, j).unwrap(),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn updates_route_to_the_owner_and_stay_oracle_exact() {
        let cfg = config(24, 8);
        let mut oracle = Session::builder().config(cfg).nodes(24).build().unwrap();
        let svc = PredictionService::build(cfg, 24, 4).unwrap();
        // A deterministic mixed schedule crossing every shard pair.
        let mut x = 1.0;
        for step in 0..400usize {
            let i = (step * 7) % 24;
            let j = (i + 1 + (step * 5) % 23) % 24;
            svc.update_rtt(i, j, x).unwrap();
            oracle
                .apply_measurement(i, j, x, dmf_datasets::Metric::Rtt)
                .unwrap();
            x = -x;
        }
        assert_eq!(svc.measurements_used(), 400);
        for i in 0..24 {
            for j in 0..24 {
                if i == j {
                    continue;
                }
                let a = svc.predict(i, j).unwrap();
                let b = oracle.predict(i, j).unwrap();
                assert!(a == b, "({i},{j}): {a} != {b}");
            }
            assert_eq!(
                svc.rank_neighbors(i, 8).unwrap(),
                oracle.rank_neighbors(i, 8).unwrap()
            );
        }
        // Every update drained through the batch machinery.
        let stats = svc.worker_stats();
        assert_eq!(stats.iter().map(|s| s.updates).sum::<u64>(), 400);
        assert!(stats.iter().map(|s| s.batches).sum::<u64>() > 0);
    }

    #[test]
    fn membership_errors_match_the_session_surface() {
        let cfg = config(12, 9);
        let svc = PredictionService::build(cfg, 12, 2).unwrap();
        let oracle = Session::builder().config(cfg).nodes(12).build().unwrap();
        assert_eq!(
            svc.predict(3, 3).unwrap_err(),
            oracle.predict(3, 3).unwrap_err()
        );
        assert_eq!(
            svc.predict(0, 99).unwrap_err(),
            oracle.predict(0, 99).unwrap_err()
        );
        assert_eq!(
            svc.update_rtt(99, 0, 1.0).unwrap_err(),
            oracle.rank_neighbors(99, 1).unwrap_err()
        );
        // Admission also rejects non-finite measurements with the
        // session's exact error.
        assert_eq!(
            svc.update_rtt(0, 1, f64::NAN).unwrap_err(),
            oracle
                .clone()
                .apply_rtt_remote(
                    0,
                    f64::NAN,
                    &vec![0.0; oracle.config().rank],
                    &vec![0.0; oracle.config().rank]
                )
                .unwrap_err()
        );
    }

    #[test]
    fn snapshot_round_trips_through_the_wireable_json() {
        let cfg = config(12, 10);
        let svc = PredictionService::build(cfg, 12, 2).unwrap();
        svc.update_rtt(0, 1, 1.0).unwrap();
        let json = svc.snapshot_json(0).unwrap();
        let snap = Snapshot::from_json(std::str::from_utf8(&json).unwrap()).unwrap();
        let restored = Session::restore(&snap).unwrap();
        assert_eq!(restored.len(), 12);
        assert!(matches!(
            svc.snapshot_json(5).unwrap_err(),
            DmfsgdError::Transport(_)
        ));
    }

    #[test]
    fn scored_updates_return_the_pre_update_prediction() {
        let cfg = config(16, 12);
        let svc = PredictionService::build(cfg, 16, 4).unwrap();
        let before = svc.predict(2, 9).unwrap();
        let mode_scale = 1.0; // class mode: predict() is the raw score
        let score = svc.update_rtt_scored(2, 9, -1.0).unwrap();
        assert_eq!(score * mode_scale, before);
        // And the update really landed: plain and scored paths are the
        // same code path.
        let svc2 = PredictionService::build(cfg, 16, 4).unwrap();
        svc2.update_rtt(2, 9, -1.0).unwrap();
        assert_eq!(svc.predict(2, 9).unwrap(), svc2.predict(2, 9).unwrap());
    }

    #[test]
    fn restore_from_snapshot_rolls_a_live_service_back() {
        let cfg = config(18, 13);
        let svc = PredictionService::build(cfg, 18, 3).unwrap();
        // Checkpoint the fresh state, then train past it.
        let checkpoint_json = svc.snapshot_json(0).unwrap();
        let checkpoint =
            Snapshot::from_json(std::str::from_utf8(&checkpoint_json).unwrap()).unwrap();
        let fresh: Vec<f64> = (0..18)
            .map(|j| {
                if j == 5 {
                    0.0
                } else {
                    svc.predict(5, j).unwrap()
                }
            })
            .collect();
        for step in 0..120usize {
            let i = step % 18;
            let j = (i + 1 + step % 17) % 18;
            svc.update_rtt(i, j, if step % 2 == 0 { 1.0 } else { -1.0 })
                .unwrap();
        }
        let trained: Vec<f64> = (0..18)
            .map(|j| {
                if j == 5 {
                    0.0
                } else {
                    svc.predict(5, j).unwrap()
                }
            })
            .collect();
        assert_ne!(fresh, trained, "training moved the coordinates");
        svc.restore_from_snapshot(&checkpoint).unwrap();
        let restored: Vec<f64> = (0..18)
            .map(|j| {
                if j == 5 {
                    0.0
                } else {
                    svc.predict(5, j).unwrap()
                }
            })
            .collect();
        assert_eq!(restored, fresh, "restore is bit-exact");
        // The service keeps serving and training after the rollback.
        svc.update_rtt(0, 1, 1.0).unwrap();

        // Population-size mismatch is rejected before any mutation.
        let other = Session::builder().nodes(12).seed(1).build().unwrap();
        assert!(matches!(
            svc.restore_from_snapshot(&other.snapshot()).unwrap_err(),
            DmfsgdError::Import(_)
        ));
        // So is a same-size snapshot with a different structure
        // (different seed ⇒ different neighbor rows).
        let reseeded = Session::builder().nodes(18).seed(99).build().unwrap();
        assert!(matches!(
            svc.restore_from_snapshot(&reseeded.snapshot()).unwrap_err(),
            DmfsgdError::Import(_)
        ));
    }

    #[test]
    fn from_snapshot_serves_a_pretrained_population() {
        let cfg = config(16, 11);
        let mut trained = Session::builder().config(cfg).nodes(16).build().unwrap();
        for step in 0..200usize {
            let i = step % 16;
            let j = (i + 1 + step % 15) % 16;
            trained
                .apply_measurement(
                    i,
                    j,
                    if step % 3 == 0 { -1.0 } else { 1.0 },
                    dmf_datasets::Metric::Rtt,
                )
                .unwrap();
        }
        let svc = PredictionService::from_snapshot(&trained.snapshot(), 4).unwrap();
        for i in 0..16 {
            for j in 0..16 {
                if i == j {
                    continue;
                }
                assert_eq!(svc.predict(i, j).unwrap(), trained.predict(i, j).unwrap());
            }
        }
    }

    /// The backpressure path end to end: with the shard write lock
    /// pinned (so no submitter can drain), a capacity-1 queue accepts
    /// exactly one update and rejects the next with the
    /// `Overloaded`-mapped error; releasing the lock lets the blocked
    /// submitter drain its own job.
    #[test]
    fn full_queue_rejects_as_overload_and_the_worker_drains_the_backlog() {
        let cfg = config(12, 14);
        let svc = Arc::new(PredictionService::build_with_queue(cfg, 12, 1, 1).unwrap());
        let guard = svc.shards[0].write.lock().unwrap();
        let blocked = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.update_rtt_scored(0, 1, 1.0))
        };
        // Wait until the blocked submitter's job is queued.
        while svc.shards[0].queue.depth() < 1 {
            std::thread::yield_now();
        }
        let err = svc.update_rtt(2, 3, 1.0).unwrap_err();
        assert!(PredictionService::is_overload(&err), "{err}");
        assert_eq!(
            err,
            DmfsgdError::Overloaded {
                shard: 0,
                capacity: 1
            }
        );
        // The variant is the contract, not the wording.
        assert!(!PredictionService::is_overload(&DmfsgdError::Transport(
            err.to_string()
        )));
        drop(guard);
        let score = blocked.join().unwrap().unwrap();
        assert!(score.is_finite());
        assert_eq!(svc.measurements_used(), 1);
        let stats = svc.worker_stats();
        assert_eq!(stats[0].updates, 1);
        assert_eq!(stats[0].worker_batches, 0, "no worker thread exists");
        assert_eq!(stats[0].max_depth, 1);
    }
}
