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
//! which applies them through [`Session::apply_rtt_remote`].
//!
//! # Threading model
//!
//! *Reads never take a lock.* `predict` / `predict_class` /
//! `rank_neighbors` run entirely against the per-shard [`EpochView`]
//! seqlocks: each slot read is atomic (never torn), retried only for
//! the nanoseconds a publication of that very slot is in flight.
//!
//! *A write holds exactly one shard lock from reply-read to publish,
//! and there are no service threads.* After admission against the
//! published membership, the submitter takes `owner(i)`'s (blocking)
//! write lock, reads `j`'s reply lock-free from `owner(j)`'s store,
//! applies the step and publishes `i`'s slot *under the same lock* —
//! so a caller that saw its update return reads its own write, and
//! updates to one shard are totally ordered. Nothing is buffered: how
//! many submitters can wait on a shard lock is bounded by the
//! connections' in-flight windows (each connection executes one
//! request at a time), the only source of `Overloaded` rejections.
//!
//! # Lock order
//!
//! A submitter holds at most one shard's write lock; cross-shard
//! acquisition (restore only) is ascending by shard index.
//!
//! The service population is *static*: membership changes
//! (join/leave) are a session-level concern not exposed through the
//! query surface, which keeps every replica's membership flags
//! trivially consistent.

use crate::partition::Partition;
use dmf_core::{
    CoordVec, DmfsgdConfig, DmfsgdError, EpochView, MembershipError, NodeId, PredictionMode,
    Session, Snapshot,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One shard: the authoritative session behind its single-writer
/// lock and the lock-free read store published from it.
struct Shard {
    write: Mutex<Session>,
    store: EpochView,
    /// Updates applied here — a relaxed statistic, read only by the
    /// [`worker_stats`](PredictionService::worker_stats) shim.
    updates: AtomicU64,
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
}

impl PredictionService {
    /// Builds a fresh service: `shards` identical session replicas of
    /// an `n`-node population from `config` (coordinates are seeded by
    /// `config.seed`, so every replica — and any single-session oracle
    /// built from the same config — starts bit-identical).
    pub fn build(config: DmfsgdConfig, n: usize, shards: usize) -> Result<Self, DmfsgdError> {
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
        Ok(Self::from_sessions(partition, sessions))
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
        Ok(Self::from_sessions(partition, sessions))
    }

    fn from_sessions(partition: Partition, sessions: Vec<Session>) -> Self {
        let shards = sessions
            .into_iter()
            .map(|session| Shard {
                store: EpochView::capture(&session),
                write: Mutex::new(session),
                updates: AtomicU64::new(0),
            })
            .collect();
        Self { partition, shards }
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

    /// Harness-only shim, kept because `benchmark/src/serve.rs` reads
    /// it (ROADMAP item 4(d) removes both): per-shard counts of
    /// applied updates in the shape the deleted update queue reported.
    pub fn worker_stats(&self) -> Vec<WorkerStatsSnapshot> {
        self.shards
            .iter()
            .map(|s| {
                let updates = s.updates.load(Ordering::Relaxed);
                WorkerStatsSnapshot {
                    batches: updates,
                    updates,
                    ..WorkerStatsSnapshot::default()
                }
            })
            .collect()
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
    /// the Algorithm 1 step at `owner(i)` under that shard's write
    /// lock, and publishes `i`'s slot. Sequentially this is
    /// bit-identical to
    /// `Session::apply_measurement(i, j, x, Metric::Rtt)` on a single
    /// session.
    pub fn update_rtt(&self, i: NodeId, j: NodeId, x: f64) -> Result<(), DmfsgdError> {
        self.update_rtt_scored(i, j, x).map(|_| ())
    }

    /// As [`update_rtt`](Self::update_rtt), additionally returning the
    /// *pre-update* raw score `u_i · v_j` — the prediction the service
    /// would have given for the path just measured. Pairing it with
    /// the measured class `x` is how the observability layer feeds its
    /// live quality window: the score is computed under the shard's
    /// write lock, so it is exactly the prediction in force when the
    /// measurement's turn came.
    ///
    /// Blocks until the update is applied *and published* (or
    /// rejected): a caller that sees this return observes its own
    /// write.
    pub fn update_rtt_scored(&self, i: NodeId, j: NodeId, x: f64) -> Result<f64, DmfsgdError> {
        // Admission against the published membership, in the session's
        // error order (flags are replicated, so owner(j)'s store can
        // run the full pair check); the x finiteness check mirrors
        // `apply_rtt_remote`'s. Invalid requests never take the lock.
        let owner_j = &self.shards[self.partition.owner(j)].store;
        owner_j.check_pair(i, j)?;
        if !x.is_finite() {
            return Err(DmfsgdError::Import(
                "remote reply carries non-finite values".to_string(),
            ));
        }
        let shard = &self.shards[self.partition.owner(i)];
        let rank = shard.store.rank();
        let mut u_j = CoordVec::zeros(rank);
        let mut v_j = CoordVec::zeros(rank);
        let mut session = shard.write.lock().expect("shard write lock");
        // Re-checked under the lock: a restore since admission may have
        // flipped membership (`apply_rtt_remote` re-checks `i`).
        if owner_j.read_into(j, &mut u_j, &mut v_j) != Some(true) {
            return Err(MembershipError::Departed { id: j }.into());
        }
        let score = dmf_core::coords::dot(&session.nodes()[i].coords.u, &v_j);
        session.apply_rtt_remote(i, x, &u_j, &v_j)?;
        // Published before the lock is released, so a caller that sees
        // its update return reads its own write.
        shard.store.publish_from(&session, i)?;
        shard.store.bump_epoch();
        shard.updates.fetch_add(1, Ordering::Relaxed);
        Ok(score)
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
    /// republished wholesale under them. Updates blocked on a shard
    /// lock when the restore lands apply *after* it, reading and
    /// writing the restored coordinates.
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

/// Harness-only: the per-shard counters
/// [`PredictionService::worker_stats`] reports, in the shape
/// `benchmark/src/serve.rs` reads. An update is applied by its own
/// submitter under the shard lock, so `batches == updates` and the
/// queue-era fields are constant 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStatsSnapshot {
    /// Write-lock acquisitions that applied an update (`== updates`).
    pub batches: u64,
    /// Updates applied.
    pub updates: u64,
    /// Always 0: no worker thread exists.
    pub worker_batches: u64,
    /// Always 0: no update queue exists.
    pub max_depth: u64,
}

impl WorkerStatsSnapshot {
    /// Accumulates `other` (sums; `max_depth` takes the max) —
    /// aggregates per-shard snapshots into one service-wide figure.
    pub fn merge(&mut self, other: &WorkerStatsSnapshot) {
        self.batches += other.batches;
        self.updates += other.updates;
        self.worker_batches += other.worker_batches;
        self.max_depth = self.max_depth.max(other.max_depth);
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
        // The harness shim counts each update at its owner, and merges.
        let stats = svc.worker_stats();
        for (s, stat) in stats.iter().enumerate() {
            let owned = (0..400usize)
                .filter(|step| svc.partition().owner((step * 7) % 24) == s)
                .count() as u64;
            assert_eq!((stat.updates, stat.batches), (owned, owned), "shard {s}");
        }
        let mut total = WorkerStatsSnapshot::default();
        stats.iter().for_each(|s| total.merge(s));
        let expected = WorkerStatsSnapshot {
            batches: 400,
            updates: 400,
            worker_batches: 0,
            max_depth: 0,
        };
        assert_eq!(total, expected);
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

    /// What replaced the update queue: with shard 0's write lock
    /// pinned, 8 submitters block on it — nothing is buffered and
    /// nothing is rejected — while reads of the same shard keep
    /// answering; released, every submitter lands.
    #[test]
    fn blocked_writers_all_land_and_reads_never_wait() {
        const WRITERS: usize = 8;
        let cfg = config(24, 14);
        let svc = PredictionService::build(cfg, 24, 2).unwrap();
        let own = svc.partition().range(0);
        assert!(own.len() > WRITERS);
        let first = own.start;
        let arrived = std::sync::Barrier::new(WRITERS + 1);
        std::thread::scope(|scope| {
            let guard = svc.shards[0].write.lock().unwrap();
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (svc, arrived) = (&svc, &arrived);
                    scope.spawn(move || {
                        arrived.wait();
                        svc.update_rtt_scored(first + w, first + w + 1, 1.0)
                    })
                })
                .collect();
            arrived.wait();
            // The lock is held by this thread, so no writer can have
            // applied; reads of shard 0's nodes answer regardless
            // (they would hang here if they took the lock).
            assert!(svc.predict(first, first + 1).unwrap().is_finite());
            assert_eq!(svc.rank_neighbors(first, 4).unwrap().len(), 4);
            assert_eq!(svc.worker_stats()[0].updates, 0);
            drop(guard);
            for w in writers {
                let score = w.join().unwrap().unwrap();
                assert!(score.is_finite());
            }
        });
        assert_eq!(svc.measurements_used(), WRITERS);
        assert_eq!(svc.worker_stats()[0].updates, WRITERS as u64);
        assert_eq!(svc.worker_stats()[1].updates, 0);
    }
}
