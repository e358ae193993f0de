//! The lock-striped prediction service: [`PredictionService`].
//!
//! A service serves one DMFSGD population. [`Partition`] splits its
//! node ids into `shards` contiguous ranges, and each range is a *lock
//! stripe*: stripe `s` holds the live [`DmfsgdNode`]s of
//! `partition.range(s)` behind its own mutex. Everything the queries
//! read — coordinates, alive flags, neighbor rows — is published into
//! one lock-free [`EpochView`] of all n slots. Everything else
//! (configuration, τ, neighbor rows, membership, RNG position, the
//! measurement count at build or restore) is the *frame*, a session
//! that only [`snapshot`](PredictionService::snapshot) and
//! [`restore_from_snapshot`](PredictionService::restore_from_snapshot)
//! touch.
//!
//! An RTT update (the paper's Algorithm 1) at node `i` reads only
//! `i`'s own coordinates and the peer's reply `(u_j, v_j)`: the writer
//! reads the reply from the view, steps `i` under `owner(i)`'s stripe
//! lock and republishes `i`'s slot. The service is therefore
//! *bit-identical* to one session fed the same operations in the same
//! order, and its snapshot is that session's snapshot.
//!
//! # Threading model
//!
//! *Reads never take a lock.* `predict` / `predict_class` /
//! `rank_neighbors` are [`EpochView`] calls: each slot read is atomic
//! (never torn), retried only for the nanoseconds a publication of
//! that very slot is in flight.
//!
//! *A write holds exactly one stripe lock from reply-read to publish,
//! and there are no service threads.* After admission against the
//! published membership, the submitter takes `owner(i)`'s (blocking)
//! stripe lock, reads `j`'s reply lock-free from the view, applies the
//! step and publishes `i`'s slot *under the same lock* — so a caller
//! that saw its update return reads its own write, each slot has one
//! writer at a time (the view's writer contract), and updates to one
//! stripe are totally ordered. Nothing is buffered: how many
//! submitters can wait on a stripe lock is bounded by the
//! connections' in-flight windows (each connection executes one
//! request at a time), the only source of `Overloaded` rejections.
//!
//! # Lock order
//!
//! A writer holds one stripe lock. Snapshot and restore take every
//! stripe in ascending order, then the frame.
//!
//! The service population is *static*: membership changes
//! (join/leave) are a session-level concern not exposed through the
//! query surface; only a restore can change the published flags.

use crate::partition::Partition;
use dmf_core::session::check_remote_reply;
use dmf_core::{
    CoordVec, DmfsgdConfig, DmfsgdError, DmfsgdNode, EpochView, MembershipError, NodeId, Session,
    SgdParams, Snapshot,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The live coordinates of one partition range: `nodes[k]` is node
/// `range.start + k`.
struct Stripe {
    nodes: Vec<DmfsgdNode>,
    params: SgdParams,
    /// Updates applied since build or the last restore.
    applied: usize,
}

/// A stripe behind its lock, plus a relaxed count of the updates it
/// ever applied. The count sits outside the lock so
/// [`worker_stats`](PredictionService::worker_stats) answers while a
/// writer holds the stripe. The alignment gives each stripe's lock and
/// count cache lines of their own, so a writer's lock traffic does not
/// invalidate a line another thread is using.
#[repr(align(64))]
struct StripeLock {
    stripe: Mutex<Stripe>,
    updates: AtomicU64,
}

/// A lock-striped, concurrently-queryable prediction service over one
/// DMFSGD population (see the [module docs](self) for the
/// consistency and threading model).
///
/// All methods take `&self`; the service is `Sync` and meant to be
/// shared across connection threads behind an `Arc`.
pub struct PredictionService {
    partition: Partition,
    view: EpochView,
    stripes: Vec<StripeLock>,
    /// The population as of build or the last restore. Its nodes are
    /// stale once updates land (the stripes hold the live ones) and
    /// are replaced by the stripes' nodes in every snapshot.
    frame: Mutex<Session>,
}

impl PredictionService {
    /// Builds a fresh service over an `n`-node population from
    /// `config`, split into `shards` lock stripes (coordinates are
    /// seeded by `config.seed`, so any single-session oracle built
    /// from the same config starts bit-identical).
    pub fn build(config: DmfsgdConfig, n: usize, shards: usize) -> Result<Self, DmfsgdError> {
        let partition = Partition::new(n, shards)?;
        let session = Session::builder().config(config).nodes(n).build()?;
        Ok(Self::from_session(partition, session))
    }

    /// Serves an already-trained population: restores `snapshot` and
    /// splits it into `shards` lock stripes. This is the deploy path —
    /// train one session offline, snapshot it, and stand up a service
    /// in front of it.
    pub fn from_snapshot(snapshot: &Snapshot, shards: usize) -> Result<Self, DmfsgdError> {
        let session = Session::restore(snapshot)?;
        let partition = Partition::new(session.len(), shards)?;
        Ok(Self::from_session(partition, session))
    }

    fn from_session(partition: Partition, session: Session) -> Self {
        let stripes = stripes_of(&partition, &session)
            .into_iter()
            .map(|stripe| StripeLock {
                stripe: Mutex::new(stripe),
                updates: AtomicU64::new(0),
            })
            .collect();
        Self {
            partition,
            view: EpochView::capture(&session),
            stripes,
            frame: Mutex::new(session),
        }
    }

    /// The id partition mapping nodes to lock stripes.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of lock stripes (shards).
    pub fn shards(&self) -> usize {
        self.stripes.len()
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
    /// it (the ROADMAP's "staleness and harness-only code" item removes
    /// both): per-stripe counts of
    /// applied updates in the shape the deleted update queue reported.
    pub fn worker_stats(&self) -> Vec<WorkerStatsSnapshot> {
        self.stripes
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

    /// Predicted measure for the path `i → j` in natural units —
    /// [`Session::predict`] semantics, read lock-free from the view.
    pub fn predict(&self, i: NodeId, j: NodeId) -> Result<f64, DmfsgdError> {
        self.view.predict(i, j)
    }

    /// Predicted class (`+1.0` / `-1.0`) for the path `i → j` —
    /// [`Session::predict_class`] semantics, read lock-free from the
    /// view.
    pub fn predict_class(&self, i: NodeId, j: NodeId) -> Result<f64, DmfsgdError> {
        self.view.predict_class(i, j)
    }

    /// Node `i`'s neighbors ranked by predicted score into a
    /// caller-owned buffer — [`Session::rank_neighbors_into`]
    /// semantics, read lock-free from the view. Each slot read is
    /// atomic; a query concurrent with updates may span publications
    /// across *different* slots, never within one.
    pub fn rank_neighbors_into(
        &self,
        i: NodeId,
        top_k: usize,
        out: &mut Vec<(NodeId, f64)>,
    ) -> Result<(), DmfsgdError> {
        self.view.rank_neighbors_into(i, top_k, out)
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
    /// reads `j`'s published reply coordinates, applies the
    /// Algorithm 1 step to `i` under `owner(i)`'s stripe lock, and
    /// publishes `i`'s slot. Sequentially this is bit-identical to
    /// `Session::apply_measurement(i, j, x, Metric::Rtt)` on a single
    /// session.
    pub fn update_rtt(&self, i: NodeId, j: NodeId, x: f64) -> Result<(), DmfsgdError> {
        self.update_rtt_scored(i, j, x).map(|_| ())
    }

    /// As [`update_rtt`](Self::update_rtt), additionally returning the
    /// *pre-update* raw score `u_i · v_j` — the prediction the service
    /// would have given for the path just measured. Pairing it with
    /// the measured class `x` is how the observability layer feeds its
    /// live quality window: the score is computed under the stripe
    /// lock, so it is exactly the prediction in force when the
    /// measurement's turn came.
    ///
    /// Blocks until the update is applied *and published* (or
    /// rejected): a caller that sees this return observes its own
    /// write.
    pub fn update_rtt_scored(&self, i: NodeId, j: NodeId, x: f64) -> Result<f64, DmfsgdError> {
        // Admission against the published membership, in the session's
        // error order; the x finiteness check is `check_remote_reply`'s.
        // Invalid requests never take a lock.
        self.view.check_pair(i, j)?;
        if !x.is_finite() {
            return Err(DmfsgdError::Import(
                "remote reply carries non-finite values".to_string(),
            ));
        }
        let rank = self.view.rank();
        let mut u_j = CoordVec::zeros(rank);
        let mut v_j = CoordVec::zeros(rank);
        let owner = self.partition.owner(i);
        let lock = &self.stripes[owner];
        let mut guard = lock.stripe.lock().expect("stripe lock");
        // Re-checked under the lock: a restore since admission may have
        // flipped membership.
        if self.view.read_into(j, &mut u_j, &mut v_j) != Some(true) {
            return Err(MembershipError::Departed { id: j }.into());
        }
        self.view.check_alive(i)?;
        check_remote_reply(rank, x, &u_j, &v_j)?;
        let stripe = &mut *guard;
        let node = &mut stripe.nodes[i - self.partition.range(owner).start];
        let score = dmf_core::coords::dot(&node.coords.u, &v_j);
        node.on_rtt_measurement(x, &u_j, &v_j, &stripe.params);
        // Published before the lock is released, so a caller that sees
        // its update return reads its own write.
        self.view.publish_slot(i, &node.coords, true)?;
        stripe.applied += 1;
        lock.updates.fetch_add(1, Ordering::Relaxed);
        Ok(score)
    }

    /// Every stripe lock in ascending order, then the frame — the one
    /// order anything that takes more than one lock uses.
    fn lock_all(&self) -> (Vec<MutexGuard<'_, Stripe>>, MutexGuard<'_, Session>) {
        let stripes = self
            .stripes
            .iter()
            .map(|s| s.stripe.lock().expect("stripe lock"))
            .collect();
        (stripes, self.frame.lock().expect("frame lock"))
    }

    /// The whole service as one [`Snapshot`]: the frame with every
    /// stripe's nodes joined in and every applied update counted.
    /// Restoring it gives a session bit-identical to one session fed
    /// the same updates. Holds every lock while it copies, so updates
    /// wait and reads do not.
    pub fn snapshot(&self) -> Result<Snapshot, DmfsgdError> {
        let (nodes, applied, mut session) = {
            let (stripes, frame) = self.lock_all();
            let nodes: Vec<_> = stripes
                .iter()
                .flat_map(|s| s.nodes.iter().cloned())
                .collect();
            let applied = stripes.iter().map(|s| s.applied).sum();
            (nodes, applied, frame.clone())
        };
        session.import_nodes(nodes, applied)?;
        Ok(session.snapshot())
    }

    /// Restores a *live* service from `snapshot` — the in-place
    /// counterpart of [`from_snapshot`](Self::from_snapshot), for
    /// rolling a running deployment back to a known-good checkpoint
    /// without tearing down its connections.
    ///
    /// The swap is atomic with respect to updates: the restored
    /// session and its stripes are built and validated *before* any
    /// lock is taken, then every stripe lock is taken in ascending
    /// order and the frame after them, the stripes and frame are
    /// swapped and the view is republished wholesale. Updates blocked
    /// on a stripe lock when the restore lands apply *after* it,
    /// reading and writing the restored coordinates.
    ///
    /// The snapshot must describe the same population the service was
    /// built for: size, rank, prediction mode and neighbor rows (the
    /// view's immutable layout). Stand up a fresh service via
    /// [`from_snapshot`](Self::from_snapshot) for structural changes.
    pub fn restore_from_snapshot(&self, snapshot: &Snapshot) -> Result<(), DmfsgdError> {
        if snapshot.len() != self.len() {
            return Err(DmfsgdError::Import(format!(
                "snapshot has {} nodes, the service serves {}",
                snapshot.len(),
                self.len()
            )));
        }
        let fresh = Session::restore(snapshot)?;
        if fresh.config().rank != self.view.rank()
            || fresh.config().mode != self.view.mode()
            || !same_neighbors(&fresh, &self.view)
        {
            return Err(DmfsgdError::Import(
                "snapshot changes the served structure (rank, mode or neighbor rows); \
                 build a fresh service with from_snapshot instead"
                    .to_string(),
            ));
        }
        let restored = stripes_of(&self.partition, &fresh);
        let (mut stripes, mut frame) = self.lock_all();
        for (guard, stripe) in stripes.iter_mut().zip(restored) {
            **guard = stripe;
        }
        self.view
            .publish_all(&fresh)
            .expect("structure validated above");
        *frame = fresh;
        Ok(())
    }

    /// Total measurements the population has seen: the count at build
    /// or restore plus every update applied since.
    pub fn measurements_used(&self) -> usize {
        let (stripes, frame) = self.lock_all();
        frame.measurements_used() + stripes.iter().map(|s| s.applied).sum::<usize>()
    }
}

/// `session`'s nodes split by `partition` into fresh stripes.
fn stripes_of(partition: &Partition, session: &Session) -> Vec<Stripe> {
    (0..partition.shards())
        .map(|s| Stripe {
            nodes: session.nodes()[partition.range(s)].to_vec(),
            params: session.config().sgd,
            applied: 0,
        })
        .collect()
}

/// Harness-only: the per-stripe counters
/// [`PredictionService::worker_stats`] reports, in the shape
/// `benchmark/src/serve.rs` reads. An update is applied by its own
/// submitter under the stripe lock, so `batches == updates` and the
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
    /// aggregates per-stripe snapshots into one service-wide figure.
    pub fn merge(&mut self, other: &WorkerStatsSnapshot) {
        self.batches += other.batches;
        self.updates += other.updates;
        self.worker_batches += other.worker_batches;
        self.max_depth = self.max_depth.max(other.max_depth);
    }
}

/// True when the restored session's neighbor rows equal the view's
/// (the rank queries' immutable layout).
fn same_neighbors(session: &Session, view: &EpochView) -> bool {
    let (a, b) = (session.neighbors(), view.neighbors());
    session.len() == view.len() && (0..session.len()).all(|i| a.neighbors(i) == b.neighbors(i))
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
    fn stripes_start_identical_to_the_oracle() {
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
        // The snapshot is the oracle's, byte for byte.
        assert_eq!(
            svc.snapshot().unwrap().to_json(),
            oracle.snapshot().to_json()
        );
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
        let json = svc.snapshot().unwrap().to_json();
        let restored = Session::restore(&Snapshot::from_json(&json).unwrap()).unwrap();
        assert_eq!(restored.len(), 12);
        assert_eq!(restored.measurements_used(), 1);
        assert_eq!(restored.predict(0, 1).unwrap(), svc.predict(0, 1).unwrap());
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
        let checkpoint = svc.snapshot().unwrap();
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

    /// What replaced the update queue: with stripe 0's lock pinned,
    /// 8 submitters block on it — nothing is buffered and nothing is
    /// rejected — while reads of the same stripe keep answering;
    /// released, every submitter lands.
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
            let guard = svc.stripes[0].stripe.lock().unwrap();
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
            // applied; reads of stripe 0's nodes answer regardless
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
