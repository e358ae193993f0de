//! Per-shard single-writer update machinery: the bounded update
//! queue, the result cells its jobs complete, and the always-on
//! batching statistics.
//!
//! Every shard of a [`PredictionService`](crate::PredictionService)
//! owns one `UpdateQueue` (a bounded MPSC FIFO of update jobs). There
//! is no worker thread: the enqueue-then-drain protocol lives in
//! [`service`](crate::service), run by the submitting connections
//! themselves; this module provides the moving parts:
//!
//! * `UpdateQueue` — connections `try_push` jobs (a full queue maps
//!   to the wire's `Overloaded` rejection, never blocking); whoever
//!   holds the shard write lock pops jobs in arrival-order batches.
//!   The queue never blocks a pusher and never drops an accepted job.
//! * `UpdateTicket` — the per-job result cell. The write-lock holder
//!   that applied the job fills it only *after* the update's
//!   publication is visible, so a caller that observed its `update`
//!   complete reads its own write.
//! * `WorkerStats` — relaxed-atomic distributions of batch sizes
//!   and queue depths, cheap enough to stay on in production and
//!   exported through the repo benchmark (`service.*` probes) and
//!   `ServiceMetrics`.

use dmf_core::{DmfsgdError, NodeId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// One queued RTT update: the pair, the measured class, and the
/// cell its submitter collects the result from.
#[derive(Debug)]
pub(crate) struct UpdateJob {
    pub(crate) i: NodeId,
    pub(crate) j: NodeId,
    pub(crate) x: f64,
    pub(crate) ticket: std::sync::Arc<UpdateTicket>,
}

/// The result cell of one queued update: set exactly once per
/// submission with the update's result (the pre-update score, or the
/// apply-time error), after its publication is visible.
///
/// A ticket is reusable: `take` consumes the result and empties the
/// cell, so a connection — whose pipelined updates execute strictly
/// one at a time — allocates one ticket for its whole lifetime. Both
/// sides touch the cell only while holding the shard write lock; the
/// mutex is what lets safe code say so.
#[derive(Debug, Default)]
pub(crate) struct UpdateTicket(Mutex<Option<Result<f64, DmfsgdError>>>);

impl UpdateTicket {
    /// Fills the cell.
    pub(crate) fn set(&self, result: Result<f64, DmfsgdError>) {
        let mut cell = self.0.lock().expect("ticket lock");
        debug_assert!(cell.is_none(), "ticket set twice");
        *cell = Some(result);
    }

    /// Consumes the result, if one is in (emptying the cell for
    /// reuse).
    pub(crate) fn take(&self) -> Option<Result<f64, DmfsgdError>> {
        self.0.lock().expect("ticket lock").take()
    }
}

/// The bounded per-shard update queue (see the [module docs](self)).
///
/// Lock order: the inner queue mutex is a *leaf* — no other lock is
/// ever acquired while holding it. Poppers hold the shard write lock
/// *around* their pop calls (single-writer discipline: only the
/// write-lock holder removes jobs), pushers hold nothing else.
pub(crate) struct UpdateQueue {
    inner: Mutex<VecDeque<UpdateJob>>,
    capacity: usize,
    /// Mirror of the queue length for lock-free depth reads
    /// (metrics/stats; the inner mutex holds the truth).
    depth: AtomicUsize,
}

impl UpdateQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            depth: AtomicUsize::new(0),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (racy mirror; exact under the inner mutex).
    pub(crate) fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Enqueues a job unless the queue is at capacity; returns the
    /// depth after the push, or the job back on a full queue (the
    /// caller maps that to the `Overloaded` rejection).
    pub(crate) fn try_push(&self, job: UpdateJob) -> Result<usize, UpdateJob> {
        let mut q = self.inner.lock().expect("update queue lock");
        if q.len() >= self.capacity {
            return Err(job);
        }
        q.push_back(job);
        let depth = q.len();
        self.depth.store(depth, Ordering::Relaxed);
        Ok(depth)
    }

    /// Moves up to `max` jobs (arrival order) into `out` (cleared
    /// first). Callers must hold the shard write lock.
    pub(crate) fn pop_batch(&self, out: &mut Vec<UpdateJob>, max: usize) {
        out.clear();
        let mut q = self.inner.lock().expect("update queue lock");
        let take = q.len().min(max);
        out.extend(q.drain(..take));
        self.depth.store(q.len(), Ordering::Relaxed);
    }
}

/// Upper bucket bounds (inclusive) for the batch-size and queue-depth
/// distributions in [`WorkerStatsSnapshot`]; one implicit overflow
/// bucket follows.
pub const DIST_BUCKETS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

fn bucket_index(value: u64) -> usize {
    DIST_BUCKETS
        .iter()
        .position(|&b| value <= b)
        .unwrap_or(DIST_BUCKETS.len())
}

/// Always-on, relaxed-atomic batching statistics for one shard (see
/// the [module docs](self)).
#[derive(Default)]
pub(crate) struct WorkerStats {
    batches: AtomicU64,
    updates: AtomicU64,
    max_batch: AtomicU64,
    max_depth: AtomicU64,
    batch_hist: [AtomicU64; DIST_BUCKETS.len() + 1],
    depth_hist: [AtomicU64; DIST_BUCKETS.len() + 1],
}

fn fetch_max(cell: &AtomicU64, value: u64) {
    cell.fetch_max(value, Ordering::Relaxed);
}

impl WorkerStats {
    /// Records one drained batch of `size` jobs.
    pub(crate) fn record_batch(&self, size: usize) {
        let size = size as u64;
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.updates.fetch_add(size, Ordering::Relaxed);
        fetch_max(&self.max_batch, size);
        self.batch_hist[bucket_index(size)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records the queue depth observed right after a push.
    pub(crate) fn record_depth(&self, depth: usize) {
        let depth = depth as u64;
        fetch_max(&self.max_depth, depth);
        self.depth_hist[bucket_index(depth)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> WorkerStatsSnapshot {
        WorkerStatsSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            worker_batches: 0,
            max_batch: self.max_batch.load(Ordering::Relaxed),
            max_depth: self.max_depth.load(Ordering::Relaxed),
            batch_hist: self
                .batch_hist
                .each_ref()
                .map(|c| c.load(Ordering::Relaxed)),
            depth_hist: self
                .depth_hist
                .each_ref()
                .map(|c| c.load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of one shard's `WorkerStats` — the
/// batch-size and queue-depth distributions the repo benchmark
/// reports per serving run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStatsSnapshot {
    /// Batches drained, each by the submitter holding the shard
    /// write lock.
    pub batches: u64,
    /// Updates applied across all batches.
    pub updates: u64,
    /// Always 0: no dedicated worker thread exists. Kept because the
    /// repo benchmark reads the field.
    pub worker_batches: u64,
    /// Largest single batch.
    pub max_batch: u64,
    /// Deepest queue observed at push time.
    pub max_depth: u64,
    /// Batch-size counts per [`DIST_BUCKETS`] bound (+ overflow).
    pub batch_hist: [u64; DIST_BUCKETS.len() + 1],
    /// Push-time queue-depth counts per [`DIST_BUCKETS`] bound
    /// (+ overflow).
    pub depth_hist: [u64; DIST_BUCKETS.len() + 1],
}

impl WorkerStatsSnapshot {
    /// Mean updates per batch (0 when nothing drained).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.updates as f64 / self.batches as f64
        }
    }

    /// Element-wise accumulation (maxes take the max) — aggregates
    /// per-shard snapshots into one service-wide distribution.
    pub fn merge(&mut self, other: &WorkerStatsSnapshot) {
        self.batches += other.batches;
        self.updates += other.updates;
        self.worker_batches += other.worker_batches;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.max_depth = self.max_depth.max(other.max_depth);
        for (a, b) in self.batch_hist.iter_mut().zip(other.batch_hist) {
            *a += b;
        }
        for (a, b) in self.depth_hist.iter_mut().zip(other.depth_hist) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn job(i: usize, ticket: &Arc<UpdateTicket>) -> UpdateJob {
        UpdateJob {
            i,
            j: i + 1,
            x: 1.0,
            ticket: Arc::clone(ticket),
        }
    }

    #[test]
    fn queue_is_fifo_bounded_and_depth_tracked() {
        let q = UpdateQueue::new(3);
        let t = Arc::new(UpdateTicket::default());
        assert_eq!(q.try_push(job(0, &t)).unwrap(), 1);
        assert_eq!(q.try_push(job(1, &t)).unwrap(), 2);
        assert_eq!(q.try_push(job(2, &t)).unwrap(), 3);
        let back = q.try_push(job(3, &t)).unwrap_err();
        assert_eq!(back.i, 3, "full queue hands the job back");
        assert_eq!(q.depth(), 3);
        let mut batch = Vec::new();
        q.pop_batch(&mut batch, 2);
        assert_eq!(batch.iter().map(|j| j.i).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(q.depth(), 1);
        q.pop_batch(&mut batch, 8);
        assert_eq!(batch.len(), 1);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn tickets_park_until_completed_and_reset_on_take() {
        let t = UpdateTicket::default();
        assert!(t.take().is_none(), "empty until set");
        t.set(Ok(0.25));
        assert_eq!(t.take().unwrap().unwrap(), 0.25);
        // Reusable: the cell is empty again.
        assert!(t.take().is_none());
        t.set(Err(DmfsgdError::Transport("boom".into())));
        assert!(t.take().unwrap().is_err());
    }

    #[test]
    fn stats_bucket_batches_and_depths() {
        let s = WorkerStats::default();
        s.record_batch(1);
        s.record_batch(3);
        s.record_batch(200);
        s.record_depth(1);
        s.record_depth(70);
        let snap = s.snapshot();
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.updates, 204);
        assert_eq!(snap.worker_batches, 0);
        assert_eq!(snap.max_batch, 200);
        assert_eq!(snap.max_depth, 70);
        assert_eq!(snap.batch_hist[0], 1, "size 1 → bucket ≤1");
        assert_eq!(snap.batch_hist[2], 1, "size 3 → bucket ≤4");
        assert_eq!(snap.batch_hist[7], 1, "size 200 → overflow");
        assert_eq!(snap.depth_hist[0], 1);
        assert_eq!(snap.depth_hist[7], 1);
        assert!((snap.mean_batch() - 68.0).abs() < 1e-12);
        let mut merged = snap;
        merged.merge(&snap);
        assert_eq!(merged.updates, 408);
        assert_eq!(merged.max_batch, 200);
    }
}
