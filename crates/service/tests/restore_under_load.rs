//! `restore_from_snapshot` against a service under write load.
//!
//! A restore stops the world: it takes every stripe lock in ascending
//! order and then the frame, swaps the stripes and republishes the
//! view. Submitters meanwhile block on those same locks and apply once
//! the restore lets go. This suite runs the two against each other —
//! two writers per stripe (so every stripe has a submitter blocked
//! behind another) and a thread restoring in a loop — and pins what a
//! lost publication or a lock-order inversion would break:
//!
//! * the run finishes (a watchdog fails the test instead of hanging);
//! * every update returns `Ok` — the population is static and nothing
//!   on the write path can reject a valid pair;
//! * once quiet, every published slot equals its stripe's live node,
//!   snapshotted through the public surface: the service's predictions
//!   and rankings are bit-equal to the same queries on the session
//!   restored from the service's snapshot.
//!
//! CI runs this suite both natively and under `DMF_FORCE_SCALAR=1`.

use dmf_core::{DmfsgdConfig, Session, SessionBuilder};
use dmf_service::PredictionService;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::Duration;

const SHARDS: usize = 4;
const NODES: usize = 32;
const WRITERS_PER_SHARD: usize = 2;
/// Each writer runs at least this many updates …
const MIN_UPDATES: usize = 300;
/// … and keeps going until the last of this many restores has landed,
/// so every restore meets live writers and the final state is the
/// checkpoint plus whatever updates raced the last restore.
const RESTORES: usize = 25;
const TOP_K: usize = 8;

fn config(n: usize, seed: u64) -> DmfsgdConfig {
    let s = SessionBuilder::new()
        .nodes(n)
        .seed(seed)
        .build()
        .expect("valid defaults");
    *s.config()
}

/// Runs writers and the restorer to completion and checks the
/// quiescent state; panics (failing the test) on any violation.
fn scenario() {
    let svc = Arc::new(PredictionService::build(config(NODES, 47), NODES, SHARDS).expect("build"));
    let checkpoint = svc.snapshot().expect("service snapshot");
    let start = Arc::new(Barrier::new(SHARDS * WRITERS_PER_SHARD + 1));
    let restores = Arc::new(AtomicUsize::new(0));

    let writers: Vec<_> = (0..SHARDS * WRITERS_PER_SHARD)
        .map(|w| {
            let svc = Arc::clone(&svc);
            let start = Arc::clone(&start);
            let restores = Arc::clone(&restores);
            thread::spawn(move || {
                let own = svc.partition().range(w % SHARDS);
                start.wait();
                let mut step = w;
                while step < MIN_UPDATES || restores.load(Ordering::Relaxed) < RESTORES {
                    let i = own.start + step % own.len();
                    let j = (i + 1 + step % (NODES - 1)) % NODES;
                    let x = if step.is_multiple_of(3) { -1.0 } else { 1.0 };
                    let score = svc
                        .update_rtt_scored(i, j, x)
                        .unwrap_or_else(|e| panic!("writer {w}: update ({i},{j}) failed: {e}"));
                    assert!(score.is_finite(), "writer {w}: score {score}");
                    step += 1;
                }
            })
        })
        .collect();

    start.wait();
    for _ in 0..RESTORES {
        svc.restore_from_snapshot(&checkpoint).expect("restore");
        restores.fetch_add(1, Ordering::Relaxed);
    }
    for w in writers {
        w.join().expect("writer panicked");
    }

    let session = Session::restore(&svc.snapshot().expect("service snapshot")).expect("restores");
    for i in 0..NODES {
        for j in (0..NODES).filter(|&j| j != i) {
            let want = session.predict(i, j).expect("live pair");
            let got = svc.predict(i, j).expect("live pair");
            assert!(
                got == want,
                "predict({i},{j}): published {got}, snapshot {want}"
            );
        }
        assert_eq!(
            svc.rank_neighbors(i, TOP_K).expect("live id"),
            session.rank_neighbors(i, TOP_K).expect("live id")
        );
    }
}

#[test]
fn restores_and_blocked_submitters_neither_deadlock_nor_lose_publications() {
    let (done, finished) = mpsc::channel();
    let run = thread::spawn(move || {
        scenario();
        let _ = done.send(());
    });
    // A failed assertion drops `done` (disconnect); only a hang times
    // out. Either way the join below reports what happened.
    match finished.recv_timeout(Duration::from_secs(120)) {
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("restore under load did not finish in 120 s: deadlock")
        }
        _ => run.join().expect("scenario panicked"),
    }
}
