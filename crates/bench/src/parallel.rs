//! Deterministic parallel sweep driver.
//!
//! The figure sweeps (η×λ grids, robustness levels, per-dataset
//! accuracy runs) are embarrassingly parallel: every cell trains its
//! own system from its own seed and shares nothing but read-only
//! inputs. [`parallel_map`] fans such cells across OS threads with
//! **order-stable, bit-identical** results: the output vector is
//! indexed by input position, so the result is byte-for-byte the same
//! as a serial `map` — only the wall clock changes. A property test
//! pins that equivalence.
//!
//! Built on `std::thread::scope` (no runtime dependency); the worker
//! count comes from `DMF_BENCH_THREADS` or the machine's available
//! parallelism, and one worker short-circuits to a plain serial loop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count for sweep fan-out: `DMF_BENCH_THREADS` if set (≥ 1),
/// else [`std::thread::available_parallelism`].
fn sweep_threads() -> usize {
    if let Ok(v) = std::env::var("DMF_BENCH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` using up to `threads` workers, returning
/// results in input order.
///
/// Work is claimed cell-by-cell from a shared counter, so stragglers
/// (e.g. the Meridian cells of a mixed grid) don't serialize behind a
/// static partition. With `threads <= 1` this is exactly
/// `items.into_iter().map(f).collect()`.
pub fn parallel_map_with<I, T, F>(threads: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let workers = threads.min(n);
    let items: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let item = items[idx]
                    .lock()
                    .expect("item mutex poisoned")
                    .take()
                    .expect("cell claimed twice");
                let out = f(item);
                *results[idx].lock().expect("result mutex poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .enumerate()
        .map(|(idx, m)| {
            m.into_inner()
                .expect("result mutex poisoned")
                .unwrap_or_else(|| panic!("cell {idx} produced no result"))
        })
        .collect()
}

/// [`parallel_map_with`] at the default width: `DMF_BENCH_THREADS` if
/// set, else the machine's available parallelism.
pub fn parallel_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    parallel_map_with(sweep_threads(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = parallel_map_with(4, (0..100).collect(), |x: i32| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let work = |x: u64| {
            // Deterministic mixing, a stand-in for training a cell.
            let mut h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for _ in 0..1000 {
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            }
            h
        };
        let serial = parallel_map_with(1, (0..64).collect(), work);
        for threads in [2, 3, 8] {
            let parallel = parallel_map_with(threads, (0..64).collect(), work);
            assert_eq!(parallel, serial, "{threads} threads diverged");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u8> = parallel_map_with(8, Vec::<u8>::new(), |x| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map_with(8, vec![7], |x: i32| x + 1), vec![8]);
    }

    #[test]
    fn threads_env_override() {
        std::env::set_var("DMF_BENCH_THREADS", "3");
        assert_eq!(sweep_threads(), 3);
        std::env::set_var("DMF_BENCH_THREADS", "0");
        assert_eq!(sweep_threads(), 1);
        std::env::remove_var("DMF_BENCH_THREADS");
        assert!(sweep_threads() >= 1);
    }
}
