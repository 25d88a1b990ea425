//! Data-parallel kernels on the persistent worker pool.
//!
//! Following the workspace's hpc-parallel guidance: a generic parallel
//! map (and fold) over index ranges, used by the truth-matrix
//! enumerators in `ccmx-comm` and the CRT determinant in
//! [`crate::modular`]. Work is handed out via an atomic cursor so threads
//! self-balance on irregular per-row costs (bigint entry sizes vary).
//!
//! Since the kernel-engine rework the executors come from
//! [`crate::pool`] — a lazily grown, process-wide pool of parked worker
//! threads — instead of a fresh thread scope per call, so a tight
//! loop of small `par_map` batches (the CRT enumeration pattern) costs
//! zero thread spawns after warm-up. Calls made *from inside* a pool
//! task run serially inline: nested parallelism (CRT inside an
//! enumeration row) must not oversubscribe the machine.

use crate::pool;

/// Parse a `CCMX_THREADS`-style override: positive integer, capped to
/// the pool's practical maximum. `None` on unset, empty or garbage.
fn threads_override(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .map(|n| n.min(64))
}

/// Number of worker threads to use by default: the `CCMX_THREADS`
/// environment variable when set (for reproducible benches and CI),
/// otherwise the available parallelism capped to 8 (the kernels here
/// saturate memory bandwidth quickly).
pub fn default_threads() -> usize {
    if let Some(n) = threads_override(std::env::var("CCMX_THREADS").ok().as_deref()) {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Parallel map over `0..n`: applies `f` to every index on the shared
/// worker pool and returns the results in index order.
///
/// Scheduling is work-stealing via a shared atomic cursor: each executor
/// claims the next unclaimed index, so wildly uneven per-index costs
/// (CRT residue batches, variable bigint row weights) never idle a
/// thread behind a static chunk boundary. Results are written lock-free:
/// the cursor hands each index to exactly one executor, so each slot has
/// a unique writer, and the batch completion protocol orders all writes
/// before this thread reads them back.
///
/// `f` must be `Sync` (shared across workers by reference).
pub fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if threads <= 1 || n == 1 || pool::in_worker() {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();

    struct SlotWriter<T>(*mut Option<T>);
    // SAFETY: workers write disjoint slots (unique index from the cursor).
    unsafe impl<T: Send> Sync for SlotWriter<T> {}
    let writer = SlotWriter(slots.as_mut_ptr());
    let writer_ref = &writer;

    pool::run(n, threads, &|i| {
        let v = f(i);
        // SAFETY: `i < n` is in bounds and no other executor ever
        // receives the same `i`; batch completion publishes the write.
        unsafe { *writer_ref.0.add(i) = Some(v) };
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("all slots filled"))
        .collect()
}

/// Two-dimensional parallel map over the grid `0..n0 × 0..n1`, results
/// flattened row-major (`i0 * n1 + i1`). The whole grid shares one
/// atomic cursor, so *both* dimensions balance together: a worker
/// finishing its share of one `i0` immediately steals cells of another,
/// which is what lets the CRT reduction split work by prime × entry
/// chunk instead of per prime only.
pub fn par_map2<T, F>(n0: usize, n1: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    if n1 == 0 {
        return Vec::new();
    }
    par_map(n0 * n1, threads, |i| f(i / n1, i % n1))
}

/// Parallel fold: maps `f` over `0..n` and combines results with `merge`
/// starting from `init` (combination order is unspecified; `merge` must be
/// associative and commutative).
///
/// Implemented as a chunked [`par_map`]: each executor folds a
/// contiguous index range locally, and the per-chunk partials are merged
/// on the calling thread — one allocation of `O(threads)` partials, no
/// shared accumulator lock in the hot loop.
pub fn par_fold<T, F, M>(n: usize, threads: usize, init: T, f: F, merge: M) -> T
where
    T: Send + Clone,
    F: Fn(usize) -> T + Sync,
    M: Fn(T, T) -> T + Sync + Send + Copy,
{
    if threads <= 1 || n <= 1 || pool::in_worker() {
        return (0..n).map(f).fold(init, merge);
    }
    // More chunks than executors so the atomic cursor can still balance
    // moderately skewed per-index costs.
    let chunks = (threads * 4).min(n);
    let partials = par_map(chunks, threads, |c| {
        let lo = c * n / chunks;
        let hi = (c + 1) * n / chunks;
        (lo..hi).map(&f).fold(None, |acc: Option<T>, v| {
            Some(match acc {
                None => v,
                Some(a) => merge(a, v),
            })
        })
    });
    partials.into_iter().flatten().fold(init, merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(100, 4, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert!(par_map(0, 4, |i| i).is_empty());
        assert_eq!(par_map(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_map_balances_skewed_work() {
        // One pathological index costs ~1000× the rest. Work-stealing
        // must still return correct, ordered results (a static chunker
        // would too, but slower — correctness under skew is what a unit
        // test can pin; the timing shows up in the benches).
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let light_started = AtomicUsize::new(0);
        let overlapped = AtomicBool::new(false);
        let spin = |iters: u64| {
            let mut acc = 0u64;
            for i in 0..iters {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        let out = par_map(64, 4, |i| {
            if i == 0 {
                // The heavy item stays busy until a light item has been
                // picked up by another worker (bounded wait, so a broken
                // scheduler fails the assert instead of hanging).
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while light_started.load(Ordering::SeqCst) == 0
                    && std::time::Instant::now() < deadline
                {
                    std::hint::spin_loop();
                }
                if light_started.load(Ordering::SeqCst) > 0 {
                    overlapped.store(true, Ordering::SeqCst);
                }
            } else {
                light_started.fetch_add(1, Ordering::SeqCst);
            }
            (i, spin(2_000))
        });
        for (i, (idx, val)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*val, spin(2_000));
        }
        // The light indices must have run while index 0 was still busy.
        assert!(
            overlapped.load(Ordering::SeqCst),
            "workers never overlapped"
        );
    }

    #[test]
    fn par_map_runs_serially_inside_pool_tasks() {
        // A nested par_map must not re-enter the pool (oversubscription /
        // deadlock risk); the inner call degrades to a serial loop on the
        // executing thread.
        let nested = par_map(4, 4, |i| par_map(3, 4, move |j| i * 10 + j));
        for (i, inner) in nested.iter().enumerate() {
            assert_eq!(*inner, vec![i * 10, i * 10 + 1, i * 10 + 2]);
        }
    }

    #[test]
    fn par_map2_flattens_row_major() {
        let out = par_map2(5, 7, 4, |i, j| (i, j));
        assert_eq!(out.len(), 35);
        for (idx, &(i, j)) in out.iter().enumerate() {
            assert_eq!((i, j), (idx / 7, idx % 7));
        }
        assert!(par_map2(0, 7, 4, |i, j| i + j).is_empty());
        assert!(par_map2(7, 0, 4, |i, j| i + j).is_empty());
        assert_eq!(par_map2(1, 1, 1, |i, j| i + j), vec![0]);
    }

    #[test]
    fn par_fold_sums() {
        let total = par_fold(1000, 4, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(total, 999 * 1000 / 2);
        let serial = par_fold(1000, 1, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(serial, total);
    }

    #[test]
    fn par_fold_with_nonzero_init_and_tiny_n() {
        assert_eq!(par_fold(0, 4, 5u64, |i| i as u64, |a, b| a + b), 5);
        assert_eq!(par_fold(1, 4, 5u64, |i| i as u64 + 1, |a, b| a + b), 6);
        assert_eq!(par_fold(3, 8, 0u64, |i| i as u64, |a, b| a + b), 3);
    }

    #[test]
    fn threads_override_parsing() {
        assert_eq!(threads_override(None), None);
        assert_eq!(threads_override(Some("")), None);
        assert_eq!(threads_override(Some("abc")), None);
        assert_eq!(threads_override(Some("0")), None);
        assert_eq!(threads_override(Some("1")), Some(1));
        assert_eq!(threads_override(Some(" 6 ")), Some(6));
        assert_eq!(threads_override(Some("9999")), Some(64));
    }
}
