//! Persistent work-stealing worker pool.
//!
//! [`crate::parallel::par_map`] used to spawn a fresh thread scope per
//! call — fine for one-shot determinants, wasteful for the
//! enumeration stack, which issues thousands of small CRT batches and
//! paid a thread spawn/join per batch. This module keeps one
//! process-wide pool of parked workers (grown lazily to the highest
//! concurrency any caller has requested, never shrunk) and hands them
//! *batches*: an atomic cursor over `0..n` plus a borrowed task closure.
//!
//! Design points:
//!
//! * **Submitter participates.** [`run`] pushes the batch on the injector
//!   queue, wakes the workers, then claims indices itself until the
//!   cursor is exhausted, and finally blocks on the batch's condvar until
//!   every claimed index has completed. Progress therefore never depends
//!   on pool capacity — with zero free workers the submitter simply runs
//!   the whole batch inline, which is also the 1-CPU behaviour.
//! * **Borrowed tasks, checked lifetime.** The task is a `&(dyn
//!   Fn(usize) + Sync)` whose lifetime is erased into a raw pointer. This
//!   is sound because `run` does not return until `completed == n`, and a
//!   worker only dereferences the pointer for an index it successfully
//!   claimed (`i < n`), which it then completes; after `run` returns no
//!   worker can observe an unclaimed index.
//! * **Nested calls run inline.** Worker threads are flagged via a
//!   thread-local; [`in_worker`] lets `par_map` detect
//!   parallelism-inside-parallelism (CRT inside an enumeration row) and
//!   degrade to a serial loop instead of deadlocking on, or
//!   oversubscribing, the same pool.
//! * **Panic containment.** Worker panics are caught, recorded on the
//!   batch, and re-raised in the submitter after the batch drains, so a
//!   panicking task cannot poison the long-lived workers.
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex};

/// Hard cap on pool size, far above any sensible `CCMX_THREADS`.
const MAX_WORKERS: usize = 32;

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Is the current thread a pool worker (or a thread currently executing
/// a batch)? Used by `par_map`/`par_fold` to run nested calls inline.
pub fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// Type-erased borrowed task pointer. See the module docs for the
/// lifetime argument; `Send + Sync` are sound because the pointee is
/// `Sync` and only ever shared, never mutated.
struct TaskPtr(*const (dyn Fn(usize) + Sync));
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// One submitted parallel batch: indices `0..n` handed out by `cursor`,
/// drained when `completed == n`.
struct Batch {
    n: usize,
    /// Span open on the submitting thread when the batch was created;
    /// every executor segment (submitter or stolen worker) opens its
    /// span as a child of this id, so traces stay consistent across
    /// work stealing.
    parent_span: ccmx_obs::SpanId,
    /// Next unclaimed index (may run past `n`; claims test `i < n`).
    cursor: AtomicUsize,
    /// Indices fully executed. The release sequence on this counter is
    /// what publishes each worker's result writes to the submitter.
    completed: AtomicUsize,
    /// How many more pool workers may join (the submitter is not
    /// counted). Prevents a tiny batch from waking the whole pool.
    slots: AtomicUsize,
    panicked: AtomicBool,
    task: TaskPtr,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Batch {
    /// Claim a join slot if the batch still has unclaimed work.
    fn try_join(&self) -> bool {
        if self.cursor.load(Ordering::Relaxed) >= self.n {
            return false;
        }
        self.slots
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| s.checked_sub(1))
            .is_ok()
    }

    /// Claim-and-run loop shared by workers and the submitter.
    /// `stolen` marks segments executed by pool workers (vs the
    /// submitting thread) for the steal counter.
    fn execute(&self, stolen: bool) {
        let task = unsafe { &*self.task.0 };
        let _seg = ccmx_obs::child_of("pool.exec", self.parent_span);
        let mut claimed = 0u64;
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            claimed += 1;
            if catch_unwind(AssertUnwindSafe(|| task(i))).is_err() {
                self.panicked.store(true, Ordering::SeqCst);
            }
            // AcqRel: the release publishes this index's writes into the
            // counter's release sequence; the final increment's acquire
            // half (or the condvar mutex) hands them to the submitter.
            if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
                let mut g = self.done.lock();
                *g = true;
                self.done_cv.notify_all();
            }
        }
        // One relaxed add per segment, not per task: the hot path stays
        // a single atomic RMW on the cursor.
        if claimed > 0 {
            tasks_counter().add(claimed);
            if stolen {
                stolen_counter().add(claimed);
            }
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    work_cv: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Worker threads spawned so far (high-water mark, never shrinks).
    spawned: AtomicUsize,
    grow_lock: Mutex<()>,
}

/// Registry-backed pool counters. `ccmx_pool_tasks_total` counts every
/// executed index, `ccmx_pool_tasks_stolen_total` the subset run by pool
/// workers rather than the submitting thread, `ccmx_pool_batches_total`
/// submitted batches; `ccmx_pool_workers` mirrors the spawn high-water
/// mark as a gauge.
fn tasks_counter() -> &'static ccmx_obs::Counter {
    ccmx_obs::counter!("ccmx_pool_tasks_total")
}
fn stolen_counter() -> &'static ccmx_obs::Counter {
    ccmx_obs::counter!("ccmx_pool_tasks_stolen_total")
}
fn batches_counter() -> &'static ccmx_obs::Counter {
    ccmx_obs::counter!("ccmx_pool_batches_total")
}
fn workers_gauge() -> &'static ccmx_obs::Gauge {
    ccmx_obs::gauge!("ccmx_pool_workers")
}

fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
        }),
        spawned: AtomicUsize::new(0),
        grow_lock: Mutex::new(()),
    })
}

fn worker_loop(shared: Arc<Shared>) {
    IN_WORKER.with(|f| f.set(true));
    loop {
        let batch: Arc<Batch> = {
            let mut q = shared.queue.lock();
            loop {
                if let Some(b) = q.iter().find(|b| b.try_join()).cloned() {
                    break b;
                }
                shared.work_cv.wait(&mut q);
            }
        };
        batch.execute(true);
    }
}

impl Pool {
    /// Grow the pool to at least `want` workers (capped). Amortized
    /// no-op: after the high-water mark is reached no submission ever
    /// spawns again.
    fn ensure_workers(&self, want: usize) {
        let want = want.min(MAX_WORKERS);
        if self.spawned.load(Ordering::Acquire) >= want {
            return;
        }
        let _g = self.grow_lock.lock();
        let cur = self.spawned.load(Ordering::Acquire);
        for _ in cur..want {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("ccmx-pool-worker".into())
                .spawn(move || worker_loop(shared))
                .expect("failed to spawn pool worker");
        }
        self.spawned.store(cur.max(want), Ordering::Release);
        workers_gauge().set(cur.max(want) as i64);
    }
}

/// `(workers_spawned, batches_submitted)` so far in this process. The
/// worker count reaching a plateau while batches keep climbing is the
/// observable form of "no per-call thread spawns".
///
/// Thin view over the shared [`ccmx_obs`] registry
/// (`ccmx_pool_workers`, `ccmx_pool_batches_total`; per-index execution
/// is `ccmx_pool_tasks_total` / `ccmx_pool_tasks_stolen_total`). The
/// worker count is structural (spawn high-water mark) and survives a
/// registry reset; the gauge is refreshed here so a scrape after a
/// reset still sees it.
pub fn pool_stats() -> (usize, u64) {
    let workers = global().spawned.load(Ordering::Relaxed);
    workers_gauge().set(workers as i64);
    (workers, batches_counter().get())
}

/// Run `task` for every index in `0..n` on the shared pool, using at
/// most `threads` concurrent executors (including the calling thread).
/// Blocks until every index has completed; propagates task panics.
///
/// Callers wanting a serial path (nested calls, `threads <= 1`) must
/// branch *before* calling — `run` always enqueues.
pub fn run(n: usize, threads: usize, task: &(dyn Fn(usize) + Sync)) {
    if n == 0 {
        return;
    }
    let pool = global();
    let helpers = threads.saturating_sub(1).min(n.saturating_sub(1));
    pool.ensure_workers(helpers);
    batches_counter().inc();
    let batch_span = ccmx_obs::span("pool.batch");
    // SAFETY: lifetime erasure, sound per the module docs — `run` does
    // not return until `completed == n`, and no worker dereferences the
    // pointer after completing its claimed indices.
    let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let batch = Arc::new(Batch {
        n,
        parent_span: batch_span.id(),
        cursor: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        slots: AtomicUsize::new(helpers),
        panicked: AtomicBool::new(false),
        task: TaskPtr(task as *const (dyn Fn(usize) + Sync)),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });
    if helpers > 0 {
        let mut q = pool.shared.queue.lock();
        q.push_back(Arc::clone(&batch));
        drop(q);
        pool.shared.work_cv.notify_all();
    }
    // The submitter is an executor too: mark it so tasks that call back
    // into par_map degrade to serial instead of re-entering the pool.
    let was_worker = IN_WORKER.with(|f| f.replace(true));
    batch.execute(false);
    IN_WORKER.with(|f| f.set(was_worker));
    {
        let mut g = batch.done.lock();
        while !*g {
            batch.done_cv.wait(&mut g);
        }
    }
    if helpers > 0 {
        let mut q = pool.shared.queue.lock();
        q.retain(|b| !Arc::ptr_eq(b, &batch));
    }
    if batch.panicked.load(Ordering::SeqCst) {
        panic!("pool task panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_covers_every_index_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        run(hits.len(), 4, &|i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "index {i}");
        }
    }

    /// Every executor segment — whether run by the submitting thread or
    /// stolen by a pool worker — must parent its `pool.exec` span on the
    /// batch's submit-side `pool.batch` span, so traces stay a single
    /// tree across work stealing.
    #[test]
    fn stolen_segments_parent_on_the_submit_span() {
        let outer_id = {
            let outer = ccmx_obs::span("test.pool.outer");
            // Slow tasks so pool workers have time to steal segments.
            run(64, 4, &|_| {
                std::thread::sleep(std::time::Duration::from_micros(200));
            });
            outer.id()
        };
        let spans = ccmx_obs::recent_spans();
        // Other tests in this binary run pools concurrently; our batch is
        // the one parented on our unique outer span.
        let batch = spans
            .iter()
            .find(|s| s.name == "pool.batch" && s.parent == outer_id)
            .expect("pool.batch span recorded under the outer span");
        let segs: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "pool.exec" && s.parent == batch.id)
            .collect();
        assert!(
            !segs.is_empty(),
            "at least one executor segment parented on the batch span"
        );
        // The submitter participates, so its thread recorded one segment;
        // with slow tasks and 4 threads, workers steal the rest on other
        // threads. Either way every segment shares the same parent —
        // assert the cross-thread case when it occurred.
        let threads: std::collections::BTreeSet<u64> = segs.iter().map(|s| s.thread).collect();
        if threads.len() > 1 {
            assert!(segs.iter().any(|s| s.thread != batch.thread));
        }
    }

    #[test]
    fn pool_reuses_workers_across_batches() {
        run(8, 4, &|_| {});
        let (workers_before, batches_before) = pool_stats();
        for _ in 0..16 {
            run(8, 4, &|_| {});
        }
        let (workers_after, batches_after) = pool_stats();
        assert_eq!(
            workers_after, workers_before,
            "repeat batches must not spawn new workers"
        );
        assert!(batches_after >= batches_before + 16);
    }

    #[test]
    fn nested_run_detected_as_worker_context() {
        let saw_nested = AtomicBool::new(false);
        run(4, 4, &|_| {
            if in_worker() {
                saw_nested.store(true, Ordering::SeqCst);
            }
        });
        assert!(saw_nested.load(Ordering::SeqCst));
        assert!(!in_worker(), "flag must be restored after run");
    }

    #[test]
    fn panicking_task_propagates_without_poisoning_pool() {
        let result = std::panic::catch_unwind(|| {
            run(8, 4, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err());
        // Pool still serves batches afterwards.
        let count = AtomicUsize::new(0);
        run(8, 4, &|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 8);
    }
}
