//! E16: per-operation costs of the observability primitives. The
//! headline ratios document that a registered counter increment is a
//! plain relaxed atomic add (parity with `raw_atomic_inc`) and how much
//! a mutexed counter would have cost instead.

use super::{push_rows, ratio, time_best, Outcome};

pub(super) fn run(quick: bool) -> Outcome {
    const OPS: usize = 1_000_000;
    const RENDER_OPS: usize = 1_000;
    let reps = if quick { 1 } else { 9 };
    let reg = ccmx_obs::registry();
    let mut rows: Vec<String> = Vec::new();
    let mut ns_of = |label: &str, ops: usize, f: &mut dyn FnMut()| -> f64 {
        let (ms, ()) = time_best(reps, || {
            for _ in 0..ops {
                f();
            }
        });
        let ns = ms * 1e6 / ops as f64;
        rows.push(format!(
            "{{\"workload\": \"{label}\", \"ops\": {ops}, \"ns_per_op\": {ns:.2}}}"
        ));
        ns
    };

    let counter = reg.counter("e16_snapshot_counter", &[]);
    let counter_ns = ns_of("counter_inc", OPS, &mut || {
        counter.inc();
    });

    let raw = std::sync::atomic::AtomicU64::new(0);
    let raw_ns = ns_of("raw_atomic_inc", OPS, &mut || {
        raw.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    });

    let locked = std::sync::Mutex::new(0u64);
    let mutex_ns = ns_of("mutex_inc_baseline", OPS, &mut || {
        *locked.lock().expect("uncontended bench mutex") += 1;
    });

    let hist = reg.histogram("e16_snapshot_hist", &[], ccmx_obs::buckets::LATENCY_NS);
    ns_of("histogram_record", OPS, &mut || {
        hist.record(12_345);
    });

    ns_of("span_scope", OPS / 10, &mut || {
        let _g = ccmx_obs::span("e16.snapshot");
    });

    ns_of("render", RENDER_OPS, &mut || {
        std::hint::black_box(reg.render());
    });

    let mut body = String::new();
    out!(body, "  \"reps\": {reps},");
    out!(
        body,
        "  \"counter_inc_over_raw_atomic\": {:.2},",
        ratio(counter_ns, raw_ns)
    );
    out!(
        body,
        "  \"mutex_over_lockfree_counter\": {:.2},",
        ratio(mutex_ns, counter_ns)
    );
    push_rows(&mut body, "results_ns", &rows);
    Outcome {
        body,
        checks: Vec::new(),
    }
}
