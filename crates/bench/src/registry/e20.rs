//! E20: the exact-CC branch-and-bound engine measured as a perf
//! artifact.
//!
//! Instance choice matters: a *random* truth matrix is a bad benchmark,
//! because the two-sided χ bound (`rank(M) + rank(M̄)`) meets the
//! row-announce upper bound almost surely and the solver exits without
//! branching. The instances here are the ones where the bracket stays
//! open — intersection-threshold ("majority") matrices whose sub-
//! rectangles repeat heavily (the memo's best case), cyclic-shift
//! threshold matrices (wide move fans, memo-poor — an honest hard
//! case), the equality identity, and the paper's smallest singularity
//! truth matrix under π₀. Every instance is solved three ways:
//!
//! * `serial_nomemo` — the pruned Bellman recursion alone,
//! * `serial_memo`   — plus the canonicalized sub-rectangle memo,
//! * `parallel_memo` — plus the root frontier fanned over the pool
//!   with the shared atomic incumbent.
//!
//! The speed floor is `parallel_memo` vs `serial_nomemo` at the largest
//! benched dim; `search_ok` asserts all three configurations returned
//! identical exact CC values (a disagreement is a solver bug, not a
//! slow run) and that the memo recorded hits.

use ccmx_comm::functions::Singularity;
use ccmx_comm::truth::TruthMatrix;
use ccmx_comm::Partition;
use ccmx_search::{solve, SearchConfig};

use super::{push_rows, series, time_best, Check, Outcome};

pub(super) fn run(quick: bool) -> Outcome {
    let mk = |n: usize, f: &dyn Fn(usize, usize) -> bool| TruthMatrix::from_fn(n, n, f);
    let paper = {
        let f = Singularity::new(2, 1);
        let pi0 = Partition::pi_zero(&f.enc);
        TruthMatrix::enumerate(&f, &pi0, 1)
    };
    let instances: Vec<(&'static str, TruthMatrix)> = vec![
        ("singularity_2x2_k1_pi0", paper),
        ("equality_8", mk(8, &|x, y| x == y)),
        ("shift_threshold_16", mk(16, &|x, y| (x + y) % 16 < 8)),
        (
            "intersect_ge2_18",
            mk(18, &|x, y| (x & y).count_ones() >= 2),
        ),
        (
            "intersect_ge2_20",
            mk(20, &|x, y| (x & y).count_ones() >= 2),
        ),
    ];
    // The big no-memo baselines run hundreds of milliseconds; a handful
    // of reps pins the best-of minimum without minutes of wall clock.
    let reps = if quick { 1 } else { 5 };
    let configs: [(&'static str, SearchConfig); 3] = [
        (
            "serial_nomemo",
            SearchConfig {
                threads: 1,
                use_memo: false,
                ..SearchConfig::default()
            },
        ),
        (
            "serial_memo",
            SearchConfig {
                threads: 1,
                ..SearchConfig::default()
            },
        ),
        (
            "parallel_memo",
            SearchConfig {
                threads: 4,
                ..SearchConfig::default()
            },
        ),
    ];

    let mut rows: Vec<String> = Vec::new();
    let mut search_ok = true;
    let mut memo_hits_total = 0u64;
    let mut largest = (0usize, 0.0f64, 0.0f64); // (dim, memo speedup, parallel speedup)
    for (name, t) in &instances {
        let dim = t.rows();
        let mut per_config: Vec<(f64, u32)> = Vec::new();
        for (label, cfg) in &configs {
            let (ms, r) = time_best(reps, || solve(t, cfg).expect("bench instance must solve"));
            search_ok &= r.exact;
            if *label != "serial_nomemo" {
                memo_hits_total += r.stats.memo_hits;
            }
            rows.push(format!(
                "{{\"workload\": \"cc_{label}\", \"instance\": \"{name}\", \"dim\": {dim}, \
                 \"cc\": {}, \"nodes\": {}, \"memo_hits\": {}, \"ms\": {ms:.4}}}",
                r.cc, r.stats.nodes, r.stats.memo_hits
            ));
            per_config.push((ms, r.cc));
        }
        // All three configurations must agree exactly — the parallel
        // incumbent and the memo may change work, never the answer.
        search_ok &= per_config.iter().all(|&(_, cc)| cc == per_config[0].1);
        let (base, memo, par) = (per_config[0].0, per_config[1].0, per_config[2].0);
        if dim >= largest.0 && base > 0.0 {
            largest = (dim, base / memo.max(1e-9), base / par.max(1e-9));
        }
    }
    search_ok &= memo_hits_total > 0;

    let mut body = String::new();
    out!(body, "  \"largest_dim\": {},", largest.0);
    out!(body, "  \"memo_speedup_largest\": {:.2},", largest.1);
    out!(
        body,
        "  \"parallel_memo_speedup_largest\": {:.2},",
        largest.2
    );
    push_rows(&mut body, "results", &rows);
    Outcome {
        body,
        checks: vec![
            Check::holds("search_ok", search_ok),
            Check::nonzero(
                "ccmx_search_memo_hits_total",
                series("ccmx_search_memo_hits_total", &[]),
            ),
            Check::at_least("parallel_memo_speedup_largest", largest.2, 1.5).full_runs_only(),
        ],
    }
}
