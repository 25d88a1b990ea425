//! perfbench: the serving benchmark of the `ccmx` protocol-lab server.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the root of a `ccmx` checkout. It builds the release `ccmx`
//! binary, sets the workload up (several times, for the set-up time),
//! drives the server over TCP on two connections for `--seconds`,
//! checks every answer against an independent oracle, and prints each
//! metric with its unit (latencies with their sample counts). The last
//! line of standard output is one JSON object: the end-to-end metrics
//! with `--trace 0`; with `--trace 1` the per-layer metrics, which come
//! from a second, traced window, its in-process replay, and the
//! end-of-run metrics scrape. Each run also writes its environment,
//! command lines, scrapes and (traced) spans under `perfbench/runs/`.

mod fleet;
mod gen;
mod load;
mod replay;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use fleet::{Scrape, Scratch};
use gen::Class;
use replay::Replay;
use workload::{Checked, Fleet, Window};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// A headline latency is the median of its per-slice values, the window
/// cut into slices of about a second: a burst of load from outside the
/// benchmark that spoils a second or two does not move it. A slice
/// holds at least this many samples for a median, and for a p99.
const SLICE_MIN_P50: usize = 20;
const SLICE_MIN_P99: usize = 100;

/// The end-to-end metrics every run prints with `--trace 0`.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "lat_p50_ms",
    "lat_p99_ms",
    "side_lat_p50_ms",
];

/// The per-layer metrics every run prints with `--trace 1`.
pub const PER_LAYER: [&str; 19] = [
    "net.ping_rtt_us",
    "net.server_time_us",
    "net.unattributed_us",
    "net.self_us",
    "comm.self_us",
    "linalg.self_us",
    "search.self_us",
    "store.self_us",
    "net.req_bytes",
    "net.resp_bytes",
    "net.cache_hits",
    "net.cache_misses",
    "net.cache_evictions",
    "net.shed",
    "net.evicted",
    "net.deadline_exceeded",
    "obs.spans_recorded",
    "loadgen.send_lag_p99_ms",
    "trace.overhead_frac",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !gen::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {:?}",
            gen::WORKLOADS
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind an order statistic.
    pub samples: Option<usize>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples: None,
    }
}

/// A percentile with its sample count; `None` without samples.
fn pct(name: impl Into<String>, v: &[f64], q: f64, unit: &'static str) -> Option<Metric> {
    if v.is_empty() {
        return None;
    }
    let mut v = v.to_vec();
    Some(Metric {
        name: name.into(),
        value: stats::percentile(&mut v, q),
        unit,
        samples: Some(v.len()),
    })
}

/// Percentile `q` of `class`'s latencies in each slice of the window,
/// then the median over the slices; the sample count is the total.
/// Slices are about a second long, fewer when each would otherwise
/// hold under `min_per_slice` samples.
fn sliced(
    name: &str,
    (w, c): (&Window, &Checked),
    class: Option<Class>,
    q: f64,
    min_per_slice: usize,
    seconds: f64,
) -> Option<Metric> {
    let total = workload::latencies(w, c, class).len();
    let count = (total / min_per_slice).clamp(1, (seconds.round() as usize).max(1));
    let slices = workload::latencies_by_slice(w, c, class, count);
    let mut per: Vec<f64> = slices
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| stats::percentile(&mut v.clone(), q))
        .collect();
    if per.is_empty() {
        return None;
    }
    Some(Metric {
        name: name.into(),
        value: stats::median(&mut per),
        unit: "ms",
        samples: Some(total),
    })
}

/// What a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// The metrics of the final JSON line.
    pub headline: Vec<Metric>,
    /// Everything else worth printing.
    pub detail: Vec<Metric>,
    pub notes: Vec<(String, String)>,
    pub scrapes: Vec<(String, String)>,
    pub spans: Vec<replay::Span>,
}

/// A timed window on a live fleet, with what was read around it.
struct Measured {
    window: Window,
    ping_us: f64,
    before: Vec<Scrape>,
    after: Vec<Scrape>,
    rss_mb: f64,
    cmdlines: Vec<String>,
    hop_us: Option<(f64, f64)>,
}

fn measure(
    workload: &str,
    seed: u64,
    fleet: &Fleet,
    seconds: f64,
    traced: bool,
) -> Result<Measured, String> {
    let ping_us = workload::ping_floor(fleet.entry())?;
    let before = fleet.scrape()?;
    let window = workload::run_window(workload, seed, fleet.entry(), seconds)?;
    let after = fleet.scrape()?;
    let rss_mb = fleet.rss_mb()?;
    // cluster.hop_us: the same cached keys routed, and sent direct to a
    // shard warmed with them.
    let hop_us = if traced && workload == "routed-mix" {
        let keys = workload::routed_keys(seed);
        let mut routed = workload::timed_pass(fleet.entry(), &keys, 20)?;
        let mut direct = workload::timed_pass(&fleet.procs[0].addr, &keys, 20)?;
        Some((stats::median(&mut routed), stats::median(&mut direct)))
    } else {
        None
    };
    Ok(Measured {
        window,
        ping_us,
        before,
        after,
        rss_mb,
        cmdlines: fleet.cmdlines(),
        hop_us,
    })
}

/// The end-to-end metrics of a checked window.
fn end_to_end(
    workload: &str,
    m: &Measured,
    c: &Checked,
    setup_s: &[f64],
    seconds: f64,
) -> (Vec<Metric>, Vec<Metric>) {
    let (main, side) = workload::classes(workload);
    let w = &m.window;
    let main_lat = workload::latencies(w, c, main);
    let side_lat = workload::latencies(w, c, Some(side));
    let mut setup = setup_s.to_vec();
    let mut headline = vec![metric("setup_s", stats::median(&mut setup), "s")];
    // Throughput of each slice of about a second, and their median, for
    // the same reason the latencies are sliced.
    let slices = (seconds.round() as usize).max(1);
    let mut ops: Vec<f64> =
        workload::completions_by_slice(w, c, workload::ops_class(workload), slices)
            .into_iter()
            .map(|n| n as f64 * slices as f64 / seconds)
            .collect();
    headline.push(metric("ops_per_s", stats::median(&mut ops), "1/s"));
    headline.extend(sliced(
        "lat_p50_ms",
        (w, c),
        main,
        0.5,
        SLICE_MIN_P50,
        seconds,
    ));
    headline.extend(sliced(
        "lat_p99_ms",
        (w, c),
        main,
        0.99,
        SLICE_MIN_P99,
        seconds,
    ));
    headline.extend(sliced(
        "side_lat_p50_ms",
        (w, c),
        Some(side),
        0.5,
        SLICE_MIN_P50,
        seconds,
    ));

    // Each workload's own request classes, with their samples.
    // Peak RSS is printed, not gated: on sing-stream it lands on 28 MB
    // or 47 MB from run to run, which no bound can hold.
    let mut detail = vec![metric("server_rss_mb", m.rss_mb, "MB")];
    detail.extend(pct("lat_p50_ms.whole_window", &main_lat, 0.5, "ms"));
    detail.extend(pct("lat_p99_ms.whole_window", &main_lat, 0.99, "ms"));
    let by_class = |k: Class| workload::latencies(w, c, Some(k));
    match workload {
        "sing-stream" => {
            detail.extend(pct("hit_lat_p50_ms", &side_lat, 0.5, "ms"));
            detail.extend(pct("miss_lat_p50_ms", &by_class(Class::Miss), 0.5, "ms"));
        }
        "cc-contend" => {
            detail.extend(pct("miss_lat_p50_ms", &main_lat, 0.5, "ms"));
            detail.extend(pct("hit_lat_p50_ms", &side_lat, 0.5, "ms"));
            if side_lat.len() >= 1000 {
                detail.extend(pct("hit_lat_p99_ms", &side_lat, 0.99, "ms"));
            }
            detail.extend(pct(
                "bounds_hit_lat_p50_ms",
                &by_class(Class::BoundsHit),
                0.5,
                "ms",
            ));
        }
        "proto-live" => {
            detail.extend(pct("batch_lat_p50_ms", &side_lat, 0.5, "ms"));
        }
        _ => {
            detail.extend(pct("batch_lat_p50_ms", &side_lat, 0.5, "ms"));
            detail.extend(pct(
                "single_lat_p50_ms",
                &by_class(Class::Single),
                0.5,
                "ms",
            ));
        }
    }
    // Per-label medians: where each class's cost sits.
    let mut labels: BTreeMap<(Class, &'static str), Vec<f64>> = BTreeMap::new();
    for conn in 0..2 {
        for (rec, ok) in w.recs[conn].iter().zip(&c.ok[conn]) {
            if *ok {
                labels
                    .entry((rec.class, rec.label))
                    .or_default()
                    .push(rec.latency_ms());
            }
        }
    }
    for ((class, label), v) in &labels {
        detail.extend(pct(
            format!("lat_p50_ms.{}.{label}", class.name()),
            v,
            0.5,
            "ms",
        ));
    }
    let error_frac = c.failed as f64 / c.attempted.max(1) as f64;
    detail.push(metric("error_frac", error_frac, "ratio"));
    (headline, detail)
}

/// Label values of a series, joined by `.`: `kernel="a",path="b"` → `a.b`.
fn label_values(labels: &str) -> String {
    labels
        .split(',')
        .filter_map(|kv| kv.split_once('=').map(|(_, v)| v.trim_matches('"')))
        .collect::<Vec<_>>()
        .join(".")
}

/// Per-layer counts from the scrapes around the window. A family
/// missing from every scrape is reported absent (listed in `absent`),
/// never as zero.
fn scraped(workload: &str, m: &Measured, absent: &mut Vec<String>) -> Vec<Metric> {
    let mut out = Vec::new();
    let (b, a) = (&m.before, &m.after);
    let delta = |name: &str,
                 family: &str,
                 labels: &[&str],
                 out: &mut Vec<Metric>,
                 absent: &mut Vec<String>| {
        let v = fleet::delta(b, a, family, labels);
        match v {
            Some(v) => out.push(metric(name, v, "count")),
            None => absent.push(format!("{name} ({family})")),
        }
        v
    };
    for cache in ["sing", "cc", "bounds"] {
        let label = format!("cache=\"{cache}\"");
        let hits = fleet::delta(b, a, "ccmx_cache_hits_total", &[&label]);
        let misses = fleet::delta(b, a, "ccmx_cache_misses_total", &[&label]);
        if let (Some(h), Some(mi)) = (hits, misses) {
            if h + mi > 0.0 {
                out.push(metric(
                    format!("net.cache_hit_ratio.{cache}"),
                    h / (h + mi),
                    "ratio",
                ));
            }
        }
    }
    delta(
        "net.cache_hits",
        "ccmx_cache_hits_total",
        &[],
        &mut out,
        absent,
    );
    delta(
        "net.cache_misses",
        "ccmx_cache_misses_total",
        &[],
        &mut out,
        absent,
    );
    delta(
        "net.cache_evictions",
        "ccmx_cache_evictions_total",
        &[],
        &mut out,
        absent,
    );
    delta(
        "net.cache_evictions.sing",
        "ccmx_cache_evictions_total",
        &["cache=\"sing\""],
        &mut out,
        absent,
    );
    delta("net.shed", "ccmx_server_shed_total", &[], &mut out, absent);
    delta(
        "net.dropped",
        "ccmx_server_connections_dropped_total",
        &[],
        &mut out,
        absent,
    );
    delta(
        "net.evicted",
        "ccmx_server_evicted_total",
        &[],
        &mut out,
        absent,
    );
    delta(
        "net.deadline_exceeded",
        "ccmx_server_deadline_exceeded_total",
        &[],
        &mut out,
        absent,
    );
    // Server time per request at the process clients talk to; a
    // coordinator does not time requests, so there it is the shards'.
    let entry = a.len() - 1;
    let timed = |from: usize| {
        let sum = fleet::delta(
            &b[from..],
            &a[from..],
            "ccmx_server_request_latency_ns_sum",
            &[],
        )?;
        let n = fleet::delta(
            &b[from..],
            &a[from..],
            "ccmx_server_request_latency_ns_count",
            &[],
        )?;
        (n > 0.0).then(|| sum / n / 1e3)
    };
    match timed(entry).or_else(|| timed(0)) {
        Some(us) => out.push(metric("net.server_time_us", us, "us")),
        None => absent.push("net.server_time_us (ccmx_server_request_latency_ns)".into()),
    }
    delta(
        "obs.spans_recorded",
        "ccmx_spans_recorded_total",
        &[],
        &mut out,
        absent,
    );
    delta(
        "obs.spans_dropped",
        "ccmx_spans_dropped_total",
        &[],
        &mut out,
        absent,
    );
    let exercised: &[&str] = match workload {
        "sing-stream" => &["linalg", "store"],
        "cc-contend" => &["search"],
        "proto-live" => &["linalg"],
        _ => &["linalg", "cluster"],
    };
    if exercised.contains(&"linalg") {
        delta(
            "linalg.certified",
            "ccmx_crt_certified_total",
            &[],
            &mut out,
            absent,
        );
        delta(
            "linalg.fallbacks",
            "ccmx_crt_fallback_total",
            &[],
            &mut out,
            absent,
        );
        delta(
            "linalg.pool_tasks",
            "ccmx_pool_tasks_total",
            &[],
            &mut out,
            absent,
        );
        delta(
            "linalg.pool_batches",
            "ccmx_pool_batches_total",
            &[],
            &mut out,
            absent,
        );
        for (family, name) in [
            ("ccmx_iomodel_words_moved_total", "linalg.words_moved"),
            ("ccmx_iomodel_kernel_calls_total", "linalg.kernel_calls"),
        ] {
            let series = a
                .iter()
                .flat_map(|s| s.series_of(family))
                .collect::<Vec<_>>();
            if series.is_empty() {
                absent.push(format!("{name} ({family})"));
            }
            let mut seen = BTreeMap::new();
            for (labels, _) in series {
                seen.entry(labels.clone()).or_insert(());
            }
            for labels in seen.keys() {
                let filter: Vec<&str> = labels.split(',').collect();
                if let Some(v) = fleet::delta(b, a, family, &filter) {
                    out.push(metric(
                        format!("{name}.{}", label_values(labels)),
                        v,
                        "count",
                    ));
                }
            }
        }
    }
    if exercised.contains(&"search") {
        let solves = delta(
            "search.solves",
            "ccmx_search_solves_total",
            &[],
            &mut out,
            absent,
        );
        let nodes = fleet::delta(b, a, "ccmx_search_nodes_total", &[]);
        if let (Some(s), Some(n)) = (solves, nodes) {
            if s > 0.0 {
                out.push(metric("search.nodes_per_solve.scraped", n / s, "count"));
            }
        }
        let hits = fleet::delta(b, a, "ccmx_search_memo_hits_total", &[]);
        let misses = fleet::delta(b, a, "ccmx_search_memo_misses_total", &[]);
        if let (Some(h), Some(mi)) = (hits, misses) {
            if h + mi > 0.0 {
                out.push(metric(
                    "search.memo_hit_ratio.scraped",
                    h / (h + mi),
                    "ratio",
                ));
            }
        }
        for (labels, _) in a
            .iter()
            .flat_map(|s| s.series_of("ccmx_search_prunes_total"))
        {
            let filter: Vec<&str> = labels.split(',').collect();
            if let Some(v) = fleet::delta(b, a, "ccmx_search_prunes_total", &filter) {
                out.push(metric(
                    format!("search.prunes.{}", label_values(&labels)),
                    v,
                    "count",
                ));
            }
        }
    }
    if exercised.contains(&"store") {
        match a
            .iter()
            .filter_map(|s| s.sum("ccmx_store_recovered_records_total", &[]))
            .reduce(|x, y| x + y)
        {
            Some(v) => out.push(metric("store.recovered_records", v, "count")),
            None => {
                absent.push("store.recovered_records (ccmx_store_recovered_records_total)".into())
            }
        }
        delta(
            "store.appends",
            "ccmx_store_appends_total",
            &["store=\"server\""],
            &mut out,
            absent,
        );
        delta(
            "store.write_errors",
            "ccmx_store_write_errors_total",
            &[],
            &mut out,
            absent,
        );
    }
    if exercised.contains(&"cluster") {
        let mut routed = Vec::new();
        for (labels, _) in a
            .iter()
            .flat_map(|s| s.series_of("ccmx_cluster_routed_total"))
        {
            let filter: Vec<&str> = labels.split(',').collect();
            if let Some(v) = fleet::delta(b, a, "ccmx_cluster_routed_total", &filter) {
                out.push(metric(
                    format!("cluster.routed.{}", label_values(&labels)),
                    v,
                    "count",
                ));
                routed.push(v);
            }
        }
        if routed.is_empty() {
            absent.push("cluster.routed (ccmx_cluster_routed_total)".into());
        } else {
            let max = routed.iter().copied().fold(f64::MIN, f64::max);
            let min = routed.iter().copied().fold(f64::MAX, f64::min);
            if min > 0.0 {
                out.push(metric("cluster.balance", max / min, "ratio"));
            }
        }
        delta(
            "cluster.failovers",
            "ccmx_cluster_failover_total",
            &[],
            &mut out,
            absent,
        );
        delta(
            "cluster.shed",
            "ccmx_cluster_shed_total",
            &[],
            &mut out,
            absent,
        );
        delta(
            "cluster.degraded",
            "ccmx_cluster_degraded_total",
            &[],
            &mut out,
            absent,
        );
        delta(
            "cluster.batch_fanout",
            "ccmx_cluster_batch_fanout_total",
            &[],
            &mut out,
            absent,
        );
    }
    out
}

/// The per-layer metrics of a traced run.
fn per_layer(
    workload: &str,
    m: &Measured,
    rp: &Replay,
    untraced_p50: f64,
    traced_p50: f64,
    extra: Vec<Metric>,
) -> (Vec<Metric>, Vec<Metric>, Vec<String>) {
    let mut absent = Vec::new();
    let mut all = vec![metric("net.ping_rtt_us", m.ping_us, "us")];
    all.extend(scraped(workload, m, &mut absent));
    let t = &rp.tracer;
    let replayed = t.replayed.max(1) as f64;
    for layer in ["net", "comm", "linalg", "search", "store"] {
        let ns = t.layer_ns.get(layer).copied().unwrap_or(0);
        all.push(metric(
            format!("{layer}.self_us"),
            ns as f64 / replayed / 1e3,
            "us",
        ));
    }
    let unattributed: Vec<f64> = t.unattributed.values().flatten().copied().collect();
    all.extend(pct("net.unattributed_us", &unattributed, 0.5, "us"));
    for (class, v) in &t.unattributed {
        all.extend(pct(format!("net.unattributed_us.{class}"), v, 0.5, "us"));
        if workload == "cc-contend" && *class == "hit" {
            all.extend(pct("net.unattributed_us.hit.p99", v, 0.99, "us"));
        }
    }
    for (name, v) in &t.samples {
        let unit = if name.ends_with("_ms") || name.contains("_ms.") {
            "ms"
        } else if name.ends_with("_us") || name.contains("_us.") {
            "us"
        } else if name.contains("bytes") {
            "B"
        } else if name.contains("ratio") {
            "ratio"
        } else {
            "count"
        };
        if name == "net.req_bytes" || name == "net.resp_bytes" {
            all.push(Metric {
                name: name.clone(),
                value: stats::mean(v),
                unit,
                samples: Some(v.len()),
            });
        } else {
            all.extend(pct(name.clone(), v, 0.5, unit));
        }
    }
    // Open-loop send lateness; a closed loop sends when it is due.
    let lag: Vec<f64> = m.window.recs[1]
        .iter()
        .map(|r| r.sent.saturating_sub(r.due) as f64 / 1e6)
        .collect();
    let lag_p99 = if workload == "cc-contend" {
        pct("loadgen.send_lag_p99_ms", &lag, 0.99, "ms")
    } else {
        Some(metric("loadgen.send_lag_p99_ms", 0.0, "ms"))
    };
    all.extend(lag_p99);
    // Requests of each class the traced window sent, to set against the
    // scraped cache counts: on sing-stream every hit must be a cache hit.
    let mut sent: BTreeMap<&str, f64> = BTreeMap::new();
    for rec in m.window.recs.iter().flatten() {
        *sent.entry(rec.class.name()).or_default() += 1.0;
    }
    for (class, n) in sent {
        all.push(metric(format!("loadgen.sent.{class}"), n, "count"));
    }
    if let Some((routed, direct)) = m.hop_us {
        all.push(metric("cluster.hop_us", routed - direct, "us"));
    }
    all.push(metric(
        "trace.overhead_frac",
        traced_p50 / untraced_p50 - 1.0,
        "ratio",
    ));
    all.extend(extra);
    let (headline, detail) = all
        .into_iter()
        .partition(|m| PER_LAYER.contains(&m.name.as_str()));
    (headline, detail, absent)
}

fn main_latency_p50(workload: &str, m: &Measured, c: &Checked) -> f64 {
    let mut v = workload::latencies(&m.window, c, workload::classes(workload).0);
    if v.is_empty() {
        f64::NAN
    } else {
        stats::median(&mut v)
    }
}

/// Run one workload from the checkout at `root`.
pub fn run(
    root: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    // A traced run measures two windows, untraced then traced, of half
    // the time each, so it takes about as long as an untraced run.
    let seconds = if trace { seconds / 2.0 } else { seconds };
    let bin = fleet::build_ccmx(root)?;
    let scratch = Scratch::new(root)?;
    let populated = scratch.dir.join("populated");
    if workload == "sing-stream" {
        workload::populate(&bin, seed, &populated)?;
    }
    let prepared = workload::prepare(workload, seed, &bin, &scratch.dir, &populated, SETUP_REPS)?;
    let mut notes = fleet::environment(root, prepared.fleet.store_dir.as_deref());
    let measured = measure(workload, seed, &prepared.fleet, seconds, false)?;
    drop(prepared.fleet);
    let started = std::time::Instant::now();
    let checked = workload::check(workload, seed, &measured.window);
    let check_s = started.elapsed().as_secs_f64();
    let (mut headline, mut detail) =
        end_to_end(workload, &measured, &checked, &prepared.setup_s, seconds);
    detail.insert(0, metric("net.ping_rtt_us", measured.ping_us, "us"));
    let mut scrapes: Vec<(String, String)> = measured
        .cmdlines
        .iter()
        .zip(&measured.after)
        .map(|(cmd, s)| (cmd.clone(), s.text.clone()))
        .collect();
    notes.push(("check_s".into(), format!("{check_s:.3}")));
    notes.push((
        "stream_hash".into(),
        format!("{:016x}", gen::stream_hash(workload, seed)),
    ));
    notes.push(("sent_hash".into(), format!("{:016x}", checked.sent_hash)));
    for (i, cmd) in measured.cmdlines.iter().enumerate() {
        notes.push((format!("cmdline.{i}"), cmd.clone()));
    }
    let mut outcome = Outcome {
        attempted: checked.attempted,
        failed: checked.failed,
        first_failure: checked.first_failure.clone(),
        headline: Vec::new(),
        detail: Vec::new(),
        notes,
        scrapes: Vec::new(),
        spans: Vec::new(),
    };
    if trace {
        // The traced window: same workload and seed on a fresh fleet.
        let prepared = workload::prepare(workload, seed, &bin, &scratch.dir, &populated, 1)?;
        let traced = measure(workload, seed, &prepared.fleet, seconds, true)?;
        drop(prepared.fleet);
        let mut rp = Replay::new(&scratch.dir.join("replay-store"))?;
        if workload != "sing-stream" {
            for item in gen::setup_items(workload, seed) {
                rp.warm(&item);
            }
        }
        let tchecked = workload::check(workload, seed, &traced.window);
        let started = std::time::Instant::now();
        workload::for_each_sent(workload, seed, &traced.window, &tchecked, |item, rec| {
            rp.replay(item, rec)
        });
        outcome.notes.push((
            "replay_s".into(),
            format!("{:.3}", started.elapsed().as_secs_f64()),
        ));
        let mut extra = Vec::new();
        if workload == "sing-stream" {
            let copy = scratch.dir.join("open-copy");
            fleet::copy_dir(&populated, &copy)?;
            extra.extend(
                replay::store_boot(&copy)?
                    .into_iter()
                    .map(|(name, value, unit)| metric(name, value, unit)),
            );
        }
        let untraced_p50 = main_latency_p50(workload, &measured, &checked);
        let traced_p50 = main_latency_p50(workload, &traced, &tchecked);
        let (layer_headline, layer_detail, absent) =
            per_layer(workload, &traced, &rp, untraced_p50, traced_p50, extra);
        outcome.attempted += tchecked.attempted;
        outcome.failed += tchecked.failed;
        if outcome.first_failure.is_none() {
            outcome.first_failure = tchecked.first_failure;
        }
        detail.extend(headline);
        detail.extend(layer_detail);
        headline = layer_headline;
        for a in absent {
            outcome.notes.push(("absent".into(), a));
        }
        scrapes = traced
            .cmdlines
            .iter()
            .zip(&traced.after)
            .map(|(cmd, s)| (format!("{cmd} (traced window)"), s.text.clone()))
            .collect();
        outcome.spans = std::mem::take(&mut rp.tracer.spans);
    }
    outcome.headline = headline;
    outcome.detail = detail;
    outcome.scrapes = scrapes;
    Ok(outcome)
}

fn json_line(o: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in o
        .headline
        .iter()
        .filter(|m| m.value.is_finite())
        .enumerate()
    {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed
    )
}

fn format_metric(m: &Metric) -> String {
    let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
    format!("{:<44} {:>16.6} {}{n}", m.name, m.value, m.unit)
}

/// Write the run's record: environment, metrics, scrapes and spans.
fn write_record(root: &Path, args: &Args, o: &Outcome) -> Result<PathBuf, String> {
    let dir = root.join("perfbench/runs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut text = String::new();
    for (k, v) in &o.notes {
        let _ = writeln!(text, "{k}: {v}");
    }
    text.push('\n');
    for m in o.headline.iter().chain(&o.detail) {
        let _ = writeln!(text, "{}", format_metric(m));
    }
    for (cmd, scrape) in &o.scrapes {
        let _ = writeln!(text, "\n# end-of-run scrape of `{cmd}`\n{scrape}");
    }
    let path = dir.join(format!("{stem}.txt"));
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    if !o.spans.is_empty() {
        let mut spans = String::from("id\tparent\tname\tstart_ns\tdur_ns\n");
        for s in &o.spans {
            let _ = writeln!(
                spans,
                "{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.dur_ns
            );
        }
        let path = dir.join(format!("{stem}.spans.tsv"));
        std::fs::write(&path, spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(path)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", gen::WORKLOADS.join("|"));
            std::process::exit(2);
        }
    };
    let result = fleet::repo_root().and_then(|root| {
        let o = run(&root, &args.workload, args.seed, args.seconds, args.trace)?;
        let path = write_record(&root, &args, &o)?;
        Ok((o, path))
    });
    match result {
        Ok((o, path)) => {
            println!(
                "workload {} seed {} seconds {} trace {}",
                args.workload,
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            for (k, v) in &o.notes {
                println!("  {k}: {v}");
            }
            for m in o.headline.iter().chain(&o.detail) {
                println!("{}", format_metric(m));
            }
            if let Some(f) = &o.first_failure {
                println!("first failure: {f}");
            }
            println!("record: {}", path.display());
            println!("{}", json_line(&o));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod smoke {
    use super::*;

    /// A seed no other test or tuning run uses.
    const HELD_OUT_SEED: u64 = 0x5EED_0FF5;

    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("perfbench sits in the checkout")
            .to_path_buf()
    }

    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        // BENCHMARK.json lists the workloads before the metrics; each must
        // be one the binary runs.
        let (listed, _) = text.split_once("\"end_to_end\"").expect("end_to_end");
        let names: Vec<&str> = listed
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        assert!(names.len() >= 2, "{names:?}");
        for w in names {
            assert!(gen::WORKLOADS.contains(&w), "{w} is not a workload");
        }
    }

    /// Every workload, briefly, on a held-out seed: every named metric
    /// present and finite, and every answer correct.
    #[test]
    fn every_workload_reports_every_metric_with_no_errors() {
        for w in gen::WORKLOADS {
            for trace in [false, true] {
                let o = run(&root(), w, HELD_OUT_SEED, 1.0, trace)
                    .unwrap_or_else(|e| panic!("{w}: {e}"));
                assert_eq!(o.failed, 0, "{w}: {:?}", o.first_failure);
                assert!(o.attempted > 0, "{w}");
                let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
                for name in names {
                    let m = o.headline.iter().find(|m| m.name == *name);
                    assert!(
                        m.is_some_and(|m| m.value.is_finite()),
                        "{w}: {name} = {m:?}"
                    );
                }
            }
        }
    }
}
