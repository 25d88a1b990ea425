//! The experiment registry: every committed `BENCH_<id>.json` document
//! is declared, run and gated here, once.
//!
//! Each [`Experiment`] carries the fields of an experiment log — what
//! it tests (hypothesis and null hypothesis) and what it holds fixed
//! (controlled variables) — plus a `run(quick)` that measures and
//! returns the document body together with its named [`Check`]s. Every
//! verdict and every floor is one check; nothing outside this module
//! re-derives them. `bench_snapshot [--quick] [ID…]` is the only entry
//! point: it prints each check and exits non-zero naming every failed
//! one, and full runs write the documents at the workspace root.
//!
//! A full document also records the [`Equipment`] it ran on (nproc,
//! CPU model, kernel release, commit and whether the tree was dirty),
//! so a committed number always says where it came from.

use std::path::PathBuf;
use std::time::Instant;

/// `println!` into a document buffer.
macro_rules! out {
    ($doc:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($doc, $($arg)*).expect("writing to a String cannot fail");
    }};
}

mod e14;
mod e15;
mod e16;
mod e17;
mod e18;
mod e19;
mod e20;
mod e21;

/// One registered experiment.
pub struct Experiment {
    /// Registry id; the committed document is `BENCH_<id>.json`.
    pub id: &'static str,
    /// Descriptive name, recorded as the document's `experiment` field.
    pub name: &'static str,
    /// What the experiment expects to see.
    pub hypothesis: &'static str,
    /// What the checks would show if the hypothesis were false.
    pub null_hypothesis: &'static str,
    /// Variables held fixed across runs and commits.
    pub controlled: &'static [&'static str],
    /// Measure (`true`: one repetition, smaller workloads) and return
    /// the document body and its checks.
    pub run: fn(bool) -> Outcome,
}

/// What an experiment's `run` returns.
pub struct Outcome {
    /// JSON object members, one per line, each ending in a comma.
    pub body: String,
    /// Every verdict and floor of the experiment.
    pub checks: Vec<Check>,
}

/// One named verdict or floor.
#[derive(Debug)]
pub struct Check {
    /// Name, matching the document field or series it reads.
    pub name: &'static str,
    /// The measured value as recorded, with its floor if it has one.
    pub value: String,
    /// Whether the value meets the check.
    pub pass: bool,
    /// Whether a failure also fails a `--quick` run. Speed floors whose
    /// one-repetition values scatter across the floor gate full runs
    /// only.
    pub gates_quick: bool,
}

impl Check {
    /// A boolean verdict; gates quick and full runs.
    pub fn holds(name: &'static str, verdict: bool) -> Check {
        Check {
            name,
            value: verdict.to_string(),
            pass: verdict,
            gates_quick: true,
        }
    }

    /// A count that must be nonzero; gates quick and full runs.
    pub fn nonzero(name: &'static str, count: u64) -> Check {
        Check {
            name,
            value: format!("{count} (> 0)"),
            pass: count > 0,
            gates_quick: true,
        }
    }

    /// A floor `value >= floor`; gates quick and full runs.
    pub fn at_least(name: &'static str, value: f64, floor: f64) -> Check {
        Check {
            name,
            value: format!("{value:.2} (>= {floor})"),
            pass: value >= floor,
            gates_quick: true,
        }
    }

    /// This check gates full runs only.
    pub fn full_runs_only(self) -> Check {
        Check {
            gates_quick: false,
            ..self
        }
    }

    /// Whether this check fails a run of the given mode.
    pub fn fails(&self, quick: bool) -> bool {
        !self.pass && (self.gates_quick || !quick)
    }
}

/// The box a document was measured on.
#[derive(Debug)]
pub struct Equipment {
    /// Threads the process may run in parallel (affinity and cgroup
    /// quota applied, as `nproc` reports).
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// `git rev-parse HEAD` of the workspace.
    pub commit: String,
    /// Whether tracked files differed from `commit`.
    pub dirty: bool,
}

impl Equipment {
    /// Read the equipment from `/proc` and git. Call it once per
    /// process, before any document is written, so a run's own output
    /// does not mark the tree dirty.
    pub fn probe() -> Equipment {
        let unknown = || "unknown".to_string();
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .filter(|l| l.starts_with("model name"))
                    .find_map(|l| l.split_once(':').map(|(_, v)| v.trim().to_string()))
            })
            .unwrap_or_else(unknown);
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| unknown());
        let git = |args: &[&str]| {
            std::process::Command::new("git")
                .arg("-C")
                .arg(workspace_root())
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        Equipment {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            kernel,
            commit: git(&["rev-parse", "HEAD"]).unwrap_or_else(unknown),
            dirty: git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty()),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"kernel\": {}, \"commit\": {}, \"dirty\": {}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.kernel),
            json_str(&self.commit),
            self.dirty
        )
    }
}

/// A finished run of one experiment.
pub struct Report {
    /// The complete JSON document.
    pub document: String,
    /// The checks, in declaration order.
    pub checks: Vec<Check>,
    /// Wall time of `run`, in seconds.
    pub secs: f64,
}

impl Experiment {
    /// The committed document's file name.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.id)
    }

    /// Run the experiment on fresh registry counters and assemble its
    /// document: the log fields, the equipment, the body, the checks
    /// and the registry as it stood when the run finished.
    pub fn execute(&self, quick: bool, equipment: &Equipment) -> Report {
        ccmx_obs::registry().reset();
        // The pool's worker count is structural and survives the reset;
        // re-publish it so the metrics dump shows it.
        ccmx_linalg::pool::pool_stats();
        let start = Instant::now();
        let outcome = (self.run)(quick);
        let secs = start.elapsed().as_secs_f64();

        let mut doc = String::new();
        out!(doc, "{{");
        out!(doc, "  \"experiment\": {},", json_str(self.name));
        out!(doc, "  \"id\": {},", json_str(self.id));
        out!(doc, "  \"hypothesis\": {},", json_str(self.hypothesis));
        out!(
            doc,
            "  \"null_hypothesis\": {},",
            json_str(self.null_hypothesis)
        );
        let controlled: Vec<String> = self.controlled.iter().map(|c| json_str(c)).collect();
        out!(doc, "  \"controlled\": [{}],", controlled.join(", "));
        out!(doc, "  \"equipment\": {},", equipment.json());
        out!(doc, "  \"quick\": {quick},");
        doc.push_str(&outcome.body);
        let verdict = if outcome.checks.iter().any(|c| c.fails(quick)) {
            "fail"
        } else {
            "pass"
        };
        out!(doc, "  \"verdict\": \"{verdict}\",");
        let checks: Vec<String> = outcome
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": {}, \"value\": {}, \"pass\": {}, \"gates_quick\": {}}}",
                    json_str(c.name),
                    json_str(&c.value),
                    c.pass,
                    c.gates_quick
                )
            })
            .collect();
        push_rows(&mut doc, "checks", &checks);
        let metrics: Vec<String> = ccmx_obs::registry()
            .render()
            .lines()
            .map(json_str)
            .collect();
        out!(doc, "  \"metrics\": [");
        out!(doc, "{}", indented(&metrics).join(",\n"));
        out!(doc, "  ]");
        out!(doc, "}}");
        Report {
            document: doc,
            checks: outcome.checks,
            secs,
        }
    }
}

/// Every registered experiment, in id order.
pub static EXPERIMENTS: [Experiment; 8] = [
    Experiment {
        id: "e14",
        name: "e14_exact_kernels",
        hypothesis: "The Montgomery-CRT fast path returns the same exact determinant and \
                     rank as Bareiss and rational Gauss, and is faster than both from n = 16",
        null_hypothesis: "The CRT path is no faster than Bareiss or rational Gauss at any \
                          benched n",
        controlled: &[
            "32-bit uniform entries from rng_for(\"e14\"); n in {8, 16, 32, 64}",
            "rational Gauss capped at n = 32",
            "rank-deficient rows from rng_for(\"e14-rank-deficient\"): one duplicated \
             column, or one row the sum of two others",
            "best of 3 repetitions, 9 for the CRT rows; 1 in quick runs",
        ],
        run: e14::run,
    },
    Experiment {
        id: "e15",
        name: "e15_enumeration_engine",
        hypothesis: "Rank-one cursor updates beat fresh elimination on Gray walks, one-pass \
                     residue batching beats per-prime reduction, and a real enumeration stays \
                     on the incremental path",
        null_hypothesis: "Incremental and fresh walks cost the same, or enumeration falls back \
                          to fresh evaluation",
        controlled: &[
            "256-step Gray walks of singularity at k = 1, dim in {4, 8}",
            "one 32 x 32 matrix of 32-bit entries over its full CRT prime plan",
            "verdict enumeration: Singularity(4, 1) under pi_0",
            "best of 3 repetitions; 1 in quick runs",
        ],
        run: e15::run,
    },
    Experiment {
        id: "e16",
        name: "e16_observability",
        hypothesis: "A registered counter increment costs what a raw relaxed atomic add \
                     costs, and less than a mutexed counter",
        null_hypothesis: "The registry counter costs as much as a mutexed counter",
        controlled: &[
            "10^6 operations per row (10^5 spans, 10^3 renders), one thread",
            "best of 9 repetitions; 1 in quick runs",
        ],
        run: e16::run,
    },
    Experiment {
        id: "e17",
        name: "e17_resilience_stack",
        hypothesis: "Retries, idempotent replays, breaker degradation and aggressive chaos \
                     never change a metered bit",
        null_hypothesis: "Some fault schedule makes wire-metered bits differ from transcript \
                          bits",
        controlled: &[
            "ModPrimeSingularity dim 2, k 4, security 16 over loopback TCP",
            "4 storm clients, retry jitter seed 17",
            "aggressive chaos soak, seed 17; 8 trials (3 in quick runs)",
        ],
        run: e17::run,
    },
    Experiment {
        id: "e18",
        name: "e18_cluster",
        hypothesis: "Shards whose caches together cover a keyed working set multiply its \
                     throughput (2 -> 4 shards at least 1.6x), and chaos resharding moves no \
                     metered bit",
        null_hypothesis: "Throughput does not change with the shard count, or resharding \
                          diverges",
        controlled: &[
            "separate ccmx shard and coordinator processes, 2 workers per shard",
            "1,024 bounds keys against a 384-entry LRU per shard (96 keys in quick runs)",
            "10,240-connection ping wave (1,000 in quick runs)",
            "chaos reshard soak: 3 shards, seed 18, aggressive faults, join and leave \
             mid-run",
        ],
        run: e18::run,
    },
    Experiment {
        id: "e19",
        name: "e19_comm_avoiding",
        hypothesis: "Blocked Montgomery elimination moves a bounded multiple of n^3/sqrt(M) \
                     modelled words and beats the scalar sweeps by at least 1.3x on the \
                     n = 32 CRT determinant plan",
        null_hypothesis: "The blocked path is no faster than the scalar one, or silently falls \
                          back to it",
        controlled: &[
            "fast memory M from CCMX_FAST_MEM_WORDS (default 256 words); panel width from M",
            "32-bit entries from rng_for(\"e19\") over full CRT prime plans, n in {16, 32, \
             48, 64}",
            "best of 31 repetitions at n <= 32, 9 above; 1 in quick runs",
        ],
        run: e19::run,
    },
    Experiment {
        id: "e20",
        name: "e20_search",
        hypothesis: "The canonical-rectangle memo and the root worker pool make exact CC(f) \
                     search at least 1.5x faster at the largest instance without changing any \
                     answer",
        null_hypothesis: "The accelerants do not speed the search up, or change an answer",
        controlled: &[
            "instances: singularity 2x2 k 1 under pi_0, equality_8, shift_threshold_16, \
             intersect_ge2_18, intersect_ge2_20",
            "configurations: serial without memo, serial with memo, 4 threads with memo",
            "best of 5 repetitions; 1 in quick runs",
        ],
        run: e20::run,
    },
    Experiment {
        id: "e21",
        name: "e21_store_warm_restart",
        hypothesis: "A server restarted on its data directory re-serves its certified history \
                     bit for bit without recomputing it, at least 1.5x faster than cold",
        null_hypothesis: "The warm lifetime recomputes, diverges or recovers nothing",
        controlled: &[
            "one deterministic storm: 24 bounds, 16 singularity, 3 CC searches and 12 \
             idempotent runs (8, 6, 2 and 4 in quick runs)",
            "4 server workers; the same data directory for both lifetimes",
        ],
        run: e21::run,
    },
];

/// The registered experiment with this id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// The workspace root, where the committed documents live.
pub fn workspace_root() -> PathBuf {
    let bench = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    bench
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

/// Best-of-`reps` wall clock of `f` in milliseconds, with its last value.
pub(crate) fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        let v = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(v);
    }
    (best, out.expect("reps >= 1"))
}

/// `a / b`, or 0 when `b` is not positive.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Append `"key": [rows…],` with one pre-rendered JSON row per line.
pub(crate) fn push_rows(doc: &mut String, key: &str, rows: &[String]) {
    out!(doc, "  \"{key}\": [");
    if !rows.is_empty() {
        out!(doc, "{}", indented(rows).join(",\n"));
    }
    out!(doc, "  ],");
}

/// A registry counter's value, 0 if the series was never registered.
pub(crate) fn series(name: &'static str, labels: &[(&'static str, &'static str)]) -> u64 {
    ccmx_obs::registry()
        .counter_value(name, labels)
        .unwrap_or(0)
}

fn indented(rows: &[String]) -> Vec<String> {
    rows.iter().map(|r| format!("    {r}")).collect()
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_runs_skip_full_only_floors() {
        let floor = Check::at_least("speedup", 1.2, 1.3);
        assert!(floor.fails(true) && floor.fails(false));
        let full = floor.full_runs_only();
        assert!(!full.fails(true) && full.fails(false));
        assert!(!Check::nonzero("hits", 3).fails(false));
        assert!(Check::holds("ok", false).fails(true));
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
