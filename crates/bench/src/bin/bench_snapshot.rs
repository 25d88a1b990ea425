//! Run the registered experiments (`ccmx_bench::registry`), print every
//! check, and write the committed `BENCH_<id>.json` documents.
//!
//! Usage: `bench_snapshot [--quick] [ID…]` — with no ids every entry
//! runs. `--quick` takes one repetition of smaller workloads and writes
//! nothing; it still fails on every check except the speed floors that
//! gate full runs only. Full runs write each document at the workspace
//! root through a temporary file and a rename. The exit status is
//! non-zero when any gating check failed, and the failed checks are
//! named on stderr. E18 spawns the sibling `ccmx` binary, so build it
//! first (`cargo build --release`).

use std::process::ExitCode;

use ccmx_bench::registry::{self, Equipment, Experiment, EXPERIMENTS};

fn main() -> ExitCode {
    let mut quick = false;
    let mut selected: Vec<&'static Experiment> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else if let Some(e) = registry::find(&arg) {
            selected.push(e);
        } else {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
            eprintln!(
                "bench_snapshot: unknown argument {arg:?}; usage: bench_snapshot [--quick] [{}]…",
                ids.join("|")
            );
            return ExitCode::from(2);
        }
    }
    if selected.is_empty() {
        selected = EXPERIMENTS.iter().collect();
    }

    let equipment = Equipment::probe();
    let mut failed: Vec<String> = Vec::new();
    for e in selected {
        let report = e.execute(quick, &equipment);
        println!("{} {} ({:.1} s)", e.id, e.name, report.secs);
        for c in &report.checks {
            let status = if c.pass {
                "pass"
            } else if c.fails(quick) {
                "FAIL"
            } else {
                "fail (gates full runs only)"
            };
            println!("  {status:<4}  {} = {}", c.name, c.value);
            if c.fails(quick) {
                failed.push(format!("{}.{}", e.id, c.name));
            }
        }
        if !quick {
            let path = registry::workspace_root().join(e.file_name());
            let tmp = path.with_extension("json.tmp");
            let written =
                std::fs::write(&tmp, &report.document).and_then(|()| std::fs::rename(&tmp, &path));
            match written {
                Ok(()) => println!("  wrote {}", path.display()),
                Err(err) => {
                    eprintln!("bench_snapshot: cannot write {}: {err}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_snapshot: {} check(s) failed: {}",
            failed.len(),
            failed.join(", ")
        );
        ExitCode::FAILURE
    }
}
