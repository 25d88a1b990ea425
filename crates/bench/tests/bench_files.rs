//! The committed `BENCH_*.json` documents and the experiment registry
//! describe the same set of experiments: one file per registered id, no
//! file without an id, and every file a passing full run that says
//! where it was measured.

use std::collections::BTreeSet;

use ccmx_bench::registry::{workspace_root, EXPERIMENTS};

fn committed_files() -> BTreeSet<String> {
    std::fs::read_dir(workspace_root())
        .expect("read the workspace root")
        .map(|entry| {
            entry
                .expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect()
}

#[test]
fn registry_ids_are_unique() {
    let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate registry id");
}

#[test]
fn every_bench_file_belongs_to_a_registered_id() {
    let registered: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.file_name()).collect();
    assert_eq!(
        committed_files(),
        registered,
        "BENCH files at the workspace root and registry ids differ"
    );
}

#[test]
fn committed_documents_record_equipment_and_pass() {
    for e in &EXPERIMENTS {
        let name = e.file_name();
        let doc = std::fs::read_to_string(workspace_root().join(&name))
            .unwrap_or_else(|err| panic!("read {name}: {err}"));
        assert!(
            doc.contains(&format!("\"id\": \"{}\",", e.id)),
            "{name} does not carry its registry id"
        );
        let equipment = doc
            .lines()
            .find(|l| l.trim_start().starts_with("\"equipment\": {"))
            .unwrap_or_else(|| panic!("{name} records no equipment"));
        for field in [
            "\"nproc\": ",
            "\"cpu\": \"",
            "\"kernel\": \"",
            "\"commit\": \"",
            "\"dirty\": ",
        ] {
            assert!(equipment.contains(field), "{name} equipment lacks {field}");
        }
        assert!(
            doc.contains("\"quick\": false,"),
            "{name} was written by a quick run"
        );
        assert!(
            doc.contains("\"verdict\": \"pass\",") && !doc.contains("\"pass\": false"),
            "{name} records a failed check"
        );
    }
}
