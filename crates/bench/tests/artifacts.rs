//! Keeps the README's artifact table, the registry and `run_all`'s
//! command line honest about each other: every registry entry is in
//! the README's "Paper artifact → `run_all` name" table and every name
//! the table lists is in the registry — either drift direction fails —
//! and `run_all` refuses a name or flag it does not know instead of
//! ignoring it.

use dmf_bench::experiments::REGISTRY;
use std::collections::BTreeSet;
use std::process::Command;

/// First-column names of the README's artifact table.
fn documented_names() -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(path).expect("README.md exists");
    let section = readme
        .split("## Paper artifact → `run_all` name")
        .nth(1)
        .expect("README has the artifact section");
    section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
        .map(String::from)
        .collect()
}

fn registry_names() -> BTreeSet<String> {
    let names: BTreeSet<String> = REGISTRY.iter().map(|e| e.name.to_string()).collect();
    assert_eq!(names.len(), REGISTRY.len(), "registry names must be unique");
    names
}

#[test]
fn every_registry_artifact_is_in_the_readme_table() {
    let documented = documented_names();
    let missing: Vec<_> = registry_names()
        .into_iter()
        .filter(|n| !documented.contains(n))
        .collect();
    assert!(
        missing.is_empty(),
        "artifacts absent from README: {missing:?}"
    );
}

#[test]
fn every_readme_artifact_is_in_the_registry() {
    let registered = registry_names();
    let phantom: Vec<_> = documented_names()
        .into_iter()
        .filter(|n| !registered.contains(n))
        .collect();
    assert!(
        phantom.is_empty(),
        "README lists unknown artifacts: {phantom:?}"
    );
}

#[test]
fn run_all_rejects_unknown_names_and_flags_with_the_valid_names() {
    for bad in ["fig2_missing", "--fast"] {
        let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
            .args(["table1_tau_portions", bad, "--quick"])
            .output()
            .expect("run_all starts");
        assert_eq!(out.status.code(), Some(2), "{bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(bad), "{stderr}");
        for entry in &REGISTRY {
            assert!(stderr.contains(entry.name), "{stderr}");
        }
        // Refused before running anything.
        assert!(out.stdout.is_empty());
    }
}
