//! Tracked quality suite: runs the non-stationary scenario registry
//! end-to-end and writes a schema-stable `QUALITY.json` — the quality
//! counterpart of the speed numbers `benchmark/` produces. Exits
//! non-zero when any scenario's final-window AUC breaks its pinned
//! floor, which is what makes the CI `quality-gate` job a real gate.
//!
//! ```text
//! cargo run --release --bin scenario_suite                  # standard → QUALITY.json
//! cargo run --release --bin scenario_suite -- --quick       # CI gate scale
//! cargo run --release --bin scenario_suite -- --out Q.json --label tracked
//! ```
//!
//! Byte-deterministic per registry seed: two runs at the same scale
//! produce identical files, so diffs in a committed `QUALITY.json`
//! are real quality changes.

use dmf_bench::experiments::{scenario, Artifact};
use dmf_bench::{flag_value, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    let out = flag_value(&args, "--out").unwrap_or_else(|| "QUALITY.json".into());
    let label = flag_value(&args, "--label").unwrap_or_else(|| "current".into());

    let suite = scenario::run(&scale, &label);

    println!("scenario_suite — scale {} (label: {label})", suite.scale);
    suite.print_table();

    let json = serde_json::to_string_pretty(&suite).expect("serialize quality report");
    std::fs::write(&out, json).expect("write QUALITY json");
    println!("written: {out}");

    if !suite.all_pass {
        eprintln!("quality gate BROKEN: a scenario's final-window AUC fell below its floor");
        std::process::exit(1);
    }
}
