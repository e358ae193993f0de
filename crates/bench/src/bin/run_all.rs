//! Runs the paper's artifacts by name — every figure and table, the
//! ablation, the multiclass extension and the non-stationary scenario
//! suite (`dmf_bench::experiments::REGISTRY`). Each prints the paper's
//! rows, writes `results/<name>.json` (`DMF_RESULTS_DIR` overrides the
//! directory) and has its claim checked.
//!
//! ```text
//! cargo run --release -p dmf-bench --bin run_all                     # all, standard scale
//! cargo run --release -p dmf-bench --bin run_all -- --quick          # all, small scale
//! cargo run --release -p dmf-bench --bin run_all -- fig5_accuracy table2_confusion --paper
//! ```
//!
//! With no names it runs every artifact in registry order. Exits 1 when
//! a claim fails and 2 on an unknown artifact name or flag.

use dmf_bench::experiments::REGISTRY;
use dmf_bench::{report, Scale};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, names): (Vec<&str>, Vec<&str>) = args
        .iter()
        .map(String::as_str)
        .partition(|a| a.starts_with('-'));
    let unknown: Vec<&str> = flags
        .iter()
        .filter(|f| !matches!(**f, "--quick" | "--paper"))
        .chain(
            names
                .iter()
                .filter(|n| !REGISTRY.iter().any(|e| e.name == **n)),
        )
        .copied()
        .collect();
    if !unknown.is_empty() {
        eprintln!("run_all: unknown argument(s) {unknown:?}");
        eprintln!("usage: run_all [ARTIFACT…] [--quick|--paper]; artifacts:");
        for entry in &REGISTRY {
            eprintln!("  {}", entry.name);
        }
        std::process::exit(2);
    }
    let scale = Scale::from_args(&args);
    let seed = 42;
    println!("running at scale {}", scale.name());

    let t = Instant::now();
    let mut failed = Vec::new();
    for entry in REGISTRY
        .iter()
        .filter(|e| names.is_empty() || names.contains(&e.name))
    {
        println!("\n[{}]", entry.name);
        let start = Instant::now();
        let result = (entry.run)(&scale, seed);
        result.print_table();
        let path = report::write_json(entry.name, &*result);
        let holds = result.claim();
        println!(
            "claim {}; {:.1}s -> {}",
            if holds { "holds" } else { "VIOLATED" },
            start.elapsed().as_secs_f64(),
            path.display()
        );
        if !holds {
            failed.push(entry.name);
        }
    }

    let secs = t.elapsed().as_secs_f64();
    if !failed.is_empty() {
        eprintln!("\nclaims violated after {secs:.1}s: {failed:?}");
        std::process::exit(1);
    }
    println!("\nall done in {secs:.1}s — every claim holds");
}
