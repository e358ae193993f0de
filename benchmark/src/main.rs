//! The repo's benchmark (see `README.md` beside this package and
//! `/BENCHMARK.json`).
//!
//! ```text
//! dmf-benchmark run --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <dir>]
//! dmf-benchmark run --all [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--out <dir>]
//! dmf-benchmark compare <A/results.json> <B/results.json> [--bounds <BENCHMARK.json>]
//! ```
//!
//! `run --workload` is the form the benchmark contract drives: it runs
//! one workload, prints every metric by name with its unit and ends its
//! standard output with one JSON result object. `run --all` runs the
//! five workloads one after the other, each in a process of its own so
//! that memory and allocator state never leak from one into the next,
//! and writes `results.json`.

mod batch;
mod catalog;
mod compare;
mod gen;
mod host;
mod probes;
mod report;
mod serve;
mod stats;
mod trace;

use report::Outcome;
use serde::Value;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// Hard stop for a run that hangs outright (a deadlocked server thread
/// cannot be cancelled from outside): no result is printed and the exit
/// code is non-zero, well inside the contract's 180 s.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

struct RunArgs {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    "usage:\n  run --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <dir>]\n  \
     run --all [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--out <dir>]\n  \
     compare <A/results.json> <B/results.json> [--bounds <BENCHMARK.json>]\n\
     workloads: "
        .to_string()
        + &catalog::WORKLOADS.join(", ")
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        all: false,
        seed: 1,
        seconds: 20.0,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--all" => parsed.all = true,
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds.is_finite() && parsed.seconds >= 1.0 && parsed.seconds <= 60.0)
                {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match (&parsed.workload, parsed.all) {
        (Some(_), true) => Err("give --workload or --all, not both".into()),
        (None, false) => Err("give --workload <name> or --all".into()),
        (Some(w), false) if !catalog::WORKLOADS.contains(&w.as_str()) => {
            Err(format!("unknown workload {w}"))
        }
        _ => Ok(parsed),
    }
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    // A traced run sets up once and times a quarter as long.
    let (setups, seconds) = if traced {
        (1, seconds / 4.0)
    } else {
        (SETUPS, seconds)
    };
    let mut out = match name {
        "serve-read" => serve::run(
            "serve-read",
            gen::Mix::SERVE_READ,
            seed,
            seconds,
            traced,
            setups,
        ),
        "serve-write" => serve::run(
            "serve-write",
            gen::Mix::SERVE_WRITE,
            seed,
            seconds,
            traced,
            setups,
        ),
        "probe-wire" => batch::probe_wire(seed, seconds, traced, setups),
        "sim-fused" => batch::sim_fused(seed, seconds, traced, setups),
        "train-oracle" => batch::train_oracle(seed, seconds, traced, setups),
        other => unreachable!("workload {other} passed validation"),
    };
    if traced {
        probes::run_all(&mut out);
        report::trace_shares(&mut out);
    }
    out
}

fn write_json(path: &Path, v: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn result_file(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("result-{workload}.json"))
}

/// Runs one workload in this process. The last line printed is the
/// result object.
fn run_one(args: &RunArgs, workload: &str) -> Result<bool, String> {
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("benchmark: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let out = run_workload(workload, args.seed, args.seconds, args.traced);
    out.print();
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let record = out.to_json(args.seed, args.seconds);
        write_json(&result_file(dir, workload), &record)?;
        if args.traced {
            let path = dir.join(format!("trace-{workload}.json"));
            let body = serde_json::to_string(&trace::to_json(workload, &out.spans))
                .map_err(|e| e.to_string())?;
            std::fs::write(&path, body + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    println!("{}", out.result_line());
    Ok(out.correct())
}

/// Runs every workload, each as a child process of this executable, and
/// gathers their result files into `<out>/results.json`.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in catalog::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if let Some(dir) = &args.out {
            cmd.arg("--out").arg(dir);
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn {workload}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut last = String::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("{workload}: {e}"))?;
            // The child's final line is its result object: keep it for
            // the summary instead of echoing it between the reports.
            if !last.is_empty() {
                println!("{last}");
            }
            last = line;
        }
        let status = child.wait().map_err(|e| format!("wait {workload}: {e}"))?;
        all_correct &= status.success();
        // The child's full record (checks, detail) where it wrote one,
        // its result line otherwise.
        let record = match &args.out {
            Some(dir) => std::fs::read_to_string(result_file(dir, workload))
                .map_err(|e| format!("{workload} wrote no result file: {e}"))?,
            None => last,
        };
        let record: Value = serde_json::from_str(&record)
            .map_err(|e| format!("{workload} left no result object: {e}"))?;
        workloads.push((workload.to_string(), record));
    }
    if let Some(dir) = &args.out {
        let results = report::obj(vec![
            ("seed", report::num(args.seed as f64)),
            ("seconds", report::num(args.seconds)),
            ("traced", Value::Bool(args.traced)),
            ("host", host::block()),
            ("workloads", Value::Object(workloads)),
        ]);
        let path = dir.join("results.json");
        write_json(&path, &results)?;
        println!("wrote {}", path.display());
    }
    println!(
        "{}",
        if all_correct {
            "all workloads passed their output checks"
        } else {
            "AT LEAST ONE WORKLOAD FAILED ITS OUTPUT CHECKS"
        }
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| match a.workload.clone() {
            Some(w) => run_one(&a, &w),
            None => run_all(&a),
        }),
        Some("compare") => compare::main(&args[1..]),
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
