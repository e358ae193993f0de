//! The machine and build a result was measured on.

use crate::report::{num, obj};
use serde::Value;

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Connections (and generator threads) the serving workloads use: never
/// more than there are cores, and at most two.
pub fn serve_connections() -> u32 {
    cores().min(2) as u32
}

/// Resident set size of this process, MB, from `/proc/self/status`
/// (0 where that file does not exist).
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `host` block of a result file.
pub fn block() -> Value {
    let cores = cores();
    obj(vec![
        ("logical_cores", num(cores as f64)),
        (
            "simd_tier",
            Value::String(format!("{:?}", dmf_linalg::simd::active())),
        ),
        (
            "dmf_force_scalar",
            std::env::var("DMF_FORCE_SCALAR").map_or(Value::Null, Value::String),
        ),
        (
            "rustc",
            Value::String(env!("DMF_BENCHMARK_RUSTC").to_string()),
        ),
        ("serve_connections", num(f64::from(serve_connections()))),
        // One generator thread plus one server thread per connection
        // already need two cores; below that every serving number is
        // measured with threads taking turns.
        ("oversubscribed", Value::Bool(cores < 2)),
    ])
}
