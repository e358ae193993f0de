//! `compare A/results.json B/results.json`: per workload row, each
//! end-to-end metric's two values, the ratio with its base, and a
//! verdict against the bound in `BENCHMARK.json`.
//!
//! Two result files hold one run per workload each, so a verdict here is
//! a first reading: `regress` when B is worse than A by more than the
//! bound, `pass` otherwise, `unresolved` when a side has no trustworthy
//! value (workload missing, an output check failed, operations failed).
//! A claim still needs the repeated, alternated pairs the README
//! describes.

use crate::report::format_value;
use serde::Value;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regress,
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a`; negative when it
/// is better. `higher_is_better` gives the direction.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn verdict(a: Option<f64>, b: Option<f64>, higher_is_better: bool, bound: f64) -> Verdict {
    match (a, b) {
        (Some(a), Some(b)) if a != 0.0 && a.is_finite() && b.is_finite() => {
            if worsening(a, b, higher_is_better) > bound {
                Verdict::Regress
            } else {
                Verdict::Pass
            }
        }
        _ => Verdict::Unresolved,
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn text<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Value::String(s)) => Some(s),
        _ => None,
    }
}

fn number(v: &Value, key: &str) -> Option<f64> {
    match v.get(key) {
        Some(Value::Number(n)) => Some(*n),
        _ => None,
    }
}

/// A workload's value of `metric`, if the run can be trusted: it passed
/// its output checks and no operation failed.
fn trusted_value(results: &Value, workload: &str, metric: &str) -> Option<f64> {
    let w = results.get("workloads")?.get(workload)?;
    let sound = w.get("correct") == Some(&Value::Bool(true)) && number(w, "failed") == Some(0.0);
    if !sound {
        return None;
    }
    number(w.get("metrics")?.get(metric)?, "value")
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bounds" {
            bounds_path = it.next().ok_or("--bounds needs a path")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("compare takes two results.json files".into());
    };
    if !Path::new(&bounds_path).exists() {
        return Err(format!(
            "{bounds_path} not found: run from the repo root or pass --bounds"
        ));
    }
    let (a, b, bench) = (load(a_path)?, load(b_path)?, load(&bounds_path)?);
    let Some(Value::Array(metrics)) = bench.get("end_to_end") else {
        return Err(format!("{bounds_path}: no end_to_end list"));
    };
    let Some(Value::Array(workloads)) = bench.get("workloads") else {
        return Err(format!("{bounds_path}: no workloads list"));
    };
    println!("A = {a_path}\nB = {b_path}   (B/A: the base is A)");
    let mut regressed = false;
    for w in workloads {
        let workload = text(w, "name").ok_or("workload without a name")?;
        println!("{workload}");
        for m in metrics {
            let name = text(m, "name").ok_or("metric without a name")?;
            let unit = text(m, "unit").unwrap_or("");
            let higher = text(m, "better") == Some("higher");
            let bound = number(m, "bound").ok_or("metric without a bound")?;
            let (va, vb) = (
                trusted_value(&a, workload, name),
                trusted_value(&b, workload, name),
            );
            let v = verdict(va, vb, higher, bound);
            regressed |= v == Verdict::Regress;
            let show = |x: Option<f64>| x.map_or("-".to_string(), format_value);
            let ratio = match (va, vb) {
                (Some(x), Some(y)) if x != 0.0 => format!("{:.4}", y / x),
                _ => "-".into(),
            };
            let exact = if va.is_some() && va == vb {
                " (identical)"
            } else {
                ""
            };
            println!(
                "   {name:<12} A {:>16}  B {:>16} {unit:<5} B/A {ratio:>8}  bound {:>4.0}% {}  {}{exact}",
                show(va),
                show(vb),
                bound * 100.0,
                if higher { "higher is better" } else { "lower is better " },
                match v {
                    Verdict::Pass => "pass",
                    Verdict::Regress => "REGRESS",
                    Verdict::Unresolved => "unresolved",
                },
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, false) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn verdicts_hold_the_bound_and_refuse_missing_values() {
        assert_eq!(verdict(Some(100.0), Some(95.0), true, 0.10), Verdict::Pass);
        assert_eq!(
            verdict(Some(100.0), Some(85.0), true, 0.10),
            Verdict::Regress
        );
        assert_eq!(
            verdict(Some(10.0), Some(12.0), false, 0.10),
            Verdict::Regress
        );
        assert_eq!(verdict(Some(10.0), Some(9.0), false, 0.10), Verdict::Pass);
        assert_eq!(verdict(None, Some(9.0), false, 0.10), Verdict::Unresolved);
        assert_eq!(
            verdict(Some(0.0), Some(9.0), false, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_failed_check_or_operation_makes_a_value_untrusted() {
        let results = |correct: bool, failed: f64| -> Value {
            serde_json::from_str(&format!(
                r#"{{"workloads":{{"w":{{"correct":{correct},"failed":{failed},
                    "metrics":{{"auc":{{"value":0.9,"unit":"ratio"}}}}}}}}}}"#
            ))
            .unwrap()
        };
        assert_eq!(trusted_value(&results(true, 0.0), "w", "auc"), Some(0.9));
        assert_eq!(trusted_value(&results(false, 0.0), "w", "auc"), None);
        assert_eq!(trusted_value(&results(true, 3.0), "w", "auc"), None);
        assert_eq!(trusted_value(&results(true, 0.0), "other", "auc"), None);
    }
}
