//! Persistence for datasets and traces.
//!
//! Two formats:
//!
//! * **JSON** ([`save_dataset_json`] / [`load_dataset_json`], and the
//!   trace equivalents) — lossless and self-describing. Only this
//!   module's tests call it: no binary or crate in the workspace
//!   records its inputs this way, and it is the crate's one non-test
//!   use of `serde_json` (ROADMAP lists it with the harness-only code).
//! * **Matrix text** ([`write_matrix_text`] / [`read_matrix_text`]) —
//!   the whitespace-separated square-matrix layout used by the public
//!   p2psim/Meridian matrix dumps, with `nan` marking missing entries.
//!   This is the drop-in path for users who have the paper's real
//!   datasets on disk.

use crate::{Dataset, DynamicTrace, Metric};
use dmf_linalg::{Mask, Matrix};
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// Saves a dataset as JSON.
pub fn save_dataset_json(dataset: &Dataset, path: &Path) -> io::Result<()> {
    let json = serde_json::to_string(dataset).map_err(io::Error::other)?;
    fs::write(path, json)
}

/// Loads a dataset from JSON.
pub fn load_dataset_json(path: &Path) -> io::Result<Dataset> {
    let text = fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(io::Error::other)
}

/// Saves a dynamic trace as JSON.
pub fn save_trace_json(trace: &DynamicTrace, path: &Path) -> io::Result<()> {
    let json = serde_json::to_string(trace).map_err(io::Error::other)?;
    fs::write(path, json)
}

/// Loads a dynamic trace from JSON, validating time ordering.
pub fn load_trace_json(path: &Path) -> io::Result<DynamicTrace> {
    let text = fs::read_to_string(path)?;
    let trace: DynamicTrace = serde_json::from_str(&text).map_err(io::Error::other)?;
    if !trace.is_time_ordered() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "trace measurements are not time-ordered",
        ));
    }
    Ok(trace)
}

/// Writes a square matrix in whitespace text form; unobserved entries
/// become `nan`.
pub fn write_matrix_text(dataset: &Dataset, path: &Path) -> io::Result<()> {
    let n = dataset.len();
    let mut out = fs::File::create(path)?;
    for i in 0..n {
        let mut row = String::new();
        for j in 0..n {
            if j > 0 {
                row.push(' ');
            }
            match dataset.value(i, j) {
                Some(v) => row.push_str(&format!("{v}")),
                None => row.push_str("nan"),
            }
        }
        row.push('\n');
        out.write_all(row.as_bytes())?;
    }
    Ok(())
}

/// Reads a square whitespace matrix; `nan` (case-insensitive) and
/// negative values are treated as missing (public RTT dumps use both
/// conventions).
pub fn read_matrix_text(path: &Path, name: &str, metric: Metric) -> io::Result<Dataset> {
    let text = fs::read_to_string(path)?;
    let mut rows: Vec<Vec<Option<f64>>> = Vec::new();
    for (line_no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut row = Vec::new();
        for tok in line.split_whitespace() {
            if tok.eq_ignore_ascii_case("nan") {
                row.push(None);
                continue;
            }
            let v: f64 = tok.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: bad number {tok:?}: {e}", line_no + 1),
                )
            })?;
            row.push(if v < 0.0 { None } else { Some(v) });
        }
        rows.push(row);
    }
    let n = rows.len();
    if rows.iter().any(|r| r.len() != n) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "matrix text is not square",
        ));
    }
    let mut values = Matrix::zeros(n, n);
    let mut mask = Mask::none(n, n);
    for (i, row) in rows.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            if let Some(v) = cell {
                if i != j {
                    values[(i, j)] = *v;
                    mask.set(i, j, true);
                }
            }
        }
    }
    Ok(Dataset::new(name, metric, values, mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtt::meridian_like;
    use std::env;

    fn tmp(name: &str) -> std::path::PathBuf {
        env::temp_dir().join(format!("dmf-datasets-test-{name}-{}", std::process::id()))
    }

    #[test]
    fn dataset_json_roundtrip() {
        let d = meridian_like(20, 1);
        let path = tmp("ds.json");
        save_dataset_json(&d, &path).unwrap();
        let back = load_dataset_json(&path).unwrap();
        assert_eq!(back.values, d.values);
        assert_eq!(back.mask, d.mask);
        assert_eq!(back.metric, d.metric);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_json_roundtrip() {
        let cfg = crate::dynamic::HarvardConfig::new(10, 500);
        let (trace, _) = crate::dynamic::harvard_like(&cfg, 2);
        let path = tmp("trace.json");
        save_trace_json(&trace, &path).unwrap();
        let back = load_trace_json(&path).unwrap();
        assert_eq!(back.len(), trace.len());
        assert_eq!(back.measurements[0], trace.measurements[0]);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_json_rejects_unordered() {
        let trace = DynamicTrace {
            name: "bad".into(),
            metric: Metric::Rtt,
            nodes: 2,
            measurements: vec![
                crate::Measurement {
                    time_s: 5.0,
                    from: 0,
                    to: 1,
                    value: 1.0,
                },
                crate::Measurement {
                    time_s: 1.0,
                    from: 1,
                    to: 0,
                    value: 1.0,
                },
            ],
        };
        let path = tmp("unordered.json");
        save_trace_json(&trace, &path).unwrap();
        assert!(load_trace_json(&path).is_err());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn matrix_text_roundtrip() {
        let d = meridian_like(12, 3);
        let path = tmp("matrix.txt");
        write_matrix_text(&d, &path).unwrap();
        let back = read_matrix_text(&path, "roundtrip", Metric::Rtt).unwrap();
        assert_eq!(back.len(), 12);
        for (i, j) in d.mask.iter_known() {
            let a = d.values[(i, j)];
            let b = back.values[(i, j)];
            assert!((a - b).abs() < 1e-9 * a.abs().max(1.0));
        }
        // Diagonal must be masked on read.
        assert_eq!(back.value(0, 0), None);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn matrix_text_negative_is_missing() {
        let path = tmp("neg.txt");
        fs::write(&path, "nan 5\n-1 nan\n").unwrap();
        let d = read_matrix_text(&path, "neg", Metric::Rtt).unwrap();
        assert_eq!(d.value(0, 1), Some(5.0));
        assert_eq!(d.value(1, 0), None);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn matrix_text_rejects_ragged() {
        let path = tmp("ragged.txt");
        fs::write(&path, "1 2 3\n4 5\n").unwrap();
        assert!(read_matrix_text(&path, "ragged", Metric::Rtt).is_err());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn matrix_text_rejects_garbage() {
        let path = tmp("garbage.txt");
        fs::write(&path, "1 x\n2 3\n").unwrap();
        assert!(read_matrix_text(&path, "garbage", Metric::Rtt).is_err());
        fs::remove_file(&path).ok();
    }
}
