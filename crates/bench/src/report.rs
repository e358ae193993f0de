//! Result persistence: `run_all` writes each artifact's record as JSON
//! under `results/` so write-ups can cite reproducible numbers.

use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Directory experiment outputs are written to (created on demand).
fn results_dir() -> PathBuf {
    let dir = std::env::var("DMF_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Serializes `value` to `results/<name>.json` and returns the path.
pub fn write_json<T: Serialize + ?Sized>(name: &str, value: &T) -> PathBuf {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize result");
    fs::write(&path, json).expect("write result");
    path
}

/// Formats a fixed-width table row for stdout.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths.iter())
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_formats_fixed_width() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }

    #[test]
    fn write_json_roundtrip() {
        std::env::set_var(
            "DMF_RESULTS_DIR",
            std::env::temp_dir().join("dmf-results-test"),
        );
        let path = write_json("unit-test", &vec![1, 2, 3]);
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains('1'));
        fs::remove_file(path).ok();
        std::env::remove_var("DMF_RESULTS_DIR");
    }
}
