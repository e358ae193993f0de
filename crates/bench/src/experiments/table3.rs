//! Table 3 — the δ values that produce 5/10/15 % erroneous labels.
//!
//! Type 1 (flip near τ) for all three datasets; Type 2
//! (underestimation bias) additionally for HP-S3 — exactly the four
//! columns of the paper's table. δ grows with the target level.

use crate::experiments::scale::Scale;
use crate::experiments::trio::Trio;
use crate::experiments::Artifact;
use crate::report;
use dmf_simnet::errors::{calibrate_delta, BandErrorKind};
use serde::{Deserialize, Serialize};

/// Error levels of the table rows.
pub const LEVELS: [f64; 3] = [0.05, 0.10, 0.15];

/// One column: a dataset/error-type pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Table3Column {
    /// Dataset name.
    pub dataset: String,
    /// "Type 1" or "Type 2".
    pub error_type: String,
    /// Unit of δ (ms / Mbps).
    pub unit: String,
    /// `(level, delta)` rows.
    pub rows: Vec<(f64, f64)>,
}

/// The full table.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Table3 {
    /// Harvard-T1, Meridian-T1, HP-S3-T1, HP-S3-T2.
    pub columns: Vec<Table3Column>,
}

/// Runs the calibration.
pub(crate) fn run(scale: &Scale, seed: u64) -> Table3 {
    let trio = Trio::build(scale, seed);
    let mut columns = Vec::new();
    for bundle in trio.bundles() {
        let tau = bundle.dataset.median();
        let rows = LEVELS
            .iter()
            .map(|&level| {
                (
                    level,
                    calibrate_delta(&bundle.dataset, tau, level, BandErrorKind::FlipNearTau),
                )
            })
            .collect();
        columns.push(Table3Column {
            dataset: bundle.name.to_string(),
            error_type: "Type 1".into(),
            unit: bundle.dataset.metric.unit().into(),
            rows,
        });
    }
    // HP-S3 Type 2.
    {
        let bundle = &trio.hps3;
        let tau = bundle.dataset.median();
        let rows = LEVELS
            .iter()
            .map(|&level| {
                (
                    level,
                    calibrate_delta(
                        &bundle.dataset,
                        tau,
                        level,
                        BandErrorKind::UnderestimationBias,
                    ),
                )
            })
            .collect();
        columns.push(Table3Column {
            dataset: bundle.name.to_string(),
            error_type: "Type 2".into(),
            unit: bundle.dataset.metric.unit().into(),
            rows,
        });
    }
    Table3 { columns }
}

impl Artifact for Table3 {
    fn print_table(&self) {
        println!("Table 3 — δ values for target error levels");
        let widths = [7, 20, 20, 18, 18];
        let header: Vec<String> = std::iter::once("error%".to_string())
            .chain(
                self.columns
                    .iter()
                    .map(|c| format!("{} {} ({})", c.dataset, c.error_type, c.unit)),
            )
            .collect();
        println!("{}", report::row(&header, &widths));
        for (idx, &level) in LEVELS.iter().enumerate() {
            let cells: Vec<String> = std::iter::once(format!("{:.0}%", level * 100.0))
                .chain(self.columns.iter().map(|c| format!("{:.1}", c.rows[idx].1)))
                .collect();
            println!("{}", report::row(&cells, &widths));
        }
    }

    /// δ grows strictly with the error level in every column.
    fn claim(&self) -> bool {
        self.columns
            .iter()
            .all(|c| c.rows.windows(2).all(|w| w[0].1 < w[1].1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_quick_scale() {
        let t = run(&Scale::quick(), 51);
        assert_eq!(t.columns.len(), 4);
        assert!(t.claim(), "δ must grow with the error level");
        for c in &t.columns {
            for &(_, delta) in &c.rows {
                assert!(
                    delta > 0.0,
                    "{} {}: δ must be positive",
                    c.dataset,
                    c.error_type
                );
            }
        }
    }
}
