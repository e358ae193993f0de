//! Figure 1 — normalized singular values of an RTT and an ABW matrix
//! and of their binary class matrices.
//!
//! Paper setup: a 2255×2255 RTT matrix from Meridian, a 201×201 ABW
//! matrix from HP-S3, class matrices thresholded at the median, top-20
//! spectra normalized to σ₁ = 1. Expected shape: all four curves decay
//! fast (low effective rank), with class matrices decaying at least as
//! fast as their quantity counterparts.

use crate::experiments::scale::Scale;
use crate::experiments::trio::Trio;
use crate::experiments::Artifact;
use crate::report;
use dmf_linalg::decomp::normalized_spectrum;
use dmf_linalg::svd::randomized_top_k;
use dmf_linalg::Matrix;
use serde::{Deserialize, Serialize};

/// One spectrum (normalized, descending).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Spectrum {
    /// Curve label as in the paper legend.
    pub label: String,
    /// Matrix side length used.
    pub n: usize,
    /// Normalized singular values (σ/σ₁), top-k.
    pub values: Vec<f64>,
}

/// The four curves of Figure 1.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Fig1 {
    /// `RTT`, `RTT class`, `ABW`, `ABW class` in paper order.
    pub spectra: Vec<Spectrum>,
}

fn top_spectrum(label: &str, m: &Matrix, k: usize, seed: u64) -> Spectrum {
    let svd = randomized_top_k(m, k, 8, 3, seed);
    Spectrum {
        label: label.to_string(),
        n: m.rows(),
        values: normalized_spectrum(&svd.singular_values),
    }
}

/// Runs the experiment.
pub(crate) fn run(scale: &Scale, seed: u64) -> Fig1 {
    let trio = Trio::build(scale, seed);
    let top_k = 20;

    // Cut the paper's submatrix sizes where the dataset allows.
    let rtt = trio
        .meridian
        .dataset
        .head(trio.meridian.dataset.len().min(2255));
    let abw = trio.hps3.dataset.head(trio.hps3.dataset.len().min(201));

    let rtt_class = rtt.classify(rtt.median());
    let abw_class = abw.classify(abw.median());

    // Unobserved entries enter as zeros, as in the raw matrices the
    // paper decomposes.
    let rtt_m = rtt.mask.apply(&rtt.values, 0.0);
    let abw_m = abw.mask.apply(&abw.values, 0.0);

    Fig1 {
        spectra: vec![
            top_spectrum("RTT", &rtt_m, top_k, seed ^ 1),
            top_spectrum("RTT class", &rtt_class.labels, top_k, seed ^ 2),
            top_spectrum("ABW", &abw_m, top_k, seed ^ 3),
            top_spectrum("ABW class", &abw_class.labels, top_k, seed ^ 4),
        ],
    }
}

impl Artifact for Fig1 {
    fn print_table(&self) {
        println!("Figure 1 — normalized singular values (top 20)");
        let widths = [3, 10, 10, 10, 10];
        let header: Vec<String> = std::iter::once("#".to_string())
            .chain(self.spectra.iter().map(|s| s.label.clone()))
            .collect();
        println!("{}", report::row(&header, &widths));
        for i in 0..20 {
            let cells: Vec<String> = std::iter::once(format!("{}", i + 1))
                .chain(self.spectra.iter().map(|s| format!("{:.4}", s.values[i])))
                .collect();
            println!("{}", report::row(&cells, &widths));
        }
    }

    /// Fast decay: by the 10th singular value every curve has fallen
    /// below 35 % of σ₁.
    fn claim(&self) -> bool {
        self.spectra
            .iter()
            .all(|s| s.values.get(9).map(|&v| v < 0.35).unwrap_or(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shape_holds_at_quick_scale() {
        let fig = run(&Scale::quick(), 42);
        assert_eq!(fig.spectra.len(), 4);
        for s in &fig.spectra {
            assert_eq!(s.values.len(), 20);
            assert!(
                (s.values[0] - 1.0).abs() < 1e-9,
                "{}: σ1 must normalize to 1",
                s.label
            );
            for w in s.values.windows(2) {
                assert!(
                    w[0] >= w[1] - 1e-9,
                    "{}: spectrum must be descending",
                    s.label
                );
            }
        }
        assert!(fig.claim(), "all four spectra must decay fast");
    }
}
