//! Erroneous-label injection (paper §6.3) and its calibration
//! (Table 3).
//!
//! Four error models, exercised by Figure 6:
//!
//! * **Type 1 — flip near τ**: labels of paths whose quantity lies in
//!   `[τ − δ, τ + δ]` flip with probability ½ (inaccurate tools are
//!   unreliable exactly near the threshold).
//! * **Type 2 — underestimation bias** (ABW): paths with quantity in
//!   `(τ, τ + δ]` are labeled "bad" even though they are good, because
//!   measurement tools systematically under-report ABW.
//! * **Type 3 — flip randomly** (ABW): a random `p` fraction of paths
//!   get flipped labels (malicious target nodes can lie, since ABW is
//!   inferred at the target).
//! * **Type 4 — good-to-bad**: a random `p` fraction of *good* paths
//!   are labeled "bad" (anomalies, sudden traffic bursts).
//!
//! The paper reports error *levels* of 5/10/15 % of all labels and the
//! δ values that achieve them (its Table 3); [`calibrate_delta`]
//! computes those δ values from the ground-truth distribution, and
//! [`calibrate_good_to_bad_fraction`] maps an overall error level to
//! the fraction of good paths that must flip.

use dmf_datasets::{ClassMatrix, Dataset, Metric};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An erroneous-label model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ErrorModel {
    /// Type 1: flip labels of paths within `[τ−δ, τ+δ]` with prob. ½.
    FlipNearTau {
        /// Half-width of the unreliable band, in metric units.
        delta: f64,
    },
    /// Type 2: label paths within `(τ, τ+δ]` as bad (ABW
    /// underestimation; "good" side of the threshold only).
    UnderestimationBias {
        /// Width of the biased band above τ, in metric units.
        delta: f64,
    },
    /// Type 3: flip a random fraction of all labels.
    FlipRandom {
        /// Fraction of observed paths to flip (`0.05` = 5 %).
        fraction: f64,
    },
    /// Type 4: relabel a random fraction of *good* paths as bad.
    GoodToBad {
        /// Fraction of good paths to flip.
        fraction_of_good: f64,
    },
}

impl ErrorModel {
    /// Applies the model to one label `x` (±1) of a path whose measured
    /// quantity is `value`, classified at `tau` under `metric`, and
    /// returns the label as recorded. Matrix injection ([`inject`]) and
    /// measurement-time corruption in a trace replay both come here.
    /// `rng` is drawn from only for an eligible path of a random model
    /// (Type 1 inside the band, Type 3 always, Type 4 on a good label).
    pub fn corrupt(&self, x: f64, value: f64, tau: f64, metric: Metric, rng: &mut impl Rng) -> f64 {
        let flip = match *self {
            ErrorModel::FlipNearTau { delta } => {
                assert!(delta >= 0.0, "delta must be non-negative");
                (value - tau).abs() <= delta && rng.gen::<f64>() < 0.5
            }
            ErrorModel::UnderestimationBias { delta } => {
                assert!(delta >= 0.0, "delta must be non-negative");
                let gap = good_side_gap(metric, tau, value);
                x > 0.0 && gap > 0.0 && gap <= delta
            }
            ErrorModel::FlipRandom { fraction } => {
                assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
                rng.gen::<f64>() < fraction
            }
            ErrorModel::GoodToBad { fraction_of_good } => {
                assert!(
                    (0.0..=1.0).contains(&fraction_of_good),
                    "fraction out of range"
                );
                x > 0.0 && rng.gen::<f64>() < fraction_of_good
            }
        };
        if flip {
            -x
        } else {
            x
        }
    }
}

/// Distance of a quantity from τ on the "good" side, used by Type 2:
/// for RTT good means below τ, for ABW above.
fn good_side_gap(metric: Metric, tau: f64, value: f64) -> f64 {
    if metric.lower_is_better() {
        tau - value
    } else {
        value - tau
    }
}

/// Applies an error model to a class matrix derived from `dataset` at
/// threshold `class.tau`: one [`ErrorModel::corrupt`] per observed
/// label, in row-major order. Returns the number of labels actually
/// changed.
pub fn inject(
    class: &mut ClassMatrix,
    dataset: &Dataset,
    model: ErrorModel,
    rng: &mut impl Rng,
) -> usize {
    assert_eq!(class.len(), dataset.len(), "class/dataset size mismatch");
    let mut changed = 0;
    let known: Vec<(usize, usize)> = class.mask.iter_known().collect();
    for (i, j) in known {
        let Some(v) = dataset.value(i, j) else {
            continue;
        };
        let old = class.labels[(i, j)];
        let new = model.corrupt(old, v, class.tau, dataset.metric, rng);
        if new != old {
            class.set_label(i, j, new);
            changed += 1;
        }
    }
    changed
}

/// Which band-based error type to calibrate δ for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BandErrorKind {
    /// Type 1 (flip with prob ½ inside `[τ−δ, τ+δ]`).
    FlipNearTau,
    /// Type 2 (all good paths inside `(τ, τ+δ]` flipped).
    UnderestimationBias,
}

/// Finds the δ that produces an expected erroneous-label level of
/// `target_error` (fraction of all observed labels) — the computation
/// behind the paper's Table 3.
///
/// * Type 1 flips half the paths inside the band, so δ is chosen such
///   that the band contains `2 · target_error` of the paths.
/// * Type 2 flips every good path inside the band, so δ is chosen such
///   that the band (on the good side of τ) contains `target_error`.
pub fn calibrate_delta(dataset: &Dataset, tau: f64, target_error: f64, kind: BandErrorKind) -> f64 {
    assert!(
        (0.0..0.5).contains(&target_error),
        "target error must be in [0, 0.5), got {target_error}"
    );
    let observed = dataset.observed_values();
    assert!(!observed.is_empty(), "empty dataset");
    let n = observed.len() as f64;
    match kind {
        BandErrorKind::FlipNearTau => {
            let mut gaps: Vec<f64> = observed.iter().map(|&v| (v - tau).abs()).collect();
            let want = ((2.0 * target_error) * n).round() as usize;
            if want == 0 {
                return 0.0;
            }
            nth_smallest(&mut gaps, want.min(observed.len()) - 1)
        }
        BandErrorKind::UnderestimationBias => {
            let mut gaps: Vec<f64> = observed
                .iter()
                .map(|&v| good_side_gap(dataset.metric, tau, v))
                .filter(|&g| g > 0.0)
                .collect();
            let want = (target_error * n).round() as usize;
            if want == 0 {
                return 0.0;
            }
            assert!(
                want <= gaps.len(),
                "cannot reach {target_error} error level: only {} good paths of {} total",
                gaps.len(),
                n
            );
            nth_smallest(&mut gaps, want - 1)
        }
    }
}

/// The value a full ascending sort would put at index `k`, by
/// selection.
fn nth_smallest(values: &mut [f64], k: usize) -> f64 {
    *values
        .select_nth_unstable_by(k, |a, b| a.partial_cmp(b).expect("NaN value"))
        .1
}

/// Maps an overall target error level to the `fraction_of_good`
/// parameter of [`ErrorModel::GoodToBad`].
pub fn calibrate_good_to_bad_fraction(class: &ClassMatrix, target_error: f64) -> f64 {
    let good_fraction = class.good_fraction();
    assert!(good_fraction > 0.0, "no good paths to flip");
    (target_error / good_fraction).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_datasets::abw::hps3_like;
    use dmf_datasets::rtt::meridian_like;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn error_level(base: &ClassMatrix, noisy: &ClassMatrix) -> f64 {
        base.disagreement_count(noisy) as f64 / base.mask.count_known() as f64
    }

    #[test]
    fn flip_near_tau_hits_target_level() {
        let d = meridian_like(120, 1);
        let tau = d.median();
        let base = d.classify(tau);
        for &target in &[0.05, 0.10, 0.15] {
            let delta = calibrate_delta(&d, tau, target, BandErrorKind::FlipNearTau);
            let mut noisy = base.clone();
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            inject(&mut noisy, &d, ErrorModel::FlipNearTau { delta }, &mut rng);
            let level = error_level(&base, &noisy);
            assert!(
                (level - target).abs() < 0.02,
                "target {target}, achieved {level} (delta {delta})"
            );
        }
    }

    #[test]
    fn underestimation_bias_hits_target_level() {
        let d = hps3_like(120, 2);
        let tau = d.median();
        let base = d.classify(tau);
        for &target in &[0.05, 0.10, 0.15] {
            let delta = calibrate_delta(&d, tau, target, BandErrorKind::UnderestimationBias);
            let mut noisy = base.clone();
            let mut rng = ChaCha8Rng::seed_from_u64(12);
            let changed = inject(
                &mut noisy,
                &d,
                ErrorModel::UnderestimationBias { delta },
                &mut rng,
            );
            let level = error_level(&base, &noisy);
            assert!(
                (level - target).abs() < 0.01,
                "target {target}, achieved {level} ({changed} changed)"
            );
        }
    }

    #[test]
    fn underestimation_only_flips_good_to_bad() {
        let d = hps3_like(80, 3);
        let tau = d.median();
        let base = d.classify(tau);
        let mut noisy = base.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        inject(
            &mut noisy,
            &d,
            ErrorModel::UnderestimationBias { delta: tau * 0.3 },
            &mut rng,
        );
        for (i, j) in base.mask.iter_known() {
            if base.labels[(i, j)] != noisy.labels[(i, j)] {
                assert_eq!(base.labels[(i, j)], 1.0);
                assert_eq!(noisy.labels[(i, j)], -1.0);
            }
        }
    }

    #[test]
    fn flip_random_hits_fraction() {
        let d = hps3_like(100, 4);
        let base = d.classify(d.median());
        let mut noisy = base.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        inject(
            &mut noisy,
            &d,
            ErrorModel::FlipRandom { fraction: 0.10 },
            &mut rng,
        );
        let level = error_level(&base, &noisy);
        assert!((level - 0.10).abs() < 0.02, "level {level}");
    }

    #[test]
    fn good_to_bad_calibration() {
        let d = meridian_like(100, 5);
        let base = d.classify(d.median());
        let frac = calibrate_good_to_bad_fraction(&base, 0.10);
        let mut noisy = base.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        inject(
            &mut noisy,
            &d,
            ErrorModel::GoodToBad {
                fraction_of_good: frac,
            },
            &mut rng,
        );
        let level = error_level(&base, &noisy);
        assert!((level - 0.10).abs() < 0.02, "level {level}");
        // Only good→bad flips.
        for (i, j) in base.mask.iter_known() {
            if base.labels[(i, j)] != noisy.labels[(i, j)] {
                assert_eq!(base.labels[(i, j)], 1.0);
            }
        }
    }

    #[test]
    fn delta_grows_with_target_error() {
        // Table 3's rows: higher error levels require wider bands.
        let d = meridian_like(100, 6);
        let tau = d.median();
        let d5 = calibrate_delta(&d, tau, 0.05, BandErrorKind::FlipNearTau);
        let d10 = calibrate_delta(&d, tau, 0.10, BandErrorKind::FlipNearTau);
        let d15 = calibrate_delta(&d, tau, 0.15, BandErrorKind::FlipNearTau);
        assert!(
            d5 < d10 && d10 < d15,
            "δ must be increasing: {d5} {d10} {d15}"
        );
    }

    #[test]
    fn zero_target_means_zero_delta() {
        let d = meridian_like(50, 7);
        let tau = d.median();
        assert_eq!(
            calibrate_delta(&d, tau, 0.0, BandErrorKind::FlipNearTau),
            0.0
        );
    }

    #[test]
    fn inject_reports_change_count() {
        let d = meridian_like(60, 8);
        let base = d.classify(d.median());
        let mut noisy = base.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let changed = inject(
            &mut noisy,
            &d,
            ErrorModel::FlipRandom { fraction: 0.2 },
            &mut rng,
        );
        assert_eq!(changed, base.disagreement_count(&noisy));
    }
}
