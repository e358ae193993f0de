//! Loss functions and their gradients (paper §4.1 and §5.2.3).
//!
//! For classification the reference value `x` is ±1 and the prediction
//! `x̂ = u · vᵀ` is real-valued; hinge and logistic penalize
//! `x·x̂ < 1` and are insensitive to the magnitude of `x̂` once the
//! sign is right. L2 is used for quantity-based (regression)
//! prediction, the paper's §6.4 comparator.
//!
//! All gradients share the form `∂l/∂u = g(x, x̂) · v` and
//! `∂l/∂v = g(x, x̂) · u` for a scalar *gradient factor* `g`; the
//! update rules only ever need `g`:
//!
//! * L2 (eqs. 18–19, factor 2 dropped as in the paper):
//!   `g = −(x − x̂)`
//! * hinge (eqs. 14–15, subgradient): `g = −x` if `1 − x·x̂ > 0`,
//!   else `0`
//! * logistic (eqs. 16–17): `g = −x / (1 + e^{x·x̂})`
//! * ordinal over `C` ordered classes (the paper's §7 future work, by
//!   the immediate-threshold construction of MMMF): the label `x` is
//!   the class `1..=C`, and `g = Σ_k g_logistic(s_k, x̂ − θ_k)` over
//!   the thresholds `θ_k = k − C/2`, `k < C`, with `s_k = +1` if
//!   `x > k` else `−1`. The predicted class `c` has
//!   `θ_{c−1} < x̂ ≤ θ_c`. At `C = 2` this is the logistic loss with
//!   the labels 1/2 for −1/+1. No other module knows the thresholds.

use crate::error::DmfsgdError;
use serde::{Deserialize, Serialize};

/// A loss function `l(x, x̂)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Loss {
    /// Square loss `(x − x̂)²` — quantity (regression) prediction.
    L2,
    /// Hinge loss `max(0, 1 − x·x̂)` — classification.
    Hinge,
    /// Logistic loss `ln(1 + e^{−x·x̂})` — classification (the paper's
    /// default, outperforming hinge in most cases).
    Logistic,
    /// Ordinal classification over `classes` ordered classes: the
    /// label is the class `1..=classes` (quality-ascending) and the
    /// loss sums one logistic term per threshold (see the
    /// [module docs](self)). At least two classes.
    Ordinal {
        /// Class count `C`.
        classes: u8,
    },
}

impl Loss {
    /// The loss value `l(x, x̂)`.
    pub fn value(self, x: f64, xhat: f64) -> f64 {
        match self {
            Loss::L2 => (x - xhat) * (x - xhat),
            Loss::Hinge => (1.0 - x * xhat).max(0.0),
            Loss::Logistic => {
                // ln(1 + e^{-m}) computed stably for large |m|.
                let m = x * xhat;
                if m > 35.0 {
                    (-m).exp()
                } else if m < -35.0 {
                    -m
                } else {
                    (1.0 + (-m).exp()).ln()
                }
            }
            Loss::Ordinal { classes } => ordinal_terms(classes, x, xhat)
                .map(|(s, m)| Loss::Logistic.value(s, m))
                .sum(),
        }
    }

    /// The scalar gradient factor `g` with `∂l/∂u = g·v`, `∂l/∂v = g·u`.
    pub fn gradient_factor(self, x: f64, xhat: f64) -> f64 {
        match self {
            Loss::L2 => -(x - xhat),
            Loss::Hinge => {
                if 1.0 - x * xhat > 0.0 {
                    -x
                } else {
                    0.0
                }
            }
            Loss::Logistic => {
                let m = x * xhat;
                if m > 35.0 {
                    // e^{m} overflows; factor ≈ -x·e^{-m} ≈ 0.
                    -x * (-m).exp()
                } else {
                    -x / (1.0 + m.exp())
                }
            }
            Loss::Ordinal { classes } => ordinal_gradient_factor(classes, x, xhat),
        }
    }

    /// The class a score predicts: under [`Loss::Ordinal`] the class
    /// `1..=C` whose threshold bin holds `xhat`, otherwise the binary
    /// sign rule (`+1` for a non-negative score, `−1` below zero).
    pub fn class_of_score(self, xhat: f64) -> f64 {
        match self {
            Loss::Ordinal { classes } => {
                1.0 + thresholds(classes)
                    .filter(|&(_, theta)| xhat > theta)
                    .count() as f64
            }
            _ if xhat >= 0.0 => 1.0,
            _ => -1.0,
        }
    }

    /// Refuses a label this loss does not train on: under
    /// [`Loss::Ordinal`] anything but the integers `1..=C`. The binary
    /// and quantity losses accept any value, as they always have.
    pub fn check_label(self, x: f64) -> Result<(), DmfsgdError> {
        match self {
            Loss::Ordinal { classes } if !(1..=classes).any(|c| f64::from(c) == x) => {
                Err(DmfsgdError::Label { x, loss: self })
            }
            _ => Ok(()),
        }
    }
}

/// The ordinal thresholds `(k, θ_k = k − C/2)` for `k = 1..C`.
fn thresholds(classes: u8) -> impl Iterator<Item = (u8, f64)> {
    let c = f64::from(classes);
    (1..classes).map(move |k| (k, f64::from(k) - c / 2.0))
}

/// One binary logistic term `(s_k, x̂ − θ_k)` per threshold of a
/// class-`x` label: `s_k = +1` when the class lies above `θ_k`.
fn ordinal_terms(classes: u8, x: f64, xhat: f64) -> impl Iterator<Item = (f64, f64)> {
    thresholds(classes).map(move |(k, theta)| {
        let s = if x > f64::from(k) { 1.0 } else { -1.0 };
        (s, xhat - theta)
    })
}

/// The ordinal gradient factor, out of line so the binary arms of
/// [`Loss::gradient_factor`] — the per-update hot path — stay as small
/// as they were.
#[inline(never)]
fn ordinal_gradient_factor(classes: u8, x: f64, xhat: f64) -> f64 {
    ordinal_terms(classes, x, xhat)
        .map(|(s, m)| Loss::Logistic.gradient_factor(s, m))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Loss {
        /// True for the classification losses (hinge, logistic, ordinal).
        fn is_classification(self) -> bool {
            !matches!(self, Loss::L2)
        }
    }

    /// Finite-difference check of the gradient factor: treat x̂ as the
    /// free variable (chain rule gives the u/v gradients).
    fn finite_diff(loss: Loss, x: f64, xhat: f64) -> f64 {
        let h = 1e-7;
        (loss.value(x, xhat + h) - loss.value(x, xhat - h)) / (2.0 * h)
    }

    #[test]
    fn l2_values() {
        assert_eq!(Loss::L2.value(1.0, 1.0), 0.0);
        assert_eq!(Loss::L2.value(1.0, -1.0), 4.0);
        assert_eq!(Loss::L2.value(3.0, 1.0), 4.0);
    }

    #[test]
    fn hinge_values() {
        assert_eq!(Loss::Hinge.value(1.0, 2.0), 0.0); // margin satisfied
        assert_eq!(Loss::Hinge.value(1.0, 0.5), 0.5);
        assert_eq!(Loss::Hinge.value(-1.0, 1.0), 2.0);
        assert_eq!(Loss::Hinge.value(1.0, 1.0), 0.0);
    }

    #[test]
    fn logistic_values() {
        assert!((Loss::Logistic.value(1.0, 0.0) - (2.0f64).ln()).abs() < 1e-12);
        // Correct confident prediction → tiny loss.
        assert!(Loss::Logistic.value(1.0, 10.0) < 1e-4);
        // Wrong confident prediction → ≈ linear loss.
        assert!((Loss::Logistic.value(1.0, -10.0) - 10.0).abs() < 1e-3);
    }

    #[test]
    fn logistic_extreme_margins_stable() {
        assert!(Loss::Logistic.value(1.0, 100.0).is_finite());
        assert!(Loss::Logistic.value(-1.0, 100.0).is_finite());
        assert!(Loss::Logistic.gradient_factor(1.0, 100.0).abs() < 1e-10);
        assert!((Loss::Logistic.gradient_factor(-1.0, 100.0) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn gradients_match_finite_differences() {
        // Skip the hinge kink at x·x̂ = 1.
        let cases = [
            (Loss::L2, 1.0, 0.3),
            (Loss::L2, -1.0, 2.0),
            (Loss::L2, 5.0, 4.0),
            (Loss::Hinge, 1.0, 0.3),
            (Loss::Hinge, -1.0, 0.5),
            (Loss::Hinge, 1.0, 2.0),
            (Loss::Logistic, 1.0, 0.0),
            (Loss::Logistic, -1.0, 1.3),
            (Loss::Logistic, 1.0, -2.0),
        ];
        // Every class of each ordinal loss, on both sides of every
        // threshold.
        let ordinal = [2u8, 3, 5].into_iter().flat_map(|classes| {
            (1..=classes).flat_map(move |c| {
                [-2.5, -0.7, 0.0, 1.3, 2.9]
                    .map(move |xhat| (Loss::Ordinal { classes }, f64::from(c), xhat))
            })
        });
        for (loss, x, xhat) in cases.into_iter().chain(ordinal) {
            let analytic = loss.gradient_factor(x, xhat);
            let mut numeric = finite_diff(loss, x, xhat);
            // The paper drops the factor 2 from the L2 derivative; the
            // finite difference of (x−x̂)² gives the factor-2 version.
            if loss == Loss::L2 {
                numeric /= 2.0;
            }
            assert!(
                (analytic - numeric).abs() < 1e-5,
                "{loss:?} at ({x}, {xhat}): analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn hinge_gradient_zero_when_margin_met() {
        assert_eq!(Loss::Hinge.gradient_factor(1.0, 1.5), 0.0);
        assert_eq!(Loss::Hinge.gradient_factor(-1.0, -1.0), 0.0);
        assert_eq!(Loss::Hinge.gradient_factor(1.0, 0.5), -1.0);
        assert_eq!(Loss::Hinge.gradient_factor(-1.0, 0.5), 1.0);
    }

    #[test]
    fn classification_losses_push_toward_correct_sign() {
        // For x = +1 and a wrong prediction, the factor must be
        // negative so that u moves along +v (increasing x̂).
        for loss in [Loss::Hinge, Loss::Logistic] {
            assert!(loss.gradient_factor(1.0, -0.5) < 0.0);
            assert!(loss.gradient_factor(-1.0, 0.5) > 0.0);
        }
    }

    #[test]
    fn is_classification_flags() {
        assert!(!Loss::L2.is_classification());
        assert!(Loss::Hinge.is_classification());
        assert!(Loss::Logistic.is_classification());
        assert!(Loss::Ordinal { classes: 3 }.is_classification());
    }
}
