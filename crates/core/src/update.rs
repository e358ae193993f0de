//! The SGD update rule (paper eqs. 9, 10, 12, 13).
//!
//! All four published update rules are instances of one step: with
//! `x̂ = ⟨updated, fixed⟩` and gradient factor `g = g(x, x̂)`,
//!
//! ```text
//! updated ← (1 − ηλ)·updated − η·g·fixed
//! ```
//!
//! * eq. 9  — `updated = u_i`, `fixed = v_j` (node i, RTT)
//! * eq. 10 — `updated = v_i`, `fixed = u_j` (node i, RTT; valid
//!   because RTT is symmetric so `x_ij` also constrains `u_j · v_i`)
//! * eq. 12 — `updated = u_i`, `fixed = v_j` (node i, ABW)
//! * eq. 13 — `updated = v_j`, `fixed = u_i` (node j, ABW)

use crate::config::SgdParams;
use crate::coords::dot;
use dmf_linalg::kernels::axpby;

/// Performs one SGD step in place.
///
/// This is the per-measurement hot path — millions of calls per
/// second — so it computes only what the update needs (`x̂` and the
/// gradient factor) via the fused [`dmf_linalg::kernels`]: no loss
/// evaluation, no allocation.
#[inline]
pub fn sgd_step(updated: &mut [f64], fixed: &[f64], x: f64, params: &SgdParams) {
    assert_eq!(updated.len(), fixed.len(), "coordinate rank mismatch");
    let xhat = dot(updated, fixed);
    let g = params.loss.gradient_factor(x, xhat);
    let shrink = 1.0 - params.eta * params.lambda;
    // updated[i] ← shrink·updated[i] − (η·g)·fixed[i], exactly the
    // historical elementwise expression.
    axpby(updated, shrink, -(params.eta * g), fixed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;

    /// The regularized objective contribution of one measurement at one
    /// node (paper eq. 5): `l(x, x̂) + λ‖w‖²` where `w` is the updated
    /// vector. Used by tests to verify descent.
    fn local_objective(updated: &[f64], fixed: &[f64], x: f64, params: &SgdParams) -> f64 {
        let xhat = dot(updated, fixed);
        params.loss.value(x, xhat) + params.lambda * dot(updated, updated)
    }

    /// [`sgd_step`] variant that also returns the loss value *before* the
    /// step (handy for monitoring convergence; costs an extra `exp`/`ln`
    /// per call, which is why the plain step skips it).
    fn sgd_step_with_loss(updated: &mut [f64], fixed: &[f64], x: f64, params: &SgdParams) -> f64 {
        assert_eq!(updated.len(), fixed.len(), "coordinate rank mismatch");
        let loss_before = params.loss.value(x, dot(updated, fixed));
        sgd_step(updated, fixed, x, params);
        loss_before
    }

    fn params(loss: Loss) -> SgdParams {
        SgdParams {
            eta: 0.1,
            lambda: 0.1,
            loss,
        }
    }

    #[test]
    fn hand_computed_l2_step() {
        // u = [1, 0], v = [1, 1], x = 3.
        // x̂ = 1, g = -(3-1) = -2, shrink = 0.99.
        // u' = 0.99·[1,0] - 0.1·(-2)·[1,1] = [1.19, 0.2].
        let mut u = vec![1.0, 0.0];
        let loss_before = sgd_step_with_loss(&mut u, &[1.0, 1.0], 3.0, &params(Loss::L2));
        assert!((loss_before - 4.0).abs() < 1e-12);
        assert!((u[0] - 1.19).abs() < 1e-12, "u0={}", u[0]);
        assert!((u[1] - 0.20).abs() < 1e-12, "u1={}", u[1]);
    }

    #[test]
    fn hand_computed_logistic_step() {
        // u = [0.5], v = [1.0], x = -1, x̂ = 0.5.
        // g = -x/(1+e^{x·x̂}) = 1/(1+e^{-0.5}).
        let mut u = vec![0.5];
        sgd_step(&mut u, &[1.0], -1.0, &params(Loss::Logistic));
        let g = 1.0 / (1.0 + (-0.5f64).exp());
        let expected = 0.99 * 0.5 - 0.1 * g * 1.0;
        assert!((u[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn hinge_step_noop_when_margin_met_except_shrinkage() {
        let mut u = vec![2.0, 0.0];
        // x̂ = 2, x = 1 → margin satisfied, only regularization shrinks.
        sgd_step(&mut u, &[1.0, 0.0], 1.0, &params(Loss::Hinge));
        assert!((u[0] - 1.98).abs() < 1e-12);
        assert_eq!(u[1], 0.0);
    }

    #[test]
    fn step_reduces_local_objective_for_small_eta() {
        // Gradient descent property: for a small step the regularized
        // local objective cannot increase (smooth losses).
        for loss in [Loss::L2, Loss::Logistic] {
            let p = SgdParams {
                eta: 0.01,
                lambda: 0.1,
                loss,
            };
            let fixed = vec![0.7, -0.3, 1.2];
            let mut updated = vec![0.4, 0.1, -0.5];
            let before = local_objective(&updated, &fixed, -1.0, &p);
            sgd_step(&mut updated, &fixed, -1.0, &p);
            let after = local_objective(&updated, &fixed, -1.0, &p);
            assert!(
                after <= before + 1e-12,
                "{loss:?}: objective rose {before} → {after}"
            );
        }
    }

    #[test]
    fn repeated_steps_fit_a_single_label() {
        // Repeatedly fitting one observation must drive the prediction
        // to the correct sign.
        let p = params(Loss::Logistic);
        let fixed = vec![0.9, 0.2, 0.4];
        let mut updated = vec![0.1, 0.1, 0.1];
        for _ in 0..200 {
            sgd_step(&mut updated, &fixed, -1.0, &p);
        }
        assert!(
            dot(&updated, &fixed) < 0.0,
            "prediction should have turned negative: {}",
            dot(&updated, &fixed)
        );
    }

    #[test]
    fn regularization_shrinks_norms() {
        // With gradient ≈ 0 (hinge, satisfied margin) the norm decays
        // geometrically by (1-ηλ) per step — the drift control of §6.2.1.
        let p = params(Loss::Hinge);
        let fixed = vec![1.0];
        let mut updated = vec![5.0];
        for _ in 0..10 {
            sgd_step(&mut updated, &fixed, 1.0, &p);
        }
        let expected = 5.0 * 0.99f64.powi(10);
        assert!((updated[0] - expected).abs() < 1e-9);
    }

    #[test]
    fn returns_pre_step_loss() {
        let p = params(Loss::Hinge);
        let mut updated = vec![0.0];
        let loss = sgd_step_with_loss(&mut updated, &[1.0], 1.0, &p);
        assert_eq!(loss, 1.0); // hinge(1, 0) = 1

        // The plain step must leave the coordinates in the same state.
        let mut plain = vec![0.0];
        sgd_step(&mut plain, &[1.0], 1.0, &p);
        assert_eq!(plain, updated);
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn rank_mismatch_panics() {
        let mut u = vec![1.0];
        sgd_step(&mut u, &[1.0, 2.0], 1.0, &params(Loss::L2));
    }
}
