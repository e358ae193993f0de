//! DMFSGD hyper-parameters.
//!
//! The paper's default configuration (§6.2.4): `r = 10`, `η = 0.1`,
//! `λ = 0.1`, logistic loss; `k = 10` neighbors for Harvard and HP-S3,
//! `k = 32` for Meridian. "Fine parameter tuning is difficult, if not
//! impossible, for network applications" — the defaults are expected to
//! work everywhere, and Figure 3/4 sweep them to show insensitivity.

use crate::error::ConfigError;
use crate::loss::Loss;
use serde::{Deserialize, Serialize};

/// What kind of values the system trains on and predicts.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum PredictionMode {
    /// Class-based prediction (the paper's contribution): measurements
    /// are class labels — ±1 under the binary losses, `1..=C` under
    /// [`Loss::Ordinal`] — and the predicted class is the loss's class
    /// of the score `u·v` ([`Loss::class_of_score`]).
    Class,
    /// Quantity-based prediction (regression with the L2 loss): the
    /// §6.4 comparator. `value_scale` divides raw measurements so SGD
    /// operates near unit magnitude (predictions are multiplied back);
    /// ranking — all peer selection needs — is scale-invariant.
    Quantity {
        /// Scale divisor applied to raw measurements (use the dataset
        /// median).
        value_scale: f64,
    },
}

/// The per-update SGD parameters shared by all four update rules.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SgdParams {
    /// Learning rate `η`.
    pub eta: f64,
    /// Regularization coefficient `λ`.
    pub lambda: f64,
    /// Loss function `l`.
    pub loss: Loss,
}

impl SgdParams {
    /// Validates parameter ranges without panicking.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if !(self.eta > 0.0 && self.eta <= 10.0) {
            return Err(ConfigError::Eta { eta: self.eta });
        }
        if !(self.lambda >= 0.0 && self.lambda < 1.0 / self.eta) {
            return Err(ConfigError::Lambda {
                lambda: self.lambda,
            });
        }
        if let Loss::Ordinal { classes } = self.loss {
            if classes < 2 {
                return Err(ConfigError::Classes { classes });
            }
        }
        Ok(())
    }
}

/// Full system configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DmfsgdConfig {
    /// Rank `r` of the factorization (coordinate length).
    pub rank: usize,
    /// SGD parameters.
    pub sgd: SgdParams,
    /// Neighbor count `k` per node.
    pub k: usize,
    /// Prediction mode.
    pub mode: PredictionMode,
    /// Seed for coordinate initialization and probe scheduling.
    pub seed: u64,
}

impl DmfsgdConfig {
    /// The paper's default configuration (class-based).
    pub fn paper_defaults() -> Self {
        Self {
            rank: 10,
            sgd: SgdParams {
                eta: 0.1,
                lambda: 0.1,
                loss: Loss::Logistic,
            },
            k: 10,
            mode: PredictionMode::Class,
            seed: 0,
        }
    }

    /// Defaults with a specific neighbor count (the paper uses `k = 32`
    /// for Meridian).
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Defaults switched to quantity (regression) mode with the given
    /// value scale.
    ///
    /// # Panics
    /// Panics unless `value_scale` is finite and strictly positive.
    pub fn quantity(mut self, value_scale: f64) -> Self {
        assert!(
            value_scale.is_finite() && value_scale > 0.0,
            "value scale must be finite and positive"
        );
        self.mode = PredictionMode::Quantity { value_scale };
        self.sgd.loss = Loss::L2;
        self
    }

    /// Validates the whole configuration without panicking.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if self.rank < 1 {
            return Err(ConfigError::ZeroRank);
        }
        if self.k < 1 {
            return Err(ConfigError::ZeroK);
        }
        self.sgd.try_validate()?;
        if let PredictionMode::Quantity { value_scale } = self.mode {
            ConfigError::check_value_scale(value_scale)?;
            if self.sgd.loss != Loss::L2 {
                return Err(ConfigError::QuantityLoss {
                    loss: self.sgd.loss,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_6_2_4() {
        let c = DmfsgdConfig::paper_defaults();
        assert_eq!(c.rank, 10);
        assert_eq!(c.sgd.eta, 0.1);
        assert_eq!(c.sgd.lambda, 0.1);
        assert_eq!(c.sgd.loss, Loss::Logistic);
        assert_eq!(c.mode, PredictionMode::Class);
        c.try_validate().unwrap();
    }

    #[test]
    fn with_k_overrides() {
        let c = DmfsgdConfig::paper_defaults().with_k(32);
        assert_eq!(c.k, 32);
        c.try_validate().unwrap();
    }

    #[test]
    fn quantity_switches_loss_to_l2() {
        let c = DmfsgdConfig::paper_defaults().quantity(56.4);
        assert_eq!(c.sgd.loss, Loss::L2);
        match c.mode {
            PredictionMode::Quantity { value_scale } => assert_eq!(value_scale, 56.4),
            other => panic!("unexpected mode {other:?}"),
        }
        c.try_validate().unwrap();
    }

    #[test]
    fn zero_rank_rejected() {
        let mut c = DmfsgdConfig::paper_defaults();
        c.rank = 0;
        let err = c.try_validate().unwrap_err();
        assert_eq!(err, ConfigError::ZeroRank);
        assert!(err.to_string().contains("rank must be at least 1"));
    }

    #[test]
    fn bad_eta_rejected() {
        let mut c = DmfsgdConfig::paper_defaults();
        c.sgd.eta = 0.0;
        let err = c.try_validate().unwrap_err();
        assert_eq!(err, ConfigError::Eta { eta: 0.0 });
        assert!(err.to_string().contains("eta"));
    }

    #[test]
    fn shrinkage_must_stay_positive() {
        let err = SgdParams {
            eta: 1.0,
            lambda: 1.5,
            loss: Loss::Logistic,
        }
        .try_validate()
        .unwrap_err();
        assert_eq!(err, ConfigError::Lambda { lambda: 1.5 });
        assert!(err.to_string().contains("shrinkage"));
    }

    #[test]
    fn quantity_mode_requires_l2() {
        let mut c = DmfsgdConfig::paper_defaults().quantity(1.0);
        c.sgd.loss = Loss::Logistic;
        let err = c.try_validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::QuantityLoss {
                loss: Loss::Logistic
            }
        );
        assert!(err.to_string().contains("L2 loss"));
    }
}
