//! Health and readiness semantics for fleet members.
//!
//! Health is computed as a **pure function** of observed signals: the
//! caller gathers a [`HealthSignals`] (rolling-AUC window state,
//! coordinate staleness, rejection rate), declares its thresholds in
//! a [`HealthPolicy`], and [`HealthPolicy::evaluate`] maps one to a
//! [`Health`] verdict. Nothing here reads a clock or any global
//! state, which is what makes the health-transition tests
//! byte-deterministic and the rules documentable as a contract.
//!
//! # The state machine
//!
//! * [`Health::Unready`] — the quality window has fewer than
//!   `min_quality_samples` observations. A member that has just
//!   joined (or been restored) reports `Unready` until its window
//!   warms up; no degradation rules are evaluated in this state.
//! * [`Health::Healthy`] — warm, and no rule trips.
//! * [`Health::Degraded`] — warm, and at least one rule trips. Every
//!   tripped rule is reported, in the fixed order *quality →
//!   staleness → rejection*, so operators (and the golden tests) see
//!   a stable reason list.
//!
//! Recovery is implicit: the next evaluation with passing signals
//! returns [`Health::Healthy`]. The full operator-facing description
//! of each rule, with triage steps, lives in `docs/operations.md`.

use std::fmt;

/// Why a warm member is degraded. All payloads are the observed value
/// alongside the configured limit, so a report is actionable without
/// a second lookup.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DegradedReason {
    /// The rolling AUC over the live quality window fell to or below
    /// the configured floor.
    QualityBelowFloor {
        /// Observed rolling AUC.
        auc: f64,
        /// Configured floor.
        floor: f64,
    },
    /// No coordinate update has been applied for longer than the
    /// configured staleness limit.
    StaleCoordinates {
        /// Seconds since the last applied update.
        staleness_s: f64,
        /// Configured limit in seconds.
        limit_s: f64,
    },
    /// The service is shedding too large a fraction of requests at
    /// admission.
    HighRejectionRate {
        /// Observed rejected/total ratio.
        rate: f64,
        /// Configured limit.
        limit: f64,
    },
}

impl fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradedReason::QualityBelowFloor { auc, floor } => {
                write!(f, "quality below floor: rolling AUC {auc:.4} <= {floor:.4}")
            }
            DegradedReason::StaleCoordinates {
                staleness_s,
                limit_s,
            } => write!(
                f,
                "stale coordinates: {staleness_s:.1}s since last update > {limit_s:.1}s"
            ),
            DegradedReason::HighRejectionRate { rate, limit } => {
                write!(f, "high rejection rate: {rate:.4} > {limit:.4}")
            }
        }
    }
}

/// A member's health verdict. Ordering of the enum is not meaningful;
/// use [`Health::code`] for the numeric gauge encoding.
#[derive(Clone, Debug, PartialEq)]
pub enum Health {
    /// Warm and within every configured limit.
    Healthy,
    /// Warm but at least one rule tripped; reasons are in the fixed
    /// order quality → staleness → rejection.
    Degraded {
        /// Every tripped rule.
        reasons: Vec<DegradedReason>,
    },
    /// Not serving a quality verdict yet (window still warming up).
    Unready {
        /// Human-readable why (e.g. `"quality window 3/50 samples"`).
        reason: String,
    },
}

impl Health {
    /// Numeric encoding used by the `*_health_state` gauges and the
    /// wire protocol: 0 = healthy, 1 = degraded, 2 = unready.
    pub fn code(&self) -> u8 {
        match self {
            Health::Healthy => 0,
            Health::Degraded { .. } => 1,
            Health::Unready { .. } => 2,
        }
    }
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Health::Healthy => write!(f, "healthy"),
            Health::Degraded { reasons } => {
                write!(f, "degraded: ")?;
                for (i, r) in reasons.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{r}")?;
                }
                Ok(())
            }
            Health::Unready { reason } => write!(f, "unready: {reason}"),
        }
    }
}

/// The observed signals health is computed from. `None` means "not
/// measured here" — the corresponding rule is skipped, never tripped.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HealthSignals {
    /// Observations currently in the live quality window.
    pub quality_samples: usize,
    /// Rolling AUC over that window; `None` while the window holds a
    /// single class (AUC undefined).
    pub rolling_auc: Option<f64>,
    /// Seconds since the last applied coordinate update; `None` if no
    /// update has ever been applied or the emitter does not track it.
    pub staleness_s: Option<f64>,
    /// Rejected/total request ratio; `None` where admission control
    /// does not apply (agents).
    pub rejection_rate: Option<f64>,
}

/// Declared health rules. Each `Option` threshold is independent:
/// `None` disables that rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthPolicy {
    /// Quality-window observations required before the member is
    /// considered warm. Below this, health is [`Health::Unready`].
    pub min_quality_samples: usize,
    /// Degrade when rolling AUC is at or below this floor.
    pub auc_floor: Option<f64>,
    /// Degrade when coordinate staleness exceeds this many seconds.
    pub staleness_limit_s: Option<f64>,
    /// Degrade when the rejection ratio exceeds this.
    pub rejection_rate_limit: Option<f64>,
}

impl Default for HealthPolicy {
    /// The defaults documented in `docs/operations.md`: warm after 50
    /// quality samples, AUC floor 0.75, staleness limit 30 s,
    /// rejection limit 10 %.
    fn default() -> Self {
        Self {
            min_quality_samples: 50,
            auc_floor: Some(0.75),
            staleness_limit_s: Some(30.0),
            rejection_rate_limit: Some(0.10),
        }
    }
}

impl HealthPolicy {
    /// Maps observed signals to a verdict. Pure: no clocks, no global
    /// state. See the module docs for the state machine.
    pub fn evaluate(&self, s: &HealthSignals) -> Health {
        if s.quality_samples < self.min_quality_samples {
            return Health::Unready {
                reason: format!(
                    "quality window {}/{} samples",
                    s.quality_samples, self.min_quality_samples
                ),
            };
        }
        let mut reasons = Vec::new();
        if let (Some(floor), Some(auc)) = (self.auc_floor, s.rolling_auc) {
            if auc <= floor {
                reasons.push(DegradedReason::QualityBelowFloor { auc, floor });
            }
        }
        if let (Some(limit_s), Some(staleness_s)) = (self.staleness_limit_s, s.staleness_s) {
            if staleness_s > limit_s {
                reasons.push(DegradedReason::StaleCoordinates {
                    staleness_s,
                    limit_s,
                });
            }
        }
        if let (Some(limit), Some(rate)) = (self.rejection_rate_limit, s.rejection_rate) {
            if rate > limit {
                reasons.push(DegradedReason::HighRejectionRate { rate, limit });
            }
        }
        if reasons.is_empty() {
            Health::Healthy
        } else {
            Health::Degraded { reasons }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HealthPolicy {
        /// A policy with every rule disabled (always `Healthy` once
        /// `min_quality_samples` is met, which defaults to 0 here).
        fn permissive() -> Self {
            Self {
                min_quality_samples: 0,
                auc_floor: None,
                staleness_limit_s: None,
                rejection_rate_limit: None,
            }
        }
    }

    impl Health {
        /// True when the verdict is [`Health::Healthy`].
        fn is_healthy(&self) -> bool {
            matches!(self, Health::Healthy)
        }
    }

    #[test]
    fn cold_window_is_unready_regardless_of_other_signals() {
        let p = HealthPolicy::default();
        let h = p.evaluate(&HealthSignals {
            quality_samples: 10,
            rolling_auc: Some(0.1), // would degrade if warm
            staleness_s: Some(1e9), // would degrade if warm
            rejection_rate: None,
        });
        assert_eq!(h.code(), 2);
        assert_eq!(h.to_string(), "unready: quality window 10/50 samples");
    }

    #[test]
    fn warm_and_passing_is_healthy() {
        let p = HealthPolicy::default();
        let h = p.evaluate(&HealthSignals {
            quality_samples: 50,
            rolling_auc: Some(0.9),
            staleness_s: Some(2.0),
            rejection_rate: Some(0.01),
        });
        assert!(h.is_healthy());
        assert_eq!(h.code(), 0);
    }

    #[test]
    fn tripped_rules_report_in_fixed_order() {
        let p = HealthPolicy::default();
        let h = p.evaluate(&HealthSignals {
            quality_samples: 100,
            rolling_auc: Some(0.5),
            staleness_s: Some(100.0),
            rejection_rate: Some(0.5),
        });
        match &h {
            Health::Degraded { reasons } => {
                assert_eq!(reasons.len(), 3);
                assert!(matches!(
                    reasons[0],
                    DegradedReason::QualityBelowFloor { .. }
                ));
                assert!(matches!(
                    reasons[1],
                    DegradedReason::StaleCoordinates { .. }
                ));
                assert!(matches!(
                    reasons[2],
                    DegradedReason::HighRejectionRate { .. }
                ));
            }
            other => panic!("expected degraded, got {other:?}"),
        }
        assert_eq!(h.code(), 1);
    }

    #[test]
    fn unmeasured_signals_skip_their_rules() {
        let p = HealthPolicy::default();
        // Warm window but single-class (no AUC), nothing else
        // measured: healthy, not degraded.
        let h = p.evaluate(&HealthSignals {
            quality_samples: 50,
            rolling_auc: None,
            staleness_s: None,
            rejection_rate: None,
        });
        assert!(h.is_healthy());
    }

    #[test]
    fn disabled_rules_never_trip() {
        let p = HealthPolicy::permissive();
        let h = p.evaluate(&HealthSignals {
            quality_samples: 0,
            rolling_auc: Some(0.0),
            staleness_s: Some(1e9),
            rejection_rate: Some(1.0),
        });
        assert!(h.is_healthy());
    }

    #[test]
    fn floor_is_inclusive_and_limits_are_exclusive() {
        let p = HealthPolicy {
            min_quality_samples: 0,
            auc_floor: Some(0.75),
            staleness_limit_s: Some(30.0),
            rejection_rate_limit: Some(0.10),
        };
        // AUC exactly at the floor trips (<=) …
        let h = p.evaluate(&HealthSignals {
            quality_samples: 1,
            rolling_auc: Some(0.75),
            ..HealthSignals::default()
        });
        assert_eq!(h.code(), 1);
        // … while staleness and rejection exactly at the limit do not
        // (>).
        let h = p.evaluate(&HealthSignals {
            quality_samples: 1,
            staleness_s: Some(30.0),
            rejection_rate: Some(0.10),
            ..HealthSignals::default()
        });
        assert!(h.is_healthy());
    }

    #[test]
    fn display_is_operator_readable() {
        let h = Health::Degraded {
            reasons: vec![
                DegradedReason::QualityBelowFloor {
                    auc: 0.5,
                    floor: 0.75,
                },
                DegradedReason::HighRejectionRate {
                    rate: 0.25,
                    limit: 0.1,
                },
            ],
        };
        assert_eq!(
            h.to_string(),
            "degraded: quality below floor: rolling AUC 0.5000 <= 0.7500; \
             high rejection rate: 0.2500 > 0.1000"
        );
    }
}
