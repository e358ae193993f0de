//! Seeded, deterministic health-transition conformance.
//!
//! One synthetic quality stream drives the full health state machine
//! through its documented lifecycle: a cold window is `Unready`, a
//! well-separated score stream warms it to `Healthy` the moment the
//! sample floor is reached, an inverted stream drags the rolling AUC
//! through the floor into `Degraded` (quality reason), and a second
//! well-separated phase washes the window clean again. The stream is
//! ChaCha8-seeded, so the transition *indices* are a pure function of
//! the seed — the test pins the whole trajectory and replays it to
//! prove byte determinism.

use dmf_ops::{DegradedReason, Health, HealthPolicy, LiveQuality};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const WINDOW: usize = 64;
const PHASE: usize = 200;

fn policy() -> HealthPolicy {
    HealthPolicy {
        min_quality_samples: 32,
        auc_floor: Some(0.75),
        staleness_limit_s: None,
        rejection_rate_limit: None,
    }
}

/// Evaluates health after every recorded pair and returns the state
/// trajectory as `(index, state code)` transition points.
fn run_stream(seed: u64) -> Vec<(usize, u8)> {
    let quality = LiveQuality::new(WINDOW);
    let policy = policy();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut transitions = Vec::new();
    let mut last_code = None;

    for step in 0..3 * PHASE {
        // Alternate ground-truth classes deterministically; phase 2
        // inverts the score sign so the window's AUC collapses.
        let positive = step % 2 == 0;
        let separation: f64 = if positive { 1.0 } else { -1.0 };
        let inverted = (PHASE..2 * PHASE).contains(&step);
        let score = separation * if inverted { -1.0 } else { 1.0 } + rng.gen_range(-0.3..0.3);
        quality.record(positive, score);

        let code = policy.evaluate(&quality.signals(None)).code();
        if last_code != Some(code) {
            transitions.push((step, code));
            last_code = Some(code);
        }
    }
    transitions
}

#[test]
fn the_lifecycle_visits_unready_healthy_degraded_healthy_in_order() {
    let transitions = run_stream(42);
    let codes: Vec<u8> = transitions.iter().map(|&(_, c)| c).collect();
    assert_eq!(
        codes,
        vec![2, 0, 1, 0],
        "lifecycle must be unready -> healthy -> degraded -> healthy, got {transitions:?}"
    );

    // Warm-up ends exactly when the sample floor is reached: the
    // stream is well-separated, so the first mixed-class window
    // already clears the AUC floor.
    assert_eq!(transitions[0], (0, 2), "cold window starts unready");
    assert_eq!(
        transitions[1].0, 31,
        "healthy the moment min_quality_samples (32) is reached"
    );
    // Degradation happens while the inverted phase floods the window,
    // and recovery after the clean phase starts.
    let (degraded_at, _) = transitions[2];
    assert!(
        (PHASE..2 * PHASE).contains(&degraded_at),
        "degraded during the inverted phase, got {degraded_at}"
    );
    let (recovered_at, _) = transitions[3];
    assert!(
        (2 * PHASE..3 * PHASE).contains(&recovered_at),
        "recovered during the second clean phase, got {recovered_at}"
    );
}

#[test]
fn transition_indices_are_byte_deterministic() {
    assert_eq!(
        run_stream(42),
        run_stream(42),
        "same seed must reproduce the exact transition trajectory"
    );
    assert_ne!(
        run_stream(42),
        run_stream(43),
        "the trajectory is a function of the seed (noise moves the indices)"
    );
}

#[test]
fn the_degraded_verdict_names_the_quality_reason_with_observed_values() {
    // Reproduce the degraded window directly and check the typed
    // reason carries the observed AUC and the floor.
    let quality = LiveQuality::new(WINDOW);
    for i in 0..WINDOW {
        let positive = i % 2 == 0;
        // Inverted separation: positives score low.
        quality.record(positive, if positive { -1.0 } else { 1.0 });
    }
    match policy().evaluate(&quality.signals(None)) {
        Health::Degraded { reasons } => {
            assert_eq!(reasons.len(), 1);
            match reasons[0] {
                DegradedReason::QualityBelowFloor { auc, floor } => {
                    assert_eq!(auc, 0.0, "fully inverted window has AUC 0");
                    assert_eq!(floor, 0.75);
                }
                ref other => panic!("expected the quality reason, got {other:?}"),
            }
        }
        other => panic!("expected degraded, got {other:?}"),
    }
}
