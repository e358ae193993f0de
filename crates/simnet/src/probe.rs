//! Measurement tools over a ground-truth dataset.
//!
//! The paper's measurement module (its Figure 2, left) produces either
//! raw quantities or, for ABW, *direct class measurements*: a pathload
//! probe sends a UDP train at rate `τ` and observes whether congestion
//! appears — a one-bit answer obtained much more cheaply than a full
//! ABW estimate. Two instruments reproduce the measured-value
//! interface and the characteristic error profile of each tool, and
//! [`probed_class`] picks the one a dataset's metric calls for:
//!
//! * ping — accurate, small multiplicative noise (log-normal,
//!   σ = 0.03), thresholded at `τ` afterwards.
//! * [`pathload`] — binary class at rate `τ`; unreliable exactly when
//!   the true ABW is within 5 % of `τ` (paper §3.2 / error Type 1).

use dmf_datasets::{Dataset, Metric};
use dmf_linalg::stats::log_normal_sample;
use rand::Rng;

/// Log-normal sigma of a ping's multiplicative measurement noise.
const PING_NOISE_SIGMA: f64 = 0.03;

/// Width of pathload's unreliable band around the probe rate, relative
/// to the rate itself: within `rate · (1 ± band)` the verdict is a coin
/// flip, modeling self-induced-congestion flakiness near τ.
const PATHLOAD_BAND: f64 = 0.05;

/// Measures the class of path `i → j` at threshold `tau` with the
/// instrument the dataset's metric calls for: a ping thresholded at
/// `tau` for RTT, a [`pathload`] train at rate `tau` for ABW. `None`
/// when the pair is not covered by the ground truth (an unreachable
/// host).
pub fn probed_class(
    dataset: &Dataset,
    i: usize,
    j: usize,
    tau: f64,
    rng: &mut (impl Rng + ?Sized),
) -> Option<f64> {
    match dataset.metric {
        Metric::Rtt => Some(Metric::Rtt.classify(ping(dataset, i, j, rng)?, tau)),
        Metric::Abw => pathload(dataset, i, j, tau, rng),
    }
}

/// Ping-style RTT measurement from `i` to `j` in ms: the ground truth
/// times log-normal noise of sigma [`PING_NOISE_SIGMA`].
fn ping(dataset: &Dataset, i: usize, j: usize, rng: &mut (impl Rng + ?Sized)) -> Option<f64> {
    let base = dataset.value(i, j)?;
    Some(base * log_normal_sample(rng, 0.0, PING_NOISE_SIGMA))
}

/// Pathload-style binary probe of path `i → j` at `rate` Mbps: `+1.0`
/// when the path sustains the rate (ABW ≥ rate), `−1.0` otherwise, and
/// a coin flip within `PATHLOAD_BAND` (5 %) of the rate.
pub fn pathload(
    dataset: &Dataset,
    i: usize,
    j: usize,
    rate: f64,
    rng: &mut (impl Rng + ?Sized),
) -> Option<f64> {
    assert_eq!(dataset.metric, Metric::Abw, "pathload needs an ABW dataset");
    assert!(rate > 0.0, "probe rate must be positive");
    let abw = dataset.value(i, j)?;
    if (abw - rate).abs() <= rate * PATHLOAD_BAND {
        // Near the rate, self-induced congestion gives noisy
        // verdicts: effectively a coin flip.
        return Some(if rng.gen::<bool>() { 1.0 } else { -1.0 });
    }
    Some(if abw >= rate { 1.0 } else { -1.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_datasets::abw::hps3_like;
    use dmf_datasets::rtt::meridian_like;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rtt_prober_tracks_ground_truth() {
        let d = meridian_like(30, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for j in 1..30 {
            let ratio = ping(&d, 0, j, &mut rng).unwrap() / d.values[(0, j)];
            // Five sigmas of log-normal noise either way.
            let bound = (5.0 * PING_NOISE_SIGMA).exp();
            assert!(ratio < bound && ratio > 1.0 / bound, "ratio {ratio}");
        }
        assert_eq!(ping(&d, 2, 2, &mut rng), None);
        assert_eq!(probed_class(&d, 2, 2, 10.0, &mut rng), None);
    }

    #[test]
    fn rtt_prober_noise_is_unbiased_multiplicative() {
        let d = meridian_like(10, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let truth = d.values[(0, 1)];
        let mean: f64 = (0..5000)
            .map(|_| ping(&d, 0, 1, &mut rng).unwrap())
            .sum::<f64>()
            / 5000.0;
        // Log-normal with sigma 0.03 has mean exp(sigma²/2) ≈ 1.0005.
        assert!(
            (mean / truth - 1.0).abs() < 0.03,
            "mean ratio {}",
            mean / truth
        );
    }

    #[test]
    fn pathload_far_from_rate_is_exact() {
        let d = hps3_like(40, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for (i, j) in d.mask.iter_known().take(200) {
            let abw = d.values[(i, j)];
            // Probe far below and far above the true ABW.
            let below = pathload(&d, i, j, abw * 0.5, &mut rng).unwrap();
            let above = probed_class(&d, i, j, abw * 2.0, &mut rng).unwrap();
            assert_eq!(below, 1.0, "path must sustain half its ABW");
            assert_eq!(above, -1.0, "path cannot sustain double its ABW");
        }
    }

    #[test]
    fn pathload_near_rate_is_cointoss() {
        let d = hps3_like(40, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let (i, j) = d.mask.iter_known().next().unwrap();
        let abw = d.values[(i, j)];
        let goods = (0..2000)
            .filter(|_| pathload(&d, i, j, abw, &mut rng).unwrap() > 0.0)
            .count();
        assert!(
            (goods as f64 / 2000.0 - 0.5).abs() < 0.05,
            "near-rate verdicts should be ~50/50, got {goods}/2000"
        );
    }

    #[test]
    #[should_panic(expected = "needs an ABW dataset")]
    fn pathload_rejects_rtt_dataset() {
        let d = meridian_like(10, 7);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        pathload(&d, 0, 1, 10.0, &mut rng);
    }
}
