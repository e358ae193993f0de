//! Scalar statistics and random-variate helpers.
//!
//! Percentiles drive the paper's classification thresholds (`τ` is set
//! to the median of each dataset by default; Table 1 sweeps the 10th to
//! 90th percentiles). A percentile selects its two order statistics
//! (`select_nth_unstable`, then the minimum of the part above) instead
//! of sorting, so it costs O(n): [`percentile_in_place`] reorders a
//! buffer the caller owns, and [`percentile`] / [`median`] copy their
//! input first. `rand` 0.8 ships no normal distribution, so the
//! Box–Muller transform lives here and is reused by the dataset
//! generators for log-normal RTT jitter.

use rand::Rng;

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population variance. Returns 0.0 for slices of length < 2.
fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / values.len() as f64
}

/// Population standard deviation.
fn std_dev(values: &[f64]) -> f64 {
    variance(values).sqrt()
}

/// Percentile with linear interpolation between order statistics:
/// the inclusive convention, rank `p/100 · (n − 1)` (R's type 7,
/// numpy's default), so `p = 0` is the minimum and `p = 100` the
/// maximum.
///
/// `p` is in `[0, 100]`. Copies `values`; see [`percentile_in_place`].
///
/// # Panics
/// Panics on an empty slice, on `p` outside `[0, 100]` and on a NaN in
/// `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_in_place(&mut values.to_vec(), p)
}

/// [`percentile`] without the copy: reorders `values` (it is left
/// partitioned around the lower order statistic) and returns the same
/// bits a sort would give. Selection finds `s[lo]`, the minimum of the
/// part above it is `s[hi]`, and `s[lo] + (s[hi] − s[lo])·frac` gives
/// +0.0 for tied zeros of either sign, as it does after a sort.
///
/// # Panics
/// As [`percentile`].
pub fn percentile_in_place(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    assert!(
        !values.iter().any(|v| v.is_nan()),
        "NaN in percentile input"
    );
    if values.len() == 1 {
        return values[0];
    }
    let rank = p / 100.0 * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let (_, &mut s_lo, above) = values.select_nth_unstable_by(lo, f64::total_cmp);
    // `frac > 0` means `hi = lo + 1`, which `above` then holds.
    let s_hi = if frac > 0.0 {
        above.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        s_lo
    };
    s_lo + (s_hi - s_lo) * frac
}

/// Median (50th percentile).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// A standard-normal sample via the Box–Muller transform.
pub fn normal_sample(rng: &mut (impl Rng + ?Sized), mu: f64, sigma: f64) -> f64 {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mu + sigma * z
}

/// A log-normal sample: `exp(N(mu, sigma))`.
///
/// `mu`/`sigma` are the parameters of the underlying normal, i.e. the
/// median of the distribution is `exp(mu)`.
pub fn log_normal_sample(rng: &mut (impl Rng + ?Sized), mu: f64, sigma: f64) -> f64 {
    normal_sample(rng, mu, sigma).exp()
}

/// Summary statistics bundle used by dataset calibration tests and the
/// experiment harness output.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Computes a summary over `values`.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "summary of empty slice");
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        Self {
            count: values.len(),
            min,
            max,
            mean: mean(values),
            median: median(values),
            std_dev: std_dev(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn mean_of_known_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn variance_and_std_dev() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&v) - 4.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_endpoints() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 3.0);
        assert_eq!(percentile(&v, 50.0), 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile(&v, 25.0), 2.5);
        assert_eq!(percentile(&v, 75.0), 7.5);
    }

    #[test]
    fn median_even_length() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "empty slice")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_range_checked() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn percentile_refuses_a_lone_nan() {
        percentile(&[f64::NAN], 50.0);
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn percentile_refuses_nan_among_values() {
        percentile(&[3.0, 1.0, f64::NAN, 2.0, 5.0], 0.0);
    }

    #[test]
    fn normal_sample_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| normal_sample(&mut rng, 3.0, 2.0))
            .collect();
        assert!((mean(&samples) - 3.0).abs() < 0.1);
        assert!((std_dev(&samples) - 2.0).abs() < 0.1);
    }

    #[test]
    fn log_normal_median_is_exp_mu() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| log_normal_sample(&mut rng, 2.0, 0.5))
            .collect();
        let med = median(&samples);
        assert!(
            (med - 2.0f64.exp()).abs() < 0.25,
            "median {med} vs expected {}",
            2.0f64.exp()
        );
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn summary_consistency() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.median, 2.0);
    }
}
