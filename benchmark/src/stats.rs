//! Order statistics the harness reports: percentiles, medians, and the
//! median-of-segment-medians the open-loop latency metric uses.

/// The percentile of a rate that marks the fastest tenth of a run's
/// parts (of a duration, the `1 - FAST_TENTH` percentile does). Every
/// `ops_per_s` is read there: on a shared host what slows a part is the
/// neighbours, so the fast end of a run says what the code does and
/// repeats from run to run, where the middle moves with the host.
pub const FAST_TENTH: f64 = 0.90;

/// Sorts `samples` ascending. Latencies and rates are finite by
/// construction; a NaN would be a harness bug.
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// `p`-th percentile (`0.0..=1.0`) of an ascending-sorted slice by the
/// nearest-rank rule on `(len - 1) * p`; `0.0` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// `p`-th percentile of an unsorted sample set, by the rule of
/// [`percentile_sorted`].
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    sort(&mut s);
    percentile_sorted(&s, p)
}

/// Median of an unsorted sample set (mean of the two middle values for
/// an even count); `0.0` for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    sort(&mut s);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The open-loop latency figure: each segment's own median, then the
/// median of those. One stalled segment moves one of the inner medians,
/// not the result. Empty segments are skipped.
pub fn median_of_segment_medians(segments: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = segments
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect();
    median(&medians)
}

/// The highest percentile that still has at least ten samples beyond
/// it, as `(label, p)`, from the ladder p90 / p99 / p99.9; `None` when
/// even p90 lacks ten samples in its tail.
pub fn highest_supported_percentile(samples: usize) -> Option<(&'static str, f64)> {
    // Tail sizes in whole samples: the shares are exact in per mille.
    [("p99.9", 0.999, 1), ("p99", 0.99, 10), ("p90", 0.90, 100)]
        .into_iter()
        .find(|&(_, _, per_mille)| samples * per_mille / 1000 >= 10)
        .map(|(label, p, _)| (label, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_the_expected_ranks() {
        let mut s = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        sort(&mut s);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&s, 0.50), 3.0);
        assert_eq!(percentile_sorted(&s, 0.99), 5.0);
        assert_eq!(percentile_sorted(&s, 1.0), 5.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&hundred, 0.90), 90.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.75), 4.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn one_stalled_segment_does_not_move_the_segment_median() {
        let calm = vec![10.0, 11.0, 12.0];
        let stalled = vec![900.0, 1000.0, 1100.0];
        let segs = vec![calm.clone(), calm.clone(), stalled, calm.clone()];
        // Inner medians are 11, 11, 1000, 11 -> median 11.
        assert_eq!(median_of_segment_medians(&segs), 11.0);
        // Pooling the same samples would have been pulled to 12.
        let pooled: Vec<f64> = segs.iter().flatten().copied().collect();
        assert!(median(&pooled) > 11.0);
        // Empty segments are ignored rather than read as zero.
        assert_eq!(
            median_of_segment_medians(&[vec![], calm.clone(), vec![]]),
            11.0
        );
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(50), None);
        assert_eq!(highest_supported_percentile(100), Some(("p90", 0.90)));
        assert_eq!(highest_supported_percentile(1_000), Some(("p99", 0.99)));
        assert_eq!(highest_supported_percentile(10_000), Some(("p99.9", 0.999)));
    }
}
