//! Sample statistics: nearest-rank percentiles and the rule that a
//! percentile is reported only when at least [`TAIL_MIN`] samples lie
//! beyond it.

/// Samples that must lie strictly above a percentile for it to describe
/// a tail rather than the largest few observations.
pub const TAIL_MIN: usize = 10;

/// The 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// sorted samples: the smallest rank whose share of samples is ≥ p%.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "rank of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile `p` of `samples`, or `None` when fewer than
/// [`TAIL_MIN`] samples lie beyond it. The median (p = 50) needs only
/// one sample: it is never a tail.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let r = rank(sorted.len(), p);
    if p > 50.0 && sorted.len() - r < TAIL_MIN {
        return None;
    }
    Some(sorted[r - 1])
}

/// The median (nearest rank), `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Arithmetic mean, `None` for an empty sample.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_value() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(rank(10, 50.0), 5);
        assert_eq!(median(&s), Some(5.0));
        assert_eq!(percentile(&s, 10.0), Some(1.0));
        assert_eq!(percentile(&s, 100.0 / 3.0), Some(4.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(median(&rev), Some(5.0));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        // p90 of 99 samples has rank 90 and only 9 samples above it.
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), None);
        // With 100 samples, rank 90 leaves exactly 10 above it.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        // p99 needs 1000 samples.
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), None);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), Some(990.0));
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
