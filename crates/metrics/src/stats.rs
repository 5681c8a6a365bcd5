//! Small, dependency-free descriptive statistics used throughout the
//! measurement pipeline (means, standard deviations, percentiles).

use serde::{Deserialize, Serialize};

/// Summary statistics over a set of samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Compute summary statistics. Returns the default (all zeros) for an
    /// empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / count as f64;
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            median: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
            max: sorted[count - 1],
        }
    }
}

/// Percentile (nearest-rank with linear interpolation) of an already-sorted
/// slice. `p` is in `[0, 100]`.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Percentile of an unsorted slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    percentile_sorted(&sorted, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{case_rng, CASES};

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-9);
        assert!((s.std_dev - 2.0).abs() < 1e-9);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-9);
    }

    /// The summary orders its percentiles and bounds its mean for any
    /// sample.
    #[test]
    fn summary_statistics_are_consistent() {
        for case in 0..CASES {
            let mut params = case_rng(3, case);
            let len = params.range(1usize..200);
            let samples: Vec<f64> = (0..len).map(|_| params.unit() * 1e6).collect();
            let s = Summary::of(&samples);
            assert_eq!(s.count, samples.len());
            assert!(s.min <= s.median + 1e-9);
            assert!(s.median <= s.p95 + 1e-9);
            assert!(s.p95 <= s.p99 + 1e-9);
            assert!(s.p99 <= s.max + 1e-9);
            assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
            assert!(s.std_dev >= 0.0);
        }
    }

    #[test]
    fn summary_of_empty_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert!((percentile(&v, 0.0) - 1.0).abs() < 1e-9);
        assert!((percentile(&v, 100.0) - 100.0).abs() < 1e-9);
        assert!((percentile(&v, 50.0) - 50.5).abs() < 1e-9);
        assert!((percentile(&v, 99.0) - 99.01).abs() < 1e-9);
    }

    #[test]
    fn single_sample_percentile() {
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
        // Every percentile of a single sample is that sample.
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(percentile(&[42.0], p), 42.0);
        }
    }

    #[test]
    fn two_sample_percentiles_interpolate_not_truncate() {
        // The index-truncating failure mode: p99 of a small sample collapsing
        // to max (or, with floor(rank) indexing, to min). With linear
        // interpolation over the (n-1)-rank basis, p99 of [10, 20] must be
        // strictly between the samples: 10*0.01 + 20*0.99 = 19.9.
        let v = [10.0, 20.0];
        assert!((percentile(&v, 99.0) - 19.9).abs() < 1e-9);
        assert!(percentile(&v, 99.0) < v[1], "p99 must not collapse to max");
        assert!((percentile(&v, 50.0) - 15.0).abs() < 1e-9);
        assert!((percentile(&v, 95.0) - 19.5).abs() < 1e-9);
        let s = Summary::of(&v);
        assert!((s.median - 15.0).abs() < 1e-9);
        assert!((s.p99 - 19.9).abs() < 1e-9);
        assert_eq!(s.max, 20.0);
    }

    #[test]
    fn hundred_sample_percentiles_interpolate() {
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        // rank(p99) = 0.99 * 99 = 98.01 -> 99 * 0.99 + 100 * 0.01 = 99.01.
        assert!((percentile(&v, 99.0) - 99.01).abs() < 1e-9);
        assert!((percentile(&v, 95.0) - 95.05).abs() < 1e-9);
        let s = Summary::of(&v);
        assert!((s.p99 - 99.01).abs() < 1e-9);
        assert!(s.p99 < s.max);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_of_empty_panics() {
        percentile(&[], 50.0);
    }
}
