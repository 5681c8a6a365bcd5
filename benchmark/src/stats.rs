//! Order statistics for a handful of timing samples.

/// Median with linear interpolation between the two middle samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `p`-quantile (0..=1), linearly interpolated between neighbouring order
/// statistics (`metrics::percentile`). Panics on no samples.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    metrics::percentile(samples, p * 100.0)
}

/// Distance between the first and third quartile as a share of the median:
/// the run-to-run spread `compare` holds against a metric's bound. A single
/// sample has no spread.
pub fn relative_spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if samples.len() < 2 || m == 0.0 {
        return 0.0;
    }
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / m.abs()
}

/// Smallest sample.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest sample.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&s, 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert_eq!(relative_spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0 / 3.0);
        assert_eq!(relative_spread(&[7.0]), 0.0);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn extremes() {
        assert_eq!(min(&[2.0, -1.0, 3.0]), -1.0);
        assert_eq!(max(&[2.0, -1.0, 3.0]), 3.0);
    }
}
