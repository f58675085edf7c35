//! Order statistics over raw samples. Every percentile is an exact
//! sample (nearest rank), never an interpolation or a histogram bucket
//! bound, so two runs that saw the same samples report the same value.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`:
/// the smallest sample with at least `p`% of the samples at or below
/// it. `NaN` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_selects_an_exact_sample_by_nearest_rank() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&samples, 0.5), 1.0);
        // Ten samples: p99 is the maximum, the median the 5th smallest.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 99.0), 10.0);
        assert_eq!(median(&ten), 5.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn infinite_samples_rank_above_every_finite_one() {
        // A failed request is recorded as an infinite latency, so it can
        // only ever push a percentile up.
        let samples = [1.0, f64::INFINITY, 2.0, 3.0];
        assert_eq!(median(&samples), 2.0);
        assert_eq!(percentile(&samples, 99.0), f64::INFINITY);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
