//! Order statistics for latency samples.
//!
//! Values come from the repository's one percentile definition
//! ([`foss_repro::common::percentile`], linear interpolation — what
//! `plan-doctor load` and the serving metrics print). What this module adds
//! is the rule for which tail percentile a sample supports: the highest of a
//! fixed ladder that still has at least [`MIN_TAIL_SAMPLES`] samples beyond
//! it, so a tail figure is never one or two outliers.

pub use foss_repro::common::percentile;

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The percentile ladder, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Median; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Of `n` samples, how many lie strictly beyond the `ceil(p·n/100)`-th — with
/// the slack that keeps `99.9 % of 10 000` at 9990 in floating point.
fn beyond(n: usize, p: f64) -> usize {
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize;
    n - rank.min(n)
}

/// The highest ladder percentile with at least [`MIN_TAIL_SAMPLES`] samples
/// beyond it, as `(percentile, value)`. `None` when even the median lacks
/// them (fewer than twenty samples).
pub fn highest_supported(samples: &[f64]) -> Option<(f64, f64)> {
    LADDER
        .iter()
        .rev()
        .find(|&&p| beyond(samples.len(), p) >= MIN_TAIL_SAMPLES)
        .and_then(|&p| percentile(samples, p).map(|v| (p, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn highest_supported_needs_ten_samples_beyond() {
        let supported = |n: usize| highest_supported(&ramp(n)).map(|(p, _)| p);
        // 19 samples: the median has only 9 beyond it.
        assert_eq!(supported(19), None);
        // 20 samples: exactly 10 beyond the median, 2 beyond p90.
        assert_eq!(supported(20), Some(50.0));
        // 100 samples: 10 beyond p90, 1 beyond p99.
        assert_eq!(supported(100), Some(90.0));
        // 1000 samples: 10 beyond p99, 1 beyond p99.9.
        assert_eq!(supported(1000), Some(99.0));
        // 999 samples: ceil(989.01) = 990, so only 9 beyond p99.
        assert_eq!(supported(999), Some(90.0));
        assert_eq!(supported(10_000), Some(99.9));
        assert_eq!(supported(100_000), Some(99.99));
    }

    #[test]
    fn the_supported_percentile_carries_its_value() {
        let samples = ramp(1000);
        let (p, value) = highest_supported(&samples).unwrap();
        assert_eq!(Some(value), percentile(&samples, p));
        assert!((989.0..=991.0).contains(&value), "{value}");
    }
}
