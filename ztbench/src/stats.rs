//! Order statistics used by every metric of the benchmark.
//!
//! Percentiles take `q ∈ [0, 1]` (never 0–100) and use the nearest-rank
//! definition, so a reported percentile is always one of the measured
//! samples. A tail percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie above it; otherwise the metric is missing.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` at `q ∈ [0, 1]`: the smallest
/// sample with at least `q · n` samples at or below it. `q = 0` is the
/// minimum and `q = 1` the maximum. `None` for an empty sample.
///
/// # Panics
/// When `q` lies outside `[0, 1]` — a percentile written as `99` instead
/// of `0.99` is a caller bug this function refuses to paper over.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile takes q in [0, 1], got {q}"
    );
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of `q` in a sample of `n ≥ 1`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// [`quantile`], but `None` unless at least [`MIN_BEYOND`] samples lie
/// strictly beyond the percentile's rank.
pub fn supported_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let value = quantile(samples, q)?;
    (samples.len() - rank(samples.len(), q) >= MIN_BEYOND).then_some(value)
}

/// Median with the midpoint rule for even counts. `None` for an empty
/// sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which is what run-to-run spreads
/// are judged with. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean(values: &[f64]) -> Option<f64> {
        (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
    }

    #[test]
    fn p0_is_min_and_p100_is_max() {
        let xs = [5.0, 1.0, 9.0, 3.0, 7.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(9.0));
        assert_eq!(quantile(&xs, 0.5), Some(5.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    #[should_panic(expected = "q in [0, 1]")]
    fn percent_scale_is_rejected() {
        let _ = quantile(&[1.0, 2.0], 99.0);
    }

    #[test]
    fn p99_of_a_right_skewed_sample_is_not_below_its_mean() {
        // Mostly fast requests plus a slow tail: the shape of a serving
        // latency sample. Reading 0.99 on a 0–100 scale would return
        // roughly the minimum, far below the mean.
        let xs: Vec<f64> = (0..2000)
            .map(|i| {
                if i % 50 == 0 {
                    20.0
                } else {
                    0.3 + (i % 7) as f64 * 0.01
                }
            })
            .collect();
        let p99 = quantile(&xs, 0.99).expect("non-empty");
        assert!(p99 >= mean(&xs).expect("non-empty"), "p99 {p99}");
        assert_eq!(p99, 20.0);
    }

    #[test]
    fn unsupported_tail_is_missing_not_faked() {
        let xs: Vec<f64> = (1..=500).map(f64::from).collect();
        // 500 samples: p99 has 5 beyond it, p98 has exactly 10.
        assert_eq!(supported_quantile(&xs, 0.99), None);
        assert_eq!(supported_quantile(&xs, 0.98), Some(490.0));
        assert_eq!(supported_quantile(&xs, 0.9), Some(450.0));
        assert_eq!(supported_quantile(&xs[..9], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
