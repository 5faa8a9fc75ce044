//! The q-error metric (Leis et al. \[29\] in the paper).
//!
//! `q(c, c') = max(c/c', c'/c) ≥ 1` measures the *relative factor* by
//! which a prediction deviates from the truth, symmetrically for over- and
//! under-estimation. A perfect estimate has q = 1.

use zt_dspsim::metrics::quantile;

/// Q-error of a prediction against the true value. Values are clamped to
/// a tiny positive floor so degenerate zero costs do not produce
/// infinities; a non-finite prediction or truth (NaN, ±∞ — e.g. a
/// diverged model) is the worst possible estimate and reports `+∞`
/// rather than silently clamping NaN to the floor.
pub fn q_error(predicted: f64, truth: f64) -> f64 {
    if !predicted.is_finite() || !truth.is_finite() {
        return f64::INFINITY;
    }
    let p = predicted.max(1e-9);
    let t = truth.max(1e-9);
    (p / t).max(t / p)
}

/// Summary of a q-error sample (median / 95th / mean), the numbers
/// reported in every table and figure of the paper's evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct QErrorStats {
    pub median: f64,
    pub p95: f64,
    pub mean: f64,
    pub count: usize,
}

impl QErrorStats {
    /// Compute stats from raw q-errors.
    pub fn from_qerrors(qs: &[f64]) -> Self {
        let mean = if qs.is_empty() {
            f64::NAN
        } else {
            qs.iter().sum::<f64>() / qs.len() as f64
        };
        QErrorStats {
            median: quantile(qs, 0.5),
            p95: quantile(qs, 0.95),
            mean,
            count: qs.len(),
        }
    }

    /// Compute stats from (prediction, truth) pairs.
    pub fn from_pairs<I: IntoIterator<Item = (f64, f64)>>(pairs: I) -> Self {
        let qs: Vec<f64> = pairs.into_iter().map(|(p, t)| q_error(p, t)).collect();
        Self::from_qerrors(&qs)
    }
}

impl std::fmt::Display for QErrorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.2}, 95th {:.2} (n={})",
            self.median, self.p95, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_is_one() {
        assert_eq!(q_error(42.0, 42.0), 1.0);
    }

    #[test]
    fn symmetric_over_and_under_estimation() {
        assert_eq!(q_error(10.0, 5.0), 2.0);
        assert_eq!(q_error(5.0, 10.0), 2.0);
    }

    #[test]
    fn always_at_least_one() {
        for (p, t) in [
            (1.0, 3.0),
            (3.0, 1.0),
            (0.0, 5.0),
            (5.0, 0.0),
            (1e-12, 1e-12),
        ] {
            assert!(q_error(p, t) >= 1.0, "q({p},{t}) < 1");
        }
    }

    #[test]
    fn zero_truth_does_not_blow_up_to_infinity() {
        let q = q_error(1.0, 0.0);
        assert!(q.is_finite());
    }

    #[test]
    fn stats_from_pairs() {
        let s = QErrorStats::from_pairs(vec![(1.0, 1.0), (2.0, 1.0), (1.0, 4.0)]);
        assert_eq!(s.count, 3);
        assert_eq!(s.median, 2.0);
        assert!((s.mean - (1.0 + 2.0 + 4.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_nan() {
        let s = QErrorStats::from_qerrors(&[]);
        assert!(s.median.is_nan());
        assert!(s.p95.is_nan());
        assert!(s.mean.is_nan());
        assert_eq!(s.count, 0);
    }

    #[test]
    fn empty_pairs_match_empty_qerrors() {
        let s = QErrorStats::from_pairs(Vec::<(f64, f64)>::new());
        assert_eq!(s.count, 0);
        assert!(s.median.is_nan());
    }

    #[test]
    fn zero_and_near_zero_predictions_are_floored() {
        // Both sides at/below the floor collapse to a perfect score
        // instead of 0/0 noise.
        assert_eq!(q_error(0.0, 0.0), 1.0);
        assert_eq!(q_error(1e-300, 1e-300), 1.0);
        assert_eq!(q_error(-4.0, 0.0), 1.0); // negative costs clamp too
        let q = q_error(1e-12, 1.0);
        assert!((q - 1e9).abs() / 1e9 < 1e-9, "floored q {q}");
    }

    #[test]
    fn non_finite_inputs_are_worst_case_not_clamped() {
        assert_eq!(q_error(f64::NAN, 5.0), f64::INFINITY);
        assert_eq!(q_error(5.0, f64::NAN), f64::INFINITY);
        assert_eq!(q_error(f64::INFINITY, 5.0), f64::INFINITY);
        assert_eq!(q_error(f64::NEG_INFINITY, 5.0), f64::INFINITY);
        assert_eq!(q_error(f64::NAN, f64::NAN), f64::INFINITY);
    }

    #[test]
    fn nan_prediction_poisons_mean_but_is_never_nan() {
        let s = QErrorStats::from_pairs(vec![(1.0, 1.0), (f64::NAN, 1.0)]);
        assert_eq!(s.count, 2);
        assert_eq!(s.mean, f64::INFINITY);
        assert!(!s.mean.is_nan());
    }
}
