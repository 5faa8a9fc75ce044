//! Summary statistics shared by the simulator, the trainer, the
//! experiment harness and the telemetry histograms.
//!
//! Moved here from `zt_dspsim::metrics` (which re-exports this module)
//! so the telemetry registry can reuse it without a dependency cycle.
//!
//! ## Edge-case semantics (pinned)
//!
//! The statistics are defined explicitly on degenerate inputs instead of
//! relying on fold identities:
//!
//! | input          | `mean` | `min`/`max` | `quantile`/`median` | `std` |
//! |----------------|--------|-------------|---------------------|-------|
//! | empty          | NaN    | NaN         | NaN                 | NaN   |
//! | single sample  | value  | value       | value (any `q`)     | 0.0   |
//! | constant series| value  | value       | value               | 0.0 exactly |
//!
//! `quantile` takes `q ∈ [0, 1]` — the p95 is `quantile(0.95)` — and
//! panics on any `q` outside it (or NaN) rather than clamping, so a
//! percent-scale `quantile(95.0)` fails loudly instead of silently
//! reporting the maximum. `quantile(0) = min` and `quantile(1) = max`
//! hold exactly, and the result is monotone in `q` (both properties are
//! proptested below). Samples must be NaN-free; `quantile` panics
//! otherwise.

/// Accumulator for a stream of f64 samples.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    values: Vec<f64>,
}

impl Summary {
    pub fn new() -> Self {
        Summary { values: Vec::new() }
    }

    pub fn add(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean; NaN on an empty summary.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Smallest sample; NaN on an empty summary.
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample; NaN on an empty summary.
    pub fn max(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Quantile via linear interpolation on the sorted sample
    /// (`q ∈ [0, 1]`; panics outside it). NaN on an empty summary; the
    /// single sample for every `q` on a one-element summary.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.values, q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Sample standard deviation (n−1 denominator). NaN on an empty
    /// summary, 0.0 for a single sample, and **exactly** 0.0 for a
    /// constant series (guarded via `min == max`, so float summation
    /// round-off cannot leak a spurious nonzero spread).
    pub fn std(&self) -> f64 {
        match self.values.len() {
            0 => f64::NAN,
            1 => 0.0,
            _ => {
                if self.min() == self.max() {
                    return 0.0;
                }
                let m = self.mean();
                let var = self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>()
                    / (self.values.len() - 1) as f64;
                var.sqrt()
            }
        }
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Summary {
            values: iter.into_iter().collect(),
        }
    }
}

/// Quantile of a sample with linear interpolation (`q ∈ [0, 1]`).
/// Returns NaN on an empty slice; panics on NaN samples and on `q`
/// outside `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile q = {q} is outside [0, 1] (a percentile p is q = p / 100)"
    );
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_stats() {
        let s: Summary = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        assert_eq!(s.len(), 5);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert!((s.std() - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 40.0);
        assert_eq!(quantile(&v, 0.5), 25.0);
        assert!((quantile(&v, 0.95) - 38.5).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_all_nan() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert!(s.mean().is_nan());
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
        assert!(s.quantile(0.5).is_nan());
        assert!(s.median().is_nan());
        assert!(s.std().is_nan());
    }

    #[test]
    fn single_value_is_every_quantile_with_zero_spread() {
        let s: Summary = [7.0].into_iter().collect();
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.min(), 7.0);
        assert_eq!(s.max(), 7.0);
        assert_eq!(s.median(), 7.0);
        assert_eq!(s.quantile(0.0), 7.0);
        assert_eq!(s.quantile(0.95), 7.0);
        assert_eq!(s.quantile(1.0), 7.0);
        assert_eq!(s.std(), 0.0);
    }

    #[test]
    fn constant_series_has_exactly_zero_std() {
        // 0.1 summed repeatedly does not round-trip: without the min==max
        // guard the naive two-pass formula reports a tiny nonzero std.
        let s: Summary = std::iter::repeat_n(0.1, 17).collect();
        assert_eq!(s.std(), 0.0);
        let s2: Summary = std::iter::repeat_n(-3.7e11, 5).collect();
        assert_eq!(s2.std(), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_rejects_percent_scale_q() {
        let s: Summary = [1.0, 2.0].into_iter().collect();
        s.quantile(99.0);
    }

    /// Deterministic pseudo-random f64 in [-1e3, 1e3) from a splitmix64
    /// step — proptest's vendored subset has no Vec strategies, so test
    /// vectors are derived from a sampled (seed, len) pair instead.
    fn mix_value(seed: u64, i: u64) -> f64 {
        let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z as f64 / u64::MAX as f64 - 0.5) * 2e3
    }

    fn mix_summary(seed: u64, len: usize) -> Summary {
        (0..len as u64).map(|i| mix_value(seed, i)).collect()
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn quantile_is_monotone_in_q(seed in 0u64..1024, len in 1usize..48,
                                         q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
                let s = mix_summary(seed, len);
                let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
                let (plo, phi) = (s.quantile(lo), s.quantile(hi));
                // tiny tolerance for interpolation round-off between segments
                prop_assert!(plo <= phi + 1e-9 * phi.abs().max(1.0),
                    "p({lo}) = {plo} > p({hi}) = {phi}");
            }

            #[test]
            fn q0_is_min_and_q1_is_max(seed in 0u64..1024, len in 1usize..48) {
                let s = mix_summary(seed, len);
                prop_assert_eq!(s.quantile(0.0), s.min());
                prop_assert_eq!(s.quantile(1.0), s.max());
            }

            #[test]
            fn constant_series_std_is_zero(seed in 0u64..1024, len in 1usize..48) {
                let v = mix_value(seed, 0);
                let s: Summary = std::iter::repeat_n(v, len).collect();
                prop_assert_eq!(s.std(), 0.0);
            }

            #[test]
            fn quantile_lies_between_min_and_max(seed in 0u64..1024, len in 1usize..48,
                                                 q in 0.0f64..1.0) {
                let s = mix_summary(seed, len);
                let p = s.quantile(q);
                prop_assert!(s.min() <= p && p <= s.max());
            }
        }
    }
}
