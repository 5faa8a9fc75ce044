//! Finite-difference gradient verification.
//!
//! Every model in the workspace is checked end-to-end against central
//! finite differences: for a loss `L(θ)`, the analytic gradient from
//! [`crate::tape::Tape::backward`] must match
//! `(L(θ+ε) − L(θ−ε)) / 2ε` on every coordinate.

use crate::layers::{ParamId, ParamStore};
use crate::tape::{Tape, Var};

/// Result of a gradient check.
#[derive(Clone, Debug)]
pub struct GradCheckReport {
    /// Worst relative error over all checked coordinates.
    pub max_rel_error: f64,
    /// Coordinates checked.
    pub checked: usize,
    /// All relative errors (one per checked coordinate).
    pub errors: Vec<f64>,
}

impl GradCheckReport {
    /// Fraction of checked coordinates whose relative error exceeds
    /// `threshold`. ReLU networks have kinks where central differences
    /// straddle the non-differentiability, so a tiny fraction of large
    /// discrepancies is expected; systematic gradient bugs show up as a
    /// large fraction.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.errors.is_empty() {
            return 0.0;
        }
        self.errors.iter().filter(|&&e| e > threshold).count() as f64 / self.errors.len() as f64
    }

    /// Median relative error over checked coordinates.
    pub fn median_rel_error(&self) -> f64 {
        if self.errors.is_empty() {
            return 0.0;
        }
        let mut v = self.errors.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
        v[v.len() / 2]
    }
}

/// Check analytic gradients of `loss_fn` against central differences.
///
/// `loss_fn` must build the full forward computation on the supplied tape
/// and return the scalar loss node. `eps` is the perturbation size
/// (`1e-2` works well for `f32`); coordinates where both gradients are
/// tiny are skipped.
pub fn check_gradients<F>(
    store: &mut ParamStore,
    mut loss_fn: F,
    eps: f32,
    max_coords_per_param: usize,
) -> GradCheckReport
where
    F: FnMut(&mut Tape, &ParamStore) -> Var,
{
    // Analytic pass.
    let mut tape = Tape::new();
    let loss = loss_fn(&mut tape, store);
    store.zero_grad();
    tape.backward(loss, store);
    let analytic: Vec<(ParamId, Vec<f32>)> = store
        .ids()
        .map(|id| (id, store.grad(id).data.clone()))
        .collect();

    let mut max_rel_error = 0f64;
    let mut checked = 0usize;
    let mut errors = Vec::new();

    for (id, grads) in &analytic {
        let n = grads.len();
        let step = (n / max_coords_per_param.max(1)).max(1);
        for i in (0..n).step_by(step) {
            let mut central_diff = |eps: f32| {
                let orig = store.value(*id).data[i];

                store.value_mut(*id).data[i] = orig + eps;
                let mut t_plus = Tape::new();
                let l_plus = loss_fn(&mut t_plus, store);
                let f_plus = t_plus.scalar_value(l_plus) as f64;

                store.value_mut(*id).data[i] = orig - eps;
                let mut t_minus = Tape::new();
                let l_minus = loss_fn(&mut t_minus, store);
                let f_minus = t_minus.scalar_value(l_minus) as f64;

                store.value_mut(*id).data[i] = orig;
                (f_plus - f_minus) / (2.0 * eps as f64)
            };

            let a = grads[i] as f64;
            let rel_at = |numeric: f64| {
                let scale = a.abs().max(numeric.abs());
                (scale >= 1e-4).then(|| (a - numeric).abs() / scale)
            };

            let Some(mut rel) = rel_at(central_diff(eps)) else {
                continue; // both ~zero: nothing to compare against
            };
            if rel > 0.02 {
                // The perturbation may have crossed a ReLU kink, where a
                // central difference is meaningless. A genuine gradient bug
                // stays wrong at any step size, so retry with a smaller one
                // and keep the better estimate.
                if let Some(rel_small) = rel_at(central_diff(eps / 8.0)) {
                    rel = rel.min(rel_small);
                }
            }
            max_rel_error = max_rel_error.max(rel);
            errors.push(rel);
            checked += 1;
        }
    }

    GradCheckReport {
        max_rel_error,
        checked,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Mlp;
    use crate::matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[4, 8, 2], &mut rng);
        let x = Matrix::row(&[0.3, -0.7, 1.2, 0.1]);
        let y = Matrix::row(&[0.5, -0.2]);

        let report = check_gradients(
            &mut store,
            |tape, store| {
                let xv = tape.leaf(x.clone());
                let out = mlp.forward(tape, store, xv);
                let target = tape.leaf(y.clone());
                tape.mse_loss(out, target)
            },
            1e-2,
            16,
        );
        assert!(report.checked > 10, "too few coordinates checked");
        assert!(
            report.max_rel_error < 0.03,
            "gradient mismatch: {}",
            report.max_rel_error
        );
    }

    #[test]
    fn param_matmul_add_row_oracle_gradients_match() {
        // The general composition the fused `Tape::linear` is tested
        // against, on a multi-row input.
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[3, 6, 2], &mut rng);
        let x = Matrix::from_vec(2, 3, vec![0.4, -1.1, 0.8, 0.0, 0.6, -0.3]);
        let y = Matrix::from_vec(2, 2, vec![0.2, -0.5, 1.0, 0.3]);

        let report = check_gradients(
            &mut store,
            |tape, store| {
                let mut h = tape.leaf(x.clone());
                for (i, layer) in mlp.layers.iter().enumerate() {
                    let w = tape.param(store, layer.w);
                    let b = tape.param(store, layer.b);
                    let xw = tape.matmul(h, w);
                    h = tape.add_row(xw, b);
                    if i == 0 {
                        h = tape.relu(h);
                    }
                }
                let target = tape.leaf(y.clone());
                tape.mse_loss(h, target)
            },
            1e-2,
            16,
        );
        assert!(report.checked > 10, "too few coordinates checked");
        assert!(
            report.max_rel_error < 0.03,
            "gradient mismatch: {}",
            report.max_rel_error
        );
    }

    #[test]
    fn composite_ops_gradients_match() {
        // Exercise concat, mean, tanh and weighted sum in one graph.
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let enc_a = Mlp::new(&mut store, "a", &[2, 4], &mut rng);
        let enc_b = Mlp::new(&mut store, "b", &[3, 4], &mut rng);
        let head = Mlp::new(&mut store, "h", &[8, 4, 1], &mut rng);
        let xa = Matrix::row(&[0.2, -0.4]);
        let xb = Matrix::row(&[1.0, 0.5, -0.3]);

        let report = check_gradients(
            &mut store,
            |tape, store| {
                let a_in = tape.leaf(xa.clone());
                let b_in = tape.leaf(xb.clone());
                let ha = enc_a.forward(tape, store, a_in);
                let hb = enc_b.forward(tape, store, b_in);
                let ha_t = tape.tanh(ha);
                let mean = tape.mean_vars(&[ha_t, hb]);
                let weighted = tape.weighted_sum(&[(mean, 0.7), (hb, 0.3)]);
                let cat = tape.concat_cols(&[weighted, hb]);
                let out = head.forward(tape, store, cat);
                let target = tape.leaf(Matrix::scalar(0.25));
                tape.mse_loss(out, target)
            },
            1e-2,
            8,
        );
        assert!(report.checked > 10);
        assert!(
            report.max_rel_error < 0.05,
            "gradient mismatch: {}",
            report.max_rel_error
        );
    }
}
