//! Flat-vector MLP baseline: the deep-network extension of the flat
//! representation (the paper's "Flat Vector MLP").
//!
//! Same aggregate input vector as [`crate::linreg`], but a two-hidden-layer
//! MLP trained with Adam on normalized log targets — i.e. the learning
//! machinery of ZeroTune without the graph representation. Its remaining
//! gap to ZeroTune isolates the contribution of the structural encoding.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zt_core::dataset::Dataset;
use zt_core::graph::GraphEncoding;
use zt_core::model::TargetNorm;
use zt_nn::optim::clip_grad_norm;
use zt_nn::{Adam, Mlp, Optimizer, ParamStore, Scratch, Tape};

use crate::flat::{flatten, FLAT_DIM};

/// MLP over the flat plan vector.
///
/// Inputs are z-standardized with statistics fitted on the training set
/// (standard practice for MLPs on raw-scale features); note that
/// standardization does not grant extrapolation — unseen parameter values
/// still map far outside the training z-range.
pub struct FlatMlp {
    store: ParamStore,
    mlp: Mlp,
    norm: TargetNorm,
    input_mean: Vec<f32>,
    input_std: Vec<f32>,
}

thread_local! {
    /// Per-thread scratch arena so `predict(&self)` stays allocation-free
    /// after warm-up while the model remains `Sync`.
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::new());
}

impl FlatMlp {
    /// Fit with default hyper-parameters (40 epochs, Adam 2e-3).
    pub fn fit(data: &Dataset, seed: u64) -> Self {
        Self::fit_with(data, seed, 40, 2e-3)
    }

    /// Fit with explicit epoch/learning-rate settings.
    pub fn fit_with(data: &Dataset, seed: u64, epochs: usize, lr: f32) -> Self {
        assert!(!data.is_empty());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "flat", &[FLAT_DIM, 64, 64, 2], &mut rng);
        let norm = TargetNorm::fit(data.labels());

        // fit input standardization on the training vectors
        let raw: Vec<[f64; FLAT_DIM]> = data.samples.iter().map(|s| flatten(&s.graph)).collect();
        let n = raw.len() as f64;
        let mut input_mean = vec![0f32; FLAT_DIM];
        let mut input_std = vec![0f32; FLAT_DIM];
        for d in 0..FLAT_DIM {
            let mean = raw.iter().map(|r| r[d]).sum::<f64>() / n;
            let var = raw.iter().map(|r| (r[d] - mean).powi(2)).sum::<f64>() / n;
            input_mean[d] = mean as f32;
            input_std[d] = (var.sqrt().max(1e-6)) as f32;
        }
        let standardize = |f: &[f64; FLAT_DIM]| -> Vec<f32> {
            f.iter()
                .enumerate()
                .map(|(d, &v)| ((v as f32) - input_mean[d]) / input_std[d])
                .collect()
        };
        let inputs: Vec<Vec<f32>> = raw.iter().map(standardize).collect();
        let targets: Vec<[f32; 2]> = data
            .samples
            .iter()
            .map(|s| norm.normalize(s.latency_ms, s.throughput))
            .collect();

        let mut opt = Adam::new(lr);
        let mut tape = Tape::new();
        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..epochs {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for batch in order.chunks(16) {
                store.zero_grad();
                for &i in batch {
                    tape.clear();
                    let x = tape.leaf_row(&inputs[i]);
                    let out = mlp.forward(&mut tape, &store, x);
                    let t = tape.leaf_row(&targets[i]);
                    let loss = tape.mse_loss(out, t);
                    tape.backward(loss, &mut store);
                }
                store.scale_grads(1.0 / batch.len() as f32);
                clip_grad_norm(&mut store, 5.0);
                opt.step(&mut store);
            }
        }

        FlatMlp {
            store,
            mlp,
            norm,
            input_mean,
            input_std,
        }
    }

    /// The trained weights.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Predict `(latency_ms, throughput)` via the tapeless forward pass.
    pub fn predict(&self, graph: &GraphEncoding) -> (f64, f64) {
        SCRATCH.with(|s| self.predict_with(graph, &mut s.borrow_mut()))
    }

    /// Tapeless prediction reusing an explicit scratch arena.
    pub fn predict_with(&self, graph: &GraphEncoding, scratch: &mut Scratch) -> (f64, f64) {
        let f = flatten(graph);
        let mut x = scratch.zeros(1, FLAT_DIM);
        for (d, &v) in f.iter().enumerate() {
            x.data[d] = ((v as f32) - self.input_mean[d]) / self.input_std[d];
        }
        let out = self.mlp.infer(&self.store, &x, scratch);
        let pred = self.norm.denormalize([
            out.data[0].clamp(-20.0, 20.0),
            out.data[1].clamp(-20.0, 20.0),
        ]);
        scratch.recycle(x);
        scratch.recycle(out);
        pred
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linreg::LinearRegression;
    use zt_core::dataset::{generate_dataset, GenConfig};
    use zt_core::qerror::QErrorStats;
    use zt_nn::Matrix;

    fn qerr(pairs: impl Iterator<Item = (f64, f64)>) -> QErrorStats {
        QErrorStats::from_pairs(pairs)
    }

    #[test]
    fn mlp_learns_the_training_distribution() {
        let data = generate_dataset(&GenConfig::seen(), 200, 61);
        let (train, test, _) = data.split(0.8, 0.2, 0);
        let model = FlatMlp::fit(&train, 1);
        let q = qerr(
            test.samples
                .iter()
                .map(|s| (model.predict(&s.graph).0, s.latency_ms)),
        );
        assert!(q.median < 5.0, "flat MLP median q-error {}", q.median);
    }

    #[test]
    fn mlp_at_least_matches_linear_regression_in_distribution() {
        let data = generate_dataset(&GenConfig::seen(), 220, 62);
        let (train, test, _) = data.split(0.8, 0.2, 0);
        let mlp = FlatMlp::fit(&train, 2);
        let lin = LinearRegression::fit(&train, 1e-3);
        let q_mlp = qerr(
            test.samples
                .iter()
                .map(|s| (mlp.predict(&s.graph).0, s.latency_ms)),
        );
        let q_lin = qerr(
            test.samples
                .iter()
                .map(|s| (lin.predict(&s.graph).0, s.latency_ms)),
        );
        assert!(
            q_mlp.median < q_lin.median * 1.5,
            "flat MLP {} much worse than linreg {}",
            q_mlp.median,
            q_lin.median
        );
    }

    #[test]
    fn tapeless_predict_matches_taped_forward() {
        let data = generate_dataset(&GenConfig::seen(), 60, 65);
        let model = FlatMlp::fit(&data, 4);
        for s in data.samples.iter().take(10) {
            let f = flatten(&s.graph);
            let z: Vec<f32> = f
                .iter()
                .enumerate()
                .map(|(d, &v)| ((v as f32) - model.input_mean[d]) / model.input_std[d])
                .collect();
            let mut tape = Tape::new();
            let x = tape.leaf(Matrix::row(&z));
            let out = model.mlp.forward(&mut tape, &model.store, x);
            let v = tape.value(out);
            let taped = model
                .norm
                .denormalize([v.data[0].clamp(-20.0, 20.0), v.data[1].clamp(-20.0, 20.0)]);
            assert_eq!(model.predict(&s.graph), taped);
        }
    }

    #[test]
    fn predictions_finite_on_unseen_structures() {
        let data = generate_dataset(&GenConfig::seen(), 80, 63);
        let model = FlatMlp::fit(&data, 3);
        let unseen = generate_dataset(&GenConfig::unseen_structures(), 30, 64);
        for s in &unseen.samples {
            let (lat, tpt) = model.predict(&s.graph);
            assert!(lat > 0.0 && lat.is_finite());
            assert!(tpt > 0.0 && tpt.is_finite());
        }
    }
}
