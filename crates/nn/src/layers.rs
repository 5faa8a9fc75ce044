//! Parameter storage and neural-network modules (`Linear`, `Mlp`).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::infer::Scratch;
use crate::matrix::Matrix;
use crate::tape::{Tape, Var};

/// Handle to a parameter in a [`ParamStore`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ParamId(pub usize);

#[derive(Clone, Debug, Serialize, Deserialize)]
struct ParamEntry {
    name: String,
    value: Matrix,
    #[serde(skip)]
    grad: Option<Matrix>,
    /// First/second Adam moments (lazily initialized by the optimizer).
    #[serde(skip)]
    m: Option<Matrix>,
    #[serde(skip)]
    v: Option<Matrix>,
}

/// Owns all trainable parameters of a model, their gradients and optimizer
/// state. Serializable (weights only) so trained models can be persisted.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ParamStore {
    params: Vec<ParamEntry>,
}

impl ParamStore {
    pub fn new() -> Self {
        ParamStore { params: Vec::new() }
    }

    /// Register a parameter and return its id.
    pub fn alloc(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.params.push(ParamEntry {
            name: name.into(),
            value,
            grad: None,
            m: None,
            v: None,
        });
        ParamId(self.params.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.params.len()
    }

    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_weights(&self) -> usize {
        self.params.iter().map(|p| p.value.data.len()).sum()
    }

    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0].value
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Current gradient (zeros if never touched).
    pub fn grad(&self, id: ParamId) -> Matrix {
        let p = &self.params[id.0];
        p.grad
            .clone()
            .unwrap_or_else(|| Matrix::zeros(p.value.rows, p.value.cols))
    }

    /// Add `g` into the parameter's gradient accumulator.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Matrix) {
        self.grad_mut(id).add_assign(g);
    }

    /// The parameter's gradient accumulator, allocated as `+0.0` zeros on
    /// first touch. Every contribution, the first one included, is added
    /// into it, so the sum never holds `-0.0` (an IEEE sum is `-0.0` only
    /// when both operands are).
    pub(crate) fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        let p = &mut self.params[id.0];
        let (rows, cols) = p.value.shape();
        p.grad.get_or_insert_with(|| Matrix::zeros(rows, cols))
    }

    /// Reset all gradients to zero (keeps allocations).
    pub fn zero_grad(&mut self) {
        for p in &mut self.params {
            if let Some(g) = &mut p.grad {
                g.zero_out();
            }
        }
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .filter_map(|p| p.grad.as_ref())
            .map(|g| g.data.iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scale all gradients by `s` (used for gradient clipping and
    /// mini-batch averaging).
    pub fn scale_grads(&mut self, s: f32) {
        for p in &mut self.params {
            if let Some(g) = &mut p.grad {
                for v in &mut g.data {
                    *v *= s;
                }
            }
        }
    }

    pub(crate) fn optim_state(
        &mut self,
        id: ParamId,
    ) -> (
        &mut Matrix,
        &mut Option<Matrix>,
        &mut Option<Matrix>,
        Option<&Matrix>,
    ) {
        let p = &mut self.params[id.0];
        (&mut p.value, &mut p.m, &mut p.v, p.grad.as_ref())
    }

    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Copy all weights from another store with identical layout (used by
    /// few-shot fine-tuning to restore snapshots).
    pub fn copy_weights_from(&mut self, other: &ParamStore) {
        assert_eq!(self.params.len(), other.params.len(), "layout mismatch");
        for (a, b) in self.params.iter_mut().zip(other.params.iter()) {
            assert!(
                a.value.same_shape(&b.value),
                "shape mismatch for {}",
                a.name
            );
            a.value = b.value.clone();
        }
    }
}

/// Structured width error for the checked inference entry points: the
/// input (or a stored weight matrix) does not have the width the layer
/// expects. Returned by [`Linear::infer_checked`] / [`Mlp::infer_checked`]
/// so release-mode serving paths reject mis-shaped inputs instead of
/// panicking inside the matmul kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DimMismatch {
    /// Index of the offending layer inside its module.
    pub layer: usize,
    /// Width the layer expects (its weight matrix's row count).
    pub expected: usize,
    /// Width actually supplied.
    pub got: usize,
}

impl std::fmt::Display for DimMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dimension mismatch at layer {}: expected input width {}, got {}",
            self.layer, self.expected, self.got
        )
    }
}

impl std::error::Error for DimMismatch {}

/// A fully connected layer `y = x·W + b`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Linear {
    pub w: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    /// He-initialized layer (suits ReLU activations).
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let std = (2.0 / in_dim as f32).sqrt();
        let w = Matrix {
            rows: in_dim,
            cols: out_dim,
            data: (0..in_dim * out_dim)
                .map(|_| {
                    // Box–Muller normal draw.
                    let u1: f32 = rng.gen_range(1e-7..1.0);
                    let u2: f32 = rng.gen_range(0.0..1.0);
                    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos() * std
                })
                .collect(),
        };
        let b = Matrix::zeros(1, out_dim);
        Linear {
            w: store.alloc(format!("{name}.w"), w),
            b: store.alloc(format!("{name}.b"), b),
            in_dim,
            out_dim,
        }
    }

    /// Taped forward pass: one fused [`Tape::linear`] node that reads the
    /// weights from the store.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        tape.linear(x, store, self.w, self.b)
    }

    /// Tapeless forward pass: `x·W + b` computed directly against the
    /// store's weights (no tape nodes). Produces the same `f32` values as
    /// [`Linear::forward`]; both go through `Linear::affine_into`.
    pub fn infer(&self, store: &ParamStore, x: &Matrix, scratch: &mut Scratch) -> Matrix {
        let mut out = scratch.zeros(x.rows, self.out_dim);
        Self::affine_into(store, self.w, self.b, x, &mut out);
        out
    }

    /// `out = x·W + b` into a pre-zeroed `out`: [`Matrix::matmul_into`],
    /// then the bias added row by row — the arithmetic of the tape's
    /// `matmul` followed by `add_row`.
    pub(crate) fn affine_into(
        store: &ParamStore,
        w: ParamId,
        b: ParamId,
        x: &Matrix,
        out: &mut Matrix,
    ) {
        x.matmul_into(store.value(w), out);
        let bias = &store.value(b).data[..out.cols];
        for row in out.data.chunks_exact_mut(out.cols.max(1)) {
            for (o, &bv) in row.iter_mut().zip(bias) {
                *o += bv;
            }
        }
    }

    /// Width-checked [`Linear::infer`]: verifies the input width against
    /// the *stored weight matrix* (not just the `in_dim` metadata, which a
    /// tampered serialized model could mis-declare) before touching the
    /// matmul kernel.
    pub fn infer_checked(
        &self,
        store: &ParamStore,
        x: &Matrix,
        scratch: &mut Scratch,
    ) -> Result<Matrix, DimMismatch> {
        let w = store.value(self.w);
        if x.cols != w.rows {
            return Err(DimMismatch {
                layer: 0,
                expected: w.rows,
                got: x.cols,
            });
        }
        Ok(self.infer(store, x, scratch))
    }
}

/// Multi-layer perceptron with ReLU activations between layers and a
/// linear output layer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Mlp {
    pub layers: Vec<Linear>,
}

impl Mlp {
    /// `dims = [in, hidden…, out]`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        dims: &[usize],
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "MLP needs at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.{i}"), w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty MLP").in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty MLP").out_dim
    }

    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, mut x: Var) -> Var {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(tape, store, x);
            if i < last {
                x = tape.relu(x);
            }
        }
        x
    }

    /// Tapeless forward pass mirroring [`Mlp::forward`] (ReLU between
    /// layers, linear output). Intermediate activations live in `scratch`
    /// and are recycled layer by layer; the returned matrix can be
    /// recycled by the caller once read.
    pub fn infer(&self, store: &ParamStore, x: &Matrix, scratch: &mut Scratch) -> Matrix {
        debug_assert!(
            x.data.iter().all(|v| v.is_finite()),
            "non-finite input to Mlp::infer — upstream features or activations are corrupted"
        );
        let last = self.layers.len() - 1;
        let mut cur: Option<Matrix> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut next = layer.infer(store, cur.as_ref().unwrap_or(x), scratch);
            if i < last {
                crate::infer::relu_inplace(&mut next);
            }
            if let Some(prev) = cur.take() {
                scratch.recycle(prev);
            }
            cur = Some(next);
        }
        cur.expect("non-empty MLP")
    }

    /// Width-checked [`Mlp::infer`]: validates the input width and the
    /// layer-to-layer width chain against the stored weight matrices
    /// before running the forward pass, so a mis-shaped input (or a
    /// deserialized model whose metadata lies about its shapes) surfaces
    /// as a structured [`DimMismatch`] instead of a release-mode panic.
    pub fn infer_checked(
        &self,
        store: &ParamStore,
        x: &Matrix,
        scratch: &mut Scratch,
    ) -> Result<Matrix, DimMismatch> {
        let mut width = x.cols;
        for (i, layer) in self.layers.iter().enumerate() {
            let w = store.value(layer.w);
            if width != w.rows {
                return Err(DimMismatch {
                    layer: i,
                    expected: w.rows,
                    got: width,
                });
            }
            width = w.cols;
        }
        Ok(self.infer(store, x, scratch))
    }

    /// Parameter ids of this module (for per-module learning-rate masks).
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.layers.iter().flat_map(|l| [l.w, l.b]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 4, 3, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(2, 4));
        let y = lin.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (2, 3));
    }

    #[test]
    fn mlp_forward_shape_and_params() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[5, 8, 8, 2], &mut rng);
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 2);
        assert_eq!(store.len(), 6); // 3 layers × (w, b)
        assert_eq!(store.num_weights(), 5 * 8 + 8 + 8 * 8 + 8 + 8 * 2 + 2);
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(1, 5));
        let y = mlp.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (1, 2));
    }

    #[test]
    fn he_init_has_reasonable_scale() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 100, 100, &mut rng);
        let w = store.value(lin.w);
        let std = (w.data.iter().map(|v| v * v).sum::<f32>() / w.data.len() as f32).sqrt();
        let expected = (2.0f32 / 100.0).sqrt();
        assert!((std - expected).abs() / expected < 0.15, "std {std}");
        // bias starts at zero
        assert!(store.value(lin.b).data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_grad_resets() {
        let mut store = ParamStore::new();
        let id = store.alloc("p", Matrix::scalar(1.0));
        store.accumulate_grad(id, &Matrix::scalar(5.0));
        assert_eq!(store.grad(id).data[0], 5.0);
        store.accumulate_grad(id, &Matrix::scalar(2.0));
        assert_eq!(store.grad(id).data[0], 7.0);
        store.zero_grad();
        assert_eq!(store.grad(id).data[0], 0.0);
    }

    #[test]
    fn grad_norm_and_scaling() {
        let mut store = ParamStore::new();
        let a = store.alloc("a", Matrix::scalar(0.0));
        let b = store.alloc("b", Matrix::scalar(0.0));
        store.accumulate_grad(a, &Matrix::scalar(3.0));
        store.accumulate_grad(b, &Matrix::scalar(4.0));
        assert!((store.grad_norm() - 5.0).abs() < 1e-6);
        store.scale_grads(0.5);
        assert!((store.grad_norm() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn weights_serde_round_trip() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let _ = Mlp::new(&mut store, "m", &[3, 4, 1], &mut rng);
        let json = serde_json::to_string(&store).unwrap();
        let back: ParamStore = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), store.len());
        for id in store.ids() {
            assert_eq!(back.value(id), store.value(id));
        }
    }

    #[test]
    fn infer_matches_tape_forward_exactly() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[6, 16, 16, 3], &mut rng);
        let mut scratch = Scratch::new();
        for row in 0..20 {
            let x = Matrix::row(
                &(0..6)
                    .map(|c| ((row * 7 + c) as f32 * 0.31).sin())
                    .collect::<Vec<_>>(),
            );
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let out = mlp.forward(&mut tape, &store, xv);
            let taped = tape.value(out).clone();
            let tapeless = mlp.infer(&store, &x, &mut scratch);
            // bitwise equality: both paths share the matmul kernel and
            // accumulation order
            assert_eq!(taped.data, tapeless.data);
            scratch.recycle(tapeless);
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Random MLP shapes and seeds: the tapeless path must agree
            /// with the tape within 1e-5 (in fact bitwise).
            #[test]
            fn infer_matches_tape(
                seed in 0u64..10_000,
                hidden in 2usize..24,
                depth in 1usize..4,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut store = ParamStore::new();
                let mut dims = vec![5];
                dims.extend(std::iter::repeat_n(hidden, depth));
                dims.push(2);
                let mlp = Mlp::new(&mut store, "m", &dims, &mut rng);
                let x = Matrix::row(&[0.9, -1.4, 0.02, 3.0, -0.6]);
                let mut tape = Tape::new();
                let xv = tape.leaf(x.clone());
                let out = mlp.forward(&mut tape, &store, xv);
                let taped = tape.value(out).clone();
                let mut scratch = Scratch::new();
                let tapeless = mlp.infer(&store, &x, &mut scratch);
                for (a, b) in taped.data.iter().zip(tapeless.data.iter()) {
                    prop_assert!((a - b).abs() <= 1e-5, "tape {a} vs tapeless {b}");
                }
            }
        }
    }

    #[test]
    fn infer_checked_rejects_wrong_width_matrix() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[6, 16, 3], &mut rng);
        let mut scratch = Scratch::new();
        // wrong-width input: 4 columns into a 6-wide first layer
        let bad = Matrix::row(&[1.0, 2.0, 3.0, 4.0]);
        let err = mlp
            .infer_checked(&store, &bad, &mut scratch)
            .expect_err("wrong width must be rejected");
        assert_eq!(
            err,
            DimMismatch {
                layer: 0,
                expected: 6,
                got: 4
            }
        );
        assert!(err.to_string().contains("expected input width 6"));
        let lin_err = mlp.layers[0]
            .infer_checked(&store, &bad, &mut scratch)
            .expect_err("linear layer rejects too");
        assert_eq!(lin_err.expected, 6);

        // correct width passes and matches the unchecked path bit for bit
        let good = Matrix::row(&[0.1, -0.2, 0.3, 0.4, 0.5, -0.6]);
        let checked = mlp.infer_checked(&store, &good, &mut scratch).unwrap();
        let unchecked = mlp.infer(&store, &good, &mut scratch);
        assert_eq!(checked.data, unchecked.data);
    }

    #[test]
    fn infer_checked_catches_lying_shape_metadata() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut store = ParamStore::new();
        let mut mlp = Mlp::new(&mut store, "m", &[3, 5, 2], &mut rng);
        // Tamper the metadata the way a hand-edited artifact could: the
        // declared in_dim no longer matches the stored weight matrix.
        mlp.layers[0].in_dim = 4;
        let mut scratch = Scratch::new();
        let x = Matrix::row(&[1.0, 2.0, 3.0, 4.0]);
        let err = mlp
            .infer_checked(&store, &x, &mut scratch)
            .expect_err("stored weights are still 3-wide");
        assert_eq!(err.expected, 3);
        assert_eq!(err.got, 4);
    }

    #[test]
    fn copy_weights_from_restores_snapshot() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let _ = Mlp::new(&mut store, "m", &[2, 2], &mut rng);
        let snapshot = store.clone();
        store.value_mut(ParamId(0)).data[0] += 10.0;
        store.copy_weights_from(&snapshot);
        assert_eq!(store.value(ParamId(0)), snapshot.value(ParamId(0)));
    }
}
