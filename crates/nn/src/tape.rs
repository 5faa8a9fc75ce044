//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tape`] records a computation as a flat list of nodes; calling
//! [`Tape::backward`] walks the list in reverse, propagating gradients and
//! accumulating them into the [`ParamStore`] for every parameter node.
//! The op set is exactly what the ZeroTune GNN and the MLP baselines need;
//! every gradient is verified against finite differences in
//! [`crate::gradcheck`] and in this module's tests.
//!
//! Layers record one fused [`Tape::linear`] node per use: its forward
//! reads `W` and `b` from the store, and its backward computes `g·Wᵀ`
//! with [`crate::kernels::matmul_bt_into`] (no weight copy, no transpose)
//! and, for a one-row `x`, adds `xᵀg` and `g` straight into the store's
//! gradients. The general composition [`Tape::param`] → [`Tape::matmul`]
//! → [`Tape::add_row`] computes the same values by copying and
//! transposing, and stays as the oracle the fused op is tested against.
//!
//! Node values and gradients come from a buffer pool, so a tape that is
//! [`Tape::clear`]ed and reused allocates almost nothing after warm-up.

use crate::infer::Scratch;
use crate::kernels;
use crate::layers::{Linear, ParamId, ParamStore};
use crate::matrix::Matrix;

/// Handle to a node on the tape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Var(pub usize);

#[derive(Debug)]
enum Op {
    /// Constant input (no gradient needed).
    Leaf,
    /// Trainable parameter; gradients accumulate into the store.
    Param(ParamId),
    /// `x·W + b` with `W` and `b` read from the store.
    Linear {
        x: Var,
        w: ParamId,
        b: ParamId,
    },
    MatMul(Var, Var),
    Add(Var, Var),
    /// `X (n×d) + broadcast b (1×d)`.
    AddRow(Var, Var),
    Sub(Var, Var),
    Hadamard(Var, Var),
    Scale(Var, f32),
    Relu(Var),
    Tanh(Var),
    /// Horizontal concatenation of same-row-count matrices.
    ConcatCols(Vec<Var>),
    /// Element-wise mean of same-shape matrices.
    MeanVars(Vec<Var>),
    /// Element-wise weighted sum of same-shape matrices.
    WeightedSum(Vec<(Var, f32)>),
    /// Mean squared error against a constant target → 1×1.
    MseLoss(Var, Var),
}

struct Node {
    value: Matrix,
    op: Op,
}

/// The autodiff tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Per-node gradients of the running backward pass.
    grads: Vec<Option<Matrix>>,
    /// Recycled value and gradient buffers.
    pool: Scratch,
}

/// Mean squared error of `pred` against `target`: the one formula behind
/// [`Tape::mse_loss`] and the tapeless validation loss.
pub fn mse(pred: &[f32], target: &[f32]) -> f32 {
    assert_eq!(pred.len(), target.len(), "loss shape mismatch");
    let n = pred.len() as f32;
    pred.iter()
        .zip(target.iter())
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f32>()
        / n
}

impl Tape {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every node, keeping the node list, the gradient slots and all
    /// value buffers for the next recording.
    pub fn clear(&mut self) {
        for node in self.nodes.drain(..) {
            self.pool.recycle(node.value);
        }
        for g in self.grads.drain(..).flatten() {
            self.pool.recycle(g);
        }
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// A pool buffer holding `f` applied to every element of `a`.
    fn map(&mut self, a: Var, f: impl Fn(f32) -> f32) -> Matrix {
        let src = &self.nodes[a.0].value;
        let mut out = self.pool.take(src.rows, src.cols);
        out.data.extend(src.data.iter().map(|&v| f(v)));
        out
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Value of a 1×1 node.
    pub fn scalar_value(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "not a scalar node");
        m.data[0]
    }

    /// Record a constant input.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Record a constant 1×n input copied into a pool buffer.
    pub fn leaf_row(&mut self, values: &[f32]) -> Var {
        let value = self.pool.row_of(values);
        self.push(value, Op::Leaf)
    }

    /// Record a parameter: its current value is copied from the store and
    /// its gradient flows back into the store on [`Tape::backward`].
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let value = self.pool.copy_of(store.value(id));
        self.push(value, Op::Param(id))
    }

    /// The fused layer `x·W + b`, reading `W` (`in × out`) and `b`
    /// (`1 × out`) from the store. Values and store gradients are bitwise
    /// those of `param(W)`, `param(b)`, `matmul`, `add_row`.
    pub fn linear(&mut self, x: Var, store: &ParamStore, w: ParamId, b: ParamId) -> Var {
        let out_dim = store.value(w).cols;
        assert_eq!(store.value(b).shape(), (1, out_dim), "bias shape mismatch");
        let xm = &self.nodes[x.0].value;
        let mut out = self.pool.zeros(xm.rows, out_dim);
        Linear::affine_into(store, w, b, xm, &mut out);
        self.push(out, Op::Linear { x, w, b })
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (am, bm) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let mut v = self.pool.zeros(am.rows, bm.cols);
        am.matmul_into(bm, &mut v);
        self.push(v, Op::MatMul(a, b))
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut v = self.pool.copy_of(&self.nodes[a.0].value);
        v.add_assign(&self.nodes[b.0].value);
        self.push(v, Op::Add(a, b))
    }

    /// `x (n×d) + row-broadcast bias (1×d)`.
    pub fn add_row(&mut self, x: Var, bias: Var) -> Var {
        let bm = &self.nodes[bias.0].value;
        assert_eq!(bm.rows, 1, "bias must be a row vector");
        assert_eq!(self.nodes[x.0].value.cols, bm.cols, "bias width mismatch");
        let mut out = self.pool.copy_of(&self.nodes[x.0].value);
        for row in out.data.chunks_exact_mut(bm.cols.max(1)) {
            for (o, &bv) in row.iter_mut().zip(&bm.data) {
                *o += bv;
            }
        }
        self.push(out, Op::AddRow(x, bias))
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(&self.value(b).scale(-1.0));
        self.push(v, Op::Sub(a, b))
    }

    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).hadamard(self.value(b));
        self.push(v, Op::Hadamard(a, b))
    }

    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.map(a, |x| x * s);
        self.push(v, Op::Scale(a, s))
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.map(a, |x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.map(a, f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Horizontal concatenation; all inputs must share the row count.
    pub fn concat_cols(&mut self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty());
        let rows = self.value(vars[0]).rows;
        let total_cols: usize = vars.iter().map(|&v| self.value(v).cols).sum();
        let mut out = self.pool.zeros(rows, total_cols);
        let mut offset = 0;
        for &v in vars {
            let m = &self.nodes[v.0].value;
            assert_eq!(m.rows, rows, "concat row mismatch");
            for r in 0..rows {
                out.data[r * total_cols + offset..][..m.cols]
                    .copy_from_slice(&m.data[r * m.cols..(r + 1) * m.cols]);
            }
            offset += m.cols;
        }
        self.push(out, Op::ConcatCols(vars.to_vec()))
    }

    /// Element-wise mean of same-shape inputs (the GNN's neighbour
    /// aggregation).
    pub fn mean_vars(&mut self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty());
        let mut out = self.pool.copy_of(&self.nodes[vars[0].0].value);
        for &v in &vars[1..] {
            out.add_assign(&self.nodes[v.0].value);
        }
        let s = 1.0 / vars.len() as f32;
        for v in &mut out.data {
            *v *= s;
        }
        self.push(out, Op::MeanVars(vars.to_vec()))
    }

    /// Element-wise weighted sum of same-shape inputs (weighted neighbour
    /// aggregation, e.g. by instance counts).
    pub fn weighted_sum(&mut self, terms: &[(Var, f32)]) -> Var {
        assert!(!terms.is_empty());
        let (v0, w0) = terms[0];
        let mut out = self.map(v0, |x| x * w0);
        for &(v, w) in &terms[1..] {
            let m = &self.nodes[v.0].value;
            assert!(out.same_shape(m), "add shape mismatch");
            for (o, &x) in out.data.iter_mut().zip(&m.data) {
                *o += x * w;
            }
        }
        self.push(out, Op::WeightedSum(terms.to_vec()))
    }

    /// Mean-squared-error loss against a constant target.
    pub fn mse_loss(&mut self, pred: Var, target: Var) -> Var {
        let (p, t) = (&self.nodes[pred.0].value, &self.nodes[target.0].value);
        assert!(p.same_shape(t), "loss shape mismatch");
        let loss = self.pool.row_of(&[mse(&p.data, &t.data)]);
        self.push(loss, Op::MseLoss(pred, target))
    }

    /// Backpropagate from `loss` (must be 1×1) and accumulate parameter
    /// gradients into `store`. Contributions to each parameter land in
    /// reverse tape order.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        let Tape { nodes, grads, pool } = self;
        for g in grads.drain(..).flatten() {
            pool.recycle(g);
        }
        grads.resize_with(nodes.len(), || None);
        grads[loss.0] = Some(pool.row_of(&[1.0]));

        // Constants take no gradient; everything else sums its
        // contributions in arrival order.
        let add_grad = |grads: &mut Vec<Option<Matrix>>, pool: &mut Scratch, v: Var, g: Matrix| {
            if matches!(nodes[v.0].op, Op::Leaf) {
                pool.recycle(g);
                return;
            }
            match &mut grads[v.0] {
                Some(existing) => {
                    existing.add_assign(&g);
                    pool.recycle(g);
                }
                slot @ None => *slot = Some(g),
            }
        };
        let scaled = |pool: &mut Scratch, g: &Matrix, s: f32| {
            let mut out = pool.take(g.rows, g.cols);
            out.data.extend(g.data.iter().map(|&v| v * s));
            out
        };
        // A broadcast bias's gradient: the column sums, top row first.
        let col_sums = |pool: &mut Scratch, g: &Matrix| {
            let mut out = pool.zeros(1, g.cols);
            for row in g.data.chunks_exact(g.cols.max(1)) {
                for (o, &v) in out.data.iter_mut().zip(row) {
                    *o += v;
                }
            }
            out
        };

        for idx in (0..nodes.len()).rev() {
            let Some(grad) = grads[idx].take() else {
                continue;
            };
            let value = |v: &Var| &nodes[v.0].value;
            match &nodes[idx].op {
                Op::Leaf => pool.recycle(grad),
                Op::Param(id) => {
                    store.accumulate_grad(*id, &grad);
                    pool.recycle(grad);
                }
                Op::Linear { x, w, b } => {
                    let xm = value(x);
                    if !matches!(nodes[x.0].op, Op::Leaf) {
                        let wm = store.value(*w);
                        let mut dx = pool.zeros(grad.rows, wm.rows);
                        kernels::matmul_bt_into(
                            &grad.data,
                            grad.rows,
                            grad.cols,
                            &wm.data,
                            wm.rows,
                            &mut dx.data,
                        );
                        add_grad(grads, pool, *x, dx);
                    }
                    if xm.rows == 1 {
                        kernels::rank1_add(&xm.data, &grad.data, &mut store.grad_mut(*w).data);
                        store.grad_mut(*b).add_assign(&grad);
                    } else {
                        // Several rows: materialize both gradients first
                        // so each store element still receives one sum,
                        // exactly as the matmul/add_row oracle does.
                        let db = col_sums(pool, &grad);
                        store.accumulate_grad(*b, &db);
                        pool.recycle(db);
                        store.accumulate_grad(*w, &xm.t().matmul(&grad));
                    }
                    pool.recycle(grad);
                }
                Op::MatMul(a, b) => {
                    let da = grad.matmul(&value(b).t());
                    let db = value(a).t().matmul(&grad);
                    add_grad(grads, pool, *a, da);
                    add_grad(grads, pool, *b, db);
                    pool.recycle(grad);
                }
                Op::Add(a, b) => {
                    let ga = pool.copy_of(&grad);
                    add_grad(grads, pool, *a, ga);
                    add_grad(grads, pool, *b, grad);
                }
                Op::AddRow(x, bias) => {
                    let db = col_sums(pool, &grad);
                    add_grad(grads, pool, *x, grad);
                    add_grad(grads, pool, *bias, db);
                }
                Op::Sub(a, b) => {
                    let gb = scaled(pool, &grad, -1.0);
                    add_grad(grads, pool, *a, grad);
                    add_grad(grads, pool, *b, gb);
                }
                Op::Hadamard(a, b) => {
                    let da = grad.hadamard(value(b));
                    let db = grad.hadamard(value(a));
                    add_grad(grads, pool, *a, da);
                    add_grad(grads, pool, *b, db);
                    pool.recycle(grad);
                }
                Op::Scale(a, s) => {
                    let ga = scaled(pool, &grad, *s);
                    add_grad(grads, pool, *a, ga);
                    pool.recycle(grad);
                }
                Op::Relu(a) => {
                    let mut ga = grad;
                    for (g, &x) in ga.data.iter_mut().zip(&value(a).data) {
                        *g *= if x > 0.0 { 1.0 } else { 0.0 };
                    }
                    add_grad(grads, pool, *a, ga);
                }
                Op::Tanh(a) => {
                    // d tanh = 1 − tanh²; node value *is* tanh(a).
                    let mut ga = grad;
                    for (g, &t) in ga.data.iter_mut().zip(&nodes[idx].value.data) {
                        *g *= 1.0 - t * t;
                    }
                    add_grad(grads, pool, *a, ga);
                }
                Op::ConcatCols(vars) => {
                    let mut offset = 0;
                    for v in vars {
                        let (rows, cols) = value(v).shape();
                        let mut part = pool.take(rows, cols);
                        for r in 0..rows {
                            let start = r * grad.cols + offset;
                            part.data.extend_from_slice(&grad.data[start..start + cols]);
                        }
                        offset += cols;
                        add_grad(grads, pool, *v, part);
                    }
                    pool.recycle(grad);
                }
                Op::MeanVars(vars) => {
                    let share = scaled(pool, &grad, 1.0 / vars.len() as f32);
                    for v in vars {
                        let part = pool.copy_of(&share);
                        add_grad(grads, pool, *v, part);
                    }
                    pool.recycle(share);
                    pool.recycle(grad);
                }
                Op::WeightedSum(terms) => {
                    for &(v, w) in terms {
                        let part = scaled(pool, &grad, w);
                        add_grad(grads, pool, v, part);
                    }
                    pool.recycle(grad);
                }
                Op::MseLoss(pred, target) => {
                    let (p, t) = (value(pred), value(target));
                    let scale = 2.0 / p.data.len() as f32 * grad.data[0];
                    let mut dp = pool.take(p.rows, p.cols);
                    dp.data
                        .extend(p.data.iter().zip(&t.data).map(|(a, b)| scale * (a - b)));
                    add_grad(grads, pool, *pred, dp);
                    // target is a constant: no gradient.
                    pool.recycle(grad);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ParamStore {
        ParamStore::new()
    }

    #[test]
    fn matmul_forward_and_backward() {
        let mut st = store();
        let w = st.alloc("w", Matrix::from_vec(2, 1, vec![3.0, 4.0]));
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::row(&[1.0, 2.0]));
        let wv = tape.param(&st, w);
        let y = tape.matmul(x, wv); // 1×1 = 3 + 8
        assert_eq!(tape.scalar_value(y), 11.0);
        let target = tape.leaf(Matrix::scalar(0.0));
        let loss = tape.mse_loss(y, target); // (11)^2
        assert_eq!(tape.scalar_value(loss), 121.0);
        tape.backward(loss, &mut st);
        // dL/dw = 2·y·x = 22·[1,2]
        assert_eq!(st.grad(w).data, vec![22.0, 44.0]);
    }

    #[test]
    fn relu_gradient_masks_negatives() {
        let mut st = store();
        let w = st.alloc("w", Matrix::row(&[-1.0, 2.0]));
        let mut tape = Tape::new();
        let wv = tape.param(&st, w);
        let r = tape.relu(wv);
        assert_eq!(tape.value(r).data, vec![0.0, 2.0]);
        let target = tape.leaf(Matrix::row(&[0.0, 0.0]));
        let loss = tape.mse_loss(r, target);
        tape.backward(loss, &mut st);
        // negative input: zero grad; positive: 2·2/2 = 2
        assert_eq!(st.grad(w).data, vec![0.0, 2.0]);
    }

    #[test]
    fn tanh_gradient() {
        let mut st = store();
        let w = st.alloc("w", Matrix::scalar(0.5));
        let mut tape = Tape::new();
        let wv = tape.param(&st, w);
        let t = tape.tanh(wv);
        let target = tape.leaf(Matrix::scalar(0.0));
        let loss = tape.mse_loss(t, target);
        tape.backward(loss, &mut st);
        let th = 0.5f32.tanh();
        let expected = 2.0 * th * (1.0 - th * th);
        assert!((st.grad(w).data[0] - expected).abs() < 1e-6);
    }

    #[test]
    fn concat_splits_gradient() {
        let mut st = store();
        let a = st.alloc("a", Matrix::row(&[1.0]));
        let b = st.alloc("b", Matrix::row(&[2.0, 3.0]));
        let mut tape = Tape::new();
        let av = tape.param(&st, a);
        let bv = tape.param(&st, b);
        let c = tape.concat_cols(&[av, bv]);
        assert_eq!(tape.value(c).data, vec![1.0, 2.0, 3.0]);
        let target = tape.leaf(Matrix::row(&[0.0, 0.0, 0.0]));
        let loss = tape.mse_loss(c, target);
        tape.backward(loss, &mut st);
        // d = 2·x/3
        assert!((st.grad(a).data[0] - 2.0 / 3.0).abs() < 1e-6);
        assert!((st.grad(b).data[0] - 4.0 / 3.0).abs() < 1e-6);
        assert!((st.grad(b).data[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn mean_vars_divides_gradient() {
        let mut st = store();
        let a = st.alloc("a", Matrix::row(&[4.0]));
        let b = st.alloc("b", Matrix::row(&[8.0]));
        let mut tape = Tape::new();
        let av = tape.param(&st, a);
        let bv = tape.param(&st, b);
        let m = tape.mean_vars(&[av, bv]);
        assert_eq!(tape.value(m).data, vec![6.0]);
        let target = tape.leaf(Matrix::scalar(0.0));
        let loss = tape.mse_loss(m, target);
        tape.backward(loss, &mut st);
        // dL/da = 2·6 · 1/2 = 6
        assert!((st.grad(a).data[0] - 6.0).abs() < 1e-6);
        assert!((st.grad(b).data[0] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn add_row_broadcast() {
        let mut st = store();
        let b = st.alloc("b", Matrix::row(&[1.0, -1.0]));
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let bv = tape.param(&st, b);
        let y = tape.add_row(x, bv);
        assert_eq!(tape.value(y).data, vec![2.0, 1.0, 4.0, 3.0]);
        let target = tape.leaf(Matrix::zeros(2, 2));
        let loss = tape.mse_loss(y, target);
        tape.backward(loss, &mut st);
        // dL/db_c = Σ_r 2·y_rc/4
        assert!((st.grad(b).data[0] - (2.0 + 4.0) / 2.0).abs() < 1e-6);
        assert!((st.grad(b).data[1] - (1.0 + 3.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_sum_gradient() {
        let mut st = store();
        let a = st.alloc("a", Matrix::scalar(2.0));
        let mut tape = Tape::new();
        let av = tape.param(&st, a);
        let s = tape.weighted_sum(&[(av, 3.0)]);
        assert_eq!(tape.scalar_value(s), 6.0);
        let target = tape.leaf(Matrix::scalar(0.0));
        let loss = tape.mse_loss(s, target);
        tape.backward(loss, &mut st);
        // dL/da = 2·6·3 = 36
        assert!((st.grad(a).data[0] - 36.0).abs() < 1e-5);
    }

    #[test]
    fn cleared_tape_records_afresh() {
        let mut st = store();
        let w = st.alloc("w", Matrix::from_vec(2, 1, vec![3.0, 4.0]));
        let b = st.alloc("b", Matrix::scalar(0.5));
        let mut tape = Tape::new();
        for round in 0..3 {
            tape.clear();
            assert!(tape.is_empty());
            st.zero_grad();
            let x = tape.leaf_row(&[1.0, 2.0]);
            let y = tape.linear(x, &st, w, b); // 11.5
            assert_eq!(tape.scalar_value(y), 11.5, "round {round}");
            let target = tape.leaf_row(&[0.0]);
            let loss = tape.mse_loss(y, target);
            tape.backward(loss, &mut st);
            // dL/dw = 2·y·x, dL/db = 2·y
            assert_eq!(st.grad(w).data, vec![23.0, 46.0]);
            assert_eq!(st.grad(b).data, vec![23.0]);
        }
    }

    #[test]
    fn grad_accumulates_across_uses() {
        // A parameter used twice must receive the sum of both paths.
        let mut st = store();
        let a = st.alloc("a", Matrix::scalar(3.0));
        let mut tape = Tape::new();
        let av = tape.param(&st, a);
        let doubled = tape.add(av, av); // 6
        let target = tape.leaf(Matrix::scalar(0.0));
        let loss = tape.mse_loss(doubled, target); // 36
        tape.backward(loss, &mut st);
        // dL/da = 2·6·2 = 24
        assert!((st.grad(a).data[0] - 24.0).abs() < 1e-6);
    }

    mod props {
        use super::*;
        use crate::layers::Linear;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// `x·W + b` as the general composition the fused op replaces.
        fn oracle_linear(tape: &mut Tape, st: &ParamStore, lin: &Linear, x: Var) -> Var {
            let w = tape.param(st, lin.w);
            let b = tape.param(st, lin.b);
            let xw = tape.matmul(x, w);
            tape.add_row(xw, b)
        }

        fn bits(m: &Matrix) -> Vec<u32> {
            m.data.iter().map(|v| v.to_bits()).collect()
        }

        /// `relu(L0(relu(L0(x))))` then `L1`: `L0` is square and used
        /// twice, the second time on a non-leaf input.
        fn record(
            tape: &mut Tape,
            st: &ParamStore,
            layers: &[Linear; 2],
            x: &Matrix,
            target: &Matrix,
            fused: bool,
        ) -> (Var, Var) {
            let lin = |tape: &mut Tape, l: &Linear, v: Var| {
                if fused {
                    l.forward(tape, st, v)
                } else {
                    oracle_linear(tape, st, l, v)
                }
            };
            let xv = tape.leaf(x.clone());
            let h = lin(tape, &layers[0], xv);
            let h = tape.relu(h);
            let h = lin(tape, &layers[0], h);
            let h = tape.relu(h);
            let out = lin(tape, &layers[1], h);
            let t = tape.leaf(target.clone());
            (out, tape.mse_loss(out, t))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The fused `linear` op against the param/matmul/add_row
            /// oracle: forward values, losses and accumulated store
            /// gradients are bitwise equal for 1-row and multi-row
            /// inputs, with a parameter used twice per tape and
            /// gradients accumulated over several samples.
            #[test]
            fn fused_linear_matches_oracle_bitwise(
                seed in 0u64..100_000,
                rows in 1usize..4,
                dim in 1usize..20,
                out_dim in 1usize..6,
                zero_every in 0usize..4,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut st_fused = ParamStore::new();
                let layers = [
                    Linear::new(&mut st_fused, "l0", dim, dim, &mut rng),
                    Linear::new(&mut st_fused, "l1", dim, out_dim, &mut rng),
                ];
                for id in layers.iter().map(|l| l.b) {
                    for v in &mut st_fused.value_mut(id).data {
                        *v = rng.gen_range(-0.5f32..0.5);
                    }
                }
                let mut st_oracle = st_fused.clone();
                let mut fused_tape = Tape::new();
                for _ in 0..3 {
                    let x = Matrix::from_vec(rows, dim, (0..rows * dim)
                        .map(|i| {
                            if zero_every > 0 && i % (zero_every + 1) == 0 {
                                0.0
                            } else {
                                rng.gen_range(-2.0f32..2.0)
                            }
                        })
                        .collect());
                    let target = Matrix::from_vec(rows, out_dim, (0..rows * out_dim)
                        .map(|_| rng.gen_range(-1.0f32..1.0))
                        .collect());

                    fused_tape.clear();
                    let (f_out, f_loss) =
                        record(&mut fused_tape, &st_fused, &layers, &x, &target, true);
                    let mut oracle_tape = Tape::new();
                    let (o_out, o_loss) =
                        record(&mut oracle_tape, &st_oracle, &layers, &x, &target, false);
                    prop_assert_eq!(bits(fused_tape.value(f_out)), bits(oracle_tape.value(o_out)));
                    prop_assert_eq!(bits(fused_tape.value(f_loss)), bits(oracle_tape.value(o_loss)));

                    fused_tape.backward(f_loss, &mut st_fused);
                    oracle_tape.backward(o_loss, &mut st_oracle);
                    for id in st_fused.ids() {
                        prop_assert!(
                            bits(&st_fused.grad(id)) == bits(&st_oracle.grad(id)),
                            "gradient of {} differs",
                            st_fused.name(id)
                        );
                    }
                }
            }
        }
    }
}
