//! Tapeless inference: forward passes computed directly on [`Matrix`]
//! values, with no autodiff bookkeeping.
//!
//! Training needs the [`crate::tape::Tape`] — every intermediate value has
//! to stay alive for the backward pass, and every layer use records a
//! node. Inference needs none of that: what-if cost prediction in the
//! optimizer issues hundreds of forward passes per tuning call and throws
//! every intermediate away.
//!
//! [`Scratch`] is a reusable buffer arena: matrices are taken from a free
//! list and recycled after use, so a warmed-up scratch performs a whole
//! forward pass without touching the allocator. The aggregation helpers
//! ([`mean_of`], [`weighted_sum_of`], [`concat_pair`]) mirror the
//! accumulation order of the corresponding tape ops exactly, so the
//! tapeless path reproduces the tape's `f32` results bit for bit (see the
//! equivalence proptests in [`crate::layers`] and `tests/`).

use crate::matrix::Matrix;

/// Reusable matrix-buffer arena for tapeless forward passes.
///
/// Buffers handed out by [`Scratch::zeros`] / [`Scratch::row_of`] should be
/// returned with [`Scratch::recycle`] once dead; a warmed-up arena then
/// serves every request from its free list. Dropping a buffer instead of
/// recycling it is safe — it merely costs a future allocation.
#[derive(Default)]
pub struct Scratch {
    free: Vec<Matrix>,
}

impl Scratch {
    pub fn new() -> Self {
        Scratch { free: Vec::new() }
    }

    /// A zero-filled `rows × cols` buffer.
    pub fn zeros(&mut self, rows: usize, cols: usize) -> Matrix {
        match self.free.pop() {
            Some(mut m) => {
                m.rows = rows;
                m.cols = cols;
                m.data.clear();
                m.data.resize(rows * cols, 0.0);
                m
            }
            None => Matrix::zeros(rows, cols),
        }
    }

    /// A 1×n buffer holding a copy of `values`.
    pub fn row_of(&mut self, values: &[f32]) -> Matrix {
        let mut m = self.take(1, values.len());
        m.data.extend_from_slice(values);
        m
    }

    /// A buffer holding a copy of `src`.
    pub fn copy_of(&mut self, src: &Matrix) -> Matrix {
        let mut m = self.take(src.rows, src.cols);
        m.data.extend_from_slice(&src.data);
        m
    }

    /// Return a dead buffer to the free list.
    pub fn recycle(&mut self, m: Matrix) {
        self.free.push(m);
    }

    /// An empty-data buffer with the given logical shape (callers fill
    /// `data` to `rows * cols` themselves).
    pub(crate) fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        match self.free.pop() {
            Some(mut m) => {
                m.rows = rows;
                m.cols = cols;
                m.data.clear();
                m
            }
            None => Matrix {
                rows,
                cols,
                data: Vec::with_capacity(rows * cols),
            },
        }
    }
}

/// In-place ReLU; same values as the tape's `relu` op. Dispatches to the
/// active [`crate::kernels`] flavor (lane kernel by default, scalar oracle
/// under `scalar-kernels`) — ReLU is element-wise, so both are bitwise
/// identical.
pub fn relu_inplace(m: &mut Matrix) {
    crate::kernels::relu(&mut m.data);
}

/// Element-wise mean of `states[idx[0]], states[idx[1]], …`, mirroring
/// `Tape::mean_vars`: copy the first input, add the rest, scale by `1/n`.
pub fn mean_of(states: &[Matrix], idx: &[usize], scratch: &mut Scratch) -> Matrix {
    assert!(!idx.is_empty());
    let mut out = scratch.copy_of(&states[idx[0]]);
    for &i in &idx[1..] {
        out.add_assign(&states[i]);
    }
    let s = 1.0 / idx.len() as f32;
    for v in &mut out.data {
        *v *= s;
    }
    out
}

/// Element-wise weighted sum of `states[i] · w` over `terms`, mirroring
/// `Tape::weighted_sum`: scale the first term, then add each scaled term.
pub fn weighted_sum_of(states: &[Matrix], terms: &[(usize, f32)], scratch: &mut Scratch) -> Matrix {
    assert!(!terms.is_empty());
    let (i0, w0) = terms[0];
    let first = &states[i0];
    let mut out = scratch.take(first.rows, first.cols);
    out.data.extend(first.data.iter().map(|&v| v * w0));
    for &(i, w) in &terms[1..] {
        for (o, &v) in out.data.iter_mut().zip(states[i].data.iter()) {
            *o += v * w;
        }
    }
    out
}

/// Horizontal concatenation of two single-row matrices (`Tape::concat_cols`
/// restricted to the shapes the GNN uses).
pub fn concat_pair(a: &Matrix, b: &Matrix, scratch: &mut Scratch) -> Matrix {
    assert_eq!(a.rows, 1, "concat_pair expects row vectors");
    assert_eq!(b.rows, 1, "concat_pair expects row vectors");
    let mut out = scratch.take(1, a.cols + b.cols);
    out.data.extend_from_slice(&a.data);
    out.data.extend_from_slice(&b.data);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    #[test]
    fn scratch_reuses_buffers() {
        let mut s = Scratch::new();
        let a = s.zeros(2, 3);
        let ptr = a.data.as_ptr();
        s.recycle(a);
        let b = s.zeros(3, 2); // smaller or equal capacity: same allocation
        assert_eq!(b.data.as_ptr(), ptr);
        assert_eq!(b.shape(), (3, 2));
        assert!(b.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn aggregations_match_tape_ops() {
        let states = vec![
            Matrix::row(&[1.0, -2.0, 0.5]),
            Matrix::row(&[0.25, 4.0, -1.0]),
            Matrix::row(&[3.0, 0.0, 7.0]),
        ];
        let mut scratch = Scratch::new();
        let mut tape = Tape::new();
        let vars: Vec<_> = states.iter().map(|m| tape.leaf(m.clone())).collect();

        let m = mean_of(&states, &[0, 1, 2], &mut scratch);
        let mv = tape.mean_vars(&vars);
        assert_eq!(m.data, tape.value(mv).data);

        let w = weighted_sum_of(&states, &[(0, 0.3), (2, -1.7)], &mut scratch);
        let wv = tape.weighted_sum(&[(vars[0], 0.3), (vars[2], -1.7)]);
        assert_eq!(w.data, tape.value(wv).data);

        let c = concat_pair(&states[0], &states[1], &mut scratch);
        let cv = tape.concat_cols(&[vars[0], vars[1]]);
        assert_eq!(c.data, tape.value(cv).data);
    }

    #[test]
    fn relu_matches_tape() {
        let mut m = Matrix::row(&[-1.0, 0.0, 2.5]);
        relu_inplace(&mut m);
        assert_eq!(m.data, vec![0.0, 0.0, 2.5]);
    }
}
