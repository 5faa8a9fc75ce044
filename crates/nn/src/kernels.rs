//! Dense `f32` hot-path kernels, each in two always-compiled flavors.
//!
//! Every inner loop that dominates training/inference time — matmul, the
//! transposed-operand matmul of the backward pass, ReLU, element-wise add,
//! the Adam update — lives here as a pair:
//!
//! * `*_scalar` — the original straight-line loop, kept verbatim as the
//!   **test oracle** (the "slow twin");
//! * `*_lanes` — an explicit 8-wide lane kernel ([`LANES`]) written so the
//!   per-element operation chain is *identical* to the scalar twin, which
//!   makes the two bitwise-equal on the call shapes the crate uses (see
//!   the equivalence policy below). Lane bodies are fixed-count loops over
//!   `[f32; LANES]` blocks, which LLVM reliably turns into vector code on
//!   stable Rust without `unsafe` or nightly intrinsics.
//!
//! The public un-suffixed functions ([`matmul_into`], [`matmul_bt_into`],
//! [`relu`], [`add_assign`], [`adam_update`]) are the *active* dispatch:
//! they call the lane kernels by default and the scalar oracle when the
//! crate is built with the `scalar-kernels` feature. Both flavors are always
//! compiled regardless of the feature, so one test binary can compare them
//! directly and one bench binary can measure the speedup.
//!
//! # Equivalence policy (same as the tape-vs-tapeless contract)
//!
//! Bitwise, not approximate. The lane matmul keeps **one accumulator per
//! output element** and sums over `k` in ascending order — exactly the
//! chain the scalar i-k-j loop performs — so with a pre-zeroed `out`
//! (every call site in this workspace) the results are bit-identical for
//! finite inputs. Both flavors skip `a == 0.0` rows of the inner loop: an
//! accumulator seeded with `+0.0` is never changed by adding a `±0.0`
//! product under round-to-nearest, so the skip is value-neutral, and doing
//! it in *both* kernels keeps them in lockstep even for non-finite `b`.
//! ReLU, add and Adam are element-wise, so lane blocking cannot reorder
//! anything. When `out` is *not* pre-zeroed, the lane matmul folds the
//! prior value in with a single final add instead of threading it through
//! the chain — at most one rounding step of difference, covered by the
//! ≤1e-6 relative branch of the policy in `tests/kernel_equivalence.rs`.
//!
//! `f32::mul_add` is used **only** when the build compiles in hardware FMA
//! (`target_feature = "fma"`, e.g. `RUSTFLAGS="-C target-cpu=native"`): one
//! fused µop with a single rounding, which moves those builds onto the
//! ≤1e-6 branch of the policy. On the default generic `x86_64` target
//! `mul_add` would lower to a slow libm call *and* change rounding, so the
//! baseline keeps the oracle's exact two-rounding chain and stays bitwise.

/// Lane width of the fast kernels: 8 × `f32` = one 256-bit vector.
pub const LANES: usize = 8;

/// Name of the kernel flavor the un-suffixed dispatch functions use.
pub const ACTIVE_KERNELS: &str = if cfg!(feature = "scalar-kernels") {
    "scalar"
} else {
    "lanes"
};

#[inline]
fn check_matmul(a: &[f32], rows: usize, inner: usize, b: &[f32], cols: usize, out: &[f32]) {
    assert_eq!(a.len(), rows * inner, "matmul lhs data/shape mismatch");
    assert_eq!(b.len(), inner * cols, "matmul rhs data/shape mismatch");
    assert_eq!(out.len(), rows * cols, "matmul out data/shape mismatch");
}

/// `out += a × b` over row-major slices — scalar oracle.
///
/// This is the crate's historical i-k-j loop, verbatim: stream through `b`
/// rows for cache locality, skip zero `a` elements (encoder inputs are
/// one-hot-ish).
pub fn matmul_into_scalar(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    check_matmul(a, rows, inner, b, cols, out);
    for i in 0..rows {
        let out_row = &mut out[i * cols..(i + 1) * cols];
        for k in 0..inner {
            let av = a[i * inner + k];
            if av == 0.0 {
                continue;
            }
            let b_row = &b[k * cols..(k + 1) * cols];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// `out += a × b` over row-major slices — 8-wide lane kernel.
///
/// Register-blocked over `cols`: each 8-column block keeps its partial
/// sums in a `[f32; LANES]` accumulator across the whole `k` loop, so the
/// output row is loaded and stored once instead of once per `k`. Tail
/// columns (`cols % LANES`) fall back to one scalar accumulator per
/// column with the same ascending-`k` chain.
pub fn matmul_into_lanes(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    check_matmul(a, rows, inner, b, cols, out);
    const TILE: usize = 4 * LANES;
    for i in 0..rows {
        let a_row = &a[i * inner..(i + 1) * inner];
        let out_row = &mut out[i * cols..(i + 1) * cols];
        let mut j = 0;
        while j + TILE <= cols {
            matmul_col_tile::<{ 4 * LANES }>(a_row, b, cols, j, out_row);
            j += TILE;
        }
        while j + LANES <= cols {
            matmul_col_tile::<LANES>(a_row, b, cols, j, out_row);
            j += LANES;
        }
        // Tail columns: one register-resident pass per fixed tail width so
        // narrow outputs (e.g. the 2-column read-out head) never touch the
        // output row inside the `k` loop.
        match cols - j {
            0 => {}
            1 => matmul_col_tile::<1>(a_row, b, cols, j, out_row),
            2 => matmul_col_tile::<2>(a_row, b, cols, j, out_row),
            3 => matmul_col_tile::<3>(a_row, b, cols, j, out_row),
            4 => matmul_col_tile::<4>(a_row, b, cols, j, out_row),
            5 => matmul_col_tile::<5>(a_row, b, cols, j, out_row),
            6 => matmul_col_tile::<6>(a_row, b, cols, j, out_row),
            _ => matmul_col_tile::<7>(a_row, b, cols, j, out_row),
        }
    }
}

/// One register tile of the lane matmul: accumulate `a_row × b[:, j..j+N]`
/// into `out_row[j..j+N]` with one `[f32; N]` accumulator held across the
/// whole `k` loop. Each output column keeps its own ascending-`k` sum
/// chain (bit-identical to the scalar oracle's chain when `out` starts at
/// zero), and the `a == 0` skip matches the oracle term for term.
#[inline(always)]
fn matmul_col_tile<const N: usize>(
    a_row: &[f32],
    b: &[f32],
    cols: usize,
    j: usize,
    out_row: &mut [f32],
) {
    let mut acc = [0.0f32; N];
    for (k, &av) in a_row.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let b_blk: &[f32; N] = b[k * cols + j..k * cols + j + N]
            .try_into()
            .expect("lane tile");
        for l in 0..N {
            // With hardware FMA compiled in, fuse the multiply-add: one
            // µop instead of two and one rounding instead of two, which
            // is why FMA builds sit on the ≤1e-6-relative branch of the
            // equivalence policy instead of the bitwise one. Without the
            // target feature `mul_add` would lower to a libm call, so the
            // baseline keeps the exact two-rounding chain of the oracle.
            if cfg!(target_feature = "fma") {
                acc[l] = av.mul_add(b_blk[l], acc[l]);
            } else {
                acc[l] += av * b_blk[l];
            }
        }
    }
    let out_blk: &mut [f32; N] = (&mut out_row[j..j + N]).try_into().expect("lane tile");
    for l in 0..N {
        out_blk[l] += acc[l];
    }
}

#[inline]
fn check_matmul_bt(a: &[f32], rows: usize, inner: usize, b: &[f32], cols: usize, out: &[f32]) {
    assert_eq!(a.len(), rows * inner, "matmul_bt lhs data/shape mismatch");
    assert_eq!(b.len(), cols * inner, "matmul_bt rhs data/shape mismatch");
    assert_eq!(out.len(), rows * cols, "matmul_bt out data/shape mismatch");
}

/// `out += a × bᵀ` over row-major slices, with `b` stored `cols × inner`
/// and read in place — scalar oracle.
///
/// Element `(i, j)` is the same ascending-`k` chain, with the same
/// `a == 0` skip, that [`matmul_into_scalar`] runs on `a` and an
/// explicitly transposed `b`; only the addressing of `b` differs. The
/// tape's backward pass uses it for `dx = g·Wᵀ` without copying `W`.
pub fn matmul_bt_into_scalar(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    check_matmul_bt(a, rows, inner, b, cols, out);
    for i in 0..rows {
        let out_row = &mut out[i * cols..(i + 1) * cols];
        for k in 0..inner {
            let av = a[i * inner + k];
            if av == 0.0 {
                continue;
            }
            for (j, o) in out_row.iter_mut().enumerate() {
                *o += av * b[j * inner + k];
            }
        }
    }
}

/// `out += a × bᵀ` with `b` stored `cols × inner` — 8-wide lane kernel.
///
/// The per-element chain is [`matmul_into_lanes`]'s on a transposed `b`:
/// one register accumulator per output column, ascending `k`, the
/// `a == 0` skip, the `target_feature = "fma"` branch and one final add
/// into `out`. Lanes run across output columns, so each lane walks its
/// own row of `b`.
pub fn matmul_bt_into_lanes(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    check_matmul_bt(a, rows, inner, b, cols, out);
    for i in 0..rows {
        let a_row = &a[i * inner..(i + 1) * inner];
        let out_row = &mut out[i * cols..(i + 1) * cols];
        let mut j = 0;
        while j + LANES <= cols {
            matmul_bt_col_tile::<LANES>(a_row, b, j, out_row);
            j += LANES;
        }
        match cols - j {
            0 => {}
            1 => matmul_bt_col_tile::<1>(a_row, b, j, out_row),
            2 => matmul_bt_col_tile::<2>(a_row, b, j, out_row),
            3 => matmul_bt_col_tile::<3>(a_row, b, j, out_row),
            4 => matmul_bt_col_tile::<4>(a_row, b, j, out_row),
            5 => matmul_bt_col_tile::<5>(a_row, b, j, out_row),
            6 => matmul_bt_col_tile::<6>(a_row, b, j, out_row),
            _ => matmul_bt_col_tile::<7>(a_row, b, j, out_row),
        }
    }
}

/// One register tile of [`matmul_bt_into_lanes`]: output columns
/// `j..j+N`, i.e. rows `j..j+N` of `b`.
#[inline(always)]
fn matmul_bt_col_tile<const N: usize>(a_row: &[f32], b: &[f32], j: usize, out_row: &mut [f32]) {
    let inner = a_row.len();
    let b_rows: [&[f32]; N] = std::array::from_fn(|l| &b[(j + l) * inner..(j + l + 1) * inner]);
    let mut acc = [0.0f32; N];
    for (k, &av) in a_row.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        for l in 0..N {
            // Same FMA policy as `matmul_col_tile`.
            if cfg!(target_feature = "fma") {
                acc[l] = av.mul_add(b_rows[l][k], acc[l]);
            } else {
                acc[l] += av * b_rows[l][k];
            }
        }
    }
    let out_blk: &mut [f32; N] = (&mut out_row[j..j + N]).try_into().expect("lane tile");
    for l in 0..N {
        out_blk[l] += acc[l];
    }
}

/// `out += xᵀ × g` for a single row `x` (`rows` long) and `g` (`cols`
/// long): the rank-1 weight gradient of a one-row `x·W`, added straight
/// into `out` (`rows × cols`).
///
/// Each element receives one product `x[i]·g[j]`, skipped when
/// `x[i] == 0` as [`matmul_into`] skips it, so the kernels' product
/// rounding is kept and there is no chain to reorder. Added into a
/// gradient that started at `+0.0`, this equals materializing `xᵀ·g`
/// with [`matmul_into`] and adding it, bit for bit: the materialized
/// element is `(+0 + x·g) + 0`, which differs from `x·g` only in turning
/// `-0.0` into `+0.0`, and a sum that started at `+0.0` never holds
/// `-0.0`, so adding either zero leaves it unchanged.
pub fn rank1_add(x: &[f32], g: &[f32], out: &mut [f32]) {
    assert_eq!(
        out.len(),
        x.len() * g.len(),
        "rank1 out data/shape mismatch"
    );
    for (&xv, out_row) in x.iter().zip(out.chunks_exact_mut(g.len().max(1))) {
        if xv == 0.0 {
            continue;
        }
        for (o, &gv) in out_row.iter_mut().zip(g) {
            *o += xv * gv;
        }
    }
}

/// In-place ReLU — scalar oracle.
pub fn relu_scalar(data: &mut [f32]) {
    for v in data {
        *v = v.max(0.0);
    }
}

/// In-place ReLU — 8-wide lane kernel. Element-wise, so trivially
/// bitwise-equal to the oracle.
pub fn relu_lanes(data: &mut [f32]) {
    let mut chunks = data.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        let blk: &mut [f32; LANES] = chunk.try_into().expect("lane block");
        for v in blk {
            *v = v.max(0.0);
        }
    }
    for v in chunks.into_remainder() {
        *v = v.max(0.0);
    }
}

/// `dst[i] += src[i]` — scalar oracle.
pub fn add_assign_scalar(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add length mismatch");
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d += s;
    }
}

/// `dst[i] += src[i]` — 8-wide lane kernel.
pub fn add_assign_lanes(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add length mismatch");
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let dc: &mut [f32; LANES] = dc.try_into().expect("lane block");
        let sc: &[f32; LANES] = sc.try_into().expect("lane block");
        for l in 0..LANES {
            dc[l] += sc[l];
        }
    }
    for (dv, &sv) in d.into_remainder().iter_mut().zip(s.remainder().iter()) {
        *dv += sv;
    }
}

/// Hyper-parameters of one Adam step, with the bias corrections
/// (`b1t = 1 − β₁ᵗ`, `b2t = 1 − β₂ᵗ`) precomputed once per step.
#[derive(Clone, Copy, Debug)]
pub struct AdamStep {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub b1t: f32,
    pub b2t: f32,
}

#[inline]
fn adam_one(value: &mut f32, m: &mut f32, v: &mut f32, g: f32, s: &AdamStep) {
    *m = s.beta1 * *m + (1.0 - s.beta1) * g;
    *v = s.beta2 * *v + (1.0 - s.beta2) * g * g;
    let m_hat = *m / s.b1t;
    let v_hat = *v / s.b2t;
    *value -= s.lr * m_hat / (v_hat.sqrt() + s.eps);
}

#[inline]
fn check_adam(value: &[f32], m: &[f32], v: &[f32], grad: &[f32]) {
    assert!(
        value.len() == m.len() && value.len() == v.len() && value.len() == grad.len(),
        "adam state length mismatch"
    );
}

/// One Adam update over a parameter tensor — scalar oracle.
pub fn adam_update_scalar(
    value: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    step: &AdamStep,
) {
    check_adam(value, m, v, grad);
    for i in 0..value.len() {
        adam_one(&mut value[i], &mut m[i], &mut v[i], grad[i], step);
    }
}

/// One Adam update over a parameter tensor — 8-wide lane kernel. The
/// element chain (`m`, `v`, bias-correct, `sqrt`, update) is identical to
/// the oracle; lane blocking lets the divides and square roots vectorize.
pub fn adam_update_lanes(
    value: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    step: &AdamStep,
) {
    check_adam(value, m, v, grad);
    // One fused pass over zipped iterators: the dynamic-length loop
    // vectorizes into packed 8-wide mul/div/sqrt lanes, and zipping (vs
    // the oracle's indexed loop) removes the per-element bounds checks.
    // Profiling showed the update is div/sqrt-throughput-bound, so unlike
    // the matmul there is no register-tiling headroom here — the point of
    // the twin is the shared-oracle contract, not a speedup. The
    // per-element chain is the oracle's, token for token, so results stay
    // bit-identical.
    for (val, (mb, (vb, &gb))) in value
        .iter_mut()
        .zip(m.iter_mut().zip(v.iter_mut().zip(grad.iter())))
    {
        adam_one(val, mb, vb, gb, step);
    }
}

// ---------------------------------------------------------------------
// Active dispatch: lanes by default, scalar oracle under `scalar-kernels`.
// ---------------------------------------------------------------------

/// `out += a × b` with the active kernel flavor.
pub fn matmul_into(a: &[f32], rows: usize, inner: usize, b: &[f32], cols: usize, out: &mut [f32]) {
    #[cfg(feature = "scalar-kernels")]
    matmul_into_scalar(a, rows, inner, b, cols, out);
    #[cfg(not(feature = "scalar-kernels"))]
    matmul_into_lanes(a, rows, inner, b, cols, out);
}

/// `out += a × bᵀ` (`b` stored `cols × inner`) with the active kernel
/// flavor.
pub fn matmul_bt_into(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    #[cfg(feature = "scalar-kernels")]
    matmul_bt_into_scalar(a, rows, inner, b, cols, out);
    #[cfg(not(feature = "scalar-kernels"))]
    matmul_bt_into_lanes(a, rows, inner, b, cols, out);
}

/// In-place ReLU with the active kernel flavor.
pub fn relu(data: &mut [f32]) {
    #[cfg(feature = "scalar-kernels")]
    relu_scalar(data);
    #[cfg(not(feature = "scalar-kernels"))]
    relu_lanes(data);
}

/// `dst += src` with the active kernel flavor.
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    #[cfg(feature = "scalar-kernels")]
    add_assign_scalar(dst, src);
    #[cfg(not(feature = "scalar-kernels"))]
    add_assign_lanes(dst, src);
}

/// One Adam update with the active kernel flavor.
pub fn adam_update(value: &mut [f32], m: &mut [f32], v: &mut [f32], grad: &[f32], step: &AdamStep) {
    #[cfg(feature = "scalar-kernels")]
    adam_update_scalar(value, m, v, grad, step);
    #[cfg(not(feature = "scalar-kernels"))]
    adam_update_lanes(value, m, v, grad, step);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fill(rng: &mut StdRng, n: usize, sparse: bool) -> Vec<f32> {
        (0..n)
            .map(|_| {
                if sparse && rng.gen_bool(0.4) {
                    0.0
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect()
    }

    #[test]
    fn matmul_lanes_matches_scalar_bitwise_across_shapes() {
        let mut rng = StdRng::seed_from_u64(0xD15E);
        // deliberate mix of lane multiples, tails (<8, %8 != 0) and empties
        let shapes = [
            (1, 48, 48),
            (3, 5, 7),
            (2, 16, 8),
            (4, 9, 13),
            (1, 1, 1),
            (5, 8, 3),
            (0, 4, 4),
            (4, 0, 4),
            (4, 4, 0),
        ];
        for &(rows, inner, cols) in &shapes {
            for sparse in [false, true] {
                let a = fill(&mut rng, rows * inner, sparse);
                let b = fill(&mut rng, inner * cols, false);
                let mut out_s = vec![0.0f32; rows * cols];
                let mut out_l = vec![0.0f32; rows * cols];
                matmul_into_scalar(&a, rows, inner, &b, cols, &mut out_s);
                matmul_into_lanes(&a, rows, inner, &b, cols, &mut out_l);
                if cfg!(target_feature = "fma") {
                    // FMA builds fuse the lane multiply-adds, so the
                    // policy's tolerance branch applies instead of the
                    // bitwise one: ≤1e-6 relative to the accumulated
                    // magnitude Σ|a||b| (relative to the *result* would be
                    // unsound under cancellation).
                    for (idx, (s, l)) in out_s.iter().zip(&out_l).enumerate() {
                        let (r, c) = (idx / cols, idx % cols);
                        let mag: f64 = (0..inner)
                            .map(|k| {
                                f64::from(a[r * inner + k].abs()) * f64::from(b[k * cols + c].abs())
                            })
                            .sum();
                        assert!(
                            f64::from((s - l).abs()) <= 1e-6 * mag.max(1e-30),
                            "shape {rows}x{inner}x{cols} sparse={sparse}: {s} vs {l}"
                        );
                    }
                } else {
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&out_s),
                        bits(&out_l),
                        "shape {rows}x{inner}x{cols} sparse={sparse}"
                    );
                }
            }
        }
    }

    #[test]
    fn elementwise_kernels_match_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xE1E);
        for n in [0usize, 1, 7, 8, 9, 31, 64, 100] {
            let mut r_s = fill(&mut rng, n, false);
            let mut r_l = r_s.clone();
            relu_scalar(&mut r_s);
            relu_lanes(&mut r_l);
            assert_eq!(r_s, r_l, "relu n={n}");

            let src = fill(&mut rng, n, false);
            let mut d_s = fill(&mut rng, n, false);
            let mut d_l = d_s.clone();
            add_assign_scalar(&mut d_s, &src);
            add_assign_lanes(&mut d_l, &src);
            assert_eq!(d_s, d_l, "add n={n}");

            let step = AdamStep {
                lr: 1e-3,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                b1t: 1.0 - 0.9f32.powi(3),
                b2t: 1.0 - 0.999f32.powi(3),
            };
            let grad = fill(&mut rng, n, false);
            let (mut val_s, mut m_s, mut v_s) = (
                fill(&mut rng, n, false),
                fill(&mut rng, n, false),
                fill(&mut rng, n, false)
                    .iter()
                    .map(|x| x.abs())
                    .collect::<Vec<_>>(),
            );
            let (mut val_l, mut m_l, mut v_l) = (val_s.clone(), m_s.clone(), v_s.clone());
            adam_update_scalar(&mut val_s, &mut m_s, &mut v_s, &grad, &step);
            adam_update_lanes(&mut val_l, &mut m_l, &mut v_l, &grad, &step);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&val_s), bits(&val_l), "adam value n={n}");
            assert_eq!(bits(&m_s), bits(&m_l), "adam m n={n}");
            assert_eq!(bits(&v_s), bits(&v_l), "adam v n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "matmul rhs data/shape mismatch")]
    fn lane_matmul_rejects_bad_rhs_length() {
        let a = vec![1.0f32; 4];
        let b = vec![1.0f32; 3]; // should be 2×2 = 4
        let mut out = vec![0.0f32; 4];
        matmul_into_lanes(&a, 2, 2, &b, 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "adam state length mismatch")]
    fn adam_rejects_mismatched_state() {
        let step = AdamStep {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            b1t: 0.1,
            b2t: 0.001,
        };
        let mut value = vec![0.0f32; 4];
        let mut m = vec![0.0f32; 4];
        let mut v = vec![0.0f32; 3];
        adam_update_lanes(&mut value, &mut m, &mut v, &[0.0; 4], &step);
    }
}
