//! Property-based equivalence of the 8-wide lane kernels against their
//! scalar oracles — the "every fast path has a slow twin" contract.
//!
//! The policy mirrors the tape-vs-tapeless one (`tapeless_equivalence.rs`):
//! **bitwise** wherever the lane kernel performs the exact operation chain
//! of the oracle, a **≤1e-6 magnitude-relative** tolerance where a build
//! or call shape legitimately regroups one rounding step:
//!
//! * matmul with pre-zeroed `out` — bitwise on the default target; under a
//!   hardware-FMA build (`target_feature = "fma"`) the lane tile fuses each
//!   multiply-add into one rounding, so the tolerance branch applies;
//! * matmul accumulating into a *non-zero* `out` — the lane tile folds the
//!   prior value in with one final add instead of threading it through the
//!   sum chain, so the tolerance branch always applies;
//! * ReLU / add / Adam — element-wise, bitwise unconditionally.
//!
//! The tolerance is relative to the f64-accumulated magnitude Σ|a·b| (plus
//! |out₀| for the accumulate case), **not** to the result: under heavy
//! cancellation the result can be arbitrarily smaller than the rounding
//! error of either correct evaluation order.
//!
//! A final end-to-end section trains a small model and pins inference
//! determinism under the *active* kernel set; CI runs this whole binary
//! twice (default and `--features zt-nn/scalar-kernels`), which is what
//! pins the two dispatch configurations to each other at the model level.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zerotune::core::datagen::{generate_dataset_with, GenPlan};
use zerotune::core::dataset::GenConfig;
use zerotune::core::features::FeatureMask;
use zerotune::core::graph::encode;
use zerotune::core::model::{ModelConfig, ZeroTuneModel};
use zerotune::core::train::{train, TrainConfig};
use zerotune::dspsim::cluster::{Cluster, ClusterType};
use zerotune::dspsim::placement::ChainingMode;
use zerotune::nn::kernels::{
    adam_update_lanes, adam_update_scalar, add_assign_lanes, add_assign_scalar,
    matmul_bt_into_lanes, matmul_bt_into_scalar, matmul_into_lanes, matmul_into_scalar, rank1_add,
    relu_lanes, relu_scalar, AdamStep, ACTIVE_KERNELS, LANES,
};
use zerotune::nn::Scratch;
use zerotune::query::{ParallelQueryPlan, QueryGenerator, QueryStructure};

/// Deterministic data for a shape drawn by proptest: finite values in
/// [-2, 2] with a controllable fraction of exact zeros (the kernels'
/// zero-skip path must stay value-neutral).
fn fill(seed: u64, n: usize, zero_every: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if zero_every > 0 && i % zero_every == 0 {
                0.0
            } else {
                ((state >> 40) as f32 / (1u64 << 23) as f32) - 2.0
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Assert the dual policy on a matmul output pair. `acc_base` is the
/// magnitude of the pre-existing `out` content (0 for pre-zeroed calls);
/// `force_tolerance` selects the ≤1e-6 branch even on non-FMA builds
/// (used for the accumulate-into-non-zero case).
#[allow(clippy::too_many_arguments)]
fn assert_matmul_policy(
    a: &[f32],
    b: &[f32],
    rows: usize,
    inner: usize,
    cols: usize,
    out_scalar: &[f32],
    out_lanes: &[f32],
    out0: &[f32],
    force_tolerance: bool,
) -> Result<(), TestCaseError> {
    if force_tolerance || cfg!(target_feature = "fma") {
        for (idx, (s, l)) in out_scalar.iter().zip(out_lanes).enumerate() {
            let (r, c) = (idx / cols.max(1), idx % cols.max(1));
            let mag: f64 = (0..inner)
                .map(|k| f64::from(a[r * inner + k].abs()) * f64::from(b[k * cols + c].abs()))
                .sum::<f64>()
                + f64::from(out0[idx].abs());
            prop_assert!(
                f64::from((s - l).abs()) <= 1e-6 * mag.max(1e-30),
                "{rows}x{inner}x{cols} out[{idx}]: scalar {s} vs lanes {l} (mag {mag})"
            );
        }
    } else {
        prop_assert_eq!(bits(out_scalar), bits(out_lanes));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lane matmul equals the scalar oracle for arbitrary shapes —
    /// including empty dims, sub-lane widths, and every tail residue
    /// `cols % LANES` — on a pre-zeroed output.
    #[test]
    fn matmul_lanes_matches_oracle_on_zeroed_out(
        rows in 0usize..12,
        inner in 0usize..40,
        cols in 0usize..40,
        seed in 0u64..1_000_000,
        zero_every in 0usize..6,
    ) {
        let a = fill(seed, rows * inner, zero_every);
        let b = fill(seed ^ 0xB, inner * cols, 0);
        let out0 = vec![0.0f32; rows * cols];
        let mut out_s = out0.clone();
        let mut out_l = out0.clone();
        matmul_into_scalar(&a, rows, inner, &b, cols, &mut out_s);
        matmul_into_lanes(&a, rows, inner, &b, cols, &mut out_l);
        assert_matmul_policy(&a, &b, rows, inner, cols, &out_s, &out_l, &out0, false)?;
    }

    /// Accumulating into a non-zero `out` regroups exactly one rounding
    /// step in the lane kernel (prior value folded in last), so the
    /// magnitude-relative branch of the policy applies on every build.
    #[test]
    fn matmul_accumulate_into_nonzero_out_within_tolerance(
        rows in 1usize..10,
        inner in 1usize..32,
        cols in 1usize..32,
        seed in 0u64..1_000_000,
    ) {
        let a = fill(seed, rows * inner, 5);
        let b = fill(seed ^ 0xB, inner * cols, 0);
        let out0 = fill(seed ^ 0xC, rows * cols, 0);
        let mut out_s = out0.clone();
        let mut out_l = out0.clone();
        matmul_into_scalar(&a, rows, inner, &b, cols, &mut out_s);
        matmul_into_lanes(&a, rows, inner, &b, cols, &mut out_l);
        assert_matmul_policy(&a, &b, rows, inner, cols, &out_s, &out_l, &out0, true)?;
    }

    /// Every tail residue 0..LANES gets its own const-generic kernel —
    /// pin each one explicitly by sweeping cols across a full lane span
    /// (plus the 4-lane register tile boundary at 32).
    #[test]
    fn matmul_tail_widths_all_match(
        base_idx in 0usize..3,
        tail in 0usize..LANES,
        seed in 0u64..100_000,
    ) {
        let (rows, inner) = (3usize, 17usize);
        let cols = [0usize, LANES, 4 * LANES][base_idx] + tail;
        let a = fill(seed, rows * inner, 4);
        let b = fill(seed ^ 0xB, inner * cols, 0);
        let out0 = vec![0.0f32; rows * cols];
        let mut out_s = out0.clone();
        let mut out_l = out0.clone();
        matmul_into_scalar(&a, rows, inner, &b, cols, &mut out_s);
        matmul_into_lanes(&a, rows, inner, &b, cols, &mut out_l);
        assert_matmul_policy(&a, &b, rows, inner, cols, &out_s, &out_l, &out0, false)?;
    }

    /// `a × bᵀ` read in place (the tape's `dx = g·Wᵀ`): the lane kernel
    /// meets its scalar twin under the matmul policy, and each flavor is
    /// bitwise equal to the plain matmul of the same flavor on an
    /// explicitly transposed `b` — the computation it replaces.
    #[test]
    fn matmul_bt_matches_twin_and_transposed_matmul(
        rows in 0usize..6,
        inner in 0usize..40,
        cols in 0usize..40,
        seed in 0u64..1_000_000,
        zero_every in 0usize..6,
    ) {
        let a = fill(seed, rows * inner, zero_every);
        let b = fill(seed ^ 0xB, cols * inner, 0);
        let mut b_t = vec![0.0f32; inner * cols];
        for j in 0..cols {
            for k in 0..inner {
                b_t[k * cols + j] = b[j * inner + k];
            }
        }
        let out0 = vec![0.0f32; rows * cols];
        let (mut bt_s, mut bt_l) = (out0.clone(), out0.clone());
        matmul_bt_into_scalar(&a, rows, inner, &b, cols, &mut bt_s);
        matmul_bt_into_lanes(&a, rows, inner, &b, cols, &mut bt_l);
        assert_matmul_policy(&a, &b_t, rows, inner, cols, &bt_s, &bt_l, &out0, false)?;

        let (mut mm_s, mut mm_l) = (out0.clone(), out0.clone());
        matmul_into_scalar(&a, rows, inner, &b_t, cols, &mut mm_s);
        matmul_into_lanes(&a, rows, inner, &b_t, cols, &mut mm_l);
        prop_assert_eq!(bits(&bt_s), bits(&mm_s));
        prop_assert_eq!(bits(&bt_l), bits(&mm_l));
    }

    /// The rank-1 weight gradient added into a `+0.0`-started gradient
    /// equals materializing `xᵀ·g` with either matmul flavor and adding
    /// it, bit for bit — also when accumulated over several samples.
    #[test]
    fn rank1_add_matches_materialized_outer_product(
        inner in 0usize..24,
        cols in 0usize..24,
        seed in 0u64..1_000_000,
        zero_every in 0usize..4,
    ) {
        let mut direct = vec![0.0f32; inner * cols];
        let mut via_scalar = direct.clone();
        let mut via_lanes = direct.clone();
        for sample in 0..3u64 {
            let x = fill(seed ^ sample, inner, zero_every);
            let g = fill(seed ^ (sample << 8) ^ 0xD, cols, zero_every);
            rank1_add(&x, &g, &mut direct);
            let (mut dw_s, mut dw_l) = (vec![0.0f32; inner * cols], vec![0.0f32; inner * cols]);
            matmul_into_scalar(&x, inner, 1, &g, cols, &mut dw_s);
            matmul_into_lanes(&x, inner, 1, &g, cols, &mut dw_l);
            add_assign_scalar(&mut via_scalar, &dw_s);
            add_assign_scalar(&mut via_lanes, &dw_l);
        }
        prop_assert_eq!(bits(&direct), bits(&via_scalar));
        prop_assert_eq!(bits(&direct), bits(&via_lanes));
    }

    /// ReLU and add are element-wise: lane blocking cannot reorder
    /// anything, so the twins are bitwise-equal on every build.
    #[test]
    fn relu_and_add_are_bitwise_equal(
        n in 0usize..200,
        seed in 0u64..1_000_000,
    ) {
        let src = fill(seed, n, 7);
        let mut r_s = src.clone();
        let mut r_l = src.clone();
        relu_scalar(&mut r_s);
        relu_lanes(&mut r_l);
        prop_assert_eq!(bits(&r_s), bits(&r_l));

        let mut d_s = fill(seed ^ 0xD, n, 0);
        let mut d_l = d_s.clone();
        add_assign_scalar(&mut d_s, &src);
        add_assign_lanes(&mut d_l, &src);
        prop_assert_eq!(bits(&d_s), bits(&d_l));
    }

    /// The Adam twins share `adam_one` token for token; state (`value`,
    /// `m`, `v`) stays bitwise-identical through a multi-step run.
    #[test]
    fn adam_twins_stay_bitwise_identical_over_steps(
        n in 0usize..150,
        steps in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut val_s = fill(seed, n, 0);
        let mut m_s = vec![0.0f32; n];
        let mut v_s = vec![0.0f32; n];
        let (mut val_l, mut m_l, mut v_l) = (val_s.clone(), m_s.clone(), v_s.clone());
        for t in 1..=steps {
            let step = AdamStep {
                lr: 1e-3,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                b1t: 1.0 - 0.9f32.powi(t as i32),
                b2t: 1.0 - 0.999f32.powi(t as i32),
            };
            let grad = fill(seed ^ t as u64, n, 9);
            adam_update_scalar(&mut val_s, &mut m_s, &mut v_s, &grad, &step);
            adam_update_lanes(&mut val_l, &mut m_l, &mut v_l, &grad, &step);
        }
        prop_assert_eq!(bits(&val_s), bits(&val_l));
        prop_assert_eq!(bits(&m_s), bits(&m_l));
        prop_assert_eq!(bits(&v_s), bits(&v_l));
    }
}

// ---------------------------------------------------------------------
// End-to-end: the *active* kernel set under the full model.
// CI runs this binary under both kernel configurations; each run pins
// determinism and finiteness, and the shared scalar oracle above pins the
// two configurations to each other.
// ---------------------------------------------------------------------

fn trained_model_and_graphs() -> (ZeroTuneModel, Vec<zerotune::core::graph::GraphEncoding>) {
    let data = generate_dataset_with(
        &GenConfig::seen(),
        24,
        0xCE_77E1,
        &GenPlan::serial().with_shard_size(8),
    );
    let mut model = ZeroTuneModel::new(ModelConfig {
        hidden: 16,
        seed: 11,
    });
    train(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 3,
            batch_size: 8,
            patience: 0,
            seed: 7,
            ..TrainConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    let cluster = Cluster::homogeneous(ClusterType::M510, 4, 10.0);
    let graphs = (0..6)
        .map(|i| {
            let plan = QueryGenerator::seen().generate(QueryStructure::Linear, &mut rng);
            let n = plan.num_ops();
            let pqp = ParallelQueryPlan::with_parallelism(plan, vec![1 + i as u32 * 3; n]);
            encode(&pqp, &cluster, ChainingMode::Auto, &FeatureMask::all())
        })
        .collect();
    (model, graphs)
}

/// Training then inference under the active kernel flavor is
/// deterministic (bit-identical across repeat runs) and finite.
#[test]
fn trained_model_inference_is_deterministic_under_active_kernels() {
    let (model_a, graphs) = trained_model_and_graphs();
    let (model_b, _) = trained_model_and_graphs();
    let mut scratch = Scratch::new();
    for g in &graphs {
        let out_a = model_a.forward_infer(g, &mut scratch);
        let out_b = model_b.forward_infer(g, &mut scratch);
        assert_eq!(out_a.len(), 2, "read-out head is (latency, throughput)");
        assert_eq!(
            bits(&out_a),
            bits(&out_b),
            "train+infer must be deterministic under {ACTIVE_KERNELS} kernels"
        );
        assert!(
            out_a.iter().all(|v| v.is_finite()),
            "non-finite prediction under {ACTIVE_KERNELS} kernels"
        );
    }
}
