//! # zt-nn
//!
//! A small, fully-tested neural-network stack built from scratch for the
//! ZeroTune reproduction (mature GNN crates are not available, and the
//! paper's model — per-node-type MLP encoders, DAG message passing, an MLP
//! read-out — is small enough that a purpose-built tape is the right
//! tool).
//!
//! * [`matrix`] — a dense row-major `f32` matrix.
//! * [`tape`] — reverse-mode autodiff over matrices with a fixed op set
//!   (a fused `x·W + b` layer op that reads weights from the store,
//!   matmul, broadcast add, ReLU/tanh, concat, element-wise mean of
//!   several inputs, losses). Gradients are checked against central finite
//!   differences in [`gradcheck`].
//! * [`layers`] — parameter store, `Linear` and `Mlp` modules, each with
//!   a taped `forward` (training) and a tapeless `infer` (prediction).
//! * [`infer`] — the tapeless inference support: a reusable [`infer::Scratch`]
//!   buffer arena plus aggregation helpers that mirror the tape ops'
//!   accumulation order exactly.
//! * [`kernels`] — the dense `f32` hot-path kernels (matmul, `a × bᵀ`,
//!   ReLU, add, Adam update), each as an 8-wide lane kernel *and* a scalar
//!   oracle.
//!   The lane flavor is the default; building with the `scalar-kernels`
//!   feature switches every dispatch site back to the oracle, and the two
//!   are pinned bitwise-equal by `tests/kernel_equivalence.rs`.
//! * [`certify`] — interval bound propagation over trained weights:
//!   certified output brackets, certified-dead/saturated ReLU units and
//!   per-input sensitivity bounds over an input box, sound against the
//!   `f32` inference kernels.
//! * [`optim`] — SGD (with momentum) and Adam, with global-norm gradient
//!   clipping.
//! * [`linalg`] — `f64` Cholesky solver used by the ridge-regression
//!   baseline.

#![deny(unsafe_code)]

pub mod certify;
pub mod gradcheck;
pub mod infer;
pub mod kernels;
pub mod layers;
pub mod linalg;
pub mod matrix;
pub mod optim;
pub mod tape;

pub use certify::{certify_mlp, IntervalVec, LayerUnits, MlpCert};
pub use infer::Scratch;
pub use layers::{DimMismatch, Linear, Mlp, ParamId, ParamStore};
pub use matrix::Matrix;
pub use optim::{Adam, Optimizer, Sgd};
pub use tape::{Tape, Var};
