//! # zt-core — the ZeroTune zero-shot cost model
//!
//! This crate implements the paper's contribution on top of the
//! [`zt_query`] algebra, the [`zt_dspsim`] substrate and the [`zt_nn`]
//! autodiff stack:
//!
//! * [`features`] — the *transferable featurization* of Table I: every
//!   logical operator and physical resource is described by features that
//!   keep their semantic meaning across workloads (parallelism degree,
//!   partitioning strategy, grouping number, tuple width/types,
//!   selectivity, event rate, window/aggregation/join/filter parameters,
//!   CPU cores/frequency, memory, link speed), plus the ablation masks of
//!   Exp. 6.
//! * [`graph`] — the *parallel graph representation* (Section III-C2):
//!   one node per distinct operator (parallel instances are aggregated,
//!   design option (2) of the paper) plus one node per worker, with
//!   data-flow, physical and operator-resource-mapping edges.
//! * [`model`] — the zero-shot GNN: per-node-type MLP encoders, three
//!   message-passing phases, and a read-out MLP on the sink predicting
//!   log-latency and log-throughput. Training runs on the autodiff tape;
//!   prediction uses a tapeless forward pass over a scratch-buffer arena.
//! * [`estimator`] — the [`CostEstimator`] trait unifying the GNN and the
//!   flat-vector baselines behind one (batched) prediction interface.
//! * [`optisample`] — the **OptiSample** enumeration strategy
//!   (Algorithm 1, Definitions 3–8) and the random baseline strategy.
//! * [`dataset`] — labeled training-data generation against the
//!   simulator.
//! * [`train`] — the supervised trainer (Adam, mini-batches, gradient
//!   clipping, early stopping) and evaluation helpers.
//! * [`qerror`] — the q-error metric used throughout the evaluation.
//! * [`optimizer`] — the parallelism-tuning optimizer minimizing the
//!   weighted cost objective of Eq. 1.
//! * [`fewshot`] — few-shot fine-tuning for complex unseen structures
//!   (Fig. 6 / Fig. 7d).
//! * [`diagnostics`] — static lints over plans, feature encodings,
//!   datasets and model weights (stable `ZTxxx` codes, rustc-style
//!   reports, strict-mode pre-flight hooks in `train`/`tune`/datagen).
//! * [`certify`] — interval bound propagation over *trained weights*:
//!   certified output brackets per data-flow depth, certified-dead and
//!   saturated ReLU units, per-feature sensitivity bounds, ZT6xx
//!   diagnostics and the serve-side deploy gate's `CertSummary`.
//! * [`bounds`] — interval abstract interpretation over deployed plans:
//!   sound lower/upper brackets on rates, utilization, latency and
//!   throughput derived without running the simulator; powers the
//!   optimizer's pruning pre-pass and the ZT5xx prediction cross-checks.
//! * [`dataflow`] — monotone dataflow analysis over the sealed plan IR
//!   (rate/width brackets, key-cardinality and partitioning-property
//!   flow, schema key-class flow): one fixpoint pass over the cached
//!   topological order, feeding the ZT7xx lints and the optimizer's
//!   key-cardinality lattice capping.
//! * [`telemetry`] — runtime observability (RAII spans, counters,
//!   histograms; `ZT_TELEMETRY=off|summary|trace`; Chrome-trace and
//!   summary-report exporters), instrumented through datagen, training,
//!   inference, tuning and both simulators.

#![deny(unsafe_code)]

pub mod bounds;
pub mod certify;
pub mod dataflow;
pub mod datagen;
pub mod dataset;
pub mod diagnostics;
pub mod estimator;
pub mod explain;
pub mod features;
pub mod fewshot;
pub mod graph;
pub mod lattice;
pub mod model;
pub mod optimizer;
pub mod optisample;
pub mod qerror;
pub mod train;

/// Runtime telemetry: re-export of the low-level [`zt_telemetry`] crate
/// (which sits below `zt_dspsim` in the dependency order so the
/// simulator's hot paths can report into the same registry).
pub mod telemetry {
    pub use zt_telemetry::*;
}

pub use bounds::{
    analyze, analyze_with, prune_mask, work_floors, BoundsConfig, BoundsReport, Interval, OpBounds,
    WorkFloors,
};
pub use certify::{
    certify_model, certify_report, dataflow_depth, explain_certificate, CertSummary, CertifyConfig,
    HeadBracket, ModelCert, ModuleCert,
};
pub use dataflow::{
    analyze_plan as dataflow_plan, analyze_pqp as dataflow_pqp, is_fixpoint, lint_dataflow_plan,
    lint_dataflow_pqp, solve as dataflow_solve, ClassSet, DataflowReport, KeyDist, KeyFact,
    RateFact,
};
pub use datagen::{generate_dataset_report, generate_dataset_with, shard_seed, GenPlan, GenReport};
pub use dataset::{generate_dataset, Dataset, GenConfig, Sample, SampleMeta};
pub use diagnostics::{
    lint_bounds_report, lint_dataset, lint_graph, lint_graph_batch, lint_model, lint_model_against,
    lint_model_structure, lint_plan, lint_pqp, lint_prediction_bounds, lint_split, lint_wire_plan,
    strict_from_env, Anchor, Diagnostic, Report, Severity,
};
pub use estimator::{evaluate_estimator, CostEstimator, CostPrediction};
pub use features::FeatureMask;
pub use graph::{encode, EncodeContext, GraphEncoding, GraphNode, NodeKind};
pub use lattice::{branch_and_bound, ParallelismLattice, SearchOutcome, SearchStats};
pub use model::{ModelConfig, TargetNorm, ZeroTuneModel};
pub use optimizer::{tune, OptimizerConfig, SearchSpace, TuneError, TuningOutcome};
pub use optisample::{EnumerationStrategy, OptiSampleConfig, RandomConfig};
pub use qerror::{q_error, QErrorStats};
pub use train::{evaluate, train, TrainConfig, TrainReport};
