//! Static diagnostics: lint plans, features, datasets and models before
//! anything runs.
//!
//! ZeroTune predicts costs *before deployment*, which means every consumer
//! — data generation, training, the optimizer — trusts that plans, feature
//! encodings and model weights are well-formed at the moment they are
//! handed over. Zero-shot cost models are acutely sensitive to silent
//! corruption: a NaN label poisons the target normalization, an
//! out-of-range feature silently degrades predictions without any runtime
//! error, and a sliding window with `slide > length` is a plan the paper's
//! feature space cannot even express. This module is the correctness layer
//! that catches such problems *statically*.
//!
//! Every finding is a [`Diagnostic`] with a stable code, a
//! [`Severity`], a human-readable message and an optional anchor (operator
//! id, graph node, sample index or parameter name). The code registry:
//!
//! | Family | Codes | Subject |
//! |---|---|---|
//! | ZT1xx | ZT101–ZT109 | [`LogicalPlan`] / [`ParallelQueryPlan`] |
//! | ZT2xx | ZT201–ZT205 | [`GraphEncoding`] feature vectors |
//! | ZT3xx | ZT301–ZT305 | [`Dataset`] labels and structure |
//! | ZT4xx | ZT401–ZT407 | [`ZeroTuneModel`] weights and normalization |
//! | ZT5xx | ZT501–ZT504 | [`BoundsReport`](crate::bounds::BoundsReport) interval cross-checks |
//! | ZT6xx | ZT601–ZT605 | [`ModelCert`](crate::certify::ModelCert) interval certification of trained weights |
//! | ZT7xx | ZT701–ZT705 | [`DataflowReport`](crate::dataflow::DataflowReport) monotone dataflow facts |
//!
//! The passes run **without executing anything** — no simulation, no
//! forward pass (the one exception is
//! [`ZeroTuneModel::predict_checked`](crate::model::ZeroTuneModel::predict_checked),
//! which surfaces ZT406 from an actual inference). They are wired into
//! `train` / `tune` / `generate_sample` as pre-flight checks behind the
//! `strict` flag (`--strict` on the experiment binaries, or `ZT_STRICT=1`
//! in the environment): in strict mode an `Error`-severity finding aborts
//! the run with the rendered report, warnings go to stderr. The `zt-lint`
//! binary runs all passes over serialized artifacts and prints a
//! rustc-style report.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use zt_dspsim::cluster::Cluster;
use zt_query::plan::PlanError;
use zt_query::{LogicalPlan, OpId, OperatorKind, ParallelQueryPlan, Partitioning, WindowSpec};

use crate::dataset::{Dataset, Sample};
use crate::features::{
    AGG_EXTRA_DIM, FEATURE_MAX, FEATURE_MIN, FILTER_EXTRA_DIM, JOIN_EXTRA_DIM, OP_COMMON_DIM,
    RESOURCE_DIM, SINK_EXTRA_DIM, SOURCE_EXTRA_DIM,
};
use crate::graph::{GraphEncoding, NodeKind};
use crate::model::{TargetNorm, ZeroTuneModel};

// --- Core types ----------------------------------------------------------

/// How bad a finding is. Ordered: `Info < Warning < Error`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl Severity {
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// What a diagnostic points at.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Anchor {
    /// An operator of the linted plan.
    Op(OpId),
    /// A node index of a [`GraphEncoding`].
    Node(usize),
    /// A sample index of a [`Dataset`].
    Sample(usize),
    /// A named model parameter or module.
    Param(String),
}

impl std::fmt::Display for Anchor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Anchor::Op(id) => write!(f, "{id}"),
            Anchor::Node(i) => write!(f, "node {i}"),
            Anchor::Sample(i) => write!(f, "sample {i}"),
            Anchor::Param(name) => write!(f, "param {name}"),
        }
    }
}

/// One finding of a diagnostics pass.
#[derive(Clone, PartialEq, Debug)]
pub struct Diagnostic {
    /// Stable registry code, e.g. `"ZT101"`.
    pub code: &'static str,
    pub severity: Severity,
    pub message: String,
    pub anchor: Option<Anchor>,
}

impl Diagnostic {
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            anchor: None,
        }
    }

    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            anchor: None,
        }
    }

    pub fn info(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Info,
            message: message.into(),
            anchor: None,
        }
    }

    pub fn at(mut self, anchor: Anchor) -> Self {
        self.anchor = Some(anchor);
        self
    }

    pub fn at_op(self, id: OpId) -> Self {
        self.at(Anchor::Op(id))
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.label(),
            self.code,
            self.message
        )?;
        if let Some(a) = &self.anchor {
            write!(f, "\n  --> {a}")?;
        }
        Ok(())
    }
}

/// A collected set of diagnostics with rustc-style rendering.
#[must_use = "a diagnostics report is inert until rendered, inspected or enforce()d"]
#[derive(Clone, Default, Debug, PartialEq)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    pub fn new(diagnostics: Vec<Diagnostic>) -> Self {
        Report { diagnostics }
    }

    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Distinct codes present, sorted.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut codes: Vec<&'static str> = self.diagnostics.iter().map(|d| d.code).collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    pub fn extend(&mut self, more: Vec<Diagnostic>) {
        self.diagnostics.extend(more);
    }

    /// One-line `N errors, M warnings` summary.
    pub fn summary(&self) -> String {
        format!(
            "{} error(s), {} warning(s), {} note(s)",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        )
    }

    /// Strict-mode check: `Err` with the report when it contains errors;
    /// otherwise print its diagnostics to stderr, prefixed with `stage`.
    /// `tune` returns the error as `TuneError::Strict`.
    pub fn into_result(self, stage: &str) -> Result<(), Report> {
        if self.has_errors() {
            return Err(self);
        }
        for d in &self.diagnostics {
            eprintln!("{stage}: {d}");
        }
        Ok(())
    }

    /// [`Report::into_result`], panicking with the rendered report on
    /// errors. The strict-mode enforcement entry of `train` and
    /// `generate_sample`.
    pub fn enforce(&self, stage: &str) {
        if let Err(report) = self.clone().into_result(stage) {
            panic!("strict {stage} pre-flight failed:\n{report}");
        }
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(f, "{}", self.summary())
    }
}

// --- Code registry -------------------------------------------------------

/// A registry entry: code, default severity, one-line summary.
pub struct CodeInfo {
    pub code: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
}

/// The full lint-code registry (ZT1xx plan, ZT2xx features, ZT3xx dataset,
/// ZT4xx model).
pub const REGISTRY: &[CodeInfo] = &[
    CodeInfo {
        code: "ZT101",
        severity: Severity::Error,
        summary: "plan fails structural validation",
    },
    CodeInfo {
        code: "ZT102",
        severity: Severity::Warning,
        summary: "operator unreachable between sources and sink",
    },
    CodeInfo {
        code: "ZT103",
        severity: Severity::Error,
        summary: "invalid window geometry (length/slide)",
    },
    CodeInfo {
        code: "ZT104",
        severity: Severity::Error,
        summary: "selectivity outside (0, 1]",
    },
    CodeInfo {
        code: "ZT105",
        severity: Severity::Error,
        summary: "parallelism exceeds total cluster slots",
    },
    CodeInfo {
        code: "ZT106",
        severity: Severity::Warning,
        summary: "hash partitioning into a parallelism-1 operator",
    },
    CodeInfo {
        code: "ZT107",
        severity: Severity::Warning,
        summary: "cluster oversubscribed (instances > slots)",
    },
    CodeInfo {
        code: "ZT108",
        severity: Severity::Warning,
        summary: "dangling branch: operator reaches no sink in a multi-sink plan",
    },
    CodeInfo {
        code: "ZT109",
        severity: Severity::Error,
        summary: "wire plan fingerprint mismatch at deserialization",
    },
    CodeInfo {
        code: "ZT201",
        severity: Severity::Error,
        summary: "non-finite feature value",
    },
    CodeInfo {
        code: "ZT202",
        severity: Severity::Warning,
        summary: "feature outside its normalization range",
    },
    CodeInfo {
        code: "ZT203",
        severity: Severity::Warning,
        summary: "constant feature columns across a batch",
    },
    CodeInfo {
        code: "ZT204",
        severity: Severity::Error,
        summary: "malformed graph encoding structure",
    },
    CodeInfo {
        code: "ZT205",
        severity: Severity::Error,
        summary: "feature dimension mismatch for node kind",
    },
    CodeInfo {
        code: "ZT301",
        severity: Severity::Error,
        summary: "non-finite or non-positive label",
    },
    CodeInfo {
        code: "ZT302",
        severity: Severity::Warning,
        summary: "duplicate samples",
    },
    CodeInfo {
        code: "ZT303",
        severity: Severity::Warning,
        summary: "train/test structure leakage",
    },
    CodeInfo {
        code: "ZT304",
        severity: Severity::Warning,
        summary: "label-distribution outlier",
    },
    CodeInfo {
        code: "ZT305",
        severity: Severity::Warning,
        summary: "degenerate (constant) label distribution",
    },
    CodeInfo {
        code: "ZT401",
        severity: Severity::Error,
        summary: "non-finite model weight",
    },
    CodeInfo {
        code: "ZT402",
        severity: Severity::Warning,
        summary: "dead ReLU unit (all-nonpositive incoming row)",
    },
    CodeInfo {
        code: "ZT403",
        severity: Severity::Warning,
        summary: "target normalization drifts from dataset labels",
    },
    CodeInfo {
        code: "ZT404",
        severity: Severity::Info,
        summary: "target normalization is the default (model unfitted)",
    },
    CodeInfo {
        code: "ZT405",
        severity: Severity::Warning,
        summary: "exploding weight magnitude",
    },
    CodeInfo {
        code: "ZT406",
        severity: Severity::Error,
        summary: "model produced a non-finite prediction",
    },
    CodeInfo {
        code: "ZT407",
        severity: Severity::Error,
        summary: "layer shape metadata inconsistent with stored weights",
    },
    CodeInfo {
        code: "ZT501",
        severity: Severity::Warning,
        summary: "prediction below the provable latency lower bound",
    },
    CodeInfo {
        code: "ZT502",
        severity: Severity::Warning,
        summary: "prediction above the provable throughput upper bound",
    },
    CodeInfo {
        code: "ZT503",
        severity: Severity::Error,
        summary: "deployed plan is provably infeasible (utilization lower bound >= 1)",
    },
    CodeInfo {
        code: "ZT504",
        severity: Severity::Error,
        summary: "vacuous or inverted bounds interval",
    },
    CodeInfo {
        code: "ZT601",
        severity: Severity::Error,
        summary: "certified output range is non-finite or exploded",
    },
    CodeInfo {
        code: "ZT602",
        severity: Severity::Error,
        summary: "certified output range excludes the training-label range",
    },
    CodeInfo {
        code: "ZT603",
        severity: Severity::Warning,
        summary: "certified-dead hidden unit (provably zero over the feature domain)",
    },
    CodeInfo {
        code: "ZT604",
        severity: Severity::Warning,
        summary: "input feature with certified-zero sensitivity (model provably ignores it)",
    },
    CodeInfo {
        code: "ZT605",
        severity: Severity::Error,
        summary: "prediction escapes the model's certified output bracket",
    },
    CodeInfo {
        code: "ZT701",
        severity: Severity::Warning,
        summary: "statically dead edge (propagated rate bracket is exactly zero)",
    },
    CodeInfo {
        code: "ZT702",
        severity: Severity::Warning,
        summary: "edge's minimum traffic exceeds the cluster's usable network bandwidth",
    },
    CodeInfo {
        code: "ZT703",
        severity: Severity::Warning,
        summary: "redundant hash re-partition of an already-correctly-partitioned stream",
    },
    CodeInfo {
        code: "ZT704",
        severity: Severity::Warning,
        summary: "parallelism exceeds upstream key cardinality (provably idle instances)",
    },
    CodeInfo {
        code: "ZT705",
        severity: Severity::Warning,
        summary: "keyed operator's input stream cannot carry its key class",
    },
];

/// Look up a registry entry by code.
pub fn describe(code: &str) -> Option<&'static CodeInfo> {
    REGISTRY.iter().find(|c| c.code == code)
}

// --- Strict mode ---------------------------------------------------------

/// Whether strict pre-flight mode is enabled via `ZT_STRICT` (`1`, `true`,
/// `yes`; anything else — including unset — is off). The experiment
/// binaries map `--strict` onto this variable.
pub fn strict_from_env() -> bool {
    matches!(
        std::env::var("ZT_STRICT").as_deref(),
        Ok("1") | Ok("true") | Ok("yes")
    )
}

// --- Plan lints (ZT1xx) --------------------------------------------------

fn lint_window(id: OpId, w: &WindowSpec, out: &mut Vec<Diagnostic>) {
    if !(w.length > 0.0 && w.length.is_finite()) {
        out.push(
            Diagnostic::error(
                "ZT103",
                format!("window length {} must be positive and finite", w.length),
            )
            .at_op(id),
        );
    }
    if let Some(s) = w.slide {
        if !(s > 0.0 && s.is_finite()) {
            out.push(
                Diagnostic::error(
                    "ZT103",
                    format!("window slide {s} must be positive and finite"),
                )
                .at_op(id),
            );
        } else if s > w.length {
            out.push(
                Diagnostic::error(
                    "ZT103",
                    format!(
                        "sliding window slide {s} exceeds window length {} (tuples would be dropped)",
                        w.length
                    ),
                )
                .at_op(id),
            );
        }
    }
}

/// Lint a logical plan: structural validity (ZT101), reachability
/// (ZT102/ZT108), window geometry (ZT103), selectivity domains (ZT104)
/// and — when the plan seals — dataflow facts (ZT701, ZT705).
///
/// Unlike [`LogicalPlan::validate`] this does not stop at the first
/// problem, works on arbitrary (even invalid) plans, and is stricter
/// about selectivity — `validate` accepts `0.0`, but a zero-selectivity
/// operator statically kills the stream, so the lint flags it.
pub fn lint_plan(plan: &LogicalPlan) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Per-operator parameter lints over *all* operators (validate() stops
    // at the first offender).
    for op in plan.ops() {
        if let Some(w) = op.kind.window() {
            lint_window(op.id, w, &mut out);
        }
        match &op.kind {
            OperatorKind::Source(_) | OperatorKind::Sink(_) => {}
            kind => {
                let s = kind.selectivity();
                if !(s.is_finite() && s > 0.0 && s <= 1.0) {
                    out.push(
                        Diagnostic::error(
                            "ZT104",
                            format!("selectivity {s} outside (0, 1] — the operator statically drops or multiplies the stream"),
                        )
                        .at_op(op.id),
                    );
                }
            }
        }
    }

    // Structural validation, mapped onto ZT101 unless a dedicated code
    // above already covers the same operator parameter. Keep the sealed IR
    // around: the dataflow lints below need its cached topo order.
    let mut sealed = None;
    match plan.validate() {
        Ok(ir) => sealed = Some(ir),
        Err(PlanError::InvalidParameter(id, what)) => {
            let covered = out.iter().any(|d| {
                d.anchor == Some(Anchor::Op(id)) && (d.code == "ZT103" || d.code == "ZT104")
            });
            if !covered {
                out.push(
                    Diagnostic::error("ZT101", format!("invalid parameter: {what}")).at_op(id),
                );
            }
        }
        Err(e) => out.push(Diagnostic::error("ZT101", e.to_string())),
    }

    // Reachability: every operator must lie on some source → sink path.
    // Needs an acyclic graph with in-bounds edges; ZT101 covers the rest.
    let n = plan.num_ops();
    let edges_ok = plan
        .edges()
        .iter()
        .all(|&(u, d)| u.idx() < n && d.idx() < n);
    if n > 0 && edges_ok && plan.topo_order().is_some() {
        let mut from_source = vec![false; n];
        let mut stack: Vec<OpId> = plan.sources();
        for s in &stack {
            from_source[s.idx()] = true;
        }
        while let Some(u) = stack.pop() {
            for d in plan.downstream(u) {
                if !from_source[d.idx()] {
                    from_source[d.idx()] = true;
                    stack.push(d);
                }
            }
        }
        let sinks: Vec<OpId> = plan
            .ops()
            .iter()
            .filter(|o| o.kind.is_sink())
            .map(|o| o.id)
            .collect();
        let mut to_sink = vec![false; n];
        let mut stack = sinks;
        for s in &stack {
            to_sink[s.idx()] = true;
        }
        while let Some(d) = stack.pop() {
            for u in plan.upstream(d) {
                if !to_sink[u.idx()] {
                    to_sink[u.idx()] = true;
                    stack.push(u);
                }
            }
        }
        let num_sinks = plan.ops().iter().filter(|o| o.kind.is_sink()).count();
        for op in plan.ops() {
            let i = op.id.idx();
            // Exactly one structural-reachability diagnostic per operator:
            // ZT108 when a branch was forked but never terminated in a
            // multi-sink plan (a distinct, easier-to-hit mistake than the
            // generic off-path case), ZT102 for everything else.
            let diag = match (from_source[i], to_sink[i]) {
                (true, true) => None,
                (true, false) if num_sinks >= 2 => {
                    let msg = if op.kind.is_source() {
                        format!(
                            "source feeds a branch that reaches none of the plan's {num_sinks} sinks (dangling branch)"
                        )
                    } else {
                        format!(
                            "{} operator is fed by a source but reaches none of the plan's {num_sinks} sinks (dangling branch)",
                            op.kind.label()
                        )
                    };
                    Some(Diagnostic::warning("ZT108", msg))
                }
                _ => Some(Diagnostic::warning(
                    "ZT102",
                    format!(
                        "{} operator is not on any source → sink path (unreachable work)",
                        op.kind.label()
                    ),
                )),
            };
            if let Some(d) = diag {
                out.push(d.at_op(op.id));
            }
        }
    }

    // Dataflow facts only exist on sealed plans: rate propagation walks the
    // IR's cached topological order.
    if let Some(ir) = &sealed {
        out.extend(crate::dataflow::lint_dataflow_plan(plan, ir));
    }

    out
}

/// Lint a wire-format sealed plan ([`zt_query::PlanIr::to_json`]
/// envelope): parse, fully re-seal (structure *and* parameter ranges —
/// wire plans are untrusted input and never bypass `validate()`), and
/// cross-check the embedded structural fingerprint.
///
/// On success returns the revalidated plan + IR together with the
/// ordinary [`lint_plan`] findings. On failure the plan is withheld and
/// the report carries exactly one error: **ZT109** for a fingerprint
/// mismatch (or a malformed fingerprint field), **ZT101** when the
/// envelope does not parse or the embedded plan fails revalidation.
pub fn lint_wire_plan(json: &str) -> (Option<(LogicalPlan, zt_query::PlanIr)>, Report) {
    match zt_query::PlanIr::from_json(json) {
        Ok((plan, ir)) => {
            let report = Report::new(lint_plan(&plan));
            (Some((plan, ir)), report)
        }
        Err(e) => {
            let code = match &e {
                zt_query::WireError::FingerprintMismatch { .. }
                | zt_query::WireError::BadFingerprint(_) => "ZT109",
                zt_query::WireError::Json(_) | zt_query::WireError::Plan(_) => "ZT101",
            };
            (
                None,
                Report::new(vec![Diagnostic::error(code, e.to_string())]),
            )
        }
    }
}

/// Lint a parallel query plan (includes [`lint_plan`] on the underlying
/// logical plan): parallel-configuration validity (ZT101), wasted hash
/// shuffles (ZT106), slot-capacity checks when a cluster is given (ZT105
/// error per operator, ZT107 oversubscription warning), and
/// deployment-level dataflow facts (ZT702 with a cluster, ZT703, ZT704).
pub fn lint_pqp(pqp: &ParallelQueryPlan, cluster: Option<&Cluster>) -> Vec<Diagnostic> {
    let mut out = lint_plan(&pqp.plan);
    let n = pqp.plan.num_ops();

    if pqp.parallelism.len() != n {
        out.push(Diagnostic::error(
            "ZT101",
            format!(
                "parallelism vector has {} entries for {n} operators",
                pqp.parallelism.len()
            ),
        ));
        return out; // everything below indexes parallelism per operator
    }

    for op in pqp.plan.ops() {
        if pqp.parallelism_of(op.id) == 0 {
            out.push(
                Diagnostic::error("ZT101", "operator has parallelism 0 (Eq. 1 requires P ≥ 1)")
                    .at_op(op.id),
            );
        }
    }

    // Parallel-configuration errors beyond the logical plan (forward
    // mismatch, missing hash). Only when the logical plan itself is sound
    // — pqp.validate() would just repeat the plan error otherwise.
    if pqp.plan.validate().is_ok() && pqp.partitioning.len() == pqp.plan.edges().len() {
        if let Err(e) = pqp.validate() {
            out.push(Diagnostic::error("ZT101", e.to_string()));
        }
    }

    // ZT106: hash partitioning into a parallelism-1 operator. The shuffle
    // pays serialization + network for a downstream that has exactly one
    // instance anyway.
    for (i, &(u, d)) in pqp.plan.edges().iter().enumerate() {
        if d.idx() >= n || u.idx() >= n {
            continue;
        }
        if pqp.partitioning.get(i) == Some(&Partitioning::Hash) && pqp.parallelism[d.idx()] == 1 {
            out.push(
                Diagnostic::warning(
                    "ZT106",
                    format!("hash partitioning {u} -> {d} into a parallelism-1 operator wastes a shuffle"),
                )
                .at_op(d),
            );
        }
    }

    if let Some(cluster) = cluster {
        let slots = cluster.total_cores() as u64;
        if slots == 0 {
            out.push(Diagnostic::error("ZT105", "cluster has no task slots"));
        } else {
            for op in pqp.plan.ops() {
                let p = pqp.parallelism_of(op.id) as u64;
                if p > slots {
                    out.push(
                        Diagnostic::error(
                            "ZT105",
                            format!("parallelism {p} exceeds the cluster's {slots} task slots"),
                        )
                        .at_op(op.id),
                    );
                }
            }
            let total = pqp.total_instances();
            if total > slots {
                out.push(Diagnostic::warning(
                    "ZT107",
                    format!(
                        "{total} parallel instances oversubscribe the cluster's {slots} task slots"
                    ),
                ));
            }
        }
    }

    // Deployment-level dataflow lints need a sealed IR and a coherent
    // parallel configuration; their codes are disjoint from the plan-level
    // ZT701/ZT705 already emitted by `lint_plan` above.
    if pqp.parallelism.iter().all(|&p| p >= 1) {
        if let Ok(ir) = pqp.plan.validate() {
            out.extend(crate::dataflow::lint_dataflow_pqp(pqp, &ir, cluster));
        }
    }

    out
}

// --- Feature lints (ZT2xx) -----------------------------------------------

fn node_feature_dim(kind: NodeKind) -> usize {
    match kind {
        NodeKind::Source => OP_COMMON_DIM + SOURCE_EXTRA_DIM,
        NodeKind::Filter => OP_COMMON_DIM + FILTER_EXTRA_DIM,
        NodeKind::Aggregate => OP_COMMON_DIM + AGG_EXTRA_DIM,
        NodeKind::Join => OP_COMMON_DIM + JOIN_EXTRA_DIM,
        NodeKind::Sink => OP_COMMON_DIM + SINK_EXTRA_DIM,
        NodeKind::Resource => RESOURCE_DIM,
    }
}

/// Lint one graph encoding: non-finite features (ZT201), features outside
/// the normalization ranges implied by `features.rs` (ZT202), structural
/// encoding defects (ZT204) and per-kind dimension mismatches (ZT205).
pub fn lint_graph(graph: &GraphEncoding) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = graph.nodes.len();
    let n_ops = graph.num_operator_nodes();

    for (i, node) in graph.nodes.iter().enumerate() {
        if node.features.len() != node_feature_dim(node.kind) {
            out.push(
                Diagnostic::error(
                    "ZT205",
                    format!(
                        "{:?} node has {} features, its encoder expects {}",
                        node.kind,
                        node.features.len(),
                        node_feature_dim(node.kind)
                    ),
                )
                .at(Anchor::Node(i)),
            );
        }
        for (j, &v) in node.features.iter().enumerate() {
            if !v.is_finite() {
                out.push(
                    Diagnostic::error(
                        "ZT201",
                        format!("{:?} feature {j} is non-finite ({v})", node.kind),
                    )
                    .at(Anchor::Node(i)),
                );
            } else if !(FEATURE_MIN..=FEATURE_MAX).contains(&v) {
                out.push(
                    Diagnostic::warning(
                        "ZT202",
                        format!(
                            "{:?} feature {j} = {v} outside the normalized range [{FEATURE_MIN}, {FEATURE_MAX}]",
                            node.kind
                        ),
                    )
                    .at(Anchor::Node(i)),
                );
            }
        }
    }

    // Structural checks mirroring (and exceeding) the encoder's
    // debug-asserts: out-of-bounds indices, sink not an operator node,
    // mapping weights outside [0, 1] or not summing to ~1 per operator.
    if graph.sink >= n_ops {
        out.push(Diagnostic::error(
            "ZT204",
            format!(
                "sink index {} is not an operator node (have {n_ops})",
                graph.sink
            ),
        ));
    }
    for &(u, d) in &graph.data_flow {
        if u >= n_ops || d >= n_ops {
            out.push(Diagnostic::error(
                "ZT204",
                format!("data-flow edge ({u}, {d}) references a non-operator node"),
            ));
        }
    }
    let mut op_weight = vec![0.0f64; n_ops];
    let mut mapping_ok = true;
    for &(r, o, w) in &graph.mapping {
        if r < n_ops || r >= n || o >= n_ops {
            out.push(Diagnostic::error(
                "ZT204",
                format!("mapping edge ({r}, {o}) must go resource -> operator"),
            ));
            mapping_ok = false;
            continue;
        }
        if !w.is_finite() || !(0.0..=1.0001).contains(&w) {
            out.push(
                Diagnostic::error("ZT204", format!("mapping weight {w} outside [0, 1]"))
                    .at(Anchor::Node(o)),
            );
            mapping_ok = false;
        }
        op_weight[o] += f64::from(w);
    }
    if mapping_ok && !graph.mapping.is_empty() {
        for (o, &total) in op_weight.iter().enumerate() {
            if total > 0.0 && (total - 1.0).abs() > 1e-3 {
                out.push(
                    Diagnostic::error(
                        "ZT204",
                        format!("operator's mapping weights sum to {total:.4}, expected 1"),
                    )
                    .at(Anchor::Node(o)),
                );
            }
        }
    }

    out
}

/// Batch-level feature lint (ZT203): a node kind whose *entire* feature
/// matrix is constant across the batch gives the encoder nothing to learn
/// from — the classic symptom of a featurization wired to the wrong
/// input. Needs at least [`ZT203_MIN_ROWS`] nodes of the kind to fire.
pub fn lint_graph_batch<'a, I>(graphs: I) -> Vec<Diagnostic>
where
    I: IntoIterator<Item = &'a GraphEncoding>,
{
    let mut rows: HashMap<NodeKind, Vec<&[f32]>> = HashMap::new();
    for g in graphs {
        for node in &g.nodes {
            rows.entry(node.kind).or_default().push(&node.features);
        }
    }
    let mut out = Vec::new();
    let mut kinds: Vec<NodeKind> = rows.keys().copied().collect();
    kinds.sort_by_key(|k| format!("{k:?}"));
    for kind in kinds {
        let rs = &rows[&kind];
        if rs.len() < ZT203_MIN_ROWS || rs[0].is_empty() {
            continue;
        }
        let dim = rs[0].len();
        if rs.iter().any(|r| r.len() != dim) {
            continue; // ZT205 territory, reported per graph
        }
        let all_constant =
            (0..dim).all(|c| rs.iter().all(|r| r[c].to_bits() == rs[0][c].to_bits()));
        if all_constant {
            out.push(Diagnostic::warning(
                "ZT203",
                format!(
                    "all {dim} features of {kind:?} nodes are constant across {} batch rows — the encoder cannot learn from them",
                    rs.len()
                ),
            ));
        }
    }
    out
}

/// Minimum per-kind node count before ZT203 (constant batch columns) can
/// fire.
pub const ZT203_MIN_ROWS: usize = 8;

// --- Dataset lints (ZT3xx) -----------------------------------------------

/// Z-score threshold (in log space) for the ZT304 label-outlier lint.
pub const ZT304_Z_THRESHOLD: f64 = 4.5;
/// Minimum sample count before ZT304 can fire.
pub const ZT304_MIN_SAMPLES: usize = 16;

fn sample_key(s: &Sample) -> u64 {
    let mut h = DefaultHasher::new();
    s.latency_ms.to_bits().hash(&mut h);
    s.throughput.to_bits().hash(&mut h);
    s.graph.data_flow.hash(&mut h);
    s.graph.sink.hash(&mut h);
    for node in &s.graph.nodes {
        std::mem::discriminant(&node.kind).hash(&mut h);
        for v in &node.features {
            v.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

/// Lint a dataset: label validity (ZT301), duplicates (ZT302), label
/// outliers (ZT304), degenerate label distributions (ZT305), plus the
/// per-graph feature lints (ZT201/202/204/205) and the batch-level
/// constant-column lint (ZT203) over all sample encodings.
pub fn lint_dataset(data: &Dataset) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    for (i, s) in data.samples.iter().enumerate() {
        for (label, value) in [("latency", s.latency_ms), ("throughput", s.throughput)] {
            if !value.is_finite() || value <= 0.0 {
                out.push(
                    Diagnostic::error(
                        "ZT301",
                        format!("{label} label {value} must be positive and finite"),
                    )
                    .at(Anchor::Sample(i)),
                );
            }
        }
        for d in lint_graph(&s.graph) {
            // re-anchor graph findings to the offending sample
            out.push(Diagnostic {
                message: match &d.anchor {
                    Some(a) => format!("{} ({a})", d.message),
                    None => d.message.clone(),
                },
                anchor: Some(Anchor::Sample(i)),
                ..d
            });
        }
    }

    // ZT302: duplicates (identical encoding and labels).
    let mut seen: HashMap<u64, usize> = HashMap::new();
    for (i, s) in data.samples.iter().enumerate() {
        match seen.entry(sample_key(s)) {
            std::collections::hash_map::Entry::Occupied(first) => {
                out.push(
                    Diagnostic::warning(
                        "ZT302",
                        format!(
                            "duplicate of sample {} (identical encoding and labels)",
                            first.get()
                        ),
                    )
                    .at(Anchor::Sample(i)),
                );
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(i);
            }
        }
    }

    // Label-distribution lints on the finite positive labels only.
    let finite: Vec<(usize, f64, f64)> = data
        .samples
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.latency_ms.is_finite()
                && s.latency_ms > 0.0
                && s.throughput.is_finite()
                && s.throughput > 0.0
        })
        .map(|(i, s)| (i, s.latency_ms.ln(), s.throughput.ln()))
        .collect();

    for (name, pick) in [("latency", 1usize), ("throughput", 2usize)] {
        let values: Vec<f64> = finite
            .iter()
            .map(|t| if pick == 1 { t.1 } else { t.2 })
            .collect();
        if values.len() >= 2 {
            let n = values.len() as f64;
            let mean = values.iter().sum::<f64>() / n;
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
            let std = var.sqrt();
            if std == 0.0 {
                out.push(Diagnostic::warning(
                    "ZT305",
                    format!(
                        "all {} {name} labels are identical ({:.4}) — nothing to learn",
                        values.len(),
                        values[0].exp()
                    ),
                ));
            } else if values.len() >= ZT304_MIN_SAMPLES {
                for (k, v) in values.iter().enumerate() {
                    let z = (v - mean) / std;
                    if z.abs() > ZT304_Z_THRESHOLD {
                        out.push(
                            Diagnostic::warning(
                                "ZT304",
                                format!(
                                    "{name} label {:.4} is a log-space outlier (z = {z:.1})",
                                    v.exp()
                                ),
                            )
                            .at(Anchor::Sample(finite[k].0)),
                        );
                    }
                }
            }
        }
    }

    out.extend(lint_graph_batch(data.samples.iter().map(|s| &s.graph)));
    out
}

/// Lint a train/test split for zero-shot structure leakage (ZT303): a
/// test sample marked `seen_structure == false` whose
/// [`SampleMeta::structure`](crate::dataset::SampleMeta) also appears in
/// the training set is not an unseen structure at all — the headline
/// zero-shot numbers would be inflated.
pub fn lint_split(train: &Dataset, test: &Dataset) -> Vec<Diagnostic> {
    let train_structures: HashSet<&str> = train
        .samples
        .iter()
        .map(|s| s.meta.structure.as_str())
        .collect();
    let mut reported: HashSet<&str> = HashSet::new();
    let mut out = Vec::new();
    for s in &test.samples {
        if !s.meta.seen_structure
            && train_structures.contains(s.meta.structure.as_str())
            && reported.insert(s.meta.structure.as_str())
        {
            let n = train
                .samples
                .iter()
                .filter(|t| t.meta.structure == s.meta.structure)
                .count();
            out.push(Diagnostic::warning(
                "ZT303",
                format!(
                    "test structure `{}` is marked unseen but appears {n} time(s) in the training set (zero-shot evaluation is leaked)",
                    s.meta.structure
                ),
            ));
        }
    }
    out
}

// --- Model lints (ZT4xx) -------------------------------------------------

/// Absolute-weight threshold for the ZT405 exploding-weight lint.
pub const ZT405_MAX_ABS_WEIGHT: f32 = 100.0;

/// Structural lint (ZT407): every module's layer shape metadata must
/// agree with the matrices actually stored for it — weight shape
/// `(in_dim, out_dim)`, bias shape `(1, out_dim)`, and a consistent
/// layer-to-layer width chain. A deserialized model that violates this
/// would misalign (or panic) inside the matmul kernel, so the checked
/// inference paths and the certifier both refuse to touch such a model.
/// Shape metadata only — no weight data is scanned.
pub fn lint_model_structure(model: &ZeroTuneModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (name, mlp) in model.modules() {
        if mlp.layers.is_empty() {
            out.push(
                Diagnostic::error("ZT407", "module has no layers").at(Anchor::Param(name.clone())),
            );
            continue;
        }
        let mut width: Option<usize> = None;
        for (i, layer) in mlp.layers.iter().enumerate() {
            let w = model.store.value(layer.w);
            let b = model.store.value(layer.b);
            if w.shape() != (layer.in_dim, layer.out_dim) {
                out.push(
                    Diagnostic::error(
                        "ZT407",
                        format!(
                            "layer {i} declares {}x{} but stores a {}x{} weight matrix",
                            layer.in_dim, layer.out_dim, w.rows, w.cols
                        ),
                    )
                    .at(Anchor::Param(name.clone())),
                );
            }
            if b.shape() != (1, w.cols) {
                out.push(
                    Diagnostic::error(
                        "ZT407",
                        format!(
                            "layer {i} bias is {}x{}, expected 1x{}",
                            b.rows, b.cols, w.cols
                        ),
                    )
                    .at(Anchor::Param(name.clone())),
                );
            }
            if let Some(prev) = width {
                if prev != w.rows {
                    out.push(
                        Diagnostic::error(
                            "ZT407",
                            format!(
                                "layer {i} expects width {} but layer {} produces {prev}",
                                w.rows,
                                i - 1
                            ),
                        )
                        .at(Anchor::Param(name.clone())),
                    );
                }
            }
            width = Some(w.cols);
        }
    }
    out
}

/// Lint a model's weights and normalization: shape consistency (ZT407),
/// non-finite weights (ZT401), dead ReLU units (ZT402), default
/// normalization (ZT404) and exploding weights (ZT405).
pub fn lint_model(model: &ZeroTuneModel) -> Vec<Diagnostic> {
    let mut out = lint_model_structure(model);
    if !out.is_empty() {
        // The per-layer weight lints below index matrices through the
        // very metadata ZT407 just proved wrong; stop here.
        return out;
    }

    for id in model.store.ids() {
        let m = model.store.value(id);
        let non_finite = m.data.iter().filter(|v| !v.is_finite()).count();
        if non_finite > 0 {
            out.push(
                Diagnostic::error(
                    "ZT401",
                    format!("{non_finite} of {} weights are non-finite", m.data.len()),
                )
                .at(Anchor::Param(model.store.name(id).to_string())),
            );
            continue;
        }
        let max_abs = m.data.iter().fold(0.0f32, |a, v| a.max(v.abs()));
        if max_abs > ZT405_MAX_ABS_WEIGHT {
            out.push(
                Diagnostic::warning(
                    "ZT405",
                    format!("max |weight| = {max_abs:.1} exceeds {ZT405_MAX_ABS_WEIGHT} (exploding weights)"),
                )
                .at(Anchor::Param(model.store.name(id).to_string())),
            );
        }
    }

    // ZT402: dead ReLU units. For every hidden layer (ReLU follows), a
    // unit whose incoming column is all-nonpositive with a nonpositive
    // bias can only output 0 on the nonnegative activations that feed it.
    for (name, mlp) in model.modules() {
        let last = mlp.layers.len().saturating_sub(1);
        let mut dead = 0usize;
        let mut total = 0usize;
        for layer in &mlp.layers[..last] {
            let w = model.store.value(layer.w);
            let b = model.store.value(layer.b);
            if w.data.iter().any(|v| !v.is_finite()) {
                continue; // ZT401 already fired
            }
            total += layer.out_dim;
            for j in 0..layer.out_dim {
                let col_dead = (0..layer.in_dim).all(|r| w.data[r * layer.out_dim + j] <= 0.0);
                if col_dead && b.data[j] <= 0.0 {
                    dead += 1;
                }
            }
        }
        if dead > 0 {
            out.push(
                Diagnostic::warning(
                    "ZT402",
                    format!("{dead} of {total} hidden units have all-nonpositive incoming weights and bias (dead ReLU)"),
                )
                .at(Anchor::Param(name)),
            );
        }
    }

    let default = TargetNorm::default();
    if model.norm.mean == default.mean && model.norm.std == default.std {
        out.push(Diagnostic::info(
            "ZT404",
            "target normalization is the default identity — the model looks unfitted",
        ));
    }

    out
}

/// Ratio bound on fitted-vs-model std for the ZT403 drift lint.
pub const ZT403_STD_RATIO: f32 = 2.0;
/// Mean-shift bound (in label log units) for the ZT403 drift lint.
pub const ZT403_MEAN_SHIFT: f32 = 1.0;

/// Lint a model *against* a dataset: everything [`lint_model`] reports,
/// plus ZT403 when the model's [`TargetNorm`] drifts from the dataset's
/// label statistics (predictions would be denormalized into the wrong
/// decade).
pub fn lint_model_against(model: &ZeroTuneModel, data: &Dataset) -> Vec<Diagnostic> {
    let mut out = lint_model(model);
    if data.is_empty() {
        return out;
    }
    let fitted = TargetNorm::fit(data.labels());
    for (k, name) in [(0usize, "latency"), (1usize, "throughput")] {
        let mean_shift = (model.norm.mean[k] - fitted.mean[k]).abs();
        let ratio = {
            let a = model.norm.std[k].max(1e-6);
            let b = fitted.std[k].max(1e-6);
            (a / b).max(b / a)
        };
        if mean_shift > ZT403_MEAN_SHIFT || ratio > ZT403_STD_RATIO {
            out.push(Diagnostic::warning(
                "ZT403",
                format!(
                    "{name} normalization (mean {:.2}, std {:.2}) drifts from this dataset's label statistics (mean {:.2}, std {:.2})",
                    model.norm.mean[k], model.norm.std[k], fitted.mean[k], fitted.std[k]
                ),
            ));
        }
    }
    out
}

// --- Bounds lints (ZT5xx) ------------------------------------------------

/// Multiplicative slack applied before flagging a prediction against a
/// provable bound (ZT501/ZT502). The simulator labels carry lognormal
/// measurement noise (σ ≈ 0.08–0.11 in log space), so a prediction can
/// legitimately sit a little outside the *noiseless* bracket; 1.5× is
/// ≈ 4σ — anything beyond it contradicts queueing physics, not noise.
pub const BOUNDS_PREDICTION_SLACK: f64 = 1.5;

/// Lint a [`BoundsReport`](crate::bounds::BoundsReport) on its own:
/// interval well-formedness (ZT504) and provable infeasibility of the
/// analyzed deployment (ZT503).
///
/// ZT503 is an `Error` here — deploying a plan whose utilization *lower*
/// bound is ≥ 1 guarantees backpressure collapse. The optimizer's strict
/// cross-check downgrades it to a warning when every candidate is
/// infeasible (the tuner still has to pick the least-bad deployment).
pub fn lint_bounds_report(report: &crate::bounds::BoundsReport) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut bad_interval = |what: String, iv: crate::bounds::Interval, anchor: Option<Anchor>| {
        if !iv.is_wellformed() {
            let mut d = Diagnostic::error(
                "ZT504",
                format!(
                    "{what} interval [{}, {}] is vacuous or inverted",
                    iv.lo, iv.hi
                ),
            );
            if let Some(a) = anchor {
                d = d.at(a);
            }
            out.push(d);
        }
    };
    for (name, iv) in report.headline_intervals() {
        bad_interval(name.to_string(), iv, None);
    }
    for (i, op) in report.per_op.iter().enumerate() {
        let anchor = Anchor::Op(OpId(u32::try_from(i).unwrap_or(u32::MAX)));
        for (name, iv) in [
            ("input_rate", op.input_rate),
            ("output_rate", op.output_rate),
            ("work_us", op.work_us),
            ("utilization", op.utilization),
            ("sojourn_ms", op.sojourn_ms),
            ("residence_ms", op.residence_ms),
        ] {
            bad_interval(format!("per-op {name}"), iv, Some(anchor.clone()));
        }
    }
    if report.infeasible() {
        out.push(Diagnostic::error(
            "ZT503",
            format!(
                "deployed plan is provably infeasible: utilization lower bound {:.3} >= 1 at \
                 offered rate {:.0}/s — guaranteed backpressure collapse",
                report.utilization.lo, report.offered_rate
            ),
        ));
    }
    out
}

/// Cross-check a model prediction against the provable brackets: ZT501
/// when the predicted latency sits below the latency lower bound and
/// ZT502 when the predicted throughput exceeds the throughput upper
/// bound, each beyond [`BOUNDS_PREDICTION_SLACK`].
///
/// Both are warnings: the model is wrong, but the tuner can still rank
/// candidates with it — the findings tell the operator the model is
/// extrapolating outside its trained envelope.
pub fn lint_prediction_bounds(
    report: &crate::bounds::BoundsReport,
    prediction: &crate::estimator::CostPrediction,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if prediction.latency_ms * BOUNDS_PREDICTION_SLACK < report.latency_ms.lo {
        out.push(Diagnostic::warning(
            "ZT501",
            format!(
                "predicted latency {:.3} ms is below the provable lower bound {:.3} ms \
                 (beyond the {BOUNDS_PREDICTION_SLACK}x noise slack) — the model contradicts \
                 queueing physics",
                prediction.latency_ms, report.latency_ms.lo
            ),
        ));
    }
    if prediction.throughput > report.throughput.hi * BOUNDS_PREDICTION_SLACK {
        out.push(Diagnostic::warning(
            "ZT502",
            format!(
                "predicted throughput {:.0}/s exceeds the provable upper bound {:.0}/s \
                 (the offered source rate, beyond the {BOUNDS_PREDICTION_SLACK}x noise slack)",
                prediction.throughput, report.throughput.hi
            ),
        ));
    }
    out
}

// --- Pre-flight bundles --------------------------------------------------

/// Pre-flight for `train`: dataset lints plus model lints (normalization
/// drift is skipped when the trainer is about to refit the norm anyway).
pub fn preflight_train(model: &ZeroTuneModel, data: &Dataset, refit_norm: bool) -> Report {
    let mut diags = lint_dataset(data);
    if refit_norm {
        diags.extend(lint_model(model));
        // ZT404 is expected before a first fit — drop the noise.
        diags.retain(|d| d.code != "ZT404");
    } else {
        diags.extend(lint_model_against(model, data));
    }
    Report::new(diags)
}

/// Pre-flight for `tune`: plan lints plus cluster-capacity sanity on the
/// trivial all-ones deployment (candidate enumeration clamps to the slot
/// count, so only the plan and the cluster itself can be wrong).
pub fn preflight_tune(plan: &LogicalPlan, cluster: &Cluster) -> Report {
    let mut diags = lint_plan(plan);
    if cluster.total_cores() == 0 {
        diags.push(Diagnostic::error("ZT105", "cluster has no task slots"));
    }
    Report::new(diags)
}

/// Pre-flight for one generated sample: the deployed plan against its
/// cluster, the encoding, and the labels it was assigned.
pub fn preflight_sample(pqp: &ParallelQueryPlan, cluster: &Cluster, sample: &Sample) -> Report {
    let mut diags = lint_pqp(pqp, Some(cluster));
    diags.extend(lint_graph(&sample.graph));
    for (label, value) in [
        ("latency", sample.latency_ms),
        ("throughput", sample.throughput),
    ] {
        if !value.is_finite() || value <= 0.0 {
            diags.push(Diagnostic::error(
                "ZT301",
                format!("simulated {label} label {value} must be positive and finite"),
            ));
        }
    }
    Report::new(diags)
}
