//! The ZeroTune GNN (Section III-C, Fig. 4 of the paper).
//!
//! Architecture:
//!
//! * one **encoder MLP per node type** embeds the node's transferable
//!   feature vector into a shared hidden space (step ② of Fig. 4);
//! * three **message-passing phases** update hidden states with
//!   type-specific combine MLPs: physical edges between resources,
//!   operator-resource mapping edges (weighted by instance share), and
//!   finally the data-flow edges walked bottom-up to the sink (step ③);
//! * a **read-out MLP** on the sink's hidden state predicts normalized
//!   `[log latency, log throughput]` (step ④). Both cost metrics share the
//!   trunk, as the paper's final MLP node does; fine-tuning for other
//!   metrics only needs to replace this head.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use zt_nn::infer::{concat_pair, mean_of, relu_inplace, weighted_sum_of};
use zt_nn::{Matrix, Mlp, ParamStore, Scratch, Tape, Var};

use crate::diagnostics::Diagnostic;
use crate::estimator::{CostEstimator, CostPrediction};
use crate::features::{
    AGG_EXTRA_DIM, FILTER_EXTRA_DIM, JOIN_EXTRA_DIM, OP_COMMON_DIM, RESOURCE_DIM, SINK_EXTRA_DIM,
    SOURCE_EXTRA_DIM,
};
use crate::graph::{GraphEncoding, NodeKind};

/// Hyper-parameters of the GNN.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Hidden-state width shared by all node types.
    pub hidden: usize,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            hidden: 48,
            seed: 0x5EED,
        }
    }
}

/// Z-normalization of the two log-scaled targets.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TargetNorm {
    pub mean: [f32; 2],
    pub std: [f32; 2],
}

impl Default for TargetNorm {
    fn default() -> Self {
        TargetNorm {
            mean: [0.0, 0.0],
            std: [1.0, 1.0],
        }
    }
}

impl TargetNorm {
    /// Fit mean/std of `[ln latency, ln throughput]` over the training
    /// labels.
    pub fn fit<I: IntoIterator<Item = (f64, f64)>>(labels: I) -> Self {
        let logs: Vec<[f64; 2]> = labels
            .into_iter()
            .map(|(l, t)| [l.max(1e-9).ln(), t.max(1e-9).ln()])
            .collect();
        if logs.is_empty() {
            return TargetNorm::default();
        }
        let n = logs.len() as f64;
        let mut mean = [0f64; 2];
        for l in &logs {
            mean[0] += l[0];
            mean[1] += l[1];
        }
        mean[0] /= n;
        mean[1] /= n;
        let mut var = [0f64; 2];
        for l in &logs {
            var[0] += (l[0] - mean[0]).powi(2);
            var[1] += (l[1] - mean[1]).powi(2);
        }
        let std = [(var[0] / n).sqrt().max(1e-6), (var[1] / n).sqrt().max(1e-6)];
        TargetNorm {
            mean: [mean[0] as f32, mean[1] as f32],
            std: [std[0] as f32, std[1] as f32],
        }
    }

    /// `(latency_ms, throughput)` → normalized target vector.
    pub fn normalize(&self, latency_ms: f64, throughput: f64) -> [f32; 2] {
        [
            ((latency_ms.max(1e-9).ln() as f32) - self.mean[0]) / self.std[0],
            ((throughput.max(1e-9).ln() as f32) - self.mean[1]) / self.std[1],
        ]
    }

    /// Normalized model output → `(latency_ms, throughput)`.
    pub fn denormalize(&self, out: [f32; 2]) -> (f64, f64) {
        (
            ((out[0] * self.std[0] + self.mean[0]) as f64).exp(),
            ((out[1] * self.std[1] + self.mean[1]) as f64).exp(),
        )
    }
}

/// The zero-shot cost model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ZeroTuneModel {
    pub config: ModelConfig,
    pub store: ParamStore,
    /// Encoders indexed by [`NodeKind`] position in [`NodeKind::ALL`].
    encoders: Vec<Mlp>,
    upd_physical: Mlp,
    upd_mapping: Mlp,
    upd_dataflow: Mlp,
    readout_latency: Mlp,
    readout_throughput: Mlp,
    pub norm: TargetNorm,
}

pub(crate) fn kind_index(kind: NodeKind) -> usize {
    NodeKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("kind in ALL")
}

pub(crate) fn kind_feature_dim(kind: NodeKind) -> usize {
    match kind {
        NodeKind::Source => OP_COMMON_DIM + SOURCE_EXTRA_DIM,
        NodeKind::Filter => OP_COMMON_DIM + FILTER_EXTRA_DIM,
        NodeKind::Aggregate => OP_COMMON_DIM + AGG_EXTRA_DIM,
        NodeKind::Join => OP_COMMON_DIM + JOIN_EXTRA_DIM,
        NodeKind::Sink => OP_COMMON_DIM + SINK_EXTRA_DIM,
        NodeKind::Resource => RESOURCE_DIM,
    }
}

impl ZeroTuneModel {
    pub fn new(config: ModelConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let h = config.hidden;
        let encoders = NodeKind::ALL
            .iter()
            .map(|&k| {
                Mlp::new(
                    &mut store,
                    &format!("enc.{k:?}"),
                    &[kind_feature_dim(k), h, h],
                    &mut rng,
                )
            })
            .collect();
        let upd_physical = Mlp::new(&mut store, "upd.physical", &[2 * h, h, h], &mut rng);
        let upd_mapping = Mlp::new(&mut store, "upd.mapping", &[2 * h, h, h], &mut rng);
        let upd_dataflow = Mlp::new(&mut store, "upd.dataflow", &[2 * h, h, h], &mut rng);
        // Two read-out heads sharing the message-passing trunk (the
        // paper's final MLP node, one output per cost metric): the
        // latency head reads the sink's hidden state; the throughput head
        // additionally sees a source-context skip (mean of the encoded
        // source nodes), anchoring throughput to the offered rates no
        // matter how deep the plan is.
        let readout_latency = Mlp::new(&mut store, "readout.latency", &[h, h, 1], &mut rng);
        let readout_throughput =
            Mlp::new(&mut store, "readout.throughput", &[2 * h, h, 1], &mut rng);
        ZeroTuneModel {
            config,
            store,
            encoders,
            upd_physical,
            upd_mapping,
            upd_dataflow,
            readout_latency,
            readout_throughput,
            norm: TargetNorm::default(),
        }
    }

    /// Total trainable weights.
    pub fn num_weights(&self) -> usize {
        self.store.num_weights()
    }

    /// Parameter ids of the read-out and message-combine MLPs — the set
    /// updated during few-shot fine-tuning (encoders stay frozen).
    pub fn head_param_ids(&self) -> Vec<zt_nn::ParamId> {
        let mut ids = self.readout_latency.param_ids();
        ids.extend(self.readout_throughput.param_ids());
        ids.extend(self.upd_dataflow.param_ids());
        ids.extend(self.upd_mapping.param_ids());
        ids
    }

    /// All named MLP modules — per-kind encoders, the three
    /// message-combine networks and the two read-out heads. This is the
    /// traversal surface for the diagnostics weight lints (dead-ReLU
    /// detection needs layer structure, not just the flat parameter
    /// store).
    pub fn modules(&self) -> Vec<(String, &Mlp)> {
        let mut out: Vec<(String, &Mlp)> = NodeKind::ALL
            .iter()
            .map(|&k| (format!("enc.{k:?}"), &self.encoders[kind_index(k)]))
            .collect();
        out.push(("upd.physical".to_string(), &self.upd_physical));
        out.push(("upd.mapping".to_string(), &self.upd_mapping));
        out.push(("upd.dataflow".to_string(), &self.upd_dataflow));
        out.push(("readout.latency".to_string(), &self.readout_latency));
        out.push(("readout.throughput".to_string(), &self.readout_throughput));
        out
    }

    /// The encoder MLP for a node kind (certification needs per-module
    /// access with the kind still attached, which [`ZeroTuneModel::modules`]
    /// erases into a display name).
    pub(crate) fn encoder(&self, kind: NodeKind) -> &Mlp {
        &self.encoders[kind_index(kind)]
    }

    /// The three message-combine MLPs `(physical, mapping, dataflow)`.
    pub(crate) fn update_mlps(&self) -> (&Mlp, &Mlp, &Mlp) {
        (&self.upd_physical, &self.upd_mapping, &self.upd_dataflow)
    }

    /// The two read-out heads `(latency, throughput)`.
    pub(crate) fn readout_mlps(&self) -> (&Mlp, &Mlp) {
        (&self.readout_latency, &self.readout_throughput)
    }

    /// Build the forward graph on `tape`; returns the 1×2 normalized
    /// prediction node.
    pub fn forward(&self, tape: &mut Tape, graph: &GraphEncoding) -> Var {
        let n = graph.nodes.len();

        // Step ②: encode every node with its type's MLP.
        let mut h: Vec<Var> = Vec::with_capacity(n);
        for node in &graph.nodes {
            let x = tape.leaf_row(&node.features);
            let enc = &self.encoders[kind_index(node.kind)];
            debug_assert_eq!(enc.in_dim(), node.features.len());
            let e = enc.forward(tape, &self.store, x);
            h.push(tape.relu(e));
        }

        // Phase 1: physical edges among resources (synchronous update).
        // All phases use residual updates (h ← h + U(h ‖ msg)): residuals
        // keep hidden states stable when the message-passing depth at
        // inference exceeds the depths seen in training (e.g. 6-way joins
        // after training on 2-/3-way joins).
        if !graph.physical.is_empty() {
            let mut incoming: Vec<Vec<Var>> = vec![Vec::new(); n];
            for &(a, b) in &graph.physical {
                incoming[b].push(h[a]);
            }
            let snapshot = h.clone();
            for (i, inc) in incoming.iter().enumerate() {
                if inc.is_empty() {
                    continue;
                }
                let msg = tape.mean_vars(inc);
                let cat = tape.concat_cols(&[snapshot[i], msg]);
                let upd = self.upd_physical.forward(tape, &self.store, cat);
                h[i] = tape.add(snapshot[i], upd);
            }
        }

        // Phase 2: operator-resource mapping (instance-share weighted).
        {
            let mut per_op: Vec<Vec<(Var, f32)>> = vec![Vec::new(); n];
            for &(res, op, w) in &graph.mapping {
                per_op[op].push((h[res], w));
            }
            let snapshot = h.clone();
            for (op, terms) in per_op.iter().enumerate() {
                if terms.is_empty() {
                    continue;
                }
                let msg = tape.weighted_sum(terms);
                let cat = tape.concat_cols(&[snapshot[op], msg]);
                let upd = self.upd_mapping.forward(tape, &self.store, cat);
                h[op] = tape.add(snapshot[op], upd);
            }
        }

        // Phase 3: bottom-up data-flow pass toward the sink.
        for &node in &graph.topo {
            let upstream: Vec<Var> = graph
                .data_flow
                .iter()
                .filter(|&&(_, d)| d == node)
                .map(|&(u, _)| h[u])
                .collect();
            if upstream.is_empty() {
                continue;
            }
            let msg = tape.mean_vars(&upstream);
            let cat = tape.concat_cols(&[h[node], msg]);
            let upd = self.upd_dataflow.forward(tape, &self.store, cat);
            h[node] = tape.add(h[node], upd);
        }

        // Step ④: read out at the sink. Latency from the sink state;
        // throughput additionally from the source-context skip.
        let source_states: Vec<Var> = graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| node.kind == NodeKind::Source)
            .map(|(i, _)| h[i])
            .collect();
        let context = if source_states.is_empty() {
            h[graph.sink]
        } else {
            tape.mean_vars(&source_states)
        };
        let lat = self
            .readout_latency
            .forward(tape, &self.store, h[graph.sink]);
        let tpt_in = tape.concat_cols(&[h[graph.sink], context]);
        let tpt = self.readout_throughput.forward(tape, &self.store, tpt_in);
        tape.concat_cols(&[lat, tpt])
    }

    /// Tapeless forward pass: the same three message-passing phases as
    /// [`ZeroTuneModel::forward`], computed directly on [`Matrix`] values
    /// from a reusable [`Scratch`] arena — no tape nodes, no weight
    /// clones, and (after warm-up) no allocation. Every aggregation
    /// mirrors the corresponding tape op's accumulation order, so the
    /// normalized outputs match the taped forward bit for bit.
    pub fn forward_infer(&self, graph: &GraphEncoding, scratch: &mut Scratch) -> [f32; 2] {
        let n = graph.nodes.len();

        // Step ②: encode every node with its type's MLP.
        let mut h: Vec<Matrix> = Vec::with_capacity(n);
        for node in &graph.nodes {
            let x = scratch.row_of(&node.features);
            let enc = &self.encoders[kind_index(node.kind)];
            debug_assert_eq!(enc.in_dim(), node.features.len());
            let mut e = enc.infer(&self.store, &x, scratch);
            relu_inplace(&mut e);
            scratch.recycle(x);
            h.push(e);
        }

        // Phase 1: physical edges among resources (synchronous update —
        // all messages read the pre-phase states, so new states are
        // staged and swapped in afterwards).
        let mut staged: Vec<(usize, Matrix)> = Vec::new();
        if !graph.physical.is_empty() {
            let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); n];
            for &(a, b) in &graph.physical {
                incoming[b].push(a);
            }
            for (i, inc) in incoming.iter().enumerate() {
                if inc.is_empty() {
                    continue;
                }
                let msg = mean_of(&h, inc, scratch);
                let cat = concat_pair(&h[i], &msg, scratch);
                scratch.recycle(msg);
                let upd = self.upd_physical.infer(&self.store, &cat, scratch);
                scratch.recycle(cat);
                let mut next = scratch.copy_of(&h[i]);
                next.add_assign(&upd);
                scratch.recycle(upd);
                staged.push((i, next));
            }
            for (i, next) in staged.drain(..) {
                scratch.recycle(std::mem::replace(&mut h[i], next));
            }
        }

        // Phase 2: operator-resource mapping (instance-share weighted,
        // also synchronous).
        {
            let mut per_op: Vec<Vec<(usize, f32)>> = vec![Vec::new(); n];
            for &(res, op, w) in &graph.mapping {
                per_op[op].push((res, w));
            }
            for (op, terms) in per_op.iter().enumerate() {
                if terms.is_empty() {
                    continue;
                }
                let msg = weighted_sum_of(&h, terms, scratch);
                let cat = concat_pair(&h[op], &msg, scratch);
                scratch.recycle(msg);
                let upd = self.upd_mapping.infer(&self.store, &cat, scratch);
                scratch.recycle(cat);
                let mut next = scratch.copy_of(&h[op]);
                next.add_assign(&upd);
                scratch.recycle(upd);
                staged.push((op, next));
            }
            for (op, next) in staged.drain(..) {
                scratch.recycle(std::mem::replace(&mut h[op], next));
            }
        }

        // Phase 3: bottom-up data-flow pass toward the sink (sequential in
        // topological order: downstream nodes see already-updated
        // upstream states, exactly like the taped pass).
        let mut upstream: Vec<usize> = Vec::new();
        for &node in &graph.topo {
            upstream.clear();
            upstream.extend(
                graph
                    .data_flow
                    .iter()
                    .filter(|&&(_, d)| d == node)
                    .map(|&(u, _)| u),
            );
            if upstream.is_empty() {
                continue;
            }
            let msg = mean_of(&h, &upstream, scratch);
            let cat = concat_pair(&h[node], &msg, scratch);
            scratch.recycle(msg);
            let upd = self.upd_dataflow.infer(&self.store, &cat, scratch);
            scratch.recycle(cat);
            h[node].add_assign(&upd);
            scratch.recycle(upd);
        }

        // Step ④: read out at the sink.
        let sources: Vec<usize> = graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| node.kind == NodeKind::Source)
            .map(|(i, _)| i)
            .collect();
        let context = if sources.is_empty() {
            scratch.copy_of(&h[graph.sink])
        } else {
            mean_of(&h, &sources, scratch)
        };
        let lat = self
            .readout_latency
            .infer(&self.store, &h[graph.sink], scratch);
        let tpt_in = concat_pair(&h[graph.sink], &context, scratch);
        scratch.recycle(context);
        let tpt = self.readout_throughput.infer(&self.store, &tpt_in, scratch);
        scratch.recycle(tpt_in);
        let out = [lat.data[0], tpt.data[0]];
        scratch.recycle(lat);
        scratch.recycle(tpt);
        for m in h {
            scratch.recycle(m);
        }
        out
    }

    /// Predict with an explicit scratch arena (the batched/threaded entry
    /// points each own one so repeated calls never allocate).
    pub fn predict_with(&self, graph: &GraphEncoding, scratch: &mut Scratch) -> CostPrediction {
        let raw = self.forward_infer(graph, scratch);
        debug_assert!(
            raw.iter().all(|v| v.is_finite()),
            "non-finite model prediction {raw:?}; run diagnostics::lint_model"
        );
        self.norm.denormalize(raw).into()
    }

    /// Width-guarded [`ZeroTuneModel::forward_infer`]: validates the
    /// stored weight shapes (a deserialized model whose layer metadata
    /// lies about its matrices would otherwise misalign or panic inside
    /// the matmul kernel — ZT407) and every node's feature width against
    /// its encoder (ZT205) *before* running the forward pass. Both checks
    /// compare shape metadata only, so the guard costs nanoseconds per
    /// call.
    pub fn forward_infer_checked(
        &self,
        graph: &GraphEncoding,
        scratch: &mut Scratch,
    ) -> Result<[f32; 2], Diagnostic> {
        if let Some(d) = crate::diagnostics::lint_model_structure(self)
            .into_iter()
            .next()
        {
            return Err(d);
        }
        for (i, node) in graph.nodes.iter().enumerate() {
            let enc = &self.encoders[kind_index(node.kind)];
            let expected = self.store.value(enc.layers[0].w).rows;
            if node.features.len() != expected {
                return Err(Diagnostic::error(
                    "ZT205",
                    format!(
                        "{:?} node {i} has {} features, its encoder expects {expected}",
                        node.kind,
                        node.features.len()
                    ),
                ));
            }
        }
        Ok(self.forward_infer(graph, scratch))
    }

    /// Like [`ZeroTuneModel::predict_with`], but routed through
    /// [`ZeroTuneModel::forward_infer_checked`] (ZT205/ZT407 width guards)
    /// and surfacing a non-finite prediction as a ZT406 [`Diagnostic`]
    /// instead of silently propagating NaN costs into the optimizer's
    /// Eq. 1 objective.
    pub fn predict_checked(&self, graph: &GraphEncoding) -> Result<CostPrediction, Diagnostic> {
        let raw = SCRATCH.with(|s| self.forward_infer_checked(graph, &mut s.borrow_mut()))?;
        if raw.iter().all(|v| v.is_finite()) {
            Ok(self.norm.denormalize(raw).into())
        } else {
            Err(Diagnostic::error(
                "ZT406",
                format!(
                    "model produced a non-finite prediction [{}, {}] — weights are likely corrupted (run lint_model)",
                    raw[0], raw[1]
                ),
            ))
        }
    }

    /// Serialize the model (weights + normalization) to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serializes")
    }

    /// Load a model back from [`ZeroTuneModel::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

thread_local! {
    /// Per-thread scratch arena for [`CostEstimator::predict`]: the trait
    /// method takes `&self`, so the reusable buffers live thread-locally —
    /// repeated single predictions allocate nothing after warm-up and the
    /// model stays `Sync`.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

impl CostEstimator for ZeroTuneModel {
    fn name(&self) -> &'static str {
        "ZeroTune"
    }

    fn predict(&self, graph: &GraphEncoding) -> CostPrediction {
        SCRATCH.with(|s| self.predict_with(graph, &mut s.borrow_mut()))
    }

    /// Evaluate a candidate batch, fanning the chunks out over scoped
    /// threads (each with its own scratch arena). Falls back to a serial
    /// loop on single-core hosts or tiny batches.
    fn predict_batch(&self, graphs: &[GraphEncoding]) -> Vec<CostPrediction> {
        let _span = zt_telemetry::span_arg("predict.batch", || graphs.len().to_string());
        zt_telemetry::counter_add("predict.graphs", graphs.len() as u64);
        let batch_start = std::time::Instant::now();
        let workers = std::thread::available_parallelism()
            .map_or(1, std::num::NonZero::get)
            .min(graphs.len());
        let out: Vec<CostPrediction> = if workers <= 1 {
            let mut scratch = Scratch::new();
            graphs
                .iter()
                .map(|g| self.predict_with(g, &mut scratch))
                .collect()
        } else {
            let chunk = graphs.len().div_ceil(workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = graphs
                    .chunks(chunk)
                    .map(|part| {
                        scope.spawn(move || {
                            let _chunk_span =
                                zt_telemetry::span_arg("predict.chunk", || part.len().to_string());
                            let mut scratch = Scratch::new();
                            part.iter()
                                .map(|g| self.predict_with(g, &mut scratch))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|hdl| hdl.join().expect("prediction worker panicked"))
                    .collect()
            })
        };
        if !graphs.is_empty() {
            zt_telemetry::observe(
                "predict.batch_ms",
                batch_start.elapsed().as_secs_f64() * 1e3,
            );
        }
        out
    }

    /// Derive the interval certificate on demand (milliseconds for the
    /// paper-scale network; the strict tuner calls this once per query).
    fn certificate(&self) -> Option<crate::certify::ModelCert> {
        crate::certify::certify_model(self, &crate::certify::CertifyConfig::default()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureMask;
    use crate::graph::encode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zt_dspsim::cluster::{Cluster, ClusterType};
    use zt_dspsim::ChainingMode;
    use zt_query::{ParallelQueryPlan, QueryGenerator, QueryStructure};

    fn sample_graph(structure: QueryStructure, p: u32, seed: u64) -> GraphEncoding {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = QueryGenerator::seen().generate(structure, &mut rng);
        let n = plan.num_ops();
        let pqp = ParallelQueryPlan::with_parallelism(plan, vec![p; n]);
        let cluster = Cluster::homogeneous(ClusterType::M510, 2, 10.0);
        encode(&pqp, &cluster, ChainingMode::Auto, &FeatureMask::all())
    }

    #[test]
    fn forward_produces_two_outputs() {
        let model = ZeroTuneModel::new(ModelConfig::default());
        for s in [
            QueryStructure::Linear,
            QueryStructure::TwoWayJoin,
            QueryStructure::NWayJoin(5),
        ] {
            let g = sample_graph(s, 4, 1);
            let mut tape = Tape::new();
            let out = model.forward(&mut tape, &g);
            assert_eq!(tape.value(out).shape(), (1, 2));
            assert!(tape.value(out).data.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn scoped_thread_predict_batch_handles_empty_candidate_list() {
        let model = ZeroTuneModel::new(ModelConfig::default());
        assert!(model.predict_batch(&[]).is_empty());
    }

    #[test]
    fn different_parallelism_different_prediction() {
        let model = ZeroTuneModel::new(ModelConfig::default());
        let g1 = sample_graph(QueryStructure::Linear, 1, 2);
        let g16 = sample_graph(QueryStructure::Linear, 16, 2);
        let p1 = model.predict(&g1);
        let p16 = model.predict(&g16);
        assert_ne!(p1, p16);
    }

    #[test]
    fn tapeless_forward_matches_tape_exactly() {
        let model = ZeroTuneModel::new(ModelConfig::default());
        let mut scratch = Scratch::new();
        for (i, s) in [
            QueryStructure::Linear,
            QueryStructure::TwoWayJoin,
            QueryStructure::NWayJoin(5),
        ]
        .into_iter()
        .enumerate()
        {
            let g = sample_graph(s, 1 + i as u32 * 3, 7 + i as u64);
            let mut tape = Tape::new();
            let out = model.forward(&mut tape, &g);
            let taped = tape.value(out).clone();
            let tapeless = model.forward_infer(&g, &mut scratch);
            assert_eq!(taped.data, tapeless.to_vec(), "structure {s:?}");
        }
    }

    #[test]
    fn target_norm_round_trip() {
        let norm = TargetNorm::fit(vec![(10.0, 1000.0), (100.0, 5000.0), (55.0, 2000.0)]);
        let z = norm.normalize(42.0, 3000.0);
        let (lat, tpt) = norm.denormalize(z);
        assert!((lat - 42.0).abs() / 42.0 < 1e-3);
        assert!((tpt - 3000.0).abs() / 3000.0 < 1e-3);
    }

    #[test]
    fn target_norm_is_standardizing() {
        let labels: Vec<(f64, f64)> = (1..100).map(|i| (i as f64, (i * i) as f64)).collect();
        let norm = TargetNorm::fit(labels.clone());
        let zs: Vec<[f32; 2]> = labels.iter().map(|&(l, t)| norm.normalize(l, t)).collect();
        let mean: f32 = zs.iter().map(|z| z[0]).sum::<f32>() / zs.len() as f32;
        assert!(mean.abs() < 1e-3, "mean {mean}");
    }

    #[test]
    fn gnn_gradients_match_finite_differences() {
        let mut model = ZeroTuneModel::new(ModelConfig { hidden: 8, seed: 3 });
        let g = sample_graph(QueryStructure::TwoWayJoin, 2, 4);
        let target = zt_nn::Matrix::row(&[0.3, -0.5]);
        let report = zt_nn::gradcheck::check_gradients(
            &mut model.store.clone(),
            |tape, store| {
                // rebuild the model view over the checked store
                let mut m = model.clone();
                m.store = store.clone();
                let out = m.forward(tape, &g);
                let t = tape.leaf(target.clone());
                tape.mse_loss(out, t)
            },
            1e-2,
            4,
        );
        assert!(report.checked > 20, "checked only {}", report.checked);
        // A handful of coordinates may sit on ReLU kinks where central
        // differences are unreliable; a systematic gradient bug would
        // affect a large fraction of coordinates.
        assert!(
            report.median_rel_error() < 0.01,
            "GNN median gradient mismatch: {}",
            report.median_rel_error()
        );
        assert!(
            report.fraction_above(0.1) < 0.1,
            "too many mismatched gradients: {:.1}% above 0.1 (max {})",
            report.fraction_above(0.1) * 100.0,
            report.max_rel_error
        );
        // keep model "used"
        model.norm = TargetNorm::default();
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let mut model = ZeroTuneModel::new(ModelConfig::default());
        model.norm = TargetNorm::fit(vec![(10.0, 100.0), (20.0, 200.0)]);
        let g = sample_graph(QueryStructure::Linear, 4, 5);
        let before = model.predict(&g);
        let json = model.to_json();
        let restored = ZeroTuneModel::from_json(&json).unwrap();
        let after = restored.predict(&g);
        assert_eq!(before, after);
    }

    #[test]
    fn head_params_are_a_strict_subset() {
        let model = ZeroTuneModel::new(ModelConfig::default());
        let head = model.head_param_ids();
        assert!(!head.is_empty());
        assert!(head.len() < model.store.len());
    }
}
