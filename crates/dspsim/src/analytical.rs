//! Steady-state analytical performance model.
//!
//! Given a [`ParallelQueryPlan`] deployed on a [`Cluster`], the solver
//! computes the two cost metrics of the paper (Definitions 1 and 2):
//!
//! * **End-to-end latency** — the longest source→sink path through the
//!   plan, where each operator contributes M/M/1-style sojourn time
//!   (service inflated by `1/(1−ρ)`), windowed operators add the expected
//!   residence until their window fires, and each non-chained exchange adds
//!   serialization plus (for off-node traffic) network transfer. Constant
//!   `L_in`/`L_out` terms model reading from / writing to external systems.
//! * **Throughput** — the sustained ingestion rate. If any operator
//!   instance or worker node would exceed the utilization target, the
//!   sources are throttled (backpressure) until the bottleneck sits at the
//!   target; throughput is the throttled total source rate.
//!
//! The solver runs a small fixed-point iteration because join service
//! times depend on window contents, which depend on the (possibly
//! throttled) rates.

use std::ops::{Add, Div, Mul, Sub};

use rand::Rng;
use serde::{Deserialize, Serialize};
use zt_query::{JoinOp, LogicalPlan, OpId, OperatorKind, ParallelQueryPlan, Partitioning, PlanIr};

use crate::cluster::Cluster;
use crate::costmodel::CostModel;
use crate::interval::Interval;
use crate::noise::NoiseConfig;
use crate::placement::{place_with, ChainingMode, Deployment, EdgeExchange};

// --- Shared solver constants ---------------------------------------------
//
// These constants parameterize the latency composition of the solver and
// are also consumed by the static interval analysis in `zt_core::bounds`,
// which must bracket the solver exactly. Keeping them as named `pub const`s
// (instead of inline literals) guarantees the two cannot drift.

/// In-process hand-off latency of a chained (operator-fused) edge, ms.
pub const CHAINED_HOP_MS: f64 = 0.002;
/// Fixed per-exchange overhead (queue hand-off, task wake-up), ms.
pub const EXCHANGE_OVERHEAD_MS: f64 = 0.01;
/// Cap on the in-flight-buffer wait added to exchanges under
/// backpressure, ms (credit-based flow control bounds the buffered data).
pub const INFLIGHT_WAIT_CAP_MS: f64 = 250.0;
/// Cap on the utilization entering the M/M/1 `1/(1 − ρ)` sojourn factor,
/// so throttled-but-saturated operators keep a finite sojourn time.
pub const RHO_CAP: f64 = 0.98;
/// Cap on the aggregate network utilization entering the congestion
/// factor `1/(1 − u_net)`.
pub const NET_UTIL_CAP: f64 = 0.95;

/// Configuration of the analytical simulator.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    pub cost: CostModel,
    pub chaining: ChainingMode,
    /// Backpressure throttles sources so the hottest resource sits at this
    /// utilization (Flink's credit-based flow control keeps pipelines just
    /// below saturation).
    pub utilization_target: f64,
    pub noise: NoiseConfig,
    /// Constant external input+output latency (`L_in + L_out` of
    /// Definition 1), ms.
    pub external_io_ms: f64,
    /// Event-time ingestion penalty under backpressure. Definition 1
    /// measures latency from the *production* of a tuple; when the offered
    /// rate exceeds capacity, events queue up in front of the sources, so
    /// the measured latency grows with the excess ratio over the
    /// measurement window. This constant is half a typical measurement
    /// window (ms).
    pub backpressure_ingest_ms: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cost: CostModel::default(),
            chaining: ChainingMode::Auto,
            utilization_target: 0.95,
            noise: NoiseConfig::default(),
            external_io_ms: 1.0,
            backpressure_ingest_ms: 5_000.0,
        }
    }
}

impl SimConfig {
    /// Deterministic configuration without measurement noise.
    pub fn noiseless() -> Self {
        SimConfig {
            noise: NoiseConfig::none(),
            ..SimConfig::default()
        }
    }
}

/// Per-operator steady-state metrics over the numeric domain `T`: the
/// solver's point values at `f64`, sound brackets at [`Interval`].
#[derive(Clone, Debug)]
pub struct OpMetrics<T = f64> {
    /// Total tuples/s arriving at the operator (after backpressure).
    pub input_rate: T,
    /// Total tuples/s emitted.
    pub output_rate: T,
    /// Per-tuple work of one instance, µs at 1 GHz (including exchange
    /// work).
    pub work_us: T,
    /// Utilization of the hottest instance.
    pub utilization: T,
    /// M/M/1 sojourn contribution, ms.
    pub sojourn_ms: T,
    /// Window residence, ms (0 for unwindowed operators).
    pub residence_ms: T,
}

// Written out because the serde derive does not take generics.
impl<T: Serialize> Serialize for OpMetrics<T> {
    fn to_value(&self) -> serde::Value {
        let field = |name: &str, v: &T| (name.to_string(), v.to_value());
        serde::Value::Map(vec![
            field("input_rate", &self.input_rate),
            field("output_rate", &self.output_rate),
            field("work_us", &self.work_us),
            field("utilization", &self.utilization),
            field("sojourn_ms", &self.sojourn_ms),
            field("residence_ms", &self.residence_ms),
        ])
    }
}

impl<T: Deserialize> Deserialize for OpMetrics<T> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::DeError::custom("expected map for OpMetrics"))?;
        Ok(OpMetrics {
            input_rate: serde::field(m, "input_rate")?,
            output_rate: serde::field(m, "output_rate")?,
            work_us: serde::field(m, "work_us")?,
            utilization: serde::field(m, "utilization")?,
            sojourn_ms: serde::field(m, "sojourn_ms")?,
            residence_ms: serde::field(m, "residence_ms")?,
        })
    }
}

/// The solver's result for one deployment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QueryMetrics {
    /// End-to-end latency (Definition 1), ms. For multi-sink plans this
    /// is the *maximum* over [`QueryMetrics::latency_per_sink_ms`].
    pub latency_ms: f64,
    /// Definition-1 latency per sink, in sink-id order (one entry per
    /// sink of the plan; single-sink plans have exactly one, equal to
    /// `latency_ms`).
    #[serde(default)]
    pub latency_per_sink_ms: Vec<f64>,
    /// Sustained throughput (Definition 2), tuples/s.
    pub throughput: f64,
    /// Total offered source rate, tuples/s.
    pub offered_rate: f64,
    /// Source throttle factor ∈ (0, 1]; < 1 means backpressure.
    pub backpressure_scale: f64,
    /// Bottleneck utilization at the *offered* rate (may exceed 1).
    pub bottleneck_utilization: f64,
    pub per_op: Vec<OpMetrics>,
    pub deployment: Deployment,
}

impl QueryMetrics {
    pub fn backpressured(&self) -> bool {
        self.backpressure_scale < 1.0
    }
}

// --- The numeric domain ----------------------------------------------------

/// The numbers the steady-state model is written against: `f64` for the
/// solver's point estimates and [`Interval`] for the static bounds
/// analysis in `zt_core::bounds`. The arithmetic is monotone
/// (see [`crate::interval`]), so one formula serves both.
///
/// The last three methods are the model's only terms that are not a
/// pure lift of the point formula; each says what its bracket is.
pub trait Num:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Add<f64, Output = Self>
    + Sub<f64, Output = Self>
    + Mul<f64, Output = Self>
    + Div<f64, Output = Self>
{
    fn point(v: f64) -> Self;
    /// The lower endpoint (the value itself at `f64`).
    fn lo(self) -> f64;
    fn max(self, other: Self) -> Self;
    fn min(self, other: Self) -> Self;
    /// Apply a non-decreasing function.
    fn map(self, f: impl Fn(f64) -> f64) -> Self;
    /// Apply a non-increasing function.
    fn map_rev(self, f: impl Fn(f64) -> f64) -> Self;
    /// Apply a function non-decreasing in both arguments.
    fn map2(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self;

    /// Expected tuples in the opposite window of one join instance,
    /// averaged over arrival sides, from the per-side input rates and
    /// window populations. The average is not monotone in the rates, so
    /// its bracket is the per-side envelope `[min, max]` (0 at zero
    /// input, where the average collapses).
    fn join_other_window(in_l: Self, in_r: Self, wl: Self, wr: Self) -> Self;
    /// Window residence, ms, from the emission period, s. The solver
    /// charges half a period; the discrete-event engine anywhere from 0
    /// to a full period, so the bracket is the engine-sound hull
    /// `[0, full period]`.
    fn window_residence_ms(period_s: Self) -> Self;
    /// A latency penalty charged only under backpressure (`scale < 1`).
    /// Over a throttle envelope the lower endpoint is charged when
    /// backpressure is certain (`scale.hi < 1`), the upper whenever it is
    /// possible (`scale.lo < 1`).
    fn backpressure_penalty(scale: Self, penalty: Self) -> Self;
}

impl Num for f64 {
    fn point(v: f64) -> Self {
        v
    }

    fn lo(self) -> f64 {
        self
    }

    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }

    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }

    fn map(self, f: impl Fn(f64) -> f64) -> Self {
        f(self)
    }

    fn map_rev(self, f: impl Fn(f64) -> f64) -> Self {
        f(self)
    }

    fn map2(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        f(self, other)
    }

    fn join_other_window(in_l: f64, in_r: f64, wl: f64, wr: f64) -> f64 {
        (in_l * wr + in_r * wl) / (in_l + in_r).max(1e-9)
    }

    fn window_residence_ms(period_s: f64) -> f64 {
        period_s / 2.0 * 1e3
    }

    fn backpressure_penalty(scale: f64, penalty: f64) -> f64 {
        if scale < 1.0 {
            penalty
        } else {
            0.0
        }
    }
}

impl Num for Interval {
    fn point(v: f64) -> Self {
        Interval::point(v)
    }

    fn lo(self) -> f64 {
        self.lo
    }

    fn max(self, other: Self) -> Self {
        Interval::new(self.lo.max(other.lo), self.hi.max(other.hi))
    }

    fn min(self, other: Self) -> Self {
        Interval::new(self.lo.min(other.lo), self.hi.min(other.hi))
    }

    fn map(self, f: impl Fn(f64) -> f64) -> Self {
        Interval::new(f(self.lo), f(self.hi))
    }

    fn map_rev(self, f: impl Fn(f64) -> f64) -> Self {
        Interval::new(f(self.hi), f(self.lo))
    }

    fn map2(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        Interval::new(f(self.lo, other.lo), f(self.hi, other.hi))
    }

    fn join_other_window(in_l: Self, in_r: Self, wl: Self, wr: Self) -> Self {
        let lo = if in_l.lo + in_r.lo <= 1e-9 {
            0.0
        } else {
            wl.lo.min(wr.lo)
        };
        Interval::new(lo, wl.hi.max(wr.hi))
    }

    fn window_residence_ms(period_s: Self) -> Self {
        Interval::new(0.0, period_s.hi * 1e3)
    }

    fn backpressure_penalty(scale: Self, penalty: Self) -> Self {
        let charged = |bp: bool, v: f64| if bp { v } else { 0.0 };
        Interval::new(
            charged(scale.hi < 1.0, penalty.lo),
            charged(scale.lo < 1.0, penalty.hi),
        )
    }
}

// --- Rates -----------------------------------------------------------------

/// Steady-state rates of a plan at one source throttle factor.
pub struct Rates<T = f64> {
    /// Total input rate per operator.
    pub input: Vec<T>,
    /// Total output rate per operator.
    pub output: Vec<T>,
    /// Rate flowing over each plan edge.
    pub edge: Vec<T>,
}

/// One operator's rate transfer: its total input and output rate from
/// its upstream output rates (in upstream order), its degree `p` and the
/// source throttle `scale`. Only joins read `p`: their window contents
/// are per instance.
pub fn op_rates<T: Num>(kind: &OperatorKind, upstream: &[T], p: T, scale: T) -> (T, T) {
    let in_rate = upstream.iter().fold(T::point(0.0), |acc, &r| acc + r);
    match kind {
        OperatorKind::Source(s) => {
            let rate = scale * s.event_rate;
            (rate, rate)
        }
        OperatorKind::Filter(f) => (in_rate, in_rate * f.selectivity),
        // `sel × |W|` groups fire every emission period; amortized this
        // is `in × sel × overlap` results/s (see Def. 6).
        OperatorKind::Aggregate(a) => {
            (in_rate, in_rate * a.selectivity * a.window.overlap_factor())
        }
        // Stream-join output: every arriving tuple matches
        // `sel × |W_other|` partners (Def. 5).
        OperatorKind::Join(j) => {
            let (in_l, in_r) = join_inputs(upstream);
            let (wl, wr) = join_windows(j, in_l, in_r, p);
            (in_rate, (in_l * wr + in_r * wl) * j.selectivity)
        }
        OperatorKind::Sink(_) => (in_rate, in_rate),
    }
}

/// A join's left and right input rates.
fn join_inputs<T: Num>(upstream: &[T]) -> (T, T) {
    let side = |k: usize| upstream.get(k).copied().unwrap_or(T::point(0.0));
    (side(0), side(1))
}

/// Tuples in one instance's left and right window. Window contents are
/// per instance (hash co-partitioning), so they shrink with `p`.
fn join_windows<T: Num>(j: &JoinOp, in_l: T, in_r: T, p: T) -> (T, T) {
    let window = |rate: T| (rate / p).map(|r| j.window.tuples_per_window(r));
    (window(in_l), window(in_r))
}

/// Effective degree of `id` as a float (at least 1).
fn degree(pqp: &ParallelQueryPlan, id: OpId) -> f64 {
    pqp.effective_parallelism_of(id).max(1) as f64
}

/// Propagate rates through a sealed plan at a given source throttle
/// factor.
pub fn propagate_with<T: Num>(pqp: &ParallelQueryPlan, ir: &PlanIr, scale: T) -> Rates<T> {
    let plan = &pqp.plan;
    let mut input = vec![T::point(0.0); plan.num_ops()];
    let mut output = input.clone();
    let mut upstream = Vec::new();
    for &id in ir.topo_order() {
        upstream.clear();
        upstream.extend(ir.upstream(id).iter().map(|u| output[u.idx()]));
        let p = T::point(degree(pqp, id));
        (input[id.idx()], output[id.idx()]) = op_rates(&plan.op(id).kind, &upstream, p, scale);
    }
    let edge = plan.edges().iter().map(|&(u, _)| output[u.idx()]).collect();
    Rates {
        input,
        output,
        edge,
    }
}

/// Total offered source rate of a sealed plan, tuples/s.
pub fn offered_rate(plan: &LogicalPlan, ir: &PlanIr) -> f64 {
    ir.sources()
        .iter()
        .map(|&s| match &plan.op(s).kind {
            OperatorKind::Source(src) => src.event_rate,
            _ => 0.0,
        })
        .sum()
}

// --- The steady-state model ------------------------------------------------

/// Per-instance and per-node utilization profile at one set of rates.
pub struct WorkProfile<T = f64> {
    /// \[op\] utilization of the hottest instance.
    pub hottest_util: Vec<T>,
    /// \[node\] demand / cores.
    pub node_util: Vec<T>,
    /// \[op\] mean per-tuple work µs at 1 GHz.
    pub work_us: Vec<T>,
}

impl WorkProfile {
    /// The hottest instance or node.
    pub fn bottleneck(&self) -> f64 {
        let u_inst = self.hottest_util.iter().copied().fold(0.0f64, f64::max);
        let u_node = self.node_util.iter().copied().fold(0.0f64, f64::max);
        u_inst.max(u_node)
    }
}

/// The outcome of the solver's backpressure fixed point.
pub struct Throttle {
    /// Source throttle factor ∈ (0, 1].
    pub scale: f64,
    /// Bottleneck utilization at the offered rate.
    pub bottleneck_at_offered: f64,
    /// Rates and work profile at `scale`.
    pub rates: Rates,
    pub profile: WorkProfile,
}

/// Latency side of the model at one set of rates.
pub struct Latency<T = f64> {
    pub per_op: Vec<OpMetrics<T>>,
    /// \[op\] longest source→op path, ms (Definition 1 without `L_in`,
    /// `L_out` and the ingest penalty).
    pub path_ms: Vec<T>,
    /// Definition-1 latency per sink, in sink-id order.
    pub latency_per_sink_ms: Vec<T>,
    /// The slowest sink.
    pub latency_ms: T,
}

/// A deployed plan under a cost model: everything the steady-state model
/// reads besides its numbers. Each method is written once over [`Num`];
/// `simulate_core` evaluates it at `f64`, `zt_core::bounds` at
/// [`Interval`].
pub struct SteadyState<'a> {
    pub pqp: &'a ParallelQueryPlan,
    pub ir: &'a PlanIr,
    pub cluster: &'a Cluster,
    pub dep: &'a Deployment,
    pub cm: &'a CostModel,
}

impl SteadyState<'_> {
    /// Per-instance and per-node utilization at `rates`. `skew` scales
    /// the hottest instance of every hash-partitioned operator: the cost
    /// model's `hash_skew` in the solver, 1 for a perfectly balanced
    /// partitioner (the discrete-event engine), `[1, hash_skew]` for a
    /// bracket over both.
    pub fn work_profile<T: Num>(&self, rates: &Rates<T>, skew: T) -> WorkProfile<T> {
        let (pqp, ir, cm) = (self.pqp, self.ir, self.cm);
        let plan = &pqp.plan;
        let in_schemas = ir.input_schemas();
        let out_schemas = ir.output_schemas();
        let zero = T::point(0.0);
        let mut hottest = vec![zero; plan.num_ops()];
        let mut node_util = vec![zero; self.cluster.num_workers()];
        let mut work_us = vec![zero; plan.num_ops()];

        for op in plan.ops() {
            let id = op.id;
            let i = id.idx();
            let p = degree(pqp, id);
            let other_w = match &op.kind {
                OperatorKind::Join(j) => {
                    let up = ir.upstream(id);
                    let side = |k: usize| up.get(k).map_or(zero, |u| rates.output[u.idx()]);
                    let (in_l, in_r) = (side(0), side(1));
                    let (wl, wr) = join_windows(j, in_l, in_r, T::point(p));
                    T::join_other_window(in_l, in_r, wl, wr)
                }
                _ => zero,
            };
            // Hash-partitioned input concentrates load on the hottest
            // instance. The first input edge defines the partitioning, as
            // in `ParallelQueryPlan::input_partitioning`.
            let hashed = ir
                .first_input_edge(id)
                .is_some_and(|e| pqp.partitioning[e as usize] == Partitioning::Hash);
            let op_skew = if hashed { skew } else { T::point(1.0) };

            // Per-tuple exchange work (serialization both directions, hash
            // routing), µs at 1 GHz, per *input* and *output* tuple. Each
            // accumulator sums its edge subset in edge-insertion order.
            let mut deser_us = zero;
            let mut ser_us = zero;
            for (&u, &e) in ir.upstream(id).iter().zip(ir.upstream_edges(id)) {
                let e = e as usize;
                if !self.dep.edge_exchange[e].is_chained() {
                    deser_us =
                        deser_us + rates.edge[e] * cm.serialization_us(&out_schemas[u.idx()]);
                }
            }
            for &e in ir.downstream_edges(id) {
                let e = e as usize;
                if self.dep.edge_exchange[e].is_chained() {
                    continue;
                }
                let mut s = cm.serialization_us(&out_schemas[i]);
                if pqp.partitioning[e] == Partitioning::Hash {
                    s += cm.hash_route_us;
                }
                ser_us = ser_us + rates.edge[e] * s;
            }

            let srv_us = (rates.input[i] / p).map2(other_w, |rate, other| {
                cm.service_us(&op.kind, &in_schemas[i], &out_schemas[i], rate, other)
            });
            // Work per second of one instance at 1 GHz, µs/s.
            let inst_work_per_s = (rates.input[i] * srv_us + deser_us + ser_us) / p;
            work_us[i] = if rates.input[i].lo() > 0.0 {
                inst_work_per_s * p / rates.input[i]
            } else {
                srv_us
            };

            let mut max_u = zero;
            for &node in self.dep.instance_nodes(id) {
                // Fraction of one core.
                let u = inst_work_per_s / self.cluster.nodes[node].cpu_ghz * 1e-6;
                node_util[node] = node_util[node] + u;
                max_u = max_u.max(u);
            }
            hottest[i] = max_u * op_skew;
        }

        for (util, spec) in node_util.iter_mut().zip(&self.cluster.nodes) {
            *util = *util / spec.cores.max(1) as f64;
        }
        WorkProfile {
            hottest_util: hottest,
            node_util,
            work_us,
        }
    }

    /// The backpressure fixed point, starting from the rates at the
    /// offered load: if the hottest instance or node exceeds `target`,
    /// throttle the sources until it sits at the target.
    pub fn throttle(&self, offered: Rates, target: f64) -> Throttle {
        let skew = self.cm.hash_skew;
        let mut profile = self.work_profile(&offered, skew);
        let bottleneck_at_offered = profile.bottleneck();
        let mut rates = offered;
        let mut scale = 1.0f64;
        for _ in 0..6 {
            let u = profile.bottleneck();
            if u > target {
                scale *= target / u;
                rates = propagate_with(self.pqp, self.ir, scale);
                profile = self.work_profile(&rates, skew);
            } else {
                break;
            }
        }
        Throttle {
            scale,
            bottleneck_at_offered,
            rates,
            profile,
        }
    }

    /// Per-operator sojourn and window terms, per-edge exchange latency
    /// under network congestion, and the Definition-1 longest path, at
    /// `rates`/`profile` under source throttle `scale`.
    pub fn latency<T: Num>(
        &self,
        rates: &Rates<T>,
        profile: &WorkProfile<T>,
        scale: T,
        external_io_ms: f64,
        backpressure_ingest_ms: f64,
    ) -> Latency<T> {
        let (pqp, ir, cm, cluster, dep) = (self.pqp, self.ir, self.cm, self.cluster, self.dep);
        let plan = &pqp.plan;
        let out_schemas = ir.output_schemas();
        let zero = T::point(0.0);
        let one = T::point(1.0);

        // --- Network congestion --------------------------------------
        let mut remote_bytes_per_s = zero;
        for (e, &(u, _)) in plan.edges().iter().enumerate() {
            let remote_frac = 1.0 - dep.edge_exchange[e].local_fraction();
            remote_bytes_per_s = remote_bytes_per_s
                + rates.edge[e] * out_schemas[u.idx()].bytes() as f64 * remote_frac;
        }
        let agg_link_bytes: f64 = cluster
            .nodes
            .iter()
            .map(|n| n.network_gbps * 1e9 / 8.0)
            .sum();
        let net_util = (remote_bytes_per_s / agg_link_bytes.max(1.0)).min(T::point(NET_UTIL_CAP));
        let net_congestion = one / (one - net_util);

        // --- Per-operator latency contributions ----------------------
        let mut per_op = Vec::with_capacity(plan.num_ops());
        for op in plan.ops() {
            let i = op.id.idx();
            let nodes = dep.instance_nodes(op.id);
            let rho = profile.hottest_util[i].min(T::point(RHO_CAP));
            // Oversubscribed nodes stretch service times (processor
            // sharing).
            let stretch = nodes
                .iter()
                .map(|&nd| profile.node_util[nd].max(one))
                .fold(one, T::max);
            let ghz = cluster.nodes.get(nodes[0]).map_or(1.0, |nsp| nsp.cpu_ghz);
            let work_ms = profile.work_us[i] * 1e-3 * stretch / ghz;
            // Queueing acts on processing batches (network buffers), not
            // on single tuples: a batch only fills as fast as tuples
            // arrive, and is handed over after the flush timeout at the
            // latest.
            let inst_rate = rates.input[i] / degree(pqp, op.id);
            let batch =
                (inst_rate * cm.buffer_timeout_ms * 1e-3 + 1.0).min(T::point(cm.batch_tuples));
            let sojourn_ms = work_ms * batch / (one - rho);
            let residence_ms = match op.kind.window() {
                Some(w) => T::window_residence_ms(inst_rate.map_rev(|r| w.emission_period_secs(r))),
                None => zero,
            };
            per_op.push(OpMetrics {
                input_rate: rates.input[i],
                output_rate: rates.output[i],
                work_us: profile.work_us[i],
                utilization: profile.hottest_util[i],
                sojourn_ms,
                residence_ms,
            });
        }

        // --- Edge latency contributions ------------------------------
        let edge_ms: Vec<T> = plan
            .edges()
            .iter()
            .enumerate()
            .map(|(e, &(u, d))| match dep.edge_exchange[e] {
                EdgeExchange::Chained => T::point(CHAINED_HOP_MS),
                EdgeExchange::Exchange { local_fraction } => {
                    let schema = &out_schemas[u.idx()];
                    let ghz = cluster.mean_ghz().max(0.1);
                    let serde_ms = 2.0 * cm.serialization_us(schema) / ghz * 1e-3;
                    let remote = 1.0 - local_fraction;
                    let link = cluster.nodes[0].network_gbps;
                    let net_ms =
                        net_congestion * (remote * (cm.net_hop_ms + cm.wire_ms(schema, link)));
                    // Buffer batching: tuples wait until their buffer
                    // fills or the flush timeout expires. The edge rate is
                    // spread over p_u × p_d channels (hash/rebalance) or
                    // p_u channels (forward).
                    let pu = degree(pqp, u);
                    let channels = match pqp.partitioning[e] {
                        Partitioning::Forward => pu,
                        Partitioning::Rebalance | Partitioning::Hash => pu * degree(pqp, d),
                    };
                    let channel_rate = (rates.edge[e] / channels).max(T::point(1e-9));
                    let fill_ms = T::point(cm.batch_tuples) / channel_rate * 1e3;
                    let buffer_ms = fill_ms.min(T::point(cm.buffer_timeout_ms));
                    // Credit-based flow control: under backpressure the
                    // in-flight buffers sit full and drain at the
                    // (throttled) channel rate.
                    let inflight_ms = T::backpressure_penalty(
                        scale,
                        (fill_ms * cm.inflight_buffers).min(T::point(INFLIGHT_WAIT_CAP_MS)),
                    );
                    T::point(serde_ms) + net_ms + (buffer_ms + inflight_ms) + EXCHANGE_OVERHEAD_MS
                }
            })
            .collect();

        // --- Longest path (joins wait for the slower input) ----------
        let mut path_ms = vec![zero; plan.num_ops()];
        for &id in ir.topo_order() {
            let i = id.idx();
            let own = per_op[i].sojourn_ms + per_op[i].residence_ms;
            let mut best_in = zero;
            for (&up, &e) in ir.upstream(id).iter().zip(ir.upstream_edges(id)) {
                best_in = best_in.max(path_ms[up.idx()] + edge_ms[e as usize]);
            }
            path_ms[i] = best_in + own;
        }
        // Event-time queueing in front of the sources when the offered
        // rate exceeds the sustainable rate (see
        // SimConfig::backpressure_ingest_ms).
        let ingest_ms =
            T::backpressure_penalty(scale, (one / scale - 1.0) * backpressure_ingest_ms);
        // Definition-1 latency per sink; the headline is the slowest sink
        // (identical to the single value for single-sink plans).
        let latency_per_sink_ms: Vec<T> = ir
            .sinks()
            .iter()
            .map(|s| path_ms[s.idx()] + external_io_ms + ingest_ms)
            .collect();
        let latency_ms = latency_per_sink_ms
            .iter()
            .copied()
            .fold(T::point(f64::NEG_INFINITY), T::max);
        Latency {
            per_op,
            path_ms,
            latency_per_sink_ms,
            latency_ms,
        }
    }
}

/// Run the analytical model. `rng` drives the measurement noise; pass a
/// seeded RNG for reproducible labels.
pub fn simulate<R: Rng + ?Sized>(
    pqp: &ParallelQueryPlan,
    cluster: &Cluster,
    cfg: &SimConfig,
    rng: &mut R,
) -> QueryMetrics {
    let mut metrics = simulate_core(pqp, cluster, cfg);
    apply_noise(&mut metrics, &cfg.noise, rng);
    metrics
}

/// Multiply the two headline metrics by lognormal measurement-noise
/// factors. Draws nothing from `rng` when both σ are zero, so noiseless
/// runs leave the RNG stream untouched (the contract the label cache and
/// the sharded data generator rely on).
pub fn apply_noise<R: Rng + ?Sized>(metrics: &mut QueryMetrics, noise: &NoiseConfig, rng: &mut R) {
    let lf = noise.latency_factor(rng);
    metrics.latency_ms *= lf;
    for l in &mut metrics.latency_per_sink_ms {
        *l *= lf;
    }
    metrics.throughput *= noise.throughput_factor(rng);
}

/// The deterministic part of [`simulate`]: everything except measurement
/// noise. Two calls with the same `(pqp, cluster, cfg)` return identical
/// metrics, which makes the result memoizable — see
/// [`crate::simcache::SimCache`].
pub fn simulate_core(pqp: &ParallelQueryPlan, cluster: &Cluster, cfg: &SimConfig) -> QueryMetrics {
    debug_assert!(pqp.validate().is_ok(), "simulate() requires a valid PQP");
    let _span = zt_telemetry::span("sim.solve");
    zt_telemetry::counter_add("sim.solves", 1);
    // Seal the topology once; every traversal is an O(degree) slice
    // lookup on the IR.
    let ir = pqp
        .plan
        .validate()
        .expect("simulate() requires a valid plan");
    let dep = place_with(pqp, &ir, cluster, cfg.chaining);
    let model = SteadyState {
        pqp,
        ir: &ir,
        cluster,
        dep: &dep,
        cm: &cfg.cost,
    };
    let offered = offered_rate(&pqp.plan, &ir);
    let t = model.throttle(propagate_with(pqp, &ir, 1.0), cfg.utilization_target);
    let lat = model.latency(
        &t.rates,
        &t.profile,
        t.scale,
        cfg.external_io_ms,
        cfg.backpressure_ingest_ms,
    );
    QueryMetrics {
        latency_ms: lat.latency_ms,
        latency_per_sink_ms: lat.latency_per_sink_ms,
        throughput: offered * t.scale,
        offered_rate: offered,
        backpressure_scale: t.scale,
        bottleneck_utilization: t.bottleneck_at_offered,
        per_op: lat.per_op,
        deployment: dep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterType;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zt_query::operators::SinkOp;
    use zt_query::{
        AggFunction, AggregateOp, DataType, FilterFunction, FilterOp, JoinOp, LogicalPlan,
        SourceOp, TupleSchema, WindowPolicy, WindowSpec,
    };

    fn linear_plan(rate: f64, sel: f64) -> LogicalPlan {
        let mut plan = LogicalPlan::new("linear");
        let s = plan.add(OperatorKind::Source(SourceOp {
            event_rate: rate,
            schema: TupleSchema::uniform(DataType::Double, 3),
            key_cardinality: None,
        }));
        let f = plan.add(OperatorKind::Filter(FilterOp {
            function: FilterFunction::Gt,
            literal_class: DataType::Double,
            selectivity: sel,
        }));
        let a = plan.add(OperatorKind::Aggregate(AggregateOp {
            window: WindowSpec::tumbling(WindowPolicy::Count, 50.0),
            function: AggFunction::Avg,
            agg_class: DataType::Double,
            key_class: Some(DataType::Int),
            selectivity: 0.2,
            key_cardinality: None,
        }));
        let k = plan.add(OperatorKind::Sink(SinkOp));
        plan.connect(s, f);
        plan.connect(f, a);
        plan.connect(a, k);
        plan
    }

    fn pqp(rate: f64, p: u32) -> ParallelQueryPlan {
        ParallelQueryPlan::with_parallelism(linear_plan(rate, 0.5), vec![p, p, p, p])
    }

    fn cluster() -> Cluster {
        Cluster::homogeneous(ClusterType::M510, 4, 10.0)
    }

    #[test]
    fn rates_propagate_with_selectivity() {
        let plan = ParallelQueryPlan::new(linear_plan(1000.0, 0.5));
        let ir = plan.plan.validate().unwrap();
        let r = propagate_with(&plan, &ir, 1.0);
        assert_eq!(r.input[0], 1000.0);
        assert_eq!(r.output[0], 1000.0);
        assert_eq!(r.input[1], 1000.0);
        assert_eq!(r.output[1], 500.0);
        assert_eq!(r.input[2], 500.0);
        // tumbling count window: out = in × sel
        assert!((r.output[2] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn low_rate_is_not_backpressured() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = simulate(
            &pqp(500.0, 2),
            &cluster(),
            &SimConfig::noiseless(),
            &mut rng,
        );
        assert!(!m.backpressured());
        assert!((m.throughput - 500.0).abs() < 1e-6);
        assert!(m.latency_ms > 0.0 && m.latency_ms.is_finite());
    }

    #[test]
    fn overload_triggers_backpressure() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = simulate(
            &pqp(50_000_000.0, 1),
            &cluster(),
            &SimConfig::noiseless(),
            &mut rng,
        );
        assert!(m.backpressured());
        assert!(m.throughput < 50_000_000.0);
        assert!(m.bottleneck_utilization > 1.0);
    }

    #[test]
    fn more_parallelism_raises_capacity() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = SimConfig::noiseless();
        let heavy = 50_000_000.0;
        let t1 = simulate(&pqp(heavy, 1), &cluster(), &cfg, &mut rng).throughput;
        let t8 = simulate(&pqp(heavy, 8), &cluster(), &cfg, &mut rng).throughput;
        assert!(t8 > t1 * 2.0, "t1={t1} t8={t8}");
    }

    #[test]
    fn more_parallelism_lowers_latency_under_load() {
        // At 3M ev/s a single instance is backpressured: events queue in
        // front of the source and event-time latency explodes; scaling
        // out removes the backpressure.
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = SimConfig::noiseless();
        let rate = 3_000_000.0;
        let m1 = simulate(&pqp(rate, 1), &cluster(), &cfg, &mut rng);
        let m8 = simulate(&pqp(rate, 8), &cluster(), &cfg, &mut rng);
        assert!(m1.backpressured());
        assert!(
            m8.latency_ms < m1.latency_ms / 10.0,
            "l1={} l8={}",
            m1.latency_ms,
            m8.latency_ms
        );
    }

    #[test]
    fn faster_hardware_is_faster() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = SimConfig::noiseless();
        let slow = Cluster::homogeneous(ClusterType::M510, 2, 10.0); // 2.0 GHz, 8 cores
        let fast = Cluster::homogeneous(ClusterType::Rs6525, 2, 10.0); // 2.8 GHz, 64 cores
        let heavy = 20_000_000.0;
        let t_slow = simulate(&pqp(heavy, 8), &slow, &cfg, &mut rng).throughput;
        let t_fast = simulate(&pqp(heavy, 8), &fast, &cfg, &mut rng).throughput;
        assert!(t_fast > t_slow);
    }

    #[test]
    fn chaining_reduces_latency() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut cfg = SimConfig::noiseless();
        let plan = pqp(10_000.0, 4);
        cfg.chaining = ChainingMode::Never;
        let unchained = simulate(&plan, &cluster(), &cfg, &mut rng).latency_ms;
        cfg.chaining = ChainingMode::Always;
        let chained = simulate(&plan, &cluster(), &cfg, &mut rng).latency_ms;
        assert!(
            chained < unchained,
            "chained={chained} unchained={unchained}"
        );
    }

    #[test]
    fn count_window_residence_grows_with_parallelism() {
        // Higher parallelism -> fewer tuples per instance -> count windows
        // fill more slowly (the effect the paper notes for count windows).
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = SimConfig::noiseless();
        let m2 = simulate(&pqp(5_000.0, 2), &cluster(), &cfg, &mut rng);
        let m16 = simulate(&pqp(5_000.0, 16), &cluster(), &cfg, &mut rng);
        let agg = 2usize;
        assert!(m16.per_op[agg].residence_ms > m2.per_op[agg].residence_ms);
    }

    #[test]
    fn join_query_simulates() {
        let mut plan = LogicalPlan::new("join");
        let s1 = plan.add(OperatorKind::Source(SourceOp {
            event_rate: 10_000.0,
            schema: TupleSchema::uniform(DataType::Int, 3),
            key_cardinality: None,
        }));
        let s2 = plan.add(OperatorKind::Source(SourceOp {
            event_rate: 8_000.0,
            schema: TupleSchema::uniform(DataType::Int, 3),
            key_cardinality: None,
        }));
        let j = plan.add(OperatorKind::Join(JoinOp {
            window: WindowSpec::tumbling(WindowPolicy::Time, 1_000.0),
            key_class: DataType::Int,
            selectivity: 0.001,
            key_cardinality: None,
        }));
        let k = plan.add(OperatorKind::Sink(SinkOp));
        plan.connect(s1, j);
        plan.connect(s2, j);
        plan.connect(j, k);
        let pqp = ParallelQueryPlan::with_parallelism(plan, vec![2, 2, 4, 2]);
        let mut rng = StdRng::seed_from_u64(8);
        let m = simulate(&pqp, &cluster(), &SimConfig::noiseless(), &mut rng);
        assert!(m.latency_ms.is_finite() && m.latency_ms > 0.0);
        assert!(m.throughput > 0.0);
        // join output reflects both windows
        assert!(m.per_op[2].output_rate > 0.0);
    }

    #[test]
    fn noise_changes_labels_but_not_wildly() {
        let cfg = SimConfig::default();
        let plan = pqp(10_000.0, 4);
        let mut r1 = StdRng::seed_from_u64(10);
        let mut r2 = StdRng::seed_from_u64(11);
        let a = simulate(&plan, &cluster(), &cfg, &mut r1);
        let b = simulate(&plan, &cluster(), &cfg, &mut r2);
        assert_ne!(a.latency_ms, b.latency_ms);
        let ratio = a.latency_ms / b.latency_ms;
        assert!(ratio > 0.5 && ratio < 2.0);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let cfg = SimConfig::default();
        let plan = pqp(10_000.0, 4);
        let a = simulate(&plan, &cluster(), &cfg, &mut StdRng::seed_from_u64(42));
        let b = simulate(&plan, &cluster(), &cfg, &mut StdRng::seed_from_u64(42));
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.throughput, b.throughput);
    }

    #[test]
    fn throughput_never_exceeds_offered_without_noise() {
        let cfg = SimConfig::noiseless();
        let mut rng = StdRng::seed_from_u64(12);
        for rate in [100.0, 10_000.0, 1_000_000.0, 100_000_000.0] {
            for p in [1u32, 4, 16, 64] {
                let m = simulate(&pqp(rate, p), &cluster(), &cfg, &mut rng);
                assert!(m.throughput <= m.offered_rate + 1e-6);
                assert!(m.backpressure_scale > 0.0 && m.backpressure_scale <= 1.0);
            }
        }
    }

    #[test]
    fn single_sink_per_sink_vector_equals_headline() {
        let mut rng = StdRng::seed_from_u64(13);
        let m = simulate(
            &pqp(10_000.0, 2),
            &cluster(),
            &SimConfig::noiseless(),
            &mut rng,
        );
        assert_eq!(m.latency_per_sink_ms, vec![m.latency_ms]);
    }

    #[test]
    fn multi_sink_plan_reports_per_sink_latencies() {
        let plan = zt_query::benchmarks::smart_grid_combined(5_000.0);
        let pqp = ParallelQueryPlan::new(plan);
        let mut rng = StdRng::seed_from_u64(14);
        let m = simulate(&pqp, &cluster(), &SimConfig::noiseless(), &mut rng);
        assert_eq!(m.latency_per_sink_ms.len(), 2);
        // headline = max over the per-sink Definition-1 latencies
        let max = m
            .latency_per_sink_ms
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(m.latency_ms, max);
        assert!(m
            .latency_per_sink_ms
            .iter()
            .all(|l| l.is_finite() && *l > 0.0));
        assert!(m.throughput > 0.0);
    }
}
