//! Interval abstract interpretation over parallel query plans: provable
//! cost bounds without executing the simulator.
//!
//! From a [`ParallelQueryPlan`] + [`Cluster`] + parallelism assignment
//! alone, [`analyze`] derives *sound* lower/upper bounds on per-operator
//! arrival rate, service demand, utilization and end-to-end
//! latency/throughput. The abstract domain is the closed interval
//! `[lo, hi] ⊂ [0, ∞]`, and the transfer functions are not a copy of the
//! solver: they *are* the steady-state model of `zt_dspsim::analytical`,
//! which is written once over the [`Num`] trait and evaluated here at
//! [`Interval`] instead of `f64`.
//!
//! Where does the interval width come from? The model's only
//! state-dependent decisions are the hash-partitioning **skew** multiplier
//! (the discrete-event engine models a perfectly balanced partitioner, the
//! analytical solver a skewed one) and the **backpressure throttle** the
//! skewed/unskewed utilization implies. So:
//!
//! 1. The solver's own throttle fixed point runs at `f64`: the skewed
//!    utilization at the offered rate and the converged throttle are
//!    *bitwise* the solver's `bottleneck_utilization` and
//!    `backpressure_scale`. The same profile with skew 1 gives the lower
//!    utilization endpoint, and a one-step estimate the upper throttle.
//! 2. The model then runs at `Interval` over the rate envelope
//!    `[rates(scale_lo), rates(1)]` with skew `[1, hash_skew]`. Interval
//!    arithmetic on non-negative operands pairs endpoints by
//!    monotonicity, so each endpoint is the point formula at one corner.
//!
//! The few terms that are not a pure lift are named methods of [`Num`]:
//! the join's opposite-window envelope, the engine-sound residence hull
//! `[0, full period]`, and the in-flight and ingest penalties chosen from
//! the throttle envelope. The engine pipeline floor is the one
//! bounds-only computation in this module.
//!
//! Two latency intervals are reported:
//!
//! * [`BoundsReport::latency_ms`] — Definition 1 semantics (what
//!   `simulate_core` returns and the model predicts): pipeline path plus
//!   external I/O plus the event-time ingest penalty under backpressure.
//! * [`BoundsReport::pipeline_ms`] — the source→sink pipeline alone, with
//!   an engine-safe lower bound (the discrete-event engine pays neither
//!   the solver's M/M/1 inflation nor its fixed exchange overheads, so the
//!   pipeline floor only counts per-hop costs both executors provably
//!   pay). `tests/bounds_soundness.rs` locks both brackets against both
//!   executors.
//!
//! Consumers: `optimizer::tune` prunes provably-infeasible and
//! interval-dominated candidates before scoring ([`prune_mask`]), the
//! ZT5xx diagnostics cross-check model predictions against the brackets,
//! and `explain::explain_bounds` renders the per-operator table.

use serde::{Deserialize, Serialize};
use zt_dspsim::analytical::{
    offered_rate, propagate_with, Num, OpMetrics, SimConfig, SteadyState, CHAINED_HOP_MS,
};
use zt_dspsim::cluster::Cluster;
use zt_dspsim::costmodel::CostModel;
pub use zt_dspsim::interval::Interval;
use zt_dspsim::placement::{place_with, ChainingMode, EdgeExchange};
use zt_query::{ParallelQueryPlan, PlanIr};

/// Per-hop hand-off latency the discrete-event engine charges on *every*
/// edge (see `engine.rs`: one scheduler hand-off per routed batch), ms.
/// The solver charges at least [`CHAINED_HOP_MS`] ≥ this on chained edges
/// and [`EXCHANGE_OVERHEAD_MS`](zt_dspsim::analytical::EXCHANGE_OVERHEAD_MS)
/// ≥ this on exchanges, so it is a valid
/// pipeline floor for both executors.
const ENGINE_ROUTE_BASE_MS: f64 = 1e-3;

/// Sound brackets for one operator's steady-state metrics: the model's
/// [`OpMetrics`] at [`Interval`]. The utilization's lower endpoint assumes
/// a perfectly balanced partitioner, the upper applies the skew model;
/// the residence is `[0, full emission period]` (the solver charges half
/// a period, the engine anywhere from 0 to a period).
pub type OpBounds = OpMetrics<Interval>;

/// Configuration of the bounds analysis — the deterministic subset of
/// [`SimConfig`] (noise has no place in a guaranteed bracket).
#[derive(Clone, Debug)]
pub struct BoundsConfig {
    pub cost: CostModel,
    pub chaining: ChainingMode,
    /// Backpressure utilization target, shared with the solver.
    pub utilization_target: f64,
    /// Constant external input+output latency (`L_in + L_out`), ms.
    pub external_io_ms: f64,
    /// Event-time ingestion penalty under backpressure, ms.
    pub backpressure_ingest_ms: f64,
}

impl From<&SimConfig> for BoundsConfig {
    fn from(cfg: &SimConfig) -> Self {
        BoundsConfig {
            cost: cfg.cost.clone(),
            chaining: cfg.chaining,
            utilization_target: cfg.utilization_target,
            external_io_ms: cfg.external_io_ms,
            backpressure_ingest_ms: cfg.backpressure_ingest_ms,
        }
    }
}

impl Default for BoundsConfig {
    fn default() -> Self {
        BoundsConfig::from(&SimConfig::default())
    }
}

/// Sound lower/upper bounds for one deployment, derived statically.
#[must_use]
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BoundsReport {
    /// Total offered source rate, tuples/s (a point — it is read off the
    /// plan).
    pub offered_rate: f64,
    /// The utilization target the scale bracket was derived against.
    pub utilization_target: f64,
    /// Bottleneck utilization at the *offered* rate. The upper endpoint
    /// equals the solver's `bottleneck_utilization` exactly.
    pub utilization: Interval,
    /// Source throttle factor ∈ (0, 1]. The lower endpoint equals the
    /// solver's `backpressure_scale` exactly.
    pub backpressure_scale: Interval,
    /// Sustained throughput, tuples/s. Upper bound is the offered rate —
    /// no executor can ingest more than the sources produce.
    pub throughput: Interval,
    /// End-to-end latency, Definition 1 semantics (pipeline + external
    /// I/O + ingest penalty), ms. For multi-sink plans this is the
    /// endpoint-wise maximum over [`BoundsReport::latency_per_sink_ms`].
    pub latency_ms: Interval,
    /// Per-sink Definition-1 latency brackets, one per plan sink in
    /// sink-id order (a one-element vector equal to `[latency_ms]` for
    /// single-sink plans).
    #[serde(default)]
    pub latency_per_sink_ms: Vec<Interval>,
    /// Source→sink pipeline latency alone (engine-comparable), ms.
    pub pipeline_ms: Interval,
    pub per_op: Vec<OpBounds>,
}

impl BoundsReport {
    /// Provably infeasible: even a perfectly balanced partitioner puts the
    /// bottleneck at ≥ 100% at the offered rate — guaranteed backpressure
    /// collapse on any executor sharing the cost model.
    pub fn infeasible(&self) -> bool {
        self.utilization.lo >= 1.0
    }

    /// Provably feasible: even the skewed upper envelope stays below the
    /// backpressure target, so no executor throttles the sources.
    pub fn definitely_feasible(&self) -> bool {
        self.utilization.hi <= self.utilization_target
    }

    /// Backpressure is certain (though not necessarily collapse): even the
    /// balanced lower envelope exceeds the target.
    pub fn definitely_backpressured(&self) -> bool {
        self.utilization.lo > self.utilization_target
    }

    /// Every interval is non-vacuous and non-inverted (the ZT504 check).
    pub fn is_wellformed(&self) -> bool {
        self.offered_rate.is_finite()
            && self.offered_rate >= 0.0
            && self
                .headline_intervals()
                .iter()
                .all(|(_, iv)| iv.is_wellformed())
            && self.latency_per_sink_ms.iter().all(|iv| iv.is_wellformed())
            && self.per_op.iter().all(|op| {
                op.input_rate.is_wellformed()
                    && op.output_rate.is_wellformed()
                    && op.work_us.is_wellformed()
                    && op.utilization.is_wellformed()
                    && op.sojourn_ms.is_wellformed()
                    && op.residence_ms.is_wellformed()
            })
    }

    /// The named headline intervals, for iteration in lints and rendering.
    pub fn headline_intervals(&self) -> [(&'static str, Interval); 5] {
        [
            ("utilization", self.utilization),
            ("backpressure_scale", self.backpressure_scale),
            ("throughput", self.throughput),
            ("latency_ms", self.latency_ms),
            ("pipeline_ms", self.pipeline_ms),
        ]
    }
}

/// One-step throttle estimate: the scale that puts `bottleneck` at the
/// target if utilization were linear in the throttle. Utilization is in
/// fact *sub*-linear, so this over-estimates the converged scale — which
/// makes it a sound **upper** endpoint (the exact lower endpoint is the
/// solver's own fixed point).
fn scale_for(bottleneck: f64, target: f64) -> f64 {
    if bottleneck > target {
        target / bottleneck
    } else {
        1.0
    }
}

/// Statically derive sound metric brackets for one deployment.
///
/// Purely analytical — no simulator execution, no RNG; cost is a handful
/// of `O(ops × edges)` profile evaluations. Seals the plan into a
/// [`PlanIr`]; hot loops that evaluate many candidates over the same
/// logical plan should seal once and call [`analyze_with`].
pub fn analyze(pqp: &ParallelQueryPlan, cluster: &Cluster, cfg: &BoundsConfig) -> BoundsReport {
    let ir = pqp
        .plan
        .validate()
        .expect("analyze() requires a valid plan");
    analyze_with(pqp, &ir, cluster, cfg)
}

/// [`analyze`] over a pre-sealed [`PlanIr`] (no re-validation, zero-alloc
/// topology lookups in the transfer functions).
pub fn analyze_with(
    pqp: &ParallelQueryPlan,
    ir: &PlanIr,
    cluster: &Cluster,
    cfg: &BoundsConfig,
) -> BoundsReport {
    debug_assert!(pqp.validate().is_ok(), "analyze() requires a valid PQP");
    let _span = zt_telemetry::span("bounds.analyze");
    zt_telemetry::counter_add("bounds.analyses", 1);
    let dep = place_with(pqp, ir, cluster, cfg.chaining);
    let model = SteadyState {
        pqp,
        ir,
        cluster,
        dep: &dep,
        cm: &cfg.cost,
    };
    let target = cfg.utilization_target;
    let offered = offered_rate(&pqp.plan, ir);

    // --- Utilization and throttle envelopes ----------------------------
    // The upper utilization endpoint and the lower throttle endpoint are
    // the solver's own fixed point at f64, so both are bitwise the
    // solver's; the lower utilization endpoint is the same profile with a
    // perfectly balanced partitioner.
    let offered_rates = propagate_with(pqp, ir, 1.0);
    let u_balanced = model.work_profile(&offered_rates, 1.0).bottleneck();
    let throttle = model.throttle(offered_rates, target);
    let u_skewed = throttle.bottleneck_at_offered;
    let utilization = Interval::new(u_balanced.min(u_skewed), u_skewed);
    let scale = Interval::new(throttle.scale, scale_for(utilization.lo, target));

    // --- The model at Interval over [rates(scale.lo), rates(1)] ---------
    let rates = propagate_with(pqp, ir, Interval::new(scale.lo, 1.0));
    let profile = model.work_profile(&rates, Interval::new(1.0, cfg.cost.hash_skew));
    let lat = model.latency(
        &rates,
        &profile,
        scale,
        cfg.external_io_ms,
        cfg.backpressure_ingest_ms,
    );

    // --- Engine pipeline floor -----------------------------------------
    // The per-hop cost *both* executors provably pay: the scheduler
    // hand-off, plus twice the base serialization cost on exchanges. The
    // engine charges the latter at the sending node's clock, so the
    // cluster's fastest clock floors it.
    let max_ghz = cluster
        .nodes
        .iter()
        .map(|nsp| nsp.cpu_ghz)
        .fold(0.1f64, f64::max);
    let mut floor_path = vec![0f64; pqp.plan.num_ops()];
    for &id in ir.topo_order() {
        let mut best = 0.0f64;
        for (&up, &e) in ir.upstream(id).iter().zip(ir.upstream_edges(id)) {
            let hop = match dep.edge_exchange[e as usize] {
                EdgeExchange::Chained => ENGINE_ROUTE_BASE_MS.min(CHAINED_HOP_MS),
                EdgeExchange::Exchange { .. } => {
                    ENGINE_ROUTE_BASE_MS + 2.0 * cfg.cost.ser_base_us / max_ghz * 1e-3
                }
            };
            best = best.max(floor_path[up.idx()] + hop);
        }
        floor_path[id.idx()] = best;
    }
    let pipeline_ms = ir
        .sinks()
        .iter()
        .map(|s| {
            let hi = lat.path_ms[s.idx()].hi;
            Interval::new(floor_path[s.idx()].min(hi), hi)
        })
        .fold(Interval::point(f64::NEG_INFINITY), Num::max);

    BoundsReport {
        offered_rate: offered,
        utilization_target: target,
        utilization,
        backpressure_scale: scale,
        throughput: Interval::new(offered * scale.lo, offered),
        latency_ms: lat.latency_ms,
        latency_per_sink_ms: lat.latency_per_sink_ms,
        pipeline_ms,
        per_op: lat.per_op,
    }
}

/// Parallelism-independent per-operator work floors, the certificates the
/// branch-and-bound tuner ([`crate::lattice`]) prunes subtrees with.
///
/// For every operator the floor is `input_rate × srv_floor` — the
/// unthrottled input rate (rate propagation depends only on the plan and
/// the throttle, never on parallelism) times a service-demand lower bound
/// (`service_us` with an empty opposite window; service demand is monotone
/// in the opposite-window population and independent of the instance
/// rate). Serde/exchange work is dropped entirely (≥ 0). Both floors are
/// therefore sound against [`analyze_with`]'s *skew-free lower* endpoint
/// for **any** parallelism assignment and **any** placement/chaining the
/// deployment pass may choose:
///
/// * [`WorkFloors::op_util_floor`] — assigning degree `d` to op `i` puts
///   the hottest instance at ≥ `floor_i / (d · ghz_max · 1e6)`, so the
///   candidate's `utilization.lo` (a max over all ops and nodes) is at
///   least that, whatever the other ops get.
/// * [`WorkFloors::plan_util_floor`] — the max node utilization is at
///   least the capacity-weighted average `Σ floor_i / Σ (cores · ghz)`,
///   which no parallelism vector can change (total work is conserved).
#[derive(Clone, Debug)]
pub struct WorkFloors {
    /// Per-op `input_rate × srv_floor`, µs of 1 GHz work per second.
    pub per_op: Vec<f64>,
    /// Fastest clock in the cluster, GHz.
    pub max_ghz: f64,
    /// `Σ cores × ghz` over all nodes — aggregate compute capacity.
    pub capacity_ghz_cores: f64,
}

/// Derive the [`WorkFloors`] certificate state for one sealed plan.
/// Parallelism-independent: compute once per `tune` call, reuse across
/// every lattice subtree.
pub fn work_floors(
    pqp: &ParallelQueryPlan,
    ir: &PlanIr,
    cluster: &Cluster,
    cfg: &BoundsConfig,
) -> WorkFloors {
    let plan = &pqp.plan;
    let in_schemas = ir.input_schemas();
    let out_schemas = ir.output_schemas();
    let rates_hi = propagate_with(pqp, ir, 1.0);
    let per_op = plan
        .ops()
        .iter()
        .map(|op| {
            let i = op.id.idx();
            // srv_floor: empty opposite window (joins), rate argument is
            // unused by the cost model — see `CostModel::service_us`.
            let srv_floor =
                cfg.cost
                    .service_us(&op.kind, &in_schemas[i], &out_schemas[i], 0.0, 0.0);
            rates_hi.input[i] * srv_floor
        })
        .collect();
    let max_ghz = cluster
        .nodes
        .iter()
        .map(|n| n.cpu_ghz)
        .fold(0.1f64, f64::max);
    let capacity_ghz_cores = cluster
        .nodes
        .iter()
        .map(|n| n.cores.max(1) as f64 * n.cpu_ghz)
        .sum::<f64>()
        .max(1e-9);
    WorkFloors {
        per_op,
        max_ghz,
        capacity_ghz_cores,
    }
}

impl WorkFloors {
    /// Lower bound on `utilization.lo` of **every** deployment that runs
    /// operator `i` with `degree` instances. `≥ 1.0` certifies the whole
    /// subtree infeasible ([`BoundsReport::infeasible`]).
    pub fn op_util_floor(&self, i: usize, degree: u32) -> f64 {
        self.per_op[i] / (f64::from(degree.max(1)) * self.max_ghz * 1e6)
    }

    /// Lower bound on `utilization.lo` of every deployment of the plan,
    /// for **any** parallelism vector. `≥ 1.0` certifies the entire
    /// lattice infeasible — pruning is then pointless, because
    /// [`prune_mask`] keeps all candidates when all are infeasible.
    pub fn plan_util_floor(&self) -> f64 {
        self.per_op.iter().sum::<f64>() / (self.capacity_ghz_cores * 1e6)
    }
}

/// Which candidates survive the bounds pruning pre-pass (`true` = keep).
///
/// Two sound rules:
///
/// 1. **Infeasibility** — a candidate whose utilization *lower* bound is
///    ≥ 1 collapses under backpressure on any executor; it can never be
///    the deployment anyone wants.
/// 2. **Interval dominance** — candidate `i` is discarded when some kept
///    candidate `j` is provably better on *both* metrics:
///    `j.latency.hi < i.latency.lo` and `j.throughput.lo ≥
///    i.throughput.hi`. Dominance via a strict latency ordering is
///    acyclic and transitive, so the pre-pruning reference set is safe.
///
/// Never prunes everything: when every candidate is infeasible the full
/// set is kept (the optimizer still has to pick the least-bad one), and
/// the kept candidate with the smallest latency upper bound can never be
/// dominated.
pub fn prune_mask(reports: &[BoundsReport]) -> Vec<bool> {
    let n = reports.len();
    let feasible: Vec<bool> = reports.iter().map(|r| !r.infeasible()).collect();
    if !feasible.iter().any(|&k| k) {
        return vec![true; n];
    }
    let mut keep = feasible.clone();
    for i in 0..n {
        if !keep[i] {
            continue;
        }
        let dominated = (0..n).any(|j| {
            j != i
                && feasible[j]
                && reports[j].latency_ms.hi < reports[i].latency_ms.lo
                && reports[j].throughput.lo >= reports[i].throughput.hi
        });
        if dominated {
            keep[i] = false;
        }
    }
    debug_assert!(keep.iter().any(|&k| k), "pruning must keep a candidate");
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use zt_dspsim::cluster::ClusterType;
    use zt_dspsim::simulate_core;
    use zt_query::operators::SinkOp;
    use zt_query::{
        AggFunction, AggregateOp, DataType, FilterFunction, FilterOp, LogicalPlan, OperatorKind,
        SourceOp, TupleSchema, WindowPolicy, WindowSpec,
    };

    fn linear_plan(rate: f64) -> LogicalPlan {
        let mut plan = LogicalPlan::new("linear");
        let s = plan.add(OperatorKind::Source(SourceOp {
            event_rate: rate,
            schema: TupleSchema::uniform(DataType::Double, 3),
            key_cardinality: None,
        }));
        let f = plan.add(OperatorKind::Filter(FilterOp {
            function: FilterFunction::Gt,
            literal_class: DataType::Double,
            selectivity: 0.5,
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
        ParallelQueryPlan::with_parallelism(linear_plan(rate), vec![p, p, p, p])
    }

    fn cluster() -> Cluster {
        Cluster::homogeneous(ClusterType::M510, 4, 10.0)
    }

    fn brackets_sim(pqp: &ParallelQueryPlan) {
        let report = analyze(pqp, &cluster(), &BoundsConfig::default());
        let m = simulate_core(pqp, &cluster(), &SimConfig::noiseless());
        assert!(report.is_wellformed(), "{report:?}");
        assert!(
            report.latency_ms.contains(m.latency_ms),
            "latency {} outside {:?}",
            m.latency_ms,
            report.latency_ms
        );
        assert!(
            report.throughput.contains(m.throughput),
            "throughput {} outside {:?}",
            m.throughput,
            report.throughput
        );
        assert!(report.utilization.contains(m.bottleneck_utilization));
        assert!(report.backpressure_scale.contains(m.backpressure_scale));
        for (op, b) in m.per_op.iter().zip(&report.per_op) {
            assert!(b.input_rate.contains(op.input_rate));
            assert!(b.output_rate.contains(op.output_rate));
            assert!(b.work_us.contains(op.work_us));
            assert!(b.utilization.contains(op.utilization));
            assert!(b.sojourn_ms.contains(op.sojourn_ms));
            assert!(b.residence_ms.contains(op.residence_ms));
        }
    }

    #[test]
    fn brackets_the_solver_across_load_levels() {
        for rate in [100.0, 10_000.0, 1_000_000.0, 50_000_000.0] {
            for p in [1u32, 4, 16] {
                brackets_sim(&pqp(rate, p));
            }
        }
    }

    #[test]
    fn exact_endpoints_against_the_solver() {
        // The skewed utilization endpoint and the derived throttle are
        // bitwise the solver's values (shared transfer functions).
        let q = pqp(5_000_000.0, 2);
        let report = analyze(&q, &cluster(), &BoundsConfig::default());
        let m = simulate_core(&q, &cluster(), &SimConfig::noiseless());
        assert_eq!(report.utilization.hi, m.bottleneck_utilization);
        assert_eq!(report.backpressure_scale.lo, m.backpressure_scale);
        assert_eq!(report.throughput.lo, m.throughput);
    }

    #[test]
    fn feasibility_classification() {
        let low = analyze(&pqp(100.0, 2), &cluster(), &BoundsConfig::default());
        assert!(low.definitely_feasible());
        assert!(!low.infeasible());
        let high = analyze(&pqp(50_000_000.0, 1), &cluster(), &BoundsConfig::default());
        assert!(high.infeasible());
        assert!(high.definitely_backpressured());
    }

    #[test]
    fn prune_mask_drops_infeasible_keeps_feasible() {
        let cfg = BoundsConfig::default();
        let reports = vec![
            analyze(&pqp(50_000_000.0, 1), &cluster(), &cfg), // infeasible
            analyze(&pqp(50_000_000.0, 16), &cluster(), &cfg),
            analyze(&pqp(100.0, 2), &cluster(), &cfg),
        ];
        let keep = prune_mask(&reports);
        assert!(!keep[0]);
        assert!(keep[2]);
    }

    #[test]
    fn prune_mask_never_empties_the_set() {
        let cfg = BoundsConfig::default();
        let reports = vec![
            analyze(&pqp(500_000_000.0, 1), &cluster(), &cfg),
            analyze(&pqp(500_000_000.0, 2), &cluster(), &cfg),
        ];
        assert!(reports.iter().all(BoundsReport::infeasible));
        assert_eq!(prune_mask(&reports), vec![true, true]);
    }

    #[test]
    fn single_sink_per_sink_bracket_equals_headline() {
        let q = pqp(10_000.0, 2);
        let report = analyze(&q, &cluster(), &BoundsConfig::default());
        assert_eq!(report.latency_per_sink_ms, vec![report.latency_ms]);
    }

    #[test]
    fn multi_sink_bounds_bracket_the_solver_per_sink() {
        let plan = zt_query::benchmarks::smart_grid_combined(5_000.0);
        let n = plan.num_ops();
        let q = ParallelQueryPlan::with_parallelism(plan, vec![2; n]);
        let report = analyze(&q, &cluster(), &BoundsConfig::default());
        let m = simulate_core(&q, &cluster(), &SimConfig::noiseless());
        assert!(report.is_wellformed(), "{report:?}");
        assert_eq!(report.latency_per_sink_ms.len(), 2);
        assert!(report.latency_ms.contains(m.latency_ms));
        assert!(report.throughput.contains(m.throughput));
        for (iv, &l) in report
            .latency_per_sink_ms
            .iter()
            .zip(&m.latency_per_sink_ms)
        {
            assert!(iv.contains(l), "per-sink latency {l} outside {iv:?}");
        }
    }

    #[test]
    fn analyze_with_matches_sealing_wrapper() {
        let q = pqp(5_000_000.0, 2);
        let ir = q.plan.validate().unwrap();
        let a = analyze(&q, &cluster(), &BoundsConfig::default());
        let b = analyze_with(&q, &ir, &cluster(), &BoundsConfig::default());
        assert_eq!(a.utilization, b.utilization);
        assert_eq!(a.backpressure_scale, b.backpressure_scale);
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.pipeline_ms, b.pipeline_ms);
    }

    #[test]
    fn work_floors_are_sound_against_analyze() {
        // For every (rate, parallelism vector) combination, the
        // parallelism-independent floors must sit at or below the skew-free
        // utilization lower endpoint the full interval analysis computes.
        let cfg = BoundsConfig::default();
        let cluster = cluster();
        for rate in [100.0, 50_000.0, 2_000_000.0, 50_000_000.0] {
            let plan = linear_plan(rate);
            let ir = plan.validate().unwrap();
            let probe = ParallelQueryPlan::new(plan.clone());
            let floors = work_floors(&probe, &ir, &cluster, &cfg);
            for parallelism in [vec![1, 1, 1, 1], vec![1, 4, 2, 1], vec![16, 16, 16, 16]] {
                let q = ParallelQueryPlan::with_parallelism(plan.clone(), parallelism.clone());
                let report = analyze_with(&q, &ir, &cluster, &cfg);
                for (i, &d) in parallelism.iter().enumerate() {
                    let floor = floors.op_util_floor(i, d);
                    assert!(
                        floor <= report.utilization.lo * (1.0 + 1e-9) + 1e-12,
                        "op {i} degree {d} rate {rate}: floor {floor} > util.lo {}",
                        report.utilization.lo
                    );
                }
                assert!(
                    floors.plan_util_floor() <= report.utilization.lo * (1.0 + 1e-9) + 1e-12,
                    "plan floor {} > util.lo {}",
                    floors.plan_util_floor(),
                    report.utilization.lo
                );
            }
        }
    }

    #[test]
    fn work_floor_certifies_infeasible_low_parallelism() {
        // At an absurd offered rate the floor alone must already prove a
        // degree-1 bottleneck infeasible (that is the signal the
        // branch-and-bound tuner prunes with).
        let cfg = BoundsConfig::default();
        let plan = linear_plan(50_000_000.0);
        let ir = plan.validate().unwrap();
        let probe = ParallelQueryPlan::new(plan.clone());
        let floors = work_floors(&probe, &ir, &cluster(), &cfg);
        // source op (index 0) at degree 1 is hopeless at 50M events/s
        assert!(floors.op_util_floor(0, 1) >= 1.0);
        // and the certificate agrees with the full analysis
        let q = ParallelQueryPlan::with_parallelism(plan.clone(), vec![1, 1, 1, 1]);
        assert!(analyze_with(&q, &ir, &cluster(), &cfg).infeasible());
    }
}
