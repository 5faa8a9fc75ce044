//! Monotone dataflow analysis over the sealed plan IR.
//!
//! A generic forward analysis framework over [`PlanIr`]'s CSR topology,
//! plus three concrete analyses the linter and optimizer consume:
//!
//! 1. **Rate/width propagation** ([`RateAnalysis`]) — per-edge brackets
//!    `[lo, hi]` on the *unthrottled offered* tuple rate and tuple width.
//!    The transfer is the analytical model's own per-operator rate
//!    transfer ([`op_rates`]) at [`Interval`], with the degree pinned
//!    to the deployment's effective parallelism (point intervals) or
//!    ranging over `p ∈ [1, ∞]` when only a logical plan is known.
//! 2. **Key-cardinality & partitioning-property flow** ([`KeyAnalysis`])
//!    — an upper bound on distinct keys in flight and a flat lattice of
//!    distribution properties (unreached / hash-on-key / arbitrary).
//! 3. **Schema key-class flow** ([`ClassAnalysis`]) — which key classes a
//!    stream can carry, as a bitmask over [`DataType::ALL`].
//!
//! Plans are sealed DAGs, so a **single pass** over the cached Kahn
//! topological order reaches the least fixpoint: every transfer input is
//! final before it is read. [`is_fixpoint`] re-checks that invariant and
//! backs the determinism property tests.
//!
//! The ZT7xx lint family ([`lint_dataflow_plan`] / [`lint_dataflow_pqp`])
//! and the optimizer's ZT704 lattice capping are derived from these fact
//! maps; `explain_dataflow` renders them per edge.

use zt_dspsim::analytical::{op_rates, NET_UTIL_CAP};
use zt_dspsim::cluster::Cluster;
use zt_query::{
    DataType, LogicalPlan, OpId, OperatorKind, ParallelQueryPlan, Partitioning, PlanIr, TupleSchema,
};

use crate::bounds::Interval;
use crate::diagnostics::Diagnostic;

// ---------------------------------------------------------------------------
// Framework
// ---------------------------------------------------------------------------

/// A join-semilattice of analysis facts.
///
/// `join` must be commutative, associative and idempotent; `leq` is the
/// induced partial order (`a.leq(b)` iff `a.join(b) == b`). `bottom()` is
/// the identity of `join` and the initial fact everywhere; `top()` is the
/// absorbing "anything is possible" element.
pub trait Domain: Clone + PartialEq + std::fmt::Debug {
    fn bottom() -> Self;
    fn top() -> Self;
    #[must_use]
    fn join(&self, other: &Self) -> Self;
    fn leq(&self, other: &Self) -> bool;
}

/// One forward dataflow analysis: a domain plus a per-operator transfer
/// function.
pub trait Analysis {
    type Fact: Domain;

    /// Compute the fact an operator produces on its outgoing edges.
    /// `edges` are positions in `plan.edges()` for the operator's incoming
    /// edges — parallel to `inputs`, so transfers can consult per-edge
    /// context such as partitioning strategies.
    fn transfer(
        &self,
        plan: &LogicalPlan,
        ir: &PlanIr,
        id: OpId,
        edges: &[u32],
        inputs: &[Self::Fact],
    ) -> Self::Fact;
}

/// Deterministic fact maps of one solved analysis: one fact per operator
/// (its output fact) and one per edge (the fact flowing across it).
#[derive(Clone, PartialEq, Debug)]
pub struct Facts<D> {
    pub per_op: Vec<D>,
    pub per_edge: Vec<D>,
}

impl<D> Facts<D> {
    pub fn op(&self, id: OpId) -> &D {
        &self.per_op[id.idx()]
    }

    pub fn edge(&self, e: usize) -> &D {
        &self.per_edge[e]
    }
}

/// Solve an analysis to its least fixpoint.
///
/// Because the sealed IR is a DAG and `ir.topo_order()` is cached at seal
/// time, one sweep in topological order suffices: every predecessor fact
/// is final before it is consumed. The result is a pure function of
/// `(plan, ir, analysis)` — no iteration order or worklist
/// nondeterminism.
pub fn solve<A: Analysis>(analysis: &A, plan: &LogicalPlan, ir: &PlanIr) -> Facts<A::Fact> {
    let mut per_op = vec![A::Fact::bottom(); ir.num_ops()];
    let mut per_edge = vec![A::Fact::bottom(); ir.num_edges()];
    let mut inputs: Vec<A::Fact> = Vec::new();
    for &id in ir.topo_order() {
        let in_edges = ir.upstream_edges(id);
        inputs.clear();
        inputs.extend(in_edges.iter().map(|&e| per_edge[e as usize].clone()));
        let fact = analysis.transfer(plan, ir, id, in_edges, &inputs);
        for &e in ir.downstream_edges(id) {
            per_edge[e as usize] = fact.clone();
        }
        per_op[id.idx()] = fact;
    }
    Facts { per_op, per_edge }
}

/// Check that `facts` is a fixpoint of `analysis`: re-running every
/// transfer against the recorded edge facts reproduces the recorded
/// operator facts, and every edge carries its producer's fact. On a DAG
/// this is exactly what [`solve`]'s single pass guarantees; the property
/// tests assert it on generated plans.
pub fn is_fixpoint<A: Analysis>(
    analysis: &A,
    plan: &LogicalPlan,
    ir: &PlanIr,
    facts: &Facts<A::Fact>,
) -> bool {
    if facts.per_op.len() != ir.num_ops() || facts.per_edge.len() != ir.num_edges() {
        return false;
    }
    ir.topo_order().iter().all(|&id| {
        let in_edges = ir.upstream_edges(id);
        let inputs: Vec<A::Fact> = in_edges
            .iter()
            .map(|&e| facts.per_edge[e as usize].clone())
            .collect();
        if analysis.transfer(plan, ir, id, in_edges, &inputs) != facts.per_op[id.idx()] {
            return false;
        }
        ir.downstream_edges(id)
            .iter()
            .all(|&e| facts.per_edge[e as usize] == facts.per_op[id.idx()])
    })
}

// ---------------------------------------------------------------------------
// Rate/width interval analysis
// ---------------------------------------------------------------------------

/// The empty interval: identity of the hull join.
const EMPTY: Interval = Interval {
    lo: f64::INFINITY,
    hi: f64::NEG_INFINITY,
};

fn iv_is_empty(iv: Interval) -> bool {
    iv.lo > iv.hi
}

fn iv_leq(a: Interval, b: Interval) -> bool {
    iv_is_empty(a) || (b.lo <= a.lo && a.hi <= b.hi)
}

/// Bracket on a stream's unthrottled offered tuple rate (tuples/s) and
/// tuple width (bytes). Rates deliberately ignore downstream throttling —
/// they bound the load an operator *offers*, which is what the ZT701/702
/// lints and the bounds cross-check reason about.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RateFact {
    pub rate: Interval,
    pub width: Interval,
}

impl Domain for RateFact {
    fn bottom() -> Self {
        RateFact {
            rate: EMPTY,
            width: EMPTY,
        }
    }

    fn top() -> Self {
        let all = Interval {
            lo: 0.0,
            hi: f64::INFINITY,
        };
        RateFact {
            rate: all,
            width: all,
        }
    }

    fn join(&self, other: &Self) -> Self {
        RateFact {
            rate: self.rate.hull(other.rate),
            width: self.width.hull(other.width),
        }
    }

    fn leq(&self, other: &Self) -> bool {
        iv_leq(self.rate, other.rate) && iv_leq(self.width, other.width)
    }
}

/// Rate/width propagation: the steady-state model's per-operator rate
/// transfer ([`op_rates`]) at [`Interval`], unthrottled. With a
/// deployment (`pqp: Some`), each operator's degree is pinned to its
/// *effective* parallelism and the facts are the model's point rates.
/// Without one, the degree ranges over `p ∈ [1, ∞]`: join windows then
/// hold between `tuples_per_window(0)` tuples (1 per time window,
/// `length` per count window) and their degree-1 population.
pub struct RateAnalysis<'a> {
    pub pqp: Option<&'a ParallelQueryPlan>,
}

impl Analysis for RateAnalysis<'_> {
    type Fact = RateFact;

    fn transfer(
        &self,
        plan: &LogicalPlan,
        ir: &PlanIr,
        id: OpId,
        _edges: &[u32],
        inputs: &[RateFact],
    ) -> RateFact {
        let upstream: Vec<Interval> = inputs
            .iter()
            .map(|f| {
                if iv_is_empty(f.rate) {
                    Interval::ZERO
                } else {
                    f.rate
                }
            })
            .collect();
        let p = match self.pqp {
            Some(pqp) => Interval::point(f64::from(pqp.effective_parallelism_of(id).max(1))),
            None => Interval::new(1.0, f64::INFINITY),
        };
        let (_, rate) = op_rates(&plan.op(id).kind, &upstream, p, Interval::point(1.0));
        #[allow(clippy::cast_precision_loss)]
        let width = Interval::point(ir.output_schemas()[id.idx()].bytes() as f64);
        RateFact { rate, width }
    }
}

// ---------------------------------------------------------------------------
// Key cardinality & partitioning-property analysis
// ---------------------------------------------------------------------------

/// Flat lattice of stream distribution properties.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum KeyDist {
    /// No stream observed yet (join identity).
    Unreached,
    /// Hash-distributed on `class` keys across `degree` instances.
    Hashed { class: DataType, degree: u32 },
    /// No distribution property is known (top).
    Arbitrary,
}

impl std::fmt::Display for KeyDist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyDist::Unreached => f.write_str("unreached"),
            KeyDist::Hashed { class, degree } => write!(f, "hash({class})×{degree}"),
            KeyDist::Arbitrary => f.write_str("arbitrary"),
        }
    }
}

/// Key facts: an upper bound on distinct keys in flight (`None` =
/// unbounded, the top) and the stream's distribution property.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct KeyFact {
    pub cardinality: Option<f64>,
    pub dist: KeyDist,
}

fn card_join(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        _ => None,
    }
}

impl Domain for KeyFact {
    fn bottom() -> Self {
        KeyFact {
            cardinality: Some(0.0),
            dist: KeyDist::Unreached,
        }
    }

    fn top() -> Self {
        KeyFact {
            cardinality: None,
            dist: KeyDist::Arbitrary,
        }
    }

    fn join(&self, other: &Self) -> Self {
        let dist = match (self.dist, other.dist) {
            (KeyDist::Unreached, d) | (d, KeyDist::Unreached) => d,
            (a, b) if a == b => a,
            _ => KeyDist::Arbitrary,
        };
        KeyFact {
            cardinality: card_join(self.cardinality, other.cardinality),
            dist,
        }
    }

    fn leq(&self, other: &Self) -> bool {
        let card_ok = match (self.cardinality, other.cardinality) {
            (_, None) => true,
            (None, Some(_)) => false,
            (Some(a), Some(b)) => a <= b,
        };
        let dist_ok = matches!(self.dist, KeyDist::Unreached)
            || matches!(other.dist, KeyDist::Arbitrary)
            || self.dist == other.dist;
        card_ok && dist_ok
    }
}

/// Key-cardinality and partitioning-property flow. Distribution facts
/// need concrete degrees, so without a deployment every stream is
/// `Arbitrary`; cardinality flow works on plain logical plans too.
pub struct KeyAnalysis<'a> {
    pub pqp: Option<&'a ParallelQueryPlan>,
}

impl Analysis for KeyAnalysis<'_> {
    type Fact = KeyFact;

    fn transfer(
        &self,
        plan: &LogicalPlan,
        _ir: &PlanIr,
        id: OpId,
        edges: &[u32],
        inputs: &[KeyFact],
    ) -> KeyFact {
        let kind = &plan.op(id).kind;
        // What actually arrives at the operator's instances, after the
        // incoming edges' partitioning strategies are applied.
        let arriving = edges
            .iter()
            .zip(inputs)
            .map(|(&e, f)| {
                let dist = match self.pqp {
                    Some(pqp) => match pqp.partitioning[e as usize] {
                        Partitioning::Forward => f.dist,
                        Partitioning::Rebalance => KeyDist::Arbitrary,
                        Partitioning::Hash => match kind.hash_key_class() {
                            Some(class) => KeyDist::Hashed {
                                class,
                                degree: pqp.effective_parallelism_of(id).max(1),
                            },
                            None => KeyDist::Arbitrary,
                        },
                    },
                    None => KeyDist::Arbitrary,
                };
                KeyFact {
                    cardinality: f.cardinality,
                    dist,
                }
            })
            .fold(KeyFact::bottom(), |a, b| a.join(&b));
        let own_dist = |class: Option<DataType>| match (class, self.pqp) {
            (Some(class), Some(pqp)) => KeyDist::Hashed {
                class,
                degree: pqp.effective_parallelism_of(id).max(1),
            },
            _ => KeyDist::Arbitrary,
        };
        match kind {
            OperatorKind::Source(s) => KeyFact {
                cardinality: s.key_cardinality,
                dist: KeyDist::Arbitrary,
            },
            OperatorKind::Filter(_) | OperatorKind::Sink(_) => arriving,
            OperatorKind::Aggregate(a) => KeyFact {
                // A non-keyed aggregate collapses every window to one
                // global result stream.
                cardinality: if a.key_class.is_some() {
                    a.key_cardinality
                } else {
                    Some(1.0)
                },
                dist: own_dist(a.key_class),
            },
            OperatorKind::Join(j) => KeyFact {
                cardinality: j.key_cardinality,
                dist: own_dist(Some(j.key_class)),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Schema key-class analysis
// ---------------------------------------------------------------------------

/// Set of key classes a stream can carry, as a bitmask over
/// [`DataType::ALL`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClassSet(pub u8);

impl ClassSet {
    pub const EMPTY: ClassSet = ClassSet(0);

    pub fn of(class: DataType) -> Self {
        ClassSet(1 << class.one_hot_index())
    }

    pub fn from_schema(schema: &TupleSchema) -> Self {
        schema.fields.iter().fold(ClassSet::EMPTY, |acc, &f| {
            ClassSet(acc.0 | ClassSet::of(f).0)
        })
    }

    pub fn contains(self, class: DataType) -> bool {
        self.0 & ClassSet::of(class).0 != 0
    }
}

impl std::fmt::Display for ClassSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        f.write_str("{")?;
        for class in DataType::ALL {
            if self.contains(class) {
                if !first {
                    f.write_str(",")?;
                }
                write!(f, "{class}")?;
                first = false;
            }
        }
        f.write_str("}")
    }
}

impl Domain for ClassSet {
    fn bottom() -> Self {
        ClassSet::EMPTY
    }

    fn top() -> Self {
        ClassSet(0b111)
    }

    fn join(&self, other: &Self) -> Self {
        ClassSet(self.0 | other.0)
    }

    fn leq(&self, other: &Self) -> bool {
        self.0 & !other.0 == 0
    }
}

/// Schema key-class flow: schema-defining operators (sources, aggregates,
/// joins) emit exactly their sealed output schema's classes; filters and
/// sinks pass the union of their inputs through.
pub struct ClassAnalysis;

impl Analysis for ClassAnalysis {
    type Fact = ClassSet;

    fn transfer(
        &self,
        plan: &LogicalPlan,
        ir: &PlanIr,
        id: OpId,
        _edges: &[u32],
        inputs: &[ClassSet],
    ) -> ClassSet {
        match &plan.op(id).kind {
            OperatorKind::Source(_) | OperatorKind::Aggregate(_) | OperatorKind::Join(_) => {
                ClassSet::from_schema(&ir.output_schemas()[id.idx()])
            }
            OperatorKind::Filter(_) | OperatorKind::Sink(_) => {
                inputs.iter().fold(ClassSet::EMPTY, |acc, &s| acc.join(&s))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Combined report + lints
// ---------------------------------------------------------------------------

/// The three solved fact maps for one plan.
pub struct DataflowReport {
    pub rates: Facts<RateFact>,
    pub keys: Facts<KeyFact>,
    pub classes: Facts<ClassSet>,
}

/// Solve all three analyses on a logical plan (no deployment: rate
/// brackets hull over parallelism, distributions are `Arbitrary`).
pub fn analyze_plan(plan: &LogicalPlan, ir: &PlanIr) -> DataflowReport {
    DataflowReport {
        rates: solve(&RateAnalysis { pqp: None }, plan, ir),
        keys: solve(&KeyAnalysis { pqp: None }, plan, ir),
        classes: solve(&ClassAnalysis, plan, ir),
    }
}

/// Solve all three analyses on a deployed plan (point rate intervals,
/// concrete distribution degrees).
pub fn analyze_pqp(pqp: &ParallelQueryPlan, ir: &PlanIr) -> DataflowReport {
    DataflowReport {
        rates: solve(&RateAnalysis { pqp: Some(pqp) }, &pqp.plan, ir),
        keys: solve(&KeyAnalysis { pqp: Some(pqp) }, &pqp.plan, ir),
        classes: solve(&ClassAnalysis, &pqp.plan, ir),
    }
}

/// Deployment-independent dataflow lints (ZT701, ZT705) for a sealed
/// logical plan.
pub fn lint_dataflow_plan(plan: &LogicalPlan, ir: &PlanIr) -> Vec<Diagnostic> {
    let df = analyze_plan(plan, ir);
    let mut out = Vec::new();
    for (e, &(u, d)) in plan.edges().iter().enumerate() {
        let rate = df.rates.edge(e).rate;
        if !iv_is_empty(rate) && rate.hi <= 0.0 {
            out.push(
                Diagnostic::warning(
                    "ZT701",
                    format!(
                        "edge {u} \u{2192} {d} is statically dead: the propagated rate bracket \
                         is [0, 0], so no tuple can ever flow across it"
                    ),
                )
                .at_op(d),
            );
        }
    }
    for op in plan.ops() {
        let Some(class) = op.kind.hash_key_class() else {
            continue;
        };
        for (&e, &u) in ir.upstream_edges(op.id).iter().zip(ir.upstream(op.id)) {
            let classes = df.classes.edge(e as usize);
            if !classes.contains(class) {
                out.push(
                    Diagnostic::warning(
                        "ZT705",
                        format!(
                            "{} {} keys on {class} but its input stream from {u} only carries \
                             {classes} fields: every tuple would hash on a missing key class",
                            op.kind.label(),
                            op.id
                        ),
                    )
                    .at_op(op.id),
                );
            }
        }
    }
    out
}

/// Deployment-specific dataflow lints (ZT702 with a cluster, ZT703,
/// ZT704) for a validated parallel query plan. Deliberately disjoint from
/// [`lint_dataflow_plan`] so callers running both never duplicate codes.
pub fn lint_dataflow_pqp(
    pqp: &ParallelQueryPlan,
    ir: &PlanIr,
    cluster: Option<&Cluster>,
) -> Vec<Diagnostic> {
    let df = analyze_pqp(pqp, ir);
    let mut out = Vec::new();

    if let Some(cluster) = cluster {
        let agg_link_bytes: f64 = cluster
            .nodes
            .iter()
            .map(|n| n.network_gbps * 1e9 / 8.0)
            .sum();
        let usable = agg_link_bytes * NET_UTIL_CAP;
        for (e, &(u, d)) in pqp.plan.edges().iter().enumerate() {
            if pqp.partitioning[e] == Partitioning::Forward {
                continue; // local handoff, never crosses the network
            }
            let fact = df.rates.edge(e);
            if iv_is_empty(fact.rate) {
                continue;
            }
            let floor_bytes = fact.rate.lo * fact.width.lo;
            if floor_bytes > usable {
                out.push(
                    Diagnostic::warning(
                        "ZT702",
                        format!(
                            "edge {u} \u{2192} {d} must move at least {:.2} GB/s but the \
                             cluster's usable aggregate network bandwidth is {:.2} GB/s \
                             ({NET_UTIL_CAP} \u{00d7} raw): provably network-throttled at \
                             every parallelism",
                            floor_bytes / 1e9,
                            usable / 1e9
                        ),
                    )
                    .at_op(d),
                );
            }
        }
    }

    for (e, &(u, d)) in pqp.plan.edges().iter().enumerate() {
        if pqp.partitioning[e] != Partitioning::Hash {
            continue;
        }
        let kind = &pqp.plan.op(d).kind;
        let Some(class) = kind.hash_key_class() else {
            continue;
        };
        let degree = pqp.effective_parallelism_of(d).max(1);
        if degree == 1 {
            continue; // degenerate hash into one instance is ZT106's domain
        }
        let upstream = df.keys.edge(e).dist;
        if upstream == (KeyDist::Hashed { class, degree }) {
            out.push(
                Diagnostic::warning(
                    "ZT703",
                    format!(
                        "hash re-partition {u} \u{2192} {d} is redundant: the stream is \
                         already hash-distributed on {class} keys across {degree} instances"
                    ),
                )
                .at_op(d),
            );
        }
    }

    for (i, op) in pqp.plan.ops().iter().enumerate() {
        let Some(cap) = op.kind.parallelism_cap() else {
            continue;
        };
        let raw = pqp.parallelism[i];
        if raw > cap {
            let k = op.kind.key_cardinality().unwrap_or(f64::from(cap));
            out.push(
                Diagnostic::warning(
                    "ZT704",
                    format!(
                        "parallelism {raw} exceeds the upstream key cardinality {k:.0}: a \
                         hash partitioner reaches at most {cap} instances, so {} are \
                         provably idle (effective parallelism {cap})",
                        raw - cap
                    ),
                )
                .at_op(op.id),
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use zt_query::benchmarks;

    fn spike() -> (ParallelQueryPlan, PlanIr) {
        let plan = benchmarks::spike_detection(10_000.0);
        let n = plan.num_ops();
        let pqp = ParallelQueryPlan::with_parallelism(plan, vec![2; n]);
        let ir = pqp.plan.validate().expect("benchmark plan seals");
        (pqp, ir)
    }

    #[test]
    fn forward_rate_facts_are_a_fixpoint() {
        let (pqp, ir) = spike();
        let a = RateAnalysis { pqp: Some(&pqp) };
        let facts = solve(&a, &pqp.plan, &ir);
        assert!(is_fixpoint(&a, &pqp.plan, &ir, &facts));
        // Sources emit point intervals at their event rate.
        for op in pqp.plan.ops() {
            if let OperatorKind::Source(s) = &op.kind {
                let f = facts.op(op.id);
                assert_eq!(f.rate.lo, s.event_rate);
                assert_eq!(f.rate.hi, s.event_rate);
            }
        }
    }

    #[test]
    fn plan_level_brackets_contain_deployed_points() {
        let (pqp, ir) = spike();
        let hull = solve(&RateAnalysis { pqp: None }, &pqp.plan, &ir);
        let point = solve(&RateAnalysis { pqp: Some(&pqp) }, &pqp.plan, &ir);
        for (h, p) in hull.per_op.iter().zip(&point.per_op) {
            assert!(p.leq(h), "point {p:?} escapes hull {h:?}");
        }
    }

    #[test]
    fn class_flow_matches_sealed_schemas() {
        let (pqp, ir) = spike();
        let facts = solve(&ClassAnalysis, &pqp.plan, &ir);
        for op in pqp.plan.ops() {
            let expect = ClassSet::from_schema(&ir.output_schemas()[op.id.idx()]);
            assert_eq!(*facts.op(op.id), expect);
        }
    }

    #[test]
    fn benchmark_deployments_are_dataflow_clean() {
        for plan in [
            benchmarks::spike_detection(10_000.0),
            benchmarks::smart_grid_global(10_000.0),
            benchmarks::smart_grid_combined(10_000.0),
        ] {
            let n = plan.num_ops();
            let pqp = ParallelQueryPlan::with_parallelism(plan, vec![2; n]);
            let ir = pqp.plan.validate().expect("benchmark plan seals");
            assert!(lint_dataflow_plan(&pqp.plan, &ir).is_empty());
            assert!(lint_dataflow_pqp(&pqp, &ir, None).is_empty());
        }
    }
}
