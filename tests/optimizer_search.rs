//! Property-based soundness of the bounds-guided branch-and-bound lattice
//! search: `tune` with `SearchSpace::Lattice` must return the *identical*
//! winner whether the search prunes (branch-and-bound over certificates)
//! or scores the lattice exhaustively — outcome equivalence is the load-
//! bearing invariant, speed is only allowed on top of it.
//!
//! Four layers:
//!
//! * **winner equivalence** — proptest over generator-seeded plans of
//!   every structure class: B&B and exhaustive scoring agree on the chosen
//!   parallelism and both predictions, and B&B never analyzes more leaves
//!   than the lattice holds;
//! * **pruning soundness** — the exhaustive winner is always *in* the
//!   branch-and-bound analyzed set (no pruned subtree can contain the
//!   argmin), checked against `branch_and_bound` directly;
//! * **no-feasible-leaf fallback** — when the walk's certificates cut
//!   every leaf, `tune` scores the whole lattice and matches the
//!   exhaustive winner;
//! * **error contract** — degenerate inputs return structured
//!   [`TuneError`]s (invalid plan, exhausted search budget) instead of
//!   panicking, with stable `Display` text.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zerotune::core::lattice::{branch_and_bound, ParallelismLattice};
use zerotune::core::model::{ModelConfig, ZeroTuneModel};
use zerotune::core::optimizer::{
    enumerate_candidates, tune, OptimizerConfig, SearchSpace, TuneError,
};
use zerotune::dspsim::cluster::{Cluster, ClusterType};
use zerotune::query::{LogicalPlan, QueryGenerator, QueryStructure};

fn structure_from_index(i: u8) -> QueryStructure {
    match i % 8 {
        0 => QueryStructure::Linear,
        1 => QueryStructure::TwoWayJoin,
        2 => QueryStructure::ThreeWayJoin,
        3 => QueryStructure::ChainedFilters(2 + i % 3),
        4 => QueryStructure::NWayJoin(4 + i % 3),
        5 => QueryStructure::SpikeDetection,
        6 => QueryStructure::SmartGridLocal,
        _ => QueryStructure::SmartGridGlobal,
    }
}

fn generated_plan(structure_idx: u8, seed: u64) -> LogicalPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let structure = structure_from_index(structure_idx);
    let generator = if structure.is_seen() {
        QueryGenerator::seen()
    } else {
        QueryGenerator::unseen()
    };
    generator.generate(structure, &mut rng)
}

fn lattice_cfg(prune: bool) -> OptimizerConfig {
    OptimizerConfig {
        strict: false,
        prune,
        search: SearchSpace::Lattice {
            max_degrees_per_op: 2,
            visit_budget: 4_000_000,
        },
        ..OptimizerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Acceptance criterion: on any generator-seeded plan the
    /// branch-and-bound search returns the same winner — parallelism and
    /// both predictions — as scoring every lattice point.
    #[test]
    fn bnb_matches_exhaustive_winner_on_generated_plans(
        structure_idx in 0u8..8,
        seed in 0u64..10_000,
        workers in 2usize..5,
    ) {
        let plan = generated_plan(structure_idx, seed);
        let cluster = Cluster::homogeneous(ClusterType::M510, workers, 10.0);
        let model = ZeroTuneModel::new(ModelConfig { hidden: 12, seed });

        let bnb = tune(&model, &plan, &cluster, &lattice_cfg(true))
            .expect("generated plans are valid");
        let full = tune(&model, &plan, &cluster, &lattice_cfg(false))
            .expect("generated plans are valid");

        prop_assert_eq!(&bnb.parallelism, &full.parallelism);
        prop_assert_eq!(bnb.predicted_latency_ms.to_bits(), full.predicted_latency_ms.to_bits());
        prop_assert_eq!(bnb.predicted_throughput.to_bits(), full.predicted_throughput.to_bits());
        prop_assert_eq!(bnb.search_space, full.search_space);
        // The search may skip leaves but can never invent them.
        prop_assert!(bnb.search_visited <= bnb.search_space);
        prop_assert_eq!(full.search_visited, full.search_space);
    }

    /// Pruning soundness against the search core directly: whatever
    /// parallelism exhaustive scoring crowns, the branch-and-bound walk
    /// must have analyzed it — a certificate that cuts the argmin's
    /// subtree would be unsound.
    #[test]
    fn pruned_subtrees_never_contain_the_exhaustive_argmin(
        structure_idx in 0u8..8,
        seed in 0u64..10_000,
    ) {
        let plan = generated_plan(structure_idx, seed);
        let cluster = Cluster::homogeneous(ClusterType::M510, 4, 10.0);
        let model = ZeroTuneModel::new(ModelConfig { hidden: 12, seed });
        let cfg = lattice_cfg(true);

        let ir = plan.validate().expect("generated plans are valid");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let flat = enumerate_candidates(&plan, &cluster, &cfg, &mut rng);
        let lattice = ParallelismLattice::from_candidates(&flat, 2);
        let bcfg = zerotune::core::bounds::BoundsConfig {
            chaining: cfg.chaining,
            ..zerotune::core::bounds::BoundsConfig::default()
        };
        let search = branch_and_bound(&plan, &ir, &cluster, &bcfg, &lattice, 4_000_000);
        prop_assert!(!search.budget_exhausted);

        let winner = tune(&model, &plan, &cluster, &lattice_cfg(false))
            .expect("generated plans are valid")
            .parallelism;
        if search.feasible_found {
            prop_assert!(
                search.analyzed.iter().any(|(cand, _)| *cand == winner),
                "exhaustive argmin {:?} was inside a pruned subtree", winner
            );
        }
        // Sanity on the walk's own accounting.
        prop_assert_eq!(search.analyzed.len() as u64, search.stats.leaves_analyzed);
        prop_assert!(search.stats.leaves_analyzed <= lattice.size());
    }
}

// ---------------------------------------------------------------------
// Error contract: degenerate configurations are typed errors, not panics.
// ---------------------------------------------------------------------

/// A plan that never gained a sink fails validation inside `tune` and
/// comes back as `TuneError::InvalidPlan` — the pre-PR behavior was an
/// assertion panic deep in candidate enumeration.
#[test]
fn tune_on_sinkless_plan_is_a_structured_error() {
    use zerotune::query::operators::{FilterFunction, FilterOp, SourceOp};
    use zerotune::query::{DataType, OperatorKind, TupleSchema};

    let mut plan = LogicalPlan::new("no-sink");
    let s = plan.add(OperatorKind::Source(SourceOp {
        event_rate: 1_000.0,
        schema: TupleSchema::uniform(DataType::Int, 3),
        key_cardinality: None,
    }));
    let f = plan.add(OperatorKind::Filter(FilterOp {
        function: FilterFunction::Gt,
        literal_class: DataType::Int,
        selectivity: 0.5,
    }));
    plan.connect(s, f);

    let cluster = Cluster::homogeneous(ClusterType::M510, 2, 10.0);
    let model = ZeroTuneModel::new(ModelConfig { hidden: 8, seed: 1 });
    let err = tune(&model, &plan, &cluster, &OptimizerConfig::default())
        .expect_err("a sinkless plan must not tune");
    assert!(matches!(err, TuneError::InvalidPlan(_)));
    let msg = err.to_string();
    assert!(msg.contains("valid plan"), "unexpected message: {msg}");
    assert!(
        std::error::Error::source(&err).is_some(),
        "InvalidPlan must expose the PlanError as its source"
    );
}

/// A lattice bigger than its visit budget is refused with the sizes in
/// the error, never answered from a partial (non-equivalent) walk.
#[test]
fn tune_with_tiny_budget_reports_budget_exhaustion() {
    let plan = zerotune::query::benchmarks::spike_detection(2_000_000.0);
    let cluster = Cluster::homogeneous(ClusterType::M510, 4, 10.0);
    let model = ZeroTuneModel::new(ModelConfig { hidden: 8, seed: 1 });
    let cfg = OptimizerConfig {
        strict: false,
        search: SearchSpace::Lattice {
            max_degrees_per_op: 4,
            visit_budget: 2,
        },
        ..OptimizerConfig::default()
    };
    let err = tune(&model, &plan, &cluster, &cfg).expect_err("budget of 2 must exhaust");
    match &err {
        TuneError::SearchBudgetExceeded { space, budget, .. } => {
            assert_eq!(*budget, 2);
            assert!(*space > 2, "space {space} should exceed the budget");
        }
        other => panic!("expected SearchBudgetExceeded, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("budget"), "unexpected message: {msg}");
}

// ---------------------------------------------------------------------
// Branch-and-bound fallback: no feasible leaf.
// ---------------------------------------------------------------------

/// A keyed aggregate over a single key runs on one effective instance at
/// any degree, and at 4M ev/s that instance is provably saturated, so the
/// infeasibility certificate cuts every subtree below it and the walk
/// finds no feasible leaf. The whole plan still fits the cluster, so the
/// walk does run. `tune` must then fall back to analyzing the whole
/// lattice, exactly as it does with pruning off.
#[test]
fn bnb_without_a_feasible_leaf_falls_back_to_the_whole_lattice() {
    use zerotune::core::bounds::{work_floors, BoundsConfig};
    use zerotune::query::operators::{
        AggFunction, AggregateOp, FilterFunction, FilterOp, SinkOp, SourceOp, WindowPolicy,
        WindowSpec,
    };
    use zerotune::query::{DataType, OperatorKind, ParallelQueryPlan, TupleSchema};

    let mut plan = LogicalPlan::new("single-key-aggregate");
    let s = plan.add(OperatorKind::Source(SourceOp {
        event_rate: 4_000_000.0,
        schema: TupleSchema::uniform(DataType::Int, 3),
        key_cardinality: None,
    }));
    let f = plan.add(OperatorKind::Filter(FilterOp {
        function: FilterFunction::Gt,
        literal_class: DataType::Int,
        selectivity: 0.8,
    }));
    let a = plan.add(OperatorKind::Aggregate(AggregateOp {
        function: AggFunction::Avg,
        key_class: Some(DataType::Int),
        agg_class: DataType::Int,
        window: WindowSpec::tumbling(WindowPolicy::Time, 1_000.0),
        selectivity: 1.0,
        key_cardinality: Some(1.0),
    }));
    let k = plan.add(OperatorKind::Sink(SinkOp));
    plan.connect(s, f);
    plan.connect(f, a);
    plan.connect(a, k);
    let cluster = Cluster::homogeneous(ClusterType::M510, 4, 10.0);
    let cfg = |prune: bool| OptimizerConfig {
        strict: false,
        prune,
        search: SearchSpace::lattice(),
        ..OptimizerConfig::default()
    };

    let ir = plan.validate().expect("valid plan");
    let bcfg = BoundsConfig::default();
    let floors = work_floors(&ParallelQueryPlan::new(plan.clone()), &ir, &cluster, &bcfg);
    assert!(
        floors.plan_util_floor() < 1.0,
        "the walk must not be skipped"
    );
    assert!(
        floors.op_util_floor(2, 1) >= 1.0,
        "one key saturates one instance"
    );

    let mut rng = StdRng::seed_from_u64(cfg(true).seed);
    let flat = enumerate_candidates(&plan, &cluster, &cfg(true), &mut rng);
    let mut lattice = ParallelismLattice::from_candidates(&flat, 4);
    // The key-cardinality cap keeps only the aggregate's smallest degree.
    lattice.degrees[2].truncate(1);
    let search = branch_and_bound(&plan, &ir, &cluster, &bcfg, &lattice, 100_000);
    assert!(!search.budget_exhausted);
    assert!(!search.feasible_found);
    assert_eq!(search.stats.leaves_analyzed, 0);

    let model = ZeroTuneModel::new(ModelConfig { hidden: 8, seed: 1 });
    let on = tune(&model, &plan, &cluster, &cfg(true)).expect("valid plan");
    let off = tune(&model, &plan, &cluster, &cfg(false)).expect("valid plan");
    assert_eq!(on.search_space, lattice.size());
    assert!(on.search_space > 32, "the walk must run");
    assert_eq!(on.parallelism, off.parallelism);
    assert_eq!(
        on.predicted_latency_ms.to_bits(),
        off.predicted_latency_ms.to_bits()
    );
    assert_eq!(
        on.predicted_throughput.to_bits(),
        off.predicted_throughput.to_bits()
    );
    assert_eq!(on.search_visited, on.search_space);
    assert_eq!(on.search_subtrees_pruned, 0);
}
