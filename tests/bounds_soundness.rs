//! Soundness of the interval abstract interpreter (`zt_core::bounds`).
//!
//! The contract under test: for any plan/cluster/parallelism in the
//! sampled ranges, the statically derived intervals **bracket** the
//! executors —
//!
//! * the noiseless analytical solver (`simulate_core`) lands inside every
//!   headline and per-operator interval, with the skewed utilization /
//!   throttle / throughput endpoints matching *bitwise* (they are computed
//!   by the very same transfer functions);
//! * the discrete-event engine's measured throughput and latency land
//!   inside the throughput and pipeline brackets on provably feasible
//!   deployments, up to the engine's finite-horizon measurement tolerance
//!   (its own consistency suite grants it 20% on throughput);
//! * the optimizer's bounds pruning pre-pass is *conservative*: on the
//!   benchmark queries it discards candidates without changing the chosen
//!   argmin, while scoring strictly fewer of them.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zerotune::core::bounds::{analyze, BoundsConfig, BoundsReport};
use zerotune::core::datagen::{generate_dataset_with, GenPlan};
use zerotune::core::dataset::GenConfig;
use zerotune::core::model::{ModelConfig, ZeroTuneModel};
use zerotune::core::optimizer::{tune, OptimizerConfig};
use zerotune::core::train::{train, TrainConfig};
use zerotune::dspsim::analytical::{simulate_core, SimConfig};
use zerotune::dspsim::cluster::{Cluster, ClusterType};
use zerotune::dspsim::engine::{run, EngineConfig};
use zerotune::query::operators::*;
use zerotune::query::{
    benchmarks, DataType, LogicalPlan, OperatorKind, ParallelQueryPlan, TupleSchema,
};

fn source(rate: f64, width: usize) -> OperatorKind {
    OperatorKind::Source(SourceOp {
        event_rate: rate,
        schema: TupleSchema::uniform(DataType::Double, width),
        key_cardinality: None,
    })
}

fn filter(sel: f64) -> OperatorKind {
    OperatorKind::Filter(FilterOp {
        function: FilterFunction::Gt,
        literal_class: DataType::Double,
        selectivity: sel,
    })
}

fn agg(policy: WindowPolicy, length: f64, sel: f64) -> OperatorKind {
    OperatorKind::Aggregate(AggregateOp {
        window: WindowSpec::tumbling(policy, length),
        function: AggFunction::Avg,
        agg_class: DataType::Double,
        key_class: Some(DataType::Int),
        selectivity: sel,
        key_cardinality: None,
    })
}

/// source → filter → window-agg → sink.
fn linear(rate: f64, sel: f64, policy: WindowPolicy, window: f64, agg_sel: f64) -> LogicalPlan {
    let mut plan = LogicalPlan::new("bounds-linear");
    let s = plan.add(source(rate, 3));
    let f = plan.add(filter(sel));
    let a = plan.add(agg(policy, window, agg_sel));
    let k = plan.add(OperatorKind::Sink(SinkOp));
    plan.connect(s, f);
    plan.connect(f, a);
    plan.connect(a, k);
    plan
}

/// source → filter → filter → sink (window-free).
fn filter_chain(rate: f64, sel_a: f64, sel_b: f64) -> LogicalPlan {
    let mut plan = LogicalPlan::new("bounds-filters");
    let s = plan.add(source(rate, 4));
    let f1 = plan.add(filter(sel_a));
    let f2 = plan.add(filter(sel_b));
    let k = plan.add(OperatorKind::Sink(SinkOp));
    plan.connect(s, f1);
    plan.connect(f1, f2);
    plan.connect(f2, k);
    plan
}

/// Two sources into a windowed join (asymmetric rates to exercise the
/// opposite-window envelope).
fn windowed_join(rate_l: f64, rate_r: f64, policy: WindowPolicy, window: f64) -> LogicalPlan {
    let mut plan = LogicalPlan::new("bounds-join");
    let s1 = plan.add(source(rate_l, 3));
    let s2 = plan.add(source(rate_r, 5));
    let j = plan.add(OperatorKind::Join(JoinOp {
        window: WindowSpec::tumbling(policy, window),
        key_class: DataType::Int,
        selectivity: 0.01,
        key_cardinality: None,
    }));
    let k = plan.add(OperatorKind::Sink(SinkOp));
    plan.connect(s1, j);
    plan.connect(s2, j);
    plan.connect(j, k);
    plan
}

fn cluster_of(kind: u8, workers: usize) -> Cluster {
    let ty = if kind.is_multiple_of(2) {
        ClusterType::M510
    } else {
        ClusterType::Rs620
    };
    Cluster::homogeneous(ty, workers, 10.0)
}

/// Assert that the solver's point metrics land inside every interval of
/// the report (headline and per-operator), with the shared endpoints
/// matching bitwise.
fn assert_brackets_solver(pqp: &ParallelQueryPlan, cluster: &Cluster) -> Result<(), TestCaseError> {
    let report = analyze(pqp, cluster, &BoundsConfig::default());
    let m = simulate_core(pqp, cluster, &SimConfig::noiseless());
    prop_assert!(report.is_wellformed(), "malformed report: {report:?}");
    // The latency bracket never undercuts the external I/O constant: the
    // steady-state latency is path + external I/O + ingest, all >= 0.
    prop_assert!(report.latency_ms.lo >= BoundsConfig::default().external_io_ms);

    // Shared transfer functions ⇒ exact endpoints, not just containment.
    prop_assert_eq!(report.utilization.hi, m.bottleneck_utilization);
    prop_assert_eq!(report.backpressure_scale.lo, m.backpressure_scale);
    prop_assert_eq!(report.throughput.lo, m.throughput);

    prop_assert!(
        report.latency_ms.contains(m.latency_ms),
        "latency {} outside {:?}",
        m.latency_ms,
        report.latency_ms
    );
    prop_assert!(report.throughput.contains(m.throughput));
    prop_assert!(report.utilization.contains(m.bottleneck_utilization));
    prop_assert!(report.backpressure_scale.contains(m.backpressure_scale));
    prop_assert_eq!(report.per_op.len(), m.per_op.len());
    for (i, (op, b)) in m.per_op.iter().zip(&report.per_op).enumerate() {
        prop_assert!(
            b.input_rate.contains(op.input_rate),
            "op {i} input {} outside {:?}",
            op.input_rate,
            b.input_rate
        );
        prop_assert!(
            b.output_rate.contains(op.output_rate),
            "op {i} output {} outside {:?}",
            op.output_rate,
            b.output_rate
        );
        prop_assert!(
            b.work_us.contains(op.work_us),
            "op {i} work {} outside {:?}",
            op.work_us,
            b.work_us
        );
        prop_assert!(
            b.utilization.contains(op.utilization),
            "op {i} util {} outside {:?}",
            op.utilization,
            b.utilization
        );
        prop_assert!(
            b.sojourn_ms.contains(op.sojourn_ms),
            "op {i} sojourn {} outside {:?}",
            op.sojourn_ms,
            b.sojourn_ms
        );
        prop_assert!(
            b.residence_ms.contains(op.residence_ms),
            "op {i} residence {} outside {:?}",
            op.residence_ms,
            b.residence_ms
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Intervals bracket the solver on linear time- and count-window
    /// pipelines across rates spanning feasible to collapsing.
    #[test]
    fn brackets_solver_on_linear_plans(
        rate in 100.0f64..3_000_000.0,
        sel in 0.05f64..1.0,
        window in 10.0f64..2_000.0,
        agg_sel in 0.05f64..1.0,
        count_window in 0u8..2,
        p in 1u32..9,
        kind in 0u8..4,
        workers in 1usize..5,
    ) {
        let policy = if count_window == 1 { WindowPolicy::Count } else { WindowPolicy::Time };
        let plan = linear(rate, sel, policy, window, agg_sel);
        let n = plan.num_ops();
        let pqp = ParallelQueryPlan::with_parallelism(plan, vec![p; n]);
        assert_brackets_solver(&pqp, &cluster_of(kind, workers))?;
    }

    /// Intervals bracket the solver on window-free pipelines with mixed
    /// per-operator parallelism.
    #[test]
    fn brackets_solver_on_filter_chains(
        rate in 100.0f64..3_000_000.0,
        sel_a in 0.05f64..1.0,
        sel_b in 0.05f64..1.0,
        p_hot in 1u32..9,
        p_cold in 1u32..4,
        kind in 0u8..4,
        workers in 1usize..5,
    ) {
        let plan = filter_chain(rate, sel_a, sel_b);
        let pqp = ParallelQueryPlan::with_parallelism(
            plan,
            vec![p_cold, p_hot, p_cold, 1],
        );
        assert_brackets_solver(&pqp, &cluster_of(kind, workers))?;
    }

    /// Intervals bracket the solver on asymmetric windowed joins (the
    /// opposite-window weighted average is the one quantity that is NOT
    /// monotone in the backpressure throttle — the join's window envelope
    /// must still contain it).
    #[test]
    fn brackets_solver_on_windowed_joins(
        rate_l in 100.0f64..1_000_000.0,
        ratio in 0.01f64..1.0,
        window in 10.0f64..2_000.0,
        count_window in 0u8..2,
        p in 1u32..7,
        kind in 0u8..4,
        workers in 2usize..5,
    ) {
        let policy = if count_window == 1 { WindowPolicy::Count } else { WindowPolicy::Time };
        let plan = windowed_join(rate_l, rate_l * ratio, policy, window);
        let n = plan.num_ops();
        let pqp = ParallelQueryPlan::with_parallelism(plan, vec![p; n]);
        assert_brackets_solver(&pqp, &cluster_of(kind, workers))?;
    }
}

proptest! {
    // Engine runs simulate 5 wall-clock seconds of tuple flow each; keep
    // the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On provably feasible deployments the engine's measurements land
    /// inside the brackets: source throughput inside the throughput
    /// interval and mean sink latency inside the pipeline interval. The
    /// engine measures over a finite horizon with sized batches, so both
    /// checks carry its documented measurement tolerance.
    #[test]
    fn brackets_the_discrete_event_engine_when_feasible(
        rate in 500.0f64..20_000.0,
        sel in 0.2f64..1.0,
        window in 50.0f64..500.0,
        p in 1u32..5,
        seed in 0u64..1_000,
    ) {
        let plan = linear(rate, sel, WindowPolicy::Time, window, 0.5);
        let n = plan.num_ops();
        let pqp = ParallelQueryPlan::with_parallelism(plan, vec![p; n]);
        let cluster = cluster_of(0, 2);
        let report = analyze(&pqp, &cluster, &BoundsConfig::default());
        prop_assert!(report.is_wellformed());
        // Low rates on m510 hardware are always feasible; this guards the
        // property's precondition rather than filtering cases.
        prop_assert!(report.definitely_feasible(), "sampled config not feasible");

        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = EngineConfig {
            // Finer batches than the default so per-batch service times
            // stay inside the per-tuple cost model's batching envelope.
            target_emissions: 20_000,
            ..EngineConfig::default()
        };
        let e = run(&pqp, &cluster, &cfg, &mut rng);
        prop_assert!(e.samples > 0, "engine produced no sink samples");

        // Throughput: the engine has no flow control, so it sustains the
        // offered rate — the interval's upper endpoint. 25% measurement
        // tolerance (the engine counts tuples over a finite window).
        prop_assert!(
            e.source_throughput >= report.throughput.lo * 0.75
                && e.source_throughput <= report.throughput.hi * 1.25,
            "engine throughput {} outside {:?}",
            e.source_throughput,
            report.throughput
        );

        // Latency: the pipeline bracket (no external I/O, no ingest
        // penalty — the engine models neither). The lower bound is the
        // per-hop floor both executors provably pay; the upper bound gets
        // the same 25% tolerance for batch-quantization effects.
        prop_assert!(
            e.latency_mean_ms >= report.pipeline_ms.lo * 0.99,
            "engine latency {} below floor {:?}",
            e.latency_mean_ms,
            report.pipeline_ms
        );
        prop_assert!(
            e.latency_mean_ms <= report.pipeline_ms.hi * 1.25,
            "engine latency {} above {:?}",
            e.latency_mean_ms,
            report.pipeline_ms
        );
    }
}

/// Helper: tune one plan with pruning on and off against the same
/// estimator and return both outcomes.
fn tune_both(
    plan: &LogicalPlan,
    cluster: &Cluster,
    model: &ZeroTuneModel,
) -> (
    zerotune::core::optimizer::TuningOutcome,
    zerotune::core::optimizer::TuningOutcome,
) {
    let on = tune(
        model,
        plan,
        cluster,
        &OptimizerConfig {
            prune: true,
            ..OptimizerConfig::default()
        },
    )
    .expect("valid plan");
    let off = tune(
        model,
        plan,
        cluster,
        &OptimizerConfig {
            prune: false,
            ..OptimizerConfig::default()
        },
    )
    .expect("valid plan");
    (on, off)
}

/// A small trained model (the telemetry suite's mini-pipeline recipe):
/// enough training that collapsing deployments score poorly, cheap
/// enough for a tier-1 test.
fn trained_mini_model() -> ZeroTuneModel {
    let data = generate_dataset_with(
        &GenConfig::seen(),
        24,
        0xB0_07D5,
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
    model
}

/// Acceptance criterion: on every benchmark query, tuning with the bounds
/// pruning pre-pass picks the *identical* argmin as exhaustive scoring
/// while provably-useless candidates are discarded before inference.
#[test]
fn tune_pruning_is_equivalent_on_benchmark_queries() {
    let cluster = Cluster::homogeneous(ClusterType::M510, 4, 10.0);
    let model = trained_mini_model();
    // High offered rates: low-parallelism candidates provably collapse,
    // so the pre-pass has something sound to discard.
    let queries: [(&str, LogicalPlan); 3] = [
        ("spike_detection", benchmarks::spike_detection(1_500_000.0)),
        (
            "smart_grid_local",
            benchmarks::smart_grid_local(1_500_000.0),
        ),
        (
            "smart_grid_global",
            benchmarks::smart_grid_global(1_500_000.0),
        ),
    ];
    for (name, plan) in queries {
        let (on, off) = tune_both(&plan, &cluster, &model);
        assert_eq!(
            on.parallelism, off.parallelism,
            "{name}: pruning changed the argmin"
        );
        assert!(on.candidates_pruned > 0, "{name}: nothing was pruned");
        assert!(
            on.candidates_evaluated < off.candidates_evaluated,
            "{name}: pruning did not reduce scoring work"
        );
        assert_eq!(
            on.candidates_evaluated + on.candidates_pruned,
            off.candidates_evaluated,
            "{name}: pruning must partition the candidate set"
        );
        assert_eq!(off.candidates_pruned, 0, "{name}: prune=false still pruned");
    }
}

/// At benign rates nothing is provably infeasible or dominated, and the
/// pre-pass must degrade to a no-op with an unchanged outcome.
#[test]
fn tune_pruning_is_a_noop_on_feasible_benchmarks() {
    let cluster = Cluster::homogeneous(ClusterType::M510, 4, 10.0);
    let model = trained_mini_model();
    for plan in [
        benchmarks::spike_detection(10_000.0),
        benchmarks::smart_grid_local(10_000.0),
        benchmarks::smart_grid_global(10_000.0),
    ] {
        let (on, off) = tune_both(&plan, &cluster, &model);
        assert_eq!(on.parallelism, off.parallelism);
        assert_eq!(
            on.candidates_evaluated + on.candidates_pruned,
            off.candidates_evaluated
        );
    }
}

/// The report's feasibility trichotomy agrees with the solver's verdict
/// on the extremes (a spot check the proptest families cross daily).
#[test]
fn feasibility_verdicts_match_the_solver() {
    let cluster = Cluster::homogeneous(ClusterType::M510, 4, 10.0);
    let feasible =
        ParallelQueryPlan::with_parallelism(benchmarks::spike_detection(5_000.0), vec![2, 2, 2, 2]);
    let collapsing = ParallelQueryPlan::with_parallelism(
        benchmarks::spike_detection(80_000_000.0),
        vec![1, 1, 1, 1],
    );
    let r_ok: BoundsReport = analyze(&feasible, &cluster, &BoundsConfig::default());
    let r_bad = analyze(&collapsing, &cluster, &BoundsConfig::default());
    let m_ok = simulate_core(&feasible, &cluster, &SimConfig::noiseless());
    let m_bad = simulate_core(&collapsing, &cluster, &SimConfig::noiseless());
    assert!(r_ok.definitely_feasible());
    assert!(!m_ok.backpressured());
    assert!(r_bad.infeasible());
    assert!(m_bad.backpressured());
    assert!(m_bad.backpressure_scale < 1.0);
}
