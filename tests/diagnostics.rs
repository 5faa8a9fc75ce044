//! Static-diagnostics coverage: every lint code has a test that triggers
//! it and a test (individual or shared per family) that stays clean, the
//! strict pre-flight hooks in `train`/`tune` reject corrupted inputs with
//! the right codes, and — property-tested — every plan accepted by
//! `EnumerationStrategy::enumerate` produces zero `Error`-level
//! diagnostics.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zerotune::core::diagnostics::{
    lint_dataset, lint_graph, lint_graph_batch, lint_model, lint_model_against, lint_plan,
    lint_pqp, lint_split, preflight_train, Report, Severity,
};
use zerotune::core::optisample::EnumerationStrategy;
use zerotune::core::train::{train, TrainConfig};
use zerotune::core::{
    generate_dataset, tune, Dataset, GenConfig, ModelConfig, OptimizerConfig, TargetNorm,
    TuneError, ZeroTuneModel,
};
use zerotune::dspsim::cluster::{Cluster, ClusterType};
use zerotune::query::benchmarks::spike_detection;
use zerotune::query::builder::StreamBuilder;
use zerotune::query::{
    AggFunction, AggregateOp, DataType, FilterFunction, FilterOp, LogicalPlan, OperatorKind,
    ParallelQueryPlan, QueryGenerator, QueryStructure, SourceOp, TupleSchema, WindowPolicy,
    WindowSpec,
};

// --- helpers -------------------------------------------------------------

fn cluster() -> Cluster {
    Cluster::homogeneous(ClusterType::M510, 4, 10.0)
}

/// A valid linear plan: source → filter → aggregate → sink.
fn mini_plan() -> LogicalPlan {
    StreamBuilder::source(10_000.0, DataType::Double, 3)
        .filter(FilterFunction::Gt, DataType::Double, 0.5)
        .window_aggregate(
            WindowSpec::tumbling(WindowPolicy::Count, 100.0),
            AggFunction::Avg,
            DataType::Double,
            Some(DataType::Double),
            0.2,
        )
        .sink("mini")
}

fn gen_data(n: usize, seed: u64) -> Dataset {
    generate_dataset(&GenConfig::seen(), n, seed)
}

fn mini_model() -> ZeroTuneModel {
    ZeroTuneModel::new(ModelConfig {
        hidden: 16,
        seed: 42,
    })
}

/// Overwrite every value of the named parameter tensor.
fn poison(model: &mut ZeroTuneModel, param: &str, value: f32) {
    let id = model
        .store
        .ids()
        .find(|&id| model.store.name(id) == param)
        .unwrap_or_else(|| panic!("no parameter named {param}"));
    for v in &mut model.store.value_mut(id).data {
        *v = value;
    }
}

fn errors_of(diags: &[zerotune::core::Diagnostic]) -> usize {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count()
}

fn has(diags: &[zerotune::core::Diagnostic], code: &str) -> bool {
    diags.iter().any(|d| d.code == code)
}

// --- ZT1xx: plan lints ---------------------------------------------------

#[test]
fn zt101_triggers_on_plan_without_sink() {
    let mut p = LogicalPlan::new("no-sink");
    p.add(OperatorKind::Source(SourceOp {
        event_rate: 100.0,
        schema: TupleSchema::uniform(DataType::Int, 2),
        key_cardinality: None,
    }));
    let diags = lint_plan(&p);
    assert!(has(&diags, "ZT101"), "{diags:?}");
}

#[test]
fn zt101_triggers_on_parallelism_length_mismatch() {
    let pqp = ParallelQueryPlan {
        parallelism: vec![1],
        partitioning: Vec::new(),
        plan: mini_plan(),
    };
    let diags = lint_pqp(&pqp, None);
    assert!(has(&diags, "ZT101"), "{diags:?}");
}

#[test]
fn zt102_triggers_on_operator_off_the_sink_path() {
    let mut p = LogicalPlan::new("dead-branch");
    let s = p.add(OperatorKind::Source(SourceOp {
        event_rate: 100.0,
        schema: TupleSchema::uniform(DataType::Int, 2),
        key_cardinality: None,
    }));
    let dangling = p.add(OperatorKind::Filter(FilterOp {
        function: FilterFunction::Gt,
        literal_class: DataType::Int,
        selectivity: 0.5,
    }));
    let k = p.add(OperatorKind::Sink(zerotune::query::operators::SinkOp));
    p.connect(s, dangling); // never reaches the sink
    p.connect(s, k);
    let diags = lint_plan(&p);
    assert!(has(&diags, "ZT102"), "{diags:?}");
}

#[test]
fn zt108_triggers_on_dangling_branch_in_multi_sink_plan() {
    // Two proper sinks plus one forked branch that never terminates: the
    // dangling filter gets the multi-sink-specific ZT108, not ZT102.
    let mut p = LogicalPlan::new("dangling-branch");
    let s = p.add(OperatorKind::Source(SourceOp {
        event_rate: 100.0,
        schema: TupleSchema::uniform(DataType::Int, 2),
        key_cardinality: None,
    }));
    let dangling = p.add(OperatorKind::Filter(FilterOp {
        function: FilterFunction::Gt,
        literal_class: DataType::Int,
        selectivity: 0.5,
    }));
    let k1 = p.add(OperatorKind::Sink(zerotune::query::operators::SinkOp));
    let k2 = p.add(OperatorKind::Sink(zerotune::query::operators::SinkOp));
    p.connect(s, dangling); // forked but never sunk
    p.connect(s, k1);
    p.connect(s, k2);
    let diags = lint_plan(&p);
    assert!(has(&diags, "ZT108"), "{diags:?}");
    assert!(!has(&diags, "ZT102"), "{diags:?}");
}

#[test]
fn zt108_clean_on_valid_multi_sink_plan() {
    let plan = zerotune::query::benchmarks::smart_grid_combined(1_000.0);
    let diags = lint_plan(&plan);
    assert!(!has(&diags, "ZT108"), "{diags:?}");
    assert!(!has(&diags, "ZT102"), "{diags:?}");
    assert_eq!(errors_of(&diags), 0, "{diags:?}");
}

#[test]
fn reachability_diagnostics_are_exactly_one_per_op() {
    use zerotune::core::Anchor;

    let reachability_diags_at = |diags: &[zerotune::core::Diagnostic], id| {
        diags
            .iter()
            .filter(|d| {
                (d.code == "ZT102" || d.code == "ZT108") && d.anchor == Some(Anchor::Op(id))
            })
            .count()
    };

    // Single-sink plan, off-path operator: exactly one ZT102, never a
    // ZT108 on top of it.
    let mut single = LogicalPlan::new("single-sink-dead-branch");
    let s = single.add(OperatorKind::Source(SourceOp {
        event_rate: 100.0,
        schema: TupleSchema::uniform(DataType::Int, 2),
        key_cardinality: None,
    }));
    let dangling = single.add(OperatorKind::Filter(FilterOp {
        function: FilterFunction::Gt,
        literal_class: DataType::Int,
        selectivity: 0.5,
    }));
    let k = single.add(OperatorKind::Sink(zerotune::query::operators::SinkOp));
    single.connect(s, dangling);
    single.connect(s, k);
    let diags = lint_plan(&single);
    assert_eq!(reachability_diags_at(&diags, dangling), 1, "{diags:?}");
    assert!(has(&diags, "ZT102"), "{diags:?}");
    assert!(!has(&diags, "ZT108"), "{diags:?}");

    // Multi-sink plan, dangling branch: exactly one ZT108 for the forked
    // operator and no ZT102 shadowing it.
    let mut multi = LogicalPlan::new("multi-sink-dangling-branch");
    let s = multi.add(OperatorKind::Source(SourceOp {
        event_rate: 100.0,
        schema: TupleSchema::uniform(DataType::Int, 2),
        key_cardinality: None,
    }));
    let dangling = multi.add(OperatorKind::Filter(FilterOp {
        function: FilterFunction::Gt,
        literal_class: DataType::Int,
        selectivity: 0.5,
    }));
    let k1 = multi.add(OperatorKind::Sink(zerotune::query::operators::SinkOp));
    let k2 = multi.add(OperatorKind::Sink(zerotune::query::operators::SinkOp));
    multi.connect(s, dangling);
    multi.connect(s, k1);
    multi.connect(s, k2);
    let diags = lint_plan(&multi);
    assert_eq!(reachability_diags_at(&diags, dangling), 1, "{diags:?}");
    assert!(has(&diags, "ZT108"), "{diags:?}");
    assert!(!has(&diags, "ZT102"), "{diags:?}");

    // Every operator of both plans carries at most one structural
    // reachability diagnostic.
    for (plan, diags) in [(&single, lint_plan(&single)), (&multi, lint_plan(&multi))] {
        for op in plan.ops() {
            assert!(
                reachability_diags_at(&diags, op.id) <= 1,
                "op {} has overlapping ZT102/ZT108 diagnostics: {diags:?}",
                op.id
            );
        }
    }
}

#[test]
fn zt103_triggers_on_slide_exceeding_length() {
    let mut p = LogicalPlan::new("bad-window");
    let s = p.add(OperatorKind::Source(SourceOp {
        event_rate: 100.0,
        schema: TupleSchema::uniform(DataType::Double, 2),
        key_cardinality: None,
    }));
    let a = p.add(OperatorKind::Aggregate(AggregateOp {
        // Struct literal: `WindowSpec::sliding` debug-asserts validity.
        window: WindowSpec {
            policy: WindowPolicy::Time,
            length: 100.0,
            slide: Some(250.0),
        },
        function: AggFunction::Sum,
        agg_class: DataType::Double,
        key_class: None,
        selectivity: 0.1,
        key_cardinality: None,
    }));
    let k = p.add(OperatorKind::Sink(zerotune::query::operators::SinkOp));
    p.connect(s, a);
    p.connect(a, k);
    let diags = lint_plan(&p);
    assert!(has(&diags, "ZT103"), "{diags:?}");
    // The dedicated code replaces the generic ZT101 for this parameter.
    assert!(!has(&diags, "ZT101"), "{diags:?}");
}

#[test]
fn zt103_clean_when_slide_equals_length() {
    let plan = StreamBuilder::source(1_000.0, DataType::Double, 2)
        .window_aggregate(
            WindowSpec::sliding(WindowPolicy::Time, 500.0, 500.0),
            AggFunction::Max,
            DataType::Double,
            None,
            0.01,
        )
        .sink("edge");
    assert!(!has(&lint_plan(&plan), "ZT103"));
}

#[test]
fn zt104_triggers_on_zero_selectivity_that_validate_accepts() {
    let mut p = LogicalPlan::new("zero-sel");
    let s = p.add(OperatorKind::Source(SourceOp {
        event_rate: 100.0,
        schema: TupleSchema::uniform(DataType::Int, 2),
        key_cardinality: None,
    }));
    let f = p.add(OperatorKind::Filter(FilterOp {
        function: FilterFunction::Eq,
        literal_class: DataType::Int,
        selectivity: 0.0,
    }));
    let k = p.add(OperatorKind::Sink(zerotune::query::operators::SinkOp));
    p.connect(s, f);
    p.connect(f, k);
    assert!(p.validate().is_ok(), "validate() accepts selectivity 0");
    let diags = lint_plan(&p);
    assert!(has(&diags, "ZT104"), "{diags:?}");
}

#[test]
fn zt105_triggers_on_parallelism_beyond_cluster_slots() {
    let cl = cluster();
    let plan = mini_plan();
    let n = plan.num_ops();
    let over = cl.total_cores() + 1;
    let pqp = ParallelQueryPlan::with_parallelism(plan, vec![over; n]);
    let diags = lint_pqp(&pqp, Some(&cl));
    assert!(has(&diags, "ZT105"), "{diags:?}");
}

#[test]
fn zt106_triggers_on_hash_into_parallelism_one() {
    // The benchmark queries hash-partition into their keyed aggregation;
    // at parallelism 1 that shuffle is pure overhead.
    let pqp = ParallelQueryPlan::new(spike_detection(10_000.0));
    let diags = lint_pqp(&pqp, Some(&cluster()));
    assert!(has(&diags, "ZT106"), "{diags:?}");
    assert_eq!(errors_of(&diags), 0, "ZT106 is a warning: {diags:?}");
}

#[test]
fn zt106_clean_at_parallelism_two() {
    let plan = spike_detection(10_000.0);
    let n = plan.num_ops();
    let pqp = ParallelQueryPlan::with_parallelism(plan, vec![2; n]);
    assert!(!has(&lint_pqp(&pqp, Some(&cluster())), "ZT106"));
}

#[test]
fn zt107_triggers_on_oversubscribed_cluster() {
    let cl = cluster();
    let plan = mini_plan();
    let n = plan.num_ops();
    // Per-operator parallelism fits, but the instance total does not.
    let pqp = ParallelQueryPlan::with_parallelism(plan, vec![cl.total_cores(); n]);
    let diags = lint_pqp(&pqp, Some(&cl));
    assert!(has(&diags, "ZT107"), "{diags:?}");
    assert!(!has(&diags, "ZT105"), "{diags:?}");
}

#[test]
fn plan_family_clean_on_valid_deployment() {
    let pqp = ParallelQueryPlan::with_parallelism(mini_plan(), vec![2, 2, 2, 1]);
    let diags = lint_pqp(&pqp, Some(&cluster()));
    assert!(diags.is_empty(), "{diags:?}");
}

// --- ZT2xx: feature lints ------------------------------------------------

#[test]
fn zt201_triggers_on_nan_feature() {
    let mut data = gen_data(1, 11);
    data.samples[0].graph.nodes[0].features[0] = f32::NAN;
    let diags = lint_graph(&data.samples[0].graph);
    assert!(has(&diags, "ZT201"), "{diags:?}");
}

#[test]
fn zt202_triggers_on_out_of_range_feature() {
    let mut data = gen_data(1, 11);
    data.samples[0].graph.nodes[0].features[0] = 7.5;
    let diags = lint_graph(&data.samples[0].graph);
    assert!(has(&diags, "ZT202"), "{diags:?}");
    assert!(!has(&diags, "ZT201"), "{diags:?}");
}

#[test]
fn zt203_triggers_on_constant_batch() {
    let data = gen_data(1, 11);
    let copies: Vec<_> = (0..10).map(|_| data.samples[0].graph.clone()).collect();
    let diags = lint_graph_batch(copies.iter());
    assert!(has(&diags, "ZT203"), "{diags:?}");
}

#[test]
fn zt203_clean_on_varied_batch() {
    let data = gen_data(10, 11);
    let diags = lint_graph_batch(data.samples.iter().map(|s| &s.graph));
    assert!(!has(&diags, "ZT203"), "{diags:?}");
}

#[test]
fn zt204_triggers_on_bad_mapping_weight() {
    let mut data = gen_data(1, 11);
    let g = &mut data.samples[0].graph;
    g.mapping[0].2 = 2.0;
    let diags = lint_graph(g);
    assert!(has(&diags, "ZT204"), "{diags:?}");
}

#[test]
fn zt205_triggers_on_wrong_feature_dimension() {
    let mut data = gen_data(1, 11);
    data.samples[0].graph.nodes[0].features.push(0.0);
    let diags = lint_graph(&data.samples[0].graph);
    assert!(has(&diags, "ZT205"), "{diags:?}");
}

#[test]
fn feature_family_clean_on_generated_encoding() {
    let data = gen_data(2, 11);
    for s in &data.samples {
        let diags = lint_graph(&s.graph);
        assert!(diags.is_empty(), "{diags:?}");
    }
}

// --- ZT3xx: dataset lints ------------------------------------------------

#[test]
fn zt301_triggers_on_nan_label() {
    let mut data = gen_data(2, 13);
    data.samples[0].latency_ms = f64::NAN;
    let diags = lint_dataset(&data);
    assert!(has(&diags, "ZT301"), "{diags:?}");
}

#[test]
fn zt301_triggers_on_nonpositive_label() {
    let mut data = gen_data(2, 13);
    data.samples[1].throughput = 0.0;
    assert!(has(&lint_dataset(&data), "ZT301"));
}

#[test]
fn zt302_triggers_on_duplicate_sample() {
    let mut data = gen_data(2, 13);
    let dup = data.samples[0].clone();
    data.samples.push(dup);
    let diags = lint_dataset(&data);
    assert!(has(&diags, "ZT302"), "{diags:?}");
    assert_eq!(errors_of(&diags), 0, "{diags:?}");
}

#[test]
fn zt303_triggers_on_structure_leak() {
    let train = gen_data(3, 13);
    let mut test = gen_data(2, 14);
    // Claim the first test sample has an unseen structure while reusing a
    // structure name present in the training set.
    test.samples[0].meta.structure = train.samples[0].meta.structure.clone();
    test.samples[0].meta.seen_structure = false;
    let diags = lint_split(&train, &test);
    assert!(has(&diags, "ZT303"), "{diags:?}");
}

#[test]
fn zt303_clean_on_honest_split() {
    let data = gen_data(6, 13);
    let (train, test, _) = data.split(0.5, 0.5, 13);
    assert!(lint_split(&train, &test).is_empty());
}

#[test]
fn zt304_triggers_on_label_outlier() {
    let mut data = gen_data(24, 13);
    data.samples[0].latency_ms = 1e15;
    let diags = lint_dataset(&data);
    assert!(has(&diags, "ZT304"), "{diags:?}");
}

#[test]
fn zt305_triggers_on_constant_labels() {
    let mut data = gen_data(3, 13);
    for s in &mut data.samples {
        s.latency_ms = 123.0;
        s.throughput = 456.0;
    }
    let diags = lint_dataset(&data);
    assert!(has(&diags, "ZT305"), "{diags:?}");
    assert!(!has(&diags, "ZT302"), "distinct graphs are not duplicates");
}

#[test]
fn dataset_family_clean_on_generated_data() {
    let diags = lint_dataset(&gen_data(24, 13));
    assert!(diags.is_empty(), "{diags:?}");
}

// --- ZT4xx: model lints --------------------------------------------------

#[test]
fn zt401_triggers_on_nan_weight() {
    let mut model = mini_model();
    poison(&mut model, "readout.latency.0.w", f32::NAN);
    let diags = lint_model(&model);
    assert!(has(&diags, "ZT401"), "{diags:?}");
}

#[test]
fn zt402_triggers_on_dead_relu_layer() {
    let mut model = mini_model();
    // All-nonpositive incoming weights and biases on a hidden layer: every
    // unit of upd.dataflow's first layer can only emit zero.
    poison(&mut model, "upd.dataflow.0.w", -1.0);
    poison(&mut model, "upd.dataflow.0.b", -0.1);
    let diags = lint_model(&model);
    assert!(
        diags
            .iter()
            .any(|d| d.code == "ZT402" && format!("{:?}", d.anchor).contains("upd.dataflow")),
        "{diags:?}"
    );
}

#[test]
fn zt403_triggers_on_norm_drift() {
    let data = gen_data(4, 17);
    let mut model = mini_model();
    model.norm = TargetNorm {
        mean: [50.0, 50.0],
        std: [1.0, 1.0],
    };
    let diags = lint_model_against(&model, &data);
    assert!(has(&diags, "ZT403"), "{diags:?}");
    assert!(!has(&diags, "ZT404"), "{diags:?}");
}

#[test]
fn zt404_triggers_on_default_norm() {
    let diags = lint_model(&mini_model());
    assert!(has(&diags, "ZT404"), "{diags:?}");
}

#[test]
fn zt405_triggers_on_exploding_weights() {
    let mut model = mini_model();
    poison(&mut model, "enc.Source.0.w", 1_000.0);
    let diags = lint_model(&model);
    assert!(has(&diags, "ZT405"), "{diags:?}");
    assert_eq!(errors_of(&diags), 0, "{diags:?}");
}

#[test]
fn zt406_surfaces_from_predict_checked() {
    let data = gen_data(1, 19);
    let mut model = mini_model();
    // Poison only the read-out head: every Mlp still receives finite
    // inputs (the debug_assert in Mlp::infer stays quiet) but the final
    // prediction is NaN.
    poison(&mut model, "readout.latency.1.w", f32::NAN);
    let err = model
        .predict_checked(&data.samples[0].graph)
        .expect_err("NaN weights must not produce a silent prediction");
    assert_eq!(err.code, "ZT406");
}

#[test]
fn model_family_clean_after_norm_fit() {
    let data = gen_data(4, 17);
    let mut model = mini_model();
    model.norm = TargetNorm::fit(data.labels());
    let diags = lint_model_against(&model, &data);
    assert!(diags.is_empty(), "{diags:?}");
    assert!(model.predict_checked(&data.samples[0].graph).is_ok());
}

// --- strict-mode pre-flight hooks ----------------------------------------

#[test]
#[should_panic(expected = "ZT301")]
fn strict_train_rejects_nan_label() {
    let mut data = gen_data(4, 23);
    data.samples[0].latency_ms = f64::NAN;
    let mut model = mini_model();
    let cfg = TrainConfig {
        epochs: 1,
        strict: true,
        ..TrainConfig::default()
    };
    train(&mut model, &data, &cfg);
}

#[test]
fn strict_tune_rejects_slide_beyond_length() {
    let mut p = LogicalPlan::new("bad-window");
    let s = p.add(OperatorKind::Source(SourceOp {
        event_rate: 1_000.0,
        schema: TupleSchema::uniform(DataType::Double, 2),
        key_cardinality: None,
    }));
    let a = p.add(OperatorKind::Aggregate(AggregateOp {
        window: WindowSpec {
            policy: WindowPolicy::Time,
            length: 100.0,
            slide: Some(300.0),
        },
        function: AggFunction::Sum,
        agg_class: DataType::Double,
        key_class: None,
        selectivity: 0.1,
        key_cardinality: None,
    }));
    let k = p.add(OperatorKind::Sink(zerotune::query::operators::SinkOp));
    p.connect(s, a);
    p.connect(a, k);
    let model = mini_model();
    let cfg = OptimizerConfig {
        strict: true,
        ..OptimizerConfig::default()
    };
    match tune(&model, &p, &cluster(), &cfg).expect_err("strict pre-flight must reject") {
        TuneError::Strict(report) => assert!(report.has_code("ZT103"), "{report}"),
        other => panic!("expected TuneError::Strict, got {other:?}"),
    }
}

#[test]
fn strict_train_passes_on_clean_data() {
    let data = gen_data(8, 29);
    let mut model = mini_model();
    let report = preflight_train(&model, &data, true);
    assert!(!report.has_errors(), "{report}");
    let cfg = TrainConfig {
        epochs: 1,
        strict: true,
        ..TrainConfig::default()
    };
    let out = train(&mut model, &data, &cfg);
    assert!(out.epochs_run >= 1);
}

#[test]
fn strict_tune_passes_on_clean_plan() {
    let model = mini_model();
    let cfg = OptimizerConfig {
        strict: true,
        ..OptimizerConfig::default()
    };
    let outcome = tune(&model, &spike_detection(10_000.0), &cluster(), &cfg).expect("valid plan");
    assert!(!outcome.parallelism.is_empty());
}

#[test]
fn report_renders_rustc_style() {
    let mut data = gen_data(2, 13);
    data.samples[0].latency_ms = f64::NAN;
    let report = Report::new(lint_dataset(&data));
    let text = format!("{report}");
    assert!(text.contains("error[ZT301]"), "{text}");
    assert!(text.contains("--> sample 0"), "{text}");
    assert!(text.contains("error(s)"), "{text}");
}

// --- property: enumerate-accepted plans lint clean -----------------------

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any plan the enumeration strategies accept is free of
    /// `Error`-level diagnostics: the generator and OptiSample respect
    /// every invariant the lints encode.
    #[test]
    fn enumerated_plans_produce_no_error_diagnostics(
        structure_idx in 0u8..8,
        seed in 0u64..10_000,
        workers in 1usize..6,
        random_strategy in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let structure = structure_from_index(structure_idx);
        let generator = if structure.is_seen() {
            QueryGenerator::seen()
        } else {
            QueryGenerator::unseen()
        };
        let plan = generator.generate(structure, &mut rng);
        let cl = Cluster::sample(&ClusterType::ALL, workers, &[1.0, 10.0], &mut rng);
        let strategy = if random_strategy {
            EnumerationStrategy::random()
        } else {
            EnumerationStrategy::opti_sample()
        };
        for parallelism in strategy.enumerate(&plan, &cl, 4, &mut rng) {
            let pqp = ParallelQueryPlan::with_parallelism(plan.clone(), parallelism);
            let diags = lint_pqp(&pqp, Some(&cl));
            let errors: Vec<_> = diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            prop_assert!(errors.is_empty(), "{errors:?}");
        }
    }
}

// --- ZT5xx: bounds cross-check lints -------------------------------------

fn bounds_report(rate: f64, p: u32) -> zerotune::core::BoundsReport {
    let pqp = ParallelQueryPlan::with_parallelism(spike_detection(rate), vec![p; 4]);
    zerotune::core::analyze(&pqp, &cluster(), &zerotune::core::BoundsConfig::default())
}

#[test]
fn zt503_triggers_on_provably_infeasible_deployment() {
    let report = bounds_report(80_000_000.0, 1);
    assert!(report.infeasible());
    let diags = zerotune::core::lint_bounds_report(&report);
    assert!(has(&diags, "ZT503"), "{diags:?}");
    assert!(errors_of(&diags) > 0, "ZT503 must be an error: {diags:?}");
}

#[test]
fn zt504_triggers_on_inverted_interval() {
    let mut report = bounds_report(10_000.0, 2);
    report.latency_ms = zerotune::core::Interval { lo: 2.0, hi: 1.0 };
    let diags = zerotune::core::lint_bounds_report(&report);
    assert!(has(&diags, "ZT504"), "{diags:?}");
    assert!(errors_of(&diags) > 0, "ZT504 must be an error: {diags:?}");
}

#[test]
#[should_panic(expected = "ZT504")]
fn enforce_aborts_on_corrupt_bounds() {
    let mut report = bounds_report(10_000.0, 2);
    report.throughput = zerotune::core::Interval {
        lo: f64::NAN,
        hi: 1.0,
    };
    Report::new(zerotune::core::lint_bounds_report(&report)).enforce("bounds test");
}

#[test]
fn zt501_triggers_on_prediction_below_latency_lower_bound() {
    let report = bounds_report(10_000.0, 2);
    let pred = zerotune::core::CostPrediction {
        // Far enough under the lower bound to clear the 1.5× noise slack.
        latency_ms: report.latency_ms.lo / 10.0,
        throughput: report.throughput.lo,
    };
    let diags = zerotune::core::lint_prediction_bounds(&report, &pred);
    assert!(has(&diags, "ZT501"), "{diags:?}");
    assert_eq!(errors_of(&diags), 0, "ZT501 is a warning: {diags:?}");
}

#[test]
fn zt502_triggers_on_prediction_above_throughput_upper_bound() {
    let report = bounds_report(10_000.0, 2);
    let pred = zerotune::core::CostPrediction {
        latency_ms: report.latency_ms.hi,
        throughput: report.throughput.hi * 10.0,
    };
    let diags = zerotune::core::lint_prediction_bounds(&report, &pred);
    assert!(has(&diags, "ZT502"), "{diags:?}");
    assert_eq!(errors_of(&diags), 0, "ZT502 is a warning: {diags:?}");
}

#[test]
fn bounds_family_clean_on_sane_report_and_prediction() {
    let report = bounds_report(10_000.0, 2);
    assert!(zerotune::core::lint_bounds_report(&report).is_empty());
    let pred = zerotune::core::CostPrediction {
        latency_ms: report.latency_ms.hi.min(report.latency_ms.lo * 1.2),
        throughput: report.throughput.lo,
    };
    assert!(zerotune::core::lint_prediction_bounds(&report, &pred).is_empty());
}

/// ZT503 is a property of the workload, not a tuner bug: strict tuning on
/// a query that is provably infeasible at *every* candidate parallelism
/// must warn, not abort.
#[test]
fn strict_tune_survives_provably_infeasible_query() {
    let model = mini_model();
    let cfg = OptimizerConfig {
        strict: true,
        ..OptimizerConfig::default()
    };
    let outcome =
        tune(&model, &spike_detection(80_000_000.0), &cluster(), &cfg).expect("valid plan");
    assert!(!outcome.parallelism.is_empty());
}

// --- ZT109: wire envelope integrity --------------------------------------

/// Flip the first hex digit of the envelope's fingerprint field.
fn tamper_fingerprint(envelope: &str) -> String {
    let key = "\"fingerprint\":\"";
    let at = envelope.find(key).expect("envelope has a fingerprint") + key.len();
    let flipped = if envelope.as_bytes()[at] == b'0' {
        "1"
    } else {
        "0"
    };
    format!("{}{}{}", &envelope[..at], flipped, &envelope[at + 1..])
}

#[test]
fn zt109_is_registered_as_an_error() {
    let info = zerotune::core::diagnostics::describe("ZT109").expect("ZT109 in the registry");
    assert_eq!(info.severity, Severity::Error);
    assert!(info.summary.contains("fingerprint"), "{}", info.summary);
}

#[test]
fn zt109_triggers_on_tampered_wire_fingerprint() {
    let plan = spike_detection(1000.0);
    let ir = plan.validate().expect("benchmark plan seals");
    let envelope = ir.to_json(&plan).expect("benchmark plan serializes");

    let (sealed, report) = zerotune::core::lint_wire_plan(&tamper_fingerprint(&envelope));
    assert!(sealed.is_none(), "tampered envelope must not yield a plan");
    assert!(report.has_errors());
    assert!(
        report.diagnostics.iter().any(|d| d.code == "ZT109"),
        "{report}"
    );
}

#[test]
fn zt109_clean_on_faithful_wire_round_trip() {
    let plan = spike_detection(1000.0);
    let ir = plan.validate().expect("benchmark plan seals");
    let envelope = ir.to_json(&plan).expect("benchmark plan serializes");

    let (sealed, report) = zerotune::core::lint_wire_plan(&envelope);
    let (plan2, ir2) = sealed.expect("faithful envelope yields the plan");
    assert!(!report.has_errors(), "{report}");
    assert_eq!(ir2.fingerprint(), ir.fingerprint());
    assert_eq!(plan2.num_ops(), plan.num_ops());
}

#[test]
fn wire_garbage_maps_to_zt101_not_zt109() {
    let (sealed, report) = zerotune::core::lint_wire_plan("{definitely not an envelope");
    assert!(sealed.is_none());
    assert!(
        report.diagnostics.iter().any(|d| d.code == "ZT101"),
        "{report}"
    );
    assert!(
        report.diagnostics.iter().all(|d| d.code != "ZT109"),
        "a parse failure is not an integrity failure: {report}"
    );
}

// --- ZT407 + ZT6xx: structural guard and model certification -------------

use zerotune::core::certify::{certify_model, certify_report, CertifyConfig};
use zerotune::core::diagnostics::REGISTRY;

fn small_cert_cfg() -> CertifyConfig {
    CertifyConfig {
        max_depth: 6,
        ..CertifyConfig::default()
    }
}

#[test]
fn zt407_and_zt6xx_are_registered_with_stable_severities() {
    let sev = |code: &str| {
        REGISTRY
            .iter()
            .find(|info| info.code == code)
            .unwrap_or_else(|| panic!("{code} not in REGISTRY"))
            .severity
    };
    assert_eq!(sev("ZT407"), Severity::Error);
    assert_eq!(sev("ZT601"), Severity::Error);
    assert_eq!(sev("ZT602"), Severity::Error);
    assert_eq!(sev("ZT603"), Severity::Warning);
    assert_eq!(sev("ZT604"), Severity::Warning);
    assert_eq!(sev("ZT605"), Severity::Error);
}

#[test]
fn zt407_triggers_on_shape_metadata_mismatch() {
    let mut model = mini_model();
    let id = model.store.ids().next().expect("model has parameters");
    model.store.value_mut(id).rows += 1;
    // lint_model front-runs the structural check (ZT402's indexing would
    // otherwise trust the lying metadata)
    let diags = lint_model(&model);
    assert!(has(&diags, "ZT407"), "{diags:?}");
    assert!(errors_of(&diags) >= 1);
    // the certifier refuses the same model without touching weight data
    match certify_model(&model, &small_cert_cfg()) {
        Err(d) => assert_eq!(d.code, "ZT407"),
        Ok(_) => panic!("shape-tampered model must be refused"),
    }
}

#[test]
fn zt601_triggers_on_inflated_weights() {
    let mut model = mini_model();
    let ids: Vec<_> = model.store.ids().collect();
    for id in ids {
        for v in &mut model.store.value_mut(id).data {
            *v *= 1e4;
        }
    }
    let (cert, report) = certify_report(&model);
    assert!(
        cert.is_some(),
        "structure is intact, only magnitudes changed"
    );
    assert!(report.has_code("ZT601"), "{report}");
    assert!(report.has_errors());
}

#[test]
fn zt602_triggers_on_hijacked_constant_latency_head() {
    let mut model = mini_model();
    // zero the whole latency head, then plant a huge output bias: the
    // head provably outputs 1e6 for every input — no training label (a
    // z-score within a few sigma of 0) is reachable
    poison(&mut model, "readout.latency.0.w", 0.0);
    poison(&mut model, "readout.latency.0.b", 0.0);
    poison(&mut model, "readout.latency.1.w", 0.0);
    poison(&mut model, "readout.latency.1.b", 1e6);
    let cert = certify_model(&model, &small_cert_cfg()).expect("structure ok");
    let report = Report::new(cert.diagnostics());
    assert!(report.has_code("ZT602"), "{report}");
    assert!(report.has_errors());
}

#[test]
fn zt603_triggers_on_certified_dead_encoder_layer() {
    let mut model = mini_model();
    // strongly negative weights + negative bias: every unit of the
    // Source encoder's first layer is provably dead over the feature box
    poison(&mut model, "enc.Source.0.w", -10.0);
    poison(&mut model, "enc.Source.0.b", -1.0);
    let cert = certify_model(&model, &small_cert_cfg()).expect("structure ok");
    let report = Report::new(cert.diagnostics());
    assert!(report.has_code("ZT603"), "{report}");
    assert!(cert.summary().dead_units > 0);
}

#[test]
fn zt604_triggers_on_zero_sensitivity_features() {
    let mut model = mini_model();
    // zeroing the Filter encoder's first weight matrix severs every
    // input feature from the network — certified-zero sensitivity
    poison(&mut model, "enc.Filter.0.w", 0.0);
    let cert = certify_model(&model, &small_cert_cfg()).expect("structure ok");
    let report = Report::new(cert.diagnostics());
    assert!(report.has_code("ZT604"), "{report}");
    assert!(cert.summary().zero_sensitivity_features > 0);
}

#[test]
fn zt605_triggers_on_escaped_prediction() {
    let model = mini_model();
    let cert = certify_model(&model, &small_cert_cfg()).expect("structure ok");
    let flagged = cert.check_prediction(0, [f32::MAX, 0.0]);
    assert!(has(&flagged, "ZT605"), "{flagged:?}");

    // The denormalized variant needs a *tight* certified bracket to be
    // escapable (log-space compression keeps any finite prediction inside
    // a fresh model's astronomically wide bracket): a hijacked
    // constant-1e6 latency head certifies to a narrow bracket around
    // z = 1e6, which an ordinary prediction provably escapes.
    let mut hijacked = mini_model();
    poison(&mut hijacked, "readout.latency.0.w", 0.0);
    poison(&mut hijacked, "readout.latency.0.b", 0.0);
    poison(&mut hijacked, "readout.latency.1.w", 0.0);
    poison(&mut hijacked, "readout.latency.1.b", 1e6);
    let tight = certify_model(&hijacked, &small_cert_cfg()).expect("structure ok");
    let ordinary = zerotune::core::CostPrediction {
        latency_ms: 1.0,
        throughput: 1.0,
    };
    let flagged = tight.check_prediction_denorm(0, &ordinary);
    assert!(has(&flagged, "ZT605"), "{flagged:?}");
}

#[test]
fn certification_family_clean_on_fresh_model() {
    let (cert, report) = certify_report(&mini_model());
    let cert = cert.expect("fresh model certifies");
    assert!(!report.has_errors(), "{report}");
    let summary = cert.summary();
    assert!(summary.certified);
    assert!(summary.errors.is_empty());
}

#[test]
fn strict_train_runs_post_training_certification() {
    // a clean run must survive the new post-training certify pass
    let data = gen_data(24, 5);
    let mut model = mini_model();
    let report = train(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 2,
            strict: true,
            ..TrainConfig::default()
        },
    );
    assert!(report.epochs_run > 0);
    let (_, cert_report) = certify_report(&model);
    assert!(!cert_report.has_errors(), "{cert_report}");
}
