//! Tune-throughput runner: candidates covered per second by `tune`.
//!
//! Three sections, all saved to `results/BENCH_tune_scale.json`:
//!
//! * **plans** — end-to-end flat-search candidates/sec on a linear, a
//!   joining and a multi-sink shared-subplan query (the historical
//!   numbers; the IR's CSR topology is sealed once and reused per
//!   candidate).
//! * **search** — the product-lattice space on deep filter chains and a
//!   wide fan-out plan, covered by bounds-guided branch-and-bound versus
//!   exhaustive scoring. Both return the identical winner by
//!   construction; the branch-and-bound walk certifies subtrees
//!   infeasible from parallelism-independent work floors and never
//!   analyzes them, so its candidates/sec (lattice points *covered* per
//!   second, analyzed or provably skipped) scales past the exhaustive
//!   rate as plans get deeper.
//! * **kernels** — lane-vs-scalar matmul wall clock on the GNN's hot
//!   shapes (hidden panels, the 2-column read-out head). Build with
//!   `RUSTFLAGS="-C target-cpu=native"` to let the lane kernel fuse
//!   multiply-adds; the JSON records the build's actual features.
//!
//! Usage: `cargo run --release --bin bench_tune_scale [-- [--smoke] [reps]]`
//!
//! `--smoke` keeps lattices at ≤4096 points and one timed rep so CI can
//! regenerate the artifact in seconds.

use serde::Serialize;
use std::time::Instant;
use zt_core::model::{ModelConfig, ZeroTuneModel};
use zt_core::optimizer::{tune, OptimizerConfig, SearchSpace, TuningOutcome};
use zt_dspsim::cluster::{Cluster, ClusterType};
use zt_nn::kernels::{matmul_into_lanes, matmul_into_scalar, ACTIVE_KERNELS};
use zt_query::benchmarks::{smart_grid_combined, spike_detection};
use zt_query::LogicalPlan;

#[derive(Serialize)]
struct PlanThroughput {
    plan: String,
    ops: usize,
    sinks: usize,
    candidates_evaluated: usize,
    candidates_pruned: usize,
    elapsed_ms: f64,
    candidates_per_sec: f64,
}

#[derive(Serialize)]
struct SearchMode {
    elapsed_ms: f64,
    /// Lattice points covered per second: the full lattice size over the
    /// wall clock (branch-and-bound covers skipped points by certificate,
    /// exhaustive scoring by analyzing each one).
    candidates_per_sec: f64,
    /// Leaves actually run through the interval analysis.
    visited: u64,
    /// Subtrees cut by the per-operator infeasibility certificate.
    subtrees_pruned: u64,
    parallelism: Vec<u32>,
}

#[derive(Serialize)]
struct SearchScale {
    plan: String,
    ops: usize,
    lattice_size: u64,
    bnb: SearchMode,
    /// Absent when the lattice is too large to score exhaustively.
    exhaustive: Option<SearchMode>,
    /// candidates/sec ratio bnb ÷ exhaustive (when both ran).
    speedup: Option<f64>,
    /// Winners compared whenever both modes ran — must always be true.
    same_winner: Option<bool>,
}

#[derive(Serialize)]
struct KernelShape {
    rows: usize,
    inner: usize,
    cols: usize,
    lanes_us_per_op: f64,
    scalar_us_per_op: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct TuneScaleReport {
    smoke: bool,
    reps: usize,
    hidden: usize,
    active_kernels: &'static str,
    fma: bool,
    plans: Vec<PlanThroughput>,
    search: Vec<SearchScale>,
    kernels: Vec<KernelShape>,
    matmul_speedup_max: f64,
}

fn cluster() -> Cluster {
    Cluster::homogeneous(ClusterType::M510, 4, 10.0)
}

fn model() -> ZeroTuneModel {
    ZeroTuneModel::new(ModelConfig {
        hidden: 48,
        seed: 7,
    })
}

fn measure(name: &str, plan: &LogicalPlan, reps: usize) -> PlanThroughput {
    let cluster = cluster();
    let model = model();
    let cfg = OptimizerConfig {
        strict: false,
        ..OptimizerConfig::default()
    };
    // warm-up run, then timed reps
    let warm = tune(&model, plan, &cluster, &cfg).expect("benchmark plans are valid");
    let start = Instant::now();
    let mut evaluated = 0usize;
    for _ in 0..reps {
        let out = tune(&model, plan, &cluster, &cfg).expect("benchmark plans are valid");
        evaluated += out.candidates_evaluated;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let ir = plan.validate().expect("benchmark plans are valid");
    PlanThroughput {
        plan: name.to_string(),
        ops: plan.num_ops(),
        sinks: ir.sinks().len(),
        candidates_evaluated: evaluated / reps.max(1),
        candidates_pruned: warm.candidates_pruned,
        elapsed_ms: elapsed * 1e3,
        candidates_per_sec: evaluated as f64 / elapsed.max(f64::MIN_POSITIVE),
    }
}

/// `source → filter^(ops-2) → sink`: depth grows the parallelism lattice
/// exponentially while the high source rate keeps low-degree subtrees
/// provably infeasible — the branch-and-bound sweet spot.
fn filter_chain(rate: f64, ops: usize) -> LogicalPlan {
    use zt_query::{DataType, FilterFunction, FilterOp, OperatorKind, SourceOp, TupleSchema};
    assert!(ops >= 3, "need source + filter + sink");
    let mut p = LogicalPlan::new(format!("filter_chain_{ops}"));
    let mut prev = p.add(OperatorKind::Source(SourceOp {
        event_rate: rate,
        schema: TupleSchema::uniform(DataType::Double, 3),
        key_cardinality: None,
    }));
    for _ in 0..ops - 2 {
        let f = p.add(OperatorKind::Filter(FilterOp {
            function: FilterFunction::Gt,
            literal_class: DataType::Double,
            selectivity: 0.95,
        }));
        p.connect(prev, f);
        prev = f;
    }
    let k = p.add(OperatorKind::Sink(zt_query::operators::SinkOp));
    p.connect(prev, k);
    p
}

/// `source → (filter → sink)^branches`: a wide multi-sink fan-out, the
/// other axis of lattice growth.
fn fan_out(rate: f64, branches: usize) -> LogicalPlan {
    use zt_query::{DataType, FilterFunction, FilterOp, OperatorKind, SourceOp, TupleSchema};
    let mut p = LogicalPlan::new(format!("fan_out_{branches}"));
    let s = p.add(OperatorKind::Source(SourceOp {
        event_rate: rate,
        schema: TupleSchema::uniform(DataType::Double, 3),
        key_cardinality: None,
    }));
    for _ in 0..branches {
        let f = p.add(OperatorKind::Filter(FilterOp {
            function: FilterFunction::Gt,
            literal_class: DataType::Double,
            selectivity: 0.95,
        }));
        let k = p.add(OperatorKind::Sink(zt_query::operators::SinkOp));
        p.connect(s, f);
        p.connect(f, k);
    }
    p
}

fn run_mode(plan: &LogicalPlan, prune: bool, reps: usize) -> (SearchMode, TuningOutcome) {
    let cluster = cluster();
    let model = model();
    let cfg = OptimizerConfig {
        strict: false,
        prune,
        search: SearchSpace::Lattice {
            max_degrees_per_op: 2,
            visit_budget: 8_000_000,
        },
        ..OptimizerConfig::default()
    };
    let reps = reps.max(1);
    let warm = tune(&model, plan, &cluster, &cfg).expect("benchmark plans are valid");
    let start = Instant::now();
    let mut last = warm;
    for _ in 0..reps {
        last = tune(&model, plan, &cluster, &cfg).expect("benchmark plans are valid");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let covered = last.search_space.saturating_mul(reps as u64);
    (
        SearchMode {
            elapsed_ms: elapsed * 1e3,
            candidates_per_sec: covered as f64 / elapsed.max(f64::MIN_POSITIVE),
            visited: last.search_visited,
            subtrees_pruned: last.search_subtrees_pruned,
            parallelism: last.parallelism.clone(),
        },
        last,
    )
}

fn search_scale(name: &str, plan: &LogicalPlan, reps: usize, exhaustive_cap: u64) -> SearchScale {
    let (bnb, bnb_out) = run_mode(plan, true, reps);
    let run_exhaustive = bnb_out.search_space <= exhaustive_cap;
    let exhaustive = run_exhaustive.then(|| run_mode(plan, false, reps).0);
    let speedup = exhaustive
        .as_ref()
        .map(|e| bnb.candidates_per_sec / e.candidates_per_sec.max(f64::MIN_POSITIVE));
    let same_winner = exhaustive
        .as_ref()
        .map(|e| e.parallelism == bnb.parallelism);
    assert!(
        same_winner != Some(false),
        "branch-and-bound and exhaustive scoring disagree on {name}"
    );
    SearchScale {
        plan: name.to_string(),
        ops: plan.num_ops(),
        lattice_size: bnb_out.search_space,
        bnb,
        exhaustive,
        speedup,
        same_winner,
    }
}

fn time_matmul(rows: usize, inner: usize, cols: usize, lanes: bool, reps: usize) -> f64 {
    let fill = |n: usize, seed: u32| -> Vec<f32> {
        let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5
            })
            .collect()
    };
    let a = fill(rows * inner, 11);
    let b = fill(inner * cols, 12);
    let mut out = vec![0.0f32; rows * cols];
    let mut run_batch = |n: usize| -> f64 {
        let start = Instant::now();
        for _ in 0..n {
            out.fill(0.0);
            if lanes {
                matmul_into_lanes(&a, rows, inner, &b, cols, &mut out);
            } else {
                matmul_into_scalar(&a, rows, inner, &b, cols, &mut out);
            }
            std::hint::black_box(&out[0]);
        }
        start.elapsed().as_secs_f64() / n as f64 * 1e6
    };
    // warm-up, then best-of-batches: the minimum is robust against the
    // scheduling noise of shared single-core runners.
    run_batch(reps / 4 + 1);
    const BATCHES: usize = 8;
    let per_batch = (reps / BATCHES).max(8);
    (0..BATCHES).fold(f64::INFINITY, |best, _| best.min(run_batch(per_batch)))
}

fn kernel_shapes(smoke: bool) -> Vec<KernelShape> {
    let shapes: &[(usize, usize, usize, usize)] = &[
        (16, 48, 48, 4000),
        (64, 64, 64, 2000),
        (256, 48, 48, 500),
        (64, 48, 2, 8000),
    ];
    shapes
        .iter()
        .map(|&(rows, inner, cols, full_reps)| {
            let reps = if smoke { full_reps / 10 + 1 } else { full_reps };
            let lanes_us = time_matmul(rows, inner, cols, true, reps);
            let scalar_us = time_matmul(rows, inner, cols, false, reps);
            KernelShape {
                rows,
                inner,
                cols,
                lanes_us_per_op: lanes_us,
                scalar_us_per_op: scalar_us,
                speedup: scalar_us / lanes_us.max(f64::MIN_POSITIVE),
            }
        })
        .collect()
}

fn main() {
    let mut smoke = false;
    let mut reps = 3usize;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => {
                if let Ok(n) = other.parse() {
                    reps = n;
                }
            }
        }
    }
    if smoke {
        reps = 1;
    }
    let exhaustive_cap = 4_096u64;
    let search_rate = 5_000_000.0;

    let mut search = vec![
        search_scale(
            "filter_chain_12",
            &filter_chain(search_rate, 12),
            reps,
            exhaustive_cap,
        ),
        search_scale("fan_out_7", &fan_out(search_rate, 7), reps, exhaustive_cap),
    ];
    if !smoke {
        search.push(search_scale(
            "filter_chain_16",
            &filter_chain(search_rate, 16),
            reps,
            exhaustive_cap,
        ));
        search.push(search_scale(
            "filter_chain_20",
            &filter_chain(search_rate, 20),
            reps,
            exhaustive_cap,
        ));
    }

    let kernels = kernel_shapes(smoke);
    let matmul_speedup_max = kernels.iter().fold(0.0f64, |m, k| m.max(k.speedup));

    let report = TuneScaleReport {
        smoke,
        reps,
        hidden: 48,
        active_kernels: ACTIVE_KERNELS,
        fma: cfg!(target_feature = "fma"),
        plans: vec![
            measure("linear_filter", &filter_chain(500_000.0, 3), reps),
            measure("spike_detection", &spike_detection(500_000.0), reps),
            measure("smart_grid_combined", &smart_grid_combined(500_000.0), reps),
        ],
        search,
        kernels,
        matmul_speedup_max,
    };

    for p in &report.plans {
        println!(
            "{:<22} ops={:<2} sinks={} candidates={:<5} {:>10.1} candidates/sec",
            p.plan, p.ops, p.sinks, p.candidates_evaluated, p.candidates_per_sec
        );
    }
    for s in &report.search {
        let exh = s.exhaustive.as_ref().map_or("n/a".to_string(), |e| {
            format!("{:.0}", e.candidates_per_sec)
        });
        println!(
            "{:<22} ops={:<2} lattice={:<8} bnb {:>10.0} cand/s (visited {:>6}, pruned {:>6}) exhaustive {exh} cand/s{}",
            s.plan,
            s.ops,
            s.lattice_size,
            s.bnb.candidates_per_sec,
            s.bnb.visited,
            s.bnb.subtrees_pruned,
            s.speedup.map_or(String::new(), |x| format!(" => {x:.1}x")),
        );
    }
    for k in &report.kernels {
        println!(
            "matmul {:>3}x{:>3}x{:>3}: lanes {:>8.2} µs, scalar {:>8.2} µs, speedup {:.2}x",
            k.rows, k.inner, k.cols, k.lanes_us_per_op, k.scalar_us_per_op, k.speedup
        );
    }
    match zt_experiments::report::save_json("BENCH_tune_scale", &report) {
        Ok(path) => eprintln!("saved {}", path.display()),
        Err(e) => eprintln!("failed to save report: {e}"),
    }
}
