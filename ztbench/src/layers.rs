//! Per-layer numbers of a traced run.
//!
//! After the traced round, the workload's own inputs are replayed
//! in-process, stage by stage, through each layer's public functions in
//! the order the daemon or `tune` calls them. Every stage is a span, so a
//! layer's self time is its span minus its children. Layers a workload
//! does not exercise are replayed on the inputs of the workload that
//! does, from the same seed, so every traced run reports every layer.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zt_core::optimizer::{enumerate_candidates, measured_weighted_cost};
use zt_core::{
    analyze_with, branch_and_bound, certify_model, prune_mask, train, tune, work_floors,
    BoundsConfig, BoundsReport, CertifyConfig, CostEstimator, EncodeContext, GenPlan,
    GraphEncoding, ModelConfig, OptimizerConfig, ParallelismLattice, SearchSpace, ZeroTuneModel,
};
use zt_dspsim::analytical::{simulate_core, SimConfig};
use zt_dspsim::cluster::Cluster;
use zt_dspsim::ChainingMode;
use zt_query::{LogicalPlan, ParallelQueryPlan, QueryGenerator};
use zt_serve::batch::MicroBatcher;
use zt_serve::cache::ResponseCache;
use zt_serve::{ModelRegistry, ServeConfig};

use crate::inputs::{self, Kind, Shot};
use crate::library::{lattice_config, train_config};
use crate::serve::{encode_request, server_tune_config, ServeInputs};
use crate::spans::Trace;
use crate::stats;
use crate::workload::{Check, Outcome, P50_MS};

/// Every per-layer metric with its unit.
pub const LAYER_METRICS: [(&str, &str); 34] = [
    ("harness.late_p99_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
    ("http.connect_us", "us"),
    ("http.ttfb_us", "us"),
    ("serve.residual_us", "us"),
    ("api.parse_us", "us"),
    ("api.decode_seal_us", "us"),
    ("graph.encode_us", "us"),
    ("graph.encode_candidate_us", "us"),
    ("cache.key_us", "us"),
    ("cache.get_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("batch.wait_us", "us"),
    ("batch.size_mean", "count"),
    ("model.predict1_us", "us"),
    ("model.batch32_us_per_graph", "us"),
    ("kernels.matmul_16x48x48_us", "us"),
    ("kernels.matmul_64x48x2_us", "us"),
    ("registry.swap_ms", "ms"),
    ("certify.model_ms", "ms"),
    ("optimizer.enumerate_us", "us"),
    ("optimizer.argmin_us", "us"),
    ("optimizer.candidates_scored", "count"),
    ("optimizer.pruned_ratio", "ratio"),
    ("bounds.analyze_us", "us"),
    ("bounds.prune_mask_us", "us"),
    ("lattice.bnb_ms", "ms"),
    ("lattice.leaves_analyzed", "count"),
    ("lattice.useful_ratio", "ratio"),
    ("datagen.sample_us", "us"),
    ("sim.solve_us", "us"),
    ("train.epoch_s", "s"),
    ("train.sample_us", "us"),
];

pub fn unit_of(name: &str) -> &'static str {
    LAYER_METRICS
        .iter()
        .find(|(m, _)| *m == name)
        .map_or("", |(_, u)| u)
}

/// Serve requests replayed per stage, and graphs per model timing.
const SERVE_REPLAY: usize = 1000;
/// Arrival-schedule length of the batcher replay, in requests.
const BATCH_REPLAY: usize = 1000;
const SWAP_REPLAY: usize = 4;
const SIM_REPLAY: usize = 4096;
/// The training pipeline's first datagen chunk, also trained on for one epoch.
const DATAGEN_REPLAY: usize = 4096;

fn us(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e6
}

fn p50(xs: &[f64]) -> f64 {
    stats::quantile(xs, 0.5).unwrap_or(f64::NAN)
}

/// Collects the replay's metrics and spans.
pub struct Replay<'t> {
    pub metrics: BTreeMap<String, f64>,
    pub trace: &'t mut Trace,
    pub checks: Vec<Check>,
    next_id: u64,
}

impl<'t> Replay<'t> {
    pub fn new(trace: &'t mut Trace) -> Self {
        Replay {
            metrics: BTreeMap::new(),
            trace,
            checks: Vec::new(),
            next_id: 1 << 32,
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }
}

/// Median connect and time-to-first-byte of the traced requests, in µs.
pub fn request_spans(requests: &Trace) -> (f64, f64) {
    (
        p50(&requests.durations_us("connect")),
        p50(&requests.durations_us("wait")),
    )
}

/// `serve.residual_us`: the traced `/predict` median minus the replayed
/// stage medians (call after the serve-path, cache and model replays).
pub fn residual(predict_p50_ms: f64, replay: &mut Replay) {
    let stages: f64 = [
        "api.parse_us",
        "api.decode_seal_us",
        "graph.encode_us",
        "cache.key_us",
        "cache.get_us",
        "model.predict1_us",
    ]
    .iter()
    .map(|k| replay.metrics.get(*k).copied().unwrap_or(0.0))
    .sum();
    replay.set("serve.residual_us", predict_p50_ms * 1e3 - stages);
}

/// `/predict` miss path up to the batcher, stage by stage: parse, decode
/// and seal, encode, cache key render. Returns the encodings.
pub fn serve_path(shots: &[Shot], replay: &mut Replay) -> Result<Vec<GraphEncoding>, String> {
    let cluster = zt_serve::default_cluster();
    let mask = zt_core::FeatureMask::all();
    let (mut parse, mut decode, mut encode, mut key) = (vec![], vec![], vec![], vec![]);
    let mut graphs = Vec::new();
    for shot in shots
        .iter()
        .filter(|s| s.kind == Kind::Predict)
        .take(SERVE_REPLAY)
    {
        let id = replay.id();
        let t0 = Instant::now();
        let v = zt_serve::api::parse_body(shot.body().as_bytes()).map_err(|e| e.message)?;
        let t1 = Instant::now();
        let (pqp, ir) = zt_serve::api::deployment(&v).map_err(|e| e.message)?;
        let t2 = Instant::now();
        let graph = EncodeContext::with_ir(&pqp.plan, &ir, &cluster, &mask).encode_sealed(
            &pqp,
            &ir,
            &cluster,
            ChainingMode::Auto,
        );
        let t3 = Instant::now();
        let graph_json = serde_json::to_string(&graph).map_err(|e| e.to_string())?;
        let k = format!("v1|{graph_json}");
        let t4 = Instant::now();
        std::hint::black_box(&k);
        let root = replay.trace.push("predict.replay", t0, t4, None, id);
        replay.trace.push("api.parse", t0, t1, Some(root), id);
        replay.trace.push("api.decode_seal", t1, t2, Some(root), id);
        replay.trace.push("graph.encode", t2, t3, Some(root), id);
        replay.trace.push("cache.key", t3, t4, Some(root), id);
        parse.push(us(t0, t1));
        decode.push(us(t1, t2));
        encode.push(us(t2, t3));
        key.push(us(t3, t4));
        graphs.push(graph);
    }
    replay.set("api.parse_us", p50(&parse));
    replay.set("api.decode_seal_us", p50(&decode));
    replay.set("graph.encode_us", p50(&encode));
    replay.set("cache.key_us", p50(&key));
    Ok(graphs)
}

/// The mixed workload's `/predict` key stream through a `ResponseCache`
/// of the daemon's capacity, cleared where `/swap` lands, exactly as the
/// handler uses it: look up, and on a miss insert the rendered body.
pub fn cache_replay(mixed: &ServeInputs, replay: &mut Replay) -> Result<(), String> {
    let cache = ResponseCache::new(ServeConfig::default().cache_capacity);
    let swap_at: Vec<usize> = mixed
        .swaps
        .iter()
        .map(|(at, _)| (at.as_secs_f64() * mixed.rate).ceil() as usize)
        .collect();
    let mut version = 1u64;
    let (mut get, mut insert) = (vec![], vec![]);
    let body = "{\"model_version\":1,\"latency_ms\":1.0,\"throughput\":1.0}".to_string();
    for (i, shot) in mixed.open.iter().enumerate() {
        if swap_at.contains(&i) {
            cache.clear();
            version += 1;
        }
        if shot.kind != Kind::Predict {
            continue;
        }
        let graph = encode_request(shot.body())?;
        let graph_json = serde_json::to_string(&graph).map_err(|e| e.to_string())?;
        let key = format!("v{version}|{graph_json}");
        let t0 = Instant::now();
        let hit = cache.get(&key);
        let t1 = Instant::now();
        get.push(us(t0, t1));
        if hit.is_none() {
            cache.insert(key, body.clone());
            insert.push(us(t1, Instant::now()));
        }
    }
    let s = cache.stats();
    replay.set("cache.get_us", p50(&get));
    replay.set("cache.insert_us", p50(&insert));
    replay.set(
        "cache.hit_ratio",
        s.hits as f64 / (s.hits + s.misses).max(1) as f64,
    );
    Ok(())
}

/// `MicroBatcher` + `run_scorer` fed on the workload's arrival schedule
/// by two submitting threads. Batch sizes and scoring time come from
/// the batcher's own `serve.batch_size` histogram and `serve.batch` span,
/// recorded only for this replay.
pub fn batch_replay(graphs: &[GraphEncoding], rate: f64, replay: &mut Replay) {
    let cfg = ServeConfig::default();
    let batcher = MicroBatcher::new(cfg.batch_max, cfg.batch_wait_us);
    let registry = ModelRegistry::new(ZeroTuneModel::new(ModelConfig::default()));
    let n = BATCH_REPLAY.min(graphs.len());
    zt_telemetry::reset();
    zt_telemetry::set_mode(zt_telemetry::Mode::Summary);
    let t0 = Instant::now() + std::time::Duration::from_millis(2);
    let turnaround: Vec<f64> = std::thread::scope(|s| {
        let scorer = s.spawn(|| batcher.run_scorer(&registry));
        let senders: Vec<_> = (0..2)
            .map(|t| {
                let batcher = &batcher;
                s.spawn(move || {
                    (t..n)
                        .step_by(2)
                        .map(|i| {
                            let due = t0 + std::time::Duration::from_secs_f64(i as f64 / rate);
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            let start = Instant::now();
                            let rx = batcher.submit(graphs[i % graphs.len()].clone());
                            let _ = rx.recv();
                            us(start, Instant::now())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<f64> = senders
            .into_iter()
            .flat_map(|h| h.join().expect("batch sender"))
            .collect();
        batcher.shutdown();
        scorer.join().expect("scorer");
        all
    });
    let snap = zt_telemetry::snapshot();
    zt_telemetry::set_mode(zt_telemetry::Mode::Off);
    zt_telemetry::reset();
    let size_mean = snap
        .histograms
        .get("serve.batch_size")
        .map_or(f64::NAN, zt_telemetry::Summary::mean);
    let scoring_us = snap
        .span_durations
        .get("serve.batch")
        .map_or(f64::NAN, |s| s.median() * 1e3);
    replay.set("batch.wait_us", p50(&turnaround) - scoring_us);
    replay.set("batch.size_mean", size_mean);
}

/// `predict_batch` on one graph, and per graph on batches of 32.
pub fn model_layers(graphs: &[GraphEncoding], replay: &mut Replay) {
    let model = ZeroTuneModel::new(ModelConfig::default());
    let one: Vec<f64> = graphs
        .iter()
        .map(|g| {
            let t = Instant::now();
            std::hint::black_box(model.predict_batch(std::slice::from_ref(g)));
            us(t, Instant::now())
        })
        .collect();
    let per_graph: Vec<f64> = graphs
        .chunks_exact(32)
        .map(|batch| {
            let t = Instant::now();
            std::hint::black_box(model.predict_batch(batch));
            us(t, Instant::now()) / 32.0
        })
        .collect();
    replay.set("model.predict1_us", p50(&one));
    replay.set("model.batch32_us_per_graph", p50(&per_graph));
}

/// Lane matmul on the GNN's hidden panel and read-out head shapes:
/// the median of 9 batches.
pub fn kernel_layers(replay: &mut Replay) {
    for (name, rows, inner, cols, reps) in [
        ("kernels.matmul_16x48x48_us", 16, 48, 48, 2000),
        ("kernels.matmul_64x48x2_us", 64, 48, 2, 4000),
    ] {
        let fill = |n: usize, salt: u32| -> Vec<f32> {
            (0..n as u32)
                .map(|i| {
                    ((i.wrapping_mul(2_654_435_761) ^ salt) >> 8) as f32 / (1 << 24) as f32 - 0.5
                })
                .collect()
        };
        let a = fill(rows * inner, 11);
        let b = fill(inner * cols, 12);
        let mut out = vec![0.0f32; rows * cols];
        let batches: Vec<f64> = (0..9)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..reps {
                    zt_nn::kernels::matmul_into_lanes(&a, rows, inner, &b, cols, &mut out);
                    std::hint::black_box(&out);
                }
                us(t, Instant::now()) / f64::from(reps)
            })
            .collect();
        replay.set(name, p50(&batches));
    }
}

/// `ModelRegistry::swap_json` (parse, lint, certify, install) between the
/// two swap models, and `certify_model` alone.
pub fn registry_layers(seed: u64, replay: &mut Replay) {
    let models = inputs::swap_models(seed);
    let texts = [models[0].to_json(), models[1].to_json()];
    let registry = ModelRegistry::new(ZeroTuneModel::new(ModelConfig::default()));
    let swaps: Vec<f64> = (0..SWAP_REPLAY)
        .map(|k| {
            let t = Instant::now();
            let _ = registry.swap_json(&texts[k % 2]);
            us(t, Instant::now()) / 1e3
        })
        .collect();
    let certs: Vec<f64> = (0..SWAP_REPLAY)
        .map(|k| {
            let t = Instant::now();
            std::hint::black_box(certify_model(&models[k % 2], &CertifyConfig::default()).is_ok());
            us(t, Instant::now()) / 1e3
        })
        .collect();
    replay.set("registry.swap_ms", p50(&swaps));
    replay.set("certify.model_ms", p50(&certs));
}

/// Which search a `tune` call took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    Flat,
    Exhaustive,
    BranchAndBound,
}

/// One replayed `tune` call: its winner, route, counts and stage times.
struct TuneReplay {
    parallelism: Vec<u32>,
    route: Route,
    space: u64,
    visited: u64,
    scored: usize,
    enumerate_us: f64,
    analyze_us: f64,
    prune_mask_us: f64,
    bnb_us: f64,
    encode_us: f64,
    argmin_us: f64,
}

/// `tune`'s pipeline rebuilt from public functions, stage by stage:
/// enumerate, (lattice + key-cardinality cap,) bounds pre-pass or
/// branch-and-bound, prune mask, encode, `predict_batch`, argmin of Eq. 1.
/// Only the pruning configurations the benchmark runs are replayed.
fn replay_tune(
    model: &ZeroTuneModel,
    plan: &LogicalPlan,
    cluster: &Cluster,
    cfg: &OptimizerConfig,
    trace: &mut Trace,
    id: u64,
) -> Result<TuneReplay, String> {
    assert!(
        cfg.prune && !cfg.strict,
        "replay covers the pruning, non-strict configurations"
    );
    let start = Instant::now();
    let ir = plan.validate().map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let candidates = enumerate_candidates(plan, cluster, cfg, &mut rng);
    let enumerated = Instant::now();
    let root = trace.push("tune.replay", start, start, None, id);
    trace.push("tune.enumerate", start, enumerated, Some(root), id);
    let bcfg = BoundsConfig {
        chaining: cfg.chaining,
        ..BoundsConfig::default()
    };
    let mut r = TuneReplay {
        parallelism: Vec::new(),
        route: Route::Flat,
        space: candidates.len() as u64,
        visited: 0,
        scored: 0,
        enumerate_us: us(start, enumerated),
        analyze_us: 0.0,
        prune_mask_us: 0.0,
        bnb_us: 0.0,
        encode_us: 0.0,
        argmin_us: 0.0,
    };

    // The candidate list to run the bounds pre-pass over, or the
    // branch-and-bound survivors, which skip it.
    let mut prepass: Option<Vec<Vec<u32>>> = Some(candidates.clone());
    let mut survivors = Vec::new();
    if let SearchSpace::Lattice {
        max_degrees_per_op,
        visit_budget,
    } = cfg.search
    {
        let mut lattice = ParallelismLattice::from_candidates(&candidates, max_degrees_per_op);
        if cfg.dataflow_cap {
            for (i, op) in plan.ops().iter().enumerate() {
                let Some(cap) = op.kind.parallelism_cap() else {
                    continue;
                };
                let degrees = &mut lattice.degrees[i];
                let Some(&rep) = degrees.iter().find(|&&d| d >= cap) else {
                    continue;
                };
                if degrees.iter().any(|&d| d > rep) {
                    degrees.retain(|&d| d < cap || d == rep);
                }
            }
        }
        r.space = lattice.size();
        let probe = ParallelQueryPlan::new(plan.clone());
        let all_infeasible = work_floors(&probe, &ir, cluster, &bcfg).plan_util_floor() >= 1.0;
        let exhaustive = r.space <= 32 || all_infeasible;
        let mut feasible = false;
        if !exhaustive {
            let t = Instant::now();
            let search = branch_and_bound(plan, &ir, cluster, &bcfg, &lattice, visit_budget);
            let done = Instant::now();
            trace.push("lattice.bnb", t, done, Some(root), id);
            r.bnb_us = us(t, done);
            if search.budget_exhausted {
                return Err("lattice search budget exhausted".into());
            }
            feasible = search.feasible_found;
            if feasible {
                r.route = Route::BranchAndBound;
                r.visited = search.stats.leaves_analyzed;
                let (cands, reports): (Vec<Vec<u32>>, Vec<BoundsReport>) =
                    search.analyzed.into_iter().unzip();
                let t = Instant::now();
                let keep = prune_mask(&reports);
                let done = Instant::now();
                trace.push("bounds.prune_mask", t, done, Some(root), id);
                r.prune_mask_us = us(t, done);
                survivors = cands
                    .into_iter()
                    .zip(keep)
                    .filter_map(|(c, k)| k.then_some(c))
                    .collect();
                prepass = None;
            }
        }
        if !feasible {
            if r.space > visit_budget as u64 {
                return Err("lattice too large to score exhaustively".into());
            }
            r.route = Route::Exhaustive;
            prepass = Some(lattice.enumerate());
        }
    }

    if let Some(cands) = prepass {
        if cands.len() > 1 {
            let t = Instant::now();
            let mut probe = ParallelQueryPlan::new(plan.clone());
            let reports: Vec<BoundsReport> = cands
                .iter()
                .map(|c| {
                    probe.parallelism.clone_from(c);
                    probe.reset_partitioning();
                    analyze_with(&probe, &ir, cluster, &bcfg)
                })
                .collect();
            let analyzed = Instant::now();
            let keep = prune_mask(&reports);
            let masked = Instant::now();
            trace.push("bounds.analyze", t, analyzed, Some(root), id);
            trace.push("bounds.prune_mask", analyzed, masked, Some(root), id);
            r.analyze_us = us(t, analyzed);
            r.prune_mask_us = us(analyzed, masked);
            r.visited = reports.len() as u64;
            survivors = cands
                .into_iter()
                .zip(keep)
                .filter_map(|(c, k)| k.then_some(c))
                .collect();
        } else {
            survivors = cands;
        }
    }

    let t = Instant::now();
    let ctx = EncodeContext::with_ir(plan, &ir, cluster, &cfg.mask);
    let mut pqp = ParallelQueryPlan::new(plan.clone());
    let graphs: Vec<GraphEncoding> = survivors
        .iter()
        .map(|c| {
            pqp.parallelism.clone_from(c);
            pqp.reset_partitioning();
            ctx.encode_sealed(&pqp, &ir, cluster, cfg.chaining)
        })
        .collect();
    let encoded = Instant::now();
    let preds = model.predict_batch(&graphs);
    let scored = Instant::now();
    let range = |f: fn(&zt_core::CostPrediction) -> f64| {
        preds
            .iter()
            .map(f)
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            })
    };
    let lat = range(|p| p.latency_ms);
    let tpt = range(|p| p.throughput);
    let mut best: Option<(usize, f64)> = None;
    for (i, p) in preds.iter().enumerate() {
        let c = measured_weighted_cost(cfg.wt, p.latency_ms, p.throughput, lat, tpt);
        if best.is_none_or(|(_, bc)| c < bc) {
            best = Some((i, c));
        }
    }
    let picked = Instant::now();
    trace.push("graph.encode", t, encoded, Some(root), id);
    trace.push("model.predict_batch", encoded, scored, Some(root), id);
    trace.push("optimizer.argmin", scored, picked, Some(root), id);
    trace.set_end(root, picked);
    r.encode_us = us(t, encoded);
    r.argmin_us = us(scored, picked);
    r.scored = survivors.len();
    let (i, _) = best.ok_or("no candidate survived")?;
    r.parallelism = survivors[i].clone();
    Ok(r)
}

/// Replay `tune` over `plans` and check that every replay takes `tune`'s
/// own route and picks its parallelism. Returns the replays.
fn tune_replays(
    plans: &[LogicalPlan],
    cfg: &OptimizerConfig,
    replay: &mut Replay,
    label: &str,
) -> Vec<TuneReplay> {
    let model = ZeroTuneModel::new(ModelConfig::default());
    let cluster = zt_serve::default_cluster();
    let mut out = Vec::new();
    let mut mismatch = None;
    for (i, plan) in plans.iter().enumerate() {
        let id = replay.id();
        let replayed = replay_tune(&model, plan, &cluster, cfg, replay.trace, id);
        let real = tune(&model, plan, &cluster, cfg);
        match (replayed, real) {
            (Ok(r), Ok(t))
                if r.parallelism == t.parallelism
                    && r.scored == t.candidates_evaluated
                    && r.visited == t.search_visited
                    && r.space == t.search_space =>
            {
                out.push(r);
            }
            (r, t) => {
                mismatch.get_or_insert(format!(
                    "plan {i}: replay {:?} vs tune {:?}",
                    r.map(|r| (r.route, r.parallelism, r.scored, r.visited)),
                    t.map(|t| (t.parallelism, t.candidates_evaluated, t.search_visited))
                ));
            }
        }
    }
    replay.checks.push(Check::new(
        &format!("{label}_replay_matches_tune"),
        mismatch.is_none(),
        mismatch.unwrap_or_else(|| format!("{} plans replayed", plans.len())),
    ));
    out
}

fn sum<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    xs.iter().map(f).sum()
}

/// `optimizer.*`, `bounds.*` and `graph.encode_candidate_us` from the
/// tune route the workload exercises (`flat` for the mixed workload's
/// `/tune` pool, the lattice set otherwise), and `lattice.*` from the
/// lattice set.
pub fn tune_layers(seed: u64, mixed_pool: Option<&[LogicalPlan]>, replay: &mut Replay) {
    let lattice_plans = inputs::lattice_plans(seed);
    let lattice = tune_replays(&lattice_plans, &lattice_config(true), replay, "lattice");
    let flat = mixed_pool.map(|pool| tune_replays(pool, &server_tune_config(), replay, "flat"));
    let own = flat.as_ref().unwrap_or(&lattice);

    let enumerate: Vec<f64> = own.iter().map(|r| r.enumerate_us).collect();
    let argmin: Vec<f64> = own.iter().map(|r| r.argmin_us).collect();
    let masks: Vec<f64> = own.iter().map(|r| r.prune_mask_us).collect();
    let calls = own.len().max(1) as f64;
    let scored = sum(own, |r| r.scored as f64);
    let space = sum(own, |r| r.space as f64);
    let visited = sum(own, |r| r.visited as f64);
    replay.set("optimizer.enumerate_us", p50(&enumerate));
    replay.set("optimizer.argmin_us", p50(&argmin));
    replay.set("optimizer.candidates_scored", scored / calls);
    replay.set("optimizer.pruned_ratio", (space - scored) / space.max(1.0));
    replay.set(
        "bounds.analyze_us",
        sum(own, |r| r.analyze_us + r.bnb_us) / visited.max(1.0),
    );
    replay.set("bounds.prune_mask_us", p50(&masks));
    replay.set(
        "graph.encode_candidate_us",
        sum(own, |r| r.encode_us) / scored.max(1.0),
    );

    let bnb: Vec<&TuneReplay> = lattice
        .iter()
        .filter(|r| r.route == Route::BranchAndBound)
        .collect();
    let bnb_ms: Vec<f64> = bnb.iter().map(|r| r.bnb_us / 1e3).collect();
    let analyzed = sum(&bnb, |r| r.visited as f64);
    replay.set("lattice.bnb_ms", p50(&bnb_ms));
    replay.set(
        "lattice.leaves_analyzed",
        analyzed / bnb.len().max(1) as f64,
    );
    replay.set(
        "lattice.useful_ratio",
        sum(&bnb, |r| r.scored as f64) / analyzed.max(1.0),
    );
}

/// Datagen per sample, the analytical solver per deployment, and one
/// training epoch over the training pipeline's first chunk.
pub fn offline_layers(seed: u64, replay: &mut Replay) {
    let cfg = inputs::gen_config();
    let t = Instant::now();
    let data = zt_core::generate_dataset_with(
        &cfg,
        DATAGEN_REPLAY,
        inputs::rng_seed(seed, 16),
        &GenPlan::serial().with_workers(2),
    );
    replay.set(
        "datagen.sample_us",
        us(t, Instant::now()) / DATAGEN_REPLAY as f64,
    );

    let mut rng = inputs::rng_for(seed, 5);
    let generator = QueryGenerator::new(cfg.ranges.clone());
    let deployments: Vec<(ParallelQueryPlan, Cluster)> = (0..SIM_REPLAY)
        .map(|i| {
            let plan = generator.generate(cfg.structures[i % cfg.structures.len()], &mut rng);
            let workers = cfg.ranges.sample_num_workers(&mut rng);
            let cluster = Cluster::sample(
                &cfg.cluster_types,
                workers,
                &cfg.ranges.link_speeds_gbps,
                &mut rng,
            );
            let par = cfg.strategy.assign(&plan, &cluster, &mut rng);
            (ParallelQueryPlan::with_parallelism(plan, par), cluster)
        })
        .collect();
    let sim = SimConfig::default();
    let solves: Vec<f64> = deployments
        .iter()
        .map(|(pqp, cluster)| {
            let t = Instant::now();
            std::hint::black_box(simulate_core(pqp, cluster, &sim));
            us(t, Instant::now())
        })
        .collect();
    replay.set("sim.solve_us", p50(&solves));

    let mut model = ZeroTuneModel::new(ModelConfig::default());
    let t = Instant::now();
    train(&mut model, &data, &train_config(1));
    let epoch_s = us(t, Instant::now()) / 1e6;
    replay.set("train.epoch_s", epoch_s);
    replay.set("train.sample_us", epoch_s * 1e6 / data.len() as f64);
}

/// Traced-vs-untraced change of the workload's `p50_ms`, in percent.
pub fn trace_overhead_pct(untraced: &Outcome, traced: &Outcome) -> f64 {
    let p = |o: &Outcome| {
        crate::report::summarize(o)
            .get(P50_MS)
            .map_or(f64::NAN, |(v, _)| *v)
    };
    (p(traced) - p(untraced)) / p(untraced) * 100.0
}
