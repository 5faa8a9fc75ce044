//! The two in-process workloads: lattice tuning and the offline training
//! pipeline. Both call the library's public entry points directly.

use std::time::Instant;

use zt_core::{
    generate_dataset_with, train, tune, Dataset, GenPlan, ModelConfig, OptimizerConfig,
    SearchSpace, TrainConfig, ZeroTuneModel,
};
use zt_query::LogicalPlan;

use crate::inputs;
use crate::procfs;
use crate::spans::Trace;
use crate::stats;
use crate::workload::{
    num, Check, Outcome, Round, Settings, CPU_MS_PER_OP, OPS_PER_S, P50_MS, PEAK_RSS_MB, SETUP_S,
    TAIL_MS,
};

/// Lattices up to this size are also scored exhaustively at set-up, and
/// the branch-and-bound winner must match.
const EXHAUSTIVE_CHECK_MAX: u64 = 4096;
/// `train_pipeline`: datagen requests of `CHUNK` samples, `CHUNKS` of
/// them, with `DATAGEN_WORKERS` workers; training on the first chunk.
const CHUNK: usize = 4096;
const CHUNKS: u64 = 16;
const DATAGEN_WORKERS: usize = 2;
const EPOCHS: usize = 3;

pub fn lattice_config(prune: bool) -> OptimizerConfig {
    OptimizerConfig {
        strict: false,
        prune,
        dataflow_cap: true,
        search: SearchSpace::lattice(),
        ..OptimizerConfig::default()
    }
}

/// Branch-and-bound must pick the winner exhaustive scoring picks, on
/// every plan whose lattice is small enough to score exhaustively.
fn check_bnb_matches_exhaustive(model: &ZeroTuneModel, plans: &[LogicalPlan]) -> Check {
    let cluster = zt_serve::default_cluster();
    let mut compared = 0;
    for (i, plan) in plans.iter().enumerate() {
        let bnb = match tune(model, plan, &cluster, &lattice_config(true)) {
            Ok(o) => o,
            Err(e) => return Check::new("bnb_matches_exhaustive", false, format!("plan {i}: {e}")),
        };
        if bnb.search_space > EXHAUSTIVE_CHECK_MAX {
            continue;
        }
        let exhaustive = tune(model, plan, &cluster, &lattice_config(false));
        if exhaustive.as_ref().map(|o| &o.parallelism) != Ok(&bnb.parallelism) {
            return Check::new(
                "bnb_matches_exhaustive",
                false,
                format!(
                    "plan {i}: bnb {:?} vs exhaustive {exhaustive:?}",
                    bnb.parallelism
                ),
            );
        }
        compared += 1;
    }
    Check::new(
        "bnb_matches_exhaustive",
        compared > 0,
        format!("{compared} plans compared"),
    )
}

fn cpu_now() -> f64 {
    procfs::cpu_ms(None).unwrap_or(f64::NAN)
}

fn peak_rss() -> Option<f64> {
    procfs::peak_rss_mib(None).ok()
}

/// `tune_lattice`: one client calls `tune` over the plan set, whole
/// passes at a time, until the round's time is used.
pub fn tune_lattice(settings: &Settings, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let cluster = zt_serve::default_cluster();
    let cfg = lattice_config(true);
    let epoch = Instant::now();
    let mut trace = traced.then(|| Trace::new(epoch));
    out.checks.push(check_bnb_matches_exhaustive(
        &ZeroTuneModel::new(ModelConfig::default()),
        &inputs::lattice_plans(settings.seed),
    ));

    for _ in 0..settings.rounds {
        // Set-up: model init, input build and one warm-up pass.
        let setup = Instant::now();
        let model = ZeroTuneModel::new(ModelConfig::default());
        let plans = inputs::lattice_plans(settings.seed);
        for plan in &plans {
            let _ = tune(&model, plan, &cluster, &cfg);
        }
        let setup_s = setup.elapsed().as_secs_f64();

        let cpu_before = cpu_now();
        let start = Instant::now();
        let mut calls_ms = Vec::new();
        let mut gaps_ms = Vec::new();
        let mut ready = start;
        while start.elapsed() < settings.round {
            for plan in &plans {
                let t = Instant::now();
                let result = tune(&model, plan, &cluster, &cfg);
                let end = Instant::now();
                std::hint::black_box(&result);
                out.attempted += 1;
                out.failed += u64::from(result.is_err());
                calls_ms.push((end - t).as_secs_f64() * 1e3);
                gaps_ms.push(t.saturating_duration_since(ready).as_secs_f64() * 1e3);
                if let Some(tr) = trace.as_mut() {
                    tr.push("tune", t, end, None, out.attempted);
                }
                ready = end;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let cpu = cpu_now() - cpu_before;

        let mut r = Round::default();
        r.set(SETUP_S, Some(setup_s));
        r.set(P50_MS, stats::quantile(&calls_ms, 0.5));
        r.set(TAIL_MS, stats::supported_quantile(&calls_ms, 0.9));
        r.set(OPS_PER_S, Some(calls_ms.len() as f64 / elapsed));
        r.set(CPU_MS_PER_OP, Some(cpu / calls_ms.len() as f64));
        r.set(PEAK_RSS_MB, peak_rss());
        r.note("calls", num(calls_ms.len() as f64));
        r.note("plans", num(plans.len() as f64));
        r.note(
            "dispatch_gap_p99_ms",
            num(stats::quantile(&gaps_ms, 0.99).unwrap_or(0.0)),
        );
        out.rounds.push(r);
    }
    out.trace = trace;
    out
}

/// FNV-1a over the serialized dataset.
fn dataset_hash(data: &Dataset) -> u64 {
    let json = serde_json::to_string(data).expect("datasets serialize");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn datagen(seed: u64, n: usize, workers: usize) -> Dataset {
    generate_dataset_with(
        &inputs::gen_config(),
        n,
        seed,
        &GenPlan::serial().with_workers(workers),
    )
}

pub fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        patience: 0,
        strict: false,
        ..TrainConfig::default()
    }
}

/// Seed of datagen request `k` of a job.
fn chunk_seed(seed: u64, k: u64) -> u64 {
    inputs::rng_seed(seed, 16 + k)
}

/// `train_pipeline`: per round one job — datagen of `CHUNKS × CHUNK`
/// samples with 2 workers, then `EPOCHS` epochs on the first chunk.
pub fn train_pipeline(settings: &Settings, traced: bool) -> Outcome {
    let mut out = Outcome {
        tail_is_slowest_round: true,
        ..Outcome::default()
    };
    let epoch = Instant::now();
    let mut trace = traced.then(|| Trace::new(epoch));
    let parallel = dataset_hash(&datagen(
        chunk_seed(settings.seed, 0),
        CHUNK,
        DATAGEN_WORKERS,
    ));
    let serial = dataset_hash(&datagen(chunk_seed(settings.seed, 0), CHUNK, 1));
    out.checks.push(Check::new(
        "datagen_worker_count_invariant",
        parallel == serial,
        format!("hash {parallel:016x} with {DATAGEN_WORKERS} workers, {serial:016x} with 1"),
    ));

    for round in 0..settings.rounds {
        // Set-up: model init and a warm-up of both stages on one shard.
        let setup = Instant::now();
        let mut model = ZeroTuneModel::new(ModelConfig::default());
        let warm = datagen(chunk_seed(settings.seed, CHUNKS), 256, 1);
        train(&mut model.clone(), &warm, &train_config(1));
        let ready = Instant::now();
        let setup_s = (ready - setup).as_secs_f64();

        let cpu_before = cpu_now();
        let start = Instant::now();
        let first = datagen(chunk_seed(settings.seed, 0), CHUNK, DATAGEN_WORKERS);
        for k in 1..CHUNKS {
            std::hint::black_box(datagen(
                chunk_seed(settings.seed, k),
                CHUNK,
                DATAGEN_WORKERS,
            ));
        }
        let trained_at = Instant::now();
        let report = train(&mut model, &first, &train_config(EPOCHS));
        let end = Instant::now();
        let cpu = cpu_now() - cpu_before;
        out.attempted += 1;
        out.failed += u64::from(report.epochs_run != EPOCHS);
        if let Some(tr) = trace.as_mut() {
            let id = round as u64;
            let job = tr.push("job", start, end, None, id);
            tr.push("datagen", start, trained_at, Some(job), id);
            tr.push("train", trained_at, end, Some(job), id);
        }

        let datagen_s = (trained_at - start).as_secs_f64();
        let train_s = (end - trained_at).as_secs_f64();
        let job_ms = (end - start).as_secs_f64() * 1e3;
        let mut r = Round::default();
        r.set(SETUP_S, Some(setup_s));
        r.set(P50_MS, Some(job_ms));
        r.set(TAIL_MS, Some(job_ms));
        r.set(OPS_PER_S, Some((CHUNK * EPOCHS) as f64 / train_s));
        r.set(CPU_MS_PER_OP, Some(cpu));
        r.set(PEAK_RSS_MB, peak_rss());
        r.note(
            "datagen_samples_per_s",
            num((CHUNK as u64 * CHUNKS) as f64 / datagen_s),
        );
        r.note(
            "dispatch_gap_p99_ms",
            num((start - ready).as_secs_f64() * 1e3),
        );
        r.note("datagen_s", num(datagen_s));
        r.note("train_s", num(train_s));
        r.note(
            "final_train_loss",
            num(*report.train_loss.last().unwrap_or(&f64::NAN)),
        );
        out.rounds.push(r);
    }
    out.trace = trace;
    out
}
