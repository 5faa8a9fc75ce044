//! Exp. 5: parallelism tuning with the optimizer (Fig. 10a–b).
//!
//! For a set of query structures (seen and unseen), the ZeroTune optimizer
//! (Eq. 1) picks parallelism degrees from what-if predictions; the chosen
//! deployments are *executed* (on the noiseless simulator, standing in for
//! the Flink cluster) and compared against:
//!
//! * the greedy autopipelining heuristic \[20\] → mean latency/throughput
//!   speed-ups (Fig. 10a), and
//! * the Dhalion scaling controller \[19\] → weighted cost, Eq. 1
//!   (Fig. 10b), plus Dhalion's reconfiguration count (the oscillation
//!   cost of challenge C1).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use zt_baselines::{dhalion_tune, greedy_tune, DhalionConfig, GreedyConfig};
use zt_core::dataset::GenConfig;
use zt_core::optimizer::{measured_weighted_cost, tune, OptimizerConfig};
use zt_dspsim::analytical::SimConfig;
use zt_dspsim::cluster::{Cluster, ClusterType};
use zt_query::{ParallelQueryPlan, ParamRanges, QueryGenerator, QueryStructure};

use crate::report::{f2, Table};
use crate::{train_pipeline, Scale, TrainedPipeline};

/// Per-structure tuning comparison.
#[derive(Clone, Debug, Serialize)]
pub struct TuningRow {
    pub structure: String,
    pub seen: bool,
    /// Mean latency speed-up of ZeroTune over greedy (Fig. 10a).
    pub speedup_latency: f64,
    /// Mean throughput speed-up of ZeroTune over greedy (Fig. 10a).
    pub speedup_throughput: f64,
    /// Mean weighted cost (Eq. 1) of the ZeroTune configuration.
    pub zerotune_cost: f64,
    /// Mean weighted cost of the Dhalion configuration (Fig. 10b).
    pub dhalion_cost: f64,
    /// Mean number of reconfiguration rounds Dhalion needed.
    pub dhalion_reconfigs: f64,
    pub queries: usize,
}

#[derive(Clone, Debug, Serialize)]
pub struct Exp5Result {
    pub rows: Vec<TuningRow>,
    pub mean_speedup_latency: f64,
    pub mean_speedup_throughput: f64,
    /// Hit rate of the simulator memo across the tuner executions (the
    /// three tuners frequently choose identical deployments).
    pub sim_cache_hit_rate: f64,
    /// Candidates actually scored by the ZeroTune model across all
    /// tuning runs (post-pruning).
    pub candidates_scored: usize,
    /// Candidates discarded by the interval-bounds pruning pre-pass
    /// before any model inference ran.
    pub candidates_pruned: usize,
}

fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn run_with(pipeline: &TrainedPipeline) -> Exp5Result {
    let scale = &pipeline.scale;
    let structures = [
        QueryStructure::Linear,
        QueryStructure::TwoWayJoin,
        QueryStructure::ThreeWayJoin,
        QueryStructure::ChainedFilters(3),
        QueryStructure::NWayJoin(4),
        QueryStructure::NWayJoin(5),
    ];
    let queries_per_structure = (scale.test_per_group / 4).max(4);
    let wt = 0.5;
    let sim = SimConfig::noiseless();
    let opt_cfg = OptimizerConfig {
        wt,
        ..OptimizerConfig::default()
    };

    let mut rows = Vec::new();
    let mut all_lat_speedups = Vec::new();
    let mut all_tpt_speedups = Vec::new();
    let mut candidates_scored = 0usize;
    let mut candidates_pruned = 0usize;
    // Memoize the noiseless solver: when two tuners pick the same
    // parallelism vector for a query, its execution is solved once.
    let cache = zt_dspsim::SimCache::default();

    for (si, s) in structures.iter().enumerate() {
        let ranges = if s.is_seen() {
            ParamRanges::seen()
        } else {
            ParamRanges::unseen()
        };
        let generator = QueryGenerator::new(ranges.clone());
        let mut rng = StdRng::seed_from_u64(scale.seed + 600 + si as u64);

        let mut lat_speedups = Vec::new();
        let mut tpt_speedups = Vec::new();
        let mut zt_costs = Vec::new();
        let mut dh_costs = Vec::new();
        let mut dh_iters = Vec::new();

        for _ in 0..queries_per_structure {
            let plan = generator.generate(*s, &mut rng);
            let cluster = Cluster::sample(
                &ClusterType::seen(),
                ranges.sample_num_workers(&mut rng),
                &ranges.link_speeds_gbps,
                &mut rng,
            );

            // --- the three tuners ------------------------------------
            let zt = tune(&pipeline.model, &plan, &cluster, &opt_cfg)
                .expect("generated benchmark plans are always valid");
            candidates_scored += zt.candidates_evaluated;
            candidates_pruned += zt.candidates_pruned;
            let greedy = greedy_tune(&plan, &cluster, &GreedyConfig::default());
            let dhalion = dhalion_tune(&plan, &cluster, &DhalionConfig::default(), &sim, &mut rng);

            // --- execute all three ------------------------------------
            let mut exec_rng = StdRng::seed_from_u64(1);
            let exec = |p: &Vec<u32>, rng: &mut StdRng| {
                let pqp = ParallelQueryPlan::with_parallelism(plan.clone(), p.clone());
                cache.simulate(&pqp, &cluster, &sim, rng)
            };
            let m_zt = exec(&zt.parallelism, &mut exec_rng);
            let m_gr = exec(&greedy, &mut exec_rng);
            let m_dh = exec(&dhalion.parallelism, &mut exec_rng);

            lat_speedups.push(m_gr.latency_ms / m_zt.latency_ms.max(1e-9));
            tpt_speedups.push(m_zt.throughput / m_gr.throughput.max(1e-9));

            // weighted cost over the shared envelope of the three
            // measured deployments
            let lat_env = (
                m_zt.latency_ms.min(m_gr.latency_ms).min(m_dh.latency_ms),
                m_zt.latency_ms.max(m_gr.latency_ms).max(m_dh.latency_ms),
            );
            let tpt_env = (
                m_zt.throughput.min(m_gr.throughput).min(m_dh.throughput),
                m_zt.throughput.max(m_gr.throughput).max(m_dh.throughput),
            );
            zt_costs.push(measured_weighted_cost(
                wt,
                m_zt.latency_ms,
                m_zt.throughput,
                lat_env,
                tpt_env,
            ));
            dh_costs.push(measured_weighted_cost(
                wt,
                m_dh.latency_ms,
                m_dh.throughput,
                lat_env,
                tpt_env,
            ));
            dh_iters.push(dhalion.reconfigurations as f64);
        }

        all_lat_speedups.extend(lat_speedups.iter().copied());
        all_tpt_speedups.extend(tpt_speedups.iter().copied());
        rows.push(TuningRow {
            structure: s.name(),
            seen: s.is_seen(),
            speedup_latency: geo_mean(&lat_speedups),
            speedup_throughput: geo_mean(&tpt_speedups),
            zerotune_cost: zt_costs.iter().sum::<f64>() / zt_costs.len() as f64,
            dhalion_cost: dh_costs.iter().sum::<f64>() / dh_costs.len() as f64,
            dhalion_reconfigs: dh_iters.iter().sum::<f64>() / dh_iters.len() as f64,
            queries: queries_per_structure,
        });
    }

    Exp5Result {
        mean_speedup_latency: geo_mean(&all_lat_speedups),
        mean_speedup_throughput: geo_mean(&all_tpt_speedups),
        sim_cache_hit_rate: cache.stats().hit_rate(),
        candidates_scored,
        candidates_pruned,
        rows,
    }
}

pub fn run(scale: &Scale) -> Exp5Result {
    let pipeline = train_pipeline(scale, &GenConfig::seen());
    run_with(&pipeline)
}

pub fn print(result: &Exp5Result) {
    let mut t = Table::new(
        "Fig. 10a/b: parallelism tuning — speed-up vs greedy, weighted cost vs Dhalion",
        &[
            "structure",
            "range",
            "lat speed-up",
            "tpt speed-up",
            "ZT cost (Eq.1)",
            "Dhalion cost",
            "Dhalion reconfigs",
            "queries",
        ],
    );
    for r in &result.rows {
        t.row(vec![
            r.structure.clone(),
            if r.seen {
                "seen".into()
            } else {
                "unseen".into()
            },
            format!("{}x", f2(r.speedup_latency)),
            format!("{}x", f2(r.speedup_throughput)),
            f2(r.zerotune_cost),
            f2(r.dhalion_cost),
            f2(r.dhalion_reconfigs),
            r.queries.to_string(),
        ]);
    }
    t.print();
    println!(
        "mean speed-up vs greedy: latency {}x, throughput {}x (sim-cache hit rate {:.0}%)",
        f2(result.mean_speedup_latency),
        f2(result.mean_speedup_throughput),
        result.sim_cache_hit_rate * 100.0
    );
    let enumerated = result.candidates_scored + result.candidates_pruned;
    println!(
        "bounds pruning: {} of {} candidate(s) pruned before scoring ({:.0}%)",
        result.candidates_pruned,
        enumerated,
        if enumerated == 0 {
            0.0
        } else {
            result.candidates_pruned as f64 / enumerated as f64 * 100.0
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp5_compares_all_tuners() {
        let scale = Scale {
            name: "tiny",
            train_queries: 200,
            test_per_group: 16,
            epochs: 10,
            hidden: 20,
            seed: 0xE5,
        };
        let result = run(&scale);
        assert_eq!(result.rows.len(), 6);
        for r in &result.rows {
            assert!(r.speedup_latency.is_finite() && r.speedup_latency > 0.0);
            assert!(r.speedup_throughput.is_finite());
            assert!((0.0..=1.0).contains(&r.zerotune_cost));
            assert!((0.0..=1.0).contains(&r.dhalion_cost));
        }
        assert!(result.mean_speedup_latency.is_finite());
        assert!((0.0..=1.0).contains(&result.sim_cache_hit_rate));
        // The bounds pre-pass must have discarded at least one provably
        // infeasible/dominated candidate somewhere across the sampled
        // rates (the seen range goes up to 500k events/s, where P=1
        // deployments collapse), while still scoring the survivors.
        assert!(result.candidates_scored > 0);
        assert!(
            result.candidates_pruned > 0,
            "expected the pruning pre-pass to fire across {} scored candidates",
            result.candidates_scored
        );
    }
}
