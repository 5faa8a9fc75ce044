//! Parallelism tuning with what-if cost predictions (Section III-C3).
//!
//! The optimizer enumerates candidate parallelism configurations, asks the
//! cost model for what-if latency/throughput of each, normalizes both
//! costs to `[0, 1]` over the candidate set (throughput negated, because
//! it is maximized) and picks the configuration minimizing the weighted
//! objective of Eq. 1:
//!
//! ```text
//! C = argmin [ wt · C_L + (1 − wt) · C_T ]
//! s.t. P_i ∈ ℤ, P_i ≥ 1, max P ≤ n_core
//! ```
//!
//! Candidates combine (a) OptiSample-derived configurations over a grid of
//! scaling factors (rate-proportional provisioning at different
//! aggressiveness), (b) uniform degrees, and (c) random perturbations for
//! exploration.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use zt_dspsim::cluster::Cluster;
use zt_dspsim::ChainingMode;
use zt_query::{LogicalPlan, ParallelQueryPlan};

use zt_query::{PlanError, PlanIr};

use crate::estimator::CostEstimator;
use crate::features::FeatureMask;
use crate::graph::EncodeContext;
use crate::lattice::ParallelismLattice;
use crate::optisample::estimate_input_rates;

/// How `tune` explores the configuration space.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SearchSpace {
    /// The historical flat list from [`enumerate_candidates`] — scoring
    /// cost is linear in the list length. The default.
    #[default]
    Flat,
    /// The product lattice of per-operator degree sets (derived from the
    /// flat candidates), explored by bounds-guided branch-and-bound
    /// ([`crate::lattice::branch_and_bound`]) when pruning is on, or
    /// scored exhaustively without pruning or on small spaces. Outcome-
    /// equivalent to exhaustive scoring of the same lattice by
    /// construction.
    Lattice {
        /// Cap on the per-operator degree-set size (log-thinned, keeping
        /// the extremes). The lattice has up to `cap^num_ops` points.
        max_degrees_per_op: usize,
        /// Cap on fully-analyzed leaves before the search aborts with
        /// [`TuneError::SearchBudgetExceeded`].
        visit_budget: usize,
    },
}

impl SearchSpace {
    /// Lattice search with the default knobs (4 degrees per op, 100k-leaf
    /// analysis budget).
    pub fn lattice() -> Self {
        SearchSpace::Lattice {
            max_degrees_per_op: 4,
            visit_budget: 100_000,
        }
    }
}

/// Lattices at or below this size are scored exhaustively even with
/// pruning on: the search bookkeeping costs more than it saves.
const SMALL_LATTICE_CUTOFF: u64 = 32;

/// Structured failures of [`tune`] (degenerate inputs are results, not
/// panics — a serving daemon must be able to surface them).
#[derive(Clone, Debug, PartialEq)]
pub enum TuneError {
    /// The logical plan failed validation — tuning needs a sealed IR.
    InvalidPlan(PlanError),
    /// Candidate enumeration produced nothing to score.
    NoCandidates {
        /// Operators in the plan the enumerator saw.
        ops: usize,
    },
    /// The lattice search hit its analysis budget before covering the
    /// space; the partial result would not be outcome-equivalent, so it
    /// is refused. Shrink `max_degrees_per_op` or raise `visit_budget`.
    SearchBudgetExceeded {
        /// Leaves analyzed before the abort.
        analyzed: u64,
        /// Total lattice size.
        space: u64,
        /// The configured budget.
        budget: usize,
    },
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::InvalidPlan(e) => write!(f, "tune requires a valid plan: {e}"),
            TuneError::NoCandidates { ops } => {
                write!(f, "no parallelism candidates for a {ops}-operator plan")
            }
            TuneError::SearchBudgetExceeded {
                analyzed,
                space,
                budget,
            } => write!(
                f,
                "lattice search budget exhausted: {analyzed} leaves analyzed of {space} \
                 (budget {budget}); shrink max_degrees_per_op or raise visit_budget"
            ),
        }
    }
}

impl std::error::Error for TuneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TuneError::InvalidPlan(e) => Some(e),
            _ => None,
        }
    }
}

/// Optimizer configuration.
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// Weight of the latency cost in Eq. 1 (`1 − wt` weights throughput).
    pub wt: f64,
    /// Number of OptiSample scaling factors to probe (log-spaced).
    pub sf_grid: usize,
    /// Number of random perturbation candidates.
    pub random_candidates: usize,
    /// Hard cap on any parallelism degree.
    pub max_parallelism: u32,
    pub chaining: ChainingMode,
    pub mask: FeatureMask,
    pub seed: u64,
    /// Run the diagnostics pre-flight (plan + cluster lints) and abort on
    /// `Error`-severity findings. Defaults to the `ZT_STRICT` environment
    /// variable. Also enables the post-tune bounds cross-check (ZT5xx).
    pub strict: bool,
    /// Drop provably-useless candidates before scoring: the bounds
    /// pre-pass marks candidates that are provably infeasible
    /// (utilization lower bound ≥ 1) or provably dominated (some other
    /// candidate is better on both metrics with non-overlapping
    /// intervals). Marked candidates never win the argmin and never feed
    /// Eq. 1's normalization envelope either way, so the chosen plan is
    /// identical with pruning on or off. On by default; `false` scores
    /// every candidate, the exhaustive oracle the equivalence tests
    /// compare against.
    pub prune: bool,
    /// Cap each operator's lattice degree axis at its key-cardinality
    /// bound (the ZT704 condition): degrees beyond the cap deploy
    /// physically identical plans — the surplus instances are provably
    /// idle — so only the smallest such degree is kept as the canonical
    /// representative. Outcome-neutral (removed points are
    /// prediction-identical duplicates of their representative) but
    /// shrinks the searched lattice. On by default; `false` searches the
    /// uncapped lattice, the oracle the equivalence tests compare
    /// against. Only affects [`SearchSpace::Lattice`].
    pub dataflow_cap: bool,
    /// Shape of the explored configuration space (flat candidate list or
    /// branch-and-bound over the parallelism lattice).
    pub search: SearchSpace,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            wt: 0.5,
            sf_grid: 14,
            random_candidates: 12,
            max_parallelism: 128,
            chaining: ChainingMode::Auto,
            mask: FeatureMask::all(),
            seed: 0x0471,
            strict: crate::diagnostics::strict_from_env(),
            prune: true,
            dataflow_cap: true,
            search: SearchSpace::Flat,
        }
    }
}

/// Result of a tuning run.
#[must_use = "a tuning outcome carries the chosen parallelism — dropping it wastes the tuning run"]
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TuningOutcome {
    /// Chosen parallelism degree per operator.
    pub parallelism: Vec<u32>,
    pub predicted_latency_ms: f64,
    pub predicted_throughput: f64,
    /// Weighted cost (Eq. 1) of the chosen candidate.
    pub weighted_cost: f64,
    /// Candidates actually scored by the model (post-pruning).
    pub candidates_evaluated: usize,
    /// Candidates discarded by the bounds pruning pre-pass before any
    /// model inference ran (0 when pruning is off).
    pub candidates_pruned: usize,
    /// Total size of the explored configuration space: the flat candidate
    /// list length, or the full parallelism-lattice size for
    /// [`SearchSpace::Lattice`].
    #[serde(default)]
    pub search_space: u64,
    /// Configurations whose interval analysis actually ran (lattice
    /// leaves visited by the branch-and-bound walk, or flat candidates
    /// covered by the bounds pre-pass).
    #[serde(default)]
    pub search_visited: u64,
    /// Lattice subtrees cut by the branch-and-bound certificates before
    /// their leaves were ever analyzed (0 for the flat search).
    #[serde(default)]
    pub search_subtrees_pruned: u64,
    /// Operators whose lattice degree axis was capped at their
    /// key-cardinality bound (0 when the cap is off, the search is flat,
    /// or no operator declares a cardinality).
    #[serde(skip)]
    pub dataflow_capped_ops: usize,
    /// Lattice points removed by the key-cardinality cap before the
    /// search ran.
    #[serde(skip)]
    pub dataflow_points_removed: u64,
}

/// Enumerate candidate parallelism vectors for `plan` on `cluster`.
pub fn enumerate_candidates(
    plan: &LogicalPlan,
    cluster: &Cluster,
    cfg: &OptimizerConfig,
    rng: &mut StdRng,
) -> Vec<Vec<u32>> {
    let cap = cfg.max_parallelism.min(cluster.total_cores()).max(1);
    let n = plan.num_ops();
    let mut candidates: Vec<Vec<u32>> = Vec::new();

    // (a) rate-proportional candidates over a scaling-factor grid.
    let rates = estimate_input_rates(plan, 0.0, rng);
    let max_rate = rates.iter().copied().fold(1.0f64, f64::max);
    // sf range chosen so the hottest operator sweeps 1..=cap instances.
    let sf_lo = 1.0 / max_rate;
    let sf_hi = cap as f64 / max_rate;
    for k in 0..cfg.sf_grid.max(2) {
        let t = k as f64 / (cfg.sf_grid.max(2) - 1) as f64;
        let sf = sf_lo * (sf_hi / sf_lo).powf(t);
        candidates.push(
            (0..n)
                .map(|i| ((sf * rates[i]).ceil() as i64).clamp(1, cap as i64) as u32)
                .collect(),
        );
    }

    // (b) uniform candidates.
    let mut p = 1u32;
    while p <= cap {
        candidates.push(vec![p; n]);
        p *= 2;
    }

    // (c) random perturbations of the rate-proportional shape.
    for _ in 0..cfg.random_candidates {
        let jitter: Vec<u32> = (0..n)
            .map(|i| {
                let base = (sf_hi * rates[i] * rng.gen_range(0.05..1.0)).ceil() as i64;
                base.clamp(1, cap as i64) as u32
            })
            .collect();
        candidates.push(jitter);
    }

    candidates.sort();
    candidates.dedup();
    candidates
}

/// Normalized weighted cost of Eq. 1 for a candidate given the min/max
/// envelope over all candidates.
fn weighted_cost(wt: f64, lat: f64, tpt: f64, lat_range: (f64, f64), tpt_range: (f64, f64)) -> f64 {
    // Normalization happens on the log scale (costs span decades) and a
    // metric only participates when it varies *meaningfully* over the
    // candidate set: throughput of a never-backpressured query is flat up
    // to prediction noise, and min-max normalization would blow that
    // noise up to the full [0, 1] range and let it dominate Eq. 1.
    const INDIFFERENCE_RATIO: f64 = 1.25;
    let log_norm = |v: f64, (lo, hi): (f64, f64)| -> f64 {
        let lo = lo.max(1e-12);
        let hi = hi.max(1e-12);
        if hi / lo <= INDIFFERENCE_RATIO {
            return 0.0;
        }
        ((v.max(1e-12) / lo).ln() / (hi / lo).ln()).clamp(0.0, 1.0)
    };
    let c_l = log_norm(lat, lat_range);
    // Throughput is negated: higher throughput → lower cost. An
    // indifferent throughput contributes 0 (not 1).
    let c_t = {
        let lo = tpt_range.0.max(1e-12);
        let hi = tpt_range.1.max(1e-12);
        if hi / lo <= INDIFFERENCE_RATIO {
            0.0
        } else {
            1.0 - log_norm(tpt, tpt_range)
        }
    };
    wt * c_l + (1.0 - wt) * c_t
}

/// Search-space accounting threaded into the final [`TuningOutcome`].
#[derive(Clone, Copy, Debug, Default)]
struct SearchCounters {
    candidates_pruned: usize,
    search_space: u64,
    search_visited: u64,
    search_subtrees_pruned: u64,
}

/// Tune the parallelism of `plan` on `cluster` using the estimator's
/// what-if predictions.
///
/// Works with any [`CostEstimator`] — the trained GNN, a flat-vector
/// baseline, or a trait object. Parallelism-independent encoding state
/// (schemas, topology, resource features) is computed once via
/// [`EncodeContext`]; per candidate only the parallelism-dependent
/// features and edges are re-derived, and the whole candidate set is
/// scored through one [`CostEstimator::predict_batch`] call.
///
/// With [`SearchSpace::Lattice`] the candidate set is the product lattice
/// of per-operator degree choices, explored by bounds-guided
/// branch-and-bound; the chosen configuration is provably the same one
/// exhaustive scoring of that lattice would pick (see [`crate::lattice`]).
///
/// Degenerate inputs (invalid plan, empty candidate set, exhausted search
/// budget) return a structured [`TuneError`] instead of panicking.
pub fn tune<E: CostEstimator + ?Sized>(
    est: &E,
    plan: &LogicalPlan,
    cluster: &Cluster,
    cfg: &OptimizerConfig,
) -> Result<TuningOutcome, TuneError> {
    if cfg.strict {
        crate::diagnostics::preflight_tune(plan, cluster).enforce("tune");
    }
    let _span = zt_telemetry::span("tune");
    // Seal the logical plan once; every candidate below shares its
    // topology, so the bounds pre-pass, encoding and cross-check all run
    // on the same IR without re-validating per candidate.
    let ir = plan.validate().map_err(TuneError::InvalidPlan)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let candidates = {
        let _s = zt_telemetry::span("tune.enumerate");
        enumerate_candidates(plan, cluster, cfg, &mut rng)
    };
    if candidates.is_empty() {
        return Err(TuneError::NoCandidates {
            ops: plan.num_ops(),
        });
    }
    zt_telemetry::counter_add("tune.candidates", candidates.len() as u64);

    match cfg.search {
        SearchSpace::Flat => {
            let space = candidates.len() as u64;
            Ok(tune_over(
                est, plan, &ir, cluster, cfg, candidates, space, 0,
            ))
        }
        SearchSpace::Lattice {
            max_degrees_per_op,
            visit_budget,
        } => tune_lattice(
            est,
            plan,
            &ir,
            cluster,
            cfg,
            &candidates,
            max_degrees_per_op,
            visit_budget,
        ),
    }
}

/// [`SearchSpace::Lattice`] driver: derive the lattice from the flat
/// candidates, then either score it exhaustively (pruning off, tiny
/// spaces, or a plan-level infeasibility certificate that forces the
/// all-infeasible keep-everything rule) or run the branch-and-bound walk.
#[allow(clippy::too_many_arguments)]
fn tune_lattice<E: CostEstimator + ?Sized>(
    est: &E,
    plan: &LogicalPlan,
    ir: &PlanIr,
    cluster: &Cluster,
    cfg: &OptimizerConfig,
    flat_candidates: &[Vec<u32>],
    max_degrees_per_op: usize,
    visit_budget: usize,
) -> Result<TuningOutcome, TuneError> {
    let mut lattice = ParallelismLattice::from_candidates(flat_candidates, max_degrees_per_op);
    // Key-cardinality capping (the ZT704 condition): along an operator's
    // degree axis, every degree at or beyond `parallelism_cap()` deploys
    // the *same* physical plan — partitioning, chaining, placement and
    // bounds all act on effective parallelism — so the candidates differ
    // only in provably idle instances. Keep the smallest such degree as
    // the canonical representative and drop the rest; the argmin is
    // unchanged because the removed points are prediction-identical to
    // their representative and the scorer's strict `<` picks the first
    // (lexicographically smallest) of any tied set either way.
    let mut dataflow_capped_ops = 0usize;
    let mut dataflow_points_removed = 0u64;
    if cfg.dataflow_cap {
        let before = lattice.size();
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
                dataflow_capped_ops += 1;
            }
        }
        dataflow_points_removed = before.saturating_sub(lattice.size());
        if dataflow_capped_ops > 0 {
            zt_telemetry::counter_add("tune.dataflow.capped_ops", dataflow_capped_ops as u64);
            zt_telemetry::counter_add("tune.dataflow.points_removed", dataflow_points_removed);
        }
    }
    let space = lattice.size();
    let bcfg = crate::bounds::BoundsConfig {
        chaining: cfg.chaining,
        ..crate::bounds::BoundsConfig::default()
    };
    let exhaust = |err_analyzed: u64| -> Result<Vec<Vec<u32>>, TuneError> {
        if space > visit_budget as u64 {
            return Err(TuneError::SearchBudgetExceeded {
                analyzed: err_analyzed,
                space,
                budget: visit_budget,
            });
        }
        Ok(lattice.enumerate())
    };

    // Whole-lattice infeasibility certificate: when even the
    // parallelism-independent work floor exceeds the cluster's aggregate
    // capacity, every lattice point is infeasible, prune_mask keeps all of
    // them, and a search could not skip anything — score exhaustively.
    let probe = ParallelQueryPlan::new(plan.clone());
    let all_infeasible =
        crate::bounds::work_floors(&probe, ir, cluster, &bcfg).plan_util_floor() >= 1.0;

    let stamp = |mut out: TuningOutcome| {
        out.dataflow_capped_ops = dataflow_capped_ops;
        out.dataflow_points_removed = dataflow_points_removed;
        out
    };

    if !cfg.prune || space <= SMALL_LATTICE_CUTOFF || all_infeasible {
        let cands = exhaust(0)?;
        return Ok(stamp(tune_over(
            est, plan, ir, cluster, cfg, cands, space, 0,
        )));
    }

    let search = crate::lattice::branch_and_bound(plan, ir, cluster, &bcfg, &lattice, visit_budget);
    if search.budget_exhausted {
        return Err(TuneError::SearchBudgetExceeded {
            analyzed: search.stats.leaves_analyzed,
            space,
            budget: visit_budget,
        });
    }
    if !search.feasible_found {
        // Certificate-pruned leaves are infeasible too, so the whole
        // lattice is: replicate prune_mask's keep-everything rule.
        let cands = exhaust(search.stats.leaves_analyzed)?;
        return Ok(stamp(tune_over(
            est, plan, ir, cluster, cfg, cands, space, 0,
        )));
    }

    // Final exact keep decision over the analyzed set — provably the same
    // survivors exhaustive scoring would keep (see `crate::lattice`).
    let (cands, reports): (Vec<Vec<u32>>, Vec<crate::bounds::BoundsReport>) =
        search.analyzed.into_iter().unzip();
    let keep = crate::bounds::prune_mask(&reports);
    let survivors: Vec<Vec<u32>> = cands
        .into_iter()
        .zip(&keep)
        .filter_map(|(c, &k)| k.then_some(c))
        .collect();
    let candidates_pruned =
        usize::try_from(space.saturating_sub(survivors.len() as u64)).unwrap_or(usize::MAX);
    zt_telemetry::counter_add("tune.pruned", candidates_pruned as u64);
    let n_survivors = survivors.len();
    let counters = SearchCounters {
        candidates_pruned,
        search_space: space,
        search_visited: search.stats.leaves_analyzed,
        search_subtrees_pruned: search.stats.subtrees_pruned + search.stats.incumbent_cuts,
    };
    Ok(stamp(score_and_pick(
        est,
        plan,
        ir,
        cluster,
        cfg,
        survivors,
        vec![true; n_survivors],
        counters,
    )))
}

/// Run the bounds pre-pass over an explicit candidate list, then score it.
/// This is the historical flat-search body; the lattice paths reuse it for
/// exhaustive scoring.
#[allow(clippy::too_many_arguments)]
fn tune_over<E: CostEstimator + ?Sized>(
    est: &E,
    plan: &LogicalPlan,
    ir: &PlanIr,
    cluster: &Cluster,
    cfg: &OptimizerConfig,
    mut candidates: Vec<Vec<u32>>,
    search_space: u64,
    search_subtrees_pruned: u64,
) -> TuningOutcome {
    // Bounds pre-pass: the interval analysis marks candidates that are
    // provably infeasible or dominated. Marked candidates never win the
    // argmin and never contribute to Eq. 1's normalization envelope —
    // regardless of `cfg.prune` — so the verdict below is *identical*
    // with pruning on or off, for any estimator. The knob only decides
    // whether marked candidates are dropped before encoding/inference
    // (the default, saving the model evaluations) or still scored
    // (useful when inspecting predictions for the full candidate set).
    let mut candidates_pruned = 0usize;
    let mut search_visited = 0u64;
    let keep: Vec<bool> = if candidates.len() > 1 {
        let _s = zt_telemetry::span("tune.bounds");
        let bound_start = std::time::Instant::now();
        let bcfg = crate::bounds::BoundsConfig {
            chaining: cfg.chaining,
            ..crate::bounds::BoundsConfig::default()
        };
        let mut probe = ParallelQueryPlan::new(plan.clone());
        let reports: Vec<_> = candidates
            .iter()
            .map(|cand| {
                probe.parallelism.clone_from(cand);
                probe.reset_partitioning();
                crate::bounds::analyze_with(&probe, ir, cluster, &bcfg)
            })
            .collect();
        search_visited = reports.len() as u64;
        let keep = crate::bounds::prune_mask(&reports);
        if cfg.prune {
            let mut it = keep.iter();
            candidates.retain(|_| *it.next().expect("mask aligned with candidates"));
            candidates_pruned = keep.iter().filter(|&&k| !k).count();
            zt_telemetry::counter_add("tune.pruned", candidates_pruned as u64);
        }
        zt_telemetry::counter_add(
            "tune.bound_ms",
            u64::try_from(bound_start.elapsed().as_millis()).unwrap_or(u64::MAX),
        );
        if cfg.prune {
            vec![true; candidates.len()]
        } else {
            keep
        }
    } else {
        vec![true; candidates.len()]
    };
    let counters = SearchCounters {
        candidates_pruned,
        search_space,
        search_visited,
        search_subtrees_pruned,
    };
    score_and_pick(est, plan, ir, cluster, cfg, candidates, keep, counters)
}

/// Encode, batch-predict and argmin over a candidate set whose keep mask
/// is already decided; runs the strict cross-check on the winner.
#[allow(clippy::too_many_arguments)]
fn score_and_pick<E: CostEstimator + ?Sized>(
    est: &E,
    plan: &LogicalPlan,
    ir: &PlanIr,
    cluster: &Cluster,
    cfg: &OptimizerConfig,
    candidates: Vec<Vec<u32>>,
    keep: Vec<bool>,
    counters: SearchCounters,
) -> TuningOutcome {
    // Encode every candidate against the shared context, reusing one
    // mutable PQP (partitioning depends on the parallelism vector, so it
    // must be re-derived after each mutation).
    let ctx = EncodeContext::with_ir(plan, ir, cluster, &cfg.mask);
    let mut pqp = ParallelQueryPlan::new(plan.clone());
    let graphs: Vec<_> = {
        let _s = zt_telemetry::span("tune.encode");
        candidates
            .iter()
            .map(|cand| {
                pqp.parallelism.clone_from(cand);
                pqp.reset_partitioning();
                ctx.encode_sealed(&pqp, ir, cluster, cfg.chaining)
            })
            .collect()
    };

    let predictions = {
        let _s = zt_telemetry::span("tune.score");
        est.predict_batch(&graphs)
    };
    debug_assert_eq!(predictions.len(), candidates.len());

    let argmin_span = zt_telemetry::span("tune.argmin");
    // Eq. 1's min-max envelope spans the *selectable* candidates only:
    // a provably-degenerate plan must not stretch the normalization and
    // thereby reshuffle the cost ordering of the real contenders.
    let selectable = || {
        predictions
            .iter()
            .zip(&keep)
            .filter_map(|(p, &k)| k.then_some(p))
    };
    let lat_range = selectable().fold((f64::INFINITY, f64::NEG_INFINITY), |acc, p| {
        (acc.0.min(p.latency_ms), acc.1.max(p.latency_ms))
    });
    let tpt_range = selectable().fold((f64::INFINITY, f64::NEG_INFINITY), |acc, p| {
        (acc.0.min(p.throughput), acc.1.max(p.throughput))
    });

    let mut best = usize::MAX;
    let mut best_cost = f64::INFINITY;
    for (i, p) in predictions.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        let c = weighted_cost(cfg.wt, p.latency_ms, p.throughput, lat_range, tpt_range);
        if best == usize::MAX || c < best_cost {
            best_cost = c;
            best = i;
        }
    }
    drop(argmin_span);

    // Strict mode: cross-check the chosen candidate's prediction against
    // its provable brackets (ZT501/ZT502/ZT504). ZT503 (the query is
    // infeasible at its offered rate even for the best deployment) is a
    // property of the workload, not a tuner bug, so it is downgraded to a
    // warning here — with pruning on, the chosen candidate can only be
    // infeasible when *every* candidate is.
    if cfg.strict {
        let _s = zt_telemetry::span("tune.crosscheck");
        let bcfg = crate::bounds::BoundsConfig {
            chaining: cfg.chaining,
            ..crate::bounds::BoundsConfig::default()
        };
        let chosen = ParallelQueryPlan::with_parallelism(plan.clone(), candidates[best].clone());
        let report = crate::bounds::analyze_with(&chosen, ir, cluster, &bcfg);
        let mut diags = crate::diagnostics::lint_bounds_report(&report);
        for d in &mut diags {
            if d.code == "ZT503" {
                d.severity = crate::diagnostics::Severity::Warning;
            }
        }
        diags.extend(crate::diagnostics::lint_prediction_bounds(
            &report,
            &predictions[best],
        ));
        // Model-certificate cross-check (ZT605): the winning prediction
        // must sit inside the estimator's certified bracket for the
        // chosen plan's data-flow depth, and that certified range must
        // intersect the plan's provable physics bracket.
        if let Some(cert) = est.certificate() {
            let depth = crate::certify::dataflow_depth(&graphs[best]);
            diags.extend(cert.check_prediction_denorm(depth, &predictions[best]));
            diags.extend(cert.lint_certificate_bounds(depth, &report));
        }
        crate::diagnostics::Report::new(diags).enforce("tune bounds cross-check");
    }

    TuningOutcome {
        parallelism: candidates[best].clone(),
        predicted_latency_ms: predictions[best].latency_ms,
        predicted_throughput: predictions[best].throughput,
        weighted_cost: best_cost,
        candidates_evaluated: candidates.len(),
        candidates_pruned: counters.candidates_pruned,
        search_space: counters.search_space,
        search_visited: counters.search_visited,
        search_subtrees_pruned: counters.search_subtrees_pruned,
        dataflow_capped_ops: 0,
        dataflow_points_removed: 0,
    }
}

/// Weighted cost of *measured* metrics against reference envelopes —
/// used by the experiments to compare tuners on equal footing (Fig. 10b).
pub fn measured_weighted_cost(
    wt: f64,
    latency_ms: f64,
    throughput: f64,
    lat_range: (f64, f64),
    tpt_range: (f64, f64),
) -> f64 {
    weighted_cost(wt, latency_ms, throughput, lat_range, tpt_range)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_dataset, GenConfig};
    use crate::model::{ModelConfig, ZeroTuneModel};
    use crate::train::{train, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zt_dspsim::cluster::ClusterType;
    use zt_query::{QueryGenerator, QueryStructure};

    fn cluster() -> Cluster {
        Cluster::homogeneous(ClusterType::M510, 4, 10.0)
    }

    #[test]
    fn candidates_respect_constraints() {
        let mut rng = StdRng::seed_from_u64(1);
        let plan = QueryGenerator::seen().generate(QueryStructure::TwoWayJoin, &mut rng);
        let cfg = OptimizerConfig::default();
        let cluster = cluster();
        let mut rng2 = StdRng::seed_from_u64(2);
        let cands = enumerate_candidates(&plan, &cluster, &cfg, &mut rng2);
        assert!(cands.len() >= 10);
        for c in &cands {
            assert_eq!(c.len(), plan.num_ops());
            assert!(c.iter().all(|&p| p >= 1 && p <= cluster.total_cores()));
        }
        // dedup really happened
        let mut sorted = cands.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), cands.len());
    }

    #[test]
    fn weighted_cost_prefers_low_latency_high_throughput() {
        let lat_range = (10.0, 100.0);
        let tpt_range = (1_000.0, 10_000.0);
        let good = weighted_cost(0.5, 10.0, 10_000.0, lat_range, tpt_range);
        let bad = weighted_cost(0.5, 100.0, 1_000.0, lat_range, tpt_range);
        assert!(good < bad);
        assert_eq!(good, 0.0);
        assert_eq!(bad, 1.0);
    }

    #[test]
    fn wt_extremes_favor_the_right_metric() {
        let lat_range = (10.0, 100.0);
        let tpt_range = (1_000.0, 10_000.0);
        // candidate A: lowest latency but lowest throughput
        let a = |wt: f64| weighted_cost(wt, 10.0, 1_000.0, lat_range, tpt_range);
        // candidate B: highest latency but highest throughput
        let b = |wt: f64| weighted_cost(wt, 100.0, 10_000.0, lat_range, tpt_range);
        assert!(a(1.0) < b(1.0), "wt=1 must pick the low-latency plan");
        assert!(b(0.0) < a(0.0), "wt=0 must pick the high-throughput plan");
    }

    #[test]
    fn pruning_drops_infeasible_candidates_and_reports_counts() {
        // A very high-rate benchmark query: the low-parallelism candidates
        // are provably infeasible, so the bounds pre-pass must discard
        // some of them before scoring.
        let model = ZeroTuneModel::new(ModelConfig { hidden: 8, seed: 7 });
        let plan = zt_query::benchmarks::spike_detection(2_000_000.0);
        let cluster = cluster();
        let pruned_on = tune(
            &model,
            &plan,
            &cluster,
            &OptimizerConfig {
                prune: true,
                ..OptimizerConfig::default()
            },
        )
        .expect("valid plan");
        let pruned_off = tune(
            &model,
            &plan,
            &cluster,
            &OptimizerConfig {
                prune: false,
                ..OptimizerConfig::default()
            },
        )
        .expect("valid plan");
        assert!(pruned_on.candidates_pruned > 0, "nothing was pruned");
        assert_eq!(pruned_off.candidates_pruned, 0);
        assert_eq!(
            pruned_on.candidates_evaluated + pruned_on.candidates_pruned,
            pruned_off.candidates_evaluated,
            "pruning must partition the exhaustive candidate set"
        );
        assert!(pruned_on.candidates_evaluated < pruned_off.candidates_evaluated);
    }

    #[test]
    fn pruning_and_capping_default_on() {
        let cfg = OptimizerConfig::default();
        assert!(cfg.prune && cfg.dataflow_cap);
    }

    #[test]
    fn tuned_plan_beats_minimal_parallelism_on_simulator() {
        // Train a small model, tune a query, and verify the chosen
        // configuration really is better than the trivial P=1 deployment
        // when executed on the simulator.
        let data = generate_dataset(&GenConfig::seen(), 250, 31);
        let mut model = ZeroTuneModel::new(ModelConfig {
            hidden: 24,
            seed: 9,
        });
        train(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 20,
                patience: 0,
                ..TrainConfig::default()
            },
        );

        let mut rng = StdRng::seed_from_u64(33);
        // a high-rate linear query that needs parallelism
        let ranges = zt_query::ParamRanges::seen();
        let mut plan = None;
        for _ in 0..50 {
            let p = QueryGenerator::new(ranges.clone()).generate(QueryStructure::Linear, &mut rng);
            let rate = p
                .ops()
                .iter()
                .find_map(|o| match &o.kind {
                    zt_query::OperatorKind::Source(s) => Some(s.event_rate),
                    _ => None,
                })
                .unwrap();
            if rate >= 250_000.0 {
                plan = Some(p);
                break;
            }
        }
        let plan = plan.expect("found a high-rate query");
        let cluster = cluster();

        let outcome =
            tune(&model, &plan, &cluster, &OptimizerConfig::default()).expect("valid plan");
        assert!(outcome.candidates_evaluated > 10);

        let sim_cfg = zt_dspsim::analytical::SimConfig::noiseless();
        let mut sim_rng = StdRng::seed_from_u64(1);
        let tuned = zt_dspsim::simulate(
            &ParallelQueryPlan::with_parallelism(plan.clone(), outcome.parallelism.clone()),
            &cluster,
            &sim_cfg,
            &mut sim_rng,
        );
        let trivial = zt_dspsim::simulate(
            &ParallelQueryPlan::with_parallelism(plan.clone(), vec![1; plan.num_ops()]),
            &cluster,
            &sim_cfg,
            &mut sim_rng,
        );
        assert!(
            tuned.throughput >= trivial.throughput,
            "tuned {} < trivial {}",
            tuned.throughput,
            trivial.throughput
        );
    }

    #[test]
    fn invalid_plan_returns_structured_error() {
        // A sink-less plan used to trip `tune()`'s internal expect; it must
        // now come back as a typed error the caller can match on.
        let mut plan = LogicalPlan::new("no-sink");
        let src = plan.add(zt_query::OperatorKind::Source(zt_query::SourceOp {
            event_rate: 1_000.0,
            schema: zt_query::TupleSchema::uniform(zt_query::DataType::Int, 3),
            key_cardinality: None,
        }));
        let f = plan.add(zt_query::OperatorKind::Filter(zt_query::FilterOp {
            function: zt_query::FilterFunction::Gt,
            literal_class: zt_query::DataType::Int,
            selectivity: 0.5,
        }));
        plan.connect(src, f);
        let model = ZeroTuneModel::new(ModelConfig { hidden: 8, seed: 1 });
        let err = tune(&model, &plan, &cluster(), &OptimizerConfig::default())
            .expect_err("sink-less plan must be rejected");
        assert!(matches!(err, TuneError::InvalidPlan(_)));
        let msg = err.to_string();
        assert!(msg.contains("valid plan"), "unexpected message: {msg}");
        assert!(msg.contains("no sink"), "unexpected message: {msg}");
        // The error chain must expose the underlying PlanError.
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn lattice_search_matches_exhaustive_lattice_scoring() {
        // The branch-and-bound walk must pick exactly the configuration
        // exhaustive scoring of the same lattice picks — same argmin, same
        // predicted numbers — on a workload hot enough that pruning fires.
        let model = ZeroTuneModel::new(ModelConfig { hidden: 8, seed: 3 });
        let plan = zt_query::benchmarks::spike_detection(2_000_000.0);
        let cluster = cluster();
        let lattice = |prune: bool| OptimizerConfig {
            prune,
            search: SearchSpace::lattice(),
            ..OptimizerConfig::default()
        };
        let bnb = tune(&model, &plan, &cluster, &lattice(true)).expect("valid plan");
        let exhaustive = tune(&model, &plan, &cluster, &lattice(false)).expect("valid plan");
        assert_eq!(bnb.parallelism, exhaustive.parallelism);
        assert_eq!(bnb.predicted_latency_ms, exhaustive.predicted_latency_ms);
        assert_eq!(bnb.predicted_throughput, exhaustive.predicted_throughput);
        assert_eq!(bnb.search_space, exhaustive.search_space);
        assert!(
            bnb.search_visited < exhaustive.search_space,
            "branch-and-bound analyzed the whole lattice ({} of {})",
            bnb.search_visited,
            bnb.search_space
        );
        assert!(bnb.search_subtrees_pruned > 0, "no subtree was ever cut");
    }

    #[test]
    fn lattice_budget_exhaustion_is_a_typed_error() {
        let model = ZeroTuneModel::new(ModelConfig { hidden: 8, seed: 3 });
        let plan = zt_query::benchmarks::spike_detection(2_000_000.0);
        let err = tune(
            &model,
            &plan,
            &cluster(),
            &OptimizerConfig {
                search: SearchSpace::Lattice {
                    max_degrees_per_op: 4,
                    visit_budget: 2,
                },
                ..OptimizerConfig::default()
            },
        )
        .expect_err("a 2-leaf budget cannot cover the lattice");
        match err {
            TuneError::SearchBudgetExceeded { space, budget, .. } => {
                assert_eq!(budget, 2);
                assert!(space > 2);
            }
            other => panic!("expected SearchBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn all_infeasible_lattice_falls_back_to_exhaustive_scoring() {
        // At a rate no deployment can sustain, prune_mask keeps everything,
        // so the lattice path must score the full lattice and still return
        // a (best-effort) winner rather than erroring out.
        let model = ZeroTuneModel::new(ModelConfig { hidden: 8, seed: 5 });
        let plan = zt_query::benchmarks::spike_detection(80_000_000.0);
        let out = tune(
            &model,
            &plan,
            &cluster(),
            &OptimizerConfig {
                search: SearchSpace::lattice(),
                ..OptimizerConfig::default()
            },
        )
        .expect("valid plan");
        assert!(!out.parallelism.is_empty());
        assert_eq!(
            out.search_subtrees_pruned, 0,
            "nothing can be cut when every leaf is kept"
        );
        assert_eq!(out.search_visited, out.search_space);
    }
}
