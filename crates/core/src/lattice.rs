//! Bounds-guided branch-and-bound over the parallelism lattice.
//!
//! The flat tuner scores a hand-enumerated candidate list. This module
//! searches a *product lattice* instead: each operator gets a sorted set
//! of admissible degrees and every point of the cross product is a
//! candidate. Exhaustive scoring of the lattice is exponential in the
//! operator count, so [`branch_and_bound`] walks it as a DFS tree (one
//! level per operator, children in ascending degree order — lexicographic
//! leaf order overall) and prunes subtrees with two *sound* certificates:
//!
//! 1. **Infeasibility** ([`crate::bounds::WorkFloors::op_util_floor`]) —
//!    assigning degree `d` to operator `i` already forces the skew-free
//!    utilization lower bound of *every* completion to ≥ 1. Those leaves
//!    are provably infeasible, which is exactly the condition
//!    [`prune_mask`] masks them by, so skipping them cannot change the
//!    tuner's verdict.
//! 2. **Incumbent dominance** — once a feasible leaf is known, a subtree
//!    whose best conceivable completion (latency no lower than the static
//!    engine floor, throughput no higher than the offered rate) is still
//!    interval-dominated by the incumbent can only contain candidates
//!    [`prune_mask`] would discard as dominated. For same-plan parallelism
//!    candidates this cut rarely fires — every candidate shares
//!    essentially the same latency floor — and the infeasibility
//!    certificate does the heavy lifting; the incumbent hook matters once
//!    placement/heterogeneous floors widen the per-subtree gap.
//!
//! Every leaf that survives is analyzed exactly
//! ([`crate::bounds::analyze_with`]) and the final keep decision is the
//! very same [`prune_mask`] the flat path runs. Together with the
//! lexicographic visit order this makes the search **outcome-equivalent
//! by construction**: the surviving candidate sequence — and therefore
//! Eq. 1's normalization envelope and the argmin winner — is identical to
//! exhaustively scoring the whole lattice (`tests/optimizer_search.rs`
//! pins this property on fuzzed plans). The one escape hatch: when the
//! search finds *no* feasible leaf, [`prune_mask`] semantics say "keep
//! everything", so the caller must fall back to exhaustive enumeration
//! ([`SearchOutcome::feasible_found`] signals this).

use zt_dspsim::analytical::offered_rate;
use zt_dspsim::cluster::Cluster;
use zt_query::{LogicalPlan, ParallelQueryPlan, PlanIr};

use crate::bounds::{analyze_with, work_floors, BoundsConfig, BoundsReport, WorkFloors};

/// Per-operator admissible degree sets; the search space is their product.
#[derive(Clone, Debug)]
pub struct ParallelismLattice {
    /// `degrees[i]` — sorted, deduplicated degrees operator `i` may take.
    pub degrees: Vec<Vec<u32>>,
}

impl ParallelismLattice {
    /// Build the lattice from a flat candidate list (the existing
    /// enumerator's output): per operator, the distinct degrees seen
    /// across all candidates, thinned to at most `max_per_op` log-spaced
    /// values (always keeping the smallest and largest).
    pub fn from_candidates(candidates: &[Vec<u32>], max_per_op: usize) -> Self {
        let n = candidates.first().map_or(0, Vec::len);
        let max_per_op = max_per_op.max(2);
        let degrees = (0..n)
            .map(|i| {
                let mut ds: Vec<u32> = candidates.iter().map(|c| c[i]).collect();
                ds.sort_unstable();
                ds.dedup();
                if ds.len() > max_per_op {
                    // log-spaced *index* selection keeps the endpoints and
                    // stays deterministic for any degree distribution.
                    let picked: Vec<u32> = (0..max_per_op)
                        .map(|k| {
                            let t = k as f64 / (max_per_op - 1) as f64;
                            let idx = (((ds.len() - 1) as f64 + 1.0).powf(t) - 1.0).round();
                            ds[(idx as usize).min(ds.len() - 1)]
                        })
                        .collect();
                    let mut picked = picked;
                    picked.sort_unstable();
                    picked.dedup();
                    picked
                } else {
                    ds
                }
            })
            .collect();
        ParallelismLattice { degrees }
    }

    /// Number of operators (tree depth).
    pub fn num_ops(&self) -> usize {
        self.degrees.len()
    }

    /// Total number of lattice points, saturating at `u64::MAX`.
    pub fn size(&self) -> u64 {
        self.degrees
            .iter()
            .map(|d| d.len() as u64)
            .try_fold(1u64, u64::checked_mul)
            .unwrap_or(u64::MAX)
    }

    /// Leaves under one tree node at depth `op_idx` (the subtree a single
    /// degree choice for `op_idx` roots), saturating.
    pub fn leaves_below(&self, op_idx: usize) -> u64 {
        self.degrees[op_idx + 1..]
            .iter()
            .map(|d| d.len() as u64)
            .try_fold(1u64, u64::checked_mul)
            .unwrap_or(u64::MAX)
    }

    /// All lattice points in lexicographic order — the exhaustive baseline
    /// the branch-and-bound search is pinned against. Callers must check
    /// [`ParallelismLattice::size`] first; this allocates the full set.
    pub fn enumerate(&self) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        let mut cur = Vec::with_capacity(self.num_ops());
        self.enumerate_rec(0, &mut cur, &mut out);
        out
    }

    fn enumerate_rec(&self, i: usize, cur: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if i == self.num_ops() {
            out.push(cur.clone());
            return;
        }
        for &d in &self.degrees[i] {
            cur.push(d);
            self.enumerate_rec(i + 1, cur, out);
            cur.pop();
        }
    }
}

/// Counters describing one branch-and-bound run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    /// Interior + leaf tree nodes expanded (degree choices considered).
    pub nodes_visited: u64,
    /// Leaves fully analyzed with the interval machinery.
    pub leaves_analyzed: u64,
    /// Subtrees cut by the per-op infeasibility certificate.
    pub subtrees_pruned: u64,
    /// Subtrees cut by incumbent dominance.
    pub incumbent_cuts: u64,
    /// Lattice points skipped under pruned subtrees (saturating).
    pub leaves_skipped: u64,
}

/// Result of one [`branch_and_bound`] run.
pub struct SearchOutcome {
    /// Analyzed leaves in lexicographic order: the degree vector and its
    /// full interval report.
    pub analyzed: Vec<(Vec<u32>, BoundsReport)>,
    pub stats: SearchStats,
    /// Whether any analyzed leaf is feasible. When `false` the caller
    /// must fall back to exhaustive enumeration: `prune_mask` keeps *all*
    /// candidates of an all-infeasible set, including the ones the
    /// certificates skipped.
    pub feasible_found: bool,
    /// The search stopped early because `visit_budget` leaves were
    /// analyzed; the analyzed set is then incomplete and unusable for an
    /// outcome-equivalent tuning decision.
    pub budget_exhausted: bool,
}

/// Walk the lattice depth-first in lexicographic order, analyze every
/// leaf that no sound certificate rules out, and return the analyzed set.
///
/// `visit_budget` caps the number of *analyzed* leaves (runaway-space
/// protection); exceeding it aborts the search with
/// [`SearchOutcome::budget_exhausted`] set.
pub fn branch_and_bound(
    plan: &LogicalPlan,
    ir: &PlanIr,
    cluster: &Cluster,
    bcfg: &BoundsConfig,
    lattice: &ParallelismLattice,
    visit_budget: usize,
) -> SearchOutcome {
    let _span = zt_telemetry::span("tune.bnb");
    let mut probe = ParallelQueryPlan::new(plan.clone());
    let floors = work_floors(&probe, ir, cluster, bcfg);

    // Optimistic completion bounds shared by every subtree: throughput can
    // never exceed the offered rate, latency never undercuts the external
    // I/O constant (the per-hop engine floors come on top; the constant
    // alone keeps the cut sound and parallelism-independent).
    let offered = offered_rate(plan, ir);
    let optimistic_latency_lo = bcfg.external_io_ms;

    let mut search = Dfs {
        ir,
        cluster,
        bcfg,
        lattice,
        floors,
        visit_budget,
        offered,
        optimistic_latency_lo,
        probe: &mut probe,
        assignment: Vec::with_capacity(lattice.num_ops()),
        analyzed: Vec::new(),
        stats: SearchStats::default(),
        incumbent: None,
        budget_exhausted: false,
    };
    search.visit(0);

    let stats = search.stats;
    let feasible_found =
        search.incumbent.is_some() || search.analyzed.iter().any(|(_, r)| !r.infeasible());
    let outcome = SearchOutcome {
        analyzed: search.analyzed,
        stats,
        feasible_found,
        budget_exhausted: search.budget_exhausted,
    };
    zt_telemetry::counter_add("tune.bnb.nodes", outcome.stats.nodes_visited);
    zt_telemetry::counter_add("tune.bnb.analyzed", outcome.stats.leaves_analyzed);
    zt_telemetry::counter_add("tune.bnb.subtrees_pruned", outcome.stats.subtrees_pruned);
    zt_telemetry::counter_add("tune.bnb.incumbent_cuts", outcome.stats.incumbent_cuts);
    zt_telemetry::counter_add("tune.bnb.leaves_skipped", outcome.stats.leaves_skipped);
    outcome
}

/// Incumbent: the strongest feasible leaf seen so far, kept as the pair of
/// interval endpoints the dominance test needs.
#[derive(Clone, Copy)]
struct Incumbent {
    latency_hi: f64,
    throughput_lo: f64,
}

struct Dfs<'a> {
    ir: &'a PlanIr,
    cluster: &'a Cluster,
    bcfg: &'a BoundsConfig,
    lattice: &'a ParallelismLattice,
    floors: WorkFloors,
    visit_budget: usize,
    offered: f64,
    optimistic_latency_lo: f64,
    probe: &'a mut ParallelQueryPlan,
    assignment: Vec<u32>,
    analyzed: Vec<(Vec<u32>, BoundsReport)>,
    stats: SearchStats,
    incumbent: Option<Incumbent>,
    budget_exhausted: bool,
}

impl Dfs<'_> {
    fn visit(&mut self, op_idx: usize) {
        if self.budget_exhausted {
            return;
        }
        if op_idx == self.lattice.num_ops() {
            self.analyze_leaf();
            return;
        }
        // Clippy: the index loop is deliberate — `self` is mutably
        // borrowed inside, so we cannot hold an iterator over `lattice`.
        for di in 0..self.lattice.degrees[op_idx].len() {
            let d = self.lattice.degrees[op_idx][di];
            self.stats.nodes_visited += 1;

            // Certificate 1: this degree choice alone proves every
            // completion infeasible — exactly the condition `prune_mask`
            // masks leaves by, so skipping is outcome-neutral. The floor
            // divides by the *effective* degree (instances beyond the
            // key-cardinality cap are idle), matching `analyze_with`.
            let eff = self.probe.plan.ops()[op_idx].kind.effective_parallelism(d);
            if self.floors.op_util_floor(op_idx, eff) >= 1.0 {
                self.stats.subtrees_pruned += 1;
                self.stats.leaves_skipped = self
                    .stats
                    .leaves_skipped
                    .saturating_add(self.lattice.leaves_below(op_idx));
                continue;
            }

            // Certificate 2: the incumbent interval-dominates the best
            // conceivable completion of this subtree.
            if let Some(inc) = self.incumbent {
                if inc.latency_hi < self.optimistic_latency_lo && inc.throughput_lo >= self.offered
                {
                    self.stats.incumbent_cuts += 1;
                    self.stats.leaves_skipped = self
                        .stats
                        .leaves_skipped
                        .saturating_add(self.lattice.leaves_below(op_idx));
                    continue;
                }
            }

            self.assignment.push(d);
            self.visit(op_idx + 1);
            self.assignment.pop();
            if self.budget_exhausted {
                return;
            }
        }
    }

    fn analyze_leaf(&mut self) {
        if self.analyzed.len() >= self.visit_budget {
            self.budget_exhausted = true;
            return;
        }
        self.probe.parallelism.clone_from(&self.assignment);
        self.probe.reset_partitioning();
        let report = analyze_with(self.probe, self.ir, self.cluster, self.bcfg);
        self.stats.leaves_analyzed += 1;
        if !report.infeasible() {
            let cand = Incumbent {
                latency_hi: report.latency_ms.hi,
                throughput_lo: report.throughput.lo,
            };
            let better = self
                .incumbent
                .is_none_or(|inc| cand.latency_hi < inc.latency_hi);
            if better {
                self.incumbent = Some(cand);
            }
        }
        self.analyzed.push((self.assignment.clone(), report));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::prune_mask;
    use zt_dspsim::cluster::ClusterType;
    use zt_query::{QueryGenerator, QueryStructure};

    fn cluster() -> Cluster {
        Cluster::homogeneous(ClusterType::M510, 4, 10.0)
    }

    fn lattice_of(sets: &[&[u32]]) -> ParallelismLattice {
        ParallelismLattice {
            degrees: sets.iter().map(|s| s.to_vec()).collect(),
        }
    }

    #[test]
    fn lattice_from_candidates_dedupes_and_sorts() {
        let cands = vec![vec![4, 1, 2], vec![2, 1, 2], vec![4, 8, 2]];
        let lat = ParallelismLattice::from_candidates(&cands, 8);
        assert_eq!(lat.degrees, vec![vec![2, 4], vec![1, 8], vec![2]]);
        assert_eq!(lat.size(), 4);
        assert_eq!(lat.leaves_below(0), 2);
        assert_eq!(lat.leaves_below(2), 1);
    }

    #[test]
    fn lattice_thinning_keeps_endpoints() {
        let cands: Vec<Vec<u32>> = (1..=32u32).map(|d| vec![d]).collect();
        let lat = ParallelismLattice::from_candidates(&cands, 4);
        assert!(lat.degrees[0].len() <= 4);
        assert_eq!(*lat.degrees[0].first().unwrap(), 1);
        assert_eq!(*lat.degrees[0].last().unwrap(), 32);
    }

    #[test]
    fn enumerate_is_lexicographic() {
        let lat = lattice_of(&[&[1, 2], &[3, 4]]);
        assert_eq!(
            lat.enumerate(),
            vec![vec![1, 3], vec![1, 4], vec![2, 3], vec![2, 4]]
        );
    }

    #[test]
    fn search_analyzes_exactly_the_unpruned_leaves() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
        let plan = QueryGenerator::seen().generate(QueryStructure::Linear, &mut rng);
        let ir = plan.validate().unwrap();
        let n = plan.num_ops();
        let lat = lattice_of(&vec![&[1u32, 2, 4][..]; n]);
        let bcfg = BoundsConfig::default();
        let out = branch_and_bound(&plan, &ir, &cluster(), &bcfg, &lat, 10_000);
        assert!(!out.budget_exhausted);
        // analyzed + skipped partitions the lattice
        assert_eq!(
            out.stats.leaves_analyzed + out.stats.leaves_skipped,
            lat.size()
        );
        // analyzed leaves come out in lexicographic order
        let keys: Vec<_> = out.analyzed.iter().map(|(c, _)| c.clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn pruned_leaves_are_provably_infeasible() {
        // High-rate plan: low-degree subtrees must be cut, and every cut
        // leaf must be one the exhaustive prune_mask would mask anyway.
        let plan = zt_query::benchmarks::spike_detection(5_000_000.0);
        let ir = plan.validate().unwrap();
        let n = plan.num_ops();
        let lat = lattice_of(&vec![&[1u32, 16][..]; n]);
        let bcfg = BoundsConfig::default();
        let out = branch_and_bound(&plan, &ir, &cluster(), &bcfg, &lat, 10_000);
        assert!(out.stats.subtrees_pruned > 0, "nothing was pruned");
        assert!(out.feasible_found);

        // exhaustive ground truth
        let all = lat.enumerate();
        let mut probe = ParallelQueryPlan::new(plan.clone());
        let reports: Vec<_> = all
            .iter()
            .map(|cand| {
                probe.parallelism.clone_from(cand);
                probe.reset_partitioning();
                analyze_with(&probe, &ir, &cluster(), &bcfg)
            })
            .collect();
        let keep = prune_mask(&reports);
        let analyzed: std::collections::HashSet<_> =
            out.analyzed.iter().map(|(c, _)| c.clone()).collect();
        for (cand, (&k, report)) in all.iter().zip(keep.iter().zip(&reports)) {
            if !analyzed.contains(cand) {
                assert!(
                    report.infeasible(),
                    "skipped leaf {cand:?} is not provably infeasible"
                );
                assert!(!k, "skipped leaf {cand:?} survives the exhaustive mask");
            }
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let plan = QueryGenerator::seen().generate(QueryStructure::Linear, &mut rng);
        let ir = plan.validate().unwrap();
        let n = plan.num_ops();
        let lat = lattice_of(&vec![&[1u32, 2, 4, 8][..]; n]);
        let out = branch_and_bound(&plan, &ir, &cluster(), &BoundsConfig::default(), &lat, 3);
        assert!(out.budget_exhausted);
        assert!(out.analyzed.len() <= 3);
    }
}
