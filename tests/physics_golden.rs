//! Physics golden: the steady-state model's outputs on a fixed corpus of
//! deployments, pinned against `tests/fixtures/physics_golden.txt`.
//!
//! The corpus is the three benchmark queries at three offered rates plus
//! 50 plans from the `zt-lint --fuzz` generator recipe, each deployed at
//! several degree vectors on a homogeneous and a heterogeneous cluster
//! (the latter has 9-, 12-, 20- and 28-core nodes, whose `1/cores` is
//! inexact). Three kinds of record are pinned:
//!
//! * `simulate_core` — every field, `per_op` and the deployment included,
//!   folded bitwise (`to_bits`) into one hash per deployment;
//! * `prune_mask` over each plan's deployments, and `tune` outcomes
//!   (parallelism, predictions, every counter) for the flat search and,
//!   on the benchmark queries, the lattice search — exactly;
//! * every `BoundsReport` endpoint to within [`BOUNDS_ULPS`] units in the
//!   last place: a bracket endpoint may move by an ULP or two when an
//!   expression's association order changes (dividing by a core count
//!   instead of multiplying by its reciprocal), while the solver's point
//!   values may not move at all.
//!
//! Regenerate the fixture (only when the model's physics changes on
//! purpose) with
//! `cargo test --test physics_golden -- --ignored capture_physics_golden`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zerotune::core::bounds::{analyze_with, prune_mask, BoundsConfig, BoundsReport, Interval};
use zerotune::core::model::{ModelConfig, ZeroTuneModel};
use zerotune::core::optimizer::{tune, OptimizerConfig, SearchSpace};
use zerotune::dspsim::analytical::{simulate_core, QueryMetrics, SimConfig};
use zerotune::dspsim::cluster::{Cluster, ClusterType};
use zerotune::query::{benchmarks, LogicalPlan, ParallelQueryPlan, QueryGenerator, QueryStructure};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/physics_golden.txt"
);

/// Largest allowed distance between a pinned and a recomputed bounds
/// endpoint, in units in the last place.
const BOUNDS_ULPS: u64 = 4;

/// One pinned record: exact bit patterns, or bounds endpoints compared
/// within [`BOUNDS_ULPS`].
#[derive(Clone, Debug, PartialEq)]
enum Record {
    Exact(Vec<u64>),
    Ulps(Vec<u64>),
}

fn clusters() -> [Cluster; 2] {
    [
        Cluster::homogeneous(ClusterType::M510, 4, 10.0),
        Cluster::heterogeneous(
            &[
                ClusterType::Rs620,
                ClusterType::Dss7500,
                ClusterType::C6320,
                ClusterType::C8220,
            ],
            6,
            10.0,
        ),
    ]
}

/// The `zt-lint --fuzz` recipe: structure by index, seeded generator.
fn fuzz_plan(i: usize) -> LogicalPlan {
    let structure = match i % 8 {
        0 => QueryStructure::Linear,
        1 => QueryStructure::TwoWayJoin,
        2 => QueryStructure::ThreeWayJoin,
        3 => QueryStructure::ChainedFilters(2 + (i % 3) as u8),
        4 => QueryStructure::NWayJoin(4 + (i % 3) as u8),
        5 => QueryStructure::SpikeDetection,
        6 => QueryStructure::SmartGridLocal,
        _ => QueryStructure::SmartGridGlobal,
    };
    let generator = if structure.is_seen() {
        QueryGenerator::seen()
    } else {
        QueryGenerator::unseen()
    };
    generator.generate(
        structure,
        &mut StdRng::seed_from_u64(0x5EED_0000 + i as u64),
    )
}

/// `(name, plan, runs the lattice search)` for the whole corpus.
fn corpus() -> Vec<(String, LogicalPlan, bool)> {
    let mut out = Vec::new();
    for rate in [5_000.0, 400_000.0, 3_000_000.0] {
        out.push((
            format!("spike@{rate}"),
            benchmarks::spike_detection(rate),
            true,
        ));
        out.push((
            format!("grid_local@{rate}"),
            benchmarks::smart_grid_local(rate),
            true,
        ));
        out.push((
            format!("grid_global@{rate}"),
            benchmarks::smart_grid_global(rate),
            true,
        ));
    }
    for i in 0..50 {
        out.push((format!("fuzz{i}"), fuzz_plan(i), false));
    }
    out
}

/// Uniform degrees 1 and 4 plus one seeded mixed vector.
fn degree_vectors(n: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mixed = (0..n).map(|_| rng.gen_range(1u32..=16)).collect();
    vec![vec![1; n], vec![4; n], mixed]
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn sim_words(m: &QueryMetrics) -> Vec<u64> {
    let mut w = vec![
        m.latency_ms.to_bits(),
        m.throughput.to_bits(),
        m.offered_rate.to_bits(),
        m.backpressure_scale.to_bits(),
        m.bottleneck_utilization.to_bits(),
    ];
    w.extend(m.latency_per_sink_ms.iter().map(|l| l.to_bits()));
    for op in &m.per_op {
        w.extend(
            [
                op.input_rate,
                op.output_rate,
                op.work_us,
                op.utilization,
                op.sojourn_ms,
                op.residence_ms,
            ]
            .map(f64::to_bits),
        );
    }
    let dep = serde_json::to_string(&m.deployment).expect("deployment serializes");
    w.extend(dep.bytes().map(u64::from));
    w
}

fn bounds_words(r: &BoundsReport) -> Vec<u64> {
    let mut ivs: Vec<Interval> = r.headline_intervals().iter().map(|&(_, iv)| iv).collect();
    ivs.extend(r.latency_per_sink_ms.iter().copied());
    for op in &r.per_op {
        ivs.extend([
            op.input_rate,
            op.output_rate,
            op.work_us,
            op.utilization,
            op.sojourn_ms,
            op.residence_ms,
        ]);
    }
    let mut w = vec![r.offered_rate.to_bits(), r.utilization_target.to_bits()];
    w.extend(ivs.iter().flat_map(|iv| [iv.lo.to_bits(), iv.hi.to_bits()]));
    w
}

fn tune_words(
    model: &ZeroTuneModel,
    plan: &LogicalPlan,
    cluster: &Cluster,
    search: SearchSpace,
) -> Vec<u64> {
    let cfg = OptimizerConfig {
        strict: false,
        prune: true,
        dataflow_cap: true,
        search,
        ..OptimizerConfig::default()
    };
    let o = tune(model, plan, cluster, &cfg).expect("corpus plans tune");
    let mut w: Vec<u64> = o.parallelism.iter().map(|&p| u64::from(p)).collect();
    w.extend([
        o.predicted_latency_ms.to_bits(),
        o.predicted_throughput.to_bits(),
        o.weighted_cost.to_bits(),
        o.candidates_evaluated as u64,
        o.candidates_pruned as u64,
        o.search_space,
        o.search_visited,
        o.search_subtrees_pruned,
        o.dataflow_capped_ops as u64,
        o.dataflow_points_removed,
    ]);
    w
}

/// Compute every record of the corpus, keyed by a stable name.
fn compute() -> BTreeMap<String, Record> {
    let clusters = clusters();
    let model = ZeroTuneModel::new(ModelConfig {
        hidden: 16,
        seed: 11,
    });
    let sim_cfg = SimConfig::noiseless();
    let bounds_cfg = BoundsConfig::from(&sim_cfg);
    let lattice = SearchSpace::Lattice {
        max_degrees_per_op: 3,
        visit_budget: 100_000,
    };
    let mut out = BTreeMap::new();
    for (k, (name, plan, run_lattice)) in corpus().into_iter().enumerate() {
        let cluster = &clusters[k % 2];
        let ir = plan.validate().expect("corpus plans seal");
        let mut reports = Vec::new();
        for (d, degrees) in degree_vectors(plan.num_ops(), k as u64)
            .into_iter()
            .enumerate()
        {
            let pqp = ParallelQueryPlan::with_parallelism(plan.clone(), degrees);
            let m = simulate_core(&pqp, cluster, &sim_cfg);
            out.insert(
                format!("{name}/d{d}/sim"),
                Record::Exact(vec![fnv(sim_words(&m))]),
            );
            let r = analyze_with(&pqp, &ir, cluster, &bounds_cfg);
            out.insert(
                format!("{name}/d{d}/bounds"),
                Record::Ulps(bounds_words(&r)),
            );
            reports.push(r);
        }
        let mask = prune_mask(&reports).into_iter().map(u64::from).collect();
        out.insert(format!("{name}/prune"), Record::Exact(mask));
        out.insert(
            format!("{name}/tune_flat"),
            Record::Exact(tune_words(&model, &plan, cluster, SearchSpace::Flat)),
        );
        if run_lattice {
            out.insert(
                format!("{name}/tune_lattice"),
                Record::Exact(tune_words(&model, &plan, cluster, lattice)),
            );
        }
    }
    out
}

fn render(records: &BTreeMap<String, Record>) -> String {
    let mut s = String::new();
    for (key, rec) in records {
        let (tag, words) = match rec {
            Record::Exact(w) => ("E", w),
            Record::Ulps(w) => ("U", w),
        };
        write!(s, "{key} {tag}").unwrap();
        // `=` repeats the previous word (most intervals are points).
        let mut prev = None;
        for &w in words {
            if prev == Some(w) {
                s.push_str(" =");
            } else {
                write!(s, " {w:x}").unwrap();
            }
            prev = Some(w);
        }
        s.push('\n');
    }
    s
}

fn parse(text: &str) -> BTreeMap<String, Record> {
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|line| {
            let mut it = line.split(' ');
            let key = it.next().expect("record key").to_string();
            let tag = it.next().expect("record tag");
            let mut words: Vec<u64> = Vec::new();
            for w in it {
                let word = match w {
                    "=" => *words.last().expect("`=` follows a word"),
                    hex => u64::from_str_radix(hex, 16).expect("hex word"),
                };
                words.push(word);
            }
            let rec = match tag {
                "E" => Record::Exact(words),
                "U" => Record::Ulps(words),
                other => panic!("unknown record tag {other}"),
            };
            (key, rec)
        })
        .collect()
}

/// Distance between two `f64` bit patterns in units in the last place
/// (bit patterns mapped onto a monotone integer line).
fn ulps(a: u64, b: u64) -> u64 {
    let line = |bits: u64| -> i128 {
        if bits >> 63 == 1 {
            -i128::from(bits & !(1 << 63))
        } else {
            i128::from(bits)
        }
    };
    (line(a) - line(b))
        .unsigned_abs()
        .try_into()
        .unwrap_or(u64::MAX)
}

#[test]
fn physics_matches_the_golden_fixture() {
    let text = std::fs::read_to_string(FIXTURE).expect("fixture present");
    let want = parse(&text);
    let got = compute();
    assert_eq!(
        want.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "record set drifted"
    );
    let mut failures = Vec::new();
    for (key, w) in &want {
        match (w, &got[key]) {
            (Record::Exact(a), Record::Exact(b)) => {
                if a != b {
                    failures.push(format!("{key}: {a:x?} != {b:x?}"));
                }
            }
            (Record::Ulps(a), Record::Ulps(b)) => {
                if a.len() != b.len() {
                    failures.push(format!("{key}: {} endpoints != {}", a.len(), b.len()));
                    continue;
                }
                for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
                    if ulps(x, y) > BOUNDS_ULPS {
                        failures.push(format!(
                            "{key}[{i}]: {} vs {} ({} ulps)",
                            f64::from_bits(x),
                            f64::from_bits(y),
                            ulps(x, y)
                        ));
                    }
                }
            }
            _ => failures.push(format!("{key}: record kind changed")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} golden mismatches:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
#[ignore = "rewrites the fixture; run only when the physics changes on purpose"]
fn capture_physics_golden() {
    std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
    std::fs::write(FIXTURE, render(&compute())).unwrap();
}

#[test]
fn ulp_distance_is_symmetric_and_signed() {
    assert_eq!(ulps(1.0f64.to_bits(), 1.0f64.to_bits()), 0);
    let next = f64::from_bits(1.0f64.to_bits() + 3);
    assert_eq!(ulps(1.0f64.to_bits(), next.to_bits()), 3);
    assert_eq!(ulps(next.to_bits(), 1.0f64.to_bits()), 3);
    assert_eq!(ulps(0.0f64.to_bits(), (-0.0f64).to_bits()), 0);
}
