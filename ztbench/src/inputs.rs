//! Seeded workload inputs. Everything the program sees is generated here,
//! from the `--seed` argument alone, before any timing starts: the same
//! seed gives byte-identical request bodies, plans and datasets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zt_core::{GenConfig, ModelConfig, ZeroTuneModel};
use zt_query::benchmarks::{smart_grid_global, smart_grid_local, spike_detection};
use zt_query::{LogicalPlan, QueryGenerator, QueryStructure};

use crate::client::render_request;

/// The three benchmark query families `/predict` deployments are drawn from.
const FAMILIES: [fn(f64) -> LogicalPlan; 3] =
    [spike_detection, smart_grid_local, smart_grid_global];
/// Uniform parallelism degrees of a deployment.
const DEGREES: [u32; 3] = [1, 2, 4];
/// Recurring deployments of the mixed workload, and its Zipf exponent.
const RECURRING: usize = 512;
const ZIPF_S: f64 = 1.1;

/// Seed of an independent stream for one input family of one workload.
pub fn rng_seed(seed: u64, stream: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream + 1)
}

pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(rng_seed(seed, stream))
}

/// Envelope a plan for the wire (`PlanIr::to_json`).
fn wire(plan: &LogicalPlan) -> String {
    let ir = plan.validate().expect("generated plans are valid");
    ir.to_json(plan).expect("generated plans serialize")
}

/// `/predict`, `/explain` and `/lint` body: a plan at a uniform degree.
fn deployment_body(plan: &LogicalPlan, degree: u32) -> String {
    let par = vec![degree.to_string(); plan.num_ops()].join(",");
    format!("{{\"plan\":{},\"parallelism\":[{par}]}}", wire(plan))
}

/// A deployment drawn from the benchmark families at `rate` events/s.
fn family_deployment(rng: &mut StdRng, rate: f64) -> String {
    let family = FAMILIES[rng.gen_range(0..FAMILIES.len())];
    let degree = DEGREES[rng.gen_range(0..DEGREES.len())];
    deployment_body(&family(rate), degree)
}

/// Endpoint of a request, as the report groups them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Predict,
    Tune,
    Explain,
    Lint,
    Swap,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Predict,
        Kind::Tune,
        Kind::Explain,
        Kind::Lint,
        Kind::Swap,
    ];

    pub fn path(self) -> &'static str {
        match self {
            Kind::Predict => "/predict",
            Kind::Tune => "/tune",
            Kind::Explain => "/explain",
            Kind::Lint => "/lint",
            Kind::Swap => "/swap",
        }
    }

    pub fn name(self) -> &'static str {
        &self.path()[1..]
    }
}

/// One pre-rendered request.
#[derive(Clone, Debug)]
pub struct Shot {
    pub kind: Kind,
    pub request: Vec<u8>,
}

impl Shot {
    fn post(kind: Kind, body: &str) -> Shot {
        Shot {
            kind,
            request: render_request("POST", kind.path(), body),
        }
    }

    /// The JSON body of the pre-rendered request.
    pub fn body(&self) -> &str {
        let start = self
            .request
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map_or(self.request.len(), |p| p + 4);
        std::str::from_utf8(&self.request[start..]).expect("bodies are UTF-8")
    }
}

/// `predict_unique`: every deployment distinct, so no request can hit the
/// prediction cache. Rates are spaced 37 events/s apart plus a seeded
/// jitter below 1, which keeps every feature vector distinct.
pub fn unique_predicts(seed: u64, count: usize) -> Vec<Shot> {
    let mut rng = rng_for(seed, 1);
    (0..count)
        .map(|i| {
            let rate = 100.0 + 37.0 * i as f64 + rng.gen_range(0.0..1.0);
            Shot::post(Kind::Predict, &family_deployment(&mut rng, rate))
        })
        .collect()
}

/// Sampler of the mixed workload: Zipf-distributed recurring deployments,
/// fresh ones, `/tune` plans of every structure, `/explain` and `/lint`.
pub struct MixSampler {
    rng: StdRng,
    recurring: Vec<String>,
    zipf_cdf: Vec<f64>,
    tune_bodies: Vec<String>,
    fresh: usize,
}

impl MixSampler {
    pub fn new(seed: u64) -> Self {
        let mut rng = rng_for(seed, 2);
        // Rates 250 events/s apart (plus jitter) keep the 512 distinct,
        // and below the fresh deployments' range.
        let recurring = (0..RECURRING)
            .map(|k| {
                let rate = 500.0 + 250.0 * k as f64 + rng.gen_range(0.0..1.0);
                family_deployment(&mut rng, rate)
            })
            .collect();
        let weights: Vec<f64> = (1..=RECURRING).map(|k| (k as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let zipf_cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        let tune_bodies = tune_pool(&mut rng)
            .iter()
            .map(|p| format!("{{\"plan\":{}}}", wire(p)))
            .collect();
        MixSampler {
            rng,
            recurring,
            zipf_cdf,
            tune_bodies,
            fresh: 0,
        }
    }

    fn zipf_rank(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        self.zipf_cdf.partition_point(|&c| c < u).min(RECURRING - 1)
    }

    /// Next request of the mix: 80% `/predict` (1 in 10 of them fresh),
    /// 12% `/tune`, 4% `/explain`, 4% `/lint`.
    pub fn next_shot(&mut self) -> Shot {
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        if roll < 0.80 {
            if self.rng.gen_range(0..10) == 0 {
                let rate = 2_000_000.0 + 37.0 * self.fresh as f64 + self.rng.gen_range(0.0..1.0);
                self.fresh += 1;
                let body = family_deployment(&mut self.rng, rate);
                Shot::post(Kind::Predict, &body)
            } else {
                let k = self.zipf_rank();
                Shot::post(Kind::Predict, &self.recurring[k])
            }
        } else if roll < 0.92 {
            let i = self.rng.gen_range(0..self.tune_bodies.len());
            Shot::post(Kind::Tune, &self.tune_bodies[i])
        } else {
            let kind = if roll < 0.96 {
                Kind::Explain
            } else {
                Kind::Lint
            };
            let i = self.rng.gen_range(0..RECURRING);
            Shot::post(kind, &self.recurring[i])
        }
    }
}

/// `/tune` plans of the mixed workload: `TUNE_POOL_PER_STRUCTURE`
/// generated plans of each of the 8 structures (chains of 2, 3 and 4
/// filters and joins of 4, 5 and 6 streams in equal numbers), plus the 3
/// benchmark queries at seeded rates. `/tune` cost varies several-fold
/// between plans of one structure; a pool this large, with fixed shares
/// of every shape, keeps the mix's cost nearly the same from seed to seed.
fn tune_pool(rng: &mut StdRng) -> Vec<LogicalPlan> {
    const TUNE_POOL_PER_STRUCTURE: u8 = 30;
    let generator = QueryGenerator::seen();
    let mut plans = Vec::new();
    for k in 0..TUNE_POOL_PER_STRUCTURE {
        let structures = [
            QueryStructure::Linear,
            QueryStructure::TwoWayJoin,
            QueryStructure::ThreeWayJoin,
            QueryStructure::ChainedFilters(2 + k % 3),
            QueryStructure::NWayJoin(4 + k % 3),
            QueryStructure::SpikeDetection,
            QueryStructure::SmartGridLocal,
            QueryStructure::SmartGridGlobal,
        ];
        for s in structures {
            plans.push(generator.generate(s, rng));
        }
    }
    for family in FAMILIES {
        plans.push(family(rng.gen_range(10_000.0..2_000_000.0)));
    }
    plans
}

/// The two models `/swap` alternates between. Seeds are drawn from the
/// workload seed; a seed whose fresh model would fail the daemon's
/// certification gate is skipped, so every swap is accepted.
pub fn swap_models(seed: u64) -> [ZeroTuneModel; 2] {
    let mut rng = rng_for(seed, 3);
    let mut next = || loop {
        let model = ZeroTuneModel::new(ModelConfig {
            seed: rng.gen_range(1..u64::from(u32::MAX)),
            ..ModelConfig::default()
        });
        let (cert, report) = zt_core::certify_report(&model);
        if cert.is_some() && !report.has_errors() {
            break model;
        }
    };
    [next(), next()]
}

/// `source → filter^(ops−2) → sink` at `rate`: deep chains grow the
/// parallelism lattice exponentially while a high rate keeps low-degree
/// subtrees provably infeasible, the case branch-and-bound cuts.
fn filter_chain(rate: f64, ops: usize) -> LogicalPlan {
    use zt_query::operators::SinkOp;
    use zt_query::{DataType, FilterFunction, FilterOp, OperatorKind, SourceOp, TupleSchema};
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
    let sink = p.add(OperatorKind::Sink(SinkOp));
    p.connect(prev, sink);
    p
}

/// `tune_lattice` plan set, in call order: 8 linear, 8 two-, 16 three- and
/// 8 four-filter chains, the 3 benchmark queries at a low and a high
/// seeded rate, and `filter_chain_8` at 5M events/s. The three-filter
/// block holds the median call and the four-filter block the 90th
/// percentile, so both sit inside a block of like-sized lattices.
pub fn lattice_plans(seed: u64) -> Vec<LogicalPlan> {
    let mut rng = rng_for(seed, 4);
    let generator = QueryGenerator::seen();
    let mut plans = Vec::new();
    for (structure, count) in [
        (QueryStructure::Linear, 8),
        (QueryStructure::ChainedFilters(2), 8),
        (QueryStructure::ChainedFilters(3), 16),
        (QueryStructure::ChainedFilters(4), 8),
    ] {
        for _ in 0..count {
            plans.push(generator.generate(structure, &mut rng));
        }
    }
    for family in FAMILIES {
        plans.push(family(rng.gen_range(10_000.0..100_000.0)));
        plans.push(family(rng.gen_range(1_000_000.0..3_000_000.0)));
    }
    plans.push(filter_chain(5_000_000.0, 8));
    plans
}

/// `train_pipeline` datagen configuration: the paper's seen setup, with
/// the strict pre-flight pinned off.
pub fn gen_config() -> GenConfig {
    GenConfig {
        strict: false,
        ..GenConfig::seen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_bodies() {
        let a = unique_predicts(9, 50);
        let b = unique_predicts(9, 50);
        assert!(a.iter().zip(&b).all(|(x, y)| x.request == y.request));
        assert_ne!(unique_predicts(10, 1)[0].request, a[0].request);

        let mut m1 = MixSampler::new(9);
        let mut m2 = MixSampler::new(9);
        for _ in 0..300 {
            let (x, y) = (m1.next_shot(), m2.next_shot());
            assert_eq!((x.kind, &x.request), (y.kind, &y.request));
        }
        let names = |s| lattice_plans(s).iter().map(wire).collect::<Vec<_>>();
        assert_eq!(names(9), names(9));
    }

    #[test]
    fn unique_deployments_never_repeat_and_bodies_parse() {
        let shots = unique_predicts(3, 400);
        let mut bodies: Vec<&str> = shots.iter().map(Shot::body).collect();
        bodies.sort_unstable();
        bodies.dedup();
        assert_eq!(bodies.len(), 400);
        let v = zt_serve::api::parse_body(shots[0].body().as_bytes()).expect("JSON body");
        zt_serve::api::deployment(&v).expect("valid deployment");
    }

    #[test]
    fn mix_matches_its_proportions() {
        let mut m = MixSampler::new(1);
        let shots: Vec<Shot> = (0..5000).map(|_| m.next_shot()).collect();
        let share = |k| shots.iter().filter(|s| s.kind == k).count() as f64 / 5000.0;
        assert!((share(Kind::Predict) - 0.80).abs() < 0.03);
        assert!((share(Kind::Tune) - 0.12).abs() < 0.02);
        assert!(share(Kind::Explain) > 0.02 && share(Kind::Lint) > 0.02);
    }
}
