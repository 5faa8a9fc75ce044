//! Training golden: trained weights and loss curves pinned bitwise.
//!
//! Three small, seeded training runs are folded into FNV-1a hashes over
//! the `to_bits` of every final weight and every `train_loss` /
//! `val_loss` entry:
//!
//! * a default `train` run of the GNN cost model (64 samples, 2 epochs,
//!   hidden 16);
//! * a few-shot `fine_tune` of that model on unseen structures, which
//!   trains under a head-only `param_mask`;
//! * the flat-vector MLP baseline.
//!
//! The constants were recorded before the tape's fused `Linear` op
//! existed, so they pin that the fast training path changes no result.
//! They must hold on the lane kernels and under
//! `--features zt-nn/scalar-kernels` alike (the two are bitwise-equal
//! without hardware FMA). A build with `target_feature = "fma"` fuses the
//! kernel multiply-adds and is not covered by these constants.

use zerotune::baselines::FlatMlp;
use zerotune::core::dataset::{generate_dataset, GenConfig};
use zerotune::core::fewshot::{fine_tune, FewShotConfig};
use zerotune::core::model::{ModelConfig, ZeroTuneModel};
use zerotune::core::train::{train, TrainConfig, TrainReport};
use zerotune::nn::ParamStore;

const GNN_WEIGHTS: u64 = 0xd9f8_88de_88e4_860b;
const GNN_LOSSES: u64 = 0x938d_0ba6_008c_a874;
const FEWSHOT_WEIGHTS: u64 = 0x77f9_d8ae_213f_bfe7;
const FEWSHOT_LOSSES: u64 = 0x2e38_95ec_c3a7_3672;
const FLAT_WEIGHTS: u64 = 0x640d_d506_0903_c5e9;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn weights_hash(store: &ParamStore) -> u64 {
    let mut h = Fnv::new();
    for id in store.ids() {
        for v in &store.value(id).data {
            h.bytes(&v.to_bits().to_le_bytes());
        }
    }
    h.0
}

fn losses_hash(report: &TrainReport) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&(report.epochs_run as u64).to_le_bytes());
    for v in report.train_loss.iter().chain(&report.val_loss) {
        h.bytes(&v.to_bits().to_le_bytes());
    }
    h.0
}

fn gnn_runs() -> [(u64, u64); 2] {
    let data = generate_dataset(&GenConfig::seen(), 64, 0x601D);
    let mut model = ZeroTuneModel::new(ModelConfig {
        hidden: 16,
        seed: 0x601D,
    });
    let cfg = TrainConfig {
        epochs: 2,
        patience: 0,
        strict: false,
        ..TrainConfig::default()
    };
    let zero_shot = train(&mut model, &data, &cfg);
    let first = (weights_hash(&model.store), losses_hash(&zero_shot));

    let shots = generate_dataset(&GenConfig::unseen_structures(), 24, 0x5407);
    let few_shot = fine_tune(
        &mut model,
        &shots,
        &FewShotConfig {
            epochs: 2,
            ..FewShotConfig::default()
        },
    );
    [first, (weights_hash(&model.store), losses_hash(&few_shot))]
}

#[test]
fn gnn_and_few_shot_training_are_bit_stable() {
    let [zero_shot, few_shot] = gnn_runs();
    println!("GNN {:#018x} {:#018x}", zero_shot.0, zero_shot.1);
    println!("FEWSHOT {:#018x} {:#018x}", few_shot.0, few_shot.1);
    assert_eq!(zero_shot, (GNN_WEIGHTS, GNN_LOSSES), "default train run");
    assert_eq!(
        few_shot,
        (FEWSHOT_WEIGHTS, FEWSHOT_LOSSES),
        "few-shot param_mask run"
    );
}

#[test]
fn flat_mlp_training_is_bit_stable() {
    let data = generate_dataset(&GenConfig::seen(), 64, 0xF1A7);
    let model = FlatMlp::fit_with(&data, 0xF1A7, 2, 2e-3);
    let got = weights_hash(model.store());
    println!("FLAT {got:#018x}");
    assert_eq!(got, FLAT_WEIGHTS, "flat MLP baseline");
}
