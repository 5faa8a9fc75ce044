//! Supervised training of the zero-shot cost model.
//!
//! Mini-batch Adam on the MSE of normalized `[log latency, log
//! throughput]`, with global-norm gradient clipping, a validation split
//! and early stopping that restores the best weights.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zt_nn::optim::clip_grad_norm;
use zt_nn::tape::mse;
use zt_nn::{Adam, Optimizer, Scratch, Tape};

use crate::dataset::{Dataset, Sample};
use crate::estimator::CostEstimator;
use crate::model::{TargetNorm, ZeroTuneModel};
use crate::qerror::QErrorStats;

/// Trainer configuration.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    /// Global-norm gradient clip.
    pub clip: f32,
    /// Fraction of the training data held out for validation.
    pub val_fraction: f64,
    /// Early-stopping patience in epochs (0 disables early stopping).
    pub patience: usize,
    pub seed: u64,
    /// Refit the target normalization on this data (disable when
    /// fine-tuning a trained model).
    pub refit_norm: bool,
    /// Restrict updates to these parameters (used by few-shot
    /// fine-tuning).
    pub param_mask: Option<Vec<zt_nn::ParamId>>,
    /// Run the diagnostics pre-flight (dataset + model lints) and abort
    /// on `Error`-severity findings. Defaults to the `ZT_STRICT`
    /// environment variable.
    pub strict: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 40,
            batch_size: 16,
            lr: 1.5e-3,
            clip: 5.0,
            val_fraction: 0.1,
            patience: 8,
            seed: 0xBEEF,
            refit_norm: true,
            param_mask: None,
            strict: crate::diagnostics::strict_from_env(),
        }
    }
}

/// Training outcome.
#[derive(Clone, Debug)]
pub struct TrainReport {
    pub epochs_run: usize,
    pub best_val_loss: f64,
    pub train_loss: Vec<f64>,
    pub val_loss: Vec<f64>,
    pub wall_secs: f64,
}

fn sample_loss(model: &ZeroTuneModel, tape: &mut Tape, sample: &Sample) -> zt_nn::Var {
    let out = model.forward(tape, &sample.graph);
    let target = model.norm.normalize(sample.latency_ms, sample.throughput);
    let t = tape.leaf_row(&target);
    tape.mse_loss(out, t)
}

/// Mean loss over samples without touching gradients: the tapeless
/// forward pass and the tape's own MSE formula, so each term equals the
/// taped loss bit for bit.
fn eval_loss(model: &ZeroTuneModel, samples: &[&Sample]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut scratch = Scratch::new();
    let mut total = 0f64;
    for s in samples {
        let pred = model.forward_infer(&s.graph, &mut scratch);
        let target = model.norm.normalize(s.latency_ms, s.throughput);
        total += mse(&pred, &target) as f64;
    }
    total / samples.len() as f64
}

/// Train `model` on `data` in place.
pub fn train(model: &mut ZeroTuneModel, data: &Dataset, cfg: &TrainConfig) -> TrainReport {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    if cfg.strict {
        crate::diagnostics::preflight_train(model, data, cfg.refit_norm).enforce("train");
    }
    let _span = zt_telemetry::span("train");
    let start = std::time::Instant::now();
    if cfg.refit_norm {
        model.norm = TargetNorm::fit(data.labels());
    }

    // Validation split.
    let mut idx: Vec<usize> = (0..data.len()).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for i in (1..idx.len()).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    let n_val = ((data.len() as f64 * cfg.val_fraction) as usize).min(data.len().saturating_sub(1));
    let (val_idx, train_idx) = idx.split_at(n_val);
    let val: Vec<&Sample> = val_idx.iter().map(|&i| &data.samples[i]).collect();
    let mut train_order: Vec<usize> = train_idx.to_vec();

    let mut opt = Adam::new(cfg.lr);
    opt.set_mask(cfg.param_mask.clone());

    let mut report = TrainReport {
        epochs_run: 0,
        best_val_loss: f64::INFINITY,
        train_loss: Vec::new(),
        val_loss: Vec::new(),
        wall_secs: 0.0,
    };
    let mut best_weights = model.store.clone();
    let mut since_best = 0usize;
    // One tape for the whole run: `clear` keeps its buffers warm.
    let mut tape = Tape::new();

    for epoch in 0..cfg.epochs {
        let _epoch_span = zt_telemetry::span_arg("train.epoch", || epoch.to_string());
        // Shuffle the epoch order.
        for i in (1..train_order.len()).rev() {
            let j = rng.gen_range(0..=i);
            train_order.swap(i, j);
        }

        let mut epoch_loss = 0f64;
        let mut batch_count = 0usize;
        for batch in train_order.chunks(cfg.batch_size.max(1)) {
            model.store.zero_grad();
            let mut batch_loss = 0f64;
            for &i in batch {
                let sample = &data.samples[i];
                tape.clear();
                let loss = sample_loss(model, &mut tape, sample);
                batch_loss += tape.scalar_value(loss) as f64;
                tape.backward(loss, &mut model.store);
            }
            model.store.scale_grads(1.0 / batch.len() as f32);
            let grad_norm = clip_grad_norm(&mut model.store, cfg.clip);
            zt_telemetry::observe("train.grad_norm", f64::from(grad_norm));
            opt.step(&mut model.store);
            epoch_loss += batch_loss / batch.len() as f64;
            batch_count += 1;
        }
        report
            .train_loss
            .push(epoch_loss / batch_count.max(1) as f64);
        zt_telemetry::observe(
            "train.epoch_loss",
            *report.train_loss.last().expect("one epoch ran"),
        );

        let vl = if val.is_empty() {
            *report.train_loss.last().expect("one epoch ran")
        } else {
            eval_loss(model, &val)
        };
        report.val_loss.push(vl);
        zt_telemetry::observe("train.val_loss", vl);
        report.epochs_run += 1;
        zt_telemetry::counter_add("train.epochs", 1);

        if vl < report.best_val_loss {
            report.best_val_loss = vl;
            best_weights = model.store.clone();
            since_best = 0;
        } else {
            since_best += 1;
            // halve the learning rate on a validation plateau
            if cfg.patience > 0 && since_best == cfg.patience.div_ceil(2) {
                opt.lr *= 0.5;
            }
            if cfg.patience > 0 && since_best >= cfg.patience {
                break;
            }
        }
    }

    model.store.copy_weights_from(&best_weights);
    report.wall_secs = start.elapsed().as_secs_f64();

    // Strict mode: post-training certification. Training must not have
    // pushed the weights anywhere the interval certificate flags —
    // exploded brackets (ZT601) or a head that provably cannot reproduce
    // any training label (ZT602) abort here instead of at deploy time.
    if cfg.strict {
        let _s = zt_telemetry::span("train.certify");
        let (_, cert_report) = crate::certify::certify_report(model);
        cert_report.enforce("post-training certification");
    }
    report
}

/// Q-error statistics of any [`CostEstimator`] on `samples`, per metric:
/// `(latency stats, throughput stats)`.
pub fn evaluate<E: CostEstimator + ?Sized>(
    est: &E,
    samples: &[Sample],
) -> (QErrorStats, QErrorStats) {
    crate::estimator::evaluate_estimator(est, samples)
}

/// Evaluate on the subset of samples matching `pred`.
pub fn evaluate_where<E: CostEstimator + ?Sized>(
    est: &E,
    samples: &[Sample],
    pred: impl Fn(&Sample) -> bool,
) -> (QErrorStats, QErrorStats) {
    let filtered: Vec<Sample> = samples.iter().filter(|s| pred(s)).cloned().collect();
    evaluate(est, &filtered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_dataset, GenConfig};
    use crate::model::ModelConfig;

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 12,
            batch_size: 8,
            patience: 0,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn loss_decreases_during_training() {
        let data = generate_dataset(&GenConfig::seen(), 120, 11);
        let mut model = ZeroTuneModel::new(ModelConfig {
            hidden: 24,
            seed: 1,
        });
        let report = train(&mut model, &data, &quick_cfg());
        assert_eq!(report.epochs_run, 12);
        let first = report.train_loss[0];
        let last = *report.train_loss.last().unwrap();
        assert!(
            last < first * 0.7,
            "training did not reduce loss: {first} -> {last}"
        );
    }

    #[test]
    fn trained_model_beats_untrained_on_qerror() {
        let data = generate_dataset(&GenConfig::seen(), 150, 12);
        let (train_set, test_set, _) = data.split(0.8, 0.2, 0);
        let mut model = ZeroTuneModel::new(ModelConfig {
            hidden: 24,
            seed: 2,
        });
        // untrained but with fitted norm, so the comparison is fair
        model.norm = TargetNorm::fit(train_set.labels());
        let (untrained_lat, _) = evaluate(&model, &test_set.samples);
        let report = train(&mut model, &train_set, &quick_cfg());
        let (trained_lat, trained_tpt) = evaluate(&model, &test_set.samples);
        assert!(report.best_val_loss.is_finite());
        assert!(
            trained_lat.median < untrained_lat.median,
            "training did not improve latency q-error: {} vs {}",
            trained_lat.median,
            untrained_lat.median
        );
        assert!(trained_tpt.median >= 1.0);
    }

    #[test]
    fn early_stopping_stops_before_epoch_budget() {
        let data = generate_dataset(&GenConfig::seen(), 60, 13);
        let mut model = ZeroTuneModel::new(ModelConfig {
            hidden: 16,
            seed: 3,
        });
        let cfg = TrainConfig {
            epochs: 200,
            patience: 3,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &data, &cfg);
        assert!(report.epochs_run < 200, "early stopping never triggered");
    }

    #[test]
    fn param_mask_limits_updates() {
        let data = generate_dataset(&GenConfig::seen(), 40, 14);
        let mut model = ZeroTuneModel::new(ModelConfig {
            hidden: 16,
            seed: 4,
        });
        let head = model.head_param_ids();
        let frozen_id = model
            .store
            .ids()
            .find(|id| !head.contains(id))
            .expect("some frozen param");
        let before = model.store.value(frozen_id).clone();
        let cfg = TrainConfig {
            epochs: 3,
            param_mask: Some(head),
            ..quick_cfg()
        };
        train(&mut model, &data, &cfg);
        assert_eq!(
            model.store.value(frozen_id),
            &before,
            "masked parameter changed"
        );
    }

    #[test]
    fn tapeless_validation_loss_matches_taped_loss_bitwise() {
        let data = generate_dataset(&GenConfig::seen(), 24, 16);
        let mut model = ZeroTuneModel::new(ModelConfig {
            hidden: 16,
            seed: 7,
        });
        model.norm = TargetNorm::fit(data.labels());
        // train briefly so the weights are not the symmetric init
        train(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 1,
                ..quick_cfg()
            },
        );
        let samples: Vec<&Sample> = data.samples.iter().collect();
        let mut tape = Tape::new();
        let mut taped_total = 0f64;
        for s in &samples {
            tape.clear();
            let loss = sample_loss(&model, &mut tape, s);
            let taped = f64::from(tape.scalar_value(loss));
            assert_eq!(eval_loss(&model, &[s]).to_bits(), taped.to_bits());
            taped_total += taped;
        }
        let taped_mean = taped_total / samples.len() as f64;
        assert_eq!(eval_loss(&model, &samples).to_bits(), taped_mean.to_bits());
    }

    #[test]
    fn evaluate_where_filters() {
        let data = generate_dataset(&GenConfig::seen(), 30, 15);
        let model = {
            let mut m = ZeroTuneModel::new(ModelConfig {
                hidden: 16,
                seed: 5,
            });
            m.norm = TargetNorm::fit(data.labels());
            m
        };
        let (all_lat, _) = evaluate(&model, &data.samples);
        let (linear_lat, _) =
            evaluate_where(&model, &data.samples, |s| s.meta.structure == "linear");
        assert!(linear_lat.count < all_lat.count);
        assert_eq!(all_lat.count, 30);
    }
}
