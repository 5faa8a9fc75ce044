//! # zt-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation section:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`exp1`] | Table IV ①②③ (seen / unseen / benchmark q-errors) and Fig. 1 / Fig. 5 (architecture comparison) |
//! | [`exp2`] | Fig. 7a–d (parallelism categories) and Fig. 6 (few-shot scatter) |
//! | [`exp3`] | Fig. 8a–e (unseen parameters) |
//! | [`exp4`] | Fig. 9a–b (data-efficient training) |
//! | [`exp5`] | Fig. 10a–b (optimizer speed-ups vs greedy and Dhalion) |
//! | [`exp6`] | Fig. 11 (feature ablation) |
//! | [`fig3`] | Fig. 3 (parallelism/chaining micro-benchmark) |
//!
//! Every runner accepts a [`Scale`] so the same code serves quick smoke
//! runs (`cargo bench`), the default CLI runs, and paper-scale runs.

#![deny(unsafe_code)]

pub mod exp1;
pub mod exp2;
pub mod exp3;
pub mod exp4;
pub mod exp5;
pub mod exp6;
pub mod fig3;
pub mod report;

use zt_core::dataset::{generate_dataset, Dataset, GenConfig};
use zt_core::model::{ModelConfig, ZeroTuneModel};
use zt_core::train::{train, TrainConfig, TrainReport};

/// Experiment size preset.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub name: &'static str,
    /// Training queries (the paper uses 19.2k after the 80/10/10 split of
    /// 24k).
    pub train_queries: usize,
    /// Test queries per workload group (the paper uses 200 per unseen
    /// structure).
    pub test_per_group: usize,
    pub epochs: usize,
    pub hidden: usize,
    pub seed: u64,
}

impl Scale {
    /// Fast preset used by `cargo bench` (finishes in seconds per
    /// experiment).
    pub fn smoke() -> Self {
        Scale {
            name: "smoke",
            train_queries: 300,
            test_per_group: 40,
            epochs: 12,
            hidden: 24,
            seed: 0xD0E,
        }
    }

    /// Default CLI preset (a couple of minutes per experiment).
    pub fn standard() -> Self {
        Scale {
            name: "standard",
            train_queries: 3_000,
            test_per_group: 120,
            epochs: 30,
            hidden: 48,
            seed: 0xD0E,
        }
    }

    /// Paper-scale preset (24k queries as in Table III).
    pub fn full() -> Self {
        Scale {
            name: "full",
            train_queries: 19_200,
            test_per_group: 200,
            epochs: 40,
            hidden: 64,
            seed: 0xD0E,
        }
    }

    /// Parse `--scale smoke|standard|full` style CLI args (defaults to
    /// standard).
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        for (i, a) in args.iter().enumerate() {
            if a == "--scale" {
                if let Some(v) = args.get(i + 1) {
                    return Self::by_name(v);
                }
            }
            if let Some(v) = a.strip_prefix("--scale=") {
                return Self::by_name(v);
            }
        }
        Self::standard()
    }

    pub fn by_name(name: &str) -> Self {
        match name {
            "smoke" => Self::smoke(),
            "full" => Self::full(),
            _ => Self::standard(),
        }
    }

    fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            patience: (self.epochs / 4).max(5),
            seed: self.seed,
            ..TrainConfig::default()
        }
    }
}

/// Data-generation flags shared by every experiment binary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DatagenArgs {
    /// `--workers N` / `--workers=N`.
    pub workers: Option<String>,
    /// `--resume` (defaults to `results/shards`) / `--resume=DIR`.
    pub resume_dir: Option<String>,
    /// `--strict`: run the diagnostics pre-flight in datagen / training /
    /// tuning and abort on `Error`-severity findings.
    pub strict: bool,
    /// `--telemetry` (trace to the default path) / `--telemetry=PATH`.
    /// `None` leaves the `ZT_TELEMETRY` environment variable in charge.
    pub telemetry: Option<Option<String>>,
}

impl DatagenArgs {
    /// Parse `--workers` / `--resume` / `--strict` / `--telemetry` from an
    /// argument list.
    pub fn parse(args: &[String]) -> Self {
        let mut out = DatagenArgs::default();
        for (i, a) in args.iter().enumerate() {
            if a == "--workers" {
                out.workers = args.get(i + 1).cloned();
            } else if let Some(v) = a.strip_prefix("--workers=") {
                out.workers = Some(v.to_string());
            } else if a == "--resume" {
                out.resume_dir = Some("results/shards".to_string());
            } else if let Some(v) = a.strip_prefix("--resume=") {
                out.resume_dir = Some(v.to_string());
            } else if a == "--strict" {
                out.strict = true;
            } else if a == "--telemetry" {
                out.telemetry = Some(None);
            } else if let Some(v) = a.strip_prefix("--telemetry=") {
                out.telemetry = Some(Some(v.to_string()));
            }
        }
        out
    }
}

/// Map the shared `--workers N` / `--resume[=DIR]` / `--strict` /
/// `--telemetry[=PATH]` CLI flags onto the `ZT_DATAGEN_WORKERS` /
/// `ZT_DATAGEN_RESUME` / `ZT_STRICT` / `ZT_TELEMETRY`(`_PATH`)
/// environment variables read by
/// [`zt_core::datagen::GenPlan::from_env`],
/// [`zt_core::diagnostics::strict_from_env`] and
/// [`zt_core::telemetry::init_from_env`], so every `generate_dataset` /
/// `train` / `tune` call inside the experiment — including nested ones
/// in the exp modules — inherits the worker count, the resumable shard
/// directory, the strict pre-flight mode and the telemetry level. Call
/// this first thing in an experiment `main`; pair with
/// [`finish_telemetry`] last thing.
pub fn apply_datagen_cli() {
    let args: Vec<String> = std::env::args().collect();
    let parsed = DatagenArgs::parse(&args);
    if let Some(w) = parsed.workers {
        std::env::set_var("ZT_DATAGEN_WORKERS", w);
    }
    if let Some(dir) = parsed.resume_dir {
        std::env::set_var("ZT_DATAGEN_RESUME", &dir);
        eprintln!("datagen: resumable shards under {dir}");
    }
    if parsed.strict {
        std::env::set_var("ZT_STRICT", "1");
        eprintln!("diagnostics: strict pre-flight enabled");
    }
    if let Some(path) = parsed.telemetry {
        std::env::set_var("ZT_TELEMETRY", "trace");
        if let Some(p) = path {
            std::env::set_var("ZT_TELEMETRY_PATH", p);
        }
        eprintln!("telemetry: trace mode enabled");
    }
    // Telemetry may already have self-initialized from a pre-existing
    // ZT_TELEMETRY value; re-read so the flags above take effect.
    zt_core::telemetry::init_from_env();
}

/// End-of-run telemetry flush for the experiment binaries: print the
/// summary report and, in trace mode, write the Chrome-trace JSON to
/// `ZT_TELEMETRY_PATH` (default `results/<bin>-trace.json`). Call last
/// thing in an experiment `main`. No-op when telemetry is off.
pub fn finish_telemetry(bin: &str) {
    use zt_core::telemetry as tel;
    match tel::mode() {
        tel::Mode::Off => {}
        tel::Mode::Summary => eprint!("{}", tel::snapshot().summary_report()),
        tel::Mode::Trace => {
            let snap = tel::snapshot();
            eprint!("{}", snap.summary_report());
            let path = std::env::var("ZT_TELEMETRY_PATH")
                .ok()
                .filter(|p| !p.trim().is_empty())
                .map_or_else(
                    || std::path::PathBuf::from("results").join(format!("{bin}-trace.json")),
                    std::path::PathBuf::from,
                );
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            match std::fs::write(&path, snap.chrome_trace_json()) {
                Ok(()) => eprintln!(
                    "telemetry: Chrome trace written to {} (load in chrome://tracing or https://ui.perfetto.dev)",
                    path.display()
                ),
                Err(e) => eprintln!("telemetry: could not write {}: {e}", path.display()),
            }
        }
    }
}

/// A trained ZeroTune model together with the datasets used to produce it.
pub struct TrainedPipeline {
    pub model: ZeroTuneModel,
    pub train_set: Dataset,
    pub test_seen: Dataset,
    pub report: TrainReport,
    pub scale: Scale,
}

/// Generate the seen workload, split 80/10/10 and train ZeroTune — the
/// common preamble of experiments 1, 2, 3, 5 and 6.
pub fn train_pipeline(scale: &Scale, gen_cfg: &GenConfig) -> TrainedPipeline {
    // train_queries is the post-split training budget; generate 100/80 of
    // it so the 80/10/10 split yields the requested size.
    let total = scale.train_queries * 10 / 8;
    let data = generate_dataset(gen_cfg, total, scale.seed);
    let (train_set, test_seen, _val) = data.split(0.8, 0.1, scale.seed);
    let mut model = ZeroTuneModel::new(ModelConfig {
        hidden: scale.hidden,
        seed: scale.seed,
    });
    let report = train(&mut model, &train_set, &scale.train_config());
    TrainedPipeline {
        model,
        train_set,
        test_seen,
        report,
        scale: *scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::by_name("smoke").name, "smoke");
        assert_eq!(Scale::by_name("full").name, "full");
        assert_eq!(Scale::by_name("anything").name, "standard");
    }

    #[test]
    fn datagen_args_parsing() {
        let args = |xs: &[&str]| {
            xs.iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(DatagenArgs::parse(&args(&[])), DatagenArgs::default());
        let a = DatagenArgs::parse(&args(&["exp", "--workers", "4", "--resume"]));
        assert_eq!(a.workers.as_deref(), Some("4"));
        assert_eq!(a.resume_dir.as_deref(), Some("results/shards"));
        let b = DatagenArgs::parse(&args(&["--workers=8", "--resume=/tmp/shards"]));
        assert_eq!(b.workers.as_deref(), Some("8"));
        assert_eq!(b.resume_dir.as_deref(), Some("/tmp/shards"));
        assert!(!b.strict);
        let c = DatagenArgs::parse(&args(&["exp", "--strict"]));
        assert!(c.strict);
        assert_eq!(c.telemetry, None);
        let d = DatagenArgs::parse(&args(&["exp", "--telemetry"]));
        assert_eq!(d.telemetry, Some(None));
        let e = DatagenArgs::parse(&args(&["exp", "--telemetry=/tmp/t.json"]));
        assert_eq!(e.telemetry, Some(Some("/tmp/t.json".to_string())));
    }

    #[test]
    fn pipeline_trains_at_smoke_scale() {
        let scale = Scale::smoke();
        let p = train_pipeline(&scale, &GenConfig::seen());
        assert_eq!(p.train_set.len(), scale.train_queries);
        assert!(!p.test_seen.is_empty());
        assert!(p.report.epochs_run > 0);
        let (lat, _) = zt_core::train::evaluate(&p.model, &p.test_seen.samples);
        assert!(
            lat.median < 10.0,
            "smoke model too inaccurate: {}",
            lat.median
        );
    }
}
