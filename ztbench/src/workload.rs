//! What every workload hands back: per-round end-to-end metrics, the
//! request accounting, and the outcome of its correctness checks.

use std::collections::BTreeMap;
use std::time::Duration;

use serde::Value;

use crate::spans::Trace;

pub const SETUP_S: &str = "setup_s";
pub const P50_MS: &str = "p50_ms";
pub const TAIL_MS: &str = "tail_ms";
pub const OPS_PER_S: &str = "ops_per_s";
pub const CPU_MS_PER_OP: &str = "cpu_ms_per_op";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// Every end-to-end metric with its unit and whether lower is better.
pub const METRICS: [(&str, &str, bool); 6] = [
    (SETUP_S, "s", true),
    (P50_MS, "ms", true),
    (TAIL_MS, "ms", true),
    (OPS_PER_S, "1/s", false),
    (CPU_MS_PER_OP, "ms", true),
    (PEAK_RSS_MB, "MiB", true),
];

/// The four workloads, in run order.
pub const WORKLOADS: [&str; 4] = [
    "predict_unique",
    "serve_mixed",
    "tune_lattice",
    "train_pipeline",
];

/// How long and how often a workload measures.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    pub seed: u64,
    pub rounds: usize,
    /// Measured length of one round.
    pub round: Duration,
}

/// Generator lateness (p99, ms) above which an open-loop round's latency
/// measures the generator rather than the program; such rounds are
/// flagged `late` in the report.
pub const MAX_LATE_P99_MS: f64 = 1.0;

/// One round's measurements.
#[derive(Debug, Default)]
pub struct Round {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Breakdown kept in the report only (per endpoint, lateness, counts).
    pub detail: Vec<(String, Value)>,
}

impl Round {
    pub fn set(&mut self, metric: &'static str, value: Option<f64>) {
        if let Some(v) = value.filter(|v| v.is_finite()) {
            self.metrics.insert(metric, v);
        }
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.detail.push((key.to_string(), value));
    }

    /// A numeric breakdown value noted earlier.
    pub fn noted(&self, key: &str) -> Option<f64> {
        self.detail
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
    }
}

/// A correctness check; any failure voids the run's metrics.
#[derive(Debug)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, passed: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub rounds: Vec<Round>,
    /// Operations (requests, calls, jobs) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// The run's `tail_ms` is its slowest round rather than its best (one
    /// job per round supports no percentile above the median).
    pub tail_is_slowest_round: bool,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
    pub trace: Option<Trace>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// `Value` conversions for report details.
pub fn num(v: f64) -> Value {
    Value::Num(v)
}

pub fn opt_num(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Num)
}
