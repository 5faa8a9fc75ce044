//! Report files, the one-line result, and `compare`.
//!
//! A report holds a header (schema version, git SHA, `nproc`, active
//! kernels, FMA, seed, rounds) and, per workload, every end-to-end
//! metric's run value with each round's value, the request accounting, the
//! correctness checks and the per-round breakdown.

use std::collections::BTreeMap;

use serde::Value;

use crate::stats;
use crate::workload::{num, Outcome, Settings, METRICS, TAIL_MS};

pub const SCHEMA: f64 = 1.0;

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

pub fn header(settings: &Settings, label: &str, traced: bool) -> Value {
    map(vec![
        ("schema", num(SCHEMA)),
        ("label", s(label)),
        ("git_sha", s(&git_sha())),
        (
            "nproc",
            num(std::thread::available_parallelism().map_or(1, std::num::NonZero::get) as f64),
        ),
        ("active_kernels", s(zt_nn::kernels::ACTIVE_KERNELS)),
        ("fma", Value::Bool(cfg!(target_feature = "fma"))),
        ("seed", num(settings.seed as f64)),
        ("rounds", num(settings.rounds as f64)),
        ("round_s", num(settings.round.as_secs_f64())),
        ("traced", Value::Bool(traced)),
    ])
}

/// Run-level value of every end-to-end metric with its round values: the
/// best round (lowest, or highest for a rate), except a `tail_ms` the
/// workload marks as its slowest round. The machines this runs on slow
/// down by up to a third for seconds at a time; the best of several
/// rounds is the least disturbed measurement of a run.
pub fn summarize(out: &Outcome) -> BTreeMap<&'static str, (f64, Vec<f64>)> {
    let mut result = BTreeMap::new();
    for (metric, _, lower_is_better) in METRICS {
        let rounds: Vec<f64> = out
            .rounds
            .iter()
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect();
        let slowest = metric == TAIL_MS && out.tail_is_slowest_round;
        let value = rounds
            .iter()
            .copied()
            .reduce(if lower_is_better != slowest {
                f64::min
            } else {
                f64::max
            });
        if let Some(v) = value {
            result.insert(metric, (v, rounds));
        }
    }
    result
}

fn unit_of(metric: &str) -> &'static str {
    METRICS
        .iter()
        .find(|(m, _, _)| *m == metric)
        .map_or("", |(_, u, _)| u)
}

/// One workload's section of the report file.
pub fn workload_json(out: &Outcome) -> Value {
    let metrics = summarize(out)
        .into_iter()
        .map(|(name, (value, rounds))| {
            (
                name.to_string(),
                map(vec![
                    ("unit", s(unit_of(name))),
                    ("value", num(value)),
                    ("rounds", Value::Seq(rounds.into_iter().map(num).collect())),
                ]),
            )
        })
        .collect();
    let checks = out
        .checks
        .iter()
        .map(|c| {
            map(vec![
                ("name", s(&c.name)),
                ("passed", Value::Bool(c.passed)),
                ("detail", s(&c.detail)),
            ])
        })
        .collect();
    let rounds = out
        .rounds
        .iter()
        .map(|r| Value::Map(r.detail.clone()))
        .collect();
    let layers = out
        .layers
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                map(vec![
                    ("value", num(*v)),
                    ("unit", s(crate::layers::unit_of(k))),
                ]),
            )
        })
        .collect();
    map(vec![
        ("correct", Value::Bool(out.correct())),
        ("attempted", num(out.attempted as f64)),
        ("failed", num(out.failed as f64)),
        ("failed_frac", num(failed_frac(out.attempted, out.failed))),
        ("metrics", Value::Map(metrics)),
        ("layers", Value::Map(layers)),
        ("checks", Value::Seq(checks)),
        ("round_detail", Value::Seq(rounds)),
    ])
}

fn failed_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// The last line of standard output, built from the workloads' report
/// sections: `correct`, `attempted`, `failed` and the metrics
/// (end-to-end, or per-layer for a traced run; prefixed with the
/// workload when there are several). A run that fails a correctness
/// check reports no metrics. Also returns `correct`.
pub fn result_line(sections: &[(&str, &Value)], traced: bool) -> (String, bool) {
    let correct = sections
        .iter()
        .all(|(_, v)| matches!(v.get("correct"), Some(Value::Bool(true))));
    let total = |key: &str| {
        sections
            .iter()
            .filter_map(|(_, v)| v.get(key).and_then(Value::as_f64))
            .sum::<f64>()
    };
    let mut metrics = Vec::new();
    if correct {
        for (w, v) in sections {
            let entries = v
                .get(if traced { "layers" } else { "metrics" })
                .and_then(Value::as_map)
                .unwrap_or(&[]);
            for (name, m) in entries {
                let key = if sections.len() == 1 {
                    name.clone()
                } else {
                    format!("{w}.{name}")
                };
                let value = m.get("value").cloned().unwrap_or(Value::Null);
                let unit = m.get("unit").cloned().unwrap_or(Value::Null);
                metrics.push((
                    key,
                    Value::Map(vec![("value".into(), value), ("unit".into(), unit)]),
                ));
            }
        }
    }
    let line = map(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", num(total("attempted"))),
        ("failed", num(total("failed"))),
        ("metrics", Value::Map(metrics)),
    ]);
    (
        serde_json::to_string(&line).expect("result renders"),
        correct,
    )
}

/// An end-to-end metric's direction and bound, from `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn parse_bounds(benchmark: &Value) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            let text = |k: &str| match field(k)? {
                Value::Str(t) => Ok(t.clone()),
                _ => Err(format!("`{k}` is not a string")),
            };
            Ok(Bound {
                name: text("name")?,
                lower_is_better: text("better")? == "lower",
                bound: field("bound")?.as_f64().ok_or("`bound` is not a number")?,
            })
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `worse_by` is the change toward worse as a share of A's value.
/// Unresolved when either side's round spread exceeds the bound: a run
/// whose rounds disagree that much was too disturbed to decide on.
pub fn verdict(worse_by: f64, spread_a: f64, spread_b: f64, bound: f64) -> Verdict {
    if spread_a > bound || spread_b > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// One workload × metric line of a comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub a_quartiles: (f64, f64),
    pub b_quartiles: (f64, f64),
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn metric_of(report: &Value, workload: &str, metric: &str) -> Option<(f64, Vec<f64>)> {
    let m = report
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    let rounds = m
        .get("rounds")?
        .as_seq()?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    Some((m.get("value")?.as_f64()?, rounds))
}

/// Round quartiles and the inter-quartile distance as a share of the
/// median round (0 below two rounds).
fn round_spread(rounds: &[f64]) -> ((f64, f64), f64) {
    match (stats::quartiles(rounds), stats::median(rounds)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => ((q1, q3), (q3 - q1) / m.abs()),
        _ => ((f64::NAN, f64::NAN), 0.0),
    }
}

fn failed_frac_of(report: &Value, workload: &str) -> f64 {
    report
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("failed_frac"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Compare report `b` against report `a`. Returns the rows and whether
/// `b` regressed: any metric worse beyond its bound, or a higher
/// failure fraction on any workload.
pub fn compare(a: &Value, b: &Value, bounds: &[Bound]) -> (Vec<Row>, Vec<String>) {
    let workloads: Vec<String> = a
        .get("workloads")
        .and_then(Value::as_map)
        .map(|m| m.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default();
    let mut rows = Vec::new();
    let mut regressions = Vec::new();
    for w in &workloads {
        let (fa, fb) = (failed_frac_of(a, w), failed_frac_of(b, w));
        if fb > fa {
            regressions.push(format!("{w}: failed_frac rose from {fa} to {fb}"));
        }
        for bound in bounds {
            let (Some((va, ra)), Some((vb, rb))) =
                (metric_of(a, w, &bound.name), metric_of(b, w, &bound.name))
            else {
                continue;
            };
            let change = (vb - va) / va.abs().max(f64::MIN_POSITIVE);
            let worse_by = if bound.lower_is_better {
                change
            } else {
                -change
            };
            let (a_quartiles, spread_a) = round_spread(&ra);
            let (b_quartiles, spread_b) = round_spread(&rb);
            let v = verdict(worse_by, spread_a, spread_b, bound.bound);
            if v == Verdict::Worse {
                regressions.push(format!(
                    "{w}: {} worse by {:.1}%",
                    bound.name,
                    worse_by * 100.0
                ));
            }
            rows.push(Row {
                workload: w.clone(),
                metric: bound.name.clone(),
                a: va,
                b: vb,
                a_quartiles,
                b_quartiles,
                worse_by,
                bound: bound.bound,
                verdict: v,
            });
        }
    }
    (rows, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(p50: &[f64], failed_frac: f64) -> Value {
        let rounds = Value::Seq(p50.iter().copied().map(num).collect());
        let metric = map(vec![
            (
                "value",
                num(p50.iter().copied().reduce(f64::min).expect("rounds")),
            ),
            ("rounds", rounds),
        ]);
        map(vec![(
            "workloads",
            map(vec![(
                "predict_unique",
                map(vec![
                    ("failed_frac", num(failed_frac)),
                    ("metrics", map(vec![("p50_ms", metric)])),
                ]),
            )]),
        )])
    }

    fn bounds() -> Vec<Bound> {
        vec![Bound {
            name: "p50_ms".into(),
            lower_is_better: true,
            bound: 0.1,
        }]
    }

    #[test]
    fn verdicts_follow_bound_and_round_agreement() {
        assert_eq!(verdict(0.05, 0.01, 0.01, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(0.15, 0.01, 0.01, 0.1), Verdict::Worse);
        assert_eq!(verdict(-0.15, 0.01, 0.01, 0.1), Verdict::Better);
        assert_eq!(verdict(0.15, 0.2, 0.01, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn compare_flags_regressions_and_failures() {
        let a = report(&[1.0, 1.01, 0.99], 0.0);
        let same = report(&[1.02, 1.0, 1.01], 0.0);
        let (rows, regressions) = compare(&a, &same, &bounds());
        assert_eq!(rows[0].verdict, Verdict::Unchanged);
        assert!(regressions.is_empty());

        let slower = report(&[1.3, 1.31, 1.29], 0.0);
        let (rows, regressions) = compare(&a, &slower, &bounds());
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert_eq!(regressions.len(), 1);

        let noisy = report(&[0.5, 1.3, 2.0], 0.0);
        assert_eq!(
            compare(&a, &noisy, &bounds()).0[0].verdict,
            Verdict::Unresolved
        );

        let failing = report(&[1.0, 1.0, 1.0], 0.01);
        assert_eq!(compare(&a, &failing, &bounds()).1.len(), 1);
    }

    #[test]
    fn bounds_parse_from_benchmark_json() {
        let text = r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;
        let v: Value = serde_json::from_str(text).expect("json");
        let b = parse_bounds(&v).expect("bounds");
        assert_eq!(b.len(), 1);
        assert!(!b[0].lower_is_better);
        assert_eq!(b[0].bound, 0.1);
    }
}
