//! `zt_benchmark` — the end-to-end and per-layer benchmark of ZeroTune
//! serving, tuning and training.
//!
//! ```text
//! zt_benchmark run     [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
//!                      [--smoke] [--label L] [--out DIR]
//! zt_benchmark trace   (same flags; equals run --trace 1)
//! zt_benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! `run` measures each workload (all four by default) in a fresh child
//! process with every `ZT_*` variable removed, prints each end-to-end
//! metric with its unit, writes `<out>/<label>.json`, and prints a
//! one-line JSON result last. `trace` runs one untraced and one traced
//! round, replays the inputs layer by layer and reports the per-layer
//! metrics instead, writing the Chrome trace to `<out>/trace-<W>.json`.
//! A failed correctness check exits 2 and reports no metrics.
//! README.md beside this crate describes the workloads and metrics.

mod client;
mod daemon;
mod inputs;
mod layers;
mod library;
mod procfs;
mod report;
mod serve;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;
use zt_query::LogicalPlan;

use crate::inputs::{Kind, Shot};
use crate::layers::Replay;
use crate::spans::Trace;
use crate::workload::{num, Check, Outcome, Settings, WORKLOADS};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 25.0;
const ROUNDS: usize = 5;
/// `--smoke`: one round of 2 s open loop and 1 s closed loop.
const SMOKE_ROUND: Duration = Duration::from_secs(3);
/// The probe round that gives a non-serving workload's trace its
/// HTTP-layer numbers.
const PROBE_ROUND: Duration = Duration::from_millis(1500);

fn usage() -> ! {
    eprintln!(
        "usage: zt_benchmark run|trace [--workload W]... [--seed N] [--seconds S] [--trace 0|1]\n\
         \u{20}                            [--smoke] [--label L] [--out DIR]\n\
         \u{20}      zt_benchmark compare A.json B.json [--bounds BENCHMARK.json]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(64);
}

fn value_of<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("zt_benchmark: {flag} needs a valid value");
        usage()
    })
}

struct Args {
    workloads: Vec<String>,
    settings: Settings,
    traced: bool,
    label: Option<String>,
    out: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>, mut traced: bool) -> Args {
    let (mut workloads, mut seed, mut seconds, mut smoke) =
        (Vec::new(), DEFAULT_SEED, DEFAULT_SECONDS, false);
    let (mut label, mut out) = (None, PathBuf::from("ztbench/out"));
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let w: String = value_of(&flag, it.next());
                if !WORKLOADS.contains(&w.as_str()) {
                    eprintln!("zt_benchmark: unknown workload `{w}`");
                    usage();
                }
                workloads.push(w);
            }
            "--seed" => seed = value_of(&flag, it.next()),
            "--seconds" => seconds = value_of(&flag, it.next()),
            "--trace" => traced = value_of::<u8>(&flag, it.next()) == 1,
            "--smoke" => smoke = true,
            "--label" => label = Some(value_of(&flag, it.next())),
            "--out" => out = PathBuf::from(value_of::<String>(&flag, it.next())),
            _ => usage(),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        usage();
    }
    if workloads.is_empty() {
        workloads = WORKLOADS.iter().map(|w| (*w).to_string()).collect();
    }
    let settings = if smoke {
        Settings {
            seed,
            rounds: 1,
            round: SMOKE_ROUND,
        }
    } else {
        Settings {
            seed,
            rounds: ROUNDS,
            round: Duration::from_secs_f64(seconds / ROUNDS as f64),
        }
    };
    Args {
        workloads,
        settings,
        traced,
        label,
        out,
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let code = match args.next().as_deref() {
        Some("run") => run(&parse_args(args, false)),
        Some("trace") => run(&parse_args(args, true)),
        Some("compare") => compare(args),
        Some("child") => child(args),
        _ => usage(),
    };
    std::process::exit(code);
}

/// Run each workload in its own child process, then report.
fn run(a: &Args) -> i32 {
    let s = &a.settings;
    let mode = if a.traced { "trace" } else { "run" };
    let mut sections: Vec<(String, Value)> = Vec::new();
    for w in &a.workloads {
        eprintln!(
            "zt_benchmark: {mode} {w} (seed {}, {} round(s) of {:.1} s)",
            s.seed,
            s.rounds,
            s.round.as_secs_f64()
        );
        match spawn_child(w, s, a.traced, &a.out) {
            Ok(section) => sections.push((w.clone(), section)),
            Err(e) => {
                eprintln!("zt_benchmark: {w} failed: {e}");
                return 1;
            }
        }
    }
    print_summary(&sections, a.traced);

    let label = a
        .label
        .clone()
        .unwrap_or_else(|| format!("{mode}-{}-seed{}", a.workloads.join("+"), s.seed));
    let doc = Value::Map(vec![
        ("header".into(), report::header(s, &label, a.traced)),
        ("workloads".into(), Value::Map(sections.clone())),
    ]);
    let path = a.out.join(format!("{label}.json"));
    let text = serde_json::to_string_pretty(&doc).expect("report renders") + "\n";
    match std::fs::create_dir_all(&a.out).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => eprintln!("zt_benchmark: wrote {}", path.display()),
        Err(e) => eprintln!("zt_benchmark: cannot write {}: {e}", path.display()),
    }

    let refs: Vec<(&str, &Value)> = sections.iter().map(|(w, v)| (w.as_str(), v)).collect();
    let (line, correct) = report::result_line(&refs, a.traced);
    println!("{line}");
    if correct {
        0
    } else {
        2
    }
}

fn spawn_child(w: &str, s: &Settings, traced: bool, out: &Path) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        w,
        &s.seed.to_string(),
        &s.rounds.to_string(),
        &s.round.as_millis().to_string(),
        if traced { "1" } else { "0" },
    ])
    .arg(out)
    .stdin(Stdio::null())
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    daemon::scrub_env(&mut cmd);
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last)
        .map_err(|e| format!("child exited with {} and no result ({e})", output.status))
}

fn print_summary(sections: &[(String, Value)], traced: bool) {
    let text = |v: Option<&Value>| match v {
        Some(Value::Str(t)) => t.clone(),
        _ => String::new(),
    };
    for (w, section) in sections {
        let entries = section
            .get(if traced { "layers" } else { "metrics" })
            .and_then(Value::as_map)
            .unwrap_or(&[]);
        for (name, m) in entries {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let rounds: Vec<String> = m
                .get("rounds")
                .and_then(Value::as_seq)
                .unwrap_or(&[])
                .iter()
                .filter_map(Value::as_f64)
                .map(|x| format!("{x:.4}"))
                .collect();
            println!(
                "{w:<16} {name:<28} {value:>14.4} {:<6} {}",
                text(m.get("unit")),
                if rounds.is_empty() {
                    String::new()
                } else {
                    format!("rounds [{}]", rounds.join(", "))
                }
            );
        }
        for c in section.get("checks").and_then(Value::as_seq).unwrap_or(&[]) {
            let passed = matches!(c.get("passed"), Some(Value::Bool(true)));
            println!(
                "{w:<16} check {}: {} ({})",
                text(c.get("name")),
                if passed { "ok" } else { "FAILED" },
                text(c.get("detail"))
            );
        }
    }
}

/// `child <workload> <seed> <rounds> <round_ms> <traced 0|1> <out>`:
/// measure one workload in this process and print its report section.
fn child(mut args: impl Iterator<Item = String>) -> i32 {
    let mut next = || args.next().unwrap_or_else(|| usage());
    let w = next();
    let settings = Settings {
        seed: value_of("seed", Some(next())),
        rounds: value_of("rounds", Some(next())),
        round: Duration::from_millis(value_of("round_ms", Some(next()))),
    };
    let traced = next() == "1";
    let out = PathBuf::from(next());
    let serve_bin = std::env::current_exe()
        .map(|p| p.with_file_name("zt-serve"))
        .unwrap_or_default();
    if !serve_bin.is_file() && (traced || w.starts_with("predict") || w.starts_with("serve")) {
        eprintln!(
            "zt_benchmark: {} not found; build zt-serve into the same directory",
            serve_bin.display()
        );
        return 1;
    }
    let outcome = if traced {
        trace_workload(&w, &settings, &serve_bin, &out)
    } else {
        measure(&w, &settings, &serve_bin, false)
    };
    let section = report::workload_json(&outcome);
    println!(
        "{}",
        serde_json::to_string(&section).expect("section renders")
    );
    0
}

fn measure(w: &str, settings: &Settings, serve_bin: &Path, traced: bool) -> Outcome {
    match w {
        "predict_unique" => serve::run(
            serve_bin,
            &serve::predict_unique_inputs(settings),
            settings,
            traced,
        ),
        "serve_mixed" => serve::run(
            serve_bin,
            &serve::serve_mixed_inputs(settings),
            settings,
            traced,
        ),
        "tune_lattice" => library::tune_lattice(settings, traced),
        "train_pipeline" => library::train_pipeline(settings, traced),
        _ => usage(),
    }
}

/// The distinct `/tune` plans of a schedule, decoded as the daemon does.
fn tune_plans(shots: &[Shot]) -> Vec<LogicalPlan> {
    let mut seen = std::collections::BTreeSet::new();
    shots
        .iter()
        .filter(|s| s.kind == Kind::Tune && seen.insert(s.body().to_string()))
        .filter_map(|s| {
            let v = zt_serve::api::parse_body(s.body().as_bytes()).ok()?;
            zt_serve::api::wire_plan(&v).ok().map(|(plan, _)| plan)
        })
        .collect()
}

/// One untraced and one traced round, then the per-layer replay.
fn trace_workload(w: &str, settings: &Settings, serve_bin: &Path, out: &Path) -> Outcome {
    let one = Settings {
        rounds: 1,
        ..*settings
    };
    let untraced = measure(w, &one, serve_bin, false);
    let mut traced = measure(w, &one, serve_bin, true);
    let mut trace = traced
        .trace
        .take()
        .unwrap_or_else(|| Trace::new(Instant::now()));

    // HTTP-layer numbers come from the workload's own traced requests, or
    // for a workload that sends none, from a short traced probe round of
    // distinct `/predict` requests against a fresh daemon.
    let probe_settings = Settings {
        rounds: 1,
        round: PROBE_ROUND,
        ..*settings
    };
    let serve_inputs = match w {
        "predict_unique" => serve::predict_unique_inputs(&one),
        "serve_mixed" => serve::serve_mixed_inputs(&one),
        _ => serve::predict_unique_inputs(&probe_settings),
    };
    let serving = matches!(w, "predict_unique" | "serve_mixed");
    let probe = (!serving).then(|| serve::run(serve_bin, &serve_inputs, &probe_settings, true));
    let (connect_us, ttfb_us, predict_p50_ms, late_p99_ms) = {
        let (spans, round) = match &probe {
            Some(p) => (p.trace.as_ref(), p.rounds.first()),
            None => (Some(&trace), traced.rounds.first()),
        };
        let (connect, ttfb) = spans.map_or((f64::NAN, f64::NAN), layers::request_spans);
        let noted = |k: &str| round.and_then(|r| r.noted(k)).unwrap_or(f64::NAN);
        // Closed-loop workloads have no schedule: their lateness is the
        // gap between one call's end and the next call's start.
        let late = traced
            .rounds
            .first()
            .and_then(|r| {
                r.noted(if serving {
                    "late_p99_ms"
                } else {
                    "dispatch_gap_p99_ms"
                })
            })
            .unwrap_or(f64::NAN);
        (connect, ttfb, noted("predict_p50_ms"), late)
    };
    if let Some(mut p) = probe {
        traced.checks.append(&mut p.checks);
    }
    let mixed_other = (w != "serve_mixed").then(|| serve::serve_mixed_inputs(&one));
    let mixed = mixed_other.as_ref().unwrap_or(&serve_inputs);
    let pool = (w == "serve_mixed").then(|| tune_plans(&serve_inputs.open));

    let mut replay = Replay::new(&mut trace);
    replay.set("http.connect_us", connect_us);
    replay.set("http.ttfb_us", ttfb_us);
    replay.set("harness.late_p99_ms", late_p99_ms);
    replay.set(
        "harness.trace_overhead_pct",
        layers::trace_overhead_pct(&untraced, &traced),
    );
    let graphs = layers::serve_path(&serve_inputs.open, &mut replay).unwrap_or_else(|e| {
        replay
            .checks
            .push(Check::new("serve_path_replay", false, e));
        Vec::new()
    });
    if let Err(e) = layers::cache_replay(mixed, &mut replay) {
        replay.checks.push(Check::new("cache_replay", false, e));
    }
    layers::model_layers(&graphs, &mut replay);
    layers::residual(predict_p50_ms, &mut replay);
    layers::batch_replay(&graphs, serve_inputs.rate, &mut replay);
    layers::kernel_layers(&mut replay);
    layers::registry_layers(settings.seed, &mut replay);
    layers::tune_layers(settings.seed, pool.as_deref(), &mut replay);
    layers::offline_layers(settings.seed, &mut replay);

    let Replay {
        metrics, checks, ..
    } = replay;
    traced.layers = metrics;
    traced.checks.extend(checks);
    if let Some(first) = traced.rounds.first_mut() {
        let self_times = trace
            .self_time_p50_us()
            .into_iter()
            .map(|(k, v)| (k.to_string(), num(v)))
            .collect();
        first.note("self_time_p50_us", Value::Map(self_times));
    }
    let path = out.join(format!("trace-{w}.json"));
    match std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, trace.chrome_json())) {
        Ok(()) => eprintln!("zt_benchmark: wrote {}", path.display()),
        Err(e) => eprintln!("zt_benchmark: cannot write {}: {e}", path.display()),
    }
    traced
}

/// `compare A.json B.json [--bounds BENCHMARK.json]`: exit 1 when B is
/// worse than A beyond a bound on any workload × metric, or fails more.
fn compare(mut args: impl Iterator<Item = String>) -> i32 {
    let (Some(a_path), Some(b_path)) = (args.next(), args.next()) else {
        usage()
    };
    let mut bounds_path = "BENCHMARK.json".to_string();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--bounds" => bounds_path = value_of(&flag, args.next()),
            _ => usage(),
        }
    }
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    let loaded = (|| Ok::<_, String>((load(&a_path)?, load(&b_path)?, load(&bounds_path)?)))();
    let (a, b, bench) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("zt_benchmark: {e}");
            return 64;
        }
    };
    let bounds = match report::parse_bounds(&bench) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("zt_benchmark: {bounds_path}: {e}");
            return 64;
        }
    };
    let (rows, regressions) = report::compare(&a, &b, &bounds);
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>25} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "A rounds q1..q3", "B rounds q1..q3", "worse", "bound"
    );
    for r in &rows {
        println!(
            "{:<16} {:<14} {:>12.4} {:>12.4} {:>12.4}..{:<12.4} {:>12.4}..{:<12.4} {:>7.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.a_quartiles.0,
            r.a_quartiles.1,
            r.b_quartiles.0,
            r.b_quartiles.1,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        );
    }
    for r in &regressions {
        println!("regression: {r}");
    }
    i32::from(!regressions.is_empty())
}
