//! `zt-load` — deterministic load generator for the zt-serve daemon.
//!
//! Replays a seeded request mix over the three benchmark queries
//! (spike detection, local and global smart grid) in two phases that
//! issue the *identical* request sequence:
//!
//! * `cold` — the server's prediction cache is empty, every `/predict`
//!   goes through the micro-batching scorer;
//! * `warm` — the same sequence again, so repeated feature vectors are
//!   answered straight from the cache.
//!
//! Per-request wall latencies feed QPS + p50/p95/p99 into
//! `results/BENCH_serve.json`; the warm phase demonstrates the
//! cache-hit speedup the serving layer exists for.
//!
//! ```text
//! zt-load [--smoke] [--addr HOST:PORT] [--out PATH] [--requests N]
//!         [--threads N] [--seed N]
//! ```
//!
//! Without `--addr` the daemon is spawned in-process on an ephemeral
//! port (the CI smoke path passes `--addr` to exercise a real separate
//! process over loopback).

use std::io::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use zt_core::model::{ModelConfig, ZeroTuneModel};
use zt_query::benchmarks::{smart_grid_global, smart_grid_local, spike_detection};
use zt_query::LogicalPlan;
use zt_serve::{http_request, ServeConfig, Server};
use zt_telemetry::summary::Summary;

/// One pre-rendered request of the mix.
#[derive(Clone)]
struct Shot {
    method: &'static str,
    path: &'static str,
    body: Option<String>,
}

#[derive(Debug, Serialize)]
struct PhaseReport {
    phase: String,
    requests: usize,
    failures: usize,
    elapsed_ms: f64,
    qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
}

#[derive(Serialize)]
struct ServeBenchReport {
    smoke: bool,
    requests_per_phase: usize,
    threads: usize,
    seed: u64,
    predict_shots: usize,
    tune_shots: usize,
    explain_shots: usize,
    lint_shots: usize,
    healthz_shots: usize,
    phases: Vec<PhaseReport>,
    /// cold QPS / warm QPS ratio; > 1 means the cache pays for itself.
    warm_speedup: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: zt-load [--smoke] [--addr HOST:PORT] [--out PATH] [--requests N]\n\
         \u{20}              [--threads N] [--seed N]"
    );
    std::process::exit(2);
}

/// Envelope a sealed benchmark plan for the wire.
fn wire(plan: &LogicalPlan) -> String {
    let ir = plan.validate().expect("benchmark plans are valid");
    ir.to_json(plan).expect("benchmark plans serialize")
}

/// Build the deterministic request mix: mostly `/predict` over a small
/// set of recurring (plan, parallelism) deployments — recurrence is what
/// makes the warm phase hit the cache — plus a sprinkle of the other
/// endpoints.
fn build_mix(n: usize, seed: u64) -> Vec<Shot> {
    let families: [fn(f64) -> LogicalPlan; 3] =
        [spike_detection, smart_grid_local, smart_grid_global];

    let mut rng = StdRng::seed_from_u64(seed);
    let mut shots = Vec::with_capacity(n);
    for _ in 0..n {
        // A near-unique event rate per shot keeps the cold phase
        // miss-dominated; the warm replay of the identical sequence is
        // then a pure cache-hit workload.
        let family = families[rng.gen_range(0..families.len())];
        let rate = 50.0 * f64::from(rng.gen_range(1u32..=2000));
        let plan = family(rate);
        let env = wire(&plan);
        let num_ops = plan.num_ops();
        let par = 1u32 << rng.gen_range(0..3u32); // 1, 2 or 4
        let par_vec: Vec<String> = (0..num_ops).map(|_| par.to_string()).collect();
        let deployment = format!("{{\"plan\":{env},\"parallelism\":[{}]}}", par_vec.join(","));
        let roll: f64 = rng.gen_range(0.0..1.0);
        let shot = if roll < 0.80 {
            Shot {
                method: "POST",
                path: "/predict",
                body: Some(deployment),
            }
        } else if roll < 0.85 {
            // Bound the optimizer grid so a tune shot stays cheap.
            Shot {
                method: "POST",
                path: "/tune",
                body: Some(format!("{{\"plan\":{env},\"max_parallelism\":8}}")),
            }
        } else if roll < 0.90 {
            Shot {
                method: "POST",
                path: "/explain",
                body: Some(deployment),
            }
        } else if roll < 0.95 {
            Shot {
                method: "POST",
                path: "/lint",
                body: Some(deployment),
            }
        } else {
            Shot {
                method: "GET",
                path: "/healthz",
                body: None,
            }
        };
        shots.push(shot);
    }
    shots
}

/// Cache counters as reported by the daemon itself.
fn cache_counters(addr: SocketAddr) -> (u64, u64) {
    let Ok(resp) = http_request(addr, "GET", "/healthz", None) else {
        return (0, 0);
    };
    let Ok(v) = serde_json::from_str::<serde::Value>(&resp.body) else {
        return (0, 0);
    };
    let num = |key: &str| v.get(key).and_then(serde::Value::as_f64).unwrap_or(0.0) as u64;
    (num("cache_hits"), num("cache_misses"))
}

/// Fire the whole mix across `threads` workers; returns latencies (ms),
/// wall time and failure count.
fn run_phase(addr: SocketAddr, shots: &[Shot], threads: usize) -> (Vec<f64>, f64, usize) {
    let failures = AtomicU64::new(0);
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(shots.len()));
    let wall = Instant::now();
    let failures = &failures;
    let latencies_ref = &latencies;
    std::thread::scope(|scope| {
        for chunk in shots.chunks(shots.len().div_ceil(threads).max(1)) {
            scope.spawn(move || {
                let mut local = Vec::with_capacity(chunk.len());
                for shot in chunk {
                    let t = Instant::now();
                    let ok = match http_request(addr, shot.method, shot.path, shot.body.as_deref())
                    {
                        Ok(resp) => resp.status == 200,
                        Err(_) => false,
                    };
                    local.push(t.elapsed().as_secs_f64() * 1e3);
                    if !ok {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
                latencies_ref.lock().expect("latency sink").extend(local);
            });
        }
    });
    let elapsed = wall.elapsed().as_secs_f64();
    (
        latencies.into_inner().expect("latency sink"),
        elapsed,
        failures.load(Ordering::Relaxed) as usize,
    )
}

fn phase_report(
    phase: &str,
    latencies: &[f64],
    elapsed_s: f64,
    failures: usize,
    cache_before: (u64, u64),
    cache_after: (u64, u64),
) -> PhaseReport {
    let mut summary = Summary::new();
    for l in latencies {
        summary.add(*l);
    }
    PhaseReport {
        phase: phase.to_string(),
        requests: latencies.len(),
        failures,
        elapsed_ms: elapsed_s * 1e3,
        qps: latencies.len() as f64 / elapsed_s.max(1e-9),
        // `Summary::percentile` takes q in [0, 100].
        p50_ms: summary.percentile(50.0),
        p95_ms: summary.percentile(95.0),
        p99_ms: summary.percentile(99.0),
        mean_ms: summary.mean(),
        cache_hits: cache_after.0 - cache_before.0,
        cache_misses: cache_after.1 - cache_before.1,
    }
}

fn main() {
    let mut smoke = false;
    let mut addr_flag: Option<String> = None;
    let mut out = "results/BENCH_serve.json".to_string();
    let mut requests: Option<usize> = None;
    let mut threads = 4usize;
    let mut seed = 0x0417_u64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--addr" => addr_flag = args.next().or_else(|| usage()),
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--requests" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => requests = Some(n),
                None => usage(),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => threads = n,
                _ => usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => seed = n,
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("zt-load: unknown flag `{other}`");
                usage()
            }
        }
    }
    let n = requests.unwrap_or(if smoke { 200 } else { 1200 });

    // Spawn in-process unless pointed at a running daemon.
    let (addr, handle) = match &addr_flag {
        Some(a) => {
            let addr: SocketAddr = match a.parse() {
                Ok(addr) => addr,
                Err(e) => {
                    eprintln!("zt-load: bad --addr `{a}`: {e}");
                    std::process::exit(2);
                }
            };
            (addr, None)
        }
        None => {
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                ..ServeConfig::default()
            };
            let model = ZeroTuneModel::new(ModelConfig::default());
            let handle = Server::bind(cfg, model)
                .and_then(zt_serve::BoundServer::spawn)
                .unwrap_or_else(|e| {
                    eprintln!("zt-load: cannot spawn in-process server: {e}");
                    std::process::exit(1);
                });
            (handle.addr(), Some(handle))
        }
    };

    let shots = build_mix(n, seed);
    let count = |p: &str| shots.iter().filter(|s| s.path == p).count();
    let mix_counts = (
        count("/predict"),
        count("/tune"),
        count("/explain"),
        count("/lint"),
        count("/healthz"),
    );

    let mut phases = Vec::new();
    for phase in ["cold", "warm"] {
        let before = cache_counters(addr);
        let (latencies, elapsed, failures) = run_phase(addr, &shots, threads);
        let after = cache_counters(addr);
        let report = phase_report(phase, &latencies, elapsed, failures, before, after);
        eprintln!(
            "zt-load: {phase}: {} req in {:.1} ms ({:.0} qps, p50 {:.3} ms, p99 {:.3} ms, {} hits)",
            report.requests,
            report.elapsed_ms,
            report.qps,
            report.p50_ms,
            report.p99_ms,
            report.cache_hits
        );
        phases.push(report);
    }

    let warm_speedup = if phases[1].qps > 0.0 {
        phases[1].qps / phases[0].qps.max(1e-9)
    } else {
        0.0
    };
    let total_failures: usize = phases.iter().map(|p| p.failures).sum();
    let report = ServeBenchReport {
        smoke,
        requests_per_phase: n,
        threads,
        seed,
        predict_shots: mix_counts.0,
        tune_shots: mix_counts.1,
        explain_shots: mix_counts.2,
        lint_shots: mix_counts.3,
        healthz_shots: mix_counts.4,
        phases,
        warm_speedup,
    };

    if let Some(handle) = handle {
        handle.shutdown();
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    let mut file = std::fs::File::create(&out).expect("open report file");
    file.write_all(json.as_bytes()).expect("write report");
    file.write_all(b"\n").expect("write report");
    eprintln!("zt-load: wrote {out} (warm speedup {warm_speedup:.2}x)");

    if total_failures > 0 {
        eprintln!("zt-load: {total_failures} request(s) failed");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_order_on_a_right_skewed_sample() {
        // Mostly fast requests with a slow tail: the mean sits above the
        // median and below the p99.
        let latencies: Vec<f64> = (0..1000)
            .map(|i| {
                if i % 50 == 0 {
                    40.0
                } else {
                    1.0 + f64::from(i % 7) * 0.1
                }
            })
            .collect();
        let r = phase_report("cold", &latencies, 1.0, 0, (0, 0), (0, 0));
        assert!(
            r.p99_ms >= r.mean_ms,
            "p99 {} < mean {}",
            r.p99_ms,
            r.mean_ms
        );
        assert!(r.p50_ms <= r.p95_ms && r.p95_ms <= r.p99_ms, "{r:?}");
        assert!(r.p50_ms < r.mean_ms);
    }
}
