//! The two serving workloads, driven against a real `zt-serve` process.
//!
//! Each round boots a fresh daemon, runs an open loop (request *i* due
//! at `t0 + i/rate`, sent by thread *i mod 2*, timed from its due time to
//! the last response byte) and then a closed loop of two clients that
//! measures capacity. `/swap`, a control-plane call whose ~1 MB model
//! body would stall a load thread, goes from a third thread at fixed
//! offsets. Response checks run after each round, outside the timing.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use serde::Value;
use zt_core::{
    tune, CostEstimator, EncodeContext, FeatureMask, GraphEncoding, ModelConfig, OptimizerConfig,
    ZeroTuneModel,
};
use zt_dspsim::ChainingMode;

use crate::client::{exchange, render_request, Exchange};
use crate::daemon::{Daemon, Health};
use crate::inputs::{self, Kind, MixSampler, Shot};
use crate::spans::Trace;
use crate::stats;
use crate::workload::{
    num, opt_num, Check, Outcome, Round, Settings, CPU_MS_PER_OP, MAX_LATE_P99_MS, OPS_PER_S,
    P50_MS, PEAK_RSS_MB, SETUP_S, TAIL_MS,
};

/// Load-generating threads (and so connections in flight).
const THREADS: usize = 2;
/// Closed-loop requests pre-rendered per second of closed phase; a phase
/// that exhausts them ends early and is still measured.
const CLOSED_POOL_PER_S: f64 = 6000.0;
/// Open-loop share of each round; the rest is the closed loop.
const OPEN_SHARE: f64 = 0.5;
/// Every `PREDICT_SAMPLE`-th `/predict` and `TUNE_SAMPLE`-th `/tune`
/// response of the open loop is checked against an offline render.
const PREDICT_SAMPLE: usize = 50;
const TUNE_SAMPLE: usize = 4;
/// Daemon boots per round; `setup_s` is the fastest.
const SETUP_BOOTS: usize = 5;

/// The serving workloads' request schedules and the models behind them.
pub struct ServeInputs {
    pub rate: f64,
    pub open: Vec<Shot>,
    pub closed: Vec<Shot>,
    /// `/swap` requests with their offsets into the open phase.
    pub swaps: Vec<(Duration, Shot)>,
    /// Model by registry version: the boot model is version 1, and the
    /// swap models alternate from version 2 on.
    pub models: Vec<ZeroTuneModel>,
    /// The open loop must see no cache hit at all.
    pub expect_no_hits: bool,
}

impl ServeInputs {
    fn model(&self, version: u64) -> Option<&ZeroTuneModel> {
        match version {
            0 => None,
            1 => self.models.first(),
            v => self
                .models
                .get(1 + (v as usize - 2) % (self.models.len() - 1).max(1)),
        }
    }
}

fn phases(settings: &Settings) -> (f64, f64) {
    let round = settings.round.as_secs_f64();
    (round * OPEN_SHARE, round * (1.0 - OPEN_SHARE))
}

/// `predict_unique`: 1000 req/s of distinct deployments, then 2 clients.
pub fn predict_unique_inputs(settings: &Settings) -> ServeInputs {
    let (open_s, closed_s) = phases(settings);
    let rate = 1000.0;
    let n_open = (rate * open_s) as usize;
    let mut shots = inputs::unique_predicts(
        settings.seed,
        n_open + (CLOSED_POOL_PER_S * closed_s) as usize,
    );
    let closed = shots.split_off(n_open);
    ServeInputs {
        rate,
        open: shots,
        closed,
        swaps: Vec::new(),
        models: vec![ZeroTuneModel::new(ModelConfig::default())],
        expect_no_hits: true,
    }
}

/// `serve_mixed`: 500 req/s of the mix with a `/swap` every second,
/// alternating between two models, then 2 clients on the same mix.
pub fn serve_mixed_inputs(settings: &Settings) -> ServeInputs {
    let (open_s, closed_s) = phases(settings);
    let rate = 500.0;
    let mut sampler = MixSampler::new(settings.seed);
    let open = (0..(rate * open_s) as usize)
        .map(|_| sampler.next_shot())
        .collect();
    let closed = (0..(CLOSED_POOL_PER_S * closed_s) as usize)
        .map(|_| sampler.next_shot())
        .collect();
    let [a, b] = inputs::swap_models(settings.seed);
    let swap_shot = |m: &ZeroTuneModel| Shot {
        kind: Kind::Swap,
        request: render_request("POST", "/swap", &m.to_json()),
    };
    let swaps = (1..)
        .map(Duration::from_secs)
        .take_while(|d| d.as_secs_f64() < open_s)
        .enumerate()
        .map(|(k, at)| (at, swap_shot(if k % 2 == 0 { &a } else { &b })))
        .collect();
    ServeInputs {
        rate,
        open,
        closed,
        swaps,
        models: vec![ZeroTuneModel::new(ModelConfig::default()), a, b],
        expect_no_hits: false,
    }
}

/// One request as the generator saw it.
pub struct Sent {
    pub index: usize,
    pub kind: Kind,
    pub due: Instant,
    /// Send start minus due time (open loop), or minus the previous
    /// completion on the same client (closed loop).
    pub late_ms: f64,
    /// Due time (open loop) or send start (closed loop) to last byte.
    pub latency_ms: f64,
    pub ex: Exchange,
}

fn keep_body(kind: Kind, index: usize) -> bool {
    match kind {
        Kind::Predict => index.is_multiple_of(PREDICT_SAMPLE),
        Kind::Tune => index.is_multiple_of(TUNE_SAMPLE),
        _ => false,
    }
}

fn send(addr: SocketAddr, shot: &Shot, index: usize, due: Instant, keep: bool) -> Sent {
    let start = Instant::now();
    let mut ex = exchange(addr, &shot.request);
    if !keep {
        ex.body = String::new();
    }
    Sent {
        index,
        kind: shot.kind,
        due,
        late_ms: start.saturating_duration_since(due).as_secs_f64() * 1e3,
        latency_ms: ex.last_byte.saturating_duration_since(due).as_secs_f64() * 1e3,
        ex,
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Run the open loop; returns every request in due order.
fn open_loop(addr: SocketAddr, inputs: &ServeInputs, trace: Option<&mut Trace>) -> Vec<Sent> {
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / inputs.rate);
    let mut sent: Vec<Sent> = std::thread::scope(|s| {
        let loaders: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    (t..inputs.open.len())
                        .step_by(THREADS)
                        .map(|i| {
                            sleep_until(due(i));
                            let shot = &inputs.open[i];
                            send(addr, shot, i, due(i), keep_body(shot.kind, i))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let control = s.spawn(move || {
            inputs
                .swaps
                .iter()
                .enumerate()
                .map(|(k, (at, shot))| {
                    sleep_until(t0 + *at);
                    send(addr, shot, inputs.open.len() + k, t0 + *at, true)
                })
                .collect::<Vec<_>>()
        });
        let mut all = control.join().expect("swap thread");
        for l in loaders {
            all.extend(l.join().expect("load thread"));
        }
        all
    });
    sent.sort_by_key(|r| r.index);
    if let Some(trace) = trace {
        for r in &sent {
            r.ex.record(trace, r.due, r.index as u64);
        }
    }
    sent
}

/// Two clients sending back to back until the pool or the time runs out.
/// Returns the requests and the phase's wall time in seconds.
fn closed_loop(addr: SocketAddr, shots: &[Shot], length: Duration) -> (Vec<Sent>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + length;
    let sent: Vec<Sent> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    let mut ready = Instant::now();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= shots.len() || Instant::now() >= deadline {
                            break out;
                        }
                        let r = send(addr, &shots[i], i, ready, false);
                        ready = r.ex.last_byte;
                        out.push(r);
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("closed-loop client"))
            .collect()
    });
    let end = sent.iter().map(|r| r.ex.last_byte).max().unwrap_or(start);
    (sent, end.saturating_duration_since(start).as_secs_f64())
}

fn latencies<'a>(sent: impl Iterator<Item = &'a Sent>) -> Vec<f64> {
    sent.map(|r| r.latency_ms).collect()
}

/// Run every round of a serving workload.
pub fn run(bin: &Path, inputs: &ServeInputs, settings: &Settings, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut trace = traced.then(|| Trace::new(Instant::now()));
    for _ in 0..settings.rounds {
        match round(bin, inputs, settings, trace.as_mut(), &mut out) {
            Ok(r) => out.rounds.push(r),
            Err(e) => {
                out.checks.push(Check::new("round_completed", false, e));
                break;
            }
        }
    }
    out.trace = trace;
    out
}

fn round(
    bin: &Path,
    inputs: &ServeInputs,
    settings: &Settings,
    trace: Option<&mut Trace>,
    out: &mut Outcome,
) -> Result<Round, String> {
    // A boot takes ~12 ms but up to twice that while the machine is in
    // a slow phase: boot `SETUP_BOOTS` daemons, keep the last for the
    // round and report the fastest boot.
    let mut setup_s = f64::INFINITY;
    for _ in 1..SETUP_BOOTS {
        setup_s = setup_s.min(Daemon::spawn(bin)?.setup_s);
    }
    let daemon = Daemon::spawn(bin)?;
    setup_s = setup_s.min(daemon.setup_s);
    let before = daemon.health()?;
    let cpu_before = daemon.cpu_ms()?;
    let open = open_loop(daemon.addr, inputs, trace);
    let after_open = daemon.health()?;
    let (closed, closed_s) = closed_loop(
        daemon.addr,
        &inputs.closed,
        settings.round.mul_f64(1.0 - OPEN_SHARE),
    );
    let cpu_after = daemon.cpu_ms()?;
    let after = daemon.health()?;
    let peak_rss = daemon.peak_rss_mib()?;
    drop(daemon);

    let requests = open.len() + closed.len();
    let failed = open.iter().chain(&closed).filter(|r| !r.ex.ok()).count();
    out.attempted += requests as u64;
    out.failed += failed as u64;

    let mut r = Round::default();
    let all_open = latencies(open.iter());
    r.set(SETUP_S, Some(setup_s));
    r.set(P50_MS, stats::quantile(&all_open, 0.5));
    r.set(TAIL_MS, stats::supported_quantile(&all_open, 0.99));
    let completed = closed.iter().filter(|x| x.ex.ok()).count();
    r.set(
        OPS_PER_S,
        (closed_s > 0.0).then(|| completed as f64 / closed_s),
    );
    r.set(
        CPU_MS_PER_OP,
        Some((cpu_after - cpu_before) / requests as f64),
    );
    r.set(PEAK_RSS_MB, Some(peak_rss));

    for kind in Kind::ALL {
        let lat = latencies(open.iter().filter(|x| x.kind == kind));
        if lat.is_empty() {
            continue;
        }
        r.note(
            &format!("{}_p50_ms", kind.name()),
            opt_num(stats::quantile(&lat, 0.5)),
        );
        r.note(
            &format!("{}_p99_ms", kind.name()),
            opt_num(stats::supported_quantile(&lat, 0.99)),
        );
        r.note(&format!("{}_count", kind.name()), num(lat.len() as f64));
    }
    let late: Vec<f64> = open.iter().map(|x| x.late_ms).collect();
    let late_p99 = stats::quantile(&late, 0.99);
    r.note("late_p99_ms", opt_num(late_p99));
    r.note(
        "late",
        Value::Bool(late_p99.is_some_and(|l| l > MAX_LATE_P99_MS)),
    );
    r.note("open_requests", num(open.len() as f64));
    r.note("closed_requests", num(closed.len() as f64));
    r.note(
        "closed_p50_ms",
        opt_num(stats::quantile(&latencies(closed.iter()), 0.5)),
    );
    let hits = after_open.cache_hits - before.cache_hits;
    let misses = after_open.cache_misses - before.cache_misses;
    r.note("open_cache_hits", num(hits as f64));
    r.note("open_cache_misses", num(misses as f64));

    if inputs.expect_no_hits {
        let round_hits = after.cache_hits - before.cache_hits;
        out.checks.push(Check::new(
            "no_cache_hits",
            round_hits == 0,
            format!("{round_hits} cache hits on distinct deployments"),
        ));
    }
    check_swaps(&open, after_open, inputs, out);
    check_responses(&open, inputs, out);
    Ok(r)
}

/// Every `/swap` was accepted and the daemon now serves the version the
/// swap count implies.
fn check_swaps(open: &[Sent], health: Health, inputs: &ServeInputs, out: &mut Outcome) {
    if inputs.swaps.is_empty() {
        return;
    }
    let swaps: Vec<&Sent> = open.iter().filter(|r| r.kind == Kind::Swap).collect();
    let accepted = swaps.iter().filter(|r| r.ex.ok()).count();
    let expected_version = 1 + swaps.len() as u64;
    out.checks.push(Check::new(
        "swaps_accepted",
        accepted == swaps.len() && health.model_version == expected_version,
        format!(
            "{accepted}/{} swaps accepted, serving version {} (expected {expected_version})",
            swaps.len(),
            health.model_version
        ),
    ));
}

fn version_of(body: &Value) -> u64 {
    body.get("model_version")
        .and_then(Value::as_f64)
        .unwrap_or(0.0) as u64
}

/// The encoding the daemon builds for a `/predict` body: decode and seal
/// the deployment, then encode it on the default cluster.
pub fn encode_request(body: &str) -> Result<GraphEncoding, String> {
    let v = zt_serve::api::parse_body(body.as_bytes()).map_err(|e| e.message)?;
    let (pqp, ir) = zt_serve::api::deployment(&v).map_err(|e| e.message)?;
    let cluster = zt_serve::default_cluster();
    let mask = FeatureMask::all();
    Ok(
        EncodeContext::with_ir(&pqp.plan, &ir, &cluster, &mask).encode_sealed(
            &pqp,
            &ir,
            &cluster,
            ChainingMode::Auto,
        ),
    )
}

/// The body an offline call renders for a `/predict` request: the same
/// decode, encode and `predict_batch` the daemon runs, on the model of
/// the version the response names.
pub fn offline_predict(model: &ZeroTuneModel, version: u64, body: &str) -> Result<String, String> {
    let graph = encode_request(body)?;
    let pred = model.predict_batch(std::slice::from_ref(&graph))[0];
    serde_json::to_string(&zt_serve::PredictResponse {
        model_version: version,
        latency_ms: pred.latency_ms,
        throughput: pred.throughput,
    })
    .map_err(|e| e.to_string())
}

/// The daemon's `/tune` configuration for a request without overrides.
pub fn server_tune_config() -> OptimizerConfig {
    OptimizerConfig {
        strict: false,
        prune: true,
        dataflow_cap: true,
        ..OptimizerConfig::default()
    }
}

/// The parallelism an offline `tune` picks for a `/tune` request body.
pub fn offline_tune(model: &ZeroTuneModel, body: &str) -> Result<Vec<u32>, String> {
    let v = zt_serve::api::parse_body(body.as_bytes()).map_err(|e| e.message)?;
    let (plan, _ir) = zt_serve::api::wire_plan(&v).map_err(|e| e.message)?;
    tune(
        model,
        &plan,
        &zt_serve::default_cluster(),
        &server_tune_config(),
    )
    .map(|o| o.parallelism)
    .map_err(|e| e.to_string())
}

fn parallelism_of(body: &Value) -> Option<Vec<u32>> {
    body.get("outcome")?
        .get("parallelism")?
        .as_seq()?
        .iter()
        .map(|x| x.as_f64().map(|f| f as u32))
        .collect()
}

/// Sampled `/predict` bodies must byte-equal the offline render, and
/// sampled `/tune` winners must equal offline `tune`.
fn check_responses(open: &[Sent], inputs: &ServeInputs, out: &mut Outcome) {
    let mut checked = [0usize; 2];
    let mut mismatch: [Option<String>; 2] = [None, None];
    for r in open.iter().filter(|r| r.ex.ok() && !r.ex.body.is_empty()) {
        let slot = match r.kind {
            Kind::Predict => 0,
            Kind::Tune => 1,
            _ => continue,
        };
        let request = inputs.open[r.index].body();
        let verdict = serde_json::from_str::<Value>(&r.ex.body)
            .map_err(|e| e.to_string())
            .and_then(|resp| {
                let version = version_of(&resp);
                let model = inputs
                    .model(version)
                    .ok_or_else(|| format!("unknown model version {version}"))?;
                if slot == 0 {
                    let offline = offline_predict(model, version, request)?;
                    (offline == r.ex.body)
                        .then_some(())
                        .ok_or_else(|| format!("served {} vs offline {offline}", r.ex.body))
                } else {
                    let offline = offline_tune(model, request)?;
                    let served = parallelism_of(&resp);
                    (served.as_ref() == Some(&offline))
                        .then_some(())
                        .ok_or_else(|| format!("served {served:?} vs offline {offline:?}"))
                }
            });
        checked[slot] += 1;
        if let Err(e) = verdict {
            mismatch[slot].get_or_insert(format!("request {}: {e}", r.index));
        }
    }
    for (slot, name) in ["predict_bodies_match_offline", "tune_matches_offline"]
        .into_iter()
        .enumerate()
    {
        if checked[slot] > 0 {
            out.checks.push(Check::new(
                name,
                mismatch[slot].is_none(),
                mismatch[slot]
                    .take()
                    .unwrap_or_else(|| format!("{} responses checked", checked[slot])),
            ));
        }
    }
}
