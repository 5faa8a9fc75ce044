//! End-to-end service tests for the zt-serve daemon.
//!
//! Every test boots a real server on an ephemeral loopback port and
//! talks to it over TCP with the blocking `http_request` client — the
//! same wire path `zt-load` and external clients use. The central
//! claims under test:
//!
//! * **offline equivalence** — `/predict` and `/tune` bodies are
//!   byte-identical to rendering the offline `predict_batch` / `tune`
//!   results through the same response structs (bitwise f64 equality,
//!   not approximate);
//! * **cache correctness** — a hit returns the exact bytes of the miss
//!   that populated it;
//! * **hot-swap atomicity** — every response under concurrent traffic
//!   is labeled with a model version whose weights produced it, never a
//!   mix;
//! * **graceful shutdown** — accepted connections are drained, not
//!   dropped;
//! * **structured failure** — malformed, oversized and misrouted
//!   requests get machine-readable 4xx bodies (`ZT109` for wire
//!   fingerprint tampering).
//!
//! Telemetry is process-global, so every test serializes behind one
//! mutex and the counter test resets state at quiescent points.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

use zerotune::core::model::{ModelConfig, ZeroTuneModel};
use zerotune::core::optimizer::{tune, OptimizerConfig};
use zerotune::core::{encode, CostEstimator, CostPrediction, FeatureMask};
use zerotune::dspsim::placement::ChainingMode;
use zerotune::query::benchmarks::{smart_grid_global, smart_grid_local, spike_detection};
use zerotune::query::{LogicalPlan, ParallelQueryPlan};
use zerotune::serve::{
    default_cluster, http_request, PredictResponse, ServeConfig, Server, ServerHandle, TuneResponse,
};
use zerotune::telemetry::{self, Mode};

use serde::Value;

/// Telemetry (and therefore the whole suite) is process-global state.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The daemon's boot model: `ModelConfig::default()`, same as `zt-serve`
/// without flags.
fn v1_model() -> ZeroTuneModel {
    ZeroTuneModel::new(ModelConfig::default())
}

/// A second-generation model with distinct weights for swap tests.
fn v2_model() -> ZeroTuneModel {
    ZeroTuneModel::new(ModelConfig {
        seed: 0x7777,
        ..ModelConfig::default()
    })
}

fn boot(cfg: ServeConfig) -> ServerHandle {
    Server::bind(cfg, v1_model())
        .and_then(zerotune::serve::BoundServer::spawn)
        .expect("boot zt-serve on an ephemeral port")
}

fn ephemeral() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    }
}

/// Wire-envelope a plan exactly as a client would.
fn wire(plan: &LogicalPlan) -> String {
    let ir = plan.validate().expect("test plans are valid");
    ir.to_json(plan).expect("test plans serialize")
}

/// `/predict`-shaped request body for a deployment.
fn deployment_body(plan: &LogicalPlan, parallelism: Option<u32>) -> String {
    let env = wire(plan);
    match parallelism {
        None => format!("{{\"plan\":{env}}}"),
        Some(p) => {
            let par: Vec<String> = (0..plan.num_ops()).map(|_| p.to_string()).collect();
            format!("{{\"plan\":{env},\"parallelism\":[{}]}}", par.join(","))
        }
    }
}

/// The offline path the daemon must reproduce bit-for-bit: sealed
/// encode with auto chaining and the full mask, scored via
/// `predict_batch`.
fn offline_predict(
    model: &ZeroTuneModel,
    plan: &LogicalPlan,
    parallelism: Option<u32>,
) -> CostPrediction {
    let pqp = match parallelism {
        None => ParallelQueryPlan::new(plan.clone()),
        Some(p) => ParallelQueryPlan::with_parallelism(plan.clone(), vec![p; plan.num_ops()]),
    };
    pqp.validate().expect("test deployments are valid");
    let graph = encode(
        &pqp,
        &default_cluster(),
        ChainingMode::Auto,
        &FeatureMask::all(),
    );
    model.predict_batch(std::slice::from_ref(&graph))[0]
}

fn parse(body: &str) -> Value {
    serde_json::from_str(body).expect("response body is JSON")
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("response has numeric `{key}`: {v:?}"))
}

fn error_code(body: &str) -> String {
    let v = parse(body);
    match v.get("error").and_then(|e| e.get("code")) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("no error.code in {body}: {other:?}"),
    }
}

fn benchmark_plans() -> Vec<(&'static str, LogicalPlan)> {
    vec![
        ("spike_detection", spike_detection(1000.0)),
        ("smart_grid_local", smart_grid_local(1000.0)),
        ("smart_grid_global", smart_grid_global(2000.0)),
    ]
}

#[test]
fn predict_matches_offline_bitwise_for_benchmark_queries() {
    let _g = lock();
    let handle = boot(ephemeral());
    let model = v1_model();

    for (name, plan) in benchmark_plans() {
        for par in [None, Some(2)] {
            let resp = http_request(
                handle.addr(),
                "POST",
                "/predict",
                Some(&deployment_body(&plan, par)),
            )
            .expect("predict round-trip");
            assert_eq!(resp.status, 200, "{name}: {}", resp.body);

            // The strongest form of the equivalence claim: the whole
            // body equals rendering the offline prediction through the
            // same response struct, so every f64 is bitwise equal.
            let pred = offline_predict(&model, &plan, par);
            let expected = serde_json::to_string(&PredictResponse {
                model_version: 1,
                latency_ms: pred.latency_ms,
                throughput: pred.throughput,
            })
            .expect("render expected body");
            assert_eq!(resp.body, expected, "{name} par={par:?}");

            let v = parse(&resp.body);
            assert_eq!(num(&v, "latency_ms").to_bits(), pred.latency_ms.to_bits());
            assert_eq!(num(&v, "throughput").to_bits(), pred.throughput.to_bits());
        }
    }
    handle.shutdown();
}

#[test]
fn predict_cache_hit_returns_byte_identical_body() {
    let _g = lock();
    let handle = boot(ephemeral());
    let body = deployment_body(&spike_detection(1500.0), Some(4));

    let first = http_request(handle.addr(), "POST", "/predict", Some(&body)).expect("miss");
    let second = http_request(handle.addr(), "POST", "/predict", Some(&body)).expect("hit");
    assert_eq!(first.status, 200);
    assert_eq!(second.status, 200);
    assert_eq!(first.header("x-zt-cache"), Some("miss"));
    assert_eq!(second.header("x-zt-cache"), Some("hit"));
    assert_eq!(first.body, second.body, "cache hit must be byte-identical");

    let stats = handle.cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.entries, 1);
    handle.shutdown();
}

#[test]
fn tune_matches_offline_tuner() {
    let _g = lock();
    let handle = boot(ephemeral());
    let model = v1_model();

    for (name, plan) in benchmark_plans() {
        let env = wire(&plan);
        let body = format!("{{\"plan\":{env},\"max_parallelism\":8,\"seed\":5,\"wt\":0.75}}");
        let resp =
            http_request(handle.addr(), "POST", "/tune", Some(&body)).expect("tune round-trip");
        assert_eq!(resp.status, 200, "{name}: {}", resp.body);

        let cfg = OptimizerConfig {
            strict: false,
            prune: true,
            max_parallelism: 8,
            seed: 5,
            wt: 0.75,
            ..OptimizerConfig::default()
        };
        let outcome = tune(&model, &plan, &default_cluster(), &cfg).expect("valid plan");
        let expected = serde_json::to_string(&TuneResponse {
            model_version: 1,
            outcome,
        })
        .expect("render expected body");
        assert_eq!(resp.body, expected, "{name}: /tune must equal offline tune");
    }
    handle.shutdown();
}

#[test]
fn explain_reports_prediction_bounds_and_attribution() {
    let _g = lock();
    let handle = boot(ephemeral());
    let model = v1_model();
    let plan = smart_grid_local(800.0);

    let resp = http_request(
        handle.addr(),
        "POST",
        "/explain",
        Some(&deployment_body(&plan, Some(2))),
    )
    .expect("explain round-trip");
    assert_eq!(resp.status, 200, "{}", resp.body);

    let v = parse(&resp.body);
    let pred = offline_predict(&model, &plan, Some(2));
    assert_eq!(num(&v, "latency_ms").to_bits(), pred.latency_ms.to_bits());
    assert_eq!(num(&v, "model_version") as u64, 1);
    let bounds = v
        .get("latency_bounds")
        .and_then(Value::as_seq)
        .expect("latency_bounds");
    let (lo, hi) = (
        bounds[0].as_f64().expect("lo"),
        bounds[1].as_f64().expect("hi"),
    );
    assert!(lo <= hi && lo.is_finite(), "bounds bracket: [{lo}, {hi}]");
    let impact = v
        .get("latency_impact")
        .and_then(Value::as_seq)
        .expect("latency_impact");
    assert_eq!(impact.len(), 3, "one impact per feature group");
    match v.get("report") {
        Some(Value::Str(s)) => assert!(!s.is_empty(), "rendered bounds table"),
        other => panic!("no report string: {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn lint_flags_oversubscription_and_passes_clean_deployments() {
    let _g = lock();
    let handle = boot(ephemeral());
    let plan = smart_grid_global(1000.0);

    // Clean deployment: no errors.
    let resp = http_request(
        handle.addr(),
        "POST",
        "/lint",
        Some(&deployment_body(&plan, Some(2))),
    )
    .expect("lint round-trip");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = parse(&resp.body);
    assert_eq!(num(&v, "errors") as u64, 0, "clean plan: {}", resp.body);

    // 64-way parallelism on a 40-slot default cluster must be flagged.
    let resp = http_request(
        handle.addr(),
        "POST",
        "/lint",
        Some(&deployment_body(&plan, Some(64))),
    )
    .expect("lint round-trip");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = parse(&resp.body);
    assert!(
        num(&v, "errors") as u64 >= 1,
        "oversubscribed deployment must produce errors: {}",
        resp.body
    );
    handle.shutdown();
}

/// Flip one hex digit of the envelope fingerprint.
fn tamper(env: &str) -> String {
    let key = "\"fingerprint\":\"";
    let at = env.find(key).expect("envelope has fingerprint") + key.len();
    let orig = &env[at..at + 16];
    let flipped = if orig.as_bytes()[0] == b'0' { "1" } else { "0" };
    format!("{}{}{}", &env[..at], flipped, &env[at + 1..])
}

#[test]
fn tampered_fingerprint_is_rejected_as_zt109_everywhere() {
    let _g = lock();
    let handle = boot(ephemeral());
    let env = tamper(&wire(&spike_detection(1000.0)));
    let body = format!("{{\"plan\":{env}}}");

    // /predict and /tune refuse outright with the stable code.
    for path in ["/predict", "/tune"] {
        let resp = http_request(handle.addr(), "POST", path, Some(&body)).expect("round-trip");
        assert_eq!(resp.status, 400, "{path}: {}", resp.body);
        assert_eq!(error_code(&resp.body), "ZT109", "{path}: {}", resp.body);
    }

    // /lint folds it into the report instead (that is the endpoint's job).
    let resp = http_request(handle.addr(), "POST", "/lint", Some(&body)).expect("round-trip");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = parse(&resp.body);
    assert!(num(&v, "errors") as u64 >= 1);
    assert!(
        resp.body.contains("\"ZT109\""),
        "lint report names ZT109: {}",
        resp.body
    );
    handle.shutdown();
}

#[test]
fn malformed_oversized_and_misrouted_requests_fail_structurally() {
    let _g = lock();
    let cfg = ServeConfig {
        max_body_bytes: 1024,
        ..ephemeral()
    };
    let handle = boot(cfg);

    let resp = http_request(handle.addr(), "POST", "/predict", Some("{not json")).expect("rt");
    assert_eq!(
        (resp.status, error_code(&resp.body).as_str()),
        (400, "bad_json")
    );

    let resp = http_request(handle.addr(), "POST", "/predict", Some("{}")).expect("rt");
    assert_eq!(
        (resp.status, error_code(&resp.body).as_str()),
        (400, "missing_field")
    );

    let oversized = format!("{{\"pad\":\"{}\"}}", "x".repeat(4096));
    let resp = http_request(handle.addr(), "POST", "/predict", Some(&oversized)).expect("rt");
    assert_eq!(
        (resp.status, error_code(&resp.body).as_str()),
        (413, "payload_too_large")
    );

    let resp = http_request(handle.addr(), "POST", "/nope", Some("{}")).expect("rt");
    assert_eq!(
        (resp.status, error_code(&resp.body).as_str()),
        (404, "unknown_route")
    );

    let resp = http_request(handle.addr(), "GET", "/predict", None).expect("rt");
    assert_eq!(
        (resp.status, error_code(&resp.body).as_str()),
        (405, "method_not_allowed")
    );

    let bad_par = format!(
        "{{\"plan\":{},\"parallelism\":[1]}}",
        wire(&spike_detection(1000.0))
    );
    let resp = http_request(handle.addr(), "POST", "/predict", Some(&bad_par)).expect("rt");
    assert_eq!(
        (resp.status, error_code(&resp.body).as_str()),
        (400, "bad_parallelism")
    );
    handle.shutdown();
}

#[test]
fn hot_swap_relabels_and_rescores_with_the_new_weights() {
    let _g = lock();
    let handle = boot(ephemeral());
    let plan = smart_grid_local(1200.0);
    let body = deployment_body(&plan, Some(2));
    let v1 = offline_predict(&v1_model(), &plan, Some(2));
    let v2 = offline_predict(&v2_model(), &plan, Some(2));
    assert_ne!(
        v1.latency_ms.to_bits(),
        v2.latency_ms.to_bits(),
        "swap test needs distinguishable models"
    );

    let resp = http_request(handle.addr(), "POST", "/predict", Some(&body)).expect("rt");
    let v = parse(&resp.body);
    assert_eq!(num(&v, "model_version") as u64, 1);
    assert_eq!(num(&v, "latency_ms").to_bits(), v1.latency_ms.to_bits());

    // Swap over the HTTP path, as an operator would.
    let resp = http_request(handle.addr(), "POST", "/swap", Some(&v2_model().to_json()))
        .expect("swap round-trip");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(num(&parse(&resp.body), "model_version") as u64, 2);
    assert_eq!(handle.model_version(), 2);

    // Same request now scores under the new weights — the v1 cache
    // entry must not leak through.
    let resp = http_request(handle.addr(), "POST", "/predict", Some(&body)).expect("rt");
    assert_eq!(resp.header("x-zt-cache"), Some("miss"));
    let v = parse(&resp.body);
    assert_eq!(num(&v, "model_version") as u64, 2);
    assert_eq!(num(&v, "latency_ms").to_bits(), v2.latency_ms.to_bits());

    // A model that does not parse is rejected and leaves the registry alone.
    let resp = http_request(handle.addr(), "POST", "/swap", Some("{broken")).expect("rt");
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert_eq!(error_code(&resp.body), "model_rejected");
    assert_eq!(handle.model_version(), 2);
    handle.shutdown();
}

#[test]
fn hot_swap_mid_traffic_never_serves_a_mixed_version_response() {
    let _g = lock();
    let handle = boot(ephemeral());
    let model1 = v1_model();
    let model2 = v2_model();

    // Expected bitwise answers for both generations, per request body.
    let plans: Vec<LogicalPlan> = (0..6)
        .map(|i| spike_detection(500.0 + 100.0 * f64::from(i)))
        .collect();
    let expect: Vec<(String, u64, u64)> = plans
        .iter()
        .map(|p| {
            (
                deployment_body(p, Some(2)),
                offline_predict(&model1, p, Some(2)).latency_ms.to_bits(),
                offline_predict(&model2, p, Some(2)).latency_ms.to_bits(),
            )
        })
        .collect();

    let addr = handle.addr();
    let expect_ref = &expect;
    // Swap-guarded lint + certification make `swap_model` take tens of
    // milliseconds, so a fixed request count can drain before the swap
    // lands. Workers instead keep issuing traffic until they have sent at
    // least two requests *after* observing the swap-completed flag (so
    // every worker provably exercises the v2 generation), with a floor of
    // 40 requests to overlap the swap window and a generous cap so a
    // wedged swap cannot hang the test.
    let swapped = std::sync::atomic::AtomicBool::new(false);
    let swapped_ref = &swapped;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|w| {
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    let mut i = 0usize;
                    let mut post_swap = 0usize;
                    while (i < 40 || post_swap < 2) && i < 20_000 {
                        if swapped_ref.load(std::sync::atomic::Ordering::Acquire) {
                            post_swap += 1;
                        }
                        let (body, b1, b2) = &expect_ref[(w + i) % expect_ref.len()];
                        let resp = http_request(addr, "POST", "/predict", Some(body))
                            .expect("no dropped connections during swap");
                        assert_eq!(resp.status, 200, "{}", resp.body);
                        let v = parse(&resp.body);
                        let version = num(&v, "model_version") as u64;
                        let bits = num(&v, "latency_ms").to_bits();
                        // The atomicity claim: version labels the exact
                        // weights that scored this response.
                        match version {
                            1 => assert_eq!(bits, *b1, "v1-labeled body with non-v1 weights"),
                            2 => assert_eq!(bits, *b2, "v2-labeled body with non-v2 weights"),
                            other => panic!("impossible model version {other}"),
                        }
                        seen.push(version);
                        i += 1;
                    }
                    seen
                })
            })
            .collect();

        std::thread::sleep(Duration::from_millis(15));
        handle.swap_model(v2_model()).expect("fresh model swaps in");
        swapped.store(true, std::sync::atomic::Ordering::Release);

        let seen: Vec<u64> = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        assert!(
            seen.contains(&2),
            "swap landed after all traffic; widen the window"
        );
    });
    handle.shutdown();
}

#[test]
fn telemetry_counters_sum_exactly_under_concurrency_and_swap() {
    let _g = lock();
    telemetry::set_mode(Mode::Summary);
    telemetry::reset();

    let handle = boot(ephemeral());
    let bodies: Vec<String> = (0..6)
        .map(|i| deployment_body(&smart_grid_local(600.0 + 50.0 * f64::from(i)), Some(2)))
        .collect();

    const THREADS: usize = 4;
    const PER_THREAD: usize = 30;
    let addr = handle.addr();
    let bodies_ref = &bodies;
    std::thread::scope(|scope| {
        for w in 0..THREADS {
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let body = &bodies_ref[(w * PER_THREAD + i) % bodies_ref.len()];
                    let resp = http_request(addr, "POST", "/predict", Some(body))
                        .expect("no dropped connections");
                    assert_eq!(resp.status, 200, "{}", resp.body);
                }
            });
        }
        std::thread::sleep(Duration::from_millis(10));
        handle.swap_model(v2_model()).expect("swap mid-traffic");
    });

    let issued = (THREADS * PER_THREAD) as u64;
    assert_eq!(handle.request_count(), issued, "in-process request count");
    handle.shutdown();

    // After shutdown the registry is quiescent: every request must be
    // accounted for, exactly once, hit + miss partitioning the total.
    let snap = telemetry::snapshot();
    assert_eq!(
        snap.counters.get("serve.requests").copied(),
        Some(issued),
        "serve.requests must count each accepted request exactly once"
    );
    let hits = snap.counters.get("serve.cache_hit").copied().unwrap_or(0);
    let misses = snap.counters.get("serve.cache_miss").copied().unwrap_or(0);
    assert_eq!(
        hits + misses,
        issued,
        "every /predict is exactly one hit or one miss"
    );
    assert!(misses >= 1, "fresh server must miss at least once");
    assert_eq!(snap.counters.get("serve.swap").copied(), Some(1));
    assert!(
        snap.span_durations.contains_key("serve.predict"),
        "predict spans recorded"
    );
    assert!(
        snap.histograms.contains_key("serve.predict_ms"),
        "predict latency histogram recorded"
    );

    telemetry::set_mode(Mode::Off);
    telemetry::reset();
}

/// The `k`-th distinct deployment of the miss-path test: one of the
/// three benchmark families at a rate no other `k` uses, with uniform
/// parallelism 1, 2 or 4.
fn distinct_deployment(k: usize) -> (LogicalPlan, u32) {
    let rate = 300.0 + 7.0 * k as f64;
    let plan = match k % 3 {
        0 => spike_detection(rate),
        1 => smart_grid_local(rate),
        _ => smart_grid_global(rate),
    };
    (plan, [1, 2, 4][(k / 3) % 3])
}

#[test]
fn concurrent_misses_under_a_swap_match_offline_bitwise() {
    let _g = lock();
    telemetry::set_mode(Mode::Summary);
    telemetry::reset();
    let handle = boot(ephemeral());

    // Every request is a deployment no other request sends, so each one
    // takes the full miss path (encode, inline inference, insert) while
    // the swap lands. Each worker sends 4 requests, meets the others at
    // the barrier that starts the swap, and keeps going until it has sent
    // at least two requests after the swap completed (floor 24, cap 2000
    // each), so both generations are scored concurrently.
    const THREADS: usize = 4;
    const CAP: usize = 2000;
    let addr = handle.addr();
    let swapped = std::sync::atomic::AtomicBool::new(false);
    let swapped_ref = &swapped;
    let start_swap = std::sync::Barrier::new(THREADS + 1);
    let start_swap_ref = &start_swap;
    let served: Vec<(usize, String)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|w| {
                scope.spawn(move || {
                    let mut served = Vec::new();
                    let mut post_swap = 0usize;
                    while (served.len() < 24 || post_swap < 2) && served.len() < CAP {
                        if served.len() == 4 {
                            start_swap_ref.wait();
                        }
                        if swapped_ref.load(std::sync::atomic::Ordering::Acquire) {
                            post_swap += 1;
                        }
                        let k = w * CAP + served.len();
                        let (plan, p) = distinct_deployment(k);
                        let body = deployment_body(&plan, Some(p));
                        let resp = http_request(addr, "POST", "/predict", Some(&body))
                            .expect("no dropped connections during swap");
                        assert_eq!(resp.status, 200, "{}", resp.body);
                        assert_eq!(resp.header("x-zt-cache"), Some("miss"));
                        served.push((k, resp.body));
                    }
                    served
                })
            })
            .collect();

        start_swap.wait();
        let resp = http_request(addr, "POST", "/swap", Some(&v2_model().to_json()))
            .expect("swap round-trip");
        assert_eq!(resp.status, 200, "{}", resp.body);
        swapped.store(true, std::sync::atomic::Ordering::Release);

        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    handle.shutdown();

    let models = [v1_model(), v2_model()];
    let mut per_version = [0usize; 2];
    for (k, body) in &served {
        let version = num(&parse(body), "model_version") as u64;
        let model = match version {
            1 | 2 => &models[version as usize - 1],
            other => panic!("impossible model version {other}"),
        };
        per_version[version as usize - 1] += 1;
        let (plan, p) = distinct_deployment(*k);
        let pred = offline_predict(model, &plan, Some(p));
        let expected = serde_json::to_string(&PredictResponse {
            model_version: version,
            latency_ms: pred.latency_ms,
            throughput: pred.throughput,
        })
        .expect("render");
        assert_eq!(body, &expected, "deployment {k} under v{version}");
    }
    assert!(per_version[0] > 0 && per_version[1] > 0, "{per_version:?}");

    let snap = telemetry::snapshot();
    telemetry::set_mode(Mode::Off);
    telemetry::reset();
    let issued = served.len() as u64;
    assert_eq!(
        snap.counters.get("serve.cache_hit").copied().unwrap_or(0),
        0
    );
    assert_eq!(snap.counters.get("serve.cache_miss").copied(), Some(issued));
    assert!(
        snap.span_durations
            .contains_key("serve.predict/serve.infer"),
        "inline inference is attributed inside the request span"
    );
}

#[test]
fn graceful_shutdown_drains_every_accepted_connection() {
    let _g = lock();
    let cfg = ServeConfig {
        workers: 2,
        ..ephemeral()
    };
    let handle = boot(cfg);
    let addr = handle.addr();

    // Clients connect *before* shutdown begins but only send their
    // request afterwards: a server that drops the accept queue on
    // shutdown would strand them.
    let clients: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect before shutdown");
                stream
                    .set_read_timeout(Some(Duration::from_secs(20)))
                    .unwrap();
                std::thread::sleep(Duration::from_millis(150));
                stream
                    .write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\ncontent-length: 0\r\nconnection: close\r\n\r\n")
                    .expect("write after shutdown started");
                let mut buf = String::new();
                stream.read_to_string(&mut buf).expect("read response");
                buf
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(50));
    handle.shutdown(); // blocks until the queue is drained

    for client in clients {
        let resp = client.join().expect("client thread");
        assert!(
            resp.starts_with("HTTP/1.1 200"),
            "accepted connection must be answered, got: {resp}"
        );
    }
}

#[test]
fn overload_sheds_with_503_instead_of_hanging() {
    let _g = lock();
    let cfg = ServeConfig {
        workers: 1,
        accept_queue: 1,
        ..ephemeral()
    };
    let handle = boot(cfg);
    let addr = handle.addr();

    // `a` occupies the single worker (it never sends), `b` fills the
    // one-deep accept queue, so `c` must be shed immediately.
    let a = TcpStream::connect(addr).expect("a connects");
    std::thread::sleep(Duration::from_millis(100));
    let b = TcpStream::connect(addr).expect("b connects");
    std::thread::sleep(Duration::from_millis(100));

    let resp = http_request(addr, "GET", "/healthz", None).expect("shed response");
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(error_code(&resp.body), "overloaded");

    drop(a);
    drop(b);
    handle.shutdown();
}

#[test]
fn healthz_reports_versioned_state() {
    let _g = lock();
    let handle = boot(ephemeral());
    let body = deployment_body(&spike_detection(900.0), None);
    http_request(handle.addr(), "POST", "/predict", Some(&body)).expect("warm-up predict");

    let resp = http_request(handle.addr(), "GET", "/healthz", None).expect("healthz");
    assert_eq!(resp.status, 200);
    let v = parse(&resp.body);
    assert_eq!(num(&v, "model_version") as u64, 1);
    assert_eq!(num(&v, "requests") as u64, 2, "predict + this healthz");
    assert_eq!(num(&v, "swaps") as u64, 0);
    assert_eq!(num(&v, "cache_misses") as u64, 1);
    assert_eq!(num(&v, "cache_entries") as u64, 1);
    match v.get("status") {
        Some(Value::Str(s)) => assert_eq!(s, "ok"),
        other => panic!("no status: {other:?}"),
    }
    handle.shutdown();
}

/// An otherwise well-formed model whose weights were inflated 1e4x: it
/// passes the ZT4xx lint gate (finite weights; ZT405 is warning-only)
/// but its interval certificate explodes past the fresh-init reference —
/// the certification gate must reject it with ZT601.
fn uncertifiable_model() -> ZeroTuneModel {
    let mut model = v2_model();
    let ids: Vec<_> = model.store.ids().collect();
    for id in ids {
        for v in &mut model.store.value_mut(id).data {
            *v *= 1e4;
        }
    }
    model
}

#[test]
fn swap_rejects_uncertifiable_model_and_old_version_serves_byte_identical() {
    let _g = lock();
    let handle = boot(ephemeral());
    let plan = spike_detection(900.0);
    let body = deployment_body(&plan, Some(2));

    let before = http_request(handle.addr(), "POST", "/predict", Some(&body)).expect("rt");
    assert_eq!(before.status, 200, "{}", before.body);
    assert_eq!(num(&parse(&before.body), "model_version") as u64, 1);

    // The deploy gate: 422 with the certification diagnostic's stable
    // code in the structured error body.
    let resp = http_request(
        handle.addr(),
        "POST",
        "/swap",
        Some(&uncertifiable_model().to_json()),
    )
    .expect("swap round-trip");
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert_eq!(error_code(&resp.body), "ZT601", "{}", resp.body);
    assert_eq!(handle.model_version(), 1, "old version keeps serving");

    // The old version's responses are byte-identical to before the
    // rejected swap (and still served from the untouched cache).
    let after = http_request(handle.addr(), "POST", "/predict", Some(&body)).expect("rt");
    assert_eq!(after.status, 200);
    assert_eq!(after.header("x-zt-cache"), Some("hit"));
    assert_eq!(
        before.body, after.body,
        "rejected swap must not perturb serving"
    );
    handle.shutdown();
}

#[test]
fn healthz_reports_certificate_summary_of_the_active_version() {
    let _g = lock();
    let handle = boot(ephemeral());

    let resp = http_request(handle.addr(), "GET", "/healthz", None).expect("healthz");
    assert_eq!(resp.status, 200);
    let v = parse(&resp.body);
    let cert = v
        .get("certificate")
        .unwrap_or_else(|| panic!("healthz carries a certificate summary: {}", resp.body));
    match cert.get("certified") {
        Some(Value::Bool(true)) => {}
        other => panic!("boot model must be certified, got {other:?}: {}", resp.body),
    }
    match cert.get("errors") {
        Some(Value::Seq(errs)) => assert!(errs.is_empty(), "{}", resp.body),
        other => panic!("no errors list: {other:?}"),
    }
    assert!(num(cert, "magnitude_log10").is_finite());
    assert!(num(cert, "max_depth") >= 1.0);

    // After a successful swap, /healthz reflects the new version's
    // certificate (still certified — v2 is a healthy fresh model).
    handle.swap_model(v2_model()).expect("clean model swaps");
    let resp = http_request(handle.addr(), "GET", "/healthz", None).expect("healthz");
    let v = parse(&resp.body);
    assert_eq!(num(&v, "model_version") as u64, 2);
    match v.get("certificate").and_then(|c| c.get("certified")) {
        Some(Value::Bool(true)) => {}
        other => panic!("swapped model must be certified, got {other:?}"),
    }
    handle.shutdown();
}
