//! The daemon: bounded accept queue, scoped worker threads, routing,
//! hot-swap, graceful drain.
//!
//! # Lifecycle
//!
//! [`Server::bind`] binds the listener and builds the shared state;
//! [`BoundServer::run`] blocks serving (the `zt-serve` binary), while
//! [`BoundServer::spawn`] runs the same loop on a background thread and
//! returns a [`ServerHandle`] (the in-process harness used by the e2e
//! tests and `zt-load`).
//!
//! Inside `run`, everything lives under one `std::thread::scope`: N
//! request workers popping connections off a bounded queue (each serves
//! its request end to end, `/predict` inference included), and the
//! accept loop on the calling thread. The accept loop only enqueues;
//! when the queue is full the connection is answered `503` right there
//! — the daemon sheds load instead of buffering unboundedly.
//!
//! # Graceful shutdown
//!
//! [`ServerHandle::shutdown`] sets the stop flag and pokes the listener
//! with a throwaway connection so `accept` returns. The accept loop then
//! closes the queue; workers finish **everything already accepted**
//! (requests whose bytes have not even arrived yet included) before
//! exiting, and `run` returns once they are joined. No accepted request
//! is ever dropped.
//!
//! # Telemetry
//!
//! Per-endpoint spans `serve.predict` / `serve.tune` / `serve.explain` /
//! `serve.lint` / `serve.healthz` / `serve.swap_model` plus latency
//! histograms `serve.<endpoint>_ms`; counters `serve.requests`,
//! `serve.cache_hit`, `serve.cache_miss`, `serve.rejected`, `serve.swap`
//! and a `serve.infer` span around each `/predict` miss's inference.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use zt_core::explain::{attribute, explain_bounds};
use zt_core::{
    analyze_with, lint_pqp, lint_wire_plan, tune, BoundsConfig, CostEstimator, EncodeContext,
    FeatureMask, OptimizerConfig, Severity, ZeroTuneModel,
};
use zt_dspsim::cluster::{Cluster, ClusterType};
use zt_dspsim::ChainingMode;

use crate::api::{
    self, ApiError, ExplainResponse, HealthResponse, LintDiagnostic, LintResponse, PredictResponse,
    SwapResponse, TuneResponse,
};
use crate::cache::{CacheStats, ResponseCache};
use crate::http::{self, HttpError, Request};
use crate::registry::{ModelRegistry, SwapRejection};

/// Serving knobs. `addr` takes `"host:0"` for an ephemeral test port.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    pub addr: String,
    /// Request worker threads.
    pub workers: usize,
    /// Accepted-but-unserved connection cap; beyond it new connections
    /// are answered 503 immediately.
    pub accept_queue: usize,
    /// Request body cap in bytes; larger declarations get 413.
    pub max_body_bytes: usize,
    /// Prediction cache capacity (entries).
    pub cache_capacity: usize,
    /// Batch cap for a standalone [`crate::batch::MicroBatcher`]; the
    /// daemon scores `/predict` misses inline and does not read it.
    pub batch_max: usize,
    /// Coalescing window (µs) for a standalone `MicroBatcher`; unread.
    pub batch_wait_us: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            workers: 4,
            accept_queue: 128,
            max_body_bytes: 8 * 1024 * 1024,
            cache_capacity: 4096,
            batch_max: 32,
            batch_wait_us: 150,
        }
    }
}

/// The reference deployment target when a request names no cluster: the
/// 4-worker homogeneous m510 cluster used throughout the benchmarks.
pub fn default_cluster() -> Cluster {
    Cluster::homogeneous(ClusterType::M510, 4, 10.0)
}

struct QueueState {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

/// Bounded MPMC connection queue: `try_push` from the accept loop,
/// blocking `pop` from the workers, `close` to drain-and-exit.
struct AcceptQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    cap: usize,
}

impl AcceptQueue {
    fn new(cap: usize) -> Self {
        AcceptQueue {
            state: Mutex::new(QueueState {
                conns: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Hands the connection back when the queue is at capacity so the
    /// caller can shed the load with a 503.
    fn try_push(&self, conn: TcpStream) -> Result<(), TcpStream> {
        let mut st = self.state.lock().expect("accept queue lock");
        if st.conns.len() >= self.cap {
            return Err(conn);
        }
        st.conns.push_back(conn);
        self.cv.notify_one();
        Ok(())
    }

    /// Next connection, or `None` once closed *and* drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut st = self.state.lock().expect("accept queue lock");
        loop {
            if let Some(c) = st.conns.pop_front() {
                return Some(c);
            }
            if st.closed {
                return None;
            }
            st = self.cv.wait(st).expect("accept queue lock");
        }
    }

    fn close(&self) {
        self.state.lock().expect("accept queue lock").closed = true;
        self.cv.notify_all();
    }
}

/// State shared by the accept loop, workers and handle.
pub(crate) struct Shared {
    cfg: ServeConfig,
    registry: ModelRegistry,
    cache: ResponseCache,
    shutdown: AtomicBool,
    requests: AtomicU64,
    default_cluster: Cluster,
}

/// Constructor namespace; see [`Server::bind`].
pub struct Server;

impl Server {
    /// Bind the listener and assemble the serving state. Serving starts
    /// with [`BoundServer::run`] or [`BoundServer::spawn`].
    pub fn bind(cfg: ServeConfig, model: ZeroTuneModel) -> io::Result<BoundServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let shared = Arc::new(Shared {
            registry: ModelRegistry::new(model),
            cache: ResponseCache::new(cfg.cache_capacity),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            default_cluster: default_cluster(),
            cfg,
        });
        Ok(BoundServer { listener, shared })
    }
}

/// A bound-but-not-yet-serving daemon.
pub struct BoundServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl BoundServer {
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until shutdown is signaled. Blocks the calling thread; all
    /// concurrency is scoped inside, so returning means fully drained.
    pub fn run(self) {
        let BoundServer { listener, shared } = self;
        let queue = AcceptQueue::new(shared.cfg.accept_queue);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..shared.cfg.workers.max(1))
                .map(|_| s.spawn(|| worker_loop(&queue, &shared)))
                .collect();

            for conn in listener.incoming() {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                if let Err(mut stream) = queue.try_push(stream) {
                    // Queue full: shed the load right here instead of
                    // buffering unboundedly. The request must still be
                    // consumed (bounded by a short timeout, so a slow
                    // sender cannot stall the accept loop) — closing
                    // with unread bytes in the receive buffer resets
                    // the connection and the peer never sees the 503.
                    zt_telemetry::counter_add("serve.rejected", 1);
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                    if let Err(HttpError::TooLarge {
                        declared, buffered, ..
                    }) = http::read_request(&mut stream, shared.cfg.max_body_bytes)
                    {
                        drain_body(&mut stream, declared.saturating_sub(buffered));
                    }
                    let err =
                        ApiError::new(503, "overloaded", "accept queue full — retry with backoff");
                    let _ = http::write_response(&mut stream, err.status, &[], &err.body());
                }
            }

            // Drain: stop handing out new work and let the workers
            // finish everything already accepted.
            queue.close();
            for w in workers {
                let _ = w.join();
            }
        });
    }

    /// Serve on a background thread; the returned handle controls the
    /// daemon (hot-swap, stats, graceful shutdown).
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let join = std::thread::Builder::new()
            .name("zt-serve-accept".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle { addr, shared, join })
    }
}

/// Remote control for a spawned daemon.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    join: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently serving model generation.
    pub fn model_version(&self) -> u64 {
        self.shared.registry.version()
    }

    /// Prediction-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Total requests whose HTTP head parsed, since boot.
    pub fn request_count(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Lint- and certification-guarded hot-swap; on success the
    /// prediction cache is invalidated so no response rendered by older
    /// weights outlives the swap in the cache. In-flight requests finish
    /// on whichever version they snapshotted — internally consistent
    /// either way.
    pub fn swap_model(&self, model: ZeroTuneModel) -> Result<u64, SwapRejection> {
        let v = self.shared.registry.swap(model)?;
        self.shared.cache.clear();
        Ok(v)
    }

    /// [`ServerHandle::swap_model`] from `ZeroTuneModel::to_json` text.
    pub fn swap_model_json(&self, json: &str) -> Result<u64, SwapRejection> {
        let v = self.shared.registry.swap_json(json)?;
        self.shared.cache.clear();
        Ok(v)
    }

    /// Graceful shutdown: stop accepting, serve everything already
    /// accepted, join every thread.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Poke the blocking accept() so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.join.join();
    }
}

fn worker_loop(queue: &AcceptQueue, shared: &Shared) {
    while let Some(mut stream) = queue.pop() {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
        handle_connection(&mut stream, shared);
    }
}

/// Discard up to `remaining` unread body bytes so the rejection response
/// survives the close. Bodies beyond the drain cap are simply abandoned —
/// a multi-megabyte bogus upload is not worth reading to completion.
fn drain_body(stream: &mut TcpStream, remaining: usize) {
    const DRAIN_CAP: usize = 1 << 20;
    let mut left = remaining.min(DRAIN_CAP);
    let mut sink = [0u8; 4096];
    while left > 0 {
        match std::io::Read::read(stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => left = left.saturating_sub(n),
        }
    }
}

fn handle_connection(stream: &mut TcpStream, shared: &Shared) {
    match http::read_request(stream, shared.cfg.max_body_bytes) {
        Ok(req) => {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            zt_telemetry::counter_add("serve.requests", 1);
            route(stream, &req, shared);
        }
        Err(HttpError::TooLarge {
            declared,
            max,
            buffered,
        }) => {
            // The head parsed — this is a real (oversized) request.
            shared.requests.fetch_add(1, Ordering::Relaxed);
            zt_telemetry::counter_add("serve.requests", 1);
            // Drain the in-flight body (bounded) before answering:
            // closing with unread bytes in the receive buffer makes the
            // kernel reset the connection and the client loses the 413.
            drain_body(stream, declared.saturating_sub(buffered));
            let err = ApiError::new(
                413,
                "payload_too_large",
                format!("declared body of {declared} bytes exceeds the {max}-byte cap"),
            );
            let _ = http::write_response(stream, err.status, &[], &err.body());
        }
        Err(HttpError::Bad(msg)) => {
            // Not counted as a request: the shutdown wake-up connection
            // and port scanners land here with zero parseable intent.
            let err = ApiError::new(400, "bad_request", msg);
            let _ = http::write_response(stream, err.status, &[], &err.body());
        }
        Err(HttpError::Io(_)) => {} // peer went away; nothing to answer
    }
}

/// Telemetry span path for a known route.
fn span_path(path: &str) -> Option<&'static str> {
    match path {
        "/predict" => Some("serve.predict"),
        "/tune" => Some("serve.tune"),
        "/explain" => Some("serve.explain"),
        "/lint" => Some("serve.lint"),
        "/healthz" => Some("serve.healthz"),
        "/swap" => Some("serve.swap_model"),
        _ => None,
    }
}

/// Latency-histogram name for a known route (`_ms` suffix keeps the
/// value out of canonical golden traces).
fn histogram_path(path: &str) -> Option<&'static str> {
    match path {
        "/predict" => Some("serve.predict_ms"),
        "/tune" => Some("serve.tune_ms"),
        "/explain" => Some("serve.explain_ms"),
        "/lint" => Some("serve.lint_ms"),
        "/healthz" => Some("serve.healthz_ms"),
        "/swap" => Some("serve.swap_model_ms"),
        _ => None,
    }
}

/// A handler's 200 body plus any extra response headers — or a
/// structured failure.
type Handled = Result<(String, Vec<(&'static str, &'static str)>), ApiError>;

fn route(stream: &mut TcpStream, req: &Request, shared: &Shared) {
    let started = Instant::now();
    let span_guard = span_path(&req.path).map(zt_telemetry::span);

    let outcome: Handled = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => handle_healthz(shared),
        ("POST", "/predict") => handle_predict(req, shared),
        ("POST", "/tune") => handle_tune(req, shared),
        ("POST", "/explain") => handle_explain(req, shared),
        ("POST", "/lint") => handle_lint(req, shared),
        ("POST", "/swap") => handle_swap(req, shared),
        (_, path) if span_path(path).is_some() => Err(ApiError::new(
            405,
            "method_not_allowed",
            format!("{} does not accept {}", path, req.method),
        )),
        (_, path) => Err(ApiError::new(
            404,
            "unknown_route",
            format!("no route `{path}`"),
        )),
    };

    match outcome {
        Ok((body, headers)) => {
            let _ = http::write_response(stream, 200, &headers, &body);
        }
        Err(e) => {
            let _ = http::write_response(stream, e.status, &[], &e.body());
        }
    }

    if let Some(h) = histogram_path(&req.path) {
        zt_telemetry::observe(h, started.elapsed().as_secs_f64() * 1e3);
    }
    drop(span_guard);
}

fn ok(body: String) -> Handled {
    Ok((body, Vec::new()))
}

fn render<T: serde::Serialize>(value: &T) -> Result<String, ApiError> {
    serde_json::to_string(value).map_err(|e| ApiError::new(500, "render_failed", e.to_string()))
}

fn handle_healthz(shared: &Shared) -> Handled {
    let cache = shared.cache.stats();
    let current = shared.registry.current();
    ok(render(&HealthResponse {
        status: "ok".into(),
        model_version: current.version,
        requests: shared.requests.load(Ordering::Relaxed),
        swaps: shared.registry.swap_count(),
        cache_entries: cache.entries,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        certificate: current.certificate.clone(),
    })?)
}

/// The canonical request → encoding path shared by `/predict` and
/// `/explain`: sealed-IR encode of the requested deployment on the
/// requested (or default) cluster, full feature mask, auto chaining —
/// exactly the offline `encode(pqp, cluster, ChainingMode::Auto,
/// &FeatureMask::all())` call, so predictions are bitwise comparable.
fn encode_request(
    req: &Request,
    shared: &Shared,
) -> Result<
    (
        zt_core::GraphEncoding,
        zt_query::ParallelQueryPlan,
        zt_query::PlanIr,
        Cluster,
    ),
    ApiError,
> {
    let v = api::parse_body(&req.body)?;
    let (pqp, ir) = api::deployment(&v)?;
    let cluster = api::cluster_of(&v, &shared.default_cluster)?;
    let mask = FeatureMask::all();
    let ctx = EncodeContext::with_ir(&pqp.plan, &ir, &cluster, &mask);
    let graph = ctx.encode_sealed(&pqp, &ir, &cluster, ChainingMode::Auto);
    Ok((graph, pqp, ir, cluster))
}

fn handle_predict(req: &Request, shared: &Shared) -> Handled {
    let (graph, _pqp, _ir, _cluster) = encode_request(req, shared)?;
    let graph_json = serde_json::to_string(&graph)
        .map_err(|e| ApiError::new(500, "encode_failed", e.to_string()))?;

    // One snapshot serves the whole request: the key, the weights and
    // the label all name the same `(version, weights)` pair. Swap clears
    // the cache, so a hit is this generation's body; a miss that races a
    // swap lands under the old version's key, which no later lookup uses.
    let snapshot = shared.registry.current();
    let key = format!("v{}|{graph_json}", snapshot.version);
    if let Some(body) = shared.cache.get(&key) {
        zt_telemetry::counter_add("serve.cache_hit", 1);
        return Ok((body, vec![("x-zt-cache", "hit")]));
    }
    zt_telemetry::counter_add("serve.cache_miss", 1);

    // Inline on this worker's scratch arena; bitwise `predict_batch`.
    let pred = {
        let _infer = zt_telemetry::span("serve.infer");
        snapshot.model.predict(&graph)
    };
    let body = render(&PredictResponse {
        model_version: snapshot.version,
        latency_ms: pred.latency_ms,
        throughput: pred.throughput,
    })?;
    shared.cache.insert(key, body.clone());
    Ok((body, vec![("x-zt-cache", "miss")]))
}

/// The server-side tuning configuration: offline defaults with the
/// env-dependent knobs pinned (strict off — a daemon must answer, not
/// panic; pruning and key-cardinality capping on) plus the request's
/// explicit overrides. Part of the
/// serving determinism contract: same request + same model version ⇒
/// byte-identical response.
fn tune_config(v: &serde::Value) -> Result<OptimizerConfig, ApiError> {
    let mut cfg = OptimizerConfig {
        strict: false,
        prune: true,
        dataflow_cap: true,
        ..OptimizerConfig::default()
    };
    if let Some(wt) = api::num_field(v, "wt")? {
        if !(0.0..=1.0).contains(&wt) {
            return Err(ApiError::new(400, "bad_field", "`wt` must be in [0, 1]"));
        }
        cfg.wt = wt;
    }
    if let Some(seed) = api::num_field(v, "seed")? {
        cfg.seed = seed as u64;
    }
    if let Some(mp) = api::num_field(v, "max_parallelism")? {
        if mp < 1.0 {
            return Err(ApiError::new(400, "bad_field", "`max_parallelism` ≥ 1"));
        }
        cfg.max_parallelism = mp as u32;
    }
    Ok(cfg)
}

fn handle_tune(req: &Request, shared: &Shared) -> Handled {
    let v = api::parse_body(&req.body)?;
    let (plan, _ir) = api::wire_plan(&v)?;
    let cluster = api::cluster_of(&v, &shared.default_cluster)?;
    let cfg = tune_config(&v)?;
    let snapshot = shared.registry.current();
    // A structured tuner error (degenerate candidate set, exhausted search
    // budget, plan invalidated post-envelope) is the client's problem, not
    // a daemon crash: surface it as a 422 with the tuner's own message.
    let outcome = tune(&snapshot.model, &plan, &cluster, &cfg)
        .map_err(|e| ApiError::new(422, "tune_failed", e.to_string()))?;
    ok(render(&TuneResponse {
        model_version: snapshot.version,
        outcome,
    })?)
}

fn handle_explain(req: &Request, shared: &Shared) -> Handled {
    let (graph, pqp, ir, cluster) = encode_request(req, shared)?;
    let bounds = analyze_with(&pqp, &ir, &cluster, &BoundsConfig::default());
    let snapshot = shared.registry.current();
    let pred = snapshot.model.predict(&graph);
    let attr = attribute(&snapshot.model, &graph);
    let mut report = explain_bounds(&pqp, &bounds, Some(&pred));
    // Append the per-edge dataflow facts: same response shape, richer
    // rendered report.
    let dataflow = zt_core::dataflow::analyze_pqp(&pqp, &ir);
    report.push_str(&zt_core::explain::explain_dataflow(&pqp, &ir, &dataflow));
    ok(render(&ExplainResponse {
        model_version: snapshot.version,
        latency_ms: pred.latency_ms,
        throughput: pred.throughput,
        latency_bounds: [bounds.latency_ms.lo, bounds.latency_ms.hi],
        throughput_bounds: [bounds.throughput.lo, bounds.throughput.hi],
        latency_impact: attr.latency_impact,
        throughput_impact: attr.throughput_impact,
        report,
    })?)
}

fn handle_lint(req: &Request, shared: &Shared) -> Handled {
    let v = api::parse_body(&req.body)?;
    let plan_v = v
        .get("plan")
        .ok_or_else(|| ApiError::new(400, "missing_field", "request has no `plan` field"))?;
    let plan_json =
        serde_json::to_string(plan_v).map_err(|e| ApiError::new(400, "bad_json", e.to_string()))?;

    // `lint_wire_plan` folds envelope failures (ZT109 fingerprint
    // mismatch, ZT101 revalidation failures) into the report, so a
    // defective plan gets a 200 with diagnostics — that is the point of
    // the endpoint — rather than an opaque 4xx.
    let (sealed, mut report) = lint_wire_plan(&plan_json);
    if let Some((plan, _ir)) = sealed {
        let num_ops = plan.num_ops();
        let pqp = match api::parallelism_of(&v, num_ops)? {
            Some(par) => zt_query::ParallelQueryPlan::with_parallelism(plan, par),
            None => zt_query::ParallelQueryPlan::new(plan),
        };
        let cluster = api::cluster_of(&v, &shared.default_cluster)?;
        report = zt_core::Report::new(lint_pqp(&pqp, Some(&cluster)));
    }

    let diagnostics: Vec<LintDiagnostic> = report
        .diagnostics
        .iter()
        .map(|d| LintDiagnostic {
            code: d.code.to_string(),
            severity: d.severity.label().to_string(),
            message: d.message.clone(),
            anchor: d.anchor.as_ref().map(std::string::ToString::to_string),
        })
        .collect();
    let errors = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    ok(render(&LintResponse {
        errors,
        warnings,
        diagnostics,
    })?)
}

fn handle_swap(req: &Request, shared: &Shared) -> Handled {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::new(400, "bad_json", "model body is not UTF-8"))?;
    match shared.registry.swap_json(text) {
        Ok(version) => {
            shared.cache.clear();
            ok(render(&SwapResponse {
                model_version: version,
            })?)
        }
        // the rejection's stable code (lint `model_rejected` or the
        // leading ZT6xx certification code) becomes the error code
        Err(rej) => Err(ApiError::new(422, &rej.code, rej.report)),
    }
}
