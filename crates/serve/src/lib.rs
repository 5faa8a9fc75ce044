//! # zt-serve — the always-on tuning/prediction daemon
//!
//! ZeroTune's promise is zero-shot parallelism tuning *at deployment
//! time*; this crate stands the cost model up as a long-running HTTP/JSON
//! service so a stream-processing controller can ask "what would this
//! deployment cost?" and "how should I parallelize this plan?" without
//! ever touching the experiment binaries.
//!
//! The protocol is hand-rolled HTTP/1.1 over `std::net::TcpListener`
//! (the build environment has no crates.io access — and a five-endpoint
//! JSON service does not need more than [`http`]'s 200 lines):
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /predict` | What-if cost of one deployment (scored inline on the request worker, LRU-cached) |
//! | `POST /tune`    | Full parallelism tuning via `zt_core::tune` (bounds pre-pass included) |
//! | `POST /explain` | Prediction + static bounds brackets + occlusion attribution |
//! | `POST /lint`    | `zt_core::diagnostics` over the shipped deployment |
//! | `POST /swap`    | Lint- and certification-guarded model hot-swap (422 + ZT6xx code on an uncertifiable candidate) |
//! | `GET /healthz`  | Liveness + serving counters + the active version's certificate summary |
//!
//! Plans travel as the sealed wire envelope of [`zt_query::PlanIr::to_json`]:
//! untrusted input is fully revalidated on receipt and the structural
//! fingerprint is cross-checked (diagnostic `ZT109` on mismatch).
//!
//! ## Determinism contract
//!
//! Same request body + same model version ⇒ byte-identical response
//! body. Ingredients: deterministic encode (`EncodeContext` over the
//! sealed IR), `predict` being bitwise `predict_batch` on a one-graph
//! slice (the offline scoring call), `tune`'s self-seeded RNG, and `serde_json`'s shortest
//! round-trip float rendering. The prediction cache stores whole rendered
//! bodies under the exact serialized feature vector (version-prefixed),
//! so a cache hit is *provably* byte-identical to the miss that populated
//! it — and telemetry counters (`serve.requests`, `serve.cache_hit`,
//! `serve.cache_miss`) account for every request exactly once.

#![deny(unsafe_code)]

pub mod api;
pub mod batch;
pub mod cache;
pub mod http;
pub mod registry;
pub mod server;

pub use api::{
    ApiError, ExplainResponse, HealthResponse, LintDiagnostic, LintResponse, PredictResponse,
    SwapResponse, TuneResponse,
};
pub use cache::CacheStats;
pub use http::{http_request, HttpResponse};
pub use registry::{ModelRegistry, ModelVersion, SwapRejection};
pub use server::{default_cluster, BoundServer, ServeConfig, Server, ServerHandle};
