//! # zt-dspsim
//!
//! A distributed stream processing **performance simulator** standing in for
//! the paper's Apache Flink + CloudLab testbed (see `DESIGN.md`,
//! substitutions table).
//!
//! Two execution paths share one cluster/placement/cost model:
//!
//! * [`analytical`] — a steady-state queueing solver that computes
//!   end-to-end latency and sustained throughput of a
//!   [`zt_query::ParallelQueryPlan`] deployed on a [`cluster::Cluster`].
//!   It models selectivity-driven rate propagation, per-instance and
//!   per-node utilization, backpressure, operator chaining / slot sharing,
//!   partitioning-dependent exchange costs, network transfer and window
//!   residence times. This is the fast path used to label tens of
//!   thousands of training queries.
//! * [`engine`] — a discrete-event, tuple-batch-level execution engine that
//!   actually runs the operators (filters drop tuples, windows fill and
//!   fire, joins probe state) and measures latency/throughput empirically.
//!   It is used to validate the analytical model and in the examples.
//!
//! The modules:
//!
//! * [`cluster`] — node/cluster model plus the CloudLab hardware presets of
//!   Table II in the paper.
//! * [`placement`] — scheduler: operator chaining decisions, slot
//!   assignment, data locality.
//! * [`costmodel`] — per-tuple CPU service costs, serialization and network
//!   costs.
//! * [`analytical`] — the queueing solver, written once over [`Num`] so
//!   it evaluates at `f64` (point estimates) and at [`Interval`] (sound
//!   brackets, see `zt_core::bounds`).
//! * [`interval`] — closed non-negative intervals.
//! * [`simcache`] — memoization of the deterministic solver core for
//!   repeated `(plan, cluster, parallelism)` evaluations.
//! * [`noise`] — multiplicative lognormal measurement noise.
//! * [`engine`] — the discrete-event engine.
//! * [`metrics`] — summary statistics helpers.

#![deny(unsafe_code)]

pub mod analytical;
pub mod cluster;
pub mod costmodel;
pub mod engine;
pub mod explain;
pub mod interval;
pub mod metrics;
pub mod noise;
pub mod placement;
pub mod simcache;

pub use analytical::{
    simulate, simulate_core, Num, OpMetrics, QueryMetrics, SimConfig, CHAINED_HOP_MS,
    EXCHANGE_OVERHEAD_MS, INFLIGHT_WAIT_CAP_MS, NET_UTIL_CAP, RHO_CAP,
};
pub use cluster::{Cluster, ClusterType, NodeSpec};
pub use engine::{EngineConfig, EngineMetrics, SinkMetrics};
pub use interval::Interval;
pub use noise::NoiseConfig;
pub use placement::{place, place_with, ChainingMode, Deployment, EdgeExchange};
pub use simcache::{CacheStats, SimCache};
