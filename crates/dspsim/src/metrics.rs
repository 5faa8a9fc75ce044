//! Summary-statistics helpers shared by the simulator, the trainer and the
//! experiment harness.
//!
//! The implementation lives in [`zt_telemetry::summary`] so the telemetry
//! registry's histograms and the simulator share one statistics type
//! without a dependency cycle; this module re-exports it under the
//! historical `zt_dspsim::metrics` paths. See the source module for the
//! pinned edge-case semantics (NaN on empty, 0.0 spread on single-sample
//! and constant series) and the property tests backing them.

pub use zt_telemetry::summary::{quantile, Summary};
