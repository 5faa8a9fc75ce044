//! # zt-telemetry — runtime observability for the ZeroTune stack
//!
//! A lightweight, dependency-free (vendored serde/serde_json only)
//! telemetry layer:
//!
//! * **Spans** — RAII guards ([`span`] / [`span_arg`]) recording
//!   wall-clock timing into a process-global, thread-safe [`Registry`].
//!   Guards are cheap enough to drop into hot paths: when telemetry is
//!   off they cost one relaxed atomic load.
//! * **Counters** ([`counter_add`]) and **histograms** ([`observe`]) for
//!   domain metrics — tuples simulated, cache hits/misses, candidates
//!   enumerated, epochs, gradient norms, per-batch inference latency.
//! * **Exporters** — a human-readable end-of-run report
//!   ([`Snapshot::summary_report`]) and Chrome-trace-format JSON
//!   ([`Snapshot::chrome_trace_json`], loadable in `chrome://tracing` or
//!   <https://ui.perfetto.dev>).
//!
//! ## Modes
//!
//! The global mode comes from `ZT_TELEMETRY` (`off` | `summary` |
//! `trace`, default `off`) on first use, or [`set_mode`] /
//! [`init_from_env`] explicitly:
//!
//! * **Off** — every call is a near-no-op; no allocation, no locking, no
//!   clock reads. Datasets/models are bitwise identical to a build that
//!   never calls into telemetry (the RNG streams are untouched).
//! * **Summary** — counters, histograms and per-span duration summaries
//!   accumulate; no event log.
//! * **Trace** — additionally appends begin/end events for the Chrome
//!   trace exporter.
//!
//! ## Determinism
//!
//! Span *names*, span *tree structure* and counter *values* are
//! deterministic functions of the work performed — independent of worker
//! count and thread interleaving (shard spans started on worker threads
//! are roots of their thread's stack, so the canonical form is the same
//! at 1 or 8 workers). Durations and timestamps are of course wall-clock
//! and excluded from [`Snapshot::canonical`], which is what the
//! golden-trace tests compare.
//!
//! The registry is process-global; tests that assert on it serialize
//! behind a mutex and call [`reset`] at quiescent points (no live spans).

#![deny(unsafe_code)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod chrome;
pub mod report;
pub mod summary;

pub use chrome::{ChromeEvent, ChromeTrace};
pub use summary::{quantile, Summary};

/// Telemetry collection level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Near-no-op guards; nothing is recorded.
    Off,
    /// Counters, histograms and span-duration summaries.
    Summary,
    /// Everything, plus the begin/end event log for Chrome traces.
    Trace,
}

impl Mode {
    /// Parse `ZT_TELEMETRY`-style values; anything unrecognized is `Off`.
    pub fn parse(s: &str) -> Mode {
        match s.trim().to_ascii_lowercase().as_str() {
            "summary" | "report" | "1" => Mode::Summary,
            "trace" | "full" | "2" => Mode::Trace,
            _ => Mode::Off,
        }
    }
}

const MODE_OFF: u8 = 0;
const MODE_SUMMARY: u8 = 1;
const MODE_TRACE: u8 = 2;
const MODE_UNINIT: u8 = 255;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

/// Event-log cap: a runaway loop stops appending (and counts drops)
/// instead of exhausting memory. 1M events ≈ tens of MB.
const MAX_EVENTS: usize = 1 << 20;
/// Per-histogram sample cap, same rationale.
const MAX_HIST_SAMPLES: usize = 1 << 20;

static DROPPED_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Current mode; reads `ZT_TELEMETRY` on first use.
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        MODE_OFF => Mode::Off,
        MODE_SUMMARY => Mode::Summary,
        MODE_TRACE => Mode::Trace,
        _ => {
            let m = std::env::var("ZT_TELEMETRY").map_or(Mode::Off, |v| Mode::parse(&v));
            set_mode(m);
            m
        }
    }
}

/// Set the global mode explicitly (tests, CLI plumbing).
pub fn set_mode(m: Mode) {
    let v = match m {
        Mode::Off => MODE_OFF,
        Mode::Summary => MODE_SUMMARY,
        Mode::Trace => MODE_TRACE,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// Re-read `ZT_TELEMETRY` even if the mode was already initialized —
/// call after `std::env::set_var` in CLI front-ends.
pub fn init_from_env() {
    let m = std::env::var("ZT_TELEMETRY").map_or(Mode::Off, |v| Mode::parse(&v));
    set_mode(m);
}

/// True unless the mode is [`Mode::Off`].
pub fn enabled() -> bool {
    mode() != Mode::Off
}

/// One begin/end record in the trace event log.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    pub name: &'static str,
    /// Optional argument attached to a begin event (e.g. a shard index).
    pub arg: Option<String>,
    /// Dense per-thread id (0 = first thread to record).
    pub tid: usize,
    /// Microseconds since the registry epoch.
    pub ts_us: u64,
    /// `true` for begin (`B`), `false` for end (`E`).
    pub begin: bool,
}

/// Process-global telemetry sink.
struct Registry {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    hists: Mutex<BTreeMap<&'static str, Summary>>,
    /// Wall-clock per span *path* (e.g. `tune/tune.score`), in ms.
    span_durations: Mutex<BTreeMap<String, Summary>>,
    next_tid: AtomicUsize,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        epoch: Instant::now(),
        events: Mutex::new(Vec::new()),
        counters: Mutex::new(BTreeMap::new()),
        hists: Mutex::new(BTreeMap::new()),
        span_durations: Mutex::new(BTreeMap::new()),
        next_tid: AtomicUsize::new(0),
    })
}

thread_local! {
    /// Names of the spans currently open on this thread (innermost last).
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// Dense thread id, assigned on first telemetry activity.
    static TID: RefCell<Option<usize>> = const { RefCell::new(None) };
}

fn thread_id() -> usize {
    TID.with(|t| {
        let mut t = t.borrow_mut();
        *t.get_or_insert_with(|| registry().next_tid.fetch_add(1, Ordering::Relaxed))
    })
}

fn push_event(name: &'static str, arg: Option<String>, begin: bool) {
    let reg = registry();
    let ts_us = u64::try_from(reg.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
    let tid = thread_id();
    let mut events = reg.events.lock().expect("telemetry events lock");
    if events.len() >= MAX_EVENTS {
        DROPPED_EVENTS.fetch_add(1, Ordering::Relaxed);
        return;
    }
    events.push(TraceEvent {
        name,
        arg,
        tid,
        ts_us,
        begin,
    });
}

/// RAII span: created by [`span`] / [`span_arg`], records its wall-clock
/// duration (and begin/end trace events in [`Mode::Trace`]) on drop.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    path: String,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let elapsed_ms = active.start.elapsed().as_secs_f64() * 1e3;
        let reg = registry();
        reg.span_durations
            .lock()
            .expect("telemetry span lock")
            .entry(active.path)
            .or_default()
            .add(elapsed_ms);
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        if mode() == Mode::Trace {
            // `name` is irrelevant for an end event; reuse is fine.
            push_event("", None, false);
        }
    }
}

/// Open a span named `name` over the enclosing scope. Off mode returns an
/// inert guard (one atomic load, no allocation).
pub fn span(name: &'static str) -> SpanGuard {
    span_impl(name, None)
}

/// Like [`span`], but attaches an argument (shard index, epoch number…)
/// to the begin event. The closure only runs when telemetry is enabled,
/// so formatting costs nothing in Off mode.
pub fn span_arg(name: &'static str, arg: impl FnOnce() -> String) -> SpanGuard {
    if mode() == Mode::Off {
        return SpanGuard { active: None };
    }
    span_impl_enabled(name, Some(arg()))
}

fn span_impl(name: &'static str, arg: Option<String>) -> SpanGuard {
    if mode() == Mode::Off {
        return SpanGuard { active: None };
    }
    span_impl_enabled(name, arg)
}

fn span_impl_enabled(name: &'static str, arg: Option<String>) -> SpanGuard {
    let path = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        stack.push(name);
        stack.join("/")
    });
    if mode() == Mode::Trace {
        push_event(name, arg, true);
    }
    SpanGuard {
        active: Some(ActiveSpan {
            path,
            start: Instant::now(),
        }),
    }
}

/// Add `delta` to the named counter. No-op in Off mode.
pub fn counter_add(name: &'static str, delta: u64) {
    if mode() == Mode::Off {
        return;
    }
    *registry()
        .counters
        .lock()
        .expect("telemetry counters lock")
        .entry(name)
        .or_insert(0) += delta;
}

/// Record one sample into the named histogram. No-op in Off mode.
pub fn observe(name: &'static str, value: f64) {
    if mode() == Mode::Off {
        return;
    }
    let mut hists = registry().hists.lock().expect("telemetry hists lock");
    let h = hists.entry(name).or_default();
    if h.len() < MAX_HIST_SAMPLES {
        h.add(value);
    }
}

/// Clear all recorded data (events, counters, histograms, durations).
/// Call at a quiescent point — open spans keep their begin events only
/// until the reset, so resetting mid-span orphans them.
pub fn reset() {
    let reg = registry();
    reg.events.lock().expect("telemetry events lock").clear();
    reg.counters
        .lock()
        .expect("telemetry counters lock")
        .clear();
    reg.hists.lock().expect("telemetry hists lock").clear();
    reg.span_durations
        .lock()
        .expect("telemetry span lock")
        .clear();
    DROPPED_EVENTS.store(0, Ordering::Relaxed);
}

/// Immutable copy of everything recorded so far.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Begin/end log in append order ([`Mode::Trace`] only).
    pub events: Vec<TraceEvent>,
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, Summary>,
    /// Wall-clock summaries per span path, in milliseconds.
    pub span_durations: BTreeMap<String, Summary>,
    /// Events discarded after the in-memory cap was hit.
    pub dropped_events: u64,
}

/// Snapshot the global registry.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    Snapshot {
        events: reg.events.lock().expect("telemetry events lock").clone(),
        counters: reg
            .counters
            .lock()
            .expect("telemetry counters lock")
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect(),
        histograms: reg
            .hists
            .lock()
            .expect("telemetry hists lock")
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect(),
        span_durations: reg
            .span_durations
            .lock()
            .expect("telemetry span lock")
            .clone(),
        dropped_events: DROPPED_EVENTS.load(Ordering::Relaxed),
    }
}

impl Snapshot {
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.counters.is_empty()
            && self.histograms.is_empty()
            && self.span_durations.is_empty()
    }

    /// Every span instance as a `/`-joined path (begin events replayed
    /// per thread), sorted. A begin argument shows as a `[arg]` suffix on
    /// its own path segment.
    pub fn span_paths(&self) -> Vec<String> {
        let mut stacks: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
        let mut paths = Vec::new();
        for e in &self.events {
            let stack = stacks.entry(e.tid).or_default();
            if e.begin {
                stack.push(e.name);
                let mut p = stack.join("/");
                if let Some(a) = &e.arg {
                    p.push_str(&format!("[{a}]"));
                }
                paths.push(p);
            } else {
                stack.pop();
            }
        }
        paths.sort();
        paths
    }

    /// Deterministic text form for golden-trace comparisons: sorted span
    /// paths, counter values, and histogram names with sample *counts* —
    /// everything except wall-clock durations/timestamps. Counters that
    /// *are* durations (`_ms`-suffixed names, e.g. `tune.bound_ms`)
    /// appear by name only, their wall-clock value elided.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for p in self.span_paths() {
            let _ = writeln!(out, "span {p}");
        }
        for (k, v) in &self.counters {
            if k.ends_with("_ms") {
                let _ = writeln!(out, "counter {k}");
                continue;
            }
            let _ = writeln!(out, "counter {k} = {v}");
        }
        for (k, s) in &self.histograms {
            let _ = writeln!(out, "hist {k} n={}", s.len());
        }
        out
    }

    /// Chrome-trace JSON (see [`chrome`]).
    pub fn chrome_trace_json(&self) -> String {
        self.chrome_trace().to_json()
    }

    /// Human-readable end-of-run report (see [`report`]).
    pub fn summary_report(&self) -> String {
        report::render(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests touching it serialize here.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(Mode::parse("off"), Mode::Off);
        assert_eq!(Mode::parse(""), Mode::Off);
        assert_eq!(Mode::parse("nonsense"), Mode::Off);
        assert_eq!(Mode::parse("summary"), Mode::Summary);
        assert_eq!(Mode::parse("TRACE"), Mode::Trace);
        assert_eq!(Mode::parse(" trace "), Mode::Trace);
    }

    #[test]
    fn off_mode_records_nothing() {
        let _l = lock();
        set_mode(Mode::Off);
        reset();
        {
            let _s = span("off.span");
            counter_add("off.counter", 3);
            observe("off.hist", 1.0);
        }
        assert!(snapshot().is_empty());
    }

    #[test]
    fn summary_mode_skips_the_event_log() {
        let _l = lock();
        set_mode(Mode::Summary);
        reset();
        {
            let _s = span("sum.span");
            counter_add("sum.counter", 2);
        }
        let snap = snapshot();
        set_mode(Mode::Off);
        assert!(snap.events.is_empty());
        assert_eq!(snap.counters.get("sum.counter"), Some(&2));
        assert_eq!(snap.span_durations["sum.span"].len(), 1);
    }

    #[test]
    fn nested_spans_build_slash_paths() {
        let _l = lock();
        set_mode(Mode::Trace);
        reset();
        {
            let _a = span("outer");
            {
                let _b = span_arg("inner", || "7".to_string());
            }
            {
                let _c = span("inner2");
            }
        }
        let snap = snapshot();
        set_mode(Mode::Off);
        assert_eq!(
            snap.span_paths(),
            vec![
                "outer".to_string(),
                "outer/inner2".to_string(),
                "outer/inner[7]".to_string()
            ]
        );
        // durations keyed by path, one sample each
        assert_eq!(snap.span_durations["outer/inner"].len(), 1);
        assert_eq!(snap.span_durations["outer"].len(), 1);
    }

    #[test]
    fn spans_on_scoped_threads_report_into_one_sink() {
        let _l = lock();
        set_mode(Mode::Trace);
        reset();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let _s = span("worker.task");
                    counter_add("worker.items", 1);
                });
            }
        });
        let snap = snapshot();
        set_mode(Mode::Off);
        assert_eq!(snap.counters["worker.items"], 3);
        let paths = snap.span_paths();
        assert_eq!(paths, vec!["worker.task"; 3]);
    }

    #[test]
    fn canonical_ignores_durations() {
        let _l = lock();
        set_mode(Mode::Trace);
        reset();
        {
            let _s = span("c.span");
            counter_add("c.counter", 5);
            counter_add("c.elapsed_ms", 17);
            observe("c.hist", 123.456);
        }
        let canon = snapshot().canonical();
        set_mode(Mode::Off);
        assert_eq!(
            canon,
            "span c.span\ncounter c.counter = 5\ncounter c.elapsed_ms\nhist c.hist n=1\n"
        );
    }

    #[test]
    fn histograms_route_through_summary() {
        let _l = lock();
        set_mode(Mode::Summary);
        reset();
        for v in [1.0, 2.0, 3.0] {
            observe("h.route", v);
        }
        let snap = snapshot();
        set_mode(Mode::Off);
        let h = &snap.histograms["h.route"];
        assert_eq!(h.len(), 3);
        assert_eq!(h.mean(), 2.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 3.0);
    }
}
