//! In-memory spans recorded by the benchmark around its calls into the
//! program, written out once at exit as a Chrome trace.
//!
//! Each span has a name, a start and an end, an optional parent (an index
//! into the same trace) and the id of the request or call it belongs to.
//! A span's self time is its duration minus the part of it that its
//! children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

use crate::stats;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub id: u64,
}

/// A growing set of spans sharing one time origin.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Record a span and return its index, for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Close a span recorded before its end was known.
    pub fn set_end(&mut self, index: usize, end: Instant) {
        self.spans[index].end = end;
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6)
            .collect()
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Self time of every span in microseconds: duration minus the union
    /// of its children's intervals.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort();
                let mut covered = 0.0;
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor).min(s.end);
                    let b = b.min(s.end);
                    if b > a {
                        covered += (b - a).as_secs_f64();
                        cursor = b;
                    }
                }
                (s.end.saturating_duration_since(s.start).as_secs_f64() - covered).max(0.0) * 1e6
            })
            .collect()
    }

    /// Median self time per span name, in microseconds.
    pub fn self_time_p50_us(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_us()) {
            by_name.entry(s.name).or_default().push(t);
        }
        by_name
            .into_iter()
            .filter_map(|(k, v)| stats::median(&v).map(|m| (k, m)))
            .collect()
    }

    /// Chrome trace JSON: one async begin (`b`) and one end (`e`) event
    /// per span, keyed by the span's request id so overlapping requests
    /// stay apart.
    pub fn chrome_json(&self) -> String {
        let event = |name: &str, ph: &str, ts: f64, id: u64| {
            Value::Map(vec![
                ("name".into(), Value::Str(name.into())),
                ("cat".into(), Value::Str("zt_benchmark".into())),
                ("ph".into(), Value::Str(ph.into())),
                ("ts".into(), Value::Num((ts * 1e3).round() / 1e3)),
                ("pid".into(), Value::Num(1.0)),
                ("tid".into(), Value::Num(1.0)),
                ("id".into(), Value::Str(format!("0x{id:x}"))),
            ])
        };
        let mut events = Vec::with_capacity(self.spans.len() * 2);
        for s in &self.spans {
            events.push(event(s.name, "b", self.us(s.start), s.id));
            events.push(event(s.name, "e", self.us(s.end), s.id));
        }
        let doc = Value::Map(vec![
            ("traceEvents".into(), Value::Seq(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ]);
        serde_json::to_string(&doc).expect("trace renders")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_events_balance() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut trace = Trace::new(t0);
        let root = trace.push("request", at(0), at(100), None, 7);
        trace.push("connect", at(10), at(30), Some(root), 7);
        trace.push("wait", at(30), at(90), Some(root), 7);
        let self_us = trace.self_times_us();
        assert!((self_us[0] - 20.0).abs() < 1e-6, "{self_us:?}");
        assert!((self_us[2] - 60.0).abs() < 1e-6);
        let json = trace.chrome_json();
        assert_eq!(json.matches("\"ph\":\"b\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"e\"").count(), 3);
    }
}
