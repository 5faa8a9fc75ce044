//! Discrete-event, tuple-batch-level execution engine.
//!
//! While [`crate::analytical`] solves for steady-state metrics, this module
//! actually *executes* a parallel query plan: sources emit timestamped
//! tuple batches, filters drop tuples, count/time windows fill and fire,
//! joins maintain per-instance window state and emit matches, and every
//! task instance is a FIFO server whose service time comes from the same
//! [`CostModel`] as the analytical path. Exchanges route batches by the
//! edge's partitioning strategy and pay network delay when they cross
//! nodes.
//!
//! The engine is used to validate the analytical model (same inputs must
//! produce the same *orderings* and comparable magnitudes) and by the
//! examples. It is not meant to label 24k training queries — that is the
//! analytical path's job.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::Rng;
use zt_query::{OpId, OperatorKind, ParallelQueryPlan, Partitioning, PlanIr};

use crate::cluster::Cluster;
use crate::costmodel::CostModel;
use crate::metrics::Summary;
use crate::placement::{place_with, ChainingMode, Deployment};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    pub cost: CostModel,
    pub chaining: ChainingMode,
    /// Simulated wall-clock horizon, seconds.
    pub horizon_secs: f64,
    /// Fraction of the horizon discarded as warm-up.
    pub warmup_fraction: f64,
    /// Target number of source-emission events per source instance over
    /// the horizon; batches are sized to hit it (bounds the event count
    /// for very fast sources).
    pub target_emissions: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cost: CostModel::default(),
            chaining: ChainingMode::Auto,
            horizon_secs: 5.0,
            warmup_fraction: 0.2,
            target_emissions: 2_000,
        }
    }
}

/// Empirical measurement produced by [`run`].
#[derive(Clone, Debug)]
pub struct EngineMetrics {
    /// Mean end-to-end latency of tuples reaching any sink, ms.
    pub latency_mean_ms: f64,
    /// Median end-to-end latency, ms.
    pub latency_p50_ms: f64,
    /// 95th-percentile latency, ms.
    pub latency_p95_ms: f64,
    /// Tuples/s ingested by the sources during the measured interval.
    pub source_throughput: f64,
    /// Tuples/s arriving at all sinks during the measured interval.
    pub sink_rate: f64,
    /// Number of sink-side latency samples (all sinks pooled).
    pub samples: usize,
    /// Per-sink breakdown, one entry per [`PlanIr::sinks`] element in
    /// sink-id order. Single-sink plans get a one-element vector whose
    /// aggregates match the headline fields.
    pub per_sink: Vec<SinkMetrics>,
}

/// Per-sink slice of the engine measurement.
#[derive(Clone, Debug)]
pub struct SinkMetrics {
    /// The sink operator.
    pub op: OpId,
    /// Mean end-to-end latency of tuples reaching this sink, ms.
    pub latency_mean_ms: f64,
    /// Tuples/s arriving at this sink during the measured interval.
    pub sink_rate: f64,
    /// Latency samples recorded at this sink.
    pub samples: usize,
}

/// A batch of tuples sharing a creation timestamp.
#[derive(Clone, Debug)]
struct Batch {
    /// Number of tuples in the batch (fractional counts are resolved
    /// probabilistically at the operator that shrinks them).
    count: f64,
    /// Source emission time of the oldest tuple, seconds.
    created: f64,
}

#[derive(Debug)]
enum EventKind {
    /// A source instance emits its next batch.
    SourceEmit { op: OpId, instance: usize },
    /// A batch arrives at an instance's input queue.
    Arrival {
        op: OpId,
        instance: usize,
        batch: Batch,
    },
    /// An instance finished its current service.
    ServiceDone { op: OpId, instance: usize },
    /// A time-based window fires on an instance.
    WindowTimer { op: OpId, instance: usize },
}

struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap by (time, seq)
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Join window state of one instance: one buffer per input side.
#[derive(Default, Clone)]
struct JoinState {
    /// (insertion time, tuple count) per side.
    left: Vec<(f64, f64)>,
    right: Vec<(f64, f64)>,
}

impl JoinState {
    fn prune_count(buf: &mut Vec<(f64, f64)>, max_tuples: f64) {
        let mut total: f64 = buf.iter().map(|&(_, c)| c).sum();
        while total > max_tuples && !buf.is_empty() {
            let (_, c) = buf.remove(0);
            total -= c;
        }
    }

    fn prune_time(buf: &mut Vec<(f64, f64)>, now: f64, horizon_secs: f64) {
        buf.retain(|&(t, _)| now - t <= horizon_secs);
    }

    fn total(buf: &[(f64, f64)]) -> f64 {
        buf.iter().map(|&(_, c)| c).sum()
    }
}

/// Window-aggregate state of one instance.
#[derive(Default, Clone)]
struct AggState {
    /// Accumulated tuple count since the last fire.
    pending: f64,
    /// Oldest pending creation timestamp.
    oldest: f64,
    has_pending: bool,
}

/// Per-instance runtime state.
struct InstanceState {
    queue: std::collections::VecDeque<Batch>,
    busy_until: f64,
    /// Current batch in service (routed downstream on completion).
    in_service: Option<Batch>,
    rr_counter: usize,
    agg: AggState,
    join: JoinState,
}

impl InstanceState {
    fn new() -> Self {
        InstanceState {
            queue: std::collections::VecDeque::new(),
            busy_until: 0.0,
            in_service: None,
            rr_counter: 0,
            agg: AggState::default(),
            join: JoinState::default(),
        }
    }
}

/// Run the plan for the configured horizon and measure latency/throughput.
pub fn run<R: Rng + ?Sized>(
    pqp: &ParallelQueryPlan,
    cluster: &Cluster,
    cfg: &EngineConfig,
    rng: &mut R,
) -> EngineMetrics {
    debug_assert!(pqp.validate().is_ok());
    let _span = zt_telemetry::span("engine.run");
    let plan = &pqp.plan;
    let ir = plan.validate().expect("run() requires a valid plan");
    let dep = place_with(pqp, &ir, cluster, cfg.chaining);
    let in_schemas = ir.input_schemas();
    let out_schemas = ir.output_schemas();
    let n_ops = plan.num_ops();

    // Per-op instance states. Only *effective* instances are scheduled:
    // under hash partitioning an operator with key cardinality K never
    // routes tuples to more than ceil(K) instances, so the surplus ones
    // would sit idle for the whole run.
    let mut states: Vec<Vec<InstanceState>> = plan
        .ops()
        .iter()
        .map(|op| {
            (0..pqp.effective_parallelism_of(op.id) as usize)
                .map(|_| InstanceState::new())
                .collect()
        })
        .collect();

    let mut heap: BinaryHeap<Event> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<Event>, seq: &mut u64, time: f64, kind: EventKind| {
        *seq += 1;
        heap.push(Event {
            time,
            seq: *seq,
            kind,
        });
    };

    // Source emission setup: batch sizes bound the event count.
    let mut batch_of: Vec<f64> = vec![1.0; n_ops];
    for &s in ir.sources() {
        if let OperatorKind::Source(src) = &plan.op(s).kind {
            let p = pqp.parallelism_of(s).max(1) as f64;
            let per_inst = src.event_rate / p;
            let total = per_inst * cfg.horizon_secs;
            batch_of[s.idx()] = (total / cfg.target_emissions as f64).max(1.0);
            for j in 0..pqp.parallelism_of(s) as usize {
                push(
                    &mut heap,
                    &mut seq,
                    rng.gen_range(0.0..batch_of[s.idx()] / per_inst.max(1e-12)),
                    EventKind::SourceEmit { op: s, instance: j },
                );
            }
        }
    }

    // Time-window timers.
    for op in plan.ops() {
        if let Some(w) = op.kind.window() {
            if w.policy == zt_query::WindowPolicy::Time && !matches!(op.kind, OperatorKind::Join(_))
            {
                let period = w.emission_period() / 1e3;
                for j in 0..pqp.effective_parallelism_of(op.id) as usize {
                    push(
                        &mut heap,
                        &mut seq,
                        period,
                        EventKind::WindowTimer {
                            op: op.id,
                            instance: j,
                        },
                    );
                }
            }
        }
    }

    let warmup = cfg.horizon_secs * cfg.warmup_fraction;
    let mut sink_latencies = Summary::new();
    let mut sink_tuples = 0f64;
    let mut source_tuples = 0f64;
    // Per-sink accumulators, indexed by position in `ir.sinks()`.
    let mut sink_index = vec![usize::MAX; n_ops];
    for (k, &s) in ir.sinks().iter().enumerate() {
        sink_index[s.idx()] = k;
    }
    let mut per_sink_latencies: Vec<Summary> = ir.sinks().iter().map(|_| Summary::new()).collect();
    let mut per_sink_tuples = vec![0f64; ir.sinks().len()];

    // Helper: route a batch over each out-edge of `from`. CSR out-lists
    // preserve edge-insertion order, so the event sequence (and therefore
    // the seeded RNG stream) is identical to the old whole-edge-list scan.
    #[allow(clippy::too_many_arguments)]
    fn route<R2: Rng + ?Sized>(
        heap: &mut BinaryHeap<Event>,
        seq: &mut u64,
        pqp: &ParallelQueryPlan,
        ir: &PlanIr,
        dep: &Deployment,
        cluster: &Cluster,
        cm: &CostModel,
        schema_bytes_edge: &[f64],
        from: OpId,
        from_instance: usize,
        rr: &mut usize,
        now: f64,
        batch: Batch,
        rng: &mut R2,
    ) {
        for (&d, &e) in ir.downstream(from).iter().zip(ir.downstream_edges(from)) {
            let e = e as usize;
            let pd = pqp.effective_parallelism_of(d) as usize;
            let target = match pqp.partitioning[e] {
                Partitioning::Forward => from_instance % pd,
                Partitioning::Rebalance => {
                    *rr += 1;
                    (*rr) % pd
                }
                Partitioning::Hash => rng.gen_range(0..pd),
            };
            let src_node = dep.instance_nodes(from)
                [from_instance.min(dep.instance_nodes(from).len().saturating_sub(1))];
            let dst_node =
                dep.instance_nodes(d)[target.min(dep.instance_nodes(d).len().saturating_sub(1))];
            let mut delay = 1e-6;
            if !dep.edge_exchange[e].is_chained() {
                let ghz = cluster.nodes[src_node].cpu_ghz;
                delay += 2.0 * cm.ser_base_us / ghz * 1e-6;
                if src_node != dst_node {
                    let link = cluster.nodes[src_node].network_gbps;
                    delay += cm.net_hop_ms * 1e-3 + schema_bytes_edge[e] * 8.0 / (link * 1e9);
                }
            }
            *seq += 1;
            heap.push(Event {
                time: now + delay,
                seq: *seq,
                kind: EventKind::Arrival {
                    op: d,
                    instance: target,
                    batch: batch.clone(),
                },
            });
        }
    }

    let schema_bytes_edge: Vec<f64> = plan
        .edges()
        .iter()
        .map(|&(u, _)| out_schemas[u.idx()].bytes() as f64)
        .collect();

    // Probabilistic rounding of fractional tuple counts.
    fn round_count<R2: Rng + ?Sized>(c: f64, rng: &mut R2) -> f64 {
        let floor = c.floor();
        if rng.gen_bool((c - floor).clamp(0.0, 1.0)) {
            floor + 1.0
        } else {
            floor
        }
    }

    // Apply an operator's semantics to an in-service batch, producing the
    // batch to forward (if any).
    #[allow(clippy::too_many_arguments)]
    fn apply_op<R2: Rng + ?Sized>(
        kind: &OperatorKind,
        state: &mut InstanceState,
        batch: &Batch,
        now: f64,
        rng: &mut R2,
    ) -> Option<Batch> {
        match kind {
            OperatorKind::Source(_) | OperatorKind::Sink(_) => Some(batch.clone()),
            OperatorKind::Filter(f) => {
                let out = round_count(batch.count * f.selectivity, rng);
                (out > 0.0).then_some(Batch {
                    count: out,
                    created: batch.created,
                })
            }
            OperatorKind::Aggregate(a) => {
                if !state.agg.has_pending {
                    state.agg.oldest = batch.created;
                    state.agg.has_pending = true;
                }
                state.agg.pending += batch.count;
                match a.window.policy {
                    zt_query::WindowPolicy::Count => {
                        let fire_at = a.window.emission_period();
                        if state.agg.pending >= fire_at {
                            let windows = (state.agg.pending / fire_at).floor();
                            let groups =
                                round_count(a.selectivity * a.window.length * windows, rng)
                                    .max(1.0);
                            let created = state.agg.oldest;
                            state.agg.pending -= windows * fire_at;
                            state.agg.has_pending = state.agg.pending > 0.0;
                            state.agg.oldest = now;
                            Some(Batch {
                                count: groups,
                                created,
                            })
                        } else {
                            None
                        }
                    }
                    // time windows fire on timer events, not per batch
                    zt_query::WindowPolicy::Time => None,
                }
            }
            OperatorKind::Join(_) => {
                // handled in the arrival path (needs to know the side)
                Some(batch.clone())
            }
        }
    }

    let cm = &cfg.cost;
    let mut now = 0.0f64;
    let mut events = 0u64;
    let max_events = 5_000_000u64;

    while let Some(ev) = heap.pop() {
        now = ev.time;
        if now > cfg.horizon_secs {
            break;
        }
        events += 1;
        if events > max_events {
            break;
        }
        match ev.kind {
            EventKind::SourceEmit { op, instance } => {
                if let OperatorKind::Source(src) = &plan.op(op).kind {
                    let p = pqp.parallelism_of(op).max(1) as f64;
                    let per_inst = src.event_rate / p;
                    let b = batch_of[op.idx()];
                    if now >= warmup {
                        source_tuples += b;
                    }
                    let batch = Batch {
                        count: b,
                        created: now,
                    };
                    let rr = &mut states[op.idx()][instance].rr_counter;
                    route(
                        &mut heap,
                        &mut seq,
                        pqp,
                        &ir,
                        &dep,
                        cluster,
                        cm,
                        &schema_bytes_edge,
                        op,
                        instance,
                        rr,
                        now,
                        batch,
                        rng,
                    );
                    push(
                        &mut heap,
                        &mut seq,
                        now + b / per_inst.max(1e-12),
                        EventKind::SourceEmit { op, instance },
                    );
                }
            }
            EventKind::Arrival {
                op,
                instance,
                batch,
            } => {
                let i = op.idx();
                if plan.op(op).kind.is_sink() {
                    if now >= warmup {
                        sink_tuples += batch.count;
                        sink_latencies.add((now - batch.created) * 1e3);
                        let k = sink_index[i];
                        per_sink_tuples[k] += batch.count;
                        per_sink_latencies[k].add((now - batch.created) * 1e3);
                    }
                    continue;
                }
                // Joins record which side the batch came from by pushing
                // it straight into window state; matches are emitted after
                // service.
                let st = &mut states[i][instance];
                st.queue.push_back(batch);
                if st.in_service.is_none() {
                    // start service
                    let b = st.queue.pop_front().expect("just pushed");
                    let node = dep.instance_nodes(op)
                        [instance.min(dep.instance_nodes(op).len().saturating_sub(1))];
                    let ghz = cluster.nodes[node].cpu_ghz;
                    let other_w = match &plan.op(op).kind {
                        OperatorKind::Join(_) => {
                            JoinState::total(&st.join.left).max(JoinState::total(&st.join.right))
                        }
                        _ => 0.0,
                    };
                    let us = cm.service_us(
                        &plan.op(op).kind,
                        &in_schemas[i],
                        &out_schemas[i],
                        0.0,
                        other_w,
                    );
                    let service = b.count * us / ghz * 1e-6;
                    st.in_service = Some(b);
                    st.busy_until = now + service;
                    push(
                        &mut heap,
                        &mut seq,
                        now + service,
                        EventKind::ServiceDone { op, instance },
                    );
                }
            }
            EventKind::ServiceDone { op, instance } => {
                let i = op.idx();
                // Take what we need out of the state before routing.
                let (out, next_service): (Option<Batch>, Option<(Batch, f64)>);
                {
                    let st = &mut states[i][instance];
                    let batch = st.in_service.take().expect("service done without batch");
                    out = match &plan.op(op).kind {
                        OperatorKind::Join(j) => {
                            // Which side? Use alternating assignment keyed
                            // on the creation hash — sides are symmetric in
                            // our cost model; windows are pruned per spec.
                            let side_left = rng.gen_bool(0.5);
                            let (own, other) = if side_left {
                                (&mut st.join.left, &mut st.join.right)
                            } else {
                                (&mut st.join.right, &mut st.join.left)
                            };
                            own.push((now, batch.count));
                            let p = pqp.effective_parallelism_of(op).max(1) as f64;
                            match j.window.policy {
                                zt_query::WindowPolicy::Count => {
                                    JoinState::prune_count(own, j.window.length / p.sqrt());
                                    JoinState::prune_count(other, j.window.length / p.sqrt());
                                }
                                zt_query::WindowPolicy::Time => {
                                    let h = j.window.length / 1e3;
                                    JoinState::prune_time(own, now, h);
                                    JoinState::prune_time(other, now, h);
                                }
                            }
                            let matches = round_count(
                                j.selectivity * batch.count * JoinState::total(other),
                                rng,
                            );
                            (matches > 0.0).then_some(Batch {
                                count: matches,
                                created: batch.created,
                            })
                        }
                        kind => apply_op(kind, st, &batch, now, rng),
                    };
                    next_service = st.queue.pop_front().map(|b| {
                        let node = dep.instance_nodes(op)
                            [instance.min(dep.instance_nodes(op).len().saturating_sub(1))];
                        let ghz = cluster.nodes[node].cpu_ghz;
                        let other_w = match &plan.op(op).kind {
                            OperatorKind::Join(_) => JoinState::total(&st.join.left)
                                .max(JoinState::total(&st.join.right)),
                            _ => 0.0,
                        };
                        let us = cm.service_us(
                            &plan.op(op).kind,
                            &in_schemas[i],
                            &out_schemas[i],
                            0.0,
                            other_w,
                        );
                        (b, us / ghz * 1e-6)
                    });
                }
                if let Some(batch) = out {
                    let mut rr = states[i][instance].rr_counter;
                    route(
                        &mut heap,
                        &mut seq,
                        pqp,
                        &ir,
                        &dep,
                        cluster,
                        cm,
                        &schema_bytes_edge,
                        op,
                        instance,
                        &mut rr,
                        now,
                        batch,
                        rng,
                    );
                    states[i][instance].rr_counter = rr;
                }
                if let Some((b, per_tuple)) = next_service {
                    let service = b.count * per_tuple;
                    let st = &mut states[i][instance];
                    st.in_service = Some(b);
                    st.busy_until = now + service;
                    push(
                        &mut heap,
                        &mut seq,
                        now + service,
                        EventKind::ServiceDone { op, instance },
                    );
                }
            }
            EventKind::WindowTimer { op, instance } => {
                let i = op.idx();
                if let OperatorKind::Aggregate(a) = &plan.op(op).kind {
                    let (fire, created): (f64, f64);
                    {
                        let st = &mut states[i][instance];
                        let pending = st.agg.pending;
                        created = if st.agg.has_pending {
                            st.agg.oldest
                        } else {
                            now
                        };
                        // groups = sel × |W|
                        fire = if pending > 0.0 {
                            round_count(a.selectivity * pending * a.window.overlap_factor(), rng)
                                .max(1.0)
                        } else {
                            0.0
                        };
                        // tumbling clears everything; sliding keeps the
                        // overlap share
                        let keep = match a.window.window_type() {
                            zt_query::WindowType::Tumbling => 0.0,
                            zt_query::WindowType::Sliding => {
                                pending * (1.0 - 1.0 / a.window.overlap_factor())
                            }
                        };
                        st.agg.pending = keep;
                        st.agg.has_pending = keep > 0.0;
                        if st.agg.has_pending {
                            st.agg.oldest = now;
                        }
                    }
                    if fire > 0.0 {
                        let batch = Batch {
                            count: fire,
                            created,
                        };
                        let mut rr = states[i][instance].rr_counter;
                        route(
                            &mut heap,
                            &mut seq,
                            pqp,
                            &ir,
                            &dep,
                            cluster,
                            cm,
                            &schema_bytes_edge,
                            op,
                            instance,
                            &mut rr,
                            now,
                            batch,
                            rng,
                        );
                        states[i][instance].rr_counter = rr;
                    }
                    let period = a.window.emission_period() / 1e3;
                    push(
                        &mut heap,
                        &mut seq,
                        now + period,
                        EventKind::WindowTimer { op, instance },
                    );
                }
            }
        }
    }

    let measured = (now.min(cfg.horizon_secs) - warmup).max(1e-9);
    zt_telemetry::counter_add("engine.source_tuples", source_tuples as u64);
    zt_telemetry::counter_add("engine.sink_tuples", sink_tuples as u64);
    let per_sink = ir
        .sinks()
        .iter()
        .enumerate()
        .map(|(k, &s)| SinkMetrics {
            op: s,
            latency_mean_ms: per_sink_latencies[k].mean(),
            sink_rate: per_sink_tuples[k] / measured,
            samples: per_sink_latencies[k].len(),
        })
        .collect();
    EngineMetrics {
        latency_mean_ms: sink_latencies.mean(),
        latency_p50_ms: sink_latencies.median(),
        latency_p95_ms: sink_latencies.quantile(0.95),
        source_throughput: source_tuples / measured,
        sink_rate: sink_tuples / measured,
        samples: sink_latencies.len(),
        per_sink,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterType;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zt_query::operators::SinkOp;
    use zt_query::{
        AggFunction, AggregateOp, DataType, FilterFunction, FilterOp, LogicalPlan, SourceOp,
        TupleSchema, WindowPolicy, WindowSpec,
    };

    fn linear_pqp(rate: f64, p: u32, window_len: f64) -> ParallelQueryPlan {
        let mut plan = LogicalPlan::new("linear");
        let s = plan.add(OperatorKind::Source(SourceOp {
            event_rate: rate,
            schema: TupleSchema::uniform(DataType::Double, 3),
            key_cardinality: None,
        }));
        let f = plan.add(OperatorKind::Filter(FilterOp {
            function: FilterFunction::Gt,
            literal_class: DataType::Double,
            selectivity: 0.5,
        }));
        let a = plan.add(OperatorKind::Aggregate(AggregateOp {
            window: WindowSpec::tumbling(WindowPolicy::Count, window_len),
            function: AggFunction::Avg,
            agg_class: DataType::Double,
            key_class: Some(DataType::Int),
            selectivity: 0.2,
            key_cardinality: None,
        }));
        let k = plan.add(OperatorKind::Sink(SinkOp));
        plan.connect(s, f);
        plan.connect(f, a);
        plan.connect(a, k);
        ParallelQueryPlan::with_parallelism(plan, vec![p, p, p, p])
    }

    fn cluster() -> Cluster {
        Cluster::homogeneous(ClusterType::M510, 2, 10.0)
    }

    #[test]
    fn tuples_flow_to_the_sink() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = run(
            &linear_pqp(2_000.0, 2, 10.0),
            &cluster(),
            &EngineConfig::default(),
            &mut rng,
        );
        assert!(m.samples > 10, "samples = {}", m.samples);
        assert!(m.latency_mean_ms > 0.0);
        assert!(m.sink_rate > 0.0);
    }

    #[test]
    fn source_throughput_close_to_offered() {
        let mut rng = StdRng::seed_from_u64(2);
        let rate = 5_000.0;
        let m = run(
            &linear_pqp(rate, 2, 10.0),
            &cluster(),
            &EngineConfig::default(),
            &mut rng,
        );
        assert!(
            (m.source_throughput - rate).abs() / rate < 0.15,
            "throughput {} vs offered {rate}",
            m.source_throughput
        );
    }

    #[test]
    fn filter_and_window_reduce_sink_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let rate = 5_000.0;
        let m = run(
            &linear_pqp(rate, 2, 10.0),
            &cluster(),
            &EngineConfig::default(),
            &mut rng,
        );
        // filter keeps 50%, window emits sel×in = 10% of that
        let expected = rate * 0.5 * 0.2;
        assert!(
            m.sink_rate < rate * 0.5,
            "sink rate {} not reduced",
            m.sink_rate
        );
        assert!(
            (m.sink_rate - expected).abs() / expected < 0.5,
            "sink rate {} vs expected {expected}",
            m.sink_rate
        );
    }

    #[test]
    fn bigger_count_windows_mean_higher_latency() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = EngineConfig::default();
        let small = run(&linear_pqp(2_000.0, 2, 5.0), &cluster(), &cfg, &mut rng);
        let large = run(&linear_pqp(2_000.0, 2, 500.0), &cluster(), &cfg, &mut rng);
        assert!(
            large.latency_p50_ms > small.latency_p50_ms,
            "large {} vs small {}",
            large.latency_p50_ms,
            small.latency_p50_ms
        );
    }

    #[test]
    fn time_windows_fire() {
        let mut plan = LogicalPlan::new("time-window");
        let s = plan.add(OperatorKind::Source(SourceOp {
            event_rate: 1_000.0,
            schema: TupleSchema::uniform(DataType::Double, 2),
            key_cardinality: None,
        }));
        let a = plan.add(OperatorKind::Aggregate(AggregateOp {
            window: WindowSpec::tumbling(WindowPolicy::Time, 500.0),
            function: AggFunction::Sum,
            agg_class: DataType::Double,
            key_class: None,
            selectivity: 0.01,
            key_cardinality: None,
        }));
        let k = plan.add(OperatorKind::Sink(SinkOp));
        plan.connect(s, a);
        plan.connect(a, k);
        let pqp = ParallelQueryPlan::with_parallelism(plan, vec![1, 1, 1]);
        let mut rng = StdRng::seed_from_u64(5);
        let m = run(&pqp, &cluster(), &EngineConfig::default(), &mut rng);
        assert!(m.samples > 0);
        // one window firing every 500 ms per instance ≈ 2 results/s min
        assert!(m.sink_rate >= 1.0, "sink rate {}", m.sink_rate);
    }

    #[test]
    fn join_emits_matches() {
        use zt_query::JoinOp;
        let mut plan = LogicalPlan::new("join");
        let s1 = plan.add(OperatorKind::Source(SourceOp {
            event_rate: 2_000.0,
            schema: TupleSchema::uniform(DataType::Int, 2),
            key_cardinality: None,
        }));
        let s2 = plan.add(OperatorKind::Source(SourceOp {
            event_rate: 2_000.0,
            schema: TupleSchema::uniform(DataType::Int, 2),
            key_cardinality: None,
        }));
        let j = plan.add(OperatorKind::Join(JoinOp {
            window: WindowSpec::tumbling(WindowPolicy::Count, 100.0),
            key_class: DataType::Int,
            selectivity: 0.01,
            key_cardinality: None,
        }));
        let k = plan.add(OperatorKind::Sink(SinkOp));
        plan.connect(s1, j);
        plan.connect(s2, j);
        plan.connect(j, k);
        let pqp = ParallelQueryPlan::with_parallelism(plan, vec![1, 1, 2, 1]);
        let mut rng = StdRng::seed_from_u64(6);
        let m = run(&pqp, &cluster(), &EngineConfig::default(), &mut rng);
        assert!(m.sink_rate > 0.0, "join produced nothing");
        assert!(m.samples > 0);
    }

    #[test]
    fn multi_sink_plan_executes_and_reports_per_sink() {
        let plan = zt_query::benchmarks::smart_grid_combined(2_000.0);
        let n = plan.num_ops();
        let pqp = ParallelQueryPlan::with_parallelism(plan, vec![1; n]);
        let mut rng = StdRng::seed_from_u64(8);
        let m = run(&pqp, &cluster(), &EngineConfig::default(), &mut rng);
        assert_eq!(m.per_sink.len(), 2);
        assert!(m.samples > 0);
        // pooled counts are the sum of the per-sink slices
        let pooled: usize = m.per_sink.iter().map(|s| s.samples).sum();
        assert_eq!(pooled, m.samples);
        let rate: f64 = m.per_sink.iter().map(|s| s.sink_rate).sum();
        assert!((rate - m.sink_rate).abs() < 1e-9);
        // at least one branch delivered tuples
        assert!(m.per_sink.iter().any(|s| s.samples > 0));
    }

    #[test]
    fn single_sink_per_sink_slice_matches_headline() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = run(
            &linear_pqp(2_000.0, 2, 10.0),
            &cluster(),
            &EngineConfig::default(),
            &mut rng,
        );
        assert_eq!(m.per_sink.len(), 1);
        assert_eq!(m.per_sink[0].samples, m.samples);
        assert_eq!(m.per_sink[0].latency_mean_ms, m.latency_mean_ms);
        assert_eq!(m.per_sink[0].sink_rate, m.sink_rate);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = EngineConfig::default();
        let a = run(
            &linear_pqp(2_000.0, 2, 10.0),
            &cluster(),
            &cfg,
            &mut StdRng::seed_from_u64(7),
        );
        let b = run(
            &linear_pqp(2_000.0, 2, 10.0),
            &cluster(),
            &cfg,
            &mut StdRng::seed_from_u64(7),
        );
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.latency_mean_ms, b.latency_mean_ms);
    }
}
