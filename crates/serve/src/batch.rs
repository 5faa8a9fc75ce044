//! Cross-request micro-batching into `predict_batch`: submitters hand
//! over a [`GraphEncoding`]; one scorer thread drains whatever
//! accumulated — after a short coalescing window, up to `batch_max`
//! graphs — and scores it with **one** `predict_batch` call.
//!
//! The daemon does **not** use this module: at its request rates batches
//! averaged 1.0–1.3 graphs, so the window, clone and channel hop cost
//! more than the inference, and a `/predict` miss is scored inline on the
//! request worker instead. The batcher, its `serve.batch` span and
//! `serve.batch_size` histogram stay for the benchmark's batching replay.
//!
//! Grouping never changes a value (`predict_batch` is contractually
//! `graphs.iter().map(predict)`), and the scorer snapshots the registry
//! once per batch, so each result's version names the weights that
//! produced it — a hot-swap lands between batches, never inside one.

use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use zt_core::{CostEstimator, CostPrediction, GraphEncoding};

use crate::registry::ModelRegistry;

/// A prediction plus the model version whose weights produced it.
pub type ScoreResult = (CostPrediction, u64);

struct Item {
    graph: GraphEncoding,
    tx: mpsc::Sender<ScoreResult>,
}

struct State {
    queue: Vec<Item>,
    shutdown: bool,
}

/// Shared submission queue + the scorer loop that drains it.
pub struct MicroBatcher {
    state: Mutex<State>,
    cv: Condvar,
    batch_max: usize,
    wait: Duration,
}

impl MicroBatcher {
    pub fn new(batch_max: usize, batch_wait_us: u64) -> Self {
        MicroBatcher {
            state: Mutex::new(State {
                queue: Vec::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            batch_max: batch_max.max(1),
            wait: Duration::from_micros(batch_wait_us),
        }
    }

    /// Enqueue one encoding for scoring; the result arrives on the
    /// returned channel once the scorer processes the batch containing it.
    pub fn submit(&self, graph: GraphEncoding) -> mpsc::Receiver<ScoreResult> {
        let (tx, rx) = mpsc::channel();
        let mut st = self.state.lock().expect("batcher lock");
        st.queue.push(Item { graph, tx });
        self.cv.notify_all();
        rx
    }

    /// Tell the scorer to finish the remaining queue and exit. Called
    /// after the request workers have drained, so nothing new can arrive.
    pub fn shutdown(&self) {
        self.state.lock().expect("batcher lock").shutdown = true;
        self.cv.notify_all();
    }

    /// The scorer loop: runs until [`MicroBatcher::shutdown`] *and* an
    /// empty queue. One `predict_batch` per drained batch.
    pub fn run_scorer(&self, registry: &ModelRegistry) {
        loop {
            let batch: Vec<Item> = {
                let mut st = self.state.lock().expect("batcher lock");
                while st.queue.is_empty() && !st.shutdown {
                    st = self.cv.wait(st).expect("batcher lock");
                }
                if st.queue.is_empty() && st.shutdown {
                    return;
                }
                // Coalescing window: give concurrent handlers a beat to
                // pile on before the batch is cut.
                if st.queue.len() < self.batch_max && !st.shutdown {
                    let (guard, _timeout) =
                        self.cv.wait_timeout(st, self.wait).expect("batcher lock");
                    st = guard;
                }
                let take = st.queue.len().min(self.batch_max);
                st.queue.drain(..take).collect()
            };

            let snapshot = registry.current();
            let graphs: Vec<GraphEncoding> = batch.iter().map(|i| i.graph.clone()).collect();
            let _g = zt_telemetry::span("serve.batch");
            zt_telemetry::observe("serve.batch_size", batch.len() as f64);
            let preds = snapshot.model.predict_batch(&graphs);
            for (item, pred) in batch.into_iter().zip(preds) {
                // A dropped receiver just means the handler gave up
                // (client went away); the scorer carries on.
                let _ = item.tx.send((pred, snapshot.version));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zt_core::{encode, FeatureMask, ModelConfig, ZeroTuneModel};
    use zt_dspsim::ChainingMode;
    use zt_query::benchmarks::{smart_grid_local, spike_detection};
    use zt_query::ParallelQueryPlan;

    #[test]
    fn scorer_answers_every_submission_with_predict_batch_values() {
        let cluster = crate::server::default_cluster();
        let graphs: Vec<GraphEncoding> = [spike_detection(800.0), smart_grid_local(1200.0)]
            .into_iter()
            .map(|plan| {
                let pqp = ParallelQueryPlan::new(plan);
                encode(&pqp, &cluster, ChainingMode::Auto, &FeatureMask::all())
            })
            .collect();
        let model = ZeroTuneModel::new(ModelConfig::default());
        let expected = model.predict_batch(&graphs);
        let registry = ModelRegistry::new(model);
        let batcher = MicroBatcher::new(32, 50);

        let got: Vec<ScoreResult> = std::thread::scope(|s| {
            let scorer = s.spawn(|| batcher.run_scorer(&registry));
            let rxs: Vec<_> = graphs.iter().map(|g| batcher.submit(g.clone())).collect();
            let got = rxs
                .into_iter()
                .map(|rx| rx.recv().expect("scored"))
                .collect();
            batcher.shutdown();
            scorer.join().expect("scorer exits after shutdown");
            got
        });
        for ((pred, version), want) in got.iter().zip(&expected) {
            assert_eq!(*version, 1);
            assert_eq!(pred.latency_ms.to_bits(), want.latency_ms.to_bits());
            assert_eq!(pred.throughput.to_bits(), want.throughput.to_bits());
        }
    }
}
