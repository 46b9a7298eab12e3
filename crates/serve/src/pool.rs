//! Batched parallel execution: a worker pool that drains a batch with
//! work stealing.
//!
//! Items are dealt round-robin onto per-worker deques; a worker pops its
//! own queue from the front and, when empty, steals from the back of its
//! siblings' queues — cheap load balancing for skewed batches where a few
//! giant queries would otherwise idle most workers. All threads are scoped
//! (`std::thread::scope`, nothing outlives the batch), and the crate is
//! `#![forbid(unsafe_code)]`, so the borrow checker vouches for the pool.
//!
//! The pool knows nothing about queries or the cache: `Server::execute_batch`
//! hands it `Server::execute` per request, so batch and single requests
//! share one cache-fronted path. Two workers racing on the same (rare)
//! duplicate query may both compute it — a benign stampede that keeps the
//! hot path lock-free between cache segments.

use fsi_obs::Histogram;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A fixed-width worker pool for batch execution.
#[derive(Debug, Clone)]
pub struct QueryPool {
    workers: usize,
}

/// The product of one generic [`QueryPool::run_indexed`] run: positional
/// per-item results with their service times, the per-worker deal depths,
/// per-worker executed counts, and the merged per-item latency histogram.
pub(crate) struct IndexedRun<T> {
    /// `(f(i), service time of f(i))`, positionally parallel to `0..n`.
    pub items: Vec<(T, Duration)>,
    /// Items dealt to each worker's queue (round-robin).
    pub queue_depths: Vec<usize>,
    /// Items each worker actually completed (difference from
    /// `queue_depths` is work stealing).
    pub executed_per_worker: Vec<usize>,
    /// Merged per-item service-time histogram (nanosecond samples).
    pub hist: Histogram,
}

/// One worker's haul from a [`QueryPool::run_indexed`] run: the
/// `(index, item, service time)` triples it completed plus its local
/// latency histogram, merged after join.
type WorkerHaul<T> = (Vec<(usize, T, Duration)>, Histogram);

impl QueryPool {
    /// A pool of `workers` threads (normalized up to 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Number of worker threads per batch.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The one batch scheduler: runs `f(0..n)` across the pool —
    /// round-robin dealt, work-stealing — and returns positional results
    /// with per-item service times. Single-worker pools and trivial runs
    /// stay on the calling thread.
    pub(crate) fn run_indexed<T, F>(&self, n: usize, f: F) -> IndexedRun<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.workers == 1 || n <= 1 {
            let hist = Histogram::new();
            let items = (0..n)
                .map(|i| {
                    let start = Instant::now();
                    let item = f(i);
                    let latency = start.elapsed();
                    hist.record_duration(latency);
                    (item, latency)
                })
                .collect();
            return IndexedRun {
                items,
                queue_depths: vec![n],
                executed_per_worker: vec![n],
                hist,
            };
        }
        let workers = self.workers.min(n).max(1);
        // Deal item indices round-robin onto per-worker deques.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w..n).step_by(workers).collect()))
            .collect();
        let queue_depths: Vec<usize> = queues
            .iter()
            // audit:allow(hot_path_panic): mutex poisoning means a worker already panicked; propagate rather than limp on
            .map(|q| q.lock().expect("queue lock").len())
            .collect();
        let queues = &queues;
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        // One histogram per worker: recording stays
                        // lock-free and contention-free; the pool merges
                        // after the batch (bucket merge is associative, so
                        // any merge order gives the same distribution).
                        let hist = Histogram::new();
                        let mut done: Vec<(usize, T, Duration)> = Vec::new();
                        loop {
                            // Own queue first (front), then steal (back).
                            // The own-queue guard must drop before any
                            // steal attempt locks a sibling queue:
                            // holding it across the steal is an AB-BA
                            // deadlock when two drained workers steal
                            // from each other.
                            // audit:allow(hot_path_panic): mutex poisoning means a worker already panicked; propagate rather than limp on
                            let own = queues[w].lock().expect("queue lock").pop_front();
                            let next = own.or_else(|| {
                                (1..workers).find_map(|offset| {
                                    queues[(w + offset) % workers]
                                        .lock()
                                        // audit:allow(hot_path_panic): mutex poisoning means a worker already panicked; propagate rather than limp on
                                        .expect("queue lock")
                                        .pop_back()
                                })
                            });
                            let Some(idx) = next else { break };
                            let start = Instant::now();
                            let item = f(idx);
                            let latency = start.elapsed();
                            hist.record_duration(latency);
                            done.push((idx, item, latency));
                        }
                        (done, hist)
                    })
                })
                .collect();
            let per_worker: Vec<WorkerHaul<T>> = handles
                .into_iter()
                // audit:allow(hot_path_panic): a panicked worker must fail the whole batch, not vanish silently
                .map(|h| h.join().expect("worker panicked"))
                .collect();
            let executed: Vec<usize> = per_worker.iter().map(|(d, _)| d.len()).collect();
            let merged = Histogram::new();
            for (_, h) in &per_worker {
                merged.merge_from(h);
            }
            // Reassemble positionally: every index was dealt exactly once,
            // so every slot fills exactly once.
            let mut slots: Vec<Option<(T, Duration)>> = (0..n).map(|_| None).collect();
            for (done, _) in per_worker {
                for (idx, item, latency) in done {
                    if let Some(slot) = slots.get_mut(idx) {
                        *slot = Some((item, latency));
                    }
                }
            }
            let items: Vec<(T, Duration)> = slots.into_iter().flatten().collect();
            assert_eq!(items.len(), n, "every dealt index completes exactly once");
            IndexedRun {
                items,
                queue_depths,
                executed_per_worker: executed,
                hist: merged,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    //! The pool's only caller is `Server::execute_batch`, so the pool is
    //! driven through it: batch results, scheduling statistics and the
    //! cache front all come back on the `BatchResponse`.

    use crate::{CacheOutcome, ExecMode, Request, ServeConfig, Server};
    use fsi_core::HashContext;
    use fsi_index::{Corpus, CorpusConfig, Strategy};

    fn server(shards: usize, workers: usize, cache_capacity: usize) -> Server {
        let corpus = Corpus::generate(CorpusConfig {
            num_docs: 20_000,
            num_terms: 32,
            ..CorpusConfig::default()
        });
        Server::from_corpus(
            HashContext::new(5),
            corpus,
            ServeConfig {
                num_shards: shards,
                num_workers: workers,
                cache_capacity,
                mode: ExecMode::Fixed(Strategy::RanGroupScan { m: 2 }),
            },
        )
    }

    fn batch() -> Vec<Vec<usize>> {
        (0..40)
            .map(|i| vec![i % 8, (i + 3) % 16, (i * 5 + 1) % 32])
            .collect()
    }

    fn requests(queries: &[Vec<usize>]) -> Vec<Request> {
        queries.iter().cloned().map(Request::terms).collect()
    }

    fn docs(out: &crate::BatchResponse) -> Vec<Vec<u32>> {
        out.responses
            .iter()
            .map(|r| r.as_ref().expect("valid").docs.to_vec())
            .collect()
    }

    #[test]
    fn batch_results_match_direct_queries() {
        let queries = batch();
        for workers in [1usize, 2, 4] {
            let s = server(3, workers, 0);
            let outcome = s.execute_batch(&requests(&queries));
            assert_eq!(outcome.responses.len(), queries.len());
            for (q, r) in queries.iter().zip(docs(&outcome)) {
                assert_eq!(r, s.engine().query(q), "workers={workers} q={q:?}");
            }
            assert_eq!(outcome.latency.count, queries.len());
            assert!(outcome.throughput_qps > 0.0);
        }
    }

    #[test]
    fn cache_front_serves_repeats() {
        let s = server(2, 4, 128);
        let queries: Vec<Vec<usize>> = (0..30).map(|i| vec![i % 3, 10 + i % 2]).collect();
        let first = s.execute_batch(&requests(&queries));
        // 6 distinct term sets; every request of the second pass hits.
        let second = s.execute_batch(&requests(&queries));
        assert!(second
            .responses
            .iter()
            .all(|r| r.as_ref().expect("valid").cache == CacheOutcome::Hit));
        assert_eq!(docs(&first), docs(&second));
        assert!(s.cache().stats().hit_rate() > 0.5);
    }

    #[test]
    fn cached_results_equal_uncached() {
        let queries = requests(&batch());
        let cached = server(3, 3, 64);
        let warm = cached.execute_batch(&queries);
        let hot = cached.execute_batch(&queries);
        let cold = server(3, 3, 0).execute_batch(&queries);
        assert_eq!(docs(&warm), docs(&hot));
        assert_eq!(docs(&warm), docs(&cold));
    }

    #[test]
    fn queue_depths_and_executed_counts_cover_the_batch() {
        let queries = requests(&batch());
        for workers in [1usize, 3, 4] {
            let outcome = server(2, workers, 0).execute_batch(&queries);
            let used = workers.min(queries.len());
            assert_eq!(outcome.queue_depths.len(), used, "workers={workers}");
            assert_eq!(outcome.executed_per_worker.len(), used);
            assert_eq!(outcome.queue_depths.iter().sum::<usize>(), queries.len());
            assert_eq!(
                outcome.executed_per_worker.iter().sum::<usize>(),
                queries.len()
            );
            // Round-robin deal: initial depths differ by at most one.
            let mn = *outcome.queue_depths.iter().min().expect("non-empty");
            let mx = *outcome.queue_depths.iter().max().expect("non-empty");
            assert!(
                mx - mn <= 1,
                "deal not round-robin: {:?}",
                outcome.queue_depths
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let outcome = server(2, 4, 0).execute_batch(&[]);
        assert!(outcome.responses.is_empty());
        assert_eq!(outcome.latency.count, 0);
    }

    #[test]
    fn rapid_tiny_batches_never_wedge() {
        // Regression: the steal path used to hold the worker's own queue
        // lock while locking siblings, deadlocking two simultaneously
        // drained workers. Many tiny batches maximize simultaneous drains.
        let s = server(2, 2, 0);
        let queries = requests(&[vec![0usize, 1], vec![2, 3], vec![4, 5], vec![6, 7]]);
        for _ in 0..200 {
            let outcome = s.execute_batch(&queries);
            assert_eq!(outcome.responses.len(), 4);
        }
    }

    #[test]
    fn more_workers_than_queries_is_fine() {
        let s = server(2, 16, 0);
        let outcome = s.execute_batch(&requests(&[vec![0usize, 1], vec![2, 3]]));
        assert_eq!(outcome.responses.len(), 2);
        assert_eq!(docs(&outcome)[0], s.engine().query(&[0, 1]));
    }
}
