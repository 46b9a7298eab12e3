//! Differential correctness of the serving layer against the
//! single-threaded `Executor`:
//!
//! * for **every** strategy and shard counts 1/2/7, `ShardedEngine` returns
//!   byte-identical results;
//! * the cache hit path returns exactly what the miss path computed;
//! * concurrent batches over one shared server agree with serial queries.

use fast_set_intersection::index::{Corpus, CorpusConfig, SearchEngine, Strategy};
use fast_set_intersection::serve::{ExecMode, Request, ServeConfig, Server, ShardedEngine};
use fast_set_intersection::HashContext;
use fsi_index::Planner;

fn engine() -> SearchEngine {
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 12_000,
        num_terms: 40,
        ..CorpusConfig::default()
    });
    SearchEngine::from_corpus(HashContext::new(2011), corpus)
}

fn queries() -> Vec<Vec<usize>> {
    vec![
        vec![0, 1],
        vec![1, 2, 3],
        vec![0, 10, 20, 39],
        vec![35, 38],   // sparse tail terms
        vec![0, 39],    // most vs least frequent
        vec![7],        // single term
        vec![],         // empty query
        vec![4, 4, 12], // duplicate term
    ]
}

#[test]
fn every_strategy_and_shard_count_matches_executor() {
    let engine = engine();
    let queries = queries();
    for strategy in Strategy::full_lineup() {
        let reference = engine.executor(strategy);
        for shards in [1usize, 2, 7] {
            let sharded = ShardedEngine::build(&engine, shards, ExecMode::Fixed(strategy));
            for q in &queries {
                assert_eq!(
                    sharded.query(q),
                    reference.query(q),
                    "strategy {} shards {shards} q {q:?}",
                    strategy.name()
                );
            }
        }
    }
}

#[test]
fn planned_mode_matches_executor_across_shard_counts() {
    let engine = engine();
    let reference = engine.executor(Strategy::Merge);
    for shards in [1usize, 2, 7] {
        let sharded = ShardedEngine::build(&engine, shards, ExecMode::Planned(Planner::default()));
        for q in &queries() {
            assert_eq!(
                sharded.query(q),
                reference.query(q),
                "shards {shards} q {q:?}"
            );
        }
    }
}

#[test]
fn cache_hit_path_equals_miss_path() {
    let engine = engine();
    let reference = engine.executor(Strategy::RanGroupScan { m: 2 });
    let server = Server::new(
        &engine,
        ServeConfig {
            num_shards: 3,
            num_workers: 2,
            cache_capacity: 64,
            mode: ExecMode::Fixed(Strategy::RanGroupScan { m: 2 }),
        },
    );
    for q in &queries() {
        // Computed by the shards, then served by the cache.
        let miss = server.execute(&Request::terms(q.clone())).expect("valid");
        let hit = server.execute(&Request::terms(q.clone())).expect("valid");
        assert_eq!(miss.docs, hit.docs, "{q:?}");
        assert_eq!(hit.docs.as_slice(), reference.query(q), "{q:?}");
    }
    let stats = server.stats();
    assert_eq!(stats.cache.hits, queries().len() as u64);
}

#[test]
fn sharded_and_cached_batches_match_executor() {
    let engine = engine();
    let reference = engine.executor(Strategy::Lookup);
    let server = Server::new(
        &engine,
        ServeConfig {
            num_shards: 7,
            num_workers: 4,
            cache_capacity: 32, // small: forces evictions mid-batch
            mode: ExecMode::Fixed(Strategy::Lookup),
        },
    );
    let batch: Vec<Request> = (0..200)
        .map(|i| Request::terms(vec![i % 5, 5 + i % 7, 12 + i % 28]))
        .collect();
    let terms: Vec<Vec<usize>> = (0..200)
        .map(|i| vec![i % 5, 5 + i % 7, 12 + i % 28])
        .collect();
    for _round in 0..3 {
        let outcome = server.execute_batch(&batch);
        for (q, r) in terms.iter().zip(&outcome.responses) {
            let resp = r.as_ref().expect("valid");
            assert_eq!(resp.docs.as_slice(), reference.query(q), "{q:?}");
        }
    }
}

#[test]
fn concurrent_clients_smoke() {
    let engine = engine();
    let reference = engine.executor(Strategy::RanGroupScan { m: 2 });
    let server = Server::new(
        &engine,
        ServeConfig {
            num_shards: 2,
            num_workers: 2,
            cache_capacity: 128,
            mode: ExecMode::Fixed(Strategy::RanGroupScan { m: 2 }),
        },
    );
    let expected: Vec<Vec<u32>> = (0..8)
        .map(|t| reference.query(&[t, 8 + t, 16 + t]))
        .collect();
    std::thread::scope(|scope| {
        for client in 0..4usize {
            let server = &server;
            let expected = &expected;
            scope.spawn(move || {
                for i in 0..100usize {
                    let t = (client + i) % 8;
                    let got = server
                        .execute(&Request::terms(vec![t, 8 + t, 16 + t]))
                        .expect("valid");
                    assert_eq!(got.docs.as_slice(), expected[t], "client {client} t {t}");
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.queries_served, 400);
    assert_eq!(stats.cache.hits + stats.cache.misses, 400);
    // 8 distinct keys, but the get→compute→insert path is a benign
    // stampede: each of the 4 clients may independently miss a key the
    // first time it sees it, so up to 8 × 4 misses are legitimate.
    assert!(
        stats.cache.misses <= 8 * 4,
        "misses {} exceed the stampede bound",
        stats.cache.misses
    );
}
