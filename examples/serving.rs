//! The full serving path: build a sharded server over a Zipf corpus,
//! replay a Zipf-skewed query stream through `Server::execute_batch`, and report
//! throughput scaling against thread count plus the result-cache hit rate.
//!
//! This is the end-to-end demo of the `fsi-serve` subsystem: sharding
//! (document-partitioned prepared indexes), batching (work-stealing scoped
//! threads) and caching (segmented LRU over intersection results).
//!
//! Run with: `cargo run --release --example serving`

use fast_set_intersection::index::{Corpus, CorpusConfig, SearchEngine, Strategy};
use fast_set_intersection::serve::{ExecMode, Request, ServeConfig, Server};
use fast_set_intersection::workloads::{generate_stream, repeat_rate, QueryStreamConfig};
use fast_set_intersection::HashContext;

fn main() {
    let num_terms = 1 << 10;
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 200_000,
        num_terms,
        ..CorpusConfig::default()
    });
    let stream = generate_stream(&QueryStreamConfig {
        num_queries: 2_000,
        num_terms,
        ..QueryStreamConfig::default()
    });
    println!(
        "corpus: 200k docs x {num_terms} terms; stream: {} queries, repeat rate {:.2}",
        stream.len(),
        repeat_rate(&stream)
    );

    // Throughput scaling, cache off: every query runs the shards. One
    // engine, sharded identically behind one server per pool width, so the
    // compared runs differ only in the width.
    println!("\nscaling (cache off, 4 shards):");
    let engine = SearchEngine::from_corpus(HashContext::new(17), corpus);
    let requests: Vec<Request> = stream.iter().map(|q| Request::terms(q.clone())).collect();
    for workers in [1usize, 2, 4] {
        let server = Server::new(
            &engine,
            ServeConfig {
                num_shards: 4,
                num_workers: workers,
                cache_capacity: 0,
                mode: ExecMode::Fixed(Strategy::RanGroupScan { m: 2 }),
            },
        );
        let outcome = server.execute_batch(&requests);
        println!(
            "  {workers} worker(s): {:>7.0} q/s  (p50 {:>5.0} us, p99 {:>6.0} us)",
            outcome.throughput_qps, outcome.latency.p50_us, outcome.latency.p99_us
        );
    }

    // Cache on: the Zipf head repeats, the LRU absorbs it.
    let server = Server::new(
        &engine,
        ServeConfig {
            num_shards: 4,
            num_workers: 4,
            cache_capacity: 4096,
            mode: ExecMode::Fixed(Strategy::RanGroupScan { m: 2 }),
        },
    );
    let cold = server.execute_batch(&requests);
    let warm = server.execute_batch(&requests);
    let stats = server.stats();
    println!(
        "\ncache (capacity 4096): cold {:.0} q/s, warm {:.0} q/s, hit rate {:.2}",
        cold.throughput_qps,
        warm.throughput_qps,
        stats.cache.hit_rate()
    );
    println!(
        "served {} queries over {} shards ({} KiB of prepared indexes)",
        stats.queries_served,
        stats.num_shards,
        stats.index_bytes / 1024
    );
    println!("serving OK");
}
