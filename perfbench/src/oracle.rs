//! The result oracle: before anything is timed, every query the run will
//! send gets a digest from an independent one-shard, cache-disabled
//! `Server`, which is itself cross-checked against the `BTreeSet` reference
//! evaluator `fsi_query::naive_eval` on a sample.

use crate::digest::Digest;
use fsi_index::SearchEngine;
use fsi_serve::{Request, ServeConfig, Server};

/// Queries cross-checked against `naive_eval`.
pub const NAIVE_SAMPLE: usize = 12;

/// Digests of `queries`, in order. Panics on a query the oracle rejects or
/// on a disagreement with the reference evaluator: either is a bug, and
/// the run must not go on to compare responses against it.
pub fn digests(engine: &SearchEngine, queries: &[String], threads: usize) -> Vec<Digest> {
    let oracle = Server::new(
        engine,
        ServeConfig {
            num_shards: 1,
            num_workers: 1,
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let answer = |q: &String| -> Vec<u32> {
        let resp = oracle
            .execute(&Request::expr(q.as_str()))
            .unwrap_or_else(|e| panic!("oracle rejected {q:?}: {e}"));
        resp.docs.as_slice().to_vec()
    };

    let postings: Vec<&[u32]> = engine.postings().iter().map(|p| p.as_slice()).collect();
    let step = (queries.len() / NAIVE_SAMPLE).max(1);
    for q in queries.iter().step_by(step).take(NAIVE_SAMPLE) {
        let norm = fsi_query::compile(q).expect("generated queries compile");
        let naive: Vec<u32> = fsi_query::naive::naive_eval(&postings, &norm)
            .into_iter()
            .collect();
        assert_eq!(
            answer(q),
            naive,
            "oracle disagrees with naive_eval on {q:?}"
        );
    }

    let chunk = queries.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|q| Digest::of(&answer(q)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread"))
            .collect()
    })
}
