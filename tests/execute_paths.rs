//! The serving-path table: every query input shape (`Terms`, `Text`,
//! `Norm`) under every per-request option (plain, traced, planner
//! override, `EXPLAIN`), with the result cache on and off, driven through
//! `Server::execute` on a one-worker server.
//!
//! Each cell pins what a caller can observe: the documents (against a
//! one-shard reference engine), the cache outcome, whether the response
//! names a plan kind, the exact deltas of the serving counters and the
//! cache statistics, and the trace span inventory. `perfbench`'s trace
//! mode reads the span names `parse`, `rewrite`, `cache`, `exec` and
//! `shard{i}.exec` (with `kind`, `est_rows` and `rows`), so they are part
//! of the contract.

use fast_set_intersection::index::{Corpus, CorpusConfig, Planner, SearchEngine, Strategy};
use fast_set_intersection::query::{compile, ExplainMode};
use fast_set_intersection::serve::{
    CacheOutcome, ExecMode, QueryError, Request, Response, ServeConfig, Server, ShardedEngine,
};
use fast_set_intersection::HashContext;

const SHARDS: usize = 3;
const TERMS: [usize; 3] = [5, 0, 1];
const TEXT: &str = "(0 OR 1) AND 5 AND NOT 7";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Input {
    Terms,
    Text,
    Norm,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Opt {
    Plain,
    Traced,
    Planner,
    Explain,
}

fn engine() -> SearchEngine {
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 15_000,
        num_terms: 32,
        ..CorpusConfig::default()
    });
    SearchEngine::from_corpus(HashContext::new(0x0404), corpus)
}

fn server(engine: &SearchEngine, cache_capacity: usize) -> Server {
    Server::new(
        engine,
        ServeConfig {
            num_shards: SHARDS,
            num_workers: 1,
            cache_capacity,
            ..ServeConfig::default()
        },
    )
}

fn reference(engine: &SearchEngine, input: Input) -> Vec<u32> {
    let single = ShardedEngine::build(engine, 1, ExecMode::Fixed(Strategy::Merge));
    match input {
        Input::Terms => single.query(&TERMS),
        Input::Text | Input::Norm => single.query_expr(&compile(TEXT).expect("compiles")),
    }
}

fn request(input: Input, opt: Opt) -> Request {
    let req = match input {
        Input::Terms => Request::terms(TERMS.to_vec()),
        Input::Text => Request::expr(TEXT),
        Input::Norm => Request::norm(compile(TEXT).expect("compiles")),
    };
    match opt {
        Opt::Plain => req,
        Opt::Traced => req.traced(),
        Opt::Planner => req.planner(Planner::default()),
        Opt::Explain => req.explain(ExplainMode::Plan),
    }
}

/// Everything the server counts that a request can move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    served: u64,
    expr: u64,
    latency: usize,
    lookups: u64,
    insertions: u64,
}

fn counts(s: &Server) -> Counts {
    let stats = s.stats();
    Counts {
        served: stats.queries_served,
        expr: stats.expr_queries_served,
        latency: stats.latency.count,
        lookups: stats.cache.lookups,
        insertions: stats.cache.insertions,
    }
}

fn delta(before: Counts, after: Counts) -> Counts {
    Counts {
        served: after.served - before.served,
        expr: after.expr - before.expr,
        latency: after.latency - before.latency,
        lookups: after.lookups - before.lookups,
        insertions: after.insertions - before.insertions,
    }
}

/// The span names a traced request records, in order.
fn expected_spans(input: Input, cache_on: bool, hit: bool) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    if input == Input::Text {
        names.extend(["parse".into(), "rewrite".into()]);
    }
    names.push("cache".into());
    if !hit {
        names.extend((0..SHARDS).map(|i| format!("shard{i}.exec")));
        names.push("exec".into());
        if cache_on {
            names.push("cache_insert".into());
        }
    }
    names
}

fn check_trace(resp: &Response, input: Input, cache_on: bool, hit: bool, ctx: &str) {
    let trace = resp.trace.as_ref().expect("traced request carries a trace");
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        expected_spans(input, cache_on, hit),
        "{ctx}: span inventory"
    );
    let outcome = match (cache_on, hit) {
        (true, true) => "hit",
        (true, false) => "miss",
        (false, _) => "disabled",
    };
    let cache = trace.span("cache").expect("cache span");
    assert_eq!(cache.get("outcome"), Some(outcome), "{ctx}");
    if hit {
        return;
    }
    let mut shard_rows = 0;
    for i in 0..SHARDS {
        let span = trace
            .span(&format!("shard{i}.exec"))
            .unwrap_or_else(|| panic!("{ctx}: missing shard{i}.exec"));
        assert!(span.get("kind").is_some(), "{ctx}: shard{i} kind");
        assert!(span.get("est_rows").is_some(), "{ctx}: shard{i} est_rows");
        let rows: usize = span.get("rows").expect("rows").parse().expect("number");
        shard_rows += rows;
    }
    assert_eq!(shard_rows, resp.docs.len(), "{ctx}: shard rows add up");
    let exec = trace.span("exec").expect("exec span");
    assert_eq!(exec.get("shards"), Some(SHARDS.to_string().as_str()));
    assert_eq!(exec.get("rows"), Some(resp.docs.len().to_string().as_str()));
    assert_eq!(
        resp.plan_kind,
        trace.span("shard0.exec").and_then(|s| s.get("kind")),
        "{ctx}: response plan kind mirrors shard 0"
    );
}

#[test]
fn every_input_option_and_cache_setting() {
    let engine = engine();
    for input in [Input::Terms, Input::Text, Input::Norm] {
        let want = reference(&engine, input);
        assert!(!want.is_empty(), "{input:?}: the fixture query matches");
        for opt in [Opt::Plain, Opt::Traced, Opt::Planner, Opt::Explain] {
            for cache_on in [true, false] {
                let s = server(&engine, if cache_on { 64 } else { 0 });
                let req = request(input, opt);
                // Twice: with the cache on, the second run is the hit.
                for run in 0..2 {
                    let ctx = format!("{input:?} {opt:?} cache={cache_on} run={run}");
                    let before = counts(&s);
                    let resp = s.execute(&req).expect("valid");
                    let d = delta(before, counts(&s));
                    assert!(resp.is_served(), "{ctx}");
                    if opt == Opt::Explain {
                        assert!(resp.docs.is_empty(), "{ctx}: EXPLAIN serves no documents");
                        assert_eq!(resp.cache, CacheOutcome::Bypassed, "{ctx}");
                        assert_eq!(resp.plan_kind, None, "{ctx}");
                        assert!(resp.trace.is_none(), "{ctx}");
                        let text = resp.explain.as_deref().expect("plan rendered");
                        assert!(text.contains("-- shard 0"), "{ctx}: {text}");
                        assert!(text.contains("est_cost"), "{ctx}: {text}");
                        assert_eq!(d, Counts::default(), "{ctx}: EXPLAIN counts nothing");
                        continue;
                    }
                    let hit = cache_on && run == 1;
                    assert_eq!(resp.docs.as_slice(), want.as_slice(), "{ctx}: docs");
                    let expect_cache = match (cache_on, hit) {
                        (false, _) => CacheOutcome::Disabled,
                        (true, false) => CacheOutcome::Miss,
                        (true, true) => CacheOutcome::Hit,
                    };
                    assert_eq!(resp.cache, expect_cache, "{ctx}: cache outcome");
                    assert_eq!(resp.plan_kind.is_some(), !hit, "{ctx}: plan kind");
                    assert!(resp.explain.is_none(), "{ctx}");
                    let expect = Counts {
                        served: 1,
                        expr: u64::from(input != Input::Terms),
                        latency: 1,
                        lookups: u64::from(cache_on),
                        insertions: u64::from(cache_on && !hit),
                    };
                    assert_eq!(d, expect, "{ctx}: counter deltas");
                    if opt == Opt::Traced {
                        check_trace(&resp, input, cache_on, hit, &ctx);
                    } else {
                        assert!(resp.trace.is_none(), "{ctx}");
                    }
                }
            }
        }
    }
}

#[test]
fn a_flat_query_and_its_respellings_share_one_cache_entry() {
    let engine = engine();
    let s = server(&engine, 64);
    let flat = s.execute(&Request::terms(vec![5, 0, 1])).expect("valid");
    assert_eq!(flat.cache, CacheOutcome::Miss);
    for respelled in [
        Request::expr("1 AND 5 AND 0 AND 1"),
        Request::norm(compile("0 AND (5 AND 1)").expect("compiles")),
        Request::terms(vec![1, 1, 0, 5]),
        Request::terms(vec![0, 1, 5]).traced(),
        Request::expr("5 0 1").planner(Planner::default()),
    ] {
        let resp = s.execute(&respelled).expect("valid");
        assert_eq!(resp.cache, CacheOutcome::Hit, "{:?}", respelled.input);
        assert_eq!(resp.docs, flat.docs);
    }
    let stats = s.stats().cache;
    assert_eq!((stats.len, stats.insertions), (1, 1));
}

#[test]
fn the_explain_prefix_and_option_render_the_same_plan() {
    let engine = engine();
    let s = server(&engine, 64);
    let before = counts(&s);
    for mode in [ExplainMode::Plan, ExplainMode::Analyze] {
        let by_option = s
            .execute(&Request::expr("(0 OR 1) AND 5").explain(mode))
            .expect("valid")
            .explain
            .expect("plan rendered");
        let prefix = match mode {
            ExplainMode::Plan => "EXPLAIN",
            ExplainMode::Analyze => "EXPLAIN ANALYZE",
        };
        let by_prefix = s
            .execute(&Request::expr(format!("{prefix} (0 OR 1) AND 5")))
            .expect("valid")
            .explain
            .expect("plan rendered");
        if mode == ExplainMode::Plan {
            assert_eq!(by_option, by_prefix);
        } else {
            assert!(by_prefix.contains("EXPLAIN ANALYZE"), "{by_prefix}");
            assert!(by_option.contains("EXPLAIN ANALYZE"), "{by_option}");
        }
    }
    assert_eq!(counts(&s), before, "EXPLAIN counts nothing");
    assert_eq!(s.stats().cache.len, 0);
}

#[test]
fn flat_queries_match_the_reference_and_count_once_each() {
    let engine = engine();
    let single = ShardedEngine::build(&engine, 1, ExecMode::Fixed(Strategy::Merge));
    let s = server(&engine, 64);
    let queries: Vec<Vec<usize>> = vec![
        vec![0, 1],
        vec![1, 2, 3],
        vec![0, 10, 20, 31],
        vec![7],
        vec![],         // empty conjunction
        vec![4, 4, 12], // duplicate term
        vec![0, 1],     // repeat: cache hit
    ];
    for q in &queries {
        let resp = s.execute(&Request::terms(q.clone())).expect("valid");
        assert_eq!(resp.docs.as_slice(), single.query(q), "{q:?}");
    }
    let stats = s.stats();
    assert_eq!(stats.queries_served, queries.len() as u64);
    assert_eq!(stats.expr_queries_served, 0);
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.cache.insertions, queries.len() as u64 - 1);
}

#[test]
fn invalid_requests_are_rejected_and_count_nothing() {
    let engine = engine();
    let s = server(&engine, 64);
    let before = counts(&s);
    for bad in ["0 AND", "NOT 3"] {
        let err = s.execute(&Request::expr(bad)).expect_err("invalid");
        assert!(matches!(err, QueryError::Compile(_)), "{bad}: {err}");
    }
    for req in [
        Request::expr("0 AND 99999"),
        Request::expr("0 AND 99999").traced(),
        Request::terms(vec![0, 99999]),
        Request::norm(compile("0 AND 99999").expect("compiles")),
    ] {
        let err = s.execute(&req).expect_err("unknown term");
        assert!(
            matches!(err, QueryError::UnknownTerm { term: 99999, .. }),
            "{err}"
        );
        assert_eq!(
            err.to_string(),
            "unknown term t99999 (index has 32 terms)",
            "one rendering on every path"
        );
    }
    for req in [
        Request::terms(vec![]).explain(ExplainMode::Plan),
        Request::terms(vec![]).traced(),
    ] {
        assert!(matches!(s.execute(&req), Err(QueryError::Unsupported(_))));
    }
    assert_eq!(counts(&s), before, "rejected requests count nothing");
}

#[test]
fn single_worker_batches_account_exactly() {
    // One worker runs the batch in order, so duplicate keys inside a batch
    // hit deterministically: 35 distinct conjunctions in 120 requests.
    let engine = engine();
    let single = ShardedEngine::build(&engine, 1, ExecMode::Fixed(Strategy::Merge));
    let s = server(&engine, 64);
    let batch: Vec<Vec<usize>> = (0..120).map(|i| vec![i % 5, 5 + i % 7]).collect();
    let requests: Vec<Request> = batch.iter().cloned().map(Request::terms).collect();
    for (round, want_hits) in [(0, 120 - 35), (1, 120)] {
        let out = s.execute_batch(&requests);
        assert_eq!(out.responses.len(), batch.len());
        let mut hits = 0;
        for (i, (q, r)) in batch.iter().zip(&out.responses).enumerate() {
            let resp = r.as_ref().expect("valid");
            assert_eq!(
                resp.docs.as_slice(),
                single.query(q),
                "round {round} query {i}"
            );
            hits += usize::from(resp.cache == CacheOutcome::Hit);
        }
        assert_eq!(hits, want_hits, "round {round}");
        assert_eq!(out.latency.count, batch.len());
        assert_eq!(out.queue_depths, vec![batch.len()]);
        assert_eq!(out.executed_per_worker, vec![batch.len()]);
    }
    let stats = s.stats();
    assert_eq!(stats.queries_served, 240);
    assert_eq!(stats.latency.count, 240);
    assert_eq!(stats.cache.lookups, 240);
    assert_eq!(stats.cache.insertions, 35);
}

#[test]
fn multi_worker_batches_stay_positional() {
    // Several workers race duplicate keys through the cache's benign
    // get→compute→insert stampede, so hit counts vary; results do not.
    let engine = engine();
    let single = ShardedEngine::build(&engine, 1, ExecMode::Fixed(Strategy::Merge));
    let s = Server::new(
        &engine,
        ServeConfig {
            num_shards: SHARDS,
            num_workers: 4,
            cache_capacity: 64,
            ..ServeConfig::default()
        },
    );
    let batch: Vec<Vec<usize>> = (0..160).map(|i| vec![i % 6, 6 + i % 11]).collect();
    let requests: Vec<Request> = batch.iter().cloned().map(Request::terms).collect();
    let out = s.execute_batch(&requests);
    for (i, (q, r)) in batch.iter().zip(&out.responses).enumerate() {
        assert_eq!(
            r.as_ref().expect("valid").docs.as_slice(),
            single.query(q),
            "query {i}"
        );
    }
    assert_eq!(out.executed_per_worker.iter().sum::<usize>(), batch.len());
    assert_eq!(s.stats().queries_served, batch.len() as u64);
}
