//! The top-level serving facade: a [`ShardedEngine`], a [`QueryCache`] and
//! a [`QueryPool`] assembled from one [`ServeConfig`], answering
//! [`Request`]s through the single [`Server::execute`] entry point.

use crate::cache::{CacheKey, ModeKey, QueryCache};
use crate::config::{ExecMode, ServeConfig};
use crate::pool::QueryPool;
use crate::request::{
    flat_to_norm, CacheOutcome, Disposition, QueryInput, Request, Response, ShedReason,
};
use crate::shard::ShardedEngine;
use crate::stats::{LatencySummary, ServeStats};
use fsi_core::{Elem, HashContext};
use fsi_index::{Corpus, SearchEngine};
use fsi_kernels::SimdLevel;
use fsi_obs::{
    AttrValue, Counter, HistSnapshot, Histogram, LabelCap, Registry, Snapshot, TraceBuilder,
};
use fsi_query::{CompileError, ExplainMode, NormExpr};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why the server rejected a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query does not parse or normalizes to an unbounded set.
    Compile(CompileError),
    /// The query names a term outside the index vocabulary.
    UnknownTerm {
        /// The offending term id.
        term: usize,
        /// The vocabulary size (valid ids are `0..num_terms`).
        num_terms: usize,
    },
    /// The operation needs the cost-based planner (`ExecMode::Planned`) —
    /// `EXPLAIN` has no estimates to render and a per-request planner
    /// override has no planner to replace under a fixed strategy.
    NeedsPlanner,
    /// The requested option combination is not expressible — e.g.
    /// `EXPLAIN` of the empty conjunction, which the canonical expression
    /// language cannot represent.
    Unsupported(&'static str),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Compile(e) => write!(f, "{e}"),
            QueryError::UnknownTerm { term, num_terms } => {
                write!(f, "unknown term t{term} (index has {num_terms} terms)")
            }
            QueryError::NeedsPlanner => {
                write!(
                    f,
                    "operation requires planner-dispatched execution (ExecMode::Planned)"
                )
            }
            QueryError::Unsupported(what) => write!(f, "unsupported request: {what}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<CompileError> for QueryError {
    fn from(e: CompileError) -> Self {
        QueryError::Compile(e)
    }
}

/// The result of [`Server::execute_batch`]: per-request responses plus
/// batch-level scheduling statistics.
#[derive(Debug)]
pub struct BatchResponse {
    /// Per-request outcomes, positionally parallel to the input batch.
    pub responses: Vec<Result<Response, QueryError>>,
    /// Order statistics over per-request service times.
    pub latency: LatencySummary,
    /// The merged per-worker service-time histogram (nanosecond samples).
    pub latency_hist: HistSnapshot,
    /// Requests dealt to each worker's queue (round-robin).
    pub queue_depths: Vec<usize>,
    /// Requests each worker actually completed — the difference from
    /// `queue_depths` is work stealing.
    pub executed_per_worker: Vec<usize>,
    /// Wall-clock duration of the whole batch.
    pub wall: Duration,
    /// Requests per second over the batch.
    pub throughput_qps: f64,
}

/// What a served request evaluates on the shards on a cache miss.
#[derive(Clone, Copy)]
enum Work<'a> {
    /// A flat conjunction, on the shards' multiway path.
    Terms(&'a [usize]),
    /// A canonical expression, on the shards' expression path.
    Expr(&'a NormExpr),
}

/// A self-contained query-serving engine. [`Server::execute`] is the one
/// execution entry point; everything a request needs rides on the
/// [`Request`] it submits.
///
/// ```
/// use fsi_serve::{Request, ServeConfig, Server};
/// use fsi_core::{HashContext, SortedSet};
/// use fsi_index::SearchEngine;
///
/// let engine = SearchEngine::from_postings(
///     HashContext::new(1),
///     vec![
///         SortedSet::from_unsorted(vec![1, 5, 9, 12]),
///         SortedSet::from_unsorted(vec![5, 9, 30]),
///     ],
/// );
/// let server = Server::new(&engine, ServeConfig::default());
/// let response = server.execute(&Request::terms(vec![0, 1])).expect("valid");
/// assert_eq!(response.docs.as_slice(), &[5, 9]);
/// assert!(response.is_served());
/// ```
#[derive(Debug)]
pub struct Server {
    config: ServeConfig,
    engine: ShardedEngine,
    cache: QueryCache,
    pool: QueryPool,
    /// The server's own metrics registry. Serving counters live here (not
    /// on the process-global registry) so two servers in one process never
    /// alias; [`Server::metrics`] folds the global registry's kernel- and
    /// planner-dispatch counters in at snapshot time.
    registry: Registry,
    /// Bounds the distinct `tenant` label values on per-tenant counters
    /// (tenant ids come off the wire; see [`Server::TENANT_LABEL_CAP`]).
    tenant_labels: LabelCap,
    queries_served: Arc<Counter>,
    expr_queries_served: Arc<Counter>,
    queries_shed: Arc<Counter>,
    /// Per-query service-time distribution in nanoseconds: every executed
    /// request records here — single and batch requests share one
    /// distribution.
    latency_ns: Arc<Histogram>,
}

impl Server {
    /// Maximum distinct `tenant` label values on per-tenant metrics;
    /// tenants beyond the cap share the `other` label.
    pub const TENANT_LABEL_CAP: usize = 64;

    /// Independently locked result-cache segments: enough that concurrent
    /// batch workers rarely contend on one lock.
    const CACHE_SEGMENTS: usize = 8;

    /// Builds the serving stack over an existing engine.
    pub fn new(engine: &SearchEngine, config: ServeConfig) -> Self {
        let config = config.normalized();
        let registry = Registry::new();
        let queries_served = registry.counter("fsi_queries_served_total", &[]);
        let expr_queries_served = registry.counter("fsi_expr_queries_served_total", &[]);
        let queries_shed = registry.counter("fsi_queries_shed_total", &[]);
        let latency_ns = registry.histogram("fsi_query_latency_ns", &[]);
        Self {
            engine: ShardedEngine::build(engine, config.num_shards, config.mode.clone()),
            cache: QueryCache::new(config.cache_capacity, Self::CACHE_SEGMENTS),
            pool: QueryPool::new(config.num_workers),
            registry,
            tenant_labels: LabelCap::new(Self::TENANT_LABEL_CAP),
            queries_served,
            expr_queries_served,
            queries_shed,
            latency_ns,
            config,
        }
    }

    /// Builds the serving stack directly over a synthetic corpus.
    pub fn from_corpus(ctx: HashContext, corpus: Corpus, config: ServeConfig) -> Self {
        Self::new(&SearchEngine::from_corpus(ctx, corpus), config)
    }

    /// Executes one request — the sole execution entry point.
    ///
    /// The request lifecycle:
    ///
    /// 1. **Deadline check** — a request whose deadline has already passed
    ///    is shed (an `Ok` response with
    ///    [`Disposition::Shed`]`(`[`ShedReason::DeadlineExpired`]`)`,
    ///    nothing executed).
    /// 2. **Compile & validate** — textual queries parse and normalize
    ///    (an `EXPLAIN [ANALYZE]` prefix turns the request into an
    ///    explain); out-of-vocabulary terms are rejected. Rejected
    ///    requests count toward no serving counter.
    /// 3. **Cache** — the canonical-encoding cache key is derived
    ///    internally; flat conjunctions and equivalent boolean spellings
    ///    share entries.
    /// 4. **Execute** — per-shard, under the engine's planner or the
    ///    request's override; the response reports the chosen plan kind,
    ///    cache outcome, and measured service time, plus a trace or a
    ///    rendered plan when asked.
    ///
    /// ```
    /// use fsi_serve::{Request, ServeConfig, Server};
    /// use fsi_core::{HashContext, SortedSet};
    /// use fsi_index::SearchEngine;
    ///
    /// let engine = SearchEngine::from_postings(
    ///     HashContext::new(1),
    ///     vec![
    ///         SortedSet::from_unsorted(vec![1, 5, 9, 12]),
    ///         SortedSet::from_unsorted(vec![5, 9, 30]),
    ///         SortedSet::from_unsorted(vec![9]),
    ///     ],
    /// );
    /// let server = Server::new(&engine, ServeConfig::default());
    /// let hits = server.execute(&Request::expr("(0 AND 1) AND NOT 2")).expect("valid");
    /// assert_eq!(hits.docs.as_slice(), &[5]);
    /// assert!(server.execute(&Request::expr("NOT 2")).is_err(), "unbounded");
    /// ```
    pub fn execute(&self, req: &Request) -> Result<Response, QueryError> {
        let start = Instant::now();
        if let Some(deadline) = req.options.deadline {
            if Instant::now() >= deadline {
                self.queries_shed.inc();
                self.note_tenant(req);
                return Ok(Response::shed(ShedReason::DeadlineExpired, start.elapsed()));
            }
        }
        if req.options.planner_override.is_some()
            && !matches!(self.engine.mode(), ExecMode::Planned(_))
        {
            return Err(QueryError::NeedsPlanner);
        }
        match &req.input {
            QueryInput::Text(src) => {
                let (prefix_mode, rest) = fsi_query::strip_explain(src);
                let explain_mode = prefix_mode.or(req.options.explain);
                if req.options.trace && explain_mode.is_none() {
                    return self.execute_traced_text(rest, req, start);
                }
                let norm = fsi_query::compile(rest)?;
                self.validate(&norm)?;
                match explain_mode {
                    Some(mode) => self.execute_explain(&norm, mode, req, start),
                    None => Ok(self.serve(req, start, Work::Expr(&norm), true, None)),
                }
            }
            QueryInput::Norm(expr) => {
                self.validate(expr)?;
                self.execute_expr(expr, req, start, true)
            }
            QueryInput::Terms(terms) => {
                let num_terms = self.engine.num_terms();
                if let Some(&term) = terms.iter().find(|&&t| t >= num_terms) {
                    return Err(QueryError::UnknownTerm { term, num_terms });
                }
                let needs_expr_route = req.options.explain.is_some()
                    || req.options.trace
                    || req.options.planner_override.is_some();
                if !needs_expr_route {
                    return Ok(self.serve(req, start, Work::Terms(terms), false, None));
                }
                // Options that need the expression engine route through the
                // canonical conjunction — byte-identical results and the
                // same cache entry (`encode_flat_and ≡ encode ∘ normalize`).
                // The flat counter semantics are kept: these are not
                // "expression queries served".
                let Some(norm) = flat_to_norm(terms) else {
                    return Err(QueryError::Unsupported(
                        "the empty conjunction has no expression form to explain, trace, or re-plan",
                    ));
                };
                self.execute_expr(&norm, req, start, false)
            }
        }
    }

    /// Executes a batch of requests across the worker pool — round-robin
    /// dealt, work-stealing — and reports batch scheduling statistics
    /// alongside the per-request responses. This drives the same
    /// per-request [`Server::execute`] path workers use for single
    /// requests; there is no separate batch execution surface.
    pub fn execute_batch(&self, requests: &[Request]) -> BatchResponse {
        let batch_start = Instant::now();
        let run = self
            .pool
            .run_indexed(requests.len(), |i| match requests.get(i) {
                Some(req) => self.execute(req),
                None => Err(QueryError::Unsupported("request index out of range")),
            });
        let wall = batch_start.elapsed();
        let latency_hist = run.hist.snapshot();
        let latency = LatencySummary::from_histogram(&latency_hist);
        let throughput_qps = if wall.as_secs_f64() > 0.0 {
            requests.len() as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        BatchResponse {
            responses: run.items.into_iter().map(|(item, _)| item).collect(),
            latency,
            latency_hist,
            queue_depths: run.queue_depths,
            executed_per_worker: run.executed_per_worker,
            wall,
            throughput_qps,
        }
    }

    // -- the execute stages -------------------------------------------------

    fn validate(&self, norm: &NormExpr) -> Result<(), QueryError> {
        let num_terms = self.engine.num_terms();
        if let Some(&term) = norm.terms().iter().find(|&&t| t >= num_terms) {
            return Err(QueryError::UnknownTerm { term, num_terms });
        }
        Ok(())
    }

    /// Bills the request to its tenant, if any. The tenant label is
    /// cardinality-capped ([`Server::TENANT_LABEL_CAP`]): tenant ids are
    /// client-controlled `u32`s, and without a cap a tenant-id sweep
    /// would grow the registry — and every scrape — without bound.
    /// Over-cap tenants collapse into the `other` label.
    fn note_tenant(&self, req: &Request) {
        if let Some(tenant) = req.options.tenant {
            let id = self.tenant_labels.label(tenant);
            self.registry
                .counter("fsi_tenant_queries_total", &[("tenant", &id)])
                .inc();
        }
    }

    /// A canonical expression under the request's options: rendered as
    /// `EXPLAIN`, or served (traced when asked).
    fn execute_expr(
        &self,
        expr: &NormExpr,
        req: &Request,
        start: Instant,
        count_expr: bool,
    ) -> Result<Response, QueryError> {
        match req.options.explain {
            Some(mode) => self.execute_explain(expr, mode, req, start),
            None => {
                let tb = req
                    .options
                    .trace
                    .then(|| TraceBuilder::new(expr.to_string()));
                Ok(self.serve(req, start, Work::Expr(expr), count_expr, tb))
            }
        }
    }

    /// The `EXPLAIN` path: renders one plan tree per shard instead of
    /// serving documents. Does not count toward the serving counters (no
    /// documents served) and never consults the cache.
    fn execute_explain(
        &self,
        expr: &NormExpr,
        mode: ExplainMode,
        req: &Request,
        start: Instant,
    ) -> Result<Response, QueryError> {
        let text = self
            .engine
            .explain(expr, mode, req.options.planner_override.as_ref())
            .ok_or(QueryError::NeedsPlanner)?;
        self.note_tenant(req);
        Ok(Response {
            docs: Arc::new(Vec::new()),
            disposition: Disposition::Served,
            cache: CacheOutcome::Bypassed,
            plan_kind: None,
            latency: start.elapsed(),
            trace: None,
            explain: Some(text),
        })
    }

    /// The traced textual path: parse and rewrite under their own spans,
    /// then the serving tail.
    fn execute_traced_text(
        &self,
        query: &str,
        req: &Request,
        start: Instant,
    ) -> Result<Response, QueryError> {
        let mut tb = TraceBuilder::new(query);
        let s = tb.start_span();
        let ast = fsi_query::parse(query).map_err(CompileError::from)?;
        tb.end_span(s, "parse");
        let s = tb.start_span();
        let norm = Arc::new(fsi_query::normalize(&ast).map_err(CompileError::from)?);
        tb.end_span(s, "rewrite")
            .attr("canonical", AttrValue::display(norm.clone()))
            .attr("fingerprint", AttrValue::hex(fsi_query::fingerprint(&norm)));
        self.validate(&norm)?;
        Ok(self.serve(req, start, Work::Expr(&norm), true, Some(tb)))
    }

    /// The one serving tail every executed request ends in: count, derive
    /// the cache key, probe, evaluate `work` on the shards on a miss,
    /// insert, respond. `count_expr` is false when a flat request routed
    /// to the expression engine for its options — it still counts as a
    /// served query, not as an expression query.
    ///
    /// With a trace builder the tail adds a `cache` span, an `exec` span
    /// around the traced per-shard evaluation and a `cache_insert` event —
    /// identical result and identical cache interaction to the untraced
    /// run, so traced and untraced runs compare for overhead directly.
    fn serve(
        &self,
        req: &Request,
        start: Instant,
        work: Work<'_>,
        count_expr: bool,
        mut tb: Option<TraceBuilder>,
    ) -> Response {
        self.queries_served.inc();
        if count_expr {
            self.expr_queries_served.inc();
        }
        self.note_tenant(req);
        let key = self.cache.is_enabled().then(|| {
            let mode = ModeKey::from(self.engine.mode());
            match work {
                Work::Terms(terms) => CacheKey::new(terms, mode),
                Work::Expr(expr) => CacheKey::from_norm(expr, mode),
            }
        });
        let span = tb.as_ref().map(TraceBuilder::start_span);
        let hit = key.as_ref().and_then(|k| self.cache.get(k));
        if let (Some(tb), Some(span)) = (tb.as_mut(), span) {
            let outcome = match (&hit, &key) {
                (Some(_), _) => "hit",
                (None, Some(_)) => "miss",
                (None, None) => "disabled",
            };
            tb.end_span(span, "cache").attr("outcome", outcome);
        }
        if let Some(hit) = hit {
            return self.served(hit, CacheOutcome::Hit, None, start, tb);
        }
        let span = tb.as_ref().map(TraceBuilder::start_span);
        let (result, kind) = match work {
            Work::Terms(terms) => self.engine.query_terms(terms),
            Work::Expr(expr) => {
                self.engine
                    .eval(expr, req.options.planner_override.as_ref(), tb.as_mut())
            }
        };
        let result = Arc::new(result);
        if let (Some(tb), Some(span)) = (tb.as_mut(), span) {
            tb.end_span(span, "exec")
                .attr("simd", SimdLevel::active().name())
                .attr("shards", self.engine.num_shards())
                .attr("rows", result.len());
        }
        let cache = match key {
            Some(key) => {
                let inserted = self.cache.insert(key, Arc::clone(&result));
                if let Some(tb) = tb.as_mut() {
                    tb.event("cache_insert")
                        .attr("fresh", inserted.fresh)
                        .attr("evicted", inserted.evicted);
                }
                CacheOutcome::Miss
            }
            None => CacheOutcome::Disabled,
        };
        self.served(result, cache, kind, start, tb)
    }

    /// A served response; records its latency and seals its trace.
    fn served(
        &self,
        docs: Arc<Vec<Elem>>,
        cache: CacheOutcome,
        plan_kind: Option<&'static str>,
        start: Instant,
        tb: Option<TraceBuilder>,
    ) -> Response {
        let latency = start.elapsed();
        self.latency_ns.record_duration(latency);
        Response {
            docs,
            disposition: Disposition::Served,
            cache,
            plan_kind,
            latency,
            trace: tb.map(TraceBuilder::finish),
            explain: None,
        }
    }

    // -- accessors & telemetry ---------------------------------------------

    /// The sharded engine.
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// The result cache.
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// The active configuration (post-normalization).
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Copies the cache's counters and the engine's static facts into the
    /// registry as gauges, so a snapshot is self-contained. Called on
    /// every snapshot — gauge sets are cheap relative to taking one.
    fn sync_gauges(&self) {
        let stats = self.cache.stats();
        let set = |name: &str, v: u64| self.registry.gauge(name, &[]).set(v);
        set("fsi_cache_hits", stats.hits);
        set("fsi_cache_misses", stats.misses);
        set("fsi_cache_lookups", stats.lookups);
        set("fsi_cache_insertions", stats.insertions);
        set("fsi_cache_evictions", stats.evictions);
        set("fsi_cache_refreshes", stats.refreshes);
        set("fsi_cache_entries", stats.len as u64);
        set("fsi_cache_value_bytes", stats.value_bytes as u64);
        set("fsi_cache_capacity", stats.capacity as u64);
        for (i, seg) in stats.segments.iter().enumerate() {
            let id = i.to_string();
            let labels = [("segment", id.as_str())];
            let seg_set = |name: &str, v: u64| self.registry.gauge(name, &labels).set(v);
            seg_set("fsi_cache_segment_entries", seg.len as u64);
            seg_set("fsi_cache_segment_value_bytes", seg.value_bytes as u64);
            seg_set("fsi_cache_segment_insertions", seg.insertions);
            seg_set("fsi_cache_segment_evictions", seg.evictions);
            seg_set("fsi_cache_segment_refreshes", seg.refreshes);
        }
        set("fsi_shards", self.engine.num_shards() as u64);
        set("fsi_workers", self.pool.workers() as u64);
        set("fsi_index_bytes", self.engine.size_in_bytes() as u64);
    }

    /// A full metrics snapshot: this server's registry (serving counters,
    /// per-tenant counters, latency histogram, cache gauges) merged with
    /// the process-global registry (kernel dispatch and planner choice
    /// counters). Render with [`Snapshot::to_prometheus`] or
    /// [`Snapshot::to_json`].
    pub fn metrics(&self) -> Snapshot {
        self.sync_gauges();
        let mut snap = self.registry.snapshot();
        snap.merge_from(&Registry::global().snapshot());
        snap
    }

    /// A point-in-time stats snapshot — a typed view over the same
    /// registry [`Server::metrics`] exposes.
    pub fn stats(&self) -> ServeStats {
        let snap = self.registry.snapshot();
        let empty = HistSnapshot::default();
        let latency_hist = snap
            .histogram("fsi_query_latency_ns", &[])
            .unwrap_or(&empty);
        ServeStats {
            queries_served: snap.counter("fsi_queries_served_total", &[]).unwrap_or(0),
            expr_queries_served: snap
                .counter("fsi_expr_queries_served_total", &[])
                .unwrap_or(0),
            queries_shed: snap.counter("fsi_queries_shed_total", &[]).unwrap_or(0),
            latency: LatencySummary::from_histogram(latency_hist),
            cache: self.cache.stats(),
            num_shards: self.engine.num_shards(),
            num_workers: self.pool.workers(),
            index_bytes: self.engine.size_in_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlannerProfile;
    use fsi_index::{CorpusConfig, Planner, Strategy};

    fn server(config: ServeConfig) -> Server {
        let corpus = Corpus::generate(CorpusConfig {
            num_docs: 15_000,
            num_terms: 24,
            ..CorpusConfig::default()
        });
        Server::from_corpus(HashContext::new(77), corpus, config)
    }

    #[test]
    fn single_queries_are_cached() {
        let s = server(ServeConfig {
            num_shards: 3,
            cache_capacity: 16,
            ..ServeConfig::default()
        });
        let a = s.execute(&Request::terms(vec![0, 1, 5])).expect("valid");
        let b = s.execute(&Request::terms(vec![5, 1, 0])).expect("valid");
        assert_eq!(a.docs, b.docs, "order-insensitive key");
        assert_eq!(a.cache, CacheOutcome::Miss);
        assert_eq!(b.cache, CacheOutcome::Hit);
        assert!(a.plan_kind.is_some(), "planned default reports a kind");
        assert_eq!(b.plan_kind, None, "hits execute nothing");
        let stats = s.stats();
        assert_eq!(stats.queries_served, 2);
        assert_eq!(stats.cache.hits, 1);
        assert!(stats.index_bytes > 0);
    }

    #[test]
    fn batch_counts_feed_stats() {
        let s = server(ServeConfig {
            num_shards: 2,
            num_workers: 2,
            ..ServeConfig::default()
        });
        let requests: Vec<Request> = (0..10)
            .map(|i| Request::terms(vec![i % 4, 8 + i % 2]))
            .collect();
        let outcome = s.execute_batch(&requests);
        assert_eq!(outcome.responses.len(), 10);
        assert!(outcome.responses.iter().all(|r| r.is_ok()));
        assert_eq!(s.stats().queries_served, 10);
        assert_eq!(s.stats().latency.count, 10, "batch latencies recorded");
    }

    #[test]
    fn disabled_cache_still_serves() {
        let s = server(ServeConfig {
            cache_capacity: 0,
            ..ServeConfig::default()
        });
        let a = s.execute(&Request::terms(vec![0, 1])).expect("valid");
        let b = s.execute(&Request::terms(vec![0, 1])).expect("valid");
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.cache, CacheOutcome::Disabled);
        assert_eq!(b.cache, CacheOutcome::Disabled);
        let stats = s.stats();
        assert_eq!(stats.cache.hits, 0);
        assert_eq!(stats.cache.misses, 0, "disabled cache records nothing");
    }

    #[test]
    fn expression_queries_are_served_and_cached_canonically() {
        let s = server(ServeConfig {
            num_shards: 3,
            cache_capacity: 32,
            ..ServeConfig::default()
        });
        let a = s
            .execute(&Request::expr("(0 OR 1) AND 5 AND NOT 2"))
            .expect("valid");
        // An equivalent expression — reordered, duplicated, De Morgan'd —
        // must hit the same cache entry.
        let b = s
            .execute(&Request::expr(
                "5 AND NOT 2 AND NOT (NOT 1 AND NOT 0) AND 5",
            ))
            .expect("valid");
        assert_eq!(a.docs, b.docs);
        let stats = s.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.expr_queries_served, 2);
        assert_eq!(stats.queries_served, 2);
    }

    #[test]
    fn flat_and_expression_paths_share_the_cache() {
        let s = server(ServeConfig {
            num_shards: 2,
            cache_capacity: 32,
            ..ServeConfig::default()
        });
        let flat = s.execute(&Request::terms(vec![1, 0])).expect("valid");
        let expr = s.execute(&Request::expr("0 AND 1")).expect("valid");
        assert_eq!(flat.docs, expr.docs);
        assert_eq!(s.stats().cache.hits, 1, "expression hit the flat entry");
    }

    #[test]
    fn expression_matches_flat_conjunction_results() {
        for mode in [
            ExecMode::Fixed(Strategy::Merge),
            ExecMode::Planned(Planner::default()),
        ] {
            let s = server(ServeConfig {
                mode,
                cache_capacity: 0,
                ..ServeConfig::default()
            });
            assert_eq!(
                s.execute(&Request::expr("0 AND 1 AND 9"))
                    .expect("valid")
                    .docs,
                s.execute(&Request::terms(vec![0, 1, 9]))
                    .expect("valid")
                    .docs
            );
        }
    }

    #[test]
    fn invalid_queries_are_rejected_not_panicked() {
        let s = server(ServeConfig::default());
        assert!(matches!(
            s.execute(&Request::expr("0 AND")),
            Err(QueryError::Compile(fsi_query::CompileError::Parse(_)))
        ));
        assert!(matches!(
            s.execute(&Request::expr("NOT 0")),
            Err(QueryError::Compile(fsi_query::CompileError::Rewrite(_)))
        ));
        let err = s
            .execute(&Request::expr("0 AND 99999"))
            .expect_err("unknown term");
        assert!(
            matches!(err, QueryError::UnknownTerm { term: 99999, .. }),
            "{err}"
        );
        let err = s
            .execute(&Request::terms(vec![0, 99999]))
            .expect_err("unknown term");
        assert!(matches!(err, QueryError::UnknownTerm { term: 99999, .. }));
        assert_eq!(
            s.stats().queries_served,
            0,
            "rejected queries are not counted"
        );
    }

    #[test]
    fn traced_request_matches_untraced_and_carries_spans() {
        let s = server(ServeConfig {
            mode: ExecMode::Planned(Planner::default()),
            num_shards: 3,
            cache_capacity: 16,
            ..ServeConfig::default()
        });
        let src = "(0 OR 1) AND 5 AND NOT 2";
        let traced = s.execute(&Request::expr(src).traced()).expect("valid");
        let trace = traced.trace.as_ref().expect("trace recorded");
        let plain = s.execute(&Request::expr(src)).expect("valid");
        assert_eq!(plain.docs, traced.docs, "tracing must not change results");
        for span in ["parse", "rewrite", "cache", "exec"] {
            assert!(trace.span(span).is_some(), "missing span {span}");
        }
        // Per-shard spans carry the plan and the estimate/observation pair.
        for i in 0..3 {
            let span = trace
                .span(&format!("shard{i}.exec"))
                .unwrap_or_else(|| panic!("missing shard{i}.exec"));
            assert_eq!(span.get("mode"), Some("planned"));
            assert!(span.get("kind").is_some());
            assert!(span.get("est_rows").is_some());
            assert!(span.get("rows").is_some());
        }
        assert_eq!(
            traced.plan_kind,
            trace.span("shard0.exec").and_then(|sp| sp.get("kind")),
            "response metadata mirrors shard 0's span"
        );
        let rendered = trace.render();
        assert!(rendered.contains("shard0.exec"), "{rendered}");
        assert!(trace.to_json().contains("\"spans\""));
        // A second traced run hits the entry the first one inserted and
        // returns early: cache span says hit, no exec span.
        let again = s.execute(&Request::expr(src).traced()).expect("valid");
        let trace2 = again.trace.as_ref().expect("trace recorded");
        assert_eq!(again.docs, traced.docs);
        assert_eq!(again.cache, CacheOutcome::Hit);
        assert_eq!(
            trace2.span("cache").and_then(|s| s.get("outcome")),
            Some("hit")
        );
        assert!(trace2.span("exec").is_none());
    }

    #[test]
    fn traced_miss_records_exec_and_insert() {
        let s = server(ServeConfig {
            mode: ExecMode::Planned(Planner::default()),
            num_shards: 2,
            cache_capacity: 8,
            ..ServeConfig::default()
        });
        let resp = s
            .execute(&Request::expr("0 AND 9").traced())
            .expect("valid");
        let trace = resp.trace.as_ref().expect("trace recorded");
        assert_eq!(
            trace.span("cache").and_then(|s| s.get("outcome")),
            Some("miss")
        );
        let exec = trace.span("exec").expect("exec span");
        assert!(exec.get("simd").is_some());
        assert_eq!(exec.get("shards"), Some("2"));
        let insert = trace.span("cache_insert").expect("insert event");
        assert_eq!(insert.get("fresh"), Some("true"));
        // Traced queries count like any other expression query.
        assert_eq!(s.stats().expr_queries_served, 1);
    }

    #[test]
    fn explain_renders_per_shard_plans_in_planned_mode_only() {
        let planned = server(ServeConfig {
            mode: ExecMode::Planned(Planner::default()),
            num_shards: 2,
            ..ServeConfig::default()
        });
        // The EXPLAIN prefix turns a plain execute into an explain.
        let resp = planned
            .execute(&Request::expr("EXPLAIN (0 OR 1) AND 5"))
            .expect("valid");
        let plain = resp.explain.as_ref().expect("explain rendered");
        assert!(resp.docs.is_empty(), "EXPLAIN serves no documents");
        assert!(plain.contains("-- shard 0"), "{plain}");
        assert!(plain.contains("-- shard 1"), "{plain}");
        assert!(plain.contains("est_cost"), "{plain}");
        assert!(!plain.contains("time"), "plain EXPLAIN has no timings");
        let analyzed = planned
            .execute(&Request::expr("EXPLAIN ANALYZE (0 OR 1) AND 5"))
            .expect("valid")
            .explain
            .expect("explain rendered");
        assert!(analyzed.contains("EXPLAIN ANALYZE"), "{analyzed}");
        assert!(analyzed.contains("rows"), "{analyzed}");
        // Bare queries take the option's default mode.
        let defaulted = planned
            .execute(&Request::expr("0 AND 5").explain(fsi_query::ExplainMode::Analyze))
            .expect("valid")
            .explain
            .expect("explain rendered");
        assert!(defaulted.contains("EXPLAIN ANALYZE"), "{defaulted}");
        // EXPLAIN does not serve documents.
        assert_eq!(planned.stats().queries_served, 0);
        // Fixed mode has no cost model to render.
        let fixed = server(ServeConfig {
            mode: ExecMode::Fixed(Strategy::Merge),
            ..ServeConfig::default()
        });
        assert_eq!(
            fixed
                .execute(&Request::expr("EXPLAIN 0 AND 1"))
                .expect_err("no planner"),
            QueryError::NeedsPlanner
        );
    }

    #[test]
    fn expired_deadline_sheds_without_executing() {
        let s = server(ServeConfig::default());
        let resp = s
            .execute(
                &Request::terms(vec![0, 1]).deadline(Instant::now() - Duration::from_millis(1)),
            )
            .expect("shed is not an error");
        assert_eq!(
            resp.disposition,
            Disposition::Shed(ShedReason::DeadlineExpired)
        );
        assert!(resp.docs.is_empty());
        assert_eq!(resp.cache, CacheOutcome::Bypassed);
        let stats = s.stats();
        assert_eq!(stats.queries_served, 0, "shed requests serve nothing");
        assert_eq!(stats.queries_shed, 1);
        // A generous deadline serves normally.
        let ok = s
            .execute(&Request::terms(vec![0, 1]).deadline_in(Duration::from_secs(60)))
            .expect("valid");
        assert!(ok.is_served());
        assert_eq!(s.stats().queries_served, 1);
    }

    #[test]
    fn planner_override_changes_plans_not_results() {
        let s = server(ServeConfig {
            mode: ExecMode::Planned(Planner::default()),
            cache_capacity: 0,
            ..ServeConfig::default()
        });
        let base = s.execute(&Request::expr("0 AND 1 AND 9")).expect("valid");
        let pressured = PlannerProfile::auto().memory_pressured(100.0).planner();
        let overridden = s
            .execute(&Request::expr("0 AND 1 AND 9").planner(pressured))
            .expect("valid");
        assert_eq!(base.docs, overridden.docs, "plans vary, results never");
        assert!(overridden.plan_kind.is_some());
        // Fixed engines have no planner to override.
        let fixed = server(ServeConfig {
            mode: ExecMode::Fixed(Strategy::Merge),
            ..ServeConfig::default()
        });
        assert_eq!(
            fixed
                .execute(&Request::terms(vec![0, 1]).planner(Planner::default()))
                .expect_err("no planner"),
            QueryError::NeedsPlanner
        );
    }

    #[test]
    fn tenant_requests_are_billed_per_tenant() {
        let s = server(ServeConfig::default());
        s.execute(&Request::terms(vec![0, 1]).tenant(7))
            .expect("valid");
        s.execute(&Request::terms(vec![0, 2]).tenant(7))
            .expect("valid");
        s.execute(&Request::terms(vec![0, 3]).tenant(9))
            .expect("valid");
        s.execute(&Request::terms(vec![0, 4])).expect("valid");
        let snap = s.metrics();
        assert_eq!(
            snap.counter("fsi_tenant_queries_total", &[("tenant", "7")]),
            Some(2)
        );
        assert_eq!(
            snap.counter("fsi_tenant_queries_total", &[("tenant", "9")]),
            Some(1)
        );
        assert_eq!(snap.counter("fsi_queries_served_total", &[]), Some(4));
    }

    #[test]
    fn tenant_label_cardinality_is_capped() {
        // A tenant-id sweep (ids are client-controlled) must not grow the
        // registry without bound: past the cap, tenants collapse into the
        // `other` label.
        let s = server(ServeConfig::default());
        let sweep = Server::TENANT_LABEL_CAP as u32 + 10;
        for t in 0..sweep {
            s.execute(&Request::terms(vec![0, 1]).tenant(t))
                .expect("valid");
        }
        let snap = s.metrics();
        let tenant_series = snap
            .entries
            .iter()
            .filter(|e| e.name == "fsi_tenant_queries_total")
            .count();
        assert_eq!(tenant_series, Server::TENANT_LABEL_CAP + 1);
        assert_eq!(
            snap.counter("fsi_tenant_queries_total", &[("tenant", "other")]),
            Some(10),
            "over-cap tenants share the overflow label"
        );
        assert_eq!(
            snap.counter("fsi_tenant_queries_total", &[("tenant", "0")]),
            Some(1),
            "under-cap tenants keep their own series"
        );
        assert_eq!(snap.sum("fsi_tenant_queries_total"), u64::from(sweep));
    }

    #[test]
    fn empty_conjunction_options_are_rejected_cleanly() {
        let s = server(ServeConfig::default());
        // The empty flat query itself executes (every document matches
        // nothing — an empty result by convention of the engine).
        let resp = s.execute(&Request::terms(vec![])).expect("valid");
        assert!(resp.is_served());
        // But it has no expression form to explain or trace.
        assert!(matches!(
            s.execute(&Request::terms(vec![]).explain(ExplainMode::Plan)),
            Err(QueryError::Unsupported(_))
        ));
        assert!(matches!(
            s.execute(&Request::terms(vec![]).traced()),
            Err(QueryError::Unsupported(_))
        ));
    }

    #[test]
    fn flat_options_route_through_the_expression_engine() {
        let s = server(ServeConfig {
            mode: ExecMode::Planned(Planner::default()),
            num_shards: 2,
            cache_capacity: 16,
            ..ServeConfig::default()
        });
        let plain = s.execute(&Request::terms(vec![1, 0])).expect("valid");
        // A traced flat request hits the same cache entry and counts as a
        // flat query, not an expression query.
        let traced = s
            .execute(&Request::terms(vec![0, 1]).traced())
            .expect("valid");
        assert_eq!(plain.docs, traced.docs);
        assert_eq!(traced.cache, CacheOutcome::Hit);
        assert!(traced.trace.is_some());
        assert_eq!(s.stats().expr_queries_served, 0);
        assert_eq!(s.stats().queries_served, 2);
        // EXPLAIN of a flat request renders the conjunction's plan.
        let explained = s
            .execute(&Request::terms(vec![0, 1]).explain(ExplainMode::Plan))
            .expect("valid");
        assert!(explained.explain.expect("rendered").contains("est_cost"));
    }

    #[test]
    fn metrics_snapshot_carries_counters_cache_gauges_and_latency() {
        let s = server(ServeConfig {
            num_shards: 2,
            cache_capacity: 16,
            ..ServeConfig::default()
        });
        s.execute(&Request::terms(vec![0, 1])).expect("valid");
        s.execute(&Request::terms(vec![0, 1])).expect("valid");
        s.execute(&Request::expr("3 AND 4")).expect("valid");
        let snap = s.metrics();
        assert_eq!(snap.counter("fsi_queries_served_total", &[]), Some(3));
        assert_eq!(snap.counter("fsi_expr_queries_served_total", &[]), Some(1));
        assert_eq!(snap.gauge("fsi_cache_hits", &[]), Some(1));
        assert_eq!(snap.gauge("fsi_shards", &[]), Some(2));
        assert!(snap
            .gauge("fsi_cache_segment_entries", &[("segment", "0")])
            .is_some());
        let hist = snap
            .histogram("fsi_query_latency_ns", &[])
            .expect("latency histogram registered");
        assert_eq!(hist.count, 3);
        // The global registry's dispatch counters merge in (the server ran
        // real intersections, so at least one planner/kernel counter is
        // nonzero process-wide).
        assert!(
            snap.sum("fsi_plan_kind_total") + snap.sum("fsi_kernel_pair_dispatch_total") > 0
                || snap.sum("fsi_kernel_multiway_dispatch_total") > 0
        );
        // Both render targets stay well-formed.
        let prom = snap.to_prometheus();
        assert!(prom.contains("fsi_queries_served_total 3"), "{prom}");
        assert!(snap.to_json().starts_with('{'));
        // stats() is a typed view over the same registry.
        let stats = s.stats();
        assert_eq!(stats.queries_served, 3);
        assert_eq!(stats.latency.count, 3);
        assert!(stats.latency.max_us > 0.0);
    }

    #[test]
    fn batch_latencies_fold_into_server_histogram() {
        let s = server(ServeConfig {
            num_shards: 2,
            num_workers: 3,
            ..ServeConfig::default()
        });
        let requests: Vec<Request> = (0..12)
            .map(|i| Request::terms(vec![i % 4, 8 + i % 2]))
            .collect();
        let outcome = s.execute_batch(&requests);
        assert_eq!(outcome.latency_hist.count, 12);
        let stats = s.stats();
        assert_eq!(stats.latency.count, 12, "batch latencies recorded");
        s.execute(&Request::terms(vec![0, 1])).expect("valid");
        assert_eq!(
            s.stats().latency.count,
            13,
            "single queries join the same histogram"
        );
    }

    #[test]
    fn mixed_batches_carry_per_request_errors() {
        let s = server(ServeConfig {
            num_workers: 2,
            ..ServeConfig::default()
        });
        let requests = vec![
            Request::terms(vec![0, 1]),
            Request::expr("NOT 0"),
            Request::expr("(2 OR 3) AND 4"),
            Request::terms(vec![99999]),
        ];
        let batch = s.execute_batch(&requests);
        assert!(batch.responses[0].is_ok());
        assert!(matches!(batch.responses[1], Err(QueryError::Compile(_))));
        assert!(batch.responses[2].is_ok());
        assert!(matches!(
            batch.responses[3],
            Err(QueryError::UnknownTerm { term: 99999, .. })
        ));
        assert_eq!(s.stats().queries_served, 2, "only valid requests count");
    }

    #[test]
    fn planned_mode_end_to_end() {
        let s = server(ServeConfig {
            mode: ExecMode::Planned(Planner::default()),
            num_shards: 3,
            ..ServeConfig::default()
        });
        let fixed = server(ServeConfig {
            mode: ExecMode::Fixed(Strategy::Merge),
            num_shards: 1,
            ..ServeConfig::default()
        });
        for q in [vec![0usize, 1], vec![2, 3, 10], vec![20]] {
            assert_eq!(
                s.execute(&Request::terms(q.clone())).expect("valid").docs,
                fixed
                    .execute(&Request::terms(q.clone()))
                    .expect("valid")
                    .docs,
                "{q:?}"
            );
        }
    }
}
