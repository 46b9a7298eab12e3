//! Document-partitioned sharding over [`fsi_index::SearchEngine`].
//!
//! Posting lists are split into `N` contiguous document-ID ranges; each
//! shard preprocesses its slice of every posting list under the configured
//! execution mode. A conjunctive query runs independently per shard, and
//! because the ranges are disjoint and ascending, the global result is the
//! plain concatenation of per-shard results — sorted output is preserved
//! with zero merge cost.
//!
//! Every prepared structure is immutable and `Send + Sync` (the paper
//! treats multi-core parallelism as orthogonal to the algorithms; sharding
//! is where this repository cashes that in), so shards can be queried from
//! any number of threads concurrently.

use crate::config::ExecMode;
use fsi_core::Elem;
use fsi_index::{OwnedExecutor, PlannedExecutor, Planner, SearchEngine};
use fsi_obs::TraceBuilder;
use fsi_query::{ExplainMode, ExprPlan, ExprPlanner, NormExpr, PlanNode};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::OnceLock;

/// The top-level operator label of a plan (what the trace span reports as
/// the chosen `PlanKind`).
fn plan_kind_label(plan: &ExprPlan) -> &'static str {
    match &plan.node {
        PlanNode::Term(_) => "Term",
        PlanNode::And { kind, .. } => match kind {
            fsi_query::AndKind::Multiway(m) => m.kind.name(),
            fsi_query::AndKind::SliceProbe => "SliceProbe",
        },
        PlanNode::Or { kind, .. } => match kind {
            fsi_query::UnionKind::HeapMerge => "HeapMerge",
            fsi_query::UnionKind::BitmapOr => "BitmapOr",
        },
    }
}

/// The trace span name of shard `i`, `shard{i}.exec`. The names of the
/// first 64 shards are rendered once per process, so recording a shard
/// span copies a reference instead of allocating a name.
fn shard_span_name(i: usize) -> Cow<'static, str> {
    static NAMES: OnceLock<Vec<String>> = OnceLock::new();
    let names = NAMES.get_or_init(|| (0..64).map(|i| format!("shard{i}.exec")).collect());
    match names.get(i) {
        Some(name) => Cow::Borrowed(name),
        None => Cow::Owned(format!("shard{i}.exec")),
    }
}

/// Per-shard prepared state under one execution mode.
#[derive(Debug)]
enum ShardIndex {
    /// All terms preprocessed under one fixed strategy.
    Fixed(OwnedExecutor),
    /// All terms preprocessed for every representation the cost-model
    /// planner can bind; each query runs one whole-list
    /// [`fsi_index::MultiwayPlan`].
    Planned(PlannedExecutor),
}

/// One document shard: prepared state plus the ID range it covers.
///
/// Ranges are `u64` so the exclusive end can express "past `u32::MAX`"
/// (document ID `u32::MAX` is a legal [`Elem`]).
#[derive(Debug)]
struct Shard {
    index: ShardIndex,
    docs: Range<u64>,
    /// Trace span name (`shard{idx}.exec`).
    span_name: Cow<'static, str>,
}

impl Shard {
    /// Appends the shard's sorted intersection of `terms` to `out` (shards
    /// share one output buffer) and reports the chosen kernel of the
    /// executed multiway plan (`None` under a fixed strategy, which plans
    /// nothing).
    fn query_into(&self, terms: &[usize], out: &mut Vec<Elem>) -> Option<&'static str> {
        match &self.index {
            ShardIndex::Fixed(exec) => {
                exec.query_into(terms, out);
                None
            }
            ShardIndex::Planned(exec) => Some(exec.query_into(terms, out).kind.name()),
        }
    }

    /// Appends the shard's expression result to `out` and reports the
    /// plan's root operator label. Planned shards run the full cost-based
    /// expression plan over shard-local statistics, under `planner` when
    /// given instead of their own; fixed shards evaluate structurally
    /// through their own strategy (and report `None`).
    ///
    /// With a trace builder, the shard records one span carrying the
    /// chosen plan, its estimates and the observed result size: the
    /// planner-misprediction signal at per-shard granularity.
    fn query_expr_into(
        &self,
        expr: &NormExpr,
        out: &mut Vec<Elem>,
        planner: Option<&Planner>,
        tb: Option<&mut TraceBuilder>,
    ) -> Option<&'static str> {
        let start = tb.as_ref().map(|tb| tb.start_span());
        let before = out.len();
        let plan = match &self.index {
            ShardIndex::Fixed(exec) => {
                fsi_query::eval_owned_into(exec, expr, out);
                None
            }
            ShardIndex::Planned(exec) => {
                let planner = ExprPlanner::new(planner.unwrap_or_else(|| exec.planner()).clone());
                Some(fsi_query::eval_planned_into(exec, &planner, expr, out))
            }
        };
        let kind = plan.as_ref().map(plan_kind_label);
        if let (Some(tb), Some(start)) = (tb, start) {
            let span = tb.end_span(start, self.span_name.clone());
            match (&plan, kind) {
                // The chosen root operator rides along as a cheap static
                // label, and the estimates round to integers; the full plan
                // tree is deliberately NOT rendered here (that is EXPLAIN's
                // job) — a `describe()` per shard per query costs more than
                // the tracing budget allows.
                (Some(plan), Some(kind)) => span
                    .attr("mode", "planned")
                    .attr("docs", self.docs.clone())
                    .attr("kind", kind)
                    .attr("est_rows", plan.est_rows.round() as u64)
                    .attr("est_cost", plan.est_cost.round() as u64),
                _ => span.attr("mode", "fixed").attr("docs", self.docs.clone()),
            }
            .attr("rows", out.len() - before);
        }
        kind
    }

    /// Shard-local `EXPLAIN` (planned shards only — the fixed path has no
    /// cost model to render), optionally under a per-request planner.
    fn explain(
        &self,
        expr: &NormExpr,
        mode: ExplainMode,
        planner: Option<&Planner>,
    ) -> Option<String> {
        match &self.index {
            ShardIndex::Fixed(_) => None,
            ShardIndex::Planned(exec) => {
                let planner = ExprPlanner::new(planner.unwrap_or_else(|| exec.planner()).clone());
                Some(fsi_query::explain(exec, &planner, expr, mode))
            }
        }
    }

    fn size_in_bytes(&self) -> usize {
        match &self.index {
            ShardIndex::Fixed(exec) => exec.size_in_bytes(),
            ShardIndex::Planned(exec) => exec.size_in_bytes(),
        }
    }
}

/// A search engine partitioned into document shards.
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Shard>,
    num_terms: usize,
    mode: ExecMode,
}

impl ShardedEngine {
    /// Partitions `engine` into `num_shards` equal document-ID ranges and
    /// preprocesses each under `mode`.
    pub fn build(engine: &SearchEngine, num_shards: usize, mode: ExecMode) -> Self {
        let num_shards = num_shards.max(1);
        // u64 throughout: `max_doc` can be `u32::MAX`, whose successor (the
        // exclusive end of the document space) does not fit an Elem.
        let end = engine.max_doc().map_or(0u64, |m| m as u64 + 1);
        let span = end.div_ceil(num_shards as u64).max(1);
        let shards = (0..num_shards as u64)
            .map(|i| {
                let docs = (i * span).min(end)..((i + 1) * span).min(end);
                let sub = engine.restricted(docs.clone());
                let index = match &mode {
                    ExecMode::Fixed(strategy) => ShardIndex::Fixed(sub.into_executor(*strategy)),
                    ExecMode::Planned(planner) => {
                        ShardIndex::Planned(sub.planned_executor(planner.clone()))
                    }
                };
                Shard {
                    index,
                    span_name: shard_span_name(i as usize),
                    docs,
                }
            })
            .collect();
        Self {
            shards,
            num_terms: engine.num_terms(),
            mode,
        }
    }

    /// Number of document shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of terms in the underlying index.
    pub fn num_terms(&self) -> usize {
        self.num_terms
    }

    /// The execution mode shards were prepared under.
    pub fn mode(&self) -> &ExecMode {
        &self.mode
    }

    /// The document-ID range shard `i` covers (`u64` because the exclusive
    /// end of the last shard can be `u32::MAX as u64 + 1`).
    pub fn shard_range(&self, i: usize) -> Range<u64> {
        // audit:allow(hot_path_index): public accessor with a documented shard-index contract
        self.shards[i].docs.clone()
    }

    /// Total heap footprint of all prepared shard indexes.
    pub fn size_in_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.size_in_bytes()).sum()
    }

    /// Answers the conjunctive query `terms` in ascending document order,
    /// running shards sequentially on the calling thread.
    ///
    /// The result is identical to `SearchEngine::executor(strategy).query`
    /// on the unsharded engine (the differential tests assert byte
    /// equality).
    pub fn query(&self, terms: &[usize]) -> Vec<Elem> {
        self.query_terms(terms).0
    }

    /// Evaluates a boolean expression in ascending document order, running
    /// shards sequentially on the calling thread.
    ///
    /// Union, intersection, and difference all distribute over restriction
    /// to a document range (`(A ∪ B)|ᵣ = A|ᵣ ∪ B|ᵣ`, likewise `∩`/`∖`), and
    /// shard ranges are disjoint and ascending — so, exactly as with flat
    /// conjunctions, the global result is the plain concatenation of
    /// per-shard results (asserted shard-count-invariant by
    /// `tests/query_differential.rs`).
    pub fn query_expr(&self, expr: &NormExpr) -> Vec<Elem> {
        self.eval(expr, None, None).0
    }

    /// [`ShardedEngine::query`] plus the chosen kernel of shard 0's plan
    /// (`None` under a fixed strategy). Shards plan independently; the
    /// first shard's label is the response-metadata representative,
    /// per-shard detail being the trace's job.
    pub(crate) fn query_terms(&self, terms: &[usize]) -> (Vec<Elem>, Option<&'static str>) {
        self.each_shard(|shard, out| shard.query_into(terms, out))
    }

    /// [`ShardedEngine::query_expr`] under an optional per-request
    /// planner, plus shard 0's plan-kind label. With a trace builder, each
    /// shard records a `shard{i}.exec` span (`kind`, `est_rows`,
    /// `est_cost`, observed `rows`); spans on one builder need one thread,
    /// and every shard runs on the calling thread.
    pub(crate) fn eval(
        &self,
        expr: &NormExpr,
        planner: Option<&Planner>,
        mut tb: Option<&mut TraceBuilder>,
    ) -> (Vec<Elem>, Option<&'static str>) {
        self.each_shard(|shard, out| shard.query_expr_into(expr, out, planner, tb.as_deref_mut()))
    }

    /// Runs `f` over the shards in order, appending into one buffer
    /// (disjoint ascending ranges: appending preserves order), and keeps
    /// shard 0's plan label.
    fn each_shard(
        &self,
        mut f: impl FnMut(&Shard, &mut Vec<Elem>) -> Option<&'static str>,
    ) -> (Vec<Elem>, Option<&'static str>) {
        let mut out = Vec::new();
        let mut kind = None;
        for (i, shard) in self.shards.iter().enumerate() {
            let k = f(shard, &mut out);
            if i == 0 {
                kind = k;
            }
        }
        (out, kind)
    }

    /// Renders `EXPLAIN`/`EXPLAIN ANALYZE` for every shard, optionally
    /// under a per-request planner, concatenated with per-shard headers.
    /// Returns `None` in fixed-strategy mode, which has no cost model to
    /// render.
    pub(crate) fn explain(
        &self,
        expr: &NormExpr,
        mode: ExplainMode,
        planner: Option<&Planner>,
    ) -> Option<String> {
        let mut out = String::new();
        for (idx, shard) in self.shards.iter().enumerate() {
            let section = shard.explain(expr, mode, planner)?;
            out.push_str(&format!(
                "-- shard {idx} [docs {}..{}] --\n{section}",
                shard.docs.start, shard.docs.end
            ));
            if idx + 1 < self.shards.len() {
                out.push('\n');
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_core::HashContext;
    use fsi_index::{Corpus, CorpusConfig, Planner, Strategy};

    fn engine() -> SearchEngine {
        let corpus = Corpus::generate(CorpusConfig {
            num_docs: 30_000,
            num_terms: 48,
            ..CorpusConfig::default()
        });
        SearchEngine::from_corpus(HashContext::new(3), corpus)
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn sharded_engine_is_send_sync() {
        assert_send_sync::<ShardedEngine>();
    }

    #[test]
    fn shard_ranges_tile_the_document_space() {
        let engine = engine();
        let sharded = ShardedEngine::build(&engine, 5, ExecMode::Fixed(Strategy::Merge));
        let end = engine.max_doc().unwrap() as u64 + 1;
        let mut expect_start = 0u64;
        for i in 0..sharded.num_shards() {
            let r = sharded.shard_range(i);
            assert_eq!(r.start, expect_start);
            expect_start = r.end;
        }
        assert_eq!(expect_start, end);
    }

    #[test]
    fn max_document_id_is_served() {
        // Regression: boundary arithmetic used to run in u32, so a corpus
        // containing document u32::MAX overflowed (end = max_doc + 1) and
        // every shard came out empty.
        let ctx = HashContext::new(8);
        let postings = vec![
            fsi_core::SortedSet::from_unsorted(vec![0, 7, u32::MAX - 1, u32::MAX]),
            fsi_core::SortedSet::from_unsorted(vec![7, u32::MAX]),
        ];
        let engine = SearchEngine::from_postings(ctx, postings);
        let reference = engine.executor(Strategy::Merge);
        for shards in [1usize, 2, 5] {
            let sharded = ShardedEngine::build(&engine, shards, ExecMode::Fixed(Strategy::Merge));
            assert_eq!(sharded.query(&[0, 1]), reference.query(&[0, 1]));
            assert_eq!(sharded.query(&[0, 1]), vec![7, u32::MAX]);
        }
    }

    #[test]
    fn sharded_matches_unsharded_executor() {
        let engine = engine();
        let reference = engine.executor(Strategy::Merge);
        let queries = [vec![0usize, 1], vec![2, 9, 30], vec![7], vec![]];
        for shards in [1usize, 2, 3, 7] {
            let sharded = ShardedEngine::build(&engine, shards, ExecMode::Fixed(Strategy::Merge));
            for q in &queries {
                assert_eq!(
                    sharded.query(q),
                    reference.query(q),
                    "shards={shards} q={q:?}"
                );
            }
        }
    }

    #[test]
    fn planned_mode_matches_fixed_results() {
        let engine = engine();
        let fixed = ShardedEngine::build(&engine, 3, ExecMode::Fixed(Strategy::Merge));
        let planned = ShardedEngine::build(&engine, 3, ExecMode::Planned(Planner::default()));
        for q in [vec![0usize, 1], vec![2, 9, 30], vec![40, 41], vec![6]] {
            assert_eq!(planned.query(&q), fixed.query(&q), "{q:?}");
        }
    }

    #[test]
    fn memory_pressured_mode_matches_fixed_results() {
        // A hot bytes_unit pushes plans into the compressed domain
        // (CompressedGallop over block postings); answers must stay
        // byte-identical to the flat reference across shard counts.
        let engine = engine();
        let fixed = ShardedEngine::build(&engine, 1, ExecMode::Fixed(Strategy::Merge));
        for shards in [1usize, 2, 3, 7] {
            let pressured = ShardedEngine::build(
                &engine,
                shards,
                crate::PlannerProfile::auto().memory_pressured(100.0).mode(),
            );
            for q in [vec![0usize, 1], vec![2, 9, 30], vec![40, 41], vec![6]] {
                assert_eq!(
                    pressured.query(&q),
                    fixed.query(&q),
                    "shards={shards} {q:?}"
                );
            }
        }
    }

    #[test]
    fn expression_results_are_shard_count_invariant() {
        let engine = engine();
        let exprs: Vec<NormExpr> = [
            "0 AND 1",
            "0 OR 9 OR 17",
            "2 AND NOT 9",
            "(0 OR 1) AND (2 OR 3) AND NOT 40",
            "30 AND (5 OR NOT 6)",
        ]
        .iter()
        .map(|s| fsi_query::compile(s).expect("compiles"))
        .collect();
        for mode in [
            ExecMode::Fixed(Strategy::Merge),
            ExecMode::Planned(Planner::default()),
        ] {
            let single = ShardedEngine::build(&engine, 1, mode.clone());
            for shards in [2usize, 3, 7] {
                let sharded = ShardedEngine::build(&engine, shards, mode.clone());
                for e in &exprs {
                    assert_eq!(
                        sharded.query_expr(e),
                        single.query_expr(e),
                        "shards={shards} expr={e}"
                    );
                    let mut tb = TraceBuilder::new(e.to_string());
                    assert_eq!(
                        sharded.eval(e, None, Some(&mut tb)).0,
                        single.query_expr(e),
                        "traced shards={shards} expr={e}"
                    );
                    assert_eq!(tb.finish().spans.len(), shards, "one span per shard");
                }
            }
        }
    }

    #[test]
    fn expression_conjunctions_match_the_flat_path() {
        // `a AND b` through the expression engine must be byte-identical
        // to the flat `[a, b]` path on the same shards.
        let engine = engine();
        for mode in [
            ExecMode::Fixed(Strategy::RanGroupScan { m: 2 }),
            ExecMode::Planned(Planner::default()),
        ] {
            let sharded = ShardedEngine::build(&engine, 3, mode);
            for (src, terms) in [
                ("0 AND 1", vec![0usize, 1]),
                ("9 AND 2 AND 30", vec![2, 9, 30]),
                ("7", vec![7]),
            ] {
                let expr = fsi_query::compile(src).expect("compiles");
                assert_eq!(sharded.query_expr(&expr), sharded.query(&terms), "{src}");
            }
        }
    }

    #[test]
    fn every_shard_keeps_the_bitmaps_of_its_dense_lists() {
        // Regression: bitmap admission and the expression planner's
        // universe used to be measured against absolute document ids, so
        // shards far from document 0 dropped the bitmaps of lists that are
        // just as dense there, and planned `0 AND 1` without the word
        // sweep. Four shards of two chunks each.
        let num_docs = 8u32 << 16;
        let ctx = HashContext::new(10);
        let postings: Vec<fsi_core::SortedSet> = [2u32, 3, 20, 5_000]
            .iter()
            .map(|&step| (0..num_docs).filter(|d| d % step == 0).collect())
            .collect();
        let engine = SearchEngine::from_postings(ctx, postings);
        let reference = engine.executor(Strategy::Merge);
        let sharded = ShardedEngine::build(&engine, 4, ExecMode::Planned(Planner::default()));
        assert_eq!(sharded.query(&[0, 1]), reference.query(&[0, 1]));
        for (i, shard) in sharded.shards.iter().enumerate() {
            let ShardIndex::Planned(exec) = &shard.index else {
                panic!("planned mode builds planned shards");
            };
            // Terms 0–2 are 50%, 33% and 5% dense in every shard; term 3
            // (one document in 5 000) is too sparse for a bitmap anywhere.
            for t in 0..3 {
                assert!(exec.list(t).stats().chunks.is_some(), "shard {i} term {t}");
            }
            assert_eq!(exec.list(3).stats().chunks, None, "shard {i}");
            assert_eq!(
                exec.plan(&[0, 1]).kind,
                fsi_index::PlanKind::BitmapAnd,
                "shard {i}"
            );
            assert_eq!(
                exec.universe(),
                shard.docs.end - shard.docs.start,
                "shard {i}"
            );
        }
    }

    #[test]
    fn more_shards_than_documents_is_fine() {
        let ctx = HashContext::new(9);
        let postings = vec![
            fsi_core::SortedSet::from_unsorted(vec![0, 1, 2]),
            fsi_core::SortedSet::from_unsorted(vec![1, 2]),
        ];
        let engine = SearchEngine::from_postings(ctx, postings);
        let sharded = ShardedEngine::build(&engine, 64, ExecMode::Fixed(Strategy::Merge));
        assert_eq!(sharded.query(&[0, 1]), vec![1, 2]);
    }

    #[test]
    fn size_accounting_sums_shards() {
        let engine = engine();
        let sharded = ShardedEngine::build(&engine, 4, ExecMode::Fixed(Strategy::Lookup));
        assert!(sharded.size_in_bytes() > 0);
        assert_eq!(sharded.num_terms(), engine.num_terms());
    }
}
