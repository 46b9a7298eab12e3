//! A small in-memory conjunctive query engine — the substrate the paper's
//! motivating applications (enterprise/web search, conjunctive predicates)
//! run on. A [`SearchEngine`] owns the posting lists; an [`Executor`]
//! preprocesses every list under one [`Strategy`] and answers multi-term
//! queries with the corresponding intersection algorithm.

use crate::corpus::Corpus;
use crate::planner::{PlannedExecutor, Planner};
use crate::strategy::{intersect_into, PreparedList, Strategy};
use fsi_core::elem::{Elem, SortedSet};
use fsi_core::hash::HashContext;
use std::ops::Range;

/// An in-memory inverted index with pluggable intersection strategies.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    ctx: HashContext,
    postings: Vec<SortedSet>,
    /// The document range [`SearchEngine::restricted`] clipped to; `None`
    /// for an engine over the whole document space.
    docs: Option<Range<u64>>,
}

impl SearchEngine {
    /// Builds the engine over explicit posting lists.
    pub fn from_postings(ctx: HashContext, postings: Vec<SortedSet>) -> Self {
        Self {
            ctx,
            postings,
            docs: None,
        }
    }

    /// Builds the engine over a synthetic corpus.
    pub fn from_corpus(ctx: HashContext, corpus: Corpus) -> Self {
        Self::from_postings(ctx, corpus.into_postings())
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.postings.len()
    }

    /// The raw posting list of a term.
    pub fn posting(&self, term: usize) -> &SortedSet {
        // audit:allow(hot_path_index): public accessor with a documented term-id contract; a bounds panic is the misuse signal
        &self.postings[term]
    }

    /// The shared hash context.
    pub fn ctx(&self) -> &HashContext {
        &self.ctx
    }

    /// All posting lists, term-indexed.
    pub fn postings(&self) -> &[SortedSet] {
        &self.postings
    }

    /// The largest document ID present in any posting list, if any.
    pub fn max_doc(&self) -> Option<Elem> {
        self.postings.iter().filter_map(|p| p.max()).max()
    }

    /// Size of the document space this engine covers: the width of the
    /// range it was [restricted](SearchEngine::restricted) to, or
    /// `max_doc + 1` (0 when empty) for an unrestricted engine.
    pub fn universe(&self) -> u64 {
        match &self.docs {
            Some(docs) => docs.end.saturating_sub(docs.start),
            None => self.max_doc().map_or(0, |m| m as u64 + 1),
        }
    }

    /// A sub-engine whose posting lists are clipped to the document-ID
    /// range `docs` (what a document-partitioned shard holds). The hash
    /// context is shared, so prepared lists from different sub-engines stay
    /// mutually consistent. The sub-engine records the range, so its
    /// [`SearchEngine::universe`] is the range's width.
    ///
    /// The range is `u64` so the half-open end can express "past
    /// `u32::MAX`" — document ID `u32::MAX` is a legal [`Elem`], and an
    /// exclusive `u32` bound could never include it.
    pub fn restricted(&self, docs: Range<u64>) -> SearchEngine {
        let postings = self
            .postings
            .iter()
            .map(|p| {
                let s = p.as_slice();
                let lo = s.partition_point(|&d| (d as u64) < docs.start);
                let hi = s.partition_point(|&d| (d as u64) < docs.end);
                SortedSet::from_sorted_unchecked(s[lo..hi].to_vec())
            })
            .collect();
        SearchEngine {
            ctx: self.ctx.clone(),
            postings,
            docs: Some(docs),
        }
    }

    /// Preprocesses **all** terms under `strategy` and returns an executor.
    pub fn executor(&self, strategy: Strategy) -> Executor<'_> {
        let prepared = self
            .postings
            .iter()
            .map(|p| strategy.prepare(&self.ctx, p))
            .collect();
        Executor {
            engine: self,
            strategy,
            prepared,
        }
    }

    /// Preprocesses **all** terms for cost-model planner dispatch — the
    /// k-way sibling of [`SearchEngine::executor`]: instead of pinning one
    /// strategy, every query is planned whole ([`crate::MultiwayPlan`])
    /// over all its terms at once.
    pub fn planned_executor(&self, planner: Planner) -> PlannedExecutor {
        PlannedExecutor::build(self, planner)
    }

    /// Like [`SearchEngine::executor`], but consumes the engine, keeping
    /// only the prepared structures — the self-contained (`'static`) form
    /// a serving shard stores. The raw posting lists are dropped:
    /// [`PreparedList`] owns everything queries need, so retaining them
    /// would roughly double resident memory per shard.
    pub fn into_executor(self, strategy: Strategy) -> OwnedExecutor {
        let prepared = self
            .postings
            .iter()
            .map(|p| strategy.prepare(&self.ctx, p))
            .collect();
        OwnedExecutor { strategy, prepared }
    }
}

/// A fully preprocessed index under one strategy.
#[derive(Debug)]
pub struct Executor<'a> {
    engine: &'a SearchEngine,
    strategy: Strategy,
    prepared: Vec<PreparedList>,
}

impl Executor<'_> {
    /// The strategy this executor runs.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The engine this executor was built from.
    pub fn engine(&self) -> &SearchEngine {
        self.engine
    }

    /// The prepared list of a term (for harnesses that time raw calls).
    pub fn prepared(&self, term: usize) -> &PreparedList {
        // audit:allow(hot_path_index): public accessor with a documented term-id contract; a bounds panic is the misuse signal
        &self.prepared[term]
    }

    /// Total heap footprint of the preprocessed index.
    pub fn size_in_bytes(&self) -> usize {
        self.prepared.iter().map(|p| p.size_in_bytes()).sum()
    }

    /// Answers the conjunctive query `terms`, ascending document order.
    ///
    /// One term returns its full posting list; zero terms return nothing.
    pub fn query(&self, terms: &[usize]) -> Vec<Elem> {
        let mut out = self.query_unsorted(terms);
        out.sort_unstable();
        out
    }

    /// Answers the query in the algorithm's natural output order (what the
    /// benchmarks time; see `fsi_core::traits` on output order).
    pub fn query_unsorted(&self, terms: &[usize]) -> Vec<Elem> {
        let lists: Vec<&PreparedList> = terms.iter().map(|&t| &self.prepared[t]).collect();
        let mut out = Vec::new();
        intersect_into(&lists, &mut out);
        out
    }
}

/// A fully preprocessed, self-contained index — the `'static` sibling of
/// [`Executor`], storable inside long-lived serving structures (each shard
/// of a sharded serving engine holds one). Holds only the prepared lists,
/// not the source posting lists.
#[derive(Debug, Clone)]
pub struct OwnedExecutor {
    strategy: Strategy,
    prepared: Vec<PreparedList>,
}

impl OwnedExecutor {
    /// The strategy this executor runs.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.prepared.len()
    }

    /// The prepared list of a term.
    pub fn prepared(&self, term: usize) -> &PreparedList {
        // audit:allow(hot_path_index): public accessor with a documented term-id contract; a bounds panic is the misuse signal
        &self.prepared[term]
    }

    /// Total heap footprint of the preprocessed index.
    pub fn size_in_bytes(&self) -> usize {
        self.prepared.iter().map(|p| p.size_in_bytes()).sum()
    }

    /// Answers the conjunctive query `terms`, ascending document order.
    pub fn query(&self, terms: &[usize]) -> Vec<Elem> {
        let mut out = Vec::new();
        self.query_into(terms, &mut out);
        out
    }

    /// Appends the (ascending) answer to `out` without allocating — the
    /// hot-path form serving shards use to share one output buffer.
    pub fn query_into(&self, terms: &[usize], out: &mut Vec<Elem>) {
        let lists: Vec<&PreparedList> = terms.iter().map(|&t| &self.prepared[t]).collect();
        let start = out.len();
        intersect_into(&lists, out);
        out[start..].sort_unstable();
    }

    /// Answers the query in the algorithm's natural output order.
    pub fn query_unsorted(&self, terms: &[usize]) -> Vec<Elem> {
        let lists: Vec<&PreparedList> = terms.iter().map(|&t| &self.prepared[t]).collect();
        let mut out = Vec::new();
        intersect_into(&lists, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusConfig};
    use fsi_core::elem::reference_intersection;

    fn engine() -> SearchEngine {
        let corpus = Corpus::generate(CorpusConfig {
            num_docs: 20_000,
            num_terms: 64,
            ..CorpusConfig::default()
        });
        SearchEngine::from_corpus(HashContext::new(11), corpus)
    }

    #[test]
    fn all_executors_agree() {
        let engine = engine();
        let queries: Vec<Vec<usize>> =
            vec![vec![0, 1], vec![3, 10, 40], vec![5], vec![0, 63, 31, 7]];
        let reference = engine.executor(Strategy::Merge);
        for strat in [
            Strategy::Hash,
            Strategy::Lookup,
            Strategy::RanGroup,
            Strategy::RanGroupScan { m: 2 },
            Strategy::HashBin,
            Strategy::Auto,
            Strategy::IntGroup,
        ] {
            let exec = engine.executor(strat);
            for q in &queries {
                assert_eq!(
                    exec.query(q),
                    reference.query(q),
                    "{} on {q:?}",
                    strat.name()
                );
            }
        }
    }

    #[test]
    fn query_matches_reference_intersection() {
        let engine = engine();
        let exec = engine.executor(Strategy::RanGroupScan { m: 4 });
        let terms = [2usize, 8, 20];
        let slices: Vec<&[u32]> = terms
            .iter()
            .map(|&t| engine.posting(t).as_slice())
            .collect();
        assert_eq!(exec.query(&terms), reference_intersection(&slices));
    }

    #[test]
    fn single_and_empty_queries() {
        let engine = engine();
        let exec = engine.executor(Strategy::Merge);
        assert_eq!(exec.query(&[7]), engine.posting(7).as_slice());
        assert!(exec.query(&[]).is_empty());
    }

    #[test]
    fn restricted_engine_partitions_postings() {
        let engine = engine();
        let max = engine.max_doc().expect("non-empty corpus") as u64 + 1;
        let mid = max / 2;
        let low = engine.restricted(0..mid);
        let high = engine.restricted(mid..max);
        for t in 0..engine.num_terms() {
            assert!(low.posting(t).max().is_none_or(|d| (d as u64) < mid));
            assert!(high.posting(t).min().is_none_or(|d| (d as u64) >= mid));
            let mut rejoined: Vec<Elem> = low.posting(t).as_slice().to_vec();
            rejoined.extend_from_slice(high.posting(t).as_slice());
            assert_eq!(rejoined, engine.posting(t).as_slice());
        }
    }

    #[test]
    fn restricted_covers_the_full_u32_universe() {
        let ctx = HashContext::new(1);
        let engine = SearchEngine::from_postings(
            ctx,
            vec![
                SortedSet::from_unsorted(vec![0, 5, u32::MAX - 1, u32::MAX]),
                SortedSet::from_unsorted(vec![5, u32::MAX]),
            ],
        );
        let end = engine.max_doc().unwrap() as u64 + 1; // 2^32: > any u32
        let whole = engine.restricted(0..end);
        assert_eq!(whole.posting(0).as_slice(), engine.posting(0).as_slice());
        assert_eq!(whole.posting(1).as_slice(), engine.posting(1).as_slice());
        let top = engine.restricted((u32::MAX as u64)..end);
        assert_eq!(top.posting(0).as_slice(), &[u32::MAX]);
    }

    #[test]
    fn restricted_halves_answer_like_the_whole() {
        let engine = engine();
        let max = engine.max_doc().unwrap() as u64 + 1;
        let mid = max / 2;
        let whole = engine.executor(Strategy::RanGroupScan { m: 2 });
        let low = engine
            .restricted(0..mid)
            .into_executor(Strategy::RanGroupScan { m: 2 });
        let high = engine
            .restricted(mid..max)
            .into_executor(Strategy::RanGroupScan { m: 2 });
        for q in [vec![0usize, 1], vec![3, 10, 40], vec![5]] {
            let mut merged = low.query(&q);
            merged.extend(high.query(&q));
            assert_eq!(merged, whole.query(&q), "{q:?}");
        }
    }

    #[test]
    fn owned_executor_matches_borrowed() {
        let engine = engine();
        let borrowed = engine.executor(Strategy::Lookup);
        let owned = engine.clone().into_executor(Strategy::Lookup);
        assert_eq!(owned.strategy(), Strategy::Lookup);
        assert_eq!(owned.size_in_bytes(), borrowed.size_in_bytes());
        for q in [vec![0usize, 1], vec![3, 10, 40], vec![]] {
            assert_eq!(owned.query(&q), borrowed.query(&q));
        }
    }

    #[test]
    fn executor_size_accounting() {
        let engine = engine();
        let merge = engine.executor(Strategy::Merge);
        let rgs = engine.executor(Strategy::RanGroupScan { m: 4 });
        // RanGroupScan trades space for speed: strictly larger than Merge.
        assert!(rgs.size_in_bytes() > merge.size_in_bytes());
    }
}
