//! Expression execution over the two prepared-index forms:
//!
//! * [`eval_planned_into`] — over an [`fsi_index::PlannedExecutor`]: the
//!   full cost-based path. `AND`-of-terms nodes run the embedded
//!   [`fsi_index::MultiwayPlan`] directly on the prepared lists (zero
//!   materialization), `OR` nodes dispatch between the heap union and the
//!   chunked-bitmap `OR`, differences test a term subtrahend's bitmap by
//!   one bit when it carries one and gallop otherwise. Term operands of
//!   unions and differences borrow the prepared flat slices — only
//!   genuine sub-expression results are materialized.
//! * [`eval_owned_into`] — over an [`fsi_index::OwnedExecutor`] (one fixed
//!   [`fsi_index::Strategy`]): structural evaluation. Conjunctions of
//!   terms reuse the executor's own k-way path, so a fixed-strategy shard
//!   answers boolean queries with the same kernel family it answers flat
//!   queries with; unions and differences run the slice kernels over
//!   materialized children.
//!
//! Both append ascending, duplicate-free output and are safe to call with
//! a non-empty `out` holding strictly smaller values — the contract
//! document-range sharding relies on to concatenate per-shard results.

use crate::plan::{AndKind, ExprPlan, ExprPlanner, PlanNode, UnionKind};
use crate::rewrite::NormExpr;
use fsi_core::elem::Elem;
use fsi_index::{OwnedExecutor, PlanKind, PlannedExecutor, PlannedList};
use fsi_kernels::{
    gallop_diff_into, gallop_probe_into, heap_union_into, probe_diff_into, BitmapSet, Probe,
};

/// A child result: borrowed straight from a prepared list when the child
/// is a term, materialized otherwise.
enum Operand<'a> {
    Borrowed(&'a [Elem]),
    Owned(Vec<Elem>),
}

impl Operand<'_> {
    fn as_slice(&self) -> &[Elem] {
        match self {
            Operand::Borrowed(s) => s,
            Operand::Owned(v) => v,
        }
    }
}

// ---------------------------------------------------------------------------
// Planned (cost-model) execution
// ---------------------------------------------------------------------------

/// Plans and evaluates `expr` against a prepared planned index, returning
/// the ascending result.
pub fn eval_planned(exec: &PlannedExecutor, planner: &ExprPlanner, expr: &NormExpr) -> Vec<Elem> {
    let mut out = Vec::new();
    eval_planned_into(exec, planner, expr, &mut out);
    out
}

/// Plans `expr` over the executor's per-term statistics and document
/// universe, runs the plan, and appends the ascending result to `out`.
/// Returns the plan that ran (telemetry; tests assert operator choices).
pub fn eval_planned_into(
    exec: &PlannedExecutor,
    planner: &ExprPlanner,
    expr: &NormExpr,
    out: &mut Vec<Elem>,
) -> ExprPlan {
    let plan = planner.plan(expr, &|t| exec.list(t).stats(), exec.universe());
    let start = out.len();
    execute_plan(exec, planner, &plan, out);
    record_misprediction(plan.est_rows, out.len() - start);
    plan
}

/// Records the planner's cardinality-misprediction magnitude,
/// `|log₂((observed+1)/(estimated+1))|` in milli-log₂ units, into the
/// global `fsi_plan_misprediction_millilog2` histogram — `0` means the
/// estimate was exact, `1000` means off by 2×, `2000` by 4×. One cached
/// histogram record per evaluated expression.
fn record_misprediction(est_rows: f64, observed: usize) {
    use std::sync::OnceLock;
    static HIST: OnceLock<std::sync::Arc<fsi_obs::Histogram>> = OnceLock::new();
    let hist = HIST.get_or_init(|| {
        fsi_obs::Registry::global().histogram("fsi_plan_misprediction_millilog2", &[])
    });
    let ratio = (observed as f64 + 1.0) / (est_rows.max(0.0) + 1.0);
    hist.record((ratio.log2().abs() * 1000.0) as u64);
}

/// Runs an already-planned expression, appending the ascending result to
/// `out` — the execute half of [`eval_planned_into`], exposed so harnesses
/// (the boolean benchmark) can time planning and execution separately and
/// callers can re-run a cached plan.
pub fn execute_plan(
    exec: &PlannedExecutor,
    planner: &ExprPlanner,
    plan: &ExprPlan,
    out: &mut Vec<Elem>,
) {
    run_plan(exec, planner, plan, out);
}

fn operand<'a>(exec: &'a PlannedExecutor, planner: &ExprPlanner, plan: &ExprPlan) -> Operand<'a> {
    match &plan.node {
        PlanNode::Term(t) => Operand::Borrowed(exec.list(*t).flat()),
        _ => {
            let mut v = Vec::new();
            run_plan(exec, planner, plan, &mut v);
            Operand::Owned(v)
        }
    }
}

fn run_plan(exec: &PlannedExecutor, planner: &ExprPlanner, plan: &ExprPlan, out: &mut Vec<Elem>) {
    match &plan.node {
        PlanNode::Term(t) => out.extend_from_slice(exec.list(*t).flat()),
        PlanNode::And { pos, neg, kind } => {
            if neg.is_empty() {
                run_and_base(exec, planner, pos, kind, out);
            } else {
                let mut base = Vec::new();
                run_and_base(exec, planner, pos, kind, &mut base);
                if base.is_empty() {
                    return; // nothing to subtract from — skip the negs
                }
                let neg_ops: Vec<Operand> = neg.iter().map(|n| operand(exec, planner, n)).collect();
                let neg_slices: Vec<&[Elem]> = neg_ops.iter().map(Operand::as_slice).collect();
                subtract_into(exec, &base, neg, &neg_slices, out);
            }
        }
        PlanNode::Or { children, kind } => match kind {
            UnionKind::BitmapOr => {
                let bitmaps: Vec<&BitmapSet> = children
                    .iter()
                    .map(|c| match c.node {
                        PlanNode::Term(t) => exec
                            .list(t)
                            .bitmap()
                            // audit:allow(hot_path_panic): the planner only emits BitmapOr when every term operand carries a bitmap
                            .expect("BitmapOr only planned when every operand carries a bitmap"),
                        // audit:allow(hot_path_panic): the planner only puts Term nodes under BitmapOr
                        _ => unreachable!("BitmapOr only planned over term operands"),
                    })
                    .collect();
                BitmapSet::union_k_into(&bitmaps, out);
            }
            UnionKind::HeapMerge => {
                let ops: Vec<Operand> =
                    children.iter().map(|c| operand(exec, planner, c)).collect();
                let slices: Vec<&[Elem]> = ops.iter().map(Operand::as_slice).collect();
                heap_union_into(&slices, out);
            }
        },
    }
}

/// Appends `base ∖ (∪ neg)` to `out`, probing the subtrahends in plan
/// order. A term subtrahend carrying a bitmap excludes a candidate by one
/// bit test; every other subtrahend gallops over `neg_slices` (its
/// borrowed list or materialized result, positional with `neg`). The one
/// difference path: [`run_plan`] and EXPLAIN ANALYZE both end in it.
pub(crate) fn subtract_into(
    exec: &PlannedExecutor,
    base: &[Elem],
    neg: &[ExprPlan],
    neg_slices: &[&[Elem]],
    out: &mut Vec<Elem>,
) {
    let probes: Vec<Probe> = neg
        .iter()
        .zip(neg_slices)
        .map(|(n, &slice)| match n.node {
            PlanNode::Term(t) => exec.list(t).probe(),
            _ => Probe::Sorted(slice),
        })
        .collect();
    probe_diff_into(base, &probes, out);
}

/// Runs an `And` node's positive intersection, appending ascending output.
fn run_and_base(
    exec: &PlannedExecutor,
    planner: &ExprPlanner,
    pos: &[ExprPlan],
    kind: &AndKind,
    out: &mut Vec<Elem>,
) {
    let start = out.len();
    match kind {
        AndKind::Multiway(mplan) => {
            let lists: Vec<&PlannedList> = pos
                .iter()
                .map(|p| match p.node {
                    PlanNode::Term(t) => exec.list(t),
                    // audit:allow(hot_path_panic): the planner only puts Term nodes under Multiway
                    _ => unreachable!("Multiway only planned over term operands"),
                })
                .collect();
            planner.and.execute(mplan, &lists, out);
            // Every kernel emits ascending output except RanGroupScan's
            // g-order — the same rule `PlannedExecutor::query_into` applies.
            if mplan.kind == PlanKind::RanGroupScan {
                out[start..].sort_unstable();
            }
        }
        AndKind::SliceProbe => {
            let ops: Vec<Operand> = pos.iter().map(|p| operand(exec, planner, p)).collect();
            let slices: Vec<&[Elem]> = ops.iter().map(Operand::as_slice).collect();
            gallop_probe_into(&slices, out);
        }
    }
}

// ---------------------------------------------------------------------------
// Fixed-strategy (owned) execution
// ---------------------------------------------------------------------------

/// Evaluates `expr` against a fixed-strategy owned index, returning the
/// ascending result.
pub fn eval_owned(exec: &OwnedExecutor, expr: &NormExpr) -> Vec<Elem> {
    let mut out = Vec::new();
    eval_owned_into(exec, expr, &mut out);
    out
}

/// Structurally evaluates `expr`, appending the ascending result to `out`.
/// Conjunctions whose operands are all terms run the executor's own k-way
/// strategy path; everything else composes the slice kernels.
pub fn eval_owned_into(exec: &OwnedExecutor, expr: &NormExpr, out: &mut Vec<Elem>) {
    match expr {
        NormExpr::Term(t) => exec.query_into(&[*t], out),
        NormExpr::And { pos, neg } => {
            if neg.is_empty() {
                eval_owned_and_base(exec, pos, out);
            } else {
                let mut base = Vec::new();
                eval_owned_and_base(exec, pos, &mut base);
                if base.is_empty() {
                    return;
                }
                let negs: Vec<Vec<Elem>> = neg
                    .iter()
                    .map(|n| {
                        let mut v = Vec::new();
                        eval_owned_into(exec, n, &mut v);
                        v
                    })
                    .collect();
                // Probe the most-excluding subtrahend first.
                let mut refs: Vec<&[Elem]> = negs.iter().map(Vec::as_slice).collect();
                refs.sort_by_key(|s| std::cmp::Reverse(s.len()));
                gallop_diff_into(&base, &refs, out);
            }
        }
        NormExpr::Or(children) => {
            let parts: Vec<Vec<Elem>> = children
                .iter()
                .map(|c| {
                    let mut v = Vec::new();
                    eval_owned_into(exec, c, &mut v);
                    v
                })
                .collect();
            let slices: Vec<&[Elem]> = parts.iter().map(Vec::as_slice).collect();
            heap_union_into(&slices, out);
        }
    }
}

fn eval_owned_and_base(exec: &OwnedExecutor, pos: &[NormExpr], out: &mut Vec<Elem>) {
    let terms: Option<Vec<usize>> = pos
        .iter()
        .map(|c| match c {
            NormExpr::Term(t) => Some(*t),
            _ => None,
        })
        .collect();
    match terms {
        // All-term conjunction: the executor's existing strategy path.
        Some(terms) => exec.query_into(&terms, out),
        None => {
            let parts: Vec<Vec<Elem>> = pos
                .iter()
                .map(|c| {
                    let mut v = Vec::new();
                    eval_owned_into(exec, c, &mut v);
                    v
                })
                .collect();
            let slices: Vec<&[Elem]> = parts.iter().map(Vec::as_slice).collect();
            gallop_probe_into(&slices, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_eval;
    use crate::parse;
    use crate::rewrite::normalize;
    use fsi_core::{HashContext, SortedSet};
    use fsi_index::{Planner, SearchEngine, Strategy};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engine(seed: u64) -> SearchEngine {
        let mut rng = StdRng::seed_from_u64(seed);
        let postings: Vec<SortedSet> = (0..10)
            .map(|i| {
                let n = 150 * (i + 1);
                (0..n).map(|_| rng.gen_range(0..30_000u32)).collect()
            })
            .collect();
        SearchEngine::from_postings(HashContext::new(3), postings)
    }

    fn check(src: &str) {
        let engine = engine(42);
        let norm = normalize(&parse(src).expect("parses")).expect("bounded");
        let slices: Vec<&[Elem]> = (0..engine.num_terms())
            .map(|t| engine.posting(t).as_slice())
            .collect();
        let expect: Vec<Elem> = naive_eval(&slices, &norm).into_iter().collect();
        let planned = engine.planned_executor(Planner::default());
        let got = eval_planned(&planned, &ExprPlanner::default(), &norm);
        assert_eq!(got, expect, "planned: {src}");
        let owned = engine.clone().into_executor(Strategy::Merge);
        assert_eq!(eval_owned(&owned, &norm), expect, "owned: {src}");
    }

    #[test]
    fn boolean_shapes_match_naive_semantics() {
        for src in [
            "0",
            "0 AND 5",
            "0 1 2 3",
            "0 OR 5",
            "0 OR 1 OR 2 OR 9",
            "9 AND NOT 0",
            "9 AND NOT (0 OR 1)",
            "(0 OR 1) AND (2 OR 3)",
            "8 AND (1 OR NOT 3)",
            "(0 AND 1) OR (2 AND NOT 3)",
            "9 AND NOT (1 AND NOT 2)",
        ] {
            check(src);
        }
    }

    #[test]
    fn appending_after_existing_content_is_safe() {
        // The shard-concatenation contract: pre-existing `out` content
        // survives untouched and the fresh result lands after it — even
        // when the prefix ends in a value equal to the first emitted
        // document (the heap union must not dedup across the boundary).
        let engine = engine(7);
        let planned = engine.planned_executor(Planner::default());
        for src in ["0 OR 1", "0 AND 1", "9 AND NOT 0"] {
            let norm = normalize(&parse(src).expect("p")).expect("b");
            let mut fresh = Vec::new();
            eval_planned_into(&planned, &ExprPlanner::default(), &norm, &mut fresh);
            let prefix = vec![7u32, 3, fresh.first().copied().unwrap_or(0)];
            let mut out = prefix.clone();
            eval_planned_into(&planned, &ExprPlanner::default(), &norm, &mut out);
            assert_eq!(&out[..prefix.len()], prefix.as_slice(), "{src}");
            assert_eq!(&out[prefix.len()..], fresh.as_slice(), "{src}");
        }
    }

    #[test]
    fn planned_or_of_dense_terms_uses_the_bitmap_sweep() {
        // Dense consecutive postings → every list carries a bitmap.
        let postings: Vec<SortedSet> = (0..3)
            .map(|i: u32| ((i * 100)..(40_000 + i * 100)).collect())
            .collect();
        let engine = SearchEngine::from_postings(HashContext::new(5), postings);
        let planned = engine.planned_executor(Planner::default());
        let norm = normalize(&parse("0 OR 1 OR 2").expect("p")).expect("b");
        let mut out = Vec::new();
        let plan = eval_planned_into(&planned, &ExprPlanner::default(), &norm, &mut out);
        assert!(
            matches!(
                plan.node,
                PlanNode::Or {
                    kind: UnionKind::BitmapOr,
                    ..
                }
            ),
            "{plan:?}"
        );
        let slices: Vec<&[Elem]> = (0..3).map(|t| engine.posting(t).as_slice()).collect();
        let expect: Vec<Elem> = naive_eval(&slices, &norm).into_iter().collect();
        assert_eq!(out, expect);
    }
}
