//! Cost-based expression planning: extends `fsi_index::Planner`'s
//! [`OperandStats`] cost model beyond conjunctions to **OR** (k-way union)
//! and **AND NOT** (multi-subtrahend difference by bit tests and gallops).
//!
//! [`ExprPlanner::plan`] walks a canonical [`NormExpr`] bottom-up and
//! produces an [`ExprPlan`] tree carrying, per node, the chosen physical
//! operator, the evaluation order, and two estimates:
//!
//! * `est_rows` — predicted result cardinality under the independence
//!   assumption (`|A ∩ B| ≈ U · |A|/U · |B|/U`, inclusion–exclusion for
//!   unions, `|X ∖ N| ≈ |X| · (1 − |N|/U)` for differences), where `U` is
//!   the document-universe size. These drive evaluation order: `AND`
//!   operands ascending (the most selective drives), subtrahends
//!   descending (the most-excluding list is probed first).
//! * `est_cost` — predicted evaluation cost in the same abstract units as
//!   [`fsi_index::Planner`], so conjunctive sub-plans price exactly what
//!   the multiway cost model prices.
//!
//! Physical operator choices:
//!
//! | node | candidates |
//! |------|------------|
//! | `AND` (all operands are terms) | the full [`fsi_index::Planner`] candidate table — one whole-list [`MultiwayPlan`], zero materialized intermediates |
//! | `AND` (mixed operands) | materialize sub-results, then a k-way gallop probe ([`AndKind::SliceProbe`]) |
//! | `OR` | heap k-way union (`union_unit · Σnᵢ · log₂ k`) vs chunked-bitmap `OR` (`union_bitmap_word_unit · Σ chunksᵢ · 1024`, admissible only when every operand is a term carrying a bitmap) |
//! | `AND NOT` | multi-subtrahend difference (`diff_unit · |base| · m`): a term subtrahend carrying a bitmap is tested by one bit per candidate, every other subtrahend gallops — the subtrahends are bounded by the base, never materialized against the universe |

use crate::rewrite::NormExpr;
use fsi_index::{MultiwayPlan, OperandStats, Planner};
use fsi_kernels::WORDS_PER_CHUNK;

/// How an `AND` node's positive intersection runs.
#[derive(Debug, Clone, PartialEq)]
pub enum AndKind {
    /// Every positive operand is a term: one whole-list multiway plan from
    /// the underlying conjunctive cost model (the embedded
    /// [`MultiwayPlan`]'s `order` indexes this node's `pos` children).
    Multiway(MultiwayPlan),
    /// Sub-expressions among the operands: materialize them, then drive a
    /// k-way gallop probe over the slices.
    SliceProbe,
}

/// How an `OR` node's union runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnionKind {
    /// Binary min-heap k-way union over sorted slices.
    HeapMerge,
    /// Word-parallel chunked-bitmap `OR` (every operand is a term dense
    /// enough to carry a prepared bitmap).
    BitmapOr,
}

/// The physical operator of one plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Copy one posting list through.
    Term(usize),
    /// `(∩ pos) ∖ (∪ neg)`: `pos` in evaluation order (ascending
    /// `est_rows`), `neg` in probe order (descending `est_rows`).
    And {
        /// Intersected children, ascending by estimated cardinality.
        pos: Vec<ExprPlan>,
        /// Subtracted children, descending by estimated cardinality.
        neg: Vec<ExprPlan>,
        /// The chosen intersection operator.
        kind: AndKind,
    },
    /// `∪ children`.
    Or {
        /// United children (order immaterial to the kernels).
        children: Vec<ExprPlan>,
        /// The chosen union operator.
        kind: UnionKind,
    },
}

/// A planned (sub-)expression: operator, children, and the cost model's
/// two predictions for it.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprPlan {
    /// The physical operator tree.
    pub node: PlanNode,
    /// Estimated result cardinality (independence assumption).
    pub est_rows: f64,
    /// Estimated evaluation cost, in [`Planner`]'s abstract units
    /// (comparable only within one plan call).
    pub est_cost: f64,
}

impl ExprPlan {
    /// A compact one-line rendering of the operator tree (telemetry and
    /// bench output), e.g. `And[GallopProbe](t1, t2 \ Or[HeapMerge](t3, t4))`.
    pub fn describe(&self) -> String {
        match &self.node {
            PlanNode::Term(t) => format!("t{t}"),
            PlanNode::And { pos, neg, kind } => {
                let kind = match kind {
                    AndKind::Multiway(p) => format!("{:?}", p.kind),
                    AndKind::SliceProbe => "SliceProbe".to_string(),
                };
                let pos: Vec<String> = pos.iter().map(ExprPlan::describe).collect();
                let neg: Vec<String> = neg.iter().map(ExprPlan::describe).collect();
                let tail = if neg.is_empty() {
                    String::new()
                } else {
                    format!(" \\ {}", neg.join(" \\ "))
                };
                format!("And[{kind}]({}{tail})", pos.join(", "))
            }
            PlanNode::Or { children, kind } => {
                let children: Vec<String> = children.iter().map(ExprPlan::describe).collect();
                format!("Or[{kind:?}]({})", children.join(", "))
            }
        }
    }
}

/// The expression-level cost-model dispatcher: the conjunctive [`Planner`]
/// plus units for the union and difference operators it does not know
/// about.
#[derive(Debug, Clone)]
pub struct ExprPlanner {
    /// The conjunctive cost model — `AND`-of-terms nodes run exactly what
    /// it picks.
    pub and: Planner,
    /// Cost per input element per `log₂ k` for the heap k-way union
    /// (mirrors `and.heap_unit`: the same heap discipline, plus output
    /// pushes for nearly every pop).
    pub union_unit: f64,
    /// Cost per 64-bit word per operand for the chunked-bitmap `OR` sweep
    /// (defaults to `and.bitmap_word_unit`: the OR rides the same SIMD
    /// word primitives as the AND, so the SIMD-tier tuning carries over).
    pub union_bitmap_word_unit: f64,
    /// Cost per base element per subtrahend for the difference (mirrors
    /// `and.gallop_unit`: a subtrahend is galloped, or tested by one bit
    /// when it is a term carrying a bitmap).
    pub diff_unit: f64,
}

impl ExprPlanner {
    /// Expression planning over a given conjunctive cost model; union and
    /// difference units derive from its calibration.
    pub fn new(and: Planner) -> Self {
        Self {
            union_unit: and.heap_unit,
            union_bitmap_word_unit: and.bitmap_word_unit,
            diff_unit: and.gallop_unit,
            and,
        }
    }

    /// Constants tuned for the SIMD tier this process dispatches to
    /// ([`Planner::auto`]) — what serving defaults use.
    pub fn auto() -> Self {
        Self::new(Planner::auto())
    }

    /// Plans `expr` over per-term statistics. `stats` maps a term id to
    /// its [`OperandStats`]; `universe` is the document-space size
    /// (`max_doc + 1`) the selectivity estimates divide by.
    pub fn plan(
        &self,
        expr: &NormExpr,
        stats: &impl Fn(usize) -> OperandStats,
        universe: u64,
    ) -> ExprPlan {
        self.plan_node(expr, stats, (universe as f64).max(1.0))
    }

    fn plan_node(
        &self,
        expr: &NormExpr,
        stats: &impl Fn(usize) -> OperandStats,
        u: f64,
    ) -> ExprPlan {
        match expr {
            NormExpr::Term(t) => ExprPlan {
                node: PlanNode::Term(*t),
                est_rows: stats(*t).n as f64,
                est_cost: 0.0,
            },
            NormExpr::And { pos, neg } => {
                let mut pos_plans: Vec<ExprPlan> =
                    pos.iter().map(|c| self.plan_node(c, stats, u)).collect();
                // Evaluation order: most selective first (kernels also
                // re-derive driver order from true sizes at run time; the
                // estimate order is what mixed/materialized nodes use).
                pos_plans.sort_by(|a, b| a.est_rows.total_cmp(&b.est_rows));
                let all_terms = pos_plans
                    .iter()
                    .all(|p| matches!(p.node, PlanNode::Term(_)));
                let (kind, and_cost) = if all_terms {
                    let op_stats: Vec<OperandStats> = pos_plans
                        .iter()
                        .map(|p| match p.node {
                            PlanNode::Term(t) => stats(t),
                            // audit:allow(hot_path_panic): all_terms() verified every child is a Term before this match
                            _ => unreachable!("all_terms checked"),
                        })
                        .collect();
                    let mplan = self.and.plan(&op_stats);
                    let cost = mplan.est_cost;
                    (AndKind::Multiway(mplan), cost)
                } else {
                    // Gallop-probe estimate over (possibly estimated)
                    // child cardinalities — the same formula the
                    // conjunctive model uses for its gallop candidate.
                    let n_min = pos_plans[0].est_rows.max(1.0);
                    let log_sum: f64 = pos_plans[1..]
                        .iter()
                        .map(|c| (c.est_rows / n_min + 2.0).log2())
                        .sum();
                    (AndKind::SliceProbe, self.and.gallop_unit * n_min * log_sum)
                };
                let mut base_rows = u;
                for c in &pos_plans {
                    base_rows *= (c.est_rows / u).min(1.0);
                }
                let mut neg_plans: Vec<ExprPlan> =
                    neg.iter().map(|c| self.plan_node(c, stats, u)).collect();
                // Probe order: the most-excluding subtrahend first, so a
                // doomed base element dies on its first probe.
                neg_plans.sort_by(|a, b| b.est_rows.total_cmp(&a.est_rows));
                let diff_cost = if neg_plans.is_empty() {
                    0.0
                } else {
                    self.diff_unit * base_rows * neg_plans.len() as f64
                };
                let mut est_rows = base_rows;
                for c in &neg_plans {
                    est_rows *= 1.0 - (c.est_rows / u).min(1.0);
                }
                let child_cost: f64 = pos_plans.iter().chain(&neg_plans).map(|c| c.est_cost).sum();
                ExprPlan {
                    node: PlanNode::And {
                        pos: pos_plans,
                        neg: neg_plans,
                        kind,
                    },
                    est_rows,
                    est_cost: child_cost + and_cost + diff_cost,
                }
            }
            NormExpr::Or(children) => {
                let plans: Vec<ExprPlan> = children
                    .iter()
                    .map(|c| self.plan_node(c, stats, u))
                    .collect();
                let total: f64 = plans.iter().map(|p| p.est_rows).sum();
                let k = plans.len() as f64;
                let heap_cost = self.union_unit * total * k.log2();
                // Bitmap OR is admissible only when every operand is a
                // term carrying a prepared chunk bitmap.
                let bitmap_words: Option<usize> = plans
                    .iter()
                    .map(|p| match p.node {
                        PlanNode::Term(t) => stats(t).chunks,
                        _ => None,
                    })
                    .map(|chunks| chunks.map(|c| c * WORDS_PER_CHUNK))
                    .sum();
                let (kind, union_cost) = match bitmap_words {
                    Some(words) if self.union_bitmap_word_unit * words as f64 <= heap_cost => (
                        UnionKind::BitmapOr,
                        self.union_bitmap_word_unit * words as f64,
                    ),
                    _ => (UnionKind::HeapMerge, heap_cost),
                };
                let mut miss = 1.0;
                for p in &plans {
                    miss *= 1.0 - (p.est_rows / u).min(1.0);
                }
                let child_cost: f64 = plans.iter().map(|p| p.est_cost).sum();
                ExprPlan {
                    node: PlanNode::Or {
                        children: plans,
                        kind,
                    },
                    est_rows: u * (1.0 - miss),
                    est_cost: child_cost + union_cost,
                }
            }
        }
    }
}

impl Default for ExprPlanner {
    /// The scalar-calibrated conjunctive model plus derived boolean units
    /// — deterministic across machines (what the plan tests pin).
    fn default() -> Self {
        Self::new(Planner::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::rewrite::normalize;
    use fsi_index::PlanKind;

    fn stats_for(sizes: &[(usize, Option<usize>)]) -> impl Fn(usize) -> OperandStats + '_ {
        |t| OperandStats {
            n: sizes[t].0,
            chunks: sizes[t].1,
            compressed_bytes: None,
        }
    }

    fn plan(src: &str, sizes: &[(usize, Option<usize>)], u: u64) -> ExprPlan {
        let norm = normalize(&parse(src).expect("parses")).expect("bounded");
        ExprPlanner::default().plan(&norm, &stats_for(sizes), u)
    }

    #[test]
    fn and_of_terms_delegates_to_the_multiway_cost_model() {
        // Extreme skew: the conjunctive model picks HashProbe; the
        // expression plan must carry exactly that choice.
        let p = plan("0 AND 1", &[(1000, None), (64_000, None)], 1 << 24);
        match &p.node {
            PlanNode::And {
                kind: AndKind::Multiway(m),
                neg,
                ..
            } => {
                assert_eq!(m.kind, PlanKind::HashProbe);
                assert!(neg.is_empty());
            }
            other => panic!("expected multiway And, got {other:?}"),
        }
        assert!(p.est_rows > 0.0 && p.est_cost > 0.0);
    }

    #[test]
    fn and_orders_pos_ascending_and_neg_descending() {
        let sizes = [
            (5000, None),
            (100, None),
            (2000, None),
            (9000, None),
            (50, None),
        ];
        let p = plan("0 1 2 AND NOT 3 AND NOT 4", &sizes, 1 << 20);
        let PlanNode::And { pos, neg, .. } = &p.node else {
            panic!("expected And");
        };
        let pos_rows: Vec<f64> = pos.iter().map(|c| c.est_rows).collect();
        assert_eq!(pos_rows, vec![100.0, 2000.0, 5000.0]);
        let neg_rows: Vec<f64> = neg.iter().map(|c| c.est_rows).collect();
        assert_eq!(neg_rows, vec![9000.0, 50.0]);
        // Difference can only shrink the base estimate.
        assert!(p.est_rows <= 100.0);
    }

    #[test]
    fn or_picks_bitmap_only_when_every_operand_carries_one() {
        let dense = [(50_000, Some(1)), (60_000, Some(1))];
        let p = plan("0 OR 1", &dense, 1 << 17);
        assert!(
            matches!(
                p.node,
                PlanNode::Or {
                    kind: UnionKind::BitmapOr,
                    ..
                }
            ),
            "{p:?}"
        );
        // One operand without a bitmap vetoes the sweep.
        let mixed = [(50_000, Some(1)), (60_000, None)];
        let p = plan("0 OR 1", &mixed, 1 << 17);
        assert!(
            matches!(
                p.node,
                PlanNode::Or {
                    kind: UnionKind::HeapMerge,
                    ..
                }
            ),
            "{p:?}"
        );
        // Sparse-but-bitmapped operands spanning many chunks fall back to
        // the heap merge: the word sweep would touch more words than the
        // heap touches elements.
        let wide = [(300, Some(200)), (300, Some(200))];
        let p = plan("0 OR 1", &wide, 1 << 30);
        assert!(
            matches!(
                p.node,
                PlanNode::Or {
                    kind: UnionKind::HeapMerge,
                    ..
                }
            ),
            "{p:?}"
        );
    }

    #[test]
    fn union_estimate_is_inclusion_exclusion() {
        let sizes = [(1000, None), (1000, None)];
        let u = 10_000u64;
        let p = plan("0 OR 1", &sizes, u);
        // 1 - (1 - 0.1)^2 = 0.19.
        assert!((p.est_rows - 1900.0).abs() < 1e-6, "{}", p.est_rows);
        assert!(matches!(p.node, PlanNode::Or { .. }));
    }

    #[test]
    fn mixed_and_uses_slice_probe_and_prices_children() {
        let sizes = [(4000, None), (3000, None), (2000, None)];
        let p = plan("0 AND (1 OR 2)", &sizes, 1 << 20);
        let PlanNode::And { pos, kind, .. } = &p.node else {
            panic!("expected And");
        };
        assert_eq!(*kind, AndKind::SliceProbe);
        // The Or child's union cost is part of the total.
        let or_cost: f64 = pos
            .iter()
            .filter(|c| matches!(c.node, PlanNode::Or { .. }))
            .map(|c| c.est_cost)
            .sum();
        assert!(or_cost > 0.0);
        assert!(p.est_cost >= or_cost);
    }

    #[test]
    fn describe_renders_the_tree() {
        let sizes = [(100, None), (200, None), (300, None)];
        let p = plan("0 AND (1 OR 2) AND NOT 1", &sizes, 1 << 20);
        let d = p.describe();
        assert!(d.starts_with("And["), "{d}");
        assert!(d.contains("Or[HeapMerge]"), "{d}");
        assert!(d.contains('\\'), "{d}");
    }
}
