//! Whole-query physical planning — the paper's closing pitch
//! operationalized over **k sets at once**: Section 3.4 proposes choosing
//! the algorithm "online, based on n₁/n₂", and the paper's own algorithms
//! (IntGroup, RanGroup, the adaptive probes) are defined over intersecting
//! *k* lists, with the smallest driving probes into all the others.
//!
//! The [`Planner`] cost-models the **entire term list** in one shot and
//! emits a [`MultiwayPlan`]: a kernel choice ([`PlanKind`]) plus an
//! evaluation order (operands ascending by size — the smallest list always
//! drives). Nothing is ever folded pairwise and no intermediate result is
//! materialized. The candidate kernels and their cost estimates, in the
//! units of [`Planner`]'s tunable constants:
//!
//! | kind | estimated cost | regime it owns |
//! |------|----------------|----------------|
//! | [`PlanKind::BitmapAnd`] | `bitmap_word_unit · c_min · 1024 · (k−1)` | every operand dense (all carry chunk bitmaps) |
//! | [`PlanKind::HashProbe`] | `hash_unit · n_min · (k−1)` | extreme skew: `O(n_min)` cache-missing probes |
//! | [`PlanKind::GallopProbe`] | `gallop_unit · n_min · Σᵢ pᵢ`, `pᵢ = 1` for an operand carrying a bitmap (one bit test per candidate), `log₂(nᵢ/n_min + 2)` otherwise | moderate skew (Hwang–Lin across all k), and any sparse driver against bitmapped lists |
//! | [`PlanKind::RanGroupScan`] | `rgs_unit · Σ nᵢ` | balanced sparse — the paper's home turf |
//! | [`PlanKind::HeapMerge`] | `heap_unit · Σ nᵢ · log₂ k` | structure-free fallback (tunables can force it) |
//! | [`PlanKind::CompressedGallop`] | `gallop_unit · n_min · Σᵢ log₂(nᵢ/n_min + 2) + decode_unit · E[decoded]` | memory-bound: probe the compressed blocks directly |
//!
//! The minimum-cost candidate wins; `c_min` is the smallest per-operand
//! chunk count, so the bitmap estimate prices exactly the word sweep
//! [`BitmapSet::intersect_k_into`] executes. A [`PlannedList`] keeps every
//! representation a plan can bind: the flat sorted list (gallop probes,
//! heap merge), a hash table (skew probes), the RanGroupScan structure,
//! skip-augmented block postings (compressed-domain probes), and a chunked
//! bitmap whenever it is no larger than the flat list (`chunks × 8 KiB ≤
//! 4 B × n`, i.e. density ≥ 1/32 over the chunks the list touches). The
//! rule looks only at the list's own chunks, so a shard keeps the same
//! bitmaps wherever its document range starts. The bitmap serves the word
//! sweep and, in [`PlanKind::GallopProbe`], one-bit membership tests in
//! place of galloping.
//!
//! On top of the compute estimates, every candidate is charged a
//! **bytes-resident term** `bytes_unit · resident_bytes(candidate)` — the
//! cache/memory footprint the chosen representation drags through the
//! query. The default `bytes_unit` of 0 reproduces the pure-compute model
//! (and the pinned crossovers); raising it expresses memory pressure, and
//! the planner starts trading decode work ([`Planner::decode_unit`]) for
//! the ~4–10× smaller compressed operands — see `docs/compress.md`.
//!
//! The default constants reflect *this repository's measured* crossovers
//! (see EXPERIMENTS.md, `BENCH_kernels.json` and `BENCH_multiway.json`):
//! hash probing overtakes galloping near ratio 64, galloping overtakes
//! RanGroupScan near ratio 8, and the bitmap sweep wins whenever it is
//! admissible at all. They are tunables because the right answers are
//! hardware-bound.

use crate::engine::SearchEngine;
use fsi_baselines::HashSetIndex;
use fsi_compress::{BlockCodec, BlockCursor, BlockPostings, BLOCK_LEN};
use fsi_core::elem::{Elem, SortedSet};
use fsi_core::hash::HashContext;
use fsi_core::traits::{KIntersect, SetIndex};
use fsi_core::RanGroupScanIndex;
use fsi_kernels::{
    compressed_probe_into, heap_merge_into, probe_into, BitmapSet, GallopingSet, Probe,
    WORDS_PER_CHUNK,
};

/// A posting list prepared for every representation a plan can bind.
#[derive(Debug, Clone)]
pub struct PlannedList {
    hash: HashSetIndex,
    rgs: RanGroupScanIndex,
    /// Built when it is no larger than the flat list it shadows (see
    /// [`bitmap_chunks`]): density ≥ 1/32 over the 2¹⁶-value chunks the
    /// list touches, wherever they lie. It serves [`PlanKind::BitmapAnd`],
    /// the bitmap `OR`, and one-bit membership tests for the probe and
    /// difference kernels; on a list sparser than that, its fixed 8 KiB
    /// per touched chunk would outweigh the list itself.
    bitmap: Option<BitmapSet>,
    flat: GallopingSet,
    /// Skip-augmented block postings (Packed frame-of-reference codec) —
    /// what [`PlanKind::CompressedGallop`] probes without full decode.
    /// Always built today (`Some`); the `Option` is the plan-admissibility
    /// contract, mirroring `bitmap`.
    compressed: Option<BlockPostings>,
}

/// The build rule shared by [`PlannedList::build`] and
/// [`OperandStats::of_set`]: a non-empty list carries a chunk bitmap iff
/// the bitmap is no larger than its flat list — `chunks × 8 KiB ≤ 4 B × n`.
/// The rule only looks at the chunks the list touches, so it does not
/// depend on where a shard's document range starts. Returns the chunk
/// count when the bitmap is kept.
fn bitmap_chunks(set: &SortedSet) -> Option<usize> {
    let chunks = BitmapSet::count_chunks(set.as_slice());
    let bitmap_bytes = chunks * WORDS_PER_CHUNK * std::mem::size_of::<u64>();
    (chunks > 0 && bitmap_bytes <= set.len() * std::mem::size_of::<Elem>()).then_some(chunks)
}

impl PlannedList {
    /// Preprocesses `set` for every structure the planner can dispatch to.
    pub fn build(ctx: &HashContext, set: &SortedSet) -> Self {
        Self {
            hash: HashSetIndex::build(set),
            rgs: RanGroupScanIndex::with_m(ctx, set, 2),
            bitmap: bitmap_chunks(set).map(|_| BitmapSet::build(set)),
            flat: GallopingSet::build(set),
            compressed: Some(BlockPostings::from_slice(
                BlockCodec::Packed,
                set.as_slice(),
            )),
        }
    }

    /// Number of elements.
    pub fn n(&self) -> usize {
        self.rgs.n()
    }

    /// The flat sorted list — what boolean-expression evaluation
    /// (`fsi-query`) feeds to the union/difference slice kernels.
    pub fn flat(&self) -> &[Elem] {
        self.flat.as_slice()
    }

    /// The chunked bitmap, when this list carries one (it is kept when no
    /// larger than the flat list) — what the expression planner's
    /// bitmap-`OR` candidate binds.
    pub fn bitmap(&self) -> Option<&BitmapSet> {
        self.bitmap.as_ref()
    }

    /// How probe kernels test membership in this list: one bit in its
    /// bitmap when it carries one, a galloping cursor over the flat list
    /// otherwise.
    pub fn probe(&self) -> Probe<'_> {
        match &self.bitmap {
            Some(bits) => Probe::Bits(bits),
            None => Probe::Sorted(self.flat.as_slice()),
        }
    }

    /// The skip-augmented block postings, when built — what
    /// [`PlanKind::CompressedGallop`] walks in the compressed domain.
    pub fn compressed(&self) -> Option<&BlockPostings> {
        self.compressed.as_ref()
    }

    /// The cost-model inputs of this list: its size, and its chunk count
    /// when it carries a bitmap.
    pub fn stats(&self) -> OperandStats {
        OperandStats {
            n: self.n(),
            chunks: self.bitmap.as_ref().map(|b| b.num_chunks()),
            compressed_bytes: self.compressed.as_ref().map(|c| c.size_in_bytes()),
        }
    }

    /// Total footprint of all prepared structures.
    pub fn size_in_bytes(&self) -> usize {
        self.hash.size_in_bytes()
            + self.rgs.size_in_bytes()
            + self.bitmap.as_ref().map_or(0, |b| b.size_in_bytes())
            + self.flat.size_in_bytes()
            + self.compressed.as_ref().map_or(0, |c| c.size_in_bytes())
    }
}

/// What the cost model needs to know about one operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandStats {
    /// Number of elements.
    pub n: usize,
    /// Number of 2¹⁶-value chunks the list touches, if a chunk bitmap is
    /// prepared for it (`None` for lists too sparse to carry one). A list
    /// with a bitmap is probed by one bit test per candidate.
    pub chunks: Option<usize>,
    /// Exact byte footprint of the list's skip-augmented block postings,
    /// if prepared (`None` vetoes [`PlanKind::CompressedGallop`], mirroring
    /// how a missing bitmap vetoes [`PlanKind::BitmapAnd`]).
    pub compressed_bytes: Option<usize>,
}

impl OperandStats {
    /// Stats of a raw sorted set, exactly as [`PlannedList::build`] would
    /// produce them: the chunk count is `Some` iff the list's bitmap is no
    /// larger than its flat list, and the compressed
    /// footprint is [`BlockPostings::measure`]'s exact size — byte-identical
    /// to building the structure, without building it.
    pub fn of_set(set: &SortedSet) -> Self {
        Self {
            n: set.len(),
            chunks: bitmap_chunks(set),
            compressed_bytes: Some(BlockPostings::measure(BlockCodec::Packed, set.as_slice())),
        }
    }
}

/// Which k-way kernel a [`MultiwayPlan`] runs (exposed for tests and
/// telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// An empty operand (or no operands): the result is empty, run nothing.
    Empty,
    /// One operand: copy its list through.
    Single,
    /// Balanced sparse sizes: Algorithm 5 group filtering (the paper).
    RanGroupScan,
    /// Extreme skew: drive the smallest list through the others' hash
    /// tables.
    HashProbe,
    /// Dense operands: k-way chunked-bitmap `AND`, no intermediates.
    BitmapAnd,
    /// Moderate skew: gallop the smallest list through all the others at
    /// once.
    GallopProbe,
    /// Heap-based k-way merge (structure-free fallback).
    HeapMerge,
    /// Compressed-domain galloping: the smallest list's block cursor drives
    /// seeks through the others' skip tables, decoding at most the blocks
    /// a candidate actually lands in. Wins under memory pressure
    /// ([`Planner::bytes_unit`] > 0), where operand footprint outprices the
    /// decode work.
    CompressedGallop,
}

impl PlanKind {
    /// The label telemetry and EXPLAIN output report.
    pub fn name(self) -> &'static str {
        match self {
            PlanKind::Empty => "Empty",
            PlanKind::Single => "Single",
            PlanKind::RanGroupScan => "RanGroupScan",
            PlanKind::HashProbe => "HashProbe",
            PlanKind::BitmapAnd => "BitmapAnd",
            PlanKind::GallopProbe => "GallopProbe",
            PlanKind::HeapMerge => "HeapMerge",
            PlanKind::CompressedGallop => "CompressedGallop",
        }
    }

    /// Bumps this kind's counter in the global metrics registry
    /// (`fsi_plan_kind_total{kind=...}`) — one relaxed increment on a
    /// cached handle per planned query.
    fn record_choice(self) {
        use std::sync::OnceLock;
        static COUNTERS: OnceLock<[std::sync::Arc<fsi_obs::Counter>; 8]> = OnceLock::new();
        let counters = COUNTERS.get_or_init(|| {
            [
                PlanKind::Empty,
                PlanKind::Single,
                PlanKind::RanGroupScan,
                PlanKind::HashProbe,
                PlanKind::BitmapAnd,
                PlanKind::GallopProbe,
                PlanKind::HeapMerge,
                PlanKind::CompressedGallop,
            ]
            .map(|k| {
                fsi_obs::Registry::global().counter("fsi_plan_kind_total", &[("kind", k.name())])
            })
        });
        // audit:allow(hot_path_index): the array is sized to the enum's variant count and indexed by discriminant
        counters[self as usize].inc();
    }
}

/// A whole-query physical plan: which kernel to run, in which operand
/// order, and what the cost model predicted for it.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiwayPlan {
    /// The chosen kernel.
    pub kind: PlanKind,
    /// Operand positions in evaluation order (ascending by size — the
    /// smallest list drives, and probes hit the most selective lists
    /// first).
    pub order: Vec<usize>,
    /// The winning candidate's estimated cost, in the planner's abstract
    /// units (comparable only within one plan call).
    pub est_cost: f64,
}

/// The whole-query cost-model dispatcher.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Cost per driver element per probed list, scaled by the galloping
    /// log factor (`log₂(nᵢ/n_min + 2)`).
    pub gallop_unit: f64,
    /// Cost per driver element per probed hash table. High relative to
    /// `gallop_unit`: every probe is a likely cache miss. The ratio of the
    /// two sets the skew crossover (defaults put it near `n_max/n_min ≈
    /// 64`, the measured value; the paper-era machine crossed near 100).
    pub hash_unit: f64,
    /// Cost per 64-bit `AND` word per non-driver operand in the chunked
    /// bitmap sweep.
    pub bitmap_word_unit: f64,
    /// Cost per input element for RanGroupScan's group-filtered scan.
    pub rgs_unit: f64,
    /// Cost per input element per `log₂ k` for the heap merge. The default
    /// keeps it strictly dominated by RanGroupScan (prepared lists always
    /// carry the RGS structure); tuning it below `rgs_unit` forces the
    /// structure-free path.
    pub heap_unit: f64,
    /// Cost per document id decoded out of a compressed block — the extra
    /// work [`PlanKind::CompressedGallop`] pays over a flat gallop for the
    /// blocks its probes actually touch. Strictly positive, so with no
    /// memory pressure (`bytes_unit = 0`) the compressed plan is dominated
    /// by [`PlanKind::GallopProbe`] and never fires.
    pub decode_unit: f64,
    /// Cost per byte of operand representation the chosen kernel drags
    /// through the cache — the memory-pressure dial. The default `0.0`
    /// reproduces the pure-compute model exactly (every pinned crossover
    /// below is unchanged); raising it charges flat/hash/bitmap candidates
    /// their full footprint while [`PlanKind::CompressedGallop`] pays only
    /// the ~4–10× smaller block-postings bytes.
    pub bytes_unit: f64,
}

impl Default for Planner {
    fn default() -> Self {
        Self {
            gallop_unit: 2.5,
            hash_unit: 15.0,
            bitmap_word_unit: 1.0,
            rgs_unit: 1.2,
            heap_unit: 2.0,
            decode_unit: 0.5,
            bytes_unit: 0.0,
        }
    }
}

impl Planner {
    /// Constants tuned for one SIMD tier. [`Planner::default`] is the
    /// scalar calibration (deterministic across machines — what the plan
    /// tests pin); the SIMD tiers cheapen exactly the units whose kernels
    /// the `fsi-kernels` SIMD layer vectorizes, by the per-word/per-element
    /// speedups `BENCH_simd.json` measures on the dense shapes:
    ///
    /// * `bitmap_word_unit` — the chunk sweep ANDs 2/4 words per
    ///   instruction and PTEST-skips zero groups, so a word costs ~½/~⅓
    ///   of scalar (extraction of survivors stays scalar, which is why the
    ///   factor is milder than the lane count);
    /// * `rgs_unit` is *not* cheapened: RanGroupScan's group filtering is
    ///   already word-packed scalar code the SIMD layer does not touch —
    ///   under SIMD its *relative* price versus the vectorized kernels
    ///   rises, and the untouched constant expresses exactly that.
    pub fn for_simd(level: fsi_kernels::SimdLevel) -> Self {
        use fsi_kernels::SimdLevel;
        let mut p = Self::default();
        match level {
            SimdLevel::Scalar => {}
            SimdLevel::Sse41 => p.bitmap_word_unit = 0.55,
            SimdLevel::Avx2 => p.bitmap_word_unit = 0.35,
        }
        p
    }

    /// Constants tuned for the SIMD tier this process actually dispatches
    /// to ([`SimdLevel::active`](fsi_kernels::SimdLevel::active)) — what
    /// serving defaults use, so planned execution picks the vectorized
    /// bitmap sweep in the regimes where it now wins.
    pub fn auto() -> Self {
        Self::for_simd(fsi_kernels::SimdLevel::active())
    }
}

impl Planner {
    /// Cost-models the whole operand list and returns the minimum-cost
    /// plan. `stats` is positional: `order[i]` in the returned plan indexes
    /// into it.
    ///
    /// Every call records the chosen [`PlanKind`] and the winning estimated
    /// cost into the global metrics registry (`fsi_plan_kind_total{kind}`,
    /// `fsi_plan_est_cost`) — the always-on half of the planner's
    /// misprediction signal (the observed half is recorded where results
    /// materialize, in `fsi-query`).
    pub fn plan(&self, stats: &[OperandStats]) -> MultiwayPlan {
        let plan = self.plan_inner(stats);
        plan.kind.record_choice();
        {
            use std::sync::OnceLock;
            static EST_COST: OnceLock<std::sync::Arc<fsi_obs::Histogram>> = OnceLock::new();
            EST_COST
                .get_or_init(|| fsi_obs::Registry::global().histogram("fsi_plan_est_cost", &[]))
                .record(plan.est_cost.max(0.0) as u64);
        }
        plan
    }

    fn plan_inner(&self, stats: &[OperandStats]) -> MultiwayPlan {
        let k = stats.len();
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by_key(|&i| stats[i].n);
        if k == 0 || stats[order[0]].n == 0 {
            return MultiwayPlan {
                kind: PlanKind::Empty,
                order,
                est_cost: 0.0,
            };
        }
        if k == 1 {
            let est_cost = stats[0].n as f64;
            return MultiwayPlan {
                kind: PlanKind::Single,
                order,
                est_cost,
            };
        }
        let n_min = stats[order[0]].n as f64;
        let total: f64 = stats.iter().map(|s| s.n as f64).sum();
        let probes = (k - 1) as f64;

        // Bytes-resident terms: what each candidate's representation costs
        // to drag through the cache, scaled by the memory-pressure dial
        // (zero by default, so these vanish from the pure-compute model).
        // Flat slices are 4 bytes/element; the hash tables and the
        // RanGroupScan structure run about two words per element.
        let flat_bytes = self.bytes_unit * 4.0 * total;
        let struct_bytes = self.bytes_unit * 8.0 * total;

        let mut best = (PlanKind::RanGroupScan, self.rgs_unit * total + struct_bytes);
        let mut consider = |kind: PlanKind, cost: f64| {
            if cost < best.1 {
                best = (kind, cost);
            }
        };
        let gallop_log = |s: &OperandStats| (s.n as f64 / n_min + 2.0).log2();
        // A probed operand carrying a bitmap costs one bit test per
        // candidate instead of an exponential search.
        let probe_sum: f64 = order[1..]
            .iter()
            .map(|&i| {
                stats[i]
                    .chunks
                    .map_or_else(|| gallop_log(&stats[i]), |_| 1.0)
            })
            .sum();
        consider(
            PlanKind::GallopProbe,
            self.gallop_unit * n_min * probe_sum + flat_bytes,
        );
        consider(
            PlanKind::HashProbe,
            self.hash_unit * n_min * probes + struct_bytes,
        );
        if let Some(c_min) = stats.iter().map(|s| s.chunks).min().flatten() {
            // `min` on Options puts None first, so a single bitmap-less
            // operand (None) vetoes the candidate via `.flatten()`.
            let words: usize =
                stats.iter().map(|s| s.chunks.unwrap_or(0)).sum::<usize>() * WORDS_PER_CHUNK;
            consider(
                PlanKind::BitmapAnd,
                self.bitmap_word_unit * (c_min * WORDS_PER_CHUNK) as f64 * probes
                    + self.bytes_unit * 8.0 * words as f64,
            );
        }
        consider(
            PlanKind::HeapMerge,
            self.heap_unit * total * (k as f64).log2() + flat_bytes,
        );
        // Compressed-domain galloping: admissible only when every operand
        // carries block postings (`Option::sum` yields None otherwise). The
        // driver decodes fully; each probed list decodes at most one block
        // (BLOCK_LEN ids) per driver candidate, capped at its own length.
        if let Some(comp_bytes) = stats
            .iter()
            .map(|s| s.compressed_bytes)
            .sum::<Option<usize>>()
        {
            let decoded: f64 = n_min
                + order[1..]
                    .iter()
                    .map(|&i| (stats[i].n as f64).min(n_min * BLOCK_LEN as f64))
                    .sum::<f64>();
            let log_sum: f64 = order[1..].iter().map(|&i| gallop_log(&stats[i])).sum();
            consider(
                PlanKind::CompressedGallop,
                self.gallop_unit * n_min * log_sum
                    + self.decode_unit * decoded
                    + self.bytes_unit * comp_bytes as f64,
            );
        }
        MultiwayPlan {
            kind: best.0,
            order,
            est_cost: best.1,
        }
    }

    /// The plan for these prepared lists.
    pub fn plan_for_lists(&self, lists: &[&PlannedList]) -> MultiwayPlan {
        let stats: Vec<OperandStats> = lists.iter().map(|l| l.stats()).collect();
        self.plan(&stats)
    }

    /// The plan [`Planner::intersect`] would run for these raw operand
    /// sets — for harnesses that classify queries without prepared lists.
    /// Exactly matches [`Planner::plan_for_lists`] on the built lists.
    pub fn plan_for_sets(&self, sets: &[&SortedSet]) -> MultiwayPlan {
        let stats: Vec<OperandStats> = sets.iter().map(|s| OperandStats::of_set(s)).collect();
        self.plan(&stats)
    }

    /// Runs `plan` over `lists`, appending the intersection to `out` in the
    /// kernel's natural order (ascending for everything except
    /// RanGroupScan's g-order).
    pub fn execute(&self, plan: &MultiwayPlan, lists: &[&PlannedList], out: &mut Vec<Elem>) {
        match plan.kind {
            PlanKind::Empty => {}
            PlanKind::Single => out.extend_from_slice(lists[plan.order[0]].flat.as_slice()),
            PlanKind::RanGroupScan => {
                let typed: Vec<&RanGroupScanIndex> = lists.iter().map(|l| &l.rgs).collect();
                RanGroupScanIndex::intersect_k_into(&typed, out);
            }
            PlanKind::HashProbe => {
                // HashSetIndex's k-way walk already drives the smallest
                // list's elements through the other tables in ascending
                // size order — the same schedule `plan.order` encodes.
                let typed: Vec<&HashSetIndex> = lists.iter().map(|l| &l.hash).collect();
                HashSetIndex::intersect_k_into(&typed, out);
            }
            PlanKind::BitmapAnd => {
                let typed: Vec<&BitmapSet> = lists
                    .iter()
                    .map(|l| {
                        l.bitmap
                            .as_ref()
                            // audit:allow(hot_path_panic): the planner only picks BitmapAnd when every operand carried a bitmap
                            .expect("BitmapAnd only wins when every operand carries a bitmap")
                    })
                    .collect();
                BitmapSet::intersect_k_into(&typed, out);
            }
            PlanKind::GallopProbe => {
                let driver = lists[plan.order[0]].flat.as_slice();
                let rest: Vec<Probe> = plan.order[1..].iter().map(|&i| lists[i].probe()).collect();
                probe_into(driver, &rest, out);
            }
            PlanKind::HeapMerge => {
                let slices: Vec<&[Elem]> = lists.iter().map(|l| l.flat.as_slice()).collect();
                heap_merge_into(&slices, out);
            }
            PlanKind::CompressedGallop => {
                let mut cursors: Vec<BlockCursor> = plan
                    .order
                    .iter()
                    .map(|&i| {
                        lists[i]
                            .compressed
                            .as_ref()
                            // audit:allow(hot_path_panic): the planner only picks CompressedGallop when every operand carries block postings
                            .expect("CompressedGallop only wins when every operand carries block postings")
                            .cursor()
                    })
                    .collect();
                compressed_probe_into(&mut cursors, out);
            }
        }
    }

    /// Plans and executes in one call; returns the plan that ran.
    pub fn intersect(&self, lists: &[&PlannedList], out: &mut Vec<Elem>) -> MultiwayPlan {
        let plan = self.plan_for_lists(lists);
        self.execute(&plan, lists, out);
        plan
    }
}

/// A fully planned, self-contained index: every term prepared for every
/// representation, queries answered through the cost-model planner. The
/// planner-mode sibling of [`crate::engine::OwnedExecutor`] — serving
/// shards hold one per document range.
#[derive(Debug, Clone)]
pub struct PlannedExecutor {
    planner: Planner,
    lists: Vec<PlannedList>,
    universe: u64,
}

impl PlannedExecutor {
    /// Prepares every posting list of `engine` for planner dispatch.
    pub fn build(engine: &SearchEngine, planner: Planner) -> Self {
        let lists = engine
            .postings()
            .iter()
            .map(|p| PlannedList::build(engine.ctx(), p))
            .collect();
        Self {
            planner,
            lists,
            universe: engine.universe(),
        }
    }

    /// The planner answering queries.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Size of the document space this executor covers — the width of a
    /// shard's document range, or `max_doc + 1` (0 when empty) for an
    /// unsharded index ([`SearchEngine::universe`]). The denominator of the
    /// expression planner's selectivity estimates, so they describe the
    /// shard the plan runs on.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.lists.len()
    }

    /// The prepared list of a term.
    pub fn list(&self, term: usize) -> &PlannedList {
        // audit:allow(hot_path_index): public accessor with a documented term-id contract; a bounds panic is the misuse signal
        &self.lists[term]
    }

    /// Total heap footprint of all prepared representations.
    pub fn size_in_bytes(&self) -> usize {
        self.lists.iter().map(|l| l.size_in_bytes()).sum()
    }

    /// The plan the executor would run for this term list (telemetry; the
    /// query paths compute the same thing).
    pub fn plan(&self, terms: &[usize]) -> MultiwayPlan {
        let refs: Vec<&PlannedList> = terms.iter().map(|&t| &self.lists[t]).collect();
        self.planner.plan_for_lists(&refs)
    }

    /// Answers the conjunctive query `terms`, ascending document order.
    pub fn query(&self, terms: &[usize]) -> Vec<Elem> {
        let mut out = Vec::new();
        self.query_into(terms, &mut out);
        out
    }

    /// Appends the (ascending) answer to `out` — the hot-path form serving
    /// shards use to share one output buffer. Returns the plan that ran.
    pub fn query_into(&self, terms: &[usize], out: &mut Vec<Elem>) -> MultiwayPlan {
        let refs: Vec<&PlannedList> = terms.iter().map(|&t| &self.lists[t]).collect();
        let start = out.len();
        let plan = self.planner.intersect(&refs, out);
        // Every kernel emits ascending output already except RanGroupScan,
        // which emits in g-order — only that plan pays the sort.
        if plan.kind == PlanKind::RanGroupScan {
            out[start..].sort_unstable();
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_core::elem::reference_intersection;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Stats of a sparse list (no bitmap or block postings prepared).
    fn sparse(n: usize) -> OperandStats {
        OperandStats {
            n,
            chunks: None,
            compressed_bytes: None,
        }
    }

    /// Stats of a dense list touching `chunks` chunks.
    fn dense(n: usize, chunks: usize) -> OperandStats {
        OperandStats {
            n,
            chunks: Some(chunks),
            compressed_bytes: None,
        }
    }

    /// Stats of a sparse list whose block postings compressed to `bytes`.
    fn compressed(n: usize, bytes: usize) -> OperandStats {
        OperandStats {
            n,
            chunks: None,
            compressed_bytes: Some(bytes),
        }
    }

    fn kind(p: &Planner, stats: &[OperandStats]) -> PlanKind {
        p.plan(stats).kind
    }

    #[test]
    fn cost_model_regions_match_measured_crossovers() {
        let p = Planner::default();
        // Balanced sparse → RanGroupScan (the paper's home turf).
        assert_eq!(
            kind(&p, &[sparse(1000), sparse(1000)]),
            PlanKind::RanGroupScan
        );
        assert_eq!(
            kind(&p, &[sparse(1000), sparse(2000)]),
            PlanKind::RanGroupScan
        );
        // Moderate skew → GallopProbe (crossover near ratio 8).
        assert_eq!(
            kind(&p, &[sparse(1000), sparse(8000)]),
            PlanKind::GallopProbe
        );
        assert_eq!(
            kind(&p, &[sparse(100), sparse(500), sparse(6000)]),
            PlanKind::GallopProbe
        );
        // Extreme skew → HashProbe (crossover near ratio 64).
        assert_eq!(
            kind(&p, &[sparse(1000), sparse(64_000)]),
            PlanKind::HashProbe
        );
        assert_eq!(
            kind(&p, &[sparse(100), sparse(500), sparse(80_000)]),
            PlanKind::HashProbe
        );
        // Every operand dense → the chunked-bitmap AND wins outright.
        assert_eq!(
            kind(&p, &[dense(50_000, 2), dense(60_000, 2)]),
            PlanKind::BitmapAnd
        );
        assert_eq!(
            kind(&p, &[dense(10_000, 2), dense(80_000, 2)]),
            PlanKind::BitmapAnd
        );
        // One sparse operand vetoes the bitmap AND; the dense operand's
        // bitmap still prices its probe at one bit test per driver
        // element, so the skewed pair gallops-and-bit-tests instead of
        // hashing.
        assert_eq!(
            kind(&p, &[sparse(1_000), dense(80_000, 2)]),
            PlanKind::GallopProbe
        );
        let free_sweep = Planner {
            bitmap_word_unit: 0.0,
            ..Planner::default()
        };
        assert_ne!(
            kind(&free_sweep, &[sparse(1_000), dense(80_000, 2)]),
            PlanKind::BitmapAnd
        );
        // Degenerate inputs.
        assert_eq!(kind(&p, &[sparse(0), sparse(10)]), PlanKind::Empty);
        assert_eq!(kind(&p, &[]), PlanKind::Empty);
        assert_eq!(kind(&p, &[sparse(10)]), PlanKind::Single);
    }

    #[test]
    fn bit_test_probe_and_hash_probe_agree_at_the_moved_crossover() {
        // The `[sparse(1000), dense(80_000, 2)]` shape the cost model now
        // sends to GallopProbe: 1 000 sparse candidates tested against a
        // two-chunk list's bitmap. The speed comparison against probing
        // the hash table is timed by the multiway bench, in release.
        let ctx = HashContext::new(48);
        let mut rng = StdRng::seed_from_u64(12);
        let sparse: SortedSet = (0..1_000).map(|_| rng.gen_range(0..1u32 << 17)).collect();
        let dense: SortedSet = (0..90_000).map(|_| rng.gen_range(0..1u32 << 17)).collect();
        let (ps, pd) = (
            PlannedList::build(&ctx, &sparse),
            PlannedList::build(&ctx, &dense),
        );
        assert_eq!(pd.stats().chunks, Some(2));
        let lists = [&ps, &pd];
        let p = Planner::default();
        let probe = p.plan_for_lists(&lists);
        assert_eq!(probe.kind, PlanKind::GallopProbe);
        let hash = MultiwayPlan {
            kind: PlanKind::HashProbe,
            ..probe.clone()
        };
        let expect = reference_intersection(&[sparse.as_slice(), dense.as_slice()]);
        for plan in [&probe, &hash] {
            let mut out = Vec::new();
            p.execute(plan, &lists, &mut out);
            assert_eq!(out, expect, "{:?}", plan.kind);
        }
    }

    #[test]
    fn simd_tuning_only_cheapens_vectorized_units() {
        let base = Planner::default();
        for level in fsi_kernels::SimdLevel::ALL {
            let tuned = Planner::for_simd(level);
            // The bitmap sweep is the vectorized unit; everything else is
            // untouched so scalar-calibrated crossovers stay put.
            assert!(tuned.bitmap_word_unit <= base.bitmap_word_unit, "{level:?}");
            assert_eq!(tuned.gallop_unit, base.gallop_unit);
            assert_eq!(tuned.hash_unit, base.hash_unit);
            assert_eq!(tuned.rgs_unit, base.rgs_unit);
            assert_eq!(tuned.heap_unit, base.heap_unit);
            assert_eq!(tuned.decode_unit, base.decode_unit);
            assert_eq!(tuned.bytes_unit, base.bytes_unit);
        }
        // Scalar tuning IS the default; auto() follows the active tier.
        assert_eq!(
            Planner::for_simd(fsi_kernels::SimdLevel::Scalar).bitmap_word_unit,
            base.bitmap_word_unit
        );
        let auto = Planner::auto();
        assert_eq!(
            auto.bitmap_word_unit,
            Planner::for_simd(fsi_kernels::SimdLevel::active()).bitmap_word_unit
        );
        // A cheaper sweep can only widen the BitmapAnd region: a query it
        // already won under scalar constants it must still win tuned.
        let dense_pair = [dense(50_000, 2), dense(60_000, 2)];
        for level in fsi_kernels::SimdLevel::ALL {
            assert_eq!(
                kind(&Planner::for_simd(level), &dense_pair),
                PlanKind::BitmapAnd
            );
        }
    }

    #[test]
    fn plan_order_is_ascending_by_size() {
        let p = Planner::default();
        let plan = p.plan(&[sparse(500), sparse(20), sparse(9000), sparse(100)]);
        assert_eq!(plan.order, vec![1, 3, 0, 2]);
        assert!(plan.est_cost > 0.0);
    }

    #[test]
    fn all_plans_are_correct() {
        let ctx = HashContext::new(42);
        let mut rng = StdRng::seed_from_u64(5);
        let planner = Planner::default();
        // Balanced sparse.
        let a: SortedSet = (0..2000).map(|_| rng.gen_range(0..2_000_000u32)).collect();
        let b: SortedSet = (0..2000).map(|_| rng.gen_range(0..2_000_000u32)).collect();
        let pa = PlannedList::build(&ctx, &a);
        let pb = PlannedList::build(&ctx, &b);
        let mut out = Vec::new();
        let plan = planner.intersect(&[&pa, &pb], &mut out);
        assert_eq!(plan.kind, PlanKind::RanGroupScan);
        out.sort_unstable();
        assert_eq!(out, reference_intersection(&[a.as_slice(), b.as_slice()]));
        // Moderate skew.
        let small: SortedSet = (0..150u32).map(|x| x * 13_000).collect();
        let ps = PlannedList::build(&ctx, &small);
        let mut out = Vec::new();
        let plan = planner.intersect(&[&ps, &pb], &mut out);
        assert_eq!(plan.kind, PlanKind::GallopProbe);
        assert_eq!(plan.order, vec![0, 1]);
        out.sort_unstable();
        assert_eq!(
            out,
            reference_intersection(&[small.as_slice(), b.as_slice()])
        );
        // Extreme skew.
        let tiny: SortedSet = (0..20u32).map(|x| x * 100_000).collect();
        let pt = PlannedList::build(&ctx, &tiny);
        let mut out = Vec::new();
        let plan = planner.intersect(&[&pt, &pb], &mut out);
        assert_eq!(plan.kind, PlanKind::HashProbe);
        out.sort_unstable();
        assert_eq!(
            out,
            reference_intersection(&[tiny.as_slice(), b.as_slice()])
        );
        // Dense.
        let d1: SortedSet = (0..40_000u32).map(|x| x * 2).collect();
        let d2: SortedSet = (0..40_000u32).map(|x| x * 2 + (x % 2)).collect();
        let pd1 = PlannedList::build(&ctx, &d1);
        let pd2 = PlannedList::build(&ctx, &d2);
        let mut out = Vec::new();
        let plan = planner.intersect(&[&pd1, &pd2], &mut out);
        assert_eq!(plan.kind, PlanKind::BitmapAnd);
        out.sort_unstable();
        assert_eq!(out, reference_intersection(&[d1.as_slice(), d2.as_slice()]));
        // Single and empty.
        let mut out = Vec::new();
        let plan = planner.intersect(&[&pa], &mut out);
        assert_eq!(plan.kind, PlanKind::Single);
        out.sort_unstable();
        assert_eq!(out, a.as_slice());
        let empty = PlannedList::build(&ctx, &SortedSet::new());
        let mut out = Vec::new();
        let plan = planner.intersect(&[&pa, &empty], &mut out);
        assert_eq!(plan.kind, PlanKind::Empty);
        assert!(out.is_empty());
    }

    #[test]
    fn sparse_lists_skip_the_bitmap_and_veto_bitmap_plans() {
        let ctx = HashContext::new(44);
        // ~1/131072 dense: the planner can never pick BitmapAnd for a query
        // containing this list, so no 8KiB-per-chunk bitmap is built.
        let sparse_a: SortedSet = (0..100u32).map(|x| x * 131_072).collect();
        let sparse_b: SortedSet = (0..120u32).map(|x| x * 109_997 + 13).collect();
        let dense_c: SortedSet = (0..10_000u32).map(|x| x * 4).collect();
        let pa = PlannedList::build(&ctx, &sparse_a);
        let pb = PlannedList::build(&ctx, &sparse_b);
        let pd = PlannedList::build(&ctx, &dense_c);
        assert!(pa.bitmap.is_none());
        assert!(pb.bitmap.is_none());
        assert!(pd.bitmap.is_some());
        // One bitmap-less operand makes BitmapAnd inadmissible however
        // cheap the word sweep would be.
        let p = Planner {
            bitmap_word_unit: 0.0,
            ..Planner::default()
        };
        let mut out = Vec::new();
        let plan = p.intersect(&[&pa, &pb], &mut out);
        assert_ne!(plan.kind, PlanKind::BitmapAnd);
        out.sort_unstable();
        assert_eq!(
            out,
            reference_intersection(&[sparse_a.as_slice(), sparse_b.as_slice()])
        );
        let mut out = Vec::new();
        let plan = p.intersect(&[&pa, &pd], &mut out);
        assert_ne!(plan.kind, PlanKind::BitmapAnd);
        out.sort_unstable();
        assert_eq!(
            out,
            reference_intersection(&[sparse_a.as_slice(), dense_c.as_slice()])
        );
    }

    #[test]
    fn plan_for_sets_matches_plan_for_built_lists() {
        let ctx = HashContext::new(45);
        let mut rng = StdRng::seed_from_u64(7);
        let planner = Planner::default();
        for (sizes, universe) in [
            (vec![1500usize, 1500], 5_000_000u32),
            (vec![100, 1500], 5_000_000),
            (vec![20, 1500], 5_000_000),
            (vec![1500, 1500], 3_000),
            (vec![0, 10], 100),
            (vec![700], 10_000),
        ] {
            let sets: Vec<SortedSet> = sizes
                .iter()
                .map(|&n| (0..n).map(|_| rng.gen_range(0..universe)).collect())
                .collect();
            let set_refs: Vec<&SortedSet> = sets.iter().collect();
            let lists: Vec<PlannedList> =
                sets.iter().map(|s| PlannedList::build(&ctx, s)).collect();
            let refs: Vec<&PlannedList> = lists.iter().collect();
            // The stats themselves must agree field-for-field — including
            // the measured-vs-built compressed footprint — not just the
            // plan they induce.
            for (set, list) in sets.iter().zip(&lists) {
                assert_eq!(OperandStats::of_set(set), list.stats(), "sizes {sizes:?}");
            }
            assert_eq!(
                planner.plan_for_sets(&set_refs),
                planner.plan_for_lists(&refs),
                "sizes {sizes:?}"
            );
        }
    }

    #[test]
    fn operand_stats_are_invariant_under_chunk_shifts() {
        // A shard's lists start wherever its document range starts; the
        // bitmap rule must not care. Shifting a list by whole chunks keeps
        // its size, its chunk count and whether it carries a bitmap.
        let ctx = HashContext::new(49);
        let mut rng = StdRng::seed_from_u64(13);
        for (n, span) in [(40_000usize, 1u32 << 17), (3_000, 1 << 17), (900, 1 << 18)] {
            let set: SortedSet = (0..n).map(|_| rng.gen_range(0..span)).collect();
            let base = OperandStats::of_set(&set);
            for k in [1u32, 3, 30_000] {
                let shifted: SortedSet = set.iter().map(|x| x + (k << 16)).collect();
                let stats = OperandStats::of_set(&shifted);
                assert_eq!(stats, base, "n={n} shifted by {k} chunks");
                assert_eq!(PlannedList::build(&ctx, &shifted).stats(), stats);
            }
        }
    }

    #[test]
    fn memory_pressure_flips_to_compressed_domain_and_stays_correct() {
        let ctx = HashContext::new(47);
        // Clustered doc ids (small gaps) — the compressed form is many
        // times smaller than the 4-bytes-per-id flat list.
        let a: SortedSet = (0..3000u32).map(|x| x * 3).collect();
        let b: SortedSet = (0..3500u32).map(|x| x * 3 + (x % 3)).collect();
        let pa = PlannedList::build(&ctx, &a);
        let pb = PlannedList::build(&ctx, &b);
        let expect = reference_intersection(&[a.as_slice(), b.as_slice()]);

        // No memory pressure: the pure-compute model never pays the decode
        // term, so the compressed plan is dominated.
        let calm = Planner::default();
        assert_ne!(
            calm.plan_for_lists(&[&pa, &pb]).kind,
            PlanKind::CompressedGallop
        );
        // Under pressure the byte footprint dominates and the planner
        // switches to probing the blocks directly — byte-identical result.
        let pressured = Planner {
            bytes_unit: 100.0,
            ..Planner::default()
        };
        let mut out = Vec::new();
        let plan = pressured.intersect(&[&pa, &pb], &mut out);
        assert_eq!(plan.kind, PlanKind::CompressedGallop);
        assert_eq!(out, expect);
    }

    #[test]
    fn cost_units_are_tunable_and_can_force_every_kernel() {
        // Cranking every other unit sky-high forces each candidate in turn.
        let sets = [sparse(3000), sparse(4000), sparse(5000)];
        let force = |rgs: f64, gallop: f64, hash: f64, heap: f64| Planner {
            rgs_unit: rgs,
            gallop_unit: gallop,
            hash_unit: hash,
            heap_unit: heap,
            bitmap_word_unit: f64::INFINITY,
            ..Planner::default()
        };
        assert_eq!(
            kind(&force(1e-6, 1e9, 1e9, 1e9), &sets),
            PlanKind::RanGroupScan
        );
        assert_eq!(
            kind(&force(1e9, 1e-6, 1e9, 1e9), &sets),
            PlanKind::GallopProbe
        );
        assert_eq!(
            kind(&force(1e9, 1e9, 1e-6, 1e9), &sets),
            PlanKind::HashProbe
        );
        assert_eq!(
            kind(&force(1e9, 1e9, 1e9, 1e-6), &sets),
            PlanKind::HeapMerge
        );
        let dense_sets = [dense(3000, 1), dense(4000, 1)];
        let bitmap_cheap = Planner {
            rgs_unit: 1e9,
            gallop_unit: 1e9,
            hash_unit: 1e9,
            heap_unit: 1e9,
            bitmap_word_unit: 1e-6,
            ..Planner::default()
        };
        assert_eq!(kind(&bitmap_cheap, &dense_sets), PlanKind::BitmapAnd);
        // Operands carrying block postings + a hot bytes_unit force the
        // compressed-domain plan: flat candidates pay 4 bytes/element,
        // compressed pays only its (much smaller) exact footprint.
        let comp_sets = [compressed(3000, 1200), compressed(4000, 1500)];
        let pressured = Planner {
            bytes_unit: 100.0,
            ..Planner::default()
        };
        assert_eq!(kind(&pressured, &comp_sets), PlanKind::CompressedGallop);
        // Without pressure the decode term keeps it strictly dominated.
        assert_ne!(
            kind(&Planner::default(), &comp_sets),
            PlanKind::CompressedGallop
        );
        // A single operand without block postings vetoes the candidate.
        let mixed = [compressed(3000, 1200), sparse(4000)];
        assert_ne!(kind(&pressured, &mixed), PlanKind::CompressedGallop);
    }

    #[test]
    fn every_forced_kernel_is_correct() {
        let ctx = HashContext::new(43);
        let mut rng = StdRng::seed_from_u64(6);
        for k in 2..=5usize {
            let sets: Vec<SortedSet> = (0..k)
                .map(|_| (0..1500).map(|_| rng.gen_range(0..40_000u32)).collect())
                .collect();
            let lists: Vec<PlannedList> =
                sets.iter().map(|s| PlannedList::build(&ctx, s)).collect();
            let refs: Vec<&PlannedList> = lists.iter().collect();
            let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
            let expect = reference_intersection(&slices);
            let planner = Planner::default();
            let base = planner.plan_for_lists(&refs);
            for forced in [
                PlanKind::RanGroupScan,
                PlanKind::HashProbe,
                PlanKind::GallopProbe,
                PlanKind::HeapMerge,
                PlanKind::CompressedGallop,
            ] {
                let plan = MultiwayPlan {
                    kind: forced,
                    ..base.clone()
                };
                let mut out = Vec::new();
                planner.execute(&plan, &refs, &mut out);
                out.sort_unstable();
                assert_eq!(out, expect, "forced {forced:?} k={k}");
            }
        }
    }

    #[test]
    fn planned_executor_matches_reference() {
        let ctx = HashContext::new(46);
        let mut rng = StdRng::seed_from_u64(8);
        let postings: Vec<SortedSet> = (0..12)
            .map(|i| {
                let n = 200 * (i + 1);
                (0..n).map(|_| rng.gen_range(0..60_000u32)).collect()
            })
            .collect();
        let engine = SearchEngine::from_postings(ctx, postings);
        let exec = engine.planned_executor(Planner::default());
        assert_eq!(exec.num_terms(), 12);
        assert!(exec.size_in_bytes() > 0);
        for terms in [
            vec![0usize, 1],
            vec![0, 5, 11],
            vec![3, 3, 7], // duplicate term
            vec![9],
            vec![],
        ] {
            let slices: Vec<&[u32]> = terms
                .iter()
                .map(|&t| engine.posting(t).as_slice())
                .collect();
            let expect = reference_intersection(&slices);
            assert_eq!(exec.query(&terms), expect, "{terms:?}");
            let plan = exec.plan(&terms);
            let mut out = vec![1234u32]; // prefix must survive query_into
            let ran = exec.query_into(&terms, &mut out);
            assert_eq!(ran, plan);
            assert_eq!(&out[..1], &[1234]);
            assert_eq!(&out[1..], expect.as_slice(), "{terms:?}");
        }
    }
}
