//! True k-way intersection kernels: the smallest set drives probes into
//! all the others, with **no materialized intermediate results**.
//!
//! The paper's headline algorithms (IntGroup, RanGroup, the small×large
//! adaptive probes of §3.4) are defined over intersecting *k* sets at once,
//! yet a pairwise fold — `((L₁ ∩ L₂) ∩ L₃) ∩ …` — materializes every
//! intermediate, re-scanning survivors once per remaining list. The kernels
//! here evaluate the whole operand list in one pass each:
//!
//! * [`GallopProbe`] — sort the lists by length, then drive each candidate
//!   of the smallest list through all the others with per-list galloping
//!   cursors (`O(n_min · Σᵢ log(nᵢ/n_min))`, Hwang–Lin across all `k` at
//!   once). A candidate that misses any list is dropped immediately — no
//!   later list ever sees it — and an exhausted cursor ends the whole
//!   query early.
//! * [`BitmapAnd`] — a k-way chunked-bitmap `AND`: for every chunk of the
//!   operand with the fewest chunks, locate the aligned chunk in the other
//!   operands and `AND` all `k` bitmaps word-by-word before any extraction.
//!   One 64-bit `AND` covers 64 universe slots per operand; a chunk that
//!   zeroes out is abandoned mid-`AND`.
//! * [`HeapMerge`] — a binary min-heap over the `k` list heads: pop the
//!   minimum, count how many lists carry it, emit it only when all `k` do.
//!   `O(Σ nᵢ · log k)`, no random access — the robust fallback when sizes
//!   are balanced and nothing is dense enough for the bitmap sweep.
//!
//! [`MultiwayAuto`] picks among the three per call from the operand sizes
//! and the universe span, mirroring [`KernelChoice`](crate::KernelChoice)'s
//! dispatch shape at the k-way level. The `fsi-index` planner applies a
//! finer *cost model* over prepared lists (adding a hash-probe tier and the
//! paper's RanGroupScan); these kernels are the slice-level machinery both
//! dispatchers bottom out in.

use crate::bitmap::{BitCursor, BitmapSet};
use crate::gallop::GALLOP_RATIO;
use crate::kernel::BITMAP_MIN_DENSITY;
use fsi_core::elem::Elem;
use fsi_core::search::gallop;
use fsi_core::traits::KIntersect;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A k-way slice-level intersection kernel.
///
/// Implementations accept any number of sorted, duplicate-free slices and
/// append the **ascending** intersection of all of them to `out`. Zero
/// operands yield nothing; one operand is copied through.
pub trait MultiwayKernel: std::fmt::Debug + Send + Sync {
    /// The label benchmarks and tests report.
    fn name(&self) -> &'static str;

    /// Appends `⋂ sets` to `out`, ascending.
    fn intersect(&self, sets: &[&[Elem]], out: &mut Vec<Elem>);
}

/// Drives every candidate of the smallest list through all the other lists
/// with per-list galloping cursors, appending survivors (ascending) to
/// `out`. No intermediate result is ever materialized.
pub fn gallop_probe_into(sets: &[&[Elem]], out: &mut Vec<Elem>) {
    match sets {
        [] => {}
        [a] => out.extend_from_slice(a),
        _ => {
            let mut order: Vec<&[Elem]> = sets.to_vec();
            // Probing the next-smallest list first maximizes the chance a
            // doomed candidate dies on its first (cheapest) probe.
            order.sort_by_key(|s| s.len());
            // audit:allow(hot_path_panic): k >= 2 was checked at dispatch, so split_first always succeeds
            let (driver, rest) = order.split_first().expect("k >= 2");
            let rest: Vec<Probe> = rest.iter().map(|&s| Probe::Sorted(s)).collect();
            probe_into(driver, &rest, out);
        }
    }
}

/// One operand a driver's candidates are tested against: by one bit when
/// it carries a chunk bitmap, by a galloping cursor over its sorted list
/// otherwise.
#[derive(Debug, Clone, Copy)]
pub enum Probe<'a> {
    /// A chunk bitmap: one bit test per candidate.
    Bits(&'a BitmapSet),
    /// A sorted, duplicate-free list: one exponential search per candidate.
    Sorted(&'a [Elem]),
}

/// The per-call state of one [`Probe`]: candidates arrive ascending, so
/// each cursor only ever moves forward.
pub(crate) enum ProbeCursor<'a> {
    Bits(BitCursor<'a>),
    Sorted { list: &'a [Elem], pos: usize },
}

impl<'a> ProbeCursor<'a> {
    pub(crate) fn new(probe: &Probe<'a>) -> Self {
        match *probe {
            Probe::Bits(set) => ProbeCursor::Bits(BitCursor::new(set)),
            Probe::Sorted(list) => ProbeCursor::Sorted { list, pos: 0 },
        }
    }

    /// Whether candidate `x` (not smaller than the previous one) is a
    /// member; `None` once the operand holds nothing at or above `x`, so
    /// no later candidate can be a member either.
    #[inline]
    pub(crate) fn find(&mut self, x: Elem) -> Option<bool> {
        match self {
            ProbeCursor::Bits(bits) => bits.find(x),
            ProbeCursor::Sorted { list, pos } => {
                let c = gallop(list, *pos, x);
                let &y = list.get(c)?;
                *pos = c + usize::from(y == x);
                Some(y == x)
            }
        }
    }
}

/// Tests every candidate of `driver` against `rest` **in the given order**
/// (callers — the `fsi-index` planner — choose the evaluation order; this
/// function never re-sorts) and appends the candidates every operand
/// holds to `out`, ascending. A candidate is dropped at its first miss,
/// and an operand with nothing left at or above a candidate ends the
/// whole call. A lone bitmapped operand takes `BitmapSet::filter_into`,
/// whose write side has no branch on the tested bit: at one sparse driver
/// against a list dense over two chunks it runs about twice as fast as
/// the general loop (the multiway bench's `crossover` row times it).
pub fn probe_into(driver: &[Elem], rest: &[Probe<'_>], out: &mut Vec<Elem>) {
    match rest {
        [] => return out.extend_from_slice(driver),
        [Probe::Bits(bits)] => return bits.filter_into(driver, out),
        _ => {}
    }
    let mut cursors: Vec<ProbeCursor> = rest.iter().map(ProbeCursor::new).collect();
    'candidates: for &x in driver {
        for cursor in &mut cursors {
            match cursor.find(x) {
                Some(true) => {}
                Some(false) => continue 'candidates,
                // Every later candidate is larger still: done.
                None => return,
            }
        }
        out.push(x);
    }
}

/// Heap-based k-way merge: pops the minimum head across all lists and emits
/// it only when every list carries it. Appends ascending output to `out`.
pub fn heap_merge_into(sets: &[&[Elem]], out: &mut Vec<Elem>) {
    match sets {
        [] => {}
        [a] => out.extend_from_slice(a),
        _ => {
            let k = sets.len();
            if sets.iter().any(|s| s.is_empty()) {
                return;
            }
            let mut cursors = vec![0usize; k];
            // Min-heap of (head value, list index).
            let mut heap: BinaryHeap<Reverse<(Elem, usize)>> = sets
                .iter()
                .enumerate()
                .map(|(i, s)| Reverse((s[0], i)))
                .collect();
            let mut popped: Vec<usize> = Vec::with_capacity(k);
            loop {
                // audit:allow(hot_path_panic): the heap is re-pushed back to k entries every round before pop
                let Reverse((v, first)) = heap.pop().expect("heap holds k entries");
                popped.clear();
                popped.push(first);
                while let Some(&Reverse((head, i))) = heap.peek() {
                    if head != v {
                        break;
                    }
                    heap.pop();
                    popped.push(i);
                }
                if popped.len() == k {
                    out.push(v);
                }
                for &i in &popped {
                    cursors[i] += 1;
                    if cursors[i] >= sets[i].len() {
                        // One list exhausted: nothing further can be in all k.
                        return;
                    }
                    heap.push(Reverse((sets[i][cursors[i]], i)));
                }
            }
        }
    }
}

/// The k-way gallop-probe kernel (see [`gallop_probe_into`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct GallopProbe;

impl MultiwayKernel for GallopProbe {
    fn name(&self) -> &'static str {
        "GallopProbe"
    }

    fn intersect(&self, sets: &[&[Elem]], out: &mut Vec<Elem>) {
        gallop_probe_into(sets, out);
    }
}

/// The heap-based k-way merge kernel (see [`heap_merge_into`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapMerge;

impl MultiwayKernel for HeapMerge {
    fn name(&self) -> &'static str {
        "HeapMerge"
    }

    fn intersect(&self, sets: &[&[Elem]], out: &mut Vec<Elem>) {
        heap_merge_into(sets, out);
    }
}

/// The k-way chunked-bitmap `AND` kernel: builds the chunk bitmaps on the
/// fly (`O(Σ nᵢ)`, the same order as reading the input) and intersects all
/// `k` chunk-by-chunk without intermediates. The prepared form
/// ([`BitmapSet`]) is what the `fsi-index` planner stores; this form is
/// what slice-level selection uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitmapAnd;

impl MultiwayKernel for BitmapAnd {
    fn name(&self) -> &'static str {
        "BitmapAnd"
    }

    fn intersect(&self, sets: &[&[Elem]], out: &mut Vec<Elem>) {
        let built: Vec<BitmapSet> = sets
            .iter()
            .map(|s| BitmapSet::from_sorted_slice(s))
            .collect();
        let refs: Vec<&BitmapSet> = built.iter().collect();
        BitmapSet::intersect_k_into(&refs, out);
    }
}

/// Which k-way kernel [`MultiwayAuto`] picked (exposed for tests and
/// telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiwayChoice {
    /// An empty operand (or no operands): the result is empty, run nothing.
    Trivial,
    /// Skewed sizes: gallop the smallest list through all the others.
    GallopProbe,
    /// Dense operands: word-parallel k-way chunked-bitmap `AND`.
    BitmapAnd,
    /// Balanced, sparse: heap-based k-way merge.
    HeapMerge,
}

impl MultiwayChoice {
    /// The label telemetry reports for this choice.
    pub fn name(self) -> &'static str {
        match self {
            MultiwayChoice::Trivial => "Trivial",
            MultiwayChoice::GallopProbe => "GallopProbe",
            MultiwayChoice::BitmapAnd => "BitmapAnd",
            MultiwayChoice::HeapMerge => "HeapMerge",
        }
    }

    /// Bumps this choice's dispatch counter in the global metrics registry
    /// (`fsi_kernel_multiway_dispatch_total{kernel=...}`) — the k-way
    /// sibling of `KernelChoice`'s pair counter.
    fn record_dispatch(self) {
        use std::sync::OnceLock;
        static COUNTERS: OnceLock<[std::sync::Arc<fsi_obs::Counter>; 4]> = OnceLock::new();
        let counters = COUNTERS.get_or_init(|| {
            [
                MultiwayChoice::Trivial,
                MultiwayChoice::GallopProbe,
                MultiwayChoice::BitmapAnd,
                MultiwayChoice::HeapMerge,
            ]
            .map(|k| {
                fsi_obs::Registry::global().counter(
                    "fsi_kernel_multiway_dispatch_total",
                    &[("kernel", k.name())],
                )
            })
        });
        // audit:allow(hot_path_index): the array is sized to the enum's variant count and indexed by discriminant
        counters[self as usize].inc();
    }

    /// Dispatch rule, mirroring [`KernelChoice::select`](crate::KernelChoice)
    /// at the k-way level: an empty operand is trivial; size skew
    /// (`max nᵢ / min nᵢ ≥` [`GALLOP_RATIO`]) → gallop-probe; density
    /// (`n_min / universe ≥` [`BITMAP_MIN_DENSITY`]) → bitmap `AND`;
    /// otherwise the heap merge. `universe_span` is `max element + 1` over
    /// the operands.
    pub fn select(sizes: &[usize], universe_span: u64) -> Self {
        let Some(&lo) = sizes.iter().min() else {
            return MultiwayChoice::Trivial;
        };
        // audit:allow(hot_path_panic): sizes is non-empty on this path (k >= 2)
        let hi = *sizes.iter().max().expect("non-empty");
        if lo == 0 {
            MultiwayChoice::Trivial
        } else if hi / lo >= GALLOP_RATIO {
            MultiwayChoice::GallopProbe
        } else if lo as f64 >= BITMAP_MIN_DENSITY * universe_span.max(1) as f64 {
            MultiwayChoice::BitmapAnd
        } else {
            MultiwayChoice::HeapMerge
        }
    }
}

/// A kernel that re-selects per call via [`MultiwayChoice::select`].
#[derive(Debug, Clone, Default)]
pub struct MultiwayAuto {
    probe: GallopProbe,
    bitmap: BitmapAnd,
    heap: HeapMerge,
}

impl MultiwayAuto {
    /// The choice [`MultiwayAuto::intersect`] would make for these operands.
    pub fn choice(sets: &[&[Elem]]) -> MultiwayChoice {
        let sizes: Vec<usize> = sets.iter().map(|s| s.len()).collect();
        let span = sets
            .iter()
            .filter_map(|s| s.last())
            .max()
            .map_or(0, |&m| m as u64 + 1);
        MultiwayChoice::select(&sizes, span)
    }
}

impl MultiwayKernel for MultiwayAuto {
    fn name(&self) -> &'static str {
        "MultiwayAuto"
    }

    fn intersect(&self, sets: &[&[Elem]], out: &mut Vec<Elem>) {
        let choice = Self::choice(sets);
        choice.record_dispatch();
        match (sets, choice) {
            ([], _) => {}
            ([a], _) => out.extend_from_slice(a),
            (_, MultiwayChoice::Trivial) => {}
            (_, MultiwayChoice::GallopProbe) => self.probe.intersect(sets, out),
            (_, MultiwayChoice::BitmapAnd) => self.bitmap.intersect(sets, out),
            (_, MultiwayChoice::HeapMerge) => self.heap.intersect(sets, out),
        }
    }
}

// ---------------------------------------------------------------------------
// Compressed-domain k-way probe
// ---------------------------------------------------------------------------

/// A seekable streaming cursor over one sorted, duplicate-free operand —
/// the abstraction that lets the k-way probe run directly over compressed
/// representations. `fsi-compress`'s `BlockPostings` implements this with
/// skip-table block jumps (decoding only the blocks a seek lands in);
/// [`SliceCursor`] adapts a flat slice with galloping, which is both the
/// differential-test oracle and the mixed-operand escape hatch.
pub trait SkipCursor {
    /// Total number of elements in the underlying operand (not the number
    /// remaining) — the probe sorts cursors by this to pick its driver.
    fn len(&self) -> usize;

    /// Whether the underlying operand is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element the cursor points at, or `None` once exhausted. A fresh
    /// cursor points at the first element.
    fn current(&self) -> Option<Elem>;

    /// Advances one element.
    fn advance(&mut self);

    /// Advances to the first element `>= target` (a no-op when the current
    /// element already qualifies) and returns it, or `None` when the
    /// operand has no such element. Targets never decrease across calls.
    fn seek(&mut self, target: Elem) -> Option<Elem>;
}

/// A [`SkipCursor`] over a flat sorted slice: `seek` gallops from the
/// current position, mirroring [`probe_into`]'s galloping cursor
/// discipline.
#[derive(Debug, Clone)]
pub struct SliceCursor<'a> {
    slice: &'a [Elem],
    pos: usize,
}

impl<'a> SliceCursor<'a> {
    /// A cursor positioned at the first element of `slice`.
    pub fn new(slice: &'a [Elem]) -> Self {
        SliceCursor { slice, pos: 0 }
    }
}

impl SkipCursor for SliceCursor<'_> {
    fn len(&self) -> usize {
        self.slice.len()
    }

    fn current(&self) -> Option<Elem> {
        self.slice.get(self.pos).copied()
    }

    fn advance(&mut self) {
        self.pos += 1;
    }

    fn seek(&mut self, target: Elem) -> Option<Elem> {
        match self.slice.get(self.pos) {
            Some(&v) if v >= target => Some(v),
            Some(_) => {
                self.pos = gallop(self.slice, self.pos, target);
                self.slice.get(self.pos).copied()
            }
            None => None,
        }
    }
}

/// The k-way candidate probe over [`SkipCursor`]s: the shortest operand
/// drives, every other cursor seeks to each candidate, and a miss promotes
/// the blocking cursor's element to the new candidate (seeking the driver
/// forward past the gap). Appends the ascending intersection to `out`.
///
/// This is [`gallop_probe_into`] lifted off flat slices: when the cursors
/// are compressed block cursors, a seek that overshoots a block consults
/// only the skip table — the block's payload is never decoded.
pub fn compressed_probe_into<C: SkipCursor>(cursors: &mut [C], out: &mut Vec<Elem>) {
    match cursors {
        [] => {}
        [a] => {
            while let Some(v) = a.current() {
                out.push(v);
                a.advance();
            }
        }
        _ => {
            // Shortest operand drives: its candidates die on their first
            // (cheapest) miss, and the long operands are only ever probed.
            cursors.sort_by_key(|c| c.len());
            // audit:allow(hot_path_panic): k >= 2 was matched above, so split_first always succeeds
            let (driver, rest) = cursors.split_first_mut().expect("k >= 2");
            let Some(mut cand) = driver.current() else {
                return;
            };
            'candidates: loop {
                for c in rest.iter_mut() {
                    match c.seek(cand) {
                        // One operand exhausted: nothing further can be in
                        // all k.
                        None => return,
                        Some(v) if v == cand => {}
                        Some(v) => {
                            // Miss: v is the smallest value this operand
                            // still carries, so jump the driver to it.
                            match driver.seek(v) {
                                None => return,
                                Some(nc) => {
                                    cand = nc;
                                    continue 'candidates;
                                }
                            }
                        }
                    }
                }
                out.push(cand);
                driver.advance();
                match driver.current() {
                    Some(v) => cand = v,
                    None => return,
                }
            }
        }
    }
}

/// The compressed-domain k-way probe kernel (see [`compressed_probe_into`])
/// — a marker the `fsi-index` planner dispatches through; it is not a
/// [`MultiwayKernel`] because its operands are cursors, not slices.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompressedProbe;

impl CompressedProbe {
    /// The label benchmarks and plan explainers report.
    pub fn name(&self) -> &'static str {
        "CompressedProbe"
    }

    /// Appends the ascending intersection of the cursors' operands to
    /// `out`.
    pub fn intersect<C: SkipCursor>(&self, cursors: &mut [C], out: &mut Vec<Elem>) {
        compressed_probe_into(cursors, out);
    }
}

/// The pairwise-fold baseline the multiway kernels are benchmarked against:
/// sort by length, intersect the two smallest, then fold each remaining
/// list in — materializing every intermediate, exactly what true k-way
/// evaluation avoids. `pair` is the pair kernel folded over.
pub fn pairwise_fold_into(pair: &dyn crate::kernel::Kernel, sets: &[&[Elem]], out: &mut Vec<Elem>) {
    match sets {
        [] => {}
        [a] => out.extend_from_slice(a),
        _ => {
            let mut order: Vec<&[Elem]> = sets.to_vec();
            order.sort_by_key(|s| s.len());
            let mut acc = Vec::new();
            pair.intersect_pair(order[0], order[1], &mut acc);
            for s in &order[2..] {
                if acc.is_empty() {
                    break;
                }
                let mut next = Vec::new();
                pair.intersect_pair(&acc, s, &mut next);
                acc = next;
            }
            out.extend(acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_core::elem::{reference_intersection, SortedSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn kernels() -> Vec<Box<dyn MultiwayKernel>> {
        vec![
            Box::new(GallopProbe),
            Box::new(HeapMerge),
            Box::new(BitmapAnd),
            Box::new(MultiwayAuto::default()),
        ]
    }

    fn random_sets(rng: &mut StdRng, k: usize, max_n: usize, universe: u32) -> Vec<SortedSet> {
        (0..k)
            .map(|_| {
                let n = rng.gen_range(0..max_n);
                (0..n).map(|_| rng.gen_range(0..universe)).collect()
            })
            .collect()
    }

    #[test]
    fn every_kernel_matches_reference() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..12 {
            for k in 2..=6usize {
                let universe = rng.gen_range(1..50_000u32);
                let sets = random_sets(&mut rng, k, 1200, universe);
                let slices: Vec<&[Elem]> = sets.iter().map(|s| s.as_slice()).collect();
                let expect = reference_intersection(&slices);
                for kernel in kernels() {
                    let mut out = Vec::new();
                    kernel.intersect(&slices, &mut out);
                    assert_eq!(out, expect, "{} trial {trial} k={k}", kernel.name());
                }
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let a: SortedSet = (0..50u32).collect();
        let empty = SortedSet::new();
        for kernel in kernels() {
            let mut out = Vec::new();
            kernel.intersect(&[], &mut out);
            assert!(out.is_empty(), "{} on zero operands", kernel.name());
            kernel.intersect(&[a.as_slice()], &mut out);
            assert_eq!(out, a.as_slice(), "{} on one operand", kernel.name());
            out.clear();
            kernel.intersect(&[a.as_slice(), empty.as_slice(), a.as_slice()], &mut out);
            assert!(out.is_empty(), "{} with an empty operand", kernel.name());
        }
    }

    #[test]
    fn duplicate_operands_and_identical_lists() {
        let a: SortedSet = (0..500u32).step_by(3).collect();
        for kernel in kernels() {
            let mut out = Vec::new();
            kernel.intersect(&[a.as_slice(), a.as_slice(), a.as_slice()], &mut out);
            assert_eq!(out, a.as_slice(), "{}", kernel.name());
        }
    }

    #[test]
    fn gallop_probe_early_exits_on_exhausted_list() {
        // The driver continues past the largest element of another list:
        // the kernel must stop, not scan the remaining candidates.
        let driver: SortedSet = (0..1000u32).collect();
        let low: SortedSet = (0..10u32).collect();
        let mut out = Vec::new();
        gallop_probe_into(&[driver.as_slice(), low.as_slice()], &mut out);
        assert_eq!(out, low.as_slice());
    }

    #[test]
    fn boundary_values_survive_all_kernels() {
        let a = SortedSet::from_unsorted(vec![0, 65_535, 65_536, u32::MAX - 1, u32::MAX]);
        let b = SortedSet::from_unsorted(vec![0, 65_536, u32::MAX]);
        let c = SortedSet::from_unsorted(vec![0, 1, 65_536, u32::MAX]);
        for kernel in kernels() {
            let mut out = Vec::new();
            kernel.intersect(&[a.as_slice(), b.as_slice(), c.as_slice()], &mut out);
            assert_eq!(out, vec![0, 65_536, u32::MAX], "{}", kernel.name());
        }
    }

    #[test]
    fn selection_rules() {
        assert_eq!(MultiwayChoice::select(&[], 100), MultiwayChoice::Trivial);
        assert_eq!(
            MultiwayChoice::select(&[0, 10, 10], 100),
            MultiwayChoice::Trivial
        );
        assert_eq!(
            MultiwayChoice::select(&[10, 500, 1000], 1 << 20),
            MultiwayChoice::GallopProbe
        );
        assert_eq!(
            MultiwayChoice::select(&[500, 600, 700], 1000),
            MultiwayChoice::BitmapAnd
        );
        assert_eq!(
            MultiwayChoice::select(&[500, 600, 700], 1 << 20),
            MultiwayChoice::HeapMerge
        );
    }

    #[test]
    fn pairwise_fold_matches_reference() {
        let mut rng = StdRng::seed_from_u64(78);
        let sets = random_sets(&mut rng, 4, 900, 5_000);
        let slices: Vec<&[Elem]> = sets.iter().map(|s| s.as_slice()).collect();
        let mut out = Vec::new();
        pairwise_fold_into(&crate::kernel::ScalarMerge, &slices, &mut out);
        assert_eq!(out, reference_intersection(&slices));
    }

    #[test]
    fn compressed_probe_over_slice_cursors_matches_reference() {
        let mut rng = StdRng::seed_from_u64(79);
        for trial in 0..12 {
            for k in 1..=6usize {
                let universe = rng.gen_range(1..50_000u32);
                let sets = random_sets(&mut rng, k, 1200, universe);
                let slices: Vec<&[Elem]> = sets.iter().map(|s| s.as_slice()).collect();
                let expect = reference_intersection(&slices);
                let mut cursors: Vec<SliceCursor> =
                    slices.iter().map(|s| SliceCursor::new(s)).collect();
                let mut out = Vec::new();
                compressed_probe_into(&mut cursors, &mut out);
                assert_eq!(out, expect, "trial {trial} k={k}");
            }
        }
    }

    #[test]
    fn slice_cursor_seek_is_monotone_and_inclusive() {
        let s: SortedSet = (0..100u32).step_by(7).collect();
        let mut c = SliceCursor::new(s.as_slice());
        assert_eq!(c.current(), Some(0));
        assert_eq!(c.seek(0), Some(0), "seek to the current element is a no-op");
        assert_eq!(c.seek(1), Some(7));
        assert_eq!(c.seek(7), Some(7), "repeated seek stays put");
        assert_eq!(c.seek(50), Some(56));
        c.advance();
        assert_eq!(c.current(), Some(63));
        assert_eq!(c.seek(1_000), None, "past the end exhausts the cursor");
        assert_eq!(c.current(), None);
        assert_eq!(c.len(), s.len(), "len reports the whole operand");
    }

    #[test]
    fn compressed_probe_degenerate_inputs() {
        let a: SortedSet = (0..50u32).collect();
        let mut out = Vec::new();
        compressed_probe_into::<SliceCursor>(&mut [], &mut out);
        assert!(out.is_empty());
        compressed_probe_into(&mut [SliceCursor::new(a.as_slice())], &mut out);
        assert_eq!(out, a.as_slice());
        out.clear();
        let mut cursors = [
            SliceCursor::new(a.as_slice()),
            SliceCursor::new(&[]),
            SliceCursor::new(a.as_slice()),
        ];
        compressed_probe_into(&mut cursors, &mut out);
        assert!(out.is_empty(), "an empty operand empties the intersection");
    }

    #[test]
    fn kernel_names_are_distinct() {
        let names: Vec<&str> = kernels().iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }
}
