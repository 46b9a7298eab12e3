//! Chunked-bitmap sets: Roaring-style dense containers intersected by
//! 64-bit-word `AND`.
//!
//! The universe `Σ = u32` is split into 2¹⁶-value chunks; a set stores, for
//! each chunk it touches, a 1024-word bitmap of the chunk's members.
//! Intersecting two sets walks the (short, sorted) chunk-id lists, `AND`s
//! the 1024 words of every chunk present in both, and extracts survivors
//! with the trailing-zeros trick of the paper's footnote 1 — one `AND` per
//! 64 universe slots, the word-parallel regime the paper packs groups for,
//! here applied to the raw document space. The win is proportional to
//! density: dense chunks amortize the fixed `O(1024)` word sweep over many
//! members.

use fsi_core::elem::{Elem, SortedSet};
use fsi_core::traits::{KIntersect, PairIntersect, SetIndex};
use fsi_core::word::BitIter;

/// Log2 of the chunk span: each chunk covers 2¹⁶ consecutive values.
const CHUNK_BITS: u32 = 16;
/// 64-bit words per chunk bitmap — public so cost models (the `fsi-index`
/// planner) can price a chunk sweep in the same unit the kernel executes.
pub const WORDS_PER_CHUNK: usize = 1 << (CHUNK_BITS - 6);

/// A set as a sorted list of dense chunk bitmaps.
#[derive(Debug, Clone)]
pub struct BitmapSet {
    n: usize,
    /// Sorted ids (`value >> 16`) of the chunks this set touches.
    ids: Vec<u32>,
    /// Chunk bitmaps, chunk-major: chunk `i` owns
    /// `words[i * WORDS_PER_CHUNK ..][..WORDS_PER_CHUNK]`.
    words: Vec<u64>,
}

impl BitmapSet {
    /// Builds the chunked bitmap of `set` in one ascending pass.
    pub fn build(set: &SortedSet) -> Self {
        Self::from_sorted_slice(set.as_slice())
    }

    /// Builds from a sorted, duplicate-free slice.
    pub fn from_sorted_slice(elems: &[Elem]) -> Self {
        let mut ids: Vec<u32> = Vec::new();
        let mut words: Vec<u64> = Vec::new();
        for &x in elems {
            let id = x >> CHUNK_BITS;
            if ids.last() != Some(&id) {
                ids.push(id);
                words.resize(words.len() + WORDS_PER_CHUNK, 0);
            }
            let low = (x & ((1 << CHUNK_BITS) - 1)) as usize;
            let base = words.len() - WORDS_PER_CHUNK;
            words[base + (low >> 6)] |= 1u64 << (low & 63);
        }
        Self {
            n: elems.len(),
            ids,
            words,
        }
    }

    /// Number of chunks the set touches.
    pub fn num_chunks(&self) -> usize {
        self.ids.len()
    }

    /// Whether `x` is a member: one binary search over the chunk ids, then
    /// one bit test.
    pub fn contains(&self, x: Elem) -> bool {
        self.ids
            .binary_search(&(x >> CHUNK_BITS))
            .is_ok_and(|ci| test_bit(self.chunk(ci), x))
    }

    /// Chunk `ci`'s 1024 words.
    fn chunk(&self, ci: usize) -> &[u64] {
        &self.words[ci * WORDS_PER_CHUNK..][..WORDS_PER_CHUNK]
    }

    /// Number of distinct chunks a sorted slice touches — exactly what
    /// [`BitmapSet::num_chunks`] would report after
    /// [`BitmapSet::from_sorted_slice`], without building any bitmap.
    /// Cost models (the `fsi-index` planner) price the chunk sweep with
    /// this.
    pub fn count_chunks(elems: &[Elem]) -> usize {
        let mut count = 0usize;
        let mut last = None;
        for &x in elems {
            let id = x >> CHUNK_BITS;
            if last != Some(id) {
                count += 1;
                last = Some(id);
            }
        }
        count
    }

    /// Appends chunk `ci`'s members (ascending) to `out`.
    fn extract_chunk(&self, ci: usize, out: &mut Vec<Elem>) {
        // audit:allow(hot_path_index): callers iterate ci over 0..ids.len(); ids and words are parallel per-chunk arrays
        extract_words(self.ids[ci], self.chunk(ci), out);
    }

    /// k-way `OR`: walks all chunk-id lists in lockstep ascending order;
    /// each chunk id present anywhere is `OR`ed across every set carrying
    /// it (via the SIMD word primitive [`crate::simd::or_in_place_at`]) and
    /// extracted once. A chunk only one set touches skips the accumulator
    /// and extracts straight from that set's words. Output is ascending and
    /// duplicate-free — the dense-regime union counterpart of
    /// [`BitmapSet::intersect_k_into`].
    pub fn union_k_into(sets: &[&Self], out: &mut Vec<Elem>) {
        match sets {
            [] => {}
            [a] => {
                for ci in 0..a.ids.len() {
                    a.extract_chunk(ci, out);
                }
            }
            _ => {
                // One dispatch read for the whole sweep, not one per OR.
                let level = crate::simd::SimdLevel::active();
                let mut acc = [0u64; WORDS_PER_CHUNK];
                let mut cursors = vec![0usize; sets.len()];
                let next_id = |cursors: &[usize]| {
                    sets.iter()
                        .zip(cursors)
                        .filter_map(|(s, &c)| s.ids.get(c).copied())
                        .min()
                };
                while let Some(id) = next_id(&cursors) {
                    let carriers: Vec<usize> = sets
                        .iter()
                        .zip(&cursors)
                        .enumerate()
                        .filter(|(_, (s, &c))| s.ids.get(c) == Some(&id))
                        .map(|(si, _)| si)
                        .collect();
                    if let [only] = carriers.as_slice() {
                        sets[*only].extract_chunk(cursors[*only], out);
                    } else {
                        acc.fill(0);
                        for &si in &carriers {
                            let c = cursors[si];
                            crate::simd::or_in_place_at(
                                level,
                                &mut acc,
                                &sets[si].words[c * WORDS_PER_CHUNK..][..WORDS_PER_CHUNK],
                            );
                        }
                        extract_words(id, &acc, out);
                    }
                    for si in carriers {
                        cursors[si] += 1;
                    }
                }
            }
        }
    }
}

/// Whether `x`'s low 16 bits are set in `chunk`.
fn test_bit(chunk: &[u64], x: Elem) -> bool {
    let low = (x & ((1 << CHUNK_BITS) - 1)) as usize;
    // audit:allow(hot_path_index): low < 2^16, so low >> 6 < WORDS_PER_CHUNK = chunk.len()
    (chunk[low >> 6] >> (low & 63)) & 1 == 1
}

/// The words of a chunk a set lacks: testing against it always misses.
static EMPTY_CHUNK: [u64; WORDS_PER_CHUNK] = [0; WORDS_PER_CHUNK];

/// Tests ascending candidates against one [`BitmapSet`]: the chunk of the
/// last candidate stays resolved, so a run of candidates in one chunk
/// costs one bit test each and a chunk change one forward search over the
/// remaining chunk ids.
#[derive(Debug, Clone)]
pub(crate) struct BitCursor<'a> {
    set: &'a BitmapSet,
    /// Index of the first chunk id not below the current chunk.
    next: usize,
    /// The current chunk id (`u32::MAX`, never a chunk id, before the
    /// first candidate).
    id: u32,
    /// The current chunk's words ([`EMPTY_CHUNK`] when the set lacks it).
    words: &'a [u64],
}

impl<'a> BitCursor<'a> {
    pub(crate) fn new(set: &'a BitmapSet) -> Self {
        Self {
            set,
            next: 0,
            id: u32::MAX,
            words: &EMPTY_CHUNK,
        }
    }

    /// The words of candidate `x`'s chunk; `x` must not be smaller than
    /// the previous candidate. `None` means the set holds nothing at or
    /// above that chunk, so no later candidate can be a member either.
    #[inline]
    fn chunk_of(&mut self, x: Elem) -> Option<&'a [u64]> {
        let id = x >> CHUNK_BITS;
        if id != self.id {
            let ids = &self.set.ids;
            let ci = self.next + ids.get(self.next..)?.partition_point(|&c| c < id);
            let &at = ids.get(ci)?;
            self.next = ci;
            self.id = id;
            self.words = if at == id {
                self.set.chunk(ci)
            } else {
                &EMPTY_CHUNK
            };
        }
        Some(self.words)
    }

    /// Whether candidate `x` is a member (see [`BitCursor::chunk_of`] for
    /// the order contract and what `None` means).
    #[inline]
    pub(crate) fn find(&mut self, x: Elem) -> Option<bool> {
        self.chunk_of(x).map(|words| test_bit(words, x))
    }
}

impl BitmapSet {
    /// Appends the members among the ascending `candidates` to `out`,
    /// ascending. Each candidate costs one bit test, and the output side
    /// has no data-dependent branch: every candidate is written and the
    /// write position advances by the tested bit.
    pub(crate) fn filter_into(&self, candidates: &[Elem], out: &mut Vec<Elem>) {
        let start = out.len();
        out.resize(start + candidates.len(), 0);
        let mut end = start;
        let mut cursor = BitCursor::new(self);
        for &x in candidates {
            let Some(words) = cursor.chunk_of(x) else {
                break;
            };
            // end <= start + (candidates seen so far) < out.len().
            out[end] = x;
            end += usize::from(test_bit(words, x));
        }
        out.truncate(end);
    }
}

/// Appends the members encoded by `chunk` (belonging to chunk `id`) to
/// `out`, ascending.
fn extract_words(id: u32, chunk: &[u64], out: &mut Vec<Elem>) {
    let hi = id << CHUNK_BITS;
    for (w, &word) in chunk.iter().enumerate() {
        if word == 0 {
            continue;
        }
        let base = hi | ((w as u32) << 6);
        for bit in BitIter::new(word) {
            out.push(base | bit);
        }
    }
}

impl SetIndex for BitmapSet {
    fn n(&self) -> usize {
        self.n
    }

    fn size_in_bytes(&self) -> usize {
        self.ids.len() * 4 + self.words.len() * 8
    }
}

impl PairIntersect for BitmapSet {
    /// Word-parallel `AND` over chunks present in both sets; output is
    /// ascending.
    fn intersect_pair_into(&self, other: &Self, out: &mut Vec<Elem>) {
        // One dispatch read for the whole sweep, not one per chunk.
        let level = crate::simd::SimdLevel::active();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let a = &self.words[i * WORDS_PER_CHUNK..][..WORDS_PER_CHUNK];
                    let b = &other.words[j * WORDS_PER_CHUNK..][..WORDS_PER_CHUNK];
                    let hi = self.ids[i] << CHUNK_BITS;
                    // Wide AND at the dispatched SIMD level: 2/4 words per
                    // instruction, PTEST-skipped all-zero groups, scalar
                    // trailing-zeros extraction of survivors.
                    crate::simd::and_extract_at(level, hi, a, b, out);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

impl KIntersect for BitmapSet {
    /// k-way `AND`: drives on the set with the fewest chunks, locating each
    /// of its chunks in every other set by binary search, then `AND`s all
    /// `k` words before extraction. Output is ascending.
    fn intersect_k_into(indexes: &[&Self], out: &mut Vec<Elem>) {
        match indexes {
            [] => {}
            [a] => {
                for ci in 0..a.ids.len() {
                    a.extract_chunk(ci, out);
                }
            }
            _ => {
                let driver = indexes
                    .iter()
                    .min_by_key(|ix| ix.ids.len())
                    // audit:allow(hot_path_panic): the k >= 2 dispatch precondition guarantees a minimum exists
                    .expect("k >= 2");
                // One dispatch read for the whole sweep, not one per AND.
                let level = crate::simd::SimdLevel::active();
                let mut anded = [0u64; WORDS_PER_CHUNK];
                'chunks: for (ci, &id) in driver.ids.iter().enumerate() {
                    anded.copy_from_slice(&driver.words[ci * WORDS_PER_CHUNK..][..WORDS_PER_CHUNK]);
                    for other in indexes {
                        if std::ptr::eq(*other, *driver) {
                            continue;
                        }
                        let Ok(cj) = other.ids.binary_search(&id) else {
                            continue 'chunks;
                        };
                        let b = &other.words[cj * WORDS_PER_CHUNK..][..WORDS_PER_CHUNK];
                        if crate::simd::and_in_place_at(level, &mut anded, b) {
                            continue 'chunks;
                        }
                    }
                    extract_words(id, &anded, out);
                }
            }
        }
    }
}

/// The slice-level bitmap kernel: builds the chunked bitmaps on the fly
/// (cost `O(n)`, the same order as reading the input) and intersects them
/// word-parallel. The prepared form ([`BitmapSet`]) is what `fsi-index`
/// strategies store; this form is what runtime kernel selection uses on raw
/// slices.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitmapKernel;

impl crate::kernel::Kernel for BitmapKernel {
    fn name(&self) -> &'static str {
        "Bitmap"
    }

    fn intersect_pair(&self, a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
        BitmapSet::from_sorted_slice(a).intersect_pair_into(&BitmapSet::from_sorted_slice(b), out);
    }

    fn intersect_k(&self, sets: &[&[Elem]], out: &mut Vec<Elem>) {
        let built: Vec<BitmapSet> = sets
            .iter()
            .map(|s| BitmapSet::from_sorted_slice(s))
            .collect();
        let refs: Vec<&BitmapSet> = built.iter().collect();
        BitmapSet::intersect_k_into(&refs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_core::elem::reference_intersection;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sorted_pair(a: &BitmapSet, b: &BitmapSet) -> Vec<Elem> {
        let mut out = Vec::new();
        a.intersect_pair_into(b, &mut out);
        out
    }

    #[test]
    fn pair_matches_reference_across_chunk_boundaries() {
        let mut rng = StdRng::seed_from_u64(9);
        for trial in 0..20 {
            let universe = rng.gen_range(1..400_000u32);
            let n1 = rng.gen_range(0..3000);
            let n2 = rng.gen_range(0..3000);
            let a: SortedSet = (0..n1).map(|_| rng.gen_range(0..universe)).collect();
            let b: SortedSet = (0..n2).map(|_| rng.gen_range(0..universe)).collect();
            let ia = BitmapSet::build(&a);
            let ib = BitmapSet::build(&b);
            assert_eq!(
                sorted_pair(&ia, &ib),
                reference_intersection(&[a.as_slice(), b.as_slice()]),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn output_is_already_ascending() {
        // Interpreted execution (Miri) needs a smaller universe.
        const UNIVERSE: u32 = if cfg!(miri) { 10_000 } else { 100_000 };
        let a: SortedSet = (0..UNIVERSE).step_by(3).collect();
        let b: SortedSet = (0..UNIVERSE).step_by(5).collect();
        let out = sorted_pair(&BitmapSet::build(&a), &BitmapSet::build(&b));
        assert!(out.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(out, reference_intersection(&[a.as_slice(), b.as_slice()]));
    }

    #[test]
    fn k_way_matches_folded_pairs() {
        let mut rng = StdRng::seed_from_u64(11);
        for k in 2..=4usize {
            let sets: Vec<SortedSet> = (0..k)
                .map(|_| (0..1500).map(|_| rng.gen_range(0..120_000u32)).collect())
                .collect();
            let built: Vec<BitmapSet> = sets.iter().map(BitmapSet::build).collect();
            let refs: Vec<&BitmapSet> = built.iter().collect();
            let slices: Vec<&[Elem]> = sets.iter().map(|s| s.as_slice()).collect();
            assert_eq!(
                BitmapSet::intersect_k_sorted(&refs),
                reference_intersection(&slices),
                "k={k}"
            );
        }
    }

    #[test]
    fn boundary_values_round_trip() {
        let a = SortedSet::from_unsorted(vec![0, 65_535, 65_536, u32::MAX - 1, u32::MAX]);
        let b = SortedSet::from_unsorted(vec![0, 65_536, u32::MAX]);
        let ia = BitmapSet::build(&a);
        let ib = BitmapSet::build(&b);
        assert_eq!(sorted_pair(&ia, &ib), vec![0, 65_536, u32::MAX]);
        assert_eq!(ia.num_chunks(), 3);
    }

    #[test]
    fn empty_and_singleton() {
        let e = BitmapSet::build(&SortedSet::new());
        let s = BitmapSet::build(&SortedSet::from_unsorted(vec![42]));
        assert_eq!(sorted_pair(&e, &s), Vec::<Elem>::new());
        assert_eq!(sorted_pair(&s, &s), vec![42]);
        assert_eq!(e.n(), 0);
        assert_eq!(e.size_in_bytes(), 0);
        assert!(s.size_in_bytes() > 0);
    }

    #[test]
    fn count_chunks_matches_built_bitmap() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10 {
            let n = rng.gen_range(0..2000);
            let u = rng.gen_range(1..3_000_000u32);
            let s: SortedSet = (0..n).map(|_| rng.gen_range(0..u)).collect();
            assert_eq!(
                BitmapSet::count_chunks(s.as_slice()),
                BitmapSet::build(&s).num_chunks()
            );
        }
        assert_eq!(BitmapSet::count_chunks(&[]), 0);
    }

    #[test]
    fn k_way_union_matches_reference() {
        let mut rng = StdRng::seed_from_u64(17);
        for k in 1..=5usize {
            let sets: Vec<SortedSet> = (0..k)
                .map(|_| (0..1200).map(|_| rng.gen_range(0..150_000u32)).collect())
                .collect();
            let built: Vec<BitmapSet> = sets.iter().map(BitmapSet::build).collect();
            let refs: Vec<&BitmapSet> = built.iter().collect();
            let expect: Vec<Elem> = sets
                .iter()
                .flat_map(|s| s.iter())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let mut out = Vec::new();
            BitmapSet::union_k_into(&refs, &mut out);
            assert_eq!(out, expect, "k={k}");
        }
        let mut out = Vec::new();
        BitmapSet::union_k_into(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn union_covers_disjoint_and_shared_chunks() {
        // a touches chunks {0, 1}, b touches {1, 65537-chunk}: exercises the
        // single-carrier fast path and the OR-accumulator path in one call.
        let a = SortedSet::from_unsorted(vec![3, 65_535, 65_536, 70_000]);
        let b = SortedSet::from_unsorted(vec![65_536, 70_001, u32::MAX]);
        let ia = BitmapSet::build(&a);
        let ib = BitmapSet::build(&b);
        let mut out = Vec::new();
        BitmapSet::union_k_into(&[&ia, &ib], &mut out);
        assert_eq!(out, vec![3, 65_535, 65_536, 70_000, 70_001, u32::MAX]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn contains_matches_the_source_slice(
            // Wide draws land in many sparse chunks; narrow ones fill a
            // few chunks densely. Chunk edges and the top of u32 are
            // always members or probes.
            wide in proptest::collection::vec(proptest::any::<u32>(), 0..200),
            narrow in proptest::collection::vec(0u32..200_000, 0..2_000),
            probes in proptest::collection::vec(proptest::any::<u32>(), 0..200),
        ) {
            let edges = [0, 65_535, 65_536, 131_071, u32::MAX - 1, u32::MAX];
            let mut elems = wide.clone();
            elems.extend(&narrow);
            elems.extend(edges.iter().step_by(2));
            let set = SortedSet::from_unsorted(elems);
            let bits = BitmapSet::build(&set);
            let src = set.as_slice();
            // Neighbours of members, and the same low bits one chunk
            // down: a chunk the set lacks right below one it has.
            let mut xs: Vec<Elem> = probes.clone();
            xs.extend(edges);
            xs.extend(src.iter().flat_map(|&x| {
                [x.wrapping_sub(1), x, x.wrapping_add(1), x.wrapping_sub(1 << CHUNK_BITS)]
            }));
            for &x in &xs {
                proptest::prop_assert!(
                    bits.contains(x) == src.binary_search(&x).is_ok(),
                    "contains({}) disagrees with the source slice",
                    x
                );
            }
            // The ascending cursors behind the probe kernels agree too.
            xs.sort_unstable();
            xs.dedup();
            let (inside, outside): (Vec<Elem>, Vec<Elem>) =
                xs.iter().partition(|x| src.binary_search(x).is_ok());
            let mut kept = Vec::new();
            bits.filter_into(&xs, &mut kept);
            proptest::prop_assert_eq!(&kept, &inside);
            let mut left = Vec::new();
            crate::boolean::probe_diff_into(&xs, &[crate::Probe::Bits(&bits)], &mut left);
            proptest::prop_assert_eq!(&left, &outside);
        }
    }

    #[test]
    fn single_set_k_extracts_everything() {
        let a: SortedSet = (0..10_000u32).step_by(7).collect();
        let ia = BitmapSet::build(&a);
        assert_eq!(BitmapSet::intersect_k_sorted(&[&ia]), a.as_slice());
    }
}
