//! # fsi-kernels — portable word-parallel intersection primitives
//!
//! Ding & König's speedup comes from packing group signatures into machine
//! words and intersecting them with single `AND` instructions. This crate
//! generalizes that trick into a layer of standalone *kernels* the layers
//! above (`fsi-index`'s `Strategy` dispatch and `Planner`, `fsi-serve`'s
//! shards) can pick per query:
//!
//! * [`bitmap`] — [`BitmapSet`]: a chunked bitmap (Roaring-style dense
//!   containers: 2¹⁶-value chunks of 1024 64-bit words). Intersection is a
//!   word-by-word `AND` over chunks present in both sets, with
//!   popcount/trailing-zeros-driven result extraction. Wins when sets are
//!   *dense* in their universe: cost is `O(universe/64)` word ops
//!   independent of how many elements the chunks hold.
//! * [`gallop`] — [`GallopingSet`]: sorted-slice kernels with no auxiliary
//!   structure. A *branchless* two-pointer merge (cursor advances computed
//!   arithmetically, no unpredictable branches) for balanced sizes, and a
//!   galloping (exponential-search) probe of the smaller list into the
//!   larger for skewed `n₁/n₂` — the Hwang–Lin/SvS regime.
//! * [`sigfilter`] — [`SigFilterSet`]: a FESIA-style hash-signature
//!   prefilter (Zhang, Lu, Olteanu, Kim — "FESIA: A Fast and SIMD-Efficient
//!   Set Intersection Approach on Modern CPUs", ICDE 2020). Elements are
//!   hash-partitioned into per-set bucket arrays whose sizes scale with
//!   `n`; each bucket keeps a 64-bit signature (one bit per element under a
//!   second hash). Intersection `AND`s the signatures of aligned buckets
//!   and only *verifies* (scalar-merges) bucket pairs whose signature
//!   intersection is non-zero — most empty bucket pairs are rejected by a
//!   single `AND`, exactly the paper's word-filtering idea applied at the
//!   bucket granularity.
//! * [`boolean`] — boolean-composition primitives for the expression
//!   engine (`fsi-query`): k-way heap **union** ([`heap_union_into`]),
//!   galloping multi-subtrahend **difference** ([`gallop_diff_into`]), and
//!   the chunked-bitmap `OR` ([`BitmapSet::union_k_into`]) riding the same
//!   SIMD word primitives as the `AND` sweep.
//! * [`multiway`] — true k-way kernels behind the [`MultiwayKernel`] trait
//!   ([`GallopProbe`], [`BitmapAnd`], [`HeapMerge`], selected per call by
//!   [`MultiwayAuto`]): the smallest set drives probes into all the others
//!   at once, with **no materialized intermediate results** — the paper's
//!   k-set framing, which a pairwise fold forfeits.
//!
//! The three prepared forms implement the `fsi-core` index traits
//! ([`SetIndex`](fsi_core::SetIndex) /
//! [`PairIntersect`](fsi_core::PairIntersect) /
//! [`KIntersect`](fsi_core::KIntersect)), so they slot into `fsi-index`'s
//! strategy lineup (`Strategy::{Bitmap, Galloping, SigFilter}`) and are
//! differential-tested byte-identical to the scalar executor.
//!
//! ## When the planner picks each kernel
//!
//! [`KernelChoice::select`] decides per query from the operand sizes and
//! the universe span:
//!
//! 1. an empty operand short-circuits to the merge kernel (nothing to do);
//! 2. skew (`max nᵢ / min nᵢ` ≥ [`GALLOP_RATIO`]) → [`Galloping`]:
//!    `O(n_min · log(n_max/n_min))`;
//! 3. dense operands (`n_min / universe` ≥ [`BITMAP_MIN_DENSITY`]) →
//!    [`BitmapKernel`]: the `AND`-per-64-elements regime;
//! 4. otherwise → [`SigFilterKernel`] (balanced, sparse: signatures reject
//!    most bucket pairs before any scalar work).
//!
//! [`MultiwayChoice::select`] mirrors the same rule shape for k-way calls
//! (skew → [`GallopProbe`], density → [`BitmapAnd`], otherwise
//! [`HeapMerge`]). `fsi_index::Planner` goes further over *prepared*
//! lists: it prices every candidate kernel with a whole-query cost model
//! (adding a hash-probe tier for extreme skew and the paper's
//! RanGroupScan for balanced sparse) and picks the minimum — see the
//! `fsi_index::planner` module doc for the authoritative cost table.
//! [`BITMAP_MIN_DENSITY`] is only the threshold of these two runtime
//! selectors. Which prepared lists carry a chunk bitmap is the planner's
//! byte rule (a bitmap no larger than the flat list it shadows), and a
//! carried bitmap also serves [`probe_into`] and [`probe_diff_into`] as a
//! one-bit membership test ([`Probe::Bits`]).
//!
//! `Strategy::{Bitmap, Galloping, SigFilter}` pin one kernel for every
//! query the way every other fixed strategy does; the planner makes the
//! choice online, as Section 3.4 of Ding & König envisions.
//!
//! ## SIMD acceleration
//!
//! Underneath all of the above sits [`simd`]: explicit SSE4.1/AVX2
//! `std::arch` paths with `is_x86_feature_detected!` runtime dispatch and
//! a portable scalar fallback. The balanced merge, the bitmap chunk
//! sweeps, and the signature compare all route through it, so every kernel
//! and strategy above is transparently vectorized where the hardware
//! allows. The `force-scalar` cargo feature compiles the `std::arch` paths
//! out; the `FSI_SIMD` environment variable and
//! [`simd::with_level`] clamp the dispatched [`SimdLevel`] at runtime so
//! the scalar twins stay testable on the same machine — see `docs/simd.md`
//! for the dispatch rules and the `BENCH_simd.json` schema.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod bitmap;
pub mod boolean;
pub mod gallop;
pub mod kernel;
pub mod multiway;
pub mod sigfilter;
pub mod simd;

pub use bitmap::WORDS_PER_CHUNK;
pub use bitmap::{BitmapKernel, BitmapSet};
pub use boolean::{gallop_diff_into, heap_union_into, merge_union_into, probe_diff_into};
pub use gallop::{
    branchless_merge_into, galloping_into, BranchlessMerge, Galloping, GallopingSet, GALLOP_RATIO,
};
pub use kernel::{AutoKernel, Kernel, KernelChoice, ScalarMerge, SimdMerge, BITMAP_MIN_DENSITY};
pub use multiway::{
    compressed_probe_into, gallop_probe_into, heap_merge_into, pairwise_fold_into, probe_into,
    BitmapAnd, CompressedProbe, GallopProbe, HeapMerge, MultiwayAuto, MultiwayChoice,
    MultiwayKernel, Probe, SkipCursor, SliceCursor,
};
pub use sigfilter::{SigFilterKernel, SigFilterSet};
pub use simd::SimdLevel;
