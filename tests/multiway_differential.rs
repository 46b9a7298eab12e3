//! Differential correctness of the true k-way layer: every multiway path —
//! slice kernels, the cost-model planner, and the planner-mode serving
//! stack — must be byte-identical to the scalar pairwise fold, across
//! shard counts 1/2/7.

use fast_set_intersection::index::{
    Corpus, CorpusConfig, MultiwayPlan, PlanKind, PlannedList, Planner, SearchEngine, Strategy,
};
use fast_set_intersection::serve::{ExecMode, ShardedEngine};
use fast_set_intersection::{reference_intersection, HashContext, SortedSet};
use fsi_kernels::{
    pairwise_fold_into, BitmapAnd, GallopProbe, HeapMerge, MultiwayAuto, MultiwayKernel,
    ScalarMerge,
};
use fsi_workloads::{generate_stream, QueryStreamConfig, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn multiway_kernels() -> Vec<Box<dyn MultiwayKernel>> {
    vec![
        Box::new(GallopProbe),
        Box::new(HeapMerge),
        Box::new(BitmapAnd),
        Box::new(MultiwayAuto::default()),
    ]
}

/// The baseline every multiway path must match: sort by length, fold
/// pairwise with the scalar merge, materializing every intermediate.
fn fold_reference(slices: &[&[u32]]) -> Vec<u32> {
    let mut out = Vec::new();
    pairwise_fold_into(&ScalarMerge, slices, &mut out);
    out
}

#[test]
fn multiway_kernels_match_pairwise_fold_on_uniform_and_zipf_sets() {
    let mut rng = StdRng::seed_from_u64(0x14A7);
    let zipf = Zipf::new(50_000, 1.0);
    for trial in 0..10 {
        for k in 2..=8usize {
            let sets: Vec<SortedSet> = (0..k)
                .map(|i| {
                    let n = rng.gen_range(0..1000 * (i + 1));
                    if trial % 2 == 0 {
                        let u = rng.gen_range(1..60_000u32);
                        (0..n).map(|_| rng.gen_range(0..u)).collect()
                    } else {
                        (0..n).map(|_| zipf.sample(&mut rng) as u32).collect()
                    }
                })
                .collect();
            let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
            let expect = fold_reference(&slices);
            assert_eq!(expect, reference_intersection(&slices), "fold vs reference");
            for kernel in multiway_kernels() {
                let mut out = Vec::new();
                kernel.intersect(&slices, &mut out);
                assert_eq!(out, expect, "kernel {} trial {trial} k={k}", kernel.name());
            }
        }
    }
}

#[test]
fn planner_matches_pairwise_fold_for_every_forced_kind() {
    let ctx = HashContext::new(0x714);
    let mut rng = StdRng::seed_from_u64(0x715);
    let planner = Planner::default();
    for k in 2..=8usize {
        let sets: Vec<SortedSet> = (0..k)
            .map(|_| {
                let n = rng.gen_range(1..2500);
                (0..n).map(|_| rng.gen_range(0..30_000u32)).collect()
            })
            .collect();
        let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        let expect = fold_reference(&slices);
        let lists: Vec<PlannedList> = sets.iter().map(|s| PlannedList::build(&ctx, s)).collect();
        let refs: Vec<&PlannedList> = lists.iter().collect();
        let chosen = planner.plan_for_lists(&refs);
        for kind in [
            PlanKind::RanGroupScan,
            PlanKind::HashProbe,
            PlanKind::GallopProbe,
            PlanKind::HeapMerge,
        ] {
            let plan = MultiwayPlan {
                kind,
                ..chosen.clone()
            };
            let mut out = Vec::new();
            planner.execute(&plan, &refs, &mut out);
            out.sort_unstable();
            assert_eq!(out, expect, "forced {kind:?} k={k}");
        }
    }
}

#[test]
fn planned_mode_matches_scalar_executor_across_shard_counts() {
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 12_000,
        num_terms: 40,
        ..CorpusConfig::default()
    });
    let engine = SearchEngine::from_corpus(HashContext::new(2027), corpus);
    let reference = engine.executor(Strategy::Merge);
    let queries: Vec<Vec<usize>> = vec![
        vec![0, 1],
        vec![1, 2, 3],
        vec![0, 10, 20, 39],
        vec![0, 5, 10, 15, 20, 25, 30, 35], // k = 8
        vec![35, 38],
        vec![7],
        vec![],
        vec![4, 4, 12], // duplicate term
    ];
    // Unsharded planned executor first.
    let exec = engine.planned_executor(Planner::default());
    for q in &queries {
        assert_eq!(exec.query(q), reference.query(q), "unsharded planned {q:?}");
    }
    for shards in [1usize, 2, 7] {
        let sharded = ShardedEngine::build(&engine, shards, ExecMode::Planned(Planner::default()));
        for q in &queries {
            assert_eq!(
                sharded.query(q),
                reference.query(q),
                "planned shards {shards} q {q:?}"
            );
        }
    }
}

#[test]
fn planned_mode_matches_executor_on_zipf_query_stream() {
    // A Zipf-skewed *query stream* over a Zipf corpus: the serving-shaped
    // workload, replayed against the planner across several shard counts.
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 9_000,
        num_terms: 64,
        ..CorpusConfig::default()
    });
    let engine = SearchEngine::from_corpus(HashContext::new(405), corpus);
    let stream = generate_stream(&QueryStreamConfig {
        num_queries: 120,
        num_terms: 64,
        ..QueryStreamConfig::default()
    });
    let reference = engine.executor(Strategy::Merge);
    for shards in [1usize, 2, 7] {
        let sharded = ShardedEngine::build(&engine, shards, ExecMode::Planned(Planner::default()));
        for q in &stream {
            assert_eq!(
                sharded.query(q),
                reference.query(q),
                "planned shards {shards} q {q:?}"
            );
        }
    }
}

/// Terms for the probe-path cases: dense lists that carry chunk bitmaps,
/// mid-density lists that stay flat, and sparse drivers. Chunks 0–2 are
/// shared; chunk 6 belongs to the drivers alone and chunk 7 to term 3
/// alone. Every term holds the chunk-edge values 65 535 and 65 536, and
/// with `top` set the even terms also hold `u32::MAX`.
fn probe_postings(rng: &mut StdRng, top: bool) -> Vec<SortedSet> {
    const CORE: u32 = 3 << 16;
    let mut terms: Vec<Vec<u32>> = Vec::new();
    // 0–3: dense (~40%, ~25%, ~10%, ~10% + its own chunk 7).
    for per_mille in [400u32, 250, 100, 100] {
        terms.push(
            (0..CORE)
                .filter(|_| rng.gen_range(0..1000) < per_mille)
                .collect(),
        );
    }
    terms[3].extend((7u32 << 16..8 << 16).step_by(4));
    // 4–5: ~1% dense, too sparse for a bitmap.
    for _ in 0..2 {
        terms.push((0..CORE).filter(|_| rng.gen_range(0..100) == 0).collect());
    }
    // 6–7: sparse drivers, with some ids in chunk 6, which no other term
    // touches (right below term 3's chunk 7).
    for n in [60usize, 300] {
        let mut d: Vec<u32> = (0..n).map(|_| rng.gen_range(0..CORE)).collect();
        d.extend((0..20).map(|_| rng.gen_range(6u32 << 16..7 << 16)));
        terms.push(d);
    }
    for (i, t) in terms.iter_mut().enumerate() {
        t.extend([65_535, 65_536]);
        if top && i % 2 == 0 {
            t.push(u32::MAX);
        }
    }
    terms.into_iter().map(SortedSet::from_unsorted).collect()
}

#[test]
fn bit_test_probes_match_the_reference_across_shard_counts() {
    let mut rng = StdRng::seed_from_u64(0xB17);
    // A sparse driver, then bitmapped (0–3) and flat (4–5) operands in
    // every mix, k = 2..5.
    let queries: Vec<Vec<usize>> = vec![
        vec![6, 0],
        vec![6, 4],
        vec![7, 3],
        vec![6, 0, 4],
        vec![7, 1, 5],
        vec![6, 0, 1, 4],
        vec![7, 3, 2, 5],
        vec![6, 0, 1, 2, 4],
        vec![7, 0, 3, 4, 5],
        vec![6, 7, 0, 4, 5],
    ];
    for top in [false, true] {
        let postings = probe_postings(&mut rng, top);
        let ctx = HashContext::new(0xB18);
        let lists: Vec<PlannedList> = postings
            .iter()
            .map(|s| PlannedList::build(&ctx, s))
            .collect();
        for (t, l) in lists.iter().enumerate() {
            assert_eq!(l.bitmap().is_some(), t < 4, "term {t} bitmap");
        }
        let planner = Planner::default();
        let engine = SearchEngine::from_postings(ctx, postings.clone());
        let sharded: Vec<(usize, ShardedEngine)> = [1usize, 2, 7]
            .into_iter()
            .map(|n| {
                let e = ShardedEngine::build(&engine, n, ExecMode::Planned(Planner::default()));
                (n, e)
            })
            .collect();
        for q in &queries {
            let slices: Vec<&[u32]> = q.iter().map(|&t| postings[t].as_slice()).collect();
            let expect = reference_intersection(&slices);
            // The probe path itself, forced on the unsharded lists.
            let refs: Vec<&PlannedList> = q.iter().map(|&t| &lists[t]).collect();
            let plan = MultiwayPlan {
                kind: PlanKind::GallopProbe,
                ..planner.plan_for_lists(&refs)
            };
            let mut out = Vec::new();
            planner.execute(&plan, &refs, &mut out);
            assert_eq!(out, expect, "forced probe top={top} {q:?}");
            for (n, e) in &sharded {
                assert_eq!(e.query(q), expect, "shards {n} top={top} {q:?}");
            }
        }
        // The sparse-driver shapes do plan the probe unsharded.
        let refs: Vec<&PlannedList> = [6usize, 0, 4].iter().map(|&t| &lists[t]).collect();
        assert_eq!(planner.plan_for_lists(&refs).kind, PlanKind::GallopProbe);
    }
}
