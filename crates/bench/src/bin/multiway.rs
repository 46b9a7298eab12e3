//! Multiway-layer throughput benchmark: true k-way intersection (the
//! `fsi-kernels` multiway layer and the `fsi-index` cost-model planner)
//! against the pairwise-fold baseline that materializes every intermediate
//! result.
//!
//! For each shape and k ∈ {2, 3, 5, 8}, all prepared structures are built
//! outside the timed region (what a serving shard amortizes across
//! queries); each row reports microseconds per k-way intersection and the
//! speedup over `PairwiseFold(Merge)` — sort by length, intersect the two
//! smallest with a scalar merge, fold each remaining list in — on the same
//! operands. Results land in `BENCH_multiway.json` (hand-rolled JSON: the
//! reference environment has no registry access, so no serde).
//!
//! Usage: `cargo run --release -p fsi-bench --bin multiway -- [out.json] [--smoke]`

use fsi_bench::{min_time, HarnessArgs, Table};
use fsi_core::{HashContext, KIntersect, SortedSet};
use fsi_index::{MultiwayPlan, PlanKind, PlannedList, Planner};
use fsi_kernels::{
    gallop_probe_into, heap_merge_into, pairwise_fold_into, AutoKernel, BitmapSet, ScalarMerge,
};
use fsi_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KS: [usize; 4] = [2, 3, 5, 8];

/// One benchmark shape: how the k operand lists are generated.
struct Shape {
    name: &'static str,
    /// Size of list `i` of `k` (index 0 is the smallest).
    size: fn(i: usize) -> usize,
    universe: u32,
    zipf: bool,
}

const SHAPES: [Shape; 4] = [
    Shape {
        name: "balanced-sparse",
        size: |_| 60_000,
        universe: 8_000_000,
        zipf: false,
    },
    Shape {
        name: "balanced-dense",
        size: |_| 80_000,
        universe: 600_000,
        zipf: false,
    },
    Shape {
        name: "skewed-1:64",
        size: |i| if i == 0 { 2_000 } else { 128_000 },
        universe: 8_000_000,
        zipf: false,
    },
    Shape {
        name: "zipf-clustered",
        size: |_| 60_000,
        universe: 2_000_000,
        zipf: true,
    },
];

/// Draws a set of `n` distinct values: uniform over the universe, or (for
/// Zipf shapes) rank-skewed so values cluster at the low end — dense head,
/// sparse tail, the document-frequency shape real posting lists have.
fn draw_set(rng: &mut StdRng, n: usize, universe: u32, zipf: bool) -> SortedSet {
    if zipf {
        let z = Zipf::new(universe as usize, 1.0);
        let mut vals: Vec<u32> = (0..4 * n).map(|_| z.sample(rng) as u32).collect();
        vals.sort_unstable();
        vals.dedup();
        vals.truncate(n);
        SortedSet::from_sorted_unchecked(vals)
    } else {
        (0..n).map(|_| rng.gen_range(0..universe)).collect()
    }
}

struct Row {
    algo: String,
    us: f64,
    speedup: f64,
}

fn main() {
    let args = HarnessArgs::parse("BENCH_multiway.json");
    // Smoke keeps the full configuration (the whole run takes seconds):
    // shrinking the lists would change their *density*, moving shapes
    // across kernel regimes, and fewer reps leaves the cache-sensitive
    // hash-probe medians on cold samples — both would make the regression
    // gate compare unlike numbers.
    let reps = 11;
    let ctx = HashContext::new(fsi_bench::HARNESS_SEED);
    let mut rng = StdRng::seed_from_u64(fsi_bench::HARNESS_SEED);
    let planner = Planner::auto();
    let mut shape_json: Vec<String> = Vec::new();

    for shape in &SHAPES {
        for &k in &KS {
            let sets: Vec<SortedSet> = (0..k)
                .map(|i| draw_set(&mut rng, (shape.size)(i), shape.universe, shape.zipf))
                .collect();
            let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
            let sizes: Vec<usize> = sets.iter().map(|s| s.len()).collect();
            println!(
                "\n== {} k={k} (sizes {:?}, universe {}) ==",
                shape.name, sizes, shape.universe
            );

            // Prepared forms, built outside the timed region.
            let planned: Vec<PlannedList> =
                sets.iter().map(|s| PlannedList::build(&ctx, s)).collect();
            let planned_refs: Vec<&PlannedList> = planned.iter().collect();
            let bitmaps: Vec<BitmapSet> = sets.iter().map(BitmapSet::build).collect();
            let bitmap_refs: Vec<&BitmapSet> = bitmaps.iter().collect();

            let mut expect: Vec<u32> = Vec::new();
            pairwise_fold_into(&ScalarMerge, &slices, &mut expect);
            let r = expect.len();
            let plan = planner.plan_for_lists(&planned_refs);

            let auto = AutoKernel::default();
            let mut out: Vec<u32> = Vec::new();
            let mut rows: Vec<Row> = Vec::new();
            let mut bench = |algo: &str, rows: &mut Vec<Row>, f: &mut dyn FnMut(&mut Vec<u32>)| {
                // Microsecond-scale ops (the planned path on skewed
                // shapes runs in single-digit µs) are too noisy to gate at
                // one call per timing: amortize each timing over enough
                // inner iterations to reach ~1ms, and report the *minimum*
                // across reps — the classical steady-state estimator,
                // immune to scheduling and cold-cache outliers that would
                // trip the 2x regression gate.
                let once = fsi_bench::time_once(|| {
                    out.clear();
                    f(&mut out);
                    out.len()
                });
                let inner = (1_000_000 / once.as_nanos().max(1)).clamp(1, 256) as usize;
                let d = min_time(reps, || {
                    let mut len = 0;
                    for _ in 0..inner {
                        out.clear();
                        f(&mut out);
                        len = out.len();
                    }
                    len
                });
                let d = d / inner as u32;
                let mut check = std::mem::take(&mut out);
                check.sort_unstable();
                assert_eq!(
                    check, expect,
                    "algo {algo} diverged on {} k={k}",
                    shape.name
                );
                out = check;
                rows.push(Row {
                    algo: algo.to_string(),
                    us: d.as_secs_f64() * 1e6,
                    speedup: 0.0, // filled once the fold row exists
                });
            };

            bench("PairwiseFold(Merge)", &mut rows, &mut |out| {
                pairwise_fold_into(&ScalarMerge, &slices, out)
            });
            bench("PairwiseFold(Auto)", &mut rows, &mut |out| {
                pairwise_fold_into(&auto, &slices, out)
            });
            bench("GallopProbe", &mut rows, &mut |out| {
                gallop_probe_into(&slices, out)
            });
            bench("HeapMerge", &mut rows, &mut |out| {
                heap_merge_into(&slices, out)
            });
            bench("BitmapAnd", &mut rows, &mut |out| {
                BitmapSet::intersect_k_into(&bitmap_refs, out)
            });
            // Fixed label (the chosen kind is recorded in the shape's
            // "plan" field) so the regression checker can match rows
            // across runs whose sizes lead to different plans.
            bench("Planned", &mut rows, &mut |out| {
                planner.execute(&plan, &planned_refs, out);
            });

            let fold_us = rows[0].us;
            for row in &mut rows {
                row.speedup = if row.us > 0.0 { fold_us / row.us } else { 0.0 };
            }

            let mut table = Table::new(vec!["algo", "us/op", "speedup vs fold"]);
            let algo_json: Vec<String> = rows
                .iter()
                .map(|row| {
                    table.row(vec![
                        row.algo.clone(),
                        format!("{:.1}", row.us),
                        format!("{:.2}x", row.speedup),
                    ]);
                    format!(
                        "        {{\"algo\": \"{}\", \"us_per_op\": {:.2}, \
                         \"speedup_vs_fold\": {:.3}}}",
                        row.algo, row.us, row.speedup
                    )
                })
                .collect();
            table.print();

            shape_json.push(format!(
                "    {{\n      \"shape\": \"{}\",\n      \"k\": {k},\n      \
                 \"sizes\": {sizes:?},\n      \"universe\": {},\n      \
                 \"zipf\": {},\n      \"r\": {r},\n      \
                 \"plan\": \"{:?}\",\n      \"algos\": [\n{}\n      ]\n    }}",
                shape.name,
                shape.universe,
                shape.zipf,
                plan.kind,
                algo_json.join(",\n")
            ));
        }
    }

    let crossover = bit_test_crossover(&ctx, &planner, reps);
    let env = fsi_bench::env_json();
    let json = format!(
        "{{\n  \"bench\": \"multiway\",\n  \"reps\": {reps},\n  \"smoke\": {},\n  {env},\n  \
         \"shapes\": [\n{}\n  ],\n  {crossover}\n}}\n",
        args.smoke,
        shape_json.join(",\n")
    );
    args.write_output(&json);
    println!("\nwrote {}", args.out_path);
}

/// The shape where bit-test pricing moved the planner from HashProbe to
/// GallopProbe: 1 000 sparse candidates against a list dense over two
/// chunks. Times both plans on the same prepared lists, asserts the
/// bit-test probe is at least as fast, and returns the JSON field.
fn bit_test_crossover(ctx: &HashContext, planner: &Planner, reps: usize) -> String {
    let mut rng = StdRng::seed_from_u64(fsi_bench::HARNESS_SEED);
    let sparse: SortedSet = (0..1_000).map(|_| rng.gen_range(0..1u32 << 17)).collect();
    let dense: SortedSet = (0..90_000).map(|_| rng.gen_range(0..1u32 << 17)).collect();
    let planned = [
        PlannedList::build(ctx, &sparse),
        PlannedList::build(ctx, &dense),
    ];
    let lists: Vec<&PlannedList> = planned.iter().collect();
    let probe = planner.plan_for_lists(&lists);
    assert_eq!(probe.kind, PlanKind::GallopProbe, "crossover shape plan");
    let hash = MultiwayPlan {
        kind: PlanKind::HashProbe,
        ..probe.clone()
    };
    let mut expect = Vec::new();
    pairwise_fold_into(
        &ScalarMerge,
        &[sparse.as_slice(), dense.as_slice()],
        &mut expect,
    );
    let plans = [&probe, &hash];
    let mut out: Vec<u32> = Vec::new();
    for plan in plans {
        out.clear();
        planner.execute(plan, &lists, &mut out);
        assert_eq!(out, expect, "{:?} diverged at the crossover", plan.kind);
    }
    // ~1 µs per call: amortize each timing over 256 calls, and alternate
    // the two plans rep by rep so a drift in machine speed hits both.
    let mut best = [f64::MAX; 2];
    for _ in 0..reps {
        for (slot, plan) in best.iter_mut().zip(plans) {
            let d = fsi_bench::time_once(|| {
                for _ in 0..256 {
                    out.clear();
                    planner.execute(plan, &lists, &mut out);
                }
                out.len()
            });
            *slot = slot.min(d.as_secs_f64() * 1e6 / 256.0);
        }
    }
    let [probe_us, hash_us] = best;
    println!(
        "\n== crossover [1000 sparse, 90000 over 2 chunks]: GallopProbe (bit test) {probe_us:.2} us, \
         HashProbe {hash_us:.2} us =="
    );
    assert!(
        probe_us <= hash_us,
        "bit-test probe {probe_us:.2} us slower than hash probe {hash_us:.2} us"
    );
    format!(
        "\"crossover\": {{\"shape\": \"sparse-1000-vs-2-chunk-dense\", \
         \"gallop_probe_us\": {probe_us:.3}, \"hash_probe_us\": {hash_us:.3}}}"
    )
}
