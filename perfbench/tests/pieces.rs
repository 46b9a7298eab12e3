//! Tests of the benchmark's own pieces: seeded schedules, the workload
//! self-checks, the percentile rule, span self time and scrape parsing.

use fsi_perfbench::digest::Digest;
use fsi_perfbench::prom::{self, Hist};
use fsi_perfbench::queries::{self, check_cold, check_fits};
use fsi_perfbench::schedule::{arrivals, replay_order};
use fsi_perfbench::spans::SpanLog;
use fsi_perfbench::stats::{percentile, sorted, windowed_percentile};

const CACHE: usize = 8192;

#[test]
fn schedule_is_deterministic_per_seed() {
    assert_eq!(arrivals(7, 1000.0, 500), arrivals(7, 1000.0, 500));
    assert_ne!(arrivals(7, 1000.0, 500), arrivals(8, 1000.0, 500));
    assert_eq!(replay_order(7, 100, 500), replay_order(7, 100, 500));
    assert_ne!(replay_order(7, 100, 500), replay_order(8, 100, 500));

    let at = arrivals(3, 2000.0, 20_000);
    assert!(at.windows(2).all(|w| w[0] <= w[1]), "arrivals ascend");
    let rate = at.len() as f64 / at.last().unwrap().as_secs_f64();
    assert!((rate / 2000.0 - 1.0).abs() < 0.05, "offered rate {rate}");
    assert!(replay_order(3, 100, 1000).iter().all(|&i| i < 100));
}

#[test]
fn hot_set_fits_the_cache() {
    for seed in [1, 2] {
        let hot = queries::hot_set(seed, 4000);
        let d = check_fits(&hot, CACHE).expect("hot set fits");
        assert_eq!(d, hot.len(), "the hot set holds distinct canonical queries");
        assert!(d > 1000, "a few thousand distinct queries, got {d}");
    }
    let too_many = queries::cold_pool(5, CACHE / 2 + 1, &[]);
    assert!(check_fits(&too_many, CACHE).is_err());
}

#[test]
fn cold_pool_is_unique_and_overflows_the_cache() {
    let avoid = "t4094 AND t4095";
    let pool = queries::cold_pool(9, CACHE + 500, &[avoid]);
    assert_eq!(pool.len(), CACHE + 500);
    assert_eq!(check_cold(&pool, CACHE), Ok(CACHE + 500));
    let banned = queries::fingerprint(avoid);
    assert!(pool.iter().all(|q| queries::fingerprint(q) != banned));
    assert_eq!(pool, queries::cold_pool(9, CACHE + 500, &[avoid]), "seeded");

    // A respelled repeat is a repeat: the check compares canonical forms.
    let mut repeated = pool.clone();
    repeated.push("t1 AND t2".into());
    repeated.push("t2 t1".into());
    assert!(check_cold(&repeated, CACHE).is_err());
    assert!(
        check_cold(&pool[..CACHE], CACHE).is_err(),
        "must exceed the cache"
    );
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    // Rank 990 leaves exactly ten samples above it.
    assert_eq!(percentile(&v, 0.99), Some(990.0));
    assert_eq!(percentile(&v[..999], 0.99), None);
    assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
    assert_eq!(percentile(&v[..19], 0.5), None);

    // Windowed: each window must support p99 on its own.
    let two_windows: Vec<f64> = (0..2000).map(|i| f64::from(i % 1000)).collect();
    assert_eq!(windowed_percentile(&two_windows, 0.99, 10, 10), Some(989.0));
    assert_eq!(windowed_percentile(&two_windows, 0.99, 1, 10), Some(989.0));
    // Too few samples for 50 beyond in a window: one window over all.
    assert_eq!(windowed_percentile(&two_windows, 0.99, 10, 50), Some(989.0));
    assert_eq!(windowed_percentile(&v[..999], 0.99, 10, 10), None);
    assert_eq!(sorted(vec![3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
}

#[test]
fn self_time_is_span_minus_children() {
    let mut log = SpanLog::new();
    let root = log.push("request", None, 1, 0, 100);
    let a = log.push("a", Some(root), 1, 10, 30);
    log.push("b", Some(root), 1, 20, 50); // overlaps a: covered once
    log.push("c", Some(root), 1, 90, 120); // clipped to the root
    log.push("a.child", Some(a), 1, 15, 20);
    let other = log.push("request", None, 2, 200, 260);
    log.push("leaf", Some(other), 2, 210, 220);

    let self_ns = log.self_times();
    assert_eq!(self_ns[root], 100 - 40 - 10);
    assert_eq!(self_ns[a], 20 - 5);
    assert_eq!(self_ns[2], 30);
    assert_eq!(self_ns[3], 30);
    assert_eq!(self_ns[4], 5);
    assert_eq!(self_ns[other], 50);
    let by_name = log.self_us_by_name();
    assert_eq!(by_name["request"], vec![0.05, 0.05]);
    assert_eq!(log.durations_us("request"), vec![0.1, 0.06]);
    assert_eq!(log.to_jsonl().lines().count(), 7);
}

#[test]
fn scrapes_difference_into_a_phase() {
    let before = "# TYPE fsi_net_queue_wait_ns histogram\n\
        fsi_net_queue_wait_ns_bucket{tenant=\"anon\",le=\"1000\"} 5\n\
        fsi_net_queue_wait_ns_bucket{tenant=\"anon\",le=\"2000\"} 5\n\
        fsi_net_queue_wait_ns_bucket{tenant=\"anon\",le=\"+Inf\"} 5\n\
        fsi_net_queue_wait_ns_sum{tenant=\"anon\"} 4000\n\
        fsi_net_queue_wait_ns_count{tenant=\"anon\"} 5\n\
        fsi_kernel_pair_dispatch_total{kernel=\"gallop\"} 3\n";
    let after = "fsi_net_queue_wait_ns_bucket{tenant=\"anon\",le=\"1000\"} 15\n\
        fsi_net_queue_wait_ns_bucket{tenant=\"anon\",le=\"2000\"} 1025\n\
        fsi_net_queue_wait_ns_bucket{tenant=\"t1\",le=\"2000\"} 5\n\
        fsi_net_queue_wait_ns_sum{tenant=\"anon\"} 2000000\n\
        fsi_net_queue_wait_ns_sum{tenant=\"t1\"} 10000\n\
        fsi_kernel_pair_dispatch_total{kernel=\"gallop\"} 10\n\
        fsi_kernel_pair_dispatch_total{kernel=\"merge\"} 4\n";
    let phase = Hist::scrape(after, "fsi_net_queue_wait_ns")
        .since(&Hist::scrape(before, "fsi_net_queue_wait_ns"));
    assert_eq!(phase.count(), 1025.0);
    assert_eq!(phase.sum, 2_006_000.0);
    assert_eq!(phase.percentile(0.5), Some(2000.0));
    assert_eq!(phase.percentile(0.999), None);
    assert_eq!(
        prom::counter_sum(after, "fsi_kernel_pair_dispatch_total"),
        14.0
    );
    assert_eq!(prom::counter_sum(before, "fsi_kernel_pair_dispatch"), 0.0);
}

#[test]
fn digest_tells_results_apart() {
    assert_eq!(Digest::of(&[1, 2, 3]), Digest::of(&[1, 2, 3]));
    assert_ne!(Digest::of(&[1, 2, 3]), Digest::of(&[1, 2, 4]));
    assert_ne!(Digest::of(&[1, 2]), Digest::of(&[1, 2, 0]));
}
