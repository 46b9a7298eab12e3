//! The workloads' query sets, drawn from the repository's boolean stream
//! generator, and the self-checks that keep each workload the traffic it
//! claims to be: hot traffic fits the result cache, cold traffic never
//! repeats a canonical query and overflows the cache.

use fsi_workloads::stream::{generate_boolean_stream, BooleanStreamConfig};
use std::collections::HashSet;

/// Vocabulary of the benchmark corpus; queries draw terms from it.
pub const NUM_TERMS: usize = 4096;

/// Canonical identity of a query: the fingerprint of its normalized form,
/// the same value the serving cache keys on.
pub fn fingerprint(query: &str) -> u64 {
    let norm = fsi_query::compile(query).expect("generated queries compile");
    fsi_query::fingerprint(&norm)
}

fn stream(seed: u64, n: usize) -> Vec<String> {
    generate_boolean_stream(&BooleanStreamConfig {
        num_queries: n,
        num_terms: NUM_TERMS,
        seed,
        ..BooleanStreamConfig::default()
    })
}

/// The hot set: the distinct canonical queries among the first `drawn`
/// queries of the seeded stream, first spelling kept.
pub fn hot_set(seed: u64, drawn: usize) -> Vec<String> {
    let mut seen = HashSet::new();
    stream(seed, drawn)
        .into_iter()
        .filter(|q| seen.insert(fingerprint(q)))
        .collect()
}

/// `n` queries of the seeded stream, filtered so each canonical query
/// occurs once and none equals a query in `avoid`.
pub fn cold_pool(seed: u64, n: usize, avoid: &[&str]) -> Vec<String> {
    let mut seen: HashSet<u64> = avoid.iter().map(|q| fingerprint(q)).collect();
    let mut out = Vec::with_capacity(n);
    let mut chunk = 0u64;
    while out.len() < n {
        let drawn = stream(seed ^ chunk.wrapping_mul(0x9e37_79b9_7f4a_7c15), n);
        out.extend(
            drawn
                .into_iter()
                .filter(|q| seen.insert(fingerprint(q)))
                .take(n - out.len()),
        );
        chunk += 1;
    }
    out
}

/// Number of distinct canonical queries.
pub fn distinct(queries: &[String]) -> usize {
    queries
        .iter()
        .map(|q| fingerprint(q))
        .collect::<HashSet<_>>()
        .len()
}

/// Hot traffic must fit the cache with room to spare, so that after one
/// lap every request hits: at most half the slots are needed.
pub fn check_fits(queries: &[String], cache_capacity: usize) -> Result<usize, String> {
    let d = distinct(queries);
    if 2 * d > cache_capacity {
        return Err(format!(
            "hot set has {d} distinct canonical queries, more than half of {cache_capacity} cache slots"
        ));
    }
    Ok(d)
}

/// Cold traffic must repeat no canonical query and hold more distinct
/// queries than the cache has slots, so every request misses and the
/// cache evicts.
pub fn check_cold(queries: &[String], cache_capacity: usize) -> Result<usize, String> {
    let d = distinct(queries);
    if d != queries.len() {
        return Err(format!(
            "cold traffic repeats canonical queries: {d} distinct of {}",
            queries.len()
        ));
    }
    if d <= cache_capacity {
        return Err(format!(
            "cold traffic has {d} distinct queries, not more than {cache_capacity} cache slots"
        ));
    }
    Ok(d)
}
