//! Seeded arrival schedules. The whole schedule is drawn before a phase
//! starts, so the program under test only ever sees the generated requests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// `n` arrival offsets from the phase origin: a Poisson process at
/// `rate_qps` (exponential gaps), deterministic in `seed`.
pub fn arrivals(seed: u64, rate_qps: f64, n: usize) -> Vec<Duration> {
    assert!(rate_qps > 0.0, "an open loop needs a positive rate");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate_qps;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// `n` picks from `0..distinct`, uniform and deterministic in `seed`: the
/// order in which a fixed query set is replayed.
pub fn replay_order(seed: u64, distinct: usize, n: usize) -> Vec<usize> {
    assert!(distinct > 0, "nothing to replay");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..distinct)).collect()
}
