//! Serving configuration: how many shards and workers, how large a result
//! cache, and which physical execution mode queries run under.

use fsi_index::{Planner, Strategy};

/// How a shard answers a conjunctive query.
#[derive(Debug, Clone)]
pub enum ExecMode {
    /// Every posting list preprocessed under one fixed [`Strategy`].
    Fixed(Strategy),
    /// Whole-query cost-model planning: every query's term list is planned
    /// at once into a k-way [`fsi_index::MultiwayPlan`] (the paper's
    /// "choose online" pitch, see [`fsi_index::planner`]).
    Planned(Planner),
}

impl ExecMode {
    /// A short label for telemetry and cache keys.
    pub fn label(&self) -> String {
        match self {
            ExecMode::Fixed(s) => s.name(),
            ExecMode::Planned(_) => "Planned(multiway)".to_string(),
        }
    }
}

/// A builder for planner-dispatched execution modes — the one place the
/// serving stack derives a [`Planner`] from operator intent.
///
/// ```
/// use fsi_serve::{PlannerProfile, ServeConfig};
///
/// let config = ServeConfig::default()
///     .with_profile(PlannerProfile::auto().memory_pressured(1.5));
/// assert!(config.mode.label().starts_with("Planned"));
/// ```
#[derive(Debug, Clone)]
pub struct PlannerProfile {
    base: Planner,
}

impl PlannerProfile {
    /// Cost constants tuned for the SIMD tier this process dispatches to
    /// ([`Planner::auto`]) — the serving-stack default, so plans favour
    /// the vectorized bitmap sweep exactly where `BENCH_simd.json`
    /// measured it winning.
    pub fn auto() -> Self {
        Self {
            base: Planner::auto(),
        }
    }

    /// The paper-era reference constants ([`Planner::default`]),
    /// independent of the host's SIMD tier — for reproducing the paper's
    /// crossovers rather than serving fast.
    pub fn reference() -> Self {
        Self {
            base: Planner::default(),
        }
    }

    /// Charge every candidate its resident byte footprint
    /// ([`Planner::bytes_unit`]), so queries over compressible lists run
    /// in the compressed domain
    /// ([`fsi_index::PlanKind::CompressedGallop`]) instead of walking the
    /// 4-bytes-per-id flat representations. `bytes_per_elem_unit` is the
    /// cost of one resident byte relative to the compute units — `0.0`
    /// reproduces the pure-compute model; values ≥ ~1 make footprint
    /// dominate for all but the most selective plans.
    pub fn memory_pressured(mut self, bytes_per_elem_unit: f64) -> Self {
        self.base.bytes_unit = bytes_per_elem_unit;
        self
    }

    /// The resulting planner.
    pub fn planner(&self) -> Planner {
        self.base.clone()
    }

    /// The resulting execution mode.
    pub fn mode(&self) -> ExecMode {
        ExecMode::Planned(self.planner())
    }
}

impl Default for PlannerProfile {
    fn default() -> Self {
        Self::auto()
    }
}

/// Configuration of a serving engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of document shards (≥ 1). Posting lists are partitioned into
    /// contiguous document-ID ranges, one per shard.
    pub num_shards: usize,
    /// Worker threads draining query batches (≥ 1).
    pub num_workers: usize,
    /// Total result-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Physical execution mode.
    pub mode: ExecMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            num_shards: 4,
            num_workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            cache_capacity: 4096,
            // Whole-query cost-model planning with constants tuned for the
            // SIMD tier this process dispatches to. Fix a strategy (e.g.
            // the paper's `Strategy::RanGroupScan { m: 2 }`) to pin one
            // algorithm instead.
            mode: PlannerProfile::auto().mode(),
        }
    }
}

impl ServeConfig {
    /// Validates the configuration, normalizing zero counts up to one.
    pub fn normalized(mut self) -> Self {
        self.num_shards = self.num_shards.max(1);
        self.num_workers = self.num_workers.max(1);
        self
    }

    /// Sets planner-dispatched execution from a [`PlannerProfile`].
    pub fn with_profile(mut self, profile: PlannerProfile) -> Self {
        self.mode = profile.mode();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = ServeConfig::default();
        assert!(c.num_shards >= 1);
        assert!(c.num_workers >= 1);
    }

    #[test]
    fn normalized_lifts_zeros() {
        let c = ServeConfig {
            num_shards: 0,
            num_workers: 0,
            ..ServeConfig::default()
        }
        .normalized();
        assert_eq!((c.num_shards, c.num_workers), (1, 1));
    }

    #[test]
    fn mode_labels() {
        assert_eq!(ExecMode::Fixed(Strategy::Merge).label(), "Merge");
        assert!(ExecMode::Planned(Planner::default())
            .label()
            .starts_with("Planned"));
    }

    #[test]
    fn memory_pressured_profile_sets_only_the_bytes_dial() {
        let ExecMode::Planned(p) = PlannerProfile::auto().memory_pressured(2.5).mode() else {
            panic!("planned mode expected");
        };
        let auto = Planner::auto();
        assert_eq!(p.bytes_unit, 2.5);
        assert_eq!(p.gallop_unit, auto.gallop_unit);
        assert_eq!(p.bitmap_word_unit, auto.bitmap_word_unit);
        assert_eq!(p.decode_unit, auto.decode_unit);
    }

    #[test]
    fn with_profile_sets_the_mode() {
        let c = ServeConfig::default().with_profile(PlannerProfile::reference());
        let ExecMode::Planned(p) = c.mode else {
            panic!("planned mode expected");
        };
        assert_eq!(p.gallop_unit, Planner::default().gallop_unit);
    }
}
