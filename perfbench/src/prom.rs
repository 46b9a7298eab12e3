//! Reading the Prometheus text the `Metrics` admin op returns: counter sums
//! and histogram buckets, so a phase's share of a counter or histogram is
//! the difference of two scrapes.

use std::collections::BTreeMap;

/// The value of every sample line of `name` (label sets summed), where a
/// line matches when it is `name` followed by ` ` or `{`.
fn samples<'a>(text: &'a str, name: &'a str) -> impl Iterator<Item = (&'a str, f64)> + 'a {
    text.lines().filter_map(move |line| {
        let rest = line.strip_prefix(name)?;
        if !(rest.starts_with(' ') || rest.starts_with('{')) {
            return None;
        }
        let (labels, value) = rest.rsplit_once(' ')?;
        Some((labels, value.parse().ok()?))
    })
}

/// Sum of a counter over all its label sets (0 when absent).
pub fn counter_sum(text: &str, name: &str) -> f64 {
    samples(text, name).map(|(_, v)| v).sum()
}

/// A histogram summed over its label sets: per-bucket counts keyed by the
/// inclusive upper edge, plus the exact sample sum.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    pub buckets: BTreeMap<u64, f64>,
    pub sum: f64,
}

impl Hist {
    pub fn scrape(text: &str, name: &str) -> Self {
        // Cumulative counts per (label set without `le`, edge).
        let mut cumulative: BTreeMap<(String, u64), f64> = BTreeMap::new();
        for (labels, v) in samples(text, &format!("{name}_bucket")) {
            let Some((series, le)) = labels.rsplit_once("le=\"") else {
                continue;
            };
            let Ok(edge) = le.trim_end_matches(['"', '}']).parse::<u64>() else {
                continue; // the +Inf bucket repeats `_count`
            };
            cumulative.insert((series.to_string(), edge), v);
        }
        let mut buckets = BTreeMap::new();
        let mut prev: Option<(&str, f64)> = None;
        for ((series, edge), &v) in &cumulative {
            let below = match prev {
                Some((s, c)) if s == series => c,
                _ => 0.0,
            };
            *buckets.entry(*edge).or_insert(0.0) += v - below;
            prev = Some((series, v));
        }
        Self {
            buckets,
            sum: counter_sum(text, &format!("{name}_sum")),
        }
    }

    /// The samples recorded between `earlier` and `self`.
    pub fn since(&self, earlier: &Hist) -> Hist {
        let buckets = self
            .buckets
            .iter()
            .map(|(&e, &v)| (e, v - earlier.buckets.get(&e).copied().unwrap_or(0.0)))
            .filter(|&(_, v)| v > 0.0)
            .collect();
        Hist {
            buckets,
            sum: self.sum - earlier.sum,
        }
    }

    pub fn count(&self) -> f64 {
        self.buckets.values().sum()
    }

    pub fn mean(&self) -> f64 {
        self.sum / self.count()
    }

    /// Upper edge of the bucket holding the nearest-rank `p` sample, or
    /// `None` when fewer than ten samples lie beyond it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.count();
        let rank = (p * n).ceil().max(1.0);
        if n < rank + crate::stats::MIN_BEYOND as f64 {
            return None;
        }
        let mut seen = 0.0;
        for (&edge, &v) in &self.buckets {
            seen += v;
            if seen >= rank {
                return Some(edge as f64);
            }
        }
        None
    }
}
