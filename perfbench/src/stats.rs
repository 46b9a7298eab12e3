//! Order statistics with the sample-size rule the benchmark reports by: a
//! percentile is only reported when at least ten samples lie beyond it.

/// Samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples (`p` in `(0, 1)`),
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile takes a fraction in (0, 1)");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted input");
    let rank = ((p * sorted.len() as f64).ceil() as usize).max(1);
    if sorted.len() < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sorts in place and returns the slice, for chaining into [`percentile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples (`NaN` when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v.to_vec());
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// The median, over consecutive windows of `samples` (in time order), of
/// each window's `p` percentile. Windows are as many as give each at least
/// `beyond` samples above `p` (at most `max_windows`, at least one); a
/// stall that lands in one window moves one window's figure, not the
/// run's. `None` when a window cannot report `p` (see [`percentile`]).
pub fn windowed_percentile(
    samples: &[f64],
    p: f64,
    max_windows: usize,
    beyond: usize,
) -> Option<f64> {
    let per_window = ((beyond as f64 / (1.0 - p)).round() as usize).max(1);
    let windows = (samples.len() / per_window).clamp(1, max_windows.max(1));
    let size = samples.len() / windows;
    let figures: Option<Vec<f64>> = (0..windows)
        .map(|w| percentile(&sorted(samples[w * size..(w + 1) * size].to_vec()), p))
        .collect();
    figures.map(|f| median(&f))
}
