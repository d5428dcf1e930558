//! Order statistics for latency samples.
//!
//! A percentile is only reported together with how many samples lie
//! beyond it: a p99 backed by 3 samples is noise, so [`Summary::p99`]
//! refuses to exist unless at least [`MIN_BEYOND`] samples sit above it.

/// A percentile needs at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice: the smallest sample
/// with at least `q · n` samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly after the nearest-rank `q` quantile's position.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Latency summary of one phase: count, median and p99.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples in the phase.
    pub n: usize,
    /// Nearest-rank median (for a windowed summary, the chosen quantile
    /// over windows of each window's median).
    pub p50: f64,
    /// Nearest-rank p90 (likewise over windows).
    pub p90: f64,
    /// Nearest-rank p99 (likewise over windows); `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it in some window.
    pub p99: Option<f64>,
    /// Samples beyond the p99 position (the fewest of any window).
    pub beyond99: usize,
    /// Windows the phase was cut into.
    pub windows: usize,
    /// Lowest and highest window p99 (equal for one window).
    pub p99_range: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (sorted in place); `None` when empty.
    pub fn of(samples: &mut [f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let beyond99 = beyond(n, 0.99);
        Some(Summary {
            n,
            p50: quantile(samples, 0.5),
            p90: quantile(samples, 0.9),
            p99: (beyond99 >= MIN_BEYOND).then(|| quantile(samples, 0.99)),
            beyond99,
            windows: 1,
            p99_range: None,
        })
    }

    /// Cuts `(time, value)` samples, in time order, into up to
    /// `max_windows` consecutive windows of equal count, as many as
    /// keep ten samples beyond every window's p99, and reports the
    /// nearest-rank `q` quantile over windows of each window's p50, p90
    /// and p99. A burst of noise then moves the windows it hits, not the
    /// result.
    pub fn windowed(samples: &mut [(f64, f64)], max_windows: usize, q: f64) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n = samples.len();
        let per_window_min = 100 * MIN_BEYOND;
        let windows = (n / per_window_min).clamp(1, max_windows.max(1));
        // Window i holds samples [i·n/w, (i+1)·n/w): none is smaller
        // than n/w.
        let parts: Vec<Summary> = (0..windows)
            .map(|i| {
                let w = &samples[i * n / windows..(i + 1) * n / windows];
                let mut v: Vec<f64> = w.iter().map(|s| s.1).collect();
                Summary::of(&mut v).expect("non-empty window")
            })
            .collect();
        let over = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            quantile(&v, q)
        };
        let p50s: Vec<f64> = parts.iter().map(|s| s.p50).collect();
        let p90s: Vec<f64> = parts.iter().map(|s| s.p90).collect();
        let p99s: Option<Vec<f64>> = parts.iter().map(|s| s.p99).collect();
        let range = |v: &Vec<f64>| {
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            (lo, v.iter().copied().fold(lo, f64::max))
        };
        Some(Summary {
            n,
            p50: over(p50s),
            p90: over(p90s),
            p99: p99s.clone().map(over),
            beyond99: parts.iter().map(|s| s.beyond99).min().unwrap_or(0),
            windows: parts.len(),
            p99_range: p99s.as_ref().map(range),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(998, 0.99), 9);
        assert_eq!(beyond(1, 0.5), 0);
        assert_eq!(beyond(0, 0.99), 0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let mut few: Vec<f64> = (0..998).map(f64::from).collect();
        let s = Summary::of(&mut few).unwrap();
        assert_eq!((s.n, s.beyond99, s.p99), (998, 9, None));
        let mut enough: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::of(&mut enough).unwrap();
        assert_eq!(s.beyond99, 10);
        assert_eq!(s.p99, Some(989.0));
        assert_eq!(s.p90, 899.0);
        assert_eq!(s.p50, 499.0);
        assert!(Summary::of(&mut []).is_none());
    }

    #[test]
    fn windows_keep_ten_samples_beyond_each_p99() {
        // 3500 samples: three windows of ≥ 1000, not five.
        let mut v: Vec<(f64, f64)> = (0..3500).map(|i| (f64::from(i), 1.0)).collect();
        // A burst in the last window moves only that window's p99.
        for s in v.iter_mut().skip(3400) {
            s.1 = 1000.0;
        }
        let s = Summary::windowed(&mut v, 5, 0.5).unwrap();
        assert_eq!((s.n, s.windows), (3500, 3));
        assert!(s.beyond99 >= MIN_BEYOND);
        assert_eq!(s.p99, Some(1.0));
        assert_eq!(s.p50, 1.0);
        // 31034 samples: 31 windows, every one with a p99.
        let mut many: Vec<(f64, f64)> = (0..31034).map(|i| (f64::from(i), 3.0)).collect();
        let s = Summary::windowed(&mut many, 50, 0.5).unwrap();
        assert_eq!((s.windows, s.p99), (31, Some(3.0)));
        // Too few samples for even one window's p99.
        let mut few: Vec<(f64, f64)> = (0..500).map(|i| (f64::from(i), 2.0)).collect();
        let s = Summary::windowed(&mut few, 5, 0.5).unwrap();
        assert_eq!((s.windows, s.p99, s.p50), (1, None, 2.0));
    }

    #[test]
    fn windows_are_combined_at_the_chosen_quantile() {
        // Four windows of 1000 samples, window i all at 10·(i+1).
        let mut v: Vec<(f64, f64)> = (0..4000)
            .map(|i| (f64::from(i), f64::from(10 * (i / 1000 + 1))))
            .collect();
        let quarter = Summary::windowed(&mut v, 10, 0.25).unwrap();
        assert_eq!(
            (quarter.windows, quarter.p50, quarter.p99),
            (4, 10.0, Some(10.0))
        );
        let half = Summary::windowed(&mut v, 10, 0.5).unwrap();
        assert_eq!((half.p50, half.p90, half.p99), (20.0, 20.0, Some(20.0)));
        assert_eq!(half.p99_range, Some((10.0, 40.0)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
