//! Histograms and percentile summaries.
//!
//! The paper's behavioural evaluation reports means over 100-1000
//! Monte-Carlo trials (Figs 3, 4, 6, 8), residual-error histograms (Fig 7),
//! and outlier-bearing distributions (Fig 4's TokenSmart tail). These types
//! provide exactly those reductions.

/// A fixed-range, uniform-bin histogram (used for Fig 7's error histograms).
///
/// Samples outside the range are clamped into the first/last bin so the
/// total count always equals the number of pushes.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` uniform bins.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
        }
    }

    /// Adds a sample (clamped into range).
    pub fn push(&mut self, x: f64) {
        let n = self.bins.len();
        let frac = (x - self.lo) / (self.hi - self.lo);
        let idx = ((frac * n as f64).floor() as i64).clamp(0, n as i64 - 1) as usize;
        self.bins[idx] += 1;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Center value of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }

    /// `(bin_center, count)` pairs for plotting/CSV emission.
    pub fn points(&self) -> Vec<(f64, u64)> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bin_center(i), c))
            .collect()
    }
}

/// A percentile summary of a finite sample set.
///
/// Retains the samples (the evaluation's trial counts are ≤ a few thousand)
/// and computes exact order statistics by nearest-rank.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean of samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Nearest-rank percentile, `p` in `[0, 100]`.
    ///
    /// # Panics
    /// Panics if no samples have been pushed or `p` is out of range.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(!self.samples.is_empty(), "percentile of empty summary");
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.samples[rank.saturating_sub(1).min(n - 1)]
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Maximum sample.
    pub fn max(&mut self) -> f64 {
        self.percentile(100.0)
    }

    /// Minimum sample.
    pub fn min(&mut self) -> f64 {
        self.percentile(0.0)
    }

    /// Borrow of the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(0.5); // bin 0
        h.push(9.5); // bin 9
        h.push(-5.0); // clamped to bin 0
        h.push(50.0); // clamped to bin 9
        h.push(10.0); // exactly hi -> clamped to bin 9
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[9], 3);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_centers_and_points() {
        let h = Histogram::new(0.0, 4.0, 4);
        assert_eq!(h.bin_center(0), 0.5);
        assert_eq!(h.bin_center(3), 3.5);
        assert_eq!(h.points().len(), 4);
    }

    #[test]
    fn summary_percentiles() {
        let mut s: Summary = (1..=100).map(|i| i as f64).collect();
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.max(), 100.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.mean(), 50.5);
    }

    #[test]
    fn summary_push_after_sort() {
        let mut s = Summary::new();
        s.push(3.0);
        s.push(1.0);
        assert_eq!(s.min(), 1.0);
        s.push(0.5); // invalidates sort
        assert_eq!(s.min(), 0.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_percentile_empty_panics() {
        Summary::new().median();
    }
}
