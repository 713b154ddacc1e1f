//! Online statistics, histograms, and percentile summaries.
//!
//! The paper's behavioural evaluation reports means over 100-1000
//! Monte-Carlo trials (Figs 3, 4, 6, 8), residual-error histograms (Fig 7),
//! and outlier-bearing distributions (Fig 4's TokenSmart tail). These types
//! provide exactly those reductions.

/// Numerically stable online mean/variance/min/max accumulator (Welford).
///
/// # Example
///
/// ```
/// use blitzcoin_sim::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.std_dev() - 2.138089935299395).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (Bessel-corrected; 0 with fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

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
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        s.push(1.0);
        s.push(2.0);
        s.push(3.0);
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert!((s.variance() - 1.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut seq = OnlineStats::new();
        for &x in &data {
            seq.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-9);
        assert!((a.variance() - seq.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(5.0);
        let before = a.mean();
        a.merge(&OnlineStats::new());
        assert_eq!(a.mean(), before);
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.mean(), before);
    }

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
