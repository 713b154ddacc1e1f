//! Axis scales and tick generation.

/// A data→pixel axis mapping, linear or logarithmic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    lo: f64,
    hi: f64,
    px_lo: f64,
    px_hi: f64,
    log: bool,
}

impl Scale {
    /// A linear scale from data `[lo, hi]` onto pixels `[px_lo, px_hi]`
    /// (pixel range may be inverted for y axes).
    ///
    /// # Panics
    /// Panics if the data range is empty or not finite.
    pub fn linear(lo: f64, hi: f64, px_lo: f64, px_hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && hi > lo,
            "bad range {lo}..{hi}"
        );
        Scale {
            lo,
            hi,
            px_lo,
            px_hi,
            log: false,
        }
    }

    /// A log10 scale; both bounds must be positive.
    ///
    /// # Panics
    /// Panics on a non-positive or empty range.
    pub fn log(lo: f64, hi: f64, px_lo: f64, px_hi: f64) -> Self {
        assert!(
            lo > 0.0 && hi > lo,
            "log scale needs 0 < lo < hi, got {lo}..{hi}"
        );
        Scale {
            lo,
            hi,
            px_lo,
            px_hi,
            log: true,
        }
    }

    /// Maps a data value to pixels (clamped to the data range).
    pub fn px(&self, v: f64) -> f64 {
        let v = v.clamp(self.lo, self.hi);
        let t = if self.log {
            (v.ln() - self.lo.ln()) / (self.hi.ln() - self.lo.ln())
        } else {
            (v - self.lo) / (self.hi - self.lo)
        };
        self.px_lo + t * (self.px_hi - self.px_lo)
    }

    /// Data lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Data upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Tick positions: powers of ten (log) or ~`target` "nice" steps
    /// (1/2/5 progression, linear).
    pub fn ticks(&self, target: usize) -> Vec<f64> {
        if self.log {
            let mut out = Vec::new();
            let mut decade = 10f64.powf(self.lo.log10().floor());
            while decade <= self.hi * 1.0001 {
                if decade >= self.lo * 0.9999 {
                    out.push(decade);
                }
                decade *= 10.0;
            }
            if out.len() < 2 {
                out = vec![self.lo, self.hi];
            }
            out
        } else {
            let span = self.hi - self.lo;
            let raw = span / target.max(1) as f64;
            let mag = 10f64.powf(raw.log10().floor());
            let step = [1.0, 2.0, 5.0, 10.0]
                .iter()
                .map(|m| m * mag)
                .find(|&s| s >= raw)
                .unwrap_or(10.0 * mag);
            let mut out = Vec::new();
            let mut t = (self.lo / step).ceil() * step;
            while t <= self.hi + step * 1e-9 {
                out.push(t);
                t += step;
            }
            out
        }
    }
}

/// Formats a tick label compactly (k/M suffixes, trimmed decimals).
pub fn tick_label(v: f64) -> String {
    let a = v.abs();
    if a >= 1e6 {
        format!("{}M", trim(v / 1e6))
    } else if a >= 1e3 {
        format!("{}k", trim(v / 1e3))
    } else {
        trim(v)
    }
}

fn trim(v: f64) -> String {
    if (v - v.round()).abs() < 1e-9 {
        format!("{}", v.round() as i64)
    } else {
        let s = format!("{v:.2}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_mapping_and_clamp() {
        let s = Scale::linear(0.0, 10.0, 100.0, 200.0);
        assert_eq!(s.px(0.0), 100.0);
        assert_eq!(s.px(10.0), 200.0);
        assert_eq!(s.px(5.0), 150.0);
        assert_eq!(s.px(-5.0), 100.0); // clamped
        assert_eq!(s.px(50.0), 200.0);
    }

    #[test]
    fn inverted_pixel_range_for_y() {
        let s = Scale::linear(0.0, 1.0, 300.0, 20.0);
        assert_eq!(s.px(0.0), 300.0);
        assert_eq!(s.px(1.0), 20.0);
        assert!(s.px(0.5) > 20.0 && s.px(0.5) < 300.0);
    }

    #[test]
    fn log_mapping() {
        let s = Scale::log(1.0, 1000.0, 0.0, 300.0);
        assert_eq!(s.px(1.0), 0.0);
        assert!((s.px(10.0) - 100.0).abs() < 1e-9);
        assert!((s.px(100.0) - 200.0).abs() < 1e-9);
        assert_eq!(s.px(1000.0), 300.0);
    }

    #[test]
    fn linear_ticks_are_nice() {
        let s = Scale::linear(0.0, 100.0, 0.0, 1.0);
        let ticks = s.ticks(5);
        assert_eq!(ticks, vec![0.0, 20.0, 40.0, 60.0, 80.0, 100.0]);
        let s2 = Scale::linear(0.0, 7.3, 0.0, 1.0);
        let t2 = s2.ticks(5);
        assert!(t2.len() >= 3 && t2.len() <= 9);
        assert!(t2.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn log_ticks_are_decades() {
        let s = Scale::log(0.5, 2000.0, 0.0, 1.0);
        let ticks = s.ticks(4);
        assert!(ticks.contains(&1.0));
        assert!(ticks.contains(&10.0));
        assert!(ticks.contains(&100.0));
        assert!(ticks.contains(&1000.0));
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(tick_label(1500.0), "1.5k");
        assert_eq!(tick_label(2_000_000.0), "2M");
        assert_eq!(tick_label(0.25), "0.25");
        assert_eq!(tick_label(64.0), "64");
    }

    #[test]
    #[should_panic(expected = "log scale")]
    fn log_rejects_nonpositive() {
        Scale::log(0.0, 10.0, 0.0, 1.0);
    }
}
