//! Accelerator power models (the Fig 13 substitution).
//!
//! The paper characterizes each accelerator's power across DVFS operating
//! points from ASIC measurement (FFT, Viterbi, NVDLA) and post-synthesis
//! Cadence Joules runs (GEMM, Conv2D, Vision). Neither source is available,
//! so — per the substitution rule in DESIGN.md — each class gets an
//! analytic model
//!
//! ```text
//! P(F) = l0·V(F) + c·F·V(F)²          (leakage + dynamic CV²F)
//! ```
//!
//! with `V(F)` the class's V-F curve and `(l0, c)` solved so the curve
//! passes exactly through the class's characterized `(F_min, P_min)` and
//! `(F_max, P_max)` corners. The corner values are chosen so that the
//! paper's aggregate budget ratios hold: the 3x3 SoC's accelerators total
//! 400 mW at F_max (so the evaluated 120/60 mW budgets are 30%/15%), and
//! the 4x4 SoC's total 1350 mW (450/900 mW = 33%/66%).
//!
//! The paper further measures that at minimum voltage the clock can be
//! scaled far below F_min, producing a 7.5x power reduction for idle
//! tiles; [`PowerModel::idle_power`] reproduces that.

use crate::curve::VfCurve;

/// The accelerator classes evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcceleratorClass {
    /// Fast Fourier Transform (depth estimation; 3x3 SoC, 3 instances).
    Fft,
    /// Viterbi decoder (V2V communication; 3x3 SoC, 2 instances).
    Viterbi,
    /// NVIDIA Deep Learning Accelerator (object detection; 3x3 SoC).
    Nvdla,
    /// Dense matrix multiplication (CNN inference; 4x4 SoC).
    Gemm,
    /// 2-D convolution (CNN inference; 4x4 SoC).
    Conv2d,
    /// Computer-vision accelerator: noise filtering, histogram
    /// equalization, discrete wavelet transform (4x4 SoC).
    Vision,
}

blitzcoin_sim::json_unit_enum!(AcceleratorClass {
    Fft,
    Viterbi,
    Nvdla,
    Gemm,
    Conv2d,
    Vision
});

impl AcceleratorClass {
    /// All classes.
    pub const ALL: [AcceleratorClass; 6] = [
        AcceleratorClass::Fft,
        AcceleratorClass::Viterbi,
        AcceleratorClass::Nvdla,
        AcceleratorClass::Gemm,
        AcceleratorClass::Conv2d,
        AcceleratorClass::Vision,
    ];

    /// Short display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            AcceleratorClass::Fft => "FFT",
            AcceleratorClass::Viterbi => "Viterbi",
            AcceleratorClass::Nvdla => "NVDLA",
            AcceleratorClass::Gemm => "GEMM",
            AcceleratorClass::Conv2d => "Conv2D",
            AcceleratorClass::Vision => "Vision",
        }
    }

    /// Characterization corners for this class:
    /// `(v_min, v_max, f_min_mhz, f_max_mhz, p_min_mw, p_max_mw)`.
    ///
    /// FFT/Viterbi span 0.5-1.0 V and NVDLA 0.6-1.0 V as in Fig 13 (left);
    /// GEMM/Conv2D/Vision span 0.6-0.9 V as in Fig 13 (right). The minimum
    /// power corner gives each class a 5-8x power range across its DVFS
    /// points (as the Fig 13 curves show) while keeping the calibrated
    /// leakage coefficient non-negative.
    pub fn corners(self) -> (f64, f64, f64, f64, f64, f64) {
        match self {
            AcceleratorClass::Fft => (0.5, 1.0, 200.0, 800.0, 6.25, 50.0),
            AcceleratorClass::Viterbi => (0.5, 1.0, 150.0, 600.0, 3.75, 30.0),
            AcceleratorClass::Nvdla => (0.6, 1.0, 300.0, 800.0, 26.0, 190.0),
            AcceleratorClass::Gemm => (0.6, 0.9, 250.0, 700.0, 24.0, 150.0),
            AcceleratorClass::Conv2d => (0.6, 0.9, 250.0, 650.0, 17.5, 100.0),
            AcceleratorClass::Vision => (0.6, 0.9, 200.0, 500.0, 11.5, 62.5),
        }
    }
}

impl std::fmt::Display for AcceleratorClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An accelerator tile's power model: V-F curve plus calibrated
/// leakage/dynamic coefficients.
///
/// # Example
///
/// ```
/// use blitzcoin_power::{AcceleratorClass, PowerModel};
///
/// let fft = PowerModel::of(AcceleratorClass::Fft);
/// assert_eq!(fft.power_at(fft.f_max()), 50.0);
/// // inverse lookup: what frequency fits a 20 mW allocation?
/// let f = fft.freq_for_power(20.0);
/// assert!((fft.power_at(f) - 20.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    class: AcceleratorClass,
    curve: VfCurve,
    /// Leakage coefficient: P_leak = l0 · V  (mW per volt).
    l0: f64,
    /// Dynamic coefficient: P_dyn = c · F · V²  (mW per MHz·V²).
    c: f64,
}

impl PowerModel {
    /// Builds the calibrated model for an accelerator class.
    pub fn of(class: AcceleratorClass) -> Self {
        let (v_min, v_max, f_min, f_max, p_min, p_max) = class.corners();
        let curve = VfCurve::linear(v_min, v_max, f_min, f_max);
        // Solve  l0·v_min + c·f_min·v_min² = p_min
        //        l0·v_max + c·f_max·v_max² = p_max
        let a = [
            [v_min, f_min * v_min * v_min],
            [v_max, f_max * v_max * v_max],
        ];
        let b = [p_min, p_max];
        let det = a[0][0] * a[1][1] - a[0][1] * a[1][0];
        assert!(det.abs() > 1e-12, "degenerate calibration corners");
        let l0 = (b[0] * a[1][1] - a[0][1] * b[1]) / det;
        let c = (a[0][0] * b[1] - b[0] * a[1][0]) / det;
        assert!(c > 0.0, "dynamic coefficient must be positive");
        assert!(l0 >= 0.0, "leakage coefficient must be non-negative");
        PowerModel {
            class,
            curve,
            l0,
            c,
        }
    }

    /// The accelerator class.
    pub fn class(&self) -> AcceleratorClass {
        self.class
    }

    /// The V-F characterization curve.
    pub fn curve(&self) -> &VfCurve {
        &self.curve
    }

    /// Maximum operating frequency (MHz).
    pub fn f_max(&self) -> f64 {
        self.curve.f_max()
    }

    /// Minimum DVFS operating frequency (MHz).
    pub fn f_min(&self) -> f64 {
        self.curve.f_min()
    }

    /// The lowest DVFS frequency the tile can *run* at: at minimum
    /// voltage the clock scales well below the V-F curve's F_min (the
    /// "triangle marker" extension of the paper's Fig 13 NVDLA curve).
    pub fn f_floor(&self) -> f64 {
        self.f_min() / 8.0
    }

    /// Power at the running floor (minimum voltage, deeply scaled clock).
    pub fn power_floor(&self) -> f64 {
        self.power_at(self.f_floor())
    }

    /// Power at frequency `f` (MHz), running at the minimal voltage that
    /// sustains `f` (this is what UVFR guarantees). Below F_min the tile
    /// stays at V_min and only the clock scales (the Fig 13 extension);
    /// `f` is clamped to `[f_floor, f_max]`.
    pub fn power_at(&self, f: f64) -> f64 {
        let f = f.clamp(self.f_floor(), self.f_max());
        let v = self.curve.voltage_for(f); // clamps to v_min below f_min
        self.l0 * v + self.c * f * v * v
    }

    /// Power at the maximum operating point (mW).
    pub fn p_max(&self) -> f64 {
        self.power_at(self.f_max())
    }

    /// Power at the minimum DVFS operating point (mW).
    pub fn p_min(&self) -> f64 {
        self.power_at(self.f_min())
    }

    /// Idle power (mW): at minimum voltage the clock is scaled far below
    /// F_min, producing the paper's measured 7.5x reduction versus P_min.
    pub fn idle_power(&self) -> f64 {
        self.p_min() / 7.5
    }

    /// Inverse lookup: the highest frequency whose power fits within
    /// `budget_mw`. Returns `f_floor` if even the deepest clock-scaled
    /// point exceeds the budget (the tile can then fall back to idle),
    /// and `f_max` if the budget exceeds the maximum power.
    pub fn freq_for_power(&self, budget_mw: f64) -> f64 {
        if budget_mw <= self.power_floor() {
            return self.f_floor();
        }
        if budget_mw >= self.p_max() {
            return self.f_max();
        }
        // P(F) is strictly increasing over [f_floor, f_max]; bisect.
        let (mut lo, mut hi) = (self.f_floor(), self.f_max());
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.power_at(mid) <= budget_mw {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Samples `(frequency, power)` points across the DVFS range, for
    /// emitting Fig 13-style characterization tables.
    pub fn characterization(&self, samples: usize) -> Vec<(f64, f64)> {
        assert!(samples >= 2, "need at least two samples");
        (0..samples)
            .map(|i| {
                let f =
                    self.f_min() + (self.f_max() - self.f_min()) * i as f64 / (samples - 1) as f64;
                (f, self.power_at(f))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_hits_corners() {
        for class in AcceleratorClass::ALL {
            let m = PowerModel::of(class);
            let (_, _, _, _, p_min, p_max) = class.corners();
            assert!((m.p_max() - p_max).abs() < 1e-9, "{class} p_max");
            assert!((m.p_min() - p_min).abs() < 1e-9, "{class} p_min");
        }
    }

    #[test]
    fn aggregate_budgets_match_paper() {
        // 3x3 SoC: 3 FFT + 2 Viterbi + 1 NVDLA = 400 mW at F_max.
        let total_3x3 = 3.0 * PowerModel::of(AcceleratorClass::Fft).p_max()
            + 2.0 * PowerModel::of(AcceleratorClass::Viterbi).p_max()
            + PowerModel::of(AcceleratorClass::Nvdla).p_max();
        assert!((total_3x3 - 400.0).abs() < 1e-6);
        // 4x4 SoC: 4 GEMM + 5 Conv2D + 4 Vision = 1350 mW at F_max.
        let total_4x4 = 4.0 * PowerModel::of(AcceleratorClass::Gemm).p_max()
            + 5.0 * PowerModel::of(AcceleratorClass::Conv2d).p_max()
            + 4.0 * PowerModel::of(AcceleratorClass::Vision).p_max();
        assert!((total_4x4 - 1350.0).abs() < 1e-6);
    }

    #[test]
    fn power_is_monotone_in_frequency() {
        for class in AcceleratorClass::ALL {
            let m = PowerModel::of(class);
            let pts = m.characterization(50);
            for w in pts.windows(2) {
                assert!(w[1].1 > w[0].1, "{class} non-monotone at {:?}", w);
            }
        }
    }

    #[test]
    fn power_is_convex_in_frequency() {
        // CV²F with V linear in F is a cubic with positive leading terms;
        // convexity means DVFS down is super-linearly cheaper, the effect
        // that makes RP allocation beat AP (Section VI-A).
        let m = PowerModel::of(AcceleratorClass::Nvdla);
        let pts = m.characterization(20);
        for w in pts.windows(3) {
            let d1 = w[1].1 - w[0].1;
            let d2 = w[2].1 - w[1].1;
            assert!(d2 >= d1 - 1e-9);
        }
    }

    #[test]
    fn inverse_round_trips() {
        for class in AcceleratorClass::ALL {
            let m = PowerModel::of(class);
            for i in 1..=10 {
                let budget = m.p_min() + (m.p_max() - m.p_min()) * i as f64 / 10.0;
                let f = m.freq_for_power(budget);
                assert!(
                    (m.power_at(f) - budget).abs() < 1e-6,
                    "{class}: budget {budget} -> f {f} -> {}",
                    m.power_at(f)
                );
            }
        }
    }

    #[test]
    fn inverse_clamps() {
        let m = PowerModel::of(AcceleratorClass::Fft);
        assert_eq!(m.freq_for_power(0.0), m.f_floor());
        assert_eq!(m.freq_for_power(1e9), m.f_max());
    }

    #[test]
    fn sub_fmin_extension_scales_clock_at_vmin() {
        // Fig 13's triangle-marker extension: below F_min the voltage
        // pins at V_min and power falls roughly linearly with the clock.
        let m = PowerModel::of(AcceleratorClass::Nvdla);
        let p_ext = m.power_at(m.f_min() / 2.0);
        assert!(p_ext < m.p_min());
        assert!(p_ext > 0.0);
        assert!((m.curve().voltage_for(m.f_min() / 2.0) - 0.6).abs() < 1e-9);
        // inverse lookup reaches the extension region
        let f = m.freq_for_power(15.0); // below NVDLA's 26 mW p_min
        assert!(f < m.f_min() && f >= m.f_floor());
        assert!((m.power_at(f) - 15.0).abs() < 1e-6);
    }

    #[test]
    fn leakage_is_non_negative_for_all_classes() {
        for class in AcceleratorClass::ALL {
            // power at the floor must be positive and below p_min
            let m = PowerModel::of(class);
            assert!(m.power_floor() > 0.0, "{class}");
            assert!(m.power_floor() < m.p_min(), "{class}");
        }
    }

    #[test]
    fn idle_power_is_7p5x_below_pmin() {
        let m = PowerModel::of(AcceleratorClass::Viterbi);
        assert!((m.p_min() / m.idle_power() - 7.5).abs() < 1e-9);
        assert!(m.idle_power() > 0.0);
        assert!(m.idle_power() < m.power_floor());
    }

    #[test]
    fn power_range_spans_10x_across_classes() {
        // Section II-A: heterogeneous accelerators span up to ~10x power.
        let p: Vec<f64> = AcceleratorClass::ALL
            .iter()
            .map(|&c| PowerModel::of(c).p_max())
            .collect();
        let ratio =
            p.iter().cloned().fold(f64::MIN, f64::max) / p.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            ratio > 5.0,
            "expected a wide heterogeneous range, got {ratio}"
        );
    }

    #[test]
    fn characterization_sample_count() {
        let m = PowerModel::of(AcceleratorClass::Gemm);
        assert_eq!(m.characterization(7).len(), 7);
        let pts = m.characterization(2);
        assert_eq!(pts[0].0, m.f_min());
        assert_eq!(pts[1].0, m.f_max());
    }
}
