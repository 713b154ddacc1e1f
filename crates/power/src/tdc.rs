//! Counter-based time-to-digital converter.
//!
//! The UVFR loop's feedback comparator is "simple to implement as a
//! counter-based Time-to-Digital Converter rather than a complex,
//! fully-analog voltage comparator" (Section IV-A): the TDC counts ring
//! oscillator edges within a fixed measurement window clocked by the NoC
//! domain, producing a digital code proportional to the tile frequency.

/// A counter-based TDC.
///
/// # Example
///
/// ```
/// use blitzcoin_power::Tdc;
///
/// // 64 NoC cycles @ 800 MHz = 80 ns window
/// let tdc = Tdc::new(64);
/// // a 400 MHz tile clock produces 32 counts
/// assert_eq!(tdc.code_for(400.0), 32);
/// // quantization step = 1 count = 12.5 MHz
/// assert!((tdc.resolution_mhz() - 12.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tdc {
    /// Measurement window length, in NoC cycles (800 MHz).
    window_noc_cycles: u32,
}

impl Tdc {
    /// NoC frequency in MHz (fixed in the fabricated SoC).
    pub const NOC_MHZ: f64 = 800.0;

    /// Creates a TDC with a window of `window_noc_cycles` NoC cycles.
    ///
    /// # Panics
    /// Panics if the window is zero.
    pub fn new(window_noc_cycles: u32) -> Self {
        assert!(window_noc_cycles > 0, "TDC window must be positive");
        Tdc { window_noc_cycles }
    }

    /// The window length in NoC cycles.
    pub fn window(&self) -> u32 {
        self.window_noc_cycles
    }

    /// The digital code produced for tile frequency `f_mhz` (edge count in
    /// one window, truncated as a real counter would).
    pub fn code_for(&self, f_mhz: f64) -> u32 {
        assert!(f_mhz >= 0.0, "frequency must be non-negative");
        (f_mhz * self.window_noc_cycles as f64 / Self::NOC_MHZ).floor() as u32
    }

    /// The tile frequency (MHz) corresponding to a code (center of the
    /// quantization bin).
    pub fn freq_for(&self, code: u32) -> f64 {
        (code as f64 + 0.5) * Self::NOC_MHZ / self.window_noc_cycles as f64
    }

    /// Frequency quantization step (MHz per count).
    pub fn resolution_mhz(&self) -> f64 {
        Self::NOC_MHZ / self.window_noc_cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_is_proportional_to_frequency() {
        let tdc = Tdc::new(128);
        assert_eq!(tdc.code_for(800.0), 128);
        assert_eq!(tdc.code_for(400.0), 64);
        assert_eq!(tdc.code_for(0.0), 0);
    }

    #[test]
    fn truncation_matches_hardware_counter() {
        let tdc = Tdc::new(64);
        // 399 MHz * 80ns = 31.92 edges -> counter reads 31
        assert_eq!(tdc.code_for(399.0), 31);
    }

    #[test]
    fn round_trip_within_one_lsb() {
        let tdc = Tdc::new(64);
        for f in [100.0, 250.0, 333.0, 795.0] {
            let rec = tdc.freq_for(tdc.code_for(f));
            assert!(
                (rec - f).abs() <= tdc.resolution_mhz(),
                "f={f} rec={rec} res={}",
                tdc.resolution_mhz()
            );
        }
    }

    #[test]
    fn longer_window_improves_resolution() {
        assert!(Tdc::new(256).resolution_mhz() < Tdc::new(32).resolution_mhz());
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        Tdc::new(0);
    }
}
