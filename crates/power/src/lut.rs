//! Coin-to-frequency lookup table.
//!
//! Step (2) of the BlitzCoin power-management pipeline (Section IV-A): "a
//! lookup table converts the coin count into a target frequency for the
//! tile, based on a pre-characterization of the power profile of each
//! tile". The coin counter is 6 bits, yielding 64 power levels per tile —
//! much finer than the 2-5 levels of prior designs.

use crate::model::PowerModel;

/// A per-tile lookup table mapping coin counts to frequency targets.
///
/// Entry `k` holds the highest frequency whose power fits in `k` coins
/// (at `coin_value_mw` milliwatts per coin). Coin counts at or below the
/// tile's idle threshold map to 0 MHz, meaning "clock scaled to the idle
/// floor" (the tile then draws [`PowerModel::idle_power`]).
///
/// # Example
///
/// ```
/// use blitzcoin_power::{AcceleratorClass, CoinLut, PowerModel};
///
/// let model = PowerModel::of(AcceleratorClass::Fft);
/// let lut = CoinLut::build(&model, 2.0, 64); // 2 mW per coin
/// // 25 coins = 50 mW = the FFT's P_max -> F_max
/// assert_eq!(lut.f_target(25), model.f_max());
/// // 0 coins -> idle
/// assert_eq!(lut.f_target(0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoinLut {
    entries: Vec<f64>,
    coin_value_mw: f64,
}

impl CoinLut {
    /// Builds the LUT for `model` with `levels` entries above zero
    /// (entry 0 is always the idle level). The 6-bit hardware uses
    /// `levels = 64`.
    ///
    /// # Panics
    /// Panics if `coin_value_mw <= 0` or `levels == 0`.
    pub fn build(model: &PowerModel, coin_value_mw: f64, levels: u32) -> Self {
        assert!(coin_value_mw > 0.0, "coin value must be positive");
        assert!(levels > 0, "LUT needs at least one level");
        let mut entries = Vec::with_capacity(levels as usize + 1);
        for k in 0..=levels {
            let budget = k as f64 * coin_value_mw;
            if budget < model.power_floor() {
                // Not enough coins to run even at the deepest clock-scaled
                // point (V_min, F_min/8): the tile idles.
                entries.push(0.0);
            } else {
                entries.push(model.freq_for_power(budget));
            }
        }
        CoinLut {
            entries,
            coin_value_mw,
        }
    }

    /// The frequency target (MHz) for `coins`. Counts above the table's
    /// top level clamp to the last entry; negative transient counts (the
    /// sign-bit case of Section IV-A) map to the idle level.
    pub fn f_target(&self, coins: i32) -> f64 {
        if coins <= 0 {
            return self.entries[0];
        }
        let idx = (coins as usize).min(self.entries.len() - 1);
        self.entries[idx]
    }

    /// Milliwatts represented by one coin.
    pub fn coin_value_mw(&self) -> f64 {
        self.coin_value_mw
    }

    /// Number of non-idle levels.
    pub fn levels(&self) -> u32 {
        (self.entries.len() - 1) as u32
    }

    /// All entries (index = coin count).
    pub fn entries(&self) -> &[f64] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AcceleratorClass;

    fn lut() -> (PowerModel, CoinLut) {
        let m = PowerModel::of(AcceleratorClass::Nvdla);
        let l = CoinLut::build(&m, 5.0, 64);
        (m, l)
    }

    #[test]
    fn monotone_in_coins() {
        let (_, l) = lut();
        for k in 0..64 {
            assert!(l.f_target(k + 1) >= l.f_target(k), "at {k}");
        }
    }

    #[test]
    fn idle_below_floor_and_extension_between() {
        let (m, l) = lut();
        // NVDLA power floor ~ 3.8 mW; at 5 mW/coin a single coin already
        // runs the tile (deep clock scaling at V_min)...
        assert!(l.f_target(1) > 0.0);
        assert!(l.f_target(1) < m.f_min(), "1 coin lands in the extension");
        assert_eq!(l.f_target(0), 0.0);
        // ...and 6 coins (30 mW > p_min 26 mW) run above F_min.
        assert!(l.f_target(6) >= m.f_min());
    }

    #[test]
    fn negative_transient_counts_idle() {
        let (_, l) = lut();
        assert_eq!(l.f_target(-3), 0.0);
    }

    #[test]
    fn saturates_at_pmax() {
        let (m, l) = lut();
        // NVDLA p_max = 190 mW = 38 coins at 5 mW/coin.
        assert!(l.f_target(37) < m.f_max());
        assert_eq!(l.f_target(38), m.f_max());
        assert_eq!(l.f_target(64), m.f_max());
        assert_eq!(l.f_target(1000), m.f_max());
    }

    #[test]
    fn entry_power_fits_budget() {
        let (m, l) = lut();
        for k in 0..=64 {
            let f = l.f_target(k);
            if f > 0.0 {
                assert!(
                    m.power_at(f) <= k as f64 * 5.0 + 1e-6,
                    "coin {k}: {f} MHz draws {} mW",
                    m.power_at(f)
                );
            }
        }
    }

    #[test]
    fn levels_and_value() {
        let (_, l) = lut();
        assert_eq!(l.levels(), 64);
        assert_eq!(l.coin_value_mw(), 5.0);
        assert_eq!(l.entries().len(), 65);
    }

    #[test]
    fn all_idle_table() {
        let m = PowerModel::of(AcceleratorClass::Nvdla);
        let l = CoinLut::build(&m, 0.1, 8); // 0.8 mW max: below the floor
        assert!(l.entries().iter().all(|&f| f == 0.0));
    }
}
