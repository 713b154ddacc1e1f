//! Per-tile coin state.
//!
//! The hardware coin counter is 6 bits (64 power levels) extended with a
//! sign bit (Section IV-A): because coin messages compete with other NoC
//! traffic, a request can arrive after the tile has already given its
//! coins away, transiently driving the count negative. Steady-state counts
//! are always non-negative.

/// Number of magnitude bits in the hardware coin register.
pub const COIN_BITS: u32 = 6;

/// The largest coin count the 6-bit register represents.
pub const MAX_COINS_PER_TILE: i64 = (1 << COIN_BITS) - 1;

/// A tile's coin state: current holdings and target.
///
/// # Example
///
/// ```
/// use blitzcoin_core::TileState;
///
/// let t = TileState::new(3, 8);
/// assert_eq!(t.ratio(), Some(0.375));
/// let idle = TileState::inactive(5);
/// assert_eq!(idle.ratio(), None);
/// assert!(!idle.is_active());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TileState {
    /// Coins currently held. May be transiently negative (sign bit).
    pub has: i64,
    /// Target coin count; 0 while the tile is inactive.
    pub max: u64,
}

impl TileState {
    /// Creates a tile state.
    pub fn new(has: i64, max: u64) -> Self {
        TileState { has, max }
    }

    /// Creates an inactive tile (max = 0) still holding `has` coins.
    pub fn inactive(has: i64) -> Self {
        TileState { has, max: 0 }
    }

    /// Whether the tile participates in the target allocation (`max > 0`).
    pub fn is_active(&self) -> bool {
        self.max > 0
    }

    /// The tile's `has/max` ratio, or `None` when inactive.
    pub fn ratio(&self) -> Option<f64> {
        if self.max == 0 {
            None
        } else {
            Some(self.has as f64 / self.max as f64)
        }
    }

    /// Marks the tile active with target `max` (execution begins).
    pub fn activate(&mut self, max: u64) {
        self.max = max;
    }

    /// Marks the tile inactive (execution ends); its held coins will be
    /// relinquished through subsequent exchanges.
    pub fn deactivate(&mut self) {
        self.max = 0;
    }

    /// Whether `has` fits the hardware register (sign bit + 6 magnitude
    /// bits, i.e. `-64..=63` in two's complement... the fabricated design
    /// uses a 7-bit signed register, giving `-64..=63`).
    pub fn fits_register(&self) -> bool {
        (-(1 << COIN_BITS)..=MAX_COINS_PER_TILE).contains(&self.has)
    }
}

impl std::fmt::Display for TileState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.has, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_activity() {
        let t = TileState::new(6, 8);
        assert_eq!(t.ratio(), Some(0.75));
        assert!(t.is_active());
        let idle = TileState::inactive(2);
        assert_eq!(idle.ratio(), None);
        assert!(!idle.is_active());
    }

    #[test]
    fn activate_deactivate() {
        let mut t = TileState::default();
        assert!(!t.is_active());
        t.activate(16);
        assert!(t.is_active());
        assert_eq!(t.max, 16);
        t.deactivate();
        assert!(!t.is_active());
        assert_eq!(t.max, 0);
    }

    #[test]
    fn register_bounds() {
        assert!(TileState::new(63, 1).fits_register());
        assert!(!TileState::new(64, 1).fits_register());
        assert!(TileState::new(-64, 1).fits_register());
        assert!(!TileState::new(-65, 1).fits_register());
        assert_eq!(MAX_COINS_PER_TILE, 63);
    }

    #[test]
    fn display() {
        assert_eq!(TileState::new(3, 8).to_string(), "3/8");
    }
}
