//! Static power allocation: the silicon baseline of Fig 19.
//!
//! The fabricated-chip experiments compare BlitzCoin against "a baseline
//! where power is allocated statically": each tile is pinned to a fixed
//! share of the budget for the whole run, regardless of which tiles are
//! actually active. Idle tiles strand their share, which is exactly the
//! inefficiency BlitzCoin's 27% throughput improvement comes from.

/// Splits `budget_mw` equally across all `n` tiles (active or not),
/// returning each tile's fixed power share.
///
/// # Panics
/// Panics if `n == 0` or the budget is negative.
///
/// # Example
///
/// ```
/// use blitzcoin_baselines::static_allocation;
///
/// let shares = static_allocation(120.0, 6);
/// assert_eq!(shares, vec![20.0; 6]);
/// ```
pub fn static_allocation(budget_mw: f64, n: usize) -> Vec<f64> {
    assert!(n > 0, "need at least one tile");
    assert!(budget_mw >= 0.0, "budget must be non-negative");
    vec![budget_mw / n as f64; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_split() {
        assert_eq!(static_allocation(100.0, 4), vec![25.0; 4]);
    }

    #[test]
    fn static_shares_do_not_depend_on_activity() {
        // the defining (and wasteful) property: a static share exists even
        // for a tile that never runs
        let shares = static_allocation(60.0, 6);
        assert!((shares.iter().sum::<f64>() - 60.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_tiles_panics() {
        static_allocation(10.0, 0);
    }
}
