//! Convergence metrics (Section III-E).
//!
//! - global convergence ratio `α = Σ has_i / Σ max_i`;
//! - per-tile error `E_i = |has_i − α·max_i|`;
//! - global error `E = (1/N) Σ E_i` (the "Err" of Figs 3, 4, 6);
//! - worst-case error `max_i E_i` (Fig 7's histograms).
//!
//! Convergence is declared when `E` drops below a threshold (e.g. 1.5 for
//! Fig 3, 1.0 for Fig 6); arbitrarily small thresholds cannot be reached
//! because coins are quantized.

use crate::tile::TileState;

/// The global convergence ratio α and the tile targets it induces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceRatio {
    /// `Σ has_i / Σ max_i`; `None` when no tile is active.
    pub alpha: Option<f64>,
    /// Total coins in the system.
    pub total_has: i64,
    /// Total of the active targets.
    pub total_max: u64,
}

impl ConvergenceRatio {
    /// Computes α over a set of tiles.
    pub fn of(tiles: &[TileState]) -> Self {
        let total_has: i64 = tiles.iter().map(|t| t.has).sum();
        let total_max: u64 = tiles.iter().map(|t| t.max).sum();
        ConvergenceRatio::from_totals(total_has, total_max)
    }

    /// α from totals a caller already tracks, without a pass over the
    /// tiles; equal to [`ConvergenceRatio::of`] for tiles with these sums.
    pub fn from_totals(total_has: i64, total_max: u64) -> Self {
        ConvergenceRatio {
            alpha: if total_max == 0 {
                None
            } else {
                Some(total_has as f64 / total_max as f64)
            },
            total_has,
            total_max,
        }
    }

    /// The fair-allocation target for one tile: `α·max` (0 when inactive
    /// or when the whole system is inactive).
    pub fn target(&self, tile: &TileState) -> f64 {
        match self.alpha {
            Some(a) => a * tile.max as f64,
            None => 0.0,
        }
    }
}

/// Per-tile error `E_i = |has_i − α·max_i|`.
///
/// For inactive tiles the target is 0, so any coins they still hold count
/// as error — exactly the "relinquish on completion" dynamic the exchange
/// must drain.
pub fn per_tile_error(tile: &TileState, ratio: &ConvergenceRatio) -> f64 {
    (tile.has as f64 - ratio.target(tile)).abs()
}

/// Global error `E = (1/N) Σ E_i`.
pub fn global_error(tiles: &[TileState]) -> f64 {
    mean_error(tiles, &ConvergenceRatio::of(tiles))
}

/// `E = (1/N) Σ E_i` against a known `ratio`: [`global_error`] in one pass
/// for callers that track the ratio's totals themselves.
pub fn mean_error(tiles: &[TileState], ratio: &ConvergenceRatio) -> f64 {
    if tiles.is_empty() {
        return 0.0;
    }
    tiles.iter().map(|t| per_tile_error(t, ratio)).sum::<f64>() / tiles.len() as f64
}

/// Worst-case absolute error across all tiles (Fig 7's metric).
pub fn worst_case_error(tiles: &[TileState]) -> f64 {
    let ratio = ConvergenceRatio::of(tiles);
    tiles
        .iter()
        .map(|t| per_tile_error(t, &ratio))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::pairwise_exchange;

    #[test]
    fn alpha_definition() {
        let tiles = [TileState::new(6, 8), TileState::new(2, 8)];
        let r = ConvergenceRatio::of(&tiles);
        assert_eq!(r.alpha, Some(0.5));
        assert_eq!(r.total_has, 8);
        assert_eq!(r.total_max, 16);
        assert_eq!(r.target(&tiles[0]), 4.0);
    }

    #[test]
    fn alpha_none_when_all_inactive() {
        let tiles = [TileState::inactive(3), TileState::inactive(0)];
        let r = ConvergenceRatio::of(&tiles);
        assert_eq!(r.alpha, None);
        assert_eq!(r.target(&tiles[0]), 0.0);
    }

    #[test]
    fn errors_at_equilibrium_are_zero() {
        let tiles = [
            TileState::new(4, 8),
            TileState::new(2, 4),
            TileState::new(6, 12),
        ];
        assert!(global_error(&tiles) < 1e-12);
        assert!(worst_case_error(&tiles) < 1e-12);
    }

    #[test]
    fn inactive_tiles_holding_coins_are_error() {
        let tiles = [TileState::new(0, 8), TileState::inactive(8)];
        // alpha = 8/8 = 1.0; tile0 target 8 (has 0, E=8), tile1 target 0 (has 8, E=8)
        assert_eq!(global_error(&tiles), 8.0);
        assert_eq!(worst_case_error(&tiles), 8.0);
    }

    #[test]
    fn empty_system() {
        assert_eq!(global_error(&[]), 0.0);
    }

    #[test]
    fn exchange_never_increases_error_beyond_quantization() {
        // Section III-E: with each pairwise exchange the total error E is
        // constant or decreases, up to the 1-coin rounding the hardware
        // performs. Exhaustively check a grid of cases.
        for hi in -2i64..20 {
            for hj in 0i64..20 {
                for (mi, mj) in [(8u64, 8u64), (16, 4), (4, 0), (5, 7)] {
                    let tiles = [TileState::new(hi, mi), TileState::new(hj, mj)];
                    let before = global_error(&tiles);
                    let out = pairwise_exchange(tiles[0], tiles[1]);
                    let after = global_error(&[
                        TileState::new(out.new_i, mi),
                        TileState::new(out.new_j, mj),
                    ]);
                    assert!(
                        after <= before + 0.5,
                        "error grew: {tiles:?} -> {out:?} ({before} -> {after})"
                    );
                }
            }
        }
    }
}
