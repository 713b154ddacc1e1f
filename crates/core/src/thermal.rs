//! Thermal management hooks.
//!
//! BlitzCoin addresses thermal limits at two granularities (Sections
//! III-A/III-B):
//!
//! - **global caps** are enforced by construction — the coin pool is sized
//!   at configuration time so the SoC never exceeds its thermal budget;
//! - **local hotspots** are handled by augmenting the exchange with a hard
//!   cap: a tile *rejects incoming coins* when the total allocation to the
//!   tile and its neighbors would exceed a threshold.

use blitzcoin_noc::{TileId, Topology};

use crate::tile::TileState;

/// A local hotspot cap on the coins held by a tile plus its neighborhood.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotspotCap {
    /// Maximum coins allowed in any tile-plus-neighbors group.
    pub neighborhood_coins: i64,
}

impl HotspotCap {
    /// Creates a cap.
    pub fn new(neighborhood_coins: i64) -> Self {
        HotspotCap { neighborhood_coins }
    }

    /// Total coins currently in `tile`'s neighborhood (itself plus its
    /// topological neighbors).
    pub fn neighborhood_total(&self, topo: &Topology, tiles: &[TileState], tile: TileId) -> i64 {
        let mut total = tiles[tile.index()].has;
        for n in topo.neighbors(tile) {
            total += tiles[n.index()].has;
        }
        total
    }

    /// Whether `receiver` must reject an incoming transfer of `incoming`
    /// coins: true when the transfer would push its neighborhood total
    /// above the cap.
    ///
    /// Transfers *out* of a tile (`incoming <= 0`) are never rejected —
    /// shedding coins always cools the neighborhood.
    pub fn rejects(
        &self,
        topo: &Topology,
        tiles: &[TileState],
        receiver: TileId,
        incoming: i64,
    ) -> bool {
        if incoming <= 0 {
            return false;
        }
        self.neighborhood_total(topo, tiles, receiver) + incoming > self.neighborhood_coins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(has: &[i64]) -> (Topology, Vec<TileState>) {
        let topo = Topology::mesh(3, 3);
        let tiles = has.iter().map(|&h| TileState::new(h, 8)).collect();
        (topo, tiles)
    }

    #[test]
    fn neighborhood_total_counts_self_and_neighbors() {
        let (topo, tiles) = grid(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let cap = HotspotCap::new(100);
        // center tile 4: neighbors 1, 3, 5, 7 -> 5 + 2 + 4 + 6 + 8 = 25
        assert_eq!(cap.neighborhood_total(&topo, &tiles, TileId(4)), 25);
        // corner tile 0: neighbors 1, 3 -> 1 + 2 + 4 = 7
        assert_eq!(cap.neighborhood_total(&topo, &tiles, TileId(0)), 7);
    }

    #[test]
    fn rejects_transfers_that_overheat() {
        let (topo, tiles) = grid(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let cap = HotspotCap::new(27);
        assert!(!cap.rejects(&topo, &tiles, TileId(4), 2)); // 25+2 = 27 ok
        assert!(cap.rejects(&topo, &tiles, TileId(4), 3)); // 25+3 = 28 > 27
    }

    #[test]
    fn outgoing_transfers_never_rejected() {
        let (topo, tiles) = grid(&[50, 50, 50, 50, 50, 50, 50, 50, 50]);
        let cap = HotspotCap::new(10); // neighborhood already way over
        assert!(!cap.rejects(&topo, &tiles, TileId(4), 0));
        assert!(!cap.rejects(&topo, &tiles, TileId(4), -5));
    }
}
