//! Random pairing: deadlock elimination via non-neighbor exchanges.
//!
//! Section III-D/III-E: the error-monotone pairwise exchange can settle in
//! a *local* minimum — e.g. a tile surrounded by four inactive tiles —
//! where at least one non-neighboring pair `(a, b)` exists with
//! `β_a > α > β_b`. Intermittently forcing an exchange with a
//! *non-neighbor* breaks such minima. The paper finds a small frequency
//! (once every 16 exchanges) sufficient, and the fabricated hardware
//! implements partner selection as a shift register that eventually pairs
//! all non-neighboring tiles, bounding the time to reach the pair (a, b).

use blitzcoin_noc::TileId;
use blitzcoin_sim::SimRng;

/// Random-pairing configuration.
///
/// The pairing cadence is time-based: a tile's first exchange at or after
/// every `period` base refresh intervals is a random pairing, however far
/// dynamic-timing back-off has stretched its own interval (the hardware
/// counts in the always-on NoC domain). At the base interval that is one
/// pairing per `period` exchanges, the paper's "once every 16 exchanges".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairingMode {
    /// Never pair with non-neighbors (the Fig 7 "without random pairing"
    /// baseline).
    Disabled,
    /// Every `period` base refresh intervals, pair with a uniformly random
    /// non-neighbor.
    Uniform {
        /// Base refresh intervals between random pairings (paper
        /// default: 16).
        period: u32,
    },
    /// Every `period` base refresh intervals, take the next partner from a
    /// rotating offset (the hardware shift-register embodiment): tile `i`
    /// pairs with `(i + offset) mod N`, with `offset` advancing past
    /// neighbors and self, guaranteeing all non-neighbor pairs within `N`
    /// pairings.
    ShiftRegister {
        /// Base refresh intervals between random pairings (paper
        /// default: 16).
        period: u32,
    },
}

impl Default for PairingMode {
    fn default() -> Self {
        PairingMode::ShiftRegister { period: 16 }
    }
}

impl PairingMode {
    /// The pairing period, or `None` when disabled.
    pub fn period(&self) -> Option<u32> {
        match *self {
            PairingMode::Disabled => None,
            PairingMode::Uniform { period } | PairingMode::ShiftRegister { period } => Some(period),
        }
    }
}

/// Per-tile partner-selection state for random pairing.
#[derive(Debug, Clone)]
pub struct PairingState {
    /// Rotating offset of the shift-register variant (starts at 2 so the
    /// first candidate is not the east neighbor).
    offset: usize,
}

impl Default for PairingState {
    fn default() -> Self {
        PairingState { offset: 2 }
    }
}

impl PairingState {
    /// Creates the initial state.
    pub fn new() -> Self {
        PairingState::default()
    }

    /// Selects a non-neighbor partner for `tile` of an `n`-tile grid under
    /// `mode`, where `neighbors` is the tile's [`Topology::neighbors`]
    /// list. Returns `None` when the grid has no non-neighbor (tiny grids)
    /// or when pairing is disabled.
    ///
    /// [`Topology::neighbors`]: blitzcoin_noc::Topology::neighbors
    pub fn select_partner(
        &mut self,
        mode: PairingMode,
        tile: TileId,
        neighbors: &[TileId],
        n: usize,
        rng: &mut SimRng,
    ) -> Option<TileId> {
        let is_candidate = |t: TileId| t != tile && !neighbors.contains(&t);
        if n <= 5 {
            // Grids of up to 5 tiles have no non-neighbor distinct tile in
            // the torus case; fall back to None (no pairing possible).
            let non_neighbors: Vec<TileId> =
                (0..n).map(TileId).filter(|&t| is_candidate(t)).collect();
            return match (mode, non_neighbors.is_empty()) {
                (PairingMode::Disabled, _) | (_, true) => None,
                (_, false) => Some(*rng.choose(&non_neighbors)),
            };
        }
        match mode {
            PairingMode::Disabled => None,
            PairingMode::Uniform { .. } => {
                // Rejection-sample a non-neighbor; the neighbor set has at
                // most 4 elements so this terminates almost immediately.
                for _ in 0..64 {
                    let cand = TileId(rng.range_usize(0..n));
                    if is_candidate(cand) {
                        return Some(cand);
                    }
                }
                None
            }
            PairingMode::ShiftRegister { .. } => {
                // Advance the rotating offset past self and neighbors.
                // Both `tile` and `offset` are below `n`, so one
                // subtraction wraps the sum.
                for _ in 0..n {
                    let sum = tile.index() + self.offset;
                    let cand = TileId(if sum >= n { sum - n } else { sum });
                    self.offset = if self.offset + 1 >= n {
                        1
                    } else {
                        self.offset + 1
                    };
                    if is_candidate(cand) {
                        return Some(cand);
                    }
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blitzcoin_noc::Topology;

    /// Selects a partner for `tile` the way the emulator does: from the
    /// tile's neighbor list and the grid size.
    fn select(
        st: &mut PairingState,
        mode: PairingMode,
        topo: &Topology,
        tile: TileId,
        rng: &mut SimRng,
    ) -> Option<TileId> {
        st.select_partner(mode, tile, &topo.neighbors(tile), topo.len(), rng)
    }

    #[test]
    fn uniform_partner_is_never_self_or_neighbor() {
        let topo = Topology::torus(6, 6);
        let mut rng = SimRng::seed(11);
        let mut st = PairingState::new();
        let tile = topo.tile_by_id(7);
        for _ in 0..200 {
            let p = select(
                &mut st,
                PairingMode::Uniform { period: 16 },
                &topo,
                tile,
                &mut rng,
            )
            .unwrap();
            assert_ne!(p, tile);
            assert!(!topo.are_neighbors(tile, p));
        }
    }

    #[test]
    fn shift_register_covers_all_non_neighbors() {
        let topo = Topology::torus(5, 5);
        let mut rng = SimRng::seed(3);
        let mut st = PairingState::new();
        let tile = topo.tile_by_id(12);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..topo.len() * 2 {
            let p = select(&mut st, PairingMode::default(), &topo, tile, &mut rng).unwrap();
            assert_ne!(p, tile);
            assert!(!topo.are_neighbors(tile, p));
            seen.insert(p);
        }
        // all 25 - 1 (self) - 4 (neighbors) = 20 non-neighbors reached
        assert_eq!(seen.len(), 20, "shift register must pair all non-neighbors");
    }

    #[test]
    fn disabled_returns_none() {
        let topo = Topology::torus(4, 4);
        let mut rng = SimRng::seed(5);
        let mut st = PairingState::new();
        assert_eq!(
            select(
                &mut st,
                PairingMode::Disabled,
                &topo,
                topo.tile_by_id(0),
                &mut rng
            ),
            None
        );
    }

    #[test]
    fn tiny_grid_handles_no_candidates() {
        let topo = Topology::torus(2, 2); // every other tile is a neighbor
        let mut rng = SimRng::seed(5);
        let mut st = PairingState::new();
        let got = select(
            &mut st,
            PairingMode::Uniform { period: 16 },
            &topo,
            topo.tile_by_id(0),
            &mut rng,
        );
        // 2x2 torus: tile 0 neighbors 1 and 2; tile 3 is a non-neighbor
        assert_eq!(got, Some(TileId(3)));
        let topo1 = Topology::mesh(2, 1);
        let got1 = select(
            &mut st,
            PairingMode::Uniform { period: 16 },
            &topo1,
            topo1.tile_by_id(0),
            &mut rng,
        );
        assert_eq!(got1, None);
    }

    #[test]
    fn default_mode_is_shift_register_16() {
        assert_eq!(PairingMode::default().period(), Some(16));
    }
}
