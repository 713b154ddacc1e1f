//! Grid topology: coordinates, tile identifiers, neighbor maps.
//!
//! BlitzCoin's design focuses on 2-D mesh NoC architectures (Section IV).
//! The coin exchange pairs each tile with its north/south/east/west
//! neighbors; the *wrap-around* optimization (Section III-D, Fig 5) extends
//! the neighbor definition to the opposite edge so corner and edge tiles
//! keep four partners. Both variants are provided here.

use blitzcoin_sim::ConfigError;
use std::fmt;

/// Identifier of a tile within a topology: `id = y * width + x`, matching
/// the row-major numbering of Fig 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TileId(pub usize);

impl TileId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl From<usize> for TileId {
    fn from(v: usize) -> Self {
        TileId(v)
    }
}

impl blitzcoin_sim::json::ToJson for TileId {
    fn to_json(&self) -> blitzcoin_sim::json::Json {
        blitzcoin_sim::json::ToJson::to_json(&self.0)
    }
}

impl blitzcoin_sim::json::FromJson for TileId {
    fn from_json(v: &blitzcoin_sim::json::Json) -> Result<Self, blitzcoin_sim::json::JsonError> {
        Ok(TileId(<usize as blitzcoin_sim::json::FromJson>::from_json(
            v,
        )?))
    }
}

/// A grid coordinate (column `x`, row `y`), origin at the north-west corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column, `0..width`.
    pub x: usize,
    /// Row, `0..height`.
    pub y: usize,
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// The four mesh directions used by the coin exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Towards row 0.
    North,
    /// Towards row `height-1`.
    South,
    /// Towards column `width-1`.
    East,
    /// Towards column 0.
    West,
}

impl Direction {
    /// All four directions in the round-robin order used by the exchange
    /// scheduler (N, E, S, W).
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// The opposite direction.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }
}

/// A rectangular grid of tiles, with or without wrap-around (torus) edges.
///
/// # Example
///
/// ```
/// use blitzcoin_noc::{Direction, Topology};
///
/// // Fig 5 (left): on a wrap-around 3x3 grid, corner tile 0's neighbors
/// // are 1, 2, 3 and 6.
/// let t = Topology::torus(3, 3);
/// let mut n: Vec<usize> = t.neighbors(t.tile_by_id(0)).iter().map(|t| t.index()).collect();
/// n.sort_unstable();
/// assert_eq!(n, [1, 2, 3, 6]);
///
/// // Without wrap-around the same corner tile has only 2 neighbors.
/// let m = Topology::mesh(3, 3);
/// assert_eq!(m.neighbors(m.tile_by_id(0)).len(), 2);
/// assert_eq!(m.neighbor(m.tile_by_id(0), Direction::North), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    width: usize,
    height: usize,
    wraparound: bool,
}

impl blitzcoin_sim::json::ToJson for Topology {
    fn to_json(&self) -> blitzcoin_sim::json::Json {
        blitzcoin_sim::json::Json::Obj(vec![
            (
                "width".to_string(),
                blitzcoin_sim::json::ToJson::to_json(&self.width),
            ),
            (
                "height".to_string(),
                blitzcoin_sim::json::ToJson::to_json(&self.height),
            ),
            (
                "wraparound".to_string(),
                blitzcoin_sim::json::ToJson::to_json(&self.wraparound),
            ),
        ])
    }
}

impl Topology {
    /// Creates a plain mesh (no wrap-around).
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn mesh(width: usize, height: usize) -> Self {
        Self::try_mesh(width, height).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Topology::mesh`]: returns an error instead of panicking
    /// on zero or over-large dimensions.
    pub fn try_mesh(width: usize, height: usize) -> Result<Self, ConfigError> {
        Self::check_dims(width, height)?;
        Ok(Topology {
            width,
            height,
            wraparound: false,
        })
    }

    /// Creates a torus (mesh with wrap-around neighbor links, Fig 5 left).
    ///
    /// Note: wrap-around affects *neighbor pairing* for the coin exchange;
    /// packet routing distance still uses the physical mesh unless the two
    /// tiles are adjacent through the wrap link, which the ESP integration
    /// realizes as ordinary (multi-hop) plane-5 messages. We model the
    /// conservative choice: routing distance is always physical-mesh XY.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn torus(width: usize, height: usize) -> Self {
        Self::try_torus(width, height).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Topology::torus`]: returns an error instead of panicking
    /// on zero or over-large dimensions.
    pub fn try_torus(width: usize, height: usize) -> Result<Self, ConfigError> {
        Self::check_dims(width, height)?;
        Ok(Topology {
            width,
            height,
            wraparound: true,
        })
    }

    /// Validates grid dimensions with overflow-checked sizing: the tile
    /// count `width * height` must not wrap, and must leave headroom for
    /// every dense per-tile structure sized from it (the largest constant
    /// fan-out in the tree is the analytic NoC's `tiles * 4 dirs * 6
    /// planes` link table; 64x covers it with margin). Anything larger
    /// would silently overflow an allocation size somewhere downstream,
    /// so it is rejected here, at the only place grids are made.
    fn check_dims(width: usize, height: usize) -> Result<(), ConfigError> {
        if width == 0 || height == 0 {
            return Err(ConfigError::ZeroDimension { width, height });
        }
        let fits = width
            .checked_mul(height)
            .and_then(|n| n.checked_mul(64))
            .is_some();
        if !fits {
            return Err(ConfigError::GridTooLarge { width, height });
        }
        Ok(())
    }

    /// Creates a square topology of dimension `d`; wrap-around per flag.
    pub fn square(d: usize, wraparound: bool) -> Self {
        if wraparound {
            Topology::torus(d, d)
        } else {
            Topology::mesh(d, d)
        }
    }

    /// Grid width (columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height (rows).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of tiles.
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// Whether the grid is empty (never true; dimensions are positive).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The tile at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of range.
    pub fn tile(&self, x: usize, y: usize) -> TileId {
        assert!(x < self.width && y < self.height, "coordinate out of range");
        TileId(y * self.width + x)
    }

    /// The tile with raw index `id`.
    ///
    /// # Panics
    /// Panics if `id >= len()`.
    pub fn tile_by_id(&self, id: usize) -> TileId {
        assert!(id < self.len(), "tile id out of range");
        TileId(id)
    }

    /// The coordinate of a tile.
    pub fn coord(&self, tile: TileId) -> Coord {
        Coord {
            x: tile.0 % self.width,
            y: tile.0 / self.width,
        }
    }

    /// Iterates over all tiles in row-major order.
    pub fn tiles(&self) -> impl Iterator<Item = TileId> + '_ {
        (0..self.len()).map(TileId)
    }

    /// The neighbor of `tile` in `dir`, or `None` at a non-wrapping edge.
    ///
    /// On a 1-wide (or 1-tall) torus the wrap neighbor would be the tile
    /// itself; `None` is returned instead since self-exchanges are
    /// meaningless.
    pub fn neighbor(&self, tile: TileId, dir: Direction) -> Option<TileId> {
        let c = self.coord(tile);
        let (nx, ny) = match dir {
            Direction::North => {
                if c.y > 0 {
                    (c.x, c.y - 1)
                } else if self.wraparound && self.height > 1 {
                    (c.x, self.height - 1)
                } else {
                    return None;
                }
            }
            Direction::South => {
                if c.y + 1 < self.height {
                    (c.x, c.y + 1)
                } else if self.wraparound && self.height > 1 {
                    (c.x, 0)
                } else {
                    return None;
                }
            }
            Direction::East => {
                if c.x + 1 < self.width {
                    (c.x + 1, c.y)
                } else if self.wraparound && self.width > 1 {
                    (0, c.y)
                } else {
                    return None;
                }
            }
            Direction::West => {
                if c.x > 0 {
                    (c.x - 1, c.y)
                } else if self.wraparound && self.width > 1 {
                    (self.width - 1, c.y)
                } else {
                    return None;
                }
            }
        };
        Some(self.tile(nx, ny))
    }

    /// All existing neighbors of `tile` in N, E, S, W order, deduplicated
    /// (a 2-wide torus would otherwise list the same tile twice).
    pub fn neighbors(&self, tile: TileId) -> Vec<TileId> {
        let mut out = Vec::with_capacity(4);
        for dir in Direction::ALL {
            if let Some(n) = self.neighbor(tile, dir) {
                if n != tile && !out.contains(&n) {
                    out.push(n);
                }
            }
        }
        out
    }

    /// Whether two tiles are neighbors (under this topology's pairing).
    /// Probes the four directions in place rather than building the
    /// [`Topology::neighbors`] list.
    pub fn are_neighbors(&self, a: TileId, b: TileId) -> bool {
        a != b
            && Direction::ALL
                .iter()
                .any(|&dir| self.neighbor(a, dir) == Some(b))
    }

    /// XY (Manhattan) hop distance on the physical mesh, ignoring wrap
    /// links (see [`Topology::torus`] for why).
    pub fn hop_distance(&self, a: TileId, b: TileId) -> usize {
        let ca = self.coord(a);
        let cb = self.coord(b);
        ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y)
    }

    /// The XY route from `a` to `b`: X first, then Y, as dimension-ordered
    /// routing does. Returns the sequence of tiles visited, excluding `a`,
    /// including `b`. Empty when `a == b`.
    pub fn xy_route(&self, a: TileId, b: TileId) -> Vec<TileId> {
        let (ca, cb) = (self.coord(a), self.coord(b));
        let mut route = Vec::with_capacity(self.hop_distance(a, b));
        let (mut x, mut y) = (ca.x, ca.y);
        while x != cb.x {
            x = if cb.x > x { x + 1 } else { x - 1 };
            route.push(self.tile(x, y));
        }
        while y != cb.y {
            y = if cb.y > y { y + 1 } else { y - 1 };
            route.push(self.tile(x, y));
        }
        route
    }

    /// The mesh diameter (max hop distance between any two tiles).
    pub fn diameter(&self) -> usize {
        (self.width - 1) + (self.height - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_coord_round_trip() {
        let t = Topology::mesh(4, 3);
        for id in 0..t.len() {
            let tile = t.tile_by_id(id);
            let c = t.coord(tile);
            assert_eq!(t.tile(c.x, c.y), tile);
        }
        assert_eq!(t.len(), 12);
    }

    #[test]
    fn mesh_interior_neighbors() {
        let t = Topology::mesh(3, 3);
        let center = t.tile(1, 1); // tile 4
        let mut n: Vec<usize> = t.neighbors(center).iter().map(|x| x.index()).collect();
        n.sort_unstable();
        assert_eq!(n, [1, 3, 5, 7]);
    }

    #[test]
    fn mesh_corner_and_edge_neighbors() {
        let t = Topology::mesh(3, 3);
        assert_eq!(t.neighbors(t.tile(0, 0)).len(), 2);
        assert_eq!(t.neighbors(t.tile(1, 0)).len(), 3);
        assert_eq!(t.neighbor(t.tile(0, 0), Direction::West), None);
        assert_eq!(t.neighbor(t.tile(2, 2), Direction::South), None);
    }

    #[test]
    fn torus_fig5_example() {
        // Fig 5 (left): tile 0 of a wrap-around 3x3 grid neighbors 1,2,3,6.
        let t = Topology::torus(3, 3);
        let mut n: Vec<usize> = t
            .neighbors(t.tile_by_id(0))
            .iter()
            .map(|x| x.index())
            .collect();
        n.sort_unstable();
        assert_eq!(n, [1, 2, 3, 6]);
        // every tile of a torus has exactly 4 neighbors when d >= 3
        for tile in t.tiles() {
            assert_eq!(t.neighbors(tile).len(), 4, "tile {tile}");
        }
    }

    #[test]
    fn torus_degenerate_dims_no_self_pairing() {
        let t = Topology::torus(1, 4);
        for tile in t.tiles() {
            assert!(!t.neighbors(tile).contains(&tile));
        }
        let t2 = Topology::torus(2, 2);
        for tile in t2.tiles() {
            // each tile has 2 distinct neighbors (wrap duplicates removed)
            assert_eq!(t2.neighbors(tile).len(), 2);
        }
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        for topo in [Topology::mesh(5, 4), Topology::torus(5, 4)] {
            for a in topo.tiles() {
                for b in topo.neighbors(a) {
                    assert!(topo.are_neighbors(b, a), "{a} <-> {b}");
                }
            }
        }
    }

    #[test]
    fn are_neighbors_matches_the_neighbor_list_exhaustively() {
        for w in 1..=5 {
            for h in 1..=5 {
                for topo in [Topology::mesh(w, h), Topology::torus(w, h)] {
                    for a in topo.tiles() {
                        let list = topo.neighbors(a);
                        for b in topo.tiles() {
                            assert_eq!(
                                topo.are_neighbors(a, b),
                                list.contains(&b),
                                "{topo:?} {a} {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn direction_opposites() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
        let t = Topology::mesh(4, 4);
        let a = t.tile(1, 1);
        for d in Direction::ALL {
            let b = t.neighbor(a, d).unwrap();
            assert_eq!(t.neighbor(b, d.opposite()), Some(a));
        }
    }

    #[test]
    fn hop_distance_and_route() {
        let t = Topology::mesh(4, 4);
        let a = t.tile(0, 0);
        let b = t.tile(3, 2);
        assert_eq!(t.hop_distance(a, b), 5);
        let route = t.xy_route(a, b);
        assert_eq!(route.len(), 5);
        assert_eq!(*route.last().unwrap(), b);
        // X-first: first three hops move along row 0
        assert_eq!(route[0], t.tile(1, 0));
        assert_eq!(route[1], t.tile(2, 0));
        assert_eq!(route[2], t.tile(3, 0));
        assert_eq!(route[3], t.tile(3, 1));
        assert_eq!(t.xy_route(a, a), Vec::<TileId>::new());
    }

    #[test]
    fn xy_route_walks_x_then_y_everywhere() {
        for topo in [
            Topology::mesh(5, 3),
            Topology::mesh(1, 6),
            Topology::mesh(7, 1),
        ] {
            for a in topo.tiles() {
                for b in topo.tiles() {
                    let route = topo.xy_route(a, b);
                    assert_eq!(route.len(), topo.hop_distance(a, b), "{a} -> {b}");
                    let mut at = a;
                    let mut turned = false;
                    for &next in &route {
                        assert!(topo.are_neighbors(at, next), "{a} -> {b}: {at} to {next}");
                        let vertical = topo.coord(next).x == topo.coord(at).x;
                        assert!(vertical || !turned, "{a} -> {b}: X hop after a Y hop");
                        turned |= vertical;
                        at = next;
                    }
                    assert_eq!(at, b);
                }
            }
        }
    }

    #[test]
    fn diameter() {
        assert_eq!(Topology::mesh(4, 4).diameter(), 6);
        assert_eq!(Topology::mesh(1, 1).diameter(), 0);
        assert_eq!(Topology::mesh(20, 20).diameter(), 38);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tile_out_of_range_panics() {
        Topology::mesh(2, 2).tile(2, 0);
    }

    #[test]
    fn try_mesh_checks_dimensions() {
        assert!(matches!(
            Topology::try_mesh(0, 5),
            Err(ConfigError::ZeroDimension { .. })
        ));
        assert!(matches!(
            Topology::try_torus(5, 0),
            Err(ConfigError::ZeroDimension { .. })
        ));
        // width * height itself overflows usize...
        assert!(matches!(
            Topology::try_mesh(usize::MAX, 2),
            Err(ConfigError::GridTooLarge { .. })
        ));
        // ...and so does a product that fits but leaves no headroom for
        // the dense per-tile structures sized from it (x64).
        assert!(matches!(
            Topology::try_mesh(1 << 60, 1 << 3),
            Err(ConfigError::GridTooLarge { .. })
        ));
        // Mega-mesh sides stay fine.
        assert_eq!(Topology::try_mesh(32, 32).unwrap().len(), 1024);
    }
}
