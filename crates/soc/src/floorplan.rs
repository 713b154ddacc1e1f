//! SoC floorplans: tile kinds and the three evaluated configurations.
//!
//! The paper evaluates (Fig 12, Fig 15):
//!
//! - a **3x3-tile SoC** for a connected-autonomous-vehicle application:
//!   3 FFT tiles (depth estimation), 2 Viterbi tiles (V2V communication),
//!   1 NVDLA tile (object detection), plus CPU, memory and auxiliary/IO
//!   tiles — 6 accelerators, ΣP_max = 400 mW;
//! - a **4x4-tile SoC** for computer vision: 4 GEMM, 5 Conv2D and
//!   4 Vision accelerators plus CPU, memory, aux — 13 accelerators,
//!   ΣP_max = 1350 mW;
//! - the **6x6 fabricated prototype**: a 10-accelerator PM cluster
//!   (NVDLA + FFTs + Viterbis) with BlitzCoin, plus 4 CVA6 CPU tiles,
//!   4 memory tiles, 4 scratchpads, an IO tile and further accelerator
//!   tiles outside the PM cluster (including the FFT "No-PM" baseline).

use blitzcoin_noc::{TileId, Topology};
use blitzcoin_power::{AcceleratorClass, PowerModel};
use blitzcoin_sim::ConfigError;

/// What occupies one tile of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileKind {
    /// RISC-V CVA6 application core (runs the workload driver).
    Cpu,
    /// A loosely-coupled accelerator, power-managed by the active manager.
    Accelerator(AcceleratorClass),
    /// An accelerator outside the PM domain (e.g. the FFT No-PM baseline
    /// tile of the fabricated SoC). Runs tasks but always at F_max.
    UnmanagedAccelerator(AcceleratorClass),
    /// LLC slice + DRAM channel.
    Memory,
    /// Ethernet/UART, boot ROM, interrupt controller.
    Io,
    /// 1-MB scratchpad tile (fabricated SoC).
    Scratchpad,
    /// Unpopulated grid slot.
    Empty,
}

impl TileKind {
    /// Whether this tile participates in power management.
    pub fn is_managed(&self) -> bool {
        matches!(self, TileKind::Accelerator(_))
    }

    /// The accelerator class, for (un)managed accelerator tiles.
    pub fn accel_class(&self) -> Option<AcceleratorClass> {
        match self {
            TileKind::Accelerator(c) | TileKind::UnmanagedAccelerator(c) => Some(*c),
            _ => None,
        }
    }
}

impl blitzcoin_sim::json::ToJson for TileKind {
    /// Serializes as a compact tag string (`"Cpu"`, `"Accelerator(FFT)"`,
    /// `"Unmanaged(FFT)"`) — stable input for the result-cache key.
    fn to_json(&self) -> blitzcoin_sim::json::Json {
        let tag = match self {
            TileKind::Cpu => "Cpu".to_string(),
            TileKind::Accelerator(c) => format!("Accelerator({})", c.name()),
            TileKind::UnmanagedAccelerator(c) => format!("Unmanaged({})", c.name()),
            TileKind::Memory => "Memory".to_string(),
            TileKind::Io => "Io".to_string(),
            TileKind::Scratchpad => "Scratchpad".to_string(),
            TileKind::Empty => "Empty".to_string(),
        };
        blitzcoin_sim::json::Json::Str(tag)
    }
}

/// A full SoC configuration: grid topology plus per-tile contents.
#[derive(Debug, Clone, PartialEq)]
pub struct SocConfig {
    /// Human-readable name ("3x3-AV", "4x4-CV", "6x6-proto").
    pub name: String,
    /// The NoC grid.
    pub topology: Topology,
    /// Tile contents, index-aligned with tile ids.
    pub tiles: Vec<TileKind>,
}

impl blitzcoin_sim::json::ToJson for SocConfig {
    fn to_json(&self) -> blitzcoin_sim::json::Json {
        blitzcoin_sim::json::Json::Obj(vec![
            (
                "name".to_string(),
                blitzcoin_sim::json::ToJson::to_json(&self.name),
            ),
            (
                "topology".to_string(),
                blitzcoin_sim::json::ToJson::to_json(&self.topology),
            ),
            (
                "tiles".to_string(),
                blitzcoin_sim::json::ToJson::to_json(&self.tiles),
            ),
        ])
    }
}

impl SocConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    /// Panics if the tile list does not match the grid size or if the SoC
    /// has no CPU or no managed accelerator.
    pub fn new(name: impl Into<String>, topology: Topology, tiles: Vec<TileKind>) -> Self {
        Self::try_new(name, topology, tiles).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`SocConfig::new`]: returns the structural problem as a
    /// [`ConfigError`] instead of panicking.
    pub fn try_new(
        name: impl Into<String>,
        topology: Topology,
        tiles: Vec<TileKind>,
    ) -> Result<Self, ConfigError> {
        if tiles.len() != topology.len() {
            return Err(ConfigError::Invalid {
                what: "floorplan",
                detail: format!(
                    "{} tile kinds for a {}-slot grid (one per slot required)",
                    tiles.len(),
                    topology.len()
                ),
            });
        }
        if !tiles.iter().any(|t| matches!(t, TileKind::Cpu)) {
            return Err(ConfigError::Invalid {
                what: "floorplan",
                detail: "an SoC needs a CPU tile to drive workloads".to_string(),
            });
        }
        if !tiles.iter().any(|t| t.is_managed()) {
            return Err(ConfigError::Invalid {
                what: "floorplan",
                detail: "an SoC needs at least one managed accelerator".to_string(),
            });
        }
        Ok(SocConfig {
            name: name.into(),
            topology,
            tiles,
        })
    }

    /// Ids of all managed accelerator tiles, in tile order.
    pub fn managed_tiles(&self) -> Vec<TileId> {
        self.topology
            .tiles()
            .filter(|t| self.tiles[t.index()].is_managed())
            .collect()
    }

    /// Ids of all tiles that can run tasks (managed + unmanaged accs).
    pub fn accelerator_tiles(&self) -> Vec<TileId> {
        self.topology
            .tiles()
            .filter(|t| self.tiles[t.index()].accel_class().is_some())
            .collect()
    }

    /// The first CPU tile (the workload driver).
    pub fn cpu_tile(&self) -> TileId {
        self.topology
            .tiles()
            .find(|t| matches!(self.tiles[t.index()], TileKind::Cpu))
            .expect("validated at construction")
    }

    /// The tile hosting the centralized controller for BC-C / C-RR (the
    /// CPU tile, where the controller daemon/unit lives).
    pub fn controller_tile(&self) -> TileId {
        self.cpu_tile()
    }

    /// Power model of the accelerator on `tile`, if any.
    pub fn power_model(&self, tile: TileId) -> Option<PowerModel> {
        self.tiles[tile.index()].accel_class().map(PowerModel::of)
    }

    /// Combined P_max of all managed accelerators (the reference for the
    /// paper's percent-of-maximum budgets).
    pub fn total_p_max(&self) -> f64 {
        self.managed_tiles()
            .iter()
            .map(|&t| {
                self.power_model(t)
                    .expect("managed tiles have models")
                    .p_max()
            })
            .sum()
    }

    /// Number of managed accelerator tiles.
    pub fn n_managed(&self) -> usize {
        self.managed_tiles().len()
    }
}

/// The 3x3 connected-autonomous-vehicle SoC (Fig 12 left).
///
/// Layout (row-major): FFT, Viterbi, FFT / CPU, NVDLA, Memory /
/// FFT, Viterbi, IO — accelerators and infrastructure interleaved as in
/// the figure.
pub fn soc_3x3() -> SocConfig {
    use AcceleratorClass::*;
    SocConfig::new(
        "3x3-AV",
        Topology::mesh(3, 3),
        vec![
            TileKind::Accelerator(Fft),
            TileKind::Accelerator(Viterbi),
            TileKind::Accelerator(Fft),
            TileKind::Cpu,
            TileKind::Accelerator(Nvdla),
            TileKind::Memory,
            TileKind::Accelerator(Fft),
            TileKind::Accelerator(Viterbi),
            TileKind::Io,
        ],
    )
}

/// The 4x4 computer-vision SoC (Fig 12 right): 4 GEMM, 5 Conv2D,
/// 4 Vision, plus CPU / Memory / IO.
pub fn soc_4x4() -> SocConfig {
    use AcceleratorClass::*;
    SocConfig::new(
        "4x4-CV",
        Topology::mesh(4, 4),
        vec![
            TileKind::Accelerator(Gemm),
            TileKind::Accelerator(Conv2d),
            TileKind::Accelerator(Vision),
            TileKind::Accelerator(Gemm),
            TileKind::Accelerator(Conv2d),
            TileKind::Cpu,
            TileKind::Accelerator(Conv2d),
            TileKind::Accelerator(Vision),
            TileKind::Accelerator(Vision),
            TileKind::Accelerator(Conv2d),
            TileKind::Memory,
            TileKind::Accelerator(Gemm),
            TileKind::Accelerator(Gemm),
            TileKind::Accelerator(Conv2d),
            TileKind::Accelerator(Vision),
            TileKind::Io,
        ],
    )
}

/// The 6x6 fabricated-prototype floorplan (Fig 15): a 10-tile PM cluster
/// with BlitzCoin (1 NVDLA, 3 FFT, 4 Viterbi, 2 further FFT-class
/// accelerators), 4 CVA6 CPUs, 4 memory tiles, 4 scratchpads, 1 IO tile,
/// an unmanaged FFT ("FFT No-PM") baseline tile and further unmanaged
/// accelerators.
pub fn soc_6x6() -> SocConfig {
    use AcceleratorClass::*;
    use TileKind::*;
    // rows 0-1 and the left of row 2 hold the PM cluster (spatially
    // contiguous, as on the die photo).
    SocConfig::new(
        "6x6-proto",
        Topology::mesh(6, 6),
        vec![
            // row 0
            Accelerator(Nvdla),
            Accelerator(Fft),
            Accelerator(Viterbi),
            Accelerator(Viterbi),
            Cpu,
            Memory,
            // row 1
            Accelerator(Fft),
            Accelerator(Fft),
            Accelerator(Viterbi),
            Accelerator(Viterbi),
            Cpu,
            Memory,
            // row 2
            Accelerator(Fft),
            Accelerator(Fft),
            UnmanagedAccelerator(Fft), // the FFT No-PM baseline tile
            Scratchpad,
            Cpu,
            Memory,
            // row 3
            UnmanagedAccelerator(Gemm),
            UnmanagedAccelerator(Conv2d),
            UnmanagedAccelerator(Vision),
            Scratchpad,
            Cpu,
            Memory,
            // row 4
            UnmanagedAccelerator(Gemm),
            UnmanagedAccelerator(Conv2d),
            UnmanagedAccelerator(Vision),
            Scratchpad,
            Io,
            Empty,
            // row 5
            UnmanagedAccelerator(Gemm),
            UnmanagedAccelerator(Conv2d),
            Scratchpad,
            Empty,
            Empty,
            Empty,
        ],
    )
}

/// A synthetic `d` x `d` SoC for scaling studies: one CPU, memory and IO
/// tile, every remaining slot a managed accelerator cycling through the
/// six characterized classes. Used to validate response-time scaling
/// directly in the full-SoC engine (beyond the paper's 13-tile designs).
///
/// # Panics
/// Panics if `d < 2` (no room for infrastructure plus an accelerator).
pub fn synthetic(d: usize) -> SocConfig {
    use AcceleratorClass::*;
    assert!(d >= 2, "synthetic SoC needs at least a 2x2 grid");
    let classes = [Fft, Viterbi, Nvdla, Gemm, Conv2d, Vision];
    let n = d * d;
    let tiles: Vec<TileKind> = (0..n)
        .map(|i| match i {
            0 => TileKind::Cpu,
            1 => TileKind::Memory,
            2 if n > 4 => TileKind::Io,
            _ => TileKind::Accelerator(classes[i % classes.len()]),
        })
        .collect();
    SocConfig::new(format!("synthetic-{d}x{d}"), Topology::mesh(d, d), tiles)
}

/// Largest side of a leaf PM-cluster region in a mega-mesh: regions are
/// quadrisected until no side exceeds this, so a 16x16 federates four
/// 8x8 clusters and a 32x32 recurses to sixteen — exchange domains and
/// TokenSmart rings stay bounded no matter how large the die grows.
pub const MEGA_LEAF_SIDE: usize = 8;

/// A mega-mesh floorplan plus its hierarchical PM-cluster partition
/// (cluster members are managed-tile indices, region-major order, ready
/// for `Simulation::with_clusters`).
#[derive(Debug, Clone)]
pub struct MegaMesh {
    /// The floorplan itself.
    pub soc: SocConfig,
    /// One cluster of managed tile indices per quadtree leaf region.
    pub clusters: Vec<Vec<usize>>,
}

/// Builds a parametric `d` x `d` mega-mesh for scaling studies: a
/// quadtree of PM-cluster regions (one federation per quadrant,
/// recursing while a side exceeds [`MEGA_LEAF_SIDE`]), each leaf region
/// anchored by one infrastructure tile at its corner — the CPU in the
/// origin region, memory and IO alternating elsewhere — and every other
/// slot a managed accelerator cycling the six characterized classes.
///
/// All sizing goes through [`Topology::try_mesh`], so degenerate or
/// over-large grids come back as a typed [`ConfigError`] instead of a
/// panic or a silently overflowed allocation.
pub fn try_mega_mesh(d: usize) -> Result<MegaMesh, ConfigError> {
    use AcceleratorClass::*;
    if d < 4 {
        return Err(ConfigError::Invalid {
            what: "mega-mesh",
            detail: format!("needs at least a 4x4 grid, got {d}x{d}"),
        });
    }
    let topo = Topology::try_mesh(d, d)?;
    let regions = mega_regions(d);

    // Region index owning each tile, so corner/member assignment below is
    // a single pass over tiles.
    let mut region_of = vec![0usize; topo.len()];
    for (ri, &(x0, y0, w, h)) in regions.iter().enumerate() {
        for y in y0..y0 + h {
            for x in x0..x0 + w {
                region_of[topo.tile(x, y).index()] = ri;
            }
        }
    }

    let classes = [Fft, Viterbi, Nvdla, Gemm, Conv2d, Vision];
    let mut tiles = vec![TileKind::Empty; topo.len()];
    for (i, kind) in tiles.iter_mut().enumerate() {
        let ri = region_of[i];
        let (x0, y0, _, _) = regions[ri];
        let corner = topo.tile(x0, y0).index();
        *kind = if i == corner {
            match ri {
                0 => TileKind::Cpu,
                r if r % 2 == 1 => TileKind::Memory,
                _ => TileKind::Io,
            }
        } else {
            TileKind::Accelerator(classes[i % classes.len()])
        };
    }
    // A single-region mesh (d <= MEGA_LEAF_SIDE) has only the CPU corner;
    // give it the memory and IO tiles every multi-region mesh has.
    if regions.len() == 1 {
        tiles[topo.tile(1, 0).index()] = TileKind::Memory;
        tiles[topo.tile(2, 0).index()] = TileKind::Io;
    }

    let soc = SocConfig::try_new(format!("mega-{d}x{d}"), topo, tiles.clone())?;
    let mut clusters = vec![Vec::new(); regions.len()];
    for (i, kind) in tiles.iter().enumerate() {
        if kind.is_managed() {
            clusters[region_of[i]].push(i);
        }
    }
    Ok(MegaMesh { soc, clusters })
}

/// Panicking [`try_mega_mesh`], for internal call sites where a bad
/// dimension is a programming bug.
pub fn mega_mesh(d: usize) -> MegaMesh {
    try_mega_mesh(d).unwrap_or_else(|e| panic!("{e}"))
}

/// The quadtree leaf regions `(x0, y0, w, h)` of a `d` x `d` grid in
/// region-major (row-major quadrant, depth-first) order: quadrisect
/// while a side exceeds [`MEGA_LEAF_SIDE`]. Power-of-two grids yield
/// exactly 1 or 4^k regions; ragged dimensions split ceil/floor.
fn mega_regions(d: usize) -> Vec<(usize, usize, usize, usize)> {
    fn split(
        x0: usize,
        y0: usize,
        w: usize,
        h: usize,
        out: &mut Vec<(usize, usize, usize, usize)>,
    ) {
        if w.max(h) <= MEGA_LEAF_SIDE {
            out.push((x0, y0, w, h));
            return;
        }
        let (wl, hl) = (w.div_ceil(2), h.div_ceil(2));
        for (qx, qy, qw, qh) in [
            (x0, y0, wl, hl),
            (x0 + wl, y0, w - wl, hl),
            (x0, y0 + hl, wl, h - hl),
            (x0 + wl, y0 + hl, w - wl, h - hl),
        ] {
            if qw > 0 && qh > 0 {
                split(qx, qy, qw, qh, out);
            }
        }
    }
    let mut out = Vec::new();
    split(0, 0, d, d, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soc_3x3_matches_paper_inventory() {
        let soc = soc_3x3();
        let counts = count_accels(&soc);
        assert_eq!(counts(AcceleratorClass::Fft), 3);
        assert_eq!(counts(AcceleratorClass::Viterbi), 2);
        assert_eq!(counts(AcceleratorClass::Nvdla), 1);
        assert_eq!(soc.n_managed(), 6);
        assert!((soc.total_p_max() - 400.0).abs() < 1e-6);
    }

    #[test]
    fn soc_4x4_matches_paper_inventory() {
        let soc = soc_4x4();
        let counts = count_accels(&soc);
        assert_eq!(counts(AcceleratorClass::Gemm), 4);
        assert_eq!(counts(AcceleratorClass::Conv2d), 5);
        assert_eq!(counts(AcceleratorClass::Vision), 4);
        assert_eq!(soc.n_managed(), 13);
        assert!((soc.total_p_max() - 1350.0).abs() < 1e-6);
    }

    #[test]
    fn soc_6x6_has_pm_cluster_of_10() {
        let soc = soc_6x6();
        assert_eq!(soc.n_managed(), 10);
        // includes the No-PM FFT baseline as an unmanaged accelerator
        let unmanaged = soc
            .tiles
            .iter()
            .filter(|t| matches!(t, TileKind::UnmanagedAccelerator(_)))
            .count();
        assert!(unmanaged >= 1);
        assert_eq!(soc.topology.len(), 36);
    }

    #[test]
    fn tile_queries() {
        let soc = soc_3x3();
        assert_eq!(soc.cpu_tile().index(), 3);
        assert_eq!(soc.controller_tile(), soc.cpu_tile());
        assert_eq!(soc.managed_tiles().len(), 6);
        assert!(soc.power_model(TileId(4)).is_some()); // NVDLA
        assert!(soc.power_model(TileId(3)).is_none()); // CPU
    }

    #[test]
    fn managed_flag() {
        assert!(TileKind::Accelerator(AcceleratorClass::Fft).is_managed());
        assert!(!TileKind::UnmanagedAccelerator(AcceleratorClass::Fft).is_managed());
        assert!(!TileKind::Cpu.is_managed());
        assert_eq!(
            TileKind::UnmanagedAccelerator(AcceleratorClass::Fft).accel_class(),
            Some(AcceleratorClass::Fft)
        );
    }

    #[test]
    fn synthetic_floorplans_scale() {
        for d in [2usize, 4, 8] {
            let soc = synthetic(d);
            assert_eq!(soc.topology.len(), d * d);
            assert!(soc.n_managed() >= d * d - 3);
            assert!(soc.total_p_max() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "CPU tile")]
    fn soc_without_cpu_rejected() {
        SocConfig::new(
            "bad",
            Topology::mesh(1, 2),
            vec![
                TileKind::Accelerator(AcceleratorClass::Fft),
                TileKind::Memory,
            ],
        );
    }

    #[test]
    fn mega_mesh_quadtree_region_counts() {
        // <= one leaf side: a single flat region; 16x16: one cluster per
        // quadrant; 32x32: the quadrants recurse once more.
        for (d, regions) in [(8usize, 1usize), (16, 4), (32, 16)] {
            let mm = try_mega_mesh(d).unwrap();
            assert_eq!(mm.clusters.len(), regions, "d={d}");
            assert_eq!(mm.soc.topology.len(), d * d);
        }
    }

    #[test]
    fn mega_mesh_clusters_partition_managed_tiles() {
        for d in [8usize, 16, 32] {
            let mm = try_mega_mesh(d).unwrap();
            let mut seen: Vec<usize> = mm.clusters.iter().flatten().copied().collect();
            seen.sort_unstable();
            let mut managed: Vec<usize> =
                mm.soc.managed_tiles().iter().map(|t| t.index()).collect();
            managed.sort_unstable();
            assert_eq!(seen, managed, "d={d}: clusters must exactly partition");
            assert!(mm.clusters.iter().all(|c| !c.is_empty()), "d={d}");
        }
    }

    #[test]
    fn mega_mesh_rejects_tiny_and_huge_sides() {
        assert!(matches!(try_mega_mesh(3), Err(ConfigError::Invalid { .. })));
        assert!(matches!(
            try_mega_mesh(usize::MAX),
            Err(ConfigError::GridTooLarge { .. })
        ));
    }

    fn count_accels(soc: &SocConfig) -> impl Fn(AcceleratorClass) -> usize + '_ {
        move |class| {
            soc.tiles
                .iter()
                .filter(|t| matches!(t, TileKind::Accelerator(c) if *c == class))
                .count()
        }
    }
}
