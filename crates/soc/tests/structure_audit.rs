//! Dense-structure audit: every per-tile structure in the engine tree,
//! the analytic NoC and the wormhole NoC must grow O(tiles), never
//! O(tiles²). The PR-8 mega-meshes made the old quadratic wormhole
//! `route_tbl` untenable (1 MB at 32x32, 256 MB at 128x128); this test
//! pins the fix by measuring every named structure at 8x8 and 16x16 —
//! a 4x tile-count step — and rejecting anything that grows more than
//! 6x (a quadratic structure grows 16x).

use std::collections::BTreeMap;

use blitzcoin_noc::wormhole::{WormholeConfig, WormholeNetwork};
use blitzcoin_noc::Network;
use blitzcoin_soc::prelude::*;

/// Structure lengths of everything a `d`x`d` mega-mesh instantiates:
/// the engine tree (which embeds the analytic [`Network`]) plus a
/// standalone wormhole NoC on the same topology.
fn lens_at(d: usize) -> BTreeMap<&'static str, usize> {
    let mm = floorplan::mega_mesh(d);
    let wl = workload::parallel_all(&mm.soc, 1);
    let cfg = SimConfig::for_large_soc(
        ManagerKind::BlitzCoin,
        mm.soc.total_p_max() * 0.3,
        mm.soc.n_managed(),
    );
    let topo = mm.soc.topology;
    // with tile traces, so the audit covers the per-tile trace vectors too
    let sim = Simulation::new(mm.soc, wl, cfg).with_tile_traces();
    let mut lens: BTreeMap<&'static str, usize> = sim.structure_lens().into_iter().collect();

    let wh = WormholeNetwork::new(topo, WormholeConfig::default());
    for (name, len) in wh.structure_lens() {
        assert!(
            lens.insert(name, len).is_none(),
            "duplicate audited structure name {name}"
        );
    }
    // The engine's own Network is already in `structure_lens()`; audit a
    // fresh one too so the wormhole and analytic NoCs are both covered
    // even if the engine switches transports.
    let net = Network::new(topo);
    for (name, len) in net.structure_lens() {
        lens.entry(name).or_insert(len);
    }
    lens
}

#[test]
fn every_structure_grows_linearly_with_tiles() {
    let small = lens_at(8); // 64 tiles
    let large = lens_at(16); // 256 tiles: 4x
    assert_eq!(small.len(), large.len(), "audited structure sets differ");
    assert!(small.len() >= 15, "audit lost coverage: {:?}", small);
    for (name, &s) in &small {
        let l = large[name];
        assert!(
            l <= s.max(1) * 6,
            "{name} grew {s} -> {l} for a 4x tile step: super-linear \
             (linear = 4x, quadratic = 16x)"
        );
    }
}

#[test]
fn headline_structures_track_tile_count_exactly() {
    for d in [8usize, 16] {
        let lens = lens_at(d);
        let n = d * d;
        assert_eq!(lens["tiles"], n);
        assert_eq!(lens["tile_clocks"], n);
        assert_eq!(
            lens["coords"], n,
            "wormhole routing state must be one Coord per tile"
        );
        assert_eq!(lens["routers"], n);
        assert_eq!(lens["next_tbl"], n);
        // Partner lists are bounded-degree (mesh: <= 4 per managed tile),
        // so their total is O(n), nowhere near the n^2 of all-pairs.
        assert!(lens["partners_total"] <= 4 * n);
    }
}
