//! Mega-mesh integration gate: full 16x16 (256-tile) runs — the smallest
//! mega-mesh the `mega-mesh` experiment measures — must complete with
//! zero runtime-oracle invariant violations under BlitzCoin, BC-C and
//! TokenSmart, in both the global-domain and quadtree-federated shapes.
//! Debug/test builds audit continuously (BC-C's sweep writes included,
//! against the budget ceiling and VF legality), and the CI oracle leg
//! repeats this in release with `--features oracle`, so the scaling
//! claims rest on audited runs.

use blitzcoin_soc::prelude::*;

fn mega_run(manager: ManagerKind, hier: bool) -> SimReport {
    let mm = floorplan::mega_mesh(16);
    let wl = workload::parallel_all(&mm.soc, 2);
    let cfg = SimConfig::for_large_soc(manager, mm.soc.total_p_max() * 0.3, mm.soc.n_managed());
    let sim = if hier {
        Simulation::with_clusters(mm.soc, wl, cfg, mm.clusters)
    } else {
        Simulation::new(mm.soc, wl, cfg)
    };
    sim.run(0xB11C)
}

#[test]
fn mega_mesh_16x16_runs_with_zero_oracle_violations() {
    let managers = [
        ManagerKind::BlitzCoin,
        ManagerKind::BcCentralized,
        ManagerKind::TokenSmart,
    ];
    for manager in managers {
        for hier in [false, true] {
            let before = blitzcoin_sim::oracle::violations_total();
            let r = mega_run(manager, hier);
            assert_eq!(
                blitzcoin_sim::oracle::violations_total() - before,
                0,
                "{manager} hier={hier}: oracle invariant fired on the 16x16 mega-mesh"
            );
            assert!(r.exec_time_us() > 0.0, "{manager} hier={hier}");
            let resp = r.mean_nontrivial_response_us(0.05);
            assert!(
                resp.is_some_and(|us| us.is_finite() && us > 0.0),
                "{manager} hier={hier}: no measurable response on 252 managed tiles"
            );
            assert!(
                !r.activity_changes.is_empty(),
                "{manager} hier={hier}: the workload never changed activity"
            );
        }
    }
}
