//! Fault injection: kill a tile mid-run on the full SoC and watch the
//! survivors reclaim its coins.
//!
//! ```sh
//! cargo run --release -p blitzcoin-exp --example fault_injection
//! ```

use blitzcoin_sim::{FaultPlan, TileFault};
use blitzcoin_soc::prelude::*;

/// The AV SoC loses its NVDLA 30 us into a run under BlitzCoin. The dead
/// tile answers nothing, so its neighbors' exchanges time out, the
/// heartbeat gives up on it and drains its coins through the normal
/// max = 0 rule. The conservation auditor checks every coin is either
/// held by a live tile, still stranded in the corpse, or in flight —
/// none leak.
fn main() {
    let plan = FaultPlan {
        tile_faults: vec![TileFault {
            tile: 4, // the NVDLA of the 3x3 AV floorplan
            at_cycle: 24_000,
        }],
    };
    let soc = floorplan::soc_3x3();
    let wl = workload::av_parallel(&soc, 2);
    let report = Simulation::new(soc, wl, SimConfig::new(ManagerKind::BlitzCoin, 120.0))
        .with_fault_plan(plan)
        .run(42);

    println!("soc: 3x3 AV floorplan, NVDLA fail-stops at 30 us");
    println!(
        "  finished: {}; {:.1} us; {} coins reclaimed, {} leaked, {} tasks abandoned",
        report.finished,
        report.exec_time_us(),
        report.coins_reclaimed,
        report.coins_leaked,
        report.tasks_abandoned
    );
    if let Some(us) = report.recovery_us {
        println!("  budget recovered {us:.1} us after the fault");
    }
    assert_eq!(report.coins_leaked, 0, "conservation audit must hold");
    assert!(report.coins_reclaimed > 0, "the survivors drain the corpse");
}
