//! The 4x4 computer-vision SoC running its dependent pipeline
//! (Vision pre-processing -> Conv2D layers -> GEMM dense layers) under
//! BlitzCoin, showing how the coin distribution follows the pipeline
//! stages as frames move through.
//!
//! ```sh
//! cargo run --release -p blitzcoin-exp --example vision_pipeline
//! ```

use blitzcoin_sim::SimTime;
use blitzcoin_soc::prelude::*;

fn main() {
    let soc = floorplan::soc_4x4();
    let wl = workload::vision_dependent(&soc, 3);
    println!(
        "4x4 CV SoC: {} accelerators, {} pipelined tasks, budget 450 mW (33%)\n",
        soc.n_managed(),
        wl.tasks().len()
    );

    // the coin table below reads per-tile traces, so the run records them
    let sim = Simulation::new(
        soc.clone(),
        wl,
        SimConfig::new(ManagerKind::BlitzCoin, 450.0),
    )
    .with_tile_traces();
    println!(
        "coin economy: 1 coin = {:.2} mW, pool = {} coins\n",
        sim.coin_value_mw(),
        sim.pool()
    );
    let report = sim.run(11);

    println!(
        "pipeline finished in {:.1} us at {:.0}% budget utilization\n",
        report.exec_time_us(),
        report.utilization() * 100.0
    );

    // Track how the budget migrates between pipeline stages: sample each
    // managed tile's coins at a few checkpoints.
    let checkpoints = [0.1, 0.3, 0.5, 0.7, 0.9];
    println!("coin holdings per tile over the run (tile: class @ checkpoints):");
    let coins = &report.tile_traces().coins;
    for (slot, &tile) in report.managed_tiles.iter().enumerate() {
        let class = soc.tiles[tile]
            .accel_class()
            .expect("managed tiles are accelerators");
        let samples: Vec<String> = checkpoints
            .iter()
            .map(|&f| {
                let t = SimTime::from_us_f64(report.exec_time_us() * f);
                format!("{:>4.0}", coins[slot].value_at(t))
            })
            .collect();
        println!("  tile {tile:>2} {class:>7}: {}", samples.join(" "));
    }

    println!(
        "\n{} power-management responses, mean {:.2} us, worst {:.2} us",
        report.responses.len(),
        report.mean_response_us().unwrap_or(0.0),
        report.max_response_us().unwrap_or(0.0)
    );
}
