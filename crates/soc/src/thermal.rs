//! Thermal analysis of simulation runs.
//!
//! Bridges a [`SimReport`]'s per-tile power traces into the compact RC
//! network of `blitzcoin-thermal`, so a run's thermal envelope — and the
//! effect of the coin-domain hotspot cap — can be evaluated after the
//! fact. The run must carry per-tile traces
//! ([`Simulation::with_tile_traces`](crate::Simulation::with_tile_traces)).
//! Only managed accelerator tiles carry recorded power; other tiles
//! are treated as cold (their fixed infrastructure power is part of the
//! package baseline, i.e. the ambient reference).

use blitzcoin_sim::StepTrace;
use blitzcoin_thermal::{ThermalConfig, ThermalModel, ThermalReport};

use crate::floorplan::SocConfig;
use crate::report::SimReport;

/// Runs the thermal network over a finished simulation's power traces.
///
/// # Panics
/// Panics if the run did not record per-tile traces, if the report's
/// managed tiles do not belong to `soc`, or if the run had zero duration.
pub fn analyze(soc: &SocConfig, report: &SimReport, config: ThermalConfig) -> ThermalReport {
    let n = soc.topology.len();
    let tile_power = &report.tile_traces().power;
    // Cold tiles all share one empty trace (reads as 0 mW); managed tiles
    // borrow their recorded traces straight out of the report — nothing
    // is cloned.
    let cold = StepTrace::new("p_cold");
    let mut powers: Vec<&StepTrace> = vec![&cold; n];
    for (slot, &tile) in report.managed_tiles.iter().enumerate() {
        assert!(tile < n, "managed tile {tile} outside the floorplan");
        powers[tile] = &tile_power[slot];
    }
    let model = ThermalModel::new(soc.topology, config);
    model.simulate(
        &powers,
        report.exec_time.max(blitzcoin_sim::SimTime::from_us(1)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulation};
    use crate::floorplan::soc_3x3;
    use crate::manager::ManagerKind;
    use crate::workload::av_parallel;

    #[test]
    fn bc_run_stays_within_a_sane_envelope() {
        let soc = soc_3x3();
        let wl = av_parallel(&soc, 2);
        let r = Simulation::new(
            soc.clone(),
            wl,
            SimConfig::new(ManagerKind::BlitzCoin, 120.0),
        )
        .with_tile_traces()
        .run(3);
        let thermal = analyze(&soc, &r, ThermalConfig::default());
        // a 120 mW budget spread over 6 tiles cannot push any tile far:
        // the whole die stays well below a 105 C junction limit
        assert!(thermal.max_celsius() < 105.0, "{}", thermal.max_celsius());
        assert!(
            thermal.max_celsius() > thermal.ambient_c,
            "some heating observed"
        );
        assert!(thermal.hotspots(105.0).is_empty());
    }

    #[test]
    fn hotter_budget_runs_hotter() {
        let soc = soc_3x3();
        let run = |budget| {
            let wl = av_parallel(&soc, 1);
            let r = Simulation::new(
                soc.clone(),
                wl,
                SimConfig::new(ManagerKind::BlitzCoin, budget),
            )
            .with_tile_traces()
            .run(3);
            analyze(&soc, &r, ThermalConfig::default()).max_celsius()
        };
        assert!(run(240.0) > run(60.0));
    }

    #[test]
    #[should_panic(expected = "Simulation::with_tile_traces()")]
    fn a_scalar_report_names_the_missing_declaration() {
        let soc = soc_3x3();
        let wl = av_parallel(&soc, 1);
        let r = Simulation::new(
            soc.clone(),
            wl,
            SimConfig::new(ManagerKind::BlitzCoin, 120.0),
        )
        .run(3);
        analyze(&soc, &r, ThermalConfig::default());
    }
}
