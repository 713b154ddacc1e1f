//! C-RR: the centralized round-robin baseline. Active tiles rotate
//! through Max/Min/Off power levels on a fixed period, so fairness is
//! temporal rather than proportional.

use blitzcoin_baselines::{CrrController, CrrLevel};

use crate::engine::events::ManagerEv;
use crate::engine::{Core, Ev};
use crate::managers::centralized::{SweepScheme, SweepWrites, ROTATION_CYCLES};

/// The C-RR sweep scheme: the behavioural [`CrrController`]'s rotating
/// Max/Min/Off levels, advanced by the periodic `Rotate` event.
pub(crate) struct Crr;

impl SweepScheme for Crr {
    /// Firmware service time per tile (poll the tile, run the policy
    /// step, write the DVFS register): 1750 cycles x 1.25 ns x 7 tiles
    /// ≈ 15.3 µs, the Fig 20 silicon measurement.
    const SERVICE_CYCLES: u64 = 1750;
    const WRITES_COINS: bool = false;

    fn boot(&mut self, core: &mut Core) {
        let at = core.clocks.noc.span(ROTATION_CYCLES);
        core.queue.schedule(at, Ev::Manager(ManagerEv::Rotate));
    }

    fn compute_plan(&mut self, core: &Core, rotation_step: usize, writes: &mut SweepWrites) {
        let p_max: Vec<f64> = core
            .managed
            .iter()
            .map(|&t| core.tiles[t].model.as_ref().expect("acc").p_max())
            .collect();
        let p_min: Vec<f64> = core
            .managed
            .iter()
            .map(|&t| core.tiles[t].model.as_ref().expect("acc").p_min())
            .collect();
        let active: Vec<bool> = core
            .managed
            .iter()
            .map(|&t| core.tiles[t].running.is_some() || !core.tiles[t].queue.is_empty())
            .collect();
        let crr = CrrController::new(p_max, p_min, core.cfg().budget_mw);
        let levels = crr.allocation(&active, rotation_step);
        for (&t, level) in core.managed.iter().zip(&levels) {
            let rt = &core.tiles[t];
            let m = rt.model.as_ref().expect("acc");
            let f = match level {
                CrrLevel::Max => m.f_max(),
                CrrLevel::Min => m.f_min(),
                CrrLevel::Off => 0.0,
            };
            writes.push(t, (f * 100.0).round() as u64, 0, rt.target_centi);
        }
    }
}
