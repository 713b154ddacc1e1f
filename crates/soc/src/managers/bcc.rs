//! BC-C: BlitzCoin's allocation policy run centrally (Fig 17's
//! like-for-like competitor). Each sweep recomputes the whole coin
//! split from the tiles' `max` targets and rewrites every ledger.

use blitzcoin_baselines::BccController;

use crate::engine::Core;
use crate::managers::centralized::SweepScheme;

/// The BC-C sweep scheme: proportional coin allocation, computed by the
/// behavioural [`BccController`] over the live `max` targets.
pub(crate) struct Bcc;

impl SweepScheme for Bcc {
    /// Central hardware FSM service time per tile: 160 cycles x 1.25 ns
    /// x 7 tiles ≈ 1.4 µs (Fig 20).
    const SERVICE_CYCLES: u64 = 160;
    const WRITES_COINS: bool = true;

    fn boot(&mut self, _core: &mut Core) {}

    fn compute_plan(&self, core: &Core, _rotation_step: usize) -> Vec<(u64, i64)> {
        let maxes: Vec<u64> = core.managed.iter().map(|&t| core.tiles[t].max).collect();
        let alloc = BccController::new(core.sim.pool).allocate(&maxes);
        core.managed
            .iter()
            .zip(&alloc)
            .map(|(&t, &coins)| {
                let rt = &core.tiles[t];
                let f = if rt.running.is_some() {
                    rt.lut.as_ref().expect("managed").f_target(coins as i32)
                } else {
                    0.0
                };
                ((f * 100.0).round() as u64, coins)
            })
            .collect()
    }
}
