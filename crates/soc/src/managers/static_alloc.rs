//! Static allocation: fixed design-time shares proportional to each
//! tile's P_max, set once at boot and never revisited. The no-management
//! floor in the paper's comparisons.

use crate::engine::events::ManagerEv;
use crate::engine::Core;
use crate::managers::ManagerPolicy;

/// The static scheme: all its work happens at boot; at runtime it only
/// declines to answer activity changes.
pub(crate) struct StaticPolicy;

impl ManagerPolicy for StaticPolicy {
    fn init(&mut self, core: &mut Core) {
        // fixed design-time shares proportional to each tile's
        // P_max, set once at boot and never revisited
        let total_pmax: f64 = core
            .managed
            .iter()
            .map(|&t| core.tiles[t].model.as_ref().expect("managed").p_max())
            .sum();
        for k in 0..core.managed.len() {
            let ti = core.managed[k];
            let (share, f) = {
                let m = core.tiles[ti].model.as_ref().expect("managed");
                let share = core.cfg().budget_mw * m.p_max() / total_pmax;
                let f = if share < m.p_min() {
                    0.0
                } else {
                    m.freq_for_power(share)
                };
                (share, f)
            };
            // a static tile runs at its share whenever it has work
            core.set_has(ti, (share / core.sim.coin_value_mw) as i64);
            if core.tiles[ti].running.is_some() {
                core.set_target(ti, f);
            }
        }
    }

    fn on_activity_change(&mut self, core: &mut Core, _ti: usize) {
        // static allocation never responds; don't count a pending
        // change that can never be drained
        core.pending_changes.pop();
    }

    fn on_event(&mut self, _core: &mut Core, _ev: ManagerEv) {
        unreachable!("the static scheme schedules no events")
    }

    fn halts_when_settled(&self, _core: &Core) -> bool {
        // a static run never drains pending responses
        true
    }
}
