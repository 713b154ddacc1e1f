//! In-loop electro-thermal coupling and thermal throttling.
//!
//! With [`SimConfig::thermal_limit_c`](crate::engine::SimConfig) set, the
//! engine ticks a [`ThermalComponent`] once per integration step (one
//! [`Ev::ThermalTick`] every `step_us`): each tick samples the
//! *live* instantaneous tile powers, advances the RC network one step
//! (leakage inflating hot tiles' dissipation), and runs the throttle
//! policy. A tile crossing the junction limit has its allocation target
//! cut to [`THROTTLE_MAX_FRAC`] of its policy max — announced to the
//! active manager as an ordinary activity change, so the reallocation
//! that follows is measured by the same response-time machinery as any
//! workload transition. Hysteresis releases the throttle once the tile
//! has cooled. The RC network is `ThermalConfig::default()`; the limit
//! is the only thermal setting a caller chooses.
//!
//! The default `thermal_limit_c: None` schedules nothing, consumes no
//! RNG, and leaves runs byte-identical to the uncoupled engine.

use blitzcoin_sim::SimTime;
use blitzcoin_thermal::{ThermalComponent, ThermalConfig, ThermalModel};

use crate::engine::{events, Core, Ev};
use crate::managers::ManagerPolicy;

/// Leakage growth per °C above ambient (see
/// [`ThermalModel::simulate_coupled`]).
const LEAK_PER_C: f64 = 0.01;

/// A throttled tile is released once it cools this far (°C) below the
/// limit.
const THROTTLE_HYSTERESIS_C: f64 = 3.0;

/// A throttled tile's allocation target as a fraction of its policy max
/// (floored at one coin).
pub(crate) const THROTTLE_MAX_FRAC: f64 = 0.5;

/// Engine-side thermal runtime: the component plus throttle
/// bookkeeping.
pub(crate) struct ThermalRt {
    pub(crate) comp: ThermalComponent,
    /// Junction limit (°C): a managed tile crossing it is throttled.
    limit_c: f64,
    /// Scratch: instantaneous per-tile power (mW), refilled every tick.
    p_buf: Vec<f64>,
    /// Per-tile throttle latches (tile id indexed).
    pub(crate) throttled: Vec<bool>,
    pub(crate) throttle_events: u64,
    pub(crate) first_throttle: Option<SimTime>,
}

impl ThermalRt {
    pub(crate) fn new(topo: blitzcoin_noc::Topology, limit_c: f64) -> Self {
        let model = ThermalModel::new(topo, ThermalConfig::default());
        let n = model.tiles();
        ThermalRt {
            comp: ThermalComponent::new(model, LEAK_PER_C),
            limit_c,
            p_buf: vec![0.0; n],
            throttled: vec![false; n],
            throttle_events: 0,
            first_throttle: None,
        }
    }
}

/// One thermal tick: step the network from live powers, update throttle
/// latches, and schedule the next tick one period later.
pub(crate) fn on_thermal_tick(core: &mut Core, policy: &mut dyn ManagerPolicy) {
    let Some(mut th) = core.thermal.take() else {
        return;
    };
    for i in 0..core.tiles.len() {
        th.p_buf[i] = core.tile_power(i);
    }
    th.comp.step(&th.p_buf);
    let mut flips: Vec<usize> = Vec::new();
    for &ti in &core.managed {
        if core.tiles[ti].faulted {
            continue;
        }
        let t = th.comp.temps()[ti];
        if !th.throttled[ti] && t > th.limit_c {
            th.throttled[ti] = true;
            th.throttle_events += 1;
            if th.first_throttle.is_none() {
                th.first_throttle = Some(core.now);
            }
            flips.push(ti);
        } else if th.throttled[ti] && t < th.limit_c - THROTTLE_HYSTERESIS_C {
            th.throttled[ti] = false;
            flips.push(ti);
        }
    }
    let next = core.now + th.comp.period();
    core.thermal = Some(th);
    for ti in flips {
        // Only an *active* tile carries an allocation to retarget; an
        // idle tile's latch takes effect at its next activation through
        // `policy_max`.
        if core.tiles[ti].max > 0 {
            core.set_max(ti, core.policy_max(ti));
            core.apply_coins(ti);
            events::activity_changed(core, policy, ti);
        }
    }
    core.queue.schedule(next, Ev::ThermalTick);
}

#[cfg(test)]
mod tests {
    use crate::engine::{SimConfig, Simulation};
    use crate::manager::ManagerKind;
    use crate::{floorplan, workload};

    fn coupled(limit_c: f64) -> SimConfig {
        SimConfig {
            thermal_limit_c: Some(limit_c),
            ..SimConfig::new(ManagerKind::BlitzCoin, 240.0)
        }
    }

    #[test]
    fn coupled_run_reports_temperatures_and_stays_clean() {
        let soc = floorplan::soc_3x3();
        let wl = workload::av_parallel(&soc, 3);
        let r = Simulation::new(soc, wl, coupled(105.0)).run(3);
        assert!(r.finished);
        let peak = r.thermal_peak_c.expect("coupled run measures temperature");
        assert!(peak > 45.0 && peak < 105.0, "peak {peak}");
        assert_eq!(r.throttle_events, 0, "generous limit never throttles");
        assert!(r.first_throttle_us.is_none());
        assert_eq!(r.oracle_violations, 0);
    }

    #[test]
    fn tight_limit_throttles_and_the_policy_reallocates() {
        let soc = floorplan::soc_3x3();
        let wl = workload::av_parallel(&soc, 6);
        let hot = Simulation::new(soc.clone(), wl.clone(), coupled(46.5)).run(3);
        assert!(hot.throttle_events > 0, "tight limit must engage");
        let at = hot.first_throttle_us.expect("throttle timestamp");
        assert!(at > 0.0);
        assert!(hot.finished, "throttled run still completes");
        assert_eq!(hot.oracle_violations, 0);
        // throttling can only lower power, never raise it
        let free = Simulation::new(soc, wl, coupled(105.0)).run(3);
        assert!(hot.avg_power_mw() <= free.avg_power_mw() + 1e-9);
        // and the run takes at least as long with its allocations cut
        assert!(hot.exec_time >= free.exec_time);
    }

    #[test]
    fn uncoupled_run_reports_no_thermal_fields() {
        let soc = floorplan::soc_3x3();
        let wl = workload::av_parallel(&soc, 2);
        let r = Simulation::new(soc, wl, SimConfig::new(ManagerKind::BlitzCoin, 120.0)).run(3);
        assert!(r.thermal_peak_c.is_none());
        assert_eq!(r.throttle_events, 0);
        assert!(r.first_throttle_us.is_none());
    }
}
