//! The event vocabulary, boot sequence, main loop, and task lifecycle.
//!
//! Everything here is scheme-agnostic: manager-specific events are
//! wrapped in [`Ev::Manager`] and routed to the active
//! [`ManagerPolicy`](crate::managers::ManagerPolicy) untouched, so the
//! loop neither knows nor cares which scheme is running.

use blitzcoin_sim::SimTime;

use crate::engine::{Core, Running};
use crate::managers::ManagerPolicy;
use crate::report::ActivityChange;
use crate::workload::TaskId;

/// One scheduled simulation event. Equal-time events pop FIFO by
/// scheduling order, so the payload never participates in ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ev {
    /// Tile `tile`'s running task completes (stale unless `gen` matches).
    TaskDone { tile: usize, gen: u64 },
    /// A manager-policy event, routed verbatim to
    /// `ManagerPolicy::on_event`.
    Manager(ManagerEv),
    /// Tile `tile`'s UVFR settles on its commanded frequency target.
    Actuate { tile: usize, gen: u64 },
    /// Tile `tile`'s planned fail-stop fires.
    TileFault { tile: usize },
    /// The in-loop thermal integrator's slow clock edges (only scheduled
    /// when [`SimConfig::thermal_limit_c`](crate::engine::SimConfig) is
    /// set).
    ThermalTick,
}

/// Events owned by the manager policies. The engine schedules and
/// delivers them without interpreting them; each scheme only ever
/// receives the variants it scheduled itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ManagerEv {
    /// BlitzCoin: tile `tile`'s exchange-FSM refresh timer fires.
    CoinFire { tile: usize, gen: u64 },
    /// Centralized: an activity-change IRQ reached the controller.
    Notify,
    /// Centralized: the controller services step `step` of sweep `sweep`.
    SweepWrite { sweep: u64, step: usize },
    /// Centralized: a sweep's register write arrives at a tile.
    WriteArrive {
        tile: usize,
        freq_centi_mhz: u64,
        coins: i64,
        sweep: u64,
        last: bool,
    },
    /// C-RR: the periodic fairness rotation fires.
    Rotate,
    /// TokenSmart: the circulating pool token arrives at ring `ring`'s
    /// stop `stop`.
    TokenHop { ring: usize, stop: usize },
    /// Price Theory: a protocol step for `market`'s member at cluster
    /// slot `slot`. Stale unless `gen` matches the market's current
    /// session generation.
    Pt {
        market: usize,
        slot: usize,
        gen: u64,
        msg: PtMsg,
    },
}

/// The Price Theory protocol messages (see
/// `crate::managers::price_theory`). Demand values are never carried in
/// events — the supervisor recomputes them from its own market state, so
/// these stay `Copy + Eq` like every other event payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PtMsg {
    /// A price quote packet lands at the member.
    QuoteArrive,
    /// The member's demand bid lands at the supervisor.
    BidArrive,
    /// A grant register-write lands at the member.
    GrantArrive,
    /// The supervisor waited a full round-trip bound without the bid.
    BidTimeout,
    /// A member's periodic supervisor-liveness watchdog fires.
    Watchdog,
}

/// Safety horizon: a run still going past this time aborts unfinished.
const HORIZON: SimTime = SimTime::from_ms(400);

/// Boots the run and drives the event loop to completion. Order matters
/// and is part of the determinism contract: workload roots first (their
/// activity changes reach the policy before its boot init), then the
/// policy's boot init (which may consume RNG), then planned faults.
pub(crate) fn run(core: &mut Core, policy: &mut dyn ManagerPolicy) {
    // kick off the workload
    let roots = core.sim.wl.roots();
    for t in roots {
        enqueue_task(core, policy, t);
    }
    policy.init(core);
    core.schedule_planned_faults();

    if let Some(th) = &core.thermal {
        core.queue.schedule(th.comp.period(), Ev::ThermalTick);
    }

    let total_tasks = core.sim.wl.len();
    while let Some(ev) = core.queue.pop() {
        core.oracle.check_time_monotonic(
            ev.time.as_noc_cycles(),
            core.now.as_ps(),
            ev.time.as_ps(),
        );
        if core.pop_trace.len() < core.pop_cap {
            core.pop_trace.push((ev.time.as_ps(), ev.seq));
        }
        core.now = ev.time;
        core.events += 1;
        if core.now > HORIZON {
            break;
        }
        match ev.payload {
            Ev::TaskDone { tile, gen } => on_task_done(core, policy, tile, gen),
            Ev::Manager(me) => policy.on_event(core, me),
            Ev::Actuate { tile, gen } => core.on_actuate(tile, gen),
            Ev::TileFault { tile } => core.on_tile_fault(tile),
            Ev::ThermalTick => crate::engine::coupling::on_thermal_tick(core, policy),
        }
        let settled = core.completed + core.abandoned == total_tasks;
        // Stop once the work is settled and every pending response is
        // answered — or will never be (a static run never drains pending
        // responses, a dead controller never will again, a broken token
        // ring cannot circulate).
        if settled && (core.pending_changes.is_empty() || policy.halts_when_settled(core)) {
            break;
        }
    }
}

// -- task lifecycle -------------------------------------------------

pub(crate) fn enqueue_task(core: &mut Core, policy: &mut dyn ManagerPolicy, task: TaskId) {
    let ti = core.sim.wl.tasks()[task.0].tile.index();
    if core.tiles[ti].faulted {
        core.abandon_unreachable_tasks();
        return;
    }
    core.tiles[ti].queue.push_back(task);
    pump(core, policy, ti);
}

fn pump(core: &mut Core, policy: &mut dyn ManagerPolicy, ti: usize) {
    if core.tiles[ti].running.is_some() {
        return;
    }
    let Some(task) = core.tiles[ti].queue.pop_front() else {
        // stream ended: deactivate
        if core.tiles[ti].managed && core.tiles[ti].max != 0 {
            core.set_max(ti, 0);
            core.apply_coins(ti);
            activity_changed(core, policy, ti);
        }
        core.record_power(ti);
        return;
    };
    let work = core.sim.wl.tasks()[task.0].work_kcycles;
    core.tiles[ti].running = Some(Running {
        task,
        remaining_kcycles: work,
        last: core.now,
    });
    if core.tiles[ti].managed {
        if core.tiles[ti].max == 0 {
            // activation: execution begins on this tile
            core.set_max(ti, core.policy_max(ti));
            core.apply_coins(ti);
            activity_changed(core, policy, ti);
        }
    } else {
        // unmanaged accelerators always run at F_max
        let fmax = core.tiles[ti].model.as_ref().expect("accelerator").f_max();
        core.set_target(ti, fmax);
    }
    core.record_power(ti);
    core.schedule_completion(ti);
}

fn on_task_done(core: &mut Core, policy: &mut dyn ManagerPolicy, ti: usize, gen: u64) {
    if gen != core.tiles[ti].done_gen {
        return;
    }
    core.update_progress(ti);
    let run = core.tiles[ti]
        .running
        .take()
        .expect("completion without task");
    debug_assert!(run.remaining_kcycles < 1e-6);
    core.completed += 1;
    core.exec_end = core.now;
    // release dependents
    let done_id = run.task;
    core.done_tasks[done_id.0] = true;
    let deps_left = &mut core.deps_left;
    let ready: Vec<TaskId> = core.dependents[done_id.0]
        .iter()
        .copied()
        .filter(|t| {
            deps_left[t.0] -= 1;
            deps_left[t.0] == 0
        })
        .collect();
    pump(core, policy, ti);
    for t in ready {
        enqueue_task(core, policy, t);
    }
}

/// Records an activity transition and hands it to the manager policy.
/// The generic bookkeeping (the change log and the pending-response
/// clock) happens before the policy reacts, for every scheme. Thermal
/// throttle flips route through here too, so a throttle-induced
/// reallocation is measured like any workload transition.
pub(crate) fn activity_changed(core: &mut Core, policy: &mut dyn ManagerPolicy, ti: usize) {
    core.activity_changes.push(ActivityChange {
        tile: ti,
        at_us: core.now.as_us_f64(),
        active: core.tiles[ti].max > 0,
    });
    core.pending_changes.push(core.now);
    policy.on_activity_change(core, ti);
}
