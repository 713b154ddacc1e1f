//! Differential resilience: "no single point of failure" as a measured
//! claim (§II / §VII of the paper, extension study).
//!
//! The paper argues BlitzCoin's headline property is architectural: any
//! tile may die and the survivors keep managing power, because no tile is
//! special. The centralized alternatives (C-RR, BC-C) concentrate the
//! whole control loop in one controller tile, and TokenSmart — although
//! decentralized — serializes its pool through a ring, so one dead stop
//! traps the budget. This experiment injects the *same magnitude* of
//! fault (one tile, fail-stop, same instant) into each scheme and
//! measures what the paper only asserts: BlitzCoin degrades by exactly
//! the dead tile's tasks while the others stop reallocating at all.
//! Price Theory, whose supervisor is re-elected when it dies, is the
//! hierarchical contrast.
//!
//! Every engine run is one row of `resilience.csv`;
//! `resilience_tokensmart.csv` holds the behavioural ring model's healthy
//! and broken runs.

use blitzcoin_baselines::{TokenSmart, TsConfig};
use blitzcoin_sim::csv::CsvTable;
use blitzcoin_sim::SimRng;
use blitzcoin_soc::prelude::*;

use crate::sweep::{
    fmt_opt, grid_at, kill, par_units, post_fault_responses, scheme_stat_cells, write_csv,
    CONTROLLER_TILE, HIERARCHY_TILE, WORKER_TILE,
};
use crate::{Ctx, FigResult};

/// Each scheme's scenarios, in row order: a healthy run, the worker kill
/// every scheme shares, and a kill aimed at the scheme's own critical
/// element — the CPU tile the centralized controllers run on
/// (`kill-controller`; BlitzCoin's `kill-cpu` kills the same tile to show
/// it has no such element) or the Price Theory cluster supervisor
/// (`kill-supervisor`). TokenSmart's worker kill is labelled
/// `kill-ring-stop`: the NVDLA is one of its ring's stops.
const SCENARIOS: [(ManagerKind, &[&str]); 5] = [
    (
        ManagerKind::BlitzCoin,
        &["healthy", "kill-worker", "kill-cpu"],
    ),
    (
        ManagerKind::BcCentralized,
        &["healthy", "kill-worker", "kill-controller"],
    ),
    (
        ManagerKind::CentralizedRoundRobin,
        &["healthy", "kill-worker", "kill-controller"],
    ),
    (ManagerKind::TokenSmart, &["healthy", "kill-ring-stop"]),
    (
        ManagerKind::PriceTheory,
        &["healthy", "kill-worker", "kill-supervisor"],
    ),
];

/// The scheme statistics `resilience.csv` reports, one column each.
const STATS: [&str; 5] = [
    "ts_rings_broken",
    "ts_pool_in_transit",
    "pt_iterations",
    "pt_takeovers",
    "pt_reclaims",
];

fn run(ctx: &Ctx, manager: ManagerKind, scenario: &str, frames: usize) -> SimReport {
    let soc = floorplan::soc_3x3();
    let wl = workload::av_parallel(&soc, frames);
    let sim = Simulation::new(soc, wl, ctx.sim_config(manager, 120.0));
    let victim = match scenario {
        "healthy" => None,
        "kill-worker" | "kill-ring-stop" => Some(WORKER_TILE),
        "kill-cpu" | "kill-controller" => Some(CONTROLLER_TILE),
        "kill-supervisor" => Some(HIERARCHY_TILE),
        other => unreachable!("unknown scenario {other}"),
    };
    let sim = match victim {
        Some(tile) => sim.with_fault_plan(kill(tile)),
        None => sim,
    };
    ctx.run_sim(&sim, ctx.seed)
}

/// The `resilience` experiment: kill one tile under every manager, break
/// the TokenSmart ring, and tabulate the degradation metrics.
pub fn resilience(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new(
        "resilience",
        "Differential resilience: one dead tile per scheme",
    );
    let f = if ctx.quick { 2 } else { 4 };

    // The (scheme x scenario) grid: every run is an independent
    // simulation, so all of them execute concurrently. Every scenario
    // shares ctx.seed on purpose — the differential claim compares the
    // *same* workload draw with and without the fault.
    let grid: Vec<(ManagerKind, &str)> = SCENARIOS
        .iter()
        .flat_map(|&(m, scenarios)| scenarios.iter().map(move |&s| (m, s)))
        .collect();
    let reports = par_units(ctx, &grid, |&(m, s)| run(ctx, m, s, f));
    let at = |m, s| grid_at(&grid, &reports, m, s);

    let mut csv = CsvTable::new(
        [
            "manager",
            "scenario",
            "finished",
            "exec_us",
            "responses",
            "post_fault_responses",
            "coins_leaked",
            "coins_reclaimed",
            "coins_quarantined",
            "tasks_abandoned",
            "recovery_us",
            "peak_overshoot_mw",
        ]
        .into_iter()
        .chain(STATS),
    );
    for (&(m, s), r) in grid.iter().zip(&reports) {
        let cells = [
            m.to_string(),
            s.to_string(),
            r.finished.to_string(),
            format!("{:.3}", r.exec_time_us()),
            r.responses.len().to_string(),
            post_fault_responses(r).to_string(),
            r.coins_leaked.to_string(),
            r.coins_reclaimed.to_string(),
            r.coins_quarantined.to_string(),
            r.tasks_abandoned.to_string(),
            fmt_opt(r.recovery_us),
            format!("{:.3}", r.peak_overshoot_mw()),
        ];
        csv.row(cells.into_iter().chain(scheme_stat_cells(r, &STATS)));
    }
    write_csv(ctx, &mut fig, "resilience.csv", &csv);

    // TokenSmart's behavioural ring model: the sequential pool is its own
    // critical element. The abstract ring converges within ~one
    // revolution, so the fault is live from cycle 0 — the analogue of the
    // controller dying before the sweep, not after the run is already
    // settled.
    let ts_run = |broken: bool| {
        let mut ts = TokenSmart::new(vec![32; 16], 512, TsConfig::default());
        if broken {
            let mut plan = kill(8);
            plan.tile_faults[0].at_cycle = 0;
            ts.apply_fault_plan(&plan);
        }
        ts.run(&mut SimRng::seed(ctx.seed))
    };
    let ts_healthy = ts_run(false);
    let ts_broken = ts_run(true);
    let mut ts_csv = CsvTable::new(["scenario", "converged", "ring_broken", "cycles"]);
    for (name, r) in [("healthy", &ts_healthy), ("kill-ring-stop", &ts_broken)] {
        ts_csv.row([
            name.to_string(),
            r.converged.to_string(),
            r.ring_broken.to_string(),
            r.cycles.to_string(),
        ]);
    }
    write_csv(ctx, &mut fig, "resilience_tokensmart.csv", &ts_csv);

    let bc_healthy = at(ManagerKind::BlitzCoin, "healthy");
    let bc_worker = at(ManagerKind::BlitzCoin, "kill-worker");
    let bc_cpu = at(ManagerKind::BlitzCoin, "kill-cpu");
    let tse_healthy = at(ManagerKind::TokenSmart, "healthy");
    let tse_broken = at(ManagerKind::TokenSmart, "kill-ring-stop");
    let pt_healthy = at(ManagerKind::PriceTheory, "healthy");
    let pt_worker = at(ManagerKind::PriceTheory, "kill-worker");
    let pt_sup = at(ManagerKind::PriceTheory, "kill-supervisor");

    // -- claims ----------------------------------------------------------

    fig.claim(
        "bc-graceful",
        "BlitzCoin survives any single tile death: survivors reclaim the \
         corpse's coins, re-converge, and keep answering activity changes",
        format!(
            "kill-worker: {} tasks abandoned (the dead tile's own), {} coins \
             reclaimed, recovered {:?} us after the fault, {} post-fault \
             responses",
            bc_worker.tasks_abandoned,
            bc_worker.coins_reclaimed,
            bc_worker.recovery_us,
            post_fault_responses(bc_worker)
        ),
        bc_worker.coins_reclaimed > 0
            && bc_worker.recovery_us.is_some()
            && post_fault_responses(bc_worker) > 0
            && bc_worker.tasks_abandoned == f,
    );
    fig.claim(
        "bc-no-special-tile",
        "killing the CPU tile does not touch BlitzCoin at all (it is not \
         part of the economy)",
        format!(
            "kill-cpu: finished={}, exec {:.1} us (healthy {:.1} us)",
            bc_cpu.finished,
            bc_cpu.exec_time_us(),
            bc_healthy.exec_time_us()
        ),
        bc_cpu.finished,
    );
    for m in [
        ManagerKind::BcCentralized,
        ManagerKind::CentralizedRoundRobin,
    ] {
        let (healthy, ctl) = (at(m, "healthy"), at(m, "kill-controller"));
        fig.claim(
            format!("{m}-collapse"),
            "killing the controller stops the centralized scheme from ever \
             reallocating again",
            format!(
                "kill-controller: {} post-fault responses (healthy run \
                 answered {} total)",
                post_fault_responses(ctl),
                healthy.responses.len()
            ),
            post_fault_responses(ctl) == 0 && healthy.responses.len() > post_fault_responses(ctl),
        );
    }
    fig.claim(
        "ring-collapse",
        "one dead ring stop traps TokenSmart's pool and halts convergence",
        format!(
            "healthy converged={} in {} cycles; broken converged={} \
             (ring_broken={})",
            ts_healthy.converged, ts_healthy.cycles, ts_broken.converged, ts_broken.ring_broken
        ),
        ts_healthy.converged && !ts_broken.converged && ts_broken.ring_broken,
    );
    fig.claim(
        "ring-collapse-engine",
        "end to end, the dead ring stop halts TokenSmart's reallocation \
         without leaking: the pool is trapped and quarantined, and no \
         activity change after the break is ever answered",
        format!(
            "kill-ring-stop: rings_broken={:.0}, leaked={}, post-fault \
             responses={} (healthy run finished={})",
            tse_broken.scheme_stat("ts_rings_broken").unwrap_or(0.0),
            tse_broken.coins_leaked,
            post_fault_responses(tse_broken),
            tse_healthy.finished
        ),
        tse_healthy.finished
            && tse_broken.scheme_stat("ts_rings_broken") == Some(1.0)
            && tse_broken.coins_leaked == 0,
    );
    fig.claim(
        "pt-survives-supervisor-death",
        "Price Theory has no permanent single point of failure: when the \
         cluster supervisor dies, a member watchdog reclaims the market, \
         inherits the escrow, and keeps clearing — unlike the centralized \
         schemes, which never reallocate again",
        format!(
            "kill-supervisor: takeovers={:.0}, reclaims={:.0}, recovered \
             {:?} us after the fault, {} post-fault responses, {} coins \
             leaked",
            pt_sup.scheme_stat("pt_takeovers").unwrap_or(0.0),
            pt_sup.scheme_stat("pt_reclaims").unwrap_or(0.0),
            pt_sup.recovery_us,
            post_fault_responses(pt_sup),
            pt_sup.coins_leaked
        ),
        pt_sup.scheme_stat("pt_takeovers") == Some(1.0)
            && pt_sup.recovery_us.is_some()
            && post_fault_responses(pt_sup) > 0
            && pt_sup.coins_leaked == 0,
    );
    fig.claim(
        "pt-reclaims-member",
        "a dead market member is reclaimed by the supervisor and the \
         session re-clears without leaking",
        format!(
            "kill-worker: reclaims={:.0}, leaked={}, healthy leaked={}",
            pt_worker.scheme_stat("pt_reclaims").unwrap_or(0.0),
            pt_worker.coins_leaked,
            pt_healthy.coins_leaked
        ),
        pt_worker.scheme_stat("pt_reclaims").unwrap_or(0.0) >= 1.0
            && pt_worker.coins_leaked == 0
            && pt_healthy.coins_leaked == 0,
    );
    fig.claim(
        "conservation-under-faults",
        "the coin economy leaks nothing in any fault scenario",
        format!(
            "leaked: healthy={}, kill-worker={}, kill-cpu={}",
            bc_healthy.coins_leaked, bc_worker.coins_leaked, bc_cpu.coins_leaked
        ),
        bc_healthy.coins_leaked == 0 && bc_worker.coins_leaked == 0 && bc_cpu.coins_leaked == 0,
    );
    fig.claim(
        "budget-under-faults",
        "the enforced budget holds through the fault (no sustained \
         overshoot from orphaned coins)",
        format!(
            "kill-worker peak overshoot {:.1} mW of {:.0} mW budget",
            bc_worker.peak_overshoot_mw(),
            bc_worker.budget_mw
        ),
        bc_worker.peak_overshoot_mw() <= 0.15 * bc_worker.budget_mw,
    );
    fig
}
