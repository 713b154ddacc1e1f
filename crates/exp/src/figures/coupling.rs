//! In-loop electro-thermal coupling: reaction lag under thermal
//! throttling (extension study; §VII of the paper argues the coin
//! economy's locality, this measures it against a thermal event).
//!
//! Every cycle-level manager runs the same sustained (WL-Par) and burst
//! (WL-Dep) workloads with the RC network integrated *in the loop*
//! (`SimConfig::thermal_limit_c`): neighbor heat spreads through the mesh,
//! leakage inflates hot tiles' power, and a tile crossing the junction
//! limit is throttled mid-run. The throttle flip is announced to the
//! manager as an ordinary activity change, so the existing response-time
//! machinery measures how long each scheme takes to reallocate around
//! the thermal event: BlitzCoin reacts within NoC hops, the centralized
//! schemes a heartbeat later.
//!
//! Every run shares `ctx.seed` and an empty fault plan on purpose — the
//! comparison is the same workload draw under different managers. The
//! junction limit is deliberately tight (`--thermal-limit` overrides it)
//! so the throttle engages early in the run for every scheme.

use blitzcoin_sim::csv::CsvTable;
use blitzcoin_soc::prelude::*;

use crate::sweep::{
    fmt_opt, grid_at, par_units, scheme_stat_cells, write_csv, FREE_LIMIT_C, THERMAL_LIMIT_C,
};
use crate::{Ctx, FigResult};

/// The scheme statistics `thermal_coupling.csv` reports, one column each.
const STATS: [&str; 1] = ["pt_iterations"];

/// Workload scenarios: sustained keeps every accelerator busy, burst
/// serializes frames through dependency chains so tiles heat in bursts.
const SCENARIOS: [&str; 2] = ["sustained", "burst"];

fn coupled(ctx: &Ctx, manager: ManagerKind, limit_c: f64) -> SimConfig {
    SimConfig {
        thermal_limit_c: Some(limit_c),
        ..ctx.sim_config(manager, 240.0)
    }
}

fn run(ctx: &Ctx, manager: ManagerKind, scenario: &str, limit_c: f64, frames: usize) -> SimReport {
    let soc = floorplan::soc_3x3();
    let wl = match scenario {
        "sustained" => workload::av_parallel(&soc, frames),
        "burst" => workload::av_dependent(&soc, frames),
        other => unreachable!("unknown scenario {other}"),
    };
    ctx.run_sim(
        &Simulation::new(soc, wl, coupled(ctx, manager, limit_c)),
        ctx.seed,
    )
}

/// Mean time the manager took to re-converge over the activity changes
/// at or after the first throttle — the reallocation reaction lag to the
/// thermal event (the throttle flip itself is one of these changes).
fn reaction_lag_us(r: &SimReport) -> Option<f64> {
    let t0 = r.first_throttle_us?;
    let lags: Vec<f64> = r
        .responses
        .iter()
        .filter(|s| s.at_us >= t0 - 1e-9)
        .map(|s| s.response_us)
        .collect();
    if lags.is_empty() {
        None
    } else {
        Some(lags.iter().sum::<f64>() / lags.len() as f64)
    }
}

/// The `thermal-coupling` experiment: every cycle-level manager under
/// identical seeds with in-loop heat, tight-limit vs free-running.
pub fn thermal_coupling(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new(
        "thermal-coupling",
        "In-loop thermal throttling: reaction lag per manager",
    );
    let frames = if ctx.quick { 4 } else { 6 };
    let tight = ctx.thermal_limit_c.unwrap_or(THERMAL_LIMIT_C);

    // manager x scenario at the tight limit, plus a free-running burst
    // reference per manager (same seed) to bound what throttling buys.
    let mut grid: Vec<(ManagerKind, (&str, f64))> = ManagerKind::ALL
        .into_iter()
        .flat_map(|m| SCENARIOS.map(|s| (m, (s, tight))))
        .collect();
    for m in ManagerKind::ALL {
        grid.push((m, ("burst", FREE_LIMIT_C)));
    }
    let reports = par_units(ctx, &grid, |&(m, (s, limit))| run(ctx, m, s, limit, frames));
    let at = |m, s, limit| grid_at(&grid, &reports, m, (s, limit));

    let mut csv = CsvTable::new(
        [
            "manager",
            "scenario",
            "limit_c",
            "finished",
            "exec_us",
            "avg_power_mw",
            "thermal_peak_c",
            "throttle_events",
            "first_throttle_us",
            "responses",
            "reaction_lag_us",
        ]
        .into_iter()
        .chain(STATS),
    );
    for (&(m, (s, limit)), r) in grid.iter().zip(&reports) {
        let cells = [
            m.to_string(),
            s.to_string(),
            format!("{limit:.1}"),
            r.finished.to_string(),
            format!("{:.3}", r.exec_time_us()),
            format!("{:.3}", r.avg_power_mw()),
            fmt_opt(r.thermal_peak_c),
            r.throttle_events.to_string(),
            fmt_opt(r.first_throttle_us),
            r.responses.len().to_string(),
            fmt_opt(reaction_lag_us(r)),
        ];
        csv.row(cells.into_iter().chain(scheme_stat_cells(r, &STATS)));
    }
    write_csv(ctx, &mut fig, "thermal_coupling.csv", &csv);

    // -- claims ----------------------------------------------------------

    let clean = reports
        .iter()
        .all(|r| r.finished && r.oracle_violations == 0);
    fig.claim(
        "coupled-clean",
        "in-loop thermal coupling perturbs allocation, not correctness: \
         every manager finishes every coupled run with zero oracle \
         violations",
        format!(
            "{} coupled runs, all finished, {} oracle violations total",
            reports.len(),
            reports.iter().map(|r| r.oracle_violations).sum::<u64>()
        ),
        clean,
    );

    let tight_rows: Vec<&SimReport> = grid
        .iter()
        .zip(&reports)
        .filter(|((_, (_, l)), _)| *l == tight)
        .map(|(_, r)| r)
        .collect();
    let engaged = tight_rows.iter().filter(|r| r.throttle_events > 0).count();
    fig.claim(
        "throttle-engages",
        "the tight junction limit is a real constraint: the throttle \
         engages mid-run for every manager in both scenarios",
        format!(
            "{engaged}/{} tight-limit runs throttled at least one tile",
            tight_rows.len()
        ),
        engaged == tight_rows.len(),
    );

    let bc = reaction_lag_us(at(ManagerKind::BlitzCoin, "burst", tight));
    let bcc = reaction_lag_us(at(ManagerKind::BcCentralized, "burst", tight));
    let crr = reaction_lag_us(at(ManagerKind::CentralizedRoundRobin, "burst", tight));
    let holds = matches!((bc, bcc, crr), (Some(b), Some(c1), Some(c2)) if b < c1 && b < c2);
    fig.claim(
        "bc-reacts-within-hops",
        "BlitzCoin reallocates around a thermal throttle within NoC hops; \
         the centralized schemes wait for the controller's next heartbeat \
         (burst workload, reaction lag after the first throttle)",
        format!(
            "reaction lag us: BC {} vs BC-C {} vs C-RR {}",
            fmt_opt(bc),
            fmt_opt(bcc),
            fmt_opt(crr)
        ),
        holds,
    );

    let hot = at(ManagerKind::BlitzCoin, "burst", tight);
    let free = at(ManagerKind::BlitzCoin, "burst", FREE_LIMIT_C);
    let (hot_peak, free_peak) = (
        hot.thermal_peak_c.expect("coupled"),
        free.thermal_peak_c.expect("coupled"),
    );
    fig.claim(
        "throttle-caps-heat",
        "throttling trades time for temperature: the tight-limit run peaks \
         cooler and runs no faster than the free-running reference",
        format!(
            "BC burst peak {hot_peak:.2} C (throttled) vs {free_peak:.2} C \
             (free), exec {:.1} vs {:.1} us",
            hot.exec_time_us(),
            free.exec_time_us()
        ),
        hot_peak < free_peak && hot.exec_time >= free.exec_time,
    );

    let pt_runs = [
        at(ManagerKind::PriceTheory, "sustained", tight),
        at(ManagerKind::PriceTheory, "burst", tight),
        at(ManagerKind::PriceTheory, "burst", FREE_LIMIT_C),
    ];
    let pt_clean = pt_runs
        .iter()
        .all(|r| r.finished && r.oracle_violations == 0);
    let pt_engaged = SCENARIOS
        .iter()
        .all(|&s| at(ManagerKind::PriceTheory, s, tight).throttle_events > 0);
    let pt_iters: f64 = pt_runs
        .iter()
        .map(|r| r.scheme_stat("pt_iterations").unwrap_or(0.0))
        .sum();
    fig.claim(
        "pt-coupled",
        "Price Theory re-clears its market around in-loop thermal \
         throttles: every coupled run finishes clean, the tight limit \
         engages, and the t\u{e2}tonnement keeps iterating through the \
         thermal event",
        format!(
            "{} PT coupled runs, clean={pt_clean}, tight throttles \
             engaged={pt_engaged}, {pt_iters:.0} t\u{e2}tonnement \
             iterations",
            pt_runs.len()
        ),
        pt_clean && pt_engaged && pt_iters > 0.0,
    );

    fig
}
