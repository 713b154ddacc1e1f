//! The six-scheme shoot-out: every manager the repo implements, run
//! cycle-level under *identical* seeds and fault plans (extension study;
//! the paper's §VII resilience argument made head-to-head).
//!
//! Earlier experiments compare schemes one axis at a time (fig17/fig18
//! for throughput, `resilience` for single-tile deaths, `thermal-coupling`
//! for in-loop heat). This one puts all six — BC, BC-C, C-RR, TS, PT,
//! Static — on the same 3x3 AV SoC under the same four scenarios:
//!
//! - **healthy**: no faults, the throughput reference;
//! - **controller-death**: the CPU tile (where the centralized
//!   controllers live) fail-stops mid-run;
//! - **hierarchy-break**: the tile that is simultaneously a TokenSmart
//!   ring stop, a Price Theory cluster supervisor, and an ordinary
//!   BlitzCoin economy member fail-stops mid-run;
//! - **sustained-thermal**: no faults, but the RC thermal network runs
//!   in the loop with a junction limit tight enough to throttle.
//!
//! Every scheme sees the byte-identical `FaultPlan` and root seed per
//! scenario, so the differential claims compare the same workload draw.
//! The summary lands in `shootout.csv`; `crates/viz` renders it as the
//! `scheme_shootout.svg` response-time/resilience matrix (dead cells —
//! schemes that stop reallocating — render as the worst response).

use blitzcoin_sim::csv::CsvTable;
use blitzcoin_soc::prelude::*;

use crate::sweep::{
    fmt_opt, grid_at, kill, par_units, post_fault_responses, write_csv, CONTROLLER_TILE,
    FAULT_AT_US, HIERARCHY_TILE, THERMAL_LIMIT_C,
};
use crate::{Ctx, FigResult};

/// The four scenarios, in matrix column order.
const SCENARIOS: [&str; 4] = [
    "healthy",
    "controller-death",
    "hierarchy-break",
    "sustained-thermal",
];

fn is_faulted(scenario: &str) -> bool {
    matches!(scenario, "controller-death" | "hierarchy-break")
}

fn run(ctx: &Ctx, manager: ManagerKind, scenario: &str, frames: usize) -> SimReport {
    let soc = floorplan::soc_3x3();
    let wl = workload::av_parallel(&soc, frames);
    let sim = match scenario {
        "healthy" => Simulation::new(soc, wl, ctx.sim_config(manager, 120.0)),
        "controller-death" => Simulation::new(soc, wl, ctx.sim_config(manager, 120.0))
            .with_fault_plan(kill(CONTROLLER_TILE)),
        "hierarchy-break" => Simulation::new(soc, wl, ctx.sim_config(manager, 120.0))
            .with_fault_plan(kill(HIERARCHY_TILE)),
        "sustained-thermal" => {
            let cfg = SimConfig {
                thermal_limit_c: Some(ctx.thermal_limit_c.unwrap_or(THERMAL_LIMIT_C)),
                ..ctx.sim_config(manager, 240.0)
            };
            Simulation::new(soc, wl, cfg)
        }
        other => unreachable!("unknown scenario {other}"),
    };
    ctx.run_sim(&sim, ctx.seed)
}

/// "Still managing power" per scenario: a faulted run must keep
/// answering activity changes after the fault; an unfaulted run must
/// finish its workload.
fn survived(r: &SimReport, scenario: &str) -> bool {
    if is_faulted(scenario) {
        post_fault_responses(r) > 0
    } else {
        r.finished
    }
}

/// The matrix cell: mean response over the scenario-relevant window
/// (post-fault responses for faulted scenarios, all responses
/// otherwise). `None` — the scheme never answers in that window — is the
/// "dead cell" the renderer paints as the worst response.
fn matrix_us(r: &SimReport, scenario: &str) -> Option<f64> {
    let cutoff = if is_faulted(scenario) {
        FAULT_AT_US
    } else {
        f64::NEG_INFINITY
    };
    let lags: Vec<f64> = r
        .responses
        .iter()
        .filter(|s| s.at_us > cutoff)
        .map(|s| s.response_us)
        .collect();
    if lags.is_empty() {
        None
    } else {
        Some(lags.iter().sum::<f64>() / lags.len() as f64)
    }
}

/// The `shootout` experiment: all six schemes x four scenarios on
/// identical seeds and fault plans. `--manager` narrows the matrix to
/// one scheme (the cross-scheme claims need the full matrix and are
/// skipped in that case).
pub fn shootout(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new(
        "shootout",
        "Six-scheme shoot-out: identical seeds and fault plans",
    );
    let frames = if ctx.quick { 2 } else { 4 };
    let schemes: Vec<ManagerKind> = match ctx.manager {
        Some(m) => vec![m],
        None => ManagerKind::ALL.to_vec(),
    };

    // scheme x scenario: every run is an independent simulation, so the
    // whole matrix fans out at once.
    let grid: Vec<(ManagerKind, &str)> = schemes
        .iter()
        .flat_map(|&m| SCENARIOS.map(|s| (m, s)))
        .collect();
    let reports = par_units(ctx, &grid, |&(m, s)| run(ctx, m, s, frames));

    let mut csv = CsvTable::new([
        "manager",
        "scenario",
        "finished",
        "exec_us",
        "responses",
        "post_fault_responses",
        "survived",
        "matrix_us",
        "recovery_us",
        "coins_leaked",
        "coins_quarantined",
        "tasks_abandoned",
        "throttle_events",
        "peak_overshoot_mw",
    ]);
    for ((m, s), r) in grid.iter().zip(&reports) {
        csv.row([
            m.to_string(),
            s.to_string(),
            r.finished.to_string(),
            format!("{:.3}", r.exec_time_us()),
            r.responses.len().to_string(),
            post_fault_responses(r).to_string(),
            survived(r, s).to_string(),
            matrix_us(r, s).map_or_else(|| "dead".to_string(), |x| format!("{x:.3}")),
            fmt_opt(r.recovery_us),
            r.coins_leaked.to_string(),
            r.coins_quarantined.to_string(),
            r.tasks_abandoned.to_string(),
            r.throttle_events.to_string(),
            format!("{:.3}", r.peak_overshoot_mw()),
        ]);
    }
    write_csv(ctx, &mut fig, "shootout.csv", &csv);

    let leaked: u64 = reports.iter().map(|r| r.coins_leaked.unsigned_abs()).sum();
    fig.claim(
        "conservation",
        "no scheme leaks a single coin in any cell of the matrix — \
         quarantine accounts for every corpse-trapped ledger",
        format!(
            "{leaked} coins leaked across {} runs ({} schemes x {} \
             scenarios)",
            reports.len(),
            schemes.len(),
            SCENARIOS.len()
        ),
        leaked == 0,
    );

    if ctx.manager.is_some() {
        return fig; // a one-scheme matrix can't support the differentials
    }
    let at = |m, s| grid_at(&grid, &reports, m, s);

    let healthy_ok = schemes.iter().all(|&m| at(m, "healthy").finished);
    fig.claim(
        "healthy-complete",
        "all six schemes finish the healthy run under the shared seed",
        format!(
            "finished: {}",
            schemes
                .iter()
                .map(|&m| format!("{m}={}", at(m, "healthy").finished))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        healthy_ok,
    );

    // Controller death: the CPU tile is only special to the centralized
    // schemes — they stop reallocating forever, everyone decentralized
    // keeps answering.
    let decentralized = [
        ManagerKind::BlitzCoin,
        ManagerKind::TokenSmart,
        ManagerKind::PriceTheory,
    ];
    let centralized = [
        ManagerKind::BcCentralized,
        ManagerKind::CentralizedRoundRobin,
    ];
    let dec_survive = decentralized
        .iter()
        .all(|&m| survived(at(m, "controller-death"), "controller-death"));
    let cen_collapse = centralized
        .iter()
        .all(|&m| !survived(at(m, "controller-death"), "controller-death"));
    fig.claim(
        "controller-death-differential",
        "the same controller-tile kill silences only the centralized \
         schemes; BC, TS, and PT keep reallocating",
        format!(
            "post-fault responses: {}",
            schemes
                .iter()
                .map(|&m| format!("{m}={}", post_fault_responses(at(m, "controller-death"))))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        dec_survive && cen_collapse,
    );

    // Hierarchy break: the same kill aimed at the tile every
    // decentralized scheme leans on differently. TS's sequential ring
    // traps the pool; PT's hierarchy re-elects a supervisor and
    // survives; BC just reclaims a peer.
    let bc_hb = at(ManagerKind::BlitzCoin, "hierarchy-break");
    let ts_hb = at(ManagerKind::TokenSmart, "hierarchy-break");
    let pt_hb = at(ManagerKind::PriceTheory, "hierarchy-break");
    fig.claim(
        "hierarchy-break-differential",
        "one dead tile splits the decentralized schemes: TokenSmart's \
         ring traps the pool and never reallocates again, Price Theory's \
         watchdog re-elects a supervisor and keeps clearing, BlitzCoin \
         reclaims a peer and barely notices",
        format!(
            "post-fault responses: BC={}, TS={} (rings_broken={:.0}), \
             PT={} (takeovers={:.0}); PT recovered {:?} us after the kill",
            post_fault_responses(bc_hb),
            post_fault_responses(ts_hb),
            ts_hb.scheme_stat("ts_rings_broken").unwrap_or(0.0),
            post_fault_responses(pt_hb),
            pt_hb.scheme_stat("pt_takeovers").unwrap_or(0.0),
            pt_hb.recovery_us,
        ),
        survived(bc_hb, "hierarchy-break")
            && !survived(ts_hb, "hierarchy-break")
            && ts_hb.scheme_stat("ts_rings_broken") == Some(1.0)
            && survived(pt_hb, "hierarchy-break")
            && pt_hb.scheme_stat("pt_takeovers") == Some(1.0)
            && pt_hb.recovery_us.is_some(),
    );

    let thermal_ok = schemes.iter().all(|&m| {
        let r = at(m, "sustained-thermal");
        r.finished && r.throttle_events > 0
    });
    fig.claim(
        "sustained-thermal-complete",
        "the tight junction limit throttles every scheme mid-run and \
         every scheme still finishes the workload",
        format!(
            "throttle events: {}",
            schemes
                .iter()
                .map(|&m| format!("{m}={}", at(m, "sustained-thermal").throttle_events))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        thermal_ok,
    );

    fig
}
