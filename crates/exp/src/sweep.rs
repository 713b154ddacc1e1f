//! Shared sweep plumbing for the experiment runners.
//!
//! Every figure's Monte-Carlo grid and per-scheme SoC comparison runs
//! through the helpers here, on the one seeded executor from
//! [`Ctx::exec`] — declarative point grids instead of hand-rolled
//! `for d in d_sweep` loops, the single summarize path of
//! [`TrialStats::from_results`], and one CSV-writing call. Seeds follow
//! the [`blitzcoin_sim::Sweep`] derivation tree
//! (`ctx.seed → point → trial`), so no two sweep points ever consume
//! correlated RNG streams and output is byte-identical at every `--jobs`
//! value.
//!
//! A scheme comparison runs as one (scheme × point) grid: one
//! [`par_units`] fan-out, one CSV whose `manager` column names the
//! scheme (plus one `scheme_stat_cells` column per scheme statistic it
//! reports), and claims read through `grid_at`. The fault studies
//! (`resilience`, `interleave`, `shootout`) share the fault instant,
//! victim tiles and `kill` below, so their scenarios are one and the
//! same fault.

use blitzcoin_core::emulator::ConvergenceResult;
use blitzcoin_core::montecarlo::TrialStats;
use blitzcoin_sim::csv::CsvTable;
use blitzcoin_sim::{FaultPlan, SimRng, Sweep, TileFault, TileFaultKind};
use blitzcoin_soc::{ManagerKind, SimReport};

use crate::{Ctx, FigResult};

/// Runs a Monte-Carlo grid — `trials` emulator runs per point, RNGs
/// derived `ctx.seed → point → trial` — and reduces each point through
/// the shared summarize path. Results pair each point with its stats, in
/// point order.
pub fn mc_sweep<P: Sync>(
    ctx: &Ctx,
    points: Vec<P>,
    trials: u32,
    body: impl Fn(&P, SimRng) -> ConvergenceResult + Sync,
) -> Vec<(P, TrialStats)> {
    let sweep = Sweep::new(points, trials, ctx.seed);
    let stats: Vec<TrialStats> = sweep
        .run(&ctx.exec(), body)
        .into_iter()
        .map(TrialStats::from_results)
        .collect();
    sweep.into_points().into_iter().zip(stats).collect()
}

/// Runs a grid of arbitrary per-point values (`trials` per point, same
/// seed derivation as [`mc_sweep`]) without the convergence-stats
/// reduction — for sweeps whose trial result is not a
/// [`ConvergenceResult`] (e.g. TokenSmart cycle counts).
pub fn value_sweep<P: Sync, R: Send>(
    ctx: &Ctx,
    points: Vec<P>,
    trials: u32,
    body: impl Fn(&P, SimRng) -> R + Sync,
) -> Vec<(P, Vec<R>)> {
    let sweep = Sweep::new(points, trials, ctx.seed);
    let values = sweep.run(&ctx.exec(), body);
    sweep.into_points().into_iter().zip(values).collect()
}

/// Runs one independent unit per distinct item concurrently (full-SoC
/// scheme comparisons, analytic per-class tables), results in item
/// order. An item equal to an earlier one is not run again: it gets a
/// clone of that item's result, so a sweep that maps a seed-independent
/// unit's replicas onto one item (see `replica`) runs it once.
///
/// Seeding is the caller's contract: derive per-point sub-seeds with
/// [`Ctx::subseed`]; reusing one seed across the *schemes of a single
/// point* is intentional (paired comparisons share the workload draw).
pub fn par_units<T: PartialEq + Sync, R: Clone + Send>(
    ctx: &Ctx,
    items: &[T],
    body: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    // Grids hold at most a few hundred items, so a linear scan finds
    // each item's first occurrence.
    let mut distinct: Vec<&T> = Vec::new();
    let slots: Vec<usize> = items
        .iter()
        .map(|item| {
            distinct.iter().position(|d| *d == item).unwrap_or_else(|| {
                distinct.push(item);
                distinct.len() - 1
            })
        })
        .collect();
    let results = ctx.exec().map(&distinct, |_, item| body(item));
    if distinct.len() == items.len() {
        return results;
    }
    slots.into_iter().map(|s| results[s].clone()).collect()
}

/// The seed replica a sweep runs for replica `s` of a `manager` unit:
/// `s` itself for a manager that draws from the run seed, else 0, so
/// every replica of a seed-independent unit is the same item and
/// [`par_units`] runs it once. The replicas' reductions see the same
/// values in the same order as before, because such a unit's report is
/// the same at every seed ([`ManagerKind::draws_from_seed`]).
pub(crate) fn replica(manager: ManagerKind, s: u64) -> u64 {
    if manager.draws_from_seed() {
        s
    } else {
        0
    }
}

/// The result of one (scheme, point) cell of a comparison grid: `grid`
/// lists the cells in the order `results` holds them.
///
/// # Panics
/// Panics on a cell the grid does not hold (a bug in the caller).
pub(crate) fn grid_at<'a, P: PartialEq, R>(
    grid: &[(ManagerKind, P)],
    results: &'a [R],
    manager: ManagerKind,
    point: P,
) -> &'a R {
    let i = grid
        .iter()
        .position(|(m, p)| *m == manager && *p == point)
        .expect("grid point");
    &results[i]
}

/// One CSV cell per `keys` entry: the report's
/// [`SimReport::scheme_stats`] value, or empty where the scheme does not
/// report that statistic.
pub(crate) fn scheme_stat_cells<'a>(
    r: &'a SimReport,
    keys: &'a [&str],
) -> impl Iterator<Item = String> + 'a {
    keys.iter().map(|k| {
        r.scheme_stat(k)
            .map_or_else(String::new, |v| format!("{v:.0}"))
    })
}

/// An optional measurement as a CSV cell: `none` when absent.
pub(crate) fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "none".to_string(), |x| format!("{x:.3}"))
}

/// When every fault study's fail-stop strikes, in NoC cycles (30 us:
/// mid-run for every manager and frame count the studies use).
const FAULT_AT_CYCLE: u64 = 24_000;
/// The same instant in microseconds (800 NoC cycles per us).
pub(crate) const FAULT_AT_US: f64 = 30.0;
/// The victim accelerator for "kill one arbitrary tile" (the 3x3 AV
/// floorplan's NVDLA).
pub(crate) const WORKER_TILE: usize = 4;
/// The CPU tile the centralized controllers run on.
pub(crate) const CONTROLLER_TILE: usize = 3;
/// The 3x3 AV floorplan's first managed tile: a TokenSmart ring stop,
/// the boot-elected Price Theory cluster supervisor, and an ordinary
/// BlitzCoin economy member all at once.
pub(crate) const HIERARCHY_TILE: usize = 0;
/// The tight junction limit (°C) of the in-loop thermal runs: low enough
/// that the 3x3 AV SoC crosses it within tens of µs at a 240 mW budget.
pub(crate) const THERMAL_LIMIT_C: f64 = 46.5;
/// The junction limit (°C) of `thermal-coupling`'s free-running
/// reference runs, which never reach it. A `--thermal-limit` must stay
/// below it, or its throttled runs would repeat the reference runs.
pub const FREE_LIMIT_C: f64 = 105.0;

/// A fault plan that fail-stops `tile` at [`FAULT_AT_CYCLE`].
pub(crate) fn kill(tile: usize) -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.tile_faults.push(TileFault {
        tile,
        at_cycle: FAULT_AT_CYCLE,
        kind: TileFaultKind::FailStop,
    });
    plan
}

/// Responses to activity changes that happened *after* the fault: the
/// direct measure of whether the manager is still reallocating.
pub(crate) fn post_fault_responses(r: &SimReport) -> usize {
    r.responses.iter().filter(|s| s.at_us > FAULT_AT_US).count()
}

/// Writes `csv` under the context's output directory and registers it on
/// the figure — the one CSV emission path of every runner.
pub fn write_csv(ctx: &Ctx, fig: &mut FigResult, name: &str, csv: &CsvTable) {
    let path = ctx.path(name);
    csv.write_to(&path)
        .unwrap_or_else(|e| panic!("write {name}: {e}"));
    fig.output(&path);
}
