//! The interleaving fuzzer as an experiment: "no single point of
//! failure" must also mean "no hidden ordering dependency".
//!
//! Every SoC run pops same-timestamp events in FIFO scheduling order —
//! one legal serialization of what real concurrent hardware would do in
//! parallel. This experiment re-runs every cycle-level manager, healthy
//! and with its mid-run worker kill, under [`Ctx::orderings`] seeded
//! [`TieBreak::Permuted`] shuffles of those same-timestamp batches, and
//! asserts that nothing the reproduction *claims* depends on the one
//! ordering FIFO happens to pick:
//!
//! - the runtime oracle (coin conservation, budget ceiling, VF legality,
//!   flit conservation) stays silent under every ordering, and
//! - the order-independent report facts — the run settles, the economy
//!   leaks nothing — match the FIFO baseline exactly.
//!
//! Trajectories legally diverge (a different interleaving actuates
//! different frequencies at different instants, so execution times and
//! response latencies shift); a forbidden divergence is reported through
//! the oracle as [`Invariant::OrderIndependence`], which makes the CLI
//! exit nonzero — the CI smoke leg in `scripts/ci.sh` rides on exactly
//! that. Each divergence is bisected to the first event pop where the
//! shuffled run departed from FIFO and printed as a one-paste replay
//! line.

use blitzcoin_sim::csv::CsvTable;
use blitzcoin_sim::interleave::{self, RunFacts};
use blitzcoin_sim::oracle::{Invariant, Oracle};
use blitzcoin_sim::TieBreak;
use blitzcoin_soc::prelude::*;

use crate::sweep::{grid_at, kill, par_units, write_csv, WORKER_TILE};
use crate::{Ctx, FigResult};

/// Every cycle-level scheme, in the row and claim order of the study.
const SCHEMES: [ManagerKind; 6] = [
    ManagerKind::BlitzCoin,
    ManagerKind::BcCentralized,
    ManagerKind::CentralizedRoundRobin,
    ManagerKind::TokenSmart,
    ManagerKind::Static,
    ManagerKind::PriceTheory,
];

/// Workload scenarios: healthy, and the `resilience` study's mid-run
/// worker kill, so the fuzzed fault scenario is the measured one.
const SCENARIOS: [(&str, bool); 2] = [("healthy", false), ("kill-worker", true)];

fn build(manager: ManagerKind, faulted: bool, frames: usize, tie: TieBreak) -> Simulation {
    let soc = floorplan::soc_3x3();
    let wl = workload::av_parallel(&soc, frames);
    let cfg = SimConfig {
        tie_break: tie,
        ..SimConfig::new(manager, 120.0)
    };
    let sim = Simulation::new(soc, wl, cfg);
    if faulted {
        sim.with_fault_plan(kill(WORKER_TILE))
    } else {
        sim
    }
}

/// The order-independent facts of one run. Everything else in the report
/// (execution time, response samples, abandoned-task counts under the
/// fault) may legally differ between orderings; these must not.
fn facts_of(r: &SimReport, faulted: bool) -> RunFacts {
    let mut facts = vec![("coins-leaked".to_string(), r.coins_leaked.to_string())];
    if faulted {
        // the dead tile's tasks are abandoned, not completed — what must
        // hold is that the run settles instead of hitting the horizon
        facts.push((
            "settled".to_string(),
            (r.finished || r.tasks_abandoned > 0).to_string(),
        ));
    } else {
        facts.push(("finished".to_string(), r.finished.to_string()));
    }
    RunFacts {
        facts,
        violations: r.oracle_violations,
        first_violation: r.oracle_first.clone(),
    }
}

/// The `interleave` experiment: every cycle-level manager, healthy and
/// with a mid-run worker kill, fuzzed across `ctx.orderings()` shuffled
/// same-timestamp orderings.
pub fn interleave(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new(
        "interleave",
        "Interleaving fuzzer: invariants across shuffled event orderings",
    );
    let frames = if ctx.quick { 2 } else { 4 };
    let orderings = ctx.orderings();
    let ties: Vec<TieBreak> = std::iter::once(TieBreak::Fifo)
        .chain(interleave::tie_breaks(ctx.seed, orderings))
        .collect();

    // All (scheme, scenario, ordering) runs are independent simulations,
    // so the whole grid fans out at once; the FIFO ordering is each
    // (scheme, scenario) pair's baseline.
    let grid: Vec<(ManagerKind, (usize, TieBreak))> = SCHEMES
        .iter()
        .flat_map(|&m| (0..SCENARIOS.len()).map(move |si| (m, si)))
        .flat_map(|(m, si)| ties.iter().map(move |&tie| (m, (si, tie))))
        .collect();
    let all_facts = par_units(ctx, &grid, |&(m, (si, tie))| {
        facts_of(
            &ctx.run_sim(&build(m, SCENARIOS[si].1, frames, tie), ctx.seed),
            SCENARIOS[si].1,
        )
    });
    let at = |m, si, tie| grid_at(&grid, &all_facts, m, (si, tie));

    // Forbidden divergences surface through the oracle: the CLI (and the
    // CI interleave leg) exits nonzero whenever the per-experiment
    // violation delta is nonzero, so a divergence can never pass silently.
    let mut oracle =
        Oracle::new("blitzcoin-exp interleave", ctx.seed).with_tie_break(ctx.tie_break);
    let mut csv = CsvTable::new([
        "manager",
        "scenario",
        "orderings",
        "divergences",
        "violations",
    ]);
    for m in SCHEMES {
        let mut divergences = 0u64;
        for (si, &(scenario, faulted)) in SCENARIOS.iter().enumerate() {
            let runs: Vec<(TieBreak, RunFacts)> = ties[1..]
                .iter()
                .map(|&tie| (tie, at(m, si, tie).clone()))
                .collect();
            let name = format!("interleave {m}/{scenario}");
            let baseline = at(m, si, TieBreak::Fifo);
            let outcome = interleave::compare(&name, ctx.seed, baseline, &runs, |tie, cap| {
                build(m, faulted, frames, tie).run_traced(ctx.seed, cap).1
            });
            for d in &outcome.divergences {
                eprintln!("{}", d.replay_line());
                oracle.report(
                    Invariant::OrderIndependence,
                    d.first_diff.map_or(0, |(t, _)| t / 1250),
                    format!("{}: `{}`", d.name, d.fact),
                    d.expected.clone(),
                    format!("{} under {}", d.actual, d.tie_break),
                );
            }
            divergences += outcome.divergences.len() as u64;
            csv.row([
                m.to_string(),
                scenario.to_string(),
                orderings.to_string(),
                outcome.divergences.len().to_string(),
                outcome.violations.to_string(),
            ]);
        }
        fig.claim(
            format!("interleave.{m}"),
            "no result depends on the FIFO serialization of same-timestamp \
             events: invariants and order-independent facts hold under \
             every shuffled ordering",
            format!(
                "{divergences} divergences across {orderings} shuffled \
                 orderings x {} scenarios",
                SCENARIOS.len()
            ),
            divergences == 0,
        );
    }
    write_csv(ctx, &mut fig, "interleave.csv", &csv);
    fig
}
