//! Property tests for the fault model: whichever tiles a [`FaultPlan`]
//! kills, and whenever, the coin economy must conserve budget and
//! exchanges with dead partners must time out rather than deadlock.
//!
//! Properties run on the seeded harness in `blitzcoin_sim::check`: each
//! case derives an independent RNG from a fixed root seed, so failures
//! reproduce exactly and name the case to replay.

use blitzcoin_sim::check::forall;
use blitzcoin_sim::{ensure, FaultPlan, SimRng, TileFault};
use blitzcoin_soc::prelude::*;

/// A random fault plan for the 3x3 SoC: zero to three fail-stops anywhere
/// on the die. A tile may be listed twice (only its earliest time counts)
/// and a tile may die at boot (`at_cycle` 0).
fn any_plan(rng: &mut SimRng) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for _ in 0..rng.range_usize(0..4) {
        let tile = match plan.tile_faults.last() {
            Some(prev) if rng.chance(0.3) => prev.tile,
            _ => rng.range_usize(0..9),
        };
        let at_cycle = if rng.chance(0.2) {
            0
        } else {
            rng.range_u64(0..60_000)
        };
        plan.tile_faults.push(TileFault { tile, at_cycle });
    }
    plan
}

fn engine_run(manager: ManagerKind, plan: FaultPlan, seed: u64) -> SimReport {
    let soc = floorplan::soc_3x3();
    let wl = workload::av_parallel(&soc, 2);
    Simulation::new(soc, wl, SimConfig::new(manager, 120.0))
        .with_fault_plan(plan)
        .run(seed)
}

#[test]
fn engine_conserves_coins_under_any_fault_plan() {
    // The tentpole invariant: no set of tile deaths may leak or mint a
    // single coin under any manager. The run's own auditor computes the
    // ledger and the oracle audits every commit; we assert both verdicts.
    let (mut repeated, mut at_boot) = (0, 0);
    forall("engine fault conservation", 16, |rng| {
        let plan = any_plan(rng);
        let faults = &plan.tile_faults;
        repeated += usize::from(faults.windows(2).any(|w| w[0].tile == w[1].tile));
        at_boot += usize::from(faults.iter().any(|f| f.at_cycle == 0));
        let seed = rng.next_u64();
        for manager in ManagerKind::ALL {
            let r = engine_run(manager, plan.clone(), seed);
            ensure!(
                r.coins_leaked == 0 && r.oracle_violations == 0,
                "{manager}: leaked {} coins, {} oracle violations ({:?}) under {plan:?} \
                 (seed {seed})",
                r.coins_leaked,
                r.oracle_violations,
                r.oracle_first
            );
        }
        Ok(())
    });
    assert!(
        repeated > 0 && at_boot > 0,
        "no case listed a tile twice ({repeated}) or killed one at boot ({at_boot})"
    );
}

#[test]
fn engine_never_deadlocks_on_a_dead_partner() {
    // Killing any tile mid-run must leave every exchange able to time
    // out and back off: the run always terminates with the workload
    // settled — every task either completed or abandoned with cause.
    forall("engine dead-partner liveness", 12, |rng| {
        let mut plan = FaultPlan::none();
        plan.tile_faults.push(TileFault {
            tile: rng.range_usize(0..9),
            at_cycle: rng.range_u64(0..40_000),
        });
        let r = engine_run(ManagerKind::BlitzCoin, plan.clone(), rng.next_u64());
        ensure!(
            r.finished || r.tasks_abandoned > 0,
            "unsettled run under {plan:?}"
        );
        ensure!(r.coins_leaked == 0, "leaked {} coins", r.coins_leaked);
        Ok(())
    });
}

#[test]
fn fault_decisions_replay_identically() {
    // Determinism is what makes every resilience figure reproducible:
    // the same plan and seed must yield bit-identical reports.
    let mut rng = SimRng::seed(0x5EED);
    let plan = any_plan(&mut rng);
    assert!(!plan.tile_faults.is_empty(), "the drawn plan kills nothing");
    let a = engine_run(ManagerKind::BlitzCoin, plan.clone(), 42);
    let b = engine_run(ManagerKind::BlitzCoin, plan, 42);
    assert_eq!(a.coins_reclaimed, b.coins_reclaimed);
    assert_eq!(a.tasks_abandoned, b.tasks_abandoned);
    assert_eq!(a.exec_time, b.exec_time);
    assert_eq!(a.events, b.events);
    assert_eq!(a.noc, b.noc);
}
