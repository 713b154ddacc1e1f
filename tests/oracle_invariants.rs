//! Property tests for the runtime invariant oracle
//! (`blitzcoin_sim::oracle`): across random SoC configurations and every
//! fault-plan variant, the continuously audited invariants — coin
//! conservation at each exchange commit, the budget ceiling at each
//! actuation, VF legality, event-time monotonicity — must record zero
//! violations; and a deliberately injected, self-cancelling conservation
//! bug must be *caught*, with a replay line naming the invariant, even
//! though the end-of-run ledger balances perfectly.
//!
//! Properties run on the seeded harness in `blitzcoin_sim::check`: each
//! case derives an independent RNG from a fixed root seed, so failures
//! reproduce exactly and name the case to replay.

use blitzcoin_core::emulator::{Emulator, EmulatorConfig, ExchangeMode};
use blitzcoin_core::{DynamicTiming, HotspotCap, PairingMode};
use blitzcoin_noc::Topology;
use blitzcoin_sim::check::forall;
use blitzcoin_sim::json::ToJson;
use blitzcoin_sim::{ensure, FaultPlan, LinkOutage, SimRng, TieBreak, TileFault, TileFaultKind};
use blitzcoin_soc::prelude::*;

/// A random fault plan touching every [`FaultPlan`] dial: lossy planes,
/// delayed hops, jittered messages, link outages, and scheduled tile
/// faults of both kinds.
fn any_plan(rng: &mut SimRng, n_tiles: usize) -> FaultPlan {
    let mut plan = FaultPlan {
        seed: rng.next_u64(),
        ..FaultPlan::default()
    };
    if rng.chance(0.6) {
        plan.drop_prob = vec![rng.unit_f64() * 0.2];
    }
    if rng.chance(0.5) {
        plan.extra_hop_delay_max_cycles = rng.range_u64(0..8);
    }
    if rng.chance(0.5) {
        plan.msg_jitter_cycles = rng.range_u64(0..64);
    }
    if rng.chance(0.4) {
        let from = rng.range_u64(0..30_000);
        plan.outages.push(LinkOutage {
            a: rng.range_usize(0..n_tiles),
            b: rng.range_usize(0..n_tiles),
            from_cycle: from,
            until_cycle: from + rng.range_u64(1..20_000),
        });
    }
    if rng.chance(0.7) {
        plan.tile_faults.push(TileFault {
            tile: rng.range_usize(0..n_tiles),
            at_cycle: rng.range_u64(0..60_000),
            kind: if rng.chance(0.5) {
                TileFaultKind::FailStop
            } else {
                TileFaultKind::Stuck
            },
        });
    }
    plan
}

const MANAGERS: [ManagerKind; 6] = [
    ManagerKind::BlitzCoin,
    ManagerKind::BcCentralized,
    ManagerKind::CentralizedRoundRobin,
    ManagerKind::TokenSmart,
    ManagerKind::PriceTheory,
    ManagerKind::Static,
];

/// A random SoC, workload shape and budget: the 3x3 AV SoC or the 4x4
/// vision SoC, parallel or dependent tasks, one or two frames.
fn any_soc(rng: &mut SimRng) -> (SocConfig, Workload, f64) {
    let four_by_four = rng.chance(0.3);
    let (soc, budget) = if four_by_four {
        (floorplan::soc_4x4(), 400.0 + rng.unit_f64() * 500.0)
    } else {
        (floorplan::soc_3x3(), 55.0 + rng.unit_f64() * 110.0)
    };
    let frames = rng.range_usize(1..3);
    let dep = rng.chance(0.5);
    let wl = match (four_by_four, dep) {
        (false, false) => workload::av_parallel(&soc, frames),
        (false, true) => workload::av_dependent(&soc, frames),
        (true, false) => workload::vision_parallel(&soc, frames),
        (true, true) => workload::vision_dependent(&soc, frames),
    };
    (soc, wl, budget)
}

#[test]
fn engine_oracle_is_clean_across_random_socs() {
    // Any floorplan, budget, manager, and workload shape: the run's own
    // oracle (conservation at every commit, ceiling at every actuation,
    // VF legality, time monotonicity) must stay silent.
    forall("engine oracle clean on random SoCs", 12, |rng| {
        let (soc, wl, budget) = any_soc(rng);
        let manager = *rng.choose(&MANAGERS);
        let seed = rng.next_u64();
        let r = Simulation::new(soc, wl, SimConfig::new(manager, budget)).run(seed);
        ensure!(
            r.oracle_violations == 0,
            "{manager} at {budget:.0} mW (seed {seed:#x}): {}",
            r.oracle_first.unwrap_or_default()
        );
        Ok(())
    });
}

#[test]
fn only_a_seed_drawing_manager_depends_on_the_run_seed() {
    // The rule that lets a sweep run one replica of a unit whose manager
    // does not draw from the run seed: over random SoCs, workloads, fault
    // plans and tie-breaks, two seeds give byte-identical reports, per-tile
    // traces included. BlitzCoin, which draws, must differ somewhere.
    let mut bc_differs = 0;
    forall("non-drawing managers ignore the seed", 12, |rng| {
        let (soc, wl, budget) = any_soc(rng);
        let plan = if rng.chance(0.5) {
            any_plan(rng, soc.topology.len())
        } else {
            FaultPlan::none()
        };
        let tie_break = match rng.range_u64(0..3) {
            0 => TieBreak::Fifo,
            1 => TieBreak::Lifo,
            _ => TieBreak::Permuted(rng.next_u64()),
        };
        let (a, b) = (rng.next_u64(), rng.next_u64());
        for manager in MANAGERS {
            let cfg = SimConfig {
                tie_break,
                ..SimConfig::new(manager, budget)
            };
            let sim = Simulation::new(soc.clone(), wl.clone(), cfg)
                .with_fault_plan(plan.clone())
                .with_tile_traces();
            let [ra, rb] = [a, b].map(|seed| sim.run(seed).to_json().to_string());
            if manager.draws_from_seed() {
                bc_differs += usize::from(ra != rb);
            } else {
                ensure!(
                    ra == rb,
                    "{manager} under {tie_break} and {plan:?}: seeds {a:#x} and {b:#x} \
                     gave different reports"
                );
            }
        }
        Ok(())
    });
    assert!(bc_differs > 0, "BlitzCoin never depended on the seed");
}

#[test]
fn engine_oracle_is_clean_under_every_fault_plan_variant() {
    // Faults drain, quarantine, drop, delay, and jitter — none of which
    // may break conservation, the ceiling, or time monotonicity. The
    // continuous oracle must agree with the end-of-run ledger audit.
    forall("engine oracle clean under faults", 12, |rng| {
        let soc = floorplan::soc_3x3();
        let plan = any_plan(rng, 9);
        let wl = workload::av_parallel(&soc, 2);
        let seed = rng.next_u64();
        let r = Simulation::new(soc, wl, SimConfig::new(ManagerKind::BlitzCoin, 120.0))
            .with_fault_plan(plan.clone())
            .run(seed);
        ensure!(
            r.oracle_violations == 0,
            "oracle fired under {plan:?} (seed {seed:#x}): {}",
            r.oracle_first.unwrap_or_default()
        );
        ensure!(r.coins_leaked == 0, "leaked {} coins", r.coins_leaked);
        Ok(())
    });
}

#[test]
fn tokensmart_oracle_is_clean_even_when_the_ring_breaks() {
    // TokenSmart's conservation story is harder than BlitzCoin's: coins
    // travel *outside* tile ledgers in the circulating pool, and a fault
    // can trap that pool mid-transit forever. The per-visit conservation
    // audit (ledger + pool) and the end-of-run leak check must both stay
    // silent under every fault-plan variant, including plans that
    // provably break the ring.
    forall("tokensmart oracle clean under ring faults", 12, |rng| {
        let soc = floorplan::soc_3x3();
        let mut plan = any_plan(rng, 9);
        if rng.chance(0.6) {
            // aim squarely at a ring stop so the token lands on a corpse
            plan.tile_faults.push(TileFault {
                tile: *rng.choose(&[0usize, 1, 2, 4, 6, 7]),
                at_cycle: rng.range_u64(0..40_000),
                kind: if rng.chance(0.5) {
                    TileFaultKind::FailStop
                } else {
                    TileFaultKind::Stuck
                },
            });
        }
        let wl = workload::av_parallel(&soc, 2);
        let seed = rng.next_u64();
        let r = Simulation::new(soc, wl, SimConfig::new(ManagerKind::TokenSmart, 120.0))
            .with_fault_plan(plan.clone())
            .run(seed);
        ensure!(
            r.oracle_violations == 0,
            "TS oracle fired under {plan:?} (seed {seed:#x}): {}",
            r.oracle_first.unwrap_or_default()
        );
        ensure!(r.coins_leaked == 0, "TS leaked {} coins", r.coins_leaked);
        // the end-of-run audit already binds ledger + trapped pool to the
        // initial total (owns_coin_economy), so leaked == 0 covers the
        // broken-ring case: the trapped pool is counted, not minted away
        Ok(())
    });
}

#[test]
fn price_theory_oracle_is_clean_even_when_the_supervisor_dies() {
    // Price Theory concentrates each cluster's session state in one
    // supervisor and moves coins through an escrow that lives outside
    // tile ledgers while grants are in flight. Killing the supervisor —
    // on top of any random fault plan — must hand the market to a member
    // watchdog without tripping the per-commit conservation audit or
    // leaking the escrow.
    forall(
        "price theory oracle clean under supervisor death",
        12,
        |rng| {
            let soc = floorplan::soc_3x3();
            let mut plan = any_plan(rng, 9);
            if rng.chance(0.6) {
                // aim squarely at the boot-elected supervisor (the first
                // managed tile) so the takeover path runs, not just the
                // member-reclaim path
                plan.tile_faults.push(TileFault {
                    tile: 0,
                    at_cycle: rng.range_u64(0..40_000),
                    kind: if rng.chance(0.5) {
                        TileFaultKind::FailStop
                    } else {
                        TileFaultKind::Stuck
                    },
                });
            }
            let wl = workload::av_parallel(&soc, 2);
            let seed = rng.next_u64();
            let r = Simulation::new(soc, wl, SimConfig::new(ManagerKind::PriceTheory, 120.0))
                .with_fault_plan(plan.clone())
                .run(seed);
            ensure!(
                r.oracle_violations == 0,
                "PT oracle fired under {plan:?} (seed {seed:#x}): {}",
                r.oracle_first.unwrap_or_default()
            );
            ensure!(r.coins_leaked == 0, "PT leaked {} coins", r.coins_leaked);
            // owns_coin_economy binds ledgers + escrow to the initial total,
            // so leaked == 0 covers the mid-grant takeover: in-flight escrow
            // is inherited or quarantined, never minted away
            Ok(())
        },
    );
}

/// Refresh intervals (NoC cycles) and back-off multipliers λ the
/// emulator oracle test cycles through; each interval's back-off cap is
/// 16x it, so 256 reaches the 4096-cycle cap.
const TIMINGS: [(u64, f64); 5] = [(64, 2.0), (16, 2.0), (256, 2.0), (64, 1.0), (64, 8.0)];

/// Per-tile coin targets: the paper's 32 plus the coin-precision
/// extremes.
const TARGETS: [u64; 3] = [32, 8, 128];

/// Random-pairing modes and hotspot caps, which act only in 1-way
/// exchanges.
const ONE_WAY_KNOBS: [(PairingMode, Option<i64>); 4] = [
    (PairingMode::ShiftRegister { period: 16 }, None),
    (PairingMode::ShiftRegister { period: 8 }, Some(200)),
    (PairingMode::ShiftRegister { period: 32 }, None),
    (PairingMode::Disabled, None),
];

#[test]
fn emulator_oracle_conserves_for_both_exchange_modes() {
    // The behavioural emulator audits the total coin ledger after every
    // exchange step; any topology, mode, initial distribution, fault
    // plan and timing, pairing, cap or target setting must keep it
    // exact. `forall` runs its cases in order, so `case` is the case
    // index a failure names.
    let (mut case, mut one_way) = (0, 0);
    forall("emulator oracle conservation", 20, |rng| {
        let d = rng.range_usize(3..7);
        let topo = if rng.chance(0.5) {
            Topology::mesh(d, d)
        } else {
            Topology::torus(d, d)
        };
        let mode = if rng.chance(0.5) {
            ExchangeMode::OneWay
        } else {
            ExchangeMode::FourWay
        };
        let (refresh, lambda) = TIMINGS[case % TIMINGS.len()];
        let target = TARGETS[case % TARGETS.len()];
        case += 1;
        let (pairing, cap) = if mode == ExchangeMode::OneWay {
            one_way += 1;
            ONE_WAY_KNOBS[one_way % ONE_WAY_KNOBS.len()]
        } else {
            ONE_WAY_KNOBS[0]
        };
        let cfg = EmulatorConfig {
            mode,
            refresh_cycles: refresh,
            dynamic_timing: Some(DynamicTiming {
                base_cycles: refresh,
                max_cycles: 16 * refresh,
                lambda,
                ..DynamicTiming::default()
            }),
            pairing,
            hotspot_cap: cap.map(HotspotCap::new),
            stop_at_convergence: false,
            max_cycles: 150_000,
            quiescence_exchanges: 1_500,
            ..EmulatorConfig::default()
        };
        let mut emu =
            Emulator::new(topo, vec![target; d * d], cfg).with_fault_plan(any_plan(rng, d * d));
        emu.init_uniform_random(rng);
        let before = emu.total_coins();
        emu.run(rng);
        ensure!(
            emu.oracle().count() == 0,
            "emulator oracle fired: {}",
            emu.oracle().first_replay_line().unwrap_or_default()
        );
        ensure!(
            emu.total_coins() == before,
            "total drifted {} -> {}",
            before,
            emu.total_coins()
        );
        Ok(())
    });
    assert!(
        one_way >= ONE_WAY_KNOBS.len(),
        "only {one_way} 1-way cases: some pairing or cap setting never ran"
    );
}

#[test]
#[cfg_attr(
    not(any(feature = "oracle", debug_assertions)),
    ignore = "needs the oracle compiled in"
)]
fn injected_conservation_bug_is_caught_with_replay_line() {
    // The proof the auditing is *continuous*: mint one coin mid-run and
    // burn it on the next commit. The end-of-run ledger balances — the
    // CoinAudit sees nothing — so only the per-commit oracle can catch
    // the transient, and its first violation must carry a well-formed
    // replay line.
    let soc = floorplan::soc_3x3();
    let wl = workload::av_parallel(&soc, 2);
    let r = Simulation::new(soc, wl, SimConfig::new(ManagerKind::BlitzCoin, 120.0))
        .with_conservation_bug(5_000)
        .run(7);
    assert!(
        r.oracle_violations > 0,
        "the oracle must catch the injected mint/burn"
    );
    assert_eq!(
        r.coins_leaked, 0,
        "the bug self-cancels: the end-of-run audit must stay blind to it"
    );
    let line = r.oracle_first.expect("first violation kept");
    assert!(
        line.contains("invariant `coin-conservation` violated at cycle"),
        "replay line must name the invariant and cycle: {line}"
    );
    assert!(
        line.contains("replay with blitzcoin-soc Simulation::run at seed"),
        "replay line must say how to reproduce: {line}"
    );
}

#[test]
fn healthy_run_reports_zero_violations_in_its_report() {
    // The field experiments assert on: a clean run carries an explicit
    // zero and no replay line.
    let soc = floorplan::soc_3x3();
    let wl = workload::av_parallel(&soc, 2);
    let r = Simulation::new(soc, wl, SimConfig::new(ManagerKind::BlitzCoin, 120.0)).run(7);
    assert_eq!(r.oracle_violations, 0);
    assert!(r.oracle_first.is_none());
}
