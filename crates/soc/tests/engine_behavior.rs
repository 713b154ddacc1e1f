//! Behavioral contract of the simulation engine across every manager
//! scheme: fault resilience, packet-loss tolerance, determinism, budget
//! enforcement, response-time ordering, and coin conservation.
//!
//! These tests predate the engine/policy split and pin its observable
//! behavior; they intentionally exercise only the public API.

use blitzcoin_sim::{FaultPlan, SimTime, TileFault, TileFaultKind};
use blitzcoin_soc::floorplan::{soc_3x3, soc_4x4};
use blitzcoin_soc::workload::{av_dependent, av_parallel, WorkloadBuilder};
use blitzcoin_soc::{ManagerKind, SimConfig, SimReport, Simulation};

fn run(manager: ManagerKind, budget: f64, frames: usize) -> SimReport {
    let soc = soc_3x3();
    let wl = av_parallel(&soc, frames);
    Simulation::new(soc, wl, SimConfig::new(manager, budget)).run(7)
}

fn fault_run(manager: ManagerKind, plan: FaultPlan, seed: u64) -> SimReport {
    let soc = soc_3x3();
    let wl = av_parallel(&soc, 2);
    Simulation::new(soc, wl, SimConfig::new(manager, 120.0))
        .with_fault_plan(plan)
        .run(seed)
}

/// Kill one tile at 30 us (mid-run for the 2-frame AV workload).
fn kill_plan(tile: usize, kind: TileFaultKind) -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.tile_faults.push(TileFault {
        tile,
        at_cycle: 24_000,
        kind,
    });
    plan
}

#[test]
fn blitzcoin_survives_tile_death() {
    // fail-stop the NVDLA (tile 4): its tasks are lost, but the
    // survivors reclaim its coins, re-converge, and finish theirs
    let r = fault_run(
        ManagerKind::BlitzCoin,
        kill_plan(4, TileFaultKind::FailStop),
        7,
    );
    assert!(!r.finished, "the dead tile's tasks cannot complete");
    assert_eq!(r.tasks_abandoned, 2, "both NVDLA frames abandoned");
    assert_eq!(r.coins_leaked, 0, "conservation must survive the fault");
    assert!(r.coins_reclaimed > 0, "neighbors should drain the corpse");
    assert!(
        r.recovery_us.is_some(),
        "survivors should re-converge after the death"
    );
}

#[test]
fn stuck_tile_coins_are_quarantined_not_leaked() {
    let r = fault_run(
        ManagerKind::BlitzCoin,
        kill_plan(4, TileFaultKind::Stuck),
        7,
    );
    assert_eq!(r.coins_leaked, 0);
    assert_eq!(r.coins_reclaimed, 0, "stuck coins are never taken");
    assert!(
        r.coins_quarantined > 0,
        "a wedged NVDLA holds its allocation"
    );
    assert_eq!(r.tasks_abandoned, 2);
}

#[test]
fn controller_death_collapses_centralized_managers() {
    // same fault magnitude — one tile — but aimed at the controller:
    // BlitzCoin degrades gracefully, the centralized schemes stop
    // reallocating entirely
    for m in [
        ManagerKind::BcCentralized,
        ManagerKind::CentralizedRoundRobin,
    ] {
        let healthy = run(m, 120.0, 2);
        let hurt = fault_run(m, kill_plan(3, TileFaultKind::FailStop), 7);
        assert!(
            hurt.responses.len() < healthy.responses.len(),
            "{m}: a dead controller must stop answering ({} vs {})",
            hurt.responses.len(),
            healthy.responses.len()
        );
    }
    let bc = fault_run(
        ManagerKind::BlitzCoin,
        kill_plan(3, TileFaultKind::FailStop),
        7,
    );
    assert!(
        bc.finished,
        "the CPU tile is not part of BlitzCoin's economy"
    );
}

#[test]
fn centralized_sweeps_write_past_a_dead_accelerator() {
    // a fail-stop that spares the controller: later sweeps still plan the
    // corpse (commanded to 0, its writes landing on nothing), the
    // survivors finish their work, and only the corpse's tasks are lost
    for m in [
        ManagerKind::BcCentralized,
        ManagerKind::CentralizedRoundRobin,
    ] {
        let r = fault_run(m, kill_plan(4, TileFaultKind::FailStop), 7);
        assert_eq!(r.tasks_abandoned, 2, "{m}");
        assert_eq!(r.coins_leaked, 0, "{m}");
    }
}

#[test]
fn packet_loss_never_deadlocks_or_leaks() {
    // 20% loss on every plane: exchanges abort transactionally and
    // retry with back-off, so the run still finishes and conserves
    let mut plan = FaultPlan::none();
    plan.seed = 99;
    plan.drop_prob = vec![0.2];
    let r = fault_run(ManagerKind::BlitzCoin, plan, 7);
    assert!(r.finished, "drops must delay, not deadlock");
    assert_eq!(r.coins_leaked, 0);
    assert!(r.noc.total_dropped() > 0, "the plan should actually bite");
}

#[test]
fn faulted_runs_are_deterministic() {
    let mut plan = kill_plan(4, TileFaultKind::FailStop);
    plan.drop_prob = vec![0.1];
    plan.seed = 5;
    let a = fault_run(ManagerKind::BlitzCoin, plan.clone(), 9);
    let b = fault_run(ManagerKind::BlitzCoin, plan, 9);
    assert_eq!(a.exec_time, b.exec_time);
    assert_eq!(a.events, b.events);
    assert_eq!(a.responses, b.responses);
    assert_eq!(a.coins_reclaimed, b.coins_reclaimed);
    assert_eq!(a.recovery_us, b.recovery_us);
}

#[test]
fn dead_partner_exchange_times_out_and_backs_off() {
    // an immediate fail-stop: every neighbor of tile 4 sees silence
    // from the first exchange on, and the heartbeat machinery must
    // both terminate and keep the survivors exchanging
    let mut plan = FaultPlan::none();
    plan.tile_faults.push(TileFault {
        tile: 4,
        at_cycle: 0,
        kind: TileFaultKind::FailStop,
    });
    let r = fault_run(ManagerKind::BlitzCoin, plan, 3);
    assert_eq!(r.coins_leaked, 0);
    assert!(r.coins_reclaimed > 0, "boot-time corpse must be drained");
    assert_eq!(r.tasks_abandoned, 2);
}

#[test]
fn all_managers_finish_the_workload() {
    for m in ManagerKind::ALL {
        let r = run(m, 120.0, 1);
        assert!(r.finished, "{m} did not finish");
        assert!(r.exec_time_us() > 100.0, "{m}: {}", r.exec_time_us());
    }
}

#[test]
fn a_repeated_dependency_is_waited_for_once() {
    // a task naming one dependency twice builds, and its one completion
    // releases it under every manager
    let soc = soc_3x3();
    let mut b = WorkloadBuilder::new();
    let t0 = b.task(soc.managed_tiles()[0], 50.0, vec![]);
    let t1 = b.task(soc.managed_tiles()[1], 50.0, vec![t0, t0]);
    let wl = b.build("repeated dependency", &soc);
    assert_eq!(wl.tasks()[t1.0].deps, vec![t0]);
    for m in ManagerKind::ALL {
        let sim = Simulation::new(soc.clone(), wl.clone(), SimConfig::new(m, 120.0));
        let r = sim.run(7);
        assert!(r.finished, "{m} did not finish");
        assert_eq!(r.tasks_abandoned, 0, "{m}");
    }
}

#[test]
fn bc_beats_crr_on_throughput() {
    let bc = run(ManagerKind::BlitzCoin, 120.0, 2);
    let crr = run(ManagerKind::CentralizedRoundRobin, 120.0, 2);
    assert!(
        bc.exec_time_us() < crr.exec_time_us(),
        "BC {} vs C-RR {}",
        bc.exec_time_us(),
        crr.exec_time_us()
    );
}

#[test]
fn bc_response_is_microseconds_and_faster_than_centralized() {
    let bc = run(ManagerKind::BlitzCoin, 120.0, 2);
    let bcc = run(ManagerKind::BcCentralized, 120.0, 2);
    let crr = run(ManagerKind::CentralizedRoundRobin, 120.0, 2);
    let (rb, rc, rr) = (
        bc.mean_response_us().expect("bc responses"),
        bcc.mean_response_us().expect("bcc responses"),
        crr.mean_response_us().expect("crr responses"),
    );
    assert!(rb < rc, "BC {rb} vs BC-C {rc}");
    assert!(rc < rr, "BC-C {rc} vs C-RR {rr}");
    assert!(rb < 5.0, "BC response should be ~1 us scale: {rb}");
}

#[test]
fn budget_is_enforced_up_to_actuation_transients() {
    for m in [ManagerKind::BlitzCoin, ManagerKind::BcCentralized] {
        let r = run(m, 120.0, 2);
        // allow one coin of quantization plus actuation transients
        assert!(
            r.peak_overshoot_mw() <= 0.15 * r.budget_mw,
            "{m}: peak {} over budget {}",
            r.peak_power_mw(),
            r.budget_mw
        );
        assert!(
            r.utilization() > 0.3,
            "{m}: utilization {}",
            r.utilization()
        );
    }
}

#[test]
fn higher_budget_runs_faster() {
    let lo = run(ManagerKind::BlitzCoin, 60.0, 2);
    let hi = run(ManagerKind::BlitzCoin, 120.0, 2);
    assert!(hi.exec_time_us() < lo.exec_time_us());
}

#[test]
fn deterministic_given_seed() {
    let soc = soc_3x3();
    let wl = av_dependent(&soc, 2);
    let cfg = SimConfig::new(ManagerKind::BlitzCoin, 60.0);
    let a = Simulation::new(soc.clone(), wl.clone(), cfg).run(5);
    let b = Simulation::new(soc, wl, cfg).run(5);
    assert_eq!(a.exec_time, b.exec_time);
    assert_eq!(a.responses, b.responses);
    assert_eq!(a.events, b.events);
}

#[test]
fn dependent_workload_runs_under_low_budget() {
    let soc = soc_3x3();
    let wl = av_dependent(&soc, 2);
    let r = Simulation::new(soc, wl, SimConfig::new(ManagerKind::BlitzCoin, 60.0)).run(3);
    assert!(r.finished);
    // WL-Dep at 60 mW is feasible because only a subset runs at a time
    assert!(
        r.utilization() > 0.2 && r.utilization() <= 1.1,
        "{}",
        r.utilization()
    );
}

#[test]
fn coin_conservation_in_bc_runs() {
    let soc = soc_3x3();
    let wl = av_parallel(&soc, 1);
    let sim =
        Simulation::new(soc, wl, SimConfig::new(ManagerKind::BlitzCoin, 120.0)).with_tile_traces();
    let pool = sim.pool() as f64;
    let r = sim.run(11);
    let total_end: f64 = r.tile_traces().coins.iter().map(|t| t.last_value()).sum();
    assert!(
        (total_end - pool).abs() < 1e-9,
        "pool {pool} ended as {total_end}"
    );
}

#[test]
fn unmanaged_accelerators_run_at_fmax_outside_the_budget() {
    // the FFT No-PM baseline tile of the fabricated SoC: it executes
    // tasks at full speed and its power is not charged to the managed
    // budget
    use blitzcoin_soc::floorplan::{soc_6x6, TileKind};
    use blitzcoin_soc::workload::WorkloadBuilder;
    let soc = soc_6x6();
    let no_pm = soc
        .accelerator_tiles()
        .into_iter()
        .find(|t| matches!(soc.tiles[t.index()], TileKind::UnmanagedAccelerator(_)))
        .expect("6x6 has a No-PM tile");
    let mut b = WorkloadBuilder::new();
    b.task(no_pm, 128.0, vec![]);
    let wl = b.build("no-pm-only", &soc);
    let budget = soc.total_p_max() * 0.33;
    let r = Simulation::new(soc, wl, SimConfig::new(ManagerKind::BlitzCoin, budget)).run(2);
    assert!(r.finished);
    // 128 kcycles at the FFT's 800 MHz F_max = 160 us, plus actuation
    assert!(
        (r.exec_time_us() - 160.0).abs() < 5.0,
        "No-PM tile should run at F_max: {} us",
        r.exec_time_us()
    );
    // its power is not in the managed trace
    assert!(r.avg_power_mw() < 0.05 * budget);
}

#[test]
fn clusters_partition_the_exchange() {
    let soc = soc_3x3();
    // two clusters: {0,1,2} (top row accs) and {4,6,7}
    let clusters = vec![vec![0usize, 1, 2], vec![4, 6, 7]];
    let wl = av_parallel(&soc, 1);
    let sim = Simulation::with_clusters(
        soc,
        wl,
        SimConfig::new(ManagerKind::BlitzCoin, 120.0),
        clusters.clone(),
    )
    .with_tile_traces();
    let r = sim.run(5);
    assert!(r.finished);
    let coins = &r.tile_traces().coins;
    // coins never cross the cluster boundary: each cluster's total is
    // constant over the whole run
    for members in &clusters {
        let slots: Vec<usize> = members
            .iter()
            .map(|t| r.managed_tiles.iter().position(|&m| m == *t).unwrap())
            .collect();
        let at = |time: SimTime| -> f64 { slots.iter().map(|&s| coins[s].value_at(time)).sum() };
        let start = at(SimTime::ZERO);
        let end = at(r.exec_time);
        assert!(
            (start - end).abs() < 1e-9,
            "cluster total drifted: {start} -> {end}"
        );
    }
}

#[test]
#[should_panic(expected = "partition")]
fn bad_cluster_partition_rejected() {
    let soc = soc_3x3();
    let wl = av_parallel(&soc, 1);
    Simulation::with_clusters(
        soc,
        wl,
        SimConfig::new(ManagerKind::BlitzCoin, 120.0),
        vec![vec![0, 1]], // misses tiles 2, 4, 6, 7
    );
}

#[test]
fn crr_rotation_shares_the_max_grant_over_time() {
    // over a long run, rotation gives every class some time above its
    // minimum frequency (fairness), visible in the frequency traces
    let soc = soc_3x3();
    let wl = av_parallel(&soc, 3);
    let r = Simulation::new(
        soc,
        wl,
        SimConfig::new(ManagerKind::CentralizedRoundRobin, 120.0),
    )
    .with_tile_traces()
    .run(9);
    assert!(r.finished);
    let mut upgraded = 0;
    for (slot, trace) in r.tile_traces().freq.iter().enumerate() {
        let max_seen = trace.points().iter().fold(0.0f64, |m, p| m.max(p.value));
        // every FFT/Viterbi tile gets at least one Max grant; count them
        let _ = slot;
        if max_seen >= 590.0 {
            upgraded += 1;
        }
    }
    assert!(
        upgraded >= 3,
        "rotation should upgrade several tiles, got {upgraded}"
    );
}

#[test]
fn horizon_aborts_unfinishable_runs() {
    // The engine's 400 ms safety horizon: a single task that needs
    // longer than that even at F_max (under 1 GHz, 10^9 kcycles take
    // over 1,000 s) ends the run unfinished, while a short one on the
    // same tile completes.
    let soc = soc_3x3();
    let tile = soc.managed_tiles()[0];
    let run = |work_kcycles: f64| {
        let mut b = WorkloadBuilder::new();
        b.task(tile, work_kcycles, Vec::new());
        let wl = b.build("one-task", &soc);
        Simulation::new(soc.clone(), wl, SimConfig::new(ManagerKind::Static, 120.0)).run(1)
    };
    assert!(!run(1e9).finished);
    assert!(run(1e3).finished);
}

#[test]
fn bcc_coin_traces_reflect_central_allocations() {
    let soc = soc_3x3();
    let wl = av_parallel(&soc, 1);
    let sim = Simulation::new(soc, wl, SimConfig::new(ManagerKind::BcCentralized, 120.0))
        .with_tile_traces();
    let pool = sim.pool() as i64;
    let r = sim.run(3);
    // mid-run, the recorded coin counts sum to the pool (the central
    // unit redistributes but conserves)
    let mid = SimTime::from_us_f64(r.exec_time_us() / 2.0);
    let total: f64 = r.tile_traces().coins.iter().map(|t| t.value_at(mid)).sum();
    assert!(
        (total - pool as f64).abs() <= 1.0,
        "total {total} vs pool {pool}"
    );
}

#[test]
fn four_way_exchange_mode_works_in_engine() {
    let soc = soc_3x3();
    let wl = av_parallel(&soc, 1);
    let mut cfg = SimConfig::new(ManagerKind::BlitzCoin, 120.0);
    cfg.exchange_mode = blitzcoin_core::ExchangeMode::FourWay;
    let sim = Simulation::new(soc, wl, cfg).with_tile_traces();
    let pool = sim.pool() as f64;
    let r = sim.run(13);
    assert!(r.finished);
    assert!(r.mean_response_us().is_some());
    let total_end: f64 = r.tile_traces().coins.iter().map(|t| t.last_value()).sum();
    assert!((total_end - pool).abs() < 1e-9, "conservation under 4-way");
}

#[test]
fn four_by_four_runs() {
    let soc = soc_4x4();
    let wl = blitzcoin_soc::workload::vision_parallel(&soc, 1);
    let r = Simulation::new(soc, wl, SimConfig::new(ManagerKind::BlitzCoin, 450.0)).run(1);
    assert!(r.finished);
    assert!(r.mean_response_us().is_some());
}

#[test]
fn tokensmart_runs_end_to_end_and_conserves() {
    // the promoted TokenSmart scheme: finishes the workload, answers
    // activity changes, and its ring ledger conserves the pool exactly
    let soc = soc_3x3();
    let wl = av_parallel(&soc, 2);
    let sim =
        Simulation::new(soc, wl, SimConfig::new(ManagerKind::TokenSmart, 120.0)).with_tile_traces();
    let pool = sim.pool() as f64;
    let r = sim.run(7);
    assert!(r.finished, "TS must finish the 2-frame AV workload");
    assert!(
        r.mean_response_us().is_some(),
        "TS answers activity changes"
    );
    assert_eq!(r.coins_leaked, 0, "ring handoffs must conserve");
    let total_end: f64 = r.tile_traces().coins.iter().map(|t| t.last_value()).sum();
    let in_transit = r.scheme_stat("ts_pool_in_transit").unwrap_or(0.0);
    assert!(
        (total_end + in_transit - pool).abs() < 1e-9,
        "held {total_end} + pool-in-transit {in_transit} vs initial {pool}"
    );
    assert_eq!(r.scheme_stat("ts_rings_broken"), Some(0.0));
}

#[test]
fn tokensmart_ring_break_traps_the_pool_without_leaking() {
    // fail-stop a ring stop mid-run: the token eventually lands on the
    // corpse, circulation halts, and the trapped pool is quarantined —
    // never minted away
    let r = fault_run(
        ManagerKind::TokenSmart,
        kill_plan(4, TileFaultKind::FailStop),
        7,
    );
    assert!(!r.finished, "the dead tile's tasks cannot complete");
    assert_eq!(r.coins_leaked, 0, "a broken ring must not leak");
    assert_eq!(
        r.scheme_stat("ts_rings_broken"),
        Some(1.0),
        "the single 3x3 ring should break on the corpse"
    );
}
