//! The paper's headline quantitative claims, asserted end-to-end against
//! the reproduction (shape/direction, with generous bands — see
//! EXPERIMENTS.md for exact measured values).

use blitzcoin_baselines::tokensmart::{TokenSmart, TsConfig};
use blitzcoin_core::emulator::EmulatorConfig;
use blitzcoin_core::montecarlo::run_homogeneous_trials_with;
use blitzcoin_noc::Topology;
use blitzcoin_scaling::paper;
use blitzcoin_sim::{Executor, SimRng};
use blitzcoin_soc::prelude::*;

/// Abstract (§I): "8x to 12x lower response times ... compared to
/// state-of-the-art centralized power-management strategies."
#[test]
fn headline_response_time_improvement() {
    let soc = floorplan::soc_3x3();
    let run = |m| {
        let wl = workload::av_parallel(&soc, 2);
        Simulation::new(soc.clone(), wl, SimConfig::new(m, 120.0)).run(5)
    };
    let bc = run(ManagerKind::BlitzCoin);
    let crr = run(ManagerKind::CentralizedRoundRobin);
    let bc_resp = bc.mean_nontrivial_response_us(0.05).expect("bc responses");
    let crr_resp = crr.mean_response_us().expect("crr responses");
    let ratio = crr_resp / bc_resp;
    assert!(
        ratio > 5.0,
        "expected order-of-magnitude response improvement, got {ratio:.1}x ({bc_resp:.2} vs {crr_resp:.2} us)"
    );
}

/// Abstract: "25%-34% throughput improvement" vs centralized baselines.
#[test]
fn headline_throughput_improvement() {
    let soc = floorplan::soc_3x3();
    let run = |m| {
        let wl = workload::av_parallel(&soc, 3);
        Simulation::new(soc.clone(), wl, SimConfig::new(m, 120.0)).run(5)
    };
    let bc = run(ManagerKind::BlitzCoin);
    let crr = run(ManagerKind::CentralizedRoundRobin);
    let gain = (bc.speedup_vs(&crr) - 1.0) * 100.0;
    assert!(
        gain > 15.0,
        "expected >15% throughput gain vs C-RR, got {gain:.0}%"
    );
}

/// §III-B/Fig 3: decentralized convergence scales ~sqrt(N).
#[test]
fn convergence_scales_sublinearly() {
    let exec = Executor::from_env();
    let t = |d: usize| {
        let topo = Topology::torus(d, d);
        run_homogeneous_trials_with(&exec, topo, EmulatorConfig::default(), 10, 77).mean_cycles
    };
    let (t6, t12) = (t(6), t(12));
    // N grows 4x; sqrt(N) scaling predicts ~2x; O(N) would be 4x.
    assert!(
        t12 / t6 < 3.0,
        "expected sublinear scaling: t6={t6:.0}, t12={t12:.0}"
    );
}

/// §III-C/Fig 4: BlitzCoin converges much faster than TokenSmart's
/// sequential ring at N=144.
#[test]
fn bc_beats_tokensmart() {
    let d = 12;
    let bc = run_homogeneous_trials_with(
        &Executor::from_env(),
        Topology::torus(d, d),
        EmulatorConfig {
            err_threshold: 1.5,
            ..EmulatorConfig::default()
        },
        10,
        31,
    )
    .mean_cycles;
    let mut ts_total = 0.0;
    for s in 0..10 {
        let mut rng = SimRng::seed(1000 + s);
        let mut ts = TokenSmart::new(
            vec![32; d * d],
            (32 * d * d) as u64,
            TsConfig {
                err_threshold: 1.5,
                ..TsConfig::default()
            },
        );
        ts.init_uniform_random(&mut rng);
        ts_total += ts.run(&mut rng).cycles as f64;
    }
    let ts_mean = ts_total / 10.0;
    assert!(
        ts_mean / bc > 3.0,
        "expected BC much faster than TS: bc={bc:.0}, ts={ts_mean:.0}"
    );
}

/// §VI-C/Fig 19: budget enforcement with high utilization, and the
/// throughput gain over static allocation.
#[test]
fn silicon_style_budget_enforcement_and_static_gain() {
    let soc = floorplan::soc_6x6();
    let budget = soc.total_p_max() * 0.33;
    let wl = workload::pm_cluster(&soc, 2, 7);
    let bc = Simulation::new(
        soc.clone(),
        wl.clone(),
        SimConfig::new(ManagerKind::BlitzCoin, budget),
    )
    .run(5);
    let st = Simulation::new(soc, wl, SimConfig::new(ManagerKind::Static, budget)).run(5);
    assert!(bc.finished && st.finished);
    assert!(
        bc.utilization() > 0.75 && bc.utilization() <= 1.02,
        "utilization {:.2}",
        bc.utilization()
    );
    assert!(
        bc.peak_overshoot_mw() <= 0.1 * budget,
        "cap violated by {:.1} mW",
        bc.peak_overshoot_mw()
    );
    let gain = (st.exec_time_us() / bc.exec_time_us() - 1.0) * 100.0;
    assert!(
        gain > 10.0,
        "expected a large gain vs static, got {gain:.0}%"
    );
}

/// §VI-D/Fig 21: the paper's fitted constants support the headline
/// "7x to 13x larger SoCs" scalability claim.
#[test]
fn scalability_claim_from_paper_constants() {
    for t_w_us in [500.0, 2_000.0, 10_000.0] {
        let r = paper::bc().n_max(t_w_us) / paper::crr().n_max(t_w_us);
        assert!(
            (4.0..20.0).contains(&r),
            "N_max ratio at T_w={t_w_us}: {r:.1}"
        );
    }
}

/// §VI-A: the RP allocation beats AP.
#[test]
fn rp_allocation_beats_ap() {
    let soc = floorplan::soc_3x3();
    let run = |policy| {
        let wl = workload::av_parallel(&soc, 2);
        let mut cfg = SimConfig::new(ManagerKind::BlitzCoin, 90.0);
        cfg.policy = policy;
        Simulation::new(soc.clone(), wl, cfg).run(5)
    };
    let rp = run(AllocationPolicy::RelativeProportional);
    let ap = run(AllocationPolicy::AbsoluteProportional);
    assert!(
        rp.exec_time_us() < ap.exec_time_us(),
        "RP {:.0} us should beat AP {:.0} us",
        rp.exec_time_us(),
        ap.exec_time_us()
    );
}

/// §IV-A: 64 power levels per tile — far finer than the 2-5 of prior work.
#[test]
fn dvfs_granularity() {
    use blitzcoin_power::{AcceleratorClass, CoinLut, PowerModel};
    let m = PowerModel::of(AcceleratorClass::Fft);
    let lut = CoinLut::build(&m, 50.0 / 63.0, 64);
    // count distinct non-idle frequency levels
    let mut levels: Vec<u64> = lut
        .entries()
        .iter()
        .filter(|&&f| f > 0.0)
        .map(|&f| (f * 10.0) as u64)
        .collect();
    levels.sort_unstable();
    levels.dedup();
    assert!(
        levels.len() >= 32,
        "expected tens of levels, got {}",
        levels.len()
    );
}
