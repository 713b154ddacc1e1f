//! Extension experiments beyond the paper's figures:
//!
//! - `thermal-ext`: the thermal-management hooks of Sections III-A/III-B,
//!   exercised against a compact RC thermal model — the hotspot coin cap
//!   is calibrated from a junction limit and shown to bound peak
//!   temperature where the uncapped exchange would not.
//! - `scaling-sim`: the O(√N)-response claim validated *directly in the
//!   full-SoC engine* on synthetic floorplans (the paper extrapolates
//!   analytically beyond N=13; here the simulator runs the larger SoCs).

use blitzcoin_core::emulator::{Emulator, EmulatorConfig};
use blitzcoin_core::montecarlo::run_activity_change_trials_with;
use blitzcoin_core::HotspotCap;
use blitzcoin_noc::wormhole::{WormholeConfig, WormholeNetwork};
use blitzcoin_noc::{Network, Packet, PacketKind, Plane, TileId, Topology};
use blitzcoin_sim::csv::CsvTable;
use blitzcoin_sim::{SimRng, SimTime, StepTrace};
use blitzcoin_soc::prelude::*;
use blitzcoin_thermal::{coin_cap_for_limit, ThermalConfig, ThermalModel};

use crate::sweep::{par_units, replica, write_csv};
use crate::{Ctx, FigResult};

/// The thermal-management extension.
pub fn thermal_ext(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new(
        "thermal-ext",
        "Thermal hooks: RC model + hotspot coin cap (Sections III-A/III-B)",
    );

    // 1. A paper workload's thermal envelope.
    let soc = floorplan::soc_3x3();
    let wl = workload::av_parallel(&soc, if ctx.quick { 2 } else { 4 });
    let run = ctx.run_sim(
        &Simulation::new(
            soc.clone(),
            wl,
            ctx.sim_config(ManagerKind::BlitzCoin, 120.0),
        )
        .with_tile_traces(),
        ctx.seed,
    );
    let envelope = thermal::analyze(&soc, &run, ThermalConfig::default());
    fig.claim(
        "global-cap-bounds-heat",
        "global thermal caps are enforced by the initial configuration of the coin pool",
        format!(
            "3x3 AV run at the 120 mW cap peaks at {:.1} C (ambient {:.0} C), no 105 C hotspots",
            envelope.max_celsius(),
            envelope.ambient_c
        ),
        envelope.max_celsius() < 105.0 && envelope.hotspots(105.0).is_empty(),
    );

    // 2. Hotspot scenario: a single greedy tile concentrates the pool.
    let topo = Topology::torus(5, 5);
    let center = topo.tile(2, 2).index();
    let coin_value = 2.0; // mW per coin
    let pool: u64 = 200; // 400 mW worth of coins
    let limit_c = 80.0;
    let thermal_cfg = ThermalConfig::default();
    let cap = coin_cap_for_limit(topo, thermal_cfg, limit_c, coin_value);

    let run_scenario = |hotspot: Option<HotspotCap>| -> Vec<f64> {
        let max: Vec<u64> = (0..25).map(|i| if i == center { 63 } else { 0 }).collect();
        let cfg = EmulatorConfig {
            hotspot_cap: hotspot,
            err_threshold: 0.25,
            stop_at_convergence: false,
            max_cycles: 400_000,
            quiescence_exchanges: 800,
            ..EmulatorConfig::default()
        };
        let mut emu = Emulator::new(topo, max, cfg);
        let mut rng = SimRng::seed(ctx.seed);
        emu.init_random(&mut rng, pool);
        emu.run(&mut rng);
        emu.tiles()
            .iter()
            .map(|t| t.has as f64 * coin_value)
            .collect()
    };

    let peak_of = |powers_mw: &[f64]| -> f64 {
        let traces: Vec<StepTrace> = powers_mw
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let mut t = StepTrace::new(format!("p{i}"));
                t.record(SimTime::ZERO, p);
                t
            })
            .collect();
        let refs: Vec<&StepTrace> = traces.iter().collect();
        ThermalModel::new(topo, thermal_cfg)
            .simulate(&refs, SimTime::from_ms(5))
            .max_celsius()
    };

    // the capped/uncapped pair shares ctx.seed (same greedy scenario
    // draw) and runs concurrently
    let scenarios = par_units(ctx, &[None, Some(HotspotCap::new(cap))], |&h| {
        run_scenario(h)
    });
    let (uncapped, capped) = (&scenarios[0], &scenarios[1]);
    let t_uncapped = peak_of(uncapped);
    let t_capped = peak_of(capped);

    let mut csv = CsvTable::new(["tile", "uncapped_mw", "capped_mw"]);
    for i in 0..25 {
        csv.row_values([i as f64, uncapped[i], capped[i]]);
    }
    write_csv(ctx, &mut fig, "thermal_ext_hotspot.csv", &csv);

    fig.claim(
        "hotspot-cap-bounds-temperature",
        "rejecting coins beyond a neighborhood threshold prevents local hotspots",
        format!(
            "greedy tile peaks at {t_uncapped:.1} C uncapped vs {t_capped:.1} C with a \
             {cap}-coin cap (limit {limit_c} C)"
        ),
        t_uncapped > limit_c && t_capped <= limit_c + 1.0,
    );
    fig.claim(
        "cap-calibration",
        "the coin-domain threshold derives from the junction limit via the RC network",
        format!("{limit_c} C limit -> {cap} coins at {coin_value} mW/coin"),
        cap > 0 && (cap as f64) < pool as f64,
    );
    fig
}

/// Task-granularity sensitivity: where response time becomes throughput.
///
/// At the paper's workload granularity our BC and BC-C runs tie on
/// throughput (their equilibrium allocations are identical; the µs-scale
/// response difference is negligible against 100 µs-scale tasks). This
/// study sweeps the task size downward at constant total work and shows
/// the decentralized advantage emerging — the regime the paper's +9%
/// BC-vs-BC-C figure lives in.
pub fn granularity(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new(
        "granularity",
        "BC vs BC-C throughput gap vs task granularity",
    );
    let soc = floorplan::soc_3x3();
    let sweep: &[(f64, usize)] = if ctx.quick {
        &[(1.0, 4), (0.015625, 256)]
    } else {
        &[(1.0, 4), (0.25, 16), (0.0625, 64), (0.015625, 256)]
    };
    // (scale, frames) x manager grid runs concurrently; each granularity
    // point owns a sub-seed shared by its three managers
    let managers = [
        ManagerKind::BlitzCoin,
        ManagerKind::BcCentralized,
        ManagerKind::CentralizedRoundRobin,
    ];
    let units: Vec<(u64, f64, usize, ManagerKind)> = sweep
        .iter()
        .enumerate()
        .flat_map(|(i, &(scale, frames))| managers.map(|m| (i as u64, scale, frames, m)))
        .collect();
    let runs = par_units(ctx, &units, |&(i, scale, frames, m)| {
        let wl = workload::av_dependent_scaled(&soc, frames, scale);
        ctx.run_sim(
            &Simulation::new(soc.clone(), wl, ctx.sim_config(m, 120.0)),
            ctx.subseed(i),
        )
    });

    let mut csv = CsvTable::new([
        "work_scale",
        "frames",
        "bc_exec_us",
        "bcc_exec_us",
        "bcc_penalty_pct",
        "crr_penalty_pct",
    ]);
    let mut penalties = Vec::new();
    for (i, &(scale, frames)) in sweep.iter().enumerate() {
        let [bc, bcc, crr] = [&runs[3 * i], &runs[3 * i + 1], &runs[3 * i + 2]];
        let p_bcc = (bcc.exec_time_us() / bc.exec_time_us() - 1.0) * 100.0;
        let p_crr = (crr.exec_time_us() / bc.exec_time_us() - 1.0) * 100.0;
        csv.row_values([
            scale,
            frames as f64,
            bc.exec_time_us(),
            bcc.exec_time_us(),
            p_bcc,
            p_crr,
        ]);
        penalties.push(p_bcc);
    }
    write_csv(ctx, &mut fig, "granularity_sensitivity.csv", &csv);

    let first = *penalties.first().expect("sweep");
    let last = *penalties.last().expect("sweep");
    fig.claim(
        "gap-grows-with-finer-tasks",
        "faster response turns into throughput when activity changes are frequent",
        format!("BC-C penalty vs BC: {first:.1}% at coarse tasks -> {last:.1}% at fine tasks"),
        last > first + 2.0,
    );
    fig.claim(
        "paper-regime-reached",
        "the paper's +9% BC-vs-BC-C gap is reached within the swept granularity range",
        format!("max observed penalty {last:.1}%"),
        last > 9.0,
    );
    fig
}

/// The CPU power-proxy extension (Section IV-C): activity counters
/// estimate a programmable tile's power, and the coin LUT is rescaled to
/// the running workload — a light workload gets more frequency per coin.
pub fn cpu_proxy(ctx: &Ctx) -> FigResult {
    use blitzcoin_power::{ActivityCounters, PowerModel, PowerProxy};
    let mut fig = FigResult::new(
        "cpu-proxy",
        "CPU activity-counter power proxy with dynamic LUT adjustment",
    );
    let proxy = PowerProxy::cva6();
    let phases = [
        ("idle", ActivityCounters::default()),
        (
            "pointer-chasing",
            ActivityCounters {
                dispatch: 0.35,
                cache_access: 0.9,
                fpu: 0.0,
                lsu: 0.8,
            },
        ),
        (
            "fp-kernel",
            ActivityCounters {
                dispatch: 0.95,
                cache_access: 0.3,
                fpu: 0.9,
                lsu: 0.3,
            },
        ),
        (
            "max-activity",
            ActivityCounters {
                dispatch: 1.0,
                cache_access: 1.0,
                fpu: 1.0,
                lsu: 1.0,
            },
        ),
    ];
    let mut csv = CsvTable::new(["phase", "p_800mhz_mw", "f_at_8_coins_mhz"]);
    let reference = PowerModel::of(blitzcoin_power::AcceleratorClass::Fft);
    let mut freqs = Vec::new();
    for (name, counters) in phases {
        let p = proxy.estimate_mw(800.0, counters);
        let lut = proxy.adjusted_lut(&reference, counters, 1.0, 64);
        let f = lut.f_target(8);
        csv.row([name.to_string(), format!("{p:.2}"), format!("{f:.0}")]);
        freqs.push((name, p, f));
    }
    write_csv(ctx, &mut fig, "cpu_proxy.csv", &csv);
    fig.claim(
        "proxy-tracks-activity",
        "activity counters separate workload phases by estimated power",
        format!(
            "800 MHz estimates: idle {:.1} mW < pointer-chasing {:.1} < fp {:.1} < max {:.1}",
            freqs[0].1, freqs[1].1, freqs[2].1, freqs[3].1
        ),
        freqs[0].1 < freqs[1].1 && freqs[1].1 < freqs[2].1 && freqs[2].1 < freqs[3].1,
    );
    fig.claim(
        "dynamic-lut",
        "the LUT rescales so lighter phases buy more frequency per coin",
        format!(
            "8 coins buy {:.0} MHz (pointer-chasing) vs {:.0} MHz (max activity)",
            freqs[1].2, freqs[3].2
        ),
        freqs[1].2 >= freqs[3].2,
    );
    fig
}

/// Cross-validation of the NoC timing model against a flit-level
/// wormhole router.
///
/// Every cycle-level result in this reproduction rides on the analytic
/// link-reservation NoC model; this experiment checks it against the
/// classic reference (input-buffered wormhole routers, XY routing, 1
/// flit/link/cycle) at zero load and under bursts of coin traffic.
pub fn noc_validation(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new(
        "noc-validation",
        "Analytic NoC timing model vs flit-level wormhole router",
    );
    let topo = Topology::mesh(8, 8);
    // NOTE: intentionally serial — a single RNG stream threads through
    // both the zero-load pairs and the burst draws, so this is a
    // sequential protocol, not an independent-unit sweep.
    let mut rng = blitzcoin_sim::SimRng::seed(ctx.seed);

    // zero load: per-pair agreement
    let analytic = Network::new(topo);
    let mut max_diff = 0u64;
    for _ in 0..if ctx.quick { 10 } else { 50 } {
        let a = TileId(rng.range_usize(0..64));
        let b = TileId(rng.range_usize(0..64));
        let p = Packet::new(
            a,
            b,
            Plane::MmioIrq,
            PacketKind::CoinStatus { has: 1, max: 2 },
        );
        let t_a = analytic.latency_bound(a, b).as_noc_cycles();
        let mut wh = WormholeNetwork::new(topo, WormholeConfig::default());
        wh.inject(p);
        let d = wh.run_until_idle(10_000);
        max_diff = max_diff.max(t_a.abs_diff(d[0].latency_cycles));
    }
    fig.claim(
        "zero-load-agreement",
        "at zero load the analytic model matches the wormhole router hop-for-hop",
        format!("max |analytic - wormhole| = {max_diff} cycles over random pairs"),
        max_diff <= 3,
    );

    // burst load sweep: mean latency of k simultaneous coin messages
    let mut csv = CsvTable::new([
        "burst_packets",
        "analytic_mean_cycles",
        "wormhole_mean_cycles",
    ]);
    let mut ratios = Vec::new();
    for k in [8usize, 32, 64, 128] {
        let pkts: Vec<Packet> = (0..k)
            .map(|_| {
                let a = TileId(rng.range_usize(0..64));
                let mut b = TileId(rng.range_usize(0..64));
                if a == b {
                    b = TileId((a.index() + 1) % 64);
                }
                Packet::new(
                    a,
                    b,
                    Plane::MmioIrq,
                    PacketKind::CoinStatus { has: 3, max: 8 },
                )
            })
            .collect();
        let mut net = Network::new(topo);
        let t0 = SimTime::ZERO;
        let mean_analytic = pkts
            .iter()
            .map(|p| net.send(t0, p).as_noc_cycles() as f64)
            .sum::<f64>()
            / k as f64;
        let mut wh = WormholeNetwork::new(topo, WormholeConfig::default());
        for p in &pkts {
            wh.inject(*p);
        }
        let d = wh.run_until_idle(100_000);
        let mean_wh = d.iter().map(|x| x.latency_cycles as f64).sum::<f64>() / d.len() as f64;
        csv.row_values([k as f64, mean_analytic, mean_wh]);
        ratios.push(mean_analytic / mean_wh);
    }
    write_csv(ctx, &mut fig, "noc_validation.csv", &csv);

    let worst = ratios
        .iter()
        .cloned()
        .fold(0.0f64, |m, r| m.max(r.max(1.0 / r)));
    fig.claim(
        "loaded-agreement",
        "under coin-traffic bursts the analytic latencies stay within ~2x of the router's",
        format!("worst mean-latency ratio across bursts: {worst:.2}x"),
        worst < 2.5,
    );
    fig
}

/// Hierarchical PM clusters: response locality vs budget flexibility.
///
/// The fabricated SoC already scopes BlitzCoin to a 10-tile PM cluster;
/// this study takes the next step and runs several independent clusters,
/// quantifying the trade the paper's design implies: smaller exchange
/// domains converge faster after a transition, but an idle cluster's
/// budget is stranded — under imbalanced load the single global domain
/// wins on throughput.
pub fn clusters(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new(
        "clusters",
        "Hierarchical PM clusters: response vs budget flexibility",
    );
    let soc = floorplan::synthetic(6); // 33 managed tiles
    let n = soc.n_managed();
    let budget = soc.total_p_max() * 0.3;
    let managed: Vec<usize> = soc.managed_tiles().iter().map(|t| t.index()).collect();
    // quadrant-ish clusters by tile position
    let quads: Vec<Vec<usize>> = {
        let mut q = vec![Vec::new(); 4];
        for &t in &managed {
            let c = soc.topology.coord(blitzcoin_noc::TileId(t));
            let idx = usize::from(c.x >= 3) + 2 * usize::from(c.y >= 3);
            q[idx].push(t);
        }
        q.into_iter().filter(|v| !v.is_empty()).collect()
    };

    // imbalanced load: only the tiles of the first two quadrants get work
    let busy: Vec<usize> = quads[0].iter().chain(&quads[1]).copied().collect();
    let wl = {
        let mut b = workload::WorkloadBuilder::new();
        for &t in &busy {
            let class = soc.tiles[t].accel_class().expect("managed");
            let mut prev = None;
            for _ in 0..2 {
                let deps = prev.map(|p| vec![p]).unwrap_or_default();
                prev = Some(b.task(blitzcoin_noc::TileId(t), workload::frame_work(class), deps));
            }
        }
        b.build("imbalanced", &soc)
    };

    // the global/clustered pair shares ctx.seed (same imbalanced
    // workload draw) and runs concurrently
    let cfg = SimConfig {
        tie_break: ctx.tie_break,
        ..SimConfig::for_large_soc(ManagerKind::BlitzCoin, budget, n)
    };
    let pair = par_units(ctx, &[false, true], |&use_clusters| {
        let sim = if use_clusters {
            Simulation::with_clusters(soc.clone(), wl.clone(), cfg, quads.clone())
        } else {
            Simulation::new(soc.clone(), wl.clone(), cfg)
        };
        ctx.run_sim(&sim, ctx.seed)
    });
    let (global, clustered) = (&pair[0], &pair[1]);

    let mut csv = CsvTable::new(["config", "exec_us", "mean_response_us", "utilization"]);
    for (name, r) in [("global", global), ("clustered", clustered)] {
        csv.row([
            name.to_string(),
            format!("{:.1}", r.exec_time_us()),
            format!("{:.3}", r.mean_nontrivial_response_us(0.05).unwrap_or(0.0)),
            format!("{:.3}", r.utilization()),
        ]);
    }
    write_csv(ctx, &mut fig, "clusters_tradeoff.csv", &csv);

    let resp_g = global.mean_nontrivial_response_us(0.05).unwrap_or(f64::NAN);
    let resp_c = clustered
        .mean_nontrivial_response_us(0.05)
        .unwrap_or(f64::NAN);
    fig.claim(
        "clusters-respond-faster",
        "smaller exchange domains re-converge faster after a transition",
        format!("response: global {resp_g:.2} us vs clustered {resp_c:.2} us"),
        resp_c < resp_g,
    );
    fig.claim(
        "global-domain-wins-under-imbalance",
        "a single domain lends idle budget to busy tiles; clusters strand it",
        format!(
            "exec: global {:.0} us vs clustered {:.0} us",
            global.exec_time_us(),
            clustered.exec_time_us()
        ),
        global.exec_time_us() <= clustered.exec_time_us() * 1.001,
    );
    fig
}

/// Direct large-SoC response-scaling validation in the engine.
pub fn scaling_sim(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new(
        "scaling-sim",
        "Response scaling measured directly in the full-SoC engine",
    );
    let ds: &[usize] = if ctx.quick { &[4, 6] } else { &[4, 6, 8, 10] };
    let seeds = if ctx.quick { 2u64 } else { 5 };
    let managers = [
        ManagerKind::BlitzCoin,
        ManagerKind::BcCentralized,
        ManagerKind::CentralizedRoundRobin,
    ];
    // the full d x manager x seed grid is one flattened work queue: the
    // costly d=10 runs load-balance against the cheap d=4 ones. Each d
    // owns a sub-seed; seed replicas derive from it, and the managers at
    // one (d, replica) share the draw (paired comparison). The
    // centralized managers do not draw from the seed, so their replicas
    // are one unit that runs once.
    let units: Vec<(u64, usize, ManagerKind, u64)> = ds
        .iter()
        .enumerate()
        .flat_map(|(i, &d)| {
            managers
                .into_iter()
                .flat_map(move |m| (0..seeds).map(move |s| (i as u64, d, m, replica(m, s))))
        })
        .collect();
    let responses = par_units(ctx, &units, |&(i, d, m, s)| {
        let soc = floorplan::synthetic(d);
        let wl = workload::parallel_all(&soc, 2);
        let cfg = SimConfig {
            tie_break: ctx.tie_break,
            ..SimConfig::for_large_soc(m, soc.total_p_max() * 0.3, soc.n_managed())
        };
        let seed = blitzcoin_sim::exec::trial_seed(ctx.seed, i, s);
        ctx.run_sim(&Simulation::new(soc, wl, cfg), seed)
            .mean_nontrivial_response_us(0.05)
    });

    let mut csv = CsvTable::new(["d", "n_managed", "bc_resp_us", "bcc_resp_us", "crr_resp_us"]);
    let mut rows = Vec::new();
    let mean_of = |chunk: &[Option<f64>]| -> f64 {
        let xs: Vec<f64> = chunk.iter().flatten().copied().collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    for (i, &d) in ds.iter().enumerate() {
        let base = i * managers.len() * seeds as usize;
        let per_mgr = seeds as usize;
        let bc = mean_of(&responses[base..base + per_mgr]);
        let bcc = mean_of(&responses[base + per_mgr..base + 2 * per_mgr]);
        let crr = mean_of(&responses[base + 2 * per_mgr..base + 3 * per_mgr]);
        let n = floorplan::synthetic(d).n_managed();
        csv.row_values([d as f64, n as f64, bc, bcc, crr]);
        rows.push((n, bc, bcc, crr));
    }
    write_csv(ctx, &mut fig, "scaling_sim_response.csv", &csv);

    // companion: the emulator-level response sweep (activity-change
    // protocol) across much larger grids than the engine can afford;
    // trials parallelize inside each call, and every d gets its own
    // sub-seed (offset past the engine grid's point indices)
    let mut emu_csv = CsvTable::new(["d", "n", "response_cycles"]);
    let trials = ctx.trials(60, 10);
    let exec = ctx.exec();
    let mut emu_rows = Vec::new();
    for (i, d) in [4usize, 8, 12, 16, 20].into_iter().enumerate() {
        let stats = run_activity_change_trials_with(
            &exec,
            Topology::torus(d, d),
            EmulatorConfig::default(),
            trials,
            ctx.subseed(100 + i as u64),
            0.1,
        );
        emu_csv.row_values([d as f64, (d * d) as f64, stats.mean_cycles]);
        emu_rows.push((d, stats.mean_cycles));
    }
    write_csv(ctx, &mut fig, "scaling_emulator_response.csv", &emu_csv);
    let (d0, t0) = emu_rows[0];
    let (d1, t1) = *emu_rows.last().expect("rows");
    let n_ratio_emu = (d1 * d1) as f64 / (d0 * d0) as f64;
    fig.claim(
        "emulator-response-sublinear",
        "activity-change re-absorption scales ~sqrt(N) out to N=400",
        format!(
            "N x{n_ratio_emu:.0}: response x{:.2} (sqrt would be x{:.2})",
            t1 / t0,
            n_ratio_emu.sqrt()
        ),
        t1 / t0 < 0.75 * n_ratio_emu,
    );

    let first = rows.first().expect("rows");
    let last = rows.last().expect("rows");
    let n_ratio = last.0 as f64 / first.0 as f64;
    let bc_ratio = last.1 / first.1;
    let crr_ratio = last.3 / first.3;
    fig.claim(
        "bc-sublinear-in-engine",
        "BlitzCoin's response scales ~sqrt(N) (the paper extrapolates; here it is simulated)",
        format!(
            "N x{n_ratio:.1}: BC response x{bc_ratio:.2} (sqrt would be x{:.2})",
            n_ratio.sqrt()
        ),
        bc_ratio < 0.75 * n_ratio,
    );
    fig.claim(
        "centralized-linear-in-engine",
        "centralized response grows ~linearly with N",
        format!("N x{n_ratio:.1}: C-RR response x{crr_ratio:.2}"),
        crr_ratio > 0.5 * n_ratio,
    );
    let adv_first = first.3 / first.1;
    let adv_last = last.3 / last.1;
    fig.claim(
        "advantage-grows",
        "BlitzCoin's response advantage widens as SoCs grow",
        format!(
            "C-RR/BC response ratio: {adv_first:.1}x at N={} -> {adv_last:.1}x at N={}",
            first.0, last.0
        ),
        adv_last > adv_first,
    );
    fig
}
