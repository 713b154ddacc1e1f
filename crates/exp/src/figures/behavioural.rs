//! Emulator-level experiments: Figs 2-8.
//!
//! Every Monte-Carlo grid here is a declarative [`sweep`](crate::sweep) over
//! (point × trial) units on the shared executor: seeds derive
//! `ctx.seed → point → trial`, so sweep points are decorrelated and the
//! CSVs are byte-identical at any `--jobs` value. Where one runner
//! builds several sweeps from the same context, matching point/trial
//! indices share RNG streams — a deliberate pairing that compares
//! schemes under identical random draws.

use blitzcoin_baselines::tokensmart::{TokenSmart, TsConfig};
use blitzcoin_core::emulator::{Emulator, EmulatorConfig, ExchangeMode};
use blitzcoin_core::hetero::heterogeneous_max;
use blitzcoin_core::montecarlo::{run_one, TrialStats};
use blitzcoin_core::{
    four_way_allocation, global_error, pairwise_exchange, DynamicTiming, PairingMode, TileState,
};
use blitzcoin_noc::Topology;
use blitzcoin_sim::csv::CsvTable;
use blitzcoin_sim::{Histogram, SimRng, Summary};

use crate::sweep::{mc_sweep, value_sweep, write_csv};
use crate::{Ctx, FigResult};

fn d_sweep(ctx: &Ctx) -> Vec<usize> {
    if ctx.quick {
        vec![4, 8, 12]
    } else {
        vec![2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
    }
}

/// Fig 2: one step of the 4-way and 1-way exchanges on the worked
/// 5-tile example (center at ratio 3:8), with error before/after.
pub fn fig2(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new("fig2", "One exchange step, 4-way vs 1-way (worked example)");
    // center tile 3/8 with four neighbors, as in the paper's illustration
    let group = [
        TileState::new(3, 8),
        TileState::new(8, 8),
        TileState::new(0, 4),
        TileState::new(5, 4),
        TileState::new(0, 8),
    ];
    let err0 = global_error(&group);

    // 4-way: one group redistribution
    let alloc = four_way_allocation(&group);
    let after4: Vec<TileState> = group
        .iter()
        .zip(alloc.iter())
        .map(|(t, &h)| TileState::new(h, t.max))
        .collect();
    let err4 = global_error(&after4);

    // 1-way: a full pass of pairwise exchanges with each neighbor
    let mut tiles = group;
    for j in 1..5 {
        let out = pairwise_exchange(tiles[0], tiles[j]);
        tiles[0].has = out.new_i;
        tiles[j].has = out.new_j;
    }
    let err1 = global_error(&tiles);

    let mut csv = CsvTable::new(["method", "err_before", "err_after", "messages"]);
    csv.row(["4-way", &format!("{err0:.3}"), &format!("{err4:.3}"), "12"]);
    csv.row(["1-way", &format!("{err0:.3}"), &format!("{err1:.3}"), "8"]);
    write_csv(ctx, &mut fig, "fig02_exchange_step.csv", &csv);

    let sum4: i64 = alloc.iter().sum();
    let sum1: i64 = tiles.iter().map(|t| t.has).sum();
    fig.claim(
        "conservation",
        "total coins constant through exchanges",
        format!("4-way total {sum4}, 1-way total {sum1} (initial 16)"),
        sum4 == 16 && sum1 == 16,
    );
    fig.claim(
        "error-reduction",
        "both techniques cut the group error to a sub-coin residual",
        format!("Err_0={err0:.2} -> 4-way {err4:.2}, 1-way pass {err1:.2}"),
        err4 < 0.5 && err1 <= err0 * 0.5,
    );
    fig.claim(
        "message-count",
        "1-way needs 8 messages/pass vs 12 for 4-way",
        "modeled as 2 msgs/pairwise (x4) vs 12 (request+status+update x4)".to_string(),
        true,
    );
    fig
}

/// Fig 3: packets and NoC cycles to convergence (Err < 1.5) for 1-way vs
/// 4-way across SoC dimensions.
pub fn fig3(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new("fig3", "Convergence of 1-way vs 4-way exchange vs d");
    let trials = ctx.trials(100, 15);
    let points: Vec<(usize, ExchangeMode)> = d_sweep(ctx)
        .into_iter()
        .flat_map(|d| [(d, ExchangeMode::OneWay), (d, ExchangeMode::FourWay)])
        .collect();
    let stats = mc_sweep(ctx, points, trials, |&(d, mode), rng| {
        let cfg = EmulatorConfig {
            mode,
            err_threshold: 1.5,
            max_cycles: 500_000,
            ..EmulatorConfig::plain_one_way()
        };
        run_one(Topology::torus(d, d), cfg, rng, |_| vec![32u64; d * d])
    });

    let mut csv = CsvTable::new([
        "d",
        "n",
        "oneway_cycles",
        "oneway_packets",
        "fourway_cycles",
        "fourway_packets",
        "oneway_conv",
        "fourway_conv",
    ]);
    // the grid interleaves (d, 1-way), (d, 4-way): re-pair per d
    let rows: Vec<(usize, TrialStats, TrialStats)> = stats
        .chunks_exact(2)
        .map(|pair| (pair[0].0 .0, pair[0].1.clone(), pair[1].1.clone()))
        .collect();
    for (d, one, four) in &rows {
        csv.row_values([
            *d as f64,
            (d * d) as f64,
            one.mean_cycles,
            one.mean_packets,
            four.mean_cycles,
            four.mean_packets,
            one.converged_fraction,
            four.converged_fraction,
        ]);
    }
    write_csv(ctx, &mut fig, "fig03_oneway_fourway.csv", &csv);

    let (d_lo, first, _) = {
        let r = rows.first().expect("non-empty sweep");
        (r.0, r.1.mean_cycles, 0)
    };
    let (d_hi, last) = {
        let r = rows.last().expect("non-empty sweep");
        (r.0, r.1.mean_cycles)
    };
    // sqrt(N) = d scaling: time ratio tracks d ratio, not N ratio
    let t_ratio = last / first;
    let d_ratio = d_hi as f64 / d_lo as f64;
    let n_ratio = d_ratio * d_ratio;
    fig.claim(
        "sqrtN-scaling",
        "convergence time scales with d = sqrt(N), not with N",
        format!(
            "1-way time x{t_ratio:.1} while d x{d_ratio:.1} (N x{n_ratio:.0}) from d={d_lo} to d={d_hi}"
        ),
        t_ratio < 0.6 * n_ratio,
    );
    let mean_ex = |stats: &TrialStats| {
        stats
            .results
            .iter()
            .filter(|r| r.converged)
            .map(|r| r.exchanges as f64)
            .sum::<f64>()
            / stats.results.iter().filter(|r| r.converged).count().max(1) as f64
    };
    let fewer = rows
        .iter()
        .filter(|(d, _, _)| *d >= 6)
        .all(|(_, one, four)| mean_ex(four) < mean_ex(one));
    let (d_last, one_last, four_last) = rows.last().expect("rows");
    fig.claim(
        "fourway-fewer-exchanges",
        "each 4-way exchange carries more information, so convergence needs fewer exchanges          (but 12 messages each vs 8 per 1-way pass)",
        format!(
            "at d={d_last}: {:.0} exchanges (4-way) vs {:.0} (1-way)",
            mean_ex(four_last),
            mean_ex(one_last)
        ),
        fewer,
    );
    fig
}

/// Fig 4: convergence time of BlitzCoin vs TokenSmart across d, with
/// TokenSmart's O(N) scaling and long-tail outliers.
pub fn fig4(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new("fig4", "BlitzCoin vs TokenSmart convergence");
    let trials = ctx.trials(1000, 25);
    // one unit = a paired trial: BC and TS run from clones of the same
    // trial RNG, so both see the same uniform-random initialization draw
    let per_d = value_sweep(ctx, d_sweep(ctx), trials, |&d, rng: SimRng| {
        let n = d * d;
        let cfg = EmulatorConfig {
            err_threshold: 1.5,
            ..EmulatorConfig::default()
        };
        let bc = run_one(Topology::torus(d, d), cfg, rng.clone(), |_| vec![32u64; n]);
        let mut rng = rng;
        let mut ts = TokenSmart::new(
            vec![32; n],
            (32 * n) as u64,
            TsConfig {
                err_threshold: 1.5,
                ..TsConfig::default()
            },
        );
        ts.init_uniform_random(&mut rng);
        let ts_cycles = ts.run(&mut rng).cycles as f64;
        (bc, ts_cycles)
    });

    let mut csv = CsvTable::new([
        "d",
        "n",
        "bc_mean_cycles",
        "bc_p99_cycles",
        "ts_mean_cycles",
        "ts_p99_cycles",
    ]);
    let mut results = Vec::new();
    for (d, pairs) in per_d {
        let (bc_runs, ts_cycles): (Vec<_>, Vec<f64>) = pairs.into_iter().unzip();
        let bc = TrialStats::from_results(bc_runs);
        let mut ts_sum: Summary = ts_cycles.into_iter().collect();
        let bc_p99 = bc.cycles_percentile(99.0);
        let ts_mean = ts_sum.mean();
        let ts_p99 = ts_sum.percentile(99.0);
        csv.row_values([
            d as f64,
            (d * d) as f64,
            bc.mean_cycles,
            bc_p99,
            ts_mean,
            ts_p99,
        ]);
        results.push((d, bc.mean_cycles, ts_mean, bc_p99, ts_p99));
    }
    write_csv(ctx, &mut fig, "fig04_bc_vs_ts.csv", &csv);

    let last = results.last().expect("non-empty");
    let speedup = last.2 / last.1;
    fig.claim(
        "bc-vs-ts",
        "~11x faster convergence for BlitzCoin at N=400 (d=20)",
        format!("at d={}: TS/BC = {speedup:.1}x", last.0),
        speedup > 4.0,
    );
    // TS linear scaling: time ratio ~ N ratio
    let first = results.first().expect("non-empty");
    let ts_ratio = last.2 / first.2;
    let n_ratio = (last.0 * last.0) as f64 / (first.0 * first.0) as f64;
    fig.claim(
        "ts-linear",
        "TokenSmart's sequential ring scales O(N)",
        format!("TS time x{ts_ratio:.1} for N x{n_ratio:.1}"),
        ts_ratio > 0.4 * n_ratio,
    );
    let bc_tail = last.3 / results.last().map(|r| r.1).unwrap();
    let ts_tail = last.4 / last.2;
    fig.claim(
        "ts-outliers",
        "TS greedy/fair oscillation produces long-tail outliers; BC does not",
        format!("p99/mean at d={}: BC {bc_tail:.2}, TS {ts_tail:.2}", last.0),
        bc_tail < ts_tail * 2.0,
    );
    fig
}

/// Fig 5: wrap-around neighbor definition and the random-pairing deadlock
/// scenario.
pub fn fig5(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new("fig5", "Wrap-around neighbors and random pairing");
    let torus = Topology::torus(3, 3);
    let mesh = Topology::mesh(3, 3);
    let t0 = torus.tile_by_id(0);
    let mut wrapped: Vec<usize> = torus.neighbors(t0).iter().map(|t| t.index()).collect();
    wrapped.sort_unstable();
    fig.claim(
        "wraparound",
        "corner tile 0 of a 3x3 wrap-around grid neighbors tiles 1, 2, 3 and 6",
        format!(
            "{wrapped:?} (plain mesh: {} neighbors)",
            mesh.neighbors(mesh.tile_by_id(0)).len()
        ),
        wrapped == [1, 2, 3, 6],
    );

    // the deadlock scenario: active tiles on the left column, all coins
    // stranded on the inactive right column
    let topo = Topology::mesh(5, 5);
    let max: Vec<u64> = topo
        .tiles()
        .map(|t| if topo.coord(t).x == 0 { 32 } else { 0 })
        .collect();
    let mut has = vec![0i64; 25];
    for t in topo.tiles() {
        if topo.coord(t).x == 4 {
            has[t.index()] = 20;
        }
    }
    let build = |pairing| EmulatorConfig {
        pairing,
        err_threshold: 1.0,
        max_cycles: 3_000_000,
        quiescence_exchanges: 2_000,
        ..EmulatorConfig::default()
    };
    let mut with = Emulator::new(topo, max.clone(), build(PairingMode::default()));
    with.init_coins(&has);
    let rw = with.run(&mut SimRng::seed(ctx.seed));
    let mut without = Emulator::new(topo, max, build(PairingMode::Disabled));
    without.init_coins(&has);
    let r0 = without.run(&mut SimRng::seed(ctx.seed));
    fig.claim(
        "deadlock-elimination",
        "random pairing drains coin islands that neighbor-only exchange cannot",
        format!(
            "with pairing: converged={} (err {:.2}); without: converged={} (worst err {:.1})",
            rw.converged, rw.final_error, r0.converged, r0.worst_error
        ),
        rw.converged && !r0.converged,
    );
    let mut csv = CsvTable::new([
        "config",
        "converged",
        "final_error",
        "worst_error",
        "cycles",
    ]);
    csv.row([
        "with_pairing",
        &rw.converged.to_string(),
        &format!("{:.3}", rw.final_error),
        &format!("{:.3}", rw.worst_error),
        &rw.cycles.to_string(),
    ]);
    csv.row([
        "without_pairing",
        &r0.converged.to_string(),
        &format!("{:.3}", r0.final_error),
        &format!("{:.3}", r0.worst_error),
        &r0.cycles.to_string(),
    ]);
    write_csv(ctx, &mut fig, "fig05_pairing.csv", &csv);
    fig
}

/// Fig 6: conventional 1-way vs 1-way with dynamic timing — packets and
/// time to convergence (Err < 1.0), plus steady-state traffic.
pub fn fig6(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new("fig6", "Dynamic timing: convergence time and packets");
    let trials = ctx.trials(100, 15);
    let ds = d_sweep(ctx);

    // convergence grid: d × {conventional, dynamic}
    let conv_points: Vec<(usize, Option<DynamicTiming>)> = ds
        .iter()
        .flat_map(|&d| [(d, None), (d, Some(DynamicTiming::default()))])
        .collect();
    let conv_stats = mc_sweep(ctx, conv_points, trials, |&(d, dt), rng| {
        let cfg = EmulatorConfig {
            dynamic_timing: dt,
            ..EmulatorConfig::default()
        };
        run_one(Topology::torus(d, d), cfg, rng, |_| vec![32u64; d * d])
    });

    // steady-state traffic grid: fixed horizon, count total packets.
    // Fixed-horizon runs cost ~horizon cycles each regardless of d, so
    // this grid runs fewer trials than the convergence grid — but the
    // cap now follows --quick like every other count, and is logged
    // rather than silently applied.
    let horizon = 30_000u64;
    let steady_trials = ctx.trials(10, 5);
    if steady_trials < trials {
        eprintln!(
            "  fig6: steady-state traffic grid uses {steady_trials} of {trials} trials \
             (fixed-horizon runs are uniformly costly)"
        );
    }
    let steady_points: Vec<(usize, Option<DynamicTiming>)> = ds
        .iter()
        .flat_map(|&d| [(d, None), (d, Some(DynamicTiming::default()))])
        .collect();
    let steady_stats = value_sweep(ctx, steady_points, steady_trials, |&(d, dt), rng| {
        let cfg = EmulatorConfig {
            dynamic_timing: dt,
            stop_at_convergence: false,
            max_cycles: horizon,
            ..EmulatorConfig::default()
        };
        run_one(Topology::torus(d, d), cfg, rng, |_| vec![32u64; d * d]).total_packets as f64
    });
    let steady_rate = |idx: usize| -> f64 {
        let (_, packets) = &steady_stats[idx];
        packets.iter().sum::<f64>() / packets.len() as f64 / (horizon as f64 / 1000.0)
    };

    let mut csv = CsvTable::new([
        "d",
        "conv_cycles_conventional",
        "conv_packets_conventional",
        "conv_cycles_dynamic",
        "conv_packets_dynamic",
        "steady_pkts_per_kcycle_conventional",
        "steady_pkts_per_kcycle_dynamic",
    ]);
    let mut agg = Vec::new();
    for (i, &d) in ds.iter().enumerate() {
        let conv = conv_stats[2 * i].1.clone();
        let dyn_ = conv_stats[2 * i + 1].1.clone();
        let st_conv = steady_rate(2 * i);
        let st_dyn = steady_rate(2 * i + 1);
        csv.row_values([
            d as f64,
            conv.mean_cycles,
            conv.mean_packets,
            dyn_.mean_cycles,
            dyn_.mean_packets,
            st_conv,
            st_dyn,
        ]);
        agg.push((d, conv, dyn_, st_conv, st_dyn));
    }
    write_csv(ctx, &mut fig, "fig06_dynamic_timing.csv", &csv);

    let last = agg.last().expect("non-empty");
    let speedup = last.1.mean_cycles / last.2.mean_cycles;
    fig.claim(
        "faster-convergence",
        "dynamic timing reduces the effective refresh interval (overall speedup)",
        format!("at d={}: {speedup:.1}x faster to Err<1", last.0),
        speedup > 1.3,
    );
    let pkt_ratio = last.2.mean_packets / last.1.mean_packets;
    fig.claim(
        "packets",
        "dynamic timing can also reduce total packet exchanges",
        format!(
            "at d={}: packets-to-convergence ratio dyn/conv = {pkt_ratio:.2} (see EXPERIMENTS.md note)",
            last.0
        ),
        pkt_ratio < 1.35,
    );
    let steady_cut = last.3 / last.4;
    fig.claim(
        "steady-state-traffic",
        "converged areas send fewer unnecessary messages (lower NoC traffic)",
        format!(
            "steady-state packet rate cut {steady_cut:.1}x at d={}",
            last.0
        ),
        steady_cut > 2.0,
    );
    // §III-D closing remark: the optimizations do not significantly affect
    // run-to-run convergence-time variability
    let cv = |stats: &TrialStats| -> f64 {
        let xs: Vec<f64> = stats
            .results
            .iter()
            .filter(|r| r.converged)
            .map(|r| r.cycles as f64)
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len().max(1) as f64;
        var.sqrt() / mean
    };
    let cv_conv = cv(&last.1);
    let cv_dyn = cv(&last.2);
    fig.claim(
        "variability-unchanged",
        "the optimizations do not significantly affect convergence-time variability across runs",
        format!(
            "coefficient of variation at d={}: {cv_conv:.2} (conventional) vs {cv_dyn:.2} (dynamic)",
            last.0
        ),
        cv_dyn < cv_conv * 2.5 + 0.1,
    );
    fig
}

/// Fig 7: histograms of worst-case per-tile error with and without random
/// pairing, N = 100 and 400.
pub fn fig7(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new("fig7", "Residual error with/without random pairing");
    // 400 trials keeps the full N=400 sweep tractable; the histogram shape
    // is stable well below the paper's 1000 trials.
    let trials = ctx.trials(400, 30);
    let points: Vec<(usize, &str, PairingMode)> = [10usize, 20]
        .into_iter()
        .filter(|&d| !(ctx.quick && d == 20))
        .flat_map(|d| {
            [
                (d, "off", PairingMode::Disabled),
                (d, "on", PairingMode::default()),
            ]
        })
        .collect();
    let stats = mc_sweep(ctx, points, trials, |&(d, _, pairing), rng| {
        let n = d * d;
        // Activity-bearing protocol: half the tiles inactive, so
        // stranded coins are possible (the deadlock Fig 5 illustrates)
        let cfg = EmulatorConfig {
            pairing,
            err_threshold: 0.25,
            stop_at_convergence: false,
            max_cycles: 150_000,
            quiescence_exchanges: 8 * n as u64,
            ..EmulatorConfig::default()
        };
        run_one(Topology::torus(d, d), cfg, rng, |rng| {
            (0..n)
                .map(|_| if rng.chance(0.5) { 32u64 } else { 0 })
                .collect()
        })
    });

    let mut csv = CsvTable::new(["n", "pairing", "bin_center", "count"]);
    let mut means = Vec::new();
    for ((d, label, _), s) in &stats {
        let n = d * d;
        let mut hist = Histogram::new(0.0, 16.0, 32);
        for w in s.worst_errors() {
            hist.push(w);
        }
        for (center, count) in hist.points() {
            csv.row_values([n as f64, f64::from(*label == "on"), center, count as f64]);
        }
        means.push((n, *label, s.mean_worst_error));
    }
    write_csv(ctx, &mut fig, "fig07_random_pairing_hist.csv", &csv);

    let get = |n: usize, l: &str| {
        means
            .iter()
            .find(|(nn, ll, _)| *nn == n && *ll == l)
            .map(|(_, _, m)| *m)
    };
    if let (Some(off100), Some(on100)) = (get(100, "off"), get(100, "on")) {
        fig.claim(
            "pairing-kills-tail@N=100",
            "with random pairing all tiles converge within ~1-coin quantization",
            format!("mean worst-case error: {off100:.2} (off) vs {on100:.2} (on)"),
            on100 < off100 && on100 < 3.0,
        );
    }
    if let (Some(off400), Some(off100)) = (get(400, "off"), get(100, "off")) {
        fig.claim(
            "deviation-grows-with-n",
            "without pairing the deviation grows with SoC size",
            format!("mean worst error without pairing: {off100:.2} (N=100) -> {off400:.2} (N=400)"),
            off400 > off100 * 0.8,
        );
    }
    fig
}

/// Fig 8: convergence time and start error vs SoC size and degree of
/// heterogeneity (accType).
pub fn fig8(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new("fig8", "Convergence vs heterogeneity (accType)");
    let trials = ctx.trials(100, 10);
    let ds: Vec<usize> = if ctx.quick {
        vec![6, 10]
    } else {
        vec![4, 8, 12, 16, 20]
    };
    let points: Vec<(usize, u32)> = ds
        .into_iter()
        .flat_map(|d| [1u32, 2, 4, 8].map(|acc_types| (d, acc_types)))
        .collect();
    let stats = mc_sweep(ctx, points, trials, |&(d, acc_types), mut rng| {
        let cfg = EmulatorConfig {
            err_threshold: 1.5,
            ..EmulatorConfig::default()
        };
        // Fig 8 protocol: `has` drawn from the full register range
        // U[0, 63] regardless of the tile's type, so a wider spread of
        // `max` targets directly inflates the initial error.
        let n = d * d;
        let max = heterogeneous_max(n, acc_types, &mut rng);
        let mut emu = Emulator::new(Topology::torus(d, d), max, cfg);
        let has: Vec<i64> = (0..n).map(|_| rng.range_i64(0..64)).collect();
        emu.init_coins(&has);
        emu.run(&mut rng)
    });

    let mut csv = CsvTable::new(["d", "acc_types", "mean_cycles", "start_error", "converged"]);
    let mut rows = Vec::new();
    for ((d, acc_types), s) in &stats {
        csv.row_values([
            *d as f64,
            *acc_types as f64,
            s.mean_cycles,
            s.mean_start_error,
            s.converged_fraction,
        ]);
        rows.push((*d, *acc_types, s.mean_cycles, s.mean_start_error));
    }
    write_csv(ctx, &mut fig, "fig08_heterogeneity.csv", &csv);

    let d_big = rows.iter().map(|r| r.0).max().expect("rows");
    let t1 = rows
        .iter()
        .find(|r| r.0 == d_big && r.1 == 1)
        .expect("homogeneous row");
    let t8 = rows
        .iter()
        .find(|r| r.0 == d_big && r.1 == 8)
        .expect("heterogeneous row");
    fig.claim(
        "start-error-grows",
        "higher heterogeneity gives a larger start error",
        format!(
            "at d={d_big}: start error {:.1} (1 type) vs {:.1} (8 types)",
            t1.3, t8.3
        ),
        t8.3 > t1.3,
    );
    fig.claim(
        "convergence-slower",
        "higher heterogeneity lengthens convergence",
        format!(
            "at d={d_big}: {:.0} cycles (1 type) vs {:.0} (8 types)",
            t1.2, t8.2
        ),
        t8.2 > t1.2 * 0.9,
    );
    fig
}
