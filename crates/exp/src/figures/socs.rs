//! Full-SoC experiments: Figs 16-20 and the AP-vs-RP study of §VI-A.
//!
//! Every per-scheme comparison here (BC vs BC-C vs C-RR, plus TS and PT
//! in Figs 17/18; BC vs Static; RP vs AP) runs its independent
//! simulations concurrently through [`par_units`], flattened across the
//! sweep grid so the executor sees one work queue; Figs 17/18 write all
//! five schemes' rows into one CSV per figure. Seeding: each *sweep point*
//! — a (budget, dataflow) combo, a workload size, a budget level — gets
//! its own [`Ctx::subseed`], while the schemes compared *within* a point
//! share that seed on purpose (paired comparison on the same workload
//! draw).

use blitzcoin_sim::csv::CsvTable;
use blitzcoin_sim::SimTime;
use blitzcoin_soc::prelude::*;

use crate::sweep::{grid_at, par_units, scheme_stat_cells, write_csv};
use crate::{Ctx, FigResult};

/// The three managers of the paper's headline comparison, in the order
/// every grid below reports them.
const MANAGERS: [ManagerKind; 3] = [
    ManagerKind::BlitzCoin,
    ManagerKind::BcCentralized,
    ManagerKind::CentralizedRoundRobin,
];

/// The schemes of the Fig 17/18 grid, in each point's row order: the
/// paper's three managers, then TokenSmart and Price Theory on the same
/// per-point sub-seeds (a paired comparison on one workload draw).
const GRID_SCHEMES: [ManagerKind; 5] = [
    ManagerKind::BlitzCoin,
    ManagerKind::BcCentralized,
    ManagerKind::CentralizedRoundRobin,
    ManagerKind::TokenSmart,
    ManagerKind::PriceTheory,
];

/// The scheme statistics the Fig 17/18 CSVs report, one column each.
const GRID_STATS: [&str; 4] = [
    "ts_mode_switches",
    "pt_iterations",
    "pt_cleared",
    "pt_sessions",
];

fn frames(ctx: &Ctx) -> usize {
    if ctx.quick {
        2
    } else {
        4
    }
}

fn run_3x3(ctx: &Ctx, manager: ManagerKind, budget: f64, dep: bool, seed: u64) -> SimReport {
    let soc = floorplan::soc_3x3();
    let f = frames(ctx);
    let wl = if dep {
        workload::av_dependent(&soc, f)
    } else {
        workload::av_parallel(&soc, f)
    };
    ctx.run_sim(
        &Simulation::new(soc, wl, ctx.sim_config(manager, budget)),
        seed,
    )
}

/// Fig 16: power traces of the AV workload on the 3x3 SoC (WL-Par at
/// 120 mW, WL-Dep at 60 mW) for BC, BC-C and C-RR.
pub fn fig16(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new("fig16", "3x3 SoC power traces (WL-Par@120mW, WL-Dep@60mW)");
    let combos = [("wlpar_120mw", false, 120.0), ("wldep_60mw", true, 60.0)];
    // the whole 2x3 (workload x manager) grid runs concurrently
    let units: Vec<(u64, bool, f64, ManagerKind)> = combos
        .iter()
        .enumerate()
        .flat_map(|(i, &(_, dep, budget))| MANAGERS.map(|m| (i as u64, dep, budget, m)))
        .collect();
    let all_reports = par_units(ctx, &units, |&(i, dep, budget, m)| {
        run_3x3(ctx, m, budget, dep, ctx.subseed(i))
    });
    for (i, (label, _, budget)) in combos.iter().enumerate() {
        let budget = *budget;
        let reports = &all_reports[3 * i..3 * i + 3];
        let mut csv = CsvTable::new(["t_us", "bc_mw", "bcc_mw", "crr_mw", "budget_mw"]);
        let horizon = reports
            .iter()
            .map(|r| r.exec_time)
            .max()
            .expect("three runs");
        let step = SimTime::from_us(2);
        let mut t = SimTime::ZERO;
        while t <= horizon {
            csv.row_values([
                t.as_us_f64(),
                reports[0].power.value_at(t),
                reports[1].power.value_at(t),
                reports[2].power.value_at(t),
                budget,
            ]);
            t += step;
        }
        write_csv(ctx, &mut fig, &format!("fig16_trace_{label}.csv"), &csv);

        let cap_ok = reports
            .iter()
            .all(|r| r.peak_overshoot_mw() <= 0.12 * budget);
        fig.claim(
            format!("cap-enforced-{label}"),
            "all three methods enforce the power cap",
            format!(
                "peak overshoot: BC {:.1}, BC-C {:.1}, C-RR {:.1} mW (transients only)",
                reports[0].peak_overshoot_mw(),
                reports[1].peak_overshoot_mw(),
                reports[2].peak_overshoot_mw()
            ),
            cap_ok,
        );
        fig.claim(
            format!("bc-shortest-runtime-{label}"),
            "BlitzCoin's faster reallocation yields the shortest runtime",
            format!(
                "exec: BC {:.0}, BC-C {:.0}, C-RR {:.0} us",
                reports[0].exec_time_us(),
                reports[1].exec_time_us(),
                reports[2].exec_time_us()
            ),
            reports[0].exec_time_us() <= reports[1].exec_time_us() * 1.01
                && reports[0].exec_time_us() < reports[2].exec_time_us(),
        );

        // the magnified inset: power reallocation around the first
        // deactivation (the paper zooms the NVDLA completion)
        if let Some(t0) = reports[0]
            .activity_changes
            .iter()
            .find(|c| !c.active)
            .map(|c| c.at_us)
        {
            let from = SimTime::from_us_f64((t0 - 5.0).max(0.0));
            let to = SimTime::from_us_f64(t0 + 20.0);
            let mut zoom = CsvTable::new(["t_us", "bc_mw", "bcc_mw", "crr_mw"]);
            let step = SimTime::from_ns(250);
            let mut t = from;
            while t <= to {
                zoom.row_values([
                    t.as_us_f64(),
                    reports[0].power.value_at(t),
                    reports[1].power.value_at(t),
                    reports[2].power.value_at(t),
                ]);
                t += step;
            }
            write_csv(ctx, &mut fig, &format!("fig16_zoom_{label}.csv"), &zoom);
            // during the reallocation window, BC banks at least as much
            // energy as the centralized schemes (it reassigns the freed
            // budget soonest)
            let bank = |r: &SimReport| r.power.integral(from, to);
            fig.claim(
                format!("fastest-reallocation-{label}"),
                "the zoomed trace shows BlitzCoin reallocating power fastest after a completion",
                format!(
                    "energy banked in the +-window: BC {:.2}, BC-C {:.2}, C-RR {:.2} uJ",
                    bank(&reports[0]) * 1e3,
                    bank(&reports[1]) * 1e3,
                    bank(&reports[2]) * 1e3
                ),
                bank(&reports[0]) >= bank(&reports[1]) * 0.98
                    && bank(&reports[0]) >= bank(&reports[2]) * 0.98,
            );
        }
    }
    fig
}

/// The Fig 17/18 grid: per-(budget, dataflow) execution and response for
/// every [`GRID_SCHEMES`] scheme, with the paper's aggregate ratios. The
/// whole scheme x combo grid executes concurrently; each combo owns a
/// sub-seed shared by its schemes.
#[allow(clippy::too_many_arguments)]
fn soc_grid(
    fig: &mut FigResult,
    ctx: &Ctx,
    soc_name: &str,
    make: impl Fn(ManagerKind, f64, bool, u64) -> SimReport + Sync,
    combos: &[(f64, bool)],
    paper_bcc_speedup: &str,
    paper_bc_response: &str,
    paper_bc_throughput: &str,
    csv_name: &str,
) {
    let grid: Vec<(ManagerKind, usize)> = (0..combos.len())
        .flat_map(|i| GRID_SCHEMES.map(|m| (m, i)))
        .collect();
    let reports = par_units(ctx, &grid, |&(m, i)| {
        let (budget, dep) = combos[i];
        make(m, budget, dep, ctx.subseed(i as u64))
    });
    let at = |m, i| grid_at(&grid, &reports, m, i);

    let mut csv = CsvTable::new(
        [
            "budget_mw",
            "dataflow",
            "manager",
            "exec_us",
            "mean_response_us",
            "nontrivial_response_us",
            "max_response_us",
            "utilization",
        ]
        .into_iter()
        .chain(GRID_STATS),
    );
    for (&(m, i), r) in grid.iter().zip(&reports) {
        let (budget, dep) = combos[i];
        let cells = [
            format!("{budget}"),
            if dep { "WL-Dep" } else { "WL-Par" }.to_string(),
            m.to_string(),
            format!("{:.1}", r.exec_time_us()),
            format!("{:.3}", r.mean_response_us().unwrap_or(0.0)),
            format!("{:.3}", r.mean_nontrivial_response_us(0.05).unwrap_or(0.0)),
            format!("{:.3}", r.max_response_us().unwrap_or(0.0)),
            format!("{:.3}", r.utilization()),
        ];
        csv.row(cells.into_iter().chain(scheme_stat_cells(r, &GRID_STATS)));
    }
    write_csv(ctx, fig, csv_name, &csv);

    let mut speedup_bcc_vs_crr = Vec::new();
    let mut speedup_bc_vs_crr = Vec::new();
    let mut speedup_bc_vs_bcc = Vec::new();
    let mut resp_ratio_bcc = Vec::new();
    let mut resp_ratio_crr = Vec::new();
    let mut exec_ratio_ts = Vec::new();
    let mut resp_ratio_ts = Vec::new();
    let mut resp_ratio_pt = Vec::new();
    let mut pt_iters_total = 0.0;
    let mut pt_all_cleared = true;
    for i in 0..combos.len() {
        let bc = at(ManagerKind::BlitzCoin, i);
        let bcc = at(ManagerKind::BcCentralized, i);
        let crr = at(ManagerKind::CentralizedRoundRobin, i);
        let ts = at(ManagerKind::TokenSmart, i);
        let pt = at(ManagerKind::PriceTheory, i);
        speedup_bcc_vs_crr.push(crr.exec_time_us() / bcc.exec_time_us());
        speedup_bc_vs_crr.push(crr.exec_time_us() / bc.exec_time_us());
        speedup_bc_vs_bcc.push(bcc.exec_time_us() / bc.exec_time_us());
        let bc_resp = bc.mean_nontrivial_response_us(0.05).unwrap_or(f64::NAN);
        resp_ratio_bcc.push(bcc.mean_response_us().unwrap_or(f64::NAN) / bc_resp);
        resp_ratio_crr.push(crr.mean_response_us().unwrap_or(f64::NAN) / bc_resp);
        exec_ratio_ts.push(ts.exec_time_us() / bc.exec_time_us());
        resp_ratio_ts.push(ts.mean_response_us().unwrap_or(f64::NAN) / bc_resp);
        resp_ratio_pt.push(pt.mean_response_us().unwrap_or(f64::NAN) / bc_resp);
        let sessions = pt.scheme_stat("pt_sessions").unwrap_or(0.0);
        pt_iters_total += pt.scheme_stat("pt_iterations").unwrap_or(0.0);
        pt_all_cleared &=
            sessions > 0.0 && pt.scheme_stat("pt_cleared").unwrap_or(0.0) >= sessions * 0.5;
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let bcc_speed = avg(&speedup_bcc_vs_crr);
    fig.claim(
        format!("{soc_name}.bcc-vs-crr"),
        paper_bcc_speedup.to_string(),
        format!("BC-C speedup over C-RR: {:.0}%", (bcc_speed - 1.0) * 100.0),
        bcc_speed > 1.05,
    );
    let bc_thr = avg(&speedup_bc_vs_crr);
    fig.claim(
        format!("{soc_name}.bc-throughput"),
        paper_bc_throughput.to_string(),
        format!(
            "BC throughput: +{:.0}% vs C-RR, +{:.1}% vs BC-C",
            (bc_thr - 1.0) * 100.0,
            (avg(&speedup_bc_vs_bcc) - 1.0) * 100.0
        ),
        bc_thr > 1.10,
    );
    let r_bcc = avg(&resp_ratio_bcc);
    let r_crr = avg(&resp_ratio_crr);
    fig.claim(
        format!("{soc_name}.bc-response"),
        paper_bc_response.to_string(),
        format!("BC response {r_bcc:.1}x faster than BC-C, {r_crr:.1}x than C-RR"),
        r_bcc > 2.0 && r_crr > 5.0,
    );

    let pt_resp = avg(&resp_ratio_pt);
    fig.claim(
        format!("{soc_name}.pt-cycle-level"),
        "Price Theory runs cycle-level: the tâtonnement converges through \
         real quote/bid NoC round trips, so its response time carries the \
         hierarchical iteration cost the behavioural model only estimated",
        format!(
            "{pt_iters_total:.0} tâtonnement iterations over the grid, most \
             sessions cleared; PT convergence response is {pt_resp:.1}x BC's"
        ),
        pt_iters_total > 0.0 && pt_all_cleared && pt_resp > 1.0,
    );

    let ts_exec = avg(&exec_ratio_ts);
    let ts_resp = avg(&resp_ratio_ts);
    fig.claim(
        format!("{soc_name}.bc-vs-tokensmart"),
        "BlitzCoin's concurrent pairwise exchanges out-allocate TokenSmart's \
         sequential ring end to end: the greedy/fair token targets leave \
         throughput on the table even when the small-ring revolution is quick",
        format!(
            "TS runs {:.1}% longer than BC across the grid (TS settle \
             confirmation is {ts_resp:.1}x BC's convergence response on \
             these small rings; the ring's penalty is allocation quality, \
             and its revolution time grows linearly with ring size)",
            (ts_exec - 1.0) * 100.0
        ),
        ts_exec > 1.02,
    );
}

/// Fig 17: execution and response times on the 3x3 SoC.
pub fn fig17(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new("fig17", "3x3 SoC: execution time and response time");
    soc_grid(
        &mut fig,
        ctx,
        "3x3",
        |m, b, dep, seed| run_3x3(ctx, m, b, dep, seed),
        &[(120.0, false), (60.0, false), (120.0, true), (60.0, true)],
        "BC-C provides on average 24% speedup vs C-RR",
        "BC improves response 10.1x vs BC-C and 12.1x vs C-RR",
        "BC throughput +9% vs BC-C, +34% vs C-RR",
        "fig17_soc3x3.csv",
    );
    fig
}

/// Fig 18: execution and response times on the 4x4 SoC.
pub fn fig18(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new("fig18", "4x4 SoC: execution time and response time");
    let f = frames(ctx);
    let make = move |m: ManagerKind, b: f64, dep: bool, seed: u64| {
        let soc = floorplan::soc_4x4();
        let wl = if dep {
            workload::vision_dependent(&soc, f)
        } else {
            workload::vision_parallel(&soc, f)
        };
        ctx.run_sim(&Simulation::new(soc, wl, ctx.sim_config(m, b)), seed)
    };
    soc_grid(
        &mut fig,
        ctx,
        "4x4",
        make,
        &[(450.0, false), (900.0, false), (450.0, true)],
        "BC-C provides 20% throughput improvement over C-RR",
        "BC improves C-RR's response time by 8.3x",
        "BC throughput +25% vs C-RR",
        "fig18_soc4x4.csv",
    );
    fig
}

/// Fig 19: the silicon experiments on the 6x6 prototype's PM cluster —
/// budget utilization, coin redistribution at startup, and throughput vs
/// the static baseline for 7/5/4/3-accelerator workloads.
pub fn fig19(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new("fig19", "PM-cluster runs (silicon substitution)");
    let soc = floorplan::soc_6x6();
    let budget = soc.total_p_max() * 0.33;
    let f = frames(ctx).max(2);

    // all four workload sizes x {BC, Static} run concurrently; each size
    // owns a sub-seed shared by the BC/Static pair
    let sizes = [7usize, 5, 4, 3];
    let units: Vec<(u64, usize, ManagerKind)> = sizes
        .iter()
        .enumerate()
        .flat_map(|(i, &n)| [ManagerKind::BlitzCoin, ManagerKind::Static].map(|m| (i as u64, n, m)))
        .collect();
    let reports = par_units(ctx, &units, |&(i, n, m)| {
        let wl = workload::pm_cluster(&soc, f, n);
        ctx.run_sim(
            &Simulation::new(soc.clone(), wl, ctx.sim_config(m, budget)).with_tile_traces(),
            ctx.subseed(i),
        )
    });

    // 7-accelerator run: utilization + coin allocation before/after
    let bc = &reports[0];
    let stat = &reports[1];
    let mut csv = CsvTable::new(["tile", "coins_at_boot", "coins_after_convergence"]);
    let t_conv = bc
        .responses
        .first()
        .map(|r| SimTime::from_us_f64(r.at_us + r.response_us + 1.0))
        .unwrap_or(SimTime::from_us(50));
    for (slot, trace) in bc.tile_traces().coins.iter().enumerate() {
        csv.row_values([
            bc.managed_tiles[slot] as f64,
            trace.value_at(SimTime::ZERO),
            trace.value_at(t_conv),
        ]);
    }
    write_csv(ctx, &mut fig, "fig19_coin_allocation.csv", &csv);

    fig.claim(
        "utilization",
        "measured input power stays within budget with P_avg/P_budget = 97%",
        format!(
            "utilization {:.0}%, peak overshoot {:.1} mW",
            bc.utilization() * 100.0,
            bc.peak_overshoot_mw()
        ),
        bc.utilization() > 0.80 && bc.utilization() <= 1.02,
    );
    let speedup7 = (stat.exec_time_us() / bc.exec_time_us() - 1.0) * 100.0;
    fig.claim(
        "throughput-vs-static",
        "BlitzCoin achieves 27% throughput improvement vs static allocation (7 accels)",
        format!(
            "+{speedup7:.0}% (BC {:.0} us vs static {:.0} us)",
            bc.exec_time_us(),
            stat.exec_time_us()
        ),
        speedup7 > 10.0,
    );

    // 5/4/3-accelerator variants
    let mut csv2 = CsvTable::new([
        "n_accels",
        "bc_exec_us",
        "static_exec_us",
        "improvement_pct",
    ]);
    let mut all_positive = true;
    for (i, &n) in sizes.iter().enumerate().skip(1) {
        let (b, s) = (&reports[2 * i], &reports[2 * i + 1]);
        let imp = (s.exec_time_us() / b.exec_time_us() - 1.0) * 100.0;
        csv2.row_values([n as f64, b.exec_time_us(), s.exec_time_us(), imp]);
        all_positive &= imp > 0.0;
    }
    write_csv(ctx, &mut fig, "fig19_static_comparison.csv", &csv2);
    fig.claim(
        "smaller-workloads",
        "similar improvements (26/26/19%) for 5/4/3-accelerator workloads",
        "improvement positive across 5/4/3-accelerator variants (see CSV)".to_string(),
        all_positive,
    );

    // coin redistribution at workload startup within ~1 coin of target
    let startup_resp = bc.responses.first().map(|r| r.response_us);
    fig.claim(
        "startup-redistribution",
        "after initialization, coins redistribute to targets with <1-coin residual",
        format!("startup convergence in {startup_resp:?} us (tolerance 1.5 coins)"),
        startup_resp.is_some(),
    );
    fig
}

/// Fig 20: coin exchange after the NVDLA task ends — the measured
/// response-time comparison (silicon: BC 0.68 µs, BC-C 1.4 µs, C-RR
/// 15.3 µs).
pub fn fig20(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new("fig20", "Response to the NVDLA-completion transition");
    let soc = floorplan::soc_6x6();
    let budget = soc.total_p_max() * 0.33;
    let f = frames(ctx).max(2);
    let nvdla_tile = soc
        .managed_tiles()
        .into_iter()
        .find(|&t| {
            soc.tiles[t.index()].accel_class() == Some(blitzcoin_power::AcceleratorClass::Nvdla)
        })
        .expect("6x6 has an NVDLA")
        .index();

    // one transition, three managers under the same workload draw: the
    // three runs are independent and execute concurrently
    let reports = par_units(ctx, &MANAGERS, |&m| {
        let wl = workload::pm_cluster(&soc, f, 7);
        ctx.run_sim(
            &Simulation::new(soc.clone(), wl, ctx.sim_config(m, budget)).with_tile_traces(),
            ctx.seed,
        )
    });
    let measured: Vec<(ManagerKind, Option<f64>, Option<f64>)> = MANAGERS
        .iter()
        .zip(&reports)
        .map(|(&m, r)| {
            // the NVDLA's stream-end transition
            let t_end = r
                .activity_changes
                .iter()
                .filter(|c| c.tile == nvdla_tile && !c.active)
                .map(|c| c.at_us)
                .next_back();
            let resp = t_end.and_then(|t| r.response_at(t));
            (m, t_end, resp)
        })
        .collect();

    // coin trace around the transition for the BC run
    let bc = &reports[0];
    let t_end = measured[0].1.unwrap_or(0.0);
    let mut csv = CsvTable::new(["t_us", "tile", "coins"]);
    let from = SimTime::from_us_f64((t_end - 2.0).max(0.0));
    let to = SimTime::from_us_f64(t_end + 6.0);
    for (slot, trace) in bc.tile_traces().coins.iter().enumerate() {
        for p in trace.resample(from, to, SimTime::from_ns(100)) {
            csv.row_values([p.time.as_us_f64(), bc.managed_tiles[slot] as f64, p.value]);
        }
    }
    write_csv(ctx, &mut fig, "fig20_coin_trace.csv", &csv);

    let bc_resp = measured[0].2.unwrap_or(f64::NAN);
    let bcc_resp = measured[1].2.unwrap_or(f64::NAN);
    let crr_resp = measured[2].2.unwrap_or(f64::NAN);
    fig.claim(
        "bc-response",
        "BlitzCoin's response to the transition is sub-µs scale (silicon: 0.68 µs)",
        format!("BC {bc_resp:.2} us"),
        bc_resp.is_finite() && bc_resp < 3.0,
    );
    fig.claim(
        "ordering",
        "BC-C 2.1x and C-RR 22.5x slower than BlitzCoin (silicon)",
        format!(
            "BC {bc_resp:.2} us < BC-C {bcc_resp:.2} us < C-RR {crr_resp:.2} us ({:.1}x, {:.1}x)",
            bcc_resp / bc_resp,
            crr_resp / bc_resp
        ),
        bc_resp < bcc_resp && bcc_resp < crr_resp,
    );
    fig
}

/// §VI-A: Relative-Proportional vs Absolute-Proportional allocation.
pub fn ap_vs_rp(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new("ap-vs-rp", "RP vs AP allocation (§VI-A)");
    let f = frames(ctx);
    // budgets x {RP, AP} concurrently; each budget level owns a sub-seed
    // shared by its policy pair
    let budgets = [60.0, 90.0, 120.0];
    let units: Vec<(u64, f64, AllocationPolicy)> = budgets
        .iter()
        .enumerate()
        .flat_map(|(i, &b)| {
            [
                AllocationPolicy::RelativeProportional,
                AllocationPolicy::AbsoluteProportional,
            ]
            .map(|p| (i as u64, b, p))
        })
        .collect();
    let runs = par_units(ctx, &units, |&(i, budget, policy)| {
        let soc = floorplan::soc_3x3();
        let wl = workload::av_parallel(&soc, f);
        let mut cfg = ctx.sim_config(ManagerKind::BlitzCoin, budget);
        cfg.policy = policy;
        ctx.run_sim(&Simulation::new(soc, wl, cfg), ctx.subseed(i))
    });

    let mut csv = CsvTable::new(["budget_mw", "rp_exec_us", "ap_exec_us", "rp_gain_pct"]);
    let mut gains = Vec::new();
    for (i, &budget) in budgets.iter().enumerate() {
        let (rp, ap) = (&runs[2 * i], &runs[2 * i + 1]);
        let gain = (ap.exec_time_us() / rp.exec_time_us() - 1.0) * 100.0;
        csv.row_values([budget, rp.exec_time_us(), ap.exec_time_us(), gain]);
        gains.push(gain);
    }
    write_csv(ctx, &mut fig, "ap_vs_rp.csv", &csv);
    let mean_gain = gains.iter().sum::<f64>() / gains.len() as f64;
    fig.claim(
        "rp-beats-ap",
        "RP offers 3.0-4.1% higher throughput than AP for 60-120 mW budgets",
        format!("mean RP gain {mean_gain:.1}% across budgets (per-budget in CSV)"),
        mean_gain > 0.0,
    );
    fig
}
