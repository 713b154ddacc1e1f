//! `mega-mesh`: the analytic τ·N^k scaling model validated by direct
//! measurement on mega-meshes.
//!
//! The paper's headline scaling claims (Fig 21, Table 1) extrapolate the
//! `crates/scaling` model from fits at N = 6/7/13; the simulator had only
//! ever run 3x3–6x6 floorplans. This experiment runs BlitzCoin, BC-C and
//! TokenSmart on parametric mega-meshes — 16x16 (256 tiles) always,
//! 32x32 (1024 tiles) in full mode, plus an optional `--mega-d` point —
//! in two power-management shapes per size:
//!
//! - **global**: one flat exchange domain over every managed tile, the
//!   configuration the analytic `τ·N^e` curves describe. Measured
//!   response here lands *on* (or off) the extrapolated curves, turning
//!   the scaling claim from extrapolation into measurement.
//! - **hier**: the quadtree cluster federation from
//!   `floorplan::mega_mesh` (one PM cluster per quadrant, recursing
//!   above 16x16), the mechanism that keeps exchange domains and
//!   TokenSmart rings bounded as the die grows.
//!
//! Measured convergence time (`mean_nontrivial_response_us`) and plane-5
//! PM packets per activity change overlay the `TauFit` curves in
//! `mega_mesh_curves.csv`; the claims quantify agreement per point.

use blitzcoin_noc::Plane;
use blitzcoin_scaling::{Strategy, TauFit};
use blitzcoin_sim::csv::CsvTable;
use blitzcoin_soc::prelude::*;

use crate::figures::analytical;
use crate::sweep::{par_units, replica, write_csv};
use crate::{Ctx, FigResult};

/// One measured point: mean response, coin packets per activity change,
/// and exec time, averaged over the seed replicas of a grid cell.
#[derive(Debug, Clone, Copy, Default)]
struct Point {
    resp_us: f64,
    pkts_per_change: f64,
    exec_us: f64,
}

/// Runs the mega-mesh scaling validation (see the module docs).
pub fn mega_mesh(ctx: &Ctx) -> FigResult {
    let mut fig = FigResult::new(
        "mega-mesh",
        "Mega-mesh scaling: measured response vs the analytic tau*N^k curves",
    );
    let mut ds: Vec<usize> = if ctx.quick { vec![16] } else { vec![16, 32] };
    if let Some(d) = ctx.mega_d {
        if !ds.contains(&d) {
            ds.push(d);
        }
    }
    // The cross-size claims compare the first entry to the last, so the
    // grid must stay ascending even when --mega-d adds a smaller point.
    ds.sort_unstable();
    let seeds = if ctx.quick { 1u64 } else { 2 };
    let managers = [
        ManagerKind::BlitzCoin,
        ManagerKind::BcCentralized,
        ManagerKind::TokenSmart,
    ];
    let domains = ["global", "hier"];

    // One flattened work queue: a 1024-tile BC-C run load-balances
    // against the cheap 256-tile ones. Each d owns a sub-seed; the
    // managers and domain shapes at one (d, replica) share the draw
    // (paired comparison). BC-C and TokenSmart do not draw from the
    // seed, so their replicas are one unit that runs once.
    let units: Vec<(u64, usize, ManagerKind, usize, u64)> = ds
        .iter()
        .enumerate()
        .flat_map(|(i, &d)| {
            managers.into_iter().flat_map(move |m| {
                (0..domains.len()).flat_map(move |dom| {
                    (0..seeds).map(move |s| (i as u64, d, m, dom, replica(m, s)))
                })
            })
        })
        .collect();
    let results = par_units(ctx, &units, |&(i, d, m, dom, s)| {
        let mm = floorplan::mega_mesh(d);
        let wl = workload::parallel_all(&mm.soc, 2);
        let cfg = SimConfig {
            tie_break: ctx.tie_break,
            ..SimConfig::for_large_soc(m, mm.soc.total_p_max() * 0.3, mm.soc.n_managed())
        };
        let seed = blitzcoin_sim::exec::trial_seed(ctx.seed, i, s);
        let sim = if dom == 1 {
            Simulation::with_clusters(mm.soc, wl, cfg, mm.clusters)
        } else {
            Simulation::new(mm.soc, wl, cfg)
        };
        let r = ctx.run_sim(&sim, seed);
        // All power management rides plane 5 (MmioIrq): coin exchange for
        // the decentralized schemes, RegRead/RegWrite sweeps for the
        // centralized ones, token visits for TS — the one packets/exchange
        // metric every manager is comparable on.
        let pm_pkts = r.noc.packets[Plane::MmioIrq.index()];
        (
            r.mean_nontrivial_response_us(0.05),
            pm_pkts as f64 / r.activity_changes.len().max(1) as f64,
            r.exec_time_us(),
        )
    });

    // Collapse seed replicas; `points[(i_d, i_m, dom)]`.
    let cell = |i_d: usize, i_m: usize, dom: usize| -> Point {
        let base = ((i_d * managers.len() + i_m) * domains.len() + dom) * seeds as usize;
        let chunk = &results[base..base + seeds as usize];
        let resp: Vec<f64> = chunk.iter().filter_map(|(r, _, _)| *r).collect();
        Point {
            resp_us: resp.iter().sum::<f64>() / resp.len().max(1) as f64,
            pkts_per_change: chunk.iter().map(|(_, p, _)| p).sum::<f64>() / seeds as f64,
            exec_us: chunk.iter().map(|(_, _, e)| e).sum::<f64>() / seeds as f64,
        }
    };

    let mut csv = CsvTable::new([
        "d",
        "n_tiles",
        "n_managed",
        "domain",
        "n_domains",
        "manager",
        "config",
        "resp_us",
        "pm_pkts_per_change",
        "exec_us",
    ]);
    for (i_d, &d) in ds.iter().enumerate() {
        let mm = floorplan::mega_mesh(d);
        for (i_m, m) in managers.iter().enumerate() {
            for (dom, name) in domains.iter().enumerate() {
                let p = cell(i_d, i_m, dom);
                csv.row([
                    d.to_string(),
                    (d * d).to_string(),
                    mm.soc.n_managed().to_string(),
                    name.to_string(),
                    if dom == 1 { mm.clusters.len() } else { 1 }.to_string(),
                    m.to_string(),
                    format!("{m} {name}"),
                    format!("{:.4}", p.resp_us),
                    format!("{:.4}", p.pkts_per_change),
                    format!("{:.2}", p.exec_us),
                ]);
            }
        }
    }
    write_csv(ctx, &mut fig, "mega_mesh_measured.csv", &csv);

    // The analytic curves the measured points overlay: τ fitted from the
    // same engine at N = 6/7/13 (exactly what Fig 21 extrapolates from),
    // TS from its hardware-calibrated service time.
    let fits = analytical::fit_taus(ctx);
    let fit_of = |s: Strategy| -> &TauFit {
        &fits
            .iter()
            .find(|(st, _, _)| *st == s)
            .expect("strategy fitted")
            .1
    };
    let bc_fit = fit_of(Strategy::BlitzCoin);
    let bcc_fit = fit_of(Strategy::BcCentralized);
    let ts_fit = analytical::ts_hw();
    let mut curves = CsvTable::new(["n", "bc_us", "bcc_us", "ts_us"]);
    for n in [6usize, 13, 32, 64, 128, 252, 512, 1008, 2048, 4096] {
        curves.row_values([
            n as f64,
            bc_fit.response_us(n),
            bcc_fit.response_us(n),
            ts_fit.response_us(n),
        ]);
    }
    write_csv(ctx, &mut fig, "mega_mesh_curves.csv", &curves);

    // -- claims ----------------------------------------------------------
    let n_at = |i_d: usize| floorplan::mega_mesh(ds[i_d]).soc.n_managed();
    let last = ds.len() - 1;
    let n_last = n_at(last);
    let bc_g = cell(last, 0, 0);
    let bcc_g = cell(last, 1, 0);
    let bc_h = cell(last, 0, 1);

    // Agreement with the extrapolated curve, quantified per point.
    let agreements: Vec<String> = ds
        .iter()
        .enumerate()
        .map(|(i_d, &d)| {
            let p = cell(i_d, 0, 0);
            format!(
                "{d}x{d} (N={}): measured {:.2} us = {:.2}x the tau*sqrt(N) extrapolation",
                n_at(i_d),
                p.resp_us,
                bc_fit.agreement(n_at(i_d), p.resp_us)
            )
        })
        .collect();
    let within = ds.iter().enumerate().all(|(i_d, _)| {
        let p = cell(i_d, 0, 0);
        p.resp_us > 0.0 && (0.2..=5.0).contains(&bc_fit.agreement(n_at(i_d), p.resp_us))
    });
    fig.claim(
        "bc-analytic-agreement",
        "the tau_BC*sqrt(N) model extrapolated from N=6/7/13 predicts mega-mesh response",
        agreements.join("; "),
        within,
    );

    fig.claim(
        "bc-beats-centralized-at-scale",
        "decentralized response stays below the centralized sweep as N grows (Fig 21)",
        format!(
            "N={n_last} global domain: BC {:.2} us vs BC-C {:.2} us",
            bc_g.resp_us, bcc_g.resp_us
        ),
        bc_g.resp_us > 0.0 && bc_g.resp_us < bcc_g.resp_us,
    );

    fig.claim(
        "hier-federation-bounds-response",
        "quadtree PM clusters keep response near the small-domain level at any die size",
        format!(
            "N={n_last}: hier BC {:.2} us vs global BC {:.2} us",
            bc_h.resp_us, bc_g.resp_us
        ),
        bc_h.resp_us > 0.0 && bc_h.resp_us <= bc_g.resp_us * 2.0,
    );

    // TokenSmart is where federation is existential: one global ring's
    // revolution time grows linearly with the stop count, while the
    // per-quadrant rings stay 8x8-sized forever.
    let ts_g = cell(last, 2, 0);
    let ts_h = cell(last, 2, 1);
    fig.claim(
        "federation-rescues-ring",
        "bounded per-cluster rings keep TokenSmart usable where one global ring degrades",
        format!(
            "N={n_last}: hier TS {:.2} us vs one global ring {:.2} us",
            ts_h.resp_us, ts_g.resp_us
        ),
        ts_h.resp_us > 0.0 && ts_h.resp_us < ts_g.resp_us,
    );

    if ds.len() >= 2 {
        let n0 = n_at(0);
        let n_ratio = n_last as f64 / n0 as f64;
        let bc0 = cell(0, 0, 0);
        let bcc0 = cell(0, 1, 0);
        let bc_ratio = bc_g.resp_us / bc0.resp_us.max(1e-9);
        let bcc_ratio = bcc_g.resp_us / bcc0.resp_us.max(1e-9);
        fig.claim(
            "bc-sublinear-scaling",
            "global-domain BC response grows ~sqrt(N), not N",
            format!(
                "N x{n_ratio:.1} ({n0} -> {n_last}): BC response x{bc_ratio:.2} \
                 (sqrt would be x{:.2}, linear x{n_ratio:.2})",
                n_ratio.sqrt()
            ),
            bc_ratio < 0.75 * n_ratio,
        );
        fig.claim(
            "centralized-grows-faster",
            "the centralized sweep's response grows faster than BlitzCoin's",
            format!("N x{n_ratio:.1}: BC-C response x{bcc_ratio:.2} vs BC x{bc_ratio:.2}"),
            bcc_ratio > bc_ratio,
        );
        fig.claim(
            "bc-traffic-per-change-bounded",
            "per-event PM traffic of the local exchange does not grow with N",
            format!(
                "N {n0} -> {n_last}, global domain: BC {:.0} -> {:.0} PM pkts/change \
                 (x{:.2}); BC-C sweep response pays its cost in latency instead",
                bc0.pkts_per_change,
                bc_g.pkts_per_change,
                bc_g.pkts_per_change / bc0.pkts_per_change.max(1e-9)
            ),
            bc_g.pkts_per_change <= bc0.pkts_per_change * 1.5,
        );
    }

    fig
}
