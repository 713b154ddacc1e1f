//! Per-figure renderers: map the harness's `results/*.csv` onto charts.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::chart::{BarChart, Heatmap, LineChart};
use crate::csv::{CsvError, Table};

/// Loads `dir/name`, or `None` when the harness has not written it.
fn load(dir: &Path, name: &str) -> io::Result<Option<Table>> {
    match Table::load(dir.join(name)) {
        Ok(t) => Ok(Some(t)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Renders every recognized CSV in `dir` into `dir/plots/*.svg`;
/// returns the written paths. Missing CSVs are skipped (render what the
/// harness has produced so far); `dir/plots` is created with the first
/// SVG, so a directory without result CSVs is left untouched.
///
/// # Errors
/// Returns an I/O error if a recognized CSV cannot be read, is malformed
/// (an `InvalidData` error naming the file: a row wider or narrower than
/// its header, or a column the figure needs is missing), or if the plots
/// directory or an SVG cannot be written.
pub fn render_results_dir(dir: impl AsRef<Path>) -> io::Result<Vec<PathBuf>> {
    let dir = dir.as_ref();
    let plots = dir.join("plots");
    let mut written = Vec::new();
    let mut emit = |name: &str, svg: String| -> io::Result<()> {
        if written.is_empty() {
            fs::create_dir_all(&plots)?;
        }
        let path = plots.join(name);
        fs::write(&path, svg)?;
        written.push(path);
        Ok(())
    };

    if let Some(t) = load(dir, "fig01_scaling.csv")? {
        let chart = LineChart::new(
            "Fig 1: response-time scaling",
            "accelerators N",
            "time (us)",
        )
        .log_x()
        .log_y()
        .series("SW centralized", t.xy("n", "sw_central_us")?)
        .series("HW centralized", t.xy("n", "hw_central_us")?)
        .series("decentralized (BC)", t.xy("n", "decentralized_us")?)
        .series("Tw=1ms / N", t.xy("n", "tw1ms_over_n")?)
        .series("Tw=20ms / N", t.xy("n", "tw20ms_over_n")?);
        emit("fig01_scaling.svg", chart.render())?;
    }
    if let Some(t) = load(dir, "fig03_oneway_fourway.csv")? {
        let cycles = LineChart::new("Fig 3: convergence time", "d = sqrt(N)", "NoC cycles")
            .series("1-way", t.xy("d", "oneway_cycles")?)
            .series("4-way", t.xy("d", "fourway_cycles")?);
        emit("fig03_cycles.svg", cycles.render())?;
        let packets = LineChart::new("Fig 3: packets to convergence", "d = sqrt(N)", "packets")
            .series("1-way", t.xy("d", "oneway_packets")?)
            .series("4-way", t.xy("d", "fourway_packets")?);
        emit("fig03_packets.svg", packets.render())?;
    }
    if let Some(t) = load(dir, "fig04_bc_vs_ts.csv")? {
        let chart = LineChart::new(
            "Fig 4: BlitzCoin vs TokenSmart",
            "d = sqrt(N)",
            "NoC cycles",
        )
        .log_y()
        .series("BC mean", t.xy("d", "bc_mean_cycles")?)
        .series("BC p99", t.xy("d", "bc_p99_cycles")?)
        .series("TS mean", t.xy("d", "ts_mean_cycles")?)
        .series("TS p99", t.xy("d", "ts_p99_cycles")?);
        emit("fig04_bc_vs_ts.svg", chart.render())?;
    }
    if let Some(t) = load(dir, "fig06_dynamic_timing.csv")? {
        let cycles = LineChart::new("Fig 6: dynamic timing (time)", "d", "NoC cycles")
            .series("conventional", t.xy("d", "conv_cycles_conventional")?)
            .series("dynamic", t.xy("d", "conv_cycles_dynamic")?);
        emit("fig06_cycles.svg", cycles.render())?;
        let steady = LineChart::new("Fig 6: steady-state traffic", "d", "packets per kcycle")
            .series(
                "conventional",
                t.xy("d", "steady_pkts_per_kcycle_conventional")?,
            )
            .series("dynamic", t.xy("d", "steady_pkts_per_kcycle_dynamic")?);
        emit("fig06_steady_traffic.svg", steady.render())?;
    }
    if let Some(t) = load(dir, "fig07_random_pairing_hist.csv")? {
        let mut chart = LineChart::new("Fig 7: worst-case residual error", "error (coins)", "runs");
        let (ni, pi) = (t.col("n")?, t.col("pairing")?);
        let (bi, ci) = (t.col("bin_center")?, t.col("count")?);
        for n in t.distinct("n")? {
            for (pairing, label) in [("0", "off"), ("1", "on")] {
                let pts: Vec<(f64, f64)> = t
                    .rows
                    .iter()
                    .filter(|r| r[ni] == n && r[pi] == pairing)
                    .filter_map(|r| Some((r[bi].parse().ok()?, r[ci].parse().ok()?)))
                    .collect();
                if !pts.is_empty() {
                    chart = chart.series(format!("N={n} pairing {label}"), pts);
                }
            }
        }
        emit("fig07_histograms.svg", chart.render())?;
    }
    if let Some(t) = load(dir, "fig08_heterogeneity.csv")? {
        let mut chart = LineChart::new("Fig 8: heterogeneity", "d", "NoC cycles");
        for k in t.distinct("acc_types")? {
            chart = chart.series(
                format!("accType={k}"),
                t.xy_where("d", "mean_cycles", "acc_types", &k)?,
            );
        }
        emit("fig08_heterogeneity.svg", chart.render())?;
    }
    if let Some(t) = load(dir, "fig13_characterization.csv")? {
        let mut chart = LineChart::new(
            "Fig 13: P-F characterization",
            "frequency (MHz)",
            "power (mW)",
        );
        for acc in t.distinct("accelerator")? {
            chart = chart.series(
                acc.clone(),
                t.xy_where("freq_mhz", "power_mw", "accelerator", &acc)?,
            );
        }
        emit("fig13_characterization.svg", chart.render())?;
    }
    for (file, out, title) in [
        (
            "fig16_trace_wlpar_120mw.csv",
            "fig16_trace_wlpar.svg",
            "Fig 16: power trace, WL-Par @ 120 mW",
        ),
        (
            "fig16_trace_wldep_60mw.csv",
            "fig16_trace_wldep.svg",
            "Fig 16: power trace, WL-Dep @ 60 mW",
        ),
    ] {
        if let Some(t) = load(dir, file)? {
            let chart = LineChart::new(title, "time (us)", "power (mW)")
                .series("BC", t.xy("t_us", "bc_mw")?)
                .series("BC-C", t.xy("t_us", "bcc_mw")?)
                .series("C-RR", t.xy("t_us", "crr_mw")?)
                .series("budget", t.xy("t_us", "budget_mw")?);
            emit(out, chart.render())?;
        }
    }
    for (file, out, title) in [
        (
            "fig17_soc3x3.csv",
            "fig17_exec.svg",
            "Fig 17: 3x3 execution time",
        ),
        (
            "fig18_soc4x4.csv",
            "fig18_exec.svg",
            "Fig 18: 4x4 execution time",
        ),
    ] {
        if let Some(t) = load(dir, file)? {
            emit(out, exec_bars(&t, title)?.render())?;
        }
    }
    if let Some(t) = load(dir, "fig19_coin_allocation.csv")? {
        let ti = t.col("tile")?;
        let tiles: Vec<String> = t.rows.iter().map(|r| format!("T{}", r[ti])).collect();
        let chart = BarChart::new("Fig 19: coin redistribution", "coins", tiles)
            .group("at boot", t.numbers("coins_at_boot")?)
            .group("converged", t.numbers("coins_after_convergence")?);
        emit("fig19_coins.svg", chart.render())?;
    }
    if let Some(t) = load(dir, "fig20_coin_trace.csv")? {
        let mut chart = LineChart::new("Fig 20: coins after NVDLA completes", "time (us)", "coins");
        for tile in t.distinct("tile")? {
            chart = chart.series(
                format!("tile {tile}"),
                t.xy_where("t_us", "coins", "tile", &tile)?,
            );
        }
        emit("fig20_coin_trace.svg", chart.render())?;
    }
    if let Some(t) = load(dir, "fig21_nmax.csv")? {
        let chart = LineChart::new("Fig 21: max supported accelerators", "Tw (ms)", "N_max")
            .log_x()
            .log_y()
            .series("BC", t.xy("tw_ms", "bc")?)
            .series("BC-C", t.xy("tw_ms", "bcc")?)
            .series("C-RR", t.xy("tw_ms", "crr")?)
            .series("TS", t.xy("tw_ms", "ts")?)
            .series("PT (hw)", t.xy("tw_ms", "pt_hw")?);
        emit("fig21_nmax.svg", chart.render())?;
    }
    if let Some(t) = load(dir, "fig21_pm_overhead.csv")? {
        let chart = LineChart::new("Fig 21: time in PM @ Tw=10ms", "N", "% of runtime")
            .log_x()
            .log_y()
            .series("BC", t.xy("n", "bc_pct")?)
            .series("BC-C", t.xy("n", "bcc_pct")?)
            .series("C-RR", t.xy("n", "crr_pct")?)
            .series("TS", t.xy("n", "ts_pct")?);
        emit("fig21_pm_overhead.svg", chart.render())?;
    }
    if let Some(t) = load(dir, "scaling_sim_response.csv")? {
        let chart = LineChart::new(
            "Engine-measured response scaling",
            "managed tiles N",
            "response (us)",
        )
        .log_y()
        .series("BC", t.xy("n_managed", "bc_resp_us")?)
        .series("BC-C", t.xy("n_managed", "bcc_resp_us")?)
        .series("C-RR", t.xy("n_managed", "crr_resp_us")?);
        emit("scaling_sim_response.svg", chart.render())?;
    }
    // Mega-mesh validation: measured points (per manager/domain config)
    // overlaid on the analytic tau*N^k curves the paper extrapolates.
    if let (Some(m), Some(c)) = (
        load(dir, "mega_mesh_measured.csv")?,
        load(dir, "mega_mesh_curves.csv")?,
    ) {
        let mut chart = LineChart::new(
            "Mega-mesh: measured response vs analytic curves",
            "managed tiles N",
            "response (us)",
        )
        .log_x()
        .log_y()
        .series("analytic BC", c.xy("n", "bc_us")?)
        .series("analytic BC-C", c.xy("n", "bcc_us")?)
        .series("analytic TS", c.xy("n", "ts_us")?);
        for cfg in m.distinct("config")? {
            chart = chart.series(
                format!("measured {cfg}"),
                m.xy_where("n_managed", "resp_us", "config", &cfg)?,
            );
        }
        emit("mega_mesh_scaling.svg", chart.render())?;
    }
    if let Some(t) = load(dir, "granularity_sensitivity.csv")? {
        let chart = LineChart::new(
            "Granularity sensitivity",
            "work scale (log)",
            "penalty vs BC (%)",
        )
        .log_x()
        .series("BC-C", t.xy("work_scale", "bcc_penalty_pct")?)
        .series("C-RR", t.xy("work_scale", "crr_penalty_pct")?);
        emit("granularity_sensitivity.svg", chart.render())?;
    }
    if let Some(t) = load(dir, "thermal_ext_hotspot.csv")? {
        let un = t.numbers("uncapped_mw")?;
        let cap = t.numbers("capped_mw")?;
        let side = (un.len() as f64).sqrt() as usize;
        if side * side == un.len() {
            emit(
                "thermal_uncapped.svg",
                Heatmap::new("Hotspot scenario: uncapped (mW)", side, un).render(),
            )?;
            emit(
                "thermal_capped.svg",
                Heatmap::new("Hotspot scenario: capped (mW)", side, cap).render(),
            )?;
        }
    }
    if let Some(t) = load(dir, "noc_validation.csv")? {
        let chart = LineChart::new(
            "NoC model cross-validation",
            "burst size (packets)",
            "mean latency (cycles)",
        )
        .series("analytic", t.xy("burst_packets", "analytic_mean_cycles")?)
        .series("wormhole", t.xy("burst_packets", "wormhole_mean_cycles")?);
        emit("noc_validation.svg", chart.render())?;
    }
    if let Some(t) = load(dir, "clusters_tradeoff.csv")? {
        let ci = t.col("config")?;
        let cats: Vec<String> = t.rows.iter().map(|r| r[ci].clone()).collect();
        let chart = BarChart::new(
            "PM clusters: throughput trade-off",
            "execution time (us)",
            cats,
        )
        .group("exec", t.numbers("exec_us")?);
        emit("clusters_tradeoff.svg", chart.render())?;
    }
    // Shoot-out matrix: schemes x scenarios, cell = mean response in the
    // scenario-relevant window. A "dead" cell (the scheme never answers
    // again) paints as 1.25x the worst live response, so collapse reads
    // as the deepest red.
    if let Some(t) = load(dir, "shootout.csv")? {
        if let Some(svg) = shootout_matrix(&t)? {
            emit("scheme_shootout.svg", svg)?;
        }
    }
    if let Some(t) = load(dir, "ap_vs_rp.csv")? {
        let bi = t.col("budget_mw")?;
        let budgets: Vec<String> = t.rows.iter().map(|r| format!("{} mW", r[bi])).collect();
        let chart = BarChart::new("AP vs RP allocation", "execution time (us)", budgets)
            .group("RP", t.numbers("rp_exec_us")?)
            .group("AP", t.numbers("ap_exec_us")?);
        emit("ap_vs_rp.svg", chart.render())?;
    }
    Ok(written)
}

/// Pivots `shootout.csv` into the scheme x scenario response/resilience
/// heatmap. Returns `None` for a degenerate table (no rows).
fn shootout_matrix(t: &Table) -> Result<Option<String>, CsvError> {
    let schemes = t.distinct("manager")?;
    let scenarios = t.distinct("scenario")?;
    if schemes.is_empty() || scenarios.is_empty() {
        return Ok(None);
    }
    let (mi, si, vi) = (t.col("manager")?, t.col("scenario")?, t.col("matrix_us")?);
    let cell = |m: &str, s: &str| -> Option<f64> {
        t.rows
            .iter()
            .find(|r| r[mi] == m && r[si] == s)
            .and_then(|r| r[vi].parse().ok())
    };
    let live: Vec<f64> = schemes
        .iter()
        .flat_map(|m| scenarios.iter().filter_map(|s| cell(m, s)))
        .filter(|v| v.is_finite())
        .collect();
    let worst = live.iter().cloned().fold(1.0_f64, f64::max);
    let dead = 1.25 * worst;
    let values: Vec<f64> = schemes
        .iter()
        .flat_map(|m| {
            scenarios
                .iter()
                .map(|s| cell(m, s).filter(|v| v.is_finite()).unwrap_or(dead))
                .collect::<Vec<f64>>()
        })
        .collect();
    Ok(Some(
        Heatmap::new(
            "Shoot-out: mean response (us); deepest red = dead",
            scenarios.len(),
            values,
        )
        .row_labels(schemes)
        .col_labels(scenarios)
        .render(),
    ))
}

fn exec_bars(t: &Table, title: &str) -> Result<BarChart, CsvError> {
    // categories: (budget, dataflow) combos in appearance order
    let bi = t.col("budget_mw")?;
    let di = t.col("dataflow")?;
    let mi = t.col("manager")?;
    let ei = t.col("exec_us")?;
    let mut combos: Vec<(String, String)> = Vec::new();
    for r in &t.rows {
        let key = (r[bi].clone(), r[di].clone());
        if !combos.contains(&key) {
            combos.push(key);
        }
    }
    let categories: Vec<String> = combos.iter().map(|(b, d)| format!("{d}@{b}mW")).collect();
    let mut chart = BarChart::new(title, "execution time (us)", categories);
    for manager in t.distinct("manager")? {
        let values: Vec<f64> = combos
            .iter()
            .map(|(b, d)| {
                t.rows
                    .iter()
                    .find(|r| &r[bi] == b && &r[di] == d && r[mi] == manager)
                    .and_then(|r| r[ei].parse().ok())
                    .unwrap_or(0.0)
            })
            .collect();
        chart = chart.group(manager, values);
    }
    Ok(chart)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_available_csvs_and_skips_missing() {
        let dir = std::env::temp_dir().join(format!("blitzcoin_viz_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("fig04_bc_vs_ts.csv"),
            "d,n,bc_mean_cycles,bc_p99_cycles,ts_mean_cycles,ts_p99_cycles\n\
             4,16,100,150,500,900\n8,64,210,300,2100,4000\n",
        )
        .unwrap();
        fs::write(dir.join("thermal_ext_hotspot.csv"), {
            let mut s = String::from("tile,uncapped_mw,capped_mw\n");
            for i in 0..25 {
                s.push_str(&format!("{i},{},{}\n", i * 2, i));
            }
            s
        })
        .unwrap();
        let written = render_results_dir(&dir).unwrap();
        let names: Vec<String> = written
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert!(names.contains(&"fig04_bc_vs_ts.svg".to_string()));
        assert!(names.contains(&"thermal_uncapped.svg".to_string()));
        assert!(!names.contains(&"fig21_nmax.svg".to_string()));
        for p in &written {
            let content = fs::read_to_string(p).unwrap();
            assert!(content.starts_with("<svg"));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shootout_matrix_renders_dead_cells() {
        let t = Table::parse(
            "manager,scenario,finished,exec_us,responses,post_fault_responses,survived,matrix_us,\
             recovery_us,coins_leaked,coins_quarantined,tasks_abandoned,throttle_events,\
             peak_overshoot_mw\n\
             BC,healthy,true,100,8,4,true,1.5,none,0,0,0,0,0\n\
             BC,controller-death,true,100,8,4,true,2.0,none,0,0,0,0,0\n\
             C-RR,healthy,true,120,8,4,true,8.0,none,0,0,0,0,0\n\
             C-RR,controller-death,false,120,8,0,false,dead,none,0,0,2,0,0\n",
        )
        .unwrap();
        let svg = shootout_matrix(&t).unwrap().expect("matrix");
        assert!(svg.contains(">BC<"));
        assert!(svg.contains(">C-RR<"));
        assert!(svg.contains(">healthy<"));
        assert!(svg.contains(">controller-death<"));
        // the dead cell renders as 1.25x the worst live response
        assert!(svg.contains(">10<"));
    }

    #[test]
    fn exec_bars_pivots_by_manager() {
        let t = Table::parse(
            "budget_mw,dataflow,manager,exec_us,mean_response_us,nontrivial_response_us,max_response_us,utilization\n\
             120,WL-Par,BC,1000,0,0,0,0.9\n\
             120,WL-Par,BC-C,1100,0,0,0,0.9\n\
             60,WL-Dep,BC,2000,0,0,0,0.9\n\
             60,WL-Dep,BC-C,2100,0,0,0,0.9\n",
        )
        .unwrap();
        let svg = exec_bars(&t, "t").unwrap().render();
        assert!(svg.contains("WL-Par@120mW"));
        assert!(svg.contains("WL-Dep@60mW"));
        assert!(svg.contains("BC-C"));
    }
}
