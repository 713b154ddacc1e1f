//! End-to-end integration tests spanning all crates: the experiment
//! harness, the full-SoC simulator, the behavioural emulator and the
//! analytical model working together.

use std::path::Path;

use blitzcoin_exp::{run_experiment, Ctx, ALL_EXPERIMENTS};
use blitzcoin_soc::prelude::*;

fn ctx() -> Ctx {
    let dir = std::env::temp_dir().join(format!("blitzcoin_it_{}", std::process::id()));
    Ctx::quick_into(dir)
}

#[test]
fn every_experiment_runs_in_quick_mode() {
    // The cheap experiments run here; the heavy SoC ones have their own
    // dedicated tests below so failures localize.
    let ctx = ctx();
    for id in ["fig1", "fig2", "fig5", "fig13"] {
        let r = run_experiment(id, &ctx);
        assert!(!r.claims.is_empty(), "{id} produced no claims");
        assert!(!r.outputs.is_empty() || id == "fig1", "{id} wrote no data");
    }
}

#[test]
fn experiment_catalogue_dispatches() {
    // Every catalogued id must dispatch without panicking on the *name*
    // (run only the cheapest to keep CI fast; the full set runs in the
    // harness binary).
    assert_eq!(ALL_EXPERIMENTS.len(), 29);
    let ctx = ctx();
    let r = run_experiment("fig2", &ctx);
    assert_eq!(r.id, "fig2");
}

#[test]
fn emulator_claims_hold_in_quick_mode() {
    let ctx = ctx();
    for id in ["fig3", "fig6"] {
        let r = run_experiment(id, &ctx);
        assert!(r.all_hold(), "{id} claims failed:\n{}", r.render());
    }
}

#[test]
fn soc_figure_17_claims_hold_in_quick_mode() {
    let ctx = ctx();
    let r = run_experiment("fig17", &ctx);
    assert!(r.all_hold(), "fig17 claims failed:\n{}", r.render());
}

#[test]
fn full_soc_managers_agree_on_work_done() {
    // Every manager must execute the same workload to completion; only
    // the timing differs. This exercises floorplan + workload + engine +
    // power + noc together.
    let soc = floorplan::soc_3x3();
    let mut times = Vec::new();
    for m in ManagerKind::ALL {
        let wl = workload::av_dependent(&soc, 2);
        let r = Simulation::new(soc.clone(), wl, SimConfig::new(m, 120.0)).run(3);
        assert!(r.finished, "{m} did not finish");
        times.push((m, r.exec_time_us()));
    }
    // decentralized BC must be the fastest or tied within 1%
    let bc = times[0].1;
    for &(m, t) in &times[1..] {
        assert!(bc <= t * 1.01, "BC ({bc}) slower than {m} ({t})");
    }
}

#[test]
fn scaling_model_consumes_simulation_measurements() {
    use blitzcoin_scaling::{Strategy, TauFit};
    // measure BC response at two SoC sizes, then fit and extrapolate
    let mut points = Vec::new();
    for (soc, n) in [(floorplan::soc_3x3(), 6usize), (floorplan::soc_4x4(), 13)] {
        let wl = if n == 6 {
            workload::av_parallel(&soc, 2)
        } else {
            workload::vision_parallel(&soc, 2)
        };
        let budget = soc.total_p_max() * 0.3;
        let r = Simulation::new(soc, wl, SimConfig::new(ManagerKind::BlitzCoin, budget)).run(9);
        let resp = r
            .mean_nontrivial_response_us(0.05)
            .expect("responses measured");
        points.push((n, resp));
    }
    let fit = TauFit::fit(Strategy::BlitzCoin, &points);
    assert!(fit.tau_us > 0.0);
    // the fitted model must support hundreds of accelerators at ms scale
    assert!(fit.n_max(10_000.0) > 100.0, "tau={}", fit.tau_us);
}

#[test]
fn random_dag_stress_runs_to_completion() {
    // a tangled 60-task random DAG on the 4x4 SoC must complete under
    // every manager, with the budget still enforced
    let soc = floorplan::soc_4x4();
    let wl = workload::random_dag(&soc, 60, 99);
    for m in [ManagerKind::BlitzCoin, ManagerKind::CentralizedRoundRobin] {
        let r = Simulation::new(soc.clone(), wl.clone(), SimConfig::new(m, 450.0)).run(1);
        assert!(r.finished, "{m} did not finish the random DAG");
        assert!(
            r.peak_overshoot_mw() <= 0.15 * r.budget_mw,
            "{m} violated the cap by {:.1} mW",
            r.peak_overshoot_mw()
        );
    }
}

#[test]
fn mini_era_runs_under_blitzcoin() {
    let soc = floorplan::soc_3x3();
    let wl = workload::mini_era(&soc, 3, 7);
    let r = Simulation::new(soc, wl, SimConfig::new(ManagerKind::BlitzCoin, 90.0)).run(4);
    assert!(r.finished);
    // jittered sensor frames keep perturbing the allocation
    assert!(
        r.responses.len() >= 4,
        "expected many transitions, got {}",
        r.responses.len()
    );
    assert!(r.utilization() > 0.3);
}

#[test]
fn thermal_envelope_of_paper_workloads() {
    use blitzcoin_thermal::ThermalConfig;
    let soc = floorplan::soc_3x3();
    let wl = workload::av_parallel(&soc, 2);
    let r = Simulation::new(
        soc.clone(),
        wl,
        SimConfig::new(ManagerKind::BlitzCoin, 120.0),
    )
    .with_tile_traces()
    .run(2);
    let t = thermal::analyze(&soc, &r, ThermalConfig::default());
    assert!(t.max_celsius() < 105.0);
    assert!(t.hotspots(105.0).is_empty());
}

#[test]
fn deterministic_experiment_outputs() {
    let dir_a = std::env::temp_dir().join(format!("blitzcoin_det_a_{}", std::process::id()));
    let dir_b = std::env::temp_dir().join(format!("blitzcoin_det_b_{}", std::process::id()));
    let a = run_experiment("fig2", &Ctx::quick_into(&dir_a));
    let b = run_experiment("fig2", &Ctx::quick_into(&dir_b));
    let read = |dir: &std::path::Path| {
        std::fs::read_to_string(dir.join("fig02_exchange_step.csv")).expect("csv written")
    };
    assert_eq!(read(&dir_a), read(&dir_b));
    assert_eq!(a.claims.len(), b.claims.len());
}

#[test]
fn unknown_cache_mode_fails_alike_from_flag_and_env() {
    let out = std::env::temp_dir().join(format!("blitzcoin_cli_cache_{}", std::process::id()));
    let run = |args: &[&str], env: Option<&str>| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_blitzcoin-exp"));
        cmd.args(args).env_remove("BLITZCOIN_CACHE");
        if let Some(mode) = env {
            cmd.env("BLITZCOIN_CACHE", mode);
        }
        cmd.output().expect("spawn blitzcoin-exp")
    };
    let out_arg = out.to_str().expect("utf-8 temp dir");
    let flag = run(
        &["fig2", "--quick", "--out", out_arg, "--cache", "refresh"],
        None,
    );
    let env = run(&["fig2", "--quick", "--out", out_arg], Some("refresh"));
    for rejected in [&flag, &env] {
        assert!(!rejected.status.success());
        assert_eq!(
            String::from_utf8_lossy(&rejected.stderr).trim(),
            "bad cache mode 'refresh' (want on|off)"
        );
    }
    assert!(!out.exists(), "a rejected run must not start");
    // A valid value is accepted in any case.
    assert!(run(&["list"], Some("OFF")).status.success());
}

#[test]
fn plots_honours_an_out_dir_given_after_it() {
    let scratch = std::env::temp_dir().join(format!("blitzcoin_cli_plots_{}", std::process::id()));
    let (data, cwd) = (scratch.join("data"), scratch.join("cwd"));
    for dir in [&data, &cwd] {
        std::fs::create_dir_all(dir).expect("create scratch dirs");
    }
    let csv = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/fig01_scaling.csv");
    std::fs::copy(csv, data.join("fig01_scaling.csv")).expect("copy fig01 CSV");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_blitzcoin-exp"))
        .args(["plots", "--out", data.to_str().expect("utf-8 temp dir")])
        .current_dir(&cwd)
        .output()
        .expect("spawn blitzcoin-exp");
    assert!(out.status.success());
    assert!(data.join("plots/fig01_scaling.svg").is_file());
    assert!(
        !cwd.join("results").exists(),
        "plots must not fall back to ./results"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn unwritable_out_dir_exits_1_without_a_panic() {
    let file = std::env::temp_dir().join(format!("blitzcoin_cli_file_{}", std::process::id()));
    std::fs::write(&file, "not a directory").expect("create a regular file");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_blitzcoin-exp"))
        .args([
            "fig2",
            "--quick",
            "--out",
            file.to_str().expect("utf-8 temp dir"),
        ])
        .output()
        .expect("spawn blitzcoin-exp");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("create output directory"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_file(&file);
}

#[test]
fn repeated_experiment_ids_run_once() {
    let out = std::env::temp_dir().join(format!("blitzcoin_cli_dup_{}", std::process::id()));
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_blitzcoin-exp"))
        .args([
            "fig2",
            "fig13",
            "fig2",
            "--quick",
            "--out",
            out.to_str().expect("utf-8 temp dir"),
        ])
        .output()
        .expect("spawn blitzcoin-exp");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{stderr}");
    assert_eq!(stderr.matches("running fig2 ").count(), 1, "{stderr}");
    let manifest = std::fs::read_to_string(out.join("manifest.json")).expect("manifest written");
    let manifest = blitzcoin_sim::json::Json::parse(&manifest).expect("manifest parses");
    let ids: Vec<&str> = manifest
        .as_arr()
        .expect("manifest is an array")
        .iter()
        .map(|r| r.get("id").and_then(|id| id.as_str()).expect("entry id"))
        .collect();
    assert_eq!(ids, ["fig2", "fig13"]);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn plots_without_result_csvs_exits_1_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("blitzcoin_cli_noplots_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create an empty dir");
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_blitzcoin-exp"))
        .args(["plots", "--out", dir_arg])
        .output()
        .expect("spawn blitzcoin-exp");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(dir_arg), "{stderr}");
    assert!(!dir.join("plots").exists(), "no plots dir without plots");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `plots --out DIR` on a DIR holding one `fig01_scaling.csv` with
/// the given text; returns the exit code and stderr.
fn plots_on_fig01(tag: &str, csv: &str) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("blitzcoin_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a scratch dir");
    std::fs::write(dir.join("fig01_scaling.csv"), csv).expect("write the CSV");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_blitzcoin-exp"))
        .args(["plots", "--out", dir.to_str().expect("utf-8 temp dir")])
        .output()
        .expect("spawn blitzcoin-exp");
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn plots_on_a_ragged_csv_exits_1_naming_the_file() {
    let (code, stderr) = plots_on_fig01("ragged", "n,sw_central_us\n1,2,3\n");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("fig01_scaling.csv"), "{stderr}");
    assert!(
        stderr.contains("3 cells under a 2-column header"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn plots_on_a_csv_missing_a_column_exits_1_naming_the_file() {
    let (code, stderr) = plots_on_fig01("nocol", "n,foo\n1,2\n");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("fig01_scaling.csv"), "{stderr}");
    assert!(stderr.contains("no column 'sw_central_us'"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn thermal_limit_at_or_above_the_free_reference_is_rejected() {
    let out = std::env::temp_dir().join(format!("blitzcoin_cli_tlimit_{}", std::process::id()));
    for limit in ["105", "120"] {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_blitzcoin-exp"))
            .args([
                "thermal-coupling",
                "--quick",
                "--thermal-limit",
                limit,
                "--out",
                out.to_str().expect("utf-8 temp dir"),
            ])
            .output()
            .expect("spawn blitzcoin-exp");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{limit}: {stderr}");
        assert!(stderr.contains("--thermal-limit must be"), "{stderr}");
        assert!(stderr.contains("105"), "{stderr}");
        assert!(!out.exists(), "a rejected run must not start");
    }
}

#[test]
fn bad_flag_values_exit_1_with_their_message() {
    // A missing, unparsable or out-of-range value stops the CLI with one
    // stderr line and exit code 1 before any experiment runs.
    let out = std::env::temp_dir().join(format!("blitzcoin_cli_flags_{}", std::process::id()));
    let cases: [(&[&str], &str); 6] = [
        (&["--jobs", "0"], "--jobs must be at least 1\n"),
        (
            &["--seed", "x"],
            "bad seed: invalid digit found in string\n",
        ),
        (&["--mega-d", "3"], "--mega-d must be at least 4\n"),
        (&["--orderings", "0"], "--orderings must be at least 1\n"),
        (&["--jobs"], "--jobs needs a value\n"),
        // d * d overflows usize: rejected at parse time, not by a panic
        // in a sweep worker
        (
            &["--mega-d", "4294967296"],
            "topology 4294967296x4294967296 is too large: the tile count must fit \
             usize with headroom for dense per-tile structure sizing\n",
        ),
    ];
    for (flags, want) in cases {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_blitzcoin-exp"))
            .args(["fig1", "--out", out.to_str().expect("utf-8 temp dir")])
            .args(flags)
            .env_remove("BLITZCOIN_CACHE")
            .output()
            .expect("spawn blitzcoin-exp");
        assert_eq!(run.status.code(), Some(1), "{flags:?}");
        assert_eq!(String::from_utf8_lossy(&run.stderr), want, "{flags:?}");
        assert!(!out.exists(), "{flags:?}: a rejected run must not start");
    }
}
