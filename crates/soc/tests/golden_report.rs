//! Golden-report regression lock for the scheme-as-policy refactor.
//!
//! The `ManagerPolicy` split is pure code motion for the four original
//! managers: the engine must consume randomness, schedule events, and do
//! float arithmetic in *exactly* the pre-refactor order. These summaries
//! were captured from fixed-seed runs before the refactor and every
//! field — event counts, each response sample, exact float bits via
//! `{:?}` round-trip formatting — must stay byte-identical forever
//! after. A drift here means the refactor changed behavior, not just
//! structure.
//!
//! Regenerate (only for an *intentional* engine-behavior change) with:
//! `BLITZCOIN_BLESS=1 cargo test -p blitzcoin-soc --test golden_report`

use std::fmt::Write as _;
use std::path::Path;

use blitzcoin_sim::{FaultPlan, TileFault};
use blitzcoin_soc::prelude::*;

const MANAGERS: [ManagerKind; 4] = [
    ManagerKind::BlitzCoin,
    ManagerKind::BcCentralized,
    ManagerKind::CentralizedRoundRobin,
    ManagerKind::Static,
];

/// Every behavior-bearing scalar of a run, formatted for exact f64
/// round-trip (`{:?}`), one line per field.
fn summarize(label: &str, r: &SimReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== {label}");
    let _ = writeln!(s, "finished: {}", r.finished);
    let _ = writeln!(s, "exec_ps: {}", r.exec_time.as_ps());
    let _ = writeln!(s, "events: {}", r.events);
    let _ = writeln!(s, "activity_changes: {}", r.activity_changes.len());
    let _ = writeln!(s, "responses: {}", r.responses.len());
    for resp in &r.responses {
        let _ = writeln!(s, "  at {:?} took {:?}", resp.at_us, resp.response_us);
    }
    let _ = writeln!(s, "avg_power_mw: {:?}", r.avg_power_mw());
    let _ = writeln!(s, "peak_power_mw: {:?}", r.peak_power_mw());
    let _ = writeln!(s, "energy_uj: {:?}", r.energy_uj());
    let _ = writeln!(s, "coins_leaked: {}", r.coins_leaked);
    let _ = writeln!(s, "coins_reclaimed: {}", r.coins_reclaimed);
    let _ = writeln!(s, "coins_quarantined: {}", r.coins_quarantined);
    let _ = writeln!(s, "tasks_abandoned: {}", r.tasks_abandoned);
    let _ = writeln!(s, "recovery_us: {:?}", r.recovery_us);
    let _ = writeln!(s, "noc_packets: {}", r.noc.total_packets());
    let _ = writeln!(s, "noc_hops: {}", r.noc.hops);
    let _ = writeln!(s, "oracle_violations: {}", r.oracle_violations);
    s
}

fn all_summaries() -> String {
    let mut out = String::new();
    for m in MANAGERS {
        let soc = floorplan::soc_3x3();
        let wl = workload::av_parallel(&soc, 2);
        let r = Simulation::new(soc, wl, SimConfig::new(m, 120.0)).run(2024);
        out.push_str(&summarize(&format!("{m} av_parallel 120mW seed 2024"), &r));
    }
    for m in MANAGERS {
        let soc = floorplan::soc_3x3();
        let wl = workload::av_dependent(&soc, 1);
        let r = Simulation::new(soc, wl, SimConfig::new(m, 60.0)).run(7);
        out.push_str(&summarize(&format!("{m} av_dependent 60mW seed 7"), &r));
    }
    // The fault paths too: a fail-stop mid-run exercises reclaim (BC),
    // controller death (BC-C / C-RR), and task abandonment.
    for m in MANAGERS {
        let soc = floorplan::soc_3x3();
        let wl = workload::av_parallel(&soc, 2);
        let plan = FaultPlan {
            tile_faults: vec![TileFault {
                tile: 4,
                at_cycle: 24_000,
            }],
        };
        let r = Simulation::new(soc, wl, SimConfig::new(m, 120.0))
            .with_fault_plan(plan)
            .run(3);
        out.push_str(&summarize(&format!("{m} failstop@24k 120mW seed 3"), &r));
    }
    out
}

/// Price Theory's summaries live in their *own* golden file: the four
/// pre-refactor locks above stay frozen while PT — added later as the
/// sixth cycle-level scheme — gets the same fixed-seed drift protection,
/// including its scheme counters and the supervisor-death takeover path.
fn pt_summaries() -> String {
    let mut out = String::new();
    let mut run =
        |label: &str, wl_dep: bool, frames: usize, budget: f64, seed: u64, fault: Option<usize>| {
            let soc = floorplan::soc_3x3();
            let wl = if wl_dep {
                workload::av_dependent(&soc, frames)
            } else {
                workload::av_parallel(&soc, frames)
            };
            let mut sim =
                Simulation::new(soc, wl, SimConfig::new(ManagerKind::PriceTheory, budget));
            if let Some(tile) = fault {
                sim = sim.with_fault_plan(FaultPlan {
                    tile_faults: vec![TileFault {
                        tile,
                        at_cycle: 24_000,
                    }],
                });
            }
            let r = sim.run(seed);
            out.push_str(&summarize(label, &r));
            for (k, v) in &r.scheme_stats {
                let _ = writeln!(out, "  {k}: {v:?}");
            }
        };
    run(
        "PT av_parallel 120mW seed 2024",
        false,
        2,
        120.0,
        2024,
        None,
    );
    run("PT av_dependent 60mW seed 7", true, 1, 60.0, 7, None);
    run("PT failstop@24k 120mW seed 3", false, 2, 120.0, 3, Some(4));
    // tile 0 boots as every-cluster supervisor on soc_3x3's single
    // cluster: this locks the watchdog-takeover event sequence
    run(
        "PT supervisor-failstop@24k 120mW seed 3",
        false,
        2,
        120.0,
        3,
        Some(0),
    );
    out
}

fn check_golden(got: &str, file: &str, what: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("BLITZCOIN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want =
        std::fs::read_to_string(&path).expect("golden file missing; bless with BLITZCOIN_BLESS=1");
    assert_eq!(got, &want, "{what}");
}

#[test]
fn fixed_seed_reports_match_pre_refactor_goldens() {
    check_golden(
        &all_summaries(),
        "reports.txt",
        "fixed-seed SimReport drifted from the pre-refactor golden",
    );
}

#[test]
fn fixed_seed_price_theory_reports_match_goldens() {
    check_golden(
        &pt_summaries(),
        "reports_pt.txt",
        "fixed-seed Price Theory SimReport drifted from its golden",
    );
}
