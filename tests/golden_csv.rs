//! Golden-CSV regression lock.
//!
//! Quick-mode experiment CSVs captured at their fixed seeds; the code
//! must reproduce them byte for byte, at `--jobs 1` and `--jobs 8`
//! alike. `fig17_soc3x3.csv` and `resilience.csv` hold every
//! cycle-level scheme's rows (BC, BC-C, C-RR, TokenSmart and Price
//! Theory, one `manager` column), so an engine or manager-policy change
//! must replay each scheme's runs exactly; `shootout.csv` locks the
//! six-scheme fault matrix and `resilience_tokensmart.csv` the
//! behavioural ring model. The behavioural emulator's figures
//! (fig3–fig8) are locked the same way, so a change to the emulator's
//! event loop, partner selection or exchange arithmetic must replay
//! every random draw and pop exactly.
//!
//! Regenerate (only for an intentional result change, with the deviation
//! recorded in CHANGES.md) with:
//! `BLITZCOIN_BLESS=1 cargo test -p blitzcoin-exp --test golden_csv`

use std::fs;
use std::path::{Path, PathBuf};

use blitzcoin_exp::{run_experiment, Ctx};

/// (experiment id, csv files it writes that are locked here)
const LOCKED: [(&str, &[&str]); 9] = [
    ("fig3", &["fig03_oneway_fourway.csv"]),
    ("fig4", &["fig04_bc_vs_ts.csv"]),
    ("fig5", &["fig05_pairing.csv"]),
    ("fig6", &["fig06_dynamic_timing.csv"]),
    ("fig7", &["fig07_random_pairing_hist.csv"]),
    ("fig8", &["fig08_heterogeneity.csv"]),
    ("fig17", &["fig17_soc3x3.csv"]),
    (
        "resilience",
        &["resilience.csv", "resilience_tokensmart.csv"],
    ),
    ("shootout", &["shootout.csv"]),
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn run_quick_into(dir: &Path, jobs: usize) {
    fs::create_dir_all(dir).expect("create output dir");
    let ctx = Ctx {
        out_dir: dir.to_path_buf(),
        quick: true,
        jobs,
        ..Ctx::default()
    };
    for (id, _) in LOCKED {
        run_experiment(id, &ctx);
    }
}

#[test]
fn quick_mode_csvs_byte_identical_to_pre_refactor_goldens() {
    let golden = golden_dir();
    let base = std::env::temp_dir().join(format!("bc_golden_csv_{}", std::process::id()));
    for jobs in [1usize, 8] {
        let dir = base.join(format!("jobs{jobs}"));
        run_quick_into(&dir, jobs);
        for (_, files) in LOCKED {
            for name in files.iter().copied() {
                let got = fs::read(dir.join(name)).expect("experiment wrote the locked csv");
                let gold_path = golden.join(name);
                if jobs == 1 && std::env::var_os("BLITZCOIN_BLESS").is_some() {
                    fs::create_dir_all(&golden).unwrap();
                    fs::write(&gold_path, &got).unwrap();
                    continue;
                }
                let want =
                    fs::read(&gold_path).expect("golden csv missing; bless with BLITZCOIN_BLESS=1");
                assert_eq!(
                    got, want,
                    "{name} at --jobs {jobs} drifted from the pre-refactor golden"
                );
            }
        }
    }
    let _ = fs::remove_dir_all(&base);
}
