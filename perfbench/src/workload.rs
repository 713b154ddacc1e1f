//! The three workloads and the pass that runs one of them: a fresh,
//! fully pinned `Ctx` calling `run_experiment` over the workload's
//! experiment list.

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};

use blitzcoin_exp::{run_experiment, CacheHandle, Ctx, FigResult};
use blitzcoin_sim::cache::{CacheMode, CacheStats};
use blitzcoin_sim::TieBreak;

use crate::check::Reference;
use crate::probe::{Family, Size};
use crate::span::Recorder;
use crate::sys::{self, Usage};

/// Every experiment that bypasses the SoC engine.
const EMULATOR: [&str; 11] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig13",
    "noc-validation",
    "cpu-proxy",
];

/// Every SoC-engine experiment except mega-mesh.
const SOC: [&str; 17] = [
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "table1",
    "ap-vs-rp",
    "thermal-ext",
    "scaling-sim",
    "granularity",
    "clusters",
    "resilience",
    "oracle-diff",
    "interleave",
    "thermal-coupling",
    "shootout",
];

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["emulator", "soc-cold", "mega-mesh"];

/// One workload: what it runs and which probe units its traced run
/// replays. Every pass starts from an empty store.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Experiments, run in this order by every pass.
    pub experiments: Vec<&'static str>,
    /// Probe families of the traced run.
    pub families: &'static [Family],
    /// SoC sizes of the build, engine and cache/JSON probes.
    pub sizes: &'static [Size],
}

/// The workload named `name`.
pub fn lookup(name: &str) -> Option<Workload> {
    use Family::*;
    let w = match name {
        "emulator" => Workload {
            name: "emulator",
            experiments: EMULATOR.to_vec(),
            families: &[Emulator, TokenSmart],
            sizes: &[],
        },
        "soc-cold" => Workload {
            name: "soc-cold",
            experiments: SOC.to_vec(),
            families: &[Build, Engine, Codec],
            sizes: &Size::SMALL,
        },
        "mega-mesh" => Workload {
            name: "mega-mesh",
            experiments: vec!["mega-mesh"],
            families: &[Build, Engine, Codec],
            sizes: &Size::MEGA,
        },
        _ => return None,
    };
    Some(w)
}

/// A context with every field pinned: full mode, FIFO tie-break, cache
/// on (whatever `BLITZCOIN_CACHE` says), `jobs` workers (whatever
/// `BLITZCOIN_JOBS` says), and a store of its own under `out_dir`.
pub fn pinned_ctx(out_dir: PathBuf, seed: u64, jobs: usize) -> Ctx {
    Ctx {
        out_dir,
        quick: false,
        seed,
        jobs,
        tie_break: TieBreak::Fifo,
        orderings: 0,
        thermal_limit_c: None,
        mega_d: None,
        manager: None,
        cache_mode: CacheMode::On,
        cache: CacheHandle::default(),
    }
}

/// One pass over a workload's experiments.
#[derive(Debug)]
pub struct Pass {
    /// Each experiment's result, `None` where it panicked.
    pub figs: Vec<(&'static str, Option<FigResult>)>,
    /// Host time and memory from the first `run_experiment` call to the
    /// last return.
    pub usage: Usage,
    /// The pass's cache counters (its `Ctx` starts from zero).
    pub cache: CacheStats,
}

/// Runs `ids` on `ctx`, one span per `run_experiment` call under a root
/// span when `rec` is given.
pub fn run_pass(ids: &[&'static str], ctx: &Ctx, rec: Option<&mut Recorder>) -> Pass {
    let run = |id: &'static str| {
        let fig = std::panic::catch_unwind(AssertUnwindSafe(|| run_experiment(id, ctx))).ok();
        (id, fig)
    };
    let (figs, usage) = sys::measure(|| match rec {
        None => ids.iter().map(|&id| run(id)).collect(),
        Some(rec) => rec.span("bench", "run", |rec| {
            ids.iter()
                .map(|&id| rec.span("exp", format!("exp.{id}"), |_| run(id)))
                .collect()
        }),
    });
    Pass {
        figs,
        usage,
        cache: ctx.cache().stats(),
    }
}

/// What a pass produced, checked against the reference.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Experiments run.
    pub attempted: u64,
    /// One line per experiment that panicked or wrote a CSV unlike the
    /// reference.
    pub failures: Vec<String>,
    /// Paper claims that held.
    pub claims_held: u64,
    /// Paper claims marked DEV.
    pub claims_dev: u64,
    /// Every CSV the pass wrote.
    pub outputs: Vec<PathBuf>,
}

impl Pass {
    /// Checks every CSV the pass wrote against `reference` (`None`
    /// checks only for panics) and counts the claims.
    pub fn judge(&self, reference: Option<&Reference>) -> Verdict {
        let mut v = Verdict::default();
        for (id, fig) in &self.figs {
            v.attempted += 1;
            let Some(fig) = fig else {
                v.failures.push(format!("{id}: panicked"));
                continue;
            };
            let held = fig.claims.iter().filter(|c| c.holds).count() as u64;
            v.claims_held += held;
            v.claims_dev += fig.claims.len() as u64 - held;
            let outputs: Vec<PathBuf> = fig.outputs.iter().map(PathBuf::from).collect();
            let errors: Vec<String> = match reference {
                Some(r) => outputs.iter().filter_map(|p| r.check(p).err()).collect(),
                None => Vec::new(),
            };
            if !errors.is_empty() {
                v.failures.push(format!("{id}: {}", errors.join("; ")));
            }
            v.outputs.extend(outputs);
        }
        v
    }
}

/// Empties `dir` (creating it if needed).
pub fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
}

/// Entries and total bytes of the result store at `<out_dir>/.cache`.
pub fn store_size(out_dir: &Path) -> (u64, u64) {
    let (mut entries, mut bytes) = (0, 0);
    let Ok(shards) = std::fs::read_dir(out_dir.join(".cache")) else {
        return (0, 0);
    };
    for shard in shards.flatten() {
        let Ok(files) = std::fs::read_dir(shard.path()) else {
            continue;
        };
        for f in files.flatten() {
            if f.path().extension().is_some_and(|e| e == "json") {
                entries += 1;
                bytes += f.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    (entries, bytes)
}
