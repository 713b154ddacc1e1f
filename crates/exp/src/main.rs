//! CLI entry point of the experiment harness.
//!
//! ```text
//! blitzcoin-exp all [--quick] [--out DIR] [--jobs N] [--write-experiments]
//! blitzcoin-exp fig17 [--quick] [--out DIR]
//! blitzcoin-exp plots [--out DIR]     # render results/*.csv to SVG
//! blitzcoin-exp list
//! ```
//!
//! `--jobs N` (or the `BLITZCOIN_JOBS` env var) sets the sweep
//! executor's worker count; the default is the machine's available
//! parallelism. Output is byte-identical at every job count.
//!
//! `--tie-break fifo|lifo|permuted:SEED` replays any run under a
//! different same-timestamp event ordering (the default `fifo` is the
//! golden ordering; the active mode is stamped into `manifest.json`).
//! `--orderings N` sets the shuffled orderings per point for the
//! `interleave` experiment. `--thermal-limit C` overrides the junction
//! limit (°C) the `thermal-coupling` experiment throttles at; it must
//! lie below the 105 °C limit of that experiment's free-running
//! reference runs.
//! `--mega-d D` adds a `D` x `D` point to the `mega-mesh` experiment
//! beyond its built-in 16x16 (and, in full mode, 32x32) grids.
//! `--manager KIND` (any of `BC|BC-C|C-RR|TS|PT|Static`, parsed through
//! `ManagerKind::from_str`) narrows the `shootout` experiment's matrix
//! to one scheme.
//!
//! `--cache on|off` controls the content-addressed result cache under
//! `<out>/.cache` (`on` by default; the `BLITZCOIN_CACHE` env var sets
//! the default when the flag is absent, and an unknown value in either
//! is an error). `off` recomputes every run and stores nothing; delete
//! `<out>/.cache` to recompute and overwrite a store. CSVs are
//! byte-identical in both modes — the cache only changes how fast they
//! regenerate.

use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use blitzcoin_exp::sweep::FREE_LIMIT_C;
use blitzcoin_exp::{render_experiments_md, run_experiment, Ctx, ALL_EXPERIMENTS};
use blitzcoin_noc::Topology;
use blitzcoin_sim::CacheMode;
use blitzcoin_soc::ManagerKind;

/// What the command line asks for beyond the [`Ctx`] settings.
#[derive(Default)]
struct Cli {
    ids: Vec<String>,
    write_experiments: bool,
    list: bool,
    plots: bool,
}

/// Reads the value after `flag`: `"{flag} needs {need}"` when there is
/// none, `"bad {what}: {error}"` when it does not parse, and
/// `"{flag} must be {rule}"` when `valid` rejects it.
fn flag_value<'a, T>(
    iter: &mut impl Iterator<Item = &'a String>,
    flag: &str,
    need: &str,
    what: &str,
    rule: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    let value = iter.next().ok_or_else(|| format!("{flag} needs {need}"))?;
    let v = value.parse::<T>().map_err(|e| format!("bad {what}: {e}"))?;
    if valid(&v) {
        Ok(v)
    } else {
        Err(format!("{flag} must be {rule}"))
    }
}

/// Applies every flag to `ctx` and collects the rest; the error is the
/// one line to print before exiting 1.
fn parse_args(args: &[String], ctx: &mut Ctx) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        let flag = a.as_str();
        match flag {
            "--quick" => ctx.quick = true,
            "--write-experiments" => cli.write_experiments = true,
            "--out" => ctx.out_dir = PathBuf::from(iter.next().ok_or("--out needs a directory")?),
            "--seed" => ctx.seed = flag_value(&mut iter, flag, "a value", "seed", "", |_| true)?,
            "--tie-break" => {
                let mode = iter
                    .next()
                    .ok_or("--tie-break needs a value (fifo|lifo|permuted:SEED)")?;
                ctx.tie_break = blitzcoin_sim::TieBreak::parse(mode).ok_or_else(|| {
                    format!("bad tie-break '{mode}' (want fifo|lifo|permuted:SEED)")
                })?;
            }
            "--thermal-limit" => {
                let rule = format!(
                    "a positive temperature below {FREE_LIMIT_C} (the free-running reference limit)"
                );
                let valid = |c: &f64| c.is_finite() && *c > 0.0 && *c < FREE_LIMIT_C;
                let c = flag_value(
                    &mut iter,
                    flag,
                    "a value (deg C)",
                    "thermal limit",
                    &rule,
                    valid,
                )?;
                ctx.thermal_limit_c = Some(c);
            }
            "--orderings" => {
                ctx.orderings = flag_value(
                    &mut iter,
                    flag,
                    "a value",
                    "ordering count",
                    "at least 1",
                    |&n| n > 0,
                )?
            }
            "--manager" => {
                let name = iter
                    .next()
                    .ok_or("--manager needs a scheme name (try BC|BC-C|C-RR|TS|PT|Static)")?;
                ctx.manager = Some(name.parse::<ManagerKind>().map_err(|e| e.to_string())?);
            }
            "--mega-d" => {
                let need = "a mesh side (e.g. 64)";
                let d = flag_value(
                    &mut iter,
                    flag,
                    need,
                    "mega-mesh side",
                    "at least 4",
                    |&d| d >= 4,
                )?;
                // a side whose tile count overflows fails here, not in a
                // sweep worker (the check allocates no per-tile state)
                Topology::try_mesh(d, d).map_err(|e| e.to_string())?;
                ctx.mega_d = Some(d);
            }
            "--cache" => {
                let mode = iter.next().ok_or("--cache needs a mode (on|off)")?;
                ctx.cache_mode = CacheMode::parse(mode)?;
            }
            "--jobs" => {
                ctx.jobs = flag_value(
                    &mut iter,
                    flag,
                    "a value",
                    "job count",
                    "at least 1",
                    |&j| j > 0,
                )?
            }
            "list" => cli.list = true,
            "plots" => cli.plots = true,
            "all" => cli
                .ids
                .extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            other if ALL_EXPERIMENTS.contains(&other) => cli.ids.push(other.to_string()),
            other => {
                return Err(format!(
                    "unknown experiment '{other}'; try `blitzcoin-exp list`"
                ))
            }
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = Ctx::default();
    match CacheMode::from_env() {
        Ok(mode) => ctx.cache_mode = mode.unwrap_or_default(),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let Cli {
        mut ids,
        write_experiments,
        list,
        plots,
    } = match parse_args(&args, &mut ctx) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // `list` and `plots` run once every flag is parsed, so a flag after
    // them (`plots --out DIR`) still applies.
    if list {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    if plots {
        return match blitzcoin_viz::figures::render_results_dir(&ctx.out_dir) {
            Ok(written) if written.is_empty() => {
                eprintln!("no result CSVs to plot in {}", ctx.out_dir.display());
                ExitCode::FAILURE
            }
            Ok(written) => {
                for p in &written {
                    println!("{}", p.display());
                }
                println!("{} plots written", written.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("render plots from {}: {e}", ctx.out_dir.display());
                ExitCode::FAILURE
            }
        };
    }
    if ids.is_empty() {
        eprintln!(
            "usage: blitzcoin-exp <all|{}|list> [--quick] [--out DIR] [--seed N] [--jobs N] \
             [--tie-break fifo|lifo|permuted:SEED] [--orderings N] [--thermal-limit C] \
             [--mega-d D] [--manager KIND] [--cache on|off] [--write-experiments]",
            ALL_EXPERIMENTS.join("|")
        );
        return ExitCode::FAILURE;
    }
    // keep the first occurrence of each id: `fig1 fig13 fig1` and
    // `all fig2` run every experiment once
    let mut seen = std::collections::HashSet::new();
    ids.retain(|id| seen.insert(id.clone()));

    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("create output directory {}: {e}", ctx.out_dir.display());
        return ExitCode::FAILURE;
    }
    let jobs = ctx.exec().jobs() as u64;
    let mut results = Vec::new();
    for id in &ids {
        eprintln!("running {id} (jobs={jobs})...");
        let t0 = Instant::now();
        let mut r = run_experiment(id, &ctx);
        r.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        r.jobs = jobs;
        eprintln!(
            "  {id}: {:.0} ms (cache: {} hit / {} miss, ~{:.0} ms saved)",
            r.wall_ms, r.cache_hits, r.cache_misses, r.cache_saved_ms
        );
        print!("{}", r.render());
        results.push(r);
    }
    let total: usize = results.iter().map(|r| r.claims.len()).sum();
    let held: usize = results
        .iter()
        .flat_map(|r| &r.claims)
        .filter(|c| c.holds)
        .count();
    println!("\n{held}/{total} claims hold.");
    let violations: u64 = results.iter().map(|r| r.oracle_violations).sum();
    if blitzcoin_sim::oracle::enabled() {
        println!(
            "oracle: {violations} invariant violation(s) across {} experiment(s).",
            results.len()
        );
    }

    let manifest = blitzcoin_sim::json::ToJson::to_json(&results).to_string_pretty();
    let manifest_path = ctx.out_dir.join("manifest.json");
    if let Err(e) = std::fs::write(&manifest_path, manifest) {
        eprintln!("write {}: {e}", manifest_path.display());
        return ExitCode::FAILURE;
    }
    println!("manifest: {}", manifest_path.display());

    if write_experiments {
        let md = render_experiments_md(&results);
        if let Err(e) = std::fs::write("EXPERIMENTS.md", md) {
            eprintln!("write EXPERIMENTS.md: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote EXPERIMENTS.md");
    }
    if blitzcoin_sim::oracle::enabled() && violations > 0 {
        eprintln!("FAIL: the runtime oracle recorded {violations} invariant violation(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
