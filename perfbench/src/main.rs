//! The repository benchmark: end-to-end and per-layer numbers of the
//! BlitzCoin experiment regen, with checked outputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <emulator|soc-cold|mega-mesh> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. With `--trace 0` (the default) the
//! workload is set up several times and then run on a fresh, pinned
//! `Ctx` and an empty store per pass for about `--seconds`; the
//! end-to-end metrics are medians over those passes. With `--trace 1`
//! one untraced and one traced pass run, followed by the workload's
//! probe units, and the per-layer metrics come from the spans. Every CSV a pass writes is
//! byte-compared with the committed `results/` at seed 2024, or with the
//! first pass of the same process at any other seed. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. `perfbench/LAYERS.md` maps each per-layer metric to
//! the end-to-end metric it should move.

#![forbid(unsafe_code)]

mod check;
mod metrics;
mod probe;
mod span;
mod sys;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use check::{Reference, COMMITTED_SEED};
use metrics::{per_layer_catalog, result_line, Metrics, LAYERS};
use probe::median;
use span::Recorder;
use workload::{fresh_dir, pinned_ctx, run_pass, Pass, Verdict, Workload};

/// Passes every timed run makes at least: the median then has a middle,
/// and at a seed without committed results later passes are compared
/// with the first.
const MIN_PASSES: usize = 3;
/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Sweep workers: at most two, and never more than the host has.
const MAX_JOBS: usize = 2;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (COMMITTED_SEED, 10.0_f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workload::lookup(name).ok_or_else(|| {
                    format!(
                        "unknown workload '{name}' (want {})",
                        workload::NAMES.join("|")
                    )
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}' (want 0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Experiments attempted and failures, over every pass of a run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, label: &str, v: &Verdict) {
        self.attempted += v.attempted;
        self.failures
            .extend(v.failures.iter().map(|f| format!("{label}: {f}")));
    }
}

/// Where a run works and what it compares against.
struct Env {
    work: PathBuf,
    results: PathBuf,
    seed: u64,
    jobs: usize,
}

impl Env {
    /// The reference every pass is checked against, when one exists
    /// before the first pass: the committed results at seed 2024.
    fn committed(&self) -> Option<Reference> {
        (self.seed == COMMITTED_SEED).then(|| Reference::Dir(self.results.clone()))
    }

    /// Brings `dir` to the workload's start state, an empty store, and
    /// times it. The store is reached after one quick-mode pass over the
    /// same experiments has finished the process's lazy set-up (thread
    /// stacks, allocator arenas, code pages): an empty store alone takes
    /// microseconds, too little to time steadily.
    fn setup(&self, w: &Workload, dir: &Path) -> (f64, Pass) {
        let t0 = Instant::now();
        fresh_dir(dir);
        let mut ctx = pinned_ctx(dir.to_path_buf(), self.seed, self.jobs);
        ctx.quick = true;
        let pass = run_pass(&w.experiments, &ctx, None);
        drop(ctx);
        fresh_dir(dir);
        pinned_ctx(dir.to_path_buf(), self.seed, self.jobs).cache();
        (t0.elapsed().as_secs_f64(), pass)
    }
}

/// Checks a pass, adopting its CSVs as the reference when none exists
/// yet (a seed without committed results).
fn check_pass(
    pass: &Pass,
    reference: &mut Option<Reference>,
    label: &str,
    tally: &mut Tally,
) -> Verdict {
    let v = pass.judge(reference.as_ref());
    if reference.is_none() {
        *reference = Some(Reference::capture(&v.outputs));
    }
    tally.add(label, &v);
    v
}

/// Sets up `count` times and returns the set-up times. A quick-mode
/// warm-up pass counts only its panics.
fn setups(env: &Env, w: &Workload, count: usize, tally: &mut Tally) -> Vec<f64> {
    let mut times = Vec::new();
    for i in 0..count {
        let dir = env.work.join(format!("setup-{i}"));
        let (secs, pass) = env.setup(w, &dir);
        times.push(secs);
        tally.add(&format!("warm-up {i}"), &pass.judge(None));
        println!("  set-up {i}: {secs:.3} s");
        let _ = std::fs::remove_dir_all(&dir);
    }
    times
}

/// A fresh pass on an empty store in `dir`.
fn pass_in(env: &Env, w: &Workload, dir: &Path, rec: Option<&mut Recorder>) -> Pass {
    fresh_dir(dir);
    run_pass(
        &w.experiments,
        &pinned_ctx(dir.to_path_buf(), env.seed, env.jobs),
        rec,
    )
}

/// The end-to-end run: set up several times, then fresh passes for
/// about `seconds`.
fn timed(env: &Env, w: &Workload, seconds: f64, tally: &mut Tally) -> Metrics {
    let mut reference = env.committed();
    let setup_times = setups(env, w, SETUPS, tally);

    let (mut walls, mut cpus, mut peaks, mut claims) = (vec![], vec![], vec![], vec![]);
    let t0 = Instant::now();
    while walls.len() < MIN_PASSES || t0.elapsed().as_secs_f64() + median(walls.clone()) <= seconds
    {
        let k = walls.len();
        let dir = env.work.join(format!("pass-{k}"));
        let pass = pass_in(env, w, &dir, None);
        let v = check_pass(&pass, &mut reference, &format!("pass {k}"), tally);
        let u = pass.usage;
        println!(
            "  pass {k}: wall {:.3} s, cpu {:.2} s, peak {:.1} MiB, cache {} hit / {} miss, \
             claims {} held / {} DEV",
            u.wall_s,
            u.cpu_s,
            u.peak_rss_mb,
            pass.cache.hits,
            pass.cache.misses,
            v.claims_held,
            v.claims_dev
        );
        walls.push(u.wall_s);
        cpus.push(u.cpu_s);
        peaks.push(u.peak_rss_mb);
        claims.push(v.claims_held as f64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut m = Metrics::default();
    m.put("wall_s", median(walls), "s");
    m.put("cpu_s", median(cpus), "s");
    m.put("peak_rss_mb", median(peaks), "MiB");
    m.put("setup_s", median(setup_times), "s");
    m.put(
        "claims_held",
        claims.into_iter().fold(f64::INFINITY, f64::min),
        "count",
    );
    m
}

/// The traced run: one untraced and one traced pass, then the probes.
fn traced(env: &Env, w: &Workload, tally: &mut Tally) -> (Metrics, Recorder) {
    let mut reference = env.committed();
    setups(env, w, 1, tally);
    let mut m = Metrics::default();

    let dir = env.work.join("untraced");
    let plain = pass_in(env, w, &dir, None);
    check_pass(&plain, &mut reference, "untraced pass", tally);
    let _ = std::fs::remove_dir_all(&dir);

    let mut rec = Recorder::default();
    let dir = env.work.join("traced");
    let pass = pass_in(env, w, &dir, Some(&mut rec));
    check_pass(&pass, &mut reference, "traced pass", tally);
    let (entries, bytes) = workload::store_size(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    let c = pass.cache;
    m.put("cache.hits", c.hits as f64, "count");
    m.put("cache.misses", c.misses as f64, "count");
    let lookups = c.hits + c.misses;
    let ratio = if lookups == 0 {
        0.0
    } else {
        c.hits as f64 / lookups as f64
    };
    m.put("cache.hit_ratio", ratio, "ratio");
    m.put("cache.entries", entries as f64, "count");
    m.put("cache.store_mb", bytes as f64 / (1024.0 * 1024.0), "MiB");
    for s in rec.spans().iter().filter(|s| s.layer == "exp") {
        m.put(
            format!("{}.s", s.name),
            (s.end_ns - s.start_ns) as f64 / 1e9,
            "s",
        );
    }
    m.put(
        "trace.overhead_s",
        pass.usage.wall_s - plain.usage.wall_s,
        "s",
    );
    println!(
        "  untraced pass {:.3} s, traced pass {:.3} s",
        plain.usage.wall_s, pass.usage.wall_s
    );

    let (units, failures) = probe::run(
        w.families,
        w.sizes,
        env.seed,
        &env.work.join("probe"),
        &mut rec,
        &mut m,
    );
    tally.attempted += units;
    tally.failures.extend(failures);

    let self_ms = rec.self_ms_by_layer();
    for layer in LAYERS {
        m.put(
            format!("self.{layer}.ms"),
            self_ms.get(layer).copied().unwrap_or(0.0),
            "ms",
        );
    }
    (m, rec)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    let results = root.join("results");
    if !results.is_dir() {
        eprintln!("perfbench: run from the repository root (no results/ here)");
        return ExitCode::from(2);
    }
    let w = &args.workload;
    let env = Env {
        work: root
            .join(".perfbench")
            .join(format!("{}-{}", w.name, std::process::id())),
        results,
        seed: args.seed,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_JOBS)),
    };
    fresh_dir(&env.work);
    println!(
        "perfbench: workload {} ({} experiments), seed {}, jobs {}, trace {}",
        w.name,
        w.experiments.len(),
        env.seed,
        env.jobs,
        u8::from(args.trace)
    );

    let mut tally = Tally::default();
    let metrics = if args.trace {
        let (mut m, rec) = traced(&env, w, &mut tally);
        // Every per-layer metric is printed; those this workload does
        // not exercise (other workloads' experiments, probe families it
        // does not replay) read 0.
        for (name, unit, _) in per_layer_catalog() {
            if m.get(&name).is_none() {
                m.put(name, 0.0, unit);
            }
        }
        print_layers(&m);
        let trace_path = root
            .join(".perfbench")
            .join(format!("trace-{}-seed{}.json", w.name, env.seed));
        match std::fs::write(&trace_path, rec.to_trace_events().to_string()) {
            Ok(()) => println!(
                "  spans: {} written to {}",
                rec.spans().len(),
                trace_path.display()
            ),
            Err(e) => tally
                .failures
                .push(format!("write {}: {e}", trace_path.display())),
        }
        m
    } else {
        timed(&env, w, args.seconds, &mut tally)
    };
    let _ = std::fs::remove_dir_all(&env.work);

    for f in &tally.failures {
        println!("  FAILED {f}");
    }
    let failed = tally.failures.len() as u64;
    println!(
        "{}",
        result_line(failed == 0, tally.attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// Prints the self time per layer and the tracing overhead.
fn print_layers(m: &Metrics) {
    println!("  self time by layer:");
    for layer in LAYERS {
        let ms = m.get(&format!("self.{layer}.ms")).unwrap_or(0.0);
        println!("    {layer:<22} {ms:>12.3} ms");
    }
    println!(
        "  tracing overhead: {:.4} s",
        m.get("trace.overhead_s").unwrap_or(0.0)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch environment inside the checkout, removed by [`done`].
    fn env(name: &str, seed: u64) -> Env {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let work = root
            .join(".perfbench")
            .join(format!("test-{name}-{}", std::process::id()));
        fresh_dir(&work);
        Env {
            work,
            results: root.join("results"),
            seed,
            jobs: 2,
        }
    }

    fn done(env: Env) {
        let _ = std::fs::remove_dir_all(env.work);
    }

    /// Two small SoC-engine experiments: the same code paths as the SoC
    /// workloads at a fraction of their cost.
    fn small() -> Workload {
        Workload {
            name: "test",
            experiments: vec!["fig20", "table1"],
            families: &[],
            sizes: &[],
        }
    }

    fn pass_named(env: &Env, w: &Workload, name: &str) -> (Pass, PathBuf) {
        let dir = env.work.join(name);
        (pass_in(env, w, &dir, None), dir)
    }

    #[test]
    fn pass_after_set_up_matches_committed_results() {
        let env = env("committed", COMMITTED_SEED);
        let w = small();
        let (mut tally, mut reference) = (Tally::default(), env.committed());
        setups(&env, &w, 1, &mut tally);
        assert!(tally.failures.is_empty(), "{:?}", tally.failures);
        let (pass, _) = pass_named(&env, &w, "pass");
        let v = check_pass(&pass, &mut reference, "pass", &mut tally);
        assert!(tally.failures.is_empty(), "{:?}", tally.failures);
        assert_eq!(v.claims_dev, 0);
        done(env);
    }

    #[test]
    fn cold_store_holds_one_entry_per_miss() {
        let env = env("cold", 7);
        let (pass, dir) = pass_named(&env, &small(), "pass");
        let (entries, bytes) = workload::store_size(&dir);
        assert!(pass.cache.misses > 0);
        assert_eq!(entries, pass.cache.misses);
        assert!(bytes > 0);
        done(env);
    }

    #[test]
    fn altered_csv_counts_as_a_failed_experiment() {
        let env = env("alter", 7);
        let w = Workload {
            experiments: vec!["fig20"],
            ..small()
        };
        let (mut tally, mut reference) = (Tally::default(), None);
        let (first, _) = pass_named(&env, &w, "first");
        check_pass(&first, &mut reference, "first", &mut tally);
        let (second, _) = pass_named(&env, &w, "second");
        check_pass(&second, &mut reference, "second", &mut tally);
        assert!(tally.failures.is_empty(), "passes at one seed must agree");

        let Some(Reference::Captured(map)) = reference.as_mut() else {
            panic!("the first pass becomes the reference at seed 7");
        };
        map.values_mut()
            .next()
            .expect("fig20 writes CSVs")
            .push(b'\n');
        let (third, _) = pass_named(&env, &w, "third");
        check_pass(&third, &mut reference, "third", &mut tally);
        assert_eq!(tally.failures.len(), 1, "{:?}", tally.failures);
        assert!(tally.failures[0].starts_with("third: fig20:"));
        assert_eq!(tally.attempted, 3);
        done(env);
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload mega-mesh --seed 9 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("mega-mesh", 9, 3.0, true)
        );
        let d = parse("--workload emulator").expect("defaults");
        assert_eq!((d.seed, d.trace), (COMMITTED_SEED, false));
        for bad in [
            "",
            "--workload nope",
            "--workload emulator --trace 2",
            "--workload emulator --seconds 0",
            "--workload emulator --seed",
            "--workload emulator --frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn workloads_split_the_catalogue() {
        let mut run: Vec<&str> = workload::NAMES
            .into_iter()
            .flat_map(|n| workload::lookup(n).expect("known").experiments)
            .collect();
        run.sort_unstable();
        let mut all = blitzcoin_exp::ALL_EXPERIMENTS.to_vec();
        all.sort_unstable();
        assert_eq!(run, all, "the workloads run each experiment once");
    }
}
