//! Deterministic parallel sweep execution.
//!
//! Every Monte-Carlo sweep and per-scheme SoC comparison in this
//! reproduction is a grid of *independent* work units: each trial owns a
//! private [`SimRng`] derived from a root seed, so no unit observes
//! another's state. This module exploits that independence with an
//! [`Executor`] that fans units out across OS threads while keeping the
//! output **bitwise independent of scheduling**:
//!
//! - seeds are derived from indices (`root.derive(point).derive(trial)`),
//!   never from execution order;
//! - results are collected *in index order* — workers tag each result
//!   with its unit index and the executor sorts before returning, so a
//!   run at `jobs = 1` and a run at `jobs = 64` produce identical output
//!   byte for byte.
//!
//! The executor is built on [`std::thread::scope`] rather than an
//! external thread pool (see DESIGN.md §2a for the rayon trade-off): the
//! workspace is dependency-free by policy, the work units here are
//! coarse (an emulator convergence run, a full-SoC simulation), and a
//! shared atomic cursor over a flattened grid already achieves the
//! work-stealing property that matters — long units at one grid corner
//! do not idle the other workers.
//!
//! Job-count resolution, in priority order:
//! 1. an explicit count given to [`Executor::new`] (the `--jobs` CLI flag);
//! 2. the `BLITZCOIN_JOBS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! # Example
//!
//! ```
//! use blitzcoin_sim::exec::{Executor, Sweep};
//!
//! // A 3-point grid, 4 trials per point: 12 independent units.
//! let sweep = Sweep::new(vec![10u64, 20, 30], 4, 99);
//! let serial = sweep.run(&Executor::serial(), |&p, mut rng| p + rng.range_u64(0..5));
//! let parallel = sweep.run(&Executor::new(8), |&p, mut rng| p + rng.range_u64(0..5));
//! assert_eq!(serial, parallel); // scheduling never leaks into results
//! assert_eq!(serial.len(), 3);  // grouped per point, trials in order
//! assert_eq!(serial[0].len(), 4);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::rng::SimRng;

/// The derived sub-seed of grid index `idx` under `root`: the one
/// derivation every sweep point, figure sub-seed, and cache key shares,
/// so a key can never disagree with the seed a runner actually used.
///
/// Equivalent to `SimRng::seed(root).derive(idx).root_seed()`.
pub fn derive_seed(root: u64, idx: u64) -> u64 {
    SimRng::seed(root).derive(idx).root_seed()
}

/// The seed of trial `trial` at point `point` under `root` — the
/// two-level form of [`derive_seed`], matching [`Sweep::unit_rng`]'s
/// `root.derive(point).derive(trial)` chain.
pub fn trial_seed(root: u64, point: u64, trial: u64) -> u64 {
    derive_seed(derive_seed(root, point), trial)
}

/// The job count named by the `BLITZCOIN_JOBS` environment variable:
/// `Ok(None)` when it is unset, and the message a CLI prints when it is
/// not a whole number of at least 1.
pub fn jobs_from_env() -> Result<Option<usize>, String> {
    let Some(v) = std::env::var_os("BLITZCOIN_JOBS") else {
        return Ok(None);
    };
    let v = v.to_string_lossy();
    match v.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!(
            "bad BLITZCOIN_JOBS '{v}' (want a job count of at least 1)"
        )),
    }
}

/// The job count [`Executor::from_env`] would use right now: a valid
/// `BLITZCOIN_JOBS`, else the machine's available parallelism. A bad
/// `BLITZCOIN_JOBS` falls back here too; the CLI rejects it first
/// through [`jobs_from_env`].
pub fn default_jobs() -> usize {
    jobs_from_env().ok().flatten().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1)
    })
}

/// A deterministic fork-join executor over a fixed number of worker
/// threads.
///
/// `map`/`run` return results in index order regardless of which worker
/// finished which unit, so any computation whose units are independent
/// (separately-seeded trials) yields identical output at every job
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor with exactly `jobs` workers (0 is clamped to 1).
    pub fn new(jobs: usize) -> Self {
        Executor { jobs: jobs.max(1) }
    }

    /// A single-worker executor: runs every unit inline, in order.
    pub fn serial() -> Self {
        Executor { jobs: 1 }
    }

    /// An executor sized by the environment (`BLITZCOIN_JOBS` >
    /// available parallelism); see the module docs for the full order.
    pub fn from_env() -> Self {
        Executor::new(default_jobs())
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Evaluates `f(0..n)` across the workers, returning the results in
    /// index order.
    ///
    /// # Panics
    /// Propagates a panic from any invocation of `f`.
    pub fn run<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let jobs = self.jobs.min(n);
        if jobs <= 1 {
            return (0..n).map(f).collect();
        }
        // Work-stealing over a shared cursor: each worker claims the next
        // unclaimed index, tags its result with it, and the tagged piles
        // are merged and sorted afterwards — output order is index order,
        // never completion order. Claims run from the last index down:
        // sweeps list their points in ascending size, so the costliest
        // units start first and the cheap ones fill in behind them.
        let claimed = AtomicUsize::new(0);
        let piles: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|_| {
                    scope.spawn(|| {
                        let mut pile = Vec::new();
                        loop {
                            let k = claimed.fetch_add(1, Ordering::Relaxed);
                            if k >= n {
                                break;
                            }
                            let i = n - 1 - k;
                            pile.push((i, f(i)));
                        }
                        pile
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });
        let mut tagged: Vec<(usize, R)> = piles.into_iter().flatten().collect();
        tagged.sort_unstable_by_key(|&(i, _)| i);
        tagged.into_iter().map(|(_, r)| r).collect()
    }

    /// Evaluates `f` over a slice across the workers, returning results
    /// in item order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run(items.len(), |i| f(i, &items[i]))
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::from_env()
    }
}

/// A declarative Monte-Carlo grid: `points × trials` independent units.
///
/// Each unit's RNG is `root.derive(point_idx).derive(trial_idx)`, so
/// every sweep point consumes a decorrelated stream (no cross-point seed
/// reuse) and every trial within a point is independently reproducible.
/// [`Sweep::run`] flattens the whole grid into one work queue — load
/// balancing happens across the entire sweep, not per point, so a grid
/// whose last point is 100x costlier than its first still saturates the
/// workers.
#[derive(Debug, Clone)]
pub struct Sweep<P> {
    points: Vec<P>,
    trials: u32,
    root: SimRng,
}

impl<P> Sweep<P> {
    /// A grid over `points` with `trials` trials per point, seeded from
    /// `root_seed`.
    ///
    /// # Panics
    /// Panics if `points` is empty or `trials` is zero.
    pub fn new(points: Vec<P>, trials: u32, root_seed: u64) -> Self {
        assert!(!points.is_empty(), "sweep needs at least one point");
        assert!(trials > 0, "sweep needs at least one trial per point");
        Sweep {
            points,
            trials,
            root: SimRng::seed(root_seed),
        }
    }

    /// The grid's points.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// Consumes the sweep, returning its points (pair them back up with
    /// [`Sweep::run`]'s point-ordered results).
    pub fn into_points(self) -> Vec<P> {
        self.points
    }

    /// Trials per point.
    pub fn trials(&self) -> u32 {
        self.trials
    }

    /// The derived sub-seed of sweep point `idx` — hand this to code
    /// that takes a root seed (e.g. `run_trials_with`) so each point of a
    /// hand-rolled sweep gets its own stream.
    pub fn point_seed(&self, idx: usize) -> u64 {
        derive_seed(self.root.root_seed(), idx as u64)
    }

    /// The RNG of trial `trial` at point `point`.
    pub fn unit_rng(&self, point: usize, trial: u32) -> SimRng {
        SimRng::seed(trial_seed(
            self.root.root_seed(),
            point as u64,
            trial as u64,
        ))
    }

    /// Runs the grid on `exec`, returning per-point trial results: the
    /// outer `Vec` follows point order, each inner `Vec` trial order.
    pub fn run<R, F>(&self, exec: &Executor, body: F) -> Vec<Vec<R>>
    where
        P: Sync,
        R: Send,
        F: Fn(&P, SimRng) -> R + Sync,
    {
        let trials = self.trials as usize;
        let flat = exec.run(self.points.len() * trials, |i| {
            let (point, trial) = (i / trials, (i % trials) as u32);
            body(&self.points[point], self.unit_rng(point, trial))
        });
        let mut grouped = Vec::with_capacity(self.points.len());
        let mut rest = flat;
        for _ in 0..self.points.len() {
            let tail = rest.split_off(trials);
            grouped.push(rest);
            rest = tail;
        }
        grouped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_index_order_at_any_job_count() {
        let square = |i: usize| (i * i) as u64;
        let expect: Vec<u64> = (0..100).map(square).collect();
        for jobs in [1, 2, 3, 8, 33] {
            assert_eq!(Executor::new(jobs).run(100, square), expect);
        }
    }

    #[test]
    fn workers_claim_the_last_index_first() {
        // sweeps list their points in ascending cost, so the last index is
        // the one to start first
        let started = std::sync::Mutex::new(Vec::new());
        let out = Executor::new(2).run(50, |i| {
            started.lock().unwrap().push(i);
            i
        });
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        let started = started.into_inner().unwrap();
        assert!(started[0] >= 48, "first claim {}", started[0]);
    }

    #[test]
    fn run_handles_empty_and_tiny_inputs() {
        let e = Executor::new(8);
        assert_eq!(e.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(e.run(1, |i| i), vec![0]);
    }

    #[test]
    fn map_tracks_item_order() {
        let items = ["a", "bb", "ccc"];
        let lens = Executor::new(4).map(&items, |i, s| (i, s.len()));
        assert_eq!(lens, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn executor_clamps_zero_jobs() {
        assert_eq!(Executor::new(0).jobs(), 1);
    }

    #[test]
    fn sweep_results_independent_of_jobs() {
        let sweep = Sweep::new(vec![1u64, 2, 3], 5, 2024);
        let body = |&p: &u64, mut rng: SimRng| p * 1000 + rng.range_u64(0..100);
        let serial = sweep.run(&Executor::serial(), body);
        for jobs in [2, 4, 16] {
            assert_eq!(sweep.run(&Executor::new(jobs), body), serial);
        }
    }

    #[test]
    fn sweep_points_get_decorrelated_streams() {
        let sweep = Sweep::new(vec![(), ()], 3, 7);
        let draws = sweep.run(&Executor::serial(), |_, mut rng| rng.next_u64());
        // same trial index at different points must not repeat a stream
        assert_ne!(draws[0], draws[1]);
        // and the per-point sub-seed matches the unit derivation
        let from_seed = SimRng::seed(sweep.point_seed(1)).derive(0).next_u64();
        assert_eq!(from_seed, draws[1][0]);
    }

    #[test]
    fn sweep_grouping_shape() {
        let sweep = Sweep::new(vec![0u8; 4], 7, 1);
        let out = sweep.run(&Executor::new(3), |_, _| 0u8);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|t| t.len() == 7));
    }

    #[test]
    fn seed_helpers_match_rng_derivation() {
        // The free helpers must be the exact derivation the Sweep uses:
        // one chain shared by runners and cache keys.
        let sweep = Sweep::new(vec![(), (), ()], 4, 0xBEEF);
        for p in 0..3usize {
            assert_eq!(sweep.point_seed(p), derive_seed(0xBEEF, p as u64));
            for t in 0..4u32 {
                let direct = sweep.unit_rng(p, t).root_seed();
                assert_eq!(direct, trial_seed(0xBEEF, p as u64, t as u64));
                assert_eq!(
                    direct,
                    SimRng::seed(0xBEEF)
                        .derive(p as u64)
                        .derive(t as u64)
                        .root_seed()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn worker_panics_propagate() {
        Executor::new(2).run(8, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
