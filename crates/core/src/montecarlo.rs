//! Seeded Monte-Carlo sweeps over the emulator.
//!
//! The paper's behavioural results average 100-1000 runs with random coin
//! initializations per configuration (Figs 3, 4, 6, 7, 8). This module
//! packages that protocol: derive an independent RNG per trial from a root
//! seed, run the emulator, and reduce to summary statistics.

use blitzcoin_noc::Topology;
use blitzcoin_sim::{Executor, SimRng, Summary};

use crate::emulator::{ConvergenceResult, Emulator, EmulatorConfig};

/// Aggregated results of a Monte-Carlo sweep.
#[derive(Debug, Clone)]
pub struct TrialStats {
    /// Number of trials run.
    pub trials: u32,
    /// Fraction of trials that converged.
    pub converged_fraction: f64,
    /// Mean NoC cycles to convergence (converged trials only).
    pub mean_cycles: f64,
    /// Mean packets to convergence (converged trials only).
    pub mean_packets: f64,
    /// Mean start error across all trials.
    pub mean_start_error: f64,
    /// Mean worst-case per-tile error at end of run, across all trials.
    pub mean_worst_error: f64,
    /// Raw per-trial results, for histograms and percentile queries.
    pub results: Vec<ConvergenceResult>,
}

impl TrialStats {
    /// Percentile of convergence cycles over the converged trials.
    ///
    /// # Panics
    /// Panics if no trial converged.
    pub fn cycles_percentile(&self, p: f64) -> f64 {
        let mut s: Summary = self
            .results
            .iter()
            .filter(|r| r.converged)
            .map(|r| r.cycles as f64)
            .collect();
        s.percentile(p)
    }

    /// Worst-case errors of every trial (Fig 7's histogram input).
    pub fn worst_errors(&self) -> Vec<f64> {
        self.results.iter().map(|r| r.worst_error).collect()
    }

    /// Reduces raw per-trial results to summary statistics. This is the
    /// single summarize path shared by every Monte-Carlo runner,
    /// including experiment sweeps with bespoke initialization
    /// protocols.
    ///
    /// # Panics
    /// Panics on an empty result set.
    pub fn from_results(results: Vec<ConvergenceResult>) -> TrialStats {
        assert!(!results.is_empty(), "need at least one trial result");
        let trials = results.len() as u32;
        let converged: Vec<&ConvergenceResult> = results.iter().filter(|r| r.converged).collect();
        let conv_n = converged.len().max(1) as f64;
        TrialStats {
            trials,
            converged_fraction: converged.len() as f64 / trials as f64,
            mean_cycles: converged.iter().map(|r| r.cycles as f64).sum::<f64>() / conv_n,
            mean_packets: converged.iter().map(|r| r.packets as f64).sum::<f64>() / conv_n,
            mean_start_error: results.iter().map(|r| r.start_error).sum::<f64>() / trials as f64,
            mean_worst_error: results.iter().map(|r| r.worst_error).sum::<f64>() / trials as f64,
            results,
        }
    }
}

/// Runs one trial of the standard protocol: assign targets via `max_fn`,
/// initialize coins uniformly at random, run to convergence. This is the
/// unit body the parallel sweeps execute; `rng` must be the trial's own
/// derived generator.
pub fn run_one(
    topo: Topology,
    config: EmulatorConfig,
    mut rng: SimRng,
    max_fn: impl FnOnce(&mut SimRng) -> Vec<u64>,
) -> ConvergenceResult {
    let max = max_fn(&mut rng);
    let mut emu = Emulator::new(topo, max, config);
    emu.init_uniform_random(&mut rng);
    emu.run(&mut rng)
}

/// Runs `trials` independent emulator runs on `exec`. Each trial assigns
/// targets via `max_fn(trial_rng)` and initializes coins with the paper's
/// protocol: each tile draws `has ~ U[0, 2·max]` independently
/// (see [`Emulator::init_uniform_random`]).
///
/// Every trial's RNG is `SimRng::seed(root_seed).derive(trial)` and
/// results are collected in trial order, so the output is identical at
/// every job count — and identical to what the historical serial loop
/// produced.
pub fn run_trials_with(
    exec: &Executor,
    topo: Topology,
    config: EmulatorConfig,
    trials: u32,
    root_seed: u64,
    max_fn: impl Fn(&mut SimRng) -> Vec<u64> + Sync,
) -> TrialStats {
    assert!(trials > 0, "need at least one trial");
    let root = SimRng::seed(root_seed);
    let results = exec.run(trials as usize, |t| {
        run_one(topo, config, root.derive(t as u64), &max_fn)
    });
    TrialStats::from_results(results)
}

/// The standard homogeneous protocol used by Figs 3, 4 and 6: every tile
/// active with `max = 32`, coins drawn `U[0, 64]` per tile.
pub fn run_homogeneous_trials_with(
    exec: &Executor,
    topo: Topology,
    config: EmulatorConfig,
    trials: u32,
    root_seed: u64,
) -> TrialStats {
    let n = topo.len();
    run_trials_with(exec, topo, config, trials, root_seed, move |_| {
        vec![32u64; n]
    })
}

/// The activity-change protocol: the grid starts *converged* (every tile
/// at its target), then a random `flip_fraction` of tiles deactivate
/// (their `max` drops to 0, as when tasks complete); the run measures how
/// long the exchange takes to re-absorb the freed coins. This is the
/// emulator-level analogue of the response-time measurements of
/// Figs 17-20.
pub fn run_activity_change_trials_with(
    exec: &Executor,
    topo: Topology,
    config: EmulatorConfig,
    trials: u32,
    root_seed: u64,
    flip_fraction: f64,
) -> TrialStats {
    assert!(trials > 0, "need at least one trial");
    assert!(
        (0.0..1.0).contains(&flip_fraction),
        "flip fraction in [0,1)"
    );
    let n = topo.len();
    let root = SimRng::seed(root_seed);
    let results = exec.run(trials as usize, |t| {
        let mut rng = root.derive(t as u64);
        let mut max = vec![32u64; n];
        let flips = ((n as f64 * flip_fraction) as usize).max(1);
        for _ in 0..flips {
            max[rng.range_usize(0..n)] = 0;
        }
        let mut emu = Emulator::new(topo, max, config);
        // converged for the pre-change configuration: everyone held 32
        emu.init_coins(&vec![32i64; n]);
        emu.run(&mut rng)
    });
    TrialStats::from_results(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `trials` homogeneous trials on a `d`x`d` torus under `root_seed`.
    fn homogeneous(d: usize, trials: u32, root_seed: u64) -> TrialStats {
        let (exec, cfg) = (Executor::from_env(), EmulatorConfig::default());
        run_homogeneous_trials_with(&exec, Topology::torus(d, d), cfg, trials, root_seed)
    }

    #[test]
    fn homogeneous_sweep_converges() {
        let stats = homogeneous(6, 10, 42);
        assert_eq!(stats.trials, 10);
        assert_eq!(stats.converged_fraction, 1.0);
        assert!(stats.mean_cycles > 0.0);
        assert!(stats.mean_packets > 0.0);
        assert_eq!(stats.results.len(), 10);
    }

    #[test]
    fn sweeps_are_reproducible() {
        assert_eq!(homogeneous(5, 5, 7).results, homogeneous(5, 5, 7).results);
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(homogeneous(5, 5, 1).results, homogeneous(5, 5, 2).results);
    }

    #[test]
    fn percentiles_and_errors_accessible() {
        let mut stats = homogeneous(5, 8, 11);
        let p50 = stats.cycles_percentile(50.0);
        let p100 = stats.cycles_percentile(100.0);
        assert!(p50 <= p100);
        assert_eq!(stats.worst_errors().len(), 8);
        // start error mean should be positive for random initializations
        assert!(stats.mean_start_error > 0.0);
        stats.results.clear(); // Summary still usable on the copy above
    }

    #[test]
    fn activity_change_protocol_measures_reabsorption() {
        let (topo, cfg) = (Topology::torus(8, 8), EmulatorConfig::default());
        let stats = run_activity_change_trials_with(&Executor::from_env(), topo, cfg, 8, 3, 0.1);
        assert_eq!(stats.converged_fraction, 1.0);
        // a localized change resolves much faster than a full random init
        let full = homogeneous(8, 8, 3);
        assert!(stats.mean_cycles < full.mean_cycles * 1.5);
    }

    #[test]
    fn custom_max_fn_is_used() {
        let topo = Topology::torus(4, 4);
        let cfg = EmulatorConfig::default();
        let stats = run_trials_with(&Executor::from_env(), topo, cfg, 3, 5, |_| vec![8; 16]);
        assert_eq!(stats.converged_fraction, 1.0);
    }

    #[test]
    fn parallel_trials_equal_serial_exactly() {
        let topo = Topology::torus(5, 5);
        let cfg = EmulatorConfig::default();
        let serial = run_homogeneous_trials_with(&Executor::serial(), topo, cfg, 6, 13);
        for jobs in [2, 8] {
            let par = run_homogeneous_trials_with(&Executor::new(jobs), topo, cfg, 6, 13);
            assert_eq!(serial.results, par.results);
        }
        let a_serial = run_activity_change_trials_with(&Executor::serial(), topo, cfg, 6, 13, 0.1);
        let a_par = run_activity_change_trials_with(&Executor::new(8), topo, cfg, 6, 13, 0.1);
        assert_eq!(a_serial.results, a_par.results);
    }
}
