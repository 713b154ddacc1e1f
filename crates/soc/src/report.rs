//! Run reports and derived metrics.
//!
//! A [`SimReport`] carries everything the paper's SoC-level figures are
//! built from: execution time (Figs 17-18 left), response times per
//! activity change (Figs 17-18 right, Fig 20), the total power trace
//! (Fig 16, utilization, overshoot and energy), budget-utilization and
//! enforcement statistics (Fig 19), and NoC traffic accounting.
//!
//! The report's shape is declared by its unit. Per-tile power, coin and
//! frequency traces ([`TileTraces`]: the Fig 19-20 coin plots, the
//! `oracle-diff` ledgers, `thermal::analyze`'s power inputs) travel only
//! when the unit was built with
//! [`Simulation::with_tile_traces`](crate::Simulation::with_tile_traces);
//! every other report carries scalars and the total power trace alone.
//! At 32x32 the per-tile traces are about 85% of a full report's JSON.

use blitzcoin_noc::TrafficStats;
use blitzcoin_sim::{SimTime, StepTrace};

/// One measured power-management response: an activity change at `at_us`
/// took `response_us` until the new allocation was in force.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseSample {
    /// When the activity change occurred (µs).
    pub at_us: f64,
    /// How long the manager took to re-converge (µs).
    pub response_us: f64,
}

// Compact `[at_us, response_us]` pair: reports carry hundreds of
// samples and the result cache round-trips them wholesale.
impl blitzcoin_sim::json::ToJson for ResponseSample {
    fn to_json(&self) -> blitzcoin_sim::json::Json {
        blitzcoin_sim::json::Json::Arr(vec![
            blitzcoin_sim::json::Json::Num(self.at_us),
            blitzcoin_sim::json::Json::Num(self.response_us),
        ])
    }
}

impl blitzcoin_sim::json::FromJson for ResponseSample {
    fn from_json(v: &blitzcoin_sim::json::Json) -> Result<Self, blitzcoin_sim::json::JsonError> {
        let (at_us, response_us) = blitzcoin_sim::json::FromJson::from_json(v)?;
        Ok(ResponseSample { at_us, response_us })
    }
}

/// A tile's activity transition (task stream starting or ending).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityChange {
    /// The tile whose activity changed.
    pub tile: usize,
    /// When (µs).
    pub at_us: f64,
    /// `true` = became active, `false` = went idle.
    pub active: bool,
}

// Compact `[tile, at_us, active]` triple, for the same reason as
// `ResponseSample`.
impl blitzcoin_sim::json::ToJson for ActivityChange {
    fn to_json(&self) -> blitzcoin_sim::json::Json {
        (self.tile, self.at_us, self.active).to_json()
    }
}

impl blitzcoin_sim::json::FromJson for ActivityChange {
    fn from_json(v: &blitzcoin_sim::json::Json) -> Result<Self, blitzcoin_sim::json::JsonError> {
        let (tile, at_us, active) = blitzcoin_sim::json::FromJson::from_json(v)?;
        Ok(ActivityChange {
            tile,
            at_us,
            active,
        })
    }
}

/// Per-managed-tile traces, each vector index-aligned with
/// [`SimReport::managed_tiles`].
#[derive(Debug, Clone)]
pub struct TileTraces {
    /// Power (mW).
    pub power: Vec<StepTrace>,
    /// Coin holdings.
    pub coins: Vec<StepTrace>,
    /// Settled clock frequency (MHz).
    pub freq: Vec<StepTrace>,
}

blitzcoin_sim::json_fields!(TileTraces { power, coins, freq });

/// The result of one full-SoC simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Whether every task of the workload completed within the horizon.
    pub finished: bool,
    /// Time of the last task completion.
    pub exec_time: SimTime,
    /// Power-management response of each activity change (time from a
    /// tile's activity changing until the new allocation is in force on
    /// every tile).
    pub responses: Vec<ResponseSample>,
    /// Every activity transition of the run, in time order.
    pub activity_changes: Vec<ActivityChange>,
    /// Total managed-accelerator power over time (mW).
    pub power: StepTrace,
    /// Per-managed-tile traces: `Some` exactly when the unit was built
    /// with [`Simulation::with_tile_traces`](crate::Simulation::with_tile_traces).
    /// Read them through [`SimReport::tile_traces`].
    pub tiles: Option<TileTraces>,
    /// Tile ids of the managed tiles, aligning the trace vectors.
    pub managed_tiles: Vec<usize>,
    /// The enforced budget (mW).
    pub budget_mw: f64,
    /// NoC traffic over the run.
    pub noc: TrafficStats,
    /// Number of simulation events processed.
    pub events: u64,
    /// Coins unaccounted for at the end of a BlitzCoin run (live + faulted
    /// holdings vs. the initial pool). Nonzero means the protocol leaked or
    /// minted budget under faults; always 0 for fault-free runs and for
    /// managers without a distributed coin economy.
    pub coins_leaked: i64,
    /// Coins recovered from fail-stopped tiles by their neighbors.
    pub coins_reclaimed: i64,
    /// Coins trapped where no survivor can reach them: the pool of a
    /// broken TokenSmart ring, or the escrow of a Price Theory market
    /// whose members all died. Counted, never reallocated; 0 under the
    /// other managers.
    pub coins_quarantined: i64,
    /// Tasks that could not complete because their tile (or a dependency's
    /// tile) faulted.
    pub tasks_abandoned: usize,
    /// Time from the first injected tile fault until the surviving tiles
    /// re-converged with every fail-stopped tile drained (µs). `None` when
    /// no fault was injected or the manager never recovered.
    pub recovery_us: Option<f64>,
    /// Invariant violations the runtime oracle recorded during the run
    /// (coin conservation, budget ceiling, VF legality, event-time
    /// monotonicity — see `blitzcoin_sim::oracle`). Always 0 in a healthy
    /// run, and 0 by construction when the oracle is compiled out
    /// (release builds without `--features oracle`).
    pub oracle_violations: u64,
    /// Replay line of the first oracle violation, in the
    /// `check::forall_seeded` style: names the invariant, the offending
    /// cycle, the site, expected/actual, and the seed to rerun with.
    pub oracle_first: Option<String>,
    /// Scheme-specific extras the manager policy reported at the end of
    /// the run, as `(name, value)` pairs — e.g. TokenSmart's ring and
    /// mode statistics. Empty for schemes with nothing extra to say.
    pub scheme_stats: Vec<(String, f64)>,
    /// Hottest in-loop junction temperature any tile reached (°C).
    /// `None` unless the run coupled the thermal network in
    /// (`SimConfig::thermal_limit_c`).
    pub thermal_peak_c: Option<f64>,
    /// Thermal throttle engagements over the run (0 without coupling).
    pub throttle_events: u64,
    /// When the first throttle engaged (µs), if any did.
    pub first_throttle_us: Option<f64>,
}

// The full report round-trips through JSON losslessly: every float is
// finite (Rust's `Display` prints the shortest exact decimal, and the
// parser reads it back bit-identical), and integers above 2^53 travel as
// decimal strings. This exact round-trip is what lets the result cache
// replay a memoized report byte-identically into the figure CSVs.
blitzcoin_sim::json_fields!(SimReport {
    finished,
    exec_time,
    responses,
    activity_changes,
    power,
    tiles,
    managed_tiles,
    budget_mw,
    noc,
    events,
    coins_leaked,
    coins_reclaimed,
    coins_quarantined,
    tasks_abandoned,
    recovery_us,
    oracle_violations,
    oracle_first,
    scheme_stats,
    thermal_peak_c,
    throttle_events,
    first_throttle_us
});

impl SimReport {
    /// Execution time in microseconds.
    pub fn exec_time_us(&self) -> f64 {
        self.exec_time.as_us_f64()
    }

    /// Mean power-management response time (µs), if any change occurred.
    pub fn mean_response_us(&self) -> Option<f64> {
        if self.responses.is_empty() {
            None
        } else {
            Some(
                self.responses.iter().map(|r| r.response_us).sum::<f64>()
                    / self.responses.len() as f64,
            )
        }
    }

    /// Mean over *non-trivial* responses (those above `min_us`): for
    /// BlitzCoin, many transitions need no coin movement at all (the
    /// distribution already satisfies the new targets) and drain in ~0 µs;
    /// the paper's response figures measure transitions that actually
    /// reallocate.
    pub fn mean_nontrivial_response_us(&self, min_us: f64) -> Option<f64> {
        let xs: Vec<f64> = self
            .responses
            .iter()
            .map(|r| r.response_us)
            .filter(|&x| x > min_us)
            .collect();
        if xs.is_empty() {
            None
        } else {
            Some(xs.iter().sum::<f64>() / xs.len() as f64)
        }
    }

    /// The response to the first activity change at or after `at_us`
    /// (e.g. Fig 20's NVDLA-completion transition).
    pub fn response_at(&self, at_us: f64) -> Option<f64> {
        self.responses
            .iter()
            .filter(|r| r.at_us >= at_us - 1e-9)
            .min_by(|a, b| a.at_us.partial_cmp(&b.at_us).unwrap())
            .map(|r| r.response_us)
    }

    /// Worst-case response time (µs).
    pub fn max_response_us(&self) -> Option<f64> {
        self.responses
            .iter()
            .map(|r| r.response_us)
            .fold(None, |m, x| Some(m.map_or(x, |m: f64| m.max(x))))
    }

    /// Average managed power over the execution window (mW).
    pub fn avg_power_mw(&self) -> f64 {
        if self.exec_time == SimTime::ZERO {
            return 0.0;
        }
        self.power.average(SimTime::ZERO, self.exec_time)
    }

    /// Budget utilization `P_avg / P_budget` over the execution window
    /// (the Fig 19 metric; the silicon measures 97%).
    pub fn utilization(&self) -> f64 {
        if self.budget_mw == 0.0 {
            return 0.0;
        }
        self.avg_power_mw() / self.budget_mw
    }

    /// Energy consumed by the managed accelerators over the execution
    /// window, in µJ (mW · s · 1e3).
    pub fn energy_uj(&self) -> f64 {
        self.power
            .integral(SimTime::ZERO, self.exec_time.max(SimTime::from_ns(1)))
            * 1e3
    }

    /// Peak managed power over the execution window (mW).
    pub fn peak_power_mw(&self) -> f64 {
        self.power
            .max_in(SimTime::ZERO, self.exec_time.max(SimTime::from_ns(1)))
    }

    /// How far the peak exceeded the budget, in mW (0 when enforced).
    /// Small transient overshoot during actuation is physical; sustained
    /// overshoot is an enforcement bug.
    pub fn peak_overshoot_mw(&self) -> f64 {
        (self.peak_power_mw() - self.budget_mw).max(0.0)
    }

    /// Throughput relative to another run of the same workload
    /// (`other_time / self_time`; >1 means this run is faster).
    pub fn speedup_vs(&self, other: &SimReport) -> f64 {
        other.exec_time_us() / self.exec_time_us()
    }

    /// The per-tile traces of a unit that declared them.
    ///
    /// # Panics
    /// Panics when the unit was not built with
    /// [`Simulation::with_tile_traces`](crate::Simulation::with_tile_traces):
    /// reading traces the unit did not ask for is a bug in the caller,
    /// not an empty series.
    pub fn tile_traces(&self) -> &TileTraces {
        self.tiles.as_ref().expect(
            "per-tile traces are recorded only for a unit built with \
             Simulation::with_tile_traces()",
        )
    }

    /// Looks up a scheme-specific stat by name (see `scheme_stats`).
    pub fn scheme_stat(&self, name: &str) -> Option<f64> {
        self.scheme_stats
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(exec_us: u64, budget: f64) -> SimReport {
        let mut power = StepTrace::new("p");
        power.record(SimTime::ZERO, budget * 0.9);
        SimReport {
            finished: true,
            exec_time: SimTime::from_us(exec_us),
            responses: vec![
                ResponseSample {
                    at_us: 0.0,
                    response_us: 1.0,
                },
                ResponseSample {
                    at_us: 50.0,
                    response_us: 3.0,
                },
            ],
            activity_changes: vec![],
            power,
            tiles: None,
            managed_tiles: vec![],
            budget_mw: budget,
            noc: TrafficStats::default(),
            events: 0,
            coins_leaked: 0,
            coins_reclaimed: 0,
            coins_quarantined: 0,
            tasks_abandoned: 0,
            recovery_us: None,
            oracle_violations: 0,
            oracle_first: None,
            scheme_stats: vec![],
            thermal_peak_c: None,
            throttle_events: 0,
            first_throttle_us: None,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = dummy(100, 120.0);
        assert_eq!(r.exec_time_us(), 100.0);
        assert_eq!(r.mean_response_us(), Some(2.0));
        assert_eq!(r.max_response_us(), Some(3.0));
        assert!((r.avg_power_mw() - 108.0).abs() < 1e-9);
        assert!((r.utilization() - 0.9).abs() < 1e-9);
        assert_eq!(r.peak_overshoot_mw(), 0.0);
    }

    #[test]
    fn energy_metrics() {
        let r = dummy(100, 120.0);
        // 108 mW for 100 us = 10.8 uJ
        assert!((r.energy_uj() - 10.8).abs() < 1e-9);
    }

    #[test]
    fn speedup() {
        let fast = dummy(100, 120.0);
        let slow = dummy(150, 120.0);
        assert!((fast.speedup_vs(&slow) - 1.5).abs() < 1e-9);
        assert!(slow.speedup_vs(&fast) < 1.0);
    }

    #[test]
    fn empty_responses() {
        let mut r = dummy(10, 60.0);
        r.responses.clear();
        assert_eq!(r.mean_response_us(), None);
        assert_eq!(r.max_response_us(), None);
        assert_eq!(r.mean_nontrivial_response_us(0.05), None);
    }

    #[test]
    fn response_selection() {
        let r = dummy(100, 120.0);
        assert_eq!(r.response_at(10.0), Some(3.0));
        assert_eq!(r.response_at(0.0), Some(1.0));
        assert_eq!(r.response_at(60.0), None);
        assert_eq!(r.mean_nontrivial_response_us(2.0), Some(3.0));
    }

    #[test]
    fn scheme_stat_lookup() {
        let mut r = dummy(10, 60.0);
        assert_eq!(r.scheme_stat("ts_rings_broken"), None);
        r.scheme_stats.push(("ts_rings_broken".into(), 1.0));
        assert_eq!(r.scheme_stat("ts_rings_broken"), Some(1.0));
    }

    #[test]
    fn overshoot_detected() {
        let mut r = dummy(10, 100.0);
        r.power.record(SimTime::from_us(5), 130.0);
        assert!((r.peak_overshoot_mw() - 30.0).abs() < 1e-9);
    }
}
