//! Continuous invariant audits and end-of-run report assembly.
//!
//! The audits are scheme-agnostic primitives: a policy that owns a coin
//! economy calls [`Core::audit_cluster_conservation`] at every commit
//! (BlitzCoin with zero in flight, TokenSmart with its circulating
//! pool), and every actuation instant runs the budget-ceiling and
//! VF-legality checks regardless of scheme.

use blitzcoin_sim::oracle::{self, Invariant};
use blitzcoin_sim::{StepTrace, TileFaultKind};

use crate::engine::Core;
use crate::managers::ManagerPolicy;
use crate::report::{SimReport, TileTraces};

/// Actuation-transient envelope of the oracle's budget-ceiling check, as
/// a fraction of the budget. During a reallocation the upgraded tile can
/// reach its new operating point while the downgrade's UVFR write is
/// still settling, so short overshoot up to this envelope is physical
/// (the engine's own enforcement test bounds peak overshoot the same
/// way); anything beyond it is an enforcement bug.
const ORACLE_BUDGET_SLACK_FRAC: f64 = 0.15;

impl Core<'_> {
    /// Coin conservation after a commit touching `ti`'s cluster: the
    /// cluster ledger (live and faulted holdings alike) plus `in_flight`
    /// (coins travelling outside any tile ledger — BlitzCoin's exchanges
    /// commit ledger-to-ledger so it passes 0; TokenSmart passes its
    /// circulating pool) must still sum to the cluster's initial slice,
    /// exactly, in i128.
    pub(crate) fn audit_cluster_conservation(
        &mut self,
        ti: usize,
        in_flight: i128,
        site: impl FnOnce() -> String,
    ) {
        if !oracle::enabled() {
            return;
        }
        let ci = self.cluster_of[ti];
        let actual: i128 = self.cluster_members[ci]
            .iter()
            .map(|&t| i128::from(self.tiles[t].has))
            .sum::<i128>()
            + in_flight;
        self.oracle.check_eq_i128(
            Invariant::CoinConservation,
            self.now.as_noc_cycles(),
            || format!("cluster {ci} coin ledger after {}", site()),
            self.cluster_expected[ci],
            actual,
        );
    }

    /// VF legality and budget ceiling at an actuation instant — the only
    /// moment tile clocks (and therefore power) change. The actuated
    /// point must be a real operating point of the tile's model, and
    /// total managed power must stay under the budget plus the
    /// [`ORACLE_BUDGET_SLACK_FRAC`] transient envelope, plus one coin of
    /// quantization per managed tile (each tile's allocation rounds to
    /// coin quanta independently, so the aggregate can sit up to a coin
    /// per tile over the envelope — C-RR at tight budgets reaches it).
    pub(crate) fn audit_actuation(&mut self, ti: usize) {
        if !oracle::enabled() {
            return;
        }
        let cycle = self.now.as_noc_cycles();
        let f = self.tiles[ti].freq;
        if let Some(m) = &self.tiles[ti].model {
            let f_max = m.f_max();
            if !f.is_finite() || f < 0.0 || f > f_max * (1.0 + 1e-9) {
                self.oracle.report(
                    Invariant::VfLegality,
                    cycle,
                    format!("tile {ti} actuated clock"),
                    format!("0 <= f <= {f_max} MHz"),
                    format!("{f} MHz"),
                );
            }
        }
        let total: f64 = self.managed.iter().map(|&t| self.tile_power(t)).sum();
        let ceiling = self.cfg().budget_mw * (1.0 + ORACLE_BUDGET_SLACK_FRAC)
            + self.sim.coin_value_mw * self.managed.len() as f64;
        self.oracle.check_le_f64(
            Invariant::BudgetCeiling,
            cycle,
            || format!("managed power after tile {ti} actuated"),
            total,
            ceiling,
        );
    }

    /// Test-only sabotage hook (see `Simulation::with_conservation_bug`):
    /// mints one coin on the first commit at/after the armed cycle and
    /// burns one on the next, so only continuous auditing can catch it.
    pub(crate) fn sabotage_conservation(&mut self, ti: usize) {
        let Some(at) = self.sim.conservation_bug_at else {
            return;
        };
        if self.now.as_noc_cycles() < at || self.bug_state >= 2 {
            return;
        }
        self.tiles[ti].has += if self.bug_state == 0 { 1 } else { -1 };
        self.bug_state += 1;
    }
}

/// Assembles the [`SimReport`] once the event loop has stopped. The
/// coin-economy audit binds only to schemes that own one
/// ([`ManagerPolicy::owns_coin_economy`]): live plus faulted holdings
/// plus the policy's in-flight coins must equal the initial pool.
pub(crate) fn finish(mut core: Core, policy: &mut dyn ManagerPolicy) -> SimReport {
    // hand the drained queue's allocation back for the thread's next trial
    crate::engine::recycle_queue(std::mem::take(&mut core.queue));
    let finished = core.completed == core.sim.wl.len();
    let held_live: i64 = core
        .managed
        .iter()
        .filter(|&&t| core.tiles[t].faulted.is_none())
        .map(|&t| core.tiles[t].has)
        .sum();
    let held_faulted: i64 = core
        .managed
        .iter()
        .filter(|&&t| core.tiles[t].faulted.is_some())
        .map(|&t| core.tiles[t].has)
        .sum();
    let coins_quarantined: i64 = core
        .managed
        .iter()
        .filter(|&&t| core.tiles[t].faulted == Some(TileFaultKind::Stuck))
        .map(|&t| core.tiles[t].has)
        .sum();
    let audit = core
        .audit
        .check(held_live, held_faulted, policy.coins_in_flight());
    let coins_leaked = if policy.owns_coin_economy() {
        audit.leaked
    } else {
        0
    };
    let recovery_us = match (core.fault_at, core.recovered_at) {
        (Some(f), Some(r)) => Some((r - f).as_us_f64()),
        _ => None,
    };
    let refs: Vec<&StepTrace> = core.power_traces.iter().collect();
    let power = StepTrace::sum("power_total_mw", &refs);
    let tiles = core.sim.tile_traces.then_some(TileTraces {
        power: core.power_traces,
        coins: core.coin_traces,
        freq: core.freq_traces,
    });
    let mut report = SimReport {
        finished,
        exec_time: core.exec_end,
        responses: core.responses,
        activity_changes: core.activity_changes,
        power,
        tiles,
        managed_tiles: core.managed,
        budget_mw: core.sim.cfg.budget_mw,
        noc: core.net.stats().clone(),
        events: core.events,
        coins_leaked,
        coins_reclaimed: audit.reclaimed,
        coins_quarantined,
        tasks_abandoned: core.abandoned,
        recovery_us,
        oracle_violations: core.oracle.count(),
        oracle_first: core.oracle.first_replay_line(),
        scheme_stats: Vec::new(),
        thermal_peak_c: core.thermal.as_ref().map(|t| t.comp.max_celsius()),
        throttle_events: core.thermal.as_ref().map_or(0, |t| t.throttle_events),
        first_throttle_us: core
            .thermal
            .as_ref()
            .and_then(|t| t.first_throttle)
            .map(|t| t.as_us_f64()),
    };
    policy.finalize(&mut report);
    report
}
