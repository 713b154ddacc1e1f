//! Deterministic fault injection: fail-stop tiles.
//!
//! A [`FaultPlan`] lists the tiles that die during a simulation run and
//! when. A dead tile stops at once and for good: it initiates nothing,
//! answers nothing and its activity ceases, while the NoC keeps delivering
//! every packet. This is the fault the paper's resilience argument is
//! about (any tile may die and the survivors keep managing power), and the
//! only one the experiments inject. The plan is plain data (JSON-encodable,
//! so it enters the SoC engine's cache key) and consumes nothing from the
//! simulation's RNG stream.
//!
//! The consumers are the `blitzcoin-soc` engine (tile deaths, exchange
//! timeouts, heartbeat reclamation, controller and ring-stop deaths) and
//! the behavioural TokenSmart ring. [`CoinAudit`] closes the loop: it
//! checks that held + in-flight + quarantined coins always equal the
//! initial pool, so no fault scenario can leak budget silently.

/// A tile that fail-stops at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileFault {
    /// The tile that dies.
    pub tile: usize,
    /// When it dies, in NoC cycles since t=0.
    pub at_cycle: u64,
}

crate::json_fields!(TileFault { tile, at_cycle });

/// The tiles that die during one run.
///
/// `FaultPlan::default()` kills nothing.
///
/// # Example
///
/// ```
/// use blitzcoin_sim::fault::{FaultPlan, TileFault};
///
/// let plan = FaultPlan {
///     tile_faults: vec![
///         TileFault { tile: 3, at_cycle: 10_000 },
///         TileFault { tile: 3, at_cycle: 4_000 },
///     ],
/// };
/// // A tile dies once, at its earliest listed time.
/// assert_eq!(plan.tile_fault(3).unwrap().at_cycle, 4_000);
/// assert!(plan.tile_fault(4).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Scheduled fail-stops. A tile listed more than once dies at its
    /// earliest time.
    pub tile_faults: Vec<TileFault>,
}

crate::json_fields!(FaultPlan { tile_faults });

impl FaultPlan {
    /// A plan killing no tile.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The earliest scheduled fail-stop of `tile`, if any.
    pub fn tile_fault(&self, tile: usize) -> Option<&TileFault> {
        self.tile_faults
            .iter()
            .filter(|f| f.tile == tile)
            .min_by_key(|f| f.at_cycle)
    }
}

/// A coin-conservation auditor.
///
/// Fault recovery moves coins along unusual paths — exchanges with a dead
/// partner time out, neighbors drain dead tiles, a broken token ring traps
/// its pool. The auditor pins the invariant that makes all of that safe: at any
/// audit point, coins held by live tiles + coins held by faulted tiles
/// not yet reclaimed + coins in flight must equal the initial pool.
/// Anything else is a leak (budget lost) or a mint (budget overshoot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoinAudit {
    initial: i64,
    reclaimed: i64,
}

/// The outcome of one audit check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditReport {
    /// The initial pool the run started with.
    pub expected: i64,
    /// Coins accounted for at the audit point.
    pub observed: i64,
    /// `expected - observed`: positive means coins vanished, negative
    /// means coins were minted.
    pub leaked: i64,
    /// Total coins reclaimed from dead tiles so far (informational).
    pub reclaimed: i64,
}

impl AuditReport {
    /// True when not a single coin is unaccounted for.
    pub fn ok(&self) -> bool {
        self.leaked == 0
    }
}

impl CoinAudit {
    /// Starts auditing a pool of `initial_total` coins.
    pub fn new(initial_total: i64) -> Self {
        CoinAudit {
            initial: initial_total,
            reclaimed: 0,
        }
    }

    /// The initial pool.
    pub fn initial(&self) -> i64 {
        self.initial
    }

    /// Records `n` coins reclaimed from a dead tile by a neighbor. The
    /// coins re-enter circulation, so this does not change the expected
    /// total — it is tracked so reports can show recovery progress.
    pub fn record_reclaim(&mut self, n: i64) {
        self.reclaimed += n;
    }

    /// Total coins reclaimed so far.
    pub fn reclaimed(&self) -> i64 {
        self.reclaimed
    }

    /// Checks conservation at an audit point. `held_live` is the sum over
    /// live tiles, `held_faulted` the sum still sitting on dead tiles,
    /// `in_flight` coins inside unresolved exchanges.
    pub fn check(&self, held_live: i64, held_faulted: i64, in_flight: i64) -> AuditReport {
        let observed = held_live + held_faulted + in_flight;
        AuditReport {
            expected: self.initial,
            observed,
            leaked: self.initial - observed,
            reclaimed: self.reclaimed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{FromJson, Json, ToJson};

    fn sample_plan() -> FaultPlan {
        FaultPlan {
            tile_faults: vec![
                TileFault {
                    tile: 5,
                    at_cycle: 1_000,
                },
                TileFault {
                    tile: 6,
                    at_cycle: 0,
                },
            ],
        }
    }

    #[test]
    fn empty_plan_does_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.tile_faults.is_empty());
        assert!(plan.tile_fault(0).is_none());
    }

    #[test]
    fn tile_fault_queries() {
        let plan = sample_plan();
        assert_eq!(plan.tile_fault(5).unwrap().at_cycle, 1_000);
        assert_eq!(plan.tile_fault(6).unwrap().at_cycle, 0);
        assert!(plan.tile_fault(7).is_none());
    }

    #[test]
    fn earliest_fault_wins() {
        let plan = FaultPlan {
            tile_faults: vec![
                TileFault {
                    tile: 1,
                    at_cycle: 500,
                },
                TileFault {
                    tile: 1,
                    at_cycle: 100,
                },
            ],
        };
        assert_eq!(plan.tile_fault(1).unwrap().at_cycle, 100);
    }

    #[test]
    fn json_roundtrip() {
        let plan = sample_plan();
        let text = plan.to_json().to_string_pretty();
        let back = FaultPlan::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn audit_flags_leak_and_mint() {
        let mut audit = CoinAudit::new(640);
        let ok = audit.check(600, 40, 0);
        assert!(ok.ok());
        audit.record_reclaim(40);
        let ok = audit.check(640, 0, 0);
        assert!(ok.ok());
        assert_eq!(ok.reclaimed, 40);
        let leak = audit.check(630, 0, 5);
        assert_eq!(leak.leaked, 5);
        assert!(!leak.ok());
        let mint = audit.check(650, 0, 0);
        assert_eq!(mint.leaked, -10);
        assert!(!mint.ok());
    }
}
