//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes every fault a simulation run should
//! experience: per-plane packet-drop probabilities, link-outage windows,
//! bounded extra per-hop delay, per-message latency jitter, and
//! scheduled tile faults (fail-stop and stuck). The plan is plain data —
//! JSON-serializable and embeddable in experiment configs — and every
//! decision it makes is a *stateless hash* of the plan seed and the
//! entity involved (packet endpoints, plane, injection cycle). Fault
//! injection therefore never consumes from the simulation's main RNG
//! stream: adding or removing faults perturbs only the faulted events,
//! and the same plan replayed over the same traffic makes identical
//! decisions.
//!
//! The consumers are `blitzcoin-noc` (drops, outages, delays at
//! `Network::send`), the `blitzcoin-core` emulator and `blitzcoin-soc`
//! engine (tile faults, exchange timeouts, heartbeat reclamation), and
//! the centralized baselines (controller death, TokenSmart ring breaks).
//! [`CoinAudit`] closes the loop: it checks that held + in-flight +
//! quarantined coins always equal the initial pool, so no fault scenario
//! can leak budget silently.

use crate::rng::splitmix64;

/// What a scheduled tile fault does to its tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileFaultKind {
    /// The tile dies: it stops initiating and answering exchanges and its
    /// activity ceases. Its coins are recoverable by neighbors via the
    /// heartbeat-timeout reclamation path.
    FailStop,
    /// The tile wedges: it holds its coins and keeps its last DVFS state,
    /// but stops responding to the protocol. Its coins are quarantined
    /// (counted, never reallocated) so the budget stays enforced.
    Stuck,
}

crate::json_unit_enum!(TileFaultKind { FailStop, Stuck });

/// A tile fault scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileFault {
    /// The tile that faults.
    pub tile: usize,
    /// When the fault takes effect, in NoC cycles since t=0.
    pub at_cycle: u64,
    /// Fail-stop or stuck.
    pub kind: TileFaultKind,
}

crate::json_fields!(TileFault {
    tile,
    at_cycle,
    kind
});

/// A window during which one undirected link delivers nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkOutage {
    /// One endpoint tile id.
    pub a: usize,
    /// The other endpoint tile id.
    pub b: usize,
    /// First cycle of the outage (inclusive).
    pub from_cycle: u64,
    /// End of the outage (exclusive).
    pub until_cycle: u64,
}

crate::json_fields!(LinkOutage {
    a,
    b,
    from_cycle,
    until_cycle
});

/// A complete, seeded description of the faults injected into one run.
///
/// `FaultPlan::default()` injects nothing; [`FaultPlan::is_empty`] lets
/// hot paths skip the fault checks entirely in that case.
///
/// # Example
///
/// ```
/// use blitzcoin_sim::fault::{FaultPlan, TileFault, TileFaultKind};
///
/// let plan = FaultPlan {
///     seed: 7,
///     drop_prob: vec![0.05],
///     tile_faults: vec![TileFault {
///         tile: 3,
///         at_cycle: 10_000,
///         kind: TileFaultKind::FailStop,
///     }],
///     ..FaultPlan::default()
/// };
/// // Decisions are deterministic in the plan seed and packet identity:
/// let d1 = plan.drops_packet(0, 1, 2, 500);
/// let d2 = plan.drops_packet(0, 1, 2, 500);
/// assert_eq!(d1, d2);
/// assert_eq!(plan.tile_fault(3).unwrap().kind, TileFaultKind::FailStop);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for all stateless fault decisions.
    pub seed: u64,
    /// Packet-drop probability per NoC plane; a plane beyond the end of
    /// the vector uses the last entry (empty vector = no drops).
    pub drop_prob: Vec<f64>,
    /// Upper bound, in cycles, on the uniformly-drawn extra delay added
    /// per hop of a packet's route (0 = off).
    pub extra_hop_delay_max_cycles: u64,
    /// Per-message jitter: uniform extra latency in
    /// `[0, msg_jitter_cycles)` per message (0 = off).
    pub msg_jitter_cycles: u64,
    /// Scheduled link outages.
    pub outages: Vec<LinkOutage>,
    /// Scheduled tile faults. At most one per tile is honored (the
    /// earliest wins).
    pub tile_faults: Vec<TileFault>,
}

crate::json_fields!(FaultPlan {
    seed,
    drop_prob,
    extra_hop_delay_max_cycles,
    msg_jitter_cycles,
    outages,
    tile_faults
});

/// Hash-decision salts, one per decision family, so the same packet
/// identity never reuses a hash across decision types.
const SALT_DROP: u64 = 0xD809;
const SALT_HOP_DELAY: u64 = 0xDE1A;
const SALT_JITTER: u64 = 0x1177;

impl FaultPlan {
    /// A plan injecting no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan can never alter anything.
    pub fn is_empty(&self) -> bool {
        self.drop_prob.iter().all(|&p| p <= 0.0)
            && self.extra_hop_delay_max_cycles == 0
            && self.msg_jitter_cycles == 0
            && self.outages.is_empty()
            && self.tile_faults.is_empty()
    }

    /// Validates probabilities and bounds.
    pub fn validate(&self) -> Result<(), crate::error::ConfigError> {
        for &p in &self.drop_prob {
            crate::error::require_probability("drop_prob", p)?;
        }
        for o in &self.outages {
            if o.from_cycle >= o.until_cycle {
                return Err(crate::error::ConfigError::Invalid {
                    what: "link outage",
                    detail: format!("window [{}, {}) is empty", o.from_cycle, o.until_cycle),
                });
            }
        }
        Ok(())
    }

    /// The drop probability applying to `plane`.
    pub fn plane_drop_prob(&self, plane: usize) -> f64 {
        match self.drop_prob.get(plane) {
            Some(&p) => p,
            None => self.drop_prob.last().copied().unwrap_or(0.0),
        }
    }

    /// Whether the packet injected at `cycle` from `src` to `dst` on
    /// `plane` is dropped. Stateless: same arguments, same answer.
    pub fn drops_packet(&self, plane: usize, src: usize, dst: usize, cycle: u64) -> bool {
        let p = self.plane_drop_prob(plane);
        if p <= 0.0 {
            return false;
        }
        hash_unit(self.decision(SALT_DROP, plane as u64, pack(src, dst), cycle)) < p
    }

    /// Whether the undirected link `a`–`b` is inside an outage window at
    /// `cycle`.
    pub fn link_down(&self, a: usize, b: usize, cycle: u64) -> bool {
        self.outages.iter().any(|o| {
            let same = (o.a == a && o.b == b) || (o.a == b && o.b == a);
            same && (o.from_cycle..o.until_cycle).contains(&cycle)
        })
    }

    /// Extra delay, in cycles, for a packet injected at `cycle` taking
    /// `hops` hops: the sum of `hops` independent uniform draws from
    /// `[0, extra_hop_delay_max_cycles]`, so the total is bounded by
    /// `hops * extra_hop_delay_max_cycles`.
    pub fn extra_hop_delay_cycles(&self, src: usize, dst: usize, cycle: u64, hops: u64) -> u64 {
        let max = self.extra_hop_delay_max_cycles;
        if max == 0 {
            return 0;
        }
        (0..hops)
            .map(|h| self.decision(SALT_HOP_DELAY, pack(src, dst), cycle, h) % (max + 1))
            .sum()
    }

    /// Per-message jitter for a message injected at `cycle`:
    /// uniform in `[0, msg_jitter_cycles)`, or 0 when the knob is off.
    pub fn msg_jitter(&self, src: usize, dst: usize, cycle: u64) -> u64 {
        if self.msg_jitter_cycles == 0 {
            return 0;
        }
        self.decision(SALT_JITTER, pack(src, dst), cycle, 0) % self.msg_jitter_cycles
    }

    /// The earliest scheduled fault for `tile`, if any.
    pub fn tile_fault(&self, tile: usize) -> Option<&TileFault> {
        self.tile_faults
            .iter()
            .filter(|f| f.tile == tile)
            .min_by_key(|f| f.at_cycle)
    }

    /// Whether `tile` has faulted (either kind) by `cycle`.
    pub fn tile_faulted(&self, tile: usize, cycle: u64) -> bool {
        self.tile_fault(tile).is_some_and(|f| cycle >= f.at_cycle)
    }

    fn decision(&self, salt: u64, a: u64, b: u64, c: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(salt ^ splitmix64(a ^ splitmix64(b ^ splitmix64(c)))))
    }
}

fn pack(src: usize, dst: usize) -> u64 {
    ((src as u64) << 32) | (dst as u64 & 0xFFFF_FFFF)
}

fn hash_unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A coin-conservation auditor.
///
/// Fault recovery moves coins along unusual paths — exchanges abort
/// mid-flight, neighbors drain dead tiles, stuck tiles quarantine budget.
/// The auditor pins the invariant that makes all of that safe: at any
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
    /// live tiles, `held_faulted` the sum still sitting on dead or stuck
    /// tiles, `in_flight` coins inside unresolved exchanges.
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
            seed: 99,
            drop_prob: vec![0.1, 0.02],
            extra_hop_delay_max_cycles: 4,
            msg_jitter_cycles: 16,
            outages: vec![LinkOutage {
                a: 1,
                b: 2,
                from_cycle: 100,
                until_cycle: 200,
            }],
            tile_faults: vec![
                TileFault {
                    tile: 5,
                    at_cycle: 1_000,
                    kind: TileFaultKind::FailStop,
                },
                TileFault {
                    tile: 6,
                    at_cycle: 2_000,
                    kind: TileFaultKind::Stuck,
                },
            ],
        }
    }

    #[test]
    fn empty_plan_does_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(!plan.drops_packet(0, 1, 2, 3));
        assert!(!plan.link_down(1, 2, 3));
        assert_eq!(plan.extra_hop_delay_cycles(1, 2, 3, 10), 0);
        assert_eq!(plan.msg_jitter(1, 2, 3), 0);
        assert!(plan.tile_fault(0).is_none());
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = sample_plan();
        let picks: Vec<bool> = (0..256).map(|t| plan.drops_packet(0, 3, 4, t)).collect();
        let again: Vec<bool> = (0..256).map(|t| plan.drops_packet(0, 3, 4, t)).collect();
        assert_eq!(picks, again);
        let other = FaultPlan {
            seed: 100,
            ..sample_plan()
        };
        let differs: Vec<bool> = (0..256).map(|t| other.drops_packet(0, 3, 4, t)).collect();
        assert_ne!(picks, differs);
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan {
            seed: 1,
            drop_prob: vec![0.25],
            ..FaultPlan::default()
        };
        let drops = (0..10_000)
            .filter(|&t| plan.drops_packet(0, 0, 1, t))
            .count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn plane_fallback_uses_last_entry() {
        let plan = sample_plan();
        assert_eq!(plan.plane_drop_prob(0), 0.1);
        assert_eq!(plan.plane_drop_prob(1), 0.02);
        assert_eq!(plan.plane_drop_prob(5), 0.02);
        assert_eq!(FaultPlan::none().plane_drop_prob(3), 0.0);
    }

    #[test]
    fn outage_window_is_half_open_and_undirected() {
        let plan = sample_plan();
        assert!(!plan.link_down(1, 2, 99));
        assert!(plan.link_down(1, 2, 100));
        assert!(plan.link_down(2, 1, 150));
        assert!(!plan.link_down(1, 2, 200));
        assert!(!plan.link_down(1, 3, 150));
    }

    #[test]
    fn hop_delay_is_bounded() {
        let plan = sample_plan();
        for t in 0..500 {
            let d = plan.extra_hop_delay_cycles(0, 8, t, 6);
            assert!(d <= 6 * 4, "delay {d} exceeds bound");
        }
        // Nonzero somewhere, or the knob does nothing.
        assert!((0..500).any(|t| plan.extra_hop_delay_cycles(0, 8, t, 6) > 0));
    }

    #[test]
    fn jitter_shim_matches_old_contract() {
        // The per-message jitter contract: uniform in
        // `[0, msg_jitter_cycles)`, and none when the bound is 0.
        let plan = FaultPlan {
            msg_jitter_cycles: 64,
            ..FaultPlan::none()
        };
        let mut seen_high = false;
        for t in 0..2_000 {
            let j = plan.msg_jitter(2, 3, t);
            assert!(j < 64);
            seen_high |= j > 32;
        }
        assert!(seen_high, "jitter never reached upper half of range");
        assert_eq!(FaultPlan::none().msg_jitter(2, 3, 9), 0);
    }

    #[test]
    fn tile_fault_queries() {
        let plan = sample_plan();
        assert!(!plan.tile_faulted(5, 999));
        assert!(plan.tile_faulted(5, 1_000));
        assert!(plan.tile_faulted(6, 2_000));
        assert!(!plan.tile_faulted(7, u64::MAX));
    }

    #[test]
    fn earliest_fault_wins() {
        let plan = FaultPlan {
            tile_faults: vec![
                TileFault {
                    tile: 1,
                    at_cycle: 500,
                    kind: TileFaultKind::Stuck,
                },
                TileFault {
                    tile: 1,
                    at_cycle: 100,
                    kind: TileFaultKind::FailStop,
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.tile_fault(1).unwrap().at_cycle, 100);
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        let mut plan = sample_plan();
        assert!(plan.validate().is_ok());
        plan.drop_prob[0] = 1.5;
        assert!(plan.validate().is_err());
        plan.drop_prob[0] = 0.5;
        plan.outages[0].until_cycle = plan.outages[0].from_cycle;
        assert!(plan.validate().is_err());
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
