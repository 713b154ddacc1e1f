//! Power-manager configurations.
//!
//! The engine plugs in one of six managers (Section V-C; each one is a
//! `ManagerPolicy` implementation in `crate::managers`):
//!
//! | Manager | Control | Allocation | Response scaling |
//! |---|---|---|---|
//! | `BlitzCoin` | decentralized HW FSMs | proportional (coin exchange) | O(√N) |
//! | `BcCentralized` | central HW unit | proportional (computed centrally) | O(N) |
//! | `CentralizedRoundRobin` | central FW controller | greedy max/min rotation | O(N) |
//! | `TokenSmart` | decentralized token ring | greedy/fair ring targets | O(N) |
//! | `PriceTheory` | hierarchical supervisors | market clearing (tâtonnement) | O(iterations · N) |
//! | `Static` | none | P_max-proportional shares fixed at boot | — |
//!
//! The centralized schemes' per-tile service times (`SERVICE_CYCLES` of
//! each `SweepScheme` in `crate::managers`) are the DESIGN.md §5
//! calibration: they are chosen once so the simulated N=7 response times
//! land near the silicon-measured 15.3 µs (C-RR) and 1.4 µs (BC-C) of
//! Fig 20, and are then *validated* against the independent Fig 17/18
//! ratios rather than re-tuned.

/// Which power manager governs the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ManagerKind {
    /// Decentralized BlitzCoin coin exchange (the paper's design).
    BlitzCoin,
    /// BlitzCoin's allocation with a centralized controller (BC-C).
    BcCentralized,
    /// Centralized round-robin max/min rotation (C-RR).
    CentralizedRoundRobin,
    /// TokenSmart single-token ring passing (the Fig 4 competitor,
    /// promoted from the behavioural baseline to a cycle-level manager).
    TokenSmart,
    /// Price-theory market clearing (Muthukaruppan et al., ASPLOS 2014):
    /// a supervisor per PM cluster quotes prices and collects demand bids
    /// over the NoC until the market clears (promoted from the
    /// behavioural baseline to a cycle-level manager, like TokenSmart).
    PriceTheory,
    /// Fixed shares proportional to each tile's P_max, set once at boot
    /// (the Fig 19 silicon baseline).
    Static,
}

impl ManagerKind {
    /// All managers, in the order the paper's figures list them.
    pub const ALL: [ManagerKind; 6] = [
        ManagerKind::BlitzCoin,
        ManagerKind::BcCentralized,
        ManagerKind::CentralizedRoundRobin,
        ManagerKind::TokenSmart,
        ManagerKind::PriceTheory,
        ManagerKind::Static,
    ];

    /// Whether a run under this manager draws from the run seed's RNG.
    /// Only BlitzCoin does, for its exchange FSMs' boot phases and
    /// stochastic rounding. Every other scheme's report is the same at
    /// any seed (workloads and fault plans carry their own), so a sweep
    /// needs one replica of such a unit, not one per seed;
    /// `tests/oracle_invariants.rs` holds the engine to this.
    pub fn draws_from_seed(&self) -> bool {
        matches!(self, ManagerKind::BlitzCoin)
    }

    /// The short name used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            ManagerKind::BlitzCoin => "BC",
            ManagerKind::BcCentralized => "BC-C",
            ManagerKind::CentralizedRoundRobin => "C-RR",
            ManagerKind::TokenSmart => "TS",
            ManagerKind::PriceTheory => "PT",
            ManagerKind::Static => "Static",
        }
    }
}

impl blitzcoin_sim::json::ToJson for ManagerKind {
    /// Serializes as the figure short name (`"BC"`, `"C-RR"`, ...), the
    /// same spelling `FromStr` reads back.
    fn to_json(&self) -> blitzcoin_sim::json::Json {
        blitzcoin_sim::json::Json::Str(self.name().to_string())
    }
}

impl blitzcoin_sim::json::FromJson for ManagerKind {
    fn from_json(v: &blitzcoin_sim::json::Json) -> Result<Self, blitzcoin_sim::json::JsonError> {
        let s = v
            .as_str()
            .ok_or_else(|| blitzcoin_sim::json::JsonError::new("expected manager name"))?;
        s.parse()
            .map_err(|e: ParseManagerError| blitzcoin_sim::json::JsonError::new(e.to_string()))
    }
}

/// Error from parsing a [`ManagerKind`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseManagerError(String);

impl std::fmt::Display for ParseManagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = ManagerKind::ALL.iter().map(ManagerKind::name).collect();
        write!(
            f,
            "unknown manager `{}` (one of {})",
            self.0,
            names.join(", ")
        )
    }
}

impl std::error::Error for ParseManagerError {}

impl std::str::FromStr for ManagerKind {
    type Err = ParseManagerError;

    /// Parses the figure short name ([`ManagerKind::name`]),
    /// case-insensitively — the round-trip behind the `--manager` CLI
    /// flag.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ManagerKind::ALL
            .iter()
            .copied()
            .find(|k| k.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseManagerError(s.to_string()))
    }
}

impl std::fmt::Display for ManagerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(ManagerKind::BlitzCoin.to_string(), "BC");
        assert_eq!(ManagerKind::BcCentralized.to_string(), "BC-C");
        assert_eq!(ManagerKind::CentralizedRoundRobin.to_string(), "C-RR");
        assert_eq!(ManagerKind::TokenSmart.to_string(), "TS");
        assert_eq!(ManagerKind::PriceTheory.to_string(), "PT");
        assert_eq!(ManagerKind::Static.to_string(), "Static");
        assert_eq!(ManagerKind::ALL.len(), 6);
    }

    #[test]
    fn parse_round_trips_every_kind() {
        for kind in ManagerKind::ALL {
            // Display -> parse round-trip, exactly as the `--manager`
            // CLI flag consumes the figure names.
            assert_eq!(kind.name().parse::<ManagerKind>(), Ok(kind));
            assert_eq!(kind.to_string().parse::<ManagerKind>(), Ok(kind));
            // and case-insensitively
            assert_eq!(kind.name().to_lowercase().parse::<ManagerKind>(), Ok(kind));
        }
        let err = "no-such-manager".parse::<ManagerKind>().unwrap_err();
        assert!(err.to_string().contains("PT"), "{err}");
    }

    #[test]
    fn calibration_matches_fig20_targets() {
        use crate::managers::{bcc::Bcc, centralized::SweepScheme, crr::Crr};
        // 7 active accelerators, as in the silicon workload
        let crr_us = 7.0 * Crr::SERVICE_CYCLES as f64 * 1.25e-3;
        let bcc_us = 7.0 * Bcc::SERVICE_CYCLES as f64 * 1.25e-3;
        assert!((crr_us - 15.3).abs() < 1.0, "C-RR calibration: {crr_us}");
        assert!((bcc_us - 1.4).abs() < 0.2, "BC-C calibration: {bcc_us}");
    }
}
