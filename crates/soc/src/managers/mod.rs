//! The manager policies: every scheme-specific behavior of the engine.
//!
//! The engine's event loop is scheme-agnostic; each power-management
//! scheme implements [`ManagerPolicy`] and owns its protocol state, its
//! events (delivered back verbatim through [`ManagerEv`]), its settle
//! semantics, and its slice of the coin-economy accounting. Adding a
//! scheme means adding a module here and a [`ManagerKind`] variant —
//! the engine itself does not change.
//!
//! - [`blitzcoin`]: the paper's decentralized coin exchange (per-tile
//!   FSM state lives in `TileRt`, mirroring the hardware).
//! - [`centralized`]: the shared notify→sweep→write machinery, with
//!   [`bcc`] and [`crr`] plugging in their allocation schemes.
//! - [`static_alloc`]: fixed design-time shares, set once at boot.
//! - [`tokensmart`]: the ring token protocol, driving the behavioural
//!   baseline's state machine over real NoC packets.
//! - [`price_theory`]: hierarchical market clearing — a supervisor per
//!   PM cluster runs the behavioural tâtonnement as quote/bid/grant
//!   NoC traffic, with supervisor-death takeover.

use crate::engine::events::ManagerEv;
use crate::engine::Core;
use crate::manager::ManagerKind;
use crate::report::SimReport;

pub(crate) mod bcc;
pub(crate) mod blitzcoin;
pub(crate) mod centralized;
pub(crate) mod crr;
pub(crate) mod price_theory;
pub(crate) mod static_alloc;
pub(crate) mod tokensmart;

/// One power-management scheme, plugged into the engine's event loop.
///
/// Contract (the DESIGN.md §3f version is normative):
/// - `init` runs at boot *after* the workload roots are enqueued (so
///   boot-time activity changes reach the policy first) and *before*
///   planned faults are scheduled — any RNG it consumes is part of the
///   deterministic schedule.
/// - `on_activity_change` fires after the engine has logged the change
///   and started the pending-response clock; a policy that will never
///   answer (Static) pops the pending entry.
/// - `on_event` receives exactly the [`ManagerEv`]s the policy itself
///   scheduled, in deterministic order.
/// - `halts_when_settled` tells the loop the policy will never drain the
///   remaining pending responses, so a settled run may stop.
/// - A policy that `owns_coin_economy` must call
///   `Core::audit_cluster_conservation` at every commit and report any
///   coins travelling outside tile ledgers via `coins_in_flight`.
pub(crate) trait ManagerPolicy {
    /// One-time boot work: schedule initial events, set initial shares.
    fn init(&mut self, core: &mut Core);

    /// A managed tile's activity changed (stream started or ended).
    fn on_activity_change(&mut self, core: &mut Core, ti: usize);

    /// A manager event this policy scheduled has fired.
    fn on_event(&mut self, core: &mut Core, ev: ManagerEv);

    /// Whether a settled run should stop even with pending responses
    /// (they will never be answered).
    fn halts_when_settled(&self, core: &Core) -> bool;

    /// Whether the scheme owns a distributed coin economy the end-of-run
    /// leak audit binds to.
    fn owns_coin_economy(&self) -> bool {
        false
    }

    /// Coins currently travelling outside any tile ledger (e.g.
    /// TokenSmart's circulating pool). Counted by the end-of-run audit.
    fn coins_in_flight(&self) -> i64 {
        0
    }

    /// Last word before the report ships: scheme-specific stats and
    /// accounting adjustments.
    fn finalize(&mut self, report: &mut SimReport) {
        let _ = report;
    }
}

/// The policy object for a [`ManagerKind`].
pub(crate) fn policy_for(kind: ManagerKind) -> Box<dyn ManagerPolicy> {
    match kind {
        ManagerKind::BlitzCoin => Box::new(blitzcoin::BlitzCoinPolicy),
        ManagerKind::BcCentralized => Box::new(centralized::Centralized::new(bcc::Bcc::default())),
        ManagerKind::CentralizedRoundRobin => Box::new(centralized::Centralized::new(crr::Crr)),
        ManagerKind::TokenSmart => Box::new(tokensmart::TokenSmartPolicy::new()),
        ManagerKind::PriceTheory => Box::new(price_theory::PriceTheoryPolicy::new()),
        ManagerKind::Static => Box::new(static_alloc::StaticPolicy),
    }
}
