//! Runtime invariant auditing: the simulation oracle.
//!
//! BlitzCoin's central claims — coins are conserved across every exchange,
//! the SoC never exceeds its power budget, actuated operating points are
//! legal, event time never runs backwards, wormhole links neither drop nor
//! duplicate flits — were historically asserted only at end-of-run (the
//! [`crate::fault::CoinAudit`] conservation check) or by the experiment
//! claims harness. A mid-run violation that self-cancels before the report
//! was invisible. This module makes each invariant a continuously audited
//! property: the SoC engine, the behavioural emulator and the NoC call the
//! oracle at their natural checkpoints, and every violation is recorded
//! with enough structured context (cycle, site, expected/actual, replay
//! seed) to reproduce it in isolation.
//!
//! # Cost contract
//!
//! The oracle is compiled in when either the `oracle` cargo feature is
//! set or the build has `debug_assertions` (so tests and debug builds are
//! always audited, while `--release` benchmark builds pay nothing unless
//! `--features oracle` is passed). [`enabled`] is a `const fn`; guarding a
//! checkpoint with `if oracle::enabled() { ... }` lets the optimizer
//! delete both the check *and* the caller-side bookkeeping that feeds it.
//! Check methods take the violation site as a closure so the pass path
//! never allocates.
//!
//! # Replay workflow
//!
//! Violations are recorded, not panicked: the owning run finishes and its
//! report carries the count, so experiments assert `oracle_violations ==
//! 0` and a differential run can still compare two divergent schemes.
//! [`Violation::replay_line`] renders the failure in the same
//! copy-paste-to-reproduce style as [`crate::check::forall_seeded`]'s
//! panic message: it names the invariant, the first offending cycle, and
//! the root seed to rerun the owning simulation with.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::event::TieBreak;

/// Whether oracle checks are compiled into this build.
///
/// True when the `oracle` feature is enabled *or* the build carries
/// `debug_assertions` (debug and test profiles). Const, so the branch
/// folds away entirely in unaudited release builds.
#[must_use]
pub const fn enabled() -> bool {
    cfg!(any(feature = "oracle", debug_assertions))
}

/// Process-wide violation counter, summed across every [`Oracle`]
/// instance. The experiment harness snapshots it around each runner to
/// stamp per-experiment deltas into the manifest; increments commute, so
/// the delta is identical at every sweep job count.
static TOTAL: AtomicU64 = AtomicU64::new(0);

/// Total violations recorded by all oracles in this process so far.
#[must_use]
pub fn violations_total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// The catalog of audited invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// The summed coin ledger (held + in-flight + quarantined) equals the
    /// initial pool after every exchange commit, reclaim, and fault.
    CoinConservation,
    /// Actuated SoC power stays under the budget plus the documented
    /// actuation-transient envelope.
    BudgetCeiling,
    /// Every actuated operating point is legal for its tile's power model
    /// (finite, non-negative, at most `f_max`).
    VfLegality,
    /// Event-queue pops never move simulation time backwards.
    TimeMonotonicity,
    /// Wormhole links neither lose nor duplicate flits: injected ==
    /// delivered + in-network + awaiting-injection, and no buffer
    /// overflows its configured depth.
    FlitConservation,
    /// Decentralized steady-state allocations agree with the centralized
    /// golden model within the paper's Fig-4 bound (differential mode).
    AllocationDivergence,
    /// Order-independent report facts (finished, zero leaks, settled
    /// tasks, clean oracle) are identical under every same-timestamp
    /// event ordering (interleaving-fuzz mode; see
    /// [`crate::interleave`]).
    OrderIndependence,
}

impl Invariant {
    /// Stable kebab-case name used in replay lines and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Invariant::CoinConservation => "coin-conservation",
            Invariant::BudgetCeiling => "budget-ceiling",
            Invariant::VfLegality => "vf-legality",
            Invariant::TimeMonotonicity => "time-monotonicity",
            Invariant::FlitConservation => "flit-conservation",
            Invariant::AllocationDivergence => "allocation-divergence",
            Invariant::OrderIndependence => "order-independence",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded invariant violation, with enough context to reproduce it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant was violated.
    pub invariant: Invariant,
    /// The simulation cycle (owner-defined clock) of the violation.
    pub cycle: u64,
    /// Where it happened ("tiles 3<->5 pairwise commit", "link 2->3").
    pub site: String,
    /// The value the invariant requires, rendered.
    pub expected: String,
    /// The value observed, rendered.
    pub actual: String,
    /// Root seed of the owning run; rerunning with it reproduces the
    /// violation deterministically.
    pub seed: u64,
    /// The owning subsystem ("soc::engine", "core::emulator", ...).
    pub target: &'static str,
    /// The event-queue tie-break ordering the owning run was under.
    /// Anything but the default [`TieBreak::Fifo`] means the violation
    /// was found by the interleaving fuzzer, and reproducing it needs
    /// the same `--tie-break` value.
    pub tie_break: TieBreak,
}

impl Violation {
    /// Renders the violation in the replay style of
    /// [`crate::check::forall_seeded`]: one line naming the failure, one
    /// line saying exactly how to reproduce it.
    #[must_use]
    pub fn replay_line(&self) -> String {
        let mut line = format!(
            "invariant `{}` violated at cycle {} (seed {:#x}): {}: expected {}, actual {}\n\
             replay with {} at seed {:#x}",
            self.invariant,
            self.cycle,
            self.seed,
            self.site,
            self.expected,
            self.actual,
            self.target,
            self.seed,
        );
        if self.tie_break != TieBreak::Fifo {
            line.push_str(&format!(" --tie-break {}", self.tie_break));
        }
        line
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.replay_line())
    }
}

/// How many violations each oracle keeps with full context; beyond this
/// only the count grows (a broken invariant usually fires every cycle).
pub const MAX_KEPT: usize = 16;

/// A per-run invariant auditor.
///
/// Owned by the subsystem it audits (one per `Runner`, emulator, or
/// network) and constructed with that run's root seed so violations are
/// replayable. All check methods are no-ops when [`enabled`] is false.
#[derive(Debug, Clone)]
pub struct Oracle {
    target: &'static str,
    seed: u64,
    tie_break: TieBreak,
    count: u64,
    kept: Vec<Violation>,
}

impl Oracle {
    /// Creates an oracle for `target` auditing a run rooted at `seed`,
    /// under the default FIFO event ordering.
    #[must_use]
    pub fn new(target: &'static str, seed: u64) -> Self {
        Oracle {
            target,
            seed,
            tie_break: TieBreak::Fifo,
            count: 0,
            kept: Vec::new(),
        }
    }

    /// Root seed of the audited run.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The event-queue tie-break ordering the audited run is under.
    #[must_use]
    pub fn tie_break(&self) -> TieBreak {
        self.tie_break
    }

    /// Declares the tie-break ordering the audited run is under, so
    /// violations found by the interleaving fuzzer carry the full
    /// reproduction command. Builder-style; the owning run sets it once
    /// at construction.
    #[must_use]
    pub fn with_tie_break(mut self, tie: TieBreak) -> Self {
        self.tie_break = tie;
        self
    }

    /// Total violations recorded by this oracle.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The recorded violations (at most [`MAX_KEPT`], in order).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.kept
    }

    /// The first recorded violation, if any.
    #[must_use]
    pub fn first(&self) -> Option<&Violation> {
        self.kept.first()
    }

    /// Replay line of the first violation, if any.
    #[must_use]
    pub fn first_replay_line(&self) -> Option<String> {
        self.first().map(Violation::replay_line)
    }

    /// Records a violation unconditionally (checks call this on failure;
    /// callers with bespoke predicates may call it directly).
    pub fn report(
        &mut self,
        invariant: Invariant,
        cycle: u64,
        site: String,
        expected: String,
        actual: String,
    ) {
        self.count += 1;
        TOTAL.fetch_add(1, Ordering::Relaxed);
        if self.kept.len() < MAX_KEPT {
            self.kept.push(Violation {
                invariant,
                cycle,
                site,
                expected,
                actual,
                seed: self.seed,
                target: self.target,
                tie_break: self.tie_break,
            });
        }
    }

    /// Exact integer equality check (coin ledgers, flit counts). The
    /// `site` closure only runs on failure.
    #[inline]
    pub fn check_eq_i128(
        &mut self,
        invariant: Invariant,
        cycle: u64,
        site: impl FnOnce() -> String,
        expected: i128,
        actual: i128,
    ) {
        if !enabled() {
            return;
        }
        if expected != actual {
            self.report(
                invariant,
                cycle,
                site(),
                expected.to_string(),
                actual.to_string(),
            );
        }
    }

    /// Upper-bound check: `actual <= ceiling`. NaN is a violation (the
    /// comparison is written so an unordered result fails).
    #[inline]
    pub fn check_le_f64(
        &mut self,
        invariant: Invariant,
        cycle: u64,
        site: impl FnOnce() -> String,
        actual: f64,
        ceiling: f64,
    ) {
        if !enabled() {
            return;
        }
        let within = matches!(
            actual.partial_cmp(&ceiling),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        );
        if !within {
            self.report(
                invariant,
                cycle,
                site(),
                format!("<= {ceiling}"),
                format!("{actual}"),
            );
        }
    }

    /// Event-time monotonicity: `now_ps` must not precede `prev_ps`.
    #[inline]
    pub fn check_time_monotonic(&mut self, cycle: u64, prev_ps: u64, now_ps: u64) {
        if !enabled() {
            return;
        }
        if now_ps < prev_ps {
            self.report(
                Invariant::TimeMonotonicity,
                cycle,
                "event queue pop".to_string(),
                format!(">= {prev_ps} ps"),
                format!("{now_ps} ps"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        not(any(feature = "oracle", debug_assertions)),
        ignore = "needs the oracle compiled in"
    )]
    fn enabled_in_test_builds() {
        // `cargo test` builds carry debug_assertions and the
        // `--features oracle` leg carries the feature; a plain release
        // test build has neither, and there the tests that need the
        // oracle compiled in are ignored.
        assert!(enabled());
    }

    #[test]
    fn passing_checks_record_nothing() {
        let mut o = Oracle::new("sim::oracle::tests", 7);
        o.check_eq_i128(Invariant::CoinConservation, 10, || unreachable!(), 5, 5);
        o.check_le_f64(Invariant::BudgetCeiling, 10, || unreachable!(), 1.0, 2.0);
        o.check_time_monotonic(10, 100, 100);
        assert_eq!(o.count(), 0);
        assert!(o.first().is_none());
        assert!(o.first_replay_line().is_none());
    }

    #[test]
    #[cfg_attr(
        not(any(feature = "oracle", debug_assertions)),
        ignore = "needs the oracle compiled in"
    )]
    fn failing_checks_record_with_context() {
        let before = violations_total();
        let mut o = Oracle::new("sim::oracle::tests", 0xBEEF);
        o.check_eq_i128(
            Invariant::CoinConservation,
            42,
            || "tiles 1<->2 pairwise commit".to_string(),
            63,
            64,
        );
        assert_eq!(o.count(), 1);
        assert_eq!(violations_total() - before, 1);
        let v = o.first().expect("one violation kept");
        assert_eq!(v.invariant, Invariant::CoinConservation);
        assert_eq!(v.cycle, 42);
        assert_eq!(v.expected, "63");
        assert_eq!(v.actual, "64");
        assert_eq!(v.seed, 0xBEEF);
        let line = v.replay_line();
        assert!(line.contains("invariant `coin-conservation` violated at cycle 42"));
        assert!(line.contains("seed 0xbeef"));
        assert!(line.contains("replay with sim::oracle::tests at seed 0xbeef"));
    }

    #[test]
    #[cfg_attr(
        not(any(feature = "oracle", debug_assertions)),
        ignore = "needs the oracle compiled in"
    )]
    fn tie_break_is_stamped_into_replay_lines() {
        let mut o =
            Oracle::new("sim::oracle::tests", 0xABC).with_tie_break(TieBreak::Permuted(0x55));
        assert_eq!(o.tie_break(), TieBreak::Permuted(0x55));
        o.check_eq_i128(
            Invariant::CoinConservation,
            9,
            || "commit".to_string(),
            1,
            2,
        );
        let line = o.first_replay_line().expect("one violation");
        assert!(line.contains("--tie-break permuted:0x55"));
        // default FIFO lines stay exactly as before — no suffix
        let mut base = Oracle::new("sim::oracle::tests", 0xABC);
        base.check_eq_i128(
            Invariant::CoinConservation,
            9,
            || "commit".to_string(),
            1,
            2,
        );
        assert!(!base.first_replay_line().unwrap().contains("--tie-break"));
    }

    #[test]
    #[cfg_attr(
        not(any(feature = "oracle", debug_assertions)),
        ignore = "needs the oracle compiled in"
    )]
    fn nan_fails_the_ceiling_check() {
        let mut o = Oracle::new("sim::oracle::tests", 1);
        o.check_le_f64(
            Invariant::BudgetCeiling,
            0,
            || "soc power".to_string(),
            f64::NAN,
            1e9,
        );
        assert_eq!(o.count(), 1);
    }

    #[test]
    #[cfg_attr(
        not(any(feature = "oracle", debug_assertions)),
        ignore = "needs the oracle compiled in"
    )]
    fn time_regression_is_caught() {
        let mut o = Oracle::new("sim::oracle::tests", 1);
        o.check_time_monotonic(5, 1000, 999);
        assert_eq!(o.count(), 1);
        assert_eq!(o.first().unwrap().invariant, Invariant::TimeMonotonicity);
    }

    #[test]
    #[cfg_attr(
        not(any(feature = "oracle", debug_assertions)),
        ignore = "needs the oracle compiled in"
    )]
    fn kept_violations_are_capped_but_count_is_not() {
        let mut o = Oracle::new("sim::oracle::tests", 1);
        for c in 0..(MAX_KEPT as u64 + 10) {
            o.check_eq_i128(Invariant::FlitConservation, c, || format!("link {c}"), 0, 1);
        }
        assert_eq!(o.count(), MAX_KEPT as u64 + 10);
        assert_eq!(o.violations().len(), MAX_KEPT);
        assert_eq!(o.first().unwrap().cycle, 0);
    }
}
