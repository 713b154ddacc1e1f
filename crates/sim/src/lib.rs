//! # blitzcoin-sim
//!
//! Discrete-event simulation kernel and statistics substrate for the
//! BlitzCoin reproduction.
//!
//! The BlitzCoin paper evaluates its decentralized power-management
//! algorithm at two fidelities: a behavioural Monte-Carlo emulator
//! (Section III) and cycle-accurate full-SoC RTL simulation (Sections V-VI).
//! Both fidelities in this reproduction are built on the primitives in this
//! crate:
//!
//! - [`SimTime`]: integer picosecond simulation time (the fabricated SoC's
//!   NoC runs at 800 MHz, i.e. 1250 ps per NoC cycle), with exact integer
//!   arithmetic so runs are bit-reproducible.
//! - [`EventQueue`]: a deterministic priority queue of timestamped events
//!   with FIFO tie-breaking at equal timestamps by default, plus seeded
//!   [`TieBreak`] policies that deterministically shuffle same-timestamp
//!   batches for interleaving fuzzing.
//! - [`rng`]: seeded, portable random-number generation for Monte-Carlo
//!   sweeps (ChaCha-based so results do not depend on platform or `rand`
//!   version internals).
//! - [`exec`]: the deterministic parallel sweep executor ([`Executor`],
//!   [`Sweep`]) — independent trials fan out across threads with
//!   index-derived seeds and index-ordered collection, so results are
//!   bitwise identical at every job count.
//! - [`stats`]: histograms and percentile summaries used by the
//!   Monte-Carlo figures of the evaluation.
//! - [`trace`]: time-weighted signal traces (power traces, coin traces,
//!   frequency traces) with resampling, used by Figs 16, 19 and 20.
//! - [`csv`]: tiny CSV emission helpers for the experiment harness.
//! - [`json`]: a dependency-free JSON value type, parser/printer, and
//!   [`json::ToJson`]/[`json::FromJson`] traits for configs and manifests.
//! - [`fault`]: the fail-stop fault plan ([`FaultPlan`]) and the
//!   coin-conservation auditor ([`CoinAudit`]) read by the SoC engine and
//!   the behavioural TokenSmart ring.
//! - [`check`]: a seeded property-testing harness for randomized
//!   invariant tests.
//! - [`interleave`]: the interleaving-fuzzing harness — one simulation
//!   config re-run under N derived tie-break orderings, with
//!   order-independent facts compared against the FIFO baseline and
//!   divergences bisected to the first differing pop.
//! - [`oracle`]: continuous runtime invariant auditing ([`Oracle`]) —
//!   coin conservation, budget ceiling, VF legality, time monotonicity
//!   and flit conservation checked at every natural checkpoint, compiled
//!   in for debug/test builds and behind the `oracle` feature for
//!   release.
//! - [`error`]: typed validation errors ([`ConfigError`]) returned by the
//!   fallible configuration constructors across the workspace.
//!
//! # Example
//!
//! ```
//! use blitzcoin_sim::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_noc_cycles(4), "later");
//! q.schedule(SimTime::from_noc_cycles(1), "first");
//! q.schedule(SimTime::from_noc_cycles(1), "second"); // FIFO at equal time
//! let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
//! assert_eq!(order, ["first", "second", "later"]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod check;
pub mod csv;
pub mod error;
pub mod event;
pub mod exec;
pub mod fault;
pub mod interleave;
pub mod json;
pub mod oracle;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use cache::{Cache, CacheKey, CacheMode, CacheStats};
pub use error::ConfigError;
pub use event::{EventQueue, ScheduledEvent, TieBreak};
pub use exec::{Executor, Sweep};
pub use fault::{AuditReport, CoinAudit, FaultPlan, TileFault};
pub use oracle::{Invariant, Oracle, Violation};
pub use rng::SimRng;
pub use stats::{Histogram, Summary};
pub use time::SimTime;
pub use trace::{StepTrace, TracePoint};
