//! # blitzcoin-soc
//!
//! Full-SoC cycle-level simulation: the reproduction of the paper's
//! "RTL simulation" evaluations (Sections V-VI) and, per the DESIGN.md
//! substitution table, of its silicon measurements (Figs 19-20).
//!
//! An ESP-style SoC is a grid of tiles — CPU, accelerator, memory, I/O,
//! scratchpad — joined by a six-plane 2-D mesh NoC. Accelerator tiles run
//! workload tasks (DAGs of dependent work), and a pluggable power manager
//! governs each accelerator tile's DVFS operating point under a global
//! power budget:
//!
//! - **BC** — decentralized BlitzCoin coin exchange (the paper's design);
//! - **BC-C** — the same proportional allocation, centralized;
//! - **C-RR** — centralized round-robin max/min rotation;
//! - **TS** — TokenSmart's decentralized token ring (the Fig 4
//!   competitor, promoted from the behavioural baseline);
//! - **Static** — fixed equal shares (the Fig 19 silicon baseline).
//!
//! The simulation reports exactly what the paper measures: workload
//! execution time, power-management response time per activity change,
//! power traces against the budget, utilization, and coin traces.
//!
//! Module map:
//! - [`floorplan`]: tile kinds and the three evaluated SoCs (3x3 AV SoC,
//!   4x4 computer-vision SoC, 6x6 silicon prototype with its 10-tile PM
//!   cluster).
//! - [`workload`]: task DAGs (WL-Par / WL-Dep, Fig 14) for each SoC.
//! - [`manager`]: the power-manager configurations.
//! - [`engine`]: the scheme-agnostic discrete-event loop (events,
//!   actuation, accounting, faults).
//! - `managers` (internal): one `ManagerPolicy` implementation per
//!   scheme — all scheme-specific behavior lives there, not in the
//!   engine.
//! - [`report`]: run reports and derived metrics.
//!
//! # Example
//!
//! ```
//! use blitzcoin_soc::prelude::*;
//!
//! let soc = floorplan::soc_3x3();
//! let wl = workload::av_parallel(&soc, 1);
//! let cfg = SimConfig::new(ManagerKind::BlitzCoin, 120.0);
//! let report = Simulation::new(soc, wl, cfg).run(42);
//! assert!(report.finished);
//! assert!(report.exec_time_us() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cached;
pub mod engine;
pub mod floorplan;
pub mod manager;
pub(crate) mod managers;
pub mod report;
pub mod thermal;
pub mod workload;

pub use engine::{SimConfig, Simulation};
pub use floorplan::{SocConfig, TileKind};
pub use manager::ManagerKind;
pub use report::SimReport;
pub use workload::{Task, TaskId, Workload};

/// Convenient glob import for examples and the experiment harness.
pub mod prelude {
    pub use crate::engine::{SimConfig, Simulation};
    pub use crate::floorplan::{self, SocConfig, TileKind};
    pub use crate::manager::ManagerKind;
    pub use crate::report::SimReport;
    pub use crate::thermal;
    pub use crate::workload::{self, Task, TaskId, Workload};
    pub use blitzcoin_core::AllocationPolicy;
}
