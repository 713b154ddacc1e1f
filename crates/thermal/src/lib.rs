//! # blitzcoin-thermal
//!
//! A compact RC thermal model for the BlitzCoin reproduction.
//!
//! The paper handles thermal limits at two granularities (Sections
//! III-A/III-B): *global* caps are enforced by sizing the coin pool, and
//! *local hotspots* are handled by rejecting coin transfers that would
//! push a tile-plus-neighbors allocation above a threshold. This crate
//! supplies the physics those policies act against:
//!
//! - [`model::ThermalModel`]: a per-tile lumped RC network — each tile has
//!   a thermal capacitance and a vertical conductance to ambient (through
//!   the heat spreader) plus lateral conductances to its mesh neighbors —
//!   integrated explicitly over the power traces a simulation produced.
//! - [`model::ThermalReport`]: temperature traces, peak/steady
//!   temperatures, and hotspot detection against a junction limit.
//! - [`calibrate`]: translating a junction temperature limit into the
//!   neighborhood coin cap the BlitzCoin FSM enforces
//!   (`blitzcoin_core::HotspotCap`).
//! - [`component::ThermalComponent`]: the same network as a live
//!   component for in-loop electro-thermal co-simulation — the SoC
//!   engine ticks it every `step_us` so temperature feeds back into the
//!   run (leakage, throttling) while it happens.
//!
//! # Example
//!
//! ```
//! use blitzcoin_noc::Topology;
//! use blitzcoin_sim::{SimTime, StepTrace};
//! use blitzcoin_thermal::{ThermalConfig, ThermalModel};
//!
//! let topo = Topology::mesh(3, 3);
//! let powers: Vec<StepTrace> = (0..9).map(|i| {
//!     let mut t = StepTrace::new(format!("p{i}"));
//!     t.record(SimTime::ZERO, if i == 4 { 150.0 } else { 5.0 });
//!     t
//! }).collect();
//! let model = ThermalModel::new(topo, ThermalConfig::default());
//! let refs: Vec<&StepTrace> = powers.iter().collect();
//! let report = model.simulate(&refs, SimTime::from_ms(20));
//! // the hot center tile is the hottest, its neighbors warmer than corners
//! assert!(report.peak_celsius(4) > report.peak_celsius(1));
//! assert!(report.peak_celsius(1) > report.peak_celsius(0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibrate;
pub mod component;
pub mod model;

pub use calibrate::coin_cap_for_limit;
pub use component::ThermalComponent;
pub use model::{ThermalConfig, ThermalModel, ThermalReport};
