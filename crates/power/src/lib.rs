//! # blitzcoin-power
//!
//! Per-tile power substrate for the BlitzCoin reproduction: accelerator
//! power models and the Unified Voltage and Frequency Regulation (UVFR)
//! actuator stack of Section IV-A.
//!
//! BlitzCoin expresses power budgets in *coins*; each tile converts its
//! coin count to a frequency target through a lookup table built from a
//! pre-characterization of the tile's power profile, then actuates that
//! target with a single unified control loop:
//!
//! ```text
//! coins ──LUT──► F_target ──┐
//!                           ▼
//!                    LDO controller (PID) ──► LDO code ──► V_tile
//!                           ▲                                 │
//!                           └──── TDC code ◄── TDC ◄── RO(V) ─┘
//! ```
//!
//! - [`curve::VfCurve`]: monotone voltage↔frequency characterization.
//! - [`model`]: analytic P(V, F) models for the six accelerator classes the
//!   paper evaluates (FFT, Viterbi, NVDLA on the 3x3 SoC; GEMM, Conv2D,
//!   Vision on the 4x4 SoC), calibrated per DESIGN.md §5 so aggregate
//!   budgets match the paper's (Fig 13 substitution).
//! - [`ldo::Ldo`]: digital low-drop-out regulator with a PID controller.
//! - [`oscillator::RingOscillator`]: free-running critical-path-replica
//!   oscillator — for any tile voltage it produces a frequency close to the
//!   tile's maximum at that voltage.
//! - [`tdc::Tdc`]: counter-based time-to-digital converter providing the
//!   loop's frequency feedback.
//! - [`uvfr::Uvfr`]: the assembled unified loop with settling dynamics.
//! - [`lut::CoinLut`]: 6-bit (64-level) coin-to-frequency lookup table.
//!
//! # Example
//!
//! ```
//! use blitzcoin_power::{AcceleratorClass, CoinLut, PowerModel};
//!
//! let nvdla = PowerModel::of(AcceleratorClass::Nvdla);
//! // Build the per-tile LUT used by the BlitzCoin FSM: 64 coins at
//! // 5 mW/coin spans the NVDLA's full power range.
//! let lut = CoinLut::build(&nvdla, 5.0, 64);
//! assert!(lut.f_target(64) >= lut.f_target(32));
//! let f = lut.f_target(32); // 160 mW worth of coins
//! assert!(f > 0.0 && f <= nvdla.f_max());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod curve;
pub mod ldo;
pub mod lut;
pub mod model;
pub mod oscillator;
pub mod proxy;
pub mod tdc;
pub mod uvfr;

pub use curve::VfCurve;
pub use ldo::{Ldo, PidGains};
pub use lut::CoinLut;
pub use model::{AcceleratorClass, PowerModel};
pub use oscillator::RingOscillator;
pub use proxy::{ActivityCounters, PowerProxy};
pub use tdc::Tdc;
pub use uvfr::{Uvfr, UvfrConfig};
