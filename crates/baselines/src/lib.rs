//! # blitzcoin-baselines
//!
//! Every power-management comparator the BlitzCoin paper evaluates
//! against, implemented from the papers that introduced them:
//!
//! - [`tokensmart`]: **TokenSmart (TS)** [Shah et al., TACO 2022] — a
//!   decentralized but *sequential* token scheme: the pool of available
//!   power tokens circulates around a ring of tiles; each tile greedily
//!   takes what it needs, and a starvation watchdog switches the global
//!   policy to a fair (equal-share) mode. Convergence scales O(N)
//!   (Figs 4, 21).
//! - [`crr`]: **Centralized Round-Robin (C-RR)** [after Mantovani et al.,
//!   DAC 2016] — a central controller rotates which tiles may run at
//!   maximum (V, F) under the global cap; everyone else sits at minimum.
//!   Discrete power levels, O(N) response (Figs 16-18, 20-21).
//! - [`bcc`]: **BlitzCoin-Centralized (BC-C)** — the paper's own ablation:
//!   BlitzCoin's proportional allocation computed by a central unit that
//!   must poll/update tiles sequentially. Separates the benefit of the
//!   allocation policy from the benefit of decentralization.
//! - [`pt`]: **Price Theory (PT)** [Muthukaruppan et al., ASPLOS 2014] —
//!   hierarchical market-based allocation: an iterative price adjustment
//!   (tâtonnement) balances cluster demand against the power supply.
//!
//! The fifth comparator, **Static** (the silicon baseline of Fig 19), has
//! no protocol to model: the SoC engine's static policy sets
//! P_max-proportional shares once at boot.
//!
//! # Example
//!
//! ```
//! use blitzcoin_baselines::tokensmart::{TokenSmart, TsConfig};
//! use blitzcoin_sim::SimRng;
//!
//! // 100 tiles in a ring, each wanting 32 tokens, half the tokens available.
//! let mut ts = TokenSmart::new(vec![32; 100], 1600, TsConfig::default());
//! let result = ts.run(&mut SimRng::seed(1));
//! assert!(result.converged);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bcc;
pub mod crr;
pub mod pt;
pub mod tokensmart;

pub use bcc::BccController;
pub use crr::{CrrController, CrrLevel};
pub use pt::{PtMarket, PtStep};
pub use tokensmart::{TokenSmart, TsConfig, TsResult};
