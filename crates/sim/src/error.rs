//! Typed validation errors for public configuration boundaries.
//!
//! Constructors like `Topology::try_mesh`, `SocConfig::try_new`, and
//! `SimConfig::try_new` return a [`ConfigError`] instead of panicking, so
//! callers embedding the simulator (CLIs, future services) can surface
//! bad inputs as errors. The original panicking constructors remain as
//! thin wrappers for internal call sites where a bad config is a
//! programming bug.
//!
//! This is the hand-rolled equivalent of a `thiserror` derive: the crate
//! tree builds fully offline, so the enum implements `Display` and
//! `std::error::Error` directly.

use std::fmt;

/// A validation failure in a user-supplied configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A quantity that must be a finite number > 0 (budget, scale) was not.
    NonPositive {
        /// The parameter name.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A float parameter was NaN or infinite.
    NotFinite {
        /// The parameter name.
        what: &'static str,
    },
    /// A mesh/torus dimension was zero.
    ZeroDimension {
        /// Requested width.
        width: usize,
        /// Requested height.
        height: usize,
    },
    /// A mesh/torus grid whose tile count (or a dense per-tile sizing
    /// derived from it) would overflow `usize`, so allocations sized from
    /// it would silently wrap.
    GridTooLarge {
        /// Requested width.
        width: usize,
        /// Requested height.
        height: usize,
    },
    /// A tile id referenced a tile outside the topology.
    TileOutOfRange {
        /// The offending tile id.
        tile: usize,
        /// Number of tiles in the topology.
        n_tiles: usize,
    },
    /// Any other structural problem, with a human-readable detail.
    Invalid {
        /// What was being validated.
        what: &'static str,
        /// Why it is invalid.
        detail: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonPositive { what, value } => {
                write!(f, "{what} must be positive, got {value}")
            }
            ConfigError::NotFinite { what } => {
                write!(f, "{what} must be a finite number")
            }
            ConfigError::ZeroDimension { width, height } => {
                write!(
                    f,
                    "topology dimensions must be non-zero, got {width}x{height}"
                )
            }
            ConfigError::GridTooLarge { width, height } => {
                write!(
                    f,
                    "topology {width}x{height} is too large: the tile count must fit \
                     usize with headroom for dense per-tile structure sizing"
                )
            }
            ConfigError::TileOutOfRange { tile, n_tiles } => {
                write!(f, "tile id {tile} out of range for {n_tiles}-tile topology")
            }
            ConfigError::Invalid { what, detail } => write!(f, "invalid {what}: {detail}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Checks that `value` is finite and strictly positive.
pub fn require_positive(what: &'static str, value: f64) -> Result<(), ConfigError> {
    if !value.is_finite() {
        return Err(ConfigError::NotFinite { what });
    }
    if value <= 0.0 {
        return Err(ConfigError::NonPositive { what, value });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ConfigError::NonPositive {
            what: "budget_mw",
            value: -3.0,
        };
        assert!(e.to_string().contains("budget_mw"));
        assert!(e.to_string().contains("-3"));
        let e = ConfigError::TileOutOfRange {
            tile: 9,
            n_tiles: 9,
        };
        assert!(e.to_string().contains("9-tile"));
    }

    #[test]
    fn positive_guard() {
        assert!(require_positive("x", 1.0).is_ok());
        assert!(require_positive("x", 0.0).is_err());
        assert!(require_positive("x", f64::NAN).is_err());
        assert!(require_positive("x", f64::INFINITY).is_err());
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&ConfigError::NotFinite { what: "x" });
    }
}
