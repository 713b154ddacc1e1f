//! Centralized Round-Robin (C-RR) controller.
//!
//! A simplified version of the centralized controller of Mantovani et al.
//! (DAC 2016), as described in Section V-C: the controller monitors tile
//! status and "uses a round-robin scheme to decide which tiles are allowed
//! to run at maximum (V, F) based on a global power cap. Tiles are
//! allocated to run alternately at maximum or minimum (V, F), and this
//! allocation is rotated periodically to guarantee fairness."
//!
//! The controller is *centralized*: it services tiles one at a time, so
//! both its response time to an activity change and each rotation step
//! scale O(N) (Equations 5.1, Fig 20).

/// The two discrete operating points C-RR assigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrrLevel {
    /// Maximum (V, F).
    Max,
    /// Minimum (V, F).
    Min,
    /// Tile is inactive (idle clock floor).
    Off,
}

/// The C-RR allocation engine.
///
/// # Example
///
/// ```
/// use blitzcoin_baselines::{CrrController, CrrLevel};
///
/// // 4 active tiles at 100 mW max / 20 mW min each, 240 mW budget:
/// // 2 tiles fit at Max alongside 2 at Min (2*100 + 2*20 = 240).
/// let crr = CrrController::new(vec![100.0; 4], vec![20.0; 4], 240.0);
/// let grant = crr.allocation(&[true; 4], 0);
/// let at_max = grant.iter().filter(|&&l| l == CrrLevel::Max).count();
/// assert_eq!(at_max, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CrrController {
    p_max: Vec<f64>,
    p_min: Vec<f64>,
    budget_mw: f64,
}

impl CrrController {
    /// Creates a controller for tiles with the given max/min powers under
    /// a global budget.
    ///
    /// # Panics
    /// Panics if the vectors disagree in length or the budget is negative.
    pub fn new(p_max: Vec<f64>, p_min: Vec<f64>, budget_mw: f64) -> Self {
        assert_eq!(
            p_max.len(),
            p_min.len(),
            "per-tile power vectors must align"
        );
        assert!(budget_mw >= 0.0, "budget must be non-negative");
        assert!(
            p_max
                .iter()
                .zip(&p_min)
                .all(|(mx, mn)| mx >= mn && *mn >= 0.0),
            "max power must dominate min power"
        );
        CrrController {
            p_max,
            p_min,
            budget_mw,
        }
    }

    /// Number of tiles managed.
    pub fn len(&self) -> usize {
        self.p_max.len()
    }

    /// Whether the controller manages no tiles.
    pub fn is_empty(&self) -> bool {
        self.p_max.is_empty()
    }

    /// The global budget (mW).
    pub fn budget_mw(&self) -> f64 {
        self.budget_mw
    }

    /// The level assignment at rotation step `step`: starting from the
    /// rotation offset, active tiles are granted `Max` greedily while the
    /// cap (with every other active tile at `Min`) still holds.
    pub fn allocation(&self, active: &[bool], step: usize) -> Vec<CrrLevel> {
        assert_eq!(active.len(), self.len(), "activity vector must align");
        let mut levels = vec![CrrLevel::Off; self.len()];
        let actives: Vec<usize> = (0..self.len()).filter(|&i| active[i]).collect();
        if actives.is_empty() {
            return levels;
        }
        for &i in &actives {
            levels[i] = CrrLevel::Min;
        }
        // power with all active tiles at Min
        let mut power: f64 = actives.iter().map(|&i| self.p_min[i]).sum();
        // rotate the grant origin for fairness
        let offset = step % actives.len();
        for k in 0..actives.len() {
            let i = actives[(offset + k) % actives.len()];
            let upgrade = self.p_max[i] - self.p_min[i];
            if power + upgrade <= self.budget_mw + 1e-9 {
                levels[i] = CrrLevel::Max;
                power += upgrade;
            }
        }
        levels
    }

    /// The power drawn by a given assignment.
    pub fn power_of(&self, levels: &[CrrLevel]) -> f64 {
        levels
            .iter()
            .enumerate()
            .map(|(i, l)| match l {
                CrrLevel::Max => self.p_max[i],
                CrrLevel::Min => self.p_min[i],
                CrrLevel::Off => 0.0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crr4() -> CrrController {
        CrrController::new(vec![100.0; 4], vec![20.0; 4], 240.0)
    }

    #[test]
    fn respects_cap() {
        let crr = crr4();
        for step in 0..8 {
            let levels = crr.allocation(&[true; 4], step);
            assert!(crr.power_of(&levels) <= 240.0 + 1e-9, "step {step}");
        }
    }

    #[test]
    fn rotation_is_fair() {
        let crr = crr4();
        let mut max_counts = [0u32; 4];
        for step in 0..4 {
            let levels = crr.allocation(&[true; 4], step);
            for (i, l) in levels.iter().enumerate() {
                if *l == CrrLevel::Max {
                    max_counts[i] += 1;
                }
            }
        }
        // with 2 grants per step and 4 steps, every tile is granted twice
        assert_eq!(max_counts, [2, 2, 2, 2]);
    }

    #[test]
    fn inactive_tiles_are_off_and_free_headroom() {
        let crr = crr4();
        let levels = crr.allocation(&[true, false, true, false], 0);
        assert_eq!(levels[1], CrrLevel::Off);
        assert_eq!(levels[3], CrrLevel::Off);
        // 240 budget, both active upgradeable: 2*100 = 200 <= 240
        assert_eq!(levels[0], CrrLevel::Max);
        assert_eq!(levels[2], CrrLevel::Max);
    }

    #[test]
    fn heterogeneous_grant_respects_cap() {
        let crr = CrrController::new(vec![190.0, 50.0, 50.0], vec![25.0, 7.0, 7.0], 120.0);
        for step in 0..6 {
            let levels = crr.allocation(&[true; 3], step);
            assert!(crr.power_of(&levels) <= 120.0 + 1e-9);
        }
        // when the rotation favors the NVDLA-like tile, nothing else fits
        let l0 = crr.allocation(&[true; 3], 0);
        assert!(crr.power_of(&l0) > 0.0);
    }

    #[test]
    fn tiny_budget_keeps_everyone_at_min() {
        let crr = CrrController::new(vec![100.0; 3], vec![20.0; 3], 61.0);
        let levels = crr.allocation(&[true; 3], 0);
        assert!(levels.iter().all(|&l| l == CrrLevel::Min));
    }

    #[test]
    fn no_active_tiles() {
        let crr = crr4();
        let levels = crr.allocation(&[false; 4], 3);
        assert!(levels.iter().all(|&l| l == CrrLevel::Off));
        assert_eq!(crr.power_of(&levels), 0.0);
    }
}
