//! Dynamic timing: exponential back-off of the refresh interval.
//!
//! Section III-D: "we dynamically scale the update time between requests
//! by using an exponential back-off algorithm; when a status update
//! results in zero coin exchanges, the time to the next status update is
//! scaled up by a factor λ, else it is decreased by a constant k. This
//! provides faster convergence during sudden activity changes without
//! causing unnecessary NoC traffic in the steady state."

/// Dynamic-timing parameters and the per-tile interval update rule.
///
/// # Example
///
/// ```
/// use blitzcoin_core::DynamicTiming;
///
/// let dt = DynamicTiming::default();
/// let mut interval = dt.base_cycles;
/// interval = dt.next_interval(interval, 0);  // idle exchange: back off
/// assert!(interval > dt.base_cycles);
/// interval = dt.next_interval(interval, 3);  // coins moved: speed up
/// interval = dt.next_interval(interval, 3);  // ...below the conventional
/// assert!(interval < dt.base_cycles);        //    refresh interval
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicTiming {
    /// Conventional refresh interval tiles start from, in NoC cycles.
    pub base_cycles: u64,
    /// Floor of the interval under sustained activity, in NoC cycles.
    /// Being well below `base_cycles` is what makes convergence *faster*
    /// than the conventional fixed-interval scheme (Fig 6).
    pub min_cycles: u64,
    /// Back-off multiplier λ applied when an exchange moved zero coins.
    pub lambda: f64,
    /// Linear decrease k (cycles) applied when an exchange moved coins.
    pub k_cycles: u64,
    /// Upper bound on the interval, in NoC cycles.
    pub max_cycles: u64,
    /// Movement deadband, in coins: exchanges moving at most this many
    /// coins count as *idle* for the back-off decision. One coin of slack
    /// keeps quantization slosh around the converged point from pinning
    /// tiles at the fast refresh rate forever.
    pub deadband_coins: u64,
}

impl Default for DynamicTiming {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl DynamicTiming {
    /// The DESIGN.md §5 defaults: base 64, floor 8, λ=2.0, k=256, cap 1024.
    pub const DEFAULT: DynamicTiming = DynamicTiming {
        base_cycles: 64,
        min_cycles: 8,
        lambda: 2.0,
        k_cycles: 256,
        max_cycles: 1024,
        deadband_coins: 1,
    };

    /// Whether an exchange that moved `coins_moved` coins counts as
    /// activity (above the deadband).
    pub fn is_significant(&self, coins_moved: i64) -> bool {
        coins_moved.unsigned_abs() > self.deadband_coins
    }

    /// Computes the next refresh interval from the current one, given how
    /// many coins the last exchange moved. Callers that honour the
    /// deadband should pass 0 for insignificant movement (see
    /// [`DynamicTiming::is_significant`]).
    ///
    /// # Panics
    /// Debug-panics if the configuration is inconsistent
    /// (`lambda < 1`, `max < base`).
    pub fn next_interval(&self, current: u64, coins_moved: i64) -> u64 {
        debug_assert!(self.lambda >= 1.0, "lambda must be >= 1");
        debug_assert!(self.max_cycles >= self.base_cycles, "max must be >= base");
        debug_assert!(self.base_cycles >= self.min_cycles, "base must be >= min");
        if coins_moved == 0 {
            // Round to nearest: the truncating `as u64` cast undershot
            // the product by up to a cycle (e.g. 3 * 1.1 -> 3, no
            // back-off progress at all for small intervals), and from
            // `current == 0` it stayed pinned at 0 when `min_cycles` was
            // 0. The explicit floor of 1 keeps the interval a valid
            // schedule delay for any configuration.
            ((current as f64 * self.lambda).round() as u64)
                .max(self.min_cycles.max(1))
                .min(self.max_cycles.max(1))
        } else {
            current
                .saturating_sub(self.k_cycles)
                .max(self.min_cycles.max(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backs_off_multiplicatively_when_idle() {
        let dt = DynamicTiming::default();
        let mut i = dt.base_cycles;
        let seq: Vec<u64> = (0..5)
            .map(|_| {
                i = dt.next_interval(i, 0);
                i
            })
            .collect();
        assert_eq!(seq, [128, 256, 512, 1024, 1024]); // capped at max
    }

    #[test]
    fn speeds_up_linearly_when_active() {
        let dt = DynamicTiming::default();
        let mut i = 1024;
        i = dt.next_interval(i, 5);
        assert_eq!(i, 768);
        // repeated activity walks down to the floor and stops there
        for _ in 0..200 {
            i = dt.next_interval(i, 1);
        }
        assert_eq!(i, dt.min_cycles);
    }

    #[test]
    fn negative_movement_counts_as_activity() {
        let dt = DynamicTiming::default();
        assert_eq!(dt.next_interval(128, -4), dt.min_cycles);
    }

    #[test]
    fn never_exceeds_bounds() {
        let dt = DynamicTiming {
            base_cycles: 32,
            min_cycles: 4,
            lambda: 3.0,
            k_cycles: 100,
            max_cycles: 200,
            deadband_coins: 1,
        };
        let mut i = dt.base_cycles;
        for moved in [0, 0, 0, 0, 1, 0, 1, 1, 1, 0] {
            i = dt.next_interval(i, moved);
            assert!((dt.min_cycles..=dt.max_cycles).contains(&i), "{i}");
        }
    }

    #[test]
    fn deadband_classification() {
        let dt = DynamicTiming::default();
        assert!(!dt.is_significant(0));
        assert!(!dt.is_significant(1));
        assert!(!dt.is_significant(-1));
        assert!(dt.is_significant(2));
        assert!(dt.is_significant(-2));
    }

    #[test]
    fn idle_backoff_rounds_instead_of_truncating() {
        // Regression: `(current * lambda) as u64` truncated toward zero,
        // so 7 * 1.1 = 7.7000000000000002 backed off to 7 — no progress —
        // while round-to-nearest correctly lands on 8. Truncation also
        // turned exact products computed a hair low (e.g. 6.9999999...)
        // into an off-by-one undershoot.
        let dt = DynamicTiming {
            base_cycles: 7,
            min_cycles: 1,
            lambda: 1.1,
            k_cycles: 1,
            max_cycles: 1024,
            deadband_coins: 0,
        };
        assert_eq!(
            dt.next_interval(7, 0),
            8,
            "7 * 1.1 must round up to 8, not truncate to 7"
        );
    }

    #[test]
    fn interval_zero_cannot_pin_the_schedule() {
        // Regression: from current == 0 with min_cycles == 0 the idle
        // branch returned 0 * lambda = 0 and the active branch
        // saturating_sub'd to 0 — a zero schedule delay forever. The
        // explicit floor of 1 keeps both branches alive.
        let dt = DynamicTiming {
            base_cycles: 1,
            min_cycles: 0,
            lambda: 2.0,
            k_cycles: 4,
            max_cycles: 16,
            deadband_coins: 0,
        };
        assert!(dt.next_interval(0, 0) >= 1);
        assert!(dt.next_interval(0, 3) >= 1);
    }

    #[test]
    fn idle_backoff_is_monotone_property() {
        // For any valid config (lambda >= 1) and in-range interval, one
        // idle step never *decreases* the interval below its cap, never
        // leaves [max(1, min), max(1, max)], and is monotone in `current`.
        blitzcoin_sim::check::forall("dynamic timing idle back-off", 500, |rng| {
            let min_cycles = rng.range_u64(0..64);
            let max_cycles = min_cycles + rng.range_u64(1..2048);
            let dt = DynamicTiming {
                base_cycles: min_cycles.max(1),
                min_cycles,
                lambda: 1.0 + rng.unit_f64() * 3.0,
                k_cycles: rng.range_u64(0..512),
                max_cycles,
                deadband_coins: 1,
            };
            let lo = dt.min_cycles.max(1);
            let hi = dt.max_cycles.max(1);
            let current = rng.range_u64(0..hi + 1);
            let next = dt.next_interval(current, 0);
            blitzcoin_sim::ensure!(
                (lo..=hi).contains(&next),
                "interval {next} escaped [{lo}, {hi}] (config {dt:?}, current {current})"
            );
            blitzcoin_sim::ensure!(
                next >= current.min(hi),
                "idle step shrank the interval: {current} -> {next} (config {dt:?})"
            );
            // Monotone in current: a longer interval never backs off to a
            // shorter one than a shorter interval does.
            let current2 = rng.range_u64(0..hi + 1);
            let next2 = dt.next_interval(current2, 0);
            blitzcoin_sim::ensure!(
                (current <= current2) == (next <= next2) || next == next2,
                "back-off not monotone: {current}->{next} vs {current2}->{next2} ({dt:?})"
            );
            Ok(())
        });
    }
}
