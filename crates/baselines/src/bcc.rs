//! BlitzCoin-Centralized (BC-C): the paper's own ablation baseline.
//!
//! BC-C "directly implements a power-allocation scheme similar to
//! BlitzCoin, but with a centralized DVFS controller... the frequency of
//! each tile is set in proportion to the ratio of the tile's target power
//! to the whole SoC's power" (Section V-C). It separates the benefit of
//! the proportional allocation policy from the benefit of the
//! decentralized hardware: allocations are identical to converged
//! BlitzCoin, but every activity change requires the central unit to be
//! notified and to sequentially push updated settings to all tiles —
//! O(N) response (Equation 5.2).

/// The BC-C central allocation engine.
///
/// # Example
///
/// ```
/// use blitzcoin_baselines::BccController;
///
/// let bcc = BccController::new(640);
/// // three active tiles with targets 8, 16, 8: pool split 160/320/160
/// let alloc = bcc.allocate(&[8, 16, 8]);
/// assert_eq!(alloc, vec![160, 320, 160]);
/// assert_eq!(alloc.iter().sum::<i64>(), 640);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BccController {
    pool: u64,
}

impl BccController {
    /// Creates a controller distributing a fixed coin pool (the power
    /// budget, in coins).
    pub fn new(pool: u64) -> Self {
        BccController { pool }
    }

    /// The managed coin pool.
    pub fn pool(&self) -> u64 {
        self.pool
    }

    /// Computes the converged BlitzCoin allocation centrally: every active
    /// tile receives `round(pool · max_i / Σmax)` coins with the rounding
    /// remainder assigned to the largest fractional shares (exactly the
    /// 4-way redistribution arithmetic, applied globally). Inactive tiles
    /// (`max = 0`) receive 0.
    ///
    /// Only the first `remainder` active tiles in (fraction descending,
    /// index ascending) order gain a coin, so they are selected rather
    /// than the whole list sorted. A remainder that is negative or at
    /// least the active count (floating-point shares can round that
    /// far) gives every active tile one coin.
    pub fn allocate(&self, max: &[u64]) -> Vec<i64> {
        let weight_sum: u64 = max.iter().sum();
        if weight_sum == 0 {
            return vec![0; max.len()];
        }
        let total = self.pool as i64;
        let mut alloc: Vec<i64> = Vec::with_capacity(max.len());
        let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(max.len());
        for (k, &m) in max.iter().enumerate() {
            let share = total as f64 * m as f64 / weight_sum as f64;
            let base = share.floor() as i64;
            alloc.push(base);
            if m > 0 {
                fracs.push((k, share - base as f64));
            }
        }
        let remainder = total - alloc.iter().sum::<i64>();
        let largest_first =
            |a: &(usize, f64), b: &(usize, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        let winners = match usize::try_from(remainder) {
            Ok(0) => 0,
            Ok(r) if r < fracs.len() => {
                fracs.select_nth_unstable_by(r - 1, largest_first);
                r
            }
            _ => fracs.len(),
        };
        for &(k, _) in &fracs[..winners] {
            alloc[k] += 1;
        }
        alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_split_conserves_pool() {
        let bcc = BccController::new(100);
        for max in [vec![1u64, 2, 3], vec![7, 7, 7, 7], vec![0, 5, 0, 10]] {
            let alloc = bcc.allocate(&max);
            assert_eq!(alloc.iter().sum::<i64>(), 100, "max={max:?}");
        }
    }

    #[test]
    fn inactive_tiles_get_zero() {
        let bcc = BccController::new(64);
        let alloc = bcc.allocate(&[0, 32, 0, 32]);
        assert_eq!(alloc[0], 0);
        assert_eq!(alloc[2], 0);
        assert_eq!(alloc[1], 32);
        assert_eq!(alloc[3], 32);
    }

    #[test]
    fn all_inactive_allocates_nothing() {
        let bcc = BccController::new(64);
        assert_eq!(bcc.allocate(&[0, 0]), vec![0, 0]);
    }

    #[test]
    fn allocation_matches_converged_blitzcoin_targets() {
        // BC-C's whole point: same equilibrium as decentralized BlitzCoin.
        let bcc = BccController::new(320);
        let max = [8u64, 16, 8, 32];
        let alloc = bcc.allocate(&max);
        let alpha = 320.0 / 64.0;
        for (a, &m) in alloc.iter().zip(&max) {
            assert!(
                (*a as f64 - alpha * m as f64).abs() <= 1.0,
                "allocation {a} vs target {}",
                alpha * m as f64
            );
        }
    }

    #[test]
    fn remainder_goes_to_largest_fractions_deterministically() {
        let bcc = BccController::new(10);
        let a = bcc.allocate(&[3, 3, 3]);
        assert_eq!(a.iter().sum::<i64>(), 10);
        assert_eq!(a, vec![4, 3, 3]); // tie -> lowest index
    }

    /// The full-sort `allocate` the selection replaced, kept as the
    /// reference it must match exactly.
    fn allocate_by_sort(pool: u64, max: &[u64]) -> Vec<i64> {
        let weight_sum: u64 = max.iter().sum();
        if weight_sum == 0 {
            return vec![0; max.len()];
        }
        let total = pool as i64;
        let mut alloc: Vec<i64> = Vec::with_capacity(max.len());
        let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(max.len());
        for (k, &m) in max.iter().enumerate() {
            let share = total as f64 * m as f64 / weight_sum as f64;
            let base = share.floor() as i64;
            alloc.push(base);
            fracs.push((k, share - base as f64));
        }
        let mut remainder = total - alloc.iter().sum::<i64>();
        fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        for &(k, _) in &fracs {
            if remainder == 0 {
                break;
            }
            if max[k] > 0 {
                alloc[k] += 1;
                remainder -= 1;
            }
        }
        alloc
    }

    #[test]
    fn allocation_matches_the_sorted_reference() {
        use blitzcoin_sim::check::forall_seeded;
        use blitzcoin_sim::ensure;
        forall_seeded("bcc_allocate_reference", 0xBCC, 0..400, |rng| {
            let n = rng.range_usize(1..24);
            let shape = rng.range_u64(0..4);
            let max: Vec<u64> = (0..n)
                .map(|_| match shape {
                    0 => 0,                                          // all idle
                    1 => 16,                                         // all equal
                    2 => rng.range_u64(0..3) * rng.range_u64(0..64), // mostly idle
                    _ => {
                        let bits = rng.range_u64(1..40);
                        rng.range_u64(0..1 << bits) // wide weights
                    }
                })
                .collect();
            // pools past 2^53 round in `as f64`, which drives the
            // remainder to the active count or below zero
            let pool = if rng.chance(0.2) {
                (1u64 << 53) + rng.range_u64(0..1 << 12)
            } else {
                rng.range_u64(0..5000)
            };
            let fast = BccController::new(pool).allocate(&max);
            let reference = allocate_by_sort(pool, &max);
            ensure!(fast == reference, "pool {pool}, max {max:?}");
            Ok(())
        });
    }

    #[test]
    fn out_of_range_remainders_match_the_reference() {
        // one active tile: 2^53 + 1 rounds down to 2^53 as f64 (remainder
        // 1, the whole active count), 2^53 + 3 rounds up (remainder -1)
        for pool in [(1u64 << 53) + 1, (1u64 << 53) + 3] {
            let max = [0, 5, 0];
            assert_eq!(
                BccController::new(pool).allocate(&max),
                allocate_by_sort(pool, &max)
            );
        }
    }
}
