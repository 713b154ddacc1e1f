//! The coin-exchange arithmetic (Fig 2).
//!
//! Two variants are evaluated in the paper:
//!
//! - **1-way** (Algorithm 2, the preferred embodiment): a tile exchanges
//!   with *one* neighbor at a time, rotating round-robin. Each exchange is
//!   a pairwise re-split of the two tiles' combined coins in proportion to
//!   their `max` targets — 2 messages (status + update), simple
//!   arithmetic, no synchronization barriers.
//! - **4-way** (Algorithm 1): a tile solicits all four neighbors and
//!   re-splits the 5-tile group's coins fairly — 12 messages
//!   (request/status/update x4), more information per exchange but more
//!   complex arithmetic and collision risk.
//!
//! Both conserve the group's total coins exactly (the SoC-level power cap)
//! and leave every active participant within rounding distance of the
//! group-fair `has/max` ratio.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;

use crate::tile::TileState;

/// Outcome of a pairwise (1-way) exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairwiseOutcome {
    /// The initiating tile's new coin count.
    pub new_i: i64,
    /// The partner tile's new coin count.
    pub new_j: i64,
    /// Coins that moved (`new_i - has_i`; negative when `i` gave coins).
    pub moved: i64,
}

/// Computes a 1-way exchange between tiles `i` and `j`.
///
/// The pair's combined coins are re-split in proportion to `max` so both
/// tiles end at the same `has/max` ratio within rounding; totals are
/// conserved exactly. Rules for inactive tiles (`max == 0`):
///
/// - both inactive: no movement (neither wants coins);
/// - one inactive: the inactive tile relinquishes *all* its coins (this is
///   how a finished tile's budget drains back to the SoC).
///
/// # Example
///
/// ```
/// use blitzcoin_core::{pairwise_exchange, TileState};
///
/// let i = TileState::new(6, 8);   // ratio 0.75
/// let j = TileState::new(1, 8);   // ratio 0.125
/// let out = pairwise_exchange(i, j);
/// assert_eq!(out.new_i + out.new_j, 7);      // conservation
/// assert_eq!(out.new_i, 4);                  // 3.5 rounds to 4
/// assert_eq!(out.moved, -2);                 // i gave 2 coins
/// ```
pub fn pairwise_exchange(i: TileState, j: TileState) -> PairwiseOutcome {
    pairwise_exchange_inner(i, j, None)
}

/// [`pairwise_exchange`] with a *stochastic* rounding tie-break: when the
/// fair split leaves a residual of exactly half a coin, the odd coin moves
/// with probability ½ (the hardware embodiment is a tap off the
/// random-pairing LFSR).
///
/// Why this matters: a deterministic tie-break either always moves the odd
/// coin (neighbor pairs with odd totals then slosh one coin back and forth
/// forever, defeating the dynamic-timing back-off) or never moves it (the
/// grid then freezes in "locked gradients" — 1-coin-per-hop tilts that
/// pairwise exchanges can no longer erode, inflating the residual error on
/// large SoCs). The unbiased random tie-break erodes locked gradients by
/// an unbiased random walk while adding no systematic drift.
pub fn pairwise_exchange_stochastic(
    i: TileState,
    j: TileState,
    rng: &mut blitzcoin_sim::SimRng,
) -> PairwiseOutcome {
    pairwise_exchange_inner(i, j, Some(rng))
}

fn pairwise_exchange_inner(
    i: TileState,
    j: TileState,
    tie_rng: Option<&mut blitzcoin_sim::SimRng>,
) -> PairwiseOutcome {
    let total = i.has + j.has;
    let weight_sum = i.max + j.max;
    let new_i = if weight_sum == 0 {
        i.has
    } else {
        let (q, residual) = fair_split(total, i.max, weight_sum);
        if residual == Ordering::Equal {
            // Half-coin residual: deterministic variant holds position
            // (no movement); stochastic variant flips a fair coin.
            let lo = q;
            let hi = lo + 1;
            let hold = if (lo - i.has).abs() <= (hi - i.has).abs() {
                lo
            } else {
                hi
            };
            match tie_rng {
                None => hold,
                Some(rng) => {
                    let shed = if hold == lo { hi } else { lo };
                    if rng.chance(0.5) {
                        hold
                    } else {
                        shed
                    }
                }
            }
        } else if residual == Ordering::Greater {
            q + 1
        } else {
            q
        }
    };
    let new_j = total - new_i;
    PairwiseOutcome {
        new_i,
        new_j,
        moved: new_i - i.has,
    }
}

/// The exact integer fair share: `total·max_i = q·ws + r` with
/// `0 <= r < ws`. Returns `q` and how `r` compares with `ws − r`, so the
/// half-coin case is precisely `Equal` — no epsilon window, for any coin
/// pool the hardware could hold, and no doubling of `r` that could
/// overflow. The split runs in `i64` whenever the product and the divisor
/// fit, which is every exchange the emulator and the engine make, and in
/// `i128` (which cannot overflow from two 64-bit operands) otherwise; the
/// two give the same answer wherever both apply.
fn fair_split(total: i64, max_i: u64, ws: u64) -> (i64, Ordering) {
    if let (Ok(m), Ok(w)) = (i64::try_from(max_i), i64::try_from(ws)) {
        if let Some(n) = total.checked_mul(m) {
            let (q, r) = (n.div_euclid(w), n.rem_euclid(w));
            return (q, r.cmp(&(w - r)));
        }
    }
    let (n, w) = (i128::from(total) * i128::from(max_i), i128::from(ws));
    let (q, r) = (n.div_euclid(w), n.rem_euclid(w));
    (q as i64, r.cmp(&(w - r)))
}

/// The most tiles a 4-way group holds: the center and four neighbors.
const MAX_GROUP: usize = 5;

/// The new coin counts of a 4-way group, index-aligned with the group
/// and held on the stack. It dereferences to the slice of counts.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct GroupAllocation {
    coins: [i64; MAX_GROUP],
    len: usize,
}

impl Deref for GroupAllocation {
    type Target = [i64];

    fn deref(&self) -> &[i64] {
        &self.coins[..self.len]
    }
}

impl fmt::Debug for GroupAllocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt(f)
    }
}

/// Computes the 4-way fair allocation for a group (center + up to four
/// neighbors): every active tile receives `round(total * max_k / Σmax)`
/// coins, with the rounding remainder assigned to the largest fractional
/// shares (deterministic: ties break toward lower index). Inactive tiles
/// receive 0 coins — except when the whole group is inactive, in which
/// case holdings are unchanged.
///
/// Returns the new coin counts, index-aligned with `group`.
///
/// # Panics
/// Panics if `group` holds more than five tiles.
///
/// # Example
///
/// ```
/// use blitzcoin_core::{four_way_allocation, TileState};
///
/// let group = [
///     TileState::new(3, 8),  // center, ratio 0.375
///     TileState::new(8, 8),
///     TileState::new(0, 4),
///     TileState::new(5, 4),
///     TileState::new(0, 8),
/// ];
/// let alloc = four_way_allocation(&group);
/// assert_eq!(alloc.iter().sum::<i64>(), 16);  // conservation
/// // fair ratio = 16/32 = 0.5 -> targets 4, 4, 2, 2, 4
/// assert_eq!(*alloc, [4, 4, 2, 2, 4]);
/// ```
pub fn four_way_allocation(group: &[TileState]) -> GroupAllocation {
    assert!(
        group.len() <= MAX_GROUP,
        "a 4-way group holds at most {MAX_GROUP} tiles, got {}",
        group.len()
    );
    let mut alloc = GroupAllocation {
        coins: [0; MAX_GROUP],
        len: group.len(),
    };
    let total: i64 = group.iter().map(|t| t.has).sum();
    let weight_sum: u64 = group.iter().map(|t| t.max).sum();
    if weight_sum == 0 {
        // Degenerate allocation: with zero total weight every share is
        // 0/0, so there is no fair split to compute — holdings are
        // unchanged. This early exit must come before the share loop, or
        // the fractional parts would all be NaN and the remainder sort
        // would have no meaningful order to offer.
        for (a, t) in alloc.coins.iter_mut().zip(group) {
            *a = t.has;
        }
        return alloc;
    }
    // Exact shares, floored; track fractional parts for the remainder.
    let mut fracs = [(0usize, 0.0f64); MAX_GROUP];
    for (k, t) in group.iter().enumerate() {
        let share = total as f64 * t.max as f64 / weight_sum as f64;
        let base = share.floor() as i64;
        alloc.coins[k] = base;
        fracs[k] = (k, share - base as f64);
    }
    let fracs = &mut fracs[..group.len()];
    let mut remainder = total - alloc.iter().sum::<i64>();
    debug_assert!(remainder >= 0 && remainder < group.len() as i64 + 1);
    // Largest fractional parts get the leftover coins; ties -> lower
    // index. `total_cmp` is a total order, so an unexpected NaN fraction
    // sorts deterministically (and last) instead of panicking the way
    // `partial_cmp().unwrap()` did. The index makes every key distinct,
    // so the unstable (allocation-free) sort gives the stable order.
    fracs.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for &(k, _) in fracs.iter() {
        if remainder == 0 {
            break;
        }
        // Only active tiles absorb remainder coins (an inactive tile's
        // share is exactly 0, frac 0, so it sorts last anyway).
        if group[k].max > 0 {
            alloc.coins[k] += 1;
            remainder -= 1;
        }
    }
    // If every active tile was exhausted (can't happen with weight_sum>0
    // unless remainder exceeded active count), dump on the center.
    if remainder != 0 {
        alloc.coins[0] += remainder;
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairwise_equalizes_ratios() {
        let out = pairwise_exchange(TileState::new(12, 8), TileState::new(0, 4));
        assert_eq!(out.new_i + out.new_j, 12);
        // fair ratio = 1.0 -> 8 and 4
        assert_eq!((out.new_i, out.new_j), (8, 4));
    }

    #[test]
    fn pairwise_conserves_for_many_cases() {
        for (hi, mi, hj, mj) in [
            (0i64, 1u64, 0i64, 1u64),
            (10, 3, 2, 9),
            (-3, 4, 10, 4), // transient negative
            (63, 63, 0, 1),
            (5, 0, 5, 10),
            (7, 0, 3, 0),
        ] {
            let out = pairwise_exchange(TileState::new(hi, mi), TileState::new(hj, mj));
            assert_eq!(out.new_i + out.new_j, hi + hj, "case {hi},{mi},{hj},{mj}");
            assert_eq!(out.moved, out.new_i - hi);
        }
    }

    #[test]
    fn pairwise_both_inactive_no_move() {
        let out = pairwise_exchange(TileState::inactive(5), TileState::inactive(3));
        assert_eq!((out.new_i, out.new_j, out.moved), (5, 3, 0));
    }

    #[test]
    fn pairwise_inactive_relinquishes_everything() {
        // A finished tile (max=0) gives all coins to an active partner.
        let out = pairwise_exchange(TileState::inactive(9), TileState::new(2, 8));
        assert_eq!((out.new_i, out.new_j), (0, 11));
        let rev = pairwise_exchange(TileState::new(2, 8), TileState::inactive(9));
        assert_eq!((rev.new_i, rev.new_j), (11, 0));
    }

    #[test]
    fn pairwise_ratio_error_within_rounding() {
        for (hi, mi, hj, mj) in [(3i64, 8u64, 7i64, 4u64), (20, 16, 1, 48), (9, 5, 9, 7)] {
            let out = pairwise_exchange(TileState::new(hi, mi), TileState::new(hj, mj));
            let alpha = (hi + hj) as f64 / (mi + mj) as f64;
            assert!(
                (out.new_i as f64 - alpha * mi as f64).abs() <= 0.5 + 1e-9,
                "i off target: {out:?}"
            );
            assert!(
                (out.new_j as f64 - alpha * mj as f64).abs() <= 0.5 + 1e-9,
                "j off target: {out:?}"
            );
        }
    }

    #[test]
    fn pairwise_no_move_at_equal_ratio() {
        let out = pairwise_exchange(TileState::new(4, 8), TileState::new(2, 4));
        assert_eq!(out.moved, 0);
    }

    #[test]
    fn four_way_conserves_and_hits_targets() {
        let group = [
            TileState::new(0, 16),
            TileState::new(30, 8),
            TileState::new(2, 8),
            TileState::new(0, 0),
            TileState::new(8, 8),
        ];
        let alloc = four_way_allocation(&group);
        assert_eq!(alloc.iter().sum::<i64>(), 40);
        let alpha = 40.0 / 40.0;
        for (k, t) in group.iter().enumerate() {
            if t.max > 0 {
                assert!(
                    (alloc[k] as f64 - alpha * t.max as f64).abs() <= 1.0,
                    "tile {k}: {} vs target {}",
                    alloc[k],
                    alpha * t.max as f64
                );
            } else {
                assert_eq!(alloc[k], 0, "inactive tile keeps no coins");
            }
        }
    }

    #[test]
    fn four_way_all_inactive_unchanged() {
        let group = [
            TileState::inactive(3),
            TileState::inactive(0),
            TileState::inactive(7),
        ];
        assert_eq!(*four_way_allocation(&group), [3, 0, 7]);
    }

    #[test]
    fn four_way_remainder_distribution_is_deterministic() {
        let group = [
            TileState::new(1, 3),
            TileState::new(1, 3),
            TileState::new(1, 3),
        ];
        // total 3, each exact share 1.0: no remainder drama
        assert_eq!(*four_way_allocation(&group), [1, 1, 1]);
        let group2 = [
            TileState::new(2, 3),
            TileState::new(1, 3),
            TileState::new(1, 3),
        ];
        // total 4, shares 4/3 each: fracs equal, tie -> lowest index
        assert_eq!(*four_way_allocation(&group2), [2, 1, 1]);
    }

    #[test]
    fn four_way_handles_negative_totals() {
        // Transient deficits can make a small group total negative.
        let group = [TileState::new(-2, 4), TileState::new(1, 4)];
        let alloc = four_way_allocation(&group);
        assert_eq!(alloc.iter().sum::<i64>(), -1);
    }

    #[test]
    fn tie_break_is_exact_beyond_f64_precision() {
        // total*max exceeds f64's 53-bit mantissa: a float share would
        // round 2^53+1 down to 2^53 and miss this half-coin tie entirely;
        // the integer path cannot.
        let total = (1i64 << 53) + 1;
        let out = pairwise_exchange(TileState::new(total, 1), TileState::new(0, 1));
        assert_eq!(out.new_i + out.new_j, total, "conservation");
        // fair share is 2^52 + 0.5; the deterministic rule holds the side
        // nearer the current holding, which for i (holding everything) is
        // the hi side
        assert_eq!(out.new_i, (1i64 << 52) + 1);
    }

    #[test]
    fn i64_split_matches_the_i128_reference() {
        use blitzcoin_sim::check::forall_seeded;
        use blitzcoin_sim::ensure;
        // the historical all-i128 split, kept as the reference
        let reference = |total: i64, max_i: u64, ws: u64| {
            let (n, w) = (total as i128 * max_i as i128, ws as i128);
            let (q, r) = (n.div_euclid(w), n.rem_euclid(w));
            (q as i64, (2 * r).cmp(&w))
        };
        let edge = [
            0u64,
            1,
            2,
            3,
            63,
            1 << 31,
            1 << 32,
            i64::MAX as u64,
            u64::MAX,
        ];
        forall_seeded("fair_split_i64_vs_i128", 0xF5, 0..4000, |rng| {
            let pick = |rng: &mut blitzcoin_sim::SimRng| match rng.range_u64(0..3) {
                0 => edge[rng.range_usize(0..edge.len())],
                1 => rng.range_u64(0..128),
                _ => rng.next_u64() >> rng.range_u64(0..64),
            };
            let max_i = pick(rng);
            let ws = max_i.saturating_add(pick(rng)).max(1);
            let total = match rng.range_u64(0..3) {
                0 => rng.range_i64(-64..200),
                1 => rng.next_u64() as i64,
                _ => [i64::MIN, i64::MIN + 1, -1, i64::MAX][rng.range_usize(0..4)],
            };
            let want = reference(total, max_i, ws);
            let got = fair_split(total, max_i, ws);
            ensure!(
                got == want,
                "total {total}, max {max_i}, ws {ws}: {got:?} vs {want:?}"
            );
            Ok(())
        });
    }

    #[test]
    fn half_coin_detection_is_exact_not_epsilon() {
        // a share of lo + 0.5000000001-ish must NOT trigger the tie path:
        // 2r == ws is an integer identity, so near-halves round normally
        let out = pairwise_exchange(
            TileState::new(7, 1_000_000_001),
            TileState::new(0, 999_999_999),
        );
        // share = 7 * 1000000001 / 2000000000 = 3.5000000035: rounds to 4
        assert_eq!(out.new_i, 4);
        assert_eq!(out.new_j, 3);
    }

    #[test]
    fn four_way_zero_weight_group_is_degenerate_not_nan() {
        // Regression: with Σmax == 0 every share is 0/0 (NaN). Before the
        // explicit degenerate exit + total_cmp sort this path could reach
        // `partial_cmp().unwrap()` and panic; now it must return holdings
        // unchanged — including nonzero and negative transients.
        let group = [
            TileState::inactive(5),
            TileState::inactive(-2),
            TileState::inactive(0),
            TileState::inactive(63),
            TileState::inactive(1),
        ];
        let alloc = four_way_allocation(&group);
        assert_eq!(*alloc, [5, -2, 0, 63, 1]);
        assert_eq!(alloc.iter().sum::<i64>(), 67, "conservation");
    }

    #[test]
    fn four_way_remainder_sort_is_total_order() {
        // The remainder sort must be deterministic for any frac values a
        // share computation can produce, including exact ties at many
        // indices and negative-total groups (fracs of floored negative
        // shares). Sweep a few shapes and check conservation + stability.
        for group in [
            vec![
                TileState::new(7, 5),
                TileState::new(0, 5),
                TileState::new(0, 5),
                TileState::new(0, 5),
                TileState::new(0, 5),
            ],
            vec![
                TileState::new(-7, 3),
                TileState::new(2, 3),
                TileState::new(1, 3),
            ],
            vec![
                TileState::new(63, 7),
                TileState::new(-1, 7),
                TileState::new(63, 7),
                TileState::new(-1, 7),
                TileState::new(2, 2),
            ],
        ] {
            let a = four_way_allocation(&group);
            let b = four_way_allocation(&group);
            assert_eq!(a, b, "deterministic for {group:?}");
            assert_eq!(
                a.iter().sum::<i64>(),
                group.iter().map(|t| t.has).sum::<i64>(),
                "conserves for {group:?}"
            );
        }
    }

    #[test]
    fn four_way_more_information_than_one_way() {
        // One 4-way pass brings a 5-tile group to its fair point; 1-way
        // passes need several exchanges for the same group.
        let group = [
            TileState::new(20, 8),
            TileState::new(0, 8),
            TileState::new(0, 8),
            TileState::new(0, 8),
            TileState::new(0, 8),
        ];
        let alloc = four_way_allocation(&group);
        assert_eq!(*alloc, [4, 4, 4, 4, 4]);
    }
}
