//! Heterogeneous target assignment (Fig 8).
//!
//! Fig 8 studies how the *degree of heterogeneity* — the number of
//! distinct accelerator types, `accType` — affects convergence time. All
//! accelerators of the same type share the same `max` target; more types
//! mean a wider spread of targets, a larger initial error for a random
//! coin placement, and a longer convergence.

use blitzcoin_sim::SimRng;

use crate::tile::MAX_COINS_PER_TILE;

/// Generates per-tile `max` targets for an `n`-tile SoC with `acc_types`
/// distinct accelerator types.
///
/// Type `t` (0-based) receives a target evenly spaced across
/// `[8, MAX_COINS_PER_TILE]`; with one type every tile gets the midpoint
/// (32). Tiles are assigned types uniformly at random so heterogeneity is
/// spatially unstructured, as in the paper's study.
///
/// # Panics
/// Panics if `acc_types == 0` or `n == 0`.
pub fn heterogeneous_max(n: usize, acc_types: u32, rng: &mut SimRng) -> Vec<u64> {
    assert!(acc_types > 0, "need at least one accelerator type");
    assert!(n > 0, "need at least one tile");
    let lo = 8.0;
    let hi = MAX_COINS_PER_TILE as f64;
    let type_max = |t: u32| -> u64 {
        if acc_types == 1 {
            ((lo + hi) / 2.0).round() as u64
        } else {
            (lo + (hi - lo) * t as f64 / (acc_types - 1) as f64).round() as u64
        }
    };
    (0..n)
        .map(|_| type_max(rng.range_u64(0..acc_types as u64) as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_is_uniform() {
        let mut rng = SimRng::seed(1);
        let m = heterogeneous_max(50, 1, &mut rng);
        assert!(m.iter().all(|&x| x == m[0]));
        assert_eq!(m[0], 36); // midpoint of [8, 63], rounded
    }

    #[test]
    fn type_count_bounds_distinct_values() {
        let mut rng = SimRng::seed(2);
        for acc_types in [2u32, 4, 8] {
            let m = heterogeneous_max(400, acc_types, &mut rng);
            let mut distinct: Vec<u64> = m.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(distinct.len() <= acc_types as usize);
            assert!(
                distinct.len() >= 2,
                "400 random draws should hit >= 2 types"
            );
            assert!(*distinct.first().unwrap() >= 8);
            assert!(*distinct.last().unwrap() <= MAX_COINS_PER_TILE as u64);
        }
    }

    #[test]
    fn more_types_spread_targets_wider() {
        let mut rng = SimRng::seed(3);
        let spread = |k: u32, rng: &mut SimRng| {
            let m = heterogeneous_max(400, k, rng);
            (*m.iter().max().unwrap() - *m.iter().min().unwrap()) as f64
        };
        let s1 = spread(1, &mut rng);
        let s8 = spread(8, &mut rng);
        assert_eq!(s1, 0.0);
        assert!(s8 > 30.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = heterogeneous_max(20, 4, &mut SimRng::seed(9));
        let b = heterogeneous_max(20, 4, &mut SimRng::seed(9));
        assert_eq!(a, b);
    }
}
