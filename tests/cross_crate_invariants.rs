//! Property-based invariants spanning the core data structures: coin
//! conservation, error monotonicity, allocation fairness, routing
//! correctness, LUT/power-model consistency, budget enforcement.
//!
//! Properties run on the seeded harness in `blitzcoin_sim::check`: each
//! case derives an independent RNG from a fixed root seed, so failures
//! reproduce exactly and name the case to replay.

use blitzcoin_baselines::BccController;
use blitzcoin_core::emulator::{Emulator, EmulatorConfig};
use blitzcoin_core::exchange::pairwise_exchange_stochastic;
use blitzcoin_core::{
    four_way_allocation, global_error, pairwise_exchange, AllocationPolicy, DynamicTiming,
    TileState,
};
use blitzcoin_noc::{TileId, Topology};
use blitzcoin_power::{AcceleratorClass, CoinLut, PowerModel};
use blitzcoin_sim::check::forall;
use blitzcoin_sim::{ensure, SimRng};

fn any_tile(rng: &mut SimRng) -> TileState {
    TileState::new(rng.range_i64(-16..128), rng.range_u64(0..64))
}

fn any_tiles(rng: &mut SimRng, count: std::ops::Range<usize>) -> Vec<TileState> {
    let n = rng.range_usize(count);
    (0..n).map(|_| any_tile(rng)).collect()
}

#[test]
fn pairwise_exchange_conserves_coins() {
    forall("pairwise conservation", 256, |rng| {
        let (a, b) = (any_tile(rng), any_tile(rng));
        let out = pairwise_exchange(a, b);
        ensure!(
            out.new_i + out.new_j == a.has + b.has,
            "{a:?} + {b:?} -> {out:?}"
        );
        Ok(())
    });
}

#[test]
fn pairwise_exchange_never_increases_error() {
    // Section III-E: per exchange, the pair error is constant or
    // decreases, up to half-coin rounding.
    forall("pairwise error monotone", 256, |rng| {
        let (a, b) = (any_tile(rng), any_tile(rng));
        let before = global_error(&[a, b]);
        let out = pairwise_exchange(a, b);
        let after = global_error(&[
            TileState::new(out.new_i, a.max),
            TileState::new(out.new_j, b.max),
        ]);
        ensure!(after <= before + 0.5, "{before} -> {after} for {a:?},{b:?}");
        Ok(())
    });
}

#[test]
fn stochastic_exchange_conserves_too() {
    forall("stochastic conservation", 256, |rng| {
        let (a, b) = (any_tile(rng), any_tile(rng));
        let mut tie_rng = SimRng::seed(rng.next_u64());
        let out = pairwise_exchange_stochastic(a, b, &mut tie_rng);
        ensure!(
            out.new_i + out.new_j == a.has + b.has,
            "{a:?} + {b:?} -> {out:?}"
        );
        Ok(())
    });
}

#[test]
fn four_way_allocation_conserves_and_bounds_error() {
    forall("four-way fairness", 256, |rng| {
        let tiles = any_tiles(rng, 2..6);
        let alloc = four_way_allocation(&tiles);
        let total_before: i64 = tiles.iter().map(|t| t.has).sum();
        ensure!(
            alloc.iter().sum::<i64>() == total_before,
            "total changed: {tiles:?} -> {alloc:?}"
        );
        let weight: u64 = tiles.iter().map(|t| t.max).sum();
        if weight > 0 {
            let alpha = total_before as f64 / weight as f64;
            for (a, t) in alloc.iter().zip(&tiles) {
                if t.max > 0 {
                    ensure!(
                        (*a as f64 - alpha * t.max as f64).abs() <= 1.0 + 1e-9,
                        "alloc {a} far from target {} in {tiles:?}",
                        alpha * t.max as f64
                    );
                }
            }
        }
        Ok(())
    });
}

#[test]
fn four_way_allocation_is_deterministic() {
    forall("four-way determinism", 256, |rng| {
        let tiles = any_tiles(rng, 2..6);
        ensure!(four_way_allocation(&tiles) == four_way_allocation(&tiles));
        Ok(())
    });
}

#[test]
fn analysis_bounds_hold_for_all_exchanges() {
    forall("exchange analysis bounds", 256, |rng| {
        let (a, b) = (any_tile(rng), any_tile(rng));
        let alpha = 2.0 * rng.unit_f64();
        let res = blitzcoin_core::analyze_exchange(a, b, alpha);
        ensure!(res.bound_holds(), "{res:?}");
        Ok(())
    });
}

#[test]
fn bcc_allocation_matches_totals() {
    forall("bcc totals", 256, |rng| {
        let n = rng.range_usize(1..20);
        let maxes: Vec<u64> = (0..n).map(|_| rng.range_u64(0..64)).collect();
        let pool = rng.range_u64(0..512);
        let alloc = BccController::new(pool).allocate(&maxes);
        if maxes.iter().sum::<u64>() > 0 {
            ensure!(
                alloc.iter().sum::<i64>() == pool as i64,
                "pool {pool} not conserved for {maxes:?}"
            );
        } else {
            ensure!(alloc.iter().all(|&a| a == 0));
        }
        Ok(())
    });
}

#[test]
fn xy_routing_reaches_destination() {
    forall("xy routing", 256, |rng| {
        let w = rng.range_usize(1..12);
        let h = rng.range_usize(1..12);
        let topo = Topology::mesh(w, h);
        let src = TileId(rng.range_usize(0..topo.len()));
        let dst = TileId(rng.range_usize(0..topo.len()));
        let route = topo.xy_route(src, dst);
        ensure!(
            route.len() == topo.hop_distance(src, dst),
            "route length {} vs distance {}",
            route.len(),
            topo.hop_distance(src, dst)
        );
        if src != dst {
            ensure!(*route.last().unwrap() == dst);
            // every hop is between physical neighbors
            let mut prev = src;
            for &next in &route {
                ensure!(
                    topo.hop_distance(prev, next) == 1,
                    "non-adjacent hop {prev:?} -> {next:?}"
                );
                prev = next;
            }
        }
        Ok(())
    });
}

#[test]
fn power_model_inverse_is_consistent() {
    forall("power model inverse", 256, |rng| {
        let class = *rng.choose(&AcceleratorClass::ALL);
        let m = PowerModel::of(class);
        let budget = m.power_floor() + rng.unit_f64() * (m.p_max() - m.power_floor());
        let f = m.freq_for_power(budget);
        ensure!(
            m.power_at(f) <= budget + 1e-6,
            "power {} over budget {budget} for {class:?}",
            m.power_at(f)
        );
        ensure!(f >= m.f_floor() && f <= m.f_max());
        Ok(())
    });
}

#[test]
fn lut_is_monotone_and_within_budget() {
    forall("lut monotone", 64, |rng| {
        let class = *rng.choose(&AcceleratorClass::ALL);
        let m = PowerModel::of(class);
        let coin_value = 0.5 + 7.5 * rng.unit_f64();
        let lut = CoinLut::build(&m, coin_value, 64);
        for k in 0..64i32 {
            ensure!(
                lut.f_target(k + 1) >= lut.f_target(k),
                "not monotone at {k}"
            );
            let f = lut.f_target(k);
            if f > 0.0 {
                ensure!(
                    m.power_at(f) <= k as f64 * coin_value + 1e-6,
                    "{class:?} over budget at {k} coins"
                );
            }
        }
        Ok(())
    });
}

#[test]
fn policy_targets_fit_register() {
    forall("policy register fit", 256, |rng| {
        let n = rng.range_usize(1..20);
        let powers: Vec<f64> = (0..n)
            .map(|_| {
                if rng.chance(0.15) {
                    0.0
                } else {
                    500.0 * rng.unit_f64()
                }
            })
            .collect();
        for policy in [
            AllocationPolicy::AbsoluteProportional,
            AllocationPolicy::RelativeProportional,
        ] {
            let peak = powers.iter().cloned().fold(0.0, f64::max);
            for &p in &powers {
                let target = policy.max_target(p, peak);
                ensure!(target <= 63);
                ensure!(
                    (p == 0.0) == (target == 0),
                    "inactive iff zero power: p={p}, target={target}"
                );
            }
        }
        Ok(())
    });
}

#[test]
fn dynamic_timing_stays_in_bounds() {
    forall("dynamic timing bounds", 256, |rng| {
        let dt = DynamicTiming::default();
        let mut interval = dt.base_cycles;
        let steps = rng.range_usize(1..64);
        for _ in 0..steps {
            let moved = rng.range_i64(0..5);
            interval = dt.next_interval(interval, moved);
            ensure!(
                interval >= dt.min_cycles && interval <= dt.max_cycles,
                "interval {interval} escaped [{}, {}]",
                dt.min_cycles,
                dt.max_cycles
            );
        }
        Ok(())
    });
}

// Heavier cases: fewer iterations.

#[test]
fn emulator_conserves_coins_for_any_grid() {
    forall("emulator conservation", 24, |rng| {
        let d = rng.range_usize(2..8);
        let topo = Topology::torus(d, d);
        let mut emu = Emulator::new(topo, vec![32; d * d], EmulatorConfig::default());
        let mut run_rng = SimRng::seed(rng.next_u64());
        emu.init_uniform_random(&mut run_rng);
        let before: i64 = emu.total_coins();
        let _ = emu.run(&mut run_rng);
        ensure!(
            emu.total_coins() == before,
            "coins {before} -> {} on {d}x{d}",
            emu.total_coins()
        );
        Ok(())
    });
}

#[test]
fn emulator_error_never_ends_above_start() {
    forall("emulator error bound", 24, |rng| {
        let d = rng.range_usize(3..7);
        let topo = Topology::torus(d, d);
        let mut emu = Emulator::new(topo, vec![32; d * d], EmulatorConfig::default());
        let mut run_rng = SimRng::seed(rng.next_u64());
        emu.init_uniform_random(&mut run_rng);
        let r = emu.run(&mut run_rng);
        ensure!(
            r.final_error <= r.start_error + 1.0,
            "error {} -> {}",
            r.start_error,
            r.final_error
        );
        Ok(())
    });
}
