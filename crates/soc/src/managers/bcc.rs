//! BC-C: BlitzCoin's allocation policy run centrally (Fig 17's
//! like-for-like competitor). Each sweep recomputes the whole coin
//! split from the tiles' `max` targets and rewrites every ledger.

use blitzcoin_baselines::BccController;
use blitzcoin_power::CoinLut;

use crate::engine::Core;
use crate::managers::centralized::{SweepScheme, SweepWrites};

/// The BC-C sweep scheme: proportional coin allocation, computed by the
/// behavioural [`BccController`] over the live `max` targets.
///
/// Every notify plans a sweep over all managed tiles, and the next
/// notify supersedes most sweeps after a write or two (a 32x32 run plans
/// 4,032 sweeps over 1,008 tiles for about 6,300 writes), so planning
/// allocates nothing and calls no float rounding: the per-slot state is
/// gathered into reused buffers and coins map to commands through
/// integer tables.
#[derive(Default)]
pub(crate) struct Bcc {
    luts: CentiLuts,
    slots: Slots,
    alloc: Vec<i64>,
    fracs: Vec<(usize, f64)>,
}

/// What a sweep reads of each managed tile, in `managed` order.
#[derive(Default)]
struct Slots {
    max: Vec<u64>,
    running: Vec<bool>,
    /// The tile's commanded target in centi-MHz.
    commanded: Vec<u64>,
}

/// Each managed slot's coin LUT in whole centi-MHz: entry `k` is
/// `(entries[k] * 100).round()`, the command a sweep sends for `k`
/// coins. Tiles of one class share a LUT, so each distinct LUT is
/// converted once per run.
#[derive(Default)]
struct CentiLuts {
    tables: Vec<Vec<u64>>,
    /// Index into `tables` per managed slot.
    of_slot: Vec<usize>,
}

impl CentiLuts {
    fn build<'a>(luts: impl IntoIterator<Item = &'a CoinLut>) -> Self {
        let mut distinct: Vec<&CoinLut> = Vec::new();
        let of_slot = luts
            .into_iter()
            .map(|lut| {
                distinct.iter().position(|&d| d == lut).unwrap_or_else(|| {
                    distinct.push(lut);
                    distinct.len() - 1
                })
            })
            .collect();
        let tables = distinct
            .iter()
            .map(|lut| {
                let entries = lut.entries().iter();
                entries.map(|&f| (f * 100.0).round() as u64).collect()
            })
            .collect();
        CentiLuts { tables, of_slot }
    }

    /// `CoinLut::f_target(coins as i32)` of `slot`'s LUT, in centi-MHz.
    /// The count wraps to the 32-bit coin register as it does there.
    fn centi(&self, slot: usize, coins: i64) -> u64 {
        let table = &self.tables[self.of_slot[slot]];
        match coins as i32 {
            c if c <= 0 => table[0],
            c => table[(c as usize).min(table.len() - 1)],
        }
    }
}

/// Plans one sweep from per-slot state alone: the pool is allocated over
/// `slots.max`, each running tile is commanded its coins' LUT frequency
/// (an idle one 0), and the writes are pushed in `managed` order.
fn plan_sweep(
    bcc: BccController,
    managed: &[usize],
    slots: &Slots,
    luts: &CentiLuts,
    alloc: &mut Vec<i64>,
    fracs: &mut Vec<(usize, f64)>,
    writes: &mut SweepWrites,
) {
    bcc.allocate_into(&slots.max, alloc, fracs);
    for (slot, (&t, &coins)) in managed.iter().zip(alloc.iter()).enumerate() {
        let centi = if slots.running[slot] {
            luts.centi(slot, coins)
        } else {
            0
        };
        writes.push(t, centi, coins, slots.commanded[slot]);
    }
}

impl SweepScheme for Bcc {
    /// Central hardware FSM service time per tile: 160 cycles x 1.25 ns
    /// x 7 tiles ≈ 1.4 µs (Fig 20).
    const SERVICE_CYCLES: u64 = 160;
    const WRITES_COINS: bool = true;

    fn boot(&mut self, core: &mut Core) {
        let luts = core.managed.iter().map(|&t| core.tiles[t].lut.as_deref());
        self.luts = CentiLuts::build(luts.map(|lut| lut.expect("managed")));
    }

    fn compute_plan(&mut self, core: &Core, _rotation_step: usize, writes: &mut SweepWrites) {
        let slots = &mut self.slots;
        slots.max.clear();
        slots.running.clear();
        slots.commanded.clear();
        for &t in &core.managed {
            let rt = &core.tiles[t];
            debug_assert_eq!(rt.target_centi, (rt.target * 100.0).round() as u64);
            slots.max.push(rt.max);
            slots.running.push(rt.running.is_some());
            slots.commanded.push(rt.target_centi);
        }
        plan_sweep(
            BccController::new(core.sim.pool),
            &core.managed,
            &self.slots,
            &self.luts,
            &mut self.alloc,
            &mut self.fracs,
            writes,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::{plan_sweep, CentiLuts, Slots};
    use crate::managers::centralized::{order_writes, SweepWrites};
    use blitzcoin_baselines::BccController;
    use blitzcoin_power::{AcceleratorClass, CoinLut, PowerModel};
    use blitzcoin_sim::check::forall_seeded;
    use blitzcoin_sim::ensure;

    /// The per-sweep planner `plan_sweep` replaced, kept as its
    /// reference: a fresh allocation, a float LUT read and a rounding per
    /// tile, then the two-pass write order over each tile's rounded
    /// current target.
    fn plan_by_reference(
        pool: u64,
        managed: &[usize],
        max: &[u64],
        running: &[bool],
        luts: &[&CoinLut],
        target: &[f64],
    ) -> Vec<(usize, u64, i64)> {
        let alloc = BccController::new(pool).allocate(max);
        let plan: Vec<(u64, i64)> = alloc
            .iter()
            .enumerate()
            .map(|(slot, &coins)| {
                let f = if running[slot] {
                    luts[slot].f_target(coins as i32)
                } else {
                    0.0
                };
                ((f * 100.0).round() as u64, coins)
            })
            .collect();
        let mut out = Vec::new();
        order_writes(&mut out, managed, &plan, |t| {
            (target[t] * 100.0).round() as u64
        });
        out
    }

    #[test]
    fn sweep_plan_matches_the_reference_write_for_write() {
        // one set of buffers serves every case, as one serves every sweep
        let mut slots = Slots::default();
        let (mut alloc, mut fracs) = (Vec::new(), Vec::new());
        let mut writes = SweepWrites::default();
        forall_seeded("bcc_sweep_plan_reference", 0xBCC5, 0..400, |rng| {
            // a few distinct LUTs, some of fewer than 64 levels so large
            // counts clamp at the top entry
            let kinds: Vec<CoinLut> = (0..rng.range_usize(1..4))
                .map(|_| {
                    let class = AcceleratorClass::ALL[rng.range_usize(0..6)];
                    let coin_mw = 0.05 + rng.unit_f64() * 20.0;
                    let levels = if rng.chance(0.7) {
                        64
                    } else {
                        rng.range_u64(1..80)
                    };
                    CoinLut::build(&PowerModel::of(class), coin_mw, levels as u32)
                })
                .collect();
            let n_tiles = rng.range_usize(0..48);
            let managed: Vec<usize> = (0..n_tiles).filter(|_| rng.chance(0.7)).collect();
            let luts: Vec<&CoinLut> = managed
                .iter()
                .map(|_| &kinds[rng.range_usize(0..kinds.len())])
                .collect();
            let shape = rng.range_u64(0..4);
            let max: Vec<u64> = managed
                .iter()
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
            let running: Vec<bool> = managed.iter().map(|_| rng.chance(0.7)).collect();
            // current targets: off, a LUT level (so holds are common), or
            // anywhere in range
            let target: Vec<f64> = (0..n_tiles)
                .map(|_| match rng.range_u64(0..3) {
                    0 => 0.0,
                    1 => {
                        let entries = kinds[rng.range_usize(0..kinds.len())].entries();
                        entries[rng.range_usize(0..entries.len())]
                    }
                    _ => rng.unit_f64() * 2000.0,
                })
                .collect();
            // small pools; pools of whole 2^32 multiples plus a few coins,
            // some past 2^53, whose shares wrap in the 32-bit coin
            // register; and pools past i64::MAX, which read negative
            let pool = match rng.range_u64(0..8) {
                0 | 1 => (rng.range_u64(1..1 << 24) << 32) + rng.range_u64(0..100),
                2 => u64::MAX - rng.range_u64(0..5000),
                _ => rng.range_u64(0..5000),
            };
            let reference = plan_by_reference(pool, &managed, &max, &running, &luts, &target);

            slots.max.clone_from(&max);
            slots.running.clone_from(&running);
            slots.commanded.clear();
            slots
                .commanded
                .extend(managed.iter().map(|&t| (target[t] * 100.0).round() as u64));
            let centi = CentiLuts::build(luts.iter().copied());
            writes.clear();
            plan_sweep(
                BccController::new(pool),
                &managed,
                &slots,
                &centi,
                &mut alloc,
                &mut fracs,
                &mut writes,
            );
            writes.finish();
            ensure!(
                writes.order == reference,
                "pool {pool}: {:?} != {reference:?}",
                writes.order
            );
            Ok(())
        });
    }
}
