//! The shared centralized-manager machinery: notify IRQs, sweeps, and
//! register writes from one controller tile.
//!
//! BC-C and C-RR differ only in *what* a sweep commands, so the
//! notify→plan→write→actuate pipeline lives here once and each scheme
//! plugs its allocation in through [`SweepScheme`]. The controller tile
//! is the single point of failure the paper contrasts against: when it
//! faults, no sweep ever runs again and [`controller_down`] tells the
//! event loop the survivors are on their own.

use blitzcoin_noc::{Packet, PacketKind, TileId};
use blitzcoin_sim::SimTime;

use crate::engine::actuation::ACTUATION_CYCLES;
use crate::engine::events::ManagerEv;
use crate::engine::{Core, Ev};
use crate::managers::ManagerPolicy;
use crate::report::ResponseSample;

/// Interval between C-RR's fairness-rotation sweeps, in NoC cycles
/// (~20.5 µs).
pub(crate) const ROTATION_CYCLES: u64 = 16_384;

/// What one centralized scheme contributes to the shared sweep loop.
pub(crate) trait SweepScheme {
    /// The controller's calibrated service time per tile during a sweep,
    /// in NoC cycles (DESIGN.md §5).
    const SERVICE_CYCLES: u64;
    /// Whether a sweep's register writes also rewrite tile coin ledgers
    /// (BC-C redistributes the pool every sweep; C-RR keeps no coins).
    const WRITES_COINS: bool;

    /// One-time boot work (C-RR arms its fairness rotation here, BC-C
    /// builds its coin-to-frequency tables).
    fn boot(&mut self, core: &mut Core);

    /// The plan of one sweep: pushes every managed tile's write, in
    /// `managed` order, with its commanded frequency (centi-MHz, kept
    /// integral so events stay `Eq`) and coin bookkeeping.
    fn compute_plan(&mut self, core: &Core, rotation_step: usize, writes: &mut SweepWrites);
}

/// One sweep's register writes `(tile, centi-MHz, coins)` in issue order:
/// every hold or downgrade first, then every upgrade over the tile's
/// commanded target, so the cap is never transiently exceeded by a
/// newly-granted tile actuating before a revoked one. Writes pushed in
/// ascending tile order come out in `(upgrade, tile)` order without a
/// sort. Both lists are reused sweep to sweep.
#[derive(Default)]
pub(crate) struct SweepWrites {
    pub(super) order: Vec<(usize, u64, i64)>,
    upgrades: Vec<(usize, u64, i64)>,
}

impl SweepWrites {
    /// Queues `tile`'s write; `commanded_centi` is its current target in
    /// centi-MHz, which decides whether the write is an upgrade.
    pub(super) fn push(&mut self, tile: usize, centi: u64, coins: i64, commanded_centi: u64) {
        let write = (tile, centi, coins);
        if centi > commanded_centi {
            self.upgrades.push(write);
        } else {
            self.order.push(write);
        }
    }

    pub(super) fn clear(&mut self) {
        self.order.clear();
        self.upgrades.clear();
    }

    /// Queues the upgrades behind every other write once all are pushed.
    pub(super) fn finish(&mut self) {
        self.order.append(&mut self.upgrades);
    }
}

/// Whether the centralized controller tile has died — after which no
/// sweep can ever run again (the single point of failure).
pub(crate) fn controller_down(core: &Core) -> bool {
    core.tiles[core.sim.soc.controller_tile().index()].faulted
}

/// A centralized manager: the sweep state machine around a
/// [`SweepScheme`]. This state lived in controller hardware before the
/// scheme split; it is per-run, not per-tile, so it lives on the policy.
pub(crate) struct Centralized<S> {
    scheme: S,
    sweep_gen: u64,
    writes: SweepWrites,
    rotation_step: usize,
}

impl<S: SweepScheme> Centralized<S> {
    pub(crate) fn new(scheme: S) -> Self {
        Centralized {
            scheme,
            sweep_gen: 0,
            writes: SweepWrites::default(),
            rotation_step: 0,
        }
    }

    fn start_sweep(&mut self, core: &mut Core) {
        if controller_down(core) {
            return; // the single point of failure has failed
        }
        self.sweep_gen += 1;
        // Plan once per sweep (a per-step recompute could change mid-sweep).
        self.writes.clear();
        self.scheme
            .compute_plan(core, self.rotation_step, &mut self.writes);
        self.writes.finish();
        let at = core.now + SimTime::from_noc_cycles(S::SERVICE_CYCLES);
        core.queue.schedule(
            at,
            Ev::Manager(ManagerEv::SweepWrite {
                sweep: self.sweep_gen,
                step: 0,
            }),
        );
    }

    fn on_sweep_write(&mut self, core: &mut Core, sweep: u64, step: usize) {
        if sweep != self.sweep_gen || controller_down(core) {
            return; // superseded by a newer sweep, or the controller died
        }
        let (ti, freq_centi_mhz, coins) = self.writes.order[step];
        let pkt = Packet::new(
            core.sim.soc.controller_tile(),
            TileId(ti),
            blitzcoin_noc::Plane::MmioIrq,
            PacketKind::RegWrite {
                value: freq_centi_mhz,
            },
        );
        let last = step + 1 == self.writes.order.len();
        let arrive = core.net.send(core.now, &pkt);
        core.queue.schedule(
            arrive,
            Ev::Manager(ManagerEv::WriteArrive {
                tile: ti,
                freq_centi_mhz,
                coins,
                sweep,
                last,
            }),
        );
        if !last {
            let at = core.now + SimTime::from_noc_cycles(S::SERVICE_CYCLES);
            core.queue.schedule(
                at,
                Ev::Manager(ManagerEv::SweepWrite {
                    sweep,
                    step: step + 1,
                }),
            );
        }
    }

    fn on_write_arrive(
        &mut self,
        core: &mut Core,
        ti: usize,
        freq_centi_mhz: u64,
        coins: i64,
        sweep: u64,
        last: bool,
    ) {
        if core.tiles[ti].faulted {
            // a dead register file: the write lands on nothing, but the
            // sweep still completes for the surviving tiles
            if last && sweep == self.sweep_gen {
                drain_sweep_responses(core);
            }
            return;
        }
        if S::WRITES_COINS {
            core.set_has(ti, coins);
            core.record_coins(ti);
        }
        let f = freq_centi_mhz as f64 / 100.0;
        // apply only while the tile runs; idle tiles stay clock-gated
        if core.tiles[ti].running.is_some() {
            core.set_target(ti, f);
        } else {
            core.set_target(ti, 0.0);
        }
        if last && sweep == self.sweep_gen {
            drain_sweep_responses(core);
        }
    }

    fn on_rotate(&mut self, core: &mut Core) {
        self.rotation_step += 1;
        let rotation = SimTime::from_noc_cycles(ROTATION_CYCLES);
        // A pending change means its notify-sweep is in flight or about
        // to be (every notify IRQ arrives), so the rotation sweeps only
        // when none is pending.
        if core.pending_changes.is_empty() {
            self.start_sweep(core);
        }
        if !controller_down(core) {
            core.queue
                .schedule(core.now + rotation, Ev::Manager(ManagerEv::Rotate));
        }
    }
}

/// The write ordering [`SweepWrites`] replaced, kept as the reference the
/// BC-C planner is checked against: fills `out` with one sweep's writes,
/// every downgrade or hold first, then every upgrade over the tile's
/// current target (`current_centi`), in two in-order passes over
/// `managed`.
#[cfg(test)]
pub(crate) fn order_writes(
    out: &mut Vec<(usize, u64, i64)>,
    managed: &[usize],
    plan: &[(u64, i64)],
    current_centi: impl Fn(usize) -> u64,
) {
    debug_assert!(managed.windows(2).all(|w| w[0] < w[1]));
    out.clear();
    for upgrades in [false, true] {
        out.extend(
            managed
                .iter()
                .zip(plan)
                .filter(|&(&t, &(f, _))| (f > current_centi(t)) == upgrades)
                .map(|(&t, &(f, c))| (t, f, c)),
        );
    }
}

/// A sweep's last write arrived: every pending activity change is
/// answered once the actuation delay elapses.
fn drain_sweep_responses(core: &mut Core) {
    let done = core.now + SimTime::from_noc_cycles(ACTUATION_CYCLES);
    // take the list whole (the response push borrows `core` too), then
    // hand its cleared allocation back for the next batch of changes
    let mut drained = std::mem::take(&mut core.pending_changes);
    for &t0 in &drained {
        core.responses.push(ResponseSample {
            at_us: t0.as_us_f64(),
            response_us: (done - t0).as_us_f64(),
        });
    }
    drained.clear();
    core.pending_changes = drained;
}

impl<S: SweepScheme> ManagerPolicy for Centralized<S> {
    fn init(&mut self, core: &mut Core) {
        self.scheme.boot(core);
    }

    fn on_activity_change(&mut self, core: &mut Core, ti: usize) {
        let pkt = Packet::new(
            TileId(ti),
            core.sim.soc.controller_tile(),
            blitzcoin_noc::Plane::MmioIrq,
            PacketKind::RegWrite { value: ti as u64 },
        );
        let arrive = core.net.send(core.now, &pkt);
        core.queue.schedule(arrive, Ev::Manager(ManagerEv::Notify));
    }

    fn on_event(&mut self, core: &mut Core, ev: ManagerEv) {
        match ev {
            ManagerEv::Notify => self.start_sweep(core),
            ManagerEv::SweepWrite { sweep, step } => self.on_sweep_write(core, sweep, step),
            ManagerEv::WriteArrive {
                tile,
                freq_centi_mhz,
                coins,
                sweep,
                last,
            } => self.on_write_arrive(core, tile, freq_centi_mhz, coins, sweep, last),
            ManagerEv::Rotate => self.on_rotate(core),
            _ => unreachable!("centralized managers schedule only sweep events"),
        }
    }

    fn halts_when_settled(&self, core: &Core) -> bool {
        // a dead controller will never drain the pending responses
        controller_down(core)
    }
}

#[cfg(test)]
mod tests {
    use super::{order_writes, SweepWrites};
    use blitzcoin_sim::check::forall_seeded;
    use blitzcoin_sim::ensure;

    #[test]
    fn write_order_matches_the_sorted_reference() {
        // one buffer serves every case, as one serves every sweep of a run
        let mut writes = SweepWrites::default();
        forall_seeded("sweep_write_order", 0x5EE9, 0..300, |rng| {
            let managed: Vec<usize> = (0..rng.range_usize(0..40))
                .filter(|_| rng.chance(0.7))
                .collect();
            let plan: Vec<(u64, i64)> = managed
                .iter()
                .map(|_| (rng.range_u64(0..8) * 2500, rng.range_i64(-3..64)))
                .collect();
            let current: Vec<u64> = (0..40).map(|_| rng.range_u64(0..8) * 2500).collect();
            writes.clear();
            for (&t, &(f, c)) in managed.iter().zip(&plan) {
                writes.push(t, f, c, current[t]);
            }
            writes.finish();
            let mut two_pass = Vec::new();
            order_writes(&mut two_pass, &managed, &plan, |t| current[t]);
            // the first planner: sort by (upgrade, tile)
            let mut reference: Vec<(usize, u64, i64)> = managed
                .iter()
                .zip(&plan)
                .map(|(&t, &(f, c))| (t, f, c))
                .collect();
            reference.sort_by_key(|&(t, f, _)| (f > current[t], t));
            ensure!(
                writes.order == reference,
                "{:?} != {reference:?}",
                writes.order
            );
            ensure!(two_pass == reference, "{two_pass:?} != {reference:?}");
            Ok(())
        });
    }
}
