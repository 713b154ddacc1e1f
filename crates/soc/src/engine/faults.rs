//! Injected tile faults and task abandonment.
//!
//! Fault semantics are scheme-agnostic: a tile leaves the protocol the
//! same way under every manager; what differs is how each policy's
//! machinery *notices* (BlitzCoin heartbeats, a dead controller's
//! silence, a token trapped at a corpse), and that lives with the
//! policies in `crate::managers`.

use blitzcoin_sim::TileFaultKind;

use crate::engine::{Core, EngineClocks, Ev};

impl Core<'_> {
    /// Schedules every planned tile fault as an ordinary event (earliest
    /// per tile).
    pub(crate) fn schedule_planned_faults(&mut self) {
        let mut planned: Vec<(u64, usize)> = Vec::new();
        for f in &self.sim.fault.tile_faults {
            if !planned.iter().any(|&(_, t)| t == f.tile) {
                let first = self.plan().tile_fault(f.tile).expect("listed");
                planned.push((first.at_cycle, f.tile));
            }
        }
        for (at_cycle, tile) in planned {
            self.queue
                .schedule(self.clocks.noc.span(at_cycle), Ev::TileFault { tile });
        }
    }

    /// An injected tile fault fires and the tile leaves the protocol. A
    /// fail-stop powers off: clock gone, running task lost, coins
    /// stranded until a neighbor reclaims them (`max = 0` marks the tile
    /// inactive, so the ordinary drain rule applies). A stuck tile
    /// wedges mid-flight: it keeps burning power at its current
    /// operating point and keeps its coins, but stops answering.
    pub(crate) fn on_tile_fault(&mut self, ti: usize) {
        if self.tiles[ti].faulted.is_some() {
            return;
        }
        let kind = self
            .plan()
            .tile_fault(ti)
            .expect("fault event implies a planned fault")
            .kind;
        self.update_progress(ti);
        if self.fault_at.is_none() {
            self.fault_at = Some(self.now);
        }
        {
            let rt = &mut self.tiles[ti];
            rt.faulted = Some(kind);
            rt.done_gen += 1; // the running task will never complete
            rt.fire_gen += 1; // the exchange FSM stops firing
            rt.actuate_gen += 1; // in-flight DVFS writes are void
            rt.queue.clear();
            if kind == TileFaultKind::FailStop {
                rt.running = None;
                rt.freq = 0.0;
                rt.target = 0.0;
                rt.target_centi = 0;
                rt.max = 0;
            }
        }
        if kind == TileFaultKind::FailStop {
            // the dead tile's clock collapses to its idle-floor divider
            self.clocks.tile[ti] = EngineClocks::tile_domain(self.tiles[ti].model.as_ref(), 0.0);
            self.record_freq(ti);
        }
        self.record_power(ti);
        self.abandon_unreachable_tasks();
    }

    /// Marks every task that can no longer complete — it targets a
    /// faulted tile, or depends (transitively) on such a task — as
    /// abandoned, so the run can terminate instead of waiting forever.
    pub(crate) fn abandon_unreachable_tasks(&mut self) {
        let n = self.sim.wl.len();
        loop {
            let mut changed = false;
            for k in 0..n {
                if self.done_tasks[k] || self.abandoned_tasks[k] {
                    continue;
                }
                let t = &self.sim.wl.tasks()[k];
                let tile_gone = self.tiles[t.tile.index()].faulted.is_some();
                let dep_gone = t.deps.iter().any(|d| self.abandoned_tasks[d.0]);
                if tile_gone || dep_gone {
                    self.abandoned_tasks[k] = true;
                    self.abandoned += 1;
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }
}
