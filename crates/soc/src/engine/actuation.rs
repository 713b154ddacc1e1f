//! DVFS targets, task progress, and trace recording.
//!
//! Power, coin, and frequency state changes flow through here for every
//! scheme: a policy decides *what* to command, this module models *when*
//! it takes effect (the UVFR actuation delay) and keeps the traces the
//! paper's figures are built from: per-tile power on every run, coin and
//! frequency traces only for a unit that declared tile traces.

use blitzcoin_sim::{SimTime, TileFaultKind};

use crate::engine::{coupling, Core, EngineClocks, Ev};

/// UVFR actuation delay from a frequency-target write to the tile clock
/// settling (LDO slew + TDC windows), in NoC cycles (~160 ns); constant
/// and parallel across tiles.
pub(crate) const ACTUATION_CYCLES: u64 = 128;

impl Core<'_> {
    /// kcycles of work per microsecond at the tile's current clock.
    fn rate(&self, ti: usize) -> f64 {
        let rt = &self.tiles[ti];
        let model = rt.model.as_ref().expect("accelerator tile");
        if rt.freq > 0.0 {
            rt.freq / 1000.0
        } else {
            // idle-floor clock: F_min scaled down 7.5x at minimum voltage
            model.f_min() / 7.5 / 1000.0
        }
    }

    pub(crate) fn tile_power(&self, ti: usize) -> f64 {
        let rt = &self.tiles[ti];
        if rt.faulted == Some(TileFaultKind::FailStop) {
            return 0.0;
        }
        match (&rt.model, &rt.running) {
            (Some(m), Some(_)) if rt.freq > 0.0 => m.power_at(rt.freq),
            (Some(m), _) => m.idle_power(),
            (None, _) => 0.0,
        }
    }

    pub(crate) fn record_power(&mut self, ti: usize) {
        let slot = self.managed_slot[ti];
        if slot != usize::MAX {
            let p = self.tile_power(ti);
            self.power_traces[slot].record(self.now, p);
        }
    }

    // `coin_traces` and `freq_traces` are empty unless the unit declared
    // tile traces, and an unmanaged tile's slot is out of range, so one
    // bounds check covers both cases.
    pub(crate) fn record_coins(&mut self, ti: usize) {
        if let Some(tr) = self.coin_traces.get_mut(self.managed_slot[ti]) {
            tr.record(self.now, self.tiles[ti].has as f64);
        }
    }

    pub(crate) fn record_freq(&mut self, ti: usize) {
        if let Some(tr) = self.freq_traces.get_mut(self.managed_slot[ti]) {
            tr.record(self.now, self.tiles[ti].freq);
        }
    }

    /// Updates task progress on `ti` at the current time and rate.
    pub(crate) fn update_progress(&mut self, ti: usize) {
        let rate = if self.tiles[ti].running.is_some() {
            self.rate(ti)
        } else {
            return;
        };
        let now = self.now;
        if let Some(run) = self.tiles[ti].running.as_mut() {
            let dt = (now - run.last).as_us_f64();
            run.remaining_kcycles = (run.remaining_kcycles - dt * rate).max(0.0);
            run.last = now;
        }
    }

    pub(crate) fn schedule_completion(&mut self, ti: usize) {
        self.tiles[ti].done_gen += 1;
        let gen = self.tiles[ti].done_gen;
        let rate = if self.tiles[ti].running.is_some() {
            self.rate(ti)
        } else {
            return;
        };
        let remaining = self.tiles[ti]
            .running
            .as_ref()
            .expect("running")
            .remaining_kcycles;
        let dur = SimTime::from_us_f64((remaining / rate).max(0.0));
        self.queue
            .schedule(self.now + dur, Ev::TaskDone { tile: ti, gen });
    }

    /// Commands a new frequency target; the tile clock follows after the
    /// UVFR actuation delay.
    pub(crate) fn set_target(&mut self, ti: usize, f_mhz: f64) {
        if (self.tiles[ti].target - f_mhz).abs() < 1e-9 {
            return;
        }
        self.tiles[ti].target = f_mhz;
        self.tiles[ti].target_centi = (f_mhz * 100.0).round() as u64;
        self.tiles[ti].actuate_gen += 1;
        let gen = self.tiles[ti].actuate_gen;
        let delay = self.clocks.noc.span(ACTUATION_CYCLES);
        self.queue
            .schedule(self.now + delay, Ev::Actuate { tile: ti, gen });
    }

    /// The RP/AP `max` target for a managed tile when active: RP scales
    /// targets so the hungriest tile's is the full 6-bit range (the
    /// proportions, not the coin value, encode the policy).
    pub(crate) fn policy_max(&self, ti: usize) -> u64 {
        let model = self.tiles[ti].model.as_ref().expect("managed tile");
        let base = self
            .cfg()
            .policy
            .max_target(model.p_max(), self.sim.top_pmax);
        // a thermally throttled tile's target is cut until it cools
        match &self.thermal {
            Some(th) if th.throttled[ti] => {
                ((base as f64 * coupling::THROTTLE_MAX_FRAC).round() as u64).max(1)
            }
            _ => base,
        }
    }

    /// Applies a coin count to a managed tile's frequency target via its
    /// LUT (only meaningful while it runs; idle tiles clock-gate). A
    /// thermally throttled tile may hold surplus coins but cannot spend
    /// above its cut target — the hardware cap overrides the economy
    /// until the tile cools (or its neighbors drain the surplus).
    pub(crate) fn apply_coins(&mut self, ti: usize) {
        if self.tiles[ti].running.is_some() {
            let f = {
                let rt = &self.tiles[ti];
                let coins = match &self.thermal {
                    Some(th) if th.throttled[ti] => rt.has.min(rt.max as i64),
                    _ => rt.has,
                };
                rt.lut.as_ref().expect("managed").f_target(coins as i32)
            };
            self.set_target(ti, f);
        } else {
            self.set_target(ti, 0.0);
        }
    }

    /// A commanded frequency target settles: the tile clock changes, the
    /// traces record it, and the budget-ceiling/VF-legality oracle runs.
    pub(crate) fn on_actuate(&mut self, ti: usize, gen: u64) {
        if gen == self.tiles[ti].actuate_gen {
            self.update_progress(ti);
            self.tiles[ti].freq = self.tiles[ti].target;
            let f = self.tiles[ti].freq;
            // The tile's clock divider follows the settled frequency:
            // the domain is pure derived state (divider, no phase), so
            // retuning it cannot perturb any already-scheduled event.
            self.clocks.tile[ti] = EngineClocks::tile_domain(self.tiles[ti].model.as_ref(), f);
            self.record_freq(ti);
            self.record_power(ti);
            self.audit_actuation(ti);
            self.schedule_completion(ti);
        }
    }
}
