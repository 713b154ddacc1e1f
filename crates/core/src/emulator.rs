//! The behavioural coin-exchange emulator (the paper's "in-house
//! simulator", Section III).
//!
//! The emulator models an SoC as a grid of coin registers exchanging over
//! an idealized NoC (zero-load latencies; the full-SoC simulator in
//! `blitzcoin-soc` adds contention). Each tile fires on its own refresh
//! schedule, exchanges with a partner (round-robin neighbor, or a random
//! pairing every N-th exchange), and the run tracks packets, NoC cycles,
//! and the global error of Section III-E until convergence.
//!
//! This is the engine behind Figs 3 (1-way vs 4-way), 4 (vs TokenSmart),
//! 6 (dynamic timing), 7 (random pairing) and 8 (heterogeneity).

use blitzcoin_noc::{TileId, Topology};
use blitzcoin_sim::oracle::{self, Invariant, Oracle};
use blitzcoin_sim::{EventQueue, FaultPlan, SimRng, SimTime, TileFaultKind};

use crate::exchange::{four_way_allocation, pairwise_exchange_stochastic};
use crate::metrics::{global_error, worst_case_error, ConvergenceRatio};
use crate::pairing::{PairingMode, PairingState};
use crate::thermal::HotspotCap;
use crate::tile::TileState;
use crate::timing::DynamicTiming;

/// Which exchange technique the emulator runs (Fig 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Pairwise exchange with one neighbor at a time (Algorithm 2).
    OneWay,
    /// 5-tile group exchange with all four neighbors (Algorithm 1).
    FourWay,
}

blitzcoin_sim::json_unit_enum!(ExchangeMode { OneWay, FourWay });

/// Emulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmulatorConfig {
    /// Exchange technique.
    pub mode: ExchangeMode,
    /// Base refresh interval between a tile's exchanges, in NoC cycles.
    pub refresh_cycles: u64,
    /// Dynamic timing (exponential back-off); `None` = fixed interval.
    pub dynamic_timing: Option<DynamicTiming>,
    /// Random pairing for deadlock elimination.
    pub pairing: PairingMode,
    /// Convergence threshold on the global error `E` (average coins/tile).
    pub err_threshold: f64,
    /// Hard stop, in NoC cycles.
    pub max_cycles: u64,
    /// Stop once `err_threshold` is crossed (set to `false` for residual-
    /// error studies like Fig 7, which need the settled end state).
    pub stop_at_convergence: bool,
    /// Early-out: stop after this many consecutive zero-coin exchanges
    /// (the system is quiescent / deadlocked). 0 disables.
    pub quiescence_exchanges: u64,
    /// Optional local thermal cap (1-way only).
    pub hotspot_cap: Option<HotspotCap>,
}

blitzcoin_sim::json_fields!(EmulatorConfig {
    mode,
    refresh_cycles,
    dynamic_timing,
    pairing,
    err_threshold,
    max_cycles,
    stop_at_convergence,
    quiescence_exchanges,
    hotspot_cap
});

impl Default for EmulatorConfig {
    /// The optimized BlitzCoin configuration: 1-way exchange, dynamic
    /// timing, shift-register random pairing every 16 exchanges, Err < 1.
    fn default() -> Self {
        EmulatorConfig {
            mode: ExchangeMode::OneWay,
            refresh_cycles: 64,
            dynamic_timing: Some(DynamicTiming::default()),
            pairing: PairingMode::default(),
            err_threshold: 1.0,
            max_cycles: 2_000_000,
            stop_at_convergence: true,
            quiescence_exchanges: 0,
            hotspot_cap: None,
        }
    }
}

impl EmulatorConfig {
    /// The plain (un-optimized) 1-way configuration used as the Fig 6
    /// baseline: fixed refresh interval, no random pairing.
    pub fn plain_one_way() -> Self {
        EmulatorConfig {
            dynamic_timing: None,
            pairing: PairingMode::Disabled,
            ..EmulatorConfig::default()
        }
    }

    /// The plain 4-way configuration compared in Fig 3.
    pub fn plain_four_way() -> Self {
        EmulatorConfig {
            mode: ExchangeMode::FourWay,
            ..EmulatorConfig::plain_one_way()
        }
    }
}

/// The outcome of one emulator run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceResult {
    /// Whether the global error crossed the threshold.
    pub converged: bool,
    /// NoC cycles from start until convergence (or until the run ended).
    pub cycles: u64,
    /// Coin packets exchanged until convergence (or until the run ended).
    pub packets: u64,
    /// Total exchanges performed over the whole run.
    pub exchanges: u64,
    /// Global error at the start (the `start_error` of Fig 8).
    pub start_error: f64,
    /// Global error at the end of the run.
    pub final_error: f64,
    /// Worst per-tile error at the end of the run (Fig 7's metric).
    pub worst_error: f64,
    /// NoC cycles the whole run covered (== `cycles` when the run stops at
    /// convergence).
    pub total_cycles: u64,
    /// Packets injected over the whole run (== `packets` when the run
    /// stops at convergence).
    pub total_packets: u64,
}

blitzcoin_sim::json_fields!(ConvergenceResult {
    converged,
    cycles,
    packets,
    exchanges,
    start_error,
    final_error,
    worst_error,
    total_cycles,
    total_packets
});

#[derive(Debug, Clone)]
struct TileRuntime {
    neighbors: Vec<TileId>,
    rr_next: usize,
    interval: u64,
    exchange_count: u64,
    pairing: PairingState,
    /// Generation counter: events carry the generation they were scheduled
    /// under; stale events (superseded by a wake-up reschedule) are skipped.
    gen: u64,
    /// Consecutive zero-move exchanges; back-off engages only after a full
    /// rotation over all neighbors moved nothing (a single idle direction
    /// is not evidence of local convergence).
    zero_rotation: u32,
    /// Absolute cycle at (or after) which the next exchange is a random
    /// pairing. Time-based so that dynamic-timing back-off does not starve
    /// the deadlock-elimination cadence (the hardware uses a free-running
    /// counter in the always-on NoC domain).
    next_pairing: u64,
    /// Absolute cycle of the tile's currently scheduled next exchange.
    next_fire: u64,
}

/// What one exchange step did (internal).
struct StepOutcome {
    /// Total |coins| moved.
    moved: i64,
    /// Busy time of the initiating tile, in cycles.
    latency: u64,
    /// Packets injected.
    packets: u64,
    /// The pairwise partner (1-way only), for back-off wake-up.
    partner: Option<usize>,
}

/// The event-driven behavioural emulator.
#[derive(Debug, Clone)]
pub struct Emulator {
    topo: Topology,
    tiles: Vec<TileState>,
    config: EmulatorConfig,
    runtime: Vec<TileRuntime>,
    fault: FaultPlan,
    /// Per-tile fault state, populated as planned faults fire during a run.
    faulted: Vec<Option<TileFaultKind>>,
    /// Invariant auditor for the most recent run. Exchanges are zero-sum
    /// and faults only freeze or drain holdings, so the total coin ledger
    /// is checked after every exchange step (when the oracle is compiled
    /// in — see `blitzcoin_sim::oracle`).
    oracle: Oracle,
}

impl Emulator {
    /// Creates an emulator over `topo` with per-tile `max` targets
    /// (index-aligned with tile ids; `0` = inactive tile).
    ///
    /// # Panics
    /// Panics if `max.len()` differs from the tile count.
    pub fn new(topo: Topology, max: Vec<u64>, config: EmulatorConfig) -> Self {
        assert_eq!(max.len(), topo.len(), "one max target per tile");
        let tiles: Vec<TileState> = max.into_iter().map(|m| TileState::new(0, m)).collect();
        let runtime = topo
            .tiles()
            .map(|t| TileRuntime {
                neighbors: topo.neighbors(t),
                rr_next: 0,
                interval: config.refresh_cycles,
                exchange_count: 0,
                pairing: PairingState::new(),
                gen: 0,
                zero_rotation: 0,
                next_pairing: 0,
                next_fire: 0,
            })
            .collect();
        let faulted = vec![None; tiles.len()];
        Emulator {
            topo,
            tiles,
            config,
            runtime,
            fault: FaultPlan::none(),
            faulted,
            oracle: Oracle::new("core::emulator::Emulator::run", 0),
        }
    }

    /// The grid topology.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Installs a fault plan for subsequent runs (the constructor starts
    /// from [`FaultPlan::none`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan;
    }

    /// Builder-style [`Emulator::set_fault_plan`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.set_fault_plan(plan);
        self
    }

    /// The active fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// Per-tile fault state after a run (`None` = still healthy).
    pub fn faulted(&self) -> &[Option<TileFaultKind>] {
        &self.faulted
    }

    /// Current tile states.
    pub fn tiles(&self) -> &[TileState] {
        &self.tiles
    }

    /// Sets explicit coin holdings (must be index-aligned).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn init_coins(&mut self, has: &[i64]) {
        assert_eq!(has.len(), self.tiles.len(), "one coin count per tile");
        for (t, &h) in self.tiles.iter_mut().zip(has) {
            t.has = h;
        }
    }

    /// Distributes `pool` coins uniformly at random across all tiles.
    /// The resulting per-tile counts are tightly concentrated (multinomial),
    /// so this models a *mild* imbalance.
    pub fn init_random(&mut self, rng: &mut SimRng, pool: u64) {
        for t in &mut self.tiles {
            t.has = 0;
        }
        let n = self.tiles.len();
        for _ in 0..pool {
            self.tiles[rng.range_usize(0..n)].has += 1;
        }
    }

    /// The paper's "random initialization" protocol for the convergence
    /// studies (Figs 3, 4, 6, 7, 8): each tile independently draws
    /// `has ~ U[0, 2·max]` (inactive tiles draw from `U[0, 63]`), so both
    /// local and macroscopic imbalances are present and convergence
    /// requires coin transport across the die — this is what produces the
    /// √N response-time scaling.
    pub fn init_uniform_random(&mut self, rng: &mut SimRng) {
        for t in &mut self.tiles {
            let hi = if t.max > 0 {
                2 * t.max as i64
            } else {
                crate::tile::MAX_COINS_PER_TILE
            };
            t.has = rng.range_i64(0..hi + 1);
        }
    }

    /// Places the entire coin pool on one random tile: the worst-case
    /// activity-change scenario (a single tile relinquishing the whole
    /// budget). Used for transport-limited studies.
    pub fn init_concentrated(&mut self, rng: &mut SimRng, pool: u64) {
        for t in &mut self.tiles {
            t.has = 0;
        }
        let n = self.tiles.len();
        self.tiles[rng.range_usize(0..n)].has = pool as i64;
    }

    /// Total coins currently in the system.
    pub fn total_coins(&self) -> i64 {
        self.tiles.iter().map(|t| t.has).sum()
    }

    /// The invariant oracle of the most recent [`Emulator::run`] (coin
    /// conservation after every exchange commit).
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    /// Runs the emulator until convergence, quiescence, or `max_cycles`.
    ///
    /// The run is deterministic for a given `rng` state: tiles start with
    /// a random phase within one refresh interval, then fire on their own
    /// (possibly dynamically scaled) schedules.
    pub fn run(&mut self, rng: &mut SimRng) -> ConvergenceResult {
        // Arm the invariant oracle: snapshot the initial pool before the
        // first exchange. Exchanges are zero-sum, stuck tiles quarantine
        // their holdings, and fail-stopped tiles are drained by neighbors,
        // so the total is invariant over the whole run.
        self.oracle = Oracle::new("core::emulator::Emulator::run", rng.root_seed());
        let expected_total: i128 = self.tiles.iter().map(|t| i128::from(t.has)).sum();
        // Planned tile faults, earliest-per-tile, in firing order. Faults
        // activate lazily as simulated time passes them.
        self.faulted = vec![None; self.tiles.len()];
        let mut planned: Vec<(u64, usize, TileFaultKind)> = self
            .fault
            .tile_faults
            .iter()
            .filter(|f| f.tile < self.tiles.len())
            .map(|f| (f.at_cycle, f.tile, f.kind))
            .collect();
        planned.sort_unstable_by_key(|&(at, t, _)| (at, t));
        let mut struck = vec![false; self.tiles.len()];
        planned.retain(|&(_, t, _)| !std::mem::replace(&mut struck[t], true));
        let mut next_fault = 0usize;
        while next_fault < planned.len() && planned[next_fault].0 == 0 {
            let (_, t, kind) = planned[next_fault];
            next_fault += 1;
            self.faulted[t] = Some(kind);
            if kind == TileFaultKind::FailStop {
                self.tiles[t].max = 0;
            }
        }

        let ratio = ConvergenceRatio::of(&self.tiles);
        let mut targets: Vec<f64> = self.tiles.iter().map(|t| ratio.target(t)).collect();
        let n = self.tiles.len() as f64;
        let mut err_sum: f64 = self
            .tiles
            .iter()
            .zip(&targets)
            .map(|(t, &tg)| (t.has as f64 - tg).abs())
            .sum();
        let start_error = err_sum / n;

        let mut queue: EventQueue<(usize, u64)> = EventQueue::new();
        for (i, rt) in self.runtime.iter_mut().enumerate() {
            rt.interval = self.config.refresh_cycles;
            rt.rr_next = 0;
            rt.exchange_count = 0;
            rt.gen = 0;
            rt.zero_rotation = 0;
            let phase = rng.range_u64(0..self.config.refresh_cycles.max(1));
            rt.next_pairing = phase + pairing_interval(&self.config);
            rt.next_fire = phase;
            queue.schedule(SimTime::from_noc_cycles(phase), (i, 0));
        }

        let mut packets: u64 = 0;
        let mut exchanges: u64 = 0;
        let mut zero_streak: u64 = 0;
        let mut converged = false;
        let mut conv_cycles: u64 = 0;
        let mut conv_packets: u64 = 0;
        let mut end_cycles: u64 = 0;

        while let Some(ev) = queue.pop() {
            let now = ev.time.as_noc_cycles();
            if now > self.config.max_cycles {
                end_cycles = self.config.max_cycles;
                break;
            }
            let (i, gen) = ev.payload;
            // Activate every planned fault whose time has come. A
            // fail-stopped tile's target drops to zero (its coins are
            // drainable by neighbors), so the error ledger is rebuilt
            // against the survivors' new fair share. Stuck tiles keep
            // their max and their coins: the quarantined budget shows up
            // as residual error, which is the point.
            while next_fault < planned.len() && planned[next_fault].0 <= now {
                let (_, t, kind) = planned[next_fault];
                next_fault += 1;
                self.faulted[t] = Some(kind);
                if kind == TileFaultKind::FailStop {
                    self.tiles[t].max = 0;
                    let ratio = ConvergenceRatio::of(&self.tiles);
                    err_sum = 0.0;
                    for (k, tg) in targets.iter_mut().enumerate() {
                        *tg = ratio.target(&self.tiles[k]);
                        err_sum += (self.tiles[k].has as f64 - *tg).abs();
                    }
                }
            }
            if gen != self.runtime[i].gen {
                continue; // superseded by a wake-up reschedule
            }
            if self.faulted[i].is_some() {
                continue; // a faulted tile initiates nothing, ever again
            }
            end_cycles = now;
            self.runtime[i].exchange_count += 1;
            exchanges += 1;

            let outcome = match self.config.mode {
                ExchangeMode::OneWay => self.one_way_step(i, now, rng, &targets, &mut err_sum),
                ExchangeMode::FourWay => self.four_way_step(i, &targets, &mut err_sum),
            };
            if oracle::enabled() {
                let actual: i128 = self.tiles.iter().map(|t| i128::from(t.has)).sum();
                let mode = self.config.mode;
                self.oracle.check_eq_i128(
                    Invariant::CoinConservation,
                    now,
                    || format!("{mode:?} exchange initiated by tile {i}"),
                    expected_total,
                    actual,
                );
            }
            packets += outcome.packets;
            let significant = match self.config.dynamic_timing {
                Some(dt) => dt.is_significant(outcome.moved),
                None => outcome.moved != 0,
            };

            if significant {
                zero_streak = 0;
            } else {
                zero_streak += 1;
            }

            if !converged && err_sum / n < self.config.err_threshold {
                converged = true;
                conv_cycles = now + outcome.latency;
                conv_packets = packets;
                if self.config.stop_at_convergence {
                    end_cycles = conv_cycles;
                    break;
                }
            }
            if self.config.quiescence_exchanges > 0
                && zero_streak >= self.config.quiescence_exchanges
            {
                break;
            }

            // Schedule this tile's next exchange.
            let rt = &mut self.runtime[i];
            rt.interval = match self.config.dynamic_timing {
                Some(dt) => {
                    if !significant {
                        rt.zero_rotation += 1;
                        let rotation = rt.neighbors.len().max(1) as u32;
                        if rt.zero_rotation.is_multiple_of(rotation) {
                            dt.next_interval(rt.interval, 0)
                        } else {
                            rt.interval
                        }
                    } else {
                        rt.zero_rotation = 0;
                        dt.next_interval(rt.interval, outcome.moved)
                    }
                }
                None => self.config.refresh_cycles,
            };
            let next = now + outcome.latency + rt.interval;
            rt.gen += 1;
            rt.next_fire = next;
            queue.schedule(SimTime::from_noc_cycles(next), (i, rt.gen));

            // A coin-moving exchange also resets the partner's back-off:
            // its FSM participated and observed the movement, so it should
            // return to the fast refresh rate (otherwise a backed-off tile
            // would stall the coin wavefront).
            if significant {
                if let (Some(dt), Some(p)) = (self.config.dynamic_timing, outcome.partner) {
                    // (never wake a faulted partner: corpses stay silent)
                    if self.faulted[p].is_none() {
                        let rp = &mut self.runtime[p];
                        rp.zero_rotation = 0;
                        rp.interval = dt.next_interval(rp.interval, outcome.moved);
                        let candidate = now + outcome.latency + rp.interval;
                        if candidate < rp.next_fire {
                            rp.gen += 1;
                            rp.next_fire = candidate;
                            queue.schedule(SimTime::from_noc_cycles(candidate), (p, rp.gen));
                        }
                    }
                }
            }
        }

        let final_error = global_error(&self.tiles);
        let worst_error = worst_case_error(&self.tiles);
        ConvergenceResult {
            converged,
            cycles: if converged { conv_cycles } else { end_cycles },
            packets: if converged { conv_packets } else { packets },
            exchanges,
            start_error,
            final_error,
            worst_error,
            total_cycles: end_cycles,
            total_packets: packets,
        }
    }

    /// One 1-way exchange for tile `i`.
    fn one_way_step(
        &mut self,
        i: usize,
        now: u64,
        rng: &mut SimRng,
        targets: &[f64],
        err_sum: &mut f64,
    ) -> StepOutcome {
        let tile = TileId(i);
        let pairing_iv = pairing_interval(&self.config);
        let rt = &mut self.runtime[i];
        let is_pairing = pairing_iv > 0 && now >= rt.next_pairing;
        let partner = if is_pairing {
            rt.next_pairing = now + pairing_iv;
            rt.pairing
                .select_partner(self.config.pairing, &self.topo, tile, rng)
        } else {
            None
        };
        let partner = match partner {
            Some(p) => p,
            None => {
                if rt.neighbors.is_empty() {
                    return StepOutcome {
                        moved: 0,
                        latency: per_message_latency(1),
                        packets: 0,
                        partner: None,
                    };
                }
                let p = rt.neighbors[rt.rr_next % rt.neighbors.len()];
                rt.rr_next = (rt.rr_next + 1) % rt.neighbors.len();
                p
            }
        };

        let j = partner.index();
        if self.faulted[j] == Some(TileFaultKind::Stuck) {
            // A wedged partner holds its coins and never answers: the
            // status request times out and nothing moves. (A fail-stopped
            // partner is different — its coin register lives in the
            // always-on NoC domain, so the normal path below drains it
            // via the max=0 rule.)
            let hops = self.topo.hop_distance(tile, partner).max(1) as u64;
            return StepOutcome {
                moved: 0,
                latency: 2 * per_message_latency(hops) + 1,
                packets: 1,
                partner: None,
            };
        }
        let out = pairwise_exchange_stochastic(self.tiles[i], self.tiles[j], rng);
        let mut moved = out.moved;
        // Local thermal cap: the receiving side may reject the transfer.
        if let Some(cap) = self.config.hotspot_cap {
            let (receiver, incoming) = if out.moved >= 0 {
                (tile, out.moved)
            } else {
                (partner, -out.moved)
            };
            if cap.rejects(&self.topo, &self.tiles, receiver, incoming) {
                moved = 0;
            }
        }
        if moved != 0 {
            let old_err = (self.tiles[i].has as f64 - targets[i]).abs()
                + (self.tiles[j].has as f64 - targets[j]).abs();
            self.tiles[i].has += moved;
            self.tiles[j].has -= moved;
            let new_err = (self.tiles[i].has as f64 - targets[i]).abs()
                + (self.tiles[j].has as f64 - targets[j]).abs();
            *err_sum += new_err - old_err;
        }
        // status + update message round trip, plus one cycle of FSM compute
        let hops = self.topo.hop_distance(tile, partner).max(1) as u64;
        // Message jitter now comes from the fault plan (stateless in the
        // packet identity, so it never perturbs the main RNG stream).
        let jitter = self.fault.msg_jitter(i, j, now);
        let latency = 2 * per_message_latency(hops) + 1 + jitter;
        StepOutcome {
            moved: moved.abs(),
            latency,
            packets: 2,
            partner: Some(j),
        }
    }

    /// One 4-way group exchange for tile `i`. Stuck neighbors are skipped
    /// (they never answer the request); fail-stopped ones participate as
    /// drainable max=0 registers, same as in the 1-way path.
    fn four_way_step(&mut self, i: usize, targets: &[f64], err_sum: &mut f64) -> StepOutcome {
        let neighbors: Vec<TileId> = self.runtime[i]
            .neighbors
            .iter()
            .copied()
            .filter(|t| self.faulted[t.index()] != Some(TileFaultKind::Stuck))
            .collect();
        if neighbors.is_empty() {
            return StepOutcome {
                moved: 0,
                latency: per_message_latency(1),
                packets: 0,
                partner: None,
            };
        }
        let mut idx = Vec::with_capacity(neighbors.len() + 1);
        idx.push(i);
        idx.extend(neighbors.iter().map(|t| t.index()));
        let group: Vec<TileState> = idx.iter().map(|&k| self.tiles[k]).collect();
        let alloc = four_way_allocation(&group);
        let mut moved_total = 0;
        for (slot, &k) in idx.iter().enumerate() {
            let delta = alloc[slot] - self.tiles[k].has;
            if delta != 0 {
                let old = (self.tiles[k].has as f64 - targets[k]).abs();
                self.tiles[k].has = alloc[slot];
                let new = (self.tiles[k].has as f64 - targets[k]).abs();
                *err_sum += new - old;
                moved_total += delta.abs();
            }
        }
        // request + status + update to each neighbor (3 messages/neighbor).
        // All 12 messages serialize through the tile's single NoC injection
        // port (one flit per cycle per phase), and the many-to-one
        // arithmetic needs two extra cycles — this is the 4-way method's
        // higher per-exchange cost the paper cites when preferring 1-way.
        let packets = 3 * neighbors.len() as u64;
        let latency = 3 * (per_message_latency(1) + neighbors.len() as u64 - 1) + 2;
        StepOutcome {
            moved: moved_total,
            latency,
            packets,
            partner: None,
        }
    }
}

/// Zero-load latency of one coin message over `hops` hops
/// (inject + hops + eject), in NoC cycles.
fn per_message_latency(hops: u64) -> u64 {
    1 + hops + 1
}

/// Wall-clock interval between a tile's random pairings: the configured
/// period (in exchanges) times the base refresh interval. 0 = disabled.
fn pairing_interval(config: &EmulatorConfig) -> u64 {
    match config.pairing.period() {
        Some(p) => p as u64 * config.refresh_cycles.max(1),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one(d: usize, config: EmulatorConfig, seed: u64) -> (ConvergenceResult, Emulator) {
        let topo = Topology::torus(d, d);
        let n = topo.len();
        let mut emu = Emulator::new(topo, vec![32; n], config);
        let mut rng = SimRng::seed(seed);
        emu.init_random(&mut rng, (16 * n) as u64);
        let r = emu.run(&mut rng);
        (r, emu)
    }

    #[test]
    fn converges_on_small_grid() {
        let (r, emu) = run_one(4, EmulatorConfig::default(), 1);
        assert!(r.converged, "{r:?}");
        assert!(r.cycles > 0 && r.packets > 0);
        assert!(r.final_error < 1.0);
        assert_eq!(emu.total_coins(), 16 * 16);
    }

    #[test]
    fn conserves_coins_exactly() {
        for seed in 0..5 {
            let (_, emu) = run_one(6, EmulatorConfig::default(), seed);
            assert_eq!(emu.total_coins(), 16 * 36, "seed {seed}");
        }
    }

    #[test]
    fn four_way_converges_too() {
        let (r, _) = run_one(6, EmulatorConfig::plain_four_way(), 2);
        assert!(r.converged, "{r:?}");
    }

    #[test]
    fn four_way_needs_fewer_exchanges_but_more_packets_each() {
        let (r1, _) = run_one(8, EmulatorConfig::plain_one_way(), 3);
        let (r4, _) = run_one(8, EmulatorConfig::plain_four_way(), 3);
        assert!(r1.converged && r4.converged);
        assert!(
            r4.exchanges < r1.exchanges,
            "4-way carries more info per exchange: {} vs {}",
            r4.exchanges,
            r1.exchanges
        );
    }

    #[test]
    fn convergence_time_grows_sublinearly_with_n() {
        // sqrt(N) scaling: quadrupling N (doubling d) should far less than
        // quadruple the convergence time.
        let avg = |d: usize| -> f64 {
            (0..5)
                .map(|s| run_one(d, EmulatorConfig::default(), 100 + s).0.cycles as f64)
                .sum::<f64>()
                / 5.0
        };
        let t5 = avg(5);
        let t10 = avg(10);
        assert!(
            t10 < 3.0 * t5,
            "expected sublinear growth: t5={t5}, t10={t10}"
        );
    }

    #[test]
    fn dynamic_timing_speeds_convergence_and_cuts_packets() {
        // Fig 6: dynamic timing both "reduces the refresh interval"
        // (faster convergence) and "reduces the total number of packet
        // exchanges". Compared at the paper's configuration (random
        // pairing enabled on both sides, isolating the timing effect).
        let run = |dt: Option<DynamicTiming>, seed: u64| -> ConvergenceResult {
            let topo = Topology::torus(16, 16);
            let cfg = EmulatorConfig {
                dynamic_timing: dt,
                ..EmulatorConfig::default()
            };
            let mut emu = Emulator::new(topo, vec![32; topo.len()], cfg);
            let mut rng = SimRng::seed(seed);
            emu.init_uniform_random(&mut rng);
            emu.run(&mut rng)
        };
        let (mut pc, mut pp, mut dc, mut dp) = (0u64, 0u64, 0u64, 0u64);
        for seed in 0..3 {
            let plain = run(None, 200 + seed);
            let dynamic = run(Some(DynamicTiming::default()), 200 + seed);
            assert!(plain.converged && dynamic.converged);
            pc += plain.cycles;
            pp += plain.packets;
            dc += dynamic.cycles;
            dp += dynamic.packets;
        }
        assert!(
            dc * 3 < pc * 2,
            "convergence should be >1.5x faster: {dc} vs {pc}"
        );
        // Packets to convergence stay in the same ballpark (quantized
        // diffusion needs a fixed amount of exchange work; the traffic
        // saving shows up in steady state — see the next test).
        assert!(
            dp as f64 <= 1.35 * pp as f64,
            "packets must not blow up: {dp} vs {pp}"
        );
    }

    #[test]
    fn dynamic_timing_cuts_steady_state_traffic() {
        // Converged areas back off and stop sending "unnecessary
        // messages": over a fixed horizon that is mostly steady state,
        // the dynamic scheme injects far fewer packets.
        let run = |dt: Option<DynamicTiming>, seed: u64| -> u64 {
            let topo = Topology::torus(8, 8);
            let cfg = EmulatorConfig {
                dynamic_timing: dt,
                stop_at_convergence: false,
                max_cycles: 30_000,
                ..EmulatorConfig::default()
            };
            let mut emu = Emulator::new(topo, vec![32; 64], cfg);
            let mut rng = SimRng::seed(seed);
            emu.init_uniform_random(&mut rng);
            emu.run(&mut rng).total_packets
        };
        let plain = run(None, 300);
        let dynamic = run(Some(DynamicTiming::default()), 300);
        assert!(
            (dynamic as f64) < 0.5 * plain as f64,
            "steady-state traffic should drop: {dynamic} vs {plain}"
        );
    }

    #[test]
    fn random_pairing_eliminates_residual_error() {
        // Deadlock scenario of Fig 5: an island of inactive tiles holds
        // coins that only random pairing can drain.
        let topo = Topology::mesh(5, 5);
        // active tiles only in the left column; inactive elsewhere
        let max: Vec<u64> = topo
            .tiles()
            .map(|t| if topo.coord(t).x == 0 { 32 } else { 0 })
            .collect();
        let build = |pairing| EmulatorConfig {
            pairing,
            err_threshold: 1.0,
            max_cycles: 5_000_000,
            quiescence_exchanges: 2_000,
            ..EmulatorConfig::default()
        };
        // all coins start on the far (inactive) right column
        let mut has = vec![0i64; 25];
        for t in topo.tiles() {
            if topo.coord(t).x == 4 {
                has[t.index()] = 20;
            }
        }
        let mut with = Emulator::new(topo, max.clone(), build(PairingMode::default()));
        with.init_coins(&has);
        let mut rng = SimRng::seed(7);
        let rw = with.run(&mut rng);
        assert!(rw.converged, "random pairing must drain the island: {rw:?}");
        // ...whereas without random pairing the island deadlocks: only
        // inactive tiles border the coins, so no exchange ever moves them.
        let mut without = Emulator::new(topo, max, build(PairingMode::Disabled));
        without.init_coins(&has);
        let mut rng2 = SimRng::seed(7);
        let r0 = without.run(&mut rng2);
        assert!(!r0.converged, "deadlock expected without pairing: {r0:?}");
        assert!(r0.worst_error >= 19.0);
    }

    #[test]
    fn respects_max_cycles() {
        let cfg = EmulatorConfig {
            err_threshold: 0.0, // unreachable due to quantization
            max_cycles: 5_000,
            ..EmulatorConfig::default()
        };
        let (r, _) = run_one(6, cfg, 9);
        assert!(!r.converged);
        assert!(r.cycles <= 5_000);
    }

    #[test]
    fn hotspot_cap_limits_neighborhood_coins() {
        let topo = Topology::torus(4, 4);
        let cap = HotspotCap::new(60);
        let cfg = EmulatorConfig {
            hotspot_cap: Some(cap),
            stop_at_convergence: false,
            max_cycles: 50_000,
            quiescence_exchanges: 200,
            ..EmulatorConfig::default()
        };
        let mut emu = Emulator::new(topo, vec![32; 16], cfg);
        let mut rng = SimRng::seed(13);
        emu.init_random(&mut rng, 150);
        emu.run(&mut rng);
        for t in topo.tiles() {
            let total = cap.neighborhood_total(&topo, emu.tiles(), t);
            // Initial random placement may violate the cap, but exchanges
            // must not push a compliant neighborhood far beyond it; allow
            // the one-transfer slack inherent to reject-on-receive.
            assert!(total <= 60 + 16, "neighborhood of {t} holds {total} coins");
        }
    }

    #[test]
    fn converges_under_heavy_latency_jitter() {
        // failure injection: congestion-like random message delays must
        // degrade timing only, never correctness
        let cfg = EmulatorConfig {
            max_cycles: 5_000_000,
            ..EmulatorConfig::default()
        };
        let (clean, _) = run_one(8, EmulatorConfig::default(), 17);
        let topo = Topology::torus(8, 8);
        // up to 512 extra cycles per coin message
        let mut emu = Emulator::new(topo, vec![32; 64], cfg).with_fault_plan(FaultPlan {
            msg_jitter_cycles: 513,
            ..FaultPlan::none()
        });
        let mut rng = SimRng::seed(17);
        emu.init_uniform_random(&mut rng);
        let jittered = emu.run(&mut rng);
        assert!(jittered.converged, "{jittered:?}");
        assert_eq!(
            emu.total_coins(),
            emu.tiles().iter().map(|t| t.has).sum::<i64>()
        );
        assert!(
            jittered.cycles >= clean.cycles,
            "jitter cannot speed things up"
        );
    }

    #[test]
    fn fail_stop_mid_run_is_drained_and_survivors_converge() {
        use blitzcoin_sim::TileFault;
        let topo = Topology::torus(6, 6);
        // Strike mid-diffusion (cycle 500) and keep running past the
        // convergence instant so the corpse is fully drained, not merely
        // below the average-error threshold.
        let cfg = EmulatorConfig {
            stop_at_convergence: false,
            max_cycles: 200_000,
            quiescence_exchanges: 2_000,
            ..EmulatorConfig::default()
        };
        let mut emu = Emulator::new(topo, vec![32; 36], cfg).with_fault_plan(FaultPlan {
            tile_faults: vec![TileFault {
                tile: 10,
                at_cycle: 500,
                kind: TileFaultKind::FailStop,
            }],
            ..FaultPlan::default()
        });
        let mut rng = SimRng::seed(31);
        emu.init_uniform_random(&mut rng);
        let total = emu.total_coins();
        let r = emu.run(&mut rng);
        assert!(r.converged, "{r:?}");
        assert_eq!(emu.faulted()[10], Some(TileFaultKind::FailStop));
        assert_eq!(emu.tiles()[10].has, 0, "corpse must be drained");
        assert_eq!(emu.total_coins(), total, "reclamation conserves coins");
    }

    #[test]
    fn stuck_tile_quarantines_its_coins() {
        use blitzcoin_sim::TileFault;
        let topo = Topology::torus(5, 5);
        let cfg = EmulatorConfig {
            stop_at_convergence: false,
            max_cycles: 100_000,
            quiescence_exchanges: 2_000,
            ..EmulatorConfig::default()
        };
        let mut emu = Emulator::new(topo, vec![32; 25], cfg).with_fault_plan(FaultPlan {
            tile_faults: vec![TileFault {
                tile: 12,
                at_cycle: 0,
                kind: TileFaultKind::Stuck,
            }],
            ..FaultPlan::default()
        });
        let mut has = vec![16i64; 25];
        has[12] = 40; // over-provisioned and wedged: coins are trapped
        emu.init_coins(&has);
        let total = emu.total_coins();
        emu.run(&mut rng_for(5));
        assert_eq!(emu.tiles()[12].has, 40, "stuck tile holds its coins");
        assert_eq!(emu.total_coins(), total);
    }

    fn rng_for(seed: u64) -> SimRng {
        SimRng::seed(seed)
    }

    #[test]
    fn start_error_reported() {
        let (r, _) = run_one(6, EmulatorConfig::default(), 21);
        assert!(r.start_error > r.final_error);
        assert!(r.start_error > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = run_one(6, EmulatorConfig::default(), 42);
        let (b, _) = run_one(6, EmulatorConfig::default(), 42);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "one max target per tile")]
    fn wrong_max_len_panics() {
        Emulator::new(Topology::mesh(2, 2), vec![1; 3], EmulatorConfig::default());
    }
}
