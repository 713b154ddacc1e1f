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
//!
//! Every emulator time is a whole NoC cycle, so the run loop keeps its
//! pending exchanges on a private `CycleWheel` (one FIFO chain per
//! cycle) rather than on the SoC engine's picosecond `EventQueue`; it pops
//! in the same `(time, sequence)` order.

use std::cell::RefCell;

use blitzcoin_noc::{Direction, TileId, Topology};
use blitzcoin_sim::oracle::{self, Invariant, Oracle};
use blitzcoin_sim::SimRng;

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

#[derive(Debug, Clone)]
struct TileRuntime {
    /// The tile's exchange neighbors, [`Topology::neighbors`] order, in
    /// the first `degree` slots: a tile has at most four, so they live
    /// inline rather than in a per-tile allocation.
    neighbors: [TileId; 4],
    /// Physical-mesh hop distance to each neighbor (a wrap-around
    /// neighbor is a whole row or column away; see [`Topology::torus`]).
    hops: [u64; 4],
    degree: usize,
    /// Round-robin cursor into `neighbors`, always below `degree`.
    rr_next: usize,
    interval: u64,
    pairing: PairingState,
    /// Generation counter: events carry the generation they were scheduled
    /// under; stale events (superseded by a wake-up reschedule) are skipped.
    gen: u64,
    /// Consecutive zero-move exchanges within the current rotation;
    /// back-off engages each time a full rotation over all neighbors moved
    /// nothing (a single idle direction is not evidence of local
    /// convergence), and the count then starts over.
    zero_rotation: u32,
    /// Absolute cycle at (or after) which the next exchange is a random
    /// pairing. Time-based so that dynamic-timing back-off does not starve
    /// the deadlock-elimination cadence (the hardware uses a free-running
    /// counter in the always-on NoC domain).
    next_pairing: u64,
    /// Absolute cycle of the tile's currently scheduled next exchange.
    next_fire: u64,
}

impl TileRuntime {
    /// Fresh run state for `tile`, its neighbor list built in place: the
    /// same N, E, S, W probe with self and repeats dropped as
    /// [`Topology::neighbors`], without that method's allocation.
    fn new(topo: &Topology, tile: TileId, refresh_cycles: u64) -> Self {
        let mut rt = TileRuntime {
            neighbors: [tile; 4],
            hops: [0; 4],
            degree: 0,
            rr_next: 0,
            interval: refresh_cycles,
            pairing: PairingState::new(),
            gen: 0,
            zero_rotation: 0,
            next_pairing: 0,
            next_fire: 0,
        };
        for dir in Direction::ALL {
            if let Some(nb) = topo.neighbor(tile, dir) {
                if nb != tile && !rt.neighbors().contains(&nb) {
                    rt.neighbors[rt.degree] = nb;
                    rt.hops[rt.degree] = topo.hop_distance(tile, nb) as u64;
                    rt.degree += 1;
                }
            }
        }
        rt
    }

    /// The tile's exchange neighbors.
    fn neighbors(&self) -> &[TileId] {
        &self.neighbors[..self.degree]
    }
}

/// End-of-chain marker in [`CycleWheel`]'s slab links.
const NIL: u32 = u32::MAX;

/// One pending exchange on the [`CycleWheel`].
#[derive(Debug, Clone, Copy)]
struct WheelEntry {
    cycle: u64,
    tile: usize,
    gen: u64,
    /// The next entry of the same cycle's chain (or of the free list).
    next: u32,
}

/// The emulator's event queue: a calendar wheel of whole NoC cycles.
///
/// A power-of-two ring holds one FIFO chain per cycle, threaded through a
/// single slab of entries, and a bitmap of non-empty slots finds the next
/// pending cycle with `trailing_zeros`. Every pending entry lies within
/// one ring length of the latest pop, so each slot holds a single cycle,
/// and a schedule that would land past the ring first grows it. Pops come
/// out in exactly the `(time, sequence)` order of a FIFO
/// `blitzcoin_sim::EventQueue`: emulator times are whole cycles, nothing
/// is scheduled before the latest pop, and a chain is appended in
/// scheduling order.
#[derive(Debug, Default)]
struct CycleWheel {
    /// First slab index of each slot's chain (`NIL` when empty).
    head: Vec<u32>,
    /// Last slab index of each non-empty slot's chain.
    tail: Vec<u32>,
    /// One bit per slot, set while its chain is non-empty.
    occupied: Vec<u64>,
    /// Every entry, pending or free; freed entries chain from `free`.
    slab: Vec<WheelEntry>,
    free: u32,
    /// The cycle of the latest pop.
    now: u64,
    len: usize,
}

impl CycleWheel {
    /// Empties the wheel, rewinds it to cycle 0 and sizes the ring for
    /// schedules up to `horizon` cycles ahead, keeping every allocation.
    fn reset(&mut self, horizon: u64) {
        let slots = ring_slots(horizon);
        self.head.clear();
        self.head.resize(slots, NIL);
        self.tail.clear();
        self.tail.resize(slots, NIL);
        self.occupied.clear();
        self.occupied.resize(slots / 64, 0);
        self.slab.clear();
        self.free = NIL;
        self.now = 0;
        self.len = 0;
    }

    /// Schedules `tile`'s exchange of generation `gen` at `cycle`, after
    /// every entry already pending for that cycle.
    ///
    /// # Panics
    /// Panics if `cycle` is before the latest pop.
    fn schedule(&mut self, cycle: u64, tile: usize, gen: u64) {
        let delay = cycle
            .checked_sub(self.now)
            .expect("CycleWheel: schedule before the latest pop");
        if delay >= self.head.len() as u64 {
            self.grow(delay);
        }
        let entry = WheelEntry {
            cycle,
            tile,
            gen,
            next: NIL,
        };
        let idx = if self.free == NIL {
            self.slab.push(entry);
            u32::try_from(self.slab.len() - 1).expect("CycleWheel: slab index overflow")
        } else {
            let idx = self.free;
            self.free = self.slab[idx as usize].next;
            self.slab[idx as usize] = entry;
            idx
        };
        self.link(idx);
        self.len += 1;
    }

    /// Removes and returns the earliest pending `(cycle, tile, gen)`.
    fn pop(&mut self) -> Option<(u64, usize, u64)> {
        if self.len == 0 {
            return None;
        }
        let slot = self.next_occupied(self.now as usize & (self.head.len() - 1));
        let idx = self.head[slot];
        let e = self.slab[idx as usize];
        self.head[slot] = e.next;
        if e.next == NIL {
            self.occupied[slot >> 6] &= !(1 << (slot & 63));
        }
        self.slab[idx as usize].next = self.free;
        self.free = idx;
        self.len -= 1;
        self.now = e.cycle;
        Some((e.cycle, e.tile, e.gen))
    }

    /// The first non-empty slot at or after `start`, wrapping around the
    /// ring. The wheel must not be empty.
    fn next_occupied(&self, start: usize) -> usize {
        let words = self.occupied.len();
        let mut w = start >> 6;
        let mut bits = self.occupied[w] & (!0u64 << (start & 63));
        while bits == 0 {
            w = (w + 1) & (words - 1);
            bits = self.occupied[w];
        }
        (w << 6) | bits.trailing_zeros() as usize
    }

    /// Appends slab entry `idx` to the chain of its cycle's slot.
    fn link(&mut self, idx: u32) {
        let slot = self.slab[idx as usize].cycle as usize & (self.head.len() - 1);
        self.slab[idx as usize].next = NIL;
        if self.head[slot] == NIL {
            self.head[slot] = idx;
            self.occupied[slot >> 6] |= 1 << (slot & 63);
        } else {
            self.slab[self.tail[slot] as usize].next = idx;
        }
        self.tail[slot] = idx;
    }

    /// Re-buckets every pending entry onto a ring long enough for a
    /// schedule `delay` cycles ahead. Chains move in time order and keep
    /// their internal order, so the pop order is unchanged.
    fn grow(&mut self, delay: u64) {
        let old_head = std::mem::take(&mut self.head);
        let old_mask = old_head.len() - 1;
        let slots = ring_slots(delay).max(2 * old_head.len());
        self.head = vec![NIL; slots];
        self.tail.clear();
        self.tail.resize(slots, NIL);
        self.occupied.clear();
        self.occupied.resize(slots / 64, 0);
        for k in 0..old_head.len() {
            let mut idx = old_head[(self.now as usize + k) & old_mask];
            while idx != NIL {
                let next = self.slab[idx as usize].next;
                self.link(idx);
                idx = next;
            }
        }
    }
}

/// Ring length for schedules up to `horizon` cycles past the latest pop:
/// a power of two (slot = cycle mod length), at least one bitmap word.
///
/// # Panics
/// Panics if no power of two above `horizon` fits in `usize`.
fn ring_slots(horizon: u64) -> usize {
    usize::try_from(horizon)
        .ok()
        .and_then(|h| h.checked_add(1)?.checked_next_power_of_two())
        .expect("CycleWheel: horizon too long for a ring")
        .max(64)
}

thread_local! {
    /// Recycled wheel allocation. Sweeps run thousands of trials per
    /// worker thread; a reset wheel pops exactly like a fresh one, so
    /// reuse cannot perturb determinism.
    static WHEEL_POOL: RefCell<Option<CycleWheel>> = const { RefCell::new(None) };
}

/// Takes the thread's recycled wheel, reset for `horizon`, or a new one
/// the first time.
fn take_wheel(horizon: u64) -> CycleWheel {
    let mut wheel = WHEEL_POOL
        .with(|p| p.borrow_mut().take())
        .unwrap_or_default();
    wheel.reset(horizon);
    wheel
}

/// Hands a finished run's wheel back to the thread for the next trial.
fn recycle_wheel(wheel: CycleWheel) {
    WHEEL_POOL.with(|p| *p.borrow_mut() = Some(wheel));
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
    /// Invariant auditor for the most recent run. Exchanges are zero-sum,
    /// so the total coin ledger is checked after every exchange step (when
    /// the oracle is compiled in — see `blitzcoin_sim::oracle`).
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
            .map(|t| TileRuntime::new(&topo, t, config.refresh_cycles))
            .collect();
        Emulator {
            topo,
            tiles,
            config,
            runtime,
            oracle: Oracle::new("core::emulator::Emulator::run", 0),
        }
    }

    /// The grid topology.
    pub fn topology(&self) -> Topology {
        self.topo
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
        // first exchange. Exchanges are zero-sum, so the total is invariant
        // over the whole run.
        self.oracle = Oracle::new("core::emulator::Emulator::run", rng.root_seed());
        let expected_total: i128 = self.tiles.iter().map(|t| i128::from(t.has)).sum();

        let ratio = ConvergenceRatio::of(&self.tiles);
        let targets: Vec<f64> = self.tiles.iter().map(|t| ratio.target(t)).collect();
        let n = self.tiles.len() as f64;
        let mut err_sum: f64 = self
            .tiles
            .iter()
            .zip(&targets)
            .map(|(t, &tg)| (t.has as f64 - tg).abs())
            .sum();
        let start_error = err_sum / n;

        let mut wheel = take_wheel(self.wheel_horizon());
        for (i, rt) in self.runtime.iter_mut().enumerate() {
            rt.interval = self.config.refresh_cycles;
            rt.rr_next = 0;
            rt.gen = 0;
            rt.zero_rotation = 0;
            let phase = rng.range_u64(0..self.config.refresh_cycles.max(1));
            rt.next_pairing = phase + pairing_interval(&self.config);
            rt.next_fire = phase;
            wheel.schedule(phase, i, 0);
        }

        let mut packets: u64 = 0;
        let mut exchanges: u64 = 0;
        let mut zero_streak: u64 = 0;
        let mut converged = false;
        let mut conv_cycles: u64 = 0;
        let mut conv_packets: u64 = 0;
        let mut end_cycles: u64 = 0;

        while let Some((now, i, gen)) = wheel.pop() {
            if now > self.config.max_cycles {
                end_cycles = self.config.max_cycles;
                break;
            }
            // Superseded entries still pop (rather than being unlinked on
            // wake-up), so the `max_cycles` stop above sees every time the
            // entry carried.
            if gen != self.runtime[i].gen {
                continue; // superseded by a wake-up reschedule
            }
            end_cycles = now;
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
                        if rt.zero_rotation == rt.degree.max(1) as u32 {
                            rt.zero_rotation = 0;
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
            wheel.schedule(next, i, rt.gen);

            // A coin-moving exchange also resets the partner's back-off:
            // its FSM participated and observed the movement, so it should
            // return to the fast refresh rate (otherwise a backed-off tile
            // would stall the coin wavefront).
            if significant {
                if let (Some(dt), Some(p)) = (self.config.dynamic_timing, outcome.partner) {
                    let rp = &mut self.runtime[p];
                    rp.zero_rotation = 0;
                    rp.interval = dt.next_interval(rp.interval, outcome.moved);
                    let candidate = now + outcome.latency + rp.interval;
                    if candidate < rp.next_fire {
                        rp.gen += 1;
                        rp.next_fire = candidate;
                        wheel.schedule(candidate, p, rp.gen);
                    }
                }
            }
        }
        recycle_wheel(wheel);

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

    /// The longest delay a run can schedule ahead of its latest pop: the
    /// longest refresh interval the configuration allows, plus a status +
    /// update round trip across the mesh diameter. The wheel is sized for
    /// it and grows past it.
    fn wheel_horizon(&self) -> u64 {
        let c = &self.config;
        let interval = c
            .dynamic_timing
            .map_or(0, |dt| dt.max_cycles.max(dt.min_cycles))
            .max(c.refresh_cycles)
            .max(1);
        let round_trip = 2 * per_message_latency(self.topo.diameter() as u64) + 1;
        interval.saturating_add(round_trip)
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
        let paired = if is_pairing {
            rt.next_pairing = now + pairing_iv;
            rt.pairing
                .select_partner(
                    self.config.pairing,
                    tile,
                    &rt.neighbors[..rt.degree],
                    self.tiles.len(),
                    rng,
                )
                .map(|p| (p, self.topo.hop_distance(tile, p).max(1) as u64))
        } else {
            None
        };
        // The partner and its hop distance: the random pairing's, or the
        // next neighbor's in round-robin order.
        let (partner, hops) = match paired {
            Some(pair) => pair,
            None => {
                if rt.degree == 0 {
                    return StepOutcome {
                        moved: 0,
                        latency: per_message_latency(1),
                        packets: 0,
                        partner: None,
                    };
                }
                let k = rt.rr_next;
                rt.rr_next = if k + 1 == rt.degree { 0 } else { k + 1 };
                (rt.neighbors[k], rt.hops[k])
            }
        };

        let j = partner.index();
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
        // The status + update round trip, plus one cycle of FSM compute.
        StepOutcome {
            moved: moved.abs(),
            latency: 2 * per_message_latency(hops) + 1,
            packets: 2,
            partner: Some(j),
        }
    }

    /// One 4-way group exchange for tile `i`.
    fn four_way_step(&mut self, i: usize, targets: &[f64], err_sum: &mut f64) -> StepOutcome {
        // The group: the center, then every neighbor.
        let mut idx = [i; 5];
        let mut group = [self.tiles[i]; 5];
        let mut len = 1;
        for nb in self.runtime[i].neighbors() {
            let k = nb.index();
            idx[len] = k;
            group[len] = self.tiles[k];
            len += 1;
        }
        let answered = len as u64 - 1;
        if answered == 0 {
            return StepOutcome {
                moved: 0,
                latency: per_message_latency(1),
                packets: 0,
                partner: None,
            };
        }
        let alloc = four_way_allocation(&group[..len]);
        let mut moved_total = 0;
        for (slot, &k) in idx[..len].iter().enumerate() {
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
        let packets = 3 * answered;
        let latency = 3 * (per_message_latency(1) + answered - 1) + 2;
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
    use blitzcoin_sim::check::forall_seeded;
    use blitzcoin_sim::{ensure, EventQueue, SimTime};

    /// One step of a queue script: schedule `delay` cycles after the
    /// latest pop, or pop.
    enum Op {
        Schedule { delay: u64, tile: usize, gen: u64 },
        Pop,
    }

    /// A random interleaving of schedules and pops that ends drained:
    /// bursts on one cycle, delays of 0 and 1, delays inside a ring sized
    /// for `horizon`, and delays well past it (so the ring grows).
    fn queue_script(rng: &mut SimRng, horizon: u64) -> Vec<Op> {
        let mut ops = Vec::new();
        let mut pending = 0usize;
        for step in 0..rng.range_u64(1..400) {
            if pending > 0 && rng.chance(0.45) {
                ops.push(Op::Pop);
                pending -= 1;
                continue;
            }
            let delay = match rng.range_u64(0..5) {
                0 => 0,
                1 => 1,
                2 => rng.range_u64(0..8),
                3 => rng.range_u64(0..horizon + 1),
                _ => rng.range_u64(horizon..4 * horizon + 300),
            };
            let burst = if rng.chance(0.15) {
                rng.range_usize(2..10)
            } else {
                1
            };
            for _ in 0..burst {
                let tile = rng.range_usize(0..64);
                ops.push(Op::Schedule {
                    delay,
                    tile,
                    gen: step,
                });
                pending += 1;
            }
        }
        ops.extend((0..pending).map(|_| Op::Pop));
        ops
    }

    fn replay_on_wheel(wheel: &mut CycleWheel, ops: &[Op]) -> Vec<(u64, usize, u64)> {
        let mut now = 0;
        let mut popped = Vec::new();
        for op in ops {
            match *op {
                Op::Schedule { delay, tile, gen } => wheel.schedule(now + delay, tile, gen),
                Op::Pop => {
                    let ev = wheel.pop().expect("script pops only pending entries");
                    now = ev.0;
                    popped.push(ev);
                }
            }
        }
        popped
    }

    fn replay_on_event_queue(ops: &[Op]) -> Vec<(u64, usize, u64)> {
        let mut queue = EventQueue::new();
        let mut now = 0;
        let mut popped = Vec::new();
        for op in ops {
            match *op {
                Op::Schedule { delay, tile, gen } => {
                    queue.schedule(SimTime::from_noc_cycles(now + delay), (tile, gen));
                }
                Op::Pop => {
                    let ev = queue.pop().expect("script pops only pending entries");
                    now = ev.time.as_noc_cycles();
                    popped.push((now, ev.payload.0, ev.payload.1));
                }
            }
        }
        popped
    }

    #[test]
    fn wheel_pops_exactly_like_a_fifo_event_queue() {
        let mut grew = 0;
        forall_seeded("cycle_wheel_vs_event_queue", 0xC1C1E, 0..300, |rng| {
            let horizon = rng.range_u64(0..300);
            let ops = queue_script(rng, horizon);
            let want = replay_on_event_queue(&ops);
            let mut fresh = CycleWheel::default();
            fresh.reset(horizon);
            let got = replay_on_wheel(&mut fresh, &ops);
            ensure!(got == want, "wheel {got:?}\nqueue {want:?}");
            ensure!(fresh.pop().is_none(), "the drained wheel still pops");
            grew += usize::from(fresh.head.len() > ring_slots(horizon));
            // A used wheel (grown, left part-full) must replay exactly
            // like a fresh one once reset.
            let other = queue_script(rng, horizon);
            let mut used = CycleWheel::default();
            used.reset(horizon);
            let _ = replay_on_wheel(&mut used, &other[..other.len() / 2]);
            used.reset(horizon);
            ensure!(
                replay_on_wheel(&mut used, &ops) == want,
                "a reset wheel diverged from a fresh one"
            );
            Ok(())
        });
        assert!(grew > 0, "no case grew the ring");
    }

    #[test]
    fn inline_neighbors_match_the_topology() {
        for topo in [
            Topology::mesh(1, 1),
            Topology::torus(1, 1),
            Topology::torus(2, 2),
            Topology::torus(1, 4),
            Topology::torus(2, 5),
            Topology::mesh(3, 2),
            Topology::torus(3, 3),
            Topology::mesh(5, 4),
            Topology::torus(5, 4),
        ] {
            for t in topo.tiles() {
                let rt = TileRuntime::new(&topo, t, 64);
                assert_eq!(rt.neighbors(), topo.neighbors(t).as_slice(), "{topo:?} {t}");
                for (k, &nb) in rt.neighbors().iter().enumerate() {
                    assert_eq!(rt.hops[k], topo.hop_distance(t, nb) as u64);
                }
            }
        }
    }

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
