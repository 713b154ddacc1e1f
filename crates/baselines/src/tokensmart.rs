//! TokenSmart: ring-based sequential token exchange.
//!
//! TokenSmart (TS) is the closest prior art to BlitzCoin — also
//! decentralized, also token-quantized — but its token pool is passed
//! *sequentially* from tile to tile around a ring. In the default *greedy*
//! mode each visited tile takes enough tokens from the pool to reach its
//! target (or deposits its excess). When a tile has been starved for a
//! specified duration, the global policy switches to a *fair* mode that
//! targets an equal token count per active tile; after a hold-off it
//! switches back. Because the pool visits one tile at a time, convergence
//! time scales O(N), and the greedy/fair oscillation produces the
//! long-tail outliers visible in Fig 4.

use blitzcoin_core::metrics::{mean_error, worst_case_error, ConvergenceRatio};
use blitzcoin_core::TileState;
use blitzcoin_sim::{FaultPlan, SimRng};

/// TokenSmart configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TsConfig {
    /// NoC cycles for the pool to hop to the next ring stop and be
    /// processed (the serpentine ring maps to 1 mesh hop, plus the take /
    /// deposit FSM work).
    pub visit_cycles: u64,
    /// Visits a tile may remain starved (holding under half its target)
    /// before the global policy switches to fair mode.
    pub starvation_visits: u64,
    /// Visits the fair mode is held before reverting to greedy.
    pub fair_hold_visits: u64,
    /// Convergence threshold on the global error (mean coins per tile).
    pub err_threshold: f64,
    /// Hard stop, in NoC cycles.
    pub max_cycles: u64,
}

impl Default for TsConfig {
    fn default() -> Self {
        TsConfig {
            visit_cycles: 6,
            starvation_visits: 64,
            fair_hold_visits: 32,
            err_threshold: 1.0,
            max_cycles: 10_000_000,
        }
    }
}

/// Outcome of a TokenSmart run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TsResult {
    /// Whether the error crossed the threshold.
    pub converged: bool,
    /// NoC cycles until convergence (or the run end).
    pub cycles: u64,
    /// Ring messages (pool handoffs) until convergence.
    pub packets: u64,
    /// Number of greedy→fair mode switches observed.
    pub mode_switches: u64,
    /// Whether the pool landed on a dead ring stop and circulation halted
    /// (see [`TokenSmart::fail_tile_at`]).
    pub ring_broken: bool,
    /// Global error at the end.
    pub final_error: f64,
    /// Worst per-tile error at the end.
    pub worst_error: f64,
}

/// Global policy mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Greedy,
    Fair,
}

/// The TokenSmart ring simulator.
#[derive(Debug, Clone)]
pub struct TokenSmart {
    tiles: Vec<TileState>,
    pool: i64,
    /// Active ring stops (`max > 0`), kept current by [`TokenSmart::set_max`].
    active: i64,
    /// Pool plus holdings. Visits only move tokens between the pool and a
    /// stop, so only the places that set holdings change it.
    total: i64,
    /// Σmax over the ring, kept current by [`TokenSmart::set_max`]. With
    /// `total` it gives the convergence ratio without a pass.
    total_max: u64,
    config: TsConfig,
    mode: Mode,
    starved_for: Vec<u64>,
    fair_remaining: u64,
    cursor: usize,
    mode_switches: u64,
    /// A planned tile death on the ring: `(tile, at_cycle)`.
    fault: Option<(usize, u64)>,
    ring_broken: bool,
}

impl TokenSmart {
    /// Creates a ring of tiles with the given `max` targets; `pool` tokens
    /// start in the circulating pool (tiles start empty).
    pub fn new(max: Vec<u64>, pool: u64, config: TsConfig) -> Self {
        let n = max.len();
        assert!(n > 0, "need at least one tile");
        let active = max.iter().filter(|&&m| m > 0).count() as i64;
        let total_max = max.iter().sum();
        TokenSmart {
            tiles: max.into_iter().map(|m| TileState::new(0, m)).collect(),
            pool: pool as i64,
            active,
            total: pool as i64,
            total_max,
            config,
            mode: Mode::Greedy,
            starved_for: vec![0; n],
            fair_remaining: 0,
            cursor: 0,
            mode_switches: 0,
            fault: None,
            ring_broken: false,
        }
    }

    /// Creates a ring whose tiles already hold `has` coins (the SoC
    /// engine's boot state: budget pre-split across tiles, pool empty).
    /// The engine drives this machine one [`TokenSmart::visit_once`] at a
    /// time so the greedy/fair token-passing FSM exists exactly once.
    pub fn with_holdings(max: Vec<u64>, has: Vec<i64>, pool: i64, config: TsConfig) -> Self {
        assert_eq!(max.len(), has.len(), "max/has length mismatch");
        let mut ts = TokenSmart::new(max, 0, config);
        ts.pool = pool;
        for (t, h) in ts.tiles.iter_mut().zip(has) {
            t.has = h;
        }
        ts.total = ts.total_tokens();
        ts
    }

    /// Updates a ring stop's target (an activity change: the tile became
    /// active with `max > 0`, or went idle with `max = 0`).
    pub fn set_max(&mut self, idx: usize, max: u64) {
        let was_active = self.tiles[idx].is_active();
        self.total_max = self.total_max - self.tiles[idx].max + max;
        self.tiles[idx].max = max;
        self.active += i64::from(self.tiles[idx].is_active()) - i64::from(was_active);
    }

    /// The ring stop the pool will visit next.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Greedy→fair mode switches observed so far.
    pub fn mode_switches(&self) -> u64 {
        self.mode_switches
    }

    /// Schedules tile `tile` to die at `at_cycle` (NoC cycles). The pool
    /// is passed sequentially, so when it next reaches the dead stop,
    /// circulation halts and every token still in transit is trapped with
    /// the corpse: the ring itself is TokenSmart's single point of
    /// failure, unlike BlitzCoin's all-pairs gossip where any live
    /// neighbor can route around a death.
    pub fn fail_tile_at(&mut self, tile: usize, at_cycle: u64) {
        assert!(tile < self.tiles.len(), "tile {tile} outside the ring");
        self.fault = Some((tile, at_cycle));
    }

    /// Applies a [`FaultPlan`]: the earliest planned fail-stop inside the
    /// ring breaks it, since a dead stop forwards nothing.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        let first = plan
            .tile_faults
            .iter()
            .filter(|f| f.tile < self.tiles.len())
            .min_by_key(|f| (f.at_cycle, f.tile));
        if let Some(f) = first {
            self.fail_tile_at(f.tile, f.at_cycle);
        }
    }

    /// Whether the pool reached a dead ring stop and circulation halted.
    pub fn ring_broken(&self) -> bool {
        self.ring_broken
    }

    /// Scatters existing holdings across tiles (pool keeps the remainder
    /// of `total` after the scatter); mirrors the emulator's random
    /// initialization so Fig 4 compares like for like.
    pub fn init_uniform_random(&mut self, rng: &mut SimRng) {
        let mut total = self.pool + self.tiles.iter().map(|t| t.has).sum::<i64>();
        for t in &mut self.tiles {
            let hi = if t.max > 0 { 2 * t.max as i64 } else { 63 };
            let take = rng.range_i64(0..hi + 1).min(total);
            t.has = take;
            total -= take;
        }
        self.pool = total;
    }

    /// Tile states (for inspection).
    pub fn tiles(&self) -> &[TileState] {
        &self.tiles
    }

    /// Tokens currently in the circulating pool.
    pub fn pool(&self) -> i64 {
        self.pool
    }

    /// Total tokens in the system (pool + held).
    pub fn total_tokens(&self) -> i64 {
        self.pool + self.tiles.iter().map(|t| t.has).sum::<i64>()
    }

    /// The per-tile target under the current mode and pool ratio.
    fn target(&self, idx: usize) -> i64 {
        let t = &self.tiles[idx];
        if t.max == 0 {
            return 0;
        }
        match self.mode {
            Mode::Greedy => {
                // greedy: every tile wants its own full target
                t.max as i64
            }
            Mode::Fair => {
                if self.active == 0 {
                    0
                } else {
                    self.total / self.active
                }
            }
        }
    }

    /// One pool visit at the cursor tile; advances the ring. Returns the
    /// signed token movement at the visited stop (positive = taken from
    /// the pool, negative = deposited); zero means the visit left the
    /// allocation untouched — the engine's settle detector counts a full
    /// zero-movement revolution as quiescence.
    pub fn visit_once(&mut self) -> i64 {
        let idx = self.cursor;
        self.cursor = (self.cursor + 1) % self.tiles.len();
        let target = self.target(idx);
        let t = &mut self.tiles[idx];
        let mut moved: i64 = 0;
        if t.has < target {
            let take = (target - t.has).min(self.pool.max(0));
            t.has += take;
            self.pool -= take;
            moved = take;
        } else if t.has > target {
            let give = t.has - target;
            t.has -= give;
            self.pool += give;
            moved = -give;
        }
        // starvation accounting (greedy mode only)
        let starved = t.is_active() && t.has * 2 < t.max as i64;
        if starved {
            self.starved_for[idx] += 1;
        } else {
            self.starved_for[idx] = 0;
        }
        match self.mode {
            Mode::Greedy => {
                if self.starved_for[idx] >= self.config.starvation_visits {
                    self.mode = Mode::Fair;
                    self.fair_remaining = self.fair_hold();
                    self.mode_switches += 1;
                    self.starved_for.iter_mut().for_each(|s| *s = 0);
                }
            }
            Mode::Fair => {
                self.fair_remaining = self.fair_remaining.saturating_sub(1);
                if self.fair_remaining == 0 {
                    self.mode = Mode::Greedy;
                }
            }
        }
        moved
    }

    fn fair_hold(&self) -> u64 {
        // hold fair mode for at least one full ring revolution
        self.config.fair_hold_visits.max(self.tiles.len() as u64)
    }

    /// Runs until the proportional-allocation error crosses the threshold
    /// or `max_cycles` elapse. The error metric is identical to
    /// BlitzCoin's (Section III-E) so Fig 4 compares the same quantity;
    /// tokens still in the pool count as undelivered error.
    ///
    /// The error is checked after a visit only once the tokens moved since
    /// the last check exceed what `TokenSmart::skip_budget` allows, so
    /// a revolution that moves nothing costs no O(N) pass. Every visit it
    /// skips provably has an error at or above the threshold, so the run
    /// stops at the same visit as checking after every one.
    pub fn run(&mut self, _rng: &mut SimRng) -> TsResult {
        let mut cycles: u64 = 0;
        let mut packets: u64 = 0;
        let mut converged = false;
        let mut budget = None;
        let mut moved: u64 = 0;
        while cycles < self.config.max_cycles {
            if let Some((ft, at)) = self.fault {
                if cycles >= at && self.cursor == ft {
                    // the pool lands on the corpse and never leaves: burn
                    // the remaining horizon without converging
                    self.ring_broken = true;
                    cycles = self.config.max_cycles;
                    break;
                }
            }
            moved += self.visit_once().unsigned_abs();
            cycles += self.config.visit_cycles;
            packets += 1;
            if budget.is_some_and(|b| moved <= b) {
                continue;
            }
            // the pool itself is undistributed budget: count it against
            // convergence by measuring error with the pool folded in as a
            // virtual inactive tile holding `pool` coins.
            let err = self.error();
            if err < self.config.err_threshold {
                converged = true;
                break;
            }
            budget = self.skip_budget(err);
            moved = 0;
        }
        TsResult {
            converged,
            cycles,
            packets,
            mode_switches: self.mode_switches,
            ring_broken: self.ring_broken,
            final_error: self.error(),
            worst_error: self.worst_error(),
        }
    }

    /// The BlitzCoin-comparable global error: mean |has − α·max| with the
    /// circulating pool counted as held-by-nobody (pure error mass). The
    /// holdings total is `total − pool` and Σmax is tracked, so this is
    /// one pass over the ring, not three.
    pub fn error(&self) -> f64 {
        let n = self.tiles.len() as f64;
        let ratio = ConvergenceRatio::from_totals(self.total - self.pool, self.total_max);
        mean_error(&self.tiles, &ratio) + self.pool.unsigned_abs() as f64 / n
    }

    /// How many tokens the ring may move, from a state whose
    /// [`TokenSmart::error`] is `err`, before `error()` could fall under
    /// the threshold; `None` when it may already be under it.
    ///
    /// A visit moves `m` tokens between the pool and one stop. That
    /// changes n·E by at most 3|m|: |m| in the pool term, |m| in the
    /// stop's holding, and |m| over all targets together, because α·max_i
    /// shifts by m·max_i/Σmax. So after `moved` tokens the exact error is
    /// at least E − 3·moved/n.
    ///
    /// `error()` rounds. Holdings, Σmax and the pool are integers below
    /// 2^53, so they convert exactly, and each further step is one IEEE
    /// operation with relative error u = 2^−53: α = H/Σmax (H = total −
    /// pool), α·max_i, has_i − α·max_i, the n-term sum, the division by
    /// n, |pool|/n and the final addition. The recursive-summation bound
    /// (Higham, ch. 3) then puts the computed value within
    /// c·(E + |H|/n) of the exact E, with c = (n + 4)·`f64::EPSILON` ≥
    /// γ_{n+4} for any n below 2^50. That error counts twice. At the
    /// check, the exact E may lie below `err` by about c·(err + |H|/n).
    /// At a skipped visit, the computed value may lie below the exact one
    /// by c·(E′ + |H′|/n); the worst case is the smallest E′, at most
    /// `err`, and |H′| ≤ |H| + moved ≤ |H| + n·slack/3. Those two, plus
    /// the few roundings of the budget arithmetic below, come to less
    /// than 2c·(err + |slack| + |H|/n), half of `margin`.
    fn skip_budget(&self, err: f64) -> Option<u64> {
        let n = self.tiles.len() as f64;
        let held = (self.total - self.pool).unsigned_abs() as f64;
        let slack = err - self.config.err_threshold;
        let margin = 4.0 * (n + 4.0) * f64::EPSILON * (err + slack.abs() + held / n);
        let tokens = (slack - margin) * n / 3.0;
        (tokens >= 0.0).then_some(tokens as u64)
    }

    /// Worst per-tile error.
    pub fn worst_error(&self) -> f64 {
        worst_case_error(&self.tiles).max(self.pool.unsigned_abs() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributes_pool_to_equal_targets() {
        let mut ts = TokenSmart::new(vec![32; 10], 320, TsConfig::default());
        let r = ts.run(&mut SimRng::seed(1));
        assert!(r.converged, "{r:?}");
        assert_eq!(ts.pool(), 0);
        for t in ts.tiles() {
            assert_eq!(t.has, 32);
        }
    }

    #[test]
    fn conserves_tokens() {
        let mut ts = TokenSmart::new(vec![16, 32, 64, 8], 60, TsConfig::default());
        let before = ts.total_tokens();
        ts.run(&mut SimRng::seed(2));
        assert_eq!(ts.total_tokens(), before);
    }

    #[test]
    fn undersubscribed_pool_converges_via_fair_mode() {
        // Demand (10 x 32 = 320) far exceeds supply (100): greedy starves
        // late-ring tiles until the watchdog flips to fair.
        let mut ts = TokenSmart::new(vec![32; 10], 100, TsConfig::default());
        let r = ts.run(&mut SimRng::seed(3));
        assert!(
            r.mode_switches >= 1,
            "starvation must trigger fair mode: {r:?}"
        );
        // fair mode spreads the 100 tokens evenly (10 each)
        let spread: Vec<i64> = ts.tiles().iter().map(|t| t.has).collect();
        let min = spread.iter().min().unwrap();
        let max = spread.iter().max().unwrap();
        assert!(max - min <= 1, "fair mode should equalize: {spread:?}");
    }

    #[test]
    fn convergence_scales_linearly_with_n() {
        let time = |n: usize| -> f64 {
            let mut acc = 0.0;
            for seed in 0..5 {
                let mut ts = TokenSmart::new(vec![32; n], (16 * n) as u64, TsConfig::default());
                ts.init_uniform_random(&mut SimRng::seed(seed));
                let r = ts.run(&mut SimRng::seed(seed + 100));
                assert!(r.converged);
                acc += r.cycles as f64;
            }
            acc / 5.0
        };
        let t100 = time(100);
        let t400 = time(400);
        let ratio = t400 / t100;
        assert!(
            ratio > 2.5,
            "sequential ring must scale ~linearly: t100={t100}, t400={t400}"
        );
    }

    #[test]
    fn inactive_tiles_release_tokens() {
        // stranded tokens on inactive tiles
        let mut ts = TokenSmart::with_holdings(
            vec![0, 32, 0, 32],
            vec![20, 0, 12, 0],
            0,
            TsConfig::default(),
        );
        let r = ts.run(&mut SimRng::seed(4));
        assert!(r.converged, "{r:?}");
        assert_eq!(ts.tiles()[0].has, 0);
        assert_eq!(ts.tiles()[2].has, 0);
        assert_eq!(ts.tiles()[1].has + ts.tiles()[3].has + ts.pool(), 32);
    }

    #[test]
    fn respects_max_cycles() {
        let cfg = TsConfig {
            err_threshold: 0.0, // unreachable
            max_cycles: 1_000,
            ..TsConfig::default()
        };
        let mut ts = TokenSmart::new(vec![32; 16], 256, cfg);
        let r = ts.run(&mut SimRng::seed(5));
        assert!(!r.converged);
        assert!(r.cycles >= 1_000);
    }

    #[test]
    fn broken_ring_halts_circulation_but_conserves() {
        let mut ts = TokenSmart::new(vec![32; 10], 320, TsConfig::default());
        let before = ts.total_tokens();
        ts.fail_tile_at(4, 12);
        let r = ts.run(&mut SimRng::seed(6));
        assert!(r.ring_broken, "{r:?}");
        assert!(!r.converged, "a broken ring cannot converge: {r:?}");
        assert_eq!(r.cycles, TsConfig::default().max_cycles);
        assert_eq!(ts.total_tokens(), before, "trapped tokens still exist");
        assert!(ts.pool() > 0, "the pool should be trapped with the corpse");
    }

    #[test]
    fn fault_plan_maps_onto_the_ring() {
        use blitzcoin_sim::TileFault;
        let mut plan = FaultPlan::none();
        plan.tile_faults.push(TileFault {
            tile: 3,
            at_cycle: 0,
        });
        let mut ts = TokenSmart::new(vec![32; 8], 256, TsConfig::default());
        ts.apply_fault_plan(&plan);
        let r = ts.run(&mut SimRng::seed(7));
        assert!(r.ring_broken && !r.converged, "{r:?}");
    }

    #[test]
    fn cached_active_count_and_total_track_the_ring() {
        use blitzcoin_sim::check::forall_seeded;
        use blitzcoin_sim::ensure;
        forall_seeded("ts_cached_counts", 0x75, 0..100, |rng| {
            let n = rng.range_usize(1..12);
            let max: Vec<u64> = (0..n).map(|_| rng.range_u64(0..3) * 16).collect();
            let has: Vec<i64> = (0..n).map(|_| rng.range_i64(0..40)).collect();
            let cfg = TsConfig {
                starvation_visits: 4,
                fair_hold_visits: 8,
                ..TsConfig::default()
            };
            let mut ts = TokenSmart::with_holdings(max, has, rng.range_i64(0..50), cfg);
            if rng.chance(0.5) {
                ts.init_uniform_random(rng);
            }
            for _ in 0..200 {
                if rng.chance(0.2) {
                    ts.set_max(rng.range_usize(0..n), rng.range_u64(0..3) * 16);
                }
                ts.visit_once();
                let active = ts.tiles.iter().filter(|t| t.is_active()).count() as i64;
                ensure!(ts.active == active, "active {} != {active}", ts.active);
                ensure!(ts.total == ts.total_tokens(), "total {}", ts.total);
                let total_max: u64 = ts.tiles.iter().map(|t| t.max).sum();
                ensure!(
                    ts.total_max == total_max,
                    "total_max {} != {total_max}",
                    ts.total_max
                );
                // the one-pass error is bit-identical to the three-pass one
                let three_pass = blitzcoin_core::global_error(&ts.tiles)
                    + ts.pool.unsigned_abs() as f64 / n as f64;
                ensure!(
                    ts.error().to_bits() == three_pass.to_bits(),
                    "error drifted"
                );
            }
            Ok(())
        });
    }

    /// [`TokenSmart::run`] before the bounded skip: the error is checked
    /// after every visit. The reference the skip must match.
    fn run_checking_every_visit(ts: &mut TokenSmart) -> TsResult {
        let mut cycles: u64 = 0;
        let mut packets: u64 = 0;
        let mut converged = false;
        while cycles < ts.config.max_cycles {
            if let Some((ft, at)) = ts.fault {
                if cycles >= at && ts.cursor == ft {
                    ts.ring_broken = true;
                    cycles = ts.config.max_cycles;
                    break;
                }
            }
            ts.visit_once();
            cycles += ts.config.visit_cycles;
            packets += 1;
            if ts.error() < ts.config.err_threshold {
                converged = true;
                break;
            }
        }
        TsResult {
            converged,
            cycles,
            packets,
            mode_switches: ts.mode_switches,
            ring_broken: ts.ring_broken,
            final_error: ts.error(),
            worst_error: ts.worst_error(),
        }
    }

    /// A ring built to sit near the 3|m| bound. Its first `takers` stops
    /// have a target of 1 and hold nothing; the rest have a target of 64
    /// and hold 128, so α is just under 2; the pool holds one token per
    /// taker. Each of the first visits moves one token into a taker,
    /// which stays under its α target, while every loaded stop stays
    /// above its own. So n·E falls by 3 − 2(takers + 1)/Σmax per token,
    /// above 2.99 for the shortest runs, through any threshold between
    /// the start and the end of that run.
    fn near_bound_ring(rng: &mut SimRng, cfg: TsConfig) -> TokenSmart {
        let n = rng.range_usize(50..601);
        let takers = rng.range_usize(n / 5..n / 2);
        let max = (0..n).map(|i| if i < takers { 1 } else { 64 }).collect();
        let has = (0..n).map(|i| if i < takers { 0 } else { 128 }).collect();
        let mut ts = TokenSmart::with_holdings(max, has, takers as i64, cfg);
        ts.config.err_threshold = ts.error() * (0.5 + 0.5 * rng.unit_f64());
        ts
    }

    #[test]
    fn bounded_skip_matches_checking_every_visit() {
        use blitzcoin_sim::check::forall_seeded;
        use blitzcoin_sim::ensure;
        forall_seeded("ts_bounded_skip", 0x5C1F, 0..400, |rng| {
            let n = match rng.range_u64(0..10) {
                0 => rng.range_usize(200..601),
                1..=3 => rng.range_usize(1..4),
                _ => rng.range_usize(4..100),
            };
            let max: Vec<u64> = match rng.range_u64(0..4) {
                0 => vec![0; n],
                1 => vec![32; n],
                _ => (0..n)
                    .map(|_| [0, 8, 16, 32, 64][rng.range_usize(0..5)])
                    .collect(),
            };
            let total_max: u64 = max.iter().sum();
            let cfg = TsConfig {
                starvation_visits: rng.range_u64(2..80),
                fair_hold_visits: rng.range_u64(1..40),
                err_threshold: 0.25 + 2.75 * rng.unit_f64(),
                max_cycles: TsConfig::default().visit_cycles * n as u64 * rng.range_u64(1..40),
                ..TsConfig::default()
            };
            let mut ts = match rng.range_u64(0..4) {
                0 => near_bound_ring(rng, cfg),
                // a pool of a fifth to one and a half times the demand
                1 | 2 => {
                    let supply = (total_max as f64 * (0.2 + 1.3 * rng.unit_f64())) as u64 + 1;
                    let mut ts = TokenSmart::new(max, supply, cfg);
                    if rng.chance(0.5) {
                        ts.init_uniform_random(rng);
                    }
                    ts
                }
                _ => {
                    let has = max
                        .iter()
                        .map(|&m| rng.range_i64(0..2 * m as i64 + 8))
                        .collect();
                    TokenSmart::with_holdings(max, has, rng.range_i64(0..64), cfg)
                }
            };
            let n = ts.tiles.len();
            if rng.chance(0.2) {
                let at = rng.range_u64(0..cfg.max_cycles + 1);
                ts.fail_tile_at(rng.range_usize(0..n), at);
            }
            let mut reference = ts.clone();
            let want = run_checking_every_visit(&mut reference);
            let got = ts.run(&mut SimRng::seed(0));
            ensure!(got == want, "n {n}: skip {got:?} vs every visit {want:?}");
            ensure!(
                ts.pool == reference.pool,
                "pool {} vs {}",
                ts.pool,
                reference.pool
            );
            ensure!(
                ts.tiles == reference.tiles,
                "holdings differ at n {n}, threshold {}",
                ts.config.err_threshold
            );
            Ok(())
        });
    }

    #[test]
    fn random_init_is_reproducible() {
        let mk = || {
            let mut ts = TokenSmart::new(vec![32; 25], 400, TsConfig::default());
            ts.init_uniform_random(&mut SimRng::seed(9));
            ts.tiles().iter().map(|t| t.has).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
