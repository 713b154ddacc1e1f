//! The discrete-event full-SoC simulation engine.
//!
//! The engine advances a single deterministic event queue over:
//!
//! - **task execution**: each accelerator tile runs its task queue; work
//!   progresses at the tile's instantaneous clock (work = ∫F dt), so a
//!   frequency change reschedules the completion event;
//! - **power management**: the configured manager reacts to activity
//!   changes — BlitzCoin through per-tile FSMs exchanging coins over the
//!   NoC model (with link contention), the centralized baselines through
//!   notification + sequential update sweeps from the controller tile,
//!   TokenSmart through a single pool token circulating its ring;
//! - **actuation**: a frequency-target write takes effect after the UVFR
//!   actuation delay (LDO slew + TDC settling), constant and parallel
//!   across tiles.
//!
//! Every quantity in the paper's SoC evaluation falls out of this loop:
//! execution time, per-transition response time, power/coin/frequency
//! traces, utilization, and NoC traffic. Per-tile coin and frequency
//! traces are recorded only for a unit that declares them
//! ([`Simulation::with_tile_traces`]); per-tile power always is, because
//! the report's total power trace is their sum.
//!
//! The engine itself is scheme-agnostic: all manager behavior lives in
//! `crate::managers` behind the `ManagerPolicy` trait, and this module
//! tree only runs the clockwork around it —
//!
//! - `events`: the event vocabulary, boot sequence, main loop, and task
//!   lifecycle;
//! - `actuation`: DVFS targets, task progress, and trace recording;
//! - `accounting`: continuous invariant audits and end-of-run report
//!   assembly;
//! - `faults`: injected tile faults and task abandonment.

use std::collections::VecDeque;

use blitzcoin_core::{AllocationPolicy, ExchangeMode};
use blitzcoin_noc::{Network, TileId, Topology};
use blitzcoin_power::{AcceleratorClass, CoinLut, PowerModel};
use blitzcoin_sim::oracle::Oracle;
use blitzcoin_sim::{
    ClockDomain, CoinAudit, ConfigError, EventQueue, FaultPlan, SimRng, SimTime, StepTrace,
    TieBreak, TileFaultKind,
};

use crate::floorplan::SocConfig;
use crate::manager::ManagerKind;
use crate::report::{ActivityChange, ResponseSample, SimReport};
use crate::workload::{TaskId, Workload};

pub(crate) mod accounting;
pub(crate) mod actuation;
pub(crate) mod coupling;
pub(crate) mod events;
pub(crate) mod faults;

pub(crate) use events::Ev;

thread_local! {
    /// Recycled event-queue allocation. Each `Simulation::run` trial uses
    /// a logically fresh queue, but sweeps run thousands of trials per
    /// worker thread and the heap buffer is worth keeping warm. A reset
    /// queue is observationally identical to a new one (same seq numbers,
    /// same pop order), so reuse cannot perturb determinism.
    static QUEUE_POOL: std::cell::RefCell<Option<EventQueue<Ev>>> =
        const { std::cell::RefCell::new(None) };
}

/// Takes the thread's recycled queue (reset to pristine state) with the
/// requested tie-break policy installed, or a new one the first time.
///
/// `reset()` — not `clear()` — is load-bearing here: it rewinds the
/// sequence counter so a recycled queue draws the same seqs as a fresh
/// one, which keeps non-FIFO tie-break runs (where the seq value decides
/// pop order inside a batch) independent of how many trials the thread
/// ran before. It also leaves the previous trial's tie-break installed,
/// so this is the one place that re-points the policy at the current
/// run's configuration.
fn take_recycled_queue(tie: TieBreak) -> EventQueue<Ev> {
    let mut q = QUEUE_POOL
        .with(|p| p.borrow_mut().take())
        .map(|mut q| {
            q.reset();
            q
        })
        .unwrap_or_default();
    q.set_tie_break(tie);
    q
}

/// Hands a finished run's queue back to the thread pool for the next
/// trial.
pub(crate) fn recycle_queue(q: EventQueue<Ev>) {
    QUEUE_POOL.with(|p| *p.borrow_mut() = Some(q));
}

/// Simulation configuration: the settings a caller varies. Everything
/// else the engine runs on (manager timing, the BlitzCoin refresh
/// dynamics, the NoC latencies, the thermal RC network) is a named
/// constant next to the code that reads it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// The power manager under test.
    pub manager: ManagerKind,
    /// Global accelerator power budget (mW).
    pub budget_mw: f64,
    /// Target-allocation policy (the paper's default is RP).
    pub policy: AllocationPolicy,
    /// Exchange technique for the BlitzCoin FSMs (the fabricated design
    /// uses 1-way; 4-way is provided for the Fig 3 comparison).
    pub exchange_mode: ExchangeMode,
    /// Coin-pool scale: the pool holds `63 * pool_scale` coins (coin value
    /// `budget / (63 * pool_scale)`). The fabricated 6-bit design uses 1;
    /// SoCs with many more than ~16 managed tiles need a finer economy or
    /// the per-tile equilibrium falls below one coin (the hardware analog
    /// is a wider coin register or hierarchical PM clusters).
    pub pool_scale: u32,
    /// Same-timestamp event ordering. The default [`TieBreak::Fifo`] is
    /// bit-identical to the historical engine; the interleaving fuzzer
    /// re-runs configs under `Permuted` seeds to prove no result depends
    /// on the one ordering FIFO happens to pick.
    pub tie_break: TieBreak,
    /// Junction limit (°C) of the in-loop electro-thermal coupling (RC
    /// integration on its own slow clock, leakage feedback, thermal
    /// throttling): a managed tile crossing it is throttled. `None` — the
    /// default — schedules nothing and leaves runs byte-identical to the
    /// uncoupled engine.
    pub thermal_limit_c: Option<f64>,
}

blitzcoin_sim::json_fields!(SimConfig {
    manager,
    budget_mw,
    policy,
    exchange_mode,
    pool_scale,
    tie_break,
    thermal_limit_c
});

impl SimConfig {
    /// Creates a configuration with the paper's defaults for the given
    /// manager and budget.
    pub fn new(manager: ManagerKind, budget_mw: f64) -> Self {
        Self::try_new(manager, budget_mw).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`SimConfig::new`]: a non-finite or non-positive budget
    /// comes back as a [`ConfigError`] instead of a panic.
    pub fn try_new(manager: ManagerKind, budget_mw: f64) -> Result<Self, ConfigError> {
        blitzcoin_sim::error::require_positive("budget_mw", budget_mw)?;
        Ok(SimConfig {
            manager,
            budget_mw,
            policy: AllocationPolicy::RelativeProportional,
            exchange_mode: ExchangeMode::OneWay,
            pool_scale: 1,
            tie_break: TieBreak::Fifo,
            thermal_limit_c: None,
        })
    }

    /// A configuration sized for a large SoC: the coin economy is scaled
    /// so the average managed tile still holds tens of coins.
    pub fn for_large_soc(manager: ManagerKind, budget_mw: f64, n_managed: usize) -> Self {
        SimConfig {
            pool_scale: (n_managed as u32 / 8).max(1),
            ..SimConfig::new(manager, budget_mw)
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Running {
    pub(crate) task: TaskId,
    pub(crate) remaining_kcycles: f64,
    pub(crate) last: SimTime,
}

/// Per-tile runtime state. The BlitzCoin FSM registers live here rather
/// than in the policy object because they mirror real per-tile hardware
/// (each tile carries its own exchange FSM); every other scheme keeps its
/// state inside its `ManagerPolicy`.
#[derive(Debug, Clone)]
pub(crate) struct TileRt {
    pub(crate) model: Option<PowerModel>,
    pub(crate) lut: Option<CoinLut>,
    pub(crate) managed: bool,
    // coin state (managed tiles)
    pub(crate) has: i64,
    pub(crate) max: u64,
    // frequency state
    pub(crate) freq: f64,
    pub(crate) target: f64,
    /// `target` in whole centi-MHz, `(target * 100).round()`, written
    /// wherever `target` is, so a centralized sweep compares each tile's
    /// new command against it with no float rounding.
    pub(crate) target_centi: u64,
    pub(crate) actuate_gen: u64,
    // task state
    pub(crate) running: Option<Running>,
    pub(crate) queue: VecDeque<TaskId>,
    pub(crate) done_gen: u64,
    // BlitzCoin FSM state
    pub(crate) interval: u64,
    pub(crate) rr: usize,
    pub(crate) zero_rot: u32,
    pub(crate) fire_gen: u64,
    pub(crate) next_pairing: SimTime,
    pub(crate) pair_offset: usize,
    pub(crate) partners: Vec<usize>,
    /// Consecutive failed exchanges per entry of `partners`.
    pub(crate) suspect: Vec<u32>,
    /// Set once the tile's scheduled fault fires.
    pub(crate) faulted: Option<TileFaultKind>,
}

/// The engine's clock tree (DESIGN.md §3h): every scheduled activity
/// belongs to a [`ClockDomain`] relating its local clock to the 1 ps
/// base clock, and every delay the engine books is a whole number of
/// some domain's ticks.
///
/// The NoC domain wakes the manager FSMs, actuation pipelines, and
/// fault injectors — in the fabricated SoC they all live in the
/// always-on NoC power domain — while each tile's core clock has
/// its own divider, retuned whenever a DVFS actuation settles. The
/// dividers reproduce the historical cadence exactly (the NoC divider
/// *is* [`blitzcoin_sim::time::NOC_CYCLE_PS`]), so migrating a call
/// site from raw cycle arithmetic onto its domain is provably
/// behavior-preserving.
pub(crate) struct EngineClocks {
    /// The 800 MHz NoC/manager domain.
    pub(crate) noc: ClockDomain,
    /// Per-tile core clocks (tile id → domain). Accelerators boot
    /// clock-gated on their idle-floor clock; infrastructure tiles run
    /// in the NoC domain.
    pub(crate) tile: Vec<ClockDomain>,
}

impl EngineClocks {
    /// The domain of a tile whose DVFS clock settled at `f_mhz`
    /// (`0` = clock-gated, which leaves the idle-floor clock of
    /// F_min / 7.5 at minimum voltage — the same floor task progress
    /// integrates against).
    pub(crate) fn tile_domain(model: Option<&PowerModel>, f_mhz: f64) -> ClockDomain {
        match model {
            Some(_) if f_mhz > 0.0 => ClockDomain::from_frequency_mhz(f_mhz),
            Some(m) => ClockDomain::from_frequency_mhz(m.f_min() / 7.5),
            None => ClockDomain::NOC,
        }
    }
}

/// The BlitzCoin exchange partners of tile `me`: its 4 nearest peers in
/// `members` (its PM cluster) by `(hop distance, tile id)`, nearest
/// first. Only those 4 are sorted, not the whole cluster; `peers` is
/// scratch space reused across tiles.
fn nearest_partners(
    topology: &Topology,
    me: usize,
    members: &[usize],
    peers: &mut Vec<(usize, usize)>,
) -> Vec<usize> {
    const PARTNERS: usize = 4;
    peers.clear();
    peers.extend(
        members
            .iter()
            .filter(|&&t| t != me)
            .map(|&t| (topology.hop_distance(TileId(me), TileId(t)), t)),
    );
    if peers.len() > PARTNERS {
        peers.select_nth_unstable(PARTNERS - 1);
        peers.truncate(PARTNERS);
    }
    peers.sort_unstable();
    peers.iter().map(|&(_, t)| t).collect()
}

/// A configured full-SoC simulation, ready to run.
#[derive(Debug, Clone)]
pub struct Simulation {
    pub(crate) soc: SocConfig,
    pub(crate) wl: Workload,
    pub(crate) cfg: SimConfig,
    pub(crate) coin_value_mw: f64,
    pub(crate) pool: u64,
    pub(crate) top_pmax: f64,
    /// Optional hierarchical PM clusters: a partition of the managed tile
    /// ids. Coin exchange (and hence budget sharing) stays within a
    /// cluster; each cluster owns a slice of the pool proportional to its
    /// accelerators' combined P_max.
    pub(crate) clusters: Option<Vec<Vec<usize>>>,
    /// Faults injected into the run (empty by default).
    pub(crate) fault: FaultPlan,
    /// Test-only sabotage: from this cycle on, the next exchange commit
    /// mints one coin and the one after burns it again. The end-of-run
    /// audit balances perfectly — only the continuous oracle can see it.
    pub(crate) conservation_bug_at: Option<u64>,
    /// Whether the report carries per-tile traces
    /// ([`Simulation::with_tile_traces`]).
    pub(crate) tile_traces: bool,
}

impl Simulation {
    /// Builds a simulation of `wl` on `soc` under `cfg`.
    ///
    /// The coin economy follows the 6-bit hardware: the pool is the
    /// 64-level representation of the budget (one coin = `budget / 63`
    /// mW, programmed into the per-tile LUTs through their CSRs), so the
    /// allocation granularity scales with the budget and no tile's count
    /// can exceed its 6-bit register. The idle floor of every managed
    /// tile is drawn outside the coin economy and reserved up front, so
    /// the enforced cap stays the stated budget.
    pub fn new(soc: SocConfig, wl: Workload, cfg: SimConfig) -> Self {
        let top_pmax = soc
            .managed_tiles()
            .iter()
            .map(|&t| soc.power_model(t).expect("managed").p_max())
            .fold(0.0, f64::max);
        let coin_value_mw = cfg.budget_mw / (63.0 * cfg.pool_scale as f64);
        let idle_floor: f64 = soc
            .managed_tiles()
            .iter()
            .map(|&t| soc.power_model(t).expect("managed").idle_power())
            .sum();
        let pool = ((cfg.budget_mw - idle_floor).max(0.0) / coin_value_mw).round() as u64;
        Simulation {
            soc,
            wl,
            cfg,
            coin_value_mw,
            pool,
            top_pmax,
            clusters: None,
            fault: FaultPlan::none(),
            conservation_bug_at: None,
            tile_traces: false,
        }
    }

    /// Declares that the unit's reader needs per-tile traces: the run
    /// records each managed tile's power, coin and frequency
    /// [`StepTrace`] and returns them in [`SimReport::tiles`]. Without the
    /// declaration the engine records only the per-tile power that the
    /// total `power` trace is summed from, and the report carries no
    /// per-tile traces. The declaration is part of the unit's cache
    /// identity ([`Simulation::unit_json`]).
    #[must_use]
    pub fn with_tile_traces(mut self) -> Self {
        self.tile_traces = true;
        self
    }

    /// Injects a self-cancelling coin-conservation bug for oracle tests:
    /// starting at `at_cycle`, the next exchange commit mints one coin
    /// and the following commit burns one. The run's final ledger is
    /// clean — the end-of-run [`CoinAudit`] cannot see it — so a nonzero
    /// `oracle_violations` in the report proves the *continuous* auditing
    /// works. Not part of the public API surface.
    #[doc(hidden)]
    #[must_use]
    pub fn with_conservation_bug(mut self, at_cycle: u64) -> Self {
        self.conservation_bug_at = Some(at_cycle);
        self
    }

    /// Installs a fault plan, validated against this SoC's topology.
    /// Packet drops, link outages, and delays apply to the NoC model;
    /// tile faults fire as simulation events at their scheduled cycle.
    pub fn try_with_fault_plan(mut self, plan: FaultPlan) -> Result<Self, ConfigError> {
        plan.validate()?;
        let n_tiles = self.soc.topology.len();
        for f in &plan.tile_faults {
            if f.tile >= n_tiles {
                return Err(ConfigError::TileOutOfRange {
                    tile: f.tile,
                    n_tiles,
                });
            }
        }
        for o in &plan.outages {
            for &t in &[o.a, o.b] {
                if t >= n_tiles {
                    return Err(ConfigError::TileOutOfRange { tile: t, n_tiles });
                }
            }
        }
        self.fault = plan;
        Ok(self)
    }

    /// [`Simulation::try_with_fault_plan`], panicking on an invalid plan.
    ///
    /// # Panics
    /// Panics when the plan fails validation or references a tile outside
    /// the topology.
    pub fn with_fault_plan(self, plan: FaultPlan) -> Self {
        self.try_with_fault_plan(plan).expect("invalid fault plan")
    }

    /// Like [`Simulation::new`], with the managed tiles partitioned into
    /// hierarchical PM clusters (each inner vector lists managed tile
    /// ids). Exchange — and therefore budget flexibility — is confined to
    /// each cluster; smaller domains respond faster but cannot lend idle
    /// budget across the boundary.
    ///
    /// # Panics
    /// Panics unless the clusters exactly partition the managed tiles.
    pub fn with_clusters(
        soc: SocConfig,
        wl: Workload,
        cfg: SimConfig,
        clusters: Vec<Vec<usize>>,
    ) -> Self {
        let mut sim = Simulation::new(soc, wl, cfg);
        let mut covered: Vec<usize> = clusters.iter().flatten().copied().collect();
        covered.sort_unstable();
        let mut managed: Vec<usize> = sim.soc.managed_tiles().iter().map(|t| t.index()).collect();
        managed.sort_unstable();
        assert_eq!(
            covered, managed,
            "clusters must partition the managed tiles"
        );
        sim.clusters = Some(clusters);
        sim
    }

    /// Milliwatts represented by one coin in this economy.
    pub fn coin_value_mw(&self) -> f64 {
        self.coin_value_mw
    }

    /// Total coins in the pool (the budget, quantized).
    pub fn pool(&self) -> u64 {
        self.pool
    }

    /// Runs the simulation with the given seed and returns the report.
    pub fn run(&self, seed: u64) -> SimReport {
        self.run_traced(seed, 0).0
    }

    /// Dense-structure audit: builds the engine state exactly as
    /// [`Simulation::run`] would and reports the length of every
    /// container sized from the tile count (or the task count, which the
    /// scaling workloads grow linearly with it), by name. The scaling
    /// tests assert each grows O(tiles), never O(tiles²), between 8x8
    /// and 16x16 — the same audit that flushed out the wormhole router's
    /// dense `n * n` route table.
    pub fn structure_lens(&self) -> Vec<(&'static str, usize)> {
        let core = Core::new(self, SimRng::seed(0));
        let mut lens = vec![
            ("tiles", core.tiles.len()),
            ("tile_clocks", core.clocks.tile.len()),
            ("managed", core.managed.len()),
            ("managed_slot", core.managed_slot.len()),
            ("cluster_of", core.cluster_of.len()),
            (
                "cluster_members_total",
                core.cluster_members.iter().map(Vec::len).sum(),
            ),
            ("cluster_expected", core.cluster_expected.len()),
            (
                "partners_total",
                core.tiles.iter().map(|t| t.partners.len()).sum(),
            ),
            ("deps_left", core.deps_left.len()),
            (
                "dependents_total",
                core.dependents.iter().map(Vec::len).sum(),
            ),
            ("done_tasks", core.done_tasks.len()),
            ("coin_traces", core.coin_traces.len()),
            ("freq_traces", core.freq_traces.len()),
            ("power_traces", core.power_traces.len()),
        ];
        lens.extend(core.net.structure_lens());
        lens
    }

    /// [`Simulation::run`], additionally recording the first `pop_cap`
    /// event pops as `(time_ps, seq)` pairs. The interleaving fuzzer uses
    /// the trace to bisect a divergence to the first pop where two
    /// tie-break orderings split; at `pop_cap == 0` (the [`Simulation::run`]
    /// path) nothing is recorded and nothing is allocated.
    pub fn run_traced(&self, seed: u64, pop_cap: usize) -> (SimReport, Vec<(u64, u64)>) {
        let mut core = Core::new(self, SimRng::seed(seed));
        core.pop_cap = pop_cap;
        let mut policy = crate::managers::policy_for(self.cfg.manager);
        events::run(&mut core, policy.as_mut());
        let trace = std::mem::take(&mut core.pop_trace);
        (accounting::finish(core, policy.as_mut()), trace)
    }
}

/// Shared engine state: everything the scheme-agnostic event loop and
/// the manager policies read and mutate. Scheme-specific state lives in
/// the policy objects (`crate::managers`), never here — the split keeps
/// each manager independently auditable.
pub(crate) struct Core<'a> {
    pub(crate) sim: &'a Simulation,
    pub(crate) rng: SimRng,
    pub(crate) net: Network,
    pub(crate) queue: EventQueue<Ev>,
    pub(crate) clocks: EngineClocks,
    /// In-loop thermal state; `Some` exactly when `cfg.thermal_limit_c`
    /// is set.
    pub(crate) thermal: Option<coupling::ThermalRt>,
    pub(crate) tiles: Vec<TileRt>,
    pub(crate) managed: Vec<usize>,
    /// Slot of each tile id within `managed` (`usize::MAX` for unmanaged
    /// tiles) — the trace arrays are indexed per managed slot, and the
    /// recording paths run on every power/coin/frequency change.
    pub(crate) managed_slot: Vec<usize>,
    /// Cluster index per tile id (managed tiles only; usize::MAX elsewhere).
    pub(crate) cluster_of: Vec<usize>,
    /// Managed tile ids per PM cluster (the exchange / ring domains).
    pub(crate) cluster_members: Vec<Vec<usize>>,
    pub(crate) now: SimTime,
    // workload progress
    pub(crate) deps_left: Vec<usize>,
    /// The tasks that list each task among their `deps`.
    pub(crate) dependents: Vec<Vec<TaskId>>,
    pub(crate) completed: usize,
    pub(crate) exec_end: SimTime,
    pub(crate) done_tasks: Vec<bool>,
    pub(crate) abandoned_tasks: Vec<bool>,
    pub(crate) abandoned: usize,
    // fault accounting
    pub(crate) audit: CoinAudit,
    pub(crate) fault_at: Option<SimTime>,
    pub(crate) recovered_at: Option<SimTime>,
    // continuous invariant auditing
    pub(crate) oracle: Oracle,
    /// Expected coin total per PM cluster (BlitzCoin conserves these at
    /// every exchange commit; exchanges never cross cluster boundaries).
    pub(crate) cluster_expected: Vec<i128>,
    /// Test-only conservation-bug FSM: 0 armed, 1 minted, 2 burned.
    pub(crate) bug_state: u8,
    // response measurement
    pub(crate) pending_changes: Vec<SimTime>,
    pub(crate) responses: Vec<ResponseSample>,
    pub(crate) activity_changes: Vec<ActivityChange>,
    // traces, indexed by managed slot; `coin_traces` and `freq_traces`
    // stay empty unless the unit declared tile traces
    pub(crate) coin_traces: Vec<StepTrace>,
    pub(crate) freq_traces: Vec<StepTrace>,
    pub(crate) power_traces: Vec<StepTrace>,
    pub(crate) events: u64,
    // interleaving-fuzz pop trace (see `Simulation::run_traced`)
    pub(crate) pop_cap: usize,
    pub(crate) pop_trace: Vec<(u64, u64)>,
}

impl<'a> Core<'a> {
    fn new(sim: &'a Simulation, rng: SimRng) -> Self {
        let soc = &sim.soc;
        let managed: Vec<usize> = soc.managed_tiles().iter().map(|t| t.index()).collect();
        // a coin LUT depends only on the tile's class (its power model)
        // and the coin value, so each class's table is built once
        let mut luts: Vec<(AcceleratorClass, CoinLut)> = Vec::new();
        let mut tiles: Vec<TileRt> = soc
            .topology
            .tiles()
            .map(|id| {
                let kind = soc.tiles[id.index()];
                let model = kind.accel_class().map(PowerModel::of);
                let lut = kind
                    .accel_class()
                    .zip(model.as_ref())
                    .filter(|_| kind.is_managed())
                    .map(|(c, m)| {
                        if let Some((_, lut)) = luts.iter().find(|(lc, _)| *lc == c) {
                            return lut.clone();
                        }
                        let lut = CoinLut::build(m, sim.coin_value_mw, 64);
                        luts.push((c, lut.clone()));
                        lut
                    });
                TileRt {
                    model,
                    lut,
                    managed: kind.is_managed(),
                    has: 0,
                    max: 0,
                    freq: 0.0,
                    target: 0.0,
                    target_centi: 0,
                    actuate_gen: 0,
                    running: None,
                    queue: VecDeque::new(),
                    done_gen: 0,
                    interval: 64,
                    rr: 0,
                    zero_rot: 0,
                    fire_gen: 0,
                    next_pairing: SimTime::ZERO,
                    pair_offset: 2,
                    partners: Vec::new(),
                    suspect: Vec::new(),
                    faulted: None,
                }
            })
            .collect();
        // hierarchical clusters: default one global domain
        let mut cluster_of = vec![usize::MAX; soc.topology.len()];
        let cluster_list: Vec<Vec<usize>> = match &sim.clusters {
            Some(c) => c.clone(),
            None => vec![managed.clone()],
        };
        for (ci, members) in cluster_list.iter().enumerate() {
            for &t in members {
                cluster_of[t] = ci;
            }
        }
        // BlitzCoin exchange partners: the 4 nearest managed peers within
        // the same cluster
        let mut peers = Vec::new();
        for &ti in &managed {
            let partners =
                nearest_partners(&soc.topology, ti, &cluster_list[cluster_of[ti]], &mut peers);
            tiles[ti].suspect = vec![0; partners.len()];
            tiles[ti].partners = partners;
        }
        // initial coins: each cluster owns a pool slice proportional to
        // its accelerators' combined P_max, split equally inside
        let total_pmax: f64 = managed
            .iter()
            .map(|&t| soc.power_model(TileId(t)).expect("managed").p_max())
            .sum();
        for members in &cluster_list {
            let cluster_pmax: f64 = members
                .iter()
                .map(|&t| soc.power_model(TileId(t)).expect("managed").p_max())
                .sum();
            let cluster_pool = (sim.pool as f64 * cluster_pmax / total_pmax).round() as u64;
            let n = members.len() as u64;
            for (k, &ti) in members.iter().enumerate() {
                let base = cluster_pool / n;
                let extra = u64::from((k as u64) < cluster_pool % n);
                tiles[ti].has = (base + extra) as i64;
            }
        }
        let (coin_traces, freq_traces) = if sim.tile_traces {
            let coins = managed
                .iter()
                .map(|&ti| {
                    let mut tr = StepTrace::new(format!("coins_t{ti}"));
                    tr.record(SimTime::ZERO, tiles[ti].has as f64);
                    tr
                })
                .collect();
            let freq = managed
                .iter()
                .map(|&ti| StepTrace::new(format!("freq_t{ti}")))
                .collect();
            (coins, freq)
        } else {
            (Vec::new(), Vec::new())
        };
        let power_traces = managed
            .iter()
            .map(|&ti| StepTrace::new(format!("power_t{ti}")))
            .collect();
        let deps_left = sim.wl.tasks().iter().map(|t| t.deps.len()).collect();
        // each task's dependents in task order (`Workload::new` keeps no
        // repeated dependency, so one completion decrements `deps_left` once)
        let mut dependents: Vec<Vec<TaskId>> = vec![Vec::new(); sim.wl.len()];
        for t in sim.wl.tasks() {
            for d in &t.deps {
                dependents[d.0].push(t.id);
            }
        }
        let initial_coins: i64 = tiles.iter().map(|t| t.has).sum();
        let cluster_expected: Vec<i128> = cluster_list
            .iter()
            .map(|members| members.iter().map(|&t| i128::from(tiles[t].has)).sum())
            .collect();
        let oracle = Oracle::new("blitzcoin-soc Simulation::run", rng.root_seed())
            .with_tie_break(sim.cfg.tie_break);
        let mut net = Network::new(soc.topology);
        net.set_fault_plan(sim.fault.clone());
        let n_tasks = sim.wl.len();
        let mut managed_slot = vec![usize::MAX; soc.topology.len()];
        for (slot, &ti) in managed.iter().enumerate() {
            managed_slot[ti] = slot;
        }
        let clocks = EngineClocks {
            noc: ClockDomain::NOC,
            tile: tiles
                .iter()
                .map(|t| EngineClocks::tile_domain(t.model.as_ref(), 0.0))
                .collect(),
        };
        Core {
            sim,
            rng,
            net,
            queue: take_recycled_queue(sim.cfg.tie_break),
            clocks,
            thermal: sim
                .cfg
                .thermal_limit_c
                .map(|limit_c| coupling::ThermalRt::new(soc.topology, limit_c)),
            tiles,
            managed,
            managed_slot,
            cluster_of,
            cluster_members: cluster_list,
            now: SimTime::ZERO,
            deps_left,
            dependents,
            completed: 0,
            exec_end: SimTime::ZERO,
            done_tasks: vec![false; n_tasks],
            abandoned_tasks: vec![false; n_tasks],
            abandoned: 0,
            audit: CoinAudit::new(initial_coins),
            fault_at: None,
            recovered_at: None,
            oracle,
            cluster_expected,
            bug_state: 0,
            pending_changes: Vec::new(),
            responses: Vec::new(),
            activity_changes: Vec::new(),
            coin_traces,
            freq_traces,
            power_traces,
            events: 0,
            pop_cap: 0,
            pop_trace: Vec::new(),
        }
    }

    pub(crate) fn cfg(&self) -> &SimConfig {
        &self.sim.cfg
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.sim.fault
    }
}

#[cfg(test)]
mod tests {
    use super::nearest_partners;
    use blitzcoin_noc::{TileId, Topology};
    use blitzcoin_sim::check::forall_seeded;
    use blitzcoin_sim::ensure;

    #[test]
    fn partners_match_the_full_sort_reference() {
        forall_seeded("nearest_partners_reference", 0x9A27, 0..200, |rng| {
            let topo = Topology::mesh(rng.range_usize(1..9), rng.range_usize(1..9));
            let managed: Vec<usize> = (0..topo.len()).filter(|_| rng.chance(0.6)).collect();
            let n_clusters = rng.range_usize(1..4);
            let mut cluster_of = vec![usize::MAX; topo.len()];
            let mut clusters = vec![Vec::new(); n_clusters];
            for &t in &managed {
                cluster_of[t] = rng.range_usize(0..n_clusters);
                clusters[cluster_of[t]].push(t);
            }
            // a caller's cluster lists need not be in tile order
            for members in &mut clusters {
                rng.shuffle(members);
            }
            let mut scratch = Vec::new();
            for (mi, &ti) in managed.iter().enumerate() {
                let fast = nearest_partners(&topo, ti, &clusters[cluster_of[ti]], &mut scratch);
                // the pre-change choice: sort every same-cluster peer
                let mut peers: Vec<(usize, usize)> = managed
                    .iter()
                    .enumerate()
                    .filter(|&(mj, &tj)| mj != mi && cluster_of[tj] == cluster_of[ti])
                    .map(|(_, &tj)| (topo.hop_distance(TileId(ti), TileId(tj)), tj))
                    .collect();
                peers.sort();
                let reference: Vec<usize> = peers.into_iter().take(4).map(|(_, t)| t).collect();
                ensure!(fast == reference, "tile {ti}: {fast:?} != {reference:?}");
            }
            Ok(())
        });
    }
}
