//! Content-addressed caching of [`Simulation`] runs.
//!
//! A [`Simulation`] is a pure function of its full configuration and the
//! run seed: the engine draws every random decision from a
//! [`SimRng`](blitzcoin_sim::SimRng) derived from that seed, pops
//! same-timestamp events under the configured
//! [`TieBreak`](blitzcoin_sim::TieBreak), and touches no ambient state —
//! so `(unit, seed)` provably determines the [`SimReport`] bit for bit.
//! That is what makes memoization *sound*: [`run_cached`] can substitute
//! a stored report for a re-run and no downstream consumer (CSV
//! emission, claim checks, the interleaving fuzzer's fact comparison)
//! can tell the difference.
//!
//! [`Simulation::unit_json`] is the cache identity: every semantic field
//! of the unit — floorplan, workload, the entire
//! [`SimConfig`](crate::SimConfig) (manager, budget, policy, exchange
//! mode, pool scale, tie-break, thermal limit),
//! PM clusters, fault plan, the conservation-bug sabotage switch, the
//! report shape ([`Simulation::with_tile_traces`]), and the derived seed.
//! The shape is in the key because it changes the stored value: a
//! scalar-only report must never answer a unit that reads per-tile
//! traces. Job counts, output paths, and anything else that cannot
//! change the result are deliberately absent. [`SIM_CACHE_SCHEMA`] is
//! hashed into the key, so changing the serialized report format (or the
//! meaning of any key field) only requires bumping the constant: old
//! entries simply stop being addressed.
//!
//! The seed stays in the key even for managers whose report does not
//! depend on it
//! ([`ManagerKind::draws_from_seed`](crate::ManagerKind::draws_from_seed)).
//! A sweep that wants one run of such a unit maps its replicas onto one
//! item before the fan-out, where the experiment harness's `par_units`
//! runs each distinct item once. Keying the replicas alike instead would
//! leave concurrent duplicate misses in one fan-out to race, and a
//! figure's hit and miss counts would then depend on thread timing.

use blitzcoin_sim::cache::{key_of, Cache, CacheKey, Fetch};
use blitzcoin_sim::json::{FromJson, Json, ToJson};

use crate::engine::Simulation;
use crate::report::SimReport;

/// Version of the cached-report format and key layout. Bump whenever
/// [`SimReport`]'s serialization or [`Simulation::unit_json`]'s field
/// set changes meaning; every bump auto-invalidates all prior entries.
pub const SIM_CACHE_SCHEMA: u32 = 3;

impl Simulation {
    /// The canonical JSON identity of running `self` under `seed`:
    /// everything the engine's result depends on, and nothing it
    /// doesn't.
    pub fn unit_json(&self, seed: u64) -> Json {
        Json::Obj(vec![
            ("soc".to_string(), self.soc.to_json()),
            ("workload".to_string(), self.wl.to_json()),
            ("config".to_string(), self.cfg.to_json()),
            ("clusters".to_string(), self.clusters.to_json()),
            ("fault".to_string(), self.fault.to_json()),
            (
                "conservation_bug_at".to_string(),
                self.conservation_bug_at.to_json(),
            ),
            ("tile_traces".to_string(), self.tile_traces.to_json()),
            ("seed".to_string(), seed.to_json()),
        ])
    }

    /// The content address of `(self, seed)` under [`SIM_CACHE_SCHEMA`].
    pub fn cache_key(&self, seed: u64) -> CacheKey {
        key_of(&self.unit_json(seed), SIM_CACHE_SCHEMA)
    }
}

/// Runs `sim` under `seed` through `cache`: a hit replays the memoized
/// report, a miss computes [`Simulation::run`] and stores it. Returns
/// the report and whether it was served from cache.
///
/// A stored report that fails to decode (disk corruption that still
/// parses as JSON, or a schema drift that slipped past the version
/// bump) is never an error: the lookup counts as a miss, and the
/// recomputed report replaces the entry in memory and on disk.
pub fn run_cached(cache: &Cache, sim: &Simulation, seed: u64) -> (SimReport, bool) {
    let key = sim.cache_key(seed);
    let guard = match cache.fetch(key) {
        Fetch::Hit(value, ms) => match SimReport::from_json(&value) {
            Ok(report) => return (report, true),
            Err(e) => {
                eprintln!(
                    "blitzcoin-cache: stored report for {key} does not decode ({e}); \
                     recomputing"
                );
                cache.reject_hit(key, ms)
            }
        },
        Fetch::Miss(guard) => guard,
        Fetch::Bypass => return (sim.run(seed), false),
    };
    let t0 = std::time::Instant::now();
    let report = sim.run(seed);
    guard.complete(report.to_json(), t0.elapsed().as_secs_f64() * 1e3);
    (report, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimConfig;
    use crate::manager::ManagerKind;
    use crate::{floorplan, workload};
    use blitzcoin_sim::{FaultPlan, TieBreak, TileFault, TileFaultKind};

    fn small_sim(manager: ManagerKind, budget: f64, tie: TieBreak) -> Simulation {
        let soc = floorplan::soc_3x3();
        let wl = workload::av_parallel(&soc, 1);
        let cfg = SimConfig {
            tie_break: tie,
            ..SimConfig::new(manager, budget)
        };
        Simulation::new(soc, wl, cfg)
    }

    #[test]
    fn report_round_trips_exactly_through_json() {
        // Both report shapes: scalar-only and with per-tile traces.
        let scalar = small_sim(ManagerKind::BlitzCoin, 120.0, TieBreak::Fifo);
        for sim in [scalar.clone(), scalar.with_tile_traces()] {
            let report = sim.run(7);
            assert_eq!(report.tiles.is_some(), sim.tile_traces);
            let text = report.to_json().to_string();
            let back = SimReport::from_json(&Json::parse(&text).unwrap()).unwrap();
            // Exactness matters: the cache replays reports into CSVs that
            // must be byte-identical to a cold run's.
            assert_eq!(back.to_json().to_string(), text);
            assert_eq!(back.exec_time, report.exec_time);
            assert_eq!(back.responses.len(), report.responses.len());
            assert_eq!(back.noc.packets, report.noc.packets);
            assert_eq!(back.events, report.events);
        }
    }

    #[test]
    fn the_declared_shape_changes_only_the_traces() {
        // The declaration adds the per-tile traces and nothing else: the
        // two shapes agree on every other field, bit for bit.
        let scalar = small_sim(ManagerKind::BlitzCoin, 120.0, TieBreak::Fifo);
        let mut full = scalar.clone().with_tile_traces().run(7);
        let tiles = full.tiles.take().expect("declared traces");
        assert_eq!(
            full.to_json().to_string(),
            scalar.run(7).to_json().to_string()
        );
        assert_eq!(tiles.power.len(), full.managed_tiles.len());
        assert_eq!(tiles.coins.len(), full.managed_tiles.len());
        assert_eq!(tiles.freq.len(), full.managed_tiles.len());
    }

    #[test]
    fn cache_key_covers_semantic_fields() {
        let base = small_sim(ManagerKind::BlitzCoin, 120.0, TieBreak::Fifo);
        let k0 = base.cache_key(1);

        // Every semantic change must re-address the unit.
        assert_ne!(k0, base.cache_key(2), "seed");
        assert_ne!(
            k0,
            small_sim(ManagerKind::TokenSmart, 120.0, TieBreak::Fifo).cache_key(1),
            "manager kind"
        );
        assert_ne!(
            k0,
            small_sim(ManagerKind::BlitzCoin, 90.0, TieBreak::Fifo).cache_key(1),
            "budget"
        );
        assert_ne!(
            k0,
            small_sim(ManagerKind::BlitzCoin, 120.0, TieBreak::Lifo).cache_key(1),
            "tie-break"
        );
        let mut plan = FaultPlan::none();
        plan.tile_faults.push(TileFault {
            tile: 4,
            at_cycle: 1000,
            kind: TileFaultKind::FailStop,
        });
        assert_ne!(
            k0,
            small_sim(ManagerKind::BlitzCoin, 120.0, TieBreak::Fifo)
                .with_fault_plan(plan)
                .cache_key(1),
            "fault plan"
        );
        assert_ne!(
            k0,
            small_sim(ManagerKind::BlitzCoin, 120.0, TieBreak::Fifo)
                .with_tile_traces()
                .cache_key(1),
            "report shape"
        );

        // ... and an identical rebuild must not.
        assert_eq!(
            k0,
            small_sim(ManagerKind::BlitzCoin, 120.0, TieBreak::Fifo).cache_key(1)
        );
    }

    /// The golden fixture: the content address of one pinned unit.
    ///
    /// This hex is intentionally hard-coded. If it changes, either the
    /// key algorithm (canonicalization, hashing, schema prefix) or a
    /// config type's serialization changed — both of which re-address
    /// the whole store and deserve a deliberate [`SIM_CACHE_SCHEMA`]
    /// bump, not an accidental drift. Update the fixture only alongside
    /// such a bump.
    #[test]
    fn cache_key_is_byte_stable() {
        let sim = small_sim(ManagerKind::BlitzCoin, 120.0, TieBreak::Fifo);
        assert_eq!(
            sim.cache_key(7).hex(),
            "9012266c1626e3df048b39fc6fb2bf298e5551b96205ecd63c7c186605dac60a",
            "pinned cache key drifted; bump SIM_CACHE_SCHEMA if intentional"
        );
        // Identity is canonical: the key must not depend on the order in
        // which unit fields happen to be serialized...
        let Json::Obj(mut pairs) = sim.unit_json(7) else {
            panic!("unit_json is an object");
        };
        pairs.reverse();
        assert_eq!(
            blitzcoin_sim::cache::key_of(&Json::Obj(pairs), SIM_CACHE_SCHEMA),
            sim.cache_key(7)
        );
        // ... and execution knobs (job counts, output paths) are not part
        // of the unit at all, so they cannot perturb it.
        let canon = blitzcoin_sim::cache::canonical(&sim.unit_json(7));
        assert!(!canon.contains("jobs"));
        // The config carries exactly the settings a caller varies.
        let Json::Obj(config) = sim.cfg.to_json() else {
            panic!("SimConfig serializes as an object");
        };
        let fields: Vec<&str> = config.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            fields,
            [
                "manager",
                "budget_mw",
                "policy",
                "exchange_mode",
                "pool_scale",
                "tie_break",
                "thermal_limit_c"
            ]
        );
    }

    #[test]
    fn schema_bump_ignores_stale_disk_entries() {
        let dir = std::env::temp_dir().join(format!("bc-schema-bump-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sim = small_sim(ManagerKind::Static, 120.0, TieBreak::Fifo);

        // Populate the store under the current schema...
        let old = Cache::new(Some(dir.clone()), Default::default());
        let (_, hit) = run_cached(&old, &sim, 5);
        assert!(!hit);

        // ... then pretend the schema was bumped: the same unit under
        // schema+1 addresses a different entry, so the stale one is
        // simply never read — a miss, not an error.
        let bumped_key = blitzcoin_sim::cache::key_of(&sim.unit_json(5), SIM_CACHE_SCHEMA + 1);
        let fresh = Cache::new(Some(dir.clone()), Default::default());
        match fresh.fetch(bumped_key) {
            Fetch::Miss(_) => {}
            other => panic!("bumped schema must miss, got {other:?}"),
        }
        // The old-schema entry is still served to old-schema readers.
        let (_, hit) = run_cached(&fresh, &sim, 5);
        assert!(hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_cached_replays_identically() {
        let cache = Cache::in_memory();
        let sim = small_sim(ManagerKind::Static, 120.0, TieBreak::Fifo);
        let (cold, hit0) = run_cached(&cache, &sim, 3);
        assert!(!hit0);
        let (warm, hit1) = run_cached(&cache, &sim, 3);
        assert!(hit1);
        assert_eq!(warm.to_json().to_string(), cold.to_json().to_string());
        assert_eq!(warm.exec_time, cold.exec_time);
    }

    #[test]
    fn undecodable_entry_is_recomputed_once_and_replaced() {
        let dir = std::env::temp_dir().join(format!("bc-repair-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sim = small_sim(ManagerKind::Static, 120.0, TieBreak::Fifo);
        let good = sim.run(9).to_json().to_string();

        // Valid JSON under the unit's key that is not a `SimReport`.
        let seeding = Cache::new(Some(dir.clone()), Default::default());
        let Fetch::Miss(guard) = seeding.fetch(sim.cache_key(9)) else {
            panic!("an empty store must miss");
        };
        guard.complete(Json::Str("not a report".into()), 1.0);

        let cache = Cache::new(Some(dir.clone()), Default::default());
        let (report, hit) = run_cached(&cache, &sim, 9);
        assert!(!hit);
        assert_eq!(report.to_json().to_string(), good);
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses, s.saved_ms),
            (0, 1, 0.0),
            "one repair is one miss"
        );
        // The repair replaced the entry in memory ...
        assert!(run_cached(&cache, &sim, 9).1);
        // ... and on disk.
        let fresh = Cache::new(Some(dir.clone()), Default::default());
        let (replayed, hit) = run_cached(&fresh, &sim, 9);
        assert!(hit, "a fresh cache must hit the repaired entry");
        assert_eq!(replayed.to_json().to_string(), good);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
