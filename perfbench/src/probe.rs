//! Per-layer probes: seeded units built with the constructors the
//! figures use, replayed through the same public calls the figures make,
//! one span per call, each reported as the median of repeated calls.
//!
//! Time is host time; `events`, `packets`, `exchanges`, `cycles` and the
//! report size are simulated counts, which repeat exactly for a seed.
//! A probe whose count changes between repeated calls is a failure.

use std::path::Path;

use blitzcoin_baselines::{TokenSmart, TsConfig};
use blitzcoin_core::montecarlo::run_one;
use blitzcoin_core::{ConvergenceResult, EmulatorConfig, ExchangeMode, PairingMode};
use blitzcoin_noc::Topology;
use blitzcoin_sim::cache::{Cache, CacheMode, Fetch};
use blitzcoin_sim::exec::derive_seed;
use blitzcoin_sim::json::{FromJson, ToJson};
use blitzcoin_sim::SimRng;
use blitzcoin_soc::prelude::*;

use crate::metrics::Metrics;
use crate::span::Recorder;

/// The SoC sizes the probes build, each with the floorplan, workload and
/// budget of the figures that run it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// fig16/fig17: `soc_3x3`, AV WL-Par, 120 mW.
    S3x3,
    /// fig18: `soc_4x4`, vision WL-Par, 450 mW.
    S4x4,
    /// fig19/fig20: `soc_6x6`, 7-accelerator PM cluster, 33% of P_max.
    S6x6,
    /// mega-mesh: 16x16 quadtree mesh, `parallel_all`, 30% of P_max.
    M16x16,
    /// mega-mesh: 32x32 quadtree mesh, `parallel_all`, 30% of P_max.
    M32x32,
}

impl Size {
    /// Every probed size, smallest first.
    pub const ALL: [Size; 5] = [
        Size::S3x3,
        Size::S4x4,
        Size::S6x6,
        Size::M16x16,
        Size::M32x32,
    ];
    /// The paper's SoCs.
    pub const SMALL: [Size; 3] = [Size::S3x3, Size::S4x4, Size::S6x6];
    /// The mega-meshes.
    pub const MEGA: [Size; 2] = [Size::M16x16, Size::M32x32];

    /// The size as it appears in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Size::S3x3 => "3x3",
            Size::S4x4 => "4x4",
            Size::S6x6 => "6x6",
            Size::M16x16 => "16x16",
            Size::M32x32 => "32x32",
        }
    }

    fn mega_side(self) -> Option<usize> {
        match self {
            Size::M16x16 => Some(16),
            Size::M32x32 => Some(32),
            _ => None,
        }
    }

    /// Repeated calls per median: fewer at the mega sizes, where one
    /// engine run takes up to a second.
    fn reps(self) -> usize {
        if self.mega_side().is_some() {
            3
        } else {
            REPS
        }
    }
}

/// Repeated calls per median for the small units.
const REPS: usize = 7;

/// A manager configuration of the engine probes, named as in the
/// figures.
#[derive(Debug, Clone, Copy)]
pub struct Scheme {
    /// Name used in metric names.
    pub name: &'static str,
    kind: ManagerKind,
    mode: ExchangeMode,
}

const fn scheme(name: &'static str, kind: ManagerKind) -> Scheme {
    Scheme {
        name,
        kind,
        mode: ExchangeMode::OneWay,
    }
}

const BC: Scheme = scheme("BC", ManagerKind::BlitzCoin);
const BCC: Scheme = scheme("BC-C", ManagerKind::BcCentralized);
const TS: Scheme = scheme("TS", ManagerKind::TokenSmart);
const BC4W: Scheme = Scheme {
    mode: ExchangeMode::FourWay,
    ..scheme("BC-4W", ManagerKind::BlitzCoin)
};

/// The engine units: every scheme on the 6x6 PM cluster, BC on the
/// paper's smaller SoCs, and the mega-mesh schemes at 256 and 1024
/// tiles.
pub const ENGINE_UNITS: [(Size, Scheme); 15] = [
    (Size::S6x6, BC),
    (Size::S6x6, BC4W),
    (Size::S6x6, BCC),
    (
        Size::S6x6,
        scheme("C-RR", ManagerKind::CentralizedRoundRobin),
    ),
    (Size::S6x6, TS),
    (Size::S6x6, scheme("PT", ManagerKind::PriceTheory)),
    (Size::S6x6, scheme("Static", ManagerKind::Static)),
    (Size::S3x3, BC),
    (Size::S4x4, BC),
    (Size::M16x16, BC),
    (Size::M16x16, BCC),
    (Size::M16x16, TS),
    (Size::M32x32, BC),
    (Size::M32x32, BCC),
    (Size::M32x32, TS),
];

/// Sizes of the cache and JSON probes (BC reports).
pub const CODEC_SIZES: [Size; 2] = [Size::S6x6, Size::M32x32];

/// The behavioural-emulator probe configurations: fig4's convergence
/// protocol and fig7's residual-error protocol with random pairing.
pub const EMULATOR_CONFIGS: [&str; 2] = ["converge", "residual"];
/// Torus sides of the emulator probes.
pub const EMULATOR_SIDES: [usize; 2] = [10, 20];
/// Ring size of the TokenSmart probe (fig4's largest point).
pub const TOKENSMART_N: usize = 400;

/// Which unit families a traced run replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `floorplan::*`, `workload::*`, `Simulation::new`/`with_clusters`.
    Build,
    /// `Simulation::run` per engine unit.
    Engine,
    /// `sim::cache` stages and `sim::json` encode/decode.
    Codec,
    /// `core::emulator` through `montecarlo::run_one`.
    Emulator,
    /// `baselines::tokensmart` through `TokenSmart::run`.
    TokenSmart,
}

/// Replays `families` at `sizes` (for the SoC families) under `seed`,
/// recording spans into `rec` and metrics into `out`. Returns the number
/// of probe units attempted and the failures: counts that did not
/// repeat, reports that did not round-trip.
pub fn run(
    families: &[Family],
    sizes: &[Size],
    seed: u64,
    scratch: &Path,
    rec: &mut Recorder,
    out: &mut Metrics,
) -> (u64, Vec<String>) {
    let mut p = Probe {
        seed,
        scratch,
        rec,
        out,
        units: 0,
        failures: Vec::new(),
    };
    for family in families {
        match family {
            Family::Build => sizes.iter().for_each(|&s| p.build(s)),
            Family::Engine => {
                for (k, &(size, scheme)) in ENGINE_UNITS.iter().enumerate() {
                    if sizes.contains(&size) {
                        p.engine(k as u64, size, scheme);
                    }
                }
            }
            Family::Codec => {
                for (k, &size) in CODEC_SIZES.iter().enumerate() {
                    if sizes.contains(&size) {
                        p.codec(100 + k as u64, size);
                    }
                }
            }
            Family::Emulator => {
                for (c, cfg) in EMULATOR_CONFIGS.into_iter().enumerate() {
                    for (i, d) in EMULATOR_SIDES.into_iter().enumerate() {
                        p.emulator(200 + (2 * c + i) as u64, cfg, d);
                    }
                }
            }
            Family::TokenSmart => p.tokensmart(300),
        }
    }
    (p.units, p.failures)
}

/// The state one traced run's probes share.
struct Probe<'a> {
    seed: u64,
    scratch: &'a Path,
    rec: &'a mut Recorder,
    out: &'a mut Metrics,
    units: u64,
    failures: Vec<String>,
}

impl Probe<'_> {
    /// Checks that a count came out the same on every repeated call.
    fn same_count(&mut self, name: &str, counts: &[u64]) -> f64 {
        if counts.windows(2).any(|w| w[0] != w[1]) {
            self.failures.push(format!(
                "{name}: count changed between repeated calls: {counts:?}"
            ));
        }
        counts[0] as f64
    }

    fn build(&mut self, size: Size) {
        self.units += 1;
        let ms: Vec<f64> = (0..size.reps())
            .map(|_| {
                let root = format!("probe.build.{}", size.label());
                self.rec.span("bench", root, |rec| {
                    let first = rec.spans().len();
                    build(rec, size, BC);
                    rec.spans()[first..]
                        .iter()
                        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
                        .sum()
                })
            })
            .collect();
        let name = format!("soc.build.{}.ms", size.label());
        self.out.put(name, median(ms), "ms");
    }

    fn engine(&mut self, index: u64, size: Size, scheme: Scheme) {
        self.units += 1;
        let seed = derive_seed(self.seed, index);
        let name = format!("{}.{}", size.label(), scheme.name);
        let (mut ns, mut events, mut packets) = (Vec::new(), Vec::new(), Vec::new());
        self.rec
            .span("bench", format!("probe.engine.{name}"), |rec| {
                let sim = build(rec, size, scheme);
                for _ in 0..size.reps() {
                    let (r, ms) = rec.leaf("soc.engine", "Simulation::run", || sim.run(seed));
                    ns.push(ms * 1e6 / r.events.max(1) as f64);
                    events.push(r.events);
                    packets.push(r.noc.packets.iter().sum::<u64>());
                }
            });
        let events = self.same_count(&format!("engine.{name}.events"), &events);
        let packets = self.same_count(&format!("noc.{name}.packets"), &packets);
        let out = &mut *self.out;
        out.put(
            format!("engine.{name}.ns_per_event"),
            median(ns),
            "ns/event",
        );
        out.put(format!("engine.{name}.events"), events, "count");
        out.put(format!("noc.{name}.packets"), packets, "count");
    }

    /// The cache and JSON stages of `soc::cached::run_cached` on a BC
    /// unit: key, miss on an empty store, encode, store; then a disk hit
    /// on a fresh `Cache` and the decode.
    fn codec(&mut self, index: u64, size: Size) {
        self.units += 1;
        let seed = derive_seed(self.seed, index);
        let label = size.label();
        let mut t: [Vec<f64>; 5] = Default::default();
        let (mut bytes, mut failures) = (Vec::new(), Vec::new());
        let scratch = self.scratch;
        self.rec
            .span("bench", format!("probe.codec.{label}"), |rec| {
                let sim = build(rec, size, BC);
                let (report, _) = rec.leaf("soc.engine", "Simulation::run", || sim.run(seed));
                let text = report.to_json().to_string();
                for rep in 0..size.reps() {
                    let dir = scratch.join(format!("codec-{label}-{rep}"));
                    let _ = std::fs::remove_dir_all(&dir);
                    let (key, key_ms) =
                        rec.leaf("sim.cache", "Simulation::cache_key", || sim.cache_key(seed));
                    let cache = Cache::new(Some(dir.clone()), CacheMode::On);
                    let (fetch, _) =
                        rec.leaf("sim.cache", "Cache::fetch (miss)", || cache.fetch(key));
                    let Fetch::Miss(guard) = fetch else {
                        failures.push(format!("cache.{label}: an empty store did not miss"));
                        return;
                    };
                    let (json, enc_ms) =
                        rec.leaf("sim.json", "SimReport::to_json", || report.to_json());
                    bytes.push(json.to_string().len() as u64);
                    let (_, store_ms) = rec.leaf("sim.cache", "ComputeGuard::complete", || {
                        guard.complete(json, 1.0)
                    });
                    let fresh = Cache::new(Some(dir.clone()), CacheMode::On);
                    let (fetch, load_ms) =
                        rec.leaf("sim.cache", "Cache::fetch (disk hit)", || fresh.fetch(key));
                    let Fetch::Hit(value, _) = fetch else {
                        failures.push(format!("cache.{label}: a stored entry did not load"));
                        return;
                    };
                    let (back, dec_ms) = rec.leaf("sim.json", "SimReport::from_json", || {
                        SimReport::from_json(&value)
                    });
                    if !back.is_ok_and(|b| b.to_json().to_string() == text) {
                        failures.push(format!("json.{label}: the report did not round-trip"));
                    }
                    let _ = std::fs::remove_dir_all(&dir);
                    for (series, ms) in t
                        .iter_mut()
                        .zip([key_ms, store_ms, load_ms, enc_ms, dec_ms])
                    {
                        series.push(ms);
                    }
                }
            });
        self.failures.append(&mut failures);
        if bytes.is_empty() {
            return;
        }
        let kb = self.same_count(&format!("json.report.{label}.kb"), &bytes) / 1024.0;
        let [key, store, load, enc, dec] = t;
        let out = &mut *self.out;
        out.put(format!("cache.key.{label}.ms"), median(key), "ms");
        out.put(format!("cache.store.{label}.ms"), median(store), "ms");
        out.put(format!("cache.load.{label}.ms"), median(load), "ms");
        out.put(format!("json.encode.{label}.ms"), median(enc), "ms");
        out.put(format!("json.decode.{label}.ms"), median(dec), "ms");
        out.put(format!("json.report.{label}.kb"), kb, "KiB");
    }

    fn emulator(&mut self, index: u64, cfg: &str, d: usize) {
        self.units += 1;
        let rng = SimRng::seed(self.seed).derive(index);
        let name = format!("emulator.{cfg}.d{d}");
        let (mut ms, mut exchanges) = (Vec::new(), Vec::new());
        self.rec.span("bench", format!("probe.{name}"), |rec| {
            for _ in 0..REPS {
                let rng = rng.clone();
                let (r, t) = rec.leaf("core.emulator", "montecarlo::run_one", || {
                    emulator_trial(cfg, d, rng)
                });
                ms.push(t);
                exchanges.push(r.exchanges);
            }
        });
        let exchanges = self.same_count(&format!("{name}.exchanges"), &exchanges);
        self.out.put(format!("{name}.trial_ms"), median(ms), "ms");
        self.out
            .put(format!("{name}.exchanges"), exchanges, "count");
    }

    /// fig4's TokenSmart ring at its largest size.
    fn tokensmart(&mut self, index: u64) {
        self.units += 1;
        let rng = SimRng::seed(self.seed).derive(index);
        let name = format!("tokensmart.n{TOKENSMART_N}");
        let (mut ms, mut cycles) = (Vec::new(), Vec::new());
        self.rec.span("bench", format!("probe.{name}"), |rec| {
            for _ in 0..REPS {
                let mut rng = rng.clone();
                let config = TsConfig {
                    err_threshold: 1.5,
                    ..TsConfig::default()
                };
                let n = TOKENSMART_N;
                let mut ts = TokenSmart::new(vec![32; n], 32 * n as u64, config);
                ts.init_uniform_random(&mut rng);
                let (r, t) = rec.leaf("baselines.tokensmart", "TokenSmart::run", || {
                    ts.run(&mut rng)
                });
                ms.push(t);
                cycles.push(r.cycles);
            }
        });
        let cycles = self.same_count(&format!("{name}.cycles"), &cycles);
        self.out.put(format!("{name}.run_ms"), median(ms), "ms");
        self.out.put(format!("{name}.cycles"), cycles, "count");
    }
}

/// A probe unit's input: the figures' constructors for `size`.
struct Parts {
    soc: SocConfig,
    wl: Workload,
    budget: f64,
    clusters: Option<Vec<Vec<usize>>>,
}

fn parts(rec: &mut Recorder, size: Size) -> Parts {
    let frames = 4; // full-mode frames of the 3x3/4x4/6x6 figures
    let (soc, wl, budget, clusters) = match size {
        Size::S3x3 => {
            let (soc, _) = rec.leaf("soc.build", "floorplan::soc_3x3", floorplan::soc_3x3);
            let (wl, _) = rec.leaf("soc.build", "workload::av_parallel", || {
                workload::av_parallel(&soc, frames)
            });
            (soc, wl, 120.0, None)
        }
        Size::S4x4 => {
            let (soc, _) = rec.leaf("soc.build", "floorplan::soc_4x4", floorplan::soc_4x4);
            let (wl, _) = rec.leaf("soc.build", "workload::vision_parallel", || {
                workload::vision_parallel(&soc, frames)
            });
            (soc, wl, 450.0, None)
        }
        Size::S6x6 => {
            let (soc, _) = rec.leaf("soc.build", "floorplan::soc_6x6", floorplan::soc_6x6);
            let (wl, _) = rec.leaf("soc.build", "workload::pm_cluster", || {
                workload::pm_cluster(&soc, frames, 7)
            });
            let budget = soc.total_p_max() * 0.33;
            (soc, wl, budget, None)
        }
        Size::M16x16 | Size::M32x32 => {
            let d = size.mega_side().expect("mega size");
            let (mm, _) = rec.leaf("soc.build", "floorplan::mega_mesh", || {
                floorplan::mega_mesh(d)
            });
            let (wl, _) = rec.leaf("soc.build", "workload::parallel_all", || {
                workload::parallel_all(&mm.soc, 2)
            });
            let budget = mm.soc.total_p_max() * 0.3;
            (mm.soc, wl, budget, Some(mm.clusters))
        }
    };
    Parts {
        soc,
        wl,
        budget,
        clusters,
    }
}

/// Builds the unit's simulation with one span per constructor call. The
/// mega sizes build the global layout the engine probes run and also the
/// quadtree layout (`with_clusters`) that mega-mesh runs beside it.
fn build(rec: &mut Recorder, size: Size, scheme: Scheme) -> Simulation {
    let p = parts(rec, size);
    let base = if size.mega_side().is_some() {
        SimConfig::for_large_soc(scheme.kind, p.budget, p.soc.n_managed())
    } else {
        SimConfig::new(scheme.kind, p.budget)
    };
    let cfg = SimConfig {
        exchange_mode: scheme.mode,
        ..base
    };
    if let Some(clusters) = p.clusters {
        let (soc, wl) = (p.soc.clone(), p.wl.clone());
        rec.leaf("soc.build", "Simulation::with_clusters", || {
            Simulation::with_clusters(soc, wl, cfg, clusters)
        });
    }
    let (sim, _) = rec.leaf("soc.build", "Simulation::new", || {
        Simulation::new(p.soc, p.wl, cfg)
    });
    sim
}

/// One emulator trial with the figure's config and target draw.
fn emulator_trial(cfg: &str, d: usize, rng: SimRng) -> ConvergenceResult {
    let n = d * d;
    let topo = Topology::torus(d, d);
    if cfg == "converge" {
        let cfg = EmulatorConfig {
            err_threshold: 1.5,
            ..EmulatorConfig::default()
        };
        run_one(topo, cfg, rng, |_| vec![32u64; n])
    } else {
        let cfg = EmulatorConfig {
            pairing: PairingMode::default(),
            err_threshold: 0.25,
            stop_at_convergence: false,
            max_cycles: 150_000,
            quiescence_exchanges: 8 * n as u64,
            ..EmulatorConfig::default()
        };
        run_one(topo, cfg, rng, |rng| {
            (0..n)
                .map(|_| if rng.chance(0.5) { 32u64 } else { 0 })
                .collect()
        })
    }
}

/// The median of a non-empty sample.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}
