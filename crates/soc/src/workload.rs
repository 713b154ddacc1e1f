//! Workload task DAGs (Fig 14).
//!
//! Each workload is a directed acyclic graph of tasks; a task is an
//! invocation of one accelerator for a fixed amount of *work*, measured in
//! kilocycles of that accelerator's clock. Work progresses at the tile's
//! instantaneous frequency (work done = ∫F dt), which is how DVFS couples
//! into execution time.
//!
//! Two dataflow shapes are evaluated:
//!
//! - **WL-Par**: all accelerators run concurrently with no cross-task
//!   dependencies (each tile processes its own stream of frames);
//! - **WL-Dep**: tasks depend on tasks on other accelerators, as a
//!   realistic application pipeline would (for the AV workload:
//!   FFT depth estimation and Viterbi decode feed the NVDLA inference
//!   of each frame).

use blitzcoin_noc::TileId;

use crate::floorplan::SocConfig;

/// Identifier of a task within a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

/// One accelerator invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// The task's id (index within the workload).
    pub id: TaskId,
    /// Tile the task runs on (must be an accelerator tile).
    pub tile: TileId,
    /// Work, in kilocycles of the tile clock.
    pub work_kcycles: f64,
    /// Tasks that must complete before this one starts.
    pub deps: Vec<TaskId>,
}

/// A workload: a validated task DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name ("AV WL-Par" etc.).
    pub name: String,
    tasks: Vec<Task>,
}

impl blitzcoin_sim::json::ToJson for TaskId {
    fn to_json(&self) -> blitzcoin_sim::json::Json {
        blitzcoin_sim::json::ToJson::to_json(&self.0)
    }
}

impl blitzcoin_sim::json::FromJson for TaskId {
    fn from_json(v: &blitzcoin_sim::json::Json) -> Result<Self, blitzcoin_sim::json::JsonError> {
        Ok(TaskId(blitzcoin_sim::json::FromJson::from_json(v)?))
    }
}

blitzcoin_sim::json_fields!(Task {
    id,
    tile,
    work_kcycles,
    deps
});

impl blitzcoin_sim::json::ToJson for Workload {
    fn to_json(&self) -> blitzcoin_sim::json::Json {
        blitzcoin_sim::json::Json::Obj(vec![
            (
                "name".to_string(),
                blitzcoin_sim::json::ToJson::to_json(&self.name),
            ),
            (
                "tasks".to_string(),
                blitzcoin_sim::json::ToJson::to_json(&self.tasks),
            ),
        ])
    }
}

impl Workload {
    /// Creates a workload from tasks. A task that names one dependency
    /// more than once waits for it once: only the first occurrence stays
    /// in its `deps`.
    ///
    /// # Panics
    /// Panics if task ids are not densely 0..n in order, dependencies
    /// dangle or the graph has a cycle, any work amount is non-positive,
    /// or a task targets a non-accelerator tile of `soc`.
    pub fn new(name: impl Into<String>, mut tasks: Vec<Task>, soc: &SocConfig) -> Self {
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.id.0, i, "task ids must be dense and in order");
            assert!(t.work_kcycles > 0.0, "task {i} has non-positive work");
            assert!(
                soc.tiles[t.tile.index()].accel_class().is_some(),
                "task {i} targets non-accelerator tile {}",
                t.tile
            );
            for d in &t.deps {
                assert!(
                    d.0 < tasks.len(),
                    "task {i} depends on unknown task {}",
                    d.0
                );
                assert_ne!(d.0, i, "task {i} depends on itself");
            }
        }
        dedup_deps(&mut tasks);
        let wl = Workload {
            name: name.into(),
            tasks,
        };
        assert!(wl.is_acyclic(), "workload graph has a cycle");
        wl
    }

    /// The tasks, ordered by id.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Tasks with no dependencies (runnable at t=0).
    pub fn roots(&self) -> Vec<TaskId> {
        self.tasks
            .iter()
            .filter(|t| t.deps.is_empty())
            .map(|t| t.id)
            .collect()
    }

    /// Whether all task dependencies form a DAG: Kahn's algorithm over
    /// each task's dependents, as `Core::new` lists them, so it runs in
    /// time linear in tasks plus deps.
    fn is_acyclic(&self) -> bool {
        let n = self.tasks.len();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for t in &self.tasks {
            for d in &t.deps {
                dependents[d.0].push(t.id.0);
            }
        }
        let mut indeg: Vec<usize> = self.tasks.iter().map(|t| t.deps.len()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &t in &dependents[i] {
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push(t);
                }
            }
        }
        seen == n
    }
}

/// Drops every repeat of a dependency within each task's `deps`, keeping
/// first occurrences, so a task's in-degree counts each dependency once.
/// Every dependency must name a task in `tasks`.
fn dedup_deps(tasks: &mut [Task]) {
    // the last task seen naming each task as a dependency
    let mut named_by = vec![usize::MAX; tasks.len()];
    for (i, t) in tasks.iter_mut().enumerate() {
        t.deps
            .retain(|d| std::mem::replace(&mut named_by[d.0], i) != i);
    }
}

/// Builder utility: collects tasks with auto-assigned ids.
#[derive(Debug, Default)]
pub struct WorkloadBuilder {
    tasks: Vec<Task>,
}

impl WorkloadBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        WorkloadBuilder::default()
    }

    /// Adds a task; returns its id for use in later dependencies.
    pub fn task(&mut self, tile: TileId, work_kcycles: f64, deps: Vec<TaskId>) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(Task {
            id,
            tile,
            work_kcycles,
            deps,
        });
        id
    }

    /// Finalizes into a validated [`Workload`].
    pub fn build(self, name: impl Into<String>, soc: &SocConfig) -> Workload {
        Workload::new(name, self.tasks, soc)
    }
}

// ---------------------------------------------------------------------
// Workload generators for the evaluated SoCs
// ---------------------------------------------------------------------

/// Per-class work per frame, in kilocycles, calibrated so one frame at
/// F_max lasts 160-400 µs — with DVFS throttling this puts multi-frame
/// workloads on the ~2500 µs scale of the paper's Fig 16 power traces.
pub fn frame_work(class: blitzcoin_power::AcceleratorClass) -> f64 {
    use blitzcoin_power::AcceleratorClass::*;
    match class {
        Fft => 128.0,    // 160 us at the FFT's 800 MHz F_max
        Viterbi => 96.0, // 160 us at 600 MHz
        Nvdla => 192.0,  // 240 us at 800 MHz
        Gemm => 210.0,   // 300 us at 700 MHz
        Conv2d => 163.0, // ~250 us at 650 MHz
        Vision => 100.0, // 200 us at 500 MHz
    }
}

/// WL-Par for the autonomous-vehicle SoC: every accelerator processes
/// `frames` frames back-to-back, all streams independent.
pub fn av_parallel(soc: &SocConfig, frames: usize) -> Workload {
    parallel_workload("AV WL-Par", soc, frames)
}

/// WL-Par for the 4x4 computer-vision SoC.
pub fn vision_parallel(soc: &SocConfig, frames: usize) -> Workload {
    parallel_workload("CV WL-Par", soc, frames)
}

/// WL-Par on an arbitrary SoC: every managed accelerator processes
/// `frames` frames back-to-back, all streams independent. The generic
/// form of [`av_parallel`]/[`vision_parallel`], used by the synthetic
/// scaling floorplans.
pub fn parallel_all(soc: &SocConfig, frames: usize) -> Workload {
    parallel_workload("WL-Par", soc, frames)
}

fn parallel_workload(name: &str, soc: &SocConfig, frames: usize) -> Workload {
    assert!(frames > 0, "need at least one frame");
    let mut b = WorkloadBuilder::new();
    for tile in soc.managed_tiles() {
        let class = soc.tiles[tile.index()].accel_class().expect("managed");
        let mut prev: Option<TaskId> = None;
        for _ in 0..frames {
            let deps = prev.map(|p| vec![p]).unwrap_or_default();
            prev = Some(b.task(tile, frame_work(class), deps));
        }
    }
    b.build(name, soc)
}

/// WL-Dep for the autonomous-vehicle SoC (Fig 14 right): per frame, the
/// FFT depth-estimation tasks and Viterbi V2V decodes run first; the
/// NVDLA object-detection inference consumes all of them; the next
/// frame's front-end may start only after the previous frame's inference
/// (the camera pipeline is double-buffered one frame deep).
pub fn av_dependent(soc: &SocConfig, frames: usize) -> Workload {
    av_dependent_scaled(soc, frames, 1.0)
}

/// [`av_dependent`] with every task's work scaled by `scale`: the
/// task-granularity knob of the sensitivity study (smaller tasks mean more
/// activity transitions per unit of work, which is where response time
/// turns into throughput).
///
/// # Panics
/// Panics if `scale <= 0` or `frames == 0`.
pub fn av_dependent_scaled(soc: &SocConfig, frames: usize, scale: f64) -> Workload {
    use blitzcoin_power::AcceleratorClass::*;
    assert!(frames > 0, "need at least one frame");
    assert!(scale > 0.0, "work scale must be positive");
    let mut b = WorkloadBuilder::new();
    let ffts: Vec<TileId> = tiles_of(soc, Fft);
    let vits: Vec<TileId> = tiles_of(soc, Viterbi);
    let nvdla = tiles_of(soc, Nvdla)[0];
    let mut prev_inference: Option<TaskId> = None;
    for _ in 0..frames {
        let gate = prev_inference.map(|p| vec![p]).unwrap_or_default();
        let mut frontend = Vec::new();
        for &t in &ffts {
            frontend.push(b.task(t, scale * frame_work(Fft), gate.clone()));
        }
        for &t in &vits {
            frontend.push(b.task(t, scale * frame_work(Viterbi), gate.clone()));
        }
        prev_inference = Some(b.task(nvdla, scale * frame_work(Nvdla), frontend));
    }
    b.build("AV WL-Dep", soc)
}

/// WL-Dep for the 4x4 computer-vision SoC: per frame, the Vision
/// accelerators pre-process (noise filter / histogram / DWT), the Conv2D
/// tiles then run the convolutional layers, and the GEMM tiles finish the
/// dense layers; frames pipeline one deep.
pub fn vision_dependent(soc: &SocConfig, frames: usize) -> Workload {
    use blitzcoin_power::AcceleratorClass::*;
    assert!(frames > 0, "need at least one frame");
    let mut b = WorkloadBuilder::new();
    let vision = tiles_of(soc, Vision);
    let conv = tiles_of(soc, Conv2d);
    let gemm = tiles_of(soc, Gemm);
    let mut prev_out: Option<TaskId> = None;
    for _ in 0..frames {
        let gate = prev_out.map(|p| vec![p]).unwrap_or_default();
        let pre: Vec<TaskId> = vision
            .iter()
            .map(|&t| b.task(t, frame_work(Vision), gate.clone()))
            .collect();
        let mid: Vec<TaskId> = conv
            .iter()
            .map(|&t| b.task(t, frame_work(Conv2d), pre.clone()))
            .collect();
        let out: Vec<TaskId> = gemm
            .iter()
            .map(|&t| b.task(t, frame_work(Gemm), mid.clone()))
            .collect();
        // a single representative sink gates the next frame
        prev_out = out.last().copied();
    }
    b.build("CV WL-Dep", soc)
}

/// The 7-accelerator PM-cluster workload of the silicon experiments
/// (Figs 19-20): NVDLA, 2 FFTs and 4 Viterbis of the 6x6 prototype's PM
/// cluster run concurrent streams of *different* lengths (NVDLA `frames`
/// frames, FFTs 2x, Viterbis 3x), so streams finish staggered and every
/// completion frees budget for the survivors — the dynamic the silicon
/// experiments measure. The NVDLA completion is the Fig 20 activity
/// transition. `n_accels` trims the accelerator count for the 5/4/3-
/// accelerator variants of Fig 19.
pub fn pm_cluster(soc: &SocConfig, frames: usize, n_accels: usize) -> Workload {
    use blitzcoin_power::AcceleratorClass::*;
    assert!(
        (1..=7).contains(&n_accels),
        "silicon workload uses 1-7 accelerators"
    );
    let mut order: Vec<(TileId, usize)> = Vec::new();
    order.push((tiles_of(soc, Nvdla)[0], frames));
    order.extend(
        tiles_of(soc, Fft)
            .into_iter()
            .take(2)
            .map(|t| (t, 2 * frames)),
    );
    order.extend(
        tiles_of(soc, Viterbi)
            .into_iter()
            .take(4)
            .map(|t| (t, 3 * frames)),
    );
    order.truncate(n_accels);
    let mut b = WorkloadBuilder::new();
    for (tile, stream_len) in order {
        let class = soc.tiles[tile.index()].accel_class().expect("accelerator");
        let mut prev: Option<TaskId> = None;
        for _ in 0..stream_len {
            let deps = prev.map(|p| vec![p]).unwrap_or_default();
            prev = Some(b.task(tile, frame_work(class), deps));
        }
    }
    b.build(format!("PM-cluster x{n_accels}"), soc)
}

/// The full mini-ERA autonomous-vehicle application model (the paper's
/// workload \[76\]): per time-step, radar depth estimation (FFT), V2V
/// message decoding (Viterbi, two messages per step) and camera object
/// detection (NVDLA) all feed the plan-and-control step, which gates the
/// next time-step. Per-task work carries seeded ±30% jitter — real sensor
/// frames vary — which continuously perturbs the power allocation the way
/// the silicon experiments describe.
///
/// # Panics
/// Panics if `steps == 0`.
pub fn mini_era(soc: &SocConfig, steps: usize, seed: u64) -> Workload {
    use blitzcoin_power::AcceleratorClass::*;
    use blitzcoin_sim::SimRng;
    assert!(steps > 0, "need at least one time-step");
    let mut rng = SimRng::seed(seed);
    let ffts = tiles_of(soc, Fft);
    let vits = tiles_of(soc, Viterbi);
    let nvdla = tiles_of(soc, Nvdla)[0];
    let mut jitter = |base: f64| base * (0.7 + 0.6 * rng.unit_f64());
    let mut b = WorkloadBuilder::new();
    let mut prev_step: Option<TaskId> = None;
    for _ in 0..steps {
        let gate = prev_step.map(|p| vec![p]).unwrap_or_default();
        let mut sensors = Vec::new();
        // radar: one FFT burst per radar antenna (= per FFT tile)
        for &t in &ffts {
            sensors.push(b.task(t, jitter(frame_work(Fft)), gate.clone()));
        }
        // V2V: two decode jobs per Viterbi tile per step
        for &t in &vits {
            let first = b.task(t, jitter(frame_work(Viterbi) / 2.0), gate.clone());
            sensors.push(b.task(t, jitter(frame_work(Viterbi) / 2.0), vec![first]));
        }
        // camera CNN inference consumes all sensor products
        prev_step = Some(b.task(nvdla, jitter(frame_work(Nvdla)), sensors));
    }
    b.build("mini-ERA", soc)
}

/// A seeded random task DAG for stress testing: `n_tasks` tasks on random
/// managed tiles with work in `[32, 256]` kcycles; each task depends on up
/// to two uniformly chosen earlier tasks (so the graph is acyclic by
/// construction) with 50% probability per slot.
///
/// # Panics
/// Panics if `n_tasks == 0`.
pub fn random_dag(soc: &SocConfig, n_tasks: usize, seed: u64) -> Workload {
    use blitzcoin_sim::SimRng;
    assert!(n_tasks > 0, "need at least one task");
    let tiles = soc.managed_tiles();
    let mut rng = SimRng::seed(seed);
    let mut b = WorkloadBuilder::new();
    for i in 0..n_tasks {
        let tile = *rng.choose(&tiles);
        let work = 32.0 + rng.unit_f64() * 224.0;
        let mut deps = Vec::new();
        for _ in 0..2 {
            if i > 0 && rng.chance(0.5) {
                let d = TaskId(rng.range_usize(0..i));
                if !deps.contains(&d) {
                    deps.push(d);
                }
            }
        }
        b.task(tile, work, deps);
    }
    b.build(format!("random-dag-{seed}"), soc)
}

fn tiles_of(soc: &SocConfig, class: blitzcoin_power::AcceleratorClass) -> Vec<TileId> {
    soc.managed_tiles()
        .into_iter()
        .filter(|t| soc.tiles[t.index()].accel_class() == Some(class))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{soc_3x3, soc_4x4, soc_6x6};

    /// The quadratic check `is_acyclic` replaced, kept as its reference:
    /// each task Kahn's algorithm pops rescans every task's `deps`.
    fn is_acyclic_by_rescan(wl: &Workload) -> bool {
        let n = wl.tasks.len();
        let mut indeg = vec![0usize; n];
        for t in &wl.tasks {
            indeg[t.id.0] = t.deps.len();
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = queue.pop() {
            seen += 1;
            for t in &wl.tasks {
                if t.deps.contains(&TaskId(i)) {
                    indeg[t.id.0] -= 1;
                    if indeg[t.id.0] == 0 {
                        queue.push(t.id.0);
                    }
                }
            }
        }
        seen == n
    }

    #[test]
    fn linear_acyclic_check_matches_the_rescan_reference() {
        blitzcoin_sim::check::forall_seeded("is_acyclic_vs_rescan", 0xDA6, 0..500, |rng| {
            // a random DAG: every dep points at an earlier task, with an
            // occasional repeated dep that `Workload::new` drops
            let n = rng.range_usize(1..80);
            let mut tasks: Vec<Task> = (0..n)
                .map(|i| {
                    let mut deps = Vec::new();
                    if i > 0 {
                        for _ in 0..rng.range_usize(0..5) {
                            deps.push(TaskId(rng.range_usize(0..i)));
                        }
                        if !rng.chance(0.1) {
                            deps.sort_unstable();
                            deps.dedup();
                        }
                    }
                    Task {
                        id: TaskId(i),
                        tile: TileId(0),
                        work_kcycles: 1.0,
                        deps,
                    }
                })
                .collect();
            // half the graphs get a back edge, which closes a cycle
            // through any path from `to` to `from` (or a self-loop)
            if rng.chance(0.5) {
                let from = rng.range_usize(0..n);
                let to = rng.range_usize(from..n);
                tasks[from].deps.push(TaskId(to));
            }
            dedup_deps(&mut tasks);
            let wl = Workload {
                name: "random".into(),
                tasks,
            };
            let (fast, slow) = (wl.is_acyclic(), is_acyclic_by_rescan(&wl));
            blitzcoin_sim::ensure!(fast == slow, "is_acyclic {fast}, reference {slow}");
            Ok(())
        });
    }

    #[test]
    fn av_parallel_shape() {
        let soc = soc_3x3();
        let wl = av_parallel(&soc, 3);
        assert_eq!(wl.len(), 6 * 3);
        assert_eq!(wl.roots().len(), 6); // one stream head per accelerator
    }

    #[test]
    fn av_dependent_shape() {
        let soc = soc_3x3();
        let wl = av_dependent(&soc, 2);
        // per frame: 3 FFT + 2 Viterbi + 1 NVDLA = 6 tasks
        assert_eq!(wl.len(), 12);
        // frame 0 front-end tasks are roots
        assert_eq!(wl.roots().len(), 5);
        // the NVDLA task depends on all 5 front-end tasks
        let nvdla_task = &wl.tasks()[5];
        assert_eq!(nvdla_task.deps.len(), 5);
        // frame 1 front-end gated by frame 0 inference
        assert_eq!(wl.tasks()[6].deps, vec![TaskId(5)]);
    }

    #[test]
    fn vision_workloads_shape() {
        let soc = soc_4x4();
        let par = vision_parallel(&soc, 2);
        assert_eq!(par.len(), 13 * 2);
        let dep = vision_dependent(&soc, 2);
        assert_eq!(dep.len(), 26);
        // conv tasks depend on all 4 vision tasks
        let conv_task = dep.tasks().iter().find(|t| t.deps.len() == 4).unwrap();
        assert!(conv_task.work_kcycles > 0.0);
    }

    #[test]
    fn pm_cluster_variants() {
        let soc = soc_6x6();
        for n in [3usize, 4, 5, 7] {
            let wl = pm_cluster(&soc, 2, n);
            assert_eq!(wl.roots().len(), n, "n_accels={n}");
            assert!(wl.len() >= 2 * n);
        }
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cyclic_workload_rejected() {
        let soc = soc_3x3();
        let t0 = Task {
            id: TaskId(0),
            tile: soc.managed_tiles()[0],
            work_kcycles: 1.0,
            deps: vec![TaskId(1)],
        };
        let t1 = Task {
            id: TaskId(1),
            tile: soc.managed_tiles()[0],
            work_kcycles: 1.0,
            deps: vec![TaskId(0)],
        };
        Workload::new("cyclic", vec![t0, t1], &soc);
    }

    #[test]
    #[should_panic(expected = "non-accelerator")]
    fn task_on_cpu_rejected() {
        let soc = soc_3x3();
        let t = Task {
            id: TaskId(0),
            tile: soc.cpu_tile(),
            work_kcycles: 1.0,
            deps: vec![],
        };
        Workload::new("bad", vec![t], &soc);
    }

    #[test]
    fn mini_era_structure() {
        let soc = soc_3x3();
        let wl = mini_era(&soc, 3, 1);
        // per step: 3 FFT + 2*2 Viterbi + 1 NVDLA = 8 tasks
        assert_eq!(wl.len(), 24);
        assert_eq!(mini_era(&soc, 3, 1), mini_era(&soc, 3, 1));
        assert_ne!(mini_era(&soc, 3, 1), mini_era(&soc, 3, 2));
        // the NVDLA inference of step 0 gates step 1's sensors
        let step1_fft = &wl.tasks()[8];
        assert_eq!(step1_fft.deps.len(), 1);
    }

    #[test]
    fn random_dag_is_valid_and_reproducible() {
        let soc = soc_4x4();
        let a = random_dag(&soc, 40, 5);
        let b = random_dag(&soc, 40, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
        assert!(!a.roots().is_empty());
        let c = random_dag(&soc, 40, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let soc = soc_3x3();
        let mut b = WorkloadBuilder::new();
        let a = b.task(soc.managed_tiles()[0], 5.0, vec![]);
        let c = b.task(soc.managed_tiles()[1], 5.0, vec![a]);
        let wl = b.build("manual", &soc);
        assert_eq!(wl.len(), 2);
        assert_eq!(wl.tasks()[c.0].deps, vec![a]);
    }
}
