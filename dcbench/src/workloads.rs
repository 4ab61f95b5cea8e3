//! The five workloads: their shapes, set-up, the closed-loop measured
//! runs, and the correctness gate every frame passes through.
//!
//! A *frame* is one unit of work: one timestep rendered to one image.
//! Wall-clock executors keep their copies resident and render `uows`
//! frames per run (UOW `k` renders timestep `k % 10`), sampling each
//! frame from `RunReport::uow_elapsed()`. On the simulator that clock is
//! virtual, so a run is one frame (`cfg.timestep = run % 10`) and the
//! sample is the host wall of the whole fresh simulation.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use datacutter::{
    ExecutorChoice, NativeExecutor, Placement, Run, RunReport, SimExecutor, TaskedExecutor,
    WritePolicy,
};
use dcapp::{
    build_pipeline, clone_config, reference_image, Algorithm, AppConfig, Grouping, Pipeline,
    PipelineSpec, SharedConfig,
};
use hetsim::presets::{rogue_blue_mix, rogue_cluster};
use hetsim::Topology;
use isosurf::Image;
use volume::{Dataset, Dims, RectGrid, TIMESTEPS};

use crate::stats::median;
use crate::trace::Tracer;

/// Data files per dataset, as in the paper.
const N_FILES: u32 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    Native,
    Tasked,
    Sim,
}

impl Exec {
    pub fn label(self) -> &'static str {
        match self {
            Exec::Native => "native",
            Exec::Tasked => "tasked",
            Exec::Sim => "sim",
        }
    }

    pub fn executor(self) -> ExecutorChoice {
        match self {
            Exec::Native => NativeExecutor::new().into(),
            Exec::Tasked => TaskedExecutor::new().into(),
            Exec::Sim => SimExecutor::new().into(),
        }
    }
}

/// Grid and chunking of a workload's dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Volume {
    /// 192³ cells in 12×12×12 = 1728 chunks of 16³ cells.
    Large,
    /// `bench::small_dataset()`'s shape: 64×64×128 cells in 128 chunks.
    Small,
}

impl Volume {
    fn dims(self) -> Dims {
        match self {
            Volume::Large => Dims::new(193, 193, 193),
            Volume::Small => Dims::new(65, 65, 129),
        }
    }

    fn chunks(self) -> (u32, u32, u32) {
        match self {
            Volume::Large => (12, 12, 12),
            Volume::Small => (4, 4, 8),
        }
    }

    /// Share of cells the isosurface crosses, averaged over the ten
    /// timesteps, that [`calibrate_iso`] steers every seed's dataset to —
    /// what isovalue 0.5 gives on a typical seed. A surface grows with
    /// the square of the resolution and the cell count with its cube, so
    /// the smaller grid has the larger share.
    fn active_share(self) -> f64 {
        match self {
            Volume::Large => 0.0065,
            Volume::Small => 0.019,
        }
    }
}

/// Cluster, placement and filter grouping of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `rogue_cluster(4)`, all four hosts storage; `RE–Ra–M` with this
    /// many raster copies per host, demand-driven.
    Split { ra_per_host: u32 },
    /// The paper's Figure 5 cell: `rogue_blue_mix(4)`, four background
    /// jobs on every Rogue host, `RE–Ra–M` with one raster copy on each
    /// of the eight hosts, demand-driven, merge on the first Blue host.
    Hetero,
    /// `rogue_cluster(4)` with the dataset on one host and `R–E–Ra–M`
    /// strung one copy per stage across the four hosts, round robin,
    /// under a memory budget of 1/1024 of a timestep: every `R→E`
    /// payload is encoded, sealed, spilled and faulted back.
    OutOfCore,
}

/// One named workload.
#[derive(Debug)]
pub struct Shape {
    pub name: &'static str,
    pub volume: Volume,
    pub layout: Layout,
    pub algorithm: Algorithm,
    pub image: u32,
    pub exec: Exec,
    /// Frames per run.
    pub uows: u32,
}

/// The workloads, in the order `BENCHMARK.json` lists them. The README
/// says why each exists and which layer it bypasses.
///
/// The fan-out pair runs 64 raster copies per host (256 in all), not the
/// 256 per host the paper-scale `BENCH_fanout n1024` cell has: with 1024
/// threads on one CPU the frame time moved between levels 1.5× apart
/// for minutes at a time on the sandbox this was sized on, three times
/// the swing of the 256-copy graph, and no bound could hold.
pub const SHAPES: &[Shape] = &[
    Shape {
        name: "render_native",
        volume: Volume::Large,
        layout: Layout::Split { ra_per_host: 1 },
        algorithm: Algorithm::ActivePixel,
        image: 512,
        exec: Exec::Native,
        uows: 10,
    },
    Shape {
        name: "fanout_native",
        volume: Volume::Small,
        layout: Layout::Split { ra_per_host: 64 },
        algorithm: Algorithm::ZBuffer,
        image: 64,
        exec: Exec::Native,
        uows: 50,
    },
    Shape {
        name: "fanout_tasked",
        volume: Volume::Small,
        layout: Layout::Split { ra_per_host: 64 },
        algorithm: Algorithm::ZBuffer,
        image: 64,
        exec: Exec::Tasked,
        uows: 50,
    },
    Shape {
        name: "sim_hetero",
        volume: Volume::Small,
        layout: Layout::Hetero,
        algorithm: Algorithm::ActivePixel,
        image: 512,
        exec: Exec::Sim,
        uows: 1,
    },
    Shape {
        name: "ooc_native",
        volume: Volume::Large,
        layout: Layout::OutOfCore,
        algorithm: Algorithm::ActivePixel,
        image: 512,
        exec: Exec::Native,
        uows: 10,
    },
];

pub fn shape(name: &str) -> Option<&'static Shape> {
    SHAPES.iter().find(|s| s.name == name)
}

/// A workload ready to run: everything set-up produces.
pub struct Workload {
    pub shape: &'static Shape,
    pub topo: Topology,
    /// `cfgs[t]` renders timestep `t`; all share one dataset.
    pub cfgs: Vec<SharedConfig>,
    pub spec: PipelineSpec,
    /// Filters in pipeline order with their placements (the null-filter
    /// delivery replay rebuilds the same graph shape from these).
    pub stages: Vec<(&'static str, Placement)>,
    /// `dcapp::reference_image` per timestep — the gate's ground truth.
    pub refs: Vec<Image>,
    pub fields: Vec<Arc<RectGrid>>,
    /// Seconds `ParSSim` took to generate the ten fields.
    pub parssim_s: f64,
    /// Median seconds of one `dcapp::reference_image`.
    pub reference_image_s: f64,
    /// Wall seconds of this whole set-up.
    pub setup_s: f64,
}

/// Everything before the first timed run: generate the dataset from
/// `seed`, materialise all ten fields (so no frame pays lazy `ParSSim`
/// generation), pick the isovalue, build topology and configs, and
/// render the ten reference images.
pub fn setup(shape: &'static Shape, seed: u64) -> Workload {
    let started = Instant::now();
    let dataset = Dataset::generate(shape.volume.dims(), shape.volume.chunks(), N_FILES, seed);
    let fields: Vec<Arc<RectGrid>> = (0..TIMESTEPS).map(|t| dataset.field(0, t)).collect();
    let parssim_s = started.elapsed().as_secs_f64();
    let iso = calibrate_iso(&fields, shape.volume.active_share());

    // Cluster, storage hosts, raster placement, merge host — and, for the
    // four-stage line only, where the isolated extract copy sits.
    let (topo, storage, raster, extract, merge_host) = match shape.layout {
        Layout::Split { ra_per_host } => {
            let (topo, hosts) = rogue_cluster(4);
            let raster = Placement {
                per_host: hosts.iter().map(|&h| (h, ra_per_host)).collect(),
            };
            (topo, hosts.clone(), raster, None, hosts[0])
        }
        Layout::Hetero => {
            let (topo, rogues, blues) = rogue_blue_mix(4);
            for &h in &rogues {
                topo.host(h).cpu.set_bg_jobs(4);
            }
            let all: Vec<_> = rogues.iter().chain(&blues).copied().collect();
            let raster = Placement::one_per_host(&all);
            (topo, all, raster, None, blues[0])
        }
        Layout::OutOfCore => {
            let (topo, hosts) = rogue_cluster(4);
            let extract = Placement::on_host(hosts[1], 1);
            let raster = Placement::on_host(hosts[2], 1);
            (topo, vec![hosts[0]], raster, Some(extract), hosts[3])
        }
    };
    let read_side = Placement::one_per_host(&storage);
    let merge = Placement::on_host(merge_host, 1);
    let (grouping, policy, stages) = match extract {
        None => (
            Grouping::RERaSplit {
                raster: raster.clone(),
            },
            WritePolicy::demand_driven(),
            vec![("RE", read_side), ("Ra", raster), ("M", merge)],
        ),
        Some(extract) => (
            Grouping::FourStage {
                extract: extract.clone(),
                raster: raster.clone(),
            },
            WritePolicy::RoundRobin,
            vec![
                ("R", read_side),
                ("E", extract),
                ("Ra", raster),
                ("M", merge),
            ],
        ),
    };
    let spec = PipelineSpec {
        grouping,
        algorithm: shape.algorithm,
        policy,
        merge_host,
    };

    let mut base = AppConfig::new(dataset, storage, 2, shape.image, shape.image);
    base.iso = iso;
    if shape.layout == Layout::OutOfCore {
        base.memory_budget_bytes = base.dataset.timestep_bytes() / 1024;
    }
    let base: SharedConfig = Arc::new(base);
    let cfgs: Vec<SharedConfig> = (0..TIMESTEPS)
        .map(|t| {
            let mut c = clone_config(&base);
            c.timestep = t;
            Arc::new(c)
        })
        .collect();

    let mut ref_s = Vec::new();
    let refs: Vec<Image> = cfgs
        .iter()
        .map(|c| {
            let t0 = Instant::now();
            let img = reference_image(c);
            ref_s.push(t0.elapsed().as_secs_f64());
            assert!(
                img.coverage(isosurf::BACKGROUND) > 0,
                "timestep {} renders only background at iso {iso}: the gate would check nothing",
                c.timestep
            );
            img
        })
        .collect();

    Workload {
        shape,
        topo,
        cfgs,
        spec,
        stages,
        refs,
        parssim_s,
        reference_image_s: median(&ref_s),
        fields,
        setup_s: started.elapsed().as_secs_f64(),
    }
}

impl Workload {
    pub fn iso(&self) -> f32 {
        self.cfgs[0].iso
    }

    pub fn cells_per_frame(&self) -> u64 {
        self.shape.volume.dims().cells()
    }
}

/// Pick the isovalue at which the surface crosses `target_share` of the
/// cells (all timesteps together, every second cell per axis sampled).
///
/// The seed moves and resizes every plume, so at a fixed isovalue the
/// triangle count — and with it every frame time — swings by ±20 % from
/// seed to seed. Steering each dataset to the same surface size keeps
/// the work per frame comparable while geometry, load balance across
/// chunks and screen coverage still vary with the seed.
fn calibrate_iso(fields: &[Arc<RectGrid>], target_share: f64) -> f32 {
    const BINS: usize = 512;
    const LO: f32 = 0.2;
    const HI: f32 = 0.9;
    let bin_of = |v: f32| (((v - LO) / (HI - LO) * BINS as f32).ceil().max(0.0) as usize).min(BINS);
    // Bin `b` stands for isovalue `LO + (HI - LO) * b / BINS`; a cell with
    // corner range `[mn, mx]` is crossed by exactly the bins in
    // `bin_of(mn)..bin_of(mx)`, recorded as a +1/-1 pair.
    let mut edges = vec![0i64; BINS + 1];
    let mut sampled = 0u64;
    for f in fields {
        let (nx, ny, nz) = (f.dims.nx as usize, f.dims.ny as usize, f.dims.nz as usize);
        let corners = [
            0,
            1,
            nx,
            nx + 1,
            nx * ny,
            nx * ny + 1,
            nx * ny + nx,
            nx * ny + nx + 1,
        ];
        for z in (0..nz - 1).step_by(2) {
            for y in (0..ny - 1).step_by(2) {
                for x in (0..nx - 1).step_by(2) {
                    let at = (z * ny + y) * nx + x;
                    let (mut mn, mut mx) = (f32::INFINITY, f32::NEG_INFINITY);
                    for o in corners {
                        let v = f.data[at + o];
                        mn = mn.min(v);
                        mx = mx.max(v);
                    }
                    sampled += 1;
                    let (a, b) = (bin_of(mn), bin_of(mx));
                    if a < b {
                        edges[a] += 1;
                        edges[b] -= 1;
                    }
                }
            }
        }
    }
    let target = (target_share * sampled as f64) as i64;
    let mut crossing = 0i64;
    let mut best = (i64::MAX, 0usize);
    for (b, e) in edges[..BINS].iter().enumerate() {
        crossing += e;
        let miss = (crossing - target).abs();
        if miss < best.0 {
            best = (miss, b);
        }
    }
    LO + (HI - LO) * best.1 as f32 / BINS as f32
}

/// Sums over a filter's copies across measured runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct WaitSums {
    pub read_wait_s: f64,
    pub write_wait_s: f64,
    /// Σ copies × run elapsed, on the run's own clock.
    pub copy_s: f64,
}

/// Everything the measured runs of one pass add up to.
#[derive(Default)]
pub struct Tally {
    /// Frames attempted / failed, and why.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Per-frame wall seconds, split by whether the run was traced.
    pub frame_s: Vec<f64>,
    pub traced_frame_s: Vec<f64>,
    /// Wall seconds of the first frame of each run (spawn included).
    pub first_uow_s: Vec<f64>,
    /// Σ wall of whole runs: graph construction, spawn, frames, teardown.
    pub run_wall_s: f64,
    pub build_pipeline_us: Vec<f64>,
    pub buffers: u64,
    pub bytes: u64,
    pub spills: u64,
    pub spill_bytes: u64,
    pub deferred_wakes: u64,
    pub wait: BTreeMap<String, WaitSums>,
    /// Simulator only: `(virtual seconds, events)` of each timestep, so
    /// the means cover the ten distinct timesteps whatever the run count.
    pub per_timestep: [Option<(f64, u64)>; TIMESTEPS as usize],
    /// Report of the latest successful run (the replay sizes its
    /// null-filter graph from its stream totals).
    pub last_report: Option<RunReport>,
}

impl Tally {
    fn fail(&mut self, frames: u64, why: String) {
        self.failed += frames;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Count one more gated item (a replayed image, a baseline's image,
    /// a spill round trip) as a frame, failed unless `ok`.
    pub fn gate(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, why());
        }
    }

    /// Add `other`'s gate outcome — and nothing it timed — to this tally.
    pub fn absorb_gate(&mut self, mut other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.append(&mut other.failures);
    }

    pub fn frames(&self) -> usize {
        self.frame_s.len() + self.traced_frame_s.len()
    }
}

/// Build the graph, run it once (`shape.uows` frames), gate every frame
/// and fold the run into `tally`. `run` numbers the runs of this pass
/// from 0; the simulator renders timestep `run % 10`.
pub fn run_once(w: &Workload, run: usize, traced: bool, tracer: &mut Tracer, tally: &mut Tally) {
    let shape = w.shape;
    let sim = shape.exec == Exec::Sim;
    let t_first = if sim { run % w.cfgs.len() } else { 0 };
    let cfg = &w.cfgs[t_first];
    let uows = shape.uows as u64;
    let frame0 = tally.attempted;
    tally.attempted += uows;
    tracer.enable(traced);

    let started = Instant::now();
    let (result, images, build_s) = tracer.span("dcbench.run", frame0, |tr| {
        let t0 = Instant::now();
        let Pipeline { graph, image, .. } = tr.span("dcapp.build_pipeline", frame0, |_| {
            build_pipeline(cfg, &w.spec)
        });
        let build_s = t0.elapsed().as_secs_f64();
        let result = tr.span("datacutter.run", frame0, |_| {
            Run::new(graph)
                .memory_budget(cfg.memory_budget_bytes)
                .storage_retries(cfg.storage_retry_budget)
                .checksum_spills(cfg.checksum_spills)
                .uows(shape.uows)
                .executor(shape.exec.executor())
                .go(&w.topo)
        });
        let images = std::mem::take(&mut *image.lock());
        (result, images, build_s)
    });
    let wall_s = started.elapsed().as_secs_f64();
    tally.run_wall_s += wall_s;
    tally.build_pipeline_us.push(build_s * 1e6);

    let report = match result {
        Ok(r) => r,
        Err(e) => {
            tally.fail(uows, format!("{} run {run}: {e}", shape.name));
            return;
        }
    };

    // The gate: every image against its timestep's reference, then the
    // run's conservation and ledger laws (a broken law fails all frames).
    tracer.span("dcbench.gate", frame0, |_| {
        if images.len() as u64 != uows {
            tally.fail(
                uows,
                format!("{} run {run}: {} images for {uows} frames", shape.name, images.len()),
            );
            return;
        }
        for (k, img) in images.iter().enumerate() {
            let t = (t_first + k) % w.refs.len();
            let diff = img.diff_pixels(&w.refs[t]);
            if diff != 0 {
                tally.fail(
                    1,
                    format!(
                        "{} run {run} uow {k}: {diff} pixels differ from reference_image (timestep {t})",
                        shape.name
                    ),
                );
            }
        }
        if let Some(law) = broken_law(&report, cfg.memory_budget_bytes) {
            tally.fail(uows, format!("{} run {run}: {law}", shape.name));
        }
    });

    let samples: Vec<f64> = if sim {
        vec![wall_s]
    } else {
        report
            .uow_elapsed()
            .iter()
            .map(|d| d.as_secs_f64())
            .collect()
    };
    tally.first_uow_s.push(samples[0]);
    if traced {
        tally.traced_frame_s.extend(samples);
    } else {
        tally.frame_s.extend(samples);
    }
    for s in &report.streams {
        tally.buffers += s.total_buffers();
        tally.bytes += s.total_bytes();
    }
    tally.spills += report.ooc.spills;
    tally.spill_bytes += report.ooc.spill_bytes;
    tally.deferred_wakes += report.deferred_wakes;
    let elapsed_s = report.elapsed.as_secs_f64();
    for c in &report.copies {
        let sums = tally.wait.entry(c.filter_name.clone()).or_default();
        sums.read_wait_s += c.counters.read_wait.as_secs_f64();
        sums.write_wait_s += c.counters.write_wait.as_secs_f64();
        sums.copy_s += elapsed_s;
    }
    if sim {
        tally.per_timestep[t_first] = Some((elapsed_s, report.events));
    }
    tally.last_report = Some(report);
}

/// The first law `report` breaks, if any: nothing lost or degraded; every
/// spill faulted back byte for byte and the budget ledger drained; and
/// spilling happened exactly when a budget asked for it.
fn broken_law(report: &RunReport, memory_budget_bytes: u64) -> Option<String> {
    let (f, o) = (&report.faults, &report.ooc);
    if f.buffers_lost != 0 || f.degraded {
        return Some(format!(
            "faults: {} buffers lost, degraded = {}",
            f.buffers_lost, f.degraded
        ));
    }
    if o.spills != o.faults || o.spill_bytes != o.fault_bytes || o.resident_bytes() != 0 {
        return Some(format!(
            "ooc ledger: {} spills / {} faults, {} / {} bytes, {} resident",
            o.spills,
            o.faults,
            o.spill_bytes,
            o.fault_bytes,
            o.resident_bytes()
        ));
    }
    if (memory_budget_bytes == 0) != (o.spills == 0) {
        return Some(format!(
            "{} spills under a memory budget of {memory_budget_bytes} bytes",
            o.spills
        ));
    }
    None
}

/// Simulator only: run (untimed, ungated frames still count) whatever
/// timesteps the timed window did not reach, so `hetsim.virtual_s` and
/// `hetsim.events_per_frame` always average the same ten simulations and
/// repeat exactly.
pub fn cover_all_timesteps(w: &Workload, tracer: &mut Tracer, tally: &mut Tally) {
    if w.shape.exec != Exec::Sim {
        return;
    }
    for t in 0..w.cfgs.len() {
        if tally.per_timestep[t].is_none() {
            let mut extra = Tally::default();
            run_once(w, t, false, tracer, &mut extra);
            tally.per_timestep[t] = extra.per_timestep[t];
            tally.absorb_gate(extra);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volume::SimParams;

    #[test]
    fn calibration_equalises_surface_size_across_seeds() {
        let dims = Dims::new(33, 33, 33);
        let crossed = |seed: u64| {
            let sim = volume::ParSSim::new(SimParams::new(dims, seed));
            let fields: Vec<Arc<RectGrid>> = (0..3).map(|t| Arc::new(sim.field(0, t))).collect();
            let iso = calibrate_iso(&fields, 0.03);
            assert!((0.2..0.9).contains(&iso), "iso {iso}");
            let mut tris = Vec::new();
            let cells: u64 = fields
                .iter()
                .map(|f| isosurf::extract_serial(f, (0, 0, 0), iso, &mut tris).cells)
                .sum();
            tris.len() as f64 / cells as f64
        };
        let (a, b) = (crossed(1), crossed(4));
        assert!(a > 0.0 && (a / b - 1.0).abs() < 0.25, "{a} vs {b}");
    }

    #[test]
    fn laws_catch_loss_leaks_and_unexpected_spills() {
        let clean = RunReport {
            elapsed: hetsim::SimDuration::ZERO,
            events: 0,
            deferred_wakes: 0,
            uow_boundaries: vec![],
            copies: vec![],
            streams: vec![],
            faults: Default::default(),
            ooc: Default::default(),
        };
        assert_eq!(broken_law(&clean, 0), None);
        assert!(broken_law(&clean, 4096).unwrap().contains("0 spills"));

        let mut lost = clean.clone();
        lost.faults.buffers_lost = 1;
        assert!(broken_law(&lost, 0).unwrap().contains("lost"));

        let mut spilled = clean.clone();
        spilled.ooc.spills = 3;
        spilled.ooc.faults = 3;
        spilled.ooc.spill_bytes = 90;
        spilled.ooc.fault_bytes = 90;
        assert_eq!(broken_law(&spilled, 4096), None);
        assert!(broken_law(&spilled, 0).unwrap().contains("3 spills"));
        spilled.ooc.faults = 2;
        assert!(broken_law(&spilled, 4096).unwrap().contains("ledger"));
        spilled.ooc.faults = 3;
        spilled.ooc.granted_bytes = 10;
        assert!(broken_law(&spilled, 4096).unwrap().contains("10 resident"));
    }
}
