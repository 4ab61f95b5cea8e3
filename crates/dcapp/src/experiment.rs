//! Running pipelines and validating their output.

use datacutter::{ExecutorChoice, FaultOptions, Run, RunError, RunReport};
use hetsim::{SimDuration, Topology};
use isosurf::Image;

use crate::config::{ConfigError, SharedConfig};
use crate::filters::ImageSlot;
use crate::pipeline::{try_build_pipeline, Pipeline, PipelineSpec};

/// Outcome of one run: one rendered image per unit of work (consecutive
/// timesteps from `cfg.timestep`), cumulative metrics and the handles of
/// the graph that rendered them. Per-UOW times are
/// [`RunReport::uow_elapsed`].
pub struct PipelineResult {
    /// End-to-end time (virtual under the simulator, wall-clock natively).
    pub elapsed: SimDuration,
    /// Framework metrics, cumulative over every unit of work.
    pub report: RunReport,
    /// One rendered image per unit of work, in order.
    pub images: Vec<Image>,
    /// The stream feeding the raster stage, if the grouping has one.
    pub to_raster: Option<datacutter::StreamId>,
    /// Stream into the merge filter.
    pub to_merge: datacutter::StreamId,
    /// Filter ids in pipeline order.
    pub filters: Vec<datacutter::FilterId>,
}

impl PipelineResult {
    /// The first unit of work's image (the only one of a one-UOW run).
    pub fn image(&self) -> &Image {
        &self.images[0]
    }
}

/// One run of a [`PipelineSpec`] over an [`AppConfig`](crate::AppConfig):
/// the application's counterpart of [`datacutter::Run`]. The config's
/// out-of-core knobs (`memory_budget_bytes`, `storage_retry_budget`,
/// `checksum_spills`) are forwarded to the run; the executor, a fault plan
/// and the number of units of work are set here.
///
/// Defaults: one unit of work, the virtual-time
/// [`SimExecutor`](datacutter::SimExecutor), no faults. A config that
/// fails [`AppConfig::validate_for`](crate::AppConfig::validate_for)
/// builds no graph, and `go` returns [`RunError::Unsupported`].
///
/// ```no_run
/// # fn demo(topo: &hetsim::Topology, cfg: &dcapp::SharedConfig, spec: &dcapp::PipelineSpec)
/// #     -> Result<(), datacutter::RunError> {
/// let r = dcapp::Render::new(cfg, spec)
///     .executor(datacutter::NativeExecutor::new())
///     .uows(3)
///     .go(topo)?;
/// assert_eq!(r.images.len(), 3);
/// # Ok(()) }
/// ```
pub struct Render {
    /// The run of the built graph, or why the config built none.
    built: Result<Built, ConfigError>,
    uows: u32,
}

/// A [`Render`]'s run and the handles of the graph it runs.
struct Built {
    run: Run,
    image: ImageSlot,
    to_raster: Option<datacutter::StreamId>,
    to_merge: datacutter::StreamId,
    filters: Vec<datacutter::FilterId>,
}

impl Render {
    /// Build the graph of `spec` over `cfg`.
    pub fn new(cfg: &SharedConfig, spec: &PipelineSpec) -> Self {
        let built = try_build_pipeline(cfg, spec).map(
            |Pipeline {
                 graph,
                 image,
                 to_raster,
                 to_merge,
                 filters,
             }| Built {
                run: Run::new(graph)
                    .memory_budget(cfg.memory_budget_bytes)
                    .storage_retries(cfg.storage_retry_budget)
                    .checksum_spills(cfg.checksum_spills),
                image,
                to_raster,
                to_merge,
                filters,
            },
        );
        Render { built, uows: 1 }
    }

    /// Apply a [`Run`] option, if the graph was built.
    fn with_run(mut self, option: impl FnOnce(Run) -> Run) -> Self {
        self.built = self.built.map(|mut b| {
            b.run = option(b.run);
            b
        });
        self
    }

    /// Run on an explicit substrate: a [`datacutter::SimExecutor`] for the
    /// deterministic virtual-time run or a [`datacutter::NativeExecutor`]
    /// for real OS threads. The images are bit-identical on both (merging
    /// is order-independent); only the timing semantics differ.
    pub fn executor(self, exec: impl Into<ExecutorChoice>) -> Self {
        self.with_run(|run| run.executor(exec))
    }

    /// Run under a fault plan: hosts crash, stall or lose messages per
    /// `opts`, and the runtime's recovery machinery (liveness timeouts,
    /// writer eviction, retention and redelivery) keeps the pipeline
    /// going. Every payload is retained until its consumer settles it, so
    /// a crash of an extract, raster or merge host that leaves a surviving
    /// copy set completes with `lost == 0` under every writer policy; only
    /// a crash that leaves no live consumer tallies losses in
    /// `report.faults`. A crash of the merge host leaves no image and
    /// fails the run with [`RunError::NoSurvivingConsumers`]. On the
    /// native executor the plan's times are wall-clock nanoseconds since
    /// run start.
    pub fn faults(self, opts: FaultOptions) -> Self {
        self.with_run(|run| run.faults(opts))
    }

    /// Render `n` consecutive units of work in one run: filter copies stay
    /// resident and cycle through `init` → `process` → `finalize` per UOW,
    /// rendering timesteps `cfg.timestep`, `cfg.timestep + 1`, … — the
    /// paper's consecutive-timesteps workload. `go` rejects `n == 0`.
    pub fn uows(mut self, n: u32) -> Self {
        self.uows = n;
        self.with_run(|run| run.uows(n))
    }

    /// Execute on `topo`. A config that built no graph is
    /// [`RunError::Unsupported`], naming the knob it failed on.
    pub fn go(self, topo: &Topology) -> Result<PipelineResult, RunError> {
        let b = self.built.map_err(|e| RunError::Unsupported {
            what: e.to_string(),
        })?;
        let report = b.run.go(topo)?;
        let images = deposited(&b.image, &report, self.uows)?;
        Ok(PipelineResult {
            elapsed: report.elapsed,
            report,
            images,
            to_raster: b.to_raster,
            to_merge: b.to_merge,
            filters: b.filters,
        })
    }
}

/// The images a run deposited, one per unit of work. A crash of the merge
/// host kills the merge's only copy, so a run can complete without one:
/// that is [`RunError::NoSurvivingConsumers`] on the stream into `M`.
fn deposited(image: &ImageSlot, report: &RunReport, uows: u32) -> Result<Vec<Image>, RunError> {
    let images = std::mem::take(&mut *image.lock());
    if images.len() == uows as usize {
        return Ok(images);
    }
    Err(RunError::NoSurvivingConsumers {
        stream: report
            .streams
            .last()
            .map_or_else(String::new, |s| s.stream_name.clone()),
    })
}

/// The sequential reference image for `cfg` (single-node ground truth).
/// Honors the range query at chunk granularity, exactly like the
/// distributed read filters.
pub fn reference_image(cfg: &SharedConfig) -> Image {
    let field = cfg.dataset.field(cfg.species, cfg.timestep);
    if cfg.query.is_none() {
        return isosurf::render_zbuffer(&field, &cfg.camera, cfg.iso, &cfg.material);
    }
    let layout = cfg.dataset.layout();
    let mut tris = Vec::new();
    for &chunk in cfg.selected_chunks() {
        let info = layout.info(chunk);
        let sub = layout.extract(&field, chunk);
        isosurf::extract(&sub, info.cell_origin, cfg.iso, &mut tris);
    }
    let mut zb = isosurf::ZBuffer::new(cfg.camera.width, cfg.camera.height);
    isosurf::render::raster_into_zbuffer(&tris, &cfg.camera, &cfg.material, &mut zb);
    zb.to_image(isosurf::BACKGROUND)
}

/// Clone an `AppConfig` (datasets share storage; the rest is plain data).
/// Lazily built derived state — the selected-chunk set and the chunk
/// cache — starts fresh in the clone: a config whose query or knobs are
/// about to change must not inherit state computed for the old ones.
pub fn clone_config(cfg: &SharedConfig) -> crate::config::AppConfig {
    crate::config::AppConfig {
        dataset: cfg.dataset.clone(),
        iso: cfg.iso,
        species: cfg.species,
        timestep: cfg.timestep,
        query: cfg.query,
        camera: cfg.camera,
        material: cfg.material,
        cost: cfg.cost,
        tri_batch: cfg.tri_batch,
        wpa_capacity: cfg.wpa_capacity,
        zb_band_bytes: cfg.zb_band_bytes,
        tile_size: cfg.tile_size,
        memory_budget_bytes: cfg.memory_budget_bytes,
        storage_retry_budget: cfg.storage_retry_budget,
        checksum_spills: cfg.checksum_spills,
        cache_capacity: cfg.cache_capacity,
        placement: cfg.placement.clone(),
        storage_hosts: cfg.storage_hosts.clone(),
        selected_cache: std::sync::OnceLock::new(),
        chunk_cache: std::sync::OnceLock::new(),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, AppConfig};
    use crate::pipeline::Grouping;
    use datacutter::{Placement, WritePolicy};
    use hetsim::presets::rogue_cluster;
    use std::sync::Arc;
    use volume::{Dataset, Dims};

    fn small_setup(nodes: usize, width: u32) -> (Topology, SharedConfig) {
        let (topo, hosts) = rogue_cluster(nodes);
        let ds = Dataset::generate(Dims::new(25, 25, 25), (2, 2, 2), 8, 11);
        let cfg = AppConfig::new(ds, hosts, 2, width, width);
        (topo, Arc::new(cfg))
    }

    fn spec(topo: &Topology, cfg: &SharedConfig, g: Grouping, alg: Algorithm) -> PipelineSpec {
        let _ = topo;
        PipelineSpec {
            grouping: g,
            algorithm: alg,
            policy: WritePolicy::demand_driven(),
            merge_host: cfg.storage_hosts[0],
        }
    }

    #[test]
    fn rera_m_matches_reference() {
        let (topo, cfg) = small_setup(2, 96);
        let s = spec(&topo, &cfg, Grouping::RERaM, Algorithm::ActivePixel);
        let r = Render::new(&cfg, &s).go(&topo).unwrap();
        let reference = reference_image(&cfg);
        assert_eq!(r.image().diff_pixels(&reference), 0);
        assert!(r.elapsed > SimDuration::ZERO);
    }

    /// A config that fails validation builds no graph: `Render::new` does
    /// not panic, and `go` reports the knob as a structured error through
    /// every builder option.
    #[test]
    fn invalid_config_is_an_error_from_go_not_a_panic() {
        let (topo, cfg) = small_setup(2, 96);
        let mut c = clone_config(&cfg);
        c.tri_batch = 0;
        let c: SharedConfig = Arc::new(c);
        let s = spec(&topo, &c, Grouping::RERaM, Algorithm::ActivePixel);
        let run = Render::new(&c, &s)
            .executor(datacutter::NativeExecutor::new())
            .uows(2)
            .go(&topo);
        match run {
            Err(RunError::Unsupported { what }) => assert!(what.contains("tri_batch"), "{what}"),
            Err(other) => panic!("expected Unsupported, got {other}"),
            Ok(_) => panic!("a zero-triangle batch must not run"),
        }
    }

    #[test]
    fn re_ra_m_matches_reference_both_algorithms() {
        let (topo, cfg) = small_setup(2, 96);
        for alg in [Algorithm::ZBuffer, Algorithm::ActivePixel] {
            let s = spec(
                &topo,
                &cfg,
                Grouping::RERaSplit {
                    raster: Placement::one_per_host(&cfg.storage_hosts),
                },
                alg,
            );
            let r = Render::new(&cfg, &s).go(&topo).unwrap();
            let reference = reference_image(&cfg);
            assert_eq!(r.image().diff_pixels(&reference), 0, "algorithm {alg:?}");
        }
    }

    #[test]
    fn r_era_m_matches_reference() {
        let (topo, cfg) = small_setup(2, 96);
        let s = spec(
            &topo,
            &cfg,
            Grouping::REraSplit {
                era: Placement::one_per_host(&cfg.storage_hosts),
            },
            Algorithm::ActivePixel,
        );
        let r = Render::new(&cfg, &s).go(&topo).unwrap();
        assert_eq!(r.image().diff_pixels(&reference_image(&cfg)), 0);
    }

    #[test]
    fn four_stage_matches_reference() {
        let (topo, cfg) = small_setup(4, 96);
        let hosts = &cfg.storage_hosts;
        let s = spec(
            &topo,
            &cfg,
            Grouping::FourStage {
                extract: Placement::on_host(hosts[1], 1),
                raster: Placement::on_host(hosts[2], 1),
            },
            Algorithm::ZBuffer,
        );
        // Only host 0 holds data in this test: rebuild config with one
        // storage host but a 4-host topology.
        let mut c = clone_config(&cfg);
        c.storage_hosts = vec![hosts[0]];
        c.placement = volume::FilePlacement::balanced(8, 1, 2);
        let c: SharedConfig = Arc::new(c);
        let mut s2 = s;
        s2.merge_host = hosts[3];
        let r = Render::new(&c, &s2).go(&topo).unwrap();
        assert_eq!(r.image().diff_pixels(&reference_image(&c)), 0);
        // Four filters + merge stream wiring present.
        assert_eq!(r.filters.len(), 4);
        assert!(r.to_raster.is_some());
    }

    #[test]
    fn multiple_raster_copies_still_consistent() {
        // The paper's headline consistency property: the output must not
        // depend on how many transparent copies run.
        let (topo, cfg) = small_setup(4, 96);
        for copies in [1u32, 2, 3] {
            let s = spec(
                &topo,
                &cfg,
                Grouping::RERaSplit {
                    raster: Placement {
                        per_host: cfg.storage_hosts.iter().map(|&h| (h, copies)).collect(),
                    },
                },
                Algorithm::ActivePixel,
            );
            let r = Render::new(&cfg, &s).go(&topo).unwrap();
            assert_eq!(
                r.image().diff_pixels(&reference_image(&cfg)),
                0,
                "copies per host = {copies}"
            );
        }
    }

    #[test]
    fn zbuffer_moves_more_merge_bytes_than_active_pixel() {
        // Table 1's shape: the z-buffer algorithm sends fewer, larger
        // buffers and a greater total volume to the merge filter.
        let (topo, cfg) = small_setup(2, 128);
        let mk = |alg| {
            spec(
                &topo,
                &cfg,
                Grouping::RERaSplit {
                    raster: Placement::one_per_host(&cfg.storage_hosts),
                },
                alg,
            )
        };
        let zb = Render::new(&cfg, &mk(Algorithm::ZBuffer))
            .go(&topo)
            .unwrap();
        let ap = Render::new(&cfg, &mk(Algorithm::ActivePixel))
            .go(&topo)
            .unwrap();
        let zb_bytes = zb.report.stream(zb.to_merge).total_bytes();
        let ap_bytes = ap.report.stream(ap.to_merge).total_bytes();
        assert!(zb_bytes > ap_bytes, "zb {zb_bytes} vs ap {ap_bytes}");
    }

    #[test]
    fn range_query_renders_selected_chunks_only() {
        let (topo, cfg) = small_setup(2, 96);
        // Query the lower octant of the volume.
        let mut c = clone_config(&cfg);
        c.query = Some(volume::CellRange {
            lo: (0, 0, 0),
            hi: (12, 12, 12),
        });
        let cfg_q: SharedConfig = Arc::new(c);
        let s = spec(
            &topo,
            &cfg_q,
            Grouping::RERaSplit {
                raster: Placement::one_per_host(&cfg_q.storage_hosts),
            },
            Algorithm::ActivePixel,
        );
        let full = Render::new(&cfg, &s).go(&topo).unwrap();
        let part = Render::new(&cfg_q, &s).go(&topo).unwrap();
        // Matches the chunk-granular query reference exactly.
        assert_eq!(part.image().diff_pixels(&reference_image(&cfg_q)), 0);
        // Different from the full rendering, and cheaper.
        assert!(part.image().diff_pixels(full.image()) > 0);
        let full_disk: u64 = full
            .report
            .copies
            .iter()
            .map(|c| c.counters.disk_bytes)
            .sum();
        let part_disk: u64 = part
            .report
            .copies
            .iter()
            .map(|c| c.counters.disk_bytes)
            .sum();
        assert!(
            part_disk < full_disk / 2,
            "query read {part_disk} vs full {full_disk}"
        );
        assert!(part.elapsed < full.elapsed);
    }

    #[test]
    fn empty_range_query_renders_background() {
        let (topo, cfg) = small_setup(2, 64);
        let mut c = clone_config(&cfg);
        c.query = Some(volume::CellRange {
            lo: (5, 5, 5),
            hi: (5, 9, 9),
        });
        let cfg_q: SharedConfig = Arc::new(c);
        let s = spec(&topo, &cfg_q, Grouping::RERaM, Algorithm::ZBuffer);
        let r = Render::new(&cfg_q, &s).go(&topo).unwrap();
        assert_eq!(r.image().coverage(isosurf::BACKGROUND), 0);
    }

    #[test]
    fn tile_composite_matches_reference_both_algorithms() {
        let (topo, cfg) = small_setup(3, 96);
        for alg in [Algorithm::ZBuffer, Algorithm::ActivePixel] {
            let s = spec(
                &topo,
                &cfg,
                Grouping::TileComposite {
                    raster: Placement::one_per_host(&cfg.storage_hosts),
                    merge: Placement::one_per_host(&cfg.storage_hosts),
                },
                alg,
            );
            let r = Render::new(&cfg, &s).go(&topo).unwrap();
            assert_eq!(r.image().diff_pixels(&reference_image(&cfg)), 0, "{alg:?}");
            assert_eq!(r.filters.len(), 4, "RE, Ra, Mt, A");
        }
    }

    #[test]
    fn tile_composite_is_bitwise_equal_to_single_sink_merge() {
        // The tentpole invariant: distributing the merge over tile owners
        // must not change a single pixel relative to the serial sink.
        let (topo, cfg) = small_setup(3, 96);
        for alg in [Algorithm::ZBuffer, Algorithm::ActivePixel] {
            let serial = spec(
                &topo,
                &cfg,
                Grouping::RERaSplit {
                    raster: Placement::one_per_host(&cfg.storage_hosts),
                },
                alg,
            );
            let tiled = spec(
                &topo,
                &cfg,
                Grouping::TileComposite {
                    raster: Placement::one_per_host(&cfg.storage_hosts),
                    merge: Placement::one_per_host(&cfg.storage_hosts),
                },
                alg,
            );
            let rs = Render::new(&cfg, &serial).go(&topo).unwrap();
            let rt = Render::new(&cfg, &tiled).go(&topo).unwrap();
            assert_eq!(rt.image().diff_pixels(rs.image()), 0, "{alg:?}");
        }
    }

    #[test]
    fn tile_composite_handles_extreme_tile_sizes() {
        // One-row tiles (maximal splitting) and one giant tile (everything
        // lands on one merge set) are both correct.
        let (topo, cfg) = small_setup(2, 96);
        for tile_size in [1u32, 7, 96, 10_000] {
            let mut c = clone_config(&cfg);
            c.tile_size = tile_size;
            let c: SharedConfig = Arc::new(c);
            let s = spec(
                &topo,
                &c,
                Grouping::TileComposite {
                    raster: Placement::one_per_host(&c.storage_hosts),
                    merge: Placement::one_per_host(&c.storage_hosts),
                },
                Algorithm::ActivePixel,
            );
            let r = Render::new(&c, &s).go(&topo).unwrap();
            assert_eq!(
                r.image().diff_pixels(&reference_image(&c)),
                0,
                "tile_size={tile_size}"
            );
        }
    }

    #[test]
    fn tile_composite_multi_uow_resets_tile_accumulators() {
        // Leaked per-tile z-buffers would ghost earlier timesteps into
        // later images, exactly like the single-sink regression test.
        let (topo, cfg) = small_setup(2, 96);
        let s = spec(
            &topo,
            &cfg,
            Grouping::TileComposite {
                raster: Placement::one_per_host(&cfg.storage_hosts),
                merge: Placement::one_per_host(&cfg.storage_hosts),
            },
            Algorithm::ZBuffer,
        );
        let multi = Render::new(&cfg, &s).uows(2).go(&topo).unwrap();
        let mut c = clone_config(&cfg);
        c.timestep = 1;
        let reference = reference_image(&Arc::new(c));
        assert_eq!(multi.images[1].diff_pixels(&reference), 0);
    }

    #[test]
    fn multi_uow_run_matches_per_timestep_references() {
        let (topo, cfg) = small_setup(2, 96);
        let s = spec(
            &topo,
            &cfg,
            Grouping::RERaSplit {
                raster: Placement::one_per_host(&cfg.storage_hosts),
            },
            Algorithm::ActivePixel,
        );
        let multi = Render::new(&cfg, &s).uows(3).go(&topo).unwrap();
        assert_eq!(multi.images.len(), 3);
        let uow_elapsed = multi.report.uow_elapsed();
        assert_eq!(uow_elapsed.len(), 3);
        for (t, img) in multi.images.iter().enumerate() {
            let mut c = clone_config(&cfg);
            c.timestep = t as u32;
            let reference = reference_image(&Arc::new(c));
            assert_eq!(img.diff_pixels(&reference), 0, "uow {t}");
        }
        // Consecutive cycles should take comparable time (same pipeline,
        // evolving field).
        let times: Vec<f64> = uow_elapsed.iter().map(|d| d.as_secs_f64()).collect();
        let max = times.iter().cloned().fold(0.0, f64::max);
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min < 2.0, "per-UOW times wildly uneven: {times:?}");
    }

    #[test]
    fn multi_uow_zbuffer_resets_accumulators_between_cycles() {
        // If the raster or merge filters leaked z-buffer state across
        // UOWs, later images would contain ghosts of earlier timesteps.
        let (topo, cfg) = small_setup(2, 96);
        let s = spec(
            &topo,
            &cfg,
            Grouping::RERaSplit {
                raster: Placement::one_per_host(&cfg.storage_hosts),
            },
            Algorithm::ZBuffer,
        );
        let multi = Render::new(&cfg, &s).uows(2).go(&topo).unwrap();
        let mut c = clone_config(&cfg);
        c.timestep = 1;
        let reference = reference_image(&Arc::new(c));
        assert_eq!(multi.images[1].diff_pixels(&reference), 0);
    }

    fn total_disk_bytes(r: &PipelineResult) -> u64 {
        r.report.copies.iter().map(|c| c.counters.disk_bytes).sum()
    }

    #[test]
    fn warm_chunk_cache_skips_disk_traffic() {
        let (topo, cfg) = small_setup(2, 96);
        let mut c = clone_config(&cfg);
        c.cache_capacity = 1 << 30;
        let c: SharedConfig = Arc::new(c);
        let s = spec(&topo, &c, Grouping::RERaM, Algorithm::ActivePixel);
        let cold = Render::new(&c, &s).go(&topo).unwrap();
        let warm = Render::new(&c, &s).go(&topo).unwrap();
        assert_eq!(warm.image().diff_pixels(cold.image()), 0);
        assert_eq!(cold.image().diff_pixels(&reference_image(&c)), 0);
        assert!(total_disk_bytes(&cold) > 0, "cold run reads from disk");
        assert_eq!(
            total_disk_bytes(&warm),
            0,
            "warm run serves every chunk from the cache"
        );
        assert!(warm.elapsed < cold.elapsed, "cache hits skip disk time");
        let stats = c.chunk_cache().expect("cache wired").stats();
        assert_eq!(stats.hits + stats.misses, stats.lookups());
        assert!(stats.hits >= 8, "second pass hits every chunk");
        assert!(stats.resident_bytes <= stats.capacity_bytes);
    }

    /// Budgets of one chunk, 1/64 of a chunk and one byte, under RR and
    /// DD on both executors: each stream keeps one payload resident
    /// whatever its share, so every run renders the unbudgeted image and
    /// conserves its spills. Spill counts are asserted on the simulator
    /// only: native ones depend on the schedule.
    #[test]
    fn budgeted_run_spills_and_stays_bit_identical() {
        let (topo, cfg) = small_setup(2, 96);
        let mut s = spec(
            &topo,
            &cfg,
            Grouping::FourStage {
                extract: Placement::on_host(cfg.storage_hosts[1], 1),
                raster: Placement::on_host(cfg.storage_hosts[0], 1),
            },
            Algorithm::ActivePixel,
        );
        let free = Render::new(&cfg, &s).go(&topo).unwrap();
        assert_eq!(free.report.ooc.spills, 0, "unbudgeted runs never spill");
        let one_chunk = cfg.dataset.chunk_bytes(volume::ChunkId(0));
        for budget in [one_chunk, one_chunk / 64, 1] {
            let mut c = clone_config(&cfg);
            c.memory_budget_bytes = budget;
            c.validate().expect("any budget validates");
            let c: SharedConfig = Arc::new(c);
            for policy in [WritePolicy::RoundRobin, WritePolicy::demand_driven()] {
                s.policy = policy;
                for sim in [true, false] {
                    let label = format!("budget {budget} {} sim={sim}", policy.label());
                    let exec: ExecutorChoice = match sim {
                        true => datacutter::SimExecutor::new().into(),
                        false => datacutter::NativeExecutor::new().into(),
                    };
                    let tight = Render::new(&c, &s).executor(exec).go(&topo).unwrap();
                    assert_eq!(tight.image().diff_pixels(free.image()), 0, "{label}");
                    let ooc = tight.report.ooc;
                    assert!(!sim || ooc.spills > 0, "{label}: must force spills");
                    assert_eq!(ooc.spills, ooc.faults, "{label}: every spill re-faults");
                    assert_eq!(ooc.spill_bytes, ooc.fault_bytes, "{label}");
                    assert_eq!(
                        ooc.resident_bytes(),
                        0,
                        "{label}: ledger drains when the run completes: granted {} released {}",
                        ooc.granted_bytes,
                        ooc.released_bytes
                    );
                    assert_eq!(ooc.memory_budget_bytes, budget, "{label}");
                }
            }
        }
    }

    /// Every executor × fault plan × units-of-work combination goes
    /// through `Render` with the config's memory budget forwarded; the
    /// faulted multi-UOW cells had no entry point before it.
    #[test]
    fn render_runs_every_executor_fault_and_uow_combination() {
        let (topo, cfg) = small_setup(2, 96);
        let mut c = clone_config(&cfg);
        c.memory_budget_bytes = c.dataset.chunk_bytes(volume::ChunkId(0));
        let cfg: SharedConfig = Arc::new(c);
        let s = spec(
            &topo,
            &cfg,
            Grouping::RERaSplit {
                raster: Placement::one_per_host(&cfg.storage_hosts),
            },
            Algorithm::ActivePixel,
        );
        for native in [false, true] {
            for drops in [false, true] {
                for uows in [1, 3] {
                    let label = format!("native {native}, drops {drops}, {uows} UOWs");
                    let mut render = Render::new(&cfg, &s).uows(uows);
                    if native {
                        render = render.executor(datacutter::NativeExecutor::new());
                    }
                    if drops {
                        let plan = hetsim::FaultPlan::new().drop_messages(0xD00D, 0.08);
                        render = render.faults(FaultOptions::new(plan));
                    }
                    let r = render.go(&topo).unwrap();
                    assert_eq!(r.report.events == 0, native, "{label}: the executor ran");
                    let ooc = r.report.ooc;
                    assert_eq!(ooc.memory_budget_bytes, cfg.memory_budget_bytes, "{label}");
                    let f = &r.report.faults;
                    assert!(!drops || f.retransmits > 0, "{label}: {f:?}");
                    assert_eq!(r.images.len(), uows as usize, "{label}");
                    for (k, img) in r.images.iter().enumerate() {
                        let mut c = clone_config(&cfg);
                        c.timestep = k as u32;
                        let reference = reference_image(&Arc::new(c));
                        assert_eq!(img.diff_pixels(&reference), 0, "{label}: UOW {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn timestep_sweep_produces_distinct_images() {
        let (topo, cfg) = small_setup(2, 96);
        let s = spec(&topo, &cfg, Grouping::RERaM, Algorithm::ActivePixel);
        let r = Render::new(&cfg, &s).uows(3).go(&topo).unwrap();
        assert_eq!(r.images.len(), 3);
        assert!(r.elapsed > SimDuration::ZERO);
        assert!(
            r.images[0].diff_pixels(&r.images[2]) > 0,
            "fields evolve over time"
        );
    }
}
