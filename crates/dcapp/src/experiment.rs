//! Running pipelines and validating their output.

use datacutter::{AppGraph, ExecutorChoice, FaultOptions, Run, RunError, RunReport};
use hetsim::{SimDuration, Topology};
use isosurf::Image;

use crate::config::{AppConfig, SharedConfig};
use crate::filters::ImageSlot;
use crate::pipeline::{build_pipeline, Pipeline, PipelineSpec};

/// Outcome of one pipeline run (one unit of work = one timestep rendered).
pub struct PipelineResult {
    /// End-to-end virtual time.
    pub elapsed: SimDuration,
    /// Framework metrics.
    pub report: RunReport,
    /// The rendered image.
    pub image: Image,
    /// The stream ids of interest (copied from the pipeline handles).
    pub to_raster: Option<datacutter::StreamId>,
    /// Stream into the merge filter.
    pub to_merge: datacutter::StreamId,
    /// Filter ids in pipeline order.
    pub filters: Vec<datacutter::FilterId>,
}

/// Build and run `spec` once on `topo`.
pub fn run_pipeline(
    topo: &Topology,
    cfg: &SharedConfig,
    spec: &PipelineSpec,
) -> Result<PipelineResult, RunError> {
    run_pipeline_exec(topo, cfg, spec, datacutter::SimExecutor::new())
}

/// Build and run `spec` once on `topo` on an explicit execution substrate:
/// pass a [`datacutter::SimExecutor`] for the deterministic virtual-time
/// run or a [`datacutter::NativeExecutor`] to execute the same pipeline on
/// real OS threads. The rendered image is bit-identical on both (merging
/// is order-independent); only the timing/metrics semantics differ.
pub fn run_pipeline_exec(
    topo: &Topology,
    cfg: &SharedConfig,
    spec: &PipelineSpec,
    exec: impl Into<ExecutorChoice>,
) -> Result<PipelineResult, RunError> {
    run_once(topo, cfg, spec, None, exec.into())
}

/// The [`Run`] every entry point below starts from: `graph` under the
/// out-of-core knobs of `cfg`, with `faults` injected when given.
fn configured_run(graph: AppGraph, cfg: &AppConfig, faults: Option<FaultOptions>) -> Run {
    let run = Run::new(graph)
        .memory_budget(cfg.memory_budget_bytes)
        .storage_retries(cfg.storage_retry_budget)
        .checksum_spills(cfg.checksum_spills);
    match faults {
        Some(opts) => run.faults(opts),
        None => run,
    }
}

/// One single-UOW run of `spec` and its one deposited image.
fn run_once(
    topo: &Topology,
    cfg: &SharedConfig,
    spec: &PipelineSpec,
    faults: Option<FaultOptions>,
    exec: ExecutorChoice,
) -> Result<PipelineResult, RunError> {
    let Pipeline {
        graph,
        image,
        to_raster,
        to_merge,
        filters,
    } = build_pipeline(cfg, spec);
    let report = configured_run(graph, cfg, faults).executor(exec).go(topo)?;
    let image = deposited(&image, &report, 1)?.swap_remove(0);
    Ok(PipelineResult {
        elapsed: report.elapsed,
        report,
        image,
        to_raster,
        to_merge,
        filters,
    })
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

/// Build and run `spec` once on `topo` under a fault plan: hosts crash,
/// stall, or lose messages per `opts`, and the runtime's recovery
/// machinery (liveness timeouts, writer eviction, retention and
/// redelivery) keeps the pipeline going. Every payload is retained until
/// its consumer settles it, so a crash of an extract, raster or merge host that leaves
/// a surviving copy set completes with `lost == 0` under every writer
/// policy; only a crash that leaves no live consumer tallies losses in
/// `report.faults`. A crash of the merge host leaves no image, and fails
/// the run with [`RunError::NoSurvivingConsumers`].
pub fn run_pipeline_faulted(
    topo: &Topology,
    cfg: &SharedConfig,
    spec: &PipelineSpec,
    opts: FaultOptions,
) -> Result<PipelineResult, RunError> {
    run_pipeline_faulted_exec(topo, cfg, spec, opts, datacutter::SimExecutor::new())
}

/// [`run_pipeline_faulted`] on an explicit execution substrate: the same
/// fault plan drives either the deterministic virtual-time run or a
/// wall-clock chaos run on real OS threads
/// ([`datacutter::NativeExecutor`]). On the native substrate the plan's
/// times are wall-clock nanoseconds since run start, so crash/stall
/// instants should be scaled to real pipeline durations.
pub fn run_pipeline_faulted_exec(
    topo: &Topology,
    cfg: &SharedConfig,
    spec: &PipelineSpec,
    opts: FaultOptions,
    exec: impl Into<ExecutorChoice>,
) -> Result<PipelineResult, RunError> {
    run_once(topo, cfg, spec, Some(opts), exec.into())
}

/// Result of a multi-UOW run: one image per unit of work (consecutive
/// timesteps), cumulative metrics, and per-UOW elapsed times.
pub struct MultiUowResult {
    /// Framework metrics (cumulative over all UOWs).
    pub report: RunReport,
    /// One rendered image per UOW, in order.
    pub images: Vec<isosurf::Image>,
    /// Per-UOW elapsed virtual time.
    pub uow_elapsed: Vec<SimDuration>,
}

/// Run `uows` consecutive units of work in a **single** simulation: filter
/// copies stay resident and cycle through `init` → `process` → `finalize`
/// per UOW, rendering timesteps `cfg.timestep`, `cfg.timestep + 1`, ... —
/// the paper's "five consecutive timesteps" workload as one run.
pub fn run_pipeline_uows(
    topo: &Topology,
    cfg: &SharedConfig,
    spec: &PipelineSpec,
    uows: u32,
) -> Result<MultiUowResult, RunError> {
    run_pipeline_uows_exec(topo, cfg, spec, uows, datacutter::SimExecutor::new())
}

/// [`run_pipeline_uows`] on an explicit execution substrate, as
/// [`run_pipeline_exec`] is to [`run_pipeline`].
pub fn run_pipeline_uows_exec(
    topo: &Topology,
    cfg: &SharedConfig,
    spec: &PipelineSpec,
    uows: u32,
    exec: impl Into<ExecutorChoice>,
) -> Result<MultiUowResult, RunError> {
    let Pipeline { graph, image, .. } = build_pipeline(cfg, spec);
    let report = configured_run(graph, cfg, None)
        .executor(exec)
        .uows(uows)
        .go(topo)?;
    let images = deposited(&image, &report, uows)?;
    let uow_elapsed = report.uow_elapsed();
    Ok(MultiUowResult {
        report,
        images,
        uow_elapsed,
    })
}

/// Run `spec` for `timesteps` consecutive timesteps (fresh simulation per
/// timestep, as the paper clears caches between runs) and return the
/// per-timestep results. The config's `timestep` field is overridden.
pub fn run_timesteps(
    topo: &Topology,
    cfg: &SharedConfig,
    spec: &PipelineSpec,
    timesteps: std::ops::Range<u32>,
) -> Result<Vec<PipelineResult>, RunError> {
    let mut out = Vec::new();
    for t in timesteps {
        let mut c = clone_config(cfg);
        c.timestep = t;
        let c: SharedConfig = std::sync::Arc::new(c);
        out.push(run_pipeline(topo, &c, spec)?);
    }
    Ok(out)
}

/// Average elapsed time of a result set, in seconds.
pub fn avg_elapsed_secs(results: &[PipelineResult]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(|r| r.elapsed.as_secs_f64()).sum::<f64>() / results.len() as f64
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
        prefetch_depth: cfg.prefetch_depth,
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
        let r = run_pipeline(&topo, &cfg, &s).unwrap();
        let reference = reference_image(&cfg);
        assert_eq!(r.image.diff_pixels(&reference), 0);
        assert!(r.elapsed > SimDuration::ZERO);
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
            let r = run_pipeline(&topo, &cfg, &s).unwrap();
            let reference = reference_image(&cfg);
            assert_eq!(r.image.diff_pixels(&reference), 0, "algorithm {alg:?}");
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
        let r = run_pipeline(&topo, &cfg, &s).unwrap();
        assert_eq!(r.image.diff_pixels(&reference_image(&cfg)), 0);
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
        let r = run_pipeline(&topo, &c, &s2).unwrap();
        assert_eq!(r.image.diff_pixels(&reference_image(&c)), 0);
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
            let r = run_pipeline(&topo, &cfg, &s).unwrap();
            assert_eq!(
                r.image.diff_pixels(&reference_image(&cfg)),
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
        let zb = run_pipeline(&topo, &cfg, &mk(Algorithm::ZBuffer)).unwrap();
        let ap = run_pipeline(&topo, &cfg, &mk(Algorithm::ActivePixel)).unwrap();
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
        let full = run_pipeline(&topo, &cfg, &s).unwrap();
        let part = run_pipeline(&topo, &cfg_q, &s).unwrap();
        // Matches the chunk-granular query reference exactly.
        assert_eq!(part.image.diff_pixels(&reference_image(&cfg_q)), 0);
        // Different from the full rendering, and cheaper.
        assert!(part.image.diff_pixels(&full.image) > 0);
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
        let r = run_pipeline(&topo, &cfg_q, &s).unwrap();
        assert_eq!(r.image.coverage(isosurf::BACKGROUND), 0);
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
            let r = run_pipeline(&topo, &cfg, &s).unwrap();
            assert_eq!(r.image.diff_pixels(&reference_image(&cfg)), 0, "{alg:?}");
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
            let rs = run_pipeline(&topo, &cfg, &serial).unwrap();
            let rt = run_pipeline(&topo, &cfg, &tiled).unwrap();
            assert_eq!(rt.image.diff_pixels(&rs.image), 0, "{alg:?}");
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
            let r = run_pipeline(&topo, &c, &s).unwrap();
            assert_eq!(
                r.image.diff_pixels(&reference_image(&c)),
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
        let multi = run_pipeline_uows(&topo, &cfg, &s, 2).unwrap();
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
        let multi = run_pipeline_uows(&topo, &cfg, &s, 3).unwrap();
        assert_eq!(multi.images.len(), 3);
        assert_eq!(multi.uow_elapsed.len(), 3);
        for (t, img) in multi.images.iter().enumerate() {
            let mut c = clone_config(&cfg);
            c.timestep = t as u32;
            let reference = reference_image(&Arc::new(c));
            assert_eq!(img.diff_pixels(&reference), 0, "uow {t}");
        }
        // Consecutive cycles should take comparable time (same pipeline,
        // evolving field).
        let times: Vec<f64> = multi.uow_elapsed.iter().map(|d| d.as_secs_f64()).collect();
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
        let multi = run_pipeline_uows(&topo, &cfg, &s, 2).unwrap();
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
        let cold = run_pipeline(&topo, &c, &s).unwrap();
        let warm = run_pipeline(&topo, &c, &s).unwrap();
        assert_eq!(warm.image.diff_pixels(&cold.image), 0);
        assert_eq!(cold.image.diff_pixels(&reference_image(&c)), 0);
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

    #[test]
    fn prefetched_run_matches_reference_and_disk_tally() {
        let (topo, cfg) = small_setup(2, 96);
        let s = spec(&topo, &cfg, Grouping::RERaM, Algorithm::ActivePixel);
        let plain = run_pipeline(&topo, &cfg, &s).unwrap();
        let mut c = clone_config(&cfg);
        c.prefetch_depth = 4;
        let c: SharedConfig = Arc::new(c);
        let pre = run_pipeline(&topo, &c, &s).unwrap();
        assert_eq!(pre.image.diff_pixels(&plain.image), 0);
        assert_eq!(
            total_disk_bytes(&pre),
            total_disk_bytes(&plain),
            "read-ahead moves the same bytes, just earlier"
        );
        assert!(
            pre.elapsed <= plain.elapsed,
            "overlapping retrieval with compute must not slow the run: \
             {:?} vs {:?}",
            pre.elapsed,
            plain.elapsed
        );
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
        let free = run_pipeline(&topo, &cfg, &s).unwrap();
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
                    let tight = if sim {
                        run_pipeline(&topo, &c, &s)
                    } else {
                        run_pipeline_exec(&topo, &c, &s, datacutter::NativeExecutor::new())
                    }
                    .unwrap();
                    assert_eq!(tight.image.diff_pixels(&free.image), 0, "{label}");
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

    #[test]
    fn timestep_sweep_produces_distinct_images() {
        let (topo, cfg) = small_setup(2, 96);
        let s = spec(&topo, &cfg, Grouping::RERaM, Algorithm::ActivePixel);
        let results = run_timesteps(&topo, &cfg, &s, 0..3).unwrap();
        assert_eq!(results.len(), 3);
        assert!(avg_elapsed_secs(&results) > 0.0);
        assert!(
            results[0].image.diff_pixels(&results[2].image) > 0,
            "fields evolve over time"
        );
    }
}
