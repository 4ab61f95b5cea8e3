//! Automatic configuration: choosing the filter grouping, compute
//! placement, transparent-copy counts, and writer policy for a given
//! cluster and dataset.
//!
//! The paper leaves these three decisions to the application developer and
//! notes (footnote 1) that the authors "are in the process of examining
//! various mechanisms to automate some of these steps". This module is
//! that mechanism: it probes the dataset to estimate per-stage work and
//! stream volumes, evaluates an analytic makespan model for each candidate
//! configuration, and returns the winner with a human-readable rationale.
//!
//! The model is deliberately coarse — it exists to make *qualitative*
//! choices (fuse or split? weight the big node? pay for acks?), which the
//! test suite validates against actual pipeline runs.

use datacutter::{Placement, WritePolicy};
use hetsim::{HostId, Topology};
use volume::ChunkId;

use crate::config::{Algorithm, SharedConfig};
use crate::pipeline::{Grouping, PipelineSpec};

/// Estimated per-unit-of-work totals, from probing the dataset.
#[derive(Debug, Clone, Copy)]
pub struct WorkEstimate {
    /// Cells to scan.
    pub cells: u64,
    /// Estimated triangles the isovalue produces.
    pub triangles: u64,
    /// Estimated pixels generated at the configured image size.
    pub pixels: u64,
    /// Total chunk bytes retrieved.
    pub chunk_bytes: u64,
    /// Total triangle bytes on the extract→raster stream.
    pub tri_bytes: u64,
}

/// How many chunks the probe extracts (spread across the id range).
///
/// Triangle density is spatially clustered (plumes), so a sparse strided
/// sample has high variance: 6 probes landed ~4x over the true count on
/// some seeds. 16 keeps the probe cheap (~12% of the dataset) while
/// bounding the scaling error well inside the model's 3x tolerance.
const PROBE_CHUNKS: u32 = 16;

/// Merge copy sets the tile-composite upgrade spreads the fold over (one
/// set per host, on the most capable hosts; fewer when fewer exist).
const TILE_MERGE_SETS: usize = 4;

/// Probe the dataset: extract a few representative chunks and scale.
pub fn estimate_work(cfg: &SharedConfig) -> WorkEstimate {
    let selected: Vec<ChunkId> = {
        let mut v: Vec<ChunkId> = cfg.selected_chunks().iter().copied().collect();
        v.sort_unstable();
        v
    };
    let n = selected.len() as u64;
    if n == 0 {
        return WorkEstimate {
            cells: 0,
            triangles: 0,
            pixels: 0,
            chunk_bytes: 0,
            tri_bytes: 0,
        };
    }
    let stride = (n as usize / PROBE_CHUNKS as usize).max(1);
    let mut probe_tris = 0u64;
    let mut probe_pixels = 0u64;
    let mut probed = 0u64;
    let proj = cfg.camera.projector();
    let (w, h) = (cfg.camera.width, cfg.camera.height);
    for &chunk in selected.iter().step_by(stride) {
        probed += 1;
        if !cfg
            .dataset
            .can_cross(cfg.species, cfg.timestep, chunk, cfg.iso)
        {
            // The surface misses the chunk: no triangle, no pixel.
            continue;
        }
        let info = cfg.dataset.chunk_info(chunk);
        let grid = cfg.dataset.read_chunk(cfg.species, cfg.timestep, chunk);
        let mut tris = Vec::new();
        isosurf::extract(&grid, info.cell_origin, cfg.iso, &mut tris);
        probe_tris += tris.len() as u64;
        probe_pixels += isosurf::raster_batch(&proj, w, h, &cfg.material, &tris, |_, _, _, _| {});
    }
    let scale = n as f64 / probed.max(1) as f64;
    let cells: u64 = selected
        .iter()
        .map(|&c| {
            let e = cfg.dataset.chunk_info(c).cell_extent;
            e.0 as u64 * e.1 as u64 * e.2 as u64
        })
        .sum();
    let chunk_bytes: u64 = selected.iter().map(|&c| cfg.dataset.chunk_bytes(c)).sum();
    let triangles = (probe_tris as f64 * scale) as u64;
    WorkEstimate {
        cells,
        triangles,
        pixels: (probe_pixels as f64 * scale) as u64,
        chunk_bytes,
        tri_bytes: triangles * isosurf::TRIANGLE_WIRE_BYTES,
        // probe_cells unused beyond scaling sanity; cells computed exactly.
    }
}

/// A planned configuration with the model's reasoning.
pub struct Plan {
    /// The chosen pipeline.
    pub spec: PipelineSpec,
    /// Estimated makespan (model seconds) of the chosen configuration.
    pub estimate_secs: f64,
    /// All evaluated candidates: `(label, estimated seconds)`.
    pub candidates: Vec<(String, f64)>,
    /// Why the winner won.
    pub rationale: String,
}

/// Effective compute capacity of `host` in reference-cores (cores × speed,
/// derated by background jobs).
fn capacity(topo: &Topology, host: HostId) -> f64 {
    let cpu = &topo.host(host).cpu;
    let cores = cpu.cores() as f64;
    let bg = cpu.bg_jobs() as f64;
    // Background jobs take their share of the cores.
    cpu.speed() * cores * (cores / (cores + bg)).min(1.0)
}

/// Seconds to move `bytes` from every storage host to the compute hosts,
/// approximated by the worst storage→compute path.
fn transfer_secs(topo: &Topology, from: &[HostId], to: &[HostId], bytes: u64) -> f64 {
    let mut worst = 0.0f64;
    for &f in from {
        for &t in to {
            worst = worst.max(topo.path_cost_per_byte(f, t));
        }
    }
    bytes as f64 * worst
}

/// Choose grouping, compute placement, copy counts, and policy for
/// rendering `cfg` on `topo`, with data on `cfg.storage_hosts` and
/// `compute_hosts` available for the raster stage (may overlap storage).
pub fn plan(topo: &Topology, cfg: &SharedConfig, compute_hosts: &[HostId]) -> Plan {
    assert!(!compute_hosts.is_empty());
    let est = estimate_work(cfg);
    let cost = &cfg.cost;
    let read_w = cost.read_cost(est.chunk_bytes).as_secs_f64();
    let extract_w = cost.extract_cost(est.cells, est.triangles).as_secs_f64();
    let raster_w = cost.raster_cost(est.triangles, est.pixels).as_secs_f64();

    let storage = &cfg.storage_hosts;
    let storage_cap: f64 = storage.iter().map(|&h| capacity(topo, h)).sum();
    // One raster copy per core on each compute host.
    let compute_placement = Placement {
        per_host: compute_hosts
            .iter()
            .map(|&h| (h, topo.host(h).cpu.cores()))
            .collect(),
    };
    let compute_cap: f64 = compute_hosts.iter().map(|&h| capacity(topo, h)).sum();

    // Disk time, overlapped with compute but a floor on the read stage.
    let disk_secs: f64 = {
        let per_node = est.chunk_bytes as f64 / storage.len() as f64;
        let bw = topo.host(storage[0]).disks[0].clone();
        let _ = bw;
        per_node / 25.0e6 // representative disk bandwidth
    };

    // Makespan models (coarse): pipeline stages overlap, so the makespan
    // is roughly the max stage time plus the data movement that cannot
    // hide behind it.
    let mut candidates: Vec<(String, Grouping, f64)> = Vec::new();

    // RERa-M: everything on the storage nodes, single-threaded per node.
    let rera_secs = {
        let per_node_cap: f64 = storage
            .iter()
            .map(|&h| {
                let cpu = &topo.host(h).cpu;
                let bg = cpu.bg_jobs() as f64;
                let cores = cpu.cores() as f64;
                cpu.speed() * (cores / (cores + bg)).min(1.0)
            })
            .fold(f64::INFINITY, f64::min);
        // One copy per node: per-node work limited by single-copy speed.
        let work = (read_w + extract_w + raster_w) / storage.len() as f64;
        (work / per_node_cap).max(disk_secs)
    };
    candidates.push(("RERa-M".into(), Grouping::RERaM, rera_secs));

    // RE-Ra-M: extract pinned to storage, raster spread over compute.
    let re_ra_secs = {
        let extract_secs = extract_w / storage_cap.max(1e-9);
        let raster_secs = raster_w / compute_cap.max(1e-9);
        let move_secs = transfer_secs(topo, storage, compute_hosts, est.tri_bytes);
        extract_secs.max(raster_secs).max(disk_secs) + move_secs.min(extract_secs + raster_secs)
    };
    candidates.push((
        "RE-Ra-M".into(),
        Grouping::RERaSplit {
            raster: compute_placement.clone(),
        },
        re_ra_secs,
    ));

    // R-ERa-M: both extract and raster on compute, chunks move.
    let r_era_secs = {
        let compute_secs = (extract_w + raster_w) / compute_cap.max(1e-9);
        let move_secs = transfer_secs(topo, storage, compute_hosts, est.chunk_bytes);
        compute_secs.max(disk_secs) + move_secs.min(compute_secs)
    };
    candidates.push((
        "R-ERa-M".into(),
        Grouping::REraSplit {
            era: compute_placement.clone(),
        },
        r_era_secs,
    ));

    // The cheapest candidate; the first of equals.
    let (label, mut grouping, secs) = candidates
        .iter()
        .fold(&candidates[0], |best, c| {
            if c.2.total_cmp(&best.2).is_lt() {
                c
            } else {
                best
            }
        })
        .clone();

    // Policy, per the paper's §6 guidance: demand driven wins "when the
    // bandwidth of the interconnect is reasonably high and the system load
    // dynamically changes"; acknowledgments are too expensive over a very
    // slow network; with static conditions and uneven copy counts the
    // zero-overhead weighted round robin suffices.
    let caps: Vec<f64> = compute_hosts.iter().map(|&h| capacity(topo, h)).collect();
    let cap_min = caps.iter().cloned().fold(f64::INFINITY, f64::min);
    let cap_max = caps.iter().cloned().fold(0.0f64, f64::max);
    let heterogeneous = cap_max > cap_min * 1.3;
    let dynamic_load = compute_hosts
        .iter()
        .chain(storage.iter())
        .any(|&h| topo.host(h).cpu.bg_jobs() > 0);
    let slowest_path = storage
        .iter()
        .flat_map(|&f| {
            compute_hosts
                .iter()
                .map(move |&t| topo.path_cost_per_byte(f, t))
        })
        .fold(0.0f64, f64::max);
    let very_slow_network = slowest_path > 1.0 / 5.0e6; // < 5 MB/s
    let uneven_copies = {
        let c: Vec<u32> = compute_placement.per_host.iter().map(|&(_, n)| n).collect();
        c.iter().max() != c.iter().min()
    };
    let policy = if dynamic_load && !very_slow_network {
        WritePolicy::demand_driven()
    } else if uneven_copies {
        WritePolicy::WeightedRoundRobin
    } else if heterogeneous && !very_slow_network {
        WritePolicy::demand_driven()
    } else {
        WritePolicy::RoundRobin
    };

    // Merge goes to the most capable compute host; the last of equals.
    let merge_host = compute_hosts.iter().fold(compute_hosts[0], |best, &h| {
        if capacity(topo, h).total_cmp(&capacity(topo, best)).is_ge() {
            h
        } else {
            best
        }
    });

    // Tile-composite upgrade: with a single merge copy every depth entry
    // funnels through one host, so once that fold is a material fraction
    // of the modeled makespan the merge stage serializes the graph. Split
    // it into a tile-owned merge group (one copy set per host, tiles
    // routed by tile-hash) when there are hosts to spread over.
    let merge_secs = cost.merge_cost(est.pixels).as_secs_f64() / capacity(topo, merge_host);
    let mut tile_note = String::new();
    if compute_hosts.len() >= 2 && merge_secs > 0.25 * secs {
        if let Grouping::RERaSplit { raster } = &grouping {
            let mut by_cap = compute_hosts.to_vec();
            by_cap.sort_by(|&a, &b| capacity(topo, b).total_cmp(&capacity(topo, a)));
            by_cap.truncate(TILE_MERGE_SETS);
            grouping = Grouping::TileComposite {
                raster: raster.clone(),
                merge: Placement::one_per_host(&by_cap),
            };
            tile_note = format!(
                "; merge fold ≈{merge_secs:.2}s would serialize — split into a \
                 tile-hash merge group over {} hosts",
                by_cap.len()
            );
        }
    }

    let rationale = format!(
        "est. work: read {read_w:.2}s extract {extract_w:.2}s raster {raster_w:.2}s; \
         volumes: chunks {:.1}MB tris {:.1}MB; chose {label} ({secs:.2}s model) with {} \
         ({} copies over {} hosts){}{tile_note}",
        est.chunk_bytes as f64 / 1e6,
        est.tri_bytes as f64 / 1e6,
        policy.label(),
        compute_placement.total_copies(),
        compute_hosts.len(),
        if heterogeneous {
            "; cluster is heterogeneous"
        } else {
            ""
        },
    );

    Plan {
        spec: PipelineSpec {
            grouping,
            algorithm: Algorithm::ActivePixel,
            policy,
            merge_host,
        },
        estimate_secs: secs,
        candidates: candidates.into_iter().map(|(l, _, s)| (l, s)).collect(),
        rationale,
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::config::AppConfig;
    use hetsim::presets::{red_with_deathstar, rogue_blue_mix, rogue_cluster};
    use std::sync::Arc;
    use volume::{Dataset, Dims};

    fn dataset() -> Dataset {
        Dataset::generate(Dims::new(33, 33, 65), (4, 4, 8), 32, 5)
    }

    fn cfg_for(hosts: Vec<hetsim::HostId>, image: u32) -> SharedConfig {
        let mut c = AppConfig::new(dataset(), hosts, 2, image, image);
        c.iso = 0.5;
        Arc::new(c)
    }

    #[test]
    fn estimate_is_in_the_right_ballpark() {
        let (_, hosts) = rogue_cluster(2);
        let cfg = cfg_for(hosts, 256);
        let est = estimate_work(&cfg);
        // Exact triangle count for comparison.
        let field = cfg.dataset.field(0, 0);
        let mut tris = Vec::new();
        isosurf::extract(&field, (0, 0, 0), cfg.iso, &mut tris);
        let exact = tris.len() as u64;
        assert!(
            est.triangles > exact / 3 && est.triangles < exact * 3,
            "estimate {} vs exact {exact}",
            est.triangles
        );
        assert_eq!(est.cells, cfg.dataset.layout().grid.cells());
        assert!(est.chunk_bytes > 0 && est.pixels > 0);
    }

    /// The probe skips a chunk the surface cannot cross instead of
    /// extracting it; the estimates are the ones a probe that extracted
    /// every probed chunk gave (pinned from it).
    #[test]
    fn probe_skips_missed_chunks_with_unchanged_estimates() {
        let (_, hosts) = rogue_cluster(2);
        for (iso, triangles, pixels) in [(0.3, 13136, 3952), (0.5, 3072, 808), (0.7, 0, 0)] {
            let mut c = AppConfig::new(dataset(), hosts.clone(), 2, 256, 256);
            c.iso = iso;
            let cfg: SharedConfig = Arc::new(c);
            let missed = (0..cfg.dataset.layout().count())
                .filter(|&i| !cfg.dataset.can_cross(0, 0, ChunkId(i), iso))
                .count();
            assert!(missed > 0, "iso {iso}: no chunk to skip");
            let est = estimate_work(&cfg);
            assert_eq!(
                (est.triangles, est.pixels),
                (triangles, pixels),
                "iso {iso}"
            );
        }
    }

    #[test]
    fn planner_picks_dd_on_heterogeneous_fast_network() {
        let (topo, rogues, blues) = rogue_blue_mix(2);
        // Load the rogues so capacities diverge.
        for &h in &rogues {
            topo.host(h).cpu.set_bg_jobs(8);
        }
        let mut hosts = rogues.clone();
        hosts.extend(&blues);
        let cfg = cfg_for(hosts.clone(), 256);
        let plan = plan(&topo, &cfg, &hosts);
        assert_eq!(plan.spec.policy.label(), "DD", "{}", plan.rationale);
    }

    #[test]
    fn planner_avoids_dd_on_slow_network_with_weighted_copies() {
        let (topo, reds, ds) = red_with_deathstar(2);
        let cfg = cfg_for(reds.clone(), 256);
        let mut compute = reds.clone();
        compute.push(ds);
        let plan = plan(&topo, &cfg, &compute);
        // Deathstar is behind Fast Ethernet: acks are expensive; copies
        // are uneven (8 cores vs 2) so WRR is the call.
        assert_eq!(plan.spec.policy.label(), "WRR", "{}", plan.rationale);
    }

    #[test]
    fn planner_prefers_moving_little_data() {
        // Compute hosts identical to storage: RE-Ra-M or RERa-M should
        // beat R-ERa-M (chunks outweigh triangles here).
        let (topo, hosts) = rogue_cluster(4);
        let cfg = cfg_for(hosts.clone(), 256);
        let p = plan(&topo, &cfg, &hosts);
        assert_ne!(p.spec.grouping.label(), "R-ERa-M", "{}", p.rationale);
    }

    #[test]
    fn planner_upgrades_serializing_merge_to_tile_group() {
        let (topo, hosts) = rogue_cluster(4);
        let mut c = AppConfig::new(dataset(), hosts.clone(), 2, 128, 128);
        c.iso = 0.5;
        // Make the single-sink fold dominate the makespan model.
        c.cost.merge_per_entry = 1.0e-3;
        let cfg: SharedConfig = Arc::new(c);
        let p = plan(&topo, &cfg, &hosts);
        assert_eq!(p.spec.grouping.label(), "RE-Ra-Mt-A", "{}", p.rationale);
        if let Grouping::TileComposite { merge, .. } = &p.spec.grouping {
            assert_eq!(merge.per_host.len(), TILE_MERGE_SETS);
        }
        let r = crate::run_pipeline(&topo, &cfg, &p.spec).unwrap();
        assert_eq!(r.image.diff_pixels(&crate::reference_image(&cfg)), 0);
    }

    #[test]
    fn planner_keeps_single_sink_when_merge_is_light() {
        // The default cost model's merge is cheap: no upgrade.
        let (topo, hosts) = rogue_cluster(4);
        let cfg = cfg_for(hosts.clone(), 256);
        let p = plan(&topo, &cfg, &hosts);
        assert_ne!(p.spec.grouping.label(), "RE-Ra-Mt-A", "{}", p.rationale);
    }

    #[test]
    fn planned_configuration_actually_runs_and_is_competitive() {
        let (topo, hosts) = rogue_cluster(4);
        let cfg = cfg_for(hosts.clone(), 256);
        let p = plan(&topo, &cfg, &hosts);
        let planned = crate::run_pipeline(&topo, &cfg, &p.spec).unwrap();
        assert_eq!(planned.image.diff_pixels(&crate::reference_image(&cfg)), 0);

        // Compare against a brute-force sweep of the standard choices: the
        // planner must land within 1.5x of the best.
        let mut best = f64::INFINITY;
        for grouping in [
            Grouping::RERaM,
            Grouping::RERaSplit {
                raster: Placement::one_per_host(&hosts),
            },
            Grouping::REraSplit {
                era: Placement::one_per_host(&hosts),
            },
        ] {
            for policy in [WritePolicy::RoundRobin, WritePolicy::demand_driven()] {
                let spec = PipelineSpec {
                    grouping: grouping.clone(),
                    algorithm: Algorithm::ActivePixel,
                    policy,
                    merge_host: hosts[0],
                };
                let r = crate::run_pipeline(&topo, &cfg, &spec).unwrap();
                best = best.min(r.elapsed.as_secs_f64());
            }
        }
        let planned_secs = planned.elapsed.as_secs_f64();
        assert!(
            planned_secs <= best * 1.5,
            "planned {planned_secs:.3}s vs best {best:.3}s — {}",
            p.rationale
        );
    }
}
