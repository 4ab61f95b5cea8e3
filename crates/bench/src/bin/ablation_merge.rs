//! **Ablation (the paper's §6)** — the merge bottleneck, and the
//! tile-owned merge group (`RE-Ra-Mt-A`) as its answer.
//!
//! "As the number of copies of other filters or the number of nodes
//! increases, the merge filter becomes a bottleneck." Each row renders
//! one setting twice under demand-driven routing: with the serial merge
//! (`RE-Ra-M`) and with the merge cut into a group of tile-owning `Mt`
//! copies, one per host, stitched by an assembler `A` on the merge host.
//! Raster placement is the same in both (one copy per host). The rows:
//!
//! * **raster-bound** (4 nodes, 1024²): the merge is light, so the group
//!   must cost at most 10 % over the serial merge;
//! * **merge-bound** (8 nodes, 2048², z-buffer): every raster copy ships
//!   a dense z-buffer, so the group must be at least 1.3× faster;
//! * **nodes** — the bottleneck as the node count grows (1024²): the
//!   z-buffer merge volume grows with the copies, the active-pixel one
//!   stays flat;
//! * **fig5** — the Fig. 5 mix (4 Rogue with 4 background jobs each +
//!   4 Blue, 2048², merge on a Blue);
//! * **table4** — Table 4's background load (8 Rogue, 16 jobs on 4 of
//!   them, 2048², merge on the last);
//! * **table5** — Table 5's compute node (Red storage nodes + the 8-way
//!   Deathstar running 7 more raster copies and the merge, 2048²).

use bench::{dc_avg, large_dataset, load_hosts, make_cfg, ExperimentScale, Table};
use datacutter::{Placement, WritePolicy};
use dcapp::{Algorithm, Grouping, PipelineResult, PipelineSpec};
use hetsim::presets::{red_with_deathstar, rogue_blue_mix, rogue_cluster};
use hetsim::{HostId, Topology};

const BOTH: &[Algorithm] = &[Algorithm::ZBuffer, Algorithm::ActivePixel];

/// A setting's cluster: topology, storage hosts and merge host.
fn cluster(setting: &str, nodes: usize) -> (Topology, Vec<HostId>, HostId) {
    match setting {
        "fig5" => {
            let (topo, rogues, blues) = rogue_blue_mix(nodes / 2);
            load_hosts(&topo, &rogues, 4);
            let mut hosts = rogues;
            hosts.extend(&blues);
            (topo, hosts, blues[0])
        }
        "table4" => {
            let (topo, hosts) = rogue_cluster(nodes);
            load_hosts(&topo, &hosts[..4], 16);
            let merge = hosts[nodes - 1];
            (topo, hosts, merge)
        }
        "table5" => {
            let (topo, reds, deathstar) = red_with_deathstar(nodes - 1);
            (topo, reds, deathstar)
        }
        _ => {
            let (topo, hosts) = rogue_cluster(nodes);
            let merge = hosts[0];
            (topo, hosts, merge)
        }
    }
}

/// Seconds of work of the run's last filter (`M`, or the assembler `A`).
fn last_filter_work(r: &PipelineResult) -> String {
    let last = *r.filters.last().unwrap();
    let work = r.report.copies_of(last)[0].counters.work;
    format!("{:.2}", work.as_secs_f64())
}

fn main() {
    let scale = ExperimentScale { timesteps: 1 };
    let ds = large_dataset();

    let mut t = Table::new(&[
        "regime",
        "nodes",
        "image",
        "alg",
        "serial (s)",
        "Mt-A (s)",
        "merge MB",
        "M work (s)",
        "A work (s)",
    ]);
    let mut raster_bound_worst = 0.0f64;
    let mut merge_bound_gain = 0.0f64;
    let rows: &[(&str, usize, u32, &[Algorithm])] = &[
        ("raster-bound", 4, 1024, BOTH),
        ("merge-bound", 8, 2048, &[Algorithm::ZBuffer]),
        ("nodes", 2, 1024, BOTH),
        ("nodes", 8, 1024, BOTH),
        ("nodes", 16, 1024, BOTH),
        ("fig5", 8, 2048, BOTH),
        ("table4", 8, 2048, BOTH),
        ("table5", 2, 2048, BOTH),
        ("table5", 9, 2048, BOTH),
    ];
    for &(regime, nodes, image, algs) in rows {
        for &alg in algs {
            let run = |tiled: bool| {
                let (topo, storage, merge_host) = cluster(regime, nodes);
                // One raster copy and one merge set per host; Table 5's
                // compute node runs seven more raster copies.
                let mut raster = Placement::one_per_host(&storage);
                let mut group = storage.clone();
                let mut disks = 2;
                if regime == "table5" {
                    raster.per_host.push((merge_host, 7));
                    group.push(merge_host);
                    disks = 1;
                }
                let cfg = make_cfg(ds.clone(), storage, disks, image);
                let grouping = if tiled {
                    Grouping::TileComposite {
                        raster,
                        merge: Placement::one_per_host(&group),
                    }
                } else {
                    Grouping::RERaSplit { raster }
                };
                let spec = PipelineSpec {
                    grouping,
                    algorithm: alg,
                    policy: WritePolicy::demand_driven(),
                    merge_host,
                };
                dc_avg(&topo, &cfg, &spec, scale)
            };
            let (serial_t, serial_r) = run(false);
            let (tiled_t, tiled_r) = run(true);
            if regime == "raster-bound" {
                raster_bound_worst = raster_bound_worst.max(tiled_t / serial_t);
            }
            if regime == "merge-bound" {
                merge_bound_gain = serial_t / tiled_t;
            }
            let r = &serial_r[0];
            t.row(vec![
                regime.into(),
                nodes.to_string(),
                image.to_string(),
                alg.label().into(),
                format!("{serial_t:.2}"),
                format!("{tiled_t:.2}"),
                format!(
                    "{:.1}",
                    r.report.stream(r.to_merge).total_bytes() as f64 / 1e6
                ),
                last_filter_work(r),
                last_filter_work(&tiled_r[0]),
            ]);
        }
    }
    t.print("Ablation: the merge bottleneck, serial merge vs tile-owned merge group (DD policy)");
    println!(
        "raster-bound: the merge group at most {raster_bound_worst:.2}x the serial time; \
         merge-bound: the merge group {merge_bound_gain:.2}x faster"
    );
    println!(
        "shape check (Mt-A <= 1.10x serial raster-bound, >= 1.3x faster merge-bound): {}",
        if raster_bound_worst <= 1.10 && merge_bound_gain >= 1.3 {
            "OK"
        } else {
            "CHECK"
        }
    );
}
