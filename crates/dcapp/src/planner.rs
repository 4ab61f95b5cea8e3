//! Automatic configuration: choosing the filter grouping, writer policy
//! and merge host for a given cluster and dataset.
//!
//! The paper leaves these decisions to the application developer and
//! notes (footnote 1) that the authors "are in the process of examining
//! various mechanisms to automate some of these steps". This module is
//! that mechanism, and its cost model is the simulator's: [`plan`] runs
//! every candidate once on [`SimExecutor`](datacutter::SimExecutor),
//! charged by the same [`CostModel`](crate::CostModel) as any experiment,
//! and returns the one with the least simulated elapsed time. The paper's
//! §6 guidance (demand driven on a heterogeneous fast network, the
//! grouping that moves little data) is asserted of the simulated
//! outcomes in the tests below, not written as rules.

use datacutter::{Placement, RunError, WritePolicy};
use hetsim::{HostId, Topology};

use crate::config::{Algorithm, SharedConfig};
use crate::experiment::Render;
use crate::pipeline::{Grouping, PipelineSpec};

/// Merge copy sets of the tile-composite candidate: one set per host, on
/// the first compute hosts in the caller's order (fewer when fewer exist).
const TILE_MERGE_SETS: usize = 4;

/// A planned configuration and the sweep that chose it.
pub struct Plan {
    /// The chosen pipeline.
    pub spec: PipelineSpec,
    /// Simulated elapsed seconds of the chosen pipeline.
    pub estimate_secs: f64,
    /// Every candidate in enumeration order: `(label, simulated seconds)`.
    pub candidates: Vec<(String, f64)>,
    /// The pick and the size of the sweep, in one line.
    pub rationale: String,
}

/// Every configuration [`plan`] weighs, in enumeration order: grouping
/// (`RERa-M`, `RE-Ra-M`, `R-ERa-M`, `RE-Ra-Mt-A`), then policy (RR, WRR,
/// DD), then merge host. The split groupings run one copy per core on
/// each compute host. `RERa-M` skips WRR: its one consumer, the merge, is
/// a single copy set, over which WRR deals exactly as RR does (DD can
/// still differ: it acknowledges every buffer).
fn candidates(topo: &Topology, compute_hosts: &[HostId]) -> Vec<PipelineSpec> {
    let per_core = Placement {
        per_host: compute_hosts
            .iter()
            .map(|&h| (h, topo.host(h).cpu.cores()))
            .collect(),
    };
    let tile_hosts = &compute_hosts[..compute_hosts.len().min(TILE_MERGE_SETS)];
    let groupings = [
        Grouping::RERaM,
        Grouping::RERaSplit {
            raster: per_core.clone(),
        },
        Grouping::REraSplit {
            era: per_core.clone(),
        },
        Grouping::TileComposite {
            raster: per_core,
            merge: Placement::one_per_host(tile_hosts),
        },
    ];
    let policies = [
        WritePolicy::RoundRobin,
        WritePolicy::WeightedRoundRobin,
        WritePolicy::demand_driven(),
    ];
    let mut specs = Vec::new();
    for grouping in &groupings {
        let fused = matches!(grouping, Grouping::RERaM);
        for policy in policies {
            if fused && policy == WritePolicy::WeightedRoundRobin {
                continue;
            }
            for &merge_host in compute_hosts {
                specs.push(PipelineSpec {
                    grouping: grouping.clone(),
                    algorithm: Algorithm::ActivePixel,
                    policy,
                    merge_host,
                });
            }
        }
    }
    specs
}

/// A candidate's row in [`Plan::candidates`], e.g. `RE-Ra-M + DD merge@h2`.
fn label(spec: &PipelineSpec) -> String {
    format!(
        "{} + {} merge@h{}",
        spec.grouping.label(),
        spec.policy.label(),
        spec.merge_host.0
    )
}

/// Choose grouping, policy and merge host for rendering `cfg` on `topo`,
/// with data on `cfg.storage_hosts` and `compute_hosts` available for the
/// raster stage (they may overlap storage): simulate every candidate and
/// keep the fastest, the first in enumeration order of equals.
///
/// Fails with [`RunError::Unsupported`] when `compute_hosts` is empty,
/// and with a candidate's own error when one cannot run.
pub fn plan(
    topo: &Topology,
    cfg: &SharedConfig,
    compute_hosts: &[HostId],
) -> Result<Plan, RunError> {
    if compute_hosts.is_empty() {
        return Err(RunError::Unsupported {
            what: "planning needs at least one compute host".into(),
        });
    }
    let mut specs = candidates(topo, compute_hosts);
    let mut table = Vec::with_capacity(specs.len());
    // Every candidate shares `cfg`: its one lazily built state, the
    // selected-chunk set, depends only on the query.
    for spec in &specs {
        let secs = Render::new(cfg, spec).go(topo)?.elapsed.as_secs_f64();
        table.push((label(spec), secs));
    }
    // The fastest; `min_by` keeps the first of equals.
    let pick = (0..table.len())
        .min_by(|&a, &b| table[a].1.total_cmp(&table[b].1))
        .unwrap_or(0);
    let secs = table[pick].1;
    let rationale = format!(
        "{}: {secs:.3} s simulated, the least of {} candidates",
        table[pick].0,
        table.len()
    );
    Ok(Plan {
        spec: specs.swap_remove(pick),
        estimate_secs: secs,
        candidates: table,
        rationale,
    })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::config::AppConfig;
    use crate::experiment::reference_image;
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

    /// The least simulated seconds over the planner's grid, swept here
    /// with `Render` alone, independently of [`candidates`], and
    /// with `RERa-M` under WRR too, which the planner skips as RR's twin.
    fn swept_best(topo: &Topology, cfg: &SharedConfig, compute: &[HostId]) -> f64 {
        let per_core = Placement {
            per_host: compute
                .iter()
                .map(|&h| (h, topo.host(h).cpu.cores()))
                .collect(),
        };
        let tile_hosts: Vec<HostId> = compute.iter().copied().take(4).collect();
        let mut best = f64::INFINITY;
        for grouping in [
            Grouping::RERaM,
            Grouping::RERaSplit {
                raster: per_core.clone(),
            },
            Grouping::REraSplit {
                era: per_core.clone(),
            },
            Grouping::TileComposite {
                raster: per_core.clone(),
                merge: Placement::one_per_host(&tile_hosts),
            },
        ] {
            for policy in [
                WritePolicy::RoundRobin,
                WritePolicy::WeightedRoundRobin,
                WritePolicy::demand_driven(),
            ] {
                for &merge_host in compute {
                    let spec = PipelineSpec {
                        grouping: grouping.clone(),
                        algorithm: Algorithm::ActivePixel,
                        policy,
                        merge_host,
                    };
                    let r = Render::new(cfg, &spec).go(topo).unwrap();
                    best = best.min(r.elapsed.as_secs_f64());
                }
            }
        }
        best
    }

    /// The plan's pick is the simulated best of the grid, and it renders
    /// the sequential reference.
    fn assert_simulated_best(topo: &Topology, cfg: &SharedConfig, compute: &[HostId]) -> Plan {
        let p = plan(topo, cfg, compute).unwrap();
        assert_eq!(p.candidates.len(), 11 * compute.len());
        assert_eq!(
            p.estimate_secs,
            swept_best(topo, cfg, compute),
            "{}",
            p.rationale
        );
        let r = crate::Render::new(cfg, &p.spec).go(topo).unwrap();
        assert_eq!(
            r.image().diff_pixels(&reference_image(cfg)),
            0,
            "{}",
            p.rationale
        );
        p
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
        let plan = plan(&topo, &cfg, &hosts).unwrap();
        assert_eq!(plan.spec.policy.label(), "DD", "{}", plan.rationale);
    }

    /// Table 5's two-Red setting: the paper finds WRR best there because
    /// acks are costly over the compute node's Fast Ethernet uplink, but
    /// the simulator's best moves chunks to the compute node (R-ERa-M).
    #[test]
    fn planner_takes_simulated_best_over_slow_uplink() {
        let (topo, reds, ds) = red_with_deathstar(2);
        let cfg = cfg_for(reds.clone(), 256);
        let mut compute = reds.clone();
        compute.push(ds);
        let p = assert_simulated_best(&topo, &cfg, &compute);
        assert_eq!(p.spec.grouping.label(), "R-ERa-M", "{}", p.rationale);
    }

    #[test]
    fn planner_prefers_moving_little_data() {
        // Compute hosts identical to storage: RE-Ra-M or RERa-M should
        // beat R-ERa-M (chunks outweigh triangles here).
        let (topo, hosts) = rogue_cluster(4);
        let cfg = cfg_for(hosts.clone(), 256);
        let p = plan(&topo, &cfg, &hosts).unwrap();
        assert_ne!(p.spec.grouping.label(), "R-ERa-M", "{}", p.rationale);
    }

    /// A merge made costly enough to dominate: the tile group is one
    /// candidate among the rest, picked only if the simulator says so.
    #[test]
    fn planner_takes_simulated_best_under_heavy_merge() {
        let (topo, hosts) = rogue_cluster(4);
        let mut c = AppConfig::new(dataset(), hosts.clone(), 2, 128, 128);
        c.iso = 0.5;
        c.cost.merge_per_entry = 1.0e-3;
        let cfg: SharedConfig = Arc::new(c);
        assert_simulated_best(&topo, &cfg, &hosts);
    }

    #[test]
    fn planner_keeps_single_sink_when_merge_is_light() {
        // The default cost model's merge is cheap: no upgrade.
        let (topo, hosts) = rogue_cluster(4);
        let cfg = cfg_for(hosts.clone(), 256);
        let p = plan(&topo, &cfg, &hosts).unwrap();
        assert_ne!(p.spec.grouping.label(), "RE-Ra-Mt-A", "{}", p.rationale);
    }

    #[test]
    fn planned_configuration_actually_runs_and_is_competitive() {
        let (topo, hosts) = rogue_cluster(4);
        let cfg = cfg_for(hosts.clone(), 256);
        assert_simulated_best(&topo, &cfg, &hosts);
    }

    #[test]
    fn planner_takes_simulated_best_on_loaded_heterogeneous_mix() {
        let (topo, rogues, blues) = rogue_blue_mix(2);
        for &h in &rogues {
            topo.host(h).cpu.set_bg_jobs(8);
        }
        let mut hosts = rogues.clone();
        hosts.extend(&blues);
        assert_simulated_best(&topo, &cfg_for(hosts.clone(), 256), &hosts);
    }

    /// `dcrender --plan` with no other flag: 64³ cells, 512² pixels.
    #[test]
    fn planner_takes_simulated_best_on_dcrender_defaults() {
        let (topo, hosts) = rogue_cluster(4);
        let ds = Dataset::generate(Dims::new(65, 65, 65), (4, 4, 4), 64, 42);
        let mut c = AppConfig::new(ds, hosts.clone(), 2, 512, 512);
        c.iso = 0.5;
        assert_simulated_best(&topo, &Arc::new(c), &hosts);
    }

    #[test]
    fn planning_without_compute_hosts_is_unsupported() {
        let (topo, hosts) = rogue_cluster(2);
        let cfg = cfg_for(hosts, 64);
        assert!(matches!(
            plan(&topo, &cfg, &[]),
            Err(RunError::Unsupported { .. })
        ));
    }
}
