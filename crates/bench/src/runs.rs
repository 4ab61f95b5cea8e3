//! Shared run helpers for the experiment binaries.

use std::sync::Arc;

use dcapp::{AppConfig, PipelineResult, PipelineSpec, Render, SharedConfig};
use hetsim::{HostId, Topology};
use volume::Dataset;

use crate::datasets::{timesteps, ISO};

/// How much of each experiment to run (timesteps averaged per cell).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Timesteps averaged per experiment cell.
    pub timesteps: u32,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale {
            timesteps: timesteps(),
        }
    }
}

/// Build the standard experiment config: `dataset` striped across
/// `storage_hosts` with `disks_per_node` disks, rendered at
/// `image × image`.
pub fn make_cfg(
    dataset: Dataset,
    storage_hosts: Vec<HostId>,
    disks_per_node: u32,
    image: u32,
) -> SharedConfig {
    let mut cfg = AppConfig::new(dataset, storage_hosts, disks_per_node, image, image);
    cfg.iso = ISO;
    Arc::new(cfg)
}

/// Run the DataCutter pipeline once per timestep of the scale (a fresh
/// run each, as the paper clears caches between runs) and return the
/// average elapsed seconds (plus the per-timestep results).
pub fn dc_avg(
    topo: &Topology,
    cfg: &SharedConfig,
    spec: &PipelineSpec,
    scale: ExperimentScale,
) -> (f64, Vec<PipelineResult>) {
    let results: Vec<PipelineResult> = (0..scale.timesteps)
        .map(|t| {
            let mut c = dcapp::clone_config(cfg);
            c.timestep = t;
            Render::new(&Arc::new(c), spec)
                .go(topo)
                .expect("pipeline run failed")
        })
        .collect();
    let total: f64 = results.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    (total / results.len().max(1) as f64, results)
}

/// Run the ADR baseline over the scale's timesteps; average elapsed
/// seconds plus per-timestep results.
pub fn adr_avg(
    topo: &Topology,
    cfg: &SharedConfig,
    scale: ExperimentScale,
) -> (f64, Vec<adr::AdrResult>) {
    let results = adr::run_adr_timesteps(topo, cfg, 0..scale.timesteps).expect("ADR run failed");
    (adr::avg_elapsed_secs(&results), results)
}

/// Apply `jobs` background jobs to each host in `hosts`.
pub fn load_hosts(topo: &Topology, hosts: &[HostId], jobs: u32) {
    for &h in hosts {
        topo.host(h).cpu.set_bg_jobs(jobs);
    }
}
