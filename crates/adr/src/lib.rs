//! # adr — the Active Data Repository baseline
//!
//! A reproduction of the comparator system in the paper's Figures 4–5:
//! the Active Data Repository (ADR) [Chang et al., Ferreira et al.], a
//! "highly parallel framework ... designed to efficiently support parallel
//! applications that perform generalized reduction operations on a
//! homogeneous parallel computer or cluster".
//!
//! Faithful to the paper's characterization:
//!
//! * **SPMD with static partitioning** — each node processes exactly the
//!   chunks stored on its local disks; no work ever moves between nodes
//!   (the "key weakness ... the impact of static partitioning on load
//!   balance").
//! * **Tuned overlap** — per node, an I/O process prefetches chunks ahead
//!   of the compute process ("an optimal number of active asynchronous
//!   disk I/O calls"), so disk time hides behind computation.
//! * **Accumulator-based** — each node renders into a local z-buffer
//!   accumulator (the paper uses the Z-buffer algorithm for ADR "since
//!   Z-buffer better matches the programming model of ADR"), then
//!   accumulators are combined in a merge phase at the end.
//! * **No per-buffer stream overheads** — unlike the component framework,
//!   ADR moves no framing or acknowledgment traffic during processing.

#![warn(missing_docs)]

use std::sync::Arc;

use dcapp::SharedConfig;
use hetsim::{Env, SimDuration, SimError, SimTime, Simulation, Topology};
use isosurf::{Image, ZBuffer, BACKGROUND, EMPTY_DEPTH, ZBUF_ENTRY_WIRE_BYTES};
use parking_lot::Mutex;
use volume::RectGrid;

/// Prefetch depth of the per-node asynchronous I/O pipeline.
const IO_DEPTH: usize = 4;

/// Per-node statistics from an ADR run.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Chunks processed.
    pub chunks: u64,
    /// Triangles extracted.
    pub triangles: u64,
    /// Pixels generated.
    pub pixels: u64,
    /// Virtual time the compute process finished local rendering.
    pub local_done: SimDuration,
}

/// Result of one ADR unit of work.
pub struct AdrResult {
    /// End-to-end virtual time.
    pub elapsed: SimDuration,
    /// The rendered image.
    pub image: Image,
    /// Per-node statistics, indexed like `cfg.storage_hosts`.
    pub nodes: Vec<NodeStats>,
}

/// Execute one rendering (one timestep) under the ADR model on `topo`.
/// The nodes are `cfg.storage_hosts`; the final image is assembled on the
/// first node.
pub fn run_adr(topo: &Topology, cfg: &SharedConfig) -> Result<AdrResult, SimError> {
    assert!(!cfg.storage_hosts.is_empty(), "ADR needs at least one node");
    let mut sim = Simulation::new();
    let waker = sim.waker();
    let n = cfg.storage_hosts.len();
    let merge_host = cfg.storage_hosts[0];

    let stats: Vec<Arc<Mutex<NodeStats>>> = (0..n)
        .map(|_| Arc::new(Mutex::new(NodeStats::default())))
        .collect();
    let image_slot: Arc<Mutex<Option<Image>>> = Arc::new(Mutex::new(None));

    // Accumulator inboxes for the tree reduction: in round `r`, node
    // `i + 2^r` ships its accumulator to node `i` (for `i % 2^(r+1) == 0`),
    // which folds it — the standard tuned parallel reduction, log2(n)
    // rounds with pairwise transfers in parallel.
    let mut inbox_txs = Vec::with_capacity(n);
    let mut inbox_rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = hetsim::channel::<ZBuffer>(waker.clone(), 1);
        inbox_txs.push(tx);
        inbox_rxs.push(Some(rx));
    }

    for (i, &host) in cfg.storage_hosts.iter().enumerate() {
        // I/O process: prefetch local chunks ahead of the compute process.
        let (io_tx, io_rx) =
            hetsim::channel::<((u32, u32, u32), RectGrid)>(waker.clone(), IO_DEPTH);
        let cfg2 = cfg.clone();
        let topo2 = topo.clone();
        sim.spawn(format!("adr-io{i}"), move |env: Env| {
            let h = topo2.host(host);
            let selected = cfg2.selected_chunks();
            'files: for (file, disk) in cfg2.files_for_node(i) {
                let mut sequential = false;
                for &chunk in cfg2.dataset.chunks_in_file(file) {
                    if !selected.contains(&chunk) {
                        sequential = false;
                        continue;
                    }
                    let bytes = cfg2.dataset.chunk_bytes(chunk);
                    let d = &h.disks[disk as usize % h.disks.len()];
                    if sequential {
                        d.read_seq(&env, bytes);
                    } else {
                        d.read(&env, bytes);
                    }
                    sequential = true;
                    let info = cfg2.dataset.chunk_info(chunk);
                    let grid = cfg2.dataset.read_chunk(cfg2.species, cfg2.timestep, chunk);
                    if io_tx.send(&env, (info.cell_origin, grid)).is_err() {
                        break 'files;
                    }
                }
            }
        });

        // Compute process: extract + raster into the local accumulator,
        // then join the tree reduction.
        let cfg2 = cfg.clone();
        let topo2 = topo.clone();
        let stats2 = stats[i].clone();
        let my_inbox = inbox_rxs[i].take().expect("inbox taken once");
        let all_tx = inbox_txs.clone();
        let hosts: Vec<hetsim::HostId> = cfg.storage_hosts.clone();
        let image_slot2 = image_slot.clone();
        sim.spawn(format!("adr-node{i}"), move |env: Env| {
            let cpu = topo2.host(host).cpu.clone();
            let proj = cfg2.camera.projector();
            let (w, h) = (cfg2.camera.width, cfg2.camera.height);
            let mut zb = ZBuffer::new(w, h);
            let mut tris = Vec::new();
            while let Some((origin, grid)) = io_rx.recv(&env) {
                cpu.compute(&env, cfg2.cost.read_cost(12 + grid.dims.byte_size()));
                tris.clear();
                let ex = isosurf::extract(&grid, origin, cfg2.iso, &mut tris);
                cpu.compute(&env, cfg2.cost.extract_cost(ex.cells, tris.len() as u64));
                let pixels =
                    isosurf::raster_batch(&proj, w, h, &cfg2.material, &tris, |x, y, d, rgb| {
                        zb.plot(x, y, d, rgb);
                    });
                cpu.compute(&env, cfg2.cost.raster_cost(tris.len() as u64, pixels));
                let mut s = stats2.lock();
                s.chunks += 1;
                s.triangles += tris.len() as u64;
                s.pixels += pixels;
            }
            stats2.lock().local_done = env.now() - SimTime::ZERO;

            // Tree reduction of accumulators: pairwise, log2(n) rounds.
            let nn = hosts.len();
            let mut step = 1usize;
            while step < nn {
                if i % (2 * step) == 0 {
                    let partner = i + step;
                    if partner < nn {
                        let other = my_inbox.recv(&env).expect("partner sends accumulator");
                        let entries = other.depth.len() as u64;
                        for k in 0..other.depth.len() {
                            if other.depth[k] != EMPTY_DEPTH && other.depth[k] < zb.depth[k] {
                                zb.depth[k] = other.depth[k];
                                zb.color[k] = other.color[k];
                            }
                        }
                        cpu.compute(&env, cfg2.cost.merge_cost(entries));
                    }
                } else {
                    // Sender: ship the whole (dense) accumulator and leave.
                    let dst = i - step;
                    let bytes = zb.depth.len() as u64 * ZBUF_ENTRY_WIRE_BYTES;
                    topo2.transfer(&env, host, hosts[dst], bytes);
                    let _ = all_tx[dst].send(&env, zb);
                    return;
                }
                step *= 2;
            }
            debug_assert_eq!(i, 0);
            let _ = merge_host;
            *image_slot2.lock() = Some(zb.to_image(BACKGROUND));
        });
    }
    drop(inbox_txs);
    drop(inbox_rxs);

    let run = sim.run()?;
    let image = image_slot.lock().take().expect("merge produced an image");
    Ok(AdrResult {
        elapsed: run.end_time - SimTime::ZERO,
        image,
        nodes: stats.iter().map(|s| s.lock().clone()).collect(),
    })
}

/// Run `timesteps` consecutive timesteps (fresh simulation each, like the
/// paper's cache-cleared runs).
pub fn run_adr_timesteps(
    topo: &Topology,
    cfg: &SharedConfig,
    timesteps: std::ops::Range<u32>,
) -> Result<Vec<AdrResult>, SimError> {
    let mut out = Vec::new();
    for t in timesteps {
        let mut c = dcapp::clone_config(cfg);
        c.timestep = t;
        out.push(run_adr(topo, &Arc::new(c))?);
    }
    Ok(out)
}

/// Average elapsed seconds of a result set.
pub fn avg_elapsed_secs(results: &[AdrResult]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(|r| r.elapsed.as_secs_f64()).sum::<f64>() / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcapp::AppConfig;
    use hetsim::presets::rogue_cluster;
    use volume::{Dataset, Dims};

    fn setup(nodes: usize) -> (Topology, SharedConfig) {
        let (topo, hosts) = rogue_cluster(nodes);
        let ds = Dataset::generate(Dims::new(25, 25, 25), (2, 2, 2), 8, 11);
        let cfg = AppConfig::new(ds, hosts, 2, 96, 96);
        (topo, Arc::new(cfg))
    }

    #[test]
    fn adr_matches_reference_image() {
        for nodes in [1usize, 2, 4] {
            let (topo, cfg) = setup(nodes);
            let r = run_adr(&topo, &cfg).unwrap();
            let reference = dcapp::reference_image(&cfg);
            assert_eq!(r.image.diff_pixels(&reference), 0, "{nodes} nodes");
        }
    }

    #[test]
    fn adr_scales_with_nodes() {
        let (topo1, cfg1) = setup(1);
        let (topo4, cfg4) = setup(4);
        let t1 = run_adr(&topo1, &cfg1).unwrap().elapsed;
        let t4 = run_adr(&topo4, &cfg4).unwrap().elapsed;
        assert!(
            t4.as_secs_f64() < t1.as_secs_f64() * 0.6,
            "4 nodes ({t4}) should be well under 1 node ({t1})"
        );
    }

    #[test]
    fn adr_static_partition_suffers_under_load() {
        // Load up half the nodes; ADR cannot shift work, so the run is
        // dominated by the loaded nodes. Inflate compute costs so the run
        // is CPU-bound (at full experiment scale it is; the unit-test
        // dataset alone would be seek-dominated).
        let compute_heavy = |(topo, cfg): (Topology, SharedConfig)| {
            let mut c = dcapp::clone_config(&cfg);
            c.cost.extract_per_cell *= 100.0;
            c.cost.raster_per_pixel *= 100.0;
            c.cost.raster_per_tri *= 100.0;
            (topo, Arc::new(c))
        };
        let (topo, cfg) = compute_heavy(setup(4));
        let base = run_adr(&topo, &cfg).unwrap().elapsed;
        let (topo_l, cfg_l) = compute_heavy(setup(4));
        for &h in &cfg_l.storage_hosts[..2] {
            topo_l.host(h).cpu.set_bg_jobs(4);
        }
        let loaded = run_adr(&topo_l, &cfg_l).unwrap().elapsed;
        assert!(
            loaded.as_secs_f64() > base.as_secs_f64() * 2.0,
            "loaded {loaded} vs base {base}"
        );
    }

    #[test]
    fn node_stats_cover_all_chunks() {
        let (topo, cfg) = setup(2);
        let r = run_adr(&topo, &cfg).unwrap();
        let total: u64 = r.nodes.iter().map(|n| n.chunks).sum();
        assert_eq!(total, 8);
        assert!(r.nodes.iter().all(|n| n.triangles > 0));
    }

    #[test]
    fn timesteps_run_independently() {
        let (topo, cfg) = setup(2);
        let rs = run_adr_timesteps(&topo, &cfg, 0..3).unwrap();
        assert_eq!(rs.len(), 3);
        assert!(avg_elapsed_secs(&rs) > 0.0);
    }
}
