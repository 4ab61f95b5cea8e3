//! Quickstart: render one timestep of a synthetic reactive-transport
//! dataset through the RE–Ra–M DataCutter pipeline on a 4-node emulated
//! cluster, and save the image.
//!
//! ```text
//! cargo run --release -p examples --bin quickstart
//! ```

use std::sync::Arc;

use datacutter::{Placement, WritePolicy};
use dcapp::{Algorithm, AppConfig, Grouping, PipelineSpec, Render};
use hetsim::presets::rogue_cluster;
use volume::{Dataset, Dims};

fn main() {
    // 1. An emulated 4-node cluster (Rogue-like: 1 CPU, 2 disks, Fast
    //    Ethernet per node).
    let (topo, hosts) = rogue_cluster(4);

    // 2. A synthetic dataset: 48^3 cells, 64 sub-volumes, Hilbert-
    //    declustered over 64 files striped across the 4 nodes.
    let dataset = Dataset::generate(Dims::new(49, 49, 49), (4, 4, 4), 64, 42);
    let mut cfg = AppConfig::new(dataset, hosts.clone(), 2, 512, 512);
    cfg.iso = 0.5;
    let cfg = Arc::new(cfg);

    // 3. The pipeline: read+extract on every data node, one raster copy
    //    per node, demand-driven buffer scheduling, merge on node 0.
    let spec = PipelineSpec {
        grouping: Grouping::RERaSplit {
            raster: Placement::one_per_host(&hosts),
        },
        algorithm: Algorithm::ActivePixel,
        policy: WritePolicy::demand_driven(),
        merge_host: hosts[0],
    };

    // 4. Run one unit of work (one timestep).
    let result = Render::new(&cfg, &spec).go(&topo).expect("pipeline run");

    println!(
        "rendered {}x{} image in {:.3} virtual seconds ({} engine events)",
        cfg.camera.width,
        cfg.camera.height,
        result.elapsed.as_secs_f64(),
        result.report.events
    );
    for copy in &result.report.copies {
        let c = &copy.counters;
        println!(
            "  {:>4} copy {} on host {:>2}: in {:>4} bufs / out {:>4} bufs, work {:>8.4}s, stalled {:>8.4}s",
            copy.filter_name,
            copy.copy_index,
            copy.host.0,
            c.buffers_in,
            c.buffers_out,
            c.work.as_secs_f64(),
            (c.read_wait + c.write_wait).as_secs_f64(),
        );
    }

    // 5. Check against the sequential reference renderer and save.
    let reference = dcapp::reference_image(&cfg);
    assert_eq!(
        result.image().diff_pixels(&reference),
        0,
        "distributed == sequential"
    );
    let path = examples::out_dir().join("quickstart.ppm");
    result.image().save_ppm(&path).expect("write image");
    println!(
        "image matches the sequential reference; saved to {}",
        path.display()
    );
}
