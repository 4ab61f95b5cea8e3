//! Heterogeneity demo: half the cluster is busy with background jobs.
//! Compare round-robin and demand-driven buffer scheduling, and inspect
//! where the buffers actually went.
//!
//! ```text
//! cargo run --release -p examples --bin heterogeneous_cluster
//! ```

use std::sync::Arc;

use datacutter::{Placement, WritePolicy};
use dcapp::{Algorithm, AppConfig, Grouping, PipelineSpec, Render};
use hetsim::presets::rogue_blue_mix;
use volume::{Dataset, Dims};

fn main() {
    let dataset = Dataset::generate(Dims::new(49, 49, 97), (4, 4, 8), 64, 7);

    for bg in [0u32, 8] {
        println!("\n--- {} background jobs on each Rogue node ---", bg);
        for policy in [WritePolicy::RoundRobin, WritePolicy::demand_driven()] {
            // 2 loaded Rogue + 2 dedicated Blue nodes.
            let (topo, rogues, blues) = rogue_blue_mix(2);
            for &h in &rogues {
                topo.host(h).cpu.set_bg_jobs(bg);
            }
            let mut hosts = rogues.clone();
            hosts.extend(&blues);
            let mut cfg = AppConfig::new(dataset.clone(), hosts.clone(), 2, 512, 512);
            cfg.iso = 0.5;
            let cfg = Arc::new(cfg);

            let spec = PipelineSpec {
                grouping: Grouping::RERaSplit {
                    raster: Placement::one_per_host(&hosts),
                },
                algorithm: Algorithm::ActivePixel,
                policy,
                merge_host: blues[0],
            };
            let r = Render::new(&cfg, &spec).go(&topo).expect("run");
            let stream = r.to_raster.expect("raster stream");
            let per_set: Vec<String> = r
                .report
                .stream(stream)
                .copysets
                .iter()
                .map(|(h, c)| format!("h{}:{}", h.0, c.buffers_received))
                .collect();
            println!(
                "  {:>3}: {:>7.3}s   buffers per raster copy set: {}",
                policy.label(),
                r.elapsed.as_secs_f64(),
                per_set.join("  ")
            );
            if bg > 0 && policy.label() == "DD" {
                println!("       host utilization:");
                for u in topo.utilization(r.elapsed) {
                    println!("       {u}");
                }
            }
        }
    }
    println!(
        "\nWith load, DD routes triangle buffers toward the dedicated (Blue) \
         nodes and finishes sooner; RR splits evenly and waits for the slow nodes."
    );
}
