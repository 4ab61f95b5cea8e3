//! Automatic configuration: let the planner simulate every candidate
//! grouping × policy × merge host on a loaded heterogeneous cluster, pick
//! the fastest, then run the pick and check its image.
//!
//! ```text
//! cargo run --release -p examples --bin autoplan
//! ```

use std::sync::Arc;

use dcapp::{AppConfig, Render};
use hetsim::presets::rogue_blue_mix;
use volume::{Dataset, Dims};

fn main() {
    // A heterogeneous, loaded cluster: 2 busy Rogue + 2 idle Blue nodes.
    let (topo, rogues, blues) = rogue_blue_mix(2);
    for &h in &rogues {
        topo.host(h).cpu.set_bg_jobs(6);
    }
    let mut hosts = rogues.clone();
    hosts.extend(&blues);

    let dataset = Dataset::generate(Dims::new(49, 49, 97), (4, 4, 8), 64, 31);
    let mut cfg = AppConfig::new(dataset, hosts.clone(), 2, 512, 512);
    cfg.iso = 0.5;
    let cfg = Arc::new(cfg);

    let plan = dcapp::plan(&topo, &cfg, &hosts).expect("plan");
    println!("simulated seconds per candidate:");
    for (label, secs) in &plan.candidates {
        println!("  {label:>28}: {secs:.3}s");
    }
    println!("planner: {}", plan.rationale);

    let planned = Render::new(&cfg, &plan.spec).go(&topo).expect("run");
    println!(
        "planned [{} + {}]: {:.3}s measured",
        plan.spec.grouping.label(),
        plan.spec.policy.label(),
        planned.elapsed.as_secs_f64()
    );
    assert_eq!(
        planned.image().diff_pixels(&dcapp::reference_image(&cfg)),
        0,
        "planned == sequential"
    );
    println!("image matches the sequential reference");
}
