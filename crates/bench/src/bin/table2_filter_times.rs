//! **Table 2** — processing times for the isosurface rendering filters.
//!
//! Same setup as Table 1: four isolated filters on four hosts, small
//! dataset, 2048×2048 image. We report the per-filter *work* (CPU seconds
//! charged on a dedicated reference-speed core), which is what the paper's
//! per-filter processing times measure.

use bench::{make_cfg, small_dataset, Table};
use datacutter::{Placement, WritePolicy};
use dcapp::{Algorithm, Grouping, PipelineSpec, Render};
use hetsim::presets::rogue_cluster;
use volume::FilePlacement;

fn main() {
    let (topo, hosts) = rogue_cluster(4);
    let cfg = {
        let base = make_cfg(small_dataset(), vec![hosts[0]], 2, 2048);
        let mut c = dcapp::clone_config(&base);
        c.placement = FilePlacement::balanced(64, 1, 2);
        std::sync::Arc::new(c)
    };

    let mut t = Table::new(&["algorithm", "R", "E", "Ra", "M", "sum"]);
    let mut ra_work = [0.0f64; 2];
    let mut e_work = [0.0f64; 2];
    for (k, alg) in [Algorithm::ZBuffer, Algorithm::ActivePixel]
        .into_iter()
        .enumerate()
    {
        let spec = PipelineSpec {
            grouping: Grouping::FourStage {
                extract: Placement::on_host(hosts[1], 1),
                raster: Placement::on_host(hosts[2], 1),
            },
            algorithm: alg,
            policy: WritePolicy::RoundRobin,
            merge_host: hosts[3],
        };
        let r = Render::new(&cfg, &spec).go(&topo).expect("run failed");
        let works: Vec<f64> = r
            .filters
            .iter()
            .map(|&f| r.report.filter_work(f).as_secs_f64())
            .collect();
        ra_work[k] = works[2];
        e_work[k] = works[1];
        t.row(vec![
            alg.label().to_string(),
            format!("{:.3}", works[0]),
            format!("{:.3}", works[1]),
            format!("{:.3}", works[2]),
            format!("{:.3}", works[3]),
            format!("{:.3}", works.iter().sum::<f64>()),
        ]);
    }
    t.print("Table 2: filter processing times (CPU work, seconds) — R-E-Ra-M, 2048x2048");

    println!("paper shape: Ra is by far the most expensive filter, E second");
    for k in 0..2 {
        assert!(
            ra_work[k] > 3.0 * e_work[k],
            "raster should dominate: Ra={} E={}",
            ra_work[k],
            e_work[k]
        );
    }
    println!("shape check: OK");
}
