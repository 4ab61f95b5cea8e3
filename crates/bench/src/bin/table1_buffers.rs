//! **Table 1** — number of buffers and data volume (MB) transferred
//! between filters for the Z-buffer and Active Pixel implementations.
//!
//! Setup (paper §4.1): the four filters isolated, each on its own host,
//! pipeline fashion, small dataset, 2048×2048 output image.

use bench::{make_cfg, small_dataset, Table};
use datacutter::{Placement, WritePolicy};
use dcapp::{Algorithm, Grouping, PipelineSpec, Render};
use hetsim::presets::rogue_cluster;
use volume::FilePlacement;

fn main() {
    let (topo, hosts) = rogue_cluster(4);
    // All data on host 0; E, Ra, M on hosts 1, 2, 3.
    let cfg = {
        let base = make_cfg(small_dataset(), vec![hosts[0]], 2, 2048);
        let mut c = dcapp::clone_config(&base);
        c.placement = FilePlacement::balanced(64, 1, 2);
        std::sync::Arc::new(c)
    };

    let run = |alg: Algorithm| {
        let spec = PipelineSpec {
            grouping: Grouping::FourStage {
                extract: Placement::on_host(hosts[1], 1),
                raster: Placement::on_host(hosts[2], 1),
            },
            algorithm: alg,
            policy: WritePolicy::RoundRobin,
            merge_host: hosts[3],
        };
        Render::new(&cfg, &spec).go(&topo).expect("run failed")
    };

    let zb = run(Algorithm::ZBuffer);
    let ap = run(Algorithm::ActivePixel);

    let mut t = Table::new(&["stream", "ZB #bufs", "ZB MB", "AP #bufs", "AP MB"]);
    for (i, label) in ["R->E", "E->Ra", "Ra->M"].iter().enumerate() {
        let sid = datacutter::StreamId(i as u32);
        let (z, a) = (zb.report.stream(sid), ap.report.stream(sid));
        t.row(vec![
            label.to_string(),
            z.total_buffers().to_string(),
            format!("{:.1}", z.total_bytes() as f64 / 1e6),
            a.total_buffers().to_string(),
            format!("{:.1}", a.total_bytes() as f64 / 1e6),
        ]);
    }
    t.print("Table 1: buffers and data volume between filters (R-E-Ra-M, 2048x2048)");

    println!(
        "paper shape: identical R->E and E->Ra; Ra->M has FEW large buffers under \
         Z-buffer vs MANY small buffers (lower total MB) under Active Pixel"
    );
    let sid = datacutter::StreamId(2);
    let zbm = zb.report.stream(sid);
    let apm = ap.report.stream(sid);
    assert!(
        apm.total_buffers() > zbm.total_buffers(),
        "AP should send more Ra->M buffers"
    );
    assert!(
        apm.total_bytes() < zbm.total_bytes(),
        "AP should move fewer Ra->M bytes"
    );
    println!("shape check: OK");
}
