//! ADR baseline vs the component framework: identical output, and the
//! relative performance behaviours Figures 4–5 rest on.

use datacutter::{Placement, WritePolicy};
use dcapp::{Algorithm, Grouping, PipelineSpec, Render};
use integration_tests::{cluster, test_cfg, test_dataset};

fn dc_spec(hosts: &[hetsim::HostId], alg: Algorithm) -> PipelineSpec {
    PipelineSpec {
        grouping: Grouping::RERaSplit {
            raster: Placement::one_per_host(hosts),
        },
        algorithm: alg,
        policy: WritePolicy::demand_driven(),
        merge_host: hosts[0],
    }
}

#[test]
fn adr_and_datacutter_render_identical_images() {
    for nodes in [1usize, 2, 3, 4] {
        let (topo, hosts) = cluster(nodes);
        let cfg = test_cfg(test_dataset(20), hosts.clone(), 96);
        let a = adr::run_adr(&topo, &cfg).unwrap();
        let d = Render::new(&cfg, &dc_spec(&hosts, Algorithm::ActivePixel))
            .go(&topo)
            .unwrap();
        assert_eq!(a.image.diff_pixels(d.image()), 0, "{nodes} nodes");
    }
}

#[test]
fn adr_tree_merge_handles_odd_node_counts() {
    for nodes in [3usize, 5, 6, 7] {
        let (topo, hosts) = cluster(nodes);
        let cfg = test_cfg(test_dataset(21), hosts.clone(), 64);
        let a = adr::run_adr(&topo, &cfg).unwrap();
        assert_eq!(
            a.image.diff_pixels(&dcapp::reference_image(&cfg)),
            0,
            "{nodes} nodes"
        );
        let total: u64 = a.nodes.iter().map(|n| n.chunks).sum();
        assert_eq!(total, 36);
    }
}

#[test]
fn datacutter_degrades_less_than_adr_under_load() {
    // The Figure 5 core claim, as an invariant at test scale.
    let run = |bg: u32| {
        let (topo, hosts) = cluster(4);
        for &h in &hosts[..2] {
            topo.host(h).cpu.set_bg_jobs(bg);
        }
        let cfg = test_cfg(test_dataset(22), hosts.clone(), 256);
        let a = adr::run_adr(&topo, &cfg).unwrap().elapsed.as_secs_f64();
        let d = Render::new(&cfg, &dc_spec(&hosts, Algorithm::ActivePixel))
            .go(&topo)
            .unwrap()
            .elapsed
            .as_secs_f64();
        (a, d)
    };
    let (a0, d0) = run(0);
    let (a8, d8) = run(8);
    let adr_blowup = a8 / a0;
    let dc_blowup = d8 / d0;
    assert!(
        adr_blowup > dc_blowup,
        "ADR should degrade more: ADR {adr_blowup:.2}x vs DC {dc_blowup:.2}x"
    );
}

#[test]
fn zbuffer_pipeline_stalls_more_than_active_pixel() {
    // The synchronization point of the z-buffer algorithm shows up as a
    // longer runtime when merge bandwidth matters (several nodes, large
    // image).
    let (topo, hosts) = cluster(6);
    let cfg = test_cfg(test_dataset(23), hosts.clone(), 512);
    let zb = Render::new(&cfg, &dc_spec(&hosts, Algorithm::ZBuffer))
        .go(&topo)
        .unwrap();
    let ap = Render::new(&cfg, &dc_spec(&hosts, Algorithm::ActivePixel))
        .go(&topo)
        .unwrap();
    assert!(
        ap.elapsed < zb.elapsed,
        "AP ({}) should beat ZB ({}) at 6 nodes / 512²",
        ap.elapsed,
        zb.elapsed
    );
    // And it moves less data into the merge filter.
    let zb_bytes = zb.report.stream(zb.to_merge).total_bytes();
    let ap_bytes = ap.report.stream(ap.to_merge).total_bytes();
    assert!(
        ap_bytes < zb_bytes,
        "AP merge bytes {ap_bytes} vs ZB {zb_bytes}"
    );
}

#[test]
fn adr_overlap_beats_serial_read_single_node() {
    // ADR's asynchronous I/O hides disk time behind compute; the fused
    // RERa-M single node pays them serially. Same node count, same work.
    let (topo, hosts) = cluster(1);
    let cfg = test_cfg(test_dataset(24), hosts.clone(), 256);
    let a = adr::run_adr(&topo, &cfg).unwrap();
    let spec = PipelineSpec {
        grouping: Grouping::RERaM,
        algorithm: Algorithm::ActivePixel,
        policy: WritePolicy::RoundRobin,
        merge_host: hosts[0],
    };
    let d = Render::new(&cfg, &spec).go(&topo).unwrap();
    assert!(
        a.elapsed <= d.elapsed,
        "ADR ({}) should not lose to serial RERa-M ({}) on one node",
        a.elapsed,
        d.elapsed
    );
}
