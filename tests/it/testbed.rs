//! Full UMD-testbed integration: pipelines spanning all four emulated
//! clusters, cross-cluster streams, and the compute-node placement.

use datacutter::{Placement, WritePolicy};
use dcapp::{Algorithm, Grouping, PipelineSpec, Render};
use hetsim::presets::{red_with_deathstar, umd_testbed};
use integration_tests::{test_cfg, test_dataset};

#[test]
fn pipeline_spans_all_four_clusters() {
    let tb = umd_testbed();
    // Data on 2 Rogue + 2 Red nodes; raster copies on Blue; merge on
    // Deathstar — every cluster participates.
    let storage = vec![tb.rogue.1[0], tb.rogue.1[1], tb.red.1[0], tb.red.1[1]];
    let cfg = test_cfg(test_dataset(40), storage.clone(), 96);
    let spec = PipelineSpec {
        grouping: Grouping::RERaSplit {
            raster: Placement::one_per_host(&[tb.blue.1[0], tb.blue.1[1]]),
        },
        algorithm: Algorithm::ActivePixel,
        policy: WritePolicy::demand_driven(),
        merge_host: tb.deathstar.1,
    };
    let r = Render::new(&cfg, &spec).go(&tb.topology).expect("run");
    assert_eq!(r.image().diff_pixels(&dcapp::reference_image(&cfg)), 0);
    // Traffic crossed into Blue and Deathstar.
    assert!(
        tb.topology.nic_bytes(tb.blue.1[0]).1 > 0,
        "blue received stream traffic"
    );
    assert!(
        tb.topology.nic_bytes(tb.deathstar.1).1 > 0,
        "deathstar received merge traffic"
    );
}

#[test]
fn eight_way_node_runs_seven_copies() {
    let (topo, reds, ds) = red_with_deathstar(2);
    let cfg = test_cfg(test_dataset(41), reds.clone(), 96);
    let mut per_host: Vec<(hetsim::HostId, u32)> = reds.iter().map(|&h| (h, 1)).collect();
    per_host.push((ds, 7));
    let spec = PipelineSpec {
        grouping: Grouping::RERaSplit {
            raster: Placement { per_host },
        },
        algorithm: Algorithm::ActivePixel,
        policy: WritePolicy::WeightedRoundRobin,
        merge_host: ds,
    };
    let r = Render::new(&cfg, &spec).go(&topo).expect("run");
    assert_eq!(r.image().diff_pixels(&dcapp::reference_image(&cfg)), 0);
    // All 9 raster copies exist; the deathstar set received the weighted
    // majority of buffers.
    let s = r.report.stream(r.to_raster.unwrap());
    let red_total: u64 = s.copysets[..2]
        .iter()
        .map(|(_, c)| c.buffers_received)
        .sum();
    let ds_total = s.copysets[2].1.buffers_received;
    assert!(
        ds_total > red_total,
        "7-copy deathstar set should dominate under WRR: {ds_total} vs {red_total}"
    );
}

#[test]
fn slow_uplink_hurts_remote_placement() {
    // Two identical hosts, one per cluster, joined by a very slow
    // backbone. Placing the extract+raster stage across the backbone (so
    // every chunk crosses it) must lose to the co-located placement —
    // the only difference between the runs is the link.
    use hetsim::{ClusterSpec, HostSpec, SimDuration, TopologyBuilder};
    let build = || {
        let mut b = TopologyBuilder::new();
        let mk_cluster = |name: &str| ClusterSpec {
            name: name.into(),
            nic_bandwidth_bps: 100.0e6,
            nic_latency: SimDuration::from_micros(60),
        };
        let c0 = b.add_cluster(mk_cluster("a"));
        let c1 = b.add_cluster(mk_cluster("b"));
        let mk_host = |name: &str| HostSpec {
            name: name.into(),
            cores: 1,
            speed: 1.0,
            mem_mb: 512,
            disks: 2,
            disk_bandwidth_bps: 25.0e6,
            disk_seek: SimDuration::from_millis(9),
        };
        let h0 = b.add_host(c0, mk_host("data"));
        let h1 = b.add_host(c1, mk_host("compute"));
        // Painfully slow backbone: 100 KB/s.
        b.connect_clusters(c0, c1, 0.1e6, SimDuration::from_millis(1));
        (b.build(), h0, h1)
    };

    let elapsed = |remote: bool| {
        let (topo, h0, h1) = build();
        let cfg = test_cfg(test_dataset(42), vec![h0], 96);
        let era_host = if remote { h1 } else { h0 };
        let spec = PipelineSpec {
            grouping: Grouping::REraSplit {
                era: Placement::on_host(era_host, 1),
            },
            algorithm: Algorithm::ActivePixel,
            policy: WritePolicy::RoundRobin,
            merge_host: h0,
        };
        Render::new(&cfg, &spec).go(&topo).unwrap().elapsed
    };
    let local = elapsed(false);
    let remote = elapsed(true);
    assert!(
        local < remote,
        "co-located ERa ({local}) should beat ERa across a 100 KB/s backbone ({remote})"
    );
}

#[test]
fn background_load_only_dilates_loaded_hosts() {
    let (topo, hosts) = integration_tests::cluster(2);
    topo.host(hosts[0]).cpu.set_bg_jobs(16);
    let cfg = test_cfg(test_dataset(43), hosts.clone(), 96);
    let spec = PipelineSpec {
        grouping: Grouping::RERaM,
        algorithm: Algorithm::ActivePixel,
        policy: WritePolicy::RoundRobin,
        merge_host: hosts[1],
    };
    let r = Render::new(&cfg, &spec).go(&topo).unwrap();
    // Copy on the loaded host took much longer per unit of work.
    let copies = r.report.copies_of(r.filters[0]);
    let loaded = copies.iter().find(|c| c.host == hosts[0]).unwrap();
    let idle = copies.iter().find(|c| c.host == hosts[1]).unwrap();
    let dilate = |c: &datacutter::CopyReport| {
        c.counters.compute_elapsed.as_secs_f64() / c.counters.work.as_secs_f64().max(1e-12)
    };
    assert!(
        dilate(loaded) > 5.0 * dilate(idle),
        "loaded {} vs idle {}",
        dilate(loaded),
        dilate(idle)
    );
}
