//! End-to-end behaviour of the writer policies on the full application.

use datacutter::{Placement, WritePolicy};
use dcapp::{Algorithm, Grouping, PipelineSpec, Render};
use integration_tests::{cluster, test_cfg, test_dataset};

fn spec(hosts: &[hetsim::HostId], policy: WritePolicy) -> PipelineSpec {
    PipelineSpec {
        grouping: Grouping::RERaSplit {
            raster: Placement::one_per_host(hosts),
        },
        algorithm: Algorithm::ActivePixel,
        policy,
        merge_host: hosts[0],
    }
}

#[test]
fn rr_spreads_buffers_evenly() {
    let (topo, hosts) = cluster(4);
    let cfg = test_cfg(test_dataset(10), hosts.clone(), 96);
    let r = Render::new(&cfg, &spec(&hosts, WritePolicy::RoundRobin))
        .go(&topo)
        .unwrap();
    let s = r.report.stream(r.to_raster.unwrap());
    let counts: Vec<u64> = s.copysets.iter().map(|(_, c)| c.buffers_received).collect();
    let max = *counts.iter().max().unwrap();
    let min = *counts.iter().min().unwrap();
    assert!(max - min <= 4, "RR counts should be near-equal: {counts:?}");
}

#[test]
fn wrr_weights_proportionally_to_copies() {
    let (topo, hosts) = cluster(2);
    let cfg = {
        // Small triangle batches so the stream carries enough buffers for
        // the 3:1 ratio to be measurable.
        let base = test_cfg(test_dataset(11), hosts.clone(), 96);
        let mut c = dcapp::clone_config(&base);
        c.tri_batch = 32;
        std::sync::Arc::new(c)
    };
    let s = PipelineSpec {
        grouping: Grouping::RERaSplit {
            raster: Placement {
                per_host: vec![(hosts[0], 1), (hosts[1], 3)],
            },
        },
        algorithm: Algorithm::ActivePixel,
        policy: WritePolicy::WeightedRoundRobin,
        merge_host: hosts[0],
    };
    let r = Render::new(&cfg, &s).go(&topo).unwrap();
    let st = r.report.stream(r.to_raster.unwrap());
    let c0 = st.copysets[0].1.buffers_received as f64;
    let c1 = st.copysets[1].1.buffers_received as f64;
    let ratio = c1 / c0;
    assert!(
        (2.0..4.5).contains(&ratio),
        "expected ~3x weighting, got {ratio:.2} ({c0} vs {c1})"
    );
}

#[test]
fn dd_starves_a_crippled_host() {
    let (topo, hosts) = cluster(4);
    // Host 3 is buried under background jobs.
    topo.host(hosts[3]).cpu.set_bg_jobs(32);
    let cfg = test_cfg(test_dataset(12), hosts.clone(), 192);
    let r = Render::new(&cfg, &spec(&hosts, WritePolicy::demand_driven()))
        .go(&topo)
        .unwrap();
    let s = r.report.stream(r.to_raster.unwrap());
    let counts: Vec<u64> = s.copysets.iter().map(|(_, c)| c.buffers_received).collect();
    let healthy_avg = counts[..3].iter().sum::<u64>() as f64 / 3.0;
    assert!(
        (counts[3] as f64) < healthy_avg,
        "loaded host should receive fewer buffers: {counts:?}"
    );
}

#[test]
fn dd_beats_rr_under_heterogeneous_load() {
    let elapsed = |policy| {
        let (topo, hosts) = cluster(4);
        for &h in &hosts[..2] {
            topo.host(h).cpu.set_bg_jobs(8);
        }
        let cfg = test_cfg(test_dataset(13), hosts.clone(), 192);
        Render::new(&cfg, &spec(&hosts, policy))
            .go(&topo)
            .unwrap()
            .elapsed
    };
    let rr = elapsed(WritePolicy::RoundRobin);
    let dd = elapsed(WritePolicy::demand_driven());
    assert!(
        dd.as_secs_f64() < rr.as_secs_f64(),
        "DD ({dd}) should beat RR ({rr}) with half the cluster loaded"
    );
}

#[test]
fn policies_agree_when_cluster_is_uniform_and_unloaded() {
    // Sanity: on a homogeneous idle cluster the three policies should be
    // within a modest factor of each other.
    let (topo, hosts) = cluster(4);
    let cfg = test_cfg(test_dataset(14), hosts.clone(), 96);
    let mut times = Vec::new();
    for policy in [
        WritePolicy::RoundRobin,
        WritePolicy::WeightedRoundRobin,
        WritePolicy::demand_driven(),
    ] {
        times.push(
            Render::new(&cfg, &spec(&hosts, policy))
                .go(&topo)
                .unwrap()
                .elapsed
                .as_secs_f64(),
        );
    }
    let max = times.iter().cloned().fold(0.0, f64::max);
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        max / min < 1.5,
        "policies diverge on a uniform cluster: {times:?}"
    );
}

#[test]
fn dd_ack_traffic_is_visible_in_nic_counters() {
    // Producer pinned on host 0, consumers only on host 1: the data path
    // is identical under both policies, so any extra bytes arriving at
    // host 0 are demand-driven acknowledgments.
    use datacutter::{DataBuffer, Filter, FilterCtx, FilterError, GraphBuilder};
    struct Src;
    impl Filter for Src {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            for i in 0..50u32 {
                ctx.write(0, DataBuffer::new(i, 4096));
            }
            Ok(())
        }
    }
    struct Snk;
    impl Filter for Snk {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            while let Some(b) = ctx.read(0) {
                let _ = b.downcast::<u32>();
                ctx.compute(hetsim::SimDuration::from_millis(1));
            }
            Ok(())
        }
    }
    let run = |policy: WritePolicy| {
        let (topo, hosts) = cluster(2);
        let mut g = GraphBuilder::new();
        let s = g.add_filter("src", Placement::on_host(hosts[0], 1), |_| Src);
        let k = g.add_filter("snk", Placement::on_host(hosts[1], 2), |_| Snk);
        g.connect(s, k, policy);
        datacutter::Run::new(g.build()).go(&topo).unwrap();
        topo.nic_bytes(hosts[0]).1 // bytes RECEIVED by the producer host
    };
    let rr_rx = run(WritePolicy::RoundRobin);
    let dd_rx = run(WritePolicy::demand_driven());
    assert_eq!(rr_rx, 0, "nothing flows back under RR");
    assert_eq!(
        dd_rx,
        50 * datacutter::ACK_WIRE_BYTES,
        "one ack per buffer flows back under DD"
    );
}
