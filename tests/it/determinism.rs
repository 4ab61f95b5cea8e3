//! Bit-for-bit reproducibility: the whole point of emulating the cluster
//! is that every run of the same configuration produces the same virtual
//! timeline, the same metrics, and the same image.

use datacutter::{Placement, WritePolicy};
use dcapp::{Algorithm, Grouping, PipelineSpec, Render};
use integration_tests::{cluster, test_cfg, test_dataset};

fn run_once(policy: WritePolicy, bg: u32) -> (u64, u64, Vec<u64>, isosurf::Image) {
    let (topo, hosts) = cluster(3);
    for &h in &hosts[..1] {
        topo.host(h).cpu.set_bg_jobs(bg);
    }
    let cfg = test_cfg(test_dataset(30), hosts.clone(), 128);
    let spec = PipelineSpec {
        grouping: Grouping::RERaSplit {
            raster: Placement::one_per_host(&hosts),
        },
        algorithm: Algorithm::ActivePixel,
        policy,
        merge_host: hosts[0],
    };
    let mut r = Render::new(&cfg, &spec).go(&topo).unwrap();
    let copyset_counts = r
        .report
        .stream(r.to_raster.unwrap())
        .copysets
        .iter()
        .map(|(_, c)| c.buffers_received)
        .collect();
    (
        r.elapsed.as_nanos(),
        r.report.events,
        copyset_counts,
        r.images.swap_remove(0),
    )
}

#[test]
fn identical_runs_produce_identical_timelines() {
    for policy in [WritePolicy::RoundRobin, WritePolicy::demand_driven()] {
        for bg in [0u32, 4] {
            let a = run_once(policy, bg);
            let b = run_once(policy, bg);
            assert_eq!(
                a.0,
                b.0,
                "elapsed nanos differ ({} bg={bg})",
                policy.label()
            );
            assert_eq!(a.1, b.1, "event counts differ");
            assert_eq!(a.2, b.2, "buffer distributions differ");
            assert_eq!(a.3.diff_pixels(&b.3), 0, "images differ");
        }
    }
}

#[test]
fn adr_runs_are_deterministic() {
    let run = || {
        let (topo, hosts) = cluster(4);
        let cfg = test_cfg(test_dataset(31), hosts, 128);
        let r = adr::run_adr(&topo, &cfg).unwrap();
        (
            r.elapsed.as_nanos(),
            r.nodes.iter().map(|n| n.triangles).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_change_the_timeline() {
    // Not a tautology: confirms the dataset seed actually propagates.
    let elapsed = |seed: u64| {
        let (topo, hosts) = cluster(2);
        let cfg = test_cfg(test_dataset(seed), hosts.clone(), 128);
        let spec = PipelineSpec {
            grouping: Grouping::RERaM,
            algorithm: Algorithm::ActivePixel,
            policy: WritePolicy::RoundRobin,
            merge_host: hosts[0],
        };
        Render::new(&cfg, &spec)
            .go(&topo)
            .unwrap()
            .elapsed
            .as_nanos()
    };
    assert_ne!(elapsed(100), elapsed(101));
}
