//! The paper's central consistency requirement: "the final output is
//! consistent regardless of how many copies of various filters are
//! instantiated at other pipeline stages." Every grouping, policy,
//! algorithm, and copy count must produce the exact reference image.

use datacutter::{Placement, WritePolicy};
use dcapp::{Algorithm, Grouping, PipelineSpec, Render};
use integration_tests::{cluster, test_cfg, test_dataset};

fn all_groupings(hosts: &[hetsim::HostId]) -> Vec<Grouping> {
    vec![
        Grouping::RERaM,
        Grouping::RERaSplit {
            raster: Placement::one_per_host(hosts),
        },
        Grouping::REraSplit {
            era: Placement::one_per_host(hosts),
        },
    ]
}

#[test]
fn every_grouping_policy_algorithm_matches_reference() {
    let (topo, hosts) = cluster(3);
    let cfg = test_cfg(test_dataset(1), hosts.clone(), 96);
    let reference = dcapp::reference_image(&cfg);
    for grouping in all_groupings(&hosts) {
        for policy in [
            WritePolicy::RoundRobin,
            WritePolicy::WeightedRoundRobin,
            WritePolicy::demand_driven(),
        ] {
            for algorithm in [Algorithm::ZBuffer, Algorithm::ActivePixel] {
                let spec = PipelineSpec {
                    grouping: grouping.clone(),
                    algorithm,
                    policy,
                    merge_host: hosts[0],
                };
                let r = Render::new(&cfg, &spec).go(&topo).expect("run");
                assert_eq!(
                    r.image().diff_pixels(&reference),
                    0,
                    "{} {} {}",
                    spec.grouping.label(),
                    policy.label(),
                    algorithm.label()
                );
            }
        }
    }
}

#[test]
fn copy_count_does_not_change_output() {
    let (topo, hosts) = cluster(2);
    let cfg = test_cfg(test_dataset(2), hosts.clone(), 96);
    let reference = dcapp::reference_image(&cfg);
    for copies in 1..=4u32 {
        let spec = PipelineSpec {
            grouping: Grouping::RERaSplit {
                raster: Placement {
                    per_host: hosts.iter().map(|&h| (h, copies)).collect(),
                },
            },
            algorithm: Algorithm::ActivePixel,
            policy: WritePolicy::demand_driven(),
            merge_host: hosts[1],
        };
        let r = Render::new(&cfg, &spec).go(&topo).expect("run");
        assert_eq!(r.image().diff_pixels(&reference), 0, "copies = {copies}");
    }
}

#[test]
fn buffer_sizing_does_not_change_output() {
    let (topo, hosts) = cluster(2);
    let base = test_cfg(test_dataset(3), hosts.clone(), 96);
    let reference = dcapp::reference_image(&base);
    for (tri_batch, wpa) in [(16usize, 32usize), (64, 64), (4096, 8192)] {
        let mut c = dcapp::clone_config(&base);
        c.tri_batch = tri_batch;
        c.wpa_capacity = wpa;
        let cfg = std::sync::Arc::new(c);
        let spec = PipelineSpec {
            grouping: Grouping::RERaSplit {
                raster: Placement::one_per_host(&hosts),
            },
            algorithm: Algorithm::ActivePixel,
            policy: WritePolicy::demand_driven(),
            merge_host: hosts[0],
        };
        let r = Render::new(&cfg, &spec).go(&topo).expect("run");
        assert_eq!(
            r.image().diff_pixels(&reference),
            0,
            "tri_batch={tri_batch} wpa={wpa}"
        );
    }
}

#[test]
fn band_sizing_does_not_change_output() {
    let (topo, hosts) = cluster(2);
    let base = test_cfg(test_dataset(4), hosts.clone(), 96);
    let reference = dcapp::reference_image(&base);
    for band_bytes in [1024u64, 32 * 1024, 1 << 22] {
        let mut c = dcapp::clone_config(&base);
        c.zb_band_bytes = band_bytes;
        let cfg = std::sync::Arc::new(c);
        let spec = PipelineSpec {
            grouping: Grouping::RERaSplit {
                raster: Placement::one_per_host(&hosts),
            },
            algorithm: Algorithm::ZBuffer,
            policy: WritePolicy::RoundRobin,
            merge_host: hosts[0],
        };
        let r = Render::new(&cfg, &spec).go(&topo).expect("run");
        assert_eq!(
            r.image().diff_pixels(&reference),
            0,
            "band_bytes={band_bytes}"
        );
    }
}

#[test]
fn species_and_timesteps_render_consistently() {
    let (topo, hosts) = cluster(2);
    for species in 0..volume::SPECIES_COUNT {
        let base = test_cfg(test_dataset(5), hosts.clone(), 64);
        let mut c = dcapp::clone_config(&base);
        c.species = species;
        c.timestep = (species * 2) % volume::TIMESTEPS;
        c.material = isosurf::species_material(species);
        let cfg = std::sync::Arc::new(c);
        let spec = PipelineSpec {
            grouping: Grouping::RERaM,
            algorithm: Algorithm::ActivePixel,
            policy: WritePolicy::RoundRobin,
            merge_host: hosts[0],
        };
        let r = Render::new(&cfg, &spec).go(&topo).expect("run");
        assert_eq!(
            r.image().diff_pixels(&dcapp::reference_image(&cfg)),
            0,
            "species {species}"
        );
    }
}
