//! Massive fan-out: a graph placing thousands of transparent raster
//! copies — 4096 in release builds, scaled down in debug so tier-1 stays
//! fast — completes on the thread-per-copy [`NativeExecutor`] and renders
//! digests bit-identical to the simulator, under RR, WRR, DD, and the
//! structural tile-hash policy.
//!
//! The z-buffer algorithm is used throughout because its data plane is
//! *shape-deterministic*: every raster copy ships its whole owned buffer
//! in fixed-size bands at end-of-work regardless of how many batches it
//! happened to win, so the per-stream delivery totals (buffers and
//! bytes) are invariant across substrates and schedules, not just the
//! pixels. (Active-pixel flush boundaries depend on which copy won which
//! batch, so only pixels are comparable there — see `native_executor`.)

use datacutter::{NativeExecutor, Placement, SimExecutor, WritePolicy};
use dcapp::{reference_image, Algorithm, Grouping, PipelineResult, PipelineSpec, Render};
use integration_tests::{cluster, image_digest, stream_totals_digest, test_cfg, test_dataset};

/// Transparent copies of the raster stage per host: 4 hosts × 1024 =
/// 4096 copies in release; debug builds scale to 4 × 64 = 256 so the
/// default `cargo test` tier stays inside its budget. The release CI job
/// (`native-executor`) runs the full 4096.
fn per_host() -> u32 {
    if cfg!(debug_assertions) {
        64
    } else {
        1024
    }
}

fn fan_placement(hosts: &[hetsim::HostId]) -> Placement {
    Placement {
        per_host: hosts.iter().map(|&h| (h, per_host())).collect(),
    }
}

fn fan_spec(hosts: &[hetsim::HostId], policy: WritePolicy) -> PipelineSpec {
    PipelineSpec {
        grouping: Grouping::RERaSplit {
            raster: fan_placement(hosts),
        },
        algorithm: Algorithm::ZBuffer,
        policy,
        merge_host: hosts[0],
    }
}

/// Tile-owned compositing with the fan-out on the raster stage and two
/// merge copy sets; the raster→merge stream is structurally tile-hash.
fn tile_spec(hosts: &[hetsim::HostId]) -> PipelineSpec {
    PipelineSpec {
        grouping: Grouping::TileComposite {
            raster: fan_placement(hosts),
            merge: Placement::one_per_host(&[hosts[1], hosts[2]]),
        },
        algorithm: Algorithm::ZBuffer,
        policy: WritePolicy::demand_driven(),
        merge_host: hosts[0],
    }
}

/// Run `spec` on both substrates and assert the digest contract: pixels
/// match the sequential reference, and both the image digest and the
/// per-stream delivery-totals digest are identical across sim and native
/// threads.
fn assert_substrate_identity(
    label: &str,
    topo: &hetsim::Topology,
    cfg: &dcapp::SharedConfig,
    spec: &PipelineSpec,
    reference: &isosurf::Image,
) {
    let sim = Render::new(cfg, spec)
        .executor(SimExecutor::new())
        .go(topo)
        .unwrap_or_else(|e| panic!("{label}: sim run failed: {e}"));
    let nat = Render::new(cfg, spec)
        .executor(NativeExecutor::new())
        .go(topo)
        .unwrap_or_else(|e| panic!("{label}: native run failed: {e}"));

    assert_eq!(
        sim.image().diff_pixels(reference),
        0,
        "{label}: sim diverged from reference"
    );
    let digests = |r: &PipelineResult| (image_digest(r.image()), stream_totals_digest(r));
    let (si, st) = digests(&sim);
    let (ni, nt) = digests(&nat);
    assert_eq!(si, ni, "{label}: native image digest diverged from sim");
    assert_eq!(st, nt, "{label}: native stream totals diverged from sim");
    // The wall-clock substrate reports no virtual engine events.
    assert_eq!(nat.report.events, 0, "{label}");
}

/// RR, WRR, and DD over the full fan-out: thousands of raster copies on
/// both substrates, digest-identical.
#[test]
fn fanout_digest_identity_rr_wrr_dd() {
    let (topo, hosts) = cluster(4);
    let cfg = test_cfg(test_dataset(7), hosts.clone(), 64);
    let reference = reference_image(&cfg);
    for policy in [
        WritePolicy::RoundRobin,
        WritePolicy::WeightedRoundRobin,
        WritePolicy::demand_driven(),
    ] {
        let spec = fan_spec(&hosts, policy);
        let label = format!("fanout/{}x{}/{}", hosts.len(), per_host(), policy.label());
        assert_substrate_identity(&label, &topo, &cfg, &spec, &reference);
    }
}

/// The tile-hash structural policy over the same fan-out: every raster
/// copy cuts its bands at tile boundaries and routes fragments by tile
/// ownership; the composited image and delivery totals stay invariant.
#[test]
fn fanout_digest_identity_tile_hash() {
    let (topo, hosts) = cluster(4);
    let cfg = test_cfg(test_dataset(7), hosts.clone(), 64);
    let reference = reference_image(&cfg);
    let spec = tile_spec(&hosts);
    let label = format!("fanout/{}x{}/tile-hash", hosts.len(), per_host());
    assert_substrate_identity(&label, &topo, &cfg, &spec, &reference);
}
