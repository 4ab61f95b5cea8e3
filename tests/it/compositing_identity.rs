//! Bit-identity of tile-owned compositing (`RE-Ra-Mt-A`) against the
//! serial single-sink merge, on the fig5 heterogeneous configuration.
//!
//! The tentpole claim is that cutting the image into row-strip tiles,
//! tile-hash-routing fragments to a parallel merge group and stitching
//! afterwards changes **where** the depth test runs but not one bit of
//! its result. So for every writer policy on the producer side the tiled
//! image digest must equal the serial pipeline's pinned image digest
//! (`dataplane_identity`'s table), on the simulator *and* on the native
//! OS-thread executor. Metrics digests are pinned for the deterministic
//! simulator only — wall-clock runs are asserted pixel-identical instead.
//!
//! To recapture after an intentional behavior change:
//! `cargo test -q -p integration-tests --test compositing_identity -- --ignored --nocapture`

use datacutter::{FaultOptions, NativeExecutor, Placement, WritePolicy};
use dcapp::{
    reference_image, run_pipeline, run_pipeline_exec, run_pipeline_faulted,
    run_pipeline_faulted_exec, Algorithm, Grouping, PipelineResult, PipelineSpec,
};
use hetsim::presets::rogue_blue_mix;
use hetsim::{FaultPlan, HostId, SimDuration, SimTime, Topology};
use integration_tests::{image_digest, metrics_digest, test_cfg, test_dataset};

/// The serial pipeline's pinned fault-free image digest (the `rr`/`wrr`/
/// `dd` rows of `dataplane_identity::PINNED`). Tile compositing must
/// reproduce it exactly — this is the acceptance criterion, so the value
/// is duplicated here rather than shared: changing either copy is a
/// deliberate act.
const SERIAL_IMAGE: u64 = 0xa7ef3c36edc7d9b7;

/// The fig5 heterogeneous setting, scaled for tests: 2 loaded Rogue + 2
/// dedicated Blue hosts, raster everywhere, merge group on the Blues.
fn fig5_setting() -> (Topology, Vec<HostId>, Vec<HostId>) {
    let (topo, rogues, blues) = rogue_blue_mix(2);
    for &h in &rogues {
        topo.host(h).cpu.set_bg_jobs(4);
    }
    (topo, rogues, blues)
}

fn tiled_spec(hosts: &[HostId], blues: &[HostId], policy: WritePolicy) -> PipelineSpec {
    PipelineSpec {
        grouping: Grouping::TileComposite {
            raster: Placement::one_per_host(hosts),
            merge: Placement::one_per_host(blues),
        },
        algorithm: Algorithm::ActivePixel,
        policy,
        merge_host: blues[0],
    }
}

fn setting() -> (Topology, Vec<HostId>, Vec<HostId>) {
    let (topo, rogues, blues) = fig5_setting();
    let mut hosts = rogues.clone();
    hosts.extend(&blues);
    (topo, hosts, blues)
}

fn run_policy(policy: WritePolicy) -> PipelineResult {
    let (topo, hosts, blues) = setting();
    let cfg = test_cfg(test_dataset(7), hosts.clone(), 96);
    let s = tiled_spec(&hosts, &blues, policy);
    run_pipeline(&topo, &cfg, &s).expect("tiled fig5 run failed")
}

fn run_policy_native(policy: WritePolicy) -> PipelineResult {
    let (topo, hosts, blues) = setting();
    let cfg = test_cfg(test_dataset(7), hosts.clone(), 96);
    let s = tiled_spec(&hosts, &blues, policy);
    run_pipeline_exec(&topo, &cfg, &s, NativeExecutor::new()).expect("native tiled run failed")
}

/// The serial suite's faulted-DD scenario transplanted onto the tiled
/// pipeline: kill the second Rogue (an RE + Ra host; the merge group on
/// the Blues survives intact) 40 virtual ms in, under demand-driven
/// routing with a 10 ms liveness timeout.
fn run_faulted() -> PipelineResult {
    let (topo, hosts, blues) = setting();
    let cfg = test_cfg(test_dataset(7), hosts.clone(), 96);
    let s = tiled_spec(&hosts, &blues, WritePolicy::demand_driven());
    let plan = FaultPlan::new().crash_host(hosts[1], SimTime::ZERO + SimDuration::from_millis(40));
    let opts = FaultOptions::new(plan).liveness_timeout(SimDuration::from_millis(10));
    run_pipeline_faulted(&topo, &cfg, &s, opts).expect("faulted tiled run failed")
}

/// Faulted-DD with the crash at t=0: the dead host's copies never run, so
/// the surviving work set is timing-independent and the rendered image is
/// comparable across the virtual-time and wall-clock substrates.
fn run_faulted_t0(exec: impl Into<datacutter::ExecutorChoice>) -> PipelineResult {
    let (topo, hosts, blues) = setting();
    let cfg = test_cfg(test_dataset(7), hosts.clone(), 96);
    let s = tiled_spec(&hosts, &blues, WritePolicy::demand_driven());
    let plan = FaultPlan::new().crash_host(hosts[1], SimTime::ZERO);
    let opts = FaultOptions::new(plan).liveness_timeout(SimDuration::from_millis(2));
    run_pipeline_faulted_exec(&topo, &cfg, &s, opts, exec).expect("t0-faulted tiled run failed")
}

/// `(label, image digest, sim metrics digest)` for the tiled pipeline.
/// The fault-free image digests are **not free pins**: they must equal
/// [`SERIAL_IMAGE`], and the tests assert that identity explicitly.
/// `dd_fault`'s metrics digest was re-pinned when every crash plan began
/// to retain (+0.13 ms of virtual time); its image is unchanged.
const PINNED: &[(&str, u64, u64)] = &[
    ("rr", 0xa7ef3c36edc7d9b7, 0x51a7bdb31d793cbf),
    ("wrr", 0xa7ef3c36edc7d9b7, 0x51a7bdb31d793cbf),
    ("dd", 0xa7ef3c36edc7d9b7, 0x529ce9c119adf4d4),
    ("dd_fault", 0xaca36968a69f3fc3, 0xbd7003425b7a22d7),
];

fn pinned(label: &str) -> (u64, u64) {
    let (_, i, m) = PINNED
        .iter()
        .find(|(l, _, _)| *l == label)
        .expect("unknown pin label");
    (*i, *m)
}

fn check(label: &str, r: &PipelineResult) {
    let (want_img, want_met) = pinned(label);
    assert_eq!(
        image_digest(&r.image),
        want_img,
        "{label}: tiled pixels diverged from the pinned digest"
    );
    assert_eq!(
        metrics_digest(r),
        want_met,
        "{label}: tiled metrics diverged from the pinned digest"
    );
}

#[test]
fn tiled_round_robin_matches_serial_image_digest() {
    let r = run_policy(WritePolicy::RoundRobin);
    assert_eq!(pinned("rr").0, SERIAL_IMAGE);
    check("rr", &r);
}

#[test]
fn tiled_weighted_round_robin_matches_serial_image_digest() {
    let r = run_policy(WritePolicy::WeightedRoundRobin);
    assert_eq!(pinned("wrr").0, SERIAL_IMAGE);
    check("wrr", &r);
}

#[test]
fn tiled_demand_driven_matches_serial_image_digest() {
    // DD additionally matches the sequential reference (sanity that the
    // shared pin pins a *correct* image, not a stable wrong one).
    let r = run_policy(WritePolicy::demand_driven());
    let (_, hosts, _) = setting();
    let cfg = test_cfg(test_dataset(7), hosts, 96);
    assert_eq!(r.image.diff_pixels(&reference_image(&cfg)), 0);
    assert_eq!(pinned("dd").0, SERIAL_IMAGE);
    check("dd", &r);
}

#[test]
fn tiled_faulted_demand_driven_matches_pinned_digests() {
    let r = run_faulted();
    assert!(
        r.report.faults.copies_killed > 0,
        "the fault plan must actually kill copies"
    );
    check("dd_fault", &r);
}

/// Native executor, all three producer policies: the wall-clock pipeline
/// must render the exact pixels the simulator pinned. (Metrics are not
/// pinned on this substrate — thread scheduling perturbs the timings.)
#[test]
fn native_tiled_runs_match_sim_image_digests() {
    for policy in [
        WritePolicy::RoundRobin,
        WritePolicy::WeightedRoundRobin,
        WritePolicy::demand_driven(),
    ] {
        let r = run_policy_native(policy);
        assert_eq!(
            image_digest(&r.image),
            SERIAL_IMAGE,
            "{policy:?}: native tiled pixels diverged from the serial pin"
        );
    }
}

/// Faulted-DD across substrates: with the crash pinned at t=0 the loss
/// accounting and the rendered image are deterministic, so the native run
/// must reproduce the sim run bit-for-bit.
#[test]
fn native_tiled_faulted_dd_matches_sim_pixels() {
    let sim = run_faulted_t0(datacutter::SimExecutor::new());
    let nat = run_faulted_t0(NativeExecutor::new());
    for (label, r) in [("sim", &sim), ("native", &nat)] {
        let f = &r.report.faults;
        assert_eq!(
            f.copies_killed, 2,
            "{label}: host-1 RE and Ra copies die: {f:?}"
        );
        assert_eq!(f.buffers_lost, 0, "{label}: DD replay loses nothing: {f:?}");
    }
    assert_eq!(
        image_digest(&nat.image),
        image_digest(&sim.image),
        "native faulted tiled run must render the sim run's exact pixels"
    );
}

/// Recapture helper: prints the digest table to paste into [`PINNED`].
#[test]
#[ignore = "manual recapture helper"]
fn print_digests() {
    let rows: Vec<(&str, PipelineResult)> = vec![
        ("rr", run_policy(WritePolicy::RoundRobin)),
        ("wrr", run_policy(WritePolicy::WeightedRoundRobin)),
        ("dd", run_policy(WritePolicy::demand_driven())),
        ("dd_fault", run_faulted()),
    ];
    for (label, r) in &rows {
        println!(
            "    (\"{label}\", {:#018x}, {:#018x}),",
            image_digest(&r.image),
            metrics_digest(r)
        );
    }
}
