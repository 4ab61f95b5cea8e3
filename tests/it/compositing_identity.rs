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

use datacutter::{
    ExecutorChoice, FaultOptions, NativeExecutor, Placement, SimExecutor, WritePolicy,
};
use dcapp::{reference_image, Algorithm, Grouping, PipelineResult, PipelineSpec, Render};
use hetsim::presets::rogue_blue_mix;
use hetsim::{FaultPlan, HostId, SimDuration, SimTime, Topology};
use integration_tests::{image_digest, metrics_digest, test_cfg, test_dataset};

/// The serial pipeline's pinned fault-free image digest (the `rr`/`wrr`/
/// `dd` rows of `dataplane_identity::PINNED`). Tile compositing must
/// reproduce it exactly — this is the acceptance criterion, so the value
/// is duplicated here rather than shared: changing either copy is a
/// deliberate act.
const SERIAL_IMAGE: u64 = 0xa7ef3c36edc7d9b7;

/// The serial pipeline's pinned faulted-DD image digest (the `dd_fault`
/// row of `dataplane_identity::PINNED`): the crash takes a storage host,
/// so the image loses that host's chunks, and only those. The tiled runs
/// crashed at 40 ms or at t=0 must lose exactly the same pixels.
const SERIAL_FAULTED_IMAGE: u64 = 0xaca36968a69f3fc3;

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

/// One run of the tiled setting under `policy` on `exec`. With `crash =
/// Some((at_ms, timeout_ms))` the second Rogue (an RE + Ra host; the merge
/// group on the Blues survives intact) dies `at_ms` in, under a liveness
/// timeout of `timeout_ms`: the serial suite's faulted-DD scenario. A
/// crash at 0 kills copies that never ran, so the surviving work set is
/// timing-independent and the image is comparable across substrates.
fn run(
    policy: WritePolicy,
    exec: impl Into<ExecutorChoice>,
    crash: Option<(u64, u64)>,
) -> PipelineResult {
    let (topo, hosts, blues) = setting();
    let cfg = test_cfg(test_dataset(7), hosts.clone(), 96);
    let s = tiled_spec(&hosts, &blues, policy);
    let mut render = Render::new(&cfg, &s).executor(exec);
    if let Some((at_ms, timeout_ms)) = crash {
        let at = SimTime::ZERO + SimDuration::from_millis(at_ms);
        let plan = FaultPlan::new().crash_host(hosts[1], at);
        let opts = FaultOptions::new(plan).liveness_timeout(SimDuration::from_millis(timeout_ms));
        render = render.faults(opts);
    }
    render.go(&topo).expect("tiled fig5 run failed")
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
        image_digest(r.image()),
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
    let r = run(WritePolicy::RoundRobin, SimExecutor::new(), None);
    assert_eq!(pinned("rr").0, SERIAL_IMAGE);
    check("rr", &r);
}

#[test]
fn tiled_weighted_round_robin_matches_serial_image_digest() {
    let r = run(WritePolicy::WeightedRoundRobin, SimExecutor::new(), None);
    assert_eq!(pinned("wrr").0, SERIAL_IMAGE);
    check("wrr", &r);
}

#[test]
fn tiled_demand_driven_matches_serial_image_digest() {
    // DD additionally matches the sequential reference (sanity that the
    // shared pin pins a *correct* image, not a stable wrong one).
    let r = run(WritePolicy::demand_driven(), SimExecutor::new(), None);
    let (_, hosts, _) = setting();
    let cfg = test_cfg(test_dataset(7), hosts, 96);
    assert_eq!(r.image().diff_pixels(&reference_image(&cfg)), 0);
    assert_eq!(pinned("dd").0, SERIAL_IMAGE);
    check("dd", &r);
}

#[test]
fn tiled_faulted_demand_driven_matches_pinned_digests() {
    let r = run(
        WritePolicy::demand_driven(),
        SimExecutor::new(),
        Some((40, 10)),
    );
    assert!(
        r.report.faults.copies_killed > 0,
        "the fault plan must actually kill copies"
    );
    assert_eq!(pinned("dd_fault").0, SERIAL_FAULTED_IMAGE);
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
        let r = run(policy, NativeExecutor::new(), None);
        assert_eq!(
            image_digest(r.image()),
            SERIAL_IMAGE,
            "{policy:?}: native tiled pixels diverged from the serial pin"
        );
    }
}

/// Faulted-DD across substrates: with the crash pinned at t=0 the loss
/// accounting and the rendered image are deterministic, so the native run
/// must reproduce the sim run bit-for-bit — the serial faulted image.
#[test]
fn native_tiled_faulted_dd_matches_sim_pixels() {
    let sim = run(
        WritePolicy::demand_driven(),
        SimExecutor::new(),
        Some((0, 2)),
    );
    let nat = run(
        WritePolicy::demand_driven(),
        NativeExecutor::new(),
        Some((0, 2)),
    );
    for (label, r) in [("sim", &sim), ("native", &nat)] {
        let f = &r.report.faults;
        assert_eq!(
            f.copies_killed, 2,
            "{label}: host-1 RE and Ra copies die: {f:?}"
        );
        assert_eq!(f.buffers_lost, 0, "{label}: DD replay loses nothing: {f:?}");
    }
    for (label, r) in [("sim", &sim), ("native", &nat)] {
        assert_eq!(
            image_digest(r.image()),
            SERIAL_FAULTED_IMAGE,
            "{label}: the faulted tiled run must lose the serial run's pixels, no more"
        );
    }
}

/// Recapture helper: prints the digest table to paste into [`PINNED`].
#[test]
#[ignore = "manual recapture helper"]
fn print_digests() {
    let rows: Vec<(&str, PipelineResult)> = vec![
        ("rr", run(WritePolicy::RoundRobin, SimExecutor::new(), None)),
        (
            "wrr",
            run(WritePolicy::WeightedRoundRobin, SimExecutor::new(), None),
        ),
        (
            "dd",
            run(WritePolicy::demand_driven(), SimExecutor::new(), None),
        ),
        (
            "dd_fault",
            run(
                WritePolicy::demand_driven(),
                SimExecutor::new(),
                Some((40, 10)),
            ),
        ),
    ];
    for (label, r) in &rows {
        println!(
            "    (\"{label}\", {:#018x}, {:#018x}),",
            image_digest(r.image()),
            metrics_digest(r)
        );
    }
}
