//! Storage-chaos acceptance suite: seeded disk faults injected into the
//! spill ring must be *healed, degraded through, or loss-accounted* —
//! never an abort, never silent corruption.
//!
//! - Transient read/write error windows (rate < 1) are retried under the
//!   seeded backoff ladder until they heal: the run finishes bit-identical
//!   to the fault-free budgeted run with zero loss, on the simulator
//!   across RR, WRR, DD and the tile-hash merge grouping, and on the
//!   wall-clock `NativeExecutor`.
//! - A persistent write-error window (rate 1.0, outliving the retry
//!   budget and the one ring re-creation) *denies* spills: payloads stay
//!   resident over budget, the denial is tallied, and the output is
//!   still bit-identical — degraded in memory headroom, not in bits.
//! - Corrupted fault-ins (seeded bit flips caught by the frame checksum)
//!   and reads that stay unreadable past the retry budget fall back to
//!   loss-accounted recovery: the run completes degraded with
//!   `consumed + lost == produced` exact and every detection tallied.
//! - A degraded-disk window (virtual-time throughput derating) costs
//!   elapsed time, never bits.

use std::sync::Arc;

use datacutter::{FaultOptions, NativeExecutor, Placement, WritePolicy};
use dcapp::{
    clone_config, Algorithm, Grouping, PipelineResult, PipelineSpec, Render, SharedConfig,
};
use hetsim::{DiskFaultKind, FaultPlan, HostId, SimDuration, SimTime};
use integration_tests::{cluster, image_digest, small_dataset, test_cfg, test_dataset};

/// One window covering any run on either time axis (virtual seconds on
/// the simulator, wall-clock seconds on the native executors).
fn whole_run() -> SimDuration {
    SimDuration::from_secs(3600)
}

/// `cfg` with an in-flight budget of `1/denom` of one timestep's bytes —
/// tight enough to force real spill traffic (see `outofcore.rs`).
fn budgeted(cfg: &SharedConfig, denom: u64) -> SharedConfig {
    let mut c = clone_config(cfg);
    c.memory_budget_bytes = c.dataset.timestep_bytes() / denom.max(1);
    c.validate().expect("budgeted config validates");
    Arc::new(c)
}

/// The out-of-core suite's `R–E–Ra–M` shape: data on host 0, extract on
/// hosts 1–2, raster on 3, merge on 4; the cross-host R→E stream is what
/// the budget squeezes into the spill ring.
fn four_stage(hosts: &[HostId], policy: WritePolicy) -> PipelineSpec {
    PipelineSpec {
        grouping: Grouping::FourStage {
            extract: Placement::one_per_host(&[hosts[1], hosts[2]]),
            raster: Placement::on_host(hosts[3], 1),
        },
        algorithm: Algorithm::ZBuffer,
        policy,
        merge_host: hosts[4],
    }
}

/// Tile-owned compositing: raster on host 1, tile-hash merge on 2–3.
fn tiled(hosts: &[HostId]) -> PipelineSpec {
    PipelineSpec {
        grouping: Grouping::TileComposite {
            raster: Placement::on_host(hosts[1], 1),
            merge: Placement::one_per_host(&[hosts[2], hosts[3]]),
        },
        algorithm: Algorithm::ActivePixel,
        policy: WritePolicy::demand_driven(),
        merge_host: hosts[4],
    }
}

/// Seeded transient error windows on every host: each spill write and
/// fault-in read fails with probability `rate`, re-rolled per retry
/// attempt, for the whole run.
fn transient_plan(hosts: &[HostId], seed: u64, rate: f64) -> FaultPlan {
    let mut plan = FaultPlan::new().storage_seed(seed);
    for &h in hosts {
        plan = plan
            .disk_error(h, SimTime::ZERO, whole_run(), rate, DiskFaultKind::Write)
            .disk_error(h, SimTime::ZERO, whole_run(), rate, DiskFaultKind::Read);
    }
    plan
}

/// Every-attempt-fails windows for one `kind` on every host — persists
/// through the retry budget and the post-re-creation rung.
fn persistent_plan(hosts: &[HostId], seed: u64, kind: DiskFaultKind) -> FaultPlan {
    let mut plan = FaultPlan::new().storage_seed(seed);
    for &h in hosts {
        plan = plan.disk_error(h, SimTime::ZERO, whole_run(), 1.0, kind);
    }
    plan
}

/// Flip one seeded bit in every fault-in read on every host.
fn corruption_plan(hosts: &[HostId], seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new().storage_seed(seed);
    for &h in hosts {
        plan = plan.corrupt_read(h, SimTime::ZERO, whole_run(), 1.0);
    }
    plan
}

/// Global buffer conservation: everything any filter wrote into a stream
/// was either dequeued by a consumer copy set or tallied as lost —
/// nothing double-counted, nothing silently vanished.
fn assert_conservation(label: &str, r: &PipelineResult) {
    let produced: u64 = r
        .report
        .streams
        .iter()
        .map(|s| {
            let producer = s.stream_name.split("->").next().unwrap_or("");
            r.report
                .copies
                .iter()
                .filter(|c| c.filter_name == producer)
                .map(|c| c.counters.buffers_out)
                .sum::<u64>()
        })
        .sum();
    let consumed: u64 = r.report.streams.iter().map(|s| s.total_buffers()).sum();
    let lost = r.report.faults.buffers_lost;
    assert_eq!(
        consumed + lost,
        produced,
        "{label}: consumed {consumed} + lost {lost} != produced {produced}"
    );
}

/// Transient error windows on the simulator, across every write policy
/// and the tile-hash merge grouping: the retry ladder heals each fault,
/// so the chaos run loses nothing and renders the exact budgeted
/// fault-free image.
#[test]
fn transient_disk_errors_heal_to_bit_identical_on_sim() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(11), vec![hosts[0]], 96);
    let tight = budgeted(&cfg, 16);
    let specs: Vec<(&str, PipelineSpec)> = vec![
        ("rr", four_stage(&hosts, WritePolicy::RoundRobin)),
        ("wrr", four_stage(&hosts, WritePolicy::WeightedRoundRobin)),
        ("dd", four_stage(&hosts, WritePolicy::demand_driven())),
        ("tile-hash", tiled(&hosts)),
    ];
    for (label, spec) in &specs {
        let clean = Render::new(&tight, spec)
            .go(&topo)
            .expect("budgeted fault-free run");
        assert!(clean.report.ooc.spills > 0, "{label}: budget must spill");
        // The tile-hash arm spills 11 times at 1/16 and at every tighter
        // budget `validate` accepts (each stream keeps one payload, and
        // every payload is over its share), and none of its 22 disk
        // operations draws an error under seed 0xC4A05. Under this seed
        // every arm's plan fires.
        let plan = transient_plan(&hosts, 0xC4A06, 0.25);
        let chaos = Render::new(&tight, spec)
            .faults(FaultOptions::new(plan))
            .go(&topo)
            .expect("transient chaos run completes");
        let f = &chaos.report.faults;
        assert!(
            f.disk_errors_injected > 0,
            "{label}: the plan must actually fire: {f:?}"
        );
        assert!(f.storage_retries > 0, "{label}: retries heal: {f:?}");
        assert_eq!(f.corruptions_detected, 0, "{label}: {f:?}");
        assert_eq!(f.buffers_lost, 0, "{label}: transient faults lose nothing");
        assert!(!f.degraded, "{label}: healed is not degraded: {f:?}");
        assert_eq!(
            chaos.image().diff_pixels(clean.image()),
            0,
            "{label}: retried spill traffic may cost time, never bits"
        );
        assert_conservation(&format!("sim/{label}"), &chaos);
    }
}

/// The same transient windows on the wall-clock executor: the storage
/// verdicts replay from the same seeded oracle, and the rendered pixels
/// must match the simulator's budgeted fault-free reference.
///
/// How many payloads spill natively, and on which host, is the
/// schedule's to say: the tile-hash arm spills as few as three. So the
/// seed is one whose plan fails the first storage operation of a run —
/// a spill write, on whichever host spills first — on every host, and
/// every schedule exercises the retry ladder.
#[test]
fn transient_disk_errors_heal_on_native() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(11), vec![hosts[0]], 96);
    let tight = budgeted(&cfg, 16);
    for (label, spec) in [
        ("dd", four_stage(&hosts, WritePolicy::demand_driven())),
        ("tile-hash", tiled(&hosts)),
    ] {
        let clean = Render::new(&tight, &spec)
            .go(&topo)
            .expect("budgeted sim reference");
        let want = image_digest(clean.image());
        let plan = transient_plan(&hosts, 0x24A5, 0.2);
        let fails_first_write =
            |h| plan.should_fail_disk(h, DiskFaultKind::Write, SimTime::ZERO, 0, 0);
        assert!(
            hosts.iter().all(|&h| fails_first_write(h)),
            "the plan fails the first spill write on every host"
        );
        let native = Render::new(&tight, &spec)
            .executor(NativeExecutor::new())
            .faults(FaultOptions::new(plan))
            .go(&topo)
            .expect("native chaos run completes");
        let f = &native.report.faults;
        assert!(f.disk_errors_injected > 0, "native/{label}: {f:?}");
        assert_eq!(f.buffers_lost, 0, "native/{label}: {f:?}");
        assert_eq!(
            image_digest(native.image()),
            want,
            "native/{label}: chaos pixels diverged"
        );
        assert_conservation(&format!("native/{label}"), &native);
    }
}

/// What sealing a spill frame costs, pinned from the retired
/// `ablation_faults` storage arm: `small_dataset` on two Blue nodes,
/// extract on two Rogue nodes, Z-buffer raster and merge on Blue, DD,
/// 512×512, 1/16 budget. `checksum_spills = false` drops the 8-byte
/// trailer from each of the 56 frames and nothing else: same spills,
/// same pixels.
#[test]
fn unsealed_spills_save_exactly_the_trailer_never_bits() {
    let (topo, rogues, blues) = hetsim::presets::rogue_blue_mix(2);
    let sealed = budgeted(&test_cfg(small_dataset(), blues.clone(), 512), 16);
    let mut unsealed = clone_config(&sealed);
    unsealed.checksum_spills = false;
    let unsealed: SharedConfig = Arc::new(unsealed);
    let spec = PipelineSpec {
        grouping: Grouping::FourStage {
            extract: Placement::one_per_host(&rogues),
            raster: Placement::on_host(blues[1], 1),
        },
        algorithm: Algorithm::ZBuffer,
        policy: WritePolicy::demand_driven(),
        merge_host: blues[0],
    };
    let with = Render::new(&sealed, &spec).go(&topo).expect("sealed run");
    let without = Render::new(&unsealed, &spec)
        .go(&topo)
        .expect("unsealed run");
    assert_eq!(without.image().diff_pixels(with.image()), 0);
    assert_eq!(with.report.ooc.spills, 56);
    assert_eq!(without.report.ooc.spills, 56);
    assert_eq!(with.report.ooc.spill_bytes, 1_296_972);
    assert_eq!(without.report.ooc.spill_bytes, 1_296_972 - 8 * 56);
}

/// A write-error window that outlives the retry budget *and* the one
/// ring re-creation: every spill is denied, the payloads ride resident
/// over budget, and the run finishes complete (not degraded — nothing
/// was lost) with the exact fault-free image.
#[test]
fn persistent_write_errors_deny_spills_never_bits() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(11), vec![hosts[0]], 96);
    let tight = budgeted(&cfg, 16);
    for (label, spec) in [
        ("dd", four_stage(&hosts, WritePolicy::demand_driven())),
        ("tile-hash", tiled(&hosts)),
    ] {
        let clean = Render::new(&tight, &spec)
            .go(&topo)
            .expect("budgeted fault-free run");
        assert!(clean.report.ooc.spills > 0, "{label}: budget must spill");
        let plan = persistent_plan(&hosts, 0xDEAD, DiskFaultKind::Write);
        let denied = Render::new(&tight, &spec)
            .faults(FaultOptions::new(plan))
            .go(&topo)
            .expect("write-denied run completes");
        let f = &denied.report.faults;
        assert!(f.spills_denied > 0, "{label}: denials tallied: {f:?}");
        assert_eq!(
            denied.report.ooc.spills, 0,
            "{label}: a dead spill path writes nothing"
        );
        assert_eq!(f.buffers_lost, 0, "{label}: denial is not loss: {f:?}");
        assert!(!f.degraded, "{label}: nothing lost: {f:?}");
        assert_eq!(
            denied.report.ooc.resident_bytes(),
            0,
            "{label}: over-budget charges still drain on consumption"
        );
        assert_eq!(
            denied.image().diff_pixels(clean.image()),
            0,
            "{label}: graceful degradation costs headroom, never bits"
        );
        assert_conservation(&format!("denied/{label}"), &denied);
    }
}

/// Every fault-in read comes back with one seeded bit flipped: the frame
/// checksum catches each one, the buffer falls back to loss-accounted
/// recovery, and the run completes degraded with exact conservation —
/// never an abort, never an undetected wrong pixel source.
#[test]
fn corrupt_reads_are_detected_and_loss_accounted() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(11), vec![hosts[0]], 96);
    let tight = budgeted(&cfg, 16);
    for (label, spec) in [
        ("dd", four_stage(&hosts, WritePolicy::demand_driven())),
        ("tile-hash", tiled(&hosts)),
    ] {
        let clean = Render::new(&tight, &spec)
            .go(&topo)
            .expect("budgeted fault-free run");
        assert!(clean.report.ooc.spills > 0, "{label}: budget must spill");
        let plan = corruption_plan(&hosts, 0xB17);
        let hurt = Render::new(&tight, &spec)
            .faults(FaultOptions::new(plan))
            .go(&topo)
            .expect("corrupted run completes degraded, never aborts");
        let f = &hurt.report.faults;
        assert!(
            f.corruptions_detected > 0,
            "{label}: checksums must catch the flips: {f:?}"
        );
        assert_eq!(
            f.corruptions_detected, f.buffers_lost,
            "{label}: every detection is accounted as exactly one loss"
        );
        assert!(f.bytes_lost > 0, "{label}: {f:?}");
        assert!(f.degraded, "{label}: losses mark the run degraded: {f:?}");
        assert_conservation(&format!("corrupt/{label}"), &hurt);
    }
}

/// Reads that fail on every retry attempt (no corruption — the disk just
/// will not return the frame) exhaust the budget and fall back to the
/// same loss-accounted recovery, with the ring slot reclaimed.
#[test]
fn unreadable_spills_fall_back_to_loss_accounting() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(11), vec![hosts[0]], 96);
    let tight = budgeted(&cfg, 16);
    let spec = four_stage(&hosts, WritePolicy::demand_driven());
    let plan = persistent_plan(&hosts, 0x0BAD, DiskFaultKind::Read);
    let hurt = Render::new(&tight, &spec)
        .faults(FaultOptions::new(plan))
        .go(&topo)
        .expect("unreadable-spill run completes degraded, never aborts");
    let f = &hurt.report.faults;
    assert!(f.disk_errors_injected > 0, "{f:?}");
    assert!(
        f.storage_retries > 0,
        "the ladder must burn its retry budget first: {f:?}"
    );
    assert!(f.buffers_lost > 0, "exhausted reads are lost: {f:?}");
    assert_eq!(f.corruptions_detected, 0, "no flips were injected: {f:?}");
    assert!(f.degraded, "{f:?}");
    assert_conservation("unreadable/dd", &hurt);
}

/// A degraded-disk window (quarter throughput on every host for the
/// whole run) is a pure virtual-time effect: the budgeted run takes
/// longer and renders the exact same pixels.
#[test]
fn degraded_disk_costs_time_never_bits() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(11), vec![hosts[0]], 96);
    let tight = budgeted(&cfg, 16);
    let spec = four_stage(&hosts, WritePolicy::RoundRobin);
    let clean = Render::new(&tight, &spec)
        .go(&topo)
        .expect("budgeted fault-free run");
    assert!(clean.report.ooc.spills > 0, "budget must spill");
    let mut plan = FaultPlan::new();
    for &h in &hosts {
        plan = plan.degrade_disk(h, SimTime::ZERO, whole_run(), 0.25);
    }
    let slow = Render::new(&tight, &spec)
        .faults(FaultOptions::new(plan))
        .go(&topo)
        .expect("degraded-disk run completes");
    let f = &slow.report.faults;
    assert_eq!(f.buffers_lost, 0, "{f:?}");
    assert_eq!(f.disk_errors_injected, 0, "{f:?}");
    assert!(
        slow.elapsed > clean.elapsed,
        "a quarter-speed spill disk must cost virtual time \
         (clean {:?}, degraded {:?})",
        clean.elapsed,
        slow.elapsed
    );
    assert_eq!(
        slow.image().diff_pixels(clean.image()),
        0,
        "disk derating may cost time, never bits"
    );
}
