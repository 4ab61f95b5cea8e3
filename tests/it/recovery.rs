//! Crash recovery from retention: the acceptance suite.
//!
//! Under any plan whose copies can die, producers retain every
//! sent-but-unsettled replicable buffer in slab-pooled retention rings,
//! and a dead set's reaper redelivers retained replicas, so a seeded crash plan that leaves a surviving consumer set
//! completes with `lost == 0` and an image bit-identical to the
//! fault-free run under *every* writer policy, on both the virtual-time
//! simulator and the native executor. There is no mode to select.
//!
//! Two crash classes are distinguished deliberately:
//!
//! - **Dead-from-start** (`crash_host(h, SimTime::ZERO)`): the doomed
//!   copy fail-stops at its first read boundary and never consumes, so
//!   on top of the pixel/loss contract the per-stream delivery *totals*
//!   are exactly invariant whenever the surviving stages' per-copy
//!   batching is unchanged (the tile-hash scenario) — every unique
//!   sequence number is consumed once somewhere.
//! - **Mid-run**: the dead copy consumed buffers whose effects died with
//!   its accumulator state; redelivery re-processes them at a survivor
//!   (and streaming filters re-emit downstream), so totals legitimately
//!   shift while the *image* stays bit-identical — every rendering fold
//!   (z-buffer depth test, winning-pixel composition) is idempotent
//!   under duplicated identical inputs.

use std::sync::Arc;

use datacutter::{FaultOptions, Placement, WritePolicy};
use dcapp::{Algorithm, Grouping, PipelineSpec, Render};
use hetsim::{FaultPlan, SimDuration, SimTime};
use integration_tests::{
    cluster, executor, metrics_digest, recovery_digest, small_dataset, stream_totals_digest,
    test_cfg, test_dataset,
};

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// `R–E–Ra–M` with the extract stage replicated on hosts 1 and 2 (so one
/// can die and leave a survivor), raster on host 3, merge on host 4, all
/// data on host 0 — the same shape as the `faults.rs` scenarios.
fn spec(hosts: &[hetsim::HostId], policy: WritePolicy) -> PipelineSpec {
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

/// Tile-owned compositing with the merge group on hosts 2 and 3.
fn tiled_spec(hosts: &[hetsim::HostId]) -> PipelineSpec {
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

/// One-row tiles and an inflated per-entry merge cost so a mid-run merge
/// crash has real fragment traffic in flight.
fn tiled_fault_cfg(hosts: &[hetsim::HostId]) -> dcapp::SharedConfig {
    let mut cfg = dcapp::AppConfig::new(test_dataset(7), vec![hosts[0]], 2, 96, 96);
    cfg.iso = 0.5;
    cfg.tile_size = 1;
    cfg.cost.merge_per_entry = 2.0e-3;
    Arc::new(cfg)
}

/// The recovered run's invariants against its same-substrate fault-free
/// baseline.
///
/// `dead_from_start` plans cannot guarantee replay traffic: the reaper
/// may evict the dead set's writers before the first producer send, in
/// which case routing around the corpse is the whole recovery. Mid-run
/// plans are the opposite: traffic is in flight, so retained buffers
/// must move.
///
/// `exact_totals` pins the per-stream delivery totals, which needs both
/// a dead-from-start victim (it consumed nothing) *and* no surviving
/// stage whose per-copy batching changes — losing one of two extract
/// copies means one final partial `TriBatch` flush instead of two, so
/// the FourStage shape shifts totals even when the victim never ran.
fn assert_lossless(
    label: &str,
    clean: &dcapp::PipelineResult,
    faulted: &dcapp::PipelineResult,
    dead_from_start: bool,
    exact_totals: bool,
) {
    let f = &faulted.report.faults;
    assert!(f.copies_killed >= 1, "{label}: the victim must die: {f}");
    assert_eq!(f.buffers_lost, 0, "{label}: lossless loses nothing: {f}");
    assert_eq!(f.bytes_lost, 0, "{label}: {f}");
    assert!(!f.degraded, "{label}: zero loss is not degraded: {f}");
    if !dead_from_start {
        assert!(
            f.buffers_redelivered > 0,
            "{label}: mid-run recovery must actually move retained traffic: {f}"
        );
    }
    assert_eq!(
        faulted.image().diff_pixels(clean.image()),
        0,
        "{label}: recovered image must be bit-identical to fault-free"
    );
    assert_eq!(
        recovery_digest(faulted),
        recovery_digest(clean),
        "{label}: image+loss digest must match fault-free"
    );
    if exact_totals {
        assert_eq!(
            stream_totals_digest(faulted),
            stream_totals_digest(clean),
            "{label}: dead-from-start recovery delivers every seq exactly once"
        );
    }
}

/// The tentpole acceptance matrix: a dead-from-start crash of one extract
/// host under RR, WRR, and DD completes with `lost == 0`, bit-identical
/// pixels, and exactly invariant stream totals — on both substrates.
#[test]
fn lossless_dead_start_crash_bit_identical_all_policies_both_substrates() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(7), vec![hosts[0]], 96);
    for policy in [
        WritePolicy::RoundRobin,
        WritePolicy::WeightedRoundRobin,
        WritePolicy::demand_driven(),
    ] {
        let spec = spec(&hosts, policy);
        let plan = || FaultPlan::new().crash_host(hosts[2], SimTime::ZERO);
        let opts = || FaultOptions::new(plan()).liveness_timeout(ms(2));

        for sub in ["sim", "native"] {
            let clean = Render::new(&cfg, &spec)
                .executor(executor(sub))
                .go(&topo)
                .expect("fault-free run");
            let faulted = Render::new(&cfg, &spec)
                .executor(executor(sub))
                .faults(opts())
                .go(&topo)
                .expect("lossless run completes");
            let label = format!("{sub}/{}", policy.label());
            assert_lossless(&label, &clean, &faulted, true, false);
        }
    }
}

/// Same matrix entry for the tile-hash policy: a dead-from-start crash of
/// one tile-owning merge set re-routes every fragment to the survivor
/// (linear-probe fall-through), which flushes all tiles — `lost == 0`,
/// identical pixels, exact totals, both substrates.
#[test]
fn lossless_dead_start_tile_hash_merge_crash_both_substrates() {
    let (topo, hosts) = cluster(5);
    let cfg = tiled_fault_cfg(&hosts);
    let spec = tiled_spec(&hosts);
    let plan = || FaultPlan::new().crash_host(hosts[3], SimTime::ZERO);
    let opts = || FaultOptions::new(plan()).liveness_timeout(ms(2));

    for sub in ["sim", "native"] {
        let clean = Render::new(&cfg, &spec)
            .executor(executor(sub))
            .go(&topo)
            .expect("fault-free run");
        let faulted = Render::new(&cfg, &spec)
            .executor(executor(sub))
            .faults(opts())
            .go(&topo)
            .expect("lossless tiled run completes");
        assert_lossless(&format!("{sub}/tile-hash"), &clean, &faulted, true, true);
    }
}

/// Mid-run crashes per policy (simulator, where the crash instant is
/// deterministic): the dead copy has consumed-but-unsettled buffers, so
/// totals shift, but the image stays bit-identical and nothing is lost.
#[test]
fn lossless_mid_run_crash_renders_identical_image_per_policy() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(7), vec![hosts[0]], 96);
    for policy in [
        WritePolicy::RoundRobin,
        WritePolicy::WeightedRoundRobin,
        WritePolicy::demand_driven(),
    ] {
        let spec = spec(&hosts, policy);
        let clean = Render::new(&cfg, &spec).go(&topo).expect("fault-free run");
        let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(0.25);
        let plan = FaultPlan::new().crash_host(hosts[2], crash_at);
        let opts = FaultOptions::new(plan).liveness_timeout(ms(2));
        let faulted = Render::new(&cfg, &spec)
            .faults(opts)
            .go(&topo)
            .expect("lossless mid-run crash completes");
        assert_lossless(
            &format!("sim-midrun/{}", policy.label()),
            &clean,
            &faulted,
            false,
            false,
        );
    }
}

/// Mid-run death of a tile-owning merge copy: the survivor rebuilds the
/// dead set's partially composited tiles from redelivered retained
/// fragments, so the assembled image is still bit-identical.
#[test]
fn lossless_mid_run_tile_merge_crash_rebuilds_dead_tiles() {
    let (topo, hosts) = cluster(5);
    let cfg = tiled_fault_cfg(&hosts);
    let spec = tiled_spec(&hosts);
    let clean = Render::new(&cfg, &spec).go(&topo).expect("fault-free run");
    let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(0.12);
    let plan = FaultPlan::new().crash_host(hosts[3], crash_at);
    let opts = FaultOptions::new(plan).liveness_timeout(ms(10));
    let faulted = Render::new(&cfg, &spec)
        .faults(opts)
        .go(&topo)
        .expect("lossless tiled mid-run crash completes");
    assert_lossless("sim-midrun/tile-hash", &clean, &faulted, false, false);
}

/// The retired `ablation_faults` bin's geometry, now a gate (ROADMAP
/// item 0 names the recovered arm): `small_dataset` on two Blue nodes
/// with half of node 0's files moved to node 1 (the fig-7 skew), extract
/// on two Rogue nodes, Z-buffer raster and merge back on Blue; one
/// extract host crashes at 5 % of the clean run — early, because the
/// R→E stream is only busy during the opening of the run. Every policy
/// recovers exactly. (The name predates retention, when a second,
/// loss-accounted arm ran beside this one.)
#[test]
fn early_extract_crash_on_skewed_storage_recovered_and_degraded_arms() {
    let (topo, rogues, blues) = hetsim::presets::rogue_blue_mix(2);
    let mut cfg = dcapp::AppConfig::new(small_dataset(), blues.clone(), 2, 512, 512);
    cfg.iso = 0.5;
    cfg.placement = volume::FilePlacement::skewed(64, 2, 2, &[0], &[1], 50);
    let cfg = Arc::new(cfg);
    let reference = dcapp::reference_image(&cfg);
    for policy in [
        WritePolicy::RoundRobin,
        WritePolicy::WeightedRoundRobin,
        WritePolicy::demand_driven(),
    ] {
        let label = policy.label();
        let spec = PipelineSpec {
            grouping: Grouping::FourStage {
                extract: Placement::one_per_host(&rogues),
                raster: Placement::on_host(blues[1], 1),
            },
            algorithm: Algorithm::ZBuffer,
            policy,
            merge_host: blues[0],
        };
        let clean = Render::new(&cfg, &spec).go(&topo).expect("clean run");
        assert_eq!(clean.image().diff_pixels(&reference), 0, "{label}: clean");
        let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(0.05);
        let plan = FaultPlan::new().crash_host(rogues[1], crash_at);
        let recovered = Render::new(&cfg, &spec)
            .faults(FaultOptions::new(plan))
            .go(&topo)
            .expect("recovered run");
        assert_eq!(recovered.report.faults.copies_killed, 1, "{label}");
        assert_lossless(&format!("skewed/{label}"), &clean, &recovered, false, false);
    }
}

/// A counter-example the property test below once found: RR, extract
/// crash on `hosts[1]`, `test_dataset(79)`, 64×64. The
/// surviving extract copy consumes its end-of-work before the victim
/// dies, so the victim's retained buffers can only come back if the
/// survivor keeps reading until the victim's reaper has drained it.
fn crash_after_survivor_ends(frac: f64) {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(79), vec![hosts[0]], 64);
    let spec = spec(&hosts, WritePolicy::RoundRobin);
    let clean = Render::new(&cfg, &spec).go(&topo).expect("fault-free run");
    let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(frac);
    let plan = FaultPlan::new().crash_host(hosts[1], crash_at);
    let opts = FaultOptions::new(plan).liveness_timeout(ms(2));
    let faulted = Render::new(&cfg, &spec)
        .faults(opts)
        .go(&topo)
        .expect("lossless run completes");
    assert_lossless(&format!("seed 79 @ {frac}"), &clean, &faulted, false, false);
}

/// The crash lands while the victim still has queued work: once read
/// `lost 17` with 57 wrong pixels.
#[test]
fn rr_crash_after_survivor_ends_keeps_every_pixel() {
    crash_after_survivor_ends(0.45);
}

/// The crash lands later, with the victim's journal still unsettled: once
/// read `lost 21`.
#[test]
fn rr_late_crash_after_survivor_ends_loses_nothing() {
    crash_after_survivor_ends(0.5156);
}

/// `R–E–Ra–M` on `cluster(6)` with three extract copies, on hosts 1–3.
fn three_extract_spec(hosts: &[hetsim::HostId], policy: WritePolicy) -> PipelineSpec {
    PipelineSpec {
        grouping: Grouping::FourStage {
            extract: Placement::one_per_host(&hosts[1..4]),
            raster: Placement::on_host(hosts[4], 1),
        },
        algorithm: Algorithm::ZBuffer,
        policy,
        merge_host: hosts[5],
    }
}

/// A crash plan on which every extract copy of [`three_extract_spec`]
/// waits for a peer: `hosts[1]` is scheduled to crash an hour after the
/// run ends and `hosts[3]` at `at_us`. A copy keeps reading after its
/// end-of-work until every peer set that can die has ended, so the copies
/// on `hosts[1]` and `hosts[3]` watch each other and the one on
/// `hosts[2]`, the only set with no scheduled death, watches both. Its
/// set is the one a dead set's reaper retargets to.
fn waiting_crash_plan(hosts: &[hetsim::HostId], at_us: u64) -> FaultOptions {
    let plan = FaultPlan::new()
        .crash_host(hosts[1], SimTime::ZERO + SimDuration::from_secs(3600))
        .crash_host(hosts[3], SimTime::ZERO + SimDuration::from_micros(at_us));
    FaultOptions::new(plan).liveness_timeout(ms(3))
}

/// A waiting copy's host crashes. Under [`waiting_crash_plan`] the copy
/// on `hosts[3]` takes its token at 190.5 ms, the one on `hosts[2]` at
/// 306.6 ms and the one on `hosts[1]` at 362.0 ms, which releases all
/// three; each polls every 3 ms, so `hosts[2]`'s copy leaves at 363.6 ms
/// and `hosts[3]`'s at 364.5 ms. Each arm crashes `hosts[3]` inside its
/// wait:
///
/// - at 250 ms its reads still return redelivered data, so it must die at
///   the next one instead of flushing output past its death, and its
///   journal is retargeted to the working set on `hosts[2]`;
/// - at 361.7 ms every other copy but `hosts[1]`'s has ended, and the
///   waiting `hosts[2]` copy must still wait for its reaper, or it
///   finishes before the journal reaches it;
/// - at 364.0 ms `hosts[2]`'s copy has already left, so the retargeted
///   journal lands where nobody reads it and is counted lost. A blocking
///   send into that queue would hang the reaper, and the run.
///
/// Only the first two arms can recover; the third must finish with an
/// honest ledger.
#[test]
fn copy_whose_host_crashes_while_it_waits_dies_and_is_retargeted() {
    let (topo, hosts) = cluster(6);
    let cfg = test_cfg(test_dataset(7), vec![hosts[0]], 96);
    let spec = three_extract_spec(&hosts, WritePolicy::RoundRobin);
    let clean = Render::new(&cfg, &spec).go(&topo).expect("fault-free run");
    for (at_us, recovered) in [(250_000, true), (361_700, true), (364_000, false)] {
        let faulted = Render::new(&cfg, &spec)
            .faults(waiting_crash_plan(&hosts, at_us))
            .go(&topo)
            .expect("lossless run completes");
        let f = &faulted.report.faults;
        let label = format!("crash at {at_us} us");
        assert_eq!(f.copies_killed, 1, "{label}: {f}");
        if recovered {
            assert_lossless(&label, &clean, &faulted, false, false);
        } else {
            let diff = faulted.image().diff_pixels(clean.image());
            assert!(diff == 0 || f.buffers_lost > 0, "{label}: {diff} px: {f}");
            assert_eq!(f.degraded, f.buffers_lost > 0, "{label}: {f}");
        }
    }
}

/// The last arm above over two units of work: the copy on `hosts[2]` has
/// left UOW 0 when `hosts[3]` dies, and reads the retargeted journal in
/// UOW 1. Those replicas carry UOW 0, so it drops them instead of drawing
/// timestep 0's triangles into timestep 1's image; they stay retained and
/// are counted lost.
#[test]
fn replicas_of_a_unit_of_work_already_left_are_not_mixed_into_the_next() {
    let (topo, hosts) = cluster(6);
    let cfg = test_cfg(test_dataset(7), vec![hosts[0]], 96);
    let spec = three_extract_spec(&hosts, WritePolicy::RoundRobin);
    let clean = Render::new(&cfg, &spec)
        .uows(2)
        .go(&topo)
        .expect("fault-free run");
    let faulted = Render::new(&cfg, &spec)
        .faults(waiting_crash_plan(&hosts, 364_000))
        .uows(2)
        .go(&topo)
        .expect("two-UOW run completes");
    let f = &faulted.report.faults;
    assert_eq!(f.copies_killed, 1, "{f}");
    for (uow, (got, want)) in faulted.images.iter().zip(&clean.images).enumerate() {
        assert_eq!(got.diff_pixels(want), 0, "UOW {uow}: {f}");
    }
    assert_eq!(f.degraded, f.buffers_lost > 0, "{f}");
}

/// Retention has no depth: an entry leaves its ring only when a consumer
/// settles it or the run ends. The tile-owning merge copy on `hosts[3]`
/// dies at 18 % of the clean run, the latest instant at which it still
/// holds fragments (it has finished by 20 %), so its journal and queue
/// are at their longest. Every fragment comes back — more than a
/// two-entry ring would hold — and the survivor rebuilds the dead set's
/// tiles.
#[test]
fn retention_overflow_never_loses_pixels_silently() {
    let (topo, hosts) = cluster(5);
    let cfg = tiled_fault_cfg(&hosts);
    let spec = tiled_spec(&hosts);
    let clean = Render::new(&cfg, &spec).go(&topo).expect("fault-free run");
    let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(0.18);
    let plan = FaultPlan::new().crash_host(hosts[3], crash_at);
    let opts = FaultOptions::new(plan).liveness_timeout(ms(10));
    let faulted = Render::new(&cfg, &spec)
        .faults(opts)
        .go(&topo)
        .expect("run completes");
    let f = &faulted.report.faults;
    assert_eq!(f.copies_killed, 1, "{f}");
    assert_eq!(f.buffers_lost, 0, "{f}");
    assert_eq!(faulted.image().diff_pixels(clean.image()), 0, "{f}");
    assert!(f.buffers_redelivered > 2, "more than two retained: {f}");
}

/// Randomized acceptance: seeded datasets, any writer policy, either
/// extract host, any crash instant in the first 60% of the run — every
/// combination recovers to `lost == 0` and the exact fault-free image.
/// The `fault-heavy` feature runs four times the cases.
mod recovery_props {
    use super::*;
    use proptest::prelude::*;

    fn cases() -> u32 {
        if cfg!(feature = "fault-heavy") {
            128
        } else {
            32
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]
        #[test]
        fn seeded_crash_plans_recover_lossless(
            policy_idx in 0usize..3,
            victim in 1usize..=2,
            frac in 0.0f64..0.6,
            seed in 1u64..200,
        ) {
            let (topo, hosts) = cluster(5);
            let cfg = test_cfg(test_dataset(seed), vec![hosts[0]], 64);
            let policy = [
                WritePolicy::RoundRobin,
                WritePolicy::WeightedRoundRobin,
                WritePolicy::demand_driven(),
            ][policy_idx];
            let spec = spec(&hosts, policy);
            let clean = Render::new(&cfg, &spec).go(&topo).expect("fault-free run");
            let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(frac);
            let plan = FaultPlan::new().crash_host(hosts[victim], crash_at);
            let opts =
                FaultOptions::new(plan).liveness_timeout(ms(2));
            let faulted = Render::new(&cfg, &spec).faults(opts).go(&topo)
                .expect("lossless run completes");
            let f = &faulted.report.faults;
            prop_assert_eq!(f.buffers_lost, 0, "lossless loses nothing: {}", f);
            prop_assert_eq!(f.bytes_lost, 0, "{}", f);
            prop_assert!(!f.degraded, "{}", f);
            prop_assert_eq!(
                faulted.image().diff_pixels(clean.image()),
                0,
                "recovered image must match fault-free pixels"
            );
            prop_assert_eq!(recovery_digest(&faulted), recovery_digest(&clean));
        }
    }
}

/// Only a plan that can kill copies retains. An empty plan and a
/// drop/delay-only plan stamp nothing: on the simulator a stamp would add
/// settle traffic to the ack couriers, so the empty plan's metrics match
/// the fault-free run's and the drop/delay plan's match a digest pinned on
/// a runtime that never retained without a crash.
#[test]
fn lossless_empty_plan_is_quiet_and_correct() {
    const DROP_DELAY_METRICS: u64 = 0x9eb1_2cb8_311f_750a;
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(11), vec![hosts[0]], 96);
    let spec = spec(&hosts, WritePolicy::demand_driven());
    let clean = Render::new(&cfg, &spec).go(&topo).expect("fault-free run");

    let empty = Render::new(&cfg, &spec)
        .faults(FaultOptions::new(FaultPlan::new()))
        .go(&topo)
        .expect("empty-plan run");
    assert_eq!(
        metrics_digest(&empty),
        metrics_digest(&clean),
        "empty plan stamped"
    );
    let chaos = FaultPlan::new()
        .drop_messages(0xD00D, 0.08)
        .delay_messages(0xD1A7, 0.10, ms(1));
    let lossy = Render::new(&cfg, &spec)
        .faults(FaultOptions::new(chaos))
        .go(&topo)
        .expect("drop/delay run");
    assert!(
        lossy.report.faults.retransmits > 0,
        "{}",
        lossy.report.faults
    );
    assert_eq!(lossy.image().diff_pixels(clean.image()), 0);
    assert_eq!(
        metrics_digest(&lossy),
        DROP_DELAY_METRICS,
        "drop/delay plan stamped"
    );
}
