//! Fault injection and recovery: the milestone's acceptance scenarios.
//!
//! A mid-run crash of one extract host must leave the rendered image
//! bit-identical to the fault-free run under every writer policy: every
//! buffer that was queued at (or still in flight to) the dead copy set
//! comes back to the survivor from its producer's retention. A run loses
//! buffers only when no live consumer is left to take them; it then
//! completes *degraded* and accounts for every lost buffer, or fails when
//! degraded completion is disallowed.

use std::sync::Arc;

use datacutter::{
    FaultOptions, Filter, FilterCtx, FilterError, GraphBuilder, NativeExecutor, Placement, Run,
    RunError, SimExecutor, WritePolicy,
};
use dcapp::{Algorithm, Grouping, PipelineSpec, Render};
use hetsim::{FaultPlan, SimDuration, SimTime};
use integration_tests::{cluster, test_cfg, test_dataset};

/// `R–E–Ra–M` with the extract stage replicated on hosts 1 and 2 (so one
/// of them can die and leave a survivor), raster on host 3, merge on
/// host 4, all data on host 0.
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

#[test]
fn dd_crash_mid_uow_replays_to_bit_identical_output() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(7), vec![hosts[0]], 96);
    let spec = spec(&hosts, WritePolicy::demand_driven());

    let clean = Render::new(&cfg, &spec).go(&topo).expect("fault-free run");
    assert!(clean.report.faults.injected.is_empty());

    // Kill one extract host while the R->E stream is busy.
    let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(0.25);
    let plan = FaultPlan::new().crash_host(hosts[2], crash_at);
    let faulted = Render::new(&cfg, &spec)
        .faults(FaultOptions::new(plan))
        .go(&topo)
        .expect("faulted run must still complete");

    let f = &faulted.report.faults;
    assert!(!f.injected.is_empty(), "the plan must be recorded");
    assert!(
        f.copies_killed >= 1,
        "the copy on the dead host dies: {f:?}"
    );
    assert!(
        f.buffers_redelivered > 0,
        "retained buffers redelivered: {f:?}"
    );
    assert_eq!(f.buffers_lost, 0, "redelivery loses nothing: {f:?}");
    assert!(!f.degraded, "nothing lost, so not degraded: {f:?}");
    assert_eq!(
        faulted.image().diff_pixels(clean.image()),
        0,
        "replayed run must render the exact fault-free image"
    );
}

/// Round robin has no acks to replay from, yet an early extract crash
/// loses nothing: the chunks routed to the dead set come back from the
/// storage filter's retention. (The name predates retention, when this
/// crash lost buffers.)
#[test]
fn rr_crash_completes_degraded_with_losses_accounted() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(7), vec![hosts[0]], 96);
    let spec = spec(&hosts, WritePolicy::RoundRobin);

    let clean = Render::new(&cfg, &spec).go(&topo).expect("fault-free run");
    // Early crash: the raster/merge tail dominates total elapsed, so only
    // an early failure lands while the R->E stream is still busy.
    let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(0.05);
    let plan = FaultPlan::new().crash_host(hosts[2], crash_at);
    let faulted = Render::new(&cfg, &spec)
        .faults(FaultOptions::new(plan))
        .go(&topo)
        .expect("run must complete");

    let f = &faulted.report.faults;
    assert!(f.copies_killed >= 1, "{f:?}");
    assert!(f.buffers_redelivered > 0, "retention redelivers: {f:?}");
    assert_eq!(f.buffers_lost, 0, "{f:?}");
    assert_eq!(f.bytes_lost, 0, "{f:?}");
    assert!(!f.degraded, "{f:?}");
    assert_eq!(faulted.image().diff_pixels(clean.image()), 0);
}

/// With degraded completion disallowed, a crash that leaves no surviving
/// consumer set fails the run: the only extract host dies early, so the
/// chunks retained for it have nowhere to go.
#[test]
fn rr_crash_fails_fast_when_degraded_mode_disallowed() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(7), vec![hosts[0]], 96);
    let spec = PipelineSpec {
        grouping: Grouping::FourStage {
            extract: Placement::on_host(hosts[2], 1),
            raster: Placement::on_host(hosts[3], 1),
        },
        ..spec(&hosts, WritePolicy::RoundRobin)
    };

    let clean = Render::new(&cfg, &spec).go(&topo).expect("fault-free run");
    let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(0.05);
    let plan = FaultPlan::new().crash_host(hosts[2], crash_at);
    let opts = FaultOptions::new(plan).allow_degraded(false);
    match Render::new(&cfg, &spec).faults(opts).go(&topo) {
        Err(RunError::NoSurvivingConsumers { stream }) => {
            assert!(!stream.is_empty());
        }
        Err(other) => panic!("expected NoSurvivingConsumers, got {other}"),
        Ok(_) => panic!("expected NoSurvivingConsumers, got a completed run"),
    }
}

/// A source copy dies with its storage host: the read loop sees its
/// death at the next chunk, the run completes, and the chunks the dead
/// copy never read are missing from the image.
#[test]
fn source_copy_dies_with_its_storage_host() {
    let (topo, hosts) = cluster(4);
    let spec = PipelineSpec {
        grouping: Grouping::RERaSplit {
            raster: Placement::on_host(hosts[2], 1),
        },
        algorithm: Algorithm::ZBuffer,
        policy: WritePolicy::demand_driven(),
        merge_host: hosts[3],
    };
    let cfg = test_cfg(test_dataset(7), vec![hosts[0], hosts[1]], 96);
    let clean = Render::new(&cfg, &spec).go(&topo).expect("fault-free run");
    let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(0.05);
    let plan = FaultPlan::new().crash_host(hosts[1], crash_at);
    let faulted = Render::new(&cfg, &spec)
        .faults(FaultOptions::new(plan))
        .go(&topo)
        .expect("run completes without the dead node's remaining chunks");
    let f = &faulted.report.faults;
    assert_eq!(f.copies_killed, 1, "{f:?}");
    assert!(
        faulted.image().diff_pixels(clean.image()) > 0,
        "the chunks the dead copy never read are missing"
    );
}

/// A crash of the merge host kills the merge's only copy, so the run
/// deposits no image. On both executors that is a structured error
/// naming the stream into `M`, not a panic.
#[test]
fn merge_host_crash_is_a_structured_error_on_both_executors() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(7), vec![hosts[0]], 96);
    let spec = spec(&hosts, WritePolicy::demand_driven());
    let opts = || FaultOptions::new(FaultPlan::new().crash_host(hosts[4], SimTime::ZERO));
    let runs = [
        ("sim", Render::new(&cfg, &spec).faults(opts()).go(&topo)),
        (
            "native",
            Render::new(&cfg, &spec)
                .executor(NativeExecutor::new())
                .faults(opts())
                .go(&topo),
        ),
    ];
    for (label, run) in runs {
        match run {
            Err(RunError::NoSurvivingConsumers { stream }) => {
                assert_eq!(stream, "Ra->M", "{label}");
            }
            Err(other) => panic!("{label}: expected NoSurvivingConsumers, got {other}"),
            Ok(_) => panic!("{label}: a run without its merge copy has no image"),
        }
    }
}

#[test]
fn empty_plan_is_bit_identical_to_unfaulted_runtime() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(11), vec![hosts[0]], 96);
    let spec = spec(&hosts, WritePolicy::demand_driven());

    let clean = Render::new(&cfg, &spec).go(&topo).expect("run");
    let nofault = Render::new(&cfg, &spec)
        .faults(FaultOptions::new(FaultPlan::new()))
        .go(&topo)
        .expect("run");
    assert_eq!(
        nofault.elapsed, clean.elapsed,
        "empty plan must not perturb time"
    );
    assert_eq!(nofault.image().diff_pixels(clean.image()), 0);
    assert_eq!(nofault.report.faults.copies_killed, 0);
}

#[test]
fn stall_delays_but_preserves_output() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(13), vec![hosts[0]], 96);
    let spec = spec(&hosts, WritePolicy::demand_driven());

    let clean = Render::new(&cfg, &spec).go(&topo).expect("run");
    // Freeze the single raster copy: it is on the critical path, so the
    // whole window must show up in the elapsed time.
    let at = SimTime::ZERO + clean.elapsed.mul_f64(0.2);
    let plan = FaultPlan::new().stall_host(hosts[3], at, SimDuration::from_millis(200));
    let stalled = Render::new(&cfg, &spec)
        .faults(FaultOptions::new(plan))
        .go(&topo)
        .expect("stalled run");
    assert_eq!(
        stalled.image().diff_pixels(clean.image()),
        0,
        "a stall loses no state"
    );
    assert!(stalled.elapsed > clean.elapsed, "the freeze must cost time");
    assert_eq!(stalled.report.faults.copies_killed, 0);
}

#[test]
fn message_drops_force_retransmits_but_preserve_output() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(17), vec![hosts[0]], 96);
    let spec = spec(&hosts, WritePolicy::demand_driven());

    let clean = Render::new(&cfg, &spec).go(&topo).expect("run");
    let plan = FaultPlan::new().drop_messages(0xD00D, 0.08);
    let lossy = Render::new(&cfg, &spec)
        .faults(FaultOptions::new(plan))
        .go(&topo)
        .expect("lossy run");
    let f = &lossy.report.faults;
    assert!(
        f.retransmits > 0,
        "an 8% drop rate must hit something: {f:?}"
    );
    assert_eq!(
        f.buffers_lost, 0,
        "drops retransmit, they do not lose: {f:?}"
    );
    assert_eq!(lossy.image().diff_pixels(clean.image()), 0);
}

// ---- tile-composite merge-group crashes -----------------------------------

/// `RE–Ra–Mt–A` with the merge group split across hosts 2 and 3, which
/// run **nothing else** — so crashing host 3 kills exactly one merge
/// copy. Storage and RE sit on host 0, raster on host 1, the assembler
/// on host 4.
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

/// Config tuned so the merge-group crash actually has fragments in
/// flight: one-row tiles fan each WPA batch out into many fragments, and
/// an inflated per-entry merge cost keeps the merge copies' queues deep
/// for most of the run instead of draining each burst instantly.
fn tiled_fault_cfg(hosts: &[hetsim::HostId]) -> dcapp::SharedConfig {
    let mut cfg = dcapp::AppConfig::new(test_dataset(7), vec![hosts[0]], 2, 96, 96);
    cfg.iso = 0.5;
    cfg.tile_size = 1;
    cfg.cost.merge_per_entry = 2.0e-3;
    Arc::new(cfg)
}

/// Conservation on the tile-hash stream: every fragment the raster stage
/// shipped was dequeued by a merge copy or tallied as lost, and a
/// fragment is dequeued twice only when a replica of it was redelivered.
/// A copy that dies mid-run dequeued its journal before dying, and the
/// survivor dequeues it again, so the law is a bound; a copy dead from the
/// start dequeues nothing, so `exact` pins equality.
fn assert_tile_stream_conservation(r: &dcapp::PipelineResult, exact: bool) {
    let produced: u64 = r
        .report
        .copies
        .iter()
        .filter(|c| c.filter_name == "Ra")
        .map(|c| c.counters.buffers_out)
        .sum();
    let consumed = r
        .report
        .streams
        .iter()
        .find(|s| s.stream == r.to_merge)
        .expect("the Ra->Mt stream must be reported")
        .total_buffers();
    let lost = r.report.faults.buffers_lost;
    let redelivered = r.report.faults.buffers_redelivered;
    let law = format!("consumed {consumed} + lost {lost} vs produced {produced}");
    assert!(consumed + lost >= produced, "fragments vanished: {law}");
    assert!(
        consumed <= produced + redelivered,
        "duplicates beyond {redelivered} redelivered: {law}"
    );
    if exact {
        assert_eq!(consumed + lost, produced, "{law}");
    }
}

/// A merge copy dies mid-run under demand-driven sources and tile-hash
/// fragment routing. The tile-hash writer has no acks to replay, but the
/// fragments the dead set held — queued or consumed — come back from
/// the raster stage's retention, later fragments for the dead set's tiles
/// go to the survivor (compositing is commutative, so any copy can absorb
/// any tile), and nothing is lost.
#[test]
fn tiled_merge_copy_crash_recovers_with_exact_conservation() {
    let (topo, hosts) = cluster(5);
    let cfg = tiled_fault_cfg(&hosts);
    let spec = tiled_spec(&hosts);

    let clean = Render::new(&cfg, &spec).go(&topo).expect("fault-free run");
    // The crash must land while the Ra->Mt stream is busy: early enough
    // that the merge copies are still working through their queues (the
    // assembly fold dominates the tail of the run), late enough that
    // fragments have reached the doomed set.
    let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(0.12);
    let plan = FaultPlan::new().crash_host(hosts[3], crash_at);
    let opts = FaultOptions::new(plan).liveness_timeout(SimDuration::from_millis(10));
    let faulted = Render::new(&cfg, &spec)
        .faults(opts)
        .go(&topo)
        .expect("run must survive a dead merge copy");

    let f = &faulted.report.faults;
    assert_eq!(f.copies_killed, 1, "only the host-3 Mt copy dies: {f:?}");
    assert!(f.buffers_redelivered > 0, "retention redelivers: {f:?}");
    assert_eq!(f.buffers_lost, 0, "{f:?}");
    assert!(!f.degraded, "{f:?}");
    assert_eq!(faulted.image().diff_pixels(clean.image()), 0);
    assert_tile_stream_conservation(&faulted, false);
}

/// The same scenario on real threads, with the merge copy dead from the
/// first observation point so the accounting is timing-independent: the
/// run completes, loses nothing and conservation is exact regardless of
/// how many fragments raced into the dead set before detection.
#[test]
fn native_tiled_merge_copy_crash_conserves_fragments() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(7), vec![hosts[0]], 96);
    let spec = tiled_spec(&hosts);

    let plan = FaultPlan::new().crash_host(hosts[3], SimTime::ZERO);
    let faulted = Render::new(&cfg, &spec)
        .executor(NativeExecutor::new())
        .faults(FaultOptions::new(plan).liveness_timeout(SimDuration::from_millis(2)))
        .go(&topo)
        .expect("native run must survive a dead merge copy");

    let f = &faulted.report.faults;
    assert_eq!(f.copies_killed, 1, "only the host-3 Mt copy dies: {f:?}");
    assert_eq!(f.buffers_lost, 0, "{f:?}");
    assert_tile_stream_conservation(&faulted, true);
}

// ---- native (wall-clock) chaos scenarios ---------------------------------
//
// The same fault plans, interpreted on the native executor's wall-clock
// axis. Scenarios are built to have timing-independent accounting (a host
// dead from t=0 kills exactly its copies on both substrates) so the
// sim-vs-native parity assertions hold despite real-thread scheduling.

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

/// The acceptance parity scenario: one extract host dead from the first
/// observation point, demand-driven routing on both substrates. The kill
/// count and the loss accounting must match the equivalent sim run, and
/// the rendered image must be bit-identical across substrates (merging is
/// order-independent, and redelivery loses nothing).
#[test]
fn native_dd_crash_matches_sim_loss_accounting_and_pixels() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(7), vec![hosts[0]], 96);
    let spec = spec(&hosts, WritePolicy::demand_driven());
    let clean = Render::new(&cfg, &spec).go(&topo).expect("fault-free run");

    let plan = FaultPlan::new().crash_host(hosts[2], SimTime::ZERO);
    let sim = Render::new(&cfg, &spec)
        .executor(SimExecutor::new())
        .faults(FaultOptions::new(plan.clone()).liveness_timeout(ms(2)))
        .go(&topo)
        .expect("sim faulted run");
    let nat = Render::new(&cfg, &spec)
        .executor(NativeExecutor::new())
        .faults(FaultOptions::new(plan).liveness_timeout(ms(2)))
        .go(&topo)
        .expect("native faulted run must still complete");

    for (label, f) in [("sim", &sim.report.faults), ("native", &nat.report.faults)] {
        assert_eq!(
            f.copies_killed, 1,
            "{label}: exactly the host-2 extract copy dies: {f:?}"
        );
        assert_eq!(f.buffers_lost, 0, "{label}: recovery loses nothing: {f:?}");
        assert!(!f.degraded, "{label}: nothing lost, not degraded: {f:?}");
    }
    assert_eq!(sim.image().diff_pixels(clean.image()), 0);
    assert_eq!(
        nat.image().diff_pixels(sim.image()),
        0,
        "native chaos run must render the sim run's exact pixels"
    );
}

/// Seeded message drops and per-message delay injection on real threads:
/// the chaos layer retransmits and delays but must not lose anything, and
/// the image stays bit-identical to the fault-free native run.
#[test]
fn native_drops_and_delays_preserve_output() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(17), vec![hosts[0]], 96);
    let spec = spec(&hosts, WritePolicy::demand_driven());
    let clean = Render::new(&cfg, &spec)
        .executor(NativeExecutor::new())
        .go(&topo)
        .expect("clean run");

    let chaos = FaultPlan::new()
        .drop_messages(0xD00D, 0.08)
        .delay_messages(0xD1A7, 0.10, us(200));
    let lossy = Render::new(&cfg, &spec)
        .executor(NativeExecutor::new())
        .faults(FaultOptions::new(chaos).liveness_timeout(ms(2)))
        .go(&topo)
        .expect("lossy native run");
    let f = &lossy.report.faults;
    assert!(f.retransmits > 0, "8% drops must hit something: {f:?}");
    assert!(
        f.messages_delayed > 0,
        "10% delays must hit something: {f:?}"
    );
    assert_eq!(
        f.buffers_lost, 0,
        "drops retransmit, they do not lose: {f:?}"
    );
    assert_eq!(lossy.image().diff_pixels(clean.image()), 0);
}

// ---- panic containment ------------------------------------------------------

const CHAOS_BUFFERS: u32 = 64;

/// A small src -> sink graph whose only sink copy panics in `process`.
fn panicking_sink_graph(
    src_host: hetsim::HostId,
    sink_host: hetsim::HostId,
) -> datacutter::AppGraph {
    struct Src;
    impl Filter for Src {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            for i in 0..CHAOS_BUFFERS {
                let b = ctx.buffer_slab().make(i, 256);
                ctx.write(0, b);
            }
            Ok(())
        }
    }
    struct Sink;
    impl Filter for Sink {
        fn process(&mut self, _ctx: &mut FilterCtx) -> Result<(), FilterError> {
            panic!("injected chaos panic");
        }
    }
    let mut g = GraphBuilder::new();
    let s = g.add_filter("src", Placement::on_host(src_host, 1), |_| Src);
    let k = g.add_filter("snk", Placement::on_host(sink_host, 1), |_| Sink);
    g.connect(s, k, WritePolicy::demand_driven());
    g.build()
}

/// Panic containment: with no fault options at all, a panicking filter
/// copy surfaces as a structured `FilterPanic` — on both substrates —
/// instead of crashing the process or leaking a raw `ProcessPanic`.
#[test]
fn filter_panic_is_contained_as_structured_error() {
    let (topo, hosts) = cluster(2);
    for native in [false, true] {
        let mut run = Run::new(panicking_sink_graph(hosts[0], hosts[1]));
        if native {
            run = run.executor(NativeExecutor::new());
        }
        match run.go(&topo) {
            Err(RunError::FilterPanic {
                filter, message, ..
            }) => {
                assert_eq!(filter, "snk");
                assert!(message.contains("injected chaos panic"), "{message}");
            }
            other => panic!("expected FilterPanic (native={native}), got {other:?}"),
        }
    }
}

// ---- retention and redelivery: directed scenarios -------------------------

/// One route back: a mid-run crash of a merge copy whose queue holds
/// originals. The reaper releases those originals and redelivers the
/// retained replicas instead, so the survivor processes each provenance
/// from retention — nothing is lost, and the image matches the
/// fault-free run exactly.
#[test]
fn lossless_mid_run_crash_redelivers_from_retention_only() {
    let (topo, hosts) = cluster(5);
    // The tiled config's inflated per-entry merge cost keeps the merge
    // copies' queues deep for most of the run, so the dead set is
    // guaranteed to hold salvageable originals when it dies.
    let cfg = tiled_fault_cfg(&hosts);
    let spec = tiled_spec(&hosts);
    let clean = Render::new(&cfg, &spec).go(&topo).expect("fault-free run");
    let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(0.12);
    let plan = FaultPlan::new().crash_host(hosts[3], crash_at);
    let opts = FaultOptions::new(plan).liveness_timeout(ms(10));
    let faulted = Render::new(&cfg, &spec)
        .faults(opts)
        .go(&topo)
        .expect("lossless run completes");
    let f = &faulted.report.faults;
    assert!(f.buffers_redelivered > 0, "retention redelivers: {f}");
    assert_eq!(f.buffers_lost, 0, "{f}");
    assert!(!f.degraded, "{f}");
    assert_eq!(
        faulted.image().diff_pixels(clean.image()),
        0,
        "redelivery must render the fault-free pixels"
    );
}

// ---- backoff schedule properties -----------------------------------------

mod backoff_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The storage retry backoff is a pure function of
        /// (seed, key, attempt): identical inputs replay the identical
        /// schedule, every delay stays inside the jittered exponential
        /// envelope `[env/2, env]` with `env = min(base << attempt, cap)`,
        /// and different seeds actually decorrelate the jitter.
        #[test]
        fn backoff_schedule_is_deterministic_and_bounded(
            seed in any::<u64>(),
            key in any::<u64>(),
            base_ms in 1u64..50,
            cap_ms in 50u64..500,
            attempt in 0u32..16,
        ) {
            let base = SimDuration::from_millis(base_ms);
            let cap = SimDuration::from_millis(cap_ms);
            let a = datacutter::backoff_delay(base, cap, seed, key, attempt);
            let b = datacutter::backoff_delay(base, cap, seed, key, attempt);
            prop_assert_eq!(a, b, "same inputs, same delay");

            let envelope = base
                .as_nanos()
                .checked_shl(attempt)
                .unwrap_or(u64::MAX)
                .min(cap.as_nanos());
            prop_assert!(a.as_nanos() >= envelope / 2, "jitter floor: {a:?} vs {envelope}");
            prop_assert!(a.as_nanos() <= envelope, "jitter ceiling: {a:?} vs {envelope}");
        }

        /// Whole-schedule determinism per seed: the first eight retries of
        /// a storage operation replay exactly; perturbing the seed changes
        /// at least one delay (the schedule really is seed-driven).
        #[test]
        fn backoff_schedules_replay_per_seed(
            seed in any::<u64>(),
            key in any::<u64>(),
        ) {
            let base = SimDuration::from_millis(1);
            let cap = SimDuration::from_millis(100);
            let schedule = |s: u64| -> Vec<SimDuration> {
                (0..8).map(|k| datacutter::backoff_delay(base, cap, s, key, k)).collect()
            };
            prop_assert_eq!(schedule(seed), schedule(seed));
            // A different seed must change the schedule.
            let other = schedule(seed ^ 0xA5A5_A5A5_5A5A_5A5A);
            prop_assert_ne!(schedule(seed), other);
        }
    }
}
