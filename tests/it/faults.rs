//! Fault injection and recovery: the milestone's acceptance scenarios.
//!
//! A mid-run crash of one extract host must leave the rendered image
//! bit-identical to the fault-free run under every writer policy: every
//! buffer that was queued at (or still in flight to) the dead copy set
//! comes back to the survivor from its producer's retention. A run loses
//! buffers only when no live consumer is left to take them; it then
//! completes *degraded* and accounts for every lost buffer, or fails when
//! degraded completion is disallowed.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use datacutter::{
    FaultOptions, Filter, FilterCtx, FilterError, GraphBuilder, NativeExecutor, Placement, Run,
    RunError, SimExecutor, SupervisorPolicy, WritePolicy,
};
use dcapp::{Algorithm, Grouping, PipelineSpec};
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

    let clean = dcapp::run_pipeline(&topo, &cfg, &spec).expect("fault-free run");
    assert!(clean.report.faults.injected.is_empty());

    // Kill one extract host while the R->E stream is busy.
    let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(0.25);
    let plan = FaultPlan::new().crash_host(hosts[2], crash_at);
    let faulted = dcapp::run_pipeline_faulted(&topo, &cfg, &spec, FaultOptions::new(plan))
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
        faulted.image.diff_pixels(&clean.image),
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

    let clean = dcapp::run_pipeline(&topo, &cfg, &spec).expect("fault-free run");
    // Early crash: the raster/merge tail dominates total elapsed, so only
    // an early failure lands while the R->E stream is still busy.
    let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(0.05);
    let plan = FaultPlan::new().crash_host(hosts[2], crash_at);
    let faulted = dcapp::run_pipeline_faulted(&topo, &cfg, &spec, FaultOptions::new(plan))
        .expect("run must complete");

    let f = &faulted.report.faults;
    assert!(f.copies_killed >= 1, "{f:?}");
    assert_eq!(f.buffers_replayed, 0, "RR has no acks to replay: {f:?}");
    assert!(f.buffers_redelivered > 0, "retention redelivers: {f:?}");
    assert_eq!(f.buffers_lost, 0, "{f:?}");
    assert_eq!(f.bytes_lost, 0, "{f:?}");
    assert!(!f.degraded, "{f:?}");
    assert_eq!(faulted.image.diff_pixels(&clean.image), 0);
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

    let clean = dcapp::run_pipeline(&topo, &cfg, &spec).expect("fault-free run");
    let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(0.05);
    let plan = FaultPlan::new().crash_host(hosts[2], crash_at);
    let opts = FaultOptions::new(plan).allow_degraded(false);
    match dcapp::run_pipeline_faulted(&topo, &cfg, &spec, opts) {
        Err(RunError::NoSurvivingConsumers { stream }) => {
            assert!(!stream.is_empty());
        }
        Err(other) => panic!("expected NoSurvivingConsumers, got {other}"),
        Ok(_) => panic!("expected NoSurvivingConsumers, got a completed run"),
    }
}

#[test]
fn empty_plan_is_bit_identical_to_unfaulted_runtime() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(11), vec![hosts[0]], 96);
    let spec = spec(&hosts, WritePolicy::demand_driven());

    let clean = dcapp::run_pipeline(&topo, &cfg, &spec).expect("run");
    let nofault =
        dcapp::run_pipeline_faulted(&topo, &cfg, &spec, FaultOptions::new(FaultPlan::new()))
            .expect("run");
    assert_eq!(
        nofault.elapsed, clean.elapsed,
        "empty plan must not perturb time"
    );
    assert_eq!(nofault.image.diff_pixels(&clean.image), 0);
    assert_eq!(nofault.report.faults.copies_killed, 0);
}

#[test]
fn stall_delays_but_preserves_output() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(13), vec![hosts[0]], 96);
    let spec = spec(&hosts, WritePolicy::demand_driven());

    let clean = dcapp::run_pipeline(&topo, &cfg, &spec).expect("run");
    // Freeze the single raster copy: it is on the critical path, so the
    // whole window must show up in the elapsed time.
    let at = SimTime::ZERO + clean.elapsed.mul_f64(0.2);
    let plan = FaultPlan::new().stall_host(hosts[3], at, SimDuration::from_millis(200));
    let stalled = dcapp::run_pipeline_faulted(&topo, &cfg, &spec, FaultOptions::new(plan))
        .expect("stalled run");
    assert_eq!(
        stalled.image.diff_pixels(&clean.image),
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

    let clean = dcapp::run_pipeline(&topo, &cfg, &spec).expect("run");
    let plan = FaultPlan::new().drop_messages(0xD00D, 0.08);
    let lossy = dcapp::run_pipeline_faulted(&topo, &cfg, &spec, FaultOptions::new(plan))
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
    assert_eq!(lossy.image.diff_pixels(&clean.image), 0);
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

    let clean = dcapp::run_pipeline(&topo, &cfg, &spec).expect("fault-free run");
    // The crash must land while the Ra->Mt stream is busy: early enough
    // that the merge copies are still working through their queues (the
    // assembly fold dominates the tail of the run), late enough that
    // fragments have reached the doomed set.
    let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(0.12);
    let plan = FaultPlan::new().crash_host(hosts[3], crash_at);
    let opts = FaultOptions::new(plan).liveness_timeout(SimDuration::from_millis(10));
    let faulted = dcapp::run_pipeline_faulted(&topo, &cfg, &spec, opts)
        .expect("run must survive a dead merge copy");

    let f = &faulted.report.faults;
    assert_eq!(f.copies_killed, 1, "only the host-3 Mt copy dies: {f:?}");
    assert_eq!(
        f.buffers_replayed, 0,
        "tile-hash has no acks to replay: {f:?}"
    );
    assert!(f.buffers_redelivered > 0, "retention redelivers: {f:?}");
    assert_eq!(f.buffers_lost, 0, "{f:?}");
    assert!(!f.degraded, "{f:?}");
    assert_eq!(faulted.image.diff_pixels(&clean.image), 0);
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
    let faulted = dcapp::run_pipeline_faulted_exec(
        &topo,
        &cfg,
        &spec,
        FaultOptions::new(plan).liveness_timeout(SimDuration::from_millis(2)),
        NativeExecutor::new(),
    )
    .expect("native run must survive a dead merge copy");

    let f = &faulted.report.faults;
    assert_eq!(f.copies_killed, 1, "only the host-3 Mt copy dies: {f:?}");
    assert_eq!(
        f.buffers_replayed, 0,
        "tile-hash has no acks to replay: {f:?}"
    );
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
    let clean = dcapp::run_pipeline(&topo, &cfg, &spec).expect("fault-free run");

    let plan = FaultPlan::new().crash_host(hosts[2], SimTime::ZERO);
    let sim = dcapp::run_pipeline_faulted_exec(
        &topo,
        &cfg,
        &spec,
        FaultOptions::new(plan.clone()).liveness_timeout(ms(2)),
        SimExecutor::new(),
    )
    .expect("sim faulted run");
    let nat = dcapp::run_pipeline_faulted_exec(
        &topo,
        &cfg,
        &spec,
        FaultOptions::new(plan).liveness_timeout(ms(2)),
        NativeExecutor::new(),
    )
    .expect("native faulted run must still complete");

    for (label, f) in [("sim", &sim.report.faults), ("native", &nat.report.faults)] {
        assert_eq!(
            f.copies_killed, 1,
            "{label}: exactly the host-2 extract copy dies: {f:?}"
        );
        assert_eq!(f.buffers_lost, 0, "{label}: recovery loses nothing: {f:?}");
        assert!(!f.degraded, "{label}: nothing lost, not degraded: {f:?}");
    }
    assert_eq!(sim.image.diff_pixels(&clean.image), 0);
    assert_eq!(
        nat.image.diff_pixels(&sim.image),
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
    let clean =
        dcapp::run_pipeline_exec(&topo, &cfg, &spec, NativeExecutor::new()).expect("clean run");

    let chaos = FaultPlan::new()
        .drop_messages(0xD00D, 0.08)
        .delay_messages(0xD1A7, 0.10, us(200));
    let lossy = dcapp::run_pipeline_faulted_exec(
        &topo,
        &cfg,
        &spec,
        FaultOptions::new(chaos).liveness_timeout(ms(2)),
        NativeExecutor::new(),
    )
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
    assert_eq!(lossy.image.diff_pixels(&clean.image), 0);
}

// ---- supervised restarts (panic containment) ------------------------------

/// A small src -> sink graph where one sink copy can be poisoned to panic
/// or wedge; `seen` counts every buffer a sink copy actually consumed.
struct ChaosGraph {
    graph: datacutter::AppGraph,
    seen: Arc<AtomicU64>,
    /// The poisoned copy's accumulated payload sum, published when its
    /// (possibly restarted) incarnation drains the stream — the probe
    /// for "did replay rebuild the exact pre-crash state".
    sum: Arc<AtomicU64>,
}

const CHAOS_BUFFERS: u32 = 64;

/// What the poisoned sink copy does.
#[derive(Clone, Copy, PartialEq)]
enum PoisonMode {
    /// Panic on the first `process` call (before consuming anything),
    /// then behave.
    PanicOnce,
    /// Panic on every `process` call.
    PanicAlways,
    /// Block without heartbeats (a real `std::thread::sleep`).
    Wedge,
    /// Consume this many buffers into filter state, then panic once —
    /// the consumed prefix's effects die with the incarnation, so only
    /// a journal replay can rebuild them.
    PanicAfter(u32),
}

/// `sink_hosts.len()` single-copy sink sets. `poison` marks the global
/// sink copy index that misbehaves; what it does is decided by `mode`.
fn chaos_graph(
    src_host: hetsim::HostId,
    sink_hosts: &[hetsim::HostId],
    poison: usize,
    mode: PoisonMode,
) -> ChaosGraph {
    let sets: Vec<_> = sink_hosts.iter().map(|&h| (h, 1)).collect();
    chaos_graph_sets(src_host, &sets, poison, mode)
}

/// [`chaos_graph`] with `(host, copies)` sink sets.
fn chaos_graph_sets(
    src_host: hetsim::HostId,
    sink_sets: &[(hetsim::HostId, u32)],
    poison: usize,
    mode: PoisonMode,
) -> ChaosGraph {
    struct Src;
    impl Filter for Src {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            for i in 0..CHAOS_BUFFERS {
                // Replicable, so a run whose copies can die retains
                // replicas; without one nothing is retained.
                let b = ctx.buffer_slab().make_replicable(i, 256);
                ctx.write(0, b);
            }
            Ok(())
        }
    }
    struct Sink {
        poisoned: bool,
        mode: PoisonMode,
        armed: Arc<AtomicBool>,
        seen: Arc<AtomicU64>,
        sum: Arc<AtomicU64>,
    }
    impl Filter for Sink {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            if self.poisoned {
                match self.mode {
                    PoisonMode::PanicOnce => {
                        if self.armed.swap(false, Ordering::SeqCst) {
                            panic!("injected chaos panic");
                        }
                    }
                    PoisonMode::PanicAlways => panic!("injected chaos panic"),
                    PoisonMode::Wedge => {
                        std::thread::sleep(std::time::Duration::from_secs(5));
                        return Ok(());
                    }
                    PoisonMode::PanicAfter(_) => {}
                }
            }
            // Accumulate in *local* state so a panic genuinely destroys
            // the partial sum; the poisoned copy publishes it only after
            // draining the stream.
            let mut local = 0u64;
            let mut consumed = 0u32;
            while let Some(b) = ctx.read(0) {
                local += b.downcast::<u32>() as u64;
                self.seen.fetch_add(1, Ordering::SeqCst);
                consumed += 1;
                if let (true, PoisonMode::PanicAfter(k)) = (self.poisoned, self.mode) {
                    if consumed == k && self.armed.swap(false, Ordering::SeqCst) {
                        panic!("injected chaos panic");
                    }
                }
            }
            if self.poisoned {
                self.sum.store(local, Ordering::SeqCst);
            }
            Ok(())
        }
    }
    let seen: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
    let sum: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
    let armed = Arc::new(AtomicBool::new(true));
    let mut g = GraphBuilder::new();
    let s = g.add_filter("src", Placement::on_host(src_host, 1), |_| Src);
    let seen2 = seen.clone();
    let sum2 = sum.clone();
    let k = g.add_filter(
        "snk",
        Placement {
            per_host: sink_sets.to_vec(),
        },
        move |info| Sink {
            poisoned: info.copy_index == poison,
            mode,
            armed: armed.clone(),
            seen: seen2.clone(),
            sum: sum2.clone(),
        },
    );
    g.connect(s, k, WritePolicy::demand_driven());
    ChaosGraph {
        graph: g.build(),
        seen,
        sum,
    }
}

/// Panic containment with a restart budget: the poisoned copy panics once
/// mid-run, the supervisor machinery restarts it in place after the
/// seeded backoff, and the run completes with zero loss — the panic never
/// aborts the process and never shows up as a raw `ProcessPanic`.
#[test]
fn native_supervised_panic_restarts_and_completes() {
    let (topo, hosts) = cluster(2);
    let cg = chaos_graph(hosts[0], &[hosts[1]], 0, PoisonMode::PanicOnce);
    let policy = SupervisorPolicy::new()
        .max_restarts(2)
        .backoff(us(50), ms(1));
    let report = Run::new(cg.graph)
        .executor(NativeExecutor::new())
        .faults(
            FaultOptions::new(FaultPlan::new())
                .supervised(policy)
                .liveness_timeout(ms(2)),
        )
        .go(&topo)
        .expect("supervised run completes");
    let f = &report.faults;
    assert_eq!(f.restarts, 1, "{f:?}");
    assert_eq!(f.copies_killed, 0, "restart rescued the copy: {f:?}");
    assert_eq!(f.buffers_lost, 0, "{f:?}");
    assert!(!f.degraded, "{f:?}");
    assert_eq!(
        cg.seen.load(Ordering::SeqCst),
        CHAOS_BUFFERS as u64,
        "the restarted copy resumes the unit of work and consumes everything"
    );
}

/// The same supervised-restart machinery on the deterministic substrate:
/// two identical runs replay the identical restart schedule and virtual
/// timeline (backoff is a pure function of the policy seed).
#[test]
fn supervised_restart_is_deterministic_on_sim() {
    let (topo, hosts) = cluster(2);
    let run = || {
        let cg = chaos_graph(hosts[0], &[hosts[1]], 0, PoisonMode::PanicOnce);
        let policy = SupervisorPolicy::new()
            .max_restarts(2)
            .backoff(ms(1), ms(10));
        let report = Run::new(cg.graph)
            .faults(FaultOptions::new(FaultPlan::new()).supervised(policy))
            .go(&topo)
            .expect("supervised sim run completes");
        (
            report.elapsed,
            report.faults.restarts,
            cg.seen.load(Ordering::SeqCst),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "supervised sim runs must be bit-identical");
    assert_eq!(a.1, 1, "one restart");
    assert_eq!(a.2, CHAOS_BUFFERS as u64);
}

/// Restart budget exhausted: the poisoned copy panics until its budget
/// runs out, is declared dead in the merged death oracle, and the run
/// completes via the regular crash path — its set's retained buffers
/// redelivered to the surviving sink set, nothing lost.
#[test]
fn native_restart_budget_exhausted_dies_and_replays_to_survivor() {
    let (topo, hosts) = cluster(3);
    let cg = chaos_graph(hosts[0], &[hosts[1], hosts[2]], 1, PoisonMode::PanicAlways);
    let policy = SupervisorPolicy::new()
        .max_restarts(1)
        .backoff(us(50), ms(1));
    let report = Run::new(cg.graph)
        .executor(NativeExecutor::new())
        .faults(
            FaultOptions::new(FaultPlan::new())
                .supervised(policy)
                .liveness_timeout(ms(2)),
        )
        .go(&topo)
        .expect("degraded-capable run completes");
    let f = &report.faults;
    assert_eq!(f.restarts, 1, "budget consumed: {f:?}");
    assert_eq!(f.copies_killed, 1, "budget exhausted => dead: {f:?}");
    assert_eq!(f.buffers_lost, 0, "redelivery salvages the dead set: {f:?}");
    assert_eq!(
        cg.seen.load(Ordering::SeqCst),
        CHAOS_BUFFERS as u64,
        "the surviving sink set consumes every buffer"
    );
}

/// Wall-clock wedge detection: a copy that blocks without heartbeats is
/// declared dead by the supervisor, evicted from the barrier, and its
/// thread abandoned — the run completes in bounded time instead of
/// hanging for the sleeper's five seconds. It is reported degraded (a
/// copy wedged), but the survivor waits for the wedged set's reaper, so
/// the buffers stranded in its window come back from retention.
#[test]
fn native_wedge_detection_completes_degraded() {
    let (topo, hosts) = cluster(3);
    let cg = chaos_graph(hosts[0], &[hosts[1], hosts[2]], 1, PoisonMode::Wedge);
    let policy = SupervisorPolicy::new()
        .heartbeat_interval(ms(2))
        .wedge_timeout(ms(20));
    let report = Run::new(cg.graph)
        .executor(NativeExecutor::new())
        .faults(
            FaultOptions::new(FaultPlan::new())
                .supervised(policy)
                .liveness_timeout(ms(2)),
        )
        .go(&topo)
        .expect("wedged run completes degraded");
    let f = &report.faults;
    assert_eq!(f.copies_wedged, 1, "{f:?}");
    assert!(f.degraded, "a wedged copy marks the run degraded: {f:?}");
    assert!(
        f.buffers_redelivered > 0,
        "the wedged window strands: {f:?}"
    );
    assert_eq!(f.buffers_lost, 0, "{f:?}");
    let seen = cg.seen.load(Ordering::SeqCst);
    assert_eq!(
        seen, CHAOS_BUFFERS as u64,
        "the wedged copy consumed nothing, the survivor everything: {f:?}"
    );
    assert!(
        report.elapsed < SimDuration::from_secs(2),
        "the run must not wait out the sleeper: {:?}",
        report.elapsed
    );
}

/// Unsupervised panic containment: with no fault options at all, a
/// panicking filter copy surfaces as a structured `FilterPanic` — on both
/// substrates — instead of crashing the process or leaking a raw
/// `ProcessPanic`.
#[test]
fn filter_panic_is_contained_as_structured_error() {
    let (topo, hosts) = cluster(2);
    for native in [false, true] {
        let cg = chaos_graph(hosts[0], &[hosts[1]], 0, PoisonMode::PanicAlways);
        let mut run = Run::new(cg.graph);
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

/// Replay after restart: the poisoned sink consumes a prefix into filter
/// state and panics — the state dies with the incarnation. The restarted
/// copy re-fetches the journaled prefix from the producer's retention ring and rebuilds the exact
/// accumulator before draining the rest, on both substrates.
#[test]
fn lossless_restart_replays_journal_and_rebuilds_state() {
    const K: u32 = 24;
    let (topo, hosts) = cluster(2);
    for native in [false, true] {
        let cg = chaos_graph(hosts[0], &[hosts[1]], 0, PoisonMode::PanicAfter(K));
        let policy = SupervisorPolicy::new()
            .max_restarts(2)
            .backoff(ms(1), ms(10));
        let mut run = Run::new(cg.graph);
        if native {
            run = run.executor(NativeExecutor::new());
        }
        let report = run
            .faults(
                FaultOptions::new(FaultPlan::new())
                    .supervised(policy)
                    .liveness_timeout(ms(2)),
            )
            .go(&topo)
            .expect("supervised lossless run completes");
        let f = &report.faults;
        assert_eq!(f.restarts, 1, "native={native}: {f}");
        assert_eq!(f.copies_killed, 0, "restart rescued the copy: {f}");
        assert_eq!(
            f.buffers_redelivered, K as u64,
            "native={native}: the journaled prefix is re-fetched: {f}"
        );
        assert_eq!(f.buffers_lost, 0, "native={native}: {f}");
        assert!(!f.degraded, "native={native}: {f}");
        let expect: u64 = (0..CHAOS_BUFFERS as u64).sum();
        assert_eq!(
            cg.sum.load(Ordering::SeqCst),
            expect,
            "native={native}: the restarted copy rebuilds the exact sum"
        );
        assert_eq!(
            cg.seen.load(Ordering::SeqCst),
            (CHAOS_BUFFERS + K) as u64,
            "native={native}: prefix consumed twice, remainder once"
        );
    }
}

/// One route back: a mid-run crash of a merge copy whose queue holds
/// originals. The reaper releases those originals and redelivers the
/// retained replicas instead, so the survivor processes each provenance
/// from retention — nothing is replayed through the demand window,
/// nothing is lost, and the image matches the fault-free run exactly.
#[test]
fn lossless_mid_run_crash_redelivers_from_retention_only() {
    let (topo, hosts) = cluster(5);
    // The tiled config's inflated per-entry merge cost keeps the merge
    // copies' queues deep for most of the run, so the dead set is
    // guaranteed to hold salvageable originals when it dies.
    let cfg = tiled_fault_cfg(&hosts);
    let spec = tiled_spec(&hosts);
    let clean = dcapp::run_pipeline(&topo, &cfg, &spec).expect("fault-free run");
    let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(0.12);
    let plan = FaultPlan::new().crash_host(hosts[3], crash_at);
    let opts = FaultOptions::new(plan).liveness_timeout(ms(10));
    let faulted =
        dcapp::run_pipeline_faulted(&topo, &cfg, &spec, opts).expect("lossless run completes");
    let f = &faulted.report.faults;
    assert!(f.buffers_redelivered > 0, "retention redelivers: {f}");
    assert_eq!(f.buffers_replayed, 0, "no second route back: {f}");
    assert_eq!(f.buffers_lost, 0, "{f}");
    assert!(!f.degraded, "{f}");
    assert_eq!(
        faulted.image.diff_pixels(&clean.image),
        0,
        "redelivery must render the fault-free pixels"
    );
}

/// Partial set death: one copy of a two-copy sink set panics past its
/// restart budget while its sibling and a second sink set live on. The
/// surviving sibling consumes its own end-of-work and keeps reading while
/// it waits for the other set; the dead copy's token is still queued, and
/// the sibling must drop it rather than hand it round forever. Both
/// substrates finish with every buffer consumed and nothing lost.
#[test]
fn lossless_partial_set_death_drops_the_dead_copys_token() {
    let (topo, hosts) = cluster(3);
    for native in [false, true] {
        let cg = chaos_graph_sets(
            hosts[0],
            &[(hosts[1], 2), (hosts[2], 1)],
            1,
            PoisonMode::PanicAlways,
        );
        let policy = SupervisorPolicy::new()
            .max_restarts(1)
            .backoff(us(50), ms(1));
        let mut run = Run::new(cg.graph);
        if native {
            run = run.executor(NativeExecutor::new());
        }
        let report = run
            .faults(
                FaultOptions::new(FaultPlan::new())
                    .supervised(policy)
                    .liveness_timeout(ms(2)),
            )
            .go(&topo)
            .expect("a partially dead set still finishes");
        let f = &report.faults;
        assert_eq!(f.copies_killed, 1, "native={native}: {f}");
        assert_eq!(f.buffers_lost, 0, "native={native}: {f}");
        assert!(!f.degraded, "native={native}: {f}");
        assert_eq!(
            cg.seen.load(Ordering::SeqCst),
            CHAOS_BUFFERS as u64,
            "native={native}: the live copies consume every buffer"
        );
        assert!(
            report.elapsed < SimDuration::from_secs(2),
            "native={native}: {:?}",
            report.elapsed
        );
    }
}

/// Budget-exhausted fallback: when the only consumer set panics past its
/// restart budget, retention has no survivor to redeliver to — the run
/// completes degraded, with every retained buffer counted lost, instead
/// of hanging or erroring.
#[test]
fn lossless_budget_exhausted_falls_back_to_degraded_completion() {
    let (topo, hosts) = cluster(2);
    let cg = chaos_graph(hosts[0], &[hosts[1]], 0, PoisonMode::PanicAlways);
    let policy = SupervisorPolicy::new()
        .max_restarts(1)
        .backoff(us(50), ms(1));
    let report = Run::new(cg.graph)
        .faults(
            FaultOptions::new(FaultPlan::new())
                .supervised(policy)
                .liveness_timeout(ms(2)),
        )
        .go(&topo)
        .expect("the run degrades rather than hangs when no survivor remains");
    let f = &report.faults;
    assert_eq!(f.restarts, 1, "budget consumed: {f}");
    assert_eq!(f.copies_killed, 1, "budget exhausted => dead: {f}");
    assert!(f.buffers_lost > 0, "no survivor to redeliver to: {f}");
    assert!(f.degraded, "{f}");
    assert_eq!(
        cg.seen.load(Ordering::SeqCst),
        0,
        "the poisoned copy never consumed anything"
    );
}

// ---- backoff schedule properties -----------------------------------------

mod backoff_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The supervised restart backoff is a pure function of
        /// (policy, copy, attempt): identical inputs replay the identical
        /// schedule, every delay stays inside the jittered exponential
        /// envelope `[env/2, env]` with `env = min(base << attempt, cap)`,
        /// and different seeds actually decorrelate the jitter.
        #[test]
        fn backoff_schedule_is_deterministic_and_bounded(
            seed in any::<u64>(),
            copy_key in any::<u64>(),
            base_ms in 1u64..50,
            cap_ms in 50u64..500,
            attempt in 0u32..16,
        ) {
            let base = SimDuration::from_millis(base_ms);
            let cap = SimDuration::from_millis(cap_ms);
            let a = datacutter::backoff_delay(base, cap, seed, copy_key, attempt);
            let b = datacutter::backoff_delay(base, cap, seed, copy_key, attempt);
            prop_assert_eq!(a, b, "same inputs, same delay");

            let envelope = base
                .as_nanos()
                .checked_shl(attempt)
                .unwrap_or(u64::MAX)
                .min(cap.as_nanos());
            prop_assert!(a.as_nanos() >= envelope / 2, "jitter floor: {a:?} vs {envelope}");
            prop_assert!(a.as_nanos() <= envelope, "jitter ceiling: {a:?} vs {envelope}");
        }

        /// Whole-schedule determinism per seed: the first eight attempts of
        /// a copy replay exactly; perturbing the seed changes at least one
        /// delay (the schedule really is seed-driven).
        #[test]
        fn backoff_schedules_replay_per_seed(
            seed in any::<u64>(),
            copy_key in any::<u64>(),
        ) {
            let base = SimDuration::from_millis(1);
            let cap = SimDuration::from_millis(100);
            let schedule = |s: u64| -> Vec<SimDuration> {
                (0..8).map(|k| datacutter::backoff_delay(base, cap, s, copy_key, k)).collect()
            };
            prop_assert_eq!(schedule(seed), schedule(seed));
            // A different seed must change the schedule.
            let other = schedule(seed ^ 0xA5A5_A5A5_5A5A_5A5A);
            prop_assert_ne!(schedule(seed), other);
        }
    }
}
