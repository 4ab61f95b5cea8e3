//! The wall-clock [`datacutter::NativeExecutor`] against the virtual-time
//! simulator: the same application graph, run on real OS threads, must
//! produce bit-identical rendered images under every writer policy. The
//! demand-driven window protocol is substrate-independent (credit
//! accounting is pure message counting), so even DD runs converge to the
//! same pixels — only timing and metrics semantics differ.

use std::sync::Arc;
use std::time::Duration;

use datacutter::{
    DataBuffer, FaultOptions, Filter, FilterCtx, FilterError, GraphBuilder, NativeExecutor,
    Placement, Run, RunError, SimExecutor, WritePolicy,
};
use dcapp::{reference_image, Algorithm, Grouping, PipelineSpec, Render};
use hetsim::{FaultPlan, SimDuration, SimTime};
use integration_tests::{cluster, test_cfg, test_dataset};
use parking_lot::Mutex;

fn spec(hosts: &[hetsim::HostId], policy: WritePolicy, alg: Algorithm) -> PipelineSpec {
    PipelineSpec {
        grouping: Grouping::RERaSplit {
            raster: Placement::one_per_host(hosts),
        },
        algorithm: alg,
        policy,
        merge_host: hosts[0],
    }
}

/// The tentpole equivalence property: for each writer policy and both
/// rendering algorithms, the isosurface pipeline renders the exact same
/// image on the simulator and on native threads, and both match the
/// sequential reference.
#[test]
fn sim_and_native_render_identical_images_all_policies() {
    let (topo, hosts) = cluster(3);
    let cfg = test_cfg(test_dataset(7), hosts.clone(), 96);
    let reference = reference_image(&cfg);
    for policy in [
        WritePolicy::RoundRobin,
        WritePolicy::WeightedRoundRobin,
        WritePolicy::demand_driven(),
    ] {
        for alg in [Algorithm::ZBuffer, Algorithm::ActivePixel] {
            let s = spec(&hosts, policy, alg);
            let sim = Render::new(&cfg, &s)
                .executor(SimExecutor::new())
                .go(&topo)
                .unwrap();
            let nat = Render::new(&cfg, &s)
                .executor(NativeExecutor::new())
                .go(&topo)
                .unwrap();
            assert_eq!(
                sim.image().diff_pixels(&reference),
                0,
                "sim image diverged from reference ({} {alg:?})",
                policy.label()
            );
            assert_eq!(
                nat.image().diff_pixels(&reference),
                0,
                "native image diverged from reference ({} {alg:?})",
                policy.label()
            );
            assert_eq!(
                nat.image().diff_pixels(sim.image()),
                0,
                "native vs sim pixels differ ({} {alg:?})",
                policy.label()
            );
            // Native runs report wall-clock elapsed and no virtual events.
            assert_eq!(nat.report.events, 0);
            assert!(sim.report.events > 0);
        }
    }
}

/// Native stress: 8+ transparent raster copies hammering real bounded
/// channels and the DD condvar path concurrently, with delivery
/// completeness checked against the reference image.
#[test]
fn native_stress_many_copies() {
    let (topo, hosts) = cluster(4);
    let cfg = test_cfg(test_dataset(13), hosts.clone(), 96);
    let reference = reference_image(&cfg);
    // 4 hosts x 2 copies = 8 raster copies.
    let s = PipelineSpec {
        grouping: Grouping::RERaSplit {
            raster: Placement {
                per_host: hosts.iter().map(|&h| (h, 2)).collect(),
            },
        },
        algorithm: Algorithm::ActivePixel,
        policy: WritePolicy::demand_driven(),
        merge_host: hosts[0],
    };
    for round in 0..3 {
        let r = Render::new(&cfg, &s)
            .executor(NativeExecutor::new())
            .go(&topo)
            .unwrap();
        assert_eq!(
            r.image().diff_pixels(&reference),
            0,
            "stress round {round} diverged"
        );
    }
}

/// Multi-UOW cycles (global barrier between units of work) on native
/// threads: every cycle's data stays within its cycle.
#[test]
fn native_multi_uow_barrier_cycles() {
    let (topo, hosts) = cluster(2);
    let out: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    struct UowSrc;
    impl Filter for UowSrc {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            for i in 0..8u32 {
                ctx.write(0, DataBuffer::new(ctx.uow() * 100 + i, 64));
            }
            Ok(())
        }
    }
    struct Gather {
        out: Arc<Mutex<Vec<u32>>>,
    }
    impl Filter for Gather {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            while let Some(b) = ctx.read(0) {
                self.out.lock().push(b.downcast::<u32>());
            }
            Ok(())
        }
    }
    let mut g = GraphBuilder::new();
    let s = g.add_filter("src", Placement::on_host(hosts[0], 1), |_| UowSrc);
    let out2 = out.clone();
    let k = g.add_filter("snk", Placement::on_host(hosts[1], 2), move |_| Gather {
        out: out2.clone(),
    });
    g.connect(s, k, WritePolicy::demand_driven());
    let report = Run::new(g.build())
        .uows(3)
        .executor(NativeExecutor::new())
        .go(&topo)
        .unwrap();
    let mut v = out.lock().clone();
    v.sort_unstable();
    let mut want: Vec<u32> = (0..3u32)
        .flat_map(|u| (0..8u32).map(move |i| u * 100 + i))
        .collect();
    want.sort_unstable();
    assert_eq!(v, want);
    // Two inter-UOW barrier boundaries on the wall clock.
    assert_eq!(report.uow_boundaries.len(), 2);
    assert!(report.uow_boundaries[0] <= report.uow_boundaries[1]);
}

/// A failing filter on the native executor surfaces the same structured
/// error a simulated run would.
#[test]
fn native_filter_error_is_structured() {
    let (topo, hosts) = cluster(1);
    struct Bad;
    impl Filter for Bad {
        fn process(&mut self, _ctx: &mut FilterCtx) -> Result<(), FilterError> {
            Err(FilterError("native boom".into()))
        }
    }
    let mut g = GraphBuilder::new();
    g.add_filter("bad", Placement::on_host(hosts[0], 1), |_| Bad);
    match Run::new(g.build())
        .executor(NativeExecutor::new())
        .go(&topo)
    {
        Err(RunError::Filter {
            filter, message, ..
        }) => {
            assert_eq!(filter, "bad");
            assert!(message.contains("native boom"));
        }
        other => panic!("expected structured filter error, got {other:?}"),
    }
}

/// NIC-degradation plans are accepted on the native executor (emulated as
/// writer-side stalls sized from the topology's path cost — see
/// `native_degrade_window_stalls_cross_host_writes` for a scenario with
/// actual traffic), while setup hooks,
/// which need the simulation object itself, are still rejected up front
/// with a structured error rather than silently ignored.
#[test]
fn native_accepts_degrades_rejects_setup() {
    let (topo, hosts) = cluster(2);
    let mk = || {
        let mut g = GraphBuilder::new();
        struct Quiet;
        impl Filter for Quiet {
            fn process(&mut self, _ctx: &mut FilterCtx) -> Result<(), FilterError> {
                Ok(())
            }
        }
        g.add_filter("quiet", Placement::on_host(hosts[0], 1), |_| Quiet);
        g.build()
    };
    let plan = FaultPlan::new().degrade_nic(
        hosts[1],
        SimTime::ZERO + SimDuration::from_millis(1),
        SimDuration::from_millis(1),
        0.5,
    );
    let report = Run::new(mk())
        .executor(NativeExecutor::new())
        .faults(FaultOptions::new(plan))
        .go(&topo)
        .expect("degrade plans run natively via writer-side stall emulation");
    // The quiet filter sends nothing cross-host, so nothing is delayed —
    // the point is that the plan is accepted and the run completes.
    assert_eq!(report.faults.messages_delayed, 0);
    match Run::new(mk())
        .executor(NativeExecutor::new())
        .setup(|_sim| {})
        .go(&topo)
    {
        Err(RunError::Unsupported { what }) => assert!(what.contains("setup")),
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

/// Run `f` on a thread of its own and fail, rather than hang the suite, if
/// it has not returned within `secs` seconds.
fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("native run finished in time")
}

/// A degraded NIC with real traffic on the native executor: the writing
/// copy stalls for the degraded fraction of each cross-host message's
/// serialization time, which the report counts as delayed messages; the
/// stall loses nothing and changes no pixel.
#[test]
fn native_degrade_window_stalls_cross_host_writes() {
    let (topo, hosts) = cluster(3);
    let cfg = test_cfg(test_dataset(7), hosts.clone(), 96);
    let s = spec(&hosts, WritePolicy::demand_driven(), Algorithm::ZBuffer);
    let clean = Render::new(&cfg, &s)
        .executor(NativeExecutor::new())
        .go(&topo)
        .unwrap();
    // The merge host's NIC runs at half speed for the whole run: every
    // band a remote raster copy ships to it crosses the degraded NIC.
    let plan =
        FaultPlan::new().degrade_nic(hosts[0], SimTime::ZERO, SimDuration::from_secs(600), 0.5);
    let slow = within(120, move || {
        Render::new(&cfg, &s)
            .executor(NativeExecutor::new())
            .faults(FaultOptions::new(plan))
            .go(&topo)
            .unwrap()
    });
    let f = &slow.report.faults;
    assert!(
        f.messages_delayed > 0,
        "cross-host writes must stall: {f:?}"
    );
    assert_eq!(f.buffers_lost, 0, "a stall is not a loss: {f:?}");
    assert_eq!(slow.image().diff_pixels(clean.image()), 0);
}

/// Demand-driven with one buffer of window per consumer copy into
/// single-copy sets: every producer stalls after each send until the
/// consumer's read credits the window — on the native executor in the
/// reading copy's own thread, with no courier to relay it. The image must
/// equal the simulator's.
#[test]
fn native_dd_window_of_one_is_credited_by_the_reader() {
    let (topo, hosts) = cluster(3);
    let cfg = test_cfg(test_dataset(11), hosts.clone(), 96);
    let s = spec(
        &hosts,
        WritePolicy::DemandDriven { window_per_copy: 1 },
        Algorithm::ActivePixel,
    );
    let sim = Render::new(&cfg, &s)
        .executor(SimExecutor::new())
        .go(&topo)
        .unwrap();
    let nat = within(120, move || {
        Render::new(&cfg, &s)
            .executor(NativeExecutor::new())
            .go(&topo)
            .unwrap()
    });
    assert_eq!(nat.image().diff_pixels(sim.image()), 0);
}
