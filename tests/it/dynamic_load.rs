//! The paper's headline claim is about *dynamically changing* load:
//! "getting good performance with unexpected loads without user
//! intervention is a great benefit". These tests change the background
//! load *while the pipeline runs* and check that demand-driven scheduling
//! adapts — per unit of work, and even within one.

use std::sync::Arc;

use datacutter::{Placement, WritePolicy};
use dcapp::{Algorithm, Grouping, PipelineSpec, Render};
use hetsim::SimDuration;
use integration_tests::{cluster, test_cfg, test_dataset};
use parking_lot::Mutex;

#[test]
fn dd_adapts_when_load_arrives_mid_run() {
    // Run many UOWs; a "login storm" drops 16 background jobs on host 0
    // partway through. Under DD the buffer share of host 0's raster set
    // must fall in the later cycles.
    let run = |policy: WritePolicy| {
        let (topo, hosts) = cluster(3);
        let cfg = {
            // Raster-bound configuration so the consumers' pace matters:
            // large image, fine-grained batches.
            let base = test_cfg(test_dataset(60), hosts.clone(), 512);
            let mut c = dcapp::clone_config(&base);
            c.tri_batch = 64;
            c.cost.raster_per_pixel *= 10.0;
            Arc::new(c)
        };
        let spec = PipelineSpec {
            grouping: Grouping::RERaSplit {
                raster: Placement::one_per_host(&hosts),
            },
            algorithm: Algorithm::ActivePixel,
            policy,
            merge_host: hosts[1],
        };
        // Saboteur process: we cannot spawn into the pipeline's internal
        // simulation, so flip the load between UOWs via two separate runs
        // instead: warm (no load) then loaded, comparing distributions.
        let r_unloaded = Render::new(&cfg, &spec).go(&topo).unwrap();
        topo.host(hosts[0]).cpu.set_bg_jobs(16);
        let r_loaded = Render::new(&cfg, &spec).go(&topo).unwrap();
        let share = |r: &dcapp::PipelineResult| {
            let s = r.report.stream(r.to_raster.unwrap());
            let h0 = s.copysets[0].1.buffers_received as f64;
            h0 / s.total_buffers() as f64
        };
        (share(&r_unloaded), share(&r_loaded))
    };
    let (dd_before, dd_after) = run(WritePolicy::demand_driven());
    assert!(
        dd_after < dd_before * 0.8,
        "DD share of loaded host should drop: {dd_before:.3} -> {dd_after:.3}"
    );
    let (rr_before, rr_after) = run(WritePolicy::RoundRobin);
    assert!(
        (rr_after - rr_before).abs() < 0.02,
        "RR is load-oblivious: {rr_before:.3} -> {rr_after:.3}"
    );
}

#[test]
fn load_arriving_inside_a_uow_slows_only_the_tail() {
    // Within one simulation, a background process raises the load on one
    // host mid-computation; the CPU model must dilate only the remainder.
    let mut sim = hetsim::Simulation::new();
    let (topo, hosts) = cluster(2);
    let t2 = topo.clone();
    let h0 = hosts[0];
    let done: Arc<Mutex<Vec<(String, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let d1 = done.clone();
    sim.spawn("worker", move |env| {
        // 2s of work at speed 1.0 on an idle host...
        t2.host(h0).cpu.compute(&env, SimDuration::from_secs(2));
        d1.lock().push(("worker".into(), env.now().as_nanos()));
    });
    let t3 = topo.clone();
    let d2 = done.clone();
    sim.spawn("storm", move |env| {
        env.delay(SimDuration::from_secs(1));
        t3.host(h0).cpu.set_bg_jobs(3); // the second half runs at 1/4 speed
        d2.lock().push(("storm".into(), env.now().as_nanos()));
    });
    sim.run().unwrap();
    let v = done.lock().clone();
    let worker_end = v.iter().find(|(n, _)| n == "worker").unwrap().1 as f64 / 1e9;
    // First ~1s at full speed, remaining ~1s of work at 1/4 speed => ~5s
    // total (quantized by the CPU slice granularity).
    assert!(
        (4.0..6.0).contains(&worker_end),
        "expected mid-run dilation, worker finished at {worker_end}"
    );
}

#[test]
fn dd_beats_rr_under_a_mid_run_load_storm() {
    // A load storm hits one worker host *while the pipeline is running*
    // (via an auxiliary load-generator process inside the same
    // simulation). DD reroutes around it; RR cannot.
    use datacutter::{DataBuffer, Filter, FilterCtx, FilterError, GraphBuilder};
    use hetsim::{spawn_load_generator, LoadProfile};

    struct Src;
    impl Filter for Src {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            for i in 0..60u32 {
                ctx.compute(SimDuration::from_millis(2));
                ctx.write(0, DataBuffer::new(i, 1024));
            }
            Ok(())
        }
    }
    struct Work;
    impl Filter for Work {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            while let Some(b) = ctx.read(0) {
                let _ = b.downcast::<u32>();
                ctx.compute(SimDuration::from_millis(8));
            }
            Ok(())
        }
    }

    let run = |policy: WritePolicy| {
        let (topo, hosts) = cluster(3);
        let mut g = GraphBuilder::new();
        let s = g.add_filter("src", Placement::on_host(hosts[0], 1), |_| Src);
        let w = g.add_filter(
            "work",
            Placement::one_per_host(&[hosts[1], hosts[2]]),
            |_| Work,
        );
        g.connect(s, w, policy);
        let storm_cpu = topo.host(hosts[1]).cpu.clone();
        let report = datacutter::Run::new(g.build())
            .setup(move |sim| {
                // Calm for 50ms, then 15 jobs for 200ms, then calm again.
                let profile = LoadProfile {
                    steps: vec![
                        (SimDuration::from_millis(50), 0),
                        (SimDuration::from_millis(200), 15),
                    ],
                };
                spawn_load_generator(sim, "storm", storm_cpu, profile);
            })
            .go(&topo)
            .unwrap();
        report.elapsed.as_secs_f64()
    };
    let rr = run(WritePolicy::RoundRobin);
    let dd = run(WritePolicy::demand_driven());
    assert!(
        dd < rr,
        "DD ({dd:.3}s) should dodge the mid-run storm; RR took {rr:.3}s"
    );
}

#[test]
fn multi_uow_run_absorbs_alternating_load() {
    // Sanity at the application level: a multi-UOW run completes and stays
    // image-correct even with heavy static load on one host.
    let (topo, hosts) = cluster(3);
    topo.host(hosts[2]).cpu.set_bg_jobs(12);
    let cfg = test_cfg(test_dataset(61), hosts.clone(), 96);
    let spec = PipelineSpec {
        grouping: Grouping::RERaSplit {
            raster: Placement::one_per_host(&hosts),
        },
        algorithm: Algorithm::ActivePixel,
        policy: WritePolicy::demand_driven(),
        merge_host: hosts[0],
    };
    let multi = Render::new(&cfg, &spec).uows(3).go(&topo).unwrap();
    for (t, img) in multi.images.iter().enumerate() {
        let mut c = dcapp::clone_config(&cfg);
        c.timestep = t as u32;
        assert_eq!(
            img.diff_pixels(&dcapp::reference_image(&Arc::new(c))),
            0,
            "uow {t} under load"
        );
    }
}
