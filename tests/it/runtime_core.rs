//! Core runtime behaviour through the public API: delivery, policies,
//! lifecycle, fan-in/out, tracing, routing, and multi-UOW cycles. These
//! were the unit tests of the pre-refactor monolithic runtime module,
//! transplanted onto the [`datacutter::Run`] builder.

use std::sync::Arc;

use datacutter::{
    DataBuffer, Filter, FilterCtx, FilterError, FilterId, GraphBuilder, Placement, Run, RunError,
    RunReport, StreamId, WritePolicy,
};
use hetsim::{ClusterSpec, HostId, HostSpec, SimDuration, Topology, TopologyBuilder};
use parking_lot::Mutex;

fn flat_topology(n: usize) -> Topology {
    let mut b = TopologyBuilder::new();
    let c = b.add_cluster(ClusterSpec {
        name: "c".into(),
        nic_bandwidth_bps: 100.0e6,
        nic_latency: SimDuration::from_micros(50),
    });
    for i in 0..n {
        b.add_host(
            c,
            HostSpec {
                name: format!("h{i}"),
                cores: 1,
                speed: 1.0,
                mem_mb: 512,
                disks: 1,
                disk_bandwidth_bps: 50.0e6,
                disk_seek: SimDuration::from_millis(5),
            },
        );
    }
    b.build()
}

struct Source {
    n: u32,
}
impl Filter for Source {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        for i in 0..self.n {
            ctx.compute(SimDuration::from_millis(1));
            ctx.write(0, DataBuffer::new(i, 1024));
        }
        Ok(())
    }
}

struct Doubler {
    work: SimDuration,
}
impl Filter for Doubler {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        while let Some(b) = ctx.read(0) {
            let v = b.downcast::<u32>();
            ctx.compute(self.work);
            ctx.write(0, DataBuffer::new(v * 2, 1024));
        }
        Ok(())
    }
}

struct Collect {
    out: Arc<Mutex<Vec<u32>>>,
}
impl Filter for Collect {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        while let Some(b) = ctx.read(0) {
            self.out.lock().push(b.downcast::<u32>());
        }
        Ok(())
    }
}

fn pipeline(
    topo: &Topology,
    policy: WritePolicy,
    n_items: u32,
    worker_hosts: &[HostId],
    worker_work_ms: u64,
) -> (RunReport, Vec<u32>) {
    let out: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let mut g = GraphBuilder::new();
    let src = g.add_filter("src", Placement::on_host(HostId(0), 1), move |_| Source {
        n: n_items,
    });
    let work = SimDuration::from_millis(worker_work_ms);
    let dbl = g.add_filter("dbl", Placement::one_per_host(worker_hosts), move |_| {
        Doubler { work }
    });
    let out2 = out.clone();
    let snk = g.add_filter("snk", Placement::on_host(HostId(0), 1), move |_| Collect {
        out: out2.clone(),
    });
    g.connect(src, dbl, policy);
    g.connect(dbl, snk, WritePolicy::RoundRobin);
    let report = Run::new(g.build()).go(topo).unwrap();
    let v = out.lock().clone();
    (report, v)
}

#[test]
fn linear_pipeline_delivers_everything() {
    let topo = flat_topology(3);
    let (report, mut got) = pipeline(
        &topo,
        WritePolicy::RoundRobin,
        20,
        &[HostId(1), HostId(2)],
        2,
    );
    got.sort_unstable();
    let want: Vec<u32> = (0..20).map(|i| i * 2).collect();
    assert_eq!(got, want);
    assert!(report.elapsed > SimDuration::ZERO);
    // Stream 0: 20 buffers, 10 per copy set under RR.
    let s = report.stream(StreamId(0));
    assert_eq!(s.total_buffers(), 20);
    for (_, c) in &s.copysets {
        assert_eq!(c.buffers_received, 10);
    }
}

#[test]
fn wrr_respects_copy_weights() {
    let topo = flat_topology(3);
    let out: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let mut g = GraphBuilder::new();
    let src = g.add_filter("src", Placement::on_host(HostId(0), 1), |_| Source {
        n: 30,
    });
    // Host1 gets 2 copies, host2 gets 1.
    let dbl = g.add_filter(
        "dbl",
        Placement {
            per_host: vec![(HostId(1), 2), (HostId(2), 1)],
        },
        |_| Doubler {
            work: SimDuration::from_millis(1),
        },
    );
    let out2 = out.clone();
    let snk = g.add_filter("snk", Placement::on_host(HostId(0), 1), move |_| Collect {
        out: out2.clone(),
    });
    g.connect(src, dbl, WritePolicy::WeightedRoundRobin);
    g.connect(dbl, snk, WritePolicy::RoundRobin);
    let report = Run::new(g.build()).go(&topo).unwrap();
    let s = report.stream(StreamId(0));
    assert_eq!(s.copysets[0].1.buffers_received, 20);
    assert_eq!(s.copysets[1].1.buffers_received, 10);
    assert_eq!(out.lock().len(), 30);
}

#[test]
fn dd_shifts_load_away_from_slow_host() {
    let mut b = TopologyBuilder::new();
    let c = b.add_cluster(ClusterSpec {
        name: "c".into(),
        nic_bandwidth_bps: 100.0e6,
        nic_latency: SimDuration::from_micros(50),
    });
    // Host 0: source+sink. Host 1: fast worker. Host 2: slow worker.
    for (i, speed) in [(0, 1.0f64), (1, 1.0), (2, 0.2)] {
        b.add_host(
            c,
            HostSpec {
                name: format!("h{i}"),
                cores: 1,
                speed,
                mem_mb: 512,
                disks: 1,
                disk_bandwidth_bps: 50.0e6,
                disk_seek: SimDuration::from_millis(5),
            },
        );
    }
    let topo = b.build();
    let (report, got) = pipeline(
        &topo,
        WritePolicy::demand_driven(),
        40,
        &[HostId(1), HostId(2)],
        4,
    );
    assert_eq!(got.len(), 40);
    let s = report.stream(StreamId(0));
    let fast = s.copysets[0].1.buffers_received;
    let slow = s.copysets[1].1.buffers_received;
    assert_eq!(fast + slow, 40);
    assert!(
        fast > slow * 2,
        "DD should favour the fast host: fast={fast} slow={slow}"
    );
}

#[test]
fn rr_vs_dd_completion_time_under_imbalance() {
    let mk = || {
        let mut b = TopologyBuilder::new();
        let c = b.add_cluster(ClusterSpec {
            name: "c".into(),
            nic_bandwidth_bps: 100.0e6,
            nic_latency: SimDuration::from_micros(50),
        });
        for (i, speed) in [(0, 1.0f64), (1, 1.0), (2, 0.25)] {
            b.add_host(
                c,
                HostSpec {
                    name: format!("h{i}"),
                    cores: 1,
                    speed,
                    mem_mb: 512,
                    disks: 1,
                    disk_bandwidth_bps: 50.0e6,
                    disk_seek: SimDuration::from_millis(5),
                },
            );
        }
        b.build()
    };
    let topo = mk();
    let (rr, _) = pipeline(
        &topo,
        WritePolicy::RoundRobin,
        40,
        &[HostId(1), HostId(2)],
        4,
    );
    let topo = mk();
    let (dd, _) = pipeline(
        &topo,
        WritePolicy::demand_driven(),
        40,
        &[HostId(1), HostId(2)],
        4,
    );
    assert!(
        dd.elapsed < rr.elapsed,
        "DD ({}) should beat RR ({}) under heterogeneity",
        dd.elapsed,
        rr.elapsed
    );
}

#[test]
fn copy_metrics_account_for_work() {
    let topo = flat_topology(3);
    let (report, _) = pipeline(
        &topo,
        WritePolicy::RoundRobin,
        10,
        &[HostId(1), HostId(2)],
        3,
    );
    let dbl = FilterId(1);
    // 10 buffers x 3 ms of work across copies.
    assert_eq!(report.filter_work(dbl).as_nanos(), 30_000_000);
    let copies = report.copies_of(dbl);
    assert_eq!(copies.len(), 2);
    let total_in: u64 = copies.iter().map(|c| c.counters.buffers_in).sum();
    assert_eq!(total_in, 10);
}

#[test]
fn multiple_copies_share_one_copyset_queue() {
    let topo = flat_topology(2);
    let out: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let mut g = GraphBuilder::new();
    let src = g.add_filter("src", Placement::on_host(HostId(0), 1), |_| Source {
        n: 24,
    });
    // 3 copies on one host: one copy set with demand-based sharing.
    let dbl = g.add_filter("dbl", Placement::on_host(HostId(1), 3), |_| Doubler {
        work: SimDuration::from_millis(2),
    });
    let out2 = out.clone();
    let snk = g.add_filter("snk", Placement::on_host(HostId(0), 1), move |_| Collect {
        out: out2.clone(),
    });
    g.connect(src, dbl, WritePolicy::RoundRobin);
    g.connect(dbl, snk, WritePolicy::RoundRobin);
    let report = Run::new(g.build()).go(&topo).unwrap();
    assert_eq!(out.lock().len(), 24);
    // All three copies did some of the work.
    for c in report.copies_of(FilterId(1)) {
        assert!(c.counters.buffers_in > 0, "idle copy {:?}", c.copy_index);
    }
    let _ = dbl;
    let _ = src;
    let _ = snk;
}

#[test]
fn source_only_graph_runs() {
    let topo = flat_topology(1);
    let mut g = GraphBuilder::new();
    struct Quiet;
    impl Filter for Quiet {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            ctx.compute(SimDuration::from_millis(5));
            Ok(())
        }
    }
    g.add_filter("quiet", Placement::on_host(HostId(0), 1), |_| Quiet);
    let report = Run::new(g.build()).go(&topo).unwrap();
    assert_eq!(report.elapsed.as_nanos(), 5_000_000);
}

#[test]
fn filter_error_aborts_run() {
    let topo = flat_topology(1);
    let mut g = GraphBuilder::new();
    struct Bad;
    impl Filter for Bad {
        fn process(&mut self, _ctx: &mut FilterCtx) -> Result<(), FilterError> {
            Err(FilterError("broken".into()))
        }
    }
    g.add_filter("bad", Placement::on_host(HostId(0), 1), |_| Bad);
    match Run::new(g.build()).go(&topo) {
        Err(RunError::Filter {
            filter,
            copy,
            host,
            uow,
            message,
        }) => {
            assert_eq!(filter, "bad");
            assert_eq!(copy, 0);
            assert_eq!(host, HostId(0));
            assert_eq!(uow, 0);
            assert!(message.contains("broken"));
        }
        other => panic!("expected structured filter error, got {other:?}"),
    }
}

#[test]
fn init_and_finalize_are_called() {
    let topo = flat_topology(1);
    let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    struct Lifecycle {
        log: Arc<Mutex<Vec<&'static str>>>,
    }
    impl Filter for Lifecycle {
        fn init(&mut self, _ctx: &mut FilterCtx) {
            self.log.lock().push("init");
        }
        fn process(&mut self, _ctx: &mut FilterCtx) -> Result<(), FilterError> {
            self.log.lock().push("process");
            Ok(())
        }
        fn finalize(&mut self, _ctx: &mut FilterCtx) {
            self.log.lock().push("finalize");
        }
    }
    let mut g = GraphBuilder::new();
    let log2 = log.clone();
    g.add_filter("lc", Placement::on_host(HostId(0), 1), move |_| Lifecycle {
        log: log2.clone(),
    });
    Run::new(g.build()).go(&topo).unwrap();
    assert_eq!(*log.lock(), vec!["init", "process", "finalize"]);
}

#[test]
fn fan_out_filter_feeds_two_streams() {
    // One producer with two output ports feeding different consumers.
    let topo = flat_topology(3);
    struct Splitter;
    impl Filter for Splitter {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            assert_eq!(ctx.output_count(), 2);
            for i in 0..10u32 {
                ctx.write((i % 2) as usize, DataBuffer::new(i, 64));
            }
            Ok(())
        }
    }
    let evens: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let odds: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let mut g = GraphBuilder::new();
    let s = g.add_filter("split", Placement::on_host(HostId(0), 1), |_| Splitter);
    let e2 = evens.clone();
    let ce = g.add_filter("evens", Placement::on_host(HostId(1), 1), move |_| {
        Collect { out: e2.clone() }
    });
    let o2 = odds.clone();
    let co = g.add_filter("odds", Placement::on_host(HostId(2), 1), move |_| Collect {
        out: o2.clone(),
    });
    g.connect(s, ce, WritePolicy::RoundRobin); // port 0
    g.connect(s, co, WritePolicy::RoundRobin); // port 1
    Run::new(g.build()).go(&topo).unwrap();
    assert_eq!(*evens.lock(), vec![0, 2, 4, 6, 8]);
    assert_eq!(*odds.lock(), vec![1, 3, 5, 7, 9]);
}

#[test]
fn fan_in_filter_reads_two_ports() {
    // Two producers into one consumer through separate input ports,
    // each with independent end-of-work.
    let topo = flat_topology(3);
    struct Fixed(u32, u32); // base, count
    impl Filter for Fixed {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            for i in 0..self.1 {
                ctx.write(0, DataBuffer::new(self.0 + i, 64));
            }
            Ok(())
        }
    }
    struct Zip {
        out: Arc<Mutex<(Vec<u32>, Vec<u32>)>>,
    }
    impl Filter for Zip {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            assert_eq!(ctx.input_count(), 2);
            while let Some(b) = ctx.read(0) {
                self.out.lock().0.push(b.downcast::<u32>());
            }
            while let Some(b) = ctx.read(1) {
                self.out.lock().1.push(b.downcast::<u32>());
            }
            Ok(())
        }
    }
    let out: Arc<Mutex<(Vec<u32>, Vec<u32>)>> = Arc::default();
    let mut g = GraphBuilder::new();
    let a = g.add_filter("a", Placement::on_host(HostId(0), 1), |_| Fixed(100, 4));
    let b = g.add_filter("b", Placement::on_host(HostId(1), 1), |_| Fixed(200, 3));
    let o2 = out.clone();
    let z = g.add_filter("zip", Placement::on_host(HostId(2), 1), move |_| Zip {
        out: o2.clone(),
    });
    g.connect(a, z, WritePolicy::RoundRobin); // zip port 0
    g.connect(b, z, WritePolicy::RoundRobin); // zip port 1
    Run::new(g.build()).go(&topo).unwrap();
    let v = out.lock().clone();
    assert_eq!(v.0, vec![100, 101, 102, 103]);
    assert_eq!(v.1, vec![200, 201, 202]);
}

#[test]
fn write_to_targets_specific_copysets() {
    let topo = flat_topology(3);
    let out: Arc<Mutex<Vec<(hetsim::HostId, u32)>>> = Arc::new(Mutex::new(Vec::new()));
    struct Router;
    impl Filter for Router {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            assert_eq!(ctx.consumer_copysets(0), 2);
            for i in 0..10u32 {
                // Evens to set 0, odds to set 1.
                ctx.write_to(0, (i % 2) as usize, DataBuffer::new(i, 64));
            }
            Ok(())
        }
    }
    struct Tagger {
        out: Arc<Mutex<Vec<(hetsim::HostId, u32)>>>,
    }
    impl Filter for Tagger {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            while let Some(b) = ctx.read(0) {
                let host = ctx.host();
                self.out.lock().push((host, b.downcast::<u32>()));
            }
            Ok(())
        }
    }
    let mut g = GraphBuilder::new();
    let r = g.add_filter("router", Placement::on_host(HostId(0), 1), |_| Router);
    let out2 = out.clone();
    let t = g.add_filter(
        "tagger",
        Placement::one_per_host(&[HostId(1), HostId(2)]),
        move |info| {
            // Copy-set identity is exposed to the factory.
            assert_eq!(info.total_copysets, 2);
            Tagger { out: out2.clone() }
        },
    );
    g.connect(r, t, WritePolicy::RoundRobin);
    Run::new(g.build()).go(&topo).unwrap();
    let v = out.lock().clone();
    assert_eq!(v.len(), 10);
    for (host, val) in v {
        let expected = if val % 2 == 0 { HostId(1) } else { HostId(2) };
        assert_eq!(host, expected, "value {val} routed to wrong set");
    }
}

#[test]
fn multi_uow_lifecycle_runs_per_cycle() {
    let topo = flat_topology(2);
    let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    struct Cycler {
        log: Arc<Mutex<Vec<String>>>,
    }
    impl Filter for Cycler {
        fn init(&mut self, ctx: &mut FilterCtx) {
            self.log.lock().push(format!("init{}", ctx.uow()));
        }
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            for i in 0..3u32 {
                ctx.write(0, DataBuffer::new(ctx.uow() * 100 + i, 64));
            }
            Ok(())
        }
        fn finalize(&mut self, ctx: &mut FilterCtx) {
            self.log.lock().push(format!("fini{}", ctx.uow()));
        }
    }
    type UowLog = Arc<Mutex<Vec<(u32, Vec<u32>)>>>;
    let got: UowLog = Arc::new(Mutex::new(Vec::new()));
    struct PerUow {
        got: UowLog,
        current: Vec<u32>,
    }
    impl Filter for PerUow {
        fn init(&mut self, _ctx: &mut FilterCtx) {
            self.current.clear();
        }
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            while let Some(b) = ctx.read(0) {
                self.current.push(b.downcast::<u32>());
            }
            Ok(())
        }
        fn finalize(&mut self, ctx: &mut FilterCtx) {
            self.got.lock().push((ctx.uow(), self.current.clone()));
        }
    }
    let mut g = GraphBuilder::new();
    let log2 = log.clone();
    let src = g.add_filter("src", Placement::on_host(HostId(0), 1), move |_| Cycler {
        log: log2.clone(),
    });
    let got2 = got.clone();
    let snk = g.add_filter("snk", Placement::on_host(HostId(1), 1), move |_| PerUow {
        got: got2.clone(),
        current: Vec::new(),
    });
    g.connect(src, snk, WritePolicy::RoundRobin);
    let report = Run::new(g.build()).uows(3).go(&topo).unwrap();

    // Lifecycle ran once per UOW on the source.
    let l = log.lock().clone();
    assert_eq!(
        l,
        vec!["init0", "fini0", "init1", "fini1", "init2", "fini2"]
    );
    // Each UOW's data stayed within its cycle.
    let v = got.lock().clone();
    assert_eq!(v.len(), 3);
    for (uow, items) in &v {
        let want: Vec<u32> = (0..3).map(|i| uow * 100 + i).collect();
        assert_eq!(items, &want, "uow {uow}");
    }
    // Two barrier boundaries, increasing, within the run.
    assert_eq!(report.uow_boundaries.len(), 2);
    assert!(report.uow_boundaries[0] < report.uow_boundaries[1]);
    assert_eq!(report.uow_elapsed().len(), 3);
    assert!(report.uow_elapsed().iter().all(|d| !d.is_zero()));
}

#[test]
fn multi_uow_with_transparent_copies_is_complete() {
    // Copies + DD policy across 3 cycles: every item of every cycle is
    // delivered exactly once.
    let topo = flat_topology(3);
    let out: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    struct UowSource;
    impl Filter for UowSource {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            for i in 0..12u32 {
                ctx.compute(SimDuration::from_millis(1));
                ctx.write(0, DataBuffer::new(ctx.uow() * 1000 + i, 256));
            }
            Ok(())
        }
    }
    let mut g = GraphBuilder::new();
    let src = g.add_filter("src", Placement::on_host(HostId(0), 1), |_| UowSource);
    let dbl = g.add_filter(
        "dbl",
        Placement {
            per_host: vec![(HostId(1), 2), (HostId(2), 1)],
        },
        |_| Doubler {
            work: SimDuration::from_millis(2),
        },
    );
    let out2 = out.clone();
    let snk = g.add_filter("snk", Placement::on_host(HostId(0), 1), move |_| Collect {
        out: out2.clone(),
    });
    g.connect(src, dbl, WritePolicy::demand_driven());
    g.connect(dbl, snk, WritePolicy::RoundRobin);
    Run::new(g.build()).uows(3).go(&topo).unwrap();
    let mut v = out.lock().clone();
    v.sort_unstable();
    let mut want: Vec<u32> = (0..3u32)
        .flat_map(|u| (0..12u32).map(move |i| (u * 1000 + i) * 2))
        .collect();
    want.sort_unstable();
    assert_eq!(v, want);
    let _ = (src, dbl, snk);
}

#[test]
fn read_wait_is_recorded_for_starved_consumer() {
    let topo = flat_topology(2);
    let out: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let mut g = GraphBuilder::new();
    struct SlowSource;
    impl Filter for SlowSource {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            for i in 0..5u32 {
                ctx.compute(SimDuration::from_millis(20));
                ctx.write(0, DataBuffer::new(i, 100));
            }
            Ok(())
        }
    }
    let src = g.add_filter("src", Placement::on_host(HostId(0), 1), |_| SlowSource);
    let out2 = out.clone();
    let snk = g.add_filter("snk", Placement::on_host(HostId(1), 1), move |_| Collect {
        out: out2.clone(),
    });
    g.connect(src, snk, WritePolicy::RoundRobin);
    let report = Run::new(g.build()).go(&topo).unwrap();
    let snk_copy = &report.copies_of(snk)[0];
    assert!(
        snk_copy.counters.read_wait.as_nanos() > 50_000_000,
        "sink should wait ~100ms, got {}",
        snk_copy.counters.read_wait
    );
    let _ = src;
}
