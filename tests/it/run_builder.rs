//! The [`datacutter::Run`] builder: option composition (faults + setup in
//! one run), and the configurations `Run::go` rejects up front.

use std::sync::Arc;

use datacutter::{
    DataBuffer, ExecutorChoice, FaultOptions, Filter, FilterCtx, FilterError, GraphBuilder,
    NativeExecutor, Placement, Run, RunError, SimExecutor, WritePolicy,
};
use hetsim::{
    spawn_load_generator, FaultPlan, HostId, LoadProfile, SimDuration, SimTime, Topology,
};
use integration_tests::{at_least_once, cluster};
use parking_lot::Mutex;

/// A buffer holding the 1 024 bytes it declares, `v` in the first eight.
fn block(v: u64) -> DataBuffer {
    let mut bytes = vec![0u8; 1024];
    bytes[..8].copy_from_slice(&v.to_le_bytes());
    DataBuffer::new(bytes, 1024)
}

/// The value a [`block`] carries.
fn value(b: DataBuffer) -> u64 {
    let bytes = b.downcast::<Vec<u8>>();
    u64::from_le_bytes(bytes[..8].try_into().expect("a block holds 1 024 bytes"))
}

struct Src {
    n: u64,
}
impl Filter for Src {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        for i in 0..self.n {
            ctx.compute(SimDuration::from_millis(2));
            ctx.write(0, block(i));
        }
        Ok(())
    }
}

struct Work;
impl Filter for Work {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        while let Some(b) = ctx.read(0) {
            let v = value(b);
            ctx.compute(SimDuration::from_millis(6));
            ctx.write(0, block(v));
        }
        Ok(())
    }
}

struct Snk {
    out: Arc<Mutex<Vec<u64>>>,
}
impl Filter for Snk {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        while let Some(b) = ctx.read(0) {
            self.out.lock().push(value(b));
        }
        Ok(())
    }
}

fn workload(
    topo: &Topology,
    hosts: &[hetsim::HostId],
    n: u64,
) -> (datacutter::AppGraph, Arc<Mutex<Vec<u64>>>) {
    let _ = topo;
    let out: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut g = GraphBuilder::new();
    let s = g.add_filter("src", Placement::on_host(hosts[0], 1), move |_| Src { n });
    let w = g.add_filter(
        "work",
        Placement::one_per_host(&[hosts[1], hosts[2]]),
        |_| Work,
    );
    let out2 = out.clone();
    let k = g.add_filter("snk", Placement::on_host(hosts[0], 1), move |_| Snk {
        out: out2.clone(),
    });
    g.connect(s, w, WritePolicy::demand_driven());
    g.connect(w, k, WritePolicy::RoundRobin);
    (g.build(), out)
}

/// One run combining an injected host crash and a custom setup hook (a
/// mid-run CPU storm).
#[test]
fn faults_and_setup_combine_in_one_run() {
    let (topo, hosts) = cluster(3);
    let (graph, out) = workload(&topo, &hosts, 40);
    let crash_at = SimTime::ZERO + SimDuration::from_millis(40);
    let plan = FaultPlan::new().crash_host(hosts[2], crash_at);
    let storm_cpu = topo.host(hosts[1]).cpu.clone();
    let report = Run::new(graph)
        .faults(FaultOptions::new(plan))
        .setup(move |sim| {
            let profile = LoadProfile {
                steps: vec![
                    (SimDuration::from_millis(20), 0),
                    (SimDuration::from_millis(100), 8),
                ],
            };
            spawn_load_generator(sim, "storm", storm_cpu, profile);
        })
        .go(&topo)
        .unwrap();
    // The crash happened and was recovered: every item was delivered at
    // least once, and retention lost nothing.
    let f = &report.faults;
    assert!(!f.injected.is_empty());
    assert!(f.copies_killed >= 1, "{f:?}");
    at_least_once(out.lock().clone(), 40, f).unwrap();
}

/// Both executors, fresh.
fn executors() -> [ExecutorChoice; 2] {
    [SimExecutor::new().into(), NativeExecutor::new().into()]
}

/// Zero units of work is a structured error on both executors, not a
/// panic out of `Run::go`.
#[test]
fn zero_uows_is_a_structured_error_on_both_executors() {
    let (topo, hosts) = cluster(3);
    for exec in executors() {
        let (graph, out) = workload(&topo, &hosts, 4);
        match Run::new(graph).executor(exec).uows(0).go(&topo) {
            Err(RunError::Unsupported { what }) => assert!(what.contains("unit of work"), "{what}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
        assert!(out.lock().is_empty(), "nothing ran");
    }
}

/// A placement naming a host the topology lacks is rejected before
/// anything is spawned, with the same error on both executors — not
/// blamed on a healthy filter, and not run as if the host existed.
#[test]
fn placement_on_a_missing_host_is_a_structured_error_on_both_executors() {
    let (topo, hosts) = cluster(2);
    for exec in executors() {
        let out: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = out.clone();
        let mut g = GraphBuilder::new();
        let p = g.add_filter("p", Placement::on_host(hosts[0], 1), |_| Src { n: 4 });
        let c = g.add_filter("c", Placement::on_host(HostId(99), 1), move |_| Snk {
            out: sink.clone(),
        });
        g.connect(p, c, WritePolicy::demand_driven());
        match Run::new(g.build()).executor(exec).go(&topo) {
            Err(RunError::Unsupported { what }) => {
                assert!(what.contains("'c'") && what.contains("host99"), "{what}")
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        assert!(out.lock().is_empty(), "nothing ran");
    }
}

/// `Run::memory_budget` reaches every payload: the relay of plain
/// `Vec<u8>` blocks under a budget far below its traffic parks buffers
/// in the spill ring, faults each one back in, and sums what the
/// unbudgeted run sums. The ledger charges what a payload holds, so the
/// blocks hold the 1 024 bytes they declare.
#[test]
fn memory_budget_spills_plain_payloads() {
    let (topo, hosts) = cluster(3);
    let run = |budget: u64| {
        let (graph, out) = workload(&topo, &hosts, 40);
        let report = Run::new(graph).memory_budget(budget).go(&topo).unwrap();
        let sum: u64 = out.lock().iter().sum();
        (report.ooc, sum)
    };
    let (_, clean) = run(0);
    let (ooc, budgeted) = run(4 * 1024);
    assert_eq!(budgeted, clean);
    assert_eq!(clean, (0..40).sum::<u64>());
    assert!(ooc.spills > 0, "{ooc:?}");
    assert_eq!(ooc.spills, ooc.faults, "{ooc:?}");
}
