//! Copy instantiation and wiring: builds the per-stream channels and
//! gates, spawns one reaper per doomed copy set, then spawns every
//! transparent filter copy with its input/output ports. Under an executor
//! that relays ([`ExecutorChoice::relays`], the simulator) each consumer
//! copy set also gets an ack courier and each output port an outbox
//! sender, both threadless handlers; on the native executor a copy is the
//! only thread spawned for it.
//!
//! **Spawn order is load-bearing.** On the deterministic substrate,
//! registration order fixes process identity and therefore event order;
//! this module preserves the exact sequence of the pre-refactor monolith —
//! per stream: couriers (one per copy set, interleaved with channel
//! creation); then reapers; then per filter copy: one sender per output
//! port followed by the copy itself — so simulation runs stay bit-for-bit
//! identical; senders and couriers are handlers, registered in those same
//! slots. Only sets whose host the plan crashes get a reaper (the tests
//! below pin the sequence).
//!
//! ## Panic containment
//!
//! Every filter callback runs under `catch_unwind` inside a containment
//! scope, one attempt per unit of work. The two runtime sentinels pass
//! through untouched (the [`KilledMarker`] of a scheduled host crash,
//! handled by the copy's outer wrapper; the abort sentinel of a recorded
//! [`RunError`]). A *real* panic out of user filter code aborts the run
//! with [`RunError::FilterPanic`]; the process never crashes.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use hetsim::{HostId, SimTime, Topology};
use parking_lot::Mutex;

use super::delivery::{self, CourierMsg, Delivery, Envelope, OutMsg};
use super::eow::UowGate;
use super::exec::{ChanRx, ChanTx, ExecEnv, ExecutorChoice};
use super::reaper::Reaper;
use super::retain::StreamRetention;
use super::Tuning;
use crate::budget::{MemoryBudget, StreamOoc};
use crate::context::{FilterCtx, InputPort, Outbox, OutputPort};
use crate::fault::{
    abort_run, contain_scope, panic_message, ErrorCell, FaultCtl, KilledMarker, RunError, ABORT_MSG,
};
use crate::filter::CopyInfo;
use crate::graph::{AppGraph, FilterId, DEFAULT_QUEUE_CAPACITY};
use crate::metrics::{CopyCell, CopyCounters, CopySetCell};
use crate::policy::{CopySetInfo, WriterState};
use crate::storage::StorageCtl;

/// Capacity of each per-copy outbox under the simulator: how many messages
/// a copy can hand to its outbox sender — a threadless handler that
/// charges the modelled wire — before a write blocks. Models the kernel
/// socket buffer that lets a filter keep computing while a previous buffer
/// is on the wire.
const OUTBOX_CAPACITY: usize = 2;

/// Capacity of the simulator's ack courier queues. Consumers block on a
/// full courier queue, but under the demand-driven policy the queue can
/// never hold more acks than the producer side has window credit (each
/// queued ack is an unacknowledged buffer), so with the default windows
/// this bound is never reached; RR/WRR generate no acks at all.
const COURIER_CAPACITY: usize = 1024;

/// Everything the driver needs to harvest a report after the run: the
/// metric cells (shared with the spawned processes) and the barrier
/// boundary log. Holds no channel endpoints, so queues close as soon as
/// the last real user (filter copy or sender handler) finishes.
pub(crate) struct RunWiring {
    pub copy_cells: Vec<(FilterId, String, usize, HostId, CopyCell)>,
    pub uow_boundaries: Arc<Mutex<Vec<SimTime>>>,
    /// Per stream: `(host, counters)` of each consumer copy set.
    pub stream_sets: Vec<Vec<(HostId, CopySetCell)>>,
    /// Each stream's name and retention (runs whose copies can die), swept
    /// for unsettled entries once the run ends.
    pub retention: Vec<(String, Arc<StreamRetention>)>,
}

/// Wire `graph` onto `exec` and register every runtime process. Nothing
/// runs until the driver calls [`ExecutorChoice::run`].
#[allow(clippy::too_many_arguments)] // one-call crate-internal wiring entry point
pub(crate) fn build(
    exec: &mut ExecutorChoice,
    topo: &Topology,
    graph: &Arc<AppGraph>,
    uows: u32,
    fault_ctl: Option<Arc<FaultCtl>>,
    error_cell: ErrorCell,
    tuning: &Tuning,
    ooc: Option<(Arc<MemoryBudget>, Arc<StorageCtl>)>,
) -> RunWiring {
    let cancel = exec.cancel_scope();
    let relays = exec.relays();
    let all_copies: u32 = graph
        .filters
        .iter()
        .map(|f| f.placement.total_copies())
        .sum();

    // A copy set can die when its host is on the crash plan. Exactly these
    // sets get a reaper, and live peer sets watch exactly these.
    let can_die = |set: &CopySetInfo| {
        fault_ctl
            .as_ref()
            .is_some_and(|c| c.plan.host_death(set.host).is_some())
    };

    // ---- per-stream wiring ------------------------------------------------
    struct StreamRt {
        sets: Vec<CopySetInfo>,
        data_txs: Vec<ChanTx<Envelope>>,
        data_rxs: Vec<ChanRx<Envelope>>,
        courier_txs: Vec<Option<ChanTx<CourierMsg>>>,
        gates: Vec<Arc<Mutex<UowGate>>>,
        cells: Vec<CopySetCell>,
        /// The stream's retention, when copies can die.
        retention: Option<Arc<StreamRetention>>,
        /// Out-of-core state (budget share + spill ring), when a memory
        /// budget is configured. One per stream, shared by every producer
        /// and consumer port of the stream.
        ooc: Option<Arc<StreamOoc>>,
    }

    // One payload-box recycler for the whole run: boxes released when a
    // consumer unwraps a buffer feed the next producer's `make`, and
    // retention draws its replicas from the same pool.
    let slab = crate::buffer::BufferSlab::new();

    // Memory budget: split evenly across the graph's streams. A stream
    // whose in-flight payloads exceed its share spills to the
    // run-wide ring.
    let stream_share = tuning.memory_budget_bytes / (graph.streams.len().max(1) as u64);

    let mut streams_rt: Vec<StreamRt> = Vec::with_capacity(graph.streams.len());
    for spec in &graph.streams {
        let consumer = &graph.filters[spec.to.0 as usize];
        // Producer copy hosts in copy-index order: the end-of-work gate
        // tracks markers per producer copy so dead producers can be
        // excused without under- or over-counting.
        let producer_hosts: Vec<HostId> = graph.filters[spec.from.0 as usize]
            .placement
            .per_host
            .iter()
            .flat_map(|&(h, n)| std::iter::repeat_n(h, n as usize))
            .collect();
        let retention = fault_ctl
            .as_ref()
            .filter(|c| c.crashes_possible())
            .map(|ctl| {
                Arc::new(StreamRetention::new(
                    producer_hosts.len(),
                    slab.clone(),
                    ctl.clone(),
                ))
            });
        let mut sets = Vec::new();
        let mut data_txs = Vec::new();
        let mut data_rxs = Vec::new();
        let mut courier_txs = Vec::new();
        let mut gates = Vec::new();
        let mut cells = Vec::new();
        let mut first_copy = 0usize;
        for &(host, copies) in &consumer.placement.per_host {
            let set = CopySetInfo {
                host,
                copies,
                filter: spec.to,
                first_copy,
            };
            sets.push(set);
            first_copy += copies as usize;
            // Room for data plus the UowDone tokens injected at the end of
            // each cycle.
            let cap = DEFAULT_QUEUE_CAPACITY * copies as usize + copies as usize;
            let (tx, rx) = exec.channel::<Envelope>(cap.max(1));
            data_txs.push(tx);
            data_rxs.push(rx);
            gates.push(Arc::new(Mutex::new(UowGate::new(
                producer_hosts.clone(),
                set,
            ))));
            let courier_tx = relays.then(|| {
                let (tx, rx) = exec.channel::<CourierMsg>(COURIER_CAPACITY);
                delivery::spawn_courier(
                    exec,
                    &spec.name,
                    host,
                    topo,
                    rx,
                    retention.clone(),
                    producer_hosts.clone(),
                );
                tx
            });
            courier_txs.push(courier_tx);
            cells.push(CopySetCell::default());
        }
        let stream_ooc = ooc
            .as_ref()
            .map(|(ledger, storage)| StreamOoc::new(ledger.clone(), storage.clone(), stream_share));
        // Reapers: one per copy set whose host is scheduled to crash,
        // holding senders only to sets with no scheduled death. The
        // reaper's receiver clone keeps the dead queue open so buffers
        // sent before writers notice the death are salvaged, not dropped.
        if let (Some(ctl), Some(retention)) = (fault_ctl.as_ref(), retention.as_ref()) {
            for (set_idx, set) in sets.iter().enumerate() {
                if !can_die(set) {
                    continue;
                }
                let survivors = sets
                    .iter()
                    .enumerate()
                    .filter(|&(_, s)| !can_die(s))
                    .map(|(i, _)| (i, data_txs[i].clone()))
                    .collect();
                let reaper = Reaper {
                    ctl: ctl.clone(),
                    rx: data_rxs[set_idx].clone(),
                    survivors,
                    sets: sets.clone(),
                    own_idx: set_idx,
                    topo: topo.clone(),
                    gate: gates[set_idx].clone(),
                    uows,
                    cancel: cancel.clone(),
                    retention: retention.clone(),
                    producer_hosts: producer_hosts.clone(),
                    ooc: stream_ooc.clone(),
                };
                exec.spawn(
                    format!("reaper:{}@h{}", spec.name, set.host.0),
                    Box::new(move |env: ExecEnv| reaper.run(env)),
                );
            }
        }
        streams_rt.push(StreamRt {
            sets,
            data_txs,
            data_rxs,
            courier_txs,
            gates,
            cells,
            retention,
            ooc: stream_ooc,
        });
    }

    // ---- per-copy spawning ------------------------------------------------
    let barrier = exec.barrier(all_copies as usize);
    let uow_boundaries: Arc<Mutex<Vec<SimTime>>> = Arc::new(Mutex::new(Vec::new()));

    let mut copy_cells: Vec<(FilterId, String, usize, HostId, CopyCell)> = Vec::new();
    for (fidx, fspec) in graph.filters.iter().enumerate() {
        let fid = FilterId(fidx as u32);
        let input_ids = graph.inputs_of(fid);
        let output_ids = graph.outputs_of(fid);
        let total_copies = fspec.placement.total_copies() as usize;

        let mut copy_index = 0usize;
        for (set_idx, &(host, copies)) in fspec.placement.per_host.iter().enumerate() {
            for _k in 0..copies {
                let cell: CopyCell = Arc::new(Mutex::new(CopyCounters::default()));
                copy_cells.push((fid, fspec.name.clone(), copy_index, host, cell.clone()));
                let copy_name = format!("{}#{}@h{}", fspec.name, copy_index, host.0);

                // Input ports: this copy shares its host's copy-set queue.
                let mut inputs = Vec::new();
                for &sid in &input_ids {
                    let rt = &streams_rt[sid.0 as usize];
                    inputs.push(InputPort {
                        rx: rt.data_rxs[set_idx].clone(),
                        inject_tx: rt.data_txs[set_idx].clone(),
                        courier_tx: rt.courier_txs[set_idx].clone(),
                        gate: rt.gates[set_idx].clone(),
                        peer_gates: rt
                            .sets
                            .iter()
                            .enumerate()
                            .filter(|&(i, s)| i != set_idx && can_die(s))
                            .map(|(i, _)| rt.gates[i].clone())
                            .collect(),
                        copyset_counters: rt.cells[set_idx].clone(),
                        retention: rt.retention.clone(),
                        journal: Vec::new(),
                        eow_taken: false,
                        ooc: rt.ooc.clone(),
                    });
                }

                // Output ports: per-copy writer state + delivery, relayed
                // through an outbox sender handler or run in the copy's
                // thread.
                let mut outputs = Vec::new();
                for &sid in &output_ids {
                    let rt = &streams_rt[sid.0 as usize];
                    let spec = &graph.streams[sid.0 as usize];
                    let delivery = Delivery {
                        stream_id: sid.0,
                        copy_index,
                        host,
                        sets: rt.sets.clone(),
                        targets: rt.data_txs.clone(),
                        topo: topo.clone(),
                        faults: fault_ctl.clone(),
                        seq: 0,
                    };
                    let outbox = if relays {
                        let (tx, rx) = exec.channel::<OutMsg>(OUTBOX_CAPACITY);
                        delivery.spawn_sender(exec, &spec.name, rx);
                        Outbox::Sender(tx)
                    } else {
                        Outbox::Inline(delivery)
                    };
                    outputs.push(OutputPort {
                        writer: WriterState::for_run(
                            spec.policy,
                            &rt.sets,
                            host,
                            fault_ctl.clone(),
                            cancel.clone(),
                        ),
                        outbox,
                        targets: rt.sets.len(),
                        retention: rt.retention.clone(),
                        ooc: rt.ooc.clone(),
                    });
                }

                let info = CopyInfo {
                    copy_index,
                    total_copies,
                    copyset_index: set_idx,
                    total_copysets: fspec.placement.per_host.len(),
                    host,
                };
                let topo2 = topo.clone();
                let graph2 = graph.clone();
                let barrier2 = barrier.clone();
                let barrier_out = barrier.clone();
                let boundaries2 = uow_boundaries.clone();
                let fname = fspec.name.clone();
                let copy_ctl = fault_ctl.clone();
                let kill_ctl = fault_ctl.clone();
                let copy_errors = error_cell.clone();
                let my_death = fault_ctl.as_ref().and_then(|c| c.plan.host_death(host));
                let copy_slab = slab.clone();
                exec.spawn(
                    copy_name,
                    Box::new(move |env: ExecEnv| {
                        let env_out = env.clone();
                        let body = AssertUnwindSafe(move || {
                            let mut filter = (graph2.filters[fid.0 as usize].factory)(info);
                            let mut ctx = FilterCtx {
                                env,
                                topo: topo2,
                                info,
                                uow: 0,
                                inputs,
                                outputs,
                                metrics: cell,
                                faults: copy_ctl,
                                my_death,
                                slab: copy_slab,
                                name: Arc::from(fname.as_str()),
                                errors: copy_errors.clone(),
                            };
                            for uow in 0..uows {
                                ctx.begin_uow(uow);
                                // One attempt at this unit of work: every
                                // filter callback inside a containment
                                // scope.
                                let attempt = std::panic::catch_unwind(AssertUnwindSafe(
                                    || -> Result<(), String> {
                                        let _contain = contain_scope();
                                        filter.init(&mut ctx);
                                        filter.process(&mut ctx).map_err(|e| e.to_string())?;
                                        filter.finalize(&mut ctx);
                                        Ok(())
                                    },
                                ));
                                match attempt {
                                    Ok(Ok(())) => {}
                                    Ok(Err(message)) => abort_run(
                                        &copy_errors,
                                        RunError::Filter {
                                            filter: fname.clone(),
                                            copy: info.copy_index,
                                            host,
                                            uow,
                                            message,
                                        },
                                    ),
                                    Err(payload) => {
                                        if payload.is::<KilledMarker>()
                                            || payload
                                                .downcast_ref::<String>()
                                                .is_some_and(|s| s == ABORT_MSG)
                                        {
                                            // Runtime sentinels pass through:
                                            // the kill to the outer wrapper's
                                            // death bookkeeping, the abort to
                                            // the driver.
                                            std::panic::resume_unwind(payload);
                                        }
                                        abort_run(
                                            &copy_errors,
                                            RunError::FilterPanic {
                                                filter: fname.clone(),
                                                copy: info.copy_index,
                                                host,
                                                uow,
                                                message: panic_message(payload.as_ref()),
                                            },
                                        )
                                    }
                                }
                                ctx.end_uow();
                                ctx.emit_eow();
                                if uow + 1 < uows {
                                    // Work cycles are separated by a global
                                    // barrier, like the paper's per-query
                                    // runs.
                                    if barrier2.wait(&ctx.env) {
                                        boundaries2.lock().push(ctx.env.now());
                                    }
                                }
                            }
                        });
                        if let Err(payload) = std::panic::catch_unwind(body) {
                            if !payload.is::<KilledMarker>() {
                                std::panic::resume_unwind(payload);
                            }
                            // This copy's host crashed. Tally the death and
                            // withdraw from the inter-UOW barrier so the
                            // surviving copies are not stranded.
                            if let Some(ctl) = &kill_ctl {
                                ctl.tallies.lock().copies_killed += 1;
                            }
                            barrier_out.leave(&env_out);
                        }
                    }),
                );
                copy_index += 1;
            }
        }
    }

    // Record the harvest targets, dropping the wiring originals so
    // channels close when the last real user finishes.
    let retention = streams_rt
        .iter()
        .zip(&graph.streams)
        .filter_map(|(rt, spec)| Some((spec.name.clone(), rt.retention.clone()?)))
        .collect();
    let stream_sets: Vec<Vec<(HostId, CopySetCell)>> = streams_rt
        .iter()
        .map(|rt| {
            rt.sets
                .iter()
                .map(|s| s.host)
                .zip(rt.cells.iter().cloned())
                .collect()
        })
        .collect();
    drop(streams_rt);

    RunWiring {
        copy_cells,
        uow_boundaries,
        stream_sets,
        retention,
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    //! Spawn shape: which processes a run registers, and in what order.

    use std::sync::Arc;

    use hetsim::{FaultPlan, SimTime};
    use parking_lot::Mutex;

    use super::super::exec::SPAWN_LOG;
    use super::super::{
        drive, silence_sentinel_panics, ExecutorChoice, NativeExecutor, SimExecutor, Tuning,
    };
    use crate::fault::FaultCtl;
    use crate::{
        FaultOptions, Filter, FilterCtx, FilterError, GraphBuilder, Placement, WritePolicy,
    };

    /// One registration: the process name, and whether it was a handler.
    type Spawned = (String, bool);

    const ITEMS: u32 = 24;

    struct Src;
    impl Filter for Src {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            for i in 0..ITEMS {
                let b = ctx.buffer_slab().make(i, 256);
                ctx.write(0, b);
            }
            Ok(())
        }
    }

    struct Mid;
    impl Filter for Mid {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            while let Some(b) = ctx.read(0) {
                let v = b.downcast::<u32>();
                let b = ctx.buffer_slab().make(v, 256);
                ctx.write(0, b);
            }
            Ok(())
        }
    }

    struct Snk(Arc<Mutex<Vec<u32>>>);
    impl Filter for Snk {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            while let Some(b) = ctx.read(0) {
                self.0.lock().push(b.downcast::<u32>());
            }
            Ok(())
        }
    }

    /// `src` (h0) → `mid` (two copies on h1, one on h2) → `snk` (h0), both
    /// streams demand-driven. Under `crash`, h2 dies at t = 0. Returns the registered processes (read from this
    /// thread's registration log) and the sorted items the sink received.
    fn register(exec: impl Into<ExecutorChoice>, crash: bool) -> (Vec<Spawned>, Vec<u32>) {
        silence_sentinel_panics();
        let (topo, hosts) = hetsim::presets::rogue_cluster(3);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let mut g = GraphBuilder::new();
        let src = g.add_filter("src", Placement::on_host(hosts[0], 1), |_| Src);
        let mid = g.add_filter(
            "mid",
            Placement {
                per_host: vec![(hosts[1], 2), (hosts[2], 1)],
            },
            |_| Mid,
        );
        let snk = g.add_filter("snk", Placement::on_host(hosts[0], 1), move |_| {
            Snk(sink.clone())
        });
        g.connect(src, mid, WritePolicy::demand_driven());
        g.connect(mid, snk, WritePolicy::demand_driven());
        let faults = crash.then(|| {
            let plan = FaultPlan::new().crash_host(hosts[2], SimTime::ZERO);
            FaultCtl::new(&FaultOptions::new(plan))
        });
        SPAWN_LOG.with_borrow_mut(Vec::clear);
        drive(
            exec.into(),
            &topo,
            Arc::new(g.build()),
            1,
            faults,
            Tuning::default(),
        )
        .expect("run completes");
        let mut got = seen.lock().clone();
        got.sort_unstable();
        (SPAWN_LOG.take(), got)
    }

    /// The registered names, in order.
    fn names(spawned: &[Spawned]) -> Vec<&str> {
        spawned.iter().map(|(name, _)| name.as_str()).collect()
    }

    /// The names registered as handlers, in order.
    fn handlers(spawned: &[Spawned]) -> Vec<&str> {
        spawned
            .iter()
            .filter(|(_, handler)| *handler)
            .map(|(name, _)| name.as_str())
            .collect()
    }

    const COPIES: [&str; 5] = ["src#0@h0", "mid#0@h1", "mid#1@h1", "mid#2@h2", "snk#0@h0"];

    #[test]
    fn native_clean_run_spawns_only_its_copies() {
        let (spawned, got) = register(NativeExecutor::new(), false);
        assert_eq!(names(&spawned), COPIES);
        assert!(handlers(&spawned).is_empty());
        assert_eq!(got, (0..ITEMS).collect::<Vec<_>>());
    }

    /// Only the set on the crashed host gets a reaper: `src->mid@h2`. The
    /// sets on h1 and h0 have no scheduled death, so neither gets one.
    #[test]
    fn native_crash_run_spawns_the_doomed_sets_reaper_then_copies() {
        let (spawned, got) = register(NativeExecutor::new(), true);
        let want: Vec<&str> = ["reaper:src->mid@h2"]
            .iter()
            .chain(&COPIES)
            .copied()
            .collect();
        assert_eq!(names(&spawned), want);
        assert!(handlers(&spawned).is_empty());
        assert_eq!(got, (0..ITEMS).collect::<Vec<_>>());
    }

    /// Spawn order is load-bearing on the simulator (it fixes process ids
    /// and so event order): couriers per copy set with each stream's
    /// channels, that stream's reapers, then per copy its senders and the
    /// copy itself. Pinned literally. The senders and
    /// couriers are handlers, registered in the slots their threads had;
    /// everything else is a thread.
    #[test]
    fn sim_runs_keep_the_relay_processes_in_their_order() {
        let relays = |spawned: &[Spawned]| -> Vec<String> {
            names(spawned)
                .into_iter()
                .filter(|n| n.starts_with("sender:") || n.starts_with("courier:"))
                .map(String::from)
                .collect()
        };
        let (spawned, got) = register(SimExecutor::new(), false);
        assert_eq!(handlers(&spawned), relays(&spawned));
        assert_eq!((spawned.len(), handlers(&spawned).len()), (12, 7));
        assert_eq!(
            names(&spawned),
            [
                "courier:src->mid@h1",
                "courier:src->mid@h2",
                "courier:mid->snk@h0",
                "sender:src->mid#0@h0",
                "src#0@h0",
                "sender:mid->snk#0@h1",
                "mid#0@h1",
                "sender:mid->snk#1@h1",
                "mid#1@h1",
                "sender:mid->snk#2@h2",
                "mid#2@h2",
                "snk#0@h0",
            ]
        );
        assert_eq!(got, (0..ITEMS).collect::<Vec<_>>());

        let (spawned, got) = register(SimExecutor::new(), true);
        assert_eq!(handlers(&spawned), relays(&spawned));
        assert_eq!((spawned.len(), handlers(&spawned).len()), (13, 7));
        assert_eq!(
            names(&spawned),
            [
                "courier:src->mid@h1",
                "courier:src->mid@h2",
                "reaper:src->mid@h2",
                "courier:mid->snk@h0",
                "sender:src->mid#0@h0",
                "src#0@h0",
                "sender:mid->snk#0@h1",
                "mid#0@h1",
                "sender:mid->snk#1@h1",
                "mid#1@h1",
                "sender:mid->snk#2@h2",
                "mid#2@h2",
                "snk#0@h0",
            ]
        );
        assert_eq!(got, (0..ITEMS).collect::<Vec<_>>());
    }
}
