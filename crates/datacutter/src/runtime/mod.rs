//! The layered filter runtime: instantiates an [`AppGraph`] on a
//! [`Topology`] and executes units of work on a pluggable substrate.
//!
//! * `exec` — [`ExecutorChoice`], the one substrate seam (channels,
//!   barriers, spawning and running, matched over its two variants), and
//!   the virtual-time [`SimExecutor`],
//! * `native` — the wall-clock [`NativeExecutor`] (one OS thread per
//!   process, condvar blocking),
//! * `spawn` — copy instantiation and stream wiring,
//! * `delivery` — putting envelopes on copy-set queues (retransmission,
//!   injected delays and stalls), plus the simulator's outbox-sender and
//!   ack-courier handlers,
//! * `eow` — end-of-work gates (UOW cycle separation),
//! * `reaper` — dead-set salvage: retargeting retained replicas and
//!   replaying non-replicable demand-driven buffers,
//! * `retain` — producer-side retention rings (runs whose copies can die),
//! * `supervisor` — wedge detection and eviction for supervised runs.
//!
//! Runs are configured with the [`Run`] builder:
//!
//! ```ignore
//! let report = Run::new(graph)
//!     .uows(3)
//!     .trace(trace)
//!     .go(&topo)?;
//! ```
//!
//! End-of-work markers flow in-band: when a producer copy finishes its
//! work cycle, an EOW marker is broadcast to every consumer copy set; once
//! a copy set has seen the marker from every producer copy, each consumer
//! copy's next read returns `None`. Multi-UOW runs repeat the cycle with a
//! global barrier in between.

pub(crate) mod delivery;
pub(crate) mod eow;
pub(crate) mod exec;
pub(crate) mod native;
pub(crate) mod reaper;
pub(crate) mod retain;
pub(crate) mod spawn;
pub(crate) mod supervisor;

use std::sync::Arc;

use hetsim::{SimTime, Simulation, Topology};
use parking_lot::Mutex;

pub use exec::{ExecutorChoice, SimExecutor};
pub use native::{NativeExecutor, TaskedExecutor};

use crate::fault::{ErrorCell, FaultCtl, FaultOptions, KilledMarker, RunError};
use crate::graph::AppGraph;
use crate::metrics::{CopyReport, FaultReport, RunReport, StreamReport};

/// Runtime tuning knobs carried from the [`Run`] builder into the wiring.
#[derive(Clone, Copy)]
pub(crate) struct Tuning {
    /// Byte budget for in-flight stream payloads (0 = unlimited; the
    /// out-of-core spill path is off and runs are untouched).
    pub memory_budget_bytes: u64,
    /// Retries granted to a failing spill write or fault-in read before
    /// the degradation ladder takes over.
    pub storage_retry_budget: u32,
    /// Seal every spill frame with a 64-bit checksum verified on
    /// fault-in (8 bytes per frame; detects any single-bit corruption).
    pub checksum_spills: bool,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            memory_budget_bytes: 0,
            storage_retry_budget: crate::storage::DEFAULT_STORAGE_RETRY_BUDGET,
            checksum_spills: true,
        }
    }
}

/// A deferred simulation-setup hook (the `Run::setup` option).
type SetupFn = Box<dyn FnOnce(&mut Simulation)>;

/// Builder for one pipeline run: one composable entry point — every
/// option can be combined (e.g. trace + faults + custom setup in the same
/// run).
///
/// Defaults: one unit of work, the virtual-time [`SimExecutor`], no trace,
/// no faults and no memory budget.
pub struct Run {
    graph: AppGraph,
    uows: u32,
    trace: Option<hetsim::Trace>,
    faults: Option<FaultOptions>,
    setup: Option<SetupFn>,
    executor: ExecutorChoice,
    tuning: Tuning,
}

impl Run {
    /// Configure a run of `graph` with the defaults above.
    pub fn new(graph: AppGraph) -> Self {
        Run {
            graph,
            uows: 1,
            trace: None,
            faults: None,
            setup: None,
            executor: ExecutorChoice::Sim(SimExecutor::new()),
            tuning: Tuning::default(),
        }
    }

    /// Execute `n` consecutive units of work. Every filter copy runs the
    /// full `init` → `process` → `finalize` cycle once per UOW (selecting
    /// its work via [`crate::context::FilterCtx::uow`]); end-of-work
    /// markers flow in-band on the streams, and a global barrier separates
    /// cycles (the next UOW starts only after every copy finished the
    /// previous one, like the paper's per-query execution). `go` rejects
    /// `n == 0` with [`RunError::Unsupported`].
    pub fn uows(mut self, n: u32) -> Self {
        self.uows = n;
        self
    }

    /// Record per-copy compute and read-wait spans into `trace` for
    /// timeline inspection. Works on both substrates (wall-clock spans
    /// under the native executor).
    pub fn trace(mut self, trace: hetsim::Trace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Inject the faults scheduled in `opts` and run the recovery
    /// machinery: liveness-timeout death detection, writer-side eviction
    /// of dead consumer hosts, end-of-work accounting that tolerates dead
    /// producer copies, and redelivery from dead copy sets to survivors.
    /// The returned report's [`RunReport::faults`] records what was
    /// injected and repaired.
    ///
    /// Works on both substrates: the same plan runs bit-reproducibly on
    /// the virtual-time executor and in wall-clock time on the native
    /// executor. NIC degradation (`degrade_nic`) uses the
    /// simulation's bandwidth drivers under virtual time; the native
    /// executor emulates the same windows by stalling the writing copy
    /// for the degraded fraction of each message's serialization time.
    /// Natively a drop's retransmit wait, an injected delay and a degrade
    /// stall are all paid by the writing copy, as a blocking socket send
    /// would be.
    ///
    /// When copies can die (a crash in the plan, or supervision) every
    /// stream retains its replicable buffers until consumers settle them,
    /// and retained replicas are redelivered after crashes and supervised
    /// restarts — a crashed-and-recovered run reports `buffers_lost == 0`
    /// and produces output identical to a fault-free run. A replica still
    /// retained when the run ends (no live consumer was left) is counted
    /// lost. Without crashes nothing is retained.
    ///
    /// Two caveats on the reported `elapsed` under a plan with crashes: a
    /// crash scheduled after the pipeline naturally finishes extends the
    /// run to roughly the crash time (the reaper waits for it), and even a
    /// triggered crash adds up to one liveness-timeout of teardown.
    pub fn faults(mut self, opts: FaultOptions) -> Self {
        self.faults = Some(opts);
        self
    }

    /// Spawn auxiliary processes into the pipeline's simulation before it
    /// starts — e.g. a [`hetsim::spawn_load_generator`] storming a host
    /// *while the pipeline runs*, the "varying resource availability"
    /// scenario of the paper. Virtual-time only.
    ///
    /// Note: the run ends when every process — including auxiliaries — has
    /// finished, so an auxiliary outliving the pipeline extends the
    /// reported `elapsed`.
    pub fn setup(mut self, setup: impl FnOnce(&mut Simulation) + 'static) -> Self {
        self.setup = Some(Box::new(setup));
        self
    }

    /// Choose the execution substrate (accepts a [`SimExecutor`] or
    /// [`NativeExecutor`] value directly).
    pub fn executor(mut self, executor: impl Into<ExecutorChoice>) -> Self {
        self.executor = executor.into();
        self
    }

    /// Bound the bytes of in-flight stream payloads to `bytes`, split
    /// evenly across the graph's streams (TPIE-style explicit memory
    /// management). A stream whose queued spillable payloads exceed its
    /// share parks the overflow in a run-wide spill ring (one unlinked
    /// temp file) and faults it back in at the reader; under the
    /// virtual-time executor both directions are charged to the host's
    /// disk model. Only payloads built with
    /// [`crate::BufferSlab::make_spillable`] participate — everything
    /// else stays resident. `0` (the default) disables the out-of-core
    /// path entirely; results are bit-identical either way, only timing
    /// and the [`RunReport::ooc`](crate::RunReport) tallies change.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.tuning.memory_budget_bytes = bytes;
        self
    }

    /// Retries granted to a failing spill write or fault-in read before
    /// the storage degradation ladder takes over (default
    /// [`crate::storage::DEFAULT_STORAGE_RETRY_BUDGET`]). Each retry
    /// sleeps a seeded, jittered, exponentially growing backoff; under
    /// the virtual-time executor the sleeps are deterministic virtual
    /// delays.
    pub fn storage_retries(mut self, budget: u32) -> Self {
        self.tuning.storage_retry_budget = budget;
        self
    }

    /// Seal every spill frame with a 64-bit checksum verified on
    /// fault-in (default `true`). Costs 8 bytes per spilled frame and a
    /// linear scan each way; guarantees any single-bit corruption of a
    /// parked frame is detected rather than silently decoded.
    pub fn checksum_spills(mut self, on: bool) -> Self {
        self.tuning.checksum_spills = on;
        self
    }

    /// Execute the run on `topo` and harvest the report. Zero units of
    /// work, a `setup` hook on the native executor and a placement naming
    /// a host `topo` lacks are each rejected with
    /// [`RunError::Unsupported`] before anything is spawned.
    pub fn go(self, topo: &Topology) -> Result<RunReport, RunError> {
        let rejected = if self.uows == 0 {
            Some("a run needs at least one unit of work".to_string())
        } else if self.setup.is_some() && matches!(self.executor, ExecutorChoice::Native(_)) {
            Some("simulation setup hooks require the virtual-time SimExecutor".to_string())
        } else {
            self.graph.filters.iter().find_map(|f| {
                let (h, _) = f
                    .placement
                    .per_host
                    .iter()
                    .find(|(h, _)| h.0 as usize >= topo.len())?;
                Some(format!(
                    "filter '{}' is placed on host{}, outside the {}-host topology",
                    f.name,
                    h.0,
                    topo.len()
                ))
            })
        };
        if let Some(what) = rejected {
            return Err(RunError::Unsupported { what });
        }
        silence_sentinel_panics();
        keep_large_buffers_out_of_thread_arenas();
        let fault_ctl: Option<Arc<FaultCtl>> = self.faults.as_ref().map(FaultCtl::new);
        let mut exec = self.executor;
        // Natively, crashes, stalls, drops, delays, degradation windows and
        // supervision are the same time-indexed queries, consulted by the
        // runtime machinery on wall-clock time (degradation is emulated by
        // writer-side stalls — see `delivery::Delivery::deliver`).
        if let ExecutorChoice::Sim(sim) = &mut exec {
            if let Some(setup) = self.setup {
                setup(sim.simulation_mut());
            }
            if let Some(ctl) = &fault_ctl {
                // Spawns the NIC-degradation drivers; crashes, stalls and
                // drops are pure time-indexed queries consulted by the
                // runtime machinery.
                ctl.plan.install(sim.simulation_mut(), topo);
            }
        }
        drive(
            exec,
            topo,
            Arc::new(self.graph),
            self.uows,
            self.trace,
            fault_ctl,
            self.tuning,
        )
    }
}

/// Wire, run, and harvest on either executor.
fn drive(
    mut exec: ExecutorChoice,
    topo: &Topology,
    graph: Arc<AppGraph>,
    uows: u32,
    trace: Option<hetsim::Trace>,
    fault_ctl: Option<Arc<FaultCtl>>,
    tuning: Tuning,
) -> Result<RunReport, RunError> {
    let error_cell: ErrorCell = Arc::new(Mutex::new(None));
    // Out-of-core context: one ledger + one storage controller for the
    // whole run, created only when a budget was configured (the
    // zero-budget fast path allocates nothing). The controller creates
    // the spill ring lazily on the first actual spill, so a budgeted run
    // that never exceeds its shares touches no temp file — and a run
    // whose temp filesystem is unusable only finds out (and degrades
    // through the storage ladder, not an abort) if it really spills.
    let ooc: Option<(
        Arc<crate::budget::MemoryBudget>,
        Arc<crate::storage::StorageCtl>,
    )> = if tuning.memory_budget_bytes > 0 {
        Some((
            crate::budget::MemoryBudget::new(tuning.memory_budget_bytes),
            crate::storage::StorageCtl::new(
                fault_ctl.as_ref().map(|c| c.plan.clone()),
                tuning.storage_retry_budget,
                tuning.checksum_spills,
            ),
        ))
    } else {
        None
    };
    let wiring = spawn::build(
        &mut exec,
        topo,
        &graph,
        uows,
        trace,
        fault_ctl.clone(),
        error_cell.clone(),
        &tuning,
        ooc.clone(),
    );

    let stats = match exec.run() {
        Ok(stats) => stats,
        Err(e) => {
            // A process that recorded a structured error aborts the run
            // with a sentinel panic; surface the recorded error instead of
            // the raw substrate failure.
            if let Some(recorded) = error_cell.lock().take() {
                return Err(recorded);
            }
            return Err(RunError::Sim(e));
        }
    };

    let copies = wiring
        .copy_cells
        .into_iter()
        .map(|(filter, filter_name, copy_index, host, cell)| CopyReport {
            filter,
            filter_name,
            copy_index,
            host,
            counters: cell.lock().clone(),
        })
        .collect();

    let streams = wiring
        .stream_sets
        .into_iter()
        .enumerate()
        .map(|(i, sets)| StreamReport {
            stream: crate::graph::StreamId(i as u32),
            stream_name: graph.streams[i].name.clone(),
            copysets: sets
                .into_iter()
                .map(|(h, c)| (h, c.lock().clone()))
                .collect(),
        })
        .collect();

    let mut boundaries = std::mem::take(&mut *wiring.uow_boundaries.lock());
    boundaries.sort_unstable();

    // The one loss rule of retention: a replica no consumer settled by the
    // end of the run was never processed to the end of a UOW.
    for (stream, retention) in &wiring.retention {
        if retention.sweep() > 0 && fault_ctl.as_ref().is_some_and(|c| !c.allow_degraded) {
            return Err(RunError::NoSurvivingConsumers {
                stream: stream.clone(),
            });
        }
    }

    let mut faults_report = match &fault_ctl {
        Some(ctl) => {
            let mut f = ctl.tallies.lock().clone();
            f.injected = ctl.plan.describe();
            f.degraded = f.buffers_lost > 0 || f.copies_wedged > 0;
            f
        }
        None => FaultReport::default(),
    };
    if let Some((_, storage)) = &ooc {
        // The storage plane tallies independently of the fault machinery
        // — retries and denials fire (and report) even on plan-free runs
        // where the temp filesystem itself misbehaves.
        faults_report.disk_errors_injected = storage.disk_errors_injected();
        faults_report.storage_retries = storage.storage_retries();
        faults_report.spills_denied = storage.spills_denied();
        faults_report.corruptions_detected = storage.corruptions_detected();
        faults_report.storage_events = storage.events();
    }

    let ooc_report = match &ooc {
        Some((ledger, storage)) => crate::metrics::OocReport {
            memory_budget_bytes: ledger.total(),
            spills: storage.spills(),
            spill_bytes: storage.spill_bytes(),
            faults: storage.faults(),
            fault_bytes: storage.fault_bytes(),
            granted_bytes: ledger.granted(),
            released_bytes: ledger.released(),
        },
        None => crate::metrics::OocReport::default(),
    };

    Ok(RunReport {
        elapsed: stats.end_time - SimTime::ZERO,
        events: stats.events,
        deferred_wakes: 0,
        uow_boundaries: boundaries,
        copies,
        streams,
        faults: faults_report,
        ooc: ooc_report,
    })
}

/// Keep the process-wide panic hook from printing "thread panicked"
/// noise for panics the runtime handles itself: the two *sentinel*
/// panics — the [`KilledMarker`] unwinding a crashed filter copy (caught
/// at the copy's spawn wrapper) and the [`crate::fault::ABORT_MSG`]
/// abort after a structured [`RunError`] was recorded (mapped back to
/// the cell's contents) — plus any panic raised inside a filter-callback
/// containment scope, which the copy wrapper converts to a structured
/// error or a supervised restart. Real panics elsewhere still reach the
/// previous hook untouched.
fn silence_sentinel_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let sentinel = payload.is::<KilledMarker>()
                || payload
                    .downcast_ref::<String>()
                    .is_some_and(|s| s == crate::fault::ABORT_MSG)
                || crate::fault::panics_contained();
            if !sentinel {
                prev(info);
            }
        }));
    });
}

/// Pin glibc malloc's mmap threshold at its documented default (128 KiB),
/// once per process.
///
/// Every run spawns a fresh thread per filter copy, and glibc hands each
/// thread one of `8 × cores` malloc arenas. A merge copy's z-buffer and
/// images (~10 MB per ten 512² frames) are freed into whichever arena its
/// thread drew, and an arena only gives memory back from its very top, past
/// a trim threshold — so run after run the process creeps up by that much
/// per arena until each has hosted the merge once: +150 MB on a two-core
/// box with nothing more live. Buffers that large are meant to be
/// `mmap`ped and unmapped on free, but the threshold *drifts* up to the
/// size of the largest block ever freed (a 29 MB field, say) and from then
/// on they are carved from arenas. Setting it explicitly stops the drift:
/// resident memory then tracks what is live, whatever the run count. The
/// price is a page-fault pass over each large buffer when it is first
/// written, under 1 % of a 512² frame.
fn keep_large_buffers_out_of_thread_arenas() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_MMAP_THRESHOLD: c_int = -3;
        static PIN: std::sync::Once = std::sync::Once::new();
        PIN.call_once(|| {
            // SAFETY: `mallopt` takes two integers, locks the allocator
            // itself and may run concurrently with any allocation; a
            // rejected value (return 0) leaves malloc as it was.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, 128 * 1024);
            }
        });
    }
}
