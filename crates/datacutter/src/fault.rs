//! Failure handling for the filter runtime: structured run errors, the
//! fault-injection options accepted by `Run::faults`, and the internal
//! control block threaded through the runtime while a fault plan is
//! active.
//!
//! The recovery model (see DESIGN.md §8 and §13): hosts fail *fail-stop*
//! and a crashed filter copy is observed dead at its next stream-read (or
//! disk-read) boundary. A copy dies only with its host, so the plan is
//! the whole death oracle. Whenever the plan can kill copies, every
//! stream retains a replica of each buffer at its producer until the
//! consuming copy settles it at the end of its unit of work. A dead copy
//! set's reaper retargets those entries to a set with no scheduled death,
//! so a crash costs time, not output: every buffer is delivered at least
//! once. A retained replica no consumer settled by the end of the run —
//! no live consumer was left to take it — is counted lost, and a run that
//! lost anything is reported *degraded*.
//!
//! Both execution substrates consult the same [`FaultPlan`] oracle — the
//! simulator on virtual time, the native executor on wall-clock
//! nanoseconds since run start (the same `SimTime` axis) — so a plan's
//! crash/stall/drop schedule injects the *same* faults on both (DESIGN.md
//! §11). A panic in a filter callback is not a fault the plan schedules:
//! it is contained and fails the run with [`RunError::FilterPanic`].

use std::cell::Cell;
use std::sync::Arc;

use hetsim::{FaultPlan, HostId, SimDuration, SimError, SimTime};
use parking_lot::Mutex;

use crate::metrics::FaultReport;

/// A structured error from a pipeline run — either a failure of the
/// simulation substrate or an application-level failure surfaced by the
/// runtime (the former panic-on-error paths).
#[derive(Debug)]
pub enum RunError {
    /// The simulation itself failed (deadlock or an unexpected panic).
    Sim(SimError),
    /// A filter's `process` callback returned an error.
    Filter {
        /// Name of the failing filter.
        filter: String,
        /// Which transparent copy failed.
        copy: usize,
        /// Host the copy ran on.
        host: HostId,
        /// Unit of work being processed.
        uow: u32,
        /// The filter's error message.
        message: String,
    },
    /// A filter callback panicked. The panic is contained but fatal to the
    /// run: it never propagates out of `Run::go` as an unwind — it is
    /// always converted to this variant.
    FilterPanic {
        /// Name of the panicking filter.
        filter: String,
        /// Which transparent copy panicked.
        copy: usize,
        /// Host the copy ran on.
        host: HostId,
        /// Unit of work being processed when the panic unwound.
        uow: u32,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A runtime channel closed while a filter copy still needed it (every
    /// consumer of a stream it writes hung up) — the typed replacement for
    /// the former "outbox closed" panic.
    ChannelClosed {
        /// Name of the filter left holding the dead endpoint.
        filter: String,
        /// Which transparent copy observed the closure.
        copy: usize,
        /// Host the copy runs on.
        host: HostId,
        /// What the channel carried (e.g. "stream").
        what: &'static str,
    },
    /// Every copy set of a stream's consumer died and the run was not
    /// allowed to continue in degraded mode
    /// ([`FaultOptions::allow_degraded`] was `false`).
    NoSurvivingConsumers {
        /// Name of the stream whose buffers could not be delivered.
        stream: String,
    },
    /// `Run::go` rejected the run's configuration before spawning
    /// anything: zero units of work, a placement naming a host the
    /// topology lacks, or a feature the selected executor does not support
    /// (a simulation `setup` hook on the native executor).
    Unsupported {
        /// Description of the unsupported combination.
        what: String,
    },
    /// The storage plane failed beyond what the self-healing ladder could
    /// absorb — or was not allowed to absorb, because no fault machinery
    /// was active to account the loss. Carries the structured
    /// [`StorageError`](crate::storage::StorageError) that refines the
    /// old stringly spill error.
    Storage {
        /// The structured storage failure (I/O, corruption, or ring
        /// creation).
        error: crate::storage::StorageError,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "{e}"),
            RunError::Filter {
                filter,
                copy,
                host,
                uow,
                message,
            } => write!(
                f,
                "filter '{filter}' copy {copy} on host{} failed in uow {uow}: {message}",
                host.0
            ),
            RunError::FilterPanic {
                filter,
                copy,
                host,
                uow,
                message,
            } => write!(
                f,
                "filter '{filter}' copy {copy} on host{} panicked in uow {uow}: {message}",
                host.0
            ),
            RunError::ChannelClosed {
                filter,
                copy,
                host,
                what,
            } => write!(
                f,
                "{what} channel closed while filter '{filter}' copy {copy} on host{} still \
                 needed it",
                host.0
            ),
            RunError::NoSurvivingConsumers { stream } => {
                write!(f, "no surviving consumer copy set on stream '{stream}'")
            }
            RunError::Unsupported { what } => {
                write!(f, "unsupported run configuration: {what}")
            }
            RunError::Storage { error } => {
                write!(f, "storage plane failed: {error}")
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// Fault-injection options for `Run::faults`: the [`FaultPlan`] shared by
/// every executor (the simulator reads it on virtual time, the native
/// executor on wall-clock nanoseconds since run start, so one plan injects
/// the same faults at the same times on both) plus the liveness and
/// degraded-completion knobs. Recovery needs no switch: a plan that can
/// kill copies makes every stream retain (see the module docs).
///
/// ```ignore
/// let plan = FaultPlan::new()
///     .crash_host(h2, SimTime::ZERO + SimDuration::from_millis(2))
///     .drop_messages(0xBEEF, 0.05);
/// let chaos = FaultOptions::new(plan).liveness_timeout(SimDuration::from_millis(10));
/// let report = Run::new(graph)
///     .executor(NativeExecutor::new())
///     .faults(chaos)
///     .go(&topo)?;
/// ```
#[derive(Clone)]
pub struct FaultOptions {
    /// The scheduled faults (see [`hetsim::fault::FaultPlan`]).
    pub plan: FaultPlan,
    /// Idle-timeout (on the run's time axis) after which a consumer
    /// blocked on an empty stream probes peer liveness, and after which
    /// writers treat a dead consumer host as detectably failed. Must
    /// exceed the worst-case in-flight delivery latency of the topology,
    /// or end-of-work may be concluded while a live producer's marker is
    /// still on the wire.
    pub liveness_timeout: SimDuration,
    /// When `true` (the default), a run completes with partial output if
    /// buffers are lost to crashes that recovery cannot repair (no live
    /// consumer set left); the losses are tallied in the run report. When `false`,
    /// such a loss fails the run with [`RunError::NoSurvivingConsumers`].
    pub allow_degraded: bool,
}

impl FaultOptions {
    /// Options for `plan` with the default liveness timeout (50 ms of
    /// run time) and degraded mode allowed.
    pub fn new(plan: FaultPlan) -> Self {
        FaultOptions {
            plan,
            liveness_timeout: SimDuration::from_millis(50),
            allow_degraded: true,
        }
    }

    /// Override the liveness timeout.
    pub fn liveness_timeout(mut self, timeout: SimDuration) -> Self {
        self.liveness_timeout = timeout;
        self
    }

    /// Set whether irreparable losses complete the run degraded (`true`)
    /// or fail it (`false`).
    pub fn allow_degraded(mut self, allow: bool) -> Self {
        self.allow_degraded = allow;
        self
    }
}

/// Shared cell carrying the first structured error of a run; the process
/// that records it then panics with [`ABORT_MSG`] to stop the run, and
/// the runtime maps the resulting `ProcessPanic` back to the cell's
/// contents.
pub(crate) type ErrorCell = Arc<Mutex<Option<RunError>>>;

/// Panic message used when a process aborts the run after recording a
/// structured error.
pub(crate) const ABORT_MSG: &str = "run aborted (structured RunError recorded)";

/// Record `err` (first writer wins) and abort the run.
pub(crate) fn abort_run(cell: &ErrorCell, err: RunError) -> ! {
    cell.lock().get_or_insert(err);
    panic!("{ABORT_MSG}");
}

/// Sentinel panic payload unwinding a filter copy killed by a host crash;
/// caught by the copy's spawn wrapper, which performs death bookkeeping
/// (tally, barrier withdrawal) instead of failing the run.
pub(crate) struct KilledMarker;

/// Unwind the calling filter copy as crashed.
pub(crate) fn raise_killed() -> ! {
    std::panic::panic_any(KilledMarker);
}

thread_local! {
    /// True while the current thread executes a filter callback whose
    /// panics the copy wrapper will contain (convert to a structured
    /// error). The run's panic hook consults this
    /// to skip the "thread panicked" stderr noise for contained panics.
    static CONTAINED: Cell<bool> = const { Cell::new(false) };
}

/// RAII guard marking the current thread's panics as contained; see
/// [`panics_contained`].
pub(crate) struct ContainGuard {
    prev: bool,
}

/// Enter a containment scope: until the guard drops, panics on this
/// thread are declared caught-and-converted by the copy wrapper.
pub(crate) fn contain_scope() -> ContainGuard {
    let prev = CONTAINED.with(|c| c.replace(true));
    ContainGuard { prev }
}

impl Drop for ContainGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        CONTAINED.with(|c| c.set(prev));
    }
}

/// True when the current thread is inside a containment scope.
pub(crate) fn panics_contained() -> bool {
    CONTAINED.with(|c| c.get())
}

/// Extract a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// Runtime-internal fault control block, shared by filter contexts, writer
/// policies, delivery and reapers while a plan is active.
pub(crate) struct FaultCtl {
    pub plan: FaultPlan,
    pub timeout: SimDuration,
    pub allow_degraded: bool,
    /// The counters of the run's [`FaultReport`], tallied live; the rest
    /// is filled in when the run's results are harvested.
    pub tallies: Mutex<FaultReport>,
}

impl FaultCtl {
    pub fn new(opts: &FaultOptions) -> Arc<Self> {
        Arc::new(FaultCtl {
            plan: opts.plan.clone(),
            timeout: opts.liveness_timeout,
            allow_degraded: opts.allow_degraded,
            tallies: Mutex::new(FaultReport::default()),
        })
    }

    /// True when the plan can kill copies during this run. Gates all
    /// liveness and recovery machinery (retention, timed reads, writer
    /// eviction, reapers).
    pub fn crashes_possible(&self) -> bool {
        self.plan.has_crashes()
    }

    /// True once `host`'s copies have been dead for at least the liveness
    /// timeout — the point at which writers evict a copy set on it from
    /// their schedules.
    pub fn evictable(&self, host: HostId, now: SimTime) -> bool {
        self.plan
            .host_death(host)
            .is_some_and(|t| now >= t + self.timeout)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn contain_scope_nests_and_restores() {
        assert!(!panics_contained());
        {
            let _g = contain_scope();
            assert!(panics_contained());
            {
                let _g2 = contain_scope();
                assert!(panics_contained());
            }
            assert!(panics_contained());
        }
        assert!(!panics_contained());
    }
}
