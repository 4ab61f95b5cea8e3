//! Failure handling for the filter runtime: structured run errors, the
//! fault-injection options accepted by `Run::faults`, and the internal
//! control block threaded through the runtime while a fault plan is
//! active.
//!
//! The recovery model (see DESIGN.md §8 and §13): hosts fail *fail-stop*
//! and a crashed filter copy is observed dead at its next stream-read (or
//! write) boundary. Whenever copies can die (a crash in the plan, or
//! supervision), every stream retains a replica of each buffer at its
//! producer until the consuming copy settles it at the end of its unit of
//! work. A dead copy set's reaper retargets those entries to a surviving
//! set, and a restarted copy re-fetches its journal, so a crash costs
//! time, not output: every buffer is delivered at least once. A retained
//! replica no consumer settled by the end of the run — no live consumer
//! was left to take it — is counted lost, and a run that lost anything is
//! reported *degraded*.
//!
//! Both execution substrates consult the same [`FaultPlan`] oracle — the
//! simulator on virtual time, the native executor on wall-clock
//! nanoseconds since run start (the same `SimTime` axis) — so a plan's
//! crash/stall/drop schedule injects the *same* faults on both (DESIGN.md
//! §11). Two pieces are native-only: the [`SupervisorPolicy`] restart
//! machinery (a panicking copy is re-instantiated with seeded, jittered
//! exponential backoff up to a bounded budget) and the wall-clock
//! heartbeat scan that declares silently wedged copies dead. Deaths
//! declared at runtime — a copy whose restart budget is exhausted, or a
//! wedged copy — land in `FaultCtl`'s *dynamic* death registry, and the
//! oracle queries used by gates, writer policies and reapers merge the
//! static plan with that registry, so the recovery machinery built for
//! scheduled crashes handles supervised deaths identically.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use hetsim::{splitmix64, FaultPlan, HostId, SimDuration, SimError, SimTime};
use parking_lot::Mutex;

use crate::graph::FilterId;
use crate::metrics::FaultReport;
use crate::policy::CopySetInfo;

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
    /// A filter callback panicked and the run could not absorb it: either
    /// no supervision was configured (panics are contained but fatal to
    /// the run), or the copy's restart budget was exhausted with degraded
    /// completion disallowed. The panic never propagates out of `Run::go`
    /// as an unwind — it is always converted to this variant.
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

/// Restart policy for supervised filter copies (native fault tolerance).
///
/// A filter copy whose callback panics under supervision is re-instantiated
/// in place — from its factory, on the same thread, holding the same
/// channel endpoints — after a seeded, jittered exponential backoff, up to
/// `max_restarts` times. Exhausting the budget declares the copy dead in
/// the dynamic death registry and the run continues exactly as if the
/// fault plan had scheduled the death (retargeting, loss accounting and
/// gate excusal all apply).
#[derive(Debug, Clone, Copy)]
pub struct SupervisorPolicy {
    /// Restart budget per copy (0 = contain the panic but never restart).
    pub max_restarts: u32,
    /// Backoff before the first restart; doubles per attempt.
    pub backoff_base: SimDuration,
    /// Upper bound on the backoff envelope.
    pub backoff_cap: SimDuration,
    /// Seed for the deterministic backoff jitter.
    pub backoff_seed: u64,
    /// Period of the supervisor's heartbeat scan.
    pub heartbeat_interval: SimDuration,
    /// Declare a copy dead when its heartbeat has been silent this long
    /// (`None` disables wedge detection; a wedged copy's thread is
    /// abandoned — detached, never joined — so the run can still finish).
    pub wedge_timeout: Option<SimDuration>,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_restarts: 2,
            backoff_base: SimDuration::from_millis(1),
            backoff_cap: SimDuration::from_millis(100),
            backoff_seed: 0x5EED_CAFE,
            heartbeat_interval: SimDuration::from_millis(10),
            wedge_timeout: None,
        }
    }
}

impl SupervisorPolicy {
    /// The default policy (2 restarts, 1 ms base / 100 ms cap backoff,
    /// 10 ms heartbeat, wedge detection off).
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the per-copy restart budget.
    pub fn max_restarts(mut self, n: u32) -> Self {
        self.max_restarts = n;
        self
    }

    /// Override the backoff envelope (base doubling per attempt, capped).
    pub fn backoff(mut self, base: SimDuration, cap: SimDuration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Override the backoff jitter seed.
    pub fn backoff_seed(mut self, seed: u64) -> Self {
        self.backoff_seed = seed;
        self
    }

    /// Override the supervisor's heartbeat scan period.
    pub fn heartbeat_interval(mut self, interval: SimDuration) -> Self {
        self.heartbeat_interval = interval;
        self
    }

    /// Enable wedge detection: a copy whose heartbeat is silent for
    /// `timeout` is declared dead and its thread abandoned.
    pub fn wedge_timeout(mut self, timeout: SimDuration) -> Self {
        self.wedge_timeout = Some(timeout);
        self
    }

    /// The backoff before restart attempt `attempt` (0-based) of the copy
    /// identified by `copy_key`. Delegates to [`backoff_delay`]; a pure
    /// function of the policy and its arguments, so restart schedules are
    /// deterministic per seed.
    pub fn restart_backoff(&self, copy_key: u64, attempt: u32) -> SimDuration {
        backoff_delay(
            self.backoff_base,
            self.backoff_cap,
            self.backoff_seed,
            copy_key,
            attempt,
        )
    }
}

/// Seeded, jittered exponential backoff: attempt `attempt` (0-based) waits
/// `min(base · 2^attempt, cap)` scaled by a deterministic jitter in
/// [0.5, 1.0) drawn from `(seed, copy_key, attempt)`. Pure — identical
/// inputs always produce the identical delay, so supervised restart
/// schedules replay exactly per seed.
pub fn backoff_delay(
    base: SimDuration,
    cap: SimDuration,
    seed: u64,
    copy_key: u64,
    attempt: u32,
) -> SimDuration {
    let base_ns = base.as_nanos().max(1);
    let cap_ns = cap.as_nanos().max(base_ns);
    let exp_ns = base_ns
        .checked_shl(attempt.min(63))
        .unwrap_or(u64::MAX)
        .min(cap_ns);
    let h = splitmix64(
        seed ^ splitmix64(copy_key.wrapping_add(0x9E37_79B9_7F4A_7C15))
            ^ splitmix64(attempt as u64),
    );
    // Jitter in [0.5, 1.0): decorrelates restart herds without ever
    // shrinking the envelope below half.
    let jitter = 0.5 + ((h >> 11) as f64 / (1u64 << 53) as f64) * 0.5;
    SimDuration::from_nanos((exp_ns as f64 * jitter) as u64)
}

/// Fault-injection options for `Run::faults`: the [`FaultPlan`] shared by
/// every executor (the simulator reads it on virtual time, the native
/// executor on wall-clock nanoseconds since run start, so one plan injects
/// the same faults at the same times on both) plus the liveness and
/// supervision knobs. Recovery needs no switch: a plan that can kill
/// copies makes every stream retain (see the module docs).
///
/// ```ignore
/// let plan = FaultPlan::new()
///     .crash_host(h2, SimTime::ZERO + SimDuration::from_millis(2))
///     .drop_messages(0xBEEF, 0.05);
/// let chaos = FaultOptions::new(plan)
///     .supervised(SupervisorPolicy::new().max_restarts(3));
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
    /// Supervise filter copies: contain panics in filter callbacks and
    /// restart the copy under this policy instead of failing the run.
    /// `None` (the default) keeps the pure fail-stop semantics.
    pub supervisor: Option<SupervisorPolicy>,
}

impl FaultOptions {
    /// Options for `plan` with the default liveness timeout (50 ms of
    /// run time), degraded mode allowed, and no supervision.
    pub fn new(plan: FaultPlan) -> Self {
        FaultOptions {
            plan,
            liveness_timeout: SimDuration::from_millis(50),
            allow_degraded: true,
            supervisor: None,
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

    /// Supervise filter copies under `policy` (panic containment with
    /// bounded restarts).
    pub fn supervised(mut self, policy: SupervisorPolicy) -> Self {
        self.supervisor = Some(policy);
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
    /// error or a supervised restart). The run's panic hook consults this
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

/// Lifecycle states a supervised copy reports through [`CopyHealth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CopyState {
    /// The copy's thread is executing filter work.
    Running,
    /// The copy finished every unit of work and left cleanly.
    Done,
    /// The copy died (killed, restart budget exhausted, or wedged).
    Dead,
}

/// Shared health record of one supervised filter copy: a lifecycle state
/// plus the wall-clock timestamp (run-axis nanoseconds) of its last
/// heartbeat. The copy beats at every read/write/compute boundary; the
/// supervisor scans these records to find silently wedged copies.
pub(crate) struct CopyHealth {
    state: std::sync::atomic::AtomicU8,
    last_beat: std::sync::atomic::AtomicU64,
}

impl CopyHealth {
    pub fn new() -> Self {
        CopyHealth {
            state: std::sync::atomic::AtomicU8::new(0),
            last_beat: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Record liveness at `now`.
    pub fn beat(&self, now: SimTime) {
        self.last_beat
            .store(now.as_nanos(), std::sync::atomic::Ordering::Relaxed);
    }

    /// Time of the last heartbeat.
    pub fn last_beat(&self) -> SimTime {
        SimTime::ZERO
            + SimDuration::from_nanos(self.last_beat.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// Atomically transition `from` → `to`; `false` when another party
    /// (copy thread vs. supervisor) already moved the state. The winner of
    /// this race owns the copy's liveness accounting (live-copy decrement,
    /// barrier withdrawal), so a wedge declaration and a late-finishing
    /// thread can never both account for the same copy.
    pub fn try_transition(&self, from: CopyState, to: CopyState) -> bool {
        self.state
            .compare_exchange(
                from as u8,
                to as u8,
                std::sync::atomic::Ordering::AcqRel,
                std::sync::atomic::Ordering::Acquire,
            )
            .is_ok()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> CopyState {
        match self.state.load(std::sync::atomic::Ordering::Acquire) {
            0 => CopyState::Running,
            1 => CopyState::Done,
            _ => CopyState::Dead,
        }
    }
}

/// One supervised restart of a panicked filter copy, recorded for the
/// [`FaultReport`] timeline.
#[derive(Debug, Clone)]
pub struct RestartEvent {
    /// Name of the restarted filter.
    pub filter: String,
    /// Which transparent copy restarted.
    pub copy: usize,
    /// Host the copy runs on.
    pub host: HostId,
    /// Unit of work being processed when the copy panicked.
    pub uow: u32,
    /// Restart attempt number (1-based; compare against the policy's
    /// `max_restarts` budget).
    pub attempt: u32,
    /// Backoff waited before re-instantiating the copy.
    pub backoff: SimDuration,
    /// Run-axis time at which the panic was contained.
    pub at: SimTime,
}

/// Runtime-internal fault control block, shared by filter contexts, writer
/// policies, senders, reapers and the supervisor while a plan is active.
pub(crate) struct FaultCtl {
    pub plan: FaultPlan,
    pub timeout: SimDuration,
    pub allow_degraded: bool,
    /// Supervision policy, when the run restarts crashed copies.
    pub supervisor: Option<SupervisorPolicy>,
    /// The counters of the run's [`FaultReport`], tallied live; the rest
    /// is filled in when the run's results are harvested.
    pub tallies: Mutex<FaultReport>,
    /// Deaths declared at runtime (restart budget exhausted, wedge
    /// detection), keyed by (filter, copy index). The plan is immutable;
    /// this registry is the mutable half the merged oracle queries below
    /// fold in.
    dynamic: Mutex<HashMap<(FilterId, usize), SimTime>>,
}

impl FaultCtl {
    pub fn new(opts: &FaultOptions) -> Arc<Self> {
        Arc::new(FaultCtl {
            plan: opts.plan.clone(),
            timeout: opts.liveness_timeout,
            allow_degraded: opts.allow_degraded,
            supervisor: opts.supervisor,
            tallies: Mutex::new(FaultReport::default()),
            dynamic: Mutex::new(HashMap::new()),
        })
    }

    /// True when copies can die during this run — by scheduled crash or by
    /// supervised death declaration. Gates all liveness and recovery
    /// machinery (retention, timed reads, writer eviction, reapers).
    pub fn crashes_possible(&self) -> bool {
        self.plan.has_crashes() || self.supervisor.is_some()
    }

    /// Declare `(filter, copy)` dead as of `now` (idempotent; the earliest
    /// declaration wins).
    pub fn register_copy_death(&self, filter: FilterId, copy: usize, now: SimTime) {
        let mut d = self.dynamic.lock();
        let t = d.entry((filter, copy)).or_insert(now);
        if now < *t {
            *t = now;
        }
    }

    /// The time `(filter, copy)` on `host` died (or will die): the earlier
    /// of its host's scheduled crash and any dynamic declaration.
    pub fn copy_death(&self, filter: FilterId, copy: usize, host: HostId) -> Option<SimTime> {
        let planned = self.plan.host_death(host);
        let declared = self.dynamic.lock().get(&(filter, copy)).copied();
        match (planned, declared) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// True once `(filter, copy)` on `host` is dead at `now`.
    pub fn copy_dead(&self, filter: FilterId, copy: usize, host: HostId, now: SimTime) -> bool {
        if self.plan.is_dead(host, now) {
            return true;
        }
        self.dynamic
            .lock()
            .get(&(filter, copy))
            .is_some_and(|&t| now >= t)
    }

    /// The time the whole copy set died, if every copy in it has a death
    /// time: the latest of the per-copy deaths (a set is dead only when
    /// its last copy is).
    pub fn set_death(&self, set: &CopySetInfo) -> Option<SimTime> {
        let mut latest = SimTime::ZERO;
        for k in 0..set.copies as usize {
            let t = self.copy_death(set.filter, set.first_copy + k, set.host)?;
            if t > latest {
                latest = t;
            }
        }
        Some(latest)
    }

    /// True once every copy in `set` is dead at `now`.
    pub fn set_dead(&self, set: &CopySetInfo, now: SimTime) -> bool {
        self.set_death(set).is_some_and(|t| now >= t)
    }

    /// True once `set` has been dead for at least the liveness timeout —
    /// the point at which writers evict it from their schedules.
    pub fn set_detectably_dead(&self, set: &CopySetInfo, now: SimTime) -> bool {
        self.set_death(set).is_some_and(|t| now >= t + self.timeout)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let a: Vec<_> = (0..8)
            .map(|k| backoff_delay(ms(1), ms(20), 42, 7, k))
            .collect();
        let b: Vec<_> = (0..8)
            .map(|k| backoff_delay(ms(1), ms(20), 42, 7, k))
            .collect();
        assert_eq!(a, b, "same inputs, same schedule");
        for (k, d) in a.iter().enumerate() {
            let envelope = ms(1).as_nanos() << k.min(63);
            let cap = ms(20).as_nanos().min(envelope);
            assert!(d.as_nanos() <= cap, "attempt {k} over envelope");
            assert!(d.as_nanos() >= cap / 2, "attempt {k} under half envelope");
        }
        // A different seed decorrelates the jitter.
        let c: Vec<_> = (0..8)
            .map(|k| backoff_delay(ms(1), ms(20), 43, 7, k))
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn dynamic_deaths_merge_with_plan() {
        let opts =
            FaultOptions::new(FaultPlan::new().crash_host(HostId(1), SimTime::ZERO + ms(10)))
                .supervised(SupervisorPolicy::new());
        let ctl = FaultCtl::new(&opts);
        let f = FilterId(0);
        let t5 = SimTime::ZERO + ms(5);
        let t20 = SimTime::ZERO + ms(20);
        // Plan-only death on host 1.
        assert!(!ctl.copy_dead(f, 0, HostId(1), t5));
        assert!(ctl.copy_dead(f, 0, HostId(1), t20));
        // Dynamic death on an unplanned host.
        assert!(!ctl.copy_dead(f, 3, HostId(2), t20));
        ctl.register_copy_death(f, 3, t5);
        assert!(ctl.copy_dead(f, 3, HostId(2), t5));
        assert_eq!(ctl.copy_death(f, 3, HostId(2)), Some(t5));
        // Set death: dead only when every copy is.
        let set = CopySetInfo {
            host: HostId(2),
            copies: 2,
            filter: f,
            first_copy: 3,
        };
        assert_eq!(ctl.set_death(&set), None, "copy 4 still alive");
        ctl.register_copy_death(f, 4, t20);
        assert_eq!(ctl.set_death(&set), Some(t20), "latest copy death wins");
        assert!(ctl.set_dead(&set, t20));
        assert!(!ctl.set_detectably_dead(&set, t20));
        assert!(ctl.set_detectably_dead(&set, t20 + ctl.timeout));
    }

    #[test]
    fn fault_options_carry_plan_and_supervisor() {
        let plan = FaultPlan::new()
            .crash_host(HostId(2), SimTime::ZERO + ms(2))
            .drop_messages(0xBEEF, 0.05)
            .delay_messages(0xF00D, 0.1, ms(1));
        let opts = FaultOptions::new(plan).supervised(SupervisorPolicy::new().max_restarts(3));
        assert!(opts.plan.has_crashes());
        assert!(opts.plan.has_drops());
        assert!(opts.plan.has_delays());
        assert_eq!(opts.supervisor.map(|s| s.max_restarts), Some(3));
    }

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
