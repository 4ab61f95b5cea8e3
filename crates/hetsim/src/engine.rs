//! Deterministic discrete-event engine with thread-backed cooperative
//! processes and threadless handlers.
//!
//! Each simulated entity (a DataCutter filter copy, a disk server, a
//! background-load generator, ...) runs as a real OS thread, but execution is
//! *cooperative*: at any instant exactly one thread — either the engine or a
//! single process — is running. A process advances virtual time by calling
//! [`Env::delay`], and blocks on synchronization primitives built from
//! [`Env::block`] / [`Env::wake`]. The engine orders wake-ups by
//! `(virtual time, sequence number)`, so runs are fully deterministic:
//! the same program produces the same event order and the same final clock
//! on every execution. A process that is only a state machine over the
//! non-blocking primitives can be a *handler* instead, with no thread at
//! all (see "Steps" below).
//!
//! This is the "process-interaction" simulation style (SimPy, CSIM): the
//! simulated code is ordinary imperative Rust that happens to sleep on a
//! virtual clock instead of the wall clock.
//!
//! # The fast data plane
//!
//! Two structural choices keep the per-event cost low without changing
//! the dispatch order by a single event:
//!
//! * **Slab event queue.** An event is a packed `u128` key —
//!   `(time: 64 | seq: 40 | slot: 24)` — ordered in a `BinaryHeap`, with
//!   the payload (`ProcessId`, epoch) in a free-listed slab indexed by the
//!   low slot bits. `seq` is strictly monotonic, so `(time, seq)` alone
//!   totally orders events and the slot bits can never influence the
//!   order. Events scheduled *at the current instant* (the dominant
//!   wake/spawn/yield pattern) bypass the heap entirely: their keys are
//!   pushed in increasing order, so a plain FIFO holds them sorted and the
//!   true global minimum is `min(heap top, FIFO front)` by full-key
//!   comparison.
//!
//! * **Direct handoff.** When a process blocks or finishes it dispatches
//!   the next event itself instead of waking a central engine thread: if
//!   the next event is its own (a plain `delay` with nothing intervening)
//!   it simply keeps running — zero context switches; if the event belongs
//!   to a peer it wakes that peer directly — one switch instead of two
//!   through an engine thread (proc → engine → proc). The engine thread
//!   only starts the run and wakes for its termination (success, deadlock,
//!   panic). Every event is popped by the one function `dispatch_next`,
//!   under the core lock, on whichever thread reaches a dispatch point.
//!
//! # Steps
//!
//! A *step* is a function `FnMut(&Env) -> Step` that the dispatching
//! thread runs, with the core lock released, each time it pops its
//! process's event. It does its work through the non-blocking primitives
//! — [`Receiver::poll_recv`](crate::Receiver::poll_recv),
//! [`Sender::poll_send`](crate::Sender::poll_send),
//! [`Semaphore::poll_acquire`](crate::Semaphore::poll_acquire),
//! [`Topology::poll_transfer`](crate::Topology::poll_transfer), wakes — and
//! says what it waits for next: [`Step::Wait`] (it registered its pid with
//! a primitive), [`Step::Delay`] or [`Step::Done`]. Two kinds of process
//! have one:
//!
//! * A *handler* ([`Simulation::spawn_handler`]) is a process with a step
//!   and no thread. The simulator's relays — DataCutter's outbox senders
//!   and ack couriers — are handlers: a relay event costs a function call
//!   on the thread that popped it, not a thread hand-off.
//! * A thread process can *lend* the event loop a step (`Env::lend`,
//!   crate-private) to sleep through a run of back-to-back timers — a
//!   CPU's sixteen scheduling quanta — without being woken between them.
//!   The first step runs at once; the thread is woken once, inside the
//!   event whose step returns `Done`.
//!
//! The blocking primitives are thin loops over the same functions, and
//! [`Env::drive`] runs any step on its own thread, so a step dispatches
//! exactly the events of a thread driving it: each step is one dispatched
//! event, pushed at the same point of the order (nothing else can run
//! between a pop and the push that follows it, on either path) and so with
//! the same `(time, seq)`; `Delay(ZERO)` schedules nothing and steps again
//! at once, as `Env::delay` returns at once when `now >= target`; and a
//! stray [`Env::wake`] mid-delay (a stale waiter registration can deliver
//! one) is counted, bumps the epoch and re-arms the timer at its `due`
//! time, exactly as the woken thread re-arms when it finds `now < target`.
//! A step must not block: that panics. A panicking step is reported
//! against its own process, whichever thread ran it, and a thread whose
//! lent step panicked stays parked until teardown unwinds it. A process
//! parked in `Wait` is named in a deadlock report. A step's state is
//! dropped with the lock released when it is done (as a thread's closure
//! drops its captures before it finishes), or unrun at teardown.
//!
//! # Thread reuse
//!
//! A thread process runs on a pooled OS thread that outlives its
//! simulation: the thread is taken from a process-wide idle list at the
//! process's first grant, and parks there again once the closure has
//! returned — at most [`IDLE_THREAD_CAP`] of them; past that it exits.
//! Teardown still waits until every closure has returned and dropped what
//! it captured, and until its thread is parked, so back-to-back
//! simulations (one per frame, one per paper-bin configuration) create
//! threads only on the first run. A process that panicked leaves its
//! thread reusable.
//!
//! # Example
//!
//! ```
//! use hetsim::{Simulation, SimDuration};
//!
//! let mut sim = Simulation::new();
//! sim.spawn("worker", |env| {
//!     env.delay(SimDuration::from_millis(10));
//!     assert_eq!(env.now().as_nanos(), 10_000_000);
//! });
//! let stats = sim.run().unwrap();
//! assert_eq!(stats.end_time.as_nanos(), 10_000_000);
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, MutexGuard};

pub use crate::pool::IDLE_THREAD_CAP;
use crate::time::{SimDuration, SimTime};

/// Identifies a process within one [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub u32);

/// Monotonic counter distinguishing successive blocking episodes of one
/// process, so stale wake events are ignored.
type Epoch = u64;

/// Errors surfaced by [`Simulation::run`].
#[derive(Debug)]
pub enum SimError {
    /// The event queue drained while processes were still blocked. The
    /// payload lists the names of the stuck processes.
    Deadlock(Vec<String>),
    /// A process panicked; the payload carries the process name and, when
    /// available, the panic message.
    ProcessPanic {
        /// Name of the panicking process.
        process: String,
        /// Panic message, when it was a string payload.
        message: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock(names) => {
                write!(
                    f,
                    "simulation deadlock; blocked processes: {}",
                    names.join(", ")
                )
            }
            SimError::ProcessPanic { process, message } => {
                write!(f, "process '{process}' panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Summary returned by a successful [`Simulation::run`].
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Virtual time when the last event was processed.
    pub end_time: SimTime,
    /// Number of wake events the engine dispatched.
    pub events: u64,
    /// Number of processes that ran to completion.
    pub processes: u32,
    /// Events granted to a process parked on another thread: one condvar
    /// notify plus one park — the expensive kind of event.
    pub handoffs: u64,
    /// Events granted to the very process that was dispatching (its own
    /// timer was next): no context switch.
    pub self_grants: u64,
    /// Events consumed inside the event loop without granting a thread:
    /// handler steps, lent steps that are not yet done, and re-armed stray
    /// wakes. Always `events == handoffs + self_grants + inline_steps`.
    pub inline_steps: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Spawned; first wake not yet granted.
    Created,
    /// Currently executing (at most one process at a time).
    Running,
    /// Its step is running on the dispatching thread; a lender's own
    /// thread stays parked through it.
    Stepping,
    /// Parked awaiting a wake event carrying this epoch.
    Blocked(Epoch),
    /// Ran to completion (or unwound).
    Finished,
    /// Told to unwind at the next blocking point.
    Cancelled,
}

struct Proc {
    name: String,
    status: Status,
    epoch: Epoch,
    /// The instant the process's pending timer fires, while its step
    /// sleeps through a `Delay`. A fresh event for the process before `due`
    /// is a stray wake, not the timer.
    due: Option<SimTime>,
    /// The step the event loop runs at this process's events instead of
    /// granting it: a handler's always, a thread's while it lends one.
    /// `None` while the step runs.
    step: Option<Box<StepFn>>,
    /// The condvar a thread process parks on; `None` for a handler.
    cv: Option<Arc<Condvar>>,
    /// A thread process's whole life, handed to a pooled thread at its
    /// first grant.
    start: Option<Box<dyn FnOnce() + Send>>,
}

/// A step function (see "Steps" in the module docs).
type StepFn = dyn FnMut(&Env) -> Step + Send;

/// What a step asks of the engine when it returns, and what a resumable
/// state machine over the non-blocking primitives reports to whoever
/// drives it ([`Env::drive`] on a thread, the event loop for a handler or
/// a lent step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Park until another process wakes this one: the step registered its
    /// pid with what it waits on (a `poll_*` primitive returned pending).
    Wait,
    /// Sleep for the duration, then step again. `Delay(ZERO)` schedules no
    /// event and steps again at once, as [`Env::delay`] returns at once.
    Delay(SimDuration),
    /// Finished.
    Done,
}

/// Slab payload of one scheduled event; the wake target and the blocking
/// episode it belongs to. Slots are recycled through a free list, so
/// steady-state scheduling allocates nothing.
#[derive(Clone, Copy)]
struct EventRec {
    pid: ProcessId,
    epoch: Epoch,
}

/// Bits of the packed event key holding the monotonic sequence number.
const SEQ_BITS: u32 = 40;
/// Bits of the packed event key holding the slab slot.
const SLOT_BITS: u32 = 24;

/// Pack `(time, seq, slot)` into an order-preserving `u128`: time in the
/// high 64 bits, seq below it, slot in the low bits. `seq` is strictly
/// monotonic across all events, so `(time, seq)` is already a total order
/// and the slot bits never decide a comparison.
#[inline]
fn pack_key(time: SimTime, seq: u64, slot: u32) -> u128 {
    debug_assert!(seq < 1 << SEQ_BITS, "event sequence overflow");
    debug_assert!(slot < 1 << SLOT_BITS, "event slab overflow");
    ((time.as_nanos() as u128) << (SEQ_BITS + SLOT_BITS))
        | ((seq as u128) << SLOT_BITS)
        | slot as u128
}

#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime((key >> (SEQ_BITS + SLOT_BITS)) as u64)
}

#[inline]
fn key_slot(key: u128) -> u32 {
    (key & ((1 << SLOT_BITS) - 1)) as u32
}

struct Core {
    now: SimTime,
    seq: u64,
    /// Events strictly in the future (`time > now` at push time).
    heap: BinaryHeap<Reverse<u128>>,
    /// Events scheduled at the instant they were pushed (`time == now`).
    /// `now` is non-decreasing and `seq` strictly increasing, so keys are
    /// pushed in increasing order and the deque is always sorted: its
    /// front competes with the heap top for the global minimum.
    imm: VecDeque<u128>,
    /// Event payloads, indexed by the key's slot bits.
    slab: Vec<EventRec>,
    /// Recycled slab slots.
    free: Vec<u32>,
    procs: Vec<Proc>,
    live: usize,
    dispatched: u64,
    handoffs: u64,
    self_grants: u64,
    inline_steps: u64,
    completed: u32,
    panic: Option<(String, String)>,
    /// Terminal outcome produced by whichever thread drained the queue;
    /// the engine thread collects it.
    result: Option<Result<RunStats, SimError>>,
    /// Sticky stop flag: no process may dispatch once set (panic observed,
    /// queue drained, or teardown begun).
    halted: bool,
}

impl Core {
    /// Schedule a wake for `pid`/`epoch` at `at` (which must be `>= now`).
    fn push_event(&mut self, at: SimTime, pid: ProcessId, epoch: Epoch) {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slab.push(EventRec { pid, epoch });
                (self.slab.len() - 1) as u32
            }
        };
        self.slab[slot as usize] = EventRec { pid, epoch };
        let key = pack_key(at, self.seq, slot);
        self.seq += 1;
        if at == self.now {
            self.imm.push_back(key);
        } else {
            debug_assert!(at > self.now, "event scheduled in the past");
            self.heap.push(Reverse(key));
        }
    }

    /// Pop the earliest event and recycle its slot. The comparison is on
    /// the full packed key, so interleavings of heap and immediate events
    /// at the same instant resolve by sequence number exactly as the
    /// single-heap engine did.
    fn pop_event(&mut self) -> Option<(u128, EventRec)> {
        let from_imm = match (self.imm.front(), self.heap.peek()) {
            (Some(&i), Some(&Reverse(h))) => i < h,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let key = if from_imm {
            self.imm.pop_front().expect("imm front just observed")
        } else {
            let Reverse(key) = self.heap.pop().expect("heap top just observed");
            key
        };
        let slot = key_slot(key);
        let rec = self.slab[slot as usize];
        self.free.push(slot);
        Some((key, rec))
    }

    /// Terminal statistics once the queue has drained.
    fn stats(&self) -> RunStats {
        debug_assert_eq!(
            self.dispatched,
            self.handoffs + self.self_grants + self.inline_steps,
            "every dispatched event is a hand-off, a self-grant or an inline step"
        );
        RunStats {
            end_time: self.now,
            events: self.dispatched,
            processes: self.completed,
            handoffs: self.handoffs,
            self_grants: self.self_grants,
            inline_steps: self.inline_steps,
        }
    }

    /// Names of processes stuck at a deadlock.
    fn blocked_names(&self) -> Vec<String> {
        self.procs
            .iter()
            .filter(|p| matches!(p.status, Status::Blocked(_) | Status::Created))
            .map(|p| p.name.clone())
            .collect()
    }
}

struct Shared {
    core: Mutex<Core>,
    engine_cv: Condvar,
    /// Thread processes whose closure has not yet returned and dropped
    /// what it captured; teardown waits for zero.
    threads: Mutex<usize>,
    threads_cv: Condvar,
}

/// Counts a thread process out of [`Shared::threads`] once its closure has
/// returned or unwound and its thread is parked again (the pool's receipt).
struct ThreadExit(Arc<Shared>);

impl Drop for ThreadExit {
    fn drop(&mut self) {
        let mut n = self.0.threads.lock();
        *n -= 1;
        if *n == 0 {
            self.0.threads_cv.notify_all();
        }
    }
}

/// Pop-and-grant the next fresh event: the one dispatch loop, run by
/// whichever thread reaches a dispatch point (a blocking or finishing
/// process, or the engine thread starting the run). An event whose process
/// has a step — a handler, or a thread lending one — runs that step right
/// here and the loop carries on, unless a lent step is done; so only events
/// for threads grant. Returns `true` when the granted process is `granting`
/// itself — the caller keeps the CPU with no context switch at all. When
/// the queue drains, records the terminal result and wakes the engine. The
/// core lock is released while a step runs and while a granted thread is
/// notified, so a caller re-reads whatever it needs from the core
/// afterwards.
fn dispatch_next(
    shared: &Arc<Shared>,
    core: &mut MutexGuard<'_, Core>,
    granting: Option<ProcessId>,
) -> bool {
    loop {
        let Some((key, rec)) = core.pop_event() else {
            // Queue drained: success iff nobody is still blocked.
            core.result = Some(if core.live == 0 {
                Ok(core.stats())
            } else {
                Err(SimError::Deadlock(core.blocked_names()))
            });
            core.halted = true;
            shared.engine_cv.notify_one();
            return false;
        };
        // Skip stale wakes (process moved on or finished).
        let idx = rec.pid.0 as usize;
        let fresh = match core.procs[idx].status {
            Status::Blocked(epoch) => epoch == rec.epoch,
            Status::Created => rec.epoch == 0,
            _ => false,
        };
        if !fresh {
            continue;
        }
        let now = key_time(key);
        core.now = now;
        core.dispatched += 1;
        let proc = &mut core.procs[idx];
        proc.epoch += 1;
        // A fresh event before the pending timer is a stray wake: it
        // re-arms the timer at `due`, as the woken thread would.
        if let Some(due) = proc.due.take().filter(|&due| now < due) {
            let epoch = proc.epoch;
            proc.due = Some(due);
            proc.status = Status::Blocked(epoch);
            core.push_event(due, rec.pid, epoch);
            core.inline_steps += 1;
            continue;
        }
        if proc.step.is_some() {
            match run_step(shared, core, rec.pid, now) {
                // A lent step is done: its thread resumes within this event.
                Some(Step::Done) if core.procs[idx].cv.is_some() => {}
                Some(_) => {
                    core.inline_steps += 1;
                    continue;
                }
                None => return false,
            }
        }
        core.procs[idx].status = Status::Running;
        if granting == Some(rec.pid) {
            core.self_grants += 1;
            return true;
        }
        core.handoffs += 1;
        // Started or notified with the core unlocked: a woken thread that
        // preempts the dispatcher would otherwise only block again on the
        // core lock. The grant is already recorded, so a wake that lands
        // before the target parks is not lost.
        let proc = &mut core.procs[idx];
        let Some(start) = proc.start.take() else {
            let cv = proc.cv.clone().expect("handlers are never granted");
            MutexGuard::unlocked(core, || cv.notify_one());
            return false;
        };
        *shared.threads.lock() += 1;
        let receipt = Box::new(ThreadExit(shared.clone()));
        if let Err(e) = MutexGuard::unlocked(core, || crate::pool::run(start, receipt)) {
            let proc = &mut core.procs[idx];
            proc.status = Status::Finished;
            let failed = (proc.name.clone(), format!("no thread to run on: {e}"));
            core.live -= 1;
            halt_on_panic(shared, core, failed);
        }
        return false;
    }
}

/// Run `pid`'s step — for the event just popped at `now`, or from
/// [`Env::lend`] on the lending thread itself — with the core lock released
/// (the step locks primitives whose wakes take it). A step that waits or
/// sleeps is put back, its process parked and its timer armed; a done
/// handler is retired, and a done lender is left `Running` for its caller
/// to resume. A step that is done or panicked has its state dropped before
/// the lock is taken again, as a thread's closure drops its captures before
/// `finish`. Returns what the step asked, or `None` when it panicked: the
/// run is then halted and the process left parked for teardown.
fn run_step(
    shared: &Arc<Shared>,
    core: &mut MutexGuard<'_, Core>,
    pid: ProcessId,
    now: SimTime,
) -> Option<Step> {
    let idx = pid.0 as usize;
    let proc = &mut core.procs[idx];
    let mut step = proc.step.take().expect("a parked step is in place");
    proc.status = Status::Stepping;
    let env = Env {
        pid,
        shared: shared.clone(),
    };
    let (outcome, step) = MutexGuard::unlocked(core, move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| loop {
            match step(&env) {
                Step::Delay(d) if d.is_zero() => continue,
                asked => break asked,
            }
        }));
        match outcome {
            Ok(Step::Wait | Step::Delay(_)) => (outcome, Some(step)),
            _ => {
                drop(step);
                (outcome, None)
            }
        }
    });
    let proc = &mut core.procs[idx];
    let epoch = proc.epoch;
    proc.step = step;
    proc.status = Status::Blocked(epoch);
    let asked = match outcome {
        Ok(asked) => asked,
        Err(payload) => {
            let failed = (proc.name.clone(), panic_message(&*payload));
            halt_on_panic(shared, core, failed);
            return None;
        }
    };
    match asked {
        Step::Wait => {}
        Step::Delay(d) => {
            proc.due = Some(now + d);
            core.push_event(now + d, pid, epoch);
        }
        Step::Done if proc.cv.is_some() => proc.status = Status::Running,
        Step::Done => {
            proc.status = Status::Finished;
            core.completed += 1;
            core.live -= 1;
        }
    }
    Some(asked)
}

/// Record the run's first panic and stop dispatching.
fn halt_on_panic(shared: &Shared, core: &mut Core, failed: (String, String)) {
    core.panic.get_or_insert(failed);
    core.halted = true;
    shared.engine_cv.notify_one();
}

/// The message of a caught panic payload, when it is a string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// Sentinel panic payload used to unwind cancelled process threads without
/// tripping the global panic hook.
struct CancelToken;

/// Handle given to each process; all interaction with the virtual clock and
/// with other processes goes through it. Cheap to clone.
#[derive(Clone)]
pub struct Env {
    pid: ProcessId,
    shared: Arc<Shared>,
}

impl Env {
    /// The calling process's id.
    #[inline]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.core.lock().now
    }

    /// Advance this process's virtual clock by `d`, letting other
    /// processes run in the meantime. Robust against stray [`Env::wake`]
    /// calls: the full duration always elapses.
    pub fn delay(&self, d: SimDuration) {
        let target = {
            let core = self.shared.core.lock();
            core.now + d
        };
        loop {
            let mut core = self.shared.core.lock();
            if core.now >= target {
                return;
            }
            self.schedule_self(&mut core, target);
            self.yield_blocked(core);
        }
    }

    /// Lend the event loop `step` and sleep until it is done: the events of
    /// [`drive`](Env::drive), but this thread is woken once, inside the
    /// event whose step returns [`Step::Done`], instead of at every `Wait`
    /// and `Delay`. The first step runs at once, every later one on
    /// whichever thread pops this process's event (see "Steps" in the
    /// module docs), so `step` must not block and may lock only state that
    /// is never held across a blocking `Env` call.
    pub(crate) fn lend(&self, step: impl FnMut(&Env) -> Step + Send + 'static) {
        let mut core = self.shared.core.lock();
        let now = core.now;
        core.procs[self.pid.0 as usize].step = Some(Box::new(step));
        if run_step(&self.shared, &mut core, self.pid, now) != Some(Step::Done) {
            self.yield_blocked(core);
        }
    }

    /// Run a resumable step machine to [`Step::Done`] on the calling
    /// process's own thread: [`Step::Wait`] is [`Env::block`] and
    /// [`Step::Delay`] is [`Env::delay`]. This is how a blocking primitive
    /// is a thin loop over its non-blocking version, and what a step's
    /// events are equivalent to: a handler spawned with `step`, a thread
    /// process that lends it and one that drives it dispatch the same
    /// events.
    pub fn drive(&self, mut step: impl FnMut(&Env) -> Step) {
        loop {
            match step(self) {
                Step::Wait => self.block(),
                Step::Delay(d) => self.delay(d),
                Step::Done => return,
            }
        }
    }

    /// Park the calling process until some other process calls
    /// [`Env::wake`] for it. Building block for synchronization primitives;
    /// application code normally uses channels or semaphores instead.
    pub fn block(&self) {
        let core = self.shared.core.lock();
        self.yield_blocked(core);
    }

    /// Park the calling process until either another process wakes it or
    /// the virtual clock reaches `deadline`, whichever comes first. Unlike
    /// [`Env::delay`], a genuine wake resumes the process early. Returns
    /// `true` when the process was woken before the deadline and `false`
    /// when the deadline expired. Building block for timed waits
    /// (liveness probes, retransmit timers).
    pub fn block_until(&self, deadline: SimTime) -> bool {
        let mut core = self.shared.core.lock();
        let at = deadline.max(core.now);
        self.schedule_self(&mut core, at);
        self.yield_blocked(core);
        self.shared.core.lock().now < deadline
    }

    /// Schedule a wake event (at the current instant) for `pid` if it is
    /// blocked. Safe to call for a process that has already been woken by
    /// another path: stale wakes are ignored via epochs. Returns `true` when
    /// a wake was actually scheduled.
    pub fn wake(&self, pid: ProcessId) -> bool {
        let mut core = self.shared.core.lock();
        wake_in(&mut core, pid)
    }

    /// Spawn a child process. It becomes runnable at the current virtual
    /// time (after already-queued events at this instant).
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ProcessId
    where
        F: FnOnce(Env) + Send + 'static,
    {
        spawn_inner(&self.shared, name.into(), f)
    }

    /// A handle that can schedule wakes without being a process — used by
    /// `Drop` impls of synchronization primitives.
    pub fn waker(&self) -> Waker {
        Waker {
            shared: self.shared.clone(),
        }
    }

    // -- internals ---------------------------------------------------------

    fn schedule_self(&self, core: &mut Core, at: SimTime) {
        let epoch = core.procs[self.pid.0 as usize].epoch;
        core.push_event(at, self.pid, epoch);
    }

    /// Mark self blocked and hand control onward. Under direct handoff the
    /// calling process dispatches the next event itself: if that event is
    /// its own, it keeps running without parking; otherwise it wakes the
    /// target and parks. Must be entered with the core lock held.
    fn yield_blocked(&self, mut core: MutexGuard<'_, Core>) {
        let idx = self.pid.0 as usize;
        if core.procs[idx].status == Status::Stepping {
            drop(core);
            panic!("a step must not block: it returns Step::Wait or Step::Delay");
        }
        let epoch = core.procs[idx].epoch;
        core.procs[idx].status = Status::Blocked(epoch);
        if core.halted {
            self.shared.engine_cv.notify_one();
        } else if dispatch_next(&self.shared, &mut core, Some(self.pid)) {
            // Self-granted: the next event was this process's own wake.
            return;
        }
        let cv = core.procs[idx]
            .cv
            .clone()
            .expect("only a step runs a handler, and steps do not block");
        loop {
            match core.procs[idx].status {
                Status::Running => return,
                Status::Cancelled => {
                    drop(core);
                    resume_unwind(Box::new(CancelToken));
                }
                _ => cv.wait(&mut core),
            }
        }
    }
}

/// Schedules wake events from contexts that are not themselves processes
/// (e.g. `Drop` impls of channel endpoints held outside the simulation).
#[derive(Clone)]
pub struct Waker {
    shared: Arc<Shared>,
}

impl Waker {
    /// Wake `pid` at the current virtual instant if it is blocked.
    pub fn wake(&self, pid: ProcessId) -> bool {
        let mut core = self.shared.core.lock();
        wake_in(&mut core, pid)
    }
}

fn wake_in(core: &mut Core, pid: ProcessId) -> bool {
    let idx = pid.0 as usize;
    match core.procs[idx].status {
        Status::Blocked(epoch) => {
            let time = core.now;
            core.push_event(time, pid, epoch);
            true
        }
        _ => false,
    }
}

/// Register a process and its first wake, at the current instant: a
/// handler with its `step`, or a thread process whose whole life `start`
/// makes from its pid.
fn register(
    shared: &Shared,
    name: String,
    step: Option<Box<StepFn>>,
    start: impl FnOnce(ProcessId) -> Option<Box<dyn FnOnce() + Send>>,
) -> ProcessId {
    let mut core = shared.core.lock();
    let pid = ProcessId(core.procs.len() as u32);
    let start = start(pid);
    core.procs.push(Proc {
        name,
        status: Status::Created,
        epoch: 0,
        due: None,
        step,
        cv: start.is_some().then(|| Arc::new(Condvar::new())),
        start,
    });
    core.live += 1;
    let time = core.now;
    core.push_event(time, pid, 0);
    pid
}

fn spawn_inner<F>(shared: &Arc<Shared>, name: String, f: F) -> ProcessId
where
    F: FnOnce(Env) + Send + 'static,
{
    register(shared, name, None, |pid| {
        let env = Env {
            pid,
            shared: shared.clone(),
        };
        Some(Box::new(move || process(env, f)))
    })
}

/// A thread process's life on its pooled thread, from its first grant:
/// run the closure, report how it ended.
fn process<F: FnOnce(Env)>(env: Env, f: F) {
    let pid = env.pid;
    let shared = env.shared.clone();
    let result = catch_unwind(AssertUnwindSafe(move || f(env)));
    let panic_info = match result {
        Err(payload) if !payload.is::<CancelToken>() => Some(panic_message(&*payload)),
        _ => None,
    };
    let mut core = shared.core.lock();
    finish(&shared, &mut core, pid, panic_info);
}

fn finish(
    shared: &Arc<Shared>,
    core: &mut MutexGuard<'_, Core>,
    pid: ProcessId,
    panic_info: Option<String>,
) {
    let idx = pid.0 as usize;
    if let Some(msg) = panic_info {
        let name = core.procs[idx].name.clone();
        core.panic.get_or_insert((name, msg));
        core.halted = true;
    }
    if core.procs[idx].status != Status::Cancelled {
        core.completed += 1;
    }
    core.procs[idx].status = Status::Finished;
    core.live -= 1;
    if core.halted {
        shared.engine_cv.notify_one();
    } else {
        // Direct handoff: the finishing process dispatches its successor
        // (never itself — it is `Finished`).
        dispatch_next(shared, core, None);
    }
}

/// The simulation: owns the event queue, the virtual clock, and all process
/// threads. Construct, spawn root processes, then [`run`](Simulation::run).
pub struct Simulation {
    shared: Arc<Shared>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Create an empty simulation with the clock at zero.
    pub fn new() -> Self {
        Simulation {
            shared: Arc::new(Shared {
                core: Mutex::new(Core {
                    now: SimTime::ZERO,
                    seq: 0,
                    heap: BinaryHeap::new(),
                    imm: VecDeque::new(),
                    slab: Vec::new(),
                    free: Vec::new(),
                    procs: Vec::new(),
                    live: 0,
                    dispatched: 0,
                    handoffs: 0,
                    self_grants: 0,
                    inline_steps: 0,
                    completed: 0,
                    panic: None,
                    result: None,
                    halted: false,
                }),
                engine_cv: Condvar::new(),
                threads: Mutex::new(0),
                threads_cv: Condvar::new(),
            }),
        }
    }

    /// Spawn a root process. See [`Env::spawn`] for spawning from within a
    /// running process.
    pub fn spawn<F>(&mut self, name: impl Into<String>, f: F) -> ProcessId
    where
        F: FnOnce(Env) + Send + 'static,
    {
        spawn_inner(&self.shared, name.into(), f)
    }

    /// Spawn a root *handler*: a process with a pid and no thread. Each
    /// event granted to it runs `step` on the thread that dispatches the
    /// event, with the engine's lock released, and the step's [`Step`]
    /// says what it waits for next — see "Steps" in the module docs.
    /// The step sees its own pid through its `&Env` and may call any
    /// non-blocking `Env` method and `poll_*` primitive, but must not
    /// block ([`Env::delay`], [`Env::block`], a blocking `send`...): that
    /// panics. Its state is dropped when it returns [`Step::Done`], or
    /// unrun when the simulation is torn down.
    pub fn spawn_handler(
        &mut self,
        name: impl Into<String>,
        step: impl FnMut(&Env) -> Step + Send + 'static,
    ) -> ProcessId {
        register(&self.shared, name.into(), Some(Box::new(step)), |_| None)
    }

    /// A [`Waker`] tied to this simulation, for constructing channels and
    /// other primitives before the run starts.
    pub fn waker(&self) -> Waker {
        Waker {
            shared: self.shared.clone(),
        }
    }

    /// Drive the simulation until every process has finished or the run
    /// fails (deadlock / process panic).
    pub fn run(&mut self) -> Result<RunStats, SimError> {
        // Direct handoff: seed the first dispatch, then sleep until some
        // process thread reports the terminal outcome.
        let mut core = self.shared.core.lock();
        if core.panic.is_none() && core.result.is_none() {
            dispatch_next(&self.shared, &mut core, None);
        }
        loop {
            if let Some((process, message)) = core.panic.take() {
                drop(core);
                self.cancel_all();
                return Err(SimError::ProcessPanic { process, message });
            }
            if let Some(result) = core.result.take() {
                match result {
                    Ok(stats) => return Ok(stats),
                    Err(e) => {
                        drop(core);
                        self.cancel_all();
                        return Err(e);
                    }
                }
            }
            self.shared.engine_cv.wait(&mut core);
        }
    }

    /// Tear the run down: every unfinished thread process unwinds, every
    /// pending step is dropped unrun, and this returns once every process
    /// closure has returned and dropped what it captured.
    fn cancel_all(&self) {
        let mut core = self.shared.core.lock();
        core.halted = true;
        let (mut unstarted, mut steps) = (Vec::new(), Vec::new());
        for p in core.procs.iter_mut() {
            if p.status == Status::Finished {
                continue;
            }
            p.status = Status::Cancelled;
            steps.extend(p.step.take());
            unstarted.extend(p.start.take());
            if let Some(cv) = &p.cv {
                cv.notify_one();
            }
        }
        drop(core);
        // Closures never started and step state may hold channel
        // endpoints, whose drops take the core lock to wake peers.
        drop((unstarted, steps));
        let mut threads = self.shared.threads.lock();
        while *threads > 0 {
            self.shared.threads_cv.wait(&mut threads);
        }
    }

    /// Current virtual time (mainly for assertions in tests).
    pub fn now(&self) -> SimTime {
        self.shared.core.lock().now
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        self.cancel_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_process_advances_clock() {
        let mut sim = Simulation::new();
        sim.spawn("p", |env| {
            assert_eq!(env.now(), SimTime::ZERO);
            env.delay(SimDuration::from_secs(3));
            assert_eq!(env.now().as_secs_f64(), 3.0);
        });
        let stats = sim.run().unwrap();
        assert_eq!(stats.end_time.as_secs_f64(), 3.0);
        assert_eq!(stats.processes, 1);
    }

    #[test]
    fn processes_interleave_in_time_order() {
        use std::sync::Mutex as StdMutex;
        let log: Arc<StdMutex<Vec<(u64, &'static str)>>> = Arc::new(StdMutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for (name, step) in [("a", 3u64), ("b", 5u64)] {
            let log = log.clone();
            sim.spawn(name, move |env| {
                for _ in 0..3 {
                    env.delay(SimDuration::from_millis(step));
                    log.lock()
                        .unwrap()
                        .push((env.now().as_nanos() / 1_000_000, name));
                }
            });
        }
        sim.run().unwrap();
        let got = log.lock().unwrap().clone();
        assert_eq!(
            got,
            vec![(3, "a"), (5, "b"), (6, "a"), (9, "a"), (10, "b"), (15, "b")]
        );
    }

    #[test]
    fn spawn_from_within_process() {
        let mut sim = Simulation::new();
        sim.spawn("parent", |env| {
            env.delay(SimDuration::from_millis(1));
            env.spawn("child", |env| {
                assert_eq!(env.now().as_nanos(), 1_000_000);
                env.delay(SimDuration::from_millis(2));
            });
            env.delay(SimDuration::from_millis(5));
        });
        let stats = sim.run().unwrap();
        assert_eq!(stats.end_time.as_nanos(), 6_000_000);
        assert_eq!(stats.processes, 2);
    }

    #[test]
    fn block_and_wake_handshake() {
        let mut sim = Simulation::new();
        let mut pid_holder = None;
        let waiter = sim.spawn("waiter", |env| {
            env.block();
            assert_eq!(env.now().as_nanos(), 7_000_000);
        });
        pid_holder.replace(waiter);
        sim.spawn("waker", move |env| {
            env.delay(SimDuration::from_millis(7));
            assert!(env.wake(waiter));
        });
        sim.run().unwrap();
    }

    #[test]
    fn block_until_times_out_and_wakes_early() {
        let mut sim = Simulation::new();
        let sleeper = sim.spawn("sleeper", |env| {
            // No one wakes us: the deadline expires.
            let woken = env.block_until(SimTime::ZERO + SimDuration::from_millis(3));
            assert!(!woken);
            assert_eq!(env.now().as_nanos(), 3_000_000);
            // This time a peer wakes us well before the deadline.
            let woken = env.block_until(env.now() + SimDuration::from_secs(10));
            assert!(woken);
            assert_eq!(env.now().as_nanos(), 5_000_000);
        });
        sim.spawn("waker", move |env| {
            env.delay(SimDuration::from_millis(5));
            env.wake(sleeper);
        });
        let stats = sim.run().unwrap();
        // The stale 10s timeout event must not drag the clock forward.
        assert_eq!(stats.end_time.as_nanos(), 5_000_000);
    }

    #[test]
    fn deadlock_is_reported() {
        let mut sim = Simulation::new();
        sim.spawn("stuck", |env| {
            env.block();
        });
        match sim.run() {
            Err(SimError::Deadlock(names)) => assert_eq!(names, vec!["stuck".to_string()]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn process_panic_is_reported() {
        let mut sim = Simulation::new();
        sim.spawn("bad", |_env| {
            panic!("boom");
        });
        match sim.run() {
            Err(SimError::ProcessPanic { process, message }) => {
                assert_eq!(process, "bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn stale_wakes_are_ignored() {
        let mut sim = Simulation::new();
        let sleeper = sim.spawn("sleeper", |env| {
            // A stray wake mid-delay must not shorten the delay, and the
            // delay's own (now stale) wake event must not double-resume.
            env.delay(SimDuration::from_millis(2));
            env.delay(SimDuration::from_millis(2));
            assert_eq!(env.now().as_nanos(), 4_000_000);
        });
        sim.spawn("noisy", move |env| {
            env.delay(SimDuration::from_millis(1));
            env.wake(sleeper); // sleeper is mid-delay; wake arrives early
        });
        let stats = sim.run().unwrap();
        assert_eq!(stats.end_time.as_nanos(), 4_000_000);
    }

    #[test]
    fn determinism_across_runs() {
        fn trace() -> Vec<(u64, u32)> {
            use std::sync::Mutex as StdMutex;
            let log: Arc<StdMutex<Vec<(u64, u32)>>> = Arc::new(StdMutex::new(Vec::new()));
            let mut sim = Simulation::new();
            for i in 0..8u32 {
                let log = log.clone();
                sim.spawn(format!("p{i}"), move |env| {
                    for k in 0..5u64 {
                        env.delay(SimDuration::from_nanos((i as u64 + 1) * 37 + k * 11));
                        log.lock().unwrap().push((env.now().as_nanos(), i));
                    }
                });
            }
            sim.run().unwrap();
            let v = log.lock().unwrap().clone();
            v
        }
        assert_eq!(trace(), trace());
    }

    #[test]
    fn drop_without_run_does_not_hang() {
        let mut sim = Simulation::new();
        sim.spawn("never-ran", |env| {
            env.delay(SimDuration::from_secs(1));
        });
        drop(sim); // must cancel and join cleanly
    }

    #[test]
    fn event_slots_are_recycled() {
        let mut sim = Simulation::new();
        sim.spawn("looper", |env| {
            for _ in 0..10_000 {
                env.delay(SimDuration::from_nanos(5));
            }
        });
        sim.run().unwrap();
        // One process delaying in a loop needs only a couple of slots.
        assert!(sim.shared.core.lock().slab.len() < 8);
    }

    // -- lent steps ---------------------------------------------------------

    use std::sync::atomic::{AtomicU64, Ordering};

    /// The definition a lent chain of delays must match: one `Env::delay`
    /// per entry.
    fn delay_each(env: &Env, nanos: &[u64]) {
        for &ns in nanos {
            env.delay(SimDuration::from_nanos(ns));
        }
    }

    /// A step that sleeps through `nanos`, one entry per event, and then
    /// finishes; `calls` counts its runs.
    fn napper(nanos: &[u64], calls: &Arc<AtomicU64>) -> impl FnMut(&Env) -> Step + Send {
        let mut rest: VecDeque<u64> = nanos.iter().copied().collect();
        let calls = calls.clone();
        move |_env| {
            calls.fetch_add(1, Ordering::Relaxed);
            rest.pop_front()
                .map_or(Step::Done, |ns| Step::Delay(SimDuration::from_nanos(ns)))
        }
    }

    /// The same delays as a chain lent to the event loop.
    fn chain_each(env: &Env, nanos: &[u64], calls: &Arc<AtomicU64>) {
        env.lend(napper(nanos, calls));
    }

    /// A peer that stops the run mid-way: it panics at 1.5 µs.
    fn spawn_panicking_peer(sim: &mut Simulation) {
        sim.spawn("bad", |env| {
            env.delay(SimDuration::from_nanos(1_500));
            panic!("boom");
        });
    }

    #[test]
    fn chain_is_a_delay_loop_with_one_handoff() {
        const NANOS: [u64; 7] = [3_000, 0, 5_000, 0, 0, 2_000, 0];
        let run = |chained: bool| {
            let calls = Arc::new(AtomicU64::new(0));
            let mut sim = Simulation::new();
            // A peer whose timers interleave with the chain's, so the
            // delay loop has to hand off to and fro.
            sim.spawn("peer", |env| delay_each(&env, &[1_000; 12]));
            let c = calls.clone();
            sim.spawn("sleeper", move |env| {
                if chained {
                    chain_each(&env, &NANOS, &c);
                } else {
                    delay_each(&env, &NANOS);
                }
                assert_eq!(env.now().as_nanos(), 10_000);
            });
            (sim.run().unwrap(), calls.load(Ordering::Relaxed))
        };
        let (reference, _) = run(false);
        let (chained, calls) = run(true);
        assert_eq!(chained.end_time, reference.end_time);
        assert_eq!(chained.events, reference.events);
        assert_eq!(chained.processes, reference.processes);
        // Zero-length delays schedule no event on either path: 2 starts,
        // 12 peer timers, 3 sleeper timers.
        assert_eq!(chained.events, 17);
        // One step per delay plus the one that ends the chain.
        assert_eq!(calls, NANOS.len() as u64 + 1);
        assert_eq!(reference.inline_steps, 0);
        assert_eq!(chained.inline_steps, 2);
        assert!(
            chained.handoffs < reference.handoffs,
            "{chained:?} vs {reference:?}"
        );
        for s in [reference, chained] {
            assert_eq!(s.events, s.handoffs + s.self_grants + s.inline_steps);
        }
    }

    #[test]
    fn a_lone_process_never_hands_off() {
        let mut sim = Simulation::new();
        sim.spawn("looper", |env| {
            for _ in 0..1_000_000 {
                env.delay(SimDuration::from_nanos(5));
            }
        });
        let stats = sim.run().unwrap();
        // The start is the engine waking the thread; every delay after it
        // is the process popping its own timer.
        assert_eq!(stats.handoffs, 1);
        assert_eq!(stats.self_grants, 1_000_000);
        assert_eq!(stats.inline_steps, 0);
        assert_eq!(stats.events, 1_000_001);
    }

    #[test]
    fn stray_wake_mid_chain_rearms_the_timer() {
        let run = |chained: bool| {
            let calls = Arc::new(AtomicU64::new(0));
            let mut sim = Simulation::new();
            let c = calls.clone();
            let sleeper = sim.spawn("sleeper", move |env| {
                if chained {
                    chain_each(&env, &[4_000, 4_000], &c);
                } else {
                    delay_each(&env, &[4_000, 4_000]);
                }
                // The full duration elapsed despite three stray wakes.
                assert_eq!(env.now().as_nanos(), 8_000);
            });
            let c = calls.clone();
            sim.spawn("noisy", move |env| {
                for expect_calls in [1, 1, 2] {
                    env.delay(SimDuration::from_nanos(1_500));
                    if chained {
                        // A stray wake re-arms; it never runs the step.
                        assert_eq!(c.load(Ordering::Relaxed), expect_calls);
                    }
                    assert!(env.wake(sleeper), "sleeper is blocked mid-delay");
                }
            });
            sim.run().unwrap()
        };
        let (reference, chained) = (run(false), run(true));
        assert_eq!(chained.end_time, reference.end_time);
        assert_eq!(chained.events, reference.events);
        // 2 starts + 3 noisy timers + 3 stray wakes + 2 sleeper timers.
        assert_eq!(chained.events, 10);
        // Three re-arms and the first timer; the second one grants.
        assert_eq!(chained.inline_steps, 4);
    }

    #[test]
    fn peer_panic_mid_chain_names_the_peer_and_joins_everyone() {
        let calls = Arc::new(AtomicU64::new(0));
        let mut sim = Simulation::new();
        let c = calls.clone();
        sim.spawn("computing", move |env| {
            chain_each(&env, &[1_000; 8], &c);
        });
        sim.spawn("bad", |env| {
            env.delay(SimDuration::from_nanos(2_500));
            panic!("boom");
        });
        match sim.run() {
            Err(SimError::ProcessPanic { process, message }) => {
                assert_eq!(process, "bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
        // Teardown joined both threads and freed the pending step (the
        // step closure holds the only other reference to `calls`).
        assert_eq!(*sim.shared.threads.lock(), 0);
        assert_eq!(Arc::strong_count(&calls), 1);
        // First step on its own thread, then the timers at 1 and 2 µs.
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn panicking_step_is_reported_against_its_own_process() {
        let mut sim = Simulation::new();
        // The bystander's timers make it the thread that pops the chained
        // process's second timer and runs the panicking step.
        sim.spawn("bystander", |env| delay_each(&env, &[300; 10]));
        sim.spawn("chained", |env| {
            let mut n = 0;
            env.lend(move |_env| {
                n += 1;
                assert!(n < 3, "step {n} exploded");
                Step::Delay(SimDuration::from_nanos(1_000))
            });
        });
        match sim.run() {
            Err(SimError::ProcessPanic { process, message }) => {
                assert_eq!(process, "chained");
                assert!(message.contains("step 3 exploded"), "{message}");
            }
            other => panic!("expected panic error, got {other:?}"),
        }
        assert_eq!(*sim.shared.threads.lock(), 0);
    }

    /// Fails if a step that blocks is let through (it would park the
    /// dispatching thread, or return a lender mid-step), or is reported
    /// against the thread that happened to run it.
    #[test]
    fn a_blocking_step_is_reported_against_its_own_process() {
        for lent in [true, false] {
            let mut sim = Simulation::new();
            // The bystander's timers make its thread the one that runs the
            // blocking second step.
            sim.spawn("bystander", |env| delay_each(&env, &[300; 10]));
            let mut n = 0;
            let step = move |env: &Env| {
                n += 1;
                if n == 2 {
                    env.block();
                }
                Step::Delay(SimDuration::from_nanos(1_000))
            };
            if lent {
                sim.spawn("stepper", move |env| env.lend(step));
            } else {
                sim.spawn_handler("stepper", step);
            }
            match sim.run() {
                Err(SimError::ProcessPanic { process, message }) => {
                    assert_eq!(process, "stepper", "lent: {lent}");
                    assert!(message.contains("a step must not block"), "{message}");
                }
                other => panic!("expected panic error, got {other:?}"),
            }
            assert_eq!(sim.now().as_nanos(), 1_000);
            assert_eq!(*sim.shared.threads.lock(), 0);
        }
    }

    #[test]
    fn drop_mid_chain_frees_the_step_without_running_it() {
        let calls = Arc::new(AtomicU64::new(0));
        let mut sim = Simulation::new();
        // Outlives the simulation, as a channel endpoint held outside it
        // does: the core is not freed by the drop, the step must be.
        let _waker = sim.waker();
        let c = calls.clone();
        sim.spawn("computing", move |env| {
            chain_each(&env, &[1_000; 8], &c);
            unreachable!("the run is stopped mid-chain");
        });
        spawn_panicking_peer(&mut sim);
        assert!(matches!(sim.run(), Err(SimError::ProcessPanic { .. })));
        // The first step on the lending thread, then the 1 µs timer's.
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(sim.now().as_nanos(), 1_500);
        drop(sim);
        assert_eq!(calls.load(Ordering::Relaxed), 2, "a step ran at teardown");
        assert_eq!(Arc::strong_count(&calls), 1, "the step was not freed");
    }

    #[test]
    fn deadlock_report_lists_a_chained_process_only_if_it_is_stuck() {
        let run = |block_after: bool| {
            let calls = Arc::new(AtomicU64::new(0));
            let mut sim = Simulation::new();
            sim.spawn("stuck-a", |env| env.block());
            sim.spawn("computing", move |env| {
                chain_each(&env, &[1_000; 4], &calls);
                if block_after {
                    env.block();
                }
            });
            sim.spawn("stuck-b", |env| env.block());
            match sim.run() {
                Err(SimError::Deadlock(names)) => (names, sim.now().as_nanos()),
                other => panic!("expected deadlock, got {other:?}"),
            }
        };
        // The deadlock of the others is found only once the chain has run
        // out (its timers keep the queue non-empty), and does not name it.
        assert_eq!(
            run(false),
            (vec!["stuck-a".into(), "stuck-b".into()], 4_000)
        );
        assert_eq!(
            run(true),
            (
                vec!["stuck-a".into(), "computing".into(), "stuck-b".into()],
                4_000
            )
        );
    }

    // -- handlers -------------------------------------------------------------

    /// Fails if a stray wake runs the step (or ends the delay) instead of
    /// re-arming the timer at its due time, or if `Delay(ZERO)` schedules an
    /// event: the thread that drives the same step is the reference.
    #[test]
    fn stray_wake_mid_delay_rearms_a_handler_timer() {
        let run = |handler: bool| {
            let calls = Arc::new(AtomicU64::new(0));
            let mut sim = Simulation::new();
            let mut step = napper(&[4_000, 0, 4_000], &calls);
            let sleeper = if handler {
                sim.spawn_handler("sleeper", step)
            } else {
                sim.spawn("sleeper", move |env| env.drive(&mut step))
            };
            let c = calls.clone();
            sim.spawn("noisy", move |env| {
                for expect_calls in [1, 1, 3] {
                    env.delay(SimDuration::from_nanos(1_500));
                    // A stray wake re-arms; it never runs the step.
                    assert_eq!(c.load(Ordering::Relaxed), expect_calls);
                    assert!(env.wake(sleeper), "sleeper is blocked mid-delay");
                }
            });
            (sim.run().unwrap(), calls.load(Ordering::Relaxed))
        };
        let ((reference, ref_calls), (handled, calls)) = (run(false), run(true));
        assert_eq!(handled.end_time.as_nanos(), 8_000);
        assert_eq!(handled.end_time, reference.end_time);
        assert_eq!(handled.events, reference.events);
        assert_eq!(calls, ref_calls);
        // 2 starts + 3 noisy timers + 3 stray wakes + 2 sleeper timers.
        assert_eq!(handled.events, 10);
        // The handler's start and timers are steps, its strays re-arms:
        // only the noisy thread's start is ever handed a thread.
        assert_eq!(handled.inline_steps, 6);
        assert_eq!(handled.processes, 2);
        for s in [reference, handled] {
            assert_eq!(s.events, s.handoffs + s.self_grants + s.inline_steps);
        }
    }

    /// Fails if a panicking step is reported against the thread that
    /// happened to dispatch it, or is not reported at all.
    #[test]
    fn panicking_handler_step_is_reported_against_the_handler() {
        let mut sim = Simulation::new();
        // The bystander's timers make its thread the one that dispatches
        // the handler's third event.
        sim.spawn("bystander", |env| delay_each(&env, &[300; 10]));
        let mut n = 0;
        sim.spawn_handler("relay", move |_env| {
            n += 1;
            assert!(n < 3, "step {n} exploded");
            Step::Delay(SimDuration::from_nanos(1_000))
        });
        match sim.run() {
            Err(SimError::ProcessPanic { process, message }) => {
                assert_eq!(process, "relay");
                assert!(message.contains("step 3 exploded"), "{message}");
            }
            other => panic!("expected panic error, got {other:?}"),
        }
        assert_eq!(*sim.shared.threads.lock(), 0);
    }

    /// Fails if a handler parked in `Wait` is left out of the deadlock
    /// report (or reported once it is done).
    #[test]
    fn deadlock_report_names_a_waiting_handler() {
        let mut sim = Simulation::new();
        let (tx, rx) = crate::sync::channel::<u32>(sim.waker(), 1);
        sim.spawn("holds-the-sender", move |env| {
            let _tx = tx;
            env.block();
        });
        sim.spawn_handler("done", |_env| Step::Done);
        sim.spawn_handler("relay", move |env| match rx.poll_recv(env) {
            std::task::Poll::Pending => Step::Wait,
            std::task::Poll::Ready(_) => Step::Done,
        });
        match sim.run() {
            Err(SimError::Deadlock(names)) => {
                assert_eq!(names, ["holds-the-sender", "relay"]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    /// Fails if teardown runs a pending handler step, leaks its state, or
    /// drops it under the core lock (its channel endpoint's drop wakes a
    /// peer, which takes that lock: the drop would deadlock).
    #[test]
    fn drop_mid_run_frees_a_handler_state_without_running_it() {
        let calls = Arc::new(AtomicU64::new(0));
        let mut sim = Simulation::new();
        let (tx, rx) = crate::sync::channel::<u32>(sim.waker(), 1);
        sim.spawn("receiver", move |env| {
            rx.recv(&env);
            unreachable!("the simulation is dropped before anything is sent");
        });
        let mut step = napper(&[1_000; 8], &calls);
        sim.spawn_handler("relay", move |env| {
            let _hold = &tx;
            step(env)
        });
        spawn_panicking_peer(&mut sim);
        assert!(matches!(sim.run(), Err(SimError::ProcessPanic { .. })));
        // The relay's start and its 1 µs timer.
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(sim.now().as_nanos(), 1_500);
        drop(sim);
        assert_eq!(calls.load(Ordering::Relaxed), 2, "a step ran at teardown");
        assert_eq!(Arc::strong_count(&calls), 1, "the step was not freed");
    }

    /// One scripted operation of a [`Machine`].
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Sleep this many nanoseconds (zero included).
        Nap(u64),
        /// Put a token on the bounded channel a draining thread empties.
        Put,
        /// Take a token from the channel a feeding thread fills.
        Take,
        /// Hold the shared semaphore's one permit for this long.
        Hold(u64),
        /// Ship bytes between two hosts of a two-cluster topology.
        Ship(usize, usize, u64),
        /// Wake another machine, whatever it is doing.
        Poke(usize),
    }

    /// What a machine was doing when it last returned, for the noisy
    /// thread's tallies of where its wakes land.
    const SLEEPING: u8 = 1;
    const WAITING: u8 = 2;

    /// A step machine over every non-blocking primitive: its script, its
    /// place in it, and what it holds mid-operation.
    struct Machine {
        id: usize,
        ops: Vec<Op>,
        at: usize,
        holding: bool,
        ship: Option<crate::topology::Transfer>,
        put: crate::sync::Sender<u32>,
        take: crate::sync::Receiver<u32>,
        sem: crate::sync::Semaphore,
        topo: crate::topology::Topology,
        hosts: Vec<crate::topology::HostId>,
        pids: Arc<parking_lot::Mutex<Vec<ProcessId>>>,
        doing: Arc<Vec<std::sync::atomic::AtomicU8>>,
        trace: Arc<parking_lot::Mutex<Vec<(u64, usize, Step)>>>,
    }

    impl Machine {
        fn step(&mut self, env: &Env) -> Step {
            let step = self.advance(env);
            let doing = match step {
                Step::Delay(d) if !d.is_zero() => SLEEPING,
                Step::Wait => WAITING,
                _ => 0,
            };
            self.doing[self.id].store(doing, Ordering::Relaxed);
            self.trace
                .lock()
                .push((env.now().as_nanos(), self.id, step));
            step
        }

        fn advance(&mut self, env: &Env) -> Step {
            use std::task::Poll;
            loop {
                let Some(&op) = self.ops.get(self.at) else {
                    return Step::Done;
                };
                match op {
                    Op::Nap(ns) => {
                        self.at += 1;
                        return Step::Delay(SimDuration::from_nanos(ns));
                    }
                    Op::Put => {
                        let mut token = Some(self.id as u32);
                        if self.put.poll_send(env, &mut token).is_pending() {
                            return Step::Wait;
                        }
                    }
                    Op::Take => {
                        if self.take.poll_recv(env).is_pending() {
                            return Step::Wait;
                        }
                    }
                    Op::Hold(ns) if !self.holding => {
                        if self.sem.poll_acquire(env) == Poll::Pending {
                            return Step::Wait;
                        }
                        self.holding = true;
                        return Step::Delay(SimDuration::from_nanos(ns));
                    }
                    Op::Hold(_) => {
                        self.sem.release(env);
                        self.holding = false;
                    }
                    Op::Ship(from, to, bytes) => {
                        let (from, to) = (self.hosts[from], self.hosts[to]);
                        let t = self
                            .ship
                            .get_or_insert_with(|| crate::topology::Transfer::new(from, to, bytes));
                        match self.topo.poll_transfer(env, t) {
                            Step::Done => self.ship = None,
                            pending => return pending,
                        }
                    }
                    Op::Poke(other) => {
                        let pid = self.pids.lock()[other];
                        env.wake(pid);
                    }
                }
                self.at += 1;
            }
        }
    }

    /// Everything observable about one scenario run.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        end_time: u64,
        events: u64,
        processes: u32,
        /// Every step's `(now, machine, returned step)`, in order.
        trace: Vec<(u64, usize, Step)>,
        /// `(now, token)` per item the draining thread took.
        drained: Vec<(u64, u32)>,
        /// `(now, victim, woken)` per wake of the noisy thread.
        noise: Vec<(u64, usize, bool)>,
    }

    /// Where the noisy thread's wakes landed: on a machine sleeping
    /// through a delay, on one waiting, and zero-length naps.
    #[derive(Default)]
    struct Reach {
        mid_delay: u64,
        mid_wait: u64,
        zero_naps: u64,
    }

    /// How a machine runs its step.
    #[derive(Clone, Copy, PartialEq)]
    enum Form {
        /// A thread process that drives it ([`Env::drive`]).
        Drive,
        /// A handler.
        Handler,
        /// A thread process that lends it to the event loop.
        Lend,
    }

    /// 1-10 machines over every non-blocking primitive — a bounded
    /// channel drained by a thread, one fed by a thread, a one-permit
    /// semaphore, transfers over a two-cluster topology, and wakes at each
    /// other — plus a noisy thread waking machines at random. Machine `id`
    /// runs as `form(id)`.
    fn run_machines(
        seed: u64,
        form: impl Fn(usize) -> Form,
        reach: &mut Reach,
    ) -> (Outcome, RunStats) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let (topo, rogue, blue) = crate::presets::rogue_blue_mix(2);
        let hosts: Vec<_> = rogue.into_iter().chain(blue).collect();
        let n = rng.gen_range(1usize..11);
        let scripts: Vec<Vec<Op>> = (0..n)
            .map(|_| {
                (0..rng.gen_range(1usize..9))
                    .map(|_| match rng.gen_range(0u32..7) {
                        0 => Op::Nap(if rng.gen_range(0u32..3) == 0 {
                            0
                        } else {
                            rng.gen_range(1u64..2_000_000)
                        }),
                        1 => Op::Put,
                        2 => Op::Take,
                        3 => Op::Hold(rng.gen_range(0u64..1_000_000)),
                        4 => Op::Poke(rng.gen_range(0usize..n)),
                        _ => Op::Ship(
                            rng.gen_range(0usize..4),
                            rng.gen_range(0usize..4),
                            rng.gen_range(1u64..200_000),
                        ),
                    })
                    .collect()
            })
            .collect();
        let takes = scripts
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Take))
            .count();
        reach.zero_naps += scripts
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Nap(0)))
            .count() as u64;
        let feed_gap = rng.gen_range(0u64..500_000);
        let drain_gap = rng.gen_range(0u64..500_000);
        let noise: Vec<(u64, usize)> = (0..rng.gen_range(0usize..16))
            .map(|_| (rng.gen_range(0u64..800_000), rng.gen_range(0usize..n)))
            .collect();

        let mut sim = Simulation::new();
        let (put_tx, put_rx) = crate::sync::channel::<u32>(sim.waker(), rng.gen_range(1usize..3));
        let (take_tx, take_rx) = crate::sync::channel::<u32>(sim.waker(), rng.gen_range(1usize..3));
        let sem = crate::sync::Semaphore::new(1);
        let pids = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let doing: Arc<Vec<std::sync::atomic::AtomicU8>> =
            Arc::new((0..n).map(|_| Default::default()).collect());
        let trace = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for (id, ops) in scripts.into_iter().enumerate() {
            let mut machine = Machine {
                id,
                ops,
                at: 0,
                holding: false,
                ship: None,
                put: put_tx.clone(),
                take: take_rx.clone(),
                sem: sem.clone(),
                topo: topo.clone(),
                hosts: hosts.clone(),
                pids: pids.clone(),
                doing: doing.clone(),
                trace: trace.clone(),
            };
            let name = format!("m{id}");
            let pid = match form(id) {
                Form::Drive => sim.spawn(name, move |env| env.drive(|env| machine.step(env))),
                Form::Handler => sim.spawn_handler(name, move |env| machine.step(env)),
                Form::Lend => sim.spawn(name, move |env| env.lend(move |env| machine.step(env))),
            };
            pids.lock().push(pid);
        }
        drop((put_tx, take_rx));
        let drained = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let d = drained.clone();
        sim.spawn("drain", move |env| {
            while let Some(token) = put_rx.recv(&env) {
                d.lock().push((env.now().as_nanos(), token));
                env.delay(SimDuration::from_nanos(drain_gap));
            }
        });
        sim.spawn("feed", move |env| {
            for token in 0..takes as u32 {
                take_tx.send(&env, token).unwrap();
                env.delay(SimDuration::from_nanos(feed_gap));
            }
        });
        let noisy = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (log, states) = (noisy.clone(), doing.clone());
        let stray = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let st = stray.clone();
        sim.spawn("noisy", move |env| {
            for (gap, victim) in noise {
                env.delay(SimDuration::from_nanos(gap));
                let was = states[victim].load(Ordering::Relaxed);
                let woken = env.wake(pids.lock()[victim]);
                if woken && was != 0 {
                    st[(was - 1) as usize].fetch_add(1, Ordering::Relaxed);
                }
                log.lock().push((env.now().as_nanos(), victim, woken));
            }
        });
        let stats = sim.run().expect("scenario runs to completion");
        if (0..n).any(|id| form(id) != Form::Drive) {
            reach.mid_delay += stray[0].load(Ordering::Relaxed);
            reach.mid_wait += stray[1].load(Ordering::Relaxed);
        }
        let outcome = Outcome {
            end_time: stats.end_time.as_nanos(),
            events: stats.events,
            processes: stats.processes,
            trace: std::mem::take(&mut *trace.lock()),
            drained: std::mem::take(&mut *drained.lock()),
            noise: std::mem::take(&mut *noisy.lock()),
        };
        (outcome, stats)
    }

    /// The step oracle: a scenario whose machines run as handlers or lend
    /// their step (all of them, or a seeded mix of the three forms)
    /// dispatches exactly the events — same `(time, seq)` order, clock and
    /// count — as the same scenario with every machine a thread driving the
    /// same step. Fails if a step runs at a different point of the dispatch
    /// order, if a `Delay(ZERO)` schedules an event, if a stray wake
    /// mid-delay runs the step, if a lender resumes before its step is done,
    /// or if a finished step's state (its channel endpoints) is dropped
    /// late.
    #[test]
    fn handlers_dispatch_the_events_of_threads_driving_the_same_step() {
        use Form::*;
        let mut reach = Reach::default();
        let (mut inline, mut saved) = (0, 0);
        for seed in 0..96u64 {
            let (reference, ref_stats) = run_machines(seed, |_| Drive, &mut reach);
            let mix = crate::fault::splitmix64(seed);
            let arms: [&dyn Fn(usize) -> Form; 4] = [
                &|_| Handler,
                &|id| {
                    if (mix | 1) >> id & 1 == 1 {
                        Handler
                    } else {
                        Drive
                    }
                },
                &|_| Lend,
                &|id| [Drive, Handler, Lend, Lend][(mix >> (2 * id) & 3) as usize],
            ];
            for (arm, form) in arms.into_iter().enumerate() {
                let (stepped, stats) = run_machines(seed, form, &mut reach);
                assert_eq!(stepped, reference, "seed {seed}, arm {arm}");
                assert_eq!(
                    stats.events,
                    stats.handoffs + stats.self_grants + stats.inline_steps
                );
                assert!(stats.handoffs <= ref_stats.handoffs, "seed {seed}");
                inline += stats.inline_steps;
                saved += ref_stats.handoffs - stats.handoffs;
            }
        }
        // The generator reaches the cases the handlers must get right.
        assert!(
            reach.mid_delay >= 100,
            "strays mid-delay: {}",
            reach.mid_delay
        );
        assert!(reach.mid_wait >= 100, "strays mid-wait: {}", reach.mid_wait);
        assert!(
            reach.zero_naps >= 100,
            "zero-length naps: {}",
            reach.zero_naps
        );
        assert!(inline >= 2_000 && saved >= 2_000, "{inline} / {saved}");
    }

    #[test]
    fn packed_keys_order_by_time_then_seq() {
        let a = pack_key(SimTime(5), 1, 0xFF_FFFF);
        let b = pack_key(SimTime(5), 2, 0);
        let c = pack_key(SimTime(6), 0, 7);
        assert!(a < b && b < c);
        assert_eq!(key_time(a), SimTime(5));
        assert_eq!(key_slot(a), 0xFF_FFFF);
        assert_eq!(key_slot(b), 0);
    }
}
