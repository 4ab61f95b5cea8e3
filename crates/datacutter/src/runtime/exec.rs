//! The executor substrate: [`ExecutorChoice`], a two-variant enum that
//! separates *what* the runtime spawns and wires (filter copies, reapers,
//! and under virtual time the outbox-sender and ack-courier handlers —
//! see [`super::spawn`]) from *where* it runs. Each of its crate-private
//! methods (`channel`, `barrier`, `spawn`, `run`, …) matches over the two
//! variants: the hetsim virtual-time engine ([`SimExecutor`],
//! deterministic) and [`NativeExecutor`] (real OS threads under
//! wall-clock time).
//!
//! Channel endpoints and barriers are concrete enums ([`ChanTx`],
//! [`ChanRx`], [`ExecBarrier`]) too, so that [`crate::context::FilterCtx`]
//! stays a single concrete type and the [`crate::filter::Filter`] trait is
//! untouched by the substrate choice.

use std::sync::Arc;
use std::task::Poll;

use hetsim::{
    DeadlineRecv, Env, SendError, SimDuration, SimError, SimTime, Simulation, Step, Topology,
    Transfer,
};

use super::native::{
    native_barrier, native_channel, Abandoner, CancelScope, NativeBarrier, NativeEnv,
    NativeExecutor, NativeRx, NativeTx,
};

/// The per-process execution environment handed to every runtime process
/// (filter copies, reapers, the supervisor, sender and courier handlers). A
/// concrete enum over the two substrates so the filter-facing context
/// stays non-generic.
#[derive(Clone)]
pub enum ExecEnv {
    /// A hetsim virtual-time process environment.
    Sim(Env),
    /// A wall-clock native-thread environment.
    Native(NativeEnv),
}

impl ExecEnv {
    /// Current time (virtual or wall-clock, depending on the substrate).
    pub fn now(&self) -> SimTime {
        match self {
            ExecEnv::Sim(e) => e.now(),
            ExecEnv::Native(e) => e.now(),
        }
    }

    /// Sleep for `d` (virtual delay or a real `thread::sleep`).
    pub fn delay(&self, d: SimDuration) {
        match self {
            ExecEnv::Sim(e) => e.delay(d),
            ExecEnv::Native(e) => e.sleep(d),
        }
    }

    /// The underlying simulation environment, when running on the
    /// virtual-time substrate.
    pub fn sim(&self) -> Option<&Env> {
        match self {
            ExecEnv::Sim(e) => Some(e),
            ExecEnv::Native(_) => None,
        }
    }

    /// True under a virtual-time executor (deterministic, cost-charging).
    pub fn is_virtual(&self) -> bool {
        matches!(self, ExecEnv::Sim(_))
    }

    /// The simulation environment of a process that is known to run on the
    /// virtual-time substrate (sim channel endpoints are only ever driven
    /// by sim processes — the wiring layer guarantees it).
    pub(crate) fn expect_sim(&self) -> &Env {
        match self.sim() {
            Some(e) => e,
            None => unreachable!("this runtime path requires the virtual-time SimExecutor"),
        }
    }
}

/// Charge a network transfer to the topology when running under virtual
/// time; a no-op on the native substrate (real threads pay real costs).
pub(crate) fn charge_transfer(
    env: &ExecEnv,
    topo: &Topology,
    from: hetsim::HostId,
    to: hetsim::HostId,
    bytes: u64,
) {
    if let ExecEnv::Sim(e) = env {
        topo.transfer(e, from, to, bytes);
    }
}

/// [`charge_transfer`] as far as it goes without blocking, for a handler:
/// the charge in `wire` starts on the first call and is cleared when it
/// is done. Done at once on the native substrate.
pub(crate) fn poll_charge(
    env: &ExecEnv,
    wire: &mut Option<Transfer>,
    topo: &Topology,
    from: hetsim::HostId,
    to: hetsim::HostId,
    bytes: u64,
) -> Step {
    let ExecEnv::Sim(e) = env else {
        return Step::Done;
    };
    let t = wire.get_or_insert_with(|| Transfer::new(from, to, bytes));
    let step = topo.poll_transfer(e, t);
    if step == Step::Done {
        *wire = None;
    }
    step
}

/// Sending half of a bounded MPMC channel (substrate-dispatched).
pub enum ChanTx<T: Send> {
    /// Endpoint of a hetsim cooperative channel.
    Sim(hetsim::Sender<T>),
    /// Endpoint of a native mutex/condvar channel.
    Native(NativeTx<T>),
}

/// Receiving half of a bounded MPMC channel (substrate-dispatched).
pub enum ChanRx<T: Send> {
    /// Endpoint of a hetsim cooperative channel.
    Sim(hetsim::Receiver<T>),
    /// Endpoint of a native mutex/condvar channel.
    Native(NativeRx<T>),
}

impl<T: Send> ChanTx<T> {
    /// Send `value`, blocking while the channel is full. `Err` returns the
    /// value when every receiver is gone.
    pub fn send(&self, env: &ExecEnv, value: T) -> Result<(), SendError<T>> {
        match self {
            ChanTx::Sim(tx) => tx.send(env.expect_sim(), value),
            ChanTx::Native(tx) => tx.send(value),
        }
    }

    /// Send past the capacity bound: never blocks. For senders that must
    /// not wait on the queue's consumers — a copy injecting `UowDone`
    /// tokens into its own set's queue (only that set drains it), and a
    /// reaper redelivering to a survivor that may already have left the
    /// unit of work (the survivors wait on that reaper).
    pub(crate) fn push(&self, env: &ExecEnv, value: T) -> Result<(), SendError<T>> {
        match self {
            ChanTx::Sim(tx) => tx.push(env.expect_sim(), value),
            ChanTx::Native(tx) => tx.push(value),
        }
    }

    /// Send the value in `slot` without parking a sim process: `Pending`
    /// (value kept, process registered for a wake) while the channel is
    /// full. A native send blocks the calling thread instead and is always
    /// ready.
    pub(crate) fn poll_send(
        &self,
        env: &ExecEnv,
        slot: &mut Option<T>,
    ) -> Poll<Result<(), SendError<T>>> {
        match self {
            ChanTx::Sim(tx) => tx.poll_send(env.expect_sim(), slot),
            ChanTx::Native(tx) => match slot.take() {
                Some(value) => Poll::Ready(tx.send(value)),
                None => Poll::Ready(Ok(())),
            },
        }
    }
}

impl<T: Send> Clone for ChanTx<T> {
    fn clone(&self) -> Self {
        match self {
            ChanTx::Sim(tx) => ChanTx::Sim(tx.clone()),
            ChanTx::Native(tx) => ChanTx::Native(tx.clone()),
        }
    }
}

impl<T: Send> ChanRx<T> {
    /// Receive the next value; `None` once the channel is empty and every
    /// sender is gone.
    pub fn recv(&self, env: &ExecEnv) -> Option<T> {
        match self {
            ChanRx::Sim(rx) => rx.recv(env.expect_sim()),
            ChanRx::Native(rx) => rx.recv(),
        }
    }

    /// Receive without parking a sim process: `Pending` (process
    /// registered for a wake) while the channel is empty and open. A
    /// native receive blocks the calling thread instead.
    pub(crate) fn poll_recv(&self, env: &ExecEnv) -> Poll<Option<T>> {
        match self {
            ChanRx::Sim(rx) => rx.poll_recv(env.expect_sim()),
            ChanRx::Native(rx) => Poll::Ready(rx.recv()),
        }
    }

    /// Receive with a deadline on the executor's time axis.
    pub fn recv_deadline(&self, env: &ExecEnv, deadline: SimTime) -> DeadlineRecv<T> {
        match (self, env) {
            (ChanRx::Sim(rx), _) => rx.recv_deadline(env.expect_sim(), deadline),
            (ChanRx::Native(rx), ExecEnv::Native(ne)) => rx.recv_deadline(ne, deadline),
            (ChanRx::Native(_), ExecEnv::Sim(_)) => {
                unreachable!("native channel endpoint driven from a sim process")
            }
        }
    }

    /// Number of queued values.
    pub fn is_empty(&self) -> bool {
        match self {
            ChanRx::Sim(rx) => rx.is_empty(),
            ChanRx::Native(rx) => rx.is_empty(),
        }
    }

    /// Closed *and* empty in one probe — nothing queued and nothing can
    /// arrive. Polling loops should prefer this over separate
    /// `is_closed() && is_empty()` calls, which take the channel lock
    /// twice per tick.
    pub fn is_drained(&self) -> bool {
        match self {
            ChanRx::Sim(rx) => rx.is_drained(),
            ChanRx::Native(rx) => rx.is_drained(),
        }
    }
}

impl<T: Send> Clone for ChanRx<T> {
    fn clone(&self) -> Self {
        match self {
            ChanRx::Sim(rx) => ChanRx::Sim(rx.clone()),
            ChanRx::Native(rx) => ChanRx::Native(rx.clone()),
        }
    }
}

/// A cyclic barrier over the active substrate, with the hetsim barrier's
/// `leave` extension (a crashed copy withdraws so survivors are not
/// stranded).
#[derive(Clone)]
pub enum ExecBarrier {
    /// Barrier over cooperative sim processes.
    Sim(hetsim::Barrier),
    /// Barrier over native OS threads.
    Native(NativeBarrier),
}

impl ExecBarrier {
    /// Wait for all participants; the last arriver gets `true`.
    pub fn wait(&self, env: &ExecEnv) -> bool {
        match self {
            ExecBarrier::Sim(b) => b.wait(env.expect_sim()),
            ExecBarrier::Native(b) => b.wait(),
        }
    }

    /// Withdraw from the barrier permanently, releasing the current round
    /// if this participant was the last one missing.
    pub fn leave(&self, env: &ExecEnv) {
        match self {
            ExecBarrier::Sim(b) => b.leave(env.expect_sim()),
            ExecBarrier::Native(b) => b.leave(),
        }
    }
}

/// Summary statistics of one executor run (mirrors [`hetsim::RunStats`]).
#[derive(Debug, Clone, Copy)]
pub struct ExecStats {
    /// Time on the executor's axis when the last process finished.
    pub end_time: SimTime,
    /// Events processed (0 on substrates without an event loop).
    pub events: u64,
}

/// A boxed process body handed to [`ExecutorChoice::spawn`].
pub type SpawnBody = Box<dyn FnOnce(ExecEnv) + Send + 'static>;

/// A boxed handler step handed to [`ExecutorChoice::spawn_handler`].
pub type HandlerBody = Box<dyn FnMut(&ExecEnv) -> Step + Send + 'static>;

/// The virtual-time executor: wraps a [`hetsim::Simulation`], preserving
/// the deterministic cooperative scheduling (and therefore bit-for-bit the
/// behaviour of the pre-refactor runtime).
pub struct SimExecutor {
    sim: Simulation,
}

impl SimExecutor {
    /// A fresh simulation-backed executor.
    pub fn new() -> Self {
        SimExecutor {
            sim: Simulation::new(),
        }
    }

    /// The underlying simulation, e.g. to spawn auxiliary processes (load
    /// generators) before the run — the builder's `setup` hook uses this.
    pub fn simulation_mut(&mut self) -> &mut Simulation {
        &mut self.sim
    }
}

impl Default for SimExecutor {
    fn default() -> Self {
        Self::new()
    }
}

/// The executor a [`Run`](super::Run) uses, chosen at configuration
/// time. Every variant converts via `From`, so `Run::executor` accepts any
/// executor value directly.
pub enum ExecutorChoice {
    /// Deterministic virtual-time execution on the hetsim engine.
    Sim(SimExecutor),
    /// Wall-clock execution on real OS threads, one per copy.
    Native(NativeExecutor),
}

impl From<SimExecutor> for ExecutorChoice {
    fn from(e: SimExecutor) -> Self {
        ExecutorChoice::Sim(e)
    }
}

impl From<NativeExecutor> for ExecutorChoice {
    fn from(e: NativeExecutor) -> Self {
        ExecutorChoice::Native(e)
    }
}

#[cfg(test)]
thread_local! {
    /// Every registration made on this thread, in order, as `(name,
    /// is_handler)`: the spawn-order pins in `super::spawn::tests` read it.
    pub(crate) static SPAWN_LOG: std::cell::RefCell<Vec<(String, bool)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl ExecutorChoice {
    /// Whether the runtime relays through helper processes: an outbox
    /// *sender* per (filter copy, output stream) and an ack *courier* per
    /// consumer copy set, registered with
    /// [`spawn_handler`](Self::spawn_handler). The simulator charges
    /// transfers in virtual time and needs them — they let a copy keep
    /// computing while its buffers and acknowledgments are on the modelled
    /// wire, and their registration order is part of the event order. They
    /// are threadless handlers, run on whichever thread dispatches their
    /// events. Without a modelled wire they would only add hand-offs, so
    /// natively a copy delivers its writes and acknowledges its reads in
    /// its own thread instead.
    pub(crate) fn relays(&self) -> bool {
        matches!(self, ExecutorChoice::Sim(_))
    }

    /// A bounded MPMC channel with `capacity` slots (at least 1).
    pub(crate) fn channel<T: Send + 'static>(&self, capacity: usize) -> (ChanTx<T>, ChanRx<T>) {
        match self {
            ExecutorChoice::Sim(e) => {
                let (tx, rx) = hetsim::channel(e.sim.waker(), capacity);
                (ChanTx::Sim(tx), ChanRx::Sim(rx))
            }
            ExecutorChoice::Native(e) => {
                let (tx, rx) = native_channel(capacity, &e.cancel);
                (ChanTx::Native(tx), ChanRx::Native(rx))
            }
        }
    }

    /// A cyclic barrier over `participants` processes.
    pub(crate) fn barrier(&self, participants: usize) -> ExecBarrier {
        match self {
            ExecutorChoice::Sim(_) => ExecBarrier::Sim(hetsim::Barrier::new(participants)),
            ExecutorChoice::Native(e) => {
                ExecBarrier::Native(native_barrier(participants, &e.cancel))
            }
        }
    }

    /// The run's cooperative-cancellation scope: the native executor uses
    /// it to tear a failed run down without deadlocking; the virtual-time
    /// engine cancels processes itself.
    pub(crate) fn cancel_scope(&self) -> Option<Arc<CancelScope>> {
        match self {
            ExecutorChoice::Sim(_) => None,
            ExecutorChoice::Native(e) => Some(e.cancel.clone()),
        }
    }

    /// A handle that declares a wedged process abandoned, so the run does
    /// not wait for it at the end. Native only: cooperative processes have
    /// no preemption problem.
    pub(crate) fn abandoner(&self) -> Option<Abandoner> {
        match self {
            ExecutorChoice::Sim(_) => None,
            ExecutorChoice::Native(e) => Some(e.abandoner()),
        }
    }

    /// Register a process. Processes start when [`run`](Self::run) is
    /// called; registration order is significant on the simulator (it
    /// fixes process identity and event order).
    pub(crate) fn spawn(&mut self, name: String, body: SpawnBody) {
        #[cfg(test)]
        SPAWN_LOG.with_borrow_mut(|log| log.push((name.clone(), false)));
        match self {
            ExecutorChoice::Sim(e) => {
                e.sim.spawn(name, move |env: Env| body(ExecEnv::Sim(env)));
            }
            ExecutorChoice::Native(e) => e.pending.push((name, body)),
        }
    }

    /// Register a threadless handler process: `step` runs once per event
    /// granted to it and returns what it waits for next (see
    /// [`hetsim::Simulation::spawn_handler`]). Registration order counts
    /// as for [`spawn`](Self::spawn). Only asked when the executor
    /// [`relays`](Self::relays).
    pub(crate) fn spawn_handler(&mut self, name: String, mut step: HandlerBody) {
        #[cfg(test)]
        SPAWN_LOG.with_borrow_mut(|log| log.push((name.clone(), true)));
        match self {
            ExecutorChoice::Sim(e) => {
                e.sim
                    .spawn_handler(name, move |env: &Env| step(&ExecEnv::Sim(env.clone())));
            }
            ExecutorChoice::Native(_) => {
                unreachable!("the native executor does not relay: it has no handlers")
            }
        }
    }

    /// Run every registered process to completion.
    pub(crate) fn run(&mut self) -> Result<ExecStats, SimError> {
        match self {
            ExecutorChoice::Sim(e) => e.sim.run().map(|s| ExecStats {
                end_time: s.end_time,
                events: s.events,
            }),
            ExecutorChoice::Native(e) => e.run(),
        }
    }
}
