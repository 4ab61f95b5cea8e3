//! The executor substrate: a small `Clock` + `Transport` + `Executor`
//! trait family that separates *what* the runtime spawns and wires (filter
//! copies, reapers, and under virtual time the outbox-sender and
//! ack-courier handlers — see [`super::spawn`])
//! from *where* it runs. The hetsim virtual-time engine is one
//! implementation ([`SimExecutor`], bit-for-bit identical to the original
//! monolithic runtime); [`super::native::NativeExecutor`] runs the same
//! graph on real OS threads under wall-clock time.
//!
//! Channel endpoints and barriers are concrete enums ([`ChanTx`],
//! [`ChanRx`], [`ExecBarrier`]) rather than associated types so that
//! [`crate::context::FilterCtx`] stays a single concrete type and the
//! [`crate::filter::Filter`] trait is untouched by the substrate choice.

use std::sync::Arc;
use std::task::Poll;

use hetsim::{
    DeadlineRecv, Env, SendError, SimDuration, SimError, SimTime, Simulation, Step, Topology,
    Transfer,
};

use super::native::{CancelScope, NativeBarrier, NativeEnv, NativeRx, NativeTx};

/// A monotonic time source. Virtual time under [`SimExecutor`]; nanoseconds
/// of wall-clock time since run start under the native executor.
pub trait Clock {
    /// Current time on this executor's axis.
    fn now(&self) -> SimTime;
    /// Sleep for `d` on this executor's axis.
    fn sleep(&self, d: SimDuration);
}

impl Clock for Env {
    fn now(&self) -> SimTime {
        Env::now(self)
    }
    fn sleep(&self, d: SimDuration) {
        self.delay(d);
    }
}

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

impl Clock for ExecEnv {
    fn now(&self) -> SimTime {
        ExecEnv::now(self)
    }
    fn sleep(&self, d: SimDuration) {
        self.delay(d);
    }
}

impl From<Env> for ExecEnv {
    fn from(e: Env) -> Self {
        ExecEnv::Sim(e)
    }
}

impl From<NativeEnv> for ExecEnv {
    fn from(e: NativeEnv) -> Self {
        ExecEnv::Native(e)
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

    /// True when every sender has hung up (queued values may remain).
    pub fn is_closed(&self) -> bool {
        match self {
            ChanRx::Sim(rx) => rx.is_closed(),
            ChanRx::Native(rx) => rx.is_closed(),
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

/// Factory for the communication primitives of one run: channels wiring
/// streams (and, under virtual time, outboxes and couriers), and the
/// inter-UOW barrier.
pub trait Transport: Clone + Send + 'static {
    /// A bounded MPMC channel with `capacity` slots (at least 1).
    fn channel<T: Send + 'static>(&self, capacity: usize) -> (ChanTx<T>, ChanRx<T>);

    /// A cyclic barrier over `participants` processes.
    fn barrier(&self, participants: usize) -> ExecBarrier;

    /// The transport's cooperative-cancellation scope, when it has one.
    /// Wall-clock transports use it to tear a failed run down without
    /// deadlocking; the virtual-time engine cancels processes itself.
    fn cancel_scope(&self) -> Option<Arc<CancelScope>> {
        None
    }

    /// Declare the process spawned under `name` abandoned: it is presumed
    /// wedged and will never finish, and the executor should not wait for
    /// it at the end of the run. The default is a no-op — cooperative
    /// substrates have no preemption problem; the native executor detaches
    /// the thread.
    fn abandon(&self, _name: &str) {}
}

/// Summary statistics of one executor run (mirrors [`hetsim::RunStats`]).
#[derive(Debug, Clone, Copy)]
pub struct ExecStats {
    /// Time on the executor's axis when the last process finished.
    pub end_time: SimTime,
    /// Events processed (0 on substrates without an event loop).
    pub events: u64,
    /// Number of processes run.
    pub processes: u32,
}

/// A boxed process body handed to [`Executor::spawn`].
pub type SpawnBody = Box<dyn FnOnce(ExecEnv) + Send + 'static>;

/// A boxed handler step handed to [`Executor::spawn_handler`].
pub type HandlerBody = Box<dyn FnMut(&ExecEnv) -> Step + Send + 'static>;

/// An execution substrate: spawns the runtime's processes and runs them to
/// completion. Implementations: [`SimExecutor`] (hetsim virtual time,
/// deterministic) and [`super::native::NativeExecutor`] (one OS thread
/// per process, wall-clock).
pub trait Executor {
    /// The transport whose channels/barriers this executor's processes use.
    type Transport: Transport;

    /// Whether the runtime relays through helper processes: an outbox
    /// *sender* per (filter copy, output stream) and an ack *courier* per
    /// consumer copy set, registered with [`Executor::spawn_handler`]. A
    /// substrate that charges transfers in virtual time needs them — they
    /// let a copy keep computing while its buffers and acknowledgments are
    /// on the modelled wire, and their registration order is part of the
    /// event order. On the simulator they are threadless handlers, run on
    /// whichever thread dispatches their events. Without a modelled wire
    /// they would only add hand-offs, so a copy delivers its writes and
    /// acknowledges its reads in its own thread instead.
    const RELAYS: bool;

    /// The transport instance for wiring this run.
    fn transport(&self) -> Self::Transport;

    /// Register a process. Processes start when [`Executor::run`] is
    /// called; registration order is significant on deterministic
    /// substrates (it fixes process identity and event order).
    fn spawn(&mut self, name: String, body: SpawnBody);

    /// Register a threadless handler process: `step` runs once per event
    /// granted to it and returns what it waits for next (see
    /// [`hetsim::Simulation::spawn_handler`]). Registration order counts
    /// as for [`Executor::spawn`]. Only executors that relay are asked.
    fn spawn_handler(&mut self, name: String, step: HandlerBody);

    /// Run every spawned process to completion.
    fn run(&mut self) -> Result<ExecStats, SimError>;
}

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

/// Transport backed by the simulation's cooperative channels and barriers.
#[derive(Clone)]
pub struct SimTransport {
    waker: hetsim::Waker,
}

impl Transport for SimTransport {
    fn channel<T: Send + 'static>(&self, capacity: usize) -> (ChanTx<T>, ChanRx<T>) {
        let (tx, rx) = hetsim::channel(self.waker.clone(), capacity);
        (ChanTx::Sim(tx), ChanRx::Sim(rx))
    }

    fn barrier(&self, participants: usize) -> ExecBarrier {
        ExecBarrier::Sim(hetsim::Barrier::new(participants))
    }
}

impl Executor for SimExecutor {
    type Transport = SimTransport;
    const RELAYS: bool = true;

    fn transport(&self) -> SimTransport {
        SimTransport {
            waker: self.sim.waker(),
        }
    }

    fn spawn(&mut self, name: String, body: SpawnBody) {
        self.sim
            .spawn(name, move |env: Env| body(ExecEnv::Sim(env)));
    }

    fn spawn_handler(&mut self, name: String, mut step: HandlerBody) {
        self.sim
            .spawn_handler(name, move |env: &Env| step(&ExecEnv::Sim(env.clone())));
    }

    fn run(&mut self) -> Result<ExecStats, SimError> {
        self.sim.run().map(|s| ExecStats {
            end_time: s.end_time,
            events: s.events,
            processes: s.processes,
        })
    }
}
