//! The wall-clock executor: every runtime process (filter copy, reaper)
//! becomes a real OS thread, communicating over bounded
//! mutex/condvar channels with the same blocking semantics as the
//! simulation's cooperative channels. A filter copy is the only thread the
//! runtime spawns for it: with no modelled wire to overlap, it delivers its
//! writes and acknowledges its reads itself (it does not
//! [`relay`](super::ExecutorChoice::relays)). Nothing here charges
//! virtual costs — computation, transfers and disk reads take however
//! long the hardware takes — so runs are *fast* but not deterministic;
//! output equality with [`super::SimExecutor`] is guaranteed only for
//! order-insensitive pipelines (which the isosurface application is by
//! construction — see DESIGN.md §9).
//!
//! Teardown is the part virtual time gave us for free: the sim engine
//! cancels every cooperative process when one panics, while native threads
//! blocked in `recv`/`send`/barrier/DD-window waits would hang forever. A
//! per-run [`CancelScope`] solves this: the first thread to panic flips the
//! scope, every registered primitive wakes its waiters, and blocked
//! operations fall through (sends discard, receives report closed, barrier
//! waits return) so every thread can unwind and join.
//!
//! Blocking is a `parking_lot::Condvar` at every edge — the channel's
//! not-full/not-empty sides and the barrier (and `policy.rs`'s
//! demand-driven credit window) — and a delay is an OS sleep. This is the only wall-clock substrate: a
//! pooled executor that multiplexed the same copies over an admission
//! scheduler was removed because it bought nothing measurable over
//! thread-per-copy up to 4 096 copies (DESIGN.md §14).

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use hetsim::{DeadlineRecv, SendError, SimDuration, SimError, SimTime};
use parking_lot::{Condvar, Mutex};

use super::exec::{ExecEnv, ExecStats, SpawnBody};

/// Take the value a send loop is still holding. The loops below place the
/// value in an `Option` so it can be returned on channel closure; inside
/// the loop body the option is always occupied.
fn held<T>(slot: &mut Option<T>) -> T {
    match slot.take() {
        Some(v) => v,
        None => unreachable!("send loop still holds its value"),
    }
}

/// Wall-clock environment of one native thread: time is nanoseconds since
/// the run started, on the same `SimTime` axis the reports use.
#[derive(Clone, Copy)]
pub struct NativeEnv {
    start: Instant,
}

impl NativeEnv {
    /// Nanoseconds since the run started, as a [`SimTime`].
    pub fn now(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    /// Really sleep for `d`.
    pub fn sleep(&self, d: SimDuration) {
        std::thread::sleep(Duration::from_nanos(d.as_nanos()));
    }
}

/// A primitive that can wake every thread blocked on it, so a cancelled
/// run tears down instead of hanging.
pub(crate) trait CancelWake: Send + Sync {
    /// Wake all waiters; they re-check the scope and fall through.
    fn wake_all(&self);
}

/// Cooperative cancellation scope of one native run. Created with the
/// executor; flipped by it when a thread panics; consulted by every
/// blocking primitive built for the run.
pub struct CancelScope {
    cancelled: AtomicBool,
    wakees: Mutex<Vec<Weak<dyn CancelWake>>>,
}

impl CancelScope {
    /// A fresh, uncancelled scope with no primitives registered.
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(CancelScope {
            cancelled: AtomicBool::new(false),
            wakees: Mutex::new(Vec::new()),
        })
    }

    /// True once the run has been cancelled (a thread panicked).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Flip the scope and wake every registered primitive's waiters.
    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        for w in self.wakees.lock().iter() {
            if let Some(p) = w.upgrade() {
                p.wake_all();
            }
        }
    }

    /// Register a primitive to be woken on cancellation.
    pub(crate) fn register(&self, wakee: Weak<dyn CancelWake>) {
        self.wakees.lock().push(wakee);
    }
}

// ---- bounded MPMC channel ------------------------------------------------

struct NChanState<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Threads parked on `not_full`. Receives skip the notify syscall
    /// entirely when no sender is parked (the common case: queues rarely
    /// fill).
    send_waiting: usize,
    /// Threads parked on `not_empty`; the symmetric gate for sends.
    recv_waiting: usize,
}

/// Shared core of a native channel: a bounded deque guarded by one mutex,
/// with separate not-full / not-empty condvars (the crossbeam
/// array-channel shape, simplified).
struct NChan<T> {
    st: Mutex<NChanState<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
    cancel: Arc<CancelScope>,
}

impl<T: Send> CancelWake for NChan<T> {
    fn wake_all(&self) {
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

// ---- endpoints -----------------------------------------------------------

/// Sending half of a native bounded channel.
pub struct NativeTx<T> {
    ch: Arc<NChan<T>>,
}

/// Receiving half of a native bounded channel.
pub struct NativeRx<T> {
    ch: Arc<NChan<T>>,
}

pub(crate) fn native_channel<T: Send + 'static>(
    capacity: usize,
    cancel: &Arc<CancelScope>,
) -> (NativeTx<T>, NativeRx<T>) {
    assert!(capacity >= 1, "channel capacity must be at least 1");
    let ch = Arc::new(NChan {
        st: Mutex::new(NChanState {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            send_waiting: 0,
            recv_waiting: 0,
        }),
        capacity,
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        cancel: cancel.clone(),
    });
    cancel.register(Arc::downgrade(&ch) as Weak<dyn CancelWake>);
    (NativeTx { ch: ch.clone() }, NativeRx { ch })
}

impl<T: Send> NativeTx<T> {
    /// Send `value`, blocking while the queue is full. Returns the value
    /// when every receiver is gone. On a cancelled run the value is
    /// silently discarded (reported `Ok`) so producers unwinding through
    /// teardown do not trip their own "channel closed" panics.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.enqueue(value, self.ch.capacity)
    }

    /// [`send`](Self::send) past the capacity bound: never blocks.
    pub fn push(&self, value: T) -> Result<(), SendError<T>> {
        self.enqueue(value, usize::MAX)
    }

    fn enqueue(&self, value: T, capacity: usize) -> Result<(), SendError<T>> {
        let ch = &self.ch;
        let mut slot = Some(value);
        let mut st = ch.st.lock();
        loop {
            if ch.cancel.is_cancelled() {
                return Ok(());
            }
            if st.receivers == 0 {
                return Err(SendError(held(&mut slot)));
            }
            if st.queue.len() < capacity {
                st.queue.push_back(held(&mut slot));
                let wake = st.recv_waiting > 0;
                drop(st);
                if wake {
                    ch.not_empty.notify_one();
                }
                return Ok(());
            }
            st.send_waiting += 1;
            ch.not_full.wait(&mut st);
            st.send_waiting -= 1;
        }
    }
}

impl<T: Send> NativeRx<T> {
    /// Receive the next value; `None` once the queue is empty and every
    /// sender is gone (or the run was cancelled).
    pub fn recv(&self) -> Option<T> {
        let ch = &self.ch;
        let mut st = ch.st.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                let wake = st.send_waiting > 0;
                drop(st);
                if wake {
                    ch.not_full.notify_one();
                }
                return Some(v);
            }
            if st.senders == 0 || ch.cancel.is_cancelled() {
                return None;
            }
            st.recv_waiting += 1;
            ch.not_empty.wait(&mut st);
            st.recv_waiting -= 1;
        }
    }

    /// Receive with a deadline on the run's wall-clock `SimTime` axis.
    pub fn recv_deadline(&self, env: &NativeEnv, deadline: SimTime) -> DeadlineRecv<T> {
        let ch = &self.ch;
        let mut st = ch.st.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                let wake = st.send_waiting > 0;
                drop(st);
                if wake {
                    ch.not_full.notify_one();
                }
                return DeadlineRecv::Item(v);
            }
            if st.senders == 0 || ch.cancel.is_cancelled() {
                return DeadlineRecv::Closed;
            }
            let now = env.now();
            if now >= deadline {
                return DeadlineRecv::TimedOut;
            }
            let remaining = Duration::from_nanos(deadline.since(now).as_nanos());
            st.recv_waiting += 1;
            let _ = ch.not_empty.wait_for(&mut st, remaining);
            st.recv_waiting -= 1;
        }
    }

    /// True when no values are queued.
    pub fn is_empty(&self) -> bool {
        self.ch.st.lock().queue.is_empty()
    }

    /// Closed *and* empty — nothing queued and nothing can arrive, in one
    /// lock acquisition.
    pub fn is_drained(&self) -> bool {
        let st = self.ch.st.lock();
        st.senders == 0 && st.queue.is_empty()
    }
}

impl<T> Clone for NativeTx<T> {
    fn clone(&self) -> Self {
        self.ch.st.lock().senders += 1;
        NativeTx {
            ch: self.ch.clone(),
        }
    }
}

impl<T> Drop for NativeTx<T> {
    fn drop(&mut self) {
        let last = {
            let mut st = self.ch.st.lock();
            st.senders -= 1;
            st.senders == 0
        };
        if last {
            self.ch.not_empty.notify_all();
        }
    }
}

impl<T> Clone for NativeRx<T> {
    fn clone(&self) -> Self {
        self.ch.st.lock().receivers += 1;
        NativeRx {
            ch: self.ch.clone(),
        }
    }
}

impl<T> Drop for NativeRx<T> {
    fn drop(&mut self) {
        let last = {
            let mut st = self.ch.st.lock();
            st.receivers -= 1;
            st.receivers == 0
        };
        if last {
            self.ch.not_full.notify_all();
        }
    }
}

// ---- barrier -------------------------------------------------------------

struct NBarState {
    n: usize,
    arrived: usize,
    generation: u64,
}

struct NBarInner {
    st: Mutex<NBarState>,
    cv: Condvar,
    cancel: Arc<CancelScope>,
}

impl CancelWake for NBarInner {
    fn wake_all(&self) {
        self.cv.notify_all();
    }
}

/// A cyclic barrier over native threads, with the `leave` extension used
/// when a participant withdraws permanently.
#[derive(Clone)]
pub struct NativeBarrier {
    inner: Arc<NBarInner>,
}

pub(crate) fn native_barrier(participants: usize, cancel: &Arc<CancelScope>) -> NativeBarrier {
    let inner = Arc::new(NBarInner {
        st: Mutex::new(NBarState {
            n: participants,
            arrived: 0,
            generation: 0,
        }),
        cv: Condvar::new(),
        cancel: cancel.clone(),
    });
    cancel.register(Arc::downgrade(&inner) as Weak<dyn CancelWake>);
    NativeBarrier { inner }
}

impl NativeBarrier {
    /// Wait for all participants; the last arriver gets `true`. Returns
    /// immediately (with `false`) on a cancelled run.
    pub fn wait(&self) -> bool {
        let mut st = self.inner.st.lock();
        if self.inner.cancel.is_cancelled() {
            return false;
        }
        st.arrived += 1;
        if st.arrived >= st.n {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            drop(st);
            self.inner.cv.notify_all();
            return true;
        }
        let gen = st.generation;
        while st.generation == gen && !self.inner.cancel.is_cancelled() {
            self.inner.cv.wait(&mut st);
        }
        false
    }

    /// Withdraw permanently, releasing the current round if this
    /// participant was the last one missing.
    pub fn leave(&self) {
        let release = {
            let mut st = self.inner.st.lock();
            st.n = st.n.saturating_sub(1);
            if st.n > 0 && st.arrived >= st.n {
                st.arrived = 0;
                st.generation = st.generation.wrapping_add(1);
                true
            } else {
                false
            }
        };
        if release {
            self.inner.cv.notify_all();
        }
    }
}

// ---- executor ------------------------------------------------------------

/// The wall-clock executor: runs each registered process on its own OS
/// thread, with per-process panic containment, and joins every thread it
/// started. Spawning is deferred to the run
/// so wiring happens before any thread starts (mirroring the simulation,
/// where nothing runs until `Simulation::run`).
pub struct NativeExecutor {
    start: Instant,
    /// The run's cancellation scope; every channel and barrier built for
    /// the run registers with it.
    pub(super) cancel: Arc<CancelScope>,
    /// Registered processes, started by [`run`](Self::run).
    pub(super) pending: Vec<(String, SpawnBody)>,
    first_panic: Arc<Mutex<Option<(String, String)>>>,
    /// Test hook: the spawn at this index is refused, as `pthread_create`
    /// refuses under `EAGAIN`.
    #[cfg(test)]
    refuse_spawn_at: Option<usize>,
}

/// The one name left of the pooled executor that used to sit beside
/// [`NativeExecutor`] (waker-parked carriers behind an admission
/// scheduler; removed in PR 22 — DESIGN.md §14 has the numbers).
/// `dcbench/src/workloads.rs` builds its `fanout_tasked` workload with
/// `TaskedExecutor::new().into()` and may not be edited by the PR that
/// removed the executor, so the name stays as an alias until a
/// `benchmark` PR retires that workload.
pub type TaskedExecutor = NativeExecutor;

impl NativeExecutor {
    /// A fresh native executor with its own cancellation scope.
    pub fn new() -> Self {
        NativeExecutor {
            start: Instant::now(),
            cancel: CancelScope::new(),
            pending: Vec::new(),
            first_panic: Arc::new(Mutex::new(None)),
            #[cfg(test)]
            refuse_spawn_at: None,
        }
    }

    fn spawn_refused(&self, _index: usize) -> bool {
        #[cfg(test)]
        return self.refuse_spawn_at == Some(_index);
        #[cfg(not(test))]
        false
    }
}

impl Default for NativeExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl NativeExecutor {
    /// Start a thread per registered process and join each, in spawn
    /// order.
    pub(super) fn run(&mut self) -> Result<ExecStats, SimError> {
        let env = NativeEnv { start: self.start };
        let mut handles = Vec::with_capacity(self.pending.len());
        for (index, (name, body)) in std::mem::take(&mut self.pending).into_iter().enumerate() {
            let cancel = self.cancel.clone();
            let first_panic = self.first_panic.clone();
            let thread_name = name.clone();
            let process = move || {
                let result = std::panic::catch_unwind(AssertUnwindSafe(move || {
                    body(ExecEnv::Native(env));
                }));
                if let Err(payload) = result {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<non-string panic payload>".to_string());
                    first_panic.lock().get_or_insert((thread_name, message));
                    cancel.cancel();
                }
            };
            let spawned = if self.spawn_refused(index) {
                Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
            } else {
                std::thread::Builder::new()
                    .name(name.clone())
                    .spawn(process)
            };
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    // The OS refused a thread (`EAGAIN` at thousands of
                    // copies): fail the run, not the process. Cancel so
                    // the threads already started fall through their
                    // blocking calls and can be joined below.
                    let message = format!("spawn native executor thread: {e}");
                    self.first_panic.lock().get_or_insert((name, message));
                    self.cancel.cancel();
                    break;
                }
            }
        }
        for h in handles {
            // Every body runs under `catch_unwind`, so a join never
            // carries a panic.
            let _ = h.join();
        }
        let end_time = env.now();
        if let Some((process, message)) = self.first_panic.lock().take() {
            return Err(SimError::ProcessPanic { process, message });
        }
        Ok(ExecStats {
            end_time,
            events: 0,
        })
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn channel_round_trip_across_threads() {
        let cancel = CancelScope::new();
        let (tx, rx) = native_channel::<u32>(2, &cancel);
        let t = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        t.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn send_fails_when_receivers_gone() {
        let cancel = CancelScope::new();
        let (tx, rx) = native_channel::<u32>(1, &cancel);
        drop(rx);
        assert!(tx.send(7).is_err());
    }

    #[test]
    fn cancel_unblocks_full_channel_send() {
        let cancel = CancelScope::new();
        let (tx, _rx) = native_channel::<u32>(1, &cancel);
        tx.send(1).unwrap();
        let c2 = cancel.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            c2.cancel();
        });
        // Queue is full and nobody receives: only cancellation lets this
        // return (it discards the value and reports Ok).
        assert!(tx.send(2).is_ok());
        t.join().unwrap();
    }

    // The `spsc_` cases drive the channel with one producer and one
    // consumer.

    #[test]
    fn spsc_receiver_drains_values_sent_before_hangup() {
        let cancel = CancelScope::new();
        let (tx, rx) = native_channel::<u32>(8, &cancel);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert!(!rx.is_drained(), "queued values remain");
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert!(rx.is_drained());
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn spsc_blocks_when_full_until_consumer_pops() {
        let cancel = CancelScope::new();
        let (tx, rx) = native_channel::<u32>(1, &cancel);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || {
            tx.send(2).unwrap(); // blocks until the pop below
            tx.send(3).unwrap();
        });
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), Some(3));
        t.join().unwrap();
    }

    #[test]
    fn spsc_drops_undelivered_values() {
        #[derive(Debug)]
        struct Counted(Arc<Mutex<u32>>);
        impl Drop for Counted {
            fn drop(&mut self) {
                *self.0.lock() += 1;
            }
        }
        let drops = Arc::new(Mutex::new(0u32));
        let cancel = CancelScope::new();
        let (tx, rx) = native_channel::<Counted>(4, &cancel);
        tx.send(Counted(drops.clone())).unwrap();
        tx.send(Counted(drops.clone())).unwrap();
        drop(tx);
        drop(rx);
        assert_eq!(*drops.lock(), 2, "channel must drop queued values");
    }

    #[test]
    fn barrier_releases_all_and_elects_one_leader() {
        let cancel = CancelScope::new();
        let b = native_barrier(4, &cancel);
        let leaders = Arc::new(Mutex::new(0usize));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let b2 = b.clone();
            let l2 = leaders.clone();
            handles.push(std::thread::spawn(move || {
                if b2.wait() {
                    *l2.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*leaders.lock(), 1);
    }

    /// A panicking process cancels the run and surfaces as ProcessPanic,
    /// with every blocked process unwound.
    #[test]
    fn panic_cancels_and_reports() {
        let mut exec = NativeExecutor::new();
        let (tx, rx) = native_channel::<u32>(1, &exec.cancel);
        exec.pending.push((
            "stuck-consumer".to_string(),
            Box::new(move |_env| {
                // Blocks forever unless cancellation wakes it.
                let _ = rx.recv();
            }),
        ));
        exec.pending.push((
            "bomb".to_string(),
            Box::new(move |_env| {
                let _keep_open = &tx;
                panic!("boom in process");
            }),
        ));
        match exec.run() {
            Err(SimError::ProcessPanic { process, message }) => {
                assert_eq!(process, "bomb");
                assert!(message.contains("boom in process"));
            }
            other => panic!("expected ProcessPanic, got {other:?}"),
        }
    }

    /// The OS refusing a thread part-way through the spawn loop fails the
    /// run with an error: the threads already started (here blocked on a
    /// channel whose sender never starts) are cancelled and joined.
    #[test]
    fn refused_spawn_cancels_started_threads_and_returns_error() {
        let mut exec = NativeExecutor::new();
        exec.refuse_spawn_at = Some(2);
        let (tx, rx) = native_channel::<u32>(1, &exec.cancel);
        let unwound = Arc::new(AtomicUsize::new(0));
        for i in 0..2 {
            let (rx, tx, unwound) = (rx.clone(), tx.clone(), unwound.clone());
            exec.pending.push((
                format!("consumer-{i}"),
                Box::new(move |_env| {
                    let _keep_open = &tx;
                    let _ = rx.recv();
                    unwound.fetch_add(1, Ordering::SeqCst);
                }),
            ));
        }
        exec.pending.push(("refused".to_string(), Box::new(|_| {})));
        exec.pending
            .push(("never-reached".to_string(), Box::new(|_| {})));
        match exec.run() {
            Err(SimError::ProcessPanic { process, message }) => {
                assert_eq!(process, "refused");
                assert!(
                    message.contains("spawn native executor thread"),
                    "{message}"
                );
            }
            other => panic!("expected a spawn error, got {other:?}"),
        }
        assert_eq!(unwound.load(Ordering::SeqCst), 2, "started threads joined");
    }
}
