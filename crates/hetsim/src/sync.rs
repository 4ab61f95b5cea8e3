//! Virtual-time synchronization primitives: counting semaphore and bounded
//! channel.
//!
//! Because execution in the engine is cooperative (exactly one process runs
//! at a time), primitive state only needs a plain mutex for `Send`/`Sync`
//! purposes — there is never lock contention, and compound check-then-block
//! sequences are atomic with respect to other processes.

use std::collections::VecDeque;
use std::sync::Arc;
use std::task::Poll;

use parking_lot::Mutex;

use crate::engine::{Env, ProcessId, Waker};
use crate::time::SimTime;

/// Queue `pid` to be woken, once: a process that a stray [`Env::wake`]
/// woke while it waited re-polls, and must not queue a second entry that
/// would later swallow a wake meant for another waiter.
fn register(waiters: &mut VecDeque<ProcessId>, pid: ProcessId) {
    if !waiters.contains(&pid) {
        waiters.push_back(pid);
    }
}

/// A counting semaphore on the virtual clock.
///
/// `acquire` blocks the calling process in virtual time until a permit is
/// available. Wakeups are barging (a process acquiring concurrently with a
/// release may take the permit before the woken waiter re-checks); in a
/// deterministic simulation this is benign and keeps the implementation
/// simple.
#[derive(Clone)]
pub struct Semaphore {
    inner: Arc<Mutex<SemState>>,
}

struct SemState {
    permits: u64,
    waiters: VecDeque<ProcessId>,
}

impl Semaphore {
    /// Create a semaphore holding `permits` permits.
    pub fn new(permits: u64) -> Self {
        Semaphore {
            inner: Arc::new(Mutex::new(SemState {
                permits,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Take one permit, blocking in virtual time until available.
    pub fn acquire(&self, env: &Env) {
        while self.poll_acquire(env).is_pending() {
            env.block();
        }
    }

    /// Take one permit if one is available; otherwise register the calling
    /// process to be woken by the next [`release`](Self::release).
    pub fn poll_acquire(&self, env: &Env) -> Poll<()> {
        let mut st = self.inner.lock();
        if st.permits > 0 {
            st.permits -= 1;
            return Poll::Ready(());
        }
        register(&mut st.waiters, env.pid());
        Poll::Pending
    }

    /// Return one permit, waking a waiter if any.
    pub fn release(&self, env: &Env) {
        let waiter = {
            let mut st = self.inner.lock();
            st.permits += 1;
            st.waiters.pop_front()
        };
        if let Some(pid) = waiter {
            env.wake(pid);
        }
    }
}

/// A cyclic barrier on the virtual clock: `wait` blocks until `n`
/// processes have arrived, then releases them all and resets for the next
/// round. Used by the DataCutter runtime to separate units of work.
#[derive(Clone)]
pub struct Barrier {
    inner: Arc<Mutex<BarrierState>>,
}

struct BarrierState {
    n: usize,
    arrived: usize,
    generation: u64,
    waiters: Vec<ProcessId>,
}

impl Barrier {
    /// A barrier for `n` participants (`n >= 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a barrier needs at least one participant");
        Barrier {
            inner: Arc::new(Mutex::new(BarrierState {
                n,
                arrived: 0,
                generation: 0,
                waiters: Vec::new(),
            })),
        }
    }

    /// Arrive and wait for the rest of the round. Returns `true` for the
    /// last arriver (the one that released the round).
    pub fn wait(&self, env: &Env) -> bool {
        let my_generation = {
            let mut st = self.inner.lock();
            st.arrived += 1;
            if st.arrived == st.n {
                // Release the round.
                st.arrived = 0;
                st.generation += 1;
                let mut waiters = std::mem::take(&mut st.waiters);
                drop(st);
                for pid in waiters.drain(..) {
                    env.wake(pid);
                }
                // Donate the emptied vec back so the next round reuses
                // its capacity instead of reallocating.
                self.donate(waiters);
                return true;
            }
            st.waiters.push(env.pid());
            st.generation
        };
        loop {
            env.block();
            let st = self.inner.lock();
            if st.generation != my_generation {
                return false;
            }
            // Spurious wake (stale); re-register and keep waiting.
            drop(st);
            let mut st = self.inner.lock();
            if st.generation != my_generation {
                return false;
            }
            st.waiters.push(env.pid());
        }
    }

    /// Permanently withdraw one participant (a crashed filter copy, for
    /// example). If the remaining participants have all already arrived,
    /// the current round is released immediately. Panics if called on a
    /// barrier whose last participant would leave while others still wait.
    pub fn leave(&self, env: &Env) {
        let waiters = {
            let mut st = self.inner.lock();
            assert!(st.n >= 1, "leave on an empty barrier");
            st.n -= 1;
            if st.n > 0 && st.arrived == st.n {
                st.arrived = 0;
                st.generation += 1;
                std::mem::take(&mut st.waiters)
            } else {
                Vec::new()
            }
        };
        if !waiters.is_empty() {
            let mut waiters = waiters;
            for pid in waiters.drain(..) {
                env.wake(pid);
            }
            self.donate(waiters);
        }
    }

    /// Hand an emptied waiter vec back to the barrier for reuse, keeping
    /// the larger of the two buffers.
    fn donate(&self, empty: Vec<ProcessId>) {
        let mut st = self.inner.lock();
        if st.waiters.capacity() < empty.capacity() {
            let prev = std::mem::replace(&mut st.waiters, empty);
            st.waiters.extend(prev);
        }
    }
}

/// Error returned by [`Sender::send`] when every receiver is gone; carries
/// the unsent value back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Outcome of [`Receiver::recv_deadline`].
#[derive(Debug, PartialEq, Eq)]
pub enum DeadlineRecv<T> {
    /// An item arrived before the deadline.
    Item(T),
    /// The channel is empty and every sender has dropped.
    Closed,
    /// The deadline passed with the channel still empty but open.
    TimedOut,
}

struct ChanState<T> {
    queue: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receivers: usize,
    send_waiters: VecDeque<ProcessId>,
    recv_waiters: VecDeque<ProcessId>,
}

struct Chan<T> {
    state: Mutex<ChanState<T>>,
    waker: Waker,
}

/// Producer endpoint of a bounded virtual-time channel. Clonable; the
/// channel reports end-of-stream to receivers once the last sender drops.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// Consumer endpoint of a bounded virtual-time channel. Clonable; multiple
/// receivers compete for items (work-sharing), which is exactly the
/// "copy set shares a single buffer queue" behaviour DataCutter needs.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// Create a bounded channel with room for `capacity` queued items.
/// `capacity` must be at least 1.
pub fn channel<T: Send>(waker: Waker, capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity >= 1, "channel capacity must be >= 1");
    let chan = Arc::new(Chan {
        state: Mutex::new(ChanState {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            senders: 1,
            receivers: 1,
            send_waiters: VecDeque::new(),
            recv_waiters: VecDeque::new(),
        }),
        waker,
    });
    (Sender { chan: chan.clone() }, Receiver { chan })
}

impl<T: Send> Sender<T> {
    /// Enqueue `value`, blocking in virtual time while the channel is full.
    /// Fails (returning the value) once all receivers have dropped.
    pub fn send(&self, env: &Env, value: T) -> Result<(), SendError<T>> {
        let mut slot = Some(value);
        loop {
            match self.poll_send(env, &mut slot) {
                Poll::Ready(sent) => return sent,
                Poll::Pending => env.block(),
            }
        }
    }

    /// Enqueue the value in `slot` if the channel has room, taking it out
    /// of the slot; fail with it once all receivers have dropped. While the
    /// channel is full the value stays in `slot` and the calling process is
    /// registered to be woken when an item is taken.
    pub fn poll_send(&self, env: &Env, slot: &mut Option<T>) -> Poll<Result<(), SendError<T>>> {
        self.offer(env, slot, true)
    }

    /// Enqueue `value` past the capacity bound: never blocks. Fails (returning
    /// the value) once all receivers have dropped.
    pub fn push(&self, env: &Env, value: T) -> Result<(), SendError<T>> {
        match self.offer(env, &mut Some(value), false) {
            Poll::Ready(sent) => sent,
            Poll::Pending => unreachable!("an unbounded offer never waits"),
        }
    }

    fn offer(
        &self,
        env: &Env,
        slot: &mut Option<T>,
        bounded: bool,
    ) -> Poll<Result<(), SendError<T>>> {
        let mut st = self.chan.state.lock();
        let Some(value) = slot.take() else {
            return Poll::Ready(Ok(()));
        };
        if st.receivers == 0 {
            return Poll::Ready(Err(SendError(value)));
        }
        if bounded && st.queue.len() >= st.capacity {
            *slot = Some(value);
            register(&mut st.send_waiters, env.pid());
            return Poll::Pending;
        }
        st.queue.push_back(value);
        let wake_rx = st.recv_waiters.pop_front();
        drop(st);
        if let Some(pid) = wake_rx {
            env.wake(pid);
        }
        Poll::Ready(Ok(()))
    }

    /// Number of queued items right now (for metrics).
    pub fn len(&self) -> usize {
        self.chan.state.lock().queue.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Send> Receiver<T> {
    /// Dequeue the next item, blocking in virtual time while the channel is
    /// empty. Returns `None` once the channel is empty *and* every sender
    /// has dropped.
    pub fn recv(&self, env: &Env) -> Option<T> {
        loop {
            match self.poll_recv(env) {
                Poll::Ready(item) => return item,
                Poll::Pending => env.block(),
            }
        }
    }

    /// Dequeue the next item if one is queued; `Ready(None)` once the
    /// channel is empty *and* every sender has dropped. While it is empty
    /// and open the calling process is registered to be woken by the next
    /// send (or by the last sender's drop).
    pub fn poll_recv(&self, env: &Env) -> Poll<Option<T>> {
        let mut st = self.chan.state.lock();
        let Some(item) = st.queue.pop_front() else {
            if st.senders == 0 {
                return Poll::Ready(None);
            }
            register(&mut st.recv_waiters, env.pid());
            return Poll::Pending;
        };
        let wake_tx = st.send_waiters.pop_front();
        drop(st);
        if let Some(pid) = wake_tx {
            env.wake(pid);
        }
        Poll::Ready(Some(item))
    }

    /// Dequeue the next item, blocking at most until `deadline`. Used by
    /// fault-aware consumers that must periodically probe peer liveness
    /// instead of waiting forever on a stream a dead producer will never
    /// feed again.
    pub fn recv_deadline(&self, env: &Env, deadline: SimTime) -> DeadlineRecv<T> {
        loop {
            match self.poll_recv(env) {
                Poll::Ready(Some(item)) => return DeadlineRecv::Item(item),
                Poll::Ready(None) => return DeadlineRecv::Closed,
                Poll::Pending => {}
            }
            let woken = env.block_until(deadline);
            // On timeout our pid may still sit in `recv_waiters`; it must
            // be removed, or a later send would burn its wake on us (a
            // stale waiter) and strand a real one.
            let mut st = self.chan.state.lock();
            if let Some(pos) = st.recv_waiters.iter().position(|&p| p == env.pid()) {
                st.recv_waiters.remove(pos);
            }
            if !woken && st.queue.is_empty() && st.senders > 0 {
                return DeadlineRecv::TimedOut;
            }
        }
    }

    /// True once every sender has dropped (items may still be queued).
    pub fn is_closed(&self) -> bool {
        self.chan.state.lock().senders == 0
    }

    /// Closed *and* empty in one lock acquisition — nothing queued and
    /// nothing can arrive. Prefer this in polling loops over separate
    /// `is_closed() && is_empty()` probes.
    pub fn is_drained(&self) -> bool {
        let st = self.chan.state.lock();
        st.senders == 0 && st.queue.is_empty()
    }

    /// Number of queued items right now (for metrics / DD policy probes).
    pub fn len(&self) -> usize {
        self.chan.state.lock().queue.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().senders += 1;
        Sender {
            chan: self.chan.clone(),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().receivers += 1;
        Receiver {
            chan: self.chan.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let wake: VecDeque<ProcessId> = {
            let mut st = self.chan.state.lock();
            st.senders -= 1;
            if st.senders == 0 {
                std::mem::take(&mut st.recv_waiters)
            } else {
                VecDeque::new()
            }
        };
        for pid in wake {
            self.chan.waker.wake(pid);
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let wake: VecDeque<ProcessId> = {
            let mut st = self.chan.state.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                std::mem::take(&mut st.send_waiters)
            } else {
                VecDeque::new()
            }
        };
        for pid in wake {
            self.chan.waker.wake(pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;
    use crate::time::SimDuration;

    #[test]
    fn semaphore_serializes_critical_section() {
        let mut sim = Simulation::new();
        let sem = Semaphore::new(1);
        let done: Arc<Mutex<Vec<(u64, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3u32 {
            let sem = sem.clone();
            let done = done.clone();
            sim.spawn(format!("w{i}"), move |env| {
                sem.acquire(&env);
                env.delay(SimDuration::from_millis(10));
                sem.release(&env);
                done.lock().push((env.now().as_nanos() / 1_000_000, i));
            });
        }
        sim.run().unwrap();
        let v = done.lock().clone();
        assert_eq!(
            v.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn semaphore_counting() {
        let mut sim = Simulation::new();
        let sem = Semaphore::new(2);
        let done: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4u32 {
            let sem = sem.clone();
            let done = done.clone();
            sim.spawn(format!("w{i}"), move |env| {
                sem.acquire(&env);
                env.delay(SimDuration::from_millis(5));
                sem.release(&env);
                done.lock().push(env.now().as_nanos() / 1_000_000);
            });
        }
        sim.run().unwrap();
        assert_eq!(*done.lock(), vec![5, 5, 10, 10]);
    }

    #[test]
    fn barrier_releases_all_at_last_arrival() {
        let mut sim = Simulation::new();
        let barrier = Barrier::new(3);
        let times: Arc<Mutex<Vec<(u32, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3u32 {
            let b = barrier.clone();
            let times = times.clone();
            sim.spawn(format!("p{i}"), move |env| {
                env.delay(SimDuration::from_millis(10 * (i as u64 + 1)));
                b.wait(&env);
                times.lock().push((i, env.now().as_nanos() / 1_000_000));
            });
        }
        sim.run().unwrap();
        let v = times.lock().clone();
        // Everyone resumes at the last arriver's time (30ms).
        assert!(v.iter().all(|&(_, t)| t == 30), "{v:?}");
    }

    #[test]
    fn barrier_is_cyclic() {
        let mut sim = Simulation::new();
        let barrier = Barrier::new(2);
        let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2u32 {
            let b = barrier.clone();
            let log = log.clone();
            sim.spawn(format!("p{i}"), move |env| {
                for round in 0..3u64 {
                    env.delay(SimDuration::from_millis((i as u64 + 1) * (round + 1)));
                    b.wait(&env);
                    if i == 0 {
                        log.lock().push(env.now().as_nanos() / 1_000_000);
                    }
                }
            });
        }
        sim.run().unwrap();
        // Rounds complete at the slower participant's cumulative times.
        assert_eq!(*log.lock(), vec![2, 6, 12]);
    }

    #[test]
    fn barrier_last_arriver_reports_true() {
        let mut sim = Simulation::new();
        let barrier = Barrier::new(2);
        let releasers: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2u32 {
            let b = barrier.clone();
            let releasers = releasers.clone();
            sim.spawn(format!("p{i}"), move |env| {
                env.delay(SimDuration::from_millis(if i == 0 { 5 } else { 1 }));
                if b.wait(&env) {
                    releasers.lock().push(i);
                }
            });
        }
        sim.run().unwrap();
        assert_eq!(
            *releasers.lock(),
            vec![0],
            "the late arriver releases the round"
        );
    }

    #[test]
    fn single_participant_barrier_never_blocks() {
        let mut sim = Simulation::new();
        let barrier = Barrier::new(1);
        sim.spawn("solo", move |env| {
            for _ in 0..5 {
                assert!(barrier.wait(&env));
            }
        });
        sim.run().unwrap();
    }

    #[test]
    fn barrier_leave_releases_waiting_round() {
        let mut sim = Simulation::new();
        let barrier = Barrier::new(3);
        let released: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2u32 {
            let b = barrier.clone();
            let released = released.clone();
            sim.spawn(format!("p{i}"), move |env| {
                env.delay(SimDuration::from_millis(i as u64 + 1));
                b.wait(&env);
                released.lock().push(env.now().as_nanos() / 1_000_000);
            });
        }
        let b = barrier.clone();
        sim.spawn("deserter", move |env| {
            env.delay(SimDuration::from_millis(10));
            b.leave(&env); // both peers already arrived: round fires now
        });
        sim.run().unwrap();
        assert_eq!(*released.lock(), vec![10, 10]);
        assert_eq!(barrier.inner.lock().n, 2);
    }

    #[test]
    fn recv_deadline_times_out_then_delivers() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>(sim.waker(), 2);
        sim.spawn("slow-producer", move |env| {
            env.delay(SimDuration::from_millis(30));
            tx.send(&env, 7).unwrap();
            // tx drops: channel closes
        });
        let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let log2 = log.clone();
        sim.spawn("consumer", move |env| loop {
            let deadline = env.now() + SimDuration::from_millis(10);
            match rx.recv_deadline(&env, deadline) {
                DeadlineRecv::Item(v) => log2.lock().push(format!("item {v}")),
                DeadlineRecv::TimedOut => log2.lock().push("timeout".into()),
                DeadlineRecv::Closed => {
                    log2.lock().push("closed".into());
                    break;
                }
            }
        });
        sim.run().unwrap();
        assert_eq!(
            *log.lock(),
            vec!["timeout", "timeout", "item 7", "closed"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn recv_deadline_timeout_leaves_no_stale_waiter() {
        // After consumer A times out, a send must wake consumer B (a live
        // waiter), not be swallowed by A's stale registration.
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>(sim.waker(), 2);
        let rx_b = rx.clone();
        let got: Arc<Mutex<Vec<(char, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let got_a = got.clone();
        sim.spawn("a", move |env| {
            let r = rx.recv_deadline(&env, env.now() + SimDuration::from_millis(1));
            assert_eq!(r, DeadlineRecv::TimedOut);
            // A never touches the channel again.
            env.delay(SimDuration::from_millis(100));
            let _ = &got_a;
        });
        let got_b = got.clone();
        sim.spawn("b", move |env| {
            env.delay(SimDuration::from_millis(2));
            if let Some(v) = rx_b.recv(&env) {
                got_b.lock().push(('b', v));
            }
        });
        sim.spawn("producer", move |env| {
            env.delay(SimDuration::from_millis(5));
            tx.send(&env, 42).unwrap();
        });
        sim.run().unwrap();
        assert_eq!(*got.lock(), vec![('b', 42)]);
    }

    /// A stray wake at a sender blocked on a full channel used to queue
    /// its pid a second time; the stale entry then took the wake meant
    /// for the next sender, and that sender was stranded (the run
    /// deadlocked). Fails if waiter registration is not idempotent.
    #[test]
    fn stray_wake_at_a_blocked_sender_strands_no_other_sender() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>(sim.waker(), 1);
        let ms = SimDuration::from_millis;
        let tx_a = tx.clone();
        let a = sim.spawn("a", move |env| {
            env.delay(ms(1));
            tx_a.send(&env, 1).unwrap();
        });
        let tx_b = tx.clone();
        sim.spawn("b", move |env| {
            env.delay(ms(3));
            tx_b.send(&env, 2).unwrap();
        });
        sim.spawn("stray", move |env| {
            tx.send(&env, 0).unwrap(); // fills the channel
            env.delay(ms(2));
            assert!(env.wake(a), "a is blocked in send");
        });
        let got: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        sim.spawn("receiver", move |env| {
            env.delay(ms(4));
            while let Some(v) = rx.recv(&env) {
                g.lock().push(v);
            }
        });
        sim.run().expect("both blocked senders get through");
        assert_eq!(*got.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn channel_passes_items_in_order() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>(sim.waker(), 4);
        sim.spawn("producer", move |env| {
            for i in 0..10 {
                tx.send(&env, i).unwrap();
                env.delay(SimDuration::from_millis(1));
            }
        });
        let got: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let got2 = got.clone();
        sim.spawn("consumer", move |env| {
            while let Some(v) = rx.recv(&env) {
                got2.lock().push(v);
            }
        });
        sim.run().unwrap();
        assert_eq!(*got.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_channel_applies_backpressure() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>(sim.waker(), 1);
        let send_times: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let st = send_times.clone();
        sim.spawn("producer", move |env| {
            for i in 0..3 {
                tx.send(&env, i).unwrap();
                st.lock().push(env.now().as_nanos() / 1_000_000);
            }
        });
        sim.spawn("slow-consumer", move |env| {
            while let Some(_v) = rx.recv(&env) {
                env.delay(SimDuration::from_millis(10));
            }
        });
        sim.run().unwrap();
        // First send immediate; subsequent sends gated by consumption.
        let v = send_times.lock().clone();
        assert_eq!(v[0], 0);
        assert!(v[1] <= 10 && v[2] >= 10, "got {v:?}");
    }

    #[test]
    fn push_goes_past_capacity_and_a_bounded_send_then_waits() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>(sim.waker(), 1);
        let send_at: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
        let at = send_at.clone();
        sim.spawn("producer", move |env| {
            for i in 0..3 {
                tx.push(&env, i).unwrap();
            }
            assert_eq!(tx.len(), 3, "pushes never wait");
            // A send waits until the queue is below its bound again: after
            // the third dequeue, at 5 + 10 + 10 ms.
            tx.send(&env, 3).unwrap();
            *at.lock() = Some(env.now().as_nanos() / 1_000_000);
        });
        let got: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        sim.spawn("slow-consumer", move |env| {
            env.delay(SimDuration::from_millis(5));
            while let Some(v) = rx.recv(&env) {
                g.lock().push(v);
                env.delay(SimDuration::from_millis(10));
            }
        });
        sim.run().unwrap();
        assert_eq!(*got.lock(), vec![0, 1, 2, 3]);
        assert_eq!(
            *send_at.lock(),
            Some(25),
            "sent once the queue fell below its bound"
        );
    }

    #[test]
    fn recv_returns_none_after_senders_drop() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>(sim.waker(), 2);
        sim.spawn("producer", move |env| {
            tx.send(&env, 42).unwrap();
            // tx dropped at scope end
        });
        let saw: Arc<Mutex<Vec<Option<u32>>>> = Arc::new(Mutex::new(Vec::new()));
        let saw2 = saw.clone();
        sim.spawn("consumer", move |env| {
            saw2.lock().push(rx.recv(&env));
            saw2.lock().push(rx.recv(&env));
        });
        sim.run().unwrap();
        assert_eq!(*saw.lock(), vec![Some(42), None]);
    }

    #[test]
    fn send_fails_when_receiver_gone() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>(sim.waker(), 1);
        sim.spawn("receiver", move |env| {
            let _ = rx.recv(&env);
            // rx dropped here
        });
        sim.spawn("producer", move |env| {
            tx.send(&env, 1).unwrap();
            env.delay(SimDuration::from_millis(1));
            assert_eq!(tx.send(&env, 2), Err(SendError(2)));
        });
        sim.run().unwrap();
    }

    #[test]
    fn multiple_receivers_share_work() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>(sim.waker(), 2);
        sim.spawn("producer", move |env| {
            for i in 0..20 {
                tx.send(&env, i).unwrap();
            }
        });
        let counts: Arc<Mutex<[u32; 2]>> = Arc::new(Mutex::new([0, 0]));
        for c in 0..2usize {
            let rx = rx.clone();
            let counts = counts.clone();
            sim.spawn(format!("consumer{c}"), move |env| {
                while let Some(_v) = rx.recv(&env) {
                    counts.lock()[c] += 1;
                    env.delay(SimDuration::from_millis(1));
                }
            });
        }
        drop(rx);
        sim.run().unwrap();
        let c = *counts.lock();
        assert_eq!(c[0] + c[1], 20);
        assert!(
            c[0] > 0 && c[1] > 0,
            "both consumers should get items: {c:?}"
        );
    }
}
