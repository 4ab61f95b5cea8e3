//! Writer policies: how a producer copy picks which consumer copy set
//! receives each stream buffer (Section 2 of the paper).
//!
//! * **Round Robin (RR)** — cycle over consumer hosts, one buffer each.
//!   Zero overhead, load-oblivious.
//! * **Weighted Round Robin (WRR)** — cycle with each host appearing once
//!   per transparent copy it runs, so buffer counts are proportional to
//!   copy counts. Zero overhead, capacity-aware but load-oblivious.
//! * **Demand Driven (DD)** — a sliding-window credit scheme: consumers
//!   acknowledge each buffer as they start processing it; the producer
//!   sends to the copy set with the fewest unacknowledged buffers (ties
//!   prefer co-located copy sets) and blocks when every copy set is at its
//!   window limit. Adapts to load at the cost of ack traffic.
//! * **Tile Hash (TH)** — content-addressed: the producer stamps each
//!   buffer with a tile index ([`crate::FilterCtx::write_tile`]) and the
//!   buffer goes to the copy set owning that tile (`tile mod sets`). Every
//!   fragment of a tile lands on the same consumer, so a group of merge
//!   copies can composite disjoint image regions in parallel. Zero
//!   overhead, no acks; under a fault plan a dead owner's tiles fall
//!   through deterministically to the next live set.

use std::sync::{Arc, Weak};

use hetsim::{HostId, ProcessId};
use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};

use crate::fault::FaultCtl;
use crate::runtime::exec::ExecEnv;
use crate::runtime::native::{CancelScope, CancelWake};

/// Policy selector carried in stream specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WritePolicy {
    /// Round robin over consumer copy sets.
    RoundRobin,
    /// Round robin weighted by copies per host.
    WeightedRoundRobin,
    /// Demand-driven sliding window with this many in-flight
    /// (unacknowledged) buffers allowed per consumer *copy*.
    DemandDriven {
        /// Window per consumer copy; a copy set's window is
        /// `window_per_copy × copies`.
        window_per_copy: u32,
    },
    /// Tile-hash routing: buffers written with
    /// [`crate::FilterCtx::write_tile`] go to the copy set owning the
    /// stamped tile (`tile mod sets`). Plain `write`s on a tile-hash
    /// stream fall back to round robin.
    TileHash,
}

impl WritePolicy {
    /// The demand-driven policy with the default window (2 buffers per
    /// consumer copy: one in processing, one queued).
    pub fn demand_driven() -> WritePolicy {
        WritePolicy::DemandDriven { window_per_copy: 2 }
    }

    /// Short display label used by the experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            WritePolicy::RoundRobin => "RR",
            WritePolicy::WeightedRoundRobin => "WRR",
            WritePolicy::DemandDriven { .. } => "DD",
            WritePolicy::TileHash => "TH",
        }
    }
}

/// Static description of one consumer copy set (all copies of the consumer
/// filter on one host).
#[derive(Debug, Clone, Copy)]
pub struct CopySetInfo {
    /// Host the copy set runs on.
    pub host: HostId,
    /// Number of transparent copies in the set.
    pub copies: u32,
    /// The consumer filter the set belongs to.
    pub filter: crate::graph::FilterId,
    /// Global (per-filter) index of the set's first copy; copies
    /// `first_copy .. first_copy + copies` make up the set. Together with
    /// `filter` this lets liveness queries consult the per-copy death
    /// registry, not just the host's scheduled crash.
    pub first_copy: usize,
}

/// Per-producer-copy policy state.
pub struct WriterState {
    inner: WriterInner,
}

enum WriterInner {
    /// RR / WRR: a precomputed cyclic schedule of copy-set indices.
    Cyclic {
        /// Copy-set index per slot, repeated cyclically.
        schedule: Vec<usize>,
        /// Next slot.
        pos: usize,
        /// Copy-set descriptions (for liveness checks under a fault plan).
        sets: Vec<CopySetInfo>,
        /// Fault control block, when a plan is active.
        faults: Option<Arc<FaultCtl>>,
    },
    /// DD: shared credit state (also referenced by ack couriers).
    Demand(Arc<DemandState>),
}

impl WriterState {
    /// Build the state for `policy` over `sets`, for a producer running on
    /// `producer_host`.
    pub fn new(policy: WritePolicy, sets: &[CopySetInfo], producer_host: HostId) -> Self {
        Self::for_run(policy, sets, producer_host, None, None)
    }

    /// As [`WriterState::new`], threading the runtime's fault control block
    /// (so writers evict detectably-dead consumer hosts) and the native
    /// executor's cancellation scope (so demand-driven producers blocked
    /// on window credit unblock when a failed run tears down).
    pub(crate) fn for_run(
        policy: WritePolicy,
        sets: &[CopySetInfo],
        producer_host: HostId,
        faults: Option<Arc<FaultCtl>>,
        cancel: Option<Arc<CancelScope>>,
    ) -> Self {
        let inner = match policy {
            // Tile-hash keeps the cyclic machinery for the rare untargeted
            // `write` (round-robin fallback); `select_tile` does the
            // content-addressed routing off the same set table.
            WritePolicy::RoundRobin | WritePolicy::TileHash => WriterInner::Cyclic {
                schedule: (0..sets.len()).collect(),
                pos: 0,
                sets: sets.to_vec(),
                faults,
            },
            WritePolicy::WeightedRoundRobin => {
                // Interleave hosts proportionally to copy counts rather than
                // bursting: emit one round per "virtual slot".
                let max_copies = sets.iter().map(|s| s.copies).max().unwrap_or(1);
                let mut schedule = Vec::new();
                for round in 0..max_copies {
                    for (i, s) in sets.iter().enumerate() {
                        if round < s.copies {
                            schedule.push(i);
                        }
                    }
                }
                WriterInner::Cyclic {
                    schedule,
                    pos: 0,
                    sets: sets.to_vec(),
                    faults,
                }
            }
            WritePolicy::DemandDriven { window_per_copy } => {
                let state = Arc::new(DemandState::new(
                    sets,
                    producer_host,
                    window_per_copy,
                    faults,
                    cancel.clone(),
                ));
                if let Some(scope) = &cancel {
                    scope.register(Arc::downgrade(&state) as Weak<dyn CancelWake>);
                }
                WriterInner::Demand(state)
            }
        };
        WriterState { inner }
    }

    /// Pick the copy set for the next buffer, blocking (DD only) until a
    /// window slot is free. Under an active fault plan, consumer copy sets
    /// whose hosts are detectably dead are skipped, rebalancing their
    /// share onto the survivors.
    pub fn select(&mut self, env: &ExecEnv) -> usize {
        match &mut self.inner {
            WriterInner::Cyclic {
                schedule,
                pos,
                sets,
                faults,
            } => {
                let n = schedule.len();
                if let Some(ctl) = faults.as_ref().filter(|c| c.crashes_possible()) {
                    let now = env.now();
                    for _ in 0..n {
                        let idx = schedule[*pos];
                        *pos = (*pos + 1) % n;
                        if !ctl.evictable(sets[idx].host, now) {
                            return idx;
                        }
                    }
                    // Every consumer set is detectably dead: fall through to
                    // the scheduled pick. No live consumer is left, so the
                    // buffer is lost: its replica stays retained until the
                    // end-of-run sweep counts it.
                }
                let idx = schedule[*pos];
                *pos = (*pos + 1) % n;
                idx
            }
            WriterInner::Demand(state) => state.acquire_slot(env),
        }
    }

    /// Pick the copy set owning `tile`: `tile mod sets`, the tile-hash
    /// routing rule. Deterministic and stateless, so every producer copy
    /// agrees on the owner without coordination and every fragment of a
    /// tile lands on the same consumer. Under an active fault plan a
    /// detectably-dead owner's tiles fall through to the next live set in
    /// index order (`(owner + k) mod sets`) — still deterministic, so
    /// rerouted fragments of one tile stay together. When every set is
    /// dead the nominal owner is returned and the buffer is lost: no live
    /// consumer is left to take it.
    pub fn select_tile(&self, env: &ExecEnv, tile: u64) -> usize {
        let (n, liveness) = match &self.inner {
            WriterInner::Cyclic { sets, faults, .. } => (
                sets.len(),
                faults
                    .as_ref()
                    .filter(|c| c.crashes_possible())
                    .map(|ctl| (ctl.clone(), sets)),
            ),
            WriterInner::Demand(state) => (state.inner.lock().sets.len(), None),
        };
        let owner = (tile % n.max(1) as u64) as usize;
        if let Some((ctl, sets)) = liveness {
            let now = env.now();
            for k in 0..n {
                let idx = (owner + k) % n;
                if !ctl.evictable(sets[idx].host, now) {
                    return idx;
                }
            }
        }
        owner
    }

    /// DD shared state, if this writer is demand-driven.
    pub fn demand_state(&self) -> Option<Arc<DemandState>> {
        match &self.inner {
            WriterInner::Demand(s) => Some(s.clone()),
            _ => None,
        }
    }
}

/// Shared demand-driven credit state for one producer copy.
pub struct DemandState {
    inner: Mutex<DemandInner>,
    /// Native producers blocked on window credit wait here (the sim path
    /// uses the engine's wake list in `DemandInner::waiters` instead).
    credit: Condvar,
    producer_host: HostId,
    faults: Option<Arc<FaultCtl>>,
    /// Cancellation scope of a native run, so blocked producers unblock
    /// during teardown.
    cancel: Option<Arc<CancelScope>>,
}

impl CancelWake for DemandState {
    fn wake_all(&self) {
        self.credit.notify_all();
    }
}

struct DemandInner {
    sets: Vec<CopySetInfo>,
    unacked: Vec<u32>,
    window: Vec<u32>,
    waiters: Vec<ProcessId>,
    /// Native producers currently parked on the credit condvar; acks skip
    /// the `notify_all` syscall entirely when this is zero (the common
    /// case: windows rarely fill).
    native_waiting: usize,
    /// Rotating scan start so ties among remote copy sets spread evenly
    /// instead of biasing toward low indices.
    cursor: usize,
    /// Reused per-set liveness mask so fault-plan runs don't allocate one
    /// `Vec<bool>` per `acquire_slot` call.
    dead_scratch: Vec<bool>,
}

impl DemandState {
    fn new(
        sets: &[CopySetInfo],
        producer_host: HostId,
        window_per_copy: u32,
        faults: Option<Arc<FaultCtl>>,
        cancel: Option<Arc<CancelScope>>,
    ) -> Self {
        DemandState {
            inner: Mutex::new(DemandInner {
                sets: sets.to_vec(),
                unacked: vec![0; sets.len()],
                window: sets
                    .iter()
                    .map(|s| window_per_copy.max(1) * s.copies.max(1))
                    .collect(),
                waiters: Vec::new(),
                native_waiting: 0,
                cursor: 0,
                dead_scratch: Vec::with_capacity(sets.len()),
            }),
            credit: Condvar::new(),
            producer_host,
            faults,
            cancel,
        }
    }

    /// Host of the producer copy owning this state (acks are addressed to
    /// it so the reverse network path is charged).
    pub fn producer_host(&self) -> HostId {
        self.producer_host
    }

    /// Block until some copy set has window room, then take a slot on the
    /// least-loaded one. Ties prefer a co-located copy set; among equally
    /// loaded remote sets a rotating cursor spreads the choice evenly.
    ///
    /// Under a fault plan: detectably-dead consumer sets are skipped (their
    /// window share rebalances onto survivors); if *every* set is dead the
    /// buffer is routed anyway, ignoring window limits — the dead set's
    /// reaper acknowledges salvaged buffers, waking blocked producers, so
    /// this cannot deadlock.
    ///
    /// Blocking is substrate-specific: sim producers park on the engine's
    /// wake list (`env.block()`), native producers wait on the condvar
    /// *while holding the credit lock*, so an ack can never slip between
    /// the failed scan and the wait (no lost wakeups).
    fn acquire_slot(&self, env: &ExecEnv) -> usize {
        loop {
            let mut st = self.inner.lock();
            let n = st.sets.len();
            let mut use_dead = false;
            if let Some(ctl) = self.faults.as_ref().filter(|c| c.crashes_possible()) {
                let now = env.now();
                // Split borrow: refill the reused mask in place instead of
                // collecting a fresh Vec<bool> per call.
                let DemandInner {
                    sets, dead_scratch, ..
                } = &mut *st;
                dead_scratch.clear();
                dead_scratch.extend(sets.iter().map(|s| ctl.evictable(s.host, now)));
                if dead_scratch.iter().all(|&d| d) {
                    // No surviving consumer set. Route to the least-unacked
                    // set regardless of its window; the buffer is lost.
                    let i = (0..n).min_by_key(|&i| st.unacked[i]).unwrap_or(0);
                    st.unacked[i] += 1;
                    st.cursor = (i + 1) % n;
                    return i;
                }
                use_dead = true;
            }
            let start = st.cursor;
            let mut best: Option<usize> = None;
            for k in 0..n {
                let i = (start + k) % n;
                if (use_dead && st.dead_scratch[i]) || st.unacked[i] >= st.window[i] {
                    continue;
                }
                best = match best {
                    None => Some(i),
                    Some(b) => {
                        // Fewest unacked wins; on ties a co-located set
                        // beats a remote one (scan order settles
                        // remote-vs-remote ties).
                        let better = st.unacked[i] < st.unacked[b]
                            || (st.unacked[i] == st.unacked[b]
                                && st.sets[i].host == self.producer_host
                                && st.sets[b].host != self.producer_host);
                        Some(if better { i } else { b })
                    }
                };
            }
            if let Some(i) = best {
                st.unacked[i] += 1;
                st.cursor = (i + 1) % n;
                return i;
            }
            match env {
                ExecEnv::Sim(sim) => {
                    st.waiters.push(sim.pid());
                    drop(st);
                    match self.faults.as_ref().filter(|c| c.crashes_possible()) {
                        // Timed block so we re-probe liveness: an ack may
                        // never come from a consumer set that died with our
                        // credit outstanding.
                        Some(ctl) => {
                            sim.block_until(sim.now() + ctl.timeout);
                        }
                        None => sim.block(),
                    }
                }
                ExecEnv::Native(_) => {
                    if self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                        // Teardown: hand out a slot so the producer can keep
                        // unwinding (its sends discard under a cancelled
                        // scope anyway).
                        let i = (0..n).min_by_key(|&i| st.unacked[i]).unwrap_or(0);
                        st.unacked[i] += 1;
                        st.cursor = (i + 1) % n;
                        return i;
                    }
                    st.native_waiting += 1;
                    match self.faults.as_ref().filter(|c| c.crashes_possible()) {
                        // Timed wait for the same reason as the sim path
                        // above: the ack releasing our credit may never
                        // arrive from a consumer set that died while
                        // holding it.
                        Some(ctl) => {
                            let _timed_out = self.credit.wait_for(
                                &mut st,
                                std::time::Duration::from_nanos(ctl.timeout.as_nanos()),
                            );
                        }
                        None => self.credit.wait(&mut st),
                    }
                    st.native_waiting -= 1;
                }
            }
        }
    }

    /// Record an acknowledgment from copy set `idx`, releasing one window
    /// slot and waking any blocked producer.
    pub fn ack(&self, env: &ExecEnv, idx: usize) {
        let (waiters, native_waiting) = {
            let mut st = self.inner.lock();
            st.unacked[idx] = st.unacked[idx].saturating_sub(1);
            (std::mem::take(&mut st.waiters), st.native_waiting)
        };
        self.wake(env, waiters, native_waiting);
    }

    /// Wake producers blocked on window credit: sim processes by pid, native
    /// threads via the condvar (the waiter re-checks under the lock, so
    /// notifying after releasing it is safe). The waiter list's capacity is
    /// donated back to the shared state so steady-state acks never allocate.
    fn wake(&self, env: &ExecEnv, mut waiters: Vec<ProcessId>, native_waiting: usize) {
        match env {
            ExecEnv::Sim(e) => {
                for pid in waiters.drain(..) {
                    e.wake(pid);
                }
                if waiters.capacity() > 0 {
                    let mut st = self.inner.lock();
                    if st.waiters.capacity() < waiters.capacity() {
                        let prev = std::mem::replace(&mut st.waiters, waiters);
                        st.waiters.extend(prev);
                    }
                }
            }
            ExecEnv::Native(_) => {
                if native_waiting > 0 {
                    self.credit.notify_all();
                }
            }
        }
    }

    /// Currently unacknowledged buffers per copy set.
    pub fn unacked_counts(&self) -> Vec<u32> {
        self.inner.lock().unacked.clone()
    }
}

/// Handle shipped inside a buffer so the consumer can acknowledge it back
/// to the producing copy (DD only).
#[derive(Clone)]
pub struct AckHandle {
    /// The producer copy's credit state.
    pub state: Arc<DemandState>,
    /// Which copy set received the buffer.
    pub copyset_idx: usize,
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use hetsim::Simulation;

    fn set(host: HostId, copies: u32, first_copy: usize) -> CopySetInfo {
        CopySetInfo {
            host,
            copies,
            filter: crate::graph::FilterId(0),
            first_copy,
        }
    }

    fn sets3() -> Vec<CopySetInfo> {
        vec![
            set(HostId(0), 1, 0),
            set(HostId(1), 2, 1),
            set(HostId(2), 1, 3),
        ]
    }

    #[test]
    fn rr_cycles_uniformly() {
        let mut sim = Simulation::new();
        let sets = sets3();
        sim.spawn("p", move |env| {
            let env = ExecEnv::Sim(env);
            let mut w = WriterState::new(WritePolicy::RoundRobin, &sets, HostId(0));
            let picks: Vec<usize> = (0..6).map(|_| w.select(&env)).collect();
            assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        });
        sim.run().unwrap();
    }

    #[test]
    fn wrr_weights_by_copies() {
        let mut sim = Simulation::new();
        let sets = sets3();
        sim.spawn("p", move |env| {
            let env = ExecEnv::Sim(env);
            let mut w = WriterState::new(WritePolicy::WeightedRoundRobin, &sets, HostId(0));
            let picks: Vec<usize> = (0..8).map(|_| w.select(&env)).collect();
            // Schedule: round 0 -> 0,1,2; round 1 -> 1 (only host1 has 2
            // copies); then repeats.
            assert_eq!(picks, vec![0, 1, 2, 1, 0, 1, 2, 1]);
            let count1 = picks.iter().filter(|&&p| p == 1).count();
            assert_eq!(count1, 4); // twice the share of the others
        });
        sim.run().unwrap();
    }

    #[test]
    fn dd_prefers_least_unacked() {
        let mut sim = Simulation::new();
        let sets = sets3();
        sim.spawn("p", move |env| {
            let env = ExecEnv::Sim(env);
            let mut w = WriterState::new(
                WritePolicy::DemandDriven { window_per_copy: 4 },
                &sets,
                HostId(9), // not co-located with any set
            );
            // First pick: all zero -> first index wins.
            assert_eq!(w.select(&env), 0);
            // Now set 0 has 1 unacked; next pick goes elsewhere.
            assert_eq!(w.select(&env), 1);
            assert_eq!(w.select(&env), 2);
            let st = w.demand_state().unwrap();
            assert_eq!(st.unacked_counts(), vec![1, 1, 1]);
        });
        sim.run().unwrap();
    }

    #[test]
    fn dd_ties_prefer_local() {
        let mut sim = Simulation::new();
        let sets = sets3();
        sim.spawn("p", move |env| {
            let env = ExecEnv::Sim(env);
            let mut w = WriterState::new(
                WritePolicy::DemandDriven { window_per_copy: 4 },
                &sets,
                HostId(1), // co-located with set index 1
            );
            assert_eq!(w.select(&env), 1);
        });
        sim.run().unwrap();
    }

    #[test]
    fn dd_blocks_at_window_until_ack() {
        let mut sim = Simulation::new();
        let sets = vec![set(HostId(0), 1, 0)];
        let state_slot: Arc<Mutex<Option<Arc<DemandState>>>> = Arc::new(Mutex::new(None));
        let slot2 = state_slot.clone();
        let progress: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let prog2 = progress.clone();
        sim.spawn("p", move |env| {
            let env = ExecEnv::Sim(env);
            let mut w = WriterState::new(
                WritePolicy::DemandDriven { window_per_copy: 1 },
                &sets,
                HostId(5),
            );
            *slot2.lock() = Some(w.demand_state().unwrap());
            for _ in 0..2 {
                let _ = w.select(&env);
                prog2.lock().push(env.now().as_nanos());
            }
        });
        sim.spawn("acker", move |env| {
            env.delay(hetsim::SimDuration::from_millis(50));
            let env = ExecEnv::Sim(env);
            let st = state_slot.lock().clone().expect("producer ran first");
            st.ack(&env, 0);
        });
        sim.run().unwrap();
        let p = progress.lock().clone();
        assert_eq!(p[0], 0);
        assert_eq!(p[1], 50_000_000, "second send must wait for the ack");
    }

    #[test]
    fn dd_window_scales_with_copies() {
        let mut sim = Simulation::new();
        let sets = vec![set(HostId(0), 3, 0)];
        sim.spawn("p", move |env| {
            let env = ExecEnv::Sim(env);
            let mut w = WriterState::new(
                WritePolicy::DemandDriven { window_per_copy: 2 },
                &sets,
                HostId(5),
            );
            // Window = 2 * 3 = 6 slots available without blocking.
            for _ in 0..6 {
                let _ = w.select(&env);
            }
            let st = w.demand_state().unwrap();
            assert_eq!(st.unacked_counts(), vec![6]);
        });
        sim.run().unwrap();
    }

    #[test]
    fn tile_hash_routes_by_tile_modulo_sets() {
        let mut sim = Simulation::new();
        let sets = sets3();
        sim.spawn("p", move |env| {
            let env = ExecEnv::Sim(env);
            let w = WriterState::new(WritePolicy::TileHash, &sets, HostId(0));
            let picks: Vec<usize> = (0..7).map(|t| w.select_tile(&env, t)).collect();
            assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
            // Same tile, same owner — always.
            for _ in 0..3 {
                assert_eq!(w.select_tile(&env, 4), 1);
            }
        });
        sim.run().unwrap();
    }

    #[test]
    fn tile_hash_is_deterministic_across_writers() {
        let mut sim = Simulation::new();
        let sets = sets3();
        sim.spawn("p", move |env| {
            let env = ExecEnv::Sim(env);
            // Two independent producers (different hosts, fresh state) must
            // agree on every owner: the routing is content-addressed.
            let a = WriterState::new(WritePolicy::TileHash, &sets, HostId(0));
            let b = WriterState::new(WritePolicy::TileHash, &sets, HostId(2));
            for t in 0..64u64 {
                assert_eq!(a.select_tile(&env, t), b.select_tile(&env, t), "tile {t}");
            }
        });
        sim.run().unwrap();
    }

    #[test]
    fn tile_hash_falls_through_dead_owner_deterministically() {
        use crate::fault::FaultCtl;
        use hetsim::{FaultPlan, SimDuration, SimTime};
        let mut sim = Simulation::new();
        let sets = sets3();
        sim.spawn("p", move |env| {
            // Host 1 (owner of tiles ≡ 1 mod 3) dies at t=0; after the
            // liveness timeout its tiles fall through to set 2.
            let plan = FaultPlan::new().crash_host(HostId(1), SimTime::ZERO);
            let opts =
                crate::fault::FaultOptions::new(plan).liveness_timeout(SimDuration::from_millis(1));
            let ctl = FaultCtl::new(&opts);
            env.delay(SimDuration::from_millis(5)); // past detection
            let env = ExecEnv::Sim(env);
            let w = WriterState::for_run(WritePolicy::TileHash, &sets, HostId(0), Some(ctl), None);
            assert_eq!(w.select_tile(&env, 0), 0, "live owner keeps its tiles");
            assert_eq!(
                w.select_tile(&env, 1),
                2,
                "dead owner falls to next live set"
            );
            assert_eq!(w.select_tile(&env, 4), 2, "fall-through is stable per tile");
            assert_eq!(w.select_tile(&env, 2), 2);
        });
        sim.run().unwrap();
    }

    #[test]
    fn tile_hash_plain_write_falls_back_to_round_robin() {
        let mut sim = Simulation::new();
        let sets = sets3();
        sim.spawn("p", move |env| {
            let env = ExecEnv::Sim(env);
            let mut w = WriterState::new(WritePolicy::TileHash, &sets, HostId(0));
            let picks: Vec<usize> = (0..6).map(|_| w.select(&env)).collect();
            assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        });
        sim.run().unwrap();
    }

    #[test]
    fn labels() {
        assert_eq!(WritePolicy::RoundRobin.label(), "RR");
        assert_eq!(WritePolicy::WeightedRoundRobin.label(), "WRR");
        assert_eq!(WritePolicy::demand_driven().label(), "DD");
        assert_eq!(WritePolicy::TileHash.label(), "TH");
    }
}
