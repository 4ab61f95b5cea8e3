//! Dead-set salvage: a reaper process per doomed copy set. The reaper
//! waits (without consuming) until the set's death, then drains the dead
//! queue for the rest of the run.
//!
//! The producer's retention is the route back. The reaper retargets every
//! entry addressed to the dead set to one survivor and sends it a replica;
//! a queue original that carries a provenance is released, since its
//! replica travels instead. Whatever no survivor settles is still retained
//! when the run ends, and the end-of-run sweep counts it lost then. A
//! queued buffer without a provenance (a non-replicable payload) is
//! replayed to a surviving set through its producer's demand window when
//! it carries an ack handle, and counted lost here otherwise.
//!
//! Under a pure fault *plan* the doomed sets are known upfront, so spawn
//! wires one reaper per scheduled death — the original (bit-identical)
//! configuration. Under *supervision* any copy can die at runtime
//! (restart budget exhausted, wedge detection), so every set gets a
//! reaper. Either way the reaper probes the fault control block's merged
//! death oracle each tick. Once the run's shutdown flag rises (every copy
//! finished or died) a supervised reaper drains whatever is stranded in
//! its queue — no consumer remains, so it retargets nothing and replays
//! nothing — and exits; it must *not* simply wait for emptiness, because
//! a wedged peer's reaper may send buffers into a set that already
//! completed the cycle before the wedge was even detected.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hetsim::{DeadlineRecv, HostId, Topology};
use parking_lot::Mutex;

use super::delivery::Envelope;
use super::eow::UowGate;
use super::exec::{charge_transfer, ChanRx, ChanTx, ExecEnv};
use super::native::CancelScope;
use super::retain::{Provenance, StreamRetention};
use crate::budget::StreamOoc;
use crate::buffer::DataBuffer;
use crate::fault::{abort_run, ErrorCell, FaultCtl, RunError};
use crate::policy::{AckHandle, CopySetInfo};

/// Salvages the copy-set queue of a doomed (or potentially doomed) copy
/// set: waits without consuming until the set dies, then drains the queue
/// for the rest of the run (see the module docs for what it does with
/// each buffer).
pub(crate) struct Reaper {
    pub ctl: Arc<FaultCtl>,
    pub errors: ErrorCell,
    pub rx: ChanRx<Envelope>,
    /// Replay targets: `(copyset_idx, sender)`. Under a pure plan this
    /// lists every set with *no* scheduled death — holding senders keeps a
    /// channel open, so the reaper must not hold one to its own queue (it
    /// would never see it close) nor to another doomed set's (two reapers
    /// would keep each other alive). Under supervision every other set is
    /// listed (deaths aren't known upfront); the keep-alive problem is
    /// solved by the shutdown flag instead, and dead targets are filtered
    /// out at replay time.
    pub survivors: Vec<(usize, ChanTx<Envelope>)>,
    pub sets: Vec<CopySetInfo>,
    /// This reaper's own copy set (`sets[own_idx]`), for the death oracle.
    pub own_idx: usize,
    pub topo: Topology,
    pub stream: String,
    /// The dead set's own end-of-work gate: the reaper advances its cycle
    /// and its salvaged mark as salvage proceeds, so live peer sets know
    /// when no more buffers for a given UOW can arrive from it.
    pub gate: Arc<Mutex<UowGate>>,
    pub uows: u32,
    /// Set once every filter copy of the run has finished or died;
    /// supervised reapers use it as their drain-and-exit signal, since
    /// cross-held survivor senders keep their channels from ever closing.
    /// `None` under a pure plan.
    pub shutdown: Option<Arc<AtomicBool>>,
    /// The native run's cancellation scope (`None` on the simulator and
    /// before the native transport hands one out). The supervisor flips
    /// it as a last resort after abandoning a wedged thread; a waiting
    /// reaper must observe it rather than sleep forever.
    pub cancel: Option<Arc<CancelScope>>,
    /// The stream's retention, whose entries for the dead set the reaper
    /// retargets to one deterministic survivor (next alive set in index
    /// order, matching the tile-hash writer's fall-through).
    pub retention: Arc<StreamRetention>,
    /// Host of each producer copy, indexed by copy (for charging replica
    /// retransmissions from the producer side).
    pub producer_hosts: Vec<HostId>,
    /// The stream's out-of-core state, so a released original gives back
    /// its spill slot and budget charge.
    pub ooc: Option<Arc<StreamOoc>>,
}

impl Reaper {
    fn shutdown_requested(&self) -> bool {
        self.shutdown
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Acquire))
    }

    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }

    pub fn run(mut self, env: ExecEnv) {
        let tick = self.ctl.timeout;
        // Phase 1: wait for the death without consuming anything the live
        // consumers should get; exit early if the stream drains and closes
        // first (death scheduled past the end of the run, or a supervised
        // set that never dies). Shutdown also ends the wait: every copy
        // has finished or died, so nothing this queue holds — or still
        // receives — will ever be consumed, and phase 2 absorbs it as
        // losses instead of insisting on emptiness (a wedged peer's
        // reaper may have replayed buffers here *after* this live set
        // already completed the cycle).
        loop {
            if self.cancelled() {
                return;
            }
            let now = env.now();
            let death = self.ctl.set_death(&self.sets[self.own_idx]);
            if let Some(t) = death {
                if now >= t {
                    break;
                }
            }
            if self.rx.is_drained() {
                // Nothing can arrive any more: whatever the set was sent,
                // its copies consumed.
                self.gate.lock().salvaged = self.uows;
                return;
            }
            if self.shutdown_requested() {
                break;
            }
            let tick_end = now + tick;
            let next = match death {
                Some(t) if t < tick_end => t,
                _ => tick_end,
            };
            env.delay(next - now);
        }
        // Phase 2: the set's consumers are dead (they stop dequeuing at
        // the death instant) or the whole run has retired; everything
        // still in — or still arriving on — this queue is ours to
        // salvage, until every producer-side sender hangs up (pure plan)
        // or the run shuts down (supervision). No cancellation check in
        // this loop: on a cancelled scope `recv_deadline` keeps yielding
        // queued items and reports `Closed` once empty, so the drain —
        // and its loss accounting — always completes.
        loop {
            if self.shutdown_requested() {
                // The run is over. Release the cross-held survivor
                // senders — peer reapers' queues can then close, and the
                // cross-hold cycle cannot keep two drained reapers alive —
                // and stop replaying: with every copy retired, a "replay"
                // has no consumer and must be accounted a loss.
                self.survivors.clear();
            }
            // Retarget before the gate can advance: a live peer keeps
            // reading until this gate is salvaged past its UOW, so the
            // replicas sent here are always consumed.
            self.retarget(&env);
            self.advance_gate(&env);
            let deadline = env.now() + tick;
            match self.rx.recv_deadline(&env, deadline) {
                DeadlineRecv::Closed => {
                    self.gate.lock().salvaged = self.uows;
                    return;
                }
                DeadlineRecv::TimedOut => {
                    if self.shutdown_requested() && self.rx.is_empty() {
                        return;
                    }
                }
                DeadlineRecv::Item(envelope) => self.salvage(&env, envelope),
            }
        }
    }

    /// Advance the dead set's gate through every end-of-work cycle whose
    /// producer markers have all been salvaged (dead producers excused),
    /// and mark those cycles salvaged. Because each producer's marker
    /// trails all of its data in the FIFO queue, and every caller
    /// retargets first, a cycle counted here has had every buffer
    /// addressed to the set already sent on to a survivor.
    fn advance_gate(&self, env: &ExecEnv) {
        let now = env.now();
        let mut g = self.gate.lock();
        while g.cycle() < self.uows {
            let cycle = g.cycle();
            if g.try_fire(cycle, Some(&self.ctl), now).is_none() {
                break;
            }
        }
        g.salvaged = g.cycle();
    }

    /// The deterministic target for redelivery: the next currently-alive
    /// survivor in index order after this dead set — the
    /// same fall-through order the tile-hash writer probes, so forwarded
    /// tiles land where post-death writes already go.
    fn forward_target(&self, env: &ExecEnv) -> Option<(usize, &ChanTx<Envelope>)> {
        let now = env.now();
        let n = self.sets.len();
        for k in 1..n {
            let idx = (self.own_idx + k) % n;
            if self.ctl.set_dead(&self.sets[idx], now) {
                continue;
            }
            if let Some((_, tx)) = self.survivors.iter().find(|&&(i, _)| i == idx) {
                return Some((idx, tx));
            }
        }
        None
    }

    /// Retarget the retention entries addressed to this dead set to the
    /// deterministic survivor and send it a replica of each. Called
    /// repeatedly through phase 2 — a producer that had not yet noticed
    /// the death keeps stamping buffers at this set, and each pass picks
    /// those up before the gate can advance past their UOW (their
    /// end-of-work markers trail them through this queue). With no
    /// survivor, or a send that fails, the entries stay retained and the
    /// end-of-run sweep counts them lost.
    fn retarget(&self, env: &ExecEnv) {
        let Some(target) = self.forward_target(env) else {
            return;
        };
        for (p, buf) in self.retention.retarget(self.own_idx, target.0) {
            let from = self
                .producer_hosts
                .get(p.copy as usize)
                .copied()
                .unwrap_or(self.sets[self.own_idx].host);
            self.redeliver(env, from, target, buf, p);
        }
    }

    /// Send `buf` (provenance `p`) from host `from` to the survivor
    /// `target` and tally it redelivered. The send goes past the queue
    /// bound: the survivors wait on this reaper, so it must not wait on
    /// them. A failed send (the survivor's queue is gone) leaves the entry
    /// retained for the sweep.
    fn redeliver(
        &self,
        env: &ExecEnv,
        from: HostId,
        (idx, tx): (usize, &ChanTx<Envelope>),
        buf: DataBuffer,
        p: Provenance,
    ) {
        let to = self.sets[idx].host;
        charge_transfer(env, &self.topo, from, to, buf.transport_bytes());
        let bytes = buf.wire_bytes();
        let envelope = Envelope::Data {
            buf,
            ack: None,
            prov: Some(p),
        };
        if tx.push(env, envelope).is_ok() {
            let mut t = self.ctl.tallies.lock();
            t.buffers_redelivered += 1;
            t.bytes_redelivered += bytes;
        }
    }

    /// Salvage of a queue original that carries a provenance: its replica
    /// travels ([`retarget`](Self::retarget) — sent now if no pass has
    /// moved it yet), so the original is released, its spill slot freed
    /// and its budget charge discharged, and its demand credit returned.
    fn release_original(
        &self,
        env: &ExecEnv,
        mut buf: DataBuffer,
        ack: Option<AckHandle>,
        p: Provenance,
    ) {
        if let Some(ack) = &ack {
            ack.state.ack(env, ack.copyset_idx);
        }
        if self.retention.addressee(p) == Some(self.own_idx) {
            self.retarget(env);
        }
        if let Some(ooc) = &self.ooc {
            ooc.drop_unread(&mut buf);
        }
    }

    /// Salvage of one non-replicable demand-driven data envelope: reroute
    /// it to a survivor through the producer's window accounting, or
    /// account it lost.
    fn reroute_acked(&self, env: &ExecEnv, buf: DataBuffer, ack: AckHandle) {
        // Under supervision a listed target may itself have died
        // since wiring; filter those out so two dead sets can't
        // ping-pong a buffer between their reapers forever.
        let now = env.now();
        let supervised = self.shutdown.is_some();
        let alive: Vec<usize> = self
            .survivors
            .iter()
            .map(|&(i, _)| i)
            .filter(|&i| !supervised || !self.ctl.set_dead(&self.sets[i], now))
            .collect();
        match ack.state.reroute(env, ack.copyset_idx, &alive) {
            Some(new_idx) => {
                // Replay: charge the retransmission from the
                // producer to the surviving host (emulated network,
                // sim only), then re-enqueue with the ack handle
                // re-addressed.
                charge_transfer(
                    env,
                    &self.topo,
                    ack.state.producer_host(),
                    self.sets[new_idx].host,
                    buf.transport_bytes(),
                );
                let bytes = buf.wire_bytes();
                let replay = Envelope::Data {
                    buf,
                    ack: Some(AckHandle {
                        state: ack.state.clone(),
                        copyset_idx: new_idx,
                    }),
                    prov: None,
                };
                let tx = match self
                    .survivors
                    .iter()
                    .find(|&&(i, _)| i == new_idx)
                    .map(|(_, tx)| tx)
                {
                    Some(tx) => tx,
                    None => unreachable!("reroute only picks from the survivor list"),
                };
                if tx.send(env, replay).is_ok() {
                    let mut t = self.ctl.tallies.lock();
                    t.buffers_replayed += 1;
                    t.bytes_replayed += bytes;
                } else {
                    self.lose(bytes);
                }
            }
            None => self.lose(buf.wire_bytes()),
        }
    }

    fn salvage(&self, env: &ExecEnv, envelope: Envelope) {
        match envelope {
            Envelope::Data {
                buf,
                ack,
                prov: Some(p),
            } => self.release_original(env, buf, ack, p),
            Envelope::Data {
                buf,
                ack: Some(ack),
                ..
            } => self.reroute_acked(env, buf, ack),
            // A non-replicable payload with no ack handle (RR/WRR or
            // content-routed `write_to`): the producer's routing decision
            // cannot be replayed safely.
            Envelope::Data { buf, .. } => self.lose(buf.wire_bytes()),
            // A producer's end-of-work marker: no consumer will act on it,
            // but it proves all of that producer's data for the cycle has
            // been salvaged — record it so the dead gate can advance.
            // Retarget first: the marker trails all of its producer's
            // stamps, so every replica it implies must be sent on before
            // the gate can release a waiting peer.
            Envelope::Eow { producer } => {
                self.retarget(env);
                self.gate.lock().mark(producer);
                self.advance_gate(env);
            }
            Envelope::UowDone => {}
        }
    }

    fn lose(&self, bytes: u64) {
        {
            let mut t = self.ctl.tallies.lock();
            t.buffers_lost += 1;
            t.bytes_lost += bytes;
        }
        if !self.ctl.allow_degraded {
            abort_run(
                &self.errors,
                RunError::NoSurvivingConsumers {
                    stream: self.stream.clone(),
                },
            );
        }
    }
}
