//! Dead-set salvage: a reaper process per doomed copy set. The reaper
//! waits (without consuming) until the set's death, then drains the dead
//! queue for the rest of the run.
//!
//! The producer's retention is the route back. The reaper retargets every
//! entry addressed to the dead set to one survivor and sends it a replica;
//! a queue original is released, since its replica travels instead.
//! Whatever no survivor settles is still retained when the run ends, and
//! the end-of-run sweep counts it lost then.
//!
//! The doomed sets are known upfront — those whose host the plan
//! crashes — so spawn wires one reaper per scheduled death, and its
//! survivors are the sets with no scheduled death.

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
use crate::fault::FaultCtl;
use crate::policy::{AckHandle, CopySetInfo};

/// Salvages the copy-set queue of a doomed copy set: waits without
/// consuming until the set dies, then drains the queue for the rest of
/// the run (see the module docs for what it does with each buffer).
pub(crate) struct Reaper {
    pub ctl: Arc<FaultCtl>,
    pub rx: ChanRx<Envelope>,
    /// Redelivery targets: `(copyset_idx, sender)` of every set with *no*
    /// scheduled death. Holding senders keeps a channel open, so the
    /// reaper must not hold one to its own queue (it would never see it
    /// close) nor to another doomed set's (two reapers would keep each
    /// other alive).
    pub survivors: Vec<(usize, ChanTx<Envelope>)>,
    pub sets: Vec<CopySetInfo>,
    /// This reaper's own copy set (`sets[own_idx]`), for the death oracle.
    pub own_idx: usize,
    pub topo: Topology,
    /// The dead set's own end-of-work gate: the reaper advances its cycle
    /// and its salvaged mark as salvage proceeds, so live peer sets know
    /// when no more buffers for a given UOW can arrive from it.
    pub gate: Arc<Mutex<UowGate>>,
    pub uows: u32,
    /// The native run's cancellation scope (`None` on the simulator). The
    /// executor flips it when a run aborts; a waiting reaper must observe
    /// it rather than sleep until a death that may lie past the run's end.
    pub cancel: Option<Arc<CancelScope>>,
    /// The stream's retention, whose entries for the dead set the reaper
    /// retargets to one deterministic survivor (the next survivor in index
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
    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }

    pub fn run(self, env: ExecEnv) {
        let tick = self.ctl.timeout;
        let death = self.ctl.plan.host_death(self.sets[self.own_idx].host);
        // Phase 1: wait for the death without consuming anything the live
        // consumers should get; exit early if the stream drains and closes
        // first (death scheduled past the end of the run).
        loop {
            if self.cancelled() {
                return;
            }
            let now = env.now();
            if death.is_some_and(|t| now >= t) {
                break;
            }
            if self.rx.is_drained() {
                // Nothing can arrive any more: whatever the set was sent,
                // its copies consumed.
                self.gate.lock().salvaged = self.uows;
                return;
            }
            let tick_end = now + tick;
            let next = match death {
                Some(t) if t < tick_end => t,
                _ => tick_end,
            };
            env.delay(next - now);
        }
        // Phase 2: the set's consumers are dead (they stop dequeuing at
        // the death instant); everything still in — or still arriving on —
        // this queue is ours to salvage, until every producer-side sender
        // hangs up. No cancellation check in this loop: on a cancelled
        // scope `recv_deadline` keeps yielding queued items and reports
        // `Closed` once empty, so the drain always completes.
        loop {
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
                DeadlineRecv::TimedOut => {}
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

    /// The deterministic target for redelivery: the next survivor in index
    /// order after this dead set — the same fall-through order the
    /// tile-hash writer probes, so forwarded tiles land where post-death
    /// writes already go. Survivors have no scheduled death, so the
    /// first one found is alive.
    fn forward_target(&self) -> Option<(usize, &ChanTx<Envelope>)> {
        let n = self.sets.len();
        (1..n).map(|k| (self.own_idx + k) % n).find_map(|idx| {
            self.survivors
                .iter()
                .find(|&&(i, _)| i == idx)
                .map(|(_, tx)| (idx, tx))
        })
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
        let Some(target) = self.forward_target() else {
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

    /// Salvage of a queue original: its replica travels
    /// ([`retarget`](Self::retarget) — sent now if no pass has moved it
    /// yet), so the original is released, its spill slot freed and its
    /// budget charge discharged, and its demand credit returned. Every
    /// buffer on a stream with a reaper was stamped, so `prov` is `None`
    /// for no queued original.
    fn release_original(
        &self,
        env: &ExecEnv,
        mut buf: DataBuffer,
        ack: Option<AckHandle>,
        prov: Option<Provenance>,
    ) {
        if let Some(ack) = &ack {
            ack.state.ack(env, ack.copyset_idx);
        }
        if prov.and_then(|p| self.retention.addressee(p)) == Some(self.own_idx) {
            self.retarget(env);
        }
        if let Some(ooc) = &self.ooc {
            ooc.drop_unread(&mut buf);
        }
    }

    fn salvage(&self, env: &ExecEnv, envelope: Envelope) {
        match envelope {
            Envelope::Data { buf, ack, prov } => self.release_original(env, buf, ack, prov),
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
}
