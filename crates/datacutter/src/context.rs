//! The runtime context handed to each filter copy: stream reads/writes,
//! CPU work, and disk I/O, all charged to the emulated cluster when the
//! run executes on the virtual-time simulator. On the native wall-clock
//! executor the same interface applies — reads and writes move real data
//! through real channels, delivered and acknowledged in the copy's own
//! thread — but cost-charging operations (`compute`, `disk_read`) only
//! tally metrics, since there is no emulated hardware to occupy.

use std::collections::VecDeque;
use std::sync::Arc;

use hetsim::{DeadlineRecv, Env, HostId, SimDuration, SimTime, Topology};
use parking_lot::Mutex;

use crate::budget::StreamOoc;
use crate::buffer::DataBuffer;
use crate::fault::{abort_run, raise_killed, CopyHealth, ErrorCell, FaultCtl, RunError};
use crate::filter::CopyInfo;
use crate::metrics::CopyCell;
use crate::policy::{AckHandle, WriterState};
use crate::runtime::delivery::{Closed, CourierMsg, Delivery, Envelope, OutMsg};
use crate::runtime::eow::UowGate;
use crate::runtime::exec::{ChanRx, ChanTx, ExecEnv};
use crate::runtime::retain::{Provenance, StreamRetention};

pub(crate) struct InputPort {
    pub rx: ChanRx<Envelope>,
    pub inject_tx: ChanTx<Envelope>,
    /// The copy set's ack courier handler under virtual time; `None` when
    /// this copy credits demand windows and settles retention itself.
    pub courier_tx: Option<ChanTx<CourierMsg>>,
    pub gate: Arc<Mutex<UowGate>>,
    /// Gates of the *other* copy sets on this stream that can die. A dead
    /// peer's reaper may still send buffers into this queue, so this copy
    /// does not finish the UOW until every such peer has finished it too
    /// (see [`FilterCtx::read`]).
    pub peer_gates: Vec<Arc<Mutex<UowGate>>>,
    pub copyset_counters: crate::metrics::CopySetCell,
    /// The stream's retention, settled with this copy's journal and
    /// re-fetched from after a supervised restart (`None` ⇒ no copy can
    /// die, no recovery bookkeeping on the read path).
    pub retention: Option<Arc<StreamRetention>>,
    /// Provenances this copy consumed in the current UOW. Settled at
    /// clean end-of-work; harvested by
    /// [`FilterCtx::prepare_restart_replay`] when the copy restarts
    /// mid-UOW instead.
    pub journal: Vec<Provenance>,
    /// Replicas re-fetched for a restarted incarnation, served by `read`
    /// before the shared queue (bypassing queue capacity, so a rebuild
    /// can never deadlock on a full channel).
    pub replay: VecDeque<(Provenance, DataBuffer)>,
    /// The crashed incarnation had already consumed this UOW's
    /// end-of-work token; re-signal end-of-work once `replay` drains.
    pub replay_done: bool,
    /// This copy consumed its end-of-work token this UOW and keeps reading
    /// redelivered buffers until its peers finish.
    pub eow_taken: bool,
    /// Out-of-core state of this stream (`None` ⇒ no memory budget; the
    /// read path never touches the ledger or ring).
    pub ooc: Option<Arc<StreamOoc>>,
}

pub(crate) struct OutputPort {
    pub writer: WriterState,
    pub outbox: Outbox,
    /// Number of consumer copy sets (valid `write_to` targets).
    pub targets: usize,
    /// The stream's retention when copies can die — every replicable
    /// buffer written is stamped with a provenance and retained until
    /// the consumer settles it.
    pub retention: Option<Arc<StreamRetention>>,
    /// Out-of-core state of this stream (`None` ⇒ no memory budget; the
    /// write path never touches the ledger or ring).
    pub ooc: Option<Arc<StreamOoc>>,
}

/// Where an output port's messages go: to the copy's outbox sender
/// handler under virtual time, or straight through [`Delivery`] in the
/// copy's own thread (see [`ExecutorChoice::relays`](crate::ExecutorChoice::relays)).
pub(crate) enum Outbox {
    Sender(ChanTx<OutMsg>),
    Inline(Delivery),
}

impl OutputPort {
    fn send(&mut self, env: &ExecEnv, msg: OutMsg) -> Result<(), Closed> {
        match &mut self.outbox {
            Outbox::Sender(tx) => tx.send(env, msg).map_err(|_| Closed),
            Outbox::Inline(d) => d.deliver(env, msg),
        }
    }
}

/// Execution context of one filter copy. Provides the stream interface
/// (read / write with end-of-work), plus cost-charging compute and disk
/// operations.
pub struct FilterCtx {
    pub(crate) env: ExecEnv,
    pub(crate) topo: Topology,
    pub(crate) info: CopyInfo,
    pub(crate) uow: u32,
    pub(crate) inputs: Vec<InputPort>,
    pub(crate) outputs: Vec<OutputPort>,
    pub(crate) metrics: CopyCell,
    pub(crate) trace: Option<(hetsim::Trace, String)>,
    /// Fault control block when a plan is active (`None` ⇒ fault-free
    /// fast path, bit-identical to the pre-fault runtime).
    pub(crate) faults: Option<Arc<FaultCtl>>,
    /// This copy's scheduled crash time, if its host is on the plan.
    pub(crate) my_death: Option<SimTime>,
    /// Run-wide recycler for `DataBuffer` payload boxes; shared by every
    /// copy so boxes released by a consumer feed the next producer `make`.
    pub(crate) slab: crate::buffer::BufferSlab,
    /// Filter name (for structured errors).
    pub(crate) name: Arc<str>,
    /// Shared cell for the run's first structured error.
    pub(crate) errors: ErrorCell,
    /// Heartbeat record scanned by the supervisor (supervised runs only).
    pub(crate) health: Option<Arc<CopyHealth>>,
    /// Per-port latch: `true` once `read` returned end-of-work for the
    /// current UOW. Keeps a supervised restart of the same UOW from
    /// blocking on a port whose (single) `UowDone` token it already
    /// consumed before panicking. Reset by [`begin_uow`](Self::begin_uow).
    pub(crate) port_done: Vec<bool>,
}

impl FilterCtx {
    /// Unwind this copy as crashed if its host's failure time has passed.
    /// Called at the fail-stop observation points: stream read and write
    /// boundaries.
    fn check_killed(&self) {
        if let Some(d) = self.my_death {
            if self.env.now() >= d {
                raise_killed();
            }
        }
    }

    /// Record a heartbeat (supervised runs; no-op otherwise).
    fn beat(&self) {
        if let Some(h) = &self.health {
            h.beat(self.env.now());
        }
    }

    /// Enter unit of work `uow`: advances the cycle counter and re-arms the
    /// per-port end-of-work latches. Called by the copy loop at each cycle
    /// start — and *not* on a supervised restart of the same UOW, so
    /// already-consumed `UowDone` tokens stay consumed.
    pub(crate) fn begin_uow(&mut self, uow: u32) {
        // Drop stale restart replicas: they belong to the finished UOW.
        for input in &mut self.inputs {
            while let Some((_, buf)) = input.replay.pop_front() {
                self.slab.repool(buf);
            }
            input.replay_done = false;
            input.eow_taken = false;
        }
        self.uow = uow;
        for d in self.port_done.iter_mut() {
            *d = false;
        }
    }

    /// Leave the current unit of work (the filter's `finalize` returned):
    /// a port the filter did not drain to end-of-work still counts as
    /// ended for the peers waiting on this copy, and everything journaled
    /// is flushed downstream, so it is settled.
    pub(crate) fn end_uow(&mut self) {
        for port in 0..self.inputs.len() {
            self.end_port(port);
            self.settle_port(port);
        }
    }

    /// Record in this copy set's gate that this copy consumed its
    /// end-of-work on `port` (only when copies can die: nobody reads it
    /// otherwise).
    fn end_port(&self, port: usize) {
        if self.inputs[port].retention.is_some() {
            let mut g = self.inputs[port].gate.lock();
            g.end(self.info.copy_index, self.uow);
        }
    }

    /// Settle input `port`'s journal: report the provenances this copy
    /// consumed (and whose effects are now flushed) to the stream's
    /// retention — over the courier's reverse path under virtual time —
    /// releasing the retained replicas. No-op without retention or when
    /// nothing was journaled.
    pub(crate) fn settle_port(&mut self, port: usize) {
        let input = &mut self.inputs[port];
        if input.retention.is_none() || input.journal.is_empty() {
            return;
        }
        let items = std::mem::take(&mut input.journal);
        match &input.courier_tx {
            Some(tx) => {
                let _ = tx.send(&self.env, CourierMsg::Settle { items });
            }
            None => {
                if let Some(r) = &input.retention {
                    r.settle(&items);
                }
            }
        }
    }

    /// Rebuild a supervised restart's lost input state: the crashed
    /// incarnation's journaled (consumed-but-unflushed) buffers are
    /// re-fetched from the stream's retention and queued on the port's
    /// local replay line so the fresh filter instance consumes them
    /// before the shared queue. A journaled entry is unsettled, so its
    /// replica is still retained.
    pub(crate) fn prepare_restart_replay(&mut self) {
        let Some(ctl) = self.faults.clone() else {
            return;
        };
        let (mut refetched, mut refetched_bytes) = (0u64, 0u64);
        for (i, input) in self.inputs.iter_mut().enumerate() {
            let Some(retention) = input.retention.as_ref() else {
                continue;
            };
            for p in std::mem::take(&mut input.journal) {
                if let Some(buf) = retention.fetch(p.copy, p.seq) {
                    refetched += 1;
                    refetched_bytes += buf.wire_bytes();
                    input.replay.push_back((p, buf));
                }
            }
            if self.port_done[i] {
                self.port_done[i] = false;
                input.replay_done = true;
            }
        }
        let mut t = ctl.tallies.lock();
        t.buffers_redelivered += refetched;
        t.bytes_redelivered += refetched_bytes;
    }

    /// Release every copy of `port`'s set — one `UowDone` each — once the
    /// whole producer side is done (dead producers counted done).
    /// Otherwise the next liveness probe retries. What a dead peer set's
    /// reaper still sends here is read in the survivor wait (see
    /// [`read`](Self::read)).
    fn try_fire_gate(&self, port: usize) {
        let now = self.env.now();
        let fired = self.inputs[port]
            .gate
            .lock()
            .try_fire(self.uow, self.faults.as_deref(), now);
        for _ in 0..fired.unwrap_or(0) {
            let _ = self.inputs[port]
                .inject_tx
                .push(&self.env, Envelope::UowDone);
        }
    }

    /// True once every peer set on `port` that can die has finished the
    /// current UOW — consumed its end-of-work, or died and been drained by
    /// its reaper (see [`UowGate::finished`]).
    fn peers_finished(&self, port: usize, ctl: &FaultCtl) -> bool {
        let now = self.env.now();
        self.inputs[port]
            .peer_gates
            .iter()
            .all(|g| g.lock().finished(self.uow, ctl, now))
    }

    /// End-of-work on `port` is final: latch it and settle the journal.
    fn finish_port(&mut self, port: usize) -> Option<DataBuffer> {
        self.port_done[port] = true;
        self.settle_port(port);
        None
    }

    /// If this host is inside a scheduled stall window, sleep until the
    /// window ends (a transiently frozen host performs no work but does
    /// not lose state).
    fn stall_if_frozen(&self) {
        if let Some(ctl) = &self.faults {
            let now = self.env.now();
            if let Some(end) = ctl.plan.stall_end(self.info.host, now) {
                self.env.delay(end - now);
            }
        }
    }

    /// Charge `n` spill-ring bytes to this host's disk model (virtual
    /// time only), stretched by any active disk-degradation window: a
    /// disk at factor `f` takes `1/f` the healthy time, so the extra
    /// `elapsed · (1/f − 1)` is slept on top of the model's charge.
    fn charge_spill_disk(&self, n: u64, write: bool, storage: &crate::storage::StorageCtl) {
        if n == 0 {
            return;
        }
        if let ExecEnv::Sim(e) = &self.env {
            let host = self.topo.host(self.info.host);
            if let Some(d) = host.disks.first() {
                let t0 = e.now();
                if write {
                    d.write(e, n);
                } else {
                    d.read(e, n);
                }
                let f = storage.degrade_factor(self.info.host, t0);
                if f < 1.0 {
                    let spent = e.now() - t0;
                    e.delay(spent.mul_f64(1.0 / f - 1.0));
                }
            }
        }
    }

    /// Write-side out-of-core step for one outgoing buffer: charge the
    /// stream's budget share and, when the stream is over it, park the
    /// payload in the spill ring — *after* the retention stamp (the
    /// recovery replica is taken from the in-memory payload) and
    /// *before* the outbox send. The spill write is charged to this
    /// host's disk model under the virtual-time executor. Returns the
    /// spill's `(ring_bytes, elapsed)`, both zero when nothing spilled.
    ///
    /// This is the write side of the storage ladder: the frame is encoded
    /// (and checksummed) once; a transient write error — injected by the
    /// plan or real — is retried under seeded jittered backoff up to the
    /// storage retry budget; a write path still failing past the budget
    /// re-creates a wedged ring once; and a write that fails even then is
    /// *denied*, not fatal — the payload stays resident over budget with
    /// its charge riding on the buffer, which costs memory headroom but
    /// never bits or an abort.
    fn ooc_outgoing(&mut self, port: usize, buf: &mut DataBuffer) -> (u64, SimDuration) {
        let Some(ooc) = self.outputs[port].ooc.clone() else {
            return (0, SimDuration::ZERO);
        };
        if !buf.is_spillable() || buf.is_spilled() {
            return (0, SimDuration::ZERO);
        }
        let bytes = buf.wire_bytes();
        if !ooc.charge(bytes) {
            // Staying resident: the charge rides with the buffer until the
            // consumer claims it. The mark keeps charge/discharge paired —
            // redelivered retention replicas (never charged) carry no mark and
            // must never be discharged.
            buf.set_budget_charged();
            return (0, SimDuration::ZERO);
        }
        let storage = ooc.storage.clone();
        let Some(frame) = buf.spill_frame(storage.checksum()) else {
            // Unreachable given the spillability checks above; degrade
            // safely rather than trusting it.
            buf.set_budget_charged();
            return (0, SimDuration::ZERO);
        };
        let t0 = self.env.now();
        let host = self.info.host;
        let op = storage.next_op();
        let mut attempt: u32 = 0;
        loop {
            let outcome = if storage.injected_disk_error(
                host,
                hetsim::DiskFaultKind::Write,
                self.env.now(),
                op,
                attempt as u64,
            ) {
                Err(crate::storage::StorageError::Io {
                    what: "spill write",
                    message: "injected disk write error".into(),
                })
            } else {
                storage.ring().and_then(|ring| match ring.spill(&frame) {
                    Ok(ticket) => Ok((ring, ticket)),
                    Err(e) => Err(crate::storage::StorageError::Io {
                        what: "spill write",
                        message: e.to_string(),
                    }),
                })
            };
            match outcome {
                Ok((ring, ticket)) => {
                    // The in-memory payload box drops here — that drop is
                    // the residency release the budget manager banks on.
                    buf.park(ring, ticket);
                    ooc.discharge(bytes);
                    let n = frame.len() as u64;
                    self.charge_spill_disk(n, true, &storage);
                    return (n, self.env.now() - t0);
                }
                Err(err) => {
                    if attempt < storage.retry_budget() {
                        storage.note_retry();
                        self.env.delay(storage.backoff(op, attempt));
                        attempt += 1;
                        continue;
                    }
                    // The retry budget is spent: the ring itself may be
                    // wedged (e.g. ENOSPC on the temp filesystem).
                    // Re-create it once and give the ladder one more rung
                    // — the attempt key advances, so a genuinely
                    // persistent error window denies this attempt too.
                    if storage.recreate_ring(host, self.env.now()) {
                        attempt += 1;
                        continue;
                    }
                    // Bottom of the ladder: deny the spill and keep the
                    // payload resident over budget. The charge rides with
                    // the buffer (conservation intact), the denial is
                    // tallied, and the run continues — degraded in memory
                    // headroom, identical in bits.
                    storage.note_spill_denied(host, self.env.now(), &err.to_string());
                    buf.set_budget_charged();
                    return (0, self.env.now() - t0);
                }
            }
        }
    }

    /// Read-side out-of-core step for one claimed incoming buffer: fault
    /// a spilled payload back in (charging the disk model for the read),
    /// or release a resident spillable payload's budget charge now that
    /// it left the stream queue.
    ///
    /// This is the read side of the storage ladder. Transient read
    /// errors (injected or real — a failed physical read leaves the ring
    /// ticket intact) are retried under seeded backoff; a detected
    /// corruption (checksum mismatch or undecodable frame — the slot is
    /// already freed, so there is nothing left to retry) or a read that
    /// fails past the budget falls back to loss-accounted recovery for
    /// this one buffer. Returns `false` when the buffer was lost that
    /// way (tallied; the caller suppresses it before any delivery
    /// counter moves, so `consumed + lost == produced` stays exact) —
    /// with no fault machinery active to account the loss, the run
    /// aborts with the structured storage error instead.
    fn ooc_incoming(&mut self, port: usize, buf: &mut DataBuffer) -> bool {
        let Some(ooc) = self.inputs[port].ooc.clone() else {
            return true;
        };
        if !buf.is_spilled() {
            if buf.take_budget_charged() {
                ooc.discharge(buf.wire_bytes());
            }
            return true;
        }
        let storage = ooc.storage.clone();
        let host = self.info.host;
        let t0 = self.env.now();
        let op = storage.next_op();
        let mut attempt: u32 = 0;
        let error = loop {
            if storage.injected_disk_error(
                host,
                hetsim::DiskFaultKind::Read,
                self.env.now(),
                op,
                attempt as u64,
            ) {
                if attempt < storage.retry_budget() {
                    storage.note_retry();
                    self.env.delay(storage.backoff(op, attempt));
                    attempt += 1;
                    continue;
                }
                break crate::storage::StorageError::Io {
                    what: "fault-in read",
                    message: "injected disk read error (retry budget exhausted)".into(),
                };
            }
            let now = self.env.now();
            let tamper = |frame: &mut Vec<u8>| {
                if let Some(bit) = storage.injected_corrupt_bit(
                    host,
                    now,
                    op,
                    attempt as u64,
                    frame.len() as u64 * 8,
                ) {
                    frame[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
            };
            match buf.fault_in(&self.slab, storage.checksum(), &tamper) {
                Ok(n) => {
                    self.charge_spill_disk(n, false, &storage);
                    let mut m = self.metrics.lock();
                    m.disk_bytes += n;
                    m.disk_elapsed += self.env.now() - t0;
                    return true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    // The frame read back is not the frame written. The
                    // ring slot is already freed and the payload
                    // tombstoned — corruption is detected, accounted,
                    // and final.
                    storage.note_corruption(host, self.env.now(), &e.to_string());
                    break crate::storage::StorageError::Corrupt {
                        what: "fault-in decode",
                        detail: e.to_string(),
                    };
                }
                Err(e) => {
                    if attempt < storage.retry_budget() {
                        storage.note_retry();
                        self.env.delay(storage.backoff(op, attempt));
                        attempt += 1;
                        continue;
                    }
                    // Unreadable past the budget: free the slot (the
                    // ticket is still valid after a failed physical
                    // read) and give the buffer up.
                    buf.discard_spilled();
                    break crate::storage::StorageError::Io {
                        what: "fault-in read",
                        message: e.to_string(),
                    };
                }
            }
        };
        match self.faults.as_ref() {
            Some(ctl) => {
                // Fall back to PR 5's loss-accounted recovery for this
                // one buffer: tally the loss here, before any delivery
                // counter moves, and let the caller suppress it.
                let mut t = ctl.tallies.lock();
                t.buffers_lost += 1;
                t.bytes_lost += buf.wire_bytes();
                false
            }
            None => abort_run(&self.errors, RunError::Storage { error }),
        }
    }

    /// This copy's identity (copy index, total copies, host).
    pub fn copy(&self) -> CopyInfo {
        self.info
    }

    /// True when the run executes under a fault plan that can kill hosts.
    /// Failure is fail-stop at the read boundary: whatever a copy holds in
    /// memory across buffers dies with it. A replicable input comes back
    /// from its producer's retention until this copy settles it at the
    /// end of its unit of work, but a non-replicable one is replayed only
    /// while still queued. A filter reading non-replicable payloads should
    /// therefore flush per input buffer while this returns true instead
    /// of batching output across buffers.
    pub fn fail_stop_active(&self) -> bool {
        self.faults.as_ref().is_some_and(|c| c.crashes_possible())
    }

    /// Index of the current unit of work (0-based). A work cycle runs
    /// `init` → `process` → `finalize` once per UOW; applications use this
    /// to select what the cycle operates on (e.g. which timestep to
    /// render).
    pub fn uow(&self) -> u32 {
        self.uow
    }

    /// The run-wide [`BufferSlab`](crate::buffer::BufferSlab). Filters that
    /// produce and consume buffers in steady state should build them with
    /// `slab.make` and unwrap them with `slab.recycle_ctx` so the payload
    /// boxes cycle instead of being reallocated per buffer.
    pub fn buffer_slab(&self) -> &crate::buffer::BufferSlab {
        &self.slab
    }

    /// Host this copy runs on.
    pub fn host(&self) -> HostId {
        self.info.host
    }

    /// Current time on the run's clock: virtual time under the simulator,
    /// wall-clock time since run start under the native executor.
    pub fn now(&self) -> hetsim::SimTime {
        self.env.now()
    }

    /// The simulation environment, when this copy runs on the virtual-time
    /// executor (for advanced filters spawning helper processes). `None`
    /// under the native executor, where there is no simulation to drive.
    pub fn sim_env(&self) -> Option<&Env> {
        self.env.sim()
    }

    /// Number of input streams (read ports).
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of output streams (write ports).
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Read the next buffer from input `port`. Returns `None` at
    /// end-of-work for the current unit of work (all upstream copies
    /// finished and the queue drained). Acknowledges demand-driven buffers
    /// as they are dequeued — "the buffer is now being processed", as the
    /// paper puts it.
    ///
    /// A copy whose stream has peer sets that can die keeps reading after
    /// its end-of-work token: a peer that dies later has its retained
    /// buffers redelivered here. It returns `None` once every such peer
    /// finished the UOW and the queue is empty. A waiting copy whose host
    /// dies dies at its next read like any other:
    /// its journal is still retained, so its set's reaper retargets it.
    pub fn read(&mut self, port: usize) -> Option<DataBuffer> {
        if let Some((p, buf)) = self.inputs[port].replay.pop_front() {
            // Restart rebuild: serve the re-fetched replicas of the
            // crashed incarnation's consumed buffers before touching the
            // shared queue. Re-journal each one — it is being processed
            // again, and its replica must be settled (or re-fetched on a
            // second crash) like any first delivery. Deliberately not
            // counted in stream/copy metrics: the original delivery was
            // already counted by this copy.
            self.inputs[port].journal.push(p);
            return Some(buf);
        }
        if self.inputs[port].replay_done {
            // The crashed incarnation had consumed this UOW's (single)
            // end-of-work token before dying; now that the rebuild has
            // drained, re-signal end-of-work from the latch.
            self.inputs[port].replay_done = false;
            return self.finish_port(port);
        }
        if self.port_done[port] {
            // A restarted copy re-reading a port whose end-of-work it
            // already consumed this UOW: the token is gone, so answer
            // from the latch instead of blocking on an empty queue.
            return None;
        }
        loop {
            let waiting = self.inputs[port].eow_taken;
            self.check_killed();
            self.beat();
            let span = self.trace.as_ref().map(|(t, who)| {
                (
                    t.clone(),
                    t.begin_at(self.env.now(), "read-wait", who.clone()),
                )
            });
            let t0 = self.env.now();
            let liveness = self
                .faults
                .as_ref()
                .filter(|c| c.crashes_possible())
                .cloned();
            let got = if let Some(ctl) = liveness {
                // Liveness-aware receive: wake every `timeout` to probe the
                // gate for dead producers (and to observe our own death).
                let tick = t0 + ctl.timeout;
                let deadline = match self.my_death {
                    Some(d) if d < tick => d,
                    _ => tick,
                };
                let recv = if waiting {
                    if self.peers_finished(port, &ctl) && self.inputs[port].rx.is_empty() {
                        return self.finish_port(port);
                    }
                    let pending = self.inputs[port].gate.lock().sibling_pending(
                        self.info.copy_index,
                        self.uow,
                        &ctl,
                        t0,
                    );
                    if pending {
                        // A live sibling's token is still queued: leave
                        // the queue to it for a tick.
                        self.env.delay(deadline - t0);
                        DeadlineRecv::TimedOut
                    } else {
                        self.inputs[port].rx.recv_deadline(&self.env, deadline)
                    }
                } else {
                    self.inputs[port].rx.recv_deadline(&self.env, deadline)
                };
                match recv {
                    DeadlineRecv::Item(e) => Some(e),
                    DeadlineRecv::Closed => None,
                    DeadlineRecv::TimedOut => {
                        self.metrics.lock().read_wait += self.env.now() - t0;
                        if let Some((t, s)) = span {
                            t.end_at(self.env.now(), s);
                        }
                        self.check_killed();
                        if !waiting {
                            self.try_fire_gate(port);
                        }
                        continue;
                    }
                }
            } else {
                self.inputs[port].rx.recv(&self.env)
            };
            let waited = self.env.now() - t0;
            {
                let mut m = self.metrics.lock();
                m.read_wait += waited;
            }
            if let Some((t, s)) = span {
                t.end_at(self.env.now(), s);
            }
            match got {
                Some(Envelope::Data { mut buf, ack, prov }) => {
                    if let Some(ack) = ack {
                        // Under virtual time the courier pays the reverse
                        // network path so this copy keeps working.
                        match &self.inputs[port].courier_tx {
                            Some(tx) => {
                                let _ = tx.send(&self.env, CourierMsg::Ack(ack));
                            }
                            None => ack.state.ack(&self.env, ack.copyset_idx),
                        }
                    }
                    if let Some(p) = prov {
                        if p.uow != self.uow {
                            // A replica of a unit of work this copy has
                            // left: a peer died after this set finished
                            // it. Processing it now would mix it into this
                            // UOW, so drop it; it stays retained and the
                            // end-of-run sweep counts it lost.
                            if let Some(ooc) = self.inputs[port].ooc.as_ref() {
                                ooc.drop_unread(&mut buf);
                            }
                            self.slab.repool(buf);
                            continue;
                        }
                        self.inputs[port].journal.push(p);
                    }
                    if !self.ooc_incoming(port, &mut buf) {
                        // The storage plane lost this buffer (corrupt or
                        // unreadable spill frame); the loss is already
                        // tallied. Recycle the box and read on — none of
                        // the delivery counters below move, so
                        // `consumed + lost == produced` stays exact.
                        self.slab.repool(buf);
                        continue;
                    }
                    {
                        let mut m = self.metrics.lock();
                        m.buffers_in += 1;
                        m.bytes_in += buf.wire_bytes();
                    }
                    {
                        let mut c = self.inputs[port].copyset_counters.lock();
                        c.buffers_received += 1;
                        c.bytes_received += buf.wire_bytes();
                    }
                    return Some(buf);
                }
                Some(Envelope::Eow { producer }) => {
                    // One producer copy finished this UOW.
                    self.inputs[port].gate.lock().mark(producer);
                    self.try_fire_gate(port);
                }
                // Every live sibling took its own token before this copy
                // read on, so this one belonged to a dead copy.
                Some(Envelope::UowDone) if waiting => {}
                Some(Envelope::UowDone) => {
                    self.end_port(port);
                    if !self.inputs[port].peer_gates.is_empty() {
                        self.inputs[port].eow_taken = true;
                        continue;
                    }
                    // Clean end-of-work: everything journaled this UOW is
                    // flushed downstream, so its retained replicas can go.
                    return self.finish_port(port);
                }
                None => return self.finish_port(port),
            }
        }
    }

    /// Write `buf` to output `port`. The writer policy picks the consumer
    /// copy set (demand-driven writers may block here for window credit).
    /// Under virtual time the transfer is overlapped via a per-copy
    /// outbox; on the native executor this copy delivers the buffer
    /// itself, so a full consumer queue — or a fault plan's drop, delay or
    /// NIC-degrade stall — is waited out here, as a blocking socket send
    /// would be.
    ///
    /// Deliberately *no* crash check here: failure is fail-stop at the
    /// read boundary. A demand-driven buffer is acknowledged when it is
    /// dequeued ("the buffer is now being processed"), so killing a copy
    /// between dequeue and write would lose acknowledged work that replay
    /// can never restore. Letting the in-flight unit flush keeps a
    /// demand-driven run bit-identical after recovery.
    pub fn write(&mut self, port: usize, buf: DataBuffer) {
        self.beat();
        let t0 = self.env.now();
        let out = &mut self.outputs[port];
        let idx = out.writer.select(&self.env);
        let ack = out.writer.demand_state().map(|state| AckHandle {
            state,
            copyset_idx: idx,
        });
        self.send_data(port, idx, ack, buf, t0);
    }

    /// Write `buf` to output `port` addressed to a *specific* consumer
    /// copy set (by its copy-set index), bypassing the stream's writer
    /// policy. Used for content-based routing — e.g. image-partitioned
    /// rendering, where a triangle must go to the raster copy set owning
    /// its screen region. No demand-driven acknowledgment is generated.
    pub fn write_to(&mut self, port: usize, copyset_idx: usize, buf: DataBuffer) {
        self.beat();
        let t0 = self.env.now();
        self.send_data(port, copyset_idx, None, buf, t0);
    }

    /// The shared tail of every write: stamp the retention provenance,
    /// take the out-of-core step, hand the envelope to delivery and
    /// account the time since `t0` as write wait (spill time apart).
    fn send_data(
        &mut self,
        port: usize,
        copyset_idx: usize,
        ack: Option<AckHandle>,
        mut buf: DataBuffer,
        t0: SimTime,
    ) {
        let prov = self.outputs[port]
            .retention
            .as_ref()
            .and_then(|r| r.stamp(self.info.copy_index, self.uow, copyset_idx, &buf));
        let bytes = buf.wire_bytes();
        let (spill_bytes, spill_elapsed) = self.ooc_outgoing(port, &mut buf);
        let msg = OutMsg::Data {
            copyset_idx,
            envelope: Envelope::Data { buf, ack, prov },
        };
        if self.outputs[port].send(&self.env, msg).is_err() {
            abort_run(
                &self.errors,
                RunError::ChannelClosed {
                    filter: self.name.to_string(),
                    copy: self.info.copy_index,
                    host: self.info.host,
                    what: "stream",
                },
            );
        }
        let waited = self.env.now() - t0 - spill_elapsed;
        let mut m = self.metrics.lock();
        m.buffers_out += 1;
        m.bytes_out += bytes;
        m.write_wait += waited;
        m.disk_bytes += spill_bytes;
        m.disk_elapsed += spill_elapsed;
    }

    /// Write `buf` to output `port` addressed to the copy set *owning*
    /// tile `tile` under the stream's tile-hash mapping (`tile mod sets`,
    /// falling through detectably-dead sets deterministically). This is
    /// the producer half of [`WritePolicy::TileHash`]: the writer stamps
    /// each buffer with the tile it belongs to and delivery becomes
    /// content-addressed. Like [`write_to`](Self::write_to), no
    /// demand-driven acknowledgment is generated.
    ///
    /// [`WritePolicy::TileHash`]: crate::WritePolicy::TileHash
    pub fn write_tile(&mut self, port: usize, tile: u64, buf: DataBuffer) {
        let idx = self.outputs[port].writer.select_tile(&self.env, tile);
        self.write_to(port, idx, buf);
    }

    /// Number of consumer copy sets on output `port` (the valid targets
    /// for [`write_to`](Self::write_to)).
    pub fn consumer_copysets(&self, port: usize) -> usize {
        self.outputs[port].targets
    }

    /// Emit end-of-work markers on every output stream (runtime use, at
    /// the end of each work cycle).
    pub(crate) fn emit_eow(&mut self) {
        for out in &mut self.outputs {
            let _ = out.send(&self.env, OutMsg::Eow);
        }
    }

    /// Charge `work` seconds of reference-speed computation to this host's
    /// CPU (subject to its speed factor, other filter copies, and
    /// background jobs). On the native executor there is no emulated CPU
    /// to occupy: the call only tallies the work in the copy's metrics.
    pub fn compute(&mut self, work: SimDuration) {
        self.beat();
        self.stall_if_frozen();
        let span = self.trace.as_ref().map(|(t, who)| {
            (
                t.clone(),
                t.begin_at(self.env.now(), "compute", who.clone()),
            )
        });
        let t0 = self.env.now();
        if let ExecEnv::Sim(e) = &self.env {
            self.topo.host(self.info.host).cpu.compute(e, work);
        }
        let elapsed = self.env.now() - t0;
        {
            let mut m = self.metrics.lock();
            m.work += work;
            m.compute_elapsed += elapsed;
        }
        if let Some((t, s)) = span {
            t.end_at(self.env.now(), s);
        }
    }

    /// Read `bytes` from local disk `disk_index` (modulo the host's disk
    /// count), blocking for queueing + service time. `sequential` skips
    /// most of the positioning overhead (continuation of a file scan). On
    /// the native executor the emulated disk is not charged; only the
    /// byte tally is recorded.
    pub fn disk_read(&mut self, disk_index: usize, bytes: u64, sequential: bool) {
        // Source filters have no stream-read boundary, so a crashed host
        // is observed here — before new data is produced, never between
        // a dequeue and the flush of its results.
        self.check_killed();
        self.beat();
        self.stall_if_frozen();
        let host = self.topo.host(self.info.host);
        assert!(
            !host.disks.is_empty(),
            "host {:?} has no disks",
            self.info.host
        );
        let t0 = self.env.now();
        if let ExecEnv::Sim(e) = &self.env {
            let disk = &host.disks[disk_index % host.disks.len()];
            if sequential {
                disk.read_seq(e, bytes);
            } else {
                disk.read(e, bytes);
            }
        }
        let elapsed = self.env.now() - t0;
        let mut m = self.metrics.lock();
        m.disk_bytes += bytes;
        m.disk_elapsed += elapsed;
    }

    /// Record `bytes` of disk traffic performed on this copy's behalf by
    /// a helper process that charged the disk model itself (e.g. a
    /// read-ahead prefetcher spawned on the simulation clock): tallies
    /// the copy's disk byte counter without touching the disk model or
    /// blocking the copy. Like [`disk_read`](Self::disk_read), this is
    /// where a source copy on a crashed host dies.
    pub fn note_disk_bytes(&mut self, bytes: u64) {
        self.check_killed();
        let mut m = self.metrics.lock();
        m.disk_bytes += bytes;
    }

    /// The cluster topology (placement-aware filters may inspect it).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}
