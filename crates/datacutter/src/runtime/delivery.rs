//! The delivery layer: the envelope types that move on copy-set queues and
//! [`Delivery`], the one implementation of putting a producer copy's
//! message on a consumer queue — seeded drop and retransmit, injected
//! message delay, the native NIC-degrade stall, the send itself and the
//! end-of-work broadcast — written as a resumable state machine
//! ([`Delivery::poll`] over a [`Flight`]).
//!
//! Who drives it is the executor's choice ([`ExecutorChoice::relays`]). Under
//! virtual time a per-copy **outbox sender** handler polls it, so the
//! modelled wire transfer overlaps the copy's computation, and a
//! per-copy-set **ack courier** handler pays the reverse path for demand
//! acknowledgments and retention `Settle` batches. Both are
//! threadless: each event granted to them runs one step on whichever
//! thread dispatches it. On the native executor there is no modelled
//! wire: the writing copy delivers in its own thread
//! ([`Delivery::deliver`]), and the reading copy credits the producer's
//! window (and settles retention) directly.

use std::sync::Arc;
use std::task::Poll;

use hetsim::{HostId, SimDuration, Step, Topology, Transfer};

use super::exec::{poll_charge, ChanRx, ChanTx, ExecEnv, ExecutorChoice};
use super::retain::{Provenance, StreamRetention};
use crate::buffer::{DataBuffer, ACK_WIRE_BYTES, EOW_WIRE_BYTES};
use crate::fault::{CopyHealth, FaultCtl};
use crate::metrics::FaultReport;
use crate::policy::{AckHandle, CopySetInfo};

/// A message on a copy-set queue.
pub(crate) enum Envelope {
    /// A data buffer with its (optional) demand-driven ack handle.
    Data {
        buf: DataBuffer,
        ack: Option<AckHandle>,
        /// Retention identity (`(producer copy, per-stream seq)`) of a
        /// replicable buffer when copies can die; `None` otherwise. A
        /// redelivered replica carries the original provenance, so the
        /// consumer that settles it releases the retained entry.
        prov: Option<Provenance>,
    },
    /// In-band end-of-work marker from one producer copy (by copy index).
    Eow { producer: usize },
    /// Injected once per consumer copy when all producers' markers for the
    /// current unit of work have been seen.
    UowDone,
}

/// What a producer copy hands to delivery on one output stream.
pub(crate) enum OutMsg {
    /// Route one data envelope to the chosen copy set.
    Data {
        copyset_idx: usize,
        envelope: Envelope,
    },
    /// Broadcast an end-of-work marker to every copy set.
    Eow,
}

/// Reverse-path message from a consumer copy set to the producers
/// (simulator only: the courier's queue).
pub(crate) enum CourierMsg {
    /// Demand-driven window credit for one delivered buffer.
    Ack(AckHandle),
    /// Retention settlement: these retained replicas were fully
    /// consumed in a completed unit of work and may be garbage-collected.
    Settle { items: Vec<Provenance> },
}

/// Every receiver of the addressed copy-set queue is gone.
pub(crate) struct Closed;

/// The ack courier of one consumer copy set (simulator only), as a
/// handler: it pays the reverse network path for each acknowledgment (and
/// each settlement batch), then credits the producer's demand window or
/// garbage-collects the stream's retention ring.
struct Courier {
    rx: ChanRx<CourierMsg>,
    host: HostId,
    topo: Topology,
    retention: Option<Arc<StreamRetention>>,
    producer_hosts: Vec<HostId>,
    /// The message being answered, with its wire charge in progress.
    job: Option<(CourierMsg, Option<Transfer>)>,
    /// Settlement only: the batch entries answered so far, and the
    /// producer copies (mod 64) already sent a frame.
    settled: usize,
    charged: u64,
}

impl Courier {
    fn step(&mut self, env: &ExecEnv) -> Step {
        loop {
            let (msg, wire) = match &mut self.job {
                Some(job) => job,
                None => match self.rx.poll_recv(env) {
                    Poll::Pending => return Step::Wait,
                    Poll::Ready(None) => return Step::Done,
                    Poll::Ready(Some(msg)) => {
                        (self.settled, self.charged) = (0, 0);
                        self.job.insert((msg, None))
                    }
                },
            };
            match msg {
                CourierMsg::Ack(ack) => {
                    let to = ack.state.producer_host();
                    match poll_charge(env, wire, &self.topo, self.host, to, ACK_WIRE_BYTES) {
                        Step::Done => ack.state.ack(env, ack.copyset_idx),
                        pending => return pending,
                    }
                }
                CourierMsg::Settle { items } => {
                    // One wire-sized settlement frame per producer copy
                    // named in the batch (settlements are tiny and batched
                    // per unit of work).
                    while let Some(p) = items.get(self.settled) {
                        let bit = 1u64 << (p.copy as u64 % 64);
                        if self.charged & bit == 0 {
                            let to = self
                                .producer_hosts
                                .get(p.copy as usize)
                                .copied()
                                .unwrap_or(self.host);
                            match poll_charge(env, wire, &self.topo, self.host, to, ACK_WIRE_BYTES)
                            {
                                Step::Done => self.charged |= bit,
                                pending => return pending,
                            }
                        }
                        self.settled += 1;
                    }
                    if let Some(r) = self.retention.as_ref() {
                        r.settle(items);
                    }
                }
            }
            self.job = None;
        }
    }
}

/// Register the ack courier for one consumer copy set (simulator only).
pub(crate) fn spawn_courier(
    exec: &mut ExecutorChoice,
    stream_name: &str,
    host: HostId,
    topo: &Topology,
    rx: ChanRx<CourierMsg>,
    retention: Option<Arc<StreamRetention>>,
    producer_hosts: Vec<HostId>,
) {
    let mut courier = Courier {
        rx,
        host,
        topo: topo.clone(),
        retention,
        producer_hosts,
        job: None,
        settled: 0,
        charged: 0,
    };
    exec.spawn_handler(
        format!("courier:{stream_name}@h{}", host.0),
        Box::new(move |env: &ExecEnv| courier.step(env)),
    );
}

/// Back-off before re-sending a message the fault plan dropped.
const RETRANSMIT_DELAY: SimDuration = SimDuration::from_millis(1);

/// One (producer copy, output stream) pair's delivery state: where its
/// copy sets live, the queues that reach them, and the per-pair sequence
/// number the fault plan's seeded drops and delays are keyed on.
pub(crate) struct Delivery {
    pub stream_id: u32,
    pub copy_index: usize,
    pub host: HostId,
    pub sets: Vec<CopySetInfo>,
    pub targets: Vec<ChanTx<Envelope>>,
    pub topo: Topology,
    pub faults: Option<Arc<FaultCtl>>,
    /// Data messages delivered so far (0 when wired).
    pub seq: u64,
    /// The writing copy's heartbeat when it delivers in its own thread
    /// under supervision, so waiting out a retransmit or a stall does not
    /// read as a wedge; `None` for a sender handler.
    pub health: Option<Arc<CopyHealth>>,
}

/// One message on its way through [`Delivery::poll`]: what is left of it
/// to pay and to put on a queue.
pub(crate) struct Flight {
    stage: Stage,
    /// A data message's consumer copy set, its host and the wire bytes.
    copyset_idx: usize,
    to: HostId,
    bytes: u64,
    /// The fault plan's key for this message's verdicts.
    seq: u64,
    /// The envelope still to be queued.
    slot: Option<Envelope>,
    /// The wire charge in progress (virtual time only).
    wire: Option<Transfer>,
}

#[derive(Clone, Copy)]
enum Stage {
    /// Data: this many dropped transmissions are still to be paid for,
    /// each its wire and then the retransmit timer.
    Dropped(u64),
    /// Data: the plan's injected message delay.
    Hold,
    /// Data, native only: the NIC-degrade stall.
    Stall,
    /// Data: the wire of the transmission that arrives.
    Wire,
    /// Data: the consumer queue.
    Queue,
    /// End of work: the wire to copy set `i`, then its queue.
    EowWire(usize),
    EowQueue(usize),
}

impl Delivery {
    /// Seeded-drop key: unique per (stream, producer copy).
    fn key(&self) -> u64 {
        ((self.stream_id as u64) << 32) | self.copy_index as u64
    }

    /// Count a fault-plan sleep in the run's tallies.
    fn tally(&self, count: impl FnOnce(&mut FaultReport)) {
        if let Some(ctl) = &self.faults {
            count(&mut ctl.tallies.lock());
        }
    }

    /// The fault plan, when it applies to a message for host `to`
    /// (loopback messages are never dropped, delayed or stalled).
    fn faults_to(&self, to: HostId) -> Option<&FaultCtl> {
        self.faults.as_deref().filter(|_| to != self.host)
    }

    /// Start delivering `msg`; [`poll`](Self::poll) takes it the rest of
    /// the way.
    pub fn launch(&mut self, msg: OutMsg) -> Flight {
        let mut flight = Flight {
            stage: Stage::EowWire(0),
            copyset_idx: 0,
            to: self.host,
            bytes: EOW_WIRE_BYTES,
            seq: self.seq,
            slot: None,
            wire: None,
        };
        if let OutMsg::Data {
            copyset_idx,
            envelope,
        } = msg
        {
            flight.to = self.sets[copyset_idx].host;
            if let Envelope::Data { buf, .. } = &envelope {
                flight.bytes = buf.transport_bytes();
            }
            // Each dropped transmission still occupies the wire; the
            // verdicts are seeded, so they are counted up front.
            let mut drops = 0;
            if let Some(ctl) = self.faults_to(flight.to).filter(|c| c.plan.has_drops()) {
                while ctl.plan.should_drop(self.key(), self.seq, drops) {
                    drops += 1;
                }
            }
            flight.stage = Stage::Dropped(drops);
            flight.copyset_idx = copyset_idx;
            flight.slot = Some(envelope);
            self.seq += 1;
        }
        flight
    }

    /// Take `f` as far as it goes without blocking a sim process: `Wait`
    /// while a link or the consumer queue is full (registered for a
    /// wake), `Delay` for a wire charge, a retransmit timer or an injected
    /// delay or stall, `Done` once the message is queued — or `Closed`
    /// when the data message's consumers are all gone. Under virtual time
    /// the wire is charged to the topology; the native substrate pays
    /// real costs instead, emulates a degraded NIC by stalling for the
    /// degraded fraction of the message's serialization time, and its
    /// queue sends block.
    pub fn poll(&mut self, env: &ExecEnv, f: &mut Flight) -> Result<Step, Closed> {
        loop {
            match f.stage {
                Stage::Dropped(0) => f.stage = Stage::Hold,
                Stage::Dropped(n) => {
                    match poll_charge(env, &mut f.wire, &self.topo, self.host, f.to, f.bytes) {
                        Step::Done => {}
                        pending => return Ok(pending),
                    }
                    f.stage = Stage::Dropped(n - 1);
                    self.tally(|t| t.retransmits += 1);
                    return Ok(Step::Delay(RETRANSMIT_DELAY));
                }
                Stage::Hold => {
                    f.stage = Stage::Stall;
                    let held = self
                        .faults_to(f.to)
                        .filter(|c| c.plan.has_delays())
                        .and_then(|c| c.plan.message_delay(self.key(), f.seq));
                    if let Some(d) = held {
                        self.tally(|t| t.messages_delayed += 1);
                        return Ok(Step::Delay(d));
                    }
                }
                Stage::Stall => {
                    f.stage = Stage::Wire;
                    let Some(ctl) = self
                        .faults_to(f.to)
                        .filter(|c| c.plan.has_degrades() && !env.is_virtual())
                    else {
                        continue;
                    };
                    // The virtual-time engine dilates transfers through the
                    // topology's bandwidth drivers; native threads pay real
                    // wire costs, so the degraded fraction of
                    // serialization time is injected here as a stall.
                    let now = env.now();
                    let factor = ctl
                        .plan
                        .degrade_factor(self.host, now)
                        .min(ctl.plan.degrade_factor(f.to, now));
                    if factor < 1.0 {
                        let nominal =
                            self.topo.path_cost_per_byte(self.host, f.to) * f.bytes as f64;
                        let extra = nominal * (1.0 / factor.max(1e-6) - 1.0);
                        self.tally(|t| t.messages_delayed += 1);
                        return Ok(Step::Delay(SimDuration::from_secs_f64(extra)));
                    }
                }
                Stage::Wire => {
                    match poll_charge(env, &mut f.wire, &self.topo, self.host, f.to, f.bytes) {
                        Step::Done => f.stage = Stage::Queue,
                        pending => return Ok(pending),
                    }
                }
                Stage::Queue => {
                    return match self.targets[f.copyset_idx].poll_send(env, &mut f.slot) {
                        Poll::Pending => Ok(Step::Wait),
                        Poll::Ready(Ok(())) => Ok(Step::Done),
                        Poll::Ready(Err(_)) => Err(Closed),
                    };
                }
                Stage::EowWire(i) => {
                    let Some(set) = self.sets.get(i) else {
                        return Ok(Step::Done);
                    };
                    match poll_charge(env, &mut f.wire, &self.topo, self.host, set.host, f.bytes) {
                        Step::Done => {}
                        pending => return Ok(pending),
                    }
                    f.slot = Some(Envelope::Eow {
                        producer: self.copy_index,
                    });
                    f.stage = Stage::EowQueue(i);
                }
                Stage::EowQueue(i) => {
                    // A consumer set that hung up misses the marker only.
                    if self.targets[i].poll_send(env, &mut f.slot).is_pending() {
                        return Ok(Step::Wait);
                    }
                    f.stage = Stage::EowWire(i + 1);
                }
            }
        }
    }

    /// Deliver `msg` in the calling copy's own thread (the native path):
    /// every fault-plan sleep is paid here, as a blocking socket send
    /// would pay it, with a heartbeat after each.
    pub fn deliver(&mut self, env: &ExecEnv, msg: OutMsg) -> Result<(), Closed> {
        let mut flight = self.launch(msg);
        loop {
            match self.poll(env, &mut flight)? {
                Step::Done => return Ok(()),
                Step::Delay(d) => {
                    env.delay(d);
                    if let Some(h) = &self.health {
                        h.beat(env.now());
                    }
                }
                Step::Wait => env.expect_sim().block(),
            }
        }
    }

    /// Register this pair's outbox sender (simulator only): a handler that
    /// drains the copy's outbox through [`poll`](Self::poll), so the copy
    /// keeps computing while earlier buffers are on the modelled wire. A
    /// consumer that hung up ends it; the late buffer is dropped.
    pub fn spawn_sender(
        self,
        exec: &mut ExecutorChoice,
        stream_name: &str,
        outbox: ChanRx<OutMsg>,
    ) {
        let name = format!("sender:{stream_name}#{}@h{}", self.copy_index, self.host.0);
        let mut sender = OutboxSender {
            outbox,
            delivery: self,
            flight: None,
        };
        exec.spawn_handler(name, Box::new(move |env: &ExecEnv| sender.step(env)));
    }
}

/// The outbox sender of one (copy, output stream) pair, as a handler.
struct OutboxSender {
    outbox: ChanRx<OutMsg>,
    delivery: Delivery,
    flight: Option<Flight>,
}

impl OutboxSender {
    fn step(&mut self, env: &ExecEnv) -> Step {
        loop {
            let flight = match &mut self.flight {
                Some(f) => f,
                None => match self.outbox.poll_recv(env) {
                    Poll::Pending => return Step::Wait,
                    Poll::Ready(None) => return Step::Done,
                    Poll::Ready(Some(msg)) => self.flight.insert(self.delivery.launch(msg)),
                },
            };
            match self.delivery.poll(env, flight) {
                Ok(Step::Done) => self.flight = None,
                Ok(pending) => return pending,
                Err(Closed) => return Step::Done,
            }
        }
    }
}
