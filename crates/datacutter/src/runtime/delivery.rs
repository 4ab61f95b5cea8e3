//! The delivery layer: the envelope types that move on copy-set queues and
//! `Delivery::deliver`, the one function that puts a producer copy's
//! message on a consumer queue — seeded drop and retransmit, injected
//! message delay, the native NIC-degrade stall, the send itself and the
//! end-of-work broadcast.
//!
//! Who calls it is the executor's choice ([`Executor::RELAYS`]). Under
//! virtual time a per-copy **outbox sender** process calls it, so the
//! modelled wire transfer overlaps the copy's computation, and a
//! per-copy-set **ack courier** process pays the reverse path for demand
//! acknowledgments and lossless-recovery `Settle` batches. On the native
//! executor there is no modelled wire: the writing copy delivers in its
//! own thread, and the reading copy credits the producer's window (and
//! settles retention) directly.

use std::sync::Arc;

use hetsim::{HostId, SimDuration, Topology};

use super::exec::{charge_transfer, ChanRx, ChanTx, ExecEnv, Executor};
use super::retain::{Provenance, StreamRetention};
use crate::buffer::{DataBuffer, ACK_WIRE_BYTES, EOW_WIRE_BYTES};
use crate::fault::{CopyHealth, FaultCtl};
use crate::policy::{AckHandle, CopySetInfo};

/// A message on a copy-set queue.
pub(crate) enum Envelope {
    /// A data buffer with its (optional) demand-driven ack handle.
    Data {
        buf: DataBuffer,
        ack: Option<AckHandle>,
        /// Retention identity (`(producer copy, per-stream seq)`) when the
        /// stream runs under lossless recovery; `None` otherwise. A second
        /// delivery (reaper forward or restart re-injection) carries the
        /// original provenance so consumers can dedup it.
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
    /// Lossless-recovery settlement: these retained replicas were fully
    /// consumed in a completed unit of work and may be garbage-collected.
    Settle { items: Vec<Provenance> },
}

/// Every receiver of the addressed copy-set queue is gone.
pub(crate) struct Closed;

/// Spawn the ack courier for one consumer copy set (simulator only): it
/// pays the reverse network path for each acknowledgment (and each
/// settlement batch), then credits the producer's demand window or
/// garbage-collects the stream's retention ring.
pub(crate) fn spawn_courier<E: Executor>(
    exec: &mut E,
    stream_name: &str,
    host: HostId,
    topo: &Topology,
    rx: ChanRx<CourierMsg>,
    retention: Option<Arc<StreamRetention>>,
    producer_hosts: Vec<HostId>,
) {
    let topo = topo.clone();
    exec.spawn(
        format!("courier:{stream_name}@h{}", host.0),
        Box::new(move |env: ExecEnv| {
            while let Some(msg) = rx.recv(&env) {
                match msg {
                    CourierMsg::Ack(ack) => {
                        charge_transfer(
                            &env,
                            &topo,
                            host,
                            ack.state.producer_host(),
                            ACK_WIRE_BYTES,
                        );
                        ack.state.ack(&env, ack.copyset_idx);
                    }
                    CourierMsg::Settle { items } => {
                        // One wire-sized settlement frame per producer copy
                        // named in the batch (settlements are tiny and
                        // batched per unit of work).
                        let mut charged: u64 = 0;
                        for p in &items {
                            let bit = 1u64 << (p.copy as u64 % 64);
                            if charged & bit == 0 {
                                charged |= bit;
                                let to =
                                    producer_hosts.get(p.copy as usize).copied().unwrap_or(host);
                                charge_transfer(&env, &topo, host, to, ACK_WIRE_BYTES);
                            }
                        }
                        if let Some(r) = retention.as_ref() {
                            r.settle(&items);
                        }
                    }
                }
            }
        }),
    );
}

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
    pub retransmit_delay: SimDuration,
    /// Data messages delivered so far (0 when wired).
    pub seq: u64,
    /// The writing copy's heartbeat when it delivers in its own thread
    /// under supervision, so waiting out a retransmit or a stall does not
    /// read as a wedge; `None` for a sender process.
    pub health: Option<Arc<CopyHealth>>,
}

impl Delivery {
    /// Deliver `msg`, charging the wire under virtual time and applying
    /// the fault plan: each dropped transmission is paid for and retried
    /// after the retransmit delay, an injected delay holds the message, and
    /// on the native substrate a degraded NIC stalls the sender for the
    /// degraded fraction of the message's serialization time.
    pub fn deliver(&mut self, env: &ExecEnv, msg: OutMsg) -> Result<(), Closed> {
        match msg {
            OutMsg::Data {
                copyset_idx,
                envelope,
            } => {
                let bytes = match &envelope {
                    Envelope::Data { buf, .. } => buf.transport_bytes(),
                    _ => EOW_WIRE_BYTES,
                };
                let to = self.sets[copyset_idx].host;
                // Seeded-drop key: unique per (stream, producer copy).
                let key = ((self.stream_id as u64) << 32) | self.copy_index as u64;
                if let Some(ctl) = self.faults.as_ref().filter(|_| to != self.host) {
                    if ctl.plan.has_drops() {
                        // Each dropped transmission still occupied the
                        // wire: pay for it, wait out the retransmit timer,
                        // re-roll.
                        let mut attempt = 0u64;
                        while ctl.plan.should_drop(key, self.seq, attempt) {
                            charge_transfer(env, &self.topo, self.host, to, bytes);
                            env.delay(self.retransmit_delay);
                            self.beat(env);
                            ctl.tallies.lock().retransmits += 1;
                            attempt += 1;
                        }
                    }
                    if ctl.plan.has_delays() {
                        // Seeded per-message latency injection (chaos
                        // testing): hold the message on the wire for the
                        // plan's extra delay before it reaches the queue.
                        if let Some(d) = ctl.plan.message_delay(key, self.seq) {
                            env.delay(d);
                            self.beat(env);
                            ctl.tallies.lock().messages_delayed += 1;
                        }
                    }
                    if ctl.plan.has_degrades() && !env.is_virtual() {
                        // The virtual-time engine dilates transfers through
                        // the topology's bandwidth drivers; native threads
                        // pay real wire costs, so the degraded fraction of
                        // serialization time is injected here as a stall.
                        let now = env.now();
                        let f = ctl
                            .plan
                            .degrade_factor(self.host, now)
                            .min(ctl.plan.degrade_factor(to, now));
                        if f < 1.0 {
                            let nominal =
                                self.topo.path_cost_per_byte(self.host, to) * bytes as f64;
                            let extra = nominal * (1.0 / f.max(1e-6) - 1.0);
                            env.delay(SimDuration::from_secs_f64(extra));
                            self.beat(env);
                            ctl.tallies.lock().messages_delayed += 1;
                        }
                    }
                }
                self.seq += 1;
                charge_transfer(env, &self.topo, self.host, to, bytes);
                self.targets[copyset_idx]
                    .send(env, envelope)
                    .map_err(|_| Closed)
            }
            OutMsg::Eow => {
                for (tx, set) in self.targets.iter().zip(&self.sets) {
                    charge_transfer(env, &self.topo, self.host, set.host, EOW_WIRE_BYTES);
                    let _ = tx.send(
                        env,
                        Envelope::Eow {
                            producer: self.copy_index,
                        },
                    );
                }
                Ok(())
            }
        }
    }

    fn beat(&self, env: &ExecEnv) {
        if let Some(h) = &self.health {
            h.beat(env.now());
        }
    }

    /// Spawn this pair's outbox sender (simulator only): it drains the
    /// copy's outbox through [`deliver`](Self::deliver) so the copy keeps
    /// computing while earlier buffers are on the modelled wire. A
    /// consumer that hung up ends the loop; the late buffer is dropped.
    pub fn spawn_sender<E: Executor>(
        mut self,
        exec: &mut E,
        stream_name: &str,
        outbox_rx: ChanRx<OutMsg>,
    ) {
        exec.spawn(
            format!("sender:{stream_name}#{}@h{}", self.copy_index, self.host.0),
            Box::new(move |env: ExecEnv| {
                while let Some(msg) = outbox_rx.recv(&env) {
                    if self.deliver(&env, msg).is_err() {
                        break;
                    }
                }
            }),
        );
    }
}
