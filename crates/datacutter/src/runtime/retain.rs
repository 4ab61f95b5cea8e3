//! Producer-side retention — the route back for every replicable buffer
//! of a run whose copies can die.
//!
//! Every stream of such a run owns one [`StreamRetention`]: per producer
//! copy, a ring of slab-pooled replicas of every replicable buffer the
//! copy sent, keyed by a monotonically increasing per-(producer copy,
//! stream) sequence number stamped into the envelope as [`Provenance`],
//! and addressed to the consumer copy set the original went to. The ring
//! has no depth bound. An entry leaves it one of two ways:
//!
//! * **settled** — a consuming copy finishes its unit of work and acks the
//!   provenances it consumed (over the stream's courier under virtual
//!   time); the replicas are recycled to the [`BufferSlab`].
//! * **swept** — the run ended and no consumer settled the entry; it is
//!   counted lost ([`StreamRetention::sweep`]).
//!
//! Recovery moves entries without removing them. When a consumer set dies
//! its reaper [retargets](StreamRetention::retarget) the set's entries to
//! a survivor and sends it a replica of each; the entry stays until that
//! survivor settles it, so a second death retargets it again. A queued
//! original is released, since its replica travels instead. A supervised
//! restart [fetches](StreamRetention::fetch) replicas of the crashed
//! incarnation's journal. Either way a provenance is processed again,
//! never suppressed: every rendering fold is idempotent under duplicated
//! identical inputs.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::{BufferSlab, DataBuffer};
use crate::fault::FaultCtl;

/// Where a retained buffer came from: which producer copy sent it, its
/// per-(producer copy, stream) sequence number and the unit of work it
/// belongs to. Travels in the envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Provenance {
    /// Producer copy index (global across the producer filter's copies).
    pub copy: u32,
    /// Unit of work the producer sent it in.
    pub uow: u32,
    /// Monotonic sequence number of this send from that copy.
    pub seq: u64,
}

/// One retained replica awaiting settlement.
struct Retained {
    seq: u64,
    uow: u32,
    /// Consumer copy set the original was addressed to.
    set_idx: usize,
    buf: DataBuffer,
}

/// Per-producer-copy retention ring.
#[derive(Default)]
struct Ring {
    entries: VecDeque<Retained>,
    next_seq: u64,
}

/// Retention state of one stream: a ring per producer copy plus the
/// shared slab and tallies. Shared (`Arc`) between the producer copies'
/// output ports (stamp), the consumer sets' couriers (settle), the reapers
/// (retarget on set death), restarted copies (fetch for re-injection) and
/// the run's harvest (sweep).
pub(crate) struct StreamRetention {
    rings: Vec<Mutex<Ring>>,
    slab: BufferSlab,
    ctl: Arc<FaultCtl>,
}

impl StreamRetention {
    pub fn new(n_producer_copies: usize, slab: BufferSlab, ctl: Arc<FaultCtl>) -> Self {
        StreamRetention {
            rings: (0..n_producer_copies)
                .map(|_| Mutex::new(Ring::default()))
                .collect(),
            slab,
            ctl,
        }
    }

    /// Stamp one outgoing buffer that producer `copy` sends in unit of
    /// work `uow` to consumer set `set_idx`: allocate its sequence number
    /// and retain a replica. Returns `None` (no provenance, nothing
    /// retained) when the buffer is not replicable — such a buffer is
    /// recoverable only while queued, through its demand-driven ack.
    pub fn stamp(
        &self,
        copy: usize,
        uow: u32,
        set_idx: usize,
        buf: &DataBuffer,
    ) -> Option<Provenance> {
        let replica = buf.replicate(&self.slab)?;
        let mut ring = self.rings[copy].lock();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.entries.push_back(Retained {
            seq,
            uow,
            set_idx,
            buf: replica,
        });
        Some(Provenance {
            copy: copy as u32,
            uow,
            seq,
        })
    }

    /// Replicate the retained entry `(copy, seq)` for re-injection into a
    /// restarted consumer. The entry stays retained (a second fault may
    /// need it again); `None` when it was already settled.
    pub fn fetch(&self, copy: u32, seq: u64) -> Option<DataBuffer> {
        let ring = self.rings[copy as usize].lock();
        let entry = ring.entries.iter().find(|e| e.seq == seq)?;
        entry.buf.replicate(&self.slab)
    }

    /// The consumer set the retained entry `p` is addressed to; `None` once
    /// it was settled.
    pub fn addressee(&self, p: Provenance) -> Option<usize> {
        let ring = self.rings[p.copy as usize].lock();
        ring.entries
            .iter()
            .find(|e| e.seq == p.seq)
            .map(|e| e.set_idx)
    }

    /// Re-address every entry addressed to the (dead) consumer set `from`
    /// to the survivor `to`, and return a replica of each for the reaper
    /// to send, in deterministic (producer copy, seq) order. The entries
    /// stay retained until `to` settles them.
    pub fn retarget(&self, from: usize, to: usize) -> Vec<(Provenance, DataBuffer)> {
        let mut out = Vec::new();
        for (copy, ring) in self.rings.iter().enumerate() {
            for e in ring.lock().entries.iter_mut().filter(|e| e.set_idx == from) {
                e.set_idx = to;
                if let Some(buf) = e.buf.replicate(&self.slab) {
                    let p = Provenance {
                        copy: copy as u32,
                        uow: e.uow,
                        seq: e.seq,
                    };
                    out.push((p, buf));
                }
            }
        }
        out
    }

    /// Settle (GC) the entries a consumer copy acked after cleanly
    /// finishing its unit of work: recycle their replicas to the slab.
    pub fn settle(&self, items: &[Provenance]) {
        for p in items {
            let entry = {
                let mut ring = self.rings[p.copy as usize].lock();
                ring.entries
                    .iter()
                    .position(|e| e.seq == p.seq)
                    .and_then(|i| ring.entries.remove(i))
            };
            if let Some(e) = entry {
                self.slab.repool(e.buf);
            }
        }
    }

    /// Empty every ring at the end of the run: an entry no consumer
    /// settled was never processed to the end of a unit of work, so it is
    /// tallied lost. Returns the number of buffers swept.
    pub fn sweep(&self) -> u64 {
        let mut t = self.ctl.tallies.lock();
        let lost = t.buffers_lost;
        for ring in &self.rings {
            for e in ring.lock().entries.drain(..) {
                t.buffers_lost += 1;
                t.bytes_lost += e.buf.wire_bytes();
                self.slab.repool(e.buf);
            }
        }
        t.buffers_lost - lost
    }

    /// Replicas currently retained across all rings (tests/diagnostics).
    #[cfg(test)]
    pub fn retained(&self) -> usize {
        self.rings.iter().map(|r| r.lock().entries.len()).sum()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::fault::FaultOptions;
    use hetsim::FaultPlan;

    fn retention() -> StreamRetention {
        let opts = FaultOptions::new(FaultPlan::new());
        StreamRetention::new(2, BufferSlab::new(), FaultCtl::new(&opts))
    }

    fn buf(slab: &BufferSlab, v: u64) -> DataBuffer {
        slab.make_replicable(v, 8)
    }

    fn p(copy: u32, seq: u64) -> Provenance {
        Provenance { copy, uow: 0, seq }
    }

    #[test]
    fn stamp_assigns_monotonic_seqs_per_copy() {
        let r = retention();
        let slab = BufferSlab::new();
        let a = r.stamp(0, 0, 0, &buf(&slab, 1)).expect("replicable");
        let b = r.stamp(0, 0, 1, &buf(&slab, 2)).expect("replicable");
        let c = r.stamp(1, 0, 0, &buf(&slab, 3)).expect("replicable");
        assert_eq!((a.copy, a.seq), (0, 0));
        assert_eq!((b.copy, b.seq), (0, 1));
        assert_eq!((c.copy, c.seq), (1, 0), "seqs are per producer copy");
        assert_eq!(r.retained(), 3);
    }

    #[test]
    fn non_replicable_buffers_are_not_retained() {
        let r = retention();
        let plain = DataBuffer::new(1u64, 8);
        assert!(r.stamp(0, 0, 0, &plain).is_none());
        assert_eq!(r.retained(), 0);
    }

    #[test]
    fn fetch_keeps_the_entry_retained() {
        let r = retention();
        let slab = BufferSlab::new();
        r.stamp(0, 0, 0, &buf(&slab, 7)).expect("replicable");
        let first = r.fetch(0, 0).expect("retained");
        assert_eq!(first.downcast::<u64>(), 7);
        let second = r.fetch(0, 0).expect("still retained after fetch");
        assert_eq!(second.downcast::<u64>(), 7);
    }

    #[test]
    fn retarget_moves_only_that_sets_entries_and_keeps_them() {
        let r = retention();
        let slab = BufferSlab::new();
        r.stamp(0, 0, 0, &buf(&slab, 10));
        r.stamp(0, 0, 1, &buf(&slab, 11));
        r.stamp(1, 0, 1, &buf(&slab, 12));
        let sent = r.retarget(1, 2);
        let provs: Vec<(u32, u64)> = sent.iter().map(|(p, _)| (p.copy, p.seq)).collect();
        assert_eq!(
            provs,
            vec![(0, 1), (1, 0)],
            "deterministic (copy, seq) order"
        );
        let vals: Vec<u64> = sent.into_iter().map(|(_, b)| b.downcast()).collect();
        assert_eq!(vals, vec![11, 12]);
        assert_eq!(r.retained(), 3, "retargeted entries stay retained");
        assert_eq!(r.addressee(p(0, 1)), Some(2));
        assert_eq!(r.addressee(p(0, 0)), Some(0));
        assert!(r.retarget(1, 2).is_empty(), "set 1 no longer owns them");
        // A second death moves them on; set 0's entry never moves.
        assert_eq!(r.retarget(2, 0).len(), 2);
        assert_eq!(r.retarget(0, 2).len(), 3);
        r.settle(&[p(0, 1)]);
        assert_eq!(r.retained(), 2, "the survivor's settlement releases it");
        assert_eq!(r.addressee(p(0, 1)), None);
    }

    #[test]
    fn sweep_counts_everything_unsettled_as_lost() {
        let r = retention();
        let slab = BufferSlab::new();
        let p = r.stamp(0, 0, 0, &buf(&slab, 1)).expect("replicable");
        r.stamp(0, 0, 1, &buf(&slab, 2));
        r.stamp(1, 0, 0, &buf(&slab, 3));
        r.settle(&[p]);
        assert_eq!(r.sweep(), 2, "two unsettled replicas");
        assert_eq!(r.ctl.tallies.lock().bytes_lost, 16);
        assert_eq!(r.retained(), 0);
        assert_eq!(r.sweep(), 0, "a swept ring is empty");
    }

    #[test]
    fn settle_recycles_replicas() {
        let r = retention();
        let slab = BufferSlab::new();
        let p = r.stamp(0, 0, 0, &buf(&slab, 1)).expect("replicable");
        r.settle(&[p]);
        assert_eq!(r.retained(), 0);
        // Settling twice is a no-op.
        r.settle(&[p]);
    }
}
