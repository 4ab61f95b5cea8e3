//! End-of-work accounting: the per-copy-set gate that turns in-band EOW
//! markers from producer copies into `UowDone` tokens for consumer copies,
//! once per unit of work. The global inter-UOW barrier lives in the
//! executor substrate ([`super::exec::ExecBarrier`]); this module is the
//! stream-local half of cycle separation.

use hetsim::{HostId, SimTime};

use crate::fault::FaultCtl;
use crate::policy::CopySetInfo;

/// Per-copy-set end-of-work accounting: when markers from all producer
/// copies have been seen for the current UOW — or the missing producers
/// are provably dead under the active fault plan — each consumer copy in
/// the set gets one `UowDone`.
pub(crate) struct UowGate {
    /// Host of each producer copy feeding this gate, in copy-index order.
    producers: Vec<HostId>,
    /// The consumer copy set (each copy gets one `UowDone` per cycle).
    pub set: CopySetInfo,
    /// Which producer copies' markers have been seen this cycle.
    eow_seen: Vec<bool>,
    /// Completed end-of-work cycles (== the UOW the gate is waiting on).
    cycle: u32,
    /// Per consumer copy of the set: units of work whose end-of-work the
    /// copy has consumed (only when copies can die).
    ended: Vec<u32>,
    /// Units of work the set's reaper has drained since the set died:
    /// every buffer addressed to the set for them has been retargeted.
    pub salvaged: u32,
}

impl UowGate {
    pub fn new(producers: Vec<HostId>, set: CopySetInfo) -> Self {
        let n = producers.len();
        UowGate {
            producers,
            set,
            eow_seen: vec![false; n],
            cycle: 0,
            ended: vec![0; set.copies as usize],
            salvaged: 0,
        }
    }

    /// Record producer `producer`'s marker for the current cycle
    /// (idempotent).
    pub fn mark(&mut self, producer: usize) {
        if producer < self.eow_seen.len() {
            self.eow_seen[producer] = true;
        }
    }

    /// Completed end-of-work cycles so far. A dead copy set's gate is
    /// advanced by its reaper as salvage proceeds.
    pub fn cycle(&self) -> u32 {
        self.cycle
    }

    /// Record that consumer copy `copy` (global index) consumed its
    /// end-of-work for `uow`.
    pub fn end(&mut self, copy: usize, uow: u32) {
        if let Some(e) = self.ended.get_mut(copy - self.set.first_copy) {
            *e = uow + 1;
        }
    }

    /// True once this (peer) set can no longer have buffers of `uow`
    /// redelivered from it: its reaper drained it past `uow`, or it lives
    /// and every copy consumed its end-of-work. A dead set counts only
    /// once salvaged, even if its copies had consumed their end-of-work:
    /// a copy may have died before reading what was queued for it, or
    /// while waiting with its journal unsettled.
    pub fn finished(&self, uow: u32, ctl: &FaultCtl, now: SimTime) -> bool {
        self.salvaged > uow || (!self.dead(ctl, now) && self.ended.iter().all(|&e| e > uow))
    }

    /// True while the set lives and a copy of it other than `copy` has not
    /// yet consumed its end-of-work for `uow`: its token is still queued.
    pub fn sibling_pending(&self, copy: usize, uow: u32, ctl: &FaultCtl, now: SimTime) -> bool {
        !self.dead(ctl, now)
            && (0..self.ended.len())
                .any(|k| self.set.first_copy + k != copy && self.ended[k] <= uow)
    }

    /// The set's copies share its host, so they die together.
    fn dead(&self, ctl: &FaultCtl, now: SimTime) -> bool {
        ctl.plan.is_dead(self.set.host, now)
    }

    /// Fire if every producer copy has either delivered its marker for the
    /// cycle matching `uow` or its host has crashed under `faults` by
    /// `now`. The cycle guard keeps a
    /// consumer that has already finished `uow` from double-firing on late
    /// liveness probes.
    pub fn try_fire(&mut self, uow: u32, faults: Option<&FaultCtl>, now: SimTime) -> Option<u32> {
        if self.cycle != uow {
            return None;
        }
        let complete = self
            .eow_seen
            .iter()
            .zip(&self.producers)
            .all(|(&seen, &host)| seen || faults.is_some_and(|c| c.plan.is_dead(host, now)));
        if !complete {
            return None;
        }
        self.cycle += 1;
        for s in self.eow_seen.iter_mut() {
            *s = false;
        }
        Some(self.set.copies)
    }
}
