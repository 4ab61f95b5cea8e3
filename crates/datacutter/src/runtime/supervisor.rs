//! The supervisor process of a supervised run: a heartbeat scanner that
//! detects silently wedged filter copies (no read/write/compute progress
//! for longer than the policy's wedge timeout), declares them dead in the
//! merged death oracle, withdraws them from the inter-UOW barrier, and
//! tells the executor to abandon their threads so the run can finish
//! degraded instead of hanging.
//!
//! Panic-triggered restarts do **not** go through this process — they are
//! handled in-thread by the copy wrapper (the copy's channel endpoints
//! cannot be re-created, so the replacement instance must run on the same
//! thread). The supervisor owns only what a wedged thread cannot do for
//! itself: external detection and eviction.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::fault::{CopyHealth, CopyState, FaultCtl, SupervisorPolicy};
use crate::graph::FilterId;

use super::exec::{ExecBarrier, ExecEnv};
use super::native::{Abandoner, CancelScope};

/// One supervised copy as seen by the heartbeat scanner.
pub(crate) struct CopyRecord {
    pub filter: FilterId,
    pub copy: usize,
    /// The copy's process name, for [`Abandoner::abandon`].
    pub thread: String,
    pub health: Arc<CopyHealth>,
}

/// Decrement the live-copy count; when it reaches zero every copy has
/// finished or died, and the shutdown flag releases the supervised
/// reapers and the supervisor itself.
pub(crate) fn copy_retired(live: &AtomicUsize, shutdown: &AtomicBool) {
    if live.fetch_sub(1, Ordering::AcqRel) == 1 {
        shutdown.store(true, Ordering::Release);
    }
}

/// The supervisor process body. Spawned last (after every filter copy) so
/// plan-mode spawn order — and therefore simulation determinism — is
/// untouched when supervision is off.
pub(crate) struct Supervisor {
    pub ctl: Arc<FaultCtl>,
    pub policy: SupervisorPolicy,
    pub records: Vec<CopyRecord>,
    pub barrier: ExecBarrier,
    pub shutdown: Arc<AtomicBool>,
    pub live: Arc<AtomicUsize>,
    /// The native run's completion ledger; `None` on the simulator, whose
    /// cooperative processes need no abandoning.
    pub abandoner: Option<Abandoner>,
    pub cancel: Option<Arc<CancelScope>>,
}

impl Supervisor {
    pub fn run(self, env: ExecEnv) {
        let mut abandoned = false;
        loop {
            if self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                // The run is aborting; the executor tears everything down.
                return;
            }
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            env.delay(self.policy.heartbeat_interval);
            let Some(wedge) = self.policy.wedge_timeout else {
                continue;
            };
            let now = env.now();
            for rec in &self.records {
                if rec.health.state() != CopyState::Running {
                    continue;
                }
                // Compare via addition: a beat stored concurrently with
                // the `now` read may land "in the future" on the native
                // substrate, and SimTime subtraction would underflow.
                if now < rec.health.last_beat() + wedge {
                    continue;
                }
                // The transition is the arbiter: if the copy's own thread
                // finishes (or dies) concurrently, exactly one side wins
                // and accounts for it.
                if !rec
                    .health
                    .try_transition(CopyState::Running, CopyState::Dead)
                {
                    continue;
                }
                self.ctl.register_copy_death(rec.filter, rec.copy, now);
                self.ctl.tallies.lock().copies_wedged += 1;
                // Withdraw the wedged copy from the inter-UOW barrier so
                // its peers are not stranded, and detach its thread so the
                // run can complete without joining it.
                self.barrier.leave(&env);
                if let Some(a) = &self.abandoner {
                    a.abandon(&rec.thread);
                }
                abandoned = true;
                copy_retired(&self.live, &self.shutdown);
            }
        }
        if abandoned {
            // Best effort: give the reapers a few salvage ticks to drain
            // what the wedged copies left behind, then cancel the scope so
            // helper processes blocked on channels the wedged thread will
            // never service (its queues cannot drain) unwind and the run
            // can return.
            env.delay(self.ctl.timeout);
            env.delay(self.ctl.timeout);
            if let Some(c) = &self.cancel {
                c.cancel();
            }
        }
    }
}
