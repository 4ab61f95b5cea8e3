//! Process threads kept across simulations.
//!
//! A thread-backed process runs as a *job* on a pooled OS thread. When the
//! job returns — the process closure has returned or unwound and dropped
//! what it captured — the thread parks in a process-wide idle list, up to
//! [`IDLE_THREAD_CAP`] of them, and the next process of any
//! [`Simulation`](crate::Simulation) takes it instead of creating a thread.
//! Past the cap it exits. The job's *receipt* is dropped only after that,
//! so a simulation whose teardown waited for every receipt has its threads
//! back in the list: the next one reuses them without racing them. Jobs
//! catch their own panics, so a process that panicked leaves its thread
//! reusable.

use std::sync::{Arc, Mutex as StdMutex};

use parking_lot::{Condvar, Mutex};

/// Idle process threads kept for the next simulation: enough for the
/// reproduction's graphs (`sim_hetero` runs 17 thread processes), while a
/// one-off fan-out of thousands of copies gives all but this many back.
pub const IDLE_THREAD_CAP: usize = 64;

type Job = Box<dyn FnOnce() + Send>;

/// Dropped once the thread that ran the job is parked again, or exiting.
type Receipt = Box<dyn Send>;

/// One pooled thread's mailbox.
struct Worker {
    job: Mutex<Option<(Job, Receipt)>>,
    cv: Condvar,
}

/// Parked workers, most recently parked last.
static IDLE: StdMutex<Vec<Arc<Worker>>> = StdMutex::new(Vec::new());

fn idle() -> std::sync::MutexGuard<'static, Vec<Arc<Worker>>> {
    IDLE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `job` on an idle pooled thread, or on a new one when none is idle,
/// and drop `receipt` once that thread is parked again.
pub(crate) fn run(job: Job, receipt: Receipt) -> std::io::Result<()> {
    // Bound first, so the idle list is unlocked before the mailbox is.
    let parked = idle().pop();
    if let Some(worker) = parked {
        *worker.job.lock() = Some((job, receipt));
        worker.cv.notify_one();
        return Ok(());
    }
    let worker = Arc::new(Worker {
        job: Mutex::new(Some((job, receipt))),
        cv: Condvar::new(),
    });
    std::thread::Builder::new()
        .name("hetsim".into())
        .spawn(move || work(worker))
        .map(drop)
}

fn work(worker: Arc<Worker>) {
    loop {
        let (job, receipt) = {
            let mut slot = worker.job.lock();
            loop {
                if let Some(mail) = slot.take() {
                    break mail;
                }
                worker.cv.wait(&mut slot);
            }
        };
        job();
        let parked = {
            let mut idle = idle();
            let room = idle.len() < IDLE_THREAD_CAP;
            if room {
                idle.push(worker.clone());
            }
            room
        };
        drop(receipt);
        if !parked {
            return;
        }
    }
}
