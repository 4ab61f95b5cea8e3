//! Thread processes run on pooled OS threads that outlive their
//! simulation: a capped idle list serves every `Simulation` in the
//! process. These tests count the process's own threads, so they live in
//! a test binary of their own and take turns.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use hetsim::engine::IDLE_THREAD_CAP;
use hetsim::{SimDuration, SimError, Simulation};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// Threads of this process right now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .count()
}

/// Threads of this process once those past the idle cap have exited (an
/// exiting thread lingers in `/proc` for a moment).
fn settled_threads(bound: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let n = threads();
        if n <= bound || Instant::now() > deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A simulation of `n` thread processes that each sleep a little.
fn simulate(n: usize) {
    let mut sim = Simulation::new();
    for i in 0..n {
        sim.spawn(format!("p{i}"), move |env| {
            env.delay(SimDuration::from_micros(1 + i as u64 % 7));
        });
    }
    let stats = sim.run().expect("the processes only sleep");
    assert_eq!(stats.processes as usize, n);
}

/// Fails if process threads leak (each simulation's threads stay alive
/// unused) or if the idle list is not capped (a wide simulation leaves
/// every one of its threads behind).
#[test]
fn back_to_back_simulations_keep_the_thread_count_bounded() {
    let _turn = one_at_a_time();
    let baseline = threads();
    for round in 0..200 {
        simulate(8);
        let n = threads();
        assert!(
            n <= baseline + IDLE_THREAD_CAP,
            "round {round}: {n} threads, baseline {baseline}"
        );
    }
    // Reused, not re-created: a warm pool serves eight at a time.
    assert!(threads() <= baseline + 8, "{} threads", threads());
    simulate(3 * IDLE_THREAD_CAP);
    let n = settled_threads(baseline + IDLE_THREAD_CAP);
    assert!(
        n <= baseline + IDLE_THREAD_CAP,
        "{n} threads after a {}-process simulation, baseline {baseline}",
        3 * IDLE_THREAD_CAP
    );
}

/// Fails if a process panic costs its pooled thread: the next simulation
/// must run on the very thread the panic unwound.
#[test]
fn a_panicked_process_leaves_its_thread_to_the_next_simulation() {
    let _turn = one_at_a_time();
    let run_one = |panics: bool| -> ThreadId {
        let ran_on = Arc::new(Mutex::new(None));
        let r = ran_on.clone();
        let mut sim = Simulation::new();
        sim.spawn("p", move |env| {
            *r.lock().unwrap() = Some(std::thread::current().id());
            env.delay(SimDuration::from_micros(1));
            assert!(!panics, "boom");
        });
        match sim.run() {
            Err(SimError::ProcessPanic { process, message }) if panics => {
                assert_eq!((process.as_str(), message.as_str()), ("p", "boom"));
            }
            Ok(_) if !panics => {}
            other => panic!("unexpected outcome {other:?}"),
        }
        drop(sim);
        let id = ran_on.lock().unwrap().expect("the process ran");
        id
    };
    let panicked_on = run_one(true);
    assert_eq!(run_one(false), panicked_on);
}
