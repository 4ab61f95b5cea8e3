//! Cost-charging resources: CPUs with processor-sharing contention, disks,
//! and network links.
//!
//! Costs are expressed as *work* ([`SimDuration`] of dedicated time on a
//! reference-speed core, or bytes moved) and converted to elapsed virtual
//! time using each resource's parameters. All resources accumulate busy-time
//! and byte counters for the experiment harnesses.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::{Env, Step};
use crate::sync::Semaphore;
use crate::time::SimDuration;

/// A host CPU modeled as `cores` identical cores under processor sharing.
///
/// A computation of `w` work-seconds on a host with relative speed `s`
/// elapses `w / s * max(1, (active + bg_jobs) / cores)` virtual seconds,
/// re-evaluated every quantum so that load changes mid-computation take
/// effect. `bg_jobs` models the paper's equal-priority background user
/// processes: on Linux, `b` CPU-bound background jobs sharing `c` cores with
/// `a` application threads give each thread roughly `c / (a + b)` of a core.
#[derive(Clone)]
pub struct Cpu {
    inner: Arc<Mutex<CpuState>>,
}

struct CpuState {
    cores: u32,
    speed: f64,
    bg_jobs: u32,
    active: u32,
    busy: SimDuration,
    work_done: SimDuration,
}

/// How finely a computation is sliced so contention changes get picked up.
const CPU_QUANTA: u64 = 16;

impl Cpu {
    /// A CPU with `cores` cores running at `speed` times the reference
    /// speed. `speed` must be positive.
    pub fn new(cores: u32, speed: f64) -> Self {
        assert!(cores >= 1, "a host needs at least one core");
        assert!(speed > 0.0, "speed factor must be positive");
        Cpu {
            inner: Arc::new(Mutex::new(CpuState {
                cores,
                speed,
                bg_jobs: 0,
                active: 0,
                busy: SimDuration::ZERO,
                work_done: SimDuration::ZERO,
            })),
        }
    }

    /// Set the number of equal-priority CPU-bound background jobs.
    pub fn set_bg_jobs(&self, jobs: u32) {
        self.inner.lock().bg_jobs = jobs;
    }

    /// Current number of background jobs.
    pub fn bg_jobs(&self) -> u32 {
        self.inner.lock().bg_jobs
    }

    /// Number of cores.
    pub fn cores(&self) -> u32 {
        self.inner.lock().cores
    }

    /// Relative speed factor.
    pub fn speed(&self) -> f64 {
        self.inner.lock().speed
    }

    /// Execute `work` seconds of reference-speed computation, blocking the
    /// calling process for the contention- and speed-adjusted elapsed time.
    ///
    /// The quanta are a step lent to the event loop (`Env::lend`): the
    /// step below is the body of a `while remaining > 0 { delay(elapsed) }`
    /// loop, run by the event loop between quanta instead of by this
    /// process's thread, which is woken once, after the last one.
    pub fn compute(&self, env: &Env, work: SimDuration) {
        if work.is_zero() {
            return;
        }
        {
            let mut st = self.inner.lock();
            st.active += 1;
            st.work_done += work;
        }
        let quantum = std::cmp::max(work.as_nanos() / CPU_QUANTA, 1);
        let inner = self.inner.clone();
        let mut remaining = work.as_nanos();
        // The quantum just slept through: nothing before the first step.
        let mut slice = 0;
        let mut elapsed = SimDuration::ZERO;
        env.lend(move |_env| {
            let mut st = inner.lock();
            st.busy += elapsed;
            remaining -= slice;
            if remaining == 0 {
                return Step::Done;
            }
            slice = remaining.min(quantum);
            let demand = (st.active + st.bg_jobs) as f64 / st.cores as f64;
            elapsed = SimDuration::from_nanos(slice).mul_f64(demand.max(1.0) / st.speed);
            Step::Delay(elapsed)
        });
        self.inner.lock().active -= 1;
    }

    /// [`compute`](Self::compute) as a plain loop of `Env::delay`s on the
    /// calling process's own thread — the definition the lent version
    /// must match event for event.
    #[cfg(test)]
    fn compute_reference(&self, env: &Env, work: SimDuration) {
        if work.is_zero() {
            return;
        }
        {
            let mut st = self.inner.lock();
            st.active += 1;
            st.work_done += work;
        }
        let quantum = std::cmp::max(work.as_nanos() / CPU_QUANTA, 1);
        let mut remaining = work.as_nanos();
        while remaining > 0 {
            let slice = remaining.min(quantum);
            let factor = {
                let st = self.inner.lock();
                let demand = (st.active + st.bg_jobs) as f64 / st.cores as f64;
                demand.max(1.0) / st.speed
            };
            let elapsed = SimDuration::from_nanos(slice).mul_f64(factor);
            env.delay(elapsed);
            self.inner.lock().busy += elapsed;
            remaining -= slice;
        }
        self.inner.lock().active -= 1;
    }

    /// Total virtual time application threads spent occupying this CPU.
    pub fn busy_time(&self) -> SimDuration {
        self.inner.lock().busy
    }

    /// Total reference-speed work charged to this CPU.
    pub fn work_done(&self) -> SimDuration {
        self.inner.lock().work_done
    }
}

/// A disk with FIFO request service: each read pays a fixed positioning
/// overhead plus bytes / bandwidth, one request at a time.
#[derive(Clone)]
pub struct Disk {
    sem: Semaphore,
    inner: Arc<Mutex<DiskState>>,
}

struct DiskState {
    bandwidth_bps: f64,
    seek: SimDuration,
    bytes_read: u64,
    reads: u64,
    bytes_written: u64,
    writes: u64,
    busy: SimDuration,
}

impl Disk {
    /// A disk serving `bandwidth_bps` bytes per second with `seek`
    /// positioning overhead per request.
    pub fn new(bandwidth_bps: f64, seek: SimDuration) -> Self {
        assert!(bandwidth_bps > 0.0, "disk bandwidth must be positive");
        Disk {
            sem: Semaphore::new(1),
            inner: Arc::new(Mutex::new(DiskState {
                bandwidth_bps,
                seek,
                bytes_read: 0,
                reads: 0,
                bytes_written: 0,
                writes: 0,
                busy: SimDuration::ZERO,
            })),
        }
    }

    /// Read `bytes` from the disk, blocking for queueing + service time
    /// (full positioning overhead — use for the first read of a file).
    pub fn read(&self, env: &Env, bytes: u64) {
        self.read_inner(env, bytes, 1.0);
    }

    /// Sequential continuation read: the head is already positioned, so
    /// only a small fraction of the positioning overhead (rotational
    /// settling, track switches) is charged.
    pub fn read_seq(&self, env: &Env, bytes: u64) {
        self.read_inner(env, bytes, 0.125);
    }

    fn read_inner(&self, env: &Env, bytes: u64, seek_frac: f64) {
        self.sem.acquire(env);
        let service = {
            let st = self.inner.lock();
            st.seek.mul_f64(seek_frac) + SimDuration::from_secs_f64(bytes as f64 / st.bandwidth_bps)
        };
        env.delay(service);
        {
            let mut st = self.inner.lock();
            st.bytes_read += bytes;
            st.reads += 1;
            st.busy += service;
        }
        self.sem.release(env);
    }

    /// Write `bytes` to the disk, blocking for queueing + service time
    /// (full positioning overhead). Used by the out-of-core spill path:
    /// a spilled buffer pays the same seek + transfer model as a read.
    pub fn write(&self, env: &Env, bytes: u64) {
        self.write_inner(env, bytes, 1.0);
    }

    /// Sequential continuation write (the head is already positioned —
    /// e.g. consecutive slots of a spill ring).
    pub fn write_seq(&self, env: &Env, bytes: u64) {
        self.write_inner(env, bytes, 0.125);
    }

    fn write_inner(&self, env: &Env, bytes: u64, seek_frac: f64) {
        self.sem.acquire(env);
        let service = {
            let st = self.inner.lock();
            st.seek.mul_f64(seek_frac) + SimDuration::from_secs_f64(bytes as f64 / st.bandwidth_bps)
        };
        env.delay(service);
        {
            let mut st = self.inner.lock();
            st.bytes_written += bytes;
            st.writes += 1;
            st.busy += service;
        }
        self.sem.release(env);
    }

    /// Total bytes served.
    pub fn bytes_read(&self) -> u64 {
        self.inner.lock().bytes_read
    }

    /// Number of read requests served.
    pub fn reads(&self) -> u64 {
        self.inner.lock().reads
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.inner.lock().bytes_written
    }

    /// Number of write requests served.
    pub fn writes(&self) -> u64 {
        self.inner.lock().writes
    }

    /// Accumulated service time.
    pub fn busy_time(&self) -> SimDuration {
        self.inner.lock().busy
    }
}

/// A unidirectional network link with store-and-forward service: a transfer
/// occupies the link for `bytes / bandwidth`, then the message experiences
/// propagation `latency` off the link (pipelined with the next transfer).
#[derive(Clone)]
pub struct Link {
    sem: Semaphore,
    inner: Arc<Mutex<LinkState>>,
}

struct LinkState {
    name: String,
    bandwidth_bps: f64,
    latency: SimDuration,
    /// Multiplier in `(0, 1]` applied to the configured bandwidth; lowered
    /// by fault injection to model link degradation, restored afterwards.
    degrade: f64,
    bytes: u64,
    transfers: u64,
    busy: SimDuration,
}

impl Link {
    /// A link carrying `bandwidth_bps` bytes/second with `latency`
    /// propagation delay.
    pub fn new(name: impl Into<String>, bandwidth_bps: f64, latency: SimDuration) -> Self {
        assert!(bandwidth_bps > 0.0, "link bandwidth must be positive");
        Link {
            sem: Semaphore::new(1),
            inner: Arc::new(Mutex::new(LinkState {
                name: name.into(),
                bandwidth_bps,
                latency,
                degrade: 1.0,
                bytes: 0,
                transfers: 0,
                busy: SimDuration::ZERO,
            })),
        }
    }

    /// Move `bytes` across the link, blocking for queueing, serialization,
    /// and propagation.
    pub fn transfer(&self, env: &Env, bytes: u64) {
        self.sem.acquire(env);
        let (serialize, latency) = {
            let st = self.inner.lock();
            (
                SimDuration::from_secs_f64(bytes as f64 / (st.bandwidth_bps * st.degrade)),
                st.latency,
            )
        };
        env.delay(serialize);
        {
            let mut st = self.inner.lock();
            st.bytes += bytes;
            st.transfers += 1;
            st.busy += serialize;
        }
        self.sem.release(env);
        env.delay(latency);
    }

    /// Begin occupying the link as part of a multi-link route (see
    /// `Topology::transfer`) if it is free; otherwise register the calling
    /// process to be woken when it is released. Pair with
    /// [`occupy_end`](Self::occupy_end).
    pub fn poll_occupy(&self, env: &Env) -> std::task::Poll<()> {
        self.sem.poll_acquire(env)
    }

    /// Finish a route occupancy started with
    /// [`poll_occupy`](Self::poll_occupy), recording `bytes` moved during
    /// `held` of occupancy and releasing the link.
    pub fn occupy_end(&self, env: &Env, bytes: u64, held: SimDuration) {
        {
            let mut st = self.inner.lock();
            st.bytes += bytes;
            st.transfers += 1;
            st.busy += held;
        }
        self.sem.release(env);
    }

    /// Configured propagation latency.
    pub fn latency(&self) -> SimDuration {
        self.inner.lock().latency
    }

    /// Link label (diagnostics).
    pub fn name(&self) -> String {
        self.inner.lock().name.clone()
    }

    /// Total bytes carried.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().bytes
    }

    /// Number of transfers carried.
    pub fn transfers(&self) -> u64 {
        self.inner.lock().transfers
    }

    /// Accumulated serialization (occupancy) time.
    pub fn busy_time(&self) -> SimDuration {
        self.inner.lock().busy
    }

    /// Effective bandwidth in bytes/second (configured bandwidth times the
    /// current degradation factor). Route planning and in-flight transfers
    /// read this, so fault-injected degradation takes effect immediately.
    pub fn bandwidth_bps(&self) -> f64 {
        let st = self.inner.lock();
        st.bandwidth_bps * st.degrade
    }

    /// Set the degradation factor (`1.0` = healthy). Values are clamped to
    /// a small positive floor so bandwidth never reaches zero.
    pub fn set_degrade(&self, factor: f64) {
        self.inner.lock().degrade = factor.clamp(1e-6, 1.0);
    }

    /// Current degradation factor.
    pub fn degrade(&self) -> f64 {
        self.inner.lock().degrade
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RunStats, Simulation};

    #[test]
    fn cpu_uncontended_runs_at_speed() {
        let mut sim = Simulation::new();
        let cpu = Cpu::new(1, 2.0); // 2x reference speed
        sim.spawn("t", move |env| {
            cpu.compute(&env, SimDuration::from_secs(2));
            assert_eq!(env.now().as_secs_f64(), 1.0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn cpu_contention_slows_down() {
        let mut sim = Simulation::new();
        let cpu = Cpu::new(1, 1.0);
        let ends: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2 {
            let cpu = cpu.clone();
            let ends = ends.clone();
            sim.spawn(format!("t{i}"), move |env| {
                cpu.compute(&env, SimDuration::from_secs(1));
                ends.lock().push(env.now().as_secs_f64());
            });
        }
        sim.run().unwrap();
        // Two threads sharing one core: ~2s each rather than 1s.
        for &t in ends.lock().iter() {
            assert!((1.9..=2.1).contains(&t), "end {t}");
        }
    }

    #[test]
    fn cpu_multicore_no_contention() {
        let mut sim = Simulation::new();
        let cpu = Cpu::new(2, 1.0);
        let ends: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2 {
            let cpu = cpu.clone();
            let ends = ends.clone();
            sim.spawn(format!("t{i}"), move |env| {
                cpu.compute(&env, SimDuration::from_secs(1));
                ends.lock().push(env.now().as_secs_f64());
            });
        }
        sim.run().unwrap();
        for &t in ends.lock().iter() {
            assert!((0.99..=1.01).contains(&t), "end {t}");
        }
    }

    #[test]
    fn cpu_background_jobs_steal_time() {
        let mut sim = Simulation::new();
        let cpu = Cpu::new(1, 1.0);
        cpu.set_bg_jobs(3);
        sim.spawn("t", move |env| {
            cpu.compute(&env, SimDuration::from_secs(1));
            // 1 app thread + 3 bg jobs on 1 core -> 4x dilation.
            assert!((3.9..=4.1).contains(&env.now().as_secs_f64()));
        });
        sim.run().unwrap();
    }

    #[test]
    fn computes_on_idle_hosts_cost_one_handoff_each() {
        const N: u64 = 8;
        let mut sim = Simulation::new();
        for i in 0..N {
            let cpu = Cpu::new(1, 1.0 + i as f64 / 4.0);
            sim.spawn(format!("t{i}"), move |env| {
                cpu.compute(&env, SimDuration::from_secs(1));
            });
        }
        let stats = sim.run().unwrap();
        // Sixteen quanta each, fifteen of them consumed by the event loop:
        // a compute wakes its thread once, at the end, not sixteen times.
        assert_eq!(stats.events, N + 16 * N);
        assert_eq!(stats.inline_steps, 15 * N);
        // One start and one finish each. (The fastest host's finish is a
        // self-grant: it blocked last, so it is the one dispatching.)
        assert_eq!(stats.handoffs + stats.self_grants, N + N);
        assert_eq!(stats.self_grants, 1);
    }

    #[test]
    fn quanta_that_round_to_zero_schedule_no_event() {
        let mut sim = Simulation::new();
        let cpu = Cpu::new(1, 4.0);
        let c2 = cpu.clone();
        sim.spawn("t", move |env| {
            // Sixteen 1 ns quanta at 4x speed: 0.25 ns each, no time at all.
            c2.compute(&env, SimDuration::from_nanos(16));
            assert_eq!(env.now(), crate::time::SimTime::ZERO);
            // 5 ns quanta take 1.25 ns, truncated to 1 ns.
            c2.compute(&env, SimDuration::from_nanos(80));
            assert_eq!(env.now().as_nanos(), 16);
        });
        let stats = sim.run().unwrap();
        assert_eq!(stats.events, 1 + 16);
        assert_eq!(cpu.busy_time().as_nanos(), 16);
        assert_eq!(cpu.work_done().as_nanos(), 96);
    }

    // -- oracle: the lent `compute` against the delay loop ------------------

    use crate::sync::channel;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

    type ComputeFn = fn(&Cpu, &Env, SimDuration);

    enum Op {
        Compute { cpu: usize, work: u64 },
        Send,
        Nap(u64),
    }

    /// Everything observable about one scenario run.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        end_time: u64,
        events: u64,
        processes: u32,
        /// Finish time of each worker, then of the drain process.
        finishes: Vec<u64>,
        /// `(busy_time, work_done)` of each CPU at the end.
        cpus: Vec<(u64, u64)>,
        /// The timer's readings: `(now, busy_time of every CPU)` per tick.
        samples: Vec<(u64, Vec<u64>)>,
        /// Wakes the timer landed on a worker that was inside `compute`.
        stray_wakes: u64,
        /// Non-zero computes that took no virtual time at all.
        timeless_computes: u64,
    }

    /// A work size: from nothing through single nanoseconds (quanta of
    /// 1 ns, which fast hosts round to zero) to seconds.
    fn draw_work(rng: &mut SmallRng) -> u64 {
        match rng.gen_range(0u32..6) {
            0 => 0,
            1 => rng.gen_range(1u64..40),
            2 => rng.gen_range(40u64..5_000),
            3 => rng.gen_range(5_000u64..5_000_000),
            4 => rng.gen_range(5_000_000u64..500_000_000),
            _ => rng.gen_range(500_000_000u64..3_000_000_000),
        }
    }

    /// 2-12 workers over 1-4 CPUs mixing computes, sends on a bounded
    /// channel and `block_until` naps; a drain process that computes per
    /// item; a timer that changes `bg_jobs`, reads `busy_time` and wakes
    /// workers that are napping, mid-compute or blocked in `send`.
    fn run_scenario(seed: u64, compute: ComputeFn) -> (Outcome, RunStats) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cpus: Vec<Cpu> = (0..rng.gen_range(1usize..5))
            .map(|_| Cpu::new(rng.gen_range(1u32..5), rng.gen_range(0.25f64..4.0)))
            .collect();
        let workers = rng.gen_range(2usize..13);
        let scripts: Vec<Vec<Op>> = (0..workers)
            .map(|_| {
                (0..rng.gen_range(1usize..6))
                    .map(|_| match rng.gen_range(0u32..5) {
                        0 => Op::Send,
                        1 => Op::Nap(rng.gen_range(0u64..2_000_000)),
                        _ => Op::Compute {
                            cpu: rng.gen_range(0usize..cpus.len()),
                            work: draw_work(&mut rng),
                        },
                    })
                    .collect()
            })
            .collect();
        let ticks: Vec<(u64, usize, u32, usize)> = (0..rng.gen_range(1usize..24))
            .map(|_| {
                (
                    draw_work(&mut rng) / 8,
                    rng.gen_range(0usize..cpus.len()),
                    rng.gen_range(0u32..7),
                    rng.gen_range(0usize..workers),
                )
            })
            .collect();
        let drain_cpu = cpus[rng.gen_range(0usize..cpus.len())].clone();
        let drain_work = draw_work(&mut rng) / 64;

        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>(sim.waker(), 2);
        let finishes = Arc::new(Mutex::new(vec![0u64; workers + 1]));
        const IN_COMPUTE: u8 = 1;
        const IN_NAP: u8 = 2;
        const IN_SEND: u8 = 3;
        let state: Arc<Vec<AtomicU8>> = Arc::new((0..workers).map(|_| AtomicU8::new(0)).collect());
        let timeless = Arc::new(AtomicU64::new(0));
        let mut pids = Vec::new();
        for (w, script) in scripts.into_iter().enumerate() {
            let (cpus, tx) = (cpus.clone(), tx.clone());
            let (finishes, state, timeless) = (finishes.clone(), state.clone(), timeless.clone());
            pids.push(sim.spawn(format!("w{w}"), move |env| {
                for op in script {
                    match op {
                        Op::Compute { cpu, work } => {
                            let before = env.now();
                            state[w].store(IN_COMPUTE, Ordering::Relaxed);
                            compute(&cpus[cpu], &env, SimDuration::from_nanos(work));
                            state[w].store(0, Ordering::Relaxed);
                            if work > 0 && env.now() == before {
                                timeless.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Op::Send => {
                            state[w].store(IN_SEND, Ordering::Relaxed);
                            tx.send(&env, w as u32).expect("drain outlives senders");
                            state[w].store(0, Ordering::Relaxed);
                        }
                        Op::Nap(ns) => {
                            state[w].store(IN_NAP, Ordering::Relaxed);
                            env.block_until(env.now() + SimDuration::from_nanos(ns));
                            state[w].store(0, Ordering::Relaxed);
                        }
                    }
                }
                finishes.lock()[w] = env.now().as_nanos();
            }));
        }
        drop(tx);
        let f = finishes.clone();
        sim.spawn("drain", move |env| {
            while rx.recv(&env).is_some() {
                compute(&drain_cpu, &env, SimDuration::from_nanos(drain_work));
            }
            f.lock()[workers] = env.now().as_nanos();
        });
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stray = Arc::new(AtomicU64::new(0));
        let (c, smp, st) = (cpus.clone(), samples.clone(), stray.clone());
        sim.spawn("timer", move |env| {
            for (gap, cpu, jobs, victim) in ticks {
                env.delay(SimDuration::from_nanos(gap));
                c[cpu].set_bg_jobs(jobs);
                let busy = c.iter().map(|c| c.busy_time().as_nanos()).collect();
                smp.lock().push((env.now().as_nanos(), busy));
                let doing = state[victim].load(Ordering::Relaxed);
                if doing != 0 && env.wake(pids[victim]) && doing == IN_COMPUTE {
                    st.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        let stats = sim.run().expect("scenario runs to completion");
        let outcome = Outcome {
            end_time: stats.end_time.as_nanos(),
            events: stats.events,
            processes: stats.processes,
            finishes: finishes.lock().clone(),
            cpus: cpus
                .iter()
                .map(|c| (c.busy_time().as_nanos(), c.work_done().as_nanos()))
                .collect(),
            samples: samples.lock().clone(),
            stray_wakes: stray.load(Ordering::Relaxed),
            timeless_computes: timeless.load(Ordering::Relaxed),
        };
        (outcome, stats)
    }

    #[test]
    fn chained_compute_matches_the_delay_loop_reference() {
        let (mut stray_wakes, mut timeless, mut inline, mut saved) = (0, 0, 0, 0);
        for seed in 0..96u64 {
            let (reference, ref_stats) = run_scenario(seed, Cpu::compute_reference);
            let (chained, stats) = run_scenario(seed, Cpu::compute);
            assert_eq!(chained, reference, "seed {seed}");
            assert_eq!(ref_stats.inline_steps, 0, "seed {seed}");
            assert!(stats.handoffs <= ref_stats.handoffs, "seed {seed}");
            stray_wakes += chained.stray_wakes;
            timeless += chained.timeless_computes;
            inline += stats.inline_steps;
            saved += ref_stats.handoffs - stats.handoffs;
        }
        // The generator reaches the cases the lent step exists for.
        assert!(stray_wakes >= 10, "stray wakes mid-compute: {stray_wakes}");
        assert!(timeless >= 10, "all-zero-quanta computes: {timeless}");
        assert!(inline >= 1_000 && saved >= 1_000, "{inline} / {saved}");
    }

    #[test]
    fn disk_serializes_requests() {
        let mut sim = Simulation::new();
        let disk = Disk::new(100.0, SimDuration::from_millis(10)); // 100 B/s
        let ends: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2 {
            let disk = disk.clone();
            let ends = ends.clone();
            sim.spawn(format!("r{i}"), move |env| {
                disk.read(&env, 100); // 1s + 10ms seek
                ends.lock().push(env.now().as_nanos() / 1_000_000);
            });
        }
        sim.run().unwrap();
        assert_eq!(*ends.lock(), vec![1010, 2020]);
        assert_eq!(disk.bytes_read(), 200);
        assert_eq!(disk.reads(), 2);
    }

    #[test]
    fn disk_writes_share_the_queue_with_reads() {
        let mut sim = Simulation::new();
        let disk = Disk::new(100.0, SimDuration::from_millis(10)); // 100 B/s
        let d2 = disk.clone();
        sim.spawn("w", move |env| {
            d2.write(&env, 100); // 1s + 10ms seek
            assert_eq!(env.now().as_nanos() / 1_000_000, 1010);
            d2.write_seq(&env, 100); // 1s + 1.25ms settling
            assert_eq!(env.now().as_nanos() / 1_000_000, 2011);
            d2.read(&env, 50); // 0.5s + 10ms
            assert_eq!(env.now().as_nanos() / 1_000_000, 2521);
        });
        sim.run().unwrap();
        assert_eq!(disk.bytes_written(), 200);
        assert_eq!(disk.writes(), 2);
        assert_eq!(disk.bytes_read(), 50);
        assert_eq!(disk.reads(), 1);
    }

    #[test]
    fn link_charges_serialization_plus_latency() {
        let mut sim = Simulation::new();
        let link = Link::new("l", 1000.0, SimDuration::from_millis(5));
        let l2 = link.clone();
        sim.spawn("x", move |env| {
            l2.transfer(&env, 500); // 0.5s + 5ms
            assert_eq!(env.now().as_nanos(), 505_000_000);
        });
        sim.run().unwrap();
        assert_eq!(link.bytes(), 500);
        assert_eq!(link.transfers(), 1);
    }

    #[test]
    fn link_degradation_slows_transfers() {
        let mut sim = Simulation::new();
        let link = Link::new("l", 1000.0, SimDuration::ZERO);
        let l2 = link.clone();
        sim.spawn("x", move |env| {
            l2.transfer(&env, 500); // 0.5s healthy
            assert_eq!(env.now().as_nanos(), 500_000_000);
            l2.set_degrade(0.5);
            assert_eq!(l2.bandwidth_bps(), 500.0);
            l2.transfer(&env, 500); // 1.0s at half bandwidth
            assert_eq!(env.now().as_nanos(), 1_500_000_000);
            l2.set_degrade(1.0);
            assert_eq!(l2.bandwidth_bps(), 1000.0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn link_latency_is_pipelined() {
        // Two back-to-back transfers: second waits for serialization of the
        // first, not its propagation.
        let mut sim = Simulation::new();
        let link = Link::new("l", 1000.0, SimDuration::from_millis(100));
        let ends: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2 {
            let link = link.clone();
            let ends = ends.clone();
            sim.spawn(format!("x{i}"), move |env| {
                link.transfer(&env, 1000); // 1s serialize + 0.1s latency
                ends.lock().push(env.now().as_nanos() / 1_000_000);
            });
        }
        sim.run().unwrap();
        assert_eq!(*ends.lock(), vec![1100, 2100]);
    }
}
