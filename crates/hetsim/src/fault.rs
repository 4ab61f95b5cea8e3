//! Deterministic fault injection: a [`FaultPlan`] schedules host crashes,
//! transient host stalls, NIC degradation windows, seeded probabilistic
//! message drops — and, since the disks became load-bearing, **disk
//! faults**: throughput-degradation windows, seeded transient read/write
//! `io::Error` windows, and seeded read-corruption (bit-flip) windows.
//! All are expressed in **virtual time** so every fault replays
//! identically under the deterministic clock.
//!
//! The plan is a *pure oracle*: once built it is immutable, and every query
//! (`is_dead`, `stall_end`, `should_drop`, ...) is a pure function of the
//! plan and the current virtual time. Runtimes consult the oracle at their
//! own failure boundaries (a copy checks for its host's death before each
//! dequeue; a writer skips hosts whose death has become detectable), which
//! keeps the failure semantics deterministic and replayable: two runs with
//! the same plan observe exactly the same faults at exactly the same
//! virtual instants.
//!
//! Only NIC-degradation windows need active drivers (they flip link state
//! at their start and end times); [`FaultPlan::install`] spawns one short-
//! lived process per window and nothing else, so an installed plan never
//! keeps a simulation alive.
//!
//! ```
//! use hetsim::fault::FaultPlan;
//! use hetsim::{SimDuration, SimTime, HostId};
//!
//! let plan = FaultPlan::new()
//!     .crash_host(HostId(2), SimTime::ZERO + SimDuration::from_millis(50))
//!     .drop_messages(0xBEEF, 0.01);
//! assert!(!plan.is_dead(HostId(2), SimTime::ZERO));
//! assert!(plan.is_dead(HostId(2), SimTime::ZERO + SimDuration::from_millis(50)));
//! ```

use crate::engine::Simulation;
use crate::time::{SimDuration, SimTime};
use crate::topology::{HostId, Topology};

/// Which disk operations a seeded [`disk_error`](FaultPlan::disk_error)
/// window fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// Fail reads (spill fault-in, chunk fetches).
    Read,
    /// Fail writes (spill-out, ring growth).
    Write,
    /// Fail both directions.
    ReadWrite,
}

impl DiskFaultKind {
    /// True when a window of this kind covers an operation of `op` kind
    /// (`ReadWrite` windows cover everything).
    pub fn covers(self, op: DiskFaultKind) -> bool {
        self == DiskFaultKind::ReadWrite || self == op
    }

    fn label(self) -> &'static str {
        match self {
            DiskFaultKind::Read => "read",
            DiskFaultKind::Write => "write",
            DiskFaultKind::ReadWrite => "read/write",
        }
    }
}

/// A scheduled, immutable set of faults. Cheap to clone; build with the
/// chained constructors, then hand copies to the runtime and call
/// [`install`](FaultPlan::install) on the simulation.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    crashes: Vec<(HostId, SimTime)>,
    stalls: Vec<(HostId, SimTime, SimDuration)>,
    degrades: Vec<(HostId, SimTime, SimDuration, f64)>,
    disk_degrades: Vec<(HostId, SimTime, SimDuration, f64)>,
    disk_errors: Vec<(HostId, SimTime, SimDuration, f64, DiskFaultKind)>,
    corrupt_reads: Vec<(HostId, SimTime, SimDuration, f64)>,
    storage_seed: u64,
    drop_rate: f64,
    drop_seed: u64,
    delay_rate: f64,
    delay_seed: u64,
    delay_dur: SimDuration,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule a fail-stop crash of `host` at virtual time `at`. Processes
    /// placed on the host observe the crash at their next failure boundary
    /// (runtime-defined; the DataCutter runtime uses stream-read edges).
    pub fn crash_host(mut self, host: HostId, at: SimTime) -> Self {
        self.crashes.push((host, at));
        self
    }

    /// Schedule a transient stall (freeze) of `host` for `dur` starting at
    /// `at`: compute and disk operations beginning inside the window are
    /// delayed to its end.
    pub fn stall_host(mut self, host: HostId, at: SimTime, dur: SimDuration) -> Self {
        self.stalls.push((host, at, dur));
        self
    }

    /// Degrade `host`'s NIC links (both directions) to `factor` of their
    /// configured bandwidth for `dur` starting at `at`.
    pub fn degrade_nic(mut self, host: HostId, at: SimTime, dur: SimDuration, factor: f64) -> Self {
        self.degrades.push((host, at, dur, factor));
        self
    }

    /// Drop each cross-host message independently with probability `rate`,
    /// decided by a hash seeded with `seed` — the same (stream, message,
    /// attempt) triple always gets the same verdict, so runs replay.
    pub fn drop_messages(mut self, seed: u64, rate: f64) -> Self {
        self.drop_seed = seed;
        self.drop_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Delay each cross-host message independently by `dur` with
    /// probability `rate`, decided by a hash seeded with `seed`. Like
    /// drops, the verdict is a pure function of the (stream, message) key,
    /// so the same messages are delayed on every substrate — the chaos
    /// layer's jitter injection stays replay-comparable sim-vs-native.
    pub fn delay_messages(mut self, seed: u64, rate: f64, dur: SimDuration) -> Self {
        self.delay_seed = seed;
        self.delay_rate = rate.clamp(0.0, 1.0);
        self.delay_dur = dur;
        self
    }

    /// Degrade `host`'s disk throughput to `factor` of its configured
    /// bandwidth for `dur` starting at `at`. A pure time-indexed query
    /// (no installed driver): the storage plane stretches the virtual
    /// disk time it charges inside the window.
    pub fn degrade_disk(
        mut self,
        host: HostId,
        at: SimTime,
        dur: SimDuration,
        factor: f64,
    ) -> Self {
        self.disk_degrades.push((host, at, dur, factor));
        self
    }

    /// Fail each disk operation of `kind` on `host` independently with
    /// probability `rate` inside the window `[at, at + dur)`, decided by
    /// a hash seeded with [`storage_seed`](FaultPlan::storage_seed) —
    /// identical (host, op, attempt) keys always get identical verdicts,
    /// so a retried operation re-rolls and runs replay.
    pub fn disk_error(
        mut self,
        host: HostId,
        at: SimTime,
        dur: SimDuration,
        rate: f64,
        kind: DiskFaultKind,
    ) -> Self {
        self.disk_errors
            .push((host, at, dur, rate.clamp(0.0, 1.0), kind));
        self
    }

    /// Corrupt each successful disk read on `host` independently with
    /// probability `rate` inside the window `[at, at + dur)`: the storage
    /// plane flips one seeded bit in the bytes it read, exercising the
    /// checksum-detection path.
    pub fn corrupt_read(mut self, host: HostId, at: SimTime, dur: SimDuration, rate: f64) -> Self {
        self.corrupt_reads
            .push((host, at, dur, rate.clamp(0.0, 1.0)));
        self
    }

    /// Seed for every storage verdict (`should_fail_disk`,
    /// `should_corrupt_read`, `corrupt_bit`). Defaults to 0; set it so
    /// distinct chaos runs roll distinct fault schedules.
    pub fn storage_seed(mut self, seed: u64) -> Self {
        self.storage_seed = seed;
        self
    }

    // -- queries -----------------------------------------------------------

    /// True when the plan contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.stalls.is_empty()
            && self.degrades.is_empty()
            && !self.has_disk_faults()
            && self.drop_rate == 0.0
            && self.delay_rate == 0.0
    }

    /// True when at least one host crash is scheduled.
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// True when probabilistic message drops are enabled.
    pub fn has_drops(&self) -> bool {
        self.drop_rate > 0.0
    }

    /// True when probabilistic message delays are enabled.
    pub fn has_delays(&self) -> bool {
        self.delay_rate > 0.0
    }

    /// True when at least one NIC-degradation window is scheduled. These
    /// are the only faults that need the simulator's installed drivers
    /// (every other fault is a pure time-indexed query), so substrates
    /// without emulated NICs reject plans where this is true.
    pub fn has_degrades(&self) -> bool {
        !self.degrades.is_empty()
    }

    /// True when at least one disk-fault window (degrade, error, or
    /// corruption) is scheduled — the fast path the storage plane checks
    /// before keying any verdict.
    pub fn has_disk_faults(&self) -> bool {
        !self.disk_degrades.is_empty()
            || !self.disk_errors.is_empty()
            || !self.corrupt_reads.is_empty()
    }

    /// The (earliest) scheduled crash time of `host`, if any.
    pub fn host_death(&self, host: HostId) -> Option<SimTime> {
        self.crashes
            .iter()
            .filter(|&&(h, _)| h == host)
            .map(|&(_, at)| at)
            .min()
    }

    /// True once `host`'s scheduled crash time has been reached.
    pub fn is_dead(&self, host: HostId, now: SimTime) -> bool {
        self.host_death(host).is_some_and(|at| now >= at)
    }

    /// If `now` falls inside a stall window of `host`, the window's end.
    pub fn stall_end(&self, host: HostId, now: SimTime) -> Option<SimTime> {
        self.stalls
            .iter()
            .filter(|&&(h, at, dur)| h == host && now >= at && now < at + dur)
            .map(|&(_, at, dur)| at + dur)
            .max()
    }

    /// NIC-degradation factor applying to `host` at `now`: the strongest
    /// (smallest) factor among windows covering the instant, or `1.0`
    /// when none does. A pure time-indexed query — substrates without
    /// emulated NICs (the wall-clock executor) use it to translate a
    /// degradation window into equivalent per-message transfer delays
    /// instead of rejecting the plan.
    pub fn degrade_factor(&self, host: HostId, now: SimTime) -> f64 {
        self.degrades
            .iter()
            .filter(|&&(h, at, dur, _)| h == host && now >= at && now < at + dur)
            .map(|&(_, _, _, f)| f)
            .fold(1.0, f64::min)
    }

    /// Seeded drop verdict for one delivery attempt of one message. Keys
    /// are caller-chosen (stream id, sequence number, attempt counter);
    /// identical keys always produce identical verdicts.
    pub fn should_drop(&self, stream: u64, seq: u64, attempt: u64) -> bool {
        if self.drop_rate <= 0.0 {
            return false;
        }
        let h = splitmix64(
            self.drop_seed
                ^ splitmix64(stream.wrapping_add(0x9E37_79B9_7F4A_7C15))
                ^ splitmix64(
                    seq.wrapping_mul(0xBF58_476D_1CE4_E5B9)
                        .wrapping_add(attempt),
                ),
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // uniform in [0, 1)
        u < self.drop_rate
    }

    /// Seeded delay verdict for one message: the extra latency to inject
    /// before its (successful) transmission, or `None`. Keys are
    /// caller-chosen, identical keys always produce identical verdicts.
    pub fn message_delay(&self, stream: u64, seq: u64) -> Option<SimDuration> {
        if self.delay_rate <= 0.0 {
            return None;
        }
        let h = splitmix64(
            self.delay_seed
                ^ splitmix64(stream.wrapping_add(0xD1B5_4A32_D192_ED03))
                ^ splitmix64(seq.wrapping_mul(0x94D0_49BB_1331_11EB)),
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        (u < self.delay_rate).then_some(self.delay_dur)
    }

    /// Disk-degradation factor applying to `host` at `now`: the strongest
    /// (smallest) factor among windows covering the instant, or `1.0` when
    /// none does. Like [`degrade_factor`](FaultPlan::degrade_factor) but
    /// for the host's disks; needs no installed driver on any substrate.
    pub fn disk_degrade_factor(&self, host: HostId, now: SimTime) -> f64 {
        self.disk_degrades
            .iter()
            .filter(|&&(h, at, dur, _)| h == host && now >= at && now < at + dur)
            .map(|&(_, _, _, f)| f)
            .fold(1.0, f64::min)
    }

    /// Seeded failure verdict for one attempt of one disk operation of
    /// `op_kind` on `host` at `now`. `op` is a caller-chosen operation
    /// sequence number; `attempt` re-rolls the verdict, so bounded retries
    /// against a transient-error window eventually succeed and replay
    /// identically. Overlapping windows roll independently — the op fails
    /// if any covering window says so.
    pub fn should_fail_disk(
        &self,
        host: HostId,
        op_kind: DiskFaultKind,
        now: SimTime,
        op: u64,
        attempt: u64,
    ) -> bool {
        self.disk_errors
            .iter()
            .enumerate()
            .filter(|&(_, &(h, at, dur, _, kind))| {
                h == host && kind.covers(op_kind) && now >= at && now < at + dur
            })
            .any(|(i, &(_, _, _, rate, _))| {
                self.storage_verdict(0xD15C_0E44, host, i as u64, op, attempt, rate)
            })
    }

    /// Seeded corruption verdict for one successful disk read on `host`
    /// at `now`: should the storage plane flip a bit in what it read?
    /// Keyed like [`should_fail_disk`](FaultPlan::should_fail_disk).
    pub fn should_corrupt_read(&self, host: HostId, now: SimTime, op: u64, attempt: u64) -> bool {
        self.corrupt_reads
            .iter()
            .enumerate()
            .filter(|&(_, &(h, at, dur, _))| h == host && now >= at && now < at + dur)
            .any(|(i, &(_, _, _, rate))| {
                self.storage_verdict(0xB17F_11B5, host, i as u64, op, attempt, rate)
            })
    }

    /// The seeded bit to flip in a corrupted read of `len_bits` bits
    /// (0 when the read is empty): a pure function of the storage seed
    /// and the (op, attempt) key, so sim and native corrupt the same bit
    /// of the same frame.
    pub fn corrupt_bit(&self, op: u64, attempt: u64, len_bits: u64) -> u64 {
        if len_bits == 0 {
            return 0;
        }
        let h = splitmix64(
            self.storage_seed
                ^ splitmix64(op.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(attempt))
                ^ 0xF11B_0B17_C044_0717,
        );
        h % len_bits
    }

    /// One seeded storage verdict: uniform in `[0, 1)` from the mixed
    /// (family, host, window, op, attempt) key, compared against `rate`.
    fn storage_verdict(
        &self,
        family: u64,
        host: HostId,
        window: u64,
        op: u64,
        attempt: u64,
        rate: f64,
    ) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let h = splitmix64(
            self.storage_seed
                ^ splitmix64(family.wrapping_add(0x9E37_79B9_7F4A_7C15))
                ^ splitmix64(
                    (host.0 as u64)
                        .wrapping_mul(0xD1B5_4A32_D192_ED03)
                        .wrapping_add(window),
                )
                ^ splitmix64(op.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(attempt)),
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // uniform in [0, 1)
        u < rate
    }

    /// Human-readable descriptions of every scheduled fault, for run
    /// reports.
    pub fn describe(&self) -> Vec<String> {
        let mut out = Vec::new();
        for &(h, at) in &self.crashes {
            out.push(format!("crash host{} at {:.3}s", h.0, at.as_secs_f64()));
        }
        for &(h, at, dur) in &self.stalls {
            out.push(format!(
                "stall host{} at {:.3}s for {:.3}s",
                h.0,
                at.as_secs_f64(),
                dur.as_secs_f64()
            ));
        }
        for &(h, at, dur, f) in &self.degrades {
            out.push(format!(
                "degrade host{} nic x{:.2} at {:.3}s for {:.3}s",
                h.0,
                f,
                at.as_secs_f64(),
                dur.as_secs_f64()
            ));
        }
        for &(h, at, dur, f) in &self.disk_degrades {
            out.push(format!(
                "degrade host{} disk x{:.2} at {:.3}s for {:.3}s",
                h.0,
                f,
                at.as_secs_f64(),
                dur.as_secs_f64()
            ));
        }
        for &(h, at, dur, rate, kind) in &self.disk_errors {
            out.push(format!(
                "disk {} errors host{} p={} at {:.3}s for {:.3}s seed={:#x}",
                kind.label(),
                h.0,
                rate,
                at.as_secs_f64(),
                dur.as_secs_f64(),
                self.storage_seed
            ));
        }
        for &(h, at, dur, rate) in &self.corrupt_reads {
            out.push(format!(
                "corrupt disk reads host{} p={} at {:.3}s for {:.3}s seed={:#x}",
                h.0,
                rate,
                at.as_secs_f64(),
                dur.as_secs_f64(),
                self.storage_seed
            ));
        }
        if self.drop_rate > 0.0 {
            out.push(format!(
                "drop messages p={} seed={:#x}",
                self.drop_rate, self.drop_seed
            ));
        }
        if self.delay_rate > 0.0 {
            out.push(format!(
                "delay messages p={} by {:.3}s seed={:#x}",
                self.delay_rate,
                self.delay_dur.as_secs_f64(),
                self.delay_seed
            ));
        }
        out
    }

    /// Spawn the driver processes the plan needs (one per NIC-degradation
    /// window; crashes, stalls, and drops are pure queries and need none).
    /// Every driver terminates at its window's end, so installing a plan
    /// never deadlocks or prolongs an otherwise-finished run beyond the
    /// last degradation window.
    pub fn install(&self, sim: &mut Simulation, topo: &Topology) {
        for (i, &(host, at, dur, factor)) in self.degrades.iter().enumerate() {
            let topo = topo.clone();
            sim.spawn(format!("fault-degrade-{i}"), move |env| {
                if at > env.now() {
                    env.delay(at - env.now());
                }
                let h = topo.host(host);
                h.nic_tx().set_degrade(factor);
                h.nic_rx().set_degrade(factor);
                env.delay(dur);
                h.nic_tx().set_degrade(1.0);
                h.nic_rx().set_degrade(1.0);
            });
        }
    }
}

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash. Every seeded
/// verdict of a [`FaultPlan`] and the runtime's storage-retry backoff
/// jitter draw from it.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ClusterSpec, HostSpec, TopologyBuilder};

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn death_queries_follow_schedule() {
        let plan = FaultPlan::new()
            .crash_host(HostId(1), t(100))
            .crash_host(HostId(1), t(50)); // earliest wins
        assert_eq!(plan.host_death(HostId(1)), Some(t(50)));
        assert_eq!(plan.host_death(HostId(0)), None);
        assert!(!plan.is_dead(HostId(1), t(49)));
        assert!(plan.is_dead(HostId(1), t(50)));
        assert!(plan.has_crashes());
        assert!(!plan.is_empty());
    }

    #[test]
    fn stall_window_reports_end() {
        let plan = FaultPlan::new().stall_host(HostId(3), t(10), SimDuration::from_millis(5));
        assert_eq!(plan.stall_end(HostId(3), t(9)), None);
        assert_eq!(plan.stall_end(HostId(3), t(10)), Some(t(15)));
        assert_eq!(plan.stall_end(HostId(3), t(14)), Some(t(15)));
        assert_eq!(plan.stall_end(HostId(3), t(15)), None);
        assert_eq!(plan.stall_end(HostId(0), t(12)), None);
    }

    #[test]
    fn drops_are_seeded_and_deterministic() {
        let plan = FaultPlan::new().drop_messages(42, 0.25);
        let verdicts: Vec<bool> = (0..1000).map(|s| plan.should_drop(1, s, 0)).collect();
        let again: Vec<bool> = (0..1000).map(|s| plan.should_drop(1, s, 0)).collect();
        assert_eq!(verdicts, again, "same keys, same verdicts");
        let dropped = verdicts.iter().filter(|&&d| d).count();
        assert!(
            (150..350).contains(&dropped),
            "rate 0.25 over 1000: got {dropped}"
        );
        // A different attempt number re-rolls the verdict.
        assert!((0..1000).any(|s| plan.should_drop(1, s, 0) != plan.should_drop(1, s, 1)));
        // No drops configured -> never drops.
        assert!(!FaultPlan::new().should_drop(1, 2, 3));
    }

    #[test]
    fn delays_are_seeded_and_deterministic() {
        let plan = FaultPlan::new().delay_messages(7, 0.2, SimDuration::from_micros(250));
        let verdicts: Vec<Option<SimDuration>> =
            (0..1000).map(|s| plan.message_delay(3, s)).collect();
        let again: Vec<Option<SimDuration>> = (0..1000).map(|s| plan.message_delay(3, s)).collect();
        assert_eq!(verdicts, again, "same keys, same verdicts");
        let delayed = verdicts.iter().filter(|v| v.is_some()).count();
        assert!(
            (100..320).contains(&delayed),
            "rate 0.2 over 1000: got {delayed}"
        );
        assert!(verdicts
            .iter()
            .flatten()
            .all(|&d| d == SimDuration::from_micros(250)));
        assert!(FaultPlan::new().message_delay(1, 2).is_none());
        assert!(plan.has_delays());
        assert!(!plan.is_empty());
        assert!(!plan.has_degrades());
    }

    #[test]
    fn degrade_factor_tracks_windows() {
        let plan = FaultPlan::new()
            .degrade_nic(HostId(1), t(10), SimDuration::from_millis(10), 0.5)
            .degrade_nic(HostId(1), t(15), SimDuration::from_millis(10), 0.25);
        assert_eq!(plan.degrade_factor(HostId(1), t(9)), 1.0);
        assert_eq!(plan.degrade_factor(HostId(1), t(10)), 0.5);
        assert_eq!(
            plan.degrade_factor(HostId(1), t(16)),
            0.25,
            "strongest window wins"
        );
        assert_eq!(plan.degrade_factor(HostId(1), t(22)), 0.25);
        assert_eq!(plan.degrade_factor(HostId(1), t(25)), 1.0);
        assert_eq!(
            plan.degrade_factor(HostId(0), t(12)),
            1.0,
            "other hosts unaffected"
        );
    }

    #[test]
    fn disk_degrade_factor_tracks_windows() {
        let plan = FaultPlan::new()
            .degrade_disk(HostId(1), t(10), SimDuration::from_millis(10), 0.5)
            .degrade_disk(HostId(1), t(15), SimDuration::from_millis(10), 0.25);
        assert_eq!(plan.disk_degrade_factor(HostId(1), t(9)), 1.0);
        assert_eq!(plan.disk_degrade_factor(HostId(1), t(10)), 0.5);
        assert_eq!(
            plan.disk_degrade_factor(HostId(1), t(16)),
            0.25,
            "strongest window wins"
        );
        assert_eq!(plan.disk_degrade_factor(HostId(1), t(25)), 1.0);
        assert_eq!(plan.disk_degrade_factor(HostId(0), t(12)), 1.0);
        assert!(plan.has_disk_faults());
        assert!(!plan.is_empty());
        assert!(!plan.has_degrades(), "disk windows need no NIC driver");
    }

    #[test]
    fn disk_errors_are_seeded_windowed_and_rerolled_by_attempt() {
        let plan = FaultPlan::new().storage_seed(42).disk_error(
            HostId(2),
            t(0),
            SimDuration::from_millis(100),
            0.25,
            DiskFaultKind::Write,
        );
        let verdicts: Vec<bool> = (0..1000)
            .map(|op| plan.should_fail_disk(HostId(2), DiskFaultKind::Write, t(50), op, 0))
            .collect();
        let again: Vec<bool> = (0..1000)
            .map(|op| plan.should_fail_disk(HostId(2), DiskFaultKind::Write, t(50), op, 0))
            .collect();
        assert_eq!(verdicts, again, "same keys, same verdicts");
        let failed = verdicts.iter().filter(|&&d| d).count();
        assert!(
            (150..350).contains(&failed),
            "rate 0.25 over 1000: got {failed}"
        );
        // A retry re-rolls the verdict.
        assert!((0..1000).any(|op| {
            plan.should_fail_disk(HostId(2), DiskFaultKind::Write, t(50), op, 0)
                != plan.should_fail_disk(HostId(2), DiskFaultKind::Write, t(50), op, 1)
        }));
        // Outside the window, the wrong host, or the wrong kind: never.
        assert!((0..100).all(|op| {
            !plan.should_fail_disk(HostId(2), DiskFaultKind::Write, t(100), op, 0)
                && !plan.should_fail_disk(HostId(1), DiskFaultKind::Write, t(50), op, 0)
                && !plan.should_fail_disk(HostId(2), DiskFaultKind::Read, t(50), op, 0)
        }));
        // A ReadWrite window covers both operation kinds.
        let both = FaultPlan::new().disk_error(
            HostId(0),
            t(0),
            SimDuration::from_millis(10),
            1.0,
            DiskFaultKind::ReadWrite,
        );
        assert!(both.should_fail_disk(HostId(0), DiskFaultKind::Read, t(5), 1, 0));
        assert!(both.should_fail_disk(HostId(0), DiskFaultKind::Write, t(5), 1, 0));
    }

    #[test]
    fn corrupt_reads_are_seeded_and_pick_a_bit_in_range() {
        let plan = FaultPlan::new().storage_seed(7).corrupt_read(
            HostId(3),
            t(0),
            SimDuration::from_millis(100),
            0.2,
        );
        let verdicts: Vec<bool> = (0..1000)
            .map(|op| plan.should_corrupt_read(HostId(3), t(10), op, 0))
            .collect();
        let corrupted = verdicts.iter().filter(|&&d| d).count();
        assert!(
            (100..320).contains(&corrupted),
            "rate 0.2 over 1000: got {corrupted}"
        );
        assert!(
            !plan.should_corrupt_read(HostId(3), t(100), 1, 0),
            "window over"
        );
        assert!(
            !plan.should_corrupt_read(HostId(0), t(10), 1, 0),
            "other host"
        );
        for op in 0..100 {
            let bit = plan.corrupt_bit(op, 0, 4096);
            assert!(bit < 4096);
            assert_eq!(bit, plan.corrupt_bit(op, 0, 4096), "deterministic");
        }
        assert_eq!(plan.corrupt_bit(1, 0, 0), 0, "empty read");
        // Different ops spread across the frame.
        assert!(
            (0..100)
                .map(|op| plan.corrupt_bit(op, 0, 4096))
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 50
        );
    }

    #[test]
    fn describe_lists_every_fault() {
        let plan = FaultPlan::new()
            .crash_host(HostId(2), t(500))
            .stall_host(HostId(1), t(200), SimDuration::from_millis(100))
            .degrade_nic(HostId(0), t(0), SimDuration::from_millis(300), 0.25)
            .degrade_disk(HostId(3), t(0), SimDuration::from_millis(100), 0.5)
            .disk_error(
                HostId(3),
                t(0),
                SimDuration::from_millis(100),
                0.1,
                DiskFaultKind::Read,
            )
            .corrupt_read(HostId(3), t(0), SimDuration::from_millis(100), 0.05)
            .drop_messages(7, 0.01);
        let d = plan.describe();
        assert_eq!(d.len(), 7);
        assert!(d[0].contains("crash host2 at 0.500s"));
        assert!(d[1].contains("stall host1"));
        assert!(d[2].contains("degrade host0"));
        assert!(d[3].contains("degrade host3 disk"));
        assert!(d[4].contains("disk read errors host3"));
        assert!(d[5].contains("corrupt disk reads host3"));
        assert!(d[6].contains("drop messages"));
    }

    #[test]
    fn install_drives_degradation_window() {
        let mut b = TopologyBuilder::new();
        let c = b.add_cluster(ClusterSpec {
            name: "c".into(),
            nic_bandwidth_bps: 1000.0,
            nic_latency: SimDuration::ZERO,
        });
        let h0 = b.add_host(
            c,
            HostSpec {
                name: "h0".into(),
                cores: 1,
                speed: 1.0,
                mem_mb: 512,
                disks: 1,
                disk_bandwidth_bps: 1e6,
                disk_seek: SimDuration::ZERO,
            },
        );
        let h1 = b.add_host(
            c,
            HostSpec {
                name: "h1".into(),
                cores: 1,
                speed: 1.0,
                mem_mb: 512,
                disks: 1,
                disk_bandwidth_bps: 1e6,
                disk_seek: SimDuration::ZERO,
            },
        );
        let topo = b.build();
        let plan = FaultPlan::new().degrade_nic(h0, t(0), SimDuration::from_millis(2000), 0.5);
        let mut sim = Simulation::new();
        plan.install(&mut sim, &topo);
        let topo2 = topo.clone();
        sim.spawn("xfer", move |env| {
            env.delay(SimDuration::from_millis(1));
            // 500 B at 1000 B/s degraded x0.5 = 1.0s.
            let start = env.now();
            topo2.transfer(&env, h0, h1, 500);
            let took = (env.now() - start).as_secs_f64();
            assert!(
                (0.99..1.01).contains(&took),
                "degraded transfer took {took}"
            );
        });
        sim.run().unwrap();
        // Window over: bandwidth restored.
        assert_eq!(topo.host(h0).nic_tx().bandwidth_bps(), 1000.0);
    }
}
