//! The storage fault domain: checksummed spill frames and the run-wide
//! storage control block behind the self-healing ladder.
//!
//! Since the out-of-core data plane landed, disks are load-bearing — a
//! spilled payload that cannot be written or read back is a correctness
//! event, not a curiosity. This module makes storage a first-class fault
//! domain with three layers:
//!
//! 1. **Detection** — every spill frame can carry an 8-byte little-endian
//!    checksum trailer ([`seal_frame`]), verified and stripped on fault-in
//!    ([`open_frame`]). The checksum walks the frame a word at a time over
//!    four independent lanes, and every step is injective in the word it
//!    absorbs, so *any* single bit flip changes it — bit-rot detection is
//!    deterministic, not probabilistic.
//! 2. **Injection** — [`StorageCtl`] interprets the fault plan's seeded
//!    disk events (`disk_error`, `corrupt_read`, `degrade_disk`) at the
//!    real `SpillRing` call sites, so the same plan replays on the
//!    virtual-time simulator and the wall-clock executor.
//! 3. **Recovery bookkeeping** — the control block owns the lazily
//!    created (and once-recreatable) spill ring, the bounded
//!    seeded-backoff retry budget, and the ladder tallies
//!    (`disk_errors_injected`, `storage_retries`, `spills_denied`,
//!    `corruptions_detected`) harvested into the run's
//!    [`FaultReport`](crate::metrics::FaultReport).
//!
//! The ladder itself lives at the call sites in [`crate::context`]: a
//! transient error is retried under seeded jittered backoff; a spill
//! write that keeps failing degrades to staying resident over budget
//! (`spills_denied`, ledger conservation intact); a corrupt or unreadable
//! frame falls back to loss-accounted recovery for that buffer; a wedged
//! ring (e.g. `ENOSPC`) is re-created once before the write path gives
//! up. A budget may still cost time, never bits — and now a flaky disk
//! costs retries or accounted losses, never an abort.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hetsim::{splitmix64, DiskFaultKind, FaultPlan, HostId, SimDuration, SimTime};
use parking_lot::Mutex;

use crate::budget::SpillRing;

/// Default bounded retry budget for transient storage errors (spill
/// writes and fault-in reads). Retries are cheap — a seeded backoff in
/// the tens of microseconds — and a transient-error window at rate `r`
/// survives all attempts with probability `r^(budget+1)`, negligible for
/// any realistic plan.
pub const DEFAULT_STORAGE_RETRY_BUDGET: u32 = 8;

/// Base of the storage-retry backoff envelope (doubles per attempt).
pub const STORAGE_BACKOFF_BASE: SimDuration = SimDuration::from_micros(50);

/// Cap of the storage-retry backoff envelope.
pub const STORAGE_BACKOFF_CAP: SimDuration = SimDuration::from_millis(5);

/// Seeded, jittered exponential backoff of the storage retry ladder:
/// attempt `attempt` (0-based) waits `min(base · 2^attempt, cap)` scaled
/// by a deterministic jitter in [0.5, 1.0) drawn from `(seed, key,
/// attempt)`. Pure — identical inputs always produce the identical delay,
/// so retry schedules replay exactly per seed.
pub fn backoff_delay(
    base: SimDuration,
    cap: SimDuration,
    seed: u64,
    key: u64,
    attempt: u32,
) -> SimDuration {
    let base_ns = base.as_nanos().max(1);
    let cap_ns = cap.as_nanos().max(base_ns);
    let exp_ns = base_ns
        .checked_shl(attempt.min(63))
        .unwrap_or(u64::MAX)
        .min(cap_ns);
    let h = splitmix64(
        seed ^ splitmix64(key.wrapping_add(0x9E37_79B9_7F4A_7C15)) ^ splitmix64(attempt as u64),
    );
    // Jitter in [0.5, 1.0): decorrelates retry herds without ever
    // shrinking the envelope below half.
    let jitter = 0.5 + ((h >> 11) as f64 / (1u64 << 53) as f64) * 0.5;
    SimDuration::from_nanos((exp_ns as f64 * jitter) as u64)
}

/// Bound on the retained storage-event timeline (first events win; the
/// overflow is counted, not stored).
const MAX_STORAGE_EVENTS: usize = 64;

/// Independent accumulators the checksum spreads a frame's words over:
/// one lane's multiply does not wait for another's, so the walk runs at
/// memory speed instead of one dependent multiply per byte.
const LANES: usize = 4;

/// One checksum step: fold `word` into `state`. Multiplying by an odd
/// constant and rotating are both bijections on `u64`, so the step is
/// injective in `word` for a fixed `state` and bijective in `state` for a
/// fixed `word` — the two facts [`frame_checksum`]'s guarantee rests on.
#[inline]
fn absorb(state: u64, word: u64) -> u64 {
    (state ^ word)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29)
}

/// The spill-frame checksum. Whole blocks of `LANES` little-endian words
/// are absorbed one word per lane; the lanes are then folded into one
/// state, which absorbs the words left over after the last whole block,
/// the zero-padded tail word (zero when the length is a multiple of 8)
/// and finally the length, so frames that differ only in trailing zero
/// bytes still differ.
///
/// **Any single bit flip in `bytes` changes the result**, deterministically.
/// A flipped bit changes exactly one absorbed word. Where that word is
/// absorbed the state before it is unchanged, so (injective in the word)
/// the state after it differs; every later step of that lane or of the
/// folded state absorbs an unchanged word, so (bijective in the state)
/// the difference survives to the end. A differing lane enters the fold
/// either as the initial state or as an absorbed word, and the same two
/// facts carry the difference through the fold, the tail and the length
/// step, which are all the same map.
fn frame_checksum(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let (blocks, leftover) = words.as_chunks::<LANES>();
    // Distinct non-zero starts, so an all-zero frame does not leave every
    // lane at the multiply's fixed point.
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| absorb(0, i as u64 + 1));
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block) {
            *lane = absorb(*lane, u64::from_le_bytes(*word));
        }
    }
    let mut state = lanes[1..].iter().fold(lanes[0], |s, &lane| absorb(s, lane));
    for word in leftover {
        state = absorb(state, u64::from_le_bytes(*word));
    }
    let mut tail_word = [0u8; 8];
    tail_word[..tail.len()].copy_from_slice(tail);
    state = absorb(state, u64::from_le_bytes(tail_word));
    absorb(state, bytes.len() as u64)
}

/// Seal a spill frame: append the 8-byte little-endian checksum of
/// everything currently in `frame`.
pub fn seal_frame(frame: &mut Vec<u8>) {
    let h = frame_checksum(frame);
    frame.extend_from_slice(&h.to_le_bytes());
}

/// Verify and strip a sealed frame's trailer, returning the payload
/// bytes. Errors (with a diagnostic) on a short frame or a checksum
/// mismatch — any single bit flip anywhere in the sealed frame lands
/// here deterministically.
pub fn open_frame(frame: &[u8]) -> Result<&[u8], String> {
    let Some(split) = frame.len().checked_sub(8) else {
        return Err(format!(
            "sealed frame too short for its checksum trailer ({} bytes)",
            frame.len()
        ));
    };
    let (payload, trailer) = frame.split_at(split);
    let mut stored = [0u8; 8];
    stored.copy_from_slice(trailer);
    let stored = u64::from_le_bytes(stored);
    let computed = frame_checksum(payload);
    if stored != computed {
        return Err(format!(
            "checksum mismatch over {} payload bytes: stored {stored:016x}, computed {computed:016x}",
            payload.len()
        ));
    }
    Ok(payload)
}

/// A structured storage-plane failure — what refines the old stringly
/// spill error. Carried inside [`RunError::Storage`](crate::RunError)
/// when the self-healing ladder cannot absorb the fault (or is not
/// allowed to, because no fault machinery is active to account the
/// loss).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The spill ring's backing temp file could not be created.
    RingCreate {
        /// The underlying I/O error, as text.
        message: String,
    },
    /// An I/O error that survived the whole retry ladder.
    Io {
        /// What the storage path was doing (e.g. "spill write").
        what: &'static str,
        /// The underlying I/O error, as text.
        message: String,
    },
    /// A detected corruption: the frame read back is not the frame that
    /// was written (checksum mismatch or undecodable payload).
    Corrupt {
        /// What the storage path was doing (e.g. "fault-in decode").
        what: &'static str,
        /// Diagnostic detail (stored vs computed checksum, byte counts).
        detail: String,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::RingCreate { message } => {
                write!(f, "spill-ring creation failed: {message}")
            }
            StorageError::Io { what, message } => {
                write!(f, "storage I/O failed during {what}: {message}")
            }
            StorageError::Corrupt { what, detail } => {
                write!(f, "corruption detected during {what}: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// One row of the storage-plane timeline, harvested into the
/// [`FaultReport`](crate::metrics::FaultReport) for chaos-job logs.
#[derive(Debug, Clone)]
pub struct StorageEvent {
    /// Run-axis time of the event.
    pub at: SimTime,
    /// Host whose storage path observed it.
    pub host: HostId,
    /// What happened (ring re-created, spill denied, frame lost, ...).
    pub detail: String,
}

/// The spill ring's lifecycle: created lazily on first spill, retired
/// (but kept alive — parked frames hold an `Arc` to the ring they were
/// written to, so old tickets stay redeemable) and re-created at most
/// once per run when the write path finds it wedged.
#[derive(Default)]
struct RingSlot {
    current: Option<Arc<SpillRing>>,
    retired: Vec<Arc<SpillRing>>,
    recreated: bool,
}

/// Run-wide storage control block: the lazily created spill ring, the
/// fault plan's disk-event verdicts, the retry/backoff knobs, and the
/// self-healing ladder's tallies. One per run (shared by every stream's
/// [`StreamOoc`](crate::budget::StreamOoc)); cheap when idle — a run
/// that never spills creates no temp file and rolls no verdicts.
pub struct StorageCtl {
    /// Fault plan consulted for disk verdicts (`None` ⇒ no injection;
    /// every verdict query answers "healthy").
    plan: Option<FaultPlan>,
    retry_budget: u32,
    checksum: bool,
    ring: Mutex<RingSlot>,
    /// Monotonic storage-operation counter: each logical spill/fault op
    /// draws one key, so seeded verdicts are independent per operation
    /// and re-rolled per retry attempt.
    ops: AtomicU64,
    disk_errors_injected: AtomicU64,
    storage_retries: AtomicU64,
    spills_denied: AtomicU64,
    corruptions_detected: AtomicU64,
    events: Mutex<Vec<StorageEvent>>,
}

impl StorageCtl {
    /// A control block with `plan`'s disk events (pass `None` for a
    /// fault-free storage plane), a bounded retry budget, and the
    /// checksum-framing switch.
    pub fn new(plan: Option<FaultPlan>, retry_budget: u32, checksum: bool) -> Arc<StorageCtl> {
        Arc::new(StorageCtl {
            plan: plan.filter(|p| p.has_disk_faults()),
            retry_budget,
            checksum,
            ring: Mutex::new(RingSlot::default()),
            ops: AtomicU64::new(0),
            disk_errors_injected: AtomicU64::new(0),
            storage_retries: AtomicU64::new(0),
            spills_denied: AtomicU64::new(0),
            corruptions_detected: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        })
    }

    /// A fault-free control block with the default knobs (test helper and
    /// the zero-configuration path).
    pub fn healthy() -> Arc<StorageCtl> {
        Self::new(None, DEFAULT_STORAGE_RETRY_BUDGET, true)
    }

    /// Whether spill frames carry the checksum trailer.
    pub fn checksum(&self) -> bool {
        self.checksum
    }

    /// Bounded retry budget for transient storage errors.
    pub fn retry_budget(&self) -> u32 {
        self.retry_budget
    }

    /// The live spill ring, created on first use — a budgeted run that
    /// never actually spills touches no temp file, and a creation failure
    /// surfaces here (into the ladder) instead of aborting the run up
    /// front.
    pub(crate) fn ring(&self) -> Result<Arc<SpillRing>, StorageError> {
        let mut slot = self.ring.lock();
        if let Some(ring) = &slot.current {
            return Ok(ring.clone());
        }
        match SpillRing::create() {
            Ok(ring) => {
                slot.current = Some(ring.clone());
                Ok(ring)
            }
            Err(e) => Err(StorageError::RingCreate {
                message: e.to_string(),
            }),
        }
    }

    /// Retire the current ring and create a fresh one — the ladder's
    /// last rung before degrading a wedged write path (e.g. `ENOSPC` on
    /// the temp filesystem). At most once per run; returns `false` when
    /// the recreation was already spent or the fresh ring cannot be
    /// created either. The retired ring stays alive through the `Arc`s
    /// parked frames hold, so already-spilled tickets remain redeemable.
    pub(crate) fn recreate_ring(&self, host: HostId, now: SimTime) -> bool {
        let mut slot = self.ring.lock();
        if slot.recreated {
            return false;
        }
        slot.recreated = true;
        let fresh = match SpillRing::create() {
            Ok(r) => r,
            Err(_) => return false,
        };
        if let Some(old) = slot.current.replace(fresh) {
            slot.retired.push(old);
        }
        drop(slot);
        self.note_event(
            now,
            host,
            "spill ring re-created (write path wedged)".into(),
        );
        true
    }

    /// Draw the next storage-operation key.
    pub(crate) fn next_op(&self) -> u64 {
        self.ops.fetch_add(1, Ordering::Relaxed)
    }

    /// Should operation `(op, attempt)` on `host` fail with an injected
    /// disk error now? Tallies the injection when it fires.
    pub(crate) fn injected_disk_error(
        &self,
        host: HostId,
        kind: DiskFaultKind,
        now: SimTime,
        op: u64,
        attempt: u64,
    ) -> bool {
        let Some(plan) = &self.plan else {
            return false;
        };
        let hit = plan.should_fail_disk(host, kind, now, op, attempt);
        if hit {
            self.disk_errors_injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// The bit to flip in a `len_bits`-bit frame read by operation
    /// `(op, attempt)` on `host`, when the plan corrupts that read.
    /// Tallies the injection when it fires. (Detection is tallied
    /// separately by [`note_corruption`](Self::note_corruption) — with
    /// checksums off, an injected flip may go undetected, and the gap
    /// between the two counters is exactly the silent corruption.)
    pub(crate) fn injected_corrupt_bit(
        &self,
        host: HostId,
        now: SimTime,
        op: u64,
        attempt: u64,
        len_bits: u64,
    ) -> Option<u64> {
        let plan = self.plan.as_ref()?;
        if len_bits == 0 || !plan.should_corrupt_read(host, now, op, attempt) {
            return None;
        }
        self.disk_errors_injected.fetch_add(1, Ordering::Relaxed);
        Some(plan.corrupt_bit(op, attempt, len_bits))
    }

    /// Current disk-degradation factor for `host` (1.0 = healthy).
    pub(crate) fn degrade_factor(&self, host: HostId, now: SimTime) -> f64 {
        self.plan
            .as_ref()
            .map_or(1.0, |p| p.disk_degrade_factor(host, now))
    }

    /// The seeded jittered backoff before retry `attempt` (0-based) of
    /// storage operation `op`. Pure per `(op, attempt)`, so sim retry
    /// schedules replay bit-identically.
    pub(crate) fn backoff(&self, op: u64, attempt: u32) -> SimDuration {
        backoff_delay(
            STORAGE_BACKOFF_BASE,
            STORAGE_BACKOFF_CAP,
            0x5707_4A6E_5EED,
            op,
            attempt,
        )
    }

    /// Tally one ladder retry.
    pub(crate) fn note_retry(&self) {
        self.storage_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Tally a spill write abandoned after the full ladder (the payload
    /// stays resident over budget) and record the timeline row.
    pub(crate) fn note_spill_denied(&self, host: HostId, at: SimTime, detail: &str) {
        self.spills_denied.fetch_add(1, Ordering::Relaxed);
        self.note_event(
            at,
            host,
            format!("spill denied, staying resident: {detail}"),
        );
    }

    /// Tally a detected corruption (checksum mismatch or undecodable
    /// frame) and record the timeline row.
    pub(crate) fn note_corruption(&self, host: HostId, at: SimTime, detail: &str) {
        self.corruptions_detected.fetch_add(1, Ordering::Relaxed);
        self.note_event(at, host, format!("corrupt frame dropped: {detail}"));
    }

    /// Record a timeline row (bounded; overflow is dropped silently —
    /// the tallies stay exact).
    pub(crate) fn note_event(&self, at: SimTime, host: HostId, detail: String) {
        let mut ev = self.events.lock();
        if ev.len() < MAX_STORAGE_EVENTS {
            ev.push(StorageEvent { at, host, detail });
        }
    }

    /// Disk errors (and corrupt reads) the plan injected.
    pub fn disk_errors_injected(&self) -> u64 {
        self.disk_errors_injected.load(Ordering::Relaxed)
    }

    /// Ladder retries after transient storage errors.
    pub fn storage_retries(&self) -> u64 {
        self.storage_retries.load(Ordering::Relaxed)
    }

    /// Spill writes the ladder abandoned (payload stayed resident).
    pub fn spills_denied(&self) -> u64 {
        self.spills_denied.load(Ordering::Relaxed)
    }

    /// Corruptions detected on fault-in.
    pub fn corruptions_detected(&self) -> u64 {
        self.corruptions_detected.load(Ordering::Relaxed)
    }

    /// Snapshot of the bounded event timeline.
    pub fn events(&self) -> Vec<StorageEvent> {
        self.events.lock().clone()
    }

    /// Fold `f` over every ring this run ever used (the live one plus any
    /// retired by a re-creation).
    fn sum_rings(&self, f: impl Fn(&SpillRing) -> u64) -> u64 {
        let slot = self.ring.lock();
        slot.current
            .iter()
            .chain(slot.retired.iter())
            .map(|r| f(r))
            .sum()
    }

    /// `spill` calls across every ring of the run.
    pub fn spills(&self) -> u64 {
        self.sum_rings(SpillRing::spills)
    }

    /// Bytes written across every ring of the run.
    pub fn spill_bytes(&self) -> u64 {
        self.sum_rings(SpillRing::spill_bytes)
    }

    /// `fault` calls across every ring of the run.
    pub fn faults(&self) -> u64 {
        self.sum_rings(SpillRing::faults)
    }

    /// Bytes read back across every ring of the run.
    pub fn fault_bytes(&self) -> u64 {
        self.sum_rings(SpillRing::fault_bytes)
    }
}

impl std::fmt::Debug for StorageCtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageCtl")
            .field("faulted", &self.plan.is_some())
            .field("retry_budget", &self.retry_budget)
            .field("checksum", &self.checksum)
            .field("spills", &self.spills())
            .field("spills_denied", &self.spills_denied())
            .field("corruptions_detected", &self.corruptions_detected())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn seal_and_open_roundtrip() {
        for len in [0usize, 1, 7, 64, 1000] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let mut frame = payload.clone();
            seal_frame(&mut frame);
            assert_eq!(frame.len(), len + 8);
            assert_eq!(open_frame(&frame).expect("clean frame opens"), &payload[..]);
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let payload: Vec<u8> = (0..97u8).collect();
        let mut frame = payload;
        seal_frame(&mut frame);
        for bit in 0..frame.len() * 8 {
            let mut tampered = frame.clone();
            tampered[bit / 8] ^= 1 << (bit % 8);
            assert!(
                open_frame(&tampered).is_err(),
                "flip of bit {bit} went undetected"
            );
        }
    }

    /// Every bit of every sealed frame of payload length 0 ..= 200: all
    /// tail lengths mod 8 and mod the lane block, from no whole block to
    /// several, the trailer's own bits included.
    #[test]
    fn every_bit_of_every_short_frame_is_detected() {
        for len in 0..=200usize {
            let mut frame: Vec<u8> = (0..len).map(|i| (i * 131 + len * 17) as u8).collect();
            seal_frame(&mut frame);
            assert_eq!(frame.len(), len + 8);
            for bit in 0..frame.len() * 8 {
                frame[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    open_frame(&frame).is_err(),
                    "flip of bit {bit} of a {len}-byte payload went undetected"
                );
                frame[bit / 8] ^= 1 << (bit % 8);
            }
            assert!(open_frame(&frame).is_ok(), "restored frame opens");
        }
    }

    /// Zero padding of the tail word must not make frames of different
    /// lengths collide: the length is absorbed too.
    #[test]
    fn trailing_zero_bytes_change_the_seal() {
        for len in 0..=72usize {
            let mut payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8 | 1).collect();
            payload.push(0);
            let [shorter, frame, longer] = [len, len + 1, len + 2].map(|n| {
                let mut p = payload.clone();
                p.resize(n, 0);
                frame_checksum(&p)
            });
            assert_ne!(frame, longer, "{len}+1 bytes vs a zero byte appended");
            assert_ne!(frame, shorter, "{len}+1 bytes vs its zero byte dropped");
            assert_ne!(shorter, longer);
        }
    }

    #[test]
    fn short_frames_are_rejected_not_sliced() {
        for len in 0..8usize {
            let frame = vec![0xAAu8; len];
            let err = open_frame(&frame).expect_err("short frame must error");
            assert!(err.contains("too short"), "unexpected diagnostic: {err}");
        }
    }

    #[test]
    fn lazy_ring_is_created_once_and_shared() {
        let ctl = StorageCtl::healthy();
        let a = ctl.ring().expect("ring creates");
        let b = ctl.ring().expect("ring re-used");
        assert!(Arc::ptr_eq(&a, &b), "same ring until re-created");
        let t = a.spill(&[1, 2, 3]).expect("spill");
        assert_eq!(ctl.spills(), 1);
        assert_eq!(a.fault(t).expect("fault"), vec![1, 2, 3]);
    }

    #[test]
    fn ring_recreation_is_once_and_keeps_old_stats() {
        let ctl = StorageCtl::healthy();
        let old = ctl.ring().expect("ring");
        let t = old.spill(&[9u8; 16]).expect("spill to old ring");
        assert!(
            ctl.recreate_ring(HostId(3), SimTime::ZERO),
            "first recreation"
        );
        let fresh = ctl.ring().expect("fresh ring");
        assert!(!Arc::ptr_eq(&old, &fresh), "ring really replaced");
        assert!(
            !ctl.recreate_ring(HostId(3), SimTime::ZERO),
            "recreation budget is one"
        );
        // The parked frame still redeems against the ring it was written
        // to, and run-wide stats keep counting the retired ring.
        assert_eq!(old.fault(t).expect("old ticket redeems"), vec![9u8; 16]);
        fresh.spill(&[1u8]).expect("fresh ring spills");
        assert_eq!(ctl.spills(), 2, "stats sum current + retired rings");
        assert_eq!(ctl.faults(), 1);
        assert_eq!(ctl.events().len(), 1, "recreation leaves a timeline row");
    }

    #[test]
    fn verdicts_are_inert_without_a_plan() {
        let ctl = StorageCtl::healthy();
        for op in 0..100 {
            assert!(!ctl.injected_disk_error(
                HostId(1),
                DiskFaultKind::Write,
                SimTime::ZERO,
                op,
                0
            ));
            assert!(ctl
                .injected_corrupt_bit(HostId(1), SimTime::ZERO, op, 0, 1024)
                .is_none());
        }
        assert_eq!(ctl.disk_errors_injected(), 0);
        assert_eq!(ctl.degrade_factor(HostId(1), SimTime::ZERO), 1.0);
    }

    #[test]
    fn injected_verdicts_follow_the_plan_and_tally() {
        let win = SimDuration::from_millis(10);
        let plan = FaultPlan::new().storage_seed(7).disk_error(
            HostId(2),
            SimTime::ZERO,
            win,
            1.0,
            DiskFaultKind::Write,
        );
        let ctl = StorageCtl::new(Some(plan), 4, true);
        assert!(ctl.injected_disk_error(HostId(2), DiskFaultKind::Write, SimTime::ZERO, 0, 0));
        assert!(!ctl.injected_disk_error(HostId(2), DiskFaultKind::Read, SimTime::ZERO, 0, 0));
        assert!(!ctl.injected_disk_error(
            HostId(2),
            DiskFaultKind::Write,
            SimTime::ZERO + win,
            1,
            0
        ));
        assert_eq!(ctl.disk_errors_injected(), 1);
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let ms = SimDuration::from_millis;
        let a: Vec<_> = (0..8)
            .map(|k| backoff_delay(ms(1), ms(20), 42, 7, k))
            .collect();
        let b: Vec<_> = (0..8)
            .map(|k| backoff_delay(ms(1), ms(20), 42, 7, k))
            .collect();
        assert_eq!(a, b, "same inputs, same schedule");
        for (k, d) in a.iter().enumerate() {
            let envelope = ms(1).as_nanos() << k.min(63);
            let cap = ms(20).as_nanos().min(envelope);
            assert!(d.as_nanos() <= cap, "attempt {k} over envelope");
            assert!(d.as_nanos() >= cap / 2, "attempt {k} under half envelope");
        }
        // A different seed decorrelates the jitter.
        let c: Vec<_> = (0..8)
            .map(|k| backoff_delay(ms(1), ms(20), 43, 7, k))
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn storage_backoff_is_deterministic_and_bounded() {
        let ctl = StorageCtl::healthy();
        for attempt in 0..6 {
            let a = ctl.backoff(11, attempt);
            assert_eq!(a, ctl.backoff(11, attempt), "pure per (op, attempt)");
            assert!(a <= STORAGE_BACKOFF_CAP);
            assert!(a.as_nanos() > 0);
        }
        assert_ne!(ctl.backoff(11, 0), ctl.backoff(12, 0), "ops decorrelate");
    }
}
