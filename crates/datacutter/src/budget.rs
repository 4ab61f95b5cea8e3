//! Out-of-core machinery: a run-wide memory budget and a spill ring.
//!
//! TPIE's central idea — every component of an out-of-core computation
//! draws from one explicitly managed pool of main memory — applied to the
//! filter-stream runtime. A [`MemoryBudget`] tracks bytes granted to
//! in-flight stream buffers against a fixed total; when a stream's share
//! is exhausted, queued payloads are spilled to a [`SpillRing`] (a single
//! delete-on-drop temp file) and faulted back in on demand at the reader.
//!
//! The accounting invariant — `granted − released == resident` at every
//! point — is what the framework property tests pin down; the spill path
//! itself is exercised for bit-identity (a payload that round-trips
//! through the ring decodes to exactly the bytes that went in).

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Run-wide byte ledger for in-flight buffer payloads.
///
/// `total == 0` means *unlimited* (the out-of-core path is disabled and
/// `grant`/`release` are pure counters). The ledger never blocks: going
/// over budget is handled by spilling, not by back-pressure, so a grant
/// always succeeds — the caller consults its share afterwards.
#[derive(Debug, Default)]
pub struct MemoryBudget {
    total: u64,
    granted: AtomicU64,
    released: AtomicU64,
}

impl MemoryBudget {
    /// A ledger over `total` bytes (0 = unlimited).
    pub fn new(total: u64) -> Arc<MemoryBudget> {
        Arc::new(MemoryBudget {
            total,
            granted: AtomicU64::new(0),
            released: AtomicU64::new(0),
        })
    }

    /// Configured budget in bytes (0 = unlimited).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Record `bytes` entering residency.
    pub fn grant(&self, bytes: u64) {
        self.granted.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record `bytes` leaving residency (consumed, spilled, or dropped).
    pub fn release(&self, bytes: u64) {
        self.released.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Cumulative bytes granted.
    pub fn granted(&self) -> u64 {
        self.granted.load(Ordering::Relaxed)
    }

    /// Cumulative bytes released.
    pub fn released(&self) -> u64 {
        self.released.load(Ordering::Relaxed)
    }

    /// Bytes currently resident (`granted − released`). Reads the two
    /// counters independently, so a concurrent snapshot may transiently
    /// see a release before its grant; quiescent reads are exact.
    pub fn resident(&self) -> u64 {
        self.granted().saturating_sub(self.released())
    }
}

/// Handle to one payload parked in a [`SpillRing`].
///
/// Tickets are move-only receipts: redeeming (`fault`) or discarding one
/// frees its file range for reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillTicket {
    offset: u64,
    len: u32,
}

impl SpillTicket {
    /// Encoded payload length in bytes.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True for zero-length payloads.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Byte range inside the ring file that is free for reuse.
#[derive(Debug, Clone, Copy)]
struct FreeRange {
    offset: u64,
    len: u64,
}

#[derive(Debug, Default)]
struct RingState {
    /// Free ranges, kept coalesced and sorted by offset.
    free: Vec<FreeRange>,
    /// High-water mark: file bytes ever used.
    frontier: u64,
}

/// A single temp-file backing store for spilled payloads.
///
/// The file is created in the OS temp directory and unlinked immediately
/// (delete-while-open), so a crashed run leaves nothing behind. Slots are
/// allocated first-fit from a coalescing free list; `spill` writes with
/// `write_all_at` and `fault` reads with `read_exact_at`, so concurrent
/// spills/faults from different filter copies need no seek coordination.
pub struct SpillRing {
    file: File,
    st: Mutex<RingState>,
    spills: AtomicU64,
    spill_bytes: AtomicU64,
    faults: AtomicU64,
    fault_bytes: AtomicU64,
}

impl SpillRing {
    /// Create the backing file (unlinked at birth) in the OS temp dir.
    pub fn create() -> io::Result<Arc<SpillRing>> {
        let path = ring_path();
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        // Unlink while open: the kernel reclaims the space when the last
        // handle drops, even on abnormal exit.
        std::fs::remove_file(&path)?;
        Ok(Arc::new(SpillRing {
            file,
            st: Mutex::new(RingState::default()),
            spills: AtomicU64::new(0),
            spill_bytes: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            fault_bytes: AtomicU64::new(0),
        }))
    }

    /// First-fit slot allocation.
    fn alloc(&self, len: u64) -> u64 {
        let mut st = self.st.lock();
        if let Some(i) = st.free.iter().position(|r| r.len >= len) {
            let off = st.free[i].offset;
            if st.free[i].len == len {
                st.free.remove(i);
            } else {
                st.free[i].offset += len;
                st.free[i].len -= len;
            }
            return off;
        }
        let off = st.frontier;
        st.frontier += len;
        off
    }

    /// Return a range to the free list, coalescing with neighbours.
    fn free(&self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let mut st = self.st.lock();
        let i = st.free.partition_point(|r| r.offset < offset);
        st.free.insert(i, FreeRange { offset, len });
        // Coalesce with successor, then predecessor.
        if i + 1 < st.free.len() && st.free[i].offset + st.free[i].len == st.free[i + 1].offset {
            st.free[i].len += st.free[i + 1].len;
            st.free.remove(i + 1);
        }
        if i > 0 && st.free[i - 1].offset + st.free[i - 1].len == st.free[i].offset {
            st.free[i - 1].len += st.free[i].len;
            st.free.remove(i);
        }
    }

    /// Park `bytes` in the ring, returning the redeemable ticket. A frame
    /// longer than a ticket can record (`u32::MAX` bytes) is refused with
    /// [`io::ErrorKind::InvalidInput`] before anything is allocated.
    pub fn spill(&self, bytes: &[u8]) -> io::Result<SpillTicket> {
        let len = ticket_len(bytes.len())?;
        let offset = self.alloc(len as u64);
        self.file.write_all_at(bytes, offset)?;
        self.spills.fetch_add(1, Ordering::Relaxed);
        self.spill_bytes.fetch_add(len as u64, Ordering::Relaxed);
        Ok(SpillTicket { offset, len })
    }

    /// Read a parked payload back and free its slot.
    pub fn fault(&self, ticket: SpillTicket) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; ticket.len as usize];
        self.file.read_exact_at(&mut buf, ticket.offset)?;
        self.free(ticket.offset, ticket.len as u64);
        self.faults.fetch_add(1, Ordering::Relaxed);
        self.fault_bytes
            .fetch_add(ticket.len as u64, Ordering::Relaxed);
        Ok(buf)
    }

    /// Free a parked payload's slot without reading it (e.g. a spilled
    /// original the reaper released in favour of its retained replica).
    pub fn discard(&self, ticket: SpillTicket) {
        self.free(ticket.offset, ticket.len as u64);
    }

    /// Number of `spill` calls.
    pub fn spills(&self) -> u64 {
        self.spills.load(Ordering::Relaxed)
    }

    /// Bytes written by `spill`.
    pub fn spill_bytes(&self) -> u64 {
        self.spill_bytes.load(Ordering::Relaxed)
    }

    /// Number of `fault` calls.
    pub fn faults(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Bytes read by `fault`.
    pub fn fault_bytes(&self) -> u64 {
        self.fault_bytes.load(Ordering::Relaxed)
    }

    /// High-water mark of ring-file bytes ever allocated.
    pub fn frontier_bytes(&self) -> u64 {
        self.st.lock().frontier
    }
}

/// A temp-dir path no other ring of this process has taken: the pid and
/// a process-wide sequence number, so rings created at the same moment
/// on different threads never collide.
fn ring_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "dc_spill_{}_{}.ring",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A frame length as a ticket records it, or `InvalidInput` when it does
/// not fit.
fn ticket_len(len: usize) -> io::Result<u32> {
    u32::try_from(len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("spill frame of {len} bytes exceeds a ticket's u32 length"),
        )
    })
}

impl std::fmt::Debug for SpillRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillRing")
            .field("spills", &self.spills())
            .field("spill_bytes", &self.spill_bytes())
            .field("faults", &self.faults())
            .field("fault_bytes", &self.fault_bytes())
            .field("frontier_bytes", &self.frontier_bytes())
            .finish()
    }
}

/// Per-stream out-of-core state: the shared ledger + ring, this stream's
/// byte share, and its currently-resident queued bytes.
///
/// The run partitions `memory_budget_bytes` evenly across streams; a
/// stream whose resident queued bytes exceed its share spills the payload
/// it is about to enqueue and re-faults it at the reader. Residency here
/// counts only *in-flight queue copies* — the retention replicas a run
/// whose copies can die keeps stay in memory, outside the budget, until
/// their consumer settles them (DESIGN.md §13 gives their measured peak).
#[derive(Debug)]
pub struct StreamOoc {
    /// Run-wide ledger.
    pub ledger: Arc<MemoryBudget>,
    /// Run-wide storage control block: the (lazily created) spill ring
    /// plus the fault-verdict and retry machinery of the storage ladder.
    pub storage: Arc<crate::storage::StorageCtl>,
    /// This stream's byte share of the run budget.
    pub share: u64,
    /// Bytes of in-flight queue payloads currently in memory.
    resident: AtomicU64,
}

impl StreamOoc {
    /// Out-of-core state for one stream.
    pub fn new(
        ledger: Arc<MemoryBudget>,
        storage: Arc<crate::storage::StorageCtl>,
        share: u64,
    ) -> Arc<StreamOoc> {
        Arc::new(StreamOoc {
            ledger,
            storage,
            share,
            resident: AtomicU64::new(0),
        })
    }

    /// Charge `bytes` of a newly queued payload; returns `true` when the
    /// payload should spill: the stream already holds a resident payload,
    /// would now be over its share, *and* the payload is larger than the
    /// [stub](crate::SPILL_STUB_BYTES) spilling it would leave behind.
    ///
    /// The first payload into an empty stream stays whatever its size —
    /// a consumer must hold one payload to make progress, so a stream's
    /// floor is one payload. A payload no larger than the stub stays too:
    /// spilling it would free nothing and cost a write and a read. So a
    /// stream's residency is bounded by `max(share, largest payload)`
    /// plus [`SPILL_STUB_BYTES`](crate::SPILL_STUB_BYTES) per queued
    /// payload at or under it. The test reads `before` from the same
    /// atomic `fetch_add` that charges, so of several producers racing
    /// into an empty stream exactly one sees it empty.
    pub fn charge(&self, bytes: u64) -> bool {
        self.ledger.grant(bytes);
        let before = self.resident.fetch_add(bytes, Ordering::Relaxed);
        before > 0 && before + bytes > self.share && bytes > crate::SPILL_STUB_BYTES
    }

    /// Release `bytes` (payload consumed, spilled out, or dropped).
    pub fn discharge(&self, bytes: u64) {
        self.ledger.release(bytes);
        self.resident.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Give back what a queue payload dropped unread holds: its spill
    /// slot, or else its budget charge.
    pub(crate) fn drop_unread(&self, buf: &mut crate::buffer::DataBuffer) {
        if !buf.discard_spilled() {
            self.discharge(buf.take_budget_charged());
        }
    }

    /// Bytes of in-flight queue payloads currently resident.
    pub fn resident(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn ledger_conservation() {
        let b = MemoryBudget::new(1000);
        b.grant(400);
        b.grant(300);
        b.release(200);
        assert_eq!(b.granted(), 700);
        assert_eq!(b.released(), 200);
        assert_eq!(b.resident(), 500);
        b.release(500);
        assert_eq!(b.granted() - b.released(), b.resident());
        assert_eq!(b.resident(), 0);
    }

    #[test]
    fn spill_fault_roundtrip_is_bit_identical() {
        let ring = SpillRing::create().unwrap();
        let a: Vec<u8> = (0..=255).collect();
        let b = vec![7u8; 4096];
        let ta = ring.spill(&a).unwrap();
        let tb = ring.spill(&b).unwrap();
        assert_eq!(ring.fault(tb).unwrap(), b);
        assert_eq!(ring.fault(ta).unwrap(), a);
        assert_eq!(ring.spills(), 2);
        assert_eq!(ring.faults(), 2);
        assert_eq!(ring.spill_bytes(), 256 + 4096);
        assert_eq!(ring.fault_bytes(), 256 + 4096);
    }

    #[test]
    fn freed_slots_are_reused_first_fit() {
        let ring = SpillRing::create().unwrap();
        let t1 = ring.spill(&[1u8; 100]).unwrap();
        let _t2 = ring.spill(&[2u8; 100]).unwrap();
        assert_eq!(ring.frontier_bytes(), 200);
        // Redeem the first slot; an equal-size spill must reuse it.
        assert_eq!(ring.fault(t1).unwrap(), vec![1u8; 100]);
        let t3 = ring.spill(&[3u8; 100]).unwrap();
        assert_eq!(t3.offset, 0, "first-fit must reuse the freed hole");
        assert_eq!(ring.frontier_bytes(), 200, "no new file growth");
        // A smaller spill splits the next hole rather than growing.
        assert_eq!(ring.fault(t3).unwrap(), vec![3u8; 100]);
        let t4 = ring.spill(&[4u8; 40]).unwrap();
        assert_eq!(t4.offset, 0);
        let t5 = ring.spill(&[5u8; 60]).unwrap();
        assert_eq!(t5.offset, 40, "remainder of the split hole");
        assert_eq!(ring.frontier_bytes(), 200);
    }

    #[test]
    fn discard_frees_without_reading() {
        let ring = SpillRing::create().unwrap();
        let t = ring.spill(&[9u8; 64]).unwrap();
        ring.discard(t);
        assert_eq!(ring.faults(), 0);
        let t2 = ring.spill(&[8u8; 64]).unwrap();
        assert_eq!(t2.offset, 0, "discarded slot reused");
    }

    #[test]
    fn adjacent_frees_coalesce() {
        let ring = SpillRing::create().unwrap();
        let t1 = ring.spill(&[1u8; 50]).unwrap();
        let t2 = ring.spill(&[2u8; 50]).unwrap();
        let t3 = ring.spill(&[3u8; 50]).unwrap();
        ring.discard(t1);
        ring.discard(t3);
        ring.discard(t2); // middle free must merge all three
        let t = ring.spill(&[7u8; 150]).unwrap();
        assert_eq!(t.offset, 0, "coalesced hole fits the large spill");
        assert_eq!(ring.frontier_bytes(), 150);
    }

    #[test]
    fn stream_ooc_share_tripwire() {
        let ledger = MemoryBudget::new(1000);
        let storage = crate::storage::StorageCtl::healthy();
        let s = StreamOoc::new(ledger.clone(), storage, 100);
        assert!(!s.charge(60), "under share");
        assert!(s.charge(60), "over share");
        let stub = crate::SPILL_STUB_BYTES;
        assert!(!s.charge(stub), "over share, but no larger than its stub");
        assert!(s.charge(stub + 1), "over share and larger than its stub");
        assert_eq!(s.resident(), 121 + 2 * stub);
        assert_eq!(ledger.resident(), 121 + 2 * stub);
        s.discharge(stub);
        s.discharge(stub + 1);
        s.discharge(60);
        s.discharge(60);
        assert_eq!(s.resident(), 0);
        assert_eq!(ledger.granted() - ledger.released(), ledger.resident());
    }

    #[test]
    fn ticket_len_refuses_frames_past_u32() {
        assert_eq!(ticket_len(0).unwrap(), 0);
        assert_eq!(ticket_len(u32::MAX as usize).unwrap(), u32::MAX);
        let err = ticket_len(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn rings_created_concurrently_all_succeed() {
        let paths: std::collections::HashSet<PathBuf> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| (0..16).map(|_| ring_path()).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(paths.len(), 8 * 16, "every ring gets its own name");
        let rings: Vec<Arc<SpillRing>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        (0..16)
                            .map(|_| SpillRing::create().unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(rings.len(), 8 * 16);
        for (i, ring) in rings.iter().enumerate() {
            let t = ring.spill(&[i as u8; 4]).unwrap();
            assert_eq!(
                ring.fault(t).unwrap(),
                vec![i as u8; 4],
                "rings are distinct files"
            );
        }
    }

    #[test]
    fn unlimited_ledger_still_counts() {
        let b = MemoryBudget::new(0);
        assert_eq!(b.total(), 0);
        b.grant(10);
        assert_eq!(b.resident(), 10);
    }
}
