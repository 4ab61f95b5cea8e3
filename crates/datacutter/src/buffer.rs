//! Fixed-size data buffers exchanged over streams.
//!
//! DataCutter streams move untyped fixed-size byte buffers. We keep the
//! untyped nature (filters are wired together without shared generics) but
//! skip actual serialization: a [`DataBuffer`] carries a type-erased
//! payload plus an explicit `wire_bytes` — the size the buffer *would*
//! occupy on the wire, which is what the network emulation charges.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::budget::{SpillRing, SpillTicket};

/// Framing overhead charged per buffer on top of its payload bytes.
pub const BUFFER_OVERHEAD_BYTES: u64 = 64;

/// Wire size of a demand-driven acknowledgment message.
pub const ACK_WIRE_BYTES: u64 = 64;

/// Wire size of an end-of-work marker message.
pub const EOW_WIRE_BYTES: u64 = 32;

/// Monomorphized replicator attached to replicable buffers: clones the
/// erased payload into a slab-recycled box so the lossless-recovery layer
/// can retain a replica without knowing the concrete type. `None` if the
/// payload is not the type the replicator was made for.
type ReplicateFn = fn(&(dyn Any + Send), &BufferSlab, u64) -> Option<DataBuffer>;

/// Serialization contract a payload must offer before the out-of-core
/// layer may spill it to the [`SpillRing`] and fault it back in.
///
/// The encoding is private to the spill path (it never crosses hosts or
/// versions), so implementations are free to pick the cheapest flat
/// representation; the only requirement is `decode(encode(x)) == x` at
/// the bit level — the framework's property tests check exactly that.
pub trait SpillCodec {
    /// Append this payload's encoded bytes to `out` (which arrives
    /// cleared but with its capacity intact).
    fn spill_encode(&self, out: &mut Vec<u8>);
    /// Rebuild a payload from `spill_encode`'s output.
    fn spill_decode(bytes: &[u8]) -> Option<Self>
    where
        Self: Sized;
}

impl SpillCodec for Vec<u8> {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn spill_decode(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

/// Monomorphized encoder: appends the erased payload's spill bytes;
/// `false` if the payload is not the type the encoder was made for.
type SpillEncodeFn = fn(&(dyn Any + Send), &mut Vec<u8>) -> bool;

/// Monomorphized decoder: rebuilds an equally spillable buffer from ring
/// bytes (box supplied by the slab), or `None` on corrupt input.
type SpillDecodeFn = fn(&[u8], &BufferSlab, u64) -> Option<DataBuffer>;

/// The spill/fault pair carried by buffers made via
/// [`BufferSlab::make_spillable`].
#[derive(Clone, Copy)]
struct SpillFns {
    encode: SpillEncodeFn,
    decode: SpillDecodeFn,
}

/// Placeholder payload installed while the real one is parked in the
/// spill ring.
struct SpilledPayload {
    ticket: SpillTicket,
    /// The ring holding the ticket — carried per payload so parked
    /// frames survive a storage-ladder ring re-creation (old tickets
    /// redeem against the retired ring they were written to, which the
    /// `Arc` keeps alive).
    ring: Arc<SpillRing>,
}

/// Tombstone installed when a spilled payload was lost to the storage
/// plane (corrupt frame, or read retries exhausted and the slot
/// discarded). The loss itself is accounted by the caller; the tombstone
/// just makes a second redeem/discard inert.
struct LostPayload;

/// A unit of data flowing on a stream.
pub struct DataBuffer {
    payload: Box<dyn Any + Send>,
    wire_bytes: u64,
    /// Name of the payload's concrete type, kept so a mis-wired downcast
    /// can say what the buffer actually holds.
    type_name: &'static str,
    /// Set on buffers made via [`BufferSlab::make_replicable`]; `None`
    /// means the payload cannot be replicated (no `Clone` was promised)
    /// and the recovery layer must account the buffer as unretainable.
    replicate: Option<ReplicateFn>,
    /// Set on buffers made via [`BufferSlab::make_spillable`]; carried
    /// through spill and fault so a faulted buffer can spill again.
    spill: Option<SpillFns>,
    /// True while the stream's budget ledger holds an outstanding charge
    /// for this resident payload — set by the write-side out-of-core step
    /// and consumed by exactly one matching discharge on the read side.
    /// Deliberately `false` on retention replicas and faulted-in rebuilds
    /// (fresh buffers from [`DataBuffer::replicate`] / the spill decode
    /// path), which were never charged: a replayed replica must not be
    /// discharged, or the ledger underflows.
    budget_charged: bool,
}

impl DataBuffer {
    /// Wrap `payload`, declaring its wire size (payload bytes only; framing
    /// overhead is added by the transport).
    pub fn new<T: Any + Send>(payload: T, wire_bytes: u64) -> Self {
        DataBuffer {
            payload: Box::new(payload),
            wire_bytes,
            type_name: std::any::type_name::<T>(),
            replicate: None,
            spill: None,
            budget_charged: false,
        }
    }

    /// Mark the stream-budget charge banked for this resident payload.
    pub(crate) fn set_budget_charged(&mut self) {
        self.budget_charged = true;
    }

    /// Take the outstanding-charge mark; true at most once per charge.
    pub(crate) fn take_budget_charged(&mut self) -> bool {
        std::mem::take(&mut self.budget_charged)
    }

    /// Clone this buffer's payload into a new, equally replicable buffer
    /// (box supplied by `slab`), or `None` when the buffer was not made
    /// replicable. Replicas of replicas work: the replicator travels with
    /// every copy, so a retained entry can itself be re-replicated when a
    /// second fault needs the same data again.
    pub fn replicate(&self, slab: &BufferSlab) -> Option<DataBuffer> {
        self.replicate
            .and_then(|f| f(self.payload.as_ref(), slab, self.wire_bytes))
    }

    /// True when [`replicate`](Self::replicate) would succeed.
    pub fn is_replicable(&self) -> bool {
        self.replicate.is_some()
    }

    /// Declared payload wire size.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Total bytes the transport charges for this buffer.
    pub fn transport_bytes(&self) -> u64 {
        self.wire_bytes + BUFFER_OVERHEAD_BYTES
    }

    /// Recover the payload. Panics with a descriptive message on a type
    /// mismatch — that is always a wiring bug, not a data condition.
    pub fn downcast<T: Any>(self) -> T {
        self.downcast_ctx("stream")
    }

    /// [`downcast`](Self::downcast) with a caller-supplied context (e.g.
    /// `"Ra filter input"`) so the mismatch panic names the mis-wired
    /// stream, what the buffer actually holds, and its declared wire size.
    pub fn downcast_ctx<T: Any>(self, ctx: &str) -> T {
        match self.payload.downcast::<T>() {
            Ok(b) => *b,
            Err(_) => panic!(
                "{ctx}: payload type mismatch: expected {}, buffer holds {} ({} wire bytes)",
                std::any::type_name::<T>(),
                self.type_name,
                self.wire_bytes,
            ),
        }
    }

    /// Inspect the payload without consuming the buffer.
    pub fn peek<T: Any>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }

    /// True when the payload carries a [`SpillCodec`] (made via
    /// [`BufferSlab::make_spillable`]) and may be parked in a spill ring.
    pub fn is_spillable(&self) -> bool {
        self.spill.is_some()
    }

    /// True while the payload is parked in a spill ring (a
    /// [`fault_in`](Self::fault_in) is required before it can be read).
    pub fn is_spilled(&self) -> bool {
        self.payload.is::<SpilledPayload>()
    }

    /// The parked payload's spill frame: the codec's encoding, sealed
    /// with the checksum trailer when `checksum` is set. `None` on
    /// non-spillable or already-spilled buffers. Encoding is separated
    /// from the ring write so the storage ladder can retry a failing
    /// write against the same frame without re-encoding.
    pub(crate) fn spill_frame(&self, checksum: bool) -> Option<Vec<u8>> {
        let fns = self.spill?;
        if self.is_spilled() {
            return None;
        }
        let mut bytes = Vec::new();
        if !(fns.encode)(self.payload.as_ref(), &mut bytes) {
            return None;
        }
        if checksum {
            crate::storage::seal_frame(&mut bytes);
        }
        Some(bytes)
    }

    /// Park the payload: drop the in-memory box (that drop is the actual
    /// memory release the budget manager banks on) and install the ring
    /// ticket in its place.
    pub(crate) fn park(&mut self, ring: Arc<SpillRing>, ticket: SpillTicket) {
        self.payload = Box::new(SpilledPayload { ticket, ring });
    }

    /// Redeem a spilled payload from the ring it was parked in,
    /// rebuilding it through `slab` (slow path: the rebuild allocates
    /// unless the slab has a pooled box of the payload type). Returns the
    /// frame byte count read back; `Ok(0)` when the buffer is not
    /// spilled.
    ///
    /// `tamper` is the fault-injection seam: it mutates the raw frame
    /// between the physical read and verification, exactly where real
    /// bit-rot lands. With `checksum` set, a mismatching trailer — or an
    /// undecodable payload — fails with [`io::ErrorKind::InvalidData`];
    /// the ring slot was already freed by the read, so corruption is
    /// *not* retryable: the payload becomes a tombstone and the caller
    /// accounts the loss. A failed physical read (anything but
    /// `InvalidData`) leaves the ticket intact and may be retried.
    pub(crate) fn fault_in(
        &mut self,
        slab: &BufferSlab,
        checksum: bool,
        tamper: &dyn Fn(&mut Vec<u8>),
    ) -> io::Result<u64> {
        let Some(spilled) = self.payload.downcast_ref::<SpilledPayload>() else {
            return Ok(0);
        };
        let fns = self
            .spill
            .unwrap_or_else(|| unreachable!("spilled buffers keep their SpillFns"));
        let ticket = spilled.ticket;
        let ring = spilled.ring.clone();
        let mut bytes = ring.fault(ticket)?;
        tamper(&mut bytes);
        let decoded: Result<DataBuffer, String> = (|| {
            let payload: &[u8] = if checksum {
                crate::storage::open_frame(&bytes)?
            } else {
                &bytes
            };
            (fns.decode)(payload, slab, self.wire_bytes).ok_or_else(|| {
                format!(
                    "undecodable spilled payload ({} frame bytes)",
                    payload.len()
                )
            })
        })();
        match decoded {
            Ok(rebuilt) => {
                let n = bytes.len() as u64;
                *self = rebuilt;
                Ok(n)
            }
            Err(detail) => {
                // The slot is freed and the frame bytes are wrong: the
                // payload is gone for good. Tombstone it so discard and
                // repool paths stay inert.
                self.payload = Box::new(LostPayload);
                Err(io::Error::new(io::ErrorKind::InvalidData, detail))
            }
        }
    }

    /// Free a parked payload's ring slot without paying the read (a
    /// released original, or read retries exhausted) and tombstone
    /// the payload. `false` when the buffer was not spilled.
    pub(crate) fn discard_spilled(&mut self) -> bool {
        let Some(spilled) = self.payload.downcast_ref::<SpilledPayload>() else {
            return false;
        };
        spilled.ring.discard(spilled.ticket);
        self.payload = Box::new(LostPayload);
        true
    }
}

impl std::fmt::Debug for DataBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataBuffer")
            .field("wire_bytes", &self.wire_bytes)
            .finish()
    }
}

/// Recycles the heap boxes behind [`DataBuffer`] payloads across unit-of-work
/// cycles.
///
/// Every buffer a filter writes allocates a `Box<dyn Any + Send>`; in steady
/// state the pipeline creates and destroys one per delivered buffer. The slab
/// keeps the erased boxes of consumed buffers in per-type free lists so the
/// next `make` of the same payload type overwrites a recycled box in place
/// instead of allocating. Payload *contents* are still moved in/out normally
/// (so interior `Vec`s recycle through their own [`BufferPool`]s); only the
/// outer box round-trips through the slab.
///
/// Clones share the same free lists, so one slab created at run build time
/// can be handed to every filter copy. The slab is purely an allocation
/// cache: it never changes what a buffer holds or reports, so runs with and
/// without it are bit-identical.
#[derive(Clone, Default)]
pub struct BufferSlab {
    inner: Arc<Mutex<FreeLists>>,
    /// Boxes allocated because no recycled one was available.
    misses: Arc<AtomicU64>,
}

/// Per-payload-type free lists of erased boxes.
type FreeLists = HashMap<TypeId, Vec<Box<dyn Any + Send>>>;

impl BufferSlab {
    /// An empty slab (no recycled boxes yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap `payload` in a [`DataBuffer`], reusing a recycled box of the
    /// same payload type when one is available.
    pub fn make<T: Any + Send>(&self, payload: T, wire_bytes: u64) -> DataBuffer {
        let recycled = self
            .inner
            .lock()
            .get_mut(&TypeId::of::<T>())
            .and_then(Vec::pop);
        // The free list is keyed by `TypeId`, so a recycled box always
        // downcasts; were it ever not to, it is dropped as a miss.
        let payload: Box<dyn Any + Send> = match recycled.map(|bx| bx.downcast::<T>()) {
            Some(Ok(mut bx)) => {
                *bx = payload;
                bx
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Box::new(payload)
            }
        };
        DataBuffer {
            payload,
            wire_bytes,
            type_name: std::any::type_name::<T>(),
            replicate: None,
            spill: None,
            budget_charged: false,
        }
    }

    /// [`make`](Self::make) for a `Clone` payload: the returned buffer
    /// additionally carries a monomorphized replicator, so the recovery
    /// layer can retain a slab-pooled replica of it while the original is
    /// in flight ([`DataBuffer::replicate`]). Costs nothing unless a
    /// replica is actually taken.
    pub fn make_replicable<T: Any + Send + Clone>(
        &self,
        payload: T,
        wire_bytes: u64,
    ) -> DataBuffer {
        fn replicate_impl<T: Any + Send + Clone>(
            payload: &(dyn Any + Send),
            slab: &BufferSlab,
            wire_bytes: u64,
        ) -> Option<DataBuffer> {
            let payload = payload.downcast_ref::<T>()?.clone();
            Some(slab.make_replicable(payload, wire_bytes))
        }
        let mut buf = self.make(payload, wire_bytes);
        buf.replicate = Some(replicate_impl::<T>);
        buf
    }

    /// [`make_replicable`](Self::make_replicable) for a payload that also
    /// implements [`SpillCodec`]: the returned buffer can be parked in a
    /// [`SpillRing`] by the out-of-core layer and faulted back on demand.
    /// Replicas (and faulted-in rebuilds) are themselves spillable, so
    /// retention and spill compose. Costs nothing until a spill happens.
    pub fn make_spillable<T: Any + Send + Clone + SpillCodec>(
        &self,
        payload: T,
        wire_bytes: u64,
    ) -> DataBuffer {
        fn replicate_impl<T: Any + Send + Clone + SpillCodec>(
            payload: &(dyn Any + Send),
            slab: &BufferSlab,
            wire_bytes: u64,
        ) -> Option<DataBuffer> {
            let payload = payload.downcast_ref::<T>()?.clone();
            Some(slab.make_spillable(payload, wire_bytes))
        }
        fn encode_impl<T: Any + Send + SpillCodec>(
            payload: &(dyn Any + Send),
            out: &mut Vec<u8>,
        ) -> bool {
            payload
                .downcast_ref::<T>()
                .map(|p| p.spill_encode(out))
                .is_some()
        }
        fn decode_impl<T: Any + Send + Clone + SpillCodec>(
            bytes: &[u8],
            slab: &BufferSlab,
            wire_bytes: u64,
        ) -> Option<DataBuffer> {
            Some(slab.make_spillable(T::spill_decode(bytes)?, wire_bytes))
        }
        let mut buf = self.make(payload, wire_bytes);
        buf.replicate = Some(replicate_impl::<T>);
        buf.spill = Some(SpillFns {
            encode: encode_impl::<T>,
            decode: decode_impl::<T>,
        });
        buf
    }

    /// Return `buf`'s payload box to the free list without recovering the
    /// value — the type-erased counterpart of [`recycle`](Self::recycle),
    /// used where the concrete payload type is unknown (evicted, settled
    /// or swept retention entries, buffers lost in the spill ring). The
    /// box is keyed by the payload's runtime `TypeId`, so a later `make`
    /// of the same type reuses it; the stale contents are overwritten (and
    /// their interior resources dropped) at that point.
    pub fn repool(&self, buf: DataBuffer) {
        let tid = buf.payload.as_ref().type_id();
        self.inner.lock().entry(tid).or_default().push(buf.payload);
    }

    /// Consume `buf`, take its payload, and return the emptied box to the
    /// free list. The payload type must implement [`Default`] so the value
    /// can be moved out while the box stays allocated.
    pub fn recycle<T: Any + Send + Default>(&self, buf: DataBuffer) -> T {
        self.recycle_ctx(buf, "stream")
    }

    /// [`recycle`](Self::recycle) with a caller-supplied context for the
    /// mismatch panic, mirroring [`DataBuffer::downcast_ctx`].
    pub fn recycle_ctx<T: Any + Send + Default>(&self, buf: DataBuffer, ctx: &str) -> T {
        let mut bx = match buf.payload.downcast::<T>() {
            Ok(bx) => bx,
            Err(_) => panic!(
                "{ctx}: payload type mismatch: expected {}, buffer holds {} ({} wire bytes)",
                std::any::type_name::<T>(),
                buf.type_name,
                buf.wire_bytes,
            ),
        };
        let value = std::mem::take(&mut *bx);
        self.inner
            .lock()
            .entry(TypeId::of::<T>())
            .or_default()
            .push(bx as Box<dyn Any + Send>);
        value
    }

    /// Number of boxes allocated fresh (free list empty at `make` time).
    /// In steady state this stops growing: every `make` is fed by a prior
    /// `recycle`.
    pub fn allocated(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Boxes currently parked in free lists, across all payload types.
    pub fn idle(&self) -> usize {
        self.inner.lock().values().map(Vec::len).sum()
    }
}

impl std::fmt::Debug for BufferSlab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferSlab")
            .field("allocated", &self.allocated())
            .field("idle", &self.idle())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_payload() {
        let b = DataBuffer::new(vec![1u32, 2, 3], 12);
        assert_eq!(b.wire_bytes(), 12);
        assert_eq!(b.transport_bytes(), 12 + BUFFER_OVERHEAD_BYTES);
        assert_eq!(b.downcast::<Vec<u32>>(), vec![1, 2, 3]);
    }

    #[test]
    fn peek_does_not_consume() {
        let b = DataBuffer::new(String::from("hello"), 5);
        assert_eq!(b.peek::<String>().unwrap(), "hello");
        assert!(b.peek::<u32>().is_none());
        assert_eq!(b.downcast::<String>(), "hello");
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn downcast_mismatch_panics() {
        let b = DataBuffer::new(1u32, 4);
        let _ = b.downcast::<String>();
    }

    #[test]
    fn slab_recycles_boxes_per_type() {
        let slab = BufferSlab::new();
        let b = slab.make(vec![1u32, 2, 3], 12);
        assert_eq!(slab.allocated(), 1);
        assert_eq!(b.wire_bytes(), 12);
        let v: Vec<u32> = slab.recycle(b);
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(slab.idle(), 1);
        // Same type: the box is reused, no new allocation recorded.
        let b2 = slab.make(vec![9u32], 4);
        assert_eq!(slab.allocated(), 1);
        assert_eq!(slab.idle(), 0);
        assert_eq!(b2.downcast::<Vec<u32>>(), vec![9]);
        // Different type: fresh allocation, independent free list.
        let s = slab.make(String::from("x"), 1);
        assert_eq!(slab.allocated(), 2);
        let _: String = slab.recycle(s);
    }

    #[test]
    fn slab_made_buffers_keep_diagnostics() {
        let slab = BufferSlab::new();
        let b = slab.make(1u32, 4);
        let _: u32 = slab.recycle(b);
        let b = slab.make(2u32, 8);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            slab.recycle_ctx::<String>(b, "M filter input")
        }))
        .expect_err("mismatched recycle must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is a String");
        assert!(msg.contains("M filter input"), "missing context: {msg}");
        assert!(msg.contains("u32"), "missing actual type: {msg}");
        assert!(msg.contains("8 wire bytes"), "missing wire size: {msg}");
    }

    #[test]
    fn replicable_buffers_clone_through_the_slab() {
        let slab = BufferSlab::new();
        let b = slab.make_replicable(vec![1u32, 2, 3], 12);
        assert!(b.is_replicable());
        let r = b.replicate(&slab).expect("replicable");
        assert_eq!(r.wire_bytes(), 12);
        assert!(r.is_replicable(), "replicas can themselves replicate");
        let rr = r.replicate(&slab).expect("replica of replica");
        assert_eq!(rr.downcast::<Vec<u32>>(), vec![1, 2, 3]);
        assert_eq!(r.downcast::<Vec<u32>>(), vec![1, 2, 3]);
        assert_eq!(b.downcast::<Vec<u32>>(), vec![1, 2, 3]);
        // Plain buffers stay non-replicable.
        let p = slab.make(5u64, 8);
        assert!(!p.is_replicable());
        assert!(p.replicate(&slab).is_none());
    }

    #[test]
    fn repool_recycles_untyped_boxes() {
        let slab = BufferSlab::new();
        let b = slab.make(vec![1u8, 2], 2);
        assert_eq!(slab.allocated(), 1);
        slab.repool(b);
        assert_eq!(slab.idle(), 1);
        // The erased box feeds the next make of the same payload type.
        let b2 = slab.make(vec![9u8], 1);
        assert_eq!(slab.allocated(), 1, "repooled box must be reused");
        assert_eq!(b2.downcast::<Vec<u8>>(), vec![9]);
    }

    #[test]
    fn replicas_draw_boxes_from_the_free_list() {
        let slab = BufferSlab::new();
        let spare_a = slab.make_replicable(0u64, 8);
        let spare_b = slab.make_replicable(0u64, 8);
        slab.repool(spare_a);
        slab.repool(spare_b);
        let b = slab.make_replicable(7u64, 8);
        let baseline = slab.allocated();
        let r = b.replicate(&slab).expect("replicable");
        assert_eq!(
            slab.allocated(),
            baseline,
            "replica must reuse the pooled box"
        );
        assert_eq!(r.downcast::<u64>(), 7);
    }

    #[test]
    fn slab_clones_share_free_lists() {
        let slab = BufferSlab::new();
        let clone = slab.clone();
        let b = slab.make(7i64, 8);
        let _: i64 = clone.recycle(b);
        assert_eq!(slab.idle(), 1);
        let _ = clone.make(8i64, 8);
        assert_eq!(slab.allocated(), 1, "clone must reuse the shared box");
    }

    /// Test-side stand-in for the context's spill ladder: encode a frame
    /// (`checksum` framing optional), park it, return the frame bytes.
    fn spill(b: &mut DataBuffer, ring: &Arc<SpillRing>, checksum: bool) -> u64 {
        match b.spill_frame(checksum) {
            Some(frame) => {
                let t = ring.spill(&frame).expect("ring spill");
                b.park(ring.clone(), t);
                frame.len() as u64
            }
            None => 0,
        }
    }

    /// The inert tamper closure (fault-free fault-in).
    fn no_tamper(_: &mut Vec<u8>) {}

    #[test]
    fn spillable_buffers_roundtrip_through_the_ring() {
        let slab = BufferSlab::new();
        let ring = SpillRing::create().unwrap();
        let data: Vec<u8> = (0..64).map(|i| i * 3).collect();
        let mut b = slab.make_spillable(data.clone(), 64);
        assert!(b.is_spillable());
        assert!(!b.is_spilled());

        let wrote = spill(&mut b, &ring, false);
        assert_eq!(wrote, 64);
        assert!(b.is_spilled());
        assert!(b.peek::<Vec<u8>>().is_none(), "payload left memory");
        assert_eq!(b.wire_bytes(), 64, "wire size survives the spill");

        let read = b.fault_in(&slab, false, &no_tamper).unwrap();
        assert_eq!(read, 64);
        assert!(!b.is_spilled());
        assert!(b.is_spillable(), "faulted buffers can spill again");
        assert!(b.is_replicable(), "faulted buffers keep their replicator");
        assert_eq!(b.downcast::<Vec<u8>>(), data, "bit-identical round trip");
        assert_eq!((ring.spills(), ring.faults()), (1, 1));
    }

    #[test]
    fn checksummed_frames_roundtrip_and_detect_tampering() {
        let slab = BufferSlab::new();
        let ring = SpillRing::create().unwrap();
        let data: Vec<u8> = (0..100).map(|i| (i * 7) as u8).collect();
        let mut b = slab.make_spillable(data.clone(), 100);
        let wrote = spill(&mut b, &ring, true);
        assert_eq!(wrote, 100 + 8, "sealed frame carries the trailer");
        let read = b.fault_in(&slab, true, &no_tamper).unwrap();
        assert_eq!(read, 100 + 8);
        assert_eq!(b.downcast::<Vec<u8>>(), data, "checksum costs no bits");

        // A flipped bit under the trailer is detected, the payload is
        // tombstoned, and the slot does not double-free.
        let mut c = slab.make_spillable(data.clone(), 100);
        spill(&mut c, &ring, true);
        let err = c
            .fault_in(&slab, true, &|frame| frame[13] ^= 0x20)
            .expect_err("tampered frame must fail verification");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("checksum mismatch"),
            "diagnostic names the mismatch: {err}"
        );
        assert!(!c.is_spilled(), "lost payload is tombstoned, not parked");
        assert!(!c.discard_spilled(), "discard after loss is inert");
    }

    #[test]
    fn spill_is_a_noop_on_plain_and_already_spilled_buffers() {
        let slab = BufferSlab::new();
        let ring = SpillRing::create().unwrap();
        let plain = slab.make(vec![1u8, 2], 2);
        assert!(plain.spill_frame(false).is_none());
        assert!(!plain.is_spilled());

        let mut b = slab.make_spillable(vec![5u8; 16], 16);
        assert_eq!(spill(&mut b, &ring, false), 16);
        assert!(b.spill_frame(false).is_none(), "second spill is a no-op");
        assert_eq!(ring.spills(), 1);
        // fault_in on a resident buffer is equally inert.
        let mut resident = slab.make_spillable(vec![7u8; 8], 8);
        assert_eq!(resident.fault_in(&slab, false, &no_tamper).unwrap(), 0);
    }

    #[test]
    fn replicas_of_spillable_buffers_are_spillable() {
        let slab = BufferSlab::new();
        let ring = SpillRing::create().unwrap();
        let b = slab.make_spillable(vec![9u8; 32], 32);
        let mut r = b.replicate(&slab).expect("spillable implies replicable");
        assert!(r.is_spillable());
        assert_eq!(spill(&mut r, &ring, false), 32);
        assert_eq!(r.fault_in(&slab, false, &no_tamper).unwrap(), 32);
        assert_eq!(r.downcast::<Vec<u8>>(), vec![9u8; 32]);
    }

    #[test]
    fn spilled_tickets_can_be_discarded_unread() {
        let slab = BufferSlab::new();
        let ring = SpillRing::create().unwrap();
        let mut b = slab.make_spillable(vec![3u8; 48], 48);
        spill(&mut b, &ring, false);
        assert!(b.discard_spilled(), "spilled buffer discards its slot");
        assert_eq!(ring.faults(), 0, "discard skips the read");
        // The freed slot is immediately reusable.
        let mut c = slab.make_spillable(vec![4u8; 48], 48);
        spill(&mut c, &ring, false);
        assert_eq!(ring.frontier_bytes(), 48, "slot reused, no growth");
    }

    #[test]
    fn mismatch_message_names_both_types_and_wire_size() {
        let b = DataBuffer::new(7u32, 4);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.downcast_ctx::<String>("Ra filter input")
        }))
        .expect_err("mismatched downcast must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is a String");
        assert!(msg.contains("Ra filter input"), "missing context: {msg}");
        assert!(
            msg.contains("alloc::string::String"),
            "missing expected type: {msg}"
        );
        assert!(msg.contains("u32"), "missing actual type: {msg}");
        assert!(msg.contains("4 wire bytes"), "missing wire size: {msg}");
    }
}
