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

/// Serialization contract every payload offers, so the out-of-core
/// layer may spill it to the [`SpillRing`] and fault it back in.
///
/// The encoding is private to the spill path (it never crosses hosts or
/// versions), so implementations are free to pick the cheapest flat
/// representation; the requirements are `decode(encode(x)) == x` at
/// the bit level and a `spill_len` that is exactly the encoding's
/// length — the framework's property tests check both.
pub trait SpillCodec {
    /// The exact number of bytes [`spill_encode`](Self::spill_encode)
    /// appends. It is what the payload holds as far as the memory budget
    /// is concerned: the ledger charges it, and the spill frame is
    /// allocated to it up front.
    fn spill_len(&self) -> usize;
    /// Append this payload's encoded bytes to `out` (which arrives
    /// empty, with room for `spill_len()` bytes and a checksum trailer).
    fn spill_encode(&self, out: &mut Vec<u8>);
    /// Rebuild a payload from `spill_encode`'s output.
    fn spill_decode(bytes: &[u8]) -> Option<Self>
    where
        Self: Sized;
}

impl SpillCodec for Vec<u8> {
    fn spill_len(&self) -> usize {
        self.len()
    }
    fn spill_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn spill_decode(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

impl SpillCodec for String {
    fn spill_len(&self) -> usize {
        self.len()
    }
    fn spill_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
    fn spill_decode(bytes: &[u8]) -> Option<Self> {
        String::from_utf8(bytes.to_vec()).ok()
    }
}

/// Integers encode as their little-endian bytes.
macro_rules! int_spill_codec {
    ($($t:ty),*) => {$(
        impl SpillCodec for $t {
            fn spill_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            fn spill_encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn spill_decode(bytes: &[u8]) -> Option<Self> {
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}
int_spill_codec!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

/// The monomorphized fn table every buffer carries, so the recovery and
/// out-of-core layers can clone, encode and rebuild the erased payload
/// without knowing its concrete type. Carried through replication, spill
/// and fault, so a replica or a faulted-in rebuild can do all three again.
#[derive(Clone, Copy)]
struct PayloadFns {
    /// Clone the payload into a slab-recycled box.
    replicate: fn(&(dyn Any + Send), &BufferSlab, u64) -> DataBuffer,
    /// The payload's spill length (`SpillCodec::spill_len`).
    spill_len: fn(&(dyn Any + Send)) -> usize,
    /// Append the payload's spill bytes.
    encode: fn(&(dyn Any + Send), &mut Vec<u8>),
    /// Rebuild a buffer from ring bytes (box supplied by the slab), or
    /// `None` on corrupt input.
    decode: fn(&[u8], &BufferSlab, u64) -> Option<DataBuffer>,
}

impl PayloadFns {
    fn of<T: Any + Send + Clone + SpillCodec>() -> Self {
        fn replicate<T: Any + Send + Clone + SpillCodec>(
            payload: &(dyn Any + Send),
            slab: &BufferSlab,
            wire_bytes: u64,
        ) -> DataBuffer {
            slab.make(resident::<T>(payload).clone(), wire_bytes)
        }
        fn spill_len<T: Any + SpillCodec>(payload: &(dyn Any + Send)) -> usize {
            resident::<T>(payload).spill_len()
        }
        fn encode<T: Any + SpillCodec>(payload: &(dyn Any + Send), out: &mut Vec<u8>) {
            resident::<T>(payload).spill_encode(out);
        }
        fn decode<T: Any + Send + Clone + SpillCodec>(
            bytes: &[u8],
            slab: &BufferSlab,
            wire_bytes: u64,
        ) -> Option<DataBuffer> {
            Some(slab.make(T::spill_decode(bytes)?, wire_bytes))
        }
        PayloadFns {
            replicate: replicate::<T>,
            spill_len: spill_len::<T>,
            encode: encode::<T>,
            decode: decode::<T>,
        }
    }
}

/// The erased payload as the type its fn table was made for. The runtime
/// replicates, sizes and encodes only resident payloads (a filter never
/// holds a parked one, and retention holds replicas that are never
/// parked), so the downcast always succeeds.
fn resident<T: Any>(payload: &(dyn Any + Send)) -> &T {
    payload
        .downcast_ref()
        .unwrap_or_else(|| unreachable!("a buffer's fn table applies only to its resident payload"))
}

/// Bytes of the stub a spilled payload leaves in its buffer's box. A
/// payload whose spill encoding is no larger frees no memory by spilling,
/// so [`StreamOoc::charge`](crate::StreamOoc::charge) keeps it resident.
pub const SPILL_STUB_BYTES: u64 = std::mem::size_of::<SpilledPayload>() as u64;

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
    /// How to replicate, encode and decode the payload's type.
    fns: PayloadFns,
    /// The bytes the stream's budget ledger holds charged for this
    /// resident payload — set by the write-side out-of-core step and
    /// given back, exactly that amount, by one matching discharge on the
    /// read side. Deliberately 0 on retention replicas and faulted-in
    /// rebuilds (fresh buffers from [`DataBuffer::replicate`] / the spill
    /// decode path), which were never charged: a redelivered replica must
    /// not be discharged, or the ledger underflows.
    budget_charged: u64,
}

impl DataBuffer {
    /// Wrap `payload`, declaring its wire size (payload bytes only; framing
    /// overhead is added by the transport).
    ///
    /// Every payload can be replicated and spilled. Under a crash plan a
    /// consumer that dies before it settles gets its inputs redelivered
    /// from the producer's retention, so a payload is delivered *at least
    /// once* and its consumer must tolerate re-processing — DESIGN.md
    /// §13's argument: every rendering fold (z-buffer depth test,
    /// winning-pixel composition) is idempotent under duplicated
    /// identical inputs.
    pub fn new<T: Any + Send + Clone + SpillCodec>(payload: T, wire_bytes: u64) -> Self {
        Self::boxed::<T>(Box::new(payload), wire_bytes)
    }

    /// A buffer around `payload`, a box holding a `T`.
    fn boxed<T: Any + Send + Clone + SpillCodec>(
        payload: Box<dyn Any + Send>,
        wire_bytes: u64,
    ) -> Self {
        DataBuffer {
            payload,
            wire_bytes,
            type_name: std::any::type_name::<T>(),
            fns: PayloadFns::of::<T>(),
            budget_charged: 0,
        }
    }

    /// Record the stream-budget charge banked for this resident payload.
    pub(crate) fn set_budget_charged(&mut self, bytes: u64) {
        self.budget_charged = bytes;
    }

    /// Take the outstanding charge; non-zero at most once per charge.
    pub(crate) fn take_budget_charged(&mut self) -> u64 {
        std::mem::take(&mut self.budget_charged)
    }

    /// Clone this buffer's payload into a new buffer (box supplied by
    /// `slab`). Replicas of replicas work: the fn table travels with every
    /// copy, so a retained entry can itself be re-replicated when a second
    /// fault needs the same data again.
    pub fn replicate(&self, slab: &BufferSlab) -> DataBuffer {
        (self.fns.replicate)(self.payload.as_ref(), slab, self.wire_bytes)
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

    /// True while the payload is parked in a spill ring (a
    /// `fault_in` is required before it can be read).
    pub fn is_spilled(&self) -> bool {
        self.payload.is::<SpilledPayload>()
    }

    /// Bytes the resident payload's spill encoding takes
    /// ([`SpillCodec::spill_len`]): what the memory budget charges it.
    pub(crate) fn spill_len(&self) -> usize {
        (self.fns.spill_len)(self.payload.as_ref())
    }

    /// The resident payload's spill frame: the codec's encoding, sealed
    /// with the checksum trailer when `checksum` is set, built in one
    /// allocation. Encoding is separated from the ring write so the
    /// storage ladder can retry a failing write against the same frame
    /// without re-encoding.
    pub(crate) fn spill_frame(&self, checksum: bool) -> Vec<u8> {
        let len = self.spill_len();
        let mut bytes = Vec::with_capacity(len + if checksum { 8 } else { 0 });
        (self.fns.encode)(self.payload.as_ref(), &mut bytes);
        if checksum {
            crate::storage::seal_frame(&mut bytes);
        }
        bytes
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
        let decode = self.fns.decode;
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
            decode(payload, slab, self.wire_bytes).ok_or_else(|| {
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
/// (so interior `Vec`s recycle through their own pools); only the
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

    /// Wrap `payload` in a [`DataBuffer`] like [`DataBuffer::new`],
    /// reusing a recycled box of the same payload type when one is
    /// available. Replicas and faulted-in rebuilds draw their boxes here
    /// too.
    pub fn make<T: Any + Send + Clone + SpillCodec>(
        &self,
        payload: T,
        wire_bytes: u64,
    ) -> DataBuffer {
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
        DataBuffer::boxed::<T>(payload, wire_bytes)
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
        let b = DataBuffer::new(vec![1u8, 2, 3], 12);
        assert_eq!(b.wire_bytes(), 12);
        assert_eq!(b.transport_bytes(), 12 + BUFFER_OVERHEAD_BYTES);
        assert_eq!(b.downcast::<Vec<u8>>(), vec![1, 2, 3]);
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
        let b = slab.make(vec![1u8, 2, 3], 12);
        assert_eq!(slab.allocated(), 1);
        assert_eq!(b.wire_bytes(), 12);
        let v: Vec<u8> = slab.recycle(b);
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(slab.idle(), 1);
        // Same type: the box is reused, no new allocation recorded.
        let b2 = slab.make(vec![9u8], 4);
        assert_eq!(slab.allocated(), 1);
        assert_eq!(slab.idle(), 0);
        assert_eq!(b2.downcast::<Vec<u8>>(), vec![9]);
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
        let b = slab.make(vec![1u8, 2, 3], 12);
        let r = b.replicate(&slab);
        assert_eq!(r.wire_bytes(), 12);
        // Replicas can themselves replicate.
        let rr = r.replicate(&slab);
        assert_eq!(rr.downcast::<Vec<u8>>(), vec![1, 2, 3]);
        assert_eq!(r.downcast::<Vec<u8>>(), vec![1, 2, 3]);
        assert_eq!(b.downcast::<Vec<u8>>(), vec![1, 2, 3]);
        // So can buffers built without a slab.
        let p = DataBuffer::new(String::from("x"), 1);
        assert_eq!(p.replicate(&slab).downcast::<String>(), "x");
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
        let spare_a = slab.make(0u64, 8);
        let spare_b = slab.make(0u64, 8);
        slab.repool(spare_a);
        slab.repool(spare_b);
        let b = slab.make(7u64, 8);
        let baseline = slab.allocated();
        let r = b.replicate(&slab);
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
        let frame = b.spill_frame(checksum);
        let t = ring.spill(&frame).expect("ring spill");
        b.park(ring.clone(), t);
        frame.len() as u64
    }

    /// The inert tamper closure (fault-free fault-in).
    fn no_tamper(_: &mut Vec<u8>) {}

    #[test]
    fn spillable_buffers_roundtrip_through_the_ring() {
        let slab = BufferSlab::new();
        let ring = SpillRing::create().unwrap();
        let data: Vec<u8> = (0..64).map(|i| i * 3).collect();
        let mut b = slab.make(data.clone(), 64);
        assert!(!b.is_spilled());

        let wrote = spill(&mut b, &ring, false);
        assert_eq!(wrote, 64);
        assert!(b.is_spilled());
        assert!(b.peek::<Vec<u8>>().is_none(), "payload left memory");
        assert_eq!(b.wire_bytes(), 64, "wire size survives the spill");

        let read = b.fault_in(&slab, false, &no_tamper).unwrap();
        assert_eq!(read, 64);
        assert!(!b.is_spilled());
        assert_eq!(
            b.replicate(&slab).peek(),
            Some(&data),
            "faulted buffers replicate"
        );
        assert_eq!(
            spill(&mut b, &ring, false),
            64,
            "faulted buffers spill again"
        );
        b.fault_in(&slab, false, &no_tamper).unwrap();
        assert_eq!(b.downcast::<Vec<u8>>(), data, "bit-identical round trip");
        assert_eq!((ring.spills(), ring.faults()), (2, 2));
    }

    #[test]
    fn checksummed_frames_roundtrip_and_detect_tampering() {
        let slab = BufferSlab::new();
        let ring = SpillRing::create().unwrap();
        let data: Vec<u8> = (0..100).map(|i| (i * 7) as u8).collect();
        let mut b = slab.make(data.clone(), 100);
        let wrote = spill(&mut b, &ring, true);
        assert_eq!(wrote, 100 + 8, "sealed frame carries the trailer");
        let read = b.fault_in(&slab, true, &no_tamper).unwrap();
        assert_eq!(read, 100 + 8);
        assert_eq!(b.downcast::<Vec<u8>>(), data, "checksum costs no bits");

        // A flipped bit under the trailer is detected, the payload is
        // tombstoned, and the slot does not double-free.
        let mut c = slab.make(data.clone(), 100);
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
    fn spill_frames_are_built_in_one_allocation() {
        let slab = BufferSlab::new();
        let b = slab.make(vec![5u8; 20_000], 20_000);
        for (checksum, len) in [(false, 20_000), (true, 20_008)] {
            let frame = b.spill_frame(checksum);
            assert_eq!(frame.len(), len);
            assert_eq!(frame.capacity(), len, "sized up front, never grown");
        }
    }

    #[test]
    fn fault_in_is_a_noop_on_resident_buffers() {
        let slab = BufferSlab::new();
        let mut resident = slab.make(vec![7u8; 8], 8);
        assert_eq!(resident.fault_in(&slab, false, &no_tamper).unwrap(), 0);
        assert_eq!(resident.downcast::<Vec<u8>>(), vec![7u8; 8]);
    }

    #[test]
    fn replicas_of_spillable_buffers_are_spillable() {
        let slab = BufferSlab::new();
        let ring = SpillRing::create().unwrap();
        let b = slab.make(vec![9u8; 32], 32);
        let mut r = b.replicate(&slab);
        assert_eq!(spill(&mut r, &ring, false), 32);
        assert_eq!(r.fault_in(&slab, false, &no_tamper).unwrap(), 32);
        assert_eq!(r.downcast::<Vec<u8>>(), vec![9u8; 32]);
    }

    #[test]
    fn spilled_tickets_can_be_discarded_unread() {
        let slab = BufferSlab::new();
        let ring = SpillRing::create().unwrap();
        let mut b = slab.make(vec![3u8; 48], 48);
        spill(&mut b, &ring, false);
        assert!(b.discard_spilled(), "spilled buffer discards its slot");
        assert_eq!(ring.faults(), 0, "discard skips the read");
        // The freed slot is immediately reusable.
        let mut c = slab.make(vec![4u8; 48], 48);
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
