//! Stream payload types exchanged between the application filters, with
//! their wire sizes — and their [`SpillCodec`] encodings, so a
//! memory-budgeted run can spill any queued payload to the run's
//! temp-file ring and re-fault it bit-identically at read time.

use datacutter::SpillCodec;
use isosurf::{
    Triangle, WinningPixel, TRIANGLE_WIRE_BYTES, WPA_ENTRY_WIRE_BYTES, ZBUF_ENTRY_WIRE_BYTES,
};
use volume::{Dims, RectGrid};

use crate::pool::PoolVec;

/// R → E payload: one sub-volume of voxel data.
///
/// `Clone` (here and on the other payloads) is what lets the delivery
/// layer retain replicas for crash recovery — see
/// [`BufferSlab::make_replicable`](datacutter::BufferSlab).
#[derive(Clone)]
pub struct ChunkPayload {
    /// Global cell origin of the chunk (so extracted geometry lands in
    /// world coordinates).
    pub origin: (u32, u32, u32),
    /// Point data (cells + 1 layer of points).
    pub grid: RectGrid,
}

impl ChunkPayload {
    /// Bytes this chunk occupies on the wire (header + f32 payload).
    pub fn wire_bytes(&self) -> u64 {
        12 + self.grid.dims.byte_size()
    }
}

/// An empty chunk (0-point grid) — the hollow state left behind when the
/// payload is `mem::take`n out of a recycled buffer box.
impl Default for ChunkPayload {
    fn default() -> Self {
        ChunkPayload {
            origin: (0, 0, 0),
            grid: RectGrid {
                dims: volume::Dims::new(0, 0, 0),
                data: Vec::new(),
            },
        }
    }
}

/// E → Ra payload: a batch of extracted triangles. The buffer is pooled:
/// dropping the batch (after rasterization) recycles it to the extract
/// stage that produced it.
#[derive(Default, Clone)]
pub struct TriBatch {
    /// The triangles.
    pub tris: PoolVec<Triangle>,
}

impl TriBatch {
    /// Wire size of the batch.
    pub fn wire_bytes(&self) -> u64 {
        self.tris.len() as u64 * TRIANGLE_WIRE_BYTES
    }
}

/// Ra → M payload: partial rendering results under either algorithm.
#[derive(Clone)]
pub enum RaOut {
    /// A horizontal band of a dense z-buffer (z-buffer algorithm; sent
    /// only after end-of-work).
    Band {
        /// First row of the band.
        y0: u32,
        /// Band width (= image width).
        width: u32,
        /// Per-pixel depth, row-major within the band.
        depth: PoolVec<f32>,
        /// Per-pixel color.
        color: PoolVec<[u8; 3]>,
    },
    /// A batch of winning pixels (active-pixel algorithm; streamed
    /// throughout processing).
    Wpa(PoolVec<WinningPixel>),
}

/// An empty winning-pixel batch — the hollow state left behind when the
/// payload is `mem::take`n out of a recycled buffer box.
impl Default for RaOut {
    fn default() -> Self {
        RaOut::Wpa(PoolVec::default())
    }
}

impl RaOut {
    /// Wire size of this message.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            RaOut::Band { depth, .. } => depth.len() as u64 * ZBUF_ENTRY_WIRE_BYTES,
            RaOut::Wpa(v) => v.len() as u64 * WPA_ENTRY_WIRE_BYTES,
        }
    }

    /// Number of depth entries the merge filter will fold.
    pub fn merge_entries(&self) -> u64 {
        match self {
            RaOut::Band { depth, .. } => depth.len() as u64,
            RaOut::Wpa(v) => v.len() as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// Spill encodings. Plain little-endian layouts with a leading field count
// where the length is not implied; `f32` bits travel via `to_le_bytes`, so
// a spill → fault round trip is bit-exact. Element runs are converted in
// one pass over fixed-size records (`put_records` / `take_records`), which
// the compiler turns into a copy. Decoded `PoolVec`s are homeless (they
// free on drop instead of recycling) — a faulted-in buffer already paid a
// disk round trip, so the extra allocation is noise.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `items` as consecutive `N`-byte records.
fn put_records<T, const N: usize>(out: &mut Vec<u8>, items: &[T], enc: impl Fn(&T) -> [u8; N]) {
    let at = out.len();
    out.resize(at + items.len() * N, 0);
    for (dst, item) in out[at..].chunks_exact_mut(N).zip(items) {
        dst.copy_from_slice(&enc(item));
    }
}

/// Cursor-style reader over a spill slice; every read returns `None`
/// on underrun so corrupt ring data surfaces as a decode failure, not a
/// panic — and never allocates for more than the bytes that are there.
struct Rd<'a>(&'a [u8]);

impl Rd<'_> {
    fn u32(&mut self) -> Option<u32> {
        let (head, rest) = self.0.split_first_chunk::<4>()?;
        self.0 = rest;
        Some(u32::from_le_bytes(*head))
    }

    /// The next `n` records of `N` bytes each. The claimed count is
    /// checked against the bytes remaining *before* anything is
    /// allocated, so a corrupt count cannot ask for terabytes.
    fn take_records<T, const N: usize>(
        &mut self,
        n: usize,
        dec: impl Fn(&[u8; N]) -> T,
    ) -> Option<Vec<T>> {
        let (head, rest) = self.0.split_at_checked(n.checked_mul(N)?)?;
        self.0 = rest;
        Some(head.as_chunks::<N>().0.iter().map(dec).collect())
    }

    fn done(&self) -> bool {
        self.0.is_empty()
    }
}

impl SpillCodec for ChunkPayload {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        out.reserve(24 + self.grid.data.len() * 4);
        put_u32(out, self.origin.0);
        put_u32(out, self.origin.1);
        put_u32(out, self.origin.2);
        put_u32(out, self.grid.dims.nx);
        put_u32(out, self.grid.dims.ny);
        put_u32(out, self.grid.dims.nz);
        put_records(out, &self.grid.data, |v| v.to_le_bytes());
    }

    fn spill_decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Rd(bytes);
        let origin = (r.u32()?, r.u32()?, r.u32()?);
        let dims = Dims {
            nx: r.u32()?,
            ny: r.u32()?,
            nz: r.u32()?,
        };
        let n = (dims.nx as usize)
            .checked_mul(dims.ny as usize)?
            .checked_mul(dims.nz as usize)?;
        let data = r.take_records(n, |b| f32::from_le_bytes(*b))?;
        r.done().then_some(ChunkPayload {
            origin,
            grid: RectGrid { dims, data },
        })
    }
}

const TRIANGLE_RECORD: usize = TRIANGLE_WIRE_BYTES as usize;

/// A triangle's spill record: `v[0]`, `v[1]`, `v[2]`, `normal`, each as
/// `x`, `y`, `z`.
fn triangle_record(t: &Triangle) -> [u8; TRIANGLE_RECORD] {
    let [a, b, c] = t.v;
    let n = t.normal;
    let floats = [a.x, a.y, a.z, b.x, b.y, b.z, c.x, c.y, c.z, n.x, n.y, n.z];
    let mut rec = [0u8; TRIANGLE_RECORD];
    for (dst, f) in rec.as_chunks_mut::<4>().0.iter_mut().zip(floats) {
        *dst = f.to_le_bytes();
    }
    rec
}

fn triangle_from_record(rec: &[u8; TRIANGLE_RECORD]) -> Triangle {
    let f = rec.as_chunks::<4>().0;
    let v = |i: usize| {
        isosurf::vec3(
            f32::from_le_bytes(f[i]),
            f32::from_le_bytes(f[i + 1]),
            f32::from_le_bytes(f[i + 2]),
        )
    };
    Triangle {
        v: [v(0), v(3), v(6)],
        normal: v(9),
    }
}

impl SpillCodec for TriBatch {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        put_records(out, &self.tris, triangle_record);
    }

    fn spill_decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Rd(bytes);
        let tris = r.take_records(bytes.len() / TRIANGLE_RECORD, triangle_from_record)?;
        r.done().then_some(TriBatch { tris: tris.into() })
    }
}

const RAOUT_BAND_TAG: u8 = 0;
const RAOUT_WPA_TAG: u8 = 1;

/// Spill bytes per winning pixel: `x`, `y`, `depth`, `rgb`, unpadded.
const WPA_RECORD: usize = 11;

fn wpa_record(p: &WinningPixel) -> [u8; WPA_RECORD] {
    let mut rec = [0u8; WPA_RECORD];
    rec[0..2].copy_from_slice(&p.x.to_le_bytes());
    rec[2..4].copy_from_slice(&p.y.to_le_bytes());
    rec[4..8].copy_from_slice(&p.depth.to_le_bytes());
    rec[8..11].copy_from_slice(&p.rgb);
    rec
}

fn wpa_from_record(r: &[u8; WPA_RECORD]) -> WinningPixel {
    WinningPixel {
        x: u16::from_le_bytes([r[0], r[1]]),
        y: u16::from_le_bytes([r[2], r[3]]),
        depth: f32::from_le_bytes([r[4], r[5], r[6], r[7]]),
        rgb: [r[8], r[9], r[10]],
    }
}

impl SpillCodec for RaOut {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        match self {
            RaOut::Band {
                y0,
                width,
                depth,
                color,
            } => {
                out.reserve(13 + depth.len() * 4 + color.len() * 3);
                out.push(RAOUT_BAND_TAG);
                put_u32(out, *y0);
                put_u32(out, *width);
                put_u32(out, depth.len() as u32);
                put_records(out, depth, |d| d.to_le_bytes());
                out.extend_from_slice(color.as_flattened());
            }
            RaOut::Wpa(batch) => {
                out.reserve(5 + batch.len() * WPA_RECORD);
                out.push(RAOUT_WPA_TAG);
                put_u32(out, batch.len() as u32);
                put_records(out, batch, wpa_record);
            }
        }
    }

    fn spill_decode(bytes: &[u8]) -> Option<Self> {
        let (&tag, rest) = bytes.split_first()?;
        let mut r = Rd(rest);
        let decoded = match tag {
            RAOUT_BAND_TAG => {
                let y0 = r.u32()?;
                let width = r.u32()?;
                let n = r.u32()? as usize;
                RaOut::Band {
                    y0,
                    width,
                    depth: r.take_records(n, |b| f32::from_le_bytes(*b))?.into(),
                    color: r.take_records(n, |rgb: &[u8; 3]| *rgb)?.into(),
                }
            }
            RAOUT_WPA_TAG => {
                let n = r.u32()? as usize;
                RaOut::Wpa(r.take_records(n, wpa_from_record)?.into())
            }
            _ => return None,
        };
        r.done().then_some(decoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn chunk_wire_bytes() {
        let p = ChunkPayload {
            origin: (0, 0, 0),
            grid: RectGrid::filled(Dims::new(3, 3, 3), 0.0),
        };
        assert_eq!(p.wire_bytes(), 12 + 27 * 4);
    }

    #[test]
    fn tribatch_wire_bytes() {
        let b = TriBatch {
            tris: vec![].into(),
        };
        assert_eq!(b.wire_bytes(), 0);
    }

    #[test]
    fn raout_sizes() {
        let band = RaOut::Band {
            y0: 0,
            width: 4,
            depth: vec![0.0; 8].into(),
            color: vec![[0; 3]; 8].into(),
        };
        assert_eq!(band.wire_bytes(), 8 * ZBUF_ENTRY_WIRE_BYTES);
        assert_eq!(band.merge_entries(), 8);
        let wpa = RaOut::Wpa(
            vec![
                WinningPixel {
                    x: 0,
                    y: 0,
                    depth: 1.0,
                    rgb: [0, 0, 0]
                };
                5
            ]
            .into(),
        );
        assert_eq!(wpa.wire_bytes(), 5 * WPA_ENTRY_WIRE_BYTES);
        assert_eq!(wpa.merge_entries(), 5);
    }

    fn round_trip<T: SpillCodec>(v: &T) -> T {
        let mut bytes = Vec::new();
        v.spill_encode(&mut bytes);
        T::spill_decode(&bytes).expect("decode what we encoded")
    }

    #[test]
    fn chunk_spill_round_trip_is_bit_identical() {
        let p = ChunkPayload {
            origin: (3, 5, 7),
            grid: RectGrid {
                dims: Dims::new(2, 3, 4),
                data: (0..24).map(|i| (i as f32).sqrt()).collect(),
            },
        };
        let q = round_trip(&p);
        assert_eq!(q.origin, p.origin);
        assert_eq!(q.grid.dims, p.grid.dims);
        assert_eq!(
            q.grid.data.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            p.grid.data.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tribatch_spill_round_trip() {
        let t = Triangle {
            v: [
                isosurf::vec3(0.0, 1.5, -2.0),
                isosurf::vec3(3.25, 4.0, 5.0),
                isosurf::vec3(-6.0, 7.0, 8.5),
            ],
            normal: isosurf::vec3(0.0, 0.0, 1.0),
        };
        let b = TriBatch {
            tris: vec![t, t].into(),
        };
        let c = round_trip(&b);
        assert_eq!(c.tris.len(), 2);
        assert_eq!(c.tris[1].v[2].z, 8.5);
        assert_eq!(c.tris[0].normal.z, 1.0);
    }

    #[test]
    fn raout_spill_round_trips_both_variants() {
        let band = RaOut::Band {
            y0: 9,
            width: 4,
            depth: vec![0.5, 1.0, f32::INFINITY, 2.0].into(),
            color: vec![[1, 2, 3], [4, 5, 6], [7, 8, 9], [0, 0, 0]].into(),
        };
        match round_trip(&band) {
            RaOut::Band {
                y0, depth, color, ..
            } => {
                assert_eq!(y0, 9);
                assert_eq!(depth[2], f32::INFINITY);
                assert_eq!(color[1], [4, 5, 6]);
            }
            RaOut::Wpa(_) => panic!("band decoded as wpa"),
        }
        let wpa = RaOut::Wpa(
            vec![WinningPixel {
                x: 11,
                y: 22,
                depth: 0.25,
                rgb: [9, 8, 7],
            }]
            .into(),
        );
        match round_trip(&wpa) {
            RaOut::Wpa(b) => {
                assert_eq!(
                    (b[0].x, b[0].y, b[0].depth, b[0].rgb),
                    (11, 22, 0.25, [9, 8, 7])
                );
            }
            RaOut::Band { .. } => panic!("wpa decoded as band"),
        }
    }

    #[test]
    fn corrupt_spill_bytes_fail_to_decode() {
        assert!(ChunkPayload::spill_decode(&[1, 2, 3]).is_none());
        assert!(TriBatch::spill_decode(&[0; 47]).is_none());
        assert!(RaOut::spill_decode(&[7]).is_none(), "unknown tag");
        assert!(RaOut::spill_decode(&[]).is_none());
    }

    /// A corrupt count or dims field claims more elements than the frame
    /// holds: the decoders must answer `None` from the lengths alone.
    /// (They used to `Vec::with_capacity` the claimed count first — one
    /// flipped bit in `nx` aborted the process on a 2.4 TB allocation.
    /// `TriBatch` carries no count: its length is the frame's.)
    #[test]
    fn corrupt_counts_fail_to_decode_without_allocating() {
        let mut chunk = Vec::new();
        ChunkPayload {
            origin: (0, 0, 0),
            grid: RectGrid::filled(Dims::new(17, 17, 17), 1.0),
        }
        .spill_encode(&mut chunk);
        for (field, bit) in [(12, 31), (16, 31), (20, 31), (12, 0), (20, 4)] {
            let mut bad = chunk.clone();
            bad[field + bit / 8] ^= 1 << (bit % 8);
            assert!(
                ChunkPayload::spill_decode(&bad).is_none(),
                "dims byte {field} bit {bit}"
            );
        }
        let mut bad = chunk.clone();
        for dim in [12, 16, 20] {
            bad[dim..dim + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        assert!(
            ChunkPayload::spill_decode(&bad).is_none(),
            "overflowing dims"
        );

        let mut band = Vec::new();
        RaOut::Band {
            y0: 0,
            width: 4,
            depth: vec![0.5; 8].into(),
            color: vec![[1, 2, 3]; 8].into(),
        }
        .spill_encode(&mut band);
        let mut wpa = Vec::new();
        RaOut::Wpa(vec![wpa_from_record(&[7; WPA_RECORD]); 8].into()).spill_encode(&mut wpa);
        for (frame, count_at) in [(&band, 9), (&wpa, 1)] {
            for claimed in [u32::MAX, 0x8000_0008, 9, 7] {
                let mut bad = frame.clone();
                bad[count_at..count_at + 4].copy_from_slice(&claimed.to_le_bytes());
                assert!(
                    RaOut::spill_decode(&bad).is_none(),
                    "tag {} claiming {claimed} entries",
                    frame[0]
                );
            }
        }
    }

    // The per-element encoders the bulk ones replaced, kept verbatim as
    // the byte-for-byte oracle: frame bytes and lengths feed the simulated
    // disk charge, the spill counters and the seeded corrupt-bit index, so
    // the new encoders may not move one of them.

    fn put_f32(out: &mut Vec<u8>, v: f32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    fn reference_chunk_encode(p: &ChunkPayload, out: &mut Vec<u8>) {
        put_u32(out, p.origin.0);
        put_u32(out, p.origin.1);
        put_u32(out, p.origin.2);
        put_u32(out, p.grid.dims.nx);
        put_u32(out, p.grid.dims.ny);
        put_u32(out, p.grid.dims.nz);
        out.reserve(p.grid.data.len() * 4);
        for &v in &p.grid.data {
            put_f32(out, v);
        }
    }

    fn reference_tri_encode(b: &TriBatch, out: &mut Vec<u8>) {
        out.reserve(b.tris.len() * TRIANGLE_WIRE_BYTES as usize);
        for t in b.tris.iter() {
            for v in t.v.iter().chain(std::iter::once(&t.normal)) {
                put_f32(out, v.x);
                put_f32(out, v.y);
                put_f32(out, v.z);
            }
        }
    }

    fn reference_raout_encode(r: &RaOut, out: &mut Vec<u8>) {
        match r {
            RaOut::Band {
                y0,
                width,
                depth,
                color,
            } => {
                out.push(RAOUT_BAND_TAG);
                put_u32(out, *y0);
                put_u32(out, *width);
                put_u32(out, depth.len() as u32);
                out.reserve(depth.len() * 7);
                for &d in depth.iter() {
                    put_f32(out, d);
                }
                for rgb in color.iter() {
                    out.extend_from_slice(rgb);
                }
            }
            RaOut::Wpa(batch) => {
                out.push(RAOUT_WPA_TAG);
                put_u32(out, batch.len() as u32);
                out.reserve(batch.len() * 11);
                for p in batch.iter() {
                    out.extend_from_slice(&p.x.to_le_bytes());
                    out.extend_from_slice(&p.y.to_le_bytes());
                    put_f32(out, p.depth);
                    out.extend_from_slice(&p.rgb);
                }
            }
        }
    }

    /// An `f32` from raw bits, steered onto the awkward values — ±0, ±∞,
    /// quiet and signalling NaNs with payloads, a subnormal — one draw in
    /// four, since uniform bits almost never land on them.
    fn float(bits: u64) -> f32 {
        const AWKWARD: [u32; 8] = [
            0x0000_0000,
            0x8000_0000,
            0x7F80_0000,
            0xFF80_0000,
            0x7FC0_0001,
            0xFFFF_FFFF,
            0x7F80_0001,
            0x0000_0001,
        ];
        match (bits >> 32) as usize % 32 {
            i if i < AWKWARD.len() => f32::from_bits(AWKWARD[i]),
            _ => f32::from_bits(bits as u32),
        }
    }

    /// The bulk encoder appends exactly the oracle's bytes — into an empty
    /// `Vec` and after a prefix — and decoding them gives back a payload
    /// that encodes to the same bytes (so every bit survived).
    fn check_against_oracle<T: SpillCodec>(
        payload: &T,
        oracle: fn(&T, &mut Vec<u8>),
    ) -> Result<(), String> {
        let mut want = Vec::new();
        oracle(payload, &mut want);
        let mut got = Vec::new();
        payload.spill_encode(&mut got);
        prop_assert_eq!(&got, &want, "into an empty Vec");
        let mut prefixed = vec![0xA5, 0x5A, 0xFF];
        payload.spill_encode(&mut prefixed);
        prop_assert_eq!(&prefixed[..3], &[0xA5, 0x5A, 0xFF], "prefix kept");
        prop_assert_eq!(&prefixed[3..], &want[..], "after a prefix");
        let Some(back) = T::spill_decode(&got) else {
            return Err("decode of a clean encoding failed".into());
        };
        let mut again = Vec::new();
        oracle(&back, &mut again);
        prop_assert_eq!(&again, &want, "decode(encode(x)) is not x, bit for bit");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn chunk_codec_matches_the_per_element_oracle(
            dims in (0u32..5, 0u32..5, 0u32..5),
            origin in (any::<u32>(), any::<u32>(), any::<u32>()),
            bits in prop::collection::vec(any::<u64>(), 64..65),
        ) {
            let dims = Dims::new(dims.0, dims.1, dims.2);
            let p = ChunkPayload {
                origin,
                grid: RectGrid {
                    dims,
                    data: bits.iter().cycle().take(dims.points() as usize).map(|&b| float(b)).collect(),
                },
            };
            check_against_oracle(&p, reference_chunk_encode)?;
        }

        #[test]
        fn tri_codec_matches_the_per_element_oracle(
            bits in prop::collection::vec(any::<[u64; 12]>(), 0..6),
        ) {
            let tris: Vec<Triangle> = bits
                .iter()
                .map(|b| {
                    let v = |i: usize| isosurf::vec3(float(b[i]), float(b[i + 1]), float(b[i + 2]));
                    Triangle { v: [v(0), v(3), v(6)], normal: v(9) }
                })
                .collect();
            check_against_oracle(&TriBatch { tris: tris.into() }, reference_tri_encode)?;
        }

        #[test]
        fn raout_codec_matches_the_per_element_oracle(
            band in any::<bool>(),
            header in (any::<u32>(), any::<u32>()),
            bits in prop::collection::vec(any::<u64>(), 0..9),
        ) {
            let r = if band {
                RaOut::Band {
                    y0: header.0,
                    width: header.1,
                    depth: bits.iter().map(|&b| float(b)).collect::<Vec<_>>().into(),
                    color: bits
                        .iter()
                        .map(|&b| [b as u8, (b >> 8) as u8, (b >> 16) as u8])
                        .collect::<Vec<_>>()
                        .into(),
                }
            } else {
                RaOut::Wpa(
                    bits.iter()
                        .map(|&b| WinningPixel {
                            x: b as u16,
                            y: (b >> 16) as u16,
                            depth: float(b.rotate_left(17)),
                            rgb: [(b >> 40) as u8, (b >> 48) as u8, (b >> 56) as u8],
                        })
                        .collect::<Vec<_>>()
                        .into(),
                )
            };
            check_against_oracle(&r, reference_raout_encode)?;
        }
    }
}
