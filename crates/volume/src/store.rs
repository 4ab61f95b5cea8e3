//! Dataset assembly: generator + chunk layout + declustering, with binary
//! chunk encoding and a lazy per-timestep field cache.
//!
//! A [`Dataset`] is what the read filters and the ADR baseline open: it
//! knows which chunks exist, which file (and therefore which disk) each
//! chunk lives in, how many bytes a chunk read costs, and produces the
//! actual chunk point data. It also knows each resident chunk's value
//! range, so a reader can tell that an isosurface misses a chunk before
//! cutting it.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;

use crate::chunks::{ChunkId, ChunkInfo, ChunkLayout, RangeFold};
use crate::decluster::{hilbert_decluster, Declustering, FileId};
use crate::grid::{can_cross, Dims, RectGrid};
use crate::parssim::{ParSSim, SimParams};

/// Binary encoding of one chunk: 3 × u32 LE point dims, then f32 LE data.
pub fn encode_chunk(grid: &RectGrid) -> Bytes {
    let mut out = BytesMut::with_capacity(12 + grid.data.len() * 4);
    out.extend_from_slice(&grid.dims.nx.to_le_bytes());
    out.extend_from_slice(&grid.dims.ny.to_le_bytes());
    out.extend_from_slice(&grid.dims.nz.to_le_bytes());
    for v in &grid.data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.freeze()
}

/// Decode a chunk produced by [`encode_chunk`].
///
/// Returns `None` on truncated or inconsistent input.
pub fn decode_chunk(bytes: &[u8]) -> Option<RectGrid> {
    if bytes.len() < 12 {
        return None;
    }
    let nx = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
    let ny = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    let nz = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
    let dims = Dims::new(nx, ny, nz);
    let n = dims.points() as usize;
    if bytes.len() != 12 + n * 4 {
        return None;
    }
    let mut data = Vec::with_capacity(n);
    for i in 0..n {
        let off = 12 + i * 4;
        data.push(f32::from_le_bytes(bytes[off..off + 4].try_into().ok()?));
    }
    Some(RectGrid { dims, data })
}

/// A declustered, multi-timestep, multi-species scientific dataset.
///
/// Cheap to clone; the underlying generator and field cache are shared.
#[derive(Clone)]
pub struct Dataset {
    inner: Arc<DatasetInner>,
}

struct DatasetInner {
    sim: ParSSim,
    layout: ChunkLayout,
    decl: Declustering,
    /// Resident timesteps keyed by (species, timestep); generated lazily.
    cache: Mutex<HashMap<(u32, u32), Resident>>,
}

/// One generated field and, built in the same call, the value range of
/// each of its chunks.
struct Resident {
    field: Arc<RectGrid>,
    /// `ranges[id]`: `(min, max)` over chunk `id`'s non-NaN samples,
    /// ghost planes included (see [`ChunkLayout::value_ranges`]).
    ranges: Vec<(f32, f32)>,
}

impl Dataset {
    /// Build a dataset over `dims` points, split into `chunks` sub-volumes,
    /// declustered across `n_files` files (the paper uses 64).
    pub fn generate(dims: Dims, chunks: (u32, u32, u32), n_files: u32, seed: u64) -> Self {
        let layout = ChunkLayout::new(dims, chunks);
        let decl = hilbert_decluster(&layout, n_files);
        Dataset {
            inner: Arc::new(DatasetInner {
                sim: ParSSim::new(SimParams::new(dims, seed)),
                layout,
                decl,
                cache: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// The chunk layout.
    pub fn layout(&self) -> &ChunkLayout {
        &self.inner.layout
    }

    /// The declustering map.
    pub fn declustering(&self) -> &Declustering {
        &self.inner.decl
    }

    /// Info for chunk `id`.
    pub fn chunk_info(&self, id: ChunkId) -> ChunkInfo {
        self.inner.layout.info(id)
    }

    /// Chunks stored in `file`, in Hilbert order.
    pub fn chunks_in_file(&self, file: FileId) -> &[ChunkId] {
        &self.inner.decl.chunks_of_file[file.0 as usize]
    }

    /// Bytes a read of chunk `id` moves off disk (header + f32 payload).
    pub fn chunk_bytes(&self, id: ChunkId) -> u64 {
        12 + self.chunk_info(id).byte_size()
    }

    /// Total bytes of one timestep of one species.
    pub fn timestep_bytes(&self) -> u64 {
        (0..self.inner.layout.count())
            .map(|i| self.chunk_bytes(ChunkId(i)))
            .sum()
    }

    /// Read chunk `id` of `species` at `timestep` (the actual point data;
    /// I/O *cost* is charged separately by the storage emulation).
    pub fn read_chunk(&self, species: u32, timestep: u32, id: ChunkId) -> RectGrid {
        let field = self.field(species, timestep);
        self.inner.layout.extract(&field, id)
    }

    /// The full field (cached) — used by tests and by reference renderings.
    pub fn field(&self, species: u32, timestep: u32) -> Arc<RectGrid> {
        self.resident(species, timestep, |r| r.field.clone())
    }

    /// `(min, max)` over the non-NaN samples chunk `id` of `species` at
    /// `timestep` would hold if read, ghost planes included; `(inf, -inf)`
    /// when it holds no number. Generates the field if it is not
    /// resident.
    pub fn chunk_range(&self, species: u32, timestep: u32, id: ChunkId) -> (f32, f32) {
        self.resident(species, timestep, |r| r.ranges[id.0 as usize])
    }

    /// Whether an isosurface at `iso` can cross chunk `id` of `species` at
    /// `timestep` ([`can_cross`] on its [`chunk_range`](Self::chunk_range)).
    /// When it cannot, extracting the chunk yields no triangle, so a
    /// reader that only extracts need not cut it.
    pub fn can_cross(&self, species: u32, timestep: u32, id: ChunkId, iso: f32) -> bool {
        can_cross(self.chunk_range(species, timestep, id), iso)
    }

    /// Run `f` on the resident timestep, generating the field and its
    /// chunk ranges first if needed.
    fn resident<R>(&self, species: u32, timestep: u32, f: impl FnOnce(&Resident) -> R) -> R {
        let mut cache = self.inner.cache.lock();
        let r = cache.entry((species, timestep)).or_insert_with(|| {
            let mut ranges = RangeFold::new(&self.inner.layout);
            let field = self
                .inner
                .sim
                .field_rows(species, timestep, |y, z, row| ranges.row(y, z, row));
            Resident {
                ranges: ranges.finish(),
                field: Arc::new(field),
            }
        });
        f(r)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::generate(Dims::new(9, 9, 9), (2, 2, 2), 4, 7)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let g = RectGrid::from_fn(Dims::new(3, 4, 5), |x, y, z| {
            x as f32 + y as f32 * 0.5 - z as f32
        });
        let bytes = encode_chunk(&g);
        assert_eq!(bytes.len() as u64, 12 + g.dims.byte_size());
        assert_eq!(decode_chunk(&bytes).unwrap(), g);
    }

    #[test]
    fn decode_rejects_truncated() {
        let g = RectGrid::filled(Dims::new(2, 2, 2), 1.0);
        let bytes = encode_chunk(&g);
        assert!(decode_chunk(&bytes[..bytes.len() - 1]).is_none());
        assert!(decode_chunk(&bytes[..4]).is_none());
    }

    #[test]
    fn decode_rejects_inconsistent_dims() {
        let g = RectGrid::filled(Dims::new(2, 2, 2), 1.0);
        let mut bytes = encode_chunk(&g).to_vec();
        bytes[0] = 3; // claim nx=3 without adding data
        assert!(decode_chunk(&bytes).is_none());
    }

    #[test]
    fn chunk_reads_match_direct_extraction() {
        let ds = tiny();
        let field = ds.field(1, 2);
        for i in 0..ds.layout().count() {
            let id = ChunkId(i);
            let via_read = ds.read_chunk(1, 2, id);
            let direct = ds.layout().extract(&field, id);
            assert_eq!(via_read, direct);
        }
    }

    #[test]
    fn chunk_bytes_accounts_header() {
        let ds = tiny();
        let id = ChunkId(0);
        let encoded = encode_chunk(&ds.read_chunk(0, 0, id));
        assert_eq!(ds.chunk_bytes(id), encoded.len() as u64);
    }

    #[test]
    fn timestep_bytes_sums_chunks() {
        let ds = tiny();
        let manual: u64 = (0..8).map(|i| ds.chunk_bytes(ChunkId(i))).sum();
        assert_eq!(ds.timestep_bytes(), manual);
    }
}
