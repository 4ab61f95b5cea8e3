//! Partitioning a grid into equal sub-volumes ("chunks").
//!
//! The paper partitions each timestep's grid into equal sub-volumes (1536
//! for the 1.5 GB dataset, 24576 for the 25 GB dataset) which are then
//! declustered across 64 data files. A chunk owns a box of *cells*; its
//! stored point data includes one extra layer of points on the high side of
//! each axis so marching cubes can process every owned cell without
//! touching neighbours.

use std::ops::RangeInclusive;

use serde::{Deserialize, Serialize};

use crate::grid::{Dims, RectGrid};

/// Identifies a chunk by its position in the chunk lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChunkId(pub u32);

/// How a grid is split into chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkLayout {
    /// Point dimensions of the full grid.
    pub grid: Dims,
    /// Number of chunks along each axis.
    pub chunks: (u32, u32, u32),
}

/// Location and extent of one chunk within its grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkInfo {
    /// Which chunk.
    pub id: ChunkId,
    /// Position in the chunk lattice.
    pub coord: (u32, u32, u32),
    /// First owned cell along each axis.
    pub cell_origin: (u32, u32, u32),
    /// Owned cells along each axis.
    pub cell_extent: (u32, u32, u32),
}

impl ChunkInfo {
    /// Point dimensions of the stored data (cells + 1 along each axis).
    pub fn point_dims(&self) -> Dims {
        Dims::new(
            self.cell_extent.0 + 1,
            self.cell_extent.1 + 1,
            self.cell_extent.2 + 1,
        )
    }

    /// Bytes of the stored f32 point data.
    pub fn byte_size(&self) -> u64 {
        self.point_dims().byte_size()
    }
}

impl ChunkLayout {
    /// Split `grid` into `cx × cy × cz` chunks of cells. Each axis's cells
    /// are divided as evenly as possible (earlier chunks get the
    /// remainder). Panics if an axis has more chunks than cells.
    pub fn new(grid: Dims, chunks: (u32, u32, u32)) -> Self {
        assert!(chunks.0 >= 1 && chunks.1 >= 1 && chunks.2 >= 1);
        assert!(grid.nx > chunks.0, "more x-chunks than x-cells");
        assert!(grid.ny > chunks.1, "more y-chunks than y-cells");
        assert!(grid.nz > chunks.2, "more z-chunks than z-cells");
        ChunkLayout { grid, chunks }
    }

    /// Total number of chunks.
    pub fn count(&self) -> u32 {
        self.chunks.0 * self.chunks.1 * self.chunks.2
    }

    /// Chunk lattice coordinate of `id`.
    pub fn coord(&self, id: ChunkId) -> (u32, u32, u32) {
        let i = id.0;
        let cx = i % self.chunks.0;
        let cy = (i / self.chunks.0) % self.chunks.1;
        let cz = i / (self.chunks.0 * self.chunks.1);
        (cx, cy, cz)
    }

    /// Chunk id at lattice coordinate.
    pub fn id_at(&self, coord: (u32, u32, u32)) -> ChunkId {
        ChunkId((coord.2 * self.chunks.1 + coord.1) * self.chunks.0 + coord.0)
    }

    /// The chunk whose first owned cell is `cell_origin`, if one is:
    /// the inverse of [`ChunkInfo::cell_origin`].
    pub fn id_of_origin(&self, cell_origin: (u32, u32, u32)) -> Option<ChunkId> {
        let g = self.grid;
        Some(self.id_at((
            part_at(g.nx - 1, self.chunks.0, cell_origin.0)?,
            part_at(g.ny - 1, self.chunks.1, cell_origin.1)?,
            part_at(g.nz - 1, self.chunks.2, cell_origin.2)?,
        )))
    }

    /// Full description of chunk `id`.
    pub fn info(&self, id: ChunkId) -> ChunkInfo {
        assert!(id.0 < self.count(), "chunk id out of range");
        let coord = self.coord(id);
        let (o_x, e_x) = axis_range(self.grid.nx - 1, self.chunks.0, coord.0);
        let (o_y, e_y) = axis_range(self.grid.ny - 1, self.chunks.1, coord.1);
        let (o_z, e_z) = axis_range(self.grid.nz - 1, self.chunks.2, coord.2);
        ChunkInfo {
            id,
            coord,
            cell_origin: (o_x, o_y, o_z),
            cell_extent: (e_x, e_y, e_z),
        }
    }

    /// All chunk descriptions in id order.
    pub fn all(&self) -> Vec<ChunkInfo> {
        (0..self.count()).map(|i| self.info(ChunkId(i))).collect()
    }

    /// Extract the stored point data of chunk `id` from the full field.
    pub fn extract(&self, field: &RectGrid, id: ChunkId) -> RectGrid {
        assert_eq!(field.dims, self.grid, "field does not match layout grid");
        let info = self.info(id);
        field.extract(
            info.cell_origin.0,
            info.cell_origin.1,
            info.cell_origin.2,
            info.point_dims(),
        )
    }

    /// `(min, max)` over the non-NaN samples of every chunk's stored
    /// points, ghost planes included, in id order: what
    /// [`RectGrid::value_range`] of [`extract`](Self::extract) gives,
    /// without cutting any chunk out.
    pub fn value_ranges(&self, field: &RectGrid) -> Vec<(f32, f32)> {
        assert_eq!(field.dims, self.grid, "field does not match layout grid");
        let mut ranges = RangeFold::new(self);
        let rows = field.data.chunks_exact(self.grid.nx as usize);
        for (r, row) in rows.enumerate() {
            let (y, z) = (r as u32 % self.grid.ny, r as u32 / self.grid.ny);
            ranges.row(y, z, row);
        }
        ranges.finish()
    }
}

/// Builds [`ChunkLayout::value_ranges`] from a field's point rows, fed in
/// any order, so a generator can hand over each row while it is still
/// in cache. A row is folded element by element (contiguous, so it
/// vectorises) into the running bounds of each chunk column (a y/z box
/// of chunks) that holds it: one, or two or four on shared ghost planes.
/// A comparison with NaN is false, so a NaN sample never becomes a bound.
pub(crate) struct RangeFold {
    layout: ChunkLayout,
    /// `owners_y[p]`: the chunks whose stored points hold point `p`
    /// along y; `owners_z` likewise along z.
    owners_y: Vec<RangeInclusive<u32>>,
    owners_z: Vec<RangeInclusive<u32>>,
    /// Column `(cy, cz)`'s bounds per x at `[(cz * cy_count + cy) * nx..]`.
    lo: Vec<f32>,
    hi: Vec<f32>,
}

impl RangeFold {
    /// No rows folded yet.
    pub(crate) fn new(layout: &ChunkLayout) -> Self {
        let g = layout.grid;
        let columns = (layout.chunks.1 * layout.chunks.2) as usize;
        RangeFold {
            layout: *layout,
            owners_y: owners(g.ny, layout.chunks.1),
            owners_z: owners(g.nz, layout.chunks.2),
            lo: vec![f32::INFINITY; columns * g.nx as usize],
            hi: vec![f32::NEG_INFINITY; columns * g.nx as usize],
        }
    }

    /// Fold in the point row at `(y, z)`.
    pub(crate) fn row(&mut self, y: u32, z: u32, samples: &[f32]) {
        let nx = self.layout.grid.nx as usize;
        assert_eq!(samples.len(), nx, "a row holds nx points");
        for cz in self.owners_z[z as usize].clone() {
            for cy in self.owners_y[y as usize].clone() {
                let at = (cz * self.layout.chunks.1 + cy) as usize * nx;
                let (lo, hi) = (&mut self.lo[at..at + nx], &mut self.hi[at..at + nx]);
                for ((l, h), &v) in lo.iter_mut().zip(hi).zip(samples) {
                    *l = if v < *l { v } else { *l };
                    *h = if v > *h { v } else { *h };
                }
            }
        }
    }

    /// The ranges in chunk id order, each over the rows folded so far.
    pub(crate) fn finish(self) -> Vec<(f32, f32)> {
        let l = &self.layout;
        let nx = l.grid.nx as usize;
        (0..l.count())
            .map(|i| {
                let info = l.info(ChunkId(i));
                let column = (info.coord.2 * l.chunks.1 + info.coord.1) as usize * nx;
                let x0 = column + info.cell_origin.0 as usize;
                let x = x0..=x0 + info.cell_extent.0 as usize;
                (
                    self.lo[x.clone()]
                        .iter()
                        .fold(f32::INFINITY, |a, &b| a.min(b)),
                    self.hi[x].iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b)),
                )
            })
            .collect()
    }
}

/// For each of `points` points along an axis split into `parts` chunks,
/// the chunks whose stored points (ghost plane included) hold it.
fn owners(points: u32, parts: u32) -> Vec<RangeInclusive<u32>> {
    let mut out: Vec<Option<RangeInclusive<u32>>> = vec![None; points as usize];
    for idx in 0..parts {
        let (o, e) = axis_range(points - 1, parts, idx);
        for p in o..=o + e {
            let slot = &mut out[p as usize];
            *slot = Some(slot.as_ref().map_or(idx, |r| *r.start())..=idx);
        }
    }
    out.into_iter().flatten().collect()
}

/// Evenly divide `cells` cells into `parts`; returns `(origin, extent)` of
/// part `idx`.
fn axis_range(cells: u32, parts: u32, idx: u32) -> (u32, u32) {
    let base = cells / parts;
    let rem = cells % parts;
    let extent = base + if idx < rem { 1 } else { 0 };
    let origin = idx * base + idx.min(rem);
    (origin, extent)
}

/// The part of [`axis_range`]'s split that starts at cell `origin`, if
/// one does.
fn part_at(cells: u32, parts: u32, origin: u32) -> Option<u32> {
    let (base, rem) = (cells / parts, cells % parts);
    // The first `rem` parts hold `base + 1` cells, the rest `base`.
    let long = rem * (base + 1);
    let idx = if origin < long {
        origin / (base + 1)
    } else {
        rem + (origin - long) / base
    };
    (idx < parts && axis_range(cells, parts, idx).0 == origin).then_some(idx)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn axis_range_covers_exactly() {
        for cells in [7u32, 8, 13, 64] {
            for parts in [1u32, 2, 3, 4, 7] {
                if parts > cells {
                    continue;
                }
                let mut next = 0;
                for i in 0..parts {
                    let (o, e) = axis_range(cells, parts, i);
                    assert_eq!(o, next, "gap at part {i} ({cells}/{parts})");
                    assert!(e >= 1);
                    next = o + e;
                }
                assert_eq!(next, cells);
            }
        }
    }

    #[test]
    fn chunk_ids_roundtrip_coords() {
        let l = ChunkLayout::new(Dims::new(17, 17, 17), (2, 3, 4));
        for i in 0..l.count() {
            let id = ChunkId(i);
            assert_eq!(l.id_at(l.coord(id)), id);
        }
        assert_eq!(l.count(), 24);
    }

    #[test]
    fn id_of_origin_inverts_cell_origin_on_uneven_layouts() {
        for (grid, chunks) in [
            (Dims::new(17, 17, 17), (2, 3, 4)),
            (Dims::new(9, 14, 30), (3, 5, 7)),
            (Dims::new(2, 3, 12), (1, 2, 11)),
            (Dims::new(61, 40, 33), (12, 7, 5)),
        ] {
            let l = ChunkLayout::new(grid, chunks);
            let origins: std::collections::HashMap<_, _> =
                l.all().iter().map(|i| (i.cell_origin, i.id)).collect();
            // Every cell of the grid and one past it: a chunk's origin
            // maps to it, any other cell to none.
            for z in 0..grid.nz {
                for y in 0..grid.ny {
                    for x in 0..grid.nx {
                        let o = (x, y, z);
                        assert_eq!(l.id_of_origin(o), origins.get(&o).copied(), "{o:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn chunks_tile_all_cells() {
        let l = ChunkLayout::new(Dims::new(9, 9, 9), (2, 2, 2));
        let mut owned = vec![false; l.grid.cells() as usize];
        for info in l.all() {
            for z in 0..info.cell_extent.2 {
                for y in 0..info.cell_extent.1 {
                    for x in 0..info.cell_extent.0 {
                        let gx = info.cell_origin.0 + x;
                        let gy = info.cell_origin.1 + y;
                        let gz = info.cell_origin.2 + z;
                        let idx = ((gz * 8 + gy) * 8 + gx) as usize;
                        assert!(!owned[idx], "cell ({gx},{gy},{gz}) owned twice");
                        owned[idx] = true;
                    }
                }
            }
        }
        assert!(owned.iter().all(|&o| o));
    }

    #[test]
    fn extract_has_overlap_points() {
        let l = ChunkLayout::new(Dims::new(5, 5, 5), (2, 1, 1));
        let field = RectGrid::from_fn(l.grid, |x, y, z| (x + 10 * y + 100 * z) as f32);
        let c0 = l.extract(&field, ChunkId(0));
        let c1 = l.extract(&field, ChunkId(1));
        // Chunk 0 owns cells x 0..2 -> points 0..=2; chunk 1 cells 2..4 ->
        // points 2..=4. The shared plane x=2 appears in both.
        assert_eq!(c0.dims.nx, 3);
        assert_eq!(c1.dims.nx, 3);
        assert_eq!(c0.at(2, 1, 1), field.at(2, 1, 1));
        assert_eq!(c1.at(0, 1, 1), field.at(2, 1, 1));
    }

    #[test]
    fn paper_like_chunk_counts() {
        // Small dataset analogue: 1536 = 8 x 8 x 24 sub-volumes.
        let l = ChunkLayout::new(Dims::new(257, 257, 1025), (8, 8, 24));
        assert_eq!(l.count(), 1536);
        // Large dataset analogue: 24576 = 16 x 16 x 96.
        let l = ChunkLayout::new(Dims::new(1025, 1025, 1025), (16, 16, 96));
        assert_eq!(l.count(), 24576);
    }

    #[test]
    fn byte_size_matches_points() {
        let l = ChunkLayout::new(Dims::new(9, 9, 9), (2, 2, 2));
        let info = l.info(ChunkId(0));
        assert_eq!(info.byte_size(), 5 * 5 * 5 * 4);
    }
}
