//! The stages the application filter composes: read, extract, raster and
//! merge (tile or final). Each stage charges its
//! compute cost to the host CPU via the filter context; fusing stages is
//! then literally function composition, which is how the paper's grouped
//! configurations behave.

use datacutter::{FilterCtx, FilterError};
use isosurf::{
    merge_batch, raster_batch, ActivePixelBuffer, ExtractStats, Image, Triangle, WinningPixel,
    ZBuffer, BACKGROUND, EMPTY_DEPTH,
};
use volume::{ChunkId, ChunkInfo};

use crate::config::{Algorithm, AppConfig, SharedConfig};
use crate::payload::{BandPools, ChunkPayload, RaOut, TriBatch};
use crate::pool::{BufferPool, PoolVec};

/// One chunk the read stage will retrieve, in retrieval order.
/// `reset_seek` marks reads that must pay the full positioning overhead
/// regardless of what came before: the first chunk of a file, or a chunk
/// following a query-skipped neighbour.
struct PlanEntry {
    chunk: ChunkId,
    disk: u32,
    bytes: u64,
    reset_seek: bool,
}

/// One chunk the read stage has retrieved and charged for, not yet cut
/// out of its timestep. It is cut only if the isosurface can cross it:
/// otherwise a fused extract skips it
/// ([`cut_crossing`](Self::cut_crossing)) and the split `R` filter ships
/// it as a header ([`shipped`](Self::shipped)).
pub(crate) struct ReadChunk<'a> {
    cfg: &'a AppConfig,
    timestep: u32,
    info: ChunkInfo,
}

impl ReadChunk<'_> {
    /// Cut the chunk's samples into a payload.
    pub fn cut(self) -> ChunkPayload {
        ChunkPayload {
            origin: self.info.cell_origin,
            grid: self
                .cfg
                .dataset
                .read_chunk(self.cfg.species, self.timestep, self.info.id),
        }
    }

    /// Cut the chunk for an extract stage fused behind the read, if
    /// the isosurface can cross it ([`crosses_or_charge`]).
    pub fn cut_crossing(self, ctx: &mut FilterCtx) -> Option<ChunkPayload> {
        crosses_or_charge(self.cfg, ctx, self.timestep, &self.info).then(|| self.cut())
    }

    /// The chunk as the split `R` filter ships it, with the wire size it
    /// declares: [cut](Self::cut) if the isosurface can cross it,
    /// otherwise a [header](ChunkPayload::header) at its origin, which
    /// the split extract drops unscanned by the same rule
    /// ([`received_chunk_crosses`]). Both declare the chunk's full size,
    /// `Dataset::chunk_bytes` (= `cut().wire_bytes()`), so every modelled
    /// transfer, stream total and memory-budget charge is the cut
    /// chunk's; only what is held, spilled and checksummed shrinks.
    pub fn shipped(self) -> (u64, ChunkPayload) {
        let (cfg, id) = (self.cfg, self.info.id);
        let wire = cfg.dataset.chunk_bytes(id);
        if cfg
            .dataset
            .can_cross(cfg.species, self.timestep, id, cfg.iso)
        {
            (wire, self.cut())
        } else {
            (wire, ChunkPayload::header(self.info.cell_origin))
        }
    }
}

/// Whether the isosurface can cross chunk `info` at `timestep`, by the
/// dataset's chunk-range index: no sample is touched. The one skip rule
/// of every extract stage, fused or split. A chunk it cannot cross need
/// not be cut or scanned: `ctx` is charged the scan that would find no
/// triangle, `extract_cost(cells, 0)`, as [`ExtractStage::feed`] would
/// charge it. That scan would emit no batch either, so the skip leaves
/// virtual time, streams and digests as they were.
pub(crate) fn crosses_or_charge(
    cfg: &AppConfig,
    ctx: &mut FilterCtx,
    timestep: u32,
    info: &ChunkInfo,
) -> bool {
    if cfg
        .dataset
        .can_cross(cfg.species, timestep, info.id, cfg.iso)
    {
        return true;
    }
    ctx.compute(cfg.cost.extract_cost(info.point_dims().cells(), 0));
    false
}

/// [`crosses_or_charge`] for a chunk a split extract received: the chunk
/// of this unit of work's timestep whose cells start at the payload's
/// origin. A payload at no chunk origin is scanned. A header that would
/// be scanned is an error: its samples were never shipped, and scanning
/// it would draw nothing where the surface is.
pub(crate) fn received_chunk_crosses(
    cfg: &AppConfig,
    ctx: &mut FilterCtx,
    chunk: &ChunkPayload,
) -> Result<bool, FilterError> {
    let crosses = match cfg.dataset.layout().id_of_origin(chunk.origin) {
        Some(id) => {
            let info = cfg.dataset.chunk_info(id);
            crosses_or_charge(cfg, ctx, cfg.uow_timestep(ctx.uow()), &info)
        }
        None => true,
    };
    if crosses && chunk.is_header() {
        return Err(FilterError(format!(
            "extract received a header at cell origin {:?} that the isosurface \
             can cross in unit of work {}",
            chunk.origin,
            ctx.uow()
        )));
    }
    Ok(crosses)
}

/// Reads this storage node's declustered chunks off its local disks.
pub(crate) struct ReadStage {
    pub cfg: SharedConfig,
    pub node_index: usize,
}

impl ReadStage {
    /// The node's retrieval plan: selected chunks in file/Hilbert order
    /// with their disks, sizes, and seek-reset points.
    fn plan(&self) -> Vec<PlanEntry> {
        let selected = self.cfg.selected_chunks();
        let mut out = Vec::new();
        for (file, disk) in self.cfg.files_for_node(self.node_index) {
            let mut reset_seek = true;
            for &chunk in self.cfg.dataset.chunks_in_file(file) {
                if !selected.contains(&chunk) {
                    // Outside the range query: skipped chunks break the
                    // sequential scan, so the next read re-seeks.
                    reset_seek = true;
                    continue;
                }
                out.push(PlanEntry {
                    chunk,
                    disk,
                    bytes: self.cfg.dataset.chunk_bytes(chunk),
                    reset_seek,
                });
                reset_seek = false;
            }
        }
        out
    }

    /// Stream every local chunk through `sink`, charging disk + CPU; the
    /// sink decides whether to [cut](ReadChunk::cut) it.
    /// Chunks within a file are read sequentially (Hilbert order), so only
    /// the first read of each file pays the full positioning overhead.
    /// Unit of work `k` renders timestep `cfg.timestep + k` (wrapped to
    /// the stored range), so a multi-UOW run browses consecutive
    /// timesteps like the paper's experiments.
    pub fn run(&self, ctx: &mut FilterCtx, mut sink: impl FnMut(&mut FilterCtx, ReadChunk<'_>)) {
        let timestep = self.cfg.uow_timestep(ctx.uow());
        for e in self.plan() {
            ctx.disk_read(e.disk as usize, e.bytes, !e.reset_seek);
            ctx.compute(self.cfg.cost.read_cost(e.bytes));
            sink(
                ctx,
                ReadChunk {
                    cfg: &self.cfg,
                    timestep,
                    info: self.cfg.dataset.chunk_info(e.chunk),
                },
            );
        }
    }
}

/// Triangles cut into pooled batches of `tri_batch` as the kernel emits
/// them, so each triangle is written once, into the buffer that ships it.
/// A full batch waits in `full` until its chunk's extraction is charged;
/// `open` is the partial batch, carried across chunks.
#[derive(Default)]
struct Batcher {
    open: Option<PoolVec<Triangle>>,
    full: Vec<PoolVec<Triangle>>,
}

impl Batcher {
    #[inline]
    fn push(&mut self, pool: &BufferPool<Triangle>, tri_batch: usize, t: Triangle) {
        let open = self.open.get_or_insert_with(|| pool.take(tri_batch));
        open.buf_mut().push(t);
        if open.len() == tri_batch {
            self.full.extend(self.open.take());
        }
    }

    fn reset(&mut self) {
        self.open = None;
        self.full.clear();
    }
}

/// Marching-cubes extraction with fixed-size triangle batching. Outgoing
/// batches draw from a per-copy [`BufferPool`], so after the first unit
/// of work the batching loop allocates nothing: consumers dropping a
/// [`TriBatch`] recycle its buffer back here.
pub(crate) struct ExtractStage {
    pub cfg: SharedConfig,
    batches: Batcher,
    pool: BufferPool<Triangle>,
}

impl ExtractStage {
    pub fn new(cfg: SharedConfig) -> Self {
        ExtractStage {
            batches: Batcher::default(),
            pool: BufferPool::new(),
            cfg,
        }
    }

    /// Drop any state from a previous unit of work (call from `init`).
    pub fn reset(&mut self) {
        self.batches.reset();
    }

    /// Extract one chunk straight into the batches.
    fn extract(&mut self, chunk: &ChunkPayload) -> ExtractStats {
        let (batches, pool, n) = (&mut self.batches, &self.pool, self.cfg.tri_batch);
        isosurf::extract_into(&chunk.grid, chunk.origin, self.cfg.iso, |t| {
            batches.push(pool, n, t)
        })
    }

    /// Extract one chunk, emitting full batches through `sink`.
    pub fn feed(
        &mut self,
        ctx: &mut FilterCtx,
        chunk: ChunkPayload,
        mut sink: impl FnMut(&mut FilterCtx, TriBatch),
    ) {
        let stats = self.extract(&chunk);
        ctx.compute(self.cfg.cost.extract_cost(stats.cells, stats.triangles));
        for tris in self.batches.full.drain(..) {
            sink(ctx, TriBatch { tris });
        }
    }

    /// Emit any partial batch (call at end-of-work).
    pub fn flush(&mut self, ctx: &mut FilterCtx, mut sink: impl FnMut(&mut FilterCtx, TriBatch)) {
        if let Some(tris) = self.batches.open.take() {
            sink(ctx, TriBatch { tris });
        }
    }
}

/// Hidden-surface removal: dense z-buffer or sparse active-pixel.
pub(crate) enum RasterStage {
    Zb {
        /// Allocated on the first plot: a copy that draws nothing in a
        /// unit of work never holds one.
        zb: Option<ZBuffer>,
        /// Rows `[lo, hi)` holding every pixel plotted so far; empty
        /// (`lo >= hi`) while nothing is.
        drawn: (u32, u32),
        proj: isosurf::Projector,
        /// Band buffers for end-of-work shipping, recycled by the merge;
        /// shared by every copy of the filter.
        pools: BandPools,
    },
    Ap {
        ap: ActivePixelBuffer,
        proj: isosurf::Projector,
        /// WPA batch buffers: recycled ones are re-supplied to `ap` before
        /// each feed, so steady-state flushes allocate nothing.
        pool: BufferPool<WinningPixel>,
    },
}

impl RasterStage {
    /// A stage rastering the whole image, shipping z-buffer bands from
    /// `bands`.
    pub fn new(alg: Algorithm, cfg: &SharedConfig, bands: &BandPools) -> Self {
        let proj = cfg.camera.projector();
        match alg {
            Algorithm::ZBuffer => RasterStage::Zb {
                zb: None,
                drawn: (u32::MAX, 0),
                proj,
                pools: bands.clone(),
            },
            Algorithm::ActivePixel => RasterStage::Ap {
                ap: ActivePixelBuffer::new(cfg.camera.width, cfg.wpa_capacity),
                proj,
                pool: BufferPool::new(),
            },
        }
    }

    /// Start a unit of work with nothing drawn. The pools, the
    /// active-pixel buffer and its spare batches stay: they are what later
    /// units of work reuse. The last [`finish`](Self::finish) freed the
    /// z-buffer and flushed the active-pixel buffer.
    pub fn reset(&mut self) {
        if let RasterStage::Zb { drawn, .. } = self {
            *drawn = (u32::MAX, 0);
        }
    }

    /// Rasterize one triangle batch. Under the active-pixel algorithm,
    /// filled WPA batches flow out through `sink` immediately; under the
    /// z-buffer algorithm nothing is emitted until [`finish`](Self::finish).
    pub fn feed(
        &mut self,
        cfg: &SharedConfig,
        ctx: &mut FilterCtx,
        batch: TriBatch,
        mut sink: impl FnMut(&mut FilterCtx, RaOut),
    ) {
        let (w, h) = (cfg.camera.width, cfg.camera.height);
        match self {
            RasterStage::Zb {
                zb, drawn, proj, ..
            } => {
                let pixels =
                    raster_batch(proj, w, h, &cfg.material, &batch.tris, |x, y, d, rgb| {
                        zb.get_or_insert_with(|| ZBuffer::new(w, h))
                            .plot(x, y, d, rgb);
                        *drawn = (drawn.0.min(y), drawn.1.max(y + 1));
                    });
                ctx.compute(cfg.cost.raster_cost(batch.tris.len() as u64, pixels));
            }
            RasterStage::Ap { ap, proj, pool } => {
                // Re-arm the active-pixel buffer with every batch buffer the
                // merge has recycled since the last feed: flushes then reuse
                // them instead of allocating.
                while let Some(v) = pool.try_take_raw() {
                    ap.supply(v);
                }
                let mut flushed: Vec<Vec<WinningPixel>> = Vec::new();
                let mut on_flush = |b: Vec<WinningPixel>| flushed.push(b);
                let pixels =
                    raster_batch(proj, w, h, &cfg.material, &batch.tris, |x, y, d, rgb| {
                        ap.plot(x, y, d, rgb, &mut on_flush);
                    });
                ctx.compute(cfg.cost.raster_cost(batch.tris.len() as u64, pixels));
                for b in flushed {
                    sink(ctx, RaOut::Wpa(pool.adopt(b)));
                }
            }
        }
    }

    /// End-of-work: the z-buffer variant now ships its whole buffer in
    /// fixed-size bands (the synchronization point the paper describes),
    /// each declaring all its rows and holding only those it drew; the
    /// active-pixel variant flushes its partial WPA.
    pub fn finish(
        &mut self,
        cfg: &SharedConfig,
        ctx: &mut FilterCtx,
        mut sink: impl FnMut(&mut FilterCtx, RaOut),
    ) {
        match self {
            RasterStage::Zb {
                zb, drawn, pools, ..
            } => {
                // The whole image travels to the merge, and of each band
                // only the rows inside `drawn`: every other row is empty.
                // Band buffers are pooled: the merge dropping a band
                // returns both vectors.
                let (rows, h) = (cfg.band_rows(), cfg.camera.height);
                let w = cfg.camera.width;
                let mut y0 = 0;
                while y0 < h {
                    let n = rows.min(h - y0);
                    let band = match zb {
                        Some(z) => {
                            let span = drawn.0 as usize * w as usize..drawn.1 as usize * w as usize;
                            pools.band((y0, n), w, drawn.0, &z.depth[span.clone()], &z.color[span])
                        }
                        None => pools.band((y0, n), w, y0, &[], &[]),
                    };
                    if y0 + n >= drawn.1 {
                        // Every drawn row is copied out: free the z-buffer
                        // before the next send, which on the native
                        // executor may block on a full merge queue — a copy
                        // waiting there must not also hold a buffer it is
                        // done with.
                        *zb = None;
                    }
                    sink(ctx, band);
                    y0 += n;
                }
            }
            RasterStage::Ap { ap, pool, .. } => {
                let mut flushed: Vec<Vec<WinningPixel>> = Vec::new();
                ap.force_flush(&mut |b| flushed.push(b));
                for b in flushed {
                    sink(ctx, RaOut::Wpa(pool.adopt(b)));
                }
            }
        }
    }
}

/// One merge copy's accumulator in the tile-composite group: a small
/// z-buffer **per owned tile**, materialized lazily when the first
/// fragment for that tile arrives. The producer splits fragments at tile
/// boundaries, so each incoming [`RaOut`] lies in exactly one tile and the
/// fold is the same strict-`<` depth test the single-sink merge applies —
/// compositing per tile and stitching is bit-identical to folding
/// everything into one whole-image buffer.
pub(crate) struct TileMergeStage {
    pub cfg: SharedConfig,
    tile_rows: u32,
    tiles: Vec<Option<ZBuffer>>,
}

impl TileMergeStage {
    pub fn new(cfg: SharedConfig) -> Self {
        let tile_rows = cfg.tile_rows();
        let n = cfg.n_tiles() as usize;
        TileMergeStage {
            cfg,
            tile_rows,
            tiles: (0..n).map(|_| None).collect(),
        }
    }

    fn tile_mut(&mut self, tile: u32) -> (&mut ZBuffer, u32) {
        let (lo, hi) = crate::tiles::tile_range(tile, self.tile_rows, self.cfg.camera.height);
        let w = self.cfg.camera.width;
        let zb = self.tiles[tile as usize].get_or_insert_with(|| ZBuffer::new(w, hi - lo));
        (zb, lo)
    }

    /// Fold one single-tile fragment.
    pub fn feed(&mut self, ctx: &mut FilterCtx, out: RaOut) {
        let entries = out.merge_entries();
        if entries == 0 {
            return;
        }
        match out {
            RaOut::Band {
                y0,
                held_y0,
                depth,
                color,
                ..
            } => {
                // Even a header fragment opens its tile, which then ships
                // at end of work: the merge sends what it would have sent
                // had every row been held.
                let (zb, lo) = self.tile_mut(crate::tiles::tile_of_row(y0, self.tile_rows));
                isosurf::merge_rows(zb, held_y0 - lo, &depth, &color);
            }
            RaOut::Wpa(batch) => {
                let tile = crate::tiles::tile_of_row(batch[0].y as u32, self.tile_rows);
                let (zb, lo) = self.tile_mut(tile);
                isosurf::merge_batch_offset(zb, lo, &batch);
            }
        }
        ctx.compute(self.cfg.cost.merge_cost(entries));
    }

    /// Ship every composited tile downstream as a dense band, in ascending
    /// tile order (call after the input stream hits end-of-work). The tile
    /// buffers are moved, not copied.
    pub fn finish(&mut self, ctx: &mut FilterCtx, mut sink: impl FnMut(&mut FilterCtx, RaOut)) {
        for t in 0..self.tiles.len() {
            if let Some(zb) = self.tiles[t].take() {
                let (lo, _) =
                    crate::tiles::tile_range(t as u32, self.tile_rows, self.cfg.camera.height);
                sink(
                    ctx,
                    RaOut::Band {
                        y0: lo,
                        rows: zb.height,
                        held_y0: lo,
                        width: zb.width,
                        depth: zb.depth.into(),
                        color: zb.color.into(),
                    },
                );
            }
        }
    }
}

/// The merge filter's accumulator: folds partial results into the final
/// image. Handles both algorithms' payloads.
pub(crate) struct MergeStage {
    pub cfg: SharedConfig,
    zb: ZBuffer,
    /// Whether a fold wrote to `zb` since it was last cleared.
    folded: bool,
}

impl MergeStage {
    pub fn new(cfg: SharedConfig) -> Self {
        let zb = ZBuffer::new(cfg.camera.width, cfg.camera.height);
        MergeStage {
            cfg,
            zb,
            folded: false,
        }
    }

    /// Start a unit of work on an empty image, in the buffer the last one
    /// used. Only depths are cleared: a color is read only where its depth
    /// is set, and every fold sets the two together. A plane no fold wrote
    /// to is left as it is: clearing a fresh one would touch every page of
    /// it for nothing.
    pub fn reset(&mut self) {
        if std::mem::take(&mut self.folded) {
            self.zb.depth.fill(EMPTY_DEPTH);
        }
    }

    /// Fold one partial result: the rows a band holds, charged as every
    /// row it declares.
    pub fn feed(&mut self, ctx: &mut FilterCtx, out: RaOut) {
        let entries = out.merge_entries();
        match out {
            RaOut::Band {
                held_y0,
                width,
                depth,
                color,
                ..
            } => {
                debug_assert_eq!(width, self.zb.width);
                isosurf::merge_rows(&mut self.zb, held_y0, &depth, &color);
            }
            RaOut::Wpa(batch) => merge_batch(&mut self.zb, &batch),
        }
        self.folded = true;
        ctx.compute(self.cfg.cost.merge_cost(entries));
    }

    /// Extract the final image.
    pub fn image(&self) -> Image {
        self.zb.to_image(BACKGROUND)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::HostId;
    use std::sync::Arc;
    use volume::{Dataset, Dims, RectGrid};

    /// A ball of radius `r` about the centre of an `n`³ grid at `origin`,
    /// positive inside (surface at iso 0).
    fn ball(n: u32, r: f32, origin: (u32, u32, u32)) -> ChunkPayload {
        let c = (n - 1) as f32 / 2.0;
        let grid = RectGrid::from_fn(Dims::new(n, n, n), |x, y, z| {
            let d = |a: u32| (a as f32 - c).powi(2);
            r - (d(x) + d(y) + d(z)).sqrt()
        });
        ChunkPayload { origin, grid }
    }

    /// `chunks` through `isosurf::extract`, concatenated and cut every `n`.
    fn cut(chunks: &[ChunkPayload], n: usize) -> Vec<Vec<Triangle>> {
        let mut all = Vec::new();
        for c in chunks {
            isosurf::extract(&c.grid, c.origin, 0.0, &mut all);
        }
        all.chunks(n).map(<[Triangle]>::to_vec).collect()
    }

    /// What `feed` on each chunk and then `flush` ship, in order. Only the
    /// filter context is left out: `feed` charges it between extracting
    /// and shipping.
    fn shipped(stage: &mut ExtractStage, chunks: &[ChunkPayload]) -> Vec<Vec<Triangle>> {
        let mut out = Vec::new();
        for c in chunks {
            let stats = stage.extract(c);
            assert_eq!(
                stats,
                isosurf::extract(&c.grid, c.origin, 0.0, &mut Vec::new())
            );
            out.extend(stage.batches.full.drain(..).map(|b| b.to_vec()));
        }
        out.extend(stage.batches.open.take().map(|b| b.to_vec()));
        out
    }

    /// The split `R` filter's `(declared wire, payload)` for every chunk
    /// of four uneven layouts, at several isovalues and at two timesteps
    /// neither of which is the config's: the cut chunk when the surface
    /// can cross it (by the range of its cut samples), otherwise a header
    /// at its origin declaring the same size.
    #[test]
    fn split_read_ships_a_header_for_each_chunk_the_surface_cannot_cross() {
        let (mut headers, mut cut) = (0, 0);
        for (grid, chunks) in [
            (Dims::new(17, 17, 17), (2, 3, 4)),
            (Dims::new(9, 14, 30), (3, 5, 7)),
            (Dims::new(2, 3, 12), (1, 2, 11)),
            (Dims::new(61, 40, 33), (12, 7, 5)),
        ] {
            let dataset = Dataset::generate(grid, chunks, 4, 5);
            for iso in [0.05, 0.2, 0.35, 0.5, 0.65, 0.8] {
                let mut cfg = AppConfig::new(dataset.clone(), vec![HostId(0)], 1, 8, 8);
                cfg.iso = iso;
                cfg.timestep = 1;
                for timestep in [3, 7] {
                    for id in (0..dataset.layout().count()).map(ChunkId) {
                        let read = || ReadChunk {
                            cfg: &cfg,
                            timestep,
                            info: dataset.chunk_info(id),
                        };
                        let (wire, got) = read().shipped();
                        let want = read().cut();
                        let range = want
                            .grid
                            .data
                            .iter()
                            .filter(|v| !v.is_nan())
                            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                                (lo.min(v), hi.max(v))
                            });
                        let at = format!("{grid:?}/{chunks:?} iso {iso} t {timestep} {id:?}");
                        assert_eq!(wire, want.wire_bytes(), "{at}");
                        assert_eq!(got.origin, want.origin, "{at}");
                        if volume::can_cross(range, iso) {
                            cut += 1;
                            assert_eq!(got.grid.dims, want.grid.dims, "{at}");
                            let bits = |p: &ChunkPayload| -> Vec<u32> {
                                p.grid.data.iter().map(|v| v.to_bits()).collect()
                            };
                            assert_eq!(bits(&got), bits(&want), "{at}");
                        } else {
                            headers += 1;
                            assert!(got.is_header(), "{at}");
                            assert_eq!(got.grid.dims.points(), 0, "{at}");
                        }
                    }
                }
            }
        }
        assert!(headers > 0 && cut > 0, "{headers} headers, {cut} cut");
    }

    #[test]
    fn extract_batches_are_the_extract_output_cut_every_tri_batch() {
        // Chunks with and without surface, the second inside everywhere.
        let chunks = [
            ball(24, 9.0, (0, 0, 0)),
            ball(8, 100.0, (30, 0, 0)),
            ball(12, 3.5, (0, 30, 0)),
            ball(24, 10.5, (30, 30, 0)),
            ball(5, 1.2, (60, 0, 0)),
        ];
        let total = cut(&chunks, 1).len();
        assert!(total > 3 * 4096, "{total} triangles");
        for n in [1, 7, 512, 4096] {
            let mut cfg = AppConfig::new(
                Dataset::generate(Dims::new(5, 5, 5), (1, 1, 1), 1, 1),
                vec![HostId(0)],
                1,
                8,
                8,
            );
            cfg.iso = 0.0;
            cfg.tri_batch = n;
            let mut stage = ExtractStage::new(Arc::new(cfg));
            assert_eq!(
                shipped(&mut stage, &chunks),
                cut(&chunks, n),
                "tri_batch {n}"
            );

            // A unit of work cut short leaves nothing in the next one.
            for c in &chunks[..2] {
                stage.extract(c);
            }
            stage.reset();
            let rest = &chunks[2..];
            assert_eq!(shipped(&mut stage, rest), cut(rest, n), "tri_batch {n}");
        }
    }
}
