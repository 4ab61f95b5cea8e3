//! The application filters (Figure 2(b) of the paper) and their fused
//! groupings (Figure 3): `R`, `E`, `Ra`, `M`, plus `RE`, `ERa`, and `RERa`.

use std::sync::Arc;

use datacutter::{Filter, FilterCtx, FilterError};
use isosurf::Image;
use parking_lot::Mutex;

use crate::config::{Algorithm, SharedConfig};
use crate::parts::{
    ExtractStage, MergeStage, RasterStage, ReadStage, RoutedExtractStage, TileMergeStage,
};
use crate::payload::{ChunkPayload, RaOut, TriBatch};
use crate::tiles::TileSplitter;

/// Shared slot the merge filter deposits final images into (one per unit
/// of work, in UOW order).
pub type ImageSlot = Arc<Mutex<Vec<Image>>>;

// The write helpers wrap payloads through the run's `BufferSlab` and the
// read sites unwrap through it, so in steady state the payload boxes cycle
// producer → consumer → producer with no heap traffic. Payloads go in via
// `make_spillable` (replicable + spill-encodable): runs whose copies can
// die retain replicas, and runs under a memory budget can spill queued
// buffers to the temp-file ring. Without a crash plan or budget this
// costs nothing over `make`.

fn write_chunk(ctx: &mut FilterCtx, p: ChunkPayload) {
    let wire = p.wire_bytes();
    let buf = ctx.buffer_slab().make_spillable(p, wire);
    ctx.write(0, buf);
}

fn write_tris(ctx: &mut FilterCtx, b: TriBatch) {
    let wire = b.wire_bytes();
    let buf = ctx.buffer_slab().make_spillable(b, wire);
    ctx.write(0, buf);
}

fn write_raout(ctx: &mut FilterCtx, r: RaOut) {
    let wire = r.wire_bytes();
    let buf = ctx.buffer_slab().make_spillable(r, wire);
    ctx.write(0, buf);
}

/// **R** — reads this node's declustered chunks and streams voxel buffers.
pub struct ReadFilter {
    pub(crate) stage: ReadStage,
}

impl ReadFilter {
    /// `node_index` selects which storage node's files this copy serves.
    pub fn new(cfg: SharedConfig, node_index: usize) -> Self {
        ReadFilter {
            stage: ReadStage { cfg, node_index },
        }
    }
}

impl Filter for ReadFilter {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        self.stage
            .run(ctx, |ctx, chunk| write_chunk(ctx, chunk.cut()));
        Ok(())
    }
}

/// **E** — marching-cubes extraction of voxel buffers into triangle
/// batches.
pub struct ExtractFilter {
    stage: ExtractStage,
}

impl ExtractFilter {
    /// Build from shared config.
    pub fn new(cfg: SharedConfig) -> Self {
        ExtractFilter {
            stage: ExtractStage::new(cfg),
        }
    }
}

impl Filter for ExtractFilter {
    fn init(&mut self, _ctx: &mut FilterCtx) {
        self.stage.reset();
    }

    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        // Under a crash plan the copy may be killed between reads; any
        // triangles batched across chunks would die with it. Flush per
        // chunk so a killed copy has emitted everything its consumed
        // chunks produce; a chunk that comes back from retention is then
        // merely drawn twice, which the z-buffer absorbs.
        let per_chunk = ctx.fail_stop_active();
        while let Some(b) = ctx.read(0) {
            let chunk = ctx
                .buffer_slab()
                .recycle_ctx::<ChunkPayload>(b, "E filter input");
            self.stage.feed(ctx, chunk, write_tris);
            if per_chunk {
                self.stage.flush(ctx, write_tris);
            }
        }
        self.stage.flush(ctx, write_tris);
        Ok(())
    }
}

/// **Ra** — transforms, projects, clips, shades, and resolves hidden
/// surfaces with the configured algorithm. Under image partitioning the
/// copy set owns one horizontal band of the screen.
pub struct RasterFilter {
    cfg: SharedConfig,
    alg: Algorithm,
    scissor: Option<(u32, u32)>,
    stage: Option<RasterStage>,
}

impl RasterFilter {
    /// Build for the given algorithm (image-replicated: every copy sees
    /// the whole screen).
    pub fn new(cfg: SharedConfig, alg: Algorithm) -> Self {
        RasterFilter {
            cfg,
            alg,
            scissor: None,
            stage: None,
        }
    }

    /// Build a copy owning only image rows `[band.0, band.1)`.
    pub fn partitioned(cfg: SharedConfig, alg: Algorithm, band: (u32, u32)) -> Self {
        RasterFilter {
            cfg,
            alg,
            scissor: Some(band),
            stage: None,
        }
    }
}

impl Filter for RasterFilter {
    fn init(&mut self, _ctx: &mut FilterCtx) {
        // The z-buffer / WPA is allocated in init, per the paper.
        self.stage = Some(RasterStage::with_scissor(self.alg, &self.cfg, self.scissor));
    }

    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        let stage = self.stage.as_mut().expect("init ran");
        while let Some(b) = ctx.read(0) {
            let batch = ctx
                .buffer_slab()
                .recycle_ctx::<TriBatch>(b, "Ra filter input");
            stage.feed(&self.cfg, ctx, batch, write_raout);
        }
        stage.finish(&self.cfg, ctx, write_raout);
        Ok(())
    }

    fn finalize(&mut self, _ctx: &mut FilterCtx) {
        self.stage = None;
    }
}

/// **Ra/t** — [`RasterFilter`] for the tile-composite group: every
/// outgoing partial result is cut at tile boundaries by a [`TileSplitter`]
/// and routed to the merge copy set owning its tile via
/// `FilterCtx::write_tile` over a tile-hash stream.
pub struct TiledRasterFilter {
    cfg: SharedConfig,
    alg: Algorithm,
    stage: Option<RasterStage>,
    splitter: TileSplitter,
}

impl TiledRasterFilter {
    /// Build for the given algorithm; tiling comes from `cfg.tile_rows()`.
    pub fn new(cfg: SharedConfig, alg: Algorithm) -> Self {
        let splitter = TileSplitter::new(cfg.tile_rows(), cfg.n_tiles());
        TiledRasterFilter {
            cfg,
            alg,
            stage: None,
            splitter,
        }
    }
}

fn write_tile_raout(ctx: &mut FilterCtx, tile: u32, r: RaOut) {
    let wire = r.wire_bytes();
    let buf = ctx.buffer_slab().make_spillable(r, wire);
    ctx.write_tile(0, tile as u64, buf);
}

impl Filter for TiledRasterFilter {
    fn init(&mut self, _ctx: &mut FilterCtx) {
        self.stage = Some(RasterStage::new(self.alg, &self.cfg));
    }

    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        let Self {
            cfg,
            stage,
            splitter,
            ..
        } = self;
        let stage = stage.as_mut().expect("init ran");
        let mut sink = |ctx: &mut FilterCtx, r: RaOut| {
            splitter.split(r, |tile, frag| write_tile_raout(ctx, tile, frag));
        };
        while let Some(b) = ctx.read(0) {
            let batch = ctx
                .buffer_slab()
                .recycle_ctx::<TriBatch>(b, "Ra filter input");
            stage.feed(cfg, ctx, batch, &mut sink);
        }
        stage.finish(cfg, ctx, &mut sink);
        Ok(())
    }

    fn finalize(&mut self, _ctx: &mut FilterCtx) {
        self.stage = None;
    }
}

/// **Mt** — one copy of the parallel merge group: composites the tiles it
/// owns (any tile it receives — ownership is enforced by the producer's
/// tile-hash routing, and the fold is commutative, so fault-time rerouting
/// composites correctly anywhere) and ships the finished tiles to the
/// assembler once its input hits end-of-work.
pub struct TileMergeFilter {
    cfg: SharedConfig,
    stage: Option<TileMergeStage>,
}

impl TileMergeFilter {
    /// Build over the shared config's tiling.
    pub fn new(cfg: SharedConfig) -> Self {
        TileMergeFilter { cfg, stage: None }
    }
}

impl Filter for TileMergeFilter {
    fn init(&mut self, _ctx: &mut FilterCtx) {
        self.stage = Some(TileMergeStage::new(self.cfg.clone()));
    }

    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        let stage = self.stage.as_mut().expect("init ran");
        while let Some(b) = ctx.read(0) {
            let out = ctx.buffer_slab().recycle_ctx::<RaOut>(b, "Mt filter input");
            stage.feed(ctx, out);
        }
        // The read loop drained to end-of-work: every fragment for this
        // copy's tiles has been folded, so the composited tiles are final
        // and can travel to the assembler.
        stage.finish(ctx, write_raout);
        Ok(())
    }

    fn finalize(&mut self, _ctx: &mut FilterCtx) {
        self.stage = None;
    }
}

/// **M** — composites partial results into the final image (always a
/// single copy, per the paper).
pub struct MergeFilter {
    stage: Option<MergeStage>,
    cfg: SharedConfig,
    slot: ImageSlot,
}

impl MergeFilter {
    /// The final image is deposited into `slot` at finalize.
    pub fn new(cfg: SharedConfig, slot: ImageSlot) -> Self {
        MergeFilter {
            stage: None,
            cfg,
            slot,
        }
    }
}

impl Filter for MergeFilter {
    fn init(&mut self, _ctx: &mut FilterCtx) {
        self.stage = Some(MergeStage::new(self.cfg.clone()));
    }

    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        let stage = self.stage.as_mut().expect("init ran");
        while let Some(b) = ctx.read(0) {
            let out = ctx.buffer_slab().recycle_ctx::<RaOut>(b, "M filter input");
            stage.feed(ctx, out);
        }
        Ok(())
    }

    fn finalize(&mut self, _ctx: &mut FilterCtx) {
        if let Some(stage) = self.stage.take() {
            self.slot.lock().push(stage.image());
        }
    }
}

/// **RE** — fused read + extract (the paper's best-performing grouping
/// pairs this with separate `Ra`). Like every grouping that fuses the two,
/// it never cuts a chunk the isosurface cannot cross.
pub struct ReadExtractFilter {
    read: ReadStage,
    extract: ExtractStage,
}

impl ReadExtractFilter {
    /// `node_index` selects the storage node this copy serves.
    pub fn new(cfg: SharedConfig, node_index: usize) -> Self {
        ReadExtractFilter {
            read: ReadStage {
                cfg: cfg.clone(),
                node_index,
            },
            extract: ExtractStage::new(cfg),
        }
    }
}

impl Filter for ReadExtractFilter {
    fn init(&mut self, _ctx: &mut FilterCtx) {
        self.extract.reset();
    }

    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        let extract = &mut self.extract;
        self.read.run(ctx, |ctx, chunk| {
            if let Some(chunk) = chunk.cut_crossing(ctx) {
                extract.feed(ctx, chunk, write_tris);
            }
        });
        extract.flush(ctx, write_tris);
        Ok(())
    }
}

/// **REp** — read + extract with screen-space routing: each triangle batch
/// is addressed (via targeted writes) to the raster copy set owning the
/// image band it falls in. The image-partitioned configuration from the
/// paper's §6 future work.
pub struct PartitionedReadExtractFilter {
    read: ReadStage,
    extract: RoutedExtractStage,
}

impl PartitionedReadExtractFilter {
    /// `node_index` selects the storage node; `bands` are the raster copy
    /// sets' image bands, indexed by copy-set index.
    pub fn new(cfg: SharedConfig, node_index: usize, bands: Vec<(u32, u32)>) -> Self {
        PartitionedReadExtractFilter {
            read: ReadStage {
                cfg: cfg.clone(),
                node_index,
            },
            extract: RoutedExtractStage::new(cfg, bands),
        }
    }
}

impl Filter for PartitionedReadExtractFilter {
    fn init(&mut self, _ctx: &mut FilterCtx) {
        self.extract.reset();
    }

    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        let extract = &mut self.extract;
        let route = |ctx: &mut FilterCtx, band: usize, b: TriBatch| {
            let wire = b.wire_bytes();
            let buf = ctx.buffer_slab().make_spillable(b, wire);
            ctx.write_to(0, band, buf);
        };
        self.read.run(ctx, |ctx, chunk| {
            if let Some(chunk) = chunk.cut_crossing(ctx) {
                extract.feed(ctx, chunk, route);
            }
        });
        extract.flush(ctx, route);
        Ok(())
    }
}

/// **ERa** — fused extract + raster.
pub struct ExtractRasterFilter {
    cfg: SharedConfig,
    alg: Algorithm,
    extract: ExtractStage,
    raster: Option<RasterStage>,
}

impl ExtractRasterFilter {
    /// Build for the given algorithm.
    pub fn new(cfg: SharedConfig, alg: Algorithm) -> Self {
        ExtractRasterFilter {
            extract: ExtractStage::new(cfg.clone()),
            cfg,
            alg,
            raster: None,
        }
    }
}

impl Filter for ExtractRasterFilter {
    fn init(&mut self, _ctx: &mut FilterCtx) {
        self.extract.reset();
        self.raster = Some(RasterStage::new(self.alg, &self.cfg));
    }

    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        let raster = self.raster.as_mut().expect("init ran");
        let extract = &mut self.extract;
        let cfg = &self.cfg;
        while let Some(b) = ctx.read(0) {
            let chunk = ctx
                .buffer_slab()
                .recycle_ctx::<ChunkPayload>(b, "ERa filter input");
            extract.feed(ctx, chunk, |ctx, tris| {
                raster.feed(cfg, ctx, tris, write_raout);
            });
        }
        extract.flush(ctx, |ctx, tris| {
            raster.feed(cfg, ctx, tris, write_raout);
        });
        raster.finish(cfg, ctx, write_raout);
        Ok(())
    }
}

/// **RERa** — fully fused read + extract + raster (SPMD-like; only the
/// merge remains separate).
pub struct ReadExtractRasterFilter {
    cfg: SharedConfig,
    alg: Algorithm,
    read: ReadStage,
    extract: ExtractStage,
    raster: Option<RasterStage>,
}

impl ReadExtractRasterFilter {
    /// `node_index` selects the storage node this copy serves.
    pub fn new(cfg: SharedConfig, alg: Algorithm, node_index: usize) -> Self {
        ReadExtractRasterFilter {
            read: ReadStage {
                cfg: cfg.clone(),
                node_index,
            },
            extract: ExtractStage::new(cfg.clone()),
            cfg,
            alg,
            raster: None,
        }
    }
}

impl Filter for ReadExtractRasterFilter {
    fn init(&mut self, _ctx: &mut FilterCtx) {
        self.extract.reset();
        self.raster = Some(RasterStage::new(self.alg, &self.cfg));
    }

    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        let raster = self.raster.as_mut().expect("init ran");
        let extract = &mut self.extract;
        let cfg = &self.cfg;
        self.read.run(ctx, |ctx, chunk| {
            if let Some(chunk) = chunk.cut_crossing(ctx) {
                extract.feed(ctx, chunk, |ctx, tris| {
                    raster.feed(cfg, ctx, tris, write_raout);
                });
            }
        });
        extract.flush(ctx, |ctx, tris| {
            raster.feed(cfg, ctx, tris, write_raout);
        });
        raster.finish(cfg, ctx, write_raout);
        Ok(())
    }
}
