//! The application filter (Figure 2(b) of the paper) and its fused
//! groupings (Figure 3). `R`, `RE`, `ERa`, `RERa` and the rest are one
//! decomposition, `R → E → Ra → M`, cut into filters at different points,
//! so there is one filter: a copy holds the [`Stage`]s its grouping fuses
//! and runs them in order, each feeding the next, and ships what the last
//! one emits on output port 0.

use std::any::Any;
use std::sync::Arc;

use datacutter::{CopyInfo, Filter, FilterCtx, FilterError, SpillCodec};
use isosurf::Image;
use parking_lot::Mutex;

use crate::config::{Algorithm, SharedConfig};
use crate::parts::{
    received_chunk_crosses, ExtractStage, MergeStage, RasterStage, ReadStage, TileMergeStage,
};
use crate::payload::{BandPools, ChunkPayload, RaOut, TriBatch};
use crate::tiles::TileSplitter;

/// Shared slot the merge filter deposits final images into (one per unit
/// of work, in UOW order).
pub type ImageSlot = Arc<Mutex<Vec<Image>>>;

/// One stage a filter of a grouping holds. A filter lists its stages in
/// pipeline order: `[Read, Extract, Raster]` is the paper's `RERa`.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Stage {
    /// Read the copy's storage node (copy `k`, on storage host `k`, serves
    /// node `k`). A filter without it reads port 0.
    Read,
    /// Marching-cubes extraction into triangle batches.
    Extract,
    /// Raster the whole image (image replication, the paper's default).
    Raster,
    /// Raster the whole image, cutting the output at tile boundaries for
    /// the merge copy set owning each tile.
    RasterTiles,
    /// Composite the tiles this copy of the merge group owns.
    MergeTiles,
    /// Composite the final image into the pipeline's [`ImageSlot`].
    Merge,
}

/// A copy's merge accumulator.
enum Merge {
    Tiles(TileMergeStage),
    Image(MergeStage),
}

/// One copy of the application filter.
pub(crate) struct AppFilter {
    read: Option<ReadStage>,
    extract: Option<ExtractStage>,
    tail: Tail,
}

/// The stages after extract in one copy. The raster and merge
/// accumulators are built with the copy and reset in `init`, so the
/// buffers one unit of work pooled serve the next.
struct Tail {
    cfg: SharedConfig,
    tiles: Option<TileSplitter>,
    slot: ImageSlot,
    raster: Option<RasterStage>,
    merge: Option<Merge>,
}

impl AppFilter {
    /// Copy `info` of a filter holding `stages`. A raster stage ships its
    /// z-buffer bands from `bands`, the pools every copy of the filter
    /// shares.
    pub fn new(
        cfg: &SharedConfig,
        stages: &[Stage],
        alg: Algorithm,
        info: CopyInfo,
        slot: &ImageSlot,
        bands: &BandPools,
    ) -> Self {
        let (mut read, mut extract) = (None, None);
        let mut tail = Tail {
            cfg: cfg.clone(),
            tiles: None,
            slot: slot.clone(),
            raster: None,
            merge: None,
        };
        for &stage in stages {
            match stage {
                Stage::Read => {
                    read = Some(ReadStage {
                        cfg: cfg.clone(),
                        node_index: info.copy_index,
                    })
                }
                Stage::Extract => extract = Some(ExtractStage::new(cfg.clone())),
                Stage::Raster => tail.raster = Some(RasterStage::new(alg, cfg, bands)),
                Stage::RasterTiles => {
                    tail.raster = Some(RasterStage::new(alg, cfg, bands));
                    tail.tiles = Some(TileSplitter::new(cfg.tile_rows(), cfg.n_tiles()));
                }
                Stage::MergeTiles => {
                    tail.merge = Some(Merge::Tiles(TileMergeStage::new(cfg.clone())))
                }
                Stage::Merge => tail.merge = Some(Merge::Image(MergeStage::new(cfg.clone()))),
            }
        }
        AppFilter {
            read,
            extract,
            tail,
        }
    }
}

impl Filter for AppFilter {
    fn init(&mut self, _ctx: &mut FilterCtx) {
        if let Some(e) = &mut self.extract {
            e.reset();
        }
        let t = &mut self.tail;
        if let Some(r) = &mut t.raster {
            r.reset();
        }
        // A tile merge shipped every tile it opened at its last end of
        // work; the final merge starts on an empty image.
        if let Some(Merge::Image(m)) = &mut t.merge {
            m.reset();
        }
    }

    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        let AppFilter {
            read,
            extract,
            tail,
        } = self;
        if let Some(read) = read {
            read.run(ctx, |ctx, chunk| match extract {
                // A fused extract never cuts a chunk the isosurface
                // cannot cross.
                Some(e) => {
                    if let Some(chunk) = chunk.cut_crossing(ctx) {
                        e.feed(ctx, chunk, |ctx, b| tail.tris(ctx, b));
                    }
                }
                // The split `R` ships a chunk the isosurface cannot cross
                // as a header, declaring the chunk's wire size.
                None => {
                    let (wire, chunk) = chunk.shipped();
                    ship(ctx, To::Policy, wire, chunk);
                }
            });
        } else {
            // Under a crash plan a lone `E` copy may be killed between
            // reads, and any triangles batched across chunks would die
            // with it. So it flushes per chunk: a killed copy has then
            // emitted everything its consumed chunks produce, and a chunk
            // that comes back from retention is merely drawn twice, which
            // the z-buffer absorbs. A fused `ERa` does not flush per chunk.
            let per_chunk = extract.is_some() && tail.raster.is_none() && ctx.fail_stop_active();
            while let Some(b) = ctx.read(0) {
                let slab = ctx.buffer_slab();
                if let Some(e) = extract.as_mut() {
                    let chunk = slab.recycle_ctx::<ChunkPayload>(b, "E filter input");
                    // The fused extract's skip rule, by the chunk's origin.
                    if received_chunk_crosses(&tail.cfg, ctx, &chunk)? {
                        e.feed(ctx, chunk, |ctx, b| tail.tris(ctx, b));
                    }
                    if per_chunk {
                        e.flush(ctx, |ctx, b| tail.tris(ctx, b));
                    }
                } else if tail.raster.is_some() {
                    let batch = slab.recycle_ctx::<TriBatch>(b, "Ra filter input");
                    tail.tris(ctx, batch);
                } else {
                    let out = slab.recycle_ctx::<RaOut>(b, "M filter input");
                    raout(&mut tail.tiles, &mut tail.merge, ctx, out);
                }
            }
        }
        // End-of-work: each stage flushes into the next.
        if let Some(e) = extract {
            e.flush(ctx, |ctx, b| tail.tris(ctx, b));
        }
        tail.finish(ctx);
        Ok(())
    }

    fn finalize(&mut self, _ctx: &mut FilterCtx) {
        let t = &self.tail;
        if let Some(Merge::Image(m)) = &t.merge {
            t.slot.lock().push(m.image());
        }
    }
}

impl Tail {
    /// Raster a triangle batch here, or ship it.
    fn tris(&mut self, ctx: &mut FilterCtx, b: TriBatch) {
        let Tail {
            cfg,
            raster,
            tiles,
            merge,
            ..
        } = self;
        match raster {
            Some(r) => r.feed(cfg, ctx, b, |ctx, out| raout(tiles, merge, ctx, out)),
            None => ship(ctx, To::Policy, b.wire_bytes(), b),
        }
    }

    /// End-of-work for the raster and merge stages: the raster ships what
    /// it holds, and a tile merge ships its composited tiles — its input
    /// has drained, so every fragment for its tiles has been folded. The
    /// final merge keeps its image for `finalize`.
    fn finish(&mut self, ctx: &mut FilterCtx) {
        let Tail {
            cfg,
            raster,
            tiles,
            merge,
            ..
        } = self;
        if let Some(r) = raster {
            r.finish(cfg, ctx, |ctx, out| raout(tiles, merge, ctx, out));
        }
        if let Some(Merge::Tiles(m)) = merge {
            m.finish(ctx, |ctx, out| ship(ctx, To::Policy, out.wire_bytes(), out));
        }
    }
}

/// A partial result into a fused merge; otherwise shipped, one fragment
/// per tile when the raster output is tiled.
fn raout(
    tiles: &mut Option<TileSplitter>,
    merge: &mut Option<Merge>,
    ctx: &mut FilterCtx,
    out: RaOut,
) {
    match (merge, tiles) {
        (Some(Merge::Tiles(m)), _) => m.feed(ctx, out),
        (Some(Merge::Image(m)), _) => m.feed(ctx, out),
        (None, Some(t)) => t.split(out, |tile, frag| {
            ship(ctx, To::Tile(tile), frag.wire_bytes(), frag);
        }),
        (None, None) => ship(ctx, To::Policy, out.wire_bytes(), out),
    }
}

/// Where [`ship`] sends a payload on output port 0.
enum To {
    /// Where the stream's writer policy picks.
    Policy,
    /// To the copy set owning this tile (a tile-hash stream).
    Tile(u32),
}

/// Write `payload` on output port 0. Payloads are wrapped through the
/// run's `BufferSlab` and the read sites unwrap through it, so in steady
/// state the payload boxes cycle producer → consumer → producer with no
/// heap traffic. Every buffer can be replicated and spill-encoded: runs
/// whose copies can die retain replicas, and runs under a memory budget
/// can spill queued buffers to the temp-file ring. Without a crash plan
/// or budget neither costs anything.
fn ship<T: Any + Send + Clone + SpillCodec>(ctx: &mut FilterCtx, to: To, wire: u64, payload: T) {
    let buf = ctx.buffer_slab().make(payload, wire);
    match to {
        To::Policy => ctx.write(0, buf),
        To::Tile(tile) => ctx.write_tile(0, tile as u64, buf),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AppConfig;
    use datacutter::{
        ExecutorChoice, GraphBuilder, NativeExecutor, Placement, Run, RunError, SimExecutor,
        WritePolicy,
    };
    use volume::{ChunkId, Dataset, Dims};

    /// A read filter that ships every chunk as a header declaring the
    /// chunk's size, crossing or not: a split `R` that skips wrongly.
    struct HeadersOnly(SharedConfig);

    impl Filter for HeadersOnly {
        fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
            let ds = &self.0.dataset;
            for id in (0..ds.layout().count()).map(ChunkId) {
                let header = ChunkPayload::header(ds.chunk_info(id).cell_origin);
                ship(ctx, To::Policy, ds.chunk_bytes(id), header);
            }
            Ok(())
        }
    }

    #[test]
    fn extract_refuses_a_header_the_surface_can_cross() {
        let (topo, hosts) = hetsim::presets::rogue_cluster(1);
        let mut cfg = AppConfig::new(
            Dataset::generate(Dims::new(17, 17, 17), (2, 2, 2), 4, 7),
            hosts.clone(),
            1,
            32,
            32,
        );
        let field = cfg.dataset.field(0, 0);
        let (lo, hi) = field
            .data
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        cfg.iso = (lo + hi) / 2.0;
        let cfg: SharedConfig = Arc::new(cfg);
        assert!((0..8).any(|i| cfg.dataset.can_cross(0, 0, ChunkId(i), cfg.iso)));

        let execs: [ExecutorChoice; 2] = [SimExecutor::new().into(), NativeExecutor::new().into()];
        for exec in execs {
            let mut g = GraphBuilder::new();
            let read_cfg = cfg.clone();
            let r = g.add_filter("R", Placement::on_host(hosts[0], 1), move |_| {
                HeadersOnly(read_cfg.clone())
            });
            let (era_cfg, slot, bands) = (cfg.clone(), ImageSlot::default(), BandPools::default());
            let e = g.add_filter("ERaM", Placement::on_host(hosts[0], 1), move |info| {
                let stages = [Stage::Extract, Stage::Raster, Stage::Merge];
                AppFilter::new(&era_cfg, &stages, Algorithm::ZBuffer, info, &slot, &bands)
            });
            g.connect(r, e, WritePolicy::RoundRobin);
            match Run::new(g.build()).executor(exec).go(&topo) {
                Err(RunError::Filter {
                    filter, message, ..
                }) => {
                    assert_eq!(filter, "ERaM");
                    assert!(message.contains("header"), "{message}");
                }
                Err(e) => panic!("the run failed otherwise: {e:?}"),
                Ok(_) => panic!("a header the surface can cross was drawn as nothing"),
            }
        }
    }
}
