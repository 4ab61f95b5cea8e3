//! Graph construction for the paper's filter groupings (Figure 3) plus the
//! fully isolated four-stage pipeline used by the baseline experiment
//! (Tables 1–2).

use datacutter::{AppGraph, FilterId, GraphBuilder, Placement, StreamId, WritePolicy};
use hetsim::HostId;

use crate::config::{Algorithm, SharedConfig};
use crate::filters::{
    ExtractFilter, ExtractRasterFilter, ImageSlot, MergeFilter, PartitionedReadExtractFilter,
    RasterFilter, ReadExtractFilter, ReadExtractRasterFilter, ReadFilter, TileMergeFilter,
    TiledRasterFilter,
};

/// How the application is decomposed into filters.
#[derive(Debug, Clone)]
pub enum Grouping {
    /// `R–E–Ra–M`: every stage isolated (the paper's baseline experiment;
    /// each placement names where the stage runs).
    FourStage {
        /// Placement of the extract filter.
        extract: Placement,
        /// Placement of the raster filter.
        raster: Placement,
    },
    /// `RERa–M`: read+extract+raster fused on the storage nodes.
    RERaM,
    /// `RE–Ra–M`: read+extract on storage nodes, raster placed separately.
    RERaSplit {
        /// Placement of the raster copies.
        raster: Placement,
    },
    /// `R–ERa–M`: read alone on storage nodes, extract+raster placed
    /// separately.
    REraSplit {
        /// Placement of the extract+raster copies.
        era: Placement,
    },
    /// `RE–Ra–Mt–A`: **tile-owned compositing** — the merge becomes a
    /// parallel filter group. The image is cut into fixed row-strip tiles
    /// (`cfg.tile_size`); raster copies split every partial result at tile
    /// boundaries and tile-hash-route each fragment to the merge copy set
    /// owning its tile; each merge copy composites only its tiles; a
    /// lightweight assembler (`A`, on `merge_host`) stitches the finished
    /// tiles after end-of-work. Bit-identical to the single-sink merge —
    /// the fold is the same commutative depth test over disjoint regions.
    TileComposite {
        /// Placement of the raster copies.
        raster: Placement,
        /// Placement of the merge group; each *host* is one copy set
        /// owning the tiles congruent to its set index.
        merge: Placement,
    },
    /// `RE–Ra–M` with **image partitioning** (the paper's §6 alternative):
    /// each raster copy set owns one horizontal band of the screen;
    /// triangle batches are routed to the owning set, so the merge filter
    /// only concatenates disjoint regions instead of depth-resolving
    /// overlaps. Sensitive to screen-space load imbalance.
    ImagePartitioned {
        /// Placement of the raster copies; each *host* owns one band.
        raster: Placement,
    },
}

impl Grouping {
    /// Display label matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Grouping::FourStage { .. } => "R-E-Ra-M",
            Grouping::RERaM => "RERa-M",
            Grouping::RERaSplit { .. } => "RE-Ra-M",
            Grouping::REraSplit { .. } => "R-ERa-M",
            Grouping::ImagePartitioned { .. } => "RE-Ra-M/part",
            Grouping::TileComposite { .. } => "RE-Ra-Mt-A",
        }
    }
}

/// A fully specified pipeline instance.
pub struct PipelineSpec {
    /// Filter grouping and compute placement.
    pub grouping: Grouping,
    /// Hidden-surface removal algorithm.
    pub algorithm: Algorithm,
    /// Writer policy on the inter-filter data streams.
    pub policy: WritePolicy,
    /// Host running the single merge copy.
    pub merge_host: HostId,
}

/// Handles returned with a built graph, for running and inspecting it.
pub struct Pipeline {
    /// The application graph, ready for `datacutter::Run`.
    pub graph: AppGraph,
    /// Where the merge filter deposits the final image.
    pub image: ImageSlot,
    /// The stream feeding the raster stage (`E→Ra` or `R→ERa`), if the
    /// grouping has one — the stream the paper's Table 3 instruments.
    pub to_raster: Option<StreamId>,
    /// The stream into the merge filter.
    pub to_merge: StreamId,
    /// Filter ids in pipeline order (for per-filter metrics).
    pub filters: Vec<FilterId>,
}

/// Build the graph for `spec` over `cfg`'s dataset and storage hosts.
///
/// Read-side filters (R, RE, or RERa) always run one copy per storage
/// host, since they must sit with the data.
///
/// # Panics
///
/// On a config that fails [`AppConfig::validate`](crate::config::AppConfig::validate) —
/// use [`try_build_pipeline`] to handle the [`ConfigError`] instead.
pub fn build_pipeline(cfg: &SharedConfig, spec: &PipelineSpec) -> Pipeline {
    match try_build_pipeline(cfg, spec) {
        Ok(p) => p,
        Err(e) => panic!("{e}"),
    }
}

/// [`build_pipeline`] with construction-time config validation: every
/// sizing knob is checked before any filter factory runs, so a zero-sized
/// batch, an empty storage set or an image too large for the chosen
/// algorithm is a structured [`ConfigError`] here rather than a panic, a
/// hang or a wrong picture mid-run.
pub fn try_build_pipeline(
    cfg: &SharedConfig,
    spec: &PipelineSpec,
) -> Result<Pipeline, crate::config::ConfigError> {
    cfg.validate_for(spec.algorithm)?;
    let image: ImageSlot = ImageSlot::default();
    let storage = Placement::one_per_host(&cfg.storage_hosts);
    let mut g = GraphBuilder::new();
    let alg = spec.algorithm;

    // The read-side copy on storage host k serves storage node k. With one
    // copy per host in placement order, copy_index == node index.
    let mk_read_index = |info: datacutter::CopyInfo| info.copy_index;

    let (filters, to_raster, to_merge) = match &spec.grouping {
        Grouping::FourStage { extract, raster } => {
            let cfg2 = cfg.clone();
            let r = g.add_filter("R", storage, move |info| {
                ReadFilter::new(cfg2.clone(), mk_read_index(info))
            });
            let cfg2 = cfg.clone();
            let e = g.add_filter("E", extract.clone(), move |_| {
                ExtractFilter::new(cfg2.clone())
            });
            let cfg2 = cfg.clone();
            let ra = g.add_filter("Ra", raster.clone(), move |_| {
                RasterFilter::new(cfg2.clone(), alg)
            });
            let cfg2 = cfg.clone();
            let slot = image.clone();
            let m = g.add_filter("M", Placement::on_host(spec.merge_host, 1), move |_| {
                MergeFilter::new(cfg2.clone(), slot.clone())
            });
            g.connect(r, e, spec.policy);
            let s_ra = g.connect(e, ra, spec.policy);
            let s_m = g.connect(ra, m, spec.policy);
            (vec![r, e, ra, m], Some(s_ra), s_m)
        }
        Grouping::RERaM => {
            let cfg2 = cfg.clone();
            let rera = g.add_filter("RERa", storage, move |info| {
                ReadExtractRasterFilter::new(cfg2.clone(), alg, mk_read_index(info))
            });
            let cfg2 = cfg.clone();
            let slot = image.clone();
            let m = g.add_filter("M", Placement::on_host(spec.merge_host, 1), move |_| {
                MergeFilter::new(cfg2.clone(), slot.clone())
            });
            let s_m = g.connect(rera, m, spec.policy);
            (vec![rera, m], None, s_m)
        }
        Grouping::RERaSplit { raster } => {
            let cfg2 = cfg.clone();
            let re = g.add_filter("RE", storage, move |info| {
                ReadExtractFilter::new(cfg2.clone(), mk_read_index(info))
            });
            let cfg2 = cfg.clone();
            let ra = g.add_filter("Ra", raster.clone(), move |_| {
                RasterFilter::new(cfg2.clone(), alg)
            });
            let cfg2 = cfg.clone();
            let slot = image.clone();
            let m = g.add_filter("M", Placement::on_host(spec.merge_host, 1), move |_| {
                MergeFilter::new(cfg2.clone(), slot.clone())
            });
            let s_ra = g.connect(re, ra, spec.policy);
            let s_m = g.connect(ra, m, spec.policy);
            (vec![re, ra, m], Some(s_ra), s_m)
        }
        Grouping::ImagePartitioned { raster } => {
            let bands = crate::parts::split_bands(cfg.camera.height, raster.per_host.len());
            let cfg2 = cfg.clone();
            let bands2 = bands.clone();
            let re = g.add_filter("REp", storage, move |info| {
                PartitionedReadExtractFilter::new(cfg2.clone(), mk_read_index(info), bands2.clone())
            });
            let cfg2 = cfg.clone();
            let ra = g.add_filter("Ra", raster.clone(), move |info| {
                RasterFilter::partitioned(cfg2.clone(), alg, bands[info.copyset_index])
            });
            let cfg2 = cfg.clone();
            let slot = image.clone();
            let m = g.add_filter("M", Placement::on_host(spec.merge_host, 1), move |_| {
                MergeFilter::new(cfg2.clone(), slot.clone())
            });
            // The policy on the RE->Ra stream is nominal: routing happens
            // via targeted writes.
            let s_ra = g.connect(re, ra, spec.policy);
            let s_m = g.connect(ra, m, spec.policy);
            (vec![re, ra, m], Some(s_ra), s_m)
        }
        Grouping::TileComposite { raster, merge } => {
            let cfg2 = cfg.clone();
            let re = g.add_filter("RE", storage, move |info| {
                ReadExtractFilter::new(cfg2.clone(), mk_read_index(info))
            });
            let cfg2 = cfg.clone();
            let ra = g.add_filter("Ra", raster.clone(), move |_| {
                TiledRasterFilter::new(cfg2.clone(), alg)
            });
            let cfg2 = cfg.clone();
            let mt = g.add_filter("Mt", merge.clone(), move |_| {
                TileMergeFilter::new(cfg2.clone())
            });
            let cfg2 = cfg.clone();
            let slot = image.clone();
            let a = g.add_filter("A", Placement::on_host(spec.merge_host, 1), move |_| {
                MergeFilter::new(cfg2.clone(), slot.clone())
            });
            let s_ra = g.connect(re, ra, spec.policy);
            // The merge-group stream is structurally tile-hash: fragments
            // are routed by tile ownership, not by the spec policy.
            let s_m = g.connect(ra, mt, WritePolicy::TileHash);
            // One single-copy assembler set: policy is nominal.
            g.connect(mt, a, WritePolicy::RoundRobin);
            (vec![re, ra, mt, a], Some(s_ra), s_m)
        }
        Grouping::REraSplit { era } => {
            let cfg2 = cfg.clone();
            let r = g.add_filter("R", storage, move |info| {
                ReadFilter::new(cfg2.clone(), mk_read_index(info))
            });
            let cfg2 = cfg.clone();
            let era_f = g.add_filter("ERa", era.clone(), move |_| {
                ExtractRasterFilter::new(cfg2.clone(), alg)
            });
            let cfg2 = cfg.clone();
            let slot = image.clone();
            let m = g.add_filter("M", Placement::on_host(spec.merge_host, 1), move |_| {
                MergeFilter::new(cfg2.clone(), slot.clone())
            });
            let s_ra = g.connect(r, era_f, spec.policy);
            let s_m = g.connect(era_f, m, spec.policy);
            (vec![r, era_f, m], Some(s_ra), s_m)
        }
    };

    Ok(Pipeline {
        graph: g.build(),
        image,
        to_raster,
        to_merge,
        filters,
    })
}
