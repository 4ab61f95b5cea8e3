//! Graph construction for the paper's filter groupings (Figure 3) plus the
//! fully isolated four-stage pipeline used by the baseline experiment
//! (Tables 1–2).

use datacutter::{AppGraph, FilterId, GraphBuilder, Placement, StreamId, WritePolicy};
use hetsim::HostId;

use crate::config::{Algorithm, ConfigError, SharedConfig};
use crate::filters::{AppFilter, ImageSlot, Stage::*};
use crate::payload::BandPools;

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
    /// `RE–Ra–Mt–A`: **tile-owned compositing**, the answer to the merge
    /// bottleneck the paper names in §6 — the merge becomes a parallel
    /// filter group. The image is cut into fixed row-strip tiles
    /// (`cfg.tile_size`); raster copies split every partial result at tile
    /// boundaries and tile-hash-route each fragment to the merge copy set
    /// owning its tile; each merge copy composites only its tiles; a
    /// lightweight assembler (`A`, on `merge_host`) stitches the finished
    /// tiles after end-of-work. Bit-identical to the single-sink merge —
    /// the fold is the same commutative depth test over disjoint regions.
    /// Unlike a sort-first partition of the screen among the raster
    /// copies, it leaves the raster load to the writer policy, so demand
    /// driven routing still balances it over loaded hosts.
    TileComposite {
        /// Placement of the raster copies.
        raster: Placement,
        /// Placement of the merge group; each *host* is one copy set
        /// owning the tiles congruent to its set index.
        merge: Placement,
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
) -> Result<Pipeline, ConfigError> {
    cfg.validate_for(spec.algorithm)?;
    let image: ImageSlot = ImageSlot::default();
    let storage = Placement::one_per_host(&cfg.storage_hosts);
    let merge_at = Placement::on_host(spec.merge_host, 1);

    // Each grouping as rows of (filter, placement, stages it holds), in
    // pipeline order; each row reads the stream from the row before it.
    let rows = match &spec.grouping {
        Grouping::FourStage { extract, raster } => vec![
            ("R", storage, vec![Read]),
            ("E", extract.clone(), vec![Extract]),
            ("Ra", raster.clone(), vec![Raster]),
            ("M", merge_at, vec![Merge]),
        ],
        Grouping::RERaM => vec![
            ("RERa", storage, vec![Read, Extract, Raster]),
            ("M", merge_at, vec![Merge]),
        ],
        Grouping::RERaSplit { raster } => vec![
            ("RE", storage, vec![Read, Extract]),
            ("Ra", raster.clone(), vec![Raster]),
            ("M", merge_at, vec![Merge]),
        ],
        Grouping::TileComposite { raster, merge } => vec![
            ("RE", storage, vec![Read, Extract]),
            ("Ra", raster.clone(), vec![RasterTiles]),
            ("Mt", merge.clone(), vec![MergeTiles]),
            ("A", merge_at, vec![Merge]),
        ],
        Grouping::REraSplit { era } => vec![
            ("R", storage, vec![Read]),
            ("ERa", era.clone(), vec![Extract, Raster]),
            ("M", merge_at, vec![Merge]),
        ],
    };

    let mut g = GraphBuilder::new();
    let (mut filters, mut to_raster, mut to_merge) = (Vec::new(), None, None);
    let mut prev: Option<(FilterId, bool)> = None;
    for (name, placement, stages) in rows {
        let rasters = stages.iter().any(|s| matches!(s, Raster | RasterTiles));
        let merges = stages.iter().any(|s| matches!(s, MergeTiles | Merge));
        let tile_merge = stages.contains(&MergeTiles);
        let (cfg, alg, slot) = (cfg.clone(), spec.algorithm, image.clone());
        let bands = BandPools::default();
        let id = g.add_filter(name, placement, move |info| {
            AppFilter::new(&cfg, &stages, alg, info, &slot, &bands)
        });
        if let Some((from, after_tile_merge)) = prev {
            // The stream into a tile merge is structurally tile-hash:
            // fragments are routed by tile ownership. The one out of it
            // feeds a single-copy assembler, so its policy is nominal.
            let policy = if tile_merge {
                WritePolicy::TileHash
            } else if after_tile_merge {
                WritePolicy::RoundRobin
            } else {
                spec.policy
            };
            let s = g.connect(from, id, policy);
            if rasters && to_raster.is_none() {
                to_raster = Some(s);
            }
            if merges && to_merge.is_none() {
                to_merge = Some(s);
            }
        }
        filters.push(id);
        prev = Some((id, tile_merge));
    }
    let to_merge = to_merge.ok_or(ConfigError {
        field: "grouping",
        constraint: "must end in a merge",
    })?;

    Ok(Pipeline {
        graph: g.build(),
        image,
        to_raster,
        to_merge,
        filters,
    })
}
