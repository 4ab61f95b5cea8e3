//! Application configuration: dataset binding, viewing parameters, buffer
//! sizing, and the compute cost model.

use std::sync::Arc;

use hetsim::{HostId, SimDuration};
use isosurf::{Camera, Material};
use volume::{ChunkId, Dataset, FileId, FilePlacement};

/// Per-operation CPU costs (reference-speed seconds), chosen so the filter
/// time ratios match the paper's Table 2 at our dataset scale: the raster
/// filter dominates, extract is second, read and merge are light.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Per input byte handled by the read filter (deserialize + copy).
    pub read_per_byte: f64,
    /// Per cell scanned by marching cubes.
    pub extract_per_cell: f64,
    /// Per triangle generated by extraction.
    pub extract_per_tri: f64,
    /// Per triangle transformed/projected/set-up by the raster filter.
    pub raster_per_tri: f64,
    /// Per pixel generated (shaded + depth-tested).
    pub raster_per_pixel: f64,
    /// Per z-buffer / WPA entry folded by the merge filter.
    pub merge_per_entry: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            read_per_byte: 1.0e-7,
            extract_per_cell: 2.8e-6,
            extract_per_tri: 2.0e-5,
            raster_per_tri: 1.0e-4,
            raster_per_pixel: 2.4e-5,
            merge_per_entry: 2.8e-7,
        }
    }
}

impl CostModel {
    /// Cost of reading `bytes` (CPU side; disk time is charged separately).
    pub fn read_cost(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.read_per_byte * bytes as f64)
    }

    /// Cost of scanning `cells` cells and emitting `tris` triangles.
    pub fn extract_cost(&self, cells: u64, tris: u64) -> SimDuration {
        SimDuration::from_secs_f64(
            self.extract_per_cell * cells as f64 + self.extract_per_tri * tris as f64,
        )
    }

    /// Cost of rasterizing `tris` triangles producing `pixels` pixels.
    pub fn raster_cost(&self, tris: u64, pixels: u64) -> SimDuration {
        SimDuration::from_secs_f64(
            self.raster_per_tri * tris as f64 + self.raster_per_pixel * pixels as f64,
        )
    }

    /// Cost of merging `entries` depth entries.
    pub fn merge_cost(&self, entries: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.merge_per_entry * entries as f64)
    }
}

/// Hidden-surface removal algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Dense z-buffer, flushed at end-of-work (synchronizing).
    ZBuffer,
    /// Sparse active-pixel batches, flushed as they fill (pipelined).
    ActivePixel,
}

impl Algorithm {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::ZBuffer => "Z-buffer",
            Algorithm::ActivePixel => "ActivePixel",
        }
    }
}

/// Upper bound on the `storage_retry_budget` knob: every retry sleeps a
/// backoff (capped in the milliseconds), so a budget beyond this stalls
/// a wedged spill path for seconds instead of degrading gracefully.
const MAX_STORAGE_RETRIES: u32 = 64;

/// Largest image width or height [`Algorithm::ActivePixel`] can render:
/// its winning-pixel entries carry screen coordinates as `u16`.
const MAX_ACTIVE_PIXEL_EXTENT: u32 = 1 << 16;

/// Everything the application filters need, shared across copies.
pub struct AppConfig {
    /// The declustered dataset.
    pub dataset: Dataset,
    /// Isosurface value.
    pub iso: f32,
    /// Which chemical species to render.
    pub species: u32,
    /// Which stored timestep to render.
    pub timestep: u32,
    /// Optional range query: only chunks whose cells intersect this box
    /// are retrieved and processed (the paper's class of applications
    /// accesses input data "by a range query"). `None` renders the whole
    /// volume. Granularity is the chunk: a chunk partially inside the box
    /// is processed whole, exactly like chunk-granular retrieval in ADR.
    pub query: Option<volume::CellRange>,
    /// Viewing parameters (also fixes the output image size).
    pub camera: Camera,
    /// Surface appearance.
    pub material: Material,
    /// Cost model.
    pub cost: CostModel,
    /// Triangles per extract→raster stream buffer.
    pub tri_batch: usize,
    /// WPA entries per active-pixel output buffer.
    pub wpa_capacity: usize,
    /// Target bytes per z-buffer band buffer.
    pub zb_band_bytes: u64,
    /// Rows per compositing tile under the tile-hash merge group
    /// (clamped to `[1, image height]`; see [`AppConfig::tile_rows`]).
    pub tile_size: u32,
    /// Byte budget for in-flight stream buffers, split evenly across the
    /// pipeline's streams (forwarded to
    /// [`Run::memory_budget`](datacutter::Run::memory_budget) by
    /// [`Render`](crate::Render)). A stream over its share spills queued buffers
    /// to an unlinked temp-file ring and re-faults them at read time —
    /// results are bit-identical either way. `0` disables spilling; any
    /// other budget runs, however small, since each stream keeps one
    /// payload resident whatever its share.
    pub memory_budget_bytes: u64,
    /// Retries granted to a failing spill write or fault-in read before
    /// the runtime's storage degradation ladder takes over (forwarded to
    /// [`Run::storage_retries`](datacutter::Run::storage_retries) by
    /// [`Render`](crate::Render)). Bounded by 64: each retry sleeps a
    /// backoff, so a huge budget is a typo, not a policy.
    pub storage_retry_budget: u32,
    /// Seal spill frames with a 64-bit checksum verified on fault-in
    /// (forwarded to
    /// [`Run::checksum_spills`](datacutter::Run::checksum_spills) by
    /// [`Render`](crate::Render)).
    pub checksum_spills: bool,
    /// Which storage node (index into `storage_hosts`) holds each file,
    /// and on which of its disks.
    pub placement: FilePlacement,
    /// The hosts acting as storage nodes, in placement-node-index order.
    pub storage_hosts: Vec<HostId>,
    /// Lazily computed result of [`AppConfig::selected_chunks`]: the query
    /// and layout are immutable for the life of a config, so the set is
    /// built once instead of once per read-filter pass.
    pub(crate) selected_cache: std::sync::OnceLock<std::collections::HashSet<ChunkId>>,
}

impl AppConfig {
    /// Reasonable defaults for `dataset` rendered at `width × height`,
    /// with data balanced across `storage_hosts` (one disk unless the
    /// hosts have more).
    pub fn new(
        dataset: Dataset,
        storage_hosts: Vec<HostId>,
        disks_per_node: u32,
        width: u32,
        height: u32,
    ) -> AppConfig {
        let camera = Camera::framing(dataset.layout().grid, width, height);
        let n_files = dataset.declustering().n_files;
        let placement =
            FilePlacement::balanced(n_files, storage_hosts.len() as u32, disks_per_node);
        AppConfig {
            dataset,
            iso: 0.5,
            species: 0,
            timestep: 0,
            query: None,
            camera,
            material: isosurf::species_material(0),
            cost: CostModel::default(),
            tri_batch: 512,
            wpa_capacity: 2048,
            zb_band_bytes: 2 * 1024 * 1024,
            tile_size: 16,
            memory_budget_bytes: 0,
            storage_retry_budget: datacutter::DEFAULT_STORAGE_RETRY_BUDGET,
            checksum_spills: true,
            placement,
            storage_hosts,
            selected_cache: std::sync::OnceLock::new(),
        }
    }

    /// Files stored on storage node `node_index`, with their disks.
    pub fn files_for_node(&self, node_index: usize) -> Vec<(FileId, u32)> {
        self.placement
            .location_of_file
            .iter()
            .enumerate()
            .filter(|(_, &(node, _))| node as usize == node_index)
            .map(|(f, &(_, disk))| (FileId(f as u32), disk))
            .collect()
    }

    /// All chunks on storage node `node_index` in file order (ignoring any
    /// range query).
    pub fn chunks_for_node(&self, node_index: usize) -> Vec<(ChunkId, u32)> {
        let mut out = Vec::new();
        for (file, disk) in self.files_for_node(node_index) {
            for &c in self.dataset.chunks_in_file(file) {
                out.push((c, disk));
            }
        }
        out
    }

    /// The stored timestep unit of work `uow` renders: `timestep`, then
    /// one further per unit of work, wrapping.
    pub(crate) fn uow_timestep(&self, uow: u32) -> u32 {
        (self.timestep + uow) % volume::TIMESTEPS
    }

    /// Chunk ids selected by the range query (every chunk when `query` is
    /// `None`), as a set for retrieval-time filtering. Computed once per
    /// config — every read-filter copy, reference render, and planner
    /// probe shares the cached set.
    pub fn selected_chunks(&self) -> &std::collections::HashSet<ChunkId> {
        self.selected_cache.get_or_init(|| match &self.query {
            None => (0..self.dataset.layout().count()).map(ChunkId).collect(),
            Some(range) => volume::chunks_intersecting(self.dataset.layout(), range)
                .into_iter()
                .collect(),
        })
    }

    /// Rows per z-buffer band so a band is ≈ `zb_band_bytes`.
    pub fn band_rows(&self) -> u32 {
        let per_row = self.camera.width as u64 * isosurf::ZBUF_ENTRY_WIRE_BYTES;
        ((self.zb_band_bytes / per_row.max(1)).max(1) as u32).min(self.camera.height)
    }

    /// Check every sizing knob against its constraint, reporting the
    /// first violation as a structured [`ConfigError`]. Zero-valued knobs
    /// would otherwise surface as divide-by-zero panics or silent hangs
    /// deep inside a run (a 0-capacity batch never flushes), so the
    /// pipeline builders reject the config up front instead.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn check(
            ok: bool,
            field: &'static str,
            constraint: &'static str,
        ) -> Result<(), ConfigError> {
            if ok {
                Ok(())
            } else {
                Err(ConfigError { field, constraint })
            }
        }
        check(self.tile_size > 0, "tile_size", "must be > 0 rows")?;
        check(
            self.species < volume::SPECIES_COUNT,
            "species",
            "must be < volume::SPECIES_COUNT",
        )?;
        check(self.tri_batch > 0, "tri_batch", "must hold > 0 triangles")?;
        check(
            self.wpa_capacity > 0,
            "wpa_capacity",
            "must hold > 0 entries",
        )?;
        check(self.zb_band_bytes > 0, "zb_band_bytes", "must be > 0 bytes")?;
        check(
            !self.storage_hosts.is_empty(),
            "storage_hosts",
            "must name at least one host",
        )?;
        check(
            self.camera.width > 0 && self.camera.height > 0,
            "camera",
            "image must be at least 1x1",
        )?;
        check(
            self.storage_retry_budget <= MAX_STORAGE_RETRIES,
            "storage_retry_budget",
            "must be <= 64 retries (each sleeps a backoff before degrading)",
        )?;
        Ok(())
    }

    /// [`validate`](Self::validate) plus the limits of the hidden-surface
    /// algorithm the pipeline will run: an active-pixel image larger than
    /// 65 536 pixels on either axis would wrap its `u16`
    /// pixel coordinates and composite into the wrong place.
    pub fn validate_for(&self, algorithm: Algorithm) -> Result<(), ConfigError> {
        self.validate()?;
        let extent = self.camera.width.max(self.camera.height);
        if algorithm == Algorithm::ActivePixel && extent > MAX_ACTIVE_PIXEL_EXTENT {
            return Err(ConfigError {
                field: "camera",
                constraint: "must be at most 65536 pixels wide and tall under ActivePixel",
            });
        }
        Ok(())
    }

    /// Rows per compositing tile (the `tile_size` knob clamped to the
    /// image).
    pub fn tile_rows(&self) -> u32 {
        crate::tiles::tile_rows(self.tile_size, self.camera.height)
    }

    /// Number of compositing tiles covering the image.
    pub fn n_tiles(&self) -> u32 {
        crate::tiles::n_tiles(self.camera.height, self.tile_rows())
    }
}

/// Shared handle passed to filter factories.
pub type SharedConfig = Arc<AppConfig>;

/// An [`AppConfig`] knob that violates its constraint, reported by
/// [`AppConfig::validate`] before any filter runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending `AppConfig` field.
    pub field: &'static str,
    /// The constraint it violates.
    pub constraint: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid AppConfig: `{}` {}", self.field, self.constraint)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use volume::Dims;

    fn cfg() -> AppConfig {
        let ds = Dataset::generate(Dims::new(17, 17, 17), (2, 2, 2), 8, 1);
        AppConfig::new(ds, vec![HostId(0), HostId(1)], 2, 128, 128)
    }

    #[test]
    fn files_split_across_nodes() {
        let c = cfg();
        let n0 = c.files_for_node(0);
        let n1 = c.files_for_node(1);
        assert_eq!(n0.len() + n1.len(), 8);
        assert_eq!(n0.len(), 4);
    }

    #[test]
    fn chunks_for_node_cover_everything() {
        let c = cfg();
        let total: usize = (0..2).map(|n| c.chunks_for_node(n).len()).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn band_rows_match_target() {
        let c = cfg();
        let rows = c.band_rows();
        assert!((1..=128).contains(&rows));
        // 128 px * 8 B = 1 KiB per row; target 256 KiB -> full image in one
        // band (rows capped at height).
        assert_eq!(rows, 128);
    }

    #[test]
    fn validate_accepts_defaults_and_names_the_bad_knob() {
        let mut c = cfg();
        assert!(c.validate().is_ok(), "defaults must validate");
        c.tile_size = 0;
        let err = c.validate().unwrap_err();
        assert_eq!(err.field, "tile_size");
        assert!(err.to_string().contains("tile_size"));
        c.tile_size = 16;
        c.species = volume::SPECIES_COUNT;
        assert_eq!(c.validate().unwrap_err().field, "species");
        c.species = volume::SPECIES_COUNT - 1;
        c.storage_hosts.clear();
        assert_eq!(c.validate().unwrap_err().field, "storage_hosts");
    }

    /// Each stream keeps one payload resident whatever its share, so a
    /// budget below one chunk is as valid as any other.
    #[test]
    fn validate_accepts_sub_chunk_memory_budget() {
        let mut c = cfg();
        let one_chunk = c.dataset.chunk_bytes(ChunkId(0));
        for budget in [0, 1, one_chunk / 64, one_chunk - 1] {
            c.memory_budget_bytes = budget;
            assert!(c.validate().is_ok(), "budget {budget}");
        }
    }

    #[test]
    fn validate_for_caps_active_pixel_images_at_u16_coordinates() {
        let mut c = cfg();
        c.camera.width = MAX_ACTIVE_PIXEL_EXTENT;
        c.camera.height = MAX_ACTIVE_PIXEL_EXTENT;
        assert!(c.validate_for(Algorithm::ActivePixel).is_ok());
        c.camera.height += 1;
        let err = c.validate_for(Algorithm::ActivePixel).unwrap_err();
        assert_eq!(err.field, "camera");
        assert!(err.to_string().contains("65536"), "{err}");
        assert!(
            c.validate_for(Algorithm::ZBuffer).is_ok(),
            "dense buffers index by u32"
        );
        (c.camera.width, c.camera.height) = (c.camera.height, 128);
        assert_eq!(
            c.validate_for(Algorithm::ActivePixel).unwrap_err().field,
            "camera"
        );
        // The generic checks still run first.
        c.tri_batch = 0;
        assert_eq!(
            c.validate_for(Algorithm::ZBuffer).unwrap_err().field,
            "tri_batch"
        );
    }

    #[test]
    fn cost_model_ratios_are_sane() {
        let m = CostModel::default();
        // Raster per-pixel work over a realistic pixel count must exceed
        // extract work over a realistic cell count (Table 2 shape).
        let raster = m.raster_cost(50_000, 3_000_000);
        let extract = m.extract_cost(250_000, 50_000);
        let read = m.read_cost(1_000_000);
        assert!(raster > extract, "raster {raster} vs extract {extract}");
        assert!(extract > read, "extract {extract} vs read {read}");
    }
}
