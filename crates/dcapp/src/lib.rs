//! # dcapp — the isosurface rendering application on DataCutter
//!
//! The paper's case study (Section 3) expressed as DataCutter filters:
//! `R` (read declustered chunks), `E` (marching-cubes extraction), `Ra`
//! (raster with z-buffer or active-pixel hidden-surface removal), and `M`
//! (merge partial results into the final image) — plus the fused groupings
//! `RERa–M`, `RE–Ra–M`, and `R–ERa–M` of Figure 3. Every grouping is the
//! one decomposition `R → E → Ra → M` cut at different points, so one
//! crate-private filter serves them all: [`build_pipeline`] lists each
//! [`Grouping`] as rows of (filter, placement, stages fused), and a copy
//! runs its stages in order.
//!
//! All real computation happens (chunks are extracted, triangles
//! rasterized, images composed and checked against a sequential
//! reference); CPU/disk/network *costs* are charged to the emulated
//! cluster through a calibrated [`config::CostModel`], so the experiment
//! harness reproduces the paper's time measurements in shape.

#![warn(missing_docs)]
// No public entry point may panic: the banned-method list in the
// workspace `clippy.toml` is an error here (test modules opt out).
#![deny(clippy::disallowed_methods)]

pub mod config;
pub mod experiment;
pub mod payload;
pub mod pipeline;
pub mod planner;
pub mod pool;
pub mod tiles;

mod filters;
mod parts;

pub use config::{Algorithm, AppConfig, ConfigError, CostModel, SharedConfig};
pub use experiment::{
    avg_elapsed_secs, clone_config, reference_image, run_pipeline, run_pipeline_exec,
    run_pipeline_faulted, run_pipeline_faulted_exec, run_pipeline_uows, run_pipeline_uows_exec,
    run_timesteps, MultiUowResult, PipelineResult,
};
pub use filters::ImageSlot;
pub use payload::{ChunkPayload, RaOut, TriBatch};
pub use pipeline::{build_pipeline, try_build_pipeline, Grouping, Pipeline, PipelineSpec};
pub use planner::{plan, Plan};
pub use pool::{BufferPool, PoolVec};
pub use tiles::TileSplitter;
