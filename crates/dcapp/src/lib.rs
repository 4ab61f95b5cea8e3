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
//! cluster through a calibrated [`CostModel`], so the experiment
//! harness reproduces the paper's time measurements in shape.
//!
//! ## Public API
//!
//! - **Render**: [`Render`] (`new`, `executor`, `faults`, `uows`, `go`)
//!   runs a [`PipelineSpec`] over an [`AppConfig`] and returns a
//!   [`PipelineResult`] — one image per unit of work plus the run's
//!   report. [`plan`] simulates every candidate configuration and returns
//!   the fastest as a [`Plan`].
//! - **Describe a run**: [`AppConfig`] (shared as [`SharedConfig`]) with
//!   its [`CostModel`], validated into a [`ConfigError`];
//!   [`PipelineSpec`] with its [`Grouping`] and [`Algorithm`].
//! - **Check the output**: [`reference_image`] (the sequential ground
//!   truth) and [`clone_config`] (a config to change, e.g. its timestep).
//! - **Drive the graph yourself**: [`build_pipeline`] /
//!   [`try_build_pipeline`] return the [`Pipeline`] (graph, image slot,
//!   stream and filter ids) for a hand-built `datacutter::Run`.
//! - **Payloads**: [`ChunkPayload`], [`TriBatch`] and [`RaOut`], whose
//!   buffers are [`PoolVec`]s recycled through a [`BufferPool`]; the
//!   [`TileSplitter`] and the [`tiles`] geometry of the tile-owned merge
//!   group.

#![warn(missing_docs)]
// No public entry point may panic: the banned-method list in the
// workspace `clippy.toml` is an error here (test modules opt out).
#![deny(clippy::disallowed_methods)]

pub mod tiles;

mod config;
mod experiment;
mod filters;
mod parts;
mod payload;
mod pipeline;
mod planner;
mod pool;

pub use config::{Algorithm, AppConfig, ConfigError, CostModel, SharedConfig};
pub use experiment::{clone_config, reference_image, PipelineResult, Render};
pub use payload::{ChunkPayload, RaOut, TriBatch};
pub use pipeline::{build_pipeline, try_build_pipeline, Grouping, Pipeline, PipelineSpec};
pub use planner::{plan, Plan};
pub use pool::{BufferPool, PoolVec};
pub use tiles::TileSplitter;
