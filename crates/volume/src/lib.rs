//! # volume — scientific dataset substrate
//!
//! The data layer of the DataCutter reproduction: rectilinear scalar
//! grids, a deterministic ParSSim-like synthetic generator, partitioning
//! into equal sub-volumes, Hilbert-curve declustering across data files,
//! file→disk placement (balanced and skewed), range queries, and a binary
//! chunk encoding.
//!
//! The paper's datasets (1.5 GB / 25 GB ParSSim reactive-transport output)
//! are replaced by scaled-down synthetic fields with identical *structure*:
//! the same chunking and declustering scheme, spatially coherent plume
//! fields whose isosurface density varies across chunks, and multiple
//! species over multiple timesteps.

#![warn(missing_docs)]
// The data layer sits under the runtime's self-healing storage plane: a
// stray `unwrap`/`expect` here is an uncontained panic path that bypasses
// the structured-error degradation ladder (test modules opt back in with
// explicit `#[allow]`s). Enforced via the workspace `clippy.toml` ban.
#![deny(clippy::disallowed_methods)]

pub mod cache;
pub mod chunks;
pub mod cursor;
pub mod decluster;
pub mod diskstore;
pub mod grid;
pub mod hilbert;
pub mod integrity;
pub mod parssim;
pub mod query;
pub mod store;

pub use cache::{CacheKey, CacheStats, ChunkCache};
pub use chunks::{ChunkId, ChunkInfo, ChunkLayout};
pub use cursor::{ChunkCursor, ChunkHeader, Slab};
pub use decluster::{hilbert_decluster, Declustering, FileId, FilePlacement};
pub use diskstore::{write_dataset, DiskStore};
pub use grid::{can_cross, Dims, RectGrid};
pub use hilbert::{hilbert_coords, hilbert_index};
pub use integrity::{fnv64, Fnv64, ReadFaults};
pub use parssim::{ParSSim, SimParams, SPECIES_COUNT, TIMESTEPS};
pub use query::{chunks_intersecting, CellRange};
pub use store::{decode_chunk, encode_chunk, Dataset};
