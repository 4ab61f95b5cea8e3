//! # isosurf — isosurface rendering kernels
//!
//! The visualization application of the reproduction (the paper's case
//! study, Section 3): surface extraction from rectilinear scalar fields,
//! perspective projection, scanline rasterization, and the two
//! hidden-surface removal algorithms the paper compares —
//!
//! * **Z-buffer rendering** ([`zbuf`]): dense per-pixel depth+color buffer,
//!   flushed wholesale at end-of-work (a pipeline synchronization point);
//! * **Active Pixel rendering** ([`active`]): sparse winning-pixel batches
//!   flushed as they fill, overlapping rasterization with merging.
//!
//! Both algorithms consume the identical pixel stream from [`raster`] and
//! merge with the same commutative/associative depth test, so they produce
//! identical images regardless of how work is split across filter copies —
//! the consistency property the paper's merge filter relies on.
//!
//! Extraction ([`mc`]) implements the marching-cubes family via uniform
//! tetrahedral decomposition (watertight across chunk boundaries); see the
//! module docs for the rationale.
//!
//! Every kernel is serial. Parallelism comes from the layer above: a
//! pipeline runs many transparent copies of the extract, raster and merge
//! filters, each calling these kernels on its own chunk, triangle batch or
//! tile (DESIGN.md §7 has the numbers that retired the in-kernel pool).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod camera;
pub mod image;
pub mod math;
pub mod mc;
pub mod raster;
pub mod render;
pub mod shade;
pub mod zbuf;

pub use active::{
    merge_batch, merge_batch_offset, ActivePixelBuffer, WinningPixel, WPA_ENTRY_WIRE_BYTES,
};
pub use camera::{Camera, Projector, ScreenVertex};
pub use image::Image;
pub use math::{vec3, Mat4, Vec3};
pub use mc::{extract, extract_into, ExtractStats, Triangle, TRIANGLE_WIRE_BYTES};
pub use raster::{fill_triangle, raster_batch, raster_triangle};
pub use render::{render_active_pixel, render_zbuffer, BACKGROUND};
pub use shade::{shade, species_material, Material};
pub use zbuf::{merge_rows, ZBuffer, EMPTY_DEPTH, ZBUF_ENTRY_WIRE_BYTES};

pub use dcbench_compat::*;

/// The names left of the in-kernel fork/join pool (`isosurf::par`, slab
/// extraction, band merges; removed in PR 24 because it never measured
/// faster than the serial kernels — DESIGN.md §7). `dcbench`'s
/// `parallel_kernels` probe and its serial-baseline workload call exactly
/// these and `dcbench/` may not be edited by the PR that removed the
/// pool, so each forwards to the one kernel and
/// `isosurf.par.{extract,merge}_speedup` read ≈ 1.0 until a `benchmark`
/// PR retires the probe. Nothing else may use them.
#[allow(missing_docs)]
mod dcbench_compat {
    use crate::{extract, ExtractStats, Triangle, ZBuffer};
    use volume::RectGrid;

    pub struct ThreadPool;

    impl ThreadPool {
        pub fn global() -> &'static ThreadPool {
            &ThreadPool
        }
    }

    // Braces, not a unit struct: `dcbench` builds it with `default()`,
    // which clippy rejects on unit structs.
    #[derive(Default)]
    pub struct ExtractScratch {}

    pub fn extract_with(
        _pool: &ThreadPool,
        _scratch: &mut ExtractScratch,
        grid: &RectGrid,
        origin: (u32, u32, u32),
        iso: f32,
        out: &mut Vec<Triangle>,
    ) -> ExtractStats {
        extract(grid, origin, iso, out)
    }

    pub fn extract_serial(
        grid: &RectGrid,
        origin: (u32, u32, u32),
        iso: f32,
        out: &mut Vec<Triangle>,
    ) -> ExtractStats {
        extract(grid, origin, iso, out)
    }

    impl ZBuffer {
        pub fn merge_with(&mut self, _pool: &ThreadPool, other: &ZBuffer) {
            self.merge(other)
        }

        pub fn merge_serial(&mut self, other: &ZBuffer) {
            self.merge(other)
        }
    }
}
