//! Rectilinear point grids of scalar samples.
//!
//! A [`RectGrid`] holds one scalar field (one chemical species at one
//! timestep) sampled at `nx × ny × nz` grid points. Cells (voxels) sit
//! between points: a grid with `n` points per axis has `n - 1` cells per
//! axis. Storage is x-fastest row-major, matching the order the synthetic
//! generator writes and the marching-cubes scan reads.

use serde::{Deserialize, Serialize};

/// Grid point dimensions `(nx, ny, nz)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Dims {
    /// Points along x.
    pub nx: u32,
    /// Points along y.
    pub ny: u32,
    /// Points along z.
    pub nz: u32,
}

impl Dims {
    /// Construct dimensions; every axis must have at least 2 points (one
    /// cell).
    pub fn new(nx: u32, ny: u32, nz: u32) -> Self {
        Dims { nx, ny, nz }
    }

    /// Total number of grid points.
    pub fn points(&self) -> u64 {
        self.nx as u64 * self.ny as u64 * self.nz as u64
    }

    /// Total number of cells (voxels).
    pub fn cells(&self) -> u64 {
        (self.nx.saturating_sub(1)) as u64
            * (self.ny.saturating_sub(1)) as u64
            * (self.nz.saturating_sub(1)) as u64
    }

    /// Linear index of point `(x, y, z)`, x-fastest.
    #[inline]
    pub fn index(&self, x: u32, y: u32, z: u32) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (z as usize * self.ny as usize + y as usize) * self.nx as usize + x as usize
    }

    /// Bytes of an f32 field over this grid.
    pub fn byte_size(&self) -> u64 {
        self.points() * 4
    }
}

/// A scalar field over a rectilinear grid of points.
#[derive(Debug, Clone, PartialEq)]
pub struct RectGrid {
    /// Point dimensions.
    pub dims: Dims,
    /// Samples, x-fastest row-major; length = `dims.points()`.
    pub data: Vec<f32>,
}

impl RectGrid {
    /// A grid filled with `value`.
    pub fn filled(dims: Dims, value: f32) -> Self {
        RectGrid {
            dims,
            data: vec![value; dims.points() as usize],
        }
    }

    /// Build a grid by evaluating `f(x, y, z)` at every point.
    pub fn from_fn(dims: Dims, mut f: impl FnMut(u32, u32, u32) -> f32) -> Self {
        let mut data = Vec::with_capacity(dims.points() as usize);
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                for x in 0..dims.nx {
                    data.push(f(x, y, z));
                }
            }
        }
        RectGrid { dims, data }
    }

    /// Sample at point `(x, y, z)`.
    #[inline]
    pub fn at(&self, x: u32, y: u32, z: u32) -> f32 {
        self.data[self.dims.index(x, y, z)]
    }

    /// Extract the sub-grid of points `[x0, x0+sub.nx) × [y0, ...) × ...`.
    /// Panics if the box exceeds the grid bounds.
    pub fn extract(&self, x0: u32, y0: u32, z0: u32, sub: Dims) -> RectGrid {
        assert!(x0 + sub.nx <= self.dims.nx, "x range out of bounds");
        assert!(y0 + sub.ny <= self.dims.ny, "y range out of bounds");
        assert!(z0 + sub.nz <= self.dims.nz, "z range out of bounds");
        let mut data = Vec::with_capacity(sub.points() as usize);
        for z in z0..z0 + sub.nz {
            for y in y0..y0 + sub.ny {
                let row0 = self.dims.index(x0, y, z);
                data.extend_from_slice(&self.data[row0..row0 + sub.nx as usize]);
            }
        }
        RectGrid { dims: sub, data }
    }

    /// Minimum and maximum sample values, `(min, max)`, NaN samples
    /// skipped. Returns `(inf, -inf)` for a grid with no number.
    pub fn value_range(&self) -> (f32, f32) {
        self.data
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            })
    }
}

/// Whether an isosurface at `iso` can cross samples whose
/// [`value_range`](RectGrid::value_range) is `range`: it needs a sample
/// `<= iso` and one `> iso`. This is the extract kernel's own rule for a
/// cell: NaN samples lie on neither side (the range skips them), and a
/// NaN `iso` crosses nothing.
#[inline]
pub fn can_cross(range: (f32, f32), iso: f32) -> bool {
    range.0 <= iso && range.1 > iso
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn dims_counts() {
        let d = Dims::new(4, 5, 6);
        assert_eq!(d.points(), 120);
        assert_eq!(d.cells(), 3 * 4 * 5);
        assert_eq!(d.byte_size(), 480);
    }

    #[test]
    fn index_is_x_fastest() {
        let d = Dims::new(3, 4, 5);
        assert_eq!(d.index(0, 0, 0), 0);
        assert_eq!(d.index(1, 0, 0), 1);
        assert_eq!(d.index(0, 1, 0), 3);
        assert_eq!(d.index(0, 0, 1), 12);
        assert_eq!(d.index(2, 3, 4), 59);
    }

    #[test]
    fn from_fn_matches_at() {
        let g = RectGrid::from_fn(Dims::new(4, 4, 4), |x, y, z| (x + 10 * y + 100 * z) as f32);
        assert_eq!(g.at(2, 3, 1), 132.0);
        assert_eq!(g.at(0, 0, 0), 0.0);
        assert_eq!(g.at(3, 3, 3), 333.0);
    }

    #[test]
    fn extract_subgrid() {
        let g = RectGrid::from_fn(Dims::new(6, 6, 6), |x, y, z| (x + 10 * y + 100 * z) as f32);
        let s = g.extract(1, 2, 3, Dims::new(2, 2, 2));
        assert_eq!(s.at(0, 0, 0), g.at(1, 2, 3));
        assert_eq!(s.at(1, 1, 1), g.at(2, 3, 4));
    }

    #[test]
    #[should_panic(expected = "x range out of bounds")]
    fn extract_out_of_bounds_panics() {
        let g = RectGrid::filled(Dims::new(4, 4, 4), 0.0);
        let _ = g.extract(3, 0, 0, Dims::new(2, 2, 2));
    }

    #[test]
    fn value_range_spans_data() {
        let g = RectGrid::from_fn(Dims::new(3, 3, 3), |x, _, _| x as f32 - 1.0);
        assert_eq!(g.value_range(), (-1.0, 1.0));
    }

    #[test]
    fn can_cross_needs_a_sample_on_each_side() {
        assert!(can_cross((0.0, 1.0), 0.5));
        assert!(can_cross((0.5, 1.0), 0.5), "a sample == iso is at or below");
        assert!(!can_cross((0.0, 0.5), 0.5), "nothing above");
        assert!(!can_cross((0.6, 1.0), 0.5), "nothing at or below");
        assert!(
            !can_cross((f32::INFINITY, f32::NEG_INFINITY), 0.5),
            "all NaN"
        );
        assert!(!can_cross((0.0, 1.0), f32::NAN));
        assert!(can_cross((f32::NEG_INFINITY, f32::INFINITY), 0.0));
    }
}
