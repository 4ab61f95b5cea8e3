//! Isosurface extraction (the paper's **extract** filter kernel).
//!
//! The paper uses the marching cubes algorithm [Lorensen & Cline]. We
//! implement the *tetrahedral-decomposition* variant of marching cubes
//! (often called marching tetrahedra): every cell is split into six
//! tetrahedra around the main diagonal, uniformly across the grid, and each
//! tetrahedron is polygonised from its 16-case table. This variant scans
//! voxels one at a time and processes each voxel independently — the exact
//! properties the paper's extract filter relies on for pipelining. The
//! uniform decomposition is face-consistent between neighbouring cells
//! (and neighbouring *chunks*, which share a point plane), so surfaces are
//! watertight across chunk boundaries.
//!
//! The kernel does not walk the six tetrahedra per cell. The compiler
//! folds them, for each of the 256 cube cases, into one recipe: the
//! cell's distinct edge crossings and the triangles that join them. A
//! crossing cell builds its 8-bit mask once, evaluates each crossing
//! once, and emits the recipe's triangles in tetrahedron order. Each
//! recipe triangle is wound when the table is built, so the kernel never
//! orients a triangle: its normal is the cross product of its edges.

use serde::{Deserialize, Serialize};

use volume::RectGrid;

use crate::math::{vec3, Vec3};

/// One extracted surface triangle in world (grid-unit) coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Triangle {
    /// Vertices in world coordinates.
    pub v: [Vec3; 3],
    /// Unit normal, oriented away from the inside (value > isovalue) by
    /// the cube case's fixed winding: it is `(v1 − v0) × (v2 − v0)`,
    /// normalised. Two exceptions: the sign of a zero component is not
    /// part of the contract, and a triangle too thin for rounding to
    /// orient may carry the other winding, which the raster re-winds
    /// anyway (and shading is two-sided).
    pub normal: Vec3,
}

/// Wire size of one triangle on a stream (3 vertices + normal, f32).
pub const TRIANGLE_WIRE_BYTES: u64 = 48;

/// Counters the cost model consumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExtractStats {
    /// Cells scanned.
    pub cells: u64,
    /// Triangles produced.
    pub triangles: u64,
}

/// The six tetrahedra of the uniform cube decomposition. Cube corner `i`
/// sits at offset `(i & 1, (i >> 1) & 1, (i >> 2) & 1)`; all six tets share
/// the main diagonal 0–7, which makes the decomposition (and hence the
/// extracted surface) consistent across shared cell faces.
const TETS: [[usize; 4]; 6] = [
    [0, 1, 3, 7],
    [0, 3, 2, 7],
    [0, 2, 6, 7],
    [0, 6, 4, 7],
    [0, 4, 5, 7],
    [0, 5, 1, 7],
];

/// Extract the isosurface of `grid` at `iso`, with the grid's point
/// `(0,0,0)` located at world position `origin` (chunks pass their global
/// cell origin so surfaces from different chunks line up). Triangles are
/// appended to `out`; returns scan statistics.
pub fn extract(
    grid: &RectGrid,
    origin: (u32, u32, u32),
    iso: f32,
    out: &mut Vec<Triangle>,
) -> ExtractStats {
    extract_into(grid, origin, iso, |t| out.push(t))
}

/// [`extract`], handing each triangle to `emit` in z, y, x, tetrahedron
/// order instead of appending it to a vector, so a caller can write it
/// straight into the buffer that ships it.
///
/// One serial scan: a pipeline extracts many chunks at once by running
/// many extract-filter copies, not by splitting one chunk.
pub fn extract_into(
    grid: &RectGrid,
    origin: (u32, u32, u32),
    iso: f32,
    mut emit: impl FnMut(Triangle),
) -> ExtractStats {
    let d = grid.dims;
    if d.nx < 2 || d.ny < 2 || d.nz < 2 {
        return ExtractStats::default();
    }
    extract_slab(grid, origin, iso, 0..d.nz - 1, &mut emit)
}

/// Which sides of the isovalue a set of samples touches. A NaN touches
/// neither, which is what the per-cell quick-reject has always done.
#[derive(Clone, Copy, Default)]
struct Sides {
    /// Some sample is `> iso` (inside).
    above: bool,
    /// Some sample is `<= iso` (outside).
    at_or_below: bool,
}

impl Sides {
    /// Sides touched by either set.
    #[inline]
    fn union(self, o: Sides) -> Sides {
        Sides {
            above: self.above | o.above,
            at_or_below: self.at_or_below | o.at_or_below,
        }
    }

    /// Whether the surface can cross the set: it needs a sample on each
    /// side. Every cell drawn from a set that does not cross fails the
    /// per-cell quick-reject, so the set can be skipped unseen.
    #[inline]
    fn crosses(self) -> bool {
        self.above & self.at_or_below
    }
}

/// The [`Sides`] of a run of samples. Two boolean OR-reductions with no
/// early exit, so the loop vectorises; a `min`/`max` fold would be one
/// dependent chain with NaN rules and measures slower than visiting every
/// cell.
#[inline]
fn sides_of(samples: &[f32], iso: f32) -> Sides {
    let mut s = Sides::default();
    for &v in samples {
        s.above |= v > iso;
        s.at_or_below |= v <= iso;
    }
    s
}

/// Scan cells with `z` in `z_range` (the kernel behind [`extract`]).
///
/// Cost follows the surface, not the volume. A cell yields triangles only
/// if its corners [cross](Sides::crosses) the isovalue, and so does
/// anything that contains it; the scan therefore tests a whole layer of
/// cells (two point planes), then a row of cells (four point rows), then
/// the cell (two point columns), and descends only where the test passes.
/// Every point plane is classified once and shared by the two layers it
/// bounds, so a volume the surface misses costs one vectorised pass over
/// its samples. `cells` still counts skipped cells (the simulator's cost
/// model is defined on it) and triangles are emitted in z, y, x, tet
/// order.
fn extract_slab(
    grid: &RectGrid,
    origin: (u32, u32, u32),
    iso: f32,
    z_range: std::ops::Range<u32>,
    emit: &mut impl FnMut(Triangle),
) -> ExtractStats {
    let (nx, ny) = (grid.dims.nx as usize, grid.dims.ny as usize);
    let plane = |z: u32| &grid.data[z as usize * nx * ny..][..nx * ny];
    let mut stats = ExtractStats {
        cells: (nx as u64 - 1) * (ny as u64 - 1) * z_range.len() as u64,
        triangles: 0,
    };
    if z_range.is_empty() {
        return stats;
    }
    let mut near = sides_of(plane(z_range.start), iso);
    for z in z_range {
        let far = sides_of(plane(z + 1), iso);
        if near.union(far).crosses() {
            stats.triangles += extract_layer(plane(z), plane(z + 1), nx, origin, z, iso, emit);
        }
        near = far;
    }
    stats
}

/// Polygonise the layer of cells between point planes `p0` (at `z`) and
/// `p1` (at `z + 1`), rows of `nx` points each; returns triangles emitted.
fn extract_layer(
    p0: &[f32],
    p1: &[f32],
    nx: usize,
    origin: (u32, u32, u32),
    z: u32,
    iso: f32,
    emit: &mut impl FnMut(Triangle),
) -> u64 {
    let mut triangles = 0;
    let mut rows0 = p0.chunks_exact(nx);
    let mut rows1 = p1.chunks_exact(nx);
    let (Some(mut r00), Some(mut r01)) = (rows0.next(), rows1.next()) else {
        return 0;
    };
    let zs = [(origin.2 + z) as f32, (origin.2 + z + 1) as f32];
    let mut front = sides_of(r00, iso).union(sides_of(r01, iso));
    for (y, (r10, r11)) in rows0.zip(rows1).enumerate() {
        let back = sides_of(r10, iso).union(sides_of(r11, iso));
        if front.union(back).crosses() {
            // Corner `i` of cell `x` is `rows[i >> 1][x + (i & 1)]`.
            let rows = [r00, r10, r01, r11];
            let column = |x: usize| sides_of(&rows.map(|r| r[x]), iso);
            let y = y as u32;
            let ys = [(origin.1 + y) as f32, (origin.1 + y + 1) as f32];
            let mut left = column(0);
            for x in 0..nx - 1 {
                let right = column(x + 1);
                // Quick reject: cell entirely on one side.
                if left.union(right).crosses() {
                    let val = std::array::from_fn(|i| rows[i >> 1][x + (i & 1)]);
                    let xs = [
                        (origin.0 + x as u32) as f32,
                        (origin.0 + x as u32 + 1) as f32,
                    ];
                    triangles += polygonise_cell(&val, [xs, ys, zs], iso, emit);
                }
                left = right;
            }
        }
        (r00, r01, front) = (r10, r11, back);
    }
    triangles
}

/// Polygonise one crossing cell from its corner samples `val` (corner `i`
/// as in [`TETS`]) and its corner coordinates, two per axis: corner `i`
/// sits at `(axes[0][i & 1], axes[1][(i >> 1) & 1], axes[2][i >> 2])`.
/// Returns triangles emitted.
#[inline]
fn polygonise_cell(
    val: &[f32; 8],
    axes: [[f32; 2]; 3],
    iso: f32,
    emit: &mut impl FnMut(Triangle),
) -> u64 {
    let mut mask = 0;
    for (i, &v) in val.iter().enumerate() {
        mask |= usize::from(v > iso) << i;
    }
    let recipe = &RECIPES[mask];
    let pos = |i: u8| {
        let i = i as usize;
        vec3(axes[0][i & 1], axes[1][(i >> 1) & 1], axes[2][(i >> 2) & 1])
    };
    let mut at = [Vec3::ZERO; MAX_EDGES];
    for (p, &[a, b]) in at.iter_mut().zip(recipe.edges()) {
        *p = edge_point(pos(a), val[a as usize], pos(b), val[b as usize], iso);
    }
    let mut triangles = 0;
    for e in recipe.tris() {
        let v = e.map(|e| at[e as usize]);
        let n = (v[1] - v[0]).cross(v[2] - v[0]);
        // A sliver too thin to carry a normal is dropped.
        if n.length() < 1e-12 {
            continue;
        }
        emit(Triangle {
            v,
            normal: n.normalized(),
        });
        triangles += 1;
    }
    triangles
}

/// Interpolate the iso crossing on the edge `a`–`b`.
#[inline]
fn edge_point(pa: Vec3, va: f32, pb: Vec3, vb: f32, iso: f32) -> Vec3 {
    let denom = vb - va;
    let t = if denom.abs() < 1e-12 {
        0.5
    } else {
        ((iso - va) / denom).clamp(0.0, 1.0)
    };
    pa.lerp(pb, t)
}

/// One precomputed tetrahedron case, indexed by the 4-bit inside mask
/// (bit `i` set ⇔ `v[i] > iso`).
///
/// For `n_in` 1 or 3, `idx` is `[isolated, o0, o1, o2]`: the isolated
/// vertex (inside for 1, outside for 3) then the other three ascending.
/// For `n_in` 2, `idx` is `[in0, in1, out0, out1]`, each pair ascending.
/// These orders reproduce exactly what the old find/filter scan produced,
/// so the emitted geometry is bit-identical — the table only removes the
/// two `Vec` allocations per active tetrahedron.
#[derive(Clone, Copy)]
struct TetCase {
    n_in: u8,
    idx: [u8; 4],
}

const TET_CASES: [TetCase; 16] = {
    let mut cases = [TetCase {
        n_in: 0,
        idx: [0; 4],
    }; 16];
    let mut mask = 0usize;
    while mask < 16 {
        let n_in = (mask & 1) + (mask >> 1 & 1) + (mask >> 2 & 1) + (mask >> 3 & 1);
        let mut idx = [0u8; 4];
        if n_in == 1 || n_in == 3 {
            let isolated_bit = if n_in == 1 { 1 } else { 0 };
            let mut a = 4usize;
            let mut i = 0;
            while i < 4 {
                if (mask >> i) & 1 == isolated_bit && a == 4 {
                    a = i;
                }
                i += 1;
            }
            idx[0] = a as u8;
            let mut k = 1;
            let mut i = 0;
            while i < 4 {
                if i != a {
                    idx[k] = i as u8;
                    k += 1;
                }
                i += 1;
            }
        } else if n_in == 2 {
            let mut k_in = 0;
            let mut k_out = 2;
            let mut i = 0;
            while i < 4 {
                if (mask >> i) & 1 == 1 {
                    idx[k_in] = i as u8;
                    k_in += 1;
                } else {
                    idx[k_out] = i as u8;
                    k_out += 1;
                }
                i += 1;
            }
        }
        cases[mask] = TetCase {
            n_in: n_in as u8,
            idx,
        };
        mask += 1;
    }
    cases
};

/// Most distinct directed edges one cube case crosses.
const MAX_EDGES: usize = 20;

/// Most triangles one cube case emits: two for each of the six tets.
const MAX_TRIS: usize = 12;

/// The point on the inside of a tet-case triangle, named by cube corners:
/// the table winds each triangle so that its normal points away from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Inside {
    /// The lone inside corner of a tet with one corner inside.
    Corner(u8),
    /// The midpoint of the two inside corners of a tet with two.
    Mid(u8, u8),
    /// The centroid of the inside corners of a tet with three.
    Centroid(u8, u8, u8),
}

/// What a cell of one 8-bit cube case emits, folded at compile time from
/// the six tets' [`TET_CASES`]. `edges` are the distinct directed edges
/// `(a, b)` the triangles cross, as cube corners in first-use order, each
/// directed as its tet case gives it so that [`edge_point`] runs the same
/// arithmetic; `tris` are the triangles in tet order, a quad's two in
/// order, each three edge slots already wound (see [`Recipe::push`]).
#[derive(Clone, Copy)]
struct Recipe {
    ne: u8,
    nt: u8,
    edges: [[u8; 2]; MAX_EDGES],
    tris: [[u8; 3]; MAX_TRIS],
}

impl Recipe {
    const EMPTY: Recipe = Recipe {
        ne: 0,
        nt: 0,
        edges: [[0; 2]; MAX_EDGES],
        tris: [[0; 3]; MAX_TRIS],
    };

    fn edges(&self) -> &[[u8; 2]] {
        &self.edges[..self.ne as usize]
    }

    fn tris(&self) -> &[[u8; 3]] {
        &self.tris[..self.nt as usize]
    }

    /// The slot of edge `a → b`, appended if the recipe has none yet.
    const fn slot(&mut self, a: u8, b: u8) -> u8 {
        let mut k = 0;
        while k < self.ne {
            let e = self.edges[k as usize];
            if e[0] == a && e[1] == b {
                return k;
            }
            k += 1;
        }
        self.edges[k as usize] = [a, b];
        self.ne += 1;
        k
    }

    /// Append the triangle on edge slots `e`, wound so that its normal
    /// `(v1 − v0) × (v2 − v0)` points away from `inside`: `e[1]` and `e[2]`
    /// swap when the normal of the tet order points towards it. The sign
    /// of `n · (inside − centre)` is fixed by the tet case for every edge
    /// parameter in `(0, 1)` (one corner inside: `−t₀t₁t₂·D`, with `D` the
    /// tet's signed volume; three: `D·((t₁t₂ + t₁t₃ + t₂t₃)/3 − t₁t₂t₃)`;
    /// the quads by the `winding_is_fixed_by_the_cube_case` test), so it
    /// is taken at the edge midpoints, in whole numbers.
    const fn push(&mut self, e: [u8; 3], inside: Inside) {
        let m = [
            self.midpoint(e[0]),
            self.midpoint(e[1]),
            self.midpoint(e[2]),
        ];
        let inside = match inside {
            Inside::Corner(a) => corner6(a),
            Inside::Mid(a, b) => mean(corner6(a), corner6(b), [0; 3], 2),
            Inside::Centroid(a, b, c) => mean(corner6(a), corner6(b), corner6(c), 3),
        };
        let n = cross(sub(m[1], m[0]), sub(m[2], m[0]));
        let towards = dot(n, sub(inside, mean(m[0], m[1], m[2], 3)));
        assert!(
            towards != 0,
            "a recipe triangle the midpoints cannot orient"
        );
        self.tris[self.nt as usize] = if towards > 0 { [e[0], e[2], e[1]] } else { e };
        self.nt += 1;
    }

    /// The midpoint of the edge in slot `k`, scaled as [`corner6`].
    const fn midpoint(&self, k: u8) -> [i64; 3] {
        let [a, b] = self.edges[k as usize];
        mean(corner6(a), corner6(b), [0; 3], 2)
    }
}

/// Cube corner `i` with its coordinates scaled by 6, so that every edge
/// midpoint, triangle centre and [`Inside`] point is whole.
const fn corner6(i: u8) -> [i64; 3] {
    [
        6 * (i & 1) as i64,
        6 * (i >> 1 & 1) as i64,
        6 * (i >> 2 & 1) as i64,
    ]
}

/// `(a + b + c) / n`, asserted exact.
const fn mean(a: [i64; 3], b: [i64; 3], c: [i64; 3], n: i64) -> [i64; 3] {
    let s = [a[0] + b[0] + c[0], a[1] + b[1] + c[1], a[2] + b[2] + c[2]];
    assert!(s[0] % n == 0 && s[1] % n == 0 && s[2] % n == 0);
    [s[0] / n, s[1] / n, s[2] / n]
}

const fn sub(a: [i64; 3], b: [i64; 3]) -> [i64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

const fn cross(a: [i64; 3], b: [i64; 3]) -> [i64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

const fn dot(a: [i64; 3], b: [i64; 3]) -> i64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// The recipe of every cube mask (bit `i` set ⇔ corner `i` is `> iso`,
/// so a NaN corner is outside).
static RECIPES: [Recipe; 256] = {
    let mut recipes = [Recipe::EMPTY; 256];
    let mut mask = 0;
    while mask < 256 {
        let r = &mut recipes[mask];
        let mut t = 0;
        while t < TETS.len() {
            let tet = TETS[t];
            let mut tet_mask = 0;
            let mut i = 0;
            while i < 4 {
                tet_mask |= (mask >> tet[i] & 1) << i;
                i += 1;
            }
            let case = TET_CASES[tet_mask];
            // The case's vertex order, as cube corners.
            let c = [
                tet[case.idx[0] as usize] as u8,
                tet[case.idx[1] as usize] as u8,
                tet[case.idx[2] as usize] as u8,
                tet[case.idx[3] as usize] as u8,
            ];
            match case.n_in {
                1 | 3 => {
                    let e = [r.slot(c[0], c[1]), r.slot(c[0], c[2]), r.slot(c[0], c[3])];
                    let inside = if case.n_in == 1 {
                        Inside::Corner(c[0])
                    } else {
                        Inside::Centroid(c[1], c[2], c[3])
                    };
                    r.push(e, inside);
                }
                2 => {
                    let q = [
                        r.slot(c[0], c[2]),
                        r.slot(c[0], c[3]),
                        r.slot(c[1], c[3]),
                        r.slot(c[1], c[2]),
                    ];
                    let inside = Inside::Mid(c[0], c[1]);
                    r.push([q[0], q[1], q[2]], inside);
                    r.push([q[0], q[2], q[3]], inside);
                }
                _ => {}
            }
            t += 1;
        }
        mask += 1;
    }
    recipes
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active::{ActivePixelBuffer, WinningPixel};
    use crate::camera::Camera;
    use crate::raster::raster_batch;
    use crate::render::raster_into_zbuffer;
    use crate::shade::Material;
    use crate::zbuf::ZBuffer;
    use volume::{Dims, RectGrid};

    /// A sphere field: value = R - |p - c| (positive inside).
    fn sphere_grid(n: u32, r: f32) -> RectGrid {
        let c = (n - 1) as f32 / 2.0;
        RectGrid::from_fn(Dims::new(n, n, n), |x, y, z| {
            let dx = x as f32 - c;
            let dy = y as f32 - c;
            let dz = z as f32 - c;
            r - (dx * dx + dy * dy + dz * dz).sqrt()
        })
    }

    #[test]
    fn empty_field_produces_no_triangles() {
        let g = RectGrid::filled(Dims::new(8, 8, 8), 0.0);
        let mut out = Vec::new();
        let stats = extract(&g, (0, 0, 0), 0.5, &mut out);
        assert_eq!(stats.triangles, 0);
        assert!(out.is_empty());
        assert_eq!(stats.cells, 343);
    }

    #[test]
    fn sphere_produces_closed_surface() {
        let g = sphere_grid(17, 5.0);
        let mut out = Vec::new();
        let stats = extract(&g, (0, 0, 0), 0.0, &mut out);
        assert!(
            stats.triangles > 100,
            "sphere too coarse: {}",
            stats.triangles
        );
        assert_eq!(stats.triangles as usize, out.len());
    }

    #[test]
    fn sphere_vertices_lie_near_radius() {
        let g = sphere_grid(33, 10.0);
        let mut out = Vec::new();
        extract(&g, (0, 0, 0), 0.0, &mut out);
        let c = vec3(16.0, 16.0, 16.0);
        for t in &out {
            for v in &t.v {
                let r = (*v - c).length();
                assert!((r - 10.0).abs() < 0.5, "vertex at radius {r}");
            }
        }
    }

    #[test]
    fn normals_point_outward_on_sphere() {
        let g = sphere_grid(17, 5.0);
        let mut out = Vec::new();
        extract(&g, (0, 0, 0), 0.0, &mut out);
        let c = vec3(8.0, 8.0, 8.0);
        let mut bad = 0;
        for t in &out {
            let center = (t.v[0] + t.v[1] + t.v[2]) / 3.0;
            // Inside = value > iso = inside the sphere, so "away from
            // inside" = radially outward.
            if t.normal.dot((center - c).normalized()) <= 0.0 {
                bad += 1;
            }
        }
        assert_eq!(bad, 0, "{bad}/{} normals point inward", out.len());
    }

    #[test]
    fn surface_is_watertight() {
        // Every interior edge must be shared by exactly two triangles
        // (opposite orientations). Quantize vertices to hash them.
        let g = sphere_grid(13, 4.0);
        let mut out = Vec::new();
        extract(&g, (0, 0, 0), 0.0, &mut out);
        let key = |v: Vec3| {
            (
                (v.x * 4096.0).round() as i64,
                (v.y * 4096.0).round() as i64,
                (v.z * 4096.0).round() as i64,
            )
        };
        let mut edge_count: std::collections::HashMap<_, i32> = std::collections::HashMap::new();
        for t in &out {
            for i in 0..3 {
                let a = key(t.v[i]);
                let b = key(t.v[(i + 1) % 3]);
                if a == b {
                    continue; // degenerate edge after quantization
                }
                // Count directed edges; a watertight, consistently oriented
                // surface has each undirected edge once in each direction.
                let (e, dir) = if a < b { ((a, b), 1) } else { ((b, a), -1) };
                *edge_count.entry(e).or_insert(0) += dir;
            }
        }
        let unbalanced = edge_count.values().filter(|&&c| c != 0).count();
        assert_eq!(
            unbalanced,
            0,
            "{unbalanced} unbalanced edges of {}",
            edge_count.len()
        );
    }

    #[test]
    fn chunked_extraction_matches_whole_grid_triangle_count() {
        use volume::{ChunkId, ChunkLayout};
        let g = sphere_grid(17, 5.5);
        let mut whole = Vec::new();
        extract(&g, (0, 0, 0), 0.0, &mut whole);

        let layout = ChunkLayout::new(g.dims, (2, 2, 2));
        let mut chunked = Vec::new();
        for i in 0..layout.count() {
            let info = layout.info(ChunkId(i));
            let sub = layout.extract(&g, ChunkId(i));
            extract(&sub, info.cell_origin, 0.0, &mut chunked);
        }
        assert_eq!(whole.len(), chunked.len());
    }

    #[test]
    fn chunked_extraction_is_watertight_across_chunks() {
        use volume::{ChunkId, ChunkLayout};
        let g = sphere_grid(13, 4.0);
        let layout = ChunkLayout::new(g.dims, (2, 2, 2));
        let mut out = Vec::new();
        for i in 0..layout.count() {
            let info = layout.info(ChunkId(i));
            let sub = layout.extract(&g, ChunkId(i));
            extract(&sub, info.cell_origin, 0.0, &mut out);
        }
        let key = |v: Vec3| {
            (
                (v.x * 4096.0).round() as i64,
                (v.y * 4096.0).round() as i64,
                (v.z * 4096.0).round() as i64,
            )
        };
        let mut edge_count: std::collections::HashMap<_, i32> = std::collections::HashMap::new();
        for t in &out {
            for i in 0..3 {
                let a = key(t.v[i]);
                let b = key(t.v[(i + 1) % 3]);
                if a == b {
                    continue;
                }
                let (e, dir) = if a < b { ((a, b), 1) } else { ((b, a), -1) };
                *edge_count.entry(e).or_insert(0) += dir;
            }
        }
        let unbalanced = edge_count.values().filter(|&&c| c != 0).count();
        assert_eq!(unbalanced, 0);
    }

    #[test]
    fn origin_offsets_translate_vertices() {
        let g = sphere_grid(9, 3.0);
        let mut a = Vec::new();
        let mut b = Vec::new();
        extract(&g, (0, 0, 0), 0.0, &mut a);
        extract(&g, (10, 20, 30), 0.0, &mut b);
        assert_eq!(a.len(), b.len());
        for (ta, tb) in a.iter().zip(&b) {
            for k in 0..3 {
                let d = tb.v[k] - ta.v[k];
                assert!((d.x - 10.0).abs() < 1e-4);
                assert!((d.y - 20.0).abs() < 1e-4);
                assert!((d.z - 30.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn stats_count_cells() {
        let g = sphere_grid(9, 3.0);
        let mut out = Vec::new();
        let stats = extract(&g, (0, 0, 0), 0.0, &mut out);
        assert_eq!(stats.cells, 8 * 8 * 8);
    }

    /// Corner offset of cube corner `i`.
    fn corner_offset(i: usize) -> (u32, u32, u32) {
        ((i & 1) as u32, ((i >> 1) & 1) as u32, ((i >> 2) & 1) as u32)
    }

    /// How the oracle orients a triangle.
    #[derive(Clone, Copy)]
    enum Wind {
        /// Away from the inside reference, tested at run time on the
        /// triangle as interpolated: what the kernel did before the case
        /// table was wound.
        RunTime,
        /// As the cube case fixes it: tested in `f64` at the edge
        /// midpoints, the normal then taken from the wound order.
        Fixed,
    }

    type D3 = [f64; 3];

    fn d3(v: Vec3) -> D3 {
        [v.x as f64, v.y as f64, v.z as f64]
    }

    fn mean_d3(points: &[D3]) -> D3 {
        let n = points.len() as f64;
        std::array::from_fn(|k| points.iter().map(|p| p[k]).sum::<f64>() / n)
    }

    /// The normal `(v1 − v0) × (v2 − v0)` of `v`, and its dot product with
    /// `inside − centre`: positive when it points towards `inside`.
    fn towards(v: [D3; 3], inside: D3) -> (D3, f64) {
        let sub = |a: D3, b: D3| -> D3 { std::array::from_fn(|k| a[k] - b[k]) };
        let (a, b) = (sub(v[1], v[0]), sub(v[2], v[0]));
        let n = [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ];
        let r = sub(inside, mean_d3(&v));
        (n, n[0] * r[0] + n[1] * r[1] + n[2] * r[2])
    }

    /// `tri` with its normal oriented away from `inside_ref` (a point on the
    /// high-value side), winding flipped as needed; `None` for a degenerate
    /// sliver, which is dropped. The kernel's orientation step before the
    /// case table was wound.
    fn orient(tri: [Vec3; 3], inside_ref: Vec3) -> Option<Triangle> {
        let n = (tri[1] - tri[0]).cross(tri[2] - tri[0]);
        if n.length() < 1e-12 {
            return None;
        }
        let center = (tri[0] + tri[1] + tri[2]) / 3.0;
        let n = n.normalized();
        Some(if n.dot(inside_ref - center) > 0.0 {
            Triangle {
                v: [tri[0], tri[2], tri[1]],
                normal: -n,
            }
        } else {
            Triangle { v: tri, normal: n }
        })
    }

    /// Append the triangle `tri`, interpolated on the directed edges
    /// `edges`, oriented by `wind` away from the mean of the `inside`
    /// corners; returns whether a triangle was pushed.
    fn push_oriented(
        out: &mut Vec<Triangle>,
        tri: [Vec3; 3],
        edges: [[Vec3; 2]; 3],
        inside: &[Vec3],
        wind: Wind,
    ) -> bool {
        let t = match wind {
            Wind::RunTime => {
                let inside_ref = match *inside {
                    [a] => a,
                    [a, b] => (a + b) * 0.5,
                    [a, b, c] => (a + b + c) / 3.0,
                    _ => unreachable!(),
                };
                orient(tri, inside_ref)
            }
            Wind::Fixed => {
                let mid = edges.map(|[a, b]| mean_d3(&[d3(a), d3(b)]));
                let inside = mean_d3(&inside.iter().map(|&p| d3(p)).collect::<Vec<_>>());
                let v = if towards(mid, inside).1 > 0.0 {
                    [tri[0], tri[2], tri[1]]
                } else {
                    tri
                };
                let n = (v[1] - v[0]).cross(v[2] - v[0]);
                if n.length() < 1e-12 {
                    None
                } else {
                    Some(Triangle {
                        v,
                        normal: n.normalized(),
                    })
                }
            }
        };
        t.map(|t| out.push(t)).is_some()
    }

    /// Polygonise one tetrahedron; appends 0–2 triangles, returns the
    /// count. The kernel shipped this per-tet dispatch before it folded
    /// the six tets into a cube-case [`Recipe`]; it stays as the oracle.
    fn polygonise_tet(
        pos: &[Vec3; 8],
        val: &[f32; 8],
        tet: &[usize; 4],
        iso: f32,
        wind: Wind,
        out: &mut Vec<Triangle>,
    ) -> usize {
        let p = [pos[tet[0]], pos[tet[1]], pos[tet[2]], pos[tet[3]]];
        let v = [val[tet[0]], val[tet[1]], val[tet[2]], val[tet[3]]];
        let mut mask = 0usize;
        for (i, &vi) in v.iter().enumerate() {
            mask |= usize::from(vi > iso) << i;
        }
        let case = &TET_CASES[mask];
        let [i0, i1, i2, i3] = [
            case.idx[0] as usize,
            case.idx[1] as usize,
            case.idx[2] as usize,
            case.idx[3] as usize,
        ];
        let edge = |a: usize, b: usize| edge_point(p[a], v[a], p[b], v[b], iso);
        match case.n_in {
            0 | 4 => 0,
            1 | 3 => {
                // One vertex isolated (inside for n_in = 1, outside for 3):
                // single triangle across the three edges at that vertex.
                let tri = [edge(i0, i1), edge(i0, i2), edge(i0, i3)];
                let edges = [[p[i0], p[i1]], [p[i0], p[i2]], [p[i0], p[i3]]];
                let inside: &[Vec3] = if case.n_in == 1 {
                    &[p[i0]]
                } else {
                    &[p[i1], p[i2], p[i3]]
                };
                push_oriented(out, tri, edges, inside, wind) as usize
            }
            2 => {
                // Two inside / two outside: the crossing is a quad on four
                // edges; emit two triangles.
                let q = [edge(i0, i2), edge(i0, i3), edge(i1, i3), edge(i1, i2)];
                let qe = [
                    [p[i0], p[i2]],
                    [p[i0], p[i3]],
                    [p[i1], p[i3]],
                    [p[i1], p[i2]],
                ];
                let inside = [p[i0], p[i1]];
                let mut n = 0;
                for k in [[0, 1, 2], [0, 2, 3]] {
                    n += push_oriented(out, k.map(|k| q[k]), k.map(|k| qe[k]), &inside, wind)
                        as usize;
                }
                n
            }
            _ => unreachable!(),
        }
    }

    /// The kernel this crate shipped before empty-space skipping: visit
    /// every cell, gather eight corners through `RectGrid::at`, quick-reject
    /// per cell, polygonise each tet, orient by `wind`. The oracle
    /// [`extract_slab`] must match bit for bit under [`Wind::Fixed`].
    fn extract_slab_reference(
        grid: &RectGrid,
        origin: (u32, u32, u32),
        iso: f32,
        z_range: std::ops::Range<u32>,
        wind: Wind,
        out: &mut Vec<Triangle>,
    ) -> ExtractStats {
        let d = grid.dims;
        let mut stats = ExtractStats::default();
        let mut corner_val = [0.0f32; 8];
        let mut corner_pos = [Vec3::ZERO; 8];
        for z in z_range {
            for y in 0..d.ny - 1 {
                for x in 0..d.nx - 1 {
                    stats.cells += 1;
                    for i in 0..8 {
                        let (ox, oy, oz) = corner_offset(i);
                        corner_val[i] = grid.at(x + ox, y + oy, z + oz);
                        corner_pos[i] = vec3(
                            (origin.0 + x + ox) as f32,
                            (origin.1 + y + oy) as f32,
                            (origin.2 + z + oz) as f32,
                        );
                    }
                    // Quick reject: cell entirely on one side.
                    let any_in = corner_val.iter().any(|&v| v > iso);
                    let any_out = corner_val.iter().any(|&v| v <= iso);
                    if !(any_in && any_out) {
                        continue;
                    }
                    for tet in &TETS {
                        stats.triangles +=
                            polygonise_tet(&corner_pos, &corner_val, tet, iso, wind, out) as u64;
                    }
                }
            }
        }
        stats
    }

    /// Every float of every triangle as raw bits, each NaN as one
    /// canonical pattern (`==` would call two NaN vertices different, and
    /// ±∞ samples do produce them). Rust leaves the sign and payload of a
    /// NaN that arithmetic makes to the compiler, and two inlined copies of
    /// one formula may differ there in release builds; every other float
    /// is compared bit for bit, and NaN-ness by position.
    fn triangle_bits(tris: &[Triangle]) -> Vec<u32> {
        let bits = |f: f32| if f.is_nan() { f32::NAN } else { f }.to_bits();
        tris.iter()
            .flat_map(|t| t.v.iter().chain([&t.normal]))
            .flat_map(|v| [bits(v.x), bits(v.y), bits(v.z)])
            .collect()
    }

    /// A grid, its origin, an isovalue and a z-band of cells.
    type Case = (RectGrid, (u32, u32, u32), f32, std::ops::Range<u32>);

    /// A grid, isovalue, origin and z-band drawn for `case`, weighted
    /// towards what the skip hierarchy could get wrong: non-finite samples,
    /// samples equal to the isovalue, constant fields, a lone sample on the
    /// other side, surfaces confined to a few layers or rows, rows longer
    /// and shorter than a vector, and bands that start mid-grid.
    fn arbitrary_case(case: u32) -> Case {
        let mut rng = proptest::TestRng::for_case("mc::arbitrary_case", case);
        let mut draw = |n: u32| (rng.next_u64() % n as u64) as u32;
        let dims = Dims::new(2 + draw(18), 2 + draw(7), 2 + draw(7));
        let origin = (draw(1000), draw(1000), draw(1000));
        let iso = [0.5, 0.0, -3.25, 1.0e-3][draw(4) as usize];
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, iso];
        let kind = draw(6);
        let hot = (draw(dims.nx), draw(dims.ny), draw(dims.nz));
        let fill = special[draw(4) as usize];
        let grid = RectGrid::from_fn(dims, |x, y, z| match kind {
            // Noise straddling the isovalue, one sample in four special.
            0 => match draw(8) {
                0 | 1 => special[draw(4) as usize],
                _ => iso + (draw(2001) as f32 - 1000.0) / 500.0,
            },
            // Constant, including all-NaN and all-equal-to-iso.
            1 => fill,
            // One sample on the far side of an otherwise flat field.
            2 => {
                if (x, y, z) == hot {
                    iso + 1.0
                } else {
                    iso - 1.0
                }
            }
            // A blob: most layers and rows hold no surface.
            3 => {
                let d = |a: u32, b: u32| (a as f32 - b as f32).powi(2);
                iso + 2.5 - (d(x, hot.0) + d(y, hot.1) + d(z, hot.2)).sqrt()
            }
            // A sheet normal to one axis, NaN on one side of it.
            4 => {
                if z < hot.2 {
                    f32::NAN
                } else {
                    iso + y as f32 - hot.1 as f32
                }
            }
            // Inside everywhere except one plane of special values.
            _ => {
                if x == hot.0 {
                    fill
                } else {
                    iso + 1.0
                }
            }
        });
        let z_cells = dims.nz - 1;
        let z0 = draw(z_cells + 1);
        let z1 = z0 + draw(z_cells - z0 + 1);
        (grid, origin, iso, z0..z1)
    }

    #[test]
    fn slab_kernel_matches_the_visit_every_cell_reference() {
        let (mut with_surface, mut without, mut nan_geometry) = (0, 0, 0);
        let cases = if cfg!(debug_assertions) { 768 } else { 6144 };
        for case in 0..cases {
            let (grid, origin, iso, band) = arbitrary_case(case);
            let (mut want, mut got) = (Vec::new(), Vec::new());
            let want_stats =
                extract_slab_reference(&grid, origin, iso, band.clone(), Wind::Fixed, &mut want);
            let got_stats = extract_slab(&grid, origin, iso, band, &mut |t| got.push(t));
            assert_eq!(got_stats, want_stats, "case {case}");
            assert_eq!(triangle_bits(&got), triangle_bits(&want), "case {case}");

            // The public entry point routes the whole grid through the
            // same kernel.
            let (mut whole, mut public) = (Vec::new(), Vec::new());
            let all = 0..grid.dims.nz - 1;
            let whole_stats =
                extract_slab_reference(&grid, origin, iso, all, Wind::Fixed, &mut whole);
            let public_stats = extract(&grid, origin, iso, &mut public);
            assert_eq!(public_stats, whole_stats, "case {case}");
            assert_eq!(triangle_bits(&public), triangle_bits(&whole), "case {case}");

            if want.is_empty() {
                without += 1;
            } else {
                with_surface += 1;
            }
            nan_geometry += want.iter().any(|t| t.v[0].x.is_nan()) as u32;
        }
        // The property proves little if the generator only ever drew empty
        // or only ever drew dense fields.
        assert!(with_surface > 200, "{with_surface} cases with a surface");
        assert!(without > 100, "{without} cases without");
        assert!(nan_geometry > 10, "{nan_geometry} cases with NaN geometry");
    }

    /// The triangles the six per-tet calls make for cube mask `mask`, as
    /// [`polygonise_tet`] builds them before it orients them: three
    /// directed edges (cube corners) and an inside reference each.
    fn tet_triangles(mask: usize) -> Vec<([[u8; 2]; 3], Inside)> {
        let mut out = Vec::new();
        for tet in &TETS {
            let tet_mask: usize = (0..4).map(|i| (mask >> tet[i] & 1) << i).sum();
            let case = &TET_CASES[tet_mask];
            let c = case.idx.map(|k| tet[k as usize] as u8);
            let isolated = [[c[0], c[1]], [c[0], c[2]], [c[0], c[3]]];
            let q = [[c[0], c[2]], [c[0], c[3]], [c[1], c[3]], [c[1], c[2]]];
            match case.n_in {
                1 => out.push((isolated, Inside::Corner(c[0]))),
                3 => out.push((isolated, Inside::Centroid(c[1], c[2], c[3]))),
                2 => {
                    out.push(([q[0], q[1], q[2]], Inside::Mid(c[0], c[1])));
                    out.push(([q[0], q[2], q[3]], Inside::Mid(c[0], c[1])));
                }
                _ => {}
            }
        }
        out
    }

    /// Cube corner `i` of the unit cube.
    fn corner(i: u8) -> D3 {
        [(i & 1) as f64, (i >> 1 & 1) as f64, (i >> 2 & 1) as f64]
    }

    /// The point of the unit cube an [`Inside`] names.
    fn inside_point(inside: Inside) -> D3 {
        match inside {
            Inside::Corner(a) => corner(a),
            Inside::Mid(a, b) => mean_d3(&[corner(a), corner(b)]),
            Inside::Centroid(a, b, c) => mean_d3(&[corner(a), corner(b), corner(c)]),
        }
    }

    #[test]
    fn recipes_match_the_per_tet_cases() {
        for (mask, recipe) in RECIPES.iter().enumerate() {
            let tets = tet_triangles(mask);
            // The tet triangles, wound as [`Wind::Fixed`] winds them.
            let want: Vec<_> = tets
                .iter()
                .map(|&(e, inside)| {
                    let mid = e.map(|[a, b]| mean_d3(&[corner(a), corner(b)]));
                    if towards(mid, inside_point(inside)).1 > 0.0 {
                        [e[0], e[2], e[1]]
                    } else {
                        e
                    }
                })
                .collect();
            let got: Vec<_> = recipe
                .tris()
                .iter()
                .map(|e| e.map(|e| recipe.edges()[e as usize]))
                .collect();
            assert_eq!(got, want, "mask {mask:#010b}");
            // Each edge evaluated once, in first-use order.
            let mut first_use = Vec::new();
            for e in tets.iter().flat_map(|(e, _)| e) {
                if !first_use.contains(e) {
                    first_use.push(*e);
                }
            }
            assert_eq!(recipe.edges(), first_use, "mask {mask:#010b}");
            assert!(recipe.edges().len() <= 20, "mask {mask:#010b}");
        }

        // The cell step emits, for every mask, what the six per-tet calls
        // emit under the fixed winding, bit for bit. Samples far below the
        // isovalue put crossings on the inside corners (`t` rounds to 0 or
        // 1), where slivers collapse and are dropped; samples far above it
        // put them on the outside corners.
        let axes = [[7.0, 8.0], [11.0, 12.0], [1000.0, 1001.0]];
        let pos =
            std::array::from_fn(|i| vec3(axes[0][i & 1], axes[1][(i >> 1) & 1], axes[2][i >> 2]));
        for (inside, outside) in [(0.5, -0.25), (1.0, -1.0e9), (1.0e9, -1.0)] {
            for mask in 0..256 {
                let val = std::array::from_fn(|i| {
                    let k = 1.0 + i as f32 / 16.0;
                    if mask >> i & 1 == 1 {
                        inside * k
                    } else {
                        outside * k
                    }
                });
                let mut want = Vec::new();
                for tet in &TETS {
                    polygonise_tet(&pos, &val, tet, 0.0, Wind::Fixed, &mut want);
                }
                let mut got = Vec::new();
                let n = polygonise_cell(&val, axes, 0.0, &mut |t| got.push(t));
                assert_eq!(n as usize, got.len());
                assert_eq!(
                    triangle_bits(&got),
                    triangle_bits(&want),
                    "mask {mask:#010b}, samples {inside} / {outside}"
                );
            }
        }
    }

    /// The table's winding is the run-time test's answer: for every cube
    /// case and recipe triangle, at edge parameters drawn in `(0, 1]` (each
    /// edge its own, the ends `1` and `2⁻²⁰` drawn often), the old
    /// orientation test evaluated in `f64` finds the wound normal pointing
    /// away from the inside reference, whenever the triangle is not too
    /// thin to carry a normal.
    #[test]
    fn winding_is_fixed_by_the_cube_case() {
        let rounds = if cfg!(debug_assertions) { 256 } else { 4096 };
        let mut rng = proptest::TestRng::for_case("mc::winding_is_fixed", 0);
        let (mut checked, mut thin) = (0u64, 0u64);
        for (mask, recipe) in RECIPES.iter().enumerate() {
            let tets = tet_triangles(mask);
            assert_eq!(recipe.tris().len(), tets.len(), "mask {mask:#010b}");
            for _ in 0..rounds {
                let at: Vec<D3> = recipe
                    .edges()
                    .iter()
                    .map(|&[a, b]| {
                        let t = match rng.next_u64() % 8 {
                            0 => 1.0,
                            1 => 2f64.powi(-20),
                            _ => ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64,
                        };
                        let (a, b) = (corner(a), corner(b));
                        std::array::from_fn(|k| a[k] + t * (b[k] - a[k]))
                    })
                    .collect();
                for (k, (e, &(_, inside))) in recipe.tris().iter().zip(&tets).enumerate() {
                    let (n, towards) = towards(e.map(|e| at[e as usize]), inside_point(inside));
                    if (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt() < 1e-12 {
                        thin += 1;
                        continue;
                    }
                    checked += 1;
                    // The test flips a triangle whose normal points
                    // towards the inside; a tie (all three crossings on
                    // the inside corners of a tet with three) keeps it.
                    assert!(
                        towards <= 0.0,
                        "mask {mask:#010b}, triangle {k}: n · (inside − centre) = {towards:e}"
                    );
                }
            }
        }
        assert!(checked > 50 * thin, "{checked} checked, {thin} too thin");
    }

    /// A camera framing `dims` points placed at `origin`, from the
    /// standard direction or the opposite one.
    fn camera_on(dims: Dims, origin: (u32, u32, u32), behind: bool) -> Camera {
        let mut c = Camera::framing(dims, 96, 72);
        let o = vec3(origin.0 as f32, origin.1 as f32, origin.2 as f32);
        if behind {
            c.eye = c.target * 2.0 - c.eye;
        }
        c.eye = c.eye + o;
        c.target = c.target + o;
        c
    }

    /// What `tris` become on `camera`'s image: [`raster_batch`]'s plot
    /// stream (x, y, depth bits, rgb, in order), the z-buffer it fills and
    /// the active-pixel batches it flushes.
    #[allow(clippy::type_complexity)]
    fn raster_outputs(
        tris: &[Triangle],
        camera: &Camera,
    ) -> (
        Vec<(u32, u32, u32, [u8; 3])>,
        Vec<(u32, [u8; 3])>,
        Vec<Vec<WinningPixel>>,
    ) {
        let (material, proj) = (Material::default(), camera.projector());
        let (w, h) = (camera.width, camera.height);
        let mut stream = Vec::new();
        raster_batch(&proj, w, h, &material, tris, |x, y, d, rgb| {
            stream.push((x, y, d.to_bits(), rgb))
        });
        let mut zb = ZBuffer::new(w, h);
        raster_into_zbuffer(tris, camera, &material, &mut zb);
        let zb = zb.depth.iter().map(|d| d.to_bits()).zip(zb.color).collect();
        let (mut ap, mut wpa) = (ActivePixelBuffer::new(w, 7), Vec::new());
        raster_batch(&proj, w, h, &material, tris, |x, y, d, rgb| {
            ap.plot(x, y, d, rgb, &mut |b| wpa.push(b))
        });
        ap.force_flush(&mut |b| wpa.push(b));
        (stream, zb, wpa)
    }

    /// Winding is invisible: the kernel's triangles and the run-time
    /// oriented oracle's rasterise to the same plot stream, z-buffer and
    /// active-pixel batches, on the slab oracle's cases, sphere fields and
    /// small ParSSim fields, seen from two opposite sides.
    #[test]
    fn winding_never_reaches_a_pixel() {
        use volume::{ParSSim, SimParams};
        let mut fields: Vec<Case> = Vec::new();
        let cases = if cfg!(debug_assertions) { 256 } else { 2048 };
        fields.extend((0..cases).map(arbitrary_case));
        for (n, r) in [(17, 5.0), (25, 7.77), (33, 11.3)] {
            fields.push((sphere_grid(n, r), (0, 0, 0), 0.0, 0..n - 1));
        }
        for seed in 1..=2 {
            let sim = ParSSim::new(SimParams::new(Dims::new(17, 13, 15), seed));
            for species in 0..volume::SPECIES_COUNT {
                let field = sim.field(species, 3);
                let mut sorted = field.data.clone();
                sorted.sort_by(f32::total_cmp);
                let iso = sorted[sorted.len() / 2];
                let band = 0..field.dims.nz - 1;
                fields.push((field, (0, 0, 0), iso, band));
            }
        }
        let (mut rewound, mut pixels) = (0, 0);
        for (i, (grid, origin, iso, band)) in fields.iter().enumerate() {
            let (mut kernel, mut oracle) = (Vec::new(), Vec::new());
            extract_slab(grid, *origin, *iso, band.clone(), &mut |t| kernel.push(t));
            extract_slab_reference(
                grid,
                *origin,
                *iso,
                band.clone(),
                Wind::RunTime,
                &mut oracle,
            );
            assert_eq!(kernel.len(), oracle.len(), "field {i}");
            rewound += kernel
                .iter()
                .zip(&oracle)
                .filter(|(k, o)| triangle_bits(&[**k])[..9] != triangle_bits(&[**o])[..9])
                .count();
            for behind in [false, true] {
                let camera = camera_on(grid.dims, *origin, behind);
                let want = raster_outputs(&oracle, &camera);
                assert_eq!(raster_outputs(&kernel, &camera), want, "field {i}");
                pixels += want.0.len();
            }
        }
        // Ties and slivers (samples at the isovalue put crossings on
        // corners) are where the two windings part.
        assert!(rewound > 100, "{rewound} triangles wound otherwise");
        assert!(pixels > 50_000, "{pixels} pixels plotted");
    }

    #[test]
    fn case_table_matches_bitcount_semantics() {
        for (mask, case) in TET_CASES.iter().enumerate() {
            assert_eq!(case.n_in as u32, (mask as u32).count_ones());
            match case.n_in {
                1 | 3 => {
                    let isolated_inside = case.n_in == 1;
                    let a = case.idx[0] as usize;
                    assert_eq!((mask >> a) & 1 == 1, isolated_inside);
                    // Others ascending, covering the complement.
                    let others = [case.idx[1], case.idx[2], case.idx[3]];
                    assert!(others.windows(2).all(|w| w[0] < w[1]));
                    assert!(!others.contains(&(a as u8)));
                }
                2 => {
                    let (i0, i1) = (case.idx[0] as usize, case.idx[1] as usize);
                    let (o0, o1) = (case.idx[2] as usize, case.idx[3] as usize);
                    assert!(i0 < i1 && o0 < o1);
                    assert!((mask >> i0) & 1 == 1 && (mask >> i1) & 1 == 1);
                    assert!((mask >> o0) & 1 == 0 && (mask >> o1) & 1 == 0);
                }
                _ => {}
            }
        }
    }
}
