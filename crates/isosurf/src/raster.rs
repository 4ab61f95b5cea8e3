//! Shared scanline rasterization: triangle transform, projection, clipping
//! to the viewport, and depth-interpolated pixel generation.
//!
//! Both hidden-surface removal algorithms (the dense z-buffer and the
//! sparse active-pixel renderer) consume the *same* pixel stream produced
//! here, which is what guarantees they render identical images — the
//! consistency property the paper requires of the merge stage.
//!
//! [`raster_batch`] is the kernel: most triangles of an extracted surface
//! are smaller than a pixel, and nearly every one whose bounding box holds
//! a pixel centre holds exactly one. It sets up a block of triangles as
//! one branch-free lane program — projection, box, centre spans, and the
//! edge test at the centre of a 1 × 1 box — and scans only the kept
//! triangles whose box holds more. [`raster_triangle`] and
//! [`fill_triangle`] run the same lane program on one triangle.

use crate::camera::{Projector, ScreenVertex};
use crate::math::{vec3, Vec3};
use crate::mc::Triangle;
use crate::shade::{shade, Material};

/// Triangles [`raster_batch`] sets up per pass: the lane count of its
/// [`Lanes`], whose ~470 bytes every raster copy's thread keeps on its
/// stack (a fan-out graph runs hundreds of them).
const BLOCK: usize = 8;

/// A triangle for [`scan`]: its screen vertices and the half-open ranges
/// of pixel columns and rows whose centres lie in its bounding box.
struct Setup {
    v: [ScreenVertex; 3],
    xs: [u32; 2],
    ys: [u32; 2],
}

/// Up to `L` triangles after setup, one a lane, in struct-of-arrays form.
/// Each field is an array over lanes, and [`Lanes::set_up`] walks them in
/// loops without a data-dependent branch, which the compiler turns into
/// packed vector code.
struct Lanes<const L: usize> {
    /// Screen x, screen y and depth of each vertex; world x, y and z until
    /// [`Lanes::project`] projects them in place.
    x: [[f32; L]; 3],
    y: [[f32; L]; 3],
    z: [[f32; L]; 3],
    /// The first pixel column and row whose centre lies in the bounding
    /// box, as whole `f32`s (see [`centres`]).
    first: [[f32; L]; 2],
    /// The last such column and row, not yet clamped to the viewport.
    last: [[f32; L]; 2],
    /// The interpolated depth at the first centre: the plotted depth of a
    /// 1 × 1 box.
    depth: [f32; L],
    /// In front of the near plane, with a box that meets the viewport.
    drawn: [bool; L],
    /// A pixel centre in the box on both axes and, if it holds just one,
    /// inside the triangle.
    kept: [bool; L],
    /// The box holds exactly one pixel centre, before the viewport clamp
    /// too.
    one: [bool; L],
}

impl<const L: usize> Lanes<L> {
    /// Lanes of zeros, not drawn.
    fn new() -> Lanes<L> {
        Lanes {
            x: [[0.0; L]; 3],
            y: [[0.0; L]; 3],
            z: [[0.0; L]; 3],
            first: [[0.0; L]; 2],
            last: [[0.0; L]; 2],
            depth: [0.0; L],
            drawn: [false; L],
            kept: [false; L],
            one: [false; L],
        }
    }

    /// Gather `tris` (at most `L`) into the lanes, project them in place
    /// with [`Projector::project_any`] and set them up. A lane past the end
    /// of `tris` is not drawn.
    ///
    /// Near-plane policy: a triangle with any vertex behind the near plane
    /// is not drawn. The experiment cameras sit well outside the volume, so
    /// this never triggers there; it keeps the kernel simple and both
    /// renderers identical. Nor is a triangle whose box misses the
    /// viewport.
    #[inline(always)]
    fn project(&mut self, proj: &Projector, width: u32, height: u32, tris: &[Triangle]) {
        for (i, t) in tris.iter().enumerate().take(L) {
            for (k, v) in t.v.iter().enumerate() {
                (self.x[k][i], self.y[k][i], self.z[k][i]) = (v.x, v.y, v.z);
            }
        }
        let mut front = [false; L];
        for (i, front) in front.iter_mut().enumerate() {
            let mut behind = false;
            for k in 0..3 {
                let p = vec3(self.x[k][i], self.y[k][i], self.z[k][i]);
                let (s, b) = proj.project_any(p);
                (self.x[k][i], self.y[k][i], self.z[k][i]) = (s.x, s.y, s.depth);
                behind |= b;
            }
            *front = (i < tris.len()) & !behind;
        }
        self.set_up(width, height, front);
    }

    /// Set up every lane in two loops. The first boxes it, tests the box
    /// against the `width × height` viewport and takes its centre spans;
    /// the second runs [`scan`]'s arithmetic at the first centre, which for
    /// a 1 × 1 box is the whole scan. `front` says which lanes are in front
    /// of the near plane. (Split in two, each loop keeps fewer vectors
    /// live, and the stack frame is smaller.)
    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // `i` indexes every lane array
    fn set_up(&mut self, width: u32, height: u32, front: [bool; L]) {
        let (w, h) = (width as f32, height as f32);
        let (end_x, end_y) = (last_index(width), last_index(height));
        for i in 0..L {
            let [ax, bx, cx] = [self.x[0][i], self.x[1][i], self.x[2][i]];
            let [ay, by, cy] = [self.y[0][i], self.y[1][i], self.y[2][i]];
            let (lo_x, hi_x) = (ax.min(bx).min(cx), ax.max(bx).max(cx));
            let (lo_y, hi_y) = (ay.min(by).min(cy), ay.max(by).max(cy));
            let off_screen = (hi_x < 0.0) | (lo_x >= w) | (hi_y < 0.0) | (lo_y >= h);
            let (first_x, last_x) = centres(lo_x, hi_x);
            let (first_y, last_y) = centres(lo_y, hi_y);
            (self.first[0][i], self.first[1][i]) = (first_x, first_y);
            (self.last[0][i], self.last[1][i]) = (last_x, last_y);
            self.drawn[i] = front[i] & !off_screen;
            self.kept[i] = in_view(first_x, last_x, end_x) & in_view(first_y, last_y, end_y);
            self.one[i] = (first_x == last_x) & (first_y == last_y);
        }
        for i in 0..L {
            let [ax, bx, cx] = [self.x[0][i], self.x[1][i], self.x[2][i]];
            let [ay, by, cy] = [self.y[0][i], self.y[1][i], self.y[2][i]];
            let [az, bz, cz] = [self.z[0][i], self.z[1][i], self.z[2][i]];
            let area = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay);
            // The orientation swap, as a select.
            let flip = area < 0.0;
            let (bx, cx) = if flip { (cx, bx) } else { (bx, cx) };
            let (by, cy) = if flip { (cy, by) } else { (by, cy) };
            let (bz, cz) = if flip { (cz, bz) } else { (bz, cz) };
            let (px, py) = (self.first[0][i] + 0.5, self.first[1][i] + 0.5);
            let w0 = (bx - ax) * (py - ay) - (px - ax) * (by - ay);
            let w1 = (cx - bx) * (py - by) - (px - bx) * (cy - by);
            let w2 = (ax - cx) * (py - cy) - (px - cx) * (ay - cy);
            // `scan` returns on `area.abs() < 1e-4` alone: a NaN area passes.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let covered = !(area.abs() < 1e-4) & (w0 >= 0.0) & (w1 >= 0.0) & (w2 >= 0.0);
            self.depth[i] = (w1 * az + w2 * bz + w0 * cz) / area.abs();
            self.kept[i] &= !self.one[i] | covered;
        }
    }

    /// Plot kept lane `i` in `width × height`: a 1 × 1 box from its lane
    /// results, any other through [`scan`]. Returns pixels plotted.
    #[inline(always)]
    fn scan(&self, i: usize, width: u32, height: u32, mut plot: impl FnMut(u32, u32, f32)) -> u64 {
        if self.one[i] {
            plot(
                self.first[0][i] as u32,
                self.first[1][i] as u32,
                self.depth[i],
            );
            return 1;
        }
        let v = [0, 1, 2].map(|k| ScreenVertex {
            x: self.x[k][i],
            y: self.y[k][i],
            depth: self.z[k][i],
        });
        scan(
            &Setup {
                v,
                xs: span(self.first[0][i], self.last[0][i], width),
                ys: span(self.first[1][i], self.last[1][i], height),
            },
            plot,
        )
    }
}

/// The pixel centres `i + 0.5` in `[lo, hi]` as whole `f32`s: the first,
/// clamped at 0, and the last, unclamped. A NaN bound reads as a centre
/// at 0. See [`in_view`] and [`span`] for the viewport clamp.
#[inline(always)]
fn centres(lo: f32, hi: f32) -> (f32, f32) {
    // `lo <= i + 0.5 <= hi` is `ceil(lo - 0.5) <= i <= floor(hi - 0.5)`.
    let not_nan = |f: f32| if f.is_nan() { 0.0 } else { f };
    let (lo, hi) = (not_nan(lo - 0.5), not_nan(hi - 0.5));
    let (t, u) = (round(lo), round(hi));
    let first = t + if t < lo { 1.0 } else { 0.0 };
    let last = u - if u > hi { 1.0 } else { 0.0 };
    (first.max(0.0), last)
}

/// Whether the centres `first ..= last` of [`centres`] meet `0..n`, where
/// `end` is [`last_index`]`(n)`.
#[inline(always)]
fn in_view(first: f32, last: f32, end: f32) -> bool {
    (first <= last) & (first <= end)
}

/// The half-open range of `0..n` that centres `first ..= last`, [`in_view`]
/// of it (so `n >= 1`), cover.
#[inline(always)]
fn span(first: f32, last: f32, n: u32) -> [u32; 2] {
    [first as u32, (last as u32).min(n - 1) + 1]
}

/// `f` rounded to a nearest whole `f32`. Below 2^23 in magnitude, adding
/// and taking away 2^23, signed like `f`, rounds the fraction away in
/// float arithmetic, which the baseline x86-64 target runs four lanes at
/// a time (there `f32::round` is a call into libm, and a saturating
/// `f as i32` is scalar). From 2^23 on, every `f32` is whole.
#[inline(always)]
fn round(f: f32) -> f32 {
    const WHOLE: f32 = 8_388_608.0; // 2^23
    if f.abs() < WHOLE {
        let m = WHOLE.copysign(f);
        (f + m) - m
    } else {
        f
    }
}

/// `n - 1` rounded down to an `f32`: a whole `f32` is at most `n - 1`
/// exactly when it is at most this.
fn last_index(n: u32) -> f32 {
    let last = n as i64 - 1;
    let f = last as f32;
    if f as i64 > last {
        f.next_down()
    } else {
        f
    }
}

/// Transform, project, clip, shade, and scan-convert every triangle of
/// `tris` in order, invoking `plot(x, y, depth, rgb)` for every covered
/// pixel inside the `width × height` viewport. Returns pixels generated.
///
/// The plot sequence is exactly that of [`raster_triangle`] called on each
/// triangle in turn. Per block of triangles, the lane program sets them
/// all up; then, in block order, each kept triangle plots its one centre
/// from its lane results or, if its box holds more, is scanned from the
/// screen vertices the lanes hold.
pub fn raster_batch(
    proj: &Projector,
    width: u32,
    height: u32,
    material: &Material,
    tris: &[Triangle],
    mut plot: impl FnMut(u32, u32, f32, [u8; 3]),
) -> u64 {
    let (mut l, mut pixels) = (Lanes::<BLOCK>::new(), 0);
    for block in tris.chunks(BLOCK) {
        l.project(proj, width, height, block);
        // Every slot is written; only a kept lane advances `n`.
        let (mut kept, mut n) = ([0u8; BLOCK], 0);
        for i in 0..BLOCK {
            kept[n] = i as u8;
            n += (l.drawn[i] & l.kept[i]) as usize;
        }
        for &i in &kept[..n] {
            let i = i as usize;
            pixels += draw(&l, i, width, height, material, block[i].normal, &mut plot);
        }
    }
    pixels
}

/// [`raster_batch`] of one triangle. Returns pixels generated, or `None`
/// if the triangle was rejected (behind the near plane or fully
/// off-screen).
pub fn raster_triangle(
    proj: &Projector,
    width: u32,
    height: u32,
    material: &Material,
    tri: &Triangle,
    mut plot: impl FnMut(u32, u32, f32, [u8; 3]),
) -> Option<u64> {
    let mut l = Lanes::<1>::new();
    l.project(proj, width, height, std::slice::from_ref(tri));
    l.drawn[0].then(|| {
        if l.kept[0] {
            draw(&l, 0, width, height, material, tri.normal, &mut plot)
        } else {
            0
        }
    })
}

/// [`Lanes::scan`] with the triangle's flat shade. Most triangles here are
/// smaller than a pixel and cover no centre: shade on the first covered
/// pixel, not before.
#[inline(always)]
fn draw<const L: usize>(
    l: &Lanes<L>,
    i: usize,
    width: u32,
    height: u32,
    material: &Material,
    normal: Vec3,
    plot: &mut impl FnMut(u32, u32, f32, [u8; 3]),
) -> u64 {
    let mut rgb = None;
    l.scan(i, width, height, |x, y, depth| {
        let rgb = *rgb.get_or_insert_with(|| shade(material, normal));
        plot(x, y, depth, rgb);
    })
}

/// Scan-convert the screen-space triangle `(a, b, c)`, calling
/// `plot(x, y, depth)` for each covered pixel with linearly interpolated
/// depth, clipped to `width × height`. Uses the top-left-ish pixel-center
/// rule (a pixel is covered when its center lies inside all three edges),
/// so shared edges between triangles are drawn once per triangle —
/// duplicates are resolved by the depth test downstream, matching how the
/// paper's renderer generates multiple candidates per pixel location.
///
/// Only pixels whose centre lies within the vertices' bounding interval on
/// both axes are tested: a centre outside it is outside the triangle, so
/// the scan costs what the triangle covers, not its rounded-out box.
pub fn fill_triangle(
    a: ScreenVertex,
    b: ScreenVertex,
    c: ScreenVertex,
    width: u32,
    height: u32,
    plot: impl FnMut(u32, u32, f32),
) -> u64 {
    let mut l = Lanes::<1>::new();
    for (k, v) in [a, b, c].iter().enumerate() {
        (l.x[k][0], l.y[k][0], l.z[k][0]) = (v.x, v.y, v.depth);
    }
    l.set_up(width, height, [true]);
    if l.kept[0] {
        l.scan(0, width, height, plot)
    } else {
        0
    }
}

/// The edge-function test at every pixel centre of `s`'s spans, in
/// row-major order, with depth interpolated for each covered one.
#[inline(always)]
fn scan(s: &Setup, mut plot: impl FnMut(u32, u32, f32)) -> u64 {
    let [a, b, c] = s.v;
    // Signed doubled area; (near-)degenerate triangles produce nothing.
    // The threshold is far below one pixel of area, so anything rejected
    // here could not cover a pixel center anyway.
    let area = (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y);
    if area.abs() < 1e-4 {
        return 0;
    }
    // Orient counter-clockwise so barycentric weights are positive inside.
    let (b, c) = if area < 0.0 { (c, b) } else { (b, c) };
    let area = area.abs();

    let mut count = 0u64;
    for y in s.ys[0]..s.ys[1] {
        let py = y as f32 + 0.5;
        for x in s.xs[0]..s.xs[1] {
            let px = x as f32 + 0.5;
            // Barycentric coordinates via edge functions.
            let w0 = (b.x - a.x) * (py - a.y) - (px - a.x) * (b.y - a.y); // weight of c
            let w1 = (c.x - b.x) * (py - b.y) - (px - b.x) * (c.y - b.y); // weight of a
            let w2 = (a.x - c.x) * (py - c.y) - (px - c.x) * (a.y - c.y); // weight of b
            if w0 >= 0.0 && w1 >= 0.0 && w2 >= 0.0 {
                let depth = (w1 * a.depth + w2 * b.depth + w0 * c.depth) / area;
                plot(x, y, depth);
                count += 1;
            }
        }
    }
    count
}

/// Convenience for tests: rasterize a world-space triangle into a vector of
/// `(x, y, depth)` samples.
pub fn collect_pixels(
    proj: &Projector,
    width: u32,
    height: u32,
    tri: &Triangle,
) -> Vec<(u32, u32, f32)> {
    let mut out = Vec::new();
    let material = Material::default();
    let _ = raster_triangle(proj, width, height, &material, tri, |x, y, d, _| {
        out.push((x, y, d));
    });
    out
}

/// A world-space triangle helper for tests and benches.
pub fn world_tri(a: Vec3, b: Vec3, c: Vec3) -> Triangle {
    let n = (b - a).cross(c - a).normalized();
    Triangle {
        v: [a, b, c],
        normal: if n == Vec3::ZERO {
            vec3(0.0, 0.0, 1.0)
        } else {
            n
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Camera;
    use crate::math::vec3;

    fn cam(w: u32, h: u32) -> Camera {
        Camera {
            eye: vec3(0.0, 0.0, 10.0),
            target: Vec3::ZERO,
            up: vec3(0.0, 1.0, 0.0),
            fovy_deg: 60.0,
            width: w,
            height: h,
            near: 0.1,
        }
    }

    #[test]
    fn centered_triangle_covers_pixels() {
        let proj = cam(64, 64).projector();
        let t = world_tri(
            vec3(-2.0, -2.0, 0.0),
            vec3(2.0, -2.0, 0.0),
            vec3(0.0, 2.0, 0.0),
        );
        let px = collect_pixels(&proj, 64, 64, &t);
        assert!(px.len() > 50, "only {} pixels", px.len());
        // All within viewport.
        assert!(px.iter().all(|&(x, y, _)| x < 64 && y < 64));
    }

    #[test]
    fn depth_is_constant_for_screen_parallel_triangle() {
        let proj = cam(64, 64).projector();
        let t = world_tri(
            vec3(-1.0, -1.0, 2.0),
            vec3(1.0, -1.0, 2.0),
            vec3(0.0, 1.0, 2.0),
        );
        for (_, _, d) in collect_pixels(&proj, 64, 64, &t) {
            assert!((d - 8.0).abs() < 0.05, "depth {d}");
        }
    }

    #[test]
    fn depth_varies_for_tilted_triangle() {
        let proj = cam(64, 64).projector();
        let t = world_tri(
            vec3(-2.0, 0.0, 4.0),
            vec3(2.0, 0.0, -4.0),
            vec3(0.0, 2.0, 0.0),
        );
        let px = collect_pixels(&proj, 64, 64, &t);
        let min = px.iter().map(|p| p.2).fold(f32::INFINITY, f32::min);
        let max = px.iter().map(|p| p.2).fold(0.0f32, f32::max);
        assert!(max - min > 3.0, "depth range {min}..{max}");
    }

    #[test]
    fn offscreen_triangle_is_rejected() {
        let proj = cam(64, 64).projector();
        let t = world_tri(
            vec3(100.0, 100.0, 0.0),
            vec3(101.0, 100.0, 0.0),
            vec3(100.0, 101.0, 0.0),
        );
        let material = Material::default();
        let r = raster_triangle(&proj, 64, 64, &material, &t, |_, _, _, _| {
            panic!("no pixels")
        });
        assert_eq!(r, None);
    }

    #[test]
    fn behind_camera_triangle_is_rejected() {
        let proj = cam(64, 64).projector();
        let t = world_tri(
            vec3(0.0, 0.0, 20.0),
            vec3(1.0, 0.0, 20.0),
            vec3(0.0, 1.0, 20.0),
        );
        assert!(collect_pixels(&proj, 64, 64, &t).is_empty());
    }

    #[test]
    fn partially_offscreen_triangle_is_clipped() {
        let proj = cam(64, 64).projector();
        // Spans far beyond the left edge.
        let t = world_tri(
            vec3(-50.0, -1.0, 0.0),
            vec3(1.0, -1.0, 0.0),
            vec3(1.0, 1.0, 0.0),
        );
        let px = collect_pixels(&proj, 64, 64, &t);
        assert!(!px.is_empty());
        assert!(px.iter().all(|&(x, y, _)| x < 64 && y < 64));
    }

    #[test]
    fn winding_does_not_change_coverage() {
        let proj = cam(64, 64).projector();
        let t1 = world_tri(
            vec3(-2.0, -2.0, 0.0),
            vec3(2.0, -2.0, 0.0),
            vec3(0.0, 2.0, 0.0),
        );
        let t2 = world_tri(
            vec3(0.0, 2.0, 0.0),
            vec3(2.0, -2.0, 0.0),
            vec3(-2.0, -2.0, 0.0),
        );
        let mut p1 = collect_pixels(&proj, 64, 64, &t1);
        let mut p2 = collect_pixels(&proj, 64, 64, &t2);
        p1.sort_by_key(|p| (p.0, p.1));
        p2.sort_by_key(|p| (p.0, p.1));
        let xy1: Vec<_> = p1.iter().map(|p| (p.0, p.1)).collect();
        let xy2: Vec<_> = p2.iter().map(|p| (p.0, p.1)).collect();
        assert_eq!(xy1, xy2);
    }

    /// The integer span rule the lane program replaced, kept as its
    /// oracle: pixels `i` of `0..n` whose centre `i + 0.5` lies in
    /// `[lo, hi]`, as the inclusive `(first, last)`; empty when
    /// `first > last`.
    fn centre_span(lo: f32, hi: f32, n: u32) -> (i64, i64) {
        // `lo <= i + 0.5 <= hi` is `ceil(lo - 0.5) <= i <= floor(hi - 0.5)`.
        (
            ceil_i64(lo - 0.5).max(0),
            floor_i64(hi - 0.5).min(n as i64 - 1),
        )
    }

    /// `f.floor() as i64` (saturating, NaN to 0) in integer arithmetic.
    fn floor_i64(f: f32) -> i64 {
        // Truncation rounds toward zero: below zero that is one too high
        // unless `f` is whole. Where `f` has a fraction (|f| < 2^23), `t as f32`
        // is exact; where it is whole and in range, `t as f32 == f`; beyond the
        // range, `t` is saturated and stays so.
        let t = f as i64;
        t.saturating_sub((f < t as f32) as i64)
    }

    /// `f.ceil() as i64` (saturating, NaN to 0); see [`floor_i64`].
    fn ceil_i64(f: f32) -> i64 {
        let t = f as i64;
        t.saturating_add((f > t as f32) as i64)
    }

    /// The scalar setup the lane program replaced, kept as its oracle:
    /// `tri`'s screen vertices, its centre spans, whether it is drawn, and
    /// whether it is kept (drawn, with a centre in its box on both axes).
    #[allow(clippy::type_complexity)]
    fn setup(
        proj: &Projector,
        width: u32,
        height: u32,
        tri: &Triangle,
    ) -> ([ScreenVertex; 3], (i64, i64), (i64, i64), bool, bool) {
        let (a, behind_a) = proj.project_any(tri.v[0]);
        let (b, behind_b) = proj.project_any(tri.v[1]);
        let (c, behind_c) = proj.project_any(tri.v[2]);
        let (lo_x, hi_x) = (a.x.min(b.x).min(c.x), a.x.max(b.x).max(c.x));
        let (lo_y, hi_y) = (a.y.min(b.y).min(c.y), a.y.max(b.y).max(c.y));
        let off_screen =
            (hi_x < 0.0) | (lo_x >= width as f32) | (hi_y < 0.0) | (lo_y >= height as f32);
        let drawn = !(behind_a | behind_b | behind_c | off_screen);
        let (xs, ys) = (
            centre_span(lo_x, hi_x, width),
            centre_span(lo_y, hi_y, height),
        );
        let keep = drawn & (xs.0 <= xs.1) & (ys.0 <= ys.1);
        ([a, b, c], xs, ys, drawn, keep)
    }

    /// The scan this crate shipped before centre-tight spans: every pixel
    /// of the rounded-out bounding box is tested. Kept verbatim as the
    /// oracle for [`fill_triangle`].
    fn fill_triangle_reference(
        a: ScreenVertex,
        b: ScreenVertex,
        c: ScreenVertex,
        width: u32,
        height: u32,
        mut plot: impl FnMut(u32, u32, f32),
    ) -> u64 {
        let area = (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y);
        if area.abs() < 1e-4 {
            return 0;
        }
        let (b, c) = if area < 0.0 { (c, b) } else { (b, c) };
        let area = area.abs();

        let min_x = a.x.min(b.x).min(c.x).floor().max(0.0) as i64;
        let max_x = (a.x.max(b.x).max(c.x).ceil() as i64).min(width as i64 - 1);
        let min_y = a.y.min(b.y).min(c.y).floor().max(0.0) as i64;
        let max_y = (a.y.max(b.y).max(c.y).ceil() as i64).min(height as i64 - 1);

        let mut count = 0u64;
        for y in min_y..=max_y {
            let py = y as f32 + 0.5;
            for x in min_x..=max_x {
                let px = x as f32 + 0.5;
                let w0 = (b.x - a.x) * (py - a.y) - (px - a.x) * (b.y - a.y);
                let w1 = (c.x - b.x) * (py - b.y) - (px - b.x) * (c.y - b.y);
                let w2 = (a.x - c.x) * (py - c.y) - (px - c.x) * (a.y - c.y);
                if w0 >= 0.0 && w1 >= 0.0 && w2 >= 0.0 {
                    let depth = (w1 * a.depth + w2 * b.depth + w0 * c.depth) / area;
                    plot(x as u32, y as u32, depth);
                    count += 1;
                }
            }
        }
        count
    }

    /// A screen triangle and viewport drawn for `case`: random, clipped,
    /// off-screen, sub-pixel and sliver triangles, vertices exactly on
    /// pixel centres and pixel edges or one ulp off them, huge and
    /// non-finite coordinates, 1 × 1 boxes with their centre on an edge,
    /// and slivers at the area threshold.
    fn arbitrary_screen_triangle(case: u32) -> ([ScreenVertex; 3], u32, u32) {
        let mut rng = proptest::TestRng::for_case("raster::arbitrary_screen_triangle", case);
        let mut draw = |n: u32| (rng.next_u64() % n as u64) as u32;
        let (width, height) = (1 + draw(24), 1 + draw(24));
        (screen_triangle(&mut draw, width, height), width, height)
    }

    /// Kinds of [`screen_triangle_of`]: 0 to 5 draw each coordinate on its
    /// own, [`ON_EDGE`] and [`AT_AREA`] the whole triangle.
    const KINDS: u32 = 8;
    const ON_EDGE: u32 = 6;
    const AT_AREA: u32 = 7;

    /// A screen triangle of one of the kinds above, for a `width × height`
    /// viewport, from `draw(n)` (uniform in `0..n`).
    fn screen_triangle(
        mut draw: impl FnMut(u32) -> u32,
        width: u32,
        height: u32,
    ) -> [ScreenVertex; 3] {
        let kind = draw(KINDS);
        screen_triangle_of(kind, draw, width, height)
    }

    /// A screen triangle of kind `kind`.
    fn screen_triangle_of(
        kind: u32,
        mut draw: impl FnMut(u32) -> u32,
        width: u32,
        height: u32,
    ) -> [ScreenVertex; 3] {
        let xy = match kind {
            ON_EDGE => centre_on_edge(&mut draw, width, height),
            AT_AREA => area_at_threshold(&mut draw, width, height),
            _ => {
                let anchor = (draw(width + 8) as f32 - 4.0, draw(height + 8) as f32 - 4.0);
                let mut coord = |axis: usize| {
                    let span = [width, height][axis];
                    let base = [anchor.0, anchor.1][axis];
                    match kind {
                        // Anywhere around the viewport.
                        0 => draw((span + 16) * 64) as f32 / 64.0 - 8.0,
                        // Sub-pixel: the common case in the pipeline.
                        1 => base + draw(1 << 12) as f32 / (1 << 12) as f32,
                        // On a half-pixel lattice or one ulp to either side of it.
                        2 => {
                            let v = draw(2 * span + 8) as f32 / 2.0 - 2.0;
                            match draw(3) {
                                0 => v,
                                1 => f32::from_bits(v.to_bits().wrapping_add(1)),
                                _ => f32::from_bits(v.to_bits().wrapping_sub(1)),
                            }
                        }
                        // Slivers: two axes of freedom collapse to nearly one.
                        3 => base + draw(3) as f32 * 7.5 + draw(64) as f32 / 4096.0,
                        // Far larger than the viewport.
                        4 => (draw(2_000_001) as f32 - 1.0e6) * 3.0,
                        // Mostly ordinary, now and then not finite.
                        _ => match draw(6) {
                            0 => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][draw(3) as usize],
                            _ => draw(span * 8) as f32 / 8.0,
                        },
                    }
                };
                let mut vertex = || (coord(0), coord(1));
                [vertex(), vertex(), vertex()]
            }
        };
        xy.map(|(x, y)| ScreenVertex {
            x,
            y,
            depth: 1.0 + draw(1000) as f32 / 8.0,
        })
    }

    /// A triangle whose box holds one pixel centre, which lies exactly on
    /// the edge from its first vertex to its second (the edge function is
    /// 0 there) or, one time in three each, one ulp to either side; the
    /// vertices then rotated. Every coordinate is on a 1/64 lattice within
    /// 1/8 of the centre, so the edge function's products are exact.
    fn centre_on_edge(
        draw: &mut impl FnMut(u32) -> u32,
        width: u32,
        height: u32,
    ) -> [(f32, f32); 3] {
        let (px, py) = (draw(width) as f32 + 0.5, draw(height) as f32 + 0.5);
        let mut offset = || (draw(17) as f32 - 8.0) / 64.0;
        let (dx, dy) = (offset(), offset());
        let c = (px + offset(), py + offset());
        let ax = f32::from_bits(match draw(3) {
            0 => (px - dx).to_bits(),
            1 => (px - dx).to_bits() + 1,
            _ => (px - dx).to_bits() - 1,
        });
        let mut tri = [(ax, py - dy), (px + dx, py + dy), c];
        tri.rotate_left(draw(3) as usize);
        tri
    }

    /// A sliver whose box holds one pixel centre, which it covers, with a
    /// signed doubled area of exactly ±1e-4, the least that [`scan`] draws,
    /// or one ulp either side: legs of `m / 2^24` along x and `2^-13` along
    /// y, where `1e-4f32` is `m · 2^-37`, in column 0, or transposed into
    /// row 0.
    fn area_at_threshold(
        draw: &mut impl FnMut(u32) -> u32,
        width: u32,
        height: u32,
    ) -> [(f32, f32); 3] {
        let leg = (13_743_895 + draw(3) - 1) as f32 / (1 << 24) as f32;
        let transpose = draw(2) == 1;
        let row = draw(if transpose { width } else { height }) as f32 + 0.5 - 1.0 / 32768.0;
        let tri = [(0.0, row), (leg, row), (0.0, row + 1.0 / 8192.0)];
        let tri = if draw(2) == 0 {
            tri
        } else {
            [tri[0], tri[2], tri[1]]
        };
        if transpose {
            tri.map(|(x, y)| (y, x))
        } else {
            tri
        }
    }

    fn scan(
        fill: impl FnOnce(&mut dyn FnMut(u32, u32, f32)) -> u64,
    ) -> (Vec<(u32, u32, u32)>, u64) {
        let mut px = Vec::new();
        let n = fill(&mut |x, y, d| px.push((x, y, d.to_bits())));
        (px, n)
    }

    /// The coverage contract: the tight scan plots a subsequence of the
    /// reference scan with identical depths, and whatever it leaves out has
    /// its centre strictly outside the vertices' closed bounding interval
    /// on some axis (exact arithmetic says such a pixel is outside the
    /// triangle; the reference can only admit it when two rounded edge
    /// products tie). And it plots exactly what the centre-tight scan did
    /// before the lane program, libm spans included.
    #[test]
    fn tight_scan_matches_the_rounded_out_reference() {
        let (mut covering, mut empty, mut clipped) = (0, 0, 0);
        for case in 0..4096 {
            let ([a, b, c], w, h) = arbitrary_screen_triangle(case);
            let (want, want_n) = scan(|p| fill_triangle_reference(a, b, c, w, h, p));
            let (got, got_n) = scan(|p| fill_triangle(a, b, c, w, h, p));
            assert_eq!(got_n, got.len() as u64, "case {case}");
            assert_eq!(want_n, want.len() as u64, "case {case}");
            let tight = scan(|p| fill_triangle_libm(a, b, c, w, h, p));
            assert_eq!((&got, got_n), (&tight.0, tight.1), "case {case}");

            let (lo_x, hi_x) = (a.x.min(b.x).min(c.x), a.x.max(b.x).max(c.x));
            let (lo_y, hi_y) = (a.y.min(b.y).min(c.y), a.y.max(b.y).max(c.y));
            let mut kept = got.iter().peekable();
            for p in &want {
                if kept.peek() == Some(&p) {
                    kept.next();
                    continue;
                }
                let (cx, cy) = (p.0 as f32 + 0.5, p.1 as f32 + 0.5);
                assert!(
                    cx < lo_x || cx > hi_x || cy < lo_y || cy > hi_y,
                    "case {case}: dropped pixel {p:?} has its centre inside the vertex interval"
                );
            }
            assert!(
                kept.next().is_none(),
                "case {case}: plotted a pixel the reference did not"
            );

            if got.is_empty() {
                empty += 1;
            } else {
                covering += 1;
            }
            let outside = |v: &ScreenVertex| v.x < 0.0 || v.x > w as f32;
            clipped += (!got.is_empty() && [a, b, c].iter().any(outside)) as u32;
        }
        // The property proves little unless a good share of cases plot
        // something, clip, and plot nothing.
        assert!(covering > 1000, "{covering} triangles cover a pixel");
        assert!(empty > 1000, "{empty} triangles cover none");
        assert!(clipped > 100, "{clipped} covering triangles are clipped");
    }

    #[test]
    fn shade_is_taken_from_the_triangle_normal() {
        // `raster_triangle` shades lazily; the colour must still be the
        // flat shade of the triangle, on every pixel.
        let proj = cam(64, 64).projector();
        let t = world_tri(
            vec3(-2.0, -2.0, 0.0),
            vec3(2.0, -2.0, 1.0),
            vec3(0.0, 2.0, 0.0),
        );
        let material = Material::default();
        let want = shade(&material, t.normal);
        let mut n = 0;
        raster_triangle(&proj, 64, 64, &material, &t, |_, _, _, rgb| {
            assert_eq!(rgb, want);
            n += 1;
        });
        assert!(n > 50);
    }

    #[test]
    fn degenerate_triangle_draws_nothing() {
        let proj = cam(64, 64).projector();
        let t = world_tri(
            vec3(0.0, 0.0, 0.0),
            vec3(1.0, 1.0, 0.0),
            vec3(2.0, 2.0, 0.0),
        );
        assert!(collect_pixels(&proj, 64, 64, &t).is_empty());
    }

    /// `Projector::project` as it was before the batch kernel: the early
    /// return on the near plane and the operation order it pins.
    struct ReferenceProjector {
        view: crate::math::Mat4,
        fx: f32,
        fy: f32,
        cx: f32,
        cy: f32,
        near: f32,
    }

    impl ReferenceProjector {
        fn new(camera: &Camera) -> ReferenceProjector {
            let f = 1.0 / (camera.fovy_deg.to_radians() / 2.0).tan();
            ReferenceProjector {
                view: camera.view_matrix(),
                fx: f * camera.height as f32 / 2.0,
                fy: f * camera.height as f32 / 2.0,
                cx: camera.width as f32 / 2.0,
                cy: camera.height as f32 / 2.0,
                near: camera.near,
            }
        }

        fn project(&self, p: Vec3) -> Option<ScreenVertex> {
            let v = self.view.transform_point(p);
            let depth = -v.z;
            if depth < self.near {
                return None;
            }
            Some(ScreenVertex {
                x: self.cx + self.fx * v.x / depth,
                y: self.cy - self.fy * v.y / depth,
                depth,
            })
        }
    }

    /// `raster_triangle` and `fill_triangle` as they were before the batch
    /// kernel, kept verbatim (libm `ceil` and `floor` included): the
    /// oracle for [`raster_batch`] and [`raster_triangle`].
    fn raster_triangle_reference(
        proj: &ReferenceProjector,
        width: u32,
        height: u32,
        material: &Material,
        tri: &Triangle,
        mut plot: impl FnMut(u32, u32, f32, [u8; 3]),
    ) -> Option<u64> {
        let s0 = proj.project(tri.v[0])?;
        let s1 = proj.project(tri.v[1])?;
        let s2 = proj.project(tri.v[2])?;

        let min_x = s0.x.min(s1.x).min(s2.x);
        let max_x = s0.x.max(s1.x).max(s2.x);
        let min_y = s0.y.min(s1.y).min(s2.y);
        let max_y = s0.y.max(s1.y).max(s2.y);
        if max_x < 0.0 || min_x >= width as f32 || max_y < 0.0 || min_y >= height as f32 {
            return None;
        }

        let mut rgb = None;
        let pixels = fill_triangle_libm(s0, s1, s2, width, height, |x, y, depth| {
            let rgb = *rgb.get_or_insert_with(|| shade(material, tri.normal));
            plot(x, y, depth, rgb);
        });
        Some(pixels)
    }

    fn fill_triangle_libm(
        a: ScreenVertex,
        b: ScreenVertex,
        c: ScreenVertex,
        width: u32,
        height: u32,
        mut plot: impl FnMut(u32, u32, f32),
    ) -> u64 {
        let area = (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y);
        if area.abs() < 1e-4 {
            return 0;
        }
        let (b, c) = if area < 0.0 { (c, b) } else { (b, c) };
        let area = area.abs();

        let xs = centre_span_libm(a.x.min(b.x).min(c.x), a.x.max(b.x).max(c.x), width);
        if xs.is_empty() {
            return 0;
        }
        let ys = centre_span_libm(a.y.min(b.y).min(c.y), a.y.max(b.y).max(c.y), height);

        let mut count = 0u64;
        for y in ys {
            let py = y as f32 + 0.5;
            for x in xs.clone() {
                let px = x as f32 + 0.5;
                let w0 = (b.x - a.x) * (py - a.y) - (px - a.x) * (b.y - a.y);
                let w1 = (c.x - b.x) * (py - b.y) - (px - b.x) * (c.y - b.y);
                let w2 = (a.x - c.x) * (py - c.y) - (px - c.x) * (a.y - c.y);
                if w0 >= 0.0 && w1 >= 0.0 && w2 >= 0.0 {
                    let depth = (w1 * a.depth + w2 * b.depth + w0 * c.depth) / area;
                    plot(x as u32, y as u32, depth);
                    count += 1;
                }
            }
        }
        count
    }

    fn centre_span_libm(lo: f32, hi: f32, n: u32) -> std::ops::RangeInclusive<i64> {
        let first = (lo - 0.5).ceil().max(0.0) as i64;
        let last = ((hi - 0.5).floor() as i64).min(n as i64 - 1);
        first..=last
    }

    /// A world-space batch for `case` and the camera it is drawn with:
    /// every kind of screen triangle [`screen_triangle`] makes, unprojected
    /// to mostly ordinary depths. Now and then a vertex sits behind or on
    /// the near plane, at the eye, or at a NaN depth, wherever in a block it
    /// falls. Normals vary so that every triangle shades differently.
    ///
    /// One batch in three has a camera that unprojects exactly: at 90° and
    /// a power-of-two height the focal length is a power of two, and so are
    /// the depths, so a centre built onto an edge stays on it. One batch in
    /// four alternates a triangle anywhere around the viewport, mostly
    /// larger than a pixel, with a 1 × 1 box whose centre is on an edge.
    fn arbitrary_batch(case: u32) -> (Camera, Vec<Triangle>) {
        let mut rng = proptest::TestRng::for_case("raster::arbitrary_batch", case);
        let mut draw = |n: u32| (rng.next_u64() % n as u64) as u32;
        let exact = draw(3) == 0;
        let width = 1 + draw(24);
        let height = if exact { 1 << draw(5) } else { 1 + draw(24) };
        // A near plane at a power of two: a vertex at depth 0.125 lies
        // exactly on it (`10 - 9.875` is exact), and is drawn.
        let camera = Camera {
            fovy_deg: if exact { 90.0 } else { 20.0 + draw(120) as f32 },
            near: 0.125,
            ..cam(width, height)
        };
        let alternate = draw(4) == 0;
        let len = match case % 7 {
            0 => 0,
            1 => 1,
            2 => BLOCK - 1,
            3 => BLOCK,
            4 => BLOCK + 1,
            5 => 5 * BLOCK + 3,
            _ => draw(12 * BLOCK as u32) as usize,
        };
        let f = 1.0 / (camera.fovy_deg.to_radians() / 2.0).tan();
        let (fxy, cx, cy) = (
            f * height as f32 / 2.0,
            width as f32 / 2.0,
            height as f32 / 2.0,
        );
        let tris = (0..len)
            .map(|j| {
                let kind = if alternate {
                    [0, ON_EDGE][j % 2]
                } else {
                    draw(KINDS)
                };
                let screen = screen_triangle_of(kind, &mut draw, width, height);
                let v = screen.map(|s| {
                    let d = match draw(48) {
                        0 => 0.0625,
                        1 => 0.125,
                        2 => 0.0,
                        3 => -3.0,
                        4 => f32::NAN,
                        _ if exact => [1.0, 2.0, 4.0][draw(3) as usize],
                        _ => s.depth,
                    };
                    vec3((s.x - cx) * d / fxy, (cy - s.y) * d / fxy, 10.0 - d)
                });
                let mut axis = || draw(201) as f32 - 100.0;
                let normal = vec3(axis(), axis(), axis()).normalized();
                Triangle { v, normal }
            })
            .collect();
        (camera, tris)
    }

    type Plot = (u32, u32, u32, [u8; 3]);

    /// The batch oracle: over batches of every length around the block
    /// size, `raster_batch` and `raster_triangle` plot exactly what the
    /// kernel before them plotted, in the same order, with the same depth
    /// bits and colour, and count the same pixels.
    #[test]
    fn batch_kernel_matches_the_per_triangle_reference() {
        let cases = if cfg!(debug_assertions) { 1400 } else { 28_000 };
        let material = Material::default();
        let (mut covering, mut empty, mut clipped) = (0, 0, 0);
        let (mut near_mid_block, mut non_finite) = (0, 0);
        let (mut on_edge, mut at_area, mut one_after_many) = (0, 0, 0);
        for case in 0..cases {
            let (camera, tris) = arbitrary_batch(case);
            let (w, h) = (camera.width, camera.height);
            let (proj, reference) = (camera.projector(), ReferenceProjector::new(&camera));

            let mut want: Vec<Plot> = Vec::new();
            let mut want_n = 0;
            let mut got_single: Vec<Plot> = Vec::new();
            let (mut pending_near, mut after_many) = (false, false);
            for (i, t) in tris.iter().enumerate() {
                let before = want.len();
                let r = raster_triangle_reference(&reference, w, h, &material, t, |x, y, d, c| {
                    want.push((x, y, d.to_bits(), c))
                });
                want_n += r.unwrap_or(0);
                let g = raster_triangle(&proj, w, h, &material, t, |x, y, d, c| {
                    got_single.push((x, y, d.to_bits(), c))
                });
                assert_eq!(g, r, "case {case}: triangle {i} of {}", tris.len());

                let plotted = want.len() > before;
                covering += plotted as u32;
                empty += !plotted as u32;
                let off = |v: &Vec3| {
                    proj.project(*v)
                        .is_some_and(|s| s.x < 0.0 || s.x > w as f32)
                };
                clipped += (plotted && t.v.iter().any(off)) as u32;
                non_finite += t.v.iter().any(|v| !(v.x + v.y + v.z).is_finite()) as u32;
                // A near-plane reject followed, in its block, by a triangle
                // that plots.
                if i % BLOCK == 0 {
                    pending_near = false;
                }
                near_mid_block += (pending_near && plotted) as u32;
                pending_near |= t.v.iter().any(|v| reference.project(*v).is_none());

                // A 1 × 1 box with its centre exactly on an edge, or at
                // exactly the area threshold; and a plotting 1 × 1 box
                // right after, in its block, a larger box that plots.
                let (v, xs, ys, _, keep) = setup(&proj, w, h, t);
                let one = keep && xs.0 == xs.1 && ys.0 == ys.1;
                if one {
                    let [a, b, c] = v;
                    let (px, py) = (xs.0 as f32 + 0.5, ys.0 as f32 + 0.5);
                    let edge = |a: ScreenVertex, b: ScreenVertex| {
                        (b.x - a.x) * (py - a.y) - (px - a.x) * (b.y - a.y)
                    };
                    on_edge += [edge(a, b), edge(b, c), edge(c, a)].contains(&0.0) as u32;
                    let area = (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y);
                    at_area += (area.abs() == 1e-4) as u32;
                }
                if i % BLOCK == 0 {
                    after_many = false;
                }
                one_after_many += (after_many && one && plotted) as u32;
                after_many = keep && !one && plotted;
            }
            assert_eq!(want_n, want.len() as u64, "case {case}");
            assert_eq!(got_single, want, "case {case}: raster_triangle");

            let mut got: Vec<Plot> = Vec::new();
            let got_n = raster_batch(&proj, w, h, &material, &tris, |x, y, d, c| {
                got.push((x, y, d.to_bits(), c))
            });
            assert_eq!(got_n, want_n, "case {case}: {} triangles", tris.len());
            assert_eq!(got, want, "case {case}: {} triangles", tris.len());
        }
        // The property proves little unless many triangles plot, many do
        // not, some are clipped, and near-plane rejects fall mid-block.
        let floor = cases / 10;
        assert!(covering > floor * 10, "{covering} triangles cover a pixel");
        assert!(empty > floor * 10, "{empty} triangles cover none");
        assert!(clipped > floor, "{clipped} covering triangles are clipped");
        assert!(
            near_mid_block > floor,
            "{near_mid_block} near rejects mid-block"
        );
        assert!(non_finite > floor, "{non_finite} triangles are not finite");
        assert!(
            on_edge > floor,
            "{on_edge} 1 × 1 boxes with the centre on an edge"
        );
        assert!(
            at_area > floor / 4,
            "{at_area} 1 × 1 boxes at the area threshold"
        );
        assert!(
            one_after_many > floor,
            "{one_after_many} 1 × 1 boxes right after a larger one"
        );
    }

    /// The lane program against the scalar setup it replaced, lane by lane
    /// over the batches of [`arbitrary_batch`]: the same drawn decision;
    /// for a kept triangle, the same screen vertices bit for bit and the
    /// same spans; and for a box the lanes take as 1 × 1, the coverage and
    /// depth [`scan`] finds at its centre.
    #[test]
    fn lane_setup_matches_the_scalar_setup() {
        let cases = if cfg!(debug_assertions) { 700 } else { 14_000 };
        let mut ones = 0;
        let mut l = Lanes::<BLOCK>::new();
        for case in 0..cases {
            let (camera, tris) = arbitrary_batch(case);
            let (w, h, proj) = (camera.width, camera.height, camera.projector());
            for (b, block) in tris.chunks(BLOCK).enumerate() {
                l.project(&proj, w, h, block);
                for (i, t) in block.iter().enumerate() {
                    let at = || format!("case {case}, block {b}, lane {i}");
                    let (v, xs, ys, drawn, keep) = setup(&proj, w, h, t);
                    assert_eq!(l.drawn[i], drawn, "{}", at());
                    if !keep {
                        assert!(!l.kept[i] || !drawn, "{}", at());
                        continue;
                    }
                    // Bit for bit, but for the sign and payload of a NaN,
                    // which nothing plotted depends on.
                    let bits = |f: f32| if f.is_nan() { f32::NAN } else { f }.to_bits();
                    let lane = [0, 1, 2].map(|k| [l.x[k][i], l.y[k][i], l.z[k][i]].map(bits));
                    let want = v.map(|s| [s.x, s.y, s.depth].map(bits));
                    assert_eq!(lane, want, "{}", at());
                    let spans = (
                        span(l.first[0][i], l.last[0][i], w),
                        span(l.first[1][i], l.last[1][i], h),
                    );
                    let want = |(first, last): (i64, i64)| [first as u32, last as u32 + 1];
                    assert_eq!(spans, (want(xs), want(ys)), "{}", at());
                    // The lanes call a box 1 × 1 only if it is so before the
                    // viewport clamp too; any other goes to `scan`.
                    let one = xs.0 == xs.1 && ys.0 == ys.1;
                    assert!(one || !l.one[i], "{}", at());
                    if !l.one[i] {
                        assert!(l.kept[i], "{}", at());
                        continue;
                    }
                    let (xs, ys) = spans;
                    let mut hit = None;
                    super::scan(&Setup { v, xs, ys }, |_, _, d| hit = Some(d.to_bits()));
                    assert_eq!(l.kept[i], hit.is_some(), "{}", at());
                    if let Some(d) = hit {
                        assert_eq!(l.depth[i].to_bits(), d, "{}", at());
                        ones += 1;
                    }
                }
            }
        }
        assert!(ones > cases, "{ones} 1 × 1 boxes cover their centre");
    }

    /// Every `f32` worth distinguishing: zeros, subnormals, the 2^23 and
    /// 2^24 boundaries, i64 saturation, infinities and NaNs, each with its
    /// neighbours.
    fn special_floats() -> Vec<f32> {
        let mut v = vec![
            0.0,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            0.5,
            (1u32 << 23) as f32,
            (1u32 << 24) as f32,
            9.223_372e18, // 2^63
            1.0e19,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
            f32::from_bits(0x7fc0_0001),
        ];
        for i in 0..v.len() {
            let n = -v[i];
            v.push(n);
        }
        let mut around = Vec::new();
        for f in v {
            for d in 0..=64u32 {
                around.push(f32::from_bits(f.to_bits().wrapping_add(d)));
                around.push(f32::from_bits(f.to_bits().wrapping_sub(d)));
            }
        }
        around
    }

    fn check_floor_ceil(f: f32) {
        assert_eq!(
            floor_i64(f),
            f.floor() as i64,
            "floor({f:e}), bits {:#x}",
            f.to_bits()
        );
        assert_eq!(
            ceil_i64(f),
            f.ceil() as i64,
            "ceil({f:e}), bits {:#x}",
            f.to_bits()
        );
    }

    /// The viewport sides the span rule is checked at: the edges of `u32`,
    /// of `f32`'s whole numbers and of the viewports in use.
    const SIDES: [u32; 7] = [0, 1, 24, 512, 1 << 24, (1 << 24) + 1, u32::MAX];

    /// The lane span rule on the box `[lo, hi]` in `0..n`, for every `n` of
    /// [`SIDES`] and its `end`, against the integer one: the same decision
    /// and, if kept, the same span, which is one pixel if the lanes call it
    /// 1 × 1.
    fn check_spans(lo: f32, hi: f32, ends: &[f32; SIDES.len()]) {
        let (first, last) = centres(lo, hi);
        for (n, &end) in SIDES.into_iter().zip(ends) {
            let want = centre_span(lo, hi, n);
            let kept = in_view(first, last, end);
            let at = || {
                format!(
                    "[{lo:e}, {hi:e}] ({:#x}, {:#x}), n = {n}",
                    lo.to_bits(),
                    hi.to_bits()
                )
            };
            assert_eq!(kept, want.0 <= want.1, "kept: {}", at());
            if kept {
                let [a, b] = span(first, last, n);
                assert_eq!((a as i64, b as i64 - 1), want, "span: {}", at());
                assert!(first != last || want.0 == want.1, "1 × 1: {}", at());
            }
        }
    }

    /// The lane span rule (whole-`f32` centres, NaN to 0, clamped in
    /// float) keeps exactly the boxes the integer rule kept, with the same
    /// spans, on every value the rounding could go wrong on; and the
    /// integer floor and ceil it is checked against agree with libm's.
    #[test]
    fn lane_span_rule_matches_the_integer_spans() {
        let ends = SIDES.map(last_index);
        let specials = special_floats();
        for &f in &specials {
            check_floor_ceil(f);
        }
        // Every pair of special values as a box; a sample in debug builds.
        let stride = if cfg!(debug_assertions) { 37 } else { 1 };
        for &lo in specials.iter().step_by(stride) {
            for &hi in &specials {
                check_spans(lo, hi, &ends);
            }
        }
        // Two ulps either side of every integer up to 2^24 in magnitude
        // and of every half-integer (there are none from 2^23 on), dealt
        // to four threads; a sample of them in debug builds.
        let stride = if cfg!(debug_assertions) { 4099 } else { 1 };
        let (limit, threads) = (1i32 << 24, 4);
        let check = |k: i32| {
            let halves = k.unsigned_abs() < 1 << 23;
            for base in [k as f32, k as f32 + 0.5].iter().take(1 + halves as usize) {
                let bits = base.to_bits();
                let near = (0..=2).flat_map(|d| [bits.wrapping_add(d), bits.wrapping_sub(d)]);
                for f in near.map(f32::from_bits) {
                    check_floor_ceil(f);
                    check_spans(f, f, &ends);
                }
            }
        };
        std::thread::scope(|s| {
            for t in 0..threads {
                let ks = (-limit + t * stride..=limit).step_by((stride * threads) as usize);
                s.spawn(move || ks.for_each(check));
            }
        });
    }
}
