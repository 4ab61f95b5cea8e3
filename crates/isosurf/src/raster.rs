//! Shared scanline rasterization: triangle transform, projection, clipping
//! to the viewport, and depth-interpolated pixel generation.
//!
//! Both hidden-surface removal algorithms (the dense z-buffer and the
//! sparse active-pixel renderer) consume the *same* pixel stream produced
//! here, which is what guarantees they render identical images — the
//! consistency property the paper requires of the merge stage.
//!
//! [`raster_batch`] is the kernel: most triangles of an extracted surface
//! are smaller than a pixel and cover no pixel centre, so it sets up a
//! block of triangles in one branch-free pass and scans only those whose
//! bounding box holds a centre. [`raster_triangle`] and [`fill_triangle`]
//! run the same setup and scan on one triangle.

use crate::camera::{Projector, ScreenVertex};
use crate::math::{vec3, Vec3};
use crate::mc::Triangle;
use crate::shade::{shade, Material};

/// Triangles [`raster_batch`] sets up per pass. Its scratch, one
/// [`Setup`] and index a slot, is 448 bytes of stack: every raster copy's
/// thread pays it, and a fan-out graph runs hundreds of them.
const BLOCK: usize = 8;

/// A triangle after setup: its screen vertices and the half-open ranges
/// of pixel columns and rows whose centres lie in its bounding box.
#[derive(Debug, Clone, Copy, Default)]
struct Setup {
    v: [ScreenVertex; 3],
    xs: [u32; 2],
    ys: [u32; 2],
}

impl Setup {
    /// The setup of `v` with the inclusive centre spans `xs` and `ys`. Only
    /// a setup whose spans are both non-empty is scanned, and such a span
    /// lies in `0..n`, so it fits a `u32`.
    #[inline(always)]
    fn new(v: [ScreenVertex; 3], xs: (i64, i64), ys: (i64, i64)) -> Setup {
        let span = |(first, last): (i64, i64)| [first as u32, (last + 1) as u32];
        Setup {
            v,
            xs: span(xs),
            ys: span(ys),
        }
    }
}

/// Transform, project, clip, shade, and scan-convert every triangle of
/// `tris` in order, invoking `plot(x, y, depth, rgb)` for every covered
/// pixel inside the `width × height` viewport. Returns pixels generated.
///
/// The plot sequence is exactly that of [`raster_triangle`] called on each
/// triangle in turn. Per block of triangles, a first pass projects and
/// boxes every triangle without a branch and keeps, in order, those in
/// front of the near plane whose box holds a pixel centre; a second pass
/// scans only the kept ones, from the screen vertices the first stored.
pub fn raster_batch(
    proj: &Projector,
    width: u32,
    height: u32,
    material: &Material,
    tris: &[Triangle],
    mut plot: impl FnMut(u32, u32, f32, [u8; 3]),
) -> u64 {
    let mut kept = [(0u8, Setup::default()); BLOCK];
    let mut pixels = 0;
    for block in tris.chunks(BLOCK) {
        // Every slot is written; only a kept triangle advances `n`.
        let mut n = 0;
        for (i, tri) in block.iter().enumerate() {
            let (s, _, keep) = setup(proj, width, height, tri);
            kept[n] = (i as u8, s);
            n += keep as usize;
        }
        for (i, s) in &kept[..n] {
            pixels += draw(s, material, block[*i as usize].normal, &mut plot);
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
    let (s, drawn, keep) = setup(proj, width, height, tri);
    drawn.then(|| {
        if keep {
            draw(&s, material, tri.normal, &mut plot)
        } else {
            0
        }
    })
}

/// Project and box `tri`, without a branch. Returns the setup, whether
/// the triangle is drawn at all, and whether it is kept: drawn, with a
/// pixel centre in its box on both axes.
///
/// Near-plane policy: a triangle with any vertex behind the near plane is
/// not drawn. The experiment cameras sit well outside the volume, so this
/// never triggers there; it keeps the kernel simple and both renderers
/// identical. Nor is a triangle whose box misses the viewport.
#[inline(always)]
fn setup(proj: &Projector, width: u32, height: u32, tri: &Triangle) -> (Setup, bool, bool) {
    let (a, behind_a) = proj.project_any(tri.v[0]);
    let (b, behind_b) = proj.project_any(tri.v[1]);
    let (c, behind_c) = proj.project_any(tri.v[2]);
    let (lo_x, hi_x) = (a.x.min(b.x).min(c.x), a.x.max(b.x).max(c.x));
    let (lo_y, hi_y) = (a.y.min(b.y).min(c.y), a.y.max(b.y).max(c.y));
    let off_screen = (hi_x < 0.0) | (lo_x >= width as f32) | (hi_y < 0.0) | (lo_y >= height as f32);
    let drawn = !(behind_a | behind_b | behind_c | off_screen);
    let (xs, ys) = (
        centre_span(lo_x, hi_x, width),
        centre_span(lo_y, hi_y, height),
    );
    let keep = drawn & (xs.0 <= xs.1) & (ys.0 <= ys.1);
    (Setup::new([a, b, c], xs, ys), drawn, keep)
}

/// [`scan`] with the triangle's flat shade. Most triangles here are
/// smaller than a pixel and cover no centre: shade on the first covered
/// pixel, not before.
#[inline(always)]
fn draw(
    s: &Setup,
    material: &Material,
    normal: Vec3,
    plot: &mut impl FnMut(u32, u32, f32, [u8; 3]),
) -> u64 {
    let mut rgb = None;
    scan(s, |x, y, depth| {
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
    let xs = centre_span(a.x.min(b.x).min(c.x), a.x.max(b.x).max(c.x), width);
    let ys = centre_span(a.y.min(b.y).min(c.y), a.y.max(b.y).max(c.y), height);
    if xs.0 > xs.1 || ys.0 > ys.1 {
        return 0;
    }
    scan(&Setup::new([a, b, c], xs, ys), plot)
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

/// Pixels `i` of `0..n` whose centre `i + 0.5` lies in `[lo, hi]`, as the
/// inclusive `(first, last)`; empty when `first > last`.
#[inline(always)]
fn centre_span(lo: f32, hi: f32, n: u32) -> (i64, i64) {
    // `lo <= i + 0.5 <= hi` is `ceil(lo - 0.5) <= i <= floor(hi - 0.5)`.
    (
        ceil_i64(lo - 0.5).max(0),
        floor_i64(hi - 0.5).min(n as i64 - 1),
    )
}

/// `f.floor() as i64` (saturating, NaN to 0) in integer arithmetic: on the
/// baseline x86-64 target, without SSE4.1's `roundss`, `f32::floor` is a
/// call into libm.
#[inline(always)]
fn floor_i64(f: f32) -> i64 {
    // Truncation rounds toward zero: below zero that is one too high
    // unless `f` is whole. Where `f` has a fraction (|f| < 2^23), `t as f32`
    // is exact; where it is whole and in range, `t as f32 == f`; beyond the
    // range, `t` is saturated and stays so.
    let t = f as i64;
    t.saturating_sub((f < t as f32) as i64)
}

/// `f.ceil() as i64` (saturating, NaN to 0); see [`floor_i64`].
#[inline(always)]
fn ceil_i64(f: f32) -> i64 {
    let t = f as i64;
    t.saturating_add((f > t as f32) as i64)
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
    /// non-finite coordinates.
    fn arbitrary_screen_triangle(case: u32) -> ([ScreenVertex; 3], u32, u32) {
        let mut rng = proptest::TestRng::for_case("raster::arbitrary_screen_triangle", case);
        let mut draw = |n: u32| (rng.next_u64() % n as u64) as u32;
        let (width, height) = (1 + draw(24), 1 + draw(24));
        (screen_triangle(&mut draw, width, height), width, height)
    }

    /// A screen triangle of one of the kinds above, for a `width × height`
    /// viewport, from `draw(n)` (uniform in `0..n`).
    fn screen_triangle(
        mut draw: impl FnMut(u32) -> u32,
        width: u32,
        height: u32,
    ) -> [ScreenVertex; 3] {
        let kind = draw(6);
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
        let mut vertex = || ScreenVertex {
            x: coord(0),
            y: coord(1),
            depth: 0.0,
        };
        let mut tri = [vertex(), vertex(), vertex()];
        for v in &mut tri {
            v.depth = 1.0 + draw(1000) as f32 / 8.0;
        }
        tri
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
    /// products tie).
    #[test]
    fn tight_scan_matches_the_rounded_out_reference() {
        let (mut covering, mut empty, mut clipped) = (0, 0, 0);
        for case in 0..4096 {
            let ([a, b, c], w, h) = arbitrary_screen_triangle(case);
            let (want, want_n) = scan(|p| fill_triangle_reference(a, b, c, w, h, p));
            let (got, got_n) = scan(|p| fill_triangle(a, b, c, w, h, p));
            assert_eq!(got_n, got.len() as u64, "case {case}");
            assert_eq!(want_n, want.len() as u64, "case {case}");

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
    fn arbitrary_batch(case: u32) -> (Camera, Vec<Triangle>) {
        let mut rng = proptest::TestRng::for_case("raster::arbitrary_batch", case);
        let mut draw = |n: u32| (rng.next_u64() % n as u64) as u32;
        let (width, height) = (1 + draw(24), 1 + draw(24));
        // A near plane at a power of two: a vertex at depth 0.125 lies
        // exactly on it (`10 - 9.875` is exact), and is drawn.
        let camera = Camera {
            fovy_deg: 20.0 + draw(120) as f32,
            near: 0.125,
            ..cam(width, height)
        };
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
            .map(|_| {
                let screen = screen_triangle(&mut draw, width, height);
                let v = screen.map(|s| {
                    let d = match draw(48) {
                        0 => 0.0625,
                        1 => 0.125,
                        2 => 0.0,
                        3 => -3.0,
                        4 => f32::NAN,
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
        for case in 0..cases {
            let (camera, tris) = arbitrary_batch(case);
            let (w, h) = (camera.width, camera.height);
            let (proj, reference) = (camera.projector(), ReferenceProjector::new(&camera));

            let mut want: Vec<Plot> = Vec::new();
            let mut want_n = 0;
            let mut got_single: Vec<Plot> = Vec::new();
            let mut pending_near = false;
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

    /// The integer floor and ceil agree with libm's on every value the
    /// rounding could go wrong on, and so do the clamped centre spans
    /// built from them.
    #[test]
    fn integer_floor_and_ceil_match_libm() {
        for f in special_floats() {
            check_floor_ceil(f);
            for n in [0, 1, 24, 512, u32::MAX] {
                let want = centre_span_libm(f, f, n);
                assert_eq!(
                    centre_span(f, f, n),
                    (*want.start(), *want.end()),
                    "centre_span({f:e}, n = {n})"
                );
            }
        }
        // Two ulps either side of every integer up to 2^24 in magnitude
        // and of every half-integer (there are none from 2^23 on); a
        // sample of them in debug builds.
        let stride = if cfg!(debug_assertions) { 4099 } else { 1 };
        let limit = 1i32 << 24;
        for k in (-limit..=limit).step_by(stride) {
            let halves = k.unsigned_abs() < 1 << 23;
            for base in [k as f32, k as f32 + 0.5]
                .into_iter()
                .take(1 + halves as usize)
            {
                for d in 0..=2 {
                    check_floor_ceil(f32::from_bits(base.to_bits().wrapping_add(d)));
                    check_floor_ceil(f32::from_bits(base.to_bits().wrapping_sub(d)));
                }
            }
        }
        for k in [-limit, -(1 << 23), -1, 0, 1, 1 << 23, limit] {
            for base in [k as f32, k as f32 + 0.5] {
                let want = centre_span_libm(base, base, 1 << 25);
                assert_eq!(
                    centre_span(base, base, 1 << 25),
                    (*want.start(), *want.end())
                );
            }
        }
    }
}
