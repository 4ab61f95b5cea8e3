//! Shared scanline rasterization: triangle transform, projection, clipping
//! to the viewport, and depth-interpolated pixel generation.
//!
//! Both hidden-surface removal algorithms (the dense z-buffer and the
//! sparse active-pixel renderer) consume the *same* pixel stream produced
//! here, which is what guarantees they render identical images — the
//! consistency property the paper requires of the merge stage.

use crate::camera::{Projector, ScreenVertex};
use crate::math::{vec3, Vec3};
use crate::mc::Triangle;
use crate::shade::{shade, Material};

/// Counters the cost model consumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RasterStats {
    /// Triangles received (pre-clip).
    pub triangles_in: u64,
    /// Triangles surviving projection/clip.
    pub triangles_drawn: u64,
    /// Pixels generated (depth-test candidates).
    pub pixels: u64,
}

/// Transform, project, clip, shade, and scan-convert `tri`, invoking
/// `plot(x, y, depth, rgb)` for every covered pixel inside the
/// `width × height` viewport. Returns pixels generated, or `None` if the
/// triangle was rejected (behind the near plane or fully off-screen).
pub fn raster_triangle(
    proj: &Projector,
    width: u32,
    height: u32,
    material: &Material,
    tri: &Triangle,
    mut plot: impl FnMut(u32, u32, f32, [u8; 3]),
) -> Option<u64> {
    // Near-plane policy: reject triangles with any vertex behind the near
    // plane. The experiment cameras sit well outside the volume, so this
    // never triggers there; it keeps the kernel simple and both renderers
    // identical.
    let s0 = proj.project(tri.v[0])?;
    let s1 = proj.project(tri.v[1])?;
    let s2 = proj.project(tri.v[2])?;

    // Trivial reject when the bounding box misses the viewport.
    let min_x = s0.x.min(s1.x).min(s2.x);
    let max_x = s0.x.max(s1.x).max(s2.x);
    let min_y = s0.y.min(s1.y).min(s2.y);
    let max_y = s0.y.max(s1.y).max(s2.y);
    if max_x < 0.0 || min_x >= width as f32 || max_y < 0.0 || min_y >= height as f32 {
        return None;
    }

    // Most triangles here are smaller than a pixel and cover no centre:
    // shade on the first covered pixel, not before.
    let mut rgb = None;
    let pixels = fill_triangle(s0, s1, s2, width, height, |x, y, depth| {
        let rgb = *rgb.get_or_insert_with(|| shade(material, tri.normal));
        plot(x, y, depth, rgb);
    });
    Some(pixels)
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
    mut plot: impl FnMut(u32, u32, f32),
) -> u64 {
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

    // Thin triangles usually miss every centre on one axis; find that out
    // before paying for the other.
    let xs = centre_span(a.x.min(b.x).min(c.x), a.x.max(b.x).max(c.x), width);
    if xs.is_empty() {
        return 0;
    }
    let ys = centre_span(a.y.min(b.y).min(c.y), a.y.max(b.y).max(c.y), height);

    let mut count = 0u64;
    for y in ys {
        let py = y as f32 + 0.5;
        for x in xs.clone() {
            let px = x as f32 + 0.5;
            // Barycentric coordinates via edge functions.
            let w0 = (b.x - a.x) * (py - a.y) - (px - a.x) * (b.y - a.y); // weight of c
            let w1 = (c.x - b.x) * (py - b.y) - (px - b.x) * (c.y - b.y); // weight of a
            let w2 = (a.x - c.x) * (py - c.y) - (px - c.x) * (a.y - c.y); // weight of b
            if w0 >= 0.0 && w1 >= 0.0 && w2 >= 0.0 {
                let depth = (w1 * a.depth + w2 * b.depth + w0 * c.depth) / area;
                plot(x as u32, y as u32, depth);
                count += 1;
            }
        }
    }
    count
}

/// Pixels `i` of `0..n` whose centre `i + 0.5` lies in `[lo, hi]`.
fn centre_span(lo: f32, hi: f32, n: u32) -> std::ops::RangeInclusive<i64> {
    // `lo <= i + 0.5 <= hi` is `ceil(lo - 0.5) <= i <= floor(hi - 0.5)`.
    let first = (lo - 0.5).ceil().max(0.0) as i64;
    let last = ((hi - 0.5).floor() as i64).min(n as i64 - 1);
    first..=last
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
        (tri, width, height)
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
}
