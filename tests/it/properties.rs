//! Property-based tests on the core invariants, spanning crates.

use proptest::prelude::*;

use isosurf::{vec3, ZBuffer};
use volume::{hilbert_coords, hilbert_index, ChunkId, ChunkLayout, Dims, RectGrid};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hilbert encode/decode is a bijection at arbitrary orders.
    #[test]
    fn hilbert_roundtrip(bits in 1u32..=10, seed in any::<u64>()) {
        let side = 1u32 << bits;
        let mut s = seed;
        for _ in 0..16 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let x = (s >> 10) as u32 % side;
            let y = (s >> 30) as u32 % side;
            let z = (s >> 50) as u32 % side;
            let idx = hilbert_index([x, y, z], bits);
            prop_assert_eq!(hilbert_coords(idx, bits), [x, y, z]);
        }
    }

    /// Chunk layouts tile the cell grid exactly, for arbitrary shapes.
    #[test]
    fn chunks_tile_exactly(
        nx in 3u32..20, ny in 3u32..20, nz in 3u32..20,
        cx in 1u32..4, cy in 1u32..4, cz in 1u32..4,
    ) {
        prop_assume!(nx > cx && ny > cy && nz > cz);
        let layout = ChunkLayout::new(Dims::new(nx, ny, nz), (cx, cy, cz));
        let mut covered = 0u64;
        for info in layout.all() {
            covered += info.cell_extent.0 as u64
                * info.cell_extent.1 as u64
                * info.cell_extent.2 as u64;
        }
        prop_assert_eq!(covered, layout.grid.cells());
    }

    /// Z-buffer merging is commutative: fold order never matters.
    #[test]
    fn zbuffer_merge_commutes(plots in prop::collection::vec(
        (0u32..8, 0u32..8, 0.0f32..100.0, any::<[u8; 3]>()), 1..40))
    {
        let mut a = ZBuffer::new(8, 8);
        let mut b = ZBuffer::new(8, 8);
        for (i, &(x, y, d, rgb)) in plots.iter().enumerate() {
            if i % 2 == 0 { a.plot(x, y, d, rgb); } else { b.plot(x, y, d, rgb); }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab.depth, ba.depth);
    }

    /// The two hidden-surface algorithms render random fields identically.
    #[test]
    fn active_pixel_equals_zbuffer_on_random_fields(seed in any::<u64>(), iso in 0.2f32..0.8) {
        let ds = volume::Dataset::generate(Dims::new(13, 13, 13), (2, 2, 2), 4, seed);
        let field = ds.field(seed as u32 % 4, (seed >> 8) as u32 % 10);
        let cam = isosurf::Camera::framing(field.dims, 64, 64);
        let m = isosurf::Material::default();
        let zi = isosurf::render_zbuffer(&field, &cam, iso, &m);
        for cap in [5usize, 333] {
            let ai = isosurf::render_active_pixel(&field, &cam, iso, &m, cap);
            prop_assert_eq!(zi.diff_pixels(&ai), 0);
        }
    }

    /// Extraction from chunks (with shared boundary planes) produces the
    /// same number of triangles as whole-grid extraction, at any isovalue.
    #[test]
    fn chunked_extraction_matches_whole(seed in any::<u64>(), iso in 0.2f32..0.8) {
        let ds = volume::Dataset::generate(Dims::new(13, 13, 13), (2, 2, 2), 4, seed);
        let field = ds.field(0, 0);
        let mut whole = Vec::new();
        isosurf::extract(&field, (0, 0, 0), iso, &mut whole);
        let layout = ds.layout();
        let mut chunked = Vec::new();
        for i in 0..layout.count() {
            let info = layout.info(ChunkId(i));
            let sub = layout.extract(&field, ChunkId(i));
            isosurf::extract(&sub, info.cell_origin, iso, &mut chunked);
        }
        prop_assert_eq!(whole.len(), chunked.len());
    }

    /// Triangle normals are unit length and perpendicular to the face.
    #[test]
    fn extracted_normals_are_unit_and_orthogonal(seed in any::<u64>()) {
        let g = RectGrid::from_fn(Dims::new(9, 9, 9), |x, y, z| {
            let s = seed as f32 % 97.0;
            ((x as f32 * 0.7 + s).sin() + (y as f32 * 0.9).cos() + (z as f32 * 0.5 + s).sin()) / 3.0
        });
        let mut tris = Vec::new();
        isosurf::extract(&g, (0, 0, 0), 0.1, &mut tris);
        for t in &tris {
            let n = t.normal;
            prop_assert!((n.length() - 1.0).abs() < 1e-3);
            let e1 = t.v[1] - t.v[0];
            let e2 = t.v[2] - t.v[0];
            let geo = e1.cross(e2).normalized();
            prop_assert!((geo.dot(n).abs() - 1.0).abs() < 1e-2);
        }
    }

    /// Encode/decode of chunk payloads round-trips arbitrary grids.
    #[test]
    fn chunk_codec_roundtrip(nx in 2u32..6, ny in 2u32..6, nz in 2u32..6, seed in any::<u32>()) {
        let g = RectGrid::from_fn(Dims::new(nx, ny, nz), |x, y, z| {
            (x ^ y ^ z ^ seed) as f32 * 0.125
        });
        let bytes = volume::encode_chunk(&g);
        prop_assert_eq!(volume::decode_chunk(&bytes), Some(g));
    }
}

#[test]
fn fill_triangle_never_plots_outside_viewport() {
    // Deterministic sweep over awkward screen-space triangles.
    use isosurf::camera::ScreenVertex;
    let sv = |p: (f32, f32)| ScreenVertex {
        x: p.0,
        y: p.1,
        depth: 1.0,
    };
    let inside = |w: u32, h: u32| {
        move |x: u32, y: u32, _| assert!(x < w && y < h, "pixel ({x},{y}) outside {w}x{h}")
    };
    let cases = [
        [(-10.0, -10.0), (100.0, 5.0), (5.0, 100.0)],
        [(31.5, 31.5), (32.5, 31.5), (32.0, 32.5)],
        [(0.0, 0.0), (64.0, 0.0), (0.0, 64.0)],
        [(-5.0, 70.0), (70.0, -5.0), (70.0, 70.0)],
        [(-1e30, -1e30), (1e30, -1e30), (0.0, 1e30)],
        [(f32::NEG_INFINITY, 0.0), (f32::INFINITY, 0.0), (32.0, 64.0)],
        [(f32::NAN, 32.0), (0.0, 0.0), (64.0, 64.0)],
    ];
    for verts in cases {
        let [a, b, c] = verts.map(sv);
        isosurf::fill_triangle(a, b, c, 64, 64, inside(64, 64));
    }
    // Every triangle whose coordinates are drawn from the extremes the
    // span clamp sees (±1e30, ±∞, NaN) and a few ordinary values, in a
    // 1-pixel and a 4 × 3 viewport.
    let values = [
        -1e30,
        1e30,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        0.5,
        2.0,
    ];
    let mut plotted = [0u64; 2];
    for (slot, (w, h)) in [(1, 1), (4, 3)].into_iter().enumerate() {
        for i in 0..values.len().pow(6) {
            let mut digits = i;
            let mut next = || {
                let v = values[digits % values.len()];
                digits /= values.len();
                v
            };
            let mut vertex = || sv((next(), next()));
            let (a, b, c) = (vertex(), vertex(), vertex());
            plotted[slot] += isosurf::fill_triangle(a, b, c, w, h, inside(w, h));
        }
    }
    assert!(plotted.iter().all(|&n| n > 0), "plotted {plotted:?}");
}

#[test]
fn degenerate_normals_never_escape() {
    // A constant field with a plane exactly at iso must not emit NaN
    // normals (or anything at all with strict > comparison).
    let g = RectGrid::filled(Dims::new(5, 5, 5), 0.5);
    let mut tris = Vec::new();
    isosurf::extract(&g, (0, 0, 0), 0.5, &mut tris);
    for t in &tris {
        assert!(t.normal.length().is_finite());
    }
    let _ = vec3(0.0, 0.0, 0.0);
}
