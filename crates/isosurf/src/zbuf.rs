//! Dense z-buffer hidden-surface removal (the paper's **Z-buffer
//! rendering** algorithm).
//!
//! Each entry stores `(depth, color)` for one pixel of the image plane.
//! Raster filter copies each hold a full z-buffer, flush it wholesale at
//! end-of-work, and the merge filter folds incoming buffers in with a
//! per-pixel depth test. Merging is commutative and associative, so the
//! final image is independent of copy count and arrival order — the
//! "generalized reduction" property.

use crate::image::Image;

/// Wire bytes per z-buffer entry when shipped to the merge filter
/// (f32 depth + RGB color + pad), matching the paper's observation that
/// z-buffer merging transmits *every* pixel location, active or not.
pub const ZBUF_ENTRY_WIRE_BYTES: u64 = 8;

/// Depth value of an untouched (inactive) pixel.
pub const EMPTY_DEPTH: f32 = f32::INFINITY;

/// A dense depth+color buffer over the whole image plane.
#[derive(Debug, Clone, PartialEq)]
pub struct ZBuffer {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Per-pixel depth, row-major; `EMPTY_DEPTH` marks inactive pixels.
    pub depth: Vec<f32>,
    /// Per-pixel color, row-major.
    pub color: Vec<[u8; 3]>,
}

impl ZBuffer {
    /// An empty buffer (all pixels inactive).
    pub fn new(width: u32, height: u32) -> Self {
        let n = width as usize * height as usize;
        ZBuffer {
            width,
            height,
            depth: vec![EMPTY_DEPTH; n],
            color: vec![[0, 0, 0]; n],
        }
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y as usize * self.width as usize + x as usize
    }

    /// Depth-test-and-set one pixel; keeps the nearest surface. Returns
    /// whether the candidate won.
    #[inline]
    pub fn plot(&mut self, x: u32, y: u32, depth: f32, rgb: [u8; 3]) -> bool {
        let i = self.idx(x, y);
        if depth < self.depth[i] {
            self.depth[i] = depth;
            self.color[i] = rgb;
            true
        } else {
            false
        }
    }

    /// Fold `other` into `self`, keeping the nearest surface per pixel
    /// (strict `<`: ties keep `self`).
    pub fn merge(&mut self, other: &ZBuffer) {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "size mismatch"
        );
        for i in 0..self.depth.len() {
            if other.depth[i] < self.depth[i] {
                self.depth[i] = other.depth[i];
                self.color[i] = other.color[i];
            }
        }
    }

    /// Number of active (written) pixels.
    pub fn active_pixels(&self) -> u64 {
        self.depth.iter().filter(|&&d| d != EMPTY_DEPTH).count() as u64
    }

    /// Total wire bytes to ship this buffer (dense: every pixel).
    pub fn wire_bytes(&self) -> u64 {
        self.depth.len() as u64 * ZBUF_ENTRY_WIRE_BYTES
    }

    /// Extract the final image over `background`.
    pub fn to_image(&self, background: [u8; 3]) -> Image {
        let mut img = Image::new(self.width, self.height, background);
        for (i, &d) in self.depth.iter().enumerate() {
            if d != EMPTY_DEPTH {
                img.data[i] = self.color[i];
            }
        }
        img
    }
}

/// Composite a row-major `(depth, color)` span into `dst` starting at row
/// `row0` *of `dst`*, keeping the nearest surface per pixel (strict `<`,
/// ties keep `dst` — the same test every other merge kernel applies, so
/// tile-local compositing stays bit-identical to a whole-image fold).
///
/// This is the band kernel of tile-owned compositing: a merge copy holds
/// one small [`ZBuffer`] per owned tile and folds incoming row-strip
/// fragments at their tile-local offset. The span must be whole rows
/// (`depth.len()` a multiple of `dst.width`).
pub fn merge_rows(dst: &mut ZBuffer, row0: u32, depth: &[f32], color: &[[u8; 3]]) {
    assert_eq!(depth.len(), color.len(), "span length mismatch");
    assert!(
        depth.len().is_multiple_of(dst.width.max(1) as usize),
        "span must be whole rows"
    );
    let base = row0 as usize * dst.width as usize;
    assert!(
        base + depth.len() <= dst.depth.len(),
        "span exceeds destination"
    );
    for (i, &d) in depth.iter().enumerate() {
        if d != EMPTY_DEPTH && d < dst.depth[base + i] {
            dst.depth[base + i] = d;
            dst.color[base + i] = color[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plot_keeps_nearest() {
        let mut zb = ZBuffer::new(4, 4);
        assert!(zb.plot(1, 1, 5.0, [10, 0, 0]));
        assert!(!zb.plot(1, 1, 7.0, [0, 20, 0])); // farther: rejected
        assert!(zb.plot(1, 1, 3.0, [0, 0, 30])); // nearer: wins
        assert_eq!(zb.color[5], [0, 0, 30]);
        assert_eq!(zb.active_pixels(), 1);
    }

    #[test]
    fn merge_keeps_nearest_per_pixel() {
        let mut a = ZBuffer::new(2, 1);
        let mut b = ZBuffer::new(2, 1);
        a.plot(0, 0, 1.0, [1, 1, 1]);
        a.plot(1, 0, 9.0, [9, 9, 9]);
        b.plot(0, 0, 5.0, [5, 5, 5]);
        b.plot(1, 0, 2.0, [2, 2, 2]);
        a.merge(&b);
        assert_eq!(a.color[0], [1, 1, 1]);
        assert_eq!(a.color[1], [2, 2, 2]);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = ZBuffer::new(3, 3);
        let mut b = ZBuffer::new(3, 3);
        a.plot(0, 0, 1.0, [1, 0, 0]);
        a.plot(1, 1, 4.0, [2, 0, 0]);
        b.plot(1, 1, 3.0, [3, 0, 0]);
        b.plot(2, 2, 7.0, [4, 0, 0]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative() {
        let mut bufs: Vec<ZBuffer> = (0..3).map(|_| ZBuffer::new(2, 2)).collect();
        bufs[0].plot(0, 0, 3.0, [1, 0, 0]);
        bufs[1].plot(0, 0, 2.0, [2, 0, 0]);
        bufs[2].plot(0, 0, 1.0, [3, 0, 0]);
        bufs[1].plot(1, 1, 5.0, [4, 0, 0]);

        let mut left = bufs[0].clone();
        left.merge(&bufs[1]);
        left.merge(&bufs[2]);

        let mut right = bufs[1].clone();
        right.merge(&bufs[2]);
        let mut right_total = bufs[0].clone();
        right_total.merge(&right);

        assert_eq!(left, right_total);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn merge_size_mismatch_panics() {
        let mut a = ZBuffer::new(2, 2);
        let b = ZBuffer::new(3, 2);
        a.merge(&b);
    }

    #[test]
    fn to_image_uses_background_for_inactive() {
        let mut zb = ZBuffer::new(2, 1);
        zb.plot(0, 0, 1.0, [255, 0, 0]);
        let img = zb.to_image([7, 8, 9]);
        assert_eq!(img.data[0], [255, 0, 0]);
        assert_eq!(img.data[1], [7, 8, 9]);
    }

    /// Deterministic pseudo-random buffer with duplicate depths so ties
    /// actually occur.
    fn noisy(w: u32, h: u32, seed: u64) -> ZBuffer {
        let mut zb = ZBuffer::new(w, h);
        let mut s = seed;
        for i in 0..zb.depth.len() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (s >> 33) as u32;
            if !r.is_multiple_of(3) {
                // Coarse depth quantization → plenty of exact ties.
                zb.depth[i] = (r % 16) as f32;
                zb.color[i] = [(r >> 8) as u8, (r >> 16) as u8, (r >> 24) as u8];
            }
        }
        zb
    }

    #[test]
    fn merge_rows_matches_whole_buffer_merge() {
        // Splitting a buffer into row strips and compositing each strip at
        // its offset must equal merging the whole buffer at once.
        let base = noisy(16, 12, 40);
        let other = noisy(16, 12, 41);
        let mut whole = base.clone();
        whole.merge(&other);
        for strip in [1u32, 3, 5, 12] {
            let mut tiled = base.clone();
            let mut y = 0u32;
            while y < 12 {
                let rows = strip.min(12 - y);
                let a = y as usize * 16;
                let b = (y + rows) as usize * 16;
                merge_rows(&mut tiled, y, &other.depth[a..b], &other.color[a..b]);
                y += rows;
            }
            assert_eq!(whole, tiled, "strip={strip}");
        }
    }

    #[test]
    fn merge_rows_ties_keep_destination() {
        let mut dst = ZBuffer::new(2, 2);
        dst.plot(0, 1, 4.0, [1, 1, 1]);
        let depth = [4.0, EMPTY_DEPTH];
        let color = [[9, 9, 9], [0, 0, 0]];
        merge_rows(&mut dst, 1, &depth, &color);
        assert_eq!(dst.color[2], [1, 1, 1], "equal depth keeps destination");
    }

    #[test]
    fn wire_bytes_are_dense() {
        let zb = ZBuffer::new(16, 16);
        assert_eq!(zb.wire_bytes(), 256 * ZBUF_ENTRY_WIRE_BYTES);
        // Independent of activity:
        let mut zb2 = ZBuffer::new(16, 16);
        zb2.plot(0, 0, 1.0, [1, 1, 1]);
        assert_eq!(zb2.wire_bytes(), zb.wire_bytes());
    }
}
