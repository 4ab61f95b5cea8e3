//! Tile math and the producer-side splitter for tile-owned compositing.
//!
//! The output image is partitioned into fixed **tiles** — full-width row
//! strips of `tile_rows` rows (the last tile may be shorter). Under the
//! tile-hash writer policy each merge copy set owns the tiles congruent to
//! its set index, so compositing parallelizes across disjoint screen
//! regions instead of across buffers. The [`TileSplitter`] runs inside the
//! raster filter and cuts every outgoing partial result at tile
//! boundaries, so each shipped fragment falls inside exactly one tile and
//! can be routed with [`FilterCtx::write_tile`](datacutter::FilterCtx::write_tile).
//!
//! All split buffers draw from per-copy [`BufferPool`]s, so after warm-up
//! splitting allocates nothing: consumers dropping a fragment recycle its
//! buffer back to the splitter that produced it.

use isosurf::WinningPixel;

use crate::payload::{BandPools, RaOut};
use crate::pool::BufferPool;

/// Rows per tile for a `tile_size` knob over an image of `height` rows,
/// clamped to `[1, height]`.
pub fn tile_rows(tile_size: u32, height: u32) -> u32 {
    tile_size.clamp(1, height.max(1))
}

/// Number of tiles covering `height` rows at `tile_rows` rows per tile.
pub fn n_tiles(height: u32, tile_rows: u32) -> u32 {
    height.div_ceil(tile_rows.max(1)).max(1)
}

/// The tile owning image row `y`.
pub fn tile_of_row(y: u32, tile_rows: u32) -> u32 {
    y / tile_rows.max(1)
}

/// Row range `[lo, hi)` of `tile` (the last tile is clipped to `height`).
pub fn tile_range(tile: u32, tile_rows: u32, height: u32) -> (u32, u32) {
    let lo = (tile * tile_rows).min(height);
    let hi = (lo + tile_rows).min(height);
    (lo, hi)
}

/// Cuts raster output at tile boundaries so every emitted fragment lies in
/// exactly one tile. Single-tile inputs pass through untouched (zero
/// copies); straddling inputs are sliced into pooled per-tile buffers and
/// the original is recycled to its producer on drop.
pub struct TileSplitter {
    tile_rows: u32,
    /// Per-tile WPA accumulation slots, reused across calls so a split
    /// performs no container allocation in steady state.
    slots: Vec<Option<crate::pool::PoolVec<WinningPixel>>>,
    wpool: BufferPool<WinningPixel>,
    bands: BandPools,
}

impl TileSplitter {
    /// A splitter for `n_tiles` tiles of `tile_rows` rows each.
    pub fn new(tile_rows: u32, n_tiles: u32) -> Self {
        TileSplitter {
            tile_rows: tile_rows.max(1),
            slots: (0..n_tiles).map(|_| None).collect(),
            wpool: BufferPool::new(),
            bands: BandPools::default(),
        }
    }

    /// Split `out` at tile boundaries, handing each fragment to
    /// `sink(tile, fragment)` in ascending tile order. Entry order within
    /// each tile is preserved, so re-merging the fragments reproduces the
    /// original contents exactly (the depth test is order-insensitive
    /// anyway, but determinism is cheap to keep).
    pub fn split(&mut self, out: RaOut, mut sink: impl FnMut(u32, RaOut)) {
        let tr = self.tile_rows;
        match out {
            RaOut::Band {
                y0,
                rows,
                held_y0,
                width,
                ref depth,
                ref color,
            } => {
                // Cut over the rows the band declares: a tile it covers
                // but holds no row of gets a header fragment.
                let first = tile_of_row(y0, tr);
                let last = tile_of_row(y0 + rows.saturating_sub(1), tr);
                if first == last {
                    sink(first, out);
                    return;
                }
                let mut y = y0;
                let end = y0 + rows;
                while y < end {
                    let tile = tile_of_row(y, tr);
                    let next = ((tile + 1) * tr).min(end);
                    sink(
                        tile,
                        self.bands.band((y, next - y), width, held_y0, depth, color),
                    );
                    y = next;
                }
            }
            RaOut::Wpa(batch) => {
                if batch.is_empty() {
                    return;
                }
                let first = tile_of_row(batch[0].y as u32, tr);
                if batch.iter().all(|wp| tile_of_row(wp.y as u32, tr) == first) {
                    sink(first, RaOut::Wpa(batch));
                    return;
                }
                let TileSplitter { slots, wpool, .. } = self;
                for wp in batch.iter() {
                    let t = tile_of_row(wp.y as u32, tr) as usize;
                    slots[t]
                        .get_or_insert_with(|| wpool.take(batch.len()))
                        .buf_mut()
                        .push(*wp);
                }
                for (t, slot) in slots.iter_mut().enumerate() {
                    if let Some(part) = slot.take() {
                        sink(t as u32, RaOut::Wpa(part));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_math_covers_every_row_once() {
        for (h, ts) in [(96u32, 16u32), (97, 16), (5, 7), (1, 1), (100, 33)] {
            let tr = tile_rows(ts, h);
            let n = n_tiles(h, tr);
            let mut covered = 0u32;
            for t in 0..n {
                let (lo, hi) = tile_range(t, tr, h);
                assert!(lo < hi, "h={h} ts={ts} tile {t} is empty");
                assert_eq!(lo, covered, "h={h} ts={ts} tile {t} leaves a gap");
                for y in lo..hi {
                    assert_eq!(tile_of_row(y, tr), t);
                }
                covered = hi;
            }
            assert_eq!(covered, h, "h={h} ts={ts} tiles don't cover the image");
        }
    }

    #[test]
    fn single_tile_band_passes_through() {
        let mut s = TileSplitter::new(8, 4);
        let mut got = Vec::new();
        s.split(
            RaOut::Band {
                y0: 8,
                rows: 2,
                held_y0: 8,
                width: 4,
                depth: vec![1.0; 8].into(),
                color: vec![[1; 3]; 8].into(),
            },
            |t, r| got.push((t, r.merge_entries())),
        );
        assert_eq!(got, vec![(1, 8)]);
    }

    #[test]
    fn straddling_band_splits_at_boundaries() {
        // 6 rows starting at y=6 over 4-row tiles: rows 6-7 (tile 1),
        // 8-11 (tile 2).
        let mut s = TileSplitter::new(4, 3);
        let depth: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let color: Vec<[u8; 3]> = (0..12).map(|i| [i as u8; 3]).collect();
        let mut got = Vec::new();
        s.split(band(6, 6, 6, depth, color), |t, r| got.push(fragment(t, r)));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (1, (6, 2, 6), vec![0.0, 1.0, 2.0, 3.0]));
        assert_eq!(
            got[1],
            (2, (8, 4, 8), vec![4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
        );
    }

    /// A band of width 2 covering `rows` rows from `y0` and holding the
    /// rows of `depth` (colors `color`) from `held_y0`.
    fn band(y0: u32, rows: u32, held_y0: u32, depth: Vec<f32>, color: Vec<[u8; 3]>) -> RaOut {
        RaOut::Band {
            y0,
            rows,
            held_y0,
            width: 2,
            depth: depth.into(),
            color: color.into(),
        }
    }

    /// `(tile, (y0, rows, held_y0), depths)` of a band fragment; its
    /// wire size and merge charge are checked against its covered rows.
    fn fragment(tile: u32, r: RaOut) -> (u32, (u32, u32, u32), Vec<f32>) {
        let (wire, entries) = (r.wire_bytes(), r.merge_entries());
        let RaOut::Band {
            y0,
            rows,
            held_y0,
            width,
            depth,
            color,
        } = r
        else {
            panic!("a band split into a WPA batch");
        };
        assert_eq!(entries, (rows * width) as u64);
        assert_eq!(wire, entries * isosurf::ZBUF_ENTRY_WIRE_BYTES);
        assert_eq!(depth.len(), color.len());
        (tile, (y0, rows, held_y0), depth.to_vec())
    }

    /// A band covering rows 2..14 over 4-row tiles that holds only rows
    /// 5..7: the fragment of each covered tile declares its rows, holds
    /// the drawn ones it covers, and a tile it holds none of (rows 8..14)
    /// gets a header fragment.
    #[test]
    fn trimmed_band_splits_over_its_declared_rows() {
        let mut s = TileSplitter::new(4, 4);
        let depth: Vec<f32> = (0..4).map(|i| i as f32).collect();
        let color: Vec<[u8; 3]> = (0..4).map(|i| [i as u8; 3]).collect();
        let mut got = Vec::new();
        s.split(band(2, 12, 5, depth, color), |t, r| {
            got.push(fragment(t, r))
        });
        assert_eq!(
            got,
            vec![
                (0, (2, 2, 2), vec![]),
                (1, (4, 4, 5), vec![0.0, 1.0, 2.0, 3.0]),
                (2, (8, 4, 8), vec![]),
                (3, (12, 2, 12), vec![]),
            ]
        );
    }

    /// A header band (no row held) splits into one header fragment per
    /// tile it covers; one inside a single tile passes through.
    #[test]
    fn header_band_splits_into_header_fragments() {
        let mut s = TileSplitter::new(4, 3);
        let mut got = Vec::new();
        s.split(band(3, 6, 3, vec![], vec![]), |t, r| {
            got.push(fragment(t, r))
        });
        assert_eq!(
            got,
            vec![
                (0, (3, 1, 3), vec![]),
                (1, (4, 4, 4), vec![]),
                (2, (8, 1, 8), vec![])
            ]
        );
        got.clear();
        s.split(band(4, 4, 4, vec![], vec![]), |t, r| {
            got.push(fragment(t, r))
        });
        assert_eq!(got, vec![(1, (4, 4, 4), vec![])]);
    }

    #[test]
    fn straddling_wpa_splits_preserving_order() {
        let wp = |y: u16, d: f32| WinningPixel {
            x: 0,
            y,
            depth: d,
            rgb: [0; 3],
        };
        let mut s = TileSplitter::new(4, 3);
        let batch = vec![wp(9, 1.0), wp(1, 2.0), wp(2, 3.0), wp(11, 4.0)];
        let mut got = Vec::new();
        s.split(RaOut::Wpa(batch.into()), |t, r| {
            if let RaOut::Wpa(v) = r {
                got.push((t, v.iter().map(|w| w.depth).collect::<Vec<_>>()));
            }
        });
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (0, vec![2.0, 3.0]));
        assert_eq!(got[1], (2, vec![1.0, 4.0]));
    }

    #[test]
    fn splitting_recycles_buffers() {
        let mut s = TileSplitter::new(4, 3);
        for _ in 0..50 {
            let batch: Vec<WinningPixel> = (0..12)
                .map(|i| WinningPixel {
                    x: 0,
                    y: i as u16,
                    depth: 1.0,
                    rgb: [0; 3],
                })
                .collect();
            s.split(RaOut::Wpa(batch.into()), |_, r| drop(r));
        }
        assert!(
            s.wpool.allocated() <= 3,
            "steady-state WPA splitting must recycle ({} allocs)",
            s.wpool.allocated()
        );
    }
}
