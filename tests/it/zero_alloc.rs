//! Proof that the E → Ra → M hot path reaches a zero-allocation steady
//! state: after a warm-up unit of work, pumping further work through the
//! stage logic (serial extraction straight into pooled triangle batches,
//! recycled WPA flush buffers, pooled z-buffer bands) performs no heap
//! allocation at all, measured by a counting global allocator.
//!
//! The loop below mirrors what `dcapp`'s stages do per unit of work,
//! driven through the same public APIs (`BufferPool`, `TriBatch`,
//! `RaOut`, `ActivePixelBuffer::supply`, `merge_batch`,
//! `extract_into`, `raster_batch`); the filter wrappers themselves
//! only add the emulation context, which is not part of the per-buffer
//! hot path. The extract and raster kernels skip empty space and dead
//! pixels without per-call scratch, so they sit inside the same proof.
//!
//! Two more proofs ride along: a fused read+extract run whose isovalue
//! misses every chunk allocates no chunk grid, because the read stage
//! asks the dataset's chunk-range index before it cuts; and a run's later
//! units of work take their band, WPA and merge buffers from what the
//! earlier ones pooled, because a copy keeps its stages across them.
//!
//! The counters are process-wide and libtest runs tests on parallel
//! threads, so every test here holds one lock for its whole body, as
//! `delivery_zero_alloc.rs` does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use datacutter::{NativeExecutor, Placement, WritePolicy};
use dcapp::{
    clone_config, reference_image, Algorithm, AppConfig, BufferPool, Grouping, PipelineSpec,
    PoolVec, RaOut, Render, TriBatch,
};
use integration_tests::{cluster, test_cfg, test_dataset};
use isosurf::{
    extract_into, merge_batch, raster_batch, ActivePixelBuffer, Camera, Material, Projector,
    Triangle, WinningPixel, ZBuffer,
};
use volume::{ChunkId, Dims, RectGrid};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// `WATCHED[i]` counts allocations of exactly `WATCH[i]` bytes (`0`
/// watches nothing).
static WATCH: [AtomicUsize; 3] = [const { AtomicUsize::new(0) }; 3];
static WATCHED: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    for (watch, watched) in WATCH.iter().zip(&WATCHED) {
        if size == watch.load(Ordering::Relaxed) {
            watched.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Allocations of each of `sizes` bytes while `f` runs.
fn watching(sizes: [usize; 3], f: impl FnOnce()) -> [u64; 3] {
    for i in 0..3 {
        WATCHED[i].store(0, Ordering::Relaxed);
        WATCH[i].store(sizes[i], Ordering::Relaxed);
    }
    f();
    WATCH.iter().for_each(|w| w.store(0, Ordering::Relaxed));
    std::array::from_fn(|i| WATCHED[i].load(Ordering::Relaxed))
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static MEASURING: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn measuring() -> std::sync::MutexGuard<'static, ()> {
    // A sibling that failed poisons the lock; that verdict is its own.
    MEASURING.lock().unwrap_or_else(|e| e.into_inner())
}

const IMG: u32 = 64;
const BATCH: usize = 256;

struct Harness {
    grid: RectGrid,
    proj: Projector,
    material: Material,
    /// The extract stage's open batch and its batches waiting to ship.
    open: Option<PoolVec<Triangle>>,
    full: Vec<PoolVec<Triangle>>,
    tri_pool: BufferPool<Triangle>,
    wpa_pool: BufferPool<WinningPixel>,
    dpool: BufferPool<f32>,
    cpool: BufferPool<[u8; 3]>,
    ap: ActivePixelBuffer,
    flushed: Vec<Vec<WinningPixel>>,
    /// Merge accumulator (the M stage).
    zb: ZBuffer,
    /// A pre-rendered raster target whose bands ship each pass (the
    /// z-buffer Ra variant's end-of-work).
    src: ZBuffer,
}

impl Harness {
    fn new() -> Harness {
        let mut s = 0x5eed_u64;
        let grid = RectGrid::from_fn(Dims::new(16, 16, 16), |_, _, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) % 11) as f32 / 10.0
        });
        let mut src = ZBuffer::new(IMG, IMG);
        for i in 0..(IMG * IMG) {
            src.plot(i % IMG, i / IMG, (i % 9) as f32, [i as u8, 0, 0]);
        }
        Harness {
            proj: Camera::framing(grid.dims, IMG, IMG).projector(),
            material: Material::default(),
            grid,
            open: None,
            full: Vec::new(),
            tri_pool: BufferPool::new(),
            wpa_pool: BufferPool::new(),
            dpool: BufferPool::new(),
            cpool: BufferPool::new(),
            ap: ActivePixelBuffer::new(IMG, 512),
            flushed: Vec::new(),
            zb: ZBuffer::new(IMG, IMG),
            src,
        }
    }
}

/// One unit of work through the pooled stage logic.
fn pass(h: &mut Harness) {
    let Harness {
        grid,
        proj,
        material,
        open,
        full,
        tri_pool,
        wpa_pool,
        dpool,
        cpool,
        ap,
        flushed,
        zb,
        src,
    } = h;

    // E: extract straight into pooled batches; a full one waits in the
    // warmed `full` list, and the partial one ships at end-of-work.
    extract_into(grid, (0, 0, 0), 0.5, |t| {
        let tris = open.get_or_insert_with(|| tri_pool.take(BATCH));
        tris.buf_mut().push(t);
        if tris.len() == BATCH {
            full.extend(open.take());
        }
    });
    full.extend(open.take());
    for tris in full.drain(..) {
        let batch = TriBatch { tris };

        // Ra (active-pixel): re-arm the WPA with every buffer the merge
        // recycled, then plot; full WPAs flush into `flushed`.
        while let Some(v) = wpa_pool.try_take_raw() {
            ap.supply(v);
        }
        raster_batch(proj, IMG, IMG, material, &batch.tris, |x, y, d, rgb| {
            ap.plot(x, y, d, rgb, &mut |b| flushed.push(b));
        });

        // M: merge each flushed batch; dropping the payload recycles it.
        for b in flushed.drain(..) {
            let out = RaOut::Wpa(wpa_pool.adopt(b));
            if let RaOut::Wpa(w) = out {
                merge_batch(zb, &w);
            }
        }
        // `batch` drops here, returning its buffer to `tri_pool`.
    }
    // End-of-work flush of the partial WPA.
    ap.force_flush(&mut |b| flushed.push(b));
    for b in flushed.drain(..) {
        let out = RaOut::Wpa(wpa_pool.adopt(b));
        if let RaOut::Wpa(w) = out {
            merge_batch(zb, &w);
        }
    }

    // Ra (z-buffer variant): ship the raster target in pooled bands and
    // fold them, as the merge filter would.
    let w = IMG as usize;
    let mut y0 = 0usize;
    while y0 < IMG as usize {
        let (a, b) = (y0 * w, (y0 + 16) * w);
        let mut depth = dpool.take(b - a);
        depth.buf_mut().extend_from_slice(&src.depth[a..b]);
        let mut color = cpool.take(b - a);
        color.buf_mut().extend_from_slice(&src.color[a..b]);
        let out = RaOut::Band {
            y0: y0 as u32,
            rows: 16,
            held_y0: y0 as u32,
            width: IMG,
            depth,
            color,
        };
        if let RaOut::Band {
            held_y0,
            width,
            depth,
            color,
            ..
        } = out
        {
            let base = (held_y0 * width) as usize;
            for (i, (&d, &c)) in depth.iter().zip(color.iter()).enumerate() {
                if d < zb.depth[base + i] {
                    zb.depth[base + i] = d;
                    zb.color[base + i] = c;
                }
            }
        }
        y0 += 16;
    }
}

#[test]
fn steady_state_pipeline_performs_zero_allocations() {
    let _lock = measuring();
    let mut h = Harness::new();

    // Warm-up: grows `full`, populates every pool, and lets the WPA
    // spare-list reach equilibrium (the first passes mint the buffers
    // that circulate forever after).
    for _ in 0..3 {
        pass(&mut h);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..16 {
        pass(&mut h);
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "steady-state E→Ra→M passes allocated {} times",
        after - before
    );

    // Sanity: the harness actually exercised the path (the warm-up made
    // pool misses, extraction produced triangles, merging plotted pixels).
    assert!(h.tri_pool.allocated() > 0);
    let wpa_entries = h.ap.plotted - h.ap.dedup_hits;
    assert!(
        wpa_entries > 19 * 512,
        "{wpa_entries} entries: the WPA never filled mid-pass"
    );
    assert!(h.zb.depth.iter().any(|d| d.is_finite()), "nothing plotted");
}

/// Chunk grids (allocations of one chunk's sample bytes) a native fused
/// `RE–Ra–M` run over timestep 0 of `test_dataset(7)` at `iso` makes.
fn chunk_grids_allocated(iso: f32) -> u64 {
    let (topo, hosts) = cluster(2);
    let mut c = clone_config(&test_cfg(test_dataset(7), hosts.clone(), 64));
    c.iso = iso;
    let layout = *c.dataset.layout();
    let bytes = layout.info(ChunkId(0)).byte_size();
    assert!(
        layout.all().iter().all(|i| i.byte_size() == bytes),
        "every chunk has one size, so one watched size covers them all"
    );
    // Generate the field (and its index) outside the measured window.
    let _ = c.dataset.field(c.species, c.timestep);
    let cfg = Arc::new(c);
    let spec = PipelineSpec {
        grouping: Grouping::RERaSplit {
            raster: Placement::one_per_host(&hosts),
        },
        algorithm: Algorithm::ActivePixel,
        policy: WritePolicy::demand_driven(),
        merge_host: hosts[0],
    };
    watching([bytes as usize, 0, 0], || {
        Render::new(&cfg, &spec)
            .executor(NativeExecutor::new())
            .go(&topo)
            .expect("fused run failed");
    })[0]
}

#[test]
fn fused_read_extract_cuts_no_chunk_the_isovalue_misses() {
    let _lock = measuring();
    let ds = test_dataset(7);
    let crossing = (0..ds.layout().count())
        .filter(|&i| ds.can_cross(0, 0, ChunkId(i), 0.5))
        .count() as u64;
    assert!(crossing > 0);
    // The watch sees the grids a run does cut: one per crossing chunk.
    assert!(chunk_grids_allocated(0.5) >= crossing);
    // Concentrations are bounded by 6: nothing lies above 100.
    assert_eq!(chunk_grids_allocated(100.0), 0, "a missed chunk was cut");
}

/// Image size of the stage-reuse runs: width and height differ and are
/// odd, so each watched size below names one buffer.
const REUSE_W: u32 = 97;
const REUSE_H: u32 = 61;
const REUSE_WPA: usize = 101;
const REUSE_UOWS: u32 = 5;

/// Allocations of `[a full-image depth plane, a one-row band's depth, a
/// WPA batch]` in a simulated `RE–Ra–M` run of `uows` units of work from
/// `timestep`, with one raster copy and one-row z-buffer bands. Every
/// image is checked against its reference.
fn stage_buffers_allocated(alg: Algorithm, timestep: u32, uows: u32) -> [u64; 3] {
    let (topo, hosts) = cluster(2);
    let mut c = AppConfig::new(test_dataset(7), vec![hosts[0]], 2, REUSE_W, REUSE_H);
    c.iso = 0.5;
    c.timestep = timestep;
    c.zb_band_bytes = 1;
    c.wpa_capacity = REUSE_WPA;
    let cfg = Arc::new(c);
    assert_eq!(cfg.band_rows(), 1);
    let spec = PipelineSpec {
        grouping: Grouping::RERaSplit {
            raster: Placement::on_host(hosts[1], 1),
        },
        algorithm: alg,
        policy: WritePolicy::RoundRobin,
        merge_host: hosts[0],
    };
    let w = REUSE_W as usize;
    let sizes = [
        w * REUSE_H as usize * size_of::<f32>(),
        w * size_of::<f32>(),
        REUSE_WPA * size_of::<WinningPixel>(),
    ];
    let mut images = Vec::new();
    let counts = watching(sizes, || {
        images = Render::new(&cfg, &spec)
            .uows(uows)
            .go(&topo)
            .expect("run failed")
            .images;
    });
    for (k, img) in images.iter().enumerate() {
        let mut c = clone_config(&cfg);
        c.timestep = timestep + k as u32;
        let label = format!("{alg:?} timestep {}", c.timestep);
        assert_eq!(
            img.diff_pixels(&reference_image(&Arc::new(c))),
            0,
            "{label}"
        );
        assert!(
            img.coverage(isosurf::BACKGROUND) > 0,
            "{label}: drew nothing"
        );
    }
    counts
}

/// A copy builds its raster and merge stages once and resets them in
/// `init`, so a run's later units of work take their band, WPA and merge
/// buffers from what the earlier ones pooled: the merge's image plane is
/// allocated once, and the run allocates no more bands or WPA batches
/// than its hungriest unit of work needs alone (rebuilding the stages
/// every unit of work allocates the sum). The z-buffer raster still frees
/// its own plane before its last band send, so that one is allocated
/// once per unit of work.
#[test]
fn later_units_of_work_reuse_the_buffers_the_first_pooled() {
    let _lock = measuring();
    for alg in [Algorithm::ZBuffer, Algorithm::ActivePixel] {
        let run = stage_buffers_allocated(alg, 0, REUSE_UOWS);
        let alone: Vec<[u64; 3]> = (0..REUSE_UOWS)
            .map(|t| stage_buffers_allocated(alg, t, 1))
            .collect();
        let planes = match alg {
            Algorithm::ZBuffer => 1 + REUSE_UOWS as u64,
            Algorithm::ActivePixel => 1,
        };
        assert_eq!(run[0], planes, "{alg:?}: image planes ({alone:?} alone)");
        let (pooled, what) = match alg {
            Algorithm::ZBuffer => (1, "bands"),
            Algorithm::ActivePixel => (2, "WPA batches"),
        };
        let most = alone.iter().map(|c| c[pooled]).max().unwrap_or(0);
        assert!(most > 0, "{alg:?}: no {what} allocated");
        assert!(
            run[pooled] <= most,
            "{alg:?}: {} {what} over {REUSE_UOWS} units of work, {most} alone ({alone:?})",
            run[pooled]
        );
    }
}
