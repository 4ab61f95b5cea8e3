//! Layer-by-layer replay of a frame's work on the benchmark's own
//! thread, calling each crate's public functions with the frame's own
//! inputs: the chunk reads, extraction, rasterisation and merge the
//! filters performed; the same number and size of buffers through a
//! null-filter graph of the same placement, policy and executor; on the
//! simulator the same graph charging the run's modelled costs, for the
//! engine's share; and the spill path's codec, seal and ring for the
//! bytes the run spilled. The parts
//! are summed and held against the CPU seconds a measured frame cost.

use std::sync::Arc;
use std::time::Instant;

use datacutter::{
    open_frame, seal_frame, Filter, FilterCtx, FilterError, GraphBuilder, Placement, Run,
    RunReport, SpillCodec, SpillRing, WritePolicy,
};
use dcapp::{Algorithm, ChunkPayload};
use hetsim::{SimDuration, Topology};
use isosurf::{raster_triangle, ActivePixelBuffer, Triangle, WinningPixel, ZBuffer, BACKGROUND};
use volume::RectGrid;

use crate::metrics::Values;
use crate::procfs::cpu_seconds;
use crate::trace::Tracer;
use crate::workloads::{Exec, Tally, Workload};

/// Seconds and work units summed over the replayed frames.
#[derive(Default)]
struct Kernels {
    frames: u32,
    volume_s: f64,
    read_bytes: u64,
    extract_s: f64,
    cells: u64,
    tris: u64,
    raster_s: f64,
    merge_s: f64,
    /// WPA entries or z-buffer pixels folded by the merge.
    merge_units: u64,
    to_image_s: f64,
    px: u64,
}

/// The chunks of one frame as the read filters deliver them: storage
/// node by storage node, each in file order.
fn read_frame_chunks(w: &Workload, t: usize) -> (Vec<ChunkPayload>, u64) {
    let cfg = &w.cfgs[t];
    let mut bytes = 0;
    let mut out = Vec::new();
    for node in 0..cfg.storage_hosts.len() {
        for (chunk, _disk) in cfg.chunks_for_node(node) {
            bytes += cfg.dataset.chunk_bytes(chunk);
            out.push(ChunkPayload {
                origin: cfg.dataset.chunk_info(chunk).cell_origin,
                grid: cfg.dataset.read_chunk(cfg.species, cfg.timestep, chunk),
            });
        }
    }
    (out, bytes)
}

/// Replay timestep `t` kernel by kernel, mirroring the filter stages:
/// chunk-wise extraction, `tri_batch`-sized batches dealt round robin to
/// as many raster accumulators as the workload has raster copies, every
/// partial result folded into one z-buffer. Returns the merged buffer
/// and the frame's chunks.
fn replay_kernels(
    w: &Workload,
    t: usize,
    tr: &mut Tracer,
    k: &mut Kernels,
) -> (ZBuffer, Vec<ChunkPayload>) {
    let cfg = &w.cfgs[t];
    let frame = t as u64;
    let (width, height) = (cfg.camera.width, cfg.camera.height);
    let copies = w
        .stages
        .iter()
        .find(|(name, _)| *name == "Ra")
        .map_or(1, |(_, p)| p.total_copies() as usize);
    k.frames += 1;
    k.px += (width * height) as u64;

    let t0 = Instant::now();
    let (chunks, bytes) = tr.span("volume.read_chunk", frame, |_| read_frame_chunks(w, t));
    k.volume_s += t0.elapsed().as_secs_f64();
    k.read_bytes += bytes;

    let mut tris: Vec<Triangle> = Vec::new();
    let t0 = Instant::now();
    tr.span("isosurf.extract", frame, |_| {
        for c in &chunks {
            k.cells += isosurf::extract(&c.grid, c.origin, cfg.iso, &mut tris).cells;
        }
    });
    k.extract_s += t0.elapsed().as_secs_f64();
    k.tris += tris.len() as u64;

    let proj = cfg.camera.projector();
    let mut target = ZBuffer::new(width, height);
    match w.shape.algorithm {
        Algorithm::ActivePixel => {
            let mut aps: Vec<ActivePixelBuffer> = (0..copies)
                .map(|_| ActivePixelBuffer::new(width, cfg.wpa_capacity))
                .collect();
            let mut wpas: Vec<Vec<WinningPixel>> = Vec::new();
            let t0 = Instant::now();
            tr.span("isosurf.raster", frame, |_| {
                let mut keep = |b: Vec<WinningPixel>| wpas.push(b);
                for (i, batch) in tris.chunks(cfg.tri_batch).enumerate() {
                    let ap = &mut aps[i % copies];
                    for tri in batch {
                        let _ = raster_triangle(
                            &proj,
                            width,
                            height,
                            &cfg.material,
                            tri,
                            |x, y, d, rgb| ap.plot(x, y, d, rgb, &mut keep),
                        );
                    }
                }
                for ap in &mut aps {
                    ap.force_flush(&mut keep);
                }
            });
            k.raster_s += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            tr.span("isosurf.merge", frame, |_| {
                for b in &wpas {
                    isosurf::merge_batch(&mut target, b);
                }
            });
            k.merge_s += t0.elapsed().as_secs_f64();
            k.merge_units += wpas.iter().map(|b| b.len() as u64).sum::<u64>();
        }
        Algorithm::ZBuffer => {
            let mut zbs: Vec<ZBuffer> = (0..copies).map(|_| ZBuffer::new(width, height)).collect();
            // Each copy ships its whole buffer as bands at end of work.
            let mut bands: Vec<(u32, Vec<f32>, Vec<[u8; 3]>)> = Vec::new();
            let t0 = Instant::now();
            tr.span("isosurf.raster", frame, |_| {
                for (i, batch) in tris.chunks(cfg.tri_batch).enumerate() {
                    isosurf::render::raster_into_zbuffer(
                        batch,
                        &cfg.camera,
                        &cfg.material,
                        &mut zbs[i % copies],
                    );
                }
                let rows = cfg.band_rows();
                for zb in &zbs {
                    for y0 in (0..height).step_by(rows as usize) {
                        let a = (y0 * width) as usize;
                        let b = ((y0 + rows).min(height) * width) as usize;
                        bands.push((y0, zb.depth[a..b].to_vec(), zb.color[a..b].to_vec()));
                    }
                }
            });
            k.raster_s += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            tr.span("isosurf.merge", frame, |_| {
                for (y0, depth, color) in &bands {
                    isosurf::merge_rows(&mut target, *y0, depth, color);
                }
            });
            k.merge_s += t0.elapsed().as_secs_f64();
            k.merge_units += bands.iter().map(|b| b.1.len() as u64).sum::<u64>();
        }
    }
    (target, chunks)
}

/// A filter that does no work: reads its input to end-of-work, forwards
/// buffers in proportion, and makes sure its copy's share of the
/// filter's per-UOW output quota goes out by end of work (so z-buffer
/// style "everything at the end" traffic is reproduced too).
struct Null {
    /// Buffers all copies of this filter emit per UOW, together.
    out_per_uow: u64,
    /// Output buffers owed per input buffer read.
    ratio: f64,
    wire_bytes: u64,
    /// Route by `write_tile` (tile = sequence number), as tile-hash
    /// streams expect.
    by_tile: bool,
    /// Modelled cost charged per buffer read (or, at a source, per
    /// buffer written, after a disk read of `disk_per_out` bytes). Zero
    /// in a plain null graph; the measured run's totals in a hollow one.
    work_per_buffer: SimDuration,
    disk_per_out: u64,
}

impl Filter for Null {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        let info = ctx.copy();
        let n = info.total_copies as u64;
        let quota = if ctx.output_count() == 0 {
            0
        } else {
            self.out_per_uow / n + u64::from((info.copy_index as u64) < self.out_per_uow % n)
        };
        let mut sent = 0;
        let source = ctx.input_count() == 0;
        let emit = |ctx: &mut FilterCtx, sent: &mut u64| {
            if source && self.disk_per_out > 0 {
                ctx.disk_read(0, self.disk_per_out, true);
            }
            if source && self.work_per_buffer > SimDuration::ZERO {
                ctx.compute(self.work_per_buffer);
            }
            let b = ctx.buffer_slab().make(*sent, self.wire_bytes);
            if self.by_tile {
                ctx.write_tile(0, *sent, b);
            } else {
                ctx.write(0, b);
            }
            *sent += 1;
        };
        if !source {
            let mut owed = 0.0;
            while let Some(b) = ctx.read(0) {
                ctx.buffer_slab().recycle::<u64>(b);
                if self.work_per_buffer > SimDuration::ZERO {
                    ctx.compute(self.work_per_buffer);
                }
                owed += self.ratio;
                while owed >= 1.0 && sent < quota {
                    emit(ctx, &mut sent);
                    owed -= 1.0;
                }
            }
        }
        while sent < quota {
            emit(ctx, &mut sent);
        }
        Ok(())
    }
}

/// One stream of a null graph: buffers per UOW and bytes per buffer.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    pub buffers_per_uow: u64,
    pub wire_bytes: u64,
}

/// One filter of a null graph. A *hollow* stage also charges the
/// modelled CPU work and disk bytes a measured run's copies of the
/// filter charged per UOW, so that on the simulator the virtual timeline
/// — and with it the engine's event load — is that of the real run,
/// minus the kernels' host time.
#[derive(Debug, Clone)]
pub struct Stage {
    pub name: &'static str,
    pub placement: Placement,
    pub work_per_uow: SimDuration,
    pub disk_bytes_per_uow: u64,
}

impl Stage {
    /// A stage that charges nothing.
    pub fn plain(name: &'static str, placement: Placement) -> Stage {
        Stage {
            name,
            placement,
            work_per_uow: SimDuration::ZERO,
            disk_bytes_per_uow: 0,
        }
    }
}

/// Run a linear chain of null filters — `stages[i]` feeds `stages[i+1]`
/// over a stream carrying `traffic[i]` under `policy` — for `uows` units
/// of work on `exec`.
pub fn run_null_graph(
    topo: &Topology,
    stages: &[Stage],
    traffic: &[Traffic],
    policy: WritePolicy,
    exec: Exec,
    uows: u32,
) -> RunReport {
    assert_eq!(traffic.len() + 1, stages.len(), "one stream per stage pair");
    let mut g = GraphBuilder::new();
    let mut prev = None;
    for (i, stage) in stages.iter().enumerate() {
        let out = traffic.get(i).copied();
        let fed = i.checked_sub(1).map(|j| traffic[j].buffers_per_uow);
        let out_per_uow = out.map_or(0, |t| t.buffers_per_uow);
        let ratio = match fed {
            Some(f) if f > 0 => out_per_uow as f64 / f as f64,
            _ => 0.0,
        };
        // A source works per buffer it writes, every other filter per
        // buffer it reads.
        let charged = fed.unwrap_or(out_per_uow).max(1);
        let work_per_buffer =
            SimDuration::from_secs_f64(stage.work_per_uow.as_secs_f64() / charged as f64);
        let disk_per_out = stage.disk_bytes_per_uow / out_per_uow.max(1);
        let wire_bytes = out.map_or(0, |t| t.wire_bytes);
        let by_tile = policy == WritePolicy::TileHash;
        let id = g.add_filter(stage.name, stage.placement.clone(), move |_| Null {
            out_per_uow,
            ratio,
            wire_bytes,
            by_tile,
            work_per_buffer,
            disk_per_out,
        });
        if let Some(p) = prev {
            g.connect(p, id, policy);
        }
        prev = Some(id);
    }
    Run::new(g.build())
        .uows(uows)
        .executor(exec.executor())
        .go(topo)
        .expect("null-filter run failed")
}

/// Delivery alone: the workload's graph with null filters, the measured
/// run's buffer counts and mean sizes, same placement, policy, executor
/// and UOW count; `hollow` also charges the run's modelled work and disk
/// reads. Returns seconds per frame — process CPU seconds on the
/// wall-clock executors (10 ms ticks, hence at least a second of runs),
/// host wall on the simulator.
fn replay_delivery(w: &Workload, report: &RunReport, hollow: bool) -> f64 {
    let uows = w.shape.uows;
    let stages: Vec<Stage> = w
        .stages
        .iter()
        .map(|(name, placement)| {
            let mut stage = Stage::plain(name, placement.clone());
            for c in report
                .copies
                .iter()
                .filter(|c| hollow && c.filter_name == *name)
            {
                stage.work_per_uow += c.counters.work;
                stage.disk_bytes_per_uow += c.counters.disk_bytes;
            }
            stage.work_per_uow =
                SimDuration::from_secs_f64(stage.work_per_uow.as_secs_f64() / uows as f64);
            stage.disk_bytes_per_uow /= uows as u64;
            stage
        })
        .collect();
    let traffic: Vec<Traffic> = report
        .streams
        .iter()
        .map(|s| Traffic {
            buffers_per_uow: s.total_buffers() / uows as u64,
            wire_bytes: s.total_bytes() / s.total_buffers().max(1),
        })
        .collect();
    let mut frames = 0;
    let (t0, cpu0) = (Instant::now(), cpu_seconds());
    while t0.elapsed().as_secs_f64() < 1.0 {
        run_null_graph(
            &w.topo,
            &stages,
            &traffic,
            w.spec.policy,
            w.shape.exec,
            uows,
        );
        frames += uows;
    }
    let spent = match w.shape.exec {
        Exec::Sim => t0.elapsed().as_secs_f64(),
        Exec::Native | Exec::Tasked => cpu_seconds() - cpu0,
    };
    spent / frames as f64
}

/// Seconds and bytes of the six steps a spilled payload goes through.
#[derive(Default)]
struct SpillPath {
    bytes: u64,
    encode_s: f64,
    seal_s: f64,
    spill_s: f64,
    fault_s: f64,
    open_s: f64,
    decode_s: f64,
}

/// The spill path alone, for `target_bytes` of frame `t`'s own chunk
/// payloads (cycled if the run spilled more than one pass holds). Each
/// payload goes through all six steps while it is cache-hot, as in a run
/// whose consumer faults a buffer back soon after it was parked:
/// `ChunkPayload::spill_encode`, `seal_frame`, `SpillRing::spill` into a
/// real unlinked temp file, then `fault`, `open_frame`, `spill_decode`.
/// Returns `false` if a payload did not survive the round trip.
fn replay_spill(chunks: &[ChunkPayload], target_bytes: u64, s: &mut SpillPath) -> bool {
    let ring: Arc<SpillRing> = SpillRing::create().expect("create spill ring");
    let mut intact = true;
    let mut planned = 0;
    // Time one step into its accumulator.
    fn step<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        *acc += t0.elapsed().as_secs_f64();
        out
    }
    for c in chunks.iter().cycle() {
        if planned >= target_bytes {
            break;
        }
        let mut frame = Vec::new();
        step(&mut s.encode_s, || c.spill_encode(&mut frame));
        step(&mut s.seal_s, || seal_frame(&mut frame));
        planned += frame.len() as u64;
        let ticket = step(&mut s.spill_s, || ring.spill(&frame).expect("spill write"));
        drop(frame);
        let back = step(&mut s.fault_s, || ring.fault(ticket).expect("fault read"));
        let payload = step(&mut s.open_s, || {
            open_frame(&back).expect("sealed frame opens")
        });
        let decoded = step(&mut s.decode_s, || ChunkPayload::spill_decode(payload));
        intact &= decoded.is_some_and(|d| d.origin == c.origin && same_grid(&d.grid, &c.grid));
    }
    s.bytes += planned;
    intact
}

fn same_grid(a: &RectGrid, b: &RectGrid) -> bool {
    a.dims == b.dims
        && a.data
            .iter()
            .zip(&b.data)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Replay every timestep once, fill in the `layers.*` metrics and the
/// kernel rates, and return the merged z-buffer and chunks of the last
/// replayed frame for the probes to reuse. A replayed image that
/// differs from the reference, or a spill round trip that loses bits,
/// counts as a failed frame.
pub fn run(
    w: &Workload,
    tally: &mut Tally,
    cpu_s_per_frame: f64,
    tr: &mut Tracer,
    v: &mut Values,
) -> (ZBuffer, Vec<ChunkPayload>) {
    tr.enable(true);
    let mut k = Kernels::default();
    let mut spill = SpillPath::default();
    let measured_frames = tally.frames().max(1) as u64;
    let spill_bytes_per_frame = tally.spill_bytes / measured_frames;
    let mut last = None;
    for t in 0..w.cfgs.len() {
        let frame = t as u64;
        let (target, chunks) = tr.span("dcbench.replay", frame, |tr| {
            replay_kernels(w, t, tr, &mut k)
        });
        let t0 = Instant::now();
        let img = tr.span("isosurf.to_image", frame, |_| target.to_image(BACKGROUND));
        k.to_image_s += t0.elapsed().as_secs_f64();
        let diff = img.diff_pixels(&w.refs[t]);
        tally.gate(diff == 0, || {
            format!(
                "{} replay of timestep {t}: {diff} pixels differ",
                w.shape.name
            )
        });
        if spill_bytes_per_frame > 0 {
            let intact = tr.span("datacutter.spill_path", frame, |_| {
                replay_spill(&chunks, spill_bytes_per_frame, &mut spill)
            });
            tally.gate(intact, || {
                format!(
                    "{} spill replay of timestep {t}: payload changed in the round trip",
                    w.shape.name
                )
            });
        }
        last = Some((target, chunks));
    }

    let n = k.frames as f64;
    let mb = |bytes: u64| bytes as f64 / 1e6;
    let volume_s = k.volume_s / n;
    let extract_s = k.extract_s / n;
    let raster_s = k.raster_s / n;
    // The merge filter also turns the final buffer into the image.
    let merge_s = (k.merge_s + k.to_image_s) / n;
    v.set("layers.volume_s", volume_s);
    v.set("layers.extract_s", extract_s);
    v.set("layers.raster_s", raster_s);
    v.set("layers.merge_s", merge_s);
    v.set("volume.read_chunk.mb_per_s", mb(k.read_bytes) / k.volume_s);
    v.set(
        "isosurf.extract.ns_per_cell",
        k.extract_s * 1e9 / k.cells as f64,
    );
    v.set(
        "isosurf.extract.mtris_per_s",
        k.tris as f64 / 1e6 / k.extract_s,
    );
    let (raster_name, merge_name) = match w.shape.algorithm {
        Algorithm::ActivePixel => (
            "isosurf.raster.active_pixel.ns_per_tri",
            "isosurf.merge.wpa.ns_per_entry",
        ),
        Algorithm::ZBuffer => (
            "isosurf.raster.zbuffer.ns_per_tri",
            "isosurf.merge.zbuffer.ns_per_px",
        ),
    };
    v.set(raster_name, k.raster_s * 1e9 / k.tris as f64);
    v.set(merge_name, k.merge_s * 1e9 / k.merge_units as f64);
    v.set(
        "isosurf.to_image.ns_per_px",
        k.to_image_s * 1e9 / k.px as f64,
    );

    let spill_s = if spill.bytes > 0 {
        let rate = |s: f64| mb(spill.bytes) / s;
        v.set(
            "dcapp.spill_codec.chunk.encode_mb_per_s",
            rate(spill.encode_s),
        );
        v.set(
            "dcapp.spill_codec.chunk.decode_mb_per_s",
            rate(spill.decode_s),
        );
        v.set("datacutter.seal_frame.mb_per_s", rate(spill.seal_s));
        v.set("datacutter.open_frame.mb_per_s", rate(spill.open_s));
        v.set("datacutter.spill_ring.spill_mb_per_s", rate(spill.spill_s));
        v.set("datacutter.spill_ring.fault_mb_per_s", rate(spill.fault_s));
        (spill.encode_s
            + spill.seal_s
            + spill.spill_s
            + spill.fault_s
            + spill.open_s
            + spill.decode_s)
            / n
    } else {
        0.0
    };
    v.set("layers.spill_s", spill_s);

    // On the simulator the hollow graph replays the whole virtual
    // timeline without the kernels; what it costs beyond plain delivery
    // is the engine dispatching the modelled compute and disk events.
    let (delivery_s, engine_s) = match &tally.last_report {
        Some(report) => {
            let delivery_s = tr.span("datacutter.null_graph", 0, |_| {
                replay_delivery(w, report, false)
            });
            let engine_s = if w.shape.exec == Exec::Sim {
                let hollow_s = tr.span("hetsim.hollow_graph", 0, |_| {
                    replay_delivery(w, report, true)
                });
                (hollow_s - delivery_s).max(0.0)
            } else {
                0.0
            };
            (delivery_s, engine_s)
        }
        None => (0.0, 0.0),
    };
    v.set("layers.delivery_s", delivery_s);
    v.set("layers.engine_s", engine_s);
    let sum_s = volume_s + extract_s + raster_s + merge_s + delivery_s + engine_s + spill_s;
    v.set("layers.sum_s", sum_s);
    v.set("layers.accounted_ratio", sum_s / cpu_s_per_frame);
    last.expect("at least one timestep replayed")
}
