//! Isolated layer probes: each times public calls of one crate with
//! nothing else running, on inputs taken from the workload it is
//! attached to (the workload whose frame time it should explain).

use std::sync::Arc;
use std::time::Instant;

use datacutter::{Placement, WritePolicy};
use dcapp::ChunkPayload;
use hetsim::presets::rogue_cluster;
use hetsim::{SimDuration, Simulation};
use isosurf::{ExtractScratch, ThreadPool, ZBuffer};
use volume::{CacheKey, ChunkCache, ChunkId, FileId};

use crate::metrics::Values;
use crate::replay::{run_null_graph, Stage, Traffic};
use crate::stats::median;
use crate::workloads::{Exec, Layout, Tally, Workload};

/// Call `f` until `seconds` of wall time have passed (at least once) and
/// return `(calls, wall seconds)`.
fn repeat_for(seconds: f64, mut f: impl FnMut()) -> (u64, f64) {
    let t0 = Instant::now();
    let mut calls = 0;
    loop {
        f();
        calls += 1;
        let spent = t0.elapsed().as_secs_f64();
        if spent >= seconds {
            return (calls, spent);
        }
    }
}

/// Run the probes attached to `w`'s workload. `merged` and `chunks` are
/// the last replayed frame's final z-buffer and chunk payloads.
pub fn run(
    w: &Workload,
    merged: &ZBuffer,
    chunks: &[ChunkPayload],
    scratch: &std::path::Path,
    tally: &mut Tally,
    v: &mut Values,
) {
    match (w.shape.layout, w.shape.exec) {
        (Layout::Hetero, _) => {
            engine(v);
            delivery(Exec::Sim, v);
            adr_baseline(w, tally, v);
        }
        (Layout::Split { ra_per_host }, exec) if ra_per_host > 1 => {
            delivery(exec, v);
            idle_and_spawn(ra_per_host, exec, v);
        }
        (Layout::Split { .. }, _) => {
            v.set(
                "volume.parssim.mpoints_per_s",
                (w.fields.len() as u64 * w.fields[0].dims.points()) as f64 / 1e6 / w.parssim_s,
            );
            chunk_codec(chunks, v);
            parallel_kernels(w, merged, v);
            disk_store(w, scratch, v);
        }
        (Layout::OutOfCore, _) => {}
    }
    let working_set: u64 = chunks.iter().map(ChunkPayload::wire_bytes).sum();
    v.set("probe.working_set_mb", working_set as f64 / 1e6);
    v.set("probe.llc_mb", last_level_cache_bytes() as f64 / 1e6);
}

/// Size of the largest cache `cpu0` reports in sysfs (0 if it reports
/// none). The chunk-sized probes cycle one timestep of chunks
/// (`probe.working_set_mb`); where that is below four times this size,
/// their MB/s are cache-warm rates, not memory bandwidth.
fn last_level_cache_bytes() -> u64 {
    (0..8)
        .filter_map(|i| {
            let text = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let text = text.trim();
            let (digits, scale) = match text.as_bytes().last()? {
                b'K' => (&text[..text.len() - 1], 1 << 10),
                b'M' => (&text[..text.len() - 1], 1 << 20),
                _ => (text, 1),
            };
            Some(digits.parse::<u64>().ok()? * scale)
        })
        .max()
        .unwrap_or(0)
}

/// Engine alone: self-wakes (no switch), cross-process wake-ups (one
/// thread hand-off per message), and process creation + teardown.
fn engine(v: &mut Values) {
    const DELAYS: u64 = 1_000_000;
    let t0 = Instant::now();
    let mut sim = Simulation::new();
    sim.spawn("delay", |env| {
        for _ in 0..DELAYS {
            env.delay(SimDuration::from_nanos(1));
        }
    });
    let stats = sim.run().expect("delay probe");
    v.set(
        "hetsim.engine.delay_events_per_s",
        stats.events as f64 / t0.elapsed().as_secs_f64(),
    );

    const ROUND_TRIPS: u64 = 100_000;
    let t0 = Instant::now();
    let mut sim = Simulation::new();
    let (ping_tx, ping_rx) = hetsim::channel::<u64>(sim.waker(), 1);
    let (pong_tx, pong_rx) = hetsim::channel::<u64>(sim.waker(), 1);
    sim.spawn("ping", move |env| {
        for i in 0..ROUND_TRIPS {
            ping_tx.send(&env, i).expect("pong is alive");
            pong_rx.recv(&env).expect("pong answers");
        }
    });
    sim.spawn("pong", move |env| {
        while let Some(i) = ping_rx.recv(&env) {
            pong_tx.send(&env, i).expect("ping is alive");
        }
    });
    sim.run().expect("ping-pong probe");
    v.set(
        "hetsim.engine.pingpong_msgs_per_s",
        (2 * ROUND_TRIPS) as f64 / t0.elapsed().as_secs_f64(),
    );

    const PROCESSES: u32 = 2_000;
    let t0 = Instant::now();
    let mut sim = Simulation::new();
    for i in 0..PROCESSES {
        sim.spawn(format!("p{i}"), |_env| {});
    }
    sim.run().expect("spawn probe");
    drop(sim);
    v.set(
        "hetsim.engine.spawn_us_per_process",
        t0.elapsed().as_secs_f64() * 1e6 / PROCESSES as f64,
    );
}

/// Delivery alone, per writer policy: null filters, 1 source → 2 hosts ×
/// 2 copies → 1 sink, 1 KiB buffers, at least a second per policy.
/// Counts every stream delivery (each buffer crosses two streams).
fn delivery(exec: Exec, v: &mut Values) {
    const BUFFERS: u64 = 5_000;
    let (topo, hosts) = rogue_cluster(4);
    let stages = [
        Stage::plain("src", Placement::on_host(hosts[0], 1)),
        Stage::plain(
            "mid",
            Placement {
                per_host: vec![(hosts[1], 2), (hosts[2], 2)],
            },
        ),
        Stage::plain("sink", Placement::on_host(hosts[3], 1)),
    ];
    let traffic = [Traffic {
        buffers_per_uow: BUFFERS,
        wire_bytes: 1024,
    }; 2];
    for (label, policy) in [
        ("rr", WritePolicy::RoundRobin),
        ("wrr", WritePolicy::WeightedRoundRobin),
        ("dd", WritePolicy::demand_driven()),
        ("tilehash", WritePolicy::TileHash),
    ] {
        let mut delivered = 0;
        let (_, spent) = repeat_for(1.0, || {
            let r = run_null_graph(&topo, &stages, &traffic, policy, exec, 1);
            delivered += r.streams.iter().map(|s| s.total_buffers()).sum::<u64>();
        });
        assert!(delivered > 0, "null graph delivered nothing");
        v.set(
            &format!("datacutter.delivery.{label}.{}.buffers_per_s", exec.label()),
            delivered as f64 / spent,
        );
    }
}

/// Barrier + end-of-work cost alone (the fan-out graph's copies, 50
/// UOWs, not one buffer), and spawn + teardown alone (same graph, one
/// UOW), both per raster copy.
fn idle_and_spawn(ra_per_host: u32, exec: Exec, v: &mut Values) {
    const UOWS: u32 = 50;
    let (topo, hosts) = rogue_cluster(4);
    let fan = Placement {
        per_host: hosts.iter().map(|&h| (h, ra_per_host)).collect(),
    };
    let copies = fan.total_copies() as f64;
    let stages = [
        Stage::plain("RE", Placement::one_per_host(&hosts)),
        Stage::plain("Ra", fan),
        Stage::plain("M", Placement::on_host(hosts[0], 1)),
    ];
    let none = [Traffic {
        buffers_per_uow: 0,
        wire_bytes: 0,
    }; 2];
    let policy = WritePolicy::demand_driven();
    let spawn_s: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            run_null_graph(&topo, &stages, &none, policy, exec, 1);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let spawn_s = median(&spawn_s);
    let t0 = Instant::now();
    run_null_graph(&topo, &stages, &none, policy, exec, UOWS);
    let idle_s = (t0.elapsed().as_secs_f64() - spawn_s).max(0.0);
    let x = exec.label();
    v.set(
        &format!("datacutter.spawn.{x}.us_per_copy"),
        spawn_s * 1e6 / copies,
    );
    v.set(
        &format!("datacutter.uow_idle.{x}.us_per_copy"),
        idle_s * 1e6 / (copies * (UOWS - 1) as f64),
    );
}

/// The paper's Figure 5 comparison: the ADR baseline on the same
/// cluster, dataset and ten timesteps (its images pass the same gate).
fn adr_baseline(w: &Workload, tally: &mut Tally, v: &mut Values) {
    let t0 = Instant::now();
    let results = adr::run_adr_timesteps(&w.topo, &w.cfgs[0], 0..w.cfgs.len() as u32)
        .expect("ADR run failed");
    let host_s = t0.elapsed().as_secs_f64() / results.len() as f64;
    for (t, r) in results.iter().enumerate() {
        let diff = r.image.diff_pixels(&w.refs[t]);
        tally.gate(diff == 0, || {
            format!("adr timestep {t}: {diff} pixels differ")
        });
    }
    let adr_virtual_s = adr::avg_elapsed_secs(&results);
    v.set("adr.virtual_s", adr_virtual_s);
    v.set("adr.host_s", host_s);
    if let Some(dc) = v.get("hetsim.virtual_s") {
        v.set("virtual_vs_adr", dc / adr_virtual_s);
    }
}

/// `volume::encode_chunk` / `decode_chunk` over one timestep's chunks.
fn chunk_codec(chunks: &[ChunkPayload], v: &mut Values) {
    let mut encoded = Vec::new();
    let (calls, spent) = repeat_for(0.5, || {
        encoded = chunks
            .iter()
            .map(|c| volume::encode_chunk(&c.grid))
            .collect();
    });
    let mb = encoded.iter().map(|b| b.len() as f64).sum::<f64>() / 1e6;
    v.set("volume.codec.encode_mb_per_s", mb * calls as f64 / spent);
    let (calls, spent) = repeat_for(0.5, || {
        for b in &encoded {
            let grid = volume::decode_chunk(b).expect("chunk decodes");
            std::hint::black_box(grid);
        }
    });
    v.set("volume.codec.decode_mb_per_s", mb * calls as f64 / spent);
}

/// ROADMAP's keep-or-delete number for `isosurf::par`: the global pool
/// (sized to the CPUs this process may use — one, pinned) against the
/// serial kernels, on a whole field and on full-image merges.
fn parallel_kernels(w: &Workload, merged: &ZBuffer, v: &mut Values) {
    let pool = ThreadPool::global();
    let field = &w.fields[0];
    let iso = w.iso();
    let mut tris = Vec::new();
    let (calls, spent) = repeat_for(0.3, || {
        tris.clear();
        isosurf::extract_serial(field, (0, 0, 0), iso, &mut tris);
    });
    let serial_s = spent / calls as f64;
    let mut scratch = ExtractScratch::default();
    let (calls, spent) = repeat_for(0.3, || {
        tris.clear();
        isosurf::extract_with(pool, &mut scratch, field, (0, 0, 0), iso, &mut tris);
    });
    v.set(
        "isosurf.par.extract_speedup",
        serial_s / (spent / calls as f64),
    );

    let mut dst = ZBuffer::new(merged.width, merged.height);
    let (calls, spent) = repeat_for(0.2, || dst.merge_serial(merged));
    let serial_s = spent / calls as f64;
    let mut dst = ZBuffer::new(merged.width, merged.height);
    let (calls, spent) = repeat_for(0.2, || dst.merge_with(pool, merged));
    v.set(
        "isosurf.par.merge_speedup",
        serial_s / (spent / calls as f64),
    );
}

/// The on-disk store, which `dcapp` does not read through today (it
/// reads the in-memory `Dataset`), so these move no end-to-end metric:
/// one timestep written, read back file by file, streamed through a
/// `ChunkCursor`, and served from a warm `ChunkCache`. Page-cache-warm.
fn disk_store(w: &Workload, scratch: &std::path::Path, v: &mut Values) {
    let cfg = &w.cfgs[0];
    let dir = scratch.join(format!("diskstore-{}", std::process::id()));
    let mb = cfg.dataset.timestep_bytes() as f64 / 1e6;
    let t0 = Instant::now();
    let store = volume::write_dataset(&dir, &cfg.dataset, 0, 0).expect("write dataset");
    v.set(
        "volume.diskstore.write_mb_per_s",
        mb / t0.elapsed().as_secs_f64(),
    );
    let files = || (0..store.n_files()).map(FileId);

    let t0 = Instant::now();
    for f in files() {
        std::hint::black_box(store.read_file(f).expect("read data file"));
    }
    v.set(
        "volume.diskstore.read_mb_per_s",
        mb / t0.elapsed().as_secs_f64(),
    );

    let t0 = Instant::now();
    for f in files() {
        let mut cur = store.cursor(f, 64 * 1024).expect("open cursor");
        while cur.next_chunk().expect("next chunk").is_some() {
            while let Some(slab) = cur.next_slab().expect("next slab") {
                std::hint::black_box(slab.data);
            }
        }
    }
    v.set(
        "volume.cursor.stream_mb_per_s",
        mb / t0.elapsed().as_secs_f64(),
    );
    drop(store);
    std::fs::remove_dir_all(&dir).expect("remove disk-store probe directory");

    let n = cfg.dataset.layout().count();
    let key = |i: u32| CacheKey {
        species: 0,
        timestep: 0,
        chunk: ChunkId(i),
    };
    let cache = ChunkCache::new(2 * cfg.dataset.timestep_bytes());
    for i in 0..n {
        cache.insert(key(i), Arc::new(cfg.dataset.read_chunk(0, 0, ChunkId(i))));
    }
    let (calls, spent) = repeat_for(0.2, || {
        for i in 0..n {
            std::hint::black_box(cache.get(key(i)).expect("warm cache hits"));
        }
    });
    v.set(
        "volume.cache.hit_ns",
        spent * 1e9 / (calls * n as u64) as f64,
    );
}
