//! Out-of-core acceptance suite: a seeded 1/16-of-a-timestep memory
//! budget — tight enough to force real spill traffic through the
//! temp-file ring — must change **when** payloads sit in memory, never
//! **what** the pipeline computes:
//!
//! - bit-identical pixels and per-stream delivery totals on the
//!   virtual-time simulator under RR, WRR, DD, and the tile-hash merge
//!   grouping;
//! - bit-identical pixels on the wall-clock `NativeExecutor`;
//! - bit-identical pixels with a seeded mid-run host crash recovered by
//!   retention while the run is actively spilling.

use std::sync::Arc;

use datacutter::SpillCodec;
use datacutter::{FaultOptions, NativeExecutor, Placement, WritePolicy};
use dcapp::{clone_config, Algorithm, ChunkPayload, Grouping, PipelineSpec, Render, SharedConfig};
use hetsim::{FaultPlan, HostId, SimDuration, SimTime, Topology};
use integration_tests::{
    cluster, executor, image_digest, small_dataset, stream_totals_digest, test_cfg, test_dataset,
};
use volume::ChunkId;

/// `cfg` with an in-flight budget of `1/denom` of one timestep's bytes.
fn budgeted(cfg: &SharedConfig, denom: u64) -> SharedConfig {
    let mut c = clone_config(cfg);
    c.memory_budget_bytes = c.dataset.timestep_bytes() / denom.max(1);
    c.validate().expect("budgeted config validates");
    Arc::new(c)
}

/// The recovery-suite `R–E–Ra–M` shape: data on host 0, extract
/// replicated on hosts 1–2, raster on 3, merge on 4. Chunk payloads
/// queue on the cross-host R→E streams — exactly what a shrinking
/// budget squeezes into the spill ring.
fn four_stage(hosts: &[HostId], policy: WritePolicy) -> PipelineSpec {
    PipelineSpec {
        grouping: Grouping::FourStage {
            extract: Placement::one_per_host(&[hosts[1], hosts[2]]),
            raster: Placement::on_host(hosts[3], 1),
        },
        algorithm: Algorithm::ZBuffer,
        policy,
        merge_host: hosts[4],
    }
}

/// Tile-owned compositing (the `TileHash`-routed merge group) on hosts
/// 2–3, raster on host 1.
fn tiled(hosts: &[HostId]) -> PipelineSpec {
    PipelineSpec {
        grouping: Grouping::TileComposite {
            raster: Placement::on_host(hosts[1], 1),
            merge: Placement::one_per_host(&[hosts[2], hosts[3]]),
        },
        algorithm: Algorithm::ActivePixel,
        policy: WritePolicy::demand_driven(),
        merge_host: hosts[4],
    }
}

fn assert_spilled(label: &str, r: &dcapp::PipelineResult) {
    let ooc = r.report.ooc;
    assert!(ooc.spills > 0, "{label}: a 1/16 budget must force spills");
    assert_eq!(
        ooc.spills, ooc.faults,
        "{label}: every spilled buffer re-faults exactly once"
    );
    assert_eq!(ooc.spill_bytes, ooc.fault_bytes, "{label}");
    assert_eq!(
        ooc.resident_bytes(),
        0,
        "{label}: the ledger drains when the run completes \
         (granted {} released {})",
        ooc.granted_bytes,
        ooc.released_bytes
    );
}

/// Simulator identity matrix: RR, WRR, DD, and the tile-hash merge
/// grouping, each unbudgeted vs 1/16-budgeted. Pixels must be
/// bit-identical everywhere; per-stream delivery totals additionally
/// pin under the deterministic policies (RR/WRR). Demand-driven routing
/// reacts to virtual-clock timing, which spill/fault disk time shifts,
/// so DD legitimately redistributes deliveries — but never bits.
#[test]
fn budget_1_16_is_bit_identical_on_sim_all_policies() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(11), vec![hosts[0]], 96);
    let specs: Vec<(&str, bool, PipelineSpec)> = vec![
        ("rr", true, four_stage(&hosts, WritePolicy::RoundRobin)),
        (
            "wrr",
            true,
            four_stage(&hosts, WritePolicy::WeightedRoundRobin),
        ),
        (
            "dd",
            false,
            four_stage(&hosts, WritePolicy::demand_driven()),
        ),
        ("tile-hash", false, tiled(&hosts)),
    ];
    for (label, exact_totals, spec) in &specs {
        let free = Render::new(&cfg, spec)
            .go(&topo)
            .expect("unbudgeted sim run");
        assert_eq!(
            free.report.ooc.spills, 0,
            "{label}: unbudgeted never spills"
        );
        let tight_cfg = budgeted(&cfg, 16);
        let tight = Render::new(&tight_cfg, spec)
            .go(&topo)
            .expect("budgeted sim run");
        assert_spilled(&format!("sim/{label}"), &tight);
        assert_eq!(
            tight.image().diff_pixels(free.image()),
            0,
            "{label}: a memory budget may cost time, never bits"
        );
        if *exact_totals {
            assert_eq!(
                stream_totals_digest(&tight),
                stream_totals_digest(&free),
                "{label}: spilling must not change what any stream delivered"
            );
        }
    }
}

/// Wall-clock identity: the budgeted run on the thread-per-copy executor
/// renders the same pixels as the simulator's unbudgeted reference, with
/// real spill traffic.
#[test]
fn budget_1_16_is_bit_identical_on_native() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(11), vec![hosts[0]], 96);
    for (label, spec) in [
        ("dd", four_stage(&hosts, WritePolicy::demand_driven())),
        ("tile-hash", tiled(&hosts)),
    ] {
        let free = Render::new(&cfg, &spec)
            .go(&topo)
            .expect("unbudgeted sim run");
        let want = image_digest(free.image());
        let tight_cfg = budgeted(&cfg, 16);
        let native = Render::new(&tight_cfg, &spec)
            .executor(NativeExecutor::new())
            .go(&topo)
            .expect("budgeted native run");
        assert_spilled(&format!("native/{label}"), &native);
        assert_eq!(
            image_digest(native.image()),
            want,
            "native/{label}: budgeted wall-clock pixels diverged"
        );
    }
}

/// A seeded host crash recovered losslessly under a `1/denom`-timestep
/// budget: no pixel and no byte lost, still spilling, and every budget
/// charge given back — including those of the queued originals the
/// reaper releases in favour of their retained replicas.
fn assert_budgeted_crash_recovers(denom: u64, policy: WritePolicy, frac: f64) {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(11), vec![hosts[0]], 96);
    let tight_cfg = budgeted(&cfg, denom);
    let label = format!("1/{denom} {} @ {frac}", policy.label());
    let spec = four_stage(&hosts, policy);
    let clean = Render::new(&tight_cfg, &spec)
        .go(&topo)
        .expect("budgeted fault-free run");
    assert_spilled(&format!("clean/{label}"), &clean);
    let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(frac);
    let plan = FaultPlan::new().crash_host(hosts[2], crash_at);
    let opts = FaultOptions::new(plan).liveness_timeout(SimDuration::from_millis(2));
    let faulted = Render::new(&tight_cfg, &spec)
        .faults(opts)
        .go(&topo)
        .expect("budgeted crash run completes");
    let f = &faulted.report.faults;
    assert!(f.copies_killed >= 1, "{label}: victim must die");
    assert_eq!(f.buffers_lost, 0, "{label}: recovery loses nothing");
    assert_eq!(f.bytes_lost, 0, "{label}");
    assert!(
        faulted.report.ooc.spills > 0,
        "{label}: the crash run must still be spilling"
    );
    assert_eq!(
        faulted.report.ooc.resident_bytes(),
        0,
        "{label}: released originals give their budget charge back"
    );
    assert_eq!(
        faulted.image().diff_pixels(clean.image()),
        0,
        "{label}: recovered budgeted image must be bit-identical"
    );
}

/// Crash-under-spill: a seeded mid-run host crash recovered losslessly
/// while the budget is actively spilling. The retention/replay machinery
/// and the spill ring share the delivery path; neither may cost a pixel
/// or a byte of loss.
#[test]
fn budget_1_16_survives_seeded_mid_run_crash_losslessly() {
    for policy in [WritePolicy::RoundRobin, WritePolicy::demand_driven()] {
        assert_budgeted_crash_recovers(16, policy, 0.25);
    }
}

/// At 1/16 every original queued at the dead host is spilled; under a
/// half-timestep budget an early crash finds resident, charged ones
/// there, and releasing them must discharge the ledger.
#[test]
fn half_budget_early_crash_releases_resident_charges() {
    assert_budgeted_crash_recovers(2, WritePolicy::RoundRobin, 0.05);
}

/// Disk-model `(read, write)` events summed over every disk in the
/// cluster. The disks are shared handles, so deltas around a run isolate
/// that run's traffic.
fn disk_events(topo: &Topology) -> (u64, u64) {
    topo.hosts()
        .iter()
        .flat_map(|h| &h.disks)
        .fold((0, 0), |(r, w), d| (r + d.reads(), w + d.writes()))
}

/// The retired `outofcore_sweep`'s `budget_1_16` row, pinned: R–E–Ra–M
/// under DD over `small_dataset` on four hosts (extract on host 1, raster
/// and merge on host 0) at 64×64. Virtual time makes every counter exact.
/// Each spill is one disk-model write and each fault-in one read on top
/// of the 128 chunk reads. The ledger charges the bytes a payload holds
/// (a header's 24, not its chunk's declared size) and keeps one payload
/// resident per stream, so no header spills: the 13 spills are whole
/// cut chunks, 19 684-byte sealed frames each.
#[test]
fn budget_1_16_spill_counters_are_pinned_on_small_dataset() {
    let (topo, hosts) = cluster(4);
    let cfg = test_cfg(small_dataset(), hosts.clone(), 64);
    let spec = PipelineSpec {
        grouping: Grouping::FourStage {
            extract: Placement::on_host(hosts[1], 1),
            raster: Placement::on_host(hosts[0], 1),
        },
        algorithm: Algorithm::ActivePixel,
        policy: WritePolicy::demand_driven(),
        merge_host: hosts[0],
    };
    let run = |cfg: &SharedConfig| {
        let (reads, writes) = disk_events(&topo);
        let r = Render::new(cfg, &spec).go(&topo).expect("sim run");
        let (reads_after, writes_after) = disk_events(&topo);
        (r, reads_after - reads, writes_after - writes)
    };

    let (free, free_reads, free_writes) = run(&cfg);
    assert_eq!(free.report.ooc.spills, 0, "unbudgeted never spills");
    assert_eq!((free_reads, free_writes), (128, 0));

    let (tight, tight_reads, tight_writes) = run(&budgeted(&cfg, 16));
    assert_spilled("small/dd", &tight);
    assert_eq!(tight.image().diff_pixels(free.image()), 0);
    assert_eq!(tight.report.ooc.spills, 13);
    assert_eq!(tight.report.ooc.spill_bytes, 255_892);
    assert_eq!((tight_reads, tight_writes), (128 + 13, 13));
}

/// The ledger charges a payload the bytes it holds: a header (an origin
/// and no sample) costs its 24 encoded bytes, not the ~4.2 KB its chunk
/// declares on the wire. Split `R-E-Ra-M` under a 1/8-timestep budget
/// puts each stream's share (a third of the budget) between one cut
/// chunk plus every header of the unit of work and two cut chunks. So on
/// either executor a header never spills, while a cut chunk arriving
/// behind a resident one still does (on the simulator always, natively
/// when the schedule queues two). Charged at its declared size, a header
/// behind a resident chunk would spill too. Under a 1/16-timestep budget
/// or one of 1/64 chunk the share is below one chunk, so a header queued
/// behind the floor's resident chunk is over it; it stays resident
/// because its 24 bytes are no more than the stub spilling it would
/// leave ([`datacutter::SPILL_STUB_BYTES`]). `R` is the only producer on
/// `R→E`, and its copy's disk bytes over the unbudgeted run's are what it
/// spilled: whole sealed chunk frames, with no 32-byte header frame among
/// them.
#[test]
fn split_read_spills_cut_chunks_and_never_headers_on_both_executors() {
    let (topo, hosts) = cluster(5);
    let cfg = test_cfg(test_dataset(11), vec![hosts[0]], 96);
    let spec = four_stage(&hosts, WritePolicy::demand_driven());
    let ds = &cfg.dataset;
    let chunks: Vec<ChunkId> = (0..ds.layout().count()).map(ChunkId).collect();
    let held = |id: ChunkId| -> u64 {
        let grid = ds.read_chunk(cfg.species, cfg.timestep, id);
        ChunkPayload {
            origin: (0, 0, 0),
            grid,
        }
        .spill_len() as u64
    };
    let header = ChunkPayload::header((0, 0, 0)).spill_len() as u64;
    let chunk = held(ChunkId(0));
    assert!(chunks.iter().all(|&id| held(id) == chunk), "uniform chunks");
    assert!(
        header <= datacutter::SPILL_STUB_BYTES,
        "a header is no larger than its stub"
    );
    let free = Render::new(&cfg, &spec)
        .go(&topo)
        .expect("unbudgeted sim run");
    assert_eq!(free.report.ooc.spills, 0, "unbudgeted never spills");
    let share = |c: &SharedConfig| c.memory_budget_bytes / free.report.streams.len() as u64;
    let eighth = budgeted(&cfg, 8);
    assert!(
        chunk + chunks.len() as u64 * header <= share(&eighth) && share(&eighth) < 2 * chunk,
        "the share holds one cut chunk and every header, not two cut chunks: {}",
        share(&eighth)
    );
    let mut tiny = clone_config(&cfg);
    tiny.memory_budget_bytes = ds.chunk_bytes(ChunkId(0)) / 64;
    let tiny: SharedConfig = Arc::new(tiny);
    let arms = [
        ("1/8", eighth),
        ("1/16", budgeted(&cfg, 16)),
        ("chunk/64", tiny),
    ];
    for (arm, c) in &arms[1..] {
        assert!(share(c) < chunk, "{arm}: the share is below one chunk");
    }
    let crossing = chunks
        .iter()
        .filter(|&&id| ds.can_cross(cfg.species, cfg.timestep, id, cfg.iso))
        .count() as u64;
    assert!(
        crossing > 0 && crossing < chunks.len() as u64,
        "R ships both kinds"
    );
    // Sealed frames carry an 8-byte trailer. Every header of the run
    // together spills less than one chunk frame, so any header frame
    // leaves a remainder.
    let chunk_frame = chunk + 8;
    assert!(chunks.len() as u64 * (header + 8) < chunk_frame);

    let read_disk = |r: &dcapp::PipelineResult| -> u64 {
        r.report
            .copies
            .iter()
            .filter(|c| c.filter_name == "R")
            .map(|c| c.counters.disk_bytes)
            .sum()
    };
    let reads = read_disk(&free);
    for ((arm, tight), sub) in arms.iter().flat_map(|a| [(a, "sim"), (a, "native")]) {
        let r = Render::new(tight, &spec)
            .executor(executor(sub))
            .go(&topo)
            .expect("budgeted run");
        let label = format!("{arm} {sub}");
        let label = label.as_str();
        assert_spilled(label, &r);
        assert_eq!(r.image().diff_pixels(free.image()), 0, "{label}: pixels");
        let spilled = read_disk(&r) - reads;
        assert_eq!(
            spilled % chunk_frame,
            0,
            "{label}: R spilled {spilled} bytes, which is not whole {chunk_frame}-byte chunk frames: a header spilled"
        );
        // Whether two cut chunks ever queue together on native threads
        // is the schedule's to say; the simulator's schedule is fixed.
        let cut = spilled / chunk_frame;
        let least = u64::from(sub == "sim");
        assert!(
            (least..=crossing).contains(&cut),
            "{label}: R spilled {cut} cut chunks of {crossing}"
        );
    }
}
