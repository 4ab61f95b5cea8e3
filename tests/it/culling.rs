//! A fused read+extract filter never cuts a chunk the isosurface cannot
//! cross. `volume::Dataset` builds each chunk's value range with the
//! field, and `volume::can_cross` applies the extract kernel's rule to
//! it. Two things must hold:
//!
//! - the oracle: the index is exactly the value range of the cut chunk,
//!   and a chunk it rejects gives no triangle and the cell count the
//!   skipped scan is charged, on grids with NaN, ±∞, samples equal to
//!   the isovalue, constant fields and uneven chunk splits;
//! - the pins: every fused grouping under every writer policy renders
//!   and measures exactly what it did when it cut every chunk, and the
//!   split groupings (`R-E`, `R-ERa`) exactly what they did when `R` cut
//!   and `E` scanned every chunk: `R` now ships a chunk the surface
//!   cannot cross as a header declaring the chunk's wire size, and `E`
//!   finds each chunk it receives by its origin and skips by the same
//!   rule — unbudgeted, on both executors, and under a memory budget
//!   that spills headers and chunks alike.
//!
//! Release builds run the oracle at a high case count.

use datacutter::{ExecutorChoice, NativeExecutor, Placement, SimExecutor, WritePolicy};
use dcapp::{
    clone_config, reference_image, Algorithm, Grouping, PipelineResult, PipelineSpec, Render,
    SharedConfig,
};
use hetsim::presets::rogue_blue_mix;
use hetsim::{splitmix64, HostId, Topology};
use integration_tests::{image_digest, metrics_digest, test_cfg, test_dataset};
use isosurf::Image;
use proptest::prelude::*;
use volume::{can_cross, ChunkId, ChunkLayout, Dataset, Dims, RectGrid};

fn oracle_cases() -> u32 {
    if cfg!(debug_assertions) {
        256
    } else {
        16_384
    }
}

/// splitmix64 step: [`splitmix64`] mixes the state advanced by its
/// golden-ratio increment, and the state keeps that advance.
fn next(s: &mut u64) -> u64 {
    let z = splitmix64(*s);
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z
}

/// A sample drawn to hit every side of the rule: NaN, ±∞, exactly
/// `iso`, or one of eleven values in `[0, 1]` (so ties are common).
fn sample(s: &mut u64, iso: f32) -> f32 {
    match next(s) % 16 {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3..=5 => iso,
        r => (r % 11) as f32 / 10.0 + (next(s) % 3) as f32 * 0.05,
    }
}

/// A field over `dims`: constant (1 in 8), sparse (mostly one value with
/// a few others), or dense.
fn field(s: &mut u64, dims: Dims, iso: f32) -> RectGrid {
    match next(s) % 8 {
        0 => RectGrid::filled(dims, sample(s, iso)),
        1..=3 => {
            let base = sample(s, iso);
            RectGrid::from_fn(dims, |_, _, _| {
                if next(s).is_multiple_of(64) {
                    sample(s, iso)
                } else {
                    base
                }
            })
        }
        _ => RectGrid::from_fn(dims, |_, _, _| sample(s, iso)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    /// The index equals the cut chunk's range, and a rejected chunk
    /// extracts to nothing over exactly the cells its skip is charged.
    #[test]
    fn chunk_range_index_matches_the_cut_and_the_kernel(
        nx in 2u32..14, ny in 2u32..14, nz in 2u32..14,
        cx in 1u32..5, cy in 1u32..5, cz in 1u32..5,
        seed in any::<u64>(),
    ) {
        prop_assume!(nx > cx && ny > cy && nz > cz);
        let mut s = seed;
        let iso = match next(&mut s) % 8 {
            0 => f32::NAN,
            1..=3 => 0.5,
            _ => (next(&mut s) % 11) as f32 / 10.0,
        };
        let layout = ChunkLayout::new(Dims::new(nx, ny, nz), (cx, cy, cz));
        let grid = field(&mut s, layout.grid, iso);
        let ranges = layout.value_ranges(&grid);
        prop_assert_eq!(ranges.len(), layout.count() as usize);
        for info in layout.all() {
            let chunk = layout.extract(&grid, info.id);
            let range = ranges[info.id.0 as usize];
            prop_assert_eq!(range, chunk.value_range(), "chunk {:?}", info.id);
            if !can_cross(range, iso) {
                let mut tris = Vec::new();
                let stats = isosurf::extract(&chunk, info.cell_origin, iso, &mut tris);
                prop_assert_eq!(stats.triangles, 0, "chunk {:?} at iso {}", info.id, iso);
                prop_assert!(tris.is_empty());
                prop_assert_eq!(stats.cells, info.point_dims().cells());
            }
        }
    }

    /// A generated dataset's index is the range of each chunk it reads.
    #[test]
    fn dataset_index_is_built_with_each_field(
        seed in any::<u64>(), species in 0u32..4, timestep in 0u32..10,
    ) {
        let ds = Dataset::generate(Dims::new(14, 11, 17), (3, 2, 4), 4, seed);
        for i in 0..ds.layout().count() {
            let id = ChunkId(i);
            prop_assert_eq!(
                ds.chunk_range(species, timestep, id),
                ds.read_chunk(species, timestep, id).value_range()
            );
        }
    }
}

/// Two Rogue hosts under background load and two dedicated Blue hosts,
/// all four storage and raster hosts, merge on Blue (the fig5 setting of
/// `dataplane_identity`, scaled for tests).
fn setting() -> (Topology, Vec<HostId>, HostId) {
    let (topo, rogues, blues) = rogue_blue_mix(2);
    for &h in &rogues {
        topo.host(h).cpu.set_bg_jobs(4);
    }
    let mut hosts = rogues;
    hosts.extend(&blues);
    (topo, hosts, blues[0])
}

/// The two fused groupings that read and extract in one filter, the
/// four-stage line whose lone `E` copy extracts what `R` ships, and the
/// `R-ERa` line whose `ERa` copies, one per host, extract and raster it.
fn spec(grouping: &str, policy: &str, hosts: &[HostId], merge: HostId) -> PipelineSpec {
    let raster = Placement::one_per_host(hosts);
    let grouping = match grouping {
        "R-E" => Grouping::FourStage {
            extract: Placement::on_host(hosts[1], 1),
            raster,
        },
        "R-ERa" => Grouping::REraSplit { era: raster },
        "RE" => Grouping::RERaSplit { raster },
        "RERa" => Grouping::RERaM,
        _ => unreachable!("unknown grouping {grouping}"),
    };
    let policy = match policy {
        "rr" => WritePolicy::RoundRobin,
        "wrr" => WritePolicy::WeightedRoundRobin,
        "dd" => WritePolicy::demand_driven(),
        _ => unreachable!("unknown policy {policy}"),
    };
    PipelineSpec {
        grouping,
        algorithm: Algorithm::ActivePixel,
        policy,
        merge_host: merge,
    }
}

/// Timestep 3 of `test_dataset(7)` at isovalue 0.7: the surface misses
/// 29 of the 36 chunks.
fn config(hosts: &[HostId]) -> SharedConfig {
    let mut c = clone_config(&test_cfg(test_dataset(7), hosts.to_vec(), 96));
    c.iso = 0.7;
    c.timestep = 3;
    std::sync::Arc::new(c)
}

fn run(grouping: &str, policy: &str, cfg: &SharedConfig) -> PipelineResult {
    let (topo, hosts, merge) = setting();
    Render::new(cfg, &spec(grouping, policy, &hosts, merge))
        .go(&topo)
        .expect("fused run failed")
}

/// The one image every arm renders: `reference_image(&config(..))`.
const IMAGE: u64 = 0xb02a4f3efa9fb89a;

/// `(grouping, policy, metrics digest)` captured on the tree whose fused
/// filters cut and extracted every chunk (commit 1b9e54c).
const PINNED: &[(&str, &str, u64)] = &[
    ("RE", "rr", 0xcfc4baf5cbf465fa),
    ("RE", "wrr", 0xcfc4baf5cbf465fa),
    ("RE", "dd", 0x9b71c2ef90c9aab3),
    ("RERa", "rr", 0xed050f277432a5bc),
    ("RERa", "wrr", 0xed050f277432a5bc),
    ("RERa", "dd", 0x98ca44e979f7835a),
];

/// `(grouping, policy, metrics digest)` of the split groupings over three
/// units of work in one simulation (timesteps 3, 4 and 5). `R-E` was
/// captured on the tree whose split extract scanned every chunk it
/// received (commit 47c73f0), `R-ERa` on the tree whose split `R` cut
/// every chunk (commit 8945152).
const PINNED_SPLIT: &[(&str, &str, u64)] = &[
    ("R-E", "rr", 0x5b0a4125742956f6),
    ("R-E", "dd", 0x556907446fe1e6fd),
    ("R-ERa", "rr", 0x0a97747bcb105020),
    ("R-ERa", "dd", 0x4234aced7755de4c),
];

/// The units of work every split-grouping run renders.
const UOWS: u32 = 3;

/// `cfg` under a memory budget of 1/16 of a timestep's bytes.
fn budgeted(cfg: &SharedConfig) -> SharedConfig {
    let mut c = clone_config(cfg);
    c.memory_budget_bytes = c.dataset.timestep_bytes() / 16;
    c.validate().expect("budgeted config validates");
    std::sync::Arc::new(c)
}

/// Each image of a run of [`UOWS`] units of work is the reference image
/// of its timestep.
fn assert_every_timestep(label: &str, cfg: &SharedConfig, images: &[Image]) {
    assert_eq!(images.len(), UOWS as usize, "{label}: one image a unit");
    for (k, image) in images.iter().enumerate() {
        let mut c = clone_config(cfg);
        c.timestep += k as u32;
        let want = reference_image(&std::sync::Arc::new(c));
        assert_eq!(image.diff_pixels(&want), 0, "{label}: unit of work {k}");
    }
}

#[test]
fn the_pinned_configuration_skips_most_chunks_but_not_all() {
    let (_, hosts, _) = setting();
    let cfg = config(&hosts);
    let n = cfg.dataset.layout().count();
    let missed = (0..n)
        .filter(|&i| {
            !cfg.dataset
                .can_cross(cfg.species, cfg.timestep, ChunkId(i), cfg.iso)
        })
        .count();
    assert_eq!((missed, n), (29, 36));
    assert_eq!(image_digest(&reference_image(&cfg)), IMAGE);
}

#[test]
fn fused_groupings_match_the_digests_of_cutting_every_chunk() {
    let (_, hosts, _) = setting();
    let cfg = config(&hosts);
    for &(grouping, policy, metrics) in PINNED {
        let r = run(grouping, policy, &cfg);
        assert_eq!(
            image_digest(r.image()),
            IMAGE,
            "{grouping}/{policy}: pixels"
        );
        assert_eq!(metrics_digest(&r), metrics, "{grouping}/{policy}: metrics");
    }
}

#[test]
fn split_extract_matches_the_digests_of_scanning_every_chunk() {
    let (topo, hosts, merge) = setting();
    let cfg = config(&hosts);
    for &(grouping, policy, metrics) in PINNED_SPLIT {
        let label = format!("{grouping}/{policy}");
        let s = spec(grouping, policy, &hosts, merge);
        let r = Render::new(&cfg, &s)
            .uows(UOWS)
            .go(&topo)
            .expect("split run failed");
        assert_every_timestep(&label, &cfg, &r.images);
        assert_eq!(metrics_digest(&r), metrics, "{label}: metrics");
    }
}

#[test]
fn native_split_groupings_render_every_timestep() {
    let (topo, hosts, merge) = setting();
    let cfg = config(&hosts);
    for grouping in ["R-E", "R-ERa"] {
        for policy in ["rr", "dd"] {
            let s = spec(grouping, policy, &hosts, merge);
            let r = Render::new(&cfg, &s)
                .executor(NativeExecutor::new())
                .uows(UOWS)
                .go(&topo)
                .expect("native split run failed");
            assert_every_timestep(&format!("native {grouping}/{policy}"), &cfg, &r.images);
        }
    }
}

/// `R-E-Ra-M` under a 1/16-timestep budget on both executors: headers
/// and cut chunks queue, spill and fault back alike, and every image is
/// the unbudgeted run's.
#[test]
fn budgeted_split_extract_draws_the_unbudgeted_images() {
    let (topo, hosts, merge) = setting();
    let cfg = config(&hosts);
    let s = spec("R-E", "dd", &hosts, merge);
    let free = Render::new(&cfg, &s)
        .uows(UOWS)
        .go(&topo)
        .expect("unbudgeted split run failed");
    let tight = budgeted(&cfg);
    let execs: [(&str, ExecutorChoice); 2] = [
        ("sim", SimExecutor::new().into()),
        ("native", NativeExecutor::new().into()),
    ];
    for (label, exec) in execs {
        let r = Render::new(&tight, &s)
            .executor(exec)
            .uows(UOWS)
            .go(&topo)
            .expect("budgeted split run failed");
        let ooc = r.report.ooc;
        assert!(ooc.spills > 0, "{label}: a 1/16 budget must force spills");
        assert_eq!(
            ooc.spills, ooc.faults,
            "{label}: each spill faults back once"
        );
        assert_eq!(ooc.spill_bytes, ooc.fault_bytes, "{label}");
        assert_eq!(r.images.len(), free.images.len(), "{label}");
        for (k, (got, want)) in r.images.iter().zip(&free.images).enumerate() {
            assert_eq!(got.diff_pixels(want), 0, "{label}: unit of work {k}");
        }
    }
}

#[test]
fn native_fused_groupings_render_the_pinned_image() {
    let (topo, hosts, merge) = setting();
    let cfg = config(&hosts);
    for grouping in ["RE", "RERa"] {
        for policy in ["rr", "dd"] {
            let s = spec(grouping, policy, &hosts, merge);
            let r = Render::new(&cfg, &s)
                .executor(NativeExecutor::new())
                .go(&topo)
                .expect("native fused run failed");
            assert_eq!(image_digest(r.image()), IMAGE, "native {grouping}/{policy}");
        }
    }
}
