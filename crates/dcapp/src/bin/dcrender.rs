//! `dcrender` — command-line isosurface renderer on the emulated cluster.
//!
//! ```text
//! cargo run --release -p dcapp --bin dcrender -- \
//!     --nodes 4 --grid 64 --image 512 --iso 0.5 --species 0 --timestep 2 \
//!     --grouping re-ra-m --policy dd --algorithm ap --out render.ppm
//! ```
//!
//! Run with `--help` for the full flag list. `--plan` lets the automatic
//! planner pick grouping/policy/merge host instead: it simulates every
//! candidate and keeps the fastest.

use std::io::Write;
use std::process::exit;
use std::sync::Arc;

use datacutter::{ExecutorChoice, NativeExecutor, Placement, SimExecutor, WritePolicy};
use dcapp::{Algorithm, AppConfig, Grouping, PipelineSpec};
use hetsim::presets::rogue_cluster;
use volume::{Dataset, Dims};

/// Write one line to stdout. When stdout is closed (the reader of a pipe
/// went away) the program ends quietly with status 0; any other write
/// error is reported and exits 1.
fn say(line: std::fmt::Arguments) {
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            exit(0);
        }
        eprintln!("dcrender: cannot write to stdout: {e}");
        exit(1);
    }
}

/// `println!` through [`say`].
macro_rules! say {
    ($($arg:tt)*) => {
        say(format_args!($($arg)*))
    };
}

struct Args {
    nodes: usize,
    grid: u32,
    image: u32,
    iso: f32,
    species: u32,
    timestep: u32,
    seed: u64,
    grouping: String,
    policy: WritePolicy,
    algorithm: Algorithm,
    executor: &'static str,
    memory_budget: u64,
    cache_capacity: u64,
    storage_faults: Option<u64>,
    storage_retries: Option<u32>,
    out: String,
    plan: bool,
    verbose: bool,
}

const HELP: &str = "dcrender — isosurface rendering on an emulated heterogeneous cluster

USAGE: dcrender [FLAGS]

  --nodes N        cluster size, 1..=256 (default 4)
  --grid N         volume cells per axis, 1..=1024 (default 64)
  --image N        output image width=height, 1..=65536 (default 512)
  --iso V          isosurface value, finite (default 0.5)
  --species N      chemical species 0..3 (default 0)
  --timestep N     stored timestep 0..9 (default 0)
  --seed N         dataset seed (default 42)
  --grouping G     rera-m | re-ra-m | r-era-m | re-ra-mt-a (default re-ra-m)
  --policy P       rr | wrr | dd (default dd)
  --algorithm A    zb | ap (default ap)
  --executor E     sim | native (default sim; tasked = native)
  --memory-budget B   in-flight stream-buffer byte budget; over-budget
                      streams spill to a temp-file ring, 0 = off (default 0)
  --cache-capacity B  shared decoded-chunk cache bytes, 0 = off (default 0)
  --storage-faults S  inject seeded transient disk errors into the spill
                      ring (seed S); the run retries/degrades through the
                      storage ladder and prints its fault report
  --storage-retries N retry budget per storage op before degrading
                      (default 8, max 64)
  --out PATH       output PPM path (default render.ppm)
  --plan           let the planner choose grouping/policy/merge host by
                   simulating every candidate (--verbose lists them)
  --verbose        print per-copy metrics and host utilization
  --help           this text";

fn parse_args() -> Args {
    let mut a = Args {
        nodes: 4,
        grid: 64,
        image: 512,
        iso: 0.5,
        species: 0,
        timestep: 0,
        seed: 42,
        grouping: "re-ra-m".into(),
        policy: WritePolicy::demand_driven(),
        algorithm: Algorithm::ActivePixel,
        executor: "sim",
        memory_budget: 0,
        cache_capacity: 0,
        storage_faults: None,
        storage_retries: None,
        out: "render.ppm".into(),
        plan: false,
        verbose: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--nodes" => a.nodes = ranged(&argv, &mut i, |n| (1..=256).contains(n)),
            "--grid" => a.grid = ranged(&argv, &mut i, |n| (1..=1024).contains(n)),
            "--image" => a.image = ranged(&argv, &mut i, |n| (1..=65536).contains(n)),
            "--iso" => a.iso = ranged(&argv, &mut i, |v: &f32| v.is_finite()),
            "--species" => a.species = ranged(&argv, &mut i, |n| *n < volume::SPECIES_COUNT),
            "--timestep" => a.timestep = ranged(&argv, &mut i, |n| *n < volume::TIMESTEPS),
            "--seed" => a.seed = number(&argv, &mut i),
            "--grouping" => a.grouping = value(&argv, &mut i).into(),
            "--policy" => {
                a.policy = match value(&argv, &mut i) {
                    "rr" => WritePolicy::RoundRobin,
                    "wrr" => WritePolicy::WeightedRoundRobin,
                    "dd" => WritePolicy::demand_driven(),
                    p => usage_error(format_args!("--policy: unknown policy '{p}'")),
                }
            }
            "--algorithm" => {
                a.algorithm = match value(&argv, &mut i) {
                    "zb" => Algorithm::ZBuffer,
                    "ap" => Algorithm::ActivePixel,
                    x => usage_error(format_args!("--algorithm: unknown algorithm '{x}'")),
                }
            }
            "--executor" => {
                a.executor = match value(&argv, &mut i) {
                    "sim" => "sim",
                    // `tasked` named a pooled executor since folded into
                    // the native one.
                    "native" | "tasked" => "native",
                    x => usage_error(format_args!("--executor: unknown executor '{x}'")),
                }
            }
            "--memory-budget" => a.memory_budget = number(&argv, &mut i),
            "--cache-capacity" => a.cache_capacity = number(&argv, &mut i),
            "--storage-faults" => a.storage_faults = Some(number(&argv, &mut i)),
            "--storage-retries" => a.storage_retries = Some(number(&argv, &mut i)),
            "--out" => a.out = value(&argv, &mut i).into(),
            "--plan" => a.plan = true,
            "--verbose" => a.verbose = true,
            "--help" | "-h" => {
                say!("{HELP}");
                exit(0);
            }
            other => usage_error(format_args!("unknown flag {other}")),
        }
        i += 1;
    }
    a
}

/// Reject the command line: one line saying what is wrong, the usage
/// line, exit status 2.
fn usage_error(what: std::fmt::Arguments) -> ! {
    eprintln!("dcrender: {what}\nUSAGE: dcrender [FLAGS]   (--help lists them)");
    exit(2);
}

/// The value following the flag at `argv[*i]`; advances `i` onto it.
fn value<'a>(argv: &'a [String], i: &mut usize) -> &'a str {
    *i += 1;
    match argv.get(*i) {
        Some(v) => v,
        None => usage_error(format_args!("{}: missing value", argv[*i - 1])),
    }
}

/// As [`value`], parsed as a number.
fn number<T: std::str::FromStr>(argv: &[String], i: &mut usize) -> T {
    let v = value(argv, i);
    v.parse()
        .unwrap_or_else(|_| usage_error(format_args!("{}: invalid value '{v}'", argv[*i - 1])))
}

/// As [`number`], refusing a value `ok` rejects: every flag whose
/// parseable values include ones the set-up code cannot take (`--nodes 0`
/// trips `rogue_cluster`'s declustering, `--grid 4294967295` overflows
/// `Dims::new`) or that name nothing (`--species 7`, `--timestep 12`) is
/// checked here, before any is reached. The other numeric flags accept
/// their whole type or are range-checked by `AppConfig::validate`.
fn ranged<T: std::str::FromStr>(argv: &[String], i: &mut usize, ok: impl Fn(&T) -> bool) -> T {
    let n = number(argv, i);
    if !ok(&n) {
        usage_error(format_args!(
            "{}: out of range '{}'",
            argv[*i - 1],
            argv[*i]
        ));
    }
    n
}

/// Seeded transient disk errors on every host's spill ring for the whole
/// run window; the storage ladder retries through them, so the image stays
/// bit-identical to a fault-free run.
fn storage_chaos(seed: u64, hosts: &[hetsim::HostId]) -> datacutter::FaultOptions {
    let window = hetsim::SimDuration::from_secs(3600);
    let mut chaos = hetsim::FaultPlan::new().storage_seed(seed);
    for &h in hosts {
        for kind in [hetsim::DiskFaultKind::Write, hetsim::DiskFaultKind::Read] {
            chaos = chaos.disk_error(h, hetsim::SimTime::ZERO, window, 0.2, kind);
        }
    }
    datacutter::FaultOptions::new(chaos)
}

fn main() {
    let args = parse_args();
    let (topo, hosts) = rogue_cluster(args.nodes);

    // Chunk the volume ~16 cells per axis per chunk.
    let per_axis = (args.grid / 16).max(1);
    let dataset = Dataset::generate(
        Dims::new(args.grid + 1, args.grid + 1, args.grid + 1),
        (per_axis, per_axis, per_axis),
        64.min(per_axis.pow(3)).max(1),
        args.seed,
    );
    let mut cfg = AppConfig::new(dataset, hosts.clone(), 2, args.image, args.image);
    cfg.iso = args.iso;
    cfg.species = args.species;
    cfg.timestep = args.timestep;
    cfg.material = isosurf::species_material(cfg.species);
    let exec: ExecutorChoice = match args.executor {
        "sim" => SimExecutor::new().into(),
        _ => NativeExecutor::new().into(),
    };
    cfg.memory_budget_bytes = args.memory_budget;
    cfg.cache_capacity = args.cache_capacity;
    if let Some(budget) = args.storage_retries {
        cfg.storage_retry_budget = budget;
    }
    if let Err(e) = cfg.validate() {
        eprintln!("{e}");
        exit(2);
    }
    let cfg = Arc::new(cfg);

    let spec = if args.plan {
        let plan = dcapp::plan(&topo, &cfg, &hosts).unwrap_or_else(|e| {
            eprintln!("dcrender: planning failed: {e}");
            exit(1);
        });
        say!("planner: {}", plan.rationale);
        if args.verbose {
            for (label, secs) in &plan.candidates {
                say!("  {label:>28}: {secs:.3} s simulated");
            }
        }
        plan.spec
    } else {
        let everywhere = Placement::one_per_host(&hosts);
        PipelineSpec {
            grouping: match args.grouping.as_str() {
                "rera-m" => Grouping::RERaM,
                "re-ra-m" => Grouping::RERaSplit { raster: everywhere },
                "r-era-m" => Grouping::REraSplit { era: everywhere },
                "re-ra-mt-a" => Grouping::TileComposite {
                    raster: everywhere.clone(),
                    merge: everywhere,
                },
                g => usage_error(format_args!("--grouping: unknown grouping '{g}'")),
            },
            algorithm: args.algorithm,
            policy: args.policy,
            merge_host: hosts[0],
        }
    };

    if let Err(e) = cfg.validate_for(spec.algorithm) {
        eprintln!("{e}");
        exit(2);
    }

    say!(
        "rendering {}^3 cells at {}x{} on {} nodes: {} + {} + {} [{}]",
        args.grid,
        args.image,
        args.image,
        args.nodes,
        spec.grouping.label(),
        spec.policy.label(),
        spec.algorithm.label(),
        args.executor
    );
    let render = dcapp::Render::new(&cfg, &spec).executor(exec);
    let render = match args.storage_faults {
        Some(seed) => render.faults(storage_chaos(seed, &hosts)),
        None => render,
    };
    let r = render.go(&topo).unwrap_or_else(|e| {
        eprintln!("run failed: {e}");
        exit(1);
    });
    say!(
        "done in {:.3} {} seconds ({} engine events, {} surface pixels)",
        r.elapsed.as_secs_f64(),
        if args.executor == "sim" {
            "virtual"
        } else {
            "wall-clock"
        },
        r.report.events,
        r.image().coverage(isosurf::BACKGROUND)
    );
    if cfg.memory_budget_bytes > 0 {
        let ooc = r.report.ooc;
        say!(
            "out-of-core: budget {} B, {} spills ({} B), {} faults ({} B)",
            ooc.memory_budget_bytes,
            ooc.spills,
            ooc.spill_bytes,
            ooc.faults,
            ooc.fault_bytes
        );
    }
    if args.storage_faults.is_some() {
        say!("{}", r.report.faults);
    }
    if let Some(cache) = cfg.chunk_cache() {
        let s = cache.stats();
        say!(
            "chunk cache: {}/{} lookups hit ({:.0}%), {} B resident of {} B",
            s.hits,
            s.lookups(),
            s.hit_rate() * 100.0,
            s.resident_bytes,
            s.capacity_bytes
        );
    }
    if args.verbose {
        for c in &r.report.copies {
            say!(
                "  {:>6} #{} @h{:<2} in {:>5} out {:>5} work {:>8.4}s stall {:>8.4}s",
                c.filter_name,
                c.copy_index,
                c.host.0,
                c.counters.buffers_in,
                c.counters.buffers_out,
                c.counters.work.as_secs_f64(),
                (c.counters.read_wait + c.counters.write_wait).as_secs_f64()
            );
        }
        for u in topo.utilization(r.elapsed) {
            say!("  {u}");
        }
    }
    r.image().save_ppm(&args.out).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.out);
        exit(1);
    });
    say!("wrote {}", args.out);
}
