//! **dcbench** — one end-to-end + per-layer benchmark for sim, native,
//! tasked and out-of-core isosurface rendering. See `README.md` beside
//! this package for the metric glossary and how to read the output.
//!
//! ```text
//! dcbench --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! dcbench [--seed N] [--seconds S] [--trace 0|1]          all five, one child process each
//! dcbench --check [--seed N] [--seconds S]                the set twice, opposite orders, compared
//! dcbench --quick [--seed N]                              one gated run per workload
//! ```
//!
//! `--holdout` stands for `--seed` with the hold-out seed.
//!
//! The last line of standard output of a single-workload run is one JSON
//! object: `correct`, `attempted`, `failed` (frames) and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`.

mod json;
mod metrics;
mod probes;
mod procfs;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use metrics::{Values, END_TO_END, PER_LAYER};
use stats::{median, quantile};
use trace::Tracer;
use workloads::{cover_all_timesteps, run_once, setup, Exec, Shape, Tally, Workload, SHAPES};

/// Seed used when `--seed` is not given, and the hold-out seed no number
/// in the README was tuned on; the gate must pass on both.
const DEFAULT_SEED: u64 = 2002;
const HOLDOUT_SEED: u64 = 64_738;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        check: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be within (0, 60]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--holdout" => a.seed = HOLDOUT_SEED,
            "--check" => a.check = true,
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dcbench: {e}");
            return ExitCode::from(2);
        }
    };
    metrics::validate(END_TO_END, PER_LAYER).expect("metric registry");
    match &args.workload {
        Some(name) => match workloads::shape(name) {
            Some(shape) => run_workload(shape, &args),
            None => {
                let known: Vec<_> = SHAPES.iter().map(|s| s.name).collect();
                eprintln!(
                    "dcbench: unknown workload `{name}`; known: {}",
                    known.join(", ")
                );
                ExitCode::from(2)
            }
        },
        None if args.check => check(&args),
        None => match run_set(&args, SHAPES.iter(), args.trace) {
            Ok(results) if results.iter().all(|r| r.failed == 0) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("dcbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// A directory for everything the benchmark writes — the spill ring
/// (via `TMPDIR`, which `std::env::temp_dir` honours), the disk-store
/// probe's files, the trace — beside the executable, so inside the
/// build directory of whatever checkout built it.
fn scratch_dir() -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    let dir = exe
        .parent()
        .expect("executable has a directory")
        .join("dcbench-scratch");
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Short git revision of the enclosing checkout, read from `.git`
/// without running git; `unknown` outside a repository.
fn git_rev() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        if let Ok(head) = std::fs::read_to_string(d.join(".git/HEAD")) {
            let head = head.trim();
            let rev = match head.strip_prefix("ref: ") {
                Some(r) => std::fs::read_to_string(d.join(".git").join(r)).unwrap_or_default(),
                None => head.to_string(),
            };
            let rev = rev.trim();
            return if rev.is_empty() {
                "unknown".into()
            } else {
                rev[..rev.len().min(12)].to_string()
            };
        }
        dir = d.parent().map(Into::into);
    }
    "unknown".into()
}

/// Run one workload in this process and print its result line.
fn run_workload(shape: &'static Shape, args: &Args) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = procfs::pin_to_one_cpu();
    let scratch = scratch_dir();
    // Before any other thread exists, so the write cannot race a read.
    std::env::set_var("TMPDIR", &scratch);
    println!(
        "dcbench workload={} seed={} seconds={} trace={} quick={} nproc={nproc} pinned_cpu={cpu} rev={}",
        shape.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.quick,
        git_rev()
    );

    let (values, defs, tally) = if args.trace {
        let (v, t) = per_layer_pass(shape, args, &scratch);
        (v, PER_LAYER, t)
    } else {
        let (v, t) = end_to_end_pass(shape, args);
        (v, END_TO_END, t)
    };

    for d in defs {
        let bound = d.bound.map_or(String::new(), |b| format!(" bound={b}"));
        println!(
            "{:<52} {:>16.6} {:<9} better={}{bound}",
            d.name,
            values.get(d.name).unwrap_or(0.0),
            d.unit,
            d.better.label()
        );
    }
    println!("frames={} failed_frames={}", tally.attempted, tally.failed);
    for f in &tally.failures {
        println!("FAILED {f}");
    }
    let result = Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", values.to_json(defs)),
    ]);
    println!("{}", result.to_line());
    if args.quick && tally.failed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Closed loop, one client: issue runs back to back until `seconds` of
/// wall time have passed (or once, with `--quick`).
fn measure(w: &Workload, args: &Args, trace_odd_runs: bool, tracer: &mut Tracer) -> (Tally, f64) {
    let mut tally = Tally::default();
    let cpu0 = procfs::cpu_seconds();
    let t0 = Instant::now();
    let mut run = 0;
    loop {
        run_once(w, run, trace_odd_runs && run % 2 == 1, tracer, &mut tally);
        run += 1;
        if args.quick || t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let cpu_s = procfs::cpu_seconds() - cpu0;
    (tally, cpu_s)
}

/// The first run of a workload warms allocator, page cache and lazy
/// statics; its frames are gated but not timed.
fn warm_up(w: &Workload, tracer: &mut Tracer) -> Tally {
    let mut warm = Tally::default();
    run_once(w, 0, false, tracer, &mut warm);
    warm
}

/// Wall seconds per frame, falling back to run wall ÷ frames when every
/// run failed before producing a frame sample.
fn frame_samples(tally: &Tally) -> Vec<f64> {
    let all: Vec<f64> = tally
        .frame_s
        .iter()
        .chain(&tally.traced_frame_s)
        .copied()
        .collect();
    if all.is_empty() {
        vec![tally.run_wall_s / tally.attempted.max(1) as f64]
    } else {
        all
    }
}

fn end_to_end_pass(shape: &'static Shape, args: &Args) -> (Values, Tally) {
    let reps = if args.quick { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut built: Option<Workload> = None;
    for _ in 0..reps {
        // One dataset resident at a time, as a user's single set-up holds.
        drop(built.take());
        let w = setup(shape, args.seed);
        setup_s.push(w.setup_s);
        built = Some(w);
    }
    let w = built.expect("at least one set-up");
    let mut tracer = Tracer::new();
    let warm = if args.quick {
        Tally::default()
    } else {
        warm_up(&w, &mut tracer)
    };
    let (mut tally, _cpu_s) = measure(&w, args, false, &mut tracer);

    let frames = frame_samples(&tally);
    let mut v = Values::default();
    v.set("frame_s_p50", median(&frames));
    v.set(
        "mcells_per_s",
        (w.cells_per_frame() * tally.attempted) as f64 / tally.run_wall_s / 1e6,
    );
    v.set("peak_rss_mb", procfs::peak_rss_mb());
    v.set("setup_s", median(&setup_s));
    println!(
        "iso={} frame_s p10={:.6} p90={:.6} runs={}",
        w.iso(),
        quantile(&frames, 0.1),
        quantile(&frames, 0.9),
        tally.build_pipeline_us.len()
    );
    tally.absorb_gate(warm);
    (v, tally)
}

/// The `--trace 1` pass: measured runs with every other run traced,
/// family-A counters from their reports, then the layer replay and the
/// probes; writes the Chrome trace beside the executable.
fn per_layer_pass(
    shape: &'static Shape,
    args: &Args,
    scratch: &std::path::Path,
) -> (Values, Tally) {
    let w = setup(shape, args.seed);
    let mut tracer = Tracer::new();
    let warm = warm_up(&w, &mut tracer);
    let (mut tally, cpu_s) = measure(&w, args, true, &mut tracer);
    let cpu_s_per_frame = cpu_s / tally.attempted as f64;
    cover_all_timesteps(&w, &mut tracer, &mut tally);

    let mut v = Values::default();
    let frames = frame_samples(&tally);
    let p50 = median(&frames);
    v.set("frame_s_p90", quantile(&frames, 0.9));
    v.set("frame_s_min", quantile(&frames, 0.0));
    if !tally.first_uow_s.is_empty() {
        v.set("first_uow_s_p50", median(&tally.first_uow_s));
    }
    v.set("proc.cpu_s_per_frame", cpu_s_per_frame);
    if !tally.frame_s.is_empty() && !tally.traced_frame_s.is_empty() {
        v.set(
            "trace.overhead_ratio",
            median(&tally.traced_frame_s) / median(&tally.frame_s),
        );
    }
    v.set("speedup_vs_serial", w.reference_image_s / p50);
    v.set("dcapp.reference_image_s", w.reference_image_s);
    v.set("dcapp.build_pipeline_us", median(&tally.build_pipeline_us));

    let n = tally.frames().max(1) as f64;
    v.set(
        "datacutter.stream.buffers_per_frame",
        tally.buffers as f64 / n,
    );
    v.set(
        "datacutter.stream.mb_per_frame",
        tally.bytes as f64 / 1e6 / n,
    );
    v.set("datacutter.ooc.spills_per_frame", tally.spills as f64 / n);
    v.set(
        "datacutter.ooc.spill_mb_per_frame",
        tally.spill_bytes as f64 / 1e6 / n,
    );
    v.set(
        "datacutter.deferred_wakes_per_frame",
        tally.deferred_wakes as f64 / n,
    );
    for (filter, sums) in &tally.wait {
        v.set(
            &format!("datacutter.read_wait_share.{filter}"),
            sums.read_wait_s / sums.copy_s,
        );
        v.set(
            &format!("datacutter.write_wait_share.{filter}"),
            sums.write_wait_s / sums.copy_s,
        );
    }
    if shape.exec == Exec::Sim {
        let seen: Vec<(f64, u64)> = tally.per_timestep.iter().flatten().copied().collect();
        let k = seen.len().max(1) as f64;
        let events = seen.iter().map(|s| s.1).sum::<u64>() as f64 / k;
        v.set(
            "hetsim.virtual_s",
            seen.iter().map(|s| s.0).sum::<f64>() / k,
        );
        v.set("hetsim.events_per_frame", events);
        v.set("hetsim.host_us_per_event", p50 * 1e6 / events);
    }

    let (merged, chunks) = replay::run(&w, &mut tally, cpu_s_per_frame, &mut tracer, &mut v);
    probes::run(&w, &merged, &chunks, scratch, &mut tally, &mut v);

    let path = scratch.join(format!("trace-{}.json", shape.name));
    let doc = tracer.to_chrome_json(&format!("dcbench {} seed {}", shape.name, args.seed));
    std::fs::write(&path, doc.to_line()).expect("write trace file");
    println!(
        "trace: {} spans in {}",
        tracer.spans().len(),
        path.display()
    );
    tally.absorb_gate(warm);
    (v, tally)
}

/// What the parent keeps of one child's result line.
struct ChildResult {
    workload: &'static str,
    failed: u64,
    metrics: Json,
}

impl ChildResult {
    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics.get(metric)?.get("value")?.as_f64()
    }
}

/// Run `shapes` in the order given, each in its own child process of
/// this executable, relaying the children's reports.
fn run_set<'a>(
    args: &Args,
    shapes: impl Iterator<Item = &'a Shape>,
    trace: bool,
) -> Result<Vec<ChildResult>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for shape in shapes {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", shape.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn child for {}: {e}", shape.name))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let (report, line) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
        println!("{report}");
        if !out.status.success() && !args.quick {
            return Err(format!("{} exited with {}", shape.name, out.status));
        }
        let result = Json::parse(line).map_err(|e| format!("{} result line: {e}", shape.name))?;
        results.push(ChildResult {
            workload: shape.name,
            failed: result.get("failed").and_then(Json::as_f64).unwrap_or(1.0) as u64,
            metrics: result.get("metrics").cloned().unwrap_or(Json::Null),
        });
    }
    Ok(results)
}

/// Counters that must repeat bit for bit between two runs of one build.
const EXACT: &[&str] = &[
    "hetsim.virtual_s",
    "hetsim.events_per_frame",
    "datacutter.ooc.spills_per_frame",
    "adr.virtual_s",
];

/// `--check`: the end-to-end set twice, second time in the opposite
/// workload order, then the per-layer set twice; every end-to-end pair
/// must agree within its bound and every exact counter exactly.
fn check(args: &Args) -> ExitCode {
    let sets = || -> Result<_, String> {
        Ok([
            run_set(args, SHAPES.iter(), false)?,
            run_set(args, SHAPES.iter().rev(), false)?,
            run_set(args, SHAPES.iter(), true)?,
            run_set(args, SHAPES.iter().rev(), true)?,
        ])
    };
    let [e2e_a, e2e_b, layer_a, layer_b] = match sets() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dcbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    fn pair<'a>(set: &'a [ChildResult], name: &str) -> &'a ChildResult {
        set.iter()
            .find(|r| r.workload == name)
            .expect("every set ran every workload")
    }
    println!(
        "{:<16} {:<34} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "first", "second", "spread"
    );
    for a in &e2e_a {
        let b = pair(&e2e_b, a.workload);
        for d in END_TO_END {
            let (x, y) = (
                a.value(d.name).unwrap_or(0.0),
                b.value(d.name).unwrap_or(0.0),
            );
            let spread = (x - y).abs() / x.min(y);
            let within = spread <= d.bound.unwrap_or(0.0);
            ok &= within;
            println!(
                "{:<16} {:<34} {x:>14.6} {y:>14.6} {:>8.2}%  {}",
                a.workload,
                d.name,
                spread * 100.0,
                if within { "ok" } else { "DISAGREE" }
            );
        }
    }
    for a in &layer_a {
        let b = pair(&layer_b, a.workload);
        for name in EXACT {
            let (x, y) = (a.value(name), b.value(name));
            let same = x.map(f64::to_bits) == y.map(f64::to_bits);
            ok &= same;
            println!(
                "{:<16} {name:<34} {:>14} {:>14} {:>9}  {}",
                a.workload,
                x.unwrap_or(0.0),
                y.unwrap_or(0.0),
                "exact",
                if same { "ok" } else { "DISAGREE" }
            );
        }
    }
    let failed: u64 = [&e2e_a, &e2e_b, &layer_a, &layer_b]
        .iter()
        .flat_map(|s| s.iter())
        .map(|r| r.failed)
        .sum();
    println!("failed_frames={failed}");
    if ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
