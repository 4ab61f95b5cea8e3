//! **Ablation — fault injection and recovery** (non-paper): crash one of
//! the two extract hosts partway into a fig-7-style skewed run and
//! compare, per writer policy, three arms:
//!
//! - **fault-free** — the clean baseline;
//! - **recovered** — the same crash under [`datacutter::Recovery::Lossless`]:
//!   retention + replay + idempotent redelivery must finish with
//!   `lost == 0` and the *exact* clean image under every policy, paying
//!   only elapsed-time overhead;
//! - **degraded** — the same crash under the default loss-accounted mode:
//!   demand-driven replays its acknowledgment window and recovers
//!   bit-identically anyway; RR/WRR have no acks and finish degraded
//!   with every dropped buffer tallied.
//!
//! Writes `BENCH_faults.json` (one row per policy+arm, fresh each run)
//! so CI can gate on the recovery contract: a recovered row with
//! `lost > 0` or `diff_px > 0` is a regression, and the
//! `recovered_overhead` ratio tracks what losslessness costs.
//!
//! A second section ablates the **self-healing storage plane** on a
//! memory-budgeted (spilling) run and writes `BENCH_storage.json`:
//!
//! - **baseline** — budgeted, checksummed spill frames (the default);
//! - **no-checksum** — the same run with `checksum_spills = false`,
//!   isolating what the checksum trailer costs;
//! - **chaos** — seeded transient disk-error windows on every host,
//!   healed by the retry/backoff ladder; must finish with `lost == 0`
//!   and the exact baseline image, so CI gates the storage contract the
//!   same way it gates lossless recovery.
//!
//! Usage: `ablation_faults [--out FILE] [--no-out]`

use bench::{make_cfg, small_dataset, Table};
use datacutter::{DiskFaultKind, FaultOptions, Placement, WritePolicy};
use dcapp::{lossless_options, Algorithm, Grouping, PipelineSpec};
use hetsim::presets::rogue_blue_mix;
use hetsim::{FaultPlan, SimDuration, SimTime};
use volume::FilePlacement;

struct Row {
    id: String,
    virtual_s: f64,
    killed: u64,
    replayed: u64,
    redelivered: u64,
    suppressed: u64,
    lost: u64,
    diff_px: u64,
}

fn main() {
    let mut out: Option<String> = Some("BENCH_faults.json".to_string());
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = Some(args.next().expect("--out needs a value")),
            "--no-out" => out = None,
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let ds = small_dataset();
    let (topo, rogues, blues) = rogue_blue_mix(2);
    // Storage on the two Blue nodes with half of node 0's files moved to
    // node 1 (the fig-7 skew scenario); extraction on the two Rogue
    // nodes, raster and merge back on Blue.
    let storage = vec![blues[0], blues[1]];
    let cfg = {
        let base = make_cfg(ds, storage, 2, 512);
        let mut c = dcapp::clone_config(&base);
        c.placement = FilePlacement::skewed(64, 2, 2, &[0], &[1], 50);
        std::sync::Arc::new(c)
    };

    let mut rows: Vec<Row> = Vec::new();
    for policy in [
        WritePolicy::RoundRobin,
        WritePolicy::WeightedRoundRobin,
        WritePolicy::demand_driven(),
    ] {
        let spec = PipelineSpec {
            grouping: Grouping::FourStage {
                extract: Placement::one_per_host(&[rogues[0], rogues[1]]),
                raster: Placement::on_host(blues[1], 1),
            },
            algorithm: Algorithm::ZBuffer,
            policy,
            merge_host: blues[0],
        };
        let clean = dcapp::run_pipeline(&topo, &cfg, &spec).expect("clean run");
        // Crash early: the raster/merge tail dominates total elapsed, so
        // the R->E stream is only busy during the opening fraction of the
        // run — a late failure would land after it has already drained.
        let crash_at = SimTime::ZERO + clean.elapsed.mul_f64(0.05);
        let plan = || FaultPlan::new().crash_host(rogues[1], crash_at);

        let recovered = dcapp::run_pipeline_faulted(
            &topo,
            &cfg,
            &spec,
            lossless_options(&cfg, FaultOptions::new(plan())),
        )
        .expect("recovered run");
        let degraded = dcapp::run_pipeline_faulted(&topo, &cfg, &spec, FaultOptions::new(plan()))
            .expect("degraded run");

        let rf = &recovered.report.faults;
        assert_eq!(
            rf.buffers_lost,
            0,
            "REGRESSION ({}): lossless recovery lost buffers: {rf}",
            policy.label()
        );
        let rdiff = recovered.image.diff_pixels(&clean.image);
        assert_eq!(
            rdiff,
            0,
            "REGRESSION ({}): recovered image diverged from fault-free",
            policy.label()
        );

        let mut push = |arm: &str, r: &dcapp::PipelineResult, diff: u64| {
            let f = &r.report.faults;
            rows.push(Row {
                id: format!("faults/{}/{arm}", policy.label()),
                virtual_s: r.elapsed.as_secs_f64(),
                killed: f.copies_killed,
                replayed: f.buffers_replayed,
                redelivered: f.buffers_redelivered,
                suppressed: f.duplicates_suppressed,
                lost: f.buffers_lost,
                diff_px: diff,
            });
        };
        push("clean", &clean, 0);
        push("recovered", &recovered, rdiff);
        let ddiff = degraded.image.diff_pixels(&clean.image);
        push("degraded", &degraded, ddiff);
    }

    let mut t = Table::new(&[
        "cell",
        "virtual s",
        "killed",
        "replayed",
        "redelivered",
        "suppressed",
        "lost",
        "diff px",
    ]);
    for r in &rows {
        t.row(vec![
            r.id.clone(),
            format!("{:.2}", r.virtual_s),
            r.killed.to_string(),
            r.replayed.to_string(),
            r.redelivered.to_string(),
            r.suppressed.to_string(),
            r.lost.to_string(),
            r.diff_px.to_string(),
        ]);
    }
    t.print(
        "Ablation: one extract host crashes at 5% of the clean run \
         (2 Blue storage, skew 50%, 2 Rogue extract, ZBuffer 512x512)",
    );
    for chunk in rows.chunks(3) {
        if let [clean, recovered, _] = chunk {
            println!(
                "{}: recovered overhead {:.2}x over fault-free",
                recovered.id,
                recovered.virtual_s / clean.virtual_s
            );
        }
    }
    println!(
        "\nshape check: every recovered arm shows lost = 0, diff px = 0 \
         (bit-identical lossless recovery); degraded DD also recovers \
         exactly via its ack window, while degraded RR/WRR show lost > 0 \
         with every dropped buffer accounted"
    );

    if let Some(path) = out.clone() {
        let mut json = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "  {{\"id\": \"{}\", \"virtual_s\": {:.3}, \"killed\": {}, \
                 \"replayed\": {}, \"redelivered\": {}, \"suppressed\": {}, \
                 \"lost\": {}, \"diff_px\": {}}}{}\n",
                r.id,
                r.virtual_s,
                r.killed,
                r.replayed,
                r.redelivered,
                r.suppressed,
                r.lost,
                r.diff_px,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str("]\n");
        std::fs::write(&path, json).expect("write bench json");
        println!("wrote {path}");
    }

    storage_ablation(out.is_some());
}

/// One row of the storage-plane ablation.
struct StorageRow {
    id: String,
    virtual_s: f64,
    spills: u64,
    spill_bytes: u64,
    errors: u64,
    retries: u64,
    denied: u64,
    corruptions: u64,
    lost: u64,
    diff_px: u64,
}

/// Checksum + retry overhead on a memory-budgeted (actively spilling)
/// demand-driven run, with the healed-chaos contract gated by asserts.
/// Writes `BENCH_storage.json` when `write_out` is set.
fn storage_ablation(write_out: bool) {
    let ds = small_dataset();
    let (topo, rogues, blues) = rogue_blue_mix(2);
    let base = make_cfg(ds, vec![blues[0], blues[1]], 2, 512);
    let spec = PipelineSpec {
        grouping: Grouping::FourStage {
            extract: Placement::one_per_host(&[rogues[0], rogues[1]]),
            raster: Placement::on_host(blues[1], 1),
        },
        algorithm: Algorithm::ZBuffer,
        policy: WritePolicy::demand_driven(),
        merge_host: blues[0],
    };
    // A 1/16-of-a-timestep budget forces real spill traffic, so the
    // checksum and the retry ladder are both actually on the data path.
    let budgeted = |checksum: bool| {
        let mut c = dcapp::clone_config(&base);
        c.memory_budget_bytes = c.dataset.timestep_bytes() / 16;
        c.checksum_spills = checksum;
        std::sync::Arc::new(c)
    };
    let with_cs = budgeted(true);
    let without_cs = budgeted(false);

    let baseline = dcapp::run_pipeline(&topo, &with_cs, &spec).expect("budgeted baseline");
    assert!(
        baseline.report.ooc.spills > 0,
        "REGRESSION: the storage ablation budget no longer spills"
    );
    let raw = dcapp::run_pipeline(&topo, &without_cs, &spec).expect("checksum-off run");
    let raw_diff = raw.image.diff_pixels(&baseline.image);
    assert_eq!(raw_diff, 0, "REGRESSION: checksums changed pixels");

    // Transient error windows on every host, both directions, healed by
    // the seeded retry/backoff ladder.
    let mut plan = FaultPlan::new().storage_seed(0x57AB);
    for h in topo.hosts().iter().map(|h| h.id) {
        plan = plan
            .disk_error(
                h,
                SimTime::ZERO,
                SimDuration::from_secs(3600),
                0.25,
                DiskFaultKind::Write,
            )
            .disk_error(
                h,
                SimTime::ZERO,
                SimDuration::from_secs(3600),
                0.25,
                DiskFaultKind::Read,
            );
    }
    let chaos = dcapp::run_pipeline_faulted(&topo, &with_cs, &spec, FaultOptions::new(plan))
        .expect("storage-chaos run");
    let cf = &chaos.report.faults;
    assert!(
        cf.disk_errors_injected > 0,
        "REGRESSION: the storage chaos plan injected nothing: {cf}"
    );
    assert_eq!(
        cf.buffers_lost, 0,
        "REGRESSION: transient storage faults lost buffers: {cf}"
    );
    let chaos_diff = chaos.image.diff_pixels(&baseline.image);
    assert_eq!(
        chaos_diff, 0,
        "REGRESSION: healed storage chaos diverged from the baseline image"
    );

    let row = |id: &str, r: &dcapp::PipelineResult, diff: u64| {
        let f = &r.report.faults;
        StorageRow {
            id: format!("storage/{id}"),
            virtual_s: r.elapsed.as_secs_f64(),
            spills: r.report.ooc.spills,
            spill_bytes: r.report.ooc.spill_bytes,
            errors: f.disk_errors_injected,
            retries: f.storage_retries,
            denied: f.spills_denied,
            corruptions: f.corruptions_detected,
            lost: f.buffers_lost,
            diff_px: diff,
        }
    };
    let rows = vec![
        row("no-checksum", &raw, raw_diff),
        row("baseline", &baseline, 0),
        row("chaos", &chaos, chaos_diff),
    ];

    let mut t = Table::new(&[
        "cell",
        "virtual s",
        "spills",
        "spill B",
        "errors",
        "retries",
        "denied",
        "corrupt",
        "lost",
        "diff px",
    ]);
    for r in &rows {
        t.row(vec![
            r.id.clone(),
            format!("{:.2}", r.virtual_s),
            r.spills.to_string(),
            r.spill_bytes.to_string(),
            r.errors.to_string(),
            r.retries.to_string(),
            r.denied.to_string(),
            r.corruptions.to_string(),
            r.lost.to_string(),
            r.diff_px.to_string(),
        ]);
    }
    t.print(
        "Ablation: checksummed spill frames and the storage retry ladder \
         on a 1/16-budget DD run (2 Blue storage, 2 Rogue extract, \
         ZBuffer 512x512)",
    );
    println!(
        "storage/baseline: checksum overhead {:.3}x over no-checksum; \
         storage/chaos: retry overhead {:.3}x over baseline \
         (lost = 0, diff px = 0 in every arm)",
        rows[1].virtual_s / rows[0].virtual_s,
        rows[2].virtual_s / rows[1].virtual_s
    );

    if write_out {
        let path = "BENCH_storage.json";
        let mut json = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "  {{\"id\": \"{}\", \"virtual_s\": {:.3}, \"spills\": {}, \
                 \"spill_bytes\": {}, \"errors\": {}, \"retries\": {}, \
                 \"denied\": {}, \"corruptions\": {}, \"lost\": {}, \
                 \"diff_px\": {}}}{}\n",
                r.id,
                r.virtual_s,
                r.spills,
                r.spill_bytes,
                r.errors,
                r.retries,
                r.denied,
                r.corruptions,
                r.lost,
                r.diff_px,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str("]\n");
        std::fs::write(path, json).expect("write storage bench json");
        println!("wrote {path}");
    }
}
