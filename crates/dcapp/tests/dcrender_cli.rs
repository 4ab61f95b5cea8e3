//! `dcrender` rejects a bad command line with a usage error and exit
//! status 2, and stops on a closed stdout with status 0 — never a panic
//! (status 101).

use std::process::Command;

#[test]
fn bad_arguments_are_usage_errors_not_panics() {
    let cases: [(&[&str], &str); 15] = [
        (&["--grid", "abc"], "dcrender: --grid: invalid value 'abc'"),
        (
            &["--iso", "0.5.1"],
            "dcrender: --iso: invalid value '0.5.1'",
        ),
        (
            &["--nodes", "2", "--storage-retries", "-1"],
            "dcrender: --storage-retries: invalid value '-1'",
        ),
        (&["--image"], "dcrender: --image: missing value"),
        (&["--frobnicate"], "dcrender: unknown flag --frobnicate"),
        // Values that parse but that the set-up code cannot take.
        (&["--nodes", "0"], "dcrender: --nodes: out of range '0'"),
        (
            &["--grid", "4294967295"],
            "dcrender: --grid: out of range '4294967295'",
        ),
        // Values that name nothing: four species, ten stored timesteps
        // (these used to wrap round to species 3 and timestep 2).
        (&["--species", "7"], "dcrender: --species: out of range '7'"),
        (
            &["--timestep", "12"],
            "dcrender: --timestep: out of range '12'",
        ),
        (
            &["--executor", "threads"],
            "dcrender: --executor: unknown executor 'threads'",
        ),
        // Parsed with the other flags, before the dataset is generated.
        (
            &["--algorithm", "foo"],
            "dcrender: --algorithm: unknown algorithm 'foo'",
        ),
        (
            &["--policy", "foo"],
            "dcrender: --policy: unknown policy 'foo'",
        ),
        // The pooled executor's size flag went with the executor, and the
        // simulator-only read-ahead depth with the read-ahead helper.
        (&["--workers", "1"], "dcrender: unknown flag --workers"),
        (
            &["--prefetch-depth", "1"],
            "dcrender: unknown flag --prefetch-depth",
        ),
        // Sort-first image partitioning went for the tile-owned merge
        // group (this command used to panic in its band split).
        (
            &["--grouping", "part", "--nodes", "8", "--image", "4"],
            "dcrender: --grouping: unknown grouping 'part'",
        ),
    ];
    for (args, expected) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_dcrender"))
            .args(args)
            .output()
            .expect("dcrender starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE: dcrender"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing was rendered");
    }
}

/// `tasked` named a second wall-clock executor that was folded into the
/// native one; the spelling is still accepted and renders the same bytes.
#[test]
fn executor_tasked_is_an_alias_of_native() {
    let dir = std::env::temp_dir();
    let render = |executor: &str| {
        let path = dir.join(format!(
            "dcrender-cli-{}-{executor}.ppm",
            std::process::id()
        ));
        let out = Command::new(env!("CARGO_BIN_EXE_dcrender"))
            .args(["--grid", "16", "--image", "64", "--executor", executor])
            .arg("--out")
            .arg(&path)
            .output()
            .expect("dcrender starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{executor}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("[native]"), "{executor}: {stdout}");
        let bytes = std::fs::read(&path).expect("image written");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let native = render("native");
    assert!(!native.is_empty());
    assert_eq!(render("tasked"), native);
}

/// The tile-owned merge group with more merge copy sets (8) than tiles
/// (one 4-row tile) renders, and the native run writes the simulator's
/// bytes. (`dcapp`'s own tests hold such runs to the sequential
/// reference.)
#[test]
fn tile_group_with_more_merge_sets_than_tiles_renders() {
    let render = |executor: &str| {
        let path = std::env::temp_dir().join(format!(
            "dcrender-cli-{}-mt-a-{executor}.ppm",
            std::process::id()
        ));
        let out = Command::new(env!("CARGO_BIN_EXE_dcrender"))
            .args(["--grouping", "re-ra-mt-a", "--nodes", "8", "--image", "4"])
            .args(["--grid", "16", "--executor", executor])
            .arg("--out")
            .arg(&path)
            .output()
            .expect("dcrender starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{executor}: {stderr}");
        let bytes = std::fs::read(&path).expect("image written");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let sim = render("sim");
    assert!(sim.starts_with(b"P6\n4 4\n"), "a 4x4 PPM");
    assert_eq!(render("native"), sim);
}

/// `--plan` simulates the candidates, says what it chose and renders it.
#[test]
fn plan_renders_the_planned_configuration() {
    let path = std::env::temp_dir().join(format!("dcrender-cli-{}-plan.ppm", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_dcrender"))
        .args(["--plan", "--grid", "16", "--image", "64"])
        .arg("--out")
        .arg(&path)
        .output()
        .expect("dcrender starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("planner: "), "{stdout}");
    let bytes = std::fs::read(&path).expect("image written");
    let _ = std::fs::remove_file(&path);
    assert!(bytes.starts_with(b"P6"), "a PPM");
}

/// A stdout whose reader is gone (`dcrender | true`) ends the program
/// quietly: status 0, nothing on stderr. Any other stdout error is one
/// line and status 1. Both the render's first line and the planner's
/// table meet the closed pipe.
#[test]
fn closed_stdout_ends_quietly_and_other_write_errors_exit_1() {
    let path = std::env::temp_dir().join(format!("dcrender-cli-{}-pipe.ppm", std::process::id()));
    let small = ["--grid", "16", "--image", "32"];
    for plan in [&[][..], &["--plan", "--verbose"]] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_dcrender"))
            .args(small)
            .args(plan)
            .arg("--out")
            .arg(&path)
            .stdout(writer)
            .output()
            .expect("dcrender starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{plan:?}: {stderr}");
        assert!(stderr.is_empty(), "{plan:?}: {stderr}");
    }
    let full = std::fs::File::options()
        .write(true)
        .open("/dev/full")
        .expect("/dev/full opens");
    let out = Command::new(env!("CARGO_BIN_EXE_dcrender"))
        .args(small)
        .arg("--out")
        .arg(&path)
        .stdout(full)
        .output()
        .expect("dcrender starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("dcrender: cannot write to stdout: "),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked at"), "{stderr}");
    let _ = std::fs::remove_file(&path);
}
