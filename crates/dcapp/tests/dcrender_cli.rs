//! `dcrender` rejects a bad command line with a usage error and exit
//! status 2 — never a panic (status 101).

use std::process::Command;

#[test]
fn bad_arguments_are_usage_errors_not_panics() {
    let cases: [(&[&str], &str); 5] = [
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
