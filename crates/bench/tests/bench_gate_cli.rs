//! Command-line contract of `bench_gate`: an unknown flag is a usage error —
//! exit code 2 with a message naming the two options — and nothing runs.

use std::process::Command;

#[test]
fn unknown_flags_are_usage_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg("--bogus")
        .output()
        .expect("bench_gate runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--bogus") && stderr.contains("--out") && stderr.contains("--baseline"),
        "{stderr}"
    );
}
