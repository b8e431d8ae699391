//! Command-line contract of `trace_tool convert`: naming a retired codec
//! (`delta-rle`, `columnar`) is a usage error — exit code 2 with a message
//! that lists the codecs this build knows — never a data failure. Options
//! are parsed before the input is opened, so the input need not exist.

use std::process::Command;

#[test]
fn convert_rejects_retired_codecs_as_usage_errors() {
    let dir = std::env::temp_dir();
    for retired in ["columnar", "delta-rle"] {
        let out = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
            .arg("convert")
            .arg(dir.join("trace_tool_cli_missing_in.vidi"))
            .arg(dir.join("trace_tool_cli_missing_out.vidi"))
            .args(["--codec", retired])
            .output()
            .expect("trace_tool runs");
        assert_eq!(out.status.code(), Some(2), "--codec {retired}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown codec '{retired}'"))
                && stderr.contains("raw")
                && stderr.contains("xor-dict"),
            "--codec {retired}: {stderr}"
        );
    }
}
