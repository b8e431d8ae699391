//! `bench_sim` — scheduler perf trajectory (`BENCH_sim.json`).
//!
//! Runs every catalog application under both settle schedulers (full
//! broadcast and compiled), asserts the recorded traces are bit-identical,
//! and emits
//! machine-readable measurements (cycles/sec, evals/cycle, wall time,
//! compiled deopt/tick-skip counters) to `BENCH_sim.json`.
//!
//! ```text
//! cargo run --release -p vidi-bench --bin bench_sim -- \
//!     [--out BENCH_sim.json] [--baseline scripts/bench_sim_baseline.json] \
//!     [--scale test|bench] [--seed N]
//! ```
//!
//! Exit status is non-zero if any traces diverge between schedulers, if
//! fewer than half the catalog reaches a 2x eval reduction (full ÷
//! compiled evals/cycle), if fewer than half reaches a 5x compiled
//! cycles/sec speedup over full broadcast (or no compiled run ever skipped
//! a clock edge — the vacuous-gate guard), if any xor-dict stream fails to
//! round-trip or fewer than half the catalog reaches a 3x compression
//! ratio, or if `--baseline` is given and a deterministic counter
//! (compiled evals/cycle, compression ratio) regressed more than 10 % on
//! any app.

use std::process::ExitCode;

use vidi_apps::Scale;
use vidi_bench::json::Json;
use vidi_bench::sim_bench::{
    buffer_bound_failures, compare_to_baseline, compiled_speedup_failures, compression_failures,
    measure_catalog, rows_with_2x_reduction, rows_with_3x_compression,
    rows_with_5x_compiled_speedup, to_json,
};
use vidi_core::VidiConfig;

/// Maximum tolerated growth in per-app evals/cycle versus the baseline.
const TOLERANCE: f64 = 0.10;

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_sim.json");
    let mut baseline_path: Option<String> = None;
    let mut scale = Scale::Test;
    let mut seed = 42u64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--out" => out_path = val("--out"),
            "--baseline" => baseline_path = Some(val("--baseline")),
            "--seed" => seed = val("--seed").parse().expect("--seed takes an integer"),
            "--scale" => {
                scale = match val("--scale").as_str() {
                    "test" => Scale::Test,
                    "bench" => Scale::Bench,
                    other => panic!("unknown scale {other:?} (use test|bench)"),
                }
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    let rows = measure_catalog(scale, seed);
    let doc = to_json(&rows, scale);
    std::fs::write(&out_path, doc.pretty()).expect("write BENCH_sim.json");

    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>9} {:>9} {:>8} {:>9} {:>8} {:>10}",
        "app",
        "cycles",
        "evals/cyc F",
        "evals/cyc C",
        "reduction",
        "compiled",
        "deopts",
        "bytes/cyc",
        "ratio",
        "identical"
    );
    for r in &rows {
        println!(
            "{:<14} {:>10} {:>12.2} {:>12.2} {:>8.2}x {:>8.2}x {:>8} {:>9.2} {:>7.2}x {:>10}",
            r.app,
            r.cycles,
            r.evals_per_cycle_full,
            r.evals_per_cycle_compiled,
            r.eval_reduction,
            r.compiled_speedup,
            r.deopts,
            r.bytes_per_cycle,
            r.compression_ratio,
            r.traces_identical
        );
    }

    let mut ok = true;
    let divergent: Vec<&str> = rows
        .iter()
        .filter(|r| !r.traces_identical)
        .map(|r| r.app.as_str())
        .collect();
    if !divergent.is_empty() {
        eprintln!("FAIL: traces diverge between schedulers: {divergent:?}");
        ok = false;
    }
    let with_2x = rows_with_2x_reduction(&rows);
    if with_2x * 2 < rows.len() {
        eprintln!(
            "FAIL: only {with_2x}/{} apps reach a 2x eval reduction",
            rows.len()
        );
        ok = false;
    }
    // Compiled throughput gate: the levelized scheduler must earn its keep
    // in wall-clock terms, and do so through real tick scheduling.
    for f in compiled_speedup_failures(&rows) {
        eprintln!("FAIL: {f}");
        ok = false;
    }
    // Compression gate: every xor-dict stream round-trips, and the codec
    // earns a 3x bandwidth reduction on at least half the catalog.
    for f in compression_failures(&rows) {
        eprintln!("FAIL: {f}");
        ok = false;
    }
    // Bounded-memory gate: recording buffers must stay O(chunk size) no
    // matter how long the run — the streaming trace path's core promise.
    let bound = VidiConfig::record().streaming_buffer_bound();
    for f in buffer_bound_failures(&rows, bound) {
        eprintln!("FAIL: {f}");
        ok = false;
    }
    if ok {
        let peak = rows
            .iter()
            .map(|r| r.peak_buffered_bytes)
            .max()
            .unwrap_or(0);
        println!("streaming peak buffer {peak} bytes <= bound {bound} (all apps)");
    }
    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path).expect("read baseline");
        let baseline = Json::parse(&text).expect("parse baseline");
        match compare_to_baseline(&doc, &baseline, TOLERANCE) {
            Ok(()) => println!("baseline {path}: no evals/cycle regression"),
            Err(failures) => {
                for f in failures {
                    eprintln!("FAIL: {f}");
                }
                ok = false;
            }
        }
    }
    println!(
        "wrote {out_path} ({with_2x}/{} apps at >=2x eval reduction, {}/{} at >=5x compiled \
         speedup, {}/{} at >=3x compression)",
        rows.len(),
        rows_with_5x_compiled_speedup(&rows),
        rows.len(),
        rows_with_3x_compression(&rows),
        rows.len()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
