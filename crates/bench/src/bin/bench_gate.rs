//! `bench_gate` — the CI bench gate (`BENCH.json`, schema `vidi-bench/1`).
//!
//! Runs three suites at test scale, seed 42, and writes one document:
//!
//! * `sim` — every catalog app recorded under both settle schedulers and
//!   through the xor-dict codec;
//! * `snap` — every catalog app through checkpointed replay, seek and
//!   4-thread segmented verification;
//! * `fleet` — the eight-tenant soak on 8 workers.
//!
//! ```text
//! cargo run --release -p vidi-bench --bin bench_gate -- \
//!     [--out BENCH.json] [--baseline scripts/bench_baseline.json]
//! ```
//!
//! Prints one summary line per suite and a `FAIL:` line per violated gate,
//! and exits 1 if any gate fails — an absolute gate of a suite (see each
//! suite's `failures`) or, with `--baseline`, a pinned field (see
//! `vidi_bench::gate::compare`). A bad argument or an unreadable baseline
//! exits 2 before anything runs.

use std::process::ExitCode;

use vidi_apps::Scale;
use vidi_bench::json::{obj, Json};
use vidi_bench::{fleet_bench, gate, sim_bench, snap_bench};

const USAGE: &str = "usage: bench_gate [--out BENCH.json] [--baseline FILE]";

const SCALE: Scale = Scale::Test;
const SEED: u64 = 42;
const VERIFY_THREADS: usize = 4;
const FLEET_WORKERS: usize = 8;

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH.json");
    let mut baseline_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--out", Some(v)) => out_path = v,
            ("--baseline", Some(v)) => baseline_path = Some(v),
            _ => {
                eprintln!("bench_gate: bad argument {arg:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let baseline = match baseline_path.as_deref().map(read_json).transpose() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };

    let reports = [
        sim_bench::suite(SCALE, SEED),
        snap_bench::suite(SCALE, SEED, VERIFY_THREADS),
        fleet_bench::suite(FLEET_WORKERS),
    ];
    let params = obj([
        ("scale", Json::Str("test".into())),
        ("seed", Json::Num(SEED as f64)),
        ("threads", Json::Num(VERIFY_THREADS as f64)),
        ("workers", Json::Num(FLEET_WORKERS as f64)),
    ]);
    let doc = gate::document(params, &reports);

    let mut failures: Vec<String> = reports
        .iter()
        .flat_map(|r| r.failures.iter().map(|f| format!("{}: {f}", r.spec.name)))
        .collect();
    for r in &reports {
        println!("{}", r.line());
    }
    if let Err(e) = std::fs::write(&out_path, doc.pretty()) {
        failures.push(format!("cannot write {out_path}: {e}"));
    }
    if let Some(base) = &baseline {
        failures.extend(gate::compare(&doc, base).err().unwrap_or_default());
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    println!("bench_gate: {out_path}, {} failures", failures.len());
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}
