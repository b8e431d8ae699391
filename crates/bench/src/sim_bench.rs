//! Scheduler and codec measurement: the `sim` suite of `BENCH.json`.
//!
//! For every catalog application this module runs the same recorded
//! workload under both settle schedulers ([`vidi_hwsim::EvalMode::Full`],
//! the oracle, and [`vidi_hwsim::EvalMode::Compiled`], the default), checks
//! the recorded traces are bit-identical, replays the compiled trace, and
//! reports deterministic eval counters (the replay's among them) plus
//! (informational) wall-clock numbers. Baseline regressions are judged
//! **only** on the deterministic counters — wall time depends on the host
//! and is recorded as a trajectory — with one deliberate exception: the
//! compiled scheduler exists *for* wall-clock throughput, so the suite
//! additionally gates its cycles/sec speedup over the full-broadcast
//! oracle.

use std::sync::Arc;
use std::time::Instant;

use vidi_apps::{build_app, run_app, AppId, BuiltApp, RunOutcome, Scale};
use vidi_core::{ReplayInput, SessionCursor, Stop, StopReason, VidiConfig};
use vidi_hwsim::EvalMode;
use vidi_trace::{CodecId, SharedChunks, Trace};

use crate::gate::{row_json, Gate, SuiteReport, SuiteSpec};
use crate::json::{obj, Json};
use crate::MAX_CYCLES;

/// One application's scheduler measurements.
#[derive(Debug, Clone)]
pub struct SimBenchRow {
    /// Application label.
    pub app: String,
    /// Workload cycles to completion (identical across modes by
    /// construction; asserted).
    pub cycles: u64,
    /// Wall time of the recording run under the full scheduler, ms.
    pub wall_ms_full: f64,
    /// Wall time of the recording run under the compiled scheduler, ms.
    pub wall_ms_compiled: f64,
    /// Wall time of replaying the recorded trace (compiled mode), ms.
    pub replay_wall_ms: f64,
    /// Simulated cycles per wall-clock second, full recording run.
    pub cycles_per_sec_full: f64,
    /// Simulated cycles per wall-clock second, compiled recording run.
    pub cycles_per_sec_compiled: f64,
    /// `cycles_per_sec_compiled / cycles_per_sec_full` — the compiled
    /// scheduler's throughput advantage over the full-broadcast oracle.
    pub compiled_speedup: f64,
    /// Mean component evals per cycle, full scheduler.
    pub evals_per_cycle_full: f64,
    /// Mean component evals per cycle, compiled scheduler.
    pub evals_per_cycle_compiled: f64,
    /// `evals_per_cycle_full / evals_per_cycle_compiled`.
    pub eval_reduction: f64,
    /// Schedule deopts (backward wakes) taken by the compiled run.
    pub deopts: u64,
    /// Schedule compilations (including the initial one), compiled run.
    pub recompiles: u64,
    /// Clock edges the compiled run skipped for quiescent components.
    pub tick_skips: u64,
    /// Mean component evals per cycle of the (compiled) replay.
    pub replay_evals_per_cycle: f64,
    /// Clock edges the replay skipped for quiescent components — the
    /// replay engine's own among them.
    pub replay_tick_skips: u64,
    /// The recorded traces of both modes are byte-for-byte identical.
    pub traces_identical: bool,
    /// High-water mark of bytes buffered in the streaming trace sink, maxed
    /// over the recording runs — the bounded-memory witness CI gates
    /// against [`vidi_core::VidiConfig::streaming_buffer_bound`].
    pub peak_buffered_bytes: u64,
    /// Trace chunks the compiled recording run flushed to its store
    /// backend.
    pub chunks_flushed: u64,
    /// Finalized raw (uncompressed) stream length in bytes — the codec
    /// sweep's denominator-free reference.
    pub bytes_written: u64,
    /// Raw stream bytes per workload cycle — the storage bandwidth an
    /// uncompressed recording of this app consumes.
    pub bytes_per_cycle: f64,
    /// `raw bytes / xor-dict bytes` for the same recording — what CI
    /// gates.
    pub compression_ratio: f64,
    /// The xor-dict stream decoded to the reference packets and replayed
    /// to completion.
    pub codec_roundtrip_ok: bool,
}

/// Runs one recorded workload twice and keeps the better wall time (the
/// outcome is deterministic, so either run's outcome serves). Best-of-two
/// damps scheduler-independent noise — page faults, frequency ramps — that
/// would otherwise dominate the compiled-vs-full speedup at small scales.
fn timed_record(app: AppId, scale: Scale, seed: u64, mode: EvalMode) -> (RunOutcome, f64) {
    let mut best: Option<(RunOutcome, f64)> = None;
    for _ in 0..2 {
        let mut built = build_app(app.setup(scale, seed), VidiConfig::record());
        built.sim.set_eval_mode(mode);
        let start = Instant::now();
        let outcome = run_app(built, MAX_CYCLES).expect("recording run completes");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(
            outcome.output_ok.is_ok(),
            "{}: wrong output under {mode:?}: {:?}",
            app.label(),
            outcome.output_ok
        );
        if best.as_ref().is_none_or(|(_, b)| wall_ms < *b) {
            best = Some((outcome, wall_ms));
        }
    }
    best.expect("at least one timed run")
}

/// Records `app` through `codec` (default scheduler), returning the
/// finalized chunk-stream image — compressed on the wire for block codecs
/// — and the trace it decodes to.
fn record_stream(app: AppId, scale: Scale, seed: u64, codec: CodecId) -> (Vec<u8>, Trace) {
    let mut built = build_app(
        app.setup(scale, seed),
        VidiConfig::record().with_trace_codec(codec),
    );
    let mut cursor = SessionCursor::new(&mut built);
    let ev = cursor
        .run_until(
            Stop::when(|b: &mut BuiltApp| b.cpu.iter().all(|h| h.borrow().finished))
                .or_at_cycle(MAX_CYCLES)
                .check_every(1),
        )
        .expect("codec recording runs");
    assert_eq!(
        ev.reason,
        StopReason::PredicateTrue,
        "{}: codec recording completes",
        app.label()
    );
    cursor.flush().expect("flush margin");
    (
        built
            .shim
            .recorded_stream_image()
            .expect("recording yields a stream image"),
        built.shim.recorded_trace().expect("trace materializes"),
    )
}

/// Measures one application: record under both schedulers, compare traces,
/// replay once.
///
/// # Panics
///
/// Panics if any run fails or produces wrong output — scheduler numbers are
/// only meaningful over correct executions.
pub fn measure_app(app: AppId, scale: Scale, seed: u64) -> SimBenchRow {
    let (full, wall_ms_full) = timed_record(app, scale, seed, EvalMode::Full);
    let (comp, wall_ms_compiled) = timed_record(app, scale, seed, EvalMode::Compiled);

    assert_eq!(
        full.cycles,
        comp.cycles,
        "{}: cycle counts diverge between Full and Compiled",
        app.label()
    );
    let trace_full = full.trace.as_ref().expect("recording produces a trace");
    let trace_comp = comp.trace.as_ref().expect("recording produces a trace");
    let reference = trace_full.encode();
    let traces_identical = reference == trace_comp.encode();

    // Replay the compiled trace (exercises the decoder/replayer path the
    // vector-clock scratch buffer optimizes).
    let replay = build_app(
        app.setup(scale, seed),
        VidiConfig::replay(trace_comp.clone()),
    );
    let start = Instant::now();
    let replayed = run_app(replay, MAX_CYCLES).expect("replay completes");
    let replay_wall_ms = start.elapsed().as_secs_f64() * 1e3;

    // Codec sweep: record the same workload raw and through xor-dict, and
    // check the compressed stream decodes to the reference packets *and*
    // replays to completion straight from its compressed chunks — the
    // record+replay-through-the-codec contract, measured per app.
    let (raw_image, raw_trace) = record_stream(app, scale, seed, CodecId::Raw);
    let (image, trace) = record_stream(app, scale, seed, CodecId::XorDict);
    let compression_ratio = raw_image.len() as f64 / image.len().max(1) as f64;
    let chunks: SharedChunks = Arc::new(image);
    let replay = build_app(
        app.setup(scale, seed),
        VidiConfig::replay(ReplayInput::from_chunks(chunks)),
    );
    let codec_roundtrip_ok = raw_trace.encode() == reference
        && trace.encode() == reference
        && run_app(replay, MAX_CYCLES).is_ok();

    let epc_full = full.sim_stats.evals_per_cycle();
    let epc_comp = comp.sim_stats.evals_per_cycle();
    let cycles_per_sec_full = full.sim_stats.cycles as f64 / (wall_ms_full / 1e3).max(1e-9);
    let cycles_per_sec_compiled = comp.sim_stats.cycles as f64 / (wall_ms_compiled / 1e3).max(1e-9);
    SimBenchRow {
        app: app.label().to_string(),
        cycles: comp.cycles,
        wall_ms_full,
        wall_ms_compiled,
        replay_wall_ms,
        cycles_per_sec_full,
        cycles_per_sec_compiled,
        compiled_speedup: cycles_per_sec_compiled / cycles_per_sec_full.max(1e-9),
        evals_per_cycle_full: epc_full,
        evals_per_cycle_compiled: epc_comp,
        eval_reduction: epc_full / epc_comp.max(1e-9),
        deopts: comp.sim_stats.deopts,
        recompiles: comp.sim_stats.recompiles,
        tick_skips: comp.sim_stats.tick_skips,
        replay_evals_per_cycle: replayed.sim_stats.evals_per_cycle(),
        replay_tick_skips: replayed.sim_stats.tick_skips,
        traces_identical,
        peak_buffered_bytes: full.peak_buffered_bytes.max(comp.peak_buffered_bytes),
        chunks_flushed: comp.chunks_flushed,
        bytes_written: raw_image.len() as u64,
        bytes_per_cycle: raw_image.len() as f64 / (comp.cycles as f64).max(1.0),
        compression_ratio,
        codec_roundtrip_ok,
    }
}

/// Measures the whole `AppId::ALL` catalog.
pub fn measure_catalog(scale: Scale, seed: u64) -> Vec<SimBenchRow> {
    AppId::ALL
        .iter()
        .map(|&app| measure_app(app, scale, seed))
        .collect()
}

/// Number of rows whose eval reduction is at least 2x.
fn rows_with_2x_reduction(rows: &[SimBenchRow]) -> usize {
    rows.iter().filter(|r| r.eval_reduction >= 2.0).count()
}

/// Number of rows where the compiled scheduler reaches at least 5x the
/// full-broadcast scheduler's cycles/sec.
fn rows_with_5x_compiled_speedup(rows: &[SimBenchRow]) -> usize {
    rows.iter().filter(|r| r.compiled_speedup >= 5.0).count()
}

/// The compiled-scheduler CI gate over a measured catalog: at least half
/// the apps must reach a 5x cycles/sec speedup over full broadcast, and the
/// speedup must come from real tick scheduling — at least one run must
/// skip a clock edge, or the "compiled" numbers are vacuous (the backend
/// silently fell back to per-edge broadcast).
///
/// Returns the list of violations, empty when the gate passes.
fn compiled_speedup_failures(rows: &[SimBenchRow]) -> Vec<String> {
    let mut failures = Vec::new();
    let with_5x = rows_with_5x_compiled_speedup(rows);
    if with_5x * 2 < rows.len() {
        failures.push(format!(
            "only {with_5x}/{} apps reach a 5x compiled cycles/sec speedup",
            rows.len()
        ));
    }
    if !rows.is_empty() && rows.iter().all(|r| r.tick_skips == 0) {
        failures.push(
            "no compiled run skipped a clock edge — the speedup gate never \
             exercised compiled tick scheduling"
                .to_string(),
        );
    }
    if !rows.is_empty() && rows.iter().all(|r| r.replay_tick_skips == 0) {
        failures.push(
            "no replay skipped a clock edge — the replay evals/cycle pin \
             never exercised compiled tick scheduling"
                .to_string(),
        );
    }
    failures
}

/// Number of rows whose xor-dict compression ratio is at least 3x.
fn rows_with_3x_compression(rows: &[SimBenchRow]) -> usize {
    rows.iter().filter(|r| r.compression_ratio >= 3.0).count()
}

/// The compression CI gate over a measured catalog: every xor-dict stream
/// must round-trip (decode to the reference packets and replay), at least
/// half the apps must reach a 3x ratio, and the numbers must
/// come from real recordings — at least one app must have written stream
/// bytes, or the ratio gate is vacuous.
///
/// Returns the list of violations, empty when the gate passes.
fn compression_failures(rows: &[SimBenchRow]) -> Vec<String> {
    let mut failures: Vec<String> = rows
        .iter()
        .filter(|r| !r.codec_roundtrip_ok)
        .map(|r| format!("{}: the xor-dict stream failed to round-trip", r.app))
        .collect();
    let with_3x = rows_with_3x_compression(rows);
    if with_3x * 2 < rows.len() {
        failures.push(format!(
            "only {with_3x}/{} apps reach a 3x compression ratio",
            rows.len()
        ));
    }
    if !rows.is_empty() && rows.iter().all(|r| r.bytes_written == 0) {
        failures.push(
            "no catalog recording wrote stream bytes — the compression gate \
             never exercised the codec path"
                .to_string(),
        );
    }
    failures
}

/// The bounded-memory CI gate over a measured catalog: every app's peak
/// buffered bytes must stay under `bound` (O(chunk size) + one bandwidth
/// burst, per [`vidi_core::VidiConfig::streaming_buffer_bound`]), and the
/// catalog must actually exercise the chunked path — at least one recording
/// must flush chunks, or the "bounded" witness is vacuous.
///
/// Returns the list of violations, empty when the gate passes.
fn buffer_bound_failures(rows: &[SimBenchRow], bound: u64) -> Vec<String> {
    let mut failures: Vec<String> = rows
        .iter()
        .filter(|r| r.peak_buffered_bytes > bound)
        .map(|r| {
            format!(
                "{}: peak buffered {} bytes exceeds the streaming bound {bound}",
                r.app, r.peak_buffered_bytes
            )
        })
        .collect();
    if !rows.is_empty() && rows.iter().all(|r| r.chunks_flushed == 0) {
        failures.push(
            "no catalog recording flushed a chunk — the bounded-memory gate \
             never exercised the streaming path"
                .to_string(),
        );
    }
    failures
}

/// The sim suite's baseline gates: compiled recording and replay
/// evals/cycle may not grow, nor the xor-dict compression ratio shrink, by
/// more than 10 % per app.
pub const SUITE: SuiteSpec = SuiteSpec {
    name: "sim",
    key: "app",
    rows: &[
        (
            "evals_per_cycle_compiled",
            Gate::Within {
                tolerance: 0.10,
                lower_is_better: true,
            },
        ),
        (
            "replay_evals_per_cycle",
            Gate::Within {
                tolerance: 0.10,
                lower_is_better: true,
            },
        ),
        (
            "compression_ratio",
            Gate::Within {
                tolerance: 0.10,
                lower_is_better: false,
            },
        ),
    ],
    summary: &[],
};

/// Measures the catalog and judges it against the absolute gates: the
/// `sim` suite of `bench_gate`.
pub fn suite(scale: Scale, seed: u64) -> SuiteReport {
    let rows = measure_catalog(scale, seed);
    let bound = VidiConfig::record().streaming_buffer_bound();
    let peak = rows.iter().map(|r| r.peak_buffered_bytes).max();
    SuiteReport {
        spec: &SUITE,
        summary: obj([
            (
                "apps_with_2x_reduction",
                Json::Num(rows_with_2x_reduction(&rows) as f64),
            ),
            (
                "apps_with_5x_compiled_speedup",
                Json::Num(rows_with_5x_compiled_speedup(&rows) as f64),
            ),
            (
                "apps_with_3x_compression",
                Json::Num(rows_with_3x_compression(&rows) as f64),
            ),
            ("total_apps", Json::Num(rows.len() as f64)),
            (
                "max_peak_buffered_bytes",
                Json::Num(peak.unwrap_or(0) as f64),
            ),
            ("streaming_buffer_bound", Json::Num(bound as f64)),
        ]),
        failures: failures(&rows, bound),
        rows: rows
            .iter()
            .map(|r| {
                row_json!(
                    r,
                    [
                        app,
                        cycles,
                        wall_ms_full,
                        wall_ms_compiled,
                        replay_wall_ms,
                        cycles_per_sec_full,
                        cycles_per_sec_compiled,
                        compiled_speedup,
                        evals_per_cycle_full,
                        evals_per_cycle_compiled,
                        eval_reduction,
                        deopts,
                        recompiles,
                        tick_skips,
                        replay_evals_per_cycle,
                        replay_tick_skips,
                        traces_identical,
                        peak_buffered_bytes,
                        chunks_flushed,
                        bytes_written,
                        bytes_per_cycle,
                        compression_ratio,
                        codec_roundtrip_ok,
                    ]
                )
            })
            .collect(),
    }
}

/// Every absolute gate over a measured catalog: both schedulers record
/// identical traces, at least half the apps reach a 2x eval reduction,
/// plus the compiled-speedup, compression and bounded-memory gates (the
/// last against `buffer_bound`).
///
/// Returns the list of violations, empty when every gate passes.
pub fn failures(rows: &[SimBenchRow], buffer_bound: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let divergent: Vec<&str> = rows
        .iter()
        .filter(|r| !r.traces_identical)
        .map(|r| r.app.as_str())
        .collect();
    if !divergent.is_empty() {
        failures.push(format!("traces diverge between schedulers: {divergent:?}"));
    }
    let with_2x = rows_with_2x_reduction(rows);
    if with_2x * 2 < rows.len() {
        failures.push(format!(
            "only {with_2x}/{} apps reach a 2x eval reduction",
            rows.len()
        ));
    }
    failures.extend(compiled_speedup_failures(rows));
    failures.extend(compression_failures(rows));
    failures.extend(buffer_bound_failures(rows, buffer_bound));
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(app: &str) -> SimBenchRow {
        SimBenchRow {
            app: app.into(),
            cycles: 0,
            wall_ms_full: 0.0,
            wall_ms_compiled: 0.0,
            replay_wall_ms: 0.0,
            cycles_per_sec_full: 0.0,
            cycles_per_sec_compiled: 0.0,
            compiled_speedup: 0.0,
            evals_per_cycle_full: 0.0,
            evals_per_cycle_compiled: 0.0,
            eval_reduction: 0.0,
            deopts: 0,
            recompiles: 0,
            tick_skips: 0,
            replay_evals_per_cycle: 0.0,
            replay_tick_skips: 0,
            traces_identical: true,
            peak_buffered_bytes: 0,
            chunks_flushed: 0,
            bytes_written: 0,
            bytes_per_cycle: 0.0,
            compression_ratio: 0.0,
            codec_roundtrip_ok: true,
        }
    }

    #[test]
    fn failures_flag_divergent_traces_and_weak_eval_reduction() {
        // Rows that pass every other gate.
        let mk = |app: &str, reduction: f64, identical: bool| {
            let mut r = row(app);
            r.eval_reduction = reduction;
            r.traces_identical = identical;
            r.compiled_speedup = 6.0;
            r.tick_skips = 1;
            r.replay_tick_skips = 1;
            r.compression_ratio = 4.0;
            r.bytes_written = 100;
            r.chunks_flushed = 1;
            r
        };
        assert!(failures(&[mk("a", 2.0, true), mk("b", 1.0, true)], 1000).is_empty());
        assert_eq!(
            failures(&[mk("a", 2.0, false), mk("b", 1.0, true)], 1000),
            vec![r#"traces diverge between schedulers: ["a"]"#.to_string()]
        );
        assert_eq!(
            failures(&[mk("a", 1.9, true), mk("b", 1.0, true)], 1000),
            vec!["only 0/2 apps reach a 2x eval reduction".to_string()]
        );
    }

    #[test]
    fn compression_gate_flags_weak_broken_and_vacuous_runs() {
        let mk = |app: &str, ratio: f64, bytes: u64, ok: bool| {
            let mut r = row(app);
            r.compression_ratio = ratio;
            r.bytes_written = bytes;
            r.codec_roundtrip_ok = ok;
            r
        };
        // Half the catalog at 3x over real bytes: gate passes.
        assert!(
            compression_failures(&[mk("a", 3.5, 900, true), mk("b", 1.5, 800, true)]).is_empty()
        );
        // Under half at 3x: flagged.
        let fails = compression_failures(&[mk("a", 2.9, 900, true), mk("b", 1.5, 800, true)]);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("0/2 apps reach a 3x"));
        // A broken round-trip is always a failure, even at a great ratio.
        let fails = compression_failures(&[mk("a", 5.0, 900, false), mk("b", 4.0, 800, true)]);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("a: the xor-dict stream failed to round-trip"));
        // Ratios over zero written bytes are vacuous.
        let fails = compression_failures(&[mk("a", 5.0, 0, true), mk("b", 4.0, 0, true)]);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("never exercised the codec path"));
    }

    #[test]
    fn buffer_bound_gate_flags_overruns_and_vacuous_runs() {
        let mk = |app: &str, peak: u64, chunks: u64| {
            let mut r = row(app);
            r.peak_buffered_bytes = peak;
            r.chunks_flushed = chunks;
            r
        };
        assert!(buffer_bound_failures(&[mk("a", 100, 3)], 1000).is_empty());
        let fails = buffer_bound_failures(&[mk("a", 2000, 0), mk("b", 100, 0)], 1000);
        assert_eq!(fails.len(), 2);
        assert!(fails[0].contains("a: peak buffered"));
        assert!(fails[1].contains("never exercised"));
    }

    #[test]
    fn compiled_speedup_gate_flags_slow_and_vacuous_runs() {
        let mk = |app: &str, speedup: f64, skips: u64| {
            let mut r = row(app);
            r.compiled_speedup = speedup;
            r.tick_skips = skips;
            r.replay_tick_skips = skips;
            r
        };
        // Half the catalog at 5x with real skips: gate passes.
        assert!(compiled_speedup_failures(&[mk("a", 8.5, 10), mk("b", 1.2, 3)]).is_empty());
        // Under half at 5x: flagged.
        let fails = compiled_speedup_failures(&[mk("a", 4.9, 10), mk("b", 1.2, 5)]);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("0/2 apps reach a 5x"));
        // Fast but with zero tick skips everywhere: the number is vacuous.
        let fails = compiled_speedup_failures(&[mk("a", 8.5, 0), mk("b", 8.5, 0)]);
        assert_eq!(fails.len(), 2);
        assert!(fails[0].contains("no compiled run skipped a clock edge"));
        assert!(fails[1].contains("no replay skipped a clock edge"));
        // Replay edges alone never skipped: the replay pin is vacuous.
        let mut quiet_replay = [mk("a", 8.5, 10), mk("b", 8.5, 10)];
        for r in &mut quiet_replay {
            r.replay_tick_skips = 0;
        }
        let fails = compiled_speedup_failures(&quiet_replay);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("no replay skipped a clock edge"));
    }
}
