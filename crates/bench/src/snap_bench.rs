//! Checkpoint, seek and verify measurement: the `snap` suite of
//! `BENCH.json`.
//!
//! For every catalog application this module records a reference trace,
//! replays it under a checkpoint policy ([`vidi_snap::checkpointed_replay`]),
//! and then measures the three properties the snapshot subsystem promises:
//!
//! 1. **Round-trip exactness** — every persisted checkpoint restores to the
//!    identical digest and re-serializes to the identical bytes, in both
//!    [`vidi_hwsim::EvalMode`]s, and the CRC-framed container decodes back
//!    to the exact log it encoded.
//! 2. **Seek latency** — jumping to the middle of a replay via
//!    [`vidi_snap::replay_from`] versus rolling a fresh session forward
//!    from cycle 0.
//! 3. **Verify speedup** — [`vidi_snap::ParallelVerifier`] across segments
//!    versus the serial sweep, with identical reports asserted.
//!
//! CI regressions are judged **only** on deterministic quantities — the
//! exactness booleans and the *modeled* verify speedup (the critical-path
//! ratio of the verifier's segment schedule, which depends on the
//! checkpoint cadence but not the host). Measured wall times depend on the
//! machine (CI runners are often single-core) and are recorded purely as a
//! trajectory.

use std::time::Instant;

use vidi_apps::{build_app, run_app, AppId, Scale};
use vidi_core::{SessionCursor, VidiConfig};
use vidi_hwsim::EvalMode;
use vidi_snap::{
    checkpointed_replay, replay_from, CheckpointLog, CheckpointPolicy, ParallelVerifier,
    VerifyOptions, VerifyVerdict,
};

use crate::gate::{row_json, Gate, SuiteReport, SuiteSpec};
use crate::json::{obj, Json};
use crate::MAX_CYCLES;

/// Checkpoint cadence divisor: aim for this many segments per replay so a
/// 4-thread verifier has enough slack to balance its work queue.
const TARGET_SEGMENTS: u64 = 16;

/// Smallest checkpoint cadence worth the snapshot cost.
const MIN_EVERY: u64 = 256;

/// Post-completion flush budget for the verification sweep. The default
/// ([`vidi_snap::FLUSH_MARGIN`]) is sized for bench-scale workloads;
/// test-scale catalog apps drain their channels within tens of cycles, and
/// the margin lands entirely on the final segment, so an oversized value
/// would dominate the schedule's critical path.
const VERIFY_FLUSH_MARGIN: u64 = 1024;

/// One application's checkpoint/seek/verify measurements.
#[derive(Debug, Clone)]
pub struct SnapBenchRow {
    /// Application label.
    pub app: String,
    /// Replay length in cycles.
    pub cycles: u64,
    /// Checkpoints taken (== verification segments).
    pub checkpoints: usize,
    /// Bytes of the encoded checkpoint container image.
    pub container_bytes: usize,
    /// Every checkpoint round-trips exactly: container decode == encode
    /// input, and restore reproduces digest + snapshot bytes in both eval
    /// modes.
    pub roundtrip_exact: bool,
    /// Wall time to reach the mid-replay cycle from cycle 0, ms.
    pub seek_cold_ms: f64,
    /// Wall time to reach the same cycle via the nearest checkpoint, ms.
    pub seek_warm_ms: f64,
    /// `seek_cold_ms / seek_warm_ms`.
    pub seek_speedup: f64,
    /// Wall time of the serial segment sweep, ms (informational).
    pub verify_serial_ms: f64,
    /// Wall time of the `threads`-way segment sweep, ms (informational).
    pub verify_parallel_ms: f64,
    /// Deterministic speedup of the segment schedule: total replayed
    /// cycles divided by the longest per-thread share under the
    /// verifier's greedy work queue. Host-independent, so CI can gate on
    /// it; the wall times above show what a given machine realized.
    pub verify_speedup: f64,
    /// Serial and parallel verification returned the identical report.
    pub verify_consistent: bool,
    /// Worst-case roll-forward (cycles) a single reverse-step can pay
    /// anywhere in this replay — the debugger's `rstep` cost ceiling, a
    /// pure function of the checkpoint cadence. Deterministic, so CI gates
    /// on it; see [`worst_rstep_roll_forward`].
    pub rstep_worst_roll_forward: u64,
    /// Measured wall time of a reverse-step at that worst-case position,
    /// ms (informational; host-dependent).
    pub rstep_worst_ms: f64,
    /// The (deterministic) verdict, e.g. `"clean"` or `"diverged@2841"`.
    /// Divergence is *expected* for cycle-dependent apps — the catalog DMA
    /// polls a status register (§3.6) — so the baseline gates verdict
    /// stability, not cleanliness.
    pub verdict: String,
    /// High-water mark of bytes buffered in the streaming trace sink during
    /// the reference recording — the bounded-memory witness of the chunked
    /// trace path.
    pub peak_buffered_bytes: u64,
    /// Trace chunks the reference recording flushed to its store backend.
    pub chunks_flushed: u64,
}

/// Renders a verdict as the stable string the baseline pins.
fn verdict_label(verdict: &VerifyVerdict) -> String {
    match verdict {
        VerifyVerdict::Clean => "clean".into(),
        VerifyVerdict::Diverged { cycle, .. } => format!("diverged@{cycle}"),
        VerifyVerdict::Deadlock { cycle, .. } => format!("deadlock@{cycle}"),
        VerifyVerdict::StateMismatch { cycle } => format!("state-mismatch@{cycle}"),
    }
}

/// Restores `cp` into a fresh session under `mode` and checks digest and
/// re-serialized bytes match the checkpoint exactly.
fn checkpoint_restores_exactly(
    app: AppId,
    scale: Scale,
    seed: u64,
    cfg: &VidiConfig,
    cp: &vidi_snap::Checkpoint,
    mode: EvalMode,
) -> bool {
    let mut session = build_app(app.setup(scale, seed), cfg.clone());
    session.sim.set_eval_mode(mode);
    if session.sim.restore(&cp.state).is_err() {
        return false;
    }
    session.sim.state_digest() == cp.digest && session.sim.snapshot() == cp.state
}

/// Deterministic speedup of verifying `log` on `threads` workers: segment
/// costs (in replayed cycles) are known from the checkpoint cadence, and
/// the verifier hands segments to workers in order through a shared
/// counter — so the schedule, and with it the critical path, is a pure
/// function of the log. The final segment pays the flush margin like the
/// real sweep does.
fn schedule_speedup(log: &CheckpointLog, flush_margin: u64, threads: usize) -> f64 {
    let cps = &log.checkpoints;
    let mut costs: Vec<u64> = cps.windows(2).map(|w| w[1].cycle - w[0].cycle).collect();
    let last = cps.last().expect("checkpoint logs start at cycle 0");
    costs.push(log.final_cycle - last.cycle + flush_margin);
    let total: u64 = costs.iter().sum();
    // Earliest-free-worker assignment in segment order — the same order
    // the verifier's atomic work counter produces.
    let mut busy = vec![0u64; threads.max(1)];
    for cost in costs {
        let next = (0..busy.len())
            .min_by_key(|&i| busy[i])
            .expect("threads > 0");
        busy[next] += cost;
    }
    total as f64 / *busy.iter().max().expect("threads > 0") as f64
}

/// Worst-case roll-forward (in cycles) of a single reverse-step anywhere
/// in the replay, and the seek target that realizes it. A reverse-step
/// from cycle `c` restores the nearest checkpoint at or before `c - 1` and
/// rolls forward the difference; the worst position is one cycle short of
/// a checkpoint (or of the final cycle). Purely a function of the log —
/// denser checkpoints shrink it, which is exactly the cost model §15 of
/// DESIGN.md gates.
pub fn worst_rstep_roll_forward(log: &CheckpointLog) -> (u64, u64) {
    let cps = &log.checkpoints;
    let mut worst = 0u64;
    let mut at = 0u64;
    for w in cps.windows(2) {
        let roll = w[1].cycle - w[0].cycle - 1;
        if roll > worst {
            worst = roll;
            at = w[1].cycle - 1;
        }
    }
    let last = cps.last().expect("checkpoint logs start at cycle 0");
    let tail = log.final_cycle.saturating_sub(last.cycle + 1);
    if tail > worst {
        worst = tail;
        at = log.final_cycle - 1;
    }
    (worst, at)
}

/// Measures one application: record, checkpointed replay, container
/// round trip, mid-replay seek both ways, serial + parallel verification.
///
/// # Panics
///
/// Panics if any run fails or produces wrong output — checkpoint numbers
/// are only meaningful over correct executions.
pub fn measure_app(app: AppId, scale: Scale, seed: u64, threads: usize) -> SnapBenchRow {
    let rec = run_app(
        build_app(app.setup(scale, seed), VidiConfig::record()),
        MAX_CYCLES,
    )
    .expect("recording completes");
    assert!(
        rec.output_ok.is_ok(),
        "{}: recording incorrect",
        app.label()
    );
    let peak_buffered_bytes = rec.peak_buffered_bytes;
    let chunks_flushed = rec.chunks_flushed;
    let reference = rec.trace.expect("recording produces a trace");
    let replay_cfg = VidiConfig::replay_record(reference.clone());

    // Probe pass: learn the replay length so the checkpoint cadence can
    // target a fixed segment count.
    let mut probe = build_app(app.setup(scale, seed), replay_cfg.clone());
    let probe_log =
        checkpointed_replay(&mut probe, CheckpointPolicy::every(MAX_CYCLES), MAX_CYCLES)
            .expect("probe replay");
    assert!(probe_log.completed, "{}: replay must complete", app.label());
    let total = probe_log.final_cycle;
    let every = (total / TARGET_SEGMENTS).max(MIN_EVERY);

    let mut session = build_app(app.setup(scale, seed), replay_cfg.clone());
    let log = checkpointed_replay(&mut session, CheckpointPolicy::every(every), MAX_CYCLES)
        .expect("checkpointed replay");

    // Round-trip exactness: container image decodes back to the identical
    // log, and each checkpoint restores bit-exactly in both eval modes.
    let (image, _index) = log.encode_framed();
    let container_bytes = image.len();
    let recovered = vidi_snap::CheckpointLog::decode_framed(&image).expect("container decodes");
    let mut roundtrip_exact = recovered.complete && recovered.log == log;
    for cp in &log.checkpoints {
        for mode in [EvalMode::Compiled, EvalMode::Full] {
            roundtrip_exact &= checkpoint_restores_exactly(app, scale, seed, &replay_cfg, cp, mode);
        }
    }

    // Seek latency: mid-replay cycle, cold (from cycle 0) vs warm (from the
    // nearest checkpoint).
    let target = total / 2;
    let mut cold = build_app(app.setup(scale, seed), replay_cfg.clone());
    let start = Instant::now();
    SessionCursor::new(&mut cold)
        .step(target)
        .expect("cold seek");
    let seek_cold_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut warm = build_app(app.setup(scale, seed), replay_cfg.clone());
    let start = Instant::now();
    replay_from(&mut warm, &log, target).expect("warm seek");
    let seek_warm_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        warm.sim.state_digest(),
        cold.sim.state_digest(),
        "{}: seek must be bit-exact",
        app.label()
    );

    // Reverse-step cost: deterministic worst-case roll-forward from the
    // checkpoint cadence, plus a measured reverse-step at that position.
    let (rstep_worst_roll_forward, rstep_target) = worst_rstep_roll_forward(&log);
    let mut rstep = build_app(app.setup(scale, seed), replay_cfg.clone());
    let start = Instant::now();
    replay_from(&mut rstep, &log, rstep_target).expect("worst-case reverse-step");
    let rstep_worst_ms = start.elapsed().as_secs_f64() * 1e3;

    // Verification: serial sweep vs `threads`-way parallel sweep over the
    // same segments; the reports must be identical. A non-clean verdict is
    // valid data — catalog DMA diverges by design — as long as serial and
    // parallel agree on it.
    let factory = || build_app(app.setup(scale, seed), replay_cfg.clone());
    let options = VerifyOptions {
        flush_margin: VERIFY_FLUSH_MARGIN,
        ..VerifyOptions::default()
    };
    let verifier = ParallelVerifier::new(factory, &log, &reference).with_options(options);
    let start = Instant::now();
    let serial = verifier.verify_serial().expect("serial verify");
    let verify_serial_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let parallel = verifier.verify_parallel(threads).expect("parallel verify");
    let verify_parallel_ms = start.elapsed().as_secs_f64() * 1e3;
    let verify_consistent = serial == parallel;

    SnapBenchRow {
        app: app.label().to_string(),
        cycles: total,
        checkpoints: log.checkpoints.len(),
        container_bytes,
        roundtrip_exact,
        seek_cold_ms,
        seek_warm_ms,
        seek_speedup: seek_cold_ms / seek_warm_ms.max(1e-9),
        verify_serial_ms,
        verify_parallel_ms,
        verify_speedup: schedule_speedup(&log, VERIFY_FLUSH_MARGIN, threads),
        verify_consistent,
        rstep_worst_roll_forward,
        rstep_worst_ms,
        verdict: verdict_label(&serial.verdict),
        peak_buffered_bytes,
        chunks_flushed,
    }
}

/// Measures the whole `AppId::ALL` catalog.
pub fn measure_catalog(scale: Scale, seed: u64, threads: usize) -> Vec<SnapBenchRow> {
    AppId::ALL
        .iter()
        .map(|&app| measure_app(app, scale, seed, threads))
        .collect()
}

/// The snap suite's baseline gates: per app, round-trip exactness, the
/// verification verdict (clean or not, at the same cycle) and the
/// worst-case reverse-step roll-forward must equal the pinned values.
pub const SUITE: SuiteSpec = SuiteSpec {
    name: "snap",
    key: "app",
    rows: &[
        ("roundtrip_exact", Gate::Exact),
        ("verdict", Gate::Exact),
        ("rstep_worst_roll_forward", Gate::Exact),
    ],
    summary: &[],
};

/// Measures the catalog on `threads` verify workers and judges it against
/// the absolute gates: the `snap` suite of `bench_gate`.
pub fn suite(scale: Scale, seed: u64, threads: usize) -> SuiteReport {
    let rows = measure_catalog(scale, seed, threads);
    let count =
        |pred: fn(&SnapBenchRow) -> bool| Json::Num(rows.iter().filter(|r| pred(r)).count() as f64);
    SuiteReport {
        spec: &SUITE,
        summary: obj([
            ("apps_roundtrip_exact", count(|r| r.roundtrip_exact)),
            ("apps_verify_consistent", count(|r| r.verify_consistent)),
            (
                "apps_with_2x_verify_speedup",
                count(|r| r.verify_speedup >= 2.0),
            ),
            ("total_apps", Json::Num(rows.len() as f64)),
        ]),
        failures: failures(&rows),
        rows: rows
            .iter()
            .map(|r| {
                row_json!(
                    r,
                    [
                        app,
                        cycles,
                        checkpoints,
                        container_bytes,
                        roundtrip_exact,
                        seek_cold_ms,
                        seek_warm_ms,
                        seek_speedup,
                        verify_serial_ms,
                        verify_parallel_ms,
                        verify_speedup,
                        verify_consistent,
                        rstep_worst_roll_forward,
                        rstep_worst_ms,
                        verdict,
                        peak_buffered_bytes,
                        chunks_flushed,
                    ]
                )
            })
            .collect(),
    }
}

/// Every absolute gate over a measured catalog: each app's checkpoints
/// round-trip exactly and its serial and parallel verification reports
/// agree, at least half the apps reach a 2x modeled verify speedup, and the
/// reverse-step ceiling is not vacuous — a zero worst-case roll-forward on
/// every app would mean a checkpoint on every cycle, which no real cadence
/// produces, so the baseline pin on it would gate nothing.
///
/// Returns the list of violations, empty when every gate passes.
pub fn failures(rows: &[SnapBenchRow]) -> Vec<String> {
    let mut failures = Vec::new();
    let apps = |pred: fn(&SnapBenchRow) -> bool| -> Vec<&str> {
        rows.iter()
            .filter(|r| pred(r))
            .map(|r| r.app.as_str())
            .collect()
    };
    let inexact = apps(|r| !r.roundtrip_exact);
    if !inexact.is_empty() {
        failures.push(format!(
            "checkpoints do not round-trip exactly: {inexact:?}"
        ));
    }
    let inconsistent = apps(|r| !r.verify_consistent);
    if !inconsistent.is_empty() {
        failures.push(format!(
            "serial and parallel verification reports differ: {inconsistent:?}"
        ));
    }
    let with_2x = apps(|r| r.verify_speedup >= 2.0).len();
    if with_2x * 2 < rows.len() {
        failures.push(format!(
            "only {with_2x}/{} apps reach a 2x parallel-verify speedup",
            rows.len()
        ));
    }
    if !rows.is_empty() && rows.iter().all(|r| r.rstep_worst_roll_forward == 0) {
        failures.push(
            "reverse-step gate is vacuous: every app reports a zero worst-case roll-forward".into(),
        );
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(app: &str) -> SnapBenchRow {
        SnapBenchRow {
            app: app.into(),
            cycles: 0,
            checkpoints: 0,
            container_bytes: 0,
            roundtrip_exact: true,
            seek_cold_ms: 0.0,
            seek_warm_ms: 0.0,
            seek_speedup: 0.0,
            verify_serial_ms: 0.0,
            verify_parallel_ms: 0.0,
            verify_speedup: 2.0,
            verify_consistent: true,
            rstep_worst_roll_forward: 255,
            rstep_worst_ms: 0.0,
            verdict: "clean".into(),
            peak_buffered_bytes: 0,
            chunks_flushed: 0,
        }
    }

    #[test]
    fn failures_flag_inexact_and_inconsistent_apps() {
        assert!(failures(&[row("a"), row("b")]).is_empty());
        let mut inexact = row("a");
        inexact.roundtrip_exact = false;
        assert_eq!(
            failures(&[inexact, row("b")]),
            vec![r#"checkpoints do not round-trip exactly: ["a"]"#.to_string()]
        );
        let mut inconsistent = row("b");
        inconsistent.verify_consistent = false;
        assert_eq!(
            failures(&[row("a"), inconsistent]),
            vec![r#"serial and parallel verification reports differ: ["b"]"#.to_string()]
        );
    }

    #[test]
    fn failures_require_2x_verify_speedup_on_half_the_catalog() {
        let mk = |app: &str, speedup: f64| {
            let mut r = row(app);
            r.verify_speedup = speedup;
            r
        };
        assert!(failures(&[mk("a", 2.0), mk("b", 1.5)]).is_empty());
        assert_eq!(
            failures(&[mk("a", 1.99), mk("b", 1.5)]),
            vec!["only 0/2 apps reach a 2x parallel-verify speedup".to_string()]
        );
    }

    #[test]
    fn failures_reject_a_vacuous_reverse_step_gate() {
        let mk = |app: &str, rstep: u64| {
            let mut r = row(app);
            r.rstep_worst_roll_forward = rstep;
            r
        };
        let fails = failures(&[mk("a", 0), mk("b", 0)]);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("vacuous"), "{fails:?}");
        // One non-zero ceiling is enough to make the gate meaningful.
        assert!(failures(&[mk("a", 0), mk("b", 511)]).is_empty());
    }

    #[test]
    fn worst_rstep_roll_forward_tracks_checkpoint_density() {
        use vidi_snap::Checkpoint;
        let cp = |cycle| Checkpoint {
            cycle,
            digest: 0,
            txn_counts: Vec::new(),
            state: Vec::new(),
        };
        // Windows of 100 and 300 cycles, tail of 50: worst is one short of
        // the 300-gap checkpoint.
        let log = CheckpointLog {
            checkpoints: vec![cp(0), cp(100), cp(400)],
            final_cycle: 450,
            completed: true,
        };
        assert_eq!(worst_rstep_roll_forward(&log), (299, 399));
        // The tail wins when it is the widest gap.
        let log = CheckpointLog {
            checkpoints: vec![cp(0), cp(100)],
            final_cycle: 450,
            completed: true,
        };
        assert_eq!(worst_rstep_roll_forward(&log), (349, 449));
        // Denser checkpoints shrink the ceiling — the §15 cost model.
        let log = CheckpointLog {
            checkpoints: vec![cp(0), cp(50), cp(100), cp(150)],
            final_cycle: 160,
            completed: true,
        };
        assert_eq!(worst_rstep_roll_forward(&log), (49, 49));
    }

    #[test]
    fn schedule_speedup_models_the_greedy_queue() {
        use vidi_snap::Checkpoint;
        let cp = |cycle| Checkpoint {
            cycle,
            digest: 0,
            txn_counts: Vec::new(),
            state: Vec::new(),
        };
        // Four equal 100-cycle segments + a final 100-cycle + 1024 flush
        // segment on two threads: greedy loads are 200/200 then the final
        // lands on either -> critical path 200 + 1124.
        let log = CheckpointLog {
            checkpoints: vec![cp(0), cp(100), cp(200), cp(300), cp(400)],
            final_cycle: 500,
            completed: true,
        };
        let speedup = schedule_speedup(&log, 1024, 2);
        let expect = (400.0 + 1124.0) / (200.0 + 1124.0);
        assert!((speedup - expect).abs() < 1e-9, "{speedup} vs {expect}");
        // One thread is always exactly serial.
        assert!((schedule_speedup(&log, 1024, 1) - 1.0).abs() < 1e-9);
    }
}
