//! Checkpoint/seek/verify perf measurement behind `BENCH_snap.json`.
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
use vidi_core::VidiConfig;
use vidi_hwsim::EvalMode;
use vidi_snap::{
    checkpointed_replay, replay_from, CheckpointLog, CheckpointPolicy, ParallelVerifier,
    VerifyOptions, VerifyVerdict,
};

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
    let mut left = target;
    while left > 0 {
        let step = left.min(256);
        cold.sim.run(step).expect("cold seek");
        left -= step;
    }
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

/// Number of rows whose parallel-verify speedup is at least 2x.
pub fn rows_with_2x_verify_speedup(rows: &[SnapBenchRow]) -> usize {
    rows.iter().filter(|r| r.verify_speedup >= 2.0).count()
}

/// Serializes rows into the `BENCH_snap.json` document.
pub fn to_json(rows: &[SnapBenchRow], scale: Scale, threads: usize) -> Json {
    let apps = rows
        .iter()
        .map(|r| {
            obj([
                ("app", Json::Str(r.app.clone())),
                ("cycles", Json::Num(r.cycles as f64)),
                ("checkpoints", Json::Num(r.checkpoints as f64)),
                ("container_bytes", Json::Num(r.container_bytes as f64)),
                ("roundtrip_exact", Json::Bool(r.roundtrip_exact)),
                ("seek_cold_ms", Json::Num(r.seek_cold_ms)),
                ("seek_warm_ms", Json::Num(r.seek_warm_ms)),
                ("seek_speedup", Json::Num(r.seek_speedup)),
                ("verify_serial_ms", Json::Num(r.verify_serial_ms)),
                ("verify_parallel_ms", Json::Num(r.verify_parallel_ms)),
                ("verify_speedup", Json::Num(r.verify_speedup)),
                ("verify_consistent", Json::Bool(r.verify_consistent)),
                (
                    "rstep_worst_roll_forward",
                    Json::Num(r.rstep_worst_roll_forward as f64),
                ),
                ("rstep_worst_ms", Json::Num(r.rstep_worst_ms)),
                ("verdict", Json::Str(r.verdict.clone())),
                (
                    "peak_buffered_bytes",
                    Json::Num(r.peak_buffered_bytes as f64),
                ),
                ("chunks_flushed", Json::Num(r.chunks_flushed as f64)),
            ])
        })
        .collect();
    obj([
        ("schema", Json::Str("vidi-bench-snap/1".into())),
        (
            "scale",
            Json::Str(
                match scale {
                    Scale::Test => "test",
                    Scale::Bench => "bench",
                }
                .into(),
            ),
        ),
        ("threads", Json::Num(threads as f64)),
        ("apps", Json::Arr(apps)),
        (
            "summary",
            obj([
                (
                    "apps_roundtrip_exact",
                    Json::Num(rows.iter().filter(|r| r.roundtrip_exact).count() as f64),
                ),
                (
                    "apps_verify_consistent",
                    Json::Num(rows.iter().filter(|r| r.verify_consistent).count() as f64),
                ),
                (
                    "apps_with_2x_verify_speedup",
                    Json::Num(rows_with_2x_verify_speedup(rows) as f64),
                ),
                ("total_apps", Json::Num(rows.len() as f64)),
            ]),
        ),
    ])
}

/// Compares a current `BENCH_snap.json` document against a committed
/// baseline on the **deterministic** fields only: every app present in the
/// baseline must still be measured, its `roundtrip_exact` boolean must not
/// regress, its verification verdict — clean or not — must be the *same
/// verdict at the same cycle* the baseline pinned, and its worst-case
/// reverse-step roll-forward must not drift from the cadence the baseline
/// recorded. Wall-clock and speedup values are never gated per app — the
/// speedup floor is enforced on the current run's summary by the binary
/// itself.
///
/// The reverse-step gate also self-checks for vacuousness: if every
/// current row reports a worst-case roll-forward of zero, the gate is
/// gating nothing (a zero ceiling means checkpoints at every cycle, which
/// no real cadence produces) and the comparison fails rather than
/// silently passing forever.
///
/// # Errors
///
/// Returns the list of regressions: apps missing from the current
/// document, exactness flips, verdict drift, reverse-step drift, or a
/// vacuous reverse-step gate.
pub fn compare_to_baseline(current: &Json, baseline: &Json) -> Result<(), Vec<String>> {
    let mut failures = Vec::new();
    let rows = |doc: &Json| -> Vec<(String, bool, String, Option<u64>)> {
        doc.get("apps")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|r| {
                Some((
                    r.get("app")?.as_str()?.to_string(),
                    r.get("roundtrip_exact")?.as_bool()?,
                    r.get("verdict")?.as_str()?.to_string(),
                    r.get("rstep_worst_roll_forward")
                        .and_then(Json::as_f64)
                        .map(|n| n as u64),
                ))
            })
            .collect()
    };
    let cur = rows(current);
    for (app, base_exact, base_verdict, base_rstep) in rows(baseline) {
        match cur.iter().find(|(a, _, _, _)| *a == app) {
            None => failures.push(format!("{app}: present in baseline but not measured")),
            Some((_, cur_exact, cur_verdict, cur_rstep)) => {
                if base_exact && !cur_exact {
                    failures.push(format!("{app}: checkpoint round trip no longer exact"));
                }
                if *cur_verdict != base_verdict {
                    failures.push(format!(
                        "{app}: verdict drifted {base_verdict:?} -> {cur_verdict:?}"
                    ));
                }
                // Old baselines predate the field; gate only when pinned.
                if let (Some(base), Some(cur)) = (base_rstep, cur_rstep) {
                    if *cur != base {
                        failures.push(format!(
                            "{app}: worst-case reverse-step roll-forward drifted {base} -> {cur}"
                        ));
                    }
                }
            }
        }
    }
    // Vacuous-gate detection: a reverse-step gate where every measured
    // ceiling is zero pins nothing.
    let rstep_values: Vec<u64> = cur.iter().filter_map(|(_, _, _, r)| *r).collect();
    if !rstep_values.is_empty() && rstep_values.iter().all(|&v| v == 0) {
        failures.push(
            "reverse-step gate is vacuous: every app reports a zero worst-case roll-forward".into(),
        );
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(apps: &[(&str, bool, &str)]) -> Json {
        let rows = apps
            .iter()
            .map(|(a, exact, verdict)| {
                obj([
                    ("app", Json::Str((*a).into())),
                    ("roundtrip_exact", Json::Bool(*exact)),
                    ("verdict", Json::Str((*verdict).into())),
                ])
            })
            .collect();
        obj([("apps", Json::Arr(rows))])
    }

    fn doc_with_rstep(apps: &[(&str, bool, &str, u64)]) -> Json {
        let rows = apps
            .iter()
            .map(|(a, exact, verdict, rstep)| {
                obj([
                    ("app", Json::Str((*a).into())),
                    ("roundtrip_exact", Json::Bool(*exact)),
                    ("verdict", Json::Str((*verdict).into())),
                    ("rstep_worst_roll_forward", Json::Num(*rstep as f64)),
                ])
            })
            .collect();
        obj([("apps", Json::Arr(rows))])
    }

    #[test]
    fn baseline_compare_flags_regressions() {
        let base = doc(&[("a", true, "clean"), ("b", true, "diverged@100")]);
        let good = doc(&[("a", true, "clean"), ("b", true, "diverged@100")]);
        assert!(compare_to_baseline(&good, &base).is_ok());

        let drifted = doc(&[("a", false, "clean"), ("b", true, "diverged@250")]);
        let failures = compare_to_baseline(&drifted, &base).unwrap_err();
        assert_eq!(failures.len(), 2);

        let missing = doc(&[("a", true, "clean")]);
        let failures = compare_to_baseline(&missing, &base).unwrap_err();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains('b'));
    }

    #[test]
    fn baseline_compare_gates_reverse_step_drift() {
        let base = doc_with_rstep(&[("a", true, "clean", 255), ("b", true, "clean", 511)]);
        let same = doc_with_rstep(&[("a", true, "clean", 255), ("b", true, "clean", 511)]);
        assert!(compare_to_baseline(&same, &base).is_ok());

        let drifted = doc_with_rstep(&[("a", true, "clean", 255), ("b", true, "clean", 1023)]);
        let failures = compare_to_baseline(&drifted, &base).unwrap_err();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("reverse-step"), "{failures:?}");

        // A baseline predating the field gates nothing per app.
        let old_base = doc(&[("a", true, "clean"), ("b", true, "clean")]);
        assert!(compare_to_baseline(&same, &old_base).is_ok());
    }

    #[test]
    fn baseline_compare_rejects_vacuous_reverse_step_gate() {
        let base = doc_with_rstep(&[("a", true, "clean", 0), ("b", true, "clean", 0)]);
        let cur = doc_with_rstep(&[("a", true, "clean", 0), ("b", true, "clean", 0)]);
        let failures = compare_to_baseline(&cur, &base).unwrap_err();
        assert!(
            failures.iter().any(|f| f.contains("vacuous")),
            "{failures:?}"
        );
        // One non-zero ceiling is enough to make the gate meaningful.
        let mixed = doc_with_rstep(&[("a", true, "clean", 0), ("b", true, "clean", 511)]);
        let mixed_base = doc_with_rstep(&[("a", true, "clean", 0), ("b", true, "clean", 511)]);
        assert!(compare_to_baseline(&mixed, &mixed_base).is_ok());
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
