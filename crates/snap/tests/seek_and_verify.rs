//! End-to-end exercises of the checkpoint subsystem: seekable replay on
//! the catalog harness, and segmented parallel verification reproducing
//! the serial verdict on both paper case studies — the §3.6 DMA polling
//! divergence and the §5.3 mutated-ATOP deadlock.

use vidi_apps::{build_app, dma_setup, run_app, AppId, DmaCompletion, Scale};
use vidi_chan::AtopFilterMode;
use vidi_core::VidiConfig;
use vidi_hwsim::EvalMode;
use vidi_snap::{
    checkpointed_replay, load_checkpoint_at, replay_from, CheckpointLog, CheckpointPolicy,
    ParallelVerifier, SnapSession, VerifyOptions, VerifyVerdict,
};
use vidi_trace::{reorder_end_before, EndEventRef, Trace};

const BUDGET: u64 = 10_000_000;

fn record_catalog(app: AppId, seed: u64) -> Trace {
    let out = run_app(
        build_app(app.setup(Scale::Test, seed), VidiConfig::record()),
        BUDGET,
    )
    .expect("record run completes");
    assert!(out.output_ok.is_ok(), "recording must not corrupt output");
    out.trace.expect("recording produces a trace")
}

#[test]
fn seek_matches_straight_replay_in_both_eval_modes() {
    let reference = record_catalog(AppId::Sha, 7);
    let replay_cfg = VidiConfig::replay_record(reference.clone());

    let mut session = build_app(AppId::Sha.setup(Scale::Test, 7), replay_cfg.clone());
    let log = checkpointed_replay(&mut session, CheckpointPolicy::every(2048), BUDGET)
        .expect("checkpointed replay");
    assert!(log.completed, "clean replay must complete");
    assert!(
        log.checkpoints.len() >= 2,
        "replay long enough to checkpoint at least once past cycle 0"
    );

    for mode in [EvalMode::Compiled, EvalMode::Full] {
        for target in [1000, 2048, 3000, log.final_cycle] {
            let target = target.min(log.final_cycle);
            // Straight run: a fresh session rolled forward from cycle 0.
            let mut straight = build_app(AppId::Sha.setup(Scale::Test, 7), replay_cfg.clone());
            straight.sim.set_eval_mode(mode);
            let mut left = target;
            while left > 0 {
                let step = left.min(256);
                straight.sim.run(step).expect("straight run");
                left -= step;
            }
            // Seek: restore the nearest checkpoint and roll the remainder.
            let mut seeked = build_app(AppId::Sha.setup(Scale::Test, 7), replay_cfg.clone());
            seeked.sim.set_eval_mode(mode);
            let outcome = replay_from(&mut seeked, &log, target).expect("seek");
            assert!(outcome.restored_from <= target);
            assert_eq!(outcome.restored_from + outcome.rolled_forward, target);
            assert_eq!(
                seeked.sim.state_digest(),
                straight.sim.state_digest(),
                "seek to cycle {target} in {mode:?} must be bit-exact"
            );
        }
    }
}

#[test]
fn persisted_checkpoint_seeks_identically() {
    let reference = record_catalog(AppId::Dma, 3);
    let replay_cfg = VidiConfig::replay_record(reference.clone());
    let mut session = build_app(AppId::Dma.setup(Scale::Test, 3), replay_cfg.clone());
    let log = checkpointed_replay(&mut session, CheckpointPolicy::every(1500), BUDGET)
        .expect("checkpointed replay");

    // Round-trip through the container + index, then seek using only the
    // indexed checkpoint's storage words.
    let (image, index) = log.encode_framed();
    let target = log.final_cycle / 2;
    let entry = *index.locate(target).expect("an entry at or before target");
    let cp = load_checkpoint_at(&image, &entry).expect("indexed load");
    assert_eq!(cp, *log.nearest_at_or_before(target).expect("checkpoint"));

    let single = CheckpointLog {
        checkpoints: vec![cp],
        final_cycle: log.final_cycle,
        completed: log.completed,
    };
    let mut from_disk = build_app(AppId::Dma.setup(Scale::Test, 3), replay_cfg.clone());
    replay_from(&mut from_disk, &single, target).expect("seek from persisted checkpoint");
    let mut from_memory = build_app(AppId::Dma.setup(Scale::Test, 3), replay_cfg);
    replay_from(&mut from_memory, &log, target).expect("seek from in-memory log");
    assert_eq!(from_disk.sim.state_digest(), from_memory.sim.state_digest());
}

#[test]
fn clean_replay_verifies_clean_serial_and_parallel() {
    let reference = record_catalog(AppId::Sha, 11);
    let replay_cfg = VidiConfig::replay_record(reference.clone());
    let mut session = build_app(AppId::Sha.setup(Scale::Test, 11), replay_cfg.clone());
    let log = checkpointed_replay(&mut session, CheckpointPolicy::every(2000), BUDGET)
        .expect("checkpointed replay");

    let factory = || build_app(AppId::Sha.setup(Scale::Test, 11), replay_cfg.clone());
    let verifier = ParallelVerifier::new(factory, &log, &reference);
    let serial = verifier.verify_serial().expect("serial verify");
    let parallel = verifier.verify_parallel(4).expect("parallel verify");
    assert!(serial.is_clean(), "clean replay: {:?}", serial.verdict);
    assert_eq!(
        serial, parallel,
        "parallel must reproduce the serial report"
    );
    assert!(serial.transactions_checked > 0);
}

/// §3.6: the DMA polling construct is cycle-dependent; replaying its trace
/// produces content divergences on the status channel. Serial and parallel
/// verification must localize the *same* first divergent cycle.
#[test]
fn polling_divergence_first_cycle_is_identical_serial_and_parallel() {
    let tasks = 12;
    let setup = |seed| dma_setup(tasks, 4096, DmaCompletion::Polling { interval: 64 }, seed);
    let rec = run_app(build_app(setup(3), VidiConfig::record()), BUDGET).expect("record");
    let reference = rec.trace.expect("reference trace");

    let replay_cfg = VidiConfig::replay_record(reference.clone());
    let mut session = build_app(setup(3), replay_cfg.clone());
    let log = checkpointed_replay(&mut session, CheckpointPolicy::every(4000), BUDGET)
        .expect("checkpointed replay");
    assert!(
        log.completed,
        "polling replay completes (it diverges, not stalls)"
    );

    let factory = || build_app(setup(3), replay_cfg.clone());
    let verifier = ParallelVerifier::new(factory, &log, &reference);
    let serial = verifier.verify_serial().expect("serial verify");
    let parallel = verifier.verify_parallel(4).expect("parallel verify");

    assert_eq!(
        serial, parallel,
        "parallel must reproduce the serial report"
    );
    let VerifyVerdict::Diverged { cycle, .. } = &serial.verdict else {
        panic!("polling replay must diverge, got {:?}", serial.verdict);
    };
    assert!(*cycle > 0, "divergence pinned to a concrete cycle");
    assert_eq!(serial.first_divergent_cycle(), Some(*cycle));

    // The interrupt patch (§3.6's fix) verifies clean through the same
    // machinery.
    let fixed_setup = |seed| dma_setup(tasks, 4096, DmaCompletion::Interrupt, seed);
    let rec = run_app(build_app(fixed_setup(3), VidiConfig::record()), BUDGET).expect("record");
    let fixed_ref = rec.trace.expect("reference trace");
    let fixed_cfg = VidiConfig::replay_record(fixed_ref.clone());
    let mut session = build_app(fixed_setup(3), fixed_cfg.clone());
    let log = checkpointed_replay(&mut session, CheckpointPolicy::every(4000), BUDGET)
        .expect("checkpointed replay");
    let factory = || build_app(fixed_setup(3), fixed_cfg.clone());
    let verifier = ParallelVerifier::new(factory, &log, &fixed_ref);
    let report = verifier.verify_parallel(4).expect("parallel verify");
    assert!(
        report.is_clean(),
        "interrupt completion: {:?}",
        report.verdict
    );
}

/// §5.3: replaying a mutated trace (first pcim W end moved before the
/// first AW end) deadlocks the buggy ATOP filter. Segmented verification
/// must report the deadlock — identically on the serial and parallel
/// paths — from a checkpoint log that itself never completed.
#[test]
fn mutated_atop_trace_deadlock_detected_identically() {
    use vidi_apps::build_echo_atop;

    let pings = 32u32;
    let recorded = vidi_apps::run_echo_atop(AtopFilterMode::Buggy, VidiConfig::record(), pings, 5)
        .expect("record run");
    assert!(recorded.completed, "normal operation must not deadlock");
    let trace = recorded.trace.expect("trace");
    let aw = trace.layout().index_of("pcim.aw").expect("pcim.aw");
    let w = trace.layout().index_of("pcim.w").expect("pcim.w");
    let mutated = reorder_end_before(
        &trace,
        EndEventRef {
            channel: w,
            index: 0,
        },
        EndEventRef {
            channel: aw,
            index: 0,
        },
    )
    .expect("mutation applies");

    let replay_cfg = VidiConfig::replay_record(mutated.clone());
    let mut session = build_echo_atop(AtopFilterMode::Buggy, replay_cfg.clone(), pings, 5);
    let log = checkpointed_replay(&mut session, CheckpointPolicy::every(5000), 30_000)
        .expect("checkpointed replay");
    assert!(!log.completed, "the mutated ordering must stall the replay");

    let factory = || build_echo_atop(AtopFilterMode::Buggy, replay_cfg.clone(), pings, 5);
    let options = VerifyOptions {
        final_budget: 10_000,
        ..VerifyOptions::default()
    };
    let verifier = ParallelVerifier::new(factory, &log, &mutated).with_options(options);
    let serial = verifier.verify_serial().expect("serial verify");
    let parallel = verifier.verify_parallel(4).expect("parallel verify");
    assert_eq!(
        serial, parallel,
        "parallel must reproduce the serial report"
    );
    assert!(!serial.is_clean());
    match &serial.verdict {
        VerifyVerdict::Deadlock { cycle, stalled } => {
            assert!(*cycle > 0);
            assert!(!stalled.is_empty(), "deadlock names the stalled channels");
        }
        other => panic!("expected a deadlock verdict, got {other:?}"),
    }
    assert_eq!(
        serial.first_divergent_cycle(),
        parallel.first_divergent_cycle()
    );

    // The unmutated trace replays clean through the very same machinery.
    let clean_cfg = VidiConfig::replay_record(trace.clone());
    let mut session = build_echo_atop(AtopFilterMode::Buggy, clean_cfg.clone(), pings, 5);
    let log = checkpointed_replay(&mut session, CheckpointPolicy::every(5000), BUDGET)
        .expect("checkpointed replay");
    assert!(log.completed);
    let factory = || build_echo_atop(AtopFilterMode::Buggy, clean_cfg.clone(), pings, 5);
    let report = ParallelVerifier::new(factory, &log, &trace)
        .verify_parallel(4)
        .expect("parallel verify");
    assert!(report.is_clean(), "unmutated replay: {:?}", report.verdict);
}

/// The checkpoint runner refuses a session that is not replaying at all.
#[test]
fn record_mode_session_is_rejected() {
    let mut session = build_app(AppId::Sha.setup(Scale::Test, 1), VidiConfig::record());
    let err = checkpointed_replay(&mut session, CheckpointPolicy::every(1000), 10_000)
        .expect_err("record-mode session must be rejected");
    assert!(matches!(err, vidi_snap::SnapError::NotReplaying));
    // The session trait objects stay usable for generic callers.
    let mut boxed: Box<dyn SnapSession> = Box::new(session);
    assert_eq!(boxed.sim().cycle(), 0);
}
