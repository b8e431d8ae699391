//! Cross-mode seek equivalence: `replay_from` to an arbitrary cycle must
//! land on the *same state* (`state_digest`) as a straight replay from
//! cycle 0 — in both schedulers ([`EvalMode::Full`] and
//! [`EvalMode::Compiled`]) and for any seek target, including checkpoint boundaries,
//! boundary±1, cycle 0 and the final cycle. The debugger's `seek`/`rstep`
//! rest entirely on this property.

use std::sync::OnceLock;

use proptest::prelude::*;
use vidi_apps::{build_app, run_app, AppId, BuiltApp, Scale};
use vidi_core::VidiConfig;
use vidi_hwsim::EvalMode;
use vidi_snap::{checkpointed_replay, replay_from, CheckpointLog, CheckpointPolicy};
use vidi_trace::Trace;

const BUDGET: u64 = 10_000_000;
const EVERY: u64 = 512;

/// Recorded SHA trace + checkpoint log, shared across every test case.
fn fixture() -> &'static (Trace, CheckpointLog) {
    static FIXTURE: OnceLock<(Trace, CheckpointLog)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let out = run_app(
            build_app(AppId::Sha.setup(Scale::Test, 7), VidiConfig::record()),
            BUDGET,
        )
        .expect("record run completes");
        let reference = out.trace.expect("recording produces a trace");
        let mut session = build_app(
            AppId::Sha.setup(Scale::Test, 7),
            VidiConfig::replay_record(reference.clone()),
        );
        let log = checkpointed_replay(&mut session, CheckpointPolicy::every(EVERY), BUDGET)
            .expect("checkpointed replay");
        assert!(log.completed, "clean replay must complete");
        assert!(
            log.checkpoints.len() >= 3,
            "enough checkpoints to seek across"
        );
        (reference, log)
    })
}

fn replay_session(mode: EvalMode) -> BuiltApp {
    let (reference, _) = fixture();
    let mut built = build_app(
        AppId::Sha.setup(Scale::Test, 7),
        VidiConfig::replay_record(reference.clone()),
    );
    built.sim.set_eval_mode(mode);
    built
}

/// Digest after a straight run of `target` cycles from a fresh session.
fn straight_digest(mode: EvalMode, target: u64) -> u64 {
    let mut built = replay_session(mode);
    let mut left = target;
    while left > 0 {
        let step = left.min(256);
        built.sim.run(step).expect("straight run");
        left -= step;
    }
    built.sim.state_digest()
}

/// Digest after seeking to `target` via checkpoint restore + roll-forward.
fn seek_digest(mode: EvalMode, target: u64) -> u64 {
    let (_, log) = fixture();
    let mut built = replay_session(mode);
    let outcome = replay_from(&mut built, log, target).expect("seek");
    assert!(outcome.restored_from <= target);
    assert_eq!(outcome.restored_from + outcome.rolled_forward, target);
    built.sim.state_digest()
}

#[test]
fn seek_matches_straight_run_in_both_eval_modes() {
    let (_, log) = fixture();
    // Checkpoint boundaries, off-by-one neighbours, cycle 0, final cycle.
    let targets = [
        0,
        1,
        EVERY - 1,
        EVERY,
        EVERY + 1,
        2 * EVERY,
        log.final_cycle - 1,
        log.final_cycle,
    ];
    for mode in [EvalMode::Full, EvalMode::Compiled] {
        for target in targets {
            let target = target.min(log.final_cycle);
            assert_eq!(
                seek_digest(mode, target),
                straight_digest(mode, target),
                "seek to cycle {target} in {mode:?} must be bit-exact"
            );
        }
    }
}

#[test]
fn modes_agree_with_each_other_after_seek() {
    // The two schedulers must not merely each be self-consistent — they
    // must land on the identical state for the same target.
    let (_, log) = fixture();
    let target = (log.final_cycle / 2).max(1);
    assert_eq!(
        seek_digest(EvalMode::Full, target),
        seek_digest(EvalMode::Compiled, target)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random seek targets across the whole execution, random scheduler.
    #[test]
    fn random_seek_targets_are_bit_exact(target in 0u64..=4096, mode_ix in 0usize..2) {
        let (_, log) = fixture();
        let target = target.min(log.final_cycle);
        let mode = [EvalMode::Full, EvalMode::Compiled][mode_ix];
        prop_assert_eq!(
            seek_digest(mode, target),
            straight_digest(mode, target),
            "seek to cycle {} in {:?} must be bit-exact", target, mode
        );
    }
}
