//! Property tests for state capture: random simulator states — catalog
//! applications stopped at random cycles — must snapshot/restore exactly,
//! and arbitrarily damaged snapshot bytes must fail typed, never panic.

use std::sync::OnceLock;

use proptest::prelude::*;
use vidi_apps::{build_app, run_app, AppId, BuiltApp, Scale};
use vidi_core::{ReplayInput, VidiConfig};
use vidi_hwsim::EvalMode;

/// Advances a fresh recording session of `app` by `cycles`.
fn session_at(app: AppId, seed: u64, cycles: u64) -> BuiltApp {
    let mut built = build_app(app.setup(Scale::Test, seed), VidiConfig::record());
    built.sim.run(cycles).expect("run to snapshot point");
    built
}

/// Seed of the recordings the replay sessions below replay.
const REPLAY_SEED: u64 = 11;

/// A fresh R3 (replay-while-recording) session of `app` over its recorded
/// image, recorded once per app at [`REPLAY_SEED`] and shared by every
/// case: decoder, replayer and replay-engine state all live in its
/// snapshots.
fn replay_session(app: AppId) -> BuiltApp {
    static IMAGES: [OnceLock<ReplayInput>; AppId::ALL.len()] =
        [const { OnceLock::new() }; AppId::ALL.len()];
    let idx = AppId::ALL
        .iter()
        .position(|&a| a == app)
        .expect("a catalog app");
    let input = IMAGES[idx].get_or_init(|| {
        let recorded = run_app(
            build_app(app.setup(Scale::Test, REPLAY_SEED), VidiConfig::record()),
            2_000_000,
        )
        .expect("recording completes");
        recorded.trace.expect("recording produces a trace").into()
    });
    build_app(
        app.setup(Scale::Test, REPLAY_SEED),
        VidiConfig::replay_record(input.clone()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `restore(snapshot(s)) == s`: the restored simulator re-serializes to
    /// the identical blob and the identical digest, and keeps producing the
    /// identical trajectory in both eval modes.
    #[test]
    fn snapshot_restore_is_identity(
        app_idx in 0usize..AppId::ALL.len(),
        seed in 0u64..1000,
        cycles in 0u64..3000,
        full_mode in any::<bool>(),
    ) {
        let app = AppId::ALL[app_idx];
        let original = session_at(app, seed, cycles);
        let blob = original.sim.snapshot();
        let digest = original.sim.state_digest();

        let mut restored = build_app(app.setup(Scale::Test, seed), VidiConfig::record());
        if full_mode {
            restored.sim.set_eval_mode(EvalMode::Full);
        }
        restored.sim.restore(&blob).expect("restore");
        prop_assert_eq!(restored.sim.cycle(), original.sim.cycle());
        prop_assert_eq!(restored.sim.state_digest(), digest);
        prop_assert_eq!(restored.sim.snapshot(), blob);

        // The restored trajectory stays bit-exact: roll both forward and
        // compare digests again.
        let mut original = original;
        original.sim.run(500).expect("roll original");
        restored.sim.run(500).expect("roll restored");
        prop_assert_eq!(restored.sim.state_digest(), original.sim.state_digest());
    }

    /// Truncated snapshot bytes: a typed error, never a panic.
    #[test]
    fn truncated_snapshot_fails_typed(
        app_idx in 0usize..AppId::ALL.len(),
        seed in 0u64..1000,
        cycles in 0u64..2000,
        cut_num in 0u64..100,
    ) {
        let app = AppId::ALL[app_idx];
        let blob = session_at(app, seed, cycles).sim.snapshot();
        let keep = (blob.len() as u64 * cut_num / 100) as usize;
        if keep < blob.len() {
            let mut victim = build_app(app.setup(Scale::Test, seed), VidiConfig::record());
            prop_assert!(victim.sim.restore(&blob[..keep]).is_err());
        }
    }

    /// Bit-flipped snapshot bytes: either a typed error or a clean restore
    /// (flips confined to value payloads still parse) — never a panic, at
    /// restore or in the cycles after it: a restore must refuse any state
    /// the design cannot run from. Covers recording sessions and R3 replay
    /// sessions, whose snapshots also carry decoder, replayer and
    /// replay-engine state.
    #[test]
    fn corrupted_snapshot_never_panics(
        app_idx in 0usize..AppId::ALL.len(),
        seed in 0u64..1000,
        cycles in 0u64..2000,
        flip_seed in any::<u64>(),
        flips in 1usize..24,
        replay in any::<bool>(),
    ) {
        let app = AppId::ALL[app_idx];
        let fresh = || {
            if replay {
                replay_session(app)
            } else {
                build_app(app.setup(Scale::Test, seed), VidiConfig::record())
            }
        };
        let mut original = fresh();
        original.sim.run(cycles).expect("run to snapshot point");
        let mut blob = original.sim.snapshot();
        let mut state = flip_seed | 1;
        for _ in 0..flips {
            // xorshift64 walk over bit positions.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let pos = (state as usize) % (blob.len() * 8);
            blob[pos / 8] ^= 1 << (pos % 8);
        }
        let mut victim = fresh();
        if victim.sim.restore(&blob).is_ok() {
            // A damaged but accepted state may stall or time out; it must
            // not panic.
            let _ = victim.sim.run(64);
        }
    }
}

/// Finds the trace sink's open word and sealed-but-unflushed words inside a
/// recording session's snapshot, and returns the snapshot with the open
/// word lengthened by one storage word taken from the sealed ones — the
/// blob keeps its length, so every enclosing length prefix stays valid.
/// `None` while the sink holds no open word or no sealed word.
fn with_oversized_open_word(built: &vidi_apps::BuiltApp) -> Option<Vec<u8>> {
    use vidi_trace::{FRAME_PAYLOAD_BYTES, STORAGE_WORD_BYTES};
    let blob = built.sim.snapshot();
    // The stream image ends with the sealed words, then a copy-sealed open
    // word whose payload is exactly the sink's open word.
    let image = built.shim.recorded_stream_image()?;
    let (body, last) = image.split_at(image.len().checked_sub(STORAGE_WORD_BYTES)?);
    let len = u16::from_le_bytes([last[FRAME_PAYLOAD_BYTES], last[FRAME_PAYLOAD_BYTES + 1]]);
    let pending = &last[..usize::from(len)];
    if pending.is_empty() || pending.len() == FRAME_PAYLOAD_BYTES {
        return None;
    }
    // The sink serializes `pending` then `sealed`, each length-prefixed.
    let mut hits = (0..blob.len()).filter_map(|at| {
        let rest = &blob[at..];
        let rest = rest.strip_prefix(&(pending.len() as u32).to_le_bytes()[..])?;
        let rest = rest.strip_prefix(pending)?;
        let sealed_len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
        let sealed = rest.get(4..4 + sealed_len)?;
        let whole_words = sealed_len > 0 && sealed_len.is_multiple_of(STORAGE_WORD_BYTES);
        (whole_words && body.ends_with(sealed)).then_some((at, sealed))
    });
    let (at, sealed) = hits.next()?;
    assert!(hits.next().is_none(), "sink state located ambiguously");
    let mut region = Vec::new();
    region.extend_from_slice(&((pending.len() + STORAGE_WORD_BYTES) as u32).to_le_bytes());
    region.extend_from_slice(pending);
    region.extend_from_slice(&sealed[..STORAGE_WORD_BYTES]);
    region.extend_from_slice(&((sealed.len() - STORAGE_WORD_BYTES) as u32).to_le_bytes());
    region.extend_from_slice(&sealed[STORAGE_WORD_BYTES..]);
    let mut patched = blob.clone();
    patched[at..at + region.len()].copy_from_slice(&region);
    Some(patched)
}

/// A snapshot whose trace-sink open word holds more than one word's payload
/// is refused at restore — accepted, the next staged packet would panic.
#[test]
fn oversized_open_word_is_refused_at_restore() {
    let app = AppId::Sha;
    let mut built = build_app(app.setup(Scale::Test, 9), VidiConfig::record());
    let patched = (0..200)
        .find_map(|_| {
            built.sim.run(25).expect("recording runs");
            with_oversized_open_word(&built)
        })
        .expect("the sink holds an open word and a sealed word at some point");
    let mut honest = build_app(app.setup(Scale::Test, 9), VidiConfig::record());
    honest
        .sim
        .restore(&built.sim.snapshot())
        .expect("the unpatched snapshot restores");
    let mut victim = build_app(app.setup(Scale::Test, 9), VidiConfig::record());
    let err = victim
        .sim
        .restore(&patched)
        .expect_err("an oversized open word must be refused");
    assert!(err.to_string().contains("open word"), "{err}");
}
