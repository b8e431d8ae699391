//! `replay-debug`: what a debugging user pays on a recorded trace.
//!
//! Set-up records each session through XorDict to a chunk image, indexes
//! it with a checkpoint every [`CHECKPOINT_EVERY`] cycles, and walks one
//! straight replay past every seek target to build a table of reference
//! state digests. The timed phase then runs, per session, one straight
//! replay from the chunk image, one two-thread segmented verification over
//! the checkpoint log, and for each seeded target `c` a seek to `c` and a
//! reverse step to `c - 1`. Each seek is a fresh `build_app` plus
//! `replay_from`, exactly what the debugger's seek does.

use std::collections::BTreeMap;
use std::sync::Arc;

use vidi_apps::BuiltApp;
use vidi_core::{ReplayInput, SessionCursor, Stop, VidiConfig};
use vidi_snap::{
    checkpointed_replay, replay_from, CheckpointLog, CheckpointPolicy, ParallelVerifier,
    VerifyReport,
};
use vidi_trace::Trace;

use crate::probe;
use crate::session::{drive, record, transparent, Drive, Round, Spec, MAX_CYCLES, PROBE, SETUP};
use crate::spans::{Tracer, TIMED};

/// Checkpoint cadence of the seek index, in cycles.
pub const CHECKPOINT_EVERY: u64 = 4096;

/// Roll-forward distances past each checkpoint a seek target uses.
const DISTANCES: u64 = 5;

/// Worker threads of the segmented verification.
pub const VERIFY_THREADS: usize = 2;

/// Snapshot and restore repetitions of the traced probe.
const SNAP_REPEATS: usize = 5;

/// Everything set-up prepares for one session's timed phase.
struct Prepared {
    spec: Spec,
    base: Drive,
    input: ReplayInput,
    reference: Trace,
    log: CheckpointLog,
    targets: Vec<u64>,
    digests: BTreeMap<u64, u64>,
}

/// One round over `specs`, with `targets` seek targets per session.
pub fn round(tr: &mut Tracer, specs: &[Spec], targets: usize, seed: u64) -> Round {
    let mut round = Round::default();
    let mut prepared = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        tr.set_session(i as u64);
        if let Some(p) = prepare(tr, spec, targets, seed, &mut round) {
            prepared.push(p);
        }
    }
    let mut reports = Vec::new();
    for (i, p) in prepared.iter().enumerate() {
        tr.set_session(i as u64);
        straight_replay(tr, p, &mut round);
        reports.push(verify(tr, p, &mut round));
        for &c in &p.targets {
            seek(tr, p, c, &mut round);
            seek(tr, p, c - 1, &mut round);
        }
    }
    if tr.keeping() {
        probe::trace_layer(tr, &mut round);
        for (p, parallel) in prepared.iter().zip(&reports) {
            snap_probe(tr, p, parallel.as_ref(), &mut round);
        }
    }
    round
}

/// Records, indexes and tables one session in the set-up phase.
fn prepare(
    tr: &mut Tracer,
    spec: &Spec,
    targets: usize,
    seed: u64,
    round: &mut Round,
) -> Option<Prepared> {
    let base = transparent(tr, spec, round)?;
    let rec = record(tr, spec, SETUP, round)?;
    round.layer.record_path_s += rec.drive.drive_s - base.drive_s;

    let setup = tr.open(SETUP);
    let image = rec.built.shim.recorded_stream_image();
    let reference = rec.built.shim.recorded_trace();
    round.setup_s += tr.close(setup);
    let (Some(image), Some(reference)) = (image, reference) else {
        round.fail(format!(
            "{}: recording kept no stream image",
            spec.app.label()
        ));
        return None;
    };
    round.trace_bytes += image.len() as u64;
    round.trace_cycles += rec.drive.cycles;
    let input = ReplayInput::from_chunks(Arc::new(image));

    let setup = tr.open(SETUP);
    let mut session = spec.build(tr, VidiConfig::replay_record(input.clone()), round);
    let (log, index_s) = tr.time("snap.checkpointed_replay", || {
        checkpointed_replay(
            &mut session,
            CheckpointPolicy::every(CHECKPOINT_EVERY),
            MAX_CYCLES,
        )
    });
    round.layer.index_s += index_s;
    round.attempted += 1;
    let log = match log {
        Ok(log) if log.completed && log.final_cycle >= 2 => Ok(log),
        Ok(log) => Err(format!("stopped at cycle {} unfinished", log.final_cycle)),
        Err(e) => Err(e.to_string()),
    };
    let label = spec.app.label();
    let Some(log) = round.ok(log.map_err(|e| format!("{label}: indexing replay: {e}"))) else {
        round.setup_s += tr.close(setup);
        return None;
    };

    let targets = seek_targets(seed ^ spec.seed, log.final_cycle, targets);
    let digests = straight_digests(tr, spec, &input, &targets, round);
    round.setup_s += tr.close(setup);
    Some(Prepared {
        spec: *spec,
        base,
        input,
        reference,
        log,
        targets,
        digests: digests?,
    })
}

/// `count` seek targets in the first half of `[1, final_cycle)` (the whole
/// of it when that is under one checkpoint interval), so the straight-run
/// reference walk costs half a replay. The targets form a grid: checkpoints
/// spread evenly over the half from a seeded starting point, and past each
/// one the same [`DISTANCES`] evenly spaced roll-forward distances. Every
/// seed so sees the same roll-forward lengths at the same spread of trace
/// positions, and no distance is tied to one part of the trace.
fn seek_targets(seed: u64, final_cycle: u64, count: usize) -> Vec<u64> {
    let reach = (final_cycle / 2).max(final_cycle.min(CHECKPOINT_EVERY));
    let span = CHECKPOINT_EVERY.min(reach);
    let windows = (reach - span) / CHECKPOINT_EVERY + 1;
    let first = splitmix64(seed) % windows;
    let count = count as u64;
    let positions = count.div_ceil(DISTANCES);
    (0..count)
        .map(|i| {
            let window = (first + i / DISTANCES * windows / positions) % windows;
            let distance = (2 * (i % DISTANCES) + 1) * (span - 1) / (2 * DISTANCES);
            window * CHECKPOINT_EVERY + 1 + distance
        })
        .collect()
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The straight-run reference: one replay from cycle 0, stopped at every
/// target `c` and `c - 1` to read the state digest.
fn straight_digests(
    tr: &mut Tracer,
    spec: &Spec,
    input: &ReplayInput,
    targets: &[u64],
    round: &mut Round,
) -> Option<BTreeMap<u64, u64>> {
    let mut session = spec.build(tr, VidiConfig::replay_record(input.clone()), round);
    let mut cycles: Vec<u64> = targets.iter().flat_map(|&c| [c - 1, c]).collect();
    cycles.sort_unstable();
    cycles.dedup();
    let mut digests = BTreeMap::new();
    let walk = tr.open("core.drive");
    let mut cursor = SessionCursor::new(&mut session);
    let mut walked = Ok(());
    for c in cycles {
        if let Err(e) = cursor.run_until(Stop::at_cycle(c)) {
            walked = Err(format!("{}: reference walk: {e}", spec.app.label()));
            break;
        }
        digests.insert(c, cursor.session().sim.state_digest());
    }
    tr.close(walk);
    round.attempted += 1;
    round.ok(walked).map(|()| digests)
}

/// The user's replay: a fresh `Replay` session over the chunk image, run to
/// `ReplayComplete`.
fn straight_replay(tr: &mut Tracer, p: &Prepared, round: &mut Round) {
    let setup = tr.open(SETUP);
    let mut session = p.spec.build(tr, VidiConfig::replay(p.input.clone()), round);
    round.setup_s += tr.close(setup);

    round.attempted += 1;
    let timed = tr.open(TIMED);
    let driven = drive(tr, &mut session);
    round.timed_s += tr.close(timed);
    let Some(d) = round.ok(driven) else {
        return;
    };
    round.ops += 1;
    round.cycles += d.cycles;
    round.cycles_s += d.total_s();
    round.vidi_cycles += d.cycles;
    round.base_cycles += p.base.cycles;
    let layer = &mut round.layer;
    layer.replay = layer.replay.merge(session.sim.stats().into());
    layer.replay_drive_s += d.drive_s;
    layer.replay_packets += p.reference.packets().len() as u64;
    layer.flush_s += d.flush_s;
}

/// Segmented verification of the whole log on [`VERIFY_THREADS`] threads;
/// the verdict must be clean.
fn verify(tr: &mut Tracer, p: &Prepared, round: &mut Round) -> Option<VerifyReport> {
    let factory = verifier_factory(p);
    let verifier = ParallelVerifier::new(factory, &p.log, &p.reference);
    round.attempted += 1;
    let timed = tr.open(TIMED);
    let (report, secs) = tr.time("snap.verify_parallel", || {
        verifier.verify_parallel(VERIFY_THREADS)
    });
    round.timed_s += tr.close(timed);
    round.layer.verify_parallel_s += secs;
    let label = p.spec.app.label();
    let report = round.ok(report.map_err(|e| format!("{label}: verify: {e}")))?;
    if !report.is_clean() {
        round.fail(format!("{label}: verify verdict {:?}", report.verdict));
        return None;
    }
    round.ops += 1;
    Some(report)
}

fn verifier_factory(p: &Prepared) -> impl Fn() -> BuiltApp + Sync {
    let (spec, config) = (p.spec, VidiConfig::replay_record(p.input.clone()));
    move || spec.fresh(config.clone())
}

/// One seek (or reverse step) to `target`: fresh session, nearest
/// checkpoint, roll forward; the state digest must match the straight run.
fn seek(tr: &mut Tracer, p: &Prepared, target: u64, round: &mut Round) {
    round.attempted += 1;
    let timed = tr.open(TIMED);
    let build = tr.open("apps.build");
    let mut session = p.spec.fresh(VidiConfig::replay_record(p.input.clone()));
    let build_s = tr.close(build);
    let (outcome, _) = tr.time("snap.replay_from", || {
        replay_from(&mut session, &p.log, target)
    });
    let secs = tr.close(timed);
    round.timed_s += secs;
    round.layer.seek_build_us.push(build_s * 1e6);
    let label = p.spec.app.label();
    let Some(outcome) = round.ok(outcome.map_err(|e| format!("{label}: seek {target}: {e}")))
    else {
        return;
    };
    let digest = session.sim.state_digest();
    if p.digests.get(&target) != Some(&digest) {
        round.fail(format!(
            "{label}: seek to {target} reached digest {digest:016x}, straight run differs"
        ));
        return;
    }
    round.ops += 1;
    round.latencies_ms.push(secs * 1e3);
    round
        .layer
        .roll_forwards
        .push(outcome.rolled_forward as f64);
}

/// Traced rounds only: `Simulator::snapshot`/`restore` timings mid-replay,
/// and the serial verifier, whose report must equal the parallel one.
fn snap_probe(tr: &mut Tracer, p: &Prepared, parallel: Option<&VerifyReport>, round: &mut Round) {
    let root = tr.open(PROBE);
    let label = p.spec.app.label();
    let mut session = p.spec.fresh(VidiConfig::replay_record(p.input.clone()));
    let stepped = SessionCursor::new(&mut session).step(p.log.final_cycle / 2);
    if round
        .ok(stepped.map_err(|e| format!("{label}: snapshot probe: {e}")))
        .is_some()
    {
        for _ in 0..SNAP_REPEATS {
            let (state, secs) = tr.time("snap.snapshot", || session.sim.snapshot());
            round.layer.snapshot_us.push(secs * 1e6);
            round.layer.state_bytes = round.layer.state_bytes.max(state.len() as u64);
            let mut fresh = p.spec.fresh(VidiConfig::replay_record(p.input.clone()));
            let (restored, secs) = tr.time("snap.restore", || fresh.sim.restore(&state));
            round.layer.restore_us.push(secs * 1e6);
            round.require(
                restored.is_ok() && fresh.sim.state_digest() == session.sim.state_digest(),
                || format!("{label}: restored snapshot does not reproduce its digest"),
            );
        }
    }

    let factory = verifier_factory(p);
    let verifier = ParallelVerifier::new(factory, &p.log, &p.reference);
    let (serial, secs) = tr.time("snap.verify_serial", || verifier.verify_serial());
    round.layer.verify_serial_s += secs;
    round.require(
        matches!((&serial, parallel), (Ok(s), Some(par)) if s == par),
        || format!("{label}: serial and parallel verification disagree"),
    );
    tr.close(root);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seek_targets_stay_in_range_with_seed_independent_roll_forwards() {
        let offsets = |seed, final_cycle| {
            let targets = seek_targets(seed, final_cycle, 25);
            assert_eq!(targets.len(), 25);
            for &c in &targets {
                assert!(c >= 1 && c < final_cycle, "{c} outside [1, {final_cycle})");
            }
            targets
                .iter()
                .map(|c| c % CHECKPOINT_EVERY)
                .collect::<Vec<_>>()
        };
        let long = 400_000;
        let targets = seek_targets(3, long, 25);
        assert!(targets.iter().all(|&c| c <= long / 2));
        assert_eq!(offsets(3, long), offsets(4, long));
        // A 5 x 5 grid: five checkpoints, each with the same five distances.
        let windows: BTreeMap<u64, Vec<u64>> = targets.iter().fold(BTreeMap::new(), |mut m, &c| {
            m.entry(c / CHECKPOINT_EVERY)
                .or_default()
                .push(c % CHECKPOINT_EVERY);
            m
        });
        assert_eq!(windows.len(), 5);
        assert!(windows.values().all(|d| *d == offsets(3, long)[..5]));
        // A trace shorter than one interval spreads over all of it.
        assert_eq!(offsets(3, 900), offsets(4, 900));
        assert_eq!(seek_targets(3, 900, 25), seek_targets(4, 900, 25));
    }
}
