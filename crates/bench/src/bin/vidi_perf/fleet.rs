//! `fleet`: a backlog of clean recordings submitted at once to a `Fleet`.
//! Exercises admission, the credit arbiter and the worker hand-off, which
//! every solo workload bypasses.
//!
//! A fleet session stops on the first 256-cycle slice boundary after its
//! workload ends, so the cycles its report gives, which the fleet's
//! `cycles_per_s` and `trace_bytes_per_cycle` count, include up to 255 idle
//! cycles per session. The simulated overhead instead comes from the solo
//! references, which stop on the exact cycle.

use std::time::{Duration, Instant};

use vidi_fleet::{Fleet, FleetConfig, SessionId, SessionReport, SessionSpec, SessionState};

use crate::metrics::ratio;
use crate::probe;
use crate::session::{record, transparent, Round, Spec, PROBE, SETUP};
use crate::spans::{Tracer, TIMED};

/// Worker threads of the fleet, one per core of a two-core host.
const WORKERS: usize = 2;

/// Leading sessions also run transparent and recorded solo in set-up: their
/// fleet images must be bit-identical to the solo ones, and their solo and
/// transparent cycles give the fleet's `sim_cycles_ratio`.
const SOLO_REFERENCES: usize = 4;

/// Leading sessions a traced round also runs through a one-worker fleet:
/// the solo throughput that `fleet.efficiency` compares the timed fleet to.
const SOLO_SESSIONS: usize = 16;

/// How often a backlog is polled for finished sessions.
const POLL: Duration = Duration::from_millis(1);

fn session_spec(i: usize, spec: &Spec) -> SessionSpec {
    let session = SessionSpec {
        scale: spec.scale,
        ..SessionSpec::record(format!("s{i}"), spec.app, spec.seed)
    };
    match spec.codec {
        Some(codec) => session.with_trace_codec(codec),
        None => session,
    }
}

/// A fleet sized for `sessions`: budget Σ `buffer_bound`, full store
/// bandwidth provisioning (so clean traces match solo runs bit for bit).
fn fleet_for(sessions: &[SessionSpec], workers: usize) -> Fleet {
    Fleet::new(FleetConfig {
        workers,
        memory_budget: sessions.iter().map(SessionSpec::buffer_bound).sum(),
        total_store_bytes_per_cycle: sessions
            .iter()
            .map(|s| u64::from(s.store_bytes_per_cycle))
            .sum(),
        max_sessions: sessions.len(),
        evict_to_admit: false,
    })
}

/// One round: solo and transparent references in set-up, then the whole
/// backlog submitted at t=0 and waited for. Each session's latency is its
/// turnaround from submission to a terminal state.
pub fn round(tr: &mut Tracer, specs: &[Spec]) -> Round {
    let mut round = Round::default();
    let mut solo = Vec::new();
    for (i, spec) in specs.iter().take(SOLO_REFERENCES).enumerate() {
        tr.set_session(i as u64);
        let base = transparent(tr, spec, &mut round);
        let rec = record(tr, spec, SETUP, &mut round);
        if let (Some(base), Some(rec)) = (base, &rec) {
            round.layer.record_path_s += rec.drive.drive_s - base.drive_s;
            round.vidi_cycles += rec.drive.cycles;
            round.base_cycles += base.cycles;
        }
        solo.push(rec.and_then(|r| r.built.shim.recorded_stream_image()));
    }

    let sessions: Vec<SessionSpec> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| session_spec(i, s))
        .collect();
    let setup = tr.open(SETUP);
    let fleet = fleet_for(&sessions, WORKERS);
    round.setup_s += tr.close(setup);

    tr.set_session(u64::MAX);
    let timed = tr.open(TIMED);
    let (ids, turnaround) = backlog(tr, &fleet, &sessions, &mut round);
    let wall = tr.close(timed);
    round.timed_s += wall;
    round.cycles_s += wall;
    round.latencies_ms.extend(turnaround);

    for (_, report) in reports(&fleet, &ids, &mut round) {
        round.ops += 1;
        round.cycles += report.cycles;
        round.trace_bytes += report.bytes_written;
        round.trace_cycles += report.cycles;
    }
    for (&(i, id), image) in ids.iter().zip(&solo) {
        let fleet_image = fleet.fetch_trace(id).map(|p| p.bytes);
        round.require(
            image.is_some() && fleet_image.as_ref() == image.as_ref(),
            || format!("s{i}: fleet trace image differs from its solo recording"),
        );
    }
    let st = fleet.stats();
    round.layer.fleet_peak_reserved = st.peak_reserved;
    round.layer.fleet_sum_peak_buffered = st.sum_peak_buffered;
    round.layer.fleet_cycles_per_s = ratio(round.cycles as f64, wall);
    drop(fleet);

    if tr.keeping() {
        probe::trace_layer(tr, &mut round);
        let root = tr.open(PROBE);
        let firsts = &sessions[..SOLO_SESSIONS.min(sessions.len())];
        let fleet = fleet_for(firsts, 1);
        let start = Instant::now();
        let (ids, _) = backlog(tr, &fleet, firsts, &mut round);
        let wall = start.elapsed().as_secs_f64();
        let cycles: u64 = reports(&fleet, &ids, &mut round)
            .iter()
            .map(|(_, r)| r.cycles)
            .sum();
        round.layer.fleet_solo_cycles_per_s = ratio(cycles as f64, wall);
        drop(fleet);
        tr.close(root);
    }
    round
}

/// Submits every session at once and waits until all are terminal.
/// Returns the admitted sessions and each completion's time since the
/// first submission, in milliseconds.
fn backlog(
    tr: &mut Tracer,
    fleet: &Fleet,
    sessions: &[SessionSpec],
    round: &mut Round,
) -> (Vec<(usize, SessionId)>, Vec<f64>) {
    let start = Instant::now();
    let mut ids = Vec::with_capacity(sessions.len());
    for (i, s) in sessions.iter().enumerate() {
        let (submitted, secs) = tr.time("fleet.submit", || fleet.submit(s.clone()));
        round.layer.submit_us.push(secs * 1e6);
        round.attempted += 1;
        if let Some(id) = round.ok(submitted.map_err(|e| format!("s{i}: admission: {e}"))) {
            ids.push((i, id));
        }
    }
    let wait = tr.open("fleet.wait_all");
    let mut done_ms = Vec::with_capacity(ids.len());
    loop {
        let st = fleet.stats();
        let done = st.completed + st.failed + st.evicted;
        while done_ms.len() < done {
            done_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        if done >= ids.len() {
            break;
        }
        std::thread::sleep(POLL);
    }
    fleet.wait_all();
    tr.close(wait);
    (ids, done_ms)
}

/// The reports of the sessions that completed; any other end is a failure.
fn reports(
    fleet: &Fleet,
    ids: &[(usize, SessionId)],
    round: &mut Round,
) -> Vec<(usize, SessionReport)> {
    let mut out = Vec::with_capacity(ids.len());
    for &(i, id) in ids {
        match fleet.state_of(id) {
            Some(SessionState::Completed(report)) => out.push((i, report)),
            other => round.fail(format!("s{i}: ended {other:?}")),
        }
    }
    out
}
