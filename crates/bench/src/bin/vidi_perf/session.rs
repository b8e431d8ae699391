//! Session helpers shared by the workloads, and the per-round tallies they
//! fill. Every call into the stack is wrapped in a span here, from the
//! outside; nothing inside the library is instrumented.

use vidi_apps::{build_app, AppId, BuiltApp, Scale};
use vidi_core::drive::FLUSH_MARGIN;
use vidi_core::{SessionCursor, Stop, StopReason, VidiConfig};
use vidi_hwsim::SimStats;
use vidi_trace::{CodecId, Trace};

use crate::spans::{Tracer, TIMED};

/// Cycle budget of any one drive; a session that needs more has hung.
pub const MAX_CYCLES: u64 = vidi_bench::MAX_CYCLES;

/// Root span of set-up work: inputs, baselines and per-session builds.
pub const SETUP: &str = "setup";

/// Root span of the extra measurements a traced run makes outside the
/// timed phase.
pub const PROBE: &str = "probe";

/// One catalog session: which app, which seed, which codec.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The application.
    pub app: AppId,
    /// Workload sizing.
    pub scale: Scale,
    /// Its seed (the run seed plus the session index).
    pub seed: u64,
    /// Block codec the recording writes through; `None` keeps the default
    /// configuration's, so a change of default shows in the benchmark.
    pub codec: Option<CodecId>,
}

impl Spec {
    /// A freshly built session under `config`.
    pub fn fresh(&self, config: VidiConfig) -> BuiltApp {
        build_app(self.app.setup(self.scale, self.seed), config)
    }

    /// [`Spec::fresh`] inside an `apps.build` span, tallied as set-up.
    pub fn build(&self, tr: &mut Tracer, config: VidiConfig, round: &mut Round) -> BuiltApp {
        let (built, secs) = tr.time("apps.build", || self.fresh(config));
        round.layer.builds += 1;
        round.layer.build_s += secs;
        built
    }

    /// The recording configuration of this session.
    pub fn record_config(&self) -> VidiConfig {
        let config = VidiConfig::record();
        match self.codec {
            Some(codec) => config.with_trace_codec(codec),
            None => config,
        }
    }
}

/// What one completed drive measured.
#[derive(Clone, Copy, Debug)]
pub struct Drive {
    /// Workload cycles: the cycle `run_until` stopped at (recording) or the
    /// cycles it advanced (replay). The flush margin is not included.
    pub cycles: u64,
    /// Host seconds in `SessionCursor::run_until`.
    pub drive_s: f64,
    /// Host seconds in the `FLUSH_MARGIN` drain.
    pub flush_s: f64,
}

impl Drive {
    /// Drive plus drain: the denominator of workload cycles per second.
    pub fn total_s(&self) -> f64 {
        self.drive_s + self.flush_s
    }
}

/// Drives `built` to completion — every CPU thread finished when
/// recording, `ReplayComplete` when replaying — then drains the trace
/// store for `FLUSH_MARGIN` cycles.
///
/// # Errors
///
/// A simulator error, or a session that stopped for any other reason.
pub fn drive(tr: &mut Tracer, built: &mut BuiltApp) -> Result<Drive, String> {
    let replaying = built.cpu.is_empty();
    let span = tr.open("core.drive");
    let ev = if replaying {
        SessionCursor::new(built).run_until(Stop::replay_complete().with_budget(MAX_CYCLES))
    } else {
        SessionCursor::new(built).run_until(
            Stop::when(|b: &mut BuiltApp| b.cpu.iter().all(|h| h.borrow().finished))
                .or_at_cycle(MAX_CYCLES)
                .check_every(1),
        )
    };
    let drive_s = tr.close(span);
    let ev = ev.map_err(|e| format!("{}: {e}", built.name))?;
    let want = if replaying {
        StopReason::ReplayComplete
    } else {
        StopReason::PredicateTrue
    };
    if ev.reason != want {
        return Err(format!(
            "{}: stopped by {:?} at cycle {}",
            built.name, ev.reason, ev.cycle
        ));
    }
    let span = tr.open("core.flush");
    let flushed = built.sim.run(FLUSH_MARGIN);
    let flush_s = tr.close(span);
    flushed.map_err(|e| format!("{}: flush: {e}", built.name))?;
    Ok(Drive {
        cycles: if replaying { ev.advanced } else { ev.cycle },
        drive_s,
        flush_s,
    })
}

/// Runs the app's output check.
///
/// # Errors
///
/// The check's message, prefixed with the app.
pub fn check(built: &BuiltApp) -> Result<(), String> {
    (built.check)(&built.host_mem, &built.fpga_dram, &built.cpu)
        .map_err(|e| format!("{}: wrong output: {e}", built.name))
}

/// A finished in-process recording.
pub struct Recording {
    /// Its drive.
    pub drive: Drive,
    /// Stream bytes written (compressed under a block codec).
    pub bytes_written: u64,
    /// The session, drained and checked, for callers that need its image.
    pub built: BuiltApp,
}

/// Records `spec` in-process: builds it in the set-up phase, drives it
/// under a root span named `root` ([`TIMED`] or [`SETUP`]), checks its
/// output, and tallies its counters. Counts one attempted operation.
pub fn record(
    tr: &mut Tracer,
    spec: &Spec,
    root: &'static str,
    round: &mut Round,
) -> Option<Recording> {
    let setup = tr.open(SETUP);
    let mut built = spec.build(tr, spec.record_config(), round);
    round.setup_s += tr.close(setup);

    round.attempted += 1;
    let span = tr.open(root);
    let driven = drive(tr, &mut built);
    let secs = tr.close(span);
    if root == TIMED {
        round.timed_s += secs;
    } else {
        round.setup_s += secs;
    }
    let outcome = driven.and_then(|d| check(&built).map(|()| d));
    let drive = round.ok(outcome)?;

    let stats = built.shim.stats();
    let layer = &mut round.layer;
    layer.rec = layer.rec.merge(built.sim.stats().into());
    layer.backpressure_cycles += stats.backpressure_cycles;
    layer.chunks_flushed += stats.chunks_flushed;
    layer.peak_buffered_bytes = layer.peak_buffered_bytes.max(stats.peak_buffered_bytes);
    if root == TIMED {
        layer.flush_s += drive.flush_s;
    }
    if tr.keeping() {
        if let Some(trace) = built.shim.recorded_trace() {
            layer.traces.push(trace);
        }
    }
    Some(Recording {
        drive,
        bytes_written: stats.bytes_written,
        built,
    })
}

/// Runs `spec` without Vidi (`VidiConfig::transparent()`) in the set-up
/// phase: the baseline for simulated overhead and host throughput.
/// Counts one attempted operation.
pub fn transparent(tr: &mut Tracer, spec: &Spec, round: &mut Round) -> Option<Drive> {
    let setup = tr.open(SETUP);
    let mut built = spec.build(tr, VidiConfig::transparent(), round);
    let driven = drive(tr, &mut built);
    round.setup_s += tr.close(setup);
    round.attempted += 1;
    let drive = round.ok(driven.and_then(|d| check(&built).map(|()| d)))?;
    round.layer.base_cycles += drive.cycles;
    round.layer.base_s += drive.total_s();
    Some(drive)
}

/// Summed scheduler counters of a group of sessions.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimSum {
    /// Cycles simulated, flush margin included.
    pub cycles: u64,
    /// Component evals.
    pub evals: u64,
    /// Settle passes.
    pub settle_passes: u64,
    /// Clock edges skipped as quiescent.
    pub tick_skips: u64,
    /// Compiled-schedule deopts.
    pub deopts: u64,
}

impl From<&SimStats> for SimSum {
    fn from(s: &SimStats) -> Self {
        SimSum {
            cycles: s.cycles,
            evals: s.evals,
            settle_passes: s.settle_passes,
            tick_skips: s.tick_skips,
            deopts: s.deopts,
        }
    }
}

impl SimSum {
    /// The sum of two groups.
    pub fn merge(self, o: SimSum) -> SimSum {
        SimSum {
            cycles: self.cycles + o.cycles,
            evals: self.evals + o.evals,
            settle_passes: self.settle_passes + o.settle_passes,
            tick_skips: self.tick_skips + o.tick_skips,
            deopts: self.deopts + o.deopts,
        }
    }
}

/// Per-layer tallies of one round. Counters that a workload never touches
/// stay zero.
#[derive(Default)]
pub struct Layer {
    /// In-process recordings' scheduler counters.
    pub rec: SimSum,
    /// Record drive time minus transparent drive time, summed over the
    /// sessions run both ways.
    pub record_path_s: f64,
    /// Transparent baselines' workload cycles.
    pub base_cycles: u64,
    /// Transparent baselines' drive plus drain time.
    pub base_s: f64,
    /// `FLUSH_MARGIN` drains in the timed phase.
    pub flush_s: f64,
    /// Store back-pressure cycles over the in-process recordings.
    pub backpressure_cycles: u64,
    /// Chunks flushed over the in-process recordings.
    pub chunks_flushed: u64,
    /// Largest sink high-water mark of any in-process recording.
    pub peak_buffered_bytes: u64,
    /// Replays' scheduler counters.
    pub replay: SimSum,
    /// Replays' drive time.
    pub replay_drive_s: f64,
    /// Packets the replays consumed.
    pub replay_packets: u64,
    /// `build_app` calls and their host time.
    pub builds: u64,
    /// Host seconds in `build_app`.
    pub build_s: f64,
    /// Recorded traces, kept by traced rounds for the trace-layer probe.
    pub traces: Vec<Trace>,
    /// Trace probe: `[raw, xor-dict]` sink seconds, source seconds and
    /// encoded bytes, over `probe_packets` packets each.
    pub sink_s: [f64; 2],
    /// See [`Layer::sink_s`].
    pub source_s: [f64; 2],
    /// See [`Layer::sink_s`].
    pub probe_bytes: [u64; 2],
    /// Packets pushed through each probe sink.
    pub probe_packets: u64,
    /// `Simulator::snapshot` and `restore` times, microseconds.
    pub snapshot_us: Vec<f64>,
    /// See [`Layer::snapshot_us`].
    pub restore_us: Vec<f64>,
    /// Size of one snapshot.
    pub state_bytes: u64,
    /// `build_app` time of each seek or reverse step, microseconds.
    pub seek_build_us: Vec<f64>,
    /// Cycles each seek or reverse step rolled forward.
    pub roll_forwards: Vec<f64>,
    /// `checkpointed_replay` time.
    pub index_s: f64,
    /// `verify_serial` and `verify_parallel` time.
    pub verify_serial_s: f64,
    /// See [`Layer::verify_serial_s`].
    pub verify_parallel_s: f64,
    /// `Fleet::submit` latencies, microseconds.
    pub submit_us: Vec<f64>,
    /// Fleet ledger high-water mark.
    pub fleet_peak_reserved: u64,
    /// Σ per-session sink high-water marks in the fleet.
    pub fleet_sum_peak_buffered: u64,
    /// Fleet workload cycles per host second.
    pub fleet_cycles_per_s: f64,
    /// The same on the leading sessions through one worker (traced rounds).
    pub fleet_solo_cycles_per_s: f64,
}

/// Everything one round measured.
#[derive(Default)]
pub struct Round {
    /// Host seconds of set-up work.
    pub setup_s: f64,
    /// Host seconds of the timed phase.
    pub timed_s: f64,
    /// Operations completed in the timed phase.
    pub ops: u64,
    /// Workload cycles of the throughput phase and its host seconds.
    pub cycles: u64,
    /// See [`Round::cycles`].
    pub cycles_s: f64,
    /// Latency of each timed operation, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Trace bytes and the workload cycles they cover.
    pub trace_bytes: u64,
    /// See [`Round::trace_bytes`].
    pub trace_cycles: u64,
    /// Simulated cycles with Vidi, against the same sessions without it.
    pub vidi_cycles: u64,
    /// See [`Round::vidi_cycles`].
    pub base_cycles: u64,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// See [`Round::attempted`].
    pub failed: u64,
    /// What failed, for the report.
    pub errors: Vec<String>,
    /// Per-layer tallies.
    pub layer: Layer,
}

impl Round {
    /// Passes a success through; counts and records a failure.
    pub fn ok<T>(&mut self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    /// A check that counts as one operation of its own.
    pub fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.fail(what());
        }
    }
}
