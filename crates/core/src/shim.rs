//! The Vidi shim: installing record/replay around an application (§3, §4.1).
//!
//! The shim is the deployment unit of Vidi: given the set of channels an
//! FPGA application exposes at its I/O boundary, [`VidiShim::install`]
//! interposes a channel monitor on every channel, instantiates the trace
//! engine, and (in replay modes) attaches channel replayers to the
//! environment side — all without touching the application itself, exactly
//! like the paper's drop-in F1 shell shim.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use vidi_chan::{Channel, Direction};
use vidi_hwsim::{SignalId, Simulator};
use vidi_trace::{ChannelInfo, ChunkIoError, ChunkSink, Trace, TraceLayout};

use crate::config::{VidiConfig, VidiMode};
use crate::engine::{ReplayHandle, StatsHandle, VidiEngine, VidiStats};
use crate::faults::FaultInjection;
use crate::monitor::{ChannelMonitor, MonitorMode};
use crate::port::EncoderPort;
use crate::store::RecordHandle;

/// An error installing the shim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShimError {
    /// A replay trace's channel layout does not match the design's channels.
    LayoutMismatch {
        /// The layout recorded in the trace.
        expected: String,
        /// The layout derived from the design.
        actual: String,
    },
    /// The replay trace image failed certification down to the header —
    /// its chunk backend errored or the stream is corrupt before the
    /// layout could even be read.
    BadReplayTrace(
        /// The underlying trace error.
        String,
    ),
}

impl fmt::Display for ShimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShimError::LayoutMismatch { expected, actual } => write!(
                f,
                "replay trace layout {expected} does not match design layout {actual}"
            ),
            ShimError::BadReplayTrace(e) => {
                write!(f, "replay trace image is unreadable: {e}")
            }
        }
    }
}

impl Error for ShimError {}

/// Progress of an in-flight replay, in cycle packets.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct ReplayProgress {
    /// Packets dispatched to the channel replayers so far.
    pub dispatched: usize,
    /// Total packets in the replayed trace.
    pub total: usize,
}

impl fmt::Display for ReplayProgress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.dispatched, self.total)
    }
}

/// An installed Vidi shim: handles for driving the environment side and for
/// collecting results.
#[derive(Debug)]
pub struct VidiShim {
    layout: Arc<TraceLayout>,
    env_channels: Vec<Channel>,
    record: Option<RecordHandle>,
    replay: Option<ReplayHandle>,
    stats: Option<StatsHandle>,
    record_enable: Option<SignalId>,
}

impl VidiShim {
    /// Interposes Vidi on every `(app_side_channel, direction)` pair.
    ///
    /// For each channel a new environment-side channel is allocated; the
    /// external environment (CPU model, or Vidi's replayers) connects there,
    /// while the application keeps its original channel. Channel order
    /// defines the trace layout and must therefore be identical between a
    /// recording run and its replays.
    ///
    /// # Errors
    ///
    /// Returns [`ShimError::LayoutMismatch`] when a replayed trace was
    /// recorded over a different channel layout.
    pub fn install(
        sim: &mut Simulator,
        app_channels: &[(Channel, Direction)],
        config: VidiConfig,
    ) -> Result<VidiShim, ShimError> {
        Self::install_with_faults(sim, app_channels, config, FaultInjection::none())
    }

    /// [`install`](VidiShim::install), plus deterministic fault injection:
    /// the hooks in `faults` are wired into the engine's cores (storage
    /// writes, store/fetch bandwidth, encoder stall storms). Harnesses use
    /// this to test how a deployment degrades under storage failures and
    /// back-pressure; production installs pass
    /// [`FaultInjection::none`] via [`install`](VidiShim::install).
    ///
    /// # Errors
    ///
    /// Returns [`ShimError::LayoutMismatch`] when a replayed trace was
    /// recorded over a different channel layout.
    pub fn install_with_faults(
        sim: &mut Simulator,
        app_channels: &[(Channel, Direction)],
        config: VidiConfig,
        faults: FaultInjection,
    ) -> Result<VidiShim, ShimError> {
        // One shared layout allocation for the shim, encoder, and store.
        let layout = Arc::new(TraceLayout::new(
            app_channels
                .iter()
                .map(|(ch, dir)| ChannelInfo {
                    name: ch.name().to_string(),
                    width: ch.width(),
                    direction: *dir,
                })
                .collect(),
        ));

        // Open the replay source over the shared chunk image and validate
        // its layout against the design's up front. Opening certifies the
        // image's framed words in one bounded-memory pass.
        let replay_source = match &config.mode {
            VidiMode::Replay(input)
            | VidiMode::ReplayRecord(input)
            | VidiMode::ReplayOrderless(input) => {
                let source = input
                    .open(config.trace_chunk_words)
                    .map_err(|e| ShimError::BadReplayTrace(e.to_string()))?;
                if source.layout() != layout.as_ref() {
                    return Err(ShimError::LayoutMismatch {
                        expected: format!("{:?}", source.layout()),
                        actual: format!("{layout:?}"),
                    });
                }
                Some(source)
            }
            VidiMode::Transparent | VidiMode::Record => None,
        };

        let monitor_mode = if config.mode.records() {
            MonitorMode::Record
        } else {
            MonitorMode::Transparent
        };
        let record_output_content = config.record_output_content
            || matches!(
                config.mode,
                VidiMode::ReplayRecord(_) | VidiMode::ReplayOrderless(_)
            );

        // Runtime record-enable line (§4.2), high by default so recording
        // runs cover the whole execution unless the harness gates it.
        let record_enable = if config.mode.records() {
            let line = sim.pool_mut().add("vidi.record_enable", 1);
            sim.pool_mut().set_bool(line, true);
            Some(line)
        } else {
            None
        };

        // Environment-side channels, encoder ports, and monitors.
        let mut env_channels = Vec::with_capacity(app_channels.len());
        let mut env_with_dir = Vec::with_capacity(app_channels.len());
        let mut ports = Vec::with_capacity(app_channels.len());
        for (app_ch, dir) in app_channels {
            let env_ch = Channel::new(
                sim.pool_mut(),
                format!("env.{}", app_ch.name()),
                app_ch.width(),
            );
            let port = EncoderPort::new(sim.pool_mut(), app_ch.name(), app_ch.width());
            let mut monitor = ChannelMonitor::new(
                *dir,
                env_ch.clone(),
                app_ch.clone(),
                port,
                monitor_mode,
                record_output_content,
            );
            if let Some(line) = record_enable {
                monitor.set_record_enable(line);
            }
            sim.add_component(monitor);
            env_with_dir.push((env_ch.clone(), *dir));
            env_channels.push(env_ch);
            ports.push(port);
        }

        // The engine: recording path, replay path, or both (R3).
        let (engine, record, stats) = VidiEngine::recording(
            Arc::clone(&layout),
            ports,
            config.fifo_capacity,
            record_output_content,
            config.store_bytes_per_cycle,
            config.trace_chunk_words,
            config.trace_codec,
        );
        let (engine, record, stats) = if config.mode.records() {
            (engine, Some(record), Some(stats))
        } else {
            (engine.without_recording(), None, None)
        };
        let orderless = matches!(config.mode, VidiMode::ReplayOrderless(_));
        let (mut engine, replay) = match replay_source {
            Some(source) => {
                let (engine, handle) = engine.with_replay(
                    source,
                    env_with_dir,
                    config.fetch_bytes_per_cycle,
                    orderless,
                );
                (engine, Some(handle))
            }
            None => (engine, None),
        };
        engine.set_stall_budget(config.stall_budget);
        engine.apply_faults(faults);
        sim.add_component(engine);

        Ok(VidiShim {
            layout,
            env_channels,
            record,
            replay,
            stats,
            record_enable,
        })
    }

    /// The trace layout induced by the design's channels.
    pub fn layout(&self) -> &TraceLayout {
        &self.layout
    }

    /// Enables or disables recording at runtime (§4.2's runtime library:
    /// "enable and disable record/replay around the invocation of each
    /// FPGA-side application"). Transactions already in flight finish being
    /// recorded; new transactions pass through unrecorded while disabled.
    /// No-op in non-recording modes.
    pub fn set_recording(&self, sim: &mut Simulator, enable: bool) {
        if let Some(line) = self.record_enable {
            sim.pool_mut().set_bool(line, enable);
        }
    }

    /// The environment-side channels, in layout order. In non-replay modes
    /// the harness's CPU/environment model drives these.
    pub fn env_channels(&self) -> &[Channel] {
        &self.env_channels
    }

    /// The environment-side channel for a named application channel.
    pub fn env_channel(&self, name: &str) -> Option<&Channel> {
        self.layout.index_of(name).map(|i| &self.env_channels[i])
    }

    /// The trace recorded so far, materialized from the streaming sink's
    /// in-memory chunk image. `None` in non-recording modes and for
    /// recordings redirected to an external backend with
    /// [`stream_to`](VidiShim::stream_to) — reopen the external store with
    /// a [`vidi_trace::TraceSource`] instead.
    pub fn recorded_trace(&self) -> Option<Trace> {
        self.record.as_ref().and_then(|r| r.borrow().trace())
    }

    /// The framed chunk-stream image recorded so far (flushed chunks plus a
    /// certified image of the staged tail), exactly as a finalized backend
    /// would hold it — compressed when the run records through a block
    /// codec. `None` in non-recording modes and for recordings redirected
    /// to an external backend. Feed it to
    /// [`ReplayInput::from_chunks`](crate::ReplayInput::from_chunks) to
    /// replay without materializing the trace.
    pub fn recorded_stream_image(&self) -> Option<Vec<u8>> {
        self.record.as_ref().and_then(|r| r.borrow().stream_image())
    }

    /// Number of cycle packets committed to the recorded trace so far — an
    /// O(1) cursor for callers that probe recording progress every cycle,
    /// such as `vidi-snap`'s divergence-cycle search.
    pub fn recorded_packet_count(&self) -> usize {
        self.record.as_ref().map_or(0, |r| {
            usize::try_from(r.borrow().packet_count()).unwrap_or(usize::MAX)
        })
    }

    /// Per-channel completed-transaction (end-event) counts of the trace
    /// recorded so far, in layout order — maintained incrementally by the
    /// store, so this is O(channels), not O(packets).
    pub fn recorded_transaction_counts(&self) -> Vec<u64> {
        self.record.as_ref().map_or_else(
            || vec![0u64; self.layout.len()],
            |r| r.borrow().transaction_counts(),
        )
    }

    /// Redirects the recording's chunk flushes to an external backend
    /// (e.g. a file sink), so the trace streams out of the process instead
    /// of accumulating in memory. Must be called right after install,
    /// before any chunk has been flushed.
    ///
    /// # Errors
    ///
    /// Returns a [`ChunkIoError`] in non-recording modes or once chunks
    /// have already been flushed to the previous backend.
    pub fn stream_to(&self, backend: Box<dyn ChunkSink>) -> Result<(), ChunkIoError> {
        let Some(rec) = &self.record else {
            return Err(ChunkIoError::Permanent(
                "shim is not recording; nothing to stream".into(),
            ));
        };
        rec.borrow_mut().stream_to(backend)
    }

    /// Seals and flushes everything the recording has staged, including
    /// the final partial chunk. Call once at the end of a recording run,
    /// before reading the backend's bytes as a complete stream. No-op in
    /// non-recording modes.
    ///
    /// # Errors
    ///
    /// Returns a [`ChunkIoError`] if the backend rejects a flush; the
    /// unflushed chunks stay buffered and the call can be retried.
    pub fn finalize_recording(&self) -> Result<(), ChunkIoError> {
        match &self.record {
            Some(rec) => rec.borrow_mut().finalize(),
            None => Ok(()),
        }
    }

    /// Raw trace body bytes written to storage so far.
    pub fn recorded_bytes(&self) -> u64 {
        self.record.as_ref().map_or(0, |r| r.borrow().body_bytes)
    }

    /// Cycle packets shed by lossy degradation so far (always 0 without a
    /// [`VidiConfig::stall_budget`]).
    pub fn dropped_packets(&self) -> u64 {
        self.record
            .as_ref()
            .map_or(0, |r| r.borrow().dropped_packets)
    }

    /// Transient storage-write failures absorbed by retry so far.
    pub fn write_retries(&self) -> u64 {
        self.record.as_ref().map_or(0, |r| r.borrow().write_retries)
    }

    /// Whether a replay has dispatched every packet and drained every
    /// replayer. `false` in non-replay modes.
    pub fn replay_complete(&self) -> bool {
        self.replay.as_ref().is_some_and(|r| r.borrow().complete)
    }

    /// Channels whose replayers are stalled (diagnostics).
    pub fn replay_stalled(&self) -> Vec<String> {
        self.replay
            .as_ref()
            .map(|r| r.borrow().stalled.clone())
            .unwrap_or_default()
    }

    /// Progress of the in-progress replay, in cycle packets. All-zero in
    /// non-replay modes.
    pub fn replay_progress(&self) -> ReplayProgress {
        self.replay.as_ref().map_or(ReplayProgress::default(), |r| {
            let s = r.borrow();
            ReplayProgress {
                dispatched: s.dispatched,
                total: s.total,
            }
        })
    }

    /// Engine statistics snapshot (zeroes in transparent mode). The
    /// streaming counters (`peak_buffered_bytes`, `chunks_flushed`) come
    /// from the record handle and witness the bounded-memory property of
    /// the chunked trace path.
    pub fn stats(&self) -> VidiStats {
        let mut stats = self
            .stats
            .as_ref()
            .map(|s| {
                let s = s.borrow();
                VidiStats {
                    backpressure_cycles: s.backpressure_cycles,
                    events_logged: s.events_logged,
                    peak_buffered_bytes: 0,
                    chunks_flushed: 0,
                    bytes_written: 0,
                }
            })
            .unwrap_or_default();
        if let Some(rec) = &self.record {
            let run = rec.borrow();
            stats.peak_buffered_bytes = run.peak_buffered_bytes();
            stats.chunks_flushed = run.chunks_flushed();
            stats.bytes_written = run.bytes_written();
        }
        stats
    }
}
