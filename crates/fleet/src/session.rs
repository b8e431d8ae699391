//! Session descriptions, lifecycle states, and the shared trace image.

use std::fmt;
use std::sync::{Arc, Mutex};

use vidi_apps::{AppId, Scale};
use vidi_core::VidiConfig;
use vidi_faults::FaultSpec;
use vidi_trace::{recover_trace, ChunkIoError, ChunkSink, RecoveredTrace, TraceError};

/// Identifies one session within its fleet. Ids are assigned at admission
/// and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// What a session does: record fresh, or replay a previously recorded
/// image (replay-while-recording, so divergence is detectable and the
/// validation trace is fetchable like any recording).
#[derive(Debug, Clone, PartialEq)]
pub enum SessionMode {
    /// Record the application's boundary traffic.
    Record,
    /// Replay the given framed trace image while re-recording.
    Replay(vidi_core::ReplayInput),
}

/// Everything the fleet needs to run one session. Carries only `Send` data
/// — the simulator itself (which is thread-local by construction) is built
/// on the worker thread that runs the session.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Human-readable session name (status displays, panic attribution).
    pub name: String,
    /// Which catalog application to run.
    pub app: AppId,
    /// Workload sizing.
    pub scale: Scale,
    /// Application seed (host-side jitter, workload data).
    pub seed: u64,
    /// Record or replay.
    pub mode: SessionMode,
    /// Deterministic fault schedule to inject, if any. Kept on the terminal
    /// state for cause attribution.
    pub faults: Option<FaultSpec>,
    /// The session's share of store bandwidth, in bytes per cycle — also
    /// what it requests from the fleet's credit arbiter each cycle.
    pub store_bytes_per_cycle: u32,
    /// Streaming chunk size, in 64-byte storage words. Smaller chunks mean
    /// earlier durability (more of a crashed session's trace survives) at
    /// more flush overhead.
    pub trace_chunk_words: usize,
    /// Per-session lossy degradation budget (see
    /// [`VidiConfig::stall_budget`]). A starved session degrades through
    /// this, its own budget — never by taking a neighbor's credit.
    pub stall_budget: Option<u64>,
    /// Block codec the session records through (see
    /// [`vidi_trace::CodecId`]). Compression multiplies the session's
    /// effective share of the fleet's store bandwidth; its admission
    /// reservation grows by the codec's extra staging buffers (the budget
    /// accounts in bytes actually buffered and written, i.e. compressed
    /// bytes).
    pub trace_codec: vidi_trace::CodecId,
    /// Cycle budget before the session is failed as timed out.
    pub max_cycles: u64,
}

impl SessionSpec {
    /// A recording session with catalog defaults at test scale.
    pub fn record(name: impl Into<String>, app: AppId, seed: u64) -> Self {
        SessionSpec {
            name: name.into(),
            app,
            scale: Scale::Test,
            seed,
            mode: SessionMode::Record,
            faults: None,
            store_bytes_per_cycle: VidiConfig::default().store_bytes_per_cycle,
            trace_chunk_words: vidi_trace::DEFAULT_CHUNK_WORDS,
            stall_budget: None,
            trace_codec: vidi_trace::CodecId::Raw,
            max_cycles: 6_000_000,
        }
    }

    /// A replay session over a previously fetched trace image.
    pub fn replay(
        name: impl Into<String>,
        app: AppId,
        seed: u64,
        input: impl Into<vidi_core::ReplayInput>,
    ) -> Self {
        SessionSpec {
            mode: SessionMode::Replay(input.into()),
            max_cycles: 10_000_000,
            ..SessionSpec::record(name, app, seed)
        }
    }

    /// This spec with a fault schedule attached.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// This spec recording through a trace block codec.
    pub fn with_trace_codec(mut self, codec: vidi_trace::CodecId) -> Self {
        self.trace_codec = codec;
        self
    }

    /// The shim configuration this session runs under.
    pub fn vidi_config(&self) -> VidiConfig {
        let base = match &self.mode {
            SessionMode::Record => VidiConfig::record(),
            SessionMode::Replay(input) => VidiConfig::replay_record(input.clone()),
        };
        VidiConfig {
            store_bytes_per_cycle: self.store_bytes_per_cycle,
            trace_chunk_words: self.trace_chunk_words,
            stall_budget: self.stall_budget,
            trace_codec: self.trace_codec,
            ..base
        }
    }

    /// The memory this session must reserve at admission: the proven bound
    /// on its streaming sink's buffering.
    pub fn buffer_bound(&self) -> u64 {
        self.vidi_config().streaming_buffer_bound()
    }
}

/// Counters describing a finished (or evicted) session's run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionReport {
    /// Cycles simulated before completion/cancellation (excluding the
    /// trace-flush margin).
    pub cycles: u64,
    /// Cycle packets committed to the session's trace image.
    pub packets: u64,
    /// High-water mark of bytes buffered in the session's streaming sink —
    /// must stay at or under the admission reservation.
    pub peak_buffered_bytes: u64,
    /// Chunks flushed to the shared image.
    pub chunks_flushed: u64,
    /// Exact bytes written to the session's trace image — the compressed
    /// length under a block codec, so fleet bandwidth accounting and the
    /// admission budget both see what storage actually carried.
    pub bytes_written: u64,
    /// Packets shed by lossy degradation (always counted, never silent).
    pub dropped_packets: u64,
    /// Transient store-write failures absorbed by in-engine retry.
    pub write_retries: u64,
}

/// Why a session failed. Every variant names the subsystem that was
/// responsible, so a fleet operator can tell a crashed design from rotten
/// storage from a wedged replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The session's simulation panicked; contained by the supervisor's
    /// catch-unwind boundary. Carries the panic message.
    Panicked(String),
    /// The simulator returned a typed error (timeout, component fault,
    /// combinational loop) or exceeded the session's cycle budget.
    Sim(String),
    /// The finalized trace image failed its integrity audit: fewer packets
    /// certify than were recorded. The certified prefix still replays.
    CorruptTrace {
        /// Packets the CRC framing certifies.
        certified: u64,
        /// Packets the recording actually committed.
        recorded: u64,
    },
    /// The application completed but its output check failed.
    BadOutput(String),
    /// A chunk backend refused a flush or finalize.
    Io(String),
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureCause::Panicked(msg) => write!(f, "panicked: {msg}"),
            FailureCause::Sim(msg) => write!(f, "simulation failed: {msg}"),
            FailureCause::CorruptTrace {
                certified,
                recorded,
            } => write!(
                f,
                "trace integrity audit failed: {certified} of {recorded} packets certify"
            ),
            FailureCause::BadOutput(msg) => write!(f, "output check failed: {msg}"),
            FailureCause::Io(msg) => write!(f, "trace I/O failed: {msg}"),
        }
    }
}

/// A failure with its attribution: the cause plus the fault schedule that
/// was injected into the session, if any — so the soak can assert every
/// faulted session fails *because of its own faults*.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionFailure {
    /// What went wrong.
    pub cause: FailureCause,
    /// The fault schedule the session ran under, if any.
    pub injected: Option<FaultSpec>,
}

/// A session's lifecycle state. Terminal states carry the evidence.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionState {
    /// Admitted (budget reserved) but not yet picked up by a worker.
    Queued,
    /// Running on a worker thread.
    Running,
    /// Ran to completion with a passing output check.
    Completed(SessionReport),
    /// Terminally failed, in isolation, with an attributed cause.
    Failed(SessionFailure),
    /// Cancelled by admission-pressure eviction or an explicit request; the
    /// trace flushed so far was finalized into a durable, replayable
    /// prefix.
    Evicted(SessionReport),
}

impl SessionState {
    /// Whether the session has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            SessionState::Completed(_) | SessionState::Failed(_) | SessionState::Evicted(_)
        )
    }

    /// A short state label for status displays.
    pub fn label(&self) -> &'static str {
        match self {
            SessionState::Queued => "queued",
            SessionState::Running => "running",
            SessionState::Completed(_) => "completed",
            SessionState::Failed(_) => "failed",
            SessionState::Evicted(_) => "evicted",
        }
    }
}

/// How a session's run ended when it did not fail (see
/// [`Fleet`](crate::Fleet) worker internals).
#[derive(Debug)]
pub enum RunEnd {
    /// Ran to completion.
    Completed(SessionReport),
    /// Cancelled mid-run; the report covers the prefix that executed.
    Evicted(SessionReport),
}

/// A thread-shared framed-trace image: the fleet-side [`ChunkSink`] every
/// session streams through, and the window through which the API serves
/// trace prefixes of **live** sessions (each flushed chunk becomes visible
/// as soon as the store commits it).
///
/// Lock poisoning is deliberately ignored: a panicking session can never
/// hold this lock mid-write (chunk appends are atomic under the lock), so
/// the bytes are always a valid prefix stream.
#[derive(Debug, Clone, Default)]
pub struct SharedImage(Arc<Mutex<Vec<u8>>>);

impl SharedImage {
    /// An empty image.
    pub fn new() -> Self {
        Self::default()
    }

    /// A point-in-time copy of the image bytes.
    pub fn snapshot(&self) -> Vec<u8> {
        self.lock().clone()
    }

    /// Current image size in bytes.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing has been flushed yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Mutates the image in place (the at-rest corruption hook).
    pub(crate) fn mutate(&self, f: impl FnOnce(&mut Vec<u8>)) {
        f(&mut self.lock());
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<u8>> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl ChunkSink for SharedImage {
    fn put_chunk(&mut self, _seq: u64, bytes: &[u8]) -> Result<(), ChunkIoError> {
        self.lock().extend_from_slice(bytes);
        Ok(())
    }
}

/// A snapshot of a session's trace, certified down to the longest prefix
/// the CRC framing vouches for. Served for live, completed, failed, and
/// evicted sessions alike — a crashed session's partial trace replays to
/// exactly this prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracePrefix {
    /// The raw framed image bytes at snapshot time.
    pub bytes: Vec<u8>,
    /// Packets the framing certifies as complete and intact.
    pub certified_packets: u64,
    /// Whether the image is a complete, finalized recording (no torn tail,
    /// every declared packet certified).
    pub complete: bool,
}

impl TracePrefix {
    /// Builds a prefix from raw image bytes, running prefix recovery to
    /// certify it. An image too short to even hold a header (e.g. a session
    /// that crashed before its first chunk flush) yields an empty prefix.
    pub fn certify(bytes: Vec<u8>) -> Self {
        match recover_trace(&bytes) {
            Ok(r) => TracePrefix {
                certified_packets: r.recovered_packets,
                complete: r.is_complete(),
                bytes,
            },
            Err(_) => TracePrefix {
                certified_packets: 0,
                complete: false,
                bytes,
            },
        }
    }

    /// Decodes the certified prefix into a materialized trace.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when corruption reaches into the header and
    /// nothing is recoverable.
    pub fn recover(&self) -> Result<RecoveredTrace, TraceError> {
        recover_trace(&self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_config_assembly() {
        let spec = SessionSpec {
            store_bytes_per_cycle: 11,
            trace_chunk_words: 16,
            stall_budget: Some(5000),
            ..SessionSpec::record("t", AppId::Dma, 1)
        };
        let cfg = spec.vidi_config();
        assert_eq!(cfg.store_bytes_per_cycle, 11);
        assert_eq!(cfg.trace_chunk_words, 16);
        assert_eq!(cfg.stall_budget, Some(5000));
        assert!(cfg.mode.records() && !cfg.mode.replays());
        assert_eq!(spec.buffer_bound(), cfg.streaming_buffer_bound());

        // Compression threads through to the shim config, and the admission
        // reservation grows to cover the codec's extra staging buffers.
        let compressed = spec.clone().with_trace_codec(vidi_trace::CodecId::XorDict);
        assert_eq!(
            compressed.vidi_config().trace_codec,
            vidi_trace::CodecId::XorDict
        );
        assert!(compressed.buffer_bound() > spec.buffer_bound());
    }

    #[test]
    fn shared_image_appends_in_order() {
        let img = SharedImage::new();
        let mut sink = img.clone();
        sink.put_chunk(0, &[1, 2]).unwrap();
        sink.put_chunk(1, &[3]).unwrap();
        assert_eq!(img.snapshot(), vec![1, 2, 3]);
        assert_eq!(img.len(), 3);
        assert!(!img.is_empty());
    }

    #[test]
    fn empty_prefix_certifies_to_nothing() {
        let p = TracePrefix::certify(Vec::new());
        assert_eq!(p.certified_packets, 0);
        assert!(!p.complete);
    }
}
