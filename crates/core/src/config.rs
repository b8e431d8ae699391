//! Vidi shim configuration (the R1/R2/R3 configurations of §5.1).

use crate::replay_input::ReplayInput;

/// What the shim does with the channels it interposes.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum VidiMode {
    /// R1: recording and replaying disabled; monitors are transparent
    /// combinational passthroughs. This is the baseline configuration.
    #[default]
    Transparent,
    /// R2: record. Input channels undergo coarse-grained input recording;
    /// output channels record end events (plus contents when
    /// [`VidiConfig::record_output_content`] is set).
    Record,
    /// Replay a previously recorded trace; monitors are transparent.
    Replay(ReplayInput),
    /// R3: replay a reference trace while simultaneously re-recording (used
    /// by divergence detection, §3.6). Output contents are always recorded
    /// in this mode.
    ReplayRecord(ReplayInput),
    /// The order-less baseline of §1 (DebugGovernor-style): replay each
    /// channel's recorded contents independently, with **no cross-channel
    /// happens-before enforcement**, while re-recording a validation trace.
    /// Applications whose behaviour depends on transaction ordering produce
    /// wrong outputs under this baseline — the motivating comparison for
    /// transaction determinism.
    ReplayOrderless(ReplayInput),
}

impl VidiMode {
    /// Whether monitors actively record in this mode.
    pub fn records(&self) -> bool {
        matches!(
            self,
            VidiMode::Record | VidiMode::ReplayRecord(_) | VidiMode::ReplayOrderless(_)
        )
    }

    /// Whether replayers drive the environment side in this mode.
    pub fn replays(&self) -> bool {
        matches!(
            self,
            VidiMode::Replay(_) | VidiMode::ReplayRecord(_) | VidiMode::ReplayOrderless(_)
        )
    }
}

/// Configuration of one Vidi shim instance.
#[derive(Clone, Debug, PartialEq)]
pub struct VidiConfig {
    /// Operating mode.
    pub mode: VidiMode,
    /// Record the content of output transactions in addition to their end
    /// events, enabling divergence detection (§3.6). The paper's evaluation
    /// runs with this on (§5.1); it costs extra trace bandwidth.
    pub record_output_content: bool,
    /// Capacity of the trace encoder's cycle-packet FIFO, in packets — the
    /// on-FPGA BRAM staging buffer (§3.3).
    pub fifo_capacity: usize,
    /// Sustained bandwidth of the trace store's path to external storage, in
    /// bytes per cycle. The paper's F1 deployment sees ~5.5 GB/s effective
    /// PCIe bandwidth at a 250 MHz fabric clock — 22 bytes/cycle (§6).
    pub store_bytes_per_cycle: u32,
    /// Bandwidth of trace fetch during replay, in bytes per cycle.
    pub fetch_bytes_per_cycle: u32,
    /// Lossy-degradation stall budget, in cumulative back-pressure cycles.
    /// `None` (the default, and the paper's configuration) never drops an
    /// event: recording back-pressure stalls the application for as long as
    /// it takes. With `Some(budget)`, once back-pressure has cost more than
    /// `budget` cycles the trace store sheds cycle packets it cannot afford
    /// instead of stalling further, counting every drop in
    /// [`RecordedRun::dropped_packets`](crate::RecordedRun::dropped_packets).
    pub stall_budget: Option<u64>,
    /// Deterministic-checkpoint cadence for seekable replay: with
    /// `Some(n)`, a checkpointing harness (see the `vidi-snap` crate)
    /// captures a full simulator snapshot every `n` cycles at cycle
    /// boundaries. `None` (the default) disables checkpointing. The field
    /// is policy only — the shim itself never snapshots; it is consumed by
    /// whatever drives the simulation loop.
    pub checkpoint_every: Option<u64>,
    /// Chunk size of the streaming trace path, in 64-byte storage words.
    /// The trace store flushes to its chunk backend and the replay decoder
    /// reads ahead in units of this many words, which bounds both sides'
    /// buffering at O(chunk size) independent of trace length.
    pub trace_chunk_words: usize,
    /// Block codec the trace store compresses recordings with (see
    /// [`vidi_trace::CodecId`]). [`CodecId::Raw`](vidi_trace::CodecId::Raw)
    /// — the default — is byte-identical to the legacy uncompressed path;
    /// compressed codecs trade encode work for storage bandwidth, and the
    /// store refunds the saved bytes to its bandwidth credit so the
    /// compression ratio multiplies effective drain rate. Replay is
    /// self-configuring: the codec rides in the recorded stream's header.
    pub trace_codec: vidi_trace::CodecId,
}

impl Default for VidiConfig {
    fn default() -> Self {
        VidiConfig {
            mode: VidiMode::Transparent,
            record_output_content: true,
            fifo_capacity: 128,
            store_bytes_per_cycle: 22,
            fetch_bytes_per_cycle: 22,
            stall_budget: None,
            checkpoint_every: None,
            trace_chunk_words: vidi_trace::DEFAULT_CHUNK_WORDS,
            trace_codec: vidi_trace::CodecId::Raw,
        }
    }
}

impl VidiConfig {
    /// The R1 baseline configuration.
    pub fn transparent() -> Self {
        VidiConfig::default()
    }

    /// The R2 recording configuration used throughout §5.
    pub fn record() -> Self {
        VidiConfig {
            mode: VidiMode::Record,
            ..VidiConfig::default()
        }
    }

    /// A plain replay of `trace` without re-recording.
    pub fn replay(trace: impl Into<ReplayInput>) -> Self {
        VidiConfig {
            mode: VidiMode::Replay(trace.into()),
            ..VidiConfig::default()
        }
    }

    /// The R3 replay-while-recording configuration of §3.6.
    pub fn replay_record(trace: impl Into<ReplayInput>) -> Self {
        VidiConfig {
            mode: VidiMode::ReplayRecord(trace.into()),
            ..VidiConfig::default()
        }
    }

    /// The order-less baseline (§1): replay without happens-before
    /// enforcement, re-recording a validation trace for comparison.
    pub fn replay_orderless(trace: impl Into<ReplayInput>) -> Self {
        VidiConfig {
            mode: VidiMode::ReplayOrderless(trace.into()),
            ..VidiConfig::default()
        }
    }

    /// The same configuration with checkpointing armed every `every` cycles.
    pub fn with_checkpoints(mut self, every: u64) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// The same configuration recording through a trace block codec.
    pub fn with_trace_codec(mut self, codec: vidi_trace::CodecId) -> Self {
        self.trace_codec = codec;
        self
    }

    /// Upper bound on the bytes the streaming trace sink may buffer in
    /// memory under this configuration, independent of run length: at most
    /// one chunk of carry-over plus one bandwidth-credit burst of freshly
    /// framed words (framing inflates payload by 64/50; the factor of two
    /// covers it, plus the self-description header and word rounding). CI
    /// gates the recorded
    /// [`peak_buffered_bytes`](crate::VidiStats::peak_buffered_bytes)
    /// high-water mark against this bound — the bounded-memory contract of
    /// the chunked trace path.
    pub fn streaming_buffer_bound(&self) -> u64 {
        let word = vidi_trace::STORAGE_WORD_BYTES as u64;
        let chunk_bytes = self.trace_chunk_words.max(1) as u64 * word;
        // Mirrors the store's credit cap: enough banked bandwidth for a
        // burst, never less than the largest possible cycle packet.
        let credit_cap = (u64::from(self.store_bytes_per_cycle).max(1) * 16).max(8192);
        let raw_bound = chunk_bytes + 2 * credit_cap + 2 * word;
        if self.trace_codec.is_compressed() {
            // A compressed sink additionally buffers the open raw block
            // (about one chunk of payload) and, at the instant a block
            // seals, its framed wire form (at most another chunk's worth
            // given the stored-raw fallback) before the next flush.
            raw_bound + 2 * chunk_bytes + word
        } else {
            raw_bound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vidi_trace::{Trace, TraceLayout};

    #[test]
    fn mode_predicates() {
        let t: ReplayInput = Trace::new(TraceLayout::default(), true).into();
        assert!(!VidiMode::Transparent.records());
        assert!(!VidiMode::Transparent.replays());
        assert!(VidiMode::Record.records());
        assert!(VidiMode::Replay(t.clone()).replays());
        assert!(!VidiMode::Replay(t.clone()).records());
        assert!(VidiMode::ReplayRecord(t.clone()).records());
        assert!(VidiMode::ReplayRecord(t).replays());
    }

    #[test]
    fn presets() {
        assert_eq!(VidiConfig::transparent().mode, VidiMode::Transparent);
        assert_eq!(VidiConfig::record().mode, VidiMode::Record);
        assert_eq!(VidiConfig::default().store_bytes_per_cycle, 22);
    }
}
