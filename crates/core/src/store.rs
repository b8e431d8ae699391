//! The trace store core (§3.3).
//!
//! During recording the store drains cycle packets from the encoder FIFO
//! into a streaming [`TraceSink`], which packs them into CRC-framed 64-byte
//! storage words and flushes fixed-size chunks to a [`RecordBackend`]
//! (CPU-side DRAM over PCIe on F1, a file, or host storage) subject to a
//! sustained-bandwidth budget. Buffering on the FPGA side is bounded at
//! O(chunk size) regardless of trace length; the sink's per-chunk trailers
//! make every flushed prefix independently recoverable. Size accounting and
//! progress counters are shared with the harness through [`RecordHandle`].

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use vidi_hwsim::{StateError, StateReader, StateWriter};
use vidi_trace::{
    recover_trace, storage_bytes, ChunkIoError, ChunkSink, CyclePacket, SinkParts, Trace,
    TraceLayout, TraceSink,
};

use crate::encoder::EncoderCore;
use crate::faults::{BandwidthHook, CreditHook, StoreWriteHook, StoreWriteOutcome};

/// Where the trace store's flushed chunks go.
pub enum RecordBackend {
    /// The default in-memory image: flushed chunks accumulate in a buffer
    /// the harness can snapshot, recover, and replay from directly.
    Memory(Vec<u8>),
    /// An external chunk sink (file, host storage): chunks leave the
    /// process as they flush and the recording never materializes in
    /// memory. [`RecordedRun::trace`] returns `None` for external backends.
    External(Box<dyn ChunkSink>),
}

impl ChunkSink for RecordBackend {
    fn put_chunk(&mut self, seq: u64, bytes: &[u8]) -> Result<(), ChunkIoError> {
        match self {
            RecordBackend::Memory(buf) => buf.put_chunk(seq, bytes),
            RecordBackend::External(sink) => sink.put_chunk(seq, bytes),
        }
    }
}

impl std::fmt::Debug for RecordBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordBackend::Memory(buf) => write!(f, "Memory({} bytes)", buf.len()),
            RecordBackend::External(_) => write!(f, "External(..)"),
        }
    }
}

/// The accumulating result of a recording run.
pub struct RecordedRun {
    /// The streaming sink every recorded packet goes through.
    sink: TraceSink<RecordBackend>,
    /// Per-channel completed-transaction (end-event) counts, layout order.
    txn_counts: Vec<u64>,
    /// Raw trace body bytes written to storage.
    pub body_bytes: u64,
    /// Cycle packets dropped by the lossy-degradation path (see
    /// [`VidiConfig::stall_budget`](crate::VidiConfig::stall_budget)).
    /// Always zero in the default lossless configuration.
    pub dropped_packets: u64,
    /// Transient storage-write failures absorbed by retry-with-backoff.
    pub write_retries: u64,
}

impl RecordedRun {
    /// The 64-byte-aligned storage footprint (§3.3).
    pub fn storage_footprint(&self) -> u64 {
        storage_bytes(self.body_bytes)
    }

    /// Materializes the trace recorded so far.
    ///
    /// For the in-memory backend this decodes the flushed chunks plus the
    /// sink's sealed-but-unflushed tail, so it reflects every packet staged
    /// up to this instant. Returns `None` for external backends, whose
    /// chunks have already left the process — reopen the external store
    /// with a `TraceSource` instead.
    pub fn trace(&self) -> Option<Trace> {
        self.stream_image()
            .and_then(|bytes| recover_trace(&bytes).ok().map(|r| r.trace))
    }

    /// The framed stream image recorded so far: flushed chunks plus the
    /// sink's sealed tail — exactly the bytes a `TraceSource` (or
    /// [`ReplayInput::from_chunks`](crate::ReplayInput)) would read. `None`
    /// for external backends. Unlike [`RecordedRun::trace`] this preserves
    /// the stream's codec framing instead of materializing packets.
    pub fn stream_image(&self) -> Option<Vec<u8>> {
        match self.sink.backend() {
            RecordBackend::Memory(flushed) => {
                let mut bytes = flushed.clone();
                bytes.extend_from_slice(&self.sink.unflushed_tail_image());
                Some(bytes)
            }
            RecordBackend::External(_) => None,
        }
    }

    /// Number of cycle packets committed to the recording so far (O(1)).
    pub fn packet_count(&self) -> u64 {
        self.sink.packets()
    }

    /// Total framed stream bytes produced by the sink (flushed plus
    /// buffered framing) — the storage-bandwidth numerator. Reflects
    /// compression: under a block codec this is the *compressed* stream
    /// length, while [`body_bytes`](RecordedRun::body_bytes) stays the raw
    /// packet byte count, so `body_bytes / bytes_written` is the ratio.
    pub fn bytes_written(&self) -> u64 {
        self.sink.bytes_written()
    }

    /// The block codec this recording compresses with.
    pub fn codec(&self) -> vidi_trace::CodecId {
        self.sink.codec()
    }

    /// Per-channel completed-transaction counts so far, layout order (O(n)
    /// in channels, not packets).
    pub fn transaction_counts(&self) -> Vec<u64> {
        self.txn_counts.clone()
    }

    /// High-water mark of bytes buffered in the sink awaiting flush.
    pub fn peak_buffered_bytes(&self) -> u64 {
        self.sink.peak_buffered_bytes() as u64
    }

    /// Chunks flushed to the backend so far.
    pub fn chunks_flushed(&self) -> u64 {
        self.sink.chunks_flushed()
    }

    /// Bytes flushed to the backend so far.
    pub fn flushed_bytes(&self) -> u64 {
        self.sink.flushed_bytes()
    }

    /// Redirects all chunk flushes to an external backend. Only legal
    /// before the first chunk has been flushed (i.e. right after install).
    ///
    /// # Errors
    ///
    /// Returns a [`ChunkIoError`] if chunks were already flushed to the
    /// previous backend — a stream cannot change storage mid-flight.
    pub fn stream_to(&mut self, backend: Box<dyn ChunkSink>) -> Result<(), ChunkIoError> {
        if self.sink.chunks_flushed() > 0 {
            return Err(ChunkIoError::Permanent(
                "cannot redirect a recording whose chunks were already flushed".into(),
            ));
        }
        self.sink.swap_backend(RecordBackend::External(backend));
        Ok(())
    }

    /// Seals and flushes everything staged, including the final partial
    /// chunk. Call once at the end of a recording run before handing the
    /// backend's bytes to a reader that expects a complete stream.
    ///
    /// # Errors
    ///
    /// Returns a [`ChunkIoError`] if the backend rejects a flush; the
    /// unflushed chunks stay buffered and the call can be retried.
    pub fn finalize(&mut self) -> Result<(), ChunkIoError> {
        self.sink.finalize()
    }
}

impl std::fmt::Debug for RecordedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordedRun")
            .field("packets", &self.sink.packets())
            .field("body_bytes", &self.body_bytes)
            .field("chunks_flushed", &self.sink.chunks_flushed())
            .field("dropped_packets", &self.dropped_packets)
            .field("write_retries", &self.write_retries)
            .field("backend", self.sink.backend())
            .finish()
    }
}

/// Shared handle through which the harness reads a recording's results.
pub type RecordHandle = Rc<RefCell<RecordedRun>>;

/// Backoff before the first storage-write retry, in cycles; doubles per
/// consecutive failure up to [`RETRY_BACKOFF_CAP`].
const RETRY_BACKOFF_BASE: u64 = 4;
const RETRY_BACKOFF_CAP: u64 = 256;

/// The store's registered core, embedded in the Vidi engine.
pub struct StoreCore {
    layout: Arc<TraceLayout>,
    record_output_content: bool,
    handle: RecordHandle,
    bytes_per_cycle: u32,
    /// Accumulated write-bandwidth credit, in bytes.
    credit: u64,
    /// Cap on accumulated credit so idle periods cannot bank unbounded
    /// burst bandwidth (PCIe posting buffers are finite).
    credit_cap: u64,
    /// Cycles ticked so far (the key for bandwidth fault hooks).
    cycle: u64,
    /// Successful chunk flushes so far (the key for write fault hooks).
    ops: u64,
    /// Failed attempts on the current front chunk.
    attempt: u32,
    /// Cycles left before the next flush attempt after a transient failure.
    retry_backoff: u64,
    /// Lossy degradation: once the encoder's cumulative back-pressure
    /// exceeds this budget, packets the bandwidth cannot cover are dropped
    /// (and counted) instead of stalling the application.
    stall_budget: Option<u64>,
    write_hook: Option<StoreWriteHook>,
    bandwidth_hook: Option<BandwidthHook>,
    /// Multi-tenant arbitration: gates each cycle's credit accrual through
    /// an external grant decision (see [`CreditHook`]). Absent in the
    /// single-tenant configuration, where the full request is granted.
    credit_hook: Option<CreditHook>,
}

impl StoreCore {
    /// Creates a store streaming a trace with the given layout into an
    /// in-memory backend, flushing in chunks of `chunk_words` storage words
    /// and compressing packet blocks under `codec`
    /// ([`CodecId::Raw`](vidi_trace::CodecId::Raw) reproduces the legacy
    /// uncompressed stream byte-for-byte).
    pub fn new(
        layout: Arc<TraceLayout>,
        record_output_content: bool,
        bytes_per_cycle: u32,
        chunk_words: usize,
        codec: vidi_trace::CodecId,
    ) -> (Self, RecordHandle) {
        let sink = TraceSink::with_codec(
            RecordBackend::Memory(Vec::new()),
            layout.as_ref(),
            record_output_content,
            chunk_words,
            codec,
        );
        let handle = Rc::new(RefCell::new(RecordedRun {
            sink,
            txn_counts: vec![0; layout.len()],
            body_bytes: 0,
            dropped_packets: 0,
            write_retries: 0,
        }));
        let store = StoreCore {
            layout,
            record_output_content,
            handle: Rc::clone(&handle),
            bytes_per_cycle,
            credit: 0,
            // The cap bounds how much idle bandwidth can be banked for a
            // burst, but must always admit the largest possible cycle
            // packet or a slow store could wedge forever.
            credit_cap: ((bytes_per_cycle as u64).max(1) * 16).max(8192),
            cycle: 0,
            ops: 0,
            attempt: 0,
            retry_backoff: 0,
            stall_budget: None,
            write_hook: None,
            bandwidth_hook: None,
            credit_hook: None,
        };
        (store, handle)
    }

    /// Arms lossy degradation with a cumulative back-pressure budget.
    pub fn set_stall_budget(&mut self, budget: Option<u64>) {
        self.stall_budget = budget;
    }

    /// Installs a per-flush fault hook (storage failures).
    pub fn set_write_hook(&mut self, hook: StoreWriteHook) {
        self.write_hook = Some(hook);
    }

    /// Installs a per-cycle bandwidth divisor hook (bandwidth collapse).
    pub fn set_bandwidth_hook(&mut self, hook: BandwidthHook) {
        self.bandwidth_hook = Some(hook);
    }

    /// Installs a per-cycle credit grant hook (multi-session arbitration).
    /// Unlike the fault hooks this one is called exactly once per tick, so
    /// a stateful arbiter (deficit round-robin) is a legal implementation.
    pub fn set_credit_hook(&mut self, hook: CreditHook) {
        self.credit_hook = Some(hook);
    }

    /// The layout fingerprint embedded in checkpoints: the encoding of an
    /// empty trace over this store's layout, which pins both the channel
    /// layout and the content mode.
    fn layout_fingerprint(&self) -> Vec<u8> {
        Trace::new(self.layout.as_ref().clone(), self.record_output_content).encode()
    }

    /// Serializes the drain-side counters, the sink's framing state, and
    /// the in-memory chunk image for a checkpoint. Fault hooks are
    /// deterministic functions of the serialized `cycle`/`ops`/`attempt`
    /// position and are re-installed at build time. Recordings streaming to
    /// an external backend serialize a marker instead of the image and
    /// cannot be restored from — external chunks live outside the process.
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.credit);
        w.u64(self.cycle);
        w.u64(self.ops);
        w.u32(self.attempt);
        w.u64(self.retry_backoff);
        w.bytes(&self.layout_fingerprint());
        let run = self.handle.borrow();
        w.u64(run.body_bytes);
        w.u64(run.dropped_packets);
        w.u64(run.write_retries);
        w.seq(run.txn_counts.iter(), |w, &c| w.u64(c));
        let parts = run.sink.save_parts();
        w.bytes(&parts.pending);
        w.bytes(&parts.sealed);
        w.u64(parts.words_sealed);
        w.u32(parts.packets_complete);
        w.u64(parts.packets);
        w.u64(parts.next_chunk_seq);
        w.u64(parts.chunks_flushed);
        w.u64(parts.flushed_bytes);
        w.u64(parts.peak_buffered);
        w.bool(parts.finished);
        w.bytes(&parts.blk_raw);
        w.u32(parts.blk_packets);
        w.u64(parts.savings);
        w.u8(run.sink.codec() as u8);
        match run.sink.backend() {
            RecordBackend::Memory(flushed) => {
                w.bool(true);
                w.bytes(flushed);
            }
            RecordBackend::External(_) => w.bool(false),
        }
    }

    /// Restores state written by [`StoreCore::save_state`].
    pub(crate) fn load_state(&mut self, r: &mut StateReader) -> Result<(), StateError> {
        let credit = r.u64()?;
        if credit > self.credit_cap {
            return Err(StateError::Mismatch {
                expected: format!("bandwidth credit <= cap {}", self.credit_cap),
                found: format!("{credit}"),
            });
        }
        self.credit = credit;
        self.cycle = r.u64()?;
        self.ops = r.u64()?;
        self.attempt = r.u32()?;
        self.retry_backoff = r.u64()?;
        let fingerprint = r.bytes()?.to_vec();
        if fingerprint != self.layout_fingerprint() {
            return Err(StateError::Mismatch {
                expected: "trace layout matching the store's layout".into(),
                found: "a different channel layout or content mode".into(),
            });
        }
        let body_bytes = r.u64()?;
        let dropped_packets = r.u64()?;
        let write_retries = r.u64()?;
        let txn_counts = r.seq(StateReader::u64)?;
        if txn_counts.len() != self.layout.len() {
            return Err(StateError::Mismatch {
                expected: format!("transaction counts over {} channels", self.layout.len()),
                found: format!("{} channels", txn_counts.len()),
            });
        }
        let parts = SinkParts {
            pending: r.bytes()?.to_vec(),
            sealed: r.bytes()?.to_vec(),
            words_sealed: r.u64()?,
            packets_complete: r.u32()?,
            packets: r.u64()?,
            next_chunk_seq: r.u64()?,
            chunks_flushed: r.u64()?,
            flushed_bytes: r.u64()?,
            peak_buffered: r.u64()?,
            finished: r.bool()?,
            blk_raw: r.bytes()?.to_vec(),
            blk_packets: r.u32()?,
            savings: r.u64()?,
        };
        let codec = r.u8()?;
        if codec != self.handle.borrow().sink.codec() as u8 {
            return Err(StateError::Mismatch {
                expected: format!("trace codec {}", self.handle.borrow().sink.codec() as u8),
                found: format!("trace codec {codec}"),
            });
        }
        let is_memory = r.bool()?;
        if !is_memory {
            return Err(StateError::Mismatch {
                expected: "checkpointable in-memory record backend".into(),
                found: "external chunk backend".into(),
            });
        }
        let flushed = r.bytes()?.to_vec();
        let mut run = self.handle.borrow_mut();
        if !matches!(run.sink.backend(), RecordBackend::Memory(_)) {
            return Err(StateError::Mismatch {
                expected: "in-memory record backend in the restored engine".into(),
                found: "external chunk backend".into(),
            });
        }
        run.sink
            .restore_parts(parts)
            .map_err(|e| StateError::Mismatch {
                expected: "trace sink state a sink could have saved".into(),
                found: e.to_string(),
            })?;
        run.sink.swap_backend(RecordBackend::Memory(flushed));
        run.body_bytes = body_bytes;
        run.dropped_packets = dropped_packets;
        run.write_retries = write_retries;
        run.txn_counts = txn_counts;
        Ok(())
    }

    /// Whether any per-cycle fault or arbitration hook is installed. A
    /// hooked store's behaviour is a function of its cycle/op counters, so
    /// its engine must not elide clock edges.
    pub fn time_sensitive(&self) -> bool {
        self.write_hook.is_some() || self.bandwidth_hook.is_some() || self.credit_hook.is_some()
    }

    /// Replays one elided clock edge: an idle, unhooked tick (nothing
    /// staged, nothing to flush, no retry pending) mutates only the cycle
    /// counter and the saturating credit accrual.
    pub fn tick_elided(&mut self) {
        self.cycle += 1;
        self.credit = (self.credit + self.bytes_per_cycle as u64).min(self.credit_cap);
    }

    /// Clock-edge phase: flushes any full chunks to the backend (honoring
    /// injected storage faults with retry and exponential backoff), then
    /// drains as many packets as the bandwidth budget allows from the
    /// encoder FIFO into the sink's framing. When a stall budget is armed
    /// and exhausted, unaffordable packets are shed (and counted) instead
    /// of stalling the application. Returns whether the edge mutated
    /// anything beyond the cycle counter and credit accrual.
    pub fn tick(&mut self, encoder: &mut EncoderCore) -> bool {
        let wire_len = |p: &CyclePacket| self.handle.borrow().sink.wire_len(p);
        let mut active = false;
        let cycle = self.cycle;
        self.cycle += 1;
        let divisor = self.bandwidth_hook.as_mut().map_or(1, |h| h(cycle).max(1)) as u64;
        // Credit accrual: request this cycle's rate (clipped to headroom
        // under the cap), then let the arbiter — if any — decide how much
        // is actually granted. Without a hook the grant equals the request,
        // which reproduces the historical `min(credit + rate, cap)` update
        // bit-for-bit.
        let want = (self.bytes_per_cycle as u64 / divisor).min(self.credit_cap - self.credit);
        let granted = match self.credit_hook.as_mut() {
            Some(hook) => hook(cycle, want).min(want),
            None => want,
        };
        self.credit += granted;
        let mut flush_blocked = false;
        if self.retry_backoff > 0 {
            self.retry_backoff -= 1;
            active = true;
            flush_blocked = true;
        } else {
            // Push every full chunk out through the fault hook before
            // staging more: the backend sees whole chunks, in order.
            while self.handle.borrow().sink.full_chunks() > 0 {
                active = true;
                let verdict = self
                    .write_hook
                    .as_mut()
                    .map_or(StoreWriteOutcome::Commit, |h| h(self.ops, self.attempt));
                let committed = match verdict {
                    // A backend failure is indistinguishable from an
                    // injected transient: the chunk stays buffered and the
                    // same op retries after backoff.
                    StoreWriteOutcome::Commit => {
                        self.handle.borrow_mut().sink.flush_one().unwrap_or(false)
                    }
                    StoreWriteOutcome::TransientError => false,
                };
                if committed {
                    self.ops += 1;
                    self.attempt = 0;
                } else {
                    self.attempt += 1;
                    self.retry_backoff =
                        (RETRY_BACKOFF_BASE << (self.attempt - 1).min(16)).min(RETRY_BACKOFF_CAP);
                    self.handle.borrow_mut().write_retries += 1;
                    flush_blocked = true;
                    break;
                }
            }
        }
        // Drain the encoder FIFO into the sink's framing. Staging is gated
        // only on bandwidth credit while flushing is healthy — a chunk that
        // fills mid-cycle flushes next tick, so per-tick staging stays
        // bounded by the credit cap. While a flush is backing off, staging
        // stops and back-pressure propagates to the application, exactly as
        // the lossless contract requires.
        if !flush_blocked {
            while let Some(size) = encoder.front().map(wire_len) {
                if self.credit < size {
                    break;
                }
                let Some(packet) = encoder.pop() else { break };
                active = true;
                self.credit -= size;
                let mut run = self.handle.borrow_mut();
                run.body_bytes += size;
                for (i, &ended) in packet.ends.iter().enumerate() {
                    if ended {
                        run.txn_counts[i] += 1;
                    }
                }
                run.sink.stage(&packet);
            }
            // Compression refund: raw bytes the codec saved while sealing
            // blocks this tick return to the credit pool, so the ratio
            // multiplies effective drain bandwidth. Non-zero only when
            // staging sealed a block, so `active` is already set.
            let saved = self.handle.borrow_mut().sink.take_compression_savings();
            if saved > 0 {
                self.credit = (self.credit + saved).min(self.credit_cap);
            }
        }
        // Lossy degradation: once back-pressure has cost more than the
        // configured budget, prefer losing trace packets to stalling the
        // application. Every shed packet is counted — degradation is never
        // silent.
        if let Some(budget) = self.stall_budget {
            if encoder.backpressure_cycles() > budget {
                while let Some(size) = encoder.front().map(wire_len) {
                    if !flush_blocked && self.retry_backoff == 0 && self.credit >= size {
                        break; // affordable; the normal path will write it
                    }
                    if encoder.pop().is_none() {
                        break;
                    }
                    active = true;
                    self.attempt = 0;
                    self.handle.borrow_mut().dropped_packets += 1;
                }
            }
        }
        active
    }
}

impl std::fmt::Debug for StoreCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreCore")
            .field("bytes_per_cycle", &self.bytes_per_cycle)
            .field("credit", &self.credit)
            .field("ops", &self.ops)
            .field("retry_backoff", &self.retry_backoff)
            .field("stall_budget", &self.stall_budget)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vidi_chan::Direction;
    use vidi_trace::{ChannelInfo, CodecId};

    #[test]
    fn restore_refuses_credit_over_the_cap() {
        let layout = Arc::new(TraceLayout::new(vec![ChannelInfo {
            name: "in".into(),
            width: 8,
            direction: Direction::Input,
        }]));
        let (mut store, _) = StoreCore::new(layout, false, 64, 4, CodecId::Raw);
        let mut w = StateWriter::new();
        store.save_state(&mut w);
        let mut blob = w.into_bytes();
        store
            .load_state(&mut StateReader::new(&blob))
            .expect("a saved state restores");
        // The credit is the blob's first field; one byte over the cap would
        // underflow the next tick's headroom `credit_cap - credit`.
        blob[..8].copy_from_slice(&(store.credit_cap + 1).to_le_bytes());
        let err = store
            .load_state(&mut StateReader::new(&blob))
            .expect_err("credit over the cap must be refused");
        assert!(err.to_string().contains("credit"), "{err}");
    }
}
