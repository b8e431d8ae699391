//! Streaming trace I/O — the canonical encode/decode path (§3.3).
//!
//! Vidi's trace store streams cycle packets to CPU DRAM under back-pressure;
//! recordings are bounded by storage, not by memory. This module is the
//! software analogue: [`TraceSink`] accepts cycle packets, packs them into
//! the CRC-framed 64-byte storage words of
//! [`store_format`](crate::store_format), and hands fixed-size **chunks** to
//! a [`ChunkSink`] backend as they fill, so the writer never buffers more
//! than one chunk window regardless of run length. [`TraceSource`] is the
//! pull side: it certifies the framed stream word by word in one bounded
//! pass, then decodes cycle packets through a bounded readahead window
//! refilled chunk by chunk — a trace larger than RAM replays fine.
//!
//! # Block codecs
//!
//! A sink opened with [`TraceSink::with_codec`] compresses packets through
//! the crate's block codec (the `codec` module) *under* the CRC framing:
//! packets accumulate into a raw block about one chunk of payload long, the
//! block is encoded, and the encoded bytes are framed like any other payload
//! behind a 13-byte block header (`codec, n_packets, raw_len, enc_len`, all
//! little-endian).
//! A block that fails to shrink is stored raw (header codec byte 0), so a
//! compressed stream is never pathologically larger than raw plus the block
//! headers. The negotiated codec rides in the stream header (format
//! version 2), so [`TraceSource::open`] is self-configuring and raw traces
//! remain byte-identical version-1 streams.
//!
//! Durability contract: every sealed word carries its own CRC, sequence
//! number, and cumulative complete-packet count, so a torn tail (a chunk
//! that never reached the backend, a partial write, a bit flip at rest)
//! degrades to the longest certified prefix — exactly the
//! [`recover_trace`] guarantee, which is itself implemented over
//! [`TraceSource`]. Under a codec the trailer count only advances when a
//! whole block has been staged, so the certified prefix never ends
//! mid-block and recovery needs no codec-specific resync.

use std::fmt;
use std::sync::Arc;

use crate::codec::{self, CodecId};
use crate::error::TraceError;
use crate::layout::TraceLayout;
use crate::packet::CyclePacket;
use crate::shape::{encode_packet_into, PacketShape};
use crate::store_format::{FrameChecker, FrameWriter, FRAME_PAYLOAD_BYTES, STORAGE_WORD_BYTES};
use crate::trace::{decode_header, encode_header_into, Cursor, Trace};

/// Default chunk size in 64-byte storage words (4 KiB chunks).
pub const DEFAULT_CHUNK_WORDS: usize = 64;

/// Packet count written into a streaming header before the final count is
/// known. A reader treats it as "trust the frame trailers".
pub(crate) const STREAMING_PACKET_COUNT: u64 = u64::MAX;

/// Bytes of the per-block header framed ahead of each encoded block:
/// `[codec u8][n_packets u32][raw_len u32][enc_len u32]`, little-endian.
pub(crate) const BLOCK_HEADER_BYTES: usize = 13;

/// Upper bound a reader accepts for one block's decoded size — a sanity cap
/// against corrupt-but-CRC-clean headers asking for absurd allocations.
const MAX_BLOCK_RAW_BYTES: usize = 1 << 28;

/// An I/O failure in a chunk backend, split by whether retrying can help.
///
/// Retry lives in a wrapper around a backend (`vidi_host::RetryPolicy`):
/// it retries [`Transient`](ChunkIoError::Transient) failures with backoff
/// and fails [`Permanent`](ChunkIoError::Permanent) ones at once. An error
/// surfacing from a [`TraceSink`] is one the caller must handle; the chunk
/// stays buffered and the flush can be retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkIoError {
    /// The operation may succeed if retried (timeout, interruption,
    /// momentary back-pressure).
    Transient(String),
    /// The operation will not succeed no matter how often it is retried.
    Permanent(String),
}

impl ChunkIoError {
    /// Whether a retry could help.
    pub fn is_transient(&self) -> bool {
        matches!(self, ChunkIoError::Transient(_))
    }
}

impl fmt::Display for ChunkIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkIoError::Transient(m) => write!(f, "transient chunk I/O error: {m}"),
            ChunkIoError::Permanent(m) => write!(f, "chunk I/O error: {m}"),
        }
    }
}

impl std::error::Error for ChunkIoError {}

/// Receives framed chunks from a [`TraceSink`], in order.
///
/// Every call except possibly the last delivers exactly `chunk_words * 64`
/// bytes; the final call (from [`TraceSink::finalize`]) may be shorter.
/// `seq` is the zero-based chunk index, for backends that write
/// positionally.
pub trait ChunkSink {
    /// Persists one chunk.
    ///
    /// # Errors
    ///
    /// Returns [`ChunkIoError`] if the chunk could not be made durable; the
    /// sink keeps the chunk buffered and the caller may retry.
    fn put_chunk(&mut self, seq: u64, bytes: &[u8]) -> Result<(), ChunkIoError>;
}

impl ChunkSink for Vec<u8> {
    fn put_chunk(&mut self, _seq: u64, bytes: &[u8]) -> Result<(), ChunkIoError> {
        self.extend_from_slice(bytes);
        Ok(())
    }
}

impl<S: ChunkSink + ?Sized> ChunkSink for Box<S> {
    fn put_chunk(&mut self, seq: u64, bytes: &[u8]) -> Result<(), ChunkIoError> {
        (**self).put_chunk(seq, bytes)
    }
}

/// Random-access byte storage holding a framed trace stream.
///
/// Methods take `&self` so one immutable image can back many concurrent
/// [`TraceSource`]s (see [`SharedChunks`]) — the parallel-verify workers
/// each open their own source over the same storage instead of cloning
/// packets.
pub trait ChunkSource {
    /// Total stored bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ChunkIoError`] if the backend cannot be sized.
    fn byte_len(&self) -> Result<u64, ChunkIoError>;

    /// Reads up to `buf.len()` bytes at `offset`, returning the count read
    /// (0 at end of storage).
    ///
    /// # Errors
    ///
    /// Returns [`ChunkIoError`] on backend failure.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize, ChunkIoError>;
}

impl ChunkSource for [u8] {
    fn byte_len(&self) -> Result<u64, ChunkIoError> {
        Ok(self.len() as u64)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize, ChunkIoError> {
        let start = (offset.min(self.len() as u64)) as usize;
        let n = buf.len().min(self.len() - start);
        buf[..n].copy_from_slice(&self[start..start + n]);
        Ok(n)
    }
}

impl ChunkSource for Vec<u8> {
    fn byte_len(&self) -> Result<u64, ChunkIoError> {
        self.as_slice().byte_len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize, ChunkIoError> {
        self.as_slice().read_at(offset, buf)
    }
}

impl<T: ChunkSource + ?Sized> ChunkSource for &T {
    fn byte_len(&self) -> Result<u64, ChunkIoError> {
        (**self).byte_len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize, ChunkIoError> {
        (**self).read_at(offset, buf)
    }
}

impl<T: ChunkSource + ?Sized> ChunkSource for Arc<T> {
    fn byte_len(&self) -> Result<u64, ChunkIoError> {
        (**self).byte_len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize, ChunkIoError> {
        (**self).read_at(offset, buf)
    }
}

/// An immutable framed-trace image shareable across threads; the storage
/// behind independent [`TraceSource`]s.
pub type SharedChunks = Arc<dyn ChunkSource + Send + Sync>;

/// Encodes one raw packet block into its framed wire form: the 13-byte block
/// header plus the encoded payload. Falls back to storing the block raw
/// (header codec byte 0) when the codec fails to shrink it, so compression
/// never expands the stream beyond the per-block header overhead.
fn block_wire_bytes(codec: CodecId, shape: &PacketShape, raw: &[u8], n_packets: u32) -> Vec<u8> {
    let enc = codec::encode_block(shape, raw, n_packets)
        .expect("sink-staged packets always parse under the sink's own shape");
    let (wire_codec, payload) = if enc.len() < raw.len() {
        (codec as u8, enc)
    } else {
        (CodecId::Raw as u8, raw.to_vec())
    };
    let mut out = Vec::with_capacity(BLOCK_HEADER_BYTES + payload.len());
    out.push(wire_codec);
    out.extend_from_slice(&n_packets.to_le_bytes());
    let raw_len = u32::try_from(raw.len()).expect("block raw size fits u32");
    let enc_len = u32::try_from(payload.len()).expect("block payload size fits u32");
    out.extend_from_slice(&raw_len.to_le_bytes());
    out.extend_from_slice(&enc_len.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Streams cycle packets into CRC-framed storage words, flushing fixed-size
/// chunks to a [`ChunkSink`] backend.
///
/// Words are sealed by a [`FrameWriter`] (so a packet ending exactly on a
/// word boundary is counted in that word's trailer), and
/// [`Trace::encode_framed`] is built on this sink. Under a block codec
/// ([`TraceSink::with_codec`]) packets accumulate into a raw block first and
/// the trailer count advances only when the whole block is staged. The sink
/// buffers at most the open chunk plus one raw block plus whatever a caller
/// stages between flushes —
/// [`peak_buffered_bytes`](TraceSink::peak_buffered_bytes) reports the
/// high-water mark so harnesses can assert the O(chunk) bound.
#[derive(Debug)]
pub struct TraceSink<W: ChunkSink> {
    backend: W,
    chunk_bytes: usize,
    codec: CodecId,
    shape: PacketShape,
    /// Raw packet bytes of the open (not yet encoded) block.
    blk_raw: Vec<u8>,
    /// Packets in the open block.
    blk_packets: u32,
    /// Raw bytes at which the open block seals — about one chunk of payload.
    blk_target: usize,
    /// Cumulative raw-minus-wire bytes saved by compression, until
    /// [`take_compression_savings`](TraceSink::take_compression_savings).
    savings: u64,
    /// The framer: the open word, sealed words not yet flushed to the
    /// backend, and the trailer counters.
    frames: FrameWriter,
    packets: u64,
    next_chunk_seq: u64,
    chunks_flushed: u64,
    flushed_bytes: u64,
    peak_buffered: usize,
    finished: bool,
}

impl<W: ChunkSink> TraceSink<W> {
    /// Opens a streaming sink: the header is staged immediately with a
    /// sentinel packet count, so readers rely on the per-word trailers for
    /// the certified count.
    pub fn new(
        backend: W,
        layout: &TraceLayout,
        record_output_content: bool,
        chunk_words: usize,
    ) -> Self {
        Self::with_declared(
            backend,
            layout,
            record_output_content,
            STREAMING_PACKET_COUNT,
            chunk_words,
        )
    }

    /// Opens a sink whose header declares an exact packet count (the
    /// whole-trace [`encode_framed`](crate::Trace::encode_framed) path).
    pub fn with_declared(
        backend: W,
        layout: &TraceLayout,
        record_output_content: bool,
        declared_packets: u64,
        chunk_words: usize,
    ) -> Self {
        Self::with_codec_declared(
            backend,
            layout,
            record_output_content,
            declared_packets,
            chunk_words,
            CodecId::Raw,
        )
    }

    /// Opens a streaming sink that compresses packet blocks under `codec`.
    /// With [`CodecId::Raw`] this is exactly [`TraceSink::new`].
    pub fn with_codec(
        backend: W,
        layout: &TraceLayout,
        record_output_content: bool,
        chunk_words: usize,
        codec: CodecId,
    ) -> Self {
        Self::with_codec_declared(
            backend,
            layout,
            record_output_content,
            STREAMING_PACKET_COUNT,
            chunk_words,
            codec,
        )
    }

    /// Opens a sink with both a declared packet count and a block codec —
    /// the fully general constructor the other three delegate to.
    pub fn with_codec_declared(
        backend: W,
        layout: &TraceLayout,
        record_output_content: bool,
        declared_packets: u64,
        chunk_words: usize,
        codec: CodecId,
    ) -> Self {
        let chunk_bytes = chunk_words.max(1) * STORAGE_WORD_BYTES;
        let mut sink = TraceSink {
            backend,
            chunk_bytes,
            codec,
            shape: PacketShape::new(layout, record_output_content),
            blk_raw: Vec::new(),
            blk_packets: 0,
            blk_target: (chunk_bytes / STORAGE_WORD_BYTES) * FRAME_PAYLOAD_BYTES,
            savings: 0,
            frames: FrameWriter::new(),
            packets: 0,
            next_chunk_seq: 0,
            chunks_flushed: 0,
            flushed_bytes: 0,
            peak_buffered: 0,
            finished: false,
        };
        let mut header = Vec::new();
        encode_header_into(
            &mut header,
            layout,
            record_output_content,
            declared_packets,
            codec,
        );
        sink.push_bytes(&header);
        sink
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        self.frames.push_bytes(bytes);
        self.peak_buffered = self.peak_buffered.max(self.buffered_bytes());
    }

    /// Encodes and frames the open block, if non-empty. The trailer packet
    /// count bumps only after the whole block is staged, so certified
    /// prefixes never end mid-block.
    fn seal_block(&mut self) {
        if self.blk_packets == 0 {
            return;
        }
        let raw = std::mem::take(&mut self.blk_raw);
        let n = self.blk_packets;
        self.blk_packets = 0;
        let wire = block_wire_bytes(self.codec, &self.shape, &raw, n);
        self.savings += (raw.len() as u64).saturating_sub(wire.len() as u64);
        self.push_bytes(&wire);
        self.frames.mark_packets(n);
    }

    /// Stages one cycle packet into the framing without flushing.
    ///
    /// # Panics
    ///
    /// Panics if the sink was already [`finalize`](TraceSink::finalize)d.
    pub fn stage(&mut self, packet: &CyclePacket) {
        assert!(!self.finished, "stage after finalize");
        if self.codec == CodecId::Raw {
            let mut buf = Vec::new();
            encode_packet_into(&mut buf, packet);
            self.push_bytes(&buf);
            self.frames.mark_packets(1);
        } else {
            encode_packet_into(&mut self.blk_raw, packet);
            self.blk_packets = self.blk_packets.saturating_add(1);
            if self.blk_raw.len() >= self.blk_target {
                self.seal_block();
            }
            self.peak_buffered = self.peak_buffered.max(self.buffered_bytes());
        }
        self.packets += 1;
    }

    /// Full chunks currently buffered and ready to flush.
    pub fn full_chunks(&self) -> usize {
        self.frames.sealed.len() / self.chunk_bytes
    }

    /// Flushes one full chunk to the backend, if one is buffered.
    ///
    /// # Errors
    ///
    /// Returns the backend's [`ChunkIoError`]; the chunk stays buffered and
    /// the call can be retried.
    pub fn flush_one(&mut self) -> Result<bool, ChunkIoError> {
        let sealed = &mut self.frames.sealed;
        if sealed.len() < self.chunk_bytes {
            return Ok(false);
        }
        self.backend
            .put_chunk(self.next_chunk_seq, &sealed[..self.chunk_bytes])?;
        sealed.drain(..self.chunk_bytes);
        self.next_chunk_seq += 1;
        self.chunks_flushed += 1;
        self.flushed_bytes += self.chunk_bytes as u64;
        Ok(true)
    }

    /// Flushes every full chunk currently buffered.
    ///
    /// # Errors
    ///
    /// Returns the first backend error; already-flushed chunks stay flushed.
    pub fn flush_full(&mut self) -> Result<(), ChunkIoError> {
        while self.flush_one()? {}
        Ok(())
    }

    /// Stages one packet and flushes any chunks it filled.
    ///
    /// # Errors
    ///
    /// Returns the backend's [`ChunkIoError`] (the packet is staged either
    /// way).
    pub fn push(&mut self, packet: &CyclePacket) -> Result<(), ChunkIoError> {
        self.stage(packet);
        self.flush_full()
    }

    /// Seals the open block and the open word, then flushes everything,
    /// including a final partial chunk. Idempotent.
    ///
    /// # Errors
    ///
    /// Returns the backend's [`ChunkIoError`]; retrying resumes where the
    /// failure left off.
    pub fn finalize(&mut self) -> Result<(), ChunkIoError> {
        if !self.finished {
            self.seal_block();
            self.frames.seal_partial();
            self.finished = true;
        }
        self.flush_full()?;
        let sealed = &mut self.frames.sealed;
        if !sealed.is_empty() {
            self.backend.put_chunk(self.next_chunk_seq, sealed)?;
            self.next_chunk_seq += 1;
            self.chunks_flushed += 1;
            self.flushed_bytes += sealed.len() as u64;
            sealed.clear();
        }
        Ok(())
    }

    /// Finalizes and returns the backend.
    ///
    /// # Errors
    ///
    /// Returns the backend's [`ChunkIoError`] from the final flush.
    pub fn finish(mut self) -> Result<W, ChunkIoError> {
        self.finalize()?;
        Ok(self.backend)
    }

    /// A sealed image of everything staged but not yet flushed: the
    /// buffered sealed words, the open block (encoded and framed as if
    /// sealed now), and a copy-sealed open word. Appending this to the bytes
    /// already flushed yields a valid framed stream certifying every staged
    /// packet — how an in-memory recording materializes a
    /// [`Trace`](crate::Trace) mid-run without disturbing the sink.
    pub fn unflushed_tail_image(&self) -> Vec<u8> {
        let mut tail = self.frames.clone();
        if self.blk_packets > 0 {
            tail.push_bytes(&block_wire_bytes(
                self.codec,
                &self.shape,
                &self.blk_raw,
                self.blk_packets,
            ));
            tail.mark_packets(self.blk_packets);
        }
        tail.finish()
    }

    /// Bytes currently buffered (sealed-but-unflushed, the open word, and
    /// the open raw block).
    pub fn buffered_bytes(&self) -> usize {
        self.frames.buffered_bytes() + self.blk_raw.len()
    }

    /// High-water mark of [`buffered_bytes`](TraceSink::buffered_bytes).
    pub fn peak_buffered_bytes(&self) -> usize {
        self.peak_buffered
    }

    /// Chunks handed to the backend so far.
    pub fn chunks_flushed(&self) -> u64 {
        self.chunks_flushed
    }

    /// Bytes handed to the backend so far.
    pub fn flushed_bytes(&self) -> u64 {
        self.flushed_bytes
    }

    /// Total framed-stream bytes produced so far: flushed plus buffered
    /// framing (the open raw block is excluded until it seals). After
    /// [`finalize`](TraceSink::finalize) this is the exact stream length —
    /// the numerator of the bytes-per-cycle storage-bandwidth metric.
    pub fn bytes_written(&self) -> u64 {
        self.flushed_bytes + self.frames.buffered_bytes() as u64
    }

    /// The block codec this sink encodes with.
    pub fn codec(&self) -> CodecId {
        self.codec
    }

    /// Bytes `packet` occupies in this stream's raw packet encoding — what
    /// [`stage`](TraceSink::stage) adds to the trace body.
    pub fn wire_len(&self, packet: &CyclePacket) -> u64 {
        self.shape.wire_len(packet)
    }

    /// Raw-minus-wire bytes saved by compression since the last call, then
    /// resets the counter. The store's bandwidth-credit loop refunds these
    /// bytes so compression ratio multiplies effective drain bandwidth.
    pub fn take_compression_savings(&mut self) -> u64 {
        std::mem::take(&mut self.savings)
    }

    /// Cycle packets staged so far.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// The backend.
    pub fn backend(&self) -> &W {
        &self.backend
    }

    /// Replaces the backend, returning the old one. Only meaningful before
    /// the first flush (the caller is responsible for not splitting a
    /// stream across backends).
    pub fn swap_backend(&mut self, backend: W) -> W {
        std::mem::replace(&mut self.backend, backend)
    }

    /// Serializes the sink's framing state (not the backend) for a
    /// checkpoint. Pairs with [`restore_parts`](TraceSink::restore_parts).
    pub fn save_parts(&self) -> SinkParts {
        SinkParts {
            pending: self.frames.pending.clone(),
            sealed: self.frames.sealed.clone(),
            words_sealed: self.frames.words_sealed,
            packets_complete: self.frames.packets_complete,
            packets: self.packets,
            next_chunk_seq: self.next_chunk_seq,
            chunks_flushed: self.chunks_flushed,
            flushed_bytes: self.flushed_bytes,
            peak_buffered: self.peak_buffered as u64,
            finished: self.finished,
            blk_raw: self.blk_raw.clone(),
            blk_packets: self.blk_packets,
            savings: self.savings,
        }
    }

    /// Restores framing state captured by [`TraceSink::save_parts`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadSinkParts`], leaving the sink untouched,
    /// if `parts` break an invariant every saved sink keeps: the open word
    /// holds at most [`FRAME_PAYLOAD_BYTES`], the sealed buffer holds whole
    /// storage words, and an open block parses under this sink's codec.
    pub fn restore_parts(&mut self, parts: SinkParts) -> Result<(), TraceError> {
        let bad = |detail: String| Err(TraceError::BadSinkParts(detail));
        if parts.pending.len() > FRAME_PAYLOAD_BYTES {
            return bad(format!(
                "open word holds {} payload bytes, more than {FRAME_PAYLOAD_BYTES}",
                parts.pending.len()
            ));
        }
        if !parts.sealed.len().is_multiple_of(STORAGE_WORD_BYTES) {
            return bad(format!(
                "{} sealed bytes are not whole {STORAGE_WORD_BYTES}-byte words",
                parts.sealed.len()
            ));
        }
        let open_block = parts.blk_packets > 0 || !parts.blk_raw.is_empty();
        if open_block
            && (self.codec == CodecId::Raw
                || self
                    .shape
                    .walk(&parts.blk_raw, parts.blk_packets, |_| {})
                    .is_err())
        {
            return bad(format!(
                "open block of {} packets does not parse under codec {}",
                parts.blk_packets,
                self.codec.name()
            ));
        }
        self.frames = FrameWriter {
            pending: parts.pending,
            sealed: parts.sealed,
            words_sealed: parts.words_sealed,
            packets_complete: parts.packets_complete,
        };
        self.packets = parts.packets;
        self.next_chunk_seq = parts.next_chunk_seq;
        self.chunks_flushed = parts.chunks_flushed;
        self.flushed_bytes = parts.flushed_bytes;
        self.peak_buffered = parts.peak_buffered as usize;
        self.finished = parts.finished;
        self.blk_raw = parts.blk_raw;
        self.blk_packets = parts.blk_packets;
        self.savings = parts.savings;
        Ok(())
    }
}

/// A [`TraceSink`]'s framing state, detached from its backend — what a
/// checkpoint needs to rebuild an in-progress recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkParts {
    /// Open-word payload.
    pub pending: Vec<u8>,
    /// Sealed-but-unflushed words.
    pub sealed: Vec<u8>,
    /// Words sealed so far.
    pub words_sealed: u64,
    /// Trailer packet counter.
    pub packets_complete: u32,
    /// Packets staged.
    pub packets: u64,
    /// Next chunk sequence number.
    pub next_chunk_seq: u64,
    /// Chunks flushed.
    pub chunks_flushed: u64,
    /// Bytes flushed.
    pub flushed_bytes: u64,
    /// Peak buffered bytes.
    pub peak_buffered: u64,
    /// Whether the sink was finalized.
    pub finished: bool,
    /// Raw packet bytes of the open block (empty for raw sinks).
    pub blk_raw: Vec<u8>,
    /// Packets in the open block.
    pub blk_packets: u32,
    /// Unclaimed compression savings.
    pub savings: u64,
}

/// A resumable read position in a [`TraceSource`]: a payload byte offset
/// plus the number of packets already read. What a checkpoint stores so a
/// seek can resume mid-stream without re-decoding the prefix.
///
/// Positions are codec- and chunk-size-stamped: for a compressed stream
/// `payload_offset` addresses the containing *block* header (with
/// `base_packets` counting the packets before that block), so
/// [`TraceSource::seek`] can land on the block boundary and re-decode
/// forward. Handing a position to a source with a different codec or chunk
/// size is a typed error ([`TraceError::SeekMismatch`]), never a garbage
/// decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SourcePos {
    /// Absolute offset into the certified payload byte stream. Under a
    /// block codec this is the containing block's header offset.
    pub payload_offset: u64,
    /// Packets decoded before this position.
    pub packets_read: u64,
    /// Packets decoded before the block at `payload_offset`; equals
    /// `packets_read` for raw streams and block boundaries.
    pub base_packets: u64,
    /// Wire id of the codec that minted this position.
    pub codec: u8,
    /// Chunk size (in storage words) of the source that minted this
    /// position.
    pub chunk_words: u32,
}

/// Pull-based chunked decoder over a framed trace stream.
///
/// `open` makes one bounded-memory certification pass (every word through
/// the [`FrameChecker`], as [`recover_frames`](crate::recover_frames)
/// does), parses the self-describing header (including the negotiated
/// block codec), and records how many packets the frame trailers certify.
/// `next_packet` then decodes through a bounded window — raw streams read
/// ahead one chunk at a time; compressed streams decode one block at a time
/// — so memory stays O(chunk + block) however long the trace is.
pub struct TraceSource<R: ChunkSource> {
    backend: R,
    chunk_words: usize,
    layout: TraceLayout,
    record_output_content: bool,
    codec: CodecId,
    shape: PacketShape,
    header_sentinel: bool,
    header_len: u64,
    declared_packets: u64,
    certified_packets: u64,
    certified_payload_len: u64,
    certified_words: u64,
    first_corrupt_word: Option<usize>,
    total_words: usize,
    pos: u64,
    packets_read: u64,
    win: Vec<u8>,
    win_start: u64,
    /// Decoded raw bytes of the current block (block-codec streams only).
    blk: Vec<u8>,
    /// Read cursor within `blk`.
    blk_pos: usize,
    /// Payload offset of the current block's header.
    blk_start: u64,
    /// Packets decoded before the current block.
    blk_base: u64,
    /// Packets in the current block (0 = no block loaded).
    blk_n: u32,
    /// Payload offset of the next block's header.
    blk_next: u64,
}

impl<R: ChunkSource> fmt::Debug for TraceSource<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSource")
            .field("channels", &self.layout.len())
            .field("codec", &self.codec)
            .field("certified_packets", &self.certified_packets)
            .field("declared_packets", &self.declared_packets)
            .field("packets_read", &self.packets_read)
            .field("first_corrupt_word", &self.first_corrupt_word)
            .finish()
    }
}

impl<R: ChunkSource> TraceSource<R> {
    /// Opens a framed trace stream: certifies the frames in one pass and
    /// parses the header.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the backend fails, the corruption
    /// reaches into the self-description header (leaving nothing to
    /// decode), or the header names a codec this build does not know.
    pub fn open(backend: R, chunk_words: usize) -> Result<Self, TraceError> {
        let chunk_words = chunk_words.max(1);
        let total_bytes = backend.byte_len().map_err(io_error)?;
        let total_words = total_bytes.div_ceil(STORAGE_WORD_BYTES as u64) as usize;
        let mut buf = vec![0u8; chunk_words * STORAGE_WORD_BYTES];
        let mut word = 0u64;
        let mut certified_words = 0u64;
        let mut certified_payload_len = 0u64;
        let mut trailer_packets = 0u32;
        let mut first_corrupt_word = None;
        let mut check = FrameChecker::default();
        let mut head: Vec<u8> = Vec::new();
        let mut header: Option<(TraceLayout, bool, u64, u64, u8)> = None;
        'scan: while word < total_words as u64 {
            let left = total_bytes - word * STORAGE_WORD_BYTES as u64;
            let want = (buf.len() as u64).min(left) as usize;
            read_exact_at(&backend, word * STORAGE_WORD_BYTES as u64, &mut buf[..want])
                .map_err(io_error)?;
            for chunk in buf[..want].chunks(STORAGE_WORD_BYTES) {
                let Some(checked) = check.check(chunk) else {
                    first_corrupt_word = Some(word as usize);
                    break 'scan;
                };
                certified_words += 1;
                certified_payload_len += checked.payload.len() as u64;
                trailer_packets = checked.packets;
                if header.is_none() {
                    head.extend_from_slice(checked.payload);
                    let mut cur = Cursor::new(&head);
                    match decode_header(&mut cur) {
                        Ok((layout, roc, count, codec)) => {
                            header = Some((layout, roc, count, cur.pos() as u64, codec));
                            head = Vec::new();
                        }
                        Err(TraceError::Truncated { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
                word += 1;
            }
        }
        let Some((layout, record_output_content, count, header_len, codec_byte)) = header else {
            // Re-derive the precise header error from what was certified.
            let mut cur = Cursor::new(&head);
            decode_header(&mut cur)?;
            return Err(TraceError::Truncated { offset: head.len() });
        };
        let codec = CodecId::from_u8(codec_byte)
            .ok_or(TraceError::UnsupportedCodec { codec: codec_byte })?;
        let shape = PacketShape::new(&layout, record_output_content);
        let header_sentinel = count == STREAMING_PACKET_COUNT;
        let declared_packets = if header_sentinel {
            u64::from(trailer_packets)
        } else {
            count
        };
        let certified_packets = declared_packets.min(u64::from(trailer_packets));
        Ok(TraceSource {
            backend,
            chunk_words,
            layout,
            record_output_content,
            codec,
            shape,
            header_sentinel,
            header_len,
            declared_packets,
            certified_packets,
            certified_payload_len,
            certified_words,
            first_corrupt_word,
            total_words,
            pos: header_len,
            packets_read: 0,
            win: Vec::new(),
            win_start: header_len,
            blk: Vec::new(),
            blk_pos: 0,
            blk_start: header_len,
            blk_base: 0,
            blk_n: 0,
            blk_next: header_len,
        })
    }

    /// The trace's channel layout.
    pub fn layout(&self) -> &TraceLayout {
        &self.layout
    }

    /// Whether output contents were recorded.
    pub fn records_output_content(&self) -> bool {
        self.record_output_content
    }

    /// The block codec negotiated in the stream header.
    pub fn codec(&self) -> CodecId {
        self.codec
    }

    /// Bytes `packet` occupies in this stream's raw packet encoding — the
    /// replay fetch cost of a decoded packet.
    pub fn wire_len(&self, packet: &CyclePacket) -> u64 {
        self.shape.wire_len(packet)
    }

    /// Whether the header carried the streaming sentinel count (a live
    /// recording) rather than an exact declared packet count. Transcoders
    /// preserve this so converted streams keep the writer's intent.
    pub fn declared_streaming(&self) -> bool {
        self.header_sentinel
    }

    /// Packets the frame trailers certify as decodable (the replayable
    /// prefix length).
    pub fn certified_packets(&self) -> u64 {
        self.certified_packets
    }

    /// Packets the header declared. For a streaming recording (sentinel
    /// header count) this equals the trailer-certified count.
    pub fn declared_packets(&self) -> u64 {
        self.declared_packets
    }

    /// First storage word that failed its integrity check, if any.
    pub fn first_corrupt_word(&self) -> Option<usize> {
        self.first_corrupt_word
    }

    /// Total 64-byte words present in the backend (a torn fragment counts
    /// as one).
    pub fn total_words(&self) -> usize {
        self.total_words
    }

    /// Whether every word certified and every declared packet is present.
    pub fn is_complete(&self) -> bool {
        self.first_corrupt_word.is_none() && self.certified_packets == self.declared_packets
    }

    /// The current read position, for a later [`seek`](TraceSource::seek).
    pub fn position(&self) -> SourcePos {
        let (payload_offset, base_packets) = if self.codec == CodecId::Raw {
            (self.pos, self.packets_read)
        } else if self.blk_n != 0 && self.packets_read < self.blk_base + u64::from(self.blk_n) {
            // Mid-block: address the containing block and count the skip.
            (self.blk_start, self.blk_base)
        } else {
            (self.blk_next, self.packets_read)
        };
        SourcePos {
            payload_offset,
            packets_read: self.packets_read,
            base_packets,
            codec: self.codec as u8,
            chunk_words: self.chunk_words as u32,
        }
    }

    /// Jumps to a position previously returned by
    /// [`position`](TraceSource::position). O(1) for raw streams; under a
    /// block codec it re-decodes at most one block to reach the packet.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::SeekMismatch`] if the position was minted by a
    /// source with a different codec or chunk size, and
    /// [`TraceError::Truncated`] if it lies outside the certified payload
    /// (e.g. a checkpoint from a longer recording).
    pub fn seek(&mut self, pos: SourcePos) -> Result<(), TraceError> {
        if pos.codec != self.codec as u8 || pos.chunk_words as usize != self.chunk_words {
            return Err(TraceError::SeekMismatch {
                pos_codec: pos.codec,
                pos_chunk_words: pos.chunk_words,
                source_codec: self.codec as u8,
                source_chunk_words: self.chunk_words as u32,
            });
        }
        if pos.payload_offset < self.header_len
            || pos.payload_offset > self.certified_payload_len
            || pos.packets_read > self.certified_packets
            || pos.base_packets > pos.packets_read
        {
            return Err(TraceError::Truncated {
                offset: pos.payload_offset as usize,
            });
        }
        if self.codec == CodecId::Raw {
            self.pos = pos.payload_offset;
            self.packets_read = pos.packets_read;
            self.win.clear();
            self.win_start = self.pos;
            return Ok(());
        }
        // Block codec: land on the recorded block boundary, then re-decode
        // forward to the exact packet.
        self.pos = pos.payload_offset;
        self.win.clear();
        self.win_start = self.pos;
        self.blk.clear();
        self.blk_pos = 0;
        self.blk_n = 0;
        self.blk_start = pos.payload_offset;
        self.blk_next = pos.payload_offset;
        self.blk_base = pos.base_packets;
        self.packets_read = pos.base_packets;
        for _ in pos.base_packets..pos.packets_read {
            if self.next_packet()?.is_none() {
                return Err(TraceError::Truncated {
                    offset: pos.payload_offset as usize,
                });
            }
        }
        Ok(())
    }

    /// Decodes the next certified cycle packet, or `None` past the
    /// certified prefix.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the backend fails mid-read or the
    /// payload does not parse to as many packets as the trailers certify
    /// (mis-written or adversarial frames).
    pub fn next_packet(&mut self) -> Result<Option<CyclePacket>, TraceError> {
        if self.packets_read >= self.certified_packets {
            return Ok(None);
        }
        if self.codec != CodecId::Raw {
            return self.next_packet_block().map(Some);
        }
        loop {
            let rel = (self.pos - self.win_start) as usize;
            if let Some(view) = self.shape.parse(&self.win[rel..]) {
                self.pos += view.len() as u64;
                self.packets_read += 1;
                return Ok(Some(view.to_packet(&self.layout)));
            }
            if !self.refill()? {
                return Err(TraceError::Truncated {
                    offset: self.pos as usize,
                });
            }
        }
    }

    /// Decodes one packet from the current block, loading the next block
    /// first if the current one is exhausted.
    fn next_packet_block(&mut self) -> Result<CyclePacket, TraceError> {
        if self.blk_n == 0 || self.packets_read >= self.blk_base + u64::from(self.blk_n) {
            self.load_block()?;
        }
        let view =
            self.shape
                .parse(&self.blk[self.blk_pos..])
                .ok_or_else(|| TraceError::BadBlock {
                    offset: self.blk_start,
                    detail: format!(
                        "decoded block does not parse as packets: truncated at block byte {}",
                        self.blk_pos
                    ),
                })?;
        self.blk_pos += view.len();
        self.packets_read += 1;
        Ok(view.to_packet(&self.layout))
    }

    /// Reads and decodes the block whose header sits at `blk_next`.
    fn load_block(&mut self) -> Result<(), TraceError> {
        let off = self.blk_next;
        let bad = |detail: String| TraceError::BadBlock {
            offset: off,
            detail,
        };
        if off + BLOCK_HEADER_BYTES as u64 > self.certified_payload_len {
            return Err(bad("block header past certified payload".into()));
        }
        let mut hdr = [0u8; BLOCK_HEADER_BYTES];
        self.read_payload(off, &mut hdr)?;
        let wire_byte = hdr[0];
        let n = u32::from_le_bytes(hdr[1..5].try_into().expect("4"));
        let raw_len = u32::from_le_bytes(hdr[5..9].try_into().expect("4")) as usize;
        let enc_len = u32::from_le_bytes(hdr[9..13].try_into().expect("4")) as usize;
        if n == 0 {
            return Err(bad("empty block".into()));
        }
        if raw_len > MAX_BLOCK_RAW_BYTES {
            return Err(bad(format!("block claims {raw_len} raw bytes")));
        }
        let fixed = self.shape.fixed_bytes;
        if fixed > 0 && u64::from(n).saturating_mul(fixed as u64) > raw_len as u64 {
            return Err(bad(format!(
                "{n} packets cannot fit in {raw_len} raw bytes"
            )));
        }
        if off + (BLOCK_HEADER_BYTES + enc_len) as u64 > self.certified_payload_len {
            return Err(bad("block payload past certified payload".into()));
        }
        let mut enc = vec![0u8; enc_len];
        self.read_payload(off + BLOCK_HEADER_BYTES as u64, &mut enc)?;
        let raw = match CodecId::from_u8(wire_byte) {
            Some(CodecId::Raw) if enc_len == raw_len => enc,
            Some(CodecId::Raw) => return Err(bad("stored block length mismatch".into())),
            Some(CodecId::XorDict) => codec::decode_block(&self.shape, &enc, n, raw_len)
                .map_err(|e| bad(e.to_string()))?,
            None => return Err(bad(format!("unknown block codec {wire_byte}"))),
        };
        self.blk = raw;
        self.blk_pos = 0;
        self.blk_start = off;
        self.blk_base = self.packets_read;
        self.blk_n = n;
        self.blk_next = off + (BLOCK_HEADER_BYTES + enc_len) as u64;
        Ok(())
    }

    /// Reads `out.len()` payload bytes starting at payload offset `offset`,
    /// mapping through the storage-word framing. Only certified words are
    /// touched.
    fn read_payload(&self, offset: u64, out: &mut [u8]) -> Result<(), TraceError> {
        let mut off = offset;
        let mut done = 0usize;
        let mut wbuf = [0u8; STORAGE_WORD_BYTES];
        while done < out.len() {
            // Every certified word except the final one carries a full
            // payload, so payload offsets map to word indices arithmetically.
            let word = off / FRAME_PAYLOAD_BYTES as u64;
            let skip = (off % FRAME_PAYLOAD_BYTES as u64) as usize;
            if word >= self.certified_words {
                return Err(TraceError::Truncated {
                    offset: off as usize,
                });
            }
            let wlen = if word == self.certified_words - 1 {
                (self.certified_payload_len - word * FRAME_PAYLOAD_BYTES as u64) as usize
            } else {
                FRAME_PAYLOAD_BYTES
            };
            if skip >= wlen {
                return Err(TraceError::Truncated {
                    offset: off as usize,
                });
            }
            read_exact_at(&self.backend, word * STORAGE_WORD_BYTES as u64, &mut wbuf)
                .map_err(io_error)?;
            let n = (wlen - skip).min(out.len() - done);
            out[done..done + n].copy_from_slice(&wbuf[skip..skip + n]);
            done += n;
            off += n as u64;
        }
        Ok(())
    }

    /// Extends the readahead window by up to one chunk of certified
    /// payload. Returns `false` at the end of the certified stream.
    fn refill(&mut self) -> Result<bool, TraceError> {
        let consumed = (self.pos - self.win_start) as usize;
        if consumed > 0 {
            self.win.drain(..consumed);
            self.win_start = self.pos;
        }
        let end = self.win_start + self.win.len() as u64;
        if end >= self.certified_payload_len {
            return Ok(false);
        }
        // Every certified word except the final one carries a full payload,
        // so payload offsets map to word indices arithmetically.
        let word = end / FRAME_PAYLOAD_BYTES as u64;
        let skip = (end % FRAME_PAYLOAD_BYTES as u64) as usize;
        let n_words = (self.chunk_words as u64).min(self.certified_words - word) as usize;
        let mut buf = vec![0u8; n_words * STORAGE_WORD_BYTES];
        read_exact_at(&self.backend, word * STORAGE_WORD_BYTES as u64, &mut buf)
            .map_err(io_error)?;
        for (k, w) in buf.chunks(STORAGE_WORD_BYTES).enumerate() {
            let widx = word + k as u64;
            let wlen = if widx == self.certified_words - 1 {
                (self.certified_payload_len - widx * FRAME_PAYLOAD_BYTES as u64) as usize
            } else {
                FRAME_PAYLOAD_BYTES
            };
            let s = if k == 0 { skip } else { 0 };
            self.win.extend_from_slice(&w[s..wlen]);
        }
        Ok(true)
    }

    /// An iterator over the remaining certified cycle packets.
    pub fn cycles(&mut self) -> Cycles<'_, R> {
        Cycles { src: self }
    }
}

/// Iterator returned by [`TraceSource::cycles`].
pub struct Cycles<'a, R: ChunkSource> {
    src: &'a mut TraceSource<R>,
}

impl<R: ChunkSource> Iterator for Cycles<'_, R> {
    type Item = Result<CyclePacket, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.src.next_packet().transpose()
    }
}

/// The result of recovering a CRC-framed trace stream (see
/// [`Trace::encode_framed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredTrace {
    /// The recovered packet prefix, with the original layout.
    pub trace: Trace,
    /// Packets actually recovered.
    pub recovered_packets: u64,
    /// Packets the (CRC-verified) header declared the trace to hold. For a
    /// streaming recording (whose header carries a sentinel count) this is
    /// the count the frame trailers certify.
    pub declared_packets: u64,
    /// First storage word that failed its integrity check, if any.
    pub first_corrupt_word: Option<usize>,
}

impl RecoveredTrace {
    /// Whether the whole trace survived intact.
    pub fn is_complete(&self) -> bool {
        self.first_corrupt_word.is_none() && self.recovered_packets == self.declared_packets
    }
}

/// Decodes a CRC-framed trace stream, resynchronizing past corruption.
///
/// Every 64-byte storage word is integrity-checked (CRC-32, sequence
/// number, length bound); the valid payload prefix before the first bad
/// word is then decoded up to the last packet the frame trailers certify as
/// complete. Bit flips, torn writes, and truncated tails therefore cost
/// only the suffix of the trace — the prefix replays normally.
///
/// This is a convenience over [`TraceSource`]: it opens a source over the
/// byte image and drains it into an in-memory [`Trace`].
///
/// # Errors
///
/// Returns a [`TraceError`] only when the corruption reaches into the
/// self-description header, leaving nothing to recover.
pub fn recover_trace(framed: &[u8]) -> Result<RecoveredTrace, TraceError> {
    let mut src = TraceSource::open(framed, DEFAULT_CHUNK_WORDS)?;
    let mut trace = Trace::new(src.layout().clone(), src.records_output_content());
    let mut recovered_packets = 0u64;
    // The trailer may certify more packets than the payload actually parses
    // to (adversarial or mis-written frames): keep the packets that did
    // decode rather than discarding the run.
    while let Ok(Some(p)) = src.next_packet() {
        trace.push(p);
        recovered_packets += 1;
    }
    Ok(RecoveredTrace {
        trace,
        recovered_packets,
        declared_packets: src.declared_packets(),
        first_corrupt_word: src.first_corrupt_word(),
    })
}

fn io_error(e: ChunkIoError) -> TraceError {
    match e {
        ChunkIoError::Transient(m) | ChunkIoError::Permanent(m) => TraceError::Io(m),
    }
}

/// Reads a chunk source's whole image into memory — the one way stored
/// bytes come back whole (a trace image for [`recover_trace`], a
/// checkpoint container or index for its decoder).
///
/// # Errors
///
/// Returns the backend's [`ChunkIoError`], or a permanent one if storage
/// ends before its reported length.
pub fn read_full<R: ChunkSource + ?Sized>(backend: &R) -> Result<Vec<u8>, ChunkIoError> {
    let len = usize::try_from(backend.byte_len()?)
        .map_err(|_| ChunkIoError::Permanent("stored image exceeds the address space".into()))?;
    let mut image = vec![0; len];
    read_exact_at(backend, 0, &mut image)?;
    Ok(image)
}

/// Reads exactly `buf.len()` bytes at `offset`, tolerating short reads.
fn read_exact_at<R: ChunkSource + ?Sized>(
    backend: &R,
    offset: u64,
    buf: &mut [u8],
) -> Result<(), ChunkIoError> {
    let mut done = 0usize;
    while done < buf.len() {
        let n = backend.read_at(offset + done as u64, &mut buf[done..])?;
        if n == 0 {
            return Err(ChunkIoError::Permanent(format!(
                "storage ended {} bytes short at offset {}",
                buf.len() - done,
                offset + done as u64
            )));
        }
        done += n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ChannelInfo;
    use crate::packet::ChannelPacket;
    use vidi_chan::Direction;
    use vidi_hwsim::Bits;

    fn layout() -> TraceLayout {
        TraceLayout::new(vec![
            ChannelInfo {
                name: "in".into(),
                width: 24,
                direction: Direction::Input,
            },
            ChannelInfo {
                name: "out".into(),
                width: 8,
                direction: Direction::Output,
            },
        ])
    }

    fn sample(n: u64, roc: bool) -> Trace {
        let l = layout();
        let mut t = Trace::new(l.clone(), roc);
        for i in 0..n {
            t.push(CyclePacket::assemble(
                &l,
                &[
                    ChannelPacket {
                        start: true,
                        content: Some(Bits::from_u64(24, i * 3)),
                        end: i % 2 == 0,
                    },
                    ChannelPacket {
                        start: false,
                        content: roc.then(|| Bits::from_u64(8, i)),
                        end: true,
                    },
                ],
                roc,
            ));
        }
        t
    }

    /// A trace whose cycles repeat a small value set — the shape block
    /// codecs are built for.
    fn repetitive(n: u64) -> Trace {
        let l = layout();
        let mut t = Trace::new(l.clone(), true);
        for i in 0..n {
            t.push(CyclePacket::assemble(
                &l,
                &[
                    ChannelPacket {
                        start: true,
                        content: Some(Bits::from_u64(24, 0xABCD00 + (i % 2))),
                        end: false,
                    },
                    ChannelPacket {
                        start: false,
                        content: Some(Bits::from_u64(8, 0x5A)),
                        end: i % 4 == 0,
                    },
                ],
                true,
            ));
        }
        t
    }

    /// 64-bit FNV-1a. A CRC-32 over a whole framed image is no fingerprint:
    /// every sealed word ends in its own CRC, which leaves the CRC register
    /// in the same residue state, so the image CRC depends only on the word
    /// count.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn framed_bytes_are_pinned() {
        // (length, FNV-1a) of each image: the whole streamed recording, the
        // mid-run flushed-plus-tail image after half the packets, and the
        // declared-count `encode_framed` form. Pinned on the pre-framer
        // sink; any drift changes every stored trace and checkpoint.
        type Image = (usize, u64);
        let traces = [sample(40, false), sample(40, true), repetitive(200)];
        let streamed: [(usize, CodecId, Image, Image); 6] = [
            (
                0,
                CodecId::Raw,
                (320, 0x0357_aaea_6f52_c472),
                (192, 0xef76_1306_bfa2_e8f0),
            ),
            (
                0,
                CodecId::XorDict,
                (384, 0x3ccf_40cc_3415_ca98),
                (192, 0xd82f_af7a_f73a_5734),
            ),
            (
                1,
                CodecId::Raw,
                (384, 0x117b_c2b2_975b_2124),
                (256, 0x170e_2c4a_4cfe_4265),
            ),
            (
                1,
                CodecId::XorDict,
                (448, 0xe835_7c46_6a1c_c64a),
                (256, 0x4548_536b_3dfc_c4f3),
            ),
            (
                2,
                CodecId::Raw,
                (1408, 0x874c_c8ac_db7d_502f),
                (768, 0xfef5_1647_1a40_112c),
            ),
            (
                2,
                CodecId::XorDict,
                (1088, 0x73b8_f3c1_5b46_0cd9),
                (576, 0x92af_5366_b5aa_c8f5),
            ),
        ];
        let declared: [Image; 3] = [
            (320, 0x6866_38f8_ac08_da71),
            (384, 0x6c1d_c095_c0d3_28f3),
            (1408, 0xf0f8_3d8f_5dba_3f62),
        ];
        for (i, codec, stream, mid) in streamed {
            let t = &traces[i];
            let (first, second) = t.packets().split_at(t.packets().len() / 2);
            let roc = t.records_output_content();
            let mut sink = TraceSink::with_codec(Vec::new(), t.layout(), roc, 2, codec);
            for p in first {
                sink.push(p).unwrap();
            }
            let mut image = sink.backend().clone();
            image.extend_from_slice(&sink.unflushed_tail_image());
            assert_eq!(
                (image.len(), fnv1a(&image)),
                mid,
                "trace {i} {codec} mid-run"
            );
            for p in second {
                sink.push(p).unwrap();
            }
            let bytes = sink.finish().unwrap();
            assert_eq!((bytes.len(), fnv1a(&bytes)), stream, "trace {i} {codec}");
        }
        for (t, pinned) in traces.iter().zip(declared) {
            let framed = t.encode_framed();
            assert_eq!((framed.len(), fnv1a(&framed)), pinned, "encode_framed");
        }
    }

    #[test]
    fn streaming_sink_source_roundtrip() {
        let t = sample(100, true);
        let mut sink = TraceSink::new(Vec::new(), t.layout(), true, 2);
        for p in t.packets() {
            sink.push(p).unwrap();
        }
        assert!(sink.peak_buffered_bytes() <= 2 * 64 + FRAME_PAYLOAD_BYTES + 200);
        let bytes = sink.finish().unwrap();
        let mut src = TraceSource::open(bytes.as_slice(), 2).unwrap();
        assert!(src.is_complete());
        assert_eq!(src.certified_packets(), 100);
        let got: Vec<CyclePacket> = src.cycles().map(|p| p.unwrap()).collect();
        assert_eq!(got.as_slice(), t.packets());
    }

    #[test]
    fn compressed_streaming_roundtrip_every_codec() {
        let t = sample(150, true);
        let raw_len = {
            let mut sink = TraceSink::new(Vec::new(), t.layout(), true, 2);
            for p in t.packets() {
                sink.push(p).unwrap();
            }
            sink.finish().unwrap().len()
        };
        for codec in CodecId::ALL {
            let mut sink = TraceSink::with_codec(Vec::new(), t.layout(), true, 2, codec);
            for p in t.packets() {
                sink.push(p).unwrap();
            }
            let bytes = sink.finish().unwrap();
            let mut src = TraceSource::open(bytes.as_slice(), 2).unwrap();
            assert_eq!(src.codec(), codec);
            assert!(src.is_complete(), "codec {codec}");
            assert_eq!(src.certified_packets(), 150, "codec {codec}");
            let got: Vec<CyclePacket> = src.cycles().map(|p| p.unwrap()).collect();
            assert_eq!(got.as_slice(), t.packets(), "codec {codec}");
            // Even a poorly-matched codec stays near raw thanks to the
            // stored-block fallback (block headers are the only overhead).
            assert!(
                bytes.len() <= raw_len + raw_len / 4 + 256,
                "codec {codec}: {} vs raw {raw_len}",
                bytes.len()
            );
        }
    }

    #[test]
    fn repetitive_stream_compresses() {
        let t = repetitive(600);
        let mut raw_sink = TraceSink::new(Vec::new(), t.layout(), true, 4);
        let mut dict_sink =
            TraceSink::with_codec(Vec::new(), t.layout(), true, 4, CodecId::XorDict);
        for p in t.packets() {
            raw_sink.push(p).unwrap();
            dict_sink.push(p).unwrap();
        }
        let savings = dict_sink.take_compression_savings();
        assert!(savings > 0, "compression must report savings");
        let raw = raw_sink.finish().unwrap();
        let dict = dict_sink.finish().unwrap();
        // 1.68x measured: the starts/ends bit-vectors alternate every
        // packet, so only the content words collapse to tokens.
        assert!(
            dict.len() * 3 < raw.len() * 2,
            "xor-dict {} vs raw {}",
            dict.len(),
            raw.len()
        );
        let mut src = TraceSource::open(dict.as_slice(), 4).unwrap();
        let got: Vec<CyclePacket> = src.cycles().map(|p| p.unwrap()).collect();
        assert_eq!(got.as_slice(), t.packets());
    }

    #[test]
    fn chunk_flush_sizes_are_fixed() {
        struct SizeCheck {
            chunk_bytes: usize,
            seqs: Vec<u64>,
            last_len: usize,
            total: u64,
        }
        impl ChunkSink for SizeCheck {
            fn put_chunk(&mut self, seq: u64, bytes: &[u8]) -> Result<(), ChunkIoError> {
                assert!(bytes.len() <= self.chunk_bytes);
                self.seqs.push(seq);
                self.last_len = bytes.len();
                self.total += bytes.len() as u64;
                Ok(())
            }
        }
        let t = sample(64, false);
        let mut sink = TraceSink::new(
            SizeCheck {
                chunk_bytes: 3 * 64,
                seqs: Vec::new(),
                last_len: 0,
                total: 0,
            },
            t.layout(),
            false,
            3,
        );
        for p in t.packets() {
            sink.push(p).unwrap();
        }
        let flushed = sink.chunks_flushed();
        let check = sink.finish().unwrap();
        assert!(check.seqs.len() > 1, "trace must span several chunks");
        assert!(flushed <= check.seqs.len() as u64);
        let expected: Vec<u64> = (0..check.seqs.len() as u64).collect();
        assert_eq!(check.seqs, expected);
        // Every chunk except the last is exactly the chunk window.
        assert_eq!(check.total as usize % (3 * 64), check.last_len % (3 * 64));
    }

    #[test]
    fn tail_image_certifies_staged_packets() {
        let t = sample(30, false);
        let mut sink = TraceSink::new(Vec::new(), t.layout(), false, 2);
        for p in t.packets() {
            sink.push(p).unwrap();
        }
        let mut image = sink.backend().clone();
        image.extend_from_slice(&sink.unflushed_tail_image());
        let rec = recover_trace(&image).unwrap();
        assert_eq!(rec.recovered_packets, 30);
        assert_eq!(rec.trace.packets(), t.packets());
        // The sink is undisturbed: staging more still works.
        sink.push(&t.packets()[0].clone()).unwrap();
        assert_eq!(sink.packets(), 31);
    }

    #[test]
    fn compressed_tail_image_certifies_staged_packets() {
        let t = sample(45, true);
        let codec = CodecId::XorDict;
        let mut sink = TraceSink::with_codec(Vec::new(), t.layout(), true, 2, codec);
        for p in t.packets() {
            sink.push(p).unwrap();
        }
        let mut image = sink.backend().clone();
        image.extend_from_slice(&sink.unflushed_tail_image());
        let rec = recover_trace(&image).unwrap();
        assert_eq!(rec.recovered_packets, 45, "codec {codec}");
        assert_eq!(rec.trace.packets(), t.packets(), "codec {codec}");
        // The sink is undisturbed: the open block keeps accumulating.
        sink.push(&t.packets()[0].clone()).unwrap();
        assert_eq!(sink.packets(), 46, "codec {codec}");
    }

    #[test]
    fn source_seek_roundtrip() {
        let t = sample(50, true);
        let bytes = t.encode_framed();
        let mut src = TraceSource::open(bytes.as_slice(), 1).unwrap();
        for _ in 0..20 {
            src.next_packet().unwrap().unwrap();
        }
        let mark = src.position();
        let next_at_mark = src.next_packet().unwrap().unwrap();
        for _ in 0..10 {
            src.next_packet().unwrap().unwrap();
        }
        src.seek(mark).unwrap();
        assert_eq!(src.next_packet().unwrap().unwrap(), next_at_mark);
        // Seeking past the certified payload is a typed error.
        assert!(src
            .seek(SourcePos {
                payload_offset: bytes.len() as u64,
                packets_read: 0,
                base_packets: 0,
                codec: 0,
                chunk_words: 1,
            })
            .is_err());
    }

    #[test]
    fn compressed_seek_roundtrip() {
        let t = sample(120, true);
        let codec = CodecId::XorDict;
        let mut sink = TraceSink::with_codec(Vec::new(), t.layout(), true, 2, codec);
        for p in t.packets() {
            sink.push(p).unwrap();
        }
        let bytes = sink.finish().unwrap();
        let mut src = TraceSource::open(bytes.as_slice(), 2).unwrap();
        for skip in [0u64, 7, 40, 95] {
            let mut fresh = TraceSource::open(bytes.as_slice(), 2).unwrap();
            for _ in 0..skip {
                fresh.next_packet().unwrap().unwrap();
            }
            let mark = fresh.position();
            assert_eq!(mark.packets_read, skip, "codec {codec}");
            src.seek(mark).unwrap();
            let got = src.next_packet().unwrap().unwrap();
            assert_eq!(got, t.packets()[skip as usize], "codec {codec} @{skip}");
        }
    }

    #[test]
    fn seek_rejects_mismatched_positions() {
        let t = sample(60, true);
        let raw_bytes = t.encode_framed();
        let mut comp_sink =
            TraceSink::with_codec(Vec::new(), t.layout(), true, 2, CodecId::XorDict);
        for p in t.packets() {
            comp_sink.push(p).unwrap();
        }
        let comp_bytes = comp_sink.finish().unwrap();

        // A position minted by a compressed source is rejected by a raw one.
        let mut comp_src = TraceSource::open(comp_bytes.as_slice(), 2).unwrap();
        comp_src.next_packet().unwrap().unwrap();
        let comp_pos = comp_src.position();
        let mut raw_src = TraceSource::open(raw_bytes.as_slice(), 2).unwrap();
        assert!(matches!(
            raw_src.seek(comp_pos),
            Err(TraceError::SeekMismatch { .. })
        ));

        // A position minted under one chunk size is rejected by another.
        let mut wide_src = TraceSource::open(raw_bytes.as_slice(), 4).unwrap();
        wide_src.next_packet().unwrap().unwrap();
        let wide_pos = wide_src.position();
        assert!(matches!(
            raw_src.seek(wide_pos),
            Err(TraceError::SeekMismatch { .. })
        ));
        // Matching codec and chunk size still works.
        let mut same_src = TraceSource::open(raw_bytes.as_slice(), 2).unwrap();
        same_src.next_packet().unwrap().unwrap();
        raw_src.seek(same_src.position()).unwrap();
    }

    #[test]
    fn torn_streaming_tail_degrades_to_chunk_prefix() {
        let t = sample(200, false);
        let mut sink = TraceSink::new(Vec::new(), t.layout(), false, 2);
        for p in t.packets() {
            sink.push(p).unwrap();
        }
        // Simulate a crash: the unflushed tail is lost; only flushed chunks
        // survive. No finalize.
        let survived = sink.backend().clone();
        assert!(
            sink.chunks_flushed() >= 3,
            "need several chunks for the test to mean anything"
        );
        let rec = recover_trace(&survived).unwrap();
        assert!(rec.recovered_packets > 0);
        assert_eq!(
            rec.trace.packets(),
            &t.packets()[..rec.recovered_packets as usize]
        );
    }

    #[test]
    fn torn_compressed_tail_recovers_block_prefix() {
        let t = sample(400, true);
        let codec = CodecId::XorDict;
        let mut sink = TraceSink::with_codec(Vec::new(), t.layout(), true, 2, codec);
        for p in t.packets() {
            sink.push(p).unwrap();
        }
        // Crash without finalize: only flushed chunks survive.
        let survived = sink.backend().clone();
        assert!(sink.chunks_flushed() >= 3, "codec {codec}");
        let rec = recover_trace(&survived).unwrap();
        assert!(rec.recovered_packets > 0, "codec {codec}");
        assert_eq!(
            rec.trace.packets(),
            &t.packets()[..rec.recovered_packets as usize],
            "codec {codec}"
        );
        // Arbitrary further truncation still yields a clean prefix —
        // never a panic, never garbage packets.
        for cut in [survived.len() - 1, survived.len() - 63, survived.len() / 2] {
            let rec = recover_trace(&survived[..cut]).unwrap();
            assert_eq!(
                rec.trace.packets(),
                &t.packets()[..rec.recovered_packets as usize],
                "codec {codec} cut {cut}"
            );
        }
    }

    #[test]
    fn sink_parts_roundtrip() {
        let t = sample(25, false);
        let mut sink = TraceSink::new(Vec::new(), t.layout(), false, 2);
        for p in &t.packets()[..10] {
            sink.push(p).unwrap();
        }
        let parts = sink.save_parts();
        let mut clone = TraceSink::new(Vec::new(), t.layout(), false, 2);
        clone.restore_parts(parts.clone()).unwrap();
        assert_eq!(clone.save_parts(), parts);
        assert_eq!(clone.unflushed_tail_image(), sink.unflushed_tail_image());
    }

    #[test]
    fn compressed_sink_parts_roundtrip() {
        let t = sample(25, true);
        let mut sink = TraceSink::with_codec(Vec::new(), t.layout(), true, 2, CodecId::XorDict);
        for p in &t.packets()[..10] {
            sink.push(p).unwrap();
        }
        let parts = sink.save_parts();
        assert!(!parts.blk_raw.is_empty(), "open block must be captured");
        let mut clone = TraceSink::with_codec(Vec::new(), t.layout(), true, 2, CodecId::XorDict);
        clone.restore_parts(parts.clone()).unwrap();
        assert_eq!(clone.save_parts(), parts);
        assert_eq!(clone.unflushed_tail_image(), sink.unflushed_tail_image());
    }

    #[test]
    fn restore_parts_rejects_what_no_sink_saves() {
        let t = sample(25, true);
        let mut sink = TraceSink::with_codec(Vec::new(), t.layout(), true, 2, CodecId::XorDict);
        for p in &t.packets()[..10] {
            sink.push(p).unwrap();
        }
        let good = sink.save_parts();
        let oversized = SinkParts {
            pending: vec![0; FRAME_PAYLOAD_BYTES + 1],
            ..good.clone()
        };
        let ragged = SinkParts {
            sealed: vec![0; STORAGE_WORD_BYTES + 1],
            ..good.clone()
        };
        let garbled = SinkParts {
            blk_raw: vec![0xff; 3],
            ..good.clone()
        };
        for bad in [oversized, ragged, garbled] {
            let mut clone =
                TraceSink::with_codec(Vec::new(), t.layout(), true, 2, CodecId::XorDict);
            let before = clone.save_parts();
            assert!(matches!(
                clone.restore_parts(bad),
                Err(TraceError::BadSinkParts(_))
            ));
            assert_eq!(
                clone.save_parts(),
                before,
                "a rejected restore changes nothing"
            );
        }
        // A raw sink never holds an open block.
        let mut raw = TraceSink::new(Vec::new(), t.layout(), true, 2);
        assert!(raw.restore_parts(good).is_err());
    }

    #[test]
    fn bytes_written_matches_stream_length() {
        let t = sample(80, true);
        for codec in CodecId::ALL {
            let mut sink = TraceSink::with_codec(Vec::new(), t.layout(), true, 2, codec);
            for p in t.packets() {
                sink.push(p).unwrap();
            }
            sink.finalize().unwrap();
            let written = sink.bytes_written();
            let bytes = sink.finish().unwrap();
            assert_eq!(written, bytes.len() as u64, "codec {codec}");
        }
    }

    #[test]
    fn stored_raw_block_must_hold_its_raw_length() {
        // A CRC-clean compressed stream of one stored-raw block whose header
        // claims `raw_len` raw bytes.
        let t = sample(1, false);
        let mut raw = Vec::new();
        encode_packet_into(&mut raw, &t.packets()[0]);
        let image = |raw_len: usize| {
            let mut frames = FrameWriter::new();
            let mut header = Vec::new();
            encode_header_into(&mut header, t.layout(), false, 1, CodecId::XorDict);
            frames.push_bytes(&header);
            frames.push_bytes(&[CodecId::Raw as u8]);
            frames.push_bytes(&1u32.to_le_bytes());
            frames.push_bytes(&(raw_len as u32).to_le_bytes());
            frames.push_bytes(&(raw.len() as u32).to_le_bytes());
            frames.push_bytes(&raw);
            frames.mark_packets(1);
            frames.finish()
        };
        let first = |raw_len| TraceSource::open(image(raw_len), 2).unwrap().next_packet();
        assert_eq!(first(raw.len()).unwrap().as_ref(), Some(&t.packets()[0]));
        let err = first(raw.len() + 1).unwrap_err();
        assert!(
            matches!(&err, TraceError::BadBlock { detail, .. } if detail.contains("stored block length mismatch")),
            "{err}"
        );
    }

    #[test]
    fn retired_header_codec_ids_are_typed_errors() {
        // Patch the header's codec byte (magic, version, roc, then codec)
        // to each retired id and re-seal the first word's CRC, so only the
        // codec id is wrong.
        let t = sample(30, true);
        let mut sink = TraceSink::with_codec(Vec::new(), t.layout(), true, 2, CodecId::XorDict);
        for p in t.packets() {
            sink.push(p).unwrap();
        }
        let bytes = sink.finish().unwrap();
        assert_eq!(bytes[7], CodecId::XorDict as u8, "codec byte offset");
        for retired in [1u8, 3] {
            let mut bad = bytes.clone();
            bad[7] = retired;
            let crc = crate::crc32(&bad[..STORAGE_WORD_BYTES - 4]);
            bad[STORAGE_WORD_BYTES - 4..STORAGE_WORD_BYTES].copy_from_slice(&crc.to_le_bytes());
            match TraceSource::open(bad.as_slice(), 2) {
                Err(TraceError::UnsupportedCodec { codec }) => assert_eq!(codec, retired),
                other => panic!("codec {retired}: expected UnsupportedCodec, got {other:?}"),
            }
            assert!(recover_trace(&bad).is_err(), "codec {retired}");
        }
    }

    #[test]
    fn framed_roundtrip_recovers_everything() {
        let trace = sample(5, true);
        let framed = trace.encode_framed();
        let rec = recover_trace(&framed).unwrap();
        assert!(rec.is_complete());
        assert_eq!(rec.recovered_packets, 5);
        assert_eq!(rec.declared_packets, 5);
        assert_eq!(rec.trace, trace);
    }

    #[test]
    fn framed_bit_flip_recovers_prefix() {
        let trace = sample(5, true);
        let framed = trace.encode_framed();
        // Flip a payload bit in the last storage word.
        let last_word = framed.len() - STORAGE_WORD_BYTES;
        let mut bad = framed.clone();
        bad[last_word + 5] ^= 0x10;
        let rec = recover_trace(&bad).unwrap();
        assert!(!rec.is_complete());
        assert_eq!(
            rec.first_corrupt_word,
            Some(framed.len() / STORAGE_WORD_BYTES - 1)
        );
        assert_eq!(rec.declared_packets, 5);
        // Everything before the corrupt word replays.
        assert_eq!(
            rec.trace.packets(),
            &trace.packets()[..rec.recovered_packets as usize]
        );
    }

    #[test]
    fn framed_truncation_recovers_prefix() {
        let trace = sample(5, true);
        let mut framed = trace.encode_framed();
        // Keep the first word (which holds the header) plus a torn fragment.
        framed.truncate(STORAGE_WORD_BYTES + 7);
        let rec = recover_trace(&framed).unwrap();
        assert!(!rec.is_complete());
        assert_eq!(
            rec.trace.packets(),
            &trace.packets()[..rec.recovered_packets as usize]
        );
    }

    #[test]
    fn framed_header_corruption_is_typed_error() {
        let trace = sample(5, true);
        let mut framed = trace.encode_framed();
        framed[3] ^= 0xFF; // word 0 carries the header
        assert!(recover_trace(&framed).is_err());
        assert!(recover_trace(&[]).is_err());
    }
}
