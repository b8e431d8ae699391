//! Trace (de)serialization errors.

use std::error::Error;
use std::fmt;

/// An error decoding a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The buffer does not begin with the `VIDI` magic.
    BadMagic,
    /// The format version is not supported.
    BadVersion(u16),
    /// The buffer ended before the structure was complete.
    Truncated {
        /// Byte offset at which more data was expected.
        offset: usize,
    },
    /// A channel name was not valid UTF-8.
    BadChannelName,
    /// A layout has more channels than the wire format can index: channel
    /// counts and the per-packet `Ends` indices are serialized as `u16`, so
    /// layouts are capped at `u16::MAX` channels.
    TooManyChannels {
        /// The rejected channel count.
        count: usize,
    },
    /// A chunk storage backend failed while reading the trace stream.
    Io(
        /// Backend-specific failure description.
        String,
    ),
    /// The stream header names a block codec this reader cannot decode in
    /// this context: an id this build does not know, or a compressed stream
    /// handed to a raw-body decoder.
    UnsupportedCodec {
        /// The codec id byte from the header.
        codec: u8,
    },
    /// A [`SourcePos`](crate::SourcePos) was minted by a source with a
    /// different codec or chunk size than the one being seeked — honoring it
    /// would decode garbage, so the mismatch is rejected up front.
    SeekMismatch {
        /// Codec id recorded in the position.
        pos_codec: u8,
        /// Chunk size (in storage words) recorded in the position.
        pos_chunk_words: u32,
        /// Codec id of the source being seeked.
        source_codec: u8,
        /// Chunk size (in storage words) of the source being seeked.
        source_chunk_words: u32,
    },
    /// A compressed block inside a certified payload failed to decode
    /// (mis-written or adversarial frames; CRC-clean but structurally bad).
    BadBlock {
        /// Payload byte offset of the block header.
        offset: u64,
        /// What failed.
        detail: String,
    },
    /// [`SinkParts`](crate::SinkParts) handed to
    /// [`TraceSink::restore_parts`](crate::TraceSink::restore_parts) that
    /// no sink could have saved (an oversized open word, a ragged sealed
    /// buffer, an open block that does not parse) — restoring them would
    /// panic on the next staged packet.
    BadSinkParts(
        /// Which invariant failed.
        String,
    ),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a Vidi trace (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Truncated { offset } => {
                write!(f, "trace truncated at byte offset {offset}")
            }
            TraceError::BadChannelName => write!(f, "channel name is not valid UTF-8"),
            TraceError::TooManyChannels { count } => {
                write!(
                    f,
                    "layout has {count} channels but the trace format indexes \
                     channels as u16 (max {})",
                    u16::MAX
                )
            }
            TraceError::Io(message) => write!(f, "trace storage I/O failed: {message}"),
            TraceError::UnsupportedCodec { codec } => {
                write!(f, "trace uses block codec {codec}, unsupported here")
            }
            TraceError::SeekMismatch {
                pos_codec,
                pos_chunk_words,
                source_codec,
                source_chunk_words,
            } => write!(
                f,
                "seek position from codec {pos_codec}/chunk {pos_chunk_words} does not \
                 match source codec {source_codec}/chunk {source_chunk_words}"
            ),
            TraceError::BadBlock { offset, detail } => {
                write!(f, "bad block at payload offset {offset}: {detail}")
            }
            TraceError::BadSinkParts(detail) => write!(f, "invalid sink state: {detail}"),
        }
    }
}

impl Error for TraceError {}
