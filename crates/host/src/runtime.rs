//! The Vidi software runtime library (§4.2).
//!
//! On F1 the runtime reserves huge pages for trace buffering, initializes
//! the shim before the FPGA application is invoked, and saves/loads traces
//! to disk. In the reproduction its disk-facing half survives verbatim:
//! traces stream to files in the CRC-framed chunk layout of `vidi-trace`
//! (every byte that reaches storage goes through the framed
//! [`TraceSink`](vidi_trace::TraceSink) — there is no unframed path), and
//! round-trip back, enabling the record-on-"hardware", replay-later
//! workflow of the case studies. Both directions run over the file chunk
//! backends under [`RetryPolicy::default`].

use std::error::Error;
use std::fmt;
use std::path::Path;

use vidi_trace::{read_full, recover_trace, ChunkIoError, Trace, TraceError, STORAGE_WORD_BYTES};

use crate::chunks::{FileChunkSink, FileChunkSource, RetryPolicy};

/// An error saving or loading a trace file.
#[derive(Debug)]
pub enum RuntimeError {
    /// Filesystem error. A chunk backend failure that outlived its retries
    /// arrives here too, with the [`ChunkIoError`] as the inner error.
    Io(std::io::Error),
    /// The file is not a valid Vidi trace.
    Format(TraceError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Io(e) => write!(f, "trace file I/O error: {e}"),
            RuntimeError::Format(e) => write!(f, "trace file format error: {e}"),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Io(e) => Some(e),
            RuntimeError::Format(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for RuntimeError {
    fn from(e: std::io::Error) -> Self {
        RuntimeError::Io(e)
    }
}

impl From<ChunkIoError> for RuntimeError {
    fn from(e: ChunkIoError) -> Self {
        RuntimeError::Io(std::io::Error::other(e))
    }
}

impl From<TraceError> for RuntimeError {
    fn from(e: TraceError) -> Self {
        RuntimeError::Format(e)
    }
}

/// Saves a trace to a file, streaming it chunk-by-chunk through the
/// CRC-framed sink — the same encode path the live recording store uses,
/// so a file written here is byte-identical to one streamed during
/// recording with the same declared count. Each chunk write is retried
/// under [`RetryPolicy::default`].
///
/// # Errors
///
/// Returns [`RuntimeError::Io`] on filesystem failure.
pub fn save_trace(path: impl AsRef<Path>, trace: &Trace) -> Result<(), RuntimeError> {
    trace.write_framed(RetryPolicy::default().wrap(FileChunkSink::create(path)?))?;
    Ok(())
}

/// Loads a trace previously written by [`save_trace`], retrying transient
/// read faults under [`RetryPolicy::default`]. Strict: a torn or corrupted
/// file is a [`RuntimeError::Format`] error here — open the file with a
/// [`TraceSource`](vidi_trace::TraceSource) to recover the longest
/// certified prefix instead.
///
/// # Errors
///
/// Returns [`RuntimeError::Io`] on filesystem failure or
/// [`RuntimeError::Format`] if the file is not a complete valid trace.
pub fn load_trace(path: impl AsRef<Path>) -> Result<Trace, RuntimeError> {
    let bytes = read_full(&RetryPolicy::default().wrap(FileChunkSource::open(path)?))?;
    let rec = recover_trace(&bytes)?;
    if !rec.is_complete() {
        let offset = rec
            .first_corrupt_word
            .map_or(bytes.len(), |w| w * STORAGE_WORD_BYTES);
        return Err(RuntimeError::Format(TraceError::Truncated { offset }));
    }
    Ok(rec.trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vidi_chan::Direction;
    use vidi_hwsim::Bits;
    use vidi_trace::{ChannelInfo, ChannelPacket, CyclePacket, TraceLayout};

    #[test]
    fn trace_file_roundtrip() {
        let layout = TraceLayout::new(vec![ChannelInfo {
            name: "c".into(),
            width: 8,
            direction: Direction::Input,
        }]);
        let mut t = Trace::new(layout.clone(), false);
        t.push(CyclePacket::assemble(
            &layout,
            &[ChannelPacket::start_with(Bits::from_u64(8, 0x42))],
            false,
        ));
        let dir = std::env::temp_dir().join("vidi_runtime_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.vidi");
        save_trace(&path, &t).unwrap();
        let back = load_trace(&path).unwrap();
        assert_eq!(back, t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("vidi_runtime_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.vidi");
        std::fs::write(&path, b"not a trace").unwrap();
        assert!(matches!(
            load_trace(&path).unwrap_err(),
            RuntimeError::Format(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        assert!(matches!(
            load_trace("/nonexistent/vidi/trace").unwrap_err(),
            RuntimeError::Io(_)
        ));
    }
}
