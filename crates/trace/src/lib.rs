//! # vidi-trace — the Vidi trace format and offline tools
//!
//! Everything that touches a recorded trace lives here: the channel/cycle
//! packet formats of §3.1–§3.2 (Fig 5), the self-describing binary trace
//! encoding, the CRC-framed 64-byte storage words of §3.3 with their
//! streaming sink and source, and the two offline analysis tools of §4.2 —
//! trace **validation** (divergence detection, §3.6/§5.4) and trace
//! **mutation** (event reordering for testing, §5.3).
//!
//! ```
//! use vidi_chan::Direction;
//! use vidi_hwsim::Bits;
//! use vidi_trace::{ChannelInfo, ChannelPacket, CyclePacket, Trace, TraceLayout};
//!
//! let layout = TraceLayout::new(vec![ChannelInfo {
//!     name: "ocl.aw".into(),
//!     width: 32,
//!     direction: Direction::Input,
//! }]);
//! let mut trace = Trace::new(layout.clone(), false);
//! trace.push(CyclePacket::assemble(
//!     &layout,
//!     &[ChannelPacket::start_with(Bits::from_u64(32, 0x1000))],
//!     false,
//! ));
//! let framed = trace.encode_framed();
//! let recovered = vidi_trace::recover_trace(&framed)?;
//! assert!(recovered.is_complete());
//! assert_eq!(recovered.trace, trace);
//! # Ok::<(), vidi_trace::TraceError>(())
//! ```

#![forbid(unsafe_code)]

mod codec;
mod error;
mod layout;
mod mutate;
mod packet;
mod shape;
mod stats;
mod store_format;
mod stream;
mod trace;
mod validate;

pub use codec::CodecId;
pub use error::TraceError;
pub use layout::{ChannelInfo, TraceLayout};
pub use mutate::{reorder_end_before, EndEventRef, MutateError};
pub use packet::{ChannelPacket, CyclePacket};
pub use stats::{ChannelStats, TraceStats};
pub use store_format::{
    crc32, recover_frames, storage_bytes, CheckedWord, FrameChecker, FrameRecovery, FrameWriter,
    StorageWord, FRAME_PAYLOAD_BYTES, FRAME_TRAILER_BYTES, STORAGE_WORD_BYTES,
};
pub use stream::{
    read_full, recover_trace, ChunkIoError, ChunkSink, ChunkSource, Cycles, RecoveredTrace,
    SharedChunks, SinkParts, SourcePos, TraceSink, TraceSource, DEFAULT_CHUNK_WORDS,
};
pub use trace::Trace;
pub use validate::{compare, Divergence, DivergenceReport};
