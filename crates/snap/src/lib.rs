//! # vidi-snap — deterministic checkpoints, seekable replay, segmented
//! parallel verification
//!
//! Vidi's traces give transaction-deterministic replay; this crate adds
//! *random access* to those replays. Because the simulator can capture its
//! complete dynamic state at any cycle boundary
//! ([`vidi_hwsim::Simulator::snapshot`]) and restoring that state
//! reproduces the trajectory bit-exactly in either
//! [`vidi_hwsim::EvalMode`], a replay becomes seekable: snapshot every *N*
//! cycles while replaying once, then jump to any cycle by restoring the
//! nearest checkpoint and rolling forward ([`replay_from`]).
//!
//! The same property makes verification parallel: the trace between two
//! checkpoints replays identically whether or not the preceding segments
//! ran first, so [`ParallelVerifier`] partitions a replay at checkpoint
//! boundaries, re-runs the segments concurrently, and stitches the
//! results into the exact verdict — including the **first divergent
//! cycle** — that a serial sweep produces.
//!
//! Checkpoints persist in a CRC-framed, versioned container (the same
//! 64-byte storage-word framing as the trace store), with a separate
//! cycle → offset index so a seek reads one checkpoint's words rather
//! than the whole image. Damaged images degrade to their longest clean
//! checkpoint prefix, never a panic. The crate encodes and decodes images
//! ([`CheckpointLog::encode_framed`], [`CheckpointLog::decode_framed`],
//! [`CheckpointIndex::encode_framed`], [`CheckpointIndex::decode_framed`])
//! and leaves storage to the caller: the bytes go to storage through the
//! same `vidi_trace::ChunkSink`/`ChunkSource` interface as trace bytes
//! (read back with `vidi_trace::read_full`), wrapped in `vidi-host`'s
//! retry policy where the medium is flaky.

mod container;
mod error;
mod runner;
mod session;
mod verify;

pub use container::{
    load_checkpoint_at, Checkpoint, CheckpointIndex, CheckpointLog, IndexEntry,
    RecoveredCheckpoints, INDEX_MAGIC, SNAP_MAGIC, SNAP_VERSION,
};
pub use error::SnapError;
pub use runner::{checkpointed_replay, replay_from, CheckpointPolicy, SeekOutcome, FLUSH_MARGIN};
pub use session::SnapSession;
pub use verify::{ParallelVerifier, VerifyOptions, VerifyReport, VerifyVerdict};
