//! Typed errors for the checkpoint subsystem.

use vidi_hwsim::{SimError, StateError};

/// Everything that can go wrong while checkpointing, seeking, or verifying.
#[derive(Debug)]
pub enum SnapError {
    /// A snapshot blob failed to serialize or restore.
    State(StateError),
    /// The simulator faulted while rolling a segment forward.
    Sim(SimError),
    /// A checkpoint image is structurally invalid (bad magic, unreadable
    /// header, or an unsupported container version).
    Format(String),
    /// No checkpoint exists at or before the requested cycle.
    NoCheckpoint {
        /// The seek target that could not be served.
        cycle: u64,
    },
    /// The session under checkpoint or verification is not in a replay
    /// mode, or records no validation trace.
    NotReplaying,
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::State(e) => write!(f, "snapshot state error: {e}"),
            SnapError::Sim(e) => write!(f, "simulation error: {e}"),
            SnapError::Format(detail) => write!(f, "checkpoint image malformed: {detail}"),
            SnapError::NoCheckpoint { cycle } => {
                write!(f, "no checkpoint at or before cycle {cycle}")
            }
            SnapError::NotReplaying => {
                write!(f, "session is not replaying with a validation trace")
            }
        }
    }
}

impl std::error::Error for SnapError {}

impl From<StateError> for SnapError {
    fn from(e: StateError) -> Self {
        SnapError::State(e)
    }
}

impl From<SimError> for SnapError {
    fn from(e: SimError) -> Self {
        SnapError::Sim(e)
    }
}
