//! # vidi-core — transaction-deterministic record/replay
//!
//! The paper's primary contribution, reproduced on a simulated substrate:
//!
//! * **Coarse-grained input recording** (§3.1): [`ChannelMonitor`]s
//!   transparently interpose on every channel at the record/replay boundary
//!   and capture transaction start events, contents, and end events —
//!   never per-cycle signal dumps.
//! * **Transaction determinism** (§3.5): during replay, [`VidiEngine`]'s
//!   channel replayers enforce, via [`VectorClock`]s, that every transaction
//!   end event preserves its recorded happens-before relationships with all
//!   other transaction events.
//! * **Back-pressured tracing** (§3.3, §6): the trace encoder/store pair
//!   stalls the application instead of dropping events when storage
//!   bandwidth is exceeded, which is what lets Vidi record arbitrarily long
//!   executions where physical-timestamp approaches lose data.
//! * **Divergence detection** (§3.6): record a reference trace (R2), replay
//!   while re-recording (R3), and compare with
//!   [`vidi_trace::compare`].
//!
//! The entry point is [`VidiShim::install`], which wires all of the above
//! around an application's channels in one call:
//!
//! ```
//! use vidi_chan::{Channel, Direction};
//! use vidi_core::{VidiConfig, VidiShim};
//! use vidi_hwsim::Simulator;
//!
//! let mut sim = Simulator::new();
//! let cmd = Channel::new(sim.pool_mut(), "cmd", 32);
//! let resp = Channel::new(sim.pool_mut(), "resp", 32);
//! let shim = VidiShim::install(
//!     &mut sim,
//!     &[(cmd, Direction::Input), (resp, Direction::Output)],
//!     VidiConfig::record(),
//! )?;
//! assert_eq!(shim.env_channels().len(), 2);
//! # Ok::<(), vidi_core::ShimError>(())
//! ```

#![forbid(unsafe_code)]

mod config;
mod decoder;
pub mod drive;
mod encoder;
mod engine;
mod faults;
mod monitor;
mod port;
mod replay_input;
mod replayer;
mod shim;
mod store;
mod vclock;

pub use config::{VidiConfig, VidiMode};
pub use decoder::DecoderCore;
pub use drive::{
    DriveSession, RawSession, SessionCursor, Stop, StopEvent, StopReason, WatchCond, Watchpoint,
};
pub use encoder::EncoderCore;
pub use engine::{ReplayHandle, ReplayStatus, StatsHandle, VidiEngine, VidiStats};
pub use faults::{
    BandwidthHook, CreditHook, FaultInjection, StallHook, StoreWriteHook, StoreWriteOutcome,
};
pub use monitor::{ChannelMonitor, MonitorMode};
pub use port::EncoderPort;
pub use replay_input::ReplayInput;
pub use replayer::{ReplayElem, ReplayerCore};
pub use shim::{ReplayProgress, ShimError, VidiShim};
pub use store::{RecordHandle, RecordedRun};
pub use vclock::VectorClock;
