//! # vidi-host — the external environment
//!
//! Vidi records and replays at the boundary between an FPGA application and
//! its external environment (Fig 3). This crate is that environment:
//! scripted [`CpuThread`]s issuing MMIO and DMA operations with seeded
//! timing jitter, a sparse [`HostMemory`] backing CPU DRAM, the
//! [`HostMemSubordinate`] that services FPGA-initiated (`pcim`) DMA, and
//! the software runtime's trace file I/O (§4.2): [`save_trace`] and
//! [`load_trace`] over the file chunk backends ([`FileChunkSink`],
//! [`FileChunkSource`]), each operation retried under a [`RetryPolicy`]
//! (§7). Those backends implement `vidi-trace`'s
//! [`ChunkSink`](vidi_trace::ChunkSink)/[`ChunkSource`](vidi_trace::ChunkSource),
//! the one interface through which trace and checkpoint bytes reach
//! storage.
//!
//! During recording these components drive the environment side of the
//! [`vidi_core::VidiShim`]; during replay they are simply omitted — Vidi's
//! channel replayers take their place, which is the whole point.

#![forbid(unsafe_code)]

mod chunks;
mod cpu;
mod masters;
mod mem;
mod runtime;
mod subordinate;

pub use chunks::{file_chunk_source, FileChunkSink, FileChunkSource, RetryPolicy, Retrying};
pub use cpu::{CpuHandle, CpuResults, CpuThread, HostOp};
pub use masters::{AxiLiteMaster, AxiMaster, DMA_BURST_BEATS};
pub use mem::HostMemory;
pub use runtime::{load_trace, save_trace, RuntimeError};
pub use subordinate::HostMemSubordinate;
