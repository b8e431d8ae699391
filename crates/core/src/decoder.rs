//! The trace decoder core (§3.4).
//!
//! During replay the decoder pulls cycle packets from a streaming
//! [`TraceSource`] (bandwidth-limited, like the recording path) and
//! decomposes each into per-channel stream elements: the channel's own
//! packet plus the cycle's `Ends` field, which every replayer needs to
//! maintain its `T_expected` vector clock. The source reads the framed
//! chunk image with a bounded readahead window, so replaying a trace never
//! materializes it: memory stays O(chunk size) regardless of trace length.

use std::rc::Rc;

use vidi_chan::Direction;
use vidi_hwsim::{StateError, StateReader, StateWriter};
use vidi_trace::{CyclePacket, SharedChunks, SourcePos, TraceLayout, TraceSource};

use crate::faults::BandwidthHook;
use crate::replayer::{ReplayElem, ReplayerCore};

/// The decoder's registered core, embedded in the Vidi engine.
pub struct DecoderCore {
    source: TraceSource<SharedChunks>,
    /// The source's layout and content mode, cloned once at construction so
    /// dispatch can borrow them while the source is borrowed mutably.
    layout: TraceLayout,
    record_output: bool,
    /// One-packet readahead: the next packet decoded from the source but
    /// not yet affordable/dispatchable.
    pending: Option<CyclePacket>,
    /// Source position at which `pending` begins, for checkpointing.
    pending_pos: SourcePos,
    dispatched: usize,
    fetch_bytes_per_cycle: u32,
    credit: u64,
    credit_cap: u64,
    /// Sub-byte accrual carried between cycles: the remainder of the
    /// bandwidth division, so a divisor larger than
    /// `fetch_bytes_per_cycle` degrades throughput instead of flooring
    /// per-cycle accrual to zero and starving replay forever.
    credit_rem: u64,
    cycle: u64,
    /// Injected fetch-bandwidth collapse (see [`crate::FaultInjection`]).
    bandwidth_hook: Option<BandwidthHook>,
    /// Sticky fetch failure: a chunk backend error during replay. Replay
    /// cannot proceed past it; surfaced through [`DecoderCore::fault`].
    io_fault: Option<String>,
}

impl DecoderCore {
    /// Creates a decoder over an opened trace source.
    pub fn new(source: TraceSource<SharedChunks>, fetch_bytes_per_cycle: u32) -> Self {
        let layout = source.layout().clone();
        let record_output = source.records_output_content();
        let pending_pos = source.position();
        DecoderCore {
            source,
            layout,
            record_output,
            pending: None,
            pending_pos,
            dispatched: 0,
            fetch_bytes_per_cycle,
            credit: 0,
            // Must admit the largest possible cycle packet (see StoreCore).
            credit_cap: ((fetch_bytes_per_cycle as u64).max(1) * 16).max(8192),
            credit_rem: 0,
            cycle: 0,
            bandwidth_hook: None,
            io_fault: None,
        }
    }

    /// Installs a per-cycle fetch-bandwidth divisor hook.
    pub fn set_bandwidth_hook(&mut self, hook: BandwidthHook) {
        self.bandwidth_hook = Some(hook);
    }

    /// Serializes the dispatch cursor, the source position, and the credit
    /// state for a checkpoint. The chunk image itself is part of the build
    /// configuration (the restored simulator is constructed over the same
    /// image), so only the position within it is captured.
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        w.usize(self.dispatched);
        let pos = if self.pending.is_some() {
            self.pending_pos
        } else {
            self.source.position()
        };
        w.u64(pos.payload_offset);
        w.u64(pos.packets_read);
        w.u64(pos.base_packets);
        w.u8(pos.codec);
        w.u32(pos.chunk_words);
        w.u64(self.credit);
        w.u64(self.credit_rem);
        w.u64(self.cycle);
    }

    /// Restores state written by [`DecoderCore::save_state`].
    pub(crate) fn load_state(&mut self, r: &mut StateReader) -> Result<(), StateError> {
        let dispatched = r.usize()?;
        if dispatched > self.total() {
            return Err(StateError::Mismatch {
                expected: format!("dispatch cursor <= {}", self.total()),
                found: format!("{dispatched}"),
            });
        }
        let pos = SourcePos {
            payload_offset: r.u64()?,
            packets_read: r.u64()?,
            base_packets: r.u64()?,
            codec: r.u8()?,
            chunk_words: r.u32()?,
        };
        self.source.seek(pos).map_err(|e| StateError::Mismatch {
            expected: "a certified trace-source position".into(),
            found: e.to_string(),
        })?;
        self.pending = None;
        self.pending_pos = pos;
        self.io_fault = None;
        self.dispatched = dispatched;
        self.credit = r.u64()?;
        self.credit_rem = r.u64()?;
        self.cycle = r.u64()?;
        Ok(())
    }

    /// Number of cycle packets dispatched so far.
    pub fn dispatched(&self) -> usize {
        self.dispatched
    }

    /// Total certified cycle packets in the trace being replayed.
    pub fn total(&self) -> usize {
        usize::try_from(self.source.certified_packets()).unwrap_or(usize::MAX)
    }

    /// Whether every certified packet has been dispatched to the replayers.
    pub fn done(&self) -> bool {
        self.pending.is_none() && self.dispatched >= self.total()
    }

    /// A sticky fetch failure, if the chunk backend errored mid-replay.
    pub fn fault(&self) -> Option<&str> {
        self.io_fault.as_deref()
    }

    /// Whether a fetch-bandwidth hook makes accrual a function of the
    /// cycle counter.
    pub(crate) fn time_sensitive(&self) -> bool {
        self.bandwidth_hook.is_some()
    }

    /// Idle edges left before accrued credit pays for the pending packet:
    /// the edge after that many elided ones is the first that can
    /// dispatch. `None` when only a replayer pop can unblock dispatch (a
    /// queue is full), when nothing is pending (the source is exhausted or
    /// faulted), or when credit can never cover the packet.
    ///
    /// Exact without a bandwidth hook, where every edge accrues
    /// `fetch_bytes_per_cycle` and `credit_rem` stays zero.
    pub(crate) fn tick_holdoff(&self, replayers: &[ReplayerCore]) -> Option<u64> {
        let packet = self.pending.as_ref()?;
        if !replayers.iter().all(ReplayerCore::has_space) {
            return None;
        }
        let size = self.source.wire_len(packet);
        let rate = u64::from(self.fetch_bytes_per_cycle);
        if size > self.credit_cap || rate == 0 {
            return None;
        }
        // Edge `k` (1-based) sees `credit + k * rate` before its check.
        Some(
            size.saturating_sub(self.credit)
                .div_ceil(rate)
                .saturating_sub(1),
        )
    }

    /// Replays one elided clock edge: an idle, unhooked tick (nothing
    /// fetched, nothing dispatched) mutates only the cycle counter and the
    /// saturating credit accrual.
    pub(crate) fn tick_elided(&mut self) {
        self.cycle += 1;
        let accrued = self.credit_rem + u64::from(self.fetch_bytes_per_cycle);
        self.credit = (self.credit + accrued).min(self.credit_cap);
        self.credit_rem = 0;
    }

    /// Clock-edge phase: dispatches packets to replayers as long as the
    /// fetch bandwidth budget and every replayer's queue space allow.
    /// Returns whether the edge fetched or dispatched a packet (or latched
    /// a fetch fault): anything beyond what [`DecoderCore::tick_elided`]
    /// replays.
    pub fn tick(&mut self, replayers: &mut [ReplayerCore]) -> bool {
        let mut active = false;
        let cycle = self.cycle;
        self.cycle += 1;
        let divisor = self.bandwidth_hook.as_mut().map_or(1, |h| h(cycle).max(1)) as u64;
        // Fractional accrual: credit the whole-byte quotient now and carry
        // the remainder, so mean accrual is fetch/divisor even when the
        // divisor exceeds fetch_bytes_per_cycle (a collapse that would
        // otherwise floor to zero bytes/cycle and stall replay permanently).
        let accrued = self.credit_rem + self.fetch_bytes_per_cycle as u64;
        self.credit = (self.credit + accrued / divisor).min(self.credit_cap);
        self.credit_rem = accrued % divisor;
        loop {
            if self.pending.is_none() {
                if self.io_fault.is_some() {
                    break;
                }
                let pos = self.source.position();
                match self.source.next_packet() {
                    Ok(Some(packet)) => {
                        self.pending = Some(packet);
                        self.pending_pos = pos;
                        active = true;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        self.io_fault = Some(format!("trace fetch failed: {e}"));
                        active = true;
                        break;
                    }
                }
            }
            if !replayers.iter().all(ReplayerCore::has_space) {
                break;
            }
            let Some(packet) = &self.pending else { break };
            let size = self.source.wire_len(packet);
            if self.credit < size {
                break;
            }
            self.credit -= size;
            let packet = self.pending.take().expect("pending packet checked above");
            let ends: Rc<Vec<u16>> = Rc::new(
                packet
                    .ends
                    .iter()
                    .enumerate()
                    .filter(|(_, &e)| e)
                    .map(|(i, _)| {
                        u16::try_from(i)
                            .expect("TraceLayout::try_new caps layouts at u16::MAX channels")
                    })
                    .collect(),
            );
            let channel_packets = packet.disassemble(&self.layout, self.record_output);
            for (idx, (info, pkt)) in self
                .layout
                .channels()
                .iter()
                .zip(channel_packets)
                .enumerate()
            {
                // Replayers only need content for input starts; output
                // contents (present in §3.6 reference traces) are checked by
                // the validation recording path, not the replayer.
                let content = match info.direction {
                    Direction::Input => pkt.content,
                    Direction::Output => None,
                };
                replayers[idx].push(ReplayElem {
                    start: pkt.start,
                    end: pkt.end,
                    content,
                    ends: Rc::clone(&ends),
                });
            }
            self.dispatched += 1;
            active = true;
        }
        active
    }
}

impl std::fmt::Debug for DecoderCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecoderCore")
            .field("dispatched", &self.dispatched)
            .field("total", &self.source.certified_packets())
            .field("credit", &self.credit)
            .field("io_fault", &self.io_fault)
            .finish()
    }
}
