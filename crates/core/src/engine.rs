//! The Vidi engine: encoder + store + decoder + replayers as one
//! synchronous component.
//!
//! The four cores keep the architectural roles of Fig 3 (trace encoder,
//! trace store, trace decoder, channel replayers); the engine is the
//! clocked container that wires their data paths together in a fixed,
//! documented order each cycle. Channel monitors remain independent
//! components that talk to the engine purely over signals — the
//! monitor↔encoder handshake is where all of the back-pressure subtlety
//! lives, so it stays at the signal level.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use vidi_chan::{Channel, Direction};
use vidi_hwsim::{Component, SignalPool, StateError, StateReader, StateWriter};
use vidi_trace::{SharedChunks, TraceLayout, TraceSource};

use crate::decoder::DecoderCore;
use crate::encoder::EncoderCore;
use crate::faults::FaultInjection;
use crate::port::EncoderPort;
use crate::replayer::ReplayerCore;
use crate::store::{RecordHandle, StoreCore};
use crate::vclock::VectorClock;

/// Live status of a replay, shared with the harness.
#[derive(Debug, Default)]
pub struct ReplayStatus {
    /// Cycle packets dispatched to replayers so far.
    pub dispatched: usize,
    /// Total cycle packets in the trace being replayed.
    pub total: usize,
    /// All packets dispatched and all replayers drained.
    pub complete: bool,
    /// Channels still holding undrained stream elements (diagnostics;
    /// populated once dispatch has finished but draining stalls).
    pub stalled: Vec<String>,
}

/// Shared handle to a replay's status.
pub type ReplayHandle = Rc<RefCell<ReplayStatus>>;

/// Aggregate statistics shared with the harness.
#[derive(Debug, Default)]
pub struct VidiStats {
    /// Cycles in which the encoder denied at least one reservation request
    /// (recording back-pressure).
    pub backpressure_cycles: u64,
    /// Channel-packet events folded into the trace.
    pub events_logged: u64,
    /// High-water mark of bytes buffered in the streaming trace sink
    /// awaiting a chunk flush — the bounded-memory witness: stays
    /// O(chunk size) no matter how long the recording runs.
    pub peak_buffered_bytes: u64,
    /// Chunks flushed from the trace sink to its backend.
    pub chunks_flushed: u64,
    /// Framed stream bytes the trace sink produced (compressed length
    /// under a block codec; equals the raw stream length otherwise).
    pub bytes_written: u64,
}

/// Shared handle to engine statistics.
pub type StatsHandle = Rc<RefCell<VidiStats>>;

/// The engine component. Construct through
/// [`VidiShim::install`](crate::shim::VidiShim::install) rather than
/// directly.
pub struct VidiEngine {
    encoder: Option<EncoderCore>,
    store: Option<StoreCore>,
    decoder: Option<DecoderCore>,
    replayers: Vec<ReplayerCore>,
    replay_channels: Vec<Rc<Channel>>,
    t_current: VectorClock,
    /// Scratch buffer for the per-cycle `t0` snapshot in `tick`, reused via
    /// `clone_from` to avoid a heap allocation every replay cycle.
    t_scratch: VectorClock,
    replay_status: Option<ReplayHandle>,
    stats: StatsHandle,
    /// Engine ticks elapsed since install; the key for injected panics and
    /// the cycle argument handed to the store's credit-arbitration hook.
    cycle: u64,
    /// Deterministic crash injection: panic when `cycle` reaches this value.
    panic_at: Option<u64>,
    /// Whether the most recent executed tick mutated anything beyond local
    /// time. Scheduler scratch, not serialized: conservatively `true`
    /// until a tick says otherwise (restores re-execute the next edge
    /// anyway).
    tick_active: bool,
    /// Whether the most recent executed tick changed eval-relevant state
    /// (the staged-FIFO occupancy the encoder's grant budget reads, or
    /// the queues, clocks and launches the replayers drive from).
    tick_changed: bool,
}

impl VidiEngine {
    /// Builds the engine for recording: encoder + store over the ports.
    pub(crate) fn recording(
        layout: Arc<TraceLayout>,
        ports: Vec<EncoderPort>,
        fifo_capacity: usize,
        record_output_content: bool,
        store_bytes_per_cycle: u32,
        trace_chunk_words: usize,
        trace_codec: vidi_trace::CodecId,
    ) -> (Self, RecordHandle, StatsHandle) {
        // The encoder and store share one layout allocation; only the
        // self-describing recorded trace keeps a deep copy of its own.
        let n = layout.len();
        let encoder = EncoderCore::new(
            Arc::clone(&layout),
            ports,
            fifo_capacity,
            record_output_content,
        );
        let (store, record) = StoreCore::new(
            layout,
            record_output_content,
            store_bytes_per_cycle,
            trace_chunk_words,
            trace_codec,
        );
        let stats: StatsHandle = Rc::new(RefCell::new(VidiStats::default()));
        (
            VidiEngine {
                encoder: Some(encoder),
                store: Some(store),
                decoder: None,
                replayers: Vec::new(),
                replay_channels: Vec::new(),
                t_current: VectorClock::zero(n),
                t_scratch: VectorClock::zero(n),
                replay_status: None,
                stats: Rc::clone(&stats),
                cycle: 0,
                panic_at: None,
                tick_active: true,
                tick_changed: true,
            },
            record,
            stats,
        )
    }

    /// Adds the replay path (decoder + replayers over the environment-side
    /// channels) to an engine. `env_channels` must follow layout order.
    pub(crate) fn with_replay(
        mut self,
        source: TraceSource<SharedChunks>,
        env_channels: Vec<(Channel, Direction)>,
        fetch_bytes_per_cycle: u32,
        orderless: bool,
    ) -> (Self, ReplayHandle) {
        let n = env_channels.len();
        let mut replayers = Vec::with_capacity(n);
        let mut channels = Vec::with_capacity(n);
        for (i, (ch, dir)) in env_channels.into_iter().enumerate() {
            // One shared handle per channel: the replayer and the engine's
            // diagnostic list point at the same allocation.
            let ch = Rc::new(ch);
            let mut r = ReplayerCore::new(Rc::clone(&ch), dir, i, n);
            if orderless {
                r.set_orderless();
            }
            replayers.push(r);
            channels.push(ch);
        }
        self.replayers = replayers;
        self.replay_channels = channels;
        let status: ReplayHandle = Rc::new(RefCell::new(ReplayStatus {
            total: usize::try_from(source.certified_packets()).unwrap_or(usize::MAX),
            ..ReplayStatus::default()
        }));
        self.decoder = Some(DecoderCore::new(source, fetch_bytes_per_cycle));
        self.replay_status = Some(Rc::clone(&status));
        (self, status)
    }

    /// Disables the recording path (plain-replay configurations).
    pub(crate) fn without_recording(mut self) -> Self {
        self.encoder = None;
        self.store = None;
        self
    }

    /// Arms the store's lossy-degradation path (no-op without a store).
    pub(crate) fn set_stall_budget(&mut self, budget: Option<u64>) {
        if let Some(store) = &mut self.store {
            store.set_stall_budget(budget);
        }
    }

    /// Distributes fault-injection hooks to whichever cores exist.
    pub(crate) fn apply_faults(&mut self, faults: FaultInjection) {
        if let Some(hook) = faults.encoder_stall {
            if let Some(encoder) = &mut self.encoder {
                encoder.set_stall_gate(hook);
            }
        }
        if let Some(store) = &mut self.store {
            if let Some(hook) = faults.store_write {
                store.set_write_hook(hook);
            }
            if let Some(hook) = faults.store_bandwidth {
                store.set_bandwidth_hook(hook);
            }
        }
        if let Some(hook) = faults.fetch_bandwidth {
            if let Some(decoder) = &mut self.decoder {
                decoder.set_bandwidth_hook(hook);
            }
        }
        if let Some(hook) = faults.store_credit {
            if let Some(store) = &mut self.store {
                store.set_credit_hook(hook);
            }
        }
        if let Some(cycle) = faults.panic_at {
            self.panic_at = Some(cycle);
        }
    }
}

impl Component for VidiEngine {
    fn name(&self) -> &str {
        "vidi.engine"
    }

    fn eval(&mut self, p: &mut SignalPool) {
        if let Some(encoder) = &mut self.encoder {
            encoder.eval(p);
        }
        for r in &mut self.replayers {
            r.eval(p, &self.t_current);
        }
    }

    fn tick(&mut self, p: &mut SignalPool) {
        // 0. Injected crash: a deterministic panic at a planned tick, used
        //    to prove a supervisor's catch-unwind boundary contains the
        //    failure. Fires before any core ticks so the flushed trace
        //    prefix at the panic point is exactly the pre-crash state.
        let cycle = self.cycle;
        self.cycle += 1;
        if self.panic_at == Some(cycle) {
            panic!("vidi-faults: injected panic at engine cycle {cycle}");
        }

        // 1. Recording path: collect this cycle's events, drain to storage.
        let mut enc_active = false;
        let mut store_active = false;
        let mut fifo_occupied = false;
        if let Some(encoder) = &mut self.encoder {
            enc_active = encoder.tick(p);
            if let Some(store) = &mut self.store {
                store_active = store.tick(encoder);
            }
            // Staged packets awaiting bandwidth credit make the edge
            // time-sensitive: future accrual drains them with no signal
            // change, so the engine must keep ticking until the FIFO is
            // empty.
            fifo_occupied = encoder.fifo_len() > 0;
            let mut stats = self.stats.borrow_mut();
            stats.backpressure_cycles = encoder.backpressure_cycles();
            stats.events_logged = encoder.events_logged();
        }
        // 2. Replay path. `t0` is the clock value this cycle's eval exposed;
        //    advancing decisions must use it so signal driving and stream
        //    consumption agree.
        let mut replay_active = false;
        if let Some(decoder) = &mut self.decoder {
            self.t_scratch.clone_from(&self.t_current);
            let t0 = &self.t_scratch;
            for (r, ch) in self.replayers.iter_mut().zip(&self.replay_channels) {
                if ch.fires(p) {
                    r.observe_fire();
                    self.t_current.increment(r.index());
                    replay_active = true;
                }
            }
            for r in &mut self.replayers {
                replay_active |= r.advance(t0);
            }
            replay_active |= decoder.tick(&mut self.replayers);
            if let Some(status) = &self.replay_status {
                let mut s = status.borrow_mut();
                s.dispatched = decoder.dispatched();
                let complete = decoder.done()
                    && self
                        .replayers
                        .iter()
                        .all(super::replayer::ReplayerCore::drained);
                replay_active |= complete != s.complete;
                s.complete = complete;
                // The stall report is a function of replay state alone:
                // an idle edge would rebuild it byte for byte.
                if replay_active && decoder.done() && !complete {
                    s.stalled = self
                        .replayers
                        .iter()
                        .zip(&self.replay_channels)
                        .filter(|(r, _)| !r.drained())
                        .map(|(r, ch)| {
                            format!(
                                "{} ({} queued: {})",
                                ch.name(),
                                r.queue_len(),
                                r.debug_head(&self.t_current)
                            )
                        })
                        .collect();
                }
            }
        }
        // A replay edge that moved nothing (no fire, no replayer step, no
        // fetch or dispatch) left the replayers' drive inputs unchanged.
        self.tick_changed = enc_active || store_active || replay_active;
        self.tick_active = enc_active || store_active || fifo_occupied || replay_active;
    }

    fn tick_changed_state(&self) -> bool {
        // A stall gate makes the encoder's grant budget a function of the
        // cycle counter: it must re-evaluate every cycle.
        self.encoder
            .as_ref()
            .is_some_and(EncoderCore::has_stall_gate)
            || self.tick_changed
    }

    fn tick_reads(&self) -> Option<Vec<vidi_hwsim::SignalId>> {
        // The engine's clock edge may only be scheduled when its behaviour
        // is a pure function of (port signals, replay handshakes, internal
        // state): no injected crash and no cycle-keyed fault or
        // arbitration hooks. Decoder credit is local time, bounded by
        // `tick_holdoff`.
        let time_sensitive = self.panic_at.is_some()
            || self
                .encoder
                .as_ref()
                .is_some_and(EncoderCore::has_stall_gate)
            || self.store.as_ref().is_some_and(StoreCore::time_sensitive)
            || self
                .decoder
                .as_ref()
                .is_some_and(DecoderCore::time_sensitive);
        if time_sensitive {
            return None;
        }
        let mut reads = self
            .encoder
            .as_ref()
            .map(EncoderCore::tick_read_signals)
            .unwrap_or_default();
        // The replay edge reads exactly `ch.fires(p)` per replayed channel.
        reads.extend(
            self.replay_channels
                .iter()
                .flat_map(|ch| [ch.valid, ch.ready]),
        );
        Some(reads)
    }

    fn tick_quiet(&self) -> bool {
        !self.tick_active
    }

    fn tick_holdoff(&self) -> Option<u64> {
        self.decoder
            .as_ref()
            .and_then(|d| d.tick_holdoff(&self.replayers))
    }

    fn tick_elided(&mut self) {
        self.cycle += 1;
        if let Some(encoder) = &mut self.encoder {
            encoder.tick_elided();
        }
        if let Some(store) = &mut self.store {
            store.tick_elided();
        }
        if let Some(decoder) = &mut self.decoder {
            decoder.tick_elided();
        }
    }

    fn fault(&self) -> Option<String> {
        if let Some(fault) = self.decoder.as_ref().and_then(DecoderCore::fault) {
            return Some(format!("vidi.decoder: {fault}"));
        }
        self.replayers
            .iter()
            .find_map(|r| r.fault().map(String::from))
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.bool(self.encoder.is_some());
        if let Some(encoder) = &self.encoder {
            encoder.save_state(w);
        }
        w.bool(self.store.is_some());
        if let Some(store) = &self.store {
            store.save_state(w);
        }
        w.bool(self.decoder.is_some());
        if let Some(decoder) = &self.decoder {
            decoder.save_state(w);
        }
        w.seq(self.replayers.iter(), |w, r| r.save_state(w));
        w.seq(self.t_current.counts().iter(), |w, &c| w.u64(c));
        match &self.replay_status {
            Some(status) => {
                let s = status.borrow();
                w.bool(true);
                w.usize(s.dispatched);
                w.usize(s.total);
                w.bool(s.complete);
                w.seq(s.stalled.iter(), |w, name| w.str(name));
            }
            None => w.bool(false),
        }
        let stats = self.stats.borrow();
        w.u64(stats.backpressure_cycles);
        w.u64(stats.events_logged);
        w.u64(self.cycle);
    }

    fn load_state(&mut self, r: &mut StateReader) -> Result<(), StateError> {
        let structural = |what: &str, expected: bool, found: bool| StateError::Mismatch {
            expected: format!("{what} present={expected}"),
            found: format!("present={found}"),
        };
        let has = r.bool()?;
        if has != self.encoder.is_some() {
            return Err(structural("encoder", self.encoder.is_some(), has));
        }
        if let Some(encoder) = &mut self.encoder {
            encoder.load_state(r)?;
        }
        let has = r.bool()?;
        if has != self.store.is_some() {
            return Err(structural("store", self.store.is_some(), has));
        }
        if let Some(store) = &mut self.store {
            store.load_state(r)?;
        }
        let has = r.bool()?;
        if has != self.decoder.is_some() {
            return Err(structural("decoder", self.decoder.is_some(), has));
        }
        if let Some(decoder) = &mut self.decoder {
            decoder.load_state(r)?;
        }
        let n = r.u32()? as usize;
        if n != self.replayers.len() {
            return Err(StateError::Mismatch {
                expected: format!("{} replayers", self.replayers.len()),
                found: format!("{n}"),
            });
        }
        for rep in &mut self.replayers {
            rep.load_state(r)?;
        }
        let counts = r.seq(StateReader::u64)?;
        if counts.len() != self.t_current.len() {
            return Err(StateError::Mismatch {
                expected: format!("t_current over {} channels", self.t_current.len()),
                found: format!("{} channels", counts.len()),
            });
        }
        self.t_current = VectorClock::from_counts(counts);
        let has = r.bool()?;
        if has != self.replay_status.is_some() {
            return Err(structural(
                "replay status",
                self.replay_status.is_some(),
                has,
            ));
        }
        if let Some(status) = &self.replay_status {
            let mut s = status.borrow_mut();
            s.dispatched = r.usize()?;
            s.total = r.usize()?;
            s.complete = r.bool()?;
            s.stalled = r.seq(|r| r.str().map(String::from))?;
        }
        let mut stats = self.stats.borrow_mut();
        stats.backpressure_cycles = r.u64()?;
        stats.events_logged = r.u64()?;
        drop(stats);
        self.cycle = r.u64()?;
        Ok(())
    }

    /// The deadlock diagnoser: reports blocked channels and stalled
    /// vector-clock entries when a watchdog asks why the design is stuck.
    fn diagnostics(&self, p: &SignalPool) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(encoder) = &self.encoder {
            if encoder.fifo_len() > 0 || encoder.backpressure_cycles() > 0 {
                out.push(format!(
                    "encoder fifo {} packets queued, {} back-pressure cycles, {} storm cycles",
                    encoder.fifo_len(),
                    encoder.backpressure_cycles(),
                    encoder.stall_storm_cycles(),
                ));
            }
        }
        if let Some(decoder) = &self.decoder {
            out.push(format!(
                "decoder dispatched {}/{} packets, t_current={}",
                decoder.dispatched(),
                decoder.total(),
                self.t_current,
            ));
            for (r, ch) in self.replayers.iter().zip(&self.replay_channels) {
                if r.drained() {
                    continue;
                }
                let valid = p.get_bool(ch.valid);
                let ready = p.get_bool(ch.ready);
                out.push(format!(
                    "channel {} blocked (valid={} ready={}): {}",
                    ch.name(),
                    valid,
                    ready,
                    r.debug_head(&self.t_current),
                ));
            }
        }
        out
    }
}

impl std::fmt::Debug for VidiEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VidiEngine")
            .field("recording", &self.encoder.is_some())
            .field("replaying", &self.decoder.is_some())
            .field("channels", &self.t_current.len())
            .finish()
    }
}
