//! Channel replayers (§3.5).
//!
//! During replay each channel has a replayer driving the environment side of
//! the channel. Input replayers control when each input transaction starts
//! and its content (driving VALID/DATA); output replayers control when each
//! output transaction ends (driving READY). Replayers coordinate through
//! vector clocks: each holds `T_expected`, accumulated from the `Ends`
//! fields of consumed cycle packets, and proceeds with an event only once
//! the shared `T_current` (completed-transaction counts broadcast by all
//! replayers) satisfies `T_current ≥ T_expected`.

use std::collections::VecDeque;
use std::rc::Rc;

use vidi_chan::{Channel, Direction};
use vidi_hwsim::{Bits, SignalPool, StateError, StateReader, StateWriter};

use crate::vclock::VectorClock;

/// One element of a replayer's event stream: the channel's own packet for a
/// recorded cycle plus the cycle's `Ends` field (§3.4).
#[derive(Clone, Debug)]
pub struct ReplayElem {
    /// A transaction start (input channels only).
    pub start: bool,
    /// A transaction end.
    pub end: bool,
    /// Content to drive on a start.
    pub content: Option<Bits>,
    /// Channel indices that completed a transaction in this cycle packet,
    /// shared across all replayers fed from the same packet.
    pub ends: Rc<Vec<u16>>,
}

impl ReplayElem {
    /// Whether the element carries no event for this channel (it still
    /// advances `T_expected`).
    pub fn is_bookkeeping(&self) -> bool {
        !self.start && !self.end
    }
}

/// The per-channel replayer core, embedded in the Vidi engine.
#[derive(Debug)]
pub struct ReplayerCore {
    /// Shared with the engine's `replay_channels` list — `Rc` so the
    /// channel handle (and its name allocation) exists once per channel
    /// rather than once per holder.
    channel: Rc<Channel>,
    direction: Direction,
    /// This channel's index in the trace layout (and in vector clocks).
    index: usize,
    queue: VecDeque<ReplayElem>,
    queue_cap: usize,
    t_expected: VectorClock,
    /// Content currently driven on an in-flight input transaction.
    driving: Option<Bits>,
    /// Fires observed on this channel not yet matched to an end element.
    pending_fires: u64,
    /// Total transactions replayed on this channel.
    replayed: u64,
    /// Whether happens-before relationships are enforced. `false` yields
    /// the order-less baseline of §1 (DebugGovernor-style): each channel's
    /// contents are replayed independently, with no cross-channel ordering.
    enforce_ordering: bool,
    /// A latched unrecoverable condition (e.g. a corrupt trace element),
    /// surfaced through the engine as a typed
    /// [`SimError::ComponentFault`](vidi_hwsim::SimError::ComponentFault)
    /// instead of a panic.
    fault: Option<String>,
}

impl ReplayerCore {
    /// Creates a replayer for the environment side of `channel`.
    pub fn new(
        channel: Rc<Channel>,
        direction: Direction,
        index: usize,
        n_channels: usize,
    ) -> Self {
        ReplayerCore {
            channel,
            direction,
            index,
            queue: VecDeque::new(),
            queue_cap: 64,
            t_expected: VectorClock::zero(n_channels),
            driving: None,
            pending_fires: 0,
            replayed: 0,
            enforce_ordering: true,
            fault: None,
        }
    }

    /// The latched fault, if any.
    pub fn fault(&self) -> Option<&str> {
        self.fault.as_deref()
    }

    /// Disables happens-before enforcement (the order-less baseline).
    pub fn set_orderless(&mut self) {
        self.enforce_ordering = false;
    }

    fn check(&self, t_current: &VectorClock) -> bool {
        !self.enforce_ordering || t_current.geq(&self.t_expected)
    }

    /// Whether the replayer can accept another stream element.
    pub fn has_space(&self) -> bool {
        self.queue.len() < self.queue_cap
    }

    /// Feeds one stream element (called by the trace decoder).
    pub fn push(&mut self, elem: ReplayElem) {
        debug_assert!(self.has_space());
        self.queue.push_back(elem);
    }

    /// Whether all fed elements have been fully replayed.
    pub fn drained(&self) -> bool {
        self.queue.is_empty() && self.driving.is_none()
    }

    /// Number of queued stream elements (diagnostics).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Describes the head element and clock state (diagnostics).
    pub fn debug_head(&self, t_current: &VectorClock) -> String {
        match self.queue.front() {
            None => format!("empty, driving={}", self.driving.is_some()),
            Some(h) => format!(
                "head(start={} end={}) check={} texp={} tcur={} pending_fires={} driving={}",
                h.start,
                h.end,
                t_current.geq(&self.t_expected),
                self.t_expected,
                t_current,
                self.pending_fires,
                self.driving.is_some(),
            ),
        }
    }

    /// Total transactions replayed on this channel.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// The channel index in the layout.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Combinational phase: drives the environment side of the channel.
    pub fn eval(&mut self, p: &mut SignalPool, t_current: &VectorClock) {
        match self.direction {
            Direction::Input => {
                if let Some(d) = &self.driving {
                    p.set_bool(self.channel.valid, true);
                    p.set(self.channel.data, d);
                    return;
                }
                // Drive straight from the borrowed head: this runs on every
                // settle pass that evaluates the engine.
                let launch = self
                    .queue
                    .front()
                    .filter(|head| head.start && self.check(t_current))
                    .map(|head| head.content.as_ref());
                match launch {
                    Some(Some(content)) => {
                        p.set_bool(self.channel.valid, true);
                        p.set(self.channel.data, content);
                    }
                    Some(None) => {
                        // A start element with no content is a corrupt or
                        // mis-assembled trace: latch a typed fault (the
                        // engine aborts the run with it) instead of
                        // panicking the whole process.
                        if self.fault.is_none() {
                            self.fault = Some(format!(
                                "replay trace start on {} has no content",
                                self.channel.name()
                            ));
                        }
                        p.set_bool(self.channel.valid, false);
                    }
                    None => p.set_bool(self.channel.valid, false),
                }
            }
            Direction::Output => {
                let accept = self
                    .queue
                    .front()
                    .is_some_and(|head| head.end && self.check(t_current));
                p.set_bool(self.channel.ready, accept);
            }
        }
    }

    /// Records a fire observed on this channel at the clock edge.
    pub fn observe_fire(&mut self) {
        self.pending_fires += 1;
        self.replayed += 1;
        self.driving = None;
    }

    /// Clock-edge phase: advances through the stream as far as the vector
    /// clock `t0` (the value visible to this cycle's `eval`) permits.
    /// Returns whether anything moved — an element popped or a launch
    /// latched into `driving`. A `false` return left the replayer exactly
    /// as it was, so an edge that repeats it with the same `t0` and no new
    /// fire is idle.
    pub fn advance(&mut self, t0: &VectorClock) -> bool {
        let mut moved = false;
        while let Some(head) = self.queue.front() {
            let pop = if head.is_bookkeeping() {
                true
            } else if self.enforce_ordering && !t0.geq(&self.t_expected) {
                false
            } else {
                match self.direction {
                    Direction::Input if head.start && head.end => {
                        // Same-cycle start+fire recorded: pop at fire.
                        if self.pending_fires > 0 {
                            self.pending_fires -= 1;
                            true
                        } else {
                            // Launched (eval asserted valid); hold until fire.
                            if self.driving.is_none() && head.content.is_some() {
                                self.driving = head.content.clone();
                                moved = true;
                            }
                            false
                        }
                    }
                    Direction::Input if head.start => {
                        // Start-only: transaction launched this cycle. If an
                        // unmatched fire is pending it can only be this
                        // launch completing in its very first cycle (all
                        // earlier end elements were matched before reaching
                        // this element), so leave `driving` clear and let
                        // the later end element consume the fire.
                        if self.pending_fires == 0 && self.driving.is_none() {
                            self.driving = head.content.clone();
                        }
                        true
                    }
                    // End-only input (the application completes input
                    // transactions) or an output end: match it against an
                    // observed fire.
                    _ => {
                        debug_assert!(
                            self.direction == Direction::Input || head.end,
                            "output stream elements are end events"
                        );
                        if self.pending_fires > 0 {
                            self.pending_fires -= 1;
                            true
                        } else {
                            false
                        }
                    }
                }
            };
            if !pop {
                break;
            }
            let ends = Rc::clone(&head.ends);
            self.queue.pop_front();
            self.consume_ends(&ends);
            moved = true;
        }
        moved
    }

    fn consume_ends(&mut self, ends: &[u16]) {
        for &c in ends {
            self.t_expected.increment(c as usize);
        }
    }

    /// Serializes the stream queue, vector clock, and drive state for a
    /// checkpoint.
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        w.seq(self.queue.iter(), |w, e| {
            w.bool(e.start);
            w.bool(e.end);
            w.opt_bits(e.content.as_ref());
            w.seq(e.ends.iter(), |w, &c| w.u16(c));
        });
        w.seq(self.t_expected.counts().iter(), |w, &c| w.u64(c));
        w.opt_bits(self.driving.as_ref());
        w.u64(self.pending_fires);
        w.u64(self.replayed);
        match &self.fault {
            Some(msg) => {
                w.bool(true);
                w.str(msg);
            }
            None => w.bool(false),
        }
    }

    /// Restores state written by [`ReplayerCore::save_state`]. The `Ends`
    /// lists, shared across replayers when fed by the decoder, are rebuilt
    /// unshared — semantics are unchanged, only allocation sharing is lost.
    ///
    /// Every restored content payload must match the channel's data width,
    /// every `Ends` index must name a layout channel, and no output element
    /// may start a transaction: each would otherwise panic on a later cycle
    /// (`SignalPool::set`'s width assertion, `VectorClock::increment`'s
    /// index, or `advance`'s output-element assertion).
    pub(crate) fn load_state(&mut self, r: &mut StateReader) -> Result<(), StateError> {
        let width = self.channel.width();
        let n = self.t_expected.len();
        let content = |r: &mut StateReader| -> Result<Option<Bits>, StateError> {
            if r.bool()? {
                Ok(Some(r.bits_expect(width, "replay content")?))
            } else {
                Ok(None)
            }
        };
        let channel_index = |r: &mut StateReader| -> Result<u16, StateError> {
            let c = r.u16()?;
            if usize::from(c) >= n {
                return Err(StateError::Mismatch {
                    expected: format!("an Ends index below {n}"),
                    found: format!("{c}"),
                });
            }
            Ok(c)
        };
        let direction = self.direction;
        self.queue = r
            .seq(|r| {
                let start = r.bool()?;
                if start && direction == Direction::Output {
                    return Err(StateError::Mismatch {
                        expected: "no transaction start on an output channel".into(),
                        found: "a start element".into(),
                    });
                }
                Ok(ReplayElem {
                    start,
                    end: r.bool()?,
                    content: content(r)?,
                    ends: Rc::new(r.seq(channel_index)?),
                })
            })?
            .into();
        let counts = r.seq(StateReader::u64)?;
        if counts.len() != self.t_expected.len() {
            return Err(StateError::Mismatch {
                expected: format!("vector clock over {} channels", self.t_expected.len()),
                found: format!("{} channels", counts.len()),
            });
        }
        self.t_expected = VectorClock::from_counts(counts);
        self.driving = content(r)?;
        self.pending_fires = r.u64()?;
        self.replayed = r.u64()?;
        self.fault = if r.bool()? {
            Some(r.str()?.to_string())
        } else {
            None
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An 8-bit replayer over a two-channel layout.
    fn replayer(direction: Direction) -> ReplayerCore {
        let mut pool = SignalPool::new();
        let ch = Rc::new(Channel::new(&mut pool, "env.c", 8));
        ReplayerCore::new(ch, direction, 0, 2)
    }

    /// A saved replayer state holding one start element with `content`
    /// and `ends`, driving `driving`.
    fn state(content: &Bits, ends: &[u16], driving: Option<&Bits>) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.seq(std::iter::once(()), |w, ()| {
            w.bool(true);
            w.bool(false);
            w.opt_bits(Some(content));
            w.seq(ends.iter(), |w, &c| w.u16(c));
        });
        w.seq([0u64, 0].iter(), |w, &c| w.u64(c));
        w.opt_bits(driving);
        w.u64(0);
        w.u64(0);
        w.bool(false);
        w.into_bytes()
    }

    fn restore(blob: &[u8]) -> Result<(), StateError> {
        replayer(Direction::Input).load_state(&mut StateReader::new(blob))
    }

    #[test]
    fn restore_accepts_a_well_formed_state() {
        let byte = Bits::from_u64(8, 0x5a);
        restore(&state(&byte, &[0, 1], Some(&byte))).expect("well-formed state");
    }

    #[test]
    fn restore_refuses_an_ends_index_past_the_layout() {
        // Accepted, the next `advance` would index past the vector clock.
        let err = restore(&state(&Bits::from_u64(8, 1), &[2], None))
            .expect_err("channel 2 of a two-channel layout");
        assert!(err.to_string().contains("Ends index"), "{err}");
    }

    #[test]
    fn restore_refuses_content_of_the_wrong_width() {
        // Accepted, the next `eval` would drive 16 bits onto an 8-bit
        // channel and trip `SignalPool::set`'s width assertion.
        let wide = Bits::from_u64(16, 0x5a5a);
        let byte = Bits::from_u64(8, 0x5a);
        for blob in [state(&wide, &[0], None), state(&byte, &[0], Some(&wide))] {
            let err = restore(&blob).expect_err("a 16-bit payload on an 8-bit channel");
            assert!(err.to_string().contains("replay content"), "{err}");
        }
    }

    #[test]
    fn restore_refuses_a_start_on_an_output_channel() {
        // Accepted, the next `advance` would trip its output-element
        // assertion (a panic in debug builds).
        let blob = state(&Bits::from_u64(8, 1), &[0], None);
        let err = replayer(Direction::Output)
            .load_state(&mut StateReader::new(&blob))
            .expect_err("a start element on an output channel");
        assert!(err.to_string().contains("output channel"), "{err}");
    }
}
