//! Channel monitors (§3.1).
//!
//! A channel monitor transparently interposes on one channel between the
//! external environment and the FPGA application by coordinating
//! transactions across three channels: environment↔monitor, monitor↔app,
//! and monitor↔trace-encoder. Input-channel monitors perform coarse-grained
//! input recording (start event, content, end event); output-channel
//! monitors record end events, plus contents when divergence detection is
//! enabled (§3.6).
//!
//! The delicate part — the part the paper formally verified — is completing
//! three handshakes *simultaneously* at a transaction's end even though the
//! encoder may be back-pressured. The monitor achieves this with an eager
//! reservation: it never exposes a transaction to the downstream party until
//! the encoder has guaranteed (via `resv_grant`) that the start event is
//! logged *and* the eventual end event can be accepted in whatever cycle it
//! arrives.

use vidi_chan::{Channel, Direction};
use vidi_hwsim::{Bits, Component, SignalId, SignalPool, StateError, StateReader, StateWriter};

use crate::port::EncoderPort;

/// Operating mode of one monitor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MonitorMode {
    /// Pure combinational passthrough (R1 and plain replay).
    Transparent,
    /// Record events through the encoder port.
    Record,
}

#[derive(Clone, Debug)]
enum State {
    /// No transaction in flight past the monitor.
    Idle,
    /// A transaction is exposed downstream; the reservation is held and the
    /// latched content is being driven (input monitors only).
    Active(Bits),
    /// An output transaction is exposed to the environment; reservation held.
    Exposed,
}

/// A monitor interposed on one channel.
///
/// For an input channel the *environment* is the sender (`env` channel) and
/// the application the receiver (`app` channel). For an output channel the
/// roles are reversed. Either way the monitor owns the wiring between the
/// two channels.
#[derive(Debug)]
pub struct ChannelMonitor {
    name: String,
    direction: Direction,
    env: Channel,
    app: Channel,
    port: EncoderPort,
    mode: MonitorMode,
    /// Capture content of output transactions (§3.6 divergence detection).
    capture_output_content: bool,
    /// Runtime record-enable line (§4.2): while low, a Record-mode monitor
    /// behaves transparently. The switch only takes effect between
    /// transactions — an in-flight transaction always finishes being
    /// recorded, so the trace never holds a start without its end.
    record_enable: Option<SignalId>,
    state: State,
    transactions: u64,
    /// Whether the last `tick` transitioned `state` — the only internal
    /// state `eval` depends on. Lets the compiled scheduler skip idle
    /// monitors (see [`Component::tick_changed_state`]).
    state_changed_in_tick: bool,
    /// Whether the last executed `tick` mutated *nothing* (no firing, no
    /// state transition, no flag reset). Together with the declared
    /// [`Component::tick_reads`] set this lets the compiled scheduler skip
    /// the clock edges of idle monitors entirely. Not serialized: a restore
    /// conservatively re-runs every tick.
    tick_was_quiet: bool,
}

impl ChannelMonitor {
    /// Creates a monitor between `env` and `app` sides of one logical
    /// channel.
    ///
    /// # Panics
    ///
    /// Panics if the two channels have different widths.
    pub fn new(
        direction: Direction,
        env: Channel,
        app: Channel,
        port: EncoderPort,
        mode: MonitorMode,
        capture_output_content: bool,
    ) -> Self {
        assert_eq!(env.width(), app.width(), "monitor channel width mismatch");
        ChannelMonitor {
            name: format!("monitor.{}", app.name()),
            direction,
            env,
            app,
            port,
            mode,
            capture_output_content,
            record_enable: None,
            state: State::Idle,
            transactions: 0,
            state_changed_in_tick: false,
            tick_was_quiet: false,
        }
    }

    /// Attaches the runtime record-enable line (§4.2). Only meaningful for
    /// [`MonitorMode::Record`] monitors; when the line is low the monitor
    /// passes transactions through without recording them.
    pub fn set_record_enable(&mut self, line: SignalId) {
        self.record_enable = Some(line);
    }

    /// Whether recording is active this cycle (enable line high or absent),
    /// or an in-flight recorded transaction still needs its end event.
    fn recording_now(&self, p: &SignalPool) -> bool {
        if !matches!(self.state, State::Idle) {
            return true;
        }
        self.record_enable.is_none_or(|l| p.get_bool(l))
    }

    /// Total transactions that have completed through this monitor.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// `(sender_side, receiver_side)` channels for the current direction.
    fn sides(&self) -> (&Channel, &Channel) {
        match self.direction {
            Direction::Input => (&self.env, &self.app),
            Direction::Output => (&self.app, &self.env),
        }
    }

    fn eval_transparent(&self, p: &mut SignalPool) {
        let (s, r) = self.sides();
        p.copy(r.valid, s.valid);
        p.copy(r.data, s.data);
        p.copy(s.ready, r.ready);
        p.set_bool(self.port.pkt_valid, false);
        p.set_bool(self.port.resv_req, false);
        p.set_bool(self.port.resv_hold, false);
    }

    fn eval_record_input(&self, p: &mut SignalPool) {
        let sender = self.env.clone();
        let receiver = self.app.clone();
        match &self.state {
            State::Idle => {
                p.set_bool(self.port.resv_hold, false);
                let sv = p.get_bool(sender.valid);
                p.set_bool(self.port.resv_req, sv);
                let grant = sv && p.get_bool(self.port.resv_grant);
                if grant {
                    // Start is logged this cycle; expose to the receiver in
                    // the same cycle (back-to-back throughput when the
                    // encoder keeps up).
                    p.set_bool(receiver.valid, true);
                    p.copy(receiver.data, sender.data);
                    p.copy(sender.ready, receiver.ready);
                    let fires = p.get_bool(receiver.ready);
                    p.set_bool(self.port.pkt_valid, true);
                    p.set_bool(self.port.pkt_start, true);
                    p.set_bool(self.port.pkt_end, fires);
                    p.copy(self.port.pkt_content, sender.data);
                } else {
                    p.set_bool(receiver.valid, false);
                    p.set_bool(sender.ready, false);
                    self.present_nothing(p);
                }
            }
            State::Active(content) => {
                // Start already logged; reservation held for the end event.
                p.set_bool(self.port.resv_req, false);
                p.set_bool(self.port.resv_hold, true);
                p.set_bool(receiver.valid, true);
                p.set(receiver.data, content);
                p.copy(sender.ready, receiver.ready);
                let fires = p.get_bool(receiver.ready);
                p.set_bool(self.port.pkt_valid, fires);
                p.set_bool(self.port.pkt_start, false);
                p.set_bool(self.port.pkt_end, true);
            }
            State::Exposed => unreachable!("input monitor never enters Exposed"),
        }
    }

    fn eval_record_output(&self, p: &mut SignalPool) {
        let sender = self.app.clone();
        let receiver = self.env.clone();
        let exposed = matches!(self.state, State::Exposed);
        if exposed {
            p.set_bool(self.port.resv_req, false);
            p.set_bool(self.port.resv_hold, true);
        } else {
            p.set_bool(self.port.resv_hold, false);
            let sv = p.get_bool(sender.valid);
            p.set_bool(self.port.resv_req, sv);
        }
        let grant = exposed || (p.get_bool(sender.valid) && p.get_bool(self.port.resv_grant));
        if grant {
            p.set_bool(receiver.valid, true);
            p.copy(receiver.data, sender.data);
            p.copy(sender.ready, receiver.ready);
            let fires = p.get_bool(receiver.ready);
            p.set_bool(self.port.pkt_valid, fires);
            p.set_bool(self.port.pkt_start, false);
            p.set_bool(self.port.pkt_end, true);
            if self.capture_output_content {
                p.copy(self.port.pkt_content, sender.data);
            }
        } else {
            p.set_bool(receiver.valid, false);
            p.set_bool(sender.ready, false);
            self.present_nothing(p);
        }
    }

    /// Presents no event to the encoder. The start and end flags are
    /// driven low too: left holding whatever a transient grant wrote
    /// earlier in the settle, their settled values would depend on
    /// evaluation order and differ between the full and compiled
    /// schedulers.
    fn present_nothing(&self, p: &mut SignalPool) {
        p.set_bool(self.port.pkt_valid, false);
        p.set_bool(self.port.pkt_start, false);
        p.set_bool(self.port.pkt_end, false);
    }
}

impl Component for ChannelMonitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn eval(&mut self, p: &mut SignalPool) {
        match (self.mode, self.direction) {
            (MonitorMode::Transparent, _) => self.eval_transparent(p),
            (MonitorMode::Record, _) if !self.recording_now(p) => self.eval_transparent(p),
            (MonitorMode::Record, Direction::Input) => self.eval_record_input(p),
            (MonitorMode::Record, Direction::Output) => self.eval_record_output(p),
        }
    }

    fn tick(&mut self, p: &mut SignalPool) {
        // Resetting a raised flag is itself a mutation, so the quiescence
        // computed below must account for the flag's entry value.
        let was_changed = self.state_changed_in_tick;
        self.state_changed_in_tick = false;
        let (_, receiver) = self.sides();
        let fired = receiver.fires(p);
        if fired {
            // `transactions` is diagnostics-only; `eval` never reads it, so
            // incrementing it does not mark the tick non-quiescent (it does
            // make the tick non-quiet: a skipped edge must not lose counts).
            self.transactions += 1;
        }
        if self.mode == MonitorMode::Record && self.recording_now(p) {
            match (&self.state, self.direction) {
                (State::Idle, Direction::Input) => {
                    let granted =
                        p.get_bool(self.port.resv_req) && p.get_bool(self.port.resv_grant);
                    if granted && !fired {
                        self.state = State::Active(p.get(self.env.data));
                        self.state_changed_in_tick = true;
                    }
                }
                (State::Active(_), Direction::Input) => {
                    if fired {
                        self.state = State::Idle;
                        self.state_changed_in_tick = true;
                    }
                }
                (State::Idle, Direction::Output) => {
                    let granted =
                        p.get_bool(self.port.resv_req) && p.get_bool(self.port.resv_grant);
                    if granted && !fired {
                        self.state = State::Exposed;
                        self.state_changed_in_tick = true;
                    }
                }
                (State::Exposed, Direction::Output) => {
                    if fired {
                        self.state = State::Idle;
                        self.state_changed_in_tick = true;
                    }
                }
                (State::Exposed, Direction::Input) | (State::Active(_), Direction::Output) => {
                    unreachable!("monitor state does not match direction")
                }
            }
        }
        self.tick_was_quiet = !fired && !was_changed && !self.state_changed_in_tick;
    }

    fn tick_changed_state(&self) -> bool {
        self.state_changed_in_tick
    }

    fn tick_reads(&self) -> Option<Vec<SignalId>> {
        // Everything `tick` can read on any path, for either direction and
        // either mode: the handshake lines of both sides, the data being
        // latched, the reservation handshake, and the record-enable line.
        // The monitor's `tick` is a pure function of these signals and its
        // own state, and its `fault` is the default `None`, so it satisfies
        // the compiled scheduler's skip contract.
        let mut sigs = vec![
            self.env.valid,
            self.env.ready,
            self.env.data,
            self.app.valid,
            self.app.ready,
            self.app.data,
            self.port.resv_req,
            self.port.resv_grant,
        ];
        if let Some(line) = self.record_enable {
            sigs.push(line);
        }
        Some(sigs)
    }

    fn tick_quiet(&self) -> bool {
        self.tick_was_quiet
    }

    fn save_state(&self, w: &mut StateWriter) {
        match &self.state {
            State::Idle => w.u8(0),
            State::Active(content) => {
                w.u8(1);
                w.bits(content);
            }
            State::Exposed => w.u8(2),
        }
        w.u64(self.transactions);
        w.bool(self.state_changed_in_tick);
    }

    fn load_state(&mut self, r: &mut StateReader) -> Result<(), StateError> {
        self.state = match r.u8()? {
            0 => State::Idle,
            1 => State::Active(r.bits_expect(self.env.width(), "monitor content")?),
            2 => State::Exposed,
            d => {
                return Err(StateError::Mismatch {
                    expected: "monitor state discriminant 0..=2".into(),
                    found: format!("{d}"),
                })
            }
        };
        // Only inputs latch content (`Active`); only outputs hold an
        // exposed transaction (`Exposed`).
        let misplaced = match (&self.state, self.direction) {
            (State::Exposed, Direction::Input) => Some("Exposed"),
            (State::Active(_), Direction::Output) => Some("Active"),
            _ => None,
        };
        if let Some(state) = misplaced {
            return Err(StateError::Mismatch {
                expected: format!("a state an {:?} monitor can hold", self.direction),
                found: state.into(),
            });
        }
        self.transactions = r.u64()?;
        self.state_changed_in_tick = r.bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(direction: Direction) -> ChannelMonitor {
        let mut pool = SignalPool::new();
        let env = Channel::new(&mut pool, "env.c", 8);
        let app = Channel::new(&mut pool, "c", 8);
        let port = EncoderPort::new(&mut pool, "c", 8);
        ChannelMonitor::new(direction, env, app, port, MonitorMode::Record, false)
    }

    /// A saved monitor state with the given discriminant (and, for
    /// `Active`, latched content).
    fn state(discriminant: u8) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.u8(discriminant);
        if discriminant == 1 {
            w.bits(&Bits::from_u64(8, 0x5a));
        }
        w.u64(0);
        w.bool(false);
        w.into_bytes()
    }

    #[test]
    fn restore_refuses_a_state_the_direction_cannot_hold() {
        const ACTIVE: u8 = 1;
        const EXPOSED: u8 = 2;
        let restore = |direction, discriminant| {
            monitor(direction).load_state(&mut StateReader::new(&state(discriminant)))
        };
        // Accepted, each would reach `unreachable!` on the next eval or tick.
        assert!(restore(Direction::Input, EXPOSED).is_err());
        assert!(restore(Direction::Output, ACTIVE).is_err());
        assert!(restore(Direction::Input, ACTIVE).is_ok());
        assert!(restore(Direction::Output, EXPOSED).is_ok());
    }

    #[test]
    fn restore_refuses_active_content_of_the_wrong_width() {
        let mut w = StateWriter::new();
        w.u8(1);
        w.bits(&Bits::from_u64(16, 0x5a5a));
        w.u64(0);
        w.bool(false);
        // Accepted, the next eval would drive 16 bits onto an 8-bit
        // channel and trip `SignalPool::set`'s width assertion.
        let err = monitor(Direction::Input)
            .load_state(&mut StateReader::new(&w.into_bytes()))
            .expect_err("a 16-bit payload on an 8-bit channel");
        assert!(err.to_string().contains("monitor content"), "{err}");
    }
}
