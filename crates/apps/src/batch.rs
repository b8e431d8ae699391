//! A reusable kernel shape: collect the input stream, compute for a
//! modelled number of fabric cycles, stream the result out via pcim.
//!
//! Most HLS-generated accelerators in the evaluation (§5.1) follow exactly
//! this buffer–compute–drain structure. What distinguishes the applications
//! — and what drives every Table 1 number — is (a) the real computation
//! performed and (b) the modelled compute latency, i.e. the
//! compute-to-I/O ratio.

use vidi_hwsim::{Bits, StateError, StateReader, StateWriter};

use crate::kernel::{Kernel, KernelStep};
use crate::util::{bytes_to_beats, OUT_ADDR};

/// The pure computation of an accelerator: input bytes + user regs →
/// output bytes.
pub type ComputeFn = Box<dyn Fn(&[u8], &[u32]) -> Vec<u8>>;
/// Models how many fabric cycles the computation occupies.
pub type CostFn = Box<dyn Fn(&[u8], &[u32]) -> u64>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    Collecting,
    Computing,
    Emitting,
    Done,
}

/// A buffer–compute–drain kernel; see the module docs.
///
/// User register 0 must hold the input length in bytes.
pub struct BatchComputeKernel {
    name: &'static str,
    compute: ComputeFn,
    cost: CostFn,
    state: State,
    input_needed: usize,
    buf: Vec<u8>,
    args: Vec<u32>,
    remaining_cost: u64,
    output: Vec<Bits>,
    emit_idx: usize,
}

impl BatchComputeKernel {
    /// Creates a kernel from its computation and cost model.
    pub fn new(name: &'static str, compute: ComputeFn, cost: CostFn) -> Self {
        BatchComputeKernel {
            name,
            compute,
            cost,
            state: State::Idle,
            input_needed: 0,
            buf: Vec::new(),
            args: Vec::new(),
            remaining_cost: 0,
            output: Vec::new(),
            emit_idx: 0,
        }
    }
}

impl Kernel for BatchComputeKernel {
    fn name(&self) -> &str {
        self.name
    }

    fn start(&mut self, args: &[u32]) {
        self.args = args.to_vec();
        self.input_needed = args[0] as usize;
        // Input typically streams in *before* CTRL.start is written, so any
        // already-collected beats are kept; the Collecting state transitions
        // immediately if the buffer is already full.
        self.output.clear();
        self.emit_idx = 0;
        self.state = State::Collecting;
    }

    fn wants_input(&self) -> bool {
        // Collect beats even before CTRL.start arrives (DMA-in typically
        // precedes the start write).
        self.buf.len() < self.input_needed || self.state == State::Idle
    }

    fn consume(&mut self, _addr: u64, beat: Bits) {
        self.buf.extend_from_slice(&beat.to_bytes());
    }

    fn step(&mut self) -> KernelStep {
        match self.state {
            State::Idle | State::Done => KernelStep::Idle,
            State::Collecting => {
                if self.buf.len() >= self.input_needed {
                    self.buf.truncate(self.input_needed);
                    self.remaining_cost = (self.cost)(&self.buf, &self.args);
                    self.state = State::Computing;
                }
                KernelStep::Busy
            }
            State::Computing => {
                if self.remaining_cost > 0 {
                    self.remaining_cost -= 1;
                    return KernelStep::Busy;
                }
                let out = (self.compute)(&self.buf, &self.args);
                self.output = bytes_to_beats(&out);
                self.emit_idx = 0;
                self.state = if self.output.is_empty() {
                    State::Done
                } else {
                    State::Emitting
                };
                KernelStep::Busy
            }
            State::Emitting => {
                let beat = self.output[self.emit_idx].clone();
                let addr = OUT_ADDR + (self.emit_idx as u64) * 64;
                self.emit_idx += 1;
                if self.emit_idx == self.output.len() {
                    self.state = State::Done;
                }
                KernelStep::Output { addr, beat }
            }
        }
    }

    fn done(&self) -> bool {
        self.state == State::Done
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.u8(match self.state {
            State::Idle => 0,
            State::Collecting => 1,
            State::Computing => 2,
            State::Emitting => 3,
            State::Done => 4,
        });
        w.usize(self.input_needed);
        w.bytes(&self.buf);
        w.seq(self.args.iter(), |w, &a| w.u32(a));
        w.u64(self.remaining_cost);
        w.seq(self.output.iter(), StateWriter::bits);
        w.usize(self.emit_idx);
    }

    fn load_state(&mut self, r: &mut StateReader) -> Result<(), StateError> {
        self.state = match r.u8()? {
            0 => State::Idle,
            1 => State::Collecting,
            2 => State::Computing,
            3 => State::Emitting,
            4 => State::Done,
            other => {
                return Err(StateError::Mismatch {
                    expected: "batch kernel state discriminant 0..=4".into(),
                    found: format!("{other}"),
                })
            }
        };
        self.input_needed = r.usize()?;
        self.buf = r.bytes()?.to_vec();
        self.args = r.seq(StateReader::u32)?;
        self.remaining_cost = r.u64()?;
        self.output = r.seq(StateReader::bits)?;
        self.emit_idx = r.usize()?;
        if self.emit_idx > self.output.len()
            || (self.state == State::Emitting && self.emit_idx == self.output.len())
        {
            return Err(StateError::Mismatch {
                expected: format!(
                    "emit index < {} buffered beats while emitting (<= otherwise)",
                    self.output.len()
                ),
                found: format!("{} in state {:?}", self.emit_idx, self.state),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_kernel() -> BatchComputeKernel {
        BatchComputeKernel::new(
            "xor",
            Box::new(|input, args| input.iter().map(|b| b ^ args[1] as u8).collect()),
            Box::new(|input, _| input.len() as u64 / 8),
        )
    }

    #[test]
    fn collect_compute_emit_lifecycle() {
        let mut k = xor_kernel();
        assert_eq!(k.step(), KernelStep::Idle);
        k.start(&[64, 0xff, 0, 0]);
        assert!(k.wants_input());
        k.consume(0, Bits::from_bytes(&[0x0fu8; 64]));
        assert!(!k.wants_input());
        // Collect transition + 8 cost cycles.
        for _ in 0..9 {
            assert_eq!(k.step(), KernelStep::Busy);
            assert!(!k.done());
        }
        // Compute transition cycle.
        assert_eq!(k.step(), KernelStep::Busy);
        // One output beat.
        match k.step() {
            KernelStep::Output { addr, beat } => {
                assert_eq!(addr, OUT_ADDR);
                assert_eq!(beat.to_bytes(), vec![0xf0u8; 64]);
            }
            other => panic!("expected output, got {other:?}"),
        }
        assert!(k.done());
    }

    #[test]
    fn zero_input_computes_immediately() {
        let mut k =
            BatchComputeKernel::new("const", Box::new(|_, _| vec![7u8; 4]), Box::new(|_, _| 0));
        k.start(&[0, 0, 0, 0]);
        let mut produced = false;
        for _ in 0..4 {
            if let KernelStep::Output { beat, .. } = k.step() {
                assert_eq!(beat.to_bytes()[..4], [7, 7, 7, 7]);
                produced = true;
            }
        }
        assert!(produced);
        assert!(k.done());
    }

    #[test]
    fn restore_refuses_emitting_past_the_last_beat() {
        let mut k = xor_kernel();
        k.start(&[64, 0xff, 0, 0]);
        k.consume(0, Bits::from_bytes(&[0x0fu8; 64]));
        while !k.done() {
            k.step();
        }
        let mut w = StateWriter::new();
        k.save_state(&mut w);
        let mut blob = w.into_bytes();
        k.load_state(&mut StateReader::new(&blob))
            .expect("a saved state restores");
        // Done with every beat emitted, relabelled Emitting: accepted, the
        // next step would index one past the output.
        assert_eq!(blob[0], 4, "state discriminant leads the blob");
        blob[0] = 3;
        let err = xor_kernel()
            .load_state(&mut StateReader::new(&blob))
            .expect_err("emitting with nothing left to emit must be refused");
        assert!(err.to_string().contains("emit index"), "{err}");
    }
}
