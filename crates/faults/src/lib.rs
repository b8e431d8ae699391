//! # vidi-faults — deterministic, seeded fault injection
//!
//! Record/replay infrastructure earns its keep exactly when the world
//! misbehaves: storage writes fail mid-recording, PCIe bandwidth collapses,
//! channels stall, trace bytes rot at rest. This crate turns those
//! misfortunes into a *reproducible schedule*: a [`FaultPlan`] built from a
//! [`FaultSpec`] answers every injection question ("does write #17 fail?",
//! "is cycle 40_000 inside a stall storm?") through a stateless keyed hash
//! of `(seed, stream, key)`. Two plans with the same spec always make the
//! same decisions, in any query order — so a failure found by the fault
//! matrix soak test replays under a debugger from nothing but its seed.
//!
//! The plan compiles into the hook points the rest of the stack exposes:
//!
//! * [`FaultPlan::fault_injection`] → [`vidi_core::FaultInjection`], wired
//!   into an engine via
//!   [`VidiShim::install_with_faults`](vidi_core::VidiShim::install_with_faults):
//!   storage-write failures and bandwidth collapse in the trace store,
//!   reservation stall storms in the encoder (VALID/READY back-pressure on
//!   every monitored channel), fetch collapse in the replay decoder.
//! * [`FaultPlan::wrap_storage`] → a [`FaultyStorage`] wrapper around any
//!   [`ChunkSink`]/[`ChunkSource`] backend, injecting transient
//!   [`ChunkIoError`]s that a retry wrapper (`vidi_host::RetryPolicy`)
//!   around it must absorb.
//! * [`FaultPlan::corrupt`] → bit flips / truncation applied to serialized
//!   trace bytes, against which the CRC-framed storage layout
//!   ([`vidi_trace::recover_trace`]) recovers a clean packet prefix.

#![forbid(unsafe_code)]

use std::sync::Mutex;

use vidi_core::{FaultInjection, StoreWriteOutcome};
use vidi_trace::{ChunkIoError, ChunkSink, ChunkSource};

/// Distinct hash streams, so e.g. storage-write decisions never correlate
/// with stall-storm phases under the same seed.
const STREAM_STORE_WRITE: u64 = 0x5354_4f52_4500;
const STREAM_STORE_BW: u64 = 0x5342_5744_5448;
const STREAM_FETCH_BW: u64 = 0x4642_5744_5448;
const STREAM_STALL: u64 = 0x5354_414c_4c00;
const STREAM_HOST_IO: u64 = 0x484f_5354_494f;
const STREAM_CORRUPT: u64 = 0x434f_5252_5054;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stateless decision function: a 64-bit hash of `(seed, stream, key)`.
/// Every injection decision in this crate is a pure function of this value,
/// which is what makes fault schedules replayable regardless of the order
/// (or number of times) the simulator asks.
pub fn keyed_hash(seed: u64, stream: u64, key: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ stream) ^ key)
}

/// A periodic degradation window: for `period` cycles, the first `window`
/// (phase-shifted per seed) are degraded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    /// Cycle period of the disturbance.
    pub period: u64,
    /// Degraded cycles per period (clamped to the period).
    pub window: u64,
    /// Bandwidth divisor while degraded (ignored for stall storms; a
    /// divisor much larger than bytes-per-cycle collapses bandwidth to
    /// zero).
    pub divisor: u32,
}

impl WindowSpec {
    fn contains(&self, seed: u64, stream: u64, cycle: u64) -> bool {
        let period = self.period.max(1);
        let phase = keyed_hash(seed, stream, 0) % period;
        (cycle.wrapping_add(phase)) % period < self.window.min(period)
    }
}

/// Independent per-operation storage failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorageFailureSpec {
    /// Probability, in per-mille, that an operation draws a failure.
    pub per_mille: u32,
    /// How many consecutive attempts of a failing operation fail before it
    /// succeeds — the knob that separates "retry absorbs it" from "retry
    /// budget exhausted, typed error".
    pub failures_per_op: u32,
}

/// At-rest corruption applied to serialized trace bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptionSpec {
    /// Flip `n` deterministically chosen bits.
    BitFlips(u32),
    /// Keep only `keep_num / keep_den` of the byte stream (tail truncation,
    /// e.g. a crash mid-flush).
    Truncate {
        /// Numerator of the kept fraction.
        keep_num: u32,
        /// Denominator of the kept fraction.
        keep_den: u32,
    },
}

/// The declarative description of one fault schedule.
///
/// `Default` is the all-quiet spec (every fault disabled); populate only
/// the dimensions a test sweeps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed from which every decision derives.
    pub seed: u64,
    /// Trace-store write failures (retried in-engine with backoff).
    pub store_failures: Option<StorageFailureSpec>,
    /// Recording-path bandwidth collapse windows.
    pub store_collapse: Option<WindowSpec>,
    /// Replay-path fetch bandwidth collapse windows.
    pub fetch_collapse: Option<WindowSpec>,
    /// Encoder stall storms (VALID/READY back-pressure on all channels).
    pub stall_storm: Option<WindowSpec>,
    /// Host-side storage faults (save/load path, absorbed by retry).
    pub host_io_failures: Option<StorageFailureSpec>,
    /// At-rest corruption of serialized traces.
    pub corruption: Option<CorruptionSpec>,
    /// Injected crash: the engine panics when its tick counter reaches
    /// this cycle. Unlike every other dimension this one is not recoverable
    /// in-engine — it exists to exercise a supervisor's catch-unwind
    /// boundary (see `vidi-fleet`), which must contain the failure and
    /// recover the flushed trace prefix.
    pub panic_at: Option<u64>,
}

/// A compiled, replayable fault schedule. Cheap to clone; every query is a
/// pure function of the spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    spec: FaultSpec,
}

impl FaultPlan {
    /// Compiles a spec into a plan.
    pub fn new(spec: FaultSpec) -> Self {
        FaultPlan { spec }
    }

    /// The spec this plan was compiled from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Whether trace-store write `op` fails on `attempt` (0-based).
    pub fn store_write_fails(&self, op: u64, attempt: u32) -> bool {
        match self.spec.store_failures {
            None => false,
            Some(s) => {
                attempt < s.failures_per_op
                    && keyed_hash(self.spec.seed, STREAM_STORE_WRITE, op) % 1000
                        < s.per_mille as u64
            }
        }
    }

    /// Store bandwidth divisor for `cycle` (1 = full bandwidth).
    pub fn store_divisor(&self, cycle: u64) -> u32 {
        match self.spec.store_collapse {
            Some(w) if w.contains(self.spec.seed, STREAM_STORE_BW, cycle) => w.divisor.max(1),
            _ => 1,
        }
    }

    /// Fetch bandwidth divisor for `cycle` (1 = full bandwidth).
    pub fn fetch_divisor(&self, cycle: u64) -> u32 {
        match self.spec.fetch_collapse {
            Some(w) if w.contains(self.spec.seed, STREAM_FETCH_BW, cycle) => w.divisor.max(1),
            _ => 1,
        }
    }

    /// Whether `cycle` lies inside an encoder stall storm.
    pub fn stalled(&self, cycle: u64) -> bool {
        match self.spec.stall_storm {
            Some(w) => w.contains(self.spec.seed, STREAM_STALL, cycle),
            None => false,
        }
    }

    /// The engine cycle at which this plan injects a panic, if any.
    pub fn panic_cycle(&self) -> Option<u64> {
        self.spec.panic_at
    }

    /// Whether host storage operation `op` fails on `attempt` (0-based).
    pub fn host_io_fails(&self, op: u64, attempt: u32) -> bool {
        match self.spec.host_io_failures {
            None => false,
            Some(s) => {
                attempt < s.failures_per_op
                    && keyed_hash(self.spec.seed, STREAM_HOST_IO, op) % 1000 < s.per_mille as u64
            }
        }
    }

    /// Assembles the in-engine hook bundle for
    /// [`VidiShim::install_with_faults`](vidi_core::VidiShim::install_with_faults).
    pub fn fault_injection(&self) -> FaultInjection {
        let mut faults = FaultInjection::none();
        if self.spec.store_failures.is_some() {
            let plan = *self;
            faults.store_write = Some(Box::new(move |op, attempt| {
                if plan.store_write_fails(op, attempt) {
                    StoreWriteOutcome::TransientError
                } else {
                    StoreWriteOutcome::Commit
                }
            }));
        }
        if self.spec.store_collapse.is_some() {
            let plan = *self;
            faults.store_bandwidth = Some(Box::new(move |cycle| plan.store_divisor(cycle)));
        }
        if self.spec.fetch_collapse.is_some() {
            let plan = *self;
            faults.fetch_bandwidth = Some(Box::new(move |cycle| plan.fetch_divisor(cycle)));
        }
        if self.spec.stall_storm.is_some() {
            let plan = *self;
            faults.encoder_stall = Some(Box::new(move |cycle| plan.stalled(cycle)));
        }
        faults.panic_at = self.spec.panic_at;
        faults
    }

    /// Wraps a chunk backend so its operations fail per this plan's
    /// host-I/O schedule.
    pub fn wrap_storage<S>(&self, inner: S) -> FaultyStorage<S> {
        FaultyStorage {
            inner,
            plan: *self,
            cursor: Mutex::new((0, 0)),
        }
    }

    /// Applies this plan's at-rest corruption to serialized trace bytes.
    /// No-op when the spec has no corruption dimension.
    pub fn corrupt(&self, bytes: &mut Vec<u8>) {
        match self.spec.corruption {
            None => {}
            Some(CorruptionSpec::BitFlips(n)) => {
                if bytes.is_empty() {
                    return;
                }
                let total_bits = bytes.len() as u64 * 8;
                for i in 0..n {
                    let bit = keyed_hash(self.spec.seed, STREAM_CORRUPT, i as u64) % total_bits;
                    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
            }
            Some(CorruptionSpec::Truncate { keep_num, keep_den }) => {
                let den = keep_den.max(1) as u64;
                let keep = (bytes.len() as u64 * keep_num.min(keep_den) as u64 / den) as usize;
                bytes.truncate(keep);
            }
        }
    }
}

/// A chunk backend wrapper that injects transient faults per a
/// [`FaultPlan`]'s host-I/O schedule. Every operation —
/// [`put_chunk`](ChunkSink::put_chunk), [`byte_len`](ChunkSource::byte_len),
/// [`read_at`](ChunkSource::read_at) — is one scheduled op. A failing
/// operation fails for `failures_per_op` consecutive attempts, then
/// succeeds — so a sufficiently patient retry policy always gets through,
/// and an impatient one surfaces a typed [`ChunkIoError::Transient`].
#[derive(Debug)]
pub struct FaultyStorage<S> {
    inner: S,
    plan: FaultPlan,
    /// `(op, attempt)`: operations completed so far (advances only on
    /// giving way after the scheduled failures) and failed attempts of the
    /// current one. Behind a lock because reads take `&self`.
    cursor: Mutex<(u64, u32)>,
}

impl<S> FaultyStorage<S> {
    /// The wrapped backend.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn draw(&self) -> Result<(), ChunkIoError> {
        let mut cursor = self
            .cursor
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (op, attempt) = *cursor;
        if self.plan.host_io_fails(op, attempt) {
            *cursor = (op, attempt + 1);
            Err(ChunkIoError::Transient("injected storage fault".into()))
        } else {
            *cursor = (op + 1, 0);
            Ok(())
        }
    }
}

impl<S: ChunkSink> ChunkSink for FaultyStorage<S> {
    fn put_chunk(&mut self, seq: u64, bytes: &[u8]) -> Result<(), ChunkIoError> {
        self.draw()?;
        self.inner.put_chunk(seq, bytes)
    }
}

impl<S: ChunkSource> ChunkSource for FaultyStorage<S> {
    fn byte_len(&self) -> Result<u64, ChunkIoError> {
        self.draw()?;
        self.inner.byte_len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize, ChunkIoError> {
        self.draw()?;
        self.inner.read_at(offset, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stormy() -> FaultSpec {
        FaultSpec {
            seed: 7,
            store_failures: Some(StorageFailureSpec {
                per_mille: 200,
                failures_per_op: 2,
            }),
            store_collapse: Some(WindowSpec {
                period: 100,
                window: 25,
                divisor: 100,
            }),
            stall_storm: Some(WindowSpec {
                period: 64,
                window: 8,
                divisor: 1,
            }),
            host_io_failures: Some(StorageFailureSpec {
                per_mille: 500,
                failures_per_op: 1,
            }),
            corruption: Some(CorruptionSpec::BitFlips(3)),
            ..FaultSpec::default()
        }
    }

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let a = FaultPlan::new(stormy());
        let b = FaultPlan::new(stormy());
        // Query b in reverse order; answers must match a's forward pass.
        let forward: Vec<bool> = (0..500).map(|op| a.store_write_fails(op, 0)).collect();
        let backward: Vec<bool> = (0..500)
            .rev()
            .map(|op| b.store_write_fails(op, 0))
            .collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
        assert!(forward.iter().any(|&f| f), "some op fails at 200‰");
        assert!(!forward.iter().all(|&f| f), "not every op fails at 200‰");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(stormy());
        let b = FaultPlan::new(FaultSpec {
            seed: 8,
            ..stormy()
        });
        let fa: Vec<bool> = (0..500).map(|op| a.store_write_fails(op, 0)).collect();
        let fb: Vec<bool> = (0..500).map(|op| b.store_write_fails(op, 0)).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn failures_clear_after_budgeted_attempts() {
        let plan = FaultPlan::new(stormy());
        let failing_op = (0..1000)
            .find(|&op| plan.store_write_fails(op, 0))
            .expect("some op fails");
        assert!(plan.store_write_fails(failing_op, 1));
        assert!(
            !plan.store_write_fails(failing_op, 2),
            "clears at attempt 2"
        );
    }

    #[test]
    fn windows_cover_the_requested_fraction() {
        let plan = FaultPlan::new(stormy());
        let stalled = (0..6400).filter(|&c| plan.stalled(c)).count();
        assert_eq!(stalled, 6400 / 64 * 8, "exactly window/period of cycles");
        let collapsed = (0..10_000).filter(|&c| plan.store_divisor(c) > 1).count();
        assert_eq!(collapsed, 10_000 / 100 * 25);
    }

    #[test]
    fn quiet_spec_injects_nothing() {
        let plan = FaultPlan::new(FaultSpec::default());
        assert!((0..1000).all(|op| !plan.store_write_fails(op, 0)));
        assert!((0..1000).all(|c| !plan.stalled(c)));
        assert!((0..1000).all(|c| plan.store_divisor(c) == 1));
        assert!(!plan.fault_injection().is_active());
        let mut bytes = vec![1, 2, 3];
        plan.corrupt(&mut bytes);
        assert_eq!(bytes, vec![1, 2, 3]);
    }

    #[test]
    fn panic_injection_passes_through() {
        let plan = FaultPlan::new(FaultSpec {
            seed: 1,
            panic_at: Some(42),
            ..FaultSpec::default()
        });
        assert_eq!(plan.panic_cycle(), Some(42));
        let inj = plan.fault_injection();
        assert!(inj.is_active());
        assert_eq!(inj.panic_at, Some(42));
        // And the quiet spec keeps it disarmed.
        let quiet = FaultPlan::new(FaultSpec::default());
        assert_eq!(quiet.fault_injection().panic_at, None);
    }

    #[test]
    fn corruption_is_deterministic() {
        let plan = FaultPlan::new(stormy());
        let mut a = vec![0u8; 256];
        let mut b = vec![0u8; 256];
        plan.corrupt(&mut a);
        plan.corrupt(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, vec![0u8; 256], "bits actually flipped");
        assert_eq!(
            a.iter().map(|x| x.count_ones()).sum::<u32>(),
            3,
            "exactly the requested flips (no collision at this seed)"
        );
    }

    #[test]
    fn truncation_keeps_the_requested_fraction() {
        let plan = FaultPlan::new(FaultSpec {
            seed: 1,
            corruption: Some(CorruptionSpec::Truncate {
                keep_num: 3,
                keep_den: 4,
            }),
            ..FaultSpec::default()
        });
        let mut bytes = vec![0u8; 1000];
        plan.corrupt(&mut bytes);
        assert_eq!(bytes.len(), 750);
    }

    #[test]
    fn faulty_storage_clears_with_patient_retry() {
        use vidi_host::RetryPolicy;
        use vidi_trace::{read_full, recover_trace, ChannelInfo, Trace, TraceLayout};

        let layout = TraceLayout::new(vec![ChannelInfo {
            name: "c".into(),
            width: 8,
            direction: vidi_chan::Direction::Input,
        }]);
        let trace = Trace::new(layout, false);
        let plan = FaultPlan::new(FaultSpec {
            seed: 3,
            host_io_failures: Some(StorageFailureSpec {
                per_mille: 1000,    // every op draws a failure...
                failures_per_op: 2, // ...for exactly two attempts
            }),
            ..FaultSpec::default()
        });
        let patient = RetryPolicy {
            max_attempts: 4,
            base_backoff: std::time::Duration::ZERO,
        };
        let stored = trace
            .write_framed(patient.wrap(plan.wrap_storage(Vec::new())))
            .unwrap();
        let image = stored.into_inner().into_inner();
        let back = read_full(&patient.wrap(plan.wrap_storage(image))).unwrap();
        assert!(recover_trace(&back).unwrap().is_complete());

        // An impatient policy surfaces the typed fault instead of hanging.
        let impatient = RetryPolicy {
            max_attempts: 1,
            base_backoff: std::time::Duration::ZERO,
        };
        let err = trace
            .write_framed(impatient.wrap(plan.wrap_storage(Vec::new())))
            .unwrap_err();
        assert!(err.is_transient());
    }
}
