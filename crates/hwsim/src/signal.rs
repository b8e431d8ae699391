//! Signal storage shared by all components of a simulation.
//!
//! A [`SignalPool`] owns the value of every wire in the design, stored as a
//! flat array of 64-bit limbs for cache-friendly access. Components read and
//! write signals through [`SignalId`] handles during evaluation; the pool
//! tracks *which* signals changed (a dirty list with per-signal generation
//! stamps, not just a pool-wide flag) so the scheduler can both detect the
//! combinational fixed point and re-evaluate only the components sensitive
//! to the signals that actually changed.
//!
//! Signal metadata is laid out in parallel arrays (structure-of-arrays)
//! rather than a `Vec<struct>`: the getters on the settle-phase hot path
//! touch only `offsets`/`limbs`/`widths`, and packing those contiguously
//! keeps the per-read working set to the arrays actually used instead of
//! dragging every signal's name through the cache.

use std::cell::{Cell, RefCell};

use crate::bits::Bits;
use crate::state::{StateError, StateReader, StateWriter};

/// Handle to a signal allocated in a [`SignalPool`].
///
/// `SignalId`s are cheap to copy and are only meaningful for the pool that
/// created them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SignalId(u32);

impl SignalId {
    /// The raw index of the signal within its pool.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One recorded signal access, in program order within an access log.
///
/// Produced by [`SignalPool::start_access_log`] /
/// [`SignalPool::take_access_log`]: while a log is active every getter
/// records a `Read` and every setter a `Write` (a [`SignalPool::copy`]
/// records the source read before the destination write). The chronological
/// order is significant — static analyses use *reads-before-a-write* as the
/// dependency approximation for that write.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SignalAccess {
    /// A signal value was read.
    Read(SignalId),
    /// A signal value was written (whether or not the value changed).
    Write(SignalId),
}

/// `track` bit: chronological access logging is active.
const TRACK_LOG: u8 = 1 << 0;
/// `track` bit: deduplicated read-set capture is active.
const TRACK_CAPTURE: u8 = 1 << 1;

/// Owns the current value of every signal in a simulated design.
///
/// ```
/// use vidi_hwsim::{Bits, SignalPool};
///
/// let mut pool = SignalPool::new();
/// let valid = pool.add("valid", 1);
/// let data = pool.add("data", 512);
/// pool.set_bool(valid, true);
/// pool.set(data, &Bits::from_u64(512, 42));
/// assert!(pool.get_bool(valid));
/// assert_eq!(pool.get(data).to_u64(), 42);
/// ```
#[derive(Debug, Default)]
pub struct SignalPool {
    /// Diagnostic names, indexed by signal. Off the hot path.
    names: Vec<String>,
    /// Declared widths in bits, indexed by signal.
    widths: Vec<u32>,
    /// First limb of each signal within `data`.
    offsets: Vec<u32>,
    /// Limb count of each signal.
    limbs: Vec<u32>,
    data: Vec<u64>,
    /// Signals whose value changed since the last [`Self::clear_changed`] /
    /// [`Self::drain_dirty`], in first-change order, deduplicated via
    /// `dirty_stamp`.
    dirty: Vec<SignalId>,
    /// Per-signal generation stamp: the value of `dirty_gen` when the signal
    /// was last pushed onto `dirty`. Stamps never equal a future generation,
    /// so clearing the dirty list is O(1) plus a generation bump.
    dirty_stamp: Vec<u64>,
    /// Current dirty generation (starts at 1; stamp 0 means "never dirty").
    dirty_gen: u64,
    /// Which access-tracking modes are active, as a bitmask of `TRACK_*`
    /// bits. Kept in a single `Cell` (and the logs in `RefCell`s) because
    /// getters take `&self`; the pool is single-threaded by construction.
    /// Folding both flags into one word gives every untracked read — the
    /// overwhelmingly common case during settle — a single branch on zero.
    track: Cell<u8>,
    /// Chronological read/write log for static lint (`TRACK_LOG`).
    access_log: RefCell<Vec<SignalAccess>>,
    /// Deduplicated per-eval read set for the compiled scheduler
    /// (`TRACK_CAPTURE`). Independent of the chronological log.
    cap_reads: RefCell<Vec<SignalId>>,
    cap_stamp: RefCell<Vec<u64>>,
    cap_gen: Cell<u64>,
}

impl SignalPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts recording every subsequent signal read and write into the
    /// access log (clearing any previous log). Used by the one-shot
    /// read/write-set scan behind static design lint — see
    /// [`Simulator::access_scan`](crate::Simulator::access_scan).
    pub fn start_access_log(&self) {
        self.access_log.borrow_mut().clear();
        self.track.set(self.track.get() | TRACK_LOG);
    }

    /// Stops logging and returns the accesses recorded since
    /// [`Self::start_access_log`], in chronological order.
    pub fn take_access_log(&self) -> Vec<SignalAccess> {
        self.track.set(self.track.get() & !TRACK_LOG);
        std::mem::take(&mut self.access_log.borrow_mut())
    }

    /// Starts capturing the deduplicated *read set* of subsequent signal
    /// accesses (clearing any previous capture). This is the cheap per-eval
    /// sensitivity probe behind the compiled scheduler: unlike the
    /// chronological access log it records each signal at most once and
    /// ignores writes.
    pub fn start_read_capture(&self) {
        self.cap_reads.borrow_mut().clear();
        self.cap_gen.set(self.cap_gen.get() + 1);
        self.track.set(self.track.get() | TRACK_CAPTURE);
    }

    /// Stops capturing and swaps the captured read set into `out` (in
    /// first-read order), reusing `out`'s allocation.
    pub fn take_read_capture(&self, out: &mut Vec<SignalId>) {
        self.track.set(self.track.get() & !TRACK_CAPTURE);
        out.clear();
        std::mem::swap(&mut *self.cap_reads.borrow_mut(), out);
    }

    #[inline]
    fn log_read(&self, id: SignalId) {
        let track = self.track.get();
        if track == 0 {
            return;
        }
        if track & TRACK_LOG != 0 {
            self.access_log.borrow_mut().push(SignalAccess::Read(id));
        }
        if track & TRACK_CAPTURE != 0 {
            let gen = self.cap_gen.get();
            let mut stamps = self.cap_stamp.borrow_mut();
            if stamps[id.index()] != gen {
                stamps[id.index()] = gen;
                self.cap_reads.borrow_mut().push(id);
            }
        }
    }

    #[inline]
    fn log_write(&self, id: SignalId) {
        if self.track.get() & TRACK_LOG != 0 {
            self.access_log.borrow_mut().push(SignalAccess::Write(id));
        }
    }

    /// Records that a signal's value actually changed.
    #[inline]
    fn mark_changed(&mut self, id: SignalId) {
        if self.dirty_stamp[id.index()] != self.dirty_gen {
            self.dirty_stamp[id.index()] = self.dirty_gen;
            self.dirty.push(id);
        }
    }

    /// Allocates a new signal of `width` bits, initially all-zero.
    ///
    /// The `name` is used for diagnostics and waveform dumps; it does not
    /// need to be unique, though hierarchical names (`"app.fifo.ready"`)
    /// make waveforms much easier to read.
    pub fn add(&mut self, name: impl Into<String>, width: u32) -> SignalId {
        let limbs = width.div_ceil(64);
        let offset = u32::try_from(self.data.len())
            .expect("signal storage exceeds u32 limbs; designs stay far below this");
        self.data.extend(std::iter::repeat_n(0, limbs as usize));
        let id = SignalId(
            u32::try_from(self.names.len())
                .expect("signal count exceeds u32; designs stay far below this"),
        );
        self.names.push(name.into());
        self.widths.push(width);
        self.offsets.push(offset);
        self.limbs.push(limbs);
        self.dirty_stamp.push(0);
        self.cap_stamp.borrow_mut().push(0);
        id
    }

    /// The number of signals allocated.
    pub fn len(&self) -> usize {
        self.widths.len()
    }

    /// Whether the pool has no signals.
    pub fn is_empty(&self) -> bool {
        self.widths.is_empty()
    }

    /// The declared width of a signal.
    pub fn width(&self, id: SignalId) -> u32 {
        self.widths[id.index()]
    }

    /// The diagnostic name of a signal.
    pub fn name(&self, id: SignalId) -> &str {
        &self.names[id.index()]
    }

    /// Finds a signal by its diagnostic name (first match in allocation
    /// order — names are not required to be unique). Linear scan: this is
    /// a debugger/diagnostic entry point, never on the settle hot path.
    pub fn lookup(&self, name: &str) -> Option<SignalId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| SignalId(i as u32))
    }

    /// Signals whose diagnostic name contains `fragment`, for "did you
    /// mean" suggestions when a [`Self::lookup`] misses.
    pub fn lookup_fuzzy(&self, fragment: &str) -> Vec<SignalId> {
        self.names
            .iter()
            .enumerate()
            .filter(|(_, n)| n.contains(fragment))
            .map(|(i, _)| SignalId(i as u32))
            .collect()
    }

    /// All signal ids, in allocation order.
    pub fn ids(&self) -> impl Iterator<Item = SignalId> {
        // `add` guarantees the count fits in u32.
        let n = u32::try_from(self.widths.len()).expect("signal count fits u32 by construction");
        (0..n).map(SignalId)
    }

    fn range(&self, id: SignalId) -> std::ops::Range<usize> {
        let i = id.index();
        let offset = self.offsets[i] as usize;
        offset..offset + self.limbs[i] as usize
    }

    /// Reads a signal's raw limbs (LSB-first).
    pub fn limbs(&self, id: SignalId) -> &[u64] {
        self.log_read(id);
        let r = self.range(id);
        &self.data[r]
    }

    /// Reads a 1-bit signal as a `bool`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the signal is not 1 bit wide.
    pub fn get_bool(&self, id: SignalId) -> bool {
        debug_assert_eq!(
            self.width(id),
            1,
            "get_bool on multi-bit signal {}",
            self.name(id)
        );
        self.log_read(id);
        self.data[self.offsets[id.index()] as usize] & 1 == 1
    }

    /// Writes a 1-bit signal from a `bool`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the signal is not 1 bit wide.
    pub fn set_bool(&mut self, id: SignalId, value: bool) {
        debug_assert_eq!(
            self.width(id),
            1,
            "set_bool on multi-bit signal {}",
            self.name(id)
        );
        self.log_write(id);
        let off = self.offsets[id.index()] as usize;
        let new = u64::from(value);
        if self.data[off] != new {
            self.data[off] = new;
            self.mark_changed(id);
        }
    }

    /// Reads the low 64 bits of a signal.
    pub fn get_u64(&self, id: SignalId) -> u64 {
        self.log_read(id);
        let i = id.index();
        if self.limbs[i] == 0 {
            0
        } else {
            self.data[self.offsets[i] as usize]
        }
    }

    /// Writes a signal from a `u64`, truncating to the signal width.
    pub fn set_u64(&mut self, id: SignalId, value: u64) {
        self.log_write(id);
        let i = id.index();
        let width = self.widths[i];
        assert!(
            width <= 64,
            "set_u64 on {}-bit signal {}",
            width,
            self.names[i]
        );
        if self.limbs[i] == 0 {
            return;
        }
        let masked = if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        };
        let off = self.offsets[i] as usize;
        if self.data[off] != masked {
            self.data[off] = masked;
            self.mark_changed(id);
        }
    }

    /// Reads a signal as an owned [`Bits`] value.
    pub fn get(&self, id: SignalId) -> Bits {
        Bits::from_limbs(self.width(id), self.limbs(id))
    }

    /// Writes a signal from a [`Bits`] value.
    ///
    /// # Panics
    ///
    /// Panics if the value width does not match the signal width.
    pub fn set(&mut self, id: SignalId, value: &Bits) {
        self.log_write(id);
        let i = id.index();
        assert_eq!(
            self.widths[i],
            value.width(),
            "width mismatch writing signal {}",
            self.names[i]
        );
        let r = self.range(id);
        let dst = &mut self.data[r];
        let src = value.limbs();
        if dst != src {
            dst.copy_from_slice(src);
            self.mark_changed(id);
        }
    }

    /// Copies the value of `src` into `dst` (a combinational passthrough).
    ///
    /// # Panics
    ///
    /// Panics if the signal widths differ.
    pub fn copy(&mut self, dst: SignalId, src: SignalId) {
        self.log_read(src);
        self.log_write(dst);
        assert_eq!(
            self.width(dst),
            self.width(src),
            "width mismatch copying {} -> {}",
            self.name(src),
            self.name(dst)
        );
        let sr = self.range(src);
        let dr = self.range(dst);
        if self.data[sr.clone()] != self.data[dr.clone()] {
            // Ranges never overlap: each signal owns a disjoint slice.
            let (lo, hi, src_first) = if sr.start < dr.start {
                (sr, dr, true)
            } else {
                (dr, sr, false)
            };
            let (a, b) = self.data.split_at_mut(hi.start);
            let lo_slice = &mut a[lo];
            let hi_slice = &mut b[..hi.end - hi.start];
            if src_first {
                hi_slice.copy_from_slice(lo_slice);
            } else {
                lo_slice.copy_from_slice(hi_slice);
            }
            self.mark_changed(dst);
        }
    }

    /// Clears the dirty list; used by the scheduler before each
    /// evaluation pass.
    pub fn clear_changed(&mut self) {
        self.dirty.clear();
        self.dirty_gen += 1;
    }

    /// Whether any signal changed since the last [`Self::clear_changed`] /
    /// [`Self::drain_dirty`].
    pub fn any_changed(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// The signals that changed since the last [`Self::clear_changed`] /
    /// [`Self::drain_dirty`], deduplicated, in first-change order.
    pub fn dirty_signals(&self) -> &[SignalId] {
        &self.dirty
    }

    /// Drains the dirty list into `out` (reusing its allocation) and starts
    /// a fresh dirty generation. The compiled scheduler calls this after
    /// each component evaluation to learn which signals that eval changed.
    pub fn drain_dirty(&mut self, out: &mut Vec<SignalId>) {
        out.clear();
        std::mem::swap(&mut self.dirty, out);
        self.dirty_gen += 1;
    }

    /// Serializes the pool's geometry (signal count and widths, as a
    /// structural check) and raw limb contents into `w`. Part of
    /// [`Simulator::snapshot`](crate::Simulator::snapshot); dirty-tracking
    /// and access-log bookkeeping are scheduler-transient and not captured.
    pub fn save_values(&self, w: &mut StateWriter) {
        w.u32(u32::try_from(self.widths.len()).expect("signal count fits u32 by construction"));
        for &width in &self.widths {
            w.u32(width);
        }
        w.u32(u32::try_from(self.data.len()).expect("limb count fits u32 by construction"));
        for &limb in &self.data {
            w.u64(limb);
        }
    }

    /// Restores limb contents written by [`SignalPool::save_values`] into a
    /// pool with identical geometry, marking every signal changed.
    ///
    /// # Errors
    ///
    /// Returns a typed [`StateError`] — leaving the pool untouched — if the
    /// blob is truncated or was captured from a pool with a different
    /// signal count, widths, or limb count.
    pub fn restore_values(&mut self, r: &mut StateReader) -> Result<(), StateError> {
        let n = r.u32()? as usize;
        if n != self.widths.len() {
            return Err(StateError::Mismatch {
                expected: format!("{} signals", self.widths.len()),
                found: format!("{n} signals"),
            });
        }
        for i in 0..self.widths.len() {
            let width = r.u32()?;
            if width != self.widths[i] {
                return Err(StateError::Mismatch {
                    expected: format!("signal {} of width {}", self.names[i], self.widths[i]),
                    found: format!("width {width}"),
                });
            }
        }
        let limbs = r.u32()? as usize;
        if limbs != self.data.len() {
            return Err(StateError::Mismatch {
                expected: format!("{} limbs", self.data.len()),
                found: format!("{limbs} limbs"),
            });
        }
        // Decode into a scratch buffer first so a truncated blob leaves the
        // pool untouched (restore is all-or-nothing per section).
        let mut new_data = Vec::with_capacity(limbs);
        for _ in 0..limbs {
            new_data.push(r.u64()?);
        }
        self.data = new_data;
        let ids: Vec<SignalId> = self.ids().collect();
        for id in ids {
            self.mark_changed(id);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read_back() {
        let mut p = SignalPool::new();
        let a = p.add("a", 1);
        let b = p.add("b", 512);
        assert_eq!(p.len(), 2);
        assert_eq!(p.width(a), 1);
        assert_eq!(p.width(b), 512);
        assert_eq!(p.name(b), "b");
        assert!(!p.get_bool(a));
        assert!(p.get(b).is_zero());
    }

    #[test]
    fn change_tracking() {
        let mut p = SignalPool::new();
        let a = p.add("a", 8);
        p.clear_changed();
        assert!(!p.any_changed());
        p.set_u64(a, 0); // writing the same value is not a change
        assert!(!p.any_changed());
        p.set_u64(a, 7);
        assert!(p.any_changed());
        p.clear_changed();
        p.set_u64(a, 7);
        assert!(!p.any_changed());
    }

    #[test]
    fn set_u64_truncates_to_width() {
        let mut p = SignalPool::new();
        let a = p.add("a", 4);
        p.set_u64(a, 0xff);
        assert_eq!(p.get_u64(a), 0xf);
    }

    #[test]
    fn wide_signal_roundtrip() {
        let mut p = SignalPool::new();
        let a = p.add("a", 513);
        let mut v = Bits::zero(513);
        v.set_bit(512, true);
        v.set_bit(0, true);
        p.set(a, &v);
        assert_eq!(p.get(a), v);
        assert_eq!(p.limbs(a).len(), 9);
    }

    #[test]
    fn copy_between_signals() {
        let mut p = SignalPool::new();
        let a = p.add("a", 100);
        let b = p.add("b", 100);
        p.set(a, &Bits::ones(100));
        p.clear_changed();
        p.copy(b, a);
        assert!(p.any_changed());
        assert_eq!(p.get(b), Bits::ones(100));
        p.clear_changed();
        p.copy(b, a); // already equal: no change
        assert!(!p.any_changed());
        // copy in the other direction (dst before src in storage)
        p.set(b, &Bits::zero(100));
        p.copy(a, b);
        assert!(p.get(a).is_zero());
    }

    #[test]
    fn access_log_captures_chronological_order() {
        let mut p = SignalPool::new();
        let a = p.add("a", 1);
        let b = p.add("b", 8);
        let c = p.add("c", 8);
        // Nothing is logged before the log starts.
        p.set_bool(a, true);
        p.start_access_log();
        let _ = p.get_bool(a);
        p.set_u64(b, 3);
        p.copy(c, b);
        let _ = p.get(c);
        let log = p.take_access_log();
        assert_eq!(
            log,
            vec![
                SignalAccess::Read(a),
                SignalAccess::Write(b),
                SignalAccess::Read(b),
                SignalAccess::Write(c),
                SignalAccess::Read(c),
            ]
        );
        // Logging stops after take.
        let _ = p.get_bool(a);
        p.start_access_log();
        assert_eq!(p.take_access_log(), vec![]);
    }

    #[test]
    fn access_log_and_read_capture_are_independent() {
        // The two tracking modes share one `track` word; enabling or
        // stopping one must not disturb the other.
        let mut p = SignalPool::new();
        let a = p.add("a", 8);
        let b = p.add("b", 8);
        p.start_access_log();
        p.start_read_capture();
        let _ = p.get_u64(a);
        let mut reads = Vec::new();
        p.take_read_capture(&mut reads);
        assert_eq!(reads, vec![a]);
        // The log is still running after the capture stopped.
        p.set_u64(b, 1);
        let log = p.take_access_log();
        assert_eq!(log, vec![SignalAccess::Read(a), SignalAccess::Write(b)]);
        // And a capture survives the log being taken.
        p.start_access_log();
        p.start_read_capture();
        let _ = p.take_access_log();
        let _ = p.get_u64(b);
        p.take_read_capture(&mut reads);
        assert_eq!(reads, vec![b]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn set_wrong_width_panics() {
        let mut p = SignalPool::new();
        let a = p.add("a", 8);
        p.set(a, &Bits::zero(9));
    }
}
