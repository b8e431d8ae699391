//! The on-disk checkpoint container and its cycle index.
//!
//! Both images reuse the trace store's CRC framing
//! ([`vidi_trace::FrameWriter`] / [`vidi_trace::FrameChecker`]): the
//! payload is carved into 64-byte storage words, each carrying a CRC-32, a
//! sequence number, and a cumulative *complete-record* counter. Decoding
//! therefore never fails on a damaged image — it hands back the longest
//! clean prefix of checkpoints, exactly as the trace reader hands back a
//! packet prefix.
//!
//! Layout (inside the framed payload, encoded with the same length-prefixed
//! [`StateWriter`] primitives as simulator snapshots):
//!
//! ```text
//! container := header checkpoint*
//! header    := magic:u32 version:u16 final_cycle:u64 completed:bool count:u32
//! checkpoint:= cycle:u64 digest:u64 txn_counts:seq<u64> state:bytes
//!
//! index     := iheader entry*
//! iheader   := magic:u32 version:u16 count:u32
//! entry     := cycle:u64 offset:u64 len:u64     (offset/len in payload bytes)
//! ```
//!
//! The header and every checkpoint each end with a `mark_packets(1)`, so the
//! frame recovery's packet counter says how many *complete* checkpoints
//! survive in a truncated or bit-flipped image.

use vidi_hwsim::{StateReader, StateWriter};
use vidi_trace::{
    recover_frames, FrameChecker, FrameWriter, FRAME_PAYLOAD_BYTES, STORAGE_WORD_BYTES,
};

use crate::SnapError;

/// Magic number opening a checkpoint container payload (`"VSNP"`).
pub const SNAP_MAGIC: u32 = 0x504e_5356;
/// Magic number opening a checkpoint index payload (`"VSNI"`).
pub const INDEX_MAGIC: u32 = 0x494e_5356;
/// Container format version this build reads and writes.
pub const SNAP_VERSION: u16 = 1;

/// One deterministic checkpoint: the full simulator snapshot at a cycle
/// boundary, plus the metadata segmented verification needs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Checkpoint {
    /// Cycle at which the snapshot was taken (a cycle boundary).
    pub cycle: u64,
    /// Stats-free state fingerprint ([`vidi_hwsim::Simulator::state_digest`])
    /// at the same boundary — the stitch token segmented verification
    /// checks against the next segment's start.
    pub digest: u64,
    /// Per-channel completed-transaction counts of the validation trace
    /// *committed to the store* at this boundary, in layout order. Segment
    /// verification uses these to attribute each divergence to exactly one
    /// segment.
    pub txn_counts: Vec<u64>,
    /// The [`vidi_hwsim::Simulator::snapshot`] blob.
    pub state: Vec<u8>,
}

/// A run's worth of checkpoints, in increasing cycle order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckpointLog {
    /// The checkpoints, first at cycle 0 (the freshly built design).
    pub checkpoints: Vec<Checkpoint>,
    /// Cycle at which the checkpointed replay finished (or gave up).
    pub final_cycle: u64,
    /// Whether the checkpointed replay ran to completion. `false` means
    /// the replay stalled within its budget — e.g. a deadlocking mutated
    /// trace (§5.3) — and the log covers only the cycles reached.
    pub completed: bool,
}

impl CheckpointLog {
    /// The latest checkpoint at or before `cycle`, if any.
    pub fn nearest_at_or_before(&self, cycle: u64) -> Option<&Checkpoint> {
        self.checkpoints
            .iter()
            .take_while(|c| c.cycle <= cycle)
            .last()
    }

    /// Encodes the log into a CRC-framed container image plus the matching
    /// cycle → payload-offset index.
    pub fn encode_framed(&self) -> (Vec<u8>, CheckpointIndex) {
        let mut fw = FrameWriter::new();
        let mut header = StateWriter::new();
        header.u32(SNAP_MAGIC);
        header.u16(SNAP_VERSION);
        header.u64(self.final_cycle);
        header.bool(self.completed);
        header.u32(self.checkpoints.len() as u32);
        let mut offset = header.len() as u64;
        fw.push_bytes(header.as_bytes());
        fw.mark_packets(1);

        let mut entries = Vec::with_capacity(self.checkpoints.len());
        for cp in &self.checkpoints {
            let mut w = StateWriter::new();
            w.u64(cp.cycle);
            w.u64(cp.digest);
            w.seq(cp.txn_counts.iter(), |w, &n| w.u64(n));
            w.bytes(&cp.state);
            entries.push(IndexEntry {
                cycle: cp.cycle,
                offset,
                len: w.len() as u64,
            });
            offset += w.len() as u64;
            fw.push_bytes(w.as_bytes());
            fw.mark_packets(1);
        }
        (fw.finish(), CheckpointIndex { entries })
    }

    /// Decodes a (possibly damaged) container image, returning the longest
    /// clean checkpoint prefix. Never panics: truncation and bit flips cost
    /// the tail, and a destroyed header is a typed [`SnapError::Format`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Format`] when no complete header survives, the magic is
    /// wrong, or the version is unsupported.
    pub fn decode_framed(image: &[u8]) -> Result<RecoveredCheckpoints, SnapError> {
        let rec = recover_frames(image);
        if rec.packets == 0 {
            return Err(SnapError::Format("no intact container header".into()));
        }
        let mut r = StateReader::new(&rec.payload);
        let magic = r.u32().map_err(|e| SnapError::Format(e.to_string()))?;
        if magic != SNAP_MAGIC {
            return Err(SnapError::Format(format!(
                "bad container magic {magic:#010x}"
            )));
        }
        let version = r.u16().map_err(|e| SnapError::Format(e.to_string()))?;
        if version != SNAP_VERSION {
            return Err(SnapError::Format(format!(
                "unsupported container version {version}"
            )));
        }
        let final_cycle = r.u64().map_err(|e| SnapError::Format(e.to_string()))?;
        let completed = r.bool().map_err(|e| SnapError::Format(e.to_string()))?;
        let declared = r.u32().map_err(|e| SnapError::Format(e.to_string()))?;

        // The frame recovery certifies `packets - 1` complete checkpoints;
        // anything beyond that boundary in the payload is a torn tail.
        let certified = (rec.packets as usize).saturating_sub(1);
        let mut checkpoints = Vec::new();
        for _ in 0..certified.min(declared as usize) {
            let Ok(cp) = read_checkpoint(&mut r) else {
                break;
            };
            checkpoints.push(cp);
        }
        let complete = checkpoints.len() == declared as usize && rec.first_corrupt_word.is_none();
        Ok(RecoveredCheckpoints {
            log: CheckpointLog {
                checkpoints,
                final_cycle,
                completed,
            },
            declared,
            complete,
        })
    }
}

fn read_checkpoint(r: &mut StateReader<'_>) -> Result<Checkpoint, SnapError> {
    let cycle = r.u64()?;
    let digest = r.u64()?;
    let txn_counts = r.seq(StateReader::u64)?;
    let state = r.bytes()?.to_vec();
    Ok(Checkpoint {
        cycle,
        digest,
        txn_counts,
        state,
    })
}

/// Result of decoding a container image: the clean prefix plus how much of
/// the original log it covers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecoveredCheckpoints {
    /// The recovered log (its `checkpoints` may be a prefix).
    pub log: CheckpointLog,
    /// How many checkpoints the header declared were written.
    pub declared: u32,
    /// Whether every declared checkpoint was recovered intact.
    pub complete: bool,
}

/// One row of the cycle → offset index.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IndexEntry {
    /// Checkpoint cycle.
    pub cycle: u64,
    /// Byte offset of the checkpoint record within the container *payload*
    /// (the deframed byte stream, not the framed image).
    pub offset: u64,
    /// Length of the checkpoint record in payload bytes.
    pub len: u64,
}

/// The separately persisted index mapping cycles to container offsets, so
/// a seek reads one checkpoint's storage words instead of the whole image.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CheckpointIndex {
    /// Entries in increasing cycle order.
    pub entries: Vec<IndexEntry>,
}

impl CheckpointIndex {
    /// The latest entry at or before `cycle`, if any.
    pub fn locate(&self, cycle: u64) -> Option<&IndexEntry> {
        self.entries.iter().take_while(|e| e.cycle <= cycle).last()
    }

    /// Encodes the index into its own CRC-framed image.
    pub fn encode_framed(&self) -> Vec<u8> {
        let mut fw = FrameWriter::new();
        let mut header = StateWriter::new();
        header.u32(INDEX_MAGIC);
        header.u16(SNAP_VERSION);
        header.u32(self.entries.len() as u32);
        fw.push_bytes(header.as_bytes());
        fw.mark_packets(1);
        for e in &self.entries {
            let mut w = StateWriter::new();
            w.u64(e.cycle);
            w.u64(e.offset);
            w.u64(e.len);
            fw.push_bytes(w.as_bytes());
            fw.mark_packets(1);
        }
        fw.finish()
    }

    /// Decodes a (possibly damaged) index image to its clean entry prefix.
    ///
    /// # Errors
    ///
    /// [`SnapError::Format`] when no intact header survives or the magic or
    /// version is wrong.
    pub fn decode_framed(image: &[u8]) -> Result<CheckpointIndex, SnapError> {
        let rec = recover_frames(image);
        if rec.packets == 0 {
            return Err(SnapError::Format("no intact index header".into()));
        }
        let mut r = StateReader::new(&rec.payload);
        let magic = r.u32().map_err(|e| SnapError::Format(e.to_string()))?;
        if magic != INDEX_MAGIC {
            return Err(SnapError::Format(format!("bad index magic {magic:#010x}")));
        }
        let version = r.u16().map_err(|e| SnapError::Format(e.to_string()))?;
        if version != SNAP_VERSION {
            return Err(SnapError::Format(format!(
                "unsupported index version {version}"
            )));
        }
        let declared = r.u32().map_err(|e| SnapError::Format(e.to_string()))?;
        let certified = (rec.packets as usize).saturating_sub(1);
        let mut entries = Vec::new();
        for _ in 0..certified.min(declared as usize) {
            let (Ok(cycle), Ok(offset), Ok(len)) = (r.u64(), r.u64(), r.u64()) else {
                break;
            };
            entries.push(IndexEntry { cycle, offset, len });
        }
        Ok(CheckpointIndex { entries })
    }
}

/// Extracts and verifies the payload byte range `[offset, offset+len)`
/// from a framed container image, touching only the storage words that
/// cover the range — the point of the index: a seek decodes one
/// checkpoint's words, not the whole image. Each covering word goes through
/// the same [`FrameChecker`] as full recovery, started at the range's first
/// word index, so a CRC-valid word at the wrong position is rejected too.
///
/// # Errors
///
/// [`SnapError::Format`] when the range runs past the image or any covering
/// word fails its integrity check.
pub fn extract_payload(image: &[u8], offset: u64, len: u64) -> Result<Vec<u8>, SnapError> {
    // Payload bytes are fewer than image bytes, so a range ending past the
    // image length is hostile; rejecting it first also bounds every
    // allocation below by the image size.
    let end = offset
        .checked_add(len)
        .filter(|&end| end <= image.len() as u64)
        .ok_or_else(|| {
            SnapError::Format(format!(
                "checkpoint range {offset}+{len} beyond a {}-byte image",
                image.len()
            ))
        })?;
    let (offset, end) = (offset as usize, end as usize);
    let first_word = offset / FRAME_PAYLOAD_BYTES;
    // An empty range still reads (and checks) the word holding `offset`.
    let last_word = end.div_ceil(FRAME_PAYLOAD_BYTES).max(first_word + 1) - 1;
    let mut check = FrameChecker::starting_at(first_word as u64);
    let mut payload = Vec::with_capacity((last_word - first_word + 1) * FRAME_PAYLOAD_BYTES);
    for wi in first_word..=last_word {
        let start = wi * STORAGE_WORD_BYTES;
        let word = image
            .get(start..start + STORAGE_WORD_BYTES)
            .ok_or_else(|| SnapError::Format(format!("image truncated at word {wi}")))?;
        let checked = check
            .check(word)
            .ok_or_else(|| SnapError::Format(format!("corrupt word {wi} under seek")))?;
        payload.extend_from_slice(checked.payload);
    }
    let skip = offset - first_word * FRAME_PAYLOAD_BYTES;
    payload
        .get(skip..skip + (end - offset))
        .map(<[u8]>::to_vec)
        .ok_or_else(|| SnapError::Format("checkpoint range beyond recovered payload".into()))
}

/// Decodes the single checkpoint an index entry points at, reading only the
/// storage words that cover it.
///
/// # Errors
///
/// [`SnapError::Format`] on damaged words or a record that does not parse.
pub fn load_checkpoint_at(image: &[u8], entry: &IndexEntry) -> Result<Checkpoint, SnapError> {
    let bytes = extract_payload(image, entry.offset, entry.len)?;
    let mut r = StateReader::new(&bytes);
    let cp = read_checkpoint(&mut r)?;
    r.finish("checkpoint").map_err(SnapError::State)?;
    Ok(cp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> CheckpointLog {
        CheckpointLog {
            checkpoints: (0..5)
                .map(|i| Checkpoint {
                    cycle: i * 1000,
                    digest: 0xdead_beef ^ i,
                    txn_counts: vec![i, i * 2, i * 3],
                    state: vec![i as u8; 64 + i as usize * 37],
                })
                .collect(),
            final_cycle: 4321,
            completed: true,
        }
    }

    #[test]
    fn container_roundtrip() {
        let log = sample_log();
        let (image, index) = log.encode_framed();
        let rec = CheckpointLog::decode_framed(&image).unwrap();
        assert!(rec.complete);
        assert_eq!(rec.log, log);
        assert_eq!(index.entries.len(), 5);
    }

    #[test]
    fn index_roundtrip_and_seek() {
        let log = sample_log();
        let (image, index) = log.encode_framed();
        let rt = CheckpointIndex::decode_framed(&index.encode_framed()).unwrap();
        assert_eq!(rt, index);
        // Seek to 2500 lands on the cycle-2000 checkpoint, reading only its
        // words.
        let entry = *rt.locate(2500).unwrap();
        assert_eq!(entry.cycle, 2000);
        let cp = load_checkpoint_at(&image, &entry).unwrap();
        assert_eq!(&cp, &log.checkpoints[2]);
    }

    #[test]
    fn truncation_recovers_a_prefix() {
        let log = sample_log();
        let (image, _) = log.encode_framed();
        for keep in 0..image.len() {
            match CheckpointLog::decode_framed(&image[..keep]) {
                Ok(rec) => {
                    let n = rec.log.checkpoints.len();
                    assert_eq!(&rec.log.checkpoints[..], &log.checkpoints[..n]);
                    assert!(!rec.complete || keep >= image.len());
                }
                Err(SnapError::Format(_)) => {}
                Err(other) => panic!("unexpected error class: {other}"),
            }
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        let log = sample_log();
        let (image, _) = log.encode_framed();
        for stride in [1usize, 7, 13] {
            let mut dirty = image.clone();
            for i in (0..dirty.len()).step_by(stride * 97 + 1) {
                dirty[i] ^= 1 << (i % 8);
            }
            match CheckpointLog::decode_framed(&dirty) {
                Ok(rec) => {
                    let n = rec.log.checkpoints.len();
                    assert_eq!(&rec.log.checkpoints[..], &log.checkpoints[..n]);
                }
                Err(SnapError::Format(_)) => {}
                Err(other) => panic!("unexpected error class: {other}"),
            }
        }
    }

    /// Index of a storage word whose payload lies wholly inside checkpoint
    /// `i`'s state blob.
    fn word_inside_state(log: &CheckpointLog, index: &CheckpointIndex, i: usize) -> usize {
        let e = index.entries[i];
        let state_len = log.checkpoints[i].state.len() as u64;
        let state_start = e.offset + e.len - state_len;
        let word = state_start.div_ceil(FRAME_PAYLOAD_BYTES as u64);
        assert!((word + 1) * FRAME_PAYLOAD_BYTES as u64 <= e.offset + e.len);
        word as usize
    }

    #[test]
    fn seek_rejects_a_misplaced_word() {
        let log = sample_log();
        let (mut image, index) = log.encode_framed();
        // Copy a CRC-valid word from checkpoint 3's state over one inside
        // checkpoint 4's: only its sequence number gives it away.
        let from = word_inside_state(&log, &index, 3) * STORAGE_WORD_BYTES;
        let to = word_inside_state(&log, &index, 4) * STORAGE_WORD_BYTES;
        image.copy_within(from..from + STORAGE_WORD_BYTES, to);
        let rec = CheckpointLog::decode_framed(&image).unwrap();
        assert_eq!(rec.log.checkpoints.len(), 4);
        assert!(!rec.complete);
        assert_eq!(
            load_checkpoint_at(&image, &index.entries[3]).unwrap(),
            log.checkpoints[3]
        );
        match load_checkpoint_at(&image, &index.entries[4]) {
            Err(SnapError::Format(_)) => {}
            other => panic!("misplaced word must be a format error, got {other:?}"),
        }
    }

    #[test]
    fn seek_rejects_hostile_index_entries() {
        let empty = CheckpointLog {
            checkpoints: Vec::new(),
            final_cycle: 0,
            completed: true,
        };
        let (image, _) = empty.encode_framed();
        for (offset, len) in [(0, 1u64 << 40), (u64::MAX - 10, 100)] {
            let entry = IndexEntry {
                cycle: 0,
                offset,
                len,
            };
            match load_checkpoint_at(&image, &entry) {
                Err(SnapError::Format(_)) => {}
                other => panic!("({offset}, {len}) must be a format error, got {other:?}"),
            }
        }
        // An empty range starting on a word boundary inside the image holds
        // no checkpoint record.
        let (image, _) = sample_log().encode_framed();
        let empty_range = IndexEntry {
            cycle: 0,
            offset: 2 * FRAME_PAYLOAD_BYTES as u64,
            len: 0,
        };
        assert!(load_checkpoint_at(&image, &empty_range).is_err());
    }
}
