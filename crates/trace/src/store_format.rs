//! The storage word (§3.3): the one module that writes and checks it.
//!
//! The trace store converts variable-sized cycle packets into the fixed-size
//! storage interface available to FPGA applications — on AWS F1, CPU-side
//! DRAM exposed as 64-byte granular read/write operations over AXI. Multiple
//! cycle packets are packed into a single storage word when possible (the
//! paper's example: a 48-byte and a 16-byte packet sharing one cache line).
//!
//! Every word is CRC-framed: it carries [`FRAME_PAYLOAD_BYTES`] of payload
//! and a `len`/`seq`/`packets`/`crc` trailer, so a reader facing a torn
//! write, a bit flip, or a truncated file can still recover the longest
//! valid prefix — the same guarantee journaling file systems give their
//! logs. [`FrameWriter`] is the only code that seals words and
//! [`FrameChecker`] the only code that parses a trailer; the streaming
//! [`TraceSink`](crate::TraceSink) and [`TraceSource`](crate::TraceSource)
//! and the checkpoint container all go through them.

/// Size of one storage interface word (an F1 PCIe/DRAM cache line).
pub const STORAGE_WORD_BYTES: usize = 64;

/// One fixed-size storage word.
pub type StorageWord = [u8; STORAGE_WORD_BYTES];

/// The storage footprint of `bytes` of trace data, in bytes, after 64-byte
/// alignment — the size a deployment actually consumes in CPU DRAM.
pub fn storage_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(STORAGE_WORD_BYTES as u64) * STORAGE_WORD_BYTES as u64
}

/// Payload bytes carried by one framed storage word.
pub const FRAME_PAYLOAD_BYTES: usize = STORAGE_WORD_BYTES - FRAME_TRAILER_BYTES;

/// Trailer bytes per framed storage word: `len: u16`, `seq: u32`,
/// `packets: u32`, `crc: u32`.
pub const FRAME_TRAILER_BYTES: usize = 14;

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3 polynomial) over a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Seals one framed storage word: payload, then the `len`/`seq`/`packets`
/// trailer, then a CRC-32 over everything preceding the CRC field.
fn seal_word(payload: &[u8], seq: u32, packets: u32) -> StorageWord {
    debug_assert!(payload.len() <= FRAME_PAYLOAD_BYTES);
    let mut w = [0u8; STORAGE_WORD_BYTES];
    w[..payload.len()].copy_from_slice(payload);
    let trailer = FRAME_PAYLOAD_BYTES;
    w[trailer..trailer + 2].copy_from_slice(&(payload.len() as u16).to_le_bytes());
    w[trailer + 2..trailer + 6].copy_from_slice(&seq.to_le_bytes());
    w[trailer + 6..trailer + 10].copy_from_slice(&packets.to_le_bytes());
    let crc = crc32(&w[..STORAGE_WORD_BYTES - 4]);
    w[STORAGE_WORD_BYTES - 4..].copy_from_slice(&crc.to_le_bytes());
    w
}

/// Streams a byte sequence into CRC-framed storage words.
///
/// Each sealed word carries [`FRAME_PAYLOAD_BYTES`] payload bytes plus a
/// trailer holding the payload length, the word's sequence number, the
/// cumulative count of *complete* packets whose final byte lies at or before
/// the end of this word, and a CRC-32 over everything preceding the CRC
/// field. The packet counter is what lets recovery hand back a clean packet
/// prefix instead of a ragged byte prefix.
///
/// Words seal lazily: a word full of payload stays open until the next byte
/// arrives, so a packet ending exactly on a word boundary is still counted
/// in that word's trailer by [`mark_packets`](FrameWriter::mark_packets).
/// Only the final word of a stream is ever short.
#[derive(Debug, Clone, Default)]
pub struct FrameWriter {
    /// Payload of the open (unsealed) word, at most [`FRAME_PAYLOAD_BYTES`].
    pub(crate) pending: Vec<u8>,
    /// Sealed words not yet taken by the owner.
    pub(crate) sealed: Vec<u8>,
    /// Words sealed so far (the next word's sequence number).
    pub(crate) words_sealed: u64,
    /// Trailer packet counter.
    pub(crate) packets_complete: u32,
}

impl FrameWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends payload bytes, sealing words as they fill.
    pub fn push_bytes(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if self.pending.len() == FRAME_PAYLOAD_BYTES {
                self.seal();
            }
            let n = (FRAME_PAYLOAD_BYTES - self.pending.len()).min(bytes.len());
            self.pending.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
        }
    }

    /// Records that `n` more packets' bytes are now fully pushed.
    pub fn mark_packets(&mut self, n: u32) {
        self.packets_complete = self.packets_complete.saturating_add(n);
    }

    /// Seals the open word, if it holds any payload.
    pub(crate) fn seal_partial(&mut self) {
        if !self.pending.is_empty() {
            self.seal();
        }
    }

    /// Bytes held: sealed words plus the open word's payload.
    pub(crate) fn buffered_bytes(&self) -> usize {
        self.sealed.len() + self.pending.len()
    }

    /// Seals any partial word and returns every sealed word as a flat byte
    /// stream.
    pub fn finish(mut self) -> Vec<u8> {
        self.seal_partial();
        self.sealed
    }

    fn seal(&mut self) {
        let w = seal_word(
            &self.pending,
            self.words_sealed as u32,
            self.packets_complete,
        );
        self.sealed.extend_from_slice(&w);
        self.words_sealed += 1;
        self.pending.clear();
    }
}

/// A storage word that passed [`FrameChecker::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckedWord<'a> {
    /// The word's payload bytes.
    pub payload: &'a [u8],
    /// The trailer's cumulative complete-packet count.
    pub packets: u32,
}

/// Verifies consecutive framed storage words — the one parser of the
/// `len`/`seq`/`packets`/`crc` trailer.
///
/// A word passes when it is a whole 64-byte word, its CRC matches, its
/// length fits the payload area, its sequence number is its index in the
/// stream, and no earlier checked word was short (a writer only ever emits
/// a short word as the final one). Callers stop at the first failure; the
/// words before it are the certified prefix.
#[derive(Debug, Clone, Default)]
pub struct FrameChecker {
    next_seq: u64,
    after_short: bool,
}

impl FrameChecker {
    /// A checker whose first word is storage word `index` of the stream —
    /// how a seek verifies a range without rescanning from word 0.
    pub fn starting_at(index: u64) -> Self {
        FrameChecker {
            next_seq: index,
            after_short: false,
        }
    }

    /// Checks the next word, returning its payload and packet count, or
    /// `None` if it fails (the checker does not advance then).
    pub fn check<'a>(&mut self, word: &'a [u8]) -> Option<CheckedWord<'a>> {
        if word.len() != STORAGE_WORD_BYTES || self.after_short {
            return None;
        }
        let field =
            |at: usize, n: usize| &word[FRAME_PAYLOAD_BYTES + at..FRAME_PAYLOAD_BYTES + at + n];
        let len = u16::from_le_bytes(field(0, 2).try_into().expect("2 bytes")) as usize;
        let seq = u32::from_le_bytes(field(2, 4).try_into().expect("4 bytes"));
        let packets = u32::from_le_bytes(field(6, 4).try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(field(10, 4).try_into().expect("4 bytes"));
        if crc32(&word[..STORAGE_WORD_BYTES - 4]) != crc
            || len > FRAME_PAYLOAD_BYTES
            || seq != self.next_seq as u32
        {
            return None;
        }
        self.next_seq += 1;
        self.after_short = len < FRAME_PAYLOAD_BYTES;
        Some(CheckedWord {
            payload: &word[..len],
            packets,
        })
    }
}

/// The valid prefix extracted from a (possibly corrupted) framed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameRecovery {
    /// Concatenated payload bytes of every valid word before the first
    /// corrupt one.
    pub payload: Vec<u8>,
    /// Complete packets contained in `payload` (the cumulative counter of
    /// the last valid word).
    pub packets: u32,
    /// Index of the first storage word that failed its
    /// [`FrameChecker`] check (bad CRC, wrong sequence number, impossible
    /// length, a word after a short one, or a torn / truncated tail), or
    /// `None` if every word verified.
    pub first_corrupt_word: Option<usize>,
    /// Total 64-byte words present in the input (including a torn tail
    /// fragment, counted as one).
    pub total_words: usize,
}

/// Scans a framed byte stream word by word and returns the longest valid
/// prefix. Never fails: arbitrary garbage simply recovers an empty prefix.
pub fn recover_frames(bytes: &[u8]) -> FrameRecovery {
    let mut check = FrameChecker::default();
    let mut payload = Vec::new();
    let mut packets = 0u32;
    let mut first_corrupt_word = None;
    for (i, word) in bytes.chunks(STORAGE_WORD_BYTES).enumerate() {
        let Some(w) = check.check(word) else {
            first_corrupt_word = Some(i);
            break;
        };
        payload.extend_from_slice(w.payload);
        packets = w.packets;
    }
    FrameRecovery {
        payload,
        packets,
        first_corrupt_word,
        total_words: bytes.len().div_ceil(STORAGE_WORD_BYTES),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_rounds_up() {
        assert_eq!(storage_bytes(0), 0);
        assert_eq!(storage_bytes(1), 64);
        assert_eq!(storage_bytes(64), 64);
        assert_eq!(storage_bytes(65), 128);
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip_clean() {
        let data: Vec<u8> = (0..123u32).map(|i| (i * 7) as u8).collect();
        let mut w = FrameWriter::new();
        w.push_bytes(&data[..60]);
        w.mark_packets(1);
        w.push_bytes(&data[60..]);
        w.mark_packets(1);
        let bytes = w.finish();
        assert_eq!(bytes.len() % STORAGE_WORD_BYTES, 0);
        let rec = recover_frames(&bytes);
        assert_eq!(rec.first_corrupt_word, None);
        assert_eq!(rec.payload, data);
        assert_eq!(rec.packets, 2);
    }

    #[test]
    fn packet_on_word_boundary_counts_in_earlier_word() {
        // Exactly one word of payload, packet marked after the final byte.
        let mut w = FrameWriter::new();
        w.push_bytes(&[1u8; FRAME_PAYLOAD_BYTES]);
        w.mark_packets(1);
        w.push_bytes(&[2, 3]);
        let mut bytes = w.finish();
        assert_eq!(bytes.len(), 2 * STORAGE_WORD_BYTES);
        let rec = recover_frames(&bytes);
        assert_eq!(rec.packets, 1);
        // Corrupting word 1 must still recover the boundary packet.
        bytes[STORAGE_WORD_BYTES + 3] ^= 0x40;
        let rec = recover_frames(&bytes);
        assert_eq!(rec.first_corrupt_word, Some(1));
        assert_eq!(rec.packets, 1);
        assert_eq!(rec.payload.len(), FRAME_PAYLOAD_BYTES);
    }

    #[test]
    fn bit_flip_truncates_to_prefix() {
        let mut w = FrameWriter::new();
        for i in 0..10u8 {
            w.push_bytes(&[i; 30]);
            w.mark_packets(1);
        }
        let mut bytes = w.finish();
        let n_words = bytes.len() / STORAGE_WORD_BYTES;
        assert!(n_words >= 4);
        bytes[2 * STORAGE_WORD_BYTES + 10] ^= 0x01;
        let rec = recover_frames(&bytes);
        assert_eq!(rec.first_corrupt_word, Some(2));
        assert_eq!(rec.payload.len(), 2 * FRAME_PAYLOAD_BYTES);
        // 100 payload bytes = 3 complete 30-byte packets.
        assert_eq!(rec.packets, 3);
    }

    #[test]
    fn torn_tail_is_reported() {
        let mut w = FrameWriter::new();
        w.push_bytes(&[9u8; 80]);
        w.mark_packets(1);
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - 10);
        let rec = recover_frames(&bytes);
        assert_eq!(rec.first_corrupt_word, Some(1));
        assert_eq!(rec.payload.len(), FRAME_PAYLOAD_BYTES);
    }

    #[test]
    fn garbage_recovers_empty_prefix() {
        let rec = recover_frames(&[0xAB; 200]);
        assert_eq!(rec.first_corrupt_word, Some(0));
        assert!(rec.payload.is_empty());
        assert_eq!(rec.packets, 0);
        let rec = recover_frames(&[]);
        assert_eq!(rec.first_corrupt_word, None);
        assert!(rec.payload.is_empty());
    }

    #[test]
    fn misplaced_and_post_short_words_are_rejected() {
        let mut w = FrameWriter::new();
        w.push_bytes(&[5u8; 3 * FRAME_PAYLOAD_BYTES]);
        w.mark_packets(1);
        let bytes = w.finish();
        // A CRC-valid word at the wrong index fails its sequence check.
        let mut swapped = bytes.clone();
        swapped.copy_within(0..STORAGE_WORD_BYTES, 2 * STORAGE_WORD_BYTES);
        assert_eq!(recover_frames(&swapped).first_corrupt_word, Some(2));
        // The same word checks clean where a seek expects it.
        let word2 = &bytes[2 * STORAGE_WORD_BYTES..];
        assert!(FrameChecker::starting_at(2).check(word2).is_some());
        assert!(FrameChecker::starting_at(1).check(word2).is_none());
        // A short word may only be the last one.
        let mut short = FrameWriter::new();
        short.push_bytes(&[1, 2, 3]);
        let mut tail = FrameWriter::new();
        tail.push_bytes(&[0u8; 2 * FRAME_PAYLOAD_BYTES]);
        let mut image = short.finish();
        image.extend_from_slice(&tail.finish()[STORAGE_WORD_BYTES..]);
        let rec = recover_frames(&image);
        assert_eq!(rec.first_corrupt_word, Some(1));
        assert_eq!(rec.payload, vec![1, 2, 3]);
    }
}
