//! Codec 2 (`XorDict`): delta+RLE bit-vectors plus XOR-previous and a small
//! move-to-front dictionary over content words.
//!
//! Consecutive cycles mostly touch the same channels, so XOR-ing each
//! packet's starts/ends bit-vectors against the previous packet's yields
//! near-zero streams that zero-RLE collapses.
//!
//! Each channel keeps its own coder state: the previous value and a
//! 16-entry most-recently-used dictionary. A content item that matches a
//! dictionary entry becomes one token byte (its index, then moved to
//! front); anything else emits the literal token `0xFF` plus the value
//! XOR-ed with the channel's previous value into a residue stream, which
//! zero-RLE collapses when values change slowly.
//!
//! Wire form: `varint(len) zrle(starts_deltas) varint(len)
//! zrle(ends_deltas) varint(n_tokens) tokens varint(len) zrle(residues)`.

use super::vint::{read_len, write_varint, zrle_decode, zrle_encode};
use super::CodecError;
use crate::shape::PacketShape;

/// Dictionary entries kept per channel.
const DICT_CAP: usize = 16;

/// Token byte marking a literal (residue-stream) value.
const LITERAL: u8 = 0xFF;

/// Per-channel encoder state for the XOR+dictionary scheme.
pub struct DictEncoder {
    width: usize,
    prev: Vec<u8>,
    dict: Vec<Vec<u8>>,
}

impl DictEncoder {
    /// Fresh state for a channel whose values are `width` bytes.
    #[must_use]
    pub fn new(width: usize) -> DictEncoder {
        DictEncoder {
            width,
            prev: vec![0; width],
            dict: Vec::new(),
        }
    }

    /// Encodes one value: appends a token byte and, for literals, the
    /// XOR-previous residue bytes.
    pub fn push(&mut self, value: &[u8], tokens: &mut Vec<u8>, residues: &mut Vec<u8>) {
        debug_assert_eq!(value.len(), self.width);
        if let Some(i) = self.dict.iter().position(|d| d == value) {
            tokens.push(u8::try_from(i).unwrap_or(LITERAL));
            let hit = self.dict.remove(i);
            self.dict.insert(0, hit);
        } else {
            tokens.push(LITERAL);
            residues.extend(value.iter().zip(&self.prev).map(|(v, p)| v ^ p));
            self.dict.insert(0, value.to_vec());
            self.dict.truncate(DICT_CAP);
        }
        self.prev.clear();
        self.prev.extend_from_slice(value);
    }
}

/// Per-channel decoder state mirroring [`DictEncoder`].
pub struct DictDecoder {
    width: usize,
    prev: Vec<u8>,
    dict: Vec<Vec<u8>>,
}

impl DictDecoder {
    /// Fresh state for a channel whose values are `width` bytes.
    #[must_use]
    pub fn new(width: usize) -> DictDecoder {
        DictDecoder {
            width,
            prev: vec![0; width],
            dict: Vec::new(),
        }
    }

    /// Whether `token` consumes residue bytes (is a literal).
    #[must_use]
    pub fn is_literal(token: u8) -> bool {
        token == LITERAL
    }

    /// Decodes one value from `token` and, for literals, `width` bytes at
    /// `residues[*rpos..]`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] on an out-of-range dictionary token
    /// and [`CodecError::Truncated`] when the residue stream runs short.
    pub fn next(
        &mut self,
        token: u8,
        residues: &[u8],
        rpos: &mut usize,
    ) -> Result<Vec<u8>, CodecError> {
        let value = if token == LITERAL {
            let bytes = residues
                .get(*rpos..*rpos + self.width)
                .ok_or(CodecError::Truncated)?;
            *rpos += self.width;
            let value: Vec<u8> = bytes.iter().zip(&self.prev).map(|(r, p)| r ^ p).collect();
            self.dict.insert(0, value.clone());
            self.dict.truncate(DICT_CAP);
            value
        } else {
            let i = usize::from(token);
            if i >= self.dict.len() {
                return Err(CodecError::Corrupt("dictionary token out of range"));
            }
            let hit = self.dict.remove(i);
            self.dict.insert(0, hit.clone());
            hit
        };
        self.prev.clear();
        self.prev.extend_from_slice(&value);
        Ok(value)
    }
}

/// Reads back the two zero-RLE'd delta streams and un-deltas them into
/// per-packet bit-vectors: returns `(starts_per_packet, ends_per_packet)` as
/// flat `n_packets × width` streams of absolute (not delta) bytes.
fn read_bitvec_sections(
    shape: &PacketShape,
    enc: &[u8],
    pos: &mut usize,
    n_packets: u32,
) -> Result<(Vec<u8>, Vec<u8>), CodecError> {
    let n = n_packets as usize;
    let mut absolute = Vec::with_capacity(2);
    for width in [shape.starts_bytes, shape.ends_bytes] {
        let len = read_len(enc, pos)?;
        let section = enc.get(*pos..*pos + len).ok_or(CodecError::Truncated)?;
        *pos += len;
        let mut deltas = zrle_decode(section, n * width)?;
        // Integrate: packet p's bytes ^= packet p-1's bytes.
        for p in 1..n {
            for b in 0..width {
                deltas[p * width + b] ^= deltas[(p - 1) * width + b];
            }
        }
        absolute.push(deltas);
    }
    let ends = absolute.pop().unwrap_or_default();
    let starts = absolute.pop().unwrap_or_default();
    Ok((starts, ends))
}

/// Encodes `n_packets` packets of raw wire bytes into an XorDict block.
///
/// The output carries no header — the caller records `n_packets` and
/// `raw.len()` alongside it (the chunk layer puts them in the block header
/// it frames).
///
/// # Errors
///
/// Returns [`CodecError::MalformedRaw`] if `raw` does not parse as exactly
/// `n_packets` packets under `shape`.
pub(crate) fn encode_block(
    shape: &PacketShape,
    raw: &[u8],
    n_packets: u32,
) -> Result<Vec<u8>, CodecError> {
    let (sb, eb) = (shape.starts_bytes, shape.ends_bytes);
    let mut starts_deltas = Vec::with_capacity(n_packets as usize * sb);
    let mut ends_deltas = Vec::with_capacity(n_packets as usize * eb);
    let mut prev_s = vec![0u8; sb];
    let mut prev_e = vec![0u8; eb];
    let mut coders: Vec<DictEncoder> = shape
        .content_bytes()
        .iter()
        .map(|&w| DictEncoder::new(w))
        .collect();
    let mut tokens = Vec::new();
    let mut residues = Vec::new();
    shape.walk(raw, n_packets, |view| {
        starts_deltas.extend(view.starts.iter().zip(&prev_s).map(|(a, b)| a ^ b));
        ends_deltas.extend(view.ends.iter().zip(&prev_e).map(|(a, b)| a ^ b));
        prev_s.copy_from_slice(view.starts);
        prev_e.copy_from_slice(view.ends);
        for (c, bytes) in view.items() {
            coders[c].push(bytes, &mut tokens, &mut residues);
        }
    })?;
    let mut out = Vec::new();
    for section in [&starts_deltas, &ends_deltas] {
        let enc = zrle_encode(section);
        write_varint(&mut out, enc.len() as u64);
        out.extend_from_slice(&enc);
    }
    write_varint(&mut out, tokens.len() as u64);
    out.extend_from_slice(&tokens);
    let rr = zrle_encode(&residues);
    write_varint(&mut out, rr.len() as u64);
    out.extend_from_slice(&rr);
    Ok(out)
}

/// Decodes an XorDict block back into raw wire bytes.
///
/// `n_packets` and `raw_len` come from the block header; the result is
/// exactly `raw_len` bytes or an error. Decoding never panics on arbitrary
/// `enc` bytes.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] or [`CodecError::Corrupt`] when `enc`
/// does not describe `n_packets` packets totalling `raw_len` bytes under
/// `shape`.
pub(crate) fn decode_block(
    shape: &PacketShape,
    enc: &[u8],
    n_packets: u32,
    raw_len: usize,
) -> Result<Vec<u8>, CodecError> {
    let mut pos = 0;
    let (starts, ends) = read_bitvec_sections(shape, enc, &mut pos, n_packets)?;
    let (sb, eb) = (shape.starts_bytes, shape.ends_bytes);
    // The packets' bit-vectors, and the content items each one implies.
    let packets = || {
        (0..n_packets as usize).map(|p| {
            let s = &starts[p * sb..(p + 1) * sb];
            let e = &ends[p * eb..(p + 1) * eb];
            (s, e, shape.items(s, e))
        })
    };

    // Size the token and residue streams from the item sequence before
    // decoding values.
    let n_tokens = read_len(enc, &mut pos)?;
    if n_tokens != packets().map(|(_, _, items)| items.count()).sum::<usize>() {
        return Err(CodecError::Corrupt(
            "token count disagrees with bit-vectors",
        ));
    }
    let tokens = enc.get(pos..pos + n_tokens).ok_or(CodecError::Truncated)?;
    pos += n_tokens;
    let widths = shape.content_bytes();
    let residue_len: usize = packets()
        .flat_map(|(_, _, items)| items)
        .zip(tokens)
        .filter(|&(_, &t)| DictDecoder::is_literal(t))
        .map(|(c, _)| widths[c])
        .sum();
    let rr_len = read_len(enc, &mut pos)?;
    let rr = enc.get(pos..pos + rr_len).ok_or(CodecError::Truncated)?;
    pos += rr_len;
    if pos != enc.len() {
        return Err(CodecError::Corrupt("trailing bytes after residues"));
    }
    let residues = zrle_decode(rr, residue_len)?;

    let mut coders: Vec<DictDecoder> = widths.iter().map(|&w| DictDecoder::new(w)).collect();
    let mut out = Vec::with_capacity(raw_len);
    let mut tokens = tokens.iter();
    let mut rpos = 0usize;
    for (s, e, items) in packets() {
        out.extend_from_slice(s);
        out.extend_from_slice(e);
        for (c, &token) in items.zip(&mut tokens) {
            let value = coders[c].next(token, &residues, &mut rpos)?;
            out.extend_from_slice(&value);
        }
    }
    if out.len() != raw_len {
        return Err(CodecError::Corrupt("decoded length mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::shape;

    #[test]
    fn sparse_bitvecs_shrink() {
        // 100 quiet packets after one active one: the bit-vector deltas are
        // almost all zero, so the encoded block is far smaller than raw.
        let shape = shape(&[(2, true), (2, false)], false);
        let mut raw = vec![0x01, 0x01, 0xab, 0xcd]; // start ch0 + end ch0 + content
        raw.extend(std::iter::repeat_n(0u8, 2 * 100)); // 100 quiet packets
        let enc = encode_block(&shape, &raw, 101).unwrap();
        assert!(
            enc.len() < raw.len() / 4,
            "enc {} raw {}",
            enc.len(),
            raw.len()
        );
        assert_eq!(decode_block(&shape, &enc, 101, raw.len()).unwrap(), raw);
    }

    #[test]
    fn repeated_values_become_tokens() {
        // One input channel firing every packet with the same 8-byte value:
        // after the first literal, every item is a single token byte.
        let shape = shape(&[(8, true)], false);
        let mut raw = Vec::new();
        for _ in 0..50 {
            raw.push(0x01); // start bit
            raw.push(0x00); // end bits
            raw.extend_from_slice(&[9, 8, 7, 6, 5, 4, 3, 2]);
        }
        let enc = encode_block(&shape, &raw, 50).unwrap();
        assert!(
            enc.len() < raw.len() / 3,
            "enc {} raw {}",
            enc.len(),
            raw.len()
        );
        assert_eq!(decode_block(&shape, &enc, 50, raw.len()).unwrap(), raw);
    }

    #[test]
    fn slowly_varying_values_yield_sparse_residues() {
        // A counter increments its low byte: XOR-previous residues are
        // mostly zero except the low byte, so zero-RLE bites.
        let shape = shape(&[(8, true)], false);
        let mut raw = Vec::new();
        for i in 0u8..100 {
            raw.push(0x01);
            raw.push(0x00);
            raw.extend_from_slice(&[i, 0, 0, 0, 0, 0, 0, 0x42]);
        }
        let enc = encode_block(&shape, &raw, 100).unwrap();
        assert!(
            enc.len() < raw.len() / 2,
            "enc {} raw {}",
            enc.len(),
            raw.len()
        );
        assert_eq!(decode_block(&shape, &enc, 100, raw.len()).unwrap(), raw);
    }
}
