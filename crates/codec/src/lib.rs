//! Pluggable per-block trace codecs for the Vidi chunk pipeline.
//!
//! A *block* is a run of consecutive cycle packets in the raw wire encoding
//! (starts bit-vector, ends bit-vector, then content words). This crate
//! transforms such a block into a compressed byte string and back, without
//! knowing anything about CRC framing, chunk boundaries, or storage — that
//! layering lives in `vidi-trace`, which frames encoded blocks *under* its
//! CRC words so torn-tail certification is codec-agnostic.
//!
//! One compressed codec exploits the structure of record/replay traces:
//! [`CodecId::XorDict`] XOR-deltas the starts/ends bit-vectors between
//! consecutive packets and zero-run-length encodes them (most cycles touch
//! the same few channels, so deltas are near-zero), and codes content words
//! with per-channel XOR-previous plus a small move-to-front dictionary
//! (repeated or slowly-varying words collapse to one token byte).
//! [`CodecId::Raw`] stores the wire bytes unchanged.
//!
//! Wire ids 1 and 3 belonged to the retired `DeltaRle` and `Columnar`
//! codecs. They stay reserved: [`CodecId::from_u8`] rejects them, so a
//! chunk stream that names them fails to open with a typed error
//! (`TraceError::UnsupportedCodec` in `vidi-trace`).
//!
//! Every codec is lossless and self-contained per block: decoding needs only
//! the encoded bytes, the [`PacketSchema`], the packet count, and the raw
//! length. Decoding untrusted bytes never panics — all structural errors
//! surface as [`CodecError`].

mod dict;
mod schema;
mod vint;

pub use schema::PacketSchema;

/// Identifies a block codec on the wire. The `u8` value is what the chunk
/// header and each block header carry, so the discriminants are frozen;
/// ids 1 and 3 are retired and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum CodecId {
    /// Identity: blocks are the raw packet wire bytes.
    #[default]
    Raw = 0,
    /// Delta+RLE bit-vectors plus XOR-previous and a small move-to-front
    /// dictionary over content words.
    XorDict = 2,
}

impl CodecId {
    /// Every codec this build knows, in wire-id order.
    pub const ALL: [CodecId; 2] = [CodecId::Raw, CodecId::XorDict];

    /// Decodes a wire id byte; unknown and retired ids yield `None`.
    #[must_use]
    pub fn from_u8(byte: u8) -> Option<CodecId> {
        match byte {
            0 => Some(CodecId::Raw),
            2 => Some(CodecId::XorDict),
            _ => None,
        }
    }

    /// Stable human-readable name, used by CLIs and bench rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CodecId::Raw => "raw",
            CodecId::XorDict => "xor-dict",
        }
    }

    /// Parses a name produced by [`CodecId::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<CodecId> {
        CodecId::ALL.iter().copied().find(|c| c.name() == name)
    }

    /// Whether this codec actually transforms bytes (everything but raw).
    #[must_use]
    pub fn is_compressed(self) -> bool {
        self != CodecId::Raw
    }
}

impl std::fmt::Display for CodecId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a block failed to encode or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The encoded block ended before the structure it declares.
    Truncated,
    /// The encoded block is internally inconsistent (a length, token, or
    /// count disagrees with the schema or the declared raw length).
    Corrupt(&'static str),
    /// The raw packet stream handed to the encoder does not parse under the
    /// schema (an encoder-side bug, never caused by stored data).
    MalformedRaw(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "encoded block truncated"),
            CodecError::Corrupt(what) => write!(f, "encoded block corrupt: {what}"),
            CodecError::MalformedRaw(what) => write!(f, "raw packet stream malformed: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encodes `n_packets` packets of raw wire bytes into a block under `codec`.
///
/// The output carries no header — the caller records `codec`, `n_packets`,
/// and `raw.len()` alongside it (Vidi's chunk layer puts them in the block
/// header it frames). [`CodecId::Raw`] copies the input.
///
/// # Errors
///
/// Returns [`CodecError::MalformedRaw`] if `raw` does not parse as exactly
/// `n_packets` packets under `schema`.
pub fn encode_block(
    codec: CodecId,
    schema: &PacketSchema,
    raw: &[u8],
    n_packets: u32,
) -> Result<Vec<u8>, CodecError> {
    match codec {
        CodecId::Raw => Ok(raw.to_vec()),
        CodecId::XorDict => dict::encode(schema, raw, n_packets),
    }
}

/// Decodes a block back into raw wire bytes.
///
/// `n_packets` and `raw_len` come from the block header; the result is
/// exactly `raw_len` bytes or an error. Decoding never panics on arbitrary
/// `enc` bytes.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] or [`CodecError::Corrupt`] when `enc`
/// does not describe `n_packets` packets totalling `raw_len` bytes under
/// `schema`.
pub fn decode_block(
    codec: CodecId,
    schema: &PacketSchema,
    enc: &[u8],
    n_packets: u32,
    raw_len: usize,
) -> Result<Vec<u8>, CodecError> {
    let out = match codec {
        CodecId::Raw => {
            if enc.len() != raw_len {
                return Err(CodecError::Corrupt("stored block length mismatch"));
            }
            enc.to_vec()
        }
        CodecId::XorDict => dict::decode(schema, enc, n_packets, raw_len)?,
    };
    if out.len() != raw_len {
        return Err(CodecError::Corrupt("decoded length mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> PacketSchema {
        // Three inputs (4, 1, 2 bytes), two outputs (4, 8 bytes), with
        // output contents recorded.
        PacketSchema::new(
            &[(4, true), (4, false), (1, true), (2, true), (8, false)],
            true,
        )
    }

    /// Hand-builds a raw packet: starts bits over inputs, ends bits over all
    /// channels, then contents for started inputs and (roc) ended outputs in
    /// channel order.
    fn packet(
        schema: &PacketSchema,
        starts: &[bool],
        ends: &[bool],
        contents: &[&[u8]],
    ) -> Vec<u8> {
        let mut out = vec![0u8; schema.starts_bytes()];
        for (i, &s) in starts.iter().enumerate() {
            if s {
                out[i / 8] |= 1 << (i % 8);
            }
        }
        let base = out.len();
        out.extend(std::iter::repeat_n(0u8, schema.ends_bytes()));
        for (i, &e) in ends.iter().enumerate() {
            if e {
                out[base + i / 8] |= 1 << (i % 8);
            }
        }
        for c in contents {
            out.extend_from_slice(c);
        }
        out
    }

    fn sample_block(schema: &PacketSchema) -> (Vec<u8>, u32) {
        let mut raw = Vec::new();
        // Packet 0: input 0 starts with content, output ch 1 ends.
        raw.extend(packet(
            schema,
            &[true, false, false],
            &[false, true, false, false, false],
            &[&[0xde, 0xad, 0xbe, 0xef], &[0x11, 0x22, 0x33, 0x44]],
        ));
        // Packet 1: quiet cycle.
        raw.extend(packet(schema, &[false; 3], &[false; 5], &[]));
        // Packet 2: same input content again (dictionary hit), plus the wide
        // output.
        raw.extend(packet(
            schema,
            &[true, false, true],
            &[true, false, false, false, true],
            &[
                &[0xde, 0xad, 0xbe, 0xef],
                &[0x07, 0x08],
                &[1, 2, 3, 4, 5, 6, 7, 8],
            ],
        ));
        (raw, 3)
    }

    #[test]
    fn roundtrip_every_codec() {
        let schema = schema();
        let (raw, n) = sample_block(&schema);
        for codec in CodecId::ALL {
            let enc = encode_block(codec, &schema, &raw, n).unwrap();
            let dec = decode_block(codec, &schema, &enc, n, raw.len()).unwrap();
            assert_eq!(dec, raw, "codec {codec} round-trip");
        }
    }

    #[test]
    fn empty_block_roundtrips() {
        let schema = schema();
        for codec in CodecId::ALL {
            let enc = encode_block(codec, &schema, &[], 0).unwrap();
            let dec = decode_block(codec, &schema, &enc, 0, 0).unwrap();
            assert!(dec.is_empty(), "codec {codec}");
        }
    }

    #[test]
    fn repetitive_blocks_compress() {
        let schema = schema();
        let (one, _) = sample_block(&schema);
        let mut raw = Vec::new();
        for _ in 0..64 {
            raw.extend_from_slice(&one);
        }
        let codec = CodecId::XorDict;
        let enc = encode_block(codec, &schema, &raw, 3 * 64).unwrap();
        // 2x here: the bit-vector deltas change every packet, which caps
        // what the interleaved coder can reclaim.
        assert!(
            enc.len() * 2 <= raw.len(),
            "codec {codec}: {} vs raw {}",
            enc.len(),
            raw.len()
        );
        let dec = decode_block(codec, &schema, &enc, 3 * 64, raw.len()).unwrap();
        assert_eq!(dec, raw);
    }

    #[test]
    fn decode_rejects_wrong_raw_len() {
        let schema = schema();
        let (raw, n) = sample_block(&schema);
        for codec in CodecId::ALL {
            let enc = encode_block(codec, &schema, &raw, n).unwrap();
            assert!(decode_block(codec, &schema, &enc, n, raw.len() + 1).is_err());
        }
    }

    #[test]
    fn decode_corrupt_bytes_never_panics() {
        let schema = schema();
        let (raw, n) = sample_block(&schema);
        let codec = CodecId::XorDict;
        let enc = encode_block(codec, &schema, &raw, n).unwrap();
        // Truncations.
        for cut in 0..enc.len() {
            let _ = decode_block(codec, &schema, &enc[..cut], n, raw.len());
        }
        // Single-byte corruptions at every position and bit.
        for pos in 0..enc.len() {
            for bit in 0..8 {
                let mut bad = enc.clone();
                bad[pos] ^= 1 << bit;
                let _ = decode_block(codec, &schema, &bad, n, raw.len());
            }
        }
    }

    #[test]
    fn codec_id_wire_stability() {
        for codec in CodecId::ALL {
            assert_eq!(CodecId::from_u8(codec as u8), Some(codec));
            assert_eq!(CodecId::from_name(codec.name()), Some(codec));
        }
        assert_eq!(CodecId::from_u8(7), None);
        assert_eq!(CodecId::from_name("gzip"), None);
    }

    #[test]
    fn retired_codec_ids_are_rejected() {
        // Wire ids 1 (delta-rle) and 3 (columnar) are retired, not reused.
        for id in [1, 3] {
            assert_eq!(CodecId::from_u8(id), None, "id {id}");
        }
        for name in ["delta-rle", "columnar"] {
            assert_eq!(CodecId::from_name(name), None, "{name}");
        }
    }
}
