//! The per-block trace codec under the chunk framing (§3.3).
//!
//! A *block* is a run of consecutive cycle packets in the raw wire encoding
//! of [`shape`](crate::shape). The streaming sink encodes each block, frames
//! the result *under* its CRC words behind a 13-byte block header, and
//! stores the block raw instead when encoding fails to shrink it; so
//! torn-tail certification never depends on the codec.
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
//! ([`TraceError::UnsupportedCodec`](crate::TraceError::UnsupportedCodec)).
//!
//! The codec is lossless and self-contained per block: decoding needs only
//! the encoded bytes, the stream's packet shape, the packet count, and the
//! raw length. Decoding untrusted bytes never panics — all structural
//! errors surface as [`CodecError`].

mod dict;
mod vint;

pub(crate) use dict::{decode_block, encode_block};

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
pub(crate) enum CodecError {
    /// The encoded block ended before the structure it declares.
    Truncated,
    /// The encoded block is internally inconsistent (a length, token, or
    /// count disagrees with the packet shape or the declared raw length).
    Corrupt(&'static str),
    /// The raw packet stream handed to the encoder does not parse under the
    /// packet shape (an encoder-side bug, never caused by stored data).
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
#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{ChannelInfo, TraceLayout};
    use crate::packet::CyclePacket;
    use crate::shape::{encode_packet_into, PacketShape};
    use proptest::prelude::*;
    use vidi_chan::Direction;
    use vidi_hwsim::Bits;

    /// The packet shape of whole-byte channels given as
    /// `(width_bytes, is_input)`, layout order.
    pub(super) fn shape(channels: &[(usize, bool)], roc: bool) -> PacketShape {
        let layout = TraceLayout::new(
            channels
                .iter()
                .enumerate()
                .map(|(i, &(bytes, input))| ChannelInfo {
                    name: format!("ch{i}"),
                    width: (bytes * 8) as u32,
                    direction: if input {
                        Direction::Input
                    } else {
                        Direction::Output
                    },
                })
                .collect(),
        );
        PacketShape::new(&layout, roc)
    }

    fn sample_shape() -> PacketShape {
        // Three inputs (4, 1, 2 bytes), two outputs (4, 8 bytes), with
        // output contents recorded.
        shape(
            &[(4, true), (4, false), (1, true), (2, true), (8, false)],
            true,
        )
    }

    /// Hand-builds a raw packet: starts bits over inputs, ends bits over all
    /// channels, then contents for started inputs and (roc) ended outputs in
    /// channel order.
    fn packet(shape: &PacketShape, starts: &[bool], ends: &[bool], contents: &[&[u8]]) -> Vec<u8> {
        let mut out = vec![0u8; shape.starts_bytes];
        for (i, &s) in starts.iter().enumerate() {
            if s {
                out[i / 8] |= 1 << (i % 8);
            }
        }
        let base = out.len();
        out.extend(std::iter::repeat_n(0u8, shape.ends_bytes));
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

    fn sample_block(shape: &PacketShape) -> (Vec<u8>, u32) {
        let mut raw = Vec::new();
        // Packet 0: input 0 starts with content, output ch 1 ends.
        raw.extend(packet(
            shape,
            &[true, false, false],
            &[false, true, false, false, false],
            &[&[0xde, 0xad, 0xbe, 0xef], &[0x11, 0x22, 0x33, 0x44]],
        ));
        // Packet 1: quiet cycle.
        raw.extend(packet(shape, &[false; 3], &[false; 5], &[]));
        // Packet 2: same input content again (dictionary hit), plus the wide
        // output.
        raw.extend(packet(
            shape,
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
    fn block_roundtrips() {
        let shape = sample_shape();
        let (raw, n) = sample_block(&shape);
        let enc = encode_block(&shape, &raw, n).unwrap();
        let dec = decode_block(&shape, &enc, n, raw.len()).unwrap();
        assert_eq!(dec, raw);
    }

    #[test]
    fn empty_block_roundtrips() {
        let shape = sample_shape();
        let enc = encode_block(&shape, &[], 0).unwrap();
        let dec = decode_block(&shape, &enc, 0, 0).unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn repetitive_blocks_compress() {
        let shape = sample_shape();
        let (one, _) = sample_block(&shape);
        let mut raw = Vec::new();
        for _ in 0..64 {
            raw.extend_from_slice(&one);
        }
        let enc = encode_block(&shape, &raw, 3 * 64).unwrap();
        // 2x here: the bit-vector deltas change every packet, which caps
        // what the interleaved coder can reclaim.
        assert!(
            enc.len() * 2 <= raw.len(),
            "{} vs raw {}",
            enc.len(),
            raw.len()
        );
        let dec = decode_block(&shape, &enc, 3 * 64, raw.len()).unwrap();
        assert_eq!(dec, raw);
    }

    #[test]
    fn decode_rejects_wrong_raw_len() {
        let shape = sample_shape();
        let (raw, n) = sample_block(&shape);
        let enc = encode_block(&shape, &raw, n).unwrap();
        assert!(decode_block(&shape, &enc, n, raw.len() + 1).is_err());
    }

    #[test]
    fn decode_corrupt_bytes_never_panics() {
        let shape = sample_shape();
        let (raw, n) = sample_block(&shape);
        let enc = encode_block(&shape, &raw, n).unwrap();
        // Truncations.
        for cut in 0..enc.len() {
            let _ = decode_block(&shape, &enc[..cut], n, raw.len());
        }
        // Single-byte corruptions at every position and bit.
        for pos in 0..enc.len() {
            for bit in 0..8 {
                let mut bad = enc.clone();
                bad[pos] ^= 1 << bit;
                let _ = decode_block(&shape, &bad, n, raw.len());
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

    /// A random block over a random shape: `channels` as `(width_bits,
    /// is_input)`, `n` packets drawn from `seed`. Values repeat often
    /// enough to exercise dictionary hits as well as literals.
    fn random_block(
        channels: &[(u32, bool)],
        roc: bool,
        n: u32,
        seed: u64,
    ) -> (TraceLayout, PacketShape, Vec<CyclePacket>, Vec<u8>) {
        let layout = TraceLayout::new(
            channels
                .iter()
                .enumerate()
                .map(|(i, &(width, input))| ChannelInfo {
                    name: format!("ch{i}"),
                    width,
                    direction: if input {
                        Direction::Input
                    } else {
                        Direction::Output
                    },
                })
                .collect(),
        );
        let shape = PacketShape::new(&layout, roc);
        let mut state = seed;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // Half the values come from a pool of four, half are fresh.
        let value = |width: u32, next: &mut dyn FnMut() -> u64| {
            let pick = next();
            let bytes: Vec<u8> = if pick.is_multiple_of(2) {
                let k = (pick >> 8) as u8 % 4;
                (0..16).map(|b| k ^ b).collect()
            } else {
                (0..16).map(|_| next() as u8).collect()
            };
            Bits::from_bytes(&bytes).resize(width)
        };
        let mut packets = Vec::new();
        let mut raw = Vec::new();
        for _ in 0..n {
            let mut p = CyclePacket::empty(&layout);
            for (i, &c) in layout
                .input_indices()
                .collect::<Vec<_>>()
                .iter()
                .enumerate()
            {
                p.starts[i] = next() % 3 == 0;
                if p.starts[i] {
                    p.contents.push(value(channels[c].0, &mut next));
                }
            }
            for (c, &(width, input)) in channels.iter().enumerate() {
                p.ends[c] = next() % 3 == 0;
                if roc && !input && p.ends[c] {
                    p.contents.push(value(width, &mut next));
                }
            }
            encode_packet_into(&mut raw, &p);
            packets.push(p);
        }
        (layout, shape, packets, raw)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random shapes, the walker reads back every packet, XorDict
        /// round-trips every block, and hostile blocks (bit flips,
        /// truncations, a wrong packet count or raw length) decode to
        /// exactly the requested length or fail typed — never panic.
        #[test]
        fn random_shapes_roundtrip_and_hostile_blocks_fail_typed(
            channels in proptest::collection::vec((1u32..=72, any::<bool>()), 1..=10),
            roc in any::<bool>(),
            n in 0u32..=24,
            seed in any::<u64>(),
            flips in proptest::collection::vec(any::<u64>(), 1..=6),
            skew in 1usize..=8,
        ) {
            let (layout, shape, packets, raw) = random_block(&channels, roc, n, seed);
            let mut walked = Vec::new();
            shape
                .walk(&raw, n, |view| walked.push(view.to_packet(&layout)))
                .expect("encoded packets walk");
            prop_assert_eq!(&walked, &packets);
            prop_assert_eq!(
                packets.iter().map(|p| shape.wire_len(p)).sum::<u64>(),
                raw.len() as u64
            );

            let enc = encode_block(&shape, &raw, n).expect("encode");
            let dec = decode_block(&shape, &enc, n, raw.len()).expect("decode");
            prop_assert_eq!(&dec, &raw);

            let typed = |enc: &[u8], n: u32, raw_len: usize| {
                if let Ok(out) = decode_block(&shape, enc, n, raw_len) {
                    assert_eq!(out.len(), raw_len, "Ok must hold exactly raw_len bytes");
                }
            };
            let mut bad = enc.clone();
            for &f in &flips {
                let at = (f % (bad.len() as u64 * 8)) as usize;
                bad[at / 8] ^= 1 << (at % 8);
                typed(&bad, n, raw.len());
                typed(&enc[..(f % (enc.len() as u64 + 1)) as usize], n, raw.len());
            }
            let skew32 = skew as u32;
            typed(&enc, n + skew32, raw.len());
            typed(&enc, n.saturating_sub(skew32), raw.len());
            typed(&enc, n, raw.len() + skew);
            typed(&enc, n, raw.len().saturating_sub(skew));
            typed(&bad, n + skew32, raw.len() + skew);
        }
    }
}
