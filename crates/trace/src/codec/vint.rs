//! LEB128 varints and zero-run-length coding shared by every codec.
//!
//! The zero-RLE stream is a sequence of pairs `varint(zeros) varint(lit_len)
//! lit_bytes`: emit `zeros` zero bytes, then copy `lit_len` literal bytes.
//! Decoding is driven by the expected output length, so a corrupt stream is
//! detected as over- or under-production, never by reading out of bounds.

use super::CodecError;

/// Appends `v` as an LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint at `*pos`, advancing it.
pub fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = data.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(CodecError::Corrupt("varint overflows u64"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Reads a varint that must fit a `usize` length.
pub fn read_len(data: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    let v = read_varint(data, pos)?;
    usize::try_from(v).map_err(|_| CodecError::Corrupt("length exceeds address space"))
}

/// A zero run must be at least this long before it pays to break a literal.
const ZMIN: usize = 3;

/// Zero-run-length encodes `data`.
pub fn zrle_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < data.len() {
        let zeros = data[i..].iter().take_while(|&&b| b == 0).count();
        i += zeros;
        let lit_start = i;
        while i < data.len() {
            if data[i] == 0 {
                let zrun = data[i..].iter().take_while(|&&b| b == 0).count();
                if zrun >= ZMIN {
                    break;
                }
                i += zrun;
            } else {
                i += 1;
            }
        }
        write_varint(&mut out, zeros as u64);
        write_varint(&mut out, (i - lit_start) as u64);
        out.extend_from_slice(&data[lit_start..i]);
    }
    out
}

/// Decodes a zero-RLE stream that must produce exactly `expect` bytes.
pub fn zrle_decode(enc: &[u8], expect: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(expect.min(enc.len().saturating_mul(64)));
    let mut pos = 0;
    while out.len() < expect {
        let zeros = read_len(enc, &mut pos)?;
        let lit = read_len(enc, &mut pos)?;
        if zeros > expect - out.len() || lit > expect - out.len() - zeros {
            return Err(CodecError::Corrupt("zero-RLE overruns expected length"));
        }
        out.resize(out.len() + zeros, 0);
        let bytes = enc.get(pos..pos + lit).ok_or(CodecError::Truncated)?;
        out.extend_from_slice(bytes);
        pos += lit;
    }
    if pos != enc.len() {
        return Err(CodecError::Corrupt("zero-RLE trailing bytes"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut out = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            out.clear();
            write_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(read_varint(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        let enc = [0xffu8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut pos = 0;
        assert!(read_varint(&enc, &mut pos).is_err());
    }

    #[test]
    fn zrle_roundtrip_shapes() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0; 100],
            vec![7; 100],
            vec![0, 0, 0, 1, 2, 3, 0, 0, 0, 0, 9],
            vec![1, 0, 2, 0, 3],
            (0..=255).collect(),
        ];
        for data in cases {
            let enc = zrle_encode(&data);
            assert_eq!(zrle_decode(&enc, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn zrle_compresses_sparse_data() {
        let mut data = vec![0u8; 1000];
        data[500] = 42;
        assert!(zrle_encode(&data).len() < 10);
    }

    #[test]
    fn zrle_rejects_wrong_expect() {
        let data = vec![0, 0, 0, 0, 5, 6];
        let enc = zrle_encode(&data);
        assert!(zrle_decode(&enc, data.len() - 1).is_err());
        assert!(zrle_decode(&enc, data.len() + 1).is_err());
    }

    #[test]
    fn zrle_empty_stream_only_decodes_to_empty() {
        assert_eq!(zrle_decode(&[], 0).unwrap(), Vec::<u8>::new());
        assert!(zrle_decode(&[], 1).is_err());
    }
}
