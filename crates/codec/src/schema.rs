//! The packet-shape contract between the chunk layer and the codecs.
//!
//! Codecs never see `TraceLayout` — only this reduced schema: per-channel
//! content widths in bytes, per-channel direction, and whether output
//! contents are recorded. That is exactly what the raw wire encoding of a
//! packet depends on, so `vidi-trace` derives a `PacketSchema` from its
//! layout and the codecs stay dependency-free.

use crate::CodecError;

/// Describes the byte shape of one cycle packet on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketSchema {
    /// Content width in bytes for each channel, in layout order.
    widths: Vec<usize>,
    /// Whether each channel is an input, in layout order.
    input: Vec<bool>,
    /// Channel index carrying each start bit (inputs in layout order).
    input_channels: Vec<usize>,
    /// Whether output contents are recorded (`record_output_content`).
    roc: bool,
}

impl PacketSchema {
    /// Builds a schema from `(width_bytes, is_input)` per channel in layout
    /// order, plus the `record_output_content` flag.
    #[must_use]
    pub fn new(channels: &[(usize, bool)], record_output_content: bool) -> PacketSchema {
        let widths = channels.iter().map(|&(w, _)| w).collect();
        let input: Vec<bool> = channels.iter().map(|&(_, i)| i).collect();
        let input_channels = input
            .iter()
            .enumerate()
            .filter(|&(_, &is_in)| is_in)
            .map(|(c, _)| c)
            .collect();
        PacketSchema {
            widths,
            input,
            input_channels,
            roc: record_output_content,
        }
    }

    /// Number of channels.
    #[must_use]
    pub fn n_channels(&self) -> usize {
        self.widths.len()
    }

    /// Number of input channels (the width of the starts bit-vector).
    #[must_use]
    pub fn n_inputs(&self) -> usize {
        self.input_channels.len()
    }

    /// Whether output contents are recorded.
    #[must_use]
    pub fn record_output_content(&self) -> bool {
        self.roc
    }

    /// Content width in bytes of channel `c`.
    #[must_use]
    pub fn width(&self, c: usize) -> usize {
        self.widths[c]
    }

    /// Whether channel `c` is an input.
    #[must_use]
    pub fn is_input(&self, c: usize) -> bool {
        self.input[c]
    }

    /// Channel index of start bit `i`.
    #[must_use]
    pub fn input_channel(&self, i: usize) -> usize {
        self.input_channels[i]
    }

    /// Bytes of the starts bit-vector in each packet.
    #[must_use]
    pub fn starts_bytes(&self) -> usize {
        self.n_inputs().div_ceil(8)
    }

    /// Bytes of the ends bit-vector in each packet.
    #[must_use]
    pub fn ends_bytes(&self) -> usize {
        self.n_channels().div_ceil(8)
    }

    /// Fixed per-packet bytes (both bit-vectors, before any content).
    #[must_use]
    pub fn fixed_bytes(&self) -> usize {
        self.starts_bytes() + self.ends_bytes()
    }

    /// Whether channel `c` ever carries content bytes in a packet: inputs
    /// always do (when started), outputs only when output content is
    /// recorded.
    #[must_use]
    pub fn carries_content(&self, c: usize) -> bool {
        self.input[c] || self.roc
    }
}

/// Reads bit `i` of a little-endian bit-vector.
pub fn bit(bytes: &[u8], i: usize) -> bool {
    bytes[i / 8] >> (i % 8) & 1 == 1
}

/// One parsed packet: byte ranges into the raw stream.
pub struct PacketView<'a> {
    /// Starts bit-vector bytes.
    pub starts: &'a [u8],
    /// Ends bit-vector bytes.
    pub ends: &'a [u8],
    /// Content items as `(channel, bytes)` in wire order.
    pub items: Vec<(usize, &'a [u8])>,
}

/// Walks `raw` as exactly `n_packets` packets, calling `f` per packet.
///
/// # Errors
///
/// Returns [`CodecError::MalformedRaw`] on truncation or trailing bytes.
pub fn walk_packets<'a>(
    schema: &PacketSchema,
    raw: &'a [u8],
    n_packets: u32,
    mut f: impl FnMut(usize, PacketView<'a>),
) -> Result<(), CodecError> {
    let mut pos = 0;
    for p in 0..n_packets as usize {
        let view = parse_packet(schema, raw, &mut pos)?;
        f(p, view);
    }
    if pos != raw.len() {
        return Err(CodecError::MalformedRaw("trailing bytes after last packet"));
    }
    Ok(())
}

/// Parses one packet at `*pos`, advancing it past the packet.
fn parse_packet<'a>(
    schema: &PacketSchema,
    raw: &'a [u8],
    pos: &mut usize,
) -> Result<PacketView<'a>, CodecError> {
    let take = |pos: &mut usize, len: usize| -> Result<&'a [u8], CodecError> {
        let bytes = raw
            .get(*pos..*pos + len)
            .ok_or(CodecError::MalformedRaw("packet truncated"))?;
        *pos += len;
        Ok(bytes)
    };
    let starts = take(pos, schema.starts_bytes())?;
    let ends = take(pos, schema.ends_bytes())?;
    let mut items = Vec::new();
    for i in 0..schema.n_inputs() {
        if bit(starts, i) {
            let c = schema.input_channel(i);
            items.push((c, take(pos, schema.width(c))?));
        }
    }
    if schema.record_output_content() {
        for c in 0..schema.n_channels() {
            if !schema.is_input(c) && bit(ends, c) {
                items.push((c, take(pos, schema.width(c))?));
            }
        }
    }
    Ok(PacketView {
        starts,
        ends,
        items,
    })
}

/// The content items implied by decoded bit-vectors, as `(channel, width)`
/// in wire order — the decoder's mirror of [`walk_packets`] item order.
pub fn items_of(schema: &PacketSchema, starts: &[u8], ends: &[u8]) -> Vec<(usize, usize)> {
    let mut items = Vec::new();
    for i in 0..schema.n_inputs() {
        if bit(starts, i) {
            let c = schema.input_channel(i);
            items.push((c, schema.width(c)));
        }
    }
    if schema.record_output_content() {
        for c in 0..schema.n_channels() {
            if !schema.is_input(c) && bit(ends, c) {
                items.push((c, schema.width(c)));
            }
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_shape() {
        let s = PacketSchema::new(&[(4, true), (2, false), (1, true)], false);
        assert_eq!(s.n_channels(), 3);
        assert_eq!(s.n_inputs(), 2);
        assert_eq!(s.input_channel(0), 0);
        assert_eq!(s.input_channel(1), 2);
        assert_eq!(s.starts_bytes(), 1);
        assert_eq!(s.ends_bytes(), 1);
        assert!(s.carries_content(0));
        assert!(!s.carries_content(1));
    }

    #[test]
    fn walk_rejects_trailing_and_truncated() {
        let s = PacketSchema::new(&[(1, true)], false);
        // One quiet packet is 2 bytes (1 start byte + 1 end byte).
        assert!(walk_packets(&s, &[0, 0], 1, |_, _| {}).is_ok());
        assert!(walk_packets(&s, &[0, 0, 0], 1, |_, _| {}).is_err());
        assert!(walk_packets(&s, &[0], 1, |_, _| {}).is_err());
    }
}
