//! The wire layout of one cycle packet (§3.2, Fig 5), in one place.
//!
//! A packet on the wire is the `Starts` bit-vector (one bit per input
//! channel), the `Ends` bit-vector (one bit per channel), then one content
//! item per set start bit (input channels, layout order) followed — when
//! output contents are recorded — by one per set end bit of an output
//! channel. Each item is its channel's width rounded up to whole bytes.
//!
//! [`PacketShape`] is that rule for one stream, computed once from the
//! layout. [`encode_packet_into`] writes packets, [`PacketShape::wire_len`]
//! sizes them and [`PacketShape::parse`] is the one walker over their wire
//! bytes: the packet decoder, the block codec and the sink's restore check
//! all read packets through it.

use vidi_chan::Direction;
use vidi_hwsim::Bits;

use crate::codec::CodecError;
use crate::layout::TraceLayout;
use crate::packet::CyclePacket;

/// The byte shape of a stream's cycle packets.
#[derive(Debug)]
pub(crate) struct PacketShape {
    /// Content bytes of each channel, layout order.
    content_bytes: Vec<usize>,
    /// Channel index behind each start bit.
    input_channels: Vec<usize>,
    /// Output channels whose end events carry content: every output when
    /// output contents are recorded, none otherwise.
    recorded_outputs: Vec<usize>,
    /// Bytes of the `Starts` bit-vector.
    pub(crate) starts_bytes: usize,
    /// Bytes of the `Ends` bit-vector.
    pub(crate) ends_bytes: usize,
    /// Bytes every packet carries before its contents (both bit-vectors).
    pub(crate) fixed_bytes: usize,
}

impl PacketShape {
    /// The packet shape of a stream over `layout`.
    pub(crate) fn new(layout: &TraceLayout, record_output_content: bool) -> PacketShape {
        let channels = layout.channels();
        let of = |dir: Direction| {
            channels
                .iter()
                .enumerate()
                .filter(move |(_, ch)| ch.direction == dir)
                .map(|(c, _)| c)
        };
        let input_channels: Vec<usize> = of(Direction::Input).collect();
        let recorded_outputs = if record_output_content {
            of(Direction::Output).collect()
        } else {
            Vec::new()
        };
        let starts_bytes = input_channels.len().div_ceil(8);
        let ends_bytes = channels.len().div_ceil(8);
        PacketShape {
            content_bytes: channels
                .iter()
                .map(|ch| (ch.width as usize).div_ceil(8))
                .collect(),
            input_channels,
            recorded_outputs,
            starts_bytes,
            ends_bytes,
            fixed_bytes: starts_bytes + ends_bytes,
        }
    }

    /// Bytes `packet` occupies on the wire: what [`encode_packet_into`]
    /// writes for it.
    pub(crate) fn wire_len(&self, packet: &CyclePacket) -> u64 {
        let contents: usize = packet
            .contents
            .iter()
            .map(|c| c.width().div_ceil(8) as usize)
            .sum();
        (self.fixed_bytes + contents) as u64
    }

    /// The channels whose content items follow these bit-vectors, in wire
    /// order: started inputs, then ended recorded outputs.
    pub(crate) fn items<'s>(
        &'s self,
        starts: &'s [u8],
        ends: &'s [u8],
    ) -> impl Iterator<Item = usize> + 's {
        let started = self
            .input_channels
            .iter()
            .enumerate()
            .filter(move |&(i, _)| bit(starts, i))
            .map(|(_, &c)| c);
        let ended = self
            .recorded_outputs
            .iter()
            .copied()
            .filter(move |&c| bit(ends, c));
        started.chain(ended)
    }

    /// Content bytes of each channel, layout order.
    pub(crate) fn content_bytes(&self) -> &[usize] {
        &self.content_bytes
    }

    /// Splits the packet at the front of `raw` into its bit-vectors and
    /// contents, or `None` if `raw` ends inside it.
    pub(crate) fn parse<'a>(&'a self, raw: &'a [u8]) -> Option<PacketView<'a>> {
        let starts = raw.get(..self.starts_bytes)?;
        let ends = raw.get(self.starts_bytes..self.fixed_bytes)?;
        let content_len: usize = self
            .items(starts, ends)
            .map(|c| self.content_bytes[c])
            .sum();
        let contents = raw.get(self.fixed_bytes..self.fixed_bytes + content_len)?;
        Some(PacketView {
            shape: self,
            starts,
            ends,
            contents,
        })
    }

    /// Walks `raw` as exactly `n_packets` packets, calling `f` per packet.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::MalformedRaw`] on truncation or trailing bytes.
    pub(crate) fn walk<'a>(
        &'a self,
        raw: &'a [u8],
        n_packets: u32,
        mut f: impl FnMut(&PacketView<'a>),
    ) -> Result<(), CodecError> {
        let mut pos = 0;
        for _ in 0..n_packets {
            let view = self
                .parse(&raw[pos..])
                .ok_or(CodecError::MalformedRaw("packet truncated"))?;
            pos += view.len();
            f(&view);
        }
        if pos != raw.len() {
            return Err(CodecError::MalformedRaw("trailing bytes after last packet"));
        }
        Ok(())
    }
}

/// One packet's wire bytes, split by [`PacketShape::parse`].
pub(crate) struct PacketView<'a> {
    shape: &'a PacketShape,
    /// `Starts` bit-vector bytes.
    pub(crate) starts: &'a [u8],
    /// `Ends` bit-vector bytes.
    pub(crate) ends: &'a [u8],
    /// Every content item, back to back in wire order.
    contents: &'a [u8],
}

impl<'a> PacketView<'a> {
    /// Wire bytes of the packet.
    pub(crate) fn len(&self) -> usize {
        self.shape.fixed_bytes + self.contents.len()
    }

    /// The content items as `(channel, bytes)`, in wire order.
    pub(crate) fn items(&self) -> impl Iterator<Item = (usize, &'a [u8])> + 'a {
        let shape = self.shape;
        let mut rest = self.contents;
        shape.items(self.starts, self.ends).map(move |c| {
            let (bytes, tail) = rest.split_at(shape.content_bytes[c]);
            rest = tail;
            (c, bytes)
        })
    }

    /// The packet as a [`CyclePacket`] over `layout` (the layout `shape`
    /// was built from).
    pub(crate) fn to_packet(&self, layout: &TraceLayout) -> CyclePacket {
        let bits = |bytes: &[u8], n: usize| (0..n).map(|i| bit(bytes, i)).collect();
        CyclePacket {
            starts: bits(self.starts, self.shape.input_channels.len()),
            ends: bits(self.ends, layout.len()),
            contents: self
                .items()
                .map(|(c, bytes)| Bits::from_bytes(bytes).resize(layout.channels()[c].width))
                .collect(),
        }
    }
}

/// Reads bit `i` of a little-endian bit-vector.
fn bit(bytes: &[u8], i: usize) -> bool {
    bytes[i / 8] >> (i % 8) & 1 == 1
}

/// Serializes one cycle packet — the single packet-encode path shared by
/// [`Trace::encode`](crate::Trace::encode) and the streaming
/// [`TraceSink`](crate::TraceSink).
pub(crate) fn encode_packet_into(out: &mut Vec<u8>, p: &CyclePacket) {
    write_bitvec(out, &p.starts);
    write_bitvec(out, &p.ends);
    for c in &p.contents {
        out.extend_from_slice(&c.to_bytes());
    }
}

fn write_bitvec(out: &mut Vec<u8>, bits: &[bool]) {
    let mut byte = 0u8;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !bits.len().is_multiple_of(8) {
        out.push(byte);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ChannelInfo;

    fn layout(channels: &[(u32, bool)]) -> TraceLayout {
        TraceLayout::new(
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
        )
    }

    #[test]
    fn shape_counts() {
        let s = PacketShape::new(&layout(&[(32, true), (16, false), (8, true)]), false);
        assert_eq!(s.input_channels, vec![0, 2]);
        assert!(s.recorded_outputs.is_empty());
        assert_eq!(s.content_bytes, vec![4, 2, 1]);
        assert_eq!((s.starts_bytes, s.ends_bytes, s.fixed_bytes), (1, 1, 2));
        let roc = PacketShape::new(&layout(&[(32, true), (16, false), (8, true)]), true);
        assert_eq!(roc.recorded_outputs, vec![1]);
    }

    #[test]
    fn walk_rejects_trailing_and_truncated() {
        let s = PacketShape::new(&layout(&[(8, true)]), false);
        // One quiet packet is 2 bytes (1 start byte + 1 end byte).
        assert!(s.walk(&[0, 0], 1, |_| {}).is_ok());
        assert!(s.walk(&[0, 0, 0], 1, |_| {}).is_err());
        assert!(s.walk(&[0], 1, |_| {}).is_err());
        // A start bit promises a content byte the stream does not hold.
        assert!(s.walk(&[1, 0], 1, |_| {}).is_err());
    }
}
