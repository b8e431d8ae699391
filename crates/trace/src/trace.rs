//! The trace container, the self-description header in both directions,
//! and size accounting.
//!
//! [`encode_header_into`]/[`decode_header`] are the one header codec and
//! [`shape`](crate::shape) owns the packet wire layout; the streaming
//! [`TraceSink`](crate::TraceSink) and [`TraceSource`](crate::TraceSource)
//! frame those bytes into storage words.

use vidi_chan::Direction;
use vidi_hwsim::Bits;

use crate::codec::CodecId;
use crate::error::TraceError;
use crate::layout::{ChannelInfo, TraceLayout};
use crate::packet::CyclePacket;
use crate::shape::{encode_packet_into, PacketShape};

const MAGIC: &[u8; 4] = b"VIDI";
const VERSION: u16 = 1;
/// Header version that carries a block-codec id byte after the
/// output-content flag. Version-1 headers are byte-identical to the
/// pre-codec format and imply [`CodecId::Raw`].
const VERSION_CODEC: u16 = 2;

/// A complete recorded execution trace: the channel layout plus the sequence
/// of cycle packets emitted by the trace encoder.
///
/// A trace is self-describing (the layout is embedded in the header), so it
/// can be saved on one machine — or by one harness configuration — and
/// replayed by another, exactly like the paper's record-on-hardware,
/// replay-in-simulation workflow (§5.2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trace {
    layout: TraceLayout,
    record_output_content: bool,
    packets: Vec<CyclePacket>,
}

impl Trace {
    /// Creates an empty trace for a layout.
    pub fn new(layout: TraceLayout, record_output_content: bool) -> Self {
        Trace {
            layout,
            record_output_content,
            packets: Vec::new(),
        }
    }

    /// The channel layout.
    pub fn layout(&self) -> &TraceLayout {
        &self.layout
    }

    /// Whether output-transaction contents were recorded (§3.6).
    pub fn records_output_content(&self) -> bool {
        self.record_output_content
    }

    /// Appends one cycle packet.
    pub fn push(&mut self, packet: CyclePacket) {
        debug_assert_eq!(packet.ends.len(), self.layout.len());
        self.packets.push(packet);
    }

    /// The recorded cycle packets, in order.
    pub fn packets(&self) -> &[CyclePacket] {
        &self.packets
    }

    /// Mutable access for trace mutation tooling.
    pub fn packets_mut(&mut self) -> &mut Vec<CyclePacket> {
        &mut self.packets
    }

    /// Total number of transactions recorded (one end event each).
    pub fn transaction_count(&self) -> u64 {
        self.packets.iter().map(|p| p.end_count() as u64).sum()
    }

    /// Number of transactions completed on one channel.
    pub fn channel_transaction_count(&self, channel: usize) -> u64 {
        self.packets.iter().filter(|p| p.ends[channel]).count() as u64
    }

    /// The contents of every *started* transaction on an input channel, in
    /// order.
    pub fn input_contents(&self, channel: usize) -> Vec<Bits> {
        assert_eq!(
            self.layout.channels()[channel].direction,
            Direction::Input,
            "input_contents on an output channel"
        );
        let mut out = Vec::new();
        for p in &self.packets {
            let pkt = &p.disassemble(&self.layout, self.record_output_content)[channel];
            if pkt.start {
                if let Some(c) = &pkt.content {
                    out.push(c.clone());
                }
            }
        }
        out
    }

    /// The contents attached to *completed* transactions on an output
    /// channel, in order. Empty unless output recording was enabled.
    pub fn output_contents(&self, channel: usize) -> Vec<Bits> {
        assert_eq!(
            self.layout.channels()[channel].direction,
            Direction::Output,
            "output_contents on an input channel"
        );
        let mut out = Vec::new();
        for p in &self.packets {
            if p.ends[channel] {
                let pkts = p.disassemble(&self.layout, self.record_output_content);
                if let Some(c) = &pkts[channel].content {
                    out.push(c.clone());
                }
            }
        }
        out
    }

    /// Serializes the trace to its canonical unframed byte form: the header
    /// then every packet, as one stream. Trace-identity checks compare this
    /// form; storage always uses [`encode_framed`](Trace::encode_framed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.encode_header();
        let n_inputs = self.layout.input_indices().count();
        for p in &self.packets {
            debug_assert_eq!(p.starts.len(), n_inputs);
            encode_packet_into(&mut out, p);
        }
        out
    }

    /// Serializes the self-description header (everything up to and
    /// including the packet count).
    fn encode_header(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_header_into(
            &mut out,
            &self.layout,
            self.record_output_content,
            self.packets.len() as u64,
            CodecId::Raw,
        );
        out
    }

    /// Serializes the trace into CRC-framed 64-byte storage words (the
    /// crash-safe on-storage layout). Unlike [`encode`](Trace::encode), the
    /// result tolerates bit flips, torn writes, and truncation: a reader
    /// can always [`recover`](crate::recover_trace) the longest valid
    /// packet prefix.
    ///
    /// This is [`write_framed`](Trace::write_framed) into memory; both
    /// produce identical bytes for identical packets.
    pub fn encode_framed(&self) -> Vec<u8> {
        self.write_framed(Vec::new())
            .expect("Vec chunk sink cannot fail")
    }

    /// Streams the trace, in the layout of
    /// [`encode_framed`](Trace::encode_framed), through the streaming
    /// [`TraceSink`](crate::TraceSink) into `backend`, one
    /// [`DEFAULT_CHUNK_WORDS`](crate::DEFAULT_CHUNK_WORDS)-word chunk per
    /// [`put_chunk`](crate::ChunkSink::put_chunk), and returns the backend.
    /// Every chunk already written stays durable if a later one fails.
    ///
    /// # Errors
    ///
    /// Returns the first [`ChunkIoError`](crate::ChunkIoError) the backend
    /// reports.
    pub fn write_framed<W: crate::ChunkSink>(&self, backend: W) -> Result<W, crate::ChunkIoError> {
        let mut sink = crate::stream::TraceSink::with_declared(
            backend,
            &self.layout,
            self.record_output_content,
            self.packets.len() as u64,
            crate::stream::DEFAULT_CHUNK_WORDS,
        );
        for p in &self.packets {
            sink.push(p)?;
        }
        sink.finish()
    }

    /// The trace body size in bytes (cycle packets only, excluding the
    /// self-description header) — the quantity reported in Table 1's
    /// "TS" column.
    pub fn body_bytes(&self) -> u64 {
        let shape = PacketShape::new(&self.layout, self.record_output_content);
        self.packets.iter().map(|p| shape.wire_len(p)).sum()
    }

    /// What a cycle-accurate recorder would store for `cycles` cycles of
    /// this layout, in bytes (§5.5): every input signal of the circuit,
    /// every cycle.
    pub fn cycle_accurate_bytes(&self, cycles: u64) -> u64 {
        (self.layout.cycle_accurate_bits_per_cycle() * cycles).div_ceil(8)
    }
}

/// Serializes the self-description header for `count` packets (a streaming
/// sink passes a sentinel count; see [`crate::stream`]).
///
/// A raw-codec header is the byte-identical version-1 format; any other
/// codec writes a version-2 header carrying the codec id byte, which is how
/// the codec is negotiated to readers — raw and compressed streams
/// interoperate through the same [`TraceSource`](crate::TraceSource).
pub(crate) fn encode_header_into(
    out: &mut Vec<u8>,
    layout: &TraceLayout,
    record_output_content: bool,
    count: u64,
    codec: CodecId,
) {
    out.extend_from_slice(MAGIC);
    if codec == CodecId::Raw {
        write_u16(out, VERSION);
        out.push(record_output_content as u8);
    } else {
        write_u16(out, VERSION_CODEC);
        out.push(record_output_content as u8);
        out.push(codec as u8);
    }
    write_u16(
        out,
        u16::try_from(layout.len())
            .expect("TraceLayout::try_new caps layouts at u16::MAX channels"),
    );
    for ch in layout.channels() {
        write_u16(out, ch.name.len() as u16);
        out.extend_from_slice(ch.name.as_bytes());
        write_u32(out, ch.width);
        out.push(match ch.direction {
            Direction::Input => 0,
            Direction::Output => 1,
        });
    }
    write_u64(out, count);
}

/// Parses the self-description header: layout, output-content flag, the
/// declared packet count, and the negotiated block-codec id byte (version-1
/// headers are raw; version-2 headers carry the codec byte after the
/// output-content flag).
pub(crate) fn decode_header(
    r: &mut Cursor<'_>,
) -> Result<(TraceLayout, bool, u64, u8), TraceError> {
    if r.take(4)? != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION && version != VERSION_CODEC {
        return Err(TraceError::BadVersion(version));
    }
    let record_output_content = r.u8()? != 0;
    let codec = if version == VERSION_CODEC { r.u8()? } else { 0 };
    let n_channels = r.u16()? as usize;
    let mut channels = Vec::with_capacity(n_channels);
    for _ in 0..n_channels {
        let name_len = r.u16()? as usize;
        let name = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| TraceError::BadChannelName)?
            .to_string();
        let width = r.u32()?;
        let direction = if r.u8()? == 0 {
            Direction::Input
        } else {
            Direction::Output
        };
        channels.push(ChannelInfo {
            name,
            width,
            direction,
        });
    }
    let count = r.u64()?;
    Ok((
        TraceLayout::new(channels),
        record_output_content,
        count,
        codec,
    ))
}

/// A read cursor over header bytes.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.pos + n > self.buf.len() {
            return Err(TraceError::Truncated { offset: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, TraceError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }
    fn u32(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

fn write_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ChannelInfo;
    use crate::packet::ChannelPacket;

    fn layout() -> TraceLayout {
        TraceLayout::new(vec![
            ChannelInfo {
                name: "ocl.aw".into(),
                width: 32,
                direction: Direction::Input,
            },
            ChannelInfo {
                name: "ocl.b".into(),
                width: 2,
                direction: Direction::Output,
            },
            ChannelInfo {
                name: "pcis.w".into(),
                width: 593,
                direction: Direction::Input,
            },
        ])
    }

    fn sample_trace(record_output: bool) -> Trace {
        let l = layout();
        let mut t = Trace::new(l.clone(), record_output);
        let mut wide = Bits::zero(593);
        wide.set_bit(592, true);
        wide.set_bit(0, true);
        t.push(CyclePacket::assemble(
            &l,
            &[
                ChannelPacket::start_with(Bits::from_u64(32, 0x1000)),
                ChannelPacket::default(),
                ChannelPacket::default(),
            ],
            record_output,
        ));
        t.push(CyclePacket::assemble(
            &l,
            &[
                ChannelPacket::end_only(),
                ChannelPacket {
                    start: false,
                    content: Some(Bits::from_u64(2, 0b01)),
                    end: true,
                },
                ChannelPacket::start_with(wide),
            ],
            record_output,
        ));
        t.push(CyclePacket::assemble(
            &l,
            &[
                ChannelPacket::default(),
                ChannelPacket::default(),
                ChannelPacket::end_only(),
            ],
            record_output,
        ));
        t
    }

    #[test]
    fn roundtrip_without_output_content() {
        let t = sample_trace(false);
        let rec = crate::recover_trace(&t.encode_framed()).unwrap();
        assert!(rec.is_complete());
        assert_eq!(rec.trace, t);
    }

    #[test]
    fn roundtrip_with_output_content() {
        let t = sample_trace(true);
        let back = crate::recover_trace(&t.encode_framed()).unwrap().trace;
        assert_eq!(back, t);
        assert_eq!(back.output_contents(1), vec![Bits::from_u64(2, 0b01)]);
    }

    #[test]
    fn counts() {
        let t = sample_trace(false);
        assert_eq!(t.transaction_count(), 3);
        assert_eq!(t.channel_transaction_count(0), 1);
        assert_eq!(t.channel_transaction_count(1), 1);
        assert_eq!(t.channel_transaction_count(2), 1);
        let contents = t.input_contents(0);
        assert_eq!(contents, vec![Bits::from_u64(32, 0x1000)]);
    }

    /// Patches header bytes in storage word 0 and re-seals its CRC, so
    /// only the header content is wrong.
    fn resealed(framed: &[u8], at: usize, patch: &[u8]) -> Vec<u8> {
        use crate::{crc32, STORAGE_WORD_BYTES};
        let mut bad = framed.to_vec();
        bad[at..at + patch.len()].copy_from_slice(patch);
        let crc = crc32(&bad[..STORAGE_WORD_BYTES - 4]);
        bad[STORAGE_WORD_BYTES - 4..STORAGE_WORD_BYTES].copy_from_slice(&crc.to_le_bytes());
        bad
    }

    #[test]
    fn bad_header_is_rejected() {
        use crate::TraceSource;
        let framed = sample_trace(false).encode_framed();
        let open = |bytes: Vec<u8>| TraceSource::open(bytes, 2).map(|_| ()).unwrap_err();
        assert_eq!(open(resealed(&framed, 0, b"nope")), TraceError::BadMagic);
        assert_eq!(
            open(resealed(&framed, 4, &7u16.to_le_bytes())),
            TraceError::BadVersion(7)
        );
        assert!(matches!(
            open(b"nope".to_vec()),
            TraceError::Truncated { offset: 0 }
        ));
    }

    #[test]
    fn size_accounting() {
        let t = sample_trace(false);
        // 3 packets x (1 byte starts + 1 byte ends) + 4 bytes + 75 bytes
        assert_eq!(t.body_bytes(), 3 * 2 + 4 + 75);
        // cycle-accurate: inputs contribute valid+data, outputs ready.
        let per_cycle = (1 + 32) + 1 + (1 + 593);
        assert_eq!(
            t.cycle_accurate_bytes(1000),
            (per_cycle * 1000u64).div_ceil(8)
        );
    }
}
