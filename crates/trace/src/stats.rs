//! Aggregate statistics over a recorded trace, used by the offline tools
//! and the benchmark harness.

use std::fmt;

use crate::trace::Trace;

/// Per-channel aggregates.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ChannelStats {
    /// Channel name.
    pub name: String,
    /// Completed transactions (end events).
    pub transactions: u64,
    /// Recorded start events.
    pub starts: u64,
    /// Bytes of recorded content attributable to this channel.
    pub content_bytes: u64,
}

/// Whole-trace aggregates.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TraceStats {
    /// Per-channel rows, in layout order.
    pub channels: Vec<ChannelStats>,
    /// Cycle packets in the trace.
    pub packets: u64,
    /// Total transactions.
    pub transactions: u64,
    /// Raw body bytes (cycle packets only).
    pub body_bytes: u64,
    /// 64-byte-aligned storage footprint.
    pub storage_bytes: u64,
}

impl TraceStats {
    /// The busiest channel by transaction count, if any traffic exists.
    pub fn busiest_channel(&self) -> Option<&ChannelStats> {
        self.channels
            .iter()
            .filter(|c| c.transactions > 0)
            .max_by_key(|c| c.transactions)
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} packets, {} transactions, {} body bytes ({} in storage)",
            self.packets, self.transactions, self.body_bytes, self.storage_bytes
        )?;
        for c in &self.channels {
            if c.transactions == 0 && c.starts == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<20} {:>8} txns {:>8} starts {:>10} content bytes",
                c.name, c.transactions, c.starts, c.content_bytes
            )?;
        }
        Ok(())
    }
}

impl Trace {
    /// Computes aggregate statistics over the trace.
    pub fn stats(&self) -> TraceStats {
        let layout = self.layout();
        let mut channels: Vec<ChannelStats> = layout
            .channels()
            .iter()
            .map(|c| ChannelStats {
                name: c.name.clone(),
                ..ChannelStats::default()
            })
            .collect();
        for packet in self.packets() {
            let pkts = packet.disassemble(layout, self.records_output_content());
            for (stats, pkt) in channels.iter_mut().zip(pkts) {
                stats.transactions += pkt.end as u64;
                stats.starts += pkt.start as u64;
                if let Some(c) = pkt.content {
                    stats.content_bytes += c.width().div_ceil(8) as u64;
                }
            }
        }
        let body_bytes = self.body_bytes();
        TraceStats {
            packets: self.packets().len() as u64,
            transactions: channels.iter().map(|c| c.transactions).sum(),
            body_bytes,
            storage_bytes: crate::store_format::storage_bytes(body_bytes),
            channels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{ChannelInfo, TraceLayout};
    use crate::packet::{ChannelPacket, CyclePacket};
    use vidi_chan::Direction;
    use vidi_hwsim::Bits;

    fn sample() -> Trace {
        let l = TraceLayout::new(vec![
            ChannelInfo {
                name: "a".into(),
                width: 32,
                direction: Direction::Input,
            },
            ChannelInfo {
                name: "b".into(),
                width: 8,
                direction: Direction::Output,
            },
        ]);
        let mut t = Trace::new(l.clone(), true);
        for i in 0..3u64 {
            t.push(CyclePacket::assemble(
                &l,
                &[
                    ChannelPacket {
                        start: true,
                        content: Some(Bits::from_u64(32, i)),
                        end: true,
                    },
                    ChannelPacket {
                        start: false,
                        content: Some(Bits::from_u64(8, i)),
                        end: i % 2 == 0,
                    },
                ],
                true,
            ));
        }
        t
    }

    #[test]
    fn per_channel_counts() {
        let stats = sample().stats();
        assert_eq!(stats.packets, 3);
        assert_eq!(stats.transactions, 5);
        assert_eq!(stats.channels[0].transactions, 3);
        assert_eq!(stats.channels[0].starts, 3);
        assert_eq!(stats.channels[0].content_bytes, 12);
        assert_eq!(stats.channels[1].transactions, 2);
        assert_eq!(stats.channels[1].content_bytes, 2);
        assert_eq!(stats.busiest_channel().unwrap().name, "a");
    }

    #[test]
    fn display_is_nonempty_and_mentions_channels() {
        let s = sample().stats().to_string();
        assert!(s.contains("5 transactions"));
        assert!(s.contains('a') && s.contains('b'));
    }

    #[test]
    fn empty_trace_stats() {
        let l = TraceLayout::new(vec![]);
        let stats = Trace::new(l, false).stats();
        assert_eq!(stats.transactions, 0);
        assert!(stats.busiest_channel().is_none());
    }
}
