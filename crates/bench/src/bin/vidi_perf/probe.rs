//! Measurements a traced round adds outside its timed phase: the trace
//! sink and source, timed per packet on the packets the round recorded.

use vidi_trace::{CodecId, TraceSink, TraceSource, DEFAULT_CHUNK_WORDS};

use crate::session::{Round, PROBE};
use crate::spans::Tracer;

/// Codecs the probe compares, in `Layer::sink_s` slot order.
pub const CODECS: [CodecId; 2] = [CodecId::Raw, CodecId::XorDict];

/// Re-pushes every kept trace's packets into an in-memory `TraceSink`
/// under each codec, then reads them back with `TraceSource::next_packet`,
/// checking every packet survives the round trip.
pub fn trace_layer(tr: &mut Tracer, round: &mut Round) {
    let traces = std::mem::take(&mut round.layer.traces);
    let root = tr.open(PROBE);
    for trace in &traces {
        let packets = trace.packets();
        round.layer.probe_packets += packets.len() as u64;
        for (slot, codec) in CODECS.into_iter().enumerate() {
            let (image, secs) = tr.time("trace.sink", || {
                let mut sink = TraceSink::with_codec(
                    Vec::new(),
                    trace.layout(),
                    trace.records_output_content(),
                    DEFAULT_CHUNK_WORDS,
                    codec,
                );
                for p in packets {
                    sink.push(p)?;
                }
                sink.finish()
            });
            round.layer.sink_s[slot] += secs;
            let Some(image) = round.ok(image.map_err(|e| format!("trace sink: {e}"))) else {
                continue;
            };
            round.layer.probe_bytes[slot] += image.len() as u64;

            let (decoded, secs) = tr.time("trace.source", || {
                let mut source = TraceSource::open(&image[..], DEFAULT_CHUNK_WORDS)?;
                let mut out = Vec::with_capacity(packets.len());
                while let Some(p) = source.next_packet()? {
                    out.push(p);
                }
                Ok::<_, vidi_trace::TraceError>(out)
            });
            round.layer.source_s[slot] += secs;
            let holds = decoded.is_ok_and(|d| d == packets);
            round.require(holds, || {
                format!("trace source: {codec:?} stream does not read back its packets")
            });
        }
    }
    tr.close(root);
}
