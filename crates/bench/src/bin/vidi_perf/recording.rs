//! `record-io` and `record-compute`: closed-loop recording, one session at
//! a time on the main thread, each against a transparent run of the same
//! session.

use crate::probe;
use crate::session::{record, transparent, Round, Spec};
use crate::spans::{Tracer, TIMED};

/// One round: for every session, a transparent baseline in the set-up
/// phase, then the timed recording.
pub fn round(tr: &mut Tracer, specs: &[Spec]) -> Round {
    let mut round = Round::default();
    for (i, spec) in specs.iter().enumerate() {
        tr.set_session(i as u64);
        let base = transparent(tr, spec, &mut round);
        let Some(rec) = record(tr, spec, TIMED, &mut round) else {
            continue;
        };
        let d = rec.drive;
        round.ops += 1;
        round.cycles += d.cycles;
        round.cycles_s += d.total_s();
        round.latencies_ms.push(d.total_s() * 1e3);
        round.trace_bytes += rec.bytes_written;
        round.trace_cycles += d.cycles;
        if let Some(base) = base {
            round.vidi_cycles += d.cycles;
            round.base_cycles += base.cycles;
            round.layer.record_path_s += d.drive_s - base.drive_s;
        }
    }
    if tr.keeping() {
        probe::trace_layer(tr, &mut round);
    }
    round
}
