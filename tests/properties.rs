//! Property-based tests over the core data structures and the monitor
//! invariants the paper established with formal verification (§4.1):
//! monitored transactions are never dropped, duplicated, reordered, or
//! corrupted, under arbitrary sender/receiver/back-pressure schedules.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::collection::vec;
use proptest::prelude::*;
use vidi_repro::chan::{Channel, Direction, ReceiverLatch, SenderQueue};
use vidi_repro::core::{
    RawSession, SessionCursor, Stop, StopReason, VectorClock, VidiConfig, VidiShim,
};
use vidi_repro::hwsim::{Bits, Component, SignalPool, Simulator};
use vidi_repro::trace::{
    compare, reorder_end_before, ChannelInfo, ChannelPacket, CyclePacket, EndEventRef, Trace,
    TraceLayout,
};

// ───────────────────────────── Bits ────────────────────────────────────────

proptest! {
    #[test]
    fn bits_bytes_roundtrip(bytes in vec(any::<u8>(), 0..200)) {
        let b = Bits::from_bytes(&bytes);
        prop_assert_eq!(b.width() as usize, bytes.len() * 8);
        prop_assert_eq!(b.to_bytes(), bytes);
    }

    #[test]
    fn bits_slice_concat_identity(bytes in vec(any::<u8>(), 1..64), split in 0u32..512) {
        let b = Bits::from_bytes(&bytes);
        let split = split % b.width();
        let lo = b.slice(0, split);
        let hi = b.slice(split, b.width() - split);
        prop_assert_eq!(lo.concat(&hi), b);
    }

    #[test]
    fn bits_xor_involution(bytes_a in vec(any::<u8>(), 1..32), bytes_b in vec(any::<u8>(), 1..32)) {
        let n = bytes_a.len().min(bytes_b.len());
        let a = Bits::from_bytes(&bytes_a[..n]);
        let b = Bits::from_bytes(&bytes_b[..n]);
        prop_assert_eq!(a.xor(&b).xor(&b), a);
    }

    #[test]
    fn bits_set_slice_reads_back(width in 1u32..600, lo in 0u32..599, val in any::<u64>()) {
        let w = width.max(lo + 1).min(600);
        let lo = lo % w;
        let field = (w - lo).min(64);
        let mut b = Bits::zero(w);
        let v = Bits::from_u64(field, val);
        b.set_slice(lo, &v);
        prop_assert_eq!(b.slice(lo, field), v);
    }
}

// ───────────────────────── Vector clocks ───────────────────────────────────

proptest! {
    #[test]
    fn vclock_order_is_reflexive_and_monotone(counts in vec(0u64..50, 1..30), inc in 0usize..30) {
        let a = VectorClock::from_counts(counts.clone());
        prop_assert!(a.geq(&a));
        let mut b = a.clone();
        b.increment(inc % counts.len());
        prop_assert!(b.geq(&a));
        prop_assert!(!a.geq(&b));
    }
}

// ───────────────────────── Trace codec ─────────────────────────────────────

fn arb_layout() -> impl Strategy<Value = TraceLayout> {
    vec((1u32..128, any::<bool>()), 1..8).prop_map(|chs| {
        TraceLayout::new(
            chs.into_iter()
                .enumerate()
                .map(|(i, (w, input))| ChannelInfo {
                    name: format!("ch{i}"),
                    width: w,
                    direction: if input {
                        Direction::Input
                    } else {
                        Direction::Output
                    },
                })
                .collect(),
        )
    })
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (arb_layout(), any::<bool>()).prop_flat_map(|(layout, record_out)| {
        let n_ch = layout.len();
        vec(
            vec((any::<bool>(), any::<bool>(), any::<u64>()), n_ch..=n_ch),
            0..20,
        )
        .prop_map(move |rows| {
            let mut t = Trace::new(layout.clone(), record_out);
            for row in rows {
                let packets: Vec<ChannelPacket> = layout
                    .channels()
                    .iter()
                    .zip(row)
                    .map(|(info, (start, end, val))| match info.direction {
                        Direction::Input => ChannelPacket {
                            start,
                            content: start.then(|| Bits::from_u64(64, val).resize(info.width)),
                            end,
                        },
                        Direction::Output => ChannelPacket {
                            start: false,
                            content: (end && record_out)
                                .then(|| Bits::from_u64(64, val).resize(info.width)),
                            end,
                        },
                    })
                    .collect();
                let packet = CyclePacket::assemble(&layout, &packets, record_out);
                if !packet.is_empty() {
                    t.push(packet);
                }
            }
            t
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trace_compare_is_reflexive(trace in arb_trace()) {
        prop_assert!(compare(&trace, &trace.clone()).is_clean());
    }

    /// The crash-safe reader must be total: arbitrary bytes — random
    /// garbage, valid frames, anything between — either recover to a trace
    /// or return a typed error. Never panic.
    #[test]
    fn recover_trace_never_panics(bytes in vec(any::<u8>(), 0..600)) {
        let _ = vidi_repro::trace::recover_trace(&bytes);
    }

    /// The checkpoint-container decoders are total too: the container and
    /// index decoders over arbitrary bytes and over a real container with
    /// one bit flipped, and a seek by arbitrary index entries (which come
    /// off disk) into either image. Never panic, never a runaway
    /// allocation.
    #[test]
    fn checkpoint_decoders_never_panic(
        garbage in vec(any::<u8>(), 0..600),
        flip in any::<u64>(),
        entries in vec((any::<u64>(), any::<u64>(), 0u64..800, 0u64..800), 0..4),
    ) {
        use vidi_repro::snap::{
            load_checkpoint_at, Checkpoint, CheckpointIndex, CheckpointLog, IndexEntry,
        };
        let log = CheckpointLog {
            checkpoints: vec![Checkpoint {
                cycle: 1,
                digest: 2,
                txn_counts: vec![3],
                state: garbage.clone(),
            }],
            final_cycle: 9,
            completed: true,
        };
        let (mut image, index) = log.encode_framed();
        let mut index_image = index.encode_framed();
        for img in [&mut image, &mut index_image] {
            let bit = flip % (img.len() as u64 * 8);
            img[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        let mut probes = index.entries.clone();
        for &(offset, len, near_offset, near_len) in &entries {
            probes.push(IndexEntry { cycle: 0, offset, len });
            probes.push(IndexEntry { cycle: 0, offset: near_offset, len: near_len });
        }
        for img in [&garbage, &image, &index_image] {
            let _ = CheckpointLog::decode_framed(img);
            let _ = CheckpointIndex::decode_framed(img);
            for entry in &probes {
                let _ = load_checkpoint_at(img, entry);
            }
        }
    }

    /// An uncorrupted framed image always loads back complete and equal.
    #[test]
    fn framed_roundtrip_is_lossless(trace in arb_trace()) {
        let framed = trace.encode_framed();
        let rec = vidi_repro::trace::recover_trace(&framed).expect("clean image");
        prop_assert!(rec.is_complete());
        prop_assert_eq!(rec.trace, trace);
    }

    /// Flipping any single bit of a framed image leaves a recoverable
    /// packet *prefix* (or a typed error when the flip lands in the word
    /// holding the trace header) — and recovery itself never panics.
    #[test]
    fn framed_bit_flip_recovers_prefix(trace in arb_trace(), flip in any::<u64>()) {
        let mut framed = trace.encode_framed();
        if !framed.is_empty() {
            let bit = flip % (framed.len() as u64 * 8);
            framed[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        if let Ok(rec) = vidi_repro::trace::recover_trace(&framed) {
            let n = rec.recovered_packets as usize;
            prop_assert!(n <= trace.packets().len());
            prop_assert_eq!(rec.trace.packets(), &trace.packets()[..n]);
        }
    }

    /// Truncating a framed image at any byte offset (a crash mid-flush)
    /// recovers the packet prefix certified by the surviving words.
    #[test]
    fn framed_truncation_recovers_prefix(trace in arb_trace(), cut in any::<u64>()) {
        let mut framed = trace.encode_framed();
        framed.truncate((cut % (framed.len() as u64 + 1)) as usize);
        if let Ok(rec) = vidi_repro::trace::recover_trace(&framed) {
            let n = rec.recovered_packets as usize;
            prop_assert!(n <= trace.packets().len());
            prop_assert_eq!(rec.trace.packets(), &trace.packets()[..n]);
        }
    }

    /// The streaming sink is the *same* encoding as the whole-trace path:
    /// pushing packets one at a time through a chunked [`TraceSink`] with a
    /// declared count produces bytes bit-for-bit identical to
    /// `Trace::encode_framed`, for every chunk size and in both content
    /// modes (`arb_trace` draws the output-content flag) — and a
    /// [`TraceSource`] over those bytes decodes back the exact packets.
    #[test]
    fn streaming_sink_matches_whole_trace_encoding(
        trace in arb_trace(),
        chunk_words in 1usize..9,
    ) {
        use vidi_repro::trace::{TraceSink, TraceSource};
        let mut sink = TraceSink::with_declared(
            Vec::new(),
            trace.layout(),
            trace.records_output_content(),
            trace.packets().len() as u64,
            chunk_words,
        );
        for p in trace.packets() {
            sink.push(p).expect("Vec backend never fails");
        }
        let bytes = sink.finish().expect("Vec backend never fails");
        prop_assert_eq!(&bytes, &trace.encode_framed(), "chunked != whole-trace encoding");

        let mut source = TraceSource::open(bytes, chunk_words).expect("clean image opens");
        prop_assert!(source.is_complete());
        prop_assert_eq!(source.layout(), trace.layout());
        prop_assert_eq!(source.records_output_content(), trace.records_output_content());
        let mut back = Vec::new();
        while let Some(p) = source.next_packet().expect("certified packets decode") {
            back.push(p);
        }
        prop_assert_eq!(&back, trace.packets());
    }

    /// Corrupting a framed image — one bit flip plus a truncation at an
    /// arbitrary offset — never panics the chunked reader, and a
    /// [`TraceSource`] (any chunk size) certifies *exactly* the packet
    /// prefix the whole-buffer `recover_trace` contract does.
    #[test]
    fn streaming_source_corruption_matches_recover_trace(
        trace in arb_trace(),
        flip in any::<u64>(),
        cut in any::<u64>(),
        chunk_words in 1usize..9,
    ) {
        use vidi_repro::trace::{recover_trace, TraceSource};
        let mut framed = trace.encode_framed();
        if !framed.is_empty() {
            let bit = flip % (framed.len() as u64 * 8);
            framed[(bit / 8) as usize] ^= 1 << (bit % 8);
            framed.truncate((cut % (framed.len() as u64 + 1)) as usize);
        }
        let whole = recover_trace(&framed);
        let chunked = TraceSource::open(&framed[..], chunk_words);
        match (whole, chunked) {
            (Ok(rec), Ok(mut source)) => {
                prop_assert_eq!(source.certified_packets(), rec.recovered_packets);
                prop_assert_eq!(source.is_complete(), rec.is_complete());
                let mut back = Vec::new();
                while let Some(p) = source.next_packet().expect("certified packets decode") {
                    back.push(p);
                }
                prop_assert_eq!(&back, rec.trace.packets());
            }
            (Err(_), Err(_)) => {}
            (w, c) => prop_assert!(
                false,
                "recover_trace and TraceSource disagree: whole={:?} chunked-ok={}",
                w.map(|r| r.recovered_packets),
                c.is_ok()
            ),
        }
    }

    /// Every block codec is lossless: pushing random packets through a
    /// compressed [`TraceSink`] and reading them back through a
    /// [`TraceSource`] reproduces the exact packets, for every chunk size.
    #[test]
    fn compressed_streaming_roundtrip_is_bit_exact(
        trace in arb_trace(),
        chunk_words in 1usize..9,
        which in 0usize..vidi_repro::trace::CodecId::ALL.len(),
    ) {
        use vidi_repro::trace::{CodecId, TraceSink, TraceSource};
        let codec = CodecId::ALL[which];
        let mut sink = TraceSink::with_codec_declared(
            Vec::new(),
            trace.layout(),
            trace.records_output_content(),
            trace.packets().len() as u64,
            chunk_words,
            codec,
        );
        for p in trace.packets() {
            sink.push(p).expect("Vec backend never fails");
        }
        let bytes = sink.finish().expect("Vec backend never fails");
        let mut source = TraceSource::open(bytes, chunk_words).expect("clean image opens");
        prop_assert!(source.is_complete());
        prop_assert_eq!(source.codec(), codec);
        let mut back = Vec::new();
        while let Some(p) = source.next_packet().expect("certified packets decode") {
            back.push(p);
        }
        prop_assert_eq!(&back, trace.packets());
    }

    /// Corrupting a *compressed* stream — one bit flip plus a truncation at
    /// an arbitrary offset — never panics, and whatever the source still
    /// certifies decodes to a clean packet **prefix** of the original
    /// recording (the `recover_trace` longest-clean-prefix contract, lifted
    /// to block codecs: only packets whose blocks land entirely inside
    /// CRC-certified words are certified).
    #[test]
    fn compressed_corruption_recovers_certified_prefix(
        trace in arb_trace(),
        chunk_words in 1usize..9,
        which in 0usize..vidi_repro::trace::CodecId::ALL.len(),
        flip in any::<u64>(),
        cut in any::<u64>(),
    ) {
        use vidi_repro::trace::{CodecId, TraceSink, TraceSource};
        let codec = CodecId::ALL[which];
        let mut sink = TraceSink::with_codec(
            Vec::new(),
            trace.layout(),
            trace.records_output_content(),
            chunk_words,
            codec,
        );
        for p in trace.packets() {
            sink.push(p).expect("Vec backend never fails");
        }
        let mut framed = sink.finish().expect("Vec backend never fails");
        if !framed.is_empty() {
            let bit = flip % (framed.len() as u64 * 8);
            framed[(bit / 8) as usize] ^= 1 << (bit % 8);
            framed.truncate((cut % (framed.len() as u64 + 1)) as usize);
        }
        if let Ok(mut source) = TraceSource::open(&framed[..], chunk_words) {
            let certified = source.certified_packets();
            prop_assert!(certified <= trace.packets().len() as u64);
            let mut back = Vec::new();
            while let Some(p) = source.next_packet().expect("certified packets decode") {
                back.push(p);
            }
            prop_assert_eq!(back.len() as u64, certified);
            prop_assert_eq!(&back[..], &trace.packets()[..back.len()]);
        }
    }

    #[test]
    fn mutation_preserves_transaction_counts(trace in arb_trace()) {
        let layout = trace.layout().clone();
        // Find two end events on distinct channels, if any.
        let mut firsts: Vec<(usize, usize)> = Vec::new();
        for (ci, _) in layout.channels().iter().enumerate() {
            if trace.channel_transaction_count(ci) > 0 {
                firsts.push((ci, 0));
            }
        }
        if firsts.len() >= 2 {
            let moved = EndEventRef { channel: firsts[1].0, index: 0 };
            let before = EndEventRef { channel: firsts[0].0, index: 0 };
            if let Ok(mutated) = reorder_end_before(&trace, moved, before) {
                prop_assert_eq!(mutated.transaction_count(), trace.transaction_count());
                for (ci, _) in layout.channels().iter().enumerate() {
                    prop_assert_eq!(
                        mutated.channel_transaction_count(ci),
                        trace.channel_transaction_count(ci)
                    );
                }
            }
        }
    }
}

// ───────────────────────── Resource model ──────────────────────────────────

proptest! {
    /// The structural area model is monotone: adding channels or widening
    /// them never reduces any resource; replay/record features only add.
    #[test]
    fn synth_estimate_is_monotone(widths in vec(1u32..700, 1..12), grow in 1u32..128) {
        use vidi_repro::synth::{estimate, VidiFeatures};
        let mk = |ws: &[u32]| {
            TraceLayout::new(
                ws.iter()
                    .enumerate()
                    .map(|(i, &w)| ChannelInfo {
                        name: format!("c{i}"),
                        width: w,
                        direction: if i % 2 == 0 { Direction::Input } else { Direction::Output },
                    })
                    .collect(),
            )
        };
        let base = estimate(&mk(&widths), VidiFeatures::default());
        // Widen the first channel.
        let mut wider = widths.clone();
        wider[0] += grow;
        let widened = estimate(&mk(&wider), VidiFeatures::default());
        prop_assert!(widened.lut >= base.lut && widened.ff >= base.ff && widened.bram >= base.bram);
        // Add a channel.
        let mut more = widths.clone();
        more.push(grow);
        let extended = estimate(&mk(&more), VidiFeatures::default());
        prop_assert!(extended.lut > base.lut && extended.ff > base.ff);
        // Features only add area.
        let record_only = estimate(
            &mk(&widths),
            VidiFeatures { replay: false, ..VidiFeatures::default() },
        );
        prop_assert!(record_only.lut <= base.lut && record_only.ff <= base.ff);
    }
}

// ──────── End-to-end record/replay on randomized workloads ─────────────────

/// A transaction-deterministic echo: forwards each input value to the
/// output after `latency` kernel steps — its behaviour depends only on
/// transaction contents and order, never on cycle timing.
struct LatencyEcho {
    rx: ReceiverLatch,
    tx: SenderQueue,
    queue: std::collections::VecDeque<(u64, Bits)>,
    latency: u64,
}
impl Component for LatencyEcho {
    fn name(&self) -> &str {
        "latency_echo"
    }
    fn eval(&mut self, p: &mut SignalPool) {
        self.rx.eval(p, self.queue.len() < 8);
        self.tx.eval(p, true);
    }
    fn tick(&mut self, p: &mut SignalPool) {
        if let Some(v) = self.rx.tick(p) {
            self.queue.push_back((self.latency, v));
        }
        if let Some((cd, _)) = self.queue.front_mut() {
            if *cd > 0 {
                *cd -= 1;
            } else {
                let (_, v) = self.queue.pop_front().expect("front");
                self.tx.push(v);
            }
        }
        self.tx.tick(p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End-to-end transaction determinism on randomized workloads: record
    /// an execution under arbitrary sender gaps, processing latency, and
    /// trace-store bandwidth, replay it under R3, and require a clean
    /// divergence report.
    #[test]
    fn random_workloads_record_and_replay_cleanly(
        values in vec(any::<u64>(), 1..25),
        sender_gaps in vec(0u64..5, 1..25),
        latency in 0u64..6,
        store_bw in 2u32..48,
    ) {
        let build = |config: VidiConfig| -> (Simulator, VidiShim) {
            let mut sim = Simulator::new();
            let input = Channel::new(sim.pool_mut(), "in", 64);
            let output = Channel::new(sim.pool_mut(), "out", 64);
            let replaying = config.mode.replays();
            let shim = VidiShim::install(
                &mut sim,
                &[
                    (input.clone(), Direction::Input),
                    (output.clone(), Direction::Output),
                ],
                config,
            )
            .unwrap();
            sim.add_component(LatencyEcho {
                rx: ReceiverLatch::new(input),
                tx: SenderQueue::new(output),
                queue: std::collections::VecDeque::new(),
                latency,
            });
            if !replaying {
                let mut tx = SenderQueue::new(shim.env_channel("in").unwrap().clone());
                for v in &values {
                    tx.push(Bits::from_u64(64, *v));
                }
                // Gate schedule derived from sender_gaps, receiver always on.
                let mut gates = Vec::new();
                for g in sender_gaps.iter().cycle().take(values.len()) {
                    gates.push(true);
                    gates.extend(std::iter::repeat_n(false, *g as usize));
                }
                sim.add_component(SchedSender { tx, gates, cycle: 0 });
                sim.add_component(SchedReceiver {
                    rx: ReceiverLatch::new(shim.env_channel("out").unwrap().clone()),
                    accepts: Vec::new(), // defaults to always-accept
                    cycle: 0,
                    got: Rc::new(RefCell::new(Vec::new())),
                });
            }
            (sim, shim)
        };

        // Record.
        let (mut sim, shim) = build(VidiConfig {
            store_bytes_per_cycle: store_bw,
            ..VidiConfig::record()
        });
        let n = values.len() as u64;
        sim.run_until(
            |p| {
                let _ = p;
                false
            },
            0,
            "noop",
        )
        .ok();
        sim.run(2_000 + n * 40).unwrap();
        let reference = shim.recorded_trace().unwrap();
        prop_assert_eq!(reference.channel_transaction_count(0), n, "all inputs recorded");
        prop_assert_eq!(reference.channel_transaction_count(1), n, "all outputs recorded");

        // Replay under R3.
        let (mut sim, shim) = build(VidiConfig {
            store_bytes_per_cycle: store_bw,
            ..VidiConfig::replay_record(reference.clone())
        });
        {
            let mut session = RawSession {
                sim: &mut sim,
                shim: &shim,
            };
            let ev = SessionCursor::new(&mut session)
                .run_until(Stop::replay_complete().with_budget(2_000 * 128).check_every(128))
                .unwrap();
            prop_assert_eq!(ev.reason, StopReason::ReplayComplete, "replay did not complete");
        }
        sim.run(2_048).unwrap();
        let validation = shim.recorded_trace().unwrap();
        let report = compare(&reference, &validation);
        // This design overlaps input consumption with output draining, so
        // *input-channel end* clock positions may skew against racing
        // events (their exact timing is application-controlled, §3.5). The
        // observable guarantees are exact: counts and contents must match
        // (the strict order check is exercised by the phase-serialized
        // application suite, which satisfies it — as §5.4 reports).
        for d in &report.divergences {
            prop_assert!(
                matches!(d, vidi_repro::trace::Divergence::OrderMismatch { .. }),
                "non-order divergence: {d}"
            );
        }
        let ref_out: Vec<Bits> = reference.output_contents(1);
        let val_out: Vec<Bits> = validation.output_contents(1);
        prop_assert_eq!(ref_out, val_out, "output contents must reproduce exactly");
    }
}

// ─────────────── Monitor invariants under random schedules ─────────────────

/// Sender with a scripted per-cycle gate schedule.
struct SchedSender {
    tx: SenderQueue,
    gates: Vec<bool>,
    cycle: usize,
}
impl Component for SchedSender {
    fn name(&self) -> &str {
        "sched_sender"
    }
    fn eval(&mut self, p: &mut SignalPool) {
        let open = self.gates.get(self.cycle).copied().unwrap_or(true);
        self.tx.eval(p, open);
    }
    fn tick(&mut self, p: &mut SignalPool) {
        self.cycle += 1;
        self.tx.tick(p);
    }
}

/// Receiver with a scripted per-cycle accept schedule.
struct SchedReceiver {
    rx: ReceiverLatch,
    accepts: Vec<bool>,
    cycle: usize,
    got: Rc<RefCell<Vec<u64>>>,
}
impl Component for SchedReceiver {
    fn name(&self) -> &str {
        "sched_receiver"
    }
    fn eval(&mut self, p: &mut SignalPool) {
        let open = self.accepts.get(self.cycle).copied().unwrap_or(true);
        self.rx.eval(p, open);
    }
    fn tick(&mut self, p: &mut SignalPool) {
        self.cycle += 1;
        if let Some(v) = self.rx.tick(p) {
            self.got.borrow_mut().push(v.to_u64());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The §4.1 formally-verified property, checked dynamically: a recording
    /// monitor under arbitrary sender/receiver schedules and trace-store
    /// back-pressure never drops, duplicates, reorders, or corrupts a
    /// transaction — and records exactly one start and one end per
    /// transaction.
    #[test]
    fn monitor_preserves_transactions(
        values in vec(any::<u64>(), 1..40),
        sender_gates in vec(any::<bool>(), 0..300),
        receiver_accepts in vec(any::<bool>(), 0..300),
        store_bw in 1u32..40,
    ) {
        let mut sim = Simulator::new();
        let ch = Channel::new(sim.pool_mut(), "dut", 64);
        let shim = VidiShim::install(
            &mut sim,
            &[(ch.clone(), Direction::Input)],
            VidiConfig {
                store_bytes_per_cycle: store_bw,
                ..VidiConfig::record()
            },
        )
        .unwrap();
        let env = shim.env_channel("dut").unwrap().clone();
        let mut tx = SenderQueue::new(env);
        for v in &values {
            tx.push(Bits::from_u64(64, *v));
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        sim.add_component(SchedSender { tx, gates: sender_gates, cycle: 0 });
        sim.add_component(SchedReceiver {
            rx: ReceiverLatch::new(ch),
            accepts: receiver_accepts,
            cycle: 0,
            got: Rc::clone(&got),
        });
        let expect = values.len();
        let done = Rc::clone(&got);
        sim.run_until(move |_| done.borrow().len() >= expect, 20_000, "all transfers")
            .expect("monitored channel makes progress");
        sim.run(2048).unwrap(); // flush the store

        // Delivery: exact sequence, no drops/dups/reorders/corruption.
        prop_assert_eq!(got.borrow().clone(), values.clone());

        // Recording: every transaction has exactly one start (with the
        // right content) and one end.
        let trace = shim.recorded_trace().unwrap();
        prop_assert_eq!(trace.channel_transaction_count(0), values.len() as u64);
        let contents: Vec<u64> = trace.input_contents(0).iter().map(Bits::to_u64).collect();
        prop_assert_eq!(contents, values.clone());
        let starts: usize = trace
            .packets()
            .iter()
            .map(|p| p.starts.iter().filter(|&&s| s).count())
            .sum();
        prop_assert_eq!(starts, values.len());
    }
}
