//! Seekable replay over a *compressed* trace stream: checkpoints captured
//! mid-run serialize the decoder's block-granular [`SourcePos`] (codec id,
//! block start, packets to re-decode), and restoring one must land the
//! simulator bit-exactly where a straight roll-forward lands it — the
//! compressed twin of the raw seek contract.

use std::sync::Arc;

use vidi_apps::{build_app, AppId, Scale};
use vidi_core::{ReplayInput, VidiConfig};
use vidi_snap::{checkpointed_replay, replay_from, CheckpointPolicy, ParallelVerifier};
use vidi_trace::{CodecId, SharedChunks, Trace};

const BUDGET: u64 = 10_000_000;

/// Records the catalog app through `codec`, returning the framed stream
/// image (compressed on the wire) and the materialized reference trace.
fn record_compressed(app: AppId, seed: u64, codec: CodecId) -> (Vec<u8>, Trace) {
    let mut built = build_app(
        app.setup(Scale::Test, seed),
        VidiConfig::record().with_trace_codec(codec),
    );
    let handles = built.cpu.clone();
    built
        .sim
        .run_until(
            move |_| handles.iter().all(|h| h.borrow().finished),
            BUDGET,
            "all CPU threads to finish",
        )
        .expect("record run completes");
    built.sim.run(4096).expect("flush margin");
    let image = built
        .shim
        .recorded_stream_image()
        .expect("recording yields a stream image");
    let trace = built.shim.recorded_trace().expect("trace materializes");
    (image, trace)
}

#[test]
fn compressed_replay_seeks_bit_exactly() {
    let (image, reference) = record_compressed(AppId::Sha, 7, CodecId::XorDict);
    assert!(
        image.len() < reference.encode_framed().len(),
        "xor-dict stream must be smaller than the raw framing"
    );

    let chunks: SharedChunks = Arc::new(image);
    let replay_cfg = VidiConfig::replay_record(ReplayInput::from_chunks(chunks));
    let mut session = build_app(AppId::Sha.setup(Scale::Test, 7), replay_cfg.clone());
    let log = checkpointed_replay(&mut session, CheckpointPolicy::every(2048), BUDGET)
        .expect("checkpointed compressed replay");
    assert!(log.completed, "compressed replay must complete");
    assert!(
        log.checkpoints.len() >= 2,
        "long enough to checkpoint mid-stream"
    );

    for target in [1000, 2048, 3000, log.final_cycle] {
        let target = target.min(log.final_cycle);
        let mut straight = build_app(AppId::Sha.setup(Scale::Test, 7), replay_cfg.clone());
        let mut left = target;
        while left > 0 {
            let step = left.min(256);
            straight.sim.run(step).expect("straight run");
            left -= step;
        }
        let mut seeked = build_app(AppId::Sha.setup(Scale::Test, 7), replay_cfg.clone());
        let outcome = replay_from(&mut seeked, &log, target).expect("seek");
        assert_eq!(outcome.restored_from + outcome.rolled_forward, target);
        assert_eq!(
            seeked.sim.state_digest(),
            straight.sim.state_digest(),
            "compressed seek to cycle {target} must be bit-exact"
        );
    }

    // Segmented verification over the compressed input reproduces the
    // serial verdict, clean.
    let factory = || build_app(AppId::Sha.setup(Scale::Test, 7), replay_cfg.clone());
    let verifier = ParallelVerifier::new(factory, &log, &reference);
    let serial = verifier.verify_serial().expect("serial verify");
    let parallel = verifier.verify_parallel(4).expect("parallel verify");
    assert!(serial.is_clean(), "clean replay: {:?}", serial.verdict);
    assert_eq!(
        serial, parallel,
        "parallel must reproduce the serial report"
    );
}

#[test]
fn every_codec_replays_the_same_packets() {
    // The same workload recorded through every codec replays through the
    // checkpoint machinery and re-records the same reference packets.
    let (_, raw_ref) = record_compressed(AppId::Dma, 3, CodecId::Raw);
    let codec = CodecId::XorDict;
    let (image, reference) = record_compressed(AppId::Dma, 3, codec);
    assert_eq!(
        reference, raw_ref,
        "{codec}: recording through a codec changed the packets"
    );
    let chunks: SharedChunks = Arc::new(image);
    let replay_cfg = VidiConfig::replay_record(ReplayInput::from_chunks(chunks));
    let mut session = build_app(AppId::Dma.setup(Scale::Test, 3), replay_cfg.clone());
    let log = checkpointed_replay(&mut session, CheckpointPolicy::every(1500), BUDGET)
        .expect("checkpointed replay");
    assert!(log.completed, "{codec}: replay must complete");
    let target = log.final_cycle / 2;
    let mut seeked = build_app(AppId::Dma.setup(Scale::Test, 3), replay_cfg.clone());
    replay_from(&mut seeked, &log, target).expect("seek");
    let mut straight = build_app(AppId::Dma.setup(Scale::Test, 3), replay_cfg);
    let mut left = target;
    while left > 0 {
        let step = left.min(256);
        straight.sim.run(step).expect("straight run");
        left -= step;
    }
    assert_eq!(
        seeked.sim.state_digest(),
        straight.sim.state_digest(),
        "{codec}: mid-stream seek must be bit-exact"
    );
}
