//! Compressed tenants under the fleet: a session recording through a block
//! codec must be indistinguishable from a raw tenant in every contract that
//! matters — its finalized trace decodes to the same packets a raw run
//! records, its admission reservation still bounds its buffering, and an
//! eviction mid-run leaves a certified durable prefix that replays, exactly
//! like the raw eviction path.

use vidi_apps::{build_app_with_faults, AppId, Scale};
use vidi_core::FaultInjection;
use vidi_fleet::{Fleet, FleetConfig, SessionSpec, SessionState, SharedImage};
use vidi_trace::CodecId;

/// Records the spec solo (no fleet, no arbiter) through the supervisor's
/// run shape: 256-cycle slices, 4096 flush margin, finalize.
fn solo_image(spec: &SessionSpec) -> Vec<u8> {
    let image = SharedImage::new();
    let mut built = build_app_with_faults(
        spec.app.setup(spec.scale, spec.seed),
        spec.vidi_config(),
        FaultInjection::none(),
    );
    built
        .shim
        .stream_to(Box::new(image.clone()))
        .expect("no chunk flushed yet");
    let handles = built.cpu.clone();
    let mut cycles = 0u64;
    while !handles.iter().all(|h| h.borrow().finished) {
        built.sim.run(256).expect("solo run progresses");
        cycles += 256;
        assert!(cycles < spec.max_cycles, "solo baseline wedged");
    }
    built.sim.run(4096).expect("solo flush margin");
    built.shim.finalize_recording().expect("solo finalize");
    image.snapshot()
}

#[test]
fn compressed_tenants_decode_identically_to_raw() {
    // One raw and one compressed tenant of the same workload, fully
    // provisioned. Every codec's finalized image must decode to the same
    // packets, and the compressed images must actually be smaller.
    let specs: Vec<SessionSpec> = CodecId::ALL
        .iter()
        .map(|&codec| {
            SessionSpec::record(format!("sha-{codec}"), AppId::Sha, 7).with_trace_codec(codec)
        })
        .collect();
    let budget: u64 = specs.iter().map(SessionSpec::buffer_bound).sum();
    let rate: u64 = specs
        .iter()
        .map(|s| u64::from(s.store_bytes_per_cycle))
        .sum();
    let fleet = Fleet::new(FleetConfig {
        workers: specs.len(),
        memory_budget: budget,
        total_store_bytes_per_cycle: rate,
        max_sessions: 64,
        evict_to_admit: false,
    });
    let ids: Vec<_> = specs
        .iter()
        .map(|s| fleet.submit(s.clone()).expect("admitted"))
        .collect();
    fleet.wait_all();

    let raw_image = solo_image(&specs[0]);
    let raw_trace = vidi_trace::recover_trace(&raw_image)
        .expect("raw baseline recovers")
        .trace;
    for (spec, id) in specs.iter().zip(&ids) {
        let state = fleet.state_of(*id).expect("session exists");
        let SessionState::Completed(report) = state else {
            panic!("{}: expected completion, got {}", spec.name, state.label());
        };
        assert!(
            report.peak_buffered_bytes <= spec.buffer_bound(),
            "{}: buffering {} exceeded reservation {}",
            spec.name,
            report.peak_buffered_bytes,
            spec.buffer_bound()
        );
        let prefix = fleet.fetch_trace(*id).expect("trace fetchable");
        assert!(prefix.complete, "{}: trace must certify", spec.name);
        assert_eq!(
            report.bytes_written,
            prefix.bytes.len() as u64,
            "{}: bytes_written must equal the finalized image length",
            spec.name
        );
        let recovered = prefix.recover().expect("prefix recovers");
        assert_eq!(
            recovered.trace, raw_trace,
            "{}: decoded packets diverged from the raw recording",
            spec.name
        );
        if spec.trace_codec.is_compressed() {
            assert!(
                prefix.bytes.len() < raw_image.len(),
                "{}: compressed image ({} bytes) not smaller than raw ({} bytes)",
                spec.name,
                prefix.bytes.len(),
                raw_image.len()
            );
        }
    }
}

#[test]
fn evicted_compressed_tenant_finalizes_like_raw() {
    // A long compressed tenant evicted mid-run must finalize exactly like
    // the raw eviction path: terminal Evicted state, a certified non-empty
    // durable prefix, and that prefix replays to completion. The decoded
    // prefix must also be a literal packet prefix of the full raw run —
    // compression changes the bytes on the wire, never the packets a
    // certified prefix stands for.
    let spec = SessionSpec {
        scale: Scale::Bench,
        trace_chunk_words: 4,
        max_cycles: 50_000_000,
        ..SessionSpec::record("long-xor-dict", AppId::DigitRec, 5)
    }
    .with_trace_codec(CodecId::XorDict);

    let fleet = Fleet::new(FleetConfig {
        workers: 1,
        ..FleetConfig::default()
    });
    let id = fleet.submit(spec.clone()).expect("admitted");
    loop {
        let status = fleet.status(id).expect("session exists");
        if status.trace_bytes >= 1024 {
            break;
        }
        assert!(
            !status.state.is_terminal(),
            "bench workload finished before eviction could land ({})",
            status.state.label()
        );
        std::thread::yield_now();
    }
    let state = fleet.evict(id).expect("session exists");
    let SessionState::Evicted(report) = state else {
        panic!("expected Evicted, got {}", state.label());
    };
    assert!(report.cycles > 0);
    assert!(report.bytes_written > 0, "eviction finalized nothing");

    let prefix = fleet.fetch_trace(id).expect("trace fetchable");
    assert!(prefix.certified_packets > 0, "nothing durable at eviction");
    let recovered = prefix.recover().expect("compressed prefix recovers");

    // Packet-level parity with the raw path: the evicted prefix is the
    // first N packets of what an uninterrupted raw recording produces.
    let full_raw = vidi_trace::recover_trace(&solo_image(&SessionSpec {
        trace_codec: CodecId::Raw,
        ..spec.clone()
    }))
    .expect("raw baseline recovers")
    .trace;
    let n = recovered.trace.packets().len();
    assert!(n <= full_raw.packets().len());
    assert_eq!(
        recovered.trace.packets(),
        &full_raw.packets()[..n],
        "evicted compressed prefix diverged from the raw recording"
    );

    let replay_id = fleet
        .submit(SessionSpec {
            scale: Scale::Bench,
            ..SessionSpec::replay(
                "replay-evicted-xor-dict",
                AppId::DigitRec,
                5,
                recovered.trace,
            )
        })
        .expect("replay admitted");
    fleet.wait_all();
    let replay_state = fleet.state_of(replay_id).expect("replay exists");
    assert!(
        matches!(replay_state, SessionState::Completed(_)),
        "evicted compressed prefix must replay to completion, got {}",
        replay_state.label()
    );
}
