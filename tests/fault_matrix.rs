//! Fault-matrix soak: seeded fault schedules swept across applications.
//!
//! The robustness contract under test: with deterministic faults injected
//! into every layer Vidi touches — storage writes, store/fetch bandwidth,
//! channel back-pressure, at-rest trace bytes — every run must end in one
//! of exactly three ways:
//!
//! 1. **clean success** (faults absorbed by retry/back-pressure, output
//!    intact, replay divergence-free),
//! 2. **recovered-prefix replay** (corruption cost the trace tail, but the
//!    reader resynchronized and certified a valid packet prefix), or
//! 3. **a typed error** (retry budget exhausted → `ChunkIoError::Transient`;
//!    header destroyed → `TraceError`; progress impossible → watchdog
//!    `SimError::Timeout` carrying per-component diagnostics).
//!
//! Never a panic, never a hang, never a silent divergence. Each cell of
//! the matrix is fully determined by its `(app, seed)` pair, so any
//! failure here replays exactly under a debugger.

use vidi_repro::apps::{build_app, build_app_with_faults, run_app, AppId, RunOutcome, Scale};
use vidi_repro::core::{FaultInjection, SessionCursor, Stop, StopReason, VidiConfig};
use vidi_repro::faults::{CorruptionSpec, FaultPlan, FaultSpec, StorageFailureSpec, WindowSpec};
use vidi_repro::host::RetryPolicy;
use vidi_repro::hwsim::SimError;
use vidi_repro::trace::{compare, read_full, Trace};

const RECORD_BUDGET: u64 = 6_000_000;
const REPLAY_BUDGET: u64 = 10_000_000;

/// The three apps of the sweep: a streaming accelerator (SHA-256), a
/// DRAM-heavy classifier (digit recognition), and a training workload
/// (spam filter) — distinct channel-usage patterns.
const APPS: [AppId; 3] = [AppId::Sha, AppId::DigitRec, AppId::SpamFilter];

/// The engine-side fault schedule for one matrix cell: storage-write
/// failures inside the store's retry budget, periodic bandwidth collapse,
/// and VALID/READY stall storms.
fn engine_spec(seed: u64) -> FaultSpec {
    FaultSpec {
        seed,
        store_failures: Some(StorageFailureSpec {
            per_mille: 150,
            failures_per_op: 2,
        }),
        store_collapse: Some(WindowSpec {
            period: 1024,
            window: 96,
            divisor: 8,
        }),
        stall_storm: Some(WindowSpec {
            period: 512,
            window: 24,
            divisor: 1,
        }),
        ..FaultSpec::default()
    }
}

/// The host-side schedule: flaky storage I/O plus at-rest corruption,
/// alternating bit flips and tail truncation across seeds.
fn host_spec(seed: u64) -> FaultSpec {
    FaultSpec {
        seed,
        host_io_failures: Some(StorageFailureSpec {
            per_mille: 400,
            failures_per_op: 2,
        }),
        corruption: Some(if seed.is_multiple_of(2) {
            CorruptionSpec::BitFlips(4)
        } else {
            CorruptionSpec::Truncate {
                keep_num: 3,
                keep_den: 4,
            }
        }),
        ..FaultSpec::default()
    }
}

/// Classifies a run result per the contract; panics (failing the test)
/// only on outcomes the contract forbids.
fn expect_success_or_typed_error(
    cell: &str,
    result: Result<RunOutcome, SimError>,
) -> Option<RunOutcome> {
    match result {
        Ok(outcome) => {
            assert!(
                outcome.output_ok.is_ok(),
                "{cell}: faults silently corrupted application output: {:?}",
                outcome.output_ok
            );
            Some(outcome)
        }
        // The watchdog is the anti-hang mechanism: a timeout is a typed,
        // diagnosable verdict, never a spin. It must carry diagnostics.
        Err(SimError::Timeout { diagnostics, .. }) => {
            assert!(
                !diagnostics.is_empty(),
                "{cell}: watchdog fired without diagnostics"
            );
            None
        }
        Err(SimError::ComponentFault { .. }) => None,
        Err(other) => panic!("{cell}: untyped failure: {other}"),
    }
}

#[test]
fn fault_matrix_soak() {
    let patient = RetryPolicy {
        max_attempts: 4,
        base_backoff: std::time::Duration::ZERO,
    };

    for app in APPS {
        for seed in [11u64, 42] {
            let cell = format!("{}#{seed}", app.label());
            let plan = FaultPlan::new(engine_spec(seed));

            // --- Record under in-engine faults. Back-pressure and write
            // retries stall the app but must never alter what it computes.
            let built = build_app_with_faults(
                app.setup(Scale::Test, seed),
                VidiConfig::record(),
                plan.fault_injection(),
            );
            let Some(recorded) = expect_success_or_typed_error(
                &format!("{cell}/record"),
                run_app(built, RECORD_BUDGET),
            ) else {
                continue;
            };
            let reference = recorded.trace.clone().expect("recording produces a trace");
            assert!(reference.transaction_count() > 0, "{cell}: empty trace");

            // --- Durable save/load through deterministically flaky storage:
            // a patient retry policy must always get through (the schedule
            // fails each op fewer times than the attempt budget).
            let host_plan = FaultPlan::new(host_spec(seed));
            let stored = reference
                .write_framed(patient.wrap(host_plan.wrap_storage(Vec::new())))
                .unwrap_or_else(|e| panic!("{cell}: patient save failed: {e}"));
            let image =
                read_full(&patient.wrap(host_plan.wrap_storage(stored.into_inner().into_inner())))
                    .unwrap_or_else(|e| panic!("{cell}: patient load failed: {e}"));
            let rec = vidi_repro::trace::recover_trace(&image)
                .unwrap_or_else(|e| panic!("{cell}: clean image must decode: {e}"));
            assert!(rec.is_complete(), "{cell}: clean image must load complete");
            assert_eq!(rec.trace, reference, "{cell}: durable roundtrip differs");

            // An impatient policy on the same schedule must fail *typed*
            // whenever the schedule says the first write op draws a fault.
            if host_plan.host_io_fails(0, 0) {
                let storage = RetryPolicy::none().wrap(host_plan.wrap_storage(Vec::new()));
                match reference.write_framed(storage) {
                    Err(e) => assert!(e.is_transient(), "{cell}: {e}"),
                    Ok(_) => panic!("{cell}: expected a typed storage fault"),
                }
            }

            // --- At-rest corruption: recovery must certify a valid packet
            // prefix (or report a typed header error), never panic.
            check_corruption_recovery(&cell, &host_plan, &reference);

            // --- Replay the reference under replay-path faults (fetch
            // bandwidth collapse): transaction determinism must hold.
            let replay_plan = FaultPlan::new(FaultSpec {
                seed,
                fetch_collapse: Some(WindowSpec {
                    period: 1024,
                    window: 96,
                    divisor: 8,
                }),
                ..FaultSpec::default()
            });
            let built = build_app_with_faults(
                app.setup(Scale::Test, seed),
                VidiConfig::replay_record(reference.clone()),
                replay_plan.fault_injection(),
            );
            if let Some(replayed) = expect_success_or_typed_error(
                &format!("{cell}/replay"),
                run_app(built, REPLAY_BUDGET),
            ) {
                let validation = replayed.trace.expect("validation trace");
                let report = compare(&reference, &validation);
                assert!(
                    report.is_clean(),
                    "{cell}: replay diverged under fetch collapse: {:?}",
                    report.divergences
                );
            }
        }
    }
}

/// Applies a plan's at-rest corruption to a framed trace image and checks
/// the acceptance property: the reader recovers at least the packet prefix
/// before the first corrupted storage word, or reports a typed error when
/// the header itself is gone.
fn check_corruption_recovery(cell: &str, plan: &FaultPlan, reference: &Trace) {
    let mut image = reference.encode_framed();
    plan.corrupt(&mut image);
    match vidi_repro::trace::recover_trace(&image) {
        Ok(rec) => {
            let n = rec.recovered_packets as usize;
            assert!(
                n <= reference.packets().len(),
                "{cell}: recovered more packets than were written"
            );
            assert_eq!(
                rec.trace.packets(),
                &reference.packets()[..n],
                "{cell}: recovered packets are not a prefix of the original"
            );
            if rec.first_corrupt_word.is_none() {
                assert!(rec.is_complete(), "{cell}: no corruption yet incomplete");
            }
        }
        // Corruption reached into word 0 (the trace header): nothing is
        // recoverable, and the reader says so with a typed error.
        Err(e) => {
            let _typed: vidi_repro::trace::TraceError = e;
        }
    }
}

#[test]
fn lossy_degradation_counts_every_dropped_packet() {
    // With a stall budget configured, sustained stall storms flip the store
    // into lossy degradation: it sheds cycle packets it cannot afford — and
    // every shed packet is counted, never silently lost.
    let seed = 99u64;
    let plan = FaultPlan::new(FaultSpec {
        seed,
        store_collapse: Some(WindowSpec {
            period: 256,
            window: 128,
            divisor: 64,
        }),
        ..FaultSpec::default()
    });
    let built = build_app_with_faults(
        AppId::Sha.setup(Scale::Test, seed),
        VidiConfig {
            stall_budget: Some(200),
            ..VidiConfig::record()
        },
        plan.fault_injection(),
    );
    let outcome = run_app(built, RECORD_BUDGET).expect("lossy run completes");
    assert!(
        outcome.output_ok.is_ok(),
        "lossy degradation must not corrupt application output"
    );
    // The same schedule without a stall budget stalls instead of dropping;
    // with one, the drops are visible in the handle. Either way the trace
    // store never lies about completeness.
    let built = build_app_with_faults(
        AppId::Sha.setup(Scale::Test, seed),
        VidiConfig::record(),
        plan.fault_injection(),
    );
    let lossless = run_app(built, RECORD_BUDGET).expect("lossless run completes");
    assert!(lossless.output_ok.is_ok());
    assert!(
        lossless.trace.expect("trace").transaction_count() > 0,
        "lossless run records everything"
    );
}

#[test]
fn killed_compressed_record_leaves_certified_replayable_prefix() {
    // Kill-mid-record with a *compressed* sink: the torn tail loses at
    // most the unflushed chunk plus the open block, and whatever the word
    // trailers certify is a bit-exact, replayable packet prefix — the same
    // contract the raw streaming soak establishes, under a block codec.
    use vidi_repro::core::ReplayInput;
    use vidi_repro::host::{file_chunk_source, FileChunkSink};
    use vidi_repro::trace::{CodecId, TraceSource, STORAGE_WORD_BYTES};

    const CHUNK_WORDS: usize = 4;
    let seed = 7u64;
    let app = AppId::Sha;
    let cfg = VidiConfig {
        trace_chunk_words: CHUNK_WORDS,
        ..VidiConfig::record()
    }
    .with_trace_codec(CodecId::XorDict);

    let dir = std::env::temp_dir().join("vidi_fault_matrix");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("killed_compressed.vidi");

    let built = build_app(app.setup(Scale::Test, seed), cfg.clone());
    built
        .shim
        .stream_to(Box::new(FileChunkSink::create(&path).unwrap()))
        .expect("no chunk flushed yet");
    {
        let mut built = built;
        built.sim.run(1200).expect("partial run");
    } // dropped: no finalize, the unflushed tail is lost
    let len = std::fs::metadata(&path).unwrap().len();
    assert!(
        len >= 2 * (CHUNK_WORDS * STORAGE_WORD_BYTES) as u64,
        "kill point must land after several chunk flushes ({len} bytes)"
    );
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(len - 13).unwrap(); // torn final word
    drop(file);

    // The reference packet sequence is codec-independent: record the same
    // execution in memory, raw.
    let reference = run_app(
        build_app(app.setup(Scale::Test, seed), VidiConfig::record()),
        RECORD_BUDGET,
    )
    .expect("reference recording completes")
    .trace
    .expect("trace");

    let mut source = TraceSource::open(file_chunk_source(&path).unwrap(), CHUNK_WORDS)
        .expect("torn compressed file still opens");
    assert_eq!(
        source.codec(),
        CodecId::XorDict,
        "codec rides in the header"
    );
    assert!(!source.is_complete(), "torn tail must not certify");
    let certified = usize::try_from(source.certified_packets()).unwrap();
    assert!(certified > 0, "kill point too early: nothing certified");
    assert!(
        certified < reference.packets().len(),
        "kill point too late: whole trace survived"
    );
    let mut packets = Vec::new();
    while let Some(p) = source.next_packet().expect("certified packets decode") {
        packets.push(p);
    }
    assert_eq!(
        packets.as_slice(),
        &reference.packets()[..certified],
        "recovered packets are not a prefix of the reference"
    );

    // The certified prefix replays to completion straight off the torn
    // compressed file — replay self-configures from the header codec.
    let input = ReplayInput::from_chunks(file_chunk_source(&path).unwrap());
    let replay_cfg = VidiConfig {
        trace_chunk_words: CHUNK_WORDS,
        ..VidiConfig::replay(input)
    };
    let replay = build_app(app.setup(Scale::Test, seed), replay_cfg);
    run_app(replay, REPLAY_BUDGET).expect("compressed prefix replay completes");

    std::fs::remove_file(&path).ok();
}

#[test]
fn quiet_plan_changes_nothing() {
    // The null schedule must be bit-identical to a run without the fault
    // subsystem wired at all.
    let plain = run_app(
        build_app_with_faults(
            AppId::Sha.setup(Scale::Test, 7),
            VidiConfig::record(),
            FaultPlan::new(FaultSpec::default()).fault_injection(),
        ),
        RECORD_BUDGET,
    )
    .expect("quiet run completes");
    let baseline = run_app(
        vidi_repro::apps::build_app(AppId::Sha.setup(Scale::Test, 7), VidiConfig::record()),
        RECORD_BUDGET,
    )
    .expect("baseline completes");
    assert_eq!(
        plain.trace.expect("trace"),
        baseline.trace.expect("trace"),
        "a quiet fault plan must be a perfect no-op"
    );
}

#[test]
fn killed_replay_resumes_from_last_durable_checkpoint() {
    use vidi_repro::snap::{checkpointed_replay, replay_from, CheckpointLog, CheckpointPolicy};
    use vidi_repro::trace::ChunkSink;

    let seed = 7u64;
    let app = AppId::Sha;
    let patient = RetryPolicy {
        max_attempts: 4,
        base_backoff: std::time::Duration::ZERO,
    };

    // Unfaulted baseline: record, then replay to completion with
    // checkpoints, keeping the full validation trace.
    let recorded = run_app(
        build_app(app.setup(Scale::Test, seed), VidiConfig::record()),
        RECORD_BUDGET,
    )
    .expect("clean recording completes");
    let reference = recorded.trace.expect("recording produces a trace");
    let replay_cfg = VidiConfig::replay_record(reference.clone());
    let mut unfaulted = build_app(app.setup(Scale::Test, seed), replay_cfg.clone());
    let full_log =
        checkpointed_replay(&mut unfaulted, CheckpointPolicy::every(1000), REPLAY_BUDGET)
            .expect("unfaulted checkpointed replay");
    assert!(full_log.completed);
    let unfaulted_trace = unfaulted.shim.recorded_trace().expect("validation trace");

    // The faulted run: killed mid-trace (the budget expires halfway), with
    // whatever checkpoints it reached saved durably through flaky storage
    // that also truncates the image at rest.
    let kill_at = (full_log.final_cycle / 2).max(1500);
    let mut killed = build_app(app.setup(Scale::Test, seed), replay_cfg.clone());
    let killed_log = checkpointed_replay(&mut killed, CheckpointPolicy::every(1000), kill_at)
        .expect("killed replay returns its partial log");
    assert!(!killed_log.completed, "the run must die mid-trace");
    assert!(
        killed_log.checkpoints.len() >= 2,
        "at least one durable checkpoint past cycle 0"
    );

    let host_plan = FaultPlan::new(FaultSpec {
        seed,
        host_io_failures: Some(StorageFailureSpec {
            per_mille: 400,
            failures_per_op: 2,
        }),
        corruption: Some(CorruptionSpec::Truncate {
            keep_num: 3,
            keep_den: 4,
        }),
        ..FaultSpec::default()
    });
    let (image, _index) = killed_log.encode_framed();
    let mut storage = patient.wrap(host_plan.wrap_storage(Vec::new()));
    storage
        .put_chunk(0, &image)
        .expect("patient save survives transient faults");
    let mut at_rest = storage.into_inner().into_inner();
    host_plan.corrupt(&mut at_rest);
    let storage = patient.wrap(host_plan.wrap_storage(at_rest));

    // Recovery: the loader certifies a clean checkpoint prefix; the run
    // resumes from the last durable checkpoint and completes with a trace
    // identical to the unfaulted run's.
    let image = read_full(&storage).expect("patient load survives transient faults");
    let recovered = CheckpointLog::decode_framed(&image).expect("recover checkpoint prefix");
    let last = recovered
        .log
        .checkpoints
        .last()
        .expect("at least the cycle-0 checkpoint survives a 3/4 truncation");
    assert!(last.cycle <= kill_at);
    let mut resumed = build_app(app.setup(Scale::Test, seed), replay_cfg);
    replay_from(&mut resumed, &recovered.log, last.cycle).expect("restore last checkpoint");
    let ev = SessionCursor::new(&mut resumed)
        .run_until(Stop::replay_complete().with_budget(REPLAY_BUDGET))
        .expect("resume run");
    assert_eq!(
        ev.reason,
        StopReason::ReplayComplete,
        "resumed replay must complete"
    );
    resumed.sim.run(4096).expect("flush margin");
    assert_eq!(
        resumed.shim.recorded_trace().expect("validation trace"),
        unfaulted_trace,
        "resumed run must reproduce the unfaulted trace bit-exactly"
    );
}

#[test]
fn replay_completes_under_16x_fetch_bandwidth_collapse() {
    // Regression for the decoder credit-starvation bug: with a constant
    // bandwidth-collapse divisor larger than `fetch_bytes_per_cycle`,
    // per-cycle integer division floored the credit accrual to zero and the
    // replay starved forever. The fractional accumulator carries the
    // remainder across cycles, so throughput degrades (to divisor/fetch =
    // 16x slower here) instead of flooring — the replay must run to
    // completion, divergence-free.
    let seed = 42u64;
    let app = AppId::Dma;
    let recorded = run_app(
        build_app(app.setup(Scale::Test, seed), VidiConfig::record()),
        RECORD_BUDGET,
    )
    .expect("clean recording completes");
    assert!(recorded.output_ok.is_ok());
    let reference = recorded.trace.expect("recording produces a trace");

    let divisor = 16 * VidiConfig::record().fetch_bytes_per_cycle;
    let mut faults = FaultInjection::none();
    faults.fetch_bandwidth = Some(Box::new(move |_| divisor));
    let built = build_app_with_faults(
        app.setup(Scale::Test, seed),
        VidiConfig::replay_record(reference.clone()),
        faults,
    );
    let replayed = run_app(built, REPLAY_BUDGET)
        .expect("replay must complete under a 16x constant fetch collapse");
    assert!(
        replayed.output_ok.is_ok(),
        "collapsed-bandwidth replay corrupted the output: {:?}",
        replayed.output_ok
    );
    let report = compare(&reference, &replayed.trace.expect("validation trace"));
    assert!(
        report.is_clean(),
        "replay diverged under fetch collapse: {:?}",
        report.divergences
    );
}
