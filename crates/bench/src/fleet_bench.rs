//! Multi-tenant fleet throughput and isolation measurement: the `fleet`
//! suite of `BENCH.json`.
//!
//! Runs the canonical eight-tenant mix — four clean recordings plus four
//! distinct fault schedules (injected engine panic, permanently failing
//! store writes, total bandwidth collapse, at-rest truncation) — through
//! one [`vidi_fleet::Fleet`] and measures:
//!
//! * **Throughput** — sessions/sec and aggregate simulated cycles/sec over
//!   the soak's wall time (informational; machine-dependent).
//! * **Isolation** — every tenant's terminal outcome, and whether each
//!   clean tenant's trace is bit-identical to its solo run.
//! * **Admission** — peak global reservation and aggregate peak sink
//!   buffering against the configured budget.
//!
//! CI regressions are judged **only** on deterministic quantities: the
//! per-tenant outcome labels, the bit-identity boolean, and the
//! within-budget booleans. Wall-clock rates are recorded as a trajectory.

use std::time::Instant;

use vidi_apps::{build_app_with_faults, AppId, BuiltApp, Scale};
use vidi_core::{FaultInjection, SessionCursor, Stop, StopReason};
use vidi_faults::{CorruptionSpec, FaultSpec, StorageFailureSpec, WindowSpec};
use vidi_fleet::{Fleet, FleetConfig, SessionId, SessionSpec, SessionState};

use crate::gate::{row_json, Gate, SuiteReport, SuiteSpec};
use crate::json::{obj, Json};

/// Cycle budget for the tenants designed to wedge (see the fleet soak).
const WEDGE_BUDGET: u64 = 20_000;

/// The canonical tenant mix: four clean, four faulted, every fault plan
/// distinct. Two clean tenants record through compressed codecs so the soak
/// exercises codec negotiation under fleet admission (compressed tenants
/// reserve and account the same buffer bound; the ratio shows up in
/// `bytes_written`). Kept in one place so the bench and its baseline stay
/// honest about what "the eight-tenant soak" means.
pub fn tenant_mix() -> Vec<SessionSpec> {
    use vidi_trace::CodecId;
    vec![
        SessionSpec::record("clean-sha", AppId::Sha, 7),
        SessionSpec::record("clean-digitrec", AppId::DigitRec, 11)
            .with_trace_codec(CodecId::XorDict),
        SessionSpec::record("clean-spamfilter", AppId::SpamFilter, 13)
            .with_trace_codec(CodecId::XorDict),
        SessionSpec::record("clean-dma", AppId::Dma, 21),
        // Injected engine panic mid-run; small chunks so a prefix survives.
        SessionSpec {
            trace_chunk_words: 4,
            ..SessionSpec::record("crash-sha", AppId::Sha, 31)
        }
        .with_faults(FaultSpec {
            seed: 31,
            panic_at: Some(1200),
            ..FaultSpec::default()
        }),
        // Store writes fail forever; bench scale so traffic overwhelms the
        // encoder FIFO once flushing stops.
        SessionSpec {
            max_cycles: WEDGE_BUDGET,
            trace_chunk_words: 4,
            scale: Scale::Bench,
            ..SessionSpec::record("wedge-digitrec", AppId::DigitRec, 33)
        }
        .with_faults(FaultSpec {
            seed: 33,
            store_failures: Some(StorageFailureSpec {
                per_mille: 1000,
                failures_per_op: u32::MAX,
            }),
            ..FaultSpec::default()
        }),
        // Store bandwidth collapses to zero on every cycle.
        SessionSpec {
            max_cycles: WEDGE_BUDGET,
            scale: Scale::Bench,
            ..SessionSpec::record("starve-spamfilter", AppId::SpamFilter, 35)
        }
        .with_faults(FaultSpec {
            seed: 35,
            store_collapse: Some(WindowSpec {
                period: 1,
                window: 1,
                divisor: 1_000_000,
            }),
            ..FaultSpec::default()
        }),
        // Intact recording, then at-rest tail truncation.
        SessionSpec::record("rot-dma", AppId::Dma, 37).with_faults(FaultSpec {
            seed: 37,
            corruption: Some(CorruptionSpec::Truncate {
                keep_num: 3,
                keep_den: 4,
            }),
            ..FaultSpec::default()
        }),
    ]
}

/// One tenant's measured outcome.
#[derive(Debug, Clone)]
pub struct FleetBenchRow {
    /// Tenant name (from the spec).
    pub name: String,
    /// Terminal state label (`completed` / `failed` / `evicted`).
    pub outcome: String,
    /// Failure-cause discriminant (`panicked`, `sim`, `corrupt-trace`,
    /// `bad-output`, `io`), or `-` for non-failed tenants. Deterministic,
    /// so the baseline pins it.
    pub cause: String,
    /// Cycles the tenant simulated before its terminal transition (0 for
    /// failed tenants, whose reports are not retained).
    pub cycles: u64,
    /// Cycle packets committed to the tenant's trace image.
    pub packets: u64,
    /// Wire name of the chunk codec the tenant recorded through.
    pub codec: String,
    /// Encoded bytes the tenant's sink pushed to the store (0 for failed
    /// tenants, whose reports are not retained).
    pub bytes_written: u64,
    /// For clean tenants: trace image bit-identical to the solo run.
    /// Vacuously true for faulted tenants.
    pub bit_identical: bool,
}

/// The whole soak's measurements.
#[derive(Debug, Clone)]
pub struct FleetBenchReport {
    /// Per-tenant rows, in submission order.
    pub rows: Vec<FleetBenchRow>,
    /// Wall time of the fleet soak (submission to last terminal), ms.
    pub wall_ms: f64,
    /// Terminal sessions per wall second (informational).
    pub sessions_per_sec: f64,
    /// Aggregate simulated cycles per wall second (informational).
    pub aggregate_cycles_per_sec: f64,
    /// The admission budget the fleet ran under.
    pub budget: u64,
    /// Peak global reservation the ledger recorded.
    pub peak_reserved: u64,
    /// Aggregate per-tenant peak sink buffering (completed + evicted).
    pub sum_peak_buffered: u64,
    /// `peak_reserved <= budget` — the admission invariant.
    pub reservation_within_budget: bool,
    /// `sum_peak_buffered <= budget` — the buffering the reservations
    /// bounded actually stayed inside them.
    pub buffering_within_budget: bool,
}

fn cause_label(state: &SessionState) -> &'static str {
    use vidi_fleet::FailureCause;
    match state {
        SessionState::Failed(failure) => match failure.cause {
            FailureCause::Panicked(_) => "panicked",
            FailureCause::Sim(_) => "sim",
            FailureCause::CorruptTrace { .. } => "corrupt-trace",
            FailureCause::BadOutput(_) => "bad-output",
            FailureCause::Io(_) => "io",
        },
        _ => "-",
    }
}

/// Records the spec solo — same configuration, no fleet, no arbiter, no
/// faults — and returns the finalized trace image (the bit-identity
/// reference for clean tenants).
fn solo_image(spec: &SessionSpec) -> Vec<u8> {
    let image = vidi_fleet::SharedImage::new();
    let mut built = build_app_with_faults(
        spec.app.setup(spec.scale, spec.seed),
        spec.vidi_config(),
        FaultInjection::none(),
    );
    built
        .shim
        .stream_to(Box::new(image.clone()))
        .expect("no chunk flushed yet");
    let mut cursor = SessionCursor::new(&mut built);
    let ev = cursor
        .run_until(
            Stop::when(|b: &mut BuiltApp| b.cpu.iter().all(|h| h.borrow().finished))
                .or_at_cycle(spec.max_cycles)
                .check_every(256),
        )
        .expect("solo run progresses");
    assert_eq!(ev.reason, StopReason::PredicateTrue, "solo baseline wedged");
    cursor.flush().expect("solo flush margin");
    built.shim.finalize_recording().expect("solo finalize");
    image.snapshot()
}

/// Runs the eight-tenant soak on `workers` worker threads and measures it.
pub fn measure_fleet(workers: usize) -> FleetBenchReport {
    let mix = tenant_mix();
    let budget: u64 = mix.iter().map(SessionSpec::buffer_bound).sum();
    let total_rate: u64 = mix.iter().map(|s| u64::from(s.store_bytes_per_cycle)).sum();
    let fleet = Fleet::new(FleetConfig {
        workers,
        memory_budget: budget,
        total_store_bytes_per_cycle: total_rate,
        max_sessions: mix.len(),
        evict_to_admit: false,
    });

    let start = Instant::now();
    let ids: Vec<SessionId> = mix
        .iter()
        .map(|spec| fleet.submit(spec.clone()).expect("admission within budget"))
        .collect();
    fleet.wait_all();
    let wall = start.elapsed();

    let rows: Vec<FleetBenchRow> = mix
        .iter()
        .zip(&ids)
        .map(|(spec, &id)| {
            let state = fleet.state_of(id).expect("session exists");
            let (cycles, packets, bytes_written) = match &state {
                SessionState::Completed(r) | SessionState::Evicted(r) => {
                    (r.cycles, r.packets, r.bytes_written)
                }
                _ => (0, 0, 0),
            };
            let bit_identical = if spec.faults.is_none() {
                let prefix = fleet.fetch_trace(id).expect("trace fetchable");
                prefix.bytes == solo_image(spec)
            } else {
                true
            };
            FleetBenchRow {
                name: spec.name.clone(),
                outcome: state.label().to_string(),
                cause: cause_label(&state).to_string(),
                cycles,
                packets,
                codec: spec.trace_codec.name().to_string(),
                bytes_written,
                bit_identical,
            }
        })
        .collect();

    let stats = fleet.stats();
    let wall_s = wall.as_secs_f64().max(1e-9);
    FleetBenchReport {
        sessions_per_sec: rows.len() as f64 / wall_s,
        aggregate_cycles_per_sec: stats.total_cycles as f64 / wall_s,
        wall_ms: wall_s * 1e3,
        budget: stats.budget,
        peak_reserved: stats.peak_reserved,
        sum_peak_buffered: stats.sum_peak_buffered,
        reservation_within_budget: stats.peak_reserved <= stats.budget,
        buffering_within_budget: stats.sum_peak_buffered <= stats.budget,
        rows,
    }
}

/// The fleet suite's baseline gates: per tenant, the terminal outcome,
/// the failure cause and clean-tenant bit-identity; for the soak, both
/// within-budget checks.
pub const SUITE: SuiteSpec = SuiteSpec {
    name: "fleet",
    key: "name",
    rows: &[
        ("outcome", Gate::Exact),
        ("cause", Gate::Exact),
        ("bit_identical", Gate::Exact),
    ],
    summary: &[
        ("reservation_within_budget", Gate::Exact),
        ("buffering_within_budget", Gate::Exact),
    ],
};

/// Runs the soak on `workers` worker threads and judges it against the
/// absolute gates: the `fleet` suite of `bench_gate`.
pub fn suite(workers: usize) -> SuiteReport {
    let report = measure_fleet(workers);
    SuiteReport {
        spec: &SUITE,
        summary: obj([
            ("wall_ms", Json::Num(report.wall_ms)),
            ("sessions_per_sec", Json::Num(report.sessions_per_sec)),
            (
                "aggregate_cycles_per_sec",
                Json::Num(report.aggregate_cycles_per_sec),
            ),
            ("budget_bytes", Json::Num(report.budget as f64)),
            (
                "peak_reserved_bytes",
                Json::Num(report.peak_reserved as f64),
            ),
            (
                "sum_peak_buffered_bytes",
                Json::Num(report.sum_peak_buffered as f64),
            ),
            (
                "reservation_within_budget",
                Json::Bool(report.reservation_within_budget),
            ),
            (
                "buffering_within_budget",
                Json::Bool(report.buffering_within_budget),
            ),
        ]),
        failures: failures(&report),
        rows: report
            .rows
            .iter()
            .map(|r| {
                row_json!(
                    r,
                    [
                        name,
                        outcome,
                        cause,
                        cycles,
                        packets,
                        codec,
                        bytes_written,
                        bit_identical,
                    ]
                )
            })
            .collect(),
    }
}

/// Every absolute gate over a soak: clean tenants complete, their traces
/// are bit-identical to solo runs, and neither the peak reservation nor
/// the aggregate peak buffering passes the budget.
///
/// Returns the list of violations, empty when every gate passes.
pub fn failures(report: &FleetBenchReport) -> Vec<String> {
    let mut failures = Vec::new();
    let tenants = |pred: fn(&FleetBenchRow) -> bool| -> Vec<&str> {
        report
            .rows
            .iter()
            .filter(|r| pred(r))
            .map(|r| r.name.as_str())
            .collect()
    };
    let broken_clean = tenants(|r| r.cause == "-" && r.outcome != "completed");
    if !broken_clean.is_empty() {
        failures.push(format!("clean tenants did not complete: {broken_clean:?}"));
    }
    let diverged = tenants(|r| !r.bit_identical);
    if !diverged.is_empty() {
        failures.push(format!(
            "clean tenant traces diverged from solo runs: {diverged:?}"
        ));
    }
    if !report.reservation_within_budget {
        failures.push(format!(
            "peak reservation {} B exceeded the budget {} B",
            report.peak_reserved, report.budget
        ));
    }
    if !report.buffering_within_budget {
        failures.push(format!(
            "aggregate peak buffering {} B exceeded the budget {} B",
            report.sum_peak_buffered, report.budget
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> FleetBenchReport {
        let tenant = |name: &str, outcome: &str, cause: &str| FleetBenchRow {
            name: name.into(),
            outcome: outcome.into(),
            cause: cause.into(),
            cycles: 0,
            packets: 0,
            codec: "raw".into(),
            bytes_written: 0,
            bit_identical: true,
        };
        FleetBenchReport {
            rows: vec![
                tenant("clean", "completed", "-"),
                tenant("crash", "failed", "panicked"),
            ],
            wall_ms: 0.0,
            sessions_per_sec: 0.0,
            aggregate_cycles_per_sec: 0.0,
            budget: 100,
            peak_reserved: 100,
            sum_peak_buffered: 10,
            reservation_within_budget: true,
            buffering_within_budget: true,
        }
    }

    #[test]
    fn failures_flag_broken_clean_tenants() {
        // A faulted tenant failing is expected, not a failure.
        assert!(failures(&report()).is_empty());
        let mut r = report();
        r.rows[0].outcome = "evicted".into();
        assert_eq!(
            failures(&r),
            vec![r#"clean tenants did not complete: ["clean"]"#.to_string()]
        );
        let mut r = report();
        r.rows[0].bit_identical = false;
        assert_eq!(
            failures(&r),
            vec![r#"clean tenant traces diverged from solo runs: ["clean"]"#.to_string()]
        );
    }

    #[test]
    fn failures_flag_budget_overruns() {
        let mut r = report();
        r.reservation_within_budget = false;
        assert_eq!(
            failures(&r),
            vec!["peak reservation 100 B exceeded the budget 100 B".to_string()]
        );
        let mut r = report();
        r.buffering_within_budget = false;
        assert_eq!(
            failures(&r),
            vec!["aggregate peak buffering 10 B exceeded the budget 100 B".to_string()]
        );
    }

    #[test]
    fn tenant_mix_is_the_soak_contract() {
        let mix = tenant_mix();
        assert_eq!(mix.len(), 8, "eight tenants");
        assert_eq!(mix.iter().filter(|s| s.faults.is_some()).count(), 4);
        // At least two clean tenants record through compressed codecs, and
        // at least one clean tenant stays raw (codec-negotiation coverage).
        let clean: Vec<_> = mix.iter().filter(|s| s.faults.is_none()).collect();
        let compressed = clean
            .iter()
            .filter(|s| s.trace_codec != vidi_trace::CodecId::Raw)
            .count();
        assert!(compressed >= 2, "compressed clean tenants: {compressed}");
        assert!(compressed < clean.len(), "keep a raw clean tenant");
        // The four fault schedules are pairwise distinct.
        let plans: Vec<_> = mix.iter().filter_map(|s| s.faults).collect();
        for (i, a) in plans.iter().enumerate() {
            for b in &plans[i + 1..] {
                assert_ne!(a, b, "fault plans must be distinct");
            }
        }
    }
}
