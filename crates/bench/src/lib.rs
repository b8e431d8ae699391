//! # vidi-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5) on the
//! simulated substrate:
//!
//! * `cargo run --release -p vidi-bench --bin table1` — Table 1 (execution
//!   time, recording overhead, trace size, trace-size reduction).
//! * `cargo run --release -p vidi-bench --bin table2` — Table 2 (per-app
//!   LUT/FF/BRAM overhead).
//! * `cargo run --release -p vidi-bench --bin fig7` — Fig 7 (resource
//!   overhead vs monitored width across interface combinations).
//! * `cargo run --release -p vidi-bench --bin effectiveness` — §5.4
//!   (divergences per application, and the interrupt patch).
//! * `cargo run --release -p vidi-bench --bin bench_gate` — the CI bench
//!   gate: runs the scheduler/codec suite ([`sim_bench`]), the
//!   checkpoint/seek/verify suite ([`snap_bench`]) and the eight-tenant
//!   fleet soak ([`fleet_bench`]), writes one `BENCH.json` (schema
//!   `vidi-bench/1`) and checks it against `scripts/bench_baseline.json`
//!   through the one comparator in [`gate`].
//! * `cargo run --release -p vidi-bench --bin ablation_sweep` — store
//!   bandwidth and FIFO-depth ablations, and the §6 physical-timestamp
//!   comparison.

#![forbid(unsafe_code)]

pub mod debug;
pub mod fleet_bench;
pub mod gate;
pub mod json;
pub mod sim_bench;
pub mod snap_bench;

use vidi_apps::{build_app, run_app, AppId, Scale};
use vidi_core::VidiConfig;
use vidi_trace::{compare, Trace};

/// Cycle budget per measured run.
pub const MAX_CYCLES: u64 = 50_000_000;

/// One row of Table 1, as measured on the simulator.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Application label.
    pub app: &'static str,
    /// Native execution time in simulated cycles (R1, mean).
    pub native_cycles: f64,
    /// Recording overhead percentage (mean over runs).
    pub overhead_pct: f64,
    /// Standard deviation of the overhead percentage.
    pub overhead_std: f64,
    /// Vidi trace size in bytes.
    pub trace_bytes: u64,
    /// What a cycle-accurate recorder would have stored, in bytes.
    pub cycle_accurate_bytes: u64,
}

impl Table1Row {
    /// Trace-size reduction factor vs cycle-accurate recording.
    pub fn reduction(&self) -> f64 {
        self.cycle_accurate_bytes as f64 / self.trace_bytes.max(1) as f64
    }
}

/// Measures one application for Table 1: `runs` paired R1/R2 executions
/// with varying seeds.
///
/// # Panics
///
/// Panics if any run fails to complete or produces wrong output — a Table 1
/// measurement is only meaningful over correct executions.
pub fn measure_table1(app: AppId, scale: Scale, runs: u32) -> Table1Row {
    let mut native = Vec::new();
    let mut overheads = Vec::new();
    let mut trace_bytes = 0;
    let mut ca_bytes = 0;
    for run in 0..runs {
        let seed = 1000 + run as u64;
        let base = run_app(
            build_app(app.setup(scale, seed), VidiConfig::transparent()),
            MAX_CYCLES,
        )
        .expect("baseline completes");
        assert!(
            base.output_ok.is_ok(),
            "{}: baseline incorrect",
            app.label()
        );
        let rec = run_app(
            build_app(app.setup(scale, seed), VidiConfig::record()),
            MAX_CYCLES,
        )
        .expect("recording completes");
        assert!(
            rec.output_ok.is_ok(),
            "{}: recording incorrect",
            app.label()
        );
        native.push(base.cycles as f64);
        overheads.push(100.0 * (rec.cycles as f64 - base.cycles as f64) / base.cycles as f64);
        let trace = rec.trace.expect("trace");
        trace_bytes = trace.body_bytes();
        ca_bytes = trace.cycle_accurate_bytes(base.cycles);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let m = mean(&overheads);
    let std = (overheads.iter().map(|x| (x - m) * (x - m)).sum::<f64>()
        / overheads.len().max(1) as f64)
        .sqrt();
    Table1Row {
        app: app.label(),
        native_cycles: mean(&native),
        overhead_pct: m,
        overhead_std: std,
        trace_bytes,
        cycle_accurate_bytes: ca_bytes,
    }
}

/// The outcome of one §5.4 effectiveness measurement.
#[derive(Debug, Clone)]
pub struct EffectivenessRow {
    /// Application label.
    pub app: String,
    /// Transactions in the reference trace.
    pub transactions: u64,
    /// Count divergences (must be 0).
    pub count_divergences: usize,
    /// Order divergences (must be 0).
    pub order_divergences: usize,
    /// Content divergences.
    pub content_divergences: usize,
}

/// Records and replays one application, comparing reference and validation
/// traces (§3.6 workflow).
pub fn measure_effectiveness(app: AppId, scale: Scale, seed: u64) -> EffectivenessRow {
    let rec = run_app(
        build_app(app.setup(scale, seed), VidiConfig::record()),
        MAX_CYCLES,
    )
    .expect("record completes");
    let reference = rec.trace.expect("trace");
    let outcome = run_app(
        build_app(
            app.setup(scale, seed),
            VidiConfig::replay_record(reference.clone()),
        ),
        MAX_CYCLES,
    )
    .expect("replay completes");
    let validation = outcome.trace.expect("validation trace");
    report_to_row(app.label().to_string(), &reference, &validation)
}

/// Converts a trace comparison into an [`EffectivenessRow`].
pub fn report_to_row(app: String, reference: &Trace, validation: &Trace) -> EffectivenessRow {
    let report = compare(reference, validation);
    let mut row = EffectivenessRow {
        app,
        transactions: reference.transaction_count(),
        count_divergences: 0,
        order_divergences: 0,
        content_divergences: 0,
    };
    for d in &report.divergences {
        match d {
            vidi_trace::Divergence::CountMismatch { .. } => row.count_divergences += 1,
            vidi_trace::Divergence::OrderMismatch { .. } => row.order_divergences += 1,
            vidi_trace::Divergence::ContentMismatch { .. } => row.content_divergences += 1,
        }
    }
    row
}

/// Formats a factor like the paper ("1,439x", "10,149,896x").
pub fn fmt_factor(f: f64) -> String {
    let n = f.round() as u64;
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    format!("{out}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_formatting() {
        assert_eq!(fmt_factor(97.4), "97x");
        assert_eq!(fmt_factor(1439.0), "1,439x");
        assert_eq!(fmt_factor(10_149_896.0), "10,149,896x");
    }

    #[test]
    fn table1_row_reduction() {
        let row = Table1Row {
            app: "X",
            native_cycles: 1000.0,
            overhead_pct: 1.0,
            overhead_std: 0.1,
            trace_bytes: 100,
            cycle_accurate_bytes: 100_000,
        };
        assert_eq!(row.reduction(), 1000.0);
    }
}
