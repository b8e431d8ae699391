//! Design-choice ablations: recording overhead versus (a) trace-store
//! bandwidth and (b) encoder FIFO capacity, on the most I/O-dense
//! application (SpamF), then the §6 comparison of Vidi's packet format with
//! a Panopticon-style physical-timestamp recorder.
//!
//! The sweeps cover the two knobs behind §3.3/§6: more storage bandwidth or
//! a deeper staging FIFO both reduce back-pressure stalls, at PCIe-share and
//! BRAM cost respectively — the deployment trade-off the paper's
//! discussion motivates but does not plot.
//!
//! A physical-timestamp recorder must capture (timestamp, full input
//! snapshot) for every active cycle and cannot tolerate back-pressure
//! (delays invalidate the timestamps), so its feasibility is bounded by the
//! trace-buffer drain bandwidth: burst traffic beyond the PCIe bandwidth
//! loses data once the BRAM buffer fills. The last section prints that
//! loss point and both formats' byte volumes over the same recordings.
//!
//! ```text
//! cargo run --release -p vidi-bench --bin ablation_sweep
//! ```

use vidi_apps::{build_app, run_app, AppId, Scale};
use vidi_core::VidiConfig;

const SEED: u64 = 4242;
const MAX: u64 = 50_000_000;

/// Bits captured per active cycle by a physical-timestamp recorder on the
/// paper's largest channel (§6): 593-bit payload + 64-bit timestamp.
const TIMESTAMP_RECORD_BITS: u64 = 593 + 64;
/// PCIe effective drain bandwidth (§6): 5.5 GB/s at 250 MHz = 22 B/cycle.
const DRAIN_BYTES_PER_CYCLE: f64 = 22.0;
/// BRAM trace buffer assumed by the §6 analysis: 43 MB.
const BRAM_BUFFER_BYTES: f64 = 43.0 * 1024.0 * 1024.0;

/// Milliseconds of saturating burst until a timestamp recorder's BRAM
/// buffer overflows, at 250 MHz.
fn section6_loss_point_ms() -> f64 {
    // Peak tracing bandwidth on a saturated 593-bit channel: one record per
    // cycle, less what the drain removes.
    let fill = TIMESTAMP_RECORD_BITS as f64 / 8.0 - DRAIN_BYTES_PER_CYCLE;
    (BRAM_BUFFER_BYTES / fill) / 250_000_000.0 * 1000.0
}

/// Prints the §6 ablation: the timestamp recorder's loss point and, per
/// app, Vidi's packet bytes against per-event physical timestamps.
fn section6() {
    println!("§6 ablation — physical timestamps vs transaction packets");
    println!(
        "  timestamp recorder on a saturated 593-bit channel: {:.1} B/cycle peak,",
        TIMESTAMP_RECORD_BITS as f64 / 8.0
    );
    println!(
        "  {DRAIN_BYTES_PER_CYCLE} B/cycle drain -> 43 MB BRAM overflows after {:.1} ms of burst",
        section6_loss_point_ms()
    );
    println!("  (paper's estimate: ~3.3 ms; Vidi instead back-pressures and never drops)");
    for app in [AppId::SpamFilter, AppId::Sha] {
        let rec = run_app(
            build_app(app.setup(Scale::Test, 7), VidiConfig::record()),
            5_000_000,
        )
        .expect("record");
        let trace = rec.trace.expect("trace");
        let vidi = trace.body_bytes();
        let ts = trace.transaction_count() * TIMESTAMP_RECORD_BITS / 8;
        println!(
            "  {:<6} vidi packets: {:>8} B; per-event physical timestamps: {:>8} B ({:.2}x)",
            app.label(),
            vidi,
            ts,
            ts as f64 / vidi as f64
        );
    }
}

fn overhead(config: VidiConfig) -> (f64, u64) {
    let base = run_app(
        build_app(
            AppId::SpamFilter.setup(Scale::Bench, SEED),
            VidiConfig::transparent(),
        ),
        MAX,
    )
    .expect("baseline");
    let rec = run_app(
        build_app(AppId::SpamFilter.setup(Scale::Bench, SEED), config),
        MAX,
    )
    .expect("recording");
    assert!(rec.output_ok.is_ok());
    (
        100.0 * (rec.cycles as f64 - base.cycles as f64) / base.cycles as f64,
        rec.backpressure_cycles,
    )
}

fn main() {
    println!("Ablation: recording overhead vs trace-store bandwidth (SpamF)");
    println!(
        "{:>18} {:>12} {:>20}",
        "bytes/cycle", "overhead %", "backpressure cycles"
    );
    for bw in [4u32, 8, 12, 16, 22, 32, 48, 64, 96] {
        let (oh, bp) = overhead(VidiConfig {
            store_bytes_per_cycle: bw,
            ..VidiConfig::record()
        });
        println!("{bw:>18} {oh:>12.2} {bp:>20}");
    }
    println!();
    println!("Ablation: recording overhead vs encoder FIFO capacity (SpamF, 12 B/cycle store)");
    println!(
        "{:>18} {:>12} {:>20}",
        "fifo packets", "overhead %", "backpressure cycles"
    );
    for cap in [64usize, 128, 256, 512, 1024, 4096] {
        let (oh, bp) = overhead(VidiConfig {
            store_bytes_per_cycle: 12,
            fifo_capacity: cap,
            ..VidiConfig::record()
        });
        println!("{cap:>18} {oh:>12.2} {bp:>20}");
    }
    println!();
    println!("Reading: bandwidth is the first-order knob — back-pressure vanishes once");
    println!("the store keeps up with the sustained transaction-content rate (~26 B/cy");
    println!("here). FIFO depth absorbs bursts: a deep enough buffer hides this whole");
    println!("(short) workload, but any sustained deficit eventually fills any finite");
    println!("buffer — which is why Vidi needs back-pressure *correctness*, not just");
    println!("buffering, to record arbitrarily long executions (§3.3, §6).");
    println!();
    section6();
}
