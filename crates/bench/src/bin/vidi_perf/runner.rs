//! One benchmark run: a warm-up, then whole rounds until the measured time
//! is used up, then the metrics of the catalogue computed from them.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::metrics::{ratio, Metric, Sheet, END_TO_END, PER_LAYER};
use crate::session::{Round, SimSum};
use crate::spans::Tracer;
use crate::stats::Summary;
use crate::workloads::{Plan, Workload};

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Round size.
    pub plan: Plan,
    /// Run seed; session `i` uses `seed + i`.
    pub seed: u64,
    /// Start no round that would end after this many seconds.
    pub seconds: f64,
    /// Run at least this many rounds.
    pub min_rounds: usize,
    /// Traced run: alternate untraced and traced rounds and report the
    /// per-layer catalogue instead of the end-to-end one.
    pub traced: bool,
}

/// What a run measured.
pub struct Outcome {
    /// The reported catalogue.
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Rounds run.
    pub rounds: usize,
    /// Operations attempted and failed, warm-up included.
    pub attempted: u64,
    /// See [`Outcome::attempted`].
    pub failed: u64,
    /// What failed.
    pub errors: Vec<String>,
    /// Sample counts behind the percentiles.
    pub notes: Vec<String>,
}

/// Runs `settings`, recording spans into `tr` when traced.
pub fn run(settings: &Settings, tr: &mut Tracer) -> Outcome {
    let start = Instant::now();
    let warm = settings.workload.warm_up(settings.plan, settings.seed);
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    // A round starts only if it should end within `seconds` of the start,
    // judged by the longest round so far, so a run takes about `seconds`.
    let mut longest = 0.0_f64;
    while rounds.len() < settings.min_rounds
        || start.elapsed().as_secs_f64() + longest <= settings.seconds
    {
        let keep = settings.traced && rounds.len() % 2 == 1;
        tr.set_keeping(keep);
        let began = Instant::now();
        rounds.push((
            keep,
            settings.workload.round(tr, settings.plan, settings.seed),
        ));
        longest = longest.max(began.elapsed().as_secs_f64());
    }
    tr.set_keeping(false);

    let mut notes = Vec::new();
    let metrics = if settings.traced {
        per_layer(&rounds, tr, &mut notes)
    } else {
        end_to_end(&rounds, &mut notes)
    };
    let all = std::iter::once(&warm).chain(rounds.iter().map(|(_, r)| r));
    let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());
    for r in all {
        attempted += r.attempted;
        failed += r.failed;
        errors.extend(r.errors.iter().cloned());
    }
    if !settings.traced {
        attempted += 1;
        if peak_rss_mb().is_none() {
            failed += 1;
            errors.push("peak RSS unavailable: no VmHWM in /proc/self/status".into());
        }
    }
    Outcome {
        metrics,
        rounds: rounds.len(),
        attempted,
        failed,
        errors,
        notes,
    }
}

/// Median over rounds of `f`, with the per-round values as samples.
fn per_round<'a>(
    rounds: impl IntoIterator<Item = &'a Round>,
    f: impl Fn(&Round) -> f64,
) -> (f64, Vec<f64>) {
    let samples: Vec<f64> = rounds.into_iter().map(f).collect();
    let median = Summary::of(&samples).map_or(0.0, |s| s.median);
    (median, samples)
}

fn pooled<'a>(
    rounds: impl IntoIterator<Item = &'a Round>,
    f: impl Fn(&Round) -> &[f64],
) -> Option<Summary> {
    let all: Vec<f64> = rounds.into_iter().flat_map(|r| f(r).to_vec()).collect();
    Summary::of(&all)
}

fn end_to_end(rounds: &[(bool, Round)], notes: &mut Vec<String>) -> BTreeMap<&'static str, Metric> {
    let rs = || rounds.iter().map(|(_, r)| r);
    let mut sheet = Sheet::new(END_TO_END);
    let (v, s) = per_round(rs(), |r| r.setup_s);
    sheet.set("setup_s", v, s);
    // Throughputs are totals over the run, so a slow round moves them by
    // its share of the run; a median over few rounds can jump instead.
    let total = |f: fn(&Round) -> f64| rs().map(f).sum::<f64>();
    let (_, s) = per_round(rs(), |r| ratio(r.cycles as f64, r.cycles_s));
    let v = ratio(total(|r| r.cycles as f64), total(|r| r.cycles_s));
    sheet.set("cycles_per_s", v, s);
    let (_, s) = per_round(rs(), |r| ratio(r.ops as f64, r.timed_s));
    let v = ratio(total(|r| r.ops as f64), total(|r| r.timed_s));
    sheet.set("ops_per_s", v, s);

    let latency = pooled(rs(), |r| &r.latencies_ms);
    let round_pct = |pick: fn(&Summary) -> f64| {
        rs().filter_map(|r| Summary::of(&r.latencies_ms).map(|s| pick(&s)))
            .collect::<Vec<_>>()
    };
    sheet.set(
        "op_ms_p50",
        latency.map_or(0.0, |s| s.p50),
        round_pct(|s| s.p50),
    );
    sheet.set(
        "op_ms_p95",
        latency.map_or(0.0, |s| s.p95),
        round_pct(|s| s.p95),
    );
    if let Some(s) = latency {
        notes.push(format!(
            "op latency: {} samples, {} beyond p95",
            s.n,
            s.beyond(95.0)
        ));
    }

    let sum = |f: fn(&Round) -> u64| rs().map(f).sum::<u64>() as f64;
    sheet.set(
        "trace_bytes_per_cycle",
        ratio(sum(|r| r.trace_bytes), sum(|r| r.trace_cycles)),
        Vec::new(),
    );
    sheet.set(
        "sim_cycles_ratio",
        ratio(sum(|r| r.vidi_cycles), sum(|r| r.base_cycles)),
        Vec::new(),
    );
    let rss = peak_rss_mb().unwrap_or(0.0);
    sheet.set("peak_rss_mb", rss, vec![rss]);
    sheet.finish()
}

fn per_layer(
    rounds: &[(bool, Round)],
    tr: &Tracer,
    notes: &mut Vec<String>,
) -> BTreeMap<&'static str, Metric> {
    let all = || rounds.iter().map(|(_, r)| r);
    let traced = || rounds.iter().filter(|(k, _)| *k).map(|(_, r)| r);
    let plain = || rounds.iter().filter(|(k, _)| !*k).map(|(_, r)| r);
    let n = rounds.len() as f64;
    let sum = |f: fn(&Round) -> f64| all().map(f).sum::<f64>();
    let tsum = |f: fn(&Round) -> f64| traced().map(f).sum::<f64>();
    let mut sheet = Sheet::new(PER_LAYER);
    let med = |sheet: &mut Sheet, name: &str, f: fn(&Round) -> f64| {
        let (v, s) = per_round(all(), f);
        sheet.set(name, v, s);
    };

    let add = |f: fn(&Round) -> SimSum| all().map(f).fold(SimSum::default(), SimSum::merge);
    let rec = add(|r| r.layer.rec);
    let cyc = rec.cycles as f64;
    sheet.set(
        "hwsim.evals_per_cycle",
        ratio(rec.evals as f64, cyc),
        vec![],
    );
    sheet.set(
        "hwsim.settle_passes_per_cycle",
        ratio(rec.settle_passes as f64, cyc),
        vec![],
    );
    sheet.set(
        "hwsim.tick_skips_per_cycle",
        ratio(rec.tick_skips as f64, cyc),
        vec![],
    );
    sheet.set("hwsim.deopts", rec.deopts as f64 / n, vec![]);
    med(&mut sheet, "hwsim.transparent_cycles_per_s", |r| {
        ratio(r.layer.base_cycles as f64, r.layer.base_s)
    });
    med(&mut sheet, "core.record_path_s", |r| r.layer.record_path_s);
    med(&mut sheet, "core.flush_s", |r| r.layer.flush_s);
    sheet.set(
        "core.store.backpressure_cycles",
        sum(|r| r.layer.backpressure_cycles as f64) / n,
        vec![],
    );
    sheet.set(
        "core.store.chunks_flushed",
        sum(|r| r.layer.chunks_flushed as f64) / n,
        vec![],
    );
    let peak = all()
        .map(|r| r.layer.peak_buffered_bytes)
        .max()
        .unwrap_or(0);
    sheet.set("core.store.peak_buffered_bytes", peak as f64, vec![]);

    let replay = add(|r| r.layer.replay);
    let rcyc = replay.cycles as f64;
    sheet.set(
        "core.replay.evals_per_cycle",
        ratio(replay.evals as f64, rcyc),
        vec![],
    );
    sheet.set(
        "core.replay.tick_skips_per_cycle",
        ratio(replay.tick_skips as f64, rcyc),
        vec![],
    );
    med(&mut sheet, "core.replay.drive_s", |r| {
        r.layer.replay_drive_s
    });

    let packets = tsum(|r| r.layer.probe_packets as f64);
    let ns = |secs: f64| ratio(secs * 1e9, packets);
    let sink = [
        ns(tsum(|r| r.layer.sink_s[0])),
        ns(tsum(|r| r.layer.sink_s[1])),
    ];
    let source = [
        ns(tsum(|r| r.layer.source_s[0])),
        ns(tsum(|r| r.layer.source_s[1])),
    ];
    sheet.set("trace.sink.ns_per_packet.raw", sink[0], vec![]);
    sheet.set("trace.sink.ns_per_packet.xor-dict", sink[1], vec![]);
    sheet.set("trace.source.ns_per_packet.raw", source[0], vec![]);
    sheet.set("trace.source.ns_per_packet.xor-dict", source[1], vec![]);
    sheet.set("codec.encode_ns_per_packet", sink[1] - sink[0], vec![]);
    sheet.set("codec.decode_ns_per_packet", source[1] - source[0], vec![]);
    sheet.set(
        "codec.ratio",
        ratio(
            tsum(|r| r.layer.probe_bytes[0] as f64),
            tsum(|r| r.layer.probe_bytes[1] as f64),
        ),
        vec![],
    );
    // Replays read XorDict images; this is the decode share of their drive.
    sheet.set(
        "trace.source.replay_share_pct",
        100.0
            * ratio(
                source[1] * 1e-9 * tsum(|r| r.layer.replay_packets as f64),
                tsum(|r| r.layer.replay_drive_s),
            ),
        vec![],
    );

    let median = |s: Option<Summary>| s.map_or(0.0, |s| s.median);
    sheet.set(
        "snap.snapshot_us",
        median(pooled(traced(), |r| &r.layer.snapshot_us)),
        vec![],
    );
    sheet.set(
        "snap.restore_us",
        median(pooled(traced(), |r| &r.layer.restore_us)),
        vec![],
    );
    let state = traced().map(|r| r.layer.state_bytes).max().unwrap_or(0);
    sheet.set("snap.state_bytes", state as f64, vec![]);
    sheet.set(
        "snap.session_build_us",
        median(pooled(all(), |r| &r.layer.seek_build_us)),
        vec![],
    );
    let rolls = pooled(all(), |r| &r.layer.roll_forwards);
    sheet.set(
        "snap.roll_forward_cycles_p95",
        rolls.map_or(0.0, |s| s.p95),
        vec![],
    );
    if let Some(s) = rolls {
        notes.push(format!(
            "roll-forward: {} samples, {} beyond p95",
            s.n,
            s.beyond(95.0)
        ));
    }
    med(&mut sheet, "snap.index_s", |r| r.layer.index_s);
    let (v, s) = per_round(traced(), |r| r.layer.verify_serial_s);
    sheet.set("snap.verify_serial_s", v, s);
    med(&mut sheet, "snap.verify_parallel_s", |r| {
        r.layer.verify_parallel_s
    });
    sheet.set(
        "snap.verify_efficiency",
        ratio(
            tsum(|r| r.layer.verify_serial_s),
            2.0 * tsum(|r| r.layer.verify_parallel_s),
        ),
        vec![],
    );

    let submit = pooled(all(), |r| &r.layer.submit_us);
    sheet.set("fleet.submit_us_p95", submit.map_or(0.0, |s| s.p95), vec![]);
    let (v, s) = per_round(traced(), |r| {
        ratio(
            r.layer.fleet_cycles_per_s,
            2.0 * r.layer.fleet_solo_cycles_per_s,
        )
    });
    sheet.set("fleet.efficiency", v, s);
    let reserved = all()
        .map(|r| r.layer.fleet_peak_reserved)
        .max()
        .unwrap_or(0);
    sheet.set("fleet.peak_reserved_bytes", reserved as f64, vec![]);
    sheet.set(
        "fleet.sum_peak_buffered_bytes",
        sum(|r| r.layer.fleet_sum_peak_buffered as f64) / n,
        vec![],
    );
    sheet.set(
        "apps.build_ms_per_session",
        1e3 * ratio(sum(|r| r.layer.build_s), sum(|r| r.layer.builds as f64)),
        vec![],
    );

    let timed_traced = per_round(traced(), |r| r.timed_s).0;
    let timed_plain = per_round(plain(), |r| r.timed_s).0;
    sheet.set(
        "bench.span_overhead_pct",
        100.0 * ratio(timed_traced - timed_plain, timed_plain),
        vec![],
    );
    let selfs = tr.timed_self_seconds();
    let traced_rounds = traced().count() as f64;
    let mut self_sum = 0.0;
    for (name, _, _) in PER_LAYER {
        if let Some(span) = name.strip_prefix("self_s.") {
            let secs = ratio(selfs.get(span).copied().unwrap_or(0.0), traced_rounds);
            self_sum += secs;
            sheet.set(name, secs, vec![]);
        }
    }
    notes.push(format!(
        "self times sum to {:.2}% of the untraced timed phase ({self_sum:.4} s vs {timed_plain:.4} s per round)",
        100.0 * ratio(self_sum, timed_plain)
    ));
    sheet.finish()
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
