//! `vidi_perf` — the repeatable end-to-end benchmark, with per-layer
//! attribution from a separate traced run. See `README.md` beside this
//! file for the workloads and the metric dictionary.
//!
//! ```text
//! vidi_perf run --workload <name> --seed <n> [--seconds <s>]
//!               [--trace 0|1|<spans.json>] [--out <result.json>]
//! vidi_perf compare <A.json> <B.json> [--bench <BENCHMARK.json>]
//! ```
//!
//! `run` prints every metric with its unit, then, as its last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. It exits
//! 1 when any operation failed its check, 2 on a usage error.

#![forbid(unsafe_code)]

mod compare;
mod fleet;
mod metrics;
mod probe;
mod recording;
mod replay;
mod runner;
mod session;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use vidi_bench::json::Json;

use crate::runner::{run, Settings};
use crate::spans::Tracer;
use crate::workloads::Workload;

const USAGE: &str = "usage:
  vidi_perf run --workload <record-io|record-compute|replay-debug|fleet> --seed <n>
                [--seconds <s>] [--trace 0|1|<spans.json>] [--out <result.json>]
  vidi_perf compare <A.json> <B.json> [--bench <BENCHMARK.json>]";

/// Rounds an untraced run always completes, so set-up is timed several
/// times; a traced run alternates untraced and traced rounds, so it needs
/// one of each.
const MIN_ROUNDS: usize = 3;
const MIN_TRACED_ROUNDS: usize = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => Err(String::new()),
    };
    result.unwrap_or_else(|e| {
        if !e.is_empty() {
            eprintln!("vidi_perf: {e}");
        }
        eprintln!("{USAGE}");
        ExitCode::from(2)
    })
}

/// `--flag value` pairs, in command-line order.
type Flags = Vec<(String, String)>;

/// Splits `args` into flags and bare positionals.
fn parse_flags(args: &[String]) -> Result<(Flags, Vec<String>), String> {
    let (mut flags, mut positional) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(flag) = a.strip_prefix("--") {
            let value = it.next().ok_or_else(|| format!("--{flag} needs a value"))?;
            flags.push((flag.to_string(), value.clone()));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((flags, positional))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args)?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    for (k, _) in &flags {
        if !["workload", "seed", "seconds", "trace", "out"].contains(&k.as_str()) {
            return Err(format!("unknown flag --{k}"));
        }
    }
    let name = flag(&flags, "workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = flag(&flags, "seed")
        .ok_or("--seed is required")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = flag(&flags, "seconds")
        .unwrap_or("25")
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s >= 0.0)
        .ok_or("--seconds must be a non-negative number")?;
    let (traced, spans_path) = match flag(&flags, "trace").unwrap_or("0") {
        "0" => (false, None),
        "1" => (true, None),
        path => (true, Some(path)),
    };
    let settings = Settings {
        workload,
        plan: workload.bench_plan(),
        seed,
        seconds,
        min_rounds: if traced {
            MIN_TRACED_ROUNDS
        } else {
            MIN_ROUNDS
        },
        traced,
    };

    let mut tracer = Tracer::new(false);
    let outcome = run(&settings, &mut tracer);

    println!(
        "vidi_perf {} seed {seed}: {} rounds, {} traced, {}/{} operations failed",
        workload.name(),
        outcome.rounds,
        if traced { "spans" } else { "no spans" },
        outcome.failed,
        outcome.attempted
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, m) in &outcome.metrics {
        let kind = if m.exact { "exact" } else { "timing" };
        println!("  {name:<40} {:>16} {:<8} {kind}", m.value, m.unit);
    }
    for e in outcome.errors.iter().take(20) {
        eprintln!("vidi_perf: FAILED {e}");
    }

    let correct = outcome.failed == 0;
    let counts = [
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
    ];
    let with_counts = |fields: Vec<(&str, Json)>| {
        Json::Obj(
            counts
                .iter()
                .cloned()
                .chain(fields)
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    if let Some(path) = flag(&flags, "out") {
        let doc = with_counts(vec![
            ("schema", Json::Str("vidi-perf/1".into())),
            ("workload", Json::Str(workload.name().into())),
            ("seed", Json::Num(seed as f64)),
            ("traced", Json::Bool(traced)),
            ("rounds", Json::Num(outcome.rounds as f64)),
            ("metrics", metrics::full_json(&outcome.metrics)),
        ]);
        std::fs::write(path, doc.pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = spans_path {
        std::fs::write(path, tracer.to_json().pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    let line = with_counts(vec![("metrics", metrics::result_json(&outcome.metrics))]);
    println!("{}", one_line(&line));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The JSON writer's output folded onto one line.
fn one_line(doc: &Json) -> String {
    doc.pretty().lines().map(str::trim).collect()
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args)?;
    let [a_path, b_path] = positional.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let bench = read_json(flag(&flags, "bench").unwrap_or("BENCHMARK.json"))?;
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let workload = |d: &Json| d.get("workload").and_then(Json::as_str).map(str::to_string);
    if workload(&a) != workload(&b) {
        return Err(format!(
            "{a_path} and {b_path} measure different workloads ({:?} vs {:?})",
            workload(&a),
            workload(&b)
        ));
    }
    let rules = compare::rules(&bench)?;
    let verdicts = compare::compare(&rules, &compare::readings(&a)?, &compare::readings(&b)?);
    let mut failed = 0;
    for (name, verdict) in &verdicts {
        failed += usize::from(verdict.fails());
        println!("  {name:<40} {verdict:?}");
    }
    println!(
        "compare {a_path} -> {b_path}: {} metrics, {failed} failed",
        verdicts.len()
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use vidi_apps::Scale;
    use vidi_bench::json::obj;

    fn small(workload: Workload, traced: bool) -> Settings {
        Settings {
            workload,
            plan: workloads::Plan {
                scale: Scale::Test,
                size: 2,
            },
            seed: 11,
            seconds: 0.0,
            min_rounds: if traced { 2 } else { 1 },
            traced,
        }
    }

    /// Every workload at test scale: runs clean, and a repeat with the same
    /// seed reproduces every deterministic metric exactly.
    #[test]
    fn every_workload_repeats_its_deterministic_metrics() {
        for workload in Workload::ALL {
            let runs: Vec<_> = (0..2)
                .map(|_| run(&small(workload, false), &mut Tracer::new(false)))
                .collect();
            for o in &runs {
                assert_eq!(o.failed, 0, "{}: {:?}", workload.name(), o.errors);
                assert!(o.attempted > 0);
            }
            for (name, m) in &runs[0].metrics {
                if m.exact {
                    assert_eq!(m.value, runs[1].metrics[name].value, "{name}");
                    assert!(m.value > 0.0, "{}: {name} is zero", workload.name());
                }
            }
        }
    }

    /// A traced run reports the whole per-layer catalogue, keeps spans, and
    /// its self times cover the timed phase.
    #[test]
    fn traced_runs_report_every_layer() {
        for workload in Workload::ALL {
            let mut tracer = Tracer::new(false);
            let o = run(&small(workload, true), &mut tracer);
            assert_eq!(o.failed, 0, "{}: {:?}", workload.name(), o.errors);
            assert_eq!(o.metrics.len(), PER_LAYER.len());
            assert!(o.metrics["self_s.core.drive"].value > 0.0 || workload == Workload::Fleet);
            assert!(!tracer.timed_self_seconds().is_empty());
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let doc = obj([
            ("correct", Json::Bool(true)),
            ("metrics", obj([("a b", Json::Num(1.25))])),
        ]);
        let line = one_line(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line), Ok(doc));
    }
}
