//! The offline trace analysis tools of §4.2, as one CLI:
//!
//! ```text
//! trace_tool dump <trace>                       # inspect a trace file
//! trace_tool validate <reference> <validation>  # divergence detection (§3.6)
//! trace_tool mutate <trace> <moved-ch> <moved-idx> <before-ch> <before-idx> <out>
//!                                               # reorder end events (§5.3)
//! trace_tool convert <in> <out> --codec <name>  # transcode a chunk stream
//! trace_tool sample <out> [--app LABEL | --case echo-atop] [--seed N] ...
//!                                               # record an app to a trace file
//! trace_tool debug <trace> [target flags] [--script FILE]
//!                                               # time-travel replay debugger
//! trace_tool help [subcommand]                  # this text
//! ```
//!
//! `convert` transcodes a framed chunk stream between the block codecs
//! (`raw`, `xor-dict`) packet by packet. Only the
//! certified prefix is transcoded — a torn input yields a clean, fully
//! certified output of exactly the packets the input's CRC trailers vouch
//! for — and the streaming-sentinel header declaration is preserved, so a
//! converted stream is indistinguishable from one recorded under the
//! target codec. Channel arguments accept names (`pcim.w`) or layout
//! indices.
//!
//! `debug` opens a recorded trace in the time-travel debugger
//! ([`vidi_bench::debug`]): it rebuilds the deterministic session the
//! trace was recorded from (`--app`/`--seed` for catalog applications,
//! `--case echo-atop --filter buggy|fixed --pings N` for the §5.3 case
//! study), indexes the replay with checkpoints, and then answers `step`,
//! `rstep`, `seek`, `watch`, `txns` and `bisect` commands — from a
//! `--script` file non-interactively, or line by line from stdin.
//!
//! Exit codes: 0 success, 1 I/O, data or replay failure, 2 usage error.

use std::io::{BufRead, Write};
use std::process::ExitCode;

use vidi_apps::{build_app, run_echo_atop, AppId, BuiltApp, Scale};
use vidi_bench::debug::{run_script, DebugOptions, DebugTarget, Debugger};
use vidi_chan::AtopFilterMode;
use vidi_core::{SessionCursor, Stop, StopReason, VidiConfig};
use vidi_host::{file_chunk_source, load_trace, save_trace, FileChunkSink};
use vidi_trace::{
    compare, reorder_end_before, CodecId, Divergence, EndEventRef, Trace, TraceSink, TraceSource,
    DEFAULT_CHUNK_WORDS,
};

/// A subcommand failure, split so `main` can map usage mistakes to exit
/// code 2 and I/O or data failures to exit code 1.
enum CliError {
    /// The command line itself is wrong; print the subcommand's usage.
    Usage(String),
    /// The command was well-formed but failed (I/O, parse, replay).
    Data(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Data(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Data(msg.to_string())
    }
}

impl From<Box<dyn std::error::Error>> for CliError {
    fn from(e: Box<dyn std::error::Error>) -> Self {
        CliError::Data(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Data(e.to_string())
    }
}

type CliResult = Result<ExitCode, CliError>;

const SUBCOMMANDS: &[(&str, &str, &str)] = &[
    (
        "dump",
        "trace_tool dump <trace>",
        "Print a trace's channel table, statistics and first events.",
    ),
    (
        "validate",
        "trace_tool validate <reference> <validation>",
        "Compare two traces transaction by transaction (§3.6); exit 1 on divergence.",
    ),
    (
        "mutate",
        "trace_tool mutate <trace> <moved-ch> <moved-idx> <before-ch> <before-idx> <out>",
        "Reorder one end event before another, preserving well-formedness (§5.3).",
    ),
    (
        "convert",
        "trace_tool convert <in> <out> --codec raw|xor-dict [--chunk-words N]",
        "Transcode a framed chunk stream's certified prefix to another block codec.",
    ),
    (
        "sample",
        "trace_tool sample <out> [--app LABEL | --case echo-atop] [--filter buggy|fixed] \
         [--pings N] [--seed N] [--codec raw|xor-dict] [--chunk-words N]",
        "Record a catalog app (or the §5.3 echo-atop case study) to a trace file.",
    ),
    (
        "debug",
        "trace_tool debug <trace> [--app LABEL | --case echo-atop] [--filter buggy|fixed] \
         [--pings N] [--seed N] [--every N] [--max-cycles N] [--final-budget N] [--script FILE]",
        "Open the time-travel debugger: step/rstep/seek/watch/txns/bisect over a trace.",
    ),
    (
        "help",
        "trace_tool help [subcommand]",
        "Show usage, for every subcommand or one.",
    ),
];

fn usage_of(cmd: &str) -> Option<&'static (&'static str, &'static str, &'static str)> {
    SUBCOMMANDS.iter().find(|(name, _, _)| *name == cmd)
}

fn print_full_usage(out: &mut dyn Write) {
    let _ = writeln!(out, "trace_tool — offline Vidi trace tooling (§4.2)\n");
    let _ = writeln!(out, "usage:");
    for (_, usage, blurb) in SUBCOMMANDS {
        let _ = writeln!(out, "  {usage}");
        let _ = writeln!(out, "      {blurb}");
    }
    let _ = writeln!(
        out,
        "\nexit codes: 0 success, 1 I/O or data error, 2 usage error"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match args.first().map(String::as_str) {
        None => {
            print_full_usage(&mut std::io::stderr());
            return ExitCode::from(2);
        }
        Some("help") | Some("--help") | Some("-h") => {
            match args.get(1).and_then(|c| usage_of(c)) {
                Some((_, usage, blurb)) => println!("usage: {usage}\n  {blurb}"),
                None => print_full_usage(&mut std::io::stdout()),
            }
            return ExitCode::SUCCESS;
        }
        Some(cmd) => cmd.to_string(),
    };
    // `trace_tool <sub> --help` works too.
    if args[1..].iter().any(|a| a == "--help" || a == "-h") {
        return match usage_of(&cmd) {
            Some((_, usage, blurb)) => {
                println!("usage: {usage}\n  {blurb}");
                ExitCode::SUCCESS
            }
            None => {
                print_full_usage(&mut std::io::stderr());
                ExitCode::from(2)
            }
        };
    }
    let result = match (cmd.as_str(), args.len()) {
        ("dump", 2) => dump(&args[1]),
        ("validate", 3) => validate(&args[1], &args[2]),
        ("mutate", 7) => mutate(&args[1..]),
        ("convert", n) if n >= 3 => convert(&args[1..]),
        ("sample", n) if n >= 2 => sample(&args[1..]),
        ("debug", n) if n >= 2 => debug_cmd(&args[1..]),
        _ => Err(CliError::Usage(match usage_of(&cmd) {
            Some((_, usage, _)) => format!("usage: {usage}"),
            None => format!("unknown subcommand {cmd:?} (try `trace_tool help`)"),
        })),
    };
    match result {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}");
            if usage_of(&cmd).is_none() {
                print_full_usage(&mut std::io::stderr());
            }
            ExitCode::from(2)
        }
        Err(CliError::Data(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn channel_index(trace: &Trace, arg: &str) -> Result<usize, CliError> {
    if let Some(i) = trace.layout().index_of(arg) {
        return Ok(i);
    }
    arg.parse::<usize>()
        .ok()
        .filter(|&i| i < trace.layout().len())
        .ok_or_else(|| CliError::Data(format!("unknown channel '{arg}'")))
}

fn dump(path: &str) -> CliResult {
    let trace = load_trace(path).map_err(|e| CliError::Data(e.to_string()))?;
    println!("trace: {path}");
    println!(
        "  {} channels; output contents recorded: {}",
        trace.layout().len(),
        trace.records_output_content()
    );
    print!("  {}", trace.stats());
    println!(
        "\n  {:<4} {:<16} {:>6} {:>6} {:>13}",
        "idx", "channel", "width", "dir", "transactions"
    );
    for (i, ch) in trace.layout().channels().iter().enumerate() {
        println!(
            "  {:<4} {:<16} {:>6} {:>6} {:>13}",
            i,
            ch.name,
            ch.width,
            ch.direction.to_string(),
            trace.channel_transaction_count(i)
        );
    }
    // First few events as a timeline.
    println!("\n  first events:");
    let mut shown = 0;
    for (pi, p) in trace.packets().iter().enumerate() {
        let mut events = Vec::new();
        let mut in_pos = 0;
        for (ci, ch) in trace.layout().channels().iter().enumerate() {
            if ch.direction == vidi_chan::Direction::Input {
                if p.starts[in_pos] {
                    events.push(format!("{}↑", ch.name));
                }
                in_pos += 1;
            }
            if p.ends[ci] {
                events.push(format!("{}✓", ch.name));
            }
        }
        if !events.is_empty() {
            println!("    packet {pi:>5}: {}", events.join("  "));
            shown += 1;
            if shown >= 12 {
                println!("    ... ({} more packets)", trace.packets().len() - pi - 1);
                break;
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn validate(ref_path: &str, val_path: &str) -> CliResult {
    let reference = load_trace(ref_path).map_err(|e| CliError::Data(e.to_string()))?;
    let validation = load_trace(val_path).map_err(|e| CliError::Data(e.to_string()))?;
    let report = compare(&reference, &validation);
    println!(
        "compared {} transactions: {} divergences",
        report.transactions_checked,
        report.divergences.len()
    );
    for d in report.divergences.iter().take(20) {
        match d {
            Divergence::ContentMismatch { context, .. } => {
                println!("  {d}");
                for (i, c) in context.iter().enumerate() {
                    println!("    context[-{}]: {c:x}", context.len() - i);
                }
            }
            other => println!("  {other}"),
        }
    }
    if report.divergences.len() > 20 {
        println!("  ... and {} more", report.divergences.len() - 20);
    }
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The §5.3 case-study target, shared by `sample --case` and `debug`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CaseId {
    EchoAtop,
}

/// Parses trailing `--flag value` pairs shared by `convert`, `sample` and
/// `debug`.
struct StreamOpts {
    codec: Option<CodecId>,
    chunk_words: usize,
    app: AppId,
    seed: u64,
    case: Option<CaseId>,
    filter: AtopFilterMode,
    pings: u32,
    every: u64,
    max_cycles: u64,
    final_budget: u64,
    script: Option<String>,
}

fn stream_opts(args: &[String]) -> Result<StreamOpts, CliError> {
    let mut opts = StreamOpts {
        codec: None,
        chunk_words: DEFAULT_CHUNK_WORDS,
        app: AppId::Sha,
        seed: 42,
        case: None,
        filter: AtopFilterMode::Buggy,
        pings: 32,
        every: 256,
        max_cycles: 200_000,
        final_budget: 50_000,
        script: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?
            .as_str();
        let usage = |msg: String| CliError::Usage(msg);
        match flag.as_str() {
            "--codec" => {
                opts.codec = Some(CodecId::from_name(val).ok_or_else(|| {
                    usage(format!(
                        "unknown codec '{val}' (expected one of {})",
                        CodecId::ALL.map(CodecId::name).join(", ")
                    ))
                })?);
            }
            "--chunk-words" => {
                opts.chunk_words = val
                    .parse()
                    .map_err(|_| usage("--chunk-words takes an integer".into()))?;
            }
            "--app" => {
                opts.app = AppId::ALL
                    .into_iter()
                    .find(|a| a.label().eq_ignore_ascii_case(val))
                    .ok_or_else(|| {
                        usage(format!(
                            "unknown app '{val}' (expected one of {})",
                            AppId::ALL.map(AppId::label).join(", ")
                        ))
                    })?;
            }
            "--seed" => {
                opts.seed = val
                    .parse()
                    .map_err(|_| usage("--seed takes an integer".into()))?;
            }
            "--case" => {
                opts.case = Some(match val {
                    "echo-atop" => CaseId::EchoAtop,
                    other => {
                        return Err(usage(format!(
                            "unknown case '{other}' (expected echo-atop)"
                        )))
                    }
                });
            }
            "--filter" => {
                opts.filter = match val {
                    "buggy" => AtopFilterMode::Buggy,
                    "fixed" => AtopFilterMode::Fixed,
                    other => {
                        return Err(usage(format!(
                            "unknown filter '{other}' (expected buggy or fixed)"
                        )))
                    }
                };
            }
            "--pings" => {
                opts.pings = val
                    .parse()
                    .map_err(|_| usage("--pings takes an integer".into()))?;
            }
            "--every" => {
                opts.every = val
                    .parse()
                    .map_err(|_| usage("--every takes an integer".into()))?;
            }
            "--max-cycles" => {
                opts.max_cycles = val
                    .parse()
                    .map_err(|_| usage("--max-cycles takes an integer".into()))?;
            }
            "--final-budget" => {
                opts.final_budget = val
                    .parse()
                    .map_err(|_| usage("--final-budget takes an integer".into()))?;
            }
            "--script" => {
                opts.script = Some(val.to_string());
            }
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    Ok(opts)
}

impl StreamOpts {
    /// The debugger target this command line names.
    fn debug_target(&self) -> DebugTarget {
        match self.case {
            Some(CaseId::EchoAtop) => DebugTarget::EchoAtop {
                filter: self.filter,
                pings: self.pings,
                seed: self.seed,
            },
            None => DebugTarget::Catalog {
                app: self.app,
                scale: Scale::Test,
                seed: self.seed,
            },
        }
    }
}

fn convert(args: &[String]) -> CliResult {
    let opts = stream_opts(&args[2..])?;
    let codec = opts
        .codec
        .ok_or_else(|| CliError::Usage("convert requires --codec <name>".into()))?;
    let shared = file_chunk_source(&args[0]).map_err(|e| CliError::Data(e.to_string()))?;
    let mut src =
        TraceSource::open(shared, opts.chunk_words).map_err(|e| CliError::Data(e.to_string()))?;
    let certified = src.certified_packets();
    if !src.is_complete() {
        eprintln!(
            "warning: input is torn (certified {certified} of {} declared packets); \
             transcoding the certified prefix",
            src.declared_packets()
        );
    }
    // Preserve the header declaration: a streaming recording stays
    // sentinel-declared (readers trust the word trailers), a finalized
    // whole-trace image declares its exact packet count.
    let layout = src.layout().clone();
    let sink = FileChunkSink::create(&args[1]).map_err(|e| CliError::Data(e.to_string()))?;
    let mut sink = if src.declared_streaming() {
        TraceSink::with_codec(
            sink,
            &layout,
            src.records_output_content(),
            opts.chunk_words,
            codec,
        )
    } else {
        TraceSink::with_codec_declared(
            sink,
            &layout,
            src.records_output_content(),
            certified,
            opts.chunk_words,
            codec,
        )
    };
    let mut packets = 0u64;
    while let Some(p) = src
        .next_packet()
        .map_err(|e| CliError::Data(e.to_string()))?
    {
        sink.push(&p).map_err(|e| CliError::Data(e.to_string()))?;
        packets += 1;
    }
    sink.finalize().map_err(|e| CliError::Data(e.to_string()))?;
    let wire_bytes = sink.bytes_written();
    let raw_bytes = wire_bytes + sink.take_compression_savings();
    println!(
        "transcoded {packets} packets {} -> {}: {} B on the wire ({} B raw payload, {:.2}x)",
        src.codec().name(),
        codec.name(),
        wire_bytes,
        raw_bytes,
        raw_bytes as f64 / wire_bytes.max(1) as f64,
    );
    Ok(ExitCode::SUCCESS)
}

fn sample(args: &[String]) -> CliResult {
    let opts = stream_opts(&args[1..])?;
    if opts.case == Some(CaseId::EchoAtop) {
        // The §5.3 case study records through `run_echo_atop` and is saved
        // as a whole-trace file (the debugger and `mutate` read both
        // formats).
        let outcome = run_echo_atop(opts.filter, VidiConfig::record(), opts.pings, opts.seed)
            .map_err(|e| CliError::Data(e.to_string()))?;
        let trace = outcome
            .trace
            .ok_or_else(|| CliError::Data("recording produced no trace".into()))?;
        save_trace(&args[0], &trace).map_err(|e| CliError::Data(e.to_string()))?;
        println!(
            "recorded echo-atop ({:?} filter, {} pings, seed {}): {} transactions -> {}",
            opts.filter,
            opts.pings,
            opts.seed,
            trace.transaction_count(),
            args[0]
        );
        return Ok(ExitCode::SUCCESS);
    }
    let codec = opts.codec.unwrap_or(CodecId::Raw);
    let mut built = build_app(
        opts.app.setup(Scale::Test, opts.seed),
        VidiConfig {
            trace_chunk_words: opts.chunk_words,
            ..VidiConfig::record()
        }
        .with_trace_codec(codec),
    );
    let sink = FileChunkSink::create(&args[0])?;
    built
        .shim
        .stream_to(Box::new(sink))
        .map_err(|e| CliError::Data(e.to_string()))?;
    let mut cursor = SessionCursor::new(&mut built);
    let ev = cursor
        .run_until(
            Stop::when(|b: &mut BuiltApp| b.cpu.iter().all(|h| h.borrow().finished))
                .or_at_cycle(2_000_000)
                .check_every(1),
        )
        .map_err(|e| CliError::Data(e.to_string()))?;
    if ev.reason != StopReason::PredicateTrue {
        return Err(CliError::Data(format!(
            "CPU threads still running at cycle {}",
            ev.cycle
        )));
    }
    cursor.flush().map_err(|e| CliError::Data(e.to_string()))?;
    built
        .shim
        .finalize_recording()
        .map_err(|e| CliError::Data(e.to_string()))?;
    println!(
        "recorded {} (seed {}) through {}: {} B -> {}",
        opts.app.label(),
        opts.seed,
        codec.name(),
        built.shim.stats().bytes_written,
        args[0]
    );
    Ok(ExitCode::SUCCESS)
}

fn mutate(args: &[String]) -> CliResult {
    let trace = load_trace(&args[0]).map_err(|e| CliError::Data(e.to_string()))?;
    let moved = EndEventRef {
        channel: channel_index(&trace, &args[1])?,
        index: args[2]
            .parse()
            .map_err(|_| CliError::Usage("<moved-idx> takes an integer".into()))?,
    };
    let before = EndEventRef {
        channel: channel_index(&trace, &args[3])?,
        index: args[4]
            .parse()
            .map_err(|_| CliError::Usage("<before-idx> takes an integer".into()))?,
    };
    let mutated =
        reorder_end_before(&trace, moved, before).map_err(|e| CliError::Data(e.to_string()))?;
    save_trace(&args[5], &mutated).map_err(|e| CliError::Data(e.to_string()))?;
    println!(
        "moved end #{} of {} before end #{} of {}; wrote {}",
        moved.index,
        trace.layout().channels()[moved.channel].name,
        before.index,
        trace.layout().channels()[before.channel].name,
        args[5]
    );
    Ok(ExitCode::SUCCESS)
}

fn debug_cmd(args: &[String]) -> CliResult {
    let opts = stream_opts(&args[1..])?;
    let trace = load_trace(&args[0]).map_err(|e| CliError::Data(e.to_string()))?;
    let options = DebugOptions {
        every: opts.every,
        max_cycles: opts.max_cycles,
        final_budget: opts.final_budget,
    };
    eprintln!(
        "indexing replay (checkpoint every {} cycles)...",
        opts.every
    );
    let mut dbg = Debugger::new(trace, opts.debug_target(), options).map_err(CliError::Data)?;
    eprintln!(
        "indexed: {} checkpoints, final cycle {}, replay {}",
        dbg.log().checkpoints.len(),
        dbg.log().final_cycle,
        if dbg.log().completed {
            "completed"
        } else {
            "DID NOT COMPLETE"
        }
    );
    match opts.script {
        Some(path) => {
            let script =
                std::fs::read_to_string(&path).map_err(|e| CliError::Data(e.to_string()))?;
            match run_script(&mut dbg, &script) {
                Ok(transcript) => {
                    print!("{transcript}");
                    Ok(ExitCode::SUCCESS)
                }
                Err(partial) => {
                    print!("{partial}");
                    println!();
                    Err(CliError::Data("script command failed".into()))
                }
            }
        }
        None => {
            // Interactive: read command lines from stdin until EOF.
            let stdin = std::io::stdin();
            let mut out = std::io::stdout();
            loop {
                let _ = write!(out, "(vidi) ");
                let _ = out.flush();
                let mut line = String::new();
                if stdin.lock().read_line(&mut line)? == 0 {
                    let _ = writeln!(out);
                    return Ok(ExitCode::SUCCESS);
                }
                let line = line.trim();
                if line == "quit" || line == "exit" {
                    return Ok(ExitCode::SUCCESS);
                }
                match dbg.exec(line) {
                    Ok(text) => print!("{text}"),
                    Err(e) => println!("error: {e}"),
                }
            }
        }
    }
}
