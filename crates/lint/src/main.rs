//! The `vidi-lint` command-line front end.
//!
//! ```text
//! vidi-lint rules                           # print the rule catalog
//! vidi-lint design [NAME…] [options]        # static-lint assembled designs
//! vidi-lint trace FILE [--reference REF]    # analyze a saved trace
//! vidi-lint ci [options]                    # the full CI gate
//!
//! options: --config FILE   allow/deny config (allow needs a justification)
//!          --json          machine-readable output
//! ```
//!
//! Exit codes: `0` clean, `1` diagnostics found (or a CI check failed),
//! `2` usage or I/O error, `3` torn or truncated trace detected during
//! `trace` analysis (distinct so fleet health checks can script against
//! it; takes precedence over `1` when both apply).

use std::process::ExitCode;

use vidi_apps::{lint_targets, run_echo_atop};
use vidi_chan::AtopFilterMode;
use vidi_core::VidiConfig;
use vidi_hwsim::{Component, SignalPool, Simulator};
use vidi_lint::{
    analyze_pair, analyze_trace, analyze_trace_source, diagnostics_to_json, lint_design,
    lint_target, snapshot_signals, Certificate, DesignSpec, Diagnostic, EdgeOrigin, LintConfig,
    RULES,
};
use vidi_trace::{reorder_end_before, EndEventRef, Trace, TraceSource, DEFAULT_CHUNK_WORDS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("vidi-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Flags shared by every subcommand.
struct Options {
    config: LintConfig,
    json: bool,
    /// Non-flag positional arguments, in order.
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut config = LintConfig::default();
    let mut json = false;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => {
                let path = it.next().ok_or("--config needs a file argument")?;
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                config = LintConfig::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            }
            "--json" => json = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => positional.push(a.clone()),
        }
    }
    Ok(Options {
        config,
        json,
        positional,
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("usage: vidi-lint <rules|design|trace|ci> [args]".into());
    };
    match cmd.as_str() {
        "rules" => {
            for r in RULES {
                println!("{}  {:<7}  {}", r.id, r.severity, r.summary);
            }
            Ok(ExitCode::SUCCESS)
        }
        "design" => cmd_design(&parse_options(rest)?),
        "trace" => cmd_trace(&parse_options(rest)?),
        "ci" => cmd_ci(&parse_options(rest)?),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

/// Splits diagnostics into (reported, allowed-count) under a config and
/// prints the reported ones.
fn report(diags: Vec<Diagnostic>, opts: &Options) -> (usize, usize) {
    let (active, allowed): (Vec<_>, Vec<_>) = diags
        .into_iter()
        .partition(|d| !opts.config.is_allowed(d.rule, &d.location));
    if opts.json {
        print!("{}", diagnostics_to_json(&active));
    } else {
        for d in &active {
            println!("{d}");
        }
    }
    (active.len(), allowed.len())
}

fn cmd_design(opts: &Options) -> Result<ExitCode, String> {
    let mut diags = Vec::new();
    let mut scanned = 0usize;
    for mut target in lint_targets() {
        if !opts.positional.is_empty() && !opts.positional.contains(&target.name) {
            continue;
        }
        scanned += 1;
        diags.extend(lint_target(&mut target));
    }
    if scanned == 0 {
        return Err(format!(
            "no design matched {:?}; run with no names to lint all",
            opts.positional
        ));
    }
    let (active, allowed) = report(diags, opts);
    if !opts.json {
        println!("vidi-lint: {scanned} design(s), {active} diagnostic(s), {allowed} allowed");
    }
    Ok(if active == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_trace(opts: &Options) -> Result<ExitCode, String> {
    let (file, reference) = match opts.positional.as_slice() {
        [f] => (f, None),
        [f, r] => (f, Some(r)),
        _ => return Err("usage: vidi-lint trace FILE [REFERENCE] [options]".into()),
    };
    let load = |p: &String| -> Result<Trace, String> {
        vidi_host::load_trace(p).map_err(|e| format!("loading {p}: {e}"))
    };
    let name = std::path::Path::new(file)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("trace")
        .to_string();
    // Single-trace rules stream off the file chunk-by-chunk — a trace much
    // larger than memory analyzes fine, and a torn tail degrades to the
    // certified prefix rather than a hard error.
    let chunks = vidi_host::file_chunk_source(file).map_err(|e| format!("opening {file}: {e}"))?;
    let mut source = TraceSource::open(chunks, DEFAULT_CHUNK_WORDS)
        .map_err(|e| format!("reading {file}: {e}"))?;
    let torn = !source.is_complete();
    if torn {
        eprintln!(
            "vidi-lint: {file}: torn or truncated trace — analyzing the \
             certified prefix ({} of {} declared packets)",
            source.certified_packets(),
            source.declared_packets()
        );
    }
    let mut diags =
        analyze_trace_source(&name, &mut source).map_err(|e| format!("decoding {file}: {e}"))?;
    if let Some(r) = reference {
        // The pair analysis relates *whole* traces, so both sides load
        // strictly here.
        let trace = load(file)?;
        let reference = load(r)?;
        diags.extend(analyze_pair(&name, &reference, &trace));
    }
    let (active, allowed) = report(diags, opts);
    if !opts.json {
        println!("vidi-lint: {active} diagnostic(s), {allowed} allowed");
    }
    // A torn trace outranks ordinary diagnostics: the prefix analysis above
    // is best-effort, and a health check watching for exit code 3 must not
    // see it masked by (or conflated with) a rule failure.
    Ok(if torn {
        ExitCode::from(3)
    } else if active == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// ── CI gate ──────────────────────────────────────────────────────────────

/// A one-input combinational gate (buffer or inverter).
struct Gate {
    name: String,
    input: vidi_hwsim::SignalId,
    output: vidi_hwsim::SignalId,
    invert: bool,
}

impl Component for Gate {
    fn name(&self) -> &str {
        &self.name
    }
    fn eval(&mut self, pool: &mut SignalPool) {
        let v = pool.get_bool(self.input);
        pool.set_bool(self.output, v != self.invert);
    }
    fn tick(&mut self, _pool: &mut SignalPool) {}
}

/// Builds the seeded broken design: an inverter feeding a buffer feeding the
/// inverter. The loop has odd inversion parity — a ring oscillator — so no
/// fixed point exists and the runtime eval bound must trip. (Two inverters
/// would be bistable and settle.)
fn broken_ring() -> (Simulator, DesignSpec) {
    let mut sim = Simulator::new();
    let a = sim.pool_mut().add("ring.a", 1);
    let b = sim.pool_mut().add("ring.b", 1);
    sim.add_component(Gate {
        name: "inv0".into(),
        input: a,
        output: b,
        invert: true,
    });
    sim.add_component(Gate {
        name: "buf1".into(),
        input: b,
        output: a,
        invert: false,
    });
    let components = sim.access_scan();
    let spec = DesignSpec {
        name: "broken_ring".into(),
        signals: snapshot_signals(sim.pool()),
        components,
        boundary: Vec::new(),
        monitored: Vec::new(),
        external: Vec::new(),
    };
    (sim, spec)
}

fn cmd_ci(opts: &Options) -> Result<ExitCode, String> {
    let mut failed = false;

    // ── 1. The full design catalog must lint clean (modulo allows) ──────
    println!("[1/4] design lint over the application catalog...");
    let mut total_active = 0usize;
    let mut total_allowed = 0usize;
    let mut scanned = 0usize;
    for mut target in lint_targets() {
        scanned += 1;
        let name = target.name.clone();
        let diags = lint_target(&mut target);
        for d in diags {
            if opts.config.is_allowed(d.rule, &d.location) {
                total_allowed += 1;
            } else {
                total_active += 1;
                println!("{d}");
            }
        }
        let _ = name;
    }
    println!(
        "      {scanned} designs scanned, {total_active} diagnostics, \
         {total_allowed} allowed"
    );
    if total_active > 0 {
        failed = true;
    }

    // ── 2. The seeded broken design must be rejected statically ─────────
    println!("[2/4] seeded combinational loop must be caught statically...");
    let (mut sim, spec) = broken_ring();
    let diags = lint_design(&spec);
    let loop_ok = diags.iter().any(|d| {
        d.rule == "VL001"
            && matches!(
                &d.certificate,
                Certificate::SignalCycle(steps)
                    if steps.iter().map(|s| s.signal.as_str()).collect::<Vec<_>>()
                        == ["ring.a", "ring.b"]
            )
    });
    // The same design must also trip the runtime bound, proving the static
    // verdict agrees with the dynamic one.
    let runtime_trips = matches!(
        sim.run_cycle(),
        Err(vidi_hwsim::SimError::CombinationalLoop { .. })
    );
    if loop_ok && runtime_trips {
        println!("      caught: ring.a -> ring.b -> ring.a (runtime bound agrees)");
    } else {
        println!(
            "      FAILED: static={loop_ok} runtime={runtime_trips} \
             diagnostics={diags:?}"
        );
        failed = true;
    }

    // ── 3. The §5.3 deadlock must be derivable from the trace alone ─────
    println!("[3/4] deriving the axi_atop_filter deadlock from the trace...");
    let recorded = run_echo_atop(AtopFilterMode::Buggy, VidiConfig::record(), 8, 9)
        .map_err(|e| format!("recording echo_atop: {e}"))?;
    let trace = recorded.trace.ok_or("recording produced no trace")?;
    let layout = trace.layout();
    let aw = layout.index_of("pcim.aw").ok_or("no pcim.aw channel")?;
    let w = layout.index_of("pcim.w").ok_or("no pcim.w channel")?;
    let mutated = reorder_end_before(
        &trace,
        EndEventRef {
            channel: w,
            index: 0,
        },
        EndEventRef {
            channel: aw,
            index: 0,
        },
    )
    .map_err(|e| format!("mutating trace: {e:?}"))?;
    let diags = analyze_pair("echo_atop", &trace, &mutated);
    let deadlock_ok = diags.iter().any(|d| {
        d.rule == "VT001"
            && matches!(
                &d.certificate,
                Certificate::HbCycle(steps)
                    if steps.iter().any(|s| {
                        s.channel == "pcim.aw"
                            && s.end_index == 0
                            && s.edge == EdgeOrigin::Recorded
                    }) && steps.iter().any(|s| {
                        s.channel == "pcim.w"
                            && s.end_index == 0
                            && s.edge == EdgeOrigin::Replay
                    })
            )
    });
    if deadlock_ok {
        for d in &diags {
            println!("{d}");
        }
        println!("      derived the §5.3 W-before-AW deadlock without replaying");
    } else {
        println!("      FAILED: diagnostics={diags:?}");
        failed = true;
    }

    // ── 4. The recorded trace itself must be internally consistent ──────
    println!("[4/4] trace integrity of the recording...");
    let mut active = 0usize;
    let mut allowed = 0usize;
    for d in analyze_trace("echo_atop", &trace) {
        if opts.config.is_allowed(d.rule, &d.location) {
            allowed += 1;
        } else {
            active += 1;
            println!("{d}");
        }
    }
    println!("      {active} diagnostics, {allowed} allowed");
    if active > 0 {
        failed = true;
    }

    if failed {
        println!("vidi-lint ci: FAILED");
        Ok(ExitCode::FAILURE)
    } else {
        println!("vidi-lint ci: OK");
        Ok(ExitCode::SUCCESS)
    }
}
