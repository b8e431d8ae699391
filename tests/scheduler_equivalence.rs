//! Scheduler equivalence suite: the levelized compiled scheduler (the
//! default) must be observationally indistinguishable from the full
//! broadcast scheduler, the reference oracle.
//!
//! Three layers of evidence, strongest first:
//!
//! 1. **Catalog traces** — every catalog application records a
//!    byte-for-byte identical trace (and cycle count) under both modes,
//!    and replays its recording to `ReplayComplete` on the same cycle.
//! 2. **Case-study lockstep** — the buggy and fixed variants of both case
//!    studies run cycle-by-cycle in lockstep with *every pool signal*
//!    compared after each cycle, which is strictly stronger than trace
//!    equality (it also covers unmonitored internal signals). Their
//!    replays run the same lockstep and also compare `state_digest`, and
//!    one replay compares whole snapshots, so every replay-path register
//!    (decoder credit, replayer queues, vector clocks) must agree at every
//!    cycle boundary even where the compiled scheduler elided the
//!    engine's clock edge.
//! 3. **Random DAGs** — a proptest builds random combinational/registered
//!    component graphs (including data-dependent read sets, the case a
//!    static schedule gets wrong) under random stimulus and checks the
//!    two schedulers never diverge on any signal; a deterministic
//!    companion pins an adversarial DAG that forces the compiled
//!    scheduler through its deopt-and-recompile path, asserted via
//!    [`SimStats::deopts`](vidi_repro::hwsim::SimStats).

use proptest::collection::vec;
use proptest::prelude::*;
use vidi_repro::apps::{
    build_app, build_echo_atop, build_echo_fifo, run_app, AppId, EchoFifoConfig, Scale,
};
use vidi_repro::chan::{AtopFilterMode, Channel, Direction, FrameFifoMode};
use vidi_repro::core::{VidiConfig, VidiShim};
use vidi_repro::hwsim::{Bits, Component, EvalMode, SignalId, SignalPool, Simulator};
use vidi_repro::trace::{ChannelInfo, ChannelPacket, CyclePacket, Trace, TraceLayout};

/// Generous per-run budget; every catalog app finishes at `Scale::Test`
/// within ~26k cycles.
const BUDGET: u64 = 2_000_000;

/// Every scheduler backend, reference mode first.
const MODES: [EvalMode; 2] = [EvalMode::Full, EvalMode::Compiled];

// ─────────────────── 1. Catalog: bit-identical traces ──────────────────────

#[test]
fn catalog_traces_identical_across_schedulers() {
    for &app in AppId::ALL.iter() {
        let mut outcomes = Vec::new();
        for mode in MODES {
            let mut built = build_app(app.setup(Scale::Test, 42), VidiConfig::record());
            built.sim.set_eval_mode(mode);
            let outcome = run_app(built, BUDGET)
                .unwrap_or_else(|e| panic!("{} under {mode:?}: {e}", app.label()));
            assert!(
                outcome.output_ok.is_ok(),
                "{} under {mode:?}: wrong output: {:?}",
                app.label(),
                outcome.output_ok
            );
            outcomes.push(outcome);
        }
        let full = &outcomes[0];
        let t_full = full.trace.as_ref().expect("recording produces a trace");
        for (outcome, mode) in outcomes.iter().zip(MODES).skip(1) {
            assert_eq!(
                full.cycles,
                outcome.cycles,
                "{}: cycle counts diverge between Full and {mode:?}",
                app.label()
            );
            let t = outcome.trace.as_ref().expect("recording produces a trace");
            assert_eq!(
                t_full.encode(),
                t.encode(),
                "{}: recorded traces diverge between Full and {mode:?}",
                app.label()
            );
        }
        // Equivalence must come from real work-skipping, not from the
        // compiled backend silently degenerating to broadcast.
        let compiled = &outcomes[1];
        assert!(
            compiled.sim_stats.skipped_evals > 0,
            "{}: compiled scheduler never skipped an eval",
            app.label()
        );
        assert!(
            compiled.sim_stats.tick_skips > 0,
            "{}: compiled scheduler never skipped a quiescent tick",
            app.label()
        );
        assert!(
            compiled.sim_stats.recompiles >= 1,
            "{}: compiled scheduler never built a schedule",
            app.label()
        );
    }
}

#[test]
fn catalog_replays_complete_on_the_same_cycle_across_schedulers() {
    for &app in AppId::ALL.iter() {
        let recorded = run_app(
            build_app(app.setup(Scale::Test, 42), VidiConfig::record()),
            BUDGET,
        )
        .unwrap_or_else(|e| panic!("{}: recording: {e}", app.label()));
        let trace = recorded.trace.expect("recording produces a trace");
        let replays: Vec<_> = MODES
            .iter()
            .map(|&mode| {
                let mut built = build_app(
                    app.setup(Scale::Test, 42),
                    VidiConfig::replay(trace.clone()),
                );
                built.sim.set_eval_mode(mode);
                run_app(built, BUDGET)
                    .unwrap_or_else(|e| panic!("{} replay under {mode:?}: {e}", app.label()))
            })
            .collect();
        let (full, compiled) = (&replays[0], &replays[1]);
        assert_eq!(
            full.cycles,
            compiled.cycles,
            "{}: replay completes on different cycles under Full and Compiled",
            app.label()
        );
        // The replay engine's eval must not run every cycle: equivalence
        // has to come from real skipping on the replay path too.
        assert!(
            compiled.sim_stats.evals_per_cycle() < 0.5,
            "{}: compiled replay evaluates {:.3} components per cycle",
            app.label(),
            compiled.sim_stats.evals_per_cycle()
        );
    }
}

// ─────────────────── 2. Case studies: per-signal lockstep ──────────────────

/// What [`assert_lockstep`] compares after each cycle besides every pool
/// signal.
#[derive(Clone, Copy, PartialEq)]
enum StateCheck {
    /// Signals only.
    Signals,
    /// Plus [`Simulator::state_digest`].
    Digest,
    /// Plus the whole snapshot but its scheduler statistics.
    Snapshot,
}

/// A snapshot without its scheduler statistics — the eight `u64` counters
/// after the `u16` version and `u64` cycle — which count work done and so
/// differ across modes by design.
fn snapshot_state(sim: &Simulator) -> Vec<u8> {
    let mut bytes = sim.snapshot();
    bytes.drain(2 + 8..2 + 8 + 8 * 8);
    bytes
}

/// Runs the same design under each `(mode, simulator)` pair in lockstep for
/// `cycles` cycles, comparing every pool signal of every simulator against
/// the first after each cycle. `force` is called on every pool before each
/// cycle to apply identical external stimulus. Returns the simulators for
/// post-hoc stats inspection.
fn assert_lockstep(
    name: &str,
    mut sims: Vec<(EvalMode, Simulator)>,
    cycles: u64,
    check: StateCheck,
    mut force: impl FnMut(u64, &mut SignalPool),
) -> Vec<(EvalMode, Simulator)> {
    for (mode, sim) in sims.iter_mut() {
        sim.set_eval_mode(*mode);
    }
    let ids: Vec<SignalId> = sims[0].1.pool().ids().collect();
    for c in 0..cycles {
        let mut results = Vec::new();
        for (_, sim) in sims.iter_mut() {
            force(c, sim.pool_mut());
            results.push(sim.run_cycle());
        }
        match &results[0] {
            Ok(()) => {
                for ((mode, _), r) in sims.iter().zip(&results).skip(1) {
                    assert!(
                        r.is_ok(),
                        "{name}: cycle {c}: {mode:?} failed where Full succeeded: {r:?}"
                    );
                }
            }
            Err(e0) => {
                for ((mode, _), r) in sims.iter().zip(&results).skip(1) {
                    match r {
                        Err(e) => assert_eq!(
                            e0.to_string(),
                            e.to_string(),
                            "{name}: cycle {c}: {mode:?} fails differently from Full"
                        ),
                        Ok(()) => {
                            panic!("{name}: cycle {c}: {mode:?} succeeded where Full failed: {e0}")
                        }
                    }
                }
                return sims;
            }
        }
        for &id in &ids {
            let reference = sims[0].1.pool().get(id);
            for (mode, sim) in sims.iter().skip(1) {
                assert_eq!(
                    reference,
                    sim.pool().get(id),
                    "{name}: cycle {c}: signal {:?} diverges between Full and {mode:?}",
                    sims[0].1.pool().name(id)
                );
            }
        }
        if check == StateCheck::Signals {
            continue;
        }
        let reference = &sims[0].1;
        for (mode, sim) in sims.iter().skip(1) {
            assert_eq!(
                reference.state_digest(),
                sim.state_digest(),
                "{name}: cycle {c}: state digest diverges between Full and {mode:?}"
            );
            if check == StateCheck::Snapshot {
                assert!(
                    snapshot_state(reference) == snapshot_state(sim),
                    "{name}: cycle {c}: snapshot bytes diverge between Full and {mode:?}"
                );
            }
        }
    }
    sims
}

/// Builds one simulator per scheduler mode from a deterministic builder.
fn all_mode_sims(mut build: impl FnMut() -> Simulator) -> Vec<(EvalMode, Simulator)> {
    MODES.iter().map(|&m| (m, build())).collect()
}

#[test]
fn case_studies_lockstep_identical() {
    for (variant, fifo_mode, respect_strobes) in [
        ("echo_fifo.buggy", FrameFifoMode::Buggy, false),
        ("echo_fifo.fixed", FrameFifoMode::Fixed, true),
    ] {
        let sims = all_mode_sims(|| {
            build_echo_fifo(&EchoFifoConfig {
                fifo_mode,
                respect_strobes,
                vidi: VidiConfig::record(),
                ..EchoFifoConfig::default()
            })
            .sim
        });
        assert_lockstep(variant, sims, 2_500, StateCheck::Signals, |_, _| {});
    }
    for (variant, mode) in [
        ("echo_atop.buggy", AtopFilterMode::Buggy),
        ("echo_atop.fixed", AtopFilterMode::Fixed),
    ] {
        let sims = all_mode_sims(|| build_echo_atop(mode, VidiConfig::record(), 4, 9).sim);
        assert_lockstep(variant, sims, 2_500, StateCheck::Signals, |_, _| {});
    }
}

/// Records `cycles` cycles (plus a store flush margin) of a case study
/// built by `build` under `VidiConfig::record()`.
fn record_case_study(
    cycles: u64,
    build: impl FnOnce(VidiConfig) -> (Simulator, VidiShim),
) -> Trace {
    let (mut sim, shim) = build(VidiConfig::record());
    sim.run(cycles + 256).expect("case-study recording runs");
    shim.recorded_trace().expect("recording produces a trace")
}

#[test]
fn case_study_replays_lockstep_identical() {
    const CYCLES: u64 = 2_500;
    for (variant, fifo_mode, respect_strobes, check) in [
        (
            "echo_fifo.buggy",
            FrameFifoMode::Buggy,
            false,
            StateCheck::Snapshot,
        ),
        (
            "echo_fifo.fixed",
            FrameFifoMode::Fixed,
            true,
            StateCheck::Digest,
        ),
    ] {
        let build = |vidi| {
            let b = build_echo_fifo(&EchoFifoConfig {
                fifo_mode,
                respect_strobes,
                vidi,
                ..EchoFifoConfig::default()
            });
            (b.sim, b.shim)
        };
        let trace = record_case_study(CYCLES, build);
        let sims = all_mode_sims(|| build(VidiConfig::replay_record(trace.clone())).0);
        let sims = assert_lockstep(variant, sims, CYCLES, check, |_, _| {});
        assert!(
            sims[1].1.stats().tick_skips > sims[0].1.stats().tick_skips,
            "{variant}: compiled replay never skipped a clock edge"
        );
    }
    for (variant, mode) in [
        ("echo_atop.buggy", AtopFilterMode::Buggy),
        ("echo_atop.fixed", AtopFilterMode::Fixed),
    ] {
        let build = |vidi| {
            let b = build_echo_atop(mode, vidi, 4, 9);
            (b.sim, b.shim)
        };
        let trace = record_case_study(CYCLES, build);
        let sims = all_mode_sims(|| build(VidiConfig::replay_record(trace.clone())).0);
        assert_lockstep(variant, sims, CYCLES, StateCheck::Digest, |_, _| {});
    }
}

/// An input-channel receiver that holds READY low for its first `delay`
/// cycles: back-pressure that lifts with VALID steady, so only the replay
/// engine's declared READY read can wake its clock edge for the fire.
struct LateReceiver {
    ch: Channel,
    delay: u64,
    cycle: u64,
    received: u64,
}

impl Component for LateReceiver {
    fn name(&self) -> &str {
        "late_receiver"
    }
    fn eval(&mut self, p: &mut SignalPool) {
        p.set_bool(self.ch.ready, self.cycle >= self.delay);
    }
    fn tick(&mut self, p: &mut SignalPool) {
        self.cycle += 1;
        if self.ch.fires(p) {
            self.received += p.get_u64(self.ch.data);
            self.delay = self.cycle + 40;
        }
    }
}

#[test]
fn replay_engine_wakes_on_ready_alone() {
    let layout = TraceLayout::new(vec![ChannelInfo {
        name: "cmd".into(),
        width: 32,
        direction: Direction::Input,
    }]);
    let mut trace = Trace::new(layout.clone(), false);
    for v in 1..=3 {
        let start = ChannelPacket {
            start: true,
            content: Some(Bits::from_u64(32, v)),
            end: false,
        };
        trace.push(CyclePacket::assemble(&layout, &[start], false));
        trace.push(CyclePacket::assemble(
            &layout,
            &[ChannelPacket::end_only()],
            false,
        ));
    }
    let sims = all_mode_sims(|| {
        let mut sim = Simulator::new();
        let cmd = Channel::new(sim.pool_mut(), "cmd", 32);
        VidiShim::install(
            &mut sim,
            &[(cmd.clone(), Direction::Input)],
            VidiConfig::replay(trace.clone()),
        )
        .expect("shim installs");
        sim.add_component(LateReceiver {
            ch: cmd,
            delay: 40,
            cycle: 0,
            received: 0,
        });
        sim
    });
    let sims = assert_lockstep("late_receiver", sims, 200, StateCheck::Digest, |_, _| {});
    assert!(
        sims[1].1.stats().tick_skips > 0,
        "the compiled replay never skipped a clock edge"
    );
}

// ─────────────────── 3. Random DAGs under random stimulus ──────────────────

/// Combinational XOR-ish gate: a fixed two-signal read set.
struct XorGate {
    a: SignalId,
    b: SignalId,
    out: SignalId,
}

impl Component for XorGate {
    fn name(&self) -> &str {
        "xor"
    }
    fn eval(&mut self, p: &mut SignalPool) {
        let v = (p.get_u64(self.a) ^ p.get_u64(self.b)).wrapping_mul(0x9e37) & 0xffff;
        p.set_u64(self.out, v);
    }
    fn tick(&mut self, _: &mut SignalPool) {}
    fn tick_changed_state(&self) -> bool {
        false
    }
}

/// Combinational mux with a **data-dependent read set**: depending on the
/// low bit of `sel` it reads only `a` or only `b`. This is the shape that
/// breaks static sensitivity analyses and static schedules alike: it
/// exercises per-eval read re-capture and the deopt fallback of the
/// compiled scheduler.
struct MuxGate {
    sel: SignalId,
    a: SignalId,
    b: SignalId,
    out: SignalId,
}

impl Component for MuxGate {
    fn name(&self) -> &str {
        "mux"
    }
    fn eval(&mut self, p: &mut SignalPool) {
        let v = if p.get_u64(self.sel) & 1 == 0 {
            p.get_u64(self.a)
        } else {
            p.get_u64(self.b)
        };
        p.set_u64(self.out, v.wrapping_add(3) & 0xffff);
    }
    fn tick(&mut self, _: &mut SignalPool) {}
    fn tick_changed_state(&self) -> bool {
        false
    }
}

/// Registered stage: output reflects the input latched at the previous
/// clock edge. Implements the precise tick-quiescence protocol.
struct RegStage {
    input: SignalId,
    out: SignalId,
    state: u64,
    changed: bool,
}

impl Component for RegStage {
    fn name(&self) -> &str {
        "reg"
    }
    fn eval(&mut self, p: &mut SignalPool) {
        p.set_u64(self.out, self.state);
    }
    fn tick(&mut self, p: &mut SignalPool) {
        let next = p.get_u64(self.input);
        self.changed = next != self.state;
        self.state = next;
    }
    fn tick_changed_state(&self) -> bool {
        self.changed
    }
}

/// One random DAG node. Sources index into the signals already defined
/// when the node is added (primary inputs plus earlier nodes' outputs),
/// so the graph is acyclic by construction.
#[derive(Clone, Debug)]
struct NodeSpec {
    kind: u8,
    s0: usize,
    s1: usize,
    s2: usize,
}

/// Builds the DAG described by `spec` over `n_inputs` primary inputs.
/// Returns the simulator and the primary-input signal ids. Deterministic:
/// calling it twice yields structurally identical simulators.
fn build_dag(n_inputs: usize, nodes: &[NodeSpec]) -> (Simulator, Vec<SignalId>) {
    let mut sim = Simulator::new();
    let mut signals = Vec::new();
    for i in 0..n_inputs {
        signals.push(sim.pool_mut().add(format!("in{i}"), 16));
    }
    for (i, n) in nodes.iter().enumerate() {
        let avail = signals.len();
        let s0 = signals[n.s0 % avail];
        let s1 = signals[n.s1 % avail];
        let s2 = signals[n.s2 % avail];
        let out = sim.pool_mut().add(format!("n{i}"), 16);
        match n.kind % 3 {
            0 => sim.add_component(XorGate { a: s0, b: s1, out }),
            1 => sim.add_component(MuxGate {
                sel: s0,
                a: s1,
                b: s2,
                out,
            }),
            _ => sim.add_component(RegStage {
                input: s0,
                out,
                state: 0,
                changed: false,
            }),
        }
        signals.push(out);
    }
    (sim, signals[..n_inputs].to_vec())
}

/// An adversarial DAG that forces the compiled scheduler to deopt: the mux
/// is compiled while `sel` selects the primary input, so no dependency edge
/// to the xor is observed and the schedule orders the mux *before* the xor
/// (edge-free components levelize in reverse insertion order). Flipping
/// `sel` in the same cycle as a data change makes the mux read the xor's
/// output before the xor has run — a backward wake, the deopt case — yet
/// both schedulers must still converge to identical signals.
#[test]
fn compiled_deopt_path_is_exercised_and_stays_equivalent() {
    let nodes = [
        // n0 = xor(in0, in1)
        NodeSpec {
            kind: 0,
            s0: 0,
            s1: 1,
            s2: 0,
        },
        // n1 = mux(sel=in1, a=in0, b=n0)
        NodeSpec {
            kind: 1,
            s0: 1,
            s1: 0,
            s2: 2,
        },
    ];
    let sims = all_mode_sims(|| build_dag(2, &nodes).0);
    let inputs = build_dag(2, &nodes).1;
    let sims = assert_lockstep(
        "deopt_dag",
        sims,
        4,
        StateCheck::Signals,
        |c, pool| match c {
            // Compile with sel even: the mux's read of n0 stays unobserved.
            0 => {}
            // Flip sel and change data in one cycle: backward wake → deopt.
            1 => {
                pool.set_u64(inputs[0], 5);
                pool.set_u64(inputs[1], 1);
            }
            // Post-recompile cycles run on the corrected schedule.
            _ => pool.set_u64(inputs[0], 5 + c),
        },
    );
    let (_, compiled) = &sims[1];
    assert!(
        compiled.stats().deopts >= 1,
        "adversarial DAG never took the deopt path: {:?}",
        compiled.stats()
    );
    assert!(
        compiled.stats().recompiles >= 2,
        "deopt never triggered a recompile: {:?}",
        compiled.stats()
    );
}

proptest! {
    #[test]
    fn random_dags_never_diverge(
        n_inputs in 2usize..5,
        nodes in vec(
            (0u8..3, any::<usize>(), any::<usize>(), any::<usize>()).prop_map(
                |(kind, s0, s1, s2)| NodeSpec { kind, s0, s1, s2 },
            ),
            1..24,
        ),
        stimulus in vec(vec((any::<usize>(), any::<u64>()), 0..4), 1..40),
    ) {
        let sims = all_mode_sims(|| build_dag(n_inputs, &nodes).0);
        let (_, inputs) = build_dag(n_inputs, &nodes);
        let cycles = stimulus.len() as u64;
        assert_lockstep("random_dag", sims, cycles, StateCheck::Signals, |c, pool| {
            // Identical harness-forced stimulus on all pools: this is the
            // inter-cycle dirty path every scheduler must catch.
            for (idx, val) in &stimulus[c as usize] {
                pool.set_u64(inputs[idx % inputs.len()], val & 0xffff);
            }
        });
    }
}
