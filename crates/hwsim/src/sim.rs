//! The simulation scheduler.
//!
//! Two schedulers share the same two-phase cycle semantics (settle to a
//! combinational fixed point, then commit the clock edge):
//!
//! * [`EvalMode::Compiled`] (the default) — a levelized scheduler: the
//!   component dataflow graph is topologically sorted **once at setup**
//!   (see [`levelize`](crate::levelize)), so an acyclic steady-state settle
//!   is a single upstream-first sweep that evaluates only the components
//!   whose inputs changed. Components whose runtime reads escape the
//!   compiled order *deoptimize* to a multi-pass worklist for that cycle
//!   and trigger a bounded recompile. The clock edge is scheduled too:
//!   components that declare [`Component::tick_reads`] have their ticks
//!   (and fault polls) skipped on cycles that provably cannot change their
//!   state.
//! * [`EvalMode::Full`] — the classic full-broadcast loop: every component's
//!   `eval` runs on every settle pass until no signal changes. Kept as the
//!   reference oracle for equivalence tests.
//!
//! Both modes produce bit-identical signal trajectories; see [`Simulator`]
//! for the argument.

use crate::component::Component;
use crate::error::SimError;
use crate::levelize::{self, CompiledSchedule};
use crate::signal::{SignalAccess, SignalId, SignalPool};
use crate::state::{StateError, StateReader, StateWriter};
use crate::vcd::VcdWriter;

/// Default bound on combinational settle iterations per cycle.
const DEFAULT_MAX_EVAL_ITERS: usize = 64;

/// Version tag of the [`Simulator::snapshot`] blob layout.
const SNAPSHOT_STATE_VERSION: u16 = 2;

/// How many times a compiled schedule may be rebuilt in response to
/// observed deoptimizations before the scheduler stops recompiling and
/// lives with multi-pass settles. Bounds compile churn on designs whose
/// read sets never stabilize; the schedule stays sound either way.
const RECOMPILE_BUDGET: u32 = 64;

/// The chronological signal accesses one component made during a single
/// [`Component::eval`] call, as captured by [`Simulator::access_scan`].
#[derive(Clone, Debug)]
pub struct ComponentAccess {
    /// The component's [`Component::name`].
    pub component: String,
    /// Every read and write, in program order.
    pub accesses: Vec<SignalAccess>,
}

impl ComponentAccess {
    /// The deduplicated signals this component read, in first-read order —
    /// the component's *sensitivity set* under the conservative one-shot
    /// approximation shared by static lint and the compiled scheduler's
    /// schedule build.
    pub fn read_set(&self) -> Vec<SignalId> {
        let mut out: Vec<SignalId> = Vec::new();
        for acc in &self.accesses {
            if let SignalAccess::Read(id) = *acc {
                if !out.contains(&id) {
                    out.push(id);
                }
            }
        }
        out
    }

    /// The deduplicated signals this component wrote, in first-write order.
    pub fn write_set(&self) -> Vec<SignalId> {
        let mut out: Vec<SignalId> = Vec::new();
        for acc in &self.accesses {
            if let SignalAccess::Write(id) = *acc {
                if !out.contains(&id) {
                    out.push(id);
                }
            }
        }
        out
    }
}

/// Which settle-phase scheduler [`Simulator::run_cycle`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EvalMode {
    /// Full broadcast: every component evaluates on every settle pass. The
    /// original (and reference) scheduler, kept as the oracle for
    /// equivalence tests.
    Full,
    /// Levelized compiled scheduling (the default): the dataflow graph is
    /// Tarjan-sorted once at setup into an upstream-first sweep order, so
    /// steady-state settles are single-pass and evaluate only components
    /// whose read set intersects the dirty signal set; runtime reads that
    /// escape the compiled order deoptimize to worklist iteration for that
    /// cycle (counted in [`SimStats::deopts`]) and trigger a bounded
    /// recompile. Clock edges of components declaring
    /// [`Component::tick_reads`] are skipped when provably quiescent.
    #[default]
    Compiled,
}

/// Scheduler performance counters, accumulated across [`Simulator::run_cycle`]
/// calls until [`Simulator::reset_stats`].
///
/// `evals + skipped_evals` is exactly what the full-broadcast scheduler
/// would have executed over the same settle passes, so
/// `(evals + skipped_evals) / evals` is the eval-reduction factor of the
/// compiled scheduler (1.0 in [`EvalMode::Full`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Clock cycles executed.
    pub cycles: u64,
    /// [`Component::eval`] calls made during settle phases. The compiled
    /// scheduler's schedule builds run one instrumented eval per component
    /// outside any settle pass; those footprint scans are not counted here
    /// (one per component per [`Self::recompiles`]).
    pub evals: u64,
    /// Evals a full-broadcast pass would have made but the worklist skipped.
    pub skipped_evals: u64,
    /// Settle passes executed (every cycle has at least one).
    pub settle_passes: u64,
    /// Dirty-signal observations: the summed sizes of the per-eval changed
    /// signal sets the scheduler propagated.
    pub dirty_signals: u64,
    /// Compiled-mode deoptimizations: writes that had to wake a component
    /// at an earlier-or-equal schedule position that was *not* known
    /// cyclic — i.e. cycles where the compiled order was wrong and the
    /// settle fell back to worklist iteration. Zero in other modes.
    pub deopts: u64,
    /// Compiled-mode schedule builds, including the initial compile.
    pub recompiles: u64,
    /// Compiled-mode clock edges skipped as provably quiescent (see
    /// [`Component::tick_reads`]). Zero in other modes.
    pub tick_skips: u64,
}

impl SimStats {
    /// Mean `eval` calls per cycle.
    pub fn evals_per_cycle(&self) -> f64 {
        self.evals as f64 / (self.cycles.max(1)) as f64
    }

    /// Mean settle passes per cycle.
    pub fn settle_passes_per_cycle(&self) -> f64 {
        self.settle_passes as f64 / (self.cycles.max(1)) as f64
    }

    /// Eval-reduction factor versus a full-broadcast scheduler over the same
    /// settle passes: `(evals + skipped_evals) / evals`.
    pub fn eval_reduction(&self) -> f64 {
        (self.evals + self.skipped_evals) as f64 / (self.evals.max(1)) as f64
    }
}

/// A deterministic delta-cycle simulator.
///
/// Each simulated clock cycle proceeds in two phases:
///
/// 1. **Settle**: component [`Component::eval`]s run until no signal
///    changes (the combinational fixed point). A bounded iteration count
///    turns genuine combinational loops into a
///    [`SimError::CombinationalLoop`] instead of a hang.
/// 2. **Commit**: every component's [`Component::tick`] runs once, observing
///    the settled signal values and updating registered state.
///
/// The simulation is fully deterministic: it is single-threaded, components
/// are evaluated in a fixed order (insertion order under [`EvalMode::Full`],
/// the levelized order under [`EvalMode::Compiled`]), and any randomness
/// lives in seeded workload generators outside the kernel.
///
/// ## Scheduling modes
///
/// By default the settle phase uses the **compiled scheduler**
/// ([`EvalMode::Compiled`]): the pool records *which* signals change, every
/// `eval` call runs under a read-set capture, and a sweep in levelized
/// order re-evaluates only components whose read set intersects the dirty
/// set, or whose last clock edge was not quiescent
/// ([`Component::tick_changed_state`]). The first pass after construction,
/// a mode switch, a restore or a schedule build conservatively evaluates
/// all components ("touch-all").
///
/// Both modes produce **bit-identical** signal trajectories: a skipped
/// component's internal state is unchanged (no tick since its last eval)
/// and every signal it read last time holds the same value, so by the
/// idempotence contract of [`Component::eval`] a re-run would take the same
/// path and write the same values — a no-op the full scheduler merely pays
/// for. Components whose `eval` is *not* a pure function of its captured
/// reads can opt out via [`Component::always_eval`], which pins them into
/// every settle pass (the conservative touch-all fallback).
///
/// See [`Component`] for a complete running example.
#[derive(Default)]
pub struct Simulator {
    pool: SignalPool,
    components: Vec<Box<dyn Component>>,
    cycle: u64,
    max_eval_iters: usize,
    vcd: Option<VcdWriter>,
    eval_mode: EvalMode,
    stats: SimStats,
    /// Cached [`Component::always_eval`] per component.
    always: Vec<bool>,
    /// Worklist flags for the current and the next settle pass.
    pending: Vec<bool>,
    pending_next: Vec<bool>,
    /// Force a full first pass on the next cycle: set at construction and
    /// whenever the scheduler's books may be stale (a component was added,
    /// the eval mode changed, a restore, or an access scan or schedule
    /// build ran evals outside capture).
    touch_all_next: bool,
    /// Scratch buffers reused across evals to avoid per-eval allocation.
    read_scratch: Vec<SignalId>,
    dirty_scratch: Vec<SignalId>,
    /// The levelized schedule, while [`EvalMode::Compiled`] is active.
    /// `None` until the first compiled settle and after any structural
    /// change (a component was added).
    schedule: Option<CompiledSchedule>,
    /// A deopt was observed (or a read/write set grew) since the last
    /// compile: rebuild the schedule at the next settle entry, budget
    /// permitting.
    recompile_pending: bool,
    /// Remaining [`RECOMPILE_BUDGET`] for the current design.
    recompile_budget: u32,
    /// Per-component: a signal in the component's declared
    /// [`Component::tick_reads`] set changed since its last executed tick.
    tick_pending: Vec<bool>,
    /// Per-component: the last *executed* tick reported
    /// [`Component::tick_quiet`].
    tick_quiet_cache: Vec<bool>,
    /// Per-component: the last executed tick reported
    /// [`Component::tick_changed_state`] (cached at commit so the settle
    /// entry makes no dynamic calls). Skipped ticks cannot have changed
    /// state, so their entry is forced `false`.
    tick_wake: Vec<bool>,
    /// Per-component: whether the last commit executed the tick (skipped
    /// edges also skip the fault poll).
    ticked: Vec<bool>,
    /// Per-component: remaining edges of the
    /// [`Component::tick_holdoff`] window cached at the last executed tick
    /// (`u64::MAX` for an unbounded `None`), decremented per skipped edge.
    /// An exhausted window forces the next edge to execute even if no
    /// declared signal changed.
    tick_holdoff_left: Vec<u64>,
    /// Per-component [`Component::tick_reads`] declaration flag, copied out
    /// of the schedule so the commit loop borrows no schedule state.
    tick_skippable: Vec<bool>,
}

impl Simulator {
    /// Creates an empty simulator.
    pub fn new() -> Self {
        Simulator {
            max_eval_iters: DEFAULT_MAX_EVAL_ITERS,
            touch_all_next: true,
            ..Simulator::default()
        }
    }

    /// The signal pool, for reading signal values.
    pub fn pool(&self) -> &SignalPool {
        &self.pool
    }

    /// The signal pool, for allocating signals and forcing values from a
    /// harness.
    pub fn pool_mut(&mut self) -> &mut SignalPool {
        &mut self.pool
    }

    /// Adds a component to the design. Insertion order breaks ties in the
    /// evaluation order (which only affects how quickly the fixed point is
    /// reached, never the result).
    pub fn add_component(&mut self, component: impl Component + 'static) {
        self.always.push(component.always_eval());
        self.components.push(Box::new(component));
        self.touch_all_next = true;
        // The compiled schedule describes a fixed component set; adding one
        // invalidates it (and refreshes the recompile budget for the new
        // design).
        self.schedule = None;
        self.recompile_pending = false;
    }

    /// The number of clock cycles executed so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Selects the settle-phase scheduler. [`EvalMode::Compiled`] is the
    /// default; [`EvalMode::Full`] restores the original full-broadcast
    /// loop (the equivalence oracle). Switching mid-run is safe in either
    /// direction.
    pub fn set_eval_mode(&mut self, mode: EvalMode) {
        self.eval_mode = mode;
        // Full mode keeps neither dirty-signal wakes nor tick books, so any
        // switch invalidates the compiled scheduler's books.
        self.touch_all_next = true;
        self.invalidate_tick_books();
    }

    /// The active settle-phase scheduler.
    pub fn eval_mode(&self) -> EvalMode {
        self.eval_mode
    }

    /// Scheduler performance counters accumulated since construction or the
    /// last [`Self::reset_stats`].
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Zeroes the scheduler performance counters.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
    }

    /// Overrides the combinational settle bound (default 64). Designs with
    /// long combinational passthrough chains (e.g. many stacked monitors)
    /// may need a larger bound.
    pub fn set_max_eval_iters(&mut self, iters: usize) {
        assert!(iters > 0, "eval iteration bound must be positive");
        self.max_eval_iters = iters;
    }

    /// Attaches a VCD waveform writer; every subsequent cycle is dumped.
    pub fn attach_vcd(&mut self, vcd: VcdWriter) {
        self.vcd = Some(vcd);
    }

    /// Detaches and returns the VCD writer, if any, finalizing its header.
    pub fn take_vcd(&mut self) -> Option<VcdWriter> {
        self.vcd.take()
    }

    /// Runs a single clock cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CombinationalLoop`] if the design does not settle.
    pub fn run_cycle(&mut self) -> Result<(), SimError> {
        // Settle phase: iterate eval to a fixed point.
        match self.eval_mode {
            EvalMode::Full => self.settle_full()?,
            EvalMode::Compiled => self.settle_compiled()?,
        }
        if let Some(vcd) = &mut self.vcd {
            vcd.sample(self.cycle, &self.pool);
        }
        if self.eval_mode == EvalMode::Compiled {
            self.commit_compiled()?;
        } else {
            // Commit phase: clock edge.
            for c in self.components.iter_mut() {
                c.tick(&mut self.pool);
            }
            // Fault poll: a component that latched an unrecoverable
            // condition aborts the run with a typed error instead of
            // panicking or hanging.
            for c in self.components.iter() {
                if let Some(detail) = c.fault() {
                    return Err(SimError::ComponentFault {
                        cycle: self.cycle,
                        component: c.name().to_string(),
                        detail,
                    });
                }
            }
        }
        self.cycle += 1;
        self.stats.cycles += 1;
        Ok(())
    }

    /// The original full-broadcast settle loop: every component evaluates on
    /// every pass until no signal changes.
    fn settle_full(&mut self) -> Result<(), SimError> {
        let mut iters = 0;
        loop {
            self.pool.clear_changed();
            for c in self.components.iter_mut() {
                c.eval(&mut self.pool);
            }
            self.stats.evals += self.components.len() as u64;
            self.stats.settle_passes += 1;
            self.stats.dirty_signals += self.pool.dirty_signals().len() as u64;
            if !self.pool.any_changed() {
                break;
            }
            iters += 1;
            if iters >= self.max_eval_iters {
                return Err(SimError::CombinationalLoop {
                    cycle: self.cycle,
                    iterations: self.max_eval_iters,
                });
            }
        }
        Ok(())
    }

    /// The levelized compiled settle.
    ///
    /// Entry rebuilds the schedule if it is missing (first compiled cycle,
    /// or a component was added) or a deopt requested a recompile and the
    /// budget allows one. The sweep itself visits components in compiled
    /// order; on an acyclic design with stable read sets every writer runs
    /// before its readers and the fixed point is reached in **one pass**.
    ///
    /// Every eval still runs under read capture: reads outside the compiled
    /// read set are unioned into the schedule's wake tables immediately, so
    /// wake propagation stays complete and any stale value is healed by a
    /// backward wake into the next pass — the extra passes are the
    /// worklist fallback, bounded by `max_eval_iters` exactly like
    /// [`EvalMode::Full`], so a genuine loop trips
    /// [`SimError::CombinationalLoop`] on the same cycle in both modes.
    fn settle_compiled(&mut self) -> Result<(), SimError> {
        self.ensure_compiled_capacity();
        if self.schedule.is_none() {
            self.recompile_budget = RECOMPILE_BUDGET;
            self.compile();
        } else if self.recompile_pending && self.recompile_budget > 0 {
            self.recompile_budget -= 1;
            self.compile();
        }
        self.recompile_pending = false;
        let mut sched = self.schedule.take().expect("compiled above");
        let result = self.settle_compiled_sweep(&mut sched);
        self.schedule = Some(sched);
        result
    }

    /// Builds (or rebuilds) the compiled schedule: one instrumented eval
    /// per component yields its read/write footprint (unioned with every
    /// footprint the previous schedule observed at runtime, so recompiles
    /// only ever see a *larger* graph), then [`levelize::compile_schedule`]
    /// levelizes the dataflow graph.
    fn compile(&mut self) {
        let n = self.components.len();
        let (mut reads, mut writes) = match self.schedule.take() {
            Some(old) => (old.reads, old.writes),
            None => (vec![Vec::new(); n], vec![Vec::new(); n]),
        };
        for i in 0..n {
            self.pool.start_access_log();
            self.components[i].eval(&mut self.pool);
            for acc in self.pool.take_access_log() {
                match acc {
                    SignalAccess::Read(id) => {
                        if !reads[i].contains(&id) {
                            reads[i].push(id);
                        }
                    }
                    SignalAccess::Write(id) => {
                        if !writes[i].contains(&id) {
                            writes[i].push(id);
                        }
                    }
                }
            }
        }
        let tick_decls: Vec<Option<Vec<SignalId>>> =
            self.components.iter().map(|c| c.tick_reads()).collect();
        let sched = levelize::compile_schedule(self.pool.len(), reads, writes, &tick_decls);
        self.tick_skippable.clear();
        self.tick_skippable.extend_from_slice(&sched.tick_skippable);
        self.schedule = Some(sched);
        self.stats.recompiles += 1;
        // The scan ran evals outside read capture and may have changed pool
        // state: force a full first pass and a full tick round, exactly as
        // after an access scan.
        self.touch_all_next = true;
        self.invalidate_tick_books();
    }

    /// One compiled settle over `sched` (taken out of `self` so the sweep
    /// can borrow components and schedule simultaneously).
    fn settle_compiled_sweep(&mut self, sched: &mut CompiledSchedule) -> Result<(), SimError> {
        let n = self.components.len();
        // Signals allocated after the compile have no wake entries yet.
        if sched.readers.len() < self.pool.len() {
            sched.readers.resize_with(self.pool.len(), Vec::new);
            sched.tick_readers.resize_with(self.pool.len(), Vec::new);
        }
        for p in &mut self.pending_next {
            *p = false;
        }
        let touch_all = std::mem::replace(&mut self.touch_all_next, false);
        if touch_all {
            // The inter-cycle dirty set is discarded below, so every tick
            // watcher must be conservatively marked.
            self.pool.clear_changed();
            for p in &mut self.pending {
                *p = true;
            }
            for t in &mut self.tick_pending {
                *t = true;
            }
        } else {
            // Harness forces between cycles wake both eval and tick
            // watchers of the changed signals.
            let mut inter_cycle = std::mem::take(&mut self.dirty_scratch);
            self.pool.drain_dirty(&mut inter_cycle);
            for &s in &inter_cycle {
                for &w in &sched.readers[s.index()] {
                    self.pending[w as usize] = true;
                }
                for &t in &sched.tick_readers[s.index()] {
                    self.tick_pending[t as usize] = true;
                }
            }
            self.dirty_scratch = inter_cycle;
            // Components whose executed clock edge was not quiescent
            // re-derive their outputs; skipped edges changed nothing.
            for i in 0..n {
                if self.always[i] || self.tick_wake[i] {
                    self.pending[i] = true;
                }
            }
        }
        let mut read_scratch = std::mem::take(&mut self.read_scratch);
        let mut dirty_scratch = std::mem::take(&mut self.dirty_scratch);
        let mut iters = 0;
        let result = loop {
            let mut evals = 0u64;
            let mut changed_this_pass = false;
            for k in 0..sched.order.len() {
                let i = sched.order[k] as usize;
                if !self.pending[i] {
                    continue;
                }
                self.pending[i] = false;
                self.pool.start_read_capture();
                self.components[i].eval(&mut self.pool);
                self.pool.take_read_capture(&mut read_scratch);
                evals += 1;
                // Union data-dependent reads into the wake tables at once:
                // completeness of the wake relation is what makes every
                // stale read heal on a later pass. Steady state takes the
                // equality fast path — an unchanged capture is already
                // fully unioned, so the per-read scans are skipped.
                if read_scratch != sched.last_reads[i] {
                    for &s in &read_scratch {
                        if !sched.reads[i].contains(&s) {
                            sched.reads[i].push(s);
                            sched.readers[s.index()].push(
                                u32::try_from(i)
                                    .expect("component count fits u32 (checked at compile)"),
                            );
                        }
                    }
                    std::mem::swap(&mut sched.last_reads[i], &mut read_scratch);
                }
                self.pool.drain_dirty(&mut dirty_scratch);
                if !dirty_scratch.is_empty() {
                    changed_this_pass = true;
                    self.stats.dirty_signals += dirty_scratch.len() as u64;
                    for &s in &dirty_scratch {
                        if !sched.writes[i].contains(&s) {
                            // An unobserved write: remember it so the next
                            // recompile sees the full graph.
                            sched.writes[i].push(s);
                        }
                        for &t in &sched.tick_readers[s.index()] {
                            self.tick_pending[t as usize] = true;
                        }
                        for &w in &sched.readers[s.index()] {
                            let c = w as usize;
                            if sched.pos[c] as usize > k {
                                self.pending[c] = true;
                            } else {
                                // A wake against the compiled order. For a
                                // known-cyclic component this is ordinary
                                // worklist iteration; otherwise the order
                                // was wrong: count a deopt and request a
                                // recompile.
                                self.pending_next[c] = true;
                                if !sched.cyclic[c] {
                                    self.stats.deopts += 1;
                                    self.recompile_pending = true;
                                }
                            }
                        }
                    }
                }
            }
            self.stats.evals += evals;
            self.stats.skipped_evals += n as u64 - evals;
            self.stats.settle_passes += 1;
            if !changed_this_pass {
                break Ok(());
            }
            iters += 1;
            if iters >= self.max_eval_iters {
                break Err(SimError::CombinationalLoop {
                    cycle: self.cycle,
                    iterations: self.max_eval_iters,
                });
            }
            // `pending` was fully drained by the sweep (wakes at later
            // positions were consumed in-pass), so after the swap it is the
            // all-false buffer for the pass after next.
            std::mem::swap(&mut self.pending, &mut self.pending_next);
            for (i, &a) in self.always.iter().enumerate() {
                if a {
                    self.pending[i] = true;
                }
            }
        };
        self.read_scratch = read_scratch;
        self.dirty_scratch = dirty_scratch;
        result
    }

    /// The compiled commit phase: clock edges of components with a declared
    /// tick read set are skipped when no declared signal changed since
    /// their last executed tick, that tick mutated nothing beyond local
    /// time ([`Component::tick_quiet`]), and the component's
    /// [`Component::tick_holdoff`] window has not expired — by induction
    /// the skipped edge would do nothing an edge-cheap
    /// [`Component::tick_elided`] call does not replay. Skipped edges also
    /// skip the fault poll (a fault is latched state; an idle edge cannot
    /// newly latch one).
    fn commit_compiled(&mut self) -> Result<(), SimError> {
        let n = self.components.len();
        for i in 0..n {
            if self.tick_skippable[i]
                && !self.tick_pending[i]
                && self.tick_quiet_cache[i]
                && self.tick_holdoff_left[i] > 0
            {
                self.ticked[i] = false;
                self.tick_wake[i] = false;
                self.tick_holdoff_left[i] -= 1;
                self.components[i].tick_elided();
                self.stats.tick_skips += 1;
                continue;
            }
            self.ticked[i] = true;
            self.tick_pending[i] = false;
            let c = &mut self.components[i];
            c.tick(&mut self.pool);
            self.tick_quiet_cache[i] = c.tick_quiet();
            self.tick_holdoff_left[i] = c.tick_holdoff().unwrap_or(u64::MAX);
            // Poll the settle-wake predicate once, here, instead of once
            // per component at every settle entry.
            self.tick_wake[i] = c.tick_changed_state();
        }
        for (i, c) in self.components.iter().enumerate() {
            if !self.ticked[i] {
                continue;
            }
            if let Some(detail) = c.fault() {
                return Err(SimError::ComponentFault {
                    cycle: self.cycle,
                    component: c.name().to_string(),
                    detail,
                });
            }
        }
        Ok(())
    }

    /// Sizes the compiled scheduler's per-component worklist and tick
    /// books to the current design (components may be added between runs),
    /// with conservative defaults for new components (tick pending, not
    /// quiet, wake the settle, not skippable until a compile says
    /// otherwise).
    fn ensure_compiled_capacity(&mut self) {
        let n = self.components.len();
        if self.pending.len() < n {
            self.pending.resize(n, false);
            self.pending_next.resize(n, false);
        }
        if self.tick_pending.len() < n {
            self.tick_pending.resize(n, true);
            self.tick_quiet_cache.resize(n, false);
            self.tick_wake.resize(n, true);
            self.ticked.resize(n, true);
            // Conservative: no holdoff window until an executed tick grants
            // one (skipping already requires an executed quiet tick first).
            self.tick_holdoff_left.resize(n, 0);
        }
        if self.tick_skippable.len() < n {
            self.tick_skippable.resize(n, false);
        }
    }

    /// Conservatively resets the compiled tick books: every component's
    /// next clock edge runs and the next settle treats every edge as
    /// non-quiescent. Called whenever tick state may be stale (mode
    /// switches, restores, schedule rebuilds).
    fn invalidate_tick_books(&mut self) {
        for t in &mut self.tick_pending {
            *t = true;
        }
        for q in &mut self.tick_quiet_cache {
            *q = false;
        }
        for w in &mut self.tick_wake {
            *w = true;
        }
        for t in &mut self.ticked {
            *t = true;
        }
        for h in &mut self.tick_holdoff_left {
            *h = 0;
        }
    }

    /// Runs every component's [`Component::eval`] exactly once with signal
    /// access logging enabled, returning each component's chronological
    /// read/write log.
    ///
    /// This is the one-shot recording pass behind static design lint: because
    /// `eval` must be idempotent and free of registered side effects, a single
    /// instrumented pass observes each component's signal footprint without
    /// advancing simulation time. The scan is intended to run on a freshly
    /// built design, *before* any [`Self::run_cycle`]; signal values (and
    /// therefore short-circuit control flow inside `eval`) are whatever the
    /// harness reset state left behind, which static analyses must treat as a
    /// conservative sample, not the full footprint.
    pub fn access_scan(&mut self) -> Vec<ComponentAccess> {
        let mut out = Vec::with_capacity(self.components.len());
        for c in self.components.iter_mut() {
            self.pool.start_access_log();
            c.eval(&mut self.pool);
            out.push(ComponentAccess {
                component: c.name().to_string(),
                accesses: self.pool.take_access_log(),
            });
        }
        // The scan ran evals outside read capture and may have changed pool
        // state, so the dirty-signal wakes and tick books are stale.
        self.touch_all_next = true;
        self.invalidate_tick_books();
        out
    }

    /// Captures the complete dynamic state of the simulation — cycle
    /// counter, scheduler stats, every signal value, and one
    /// [`Component::save_state`] blob per component — as a deterministic
    /// byte string.
    ///
    /// Snapshots are taken at cycle boundaries (between [`Self::run_cycle`]
    /// calls): signal values are the settled values of the last executed
    /// cycle and component registers hold their post-tick state. Restoring
    /// the blob into a *freshly built, structurally identical* simulator
    /// with [`Self::restore`] and running forward produces bit-identical
    /// signal trajectories to the original run, in either [`EvalMode`].
    /// Scheduler bookkeeping (the compiled schedule, tick books) is not
    /// captured; restore forces a touch-all settle pass that re-seeds it.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.u16(SNAPSHOT_STATE_VERSION);
        w.u64(self.cycle);
        w.u64(self.stats.cycles);
        w.u64(self.stats.evals);
        w.u64(self.stats.skipped_evals);
        w.u64(self.stats.settle_passes);
        w.u64(self.stats.dirty_signals);
        w.u64(self.stats.deopts);
        w.u64(self.stats.recompiles);
        w.u64(self.stats.tick_skips);
        self.pool.save_values(&mut w);
        w.u32(u32::try_from(self.components.len()).expect("component count fits u32"));
        for c in &self.components {
            w.str(c.name());
            let mut cw = StateWriter::new();
            c.save_state(&mut cw);
            w.bytes(cw.as_bytes());
        }
        w.into_bytes()
    }

    /// A 64-bit fingerprint of the *deterministic* simulation state: cycle
    /// counter, every signal value, and every component's state blob.
    ///
    /// Unlike [`Self::snapshot`], scheduler statistics are excluded — the
    /// touch-all settle pass forced by [`Self::restore`] perturbs eval
    /// counts without affecting the simulated trajectory, so a restored run
    /// and the original run have identical digests at the same cycle even
    /// though their `SimStats` differ.
    pub fn state_digest(&self) -> u64 {
        let mut w = StateWriter::new();
        w.u64(self.cycle);
        self.pool.save_values(&mut w);
        for c in &self.components {
            w.str(c.name());
            let mut cw = StateWriter::new();
            c.save_state(&mut cw);
            w.bytes(cw.as_bytes());
        }
        crate::state::fnv1a64(w.as_bytes())
    }

    /// Restores a [`Self::snapshot`] blob into this simulator, which must be
    /// structurally identical to the one that produced it (same signals in
    /// the same order with the same widths, same components in the same
    /// order) — in practice, a simulator rebuilt by the same deterministic
    /// construction code.
    ///
    /// After a successful restore the next cycle begins with a forced
    /// touch-all settle pass (the compiled scheduler's wake and tick books
    /// are stale, exactly as after [`Self::access_scan`]); the settled
    /// signal values it produces are identical to a broadcast pass by eval
    /// idempotence, so the restored trajectory is bit-exact in both modes.
    ///
    /// # Errors
    ///
    /// Returns a typed [`StateError`] — never panics — on truncated or
    /// corrupted bytes, a version this build does not read, or a structural
    /// mismatch with this simulator. On error the simulator may be left
    /// partially restored and should be rebuilt before further use.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let mut r = StateReader::new(bytes);
        let version = r.u16()?;
        if version != SNAPSHOT_STATE_VERSION {
            return Err(StateError::UnsupportedVersion { found: version });
        }
        let cycle = r.u64()?;
        let stats = SimStats {
            cycles: r.u64()?,
            evals: r.u64()?,
            skipped_evals: r.u64()?,
            settle_passes: r.u64()?,
            dirty_signals: r.u64()?,
            deopts: r.u64()?,
            recompiles: r.u64()?,
            tick_skips: r.u64()?,
        };
        self.pool.restore_values(&mut r)?;
        let n = r.u32()? as usize;
        if n != self.components.len() {
            return Err(StateError::Mismatch {
                expected: format!("{} components", self.components.len()),
                found: format!("{n} components"),
            });
        }
        for c in self.components.iter_mut() {
            let name = r.str()?;
            if name != c.name() {
                return Err(StateError::Mismatch {
                    expected: format!("component {}", c.name()),
                    found: format!("component {name}"),
                });
            }
            let blob = r.bytes()?;
            let mut cr = StateReader::new(blob);
            c.load_state(&mut cr)?;
            cr.finish(c.name())?;
        }
        r.finish("simulator")?;
        self.cycle = cycle;
        self.stats = stats;
        // The restored signal values invalidate the dirty-signal wakes,
        // exactly as after an access scan — and the compiled tick books,
        // which describe the pre-restore trajectory.
        self.touch_all_next = true;
        self.invalidate_tick_books();
        Ok(())
    }

    /// Collects blocked-state reports from every component (see
    /// [`Component::diagnostics`]). This is the deadlock diagnoser: when a
    /// watchdog expires, the returned lines name each stalled component and
    /// the resource it is waiting on. Harnesses may also call it mid-run to
    /// snapshot progress.
    pub fn diagnostics(&self) -> Vec<String> {
        let mut out = Vec::new();
        for c in self.components.iter() {
            for line in c.diagnostics(&self.pool) {
                out.push(format!("{}: {}", c.name(), line));
            }
        }
        out
    }

    /// Runs `n` clock cycles.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] encountered.
    pub fn run(&mut self, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            self.run_cycle()?;
        }
        Ok(())
    }

    /// Runs until `done` returns `true` (checked after each cycle), up to
    /// `max_cycles` additional cycles. Returns the cycle count at completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] if the budget is exhausted first — this
    /// is the mechanism by which harnesses detect hardware deadlocks — or
    /// [`SimError::CombinationalLoop`] from the settle phase.
    pub fn run_until(
        &mut self,
        mut done: impl FnMut(&SignalPool) -> bool,
        max_cycles: u64,
        waiting_for: &str,
    ) -> Result<u64, SimError> {
        for _ in 0..max_cycles {
            self.run_cycle()?;
            if done(&self.pool) {
                return Ok(self.cycle);
            }
        }
        Err(SimError::Timeout {
            cycle: self.cycle,
            waiting_for: waiting_for.to_string(),
            diagnostics: self.diagnostics(),
        })
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("cycle", &self.cycle)
            .field("signals", &self.pool.len())
            .field("components", &self.components.len())
            .field("eval_mode", &self.eval_mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::SignalId;

    /// y = x combinationally; z = register of y.
    struct Wire {
        x: SignalId,
        y: SignalId,
    }
    impl Component for Wire {
        fn name(&self) -> &str {
            "wire"
        }
        fn eval(&mut self, p: &mut SignalPool) {
            p.copy(self.y, self.x);
        }
        fn tick(&mut self, _p: &mut SignalPool) {}
        fn tick_changed_state(&self) -> bool {
            false
        }
    }

    struct Reg {
        d: SignalId,
        q: SignalId,
        state: u64,
    }
    impl Component for Reg {
        fn name(&self) -> &str {
            "reg"
        }
        fn eval(&mut self, p: &mut SignalPool) {
            p.set_u64(self.q, self.state);
        }
        fn tick(&mut self, p: &mut SignalPool) {
            self.state = p.get_u64(self.d);
        }
    }

    fn all_modes(test: impl Fn(EvalMode)) {
        test(EvalMode::Full);
        test(EvalMode::Compiled);
    }

    #[test]
    fn combinational_chain_settles_in_one_cycle() {
        all_modes(|mode| {
            let mut sim = Simulator::new();
            sim.set_eval_mode(mode);
            let a = sim.pool_mut().add("a", 8);
            let b = sim.pool_mut().add("b", 8);
            let c = sim.pool_mut().add("c", 8);
            // Deliberately add in reverse order so the fixed point needs >1 pass.
            sim.add_component(Wire { x: b, y: c });
            sim.add_component(Wire { x: a, y: b });
            sim.pool_mut().set_u64(a, 0x5a);
            sim.run_cycle().unwrap();
            assert_eq!(sim.pool().get_u64(c), 0x5a);
        });
    }

    #[test]
    fn register_delays_by_one_cycle() {
        all_modes(|mode| {
            let mut sim = Simulator::new();
            sim.set_eval_mode(mode);
            let d = sim.pool_mut().add("d", 8);
            let q = sim.pool_mut().add("q", 8);
            sim.add_component(Reg { d, q, state: 0 });
            sim.pool_mut().set_u64(d, 42);
            sim.run_cycle().unwrap();
            assert_eq!(
                sim.pool().get_u64(q),
                0,
                "q must not update until next eval"
            );
            sim.run_cycle().unwrap();
            assert_eq!(sim.pool().get_u64(q), 42);
        });
    }

    /// A deliberate oscillator: y = !y.
    struct Loop {
        y: SignalId,
    }
    impl Component for Loop {
        fn name(&self) -> &str {
            "loop"
        }
        fn eval(&mut self, p: &mut SignalPool) {
            let v = p.get_bool(self.y);
            p.set_bool(self.y, !v);
        }
        fn tick(&mut self, _p: &mut SignalPool) {}
    }

    #[test]
    fn combinational_loop_is_detected() {
        all_modes(|mode| {
            let mut sim = Simulator::new();
            sim.set_eval_mode(mode);
            let y = sim.pool_mut().add("y", 1);
            sim.add_component(Loop { y });
            let err = sim.run_cycle().unwrap_err();
            assert!(matches!(
                err,
                SimError::CombinationalLoop {
                    cycle: 0,
                    iterations: 64
                }
            ));
        });
    }

    #[test]
    fn run_until_times_out() {
        let mut sim = Simulator::new();
        let x = sim.pool_mut().add("x", 1);
        let err = sim
            .run_until(|p| p.get_bool(x), 10, "x to rise")
            .unwrap_err();
        assert!(matches!(err, SimError::Timeout { cycle: 10, .. }));
        assert_eq!(sim.cycle(), 10);
    }

    #[test]
    fn vcd_attach_take_roundtrip() {
        use crate::vcd::VcdWriter;
        let mut sim = Simulator::new();
        let d = sim.pool_mut().add("d", 4);
        let q = sim.pool_mut().add("q", 4);
        sim.add_component(Reg { d, q, state: 0 });
        let vcd = VcdWriter::new(sim.pool(), &[d, q]);
        sim.attach_vcd(vcd);
        sim.pool_mut().set_u64(d, 0xa);
        sim.run(3).unwrap();
        let doc = sim.take_vcd().expect("writer attached").finish();
        assert!(doc.contains("$var wire 4"));
        assert!(doc.contains("b1010"), "d's value appears in the dump");
        assert!(sim.take_vcd().is_none(), "taken once");
    }

    #[test]
    fn access_scan_reports_per_component_footprints() {
        use crate::signal::SignalAccess;
        let mut sim = Simulator::new();
        let a = sim.pool_mut().add("a", 8);
        let b = sim.pool_mut().add("b", 8);
        let d = sim.pool_mut().add("d", 8);
        let q = sim.pool_mut().add("q", 8);
        sim.add_component(Wire { x: a, y: b });
        sim.add_component(Reg { d, q, state: 0 });
        let scan = sim.access_scan();
        assert_eq!(scan.len(), 2);
        assert_eq!(scan[0].component, "wire");
        assert_eq!(
            scan[0].accesses,
            vec![SignalAccess::Read(a), SignalAccess::Write(b)]
        );
        assert_eq!(scan[0].read_set(), vec![a]);
        assert_eq!(scan[0].write_set(), vec![b]);
        assert_eq!(scan[1].component, "reg");
        assert_eq!(scan[1].accesses, vec![SignalAccess::Write(q)]);
        assert_eq!(scan[1].read_set(), vec![]);
        // The scan leaves the simulator usable: logging is off again and no
        // cycles were consumed.
        assert_eq!(sim.cycle(), 0);
        sim.run_cycle().unwrap();
    }

    #[test]
    fn run_until_succeeds() {
        all_modes(|mode| {
            let mut sim = Simulator::new();
            sim.set_eval_mode(mode);
            let d = sim.pool_mut().add("d", 8);
            let q = sim.pool_mut().add("q", 8);
            sim.add_component(Reg { d, q, state: 0 });
            sim.pool_mut().set_u64(d, 1);
            let cycles = sim.run_until(|p| p.get_u64(q) == 1, 100, "q == 1").unwrap();
            assert_eq!(cycles, 2);
        });
    }

    /// A two-input mux whose read set is data-dependent: reads `sel`, then
    /// only the selected input. Exercises sensitivity-set refresh.
    struct Mux {
        sel: SignalId,
        a: SignalId,
        b: SignalId,
        out: SignalId,
    }
    impl Component for Mux {
        fn name(&self) -> &str {
            "mux"
        }
        fn eval(&mut self, p: &mut SignalPool) {
            let src = if p.get_bool(self.sel) { self.b } else { self.a };
            p.copy(self.out, src);
        }
        fn tick(&mut self, _p: &mut SignalPool) {}
        fn tick_changed_state(&self) -> bool {
            false
        }
    }

    #[test]
    fn data_dependent_read_sets_stay_sound() {
        // A mux that switches inputs mid-run: the default scheduler must
        // track the *current* read set, not the first one it saw.
        let mut sim = Simulator::new();
        let sel = sim.pool_mut().add("sel", 1);
        let a = sim.pool_mut().add("a", 8);
        let b = sim.pool_mut().add("b", 8);
        let out = sim.pool_mut().add("out", 8);
        sim.add_component(Mux { sel, a, b, out });
        sim.pool_mut().set_u64(a, 1);
        sim.pool_mut().set_u64(b, 2);
        sim.run_cycle().unwrap();
        assert_eq!(sim.pool().get_u64(out), 1);
        // Flip the select: out follows b.
        sim.pool_mut().set_bool(sel, true);
        sim.run_cycle().unwrap();
        assert_eq!(sim.pool().get_u64(out), 2);
        // Change b while selected: out follows.
        sim.pool_mut().set_u64(b, 7);
        sim.run_cycle().unwrap();
        assert_eq!(sim.pool().get_u64(out), 7);
        // Change a while deselected: out unchanged.
        sim.pool_mut().set_u64(a, 9);
        sim.run_cycle().unwrap();
        assert_eq!(sim.pool().get_u64(out), 7);
    }

    #[test]
    fn compiled_skips_evals_and_counts_them() {
        let build = |mode: EvalMode| {
            let mut sim = Simulator::new();
            sim.set_eval_mode(mode);
            let a = sim.pool_mut().add("a", 8);
            let b = sim.pool_mut().add("b", 8);
            let c = sim.pool_mut().add("c", 8);
            sim.add_component(Wire { x: b, y: c });
            sim.add_component(Wire { x: a, y: b });
            sim.pool_mut().set_u64(a, 3);
            sim.run(10).unwrap();
            sim.stats().clone()
        };
        let comp = build(EvalMode::Compiled);
        assert_eq!(comp.cycles, 10);
        assert!(
            comp.skipped_evals > 0,
            "steady-state cycles must skip evals: {comp:?}"
        );
        // Skipped evals are counted against the same settle passes a full
        // broadcast would have run.
        assert_eq!(
            comp.evals + comp.skipped_evals,
            2 * comp.settle_passes,
            "evals + skips must cover every component on every pass: {comp:?}"
        );
        // The full oracle over the same design executes more evals.
        let full = build(EvalMode::Full);
        assert!(full.evals > comp.evals);
        assert_eq!(full.skipped_evals, 0);
        assert_eq!(full.evals, 2 * full.settle_passes);
    }

    /// Not a pure function of its reads: exposes an internal value that
    /// `tick` advances, but also re-reads nothing — a legal component, used
    /// here with `always_eval` to pin it into every pass.
    struct Pinned {
        out: SignalId,
        evals: std::rc::Rc<std::cell::Cell<u64>>,
    }
    impl Component for Pinned {
        fn name(&self) -> &str {
            "pinned"
        }
        fn eval(&mut self, p: &mut SignalPool) {
            self.evals.set(self.evals.get() + 1);
            p.set_u64(self.out, 5);
        }
        fn tick(&mut self, _p: &mut SignalPool) {}
        fn always_eval(&self) -> bool {
            true
        }
    }

    /// A register with custom save/load, for snapshot round-trip tests.
    struct SnapReg {
        d: SignalId,
        q: SignalId,
        state: u64,
    }
    impl Component for SnapReg {
        fn name(&self) -> &str {
            "snapreg"
        }
        fn eval(&mut self, p: &mut SignalPool) {
            p.set_u64(self.q, self.state);
        }
        fn tick(&mut self, p: &mut SignalPool) {
            self.state = self.state.wrapping_add(p.get_u64(self.d));
        }
        fn save_state(&self, w: &mut crate::state::StateWriter) {
            w.u64(self.state);
        }
        fn load_state(&mut self, r: &mut crate::state::StateReader) -> Result<(), StateError> {
            self.state = r.u64()?;
            Ok(())
        }
    }

    fn snap_build() -> (Simulator, SignalId, SignalId) {
        let mut sim = Simulator::new();
        let d = sim.pool_mut().add("d", 8);
        let q = sim.pool_mut().add("q", 8);
        sim.add_component(SnapReg { d, q, state: 0 });
        sim.pool_mut().set_u64(d, 3);
        (sim, d, q)
    }

    #[test]
    fn snapshot_restore_roundtrip_is_bit_exact() {
        all_modes(|mode| {
            let (mut sim, _, q) = snap_build();
            sim.set_eval_mode(mode);
            sim.run(5).unwrap();
            let snap = sim.snapshot();
            sim.run(5).unwrap();
            let reference = sim.pool().get_u64(q);
            let ref_cycle = sim.cycle();

            // Restore into a freshly built, structurally identical sim.
            let (mut fresh, _, q2) = snap_build();
            fresh.set_eval_mode(mode);
            fresh.restore(&snap).unwrap();
            assert_eq!(fresh.cycle(), 5);
            fresh.run(5).unwrap();
            assert_eq!(fresh.pool().get_u64(q2), reference);
            assert_eq!(fresh.cycle(), ref_cycle);
        });
    }

    #[test]
    fn restore_rejects_corruption_with_typed_errors() {
        let (mut sim, _, _) = snap_build();
        sim.run(3).unwrap();
        let snap = sim.snapshot();
        // Truncation at every boundary: typed error, never a panic.
        for cut in 0..snap.len() {
            let (mut fresh, _, _) = snap_build();
            assert!(fresh.restore(&snap[..cut]).is_err(), "cut at {cut}");
        }
        // Structural mismatch: extra component.
        let (mut bigger, d, q) = snap_build();
        bigger.add_component(SnapReg { d, q, state: 9 });
        assert!(matches!(
            bigger.restore(&snap),
            Err(StateError::Mismatch { .. })
        ));
        // Bad version.
        let mut bad = snap.clone();
        bad[0] = 0xff;
        let (mut fresh, _, _) = snap_build();
        assert!(matches!(
            fresh.restore(&bad),
            Err(StateError::UnsupportedVersion { .. })
        ));
    }

    /// A clock-edge counter that declares its tick reads: counts while
    /// `en` is high. The compiled scheduler may skip its tick (and does,
    /// whenever `en` is low and unchanged).
    struct TickCounter {
        en: SignalId,
        ticks: std::rc::Rc<std::cell::Cell<u64>>,
        quiet: bool,
    }
    impl Component for TickCounter {
        fn name(&self) -> &str {
            "tickctr"
        }
        fn eval(&mut self, _p: &mut SignalPool) {}
        fn tick(&mut self, p: &mut SignalPool) {
            if p.get_bool(self.en) {
                self.ticks.set(self.ticks.get() + 1);
                self.quiet = false;
            } else {
                self.quiet = true;
            }
        }
        fn tick_changed_state(&self) -> bool {
            false
        }
        fn tick_reads(&self) -> Option<Vec<SignalId>> {
            Some(vec![self.en])
        }
        fn tick_quiet(&self) -> bool {
            self.quiet
        }
    }

    #[test]
    fn compiled_skips_quiescent_ticks_but_never_live_ones() {
        let mut sim = Simulator::new();
        sim.set_eval_mode(EvalMode::Compiled);
        let en = sim.pool_mut().add("en", 1);
        let ticks = std::rc::Rc::new(std::cell::Cell::new(0));
        sim.add_component(TickCounter {
            en,
            ticks: std::rc::Rc::clone(&ticks),
            quiet: false,
        });
        // Idle: the first edge runs (conservative books), every later edge
        // is skipped.
        sim.run(10).unwrap();
        assert_eq!(ticks.get(), 0, "en low: no counts");
        assert!(
            sim.stats().tick_skips >= 8,
            "idle edges must be skipped: {:?}",
            sim.stats()
        );
        // Raise en: the dirty signal re-arms the tick, which then counts on
        // every cycle (each executed edge mutates state, so none may skip).
        sim.pool_mut().set_bool(en, true);
        sim.run(5).unwrap();
        assert_eq!(ticks.get(), 5, "every live edge must execute");
        // Drop en: one more edge observes the low level, then skips resume.
        sim.pool_mut().set_bool(en, false);
        let skips_before = sim.stats().tick_skips;
        sim.run(5).unwrap();
        assert_eq!(ticks.get(), 5, "no counts after en fell");
        assert!(sim.stats().tick_skips > skips_before);
    }

    #[test]
    fn compiled_tick_skipping_matches_full_oracle() {
        // The same stimulus through Full and Compiled: identical counts.
        let run = |mode: EvalMode| {
            let mut sim = Simulator::new();
            sim.set_eval_mode(mode);
            let en = sim.pool_mut().add("en", 1);
            let ticks = std::rc::Rc::new(std::cell::Cell::new(0));
            sim.add_component(TickCounter {
                en,
                ticks: std::rc::Rc::clone(&ticks),
                quiet: false,
            });
            for c in 0..20u64 {
                sim.pool_mut().set_bool(en, c % 3 == 0);
                sim.run_cycle().unwrap();
            }
            ticks.get()
        };
        assert_eq!(run(EvalMode::Full), run(EvalMode::Compiled));
    }

    #[test]
    fn compiled_deopt_falls_back_and_recompiles() {
        // W is inserted first, M second; with no edges between them the
        // compiled order puts M before W. Flipping the mux select makes M
        // read `b` — which W writes *after* M ran — so the settle must
        // deopt (backward wake), still converge to the right value, and
        // recompile into the corrected order for later cycles.
        let mut sim = Simulator::new();
        sim.set_eval_mode(EvalMode::Compiled);
        let sel = sim.pool_mut().add("sel", 1);
        let a = sim.pool_mut().add("a", 8);
        let x = sim.pool_mut().add("x", 8);
        let b = sim.pool_mut().add("b", 8);
        let out = sim.pool_mut().add("out", 8);
        sim.add_component(Wire { x, y: b });
        sim.add_component(Mux { sel, a, b, out });
        sim.pool_mut().set_u64(a, 1);
        sim.run_cycle().unwrap();
        assert_eq!(sim.pool().get_u64(out), 1);
        assert_eq!(sim.stats().deopts, 0);
        assert_eq!(sim.stats().recompiles, 1);

        // Flip the select and change the upstream value in the same cycle.
        sim.pool_mut().set_bool(sel, true);
        sim.pool_mut().set_u64(x, 5);
        sim.run_cycle().unwrap();
        assert_eq!(
            sim.pool().get_u64(out),
            5,
            "deopt cycle still settles right"
        );
        assert!(sim.stats().deopts >= 1, "stale-order wake must count");

        // The requested recompile reorders W before M: later propagation is
        // deopt-free.
        sim.run_cycle().unwrap();
        assert_eq!(sim.stats().recompiles, 2);
        let deopts = sim.stats().deopts;
        sim.pool_mut().set_u64(x, 7);
        sim.run_cycle().unwrap();
        assert_eq!(sim.pool().get_u64(out), 7);
        assert_eq!(
            sim.stats().deopts,
            deopts,
            "recompiled order needs no deopt"
        );
    }

    #[test]
    fn always_eval_components_run_every_pass() {
        all_modes(|mode| {
            let mut sim = Simulator::new();
            sim.set_eval_mode(mode);
            let a = sim.pool_mut().add("a", 8);
            let b = sim.pool_mut().add("b", 8);
            let o = sim.pool_mut().add("o", 8);
            let evals = std::rc::Rc::new(std::cell::Cell::new(0));
            sim.add_component(Pinned {
                out: o,
                evals: std::rc::Rc::clone(&evals),
            });
            sim.add_component(Wire { x: a, y: b });
            for v in 1..=5 {
                sim.pool_mut().set_u64(a, v);
                sim.run_cycle().unwrap();
            }
            // The pinned component runs on every settle pass. Under
            // Compiled, each schedule build also evals it once in the
            // footprint scan, which `SimStats::evals` does not count.
            let stats = sim.stats();
            let scans = match mode {
                EvalMode::Full => 0,
                EvalMode::Compiled => stats.recompiles,
            };
            assert_eq!(evals.get(), stats.settle_passes + scans, "{mode:?}");
        });
    }
}
