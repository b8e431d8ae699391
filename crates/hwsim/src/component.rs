//! The component model: synchronous hardware blocks.

use crate::signal::SignalPool;
use crate::state::{StateError, StateReader, StateWriter};

/// A synchronous hardware component.
///
/// Components follow the standard two-phase RTL discipline:
///
/// * [`eval`](Component::eval) computes *combinational* outputs from the
///   component's registered state and the current signal values. It may be
///   called several times per cycle while the scheduler searches for the
///   combinational fixed point, so it must be **idempotent**: calling it
///   again with unchanged inputs must write the same outputs.
/// * [`tick`](Component::tick) is the clock edge. It may read the settled
///   signal values and update the component's internal state, but it must
///   **not** write signals (registered outputs become visible through the
///   next cycle's `eval`). Tick order across components is unspecified, so a
///   correct component never depends on it.
///
/// ```
/// use vidi_hwsim::{Component, SignalId, SignalPool, Simulator};
///
/// /// An 8-bit counter that increments while `enable` is high.
/// struct Counter {
///     enable: SignalId,
///     count: SignalId,
///     state: u64,
/// }
///
/// impl Component for Counter {
///     fn name(&self) -> &str {
///         "counter"
///     }
///     fn eval(&mut self, p: &mut SignalPool) {
///         p.set_u64(self.count, self.state);
///     }
///     fn tick(&mut self, p: &mut SignalPool) {
///         if p.get_bool(self.enable) {
///             self.state = (self.state + 1) & 0xff;
///         }
///     }
/// }
///
/// let mut sim = Simulator::new();
/// let enable = sim.pool_mut().add("enable", 1);
/// let count = sim.pool_mut().add("count", 8);
/// sim.add_component(Counter { enable, count, state: 0 });
/// sim.pool_mut().set_bool(enable, true);
/// sim.run(5).unwrap();
/// // `count` is a registered output: the visible signal reflects the state
/// // at the last settle phase, one cycle behind the internal register.
/// assert_eq!(sim.pool().get_u64(count), 4);
/// ```
pub trait Component {
    /// A diagnostic name for error messages and waveforms.
    fn name(&self) -> &str;

    /// Computes combinational outputs from internal state and input signals.
    /// Must be idempotent; see the trait documentation.
    fn eval(&mut self, pool: &mut SignalPool);

    /// The clock edge: reads settled signals and updates internal state.
    /// Must not write signals; see the trait documentation.
    fn tick(&mut self, pool: &mut SignalPool);

    /// Reports why this component is stalled, if it is. Called by the
    /// scheduler when a watchdog expires (see
    /// [`Simulator::diagnostics`](crate::Simulator::diagnostics)); each
    /// returned line should name the blocked resource — a channel waiting on
    /// READY, an unmet vector-clock entry, an exhausted credit pool. The
    /// default reports nothing.
    fn diagnostics(&self, pool: &SignalPool) -> Vec<String> {
        let _ = pool;
        Vec::new()
    }

    /// Whether the scheduler must re-evaluate this component on **every**
    /// settle pass, opting out of sensitivity-driven skipping.
    ///
    /// The compiled scheduler assumes `eval` is a pure function of the
    /// component's internal state and the signals it read during its most
    /// recent `eval` (which the idempotence contract above already implies
    /// for well-behaved components). A component that violates that
    /// assumption — e.g. one whose outputs depend on hidden inputs the pool
    /// cannot observe — must return `true` here to be pinned into every
    /// pass, restoring full-broadcast semantics for itself alone. The
    /// default is `false`.
    fn always_eval(&self) -> bool {
        false
    }

    /// Whether the most recent [`tick`](Component::tick) may have changed
    /// state that [`eval`](Component::eval) depends on.
    ///
    /// The compiled scheduler re-evaluates a component at the start of a
    /// cycle only if a signal in its sensitivity set changed **or** this
    /// method reports the last clock edge was not quiescent. The default is
    /// `true` — always conservative, never wrong. Components whose `tick`
    /// is empty can override to return `false` unconditionally; stateful
    /// components can track whether the last edge actually mutated
    /// eval-relevant state (see `ChannelMonitor` in `vidi-core`). State
    /// `eval` never reads (diagnostic counters, statistics) need not be
    /// reported.
    fn tick_changed_state(&self) -> bool {
        true
    }

    /// Declares the superset of signals this component's
    /// [`tick`](Component::tick) ever reads, opting into clock-edge
    /// skipping under [`EvalMode::Compiled`](crate::EvalMode::Compiled).
    ///
    /// `None` (the default) means "undeclared": the tick runs every cycle,
    /// which is always sound. A `Some` declaration is a contract with the
    /// compiled scheduler, which then skips the component's tick on cycles
    /// where **no declared signal changed since its last executed tick**
    /// *and* that last tick reported itself quiet via
    /// [`tick_quiet`](Component::tick_quiet). Soundness is by induction:
    /// same inputs + a `tick` that is a pure function of (declared signals,
    /// internal state) + a previous edge that mutated nothing ⇒ this edge
    /// mutates nothing either, so not running it is unobservable.
    ///
    /// Declaring components must therefore (a) list **every** signal their
    /// `tick` can read on any path, (b) have a `tick` with no hidden inputs
    /// (no RNG, no shared channels), and (c) have a
    /// [`fault`](Component::fault) that depends only on state its own tick
    /// mutates — the scheduler also skips the fault poll of a skipped edge.
    /// The returned set must be stable for the component's lifetime.
    fn tick_reads(&self) -> Option<Vec<crate::SignalId>> {
        None
    }

    /// Whether the most recent **executed** [`tick`](Component::tick)
    /// mutated nothing beyond what [`tick_elided`](Component::tick_elided)
    /// replays.
    ///
    /// Stricter than [`tick_changed_state`](Component::tick_changed_state)
    /// (which only covers eval-relevant state): counters, statistics, and
    /// buffered transactions all count as mutations here, because a skipped
    /// edge executes only `tick_elided`. Free-running local time (a cycle
    /// counter, saturating credit accrual) is the one exception: a tick that
    /// did nothing but advance it may still report quiet, provided
    /// `tick_elided` advances it identically. Only consulted for components
    /// that declare [`tick_reads`](Component::tick_reads); the default
    /// `false` never skips.
    fn tick_quiet(&self) -> bool {
        false
    }

    /// An upper bound on how many *consecutive* future clock edges this
    /// component's [`tick`](Component::tick) is guaranteed to be idle for —
    /// equivalent to [`tick_elided`](Component::tick_elided) — assuming no
    /// declared [`tick_reads`](Component::tick_reads) signal changes.
    ///
    /// Polled once after every executed tick. `None` (the default) means
    /// *unbounded*: the component is purely signal-driven and idles forever
    /// until an input changes. A component with an armed local timer (a
    /// wake-up deadline, a delayed response becoming due) must instead
    /// return `Some(k)` where the timer cannot fire within the next `k`
    /// edges; the scheduler executes the `k+1`-th edge even if no declared
    /// signal changed. `Some(0)` forces the very next edge to execute.
    fn tick_holdoff(&self) -> Option<u64> {
        None
    }

    /// Replays one skipped clock edge's worth of free-running local time.
    ///
    /// Called by the compiled scheduler *instead of* [`tick`] on each edge
    /// it skips, so that local clocks stay exact and snapshots, digests and
    /// diagnostics taken at any cycle boundary are bit-identical to a run
    /// that never skipped. Must mutate exactly what an idle `tick` (one
    /// within the [`tick_holdoff`](Component::tick_holdoff) window, with
    /// unchanged declared signals, following a
    /// [`tick_quiet`](Component::tick_quiet) edge) would have mutated, and
    /// must be cheap — it runs on every skipped edge. The default does
    /// nothing, which is correct for components with no local clock.
    ///
    /// [`tick`]: Component::tick
    fn tick_elided(&mut self) {}

    /// Reports a latched unrecoverable fault, if any. Polled by the
    /// scheduler after every clock edge; a `Some` return aborts the run with
    /// [`SimError::ComponentFault`](crate::SimError::ComponentFault) naming
    /// this component. Use this instead of panicking for invariants that
    /// injected faults or corrupt inputs can violate. The default reports no
    /// fault.
    fn fault(&self) -> Option<String> {
        None
    }

    /// Serializes the component's registered state into `w` for a
    /// checkpoint (see [`Simulator::snapshot`](crate::Simulator::snapshot)).
    ///
    /// The encoding contract is positional: [`load_state`] must read the
    /// exact same fields in the exact same order. Only *dynamic* state
    /// belongs here — structure (signal ids, wiring, closures, workload
    /// definitions) is re-created by building the component fresh before
    /// restoring into it. Purely combinational components can keep the
    /// default, which writes nothing.
    ///
    /// [`load_state`]: Component::load_state
    fn save_state(&self, w: &mut StateWriter) {
        let _ = w;
    }

    /// Restores the state written by [`save_state`] into this (freshly
    /// constructed, structurally identical) component.
    ///
    /// Implementations must consume exactly the bytes their `save_state`
    /// wrote and must never panic on malformed input: every decode failure
    /// surfaces as a typed [`StateError`]. The default accepts the default
    /// `save_state`'s empty blob.
    ///
    /// [`save_state`]: Component::save_state
    fn load_state(&mut self, r: &mut StateReader) -> Result<(), StateError> {
        let _ = r;
        Ok(())
    }
}
