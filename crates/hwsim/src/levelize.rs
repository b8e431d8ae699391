//! Levelization: compiling the access-scan dataflow graph into a static
//! evaluation schedule for [`EvalMode::Compiled`](crate::EvalMode::Compiled).
//!
//! The compiled scheduler turns the component-level dependency graph
//! (component `A` feeds component `B` iff `A` writes a signal in `B`'s read
//! set, under the same *reads-before-a-write* approximation static lint
//! uses) into a topologically-ordered straight-line sweep: Tarjan SCC over
//! the graph, condensation in topological order, components of one SCC kept
//! in insertion order. On an acyclic design with stable read sets a settle
//! phase is then a **single pass** over [`CompiledSchedule::order`] —
//! every writer runs before its readers, so no signal is ever read stale.
//!
//! Read sets observed at runtime may *grow* (data-dependent control flow);
//! the schedule unions them in place so wake propagation stays complete,
//! and the scheduler counts a **deoptimization** whenever a write has to
//! wake an earlier-or-equal schedule position — the case where the compiled
//! order was wrong and the settle falls back to multi-pass worklist
//! iteration for that cycle (see `Simulator::run_cycle`).

use crate::graph;
use crate::signal::SignalId;

/// The precomputed evaluation schedule of one compiled design.
///
/// Built by [`compile_schedule`] from per-component read/write sets; owned
/// and mutated (read-set unions, observed writes) by the simulator while
/// [`EvalMode::Compiled`](crate::EvalMode::Compiled) is active.
#[derive(Debug)]
pub struct CompiledSchedule {
    /// Component indices in evaluation order: upstream writers before their
    /// readers; members of one cyclic SCC in insertion order.
    pub(crate) order: Vec<u32>,
    /// Inverse of `order`: `pos[comp]` is the component's sweep position.
    pub(crate) pos: Vec<u32>,
    /// Per-component compiled read set (first-seen order, union-grown at
    /// runtime when an eval reads outside its compiled sensitivity).
    pub(crate) reads: Vec<Vec<SignalId>>,
    /// Per-component observed write set; seeds the dependency graph of the
    /// next recompile.
    pub(crate) writes: Vec<Vec<SignalId>>,
    /// Per-component read set captured by the component's most recent eval.
    /// An eval whose capture equals this cache is already fully unioned
    /// into `reads`/`readers`, so the sweep skips the per-read scans — the
    /// steady-state fast path.
    pub(crate) last_reads: Vec<Vec<SignalId>>,
    /// Per-signal reader lists over the compiled read sets: the static wake
    /// tables the settle sweep consults after every changed signal.
    pub(crate) readers: Vec<Vec<u32>>,
    /// Per-component: member of a cyclic SCC (including a self-loop). Wakes
    /// backward into a known-cyclic component are expected worklist
    /// iteration, not a mis-speculated order, and are not counted as
    /// deoptimizations.
    pub(crate) cyclic: Vec<bool>,
    /// Number of weakly-connected regions of the component graph. Regions
    /// have disjoint write sets (single-driver designs), so they are the
    /// provably-independent partition a parallel sweep could exploit; the
    /// shipped sweep visits them sequentially in one deterministic order.
    pub(crate) regions: u32,
    /// Per-signal tick-watcher lists from declared
    /// [`Component::tick_reads`](crate::Component::tick_reads) sets.
    pub(crate) tick_readers: Vec<Vec<u32>>,
    /// Per-component: declared a tick read set, so its clock edge may be
    /// skipped while no declared signal changes and its last executed tick
    /// mutated nothing.
    pub(crate) tick_skippable: Vec<bool>,
}

impl CompiledSchedule {
    /// Number of weakly-connected independent regions of the design.
    pub fn regions(&self) -> u32 {
        self.regions
    }

    /// The compiled evaluation order, as component indices.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Whether a component belongs to a cyclic SCC of the compiled graph.
    pub fn is_cyclic(&self, component: usize) -> bool {
        self.cyclic[component]
    }
}

/// Dependency edges `(read signal, written signal, component index)` under
/// the reads-before-a-write approximation, deduplicated, in first-seen
/// order. Shared by static lint (`VL001`) and the compiled scheduler's
/// graph construction; re-exported by `vidi-lint`.
pub fn dependency_edges(components: &[crate::sim::ComponentAccess]) -> Vec<(usize, usize, usize)> {
    use crate::signal::SignalAccess;
    let mut edges = Vec::new();
    let mut seen: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    for (ci, comp) in components.iter().enumerate() {
        let mut reads: Vec<usize> = Vec::new();
        for acc in &comp.accesses {
            match *acc {
                SignalAccess::Read(id) => {
                    if !reads.contains(&id.index()) {
                        reads.push(id.index());
                    }
                }
                SignalAccess::Write(id) => {
                    for &r in &reads {
                        if seen.insert((r, id.index())) {
                            edges.push((r, id.index(), ci));
                        }
                    }
                }
            }
        }
    }
    edges
}

/// Builds the compiled schedule for a design of `n_signals` signals from
/// per-component deduplicated read and write sets plus each component's
/// declared tick read set (`None` = the component's tick always runs).
///
/// Deterministic: identical inputs produce an identical schedule.
pub fn compile_schedule(
    n_signals: usize,
    reads: Vec<Vec<SignalId>>,
    writes: Vec<Vec<SignalId>>,
    tick_reads: &[Option<Vec<SignalId>>],
) -> CompiledSchedule {
    let n = reads.len();
    assert_eq!(writes.len(), n, "reads/writes describe the same components");
    assert_eq!(tick_reads.len(), n, "one tick declaration per component");

    // Signal -> writer components.
    let mut writer_of: Vec<Vec<u32>> = vec![Vec::new(); n_signals];
    for (i, ws) in writes.iter().enumerate() {
        for &s in ws {
            writer_of[s.index()].push(u32::try_from(i).expect("component count fits u32"));
        }
    }

    // Component adjacency: A -> B iff A writes a signal B reads. Self-loops
    // (a component reading a signal before rewriting it) are kept — they
    // make the node a cyclic SCC, which is exactly how the runtime treats
    // such a component (worklist iteration, combinational-loop bound).
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (b, rs) in reads.iter().enumerate() {
        for &s in rs {
            for &a in &writer_of[s.index()] {
                adj[a as usize].push(b);
            }
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }

    // Tarjan returns SCCs in reverse topological order (sinks first);
    // reverse for an upstream-writers-first sweep. Within one SCC the
    // insertion order is kept, preserving the other schedulers' in-SCC
    // determinism.
    let sccs = graph::tarjan_sccs(&adj);
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut cyclic = vec![false; n];
    for scc in sccs.iter().rev() {
        let cyc = graph::scc_is_cyclic(&adj, scc);
        let mut members: Vec<usize> = scc.clone();
        members.sort_unstable();
        for &m in &members {
            cyclic[m] = cyc;
            order.push(u32::try_from(m).expect("component count fits u32"));
        }
    }
    let mut pos = vec![0u32; n];
    for (k, &c) in order.iter().enumerate() {
        pos[c as usize] = u32::try_from(k).expect("component count fits u32");
    }

    // Weakly-connected regions via union-find over the (undirected) edges.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (a, l) in adj.iter().enumerate() {
        for &b in l {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra.max(rb)] = ra.min(rb);
            }
        }
    }
    let mut roots: Vec<usize> = (0..n).map(|i| find(&mut parent, i)).collect();
    roots.sort_unstable();
    roots.dedup();
    let regions = u32::try_from(roots.len()).expect("component count fits u32");

    // Static wake tables.
    let mut readers: Vec<Vec<u32>> = vec![Vec::new(); n_signals];
    for (i, rs) in reads.iter().enumerate() {
        for &s in rs {
            readers[s.index()].push(u32::try_from(i).expect("component count fits u32"));
        }
    }
    let mut tick_readers: Vec<Vec<u32>> = vec![Vec::new(); n_signals];
    let mut tick_skippable = vec![false; n];
    for (i, decl) in tick_reads.iter().enumerate() {
        if let Some(sigs) = decl {
            tick_skippable[i] = true;
            for &s in sigs {
                tick_readers[s.index()].push(u32::try_from(i).expect("component count fits u32"));
            }
        }
    }

    let last_reads = vec![Vec::new(); n];
    CompiledSchedule {
        order,
        pos,
        reads,
        writes,
        last_reads,
        readers,
        cyclic,
        regions,
        tick_readers,
        tick_skippable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::SignalPool;

    fn sid(pool: &mut SignalPool, n: usize) -> Vec<SignalId> {
        (0..n).map(|i| pool.add(format!("s{i}"), 8)).collect()
    }

    #[test]
    fn chain_is_levelized_upstream_first() {
        // c0: s0 -> s1, c1: s1 -> s2, added in REVERSE order.
        let mut p = SignalPool::new();
        let s = sid(&mut p, 3);
        let reads = vec![vec![s[1]], vec![s[0]]];
        let writes = vec![vec![s[2]], vec![s[1]]];
        let sched = compile_schedule(p.len(), reads, writes, &[None, None]);
        assert_eq!(sched.order(), &[1, 0], "writer of s1 sweeps first");
        assert_eq!(sched.pos[1], 0);
        assert!(!sched.is_cyclic(0) && !sched.is_cyclic(1));
        assert_eq!(sched.regions(), 1);
    }

    #[test]
    fn cycles_are_flagged_and_kept_in_insertion_order() {
        // c0 and c1 feed each other; c2 is independent.
        let mut p = SignalPool::new();
        let s = sid(&mut p, 3);
        let reads = vec![vec![s[1]], vec![s[0]], vec![]];
        let writes = vec![vec![s[0]], vec![s[1]], vec![s[2]]];
        let sched = compile_schedule(p.len(), reads, writes, &[None, None, None]);
        assert!(sched.is_cyclic(0) && sched.is_cyclic(1));
        assert!(!sched.is_cyclic(2));
        // Cyclic SCC members stay in insertion order relative to each other.
        let p0 = sched.pos[0];
        let p1 = sched.pos[1];
        assert!(p0 < p1, "insertion order within the SCC");
        assert_eq!(sched.regions(), 2);
    }

    #[test]
    fn self_loop_is_cyclic() {
        let mut p = SignalPool::new();
        let s = sid(&mut p, 1);
        let sched = compile_schedule(p.len(), vec![vec![s[0]]], vec![vec![s[0]]], &[None]);
        assert!(sched.is_cyclic(0));
    }

    #[test]
    fn tick_tables_follow_declarations() {
        let mut p = SignalPool::new();
        let s = sid(&mut p, 2);
        let sched = compile_schedule(
            p.len(),
            vec![vec![], vec![]],
            vec![vec![s[0]], vec![s[1]]],
            &[Some(vec![s[1]]), None],
        );
        assert!(sched.tick_skippable[0]);
        assert!(!sched.tick_skippable[1]);
        assert_eq!(sched.tick_readers[s[1].index()], vec![0]);
        assert!(sched.tick_readers[s[0].index()].is_empty());
    }
}
