//! Static design lint (rules `VL001`–`VL005`).
//!
//! The input is a one-shot recording pass over a freshly built design
//! ([`vidi_hwsim::Simulator::access_scan`]): every component's `eval` runs
//! once with signal-access logging on, yielding each component's
//! chronological read/write log. From those logs the linter builds a static
//! dataflow graph using the *reads-before-a-write* approximation — within
//! one component's evaluation, a write is assumed to depend on every signal
//! the component read earlier in the same pass. This is precise enough to
//! prove the shipped designs cycle-free while still catching every
//! combinational loop the runtime's fixed-point bound would trip on, because
//! an oscillating `eval` necessarily reads the looping signal before
//! rewriting it.

use std::collections::HashMap;

use vidi_chan::{Channel, Direction};
use vidi_hwsim::{ComponentAccess, SignalPool};
use vidi_trace::ChannelInfo;

use crate::diag::{Certificate, CycleStep, Diagnostic, Severity};
use crate::graph;

/// Name and width of one signal, snapshot from a [`SignalPool`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DesignSignal {
    /// Diagnostic name.
    pub name: String,
    /// Width in bits.
    pub width: u32,
}

/// Snapshots every signal of a pool, indexed by [`vidi_hwsim::SignalId`]
/// position.
pub fn snapshot_signals(pool: &SignalPool) -> Vec<DesignSignal> {
    pool.ids()
        .map(|id| DesignSignal {
            name: pool.name(id).to_string(),
            width: pool.width(id),
        })
        .collect()
}

/// Everything the design linter needs about one assembled design.
pub struct DesignSpec {
    /// Design name; the first path segment of every diagnostic location.
    pub name: String,
    /// Signal table (index = signal id).
    pub signals: Vec<DesignSignal>,
    /// Per-component access logs from the one-shot scan.
    pub components: Vec<ComponentAccess>,
    /// VALID/READY channels crossing the CPU↔FPGA shim boundary.
    pub boundary: Vec<(Channel, Direction)>,
    /// The shim's trace layout: the channels actually wrapped by a
    /// `ChannelMonitor`.
    pub monitored: Vec<ChannelInfo>,
    /// Signals the harness forces directly on the pool; exempt from
    /// floating-input lint.
    pub external: Vec<String>,
}

// The reads-before-a-write edge builder now lives next to the compiled
// scheduler, which levelizes the same graph at simulator setup.
pub use vidi_hwsim::dependency_edges;

/// Runs every static rule over a design, returning the diagnostics in rule
/// order (`VL001` first).
pub fn lint_design(spec: &DesignSpec) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let loc = |sig: &str| format!("{}/{}", spec.name, sig);

    // ── VL001: combinational cycles (Tarjan SCC over dependency edges) ──
    let edges = dependency_edges(&spec.components);
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); spec.signals.len()];
    let mut edge_component: HashMap<(usize, usize), usize> = HashMap::new();
    for &(r, w, ci) in &edges {
        adj[r].push(w);
        edge_component.entry((r, w)).or_insert(ci);
    }
    for cycle in graph::find_cycles(&adj) {
        let steps: Vec<CycleStep> = cycle
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let next = cycle[(i + 1) % cycle.len()];
                CycleStep {
                    signal: spec.signals[s].name.clone(),
                    component: spec.components[edge_component[&(s, next)]]
                        .component
                        .clone(),
                }
            })
            .collect();
        let path: Vec<&str> = steps.iter().map(|s| s.signal.as_str()).collect();
        out.push(Diagnostic {
            rule: "VL001",
            severity: Severity::Error,
            location: loc(&spec.signals[cycle[0]].name),
            message: format!(
                "combinational cycle: {} -> {} — the runtime would abort with \
                 CombinationalLoop after exhausting its fixed-point bound",
                path.join(" -> "),
                path[0]
            ),
            certificate: Certificate::SignalCycle(steps),
        });
    }

    // ── VL002: multiple drivers ──────────────────────────────────────────
    // Reader/writer tables come from the same deduplicated read/write sets
    // the compiled scheduler seeds its schedule with.
    let mut writers: Vec<Vec<usize>> = vec![Vec::new(); spec.signals.len()];
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); spec.signals.len()];
    for (ci, comp) in spec.components.iter().enumerate() {
        for id in comp.read_set() {
            readers[id.index()].push(ci);
        }
        for id in comp.write_set() {
            writers[id.index()].push(ci);
        }
    }
    for (s, ws) in writers.iter().enumerate() {
        if ws.len() > 1 {
            let names: Vec<&str> = ws
                .iter()
                .map(|&ci| spec.components[ci].component.as_str())
                .collect();
            out.push(Diagnostic {
                rule: "VL002",
                severity: Severity::Error,
                location: loc(&spec.signals[s].name),
                message: format!(
                    "signal driven by {} components: {}",
                    names.len(),
                    names.join(", ")
                ),
                certificate: Certificate::Facts(vec![("drivers".to_string(), names.join(", "))]),
            });
        }
    }

    // ── VL003: floating inputs ───────────────────────────────────────────
    for (s, rs) in readers.iter().enumerate() {
        if rs.is_empty() || !writers[s].is_empty() {
            continue;
        }
        let name = &spec.signals[s].name;
        if spec.external.iter().any(|e| e == name) {
            continue;
        }
        let names: Vec<&str> = rs
            .iter()
            .map(|&ci| spec.components[ci].component.as_str())
            .collect();
        out.push(Diagnostic {
            rule: "VL003",
            severity: Severity::Warning,
            location: loc(name),
            message: format!(
                "floating input: read by {} but driven by no component",
                names.join(", ")
            ),
            certificate: Certificate::Facts(vec![("readers".to_string(), names.join(", "))]),
        });
    }

    // ── VL004: boundary width mismatches ─────────────────────────────────
    for (ch, _dir) in &spec.boundary {
        for (sig, expect, what) in [
            (ch.valid, 1, "VALID"),
            (ch.ready, 1, "READY"),
            (ch.data, ch.width(), "DATA"),
        ] {
            let actual = spec.signals[sig.index()].width;
            if actual != expect {
                out.push(Diagnostic {
                    rule: "VL004",
                    severity: Severity::Error,
                    location: loc(&spec.signals[sig.index()].name),
                    message: format!(
                        "{what} of channel {} is {actual} bits, expected {expect}",
                        ch.name()
                    ),
                    certificate: Certificate::Facts(vec![
                        ("expected".to_string(), expect.to_string()),
                        ("actual".to_string(), actual.to_string()),
                    ]),
                });
            }
        }
        if let Some(info) = spec.monitored.iter().find(|m| m.name == ch.name()) {
            if info.width != ch.width() {
                out.push(Diagnostic {
                    rule: "VL004",
                    severity: Severity::Error,
                    location: loc(ch.name()),
                    message: format!(
                        "trace layout records {} at {} bits but the channel is {} bits wide",
                        ch.name(),
                        info.width,
                        ch.width()
                    ),
                    certificate: Certificate::Facts(vec![
                        ("layout_width".to_string(), info.width.to_string()),
                        ("channel_width".to_string(), ch.width().to_string()),
                    ]),
                });
            }
        }
    }

    // ── VL005: boundary coverage ─────────────────────────────────────────
    for (ch, dir) in &spec.boundary {
        if !spec.monitored.iter().any(|m| m.name == ch.name()) {
            out.push(Diagnostic {
                rule: "VL005",
                severity: Severity::Error,
                location: loc(ch.name()),
                message: format!(
                    "{dir} channel {} crosses the CPU-FPGA boundary without a \
                     ChannelMonitor: its transactions would be invisible to \
                     record/replay, silently breaking transaction determinism",
                    ch.name()
                ),
                certificate: Certificate::Facts(vec![
                    ("channel".to_string(), ch.name().to_string()),
                    ("direction".to_string(), dir.to_string()),
                ]),
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vidi_hwsim::{Component, SignalPool, Simulator};

    /// `out = f(in)` combinationally — reads then writes.
    struct Comb {
        name: String,
        reads: Vec<vidi_hwsim::SignalId>,
        writes: Vec<vidi_hwsim::SignalId>,
    }
    impl Component for Comb {
        fn name(&self) -> &str {
            &self.name
        }
        fn eval(&mut self, p: &mut SignalPool) {
            let mut acc = 0u64;
            for &r in &self.reads {
                acc ^= p.get_u64(r);
            }
            for &w in &self.writes {
                p.set_u64(w, acc ^ 1);
            }
        }
        fn tick(&mut self, _p: &mut SignalPool) {}
    }

    fn spec_from(sim: &mut Simulator, name: &str) -> DesignSpec {
        let components = sim.access_scan();
        DesignSpec {
            name: name.into(),
            signals: snapshot_signals(sim.pool()),
            components,
            boundary: Vec::new(),
            monitored: Vec::new(),
            external: Vec::new(),
        }
    }

    #[test]
    fn clean_chain_has_no_diagnostics() {
        let mut sim = Simulator::new();
        let a = sim.pool_mut().add("a", 8);
        let b = sim.pool_mut().add("b", 8);
        let c = sim.pool_mut().add("c", 8);
        sim.add_component(Comb {
            name: "u0".into(),
            reads: vec![a],
            writes: vec![b],
        });
        sim.add_component(Comb {
            name: "u1".into(),
            reads: vec![b],
            writes: vec![c],
        });
        let mut spec = spec_from(&mut sim, "t");
        spec.external = vec!["a".into()];
        assert_eq!(lint_design(&spec), vec![]);
    }

    #[test]
    fn cycle_reported_with_exact_path() {
        let mut sim = Simulator::new();
        let a = sim.pool_mut().add("a", 8);
        let b = sim.pool_mut().add("b", 8);
        sim.add_component(Comb {
            name: "fwd".into(),
            reads: vec![a],
            writes: vec![b],
        });
        sim.add_component(Comb {
            name: "back".into(),
            reads: vec![b],
            writes: vec![a],
        });
        let spec = spec_from(&mut sim, "t");
        let diags = lint_design(&spec);
        assert_eq!(diags.len(), 1);
        let d = &diags[0];
        assert_eq!(d.rule, "VL001");
        match &d.certificate {
            Certificate::SignalCycle(steps) => {
                assert_eq!(
                    steps
                        .iter()
                        .map(|s| (s.signal.as_str(), s.component.as_str()))
                        .collect::<Vec<_>>(),
                    vec![("a", "fwd"), ("b", "back")]
                );
            }
            other => panic!("expected signal cycle, got {other:?}"),
        }
    }

    #[test]
    fn multiple_driver_and_floating_input() {
        let mut sim = Simulator::new();
        let x = sim.pool_mut().add("x", 8);
        let y = sim.pool_mut().add("y", 8);
        sim.add_component(Comb {
            name: "d0".into(),
            reads: vec![x],
            writes: vec![y],
        });
        sim.add_component(Comb {
            name: "d1".into(),
            reads: vec![],
            writes: vec![y],
        });
        let spec = spec_from(&mut sim, "t");
        let diags = lint_design(&spec);
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["VL002", "VL003"]);
        assert_eq!(diags[0].location, "t/y");
        assert!(diags[0].message.contains("d0, d1"));
        assert_eq!(diags[1].location, "t/x");
    }

    #[test]
    fn boundary_rules() {
        use vidi_chan::{Channel, Direction};
        use vidi_trace::ChannelInfo;
        let mut sim = Simulator::new();
        let monitored = Channel::new(sim.pool_mut(), "m", 32);
        let unmonitored = Channel::new(sim.pool_mut(), "u", 16);
        let spec = DesignSpec {
            name: "t".into(),
            signals: snapshot_signals(sim.pool()),
            components: Vec::new(),
            boundary: vec![
                (monitored, Direction::Input),
                (unmonitored, Direction::Output),
            ],
            monitored: vec![ChannelInfo {
                name: "m".into(),
                width: 64, // deliberately wrong
                direction: Direction::Input,
            }],
            external: Vec::new(),
        };
        let diags = lint_design(&spec);
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["VL004", "VL005"]);
        assert!(diags[0].message.contains("64 bits"));
        assert_eq!(diags[1].location, "t/u");
    }
}
