//! The shared diagnostics engine: severities, structured certificates, and
//! their JSON rendering (through [`vidi_bench::json`]).
//!
//! Every analyzer — the static design lint and the offline trace analyzer —
//! reports through [`Diagnostic`]. A diagnostic is machine-checkable: besides
//! the human-readable message it carries a [`Certificate`], the witness that
//! makes the finding verifiable without re-running the analysis (a signal
//! loop path, a happens-before cycle, or the raw facts that violate an
//! invariant).

use std::fmt;

use vidi_bench::json::{obj, Json};

/// How serious a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Informational finding; never gates CI.
    Info,
    /// Suspicious but potentially intentional; gates CI unless allowed.
    Warning,
    /// Definite defect; gates CI unless allowed.
    Error,
}

impl Severity {
    /// Lower-case label used in text and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which trace ordered the happens-before edge leaving a cycle step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeOrigin {
    /// The edge is the recorded execution's order (the reference trace).
    Recorded,
    /// The edge is the order the replay engine will enforce (the mutated /
    /// replayed trace).
    Replay,
}

impl EdgeOrigin {
    fn as_str(self) -> &'static str {
        match self {
            EdgeOrigin::Recorded => "recorded",
            EdgeOrigin::Replay => "replay",
        }
    }
}

/// One step of a combinational-loop certificate: a signal, and the component
/// whose evaluation propagates it to the next step's signal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CycleStep {
    /// Signal name.
    pub signal: String,
    /// Component driving the edge from this signal to the next step.
    pub component: String,
}

/// One step of a happens-before-cycle certificate: a transaction end event,
/// and the origin of the ordering edge to the next step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HbStep {
    /// Channel name.
    pub channel: String,
    /// Zero-based index among the channel's end events.
    pub end_index: u64,
    /// Which trace orders this event before the next step's event.
    pub edge: EdgeOrigin,
}

/// The machine-readable witness backing a diagnostic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Certificate {
    /// No structured witness beyond the message.
    None,
    /// A signal dependency loop, in order; the last step feeds the first.
    SignalCycle(Vec<CycleStep>),
    /// A happens-before cycle over end events; the last step's edge closes
    /// the loop back to the first.
    HbCycle(Vec<HbStep>),
    /// Key/value facts establishing an invariant violation.
    Facts(Vec<(String, String)>),
}

/// A single finding from any analyzer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Rule identifier (`VL…` for design lint, `VT…` for trace analysis).
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Where the finding is: `design/signal` or `trace/channel`.
    pub location: String,
    /// Human-readable explanation.
    pub message: String,
    /// Machine-readable witness.
    pub certificate: Certificate,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule, self.location, self.message
        )?;
        match &self.certificate {
            Certificate::None => Ok(()),
            Certificate::SignalCycle(steps) => {
                write!(f, "\n  loop:")?;
                for s in steps {
                    write!(f, "\n    {} --[{}]-->", s.signal, s.component)?;
                }
                write!(f, "\n    {} (closes the loop)", steps[0].signal)
            }
            Certificate::HbCycle(steps) => {
                write!(f, "\n  cycle:")?;
                for s in steps {
                    write!(
                        f,
                        "\n    {}.end#{} --[{} order]-->",
                        s.channel,
                        s.end_index,
                        s.edge.as_str()
                    )?;
                }
                write!(
                    f,
                    "\n    {}.end#{} (closes the cycle)",
                    steps[0].channel, steps[0].end_index
                )
            }
            Certificate::Facts(kv) => {
                for (k, v) in kv {
                    write!(f, "\n    {k}: {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl Certificate {
    fn json(&self) -> Json {
        let kind = |k: &str| Json::Str(k.into());
        match self {
            Certificate::None => Json::Null,
            Certificate::SignalCycle(steps) => obj([
                ("kind", kind("signal_cycle")),
                (
                    "steps",
                    Json::Arr(
                        steps
                            .iter()
                            .map(|s| {
                                obj([
                                    ("signal", Json::Str(s.signal.clone())),
                                    ("component", Json::Str(s.component.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Certificate::HbCycle(steps) => obj([
                ("kind", kind("hb_cycle")),
                (
                    "steps",
                    Json::Arr(
                        steps
                            .iter()
                            .map(|s| {
                                obj([
                                    ("channel", Json::Str(s.channel.clone())),
                                    ("end_index", Json::Num(s.end_index as f64)),
                                    ("edge", kind(s.edge.as_str())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Certificate::Facts(kv) => obj([
                ("kind", kind("facts")),
                (
                    "facts",
                    Json::Obj(
                        kv.iter()
                            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                            .collect(),
                    ),
                ),
            ]),
        }
    }
}

impl Diagnostic {
    fn json(&self) -> Json {
        obj([
            ("rule", Json::Str(self.rule.into())),
            ("severity", Json::Str(self.severity.as_str().into())),
            ("location", Json::Str(self.location.clone())),
            ("message", Json::Str(self.message.clone())),
            ("certificate", self.certificate.json()),
        ])
    }
}

/// Renders a slice of diagnostics as a JSON array.
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> String {
    Json::Arr(diags.iter().map(Diagnostic::json).collect()).pretty()
}

/// One entry of the rule catalog.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Rule identifier.
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule either analyzer can emit, for `vidi-lint rules` and the
/// DESIGN.md §8 catalog.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "VL001",
        severity: Severity::Error,
        summary: "combinational cycle in the static signal dataflow graph \
                  (would trip the runtime fixed-point bound)",
    },
    RuleInfo {
        id: "VL002",
        severity: Severity::Error,
        summary: "signal driven by more than one component",
    },
    RuleInfo {
        id: "VL003",
        severity: Severity::Warning,
        summary: "signal read by a component but driven by none \
                  (floating input)",
    },
    RuleInfo {
        id: "VL004",
        severity: Severity::Error,
        summary: "boundary channel width disagrees with the trace layout, \
                  or VALID/READY is not 1 bit",
    },
    RuleInfo {
        id: "VL005",
        severity: Severity::Error,
        summary: "VALID/READY channel crosses the CPU–FPGA shim without a \
                  ChannelMonitor (silent break of transaction determinism)",
    },
    RuleInfo {
        id: "VT001",
        severity: Severity::Error,
        summary: "happens-before cycle between the recorded order and the \
                  replayed order (predicted replay deadlock, §5.3)",
    },
    RuleInfo {
        id: "VT002",
        severity: Severity::Error,
        summary: "vector-clock monotonicity violation: an input channel's \
                  in-flight transaction count leaves [0, 1]",
    },
    RuleInfo {
        id: "VT003",
        severity: Severity::Error,
        summary: "eager-reservation violation: a recorded start event has no \
                  matching end event (dangling reservation at end of trace)",
    },
    RuleInfo {
        id: "VT004",
        severity: Severity::Warning,
        summary: "polling signature: a long run of identical input \
                  transactions predicts replay divergence (§3.6)",
    },
];

/// Looks up a rule's catalog entry.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_escaped() {
        let d = Diagnostic {
            rule: "VL001",
            severity: Severity::Error,
            location: "app/\"sig\"".into(),
            message: "line1\nline2".into(),
            certificate: Certificate::SignalCycle(vec![CycleStep {
                signal: "a".into(),
                component: "c".into(),
            }]),
        };
        let parsed = Json::parse(&diagnostics_to_json(&[d.clone(), d])).expect("well-formed");
        let items = parsed.as_arr().expect("an array");
        assert_eq!(items.len(), 2);
        let field = |k: &str| items[0].get(k).and_then(Json::as_str);
        assert_eq!(field("rule"), Some("VL001"));
        assert_eq!(field("severity"), Some("error"));
        assert_eq!(field("location"), Some("app/\"sig\""));
        assert_eq!(field("message"), Some("line1\nline2"));
        let cert = items[0].get("certificate").expect("certificate");
        assert_eq!(
            cert.get("kind").and_then(Json::as_str),
            Some("signal_cycle")
        );
        let step = &cert.get("steps").and_then(Json::as_arr).expect("steps")[0];
        assert_eq!(step.get("signal").and_then(Json::as_str), Some("a"));
        assert_eq!(step.get("component").and_then(Json::as_str), Some("c"));
    }

    #[test]
    fn display_includes_certificate() {
        let d = Diagnostic {
            rule: "VT001",
            severity: Severity::Error,
            location: "trace/pcim.w".into(),
            message: "cycle".into(),
            certificate: Certificate::HbCycle(vec![
                HbStep {
                    channel: "pcim.aw".into(),
                    end_index: 0,
                    edge: EdgeOrigin::Recorded,
                },
                HbStep {
                    channel: "pcim.w".into(),
                    end_index: 0,
                    edge: EdgeOrigin::Replay,
                },
            ]),
        };
        let text = d.to_string();
        assert!(text.contains("error[VT001]"));
        assert!(text.contains("pcim.aw.end#0 --[recorded order]-->"));
        assert!(text.contains("closes the cycle"));
    }

    #[test]
    fn rule_catalog_is_complete_and_unique() {
        assert_eq!(RULES.len(), 9);
        for r in RULES {
            assert_eq!(RULES.iter().filter(|o| o.id == r.id).count(), 1);
        }
        assert!(rule_info("VL005").is_some());
        assert!(rule_info("VL999").is_none());
    }
}
