//! The CI bench gate: the `vidi-bench/1` document and its one baseline
//! comparator.
//!
//! `bench_gate` runs three suites — [`crate::sim_bench`],
//! [`crate::snap_bench`] and [`crate::fleet_bench`] — and writes one
//! `BENCH.json`:
//!
//! ```text
//! { "schema": "vidi-bench/1",
//!   "params": { "scale": "test", "seed": 42, "threads": 4, "workers": 8 },
//!   "suites": { "<name>": { "rows": [..], "summary": {..}, "failures": [..] } } }
//! ```
//!
//! Two kinds of gate judge a run. *Absolute* gates judge the current run on
//! its own (speedup floors, exactness, vacuous-gate guards); each suite
//! lists their violations in [`SuiteReport::failures`]. *Baseline* gates
//! pin fields against a committed document: each suite declares, in its
//! [`SuiteSpec`], the key its rows are matched on and a [`Gate`] per pinned
//! field, and [`compare`] applies them. Wall-clock fields are never pinned.

use std::fmt::Write as _;

use crate::json::{obj, Json};
use crate::{fleet_bench, sim_bench, snap_bench};

/// Schema tag of the gate document.
pub const SCHEMA: &str = "vidi-bench/1";

/// Every suite the gate runs, in document order.
pub const SUITES: [&SuiteSpec; 3] = [&sim_bench::SUITE, &snap_bench::SUITE, &fleet_bench::SUITE];

/// How a pinned field is compared against its baseline value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// The value must equal the baseline's.
    Exact,
    /// A number may move at most `tolerance` (a fraction of the baseline
    /// value) in the worse direction; any improvement passes.
    Within {
        /// Allowed relative regression, e.g. `0.10`.
        tolerance: f64,
        /// Whether a smaller value is the better one.
        lower_is_better: bool,
    },
}

impl Gate {
    /// `None` when `cur` passes against `base`, else the reason it fails.
    fn judge(self, cur: &Json, base: &Json) -> Option<String> {
        match self {
            Gate::Exact => {
                (cur != base).then(|| format!("drifted {} -> {}", show(base), show(cur)))
            }
            Gate::Within {
                tolerance,
                lower_is_better,
            } => {
                let (Some(c), Some(b)) = (cur.as_f64(), base.as_f64()) else {
                    return Some(format!("is not a number: {} -> {}", show(base), show(cur)));
                };
                let regressed = if lower_is_better {
                    c > b * (1.0 + tolerance)
                } else {
                    c < b * (1.0 - tolerance)
                };
                regressed.then(|| {
                    format!(
                        "regressed {b:.2} -> {c:.2} (tolerance {:.0}%)",
                        tolerance * 100.0
                    )
                })
            }
        }
    }
}

/// What a suite declares to the comparator.
#[derive(Debug)]
pub struct SuiteSpec {
    /// The suite's key under `suites`.
    pub name: &'static str,
    /// Row field that identifies a row across runs (`app`, `name`).
    pub key: &'static str,
    /// Pinned row fields.
    pub rows: &'static [(&'static str, Gate)],
    /// Pinned fields of the suite's `summary` object.
    pub summary: &'static [(&'static str, Gate)],
}

impl SuiteSpec {
    /// This suite's object in a gate document.
    fn find<'a>(&self, doc: &'a Json) -> Option<&'a Json> {
        doc.get("suites")?.get(self.name)
    }

    /// A row's key value.
    fn key_of<'a>(&self, row: &'a Json) -> Option<&'a str> {
        row.get(self.key)?.as_str()
    }
}

/// One suite's measured run.
#[derive(Debug)]
pub struct SuiteReport {
    /// The suite's declaration.
    pub spec: &'static SuiteSpec,
    /// One object per app or tenant.
    pub rows: Vec<Json>,
    /// Suite-wide figures (an object).
    pub summary: Json,
    /// Violated absolute gates; empty when the run passes them all.
    pub failures: Vec<String>,
}

impl SuiteReport {
    fn json(&self) -> Json {
        obj([
            ("rows", Json::Arr(self.rows.clone())),
            ("summary", self.summary.clone()),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    /// One human-readable line: row and failure counts, then the summary.
    pub fn line(&self) -> String {
        let mut line = format!(
            "{}: {} rows, {} failures",
            self.spec.name,
            self.rows.len(),
            self.failures.len()
        );
        if let Json::Obj(fields) = &self.summary {
            for (k, v) in fields {
                let _ = write!(line, ", {k} {}", show(v));
            }
        }
        line
    }
}

/// A row field's JSON value.
pub(crate) trait Field {
    /// The value as JSON.
    fn json(&self) -> Json;
}

impl Field for bool {
    fn json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Field for f64 {
    fn json(&self) -> Json {
        Json::Num(*self)
    }
}

impl Field for u64 {
    fn json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl Field for usize {
    fn json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl Field for String {
    fn json(&self) -> Json {
        Json::Str(self.clone())
    }
}

/// Builds a row object from a struct's fields, each keyed by its own name.
macro_rules! row_json {
    ($row:expr, [$($field:ident),+ $(,)?]) => {
        $crate::json::obj([$((stringify!($field), $crate::gate::Field::json(&$row.$field))),+])
    };
}
pub(crate) use row_json;

/// Assembles the gate document from the run parameters and the suites.
pub fn document(params: Json, reports: &[SuiteReport]) -> Json {
    obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("params", params),
        (
            "suites",
            Json::Obj(
                reports
                    .iter()
                    .map(|r| (r.spec.name.to_string(), r.json()))
                    .collect(),
            ),
        ),
    ])
}

/// Compares a current gate document against a committed baseline, suite
/// by suite, on the fields each suite pins.
///
/// # Errors
///
/// Returns every violation: a baseline of another schema, a suite or a
/// baseline row missing from the current run, a pinned field missing from
/// either side, and every pinned field its [`Gate`] rejects.
pub fn compare(current: &Json, baseline: &Json) -> Result<(), Vec<String>> {
    let mut failures = Vec::new();
    let schema = baseline.get("schema").and_then(Json::as_str);
    if schema != Some(SCHEMA) {
        failures.push(format!("baseline schema {schema:?} is not {SCHEMA:?}"));
    }
    for spec in SUITES {
        let (cur, base) = match (spec.find(current), spec.find(baseline)) {
            (Some(cur), Some(base)) => (cur, base),
            (cur, _) => {
                let side = if cur.is_none() { "current" } else { "baseline" };
                failures.push(format!("{}: suite missing from the {side} run", spec.name));
                continue;
            }
        };
        for base_row in rows(base) {
            let Some(key) = spec.key_of(base_row) else {
                failures.push(format!(
                    "{}: baseline row without a {:?}",
                    spec.name, spec.key
                ));
                continue;
            };
            let label = format!("{}/{key}", spec.name);
            match rows(cur).iter().find(|r| spec.key_of(r) == Some(key)) {
                Some(cur_row) => check(&label, spec.rows, cur_row, base_row, &mut failures),
                None => failures.push(format!("{label}: present in baseline but not measured")),
            }
        }
        let summary = |s: &Json| s.get("summary").cloned().unwrap_or(Json::Null);
        check(
            spec.name,
            spec.summary,
            &summary(cur),
            &summary(base),
            &mut failures,
        );
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

/// A suite's rows (none when the document lacks them).
fn rows(suite: &Json) -> &[Json] {
    suite.get("rows").and_then(Json::as_arr).unwrap_or_default()
}

/// Applies `gates` to one current/baseline object pair.
fn check(label: &str, gates: &[(&str, Gate)], cur: &Json, base: &Json, out: &mut Vec<String>) {
    for &(field, gate) in gates {
        match (cur.get(field), base.get(field)) {
            (Some(c), Some(b)) => {
                if let Some(why) = gate.judge(c, b) {
                    out.push(format!("{label}: {field} {why}"));
                }
            }
            (c, _) => {
                let side = if c.is_none() { "current" } else { "baseline" };
                out.push(format!(
                    "{label}: pinned field {field} missing from the {side} run"
                ));
            }
        }
    }
}

/// A scalar as it reads in the document.
fn show(v: &Json) -> String {
    v.pretty().trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// A baseline-shaped document: two sim apps, two snap apps, one fleet
    /// tenant, both budget checks holding.
    fn doc() -> Json {
        let sim = |app: &str, evals: f64, ratio: f64| {
            obj([
                ("app", Json::Str(app.into())),
                ("evals_per_cycle_compiled", Json::Num(evals)),
                ("replay_evals_per_cycle", Json::Num(evals / 10.0)),
                ("compression_ratio", Json::Num(ratio)),
            ])
        };
        let snap = |app: &str, verdict: &str, rstep: f64| {
            obj([
                ("app", Json::Str(app.into())),
                ("roundtrip_exact", Json::Bool(true)),
                ("verdict", Json::Str(verdict.into())),
                ("rstep_worst_roll_forward", Json::Num(rstep)),
            ])
        };
        let tenant = obj([
            ("name", Json::Str("t".into())),
            ("outcome", Json::Str("completed".into())),
            ("cause", Json::Str("-".into())),
            ("bit_identical", Json::Bool(true)),
        ]);
        let suite =
            |rows: Vec<Json>, summary: Json| obj([("rows", Json::Arr(rows)), ("summary", summary)]);
        obj([
            ("schema", Json::Str(SCHEMA.into())),
            (
                "suites",
                obj([
                    (
                        "sim",
                        suite(vec![sim("a", 10.0, 4.0), sim("b", 5.0, 2.0)], obj([])),
                    ),
                    (
                        "snap",
                        suite(
                            vec![snap("a", "clean", 255.0), snap("b", "diverged@100", 511.0)],
                            obj([]),
                        ),
                    ),
                    (
                        "fleet",
                        suite(
                            vec![tenant],
                            obj([
                                ("reservation_within_budget", Json::Bool(true)),
                                ("buffering_within_budget", Json::Bool(true)),
                            ]),
                        ),
                    ),
                ]),
            ),
        ])
    }

    fn obj_mut(v: &mut Json) -> &mut BTreeMap<String, Json> {
        match v {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn suite_mut<'a>(doc: &'a mut Json, suite: &str) -> &'a mut BTreeMap<String, Json> {
        let suites = obj_mut(doc).get_mut("suites").expect("suites");
        obj_mut(obj_mut(suites).get_mut(suite).expect("suite"))
    }

    fn rows_mut<'a>(doc: &'a mut Json, suite: &str) -> &'a mut Vec<Json> {
        match suite_mut(doc, suite).get_mut("rows") {
            Some(Json::Arr(rows)) => rows,
            other => panic!("rows: {other:?}"),
        }
    }

    /// `doc()` with one field of row `row` (by position) of `suite` set to
    /// `value`, or removed when `value` is `None`.
    fn with_row_field(suite: &str, row: usize, field: &str, value: Option<Json>) -> Json {
        let mut d = doc();
        let fields = obj_mut(&mut rows_mut(&mut d, suite)[row]);
        match value {
            Some(v) => fields.insert(field.into(), v),
            None => fields.remove(field),
        };
        d
    }

    fn fails(current: &Json, baseline: &Json) -> Vec<String> {
        compare(current, baseline).expect_err("comparison must fail")
    }

    #[test]
    fn identical_documents_pass() {
        assert_eq!(compare(&doc(), &doc()), Ok(()));
    }

    #[test]
    fn sim_compression_ratio_is_gated_downward() {
        let ratio = |r: f64| with_row_field("sim", 0, "compression_ratio", Some(Json::Num(r)));
        // Holding or improving the ratio passes; 3.7 is inside 10% of 4.0.
        assert_eq!(compare(&ratio(5.0), &doc()), Ok(()));
        assert_eq!(compare(&ratio(3.7), &doc()), Ok(()));
        // Shrinking beyond the tolerance is flagged by name.
        let err = fails(&ratio(3.0), &doc());
        assert_eq!(err.len(), 1);
        assert!(
            err[0].contains("sim/a: compression_ratio regressed"),
            "{err:?}"
        );
    }

    #[test]
    fn sim_evals_per_cycle_regressions_and_missing_apps_are_flagged() {
        let evals = |row: usize, e: f64| {
            with_row_field("sim", row, "evals_per_cycle_compiled", Some(Json::Num(e)))
        };
        // Within tolerance, and improved: ok.
        assert_eq!(compare(&evals(0, 10.9), &doc()), Ok(()));
        assert_eq!(compare(&evals(1, 3.0), &doc()), Ok(()));
        // One regression plus one missing app: both reported.
        let mut cur = evals(0, 11.2);
        rows_mut(&mut cur, "sim").pop();
        let err = fails(&cur, &doc());
        assert_eq!(err.len(), 2, "{err:?}");
        assert!(err[0].contains("sim/a: evals_per_cycle_compiled regressed"));
        assert!(err[1].contains("sim/b: present in baseline but not measured"));
        // Replay evals/cycle is pinned by the same rule.
        let replay =
            |e: f64| with_row_field("sim", 0, "replay_evals_per_cycle", Some(Json::Num(e)));
        assert_eq!(compare(&replay(1.09), &doc()), Ok(()));
        let err = fails(&replay(1.2), &doc());
        assert_eq!(err.len(), 1, "{err:?}");
        assert!(err[0].contains("sim/a: replay_evals_per_cycle regressed"));
    }

    #[test]
    fn a_pinned_field_missing_from_either_side_fails() {
        let without = with_row_field("sim", 0, "compression_ratio", None);
        let err = fails(&without, &doc());
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("compression_ratio missing from the current run"));
        // A baseline without the field fails too: a pin it lacks would
        // otherwise gate nothing.
        let err = fails(&doc(), &without);
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("compression_ratio missing from the baseline run"));
        // Likewise a snap baseline without the reverse-step ceiling.
        let err = fails(
            &doc(),
            &with_row_field("snap", 0, "rstep_worst_roll_forward", None),
        );
        assert!(err[0].contains("snap/a: pinned field rstep_worst_roll_forward"));
    }

    #[test]
    fn snap_exactness_and_verdict_drift_and_missing_apps_are_flagged() {
        let mut cur = with_row_field("snap", 0, "roundtrip_exact", Some(Json::Bool(false)));
        obj_mut(&mut rows_mut(&mut cur, "snap")[1])
            .insert("verdict".into(), Json::Str("diverged@250".into()));
        let err = fails(&cur, &doc());
        assert_eq!(err.len(), 2, "{err:?}");
        assert!(err[0].contains("snap/a: roundtrip_exact drifted true -> false"));
        assert!(err[1].contains(r#"snap/b: verdict drifted "diverged@100" -> "diverged@250""#));

        let mut missing = doc();
        rows_mut(&mut missing, "snap").pop();
        let err = fails(&missing, &doc());
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("snap/b: present in baseline"));
    }

    #[test]
    fn snap_reverse_step_drift_is_exact_in_both_directions() {
        let rstep =
            |n: f64| with_row_field("snap", 1, "rstep_worst_roll_forward", Some(Json::Num(n)));
        for drifted in [1023.0, 255.0] {
            let err = fails(&rstep(drifted), &doc());
            assert_eq!(err.len(), 1);
            assert!(
                err[0].contains("snap/b: rstep_worst_roll_forward drifted 511"),
                "{err:?}"
            );
        }
    }

    #[test]
    fn fleet_outcome_cause_identity_and_budgets_are_pinned() {
        for (field, value) in [
            ("outcome", Json::Str("failed".into())),
            ("cause", Json::Str("panicked".into())),
            ("bit_identical", Json::Bool(false)),
        ] {
            let err = fails(&with_row_field("fleet", 0, field, Some(value)), &doc());
            assert_eq!(err.len(), 1);
            assert!(
                err[0].starts_with(&format!("fleet/t: {field} drifted")),
                "{err:?}"
            );
        }
        for key in ["reservation_within_budget", "buffering_within_budget"] {
            let mut cur = doc();
            let summary = suite_mut(&mut cur, "fleet")
                .get_mut("summary")
                .expect("summary");
            obj_mut(summary).insert(key.into(), Json::Bool(false));
            let err = fails(&cur, &doc());
            assert_eq!(err, vec![format!("fleet: {key} drifted true -> false")]);
        }
    }

    #[test]
    fn missing_suites_and_foreign_schemas_fail() {
        let mut cur = doc();
        let suites = obj_mut(&mut cur).get_mut("suites").expect("suites");
        obj_mut(suites).remove("snap");
        let err = fails(&cur, &doc());
        assert_eq!(
            err,
            vec!["snap: suite missing from the current run".to_string()]
        );
        let err = fails(&doc(), &cur);
        assert_eq!(
            err,
            vec!["snap: suite missing from the baseline run".to_string()]
        );

        let mut old = doc();
        obj_mut(&mut old).insert("schema".into(), Json::Str("vidi-bench-sim/4".into()));
        let err = fails(&doc(), &old);
        assert!(err[0].contains("is not \"vidi-bench/1\""), "{err:?}");
    }

    #[test]
    fn row_json_keys_fields_by_name() {
        struct Row {
            app: String,
            cycles: u64,
            ok: bool,
        }
        let r = Row {
            app: "a".into(),
            cycles: 7,
            ok: true,
        };
        let j = row_json!(r, [app, cycles, ok]);
        assert_eq!(j.get("app").and_then(Json::as_str), Some("a"));
        assert_eq!(j.get("cycles").and_then(Json::as_f64), Some(7.0));
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true));
    }
}
