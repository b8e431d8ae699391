//! `vidi_perf compare A.json B.json`: judges run B against run A with the
//! directions and bounds `BENCHMARK.json` fixes.
//!
//! A deterministic metric must read exactly the same. A timing may get
//! worse by at most its bound; when either run's round-to-round spread
//! (interquartile range over median) exceeds the bound, the comparison
//! cannot resolve a change of that size and says `unresolved`. Per-layer
//! metrics have no bound and are shown for information.

use std::collections::BTreeMap;

use vidi_bench::json::Json;

use crate::stats::Summary;

/// Direction and regression bound of one metric, as `BENCHMARK.json`
/// states them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rule {
    /// Lower values are better.
    pub lower_is_better: bool,
    /// Largest tolerated worsening, as a share of run A's value; `None`
    /// for per-layer metrics.
    pub bound: Option<f64>,
}

/// One metric's judgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Deterministic and identical.
    Same,
    /// Deterministic and different.
    Changed,
    /// Within the bound (or better).
    Within,
    /// Worse than the bound allows.
    Regressed,
    /// Spread wider than the bound: no conclusion.
    Unresolved,
    /// No bound to judge against.
    Info,
    /// Absent from one of the runs.
    Missing,
}

impl Verdict {
    /// Whether the verdict fails the comparison.
    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Changed | Verdict::Regressed | Verdict::Missing
        )
    }
}

/// A metric read back from a result file.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    /// The reported value.
    pub value: f64,
    /// Deterministic.
    pub exact: bool,
    /// Per-round values.
    pub samples: Vec<f64>,
}

/// Reads the rules of every metric in `BENCHMARK.json`.
///
/// # Errors
///
/// Names the first malformed entry.
pub fn rules(bench: &Json) -> Result<BTreeMap<String, Rule>, String> {
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        let list = bench
            .get(section)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
        for m in list {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{section}: entry without a name"))?;
            let lower_is_better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            out.insert(
                name.to_string(),
                Rule {
                    lower_is_better,
                    bound,
                },
            );
        }
    }
    Ok(out)
}

/// Reads the metrics of a `--out` result file.
///
/// # Errors
///
/// When the file has no metrics object or a metric is malformed.
pub fn readings(result: &Json) -> Result<BTreeMap<String, Reading>, String> {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err("result file has no metrics object".into());
    };
    metrics
        .iter()
        .map(|(name, v)| {
            let reading = || {
                Some(Reading {
                    value: v.get("value")?.as_f64()?,
                    exact: v.get("exact")?.as_bool()?,
                    samples: v
                        .get("samples")?
                        .as_arr()?
                        .iter()
                        .filter_map(Json::as_f64)
                        .collect(),
                })
            };
            let reading = reading().ok_or_else(|| format!("{name}: malformed metric"))?;
            Ok((name.clone(), reading))
        })
        .collect()
}

/// Judges reading `b` against reading `a` under `rule`.
pub fn judge(rule: Rule, a: &Reading, b: &Reading) -> Verdict {
    if a.exact || b.exact {
        return if a.value == b.value {
            Verdict::Same
        } else {
            Verdict::Changed
        };
    }
    let Some(bound) = rule.bound else {
        return Verdict::Info;
    };
    let spread = |r: &Reading| Summary::of(&r.samples).map_or(0.0, |s| s.spread());
    if spread(a).max(spread(b)) > bound {
        return Verdict::Unresolved;
    }
    let worse = if rule.lower_is_better {
        b.value - a.value
    } else {
        a.value - b.value
    };
    if a.value != 0.0 && worse / a.value.abs() > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

/// Judges every metric `BENCHMARK.json` names that either run reports.
pub fn compare(
    rules: &BTreeMap<String, Rule>,
    a: &BTreeMap<String, Reading>,
    b: &BTreeMap<String, Reading>,
) -> Vec<(String, Verdict)> {
    rules
        .iter()
        .filter(|(name, _)| a.contains_key(*name) || b.contains_key(*name))
        .map(|(name, &rule)| {
            let verdict = match (a.get(name), b.get(name)) {
                (Some(x), Some(y)) => judge(rule, x, y),
                _ => Verdict::Missing,
            };
            (name.clone(), verdict)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(value: f64, samples: &[f64]) -> Reading {
        Reading {
            value,
            exact: false,
            samples: samples.to_vec(),
        }
    }

    const LOWER_10: Rule = Rule {
        lower_is_better: true,
        bound: Some(0.10),
    };

    #[test]
    fn timings_pass_within_the_bound_and_fail_beyond_it() {
        let a = timing(100.0, &[99.0, 100.0, 101.0]);
        assert_eq!(
            judge(LOWER_10, &a, &timing(109.0, &[109.0])),
            Verdict::Within
        );
        assert_eq!(judge(LOWER_10, &a, &timing(80.0, &[80.0])), Verdict::Within);
        assert_eq!(
            judge(LOWER_10, &a, &timing(111.0, &[111.0])),
            Verdict::Regressed
        );
        let higher = Rule {
            lower_is_better: false,
            ..LOWER_10
        };
        assert_eq!(
            judge(higher, &a, &timing(89.0, &[89.0])),
            Verdict::Regressed
        );
        assert_eq!(judge(higher, &a, &timing(130.0, &[130.0])), Verdict::Within);
    }

    #[test]
    fn noisy_timings_are_unresolved() {
        let noisy = timing(100.0, &[60.0, 100.0, 140.0, 90.0]);
        assert_eq!(
            judge(LOWER_10, &noisy, &timing(150.0, &[150.0])),
            Verdict::Unresolved
        );
    }

    #[test]
    fn deterministic_metrics_must_match_exactly() {
        let exact = |v| Reading {
            value: v,
            exact: true,
            samples: vec![],
        };
        assert_eq!(judge(LOWER_10, &exact(1.5), &exact(1.5)), Verdict::Same);
        assert_eq!(judge(LOWER_10, &exact(1.5), &exact(1.4)), Verdict::Changed);
        let info = Rule {
            bound: None,
            ..LOWER_10
        };
        assert_eq!(
            judge(info, &timing(1.0, &[]), &timing(9.0, &[])),
            Verdict::Info
        );
    }

    #[test]
    fn rules_come_from_benchmark_json_and_missing_metrics_fail() {
        let bench = Json::parse(
            r#"{"end_to_end": [{"name": "x", "unit": "s", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "y", "unit": "ns", "better": "higher"}]}"#,
        )
        .unwrap();
        let rules = rules(&bench).unwrap();
        assert_eq!(rules["x"], LOWER_10);
        assert_eq!(rules["y"].bound, None);

        let result = Json::parse(
            r#"{"metrics": {"x": {"value": 2, "unit": "s", "exact": false, "samples": [2]}}}"#,
        )
        .unwrap();
        let a = readings(&result).unwrap();
        let verdicts = compare(&rules, &a, &BTreeMap::new());
        assert_eq!(verdicts, vec![("x".to_string(), Verdict::Missing)]);
        assert!(verdicts[0].1.fails());
        let same = compare(&rules, &a, &a);
        assert_eq!(same, vec![("x".to_string(), Verdict::Within)]);
    }
}
