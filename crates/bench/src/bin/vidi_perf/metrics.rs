//! The metric catalogue: every name the benchmark reports, with its unit
//! and whether it is deterministic. Directions and regression bounds live
//! in `BENCHMARK.json`, which `compare` reads.

use std::collections::BTreeMap;

use vidi_bench::json::{obj, Json};

/// One catalogue entry: `(name, unit, exact)`. An exact metric is a pure
/// function of the seed and must repeat bit for bit.
pub type Def = (&'static str, &'static str, bool);

/// Reported by an untraced run (`--trace 0`) on every workload.
pub const END_TO_END: &[Def] = &[
    ("setup_s", "s", false),
    ("cycles_per_s", "1/s", false),
    ("ops_per_s", "1/s", false),
    ("op_ms_p50", "ms", false),
    ("op_ms_p95", "ms", false),
    ("trace_bytes_per_cycle", "B/cycle", true),
    ("sim_cycles_ratio", "x", true),
    ("peak_rss_mb", "MB", false),
];

/// Reported by a traced run (`--trace 1`) on every workload; a layer the
/// workload never enters reads 0.
pub const PER_LAYER: &[Def] = &[
    ("hwsim.evals_per_cycle", "1/cycle", true),
    ("hwsim.settle_passes_per_cycle", "1/cycle", true),
    ("hwsim.tick_skips_per_cycle", "1/cycle", true),
    ("hwsim.deopts", "count", true),
    ("hwsim.transparent_cycles_per_s", "1/s", false),
    ("core.record_path_s", "s", false),
    ("core.flush_s", "s", false),
    ("core.store.backpressure_cycles", "cycles", true),
    ("core.store.chunks_flushed", "count", true),
    ("core.store.peak_buffered_bytes", "B", true),
    ("core.replay.evals_per_cycle", "1/cycle", true),
    ("core.replay.tick_skips_per_cycle", "1/cycle", true),
    ("core.replay.drive_s", "s", false),
    ("trace.sink.ns_per_packet.raw", "ns", false),
    ("trace.sink.ns_per_packet.xor-dict", "ns", false),
    ("trace.source.ns_per_packet.raw", "ns", false),
    ("trace.source.ns_per_packet.xor-dict", "ns", false),
    ("trace.source.replay_share_pct", "%", false),
    ("codec.encode_ns_per_packet", "ns", false),
    ("codec.decode_ns_per_packet", "ns", false),
    ("codec.ratio", "x", true),
    ("snap.snapshot_us", "us", false),
    ("snap.restore_us", "us", false),
    ("snap.state_bytes", "B", true),
    ("snap.session_build_us", "us", false),
    ("snap.roll_forward_cycles_p95", "cycles", true),
    ("snap.index_s", "s", false),
    ("snap.verify_serial_s", "s", false),
    ("snap.verify_parallel_s", "s", false),
    ("snap.verify_efficiency", "x", false),
    ("fleet.submit_us_p95", "us", false),
    ("fleet.efficiency", "x", false),
    ("fleet.peak_reserved_bytes", "B", true),
    ("fleet.sum_peak_buffered_bytes", "B", true),
    ("apps.build_ms_per_session", "ms", false),
    ("bench.span_overhead_pct", "%", false),
    ("self_s.timed", "s", false),
    ("self_s.apps.build", "s", false),
    ("self_s.core.drive", "s", false),
    ("self_s.core.flush", "s", false),
    ("self_s.snap.replay_from", "s", false),
    ("self_s.snap.verify_parallel", "s", false),
    ("self_s.fleet.submit", "s", false),
    ("self_s.fleet.wait_all", "s", false),
];

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The reported value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Deterministic: must repeat exactly for the same seed.
    pub exact: bool,
    /// Per-round values behind a timing, for its spread.
    pub samples: Vec<f64>,
}

/// Collects the values of one catalogue, refusing names outside it.
pub struct Sheet {
    defs: &'static [Def],
    values: BTreeMap<&'static str, Metric>,
}

impl Sheet {
    /// An empty sheet over `defs`.
    pub fn new(defs: &'static [Def]) -> Self {
        Sheet {
            defs,
            values: BTreeMap::new(),
        }
    }

    /// Sets `name` to `value`, keeping per-round `samples`.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue or a non-finite value: both
    /// are bugs in the benchmark, not in the system it measures.
    pub fn set(&mut self, name: &str, value: f64, samples: Vec<f64>) {
        let &(name, unit, exact) = self
            .defs
            .iter()
            .find(|d| d.0 == name)
            .unwrap_or_else(|| panic!("{name} is not in the metric catalogue"));
        assert!(value.is_finite(), "{name} = {value} is not finite");
        self.values.insert(
            name,
            Metric {
                value,
                unit,
                exact,
                samples,
            },
        );
    }

    /// The finished sheet.
    ///
    /// # Panics
    ///
    /// Panics when a catalogue metric was never set.
    pub fn finish(self) -> BTreeMap<&'static str, Metric> {
        for (name, _, _) in self.defs {
            assert!(self.values.contains_key(name), "{name} was never measured");
        }
        self.values
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `metrics` object of the result line: name → value and unit.
pub fn result_json(metrics: &BTreeMap<&'static str, Metric>) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, m)| {
                let v = obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]);
                ((*name).to_string(), v)
            })
            .collect(),
    )
}

/// The same metrics with their exactness and per-round samples, as
/// `--out` files carry them for `compare`.
pub fn full_json(metrics: &BTreeMap<&'static str, Metric>) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, m)| {
                let v = obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                    ("exact", Json::Bool(m.exact)),
                    (
                        "samples",
                        Json::Arr(m.samples.iter().map(|&s| Json::Num(s)).collect()),
                    ),
                ]);
                ((*name).to_string(), v)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let bench = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = bench
                .get(section)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).unwrap();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(&str, &str)> = defs.iter().map(|&(n, u, _)| (n, u)).collect();
            assert_eq!(listed, ours, "{section}");
        }
    }

    #[test]
    fn sheet_round_trips_through_full_json() {
        let mut sheet = Sheet::new(END_TO_END);
        for (i, (name, _, _)) in END_TO_END.iter().enumerate() {
            sheet.set(name, i as f64 + 0.5, vec![1.0, 2.0]);
        }
        let metrics = sheet.finish();
        let doc = obj([("metrics", full_json(&metrics))]);
        let read = crate::compare::readings(&doc).unwrap();
        assert_eq!(read["sim_cycles_ratio"].value, 6.5);
        assert!(read["sim_cycles_ratio"].exact);
        assert_eq!(read["sim_cycles_ratio"].samples, vec![1.0, 2.0]);
        assert_eq!(
            result_json(&metrics)
                .get("setup_s")
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn unfinished_sheet_is_a_bug() {
        Sheet::new(END_TO_END).finish();
    }
}
