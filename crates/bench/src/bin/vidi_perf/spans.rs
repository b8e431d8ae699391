//! In-memory span recording around calls into each layer.
//!
//! Every span is timed whether or not tracing is on, because the benchmark
//! derives its own metrics from the same clock reads; tracing only decides
//! whether the span is kept. A traced run therefore differs from an
//! untraced one by the bookkeeping alone, which `bench.span_overhead_pct`
//! measures. Spans are written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use vidi_bench::json::{obj, Json};

/// Name of the root span around every timed segment. Only spans under such
/// a root count towards the per-layer self times.
pub const TIMED: &str = "timed";

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary the span sits on, e.g. `core.drive`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The operation (session, seek, verify, ...) the span belongs to.
    pub session: u64,
}

/// An open span, returned by [`Tracer::open`] and consumed by
/// [`Tracer::close`].
#[must_use]
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

/// The span recorder.
pub struct Tracer {
    keep: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    session: u64,
}

impl Tracer {
    /// A recorder that keeps spans when `keep` is set.
    pub fn new(keep: bool) -> Self {
        Tracer {
            keep,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            session: 0,
        }
    }

    /// Whether spans are being kept.
    pub fn keeping(&self) -> bool {
        self.keep
    }

    /// Switches span keeping on or off between segments.
    pub fn set_keeping(&mut self, keep: bool) {
        self.keep = keep;
    }

    /// Tags the spans opened from now on with operation `session`.
    pub fn set_session(&mut self, session: u64) {
        self.session = session;
    }

    /// Opens a span named `name` under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.keep.then(|| {
            let idx = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
                session: self.session,
            });
            self.stack.push(idx);
            idx
        });
        Open { start, slot }
    }

    /// Closes `span` and returns its duration in seconds.
    pub fn close(&mut self, span: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = span.slot {
            self.spans[idx].end_ns = self.ns(end);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
        }
        (end - span.start).as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.open(name);
        let out = f();
        (out, self.close(span))
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from((at - self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Self time in seconds per span name, over the spans under a
    /// [`TIMED`] root: each span's duration minus what its children cover.
    pub fn timed_self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.root_name(i) != TIMED {
                continue;
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    fn root_name(&self, mut i: usize) -> &'static str {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        self.spans[i].name
    }

    /// Every kept span as a JSON array, in opening order.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("name", Json::Str(s.name.into())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("session", Json::Num(s.session as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_skips_untimed_roots() {
        let mut tr = Tracer::new(true);
        let root = tr.open(TIMED);
        let outer = tr.open("core.drive");
        let inner = tr.open("core.flush");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.close(inner);
        tr.close(outer);
        let total = tr.close(root);
        let setup = tr.open("setup");
        tr.close(setup);

        let selfs = tr.timed_self_seconds();
        assert!(selfs["core.flush"] >= 0.002);
        assert!(!selfs.contains_key("setup"));
        let sum: f64 = selfs.values().sum();
        assert!((sum - total).abs() < 1e-6, "{sum} vs {total}");
        assert_eq!(tr.spans[2].parent, Some(1));
    }

    #[test]
    fn untraced_spans_still_time_but_keep_nothing() {
        let mut tr = Tracer::new(false);
        let ((), secs) = tr.time("core.drive", || {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(secs >= 0.001);
        assert!(tr.spans.is_empty());
        assert!(tr.timed_self_seconds().is_empty());
    }
}
