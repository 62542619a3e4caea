//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it, and a
//! group id shared by all spans of one repetition or job. Spans stay in
//! memory and are written when the run ends, as Chrome `trace_event` JSON
//! that Perfetto opens.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// An open span: where it is in the log (nowhere, when recording is off)
/// and when it began.
#[derive(Clone, Copy, Debug)]
pub struct SpanId {
    index: Option<usize>,
    start: Instant,
}

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    group: u64,
}

/// The run's span log; every span is recorded by the thread that drives
/// the workload.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Off in an untraced run: spans are still timed for their callers but
    /// nothing is kept.
    recording: bool,
    spans: Vec<Span>,
}

/// Per-name totals: a layer's self time is its spans' duration minus the
/// part their child spans cover.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            recording,
            spans: Vec::new(),
        }
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, group: u64) -> SpanId {
        let start = Instant::now();
        let index = self.recording.then(|| {
            let start_ns = self.ns_since_origin(start);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: parent.and_then(|p| p.index),
                group,
            });
            self.spans.len() - 1
        });
        SpanId { index, start }
    }

    /// Closes the span and returns its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let end = Instant::now();
        if let Some(i) = id.index {
            self.spans[i].end_ns = self.ns_since_origin(end);
        }
        end.duration_since(id.start).as_secs_f64()
    }

    /// Times `f` as a child span and returns its result with the duration.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, group);
        let out = f();
        (out, self.end(id))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// The Chrome `trace_event` document: one complete (`X`) event per
    /// span, microsecond timestamps, one track.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.name.split('.').next().unwrap_or(""))),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("span", Json::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("group", Json::Num(s.group as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_are_exported() {
        let mut t = Tracer::new(true);
        let rep = t.begin("rep", None, 7);
        let ((), _) = t.scope("gpu.new", Some(rep), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        t.end(rep);
        let job = t.begin("job", None, 9);
        let child = t.begin("maskd.submit", Some(job), 9);
        t.end(child);
        t.end(job);
        assert_eq!(t.len(), 4);

        let totals = t.totals();
        let rep_t = totals["rep"];
        assert_eq!(rep_t.count, 1);
        assert_eq!(rep_t.self_ns, rep_t.total_ns - totals["gpu.new"].total_ns);
        assert!(totals["gpu.new"].total_ns >= 2_000_000);

        let mut off = Tracer::new(false);
        let ((), secs) = off.scope("rep", None, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(secs >= 0.001 && off.len() == 0, "timed but not kept");

        let doc = t.chrome_trace();
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        let parent_of = |i: usize| {
            events[i]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_f64)
        };
        assert_eq!(parent_of(1), Some(0.0));
        assert_eq!(parent_of(3), Some(2.0));
        assert_eq!(parent_of(2), None);
    }
}
