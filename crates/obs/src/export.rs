//! Exporters: Chrome/Perfetto `trace_event` JSON and the metrics JSONL.
//!
//! [`write_all`] drains everything collected since the last export and
//! writes two files into [`out_dir`] (the `MASK_TRACE_OUT` environment
//! variable, default `target/mask-trace/`):
//!
//! * `trace.json` — a `{"traceEvents": [...]}` document loadable in
//!   Perfetto / `chrome://tracing`. Process 1 is the simulation timeline
//!   (1 µs = 1 simulated cycle; tid = lane, walker slots as spans on
//!   `tid = 1000 × (lane + 1) + slot`); process 2 is the engine's
//!   wall-clock timeline (job spans per worker lane).
//! * `metrics.jsonl` — one JSON object per line: per-epoch `epoch` frames,
//!   engine `job_pool` frames, and `stage_profile` cycle-bucket timings.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::event::Record;
use crate::profile::Span;

/// Everything drained from the collection sink at export time.
#[derive(Debug, Default)]
pub struct TraceData {
    /// Sink events with their lane tag, oldest first.
    pub events: Vec<(u32, Record)>,
    /// Prebuilt JSONL metrics frames (epoch + `job_pool`).
    pub frames: Vec<String>,
    /// Engine wall-clock spans.
    pub spans: Vec<Span>,
    /// (stage name, cycle bucket) → (total nanoseconds, samples).
    pub stages: BTreeMap<(&'static str, u64), (u64, u64)>,
    /// Events the sink overwrote (it keeps the newest
    /// [`crate::ring::SINK_CAPACITY`]).
    pub dropped: u64,
}

/// What an export produced (printed by the `trace_viewer` example).
#[derive(Debug)]
pub struct TraceSummary {
    /// Path of the Perfetto `trace_event` JSON.
    pub trace_path: PathBuf,
    /// Path of the metrics JSONL stream.
    pub metrics_path: PathBuf,
    /// Events exported.
    pub events: usize,
    /// Metrics frames exported (including synthesized summaries).
    pub frames: usize,
    /// Engine spans exported.
    pub spans: usize,
    /// Events the sink overwrote.
    pub dropped: u64,
    /// Counter families present in the metrics stream.
    pub families: Vec<String>,
}

/// Trace output directory: `MASK_TRACE_OUT`, default `target/mask-trace`.
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "the `MASK_TRACE_OUT` entry point; export runs after simulation"
)]
pub fn out_dir() -> PathBuf {
    std::env::var_os("MASK_TRACE_OUT")
        .map_or_else(|| PathBuf::from("target/mask-trace"), PathBuf::from)
}

/// Drains the sink and writes `trace.json` + `metrics.jsonl` to [`out_dir`].
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_all() -> std::io::Result<TraceSummary> {
    write_to(&out_dir())
}

/// Like [`write_all`] with an explicit output directory.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_to(dir: &Path) -> std::io::Result<TraceSummary> {
    let data = crate::ring::take_snapshot();
    let (trace, jsonl, families) = render(&data);
    std::fs::create_dir_all(dir)?;
    let trace_path = dir.join("trace.json");
    let metrics_path = dir.join("metrics.jsonl");
    std::fs::write(&trace_path, trace)?;
    std::fs::write(&metrics_path, &jsonl)?;
    Ok(TraceSummary {
        trace_path,
        metrics_path,
        events: data.events.len(),
        frames: jsonl.lines().count(),
        spans: data.spans.len(),
        dropped: data.dropped,
        families,
    })
}

/// Renders a drained [`TraceData`] into (`trace.json` contents,
/// `metrics.jsonl` contents, counter families present).
#[must_use]
pub fn render(data: &TraceData) -> (String, String, Vec<String>) {
    use std::fmt::Write as _;
    let mut ev = String::with_capacity(256 + data.events.len() * 96);
    ev.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    ev.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
         \"args\":{\"name\":\"sim (1us = 1 cycle)\"}},\n\
         {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\
         \"args\":{\"name\":\"engine (wall clock)\"}}",
    );

    // Walker slot occupancy renders as complete ("X") spans, one track per
    // (lane, slot); queue depths and token grants as counters ("C"); every
    // other event as an instant ("i") on the lane's track (walker events on
    // their slot's) whose one argument is the event itself.
    let walker_tid = |lane: u32, slot: u32| 1000 * (u64::from(lane) + 1) + u64::from(slot);
    let mut walk_start: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for &(lane, rec) in &data.events {
        use crate::event::Event;
        let cycle = rec.cycle;
        let fam = rec.event.family();
        let name = rec.event.name();
        ev.push_str(",\n");
        match rec.event {
            Event::QueueDepth { depth, .. } => {
                let _ = write!(
                    ev,
                    "{{\"name\":\"{name}\",\"cat\":\"{fam}\",\"ph\":\"C\",\"ts\":{cycle},\
                     \"pid\":1,\"tid\":{lane},\"args\":{{\"depth\":{depth}}}}}"
                );
            }
            Event::TokenEpoch { asid, tokens, .. } => {
                let _ = write!(
                    ev,
                    "{{\"name\":\"tokens app{asid}\",\"cat\":\"{fam}\",\"ph\":\"C\",\
                     \"ts\":{cycle},\"pid\":1,\"tid\":{lane},\"args\":{{\"tokens\":{tokens}}}}}"
                );
            }
            Event::WalkerRelease { slot } => {
                // A release whose acquire the sink overwrote, or one left
                // over from an earlier job on the lane, starts at the
                // release itself.
                let start = walk_start
                    .remove(&(lane, slot))
                    .filter(|&s| s <= cycle)
                    .unwrap_or(cycle);
                let dur = (cycle - start).max(1);
                let _ = write!(
                    ev,
                    "{{\"name\":\"walk\",\"cat\":\"{fam}\",\"ph\":\"X\",\"ts\":{start},\
                     \"dur\":{dur},\"pid\":1,\"tid\":{}}}",
                    walker_tid(lane, slot)
                );
            }
            event => {
                let tid = match event {
                    Event::WalkerAcquire { slot, .. } => {
                        walk_start.insert((lane, slot), cycle);
                        walker_tid(lane, slot)
                    }
                    Event::WalkerLevel { slot, .. } => walker_tid(lane, slot),
                    _ => u64::from(lane),
                };
                let _ = write!(
                    ev,
                    "{{\"name\":\"{name}\",\"cat\":\"{fam}\",\"ph\":\"i\",\"ts\":{cycle},\
                     \"pid\":1,\"tid\":{tid},\"s\":\"t\",\"args\":{{\"event\":\"{}\"}}}}",
                    mask_common::json::escape(&format!("{event:?}"))
                );
            }
        }
    }
    for span in &data.spans {
        let _ = write!(
            ev,
            ",\n{{\"name\":\"{}\",\"cat\":\"engine\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":2,\"tid\":{}}}",
            mask_common::json::escape(&span.name),
            span.start_us,
            span.dur_us.max(1),
            span.lane
        );
    }
    for (&(stage, bucket), &(nanos, _)) in &data.stages {
        let _ = write!(
            ev,
            ",\n{{\"name\":\"stage_{stage}_ns\",\"cat\":\"profile\",\"ph\":\"C\",\"ts\":{},\
             \"pid\":1,\"tid\":0,\"args\":{{\"ns\":{nanos}}}}}",
            bucket * crate::profile::STAGE_BUCKET_CYCLES
        );
    }
    ev.push_str("\n]}\n");

    let mut jsonl = String::new();
    for frame in &data.frames {
        jsonl.push_str(frame);
        jsonl.push('\n');
    }
    for (&(stage, bucket), &(nanos, samples)) in &data.stages {
        let _ = writeln!(
            jsonl,
            "{{\"type\":\"stage_profile\",\"stage\":\"{stage}\",\"bucket\":{bucket},\
             \"ns\":{nanos},\"samples\":{samples}}}"
        );
    }

    let families = ["tlb", "walker", "l2", "dram", "job_pool"]
        .iter()
        .filter(|fam| jsonl.contains(&format!("\"{fam}\"")))
        .map(|fam| (*fam).to_owned())
        .collect();
    (ev, jsonl, families)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Domain, Event, MshrOutcome, QueueKind, Record};

    fn rec(cycle: u64, event: Event) -> (u32, Record) {
        (0, Record { cycle, event })
    }

    #[test]
    fn render_pairs_walker_spans_and_counts_families() {
        let mut data = TraceData {
            events: vec![
                rec(10, Event::WalkerAcquire { slot: 3, level: 1 }),
                rec(20, Event::WalkerLevel { slot: 3, level: 2 }),
                (
                    1,
                    Record {
                        cycle: 30,
                        event: Event::WalkerAcquire { slot: 3, level: 1 },
                    },
                ),
                (
                    1,
                    Record {
                        cycle: 60,
                        event: Event::WalkerRelease { slot: 3 },
                    },
                ),
                rec(
                    90,
                    Event::QueueDepth {
                        queue: QueueKind::Dram,
                        depth: 7,
                    },
                ),
                rec(100, Event::WalkerRelease { slot: 3 }),
            ],
            ..TraceData::default()
        };
        // Checked accounting events render with no code of their own.
        let accounting = [
            Event::Issue {
                domain: Domain::XlatMem,
                id: 41,
            },
            Event::Retire {
                domain: Domain::DramQueues,
                id: 42,
            },
            Event::MshrAlloc {
                table: 5,
                line: 0x40,
                outcome: MshrOutcome::Secondary,
                len: 2,
                capacity: 8,
            },
            Event::MshrFill {
                table: 5,
                line: 0x40,
                waiters: 2,
            },
        ];
        data.events
            .extend((110..).zip(accounting).map(|(cycle, e)| rec(cycle, e)));
        data.frames.push(
            "{\"type\":\"epoch\",\"cycle\":100000,\"app\":0,\"tlb\":{},\"walker\":{},\
             \"l2\":{},\"dram\":{}}"
                .to_owned(),
        );
        data.frames
            .push("{\"type\":\"job_pool\",\"workers\":1}".to_owned());
        data.spans.push(Span {
            name: "CONS+LPS \"quoted\"".to_owned(),
            lane: 2,
            start_us: 5,
            dur_us: 0,
        });
        data.stages.insert(("issue", 0), (1234, 10));
        let (trace, jsonl, families) = render(&data);
        // Each lane's acquire/release pair becomes one complete span on
        // that lane's track for the slot, however the pairs interleave.
        assert!(trace.contains(
            "\"name\":\"walk\",\"cat\":\"walker\",\"ph\":\"X\",\"ts\":10,\"dur\":90,\"pid\":1,\"tid\":1003"
        ));
        assert!(trace.contains(
            "\"name\":\"walk\",\"cat\":\"walker\",\"ph\":\"X\",\"ts\":30,\"dur\":30,\"pid\":1,\"tid\":2003"
        ));
        assert!(trace.contains("\"name\":\"dram_queue\""));
        assert!(trace.contains("\\\"quoted\\\""), "span names are escaped");
        assert!(
            trace.contains("\"dur\":1"),
            "zero-length spans clamp to 1us"
        );
        assert!(trace.contains("stage_issue_ns"));
        // Each lands in its domain's family, as an instant carrying the event.
        mask_common::json::parse(&trace).expect("trace.json is well-formed JSON");
        let families_at = ["issue\",\"cat\":\"walker", "retire\",\"cat\":\"dram"]
            .into_iter()
            .chain(["mshr_alloc\",\"cat\":\"mshr", "mshr_fill\",\"cat\":\"mshr"]);
        for (cycle, family) in (110..).zip(families_at) {
            let instant = format!("\"name\":\"{family}\",\"ph\":\"i\",\"ts\":{cycle},");
            assert!(trace.contains(&instant), "{instant}");
        }
        assert!(trace.contains("\"args\":{\"event\":\"Issue { domain: XlatMem, id: 41 }\"}"));
        assert!(jsonl.contains("\"type\":\"stage_profile\""));
        assert_eq!(families, ["tlb", "walker", "l2", "dram", "job_pool"]);
    }

    #[test]
    fn empty_trace_json_is_well_formed() {
        let (trace, _, _) = render(&TraceData::default());
        let doc = mask_common::json::parse(&trace).expect("Perfetto's parser accepts it");
        assert!(doc.get("traceEvents").is_some());
        assert!(trace.starts_with("{\"displayTimeUnit\""));
    }
}
