//! Per-thread event buffers, the process-wide collection sink, and the
//! `MASK_TRACE` runtime gate.
//!
//! This module is the **only** place in `mask-obs` (and, outside the job
//! engine / `maskd` / bench crate, the only place in the workspace) that
//! may hold thread primitives — each one carries an item-level
//! `#[expect(clippy::disallowed_types)]`. The hook functions in
//! [`crate::hooks`] stay lock-free on the recording path: each thread
//! appends to its own buffer, and only `flush_events` — called at the
//! end of every traced `GpuSim::step` — takes the sink lock. The sink keeps
//! the newest [`SINK_CAPACITY`] events, overwriting the oldest and counting
//! what it drops.
//!
//! Everything past the gate check is `#[cold]` and out of line, so a hook
//! inlined into the simulator costs one load and one test while tracing is
//! off.

use crate::event::{Event, QueueKind, Record, N_QUEUE_KINDS};
use crate::export::TraceData;
use crate::profile::Span;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
#[expect(clippy::disallowed_types, reason = "parallelism island")]
use std::sync::atomic::{AtomicU8, Ordering};
#[expect(clippy::disallowed_types, reason = "parallelism island")]
use std::sync::Mutex;

/// Events the sink holds before it overwrites the oldest: as many
/// lane-tagged records as fit in 32 MiB.
pub const SINK_CAPACITY: usize = (32 << 20) / std::mem::size_of::<(u32, Record)>();

const OFF: u8 = 0;
const ON: u8 = 1;
/// `MASK_TRACE` not read yet, or re-armed by `set_runtime(None)`.
const UNRESOLVED: u8 = 2;

#[expect(clippy::disallowed_types, reason = "one flag every worker reads")]
static GATE: AtomicU8 = AtomicU8::new(UNRESOLVED);

#[inline(always)]
pub(crate) fn runtime_enabled() -> bool {
    // Relaxed ordering: the gate is a single flag with no associated data
    // to publish; a racing thread at worst re-reads the env once.
    let gate = GATE.load(Ordering::Relaxed);
    gate != OFF && (gate == ON || resolve_env())
}

#[cold]
#[inline(never)]
#[expect(
    clippy::disallowed_methods,
    reason = "the `MASK_TRACE` entry point; tracing never feeds the simulation"
)]
fn resolve_env() -> bool {
    let on = std::env::var("MASK_TRACE").is_ok_and(|v| !v.is_empty() && v != "0");
    // Relaxed ordering: caching an idempotent env probe; every thread that
    // races here computes the same value.
    GATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
    on
}

pub(crate) fn set_runtime(on: Option<bool>) {
    let state = match on {
        None => UNRESOLVED,
        Some(false) => OFF,
        Some(true) => ON,
    };
    // Relaxed ordering: the gate synchronizes nothing — hooks observe the
    // new state on their next probe, which is all callers need.
    GATE.store(state, Ordering::Relaxed);
}

/// One thread's events since its last flush, plus its trace state.
struct Local {
    buf: Vec<Record>,
    /// Worker lane of the job running on this thread (`profile::begin_job`).
    lane: u32,
    cycle: u64,
    /// Last emitted depth per [`QueueKind`]; `-1` = none yet.
    last_depth: [i64; N_QUEUE_KINDS],
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            buf: Vec::new(),
            lane: 0,
            cycle: 0,
            last_depth: [-1; N_QUEUE_KINDS],
        })
    };
}

/// Stamps subsequent records on this thread with simulation cycle `now`.
#[cold]
#[inline(never)]
pub(crate) fn set_cycle(now: u64) {
    LOCAL.with_borrow_mut(|l| l.cycle = now);
}

/// Tags this thread's records with worker `lane` from now on (records
/// still buffered keep the lane they were recorded under).
pub(crate) fn set_lane(lane: u32) {
    flush_events();
    LOCAL.with_borrow_mut(|l| l.lane = lane);
}

/// Records one event into this thread's buffer.
#[cold]
#[inline(never)]
pub(crate) fn record(event: Event) {
    LOCAL.with_borrow_mut(|l| {
        let cycle = l.cycle;
        l.buf.push(Record { cycle, event });
    });
}

/// Records a queue-depth sample, deduplicated against the last sample
/// for the same queue on this thread (depths are polled every cycle but
/// only changes are interesting).
#[cold]
#[inline(never)]
pub(crate) fn record_depth(queue: QueueKind, depth: u32) {
    LOCAL.with_borrow_mut(|l| {
        let idx = queue as usize;
        if l.last_depth[idx] == i64::from(depth) {
            return;
        }
        l.last_depth[idx] = i64::from(depth);
        let cycle = l.cycle;
        l.buf.push(Record {
            cycle,
            event: Event::QueueDepth { queue, depth },
        });
    });
}

/// The process-wide collection sink. Locked only at flush points and by
/// the engine-side (already off the per-cycle path) recorders.
struct Sink {
    /// Lane-tagged events, oldest first, at most `cap` of them.
    events: VecDeque<(u32, Record)>,
    cap: usize,
    frames: Vec<String>,
    spans: Vec<Span>,
    /// (stage name, cycle bucket) → (total nanoseconds, samples).
    stages: BTreeMap<(&'static str, u64), (u64, u64)>,
    /// Events overwritten since the last snapshot.
    dropped: u64,
}

impl Sink {
    const fn new(cap: usize) -> Self {
        Sink {
            events: VecDeque::new(),
            cap,
            frames: Vec::new(),
            spans: Vec::new(),
            stages: BTreeMap::new(),
            dropped: 0,
        }
    }

    fn push_event(&mut self, lane: u32, r: Record) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((lane, r));
    }
}

#[expect(clippy::disallowed_types, reason = "the one lock workers flush into")]
static SINK: Mutex<Sink> = Mutex::new(Sink::new(SINK_CAPACITY));

fn sink() -> std::sync::MutexGuard<'static, Sink> {
    // A panic while holding the sink lock can only poison trace data,
    // never simulation results; keep collecting what we can.
    match SINK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Moves this thread's buffered events into the sink under its lane.
#[cold]
#[inline(never)]
pub(crate) fn flush_events() {
    LOCAL.with_borrow_mut(|l| {
        if l.buf.is_empty() {
            return;
        }
        let mut sink = sink();
        for r in l.buf.drain(..) {
            sink.push_event(l.lane, r);
        }
    });
}

/// Appends one prebuilt JSONL metrics frame.
pub(crate) fn push_frame(frame: String) {
    sink().frames.push(frame);
}

/// Drains only the collected JSONL metrics frames, leaving events,
/// spans, and stage timings in place for a later full snapshot
/// (`maskd` streams frames to job watchers between batches).
pub(crate) fn take_frames() -> Vec<String> {
    std::mem::take(&mut sink().frames)
}

/// Appends one completed wall-clock span (engine timeline).
pub(crate) fn push_span(span: Span) {
    sink().spans.push(span);
}

/// Accumulates a stage timing into its (stage, cycle-bucket) cell.
pub(crate) fn add_stage(stage: &'static str, bucket: u64, nanos: u64) {
    let mut s = sink();
    let cell = s.stages.entry((stage, bucket)).or_insert((0, 0));
    cell.0 += nanos;
    cell.1 += 1;
}

/// Flushes the calling thread's buffer and drains the whole sink.
pub(crate) fn take_snapshot() -> TraceData {
    flush_events();
    let mut s = sink();
    TraceData {
        events: std::mem::take(&mut s.events).into(),
        frames: std::mem::take(&mut s.frames),
        spans: std::mem::take(&mut s.spans),
        stages: std::mem::take(&mut s.stages),
        dropped: std::mem::replace(&mut s.dropped, 0),
    }
}

/// Discards everything collected so far (tests and repeated example
/// runs within one process).
pub(crate) fn reset() {
    let _ = take_snapshot();
    LOCAL.with_borrow_mut(|l| {
        l.last_depth = [-1; N_QUEUE_KINDS];
        l.cycle = 0;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TlbLevel;

    fn probe(n: u64) -> Event {
        Event::TlbProbe {
            level: TlbLevel::L1,
            asid: n as u16,
            hit: n.is_multiple_of(2),
        }
    }

    #[test]
    fn sink_overwrites_oldest_and_counts_drops() {
        let mut sink = Sink::new(4);
        for n in 0..6 {
            sink.push_event(
                3,
                Record {
                    cycle: n,
                    event: probe(n),
                },
            );
        }
        assert_eq!(sink.dropped, 2);
        assert_eq!(
            std::mem::size_of::<(u32, Record)>(),
            40,
            "the widest events (MSHR, tokens) set the record size"
        );
        assert_eq!(SINK_CAPACITY, 838_860, "32 MiB of 40-byte records");
        let cycles: Vec<u64> = sink.events.iter().map(|(_, r)| r.cycle).collect();
        assert_eq!(cycles, [2, 3, 4, 5], "oldest two overwritten, order kept");
        assert!(sink.events.iter().all(|&(lane, _)| lane == 3));
    }

    #[test]
    fn runtime_override_wins_over_env() {
        set_runtime(Some(true));
        assert!(runtime_enabled());
        set_runtime(Some(false));
        assert!(!runtime_enabled());
        set_runtime(Some(true));
        reset();
        record(probe(1));
        record_depth(QueueKind::L2, 5);
        record_depth(QueueKind::L2, 5); // deduplicated
        set_lane(2);
        record_depth(QueueKind::L2, 6);
        let snap = take_snapshot();
        let lanes: Vec<u32> = snap.events.iter().map(|&(lane, _)| lane).collect();
        assert_eq!(lanes, [0, 0, 2], "records keep the lane they were made on");
        set_runtime(Some(false));
    }
}
