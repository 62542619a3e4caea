//! Per-thread ring buffers, the process-wide collection sink, and the
//! `MASK_TRACE` runtime gate.
//!
//! This module is the **only** place in `mask-obs` (and, outside the job
//! engine / `maskd` / bench crate, the only place in the workspace) that
//! may hold thread primitives — the `parallelism` rule of `cargo xtask
//! lint` allowlists exactly this file. The hook functions in
//! [`crate::hooks`] stay lock-free on the recording path: each thread
//! writes into its own fixed-capacity ring (overwrite-oldest, with a
//! dropped-record counter) and only [`flush_events`] — called at coarse
//! points such as the end of `GpuSim::step` — takes the sink lock.
//!
//! Capacity defaults to [`DEFAULT_CAPACITY`] records per thread and can be
//! overridden with the `MASK_TRACE_BUF` environment variable.

/// Default per-thread ring capacity in records (`MASK_TRACE_BUF` overrides).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

#[cfg(feature = "enabled")]
pub(crate) use active::{
    add_stage, flush_events, push_frame, push_span, record, record_depth, reset, runtime_enabled,
    set_cycle, set_runtime, take_frames, take_snapshot,
};

#[cfg(feature = "enabled")]
mod active {
    use crate::event::{Event, QueueKind, Record, N_QUEUE_KINDS};
    use crate::export::TraceData;
    use crate::profile::Span;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::Mutex;

    /// Runtime gate: 0 = consult `MASK_TRACE`, 1 = forced off, 2 = forced
    /// on, 3 = env said off (cached), 4 = env said on (cached).
    static RUNTIME: AtomicU8 = AtomicU8::new(0);

    #[inline(always)]
    pub(crate) fn runtime_enabled() -> bool {
        // Relaxed ordering: the gate is a single flag with no associated
        // data to publish; a racing thread at worst re-reads the env once.
        match RUNTIME.load(Ordering::Relaxed) {
            2 | 4 => true,
            1 | 3 => false,
            _ => {
                let on = std::env::var("MASK_TRACE").is_ok_and(|v| !v.is_empty() && v != "0");
                // Relaxed ordering: caching an idempotent env probe; every
                // thread that races here computes the same value.
                RUNTIME.store(if on { 4 } else { 3 }, Ordering::Relaxed);
                on
            }
        }
    }

    pub(crate) fn set_runtime(on: Option<bool>) {
        let state = match on {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        };
        // Relaxed ordering: the gate synchronizes nothing — rings observe
        // the new state on their next probe, which is all callers need.
        RUNTIME.store(state, Ordering::Relaxed);
    }

    fn ring_capacity() -> usize {
        std::env::var("MASK_TRACE_BUF")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(super::DEFAULT_CAPACITY)
    }

    /// One thread's fixed-capacity event buffer plus its per-thread trace
    /// state (current cycle stamp, queue-depth dedup table).
    struct Ring {
        buf: Vec<Record>,
        /// Fixed record capacity (`Vec::with_capacity` only promises "at
        /// least", so the wrap point is tracked explicitly).
        cap: usize,
        /// Index of the oldest record once the buffer has wrapped.
        start: usize,
        dropped: u64,
        cycle: u64,
        /// Last emitted depth per [`QueueKind`]; `-1` = none yet.
        last_depth: [i64; N_QUEUE_KINDS],
    }

    impl Ring {
        fn new() -> Self {
            let cap = ring_capacity();
            Ring {
                buf: Vec::with_capacity(cap),
                cap,
                start: 0,
                dropped: 0,
                cycle: 0,
                last_depth: [-1; N_QUEUE_KINDS],
            }
        }

        #[inline]
        fn push(&mut self, r: Record) {
            if self.buf.len() < self.cap {
                self.buf.push(r);
            } else {
                // Overwrite the oldest record; never reallocate.
                self.buf[self.start] = r;
                self.start = (self.start + 1) % self.cap;
                self.dropped += 1;
            }
        }

        fn drain_into(&mut self, lane: u32, out: &mut Vec<(u32, Record)>) {
            for r in &self.buf[self.start..] {
                out.push((lane, *r));
            }
            for r in &self.buf[..self.start] {
                out.push((lane, *r));
            }
            self.buf.clear();
            self.start = 0;
        }
    }

    thread_local! {
        static RING: RefCell<Ring> = RefCell::new(Ring::new());
    }

    /// Stamps subsequent records on this thread with simulation cycle `now`.
    #[inline]
    pub(crate) fn set_cycle(now: u64) {
        if !runtime_enabled() {
            return;
        }
        RING.with(|r| r.borrow_mut().cycle = now);
    }

    /// Records one event into this thread's ring.
    #[inline]
    pub(crate) fn record(event: Event) {
        if !runtime_enabled() {
            return;
        }
        RING.with(|r| {
            let mut ring = r.borrow_mut();
            let cycle = ring.cycle;
            ring.push(Record { cycle, event });
        });
    }

    /// Records a queue-depth sample, deduplicated against the last sample
    /// for the same queue on this thread (depths are polled every cycle but
    /// only changes are interesting).
    #[inline]
    pub(crate) fn record_depth(queue: QueueKind, depth: u32) {
        if !runtime_enabled() {
            return;
        }
        RING.with(|r| {
            let mut ring = r.borrow_mut();
            let idx = queue as usize;
            if ring.last_depth[idx] == i64::from(depth) {
                return;
            }
            ring.last_depth[idx] = i64::from(depth);
            let cycle = ring.cycle;
            ring.push(Record {
                cycle,
                event: Event::QueueDepth { queue, depth },
            });
        });
    }

    /// The process-wide collection sink. Locked only at flush points and by
    /// the engine-side (already off the per-cycle path) recorders.
    struct Sink {
        events: Vec<(u32, Record)>,
        frames: Vec<String>,
        spans: Vec<Span>,
        /// (stage name, cycle bucket) → (total nanoseconds, samples).
        stages: BTreeMap<(&'static str, u64), (u64, u64)>,
        dropped: u64,
    }

    static SINK: Mutex<Sink> = Mutex::new(Sink {
        events: Vec::new(),
        frames: Vec::new(),
        spans: Vec::new(),
        stages: BTreeMap::new(),
        dropped: 0,
    });

    fn sink() -> std::sync::MutexGuard<'static, Sink> {
        // A panic while holding the sink lock can only poison trace data,
        // never simulation results; keep collecting what we can.
        match SINK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Drains this thread's ring into the sink, tagging records with `lane`.
    pub(crate) fn flush_events(lane: u32) {
        if !runtime_enabled() {
            return;
        }
        RING.with(|r| {
            let mut ring = r.borrow_mut();
            if ring.buf.is_empty() && ring.dropped == 0 {
                return;
            }
            let mut sink = sink();
            sink.dropped += ring.dropped;
            ring.dropped = 0;
            ring.drain_into(lane, &mut sink.events);
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

    /// Flushes the calling thread's ring and drains the whole sink.
    pub(crate) fn take_snapshot() -> TraceData {
        flush_events(0);
        let mut s = sink();
        TraceData {
            events: std::mem::take(&mut s.events),
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
        RING.with(|r| {
            let mut ring = r.borrow_mut();
            ring.last_depth = [-1; N_QUEUE_KINDS];
            ring.cycle = 0;
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
        fn ring_overwrites_oldest_and_counts_drops() {
            let mut ring = Ring {
                buf: Vec::with_capacity(4),
                cap: 4,
                start: 0,
                dropped: 0,
                cycle: 0,
                last_depth: [-1; N_QUEUE_KINDS],
            };
            for n in 0..6 {
                ring.push(Record {
                    cycle: n,
                    event: probe(n),
                });
            }
            assert_eq!(ring.dropped, 2);
            let mut out = Vec::new();
            ring.drain_into(3, &mut out);
            let cycles: Vec<u64> = out.iter().map(|(_, r)| r.cycle).collect();
            assert_eq!(cycles, [2, 3, 4, 5], "oldest two overwritten, order kept");
            assert!(out.iter().all(|&(lane, _)| lane == 3));
            assert!(ring.buf.is_empty());
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
            record_depth(QueueKind::L2, 6);
            let snap = take_snapshot();
            assert_eq!(snap.events.len(), 3);
            set_runtime(Some(false));
        }
    }
}
