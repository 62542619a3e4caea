//! `mask-obs`: the MASK simulator's one hook family. Each state transition
//! is one [`Event`] that the debug-build invariant checker audits and the
//! tracer records while `MASK_TRACE` is on.
//!
//! Three layers:
//!
//! 1. **Events** ([`hooks`], [`event`], [`ring`]) — the simulator crates
//!    call one tiny `#[inline(always)]` hook per state transition (warp
//!    stalls, TLB probes, walker slots, request issue/retire, MSHR
//!    allocation and fill, queue depths, bypass decisions, token grants).
//!    While tracing is on, records land in a **per-thread buffer**,
//!    so `JobPool` workers trace without any cross-thread synchronization
//!    on the per-cycle path; buffers are drained at the end of every step
//!    into a process-wide sink that keeps the newest
//!    [`ring::SINK_CAPACITY`] events (overwrite-oldest, drop-counted).
//! 2. **Metrics stream** ([`metrics`]) — per-epoch snapshots of the
//!    `AppStats` counters, diffed against the previous epoch and emitted as
//!    JSONL frames (counter families: `tlb`, `walker`, `l2`, `dram`, plus
//!    engine-side `job_pool` frames).
//! 3. **Self-profiling** ([`profile`]) — cycle-bucketed wall-clock timings
//!    of the `GpuSim::step` stages and job engine spans, so `MASK_JOBS`
//!    tuning is data-driven.
//!
//! [`export`] turns the collected data into Chrome/Perfetto `trace_event`
//! JSON plus the metrics JSONL (see `cargo run --example trace_viewer`).
//!
//! # Off-path contract
//!
//! * The hooks are always compiled in; the checker folds away in a release
//!   build, and recording is inert until tracing is switched on via the
//!   `MASK_TRACE` environment variable (any non-empty value other than `0`)
//!   or [`set_runtime`]. Off, a hook is one relaxed load and one test;
//!   everything past it is `#[cold]` and out of line.
//! * Thread primitives stay in `ring.rs`, the crate's one parallelism
//!   island (clippy's `disallowed-types` in `crates/clippy.toml`). The
//!   recording path takes no lock; it pushes into a growable per-thread
//!   buffer, so it allocates when that buffer grows.
//! * Hooks never mutate simulator state, so traced runs are bit-identical
//!   to untraced runs (proven by `tests/obs_trace.rs`).

mod check;
pub mod event;
pub mod export;
pub mod hooks;
pub mod metrics;
pub mod profile;
pub mod ring;

pub use event::{Domain, Event, MshrOutcome, QueueKind, Record, StallKind, TlbLevel};

/// Whether tracing is live right now.
///
/// Call sites that need to compute a hook argument (e.g. scan a queue for
/// its depth) guard the computation with this; off, it is one load and
/// one test, and `MASK_TRACE` is read once, on the first call.
#[inline(always)]
#[must_use]
pub fn tracing_active() -> bool {
    ring::runtime_enabled()
}

/// Discards everything collected so far (events, frames, spans, profile
/// aggregates) without exporting it. Lets tests and examples run several
/// configurations in one process without mixing their traces.
pub fn reset_collected() {
    ring::reset();
}

/// Drains the per-epoch JSONL metrics frames collected so far, leaving
/// events, spans, and profile aggregates in place for a later full
/// export. `maskd` calls this after each dispatched batch to stream
/// epoch-metrics frames to job watchers; always empty unless tracing is
/// live.
#[must_use]
pub fn drain_frames() -> Vec<String> {
    ring::take_frames()
}

/// Programmatically overrides the `MASK_TRACE` runtime gate.
///
/// `Some(true)` forces tracing on, `Some(false)` forces it off, and `None`
/// re-arms the environment-variable check. Used by the bit-identity tests
/// and the `trace_viewer` example.
pub fn set_runtime(on: Option<bool>) {
    ring::set_runtime(on);
}
