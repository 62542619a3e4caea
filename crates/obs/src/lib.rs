//! `mask-obs`: zero-cost observability for the MASK simulator.
//!
//! Three layers, all built on the hook-point pattern established by
//! `mask-sanitizer` (inline functions that compile to nothing unless a
//! feature is on):
//!
//! 1. **Event tracing** ([`hooks`], [`event`], [`ring`]) — the simulator
//!    crates call tiny `#[inline(always)]` hook functions at interesting
//!    micro-architectural moments (warp stall transitions, TLB probes and
//!    MSHR merges, walker slot lifecycle, L2/DRAM queue depths, bypass
//!    decisions, token grants). Records land in a fixed-capacity
//!    **per-thread ring buffer** (overwrite-oldest, drop-counted), so
//!    `JobPool` workers trace without any cross-thread synchronization on
//!    the per-cycle path; rings are drained into a process-wide sink at
//!    coarse flush points only.
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
//! # Zero-cost contract
//!
//! * Without the `enabled` feature every hook has an empty body and every
//!   tracker is a zero-sized no-op; the `hotpath` and `parallelism` rules
//!   of `cargo xtask lint` verify the disabled path allocates nothing and
//!   uses no thread primitives (see `crates/obs/src/hooks.rs` and
//!   `crates/obs/src/ring.rs` in `xtask/src/lint.rs`).
//! * With the feature compiled in, hooks are still inert until tracing is
//!   switched on at runtime via the `MASK_TRACE` environment variable (any
//!   non-empty value other than `0`) or [`set_runtime`].
//! * Hooks never mutate simulator state, so traced runs are bit-identical
//!   to untraced runs (proven by `tests/obs_trace.rs`).

pub mod event;
pub mod export;
pub mod hooks;
pub mod metrics;
pub mod profile;
pub mod ring;

pub use event::{Event, QueueKind, Record, StallKind, TlbLevel};

/// Whether trace hooks are compiled in (the `enabled` feature).
#[must_use]
pub const fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Whether tracing is live right now: compiled in **and** runtime-enabled.
///
/// Call sites that need to compute a hook argument (e.g. scan a queue for
/// its depth) guard the computation with this; it is a constant `false`
/// when the feature is off, so the guarded block is dead code.
#[inline(always)]
#[must_use]
pub fn tracing_active() -> bool {
    #[cfg(feature = "enabled")]
    {
        ring::runtime_enabled()
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Discards everything collected so far (events, frames, spans, profile
/// aggregates) without exporting it. Lets tests and examples run several
/// configurations in one process without mixing their traces; a no-op
/// unless the feature is compiled in.
pub fn reset_collected() {
    #[cfg(feature = "enabled")]
    ring::reset();
}

/// Drains the per-epoch JSONL metrics frames collected so far, leaving
/// events, spans, and profile aggregates in place for a later full
/// export. `maskd` calls this after each dispatched batch to stream
/// epoch-metrics frames to job watchers; always empty unless the feature
/// is compiled in and tracing is live.
#[must_use]
pub fn drain_frames() -> Vec<String> {
    #[cfg(feature = "enabled")]
    {
        ring::take_frames()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Vec::new()
    }
}

/// Programmatically overrides the `MASK_TRACE` runtime gate.
///
/// `Some(true)` forces tracing on, `Some(false)` forces it off, and `None`
/// re-arms the environment-variable check. Used by the bit-identity tests
/// and the `trace_viewer` example; a no-op unless the feature is compiled
/// in.
pub fn set_runtime(on: Option<bool>) {
    #[cfg(feature = "enabled")]
    ring::set_runtime(on);
    #[cfg(not(feature = "enabled"))]
    let _ = on;
}
