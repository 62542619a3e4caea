//! Hook points called from the simulator crates.
//!
//! Every event hook is `#[inline(always)]` and costs one relaxed load and
//! one test until tracing is switched on at runtime (`MASK_TRACE` /
//! [`crate::set_runtime`]); the recording itself is a `#[cold]` call into
//! [`crate::ring`]. The three per-cycle hooks [`set_cycle`],
//! [`queue_depth`] and [`flush_events`] do not test the gate: their one
//! caller, `GpuSim::step`, reads it once per cycle and guards them all. Hooks never read back any trace state into the
//! simulation, so traced and untraced runs are bit-identical.
//!
//! All storage lives in the per-thread buffers of [`crate::ring`] (the
//! crate's parallelism island), which this file only calls into.

use crate::event::{Event, QueueKind, StallKind, TlbLevel};
use crate::tracing_active;

/// Records `event()` while tracing is live. The event is built inside the
/// branch, so the off path does not even assemble it.
#[inline(always)]
fn record(event: impl FnOnce() -> Event) {
    if tracing_active() {
        crate::ring::record(event());
    }
}

/// Stamps subsequent events recorded on this thread with cycle `now`.
///
/// Called once per cycle from `GpuSim::step`, so hook sites themselves
/// never need a cycle argument. Callers guard it with [`tracing_active`].
#[inline(always)]
pub fn set_cycle(now: u64) {
    crate::ring::set_cycle(now);
}

/// A warp left the ready pool.
#[inline(always)]
pub fn warp_stall(core: u32, warp: u32, kind: StallKind) {
    record(|| Event::WarpStall { core, warp, kind });
}

/// A warp re-entered the ready pool.
#[inline(always)]
pub fn warp_wake(core: u32, warp: u32) {
    record(|| Event::WarpWake { core, warp });
}

/// A TLB structure was probed.
#[inline(always)]
pub fn tlb_probe(level: TlbLevel, asid: u16, hit: bool) {
    record(|| Event::TlbProbe { level, asid, hit });
}

/// A translation request merged into an in-flight walk's MSHR entry.
#[inline(always)]
pub fn tlb_mshr_merge(asid: u16) {
    record(|| Event::MshrMerge { asid });
}

/// A page walk moved into walker slot `slot`, starting at `level`.
#[inline(always)]
pub fn walker_acquire(slot: u32, level: u8) {
    record(|| Event::WalkerAcquire { slot, level });
}

/// The walk in `slot` advanced to radix `level`.
#[inline(always)]
pub fn walker_level(slot: u32, level: u8) {
    record(|| Event::WalkerLevel { slot, level });
}

/// The walk in `slot` completed and freed the slot.
#[inline(always)]
pub fn walker_release(slot: u32) {
    record(|| Event::WalkerRelease { slot });
}

/// A shared queue's depth at the current cycle (deduplicated on change).
/// Callers guard it, and the depth computation, with [`tracing_active`].
#[inline(always)]
pub fn queue_depth(queue: QueueKind, depth: u32) {
    crate::ring::record_depth(queue, depth);
}

/// MASK's translation-aware L2 bypass routed a translation request.
#[inline(always)]
pub fn bypass_decision(asid: u16, level: u8, bypassed: bool) {
    record(|| Event::Bypass {
        asid,
        level,
        bypassed,
    });
}

/// A token-controller epoch granted `tokens` fill tokens to `asid`.
#[inline(always)]
pub fn token_epoch(asid: u16, tokens: u64) {
    record(|| Event::TokenEpoch { asid, tokens });
}

/// Moves this thread's events into the process-wide sink, tagged with the
/// lane of the job running on it. Called at the end of `GpuSim::step`;
/// callers guard it with [`tracing_active`].
#[inline(always)]
pub fn flush_events() {
    crate::ring::flush_events();
}
