//! Hook points called from the simulator crates.
//!
//! Same contract as `mask_sanitizer`'s hooks: every function is
//! `#[inline(always)]` and compiles to an empty body unless the `enabled`
//! feature is on; with the feature on it is still a single relaxed load
//! until tracing is switched on at runtime (`MASK_TRACE` /
//! [`crate::set_runtime`]). Hooks never read back any trace state into the
//! simulation, so traced and untraced runs are bit-identical.
//!
//! This file is covered by the `hotpath` rule of `cargo xtask lint`: the
//! recording path must not allocate. All storage lives in the per-thread
//! rings of [`crate::ring`] (the parallelism-allowlisted module), which
//! this file only calls into.

use crate::event::{QueueKind, StallKind, TlbLevel};

#[cfg(feature = "enabled")]
use crate::event::Event;

/// Stamps subsequent events recorded on this thread with cycle `now`.
///
/// Called once per cycle from `GpuSim::step`, so hook sites themselves
/// never need a cycle argument.
#[inline(always)]
pub fn set_cycle(now: u64) {
    #[cfg(feature = "enabled")]
    crate::ring::set_cycle(now);
    #[cfg(not(feature = "enabled"))]
    let _ = now;
}

/// A warp left the ready pool.
#[inline(always)]
pub fn warp_stall(core: u32, warp: u32, kind: StallKind) {
    #[cfg(feature = "enabled")]
    crate::ring::record(Event::WarpStall { core, warp, kind });
    #[cfg(not(feature = "enabled"))]
    let _ = (core, warp, kind);
}

/// A warp re-entered the ready pool.
#[inline(always)]
pub fn warp_wake(core: u32, warp: u32) {
    #[cfg(feature = "enabled")]
    crate::ring::record(Event::WarpWake { core, warp });
    #[cfg(not(feature = "enabled"))]
    let _ = (core, warp);
}

/// A TLB structure was probed.
#[inline(always)]
pub fn tlb_probe(level: TlbLevel, asid: u16, hit: bool) {
    #[cfg(feature = "enabled")]
    crate::ring::record(Event::TlbProbe { level, asid, hit });
    #[cfg(not(feature = "enabled"))]
    let _ = (level, asid, hit);
}

/// A translation request merged into an in-flight walk's MSHR entry.
#[inline(always)]
pub fn tlb_mshr_merge(asid: u16) {
    #[cfg(feature = "enabled")]
    crate::ring::record(Event::MshrMerge { asid });
    #[cfg(not(feature = "enabled"))]
    let _ = asid;
}

/// A page walk moved into walker slot `slot`, starting at `level`.
#[inline(always)]
pub fn walker_acquire(slot: u32, level: u8) {
    #[cfg(feature = "enabled")]
    crate::ring::record(Event::WalkerAcquire { slot, level });
    #[cfg(not(feature = "enabled"))]
    let _ = (slot, level);
}

/// The walk in `slot` advanced to radix `level`.
#[inline(always)]
pub fn walker_level(slot: u32, level: u8) {
    #[cfg(feature = "enabled")]
    crate::ring::record(Event::WalkerLevel { slot, level });
    #[cfg(not(feature = "enabled"))]
    let _ = (slot, level);
}

/// The walk in `slot` completed and freed the slot.
#[inline(always)]
pub fn walker_release(slot: u32) {
    #[cfg(feature = "enabled")]
    crate::ring::record(Event::WalkerRelease { slot });
    #[cfg(not(feature = "enabled"))]
    let _ = slot;
}

/// A shared queue's depth at the current cycle (deduplicated on change;
/// callers guard any depth computation with [`crate::tracing_active`]).
#[inline(always)]
pub fn queue_depth(queue: QueueKind, depth: u32) {
    #[cfg(feature = "enabled")]
    crate::ring::record_depth(queue, depth);
    #[cfg(not(feature = "enabled"))]
    let _ = (queue, depth);
}

/// MASK's translation-aware L2 bypass routed a translation request.
#[inline(always)]
pub fn bypass_decision(asid: u16, level: u8, bypassed: bool) {
    #[cfg(feature = "enabled")]
    crate::ring::record(Event::Bypass {
        asid,
        level,
        bypassed,
    });
    #[cfg(not(feature = "enabled"))]
    let _ = (asid, level, bypassed);
}

/// A token-controller epoch granted `tokens` fill tokens to `asid`.
#[inline(always)]
pub fn token_epoch(asid: u16, tokens: u64) {
    #[cfg(feature = "enabled")]
    crate::ring::record(Event::TokenEpoch { asid, tokens });
    #[cfg(not(feature = "enabled"))]
    let _ = (asid, tokens);
}

/// Drains this thread's ring into the process-wide sink, tagged with
/// `lane`. Called at the end of `GpuSim::step`.
#[inline(always)]
pub fn flush_events(lane: u32) {
    #[cfg(feature = "enabled")]
    crate::ring::flush_events(lane);
    #[cfg(not(feature = "enabled"))]
    let _ = lane;
}
