//! Hook points called from the simulator crates: one call per state
//! transition.
//!
//! Every event hook hands its [`Event`] to the invariant checker when
//! `debug_assertions` is on (in a release build that branch folds away) and
//! to [`crate::ring`] while tracing is on (off: one relaxed load and one
//! test). [`set_cycle`], [`queue_depth`] and [`flush_events`] leave the gate
//! to their one caller, `GpuSim::step`. The checker-only calls at the end
//! are not events. Hooks never feed anything back into the simulation.

use crate::event::{Domain, Event, MshrOutcome, QueueKind, StallKind, TlbLevel};
use crate::tracing_active;

/// Hands `event()` to the checker (debug builds) and the ring (tracing
/// live). The event is built inside each branch, so a release build with
/// tracing off does not even assemble it.
#[inline(always)]
fn emit(event: impl Fn() -> Event) {
    if cfg!(debug_assertions) {
        crate::check::observe(&event());
    }
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
    emit(|| Event::WarpStall { core, warp, kind });
}

/// A warp re-entered the ready pool.
#[inline(always)]
pub fn warp_wake(core: u32, warp: u32) {
    emit(|| Event::WarpWake { core, warp });
}

/// A TLB structure was probed.
#[inline(always)]
pub fn tlb_probe(level: TlbLevel, asid: u16, hit: bool) {
    emit(|| Event::TlbProbe { level, asid, hit });
}

/// A translation request merged into an in-flight walk's MSHR entry.
#[inline(always)]
pub fn tlb_mshr_merge(asid: u16) {
    emit(|| Event::MshrMerge { asid });
}

/// A page walk moved into walker slot `slot`, starting at `level`.
#[inline(always)]
pub fn walker_acquire(slot: u32, level: u8) {
    emit(|| Event::WalkerAcquire { slot, level });
}

/// The walk in `slot` advanced to radix `level`.
#[inline(always)]
pub fn walker_level(slot: u32, level: u8) {
    emit(|| Event::WalkerLevel { slot, level });
}

/// The walk in `slot` completed and freed the slot.
#[inline(always)]
pub fn walker_release(slot: u32) {
    emit(|| Event::WalkerRelease { slot });
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
    emit(|| Event::Bypass {
        asid,
        level,
        bypassed,
    });
}

/// A token-controller epoch granted `tokens` of `total_warps` possible
/// fill tokens to `asid`.
#[inline(always)]
pub fn token_epoch(asid: u16, tokens: u64, total_warps: u64) {
    emit(|| Event::TokenEpoch {
        asid,
        tokens,
        total_warps,
    });
}

/// Request `id` entered conservation domain `domain`.
#[inline(always)]
pub fn issue(domain: Domain, id: u64) {
    emit(|| Event::Issue { domain, id });
}

/// Request `id` left conservation domain `domain`.
#[inline(always)]
pub fn retire(domain: Domain, id: u64) {
    emit(|| Event::Retire { domain, id });
}

/// An MSHR table answered an allocation for `line` (call after the table
/// updated; `len` is its occupancy afterwards).
#[inline(always)]
pub fn mshr_alloc(table: u32, line: u64, outcome: MshrOutcome, len: usize, capacity: usize) {
    emit(|| Event::MshrAlloc {
        table,
        line,
        outcome,
        len: len as u32,
        capacity: capacity as u32,
    });
}

/// An MSHR table completed `line`, releasing `waiters` waiters (0 when it
/// held no entry for the line: every entry has at least one).
#[inline(always)]
pub fn mshr_fill(table: u32, line: u64, waiters: usize) {
    emit(|| Event::MshrFill {
        table,
        line,
        waiters: waiters as u32,
    });
}

/// Moves this thread's events into the process-wide sink, tagged with the
/// lane of the job running on it. Called at the end of `GpuSim::step`;
/// callers guard it with [`tracing_active`].
#[inline(always)]
pub fn flush_events() {
    crate::ring::flush_events();
}

// ---- checker-only calls ----------------------------------------------------

/// Runs `f` on this thread's checker; a release build returns the default.
#[inline(always)]
fn checked<R: Default>(f: impl FnOnce(&mut crate::check::Checker) -> R) -> R {
    if cfg!(debug_assertions) {
        crate::check::CHECKER.with_borrow_mut(f)
    } else {
        R::default()
    }
}

/// Allocates a fresh accounting session.
#[inline(always)]
#[must_use]
pub fn new_session() -> u64 {
    checked(crate::check::Checker::new_session)
}

/// Makes `id` the current session for subsequent events on this thread.
#[inline(always)]
pub fn enter_session(id: u64) {
    checked(|c| c.enter_session(id));
}

/// Forgets everything session `id` recorded on this thread. A no-op during
/// thread teardown, so it is safe to call from `Drop`.
#[inline(always)]
pub fn end_session(id: u64) {
    if cfg!(debug_assertions) {
        let _ = crate::check::CHECKER.try_with(|c| c.borrow_mut().end_session(id));
    }
}

/// Registers an MSHR table and returns its id.
#[inline(always)]
#[must_use]
pub fn register_table(component: &'static str, capacity: usize) -> u32 {
    checked(|c| c.register_table(component, capacity))
}

/// Registers a ticking component instance for per-instance cycle tracking
/// and returns its id.
#[inline(always)]
#[must_use]
pub fn register_component(component: &'static str) -> u32 {
    checked(|c| c.register_component(component))
}

/// Component instance `instance` observed cycle `now`.
#[inline(always)]
pub fn cycle(instance: u32, now: u64) {
    checked(|c| c.cycle(instance, now));
}

/// An associative array (TLB level, bypass cache, cache array) holds `len`
/// of `capacity` entries after a fill.
#[inline(always)]
pub fn array_fill(component: &'static str, len: usize, capacity: usize) {
    checked(|c| c.array_fill(component, len, capacity));
}

/// A structural self-check: `ok == false` is a violation described by
/// `what`.
#[inline(always)]
pub fn check(ok: bool, component: &'static str, what: &'static str) {
    checked(|c| c.check(ok, component, what));
}

/// Panics if anything is still in flight in the current session: requests
/// not retired, pending MSHR entries or active walker slots. Call after a
/// test has drained the simulated hierarchy.
#[inline(always)]
pub fn assert_quiescent() {
    checked(|c| c.check_quiescent());
}
