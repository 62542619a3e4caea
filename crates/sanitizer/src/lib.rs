//! Runtime simulation-invariant sanitizer.
//!
//! MASK's results rest on cycle-accurate accounting of in-flight state:
//! translation MSHR merging (§5.4), the 64-slot shared page-table walker
//! (§4.1), and epoch-based TLB-fill tokens (§5.2). A single leaked MSHR
//! waiter or reused walker slot silently corrupts every downstream figure
//! while the simulation still "runs fine". This crate is the machinery that
//! makes such bugs loud:
//!
//! - **Request conservation** — every issued request retires exactly once
//!   per accounting domain (no loss, no duplication).
//! - **MSHR accounting** — an independent mirror of every MSHR table checks
//!   that occupancy never exceeds capacity, that [`MshrOutcome::Full`] is
//!   only reported when the table is genuinely full, and that no entry
//!   outlives its fill.
//! - **Walker-slot lifecycle** — a walk slot is single-use until freed,
//!   freed exactly once, and its walk levels strictly increase 1→4.
//! - **TLB-fill token conservation** — per-epoch token grants stay within
//!   `1..=total_warps`.
//! - **Cycle monotonicity** — no component ever observes time running
//!   backwards.
//!
//! The hook functions ([`issue`], [`retire`], [`mshr_alloc`], [`cycle`], …)
//! are called by the cache, TLB, page-table-walker, DRAM, and GPU crates at
//! their state transitions. The checker is armed exactly when
//! `debug_assertions` is on: `cargo test` and every debug build check every
//! invariant, and nothing needs to be switched on. In a release build each
//! `#[inline(always)]` hook's body is `if false { … }` and folds away, so
//! the release simulator is as fast as an uninstrumented one.
//!
//! Violations panic immediately with a `[mask-sanitizer]` diagnostic naming
//! the component, the object, and the state transition that broke the
//! invariant.
//!
//! There is one checker and it is not swappable: every hook calls one
//! method of the thread's `InvariantSanitizer`, with no trait object or
//! event struct in between.
//!
//! The observability subsystem, `mask-obs`, places its tracing hooks
//! alongside this crate's at the simulator's state transitions, but
//! *records* events instead of checking them. Its hooks are always
//! compiled in and gated at runtime only (`MASK_TRACE`): tracing is a
//! switch on any build, while checking follows `debug_assertions`. The two
//! are independent and compose: a debug traced run checks invariants and
//! collects the trace in one pass.
//!
//! # Sessions
//!
//! State is tracked per thread and, within a thread, per *session* so that
//! two simulations built side by side (as the determinism tests do) don't
//! see each other's requests. [`GpuSim`](../mask_gpu/struct.GpuSim.html)
//! allocates a session with [`new_session`] and re-enters it with
//! [`enter_session`] at the top of every cycle, and drops it with
//! [`end_session`] when it is dropped, so a long-lived thread that runs
//! simulation after simulation holds the state of none of the finished
//! ones. Component unit tests that never create a session run in the
//! ambient session `0`.
//!
//! ## Worker threads
//!
//! Because all sanitizer state lives in a `thread_local!`, isolation under
//! the `mask-core` job engine comes for free: each engine worker thread
//! builds and runs its `GpuSim` entirely on that thread, so a sanitized
//! parallel batch gets one independent session space per worker — no
//! cross-thread sharing, no locks, and identical diagnostics at any
//! `MASK_JOBS` value. The one rule this imposes: a `GpuSim` must be
//! stepped on the thread that created it (moving one across threads
//! mid-run would leave its session behind). The engine guarantees this by
//! construction — every job is created, run, and dropped inside a single
//! worker closure — and violations in a job panic the worker, which the
//! engine re-raises on the caller with the original `[mask-sanitizer]`
//! message intact.

mod invariant;

/// Outcome of an MSHR allocation, as reported by the instrumented table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MshrOutcome {
    /// First miss on the line: a new entry was created.
    Primary,
    /// Merged into an existing entry.
    Secondary,
    /// Rejected: table claimed to be full.
    Full,
}

thread_local! {
    static SANITIZER: std::cell::RefCell<invariant::InvariantSanitizer> =
        const { std::cell::RefCell::new(invariant::InvariantSanitizer::new()) };
}

/// Runs `f` on this thread's checker.
fn with<R>(f: impl FnOnce(&mut invariant::InvariantSanitizer) -> R) -> R {
    SANITIZER.with(|s| f(&mut s.borrow_mut()))
}

/// Whether the hooks check anything: true exactly in builds with
/// `debug_assertions` on.
#[must_use]
pub const fn is_enabled() -> bool {
    cfg!(debug_assertions)
}

/// Allocates a fresh accounting session (returns 0 when disabled).
#[inline(always)]
#[must_use]
pub fn new_session() -> u64 {
    if cfg!(debug_assertions) {
        with(invariant::InvariantSanitizer::new_session)
    } else {
        0
    }
}

/// Makes `id` the current session for subsequent events on this thread.
#[inline(always)]
pub fn enter_session(id: u64) {
    if cfg!(debug_assertions) {
        with(|s| s.enter_session(id));
    }
}

/// Forgets everything session `id` recorded on this thread: its in-flight
/// requests, MSHR mirrors, component clocks and active walks. A no-op
/// during thread teardown, so it is safe to call from `Drop`.
#[inline(always)]
pub fn end_session(id: u64) {
    if cfg!(debug_assertions) {
        let _ = SANITIZER.try_with(|s| s.borrow_mut().end_session(id));
    }
}

/// Registers an MSHR table and returns its sanitizer id (0 when disabled).
#[inline(always)]
#[must_use]
pub fn register_table(component: &'static str, capacity: usize) -> u64 {
    if cfg!(debug_assertions) {
        with(|s| s.register_table(component, capacity))
    } else {
        0
    }
}

/// Records a request entering conservation domain `domain`.
#[inline(always)]
pub fn issue(domain: &'static str, id: u64) {
    if cfg!(debug_assertions) {
        with(|s| s.issue(domain, id));
    }
}

/// Records a request leaving conservation domain `domain`.
#[inline(always)]
pub fn retire(domain: &'static str, id: u64) {
    if cfg!(debug_assertions) {
        with(|s| s.retire(domain, id));
    }
}

/// Records an MSHR allocation attempt (call after the table updated).
#[inline(always)]
pub fn mshr_alloc(table: u64, line: u64, outcome: MshrOutcome, len: usize, capacity: usize) {
    if cfg!(debug_assertions) {
        with(|s| s.mshr_alloc(table, line, outcome, len, capacity));
    }
}

/// Records an MSHR fill (completion) releasing `waiters` waiters.
#[inline(always)]
pub fn mshr_fill(table: u64, line: u64, waiters: usize, found: bool) {
    if cfg!(debug_assertions) {
        with(|s| s.mshr_fill(table, line, waiters, found));
    }
}

/// Records an associative-array fill (TLB level, bypass cache, cache array).
#[inline(always)]
pub fn array_fill(component: &'static str, len: usize, capacity: usize) {
    if cfg!(debug_assertions) {
        with(|s| s.array_fill(component, len, capacity));
    }
}

/// Registers a ticking component instance for per-instance cycle tracking.
/// Returns its instance id (0 when disabled).
#[inline(always)]
#[must_use]
pub fn register_component(component: &'static str) -> u64 {
    let _ = component;
    if cfg!(debug_assertions) {
        with(invariant::InvariantSanitizer::register_component)
    } else {
        0
    }
}

/// Records a component instance observing cycle `now`.
#[inline(always)]
pub fn cycle(instance: u64, component: &'static str, now: u64) {
    if cfg!(debug_assertions) {
        with(|s| s.cycle(instance, component, now));
    }
}

/// Records a walker slot starting a walk at `level`.
#[inline(always)]
pub fn walk_activate(slot: u32, level: u8) {
    if cfg!(debug_assertions) {
        with(|s| s.walk_activate(slot, level));
    }
}

/// Records a walker slot advancing to `level`.
#[inline(always)]
pub fn walk_advance(slot: u32, level: u8) {
    if cfg!(debug_assertions) {
        with(|s| s.walk_advance(slot, level));
    }
}

/// Records a walker slot finishing its walk and being freed.
#[inline(always)]
pub fn walk_retire(slot: u32) {
    if cfg!(debug_assertions) {
        with(|s| s.walk_retire(slot));
    }
}

/// Reports a structural self-check: `ok == false` is a violation described
/// by `what`.
#[inline(always)]
pub fn check(ok: bool, component: &'static str, what: &'static str) {
    if cfg!(debug_assertions) {
        with(|s| s.check(ok, component, what));
    }
}

/// Records an epoch-boundary token grant for one address space.
#[inline(always)]
pub fn token_epoch(asid: u16, tokens: u64, total_warps: u64) {
    if cfg!(debug_assertions) {
        with(|s| s.token_epoch(asid, tokens, total_warps));
    }
}

/// Panics if anything is still in flight in the current session: un-retired
/// requests, pending MSHR entries, or active walker slots. Call after a
/// test has drained the simulated hierarchy.
#[inline(always)]
pub fn assert_quiescent() {
    if cfg!(debug_assertions) {
        with(|s| s.check_quiescent());
    }
}
