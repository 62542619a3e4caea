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
//! their state transitions. Without the `sanitize` feature every hook is an
//! empty `#[inline(always)]` function, so the instrumented simulator is
//! byte-for-byte as fast as an uninstrumented one. Simulation crates expose
//! the feature under the same name; turning it on anywhere in the workspace
//! turns it on everywhere (cargo feature unification), which is exactly the
//! intended "sanitized build" semantics.
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
//! switch on any build, while checking stays a build of its own. The two
//! are independent and compose: a sanitized traced run checks invariants
//! and collects the trace in one pass.
//!
//! # Sessions
//!
//! State is tracked per thread and, within a thread, per *session* so that
//! two simulations built side by side (as the determinism tests do) don't
//! see each other's requests. [`GpuSim`](../mask_gpu/struct.GpuSim.html)
//! allocates a session with [`new_session`] and re-enters it with
//! [`enter_session`] at the top of every cycle; component unit tests that
//! never create a session run in the ambient session `0`.
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

#[cfg(any(feature = "sanitize", test))]
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

#[cfg(feature = "sanitize")]
thread_local! {
    static SANITIZER: std::cell::RefCell<invariant::InvariantSanitizer> =
        const { std::cell::RefCell::new(invariant::InvariantSanitizer::new()) };
}

/// Runs `f` on this thread's checker.
#[cfg(feature = "sanitize")]
fn with<R>(f: impl FnOnce(&mut invariant::InvariantSanitizer) -> R) -> R {
    SANITIZER.with(|s| f(&mut s.borrow_mut()))
}

/// Whether sanitizer hooks are compiled in (the `sanitize` feature).
#[must_use]
pub const fn is_enabled() -> bool {
    cfg!(feature = "sanitize")
}

/// Allocates a fresh accounting session (returns 0 when disabled).
#[inline(always)]
#[must_use]
pub fn new_session() -> u64 {
    #[cfg(feature = "sanitize")]
    {
        with(invariant::InvariantSanitizer::new_session)
    }
    #[cfg(not(feature = "sanitize"))]
    {
        0
    }
}

/// Makes `id` the current session for subsequent events on this thread.
#[inline(always)]
pub fn enter_session(id: u64) {
    #[cfg(feature = "sanitize")]
    with(|s| s.enter_session(id));
    #[cfg(not(feature = "sanitize"))]
    let _ = id;
}

/// Registers an MSHR table and returns its sanitizer id (0 when disabled).
#[inline(always)]
#[must_use]
pub fn register_table(component: &'static str, capacity: usize) -> u64 {
    #[cfg(feature = "sanitize")]
    {
        with(|s| s.register_table(component, capacity))
    }
    #[cfg(not(feature = "sanitize"))]
    {
        let _ = (component, capacity);
        0
    }
}

/// Records a request entering conservation domain `domain`.
#[inline(always)]
pub fn issue(domain: &'static str, id: u64) {
    #[cfg(feature = "sanitize")]
    with(|s| s.issue(domain, id));
    #[cfg(not(feature = "sanitize"))]
    let _ = (domain, id);
}

/// Records a request leaving conservation domain `domain`.
#[inline(always)]
pub fn retire(domain: &'static str, id: u64) {
    #[cfg(feature = "sanitize")]
    with(|s| s.retire(domain, id));
    #[cfg(not(feature = "sanitize"))]
    let _ = (domain, id);
}

/// Records an MSHR allocation attempt (call after the table updated).
#[inline(always)]
pub fn mshr_alloc(table: u64, line: u64, outcome: MshrOutcome, len: usize, capacity: usize) {
    #[cfg(feature = "sanitize")]
    with(|s| s.mshr_alloc(table, line, outcome, len, capacity));
    #[cfg(not(feature = "sanitize"))]
    let _ = (table, line, outcome, len, capacity);
}

/// Records an MSHR fill (completion) releasing `waiters` waiters.
#[inline(always)]
pub fn mshr_fill(table: u64, line: u64, waiters: usize, found: bool) {
    #[cfg(feature = "sanitize")]
    with(|s| s.mshr_fill(table, line, waiters, found));
    #[cfg(not(feature = "sanitize"))]
    let _ = (table, line, waiters, found);
}

/// Records an associative-array fill (TLB level, bypass cache, cache array).
#[inline(always)]
pub fn array_fill(component: &'static str, len: usize, capacity: usize) {
    #[cfg(feature = "sanitize")]
    with(|s| s.array_fill(component, len, capacity));
    #[cfg(not(feature = "sanitize"))]
    let _ = (component, len, capacity);
}

/// Registers a ticking component instance for per-instance cycle tracking.
/// Returns its instance id (0 when disabled).
#[inline(always)]
#[must_use]
pub fn register_component(component: &'static str) -> u64 {
    let _ = component;
    #[cfg(feature = "sanitize")]
    {
        with(invariant::InvariantSanitizer::register_component)
    }
    #[cfg(not(feature = "sanitize"))]
    {
        0
    }
}

/// Records a component instance observing cycle `now`.
#[inline(always)]
pub fn cycle(instance: u64, component: &'static str, now: u64) {
    #[cfg(feature = "sanitize")]
    with(|s| s.cycle(instance, component, now));
    #[cfg(not(feature = "sanitize"))]
    let _ = (instance, component, now);
}

/// Records a walker slot starting a walk at `level`.
#[inline(always)]
pub fn walk_activate(slot: u32, level: u8) {
    #[cfg(feature = "sanitize")]
    with(|s| s.walk_activate(slot, level));
    #[cfg(not(feature = "sanitize"))]
    let _ = (slot, level);
}

/// Records a walker slot advancing to `level`.
#[inline(always)]
pub fn walk_advance(slot: u32, level: u8) {
    #[cfg(feature = "sanitize")]
    with(|s| s.walk_advance(slot, level));
    #[cfg(not(feature = "sanitize"))]
    let _ = (slot, level);
}

/// Records a walker slot finishing its walk and being freed.
#[inline(always)]
pub fn walk_retire(slot: u32) {
    #[cfg(feature = "sanitize")]
    with(|s| s.walk_retire(slot));
    #[cfg(not(feature = "sanitize"))]
    let _ = slot;
}

/// Reports a structural self-check: `ok == false` is a violation described
/// by `what`.
#[inline(always)]
pub fn check(ok: bool, component: &'static str, what: &'static str) {
    #[cfg(feature = "sanitize")]
    with(|s| s.check(ok, component, what));
    #[cfg(not(feature = "sanitize"))]
    let _ = (ok, component, what);
}

/// Records an epoch-boundary token grant for one address space.
#[inline(always)]
pub fn token_epoch(asid: u16, tokens: u64, total_warps: u64) {
    #[cfg(feature = "sanitize")]
    with(|s| s.token_epoch(asid, tokens, total_warps));
    #[cfg(not(feature = "sanitize"))]
    let _ = (asid, tokens, total_warps);
}

/// Panics if anything is still in flight in the current session: un-retired
/// requests, pending MSHR entries, or active walker slots. Call after a
/// test has drained the simulated hierarchy.
#[inline(always)]
pub fn assert_quiescent() {
    #[cfg(feature = "sanitize")]
    with(|s| s.check_quiescent());
}
