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
//! their state transitions. Without the `enabled` feature every hook is an
//! empty `#[inline(always)]` function, so the instrumented simulator is
//! byte-for-byte as fast as an uninstrumented one. Simulation crates expose
//! the feature as `sanitize`; turning it on anywhere in the workspace turns
//! it on everywhere (cargo feature unification), which is exactly the
//! intended "sanitized build" semantics.
//!
//! Violations panic immediately with a `[mask-sanitizer]` diagnostic naming
//! the component, the object, and the state transition that broke the
//! invariant.
//!
//! The same hook-point pattern — inline functions compiled to nothing
//! unless a feature is on — carries the observability subsystem: `mask-obs`
//! (workspace feature `obs`) places its tracing hooks alongside this
//! crate's at the simulator's state transitions, but *records* events
//! instead of checking them, and adds a second, runtime gate
//! (`MASK_TRACE`). The two are independent and compose: a sanitized traced
//! run checks invariants and collects the trace in one pass.
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

mod invariant;

pub use invariant::InvariantSanitizer;

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

/// A request entered an accounting domain (e.g. was sent downstream).
#[derive(Clone, Copy, Debug)]
pub struct IssueEvent {
    /// Conservation domain, e.g. `"l2-cache"` or `"dram"`.
    pub domain: &'static str,
    /// Request id, unique while in flight within the domain.
    pub id: u64,
}

/// A request left an accounting domain (response/completion consumed).
#[derive(Clone, Copy, Debug)]
pub struct RetireEvent {
    /// Conservation domain the request was issued into.
    pub domain: &'static str,
    /// Request id.
    pub id: u64,
}

/// A fill: an MSHR entry completing, or a TLB/cache array accepting a line.
#[derive(Clone, Copy, Debug)]
pub enum FillEvent {
    /// An MSHR table completed `line`, releasing `waiters` waiters.
    Mshr {
        /// Table id from [`register_table`].
        table: u64,
        /// The filled line address.
        line: u64,
        /// Waiters the table reported releasing.
        waiters: usize,
        /// Whether the table held an entry for the line.
        found: bool,
    },
    /// An associative structure (TLB level, bypass cache) filled an entry.
    Array {
        /// Component name, e.g. `"l1-tlb"`.
        component: &'static str,
        /// Occupancy after the fill.
        len: usize,
        /// Structure capacity.
        capacity: usize,
    },
}

/// A component observed the clock.
#[derive(Clone, Copy, Debug)]
pub struct CycleEvent {
    /// Instance id from [`register_component`] (0 = anonymous).
    pub instance: u64,
    /// Component name, e.g. `"gpu"` or `"dram"`.
    pub component: &'static str,
    /// The cycle the component was ticked with.
    pub now: u64,
}

/// An MSHR allocation attempt and the table's reported outcome/occupancy.
#[derive(Clone, Copy, Debug)]
pub struct MshrAllocEvent {
    /// Table id from [`register_table`].
    pub table: u64,
    /// Line allocated against.
    pub line: u64,
    /// Reported outcome.
    pub outcome: MshrOutcome,
    /// Reported occupancy after the attempt.
    pub len: usize,
    /// Table capacity.
    pub capacity: usize,
}

/// A page-walker slot state transition.
#[derive(Clone, Copy, Debug)]
pub enum WalkEvent {
    /// A free slot began a walk at `level` (must be 1).
    Activate {
        /// Slot index (the `WalkId`).
        slot: u32,
        /// Starting level.
        level: u8,
    },
    /// An active walk advanced to `level` (must be previous + 1, ≤ 4).
    Advance {
        /// Slot index.
        slot: u32,
        /// New level.
        level: u8,
    },
    /// An active walk finished and its slot was freed.
    Retire {
        /// Slot index.
        slot: u32,
    },
}

/// An epoch-boundary token reallocation for one address space.
#[derive(Clone, Copy, Debug)]
pub struct TokenEpochEvent {
    /// Address space the tokens belong to.
    pub asid: u16,
    /// Tokens granted for the next epoch.
    pub tokens: u64,
    /// Total warps of that address space (upper bound on tokens).
    pub total_warps: u64,
}

/// Observer of simulation state transitions.
///
/// The default implementation, [`InvariantSanitizer`], enforces the
/// invariants in the crate docs by panicking. Custom sanitizers (tracing,
/// statistics, fuzz oracles) can be swapped in with [`install`].
pub trait SimSanitizer {
    /// A request entered a conservation domain.
    fn on_issue(&mut self, ev: IssueEvent);
    /// An MSHR or associative array filled.
    fn on_fill(&mut self, ev: FillEvent);
    /// A request left a conservation domain.
    fn on_retire(&mut self, ev: RetireEvent);
    /// A component observed the clock.
    fn on_cycle(&mut self, ev: CycleEvent);
    /// An MSHR allocation attempt was reported.
    fn on_mshr_alloc(&mut self, ev: MshrAllocEvent) {
        let _ = ev;
    }
    /// A walker slot changed state.
    fn on_walk(&mut self, ev: WalkEvent) {
        let _ = ev;
    }
    /// An epoch boundary reallocated TLB-fill tokens.
    fn on_token_epoch(&mut self, ev: TokenEpochEvent) {
        let _ = ev;
    }
    /// A component reported a structural self-check result.
    fn on_check(&mut self, component: &'static str, ok: bool, what: &'static str) {
        let _ = (component, ok, what);
    }
    /// A new MSHR table came into existence.
    fn on_register_table(&mut self, table: u64, component: &'static str, capacity: usize) {
        let _ = (table, component, capacity);
    }
    /// The current session changed.
    fn on_session(&mut self, session: u64) {
        let _ = session;
    }
    /// Asserts nothing is in flight (end-of-drain check; may panic).
    fn check_quiescent(&self) {}
}

#[cfg(feature = "enabled")]
mod active {
    use super::{InvariantSanitizer, SimSanitizer};
    use std::cell::RefCell;

    struct Ctx {
        session: u64,
        next_session: u64,
        next_table: u64,
        sanitizer: Option<Box<dyn SimSanitizer>>,
    }

    thread_local! {
        static CTX: RefCell<Ctx> =
            const { RefCell::new(Ctx { session: 0, next_session: 1, next_table: 1, sanitizer: None }) };
    }

    pub(super) fn dispatch(f: impl FnOnce(&mut dyn SimSanitizer)) {
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            let san = ctx
                .sanitizer
                .get_or_insert_with(|| Box::new(InvariantSanitizer::new()));
            f(san.as_mut());
        });
    }

    pub(super) fn new_session() -> u64 {
        let id = CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            let id = ctx.next_session;
            ctx.next_session += 1;
            id
        });
        id
    }

    pub(super) fn enter_session(id: u64) {
        CTX.with(|ctx| ctx.borrow_mut().session = id);
        dispatch(|s| s.on_session(id));
    }

    pub(super) fn register_table(component: &'static str, capacity: usize) -> u64 {
        let id = CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            let id = ctx.next_table;
            ctx.next_table += 1;
            id
        });
        dispatch(|s| s.on_register_table(id, component, capacity));
        id
    }

    pub(super) fn register_component() -> u64 {
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            let id = ctx.next_table;
            ctx.next_table += 1;
            id
        })
    }

    pub(super) fn install(sanitizer: Box<dyn SimSanitizer>) {
        CTX.with(|ctx| ctx.borrow_mut().sanitizer = Some(sanitizer));
    }

    pub(super) fn reset() {
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            ctx.sanitizer = None;
            ctx.session = 0;
        });
    }
}

/// Whether sanitizer hooks are compiled in (the `enabled` feature).
#[must_use]
pub const fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Allocates a fresh accounting session (returns 0 when disabled).
#[inline(always)]
#[must_use]
pub fn new_session() -> u64 {
    #[cfg(feature = "enabled")]
    {
        active::new_session()
    }
    #[cfg(not(feature = "enabled"))]
    {
        0
    }
}

/// Makes `id` the current session for subsequent events on this thread.
#[inline(always)]
pub fn enter_session(id: u64) {
    #[cfg(feature = "enabled")]
    active::enter_session(id);
    #[cfg(not(feature = "enabled"))]
    let _ = id;
}

/// Registers an MSHR table and returns its sanitizer id (0 when disabled).
#[inline(always)]
#[must_use]
pub fn register_table(component: &'static str, capacity: usize) -> u64 {
    #[cfg(feature = "enabled")]
    {
        active::register_table(component, capacity)
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (component, capacity);
        0
    }
}

/// Replaces the thread's sanitizer (e.g. with a tracing implementation).
#[inline(always)]
// By-value is the real API contract: the box is stored when `enabled` is on.
#[cfg_attr(not(feature = "enabled"), allow(clippy::needless_pass_by_value))]
pub fn install(sanitizer: Box<dyn SimSanitizer>) {
    #[cfg(feature = "enabled")]
    active::install(sanitizer);
    #[cfg(not(feature = "enabled"))]
    let _ = sanitizer;
}

/// Clears all sanitizer state on this thread (test helper).
#[inline(always)]
pub fn reset() {
    #[cfg(feature = "enabled")]
    active::reset();
}

/// Records a request entering conservation domain `domain`.
#[inline(always)]
pub fn issue(domain: &'static str, id: u64) {
    #[cfg(feature = "enabled")]
    active::dispatch(|s| s.on_issue(IssueEvent { domain, id }));
    #[cfg(not(feature = "enabled"))]
    let _ = (domain, id);
}

/// Records a request leaving conservation domain `domain`.
#[inline(always)]
pub fn retire(domain: &'static str, id: u64) {
    #[cfg(feature = "enabled")]
    active::dispatch(|s| s.on_retire(RetireEvent { domain, id }));
    #[cfg(not(feature = "enabled"))]
    let _ = (domain, id);
}

/// Records an MSHR allocation attempt (call after the table updated).
#[inline(always)]
pub fn mshr_alloc(table: u64, line: u64, outcome: MshrOutcome, len: usize, capacity: usize) {
    #[cfg(feature = "enabled")]
    active::dispatch(|s| {
        s.on_mshr_alloc(MshrAllocEvent {
            table,
            line,
            outcome,
            len,
            capacity,
        });
    });
    #[cfg(not(feature = "enabled"))]
    let _ = (table, line, outcome, len, capacity);
}

/// Records an MSHR fill (completion) releasing `waiters` waiters.
#[inline(always)]
pub fn mshr_fill(table: u64, line: u64, waiters: usize, found: bool) {
    #[cfg(feature = "enabled")]
    active::dispatch(|s| {
        s.on_fill(FillEvent::Mshr {
            table,
            line,
            waiters,
            found,
        });
    });
    #[cfg(not(feature = "enabled"))]
    let _ = (table, line, waiters, found);
}

/// Records an associative-array fill (TLB level, bypass cache, cache array).
#[inline(always)]
pub fn array_fill(component: &'static str, len: usize, capacity: usize) {
    #[cfg(feature = "enabled")]
    active::dispatch(|s| {
        s.on_fill(FillEvent::Array {
            component,
            len,
            capacity,
        });
    });
    #[cfg(not(feature = "enabled"))]
    let _ = (component, len, capacity);
}

/// Registers a ticking component instance for per-instance cycle tracking.
/// Returns its instance id (0 when disabled).
#[inline(always)]
#[must_use]
pub fn register_component(component: &'static str) -> u64 {
    #[cfg(feature = "enabled")]
    {
        let _ = component;
        active::register_component()
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = component;
        0
    }
}

/// Records a component instance observing cycle `now`.
#[inline(always)]
pub fn cycle(instance: u64, component: &'static str, now: u64) {
    #[cfg(feature = "enabled")]
    active::dispatch(|s| {
        s.on_cycle(CycleEvent {
            instance,
            component,
            now,
        });
    });
    #[cfg(not(feature = "enabled"))]
    let _ = (instance, component, now);
}

/// Records a walker slot starting a walk at `level`.
#[inline(always)]
pub fn walk_activate(slot: u32, level: u8) {
    #[cfg(feature = "enabled")]
    active::dispatch(|s| s.on_walk(WalkEvent::Activate { slot, level }));
    #[cfg(not(feature = "enabled"))]
    let _ = (slot, level);
}

/// Records a walker slot advancing to `level`.
#[inline(always)]
pub fn walk_advance(slot: u32, level: u8) {
    #[cfg(feature = "enabled")]
    active::dispatch(|s| s.on_walk(WalkEvent::Advance { slot, level }));
    #[cfg(not(feature = "enabled"))]
    let _ = (slot, level);
}

/// Records a walker slot finishing its walk and being freed.
#[inline(always)]
pub fn walk_retire(slot: u32) {
    #[cfg(feature = "enabled")]
    active::dispatch(|s| s.on_walk(WalkEvent::Retire { slot }));
    #[cfg(not(feature = "enabled"))]
    let _ = slot;
}

/// Reports a structural self-check: `ok == false` is a violation described
/// by `what`.
#[inline(always)]
pub fn check(ok: bool, component: &'static str, what: &'static str) {
    #[cfg(feature = "enabled")]
    active::dispatch(|s| s.on_check(component, ok, what));
    #[cfg(not(feature = "enabled"))]
    let _ = (ok, component, what);
}

/// Records an epoch-boundary token grant for one address space.
#[inline(always)]
pub fn token_epoch(asid: u16, tokens: u64, total_warps: u64) {
    #[cfg(feature = "enabled")]
    active::dispatch(|s| {
        s.on_token_epoch(TokenEpochEvent {
            asid,
            tokens,
            total_warps,
        });
    });
    #[cfg(not(feature = "enabled"))]
    let _ = (asid, tokens, total_warps);
}

/// Panics if anything is still in flight in the current session: un-retired
/// requests, pending MSHR entries, or active walker slots. Call after a
/// test has drained the simulated hierarchy.
#[inline(always)]
pub fn assert_quiescent() {
    #[cfg(feature = "enabled")]
    active::dispatch(|s| s.check_quiescent());
}
