//! The debug-build invariant checker behind every hook.
//!
//! A leaked MSHR waiter or a reused walker slot corrupts every downstream
//! figure while the run still "completes fine". [`Checker::observe`] audits
//! each [`Event`] against a mirror of the in-flight state and panics with a
//! `[mask-sanitizer]` diagnostic, followed by the failing session's last
//! [`HISTORY`] events, on the first violation of request conservation per
//! [`Domain`], MSHR accounting, the walker-slot lifecycle, TLB-fill token
//! bounds or cycle monotonicity. State is thread-local and keyed per
//! *session* (one per `GpuSim`; `0` is the ambient one), so simulations
//! built side by side or on different job-engine workers never mix.

use crate::event::{Domain, Event, MshrOutcome};
use std::collections::{BTreeMap, BTreeSet};

/// The deepest level of a 4-level page walk.
const MAX_WALK_LEVEL: u8 = 4;

/// Events a violation's diagnostic replays from the failing session.
const HISTORY: usize = 16;

thread_local! {
    pub(crate) static CHECKER: std::cell::RefCell<Checker> =
        const { std::cell::RefCell::new(Checker::new()) };
}

/// [`Checker::observe`] on this thread's checker, out of line so that the
/// per-event path runs at this crate's opt-level, not the caller's.
#[inline(never)]
pub(crate) fn observe(e: &Event) {
    CHECKER.with_borrow_mut(|c| c.observe(e));
}

/// Independent mirror of one MSHR table.
#[derive(Debug)]
struct TableMirror {
    /// Session the table was registered in (quiescence is per session).
    session: u64,
    component: &'static str,
    capacity: usize,
    /// Pending line → waiter count.
    lines: BTreeMap<u64, usize>,
}

/// The newest [`HISTORY`] events of one session, oldest overwritten first.
#[derive(Debug)]
struct History {
    events: [Option<Event>; HISTORY],
    /// Events pushed so far (the next write goes to `pushed % HISTORY`).
    pushed: usize,
}

impl History {
    const NEW: History = History {
        events: [None; HISTORY],
        pushed: 0,
    };

    /// The held events, oldest first, one per line.
    fn render(&self) -> String {
        (self.pushed.saturating_sub(HISTORY)..self.pushed)
            .filter_map(|i| self.events[i % HISTORY])
            .map(|e| format!("\n  {e:?}"))
            .collect()
    }
}

/// Enforces the invariants with immediate panics.
///
/// All state is ordinary `BTreeMap`s so that diagnostics are deterministic.
#[derive(Debug)]
pub(crate) struct Checker {
    /// Current accounting session (0 = ambient).
    session: u64,
    /// Next id [`Checker::new_session`] hands out.
    next_session: u64,
    /// Next id `register_table` / `register_component` hands out (one
    /// shared counter).
    next_id: u32,
    /// In-flight requests: (session, domain, id).
    in_flight: BTreeSet<(u64, Domain, u64)>,
    /// MSHR mirrors by table id.
    tables: BTreeMap<u32, TableMirror>,
    /// Component names by instance id, with their registering session.
    components: BTreeMap<u32, (u64, &'static str)>,
    /// Last cycle observed per (session, component instance).
    cycles: BTreeMap<(u64, u32), u64>,
    /// Active walker slots: (session, slot) → current level.
    walks: BTreeMap<(u64, u32), u8>,
    /// The current session's recent events.
    history: History,
    /// Other sessions' recent events, parked while they are not current.
    parked: BTreeMap<u64, History>,
}

impl Checker {
    /// A checker with no recorded state, in the ambient session.
    const fn new() -> Self {
        Self {
            session: 0,
            next_session: 1,
            next_id: 1,
            in_flight: BTreeSet::new(),
            tables: BTreeMap::new(),
            components: BTreeMap::new(),
            cycles: BTreeMap::new(),
            walks: BTreeMap::new(),
            history: History::NEW,
            parked: BTreeMap::new(),
        }
    }

    #[track_caller]
    #[expect(
        clippy::panic,
        reason = "a violated invariant must never be carried past the violating event"
    )]
    fn fail(&self, msg: &str) -> ! {
        panic!(
            "[mask-sanitizer] session {0}: {msg}\nlast events of session {0} (oldest first):{1}",
            self.session,
            self.history.render()
        );
    }

    /// Checks `e` against the current session's state, then adds it to the
    /// session's history.
    fn observe(&mut self, e: &Event) {
        match *e {
            Event::Issue { domain, id } => self.issue(domain, id),
            Event::Retire { domain, id } => self.retire(domain, id),
            Event::MshrAlloc {
                table,
                line,
                outcome,
                len,
                capacity,
            } => self.mshr_alloc(table, line, outcome, len as usize, capacity as usize),
            Event::MshrFill {
                table,
                line,
                waiters,
            } => self.mshr_fill(table, line, waiters as usize),
            Event::WalkerAcquire { slot, level } => self.walk_activate(slot, level),
            Event::WalkerLevel { slot, level } => self.walk_advance(slot, level),
            Event::WalkerRelease { slot } => self.walk_retire(slot),
            Event::TokenEpoch {
                asid,
                tokens,
                total_warps,
            } => self.token_epoch(asid, tokens, total_warps),
            // Observations only: they feed the history.
            _ => {}
        }
        let h = &mut self.history;
        h.events[h.pushed % HISTORY] = Some(*e);
        h.pushed += 1;
    }

    fn table(&mut self, id: u32) -> &mut TableMirror {
        // A table id never seen registered self-registers on first sight
        // with unbounded capacity.
        let session = self.session;
        self.tables.entry(id).or_insert_with(|| TableMirror {
            session,
            component: "mshr",
            capacity: usize::MAX,
            lines: BTreeMap::new(),
        })
    }

    pub(crate) fn new_session(&mut self) -> u64 {
        self.next_session += 1;
        self.next_session - 1
    }

    pub(crate) fn enter_session(&mut self, session: u64) {
        if session != self.session {
            let entered = self.parked.remove(&session).unwrap_or(History::NEW);
            let left = std::mem::replace(&mut self.history, entered);
            self.parked.insert(self.session, left);
            self.session = session;
        }
    }

    /// Forgets everything `session` recorded: in-flight requests, MSHR
    /// mirrors, component clocks, active walks and event history.
    pub(crate) fn end_session(&mut self, session: u64) {
        self.in_flight.retain(|&(s, _, _)| s != session);
        self.tables.retain(|_, t| t.session != session);
        self.components.retain(|_, c| c.0 != session);
        self.cycles.retain(|&(s, _), _| s != session);
        self.walks.retain(|&(s, _), _| s != session);
        self.parked.remove(&session);
        if session == self.session {
            self.history = History::NEW;
        }
    }

    pub(crate) fn register_component(&mut self, component: &'static str) -> u32 {
        self.next_id += 1;
        let name = (self.session, component);
        self.components.insert(self.next_id - 1, name);
        self.next_id - 1
    }

    pub(crate) fn register_table(&mut self, component: &'static str, capacity: usize) -> u32 {
        self.next_id += 1;
        let mirror = TableMirror {
            session: self.session,
            component,
            capacity,
            lines: BTreeMap::new(),
        };
        self.tables.insert(self.next_id - 1, mirror);
        self.next_id - 1
    }

    fn issue(&mut self, domain: Domain, id: u64) {
        if !self.in_flight.insert((self.session, domain, id)) {
            self.fail(&format!(
                "request conservation violated: id {id} issued into domain `{domain:?}` while already in flight \
                 (duplicate issue)"
            ));
        }
    }

    fn retire(&mut self, domain: Domain, id: u64) {
        if !self.in_flight.remove(&(self.session, domain, id)) {
            self.fail(&format!(
                "request conservation violated: id {id} retired from domain `{domain:?}` without a matching issue \
                 (lost, duplicated, or foreign retire)"
            ));
        }
    }

    fn mshr_fill(&mut self, table: u32, line: u64, waiters: usize) {
        let mirror = self.table(table);
        let (component, mirrored) = (mirror.component, mirror.lines.remove(&line));
        match (waiters > 0, mirrored) {
            (true, Some(n)) if n == waiters => {}
            (true, Some(n)) => self.fail(&format!(
                "MSHR accounting violated in `{component}` (table {table}): fill of line {line:#x} \
                 released {waiters} waiters but the mirror attached {n}"
            )),
            (true, None) => self.fail(&format!(
                "MSHR accounting violated in `{component}` (table {table}): fill of line {line:#x} \
                 completed an entry the mirror never saw allocated"
            )),
            (false, Some(n)) => self.fail(&format!(
                "MSHR accounting violated in `{component}` (table {table}): line {line:#x} with \
                 {n} waiter(s) outlived its fill (table reported no entry)"
            )),
            (false, None) => {}
        }
    }

    pub(crate) fn array_fill(&self, component: &'static str, len: usize, capacity: usize) {
        if len > capacity {
            self.fail(&format!(
                "structure overflow in `{component}`: {len} resident entries exceed capacity \
                 {capacity}"
            ));
        }
    }

    pub(crate) fn cycle(&mut self, instance: u32, now: u64) {
        let last = self.cycles.insert((self.session, instance), now);
        if let Some(last) = last.filter(|&last| now < last) {
            let component = self.components.get(&instance).map_or("component", |c| c.1);
            self.fail(&format!(
                "cycle monotonicity violated in `{component}`: ticked with cycle {now} after observing {last}"
            ));
        }
    }

    fn mshr_alloc(
        &mut self,
        table: u32,
        line: u64,
        outcome: MshrOutcome,
        len: usize,
        capacity: usize,
    ) {
        let mirror = self.table(table);
        let component = mirror.component;
        let registered = mirror.capacity;
        if registered != usize::MAX && registered != capacity {
            self.fail(&format!(
                "MSHR accounting violated in `{component}` (table {table}): allocation reports capacity {capacity} \
                 but the table registered capacity {registered}"
            ));
        }
        let mirror = self.table(table);
        match outcome {
            MshrOutcome::Primary => {
                if let Some(n) = mirror.lines.insert(line, 1) {
                    self.fail(&format!(
                        "MSHR accounting violated in `{component}` (table {table}): Primary allocation for \
                         line {line:#x} which already has a mirror entry with {n} waiter(s) — misses were \
                         not merged"
                    ));
                }
                let occupancy = self.table(table).lines.len();
                if occupancy > capacity {
                    self.fail(&format!(
                        "MSHR accounting violated in `{component}` (table {table}): {occupancy} entries \
                         exceed capacity {capacity}"
                    ));
                }
                if occupancy != len {
                    self.fail(&format!(
                        "MSHR accounting violated in `{component}` (table {table}): table reports {len} entries \
                         but mirror holds {occupancy} (shared or corrupted table state?)"
                    ));
                }
            }
            MshrOutcome::Secondary => {
                let merged = mirror.lines.get_mut(&line).map(|n| *n += 1).is_some();
                if !merged {
                    self.fail(&format!(
                        "MSHR accounting violated in `{component}` (table {table}): Secondary merge into \
                         line {line:#x} which has no pending entry"
                    ));
                }
            }
            MshrOutcome::Full => {
                let occupancy = mirror.lines.len();
                let pending = mirror.lines.contains_key(&line);
                if pending || occupancy < capacity {
                    self.fail(&format!(
                        "MSHR accounting violated in `{component}` (table {table}): Full reported for line \
                         {line:#x} but the table is not genuinely full ({occupancy}/{capacity} entries, line \
                         pending: {pending})"
                    ));
                }
            }
        }
    }

    fn walk_activate(&mut self, slot: u32, level: u8) {
        if level != 1 {
            self.fail(&format!(
                "walker lifecycle violated: slot {slot} activated at level {level} (walks start \
                 at level 1)"
            ));
        }
        if let Some(prev) = self.walks.insert((self.session, slot), level) {
            self.fail(&format!(
                "walker lifecycle violated: slot {slot} activated while already walking at \
                 level {prev} (WalkIds are single-use until freed)"
            ));
        }
    }

    fn walk_advance(&mut self, slot: u32, level: u8) {
        let key = (self.session, slot);
        match self.walks.get(&key).copied() {
            Some(prev) => {
                if level != prev + 1 || level > MAX_WALK_LEVEL {
                    self.fail(&format!(
                        "walker lifecycle violated: slot {slot} advanced from level {prev} to \
                         {level} (levels must strictly increase 1→{MAX_WALK_LEVEL})"
                    ));
                }
                self.walks.insert(key, level);
            }
            None => self.fail(&format!(
                "walker lifecycle violated: slot {slot} advanced to level {level} while inactive"
            )),
        }
    }

    fn walk_retire(&mut self, slot: u32) {
        if self.walks.remove(&(self.session, slot)).is_none() {
            self.fail(&format!(
                "walker lifecycle violated: slot {slot} freed while not active (double free?)"
            ));
        }
    }

    fn token_epoch(&self, asid: u16, tokens: u64, total_warps: u64) {
        if total_warps > 0 && !(1..=total_warps).contains(&tokens) {
            self.fail(&format!(
                "token conservation violated: asid {asid} granted {tokens} TLB-fill tokens for an epoch with {total_warps} \
                 warps (must stay within 1..={total_warps})"
            ));
        }
    }

    pub(crate) fn check(&self, ok: bool, component: &'static str, what: &'static str) {
        if !ok {
            self.fail(&format!(
                "structural invariant violated in `{component}`: {what}"
            ));
        }
    }

    pub(crate) fn check_quiescent(&self) {
        let leaked: Vec<String> = self
            .in_flight
            .iter()
            .filter(|(s, _, _)| *s == self.session)
            .map(|(_, domain, id)| format!("{domain:?}:{id}"))
            .collect();
        if !leaked.is_empty() {
            self.fail(&format!(
                "request conservation violated at quiescence: {} request(s) issued but never retired: \
                 [{}]",
                leaked.len(),
                leaked.join(", ")
            ));
        }
        for (id, t) in &self.tables {
            if t.session == self.session && !t.lines.is_empty() {
                let lines: Vec<String> = t
                    .lines
                    .iter()
                    .map(|(l, n)| format!("{l:#x} ({n} waiter(s))"))
                    .collect();
                self.fail(&format!(
                    "MSHR accounting violated at quiescence: `{}` (table {id}) still holds entries: [{}]",
                    t.component,
                    lines.join(", ")
                ));
            }
        }
        let walking: Vec<String> = self
            .walks
            .iter()
            .filter(|((s, _), _)| *s == self.session)
            .map(|((_, slot), level)| format!("slot {slot} at level {level}"))
            .collect();
        if !walking.is_empty() {
            self.fail(&format!(
                "walker lifecycle violated at quiescence: {} walk(s) never retired: [{}]",
                walking.len(),
                walking.join(", ")
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "cycle monotonicity violated in `fi-clock`")]
    fn a_backwards_clock_names_its_registered_component() {
        let mut c = Checker::new();
        let clock = c.register_component("fi-clock");
        c.cycle(clock, 10);
        c.cycle(clock, 9);
    }
}
