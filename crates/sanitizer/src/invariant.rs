//! The checker behind every hook: panics on the first violated invariant.

use crate::MshrOutcome;
use std::collections::BTreeMap;

/// The deepest level of a 4-level page walk.
const MAX_WALK_LEVEL: u8 = 4;

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

/// Enforces the crate-level invariants with immediate panics.
///
/// All state is ordinary `BTreeMap`s so that diagnostics are deterministic.
#[derive(Debug)]
pub(crate) struct InvariantSanitizer {
    /// Current accounting session (0 = ambient).
    session: u64,
    /// Next id [`Self::new_session`] hands out.
    next_session: u64,
    /// Next id [`Self::register_table`] / [`Self::register_component`]
    /// hands out (one shared counter).
    next_id: u64,
    /// In-flight requests: (session, domain, id) → issue order.
    in_flight: BTreeMap<(u64, &'static str, u64), u64>,
    /// Total issues observed (gives each in-flight entry an issue order).
    issues: u64,
    /// MSHR mirrors by table id.
    tables: BTreeMap<u64, TableMirror>,
    /// Last cycle observed per (session, component instance).
    cycles: BTreeMap<(u64, u64), u64>,
    /// Active walker slots: (session, slot) → current level.
    walks: BTreeMap<(u64, u32), u8>,
}

impl InvariantSanitizer {
    /// A sanitizer with no recorded state, in the ambient session.
    pub(crate) const fn new() -> Self {
        Self {
            session: 0,
            next_session: 1,
            next_id: 1,
            in_flight: BTreeMap::new(),
            issues: 0,
            tables: BTreeMap::new(),
            cycles: BTreeMap::new(),
            walks: BTreeMap::new(),
        }
    }

    #[track_caller]
    #[expect(
        clippy::panic,
        reason = "a violated invariant must never be carried past the violating event"
    )]
    fn fail(&self, msg: &str) -> ! {
        panic!("[mask-sanitizer] session {}: {msg}", self.session);
    }

    fn table(&mut self, id: u64) -> &mut TableMirror {
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
        let id = self.next_session;
        self.next_session += 1;
        id
    }

    pub(crate) fn enter_session(&mut self, session: u64) {
        self.session = session;
    }

    pub(crate) fn end_session(&mut self, session: u64) {
        self.in_flight.retain(|&(s, _, _), _| s != session);
        self.tables.retain(|_, t| t.session != session);
        self.cycles.retain(|&(s, _), _| s != session);
        self.walks.retain(|&(s, _), _| s != session);
    }

    pub(crate) fn register_component(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    pub(crate) fn register_table(&mut self, component: &'static str, capacity: usize) -> u64 {
        let id = self.register_component();
        self.tables.insert(
            id,
            TableMirror {
                session: self.session,
                component,
                capacity,
                lines: BTreeMap::new(),
            },
        );
        id
    }

    pub(crate) fn issue(&mut self, domain: &'static str, id: u64) {
        let key = (self.session, domain, id);
        self.issues += 1;
        let order = self.issues;
        if self.in_flight.insert(key, order).is_some() {
            self.fail(&format!(
                "request conservation violated: id {id} issued into domain `{domain}` while already in flight \
                 (duplicate issue)"
            ));
        }
    }

    pub(crate) fn retire(&mut self, domain: &'static str, id: u64) {
        let key = (self.session, domain, id);
        if self.in_flight.remove(&key).is_none() {
            self.fail(&format!(
                "request conservation violated: id {id} retired from domain `{domain}` without a matching issue \
                 (lost, duplicated, or foreign retire)"
            ));
        }
    }

    pub(crate) fn mshr_fill(&mut self, table: u64, line: u64, waiters: usize, found: bool) {
        let mirror = self.table(table);
        let (component, mirrored) = (mirror.component, mirror.lines.remove(&line));
        match (found, mirrored) {
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

    pub(crate) fn cycle(&mut self, instance: u64, component: &'static str, now: u64) {
        let key = (self.session, instance);
        match self.cycles.get(&key) {
            Some(&last) if now < last => self.fail(&format!(
                "cycle monotonicity violated in `{component}`: ticked with cycle {now} after observing {last}"
            )),
            _ => {
                self.cycles.insert(key, now);
            }
        }
    }

    pub(crate) fn mshr_alloc(
        &mut self,
        table: u64,
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

    pub(crate) fn walk_activate(&mut self, slot: u32, level: u8) {
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

    pub(crate) fn walk_advance(&mut self, slot: u32, level: u8) {
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

    pub(crate) fn walk_retire(&mut self, slot: u32) {
        if self.walks.remove(&(self.session, slot)).is_none() {
            self.fail(&format!(
                "walker lifecycle violated: slot {slot} freed while not active (double free?)"
            ));
        }
    }

    pub(crate) fn token_epoch(&self, asid: u16, tokens: u64, total_warps: u64) {
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
            .keys()
            .filter(|(s, _, _)| *s == self.session)
            .map(|(_, domain, id)| format!("{domain}:{id}"))
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
