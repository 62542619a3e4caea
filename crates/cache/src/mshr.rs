//! Miss-status holding registers.
//!
//! MSHRs merge concurrent misses to the same line: the first (primary) miss
//! sends one request down the hierarchy; secondary misses attach as
//! waiters. The paper's Fig. 6 metric — warps stalled per TLB miss — is
//! read straight off the translation MSHRs: "we add a 6-bit counter to each
//! TLB MSHR entry, which tracks the maximum number of warps that hit in the
//! entry" (§5.4).

use mask_common::addr::LineAddr;
/// Outcome of allocating into an MSHR table: `Primary` (first miss on the
/// line: send a request downstream), `Secondary` (merged: no new request)
/// or `Full` (table full and line not present: stall and retry). The same
/// type the table reports to `mask_obs::hooks::mshr_alloc`.
pub use mask_obs::MshrOutcome as MshrAlloc;

/// One MSHR entry: a pending line plus its waiters.
#[derive(Clone, Debug)]
pub struct MshrEntry<W> {
    /// The line being fetched.
    pub line: LineAddr,
    /// Waiters to notify on fill (the primary miss is `waiters[0]`).
    pub waiters: Vec<W>,
}

/// A table of MSHR entries keyed by line address.
#[derive(Debug)]
pub struct MshrTable<W> {
    entries: Vec<MshrEntry<W>>,
    /// `entries[i].line`, densely: lookups scan these 8 B per entry and
    /// touch an entry only once found. Kept in lock-step with `entries`
    /// (same `push` / `swap_remove`).
    lines: Vec<u64>,
    capacity: usize,
    /// Largest waiter count ever held by a single entry.
    peak_waiters: usize,
    /// Component label the checker's diagnostics carry.
    component: &'static str,
    /// Checker mirror-table id (0 in release builds).
    san_table: u32,
    /// Recycled waiter vectors: primary allocations pop from here instead of
    /// heap-allocating, and `complete_into` pushes emptied vectors back.
    /// Keeps the steady-state hot path allocation-free.
    pool: Vec<Vec<W>>,
}

impl<W> MshrTable<W> {
    /// Creates a table with room for `capacity` distinct lines.
    pub fn new(capacity: usize) -> Self {
        Self::labelled("mshr", capacity)
    }

    /// Creates a table whose sanitizer diagnostics carry `component`.
    pub fn labelled(component: &'static str, capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR table needs capacity");
        MshrTable {
            entries: Vec::new(),
            lines: Vec::new(),
            capacity,
            peak_waiters: 0,
            component,
            san_table: mask_obs::hooks::register_table(component, capacity),
            pool: Vec::new(),
        }
    }

    /// Table index of `line`'s entry, if pending.
    fn position(&self, line: LineAddr) -> Option<usize> {
        self.lines.iter().position(|&l| l == line.0)
    }

    /// Allocates `waiter` against `line`, merging if already pending.
    pub fn allocate(&mut self, line: LineAddr, waiter: W) -> MshrAlloc {
        let outcome = if let Some(i) = self.position(line) {
            let e = &mut self.entries[i];
            e.waiters.push(waiter);
            self.peak_waiters = self.peak_waiters.max(e.waiters.len());
            MshrAlloc::Secondary
        } else if self.entries.len() >= self.capacity {
            MshrAlloc::Full
        } else {
            let mut waiters = self.pool.pop().unwrap_or_default();
            waiters.push(waiter);
            self.entries.push(MshrEntry { line, waiters });
            self.lines.push(line.0);
            self.peak_waiters = self.peak_waiters.max(1);
            MshrAlloc::Primary
        };
        let len = self.entries.len();
        mask_obs::hooks::mshr_alloc(self.san_table, line.0, outcome, len, self.capacity);
        outcome
    }

    /// Completes `line`, returning all its waiters (empty if none pending).
    ///
    /// Allocating convenience wrapper around [`MshrTable::complete_into`]
    /// for tests and cold paths; the returned vector is detached from the
    /// table's recycling pool.
    pub fn complete(&mut self, line: LineAddr) -> Vec<W> {
        let mut out = Vec::new();
        self.complete_into(line, &mut out);
        out
    }

    /// Completes `line`, appending its waiters to `out` (not cleared) and
    /// returning how many were appended (0 if no entry was pending).
    ///
    /// The entry's internal waiter vector is recycled into the pool, so the
    /// steady-state allocate/complete cycle performs no heap traffic.
    pub fn complete_into(&mut self, line: LineAddr, out: &mut Vec<W>) -> usize {
        let n = self.position(line).map_or(0, |i| {
            self.lines.swap_remove(i);
            let mut waiters = self.entries.swap_remove(i).waiters;
            let n = waiters.len();
            out.append(&mut waiters);
            self.pool.push(waiters);
            n
        });
        mask_obs::hooks::mshr_fill(self.san_table, line.0, n);
        n
    }

    /// Whether `line` has a pending entry.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.position(line).is_some()
    }

    /// Number of waiters currently attached to `line` (0 if absent).
    pub fn waiters_on(&self, line: LineAddr) -> usize {
        self.position(line)
            .map_or(0, |i| self.entries[i].waiters.len())
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are occupied.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the table has no free entries.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Largest waiter count ever held by a single entry.
    pub fn peak_waiters(&self) -> usize {
        self.peak_waiters
    }

    /// Iterates over the occupied entries in table order.
    pub fn entries(&self) -> impl Iterator<Item = &MshrEntry<W>> {
        self.entries.iter()
    }
}

impl<W: mask_common::snapshot::Snapshot> mask_common::snapshot::Snapshot for MshrTable<W> {
    /// Serializes the occupied entries in table order (lookup uses a linear
    /// scan and completion uses `swap_remove`, so order is behaviorally
    /// significant) plus the peak-waiter statistic. Capacity, component
    /// label, and the recycling pool are construction-time/transient.
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        w.usize(self.peak_waiters);
        w.seq(self.entries.len());
        for e in &self.entries {
            e.line.snapshot(w);
            w.seq(e.waiters.len());
            for waiter in &e.waiters {
                waiter.snapshot(w);
            }
        }
    }
}

impl<W: Clone> Clone for MshrTable<W> {
    /// Clones register a fresh sanitizer mirror and replay the live entries
    /// into it, so a cloned simulator keeps independent MSHR accounting.
    fn clone(&self) -> Self {
        let san_table = mask_obs::hooks::register_table(self.component, self.capacity);
        if cfg!(debug_assertions) {
            for (i, e) in self.entries.iter().enumerate() {
                let mut outcome = MshrAlloc::Primary;
                for _ in &e.waiters {
                    mask_obs::hooks::mshr_alloc(san_table, e.line.0, outcome, i + 1, self.capacity);
                    outcome = MshrAlloc::Secondary;
                }
            }
        }
        MshrTable {
            entries: self.entries.clone(),
            lines: self.lines.clone(),
            capacity: self.capacity,
            peak_waiters: self.peak_waiters,
            component: self.component,
            san_table,
            // The pool is a perf cache, not state: clones start empty.
            pool: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_then_secondary_then_complete() {
        let mut m: MshrTable<u32> = MshrTable::new(4);
        assert_eq!(m.allocate(LineAddr(1), 10), MshrAlloc::Primary);
        assert_eq!(m.allocate(LineAddr(1), 11), MshrAlloc::Secondary);
        assert_eq!(m.allocate(LineAddr(2), 12), MshrAlloc::Primary);
        assert_eq!(m.waiters_on(LineAddr(1)), 2);
        let w = m.complete(LineAddr(1));
        assert_eq!(w, vec![10, 11]);
        assert!(!m.contains(LineAddr(1)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn full_table_rejects_new_lines_but_merges_existing() {
        let mut m: MshrTable<u32> = MshrTable::new(2);
        assert_eq!(m.allocate(LineAddr(1), 1), MshrAlloc::Primary);
        assert_eq!(m.allocate(LineAddr(2), 2), MshrAlloc::Primary);
        assert!(m.is_full());
        assert_eq!(m.allocate(LineAddr(3), 3), MshrAlloc::Full);
        // Merging into an existing entry is still allowed when full.
        assert_eq!(m.allocate(LineAddr(2), 4), MshrAlloc::Secondary);
    }

    #[test]
    fn complete_absent_line_returns_empty() {
        let mut m: MshrTable<u32> = MshrTable::new(2);
        assert!(m.complete(LineAddr(9)).is_empty());
        assert!(m.is_empty());
    }

    #[test]
    fn peak_waiters_tracks_maximum() {
        let mut m: MshrTable<u32> = MshrTable::new(2);
        for i in 0..7 {
            m.allocate(LineAddr(1), i);
        }
        m.complete(LineAddr(1));
        m.allocate(LineAddr(2), 0);
        assert_eq!(m.peak_waiters(), 7);
    }
}
