//! The shared, highly-threaded page-table walker.
//!
//! All cores share one walker that supports a configurable number of
//! concurrent walks (64 in Table 1). Each walk issues one memory access per
//! radix level, *sequentially* — the dependent-access chain is exactly what
//! makes TLB misses so expensive (§4.1: "address translation requests ...
//! are a series of dependent memory requests generated by a page walk").
//!
//! The walker is a pure state machine: the caller (the GPU crate) takes
//! [`WalkAccess`]es from it, routes them through the page-walk cache /
//! shared L2 / DRAM as the design dictates, and reports completion with
//! [`PageWalker::access_complete`]. This keeps the walker reusable across
//! all baseline designs.

use crate::table::PageTables;
use mask_common::addr::{LineAddr, Ppn, Vpn};
use mask_common::ids::Asid;
use mask_common::req::WalkLevel;
use mask_common::Cycle;
use std::collections::VecDeque;

/// Identifies an in-flight walk (slot index; single-use per walk).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WalkId(pub u32);

/// A memory access the walker needs serviced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkAccess {
    /// The walk this access belongs to.
    pub walk: WalkId,
    /// The address space being translated.
    pub asid: Asid,
    /// The physical line holding the PTE for this step.
    pub line: LineAddr,
    /// The walk depth of this step (1 = root).
    pub level: WalkLevel,
}

/// Result of completing one walk access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkOutcome {
    /// The walk continues: service this next access.
    Next(WalkAccess),
    /// The walk finished.
    Done {
        /// Address space that was translated.
        asid: Asid,
        /// Virtual page that was translated.
        vpn: Vpn,
        /// Resulting physical frame.
        ppn: Ppn,
        /// Total walk latency in cycles (enqueue to completion).
        latency: Cycle,
    },
}

#[derive(Clone, Debug)]
struct WalkState {
    asid: Asid,
    vpn: Vpn,
    level: WalkLevel,
    /// The page-table node read at `level`, so the next level is one hop
    /// away and not a walk from the root. Derived state: a function of
    /// `(asid, vpn, level)` and the tables, not encoded.
    node: u32,
    /// The frame activation mapped `vpn` to, so completion does not walk
    /// the tree again to find it. Derived state, like `node`.
    ppn: Ppn,
    enqueued_at: Cycle,
}

/// The shared page-table walker.
#[derive(Debug)]
pub struct PageWalker {
    slots: Vec<Option<WalkState>>,
    /// Bit `i % 64` of word `i / 64` set iff slot `i` is free.
    free: Vec<u64>,
    pending: VecDeque<(Asid, Vpn, Cycle)>,
    active: usize,
    /// Active walks per ASID — MASK's 6-bit `ConPTW` counters (§5.4).
    active_per_asid: Vec<u32>,
    /// Queued (not yet active) walks per ASID, kept in sync with `pending`
    /// so the per-cycle Fig. 5 sampling is O(1) instead of a queue scan.
    queued_per_asid: Vec<u32>,
}

impl PageWalker {
    /// Creates a walker with `slots` concurrent-walk contexts serving up to
    /// `n_asids` address spaces.
    pub fn new(slots: usize, n_asids: usize) -> Self {
        assert!(slots > 0, "walker needs at least one slot");
        PageWalker {
            slots: vec![None; slots],
            free: free_mask(slots),
            pending: VecDeque::new(),
            active: 0,
            active_per_asid: vec![0; n_asids],
            queued_per_asid: vec![0; n_asids],
        }
    }

    /// Queues a walk request. Requests are admitted into free slots in FIFO
    /// order by [`PageWalker::activate_into`].
    pub fn enqueue(&mut self, asid: Asid, vpn: Vpn, now: Cycle) {
        self.queued_per_asid[asid.index()] += 1;
        self.pending.push_back((asid, vpn, now));
    }

    /// Moves queued walks into free slots, appending their first accesses
    /// to `out` (which is not cleared).
    ///
    /// Call once per cycle (or after completions). Walk targets are mapped
    /// on demand — the evaluation runs fault-free (§5.5).
    pub fn activate_into(&mut self, tables: &mut PageTables, out: &mut Vec<WalkAccess>) {
        while self.active < self.slots.len() && !self.pending.is_empty() {
            let (asid, vpn, enq) = self.pending.pop_front().expect("non-empty");
            self.queued_per_asid[asid.index()] -= 1;
            // The lowest-numbered free slot.
            let word = self
                .free
                .iter()
                .position(|&w| w != 0)
                .expect("active < slots implies a free slot");
            let bit = self.free[word].trailing_zeros() as usize;
            self.free[word] &= !(1 << bit);
            let slot = word * 64 + bit;
            let ppn = tables.ensure_mapped(asid, vpn);
            let level = WalkLevel::ROOT;
            self.slots[slot] = Some(WalkState {
                asid,
                vpn,
                level,
                node: 0,
                ppn,
                enqueued_at: enq,
            });
            self.active += 1;
            self.active_per_asid[asid.index()] += 1;
            mask_obs::hooks::walker_acquire(slot as u32, level.raw());
            out.push(WalkAccess {
                walk: WalkId(slot as u32),
                asid,
                line: tables.walk_line(asid, vpn, level),
                level,
            });
        }
    }

    /// Reports that the memory access for `walk`'s current level finished.
    ///
    /// Returns the next access, or the completed translation (freeing the
    /// slot).
    ///
    /// # Panics
    ///
    /// Panics if `walk` does not name an active walk.
    pub fn access_complete(
        &mut self,
        walk: WalkId,
        tables: &PageTables,
        now: Cycle,
    ) -> WalkOutcome {
        let slot = walk.0 as usize;
        let state = self.slots[slot]
            .as_mut()
            .expect("access_complete on inactive walk");
        match state.level.next(tables.levels()) {
            Some(next) => {
                let (node, line) = tables.walk_hop(state.asid, state.node, state.vpn, next);
                if cfg!(debug_assertions) {
                    mask_obs::hooks::check(
                        line == tables.walk_line(state.asid, state.vpn, next),
                        "walker-hop",
                        "a hop from the carried node must reach the line a walk from the root does",
                    );
                }
                state.level = next;
                state.node = node;
                mask_obs::hooks::walker_level(walk.0, next.raw());
                WalkOutcome::Next(WalkAccess {
                    walk,
                    asid: state.asid,
                    line,
                    level: next,
                })
            }
            None => {
                let state = self.slots[slot].take().expect("checked above");
                self.free[slot / 64] |= 1 << (slot % 64);
                self.active -= 1;
                self.active_per_asid[state.asid.index()] -= 1;
                mask_obs::hooks::walker_release(walk.0);
                if cfg!(debug_assertions) {
                    mask_obs::hooks::check(
                        tables.translate(state.asid, state.vpn) == Some(state.ppn),
                        "walker-frame",
                        "a finished walk must carry the frame its page translates to",
                    );
                }
                WalkOutcome::Done {
                    asid: state.asid,
                    vpn: state.vpn,
                    ppn: state.ppn,
                    latency: now.saturating_sub(state.enqueued_at),
                }
            }
        }
    }

    /// Number of active walks for one address space (`ConPTW_i`, Eq. 1),
    /// saturated at 6 bits as in the paper's hardware budget (§5.4).
    pub fn active_walks_for(&self, asid: Asid) -> u32 {
        self.active_per_asid
            .get(asid.index())
            .copied()
            .unwrap_or(0)
            .min(63)
    }

    /// Queued (not yet active) walks for one address space. O(1): reads a
    /// counter maintained by `enqueue`/`activate_into` instead of scanning
    /// the pending queue (this is sampled per app every cycle for Fig. 5).
    pub fn queued_for(&self, asid: Asid) -> usize {
        self.queued_per_asid.get(asid.index()).copied().unwrap_or(0) as usize
    }

    /// Total concurrent page-walk demand for one address space: active
    /// walks plus walks waiting for a slot (the Fig. 5 integrand).
    pub fn total_walks_for(&self, asid: Asid) -> usize {
        self.active_walks_for(asid) as usize + self.queued_for(asid)
    }

    /// Total demand: active + queued (integrand for Fig. 5).
    pub fn total_walks(&self) -> usize {
        self.active + self.pending.len()
    }
}

/// One set bit per slot: every slot free.
fn free_mask(slots: usize) -> Vec<u64> {
    let mut mask = vec![0u64; slots.div_ceil(64)];
    for slot in 0..slots {
        mask[slot / 64] |= 1 << (slot % 64);
    }
    mask
}

impl mask_common::snapshot::Snapshot for PageWalker {
    /// Serializes the occupied slots and the pending queue; the derived
    /// counters (`active`, per-ASID tallies) are functions of those two
    /// collections and are not encoded.
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        w.section("walker");
        w.seq(self.slots.len());
        for slot in &self.slots {
            w.bool(slot.is_some());
            if let Some(s) = slot {
                s.asid.snapshot(w);
                s.vpn.snapshot(w);
                w.u8(s.level.raw());
                w.u64(s.enqueued_at);
            }
        }
        w.seq(self.pending.len());
        for (asid, vpn, enq) in &self.pending {
            asid.snapshot(w);
            vpn.snapshot(w);
            w.u64(*enq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mask_common::addr::PAGE_SIZE_4K_LOG2;

    fn setup() -> (PageWalker, PageTables) {
        (PageWalker::new(4, 2), PageTables::new(2, PAGE_SIZE_4K_LOG2))
    }

    fn drive_to_completion(
        walker: &mut PageWalker,
        tables: &mut PageTables,
        access: WalkAccess,
        now: Cycle,
    ) -> (Vpn, Ppn, Cycle) {
        let mut levels_seen = vec![access.level.raw()];
        let mut cur = access;
        loop {
            match walker.access_complete(cur.walk, tables, now) {
                WalkOutcome::Next(next) => {
                    levels_seen.push(next.level.raw());
                    cur = next;
                }
                WalkOutcome::Done {
                    vpn, ppn, latency, ..
                } => {
                    assert_eq!(
                        levels_seen,
                        vec![1, 2, 3, 4],
                        "walk visits all levels in order"
                    );
                    return (vpn, ppn, latency);
                }
            }
        }
    }

    #[test]
    fn walk_traverses_four_levels_and_translates() {
        let (mut walker, mut tables) = setup();
        let vpn = Vpn(0xabcdef);
        walker.enqueue(Asid::new(0), vpn, 100);
        let mut accesses = Vec::new();
        walker.activate_into(&mut tables, &mut accesses);
        assert_eq!(accesses.len(), 1);
        let (wvpn, ppn, latency) = drive_to_completion(&mut walker, &mut tables, accesses[0], 350);
        assert_eq!(wvpn, vpn);
        assert_eq!(tables.translate(Asid::new(0), vpn), Some(ppn));
        assert_eq!(latency, 250);
        assert_eq!(walker.active_walks_for(Asid::new(0)), 0);
    }

    #[test]
    fn slots_limit_concurrency() {
        let (mut walker, mut tables) = setup();
        for i in 0..10u64 {
            walker.enqueue(Asid::new(0), Vpn(i * 1000), 0);
        }
        let mut accesses = Vec::new();
        walker.activate_into(&mut tables, &mut accesses);
        assert_eq!(accesses.len(), 4, "only 4 slots");
        assert_eq!(walker.active_walks_for(Asid::new(0)), 4);
        assert_eq!(walker.queued_for(Asid::new(0)), 6);
        assert_eq!(walker.total_walks(), 10);
        // Finish one walk; the queue should backfill on next activate.
        let (..) = drive_to_completion(&mut walker, &mut tables, accesses[0], 50);
        let mut more = Vec::new();
        walker.activate_into(&mut tables, &mut more);
        assert_eq!(more.len(), 1);
        assert_eq!(walker.active_walks_for(Asid::new(0)), 4);
        assert_eq!(walker.queued_for(Asid::new(0)), 5);
    }

    #[test]
    fn per_asid_counters_track_walks() {
        let (mut walker, mut tables) = setup();
        walker.enqueue(Asid::new(0), Vpn(1), 0);
        walker.enqueue(Asid::new(1), Vpn(2), 0);
        walker.enqueue(Asid::new(1), Vpn(3), 0);
        let mut accesses = Vec::new();
        walker.activate_into(&mut tables, &mut accesses);
        assert_eq!(walker.active_walks_for(Asid::new(0)), 1);
        assert_eq!(walker.active_walks_for(Asid::new(1)), 2);
        for a in accesses {
            if a.asid == Asid::new(1) {
                drive_to_completion(&mut walker, &mut tables, a, 10);
            }
        }
        assert_eq!(walker.active_walks_for(Asid::new(1)), 0);
        assert_eq!(walker.active_walks_for(Asid::new(0)), 1);
    }

    #[test]
    fn walk_accesses_follow_page_table_lines() {
        let (mut walker, mut tables) = setup();
        let vpn = Vpn(0x42);
        walker.enqueue(Asid::new(0), vpn, 0);
        let mut a = Vec::new();
        walker.activate_into(&mut tables, &mut a);
        assert_eq!(
            a[0].line,
            tables.walk_line(Asid::new(0), vpn, WalkLevel::ROOT)
        );
        match walker.access_complete(a[0].walk, &tables, 1) {
            WalkOutcome::Next(n) => {
                assert_eq!(
                    n.line,
                    tables.walk_line(Asid::new(0), vpn, WalkLevel::new(2))
                );
            }
            other => panic!("expected Next, got {other:?}"),
        }
    }

    #[test]
    fn walks_take_the_lowest_free_slot() {
        // 130 slots: the free mask spans three words.
        let mut walker = PageWalker::new(130, 1);
        let mut tables = PageTables::new(1, PAGE_SIZE_4K_LOG2);
        for i in 0..130u64 {
            walker.enqueue(Asid::new(0), Vpn(i * 600), 0);
        }
        let mut first = Vec::new();
        walker.activate_into(&mut tables, &mut first);
        let slots: Vec<u32> = first.iter().map(|a| a.walk.0).collect();
        assert_eq!(slots, (0..130).collect::<Vec<u32>>());
        // Free 70, 3 and 129; the next three walks take 3, 70, 129.
        for slot in [70, 3, 129] {
            drive_to_completion(&mut walker, &mut tables, first[slot], 9);
        }
        for i in 0..3u64 {
            walker.enqueue(Asid::new(0), Vpn(7 + i), 10);
        }
        let mut again = Vec::new();
        walker.activate_into(&mut tables, &mut again);
        let slots: Vec<u32> = again.iter().map(|a| a.walk.0).collect();
        assert_eq!(slots, [3, 70, 129]);
    }

    /// Red test for the `walker-frame` premise check: a walk that finished
    /// with a frame other than its page's would fill the TLBs with it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a finished walk must carry the frame its page translates to")]
    fn a_walk_carrying_another_pages_frame_trips_the_sanitizer() {
        mask_obs::hooks::enter_session(mask_obs::hooks::new_session());
        let (mut walker, mut tables) = setup();
        let other = tables.ensure_mapped(Asid::new(0), Vpn(0x43));
        walker.enqueue(Asid::new(0), Vpn(0x42), 0);
        let mut accesses = Vec::new();
        walker.activate_into(&mut tables, &mut accesses);
        let access = accesses[0];
        walker.slots[0].as_mut().expect("just activated").ppn = other;
        drive_to_completion(&mut walker, &mut tables, access, 9);
    }

    #[test]
    #[should_panic(expected = "access_complete on inactive walk")]
    fn completing_inactive_walk_panics() {
        let (mut walker, tables) = setup();
        let _ = walker.access_complete(WalkId(0), &tables, 0);
    }
}
