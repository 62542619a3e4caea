//! The shared page-walk cache of the `PWCache` baseline variant (Fig. 2a).
//!
//! Power et al.'s design \[106\] places a shared page-walk cache after the L1
//! TLBs: page-walk accesses probe it before going to the shared L2 cache
//! and main memory. We model it as a cache of *PTE lines* — an 8 KB, 16-way
//! structure (Table 1) holding 128 B lines of page-table nodes, so upper
//! walk levels (whose lines are shared by many pages) hit, while leaf lines
//! mostly miss.

use crate::assoc::AssocArray;
use mask_common::addr::{LineAddr, LINE_SIZE};

/// A shared cache over page-table-node lines. It keeps no statistics: the
/// caller records each probe's outcome in the application's `AppStats`.
#[derive(Debug)]
pub struct PageWalkCache {
    lines: AssocArray<LineAddr, ()>,
}

impl PageWalkCache {
    /// Creates a page-walk cache of `bytes` capacity and `assoc` ways
    /// (8 KB, 16-way per Table 1).
    pub fn new(bytes: usize, assoc: usize) -> Self {
        let entries = (bytes as u64 / LINE_SIZE).max(1) as usize;
        PageWalkCache {
            lines: AssocArray::new(entries, assoc),
        }
    }

    /// Probes for a PTE line; fills on miss (walk data is always cached —
    /// the PWC is dedicated to translation data so there is no pollution
    /// concern).
    pub fn access(&mut self, line: LineAddr) -> bool {
        let hit = self.lines.probe(&line).is_some();
        if !hit {
            self.lines.fill(line, ());
        }
        hit
    }

    /// Flushes the cache (page-table update).
    pub fn flush(&mut self) {
        self.lines.flush();
    }
}

impl mask_common::snapshot::Snapshot for PageWalkCache {
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        self.lines.snapshot(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_from_bytes() {
        let pwc = PageWalkCache::new(8 * 1024, 16);
        assert_eq!(pwc.lines.capacity(), 64); // 8 KB / 128 B
    }

    #[test]
    fn repeated_line_hits() {
        let mut pwc = PageWalkCache::new(8 * 1024, 16);
        assert!(!pwc.access(LineAddr(42)));
        assert!(pwc.access(LineAddr(42)));
    }

    #[test]
    fn streaming_unique_lines_always_misses() {
        let mut pwc = PageWalkCache::new(8 * 1024, 16);
        for i in 0..1000u64 {
            assert!(!pwc.access(LineAddr(i * 17)));
        }
    }

    #[test]
    fn flush_empties_cache() {
        let mut pwc = PageWalkCache::new(1024, 8);
        pwc.access(LineAddr(1));
        pwc.flush();
        assert!(!pwc.access(LineAddr(1)), "flushed line must miss");
    }
}
