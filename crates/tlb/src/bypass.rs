//! MASK's TLB bypass cache (§5.2).
//!
//! "While TLB-Fill Tokens can reduce thrashing in the shared L2 TLB, a
//! handful of highly-reused PTEs may be requested by warps with no tokens,
//! which cannot insert the PTEs into the shared L2 TLB. To address this, we
//! add a TLB bypass cache, which is a small 32-entry fully-associative
//! cache. Only warps without tokens can fill the TLB bypass cache ... Like
//! the L1 and L2 TLBs, the TLB bypass cache uses the LRU replacement
//! policy."

use crate::assoc::AssocArray;
use crate::TlbKey;
use mask_common::addr::{Ppn, Vpn};
use mask_common::ids::Asid;
use mask_common::stats::HitStats;

/// A small fully-associative cache holding PTEs from tokenless warps.
#[derive(Debug)]
pub struct TlbBypassCache {
    entries: AssocArray<TlbKey, Ppn>,
    stats: HitStats,
}

impl TlbBypassCache {
    /// Creates a bypass cache with `entries` fully-associative entries
    /// (32 in the paper).
    pub fn new(entries: usize) -> Self {
        TlbBypassCache {
            entries: AssocArray::new(entries, entries),
            stats: HitStats::default(),
        }
    }

    /// Probes for a translation.
    pub fn probe(&mut self, asid: Asid, vpn: Vpn) -> Option<Ppn> {
        let r = self.entries.probe(&TlbKey::new(asid, vpn));
        self.stats.record(r.is_some());
        r
    }

    /// Inserts a translation from a tokenless warp.
    pub fn fill(&mut self, asid: Asid, vpn: Vpn, ppn: Ppn) {
        self.entries.fill(TlbKey::new(asid, vpn), ppn);
    }

    /// Flushes entries of one address space.
    pub fn flush_asid(&mut self, asid: Asid) {
        self.entries.retain(|k, _| k.asid != asid);
    }

    /// Flushes everything (PTE modification).
    pub fn flush(&mut self) {
        self.entries.flush();
    }

    /// Lifetime probe statistics ("average TLB bypass cache hit rate
    /// (66.5%)", §7.2).
    pub fn stats(&self) -> HitStats {
        self.stats
    }

    /// Zeroes the probe statistics (measurement-window reset).
    pub fn reset_stats(&mut self) {
        self.stats = HitStats::default();
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl mask_common::snapshot::Snapshot for TlbBypassCache {
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        self.entries.snapshot(w);
        self.stats.snapshot(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_miss_then_fill_hit() {
        let mut c = TlbBypassCache::new(4);
        assert_eq!(c.probe(Asid::new(0), Vpn(1)), None);
        c.fill(Asid::new(0), Vpn(1), Ppn(7));
        assert_eq!(c.probe(Asid::new(0), Vpn(1)), Some(Ppn(7)));
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn capacity_is_fully_associative() {
        let mut c = TlbBypassCache::new(32);
        for i in 0..32u64 {
            c.fill(Asid::new(0), Vpn(i), Ppn(i));
        }
        assert_eq!(
            (0..32u64)
                .filter(|&i| c.probe(Asid::new(0), Vpn(i)).is_some())
                .count(),
            32
        );
        // One more evicts exactly one entry.
        c.fill(Asid::new(0), Vpn(99), Ppn(99));
        assert_eq!(c.len(), 32);
    }

    #[test]
    fn flush_asid_only_hits_that_asid() {
        let mut c = TlbBypassCache::new(8);
        c.fill(Asid::new(0), Vpn(1), Ppn(1));
        c.fill(Asid::new(1), Vpn(1), Ppn(2));
        c.flush_asid(Asid::new(0));
        assert_eq!(c.probe(Asid::new(0), Vpn(1)), None);
        assert_eq!(c.probe(Asid::new(1), Vpn(1)), Some(Ppn(2)));
    }
}
