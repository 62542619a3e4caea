//! Per-core private L1 TLBs.
//!
//! Table 1: "64 entries per core, fully associative, LRU, 1-cycle latency".

use crate::assoc::AssocArray;
use crate::TlbKey;
use mask_common::addr::{Ppn, Vpn};
use mask_common::ids::Asid;

/// A private, fully-associative L1 TLB.
#[derive(Clone, Debug)]
pub struct L1Tlb {
    entries: AssocArray<TlbKey, Ppn>,
}

impl L1Tlb {
    /// Creates an L1 TLB with `entries` fully-associative entries.
    pub fn new(entries: usize) -> Self {
        L1Tlb {
            entries: AssocArray::new(entries, entries),
        }
    }

    /// Probes for a translation (updates LRU on hit).
    pub fn probe(&mut self, asid: Asid, vpn: Vpn) -> Option<Ppn> {
        self.entries.probe(&TlbKey::new(asid, vpn))
    }

    /// Inserts a translation, evicting LRU if full.
    pub fn fill(&mut self, asid: Asid, vpn: Vpn, ppn: Ppn) {
        self.entries.fill(TlbKey::new(asid, vpn), ppn);
        mask_obs::hooks::array_fill("l1-tlb", self.entries.len(), self.entries.capacity());
    }

    /// Flushes all entries of one address space (per-core TLB flush, §5.1:
    /// "TLB flush operations target a single GPU core, flushing the core's
    /// L1 TLB").
    pub fn flush_asid(&mut self, asid: Asid) {
        self.entries.retain(|k, _| k.asid != asid);
    }

    /// Flushes everything (page-table-root register change, §5.1).
    pub fn flush(&mut self) {
        self.entries.flush();
    }

    /// Number of resident translations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TLB holds no translations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl mask_common::snapshot::Snapshot for L1Tlb {
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        self.entries.snapshot(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_probe_roundtrip() {
        let mut tlb = L1Tlb::new(4);
        let (a, v, p) = (Asid::new(0), Vpn(5), Ppn(9));
        assert_eq!(tlb.probe(a, v), None);
        tlb.fill(a, v, p);
        assert_eq!(tlb.probe(a, v), Some(p));
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut tlb = L1Tlb::new(2);
        let a = Asid::new(0);
        tlb.fill(a, Vpn(1), Ppn(1));
        tlb.fill(a, Vpn(2), Ppn(2));
        tlb.probe(a, Vpn(1)); // make Vpn(2) the LRU entry
        tlb.fill(a, Vpn(3), Ppn(3));
        assert_eq!(tlb.probe(a, Vpn(2)), None);
        assert_eq!(tlb.probe(a, Vpn(1)), Some(Ppn(1)));
    }

    #[test]
    fn asid_mismatch_misses() {
        let mut tlb = L1Tlb::new(4);
        tlb.fill(Asid::new(0), Vpn(5), Ppn(9));
        assert_eq!(
            tlb.probe(Asid::new(1), Vpn(5)),
            None,
            "translations are per-address-space"
        );
    }

    #[test]
    fn flush_asid_is_selective() {
        let mut tlb = L1Tlb::new(8);
        tlb.fill(Asid::new(0), Vpn(1), Ppn(1));
        tlb.fill(Asid::new(1), Vpn(2), Ppn(2));
        tlb.flush_asid(Asid::new(0));
        assert_eq!(tlb.probe(Asid::new(0), Vpn(1)), None);
        assert_eq!(tlb.probe(Asid::new(1), Vpn(2)), Some(Ppn(2)));
        tlb.flush();
        assert!(tlb.is_empty());
    }
}
