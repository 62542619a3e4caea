//! The shared L2 TLB (Fig. 2b), with MASK's token-controlled fill path.
//!
//! Every warp can *probe* the shared L2 TLB, but under MASK only warps
//! holding a token may *fill* it; fills from tokenless warps are diverted
//! to the small TLB bypass cache, and "the GPU probes tags for both the
//! shared L2 TLB and the TLB bypass cache in parallel. A hit in either ...
//! yields a TLB hit" (§5.2).
//!
//! The bypass cache itself: "a small 32-entry fully-associative cache.
//! Only warps without tokens can fill the TLB bypass cache ... Like the L1
//! and L2 TLBs, the TLB bypass cache uses the LRU replacement policy"
//! (§5.2).
//!
//! Neither structure counts its probes over the run: the caller records
//! each [`L2TlbProbe`] outcome in its application's statistics. The bypass
//! cache is probed exactly when the main array misses.

use crate::assoc::AssocArray;
use crate::TlbKey;
use mask_common::addr::{Ppn, Vpn};
use mask_common::ids::Asid;
use mask_common::stats::HitStats;

/// Where a shared-L2-TLB probe hit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum L2TlbProbe {
    /// Hit in the main shared L2 TLB array.
    HitMain(Ppn),
    /// Hit in the TLB bypass cache (MASK designs only).
    HitBypassCache(Ppn),
    /// Missed in both structures; a page walk is required.
    Miss,
}

impl L2TlbProbe {
    /// The translation, if the probe hit anywhere.
    pub fn ppn(self) -> Option<Ppn> {
        match self {
            L2TlbProbe::HitMain(p) | L2TlbProbe::HitBypassCache(p) => Some(p),
            L2TlbProbe::Miss => None,
        }
    }
}

/// The shared L2 TLB, ASID-tagged, with optional MASK bypass cache.
#[derive(Debug)]
pub struct SharedL2Tlb {
    entries: AssocArray<TlbKey, Ppn>,
    /// The fully-associative TLB bypass cache (MASK designs only).
    bypass: Option<AssocArray<TlbKey, Ppn>>,
    /// Per-ASID probe statistics for the current epoch (drives token
    /// adaptation, §5.2).
    epoch: Vec<HitStats>,
}

impl SharedL2Tlb {
    /// Creates a shared L2 TLB.
    ///
    /// `bypass_entries` > 0 attaches a fully-associative TLB bypass cache
    /// of that many entries (32 in the paper; MASK designs); 0 disables it
    /// (baselines).
    pub fn new(entries: usize, assoc: usize, n_asids: usize, bypass_entries: usize) -> Self {
        SharedL2Tlb {
            entries: AssocArray::new(entries, assoc),
            bypass: (bypass_entries > 0).then(|| AssocArray::new(bypass_entries, bypass_entries)),
            epoch: vec![HitStats::default(); n_asids],
        }
    }

    /// Whether a TLB bypass cache is attached, so that every main-array
    /// miss also probes it.
    pub fn has_bypass_cache(&self) -> bool {
        self.bypass.is_some()
    }

    /// Probes main array and bypass cache in parallel (§5.2).
    pub fn probe(&mut self, asid: Asid, vpn: Vpn) -> L2TlbProbe {
        let key = TlbKey::new(asid, vpn);
        let main = self.entries.probe(&key);
        let outcome = if let Some(ppn) = main {
            L2TlbProbe::HitMain(ppn)
        } else if let Some(ppn) = self.bypass.as_mut().and_then(|b| b.probe(&key)) {
            L2TlbProbe::HitBypassCache(ppn)
        } else {
            L2TlbProbe::Miss
        };
        let hit = !matches!(outcome, L2TlbProbe::Miss);
        if let Some(s) = self.epoch.get_mut(asid.index()) {
            s.record(hit);
        }
        outcome
    }

    /// Fills a completed translation.
    ///
    /// `has_token == true` (or any non-MASK design, which passes `true`
    /// unconditionally) fills the main array; otherwise the entry is
    /// buffered in the bypass cache only (§5.2). Returns `true` if the fill
    /// was diverted to the bypass cache.
    pub fn fill(&mut self, asid: Asid, vpn: Vpn, ppn: Ppn, has_token: bool) -> bool {
        match &mut self.bypass {
            Some(bypass) if !has_token => {
                bypass.fill(TlbKey::new(asid, vpn), ppn);
                true
            }
            _ => {
                self.entries.fill(TlbKey::new(asid, vpn), ppn);
                mask_obs::hooks::array_fill("l2-tlb", self.entries.len(), self.entries.capacity());
                false
            }
        }
    }

    /// Per-ASID miss rate over the current epoch (`None` if `asid` made
    /// no probe).
    pub fn epoch_miss_rate(&self, asid: Asid) -> Option<f64> {
        self.epoch.get(asid.index()).and_then(HitStats::miss_rate)
    }

    /// Clears the per-epoch counters (called at each epoch boundary).
    pub fn reset_epoch(&mut self) {
        for s in &mut self.epoch {
            *s = HitStats::default();
        }
    }

    /// Flushes all entries belonging to `asid` from the main array and the
    /// bypass cache (§5.1: L2 flushes match the ASID).
    pub fn flush_asid(&mut self, asid: Asid) {
        self.entries.retain(|k, _| k.asid != asid);
        if let Some(b) = &mut self.bypass {
            b.retain(|k, _| k.asid != asid);
        }
    }

    /// Flushes everything (PTE modification, §5.2: "MASK flushes all
    /// contents of the TLB and the TLB bypass cache when a PTE is
    /// modified").
    pub fn flush(&mut self) {
        self.entries.flush();
        if let Some(b) = &mut self.bypass {
            b.flush();
        }
    }

    /// Resident entries in the main array.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the main array is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl mask_common::snapshot::Snapshot for SharedL2Tlb {
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        w.section("l2tlb");
        self.entries.snapshot(w);
        // Presence of the bypass cache is config-derived; only its contents
        // are state.
        if let Some(b) = &self.bypass {
            b.snapshot(w);
        }
        w.seq(self.epoch.len());
        for s in &self.epoch {
            s.snapshot(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb(bypass: usize) -> SharedL2Tlb {
        SharedL2Tlb::new(64, 16, 2, bypass)
    }

    #[test]
    fn fill_and_probe_main() {
        let mut t = tlb(0);
        let (a, v, p) = (Asid::new(0), Vpn(3), Ppn(4));
        assert_eq!(t.probe(a, v), L2TlbProbe::Miss);
        assert!(!t.fill(a, v, p, true));
        assert_eq!(t.probe(a, v), L2TlbProbe::HitMain(p));
        assert_eq!(t.probe(a, v).ppn(), Some(p));
    }

    #[test]
    fn tokenless_fill_goes_to_bypass_cache() {
        let mut t = tlb(8);
        let (a, v, p) = (Asid::new(0), Vpn(3), Ppn(4));
        assert!(t.fill(a, v, p, false), "fill should be diverted");
        assert_eq!(t.probe(a, v), L2TlbProbe::HitBypassCache(p));
        assert_eq!(t.len(), 0, "main array untouched");
    }

    #[test]
    fn bypass_cache_probe_misses_then_hits_after_a_tokenless_fill() {
        let mut t = tlb(4);
        let (a, v) = (Asid::new(0), Vpn(1));
        assert_eq!(t.probe(a, v), L2TlbProbe::Miss);
        assert!(t.fill(a, v, Ppn(7), false));
        assert_eq!(t.probe(a, v), L2TlbProbe::HitBypassCache(Ppn(7)));
    }

    #[test]
    fn bypass_cache_is_fully_associative() {
        let mut t = tlb(32);
        let asid = Asid::new(0);
        for i in 0..32u64 {
            t.fill(asid, Vpn(i), Ppn(i), false);
        }
        let resident = |t: &mut SharedL2Tlb| {
            (0..32u64)
                .filter(|&i| t.probe(asid, Vpn(i)) == L2TlbProbe::HitBypassCache(Ppn(i)))
                .count()
        };
        assert_eq!(resident(&mut t), 32, "32 pages fill 32 entries");
        // One more evicts exactly one entry.
        t.fill(asid, Vpn(99), Ppn(99), false);
        assert_eq!(t.probe(asid, Vpn(99)), L2TlbProbe::HitBypassCache(Ppn(99)));
        assert_eq!(resident(&mut t), 31);
        assert!(t.is_empty(), "main array untouched");
    }

    #[test]
    fn bypass_cache_flush_asid_only_hits_that_asid() {
        let mut t = tlb(8);
        t.fill(Asid::new(0), Vpn(1), Ppn(1), false);
        t.fill(Asid::new(1), Vpn(1), Ppn(2), false);
        t.flush_asid(Asid::new(0));
        assert_eq!(t.probe(Asid::new(0), Vpn(1)), L2TlbProbe::Miss);
        assert_eq!(
            t.probe(Asid::new(1), Vpn(1)),
            L2TlbProbe::HitBypassCache(Ppn(2))
        );
    }

    #[test]
    fn tokenless_fill_without_bypass_cache_fills_main() {
        // Baselines have no bypass cache; every fill goes to the main array.
        let mut t = tlb(0);
        assert!(!t.fill(Asid::new(0), Vpn(1), Ppn(1), false));
        assert_eq!(t.probe(Asid::new(0), Vpn(1)), L2TlbProbe::HitMain(Ppn(1)));
    }

    #[test]
    fn epoch_miss_rates_are_per_asid() {
        let mut t = tlb(0);
        t.fill(Asid::new(0), Vpn(1), Ppn(1), true);
        // App 0: one hit, one miss. App 1: two misses.
        t.probe(Asid::new(0), Vpn(1));
        t.probe(Asid::new(0), Vpn(9));
        t.probe(Asid::new(1), Vpn(1));
        t.probe(Asid::new(1), Vpn(2));
        assert_eq!(t.epoch_miss_rate(Asid::new(0)), Some(0.5));
        assert_eq!(t.epoch_miss_rate(Asid::new(1)), Some(1.0));
        assert_eq!(t.epoch_miss_rate(Asid::new(2)), None, "no such ASID");
        t.reset_epoch();
        assert_eq!(t.epoch_miss_rate(Asid::new(0)), None, "no probe yet");
    }

    #[test]
    fn flush_asid_clears_both_structures() {
        let mut t = tlb(8);
        t.fill(Asid::new(0), Vpn(1), Ppn(1), true);
        t.fill(Asid::new(0), Vpn(2), Ppn(2), false);
        t.fill(Asid::new(1), Vpn(3), Ppn(3), true);
        t.flush_asid(Asid::new(0));
        assert_eq!(t.probe(Asid::new(0), Vpn(1)), L2TlbProbe::Miss);
        assert_eq!(t.probe(Asid::new(0), Vpn(2)), L2TlbProbe::Miss);
        assert_eq!(t.probe(Asid::new(1), Vpn(3)), L2TlbProbe::HitMain(Ppn(3)));
    }

    #[test]
    fn full_flush_clears_everything() {
        let mut t = tlb(8);
        t.fill(Asid::new(0), Vpn(1), Ppn(1), true);
        t.fill(Asid::new(1), Vpn(2), Ppn(2), false);
        t.flush();
        assert!(t.is_empty());
        assert_eq!(t.probe(Asid::new(1), Vpn(2)), L2TlbProbe::Miss);
    }

    #[test]
    fn thrashing_under_shared_capacity() {
        // Two apps each streaming over > capacity pages thrash each other —
        // the Fig. 7 phenomenon in miniature.
        let mut t = tlb(0);
        for round in 0..4u64 {
            for i in 0..64u64 {
                let vpn = Vpn(i);
                for asid in [Asid::new(0), Asid::new(1)] {
                    if t.probe(asid, vpn).ppn().is_none() {
                        t.fill(asid, vpn, Ppn(i + 1), true);
                    }
                }
                let _ = round;
            }
        }
        // 128 distinct keys compete for 64 entries: miss rates stay high.
        assert!(t.epoch_miss_rate(Asid::new(0)) > Some(0.3));
        assert!(t.epoch_miss_rate(Asid::new(1)) > Some(0.3));
    }
}
